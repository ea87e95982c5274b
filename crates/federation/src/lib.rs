//! Federated multi-realm authentication.
//!
//! Real HPC centers federate logins across institutions: a PSC user walks
//! up to a TACC login node, types `alice@psc`, and the visited site proxies
//! the second factor to the user's *home realm* instead of pretending to
//! know her token secret. This crate supplies the three pieces the rest of
//! the workspace composes into that flow:
//!
//! * `realm` — `user@site` principal parsing;
//! * `trust` — the cross-site trust configuration: which realms a site
//!   will route for, the per-realm shared secrets, and per-realm policy
//!   (degradation mode, risk weight);
//! * `token` — stateless, HMAC-integrity-protected, address-bound
//!   session-resumption tokens patterned on QUIC's address-validation
//!   tokens (RFC 9000 §8.1.3–§8.1.4): after one full MFA success the
//!   center hands the client a short-lived token binding user, realm,
//!   issuing site, client /16 and a 128-bit nonce; a repeat login presents
//!   it and validates in O(1) — one HMAC verify, no OTP window scan.
//!
//! Single-use enforcement for the tokens deliberately lives *outside* this
//! crate: the token itself stays stateless, and the OTP server's WAL-backed
//! nullification ledger (which already survives crash recovery and
//! failover) records each consumed nonce.

#![forbid(unsafe_code)]

mod realm;
mod token;
mod trust;

pub use realm::split_principal;
pub use token::{ResumeAuthority, TokenClaims, TokenError, RESUME_REPLY_PREFIX, TOKEN_PREFIX};
pub use trust::{RealmDegradation, RealmPeer, RealmPolicy, TrustConfig};
