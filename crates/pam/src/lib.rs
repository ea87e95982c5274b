//! A Pluggable-Authentication-Modules engine and the paper's four in-house
//! MFA modules.
//!
//! "In all, four new PAM modules were created: a module 1.) to check the
//! success of SSH public key authentication, 2.) to check if an MFA
//! exemption has been granted, 3.) to check if an MFA token code was
//! correct, and 4.) a module specific for use on Oracle Solaris operating
//! systems that combine the public key and MFA exemption checks" (§3.4).
//!
//! * [`stack`] — the PAM engine: module trait, control flags
//!   (`required` / `requisite` / `sufficient` / `optional` plus the
//!   `[success=N default=ignore]` jump form Figure 1's "skip password on
//!   pubkey success" wiring needs), and stack evaluation.
//! * [`conv`] — the conversation interface (challenge–response prompts to
//!   the SSH user).
//! * [`access`] — the MFA exemption control list: users / IPs / CIDR
//!   ranges / expiry dates / `ALL` keywords, first-match-wins, default
//!   deny-exemption (§3.4).
//! * [`modules`] — the four in-house modules plus the stock password
//!   module they compose with.
//! * [`config`] — a `pam.d`-style stack configuration parser, so Figure 1
//!   can be assembled from a file exactly as a sysadmin would.

#![forbid(unsafe_code)]

pub mod access;
pub mod config;
pub mod context;
pub mod conv;
pub mod modules;
pub mod stack;

pub use context::PamContext;
pub use conv::ScriptedConversation;
pub use stack::{ControlFlag, PamModule, PamResult, PamStack, PamVerdict};
