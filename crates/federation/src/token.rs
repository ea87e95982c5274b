//! Stateless, address-bound session-resumption tokens.
//!
//! Modeled on QUIC's NEW_TOKEN address-validation design (RFC 9000
//! §8.1.3): the server offloads session state to the client as an opaque,
//! integrity-protected blob, and on presentation needs *one* keyed-hash
//! verification to trust every field inside it — no database lookup, no
//! OTP drift-window scan. RFC 9000 §8.1.4 is explicit that such tokens
//! must be hard to guess, must be bound to the client address, and that
//! servers need replay protection on top; this codec supplies the first
//! two and the OTP server's WAL-backed nonce ledger supplies the third.
//!
//! # Wire form
//!
//! ```text
//! HPCRT1.<base64url(body || mac)>
//! body = user | realm | issuer | client /16 (2 bytes) | issued_step (u64 LE) | nonce (16 bytes)
//! mac  = HMAC-SHA256(key, body)            (32 bytes, midstate-cached key)
//! ```
//!
//! Strings are `u16 LE` length-prefixed; the blob is unpadded base64url
//! so a typical token (~111 chars) rides inside RFC 2865's 128-octet
//! `User-Password` ceiling with the full 32-byte MAC intact. The MAC is
//! computed with the workspace's midstate-cached [`HmacKey`], so issuing
//! or checking a token costs one inner + one outer SHA-256 compression
//! pass over ~64 bytes — the O(1) the resumption hot path is built
//! around.

use hpcmfa_crypto::base64::{decode_url, encode_url};
use hpcmfa_crypto::ct::ct_eq;
use hpcmfa_crypto::hmac::HmacKey;
use hpcmfa_crypto::sha256::Sha256;
use rand::RngCore;
use std::net::Ipv4Addr;

/// Recognizable wire prefix; lets the RADIUS handler tell a resumption
/// token from a six-digit OTP code without ambiguity (codes are numeric).
pub const TOKEN_PREFIX: &str = "HPCRT1.";

/// `Reply-Message` prefix the OTP server's RADIUS handler uses to hand a
/// freshly issued resumption token back to the login node on a full-MFA
/// Accept. The PAM token module strips this prefix and stashes the token
/// for the client to present on its next login.
pub const RESUME_REPLY_PREFIX: &str = "resume=";

/// MAC length appended to the body (full HMAC-SHA256).
const MAC_LEN: usize = 32;

/// Nonce length: 128 bits, RFC 9000 §8.1.4's "hard to guess" floor.
pub(crate) const NONCE_LEN: usize = 16;

/// Everything a token binds. All fields are integrity-protected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenClaims {
    /// Bare account name at the home realm.
    pub user: String,
    /// The user's home realm.
    pub realm: String,
    /// Site that issued the token (the realm that ran the full MFA).
    pub issuer: String,
    /// First two octets of the client IPv4 address (/16 binding).
    pub client_net: [u8; 2],
    /// OTP step at issue time; lifetime is measured in steps.
    pub issued_step: u64,
    /// Single-use nonce, random from the seeded RNG.
    pub nonce: [u8; NONCE_LEN],
}

impl TokenClaims {
    /// The /16 prefix of `addr`.
    pub fn net_of(addr: Ipv4Addr) -> [u8; 2] {
        let o = addr.octets();
        [o[0], o[1]]
    }
}

/// Why a presented token was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenError {
    /// Not base64url, truncated, bad prefix, or a body that does not
    /// parse.
    Malformed,
    /// The MAC did not verify (bit-flip, truncation inside the encoded
    /// body, or a token minted under a different key).
    BadMac,
    /// The token names a different account than the login presenting it.
    WrongUser,
    /// The presenting client is outside the issued /16.
    WrongAddress,
    /// The issue step is outside the validity window (too old, or from a
    /// future step — a clock the issuer cannot have seen).
    Expired,
}

impl TokenError {
    /// Stable label for telemetry detail strings.
    pub fn label(self) -> &'static str {
        match self {
            TokenError::Malformed => "malformed",
            TokenError::BadMac => "bad_mac",
            TokenError::WrongUser => "wrong_user",
            TokenError::WrongAddress => "wrong_address",
            TokenError::Expired => "expired",
        }
    }
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for TokenError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    out.extend_from_slice(&(b.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&b[..b.len().min(u16::MAX as usize)]);
}

fn take_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len_end = pos.checked_add(2)?;
    if len_end > bytes.len() {
        return None;
    }
    let len = u16::from_le_bytes([bytes[*pos], bytes[*pos + 1]]) as usize;
    let end = len_end.checked_add(len)?;
    if end > bytes.len() {
        return None;
    }
    let s = std::str::from_utf8(&bytes[len_end..end]).ok()?;
    *pos = end;
    Some(s)
}

fn take_fixed<const N: usize>(bytes: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let end = pos.checked_add(N)?;
    if end > bytes.len() {
        return None;
    }
    let arr: [u8; N] = bytes[*pos..end].try_into().ok()?;
    *pos = end;
    Some(arr)
}

fn encode_body(claims: &TokenClaims) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    put_str(&mut body, &claims.user);
    put_str(&mut body, &claims.realm);
    put_str(&mut body, &claims.issuer);
    body.extend_from_slice(&claims.client_net);
    body.extend_from_slice(&claims.issued_step.to_le_bytes());
    body.extend_from_slice(&claims.nonce);
    body
}

fn decode_body(body: &[u8]) -> Option<TokenClaims> {
    let mut pos = 0usize;
    let user = take_str(body, &mut pos)?.to_string();
    let realm = take_str(body, &mut pos)?.to_string();
    let issuer = take_str(body, &mut pos)?.to_string();
    let client_net = take_fixed::<2>(body, &mut pos)?;
    let issued_step = u64::from_le_bytes(take_fixed::<8>(body, &mut pos)?);
    let nonce = take_fixed::<NONCE_LEN>(body, &mut pos)?;
    if pos != body.len() {
        return None; // trailing garbage under a valid MAC is still refused
    }
    Some(TokenClaims {
        user,
        realm,
        issuer,
        client_net,
        issued_step,
        nonce,
    })
}

/// The site-local token authority: one HMAC key (midstate cached), the
/// issuing site's identity, and the validity window.
pub struct ResumeAuthority {
    key: HmacKey<Sha256>,
    /// Issuing site name, embedded in every token.
    pub site: String,
    /// Home realm the tokens vouch for.
    pub realm: String,
    /// Validity window in OTP steps after the issue step.
    pub lifetime_steps: u64,
    /// Step width in seconds (shared with the OTP config).
    pub step_secs: u64,
}

impl ResumeAuthority {
    /// Build an authority for `site`/`realm` keyed with `key`.
    pub fn new(key: &[u8], site: &str, realm: &str, lifetime_steps: u64, step_secs: u64) -> Self {
        ResumeAuthority {
            key: HmacKey::new(key),
            site: site.to_string(),
            realm: realm.to_string(),
            lifetime_steps,
            step_secs: step_secs.max(1),
        }
    }

    /// Does `candidate` look like a resumption token (vs an OTP code)?
    pub fn is_token(candidate: &str) -> bool {
        candidate.starts_with(TOKEN_PREFIX)
    }

    /// The OTP step containing wall-second `now`.
    pub(crate) fn step_of(&self, now: u64) -> u64 {
        now / self.step_secs
    }

    /// When a token issued at `issued_step` stops validating — the ledger
    /// may forget its nonce after this instant because the stateless
    /// expiry check takes over.
    pub fn expires_at(&self, issued_step: u64) -> u64 {
        issued_step
            .saturating_add(self.lifetime_steps)
            .saturating_add(1)
            .saturating_mul(self.step_secs)
    }

    /// Seal `claims` into wire form under this authority's key.
    pub(crate) fn seal(&self, claims: &TokenClaims) -> String {
        let mut body = encode_body(claims);
        let mut mac = [0u8; MAC_LEN];
        self.key.mac_into(&body, &mut mac);
        body.extend_from_slice(&mac);
        format!("{TOKEN_PREFIX}{}", encode_url(&body))
    }

    /// Issue a fresh token for `user` at `client`, stamped with the
    /// current step and a random nonce from `rng`.
    pub fn issue<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        user: &str,
        client: Ipv4Addr,
        now: u64,
    ) -> String {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.seal(&TokenClaims {
            user: user.to_string(),
            realm: self.realm.clone(),
            issuer: self.site.clone(),
            client_net: TokenClaims::net_of(client),
            issued_step: self.step_of(now),
            nonce,
        })
    }

    /// Decode and MAC-verify `token`, without binding checks. The MAC is
    /// checked *before* the body parse so a forged payload never steers
    /// the parser.
    pub fn open(&self, token: &str) -> Result<TokenClaims, TokenError> {
        let encoded = token
            .strip_prefix(TOKEN_PREFIX)
            .ok_or(TokenError::Malformed)?;
        // Strict decode: a blob has exactly one accepted spelling.
        let raw = decode_url(encoded).map_err(|_| TokenError::Malformed)?;
        if raw.len() < MAC_LEN + 1 {
            return Err(TokenError::Malformed);
        }
        let (body, mac) = raw.split_at(raw.len() - MAC_LEN);
        let mut expect = [0u8; MAC_LEN];
        self.key.mac_into(body, &mut expect);
        if !ct_eq(mac, &expect) {
            return Err(TokenError::BadMac);
        }
        decode_body(body).ok_or(TokenError::Malformed)
    }

    /// Full stateless validation: MAC, account binding, /16 binding, and
    /// the step window. Single-use (nonce ledger) is the caller's job.
    pub fn validate(
        &self,
        token: &str,
        user: &str,
        client: Ipv4Addr,
        now: u64,
    ) -> Result<TokenClaims, TokenError> {
        let claims = self.open(token)?;
        if claims.user != user {
            return Err(TokenError::WrongUser);
        }
        if claims.client_net != TokenClaims::net_of(client) {
            return Err(TokenError::WrongAddress);
        }
        let step = self.step_of(now);
        if claims.issued_step > step || step > claims.issued_step + self.lifetime_steps {
            return Err(TokenError::Expired);
        }
        Ok(claims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn authority() -> ResumeAuthority {
        ResumeAuthority::new(b"resume-key", "tacc", "tacc", 20, 30)
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(70, 10, 50, 3);

    #[test]
    fn issue_validate_round_trip() {
        let auth = authority();
        let mut rng = StdRng::seed_from_u64(1);
        let token = auth.issue(&mut rng, "alice", CLIENT, 1_700_000_000);
        assert!(ResumeAuthority::is_token(&token));
        let claims = auth
            .validate(&token, "alice", CLIENT, 1_700_000_000 + 60)
            .unwrap();
        assert_eq!(claims.user, "alice");
        assert_eq!(claims.realm, "tacc");
        assert_eq!(claims.issuer, "tacc");
        assert_eq!(claims.client_net, [70, 10]);
    }

    #[test]
    fn same_16_different_host_still_validates() {
        let auth = authority();
        let mut rng = StdRng::seed_from_u64(2);
        let token = auth.issue(&mut rng, "alice", CLIENT, 1_700_000_000);
        let sibling = Ipv4Addr::new(70, 10, 99, 200);
        assert!(auth
            .validate(&token, "alice", sibling, 1_700_000_000)
            .is_ok());
    }

    #[test]
    fn bindings_are_enforced() {
        let auth = authority();
        let mut rng = StdRng::seed_from_u64(3);
        let t0 = 1_700_000_000u64;
        let token = auth.issue(&mut rng, "alice", CLIENT, t0);
        assert_eq!(
            auth.validate(&token, "mallory", CLIENT, t0).unwrap_err(),
            TokenError::WrongUser
        );
        assert_eq!(
            auth.validate(&token, "alice", Ipv4Addr::new(203, 0, 113, 9), t0)
                .unwrap_err(),
            TokenError::WrongAddress
        );
        let past_window = t0 + (auth.lifetime_steps + 1) * auth.step_secs;
        assert_eq!(
            auth.validate(&token, "alice", CLIENT, past_window)
                .unwrap_err(),
            TokenError::Expired
        );
        // A token stamped in the issuer's future is refused too.
        assert_eq!(
            auth.validate(&token, "alice", CLIENT, t0 - 30).unwrap_err(),
            TokenError::Expired
        );
    }

    #[test]
    fn wrong_key_and_tampering_rejected() {
        let auth = authority();
        let other = ResumeAuthority::new(b"other-key", "tacc", "tacc", 20, 30);
        let mut rng = StdRng::seed_from_u64(4);
        let token = auth.issue(&mut rng, "alice", CLIENT, 1_700_000_000);
        assert_eq!(
            other.open(&token).unwrap_err(),
            TokenError::BadMac,
            "wrong key must fail the MAC"
        );
        // Flip one character in the body region.
        let mut chars: Vec<char> = token.chars().collect();
        let i = TOKEN_PREFIX.len() + 4;
        chars[i] = if chars[i] == 'A' { 'B' } else { 'A' };
        let tampered: String = chars.into_iter().collect();
        assert_eq!(auth.open(&tampered).unwrap_err(), TokenError::BadMac);
        // Truncation.
        assert!(matches!(
            auth.open(&token[..token.len() - 8]).unwrap_err(),
            TokenError::BadMac | TokenError::Malformed
        ));
        // Prefixless garbage.
        assert_eq!(auth.open("123456").unwrap_err(), TokenError::Malformed);
    }

    #[test]
    fn nonces_differ_per_issue() {
        let auth = authority();
        let mut rng = StdRng::seed_from_u64(5);
        let a = auth.issue(&mut rng, "alice", CLIENT, 1_700_000_000);
        let b = auth.issue(&mut rng, "alice", CLIENT, 1_700_000_000);
        assert_ne!(a, b);
        assert_ne!(auth.open(&a).unwrap().nonce, auth.open(&b).unwrap().nonce);
    }
}
