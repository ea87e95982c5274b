//! HTTP Digest access authentication (RFC 7616, MD5 profile with
//! `qop="auth"`).
//!
//! The paper's user portal authenticates to the LinOTP administrative REST
//! interface "using HTTP Digest Authentication over a TLS-secured
//! connection" (§3.5). This module provides both halves of that exchange:
//! server-side challenge issuing/verification with nonce-count replay
//! protection, and the client-side response computation.

use crate::hex::to_hex;
use crate::md5::md5;

/// A server-issued challenge (`WWW-Authenticate: Digest ...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestChallenge {
    /// Protection realm, e.g. `LinOTP admin area`.
    pub realm: String,
    /// Server nonce, unique per challenge.
    pub nonce: String,
    /// Opaque blob echoed back by clients.
    pub opaque: String,
}

/// A client authorization (`Authorization: Digest ...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestAuthorization {
    /// Username presented by the client.
    pub username: String,
    /// Realm copied from the challenge.
    pub realm: String,
    /// Server nonce copied from the challenge.
    pub nonce: String,
    /// Request URI the digest covers.
    pub uri: String,
    /// Hex response digest.
    pub response: String,
    /// Client nonce.
    pub cnonce: String,
    /// Nonce count, rendered as 8 hex digits (`00000001`).
    pub nc: u32,
    /// Opaque copied from the challenge.
    pub opaque: String,
}

fn h(parts: &[&str]) -> String {
    to_hex(&md5(parts.join(":").as_bytes()))
}

/// `HA1 = MD5(username:realm:password)` — what a server may store instead of
/// the cleartext password.
pub(crate) fn ha1(username: &str, realm: &str, password: &str) -> String {
    h(&[username, realm, password])
}

/// Compute the digest response for a request (RFC 7616 §3.4.1, qop=auth).
pub(crate) fn compute_response(
    ha1_hex: &str,
    method: &str,
    uri: &str,
    nonce: &str,
    nc: u32,
    cnonce: &str,
) -> String {
    let ha2 = h(&[method, uri]);
    let nc_str = format!("{nc:08x}");
    h(&[ha1_hex, nonce, &nc_str, cnonce, "auth", &ha2])
}

/// Client helper: answer `challenge` for `method uri` with credentials.
pub fn answer_challenge(
    challenge: &DigestChallenge,
    username: &str,
    password: &str,
    method: &str,
    uri: &str,
    cnonce: &str,
    nc: u32,
) -> DigestAuthorization {
    let ha1_hex = ha1(username, &challenge.realm, password);
    let response = compute_response(&ha1_hex, method, uri, &challenge.nonce, nc, cnonce);
    DigestAuthorization {
        username: username.to_string(),
        realm: challenge.realm.clone(),
        nonce: challenge.nonce.clone(),
        uri: uri.to_string(),
        response,
        cnonce: cnonce.to_string(),
        nc,
        opaque: challenge.opaque.clone(),
    }
}

/// Why a server rejected a [`DigestAuthorization`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestError {
    /// Nonce unknown or already expired server-side (client must re-challenge).
    StaleNonce,
    /// Nonce count not strictly increasing — a replayed request.
    ReplayedNonceCount,
    /// Unknown user.
    UnknownUser,
    /// Digest mismatch (wrong password or tampered request).
    BadResponse,
    /// Realm or opaque do not match the issued challenge.
    ChallengeMismatch,
}

impl std::fmt::Display for DigestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DigestError::StaleNonce => "stale nonce",
            DigestError::ReplayedNonceCount => "replayed nonce count",
            DigestError::UnknownUser => "unknown user",
            DigestError::BadResponse => "bad digest response",
            DigestError::ChallengeMismatch => "challenge mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DigestError {}

/// Server-side digest verifier: issues challenges, stores per-nonce state,
/// and verifies authorizations with nonce-count monotonicity.
pub struct DigestVerifier {
    realm: String,
    /// username -> HA1 hex.
    credentials: std::collections::HashMap<String, String>,
    /// nonce -> (opaque, highest nc seen).
    nonces: std::collections::HashMap<String, (String, u32)>,
    counter: u64,
    /// Seed mixed into nonce generation so two verifiers differ.
    seed: u64,
}

impl DigestVerifier {
    /// Create a verifier for `realm`. `seed` perturbs nonce generation.
    pub fn new(realm: &str, seed: u64) -> Self {
        DigestVerifier {
            realm: realm.to_string(),
            credentials: std::collections::HashMap::new(),
            nonces: std::collections::HashMap::new(),
            counter: 0,
            seed,
        }
    }

    /// Register a user by cleartext password (stored as HA1 only).
    pub fn add_user(&mut self, username: &str, password: &str) {
        self.credentials
            .insert(username.to_string(), ha1(username, &self.realm, password));
    }

    /// Issue a fresh challenge.
    pub fn challenge(&mut self) -> DigestChallenge {
        self.counter += 1;
        let nonce_src = format!("nonce-{}-{}", self.seed, self.counter);
        let opaque_src = format!("opaque-{}-{}", self.seed, self.counter);
        let nonce = to_hex(&md5(nonce_src.as_bytes()));
        let opaque = to_hex(&md5(opaque_src.as_bytes()));
        self.nonces.insert(nonce.clone(), (opaque.clone(), 0));
        DigestChallenge {
            realm: self.realm.clone(),
            nonce,
            opaque,
        }
    }

    /// Verify an authorization for `method uri`.
    pub fn verify(
        &mut self,
        auth: &DigestAuthorization,
        method: &str,
        uri: &str,
    ) -> Result<(), DigestError> {
        if auth.realm != self.realm {
            return Err(DigestError::ChallengeMismatch);
        }
        let (opaque, last_nc) = self
            .nonces
            .get_mut(&auth.nonce)
            .ok_or(DigestError::StaleNonce)?;
        if *opaque != auth.opaque {
            return Err(DigestError::ChallengeMismatch);
        }
        if auth.nc <= *last_nc {
            return Err(DigestError::ReplayedNonceCount);
        }
        let ha1_hex = self
            .credentials
            .get(&auth.username)
            .ok_or(DigestError::UnknownUser)?;
        let expected = compute_response(ha1_hex, method, uri, &auth.nonce, auth.nc, &auth.cnonce);
        if !crate::ct::ct_eq_str(&expected, &auth.response) {
            return Err(DigestError::BadResponse);
        }
        *last_nc = auth.nc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DigestVerifier, DigestChallenge) {
        let mut v = DigestVerifier::new("LinOTP admin area", 42);
        v.add_user("portal", "s3cret");
        let c = v.challenge();
        (v, c)
    }

    #[test]
    fn rfc7616_worked_example() {
        // RFC 7616 §3.9.1 (MD5 profile) reference computation.
        let ha1_hex = ha1("Mufasa", "http-auth@example.org", "Circle of Life");
        let response = compute_response(
            &ha1_hex,
            "GET",
            "/dir/index.html",
            "7ypf/xlj9XXwfDPEoM4URrv/xwf94BcCAzFZH4GiTo0v",
            1,
            "f2/wE4q74E6zIJEtWaHKaf5wv/H5QzzpXusqGemxURZJ",
        );
        assert_eq!(response, "8ca523f5e9506fed4657c9700eebdbec");
    }

    #[test]
    fn round_trip_success() {
        let (mut v, c) = setup();
        let auth = answer_challenge(&c, "portal", "s3cret", "POST", "/admin/init", "cn1", 1);
        assert_eq!(v.verify(&auth, "POST", "/admin/init"), Ok(()));
    }

    #[test]
    fn wrong_password_rejected() {
        let (mut v, c) = setup();
        let auth = answer_challenge(&c, "portal", "wrong", "POST", "/admin/init", "cn1", 1);
        assert_eq!(
            v.verify(&auth, "POST", "/admin/init"),
            Err(DigestError::BadResponse)
        );
    }

    #[test]
    fn unknown_user_rejected() {
        let (mut v, c) = setup();
        let auth = answer_challenge(&c, "intruder", "s3cret", "GET", "/", "cn1", 1);
        assert_eq!(v.verify(&auth, "GET", "/"), Err(DigestError::UnknownUser));
    }

    #[test]
    fn nonce_count_must_increase() {
        let (mut v, c) = setup();
        let a1 = answer_challenge(&c, "portal", "s3cret", "GET", "/a", "cn1", 1);
        assert_eq!(v.verify(&a1, "GET", "/a"), Ok(()));
        // Exact replay.
        assert_eq!(
            v.verify(&a1, "GET", "/a"),
            Err(DigestError::ReplayedNonceCount)
        );
        // Same nonce, higher nc: allowed (pipelined requests).
        let a2 = answer_challenge(&c, "portal", "s3cret", "GET", "/b", "cn2", 2);
        assert_eq!(v.verify(&a2, "GET", "/b"), Ok(()));
    }

    #[test]
    fn stale_nonce_rejected() {
        let (mut v, c) = setup();
        v.nonces.clear();
        let auth = answer_challenge(&c, "portal", "s3cret", "GET", "/", "cn1", 1);
        assert_eq!(v.verify(&auth, "GET", "/"), Err(DigestError::StaleNonce));
    }

    #[test]
    fn method_or_uri_tamper_rejected() {
        let (mut v, c) = setup();
        let auth = answer_challenge(&c, "portal", "s3cret", "GET", "/a", "cn1", 1);
        assert_eq!(v.verify(&auth, "POST", "/a"), Err(DigestError::BadResponse));
        let auth2 = answer_challenge(&c, "portal", "s3cret", "GET", "/a", "cn1", 2);
        assert_eq!(v.verify(&auth2, "GET", "/b"), Err(DigestError::BadResponse));
    }

    #[test]
    fn opaque_mismatch_rejected() {
        let (mut v, c) = setup();
        let mut auth = answer_challenge(&c, "portal", "s3cret", "GET", "/", "cn1", 1);
        auth.opaque = "tampered".into();
        assert_eq!(
            v.verify(&auth, "GET", "/"),
            Err(DigestError::ChallengeMismatch)
        );
    }

    #[test]
    fn challenges_are_unique() {
        let mut v = DigestVerifier::new("r", 1);
        let c1 = v.challenge();
        let c2 = v.challenge();
        assert_ne!(c1.nonce, c2.nonce);
        assert_ne!(c1.opaque, c2.opaque);
    }
}
