//! Signed URLs for out-of-band unpairing.
//!
//! "The user is sent an email to their associated account email address
//! that contains a signed URL. Following the URL in the email ensures that
//! the user is in control of the email address on file for the account and
//! will allow the user to remove the current MFA pairing." (§3.5)
//!
//! Token format: `base64url(user) . expires . base64url(hmac-sha256(key,
//! user|expires))`, carried as a query parameter.

use hpcmfa_crypto::base64;
use hpcmfa_crypto::hmac::hmac;
use hpcmfa_crypto::sha256::Sha256;

/// How long an unpairing link stays valid.
pub(crate) const DEFAULT_VALIDITY_SECS: u64 = 24 * 3600;

/// A parsed signed URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedUrl {
    /// The account the link acts on.
    pub user: String,
    /// Unix expiry time.
    pub expires: u64,
    /// The full URL string as mailed.
    pub url: String,
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UrlError {
    /// Structure not recognizable.
    Malformed,
    /// Signature mismatch (tampered or wrong key).
    BadSignature,
    /// Past the expiry time.
    Expired,
}

impl std::fmt::Display for UrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrlError::Malformed => write!(f, "malformed signed URL"),
            UrlError::BadSignature => write!(f, "signature verification failed"),
            UrlError::Expired => write!(f, "signed URL expired"),
        }
    }
}

impl std::error::Error for UrlError {}

/// Issues and verifies signed URLs with one HMAC key.
pub(crate) struct UrlSigner {
    key: Vec<u8>,
    base: String,
}

impl UrlSigner {
    /// Create a signer for links under `base`, e.g.
    /// `https://portal.tacc.utexas.edu/mfa/unpair`.
    pub(crate) fn new(key: impl Into<Vec<u8>>, base: &str) -> Self {
        UrlSigner {
            key: key.into(),
            base: base.to_string(),
        }
    }

    fn sig(&self, user: &str, expires: u64) -> String {
        let payload = format!("{user}|{expires}");
        base64::encode_url(&hmac::<Sha256>(&self.key, payload.as_bytes()))
    }

    /// Issue a link for `user`, valid `validity_secs` from `now`.
    pub(crate) fn issue(&self, user: &str, now: u64, validity_secs: u64) -> SignedUrl {
        let expires = now + validity_secs;
        let token = format!(
            "{}.{}.{}",
            base64::encode_url(user.as_bytes()),
            expires,
            self.sig(user, expires)
        );
        SignedUrl {
            user: user.to_string(),
            expires,
            url: format!("{}?token={}", self.base, token),
        }
    }

    /// Verify a URL at time `now`, returning the authorized user.
    pub(crate) fn verify(&self, url: &str, now: u64) -> Result<String, UrlError> {
        let token = url
            .split_once("?token=")
            .map(|(_, t)| t)
            .ok_or(UrlError::Malformed)?;
        let mut parts = token.split('.');
        let (user_b64, expires_str, sig) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(u), Some(e), Some(s), None) => (u, e, s),
                _ => return Err(UrlError::Malformed),
            };
        let user_bytes = base64::decode_url(user_b64).map_err(|_| UrlError::Malformed)?;
        let user = String::from_utf8(user_bytes).map_err(|_| UrlError::Malformed)?;
        let expires: u64 = expires_str.parse().map_err(|_| UrlError::Malformed)?;
        let expected = self.sig(&user, expires);
        if !hpcmfa_crypto::ct::ct_eq_str(&expected, sig) {
            return Err(UrlError::BadSignature);
        }
        if now >= expires {
            return Err(UrlError::Expired);
        }
        Ok(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> UrlSigner {
        UrlSigner::new(b"portal-url-key".to_vec(), "https://portal/mfa/unpair")
    }

    #[test]
    fn issue_and_verify() {
        let s = signer();
        let link = s.issue("alice", 1_000, 3_600);
        assert_eq!(link.user, "alice");
        assert_eq!(link.expires, 4_600);
        assert!(link.url.starts_with("https://portal/mfa/unpair?token="));
        assert_eq!(s.verify(&link.url, 2_000).unwrap(), "alice");
    }

    #[test]
    fn expiry_enforced() {
        let s = signer();
        let link = s.issue("alice", 1_000, 3_600);
        assert_eq!(s.verify(&link.url, 4_600), Err(UrlError::Expired));
        assert_eq!(s.verify(&link.url, 4_599).unwrap(), "alice");
    }

    #[test]
    fn tampered_user_rejected() {
        let s = signer();
        let link = s.issue("alice", 1_000, 3_600);
        let forged = link.url.replace(
            &hpcmfa_crypto::base64::encode_url(b"alice"),
            &hpcmfa_crypto::base64::encode_url(b"mallory"),
        );
        assert_eq!(s.verify(&forged, 2_000), Err(UrlError::BadSignature));
    }

    #[test]
    fn tampered_expiry_rejected() {
        let s = signer();
        let link = s.issue("alice", 1_000, 10);
        let forged = link.url.replace(".1010.", ".9999999.");
        assert_eq!(s.verify(&forged, 2_000), Err(UrlError::BadSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let s1 = signer();
        let s2 = UrlSigner::new(b"other-key".to_vec(), "https://portal/mfa/unpair");
        let link = s1.issue("alice", 1_000, 3_600);
        assert_eq!(s2.verify(&link.url, 2_000), Err(UrlError::BadSignature));
    }

    #[test]
    fn malformed_urls_rejected() {
        let s = signer();
        assert_eq!(
            s.verify("https://portal/mfa/unpair", 0),
            Err(UrlError::Malformed)
        );
        assert_eq!(
            s.verify("https://portal/mfa/unpair?token=abc", 0),
            Err(UrlError::Malformed)
        );
        assert_eq!(
            s.verify("https://portal/mfa/unpair?token=a.b.c.d", 0),
            Err(UrlError::Malformed)
        );
        assert_eq!(
            s.verify("https://portal/mfa/unpair?token=!!.123.sig", 0),
            Err(UrlError::Malformed)
        );
    }

    #[test]
    fn unicode_usernames_survive() {
        let s = signer();
        let link = s.issue("übername", 0, 100);
        assert_eq!(s.verify(&link.url, 50).unwrap(), "übername");
    }
}
