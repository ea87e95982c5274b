//! OTP secret keys.
//!
//! "The key is unique to a user and stored in the LinOTP back end database"
//! (§3.3). Secrets are opaque byte strings; base32 is the interchange form
//! used in provisioning URIs, hex in admin tooling.

use hpcmfa_crypto::{base32, hex};
use rand::RngCore;

/// Default secret length in bytes. RFC 4226 §4 requires at least 128 bits
/// and recommends 160 (the SHA-1 output length); we follow the
/// recommendation, as Google-Authenticator-lineage apps do.
pub(crate) const DEFAULT_SECRET_LEN: usize = 20;

/// A shared OTP secret key.
///
/// Equality is provided for tests and store bookkeeping; *validation* must
/// always go through token-code comparison, never secret comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Secret(Vec<u8>);

impl Secret {
    /// Wrap raw key bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Secret(bytes.into())
    }

    /// Generate a fresh random secret of `DEFAULT_SECRET_LEN` bytes.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generate_len(rng, DEFAULT_SECRET_LEN)
    }

    /// Generate a fresh random secret of `len` bytes.
    pub(crate) fn generate_len<R: RngCore + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        Secret(bytes)
    }

    /// Parse from unpadded/padded base32 (the otpauth URI form).
    pub fn from_base32(s: &str) -> Result<Self, base32::Base32Error> {
        base32::decode(s).map(Secret)
    }

    /// Parse from hex (the admin/batch-import form; Feitian hard-token seed
    /// files ship as hex).
    pub fn from_hex(s: &str) -> Result<Self, hex::HexError> {
        hex::from_hex(s).map(Secret)
    }

    /// Raw key bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Unpadded base32 rendering for provisioning URIs.
    pub fn to_base32(&self) -> String {
        base32::encode(&self.0)
    }

    /// Hex rendering for admin tooling.
    pub fn to_hex(&self) -> String {
        hex::to_hex(&self.0)
    }

    /// Whether the secret is empty (never valid for real tokens).
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Debug intentionally redacts key material; only a short fingerprint is
/// shown so log lines stay useful without leaking secrets.
impl std::fmt::Debug for Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fp = hpcmfa_crypto::sha256::sha256(&self.0);
        write!(
            f,
            "Secret(len={}, fp={})",
            self.0.len(),
            &hex::to_hex(&fp)[..8]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_has_default_length_and_entropy() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Secret::generate(&mut rng);
        let b = Secret::generate(&mut rng);
        assert_eq!(a.0.len(), DEFAULT_SECRET_LEN);
        assert_ne!(a, b);
    }

    #[test]
    fn base32_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = Secret::generate(&mut rng);
        assert_eq!(Secret::from_base32(&s.to_base32()).unwrap(), s);
    }

    #[test]
    fn hex_round_trip() {
        let s = Secret::from_bytes(*b"12345678901234567890");
        assert_eq!(Secret::from_hex(&s.to_hex()).unwrap(), s);
        assert_eq!(s.to_hex(), "3132333435363738393031323334353637383930");
    }

    #[test]
    fn debug_redacts_key_material() {
        let s = Secret::from_bytes(*b"12345678901234567890");
        let dbg = format!("{s:?}");
        assert!(!dbg.contains("12345678901234567890"));
        assert!(!dbg.contains(&s.to_hex()));
        assert!(!dbg.contains(&s.to_base32()));
        assert!(dbg.contains("len=20"));
    }

    #[test]
    fn custom_length() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(Secret::generate_len(&mut rng, 32).0.len(), 32);
    }
}
