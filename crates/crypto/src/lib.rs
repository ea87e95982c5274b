//! Minimal cryptographic substrate for the Securing HPC MFA infrastructure.
//!
//! The paper's components lean on a handful of well-known primitives:
//!
//! * **MD5** — RADIUS request/response authenticators and `User-Password`
//!   hiding (RFC 2865 §3, §5.2) and HTTP Digest access authentication
//!   (RFC 7616 with the legacy MD5 algorithm), which the user portal uses to
//!   authenticate to the LinOTP-style admin API.
//! * **SHA-1 / SHA-256 / SHA-512** — the HMAC hash underlying HOTP/TOTP
//!   (RFC 4226 / RFC 6238). Production deployments overwhelmingly use
//!   HMAC-SHA-1 tokens; the RFC also defines SHA-256/512 variants which we
//!   support for completeness.
//! * **HMAC** (RFC 2104) — keyed-hash MAC over any of the digests above,
//!   from precomputed key midstates, with one fixed-shape kernel for the
//!   8-byte counter every HOTP/TOTP candidate MACs
//!   ([`PreparedHmac::mac_counter_into`]).
//! * **base32** (RFC 4648) — the standard encoding for OTP secret keys in
//!   `otpauth://` URIs consumed by soft-token apps such as the in-house
//!   Google-Authenticator derivative the paper describes.
//! * **base64** — signed-URL tokens for the out-of-band unpairing email flow.
//! * **Constant-time comparison** — token-code and digest comparisons.
//!
//! None of the approved offline dependencies provide these primitives, so they
//! are implemented here from their public specifications, each validated
//! against the official RFC/NIST test vectors in the module tests.
//!
//! The four digests share one Merkle–Damgård core. MD5 and SHA-1 write
//! their rounds out with literal message indices, rotations and constants,
//! each property-tested against the rolled loop of its RFC: no table index
//! or branch in either depends on the key or the message.
//!
//! This crate is deliberately dependency-free.

#![forbid(unsafe_code)]

pub mod base32;
pub mod base64;
pub mod ct;
pub mod digestauth;
pub mod hex;
pub mod hmac;
pub mod md5;
mod merkle_damgard;
pub mod sha1;
pub mod sha256;
pub mod sha512;

/// A block-based cryptographic hash function.
///
/// This is the small abstraction [`hmac`] and [`digestauth`] are generic
/// over. Implemented once, by the Merkle–Damgård core behind
/// [`md5::Md5`], [`sha1::Sha1`], [`sha256::Sha256`] and [`sha512::Sha512`].
pub trait Digest: Default + Clone {
    /// Digest output size in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block size in bytes (used for HMAC key normalization).
    const BLOCK_LEN: usize;

    /// Absorb `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consume the hasher, writing the digest into `out` (which must be at
    /// least [`Digest::OUTPUT_LEN`] bytes; only that prefix is written).
    /// No heap allocation — the HMAC hot path
    /// ([`hmac::HmacKey::mac_into`]) leans on that.
    fn finalize_into(self, out: &mut [u8]);

    /// Consume the hasher and produce the digest bytes.
    fn finalize_vec(self) -> Vec<u8> {
        let mut out = vec![0u8; Self::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience: digest of `data`.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::default();
        h.update(data);
        h.finalize_vec()
    }
}

/// Identifies the hash algorithm behind an HMAC-based OTP, as carried in
/// `otpauth://` URIs and token-store records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashAlg {
    /// HMAC-SHA-1 — the RFC 4226 default and what essentially all deployed
    /// TOTP tokens (including the paper's soft and hard tokens) use.
    #[default]
    Sha1,
    /// HMAC-SHA-256 (RFC 6238 variant).
    Sha256,
    /// HMAC-SHA-512 (RFC 6238 variant).
    Sha512,
}

impl HashAlg {
    /// Canonical algorithm label used in otpauth URIs.
    pub fn name(self) -> &'static str {
        match self {
            HashAlg::Sha1 => "SHA1",
            HashAlg::Sha256 => "SHA256",
            HashAlg::Sha512 => "SHA512",
        }
    }

    /// Parse an algorithm label (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "SHA1" => Some(HashAlg::Sha1),
            "SHA256" => Some(HashAlg::Sha256),
            "SHA512" => Some(HashAlg::Sha512),
            _ => None,
        }
    }

    /// Compute `HMAC(key, msg)` with this algorithm.
    pub fn hmac(self, key: &[u8], msg: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Sha1 => hmac::hmac::<sha1::Sha1>(key, msg),
            HashAlg::Sha256 => hmac::hmac::<sha256::Sha256>(key, msg),
            HashAlg::Sha512 => hmac::hmac::<sha512::Sha512>(key, msg),
        }
    }

    /// Precompute the HMAC midstates for `key` under this algorithm (see
    /// [`hmac::HmacKey`]). Callers that MAC many counters against one
    /// secret — a TOTP drift-window scan, a resync search — build this
    /// once and pay two block compressions per counter afterwards.
    pub fn prepare_key(self, key: &[u8]) -> PreparedHmac {
        match self {
            HashAlg::Sha1 => PreparedHmac::Sha1(hmac::HmacKey::new(key)),
            HashAlg::Sha256 => PreparedHmac::Sha256(hmac::HmacKey::new(key)),
            HashAlg::Sha512 => PreparedHmac::Sha512(hmac::HmacKey::new(key)),
        }
    }
}

/// A precomputed [`hmac::HmacKey`] for a dynamically chosen [`HashAlg`] —
/// the store records the algorithm as data, so the hot path dispatches on
/// this enum rather than a generic parameter.
#[derive(Clone)]
pub enum PreparedHmac {
    /// HMAC-SHA-1 midstates.
    Sha1(hmac::HmacKey<sha1::Sha1>),
    /// HMAC-SHA-256 midstates.
    Sha256(hmac::HmacKey<sha256::Sha256>),
    /// HMAC-SHA-512 midstates.
    Sha512(hmac::HmacKey<sha512::Sha512>),
}

impl PreparedHmac {
    /// The MAC of `counter.to_be_bytes()` into `out` (size with
    /// [`hmac::MAX_OUTPUT_LEN`]); returns the MAC length. The 8-byte counter
    /// is the one message a token MACs, so this fixed-shape kernel
    /// ([`hmac::HmacKey::mac_counter`]) is the key's one operation: what
    /// every HOTP and TOTP candidate costs. Allocation-free.
    pub fn mac_counter_into(&self, counter: u64, out: &mut [u8]) -> usize {
        fn put(mac: &[u8], out: &mut [u8]) -> usize {
            out[..mac.len()].copy_from_slice(mac);
            mac.len()
        }
        match self {
            PreparedHmac::Sha1(k) => put(&k.mac_counter(counter), out),
            PreparedHmac::Sha256(k) => put(&k.mac_counter(counter), out),
            PreparedHmac::Sha512(k) => put(&k.mac_counter(counter), out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_alg_names_round_trip() {
        for alg in [HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
            assert_eq!(HashAlg::parse(alg.name()), Some(alg));
        }
        assert_eq!(HashAlg::parse("sha1"), Some(HashAlg::Sha1));
        assert_eq!(HashAlg::parse("md5"), None);
    }

    #[test]
    fn hash_alg_hmac_dispatch_lengths() {
        assert_eq!(HashAlg::Sha1.hmac(b"k", b"m").len(), 20);
        assert_eq!(HashAlg::Sha256.hmac(b"k", b"m").len(), 32);
        assert_eq!(HashAlg::Sha512.hmac(b"k", b"m").len(), 64);
    }

    #[test]
    fn default_alg_is_sha1() {
        assert_eq!(HashAlg::default(), HashAlg::Sha1);
    }
}
