//! HOTP: an HMAC-based one-time password algorithm (RFC 4226).
//!
//! TOTP (RFC 6238) — what every token in the paper generates — is defined as
//! HOTP over a time-derived counter, so this module is the single source of
//! truth for code generation.

use crate::secret::Secret;
use hpcmfa_crypto::{hmac::MAX_OUTPUT_LEN, HashAlg, PreparedHmac};

/// Compute the raw HOTP value (before decimal truncation) for `counter`.
///
/// Implements RFC 4226 §5.3 dynamic truncation: the low nibble of the final
/// MAC byte selects a 4-byte window whose 31-bit big-endian value is reduced
/// modulo `10^digits`.
pub(crate) fn hotp_value(secret: &Secret, counter: u64, alg: HashAlg) -> u32 {
    hotp_value_prepared(&alg.prepare_key(secret.bytes()), counter)
}

/// `hotp_value` against a precomputed [`PreparedHmac`]. Validation scans
/// (TOTP drift window, resync search) build the key once and call this per
/// counter: two block compressions through the counter kernel
/// ([`PreparedHmac::mac_counter_into`]), whatever the algorithm, and zero
/// heap allocations per candidate.
pub fn hotp_value_prepared(key: &PreparedHmac, counter: u64) -> u32 {
    let mut mac = [0u8; MAX_OUTPUT_LEN];
    let n = key.mac_counter_into(counter, &mut mac);
    dynamic_truncate(&mac[..n])
}

/// RFC 4226 dynamic truncation of an HMAC output.
pub(crate) fn dynamic_truncate(mac: &[u8]) -> u32 {
    debug_assert!(mac.len() >= 20, "HMAC output shorter than SHA-1");
    let offset = usize::from(mac[mac.len() - 1] & 0x0f);
    let w = &mac[offset..offset + 4];
    u32::from_be_bytes([w[0], w[1], w[2], w[3]]) & 0x7fff_ffff
}

/// Compute the `digits`-digit HOTP code for `counter` as a zero-padded
/// string — what the user types at the `TACC Token:` prompt.
pub fn hotp(secret: &Secret, counter: u64, digits: u32, alg: HashAlg) -> String {
    hotp_prepared(&alg.prepare_key(secret.bytes()), counter, digits)
}

/// [`hotp`] against a precomputed [`PreparedHmac`].
pub(crate) fn hotp_prepared(key: &PreparedHmac, counter: u64, digits: u32) -> String {
    let value = hotp_value_prepared(key, counter) % 10u32.pow(digits);
    crate::format_code(value, digits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_secret() -> Secret {
        Secret::from_bytes(*b"12345678901234567890")
    }

    /// RFC 4226 Appendix D: intermediate HMAC truncated values.
    #[test]
    fn rfc4226_truncated_values() {
        let expected: [u32; 10] = [
            1284755224, 1094287082, 137359152, 1726969429, 1640338314, 868254676, 1918287922,
            82162583, 673399871, 645520489,
        ];
        let secret = rfc_secret();
        for (counter, want) in expected.iter().enumerate() {
            assert_eq!(
                hotp_value(&secret, counter as u64, HashAlg::Sha1),
                *want,
                "counter {counter}"
            );
        }
    }

    /// RFC 4226 Appendix D: final 6-digit HOTP codes.
    #[test]
    fn rfc4226_codes() {
        let expected = [
            "755224", "287082", "359152", "969429", "338314", "254676", "287922", "162583",
            "399871", "520489",
        ];
        let secret = rfc_secret();
        for (counter, want) in expected.iter().enumerate() {
            assert_eq!(hotp(&secret, counter as u64, 6, HashAlg::Sha1), *want);
        }
    }

    #[test]
    fn leading_zeros_preserved() {
        // Find a counter whose code starts with '0' and ensure the string
        // keeps full width.
        let secret = rfc_secret();
        let code = hotp(&secret, 7, 6, HashAlg::Sha1); // "162583"
        assert_eq!(code.len(), 6);
        let code8 = hotp(&secret, 0, 8, HashAlg::Sha1);
        assert_eq!(code8.len(), 8);
        assert_eq!(code8, "84755224");
    }

    #[test]
    fn different_algorithms_differ() {
        let secret = rfc_secret();
        let s1 = hotp(&secret, 1, 6, HashAlg::Sha1);
        let s256 = hotp(&secret, 1, 6, HashAlg::Sha256);
        let s512 = hotp(&secret, 1, 6, HashAlg::Sha512);
        assert_ne!(s1, s256);
        assert_ne!(s256, s512);
    }
}
