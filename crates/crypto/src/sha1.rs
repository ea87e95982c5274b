//! SHA-1 (FIPS 180-4).
//!
//! HMAC-SHA-1 is the mandatory-to-implement algorithm of HOTP (RFC 4226) and
//! the default of TOTP (RFC 6238). Every token device in the paper — the
//! in-house smartphone app, the Feitian OTP c200 key fob, SMS-delivered
//! codes, and the static training tokens — ultimately derives its six-digit
//! codes from HMAC-SHA-1. SHA-1 collision weaknesses do not impact its HMAC
//! usage here.

use crate::merkle_damgard::{Algorithm, Hasher, Sha1Algorithm};
use crate::Digest;

/// Incremental SHA-1 hasher.
pub type Sha1 = Hasher<Sha1Algorithm>;

impl Algorithm for Sha1Algorithm {
    type Word = u32;
    type State = [u32; 5];
    type Block = [u8; 64];
    type Output = [u8; 20];
    const INIT: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];
    const ZERO_BLOCK: [u8; 64] = [0; 64];
    const ZERO_OUTPUT: [u8; 20] = [0; 20];
    const BIG_ENDIAN: bool = true;

    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) =
            (state[0], state[1], state[2], state[3], state[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5a827999),
                1 => (b ^ c ^ d, 0x6ed9eba1),
                2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    // FIPS 180-4 / RFC 3174 vectors.
    #[test]
    fn standard_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(to_hex(&sha1(input)), *expect);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..500u16).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 7, 64, 65, 100] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha1(&data), "chunk {chunk}");
        }
    }
}
