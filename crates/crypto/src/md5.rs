//! MD5 message digest (RFC 1321).
//!
//! MD5 is cryptographically broken for collision resistance, but the RADIUS
//! protocol (RFC 2865) is *defined* in terms of MD5: response authenticators
//! are `MD5(Code+ID+Length+RequestAuth+Attributes+Secret)` and the
//! `User-Password` attribute is hidden with an MD5-based stream. HTTP Digest
//! authentication with `algorithm=MD5` likewise requires it. This module
//! exists to interoperate with those wire formats, not as a general-purpose
//! hash.

use crate::merkle_damgard::{Algorithm, Hasher, Md5Algorithm};
use crate::Digest;

/// Sine-derived additive constants: `K[i] = floor(2^32 * |sin(i + 1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
pub type Md5 = Hasher<Md5Algorithm>;

impl Algorithm for Md5Algorithm {
    type Word = u32;
    type State = [u32; 4];
    type Block = [u8; 64];
    type Output = [u8; 16];
    const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
    const ZERO_BLOCK: [u8; 64] = [0; 64];
    const ZERO_OUTPUT: [u8; 16] = [0; 16];
    const BIG_ENDIAN: bool = false;

    /// The 64 steps (RFC 1321 §3.4) are written out as four rounds of
    /// sixteen, each with its own function and rotations, every message
    /// index a literal and the four working variables rotating through the
    /// argument list instead of moving — `sha1.rs`'s idiom. No lookup or
    /// branch depends on `m` or `state`.
    fn compress(state: &mut [u32; 4], m: &[u32; 16]) {
        let [mut a, mut b, mut c, mut d] = *state;

        // RFC 1321's `[abcd k s i]`: a = b + ((a + F(b,c,d) + X[k] + T[i])
        // <<< s). The caller's next step names the variables one place to
        // the right.
        macro_rules! step {
            ($f:ident, $i:expr, $a:ident, $b:ident, $c:ident, $d:ident, $k:literal, $s:literal) => {
                // The constant and the message word join first: they are
                // off the step-to-step chain through `$b`.
                $a = $a
                    .wrapping_add(K[$i])
                    .wrapping_add(m[$k])
                    .wrapping_add($f($b, $c, $d))
                    .rotate_left($s)
                    .wrapping_add($b);
            };
        }
        // Four steps bring the variables back to their own names.
        macro_rules! four {
            ($f:ident, $i:expr, [$s0:literal, $s1:literal, $s2:literal, $s3:literal],
             [$k0:literal, $k1:literal, $k2:literal, $k3:literal]) => {
                step!($f, $i, a, b, c, d, $k0, $s0);
                step!($f, $i + 1, d, a, b, c, $k1, $s1);
                step!($f, $i + 2, c, d, a, b, $k2, $s2);
                step!($f, $i + 3, b, c, d, a, $k3, $s3);
            };
        }
        macro_rules! sixteen {
            ($f:ident, $i:expr, $s:tt, [$k0:literal, $k1:literal, $k2:literal, $k3:literal,
             $k4:literal, $k5:literal, $k6:literal, $k7:literal, $k8:literal, $k9:literal,
             $k10:literal, $k11:literal, $k12:literal, $k13:literal, $k14:literal, $k15:literal]) => {
                four!($f, $i, $s, [$k0, $k1, $k2, $k3]);
                four!($f, $i + 4, $s, [$k4, $k5, $k6, $k7]);
                four!($f, $i + 8, $s, [$k8, $k9, $k10, $k11]);
                four!($f, $i + 12, $s, [$k12, $k13, $k14, $k15]);
            };
        }
        sixteen! { f, 0, [7, 12, 17, 22], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15] }
        sixteen! { g, 16, [5, 9, 14, 20], [1, 6, 11, 0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12] }
        sixteen! { h, 32, [4, 11, 16, 23], [5, 8, 11, 14, 1, 4, 7, 10, 13, 0, 3, 6, 9, 12, 15, 2] }
        sixteen! { i, 48, [6, 10, 15, 21], [0, 7, 14, 5, 12, 3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9] }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }
}

#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One-shot MD5.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;
    use proptest::prelude::*;

    /// Per-step left-rotate amounts (RFC 1321 §3.4).
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// RFC 1321 §3.4 as one loop: the function, message index, constant
    /// and rotation chosen per step. The reference `compress` is checked
    /// against.
    fn compress_rolled(state: &mut [u32; 4], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        let (mut a, mut b, mut c, mut d) = (state[0], state[1], state[2], state[3]);
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }

    proptest! {
        #[test]
        fn compress_matches_the_rolled_reference(
            state in any::<[u8; 16]>(),
            block in any::<[u8; 64]>(),
        ) {
            let mut fast = [0u32; 4];
            for (word, bytes) in fast.iter_mut().zip(state.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().unwrap());
            }
            let mut rolled = fast;
            let mut words = [0u32; 16];
            for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().unwrap());
            }
            Md5Algorithm::compress(&mut fast, &words);
            compress_rolled(&mut rolled, &block);
            prop_assert_eq!(fast, rolled);
        }
    }

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(to_hex(&md5(input.as_bytes())), *expect, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), md5(&data), "split {split}");
        }
    }

    #[test]
    fn multi_block_boundary_lengths() {
        // Lengths straddling the 55/56-byte padding boundary and block edges.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let data = vec![0xabu8; n];
            let mut h = Md5::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), md5(&data), "len {n}");
        }
    }
}
