//! SHA-1 (FIPS 180-4).
//!
//! HMAC-SHA-1 is the mandatory-to-implement algorithm of HOTP (RFC 4226) and
//! the default of TOTP (RFC 6238). Every token device in the paper — the
//! in-house smartphone app, the Feitian OTP c200 key fob, SMS-delivered
//! codes, and the static training tokens — ultimately derives its six-digit
//! codes from HMAC-SHA-1. SHA-1 collision weaknesses do not impact its HMAC
//! usage here.

use crate::merkle_damgard::{Algorithm, Hasher, Sha1Algorithm};

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

    /// The schedule lives in sixteen words overwritten in place
    /// (`w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16])`, indices mod
    /// 16), and the eighty rounds are written out as four groups of
    /// twenty, each with its own `f` and constant, the five working
    /// variables rotating through the argument list instead of moving.
    /// Every index is a literal: no lookup or branch depends on `block`
    /// or `state`. Always inlined, so the counter kernel's constant block
    /// words fold into the rounds.
    #[inline(always)]
    fn compress(state: &mut [u32; 5], block: &[u32; 16]) {
        let mut w = *block;
        let [mut a, mut b, mut c, mut d, mut e] = *state;

        // One round at position `$i`; after it the caller's next round
        // names the variables one place to the right.
        macro_rules! round {
            ($f:ident, $k:literal, $i:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
                if $i >= 16 {
                    w[$i & 15] =
                        (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                            .rotate_left(1);
                }
                // `$a` is the previous round's result: it joins last, so
                // the rest of the sum is off the round-to-round chain.
                $e = $e
                    .wrapping_add($k)
                    .wrapping_add(w[$i & 15])
                    .wrapping_add($f($b, $c, $d))
                    .wrapping_add($a.rotate_left(5));
                $b = $b.rotate_left(30);
            };
        }
        // Five rounds bring the variables back to their own names.
        macro_rules! five {
            ($f:ident, $k:literal, $i:expr) => {
                round!($f, $k, $i, a, b, c, d, e);
                round!($f, $k, $i + 1, e, a, b, c, d);
                round!($f, $k, $i + 2, d, e, a, b, c);
                round!($f, $k, $i + 3, c, d, e, a, b);
                round!($f, $k, $i + 4, b, c, d, e, a);
            };
        }
        macro_rules! twenty {
            ($f:ident, $k:literal, $i:expr) => {
                five!($f, $k, $i);
                five!($f, $k, $i + 5);
                five!($f, $k, $i + 10);
                five!($f, $k, $i + 15);
            };
        }
        twenty!(ch, 0x5a827999, 0);
        twenty!(parity, 0x6ed9eba1, 20);
        twenty!(maj, 0x8f1bbcdc, 40);
        twenty!(parity, 0xca62c1d6, 60);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;
    use crate::Digest;
    use proptest::prelude::*;

    /// FIPS 180-4 §6.1.2 as written: the full 80-word schedule, one loop,
    /// `f` and `K` chosen per round. The reference `compress` is checked
    /// against.
    fn compress_rolled(state: &mut [u32; 5], block: &[u8; 64]) {
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

    proptest! {
        #[test]
        fn compress_matches_the_rolled_reference(
            state in any::<[u8; 20]>(),
            block in any::<[u8; 64]>(),
        ) {
            let mut fast = [0u32; 5];
            for (word, bytes) in fast.iter_mut().zip(state.chunks_exact(4)) {
                *word = u32::from_be_bytes(bytes.try_into().unwrap());
            }
            let mut rolled = fast;
            let mut words = [0u32; 16];
            for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes(bytes.try_into().unwrap());
            }
            Sha1Algorithm::compress(&mut fast, &words);
            compress_rolled(&mut rolled, &block);
            prop_assert_eq!(fast, rolled);
        }
    }

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
            assert_eq!(to_hex(&Sha1::digest(input)), *expect);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha1::digest(&data)),
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
            assert_eq!(h.finalize().to_vec(), Sha1::digest(&data), "chunk {chunk}");
        }
    }
}
