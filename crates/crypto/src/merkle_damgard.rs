//! The Merkle–Damgård construction under MD5, SHA-1, SHA-256 and SHA-512:
//! block buffering, the byte count, the length padding and the output
//! serialisation, written once. A digest is an [`Algorithm`] — its sizes,
//! byte order, initial state and compression function — and [`Hasher`] is
//! monomorphised over it.

use crate::Digest;
use std::mem::size_of;

/// What tells the four digests apart.
pub trait Algorithm {
    /// One word of the chaining value: `u32`, or `u64` for SHA-512.
    type Word: Copy + Into<u128>;
    /// The chaining value.
    type State: Copy + AsRef<[Self::Word]>;
    /// One input block: `[u8; 64]`, or `[u8; 128]` for SHA-512.
    type Block: Copy + AsRef<[u8]> + AsMut<[u8]>;
    /// The digest, `[u8; N]`: every word of the final chaining value.
    type Output: AsRef<[u8]> + AsMut<[u8]>;
    /// The initial chaining value.
    const INIT: Self::State;
    /// An all-zero block.
    const ZERO_BLOCK: Self::Block;
    /// An all-zero digest.
    const ZERO_OUTPUT: Self::Output;
    /// The bit length and the digest's words are written big-endian (the
    /// SHA family) or little-endian (MD5).
    const BIG_ENDIAN: bool;

    /// Fold one block into the chaining value.
    fn compress(state: &mut Self::State, block: &Self::Block);
}

/// Write the low `out.len()` bytes of `value` in `A`'s byte order.
fn put<A: Algorithm>(out: &mut [u8], value: u128) {
    if A::BIG_ENDIAN {
        out.copy_from_slice(&value.to_be_bytes()[16 - out.len()..]);
    } else {
        out.copy_from_slice(&value.to_le_bytes()[..out.len()]);
    }
}

/// Described in [`crate::md5`].
pub struct Md5Algorithm;
/// Described in [`crate::sha1`].
pub struct Sha1Algorithm;
/// Described in [`crate::sha256`].
pub struct Sha256Algorithm;
/// Described in [`crate::sha512`].
pub struct Sha512Algorithm;

/// Incremental hasher for algorithm `A`.
pub struct Hasher<A: Algorithm> {
    state: A::State,
    /// Total message length in bytes (FIPS 180-4 allows SHA-512 2^128
    /// bits; 2^64 bytes is far beyond any use in this workspace).
    len: u64,
    buf: A::Block,
    buf_len: usize,
}

impl<A: Algorithm> Clone for Hasher<A> {
    fn clone(&self) -> Self {
        Hasher { ..*self }
    }
}

impl<A: Algorithm> Default for Hasher<A> {
    fn default() -> Self {
        Hasher {
            state: A::INIT,
            len: 0,
            buf: A::ZERO_BLOCK,
            buf_len: 0,
        }
    }
}

impl<A: Algorithm> Hasher<A> {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalize into a fixed-size array.
    pub fn finalize(mut self) -> A::Output {
        let bit_len = u128::from(self.len) * 8;
        let buf = self.buf.as_mut();
        // All four close the last block with the bit length in two words
        // of its sixteen: 8 bytes of 64, 16 of SHA-512's 128.
        let length_at = buf.len() - buf.len() / 8;
        // Pad: 0x80, zeros up to the length field — in a block of their
        // own when the field no longer fits behind the message tail.
        buf[self.buf_len] = 0x80;
        buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= length_at {
            A::compress(&mut self.state, &self.buf);
            self.buf = A::ZERO_BLOCK;
        }
        put::<A>(&mut self.buf.as_mut()[length_at..], bit_len);
        A::compress(&mut self.state, &self.buf);
        let mut out = A::ZERO_OUTPUT;
        let words = out.as_mut().chunks_exact_mut(size_of::<A::Word>());
        for (bytes, word) in words.zip(self.state.as_ref()) {
            put::<A>(bytes, (*word).into());
        }
        out
    }
}

impl<A: Algorithm> Digest for Hasher<A> {
    const OUTPUT_LEN: usize = size_of::<A::Output>();
    const BLOCK_LEN: usize = size_of::<A::Block>();

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        while !data.is_empty() {
            let room = &mut self.buf.as_mut()[self.buf_len..];
            let take = room.len().min(data.len());
            room[..take].copy_from_slice(&data[..take]);
            data = &data[take..];
            self.buf_len += take;
            if take == room.len() {
                A::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
    }

    fn finalize_into(self, out: &mut [u8]) {
        out[..Self::OUTPUT_LEN].copy_from_slice(self.finalize().as_ref());
    }
}
