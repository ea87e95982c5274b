//! The Merkle–Damgård construction under MD5, SHA-1, SHA-256 and SHA-512:
//! block buffering, the byte count, the length padding and the output
//! serialisation, written once. A digest is an [`Algorithm`] — its sizes,
//! byte order, initial state and compression function — and [`Hasher`] is
//! monomorphised over it. So is [`Hasher::counter_mac`], the fixed-shape
//! HMAC every HOTP/TOTP candidate is.

use crate::Digest;
use std::mem::size_of;

/// One word of a block and of the chaining value: `u32`, or `u64` for
/// SHA-512. A block is sixteen of them in all four digests.
pub trait Word: Copy + Into<u128> {
    /// Zero.
    const ZERO: Self;
    /// The low bits of `v`.
    fn low(v: u128) -> Self;
    /// The word `bytes` (exactly one word long) spell big-endian.
    fn from_be(bytes: &[u8]) -> Self;
    /// The same bytes in the opposite order.
    fn swap_bytes(self) -> Self;
}

macro_rules! word {
    ($t:ty) => {
        impl Word for $t {
            const ZERO: $t = 0;
            #[inline(always)]
            fn low(v: u128) -> $t {
                v as $t
            }
            #[inline(always)]
            fn from_be(bytes: &[u8]) -> $t {
                let mut b = [0u8; size_of::<$t>()];
                b.copy_from_slice(bytes);
                <$t>::from_be_bytes(b)
            }
            #[inline(always)]
            fn swap_bytes(self) -> $t {
                <$t>::swap_bytes(self)
            }
        }
    };
}
word!(u32);
word!(u64);

/// What tells the four digests apart.
pub trait Algorithm {
    /// One word of a block and of the chaining value.
    type Word: Word;
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

    /// Fold one block, read as its sixteen words, into the chaining value.
    fn compress(state: &mut Self::State, block: &[Self::Word; 16]);
}

/// Write the low `out.len()` bytes of `value` in `A`'s byte order.
fn put<A: Algorithm>(out: &mut [u8], value: u128) {
    if A::BIG_ENDIAN {
        out.copy_from_slice(&value.to_be_bytes()[16 - out.len()..]);
    } else {
        out.copy_from_slice(&value.to_le_bytes()[..out.len()]);
    }
}

/// `A`'s word from its big-endian reading: as is for the SHA family,
/// byte-swapped for MD5.
#[inline(always)]
fn ordered<A: Algorithm>(big_endian: A::Word) -> A::Word {
    if A::BIG_ENDIAN {
        big_endian
    } else {
        big_endian.swap_bytes()
    }
}

/// `block` as `A` reads it: sixteen words in its byte order.
#[inline(always)]
fn words<A: Algorithm>(block: &A::Block) -> [A::Word; 16] {
    let mut w = [A::Word::ZERO; 16];
    let bytes = block.as_ref().chunks_exact(size_of::<A::Word>());
    for (word, bytes) in w.iter_mut().zip(bytes) {
        *word = ordered::<A>(A::Word::from_be(bytes));
    }
    w
}

/// Close a last block `w` that ends a message of `bytes` bytes: its bit
/// length in the final two words, in `A`'s order. Every message this is
/// used for is shorter than 2^29 bytes, so the high word stays zero.
#[inline(always)]
fn close<A: Algorithm>(w: &mut [A::Word; 16], bytes: usize) {
    let bits = A::Word::low(bytes as u128 * 8);
    if A::BIG_ENDIAN {
        w[15] = bits;
    } else {
        w[14] = bits;
    }
}

/// The digest of a final chaining value: every word, in `A`'s order.
fn digest<A: Algorithm>(state: &A::State) -> A::Output {
    let mut out = A::ZERO_OUTPUT;
    let words = out.as_mut().chunks_exact_mut(size_of::<A::Word>());
    for (bytes, word) in words.zip(state.as_ref()) {
        put::<A>(bytes, (*word).into());
    }
    out
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

    /// Fold the full buffer into the chaining value.
    fn absorb(&mut self) {
        A::compress(&mut self.state, &words::<A>(&self.buf));
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
            self.absorb();
            self.buf = A::ZERO_BLOCK;
        }
        put::<A>(&mut self.buf.as_mut()[length_at..], bit_len);
        self.absorb();
        digest::<A>(&self.state)
    }

    /// `HMAC(K, counter.to_be_bytes())` from the key's midstates: `inner`
    /// and `outer` have absorbed exactly the one-block `K' ⊕ ipad` and
    /// `K' ⊕ opad`. Both remaining blocks have a fixed shape, so each is
    /// built as its sixteen words — the inner one from the counter, `0x80`
    /// and the bit length of one block plus eight bytes; the outer one from
    /// the inner chaining value, whose words *are* the inner digest read in
    /// `A`'s order — with no buffer, no byte count and no serialisation in
    /// between. Inlined, the constant words fold into the compressions.
    #[inline(always)]
    pub(crate) fn counter_mac(inner: &Self, outer: &Self, counter: u64) -> A::Output {
        debug_assert!(inner.buf_len == 0 && inner.len == Self::BLOCK_LEN as u64);
        debug_assert!(outer.buf_len == 0 && outer.len == Self::BLOCK_LEN as u64);
        let per_word = size_of::<A::Word>();

        // The message's first sixteen bytes, read big-endian: the counter,
        // then the padding's 0x80.
        let head = (u128::from(counter) << 64) | (0x80 << 56);
        let mut w = [A::Word::ZERO; 16];
        for (i, word) in w[..16 / per_word].iter_mut().enumerate() {
            *word = ordered::<A>(A::Word::low(head >> (128 - 8 * per_word * (i + 1))));
        }
        close::<A>(&mut w, Self::BLOCK_LEN + 8);
        let mut state = inner.state;
        A::compress(&mut state, &w);

        let inner_digest = state.as_ref();
        let n = inner_digest.len();
        let mut w = [A::Word::ZERO; 16];
        w[..n].copy_from_slice(inner_digest);
        w[n] = ordered::<A>(A::Word::low(0x80 << (8 * per_word - 8)));
        close::<A>(&mut w, Self::BLOCK_LEN + Self::OUTPUT_LEN);
        let mut state = outer.state;
        A::compress(&mut state, &w);
        digest::<A>(&state)
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
                self.absorb();
                self.buf_len = 0;
            }
        }
    }

    fn finalize_into(self, out: &mut [u8]) {
        out[..Self::OUTPUT_LEN].copy_from_slice(self.finalize().as_ref());
    }
}
