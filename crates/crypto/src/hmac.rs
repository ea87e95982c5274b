//! HMAC keyed-hash message authentication code (RFC 2104 / FIPS 198-1),
//! generic over any [`Digest`], with precomputed-key **midstate caching**.
//!
//! HMAC(K, m) = H((K' ⊕ opad) ‖ H((K' ⊕ ipad) ‖ m)) where K' is the key
//! normalized to one hash block. Both `K' ⊕ ipad` and `K' ⊕ opad` are
//! exactly one block long, so the hash state after absorbing each is a
//! fixed "midstate" that depends only on the key. [`HmacKey`] compresses
//! both blocks once at construction; every MAC afterwards clones the two
//! midstates instead of re-deriving the padded key blocks — two block
//! compressions per message (inner finalize + outer finalize) instead of
//! four plus the key schedule. A TOTP validation server scanning a ±10
//! step drift window over an 8-byte counter does 21 MACs per login against
//! the same secret, which is exactly the shape this caching targets — and
//! [`HmacKey::mac_counter`] computes that one shape without the general
//! path's buffering.

use crate::merkle_damgard::{Algorithm, Hasher};
use crate::Digest;

/// Largest block size among the workspace digests (SHA-512).
pub const MAX_BLOCK_LEN: usize = 128;

/// Largest digest output among the workspace digests (SHA-512). Callers of
/// [`Hmac::finalize_into`] / [`HmacKey::mac_into`] can size stack buffers
/// with this and slice to the returned length.
pub const MAX_OUTPUT_LEN: usize = 64;

/// A precomputed HMAC key: the hash midstates after absorbing the
/// `K' ⊕ ipad` and `K' ⊕ opad` blocks. Construction costs two block
/// compressions (plus one digest pass if the key exceeds the block size);
/// each subsequent MAC costs only the message compressions.
///
/// ```
/// use hpcmfa_crypto::{hmac::{hmac, HmacKey}, sha1::Sha1};
/// let key = HmacKey::<Sha1>::new(b"key");
/// let msg = b"The quick brown fox jumps over the lazy dog";
/// assert_eq!(key.mac(msg), hmac::<Sha1>(b"key", msg));
/// ```
#[derive(Clone)]
pub struct HmacKey<D: Digest> {
    /// Hash state after absorbing the one-block `K' ⊕ ipad` prefix.
    inner: D,
    /// Hash state after absorbing the one-block `K' ⊕ opad` prefix.
    outer: D,
}

impl<D: Digest> HmacKey<D> {
    /// Precompute the midstates for `key`. Keys longer than the digest
    /// block size are hashed first, as required by RFC 2104. No heap
    /// allocation: the padded key lives in a fixed stack block that is
    /// zeroed before return.
    pub fn new(key: &[u8]) -> Self {
        debug_assert!(D::BLOCK_LEN <= MAX_BLOCK_LEN && D::OUTPUT_LEN <= MAX_OUTPUT_LEN);
        let mut block = [0u8; MAX_BLOCK_LEN];
        let kb = &mut block[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::default();
            h.update(key);
            h.finalize_into(&mut kb[..D::OUTPUT_LEN]);
        } else {
            kb[..key.len()].copy_from_slice(key);
        }
        for b in kb.iter_mut() {
            *b ^= 0x36;
        }
        let mut inner = D::default();
        inner.update(kb);
        for b in kb.iter_mut() {
            *b ^= 0x36 ^ 0x5c;
        }
        let mut outer = D::default();
        outer.update(kb);
        block.fill(0);
        HmacKey { inner, outer }
    }

    /// Start an incremental MAC from the cached midstates.
    pub fn begin(&self) -> Hmac<D> {
        Hmac {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// One-shot MAC of `msg`.
    pub fn mac(&self, msg: &[u8]) -> Vec<u8> {
        let mut m = self.begin();
        m.update(msg);
        m.finalize()
    }

    /// One-shot MAC of `msg` into `out` (at least `D::OUTPUT_LEN` bytes);
    /// returns the MAC length. Allocation-free.
    pub fn mac_into(&self, msg: &[u8], out: &mut [u8]) -> usize {
        let mut m = self.begin();
        m.update(msg);
        m.finalize_into(out)
    }
}

impl<A: Algorithm> HmacKey<Hasher<A>> {
    /// `self.mac(&counter.to_be_bytes())`: the MAC of an 8-byte
    /// big-endian counter, the one message HOTP and TOTP ever MAC. Two
    /// compressions of blocks built as words from the midstates (see
    /// `Hasher::counter_mac`), no buffering or byte round trip between.
    #[inline]
    pub fn mac_counter(&self, counter: u64) -> A::Output {
        Hasher::counter_mac(&self.inner, &self.outer, counter)
    }
}

/// Incremental HMAC computation.
///
/// ```
/// use hpcmfa_crypto::{hmac::Hmac, sha1::Sha1};
/// let mut mac = Hmac::<Sha1>::new(b"key");
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// assert_eq!(
///     hpcmfa_crypto::hex::to_hex(&mac.finalize()),
///     "de7c9b85b8b78aa6bc8a7a36f70a90701c9db4d9"
/// );
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    /// Inner hash, seeded with the `K' ⊕ ipad` midstate.
    inner: D,
    /// Outer midstate, retained for the finishing pass.
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Start an HMAC computation with `key`. Keys longer than the digest
    /// block size are hashed first, as required by RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the MAC.
    pub fn finalize(self) -> Vec<u8> {
        let mut out = vec![0u8; D::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// Finish into `out[..D::OUTPUT_LEN]`; returns the MAC length. The
    /// inner digest rides through a fixed stack buffer, so the whole
    /// finish is allocation-free.
    pub fn finalize_into(self, out: &mut [u8]) -> usize {
        let mut inner_digest = [0u8; MAX_OUTPUT_LEN];
        let d = &mut inner_digest[..D::OUTPUT_LEN];
        self.inner.finalize_into(d);
        let mut outer = self.outer;
        outer.update(d);
        outer.finalize_into(&mut out[..D::OUTPUT_LEN]);
        D::OUTPUT_LEN
    }
}

/// One-shot `HMAC_D(key, msg)`.
pub fn hmac<D: Digest>(key: &[u8], msg: &[u8]) -> Vec<u8> {
    let mut mac = Hmac::<D>::new(key);
    mac.update(msg);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;
    use crate::{md5::Md5, sha1::Sha1, sha256::Sha256, sha512::Sha512};

    // RFC 2202 HMAC-MD5 and HMAC-SHA1 test cases; RFC 4231 for SHA-2.
    #[test]
    fn rfc2202_md5_case1() {
        let key = [0x0bu8; 16];
        assert_eq!(
            to_hex(&hmac::<Md5>(&key, b"Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d"
        );
    }

    #[test]
    fn rfc2202_md5_case2() {
        assert_eq!(
            to_hex(&hmac::<Md5>(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
    }

    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            to_hex(&hmac::<Sha1>(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_sha1_case2() {
        assert_eq!(
            to_hex(&hmac::<Sha1>(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_sha1_case3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            to_hex(&hmac::<Sha1>(&key, &data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_sha1_case6_oversized_key() {
        // 80-byte key exceeds the 64-byte block: must be hashed first.
        let key = [0xaau8; 80];
        assert_eq!(
            to_hex(&hmac::<Sha1>(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn rfc4231_case1_sha256_sha512() {
        let key = [0x0bu8; 20];
        assert_eq!(
            to_hex(&hmac::<Sha256>(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            to_hex(&hmac::<Sha512>(&key, b"Hi There")),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_case2_jefe_sha256() {
        assert_eq!(
            to_hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"some-key-material";
        let msg: Vec<u8> = (0..300u16).map(|i| (i & 0xff) as u8).collect();
        let mut mac = Hmac::<Sha256>::new(key);
        for c in msg.chunks(17) {
            mac.update(c);
        }
        assert_eq!(mac.finalize(), hmac::<Sha256>(key, &msg));
    }

    #[test]
    fn empty_key_and_message() {
        // Degenerate inputs must not panic and must be deterministic.
        assert_eq!(hmac::<Sha1>(b"", b""), hmac::<Sha1>(b"", b""));
        assert_eq!(hmac::<Sha1>(b"", b"").len(), 20);
    }

    #[test]
    fn cached_key_matches_oneshot_all_digests() {
        let msg = b"counter-like message";
        for key_len in [0usize, 1, 20, 63, 64, 65, 100, 200] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(HmacKey::<Md5>::new(&key).mac(msg), hmac::<Md5>(&key, msg));
            assert_eq!(HmacKey::<Sha1>::new(&key).mac(msg), hmac::<Sha1>(&key, msg));
            assert_eq!(
                HmacKey::<Sha256>::new(&key).mac(msg),
                hmac::<Sha256>(&key, msg)
            );
            assert_eq!(
                HmacKey::<Sha512>::new(&key).mac(msg),
                hmac::<Sha512>(&key, msg)
            );
        }
    }

    #[test]
    fn cached_key_is_reusable_across_messages() {
        let key = HmacKey::<Sha1>::new(b"shared-secret");
        for counter in 0u64..50 {
            let msg = counter.to_be_bytes();
            assert_eq!(key.mac(&msg), hmac::<Sha1>(b"shared-secret", &msg));
        }
    }

    #[test]
    fn mac_into_matches_mac() {
        let key = HmacKey::<Sha512>::new(b"k");
        let mut buf = [0u8; MAX_OUTPUT_LEN];
        let n = key.mac_into(b"msg", &mut buf);
        assert_eq!(n, 64);
        assert_eq!(&buf[..n], key.mac(b"msg").as_slice());
    }

    #[test]
    fn finalize_into_matches_finalize() {
        let mut a = Hmac::<Sha256>::new(b"key");
        let mut b = a.clone();
        a.update(b"data");
        b.update(b"data");
        let mut buf = [0u8; MAX_OUTPUT_LEN];
        let n = a.finalize_into(&mut buf);
        assert_eq!(&buf[..n], b.finalize().as_slice());
    }
}
