//! Equivalence properties for HMAC midstate caching: a precomputed
//! [`HmacKey`] must produce the same MAC as the one-shot [`hmac`] — and
//! both must match a spec-direct RFC 2104 reference implementation built
//! from nothing but `Digest::digest` — for arbitrary keys and messages,
//! including keys longer than the block size and the empty-key/empty-
//! message corners. The reference shares no code with the midstate path
//! (no `Hmac`, no `HmacKey`, no incremental state), so a bug in the
//! caching cannot cancel out of both sides.

use hpcmfa_crypto::hmac::{hmac, Hmac, HmacKey, MAX_OUTPUT_LEN};
use hpcmfa_crypto::{md5::Md5, sha1::Sha1, sha256::Sha256, sha512::Sha512, Digest, HashAlg};
use proptest::prelude::*;

/// RFC 2104 §2, computed literally: H((K' ^ opad) || H((K' ^ ipad) || m))
/// with K' the key zero-padded (hashed first if longer than one block).
fn reference_hmac<D: Digest>(key: &[u8], msg: &[u8]) -> Vec<u8> {
    let key = if key.len() > D::BLOCK_LEN {
        D::digest(key)
    } else {
        key.to_vec()
    };
    let mut padded = vec![0u8; D::BLOCK_LEN];
    padded[..key.len()].copy_from_slice(&key);
    let inner: Vec<u8> = padded
        .iter()
        .map(|b| b ^ 0x36)
        .chain(msg.iter().copied())
        .collect();
    let inner_digest = D::digest(&inner);
    let outer: Vec<u8> = padded
        .iter()
        .map(|b| b ^ 0x5c)
        .chain(inner_digest.iter().copied())
        .collect();
    D::digest(&outer)
}

fn arb_key() -> BoxedStrategy<Vec<u8>> {
    // Cover every interesting length class: empty, short, exactly one
    // SHA-1/SHA-256 block (64), exactly one SHA-512 block (128), longer.
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 1..64),
        prop::collection::vec(any::<u8>(), 64..65),
        prop::collection::vec(any::<u8>(), 65..128),
        prop::collection::vec(any::<u8>(), 128..129),
        prop::collection::vec(any::<u8>(), 129..300),
    ]
    .boxed()
}

fn arb_msg() -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..200).boxed()
}

proptest! {
    #[test]
    fn cached_equals_oneshot_equals_reference(key in arb_key(), msg in arb_msg()) {
        macro_rules! check {
            ($d:ty) => {{
                let want = reference_hmac::<$d>(&key, &msg);
                prop_assert_eq!(&hmac::<$d>(&key, &msg), &want);
                prop_assert_eq!(&HmacKey::<$d>::new(&key).mac(&msg), &want);
            }};
        }
        check!(Md5);
        check!(Sha1);
        check!(Sha256);
        check!(Sha512);
    }

    #[test]
    fn one_key_many_messages(key in arb_key(), msgs in prop::collection::vec(arb_msg(), 1..8)) {
        // The whole point of the cache: one preparation, many MACs, each
        // equal to an independent from-scratch computation.
        let cached = HmacKey::<Sha1>::new(&key);
        for msg in &msgs {
            prop_assert_eq!(cached.mac(msg), reference_hmac::<Sha1>(&key, msg));
        }
    }

    #[test]
    fn mac_into_equals_mac(key in arb_key(), msg in arb_msg()) {
        let cached = HmacKey::<Sha256>::new(&key);
        let mut buf = [0u8; MAX_OUTPUT_LEN];
        let n = cached.mac_into(&msg, &mut buf);
        prop_assert_eq!(&buf[..n], cached.mac(&msg).as_slice());
    }

    #[test]
    fn incremental_chunking_is_invisible(key in arb_key(), msg in arb_msg(), chunk in 1usize..33) {
        let mut mac = Hmac::<Sha512>::new(&key);
        for c in msg.chunks(chunk) {
            mac.update(c);
        }
        prop_assert_eq!(mac.finalize(), reference_hmac::<Sha512>(&key, &msg));
    }

    #[test]
    fn counter_kernel_equals_the_generic_mac(key in arb_key(), counter in any::<u64>()) {
        macro_rules! check {
            ($d:ty) => {{
                let cached = HmacKey::<$d>::new(&key);
                let mut buf = [0u8; MAX_OUTPUT_LEN];
                let n = cached.mac_into(&counter.to_be_bytes(), &mut buf);
                prop_assert_eq!(&cached.mac_counter(counter)[..], &buf[..n]);
            }};
        }
        check!(Md5);
        check!(Sha1);
        check!(Sha256);
        check!(Sha512);
    }

    #[test]
    fn prepared_dispatch_equals_alg_hmac(key in arb_key(), counter in any::<u64>()) {
        // The enum the hot path actually uses must agree with the
        // generic-dispatch entry point for every algorithm.
        for alg in [HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
            let mut buf = [0u8; MAX_OUTPUT_LEN];
            let n = alg.prepare_key(&key).mac_counter_into(counter, &mut buf);
            prop_assert_eq!(&buf[..n], alg.hmac(&key, &counter.to_be_bytes()).as_slice());
        }
    }
}

/// The counter kernel at the key lengths around each block size and the
/// counters where a word of the message changes (2^32 - 1 → 2^32 moves
/// the high word), against the spec-direct reference.
#[test]
fn counter_kernel_at_the_edges() {
    for key_len in [0usize, 1, 20, 64, 65, 200] {
        let key: Vec<u8> = (0..key_len).map(|i| (i * 31 + 7) as u8).collect();
        for counter in [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            let msg = counter.to_be_bytes();
            for alg in [HashAlg::Sha1, HashAlg::Sha256, HashAlg::Sha512] {
                let want = match alg {
                    HashAlg::Sha1 => reference_hmac::<Sha1>(&key, &msg),
                    HashAlg::Sha256 => reference_hmac::<Sha256>(&key, &msg),
                    HashAlg::Sha512 => reference_hmac::<Sha512>(&key, &msg),
                };
                let mut got = [0u8; MAX_OUTPUT_LEN];
                let n = alg.prepare_key(&key).mac_counter_into(counter, &mut got);
                assert_eq!(
                    &got[..n],
                    want.as_slice(),
                    "{alg:?} key {key_len} counter {counter}"
                );
            }
            let md5 = HmacKey::<Md5>::new(&key).mac_counter(counter);
            assert_eq!(md5.as_slice(), reference_hmac::<Md5>(&key, &msg).as_slice());
        }
    }
}
