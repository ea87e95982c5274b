//! Every padding case of the shared Merkle–Damgård core, for all four
//! digests: message lengths 0..=300 cross both block sizes, both
//! length-field boundaries (55/56, 111/112) and the second-block case.

use hpcmfa_crypto::hex::to_hex;
use hpcmfa_crypto::{md5::Md5, sha1::Sha1, sha256::Sha256, sha512::Sha512, Digest};

const CHUNKS: [usize; 13] = [1, 7, 55, 56, 63, 64, 65, 111, 112, 119, 127, 128, 129];

/// For every length `n` in 0..=300 of the bytes `i % 251`: however the
/// message is chunked, the digest is the one-shot's. Returns the digest of
/// the 301 one-shot digests, concatenated in order of `n`.
fn sweep<D: Digest>() -> String {
    let mut all = D::default();
    for n in 0..=300usize {
        let msg: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let oneshot = D::digest(&msg);
        for chunk in CHUNKS {
            let mut h = D::default();
            msg.chunks(chunk).for_each(|c| h.update(c));
            assert_eq!(h.finalize_vec(), oneshot, "length {n}, chunks of {chunk}");
        }
        all.update(&oneshot);
    }
    to_hex(&all.finalize_vec())
}

/// The constants come from the installed `python3`'s `hashlib`, once:
///
/// ```text
/// python3 -c "
/// import hashlib
/// for name in ['md5', 'sha1', 'sha256', 'sha512']:
///     h = lambda b: hashlib.new(name, b).digest()
///     print(name, h(b''.join(h(bytes(i % 251 for i in range(n))) for n in range(301))).hex())
/// "
/// ```
#[test]
fn every_length_and_chunking_matches_hashlib() {
    assert_eq!(sweep::<Md5>(), "eeb77f5f54b2e46b4849a40454d8e547");
    assert_eq!(sweep::<Sha1>(), "6804e4ea9a6a8d4892d67a40ced19afe1455116c");
    assert_eq!(
        sweep::<Sha256>(),
        "b90e35153500e9a471591550ee25a954527c6b4448afff95f7949a2ca93300ce"
    );
    assert_eq!(
        sweep::<Sha512>(),
        "da20b3b598f77f25e2e2d1941e345bfe16543f32378fbc8447fbb64f038964ce\
         a0808c9d450e5e83ac095f5656c102b2ff15a8e0501c7553a7afe1e0256b5e09"
    );
}
