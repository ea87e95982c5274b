//! RADIUS authenticators and `User-Password` hiding (RFC 2865 §3, §5.2).
//!
//! The shared secret between each login node and its RADIUS servers is the
//! trust anchor of the back end: response authenticators prove a reply came
//! from a holder of the secret, and password hiding keeps token codes from
//! traveling in clear text.
//!
//! Every function here works on wire bytes in place: the client hides the
//! password straight into its request buffer and verifies a reply in its
//! receive buffer, and the server seals a reply where it encoded it. The
//! owned-[`Packet`] forms ([`hide_password`], [`verify_response`]) are thin
//! wrappers over them. The module reads network bytes, so it sits behind
//! the lint wall: no indexing, no unchecked arithmetic, no panics.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::packet::Packet;
use hpcmfa_crypto::md5::{md5, Md5};
use hpcmfa_crypto::Digest;
use rand::RngCore;

/// Longest password RFC 2865 §5.2 lets `User-Password` carry.
const MAX_PASSWORD_LEN: usize = 128;

/// Generate a fresh random request authenticator.
pub fn request_authenticator<R: RngCore + ?Sized>(rng: &mut R) -> [u8; 16] {
    let mut auth = [0u8; 16];
    rng.fill_bytes(&mut auth);
    auth
}

/// Seal an already-encoded response in place: write `request_auth` into
/// the authenticator field, hash the whole datagram with the secret, then
/// overwrite the field with the digest —
/// `MD5(Code + ID + Length + RequestAuth + Attributes + Secret)`.
///
/// The batched ingest path encodes the reply once into a reusable buffer
/// and seals it here. A `wire` shorter than a header has no field to seal
/// and is left as it is; the one caller writes the header first.
pub(crate) fn seal_wire(wire: &mut [u8], request_auth: &[u8; 16], secret: &[u8]) {
    let Some(field) = wire.get_mut(4..20) else {
        return;
    };
    field.copy_from_slice(request_auth);
    let mut h = Md5::new();
    h.update(wire);
    h.update(secret);
    let digest = h.finalize();
    if let Some(field) = wire.get_mut(4..20) {
        field.copy_from_slice(&digest);
    }
}

/// Verify a received reply against the request it answers, in the receive
/// buffer: `MD5(reply[..4] ‖ request_auth ‖ reply[20..declared] ‖ secret)`
/// must equal the reply's authenticator field (compared in constant
/// time). Octets past the length the header declares are padding and are
/// not hashed (RFC 2865 §3). A reply shorter than a header, or declaring
/// a length it does not hold, fails.
pub fn verify_reply(reply: &[u8], request_auth: &[u8; 16], secret: &[u8]) -> bool {
    let Some((head, rest)) = reply.split_first_chunk::<4>() else {
        return false;
    };
    let Some((authenticator, rest)) = rest.split_first_chunk::<16>() else {
        return false;
    };
    let [_, _, hi, lo] = *head;
    let Some(attrs) = usize::from(u16::from_be_bytes([hi, lo]))
        .checked_sub(crate::MIN_PACKET_LEN)
        .and_then(|n| rest.get(..n))
    else {
        return false;
    };
    let mut h = Md5::new();
    h.update(head);
    h.update(request_auth);
    h.update(attrs);
    h.update(secret);
    hpcmfa_crypto::ct::ct_eq(&h.finalize(), authenticator)
}

/// Verify a decoded response against the request it answers: the owned
/// form of [`verify_reply`], over the response's encoding.
/// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
pub fn verify_response(response: &Packet, request_auth: &[u8; 16], secret: &[u8]) -> bool {
    verify_reply(&response.encode(), request_auth, secret)
}

/// Octets `password` hides into: a 16-byte multiple, one block at least.
pub(crate) fn hidden_len(password: &[u8]) -> usize {
    password.len().div_ceil(16).max(1).saturating_mul(16)
}

/// Hide a password per RFC 2865 §5.2, appending the hidden octets to
/// `out`: pad to a 16-byte multiple, then XOR each block with
/// `MD5(secret + previous_block_or_request_auth)`. Empty passwords (the
/// "null RADIUS response" that triggers an SMS, §3.3) encode as one block
/// of padding. A password over 128 octets is refused: `false`, and `out`
/// is left as it was.
pub fn hide_password_into(
    password: &[u8],
    request_auth: &[u8; 16],
    secret: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    if password.len() > MAX_PASSWORD_LEN {
        return false;
    }
    let mut prev: [u8; 16] = *request_auth;
    let mut rest = password;
    loop {
        let (chunk, tail) = rest.split_at_checked(16).unwrap_or((rest, &[]));
        let mut h = Md5::new();
        h.update(secret);
        h.update(&prev);
        let key = h.finalize();
        let plain = chunk.iter().chain(std::iter::repeat(&0));
        for ((c, k), p) in prev.iter_mut().zip(key).zip(plain) {
            *c = k ^ p;
        }
        out.extend_from_slice(&prev);
        rest = tail;
        if rest.is_empty() {
            return true;
        }
    }
}

/// Hide a password per RFC 2865 §5.2 into a fresh buffer: the allocating
/// form of [`hide_password_into`].
/// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
///
/// # Panics
///
/// When `password` is longer than the 128 octets RFC 2865 allows.
pub fn hide_password(password: &[u8], request_auth: &[u8; 16], secret: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hidden_len(password));
    let hidden = hide_password_into(password, request_auth, secret, &mut out);
    assert!(hidden, "RFC 2865 limits passwords to 128 octets");
    out
}

/// Recover a hidden password. Trailing NUL padding is stripped, matching
/// server behaviour for text passwords.
///
/// Returns `None` when the field length is not a multiple of 16 (malformed).
pub fn recover_password(hidden: &[u8], request_auth: &[u8; 16], secret: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(hidden.len());
    recover_password_into(hidden, request_auth, secret, &mut out).then_some(out)
}

/// [`recover_password`] into a caller-provided buffer (cleared first):
/// the ingest hot loop reuses one scratch buffer per worker, so password
/// recovery stops allocating per datagram. Returns `false` — leaving
/// `out` empty — when the field length is malformed.
pub fn recover_password_into(
    hidden: &[u8],
    request_auth: &[u8; 16],
    secret: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    out.clear();
    if hidden.is_empty() || !hidden.len().is_multiple_of(16) {
        return false;
    }
    out.reserve(hidden.len());
    let mut prev: [u8; 16] = *request_auth;
    for chunk in hidden.chunks(16) {
        let mut h = Md5::new();
        h.update(secret);
        h.update(&prev);
        let b = h.finalize();
        for (c, k) in chunk.iter().zip(b.iter()) {
            out.push(c ^ k);
        }
        prev.copy_from_slice(chunk);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    true
}

/// A deterministic authenticator derived from a message-authentication
/// construct — used by tests to create stable fixtures.
pub fn fixture_authenticator(tag: &str) -> [u8; 16] {
    md5(tag.as_bytes())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, AttributeType};
    use crate::packet::Code;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SECRET: &[u8] = b"radius-shared-secret";

    /// The response authenticator as RFC 2865 §3 states it, over a clone
    /// of the response re-encoded with the request authenticator in place:
    /// the reference the in-place forms are checked against.
    fn response_authenticator(
        response: &Packet,
        request_auth: &[u8; 16],
        secret: &[u8],
    ) -> [u8; 16] {
        let mut tmp = response.clone();
        tmp.authenticator = *request_auth;
        let mut h = Md5::new();
        h.update(&tmp.encode());
        h.update(secret);
        h.finalize()
    }

    #[test]
    fn password_hide_recover_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        for pw in [
            &b""[..],
            b"1",
            b"123456",
            b"a-password-of-16",
            b"a-password-longer-than-sixteen-bytes",
            &[0xffu8; 128],
        ] {
            let ra = request_authenticator(&mut rng);
            let hidden = hide_password(pw, &ra, SECRET);
            assert_eq!(hidden.len() % 16, 0);
            assert!(hidden.len() >= 16);
            let strip_nuls = pw.iter().rev().skip_while(|&&b| b == 0).count();
            let recovered = recover_password(&hidden, &ra, SECRET).unwrap();
            assert_eq!(&recovered[..], &pw[..strip_nuls]);
        }
    }

    #[test]
    fn hidden_password_is_not_cleartext() {
        let ra = fixture_authenticator("ra");
        let hidden = hide_password(b"123456", &ra, SECRET);
        assert_ne!(&hidden[..6], b"123456");
    }

    #[test]
    fn wrong_secret_garbles_password() {
        let ra = fixture_authenticator("ra");
        let hidden = hide_password(b"123456", &ra, SECRET);
        let wrong = recover_password(&hidden, &ra, b"other-secret").unwrap();
        assert_ne!(wrong, b"123456".to_vec());
    }

    #[test]
    fn same_password_different_authenticators_differ() {
        let h1 = hide_password(b"123456", &fixture_authenticator("a"), SECRET);
        let h2 = hide_password(b"123456", &fixture_authenticator("b"), SECRET);
        assert_ne!(h1, h2);
    }

    #[test]
    fn malformed_hidden_lengths_rejected() {
        let ra = fixture_authenticator("ra");
        assert_eq!(recover_password(&[], &ra, SECRET), None);
        assert_eq!(recover_password(&[1, 2, 3], &ra, SECRET), None);
        assert_eq!(recover_password(&[0u8; 17], &ra, SECRET), None);
    }

    #[test]
    fn response_authenticator_seals_and_verifies() {
        let ra = fixture_authenticator("request");
        let mut resp = Packet::new(Code::AccessAccept, 9, [0u8; 16])
            .with_attribute(Attribute::text(AttributeType::ReplyMessage, "welcome"));
        resp.authenticator = response_authenticator(&resp, &ra, SECRET);
        assert!(verify_response(&resp, &ra, SECRET));
    }

    #[test]
    fn seal_wire_matches_response_authenticator_byte_for_byte() {
        let ra = fixture_authenticator("request");
        let mut resp = Packet::new(Code::AccessChallenge, 3, [0u8; 16])
            .with_attribute(Attribute::new(AttributeType::State, vec![9, 9]))
            .with_attribute(Attribute::text(AttributeType::ReplyMessage, "TACC Token:"));
        let mut wire = resp.encode();
        seal_wire(&mut wire, &ra, SECRET);
        resp.authenticator = response_authenticator(&resp, &ra, SECRET);
        assert_eq!(wire, resp.encode());
    }

    #[test]
    fn recover_into_reuses_buffer_and_matches_allocating_path() {
        let ra = fixture_authenticator("ra");
        let mut scratch = vec![0xaa; 64]; // dirty: must be cleared
        for pw in [&b""[..], b"123456", b"a-password-longer-than-sixteen-bytes"] {
            let hidden = hide_password(pw, &ra, SECRET);
            assert!(recover_password_into(&hidden, &ra, SECRET, &mut scratch));
            assert_eq!(
                Some(scratch.clone()),
                recover_password(&hidden, &ra, SECRET)
            );
        }
        assert!(!recover_password_into(
            &[1, 2, 3],
            &ra,
            SECRET,
            &mut scratch
        ));
        assert!(scratch.is_empty());
    }

    #[test]
    fn tampered_response_fails_verification() {
        let ra = fixture_authenticator("request");
        let mut resp = Packet::new(Code::AccessReject, 9, [0u8; 16]);
        resp.authenticator = response_authenticator(&resp, &ra, SECRET);
        // Forge: flip Reject to Accept without resealing.
        let mut forged = resp.clone();
        forged.code = Code::AccessAccept;
        assert!(!verify_response(&forged, &ra, SECRET));
        // Wrong secret fails too.
        assert!(!verify_response(&resp, &ra, b"bad-secret"));
        // Wrong request authenticator fails.
        assert!(!verify_response(
            &resp,
            &fixture_authenticator("other"),
            SECRET
        ));
    }

    #[test]
    fn request_authenticators_are_random() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_ne!(
            request_authenticator(&mut rng),
            request_authenticator(&mut rng)
        );
    }

    #[test]
    #[should_panic(expected = "128 octets")]
    fn oversized_password_panics() {
        let ra = fixture_authenticator("ra");
        let _ = hide_password(&[0u8; 129], &ra, SECRET);
    }
}
