//! Property-based tests for the RADIUS codec and password hiding.

use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::auth::{hide_password, recover_password};
use hpcmfa_radius::client::backoff_schedule;
use hpcmfa_radius::packet::{Code, Packet};
use proptest::prelude::*;

fn arb_code() -> impl Strategy<Value = Code> {
    prop::sample::select(vec![
        Code::AccessRequest,
        Code::AccessAccept,
        Code::AccessReject,
        Code::AccessChallenge,
    ])
}

fn arb_attr() -> impl Strategy<Value = Attribute> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..100))
        .prop_map(|(ty, value)| Attribute::new(AttributeType::from_code(ty), value))
}

proptest! {
    #[test]
    fn packet_round_trips(
        code in arb_code(),
        id in any::<u8>(),
        auth in any::<[u8; 16]>(),
        attrs in proptest::collection::vec(arb_attr(), 0..8),
    ) {
        let mut p = Packet::new(code, id, auth);
        p.attributes = attrs;
        let decoded = Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(decoded, p);
    }

    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Packet::decode(&data);
    }

    #[test]
    fn decode_of_mutated_packet_never_panics(
        id in any::<u8>(),
        attrs in proptest::collection::vec(arb_attr(), 0..5),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut p = Packet::new(Code::AccessRequest, id, [0u8; 16]);
        p.attributes = attrs;
        let mut wire = p.encode();
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_bits;
        let _ = Packet::decode(&wire);
    }

    #[test]
    fn password_hiding_round_trips(
        pw in proptest::collection::vec(1u8..=255, 0..128),
        auth in any::<[u8; 16]>(),
        secret in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        // NUL-free passwords round-trip exactly (trailing NULs are padding).
        let hidden = hide_password(&pw, &auth, &secret);
        prop_assert_eq!(hidden.len() % 16, 0);
        let recovered = recover_password(&hidden, &auth, &secret).unwrap();
        prop_assert_eq!(recovered, pw);
    }

    #[test]
    fn hidden_never_contains_cleartext_prefix(
        pw in proptest::collection::vec(1u8..=255, 6..64),
        auth in any::<[u8; 16]>(),
    ) {
        let hidden = hide_password(&pw, &auth, b"secret");
        // The first 6 bytes matching cleartext would require a zero
        // keystream prefix, probability 2^-48 per case.
        prop_assert_ne!(&hidden[..6], &pw[..6]);
    }
}

/// The one backoff schedule every client runs is a pure function:
/// regenerating it yields the identical sequence (fixed seed ⇒ fixed
/// jitter).
#[test]
fn backoff_schedule_is_deterministic() {
    assert_eq!(backoff_schedule(), backoff_schedule());
}

/// Every delay is at least 1 µs; the base doubles from 50 ms up to the
/// 1 s cap with jitter within a quarter of the base; and the running
/// total stays within the 10 s login deadline.
#[test]
fn backoff_schedule_never_exceeds_deadline() {
    let schedule = backoff_schedule();
    assert!(!schedule.is_empty());
    let mut base = 50_000u64;
    for (round, d) in schedule.iter().enumerate() {
        assert!(*d >= 1, "round {round}: zero delay");
        assert!(
            *d >= base && *d <= base + base / 4,
            "round {round}: delay {d} outside [{base}, {}]",
            base + base / 4
        );
        base = (base * 2).min(1_000_000);
    }
    let total: u64 = schedule.iter().sum();
    assert!(
        total <= 10_000_000,
        "schedule spends {total} of a 10 s budget"
    );
}
