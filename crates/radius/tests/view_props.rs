//! Property tests pinning the one decoder, [`PacketView::parse`], to a
//! reference: the plain indexing TLV walk RFC 2865 §3 describes, kept
//! here as the specification. Both must accept exactly the same inputs
//! (same error on rejection, identical packet on success), on well-formed
//! wires, truncations, bit-flips and over-length attributes. The
//! borrowed tracewire and password-recovery readers are pinned to their
//! references too.

use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::auth::{recover_password, recover_password_into};
use hpcmfa_radius::packet::{Code, Packet, PacketError, PacketView};
use hpcmfa_radius::tracewire;
use hpcmfa_telemetry::{SpanId, TraceId};
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

/// The reference decoder: header checks in RFC order, then one TLV at a
/// time, each value copied out. Octets past the declared length are
/// padding.
fn reference_decode(data: &[u8]) -> Result<Packet, PacketError> {
    if data.len() < 20 {
        return Err(PacketError::TooShort);
    }
    let declared = u16::from_be_bytes([data[2], data[3]]) as usize;
    if declared < 20 || declared > data.len() || declared > 4096 {
        return Err(PacketError::BadLength {
            declared,
            actual: data.len(),
        });
    }
    let code = match data[0] {
        1 => Code::AccessRequest,
        2 => Code::AccessAccept,
        3 => Code::AccessReject,
        11 => Code::AccessChallenge,
        c => return Err(PacketError::UnknownCode(c)),
    };
    let mut packet = Packet::new(code, data[1], data[4..20].try_into().unwrap());
    let mut offset = 20;
    while offset < declared {
        if declared - offset < 2 {
            return Err(PacketError::MalformedAttribute { offset });
        }
        let alen = data[offset + 1] as usize;
        if alen < 2 || offset + alen > declared {
            return Err(PacketError::MalformedAttribute { offset });
        }
        let ty = AttributeType::from_code(data[offset]);
        packet
            .attributes
            .push(Attribute::new(ty, data[offset + 2..offset + alen].to_vec()));
        offset += alen;
    }
    Ok(packet)
}

/// The decoder and the reference on the same bytes: identical
/// accept/reject verdicts, identical errors, and an identical packet when
/// accepted.
fn assert_parity(data: &[u8]) {
    match (reference_decode(data), PacketView::parse(data)) {
        (Ok(owned), Ok(view)) => {
            assert_eq!(view.to_packet(), owned, "decoded packets diverge");
            assert_eq!(Packet::decode(data).as_ref(), Ok(&owned));
            assert_eq!(view.code, owned.code);
            assert_eq!(view.identifier, owned.identifier);
            assert_eq!(view.authenticator(), &owned.authenticator);
            assert_eq!(view.wire_len(), owned.wire_len());
            for attr in &owned.attributes {
                assert_eq!(
                    view.attribute(attr.ty).map(|a| a.to_owned()).as_ref(),
                    owned.attribute(attr.ty)
                );
                assert_eq!(view.text(attr.ty), owned.text(attr.ty));
            }
        }
        (Err(e_owned), Err(e_view)) => {
            assert_eq!(e_owned, e_view, "decoders reject with different errors");
        }
        (owned, view) => panic!(
            "decoders disagree on {} bytes: reference={owned:?} view={view:?}",
            data.len()
        ),
    }
}

proptest! {
    #[test]
    fn view_parity_on_well_formed_wires(
        code in arb_code(),
        id in any::<u8>(),
        auth in any::<[u8; 16]>(),
        attrs in proptest::collection::vec(arb_attr(), 0..8),
    ) {
        let mut p = Packet::new(code, id, auth);
        p.attributes = attrs;
        assert_parity(&p.encode());
    }

    #[test]
    fn view_parity_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        assert_parity(&data);
    }

    #[test]
    fn view_parity_on_truncations(
        id in any::<u8>(),
        attrs in proptest::collection::vec(arb_attr(), 0..6),
        keep in any::<usize>(),
    ) {
        let mut p = Packet::new(Code::AccessRequest, id, [7u8; 16]);
        p.attributes = attrs;
        let wire = p.encode();
        assert_parity(&wire[..keep % (wire.len() + 1)]);
    }

    #[test]
    fn view_parity_on_bit_flips(
        id in any::<u8>(),
        attrs in proptest::collection::vec(arb_attr(), 0..6),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut p = Packet::new(Code::AccessRequest, id, [3u8; 16]);
        p.attributes = attrs;
        let mut wire = p.encode();
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_bits;
        assert_parity(&wire);
    }

    #[test]
    fn view_parity_on_overlength_attribute_claims(
        id in any::<u8>(),
        claimed_len in any::<u8>(),
        actual in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Hand-build a wire whose final attribute claims `claimed_len`
        // regardless of the bytes actually present — the classic
        // over-length TLV that must reject identically on both paths.
        let mut wire = Packet::new(Code::AccessRequest, id, [9u8; 16]).encode();
        wire.push(AttributeType::UserName.code());
        wire.push(claimed_len);
        wire.extend_from_slice(&actual);
        let total = wire.len() as u16;
        wire[2..4].copy_from_slice(&total.to_be_bytes());
        assert_parity(&wire);
    }

    #[test]
    fn borrowed_tracewire_readers_find_the_first_of_ours(
        trace in any::<u64>(),
        parent_some in any::<bool>(),
        parent_raw in any::<u64>(),
        clock_us in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let attr = tracewire::trace_ctx_attribute(
            TraceId::from_u64(trace),
            parent_some.then_some(SpanId::from_u64(parent_raw)),
            clock_us,
        );
        let clock = tracewire::clock_attribute(clock_us);
        let mut p = Packet::new(Code::AccessRequest, 1, [0u8; 16]);
        // Noise VSA first: the walk must skip it, not bail.
        p.attributes.push(Attribute::new(AttributeType::VendorSpecific, noise.clone()));
        p.attributes.push(attr.clone());
        p.attributes.push(clock.clone());
        let wire = p.encode();
        let view = PacketView::parse(&wire).unwrap();
        prop_assert_eq!(
            tracewire::trace_ctx_of_view(&view),
            [&noise, &attr.value]
                .into_iter()
                .find_map(|v| tracewire::decode_trace_ctx_bytes(v))
        );
        prop_assert_eq!(
            tracewire::clock_of_view(&view),
            [&noise, &attr.value, &clock.value]
                .into_iter()
                .find_map(|v| tracewire::decode_clock_bytes(v))
        );
        prop_assert_eq!(
            tracewire::trace_ctx_of_view(&view).map(|c| c.clock_us),
            Some(clock_us)
        );
    }

    #[test]
    fn recover_password_into_matches_allocating_form(
        hidden in proptest::collection::vec(any::<u8>(), 0..96),
        auth in any::<[u8; 16]>(),
        secret in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut scratch = vec![0xa5u8; 7]; // dirty buffer must be cleared
        let ok = recover_password_into(&hidden, &auth, &secret, &mut scratch);
        prop_assert_eq!(
            ok.then_some(scratch),
            recover_password(&hidden, &auth, &secret)
        );
    }

    #[test]
    fn encode_into_matches_encode(
        code in arb_code(),
        id in any::<u8>(),
        attrs in proptest::collection::vec(arb_attr(), 0..8),
    ) {
        let mut p = Packet::new(code, id, [0x42u8; 16]);
        p.attributes = attrs;
        let mut reused = vec![0xffu8; 300]; // stale contents must vanish
        p.encode_into(&mut reused);
        prop_assert_eq!(reused, p.encode());
    }
}
