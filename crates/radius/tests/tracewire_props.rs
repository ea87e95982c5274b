//! Property-based tests for the trace-context VSA codec (`tracewire`).
//!
//! The decoder sits on the untrusted side of the wire: every login node
//! and proxy runs it against attacker-controllable attribute bytes, so it
//! must reject truncated, oversized, and garbled VSAs without panicking
//! and never confuse a foreign vendor's attribute for ours. There is one
//! request payload (id + parent span + clock, 30 bytes) plus the
//! response-clock sub-attribute, and each must only decode from its
//! exact well-formed envelope.

use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::packet::{Code, Packet};
use hpcmfa_radius::tracewire::{
    clock_attribute, clock_of, decode_clock, decode_trace_ctx, decode_trace_ctx_bytes,
    trace_ctx_attribute, trace_id_of, CLOCK_VENDOR_TYPE, TRACE_VENDOR_ID, TRACE_VENDOR_TYPE,
};
use hpcmfa_telemetry::{SpanId, TraceId};
use proptest::prelude::*;

/// The parent-span option a raw u64 encodes (0 = none).
fn parent_of(raw: u64) -> Option<SpanId> {
    if raw == 0 {
        None
    } else {
        Some(SpanId::from_u64(raw))
    }
}

proptest! {
    /// Every (trace, parent, clock) triple survives an encode → decode.
    #[test]
    fn v2_attribute_round_trips(
        id in any::<u64>(),
        parent_raw in any::<u64>(),
        clock in any::<u64>(),
    ) {
        let trace = TraceId::from_u64(id);
        let parent = parent_of(parent_raw);
        let attr = trace_ctx_attribute(trace, parent, clock);
        let ctx = decode_trace_ctx(&attr).unwrap();
        prop_assert_eq!(ctx.trace, trace);
        prop_assert_eq!(ctx.parent, parent);
        prop_assert_eq!(ctx.clock_us, clock);
    }

    /// The response clock survives encode → decode and never parses as a
    /// trace context (the vendor-type gates the two codecs).
    #[test]
    fn clock_attribute_round_trips(clock in any::<u64>()) {
        let attr = clock_attribute(clock);
        prop_assert_eq!(decode_clock(&attr), Some(clock));
        prop_assert_eq!(decode_trace_ctx(&attr), None);
    }

    /// The context also survives a full packet encode → decode cycle
    /// alongside arbitrary other attributes.
    #[test]
    fn trace_ctx_survives_packet_round_trip(
        id in any::<u64>(),
        parent_raw in any::<u64>(),
        clock in any::<u64>(),
        pkt_id in any::<u8>(),
        auth in any::<[u8; 16]>(),
        extra in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4),
    ) {
        let trace = TraceId::from_u64(id);
        let parent = parent_of(parent_raw);
        let mut pkt = Packet::new(Code::AccessRequest, pkt_id, auth);
        for value in extra {
            pkt = pkt.with_attribute(Attribute::new(AttributeType::ReplyMessage, value));
        }
        let pkt = pkt
            .with_attribute(trace_ctx_attribute(trace, parent, clock))
            .with_attribute(clock_attribute(clock ^ 0x55));
        let decoded = Packet::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(trace_id_of(&decoded), Some(trace));
        prop_assert_eq!(clock_of(&decoded), Some(clock ^ 0x55));
    }

    /// Arbitrary VSA payloads never panic the decoder, and only a payload
    /// that is byte-for-byte well-formed (our vendor id, our vendor-type,
    /// the vendor-length matching its size, exactly 30 bytes — 14 for the
    /// clock) decodes to Some.
    #[test]
    fn garbled_vsa_never_panics_and_only_wellformed_decodes(
        value in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let attr = Attribute::new(AttributeType::VendorSpecific, value.clone());
        let decoded = decode_trace_ctx(&attr);
        let wellformed = value.len() == 30
            && value[0..4] == TRACE_VENDOR_ID.to_be_bytes()
            && value[4] == TRACE_VENDOR_TYPE
            && value[5] == (value.len() - 4) as u8;
        prop_assert_eq!(decoded.is_some(), wellformed);
        let clock_decoded = decode_clock(&attr);
        let clock_wellformed = value.len() == 14
            && value[0..4] == TRACE_VENDOR_ID.to_be_bytes()
            && value[4] == CLOCK_VENDOR_TYPE
            && value[5] == 10;
        prop_assert_eq!(clock_decoded.is_some(), clock_wellformed);
    }

    /// Truncating a valid attribute's payload at any point kills the
    /// decode: a short read can never yield a (wrong) context.
    #[test]
    fn truncated_vsa_is_rejected(
        id in any::<u64>(),
        parent_raw in any::<u64>(),
        clock in any::<u64>(),
        keep in 0usize..30,
    ) {
        let full = trace_ctx_attribute(TraceId::from_u64(id), parent_of(parent_raw), clock);
        let short = Attribute::new(AttributeType::VendorSpecific, full.value[..keep].to_vec());
        prop_assert_eq!(decode_trace_ctx(&short), None);
    }

    /// Flipping any single byte of a valid payload either breaks the
    /// envelope (→ None) or lands inside the 24 payload bytes, in which
    /// case it must decode to a *different* context — never silently the
    /// original.
    #[test]
    fn bitflipped_vsa_never_decodes_to_original(
        id in any::<u64>(),
        parent_raw in any::<u64>(),
        clock in any::<u64>(),
        at in 0usize..30,
        flip in 1u8..=255,
    ) {
        let trace = TraceId::from_u64(id);
        let parent = parent_of(parent_raw);
        let original = decode_trace_ctx(&trace_ctx_attribute(trace, parent, clock)).unwrap();
        let mut value = trace_ctx_attribute(trace, parent, clock).value;
        value[at] ^= flip;
        let mutated = Attribute::new(AttributeType::VendorSpecific, value);
        match decode_trace_ctx(&mutated) {
            None => prop_assert!(at < 6, "envelope bytes live in [0,6)"),
            Some(other) => {
                prop_assert!(at >= 6, "payload bytes live in [6,30)");
                prop_assert_ne!(other, original);
            }
        }
    }

    /// A non-VSA attribute carrying our exact payload bytes still decodes
    /// to nothing: the attribute type gates the parse.
    #[test]
    fn non_vsa_attribute_is_ignored(id in any::<u64>()) {
        let payload = trace_ctx_attribute(TraceId::from_u64(id), None, 7).value;
        let not_vsa = Attribute::new(AttributeType::ReplyMessage, payload);
        prop_assert_eq!(decode_trace_ctx(&not_vsa), None);
    }
}

/// The retired flat-id payload (8 bytes under vendor-type 1) and every
/// other length but the one we send are not ours: ignored whatever the
/// vendor-length octet claims, never mis-read as a context.
#[test]
fn only_the_24_byte_payload_is_a_trace_context() {
    for payload in (0..=64u8).filter(|&n| n != 24) {
        // Consistent with the payload, off by one, and the real payload's.
        for vendor_len in [payload + 2, payload + 3, 26] {
            let mut value = TRACE_VENDOR_ID.to_be_bytes().to_vec();
            value.extend([TRACE_VENDOR_TYPE, vendor_len]);
            value.extend((0..payload).map(|i| i ^ 0xa5));
            assert_eq!(
                decode_trace_ctx_bytes(&value),
                None,
                "payload {payload}, vendor-length {vendor_len}"
            );
        }
    }
}
