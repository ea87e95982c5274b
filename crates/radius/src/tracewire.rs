//! Trace-context propagation over the RADIUS wire.
//!
//! The trace context rides requests as a Vendor-Specific attribute
//! (IANA type 26, RFC 2865 §5.26): a 4-byte vendor id, a 1-byte
//! vendor-type, a 1-byte vendor-length, then the big-endian payload.
//! The vendor id is 32473 — the enterprise number RFC 5612 reserves for
//! documentation/example use, which is exactly what a reproduction
//! deployment should squat on. Real RADIUS tooling ignores unknown VSAs,
//! so the attribute is transparent to interoperating servers; the realm
//! router copies it upstream so the home server's audit rows carry the same id
//! the login node minted.
//!
//! Requests carry vendor-type 1 (`vendor-length 26`, 24-byte payload):
//! trace id, parent [`SpanId`] (0 = none), and the sender's
//! [`TraceClock`] value in µs — everything a downstream hop needs to
//! open a correctly parented, correctly timed child span. A vendor-type 1
//! payload of any other length is not ours: it is ignored like a foreign
//! VSA and the request is served untraced.
//!
//! Responses carry a second sub-attribute (vendor-type 2, 8-byte
//! payload): the responder's clock after its processing costs, so the
//! caller fast-forwards its trace clock and the assembled cross-site
//! tree keeps one monotone time basis.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::attribute::{Attribute, AttributeType};
use crate::packet::PacketView;
use hpcmfa_telemetry::{SpanCtx, SpanId, TraceClock, TraceId};

/// RFC 5612 documentation enterprise number, used as our vendor id.
pub const TRACE_VENDOR_ID: u32 = 32473;

/// Vendor-type of the trace-context sub-attribute within our vendor
/// space (requests).
pub const TRACE_VENDOR_TYPE: u8 = 1;

/// Vendor-type of the response-clock sub-attribute (responses).
pub const CLOCK_VENDOR_TYPE: u8 = 2;

/// The decoded request-side trace context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireTraceCtx {
    /// The request's trace id.
    pub trace: TraceId,
    /// The sender's open span, to parent the receiver's spans under
    /// (`None` from a root).
    pub parent: Option<SpanId>,
    /// The sender's trace-clock value at send time, µs.
    pub clock_us: u64,
}

impl WireTraceCtx {
    /// The context the receiving hop opens its spans under: the sender's
    /// trace, parented under the sender's open span, on a clock that
    /// starts at the sender's reading so virtual timestamps stay monotone
    /// across the hop.
    pub fn span_ctx(&self) -> SpanCtx {
        SpanCtx {
            trace: self.trace,
            parent: self.parent,
            clock: TraceClock::at(self.clock_us),
        }
    }
}

/// Octets of the trace context's Vendor-Specific value.
const TRACE_CTX_VALUE_LEN: u8 = 30;

/// Octets the whole trace-context attribute takes on the wire: type,
/// length and value.
pub(crate) const TRACE_CTX_WIRE_LEN: usize = 32;

/// Append the trace context's Vendor-Specific value: vendor id, vendor
/// type and length, then trace id, parent span (0 encodes `None`) and the
/// sender's clock in µs.
fn put_trace_ctx_value(out: &mut Vec<u8>, trace: TraceId, parent: Option<SpanId>, clock_us: u64) {
    out.extend_from_slice(&TRACE_VENDOR_ID.to_be_bytes());
    out.push(TRACE_VENDOR_TYPE);
    out.push(26); // vendor-length: type + len + 3 × 8-byte fields
    out.extend_from_slice(&trace.as_u64().to_be_bytes());
    out.extend_from_slice(&parent.map(SpanId::as_u64).unwrap_or(0).to_be_bytes());
    out.extend_from_slice(&clock_us.to_be_bytes());
}

/// Encode the trace context: trace id, parent span (0 encodes
/// `None`), and the sender's clock in µs.
pub fn trace_ctx_attribute(trace: TraceId, parent: Option<SpanId>, clock_us: u64) -> Attribute {
    let mut value = Vec::with_capacity(usize::from(TRACE_CTX_VALUE_LEN));
    put_trace_ctx_value(&mut value, trace, parent, clock_us);
    Attribute::new(AttributeType::VendorSpecific, value)
}

/// Append the trace context to an encoded request as a whole attribute
/// ([`TRACE_CTX_WIRE_LEN`] octets): the bytes [`trace_ctx_attribute`]
/// encodes to, without the owned attribute. The caller patches the
/// packet's length field.
pub(crate) fn append_trace_ctx(
    wire: &mut Vec<u8>,
    trace: TraceId,
    parent: Option<SpanId>,
    clock_us: u64,
) {
    wire.push(AttributeType::VendorSpecific.code());
    wire.push(TRACE_CTX_VALUE_LEN.saturating_add(2));
    put_trace_ctx_value(wire, trace, parent, clock_us);
}

/// Decode the trace context from a Vendor-Specific value, if it is ours.
pub fn decode_trace_ctx_bytes(v: &[u8]) -> Option<WireTraceCtx> {
    let ([trace, parent_raw, clock_us], []) = our_payload(v, TRACE_VENDOR_TYPE)?.as_chunks() else {
        return None;
    };
    let [trace, parent_raw, clock_us] =
        [trace, parent_raw, clock_us].map(|b| u64::from_be_bytes(*b));
    let trace = TraceId::from_u64(trace);
    let parent = if parent_raw == 0 {
        None
    } else {
        Some(SpanId::from_u64(parent_raw))
    };
    Some(WireTraceCtx {
        trace,
        parent,
        clock_us,
    })
}

/// The trace context a packet carries, if any (first matching VSA wins).
/// Zero-copy: value bytes are read in place.
pub fn trace_ctx_of_view(view: &PacketView<'_>) -> Option<WireTraceCtx> {
    view.attributes_of(AttributeType::VendorSpecific)
        .find_map(|a| decode_trace_ctx_bytes(a.value))
}

/// Encode a responder's clock (µs after its processing costs) as the
/// response-side sub-attribute.
pub fn clock_attribute(clock_us: u64) -> Attribute {
    let mut value = Vec::with_capacity(14);
    value.extend_from_slice(&TRACE_VENDOR_ID.to_be_bytes());
    value.push(CLOCK_VENDOR_TYPE);
    value.push(10); // vendor-length: type + len + 8-byte clock
    value.extend_from_slice(&clock_us.to_be_bytes());
    Attribute::new(AttributeType::VendorSpecific, value)
}

/// Decode the responder clock from a Vendor-Specific value, if it is
/// ours.
pub fn decode_clock_bytes(v: &[u8]) -> Option<u64> {
    let ([clock_us], []) = our_payload(v, CLOCK_VENDOR_TYPE)?.as_chunks() else {
        return None;
    };
    Some(u64::from_be_bytes(*clock_us))
}

/// The payload of a Vendor-Specific value `v` in our vendor space with
/// vendor-type `ty`, if its vendor-length covers exactly the rest of `v`.
fn our_payload(v: &[u8], ty: u8) -> Option<&[u8]> {
    let (&[a, b, c, d, vendor_type, vendor_len], payload) = v.split_first_chunk::<6>()?;
    let ours = u32::from_be_bytes([a, b, c, d]) == TRACE_VENDOR_ID
        && vendor_type == ty
        && usize::from(vendor_len).checked_add(4) == Some(v.len());
    ours.then_some(payload)
}

/// The responder clock a packet carries, if any.
pub fn clock_of_view(view: &PacketView<'_>) -> Option<u64> {
    view.attributes_of(AttributeType::VendorSpecific)
        .find_map(|a| decode_clock_bytes(a.value))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::packet::{Code, Packet};

    /// `packet` as a receiver sees it: encoded, then parsed in place.
    fn on_the_wire<T>(packet: &Packet, read: impl Fn(&PacketView<'_>) -> T) -> T {
        let wire = packet.encode();
        read(&PacketView::parse(&wire).unwrap())
    }

    #[test]
    fn v2_round_trips_parent_and_clock() {
        let trace = TraceId::from_u64(42);
        let parent = SpanId::from_u64(0xdead_beef);
        let attr = trace_ctx_attribute(trace, Some(parent), 1_234_567);
        assert_eq!(attr.value.len(), 30);
        let ctx = decode_trace_ctx_bytes(&attr.value).unwrap();
        assert_eq!(ctx.trace, trace);
        assert_eq!(ctx.parent, Some(parent));
        assert_eq!(ctx.clock_us, 1_234_567);
        // No parent encodes as zero and decodes back to None.
        let root = trace_ctx_attribute(trace, None, 7);
        assert_eq!(decode_trace_ctx_bytes(&root.value).unwrap().parent, None);
    }

    #[test]
    fn round_trip_through_packet_encoding() {
        let id = TraceId::from_u64(42);
        let span = SpanId::from_u64(9);
        let pkt = Packet::new(Code::AccessRequest, 7, [0u8; 16])
            .with_attribute(trace_ctx_attribute(id, Some(span), 500));
        let ctx = on_the_wire(&pkt, trace_ctx_of_view).unwrap();
        assert_eq!(ctx.trace, id);
        assert_eq!(ctx.parent, Some(span));
        assert_eq!(ctx.clock_us, 500);
    }

    #[test]
    fn response_clock_round_trips() {
        let attr = clock_attribute(987_654);
        assert_eq!(decode_clock_bytes(&attr.value), Some(987_654));
        // The clock sub-attribute is not a trace context and vice versa.
        assert_eq!(decode_trace_ctx_bytes(&attr.value), None);
        let ctx = trace_ctx_attribute(TraceId::from_u64(1), None, 0);
        assert_eq!(decode_clock_bytes(&ctx.value), None);
        let pkt = Packet::new(Code::AccessAccept, 1, [0u8; 16]).with_attribute(clock_attribute(55));
        assert_eq!(on_the_wire(&pkt, clock_of_view), Some(55));
        assert_eq!(on_the_wire(&pkt, trace_ctx_of_view), None);
    }

    #[test]
    fn foreign_vsas_are_ignored() {
        // Wrong vendor id on an otherwise well-formed payload.
        let mut value = trace_ctx_attribute(TraceId::from_u64(7), None, 0).value;
        value[0..4].copy_from_slice(&9u32.to_be_bytes());
        assert_eq!(decode_trace_ctx_bytes(&value), None);
        let foreign = Attribute::new(AttributeType::VendorSpecific, value);
        // Truncated payload.
        assert_eq!(decode_trace_ctx_bytes(&[1, 2, 3]), None);
        // Wrong vendor-length byte for the payload size.
        let mut bad_len = trace_ctx_attribute(TraceId::from_u64(3), None, 0).value;
        bad_len[5] = 10;
        assert_eq!(decode_trace_ctx_bytes(&bad_len), None);
        // A packet with only foreign VSAs carries no trace.
        let pkt = Packet::new(Code::AccessRequest, 1, [0u8; 16]).with_attribute(foreign);
        assert_eq!(on_the_wire(&pkt, trace_ctx_of_view), None);
        // But ours is still found after a foreign one.
        let id = TraceId::from_u64(5);
        let pkt = pkt.with_attribute(trace_ctx_attribute(id, None, 0));
        assert_eq!(
            on_the_wire(&pkt, trace_ctx_of_view).map(|c| c.trace),
            Some(id)
        );
    }
}
