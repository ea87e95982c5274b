//! RADIUS attribute TLVs (RFC 2865 §5).
//!
//! Two representations coexist:
//!
//! * [`Attribute`] — owned value bytes, used to *construct* packets
//!   (clients building requests, handlers building replies).
//! * [`AttrView`] — a borrowed `&[u8]` into the receive buffer, used to
//!   *decode* on the ingest hot loop without per-attribute heap
//!   allocations (see [`crate::packet::PacketView`]).
//!
//! Both encode through one writer that refuses a value its one-octet
//! length cannot frame: nothing is written, and the caller drops the
//! packet rather than send a wrapped length.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

/// The attribute types this infrastructure uses.
///
/// Numeric values are the IANA assignments so the wire format
/// interoperates with real RADIUS tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeType {
    /// 1 — the authenticating login name.
    UserName,
    /// 2 — hidden password / token code.
    UserPassword,
    /// 4 — NAS (login node) IPv4 address.
    NasIpAddress,
    /// 18 — text shown to the user (prompts, "SMS already sent", countdown
    /// notices).
    ReplyMessage,
    /// 24 — opaque server state for challenge–response round trips.
    State,
    /// 26 — vendor-specific payload; this deployment uses it to carry the
    /// request trace id across hops (see [`crate::tracewire`]).
    VendorSpecific,
    /// 31 — the remote client address, used for exemption decisions.
    CallingStationId,
    /// 32 — NAS identifier string.
    NasIdentifier,
    /// 33 — proxy bookkeeping, appended/removed by each proxy hop.
    ProxyState,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl AttributeType {
    /// IANA attribute number.
    pub fn code(self) -> u8 {
        match self {
            AttributeType::UserName => 1,
            AttributeType::UserPassword => 2,
            AttributeType::NasIpAddress => 4,
            AttributeType::ReplyMessage => 18,
            AttributeType::State => 24,
            AttributeType::VendorSpecific => 26,
            AttributeType::CallingStationId => 31,
            AttributeType::NasIdentifier => 32,
            AttributeType::ProxyState => 33,
            AttributeType::Other(c) => c,
        }
    }

    /// Map a wire code back to a type.
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => AttributeType::UserName,
            2 => AttributeType::UserPassword,
            4 => AttributeType::NasIpAddress,
            18 => AttributeType::ReplyMessage,
            24 => AttributeType::State,
            26 => AttributeType::VendorSpecific,
            31 => AttributeType::CallingStationId,
            32 => AttributeType::NasIdentifier,
            33 => AttributeType::ProxyState,
            other => AttributeType::Other(other),
        }
    }
}

/// One attribute: type plus raw value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute type.
    pub ty: AttributeType,
    /// Raw value (at most 253 octets can be sent).
    pub value: Vec<u8>,
}

impl Attribute {
    /// Construct from type and raw bytes.
    pub fn new(ty: AttributeType, value: impl Into<Vec<u8>>) -> Self {
        Attribute {
            ty,
            value: value.into(),
        }
    }

    /// Text-valued attribute helper.
    pub fn text(ty: AttributeType, s: &str) -> Self {
        Attribute::new(ty, s.as_bytes().to_vec())
    }

    /// Value as UTF-8 text, if valid.
    pub(crate) fn as_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.value).ok()
    }

    /// Encoded length on the wire (2-byte header + value).
    pub(crate) fn wire_len(&self) -> usize {
        self.value.len().saturating_add(2)
    }

    /// Append the TLV encoding to `buf`; `false`, and nothing written, for
    /// a value over 253 octets.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) -> bool {
        encode_tlv(self.ty, &self.value, buf)
    }
}

/// A borrowed attribute: type plus a slice into the datagram buffer.
///
/// Decoding a packet as [`PacketView`](crate::packet::PacketView) yields
/// these without copying the value bytes — the zero-copy half of the
/// ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrView<'a> {
    /// Attribute type.
    pub ty: AttributeType,
    /// Raw value bytes, borrowed from the receive buffer.
    pub value: &'a [u8],
}

impl<'a> AttrView<'a> {
    /// Value as UTF-8 text, if valid.
    pub(crate) fn as_text(&self) -> Option<&'a str> {
        std::str::from_utf8(self.value).ok()
    }

    /// Copy into an owned [`Attribute`].
    pub fn to_owned(&self) -> Attribute {
        Attribute::new(self.ty, self.value.to_vec())
    }

    /// Append the TLV encoding to `buf` (same layout as
    /// [`Attribute::encode`], no intermediate allocation); `false`, and
    /// nothing written, for a value over 253 octets.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) -> bool {
        encode_tlv(self.ty, self.value, buf)
    }
}

/// Append the TLV of a `ty` attribute holding `value`, unless its length
/// octet, which counts the two header octets too (RFC 2865 §5), cannot
/// say how long it is.
fn encode_tlv(ty: AttributeType, value: &[u8], buf: &mut Vec<u8>) -> bool {
    let Ok(len) = u8::try_from(value.len().saturating_add(2)) else {
        return false;
    };
    buf.push(ty.code());
    buf.push(len);
    buf.extend_from_slice(value);
    true
}

#[cfg(test)]
mod tests {
    #![allow(clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in 0u8..=255 {
            assert_eq!(AttributeType::from_code(code).code(), code);
        }
    }

    #[test]
    fn known_codes() {
        assert_eq!(AttributeType::UserName.code(), 1);
        assert_eq!(AttributeType::UserPassword.code(), 2);
        assert_eq!(AttributeType::ReplyMessage.code(), 18);
        assert_eq!(AttributeType::State.code(), 24);
        assert_eq!(AttributeType::VendorSpecific.code(), 26);
        assert_eq!(AttributeType::CallingStationId.code(), 31);
        assert_eq!(AttributeType::ProxyState.code(), 33);
    }

    #[test]
    fn encode_layout() {
        let a = Attribute::text(AttributeType::UserName, "alice");
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(&buf[..], &[1, 7, b'a', b'l', b'i', b'c', b'e']);
        assert_eq!(a.wire_len(), 7);
    }

    #[test]
    fn view_encodes_identically_to_owned() {
        let a = Attribute::text(AttributeType::ReplyMessage, "Enter token:");
        let v = AttrView {
            ty: a.ty,
            value: &a.value,
        };
        assert_eq!(v.as_text(), Some("Enter token:"));
        let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
        a.encode(&mut owned);
        v.encode(&mut borrowed);
        assert_eq!(owned, borrowed);
        assert_eq!(v.to_owned(), a);
    }

    #[test]
    fn text_accessor() {
        let a = Attribute::text(AttributeType::ReplyMessage, "Enter token:");
        assert_eq!(a.as_text(), Some("Enter token:"));
        let b = Attribute::new(AttributeType::State, vec![0xff, 0xfe]);
        assert_eq!(b.as_text(), None);
    }
}
