//! RADIUS packet encoding and decoding (RFC 2865 §3).
//!
//! Layout: `code(1) | identifier(1) | length(2, BE) | authenticator(16) |
//! attributes...`.
//!
//! One decoder: [`PacketView::parse`] makes one validating walk of the
//! TLVs, then yields attributes as [`AttrView`] slices into the receive
//! buffer, with no heap allocation per attribute. Every receive path
//! (server, client, realm router) decodes this way. [`Packet`] is the
//! owned form handlers and tests *construct* replies and requests with;
//! [`PacketView::to_packet`] copies a view into one.
//!
//! The module reads network bytes, so it sits behind the lint wall: no
//! indexing, no unchecked arithmetic, no truncating casts, no panics.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::attribute::{AttrView, Attribute, AttributeType};
use crate::{MAX_PACKET_LEN, MIN_PACKET_LEN};

/// RADIUS packet codes used by the authentication flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// 1 — login node asks the back end to authenticate.
    AccessRequest,
    /// 2 — authentication succeeded; PAM exits the stack successfully.
    AccessAccept,
    /// 3 — authentication failed.
    AccessReject,
    /// 11 — server demands more input (the token-code prompt).
    AccessChallenge,
}

impl Code {
    /// Wire code.
    pub(crate) fn code(self) -> u8 {
        match self {
            Code::AccessRequest => 1,
            Code::AccessAccept => 2,
            Code::AccessReject => 3,
            Code::AccessChallenge => 11,
        }
    }

    /// Parse a wire code.
    pub(crate) fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(Code::AccessRequest),
            2 => Some(Code::AccessAccept),
            3 => Some(Code::AccessReject),
            11 => Some(Code::AccessChallenge),
            _ => None,
        }
    }
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer than 20 bytes.
    TooShort,
    /// Longer than the RFC maximum or longer than the declared length.
    BadLength {
        /// Length declared in the header.
        declared: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// Unknown packet code.
    UnknownCode(u8),
    /// Attribute TLV runs past the packet or has length < 2.
    MalformedAttribute {
        /// Offset of the offending attribute.
        offset: usize,
    },
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::TooShort => write!(f, "packet shorter than 20-byte header"),
            PacketError::BadLength { declared, actual } => {
                write!(f, "declared length {declared} vs actual {actual}")
            }
            PacketError::UnknownCode(c) => write!(f, "unknown packet code {c}"),
            PacketError::MalformedAttribute { offset } => {
                write!(f, "malformed attribute at offset {offset}")
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// A decoded RADIUS packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet code.
    pub code: Code,
    /// Request/response matching identifier.
    pub identifier: u8,
    /// 16-byte authenticator (random for requests, MD5 chain for replies).
    pub authenticator: [u8; 16],
    /// Attributes in wire order.
    pub attributes: Vec<Attribute>,
}

impl Packet {
    /// Construct a packet.
    pub fn new(code: Code, identifier: u8, authenticator: [u8; 16]) -> Self {
        Packet {
            code,
            identifier,
            authenticator,
            attributes: Vec::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with_attribute(mut self, attr: Attribute) -> Self {
        self.attributes.push(attr);
        self
    }

    /// First attribute of `ty`.
    pub fn attribute(&self, ty: AttributeType) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.ty == ty)
    }

    /// Text value of the first attribute of `ty`.
    pub fn text(&self, ty: AttributeType) -> Option<&str> {
        self.attribute(ty).and_then(Attribute::as_text)
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        self.attributes
            .iter()
            .fold(MIN_PACKET_LEN, |n, a| n.saturating_add(a.wire_len()))
    }

    /// Encode to wire bytes (thin allocating wrapper over
    /// [`Packet::encode_into`]): empty for a packet that cannot be sent.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Encode into a caller-provided buffer, clearing it first. A packet
    /// over the RFC's 4 096 octets, or with an attribute value over the
    /// 253 octets its one-octet length can say, is not encoded: `false`,
    /// and `buf` is left empty. No length field is ever truncated.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        let len = self.wire_len();
        let len = match u16::try_from(len) {
            Ok(len) if usize::from(len) <= MAX_PACKET_LEN => len,
            _ => return false,
        };
        buf.reserve(usize::from(len));
        buf.push(self.code.code());
        buf.push(self.identifier);
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(&self.authenticator);
        if !self.attributes.iter().all(|attr| attr.encode(buf)) {
            buf.clear();
            return false;
        }
        true
    }

    /// Decode from wire bytes: [`PacketView::parse`], copied out.
    /// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
    pub fn decode(data: &[u8]) -> Result<Self, PacketError> {
        PacketView::parse(data).map(|v| v.to_packet())
    }
}

/// Write `wire.len()` into the length field of the packet encoded in
/// `wire`: `false`, and nothing written, past the RFC's 4 096 octets.
pub(crate) fn set_wire_len(wire: &mut [u8]) -> bool {
    match (u16::try_from(wire.len()), wire.get_mut(2..4)) {
        (Ok(len), Some(field)) if usize::from(len) <= MAX_PACKET_LEN => {
            field.copy_from_slice(&len.to_be_bytes());
            true
        }
        _ => false,
    }
}

/// A zero-copy decoded RADIUS packet: header fields plus a validated
/// attribute region borrowed from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Packet code.
    pub code: Code,
    /// Request/response matching identifier.
    pub identifier: u8,
    /// 16-byte authenticator, borrowed.
    authenticator: &'a [u8; 16],
    /// The validated attribute region (`[20, declared_len)`).
    attrs: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Validate and borrow a packet from wire bytes: one walk of the TLV
    /// region, values untouched. Octets past the declared length are
    /// padding and ignored.
    pub fn parse(data: &'a [u8]) -> Result<Self, PacketError> {
        let (header, body) = data
            .split_first_chunk::<MIN_PACKET_LEN>()
            .ok_or(PacketError::TooShort)?;
        let [code, identifier, hi, lo, authenticator @ ..] = header;
        let declared = usize::from(u16::from_be_bytes([*hi, *lo]));
        let attrs = declared
            .checked_sub(MIN_PACKET_LEN)
            .filter(|_| declared <= MAX_PACKET_LEN)
            .and_then(|n| body.get(..n))
            .ok_or(PacketError::BadLength {
                declared,
                actual: data.len(),
            })?;
        let code = Code::from_code(*code).ok_or(PacketError::UnknownCode(*code))?;
        // `rest` is a tail of `attrs`, which ends at `declared`.
        let malformed = |rest: &[u8]| PacketError::MalformedAttribute {
            offset: declared.saturating_sub(rest.len()),
        };
        let mut rest = attrs;
        while !rest.is_empty() {
            let alen = match rest {
                [_, alen, ..] if *alen >= 2 => usize::from(*alen),
                _ => return Err(malformed(rest)),
            };
            rest = rest.get(alen..).ok_or_else(|| malformed(rest))?;
        }
        Ok(PacketView {
            code,
            identifier: *identifier,
            authenticator,
            attrs,
        })
    }

    /// The 16-byte authenticator, borrowed from the buffer.
    pub fn authenticator(&self) -> &'a [u8; 16] {
        self.authenticator
    }

    /// Total length this packet declares on the wire.
    pub fn wire_len(&self) -> usize {
        MIN_PACKET_LEN.saturating_add(self.attrs.len())
    }

    /// Iterate the attributes in wire order, zero-copy. The region was
    /// validated at parse time, so iteration is infallible.
    pub fn attributes(&self) -> AttrIter<'a> {
        AttrIter { rest: self.attrs }
    }

    /// First attribute of `ty`.
    pub fn attribute(&self, ty: AttributeType) -> Option<AttrView<'a>> {
        self.attributes().find(|a| a.ty == ty)
    }

    /// All attributes of `ty` (Proxy-State may repeat), zero-copy.
    pub(crate) fn attributes_of(&self, ty: AttributeType) -> impl Iterator<Item = AttrView<'a>> {
        self.attributes().filter(move |a| a.ty == ty)
    }

    /// Text value of the first attribute of `ty`.
    pub fn text(&self, ty: AttributeType) -> Option<&'a str> {
        self.attribute(ty).and_then(|a| a.as_text())
    }

    /// Copy into an owned [`Packet`]: what a `&Packet` closure handler
    /// and [`Packet::decode`] are given.
    pub fn to_packet(&self) -> Packet {
        Packet {
            code: self.code,
            identifier: self.identifier,
            authenticator: *self.authenticator,
            attributes: self.attributes().map(|a| a.to_owned()).collect(),
        }
    }
}

/// Infallible TLV iterator over a validated attribute region.
#[derive(Debug, Clone, Copy)]
pub struct AttrIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = AttrView<'a>;

    fn next(&mut self) -> Option<AttrView<'a>> {
        let (&[ty, alen], tail) = self.rest.split_first_chunk::<2>()?;
        // Parse validated every length; a short one still cannot overrun.
        let (value, rest) = tail
            .split_at_checked(usize::from(alen).saturating_sub(2))
            .unwrap_or((tail, &[]));
        self.rest = rest;
        Some(AttrView {
            ty: AttributeType::from_code(ty),
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation
    )]

    use super::*;

    fn sample() -> Packet {
        Packet::new(Code::AccessRequest, 42, [7u8; 16])
            .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
            .with_attribute(Attribute::new(AttributeType::State, vec![1, 2, 3]))
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        let decoded = Packet::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn header_layout() {
        let p = sample();
        let wire = p.encode();
        assert_eq!(wire[0], 1); // Access-Request
        assert_eq!(wire[1], 42);
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]) as usize, wire.len());
        assert_eq!(&wire[4..20], &[7u8; 16]);
    }

    #[test]
    fn empty_attribute_list() {
        let p = Packet::new(Code::AccessAccept, 0, [0u8; 16]);
        let wire = p.encode();
        assert_eq!(wire.len(), 20);
        assert_eq!(Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn trailing_padding_ignored() {
        let p = sample();
        let mut wire = p.encode();
        wire.extend_from_slice(&[0u8; 7]); // UDP padding
        assert_eq!(Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(Packet::decode(&[1, 2, 0, 4]), Err(PacketError::TooShort));
    }

    #[test]
    fn declared_length_beyond_buffer_rejected() {
        let p = sample();
        let mut wire = p.encode();
        let bogus = (wire.len() + 10) as u16;
        wire[2..4].copy_from_slice(&bogus.to_be_bytes());
        assert!(matches!(
            Packet::decode(&wire),
            Err(PacketError::BadLength { .. })
        ));
    }

    #[test]
    fn declared_length_below_header_rejected() {
        let mut wire = Packet::new(Code::AccessAccept, 0, [0u8; 16]).encode();
        wire[2..4].copy_from_slice(&10u16.to_be_bytes());
        assert!(matches!(
            Packet::decode(&wire),
            Err(PacketError::BadLength { .. })
        ));
    }

    #[test]
    fn unknown_code_rejected() {
        let mut wire = sample().encode();
        wire[0] = 99;
        assert_eq!(Packet::decode(&wire), Err(PacketError::UnknownCode(99)));
    }

    #[test]
    fn truncated_attribute_rejected() {
        let mut wire = sample().encode();
        // Corrupt the last attribute's length to run past the packet.
        let len = wire.len();
        wire[len - 4] = 200;
        // Keep declared packet length the same: attribute overruns.
        assert!(matches!(
            Packet::decode(&wire),
            Err(PacketError::MalformedAttribute { .. })
        ));
    }

    #[test]
    fn attribute_length_below_two_rejected() {
        let mut p = Packet::new(Code::AccessRequest, 1, [0u8; 16]);
        p.attributes
            .push(Attribute::text(AttributeType::UserName, "x"));
        let mut wire = p.encode();
        wire[21] = 1; // attribute length field
        assert!(matches!(
            Packet::decode(&wire),
            Err(PacketError::MalformedAttribute { .. })
        ));
    }

    #[test]
    fn repeated_attributes_preserved_in_order() {
        let p = Packet::new(Code::AccessRequest, 1, [0u8; 16])
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![1]))
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![2]));
        let d = Packet::decode(&p.encode()).unwrap();
        assert_eq!(d, p);
    }

    /// RFC 2865 §3 caps a packet at 4 096 octets, and an attribute's
    /// one-octet length caps its value at 253: past either, nothing is
    /// encoded, rather than a length field that wraps.
    #[test]
    fn an_unsendable_packet_encodes_to_nothing() {
        let full = Attribute::new(AttributeType::ReplyMessage, vec![b'x'; 253]);
        // 20 + 16 × 255 = 4 100 octets.
        let mut big = Packet::new(Code::AccessAccept, 1, [0u8; 16]);
        big.attributes = vec![full.clone(); 16];
        let mut buf = vec![0xff; 8];
        assert!(!big.encode_into(&mut buf));
        assert!(buf.is_empty());
        assert!(big.encode().is_empty());
        // Four octets fewer fit exactly, and say so in the header.
        big.attributes[15].value.truncate(249);
        assert!(big.encode_into(&mut buf));
        assert_eq!(buf.len(), 4096);
        assert_eq!(u16::from_be_bytes([buf[2], buf[3]]), 4096);
        // 20 + 258 × 255 = 65 810 octets, which a `u16` cast wraps to 274.
        big.attributes = vec![full; 258];
        assert!(!big.encode_into(&mut buf));
        assert!(buf.is_empty());
        let long = Packet::new(Code::AccessAccept, 1, [0u8; 16])
            .with_attribute(Attribute::new(AttributeType::ReplyMessage, vec![0; 254]));
        assert!(!long.encode_into(&mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn codes_round_trip() {
        for c in [
            Code::AccessRequest,
            Code::AccessAccept,
            Code::AccessReject,
            Code::AccessChallenge,
        ] {
            assert_eq!(Code::from_code(c.code()), Some(c));
        }
        assert_eq!(Code::from_code(99), None);
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let p = sample();
        let mut buf = Vec::new();
        p.encode_into(&mut buf);
        assert_eq!(buf, p.encode());
        let q = Packet::new(Code::AccessAccept, 9, [1u8; 16]);
        q.encode_into(&mut buf);
        assert_eq!(buf, q.encode());
    }

    #[test]
    fn view_matches_owned_decode() {
        let p = sample();
        let wire = p.encode();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view.code, p.code);
        assert_eq!(view.identifier, p.identifier);
        assert_eq!(view.authenticator(), &p.authenticator);
        assert_eq!(view.wire_len(), wire.len());
        assert_eq!(view.to_packet(), p);
        assert_eq!(view.text(AttributeType::UserName), Some("alice"));
        assert_eq!(
            view.attribute(AttributeType::State).map(|a| a.value),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(view.attribute(AttributeType::ReplyMessage), None);
    }

    #[test]
    fn view_iterates_repeated_attributes_in_order() {
        let p = Packet::new(Code::AccessRequest, 1, [0u8; 16])
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![1]))
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![2]));
        let wire = p.encode();
        let view = PacketView::parse(&wire).unwrap();
        let states: Vec<&[u8]> = view
            .attributes_of(AttributeType::ProxyState)
            .map(|a| a.value)
            .collect();
        assert_eq!(states, vec![&[1u8][..], &[2u8][..]]);
    }
}
