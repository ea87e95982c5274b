//! RADIUS packet encoding and decoding (RFC 2865 §3).
//!
//! Layout: `code(1) | identifier(1) | length(2, BE) | authenticator(16) |
//! attributes...`.
//!
//! Two decode paths share one validation discipline:
//!
//! * [`Packet::decode`] — owned: every attribute value is copied into its
//!   own `Vec<u8>`. Kept for construction-side round trips and anything
//!   that outlives the receive buffer.
//! * [`PacketView::parse`] — borrowed: one validating walk of the TLVs,
//!   then attributes are yielded as [`AttrView`] slices into the original
//!   buffer. Zero heap allocations per attribute — the ingest hot loop
//!   decodes every datagram this way. The two paths accept and reject
//!   byte-identical inputs with identical [`PacketError`]s (property
//!   tested in `tests/view_props.rs`).

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
    pub fn code(self) -> u8 {
        match self {
            Code::AccessRequest => 1,
            Code::AccessAccept => 2,
            Code::AccessReject => 3,
            Code::AccessChallenge => 11,
        }
    }

    /// Parse a wire code.
    pub fn from_code(c: u8) -> Option<Self> {
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

    /// All attributes of `ty` (Proxy-State may repeat).
    pub fn attributes_of(&self, ty: AttributeType) -> Vec<&Attribute> {
        self.attributes.iter().filter(|a| a.ty == ty).collect()
    }

    /// Text value of the first attribute of `ty`.
    pub fn text(&self, ty: AttributeType) -> Option<&str> {
        self.attribute(ty).and_then(Attribute::as_text)
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        MIN_PACKET_LEN
            + self
                .attributes
                .iter()
                .map(Attribute::wire_len)
                .sum::<usize>()
    }

    /// Encode to wire bytes (thin allocating wrapper over
    /// [`Packet::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Encode into a caller-provided buffer, clearing it first. The hot
    /// encode path: per-worker reply buffers are reused across datagrams,
    /// so steady-state encoding allocates nothing.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let len = self.wire_len();
        debug_assert!(len <= MAX_PACKET_LEN, "packet exceeds RFC maximum");
        buf.clear();
        buf.reserve(len);
        buf.push(self.code.code());
        buf.push(self.identifier);
        buf.extend_from_slice(&(len as u16).to_be_bytes());
        buf.extend_from_slice(&self.authenticator);
        for attr in &self.attributes {
            attr.encode(buf);
        }
    }

    /// Decode from wire bytes.
    pub fn decode(data: &[u8]) -> Result<Self, PacketError> {
        if data.len() < MIN_PACKET_LEN {
            return Err(PacketError::TooShort);
        }
        let declared = u16::from_be_bytes([data[2], data[3]]) as usize;
        if declared < MIN_PACKET_LEN || declared > data.len() || declared > MAX_PACKET_LEN {
            return Err(PacketError::BadLength {
                declared,
                actual: data.len(),
            });
        }
        let code = Code::from_code(data[0]).ok_or(PacketError::UnknownCode(data[0]))?;
        let identifier = data[1];
        let mut authenticator = [0u8; 16];
        authenticator.copy_from_slice(&data[4..20]);

        let mut attributes = Vec::new();
        let mut offset = MIN_PACKET_LEN;
        // RFC: octets past the declared length are padding and ignored.
        while offset < declared {
            if declared - offset < 2 {
                return Err(PacketError::MalformedAttribute { offset });
            }
            let ty = AttributeType::from_code(data[offset]);
            let alen = data[offset + 1] as usize;
            if alen < 2 || offset + alen > declared {
                return Err(PacketError::MalformedAttribute { offset });
            }
            attributes.push(Attribute::new(ty, data[offset + 2..offset + alen].to_vec()));
            offset += alen;
        }
        Ok(Packet {
            code,
            identifier,
            authenticator,
            attributes,
        })
    }
}

/// A zero-copy decoded RADIUS packet: header fields plus a validated
/// attribute region borrowed from the receive buffer.
///
/// [`PacketView::parse`] performs the same validating TLV walk as
/// [`Packet::decode`] — same accepted inputs, same [`PacketError`]s — but
/// copies nothing: attributes are yielded as [`AttrView`] slices. This is
/// the decode path of the batched ingest loop, where one owned `Vec` per
/// attribute per datagram was the dominant allocation cost.
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
    /// Validate and borrow a packet from wire bytes. Accepts and rejects
    /// exactly the inputs [`Packet::decode`] does, with identical errors;
    /// octets past the declared length are padding and ignored.
    pub fn parse(data: &'a [u8]) -> Result<Self, PacketError> {
        if data.len() < MIN_PACKET_LEN {
            return Err(PacketError::TooShort);
        }
        let declared = u16::from_be_bytes([data[2], data[3]]) as usize;
        if declared < MIN_PACKET_LEN || declared > data.len() || declared > MAX_PACKET_LEN {
            return Err(PacketError::BadLength {
                declared,
                actual: data.len(),
            });
        }
        let code = Code::from_code(data[0]).ok_or(PacketError::UnknownCode(data[0]))?;
        // One validating walk of the TLV region; values are not touched.
        let mut offset = MIN_PACKET_LEN;
        while offset < declared {
            if declared - offset < 2 {
                return Err(PacketError::MalformedAttribute { offset });
            }
            let alen = data[offset + 1] as usize;
            if alen < 2 || offset + alen > declared {
                return Err(PacketError::MalformedAttribute { offset });
            }
            offset += alen;
        }
        let authenticator: &[u8; 16] = data[4..20].try_into().expect("length checked");
        Ok(PacketView {
            code,
            identifier: data[1],
            authenticator,
            attrs: &data[MIN_PACKET_LEN..declared],
        })
    }

    /// The 16-byte authenticator, borrowed from the buffer.
    pub fn authenticator(&self) -> &'a [u8; 16] {
        self.authenticator
    }

    /// Total length this packet declares on the wire.
    pub fn wire_len(&self) -> usize {
        MIN_PACKET_LEN + self.attrs.len()
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
    pub fn attributes_of(&self, ty: AttributeType) -> impl Iterator<Item = AttrView<'a>> {
        self.attributes().filter(move |a| a.ty == ty)
    }

    /// Text value of the first attribute of `ty`.
    pub fn text(&self, ty: AttributeType) -> Option<&'a str> {
        self.attribute(ty).and_then(|a| a.as_text())
    }

    /// Copy into an owned [`Packet`] (the compatibility bridge for
    /// handlers that have not opted into view dispatch).
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
        if self.rest.len() < 2 {
            return None;
        }
        let ty = AttributeType::from_code(self.rest[0]);
        let alen = (self.rest[1] as usize).clamp(2, self.rest.len());
        let value = &self.rest[2..alen];
        self.rest = &self.rest[alen..];
        Some(AttrView { ty, value })
    }
}

#[cfg(test)]
mod tests {
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
        let states = d.attributes_of(AttributeType::ProxyState);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].value, vec![1]);
        assert_eq!(states[1].value, vec![2]);
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
    fn view_rejects_what_decode_rejects() {
        // Each corruption family must fail identically on both paths.
        let mut wire = sample().encode();
        wire.extend_from_slice(&[0u8; 3]); // padding: still fine
        assert_eq!(
            PacketView::parse(&wire).map(|v| v.to_packet()),
            Packet::decode(&wire)
        );
        wire[0] = 77; // unknown code
        assert_eq!(
            PacketView::parse(&wire).unwrap_err(),
            Packet::decode(&wire).unwrap_err()
        );
        assert_eq!(
            PacketView::parse(&[1, 2, 3]).unwrap_err(),
            PacketError::TooShort
        );
        let mut short = sample().encode();
        let last = short.len() - 4;
        short[last] = 250; // attribute runs past the packet
        assert_eq!(
            PacketView::parse(&short).unwrap_err(),
            Packet::decode(&short).unwrap_err()
        );
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
