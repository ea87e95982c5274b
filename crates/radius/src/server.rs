//! The RADIUS server shell: datagram handling, password recovery, response
//! sealing, and a pluggable authentication [`Handler`].
//!
//! The paper's deployment put "a handful of servers ... set up to accept and
//! proxy requests between authentication agents, i.e. login nodes, and the
//! LinOTP server" (§3.2). The OTP-validation logic lives in
//! `hpcmfa-otpserver`; this crate provides the protocol plumbing those
//! handlers plug into.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::attribute::{Attribute, AttributeType};
use crate::auth::{recover_password_into, seal_wire};
use crate::packet::{set_wire_len, Code, Packet, PacketView};
use crate::tracewire;
use hpcmfa_telemetry::SpanCtx;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a handler decides about an Access-Request.
#[derive(Debug)]
pub enum ServerDecision {
    /// Access-Accept with extra attributes.
    Accept(Vec<Attribute>),
    /// Access-Reject with extra attributes (e.g. a Reply-Message).
    Reject(Vec<Attribute>),
    /// Access-Challenge; attributes must include `State` for the round trip.
    Challenge(Vec<Attribute>),
    /// Silently discard (malformed or unauthorized source) — the RFC's
    /// response to unparseable requests, surfacing client-side as a timeout.
    Discard,
    /// Decided but not to be said yet: the reply waits for something the
    /// handler started (the OTP server's WAL sync). Wrappers pass it on
    /// untouched; [`RadiusServer::process_into`] waits it out, the batched
    /// ingest keeps it beside the datagram and moves on.
    Pending(Box<dyn PendingDecision>),
}

/// A decision whose reply must wait. Whatever it waits for makes progress
/// without the holder's help, except as [`PendingDecision::wait`] says.
pub trait PendingDecision: Send {
    /// The decision, once it is known.
    fn poll(&mut self) -> Option<ServerDecision>;

    /// Block until the decision is known — doing the work it waits for if
    /// nobody else is.
    fn wait(self: Box<Self>) -> ServerDecision;
}

impl std::fmt::Debug for dyn PendingDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PendingDecision")
    }
}

/// How far [`RadiusServer::begin_into`] got with a datagram.
pub(crate) enum Begun {
    /// The reply is encoded and sealed.
    Replied,
    /// No reply: undecodable, not an Access-Request, or the handler said
    /// so.
    Discarded,
    /// The handler's decision is pending; [`RadiusServer::finish_into`]
    /// encodes the reply once it is known.
    Pending(Box<dyn PendingDecision>),
}

impl ServerDecision {
    /// Append the responder's trace-clock reading to the reply, when the
    /// request was traced, so the requesting client fast-forwards its
    /// shared clock past the modeled server time — the propagation half
    /// of monotone cross-hop spans. Discards carry nothing (no reply
    /// datagram exists to carry it).
    pub fn with_clock(mut self, ctx: Option<&SpanCtx>) -> ServerDecision {
        if let (
            Some(c),
            ServerDecision::Accept(attrs)
            | ServerDecision::Reject(attrs)
            | ServerDecision::Challenge(attrs),
        ) = (ctx, &mut self)
        {
            attrs.push(tracewire::clock_attribute(c.clock.now_us()));
        }
        self
    }
}

/// An authentication decision point.
pub trait Handler: Send + Sync {
    /// Decide on `request`, a [`PacketView`] borrowed from the receive
    /// buffer: usernames, trace contexts and source addresses are read in
    /// place, so the batched ingest loop allocates nothing on decode.
    /// `password` is the recovered `User-Password` (None when absent or
    /// undecodable). An empty password is meaningful: it is the null
    /// request that starts a challenge round or triggers an SMS send
    /// (§3.3).
    fn handle_view(&self, request: &PacketView<'_>, password: Option<&[u8]>) -> ServerDecision;

    /// [`Handler::handle_view`] on an owned packet, through its encoding;
    /// a packet that does not encode and parse is discarded.
    /// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
    fn handle(&self, request: &Packet, password: Option<&[u8]>) -> ServerDecision {
        let wire = request.encode();
        match PacketView::parse(&wire) {
            Ok(view) => self.handle_view(&view, password),
            Err(_) => ServerDecision::Discard,
        }
    }
}

/// A closure over an owned copy of the request.
/// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
impl<F> Handler for F
where
    F: Fn(&Packet, Option<&[u8]>) -> ServerDecision + Send + Sync,
{
    fn handle_view(&self, request: &PacketView<'_>, password: Option<&[u8]>) -> ServerDecision {
        self(&request.to_packet(), password)
    }
}

/// Traffic counters.
#[derive(Default)]
pub struct ServerStats {
    /// Datagrams received.
    pub received: AtomicU64,
    /// Replies sent.
    pub replied: AtomicU64,
    /// Datagrams discarded (undecodable or handler said so).
    pub discarded: AtomicU64,
}

/// A RADIUS server bound to one shared secret.
pub struct RadiusServer {
    secret: Vec<u8>,
    handler: Arc<dyn Handler>,
    /// Traffic counters.
    pub stats: ServerStats,
}

impl RadiusServer {
    /// Create a server with `secret` and `handler`.
    pub fn new(secret: impl Into<Vec<u8>>, handler: Arc<dyn Handler>) -> Self {
        RadiusServer {
            secret: secret.into(),
            handler,
            stats: ServerStats::default(),
        }
    }

    /// The zero-copy request path: parse `data` as a borrowed
    /// [`PacketView`] (no per-attribute allocation), recover the password
    /// into `pw_scratch`, dispatch to the handler, and
    /// encode + seal the reply directly into `reply`. Both buffers are
    /// cleared and refilled — workers on the batched ingest loop reuse
    /// theirs across datagrams, so the steady-state path performs no heap
    /// allocation for decode, password recovery, reply encoding or
    /// sealing. A pending decision is waited out here. Returns `false`
    /// (empty `reply`) on discard.
    pub fn process_into(&self, data: &[u8], reply: &mut Vec<u8>, pw_scratch: &mut Vec<u8>) -> bool {
        match self.begin_into(data, reply, pw_scratch) {
            Begun::Replied => true,
            Begun::Discarded => false,
            Begun::Pending(pending) => self.finish_into(data, pending.wait(), reply),
        }
    }

    /// [`RadiusServer::process_into`] up to the handler's decision: a
    /// pending one is handed back instead of waited for, for a caller that
    /// has other datagrams to answer meanwhile.
    pub(crate) fn begin_into(
        &self,
        data: &[u8],
        reply: &mut Vec<u8>,
        pw_scratch: &mut Vec<u8>,
    ) -> Begun {
        reply.clear();
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        let Ok(request) = PacketView::parse(data) else {
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
            return Begun::Discarded;
        };
        // Only Access-Requests are valid inbound traffic here.
        if request.code != Code::AccessRequest {
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
            return Begun::Discarded;
        }
        let mut password: Option<&[u8]> = None;
        if let Some(a) = request.attribute(AttributeType::UserPassword) {
            if recover_password_into(a.value, request.authenticator(), &self.secret, pw_scratch) {
                password = Some(pw_scratch.as_slice());
            }
        }
        match self.handler.handle_view(&request, password) {
            ServerDecision::Pending(pending) => Begun::Pending(pending),
            decision => match self.encode(&request, decision, reply) {
                true => Begun::Replied,
                false => Begun::Discarded,
            },
        }
    }

    /// Encode and seal into `reply` the answer `decision` gives to the
    /// request in `data`, a datagram [`RadiusServer::begin_into`] reported
    /// pending. Returns `false` (empty `reply`) on discard.
    pub(crate) fn finish_into(
        &self,
        data: &[u8],
        decision: ServerDecision,
        reply: &mut Vec<u8>,
    ) -> bool {
        reply.clear();
        match PacketView::parse(data) {
            Ok(request) => self.encode(&request, decision, reply),
            Err(_) => false,
        }
    }

    fn encode(
        &self,
        request: &PacketView<'_>,
        decision: ServerDecision,
        reply: &mut Vec<u8>,
    ) -> bool {
        let mut decision = decision;
        let (code, attrs) = loop {
            decision = match decision {
                ServerDecision::Accept(a) => break (Code::AccessAccept, a),
                ServerDecision::Reject(a) => break (Code::AccessReject, a),
                ServerDecision::Challenge(a) => {
                    debug_assert!(
                        a.iter().any(|at| at.ty == AttributeType::State),
                        "challenges must carry State"
                    );
                    break (Code::AccessChallenge, a);
                }
                ServerDecision::Discard => {
                    self.stats.discarded.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                // What a pending decision settled into was itself pending.
                ServerDecision::Pending(pending) => pending.wait(),
            };
        };

        // Encode the reply in place: header, decision attributes, then —
        // RFC 2865 §5.33 — the request's Proxy-State attributes echoed
        // unmodified in order, copied straight from the receive buffer.
        reply.push(code.code());
        reply.push(request.identifier);
        reply.extend_from_slice(&[0, 0]); // length, patched below
        reply.extend_from_slice(request.authenticator());
        for attr in &attrs {
            attr.encode(reply);
        }
        for ps in request.attributes_of(AttributeType::ProxyState) {
            ps.encode(reply);
        }
        // RFC 2865 §3: no packet exceeds 4 096 octets. A legal request
        // whose Proxy-State echo would push the reply past it is answered
        // with nothing, as an undecodable one is.
        if !set_wire_len(reply) {
            reply.clear();
            self.stats.discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        seal_wire(reply, request.authenticator(), &self.secret);
        self.stats.replied.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::auth::{fixture_authenticator, hide_password, verify_response};

    const SECRET: &[u8] = b"s3cret";

    fn accept_all() -> Arc<dyn Handler> {
        Arc::new(|_: &Packet, _: Option<&[u8]>| ServerDecision::Accept(vec![]))
    }

    /// The server's reply to `datagram`, if it answers.
    fn answer(server: &RadiusServer, datagram: &[u8]) -> Option<Vec<u8>> {
        let (mut reply, mut pw_scratch) = (Vec::new(), Vec::new());
        server
            .process_into(datagram, &mut reply, &mut pw_scratch)
            .then_some(reply)
    }

    fn make_request(id: u8, password: Option<&[u8]>) -> Packet {
        let ra = fixture_authenticator("req");
        let mut p = Packet::new(Code::AccessRequest, id, ra)
            .with_attribute(Attribute::text(AttributeType::UserName, "alice"));
        if let Some(pw) = password {
            p = p.with_attribute(Attribute::new(
                AttributeType::UserPassword,
                hide_password(pw, &ra, SECRET),
            ));
        }
        p
    }

    #[test]
    fn accept_path_sealed_and_id_matched() {
        let server = RadiusServer::new(SECRET, accept_all());
        let req = make_request(7, Some(b"123456"));
        let reply = answer(&server, &req.encode()).unwrap();
        let resp = Packet::decode(&reply).unwrap();
        assert_eq!(resp.code, Code::AccessAccept);
        assert_eq!(resp.identifier, 7);
        assert!(verify_response(&resp, &req.authenticator, SECRET));
    }

    #[test]
    fn handler_sees_recovered_password() {
        let seen = Arc::new(parking_lot::Mutex::new(None::<Vec<u8>>));
        let seen2 = Arc::clone(&seen);
        let handler = Arc::new(move |_: &Packet, pw: Option<&[u8]>| {
            *seen2.lock() = pw.map(|p| p.to_vec());
            ServerDecision::Accept(vec![])
        });
        let server = RadiusServer::new(SECRET, handler);
        let req = make_request(1, Some(b"424242"));
        answer(&server, &req.encode()).unwrap();
        assert_eq!(seen.lock().as_deref(), Some(&b"424242"[..]));
    }

    #[test]
    fn empty_password_still_reaches_handler() {
        // The null request that triggers SMS delivery must not be dropped.
        let seen = Arc::new(parking_lot::Mutex::new(None::<Vec<u8>>));
        let seen2 = Arc::clone(&seen);
        let handler = Arc::new(move |_: &Packet, pw: Option<&[u8]>| {
            *seen2.lock() = pw.map(|p| p.to_vec());
            ServerDecision::Challenge(vec![Attribute::new(AttributeType::State, vec![1])])
        });
        let server = RadiusServer::new(SECRET, handler);
        let req = make_request(1, Some(b""));
        let reply = answer(&server, &req.encode()).unwrap();
        assert_eq!(Packet::decode(&reply).unwrap().code, Code::AccessChallenge);
        assert_eq!(seen.lock().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn garbage_discarded() {
        let server = RadiusServer::new(SECRET, accept_all());
        assert_eq!(answer(&server, &[1, 2, 3]), None);
        assert_eq!(server.stats.discarded.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn non_request_codes_discarded() {
        let server = RadiusServer::new(SECRET, accept_all());
        let bogus = Packet::new(Code::AccessAccept, 1, [0u8; 16]);
        assert_eq!(answer(&server, &bogus.encode()), None);
    }

    #[test]
    fn handler_discard_yields_no_reply() {
        let server = RadiusServer::new(
            SECRET,
            Arc::new(|_: &Packet, _: Option<&[u8]>| ServerDecision::Discard),
        );
        let req = make_request(1, None);
        assert_eq!(answer(&server, &req.encode()), None);
    }

    #[test]
    fn proxy_state_echoed_in_order() {
        let server = RadiusServer::new(SECRET, accept_all());
        let req = make_request(3, None)
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![0xaa]))
            .with_attribute(Attribute::new(AttributeType::ProxyState, vec![0xbb]));
        let reply = answer(&server, &req.encode()).unwrap();
        let resp = PacketView::parse(&reply).unwrap();
        let ps: Vec<&[u8]> = resp
            .attributes_of(AttributeType::ProxyState)
            .map(|a| a.value)
            .collect();
        assert_eq!(ps, [&[0xaa][..], &[0xbb][..]]);
    }

    /// RFC 2865 §5.33 has a reply echo every request Proxy-State, so a
    /// legal request can ask for a reply over the 4 096-octet maximum
    /// (§3). Such a reply is discarded and counted; none is ever sent.
    #[test]
    fn a_reply_the_proxy_state_echo_would_overflow_is_discarded() {
        let server = RadiusServer::new(
            SECRET,
            Arc::new(|_: &Packet, _: Option<&[u8]>| {
                let message = "x".repeat(40);
                ServerDecision::Accept(vec![Attribute::text(AttributeType::ReplyMessage, &message)])
            }),
        );
        let (mut replied, mut discarded) = (0, 0);
        // Header and User-Name take 27 octets, fifteen full Proxy-States
        // 3 825 and the last one 2 + `last`: the request is 4 096 at 242.
        for last in 1..=242 {
            let mut req = make_request(9, None);
            for _ in 0..15 {
                req =
                    req.with_attribute(Attribute::new(AttributeType::ProxyState, vec![0x5a; 253]));
            }
            req = req.with_attribute(Attribute::new(AttributeType::ProxyState, vec![0xa5; last]));
            let wire = req.encode();
            assert!(wire.len() <= crate::MAX_PACKET_LEN);
            // The reply swaps User-Name for the 42-octet Reply-Message.
            let reply_len = wire.len() - 7 + 42;
            match answer(&server, &wire) {
                Some(reply) => {
                    assert_eq!(reply.len(), reply_len);
                    assert!(reply.len() <= crate::MAX_PACKET_LEN);
                    replied += 1;
                }
                None => {
                    assert!(reply_len > crate::MAX_PACKET_LEN, "last {last}");
                    discarded += 1;
                }
            }
        }
        assert_eq!((replied, discarded), (207, 35));
        assert_eq!(server.stats.discarded.load(Ordering::SeqCst), 35);
        assert_eq!(server.stats.replied.load(Ordering::SeqCst), 207);
    }

    #[test]
    fn reject_carries_reply_message() {
        let server = RadiusServer::new(
            SECRET,
            Arc::new(|_: &Packet, _: Option<&[u8]>| {
                ServerDecision::Reject(vec![Attribute::text(
                    AttributeType::ReplyMessage,
                    "Authentication error",
                )])
            }),
        );
        let req = make_request(5, Some(b"badcode"));
        let resp = Packet::decode(&answer(&server, &req.encode()).unwrap()).unwrap();
        assert_eq!(resp.code, Code::AccessReject);
        assert_eq!(
            resp.text(AttributeType::ReplyMessage),
            Some("Authentication error")
        );
    }

    #[test]
    fn stats_counted() {
        let server = RadiusServer::new(SECRET, accept_all());
        let req = make_request(1, None);
        answer(&server, &req.encode());
        answer(&server, &[0xff]);
        assert_eq!(server.stats.received.load(Ordering::SeqCst), 2);
        assert_eq!(server.stats.replied.load(Ordering::SeqCst), 1);
        assert_eq!(server.stats.discarded.load(Ordering::SeqCst), 1);
    }
}
