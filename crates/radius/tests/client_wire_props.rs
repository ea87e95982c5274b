//! The client's bytes, pinned.
//!
//! 1. **Requests are the codec's.** The client encodes a request once,
//!    straight into one buffer, and swaps only the trace context per
//!    attempt. Every datagram it sends, traced or not, first attempt or
//!    retry, is byte-identical to the same request built as a [`Packet`]
//!    with a [`tracewire::trace_ctx_attribute`] and encoded, for the same
//!    RNG draws.
//! 2. **Replies are verified where they lie.** [`verify_reply`] reads the
//!    receive buffer in place and agrees with RFC 2865 §3's authenticator,
//!    computed over a re-encoded copy, on any reply: sealed, bit-flipped,
//!    padded past its declared length, under the wrong secret or the wrong
//!    request authenticator.
//! 3. **Passwords hide in place.** [`hide_password_into`] appends exactly
//!    what [`hide_password`] returns.

use hpcmfa_crypto::md5::Md5;
use hpcmfa_crypto::Digest;
use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::auth::{
    hide_password, hide_password_into, request_authenticator, verify_reply, verify_response,
};
use hpcmfa_radius::packet::{Code, Packet};
use hpcmfa_radius::tracewire;
use hpcmfa_radius::{ClientConfig, RadiusClient, Transport, TransportError};
use hpcmfa_telemetry::{MetricsRegistry, SpanCtx, TraceClock, TraceId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const SECRET: &[u8] = b"client-wire-secret";
const NAS: &str = "login1.stampede";

/// RFC 2865 §3's response authenticator, as it reads: a clone of the
/// response re-encoded with the request authenticator in place, hashed
/// with the secret.
fn reference_authenticator(response: &Packet, request_auth: &[u8; 16], secret: &[u8]) -> [u8; 16] {
    let mut tmp = response.clone();
    tmp.authenticator = *request_auth;
    let mut h = Md5::new();
    h.update(&tmp.encode());
    h.update(secret);
    h.finalize()
}

/// Records every request datagram; the first exchange times out when
/// `drop_first` is set, every other one is answered with a sealed
/// Access-Accept.
struct Recorder {
    seen: Mutex<Vec<Vec<u8>>>,
    drop_first: AtomicBool,
}

impl Transport for Recorder {
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        self.seen.lock().unwrap().push(request.to_vec());
        if self.drop_first.swap(false, Ordering::SeqCst) {
            return Err(TransportError::Timeout);
        }
        let req = Packet::decode(request).map_err(|_| TransportError::GarbledReply)?;
        let mut accept = Packet::new(Code::AccessAccept, req.identifier, [0u8; 16]);
        accept.authenticator = reference_authenticator(&accept, &req.authenticator, SECRET);
        accept.encode_into(reply);
        Ok(())
    }

    fn name(&self) -> String {
        "recorder".into()
    }
}

/// One request's fields.
#[derive(Debug, Clone)]
struct Request {
    username: String,
    password: Vec<u8>,
    calling: String,
    state: Option<Vec<u8>>,
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        "[a-z0-9_.]{0,64}",
        prop::collection::vec(any::<u8>(), 0..=128),
        "[0-9.]{0,40}",
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..=253),
    )
        .prop_map(|(username, password, calling, stateful, state)| Request {
            username,
            password,
            calling,
            state: stateful.then_some(state),
        })
}

/// The attempt span and the trace clock a traced datagram carries.
type Stamp = Option<(u64, u64)>;

/// The datagrams the client sends for `req`, and the trace context each
/// attempt stamped (`None` untraced).
fn sent(req: &Request, seed: u64, traced: bool, retry: bool) -> Vec<(Vec<u8>, Stamp)> {
    let recorder = Arc::new(Recorder {
        seen: Mutex::new(Vec::new()),
        drop_first: AtomicBool::new(retry),
    });
    let metrics = Arc::new(MetricsRegistry::new());
    let client = RadiusClient::with_metrics(
        ClientConfig::new(SECRET, NAS),
        vec![Arc::clone(&recorder) as Arc<dyn Transport>],
        Arc::clone(&metrics),
    );
    let trace = TraceId::from_u64(seed ^ 0x7ace);
    let ctx = SpanCtx::root(trace, TraceClock::at(1_000));
    let outcome = client.request(
        &mut StdRng::seed_from_u64(seed),
        &req.username,
        &req.password,
        &req.calling,
        req.state.as_deref(),
        traced.then_some(&ctx),
    );
    assert!(outcome.is_ok(), "{outcome:?}");
    let attempts: Vec<(u64, u64)> = metrics
        .tracer()
        .spans_for(trace)
        .iter()
        .filter(|s| s.label == "attempt")
        .map(|s| (s.id.as_u64(), s.start_us))
        .collect();
    let seen = recorder.seen.lock().unwrap().clone();
    let stamps: Vec<Stamp> = if traced {
        attempts.into_iter().map(Some).collect()
    } else {
        vec![None; seen.len()]
    };
    assert_eq!(seen.len(), stamps.len());
    seen.into_iter().zip(stamps).collect()
}

/// The same request as the codec builds it: a [`Packet`] with one owned
/// attribute each, the trace context appended as its own attribute.
fn codec_encoding(req: &Request, seed: u64, stamp: Stamp) -> Vec<u8> {
    let ra = request_authenticator(&mut StdRng::seed_from_u64(seed));
    let mut packet = Packet::new(Code::AccessRequest, 0, ra)
        .with_attribute(Attribute::text(AttributeType::UserName, &req.username))
        .with_attribute(Attribute::new(
            AttributeType::UserPassword,
            hide_password(&req.password, &ra, SECRET),
        ))
        .with_attribute(Attribute::text(AttributeType::NasIdentifier, NAS))
        .with_attribute(Attribute::text(
            AttributeType::CallingStationId,
            &req.calling,
        ));
    if let Some(s) = &req.state {
        packet = packet.with_attribute(Attribute::new(AttributeType::State, s.clone()));
    }
    if let Some((span, clock_us)) = stamp {
        packet = packet.with_attribute(tracewire::trace_ctx_attribute(
            TraceId::from_u64(seed ^ 0x7ace),
            Some(hpcmfa_telemetry::SpanId::from_u64(span)),
            clock_us,
        ));
    }
    packet.encode()
}

/// A reply `code` with `attrs`, sealed for `request_auth` under `secret`.
fn sealed_reply(code: Code, id: u8, attrs: &[(u8, Vec<u8>)], request_auth: &[u8; 16]) -> Packet {
    let mut reply = Packet::new(code, id, [0u8; 16]);
    for (ty, value) in attrs {
        reply = reply.with_attribute(Attribute::new(AttributeType::from_code(*ty), value.clone()));
    }
    reply.authenticator = reference_authenticator(&reply, request_auth, SECRET);
    reply
}

/// How a sealed reply is spoiled before it is verified.
#[derive(Debug, Clone)]
enum Spoil {
    Nothing,
    FlipBit(usize, u8),
    Pad(Vec<u8>),
    WrongSecret,
    WrongRequestAuth([u8; 16]),
}

fn arb_spoil() -> impl Strategy<Value = Spoil> {
    prop_oneof![
        Just(Spoil::Nothing),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Spoil::FlipBit(at, bit)),
        prop::collection::vec(any::<u8>(), 1..40).prop_map(Spoil::Pad),
        Just(Spoil::WrongSecret),
        any::<[u8; 16]>().prop_map(Spoil::WrongRequestAuth),
    ]
}

proptest! {
    /// Every datagram the client sends equals the codec's encoding of the
    /// same request: untraced, traced, and on a retry after a timeout,
    /// whose trace context names the second attempt and its later clock.
    fn requests_are_byte_identical_to_the_codec(
        req in arb_request(),
        seed in any::<u64>(),
        traced in any::<bool>(),
        retry in any::<bool>(),
    ) {
        let datagrams = sent(&req, seed, traced, retry);
        prop_assert_eq!(datagrams.len(), 1 + usize::from(retry));
        for (wire, stamp) in datagrams {
            prop_assert_eq!(wire, codec_encoding(&req, seed, stamp));
        }
    }

    /// The in-place check agrees with RFC 2865's authenticator over a
    /// re-encoded copy, and with [`verify_response`], on any reply that
    /// parses; a reply that does not parse never reaches it.
    fn in_place_verify_agrees_with_the_reference(
        code in prop::sample::select(vec![Code::AccessAccept, Code::AccessReject, Code::AccessChallenge]),
        id in any::<u8>(),
        attrs in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u8>(), 0..40)), 0..6),
        request_auth in any::<[u8; 16]>(),
        spoil in arb_spoil(),
    ) {
        let reply = sealed_reply(code, id, &attrs, &request_auth);
        let mut wire = reply.encode();
        let (mut secret, mut ra) = (SECRET, request_auth);
        match &spoil {
            Spoil::Nothing => {}
            Spoil::FlipBit(at, bit) => {
                let len = wire.len();
                wire[at % len] ^= 1 << bit;
            }
            Spoil::Pad(pad) => wire.extend_from_slice(pad),
            Spoil::WrongSecret => secret = b"some-other-secret",
            Spoil::WrongRequestAuth(other) => ra = *other,
        }
        let in_place = verify_reply(&wire, &ra, secret);
        match Packet::decode(&wire) {
            Ok(parsed) => {
                let reference = reference_authenticator(&parsed, &ra, secret) == parsed.authenticator;
                prop_assert_eq!(in_place, reference, "{:?}", spoil);
                prop_assert_eq!(in_place, verify_response(&parsed, &ra, secret));
                let untouched = matches!(spoil, Spoil::Nothing | Spoil::Pad(_))
                    || matches!(spoil, Spoil::WrongRequestAuth(other) if other == request_auth);
                prop_assert_eq!(in_place, untouched, "{:?}", spoil);
            }
            Err(_) => prop_assert!(matches!(spoil, Spoil::FlipBit(..))),
        }
    }

    /// Hiding in place appends what the allocating form returns, and
    /// leaves what the buffer held before it alone.
    fn hide_password_into_agrees_with_hide_password(
        password in prop::collection::vec(any::<u8>(), 0..=128),
        request_auth in any::<[u8; 16]>(),
        prefix in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut out = prefix.clone();
        prop_assert!(hide_password_into(&password, &request_auth, SECRET, &mut out));
        let (head, hidden) = out.split_at(prefix.len());
        prop_assert_eq!(head, &prefix[..]);
        prop_assert_eq!(hidden, &hide_password(&password, &request_auth, SECRET)[..]);
    }
}

/// A password over RFC 2865's 128 octets is refused, and nothing is
/// written.
#[test]
fn hide_password_into_refuses_an_overlong_password() {
    let mut out = vec![7u8; 3];
    assert!(!hide_password_into(
        &[0u8; 129],
        &[0u8; 16],
        SECRET,
        &mut out
    ));
    assert_eq!(out, [7, 7, 7]);
}

/// Replies too short for a header, or declaring more than they hold, fail.
#[test]
fn truncated_replies_fail_in_place() {
    let ra = [3u8; 16];
    let wire = sealed_reply(Code::AccessAccept, 1, &[(18, b"hi".to_vec())], &ra).encode();
    assert!(verify_reply(&wire, &ra, SECRET));
    for cut in 0..wire.len() {
        assert!(!verify_reply(&wire[..cut], &ra, SECRET), "cut at {cut}");
    }
}
