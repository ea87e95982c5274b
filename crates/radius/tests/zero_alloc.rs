//! The allocation floors of the RADIUS hot paths, as counts: the ingest
//! allocates nothing per datagram, and a traced client request allocates
//! an exact number of buffers, each of them its own.
//!
//! A binary of its own so it can install a counting `#[global_allocator]`.
//! Only allocations made on the test's own thread are counted, so libtest's
//! threads cannot disturb the totals.

use hpcmfa_crypto::md5::Md5;
use hpcmfa_crypto::Digest;
use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::auth::hide_password;
use hpcmfa_radius::client::Outcome;
use hpcmfa_radius::packet::{Code, Packet, PacketView};
use hpcmfa_radius::server::{Handler, RadiusServer, ServerDecision};
use hpcmfa_radius::tracewire;
use hpcmfa_radius::{ClientConfig, RadiusClient, Transport, TransportError};
use hpcmfa_telemetry::{MetricsRegistry, SpanCtx, TraceClock, TraceId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // `const`-initialised and without destructors: reading them inside the
    // allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is handed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counters touch no memory it manages. The
// provided `realloc` and `alloc_zeroed` go through `alloc`, so they count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System::dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `work` runs.
fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

const SECRET: &[u8] = b"zero-alloc-secret";
const ROUNDS: usize = 10_000;

/// The Access-Request the OTP front end sees: username, hidden password,
/// NAS identifier and calling station.
fn make_wire(rng: &mut StdRng, id: u8) -> Vec<u8> {
    let mut auth = [0u8; 16];
    rng.fill_bytes(&mut auth);
    let mut password = [0u8; 8];
    rng.fill_bytes(&mut password);
    Packet::new(Code::AccessRequest, id, auth)
        .with_attribute(Attribute::text(
            AttributeType::UserName,
            &format!("user{id:03}"),
        ))
        .with_attribute(Attribute::new(
            AttributeType::UserPassword,
            hide_password(&password, &auth, SECRET),
        ))
        .with_attribute(Attribute::text(AttributeType::NasIdentifier, "login01"))
        .with_attribute(Attribute::text(
            AttributeType::CallingStationId,
            "198.51.100.77",
        ))
        .encode()
}

/// Accepts everything from the view, as the OTP handler does: a `&Packet`
/// closure handler would be given an owned copy of the request, one
/// allocation per attribute.
struct AcceptAll;

impl Handler for AcceptAll {
    fn handle_view(&self, _request: &PacketView<'_>, _password: Option<&[u8]>) -> ServerDecision {
        ServerDecision::Accept(Vec::new())
    }
}

#[test]
fn view_decode_and_process_into_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(20);
    let corpus: Vec<Vec<u8>> = (0..=255u8).map(|id| make_wire(&mut rng, id)).collect();

    // Parse, walk every attribute, and read what `OtpRadiusHandler::
    // handle_view` reads: username, trace context, calling station.
    let mut attrs_seen = 0usize;
    let decode_allocs = allocations_during(|| {
        for i in 0..ROUNDS {
            let view = PacketView::parse(&corpus[i % corpus.len()]).expect("corpus is well-formed");
            attrs_seen += view.attributes().count();
            let user = view.text(AttributeType::UserName);
            let trace = tracewire::trace_ctx_of_view(&view);
            let source = view.text(AttributeType::CallingStationId);
            std::hint::black_box((user, trace, source));
        }
    });
    assert_eq!(attrs_seen, 4 * ROUNDS, "every attribute walked");
    assert_eq!(decode_allocs, 0, "view decode allocated");

    // The whole request path on reused buffers, warmed by one call.
    let server = RadiusServer::new(SECRET, Arc::new(AcceptAll));
    let mut reply = Vec::new();
    let mut pw_scratch = Vec::new();
    assert!(server.process_into(&corpus[0], &mut reply, &mut pw_scratch));
    let mut replied = 0usize;
    let process_allocs = allocations_during(|| {
        for i in 0..ROUNDS {
            let wire = &corpus[i % corpus.len()];
            replied += usize::from(server.process_into(wire, &mut reply, &mut pw_scratch));
        }
    });
    assert_eq!(replied, ROUNDS, "every datagram answered");
    assert_eq!(process_allocs, 0, "process_into allocated");
}

/// An in-process server that answers every request with a sealed
/// Access-Challenge (State and Reply-Message), written straight into the
/// caller's reply buffer: the transport allocates only that buffer.
struct Challenger;

const STATE: &[u8] = b"chal-1";
const PROMPT: &[u8] = b"TACC Token:";

impl Transport for Challenger {
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        let req = PacketView::parse(request).map_err(|_| TransportError::GarbledReply)?;
        let len = 20 + 2 + STATE.len() + 2 + PROMPT.len();
        reply.clear();
        reply.reserve_exact(len);
        reply.extend_from_slice(&[11, req.identifier]);
        reply.extend_from_slice(&(len as u16).to_be_bytes());
        reply.extend_from_slice(req.authenticator());
        for (ty, value) in [(24u8, STATE), (18, PROMPT)] {
            reply.extend_from_slice(&[ty, 2 + value.len() as u8]);
            reply.extend_from_slice(value);
        }
        let mut h = Md5::new();
        h.update(reply);
        h.update(SECRET);
        reply[4..20].copy_from_slice(&h.finalize());
        Ok(())
    }

    fn name(&self) -> String {
        "in-process".into()
    }
}

/// A traced request, answered on the first attempt, allocates five buffers
/// and nothing else: the request datagram (encoded once, sized to the
/// request and its trace context), the attempt span's attribute list, the
/// reply buffer, and the outcome's own State and Reply-Message. The spans
/// go into a full ring that reuses what it evicts; the server's name is
/// shared, and the reply is parsed and verified where it lies.
#[test]
fn a_traced_client_request_allocates_an_exact_count() {
    const PER_REQUEST: u64 = 5;
    let metrics = Arc::new(MetricsRegistry::with_ring_caps(1_024, 1_024));
    let client = RadiusClient::with_metrics(
        ClientConfig::new(SECRET, "login01"),
        vec![Arc::new(Challenger) as Arc<dyn Transport>],
        Arc::clone(&metrics),
    );
    let mut rng = StdRng::seed_from_u64(21);
    // One clock for every request, as an ssh connection has one for all
    // of its attempts.
    let clock = TraceClock::at(0);
    let mut next = 0u64;
    let mut request = || {
        let ctx = SpanCtx::root(TraceId::from_u64(next), clock.clone());
        next += 1;
        client.request(
            &mut rng,
            "user042",
            b"123456",
            "198.51.100.77",
            None,
            Some(&ctx),
        )
    };
    // Warm: the ring full and evicting past its tombstone memory, every
    // instrument's first sample taken.
    while metrics.tracer().dropped() < 8_192 {
        request().expect("the in-process server answers");
    }
    let rounds = 2_000;
    let mut challenged = 0u64;
    let allocs = allocations_during(|| {
        for _ in 0..rounds {
            let outcome = request();
            challenged += u64::from(matches!(
                &outcome,
                Ok(Outcome::Challenge { state, message: Some(m) })
                    if state == STATE && m.as_bytes() == PROMPT
            ));
        }
    });
    assert_eq!(challenged, rounds, "every request challenged");
    assert_eq!(
        allocs,
        PER_REQUEST * rounds,
        "allocations over {rounds} requests"
    );
}
