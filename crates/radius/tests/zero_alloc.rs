//! The zero-allocation floor of the ingest hot path, as counts.
//!
//! A binary of its own so it can install a counting `#[global_allocator]`.
//! Only allocations made on the test's own thread are counted, so libtest's
//! threads cannot disturb the totals.

use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::auth::hide_password;
use hpcmfa_radius::packet::{Code, Packet, PacketView};
use hpcmfa_radius::server::{Handler, RadiusServer, ServerDecision};
use hpcmfa_radius::tracewire;
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

/// Accepts everything from the view, as the OTP handler does: taking the
/// trait's default `handle_view` would copy the request into an owned
/// `Packet`, one allocation per attribute.
struct AcceptAll;

impl Handler for AcceptAll {
    fn handle(&self, _request: &Packet, _password: Option<&[u8]>) -> ServerDecision {
        ServerDecision::Accept(Vec::new())
    }

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
