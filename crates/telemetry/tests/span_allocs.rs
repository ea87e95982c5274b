//! What recording a span costs the heap, as counts.
//!
//! A binary of its own so it can install a counting `#[global_allocator]`.
//! Only allocations made on the test's own thread are counted, so libtest's
//! threads cannot disturb the totals.

use hpcmfa_telemetry::{SpanCtx, TraceClock, TraceId, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Spans per trace, as an ssh login records them.
const PER_TRACE: usize = 16;

/// A full default ring takes attribute-free spans, sixteen to a trace, each
/// new trace evicting the oldest: a span record owns no heap, and the
/// evicted trace's storage is what the next trace is recorded into, so
/// none of it allocates.
#[test]
fn an_attribute_free_span_into_a_full_ring_allocates_nothing() {
    let tracer = Tracer::new();
    let clock = TraceClock::at(0);
    let mut next = 0u64;
    let mut one_trace = || {
        let ctx = SpanCtx::root(TraceId::from_u64(next), clock.clone());
        next += 1;
        for _ in 0..PER_TRACE {
            let mut span = tracer.start(&ctx, "ssh", "session");
            span.set_detail("granted");
            span.finish();
        }
    };
    // Fill the ring, then evict past the tombstone memory so every
    // structure the ring keeps has reached its steady size.
    while tracer.dropped() < 4 * 65_536 {
        one_trace();
    }
    let traces = 10_000;
    let allocs = allocations_during(|| (0..traces).for_each(|_| one_trace()));
    assert_eq!(tracer.dropped() % PER_TRACE as u64, 0, "whole traces go");
    assert_eq!(allocs, 0, "{traces} traces of {PER_TRACE} spans allocated");
}
