//! Heap allocations per accepted `LinotpServer::validate`, as an exact
//! count.
//!
//! A binary of its own so it can install a counting `#[global_allocator]`.
//! Only allocations made on the test's own thread are counted, so libtest's
//! threads cannot disturb the total.
//!
//! `cargo test -q --offline -p hpcmfa-otpserver --test validate_allocs`
//! counted 8 per hit while each of the three series a hit counts
//! (`hpcmfa_otp_window_scans_total`,
//! `hpcmfa_otp_validations_total{outcome="success"}`,
//! `hpcmfa_otp_validate_wall_us`) was looked up in the registry per call —
//! a lookup builds its key: the name, and for a labelled series the label
//! vector and two strings. With the handles held it was 2, the audit row's
//! user and detail strings. Now the row is staged as its WAL frame in a
//! buffer inside the operation and copied into a ring block that is
//! already there: 0.

use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig, ValidationOutcome};
use hpcmfa_otpserver::sms::TwilioSim;
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

const T0: u64 = 1_700_000_000;
const ALLOCS_PER_HIT: u64 = 0;

#[test]
fn a_validate_hit_allocates_an_exact_count() {
    // A small audit ring, full after the warm-up, so no call pays for its
    // growth.
    let config = ServerConfig {
        audit_cap: 8,
        ..ServerConfig::default()
    };
    let server = LinotpServer::with_config(TwilioSim::new(7), 7, config);
    let totp = Totp::new(server.enroll_soft("alice", T0));
    // One fresh code per 30 s step; the codes are made outside the count.
    let attempts: Vec<(u64, String)> = (1..=48u64)
        .map(|step| T0 + 30 * step)
        .map(|now| (now, totp.code_at(now)))
        .collect();
    let (warm_up, counted) = attempts.split_at(16);
    for (now, code) in warm_up {
        assert_eq!(
            server.validate("alice", code, *now),
            ValidationOutcome::Success
        );
    }
    for (now, code) in counted {
        let mut outcome = ValidationOutcome::NoToken;
        let allocs = allocations_during(|| outcome = server.validate("alice", code, *now));
        assert_eq!(outcome, ValidationOutcome::Success);
        assert_eq!(allocs, ALLOCS_PER_HIT, "allocations in one validate hit");
    }
}
