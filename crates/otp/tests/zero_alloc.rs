//! The drift-window scan allocates nothing, as a count.
//!
//! A binary of its own so it can install a counting `#[global_allocator]`.
//! Only allocations made on the test's own thread are counted, so libtest's
//! threads cannot disturb the totals.

use hpcmfa_crypto::HashAlg;
use hpcmfa_otp::{Secret, Totp, TotpParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without destructors: reading them inside the
    // allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is handed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counters touch no memory it manages. The
// provided `realloc` and `alloc_zeroed` go through `alloc`, so they count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
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

/// An accept, a replay, a miss, a wrong length and a non-digit, 250 times
/// each, against the paper's ±10-step window: before the numeric compare
/// every well-formed candidate cost one `String` per step, 21 per call.
/// Each path is counted on its own, so an early exit on one cannot hide an
/// allocation on another.
#[test]
fn verify_allocates_nothing() {
    const NOW: u64 = 1_475_000_000;
    for alg in [HashAlg::Sha1, HashAlg::Sha256] {
        let totp = Totp::with_params(
            Secret::from_bytes(*b"12345678901234567890"),
            TotpParams {
                alg,
                ..TotpParams::default()
            },
        );
        let hit = totp.code_at(NOW - 60);
        let miss = if hit == "000000" { "000001" } else { "000000" };
        let step = totp.params.time_step(NOW - 60);
        let accept = allocations_during(|| {
            for _ in 0..250 {
                assert_eq!(totp.verify_tracked(&hit, NOW, 10, None), Some(step));
                assert_eq!(
                    totp.verify_tracked(&hit, NOW, 10, Some(step - 1)),
                    Some(step)
                );
            }
        });
        let replay = allocations_during(|| {
            for _ in 0..250 {
                assert_eq!(totp.verify_tracked(&hit, NOW, 10, Some(step)), Some(step));
                assert_eq!(
                    totp.verify_tracked(&hit, NOW, 10, Some(step + 5)),
                    Some(step)
                );
            }
        });
        let miss = allocations_during(|| {
            for _ in 0..250 {
                assert_eq!(totp.verify_tracked(miss, NOW, 10, None), None);
                assert_eq!(totp.verify_tracked(miss, NOW, 10, Some(step)), None);
                assert_eq!(totp.verify_tracked("12345", NOW, 10, None), None);
                assert_eq!(totp.verify_tracked("12a456", NOW, 10, None), None);
            }
        });
        assert_eq!((accept, replay, miss), (0, 0, 0), "{alg:?}");
    }
}
