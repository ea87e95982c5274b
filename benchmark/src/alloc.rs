//! A counting allocator: the system allocator plus three counters.
//!
//! The process's resident set is the allocator's story as much as the
//! program's (which arena a thread got, what a freed snapshot buffer left
//! behind): the same build sat at 18 or at 34 MiB from one run to the
//! next. The bytes the program holds at a moment are its own doing, and
//! the allocations it makes per login are an exact count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

// Statistics: none of them publishes other data, hence `Relaxed`.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is handed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counters touch no memory it manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::realloc`'s.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocations (reallocations included) since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes asked for since the process started.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_a_buffer_through_its_life() {
        // Other tests allocate at the same time, so only this buffer's
        // own lower bounds can be asserted.
        let (count, bytes) = (allocations(), allocated_bytes());
        let mut buffer: Vec<u8> = Vec::with_capacity(1 << 20);
        assert!(live_bytes() >= 1 << 20);
        buffer.reserve_exact(2 << 20);
        assert!(live_bytes() >= 2 << 20);
        assert!(allocations() >= count + 2);
        assert!(allocated_bytes() >= bytes + (3 << 20));
        drop(buffer);
    }
}
