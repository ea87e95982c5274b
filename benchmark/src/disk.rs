//! The pinned flush device: one serial queue with a fixed service time.
//!
//! A real `fsync` on this class of machine (shared virtio disk) does not
//! repeat from run to run, so the benchmark owns the device's *time*:
//! every flush books the next free slot on the one device timeline and
//! waits until that slot ends. One queue models the measured behaviour
//! that concurrent fsyncs on one ext4 journal do not overlap; booking a
//! slot (rather than waiting under a mutex) keeps the device busy back
//! to back while work is queued, as a disk is. Counters are exact.
//!
//! How a caller waits depends on whether the CPU has other work. A
//! 200 us sleep on an idle vCPU halts it, and the hypervisor brings it
//! back when it pleases: the same sleep measured 245-350 us at the median
//! and 460-860 us at p90. So the caller yields in a loop, which keeps the
//! benchmark's CPU awake, for as long as every yield comes straight back.
//! A yield that takes longer ran another thread: the CPU is busy, a timer
//! on a busy CPU is punctual, and a waiter that kept yielding would take
//! a fair share of the CPU from threads with work to do. Then the caller
//! sleeps out the rest. The CPU time burnt waiting is counted
//! ([`DeviceCounters::wait_cpu_ns`]) so it can be taken out of the
//! process's.
//!
//! The `StorageBackend` adapter that routes the server's WAL through a
//! `Device` lives in `sut.rs` with every other call into the repository.

use crate::host::thread_cpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Service time of one flush from warm-up on.
pub const FLUSH_LATENCY: Duration = Duration::from_micros(200);

/// A yield that takes longer than this ran another thread (one that
/// comes straight back takes well under a microsecond).
const BUSY_YIELD: Duration = Duration::from_micros(5);

pub struct Device {
    latency_ns: AtomicU64,
    /// When the device finishes the work already booked on it.
    free_at: Mutex<Instant>,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    flushes: AtomicU64,
    snapshots: AtomicU64,
    snapshot_bytes: AtomicU64,
    wait_ns: AtomicU64,
    wait_cpu_ns: AtomicU64,
}

/// A frozen view of the device counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// WAL frames handed to the backend.
    pub appends: u64,
    /// Bytes of those frames.
    pub append_bytes: u64,
    /// Device operations: WAL syncs plus snapshot writes.
    pub flushes: u64,
    /// Snapshot writes (a subset of `flushes`).
    pub snapshots: u64,
    /// Bytes of those snapshots.
    pub snapshot_bytes: u64,
    /// Total time flushes spent queued behind earlier ones.
    pub wait_ns: u64,
    /// CPU time the callers burnt waiting for their slots to end.
    pub wait_cpu_ns: u64,
}

impl DeviceCounters {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DeviceCounters) -> DeviceCounters {
        DeviceCounters {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            flushes: self.flushes - earlier.flushes,
            snapshots: self.snapshots - earlier.snapshots,
            snapshot_bytes: self.snapshot_bytes - earlier.snapshot_bytes,
            wait_ns: self.wait_ns - earlier.wait_ns,
            wait_cpu_ns: self.wait_cpu_ns - earlier.wait_cpu_ns,
        }
    }
}

impl Device {
    /// A device with latency 0 (enrolment and prefill run at this).
    pub fn new() -> Self {
        Device {
            latency_ns: AtomicU64::new(0),
            free_at: Mutex::new(Instant::now()),
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            wait_cpu_ns: AtomicU64::new(0),
        }
    }

    pub fn set_latency(&self, latency: Duration) {
        self.latency_ns
            .store(latency.as_nanos() as u64, Ordering::SeqCst);
    }

    pub fn note_append(&self, bytes: usize) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Run one WAL sync on the device.
    pub fn flush<T>(&self, op: impl FnOnce() -> T) -> T {
        self.serve(op)
    }

    /// Run one snapshot write of `bytes` bytes on the device.
    pub fn snapshot<T>(&self, bytes: usize, op: impl FnOnce() -> T) -> T {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.serve(op)
    }

    fn serve<T>(&self, op: impl FnOnce() -> T) -> T {
        let out = op();
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let latency = Duration::from_nanos(self.latency_ns.load(Ordering::SeqCst));
        if latency.is_zero() {
            return out;
        }
        let asked = Instant::now();
        let (start, done_at) = {
            // A panicking caller cannot leave a bare `Instant` inconsistent.
            let mut free_at = self.free_at.lock().unwrap_or_else(|e| e.into_inner());
            book(&mut free_at, asked, latency)
        };
        self.wait_ns
            .fetch_add((start - asked).as_nanos() as u64, Ordering::Relaxed);
        let cpu = thread_cpu();
        let mut now = Instant::now();
        while now < done_at {
            std::thread::yield_now();
            let after = Instant::now();
            if after - now > BUSY_YIELD && after < done_at {
                std::thread::sleep(done_at - after);
            }
            now = Instant::now();
        }
        self.wait_cpu_ns
            .fetch_add((thread_cpu() - cpu).as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// CPU time burnt so far waiting for slots to end.
    pub fn wait_cpu_ns(&self) -> u64 {
        self.wait_cpu_ns.load(Ordering::Relaxed)
    }

    pub fn counters(&self) -> DeviceCounters {
        DeviceCounters {
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            wait_cpu_ns: self.wait_cpu_ns(),
        }
    }
}

/// Book the device's next free slot of `latency` for a caller that
/// asked at `asked`: returns when the slot starts and ends.
fn book(free_at: &mut Instant, asked: Instant, latency: Duration) -> (Instant, Instant) {
    let start = asked.max(*free_at);
    *free_at = start + latency;
    (start, *free_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn counters_are_exact() {
        let d = Device::new();
        d.note_append(10);
        d.note_append(32);
        assert_eq!(d.flush(|| 7), 7);
        d.snapshot(1000, || ());
        let c = d.counters();
        assert_eq!(
            c,
            DeviceCounters {
                appends: 2,
                append_bytes: 42,
                flushes: 2,
                snapshots: 1,
                snapshot_bytes: 1000,
                wait_ns: c.wait_ns,
                wait_cpu_ns: c.wait_cpu_ns,
            }
        );
        d.note_append(1);
        assert_eq!(d.counters().since(&c).appends, 1);
        assert_eq!(d.counters().since(&c).flushes, 0);
    }

    #[test]
    fn slots_are_booked_back_to_back_while_work_is_queued() {
        let t0 = Instant::now();
        let us = Duration::from_micros;
        let mut free_at = t0;
        // An idle device serves at once.
        assert_eq!(
            book(&mut free_at, t0 + us(10), us(200)),
            (t0 + us(10), t0 + us(210))
        );
        // A caller arriving mid-slot queues until it ends...
        assert_eq!(
            book(&mut free_at, t0 + us(50), us(200)),
            (t0 + us(210), t0 + us(410))
        );
        // ...and so does the next, however late its thread wakes up.
        assert_eq!(
            book(&mut free_at, t0 + us(60), us(200)),
            (t0 + us(410), t0 + us(610))
        );
        // Once the queue has drained the device idles again.
        assert_eq!(
            book(&mut free_at, t0 + us(900), us(200)),
            (t0 + us(900), t0 + us(1100))
        );
    }

    #[test]
    fn concurrent_flushes_do_not_overlap() {
        let d = Arc::new(Device::new());
        d.set_latency(Duration::from_millis(2));
        let gate = Arc::new(Barrier::new(2));
        let t0 = Instant::now();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (d, gate) = (Arc::clone(&d), Arc::clone(&gate));
                std::thread::spawn(move || {
                    gate.wait();
                    d.flush(|| ());
                })
            })
            .collect();
        for t in threads {
            t.join().expect("flusher exits cleanly");
        }
        // Two 2 ms flushes on one queue take at least 4 ms between them,
        // whichever thread books first.
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(d.counters().flushes, 2);
    }
}
