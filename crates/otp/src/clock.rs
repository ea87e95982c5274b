//! Time sources.
//!
//! Every component that touches TOTP needs "now", through [`Clock`]; the
//! rollout simulator, the benchmark and all tests use a [`SimClock`]
//! whose virtual time is advanced explicitly, making every run
//! deterministic and letting five months of calendar time pass in
//! milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of Unix time (seconds).
pub trait Clock: Send + Sync {
    /// Current Unix time in seconds.
    fn now(&self) -> u64;
}

/// A shared, manually advanced virtual clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Start at `unix_time`.
    pub fn at(unix_time: u64) -> Self {
        SimClock {
            now: Arc::new(AtomicU64::new(unix_time)),
        }
    }

    /// Jump to an absolute time. Panics on attempts to move backwards,
    /// which would silently break TOTP replay bookkeeping; the refused move
    /// leaves the clock where it was.
    pub fn set(&self, unix_time: u64) {
        let moved = self
            .now
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |prev| {
                (unix_time >= prev).then_some(unix_time)
            });
        if let Err(prev) = moved {
            panic!("SimClock moved backwards: {prev} -> {unix_time}");
        }
    }

    /// Advance by `secs`.
    pub fn advance(&self, secs: u64) {
        self.now.fetch_add(secs, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances() {
        let c = SimClock::at(1000);
        assert_eq!(c.now(), 1000);
        c.advance(30);
        assert_eq!(c.now(), 1030);
        c.set(2000);
        assert_eq!(c.now(), 2000);
    }

    #[test]
    fn sim_clock_is_shared_between_clones() {
        let a = SimClock::at(0);
        let b = a.clone();
        a.advance(60);
        assert_eq!(b.now(), 60);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn sim_clock_refuses_time_travel() {
        let c = SimClock::at(100);
        c.set(50);
    }

    #[test]
    fn a_refused_move_leaves_the_clock_unchanged() {
        let c = SimClock::at(100);
        let moved = std::panic::catch_unwind(|| c.set(50));
        assert!(moved.is_err());
        assert_eq!(c.now(), 100);
    }
}
