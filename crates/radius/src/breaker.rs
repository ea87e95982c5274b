//! Per-server circuit breaker for the RADIUS client pool.
//!
//! FreeRADIUS guards its home-server pools with `zombie_period` (stop
//! sending to a server that stopped answering) and `revive_interval`
//! (periodically probe it again). This module reproduces that shape as an
//! explicit three-state breaker:
//!
//! * **Closed** — healthy; every request may go to the server.
//! * **Open** — the server accumulated [`BreakerConfig::failure_threshold`]
//!   consecutive transport failures; requests are skipped until
//!   [`BreakerConfig::cooldown_us`] of virtual time has passed.
//! * **Half-open** — the cooldown elapsed; exactly one revival probe is let
//!   through. Success closes the breaker, failure re-opens it for another
//!   cooldown.
//!
//! Time is the client's *virtual* clock (microseconds), so simulations stay
//! deterministic and never sleep. Callers pass `now_us` explicitly.

use parking_lot::Mutex;

/// Breaker tuning, mirroring FreeRADIUS `zombie_period`/`revive_interval`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures before the breaker opens.
    pub failure_threshold: u32,
    /// Virtual microseconds an open breaker waits before allowing a
    /// half-open revival probe.
    pub cooldown_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 5_000_000, // 5 s of virtual time
        }
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe in flight decides open vs closed.
    HalfOpen,
}

#[derive(Debug)]
struct Core {
    state: BreakerState,
    /// Consecutive transport failures since the last success.
    streak: u32,
    /// When an Open breaker next allows a probe.
    open_until_us: u64,
    /// How many times the breaker has transitioned Closed/HalfOpen → Open.
    opened_count: u64,
}

/// A three-state (closed/open/half-open) circuit breaker over virtual time.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    core: Mutex<Core>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            core: Mutex::new(Core {
                state: BreakerState::Closed,
                streak: 0,
                open_until_us: 0,
                opened_count: 0,
            }),
        }
    }

    /// Current state (an Open breaker whose cooldown has passed still
    /// reports Open until a request asks to go through).
    pub(crate) fn state(&self) -> BreakerState {
        self.core.lock().state
    }

    /// How many times this breaker has opened.
    pub(crate) fn opened_count(&self) -> u64 {
        self.core.lock().opened_count
    }

    /// When an Open breaker will next allow a probe, if it is open.
    pub(crate) fn open_until_us(&self) -> Option<u64> {
        let core = self.core.lock();
        (core.state == BreakerState::Open).then_some(core.open_until_us)
    }

    /// May a request be sent to this server at virtual time `now_us`?
    /// An Open breaker whose cooldown has elapsed transitions to HalfOpen
    /// and admits the caller as the revival probe.
    pub(crate) fn allow(&self, now_us: u64) -> bool {
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_us >= core.open_until_us {
                    core.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The server answered: close the breaker and clear the streak.
    pub fn record_success(&self) {
        let mut core = self.core.lock();
        core.state = BreakerState::Closed;
        core.streak = 0;
    }

    /// A transport-level failure at virtual time `now_us`: extend the
    /// streak; trip the breaker when the threshold is reached, and re-open
    /// immediately when a half-open probe fails.
    pub(crate) fn record_failure(&self, now_us: u64) {
        self.record_failure_opened(now_us);
    }

    /// Like `CircuitBreaker::record_failure`, but reports whether *this*
    /// failure tripped the breaker open — the edge a caller reacts to
    /// exactly once (the OTP replication layer schedules a failover on it).
    pub fn record_failure_opened(&self, now_us: u64) -> bool {
        let mut core = self.core.lock();
        core.streak = core.streak.saturating_add(1);
        let trip = match core.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => core.streak >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            core.state = BreakerState::Open;
            core.open_until_us = now_us + self.config.cooldown_us;
            core.opened_count += 1;
        }
        trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 1_000,
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(cfg());
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened_count(), 1);
        assert_eq!(b.open_until_us(), Some(1_010));
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(cfg());
        b.record_failure(0);
        b.record_failure(0);
        b.record_success();
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_blocks_until_cooldown_then_half_opens() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure(100);
        }
        assert!(!b.allow(500));
        assert!(!b.allow(1_099));
        assert!(b.allow(1_100)); // cooldown elapsed → revival probe
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens_successful_probe_closes() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure(0);
        }
        assert!(b.allow(2_000));
        b.record_failure(2_000); // probe failed → straight back to Open
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_until_us(), Some(3_000));
        assert_eq!(b.opened_count(), 2);

        assert!(b.allow(3_000));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(3_001));
    }
}
