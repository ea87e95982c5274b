//! The acceptance chaos scenario: 1 of 3 RADIUS servers hard-down plus
//! 1-in-5 packet loss on the survivors, under a full login stream.
//!
//! Two claims are on trial:
//!
//! 1. Availability — every login in the stream eventually succeeds (the
//!    §3.4 resiliency claim, now under compound faults).
//! 2. Efficiency — the circuit breaker stops paying for the dead server: it
//!    sends strictly fewer probes there than the every-request walk would
//!    (which retries the dead server on every RADIUS request).

use securing_hpc::radius::breaker::BreakerState;
use securing_hpc::workload::chaos::{ChaosParams, ChaosRunner, FaultScript};

#[test]
fn one_dead_server_plus_packet_loss_full_stream() {
    let logins = 150;
    let params = ChaosParams {
        logins,
        users: 5,
        seed: 2017,
        ..ChaosParams::default()
    };
    let script = FaultScript::outage_with_loss(0, 3, 5);
    let report = ChaosRunner::new(params).run(&script);

    // --- Claim 1: 100% eventual auth success. ---
    assert_eq!(
        report.eventual_successes, logins,
        "some logins never recovered:\n{report}"
    );
    assert_eq!(report.availability(), 1.0);

    // --- Claim 2: the breaker beats the every-request walk. ---
    // Each login is at least two RADIUS requests (challenge open + token
    // answer). A walk with no breaker retries the dead server on every
    // request; the breaker must do strictly better.
    let walk_attempts = 2 * logins as u64;
    let dead = &report.health[0];
    assert!(
        dead.attempts < walk_attempts,
        "breaker sent {} probes to the dead server; an every-request walk sends >= {walk_attempts}\n{report}",
        dead.attempts,
    );
    // And the quarantine is visible in the stats, not incidental.
    assert!(dead.skipped > 0, "no sends were skipped:\n{report}");
    assert!(dead.breaker_opens >= 1, "breaker never opened:\n{report}");
    assert!(
        matches!(dead.breaker, BreakerState::Open | BreakerState::HalfOpen),
        "dead server's breaker ended {:?}:\n{report}",
        dead.breaker,
    );
    // The survivors carried the whole stream despite the packet loss.
    let carried: u64 = report.health[1..].iter().map(|h| h.successes).sum();
    assert!(
        carried >= walk_attempts,
        "survivors answered only {carried} requests:\n{report}"
    );
    for h in &report.health[1..] {
        assert_eq!(h.breaker, BreakerState::Closed, "{report}");
        assert!(h.successes > 0, "{report}");
    }
}
