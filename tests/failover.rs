//! The failover acceptance scenario: warm-standby OTP replication with
//! epoch-fenced promotion, driven end to end through sshd → PAM →
//! RADIUS → OTP.
//!
//! Four claims are on trial:
//!
//! 1. Promotion — a seeded primary-crash chaos run opens the cluster
//!    breaker and promotes the standby, visible in the metrics, the
//!    alert timeline, and the security-event feed.
//! 2. Fencing — the deposed primary's un-replicated frames are all
//!    rejected by the epoch fence when it reconnects; the healed node is
//!    then readmitted as the new standby and converges.
//! 3. Invariants across promotion — a previously accepted OTP is still
//!    a replay on the promoted standby, and no user's `fail_count` or
//!    lockout state regresses.
//! 4. Determinism — the full chaos report (availability, health,
//!    failover alert timeline, event feed) and the replication metric
//!    series replay byte-identically across 5 seeded runs.

use securing_hpc::core::center::{Center, CenterConfig, OtpStorage};
use securing_hpc::otp::clock::Clock;
use securing_hpc::otpserver::{MemoryBackend, ReplicationMode, StorageBackend, LOCKOUT_THRESHOLD};
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use securing_hpc::workload::chaos::{ChaosOtpStorage, ChaosParams, ChaosRunner, FaultScript};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

/// A replicated center with one soft-token user per name given.
fn replicated_center(
    mode: ReplicationMode,
) -> (Arc<Center>, Arc<MemoryBackend>, Arc<MemoryBackend>) {
    let primary = MemoryBackend::healthy();
    let standby = MemoryBackend::healthy();
    let center = Center::new(CenterConfig {
        otp_storage: OtpStorage::Replicated {
            mode,
            primary: Arc::clone(&primary) as Arc<dyn StorageBackend>,
            standby: Arc::clone(&standby) as Arc<dyn StorageBackend>,
        },
        ..CenterConfig::default()
    });
    center.set_enforcement(EnforcementMode::Full);
    (center, primary, standby)
}

fn user(center: &Center, name: &str) -> securing_hpc::otp::device::SoftToken {
    center.create_user(name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
    center.pair_soft(name)
}

fn fixed_profile(name: &str, code: &str) -> ClientProfile {
    ClientProfile::interactive_user(name, EXTERNAL_IP, &format!("{name}-pw"))
        .with_token(TokenSource::Fixed(code.to_string()))
}

/// Drive login attempts until the cluster promotes (the crashed
/// primary's failed appends open the breaker; the next RADIUS request
/// performs the failover). Panics if no promotion happens.
fn drive_until_promoted(center: &Center, profile: &ClientProfile) {
    let cluster = center.otp_cluster.as_ref().expect("replicated center");
    let before = cluster.epoch();
    for _ in 0..8 {
        let _ = center.ssh(0, profile);
        if cluster.epoch() > before {
            return;
        }
    }
    panic!("primary crash never promoted the standby");
}

#[test]
fn deposed_primary_is_epoch_fenced_on_rejoin() {
    let (center, primary, _standby) = replicated_center(ReplicationMode::Sync);
    let device = user(&center, "alice");
    let cluster = Arc::clone(center.otp_cluster.as_ref().unwrap());

    // Partition the link so real WAL frames pile up un-acked on the
    // primary (sync mode denies these logins fail-safe — and, the
    // split-brain check, never trips the breaker on its own).
    cluster.link_plan().set_partitioned(true);
    let d = device.clone();
    let fresh = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
        .with_token(TokenSource::device(move |now| Some(d.displayed_code(now))));
    for _ in 0..3 {
        center.clock.advance(30);
        assert!(
            !center.ssh(0, &fresh).granted,
            "sync mode must deny while partitioned"
        );
    }
    assert_eq!(cluster.epoch(), 1, "a partition alone must not promote");
    assert!(
        cluster.replication_lag() > 0,
        "frames are stranded on the primary"
    );

    // Now the partitioned primary dies for real: breaker opens, standby
    // is promoted, and the stranded frames become the deposed set.
    primary.set_down(true);
    center.clock.advance(30);
    drive_until_promoted(&center, &fresh);
    assert_eq!(cluster.epoch(), 2);
    assert_eq!(cluster.failovers(), 1);

    // The deposed node heals and replays what it still held: every
    // frame carries the old epoch and must be rejected by the fence.
    primary.set_down(false);
    cluster.link_plan().set_partitioned(false);
    let (offered, rejected) = cluster.rejoin_deposed();
    assert!(offered > 0, "the deposed primary held stranded frames");
    assert_eq!(offered, rejected, "every stale-epoch frame is fenced");

    // Fenced, the node is readmitted as the new warm standby and
    // converges on the promoted primary's state.
    assert!(cluster.rejoin_as_standby());
    assert!(cluster.has_standby());
    cluster.pump();
    cluster.pump();
    assert_eq!(cluster.replication_lag(), 0, "rejoined standby caught up");

    // Service continues on the new epoch.
    center.clock.advance(30);
    assert!(center.ssh(0, &fresh).granted);
}

#[test]
fn promotion_preserves_replay_fence_and_lockout_state() {
    let (center, primary, _standby) = replicated_center(ReplicationMode::Sync);
    let alice = user(&center, "alice");
    let _bob = user(&center, "bob");
    let _carol = user(&center, "carol");
    let cluster = Arc::clone(center.otp_cluster.as_ref().unwrap());

    // carol crosses the lockout threshold; bob accrues a partial streak.
    let carol_bad = fixed_profile("carol", "000000");
    for _ in 0..LOCKOUT_THRESHOLD {
        assert!(!center.ssh(0, &carol_bad).granted);
    }
    let bob_bad = fixed_profile("bob", "000000");
    for _ in 0..3 {
        assert!(!center.ssh(0, &bob_bad).granted);
    }
    // alice gets one code accepted — the replay-fence witness.
    let code = alice.displayed_code(center.clock.now());
    let alice_replay = fixed_profile("alice", &code);
    assert!(center.ssh(0, &alice_replay).granted);

    let now = center.clock.now();
    let carol_before = center.linotp.status("carol", now).unwrap();
    let bob_before = center.linotp.status("bob", now).unwrap();
    assert!(!carol_before.active, "carol locked out pre-failover");
    assert_eq!(bob_before.fail_count, 3);

    // Primary dies; the denied replays below also serve as the traffic
    // that opens the breaker and promotes the standby.
    primary.set_down(true);
    drive_until_promoted(&center, &alice_replay);
    assert_eq!(cluster.epoch(), 2);

    // Invariant 1: zero replay acceptances — the accepted code is still
    // a replay on the promoted standby (same validity window).
    assert!(
        !center.ssh(0, &alice_replay).granted,
        "accepted OTP must stay consumed across promotion"
    );

    // Invariant 2: no lockout or fail-count regression.
    let now = center.clock.now();
    let carol_after = center.linotp.status("carol", now).unwrap();
    let bob_after = center.linotp.status("bob", now).unwrap();
    assert!(!carol_after.active, "lockout must survive promotion");
    assert!(
        bob_after.fail_count >= bob_before.fail_count,
        "fail_count regressed across promotion: {} -> {}",
        bob_before.fail_count,
        bob_after.fail_count
    );

    // Fresh codes keep working on the new epoch.
    center.clock.advance(30);
    let d = alice.clone();
    let fresh = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
        .with_token(TokenSource::device(move |now| Some(d.displayed_code(now))));
    assert!(center.ssh(0, &fresh).granted);
}

/// One seeded primary-crash chaos run; returns the rendered report and
/// the deterministic replication metric series.
fn seeded_crash_run() -> (String, BTreeMap<String, u64>, i64) {
    let params = ChaosParams {
        logins: 30,
        users: 4,
        seed: 0xfa11,
        otp_storage: ChaosOtpStorage::Replicated(ReplicationMode::Sync),
        ..ChaosParams::default()
    };
    let script = FaultScript::primary_crash_mid_batch(30);
    let report = ChaosRunner::new(params).run(&script);
    let repl_counters: BTreeMap<String, u64> = report
        .metrics
        .counters()
        .iter()
        .filter(|(k, _)| k.contains("replication") || k.contains("failover"))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let epoch = report.metrics.gauge("hpcmfa_otp_replication_epoch");
    (format!("{report}"), repl_counters, epoch)
}

#[test]
fn seeded_primary_crash_chaos_replays_byte_identically_5_runs() {
    let (first, counters, epoch) = seeded_crash_run();

    // The promotion is visible across all three surfaces.
    assert!(
        first.contains("otp-ha: epoch 2, 1 failovers"),
        "report headline missing the failover:\n{first}"
    );
    assert!(
        first.contains("event:") && first.contains("failover"),
        "security-event feed missing the failover:\n{first}"
    );
    assert!(
        first.contains("alert:") && first.contains("otp_failover"),
        "alert timeline missing the failover:\n{first}"
    );
    assert_eq!(counters.get("hpcmfa_otp_failovers_total"), Some(&1));
    assert_eq!(epoch, 2, "epoch gauge on /system/metrics advanced");
    assert!(
        counters
            .get("hpcmfa_otp_replication_frames_applied_total")
            .copied()
            .unwrap_or(0)
            > 0,
        "standby applied real frames: {counters:?}"
    );

    // Byte-identical replay: report text AND the replication series.
    for run in 1..5 {
        let (text, c, e) = seeded_crash_run();
        assert_eq!(first, text, "run {run} diverged");
        assert_eq!(counters, c, "run {run} metric series diverged");
        assert_eq!(epoch, e, "run {run} epoch diverged");
    }
}
