//! Federation acceptance: multi-realm routing plus stateless
//! session-resumption tokens, driven end to end through sshd → PAM →
//! RADIUS realm router → (proxy) → home-realm OTP server.
//!
//! Five claims are on trial:
//!
//! 1. Routing — in the seeded three-site scenario, `bob@psc` logging in
//!    at `tacc` is proxied to his home realm and granted, and a realm
//!    outside the trust ACL is rejected at the router.
//! 2. O(1) resumption — the repeat login presents the minted token and
//!    is granted with *zero* OTP window scans at the home realm, pinned
//!    by the `hpcmfa_otp_window_scans_total` delta.
//! 3. Theft containment — replaying the token from a foreign /16 is
//!    denied and emits the typed `resume_replay` security event; the
//!    in-/16 replay of a burned nonce is denied by the single-use ledger.
//! 4. Determinism — the scenario report replays byte-identically across
//!    5 seeded runs.
//! 5. Durability — single-use survives both a crash-and-recover of the
//!    OTP server and a warm-standby promotion: a nonce burned before the
//!    fault is still burned after it.

use securing_hpc::core::center::{Center, CenterConfig, FederationParams, OtpStorage};
use securing_hpc::federation::TrustConfig;
use securing_hpc::otp::clock::Clock;
use securing_hpc::otpserver::{MemoryBackend, ReplicationMode, StorageBackend};
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use securing_hpc::workload::federation::FederationSim;
use std::net::Ipv4Addr;
use std::sync::Arc;

const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

#[test]
fn roaming_login_routes_to_home_realm_and_succeeds() {
    let report = FederationSim::new(0xfed).run();
    assert_eq!(report.roamed_granted, 1, "{report}");
    assert_eq!(report.transit_granted, 1, "{report}");
    // The visited site's proxy counters show the psc leg: the roaming
    // full-MFA login, the resumption login, and the transit hop relayed
    // from sdsc were all forwarded and accepted; the two replays were
    // forwarded and rejected; the unknown realm never left the router.
    let has = |needle: &str| report.counters.iter().any(|c| c == needle);
    assert!(
        has("tacc hpcmfa_radius_proxy_forwards_total{outcome=\"accept\",realm=\"psc\"} = 3"),
        "{report}"
    );
    assert!(
        has("sdsc hpcmfa_radius_proxy_forwards_total{outcome=\"accept\",realm=\"psc\"} = 1"),
        "{report}"
    );
    assert!(
        has("tacc hpcmfa_radius_proxy_forwards_total{outcome=\"reject\",realm=\"psc\"} = 2"),
        "{report}"
    );
    // The unknown realm never left the router; 3 = PAM's per-session
    // token-prompt retries, each refused at the ACL.
    assert!(
        has("tacc hpcmfa_radius_proxy_forwards_total{outcome=\"denied_acl\",realm=\"ncsa\"} = 3"),
        "{report}"
    );
}

#[test]
fn resumption_validates_in_constant_time_with_zero_window_scans() {
    let report = FederationSim::new(0xfed).run();
    assert_eq!(report.resumed_granted, 1, "{report}");
    assert_eq!(
        report.resume_window_scans, 0,
        "resumption must never walk the TOTP drift window: {report}"
    );
    assert!(
        report
            .counters
            .iter()
            .any(|c| c == "psc hpcmfa_otp_resume_validations_total{outcome=\"ok\"} = 1"),
        "{report}"
    );
}

#[test]
fn replay_from_changed_address_is_denied_with_typed_event() {
    let report = FederationSim::new(0xfed).run();
    assert_eq!(report.replays_denied, 2, "{report}");
    assert!(
        report
            .counters
            .iter()
            .any(|c| c == "psc hpcmfa_otp_resume_validations_total{outcome=\"wrong_address\"} = 1"),
        "{report}"
    );
    assert!(
        report
            .counters
            .iter()
            .any(|c| c == "psc hpcmfa_otp_resume_validations_total{outcome=\"replayed\"} = 1"),
        "{report}"
    );
    // The home realm names the theft in its typed event feed.
    assert!(
        report.security_events.iter().any(|e| e.starts_with("psc:")
            && e.contains("resume_replay")
            && e.contains("foreign /16")),
        "{report}"
    );
}

#[test]
fn scenario_report_is_byte_identical_across_5_replays() {
    let first = FederationSim::new(0xfed).run().to_string();
    for _ in 0..4 {
        assert_eq!(first, FederationSim::new(0xfed).run().to_string());
    }
}

/// A single-site federated center (local-only trust still mints
/// resumption tokens) with one fully-paired user and a completed
/// full-MFA login whose Accept carried a token.
fn federated_login(config: CenterConfig) -> (Arc<Center>, String) {
    let center = Center::new(config);
    center.create_user("alice", "alice@utexas.edu", "alice-pw");
    center.set_enforcement(EnforcementMode::Full);
    let device = center.pair_soft("alice");
    let code = device.displayed_code(center.clock.now());
    let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
        .with_token(TokenSource::Fixed(code));
    let session = center.ssh(0, &profile);
    assert!(session.granted, "full MFA login");
    let token = session
        .issued_resume_token
        .expect("full-MFA success mints a resumption token");
    (center, token)
}

fn resume_profile(token: &str) -> ClientProfile {
    ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
        .with_token(TokenSource::Fixed(token.to_string()))
}

#[test]
fn single_use_survives_crash_recovery() {
    let backend = MemoryBackend::healthy();
    let (center, token) = federated_login(CenterConfig {
        otp_storage: OtpStorage::Durable {
            backend,
            snapshot_every: 256,
        },
        federation: Some(FederationParams::new(
            TrustConfig::local_only("tacc"),
            b"crash-resume-key",
        )),
        ..CenterConfig::default()
    });

    // First presentation spends the nonce (WAL'd before the ack).
    center.clock.advance(30);
    assert!(center.ssh(0, &resume_profile(&token)).granted);

    // Kill and recover: the consume record replays from durable state.
    let report = center.crash_otp_server().expect("recovers");
    assert!(report.wal_records > 0, "the consume was logged");

    // The burned nonce stays burned on the recovered server.
    center.clock.advance(30);
    assert!(
        !center.ssh(1, &resume_profile(&token)).granted,
        "a resumption nonce must stay single-use across crash recovery"
    );
    let replayed = center
        .metrics_snapshot()
        .counter("hpcmfa_otp_resume_validations_total{outcome=\"replayed\"}");
    assert_eq!(replayed, 1);
}

#[test]
fn single_use_survives_standby_promotion() {
    let primary = MemoryBackend::healthy();
    let standby = MemoryBackend::healthy();
    let (center, token) = federated_login(CenterConfig {
        otp_storage: OtpStorage::Replicated {
            mode: ReplicationMode::Sync,
            primary: Arc::clone(&primary) as Arc<dyn StorageBackend>,
            standby: Arc::clone(&standby) as Arc<dyn StorageBackend>,
        },
        federation: Some(FederationParams::new(
            TrustConfig::local_only("tacc"),
            b"failover-resume-key",
        )),
        ..CenterConfig::default()
    });

    // Spend the nonce while the primary is healthy: the consume frame
    // replicates to the standby synchronously.
    center.clock.advance(30);
    assert!(center.ssh(0, &resume_profile(&token)).granted);

    // Kill the primary's storage and drive logins until the breaker
    // opens and a handler promotes the standby.
    primary.set_down(true);
    let cluster = center.otp_cluster.as_ref().expect("replicated center");
    for _ in 0..6 {
        center.clock.advance(30);
        let _ = center.ssh(0, &resume_profile(&token));
        if cluster.epoch() > 1 {
            break;
        }
    }
    assert!(cluster.epoch() > 1, "standby promoted");

    // The promoted standby still refuses the burned nonce.
    center.clock.advance(30);
    assert!(
        !center.ssh(1, &resume_profile(&token)).granted,
        "a resumption nonce must stay single-use across standby promotion"
    );
}
