//! Alerting acceptance: the deterministic rule engine notices injected
//! faults and nothing else.
//!
//! Four claims are on trial:
//!
//! 1. Detection — a full RADIUS outage drives `radius_error_rate` and the
//!    multi-window `auth_slo_burn` through pending → firing *within* the
//!    injection window, and both resolve after recovery.
//! 2. Determinism — the same seed replays to a byte-identical alert
//!    timeline and security-event feed, under outage, garble, and
//!    latency-spike scripts alike.
//! 3. Specificity — a fault-free control run fires zero alerts and emits
//!    zero security events.
//! 4. Joinability — every security event carries a trace id that joins to
//!    at least one span or audit row from the same run.

use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::otp::clock::Clock;
use securing_hpc::otpserver::admin::{AdminApi, HttpRequest};
use securing_hpc::otpserver::json::Json;
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use securing_hpc::workload::chaos::{ChaosParams, ChaosRunner, FaultAction, FaultScript};
use std::net::Ipv4Addr;
use std::sync::Arc;

const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

/// A center with one soft-token user, plus a login profile for them.
fn center_with_alice() -> (Arc<Center>, ClientProfile) {
    let c = Center::new(CenterConfig::default());
    c.create_user("alice", "alice@utexas.edu", "alice-pw");
    c.set_enforcement(EnforcementMode::Full);
    let device = c.pair_soft("alice");
    let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    (c, profile)
}

/// Drive `n` logins 30 virtual seconds apart (a fresh TOTP step each, so
/// healthy logins never read as replays).
fn drive_logins(c: &Center, profile: &ClientProfile, n: usize) {
    for _ in 0..n {
        c.clock.advance(30);
        c.ssh(0, profile);
    }
}

/// The virtual timestamp leading a timeline line ("{at} {rule} {a}->{b}").
fn at_of(line: &str) -> u64 {
    line.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn outage_drives_rules_through_firing_and_back() {
    let (c, profile) = center_with_alice();

    // Healthy baseline so the SLO windows have good traffic to burn.
    drive_logins(&c, &profile, 12);
    assert!(
        c.alerts.timeline().is_empty(),
        "baseline already alerted: {:?}",
        c.alerts.timeline_lines()
    );

    // Full outage: every RADIUS server down. Failover has nowhere to go,
    // so each login records an `error` outcome (fail-secure denial).
    let t_inject = c.clock.now();
    for f in &c.radius_faults {
        f.set_down(true);
    }
    drive_logins(&c, &profile, 12); // 360 virtual seconds of outage
    let t_recover = c.clock.now();
    for f in &c.radius_faults {
        f.set_down(false);
    }
    // Recovery long enough for every window to drain and cooldowns to
    // elapse: 24 logins = 720 virtual seconds.
    drive_logins(&c, &profile, 24);

    let lines = c.alerts.timeline_lines();
    let fired_in_window = |rule: &str| {
        lines.iter().any(|l| {
            l.contains(rule)
                && l.ends_with("->firing")
                && (t_inject..=t_recover).contains(&at_of(l))
        })
    };
    assert!(
        fired_in_window("radius_error_rate"),
        "radius_error_rate never fired inside [{t_inject}, {t_recover}]:\n{lines:#?}"
    );
    assert!(
        fired_in_window("auth_slo_burn"),
        "auth_slo_burn never fired inside [{t_inject}, {t_recover}]:\n{lines:#?}"
    );
    // Both escalated through pending first — no teleporting states.
    for rule in ["radius_error_rate", "auth_slo_burn"] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(rule) && l.contains("inactive->pending")),
            "{rule} skipped pending:\n{lines:#?}"
        );
    }
    // And both resolved after recovery, at a post-recovery timestamp.
    for rule in ["radius_error_rate", "auth_slo_burn"] {
        assert!(
            lines.iter().any(|l| l.contains(rule)
                && l.contains("firing->resolved")
                && at_of(l) >= t_recover),
            "{rule} never resolved after recovery:\n{lines:#?}"
        );
    }
    assert!(
        !c.alerts
            .active()
            .iter()
            .any(|s| s.rule == "radius_error_rate" || s.rule == "auth_slo_burn"),
        "outage rules still active long after recovery: {:?}",
        c.alerts.active()
    );
}

#[test]
fn identical_seeds_replay_identical_alert_timelines() {
    let full_outage = FaultScript::new()
        .at(20, 0, FaultAction::ServerDown)
        .at(20, 1, FaultAction::ServerDown)
        .at(20, 2, FaultAction::ServerDown)
        .at(45, 0, FaultAction::ServerUp)
        .at(45, 1, FaultAction::ServerUp)
        .at(45, 2, FaultAction::ServerUp);
    let run = || {
        ChaosRunner::new(ChaosParams {
            logins: 120,
            users: 4,
            seed: 0xa1e47,
            ..ChaosParams::default()
        })
        .run(&full_outage)
    };
    let a = run();
    let b = run();
    // The Display form includes the alert timeline and event feed, so one
    // comparison covers counters, alerts, and events at once.
    assert_eq!(format!("{a}"), format!("{b}"), "replay diverged");
    assert_eq!(a.alerts, b.alerts);
    assert_eq!(a.security_events, b.security_events);
    assert!(
        a.alerts.iter().any(|l| l.ends_with("->firing")),
        "full outage fired nothing:\n{:#?}",
        a.alerts
    );
    assert!(
        !a.security_events.is_empty(),
        "full outage emitted no security events"
    );
}

#[test]
fn garble_storm_replays_deterministically() {
    let script = FaultScript::new()
        .at(10, 1, FaultAction::GarbleStorm { one_in: 4 })
        .at(60, 1, FaultAction::GarbleStorm { one_in: 0 });
    let run = || {
        ChaosRunner::new(ChaosParams {
            logins: 100,
            users: 4,
            seed: 0x6a4b1e,
            ..ChaosParams::default()
        })
        .run(&script)
    };
    let a = run();
    let b = run();
    assert_eq!(format!("{a}"), format!("{b}"), "garble replay diverged");
    // Corrupted replies on one server are absorbed by redials/failover:
    // the stream survives even if the alert engine takes note.
    assert_eq!(a.availability(), 1.0, "garble broke availability:\n{a}");
}

#[test]
fn latency_spike_fires_the_p99_rule() {
    // +150 ms one-way on every server: requests still succeed, but the
    // vclock p99 blows through the 100 ms objective.
    let mut script = FaultScript::new();
    for s in 0..3 {
        script = script
            .at(10, s, FaultAction::LatencySpike { extra_us: 150_000 })
            .at(50, s, FaultAction::LatencySpike { extra_us: 0 });
    }
    let run = || {
        ChaosRunner::new(ChaosParams {
            logins: 110,
            users: 4,
            seed: 0x51a7e,
            ..ChaosParams::default()
        })
        .run(&script)
    };
    let a = run();
    let b = run();
    assert_eq!(format!("{a}"), format!("{b}"), "latency replay diverged");
    assert_eq!(a.availability(), 1.0, "slow is not down:\n{a}");
    assert!(
        a.alerts
            .iter()
            .any(|l| l.contains("auth_latency_p99") && l.ends_with("->firing")),
        "p99 rule never fired under a 150 ms spike:\n{:#?}",
        a.alerts
    );
}

#[test]
fn control_run_fires_zero_alerts_and_zero_events() {
    let report = ChaosRunner::new(ChaosParams {
        logins: 120,
        users: 4,
        seed: 0xc0497801,
        ..ChaosParams::default()
    })
    .run(&FaultScript::new());
    assert_eq!(report.availability(), 1.0);
    assert!(
        report.alerts.is_empty(),
        "fault-free run produced alert transitions:\n{:#?}",
        report.alerts
    );
    assert!(
        report.security_events.is_empty(),
        "fault-free run emitted security events:\n{:#?}",
        report.security_events
    );
}

#[test]
fn every_security_event_joins_a_span_or_audit_row() {
    let (c, profile) = center_with_alice();
    drive_logins(&c, &profile, 6);

    // Outage: breaker-flap events from the client walk, then a PAM
    // failure burst as the denials stack up.
    for f in &c.radius_faults {
        f.set_down(true);
    }
    drive_logins(&c, &profile, 6);
    for f in &c.radius_faults {
        f.set_down(false);
    }

    // Replay: log in twice with the same frozen code; the second attempt
    // resubmits a consumed OTP.
    let (code_dev, _) = {
        let d = c.pair_soft("alice");
        (d.clone(), d)
    };
    c.clock.advance(30);
    let frozen = code_dev.displayed_code(c.clock.now());
    let replay_profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
        .with_token(TokenSource::Fixed(frozen));
    assert!(c.ssh(0, &replay_profile).granted);
    assert!(!c.ssh(0, &replay_profile).granted, "replay must be denied");

    let events = c.metrics().security_events().all();
    assert!(events.len() >= 2, "scenario emitted too few events");
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
    assert!(kinds.contains(&"breaker_flap"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"replay_attempt"), "kinds: {kinds:?}");

    let audit = c.linotp.audit().export_all();
    for event in &events {
        let trace = event
            .trace
            .unwrap_or_else(|| panic!("event without a trace id: {event}"));
        let in_tracer = !c.metrics().tracer().spans_for(trace).is_empty();
        let needle = format!("trace={trace}");
        let in_audit = audit.iter().any(|row| row.detail.contains(&needle));
        assert!(
            in_tracer || in_audit,
            "event {event} joins neither a span nor an audit row"
        );
    }
}

/// Satellite regression: `/system/alerts` and `/system/metrics` must agree
/// on the lockout/SMS-pending gauges because both refresh them from the
/// same one-pass store census before reading the registry.
#[test]
fn alerts_and_metrics_routes_agree_on_gauges() {
    let c = Center::new(CenterConfig::default());
    c.create_user("alice", "alice@utexas.edu", "alice-pw");
    c.create_user("bob", "bob@utexas.edu", "bob-pw");
    c.set_enforcement(EnforcementMode::Full);
    c.pair_soft("alice");
    c.pair_sms("bob", "5125550142");

    // Lock alice out (20 wrong codes) and leave bob one SMS in flight.
    let now = c.clock.now();
    for _ in 0..20 {
        c.linotp.validate("alice", "000000", now);
    }
    c.linotp.trigger_sms("bob", now);

    let signed = |api: &AdminApi, path: &str| {
        let chal = api.issue_challenge();
        let auth = answer_challenge(
            &chal,
            "portal-svc",
            "portal-svc-password",
            "GET",
            path,
            "cn",
            1,
        );
        api.handle(
            &HttpRequest::new("GET", path, Json::Null).with_auth(auth),
            c.clock.now(),
        )
    };

    let alerts = signed(&c.admin, "/system/alerts");
    assert!(alerts.is_ok(), "alerts route failed: {}", alerts.status);
    let gauges = alerts.value().unwrap().get("gauges").unwrap().clone();
    let locked = gauges.get("locked_users").unwrap().as_f64().unwrap();
    let sms_pending = gauges.get("sms_pending").unwrap().as_f64().unwrap();
    assert_eq!(locked, 1.0, "alice is locked out");
    assert_eq!(sms_pending, 1.0, "bob's code is in flight");

    let metrics = signed(&c.admin, "/system/metrics");
    assert!(metrics.is_ok());
    let text = metrics.value().unwrap().as_str().unwrap().to_string();
    let scraped = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .rsplit_once(' ')
            .unwrap()
            .1
            .parse()
            .unwrap()
    };
    assert_eq!(scraped("hpcmfa_otp_locked_users"), locked);
    assert_eq!(scraped("hpcmfa_otp_sms_pending"), sms_pending);
}
