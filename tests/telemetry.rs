//! Telemetry acceptance: the `/system/metrics` scrape is valid Prometheus
//! text exposition, the histogram quantiles are honest against a known
//! distribution, and the backward-compatible `/system/durability` JSON is
//! fed by the same counters as the Prometheus families (one source of
//! truth, two serializations).

use securing_hpc::core::center::{Center, CenterConfig, OtpStorage};
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::otp::clock::Clock;
use securing_hpc::otpserver::admin::{AdminApi, HttpRequest};
use securing_hpc::otpserver::json::Json;
use securing_hpc::otpserver::MemoryBackend;
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use securing_hpc::telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

/// Scrape `/system/metrics` with the portal's digest credentials.
fn scrape(admin: &AdminApi, now: u64) -> String {
    let chal = admin.issue_challenge();
    let auth = answer_challenge(
        &chal,
        "portal-svc",
        "portal-svc-password",
        "GET",
        "/system/metrics",
        "cn",
        1,
    );
    let resp = admin.handle(
        &HttpRequest::new("GET", "/system/metrics", Json::Null).with_auth(auth),
        now,
    );
    assert!(resp.is_ok(), "scrape failed: {}", resp.status);
    resp.value().unwrap().as_str().unwrap().to_string()
}

/// A center that has served one successful MFA login.
fn center_after_one_login(config: CenterConfig) -> Arc<Center> {
    let c = Center::new(config);
    c.create_user("alice", "alice@utexas.edu", "alice-pw");
    c.set_enforcement(EnforcementMode::Full);
    let device = c.pair_soft("alice");
    let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    assert!(c.ssh(0, &profile).granted);
    c
}

/// Structural validation of the exposition text: every sample line parses,
/// `# TYPE` precedes and matches its family, histogram buckets are
/// cumulative with `+Inf` equal to `_count`.
#[test]
fn metrics_scrape_is_valid_prometheus_text() {
    let c = center_after_one_login(CenterConfig::default());
    let text = scrape(&c.admin, c.clock.now());

    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap(), it.next().unwrap());
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} in {line:?}"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate # TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        // Bucket lines may carry an OpenMetrics exemplar suffix —
        // `… # {trace_id="…"} <value>` — which is not part of the
        // sample; strip it before parsing.
        let line = line.split(" # ").next().unwrap();
        // `name{labels} value` or `name value`; labels may contain spaces
        // inside quotes, so split at the last space.
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty() && name.starts_with("hpcmfa_"),
            "series outside the hpcmfa_ namespace: {line:?}"
        );
        samples.push((series.to_string(), value.parse().unwrap()));
    }
    // Every sample belongs to a declared family (histogram samples hang
    // off `<family>_bucket`/`_sum`/`_count`).
    for (series, _) in &samples {
        let name = series.split('{').next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(types.contains_key(family), "undeclared family for {series}");
    }
    // The families the acceptance criteria name are present.
    assert_eq!(
        types.get("hpcmfa_otp_validations_total").unwrap(),
        "counter"
    );
    assert_eq!(
        types.get("hpcmfa_otp_validate_wall_us").unwrap(),
        "histogram"
    );
    // Histogram buckets are cumulative and close at +Inf == _count.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(s, _)| s.starts_with(&format!("{family}_bucket")))
            .map(|&(_, v)| v)
            .collect();
        let count: f64 = samples
            .iter()
            .filter(|(s, _)| s.split('{').next().unwrap() == format!("{family}_count"))
            .map(|&(_, v)| v)
            .sum();
        if buckets.is_empty() {
            continue;
        }
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{family} buckets not cumulative: {buckets:?}"
        );
        assert_eq!(
            *buckets.last().unwrap(),
            count,
            "{family} +Inf bucket disagrees with _count"
        );
        assert!(
            samples
                .iter()
                .any(|(s, _)| s.starts_with(&format!("{family}_bucket")) && s.contains("+Inf")),
            "{family} lacks a +Inf bucket"
        );
    }
}

/// The histogram's quantiles are verified against a known distribution:
/// the uniform integers 1..=N, whose true q-quantile is q·N. The
/// log-linear buckets guarantee ≤ 1/16 (6.25%) relative overshoot.
#[test]
fn quantiles_match_a_known_distribution() {
    const N: u64 = 10_000;
    let registry = MetricsRegistry::new();
    let hist = registry.histogram("hpcmfa_test_known_us", &[]);
    for v in 1..=N {
        hist.record(v);
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count(), N);
    assert_eq!(snap.max(), N);
    for (q, truth) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
        let got = snap.quantile(q) as f64;
        assert!(
            got >= truth && got <= truth * (1.0 + 1.0 / 16.0),
            "q{q}: got {got}, true {truth}"
        );
    }
    // And the registry's rendering carries the same count.
    let text = registry.render_prometheus();
    assert!(text.contains(&format!("hpcmfa_test_known_us_count {N}")));
}

/// `/system/durability` (the pre-telemetry JSON route) and the Prometheus
/// families report identical numbers: the JSON is now a view over the
/// same registry counters.
#[test]
fn durability_json_and_prometheus_report_the_same_counters() {
    let backend = MemoryBackend::healthy();
    let c = center_after_one_login(CenterConfig {
        otp_storage: OtpStorage::Durable {
            backend,
            snapshot_every: 256,
        },
        ..CenterConfig::default()
    });
    c.crash_otp_server().expect("recovers");

    let chal = c.admin.issue_challenge();
    let auth = answer_challenge(
        &chal,
        "portal-svc",
        "portal-svc-password",
        "GET",
        "/system/durability",
        "cn",
        1,
    );
    let resp = c.admin.handle(
        &HttpRequest::new("GET", "/system/durability", Json::Null).with_auth(auth),
        c.clock.now(),
    );
    assert!(resp.is_ok());
    let json = resp.value().unwrap().clone();
    let snap = c.metrics_snapshot();
    for (key, family) in [
        ("appends", "hpcmfa_otp_wal_appends_total"),
        ("commits", "hpcmfa_otp_wal_commits_total"),
        ("fsyncs", "hpcmfa_otp_wal_fsyncs_total"),
        ("snapshots", "hpcmfa_otp_snapshot_writes_total"),
        ("recoveries", "hpcmfa_otp_recoveries_total"),
        ("records_replayed", "hpcmfa_otp_wal_records_replayed_total"),
        ("truncated_bytes", "hpcmfa_otp_wal_truncated_bytes_total"),
    ] {
        assert_eq!(
            json.get(key).unwrap().as_u64().unwrap(),
            snap.counter_family(family),
            "JSON {key} vs Prometheus {family}"
        );
    }
    assert!(json.get("appends").unwrap().as_u64().unwrap() > 0);
    // Startup recovery + the explicit crash/recover cycle.
    assert_eq!(json.get("recoveries").unwrap().as_u64().unwrap(), 2);
}
