//! End-to-end request tracing: ONE trace id minted at the login node is
//! visible at every layer it crossed — the PAM stack span, the RADIUS
//! client span, the realm-hop span when the login's OTP leg is forwarded
//! to another site, and the `trace=<id>` suffix on the OTP server's audit
//! rows.
//!
//! This is the acceptance scenario for the telemetry subsystem: without a
//! shared id, correlating "this denied login" with "that audit row" across
//! three daemons means matching timestamps by eye.

use securing_hpc::core::center::{Center, CenterConfig, FederationParams};
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::federation::{RealmPeer, TrustConfig};
use securing_hpc::otp::clock::Clock;
use securing_hpc::otpserver::admin::HttpRequest;
use securing_hpc::otpserver::json::Json;
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use securing_hpc::telemetry::{critical_path_summary, SpanId, TraceId, TraceTree};
use securing_hpc::workload::federation::FederationSim;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

/// A full simulated login through the assembled center: the session's
/// trace id shows up in the PAM span, the RADIUS client span, the OTP
/// validation span, and the audit log — all in the ONE shared registry.
#[test]
fn full_center_login_yields_one_trace_across_all_layers() {
    let c = Center::new(CenterConfig::default());
    c.create_user("alice", "alice@utexas.edu", "alice-pw");
    c.set_enforcement(EnforcementMode::Full);
    let device = c.pair_soft("alice");
    let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    let report = c.ssh(0, &profile);
    assert!(report.granted, "prompts: {:?}", report.prompts);

    let trace = *report
        .trace_ids
        .last()
        .expect("the daemon minted a trace id for the attempt");
    let components = c.metrics().tracer().components_for(trace);
    for layer in ["pam", "radius.client", "otp"] {
        assert!(
            components.contains(&layer.to_string()),
            "no {layer} span for trace {trace}; got {components:?}"
        );
    }
    // The OTP audit rows carry the same id, so an admin can grep the
    // audit log by the id a login node logged.
    let needle = format!("trace={trace}");
    assert!(
        c.linotp
            .audit()
            .for_user("alice")
            .iter()
            .any(|e| e.detail.contains(&needle)),
        "audit rows lack {needle}"
    );
}

/// The same property across a realm hop, the paper's "proxy chaining
/// across servers" (§3.2): `bob@psc` logs in at `tacc`, whose realm
/// router forwards the OTP leg to psc's fleet under a different shared
/// secret. The id is re-stamped on the upstream leg, so PAM, both RADIUS
/// hops, the realm hop, and the home server's audit rows all agree on one
/// id.
#[test]
fn one_trace_id_spans_pam_realm_hop_and_otp_audit() {
    let site = |home: &str, peer: &str, seed: u64| {
        let trust = TrustConfig {
            home_realm: home.to_string(),
            peers: vec![RealmPeer::new(
                peer,
                format!("{peer}-radius-secret").into_bytes(),
            )],
        };
        Center::new(CenterConfig {
            radius_secret: format!("{home}-radius-secret").into_bytes(),
            enforcement: EnforcementMode::Full,
            seed,
            federation: Some(FederationParams::new(trust, b"resume-key")),
            ..CenterConfig::default()
        })
    };
    let tacc = site("tacc", "psc", 1);
    let psc = site("psc", "tacc", 2);
    tacc.connect_peer_realm("psc", &psc);
    tacc.add_trace_source(Arc::clone(psc.metrics()));
    psc.create_user("bob", "bob@psc.edu", "bob-pw");
    let device = psc.pair_soft("bob");
    // The visited site keeps the first factor; the OTP leg federates.
    tacc.create_user("bob@psc", "bob@psc.edu", "bob-pw");
    // One timeline: pairing stepped psc's clock past its confirmation code.
    tacc.clock.advance(30);

    let profile = ClientProfile::interactive_user("bob@psc", EXTERNAL_IP, "bob-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    let report = tacc.ssh(0, &profile);
    assert!(report.granted, "prompts: {:?}", report.prompts);
    let id = *report.trace_ids.last().expect("the login has a trace id");

    let tree = tacc.traces.assemble(id).expect("the trace assembles");
    for layer in ["pam", "radius.client", "radius.realm", "otp"] {
        assert!(
            tree.spans.iter().any(|s| s.component == layer),
            "no {layer} span for the login's trace id; got {tree:?}"
        );
    }
    let needle = format!("trace={id}");
    assert!(
        psc.linotp
            .audit()
            .for_user("bob")
            .iter()
            .any(|e| e.detail.contains(&needle)),
        "home-server audit rows lack {needle}"
    );
    // The challenge open and the answer both crossed the realm hop.
    let forwards = tacc.metrics_snapshot();
    for outcome in ["challenge", "accept"] {
        assert_eq!(
            forwards.counter(&format!(
                "hpcmfa_radius_proxy_forwards_total{{outcome=\"{outcome}\",realm=\"psc\"}}"
            )),
            1,
            "{outcome}"
        );
    }
}

/// The transit login's cross-site trace tree, assembled at the visited
/// site's collector (which sees all three registries).
fn transit_tree(sim: &FederationSim) -> (TraceId, TraceTree) {
    let report = sim.run();
    let trace = report.transit_trace.expect("transit login has a trace id");
    let tree = sim.sites[2]
        .center
        .traces
        .assemble(trace)
        .expect("transit trace assembles across the three sites");
    (trace, tree)
}

/// Federation trace join: the `bob@psc`-at-`sdsc` transit login crosses
/// sdsc → tacc → psc, and its ONE trace id joins spans recorded in all
/// three sites' registries into a single well-formed tree — exactly one
/// root, every other span parented inside the tree, and every child's
/// interval nested within its parent's on the shared virtual clock.
#[test]
fn federation_transit_trace_joins_spans_from_all_three_sites() {
    let sim = FederationSim::new(0xfed);
    let (trace, tree) = transit_tree(&sim);
    for site in &sim.sites {
        assert!(
            !site.center.metrics().tracer().spans_for(trace).is_empty(),
            "site {} recorded no spans for the transit trace",
            site.name
        );
    }
    let ids: BTreeSet<SpanId> = tree.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), tree.spans.len(), "span ids are unique");
    let mut roots = 0;
    for span in &tree.spans {
        assert!(
            span.start_us <= span.end_us,
            "span {}/{} runs backwards",
            span.component,
            span.label
        );
        match span.parent {
            None => roots += 1,
            Some(p) => {
                assert!(
                    ids.contains(&p),
                    "span {}/{} has a parent outside the tree",
                    span.component,
                    span.label
                );
                let parent = tree.spans.iter().find(|s| s.id == p).unwrap();
                assert!(
                    parent.start_us <= span.start_us && span.end_us <= parent.end_us,
                    "child {}/{} [{}..{}] escapes parent {}/{} [{}..{}]",
                    span.component,
                    span.label,
                    span.start_us,
                    span.end_us,
                    parent.component,
                    parent.label,
                    parent.start_us,
                    parent.end_us
                );
            }
        }
    }
    assert_eq!(roots, 1, "exactly one root span (the sshd session)");
    // The two RADIUS forward hops (sdsc's and tacc's realm routers) are
    // both in the tree: the realm component appears at least twice.
    let forwards = tree
        .spans
        .iter()
        .filter(|s| s.component == "radius.realm" && s.label == "forward")
        .count();
    assert!(
        forwards >= 2,
        "expected two transit forward hops in {tree:?}"
    );
}

/// Critical-path accounting: every span's self-time partitions the root's
/// end-to-end virtual duration — nothing double-counted, nothing lost —
/// and the critical path starts at the root span with its full duration.
#[test]
fn transit_critical_path_self_times_partition_end_to_end_duration() {
    let sim = FederationSim::new(0xfed);
    let (_, tree) = transit_tree(&sim);
    let total: u64 = tree.self_time_by_component().iter().map(|(_, us)| us).sum();
    assert_eq!(
        total,
        tree.duration_us(),
        "self-times must partition the end-to-end duration"
    );
    let path = tree.critical_path();
    assert!(!path.is_empty());
    assert_eq!(path[0].duration_us, tree.duration_us());
    // Walking down the path, hop durations never grow.
    assert!(
        path.windows(2)
            .all(|w| w[1].duration_us <= w[0].duration_us),
        "critical path durations must be non-increasing: {path:?}"
    );
}

/// The critical-path summary — the exact block embedded in the chaos,
/// attack, and federation reports — replays byte-identically across five
/// seeded runs.
#[test]
fn transit_critical_path_summary_is_byte_identical_x5() {
    let render = || {
        let sim = FederationSim::new(0xfed);
        let (_, tree) = transit_tree(&sim);
        critical_path_summary(&tree)
    };
    let first = render();
    assert!(first.starts_with("critical path: trace "));
    for _ in 0..4 {
        assert_eq!(first, render());
    }
}

/// Digest-sign a GET against the admin API.
fn signed_get(admin: &securing_hpc::otpserver::admin::AdminApi, path: &str, now: u64) -> Json {
    let chal = admin.issue_challenge();
    let auth = answer_challenge(
        &chal,
        "portal-svc",
        "portal-svc-password",
        "GET",
        path,
        "cn",
        1,
    );
    let resp = admin.handle(
        &HttpRequest::new("GET", path, Json::Null).with_auth(auth),
        now,
    );
    assert!(resp.is_ok(), "GET {path} failed: {}", resp.status);
    resp.value().unwrap().clone()
}

/// `GET /system/metrics` renders at least one OpenMetrics exemplar on the
/// auth-path latency histogram: the worst traced observation per bucket,
/// so a latency breach links straight to a concrete trace tree.
#[test]
fn metrics_scrape_renders_exemplar_on_auth_path_histogram() {
    let c = Center::new(CenterConfig::default());
    c.create_user("alice", "alice@utexas.edu", "alice-pw");
    c.set_enforcement(EnforcementMode::Full);
    let device = c.pair_soft("alice");
    let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    assert!(c.ssh(0, &profile).granted);

    let text = signed_get(&c.admin, "/system/metrics", c.clock.now())
        .as_str()
        .expect("metrics route returns the exposition text")
        .to_string();
    assert!(
        text.lines().any(|l| {
            l.starts_with("hpcmfa_radius_request_duration_us_bucket")
                && l.contains("# {trace_id=\"")
        }),
        "no exemplar on the auth-path histogram:\n{text}"
    );
}

/// `GET /system/traces` at the visited site serves the assembled
/// cross-site trees: the transit trace appears with its critical path
/// and per-component self-time breakdown.
#[test]
fn system_traces_route_serves_cross_site_critical_paths() {
    let sim = FederationSim::new(0xfed);
    let report = sim.run();
    let trace = report.transit_trace.expect("transit trace id");
    let sdsc = &sim.sites[2].center;
    let body = signed_get(&sdsc.admin, "/system/traces", sdsc.clock.now());
    assert!(body.get("traces").unwrap().as_u64().unwrap() >= 1);
    let slowest = body.get("slowest").unwrap().as_arr().unwrap();
    assert!(!slowest.is_empty());
    let hex = trace.to_string();
    let entry = slowest
        .iter()
        .chain(body.get("recent").unwrap().as_arr().unwrap())
        .find(|t| t.get("trace").and_then(Json::as_str) == Some(hex.as_str()))
        .unwrap_or_else(|| panic!("transit trace {hex} not served by /system/traces"));
    assert_eq!(
        entry.get("root").and_then(Json::as_str),
        Some("ssh/session"),
        "the transit tree is rooted at the visited site's sshd hop"
    );
    let path = entry.get("critical_path").unwrap().as_arr().unwrap();
    assert!(!path.is_empty());
    let end_to_end = entry.get("duration_us").unwrap().as_u64().unwrap();
    assert_eq!(
        path[0].get("duration_us").and_then(Json::as_u64),
        Some(end_to_end)
    );
}
