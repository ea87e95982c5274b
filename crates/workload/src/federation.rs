//! Seeded multi-center federation scenario: three sites, pairwise trust,
//! roaming logins, and stateless session resumption.
//!
//! [`FederationSim`] stands up three federated centers — `tacc`, `psc`,
//! `sdsc` — each with its own RADIUS fleet, OTP back end, resumption key,
//! and one home user, then wires every ordered pair of realm routers with
//! [`Center::connect_peer_realm`]. [`FederationSim::run`] replays a
//! scripted cross-site login sequence on the shared virtual timeline:
//!
//! 1. local warmup logins at every site,
//! 2. a roaming `bob@psc` login at `tacc`, proxied to the home realm,
//!    which mints an address-bound resumption token at `psc`,
//! 3. a repeat login presenting that token — validated in O(1) with
//!    *zero* OTP window scans (pinned by the `hpcmfa_otp_window_scans_total`
//!    delta),
//! 4. a thief replaying the already-burned token from a foreign /16
//!    (denied, `resume_replay` security event),
//! 5. the same replay from *inside* the bound /16 (denied by the
//!    single-use nonce ledger),
//! 6. a login naming a realm outside the trust ACL (rejected),
//! 7. a *transit* login: `bob@psc` roams at `sdsc`, whose realm table
//!    routes `psc` **via tacc** (RADIUS secrets are per-hop, so sdsc's
//!    peer entry for `psc` carries tacc's secret). The request crosses
//!    three sites — sdsc → tacc → psc — and its single [`TraceId`]
//!    joins spans recorded in all three registries.
//!
//! Every site's `TraceCollector` is wired with both peers'
//! registries ([`Center::add_trace_source`]), so any site's
//! `GET /system/traces` assembles the full cross-site tree. The run
//! assembles the transit login's tree and appends its deterministic
//! critical-path summary to the report.
//!
//! Everything is seeded and virtual-time, so the [`FederationReport`]'s
//! `Display` output — per-step outcomes, proxy counters, resume
//! validation outcomes, critical path, and the sites' security-event
//! feeds — is byte-identical across runs. The acceptance suite replays
//! it five times and compares the strings.

use hpcmfa_core::center::{Center, CenterConfig, FederationParams};
use hpcmfa_federation::{RealmPeer, TrustConfig};
use hpcmfa_otp::device::SoftToken;
use hpcmfa_pam::modules::token::EnforcementMode;
use hpcmfa_ssh::client::{ClientProfile, TokenSource};
use hpcmfa_ssh::daemon::SessionReport;
use hpcmfa_telemetry::{critical_path_summary, TraceId};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The three federated sites, in fixed order.
pub(crate) const SITES: [&str; 3] = ["tacc", "psc", "sdsc"];

/// One site in the federation: a full center plus its home user's
/// paired soft token.
pub struct FedSite {
    /// Realm name (`tacc`, `psc`, `sdsc`).
    pub name: &'static str,
    /// The site's center.
    pub center: Arc<Center>,
    /// The home user's account name (`alice`, `bob`, `carol`).
    pub home_user: &'static str,
    /// The home user's soft token, paired at this site.
    pub token: SoftToken,
}

impl FedSite {
    /// Current value of a counter in this site's registry (0 if never
    /// touched).
    pub(crate) fn counter(&self, key: &str) -> u64 {
        self.center.metrics_snapshot().counter(key)
    }
}

/// What the scripted run produced. `Display` is the byte-identical
/// artifact: step lines, counters, and event feeds, nothing wall-clock.
#[derive(Debug, Clone, Default)]
pub struct FederationReport {
    /// One line per scripted step: site, principal, source, outcome.
    pub steps: Vec<String>,
    /// Roaming logins granted (full-MFA logins proxied to a home realm).
    pub roamed_granted: usize,
    /// Transit logins granted (proxied through an intermediate realm).
    pub transit_granted: usize,
    /// The transit login's trace id — one trace joining spans recorded
    /// at all three sites.
    pub transit_trace: Option<TraceId>,
    /// Deterministic critical-path summary of the transit login's
    /// cross-site trace tree, one line per entry.
    pub critical_path: Vec<String>,
    /// Resumption logins granted.
    pub resumed_granted: usize,
    /// Replay attempts denied (foreign /16 or burned nonce).
    pub replays_denied: usize,
    /// OTP window scans the home realm spent on resumption logins
    /// (must be 0: resumption is one HMAC verify, never a window walk).
    pub resume_window_scans: u64,
    /// Selected deterministic counters, pre-formatted `key = value`.
    pub counters: Vec<String>,
    /// Security-event feeds, one `site: event` line each.
    pub security_events: Vec<String>,
}

impl std::fmt::Display for FederationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "federation: {} roamed, {} transit, {} resumed ({} window scans), {} replays denied",
            self.roamed_granted,
            self.transit_granted,
            self.resumed_granted,
            self.resume_window_scans,
            self.replays_denied,
        )?;
        for line in &self.steps {
            writeln!(f, "  step: {line}")?;
        }
        for line in &self.counters {
            writeln!(f, "  counter: {line}")?;
        }
        for line in &self.critical_path {
            writeln!(f, "  path: {line}")?;
        }
        for line in &self.security_events {
            writeln!(f, "  event: {line}")?;
        }
        Ok(())
    }
}

/// Three federated centers on one virtual timeline.
pub struct FederationSim {
    /// The sites, index-aligned with `SITES`.
    pub sites: Vec<FedSite>,
}

/// The home /16 each user logs in from (distinct per site, all US space
/// in the attack-fixture sense, though this sim runs without a risk
/// engine).
fn home_ip(site_idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(70, 10 + 10 * site_idx as u8, 50, 3)
}

impl FederationSim {
    /// Stand up the three sites and wire every ordered pair. Each site's
    /// inbound proxy secret is its own `radius_secret`, so a peer entry
    /// for realm `r` carries `r`'s secret — pairwise explicit trust, no
    /// transitive hops.
    pub fn new(seed: u64) -> Self {
        let mut sites = Vec::new();
        let home_users = ["alice", "bob", "carol"];
        for (i, name) in SITES.iter().enumerate() {
            let peers = SITES
                .iter()
                .filter(|p| *p != name)
                .map(|p| {
                    // RADIUS secrets are per-hop, not per-realm: sdsc
                    // reaches psc *via tacc*, so its peer entry for
                    // realm `psc` carries tacc's fleet secret.
                    let hop = if *name == "sdsc" && *p == "psc" {
                        "tacc"
                    } else {
                        p
                    };
                    RealmPeer::new(p, format!("{hop}-radius-secret").into_bytes())
                })
                .collect();
            let trust = TrustConfig {
                home_realm: name.to_string(),
                peers,
            };
            let center = Center::new(CenterConfig {
                radius_secret: format!("{name}-radius-secret").into_bytes(),
                login_nodes: vec![format!("{name}-login1")],
                enforcement: EnforcementMode::Full,
                seed: seed ^ (i as u64) << 16,
                federation: Some(FederationParams::new(
                    trust,
                    format!("{name}-resume-key").as_bytes(),
                    20,
                )),
                ..CenterConfig::default()
            });
            let user = home_users[i];
            center.create_user(user, &format!("{user}@{name}.edu"), &format!("{user}-pw"));
            let token = center.pair_soft(user);
            sites.push(FedSite {
                name,
                center,
                home_user: user,
                token,
            });
        }
        // Guest password entries: a roaming `user@home` principal still
        // needs a first-factor record at the visited site (the OTP leg is
        // what federates). Same password as at home — the user only has
        // one.
        for site in &sites {
            for peer in &sites {
                if peer.name != site.name {
                    let principal = format!("{}@{}", peer.home_user, peer.name);
                    site.center.create_user(
                        &principal,
                        &format!("{}@{}.edu", peer.home_user, peer.name),
                        &format!("{}-pw", peer.home_user),
                    );
                }
            }
        }
        // Pairwise upstream pools, both directions — except sdsc's
        // route for `psc`, which points at tacc: tacc's own router sees
        // the still-foreign realm and forwards a second hop to psc, so
        // a `bob@psc` login at sdsc transits all three sites.
        for a in &sites {
            for b in &sites {
                if a.name != b.name {
                    let via = if a.name == "sdsc" && b.name == "psc" {
                        &sites[0]
                    } else {
                        b
                    };
                    a.center.connect_peer_realm(b.name, &via.center);
                }
            }
        }
        // Every site's trace collector sees both peers' registries:
        // a federated login's spans — recorded wherever each hop ran —
        // assemble into one tree at any site's `GET /system/traces`.
        for a in &sites {
            for b in &sites {
                if a.name != b.name {
                    a.center.add_trace_source(Arc::clone(b.center.metrics()));
                }
            }
        }
        FederationSim { sites }
    }

    /// Advance every site's clock together: the federation shares one
    /// virtual timeline (sites' TOTP windows must agree for proxied
    /// validations to land).
    pub(crate) fn advance(&self, secs: u64) {
        for site in &self.sites {
            site.center.clock.advance(secs);
        }
    }

    /// One SSH attempt. The first-factor password is the sim-wide
    /// `{bare user}-pw` convention (guest entries share the home
    /// password — the user only has one).
    fn dial(
        &self,
        report: &mut FederationReport,
        site_idx: usize,
        principal: &str,
        ip: Ipv4Addr,
        token: TokenSource,
        what: &str,
    ) -> SessionReport {
        let site = &self.sites[site_idx];
        let bare = principal.split('@').next().unwrap_or(principal);
        let password = format!("{bare}-pw");
        let profile = ClientProfile::interactive_user(principal, ip, &password).with_token(token);
        let session = site.center.ssh(0, &profile);
        report.steps.push(format!(
            "{what}: {principal} at {} from {ip} -> {}{}",
            site.name,
            if session.granted { "granted" } else { "denied" },
            if session.issued_resume_token.is_some() {
                " (resume token issued)"
            } else {
                ""
            },
        ));
        session
    }

    /// Replay the scripted sequence and report. Takes `&self` so callers
    /// can keep inspecting the sites (trace collectors, registries)
    /// after the run.
    pub fn run(&self) -> FederationReport {
        let mut report = FederationReport::default();
        let tacc = 0usize;
        let psc = 1usize;

        // 1. Local warmup: every home user logs in at their own site.
        for (i, site) in self.sites.iter().enumerate() {
            self.advance(30);
            let device = site.token.clone();
            let granted = self
                .dial(
                    &mut report,
                    i,
                    site.home_user,
                    home_ip(i),
                    TokenSource::Device(Arc::new(move |now| Some(device.displayed_code(now)))),
                    "local",
                )
                .granted;
            assert!(granted, "warmup local login at {} failed", site.name);
        }

        // 2. Roaming: bob (homed at psc) logs into tacc as bob@psc. The
        // visited site proxies the OTP leg to psc, which runs full MFA
        // and mints a resumption token bound to bob's /16.
        self.advance(30);
        let bob_ip = home_ip(psc);
        let device = self.sites[psc].token.clone();
        let session = self.dial(
            &mut report,
            tacc,
            "bob@psc",
            bob_ip,
            TokenSource::Device(Arc::new(move |now| Some(device.displayed_code(now)))),
            "roam",
        );
        if session.granted {
            report.roamed_granted += 1;
        }
        let resume_token = session
            .issued_resume_token
            .expect("full-MFA roaming login mints a resumption token");

        // 3. Resumption: the repeat login presents the token in place of
        // a code. One HMAC verify at psc; the TOTP window is never
        // scanned (pinned by the counter delta).
        self.advance(30);
        let scans_key = "hpcmfa_otp_window_scans_total";
        let scans_before = self.sites[psc].counter(scans_key);
        let granted = self
            .dial(
                &mut report,
                tacc,
                "bob@psc",
                bob_ip,
                TokenSource::Fixed(resume_token.clone()),
                "resume",
            )
            .granted;
        if granted {
            report.resumed_granted += 1;
        }
        report.resume_window_scans = self.sites[psc].counter(scans_key) - scans_before;

        // 4. Theft: the token was exfiltrated; a thief replays it from a
        // network it was never issued to. The MAC verifies — which is
        // exactly why this is flagged as a typed `resume_replay` event —
        // but the /16 binding refuses entry.
        self.advance(30);
        let granted = self
            .dial(
                &mut report,
                tacc,
                "bob@psc",
                Ipv4Addr::new(198, 51, 7, 7),
                TokenSource::Fixed(resume_token.clone()),
                "theft",
            )
            .granted;
        if !granted {
            report.replays_denied += 1;
        }

        // 5. Replay from inside the bound /16: the address binding holds,
        // but the nonce was burned in step 3 — the WAL-backed single-use
        // ledger refuses the second spend.
        self.advance(30);
        let granted = self
            .dial(
                &mut report,
                tacc,
                "bob@psc",
                Ipv4Addr::new(bob_ip.octets()[0], bob_ip.octets()[1], 200, 9),
                TokenSource::Fixed(resume_token),
                "replay",
            )
            .granted;
        if !granted {
            report.replays_denied += 1;
        }

        // 6. A realm outside the trust ACL is rejected at the router.
        self.advance(30);
        let site = &self.sites[tacc];
        site.center
            .create_user("mallory@ncsa", "mallory@ncsa.edu", "mallory-pw");
        let granted = self
            .dial(
                &mut report,
                tacc,
                "mallory@ncsa",
                Ipv4Addr::new(70, 77, 1, 1),
                TokenSource::Fixed("000000".into()),
                "acl",
            )
            .granted;
        assert!(!granted, "realm outside the trust ACL must be rejected");

        // 7. Transit: bob roams at sdsc, whose realm table routes `psc`
        // via tacc. The OTP leg crosses sdsc → tacc → psc; every hop
        // records spans into its own registry under bob's one trace id,
        // and any site's collector reassembles the full tree.
        self.advance(30);
        let sdsc = 2usize;
        let device = self.sites[psc].token.clone();
        let transit = self.dial(
            &mut report,
            sdsc,
            "bob@psc",
            bob_ip,
            TokenSource::Device(Arc::new(move |now| Some(device.displayed_code(now)))),
            "transit",
        );
        assert!(transit.granted, "transit login via tacc must succeed");
        report.transit_granted += 1;
        report.transit_trace = transit.trace_ids.last().copied();

        // Assemble the transit login's cross-site tree at the visited
        // site and pin its critical path in the report.
        let trace = report.transit_trace.expect("transit login has a trace");
        let tree = self.sites[sdsc]
            .center
            .traces
            .assemble(trace)
            .expect("transit trace assembles across the three sites");
        report.critical_path = critical_path_summary(&tree)
            .lines()
            .map(str::to_string)
            .collect();

        // Deterministic counters worth pinning.
        for key in [
            "hpcmfa_radius_proxy_forwards_total{outcome=\"accept\",realm=\"psc\"}",
            "hpcmfa_radius_proxy_forwards_total{outcome=\"reject\",realm=\"psc\"}",
            "hpcmfa_radius_proxy_forwards_total{outcome=\"denied_acl\",realm=\"ncsa\"}",
        ] {
            report
                .counters
                .push(format!("tacc {key} = {}", self.sites[tacc].counter(key)));
        }
        let transit_key = "hpcmfa_radius_proxy_forwards_total{outcome=\"accept\",realm=\"psc\"}";
        report.counters.push(format!(
            "sdsc {transit_key} = {}",
            self.sites[sdsc].counter(transit_key)
        ));
        for key in [
            "hpcmfa_otp_resume_validations_total{outcome=\"ok\"}",
            "hpcmfa_otp_resume_validations_total{outcome=\"wrong_address\"}",
            "hpcmfa_otp_resume_validations_total{outcome=\"replayed\"}",
            "hpcmfa_otp_window_scans_total",
        ] {
            report
                .counters
                .push(format!("psc {key} = {}", self.sites[psc].counter(key)));
        }
        for site in &self.sites {
            for event in site.center.metrics().security_events().all() {
                report
                    .security_events
                    .push(format!("{}: {event}", site.name));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_run_hits_every_outcome() {
        let report = FederationSim::new(0xfed).run();
        assert_eq!(report.roamed_granted, 1, "{report}");
        assert_eq!(report.transit_granted, 1, "{report}");
        assert_eq!(report.resumed_granted, 1, "{report}");
        assert_eq!(report.replays_denied, 2, "{report}");
        assert_eq!(report.resume_window_scans, 0, "{report}");
        assert!(
            report
                .security_events
                .iter()
                .any(|e| e.starts_with("psc:") && e.contains("resume_replay")),
            "{report}"
        );
        assert!(
            report
                .critical_path
                .iter()
                .any(|l| l.starts_with("critical path:")),
            "{report}"
        );
    }

    #[test]
    fn transit_trace_joins_spans_from_all_three_sites() {
        let sim = FederationSim::new(0xfed);
        let report = sim.run();
        let trace = report.transit_trace.expect("transit trace id");
        // Each site's own tracer holds the hop spans it recorded; the
        // transit login must have left spans at all three.
        for site in &sim.sites {
            let spans = site.center.metrics().tracer().spans_for(trace);
            assert!(
                !spans.is_empty(),
                "site {} recorded no spans for the transit trace\n{report}",
                site.name
            );
        }
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let a = FederationSim::new(0xfed).run().to_string();
        let b = FederationSim::new(0xfed).run().to_string();
        assert_eq!(a, b);
    }
}
