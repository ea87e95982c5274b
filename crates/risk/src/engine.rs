//! Dynamic risk assessment (§6 growth feature).
//!
//! A per-account behavioural engine scoring every login attempt from its
//! history: first-seen countries and networks, impossible travel
//! (country-to-country faster than a plane), and failure velocity. Scores
//! map to [`RiskDecision`]s; the PAM gate turns *step-up* into "no
//! exemption bypass for this login" and *deny* into an outright refusal.

use crate::geo::{CountryCode, GeoDb};
use hpcmfa_pam::context::PamContext;
use hpcmfa_pam::stack::{PamModule, PamResult};
use hpcmfa_telemetry::{Counter, Gauge, MetricsRegistry, SecurityEventKind, SpanCtx, SpanStatus};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no tracked history, nothing to purge" (mirrors the
/// token store's `sms_expiry_floor` watermark).
const NO_FLOOR: u64 = u64::MAX;

/// Scoring weights and thresholds.
#[derive(Debug, Clone)]
pub struct RiskWeights {
    /// First login ever seen from this country.
    pub new_country: u32,
    /// First login from this /16 network.
    pub new_network: u32,
    /// Country differs from the previous login's and the gap is under
    /// [`RiskWeights::travel_window_secs`].
    pub impossible_travel: u32,
    /// More than [`RiskWeights::velocity_max`] attempts inside
    /// [`RiskWeights::velocity_window_secs`].
    pub high_velocity: u32,
    /// Recent failed attempts (each, capped at 5 counted).
    pub recent_failure: u32,
    /// Minimum plausible country-switch time.
    pub travel_window_secs: u64,
    /// Attempt-velocity window.
    pub velocity_window_secs: u64,
    /// Attempts allowed inside the velocity window.
    pub velocity_max: usize,
    /// Score at or above which step-up is demanded.
    pub step_up_at: u32,
    /// Score at or above which the login is denied.
    pub deny_at: u32,
    /// Per-user history entries idle for longer than this are purged
    /// (watermark sweep); a purged user's next login re-baselines.
    pub history_retention_secs: u64,
}

impl Default for RiskWeights {
    fn default() -> Self {
        RiskWeights {
            new_country: 40,
            new_network: 15,
            impossible_travel: 45,
            high_velocity: 25,
            recent_failure: 10,
            travel_window_secs: 4 * 3600,
            velocity_window_secs: 60,
            velocity_max: 6,
            step_up_at: 40,
            deny_at: 90,
            history_retention_secs: 90 * 86_400,
        }
    }
}

/// The verdict for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RiskDecision {
    /// Business as usual.
    Allow,
    /// Allow, but the second factor may not be bypassed.
    StepUp,
    /// Refuse outright.
    Deny,
}

#[derive(Default)]
struct UserHistory {
    countries: Vec<CountryCode>,
    networks: Vec<u32>, // /16 prefixes seen
    last_country: Option<(CountryCode, u64)>,
    attempts: Vec<u64>,
    recent_failures: Vec<u64>,
    last_seen: u64,
}

/// Counter/gauge handles the engine bumps once attached to a registry.
struct RiskMetrics {
    registry: Arc<MetricsRegistry>,
    allow: Arc<Counter>,
    step_up: Arc<Counter>,
    deny: Arc<Counter>,
    purged: Arc<Counter>,
    tracked: Arc<Gauge>,
}

/// The engine: shared, thread-safe, bounded history per user.
pub struct RiskEngine {
    geodb: Arc<GeoDb>,
    weights: RiskWeights,
    history: Mutex<HashMap<String, UserHistory>>,
    /// Earliest instant any tracked user's history expires. Only ever
    /// lowered outside a sweep (`fetch_min`), recomputed exactly during
    /// one — the same discipline as the store's `sms_expiry_floor`.
    purge_floor: AtomicU64,
    metrics: Mutex<Option<RiskMetrics>>,
}

impl RiskEngine {
    /// Build over `geodb` with `weights`.
    pub fn new(geodb: Arc<GeoDb>, weights: RiskWeights) -> Arc<Self> {
        Arc::new(RiskEngine {
            geodb,
            weights,
            history: Mutex::new(HashMap::new()),
            purge_floor: AtomicU64::new(NO_FLOOR),
            metrics: Mutex::new(None),
        })
    }

    /// Attach a metrics registry: decisions bump
    /// `hpcmfa_risk_decisions_total{decision=…}`, step-up/deny emit
    /// typed security events, purges and tracked-user count are
    /// observable. Pre-registers every series so `/system/metrics`
    /// renders them at zero.
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let m = RiskMetrics {
            allow: registry.counter("hpcmfa_risk_decisions_total", &[("decision", "allow")]),
            step_up: registry.counter("hpcmfa_risk_decisions_total", &[("decision", "step_up")]),
            deny: registry.counter("hpcmfa_risk_decisions_total", &[("decision", "deny")]),
            purged: registry.counter("hpcmfa_risk_history_purged_total", &[]),
            tracked: registry.gauge("hpcmfa_risk_tracked_users", &[]),
            registry,
        };
        *self.metrics.lock() = Some(m);
    }

    fn net16(ip: Ipv4Addr) -> u32 {
        u32::from(ip) >> 16
    }

    /// Watermark sweep: drop every user idle past the retention window.
    /// Cheap in the common case — a single atomic load says "nothing can
    /// have expired yet". Returns how many entries were purged.
    fn purge_due(&self, history: &mut HashMap<String, UserHistory>, now: u64) -> u64 {
        if now < self.purge_floor.load(Ordering::SeqCst) {
            return 0;
        }
        let retention = self.weights.history_retention_secs;
        let before = history.len();
        history.retain(|_, h| h.last_seen.saturating_add(retention) > now);
        let mut floor = NO_FLOOR;
        for h in history.values() {
            floor = floor.min(h.last_seen.saturating_add(retention));
        }
        self.purge_floor.store(floor, Ordering::SeqCst);
        (before - history.len()) as u64
    }

    /// Score an attempt and update history. Call once per login attempt.
    pub fn assess(&self, user: &str, ip: Ipv4Addr, now: u64) -> (u32, RiskDecision) {
        self.assess_spanned(user, ip, now, None)
    }

    /// [`RiskEngine::assess`] under a propagated span context: the scoring
    /// pass is recorded as a timed `risk`/`assess` span (when a registry is
    /// attached) and step-up/deny events are stamped with its id.
    pub(crate) fn assess_spanned(
        &self,
        user: &str,
        ip: Ipv4Addr,
        now: u64,
        ctx: Option<&SpanCtx>,
    ) -> (u32, RiskDecision) {
        let trace = ctx.map(|c| c.trace);
        let w = &self.weights;
        let country = self.geodb.country_of(ip);
        let net = Self::net16(ip);

        let mut history = self.history.lock();
        let purged = self.purge_due(&mut history, now);
        let h = history.entry(user.to_string()).or_default();
        let mut score = 0u32;

        if let Some(cc) = country {
            if !h.countries.contains(&cc) {
                // A brand-new account's very first location is baseline,
                // not anomaly.
                if !h.countries.is_empty() {
                    score += w.new_country;
                }
                h.countries.push(cc);
            }
            if let Some((prev, at)) = h.last_country {
                if prev != cc && now.saturating_sub(at) < w.travel_window_secs {
                    score += w.impossible_travel;
                }
            }
            h.last_country = Some((cc, now));
        }
        if !h.networks.contains(&net) {
            if !h.networks.is_empty() {
                score += w.new_network;
            }
            h.networks.push(net);
        }

        h.attempts.push(now);
        h.attempts
            .retain(|&t| now.saturating_sub(t) <= w.velocity_window_secs);
        if h.attempts.len() > w.velocity_max {
            score += w.high_velocity;
        }

        h.recent_failures.retain(|&t| now.saturating_sub(t) <= 3600);
        score += w.recent_failure * (h.recent_failures.len().min(5) as u32);

        h.last_seen = now;
        let tracked = history.len();
        drop(history);
        self.purge_floor.fetch_min(
            now.saturating_add(w.history_retention_secs),
            Ordering::SeqCst,
        );

        let decision = if score >= w.deny_at {
            RiskDecision::Deny
        } else if score >= w.step_up_at {
            RiskDecision::StepUp
        } else {
            RiskDecision::Allow
        };
        if let Some(m) = self.metrics.lock().as_ref() {
            let mut span = ctx.map(|c| m.registry.tracer().start(c, "risk", "assess"));
            if let Some(g) = span.as_mut() {
                g.attr_u64("score", u64::from(score));
                g.set_detail(match decision {
                    RiskDecision::Allow => "allow",
                    RiskDecision::StepUp => "step_up",
                    RiskDecision::Deny => "deny",
                });
                if decision == RiskDecision::Deny {
                    g.set_status(SpanStatus::Error);
                }
            }
            match decision {
                RiskDecision::Allow => m.allow.inc(),
                RiskDecision::StepUp => m.step_up.inc(),
                RiskDecision::Deny => m.deny.inc(),
            }
            if purged > 0 {
                m.purged.add(purged);
            }
            m.tracked.set(tracked as i64);
            let kind = match decision {
                RiskDecision::StepUp => Some(SecurityEventKind::RiskStepUp),
                RiskDecision::Deny => Some(SecurityEventKind::RiskDeny),
                RiskDecision::Allow => None,
            };
            if let Some(kind) = kind {
                m.registry.emit_event(
                    kind,
                    trace,
                    span.as_ref().map(|g| g.id()),
                    now,
                    format!("user={user} ip={ip} score={score}"),
                );
            }
        }
        (score, decision)
    }

    /// Report the outcome of the attempt (feeds the failure signal).
    pub fn record_outcome(&self, user: &str, now: u64, granted: bool) {
        if !granted {
            let mut history = self.history.lock();
            let h = history.entry(user.to_string()).or_default();
            h.recent_failures.push(now);
            h.last_seen = now;
            drop(history);
            self.purge_floor.fetch_min(
                now.saturating_add(self.weights.history_retention_secs),
                Ordering::SeqCst,
            );
        }
    }
}

/// The PAM gate: place `requisite` early in the stack.
pub struct RiskGateModule {
    engine: Arc<RiskEngine>,
}

impl RiskGateModule {
    /// Gate on `engine`.
    pub fn new(engine: Arc<RiskEngine>) -> Arc<Self> {
        Arc::new(RiskGateModule { engine })
    }
}

impl PamModule for RiskGateModule {
    fn name(&self) -> &'static str {
        "pam_tacc_risk"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let span_ctx = ctx.span_ctx();
        let (_score, decision) =
            self.engine
                .assess_spanned(&ctx.username, ctx.rhost, ctx.now(), Some(&span_ctx));
        match decision {
            RiskDecision::Allow => PamResult::Ignore,
            RiskDecision::StepUp => {
                ctx.risk_step_up = true;
                PamResult::Ignore
            }
            RiskDecision::Deny => PamResult::AuthErr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoDb;

    fn engine() -> Arc<RiskEngine> {
        let db = GeoDb::parse(
            "70.0.0.0/8    US\n\
             141.30.0.0/16 DE\n\
             1.2.0.0/16    CN\n",
        )
        .unwrap();
        RiskEngine::new(Arc::new(db), RiskWeights::default())
    }

    const DAY: u64 = 86_400;

    #[test]
    fn first_login_is_baseline() {
        let e = engine();
        let (score, d) = e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        assert_eq!(score, 0);
        assert_eq!(d, RiskDecision::Allow);
    }

    #[test]
    fn habitual_location_stays_quiet() {
        let e = engine();
        for day in 0..30 {
            let (score, d) = e.assess("alice", "70.1.1.1".parse().unwrap(), day * DAY);
            assert_eq!(score, 0, "day {day}");
            assert_eq!(d, RiskDecision::Allow);
        }
    }

    #[test]
    fn new_country_triggers_step_up() {
        let e = engine();
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        // Weeks later from Germany: new country + new network.
        let (score, d) = e.assess("alice", "141.30.1.1".parse().unwrap(), 30 * DAY);
        assert_eq!(score, 40 + 15);
        assert_eq!(d, RiskDecision::StepUp);
        // The next German login is familiar again.
        let (score, d) = e.assess("alice", "141.30.1.1".parse().unwrap(), 31 * DAY);
        assert_eq!(score, 0);
        assert_eq!(d, RiskDecision::Allow);
    }

    #[test]
    fn impossible_travel_denies() {
        let e = engine();
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        e.assess("alice", "141.30.1.1".parse().unwrap(), 30 * DAY); // step-up (trip)
                                                                    // 20 minutes after a German login, a Chinese one: new country +
                                                                    // new network + impossible travel ≥ deny threshold.
        let (score, d) = e.assess("alice", "1.2.3.4".parse().unwrap(), 30 * DAY + 1200);
        assert!(score >= 90, "score {score}");
        assert_eq!(d, RiskDecision::Deny);
    }

    #[test]
    fn velocity_scores() {
        let e = engine();
        // Warm up location.
        e.assess("bot", "70.1.1.1".parse().unwrap(), 0);
        let mut last = (0, RiskDecision::Allow);
        for i in 0..10 {
            last = e.assess("bot", "70.1.1.1".parse().unwrap(), 1000 + i);
        }
        assert!(last.0 >= 25, "velocity scored: {}", last.0);
    }

    #[test]
    fn failures_accumulate_risk() {
        let e = engine();
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        for i in 0..5 {
            e.record_outcome("alice", 1000 + i, false);
        }
        let (score, d) = e.assess("alice", "70.1.1.1".parse().unwrap(), 2000);
        assert_eq!(score, 50);
        assert_eq!(d, RiskDecision::StepUp);
        // An hour later the failures age out.
        let (score, _) = e.assess("alice", "70.1.1.1".parse().unwrap(), 2000 + 3700);
        assert_eq!(score, 0);
    }

    #[test]
    fn pam_gate_maps_decisions() {
        use hpcmfa_otp::clock::SimClock;
        use hpcmfa_pam::conv::ScriptedConversation;

        let e = engine();
        let gate = RiskGateModule::new(Arc::clone(&e));
        let run = |user: &str, ip: &str, now: u64| {
            let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
            let mut ctx = PamContext::new(
                user,
                ip.parse().unwrap(),
                Arc::new(SimClock::at(now)),
                &mut conv,
            );
            let r = gate.authenticate(&mut ctx);
            (r, ctx.risk_step_up)
        };
        assert_eq!(run("carol", "70.1.1.1", 0), (PamResult::Ignore, false));
        // New country weeks later: step-up flag set, stack continues.
        assert_eq!(
            run("carol", "141.30.1.1", 30 * DAY),
            (PamResult::Ignore, true)
        );
        // Impossible travel right after: denied.
        assert_eq!(
            run("carol", "1.2.3.4", 30 * DAY + 600),
            (PamResult::AuthErr, false)
        );
    }

    #[test]
    fn zero_width_velocity_window_counts_only_same_second() {
        let e = RiskEngine::new(
            Arc::new(GeoDb::parse("70.0.0.0/8 US\n").unwrap()),
            RiskWeights {
                velocity_window_secs: 0,
                velocity_max: 2,
                ..RiskWeights::default()
            },
        );
        // Attempts on distinct seconds never accumulate.
        for i in 0..10 {
            let (score, _) = e.assess("bot", "70.1.1.1".parse().unwrap(), 100 + i);
            assert_eq!(score, 0, "attempt {i}");
        }
        // Three attempts inside the same second trip the zero-width window.
        e.assess("bot", "70.1.1.1".parse().unwrap(), 500);
        e.assess("bot", "70.1.1.1".parse().unwrap(), 500);
        let (score, _) = e.assess("bot", "70.1.1.1".parse().unwrap(), 500);
        assert_eq!(score, 25);
    }

    #[test]
    fn travel_window_boundary_is_exclusive() {
        let w = RiskWeights::default();
        // Gap exactly == travel_window_secs: plausible, no travel score.
        let e = engine();
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        e.assess("alice", "141.30.1.1".parse().unwrap(), 30 * DAY);
        let (score, _) = e.assess(
            "alice",
            "1.2.3.4".parse().unwrap(),
            30 * DAY + w.travel_window_secs,
        );
        assert_eq!(score, 40 + 15, "boundary gap is only new country+network");
        // One second inside the window: impossible travel fires.
        let e = engine();
        e.assess("bob", "70.1.1.1".parse().unwrap(), 0);
        e.assess("bob", "141.30.1.1".parse().unwrap(), 30 * DAY);
        let (score, d) = e.assess(
            "bob",
            "1.2.3.4".parse().unwrap(),
            30 * DAY + w.travel_window_secs - 1,
        );
        assert_eq!(score, 40 + 15 + 45);
        assert_eq!(d, RiskDecision::Deny);
    }

    #[test]
    fn failure_score_saturates_at_five() {
        let e = engine();
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0);
        for i in 0..50 {
            e.record_outcome("alice", 1000 + i, false);
        }
        // 50 fresh failures score exactly like 5: the cap keeps repeated
        // failures alone below the deny threshold.
        let (score, d) = e.assess("alice", "70.1.1.1".parse().unwrap(), 1100);
        assert_eq!(score, 50);
        assert_eq!(d, RiskDecision::StepUp);
    }

    #[test]
    fn idle_history_is_purged_at_the_watermark() {
        let e = RiskEngine::new(
            Arc::new(GeoDb::parse("70.0.0.0/8 US\n141.30.0.0/16 DE\n").unwrap()),
            RiskWeights {
                history_retention_secs: 1000,
                ..RiskWeights::default()
            },
        );
        e.assess("idle", "70.1.1.1".parse().unwrap(), 0);
        e.assess("fresh", "70.2.2.2".parse().unwrap(), 900);
        assert_eq!(e.history.lock().len(), 2);
        // Sweeps only run once the earliest expiry passes; `idle` expires
        // at t=1000, `fresh` at t=1900.
        let (_, _) = e.assess("fresh", "70.2.2.2".parse().unwrap(), 1200);
        assert_eq!(e.history.lock().len(), 1, "idle swept at the watermark");
        // A purged user re-baselines: a new country scores zero.
        let (score, d) = e.assess("idle", "141.30.9.9".parse().unwrap(), 1300);
        assert_eq!(score, 0);
        assert_eq!(d, RiskDecision::Allow);
    }

    #[test]
    fn metrics_and_events_track_decisions() {
        use hpcmfa_telemetry::MetricsRegistry;

        let reg = Arc::new(MetricsRegistry::new());
        let e = engine();
        e.attach_metrics(Arc::clone(&reg));
        e.assess("alice", "70.1.1.1".parse().unwrap(), 0); // allow (baseline)
        e.assess("alice", "141.30.1.1".parse().unwrap(), 30 * DAY); // step-up
        e.assess("alice", "1.2.3.4".parse().unwrap(), 30 * DAY + 600); // deny
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hpcmfa_risk_decisions_total{decision=\"allow\"}"),
            1
        );
        assert_eq!(
            snap.counter("hpcmfa_risk_decisions_total{decision=\"step_up\"}"),
            1
        );
        assert_eq!(
            snap.counter("hpcmfa_risk_decisions_total{decision=\"deny\"}"),
            1
        );
        let events = reg.security_events().all();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SecurityEventKind::RiskStepUp);
        assert_eq!(events[1].kind, SecurityEventKind::RiskDeny);
        assert!(events[1].detail.contains("user=alice"));
    }
}
