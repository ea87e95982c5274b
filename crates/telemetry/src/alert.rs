//! The deterministic alerting rule engine.
//!
//! An [`AlertEngine`] holds a set of declarative [`Rule`]s and is ticked
//! by the simulation driver — once per login in the chaos harness, once
//! per day in the rollout sim — with the virtual-clock time and a fresh
//! [`MetricsSnapshot`]. Each tick the engine appends the snapshot to a
//! bounded sample history, evaluates every rule's [`Condition`] over the
//! windowed deltas, and advances a per-rule state machine:
//!
//! ```text
//! inactive ──cond──▶ pending ──held for `for_secs`──▶ firing
//!     ▲                 │cond clears                     │cond clears
//!     │                 ▼                                ▼
//!     └──cooldown─── resolved ◀──────────────────────────┘
//!                        │cond returns (flap suppression)
//!                        └──────────▶ firing
//! ```
//!
//! Determinism contract: conditions may consult only series that move on
//! a virtual clock (the RADIUS outcome counters, the vclock request-
//! duration histogram, the security-event counters) — never wall-clock
//! histograms — and the engine itself keeps no wall time. Same seed,
//! same ticks → byte-identical [`AlertTransition`] timelines, which the
//! chaos tests compare across replayed runs.
//!
//! Every transition into `pending` / `firing` / `resolved` bumps
//! `hpcmfa_alerts_total{rule,state}` in the shared registry.

use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricsRegistry, MetricsSnapshot};
use crate::slo::{burn_rate, series_value, SliSpec};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// When a rule's condition holds.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// The current value of `series` (exact id or family sum) is at
    /// least `min`.
    Threshold {
        /// Counter series id or family name.
        series: String,
        /// Inclusive minimum.
        min: u64,
    },
    /// `series` increased by at least `min_increase` over the trailing
    /// `window_secs`.
    RateOverWindow {
        /// Counter series id or family name.
        series: String,
        /// Trailing window, virtual seconds.
        window_secs: u64,
        /// Inclusive minimum increase over the window.
        min_increase: u64,
    },
    /// Multi-window SLO burn rate: the error budget of `sli` is burning
    /// faster than `factor`× the sustainable pace over *both* the short
    /// and the long trailing window.
    BurnRate {
        /// The SLI's good/total counter series.
        sli: SliSpec,
        /// Availability objective in `(0, 1)`, e.g. `0.95`.
        objective: f64,
        /// Short (responsive) window, virtual seconds.
        short_secs: u64,
        /// Long (blip-suppressing) window, virtual seconds.
        long_secs: u64,
        /// Burn-rate multiple both windows must exceed.
        factor: f64,
    },
    /// Quantile `q` of the observations `family` gained over the
    /// trailing `window_secs` is at least `min_value`.
    LatencyQuantile {
        /// Histogram family name (all label sets merged).
        family: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Trailing window, virtual seconds.
        window_secs: u64,
        /// Inclusive minimum for the windowed quantile.
        min_value: u64,
    },
}

impl Condition {
    /// Counter keys this condition samples.
    fn counter_keys(&self) -> Vec<String> {
        match self {
            Condition::Threshold { series, .. } | Condition::RateOverWindow { series, .. } => {
                vec![series.clone()]
            }
            Condition::BurnRate { sli, .. } => sli.good.iter().chain(&sli.total).cloned().collect(),
            Condition::LatencyQuantile { .. } => Vec::new(),
        }
    }

    /// Histogram families this condition samples.
    fn histogram_families(&self) -> Vec<String> {
        match self {
            Condition::LatencyQuantile { family, .. } => vec![family.clone()],
            _ => Vec::new(),
        }
    }

    /// The longest trailing window this condition looks back over.
    fn max_window(&self) -> u64 {
        match self {
            Condition::Threshold { .. } => 0,
            Condition::RateOverWindow { window_secs, .. } => *window_secs,
            Condition::BurnRate {
                short_secs,
                long_secs,
                ..
            } => (*short_secs).max(*long_secs),
            Condition::LatencyQuantile { window_secs, .. } => *window_secs,
        }
    }
}

/// One declarative alerting rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Stable name (the `rule` label of `hpcmfa_alerts_total`).
    pub name: String,
    /// When the rule is in breach.
    pub condition: Condition,
    /// How long the condition must hold before pending becomes firing.
    pub for_secs: u64,
    /// How long a resolved alert lingers (flap suppression) before
    /// returning to inactive.
    pub cooldown_secs: u64,
}

/// Lifecycle state of one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Condition clear.
    Inactive,
    /// Condition in breach, `for_secs` not yet served.
    Pending,
    /// Alerting.
    Firing,
    /// Recently cleared; re-fires without a pending delay during the
    /// cooldown.
    Resolved,
}

impl AlertState {
    /// snake_case label (the `state` label of `hpcmfa_alerts_total`).
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One state-machine transition, in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertTransition {
    /// Tick time of the transition.
    pub at: u64,
    /// Rule name.
    pub rule: String,
    /// State left.
    pub from: AlertState,
    /// State entered.
    pub to: AlertState,
}

impl fmt::Display for AlertTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}->{}", self.at, self.rule, self.from, self.to)
    }
}

/// A rule's current status, for `/system/alerts`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Current state.
    pub state: AlertState,
    /// When the current state was entered.
    pub since: u64,
}

/// One sampled view of the referenced series.
struct Sample {
    at: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

struct RuleRuntime {
    state: AlertState,
    since: u64,
}

struct EngineInner {
    samples: VecDeque<Sample>,
    runtimes: Vec<RuleRuntime>,
    timeline: Vec<AlertTransition>,
}

/// The rule engine. Interior-mutable so it can sit behind one `Arc`
/// shared by the driver (which ticks it) and the admin API (which reads
/// it).
pub struct AlertEngine {
    registry: Arc<MetricsRegistry>,
    rules: Vec<Rule>,
    counter_keys: Vec<String>,
    histogram_families: Vec<String>,
    max_window: u64,
    inner: Mutex<EngineInner>,
}

impl AlertEngine {
    /// Build an engine over `rules`, recording `hpcmfa_alerts_total`
    /// into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>, rules: Vec<Rule>) -> Self {
        let counter_keys: Vec<String> = rules
            .iter()
            .flat_map(|r| r.condition.counter_keys())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let histogram_families: Vec<String> = rules
            .iter()
            .flat_map(|r| r.condition.histogram_families())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let max_window = rules
            .iter()
            .map(|r| r.condition.max_window())
            .max()
            .unwrap_or(0);
        let runtimes = rules
            .iter()
            .map(|_| RuleRuntime {
                state: AlertState::Inactive,
                since: 0,
            })
            .collect();
        AlertEngine {
            registry,
            rules,
            counter_keys,
            histogram_families,
            max_window,
            inner: Mutex::new(EngineInner {
                samples: VecDeque::new(),
                runtimes,
                timeline: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Advance the engine to virtual time `now` with a fresh snapshot.
    /// Ticks must be fed in non-decreasing time order.
    pub fn tick(&self, now: u64, snap: &MetricsSnapshot) {
        let mut inner = self.lock();
        let sample = Sample {
            at: now,
            counters: self
                .counter_keys
                .iter()
                .map(|k| (k.clone(), series_value(snap, k)))
                .collect(),
            histograms: self
                .histogram_families
                .iter()
                .map(|f| (f.clone(), snap.histogram_family(f)))
                .collect(),
        };
        inner.samples.push_back(sample);
        // Prune: a sample is dead once the next one is already at or past
        // every window's horizon.
        while inner.samples.len() >= 2 && inner.samples[1].at.saturating_add(self.max_window) <= now
        {
            inner.samples.pop_front();
        }

        for (i, rule) in self.rules.iter().enumerate() {
            let cond = eval_condition(&rule.condition, now, &inner.samples);
            let mut transitions: Vec<(AlertState, AlertState)> = Vec::new();
            {
                let rt = &mut inner.runtimes[i];
                match rt.state {
                    AlertState::Inactive if cond => {
                        transitions.push((AlertState::Inactive, AlertState::Pending));
                        rt.state = AlertState::Pending;
                        rt.since = now;
                        if now - rt.since >= rule.for_secs {
                            transitions.push((AlertState::Pending, AlertState::Firing));
                            rt.state = AlertState::Firing;
                            rt.since = now;
                        }
                    }
                    AlertState::Pending if !cond => {
                        transitions.push((AlertState::Pending, AlertState::Inactive));
                        rt.state = AlertState::Inactive;
                        rt.since = now;
                    }
                    AlertState::Pending if now - rt.since >= rule.for_secs => {
                        transitions.push((AlertState::Pending, AlertState::Firing));
                        rt.state = AlertState::Firing;
                        rt.since = now;
                    }
                    AlertState::Firing if !cond => {
                        transitions.push((AlertState::Firing, AlertState::Resolved));
                        rt.state = AlertState::Resolved;
                        rt.since = now;
                    }
                    AlertState::Resolved if cond => {
                        transitions.push((AlertState::Resolved, AlertState::Firing));
                        rt.state = AlertState::Firing;
                        rt.since = now;
                    }
                    AlertState::Resolved if now - rt.since >= rule.cooldown_secs => {
                        transitions.push((AlertState::Resolved, AlertState::Inactive));
                        rt.state = AlertState::Inactive;
                        rt.since = now;
                    }
                    _ => {}
                }
            }
            for (from, to) in transitions {
                if to != AlertState::Inactive {
                    self.registry
                        .counter(
                            "hpcmfa_alerts_total",
                            &[("rule", &rule.name), ("state", to.label())],
                        )
                        .inc();
                }
                inner.timeline.push(AlertTransition {
                    at: now,
                    rule: rule.name.clone(),
                    from,
                    to,
                });
            }
        }
    }

    /// Rules currently pending or firing.
    pub fn active(&self) -> Vec<AlertStatus> {
        self.statuses(|s| matches!(s, AlertState::Pending | AlertState::Firing))
    }

    /// Rules in their resolved cooldown.
    pub fn recent_resolved(&self) -> Vec<AlertStatus> {
        self.statuses(|s| s == AlertState::Resolved)
    }

    fn statuses(&self, keep: impl Fn(AlertState) -> bool) -> Vec<AlertStatus> {
        let inner = self.lock();
        self.rules
            .iter()
            .zip(&inner.runtimes)
            .filter(|(_, rt)| keep(rt.state))
            .map(|(r, rt)| AlertStatus {
                rule: r.name.clone(),
                state: rt.state,
                since: rt.since,
            })
            .collect()
    }

    /// Every transition so far, in tick order.
    pub fn timeline(&self) -> Vec<AlertTransition> {
        self.lock().timeline.clone()
    }

    /// The timeline rendered one line per transition (what chaos reports
    /// embed and replay tests byte-compare).
    pub fn timeline_lines(&self) -> Vec<String> {
        self.lock().timeline.iter().map(|t| t.to_string()).collect()
    }
}

/// Latest sample at or before `now - window`, else the oldest retained.
fn baseline(samples: &VecDeque<Sample>, now: u64, window: u64) -> &Sample {
    samples
        .iter()
        .rev()
        .find(|s| s.at.saturating_add(window) <= now)
        .unwrap_or_else(|| samples.front().expect("tick pushes before eval"))
}

fn counter_at(sample: &Sample, key: &str) -> u64 {
    sample.counters.get(key).copied().unwrap_or(0)
}

fn delta(samples: &VecDeque<Sample>, now: u64, window: u64, key: &str) -> u64 {
    let cur = counter_at(samples.back().expect("nonempty"), key);
    let base = counter_at(baseline(samples, now, window), key);
    cur.saturating_sub(base)
}

fn eval_condition(cond: &Condition, now: u64, samples: &VecDeque<Sample>) -> bool {
    match cond {
        Condition::Threshold { series, min } => {
            counter_at(samples.back().expect("nonempty"), series) >= *min
        }
        Condition::RateOverWindow {
            series,
            window_secs,
            min_increase,
        } => delta(samples, now, *window_secs, series) >= *min_increase,
        Condition::BurnRate {
            sli,
            objective,
            short_secs,
            long_secs,
            factor,
        } => {
            let burn_over = |window: u64| {
                let good: u64 = sli
                    .good
                    .iter()
                    .map(|k| delta(samples, now, window, k))
                    .sum();
                let total: u64 = sli
                    .total
                    .iter()
                    .map(|k| delta(samples, now, window, k))
                    .sum();
                burn_rate(good, total, *objective)
            };
            burn_over(*short_secs) > *factor && burn_over(*long_secs) > *factor
        }
        Condition::LatencyQuantile {
            family,
            q,
            window_secs,
            min_value,
        } => {
            let cur = samples
                .back()
                .expect("nonempty")
                .histograms
                .get(family)
                .cloned()
                .unwrap_or_else(HistogramSnapshot::empty);
            let base = baseline(samples, now, *window_secs)
                .histograms
                .get(family)
                .cloned()
                .unwrap_or_else(HistogramSnapshot::empty);
            cur.delta_since(&base).quantile(*q) >= *min_value
        }
    }
}

/// The default security rule set wired into every `Center`: the auth
/// SLO burn rate, direct error/latency symptoms, and one rule per
/// security-event kind. Windows are virtual seconds on the simulation
/// clock (chaos logins advance it by 30 s per dial).
pub fn default_security_rules() -> Vec<Rule> {
    let event_rate = |name: &str, kind: &str, window_secs: u64, min: u64, cooldown: u64| Rule {
        name: name.to_string(),
        condition: Condition::RateOverWindow {
            series: format!("hpcmfa_security_events_total{{kind=\"{kind}\"}}"),
            window_secs,
            min_increase: min,
        },
        for_secs: 0,
        cooldown_secs: cooldown,
    };
    vec![
        Rule {
            name: "auth_slo_burn".to_string(),
            condition: Condition::BurnRate {
                sli: SliSpec::auth_success(),
                objective: 0.95,
                short_secs: 120,
                long_secs: 360,
                factor: 4.0,
            },
            for_secs: 60,
            cooldown_secs: 300,
        },
        Rule {
            name: "radius_error_rate".to_string(),
            condition: Condition::RateOverWindow {
                series: "hpcmfa_radius_outcomes_total{outcome=\"error\"}".to_string(),
                window_secs: 180,
                min_increase: 3,
            },
            for_secs: 0,
            cooldown_secs: 300,
        },
        Rule {
            name: "auth_latency_p99".to_string(),
            condition: Condition::LatencyQuantile {
                family: "hpcmfa_radius_request_duration_us".to_string(),
                q: 0.99,
                window_secs: 300,
                min_value: 100_000,
            },
            for_secs: 0,
            cooldown_secs: 300,
        },
        event_rate("breaker_flap", "breaker_flap", 300, 2, 300),
        event_rate("lockout_storm", "lockout_storm", 600, 3, 600),
        event_rate("auth_failure_burst", "auth_failure_burst", 600, 1, 600),
        event_rate("replay_attempts", "replay_attempt", 600, 1, 600),
        event_rate("sms_abuse", "sms_abuse", 600, 3, 600),
        event_rate("wal_fsync_degraded", "wal_fsync_degraded", 300, 1, 300),
        event_rate("risk_deny_surge", "risk_deny", 600, 3, 600),
        event_rate("risk_step_up_surge", "risk_step_up", 600, 10, 600),
        // Any OTP failover is page-worthy: redundancy is gone until the
        // deposed node rejoins as the new standby.
        event_rate("otp_failover", "failover", 600, 1, 600),
        // One replayed resumption token is a stolen credential in flight
        // (RFC 9000 §8.1.4): page on the first sighting.
        event_rate("resume_replay", "resume_replay", 600, 1, 600),
        // A federated realm dropping off the map strands every roaming
        // user from that site.
        event_rate("realm_unreachable", "realm_unreachable", 600, 1, 600),
        // Shedding is watched on its own counter family (summed over
        // every `reason` label) so the rule sees the aggregate pressure.
        Rule {
            name: "overload_shedding".to_string(),
            condition: Condition::RateOverWindow {
                series: "hpcmfa_shed_total".to_string(),
                window_secs: 300,
                min_increase: 10,
            },
            for_secs: 0,
            cooldown_secs: 300,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(rules: Vec<Rule>) -> (Arc<MetricsRegistry>, AlertEngine) {
        let reg = Arc::new(MetricsRegistry::new());
        let engine = AlertEngine::new(Arc::clone(&reg), rules);
        (reg, engine)
    }

    fn rate_rule(window: u64, min: u64, for_secs: u64, cooldown: u64) -> Rule {
        Rule {
            name: "errors".to_string(),
            condition: Condition::RateOverWindow {
                series: "hpcmfa_e_total".to_string(),
                window_secs: window,
                min_increase: min,
            },
            for_secs,
            cooldown_secs: cooldown,
        }
    }

    #[test]
    fn rate_rule_fires_and_resolves_on_window_clear() {
        let (reg, engine) = engine_with(vec![rate_rule(100, 3, 0, 50)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0, &reg.snapshot());
        assert!(engine.active().is_empty());
        // Burst: 4 errors between t=0 and t=30.
        c.add(4);
        engine.tick(30, &reg.snapshot());
        let active = engine.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].state, AlertState::Firing);
        // No further errors: window slides past the burst at t=130.
        engine.tick(90, &reg.snapshot());
        assert_eq!(engine.active().len(), 1, "burst still inside window");
        engine.tick(140, &reg.snapshot());
        assert!(engine.active().is_empty());
        assert_eq!(engine.recent_resolved().len(), 1);
        // Cooldown expires 50s later.
        engine.tick(200, &reg.snapshot());
        assert!(engine.recent_resolved().is_empty());
        let lines = engine.timeline_lines();
        assert_eq!(
            lines,
            vec![
                "30 errors inactive->pending",
                "30 errors pending->firing",
                "140 errors firing->resolved",
                "200 errors resolved->inactive",
            ]
        );
        // Transition counters landed in the registry.
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hpcmfa_alerts_total{rule=\"errors\",state=\"firing\"}"),
            1
        );
        assert_eq!(
            snap.counter("hpcmfa_alerts_total{rule=\"errors\",state=\"resolved\"}"),
            1
        );
    }

    #[test]
    fn for_secs_holds_in_pending_and_clears_without_firing() {
        let (reg, engine) = engine_with(vec![rate_rule(1_000, 1, 60, 50)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0, &reg.snapshot());
        c.inc();
        engine.tick(30, &reg.snapshot());
        assert_eq!(engine.active()[0].state, AlertState::Pending);
        engine.tick(60, &reg.snapshot());
        assert_eq!(
            engine.active()[0].state,
            AlertState::Pending,
            "30s < for 60s"
        );
        engine.tick(100, &reg.snapshot());
        assert_eq!(engine.active()[0].state, AlertState::Firing);
    }

    #[test]
    fn pending_that_clears_never_fires() {
        let (reg, engine) = engine_with(vec![rate_rule(50, 1, 60, 50)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0, &reg.snapshot());
        c.inc();
        engine.tick(10, &reg.snapshot());
        assert_eq!(engine.active()[0].state, AlertState::Pending);
        // The single error leaves the 50s window before for_secs elapses.
        engine.tick(65, &reg.snapshot());
        assert!(engine.active().is_empty());
        assert!(engine.recent_resolved().is_empty());
        assert!(!engine.timeline_lines().iter().any(|l| l.contains("firing")));
    }

    #[test]
    fn resolved_refires_without_pending_delay() {
        let (reg, engine) = engine_with(vec![rate_rule(100, 1, 60, 500)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0, &reg.snapshot());
        c.inc();
        engine.tick(10, &reg.snapshot());
        engine.tick(80, &reg.snapshot()); // pending held 70s >= 60 -> firing
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        engine.tick(140, &reg.snapshot()); // window clear -> resolved
        assert_eq!(engine.recent_resolved().len(), 1);
        c.inc(); // flap back during cooldown
        engine.tick(150, &reg.snapshot());
        assert_eq!(
            engine.active()[0].state,
            AlertState::Firing,
            "no pending hop"
        );
    }

    #[test]
    fn threshold_condition_is_sticky() {
        let (reg, engine) = engine_with(vec![Rule {
            name: "cap".to_string(),
            condition: Condition::Threshold {
                series: "hpcmfa_t_total".to_string(),
                min: 5,
            },
            for_secs: 0,
            cooldown_secs: 10,
        }]);
        let c = reg.counter("hpcmfa_t_total", &[]);
        c.add(4);
        engine.tick(0, &reg.snapshot());
        assert!(engine.active().is_empty());
        c.add(1);
        engine.tick(10, &reg.snapshot());
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        engine.tick(1_000, &reg.snapshot());
        assert_eq!(
            engine.active()[0].state,
            AlertState::Firing,
            "counters never regress"
        );
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        let (reg, engine) = engine_with(vec![Rule {
            name: "slo".to_string(),
            condition: Condition::BurnRate {
                sli: SliSpec {
                    good: vec!["hpcmfa_ok_total".to_string()],
                    total: vec!["hpcmfa_all_total".to_string()],
                },
                objective: 0.95,
                short_secs: 60,
                long_secs: 300,
                factor: 4.0,
            },
            for_secs: 0,
            cooldown_secs: 60,
        }]);
        let ok = reg.counter("hpcmfa_ok_total", &[]);
        let all = reg.counter("hpcmfa_all_total", &[]);
        // A long healthy stretch fills the long window with good events.
        for t in 0..10u64 {
            ok.add(10);
            all.add(10);
            engine.tick(t * 30, &reg.snapshot());
        }
        assert!(engine.active().is_empty());
        // Total outage: the short window degrades immediately, but the
        // long window still remembers the healthy majority.
        all.add(10);
        engine.tick(330, &reg.snapshot());
        assert!(
            engine.active().is_empty(),
            "long window must gate the alert"
        );
        // Sustained outage degrades the long window too.
        for t in 12..22u64 {
            all.add(10);
            engine.tick(t * 30, &reg.snapshot());
        }
        assert_eq!(engine.active().len(), 1);
        assert_eq!(engine.active()[0].state, AlertState::Firing);
    }

    #[test]
    fn latency_quantile_sees_only_the_window() {
        let (reg, engine) = engine_with(vec![Rule {
            name: "lat".to_string(),
            condition: Condition::LatencyQuantile {
                family: "hpcmfa_d_us".to_string(),
                q: 0.99,
                window_secs: 100,
                min_value: 50_000,
            },
            for_secs: 0,
            cooldown_secs: 10,
        }]);
        let h = reg.histogram("hpcmfa_d_us", &[]);
        for _ in 0..100 {
            h.record(2_000);
        }
        engine.tick(0, &reg.snapshot());
        assert!(engine.active().is_empty());
        // A spike dominates the fresh window even though the lifetime
        // p99 stays low.
        for _ in 0..5 {
            h.record(900_000);
        }
        engine.tick(30, &reg.snapshot());
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        // Window slides past the spike.
        engine.tick(200, &reg.snapshot());
        assert!(engine.active().is_empty());
    }

    #[test]
    fn identical_tick_sequences_give_identical_timelines() {
        let run = || {
            let (reg, engine) = engine_with(default_security_rules());
            let err = reg.counter("hpcmfa_radius_outcomes_total", &[("outcome", "error")]);
            let ok = reg.counter("hpcmfa_radius_outcomes_total", &[("outcome", "accept")]);
            for t in 0..40u64 {
                if (10..20).contains(&t) {
                    err.add(3);
                } else {
                    ok.add(1);
                }
                engine.tick(t * 30, &reg.snapshot());
            }
            engine.timeline_lines()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a
            .iter()
            .any(|l| l.contains("radius_error_rate inactive->pending")));
    }

    #[test]
    fn sample_history_is_pruned() {
        let (reg, engine) = engine_with(vec![rate_rule(100, 1, 0, 10)]);
        for t in 0..1_000u64 {
            engine.tick(t * 30, &reg.snapshot());
        }
        assert!(
            engine.lock().samples.len() < 10,
            "history must stay bounded"
        );
    }
}
