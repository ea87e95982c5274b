//! The deterministic alerting rule engine.
//!
//! An [`AlertEngine`] holds a set of declarative [`Rule`]s and is ticked
//! with the virtual-clock time; `Center::ssh` ticks it once per login.
//! Each tick, every rule reads the series its [`Condition`] names from
//! the engine's registry, keeps the reading in its own trailing window,
//! judges the windowed delta, and advances a per-rule state machine:
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

use crate::registry::{CounterRead, MetricsRegistry, SeriesKey};
use crate::slo::{burn_rate, SliSpec};
use std::collections::VecDeque;
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

/// One rule's readings, oldest first, pruned to its window. Ticks come in
/// time order, so the front is the baseline: the newest reading at or
/// before `now - secs`, else the oldest. A popped reading always has a
/// newer one behind it that also qualifies.
struct Window<T> {
    secs: u64,
    readings: VecDeque<(u64, T)>,
}

impl<T> Window<T> {
    fn new(secs: u64) -> Self {
        let readings = VecDeque::new();
        Window { secs, readings }
    }

    /// Take `reading` at `now`; return the baseline and the reading.
    fn slide(&mut self, now: u64, reading: T) -> (&T, &T) {
        self.readings.push_back((now, reading));
        while let Some(&(at, _)) = self.readings.get(1) {
            #[cfg(test)]
            tests::VISITS.with(|n| n.set(n.get() + 1));
            if at.saturating_add(self.secs) > now {
                break;
            }
            self.readings.pop_front();
        }
        let (first, last) = (self.readings.front(), self.readings.back());
        (&first.expect("pushed").1, &last.expect("pushed").1)
    }
}

/// A rule's condition compiled when the engine is built: it owns its
/// series, resolved to registry keys, and its windows. Each tick it reads
/// the registry, slides its windows, and says whether the rule holds.
type Check = Box<dyn FnMut(&MetricsRegistry, u64) -> bool + Send>;

fn compile(condition: &Condition) -> Check {
    match condition.clone() {
        Condition::Threshold { series, min } => {
            let series = CounterRead::new(&series);
            Box::new(move |registry, _| registry.counter_now(&series) >= min)
        }
        Condition::RateOverWindow {
            series,
            window_secs,
            min_increase,
        } => {
            let (series, mut window) = (CounterRead::new(&series), Window::new(window_secs));
            Box::new(move |registry, now| {
                let (base, cur) = window.slide(now, registry.counter_now(&series));
                cur.saturating_sub(*base) >= min_increase
            })
        }
        Condition::BurnRate {
            sli,
            objective,
            short_secs,
            long_secs,
            factor,
        } => {
            let good: Vec<_> = sli.good.iter().map(|id| CounterRead::new(id)).collect();
            let total: Vec<_> = sli.total.iter().map(|id| CounterRead::new(id)).collect();
            let mut windows = [Window::new(short_secs), Window::new(long_secs)];
            Box::new(move |registry, now| {
                let sum = |ids: &[CounterRead]| -> u64 {
                    ids.iter().map(|id| registry.counter_now(id)).sum()
                };
                let reading = (sum(&good), sum(&total));
                // Every window takes the reading before any is judged: one
                // that skipped a tick would keep a stale baseline.
                let burns = windows.each_mut().map(|window| {
                    let ((good0, total0), (good1, total1)) = window.slide(now, reading);
                    let good = good1.saturating_sub(*good0);
                    burn_rate(good, total1.saturating_sub(*total0), objective)
                });
                burns.iter().all(|burn| *burn > factor)
            })
        }
        Condition::LatencyQuantile {
            family,
            q,
            window_secs,
            min_value,
        } => {
            let (family, mut window) = (SeriesKey::new(&family, &[]), Window::new(window_secs));
            Box::new(move |registry, now| {
                let (base, cur) = window.slide(now, registry.histogram_family_now(&family));
                cur.delta_since(base).quantile(q) >= min_value
            })
        }
    }
}

/// Where one rule stands in its lifecycle.
struct Lifecycle {
    state: AlertState,
    since: u64,
}

impl Lifecycle {
    const INACTIVE: Lifecycle = Lifecycle {
        state: AlertState::Inactive,
        since: 0,
    };

    /// Advance on this tick's verdict, reporting each transition taken.
    fn advance(
        &mut self,
        holds: bool,
        now: u64,
        rule: &Rule,
        mut transition: impl FnMut(AlertState, AlertState),
    ) {
        let mut enter = |lc: &mut Lifecycle, to: AlertState| {
            transition(lc.state, to);
            (lc.state, lc.since) = (to, now);
        };
        // Ticks come in time order, so `since` is never ahead of `now`.
        let held = now - self.since;
        match self.state {
            AlertState::Inactive if holds => {
                enter(self, AlertState::Pending);
                if rule.for_secs == 0 {
                    enter(self, AlertState::Firing);
                }
            }
            AlertState::Pending if !holds => enter(self, AlertState::Inactive),
            AlertState::Pending if held >= rule.for_secs => enter(self, AlertState::Firing),
            AlertState::Firing if !holds => enter(self, AlertState::Resolved),
            AlertState::Resolved if holds => enter(self, AlertState::Firing),
            AlertState::Resolved if held >= rule.cooldown_secs => enter(self, AlertState::Inactive),
            _ => {}
        }
    }
}

struct EngineInner {
    rules: Vec<(Rule, Lifecycle, Check)>,
    timeline: Vec<AlertTransition>,
}

/// The rule engine. Interior-mutable so it can sit behind one `Arc`
/// shared by the driver (which ticks it) and the admin API (which reads
/// it).
pub struct AlertEngine {
    registry: Arc<MetricsRegistry>,
    inner: Mutex<EngineInner>,
}

impl AlertEngine {
    /// Build an engine over `rules`, reading their series from and
    /// recording `hpcmfa_alerts_total` into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>, rules: Vec<Rule>) -> Self {
        let rules = rules.into_iter().map(|r| {
            let check = compile(&r.condition);
            (r, Lifecycle::INACTIVE, check)
        });
        let timeline = Vec::new();
        let inner = Mutex::new(EngineInner {
            rules: rules.collect(),
            timeline,
        });
        AlertEngine { registry, inner }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Advance the engine to virtual time `now`. Ticks must be fed in
    /// non-decreasing time order.
    pub fn tick(&self, now: u64) {
        let EngineInner { rules, timeline } = &mut *self.lock();
        let first = timeline.len();
        for (rule, lifecycle, check) in rules.iter_mut() {
            let holds = check(&self.registry, now);
            lifecycle.advance(holds, now, rule, |from, to| {
                let rule = rule.name.clone();
                timeline.push(AlertTransition {
                    at: now,
                    rule,
                    from,
                    to,
                })
            });
        }
        // Counted once every rule has read: no rule sees another's
        // transitions from its own tick.
        for t in &timeline[first..] {
            if t.to != AlertState::Inactive {
                let labels = [("rule", t.rule.as_str()), ("state", t.to.label())];
                self.registry.counter("hpcmfa_alerts_total", &labels).inc();
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
        let rules = inner.rules.iter().filter(|(_, lc, _)| keep(lc.state));
        rules
            .map(|(r, lc, _)| AlertStatus {
                rule: r.name.clone(),
                state: lc.state,
                since: lc.since,
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
    use crate::registry::MetricsSnapshot;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Readings `Window::slide`'s prune has visited on this thread.
        pub(super) static VISITS: Cell<u64> = const { Cell::new(0) };
    }

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
        engine.tick(0);
        assert!(engine.active().is_empty());
        // Burst: 4 errors between t=0 and t=30.
        c.add(4);
        engine.tick(30);
        let active = engine.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].state, AlertState::Firing);
        // No further errors: window slides past the burst at t=130.
        engine.tick(90);
        assert_eq!(engine.active().len(), 1, "burst still inside window");
        engine.tick(140);
        assert!(engine.active().is_empty());
        assert_eq!(engine.recent_resolved().len(), 1);
        // Cooldown expires 50s later.
        engine.tick(200);
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
        engine.tick(0);
        c.inc();
        engine.tick(30);
        assert_eq!(engine.active()[0].state, AlertState::Pending);
        engine.tick(60);
        assert_eq!(
            engine.active()[0].state,
            AlertState::Pending,
            "30s < for 60s"
        );
        engine.tick(100);
        assert_eq!(engine.active()[0].state, AlertState::Firing);
    }

    #[test]
    fn pending_that_clears_never_fires() {
        let (reg, engine) = engine_with(vec![rate_rule(50, 1, 60, 50)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0);
        c.inc();
        engine.tick(10);
        assert_eq!(engine.active()[0].state, AlertState::Pending);
        // The single error leaves the 50s window before for_secs elapses.
        engine.tick(65);
        assert!(engine.active().is_empty());
        assert!(engine.recent_resolved().is_empty());
        assert!(!engine.timeline_lines().iter().any(|l| l.contains("firing")));
    }

    #[test]
    fn resolved_refires_without_pending_delay() {
        let (reg, engine) = engine_with(vec![rate_rule(100, 1, 60, 500)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        engine.tick(0);
        c.inc();
        engine.tick(10);
        engine.tick(80); // pending held 70s >= 60 -> firing
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        engine.tick(140); // window clear -> resolved
        assert_eq!(engine.recent_resolved().len(), 1);
        c.inc(); // flap back during cooldown
        engine.tick(150);
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
        engine.tick(0);
        assert!(engine.active().is_empty());
        c.add(1);
        engine.tick(10);
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        engine.tick(1_000);
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
            engine.tick(t * 30);
        }
        assert!(engine.active().is_empty());
        // Total outage: the short window degrades immediately, but the
        // long window still remembers the healthy majority.
        all.add(10);
        engine.tick(330);
        assert!(
            engine.active().is_empty(),
            "long window must gate the alert"
        );
        // Sustained outage degrades the long window too.
        for t in 12..22u64 {
            all.add(10);
            engine.tick(t * 30);
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
        engine.tick(0);
        assert!(engine.active().is_empty());
        // A spike dominates the fresh window even though the lifetime
        // p99 stays low.
        for _ in 0..5 {
            h.record(900_000);
        }
        engine.tick(30);
        assert_eq!(engine.active()[0].state, AlertState::Firing);
        // Window slides past the spike.
        engine.tick(200);
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
                engine.tick(t * 30);
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

    /// A tick's window work is amortised O(1): the prune visits each
    /// reading it pops plus the one it stops at, and each reading is
    /// popped at most once. One tick past the window then visits only
    /// what the window holds.
    #[test]
    fn a_window_visits_at_most_two_readings_a_tick_amortised() {
        const TICKS: u64 = 10_000;
        let (reg, engine) = engine_with(vec![rate_rule(600, 1, 0, 10)]);
        let c = reg.counter("hpcmfa_e_total", &[]);
        let before = VISITS.with(Cell::get);
        for t in 0..TICKS {
            c.inc();
            engine.tick(t);
        }
        let ticked = VISITS.with(Cell::get) - before;
        assert!(ticked <= 2 * TICKS, "{ticked} visits over {TICKS} ticks");
        let before = VISITS.with(Cell::get);
        engine.tick(2 * TICKS);
        let past = VISITS.with(Cell::get) - before;
        assert_eq!(past, 601, "the window holds t = 9 399 ..= 9 999");
    }

    /// The engine before each rule kept its own window, as a reference:
    /// every snapshot is kept, and a window's baseline is the newest one
    /// at or before `now - window`, found by walking them newest first,
    /// else the oldest. Counters are read per series id, then summed.
    #[derive(Default)]
    struct Reference {
        history: Vec<(u64, MetricsSnapshot)>,
        lifecycles: Vec<Lifecycle>,
        timeline: Vec<String>,
    }

    impl Reference {
        fn tick(&mut self, rules: &[Rule], now: u64, snap: MetricsSnapshot) {
            let Reference {
                history,
                lifecycles,
                timeline,
            } = self;
            history.push((now, snap));
            lifecycles.resize_with(rules.len(), || Lifecycle::INACTIVE);
            let cur = &history[history.len() - 1].1;
            let base = |window: u64| {
                &history
                    .iter()
                    .rev()
                    .find(|(at, _)| at.saturating_add(window) <= now)
                    .unwrap_or(&history[0])
                    .1
            };
            let value = |snap: &MetricsSnapshot, id: &str| {
                if id.contains('{') {
                    snap.counter(id)
                } else {
                    snap.counter_family(id)
                }
            };
            let delta =
                |window: u64, id: &str| value(cur, id).saturating_sub(value(base(window), id));
            for (rule, lifecycle) in rules.iter().zip(lifecycles.iter_mut()) {
                let holds = match &rule.condition {
                    Condition::Threshold { series, min } => value(cur, series) >= *min,
                    Condition::RateOverWindow {
                        series,
                        window_secs,
                        min_increase,
                    } => delta(*window_secs, series) >= *min_increase,
                    Condition::BurnRate {
                        sli,
                        objective,
                        short_secs,
                        long_secs,
                        factor,
                    } => {
                        let burn = |window: u64| {
                            let sum = |ids: &[String]| -> u64 {
                                ids.iter().map(|id| delta(window, id)).sum()
                            };
                            burn_rate(sum(&sli.good), sum(&sli.total), *objective)
                        };
                        burn(*short_secs) > *factor && burn(*long_secs) > *factor
                    }
                    Condition::LatencyQuantile {
                        family,
                        q,
                        window_secs,
                        min_value,
                    } => {
                        let base = base(*window_secs).histogram_family(family);
                        cur.histogram_family(family).delta_since(&base).quantile(*q) >= *min_value
                    }
                };
                lifecycle.advance(holds, now, rule, |from, to| {
                    timeline.push(format!("{now} {} {from}->{to}", rule.name))
                });
            }
        }
    }

    /// The counter series ticks bump, as `(name, labels)`.
    const COUNTERS: [(&str, &[(&str, &str)]); 8] = [
        ("hpcmfa_a_total", &[]),
        ("hpcmfa_a_total", &[("k", "x")]),
        ("hpcmfa_a_total", &[("k", "y")]),
        ("hpcmfa_radius_outcomes_total", &[("outcome", "accept")]),
        ("hpcmfa_radius_outcomes_total", &[("outcome", "challenge")]),
        ("hpcmfa_radius_outcomes_total", &[("outcome", "error")]),
        (
            "hpcmfa_security_events_total",
            &[("kind", "replay_attempt")],
        ),
        ("hpcmfa_shed_total", &[("reason", "queue")]),
    ];

    /// The histogram series ticks record into.
    const HISTOGRAMS: [(&str, &[(&str, &str)]); 3] = [
        ("hpcmfa_radius_request_duration_us", &[("server", "r0")]),
        ("hpcmfa_radius_request_duration_us", &[("server", "r1")]),
        ("hpcmfa_d_us", &[]),
    ];

    /// What generated rules name: exact ids, families, a series nothing
    /// bumps, and the engine's own transition counter.
    const COUNTER_IDS: [&str; 8] = [
        "hpcmfa_a_total",
        "hpcmfa_a_total{k=\"x\"}",
        "hpcmfa_radius_outcomes_total",
        "hpcmfa_radius_outcomes_total{outcome=\"accept\"}",
        "hpcmfa_radius_outcomes_total{outcome=\"error\"}",
        "hpcmfa_shed_total",
        "hpcmfa_missing_total",
        "hpcmfa_alerts_total",
    ];

    const FAMILIES: [&str; 2] = ["hpcmfa_radius_request_duration_us", "hpcmfa_d_us"];

    fn arb_window() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1..120u64, 120..900u64]
    }

    fn arb_condition() -> impl Strategy<Value = Condition> {
        let id = || prop::sample::select(COUNTER_IDS.to_vec()).prop_map(str::to_string);
        let ids = move || prop::collection::vec(id(), 1..3);
        prop_oneof![
            (id(), 0..20u64).prop_map(|(series, min)| Condition::Threshold { series, min }),
            (id(), arb_window(), 0..6u64).prop_map(|(series, window_secs, min_increase)| {
                Condition::RateOverWindow {
                    series,
                    window_secs,
                    min_increase,
                }
            }),
            (
                ids(),
                ids(),
                0.5..0.99f64,
                arb_window(),
                arb_window(),
                0.5..10.0f64
            )
                .prop_map(|(good, total, objective, short_secs, long_secs, factor)| {
                    Condition::BurnRate {
                        sli: SliSpec { good, total },
                        objective,
                        short_secs,
                        long_secs,
                        factor,
                    }
                }),
            (
                prop::sample::select(FAMILIES.to_vec()),
                prop_oneof![0.0..1.0f64, Just(1.0)],
                arb_window(),
                1..1_000_000u64
            )
                .prop_map(|(family, q, window_secs, min_value)| {
                    Condition::LatencyQuantile {
                        family: family.to_string(),
                        q,
                        window_secs,
                        min_value,
                    }
                }),
        ]
    }

    /// One tick: how far the clock moves (repeats, and gaps past every
    /// window, included), then what the system records before it.
    #[derive(Clone, Debug)]
    struct Step {
        dt: u64,
        bumps: Vec<(usize, u64)>,
        records: Vec<(usize, u64)>,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (
            prop_oneof![Just(0u64), 1..60u64, 60..400u64, 900..2_000u64],
            prop::collection::vec((0..COUNTERS.len(), 1..6u64), 0..4),
            prop::collection::vec((0..HISTOGRAMS.len(), 1..2_000_000u64), 0..3),
        )
            .prop_map(|(dt, bumps, records)| Step { dt, bumps, records })
    }

    proptest! {
        /// Each rule's own pruned window finds the baseline the
        /// keep-everything reference finds, so the timelines are equal:
        /// over all four condition kinds, the default rule set, and a
        /// burn-rate rule whose short window can be quiet while its long
        /// window burns (each window must take every tick's reading).
        #[test]
        fn windows_equal_the_keep_everything_reference(
            conditions in prop::collection::vec(arb_condition(), 0..6),
            for_secs in prop::collection::vec(prop_oneof![Just(0u64), 1..200u64], 6),
            steps in prop::collection::vec(arb_step(), 1..60),
        ) {
            let mut rules = default_security_rules();
            rules.push(Rule {
                name: "quiet_short_burning_long".to_string(),
                condition: Condition::BurnRate {
                    sli: SliSpec::auth_success(),
                    objective: 0.9,
                    short_secs: 60,
                    long_secs: 600,
                    factor: 1.0,
                },
                for_secs: 0,
                cooldown_secs: 120,
            });
            for (i, (condition, for_secs)) in conditions.into_iter().zip(for_secs).enumerate() {
                rules.push(Rule {
                    name: format!("generated_{i}"),
                    condition,
                    for_secs,
                    cooldown_secs: 90,
                });
            }
            let (reg, engine) = engine_with(rules.clone());
            let mut reference = Reference::default();
            let mut now = 0u64;
            for step in &steps {
                now += step.dt;
                for &(i, n) in &step.bumps {
                    let (name, labels) = COUNTERS[i];
                    reg.counter(name, labels).add(n);
                }
                for &(i, v) in &step.records {
                    let (name, labels) = HISTOGRAMS[i];
                    reg.histogram(name, labels).record(v);
                }
                reference.tick(&rules, now, reg.snapshot());
                engine.tick(now);
            }
            prop_assert_eq!(engine.timeline_lines(), reference.timeline);
        }
    }
}
