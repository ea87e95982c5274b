//! SLI and burn-rate arithmetic for the alerting engine.
//!
//! The stack's headline SLI is *auth success*: the fraction of RADIUS
//! exchanges on the login path that came back with a usable answer
//! (accept or challenge) rather than erroring out. An
//! [`SliSpec`] names the counter series forming the good/total sides;
//! [`burn_rate`] converts a windowed good/total delta into the classic
//! SRE burn-rate figure (error rate divided by the error budget), and
//! the rule engine requires the rate to exceed a factor over *two*
//! windows — a short one for responsiveness and a long one to suppress
//! blips — before an alert leaves pending.
//!
//! Everything here is pure arithmetic over counter values: no clocks, no
//! state, so the determinism contract of the engine rests only on the
//! counters it reads.

/// Names the counter series behind an SLI. Each entry is either an exact
/// series id (`name{label="v"}`) or a bare family name, summed over all
/// label sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliSpec {
    /// Series counted as good events.
    pub good: Vec<String>,
    /// Series counted as total events (must be a superset of `good`).
    pub total: Vec<String>,
}

impl SliSpec {
    /// The auth-success SLI over the RADIUS outcome counters: good =
    /// accept + challenge, total = every outcome (including errors from
    /// exhausted failover budgets).
    pub(crate) fn auth_success() -> Self {
        SliSpec {
            good: vec![
                "hpcmfa_radius_outcomes_total{outcome=\"accept\"}".to_string(),
                "hpcmfa_radius_outcomes_total{outcome=\"challenge\"}".to_string(),
            ],
            total: vec!["hpcmfa_radius_outcomes_total".to_string()],
        }
    }
}

/// The burn rate of a windowed `(good, total)` delta against an
/// availability `objective` in `(0, 1)`: observed error rate divided by
/// the error budget `1 - objective`. 1.0 means the budget is being spent
/// exactly at the sustainable pace; an empty window burns nothing.
pub(crate) fn burn_rate(good: u64, total: u64, objective: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let error_rate = 1.0 - (good.min(total) as f64 / total as f64);
    let budget = (1.0 - objective).max(f64::EPSILON);
    error_rate / budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CounterRead, MetricsRegistry};

    #[test]
    fn burn_rate_scales_with_error_rate() {
        // 10% errors against a 95% objective: 0.10 / 0.05 = 2x burn.
        assert!((burn_rate(90, 100, 0.95) - 2.0).abs() < 1e-9);
        // Perfect window burns nothing.
        assert_eq!(burn_rate(50, 50, 0.99), 0.0);
        // Empty window burns nothing.
        assert_eq!(burn_rate(0, 0, 0.99), 0.0);
        // Total outage burns the full budget ratio.
        assert!((burn_rate(0, 10, 0.95) - 20.0).abs() < 1e-9);
        // good > total (racy counters) clamps instead of going negative.
        assert_eq!(burn_rate(11, 10, 0.95), 0.0);
    }

    #[test]
    fn auth_success_sli_reads_outcome_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("hpcmfa_radius_outcomes_total", &[("outcome", "accept")])
            .add(8);
        reg.counter("hpcmfa_radius_outcomes_total", &[("outcome", "challenge")])
            .add(1);
        reg.counter("hpcmfa_radius_outcomes_total", &[("outcome", "error")])
            .add(3);
        let spec = SliSpec::auth_success();
        let sum = |ids: &[String]| -> u64 {
            ids.iter()
                .map(|id| reg.counter_now(&CounterRead::new(id)))
                .sum()
        };
        assert_eq!((sum(&spec.good), sum(&spec.total)), (9, 12));
    }
}
