//! Reducers: percentiles, the quiet-segment rule and the drift guard.
//!
//! Nothing here touches the system under test.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
/// Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of the segments taken to have run undisturbed, and the fewest
/// that ever stand for it.
///
/// The machine has two speeds. For minutes at a time a neighbour slows
/// everything but register arithmetic by a third, leaving gaps of a few
/// milliseconds, and nothing in the guest says when. The noise only ever
/// slows and every segment does the same work, so the fastest segments
/// are the program and the rest is the neighbour. `wire_volatile` in
/// 1 ms segments, eight runs of one build under a busy neighbour: the
/// median segment ran at 13 000-15 900 logins/s, the 98th percentile at
/// 19 300-20 100 and the 99.5th at 19 700-20 300, where a quiet neighbour
/// lets the median segment itself run at 20 000. The 90th percentile
/// still followed the neighbour (17 700-19 600), as did any percentile of
/// segments longer than the gaps.
const QUIET_SHARE: f64 = 0.005;
const QUIET_SEGMENTS: usize = 4;

/// How many segments from the better end the undisturbed one is: the
/// last of the quiet share, but not so near the end that one lucky
/// segment decides. With few, long segments that is the 4th, or the
/// last of the best tenth where there are fewer than forty.
fn quiet_rank(segments: usize) -> usize {
    let share = (QUIET_SHARE * segments as f64).ceil() as usize;
    share.max(QUIET_SEGMENTS.min(segments.div_ceil(10)))
}

/// The rate of an undisturbed segment: the `quiet_rank`-th highest.
pub fn quiet_high(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.get(quiet_rank(v.len()).wrapping_sub(1))
        .copied()
        .unwrap_or(0.0)
}

/// The cost of an undisturbed segment: the `quiet_rank`-th lowest.
pub fn quiet_low(costs: &[f64]) -> f64 {
    let mut v = costs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v.get(quiet_rank(v.len()).wrapping_sub(1))
        .copied()
        .unwrap_or(0.0)
}

/// Readings taken when a segment closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Boundary {
    /// Nanoseconds since the run's epoch.
    pub wall_ns: u64,
    /// CPU nanoseconds the process has used (user + system, all
    /// threads), without those burnt waiting for the pinned device.
    pub cpu_ns: u64,
}

/// Per-segment figures of a timed phase cut into equal-count segments.
#[derive(Debug, Default, PartialEq)]
pub struct Segments {
    /// Logins per wall second, one value per segment.
    pub logins_per_s: Vec<f64>,
    /// Process CPU microseconds per login, one value per segment.
    pub cpu_us_per_login: Vec<f64>,
    /// Median login latency of each segment, microseconds.
    pub p50_us: Vec<f64>,
}

/// Turn `bounds` (the start boundary followed by one boundary per closed
/// segment of `logins_per_segment` logins) and the logins' latencies, in
/// completion order, into per-segment figures.
pub fn segments(bounds: &[Boundary], latencies_ns: &[u64], logins_per_segment: u64) -> Segments {
    let n = logins_per_segment as f64;
    let mut out = Segments::default();
    let per_segment = latencies_ns.chunks_exact(logins_per_segment.max(1) as usize);
    for (pair, latencies) in bounds.windows(2).zip(per_segment) {
        let wall_s = pair[1].wall_ns.saturating_sub(pair[0].wall_ns) as f64 / 1e9;
        let cpu_us = pair[1].cpu_ns.saturating_sub(pair[0].cpu_ns) as f64 / 1e3;
        if wall_s > 0.0 {
            let mut sorted = latencies.to_vec();
            sorted.sort_unstable();
            out.logins_per_s.push(n / wall_s);
            out.cpu_us_per_login.push(cpu_us / n);
            out.p50_us.push(percentile(&sorted, 0.50) as f64 / 1e3);
        }
    }
    out
}

/// Stationarity guard: how far the undisturbed rate of the last third of
/// the segments sits from that of the first third, as a percentage of
/// the latter. Fewer than 30 segments gives 0 (no tenth to speak of).
pub fn drift_pct(rates: &[f64]) -> f64 {
    if rates.len() < 30 {
        return 0.0;
    }
    let third = rates.len() / 3;
    let first = quiet_high(&rates[..third]);
    let last = quiet_high(&rates[rates.len() - third..]);
    if first == 0.0 {
        return 0.0;
    }
    (last - first) / first * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Odd count: the middle element, not an interpolation.
        assert_eq!(percentile(&[10, 20, 1000], 0.5), 20);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// A thousand 1000-login segments of 100 ms each, the first
    /// `slowed` of which a neighbour stretched to 150 ms; every login took
    /// 100 us (150 us in a slowed segment) of latency and of CPU.
    fn run_with_slowed_segments(slowed: usize) -> Segments {
        let mut bounds = vec![Boundary {
            wall_ns: 0,
            cpu_ns: 0,
        }];
        let mut latencies = Vec::new();
        let (mut wall, mut cpu) = (0u64, 0u64);
        for i in 0..1000 {
            let factor = if i < slowed { 3 } else { 2 };
            wall += factor * 50_000_000;
            cpu += factor * 50_000_000;
            bounds.push(Boundary {
                wall_ns: wall,
                cpu_ns: cpu,
            });
            latencies.extend([factor * 50_000; 1000]);
        }
        segments(&bounds, &latencies, 1000)
    }

    #[test]
    fn the_quiet_share_ignores_a_neighbour() {
        // Undisturbed, disturbed half the time, and all but 0.5 % of it.
        for slowed in [0, 500, 995] {
            let seg = run_with_slowed_segments(slowed);
            assert_eq!(seg.logins_per_s.len(), 1000);
            assert_eq!(quiet_high(&seg.logins_per_s), 10_000.0, "{slowed} slowed");
            assert_eq!(quiet_low(&seg.cpu_us_per_login), 100.0, "{slowed} slowed");
            assert_eq!(quiet_low(&seg.p50_us), 100.0, "{slowed} slowed");
        }
        // The median follows the neighbour.
        let seg = run_with_slowed_segments(995);
        assert!(median(&seg.logins_per_s) < 7_000.0);
    }

    #[test]
    fn a_slower_program_is_slower_in_every_segment() {
        // Not noise: all the segments stretched. The quiet share moves.
        let seg = run_with_slowed_segments(1000);
        assert!(quiet_high(&seg.logins_per_s) < 7_000.0);
        assert_eq!(quiet_low(&seg.p50_us), 150.0);
    }

    #[test]
    fn one_lucky_segment_does_not_decide() {
        // Few, long segments: the 4th best of forty stands for the quiet.
        let mut rates = vec![100.0; 40];
        rates[7] = 140.0;
        rates[8] = 104.0;
        rates[9] = 103.0;
        rates[10] = 60.0;
        assert_eq!(quiet_high(&rates), 100.0);
        let mut costs = vec![100.0; 40];
        costs[3] = 70.0;
        assert_eq!(quiet_low(&costs), 100.0);
        // Fewer: the last of the best tenth, which for up to ten is the best.
        assert_eq!(quiet_rank(39), 4);
        assert_eq!(quiet_rank(20), 2);
        assert_eq!(quiet_high(&[5.0, 7.0]), 7.0);
        assert_eq!(quiet_low(&[5.0, 7.0]), 5.0);
        assert_eq!(quiet_high(&[]), 0.0);
        assert_eq!(quiet_low(&[]), 0.0);
    }

    #[test]
    fn segments_need_two_boundaries_and_whole_segments_of_latencies() {
        assert_eq!(segments(&[], &[], 10), Segments::default());
        let one = [Boundary {
            wall_ns: 5,
            cpu_ns: 5,
        }];
        assert_eq!(segments(&one, &[1; 10], 10), Segments::default());
        let two = [
            one[0],
            Boundary {
                wall_ns: 1_000_000_005,
                cpu_ns: 5_005,
            },
        ];
        // Nine latencies do not make a ten-login segment.
        assert_eq!(segments(&two, &[1; 9], 10), Segments::default());
        let seg = segments(&two, &[3_000; 10], 10);
        assert_eq!(seg.logins_per_s, vec![10.0]);
        assert_eq!(seg.cpu_us_per_login, vec![0.5]);
        assert_eq!(seg.p50_us, vec![3.0]);
    }

    #[test]
    fn drift_compares_the_last_third_with_the_first() {
        let flat = [100.0; 30];
        assert_eq!(drift_pct(&flat), 0.0);
        let mut decaying = vec![100.0; 10];
        decaying.extend([80.0; 10]);
        decaying.extend([50.0; 10]);
        assert_eq!(drift_pct(&decaying), -50.0);
        // A burst in the last third is not drift.
        let mut burst = vec![100.0; 30];
        burst[22..28].fill(60.0);
        assert_eq!(drift_pct(&burst), 0.0);
        assert_eq!(drift_pct(&[1.0, 2.0, 3.0]), 0.0);
    }
}
