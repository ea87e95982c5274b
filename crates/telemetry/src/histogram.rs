//! Log-linear latency histograms.
//!
//! Values (typically microseconds) are binned into buckets that are linear
//! within each power of two: [`SUB`] sub-buckets per octave, so the bucket
//! width is always ≤ 1/[`SUB`] of the value — a fixed ≤ 6.25 % relative
//! error with `SUB = 16`, using a small constant amount of memory
//! ([`NUM_BUCKETS`] slots) across the full `u64` range. The same layout is
//! used by HdrHistogram-style recorders in production metrics systems.
//!
//! [`Histogram`] is the lock-free recording side (atomics only, safe to
//! share behind an `Arc` across login threads). [`HistogramSnapshot`] is
//! the frozen view: mergeable shard-wise (element-wise bucket addition,
//! which is associative and commutative) and queryable for quantiles.

use crate::trace::TraceId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Linear sub-buckets per power of two. 16 keeps the relative quantile
/// error at or below 1/16 = 6.25 %.
pub const SUB: usize = 16;

/// log2(SUB): values below `SUB` get exact single-value buckets.
const SUB_SHIFT: usize = 4;

/// Total bucket count covering all of `u64`: `SUB` exact buckets for
/// values `< SUB`, then `SUB` buckets for each of the 60 octaves
/// `[2^4, 2^64)`.
pub const NUM_BUCKETS: usize = SUB + (64 - SUB_SHIFT) * SUB;

/// The bucket holding `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        SUB + (exp - SUB_SHIFT) * SUB + ((v >> (exp - SUB_SHIFT)) as usize - SUB)
    }
}

/// Smallest value that maps to bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let sub = ((i - SUB) % SUB) as u64;
        let shift = (i - SUB) / SUB;
        (SUB as u64 + sub) << shift
    }
}

/// Exclusive upper bound of bucket `i` (the next bucket's lower bound;
/// `u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        bucket_lower_bound(i + 1)
    } else {
        u64::MAX
    }
}

/// An exemplar: the worst (largest) traced observation that landed in
/// one bucket, linking a histogram back to a concrete trace — rendered
/// in OpenMetrics exemplar syntax so an alerting p99 breach points at
/// the request behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Exemplar {
    /// The bucket the observation landed in.
    pub bucket: usize,
    /// The observed value.
    pub value: u64,
    /// The request that produced it.
    pub trace: TraceId,
}

/// A concurrent log-linear histogram. All methods take `&self`; recording
/// is wait-free (a handful of `Relaxed` atomic ops). Traced recording
/// ([`Histogram::record_traced`]) additionally keeps, per bucket, the
/// worst observation's [`TraceId`] as an `Exemplar` — this takes a
/// short mutex, so only trace-carrying auth-path observations pay it.
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    /// bucket → (worst value, its trace).
    exemplars: Mutex<BTreeMap<usize, (u64, TraceId)>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            exemplars: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Record one observation and keep it as the bucket's exemplar if it
    /// is the worst seen there (ties keep the first, so replays are
    /// deterministic).
    pub fn record_traced(&self, v: u64, trace: TraceId) {
        self.record(v);
        let bucket = bucket_index(v);
        let mut ex = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        match ex.get(&bucket) {
            Some((worst, _)) if *worst >= v => {}
            _ => {
                ex.insert(bucket, (v, trace));
            }
        }
    }

    /// Record the wall-clock microseconds elapsed since `start`.
    pub fn record_elapsed_us(&self, start: std::time::Instant) {
        self.record(start.elapsed().as_micros() as u64);
    }

    /// Freeze the current state. Concurrent recorders may land between the
    /// individual loads, so a snapshot taken mid-burst can be off by the
    /// in-flight observations — totals are exact once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            exemplars: self
                .exemplars
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&bucket, &(value, trace))| Exemplar {
                    bucket,
                    value,
                    trace,
                })
                .collect(),
        }
    }
}

/// A frozen histogram: mergeable across shards and queryable for
/// quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
    /// Per-bucket worst traced observations, sorted by bucket.
    exemplars: Vec<Exemplar>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
            exemplars: Vec::new(),
        }
    }
}

impl HistogramSnapshot {
    /// New empty snapshot (the identity element for [`merge`]).
    ///
    /// [`merge`]: HistogramSnapshot::merge
    pub fn empty() -> Self {
        Self::default()
    }

    /// Fold `other` into `self` (element-wise bucket addition). Merging is
    /// associative and commutative, so shards can be combined in any
    /// order or grouping. Exemplars keep, per bucket, the larger value
    /// (ties break on the smaller trace id, keeping the fold a total
    /// order).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        if !other.exemplars.is_empty() {
            let mut by: BTreeMap<usize, Exemplar> =
                self.exemplars.iter().map(|e| (e.bucket, *e)).collect();
            for e in &other.exemplars {
                match by.get(&e.bucket) {
                    Some(cur)
                        if (cur.value, std::cmp::Reverse(cur.trace))
                            >= (e.value, std::cmp::Reverse(e.trace)) => {}
                    _ => {
                        by.insert(e.bucket, *e);
                    }
                }
            }
            self.exemplars = by.into_values().collect();
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (wrapping on overflow, matching the
    /// atomic recorder, so merged shards equal a single-shard run).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Per-bucket counts (index with [`bucket_lower_bound`] /
    /// [`bucket_upper_bound`] for the value ranges).
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The observations gained since `earlier` (element-wise bucket
    /// subtraction), for windowed views over a cumulative series: the
    /// alert engine diffs two snapshots of the same histogram to ask
    /// "what was the p99 of the last N seconds". `earlier` must be a
    /// previous snapshot of the same recorder; `count` is recomputed
    /// from the bucket deltas, `max`/`min` are the later snapshot's
    /// (the tightest bounds derivable without per-window extremes), so
    /// quantiles of the delta stay upper estimates exactly like the
    /// base quantile contract.
    pub(crate) fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.wrapping_sub(earlier.sum),
            max: self.max,
            min: self.min,
            // Exemplars are cumulative worst-per-bucket; the later
            // snapshot's are the best available view of the window.
            exemplars: self.exemplars.clone(),
        }
    }

    /// Per-bucket worst traced observations, sorted by bucket (empty
    /// unless [`Histogram::record_traced`] was used).
    pub(crate) fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// The value at quantile `q` in `[0, 1]`: an upper estimate off by at
    /// most one bucket width (≤ 6.25 % relative error), clamped to the
    /// observed maximum, and monotone non-decreasing in `q`. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(i).saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
            assert_eq!(bucket_upper_bound(v as usize), v + 1);
        }
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper_bound(i),
                bucket_lower_bound(i + 1),
                "gap or overlap at bucket {i}"
            );
            assert!(bucket_lower_bound(i) < bucket_upper_bound(i));
        }
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn extreme_values_stay_in_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(
            bucket_index(bucket_lower_bound(NUM_BUCKETS - 1)),
            NUM_BUCKETS - 1
        );
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [17u64, 100, 999, 12_345, 1_000_000, 987_654_321] {
            h.record(v);
        }
        let s = h.snapshot();
        // Each value is the only one at its rank slot; check the bucket
        // estimate never exceeds ~1/SUB relative error.
        for (q, v) in [(0.0, 17u64), (1.0, 987_654_321)] {
            let est = s.quantile(q);
            assert!(est >= v, "q={q}: {est} < {v}");
            assert!(
                (est - v) as f64 <= v as f64 / SUB as f64,
                "q={q}: {est} vs {v}"
            );
        }
    }

    #[test]
    fn uniform_distribution_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        for (q, truth) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / SUB as f64),
                "q={q}: {est} too far above {truth}"
            );
        }
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 100);
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(0.0), 100);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn merge_matches_single_recorder() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            whole.record(v * 7 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(100);
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(8_000);
        }
        let delta = h.snapshot().delta_since(&before);
        assert_eq!(delta.count(), 10);
        assert_eq!(delta.sum(), 80_000);
        // Only the window's observations shape the quantiles.
        assert!(delta.quantile(0.5) >= 8_000);
        // An empty window is the identity delta.
        let snap = h.snapshot();
        let none = snap.delta_since(&snap);
        assert_eq!(none.count(), 0);
        assert_eq!(none.quantile(0.99), 0);
    }

    #[test]
    fn exemplars_keep_the_worst_observation_per_bucket() {
        let h = Histogram::new();
        let t1 = TraceId::from_u64(1);
        let t2 = TraceId::from_u64(2);
        let t3 = TraceId::from_u64(3);
        h.record(5); // untraced: no exemplar
        h.record_traced(100, t1);
        h.record_traced(101, t2); // same bucket, worse value: replaces
        h.record_traced(101, t3); // tie: first stays (deterministic)
        h.record_traced(9_000, t3);
        let s = h.snapshot();
        let ex = s.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].bucket, bucket_index(101));
        assert_eq!(ex[0].value, 101);
        assert_eq!(ex[0].trace, t2);
        assert_eq!(ex[1].value, 9_000);
        assert_eq!(ex[1].trace, t3);
        // Plain record() never creates exemplars.
        assert!(Histogram::new().snapshot().exemplars().is_empty());
    }

    #[test]
    fn exemplar_merge_is_associative_and_commutative() {
        let mk = |v: u64, trace: u64| {
            let h = Histogram::new();
            h.record_traced(v, TraceId::from_u64(trace));
            h.snapshot()
        };
        let (a, b, c) = (mk(100, 1), mk(101, 2), mk(101, 9));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutative");
        // Tie between b (trace 2) and c (trace 9): smaller trace wins.
        assert_eq!(left.exemplars().last().unwrap().trace, TraceId::from_u64(2));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
        assert_eq!(h.snapshot().bucket_counts().iter().sum::<u64>(), 40_000);
    }
}
