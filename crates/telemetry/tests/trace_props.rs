//! Property tests for hierarchical timed spans and trace assembly.
//!
//! Three contracts are pinned:
//!
//! 1. **Partition** — for any nesting of spans on one virtual clock, the
//!    per-span self-times sum exactly to the root's end-to-end duration
//!    (nothing double-counted, nothing lost), and the critical path is a
//!    real root-to-leaf chain with non-increasing hop durations.
//! 2. **Whole-trace eviction** — the tracer ring never retains a
//!    truncated tree: past the cap, the oldest trace's spans are evicted
//!    *together*, and `dropped()` accounts for every evicted span.
//! 3. **Documented orders** — `trace_ids()` (ascending numeric) and
//!    `components_for()` (ascending lexicographic) are sorted contracts,
//!    not storage accidents.
//! 4. **The ring it replaced** — the per-trace ring retains, drops and
//!    lists exactly what the arrival-ordered `VecDeque` + `retain` tracer
//!    before it did ([`RetainRing`], kept here as the model), span for
//!    span, under interleaved traces, stragglers, oversized traces and
//!    forgotten tombstones.

use hpcmfa_telemetry::trace::DEFAULT_TRACER_CAP;
use hpcmfa_telemetry::{MetricsRegistry, SpanCtx, TraceClock, TraceCollector, TraceId, Tracer};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// The tracer's own (private) tombstone bound.
const EVICTED_MEMORY: usize = 1_024;

/// The tracer as it was before spans were grouped per trace: one queue
/// of spans in arrival order, the oldest span's trace evicted by a
/// `retain` over the whole queue, tombstones in a list searched span by
/// span. A span is its trace and its detail.
struct RetainRing {
    spans: VecDeque<(TraceId, String)>,
    cap: usize,
    dropped: u64,
    evicted: VecDeque<TraceId>,
}

impl RetainRing {
    fn with_cap(cap: usize) -> Self {
        RetainRing {
            spans: VecDeque::new(),
            cap,
            dropped: 0,
            evicted: VecDeque::new(),
        }
    }

    fn insert(&mut self, trace: TraceId, detail: String) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.evicted.contains(&trace) {
            self.dropped += 1;
            return;
        }
        while self.spans.len() >= self.cap {
            let victim = self.spans.front().expect("len >= cap >= 1").0;
            let before = self.spans.len();
            self.spans.retain(|s| s.0 != victim);
            self.dropped += (before - self.spans.len()) as u64;
            if self.evicted.len() >= EVICTED_MEMORY {
                self.evicted.pop_front();
            }
            self.evicted.push_back(victim);
            if victim == trace {
                self.dropped += 1;
                return;
            }
        }
        self.spans.push_back((trace, detail));
    }

    fn spans_for(&self, trace: TraceId) -> Vec<String> {
        self.spans
            .iter()
            .filter(|s| s.0 == trace)
            .map(|s| s.1.clone())
            .collect()
    }

    fn trace_ids(&self) -> Vec<TraceId> {
        let ids: BTreeSet<TraceId> = self.spans.iter().map(|s| s.0).collect();
        ids.into_iter().collect()
    }
}

/// The detail of the `n`-th span a [`Pair`] records: its number. Span
/// details are `&'static str`, so each number is leaked once and shared
/// by every pair that reaches it.
fn nth_detail(n: u64) -> &'static str {
    static DETAILS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut details = DETAILS.lock().unwrap();
    while details.len() as u64 <= n {
        let next = details.len().to_string();
        details.push(Box::leak(next.into_boxed_str()));
    }
    details[n as usize]
}

/// A tracer and its model fed the same spans, compared after each one.
struct Pair {
    tracer: Tracer,
    model: RetainRing,
    /// Every trace id either has been handed.
    seen: BTreeSet<TraceId>,
    recorded: u64,
}

impl Pair {
    fn with_cap(cap: usize) -> Self {
        Pair {
            tracer: Tracer::with_cap(cap),
            model: RetainRing::with_cap(cap),
            seen: BTreeSet::new(),
            recorded: 0,
        }
    }

    fn span(&mut self, trace: u64) {
        let trace = TraceId::from_u64(trace);
        let detail = nth_detail(self.recorded);
        self.recorded += 1;
        self.seen.insert(trace);
        self.tracer.span(trace, "t", "op", detail);
        self.model.insert(trace, detail.to_string());

        let at = self.recorded;
        assert_eq!(self.tracer.len(), self.model.spans.len(), "len, span {at}");
        assert_eq!(
            self.tracer.dropped(),
            self.model.dropped,
            "dropped, span {at}"
        );
        assert_eq!(
            self.tracer.len() as u64 + self.tracer.dropped(),
            self.recorded
        );
        assert_eq!(self.tracer.trace_ids(), self.model.trace_ids(), "span {at}");
        for &id in &self.seen {
            let held: Vec<String> = self
                .tracer
                .spans_for(id)
                .into_iter()
                .map(|s| s.detail.to_string())
                .collect();
            assert_eq!(held, self.model.spans_for(id), "trace {id}, span {at}");
        }
    }
}

/// A randomly shaped span tree: virtual-clock advances before and after
/// the children, up to depth 4 and fan-out 4.
#[derive(Debug, Clone)]
struct Node {
    pre_us: u16,
    tail_us: u16,
    children: Vec<Node>,
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = (0u16..500, 0u16..500).prop_map(|(pre_us, tail_us)| Node {
        pre_us,
        tail_us,
        children: Vec::new(),
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (0u16..500, 0u16..500, prop::collection::vec(inner, 0..4)).prop_map(
            |(pre_us, tail_us, children)| Node {
                pre_us,
                tail_us,
                children,
            },
        )
    })
}

/// Record `node` as a span under `ctx`, recursing into its children on
/// the child context (so they parent under this span on the same clock).
fn build(tracer: &Tracer, ctx: &SpanCtx, node: &Node) {
    let guard = tracer.start(ctx, "node", "op");
    let child_ctx = guard.child_ctx();
    child_ctx.clock.advance_us(u64::from(node.pre_us));
    for child in &node.children {
        build(tracer, &child_ctx, child);
    }
    child_ctx.clock.advance_us(u64::from(node.tail_us));
    guard.finish();
}

proptest! {
    /// For ANY tree shape, self-times partition the root duration and the
    /// critical path is a real, non-increasing root-to-leaf chain.
    fn self_times_partition_root_duration(root in arb_node()) {
        let reg = Arc::new(MetricsRegistry::new());
        let trace = TraceId::from_u64(0x9999);
        let ctx = SpanCtx::root(trace, TraceClock::at(1_000));
        build(reg.tracer(), &ctx, &root);

        let collector = TraceCollector::new();
        collector.add_source(Arc::clone(&reg));
        let tree = collector.assemble(trace).expect("one trace assembles");

        let total: u64 = tree.self_time_by_component().iter().map(|&(_, us)| us).sum();
        prop_assert_eq!(total, tree.duration_us(), "self-times must partition the total");

        let path = tree.critical_path();
        prop_assert!(!path.is_empty());
        prop_assert_eq!(path[0].duration_us, tree.duration_us());
        prop_assert!(
            path.windows(2).all(|w| w[1].duration_us <= w[0].duration_us),
            "hop durations must be non-increasing: {:?}", path
        );
        for hop in &path {
            prop_assert!(
                tree.spans.iter().any(|s| s.id == hop.span),
                "critical-path hop {:?} is not a span of the tree", hop
            );
        }
    }

    /// Ring eviction is whole-trace: retained traces are always complete,
    /// `len() + dropped()` accounts for every recorded span, and the
    /// survivors are exactly the most recently started traces.
    fn ring_eviction_drops_whole_oldest_traces(
        cap in 1usize..40,
        per in 1usize..6,
        n in 1usize..20,
    ) {
        let tracer = Tracer::with_cap(cap);
        let clock = TraceClock::at(0);
        for i in 0..n {
            let ctx = SpanCtx::root(TraceId::from_u64(1 + i as u64), clock.clone());
            for _ in 0..per {
                clock.advance_us(5);
                tracer.start(&ctx, "t", "op").finish();
            }
        }
        let recorded = (n * per) as u64;
        prop_assert_eq!(tracer.len() as u64 + tracer.dropped(), recorded);
        for t in tracer.trace_ids() {
            prop_assert_eq!(
                tracer.spans_for(t).len(), per,
                "retained trace {} is truncated", t
            );
        }
        // Survivors are a contiguous suffix of the insertion order: the
        // oldest trace is always the next victim.
        let ids: Vec<u64> = tracer.trace_ids().iter().map(|t| t.as_u64()).collect();
        if let Some(&min) = ids.first() {
            let expect: Vec<u64> = (min..=n as u64).collect();
            prop_assert_eq!(ids, expect);
        }
    }

    /// Two logins in flight at any time, their spans interleaved; a
    /// finished login's trace still gets the odd straggler. With caps
    /// this small some logins outgrow the ring, and most stragglers find
    /// their trace evicted.
    fn per_trace_ring_matches_the_retain_ring(
        cap in 0usize..12,
        script in prop::collection::vec((0u8..10, any::<u8>()), 1..160),
    ) {
        let mut pair = Pair::with_cap(cap);
        let mut in_flight = [1u64, 2];
        let mut next = 3;
        for (kind, pick) in script {
            let slot = usize::from(pick % 2);
            match kind {
                0..=6 => pair.span(in_flight[slot]),
                7 => {
                    in_flight[slot] = next;
                    next += 1;
                }
                _ => pair.span(1 + u64::from(pick) % next),
            }
        }
    }

    /// `trace_ids()` is ascending numeric and `components_for()` is
    /// ascending lexicographic, regardless of recording order.
    fn listing_orders_are_sorted(seeds in prop::collection::vec(0u64..1_000, 1..20)) {
        let tracer = Tracer::new();
        let comps: [&str; 4] = ["delta", "alpha", "charlie", "bravo"];
        for (i, &s) in seeds.iter().enumerate() {
            tracer.span(TraceId::from_u64(s), comps[i % comps.len()], "op", "");
        }
        let ids = tracer.trace_ids();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "trace_ids not sorted: {:?}", ids);
        for t in ids {
            let cs = tracer.components_for(t);
            prop_assert!(
                cs.windows(2).all(|w| w[0] < w[1]),
                "components_for not sorted: {:?}", cs
            );
        }
    }
}

/// Past `EVICTED_MEMORY` evictions the oldest tombstones are forgotten:
/// a straggler of a forgotten trace is retained again as a trace of its
/// own, one of a remembered trace is still dropped — on both sides.
#[test]
fn forgotten_tombstones_match_the_retain_ring() {
    let mut pair = Pair::with_cap(6);
    // Two interleaved logins, the second longer than the ring.
    for _ in 0..3 {
        pair.span(1);
        pair.span(2);
    }
    for _ in 0..8 {
        pair.span(2);
    }
    // One-span traces: every one past the cap evicts another.
    let churn = 10 + EVICTED_MEMORY as u64 + 40;
    for trace in 10..churn {
        pair.span(trace);
        if trace % 97 == 0 {
            pair.span(trace - 50); // evicted and remembered
        }
    }
    assert!(pair.model.dropped > EVICTED_MEMORY as u64);
    let before = pair.tracer.len();
    pair.span(1); // evicted first, forgotten by now
    pair.span(1);
    assert_eq!(pair.tracer.spans_for(TraceId::from_u64(1)).len(), 2);
    pair.span(churn - 20); // evicted, still remembered
    assert!(pair
        .tracer
        .spans_for(TraceId::from_u64(churn - 20))
        .is_empty());
    assert_eq!(pair.tracer.len(), before);
}

/// Complexity guard, run by name under `timeout` from `scripts/ci.sh`: a
/// million spans, 16 to a trace as an ssh login's are, through a ring of
/// the default size, which is full for all but the first 65 536. Evicting
/// with `retain` moved every retained span once per trace, about a
/// minute of this; grouped per trace it is well under a second. The
/// assertions are counts, the stopwatch is CI's.
#[test]
fn a_full_default_ring_takes_a_million_spans() {
    const PER_TRACE: usize = 16;
    const TRACES: usize = 1_000_000 / PER_TRACE;
    let tracer = Tracer::new();
    let clock = TraceClock::at(0);
    for trace in 0..TRACES {
        let ctx = SpanCtx::root(TraceId::from_u64(trace as u64), clock.clone());
        for _ in 0..PER_TRACE {
            tracer.start(&ctx, "t", "op").finish();
        }
    }
    assert_eq!(tracer.len(), DEFAULT_TRACER_CAP);
    assert_eq!(
        tracer.len() as u64 + tracer.dropped(),
        (TRACES * PER_TRACE) as u64
    );
    // The survivors are the newest traces, every one of them whole.
    let kept = DEFAULT_TRACER_CAP / PER_TRACE;
    let newest: Vec<TraceId> = (TRACES - kept..TRACES)
        .map(|t| TraceId::from_u64(t as u64))
        .collect();
    assert_eq!(tracer.trace_ids(), newest);
    for trace in newest {
        assert_eq!(tracer.spans_for(trace).len(), PER_TRACE);
    }
}
