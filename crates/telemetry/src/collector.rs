//! Cross-site trace assembly and critical-path analysis.
//!
//! In a federated deployment one login's spans land in *different*
//! registries: the visited site records the sshd/PAM/RADIUS-client hops,
//! a transit realm records its forward, and the home site records the
//! OTP validation. A [`TraceCollector`] holds a handle to every site's
//! registry, merges the spans of one [`TraceId`] into a [`TraceTree`],
//! and answers the operator questions behind `GET /system/traces`:
//! which traces are slowest, and *which hop dominated* — breaker wait,
//! retry backoff, window scan, WAL fsync, replication ack, or admission
//! queue.
//!
//! The **critical path** of a tree is computed by walking from the root
//! and descending, at every level, into the child with the longest
//! duration (ties break on earlier start, then smaller span id, so the
//! walk is deterministic). Each hop on the path is attributed its
//! *self-time* — its duration minus the durations of its direct
//! children. Because every span of a trace shares one monotone
//! [`TraceClock`] and execution is synchronous, the self-times of *all*
//! spans in the tree partition the root's end-to-end duration exactly;
//! the acceptance suite pins that invariant.
//!
//! [`TraceClock`]: crate::TraceClock

use crate::registry::MetricsRegistry;
use crate::trace::{SpanId, SpanRecord, TraceId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// An assembled trace: every retained span of one [`TraceId`], merged
/// across the collector's sources and sorted for deterministic walks
/// (by start time, then longest-first so parents precede the children
/// they enclose, then span id).
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The assembled trace.
    pub trace: TraceId,
    /// All spans, sorted by `(start_us, end_us desc, id)`.
    pub spans: Vec<SpanRecord>,
}

/// One hop on a critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalHop {
    /// The hop's span id.
    pub span: SpanId,
    /// Component that recorded it.
    pub component: &'static str,
    /// Operation label.
    pub label: &'static str,
    /// Duration of the hop's span, µs.
    pub duration_us: u64,
    /// The hop's self-time (duration minus direct children), µs.
    pub self_time_us: u64,
}

impl TraceTree {
    /// Build a tree from raw spans (deduplicates by span id, sorts).
    pub(crate) fn from_spans(trace: TraceId, mut spans: Vec<SpanRecord>) -> Option<TraceTree> {
        let mut seen = BTreeSet::new();
        spans.retain(|s| s.trace == trace && seen.insert(s.id));
        if spans.is_empty() {
            return None;
        }
        spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(b.end_us.cmp(&a.end_us))
                .then(a.id.cmp(&b.id))
        });
        Some(TraceTree { trace, spans })
    }

    /// The root span: the first (earliest-start, longest) span whose
    /// parent is absent from the tree.
    pub fn root(&self) -> &SpanRecord {
        let ids: BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .find(|s| s.parent.map(|p| !ids.contains(&p)).unwrap_or(true))
            .unwrap_or(&self.spans[0])
    }

    /// The direct children of `id`, in tree sort order.
    pub(crate) fn children(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.id != id)
            .collect()
    }

    /// End-to-end virtual duration (the root span's duration), µs.
    pub fn duration_us(&self) -> u64 {
        self.root().duration_us()
    }

    /// Self-time of span `id`: its duration minus its direct children's
    /// durations (saturating), µs.
    pub(crate) fn self_time_us(&self, id: SpanId) -> u64 {
        let Some(span) = self.spans.iter().find(|s| s.id == id) else {
            return 0;
        };
        let child_total: u64 = self.children(id).iter().map(|c| c.duration_us()).sum();
        span.duration_us().saturating_sub(child_total)
    }

    /// The critical path: root first, descending into the
    /// longest-duration child at every level (ties break on earlier
    /// start, then smaller span id).
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut cur = self.root();
        loop {
            path.push(CriticalHop {
                span: cur.id,
                component: cur.component,
                label: cur.label,
                duration_us: cur.duration_us(),
                self_time_us: self.self_time_us(cur.id),
            });
            let mut kids = self.children(cur.id);
            kids.sort_by(|a, b| {
                b.duration_us()
                    .cmp(&a.duration_us())
                    .then(a.start_us.cmp(&b.start_us))
                    .then(a.id.cmp(&b.id))
            });
            match kids.first() {
                Some(k) => cur = k,
                None => break,
            }
        }
        path
    }

    /// Self-time summed per component, sorted by component name.
    pub fn self_time_by_component(&self) -> Vec<(String, u64)> {
        let mut by: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *by.entry(s.component).or_default() += self.self_time_us(s.id);
        }
        by.into_iter().map(|(c, us)| (c.to_string(), us)).collect()
    }
}

/// Assembles complete trace trees from one or more registries (one per
/// federated site; a single-site deployment registers just its own).
#[derive(Default)]
pub struct TraceCollector {
    sources: Mutex<Vec<Arc<MetricsRegistry>>>,
}

impl TraceCollector {
    /// New collector with no sources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a site's registry as a span source.
    pub fn add_source(&self, registry: Arc<MetricsRegistry>) {
        self.sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(registry);
    }

    fn sources(&self) -> Vec<Arc<MetricsRegistry>> {
        self.sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Every trace id retained by any source, sorted ascending.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut all = BTreeSet::new();
        for reg in self.sources() {
            all.extend(reg.tracer().trace_ids());
        }
        all.into_iter().collect()
    }

    /// Merge every source's spans for `trace` into one tree.
    pub fn assemble(&self, trace: TraceId) -> Option<TraceTree> {
        let mut spans = Vec::new();
        for reg in self.sources() {
            spans.extend(reg.tracer().spans_for(trace));
        }
        TraceTree::from_spans(trace, spans)
    }

    /// The `n` most recent complete traces (latest root start first;
    /// ties break on trace id descending so the order is total).
    pub fn recent(&self, n: usize) -> Vec<TraceTree> {
        let mut trees: Vec<TraceTree> = self
            .trace_ids()
            .into_iter()
            .filter_map(|t| self.assemble(t))
            .collect();
        trees.sort_by(|a, b| {
            b.root()
                .start_us
                .cmp(&a.root().start_us)
                .then(b.trace.cmp(&a.trace))
        });
        trees.truncate(n);
        trees
    }

    /// The `n` slowest traces by end-to-end duration (slowest first;
    /// ties break on trace id ascending).
    pub fn slowest(&self, n: usize) -> Vec<TraceTree> {
        let mut trees: Vec<TraceTree> = self
            .trace_ids()
            .into_iter()
            .filter_map(|t| self.assemble(t))
            .collect();
        trees.sort_by(|a, b| {
            b.duration_us()
                .cmp(&a.duration_us())
                .then(a.trace.cmp(&b.trace))
        });
        trees.truncate(n);
        trees
    }

    /// Self-time summed per component across every retained trace,
    /// sorted by component name.
    pub fn self_time_by_component(&self) -> Vec<(String, u64)> {
        let mut by: BTreeMap<String, u64> = BTreeMap::new();
        for t in self.trace_ids() {
            if let Some(tree) = self.assemble(t) {
                for (c, us) in tree.self_time_by_component() {
                    *by.entry(c).or_default() += us;
                }
            }
        }
        by.into_iter().collect()
    }
}

/// Render the deterministic critical-path summary block shared by the
/// chaos, attack and federation reports: the slowest trace's end-to-end
/// duration, its critical path (one `component/label` hop per line with
/// self-time), and the per-component self-time breakdown.
pub fn critical_path_summary(tree: &TraceTree) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "critical path: trace {} end_to_end={}us spans={}\n",
        tree.trace,
        tree.duration_us(),
        tree.spans.len()
    ));
    for hop in tree.critical_path() {
        out.push_str(&format!(
            "  {}/{} self={}us total={}us\n",
            hop.component, hop.label, hop.self_time_us, hop.duration_us
        ));
    }
    out.push_str("self-time by component:\n");
    for (component, us) in tree.self_time_by_component() {
        out.push_str(&format!("  {component} {us}us\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanCtx, SpanStatus, TraceClock};

    /// Build a three-level tree on one registry:
    /// root[0..100] > mid[10..90] > leaf[20..50].
    fn rig() -> (Arc<MetricsRegistry>, TraceId) {
        let reg = Arc::new(MetricsRegistry::new());
        let trace = TraceId::from_u64(0xabc);
        let clock = TraceClock::at(0);
        let ctx = SpanCtx::root(trace, clock.clone());
        {
            let root = reg.tracer().start(&ctx, "ssh", "session");
            clock.advance_us(10);
            {
                let mid = reg.tracer().start(&root.child_ctx(), "pam", "stack");
                clock.advance_us(10);
                {
                    let mut leaf =
                        reg.tracer()
                            .start(&mid.child_ctx(), "radius.client", "authenticate");
                    clock.advance_us(30);
                    leaf.set_status(SpanStatus::Ok);
                }
                clock.advance_us(40);
            }
            clock.advance_us(10);
        }
        (reg, trace)
    }

    #[test]
    fn assembles_and_computes_self_times() {
        let (reg, trace) = rig();
        let coll = TraceCollector::new();
        coll.add_source(reg);
        let tree = coll.assemble(trace).expect("trace assembles");
        assert_eq!(tree.spans.len(), 3);
        let root = tree.root();
        assert_eq!(root.component, "ssh");
        assert_eq!(tree.duration_us(), 100);
        // Partition invariant: self-times sum to the end-to-end total.
        assert_eq!(
            tree.spans
                .iter()
                .map(|s| tree.self_time_us(s.id))
                .sum::<u64>(),
            tree.duration_us()
        );
        let path = tree.critical_path();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].component, "ssh");
        assert_eq!(path[0].self_time_us, 20); // 100 - 80
        assert_eq!(path[1].component, "pam");
        assert_eq!(path[1].self_time_us, 50); // 80 - 30
        assert_eq!(path[2].component, "radius.client");
        assert_eq!(path[2].self_time_us, 30);
    }

    #[test]
    fn merges_spans_across_sources() {
        let (reg_a, trace) = rig();
        // A second "site" records one more child of the remote parent.
        let reg_b = Arc::new(MetricsRegistry::new());
        reg_b.tracer().set_namespace("peer");
        let clock = TraceClock::at(25);
        // Parent under the leaf span recorded at site a.
        let leaf_id = reg_a
            .tracer()
            .spans_for(trace)
            .iter()
            .find(|s| s.component == "radius.client")
            .unwrap()
            .id;
        let ctx = SpanCtx {
            trace,
            parent: Some(leaf_id),
            clock: clock.clone(),
        };
        {
            let _g = reg_b.tracer().start(&ctx, "otp", "validate");
            clock.advance_us(10);
        }
        let coll = TraceCollector::new();
        coll.add_source(reg_a);
        coll.add_source(reg_b);
        let tree = coll.assemble(trace).expect("cross-site assembly");
        assert_eq!(tree.spans.len(), 4);
        assert_eq!(tree.children(leaf_id).len(), 1);
        assert_eq!(
            tree.spans
                .iter()
                .map(|s| tree.self_time_us(s.id))
                .sum::<u64>(),
            tree.duration_us()
        );
        let path = tree.critical_path();
        assert_eq!(path.last().unwrap().component, "otp");
    }

    #[test]
    fn slowest_and_recent_order_deterministically() {
        let reg = Arc::new(MetricsRegistry::new());
        for (i, dur) in [(1u64, 50u64), (2, 200), (3, 100)] {
            let trace = TraceId::from_u64(i);
            let clock = TraceClock::at(i * 1_000);
            let ctx = SpanCtx::root(trace, clock.clone());
            let _g = reg.tracer().start(&ctx, "ssh", "session");
            clock.advance_us(dur);
        }
        let coll = TraceCollector::new();
        coll.add_source(reg);
        let slowest: Vec<u64> = coll.slowest(2).iter().map(|t| t.trace.as_u64()).collect();
        assert_eq!(slowest, vec![2, 3]);
        let recent: Vec<u64> = coll.recent(2).iter().map(|t| t.trace.as_u64()).collect();
        assert_eq!(recent, vec![3, 2], "latest root start first");
        let all = coll.self_time_by_component();
        assert_eq!(all, vec![("ssh".to_string(), 350)]);
    }

    #[test]
    fn summary_rendering_is_stable() {
        let (reg, trace) = rig();
        let coll = TraceCollector::new();
        coll.add_source(reg);
        let tree = coll.assemble(trace).unwrap();
        let text = critical_path_summary(&tree);
        assert_eq!(text, critical_path_summary(&tree));
        assert!(text.starts_with(&format!(
            "critical path: trace {trace} end_to_end=100us spans=3\n"
        )));
        assert!(text.contains("  ssh/session self=20us total=100us\n"));
        assert!(text.contains("  radius.client/authenticate self=30us total=30us\n"));
        assert!(text.contains("self-time by component:\n  pam 50us\n"));
    }

    #[test]
    fn orphan_parent_falls_back_to_earliest_root() {
        // A span whose parent was never recorded (e.g. evicted at the
        // far site) still assembles: it is treated as a root candidate.
        let trace = TraceId::from_u64(5);
        let spans = vec![SpanRecord {
            trace,
            id: SpanId::from_u64(10),
            parent: Some(SpanId::from_u64(99)),
            component: "otp",
            label: "validate",
            detail: "",
            status: SpanStatus::Ok,
            start_us: 5,
            end_us: 9,
            attrs: Vec::new(),
        }];
        let tree = TraceTree::from_spans(trace, spans).unwrap();
        assert_eq!(tree.root().id, SpanId::from_u64(10));
        assert_eq!(tree.duration_us(), 4);
    }
}
