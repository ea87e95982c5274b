//! Benchmark-owned spans: collection, self-time arithmetic, JSON dump.
//!
//! Spans are recorded from this package's own decorators around the
//! calls into each layer (see `sut.rs`); nothing here touches the system
//! under test. Spans stay in memory and are written out at exit.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a login's root.
    pub parent: u64,
    /// Shared by every span of one login.
    pub login: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span a thread is currently inside: new spans on that thread
/// parent under it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Current {
    pub login: u64,
    pub span: u64,
    pub user: u32,
}

thread_local! {
    static CURRENT: Cell<Current> = const { Cell::new(Current { login: 0, span: 0, user: 0 }) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub fn current() -> Current {
    CURRENT.with(Cell::get)
}

/// Replace the thread's current span, returning the previous one so the
/// caller can restore it.
pub fn set_current(c: Current) -> Current {
    CURRENT.with(|cell| cell.replace(c))
}

const SHARDS: usize = 16;

/// In-memory span sink. Each recording thread appends to its own shard,
/// so the lock it takes is never contended.
pub struct Collector {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    next_shard: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            next_shard: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        let shard = SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed) as usize % SHARDS);
            }
            s.get()
        });
        self.shards[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Open a span under the thread's current one, run `f` inside it
    /// (handing it the span's id), and record it. A disabled collector
    /// just runs `f` with id 0.
    pub fn scoped<T>(&self, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled() {
            return f(0);
        }
        let outer = current();
        let id = self.next_id();
        set_current(Current { span: id, ..outer });
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        set_current(outer);
        self.record(Span {
            id,
            parent: outer.span,
            login: outer.login,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Take every recorded span, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().unwrap_or_else(|e| e.into_inner()));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// A collector plus the table that carries a login's identity across the
/// UDP hop: before a client sends a request it publishes, under the
/// request's user, the login and the span the server's work belongs to.
pub struct Tracing {
    pub collector: Collector,
    in_flight: Vec<(AtomicU64, AtomicU64)>,
}

impl Tracing {
    pub fn new(users: u32) -> Self {
        Tracing {
            collector: Collector::new(),
            in_flight: (0..users)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    pub fn publish(&self, user: u32, login: u64, span: u64) {
        let slot = &self.in_flight[user as usize];
        slot.0.store(login, Ordering::SeqCst);
        slot.1.store(span, Ordering::SeqCst);
    }

    /// The `(login, span)` last published for `user`.
    pub fn lookup(&self, user: u32) -> (u64, u64) {
        let slot = &self.in_flight[user as usize];
        (slot.0.load(Ordering::SeqCst), slot.1.load(Ordering::SeqCst))
    }
}

/// Total self time per span name: each span's duration minus the part
/// of its interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Share of the logins' latency that the instrumented layers account
/// for: the self times of every non-root span over the root durations.
pub fn closure_pct(spans: &[Span], selfs: &BTreeMap<&'static str, u64>, root: &str) -> f64 {
    let latency: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::duration_ns)
        .sum();
    if latency == 0 {
        return 0.0;
    }
    let layers: u64 = selfs
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, ns)| *ns)
        .sum();
    layers as f64 / latency as f64 * 100.0
}

/// Write `spans` as one JSON array.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"login\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.login, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            login: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    /// client 0..1000 > udp 100..900 > handler 300..800 > flush 400..700
    fn nested() -> Vec<Span> {
        vec![
            span(1, 0, "client", 0, 1000),
            span(2, 1, "udp_ingest", 100, 900),
            span(3, 2, "handler", 300, 800),
            span(4, 3, "storage_flush", 400, 700),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let selfs = self_times(&nested());
        assert_eq!(selfs["client"], 200);
        assert_eq!(selfs["udp_ingest"], 300);
        assert_eq!(selfs["handler"], 200);
        assert_eq!(selfs["storage_flush"], 300);
        // Self times partition the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 1000);
    }

    #[test]
    fn closure_is_the_layers_share_of_the_latency() {
        let spans = nested();
        let selfs = self_times(&spans);
        // Everything but the root's own 200 ns is attributed to a layer.
        assert_eq!(closure_pct(&spans, &selfs, "client"), 80.0);
        assert_eq!(closure_pct(&[], &BTreeMap::new(), "client"), 0.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(1, 0, "client", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "a", 140, 170), // overlaps the first child
            span(4, 1, "a", 190, 250), // hangs past the parent's end
        ];
        let selfs = self_times(&spans);
        // Covered: 110..170 and 190..200 = 70 of the parent's 100.
        assert_eq!(selfs["client"], 30);
        assert_eq!(selfs["a"], 40 + 30 + 60);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span(1, 0, "client", 0, 100),
            span(2, 1, "udp_ingest", 0, 40),
            span(3, 1, "udp_ingest", 50, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["udp_ingest"], 90);
        assert_eq!(selfs["client"], 10);
    }

    #[test]
    fn scoped_nests_under_the_thread_current_span() {
        let c = Collector::new();
        assert_eq!(c.scoped("off", |_| 5), 5);
        assert!(c.drain().is_empty(), "disabled collector records nothing");
        c.set_enabled(true);
        set_current(Current {
            login: 9,
            span: 100,
            user: 3,
        });
        c.scoped("outer", |id| {
            assert_eq!(current().span, id);
            assert_eq!(current().login, 9);
            assert_eq!(current().user, 3);
            c.scoped("inner", |_| ());
        });
        assert_eq!(current().span, 100, "current span restored");
        set_current(Current::default());
        let spans = c.drain();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.parent, 100);
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.login, inner.login), (9, 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
