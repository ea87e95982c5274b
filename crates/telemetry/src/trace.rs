//! Hierarchical timed request tracing.
//!
//! A [`TraceId`] is minted once per login attempt (by the SSH daemon as it
//! builds the PAM context) and carried across every hop of the auth path:
//! the PAM token module forwards it to the RADIUS client, the client
//! encodes it as a vendor-specific attribute on the wire, proxies copy it
//! upstream, and the OTP server stamps it into its audit rows. Each
//! component opens a timed [`SpanGuard`] around its hop, so one login's
//! journey can be reconstructed end to end as a *tree*: every span has a
//! [`SpanId`], an optional parent, virtual-clock start/end timestamps, a
//! [`SpanStatus`], and typed attributes — the reproduction's stand-in for
//! grepping LinOTP and FreeRADIUS logs by timestamp (§3.2), upgraded so an
//! operator can ask *which hop dominated the latency*.
//!
//! Ids must be *deterministic*: chaos and durability scenarios build two
//! identical worlds in one process and demand byte-identical reports, so
//! trace ids are derived from a stable namespace (hash of the daemon name)
//! and a per-daemon sequence number, and span ids from the tracer's own
//! namespace and a per-tracer sequence, rather than process-global
//! counters. [`TraceId::mint`] exists as a process-global fallback for
//! contexts built outside a daemon (unit tests, ad-hoc harnesses).
//!
//! Timestamps are *virtual* microseconds read from the per-login
//! [`TraceClock`] threaded through the stack in a [`SpanCtx`]. Components
//! advance the clock by their modeled costs, and the RADIUS wire carries the clock value across hops
//! (see `hpcmfa-radius`'s `tracewire`), so a cross-site trace tree has one
//! monotone time basis and self-times partition the end-to-end duration.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans retained by a [`Tracer`] before the oldest traces are evicted.
pub const DEFAULT_TRACER_CAP: usize = 65_536;

/// SplitMix64: a full-period mixing function; distinct inputs give
/// well-scattered outputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A stable 64-bit namespace for [`TraceId::derive`], hashed from a
/// component name (FNV-1a then mixed).
pub fn namespace(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// A 64-bit request-trace identifier, rendered as 16 lowercase hex
/// digits everywhere (display, audit details, metrics).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// Process-global sequence for [`TraceId::mint`].
static MINTED: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    /// Wrap a raw id (e.g. decoded from the RADIUS vendor attribute).
    pub fn from_u64(v: u64) -> Self {
        TraceId(v)
    }

    /// The raw id (e.g. for wire encoding).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Deterministically derive the `seq`-th id in `namespace`. Identical
    /// `(namespace, seq)` pairs always yield the same id, so two
    /// identically-constructed simulations produce identical traces.
    pub fn derive(namespace: u64, seq: u64) -> Self {
        TraceId(splitmix64(namespace ^ splitmix64(seq)))
    }

    /// Mint a fresh id from a process-global sequence. Not deterministic
    /// across differently-interleaved runs — simulation code paths use
    /// [`TraceId::derive`] instead.
    pub fn mint() -> Self {
        TraceId::derive(
            namespace("hpcmfa.mint"),
            MINTED.fetch_add(1, Ordering::Relaxed),
        )
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceId({:016x})", self.0)
    }
}

/// A 64-bit span identifier, unique within a trace (and across the
/// tracers of a federation when each site names its tracer). Zero is
/// reserved as the "no span" sentinel on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// Wrap a raw id (e.g. decoded from the RADIUS vendor attribute).
    /// Zero is the wire sentinel for "no parent" and is remapped.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            SpanId(0x9e37_79b9_7f4a_7c15)
        } else {
            SpanId(v)
        }
    }

    /// The raw id (e.g. for wire encoding). Never zero.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The 16-hex-digit rendering (same as `Display`).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanId({:016x})", self.0)
    }
}

/// The terminal disposition of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SpanStatus {
    /// The hop completed normally.
    #[default]
    Ok,
    /// The hop failed (timeout, unreachable pool, fsync failure, …).
    Error,
    /// The hop was shed by admission control before doing real work.
    Shed,
    /// The hop completed in a degraded mode (fail-open exemption,
    /// discard-policy realm, stale standby, …).
    Degraded,
}

impl SpanStatus {
    /// Stable snake_case label used in rendered trees and JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
            SpanStatus::Shed => "shed",
            SpanStatus::Degraded => "degraded",
        }
    }
}

impl fmt::Display for SpanStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed span attribute value (never secrets or token codes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// Free-form string (server name, realm, outcome, …).
    Str(String),
    /// Unsigned quantity (attempt count, queue depth, scanned steps, …).
    U64(u64),
    /// Boolean flag.
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The per-login virtual clock, in microseconds. Shared (cheaply cloned)
/// by every span of a trace so the tree has a single monotone time
/// basis; components advance it by their modeled costs and fast-forward
/// it from clock values returned on the wire.
#[derive(Clone, Debug, Default)]
pub struct TraceClock(Arc<AtomicU64>);

impl TraceClock {
    /// A clock starting at `us` microseconds.
    pub fn at(us: u64) -> Self {
        TraceClock(Arc::new(AtomicU64::new(us)))
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advance by `us` and return the new time.
    pub fn advance_us(&self, us: u64) -> u64 {
        self.0.fetch_add(us, Ordering::Relaxed) + us
    }

    /// Advance to at least `to_us` (monotone; never goes backwards).
    pub fn fast_forward_us(&self, to_us: u64) {
        self.0.fetch_max(to_us, Ordering::Relaxed);
    }
}

/// The propagation context a component needs to open a child span:
/// which trace, under which parent, on which clock. Threaded through the
/// PAM context and (trace, parent, clock) over the RADIUS wire.
#[derive(Clone, Debug)]
pub struct SpanCtx {
    /// The request this context belongs to.
    pub trace: TraceId,
    /// The span to parent new spans under (`None` at the root).
    pub parent: Option<SpanId>,
    /// The trace's shared virtual clock.
    pub clock: TraceClock,
}

impl SpanCtx {
    /// A root context for `trace` on `clock`.
    pub fn root(trace: TraceId, clock: TraceClock) -> Self {
        SpanCtx {
            trace,
            parent: None,
            clock,
        }
    }
}

/// One timed hop of one traced request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// This span's id (unique within the trace).
    pub id: SpanId,
    /// The enclosing span, if any (`None` for the root).
    pub parent: Option<SpanId>,
    /// Which component recorded it (`ssh`, `pam`, `radius.client`,
    /// `radius.proxy`, `radius.realm`, `otp`).
    pub component: &'static str,
    /// Short operation label (`session`, `authenticate`, `forward`,
    /// `validate`, `wal_fsync`, …).
    pub label: &'static str,
    /// Free-form detail (outcome, server name, attempt count; never
    /// secrets or token codes).
    pub detail: String,
    /// Terminal disposition.
    pub status: SpanStatus,
    /// Virtual start time, µs on the trace clock.
    pub start_us: u64,
    /// Virtual end time, µs on the trace clock (`>= start_us`).
    pub end_us: u64,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// The span's wall (virtual) duration.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// How many evicted trace ids the tracer remembers. A straggler span of
/// an evicted trace arriving after the eviction would otherwise re-enter
/// the ring as a truncated tree.
const EVICTED_MEMORY: usize = 1_024;

/// What the tracer holds for one trace id.
enum Held {
    /// Its retained spans, in recording order.
    Spans(Vec<SpanRecord>),
    /// Nothing: the trace was evicted recently, and its stragglers are
    /// dropped rather than retained as a truncated tree.
    Tombstone,
}

/// The ring, grouped per trace so that evicting one is a pop and one
/// removal however many spans the others hold.
struct TracerInner {
    traces: BTreeMap<TraceId, Held>,
    /// The traces with retained spans, by the arrival of their first:
    /// the front is the next victim.
    arrival: VecDeque<TraceId>,
    /// The tombstoned traces (at most [`EVICTED_MEMORY`]), oldest first:
    /// the front is the next forgotten.
    evicted: VecDeque<TraceId>,
    /// Retained spans over all traces.
    len: usize,
    cap: usize,
    dropped: u64,
}

impl TracerInner {
    fn spans_of(&self, trace: TraceId) -> &[SpanRecord] {
        match self.traces.get(&trace) {
            Some(Held::Spans(spans)) => spans,
            _ => &[],
        }
    }

    /// Evict the oldest retained trace whole and leave its tombstone.
    fn evict_oldest(&mut self) -> Option<TraceId> {
        let victim = self.arrival.pop_front()?;
        if let Some(Held::Spans(spans)) = self.traces.insert(victim, Held::Tombstone) {
            self.len -= spans.len();
            self.dropped += spans.len() as u64;
        }
        if self.evicted.len() >= EVICTED_MEMORY {
            if let Some(forgotten) = self.evicted.pop_front() {
                self.traces.remove(&forgotten);
            }
        }
        self.evicted.push_back(victim);
        Some(victim)
    }

    /// Insert a finished span, evicting whole traces (oldest first) past
    /// the cap. If the incoming span's own trace is the oldest and the
    /// ring is full, the entire trace — incoming span included — is
    /// dropped. Stragglers of any recently evicted trace are dropped
    /// too, so retained trees are never truncated.
    fn insert(&mut self, rec: SpanRecord) {
        if self.cap == 0 || matches!(self.traces.get(&rec.trace), Some(Held::Tombstone)) {
            self.dropped += 1;
            return;
        }
        while self.len >= self.cap {
            if self.evict_oldest() == Some(rec.trace) {
                self.dropped += 1;
                return;
            }
        }
        self.len += 1;
        if let Some(Held::Spans(spans)) = self.traces.get_mut(&rec.trace) {
            spans.push(rec);
        } else {
            self.arrival.push_back(rec.trace);
            self.traces.insert(rec.trace, Held::Spans(vec![rec]));
        }
    }
}

/// A bounded, thread-safe span buffer shared by every component on the
/// auth path (one per [`MetricsRegistry`]).
///
/// Ring eviction is *whole-trace*: when the cap is exceeded, every span
/// of the oldest retained [`TraceId`] is evicted together, so
/// [`Tracer::spans_for`] never returns a truncated tree. The
/// [`Tracer::dropped`] counter still counts individual evicted spans.
///
/// [`MetricsRegistry`]: crate::MetricsRegistry
pub struct Tracer {
    inner: Mutex<TracerInner>,
    /// Namespace mixed into span ids (set per site so federated sites
    /// can't collide); defaults to `namespace("tracer")`.
    ns: AtomicU64,
    /// Per-tracer span-id sequence.
    seq: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_cap(DEFAULT_TRACER_CAP)
    }
}

impl Tracer {
    /// New tracer with the default retention cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// New tracer retaining at most `cap` spans (whole-trace ring
    /// eviction).
    pub fn with_cap(cap: usize) -> Self {
        Tracer {
            inner: Mutex::new(TracerInner {
                traces: BTreeMap::new(),
                arrival: VecDeque::new(),
                evicted: VecDeque::new(),
                len: 0,
                cap,
                dropped: 0,
            }),
            ns: AtomicU64::new(namespace("tracer")),
            seq: AtomicU64::new(0),
        }
    }

    /// Name the tracer's span-id namespace (e.g. the site name), so
    /// federated sites assembling one trace can never collide on span
    /// ids. Deterministic: same name, same ids.
    pub fn set_namespace(&self, name: &str) {
        self.ns.store(namespace(name), Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Next deterministic span id for `trace`.
    fn next_id(&self, trace: TraceId) -> SpanId {
        let ns = self.ns.load(Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        SpanId::from_u64(splitmix64(
            ns ^ splitmix64(trace.as_u64() ^ splitmix64(seq)),
        ))
    }

    /// Open a timed span under `ctx`. The returned guard records the
    /// span when dropped (or when [`SpanGuard::finish`] is called); its
    /// end time is read from the context's clock at that moment.
    /// `component` and `label` are static so the hot path allocates
    /// nothing until the span is recorded.
    pub fn start<'t>(
        &'t self,
        ctx: &SpanCtx,
        component: &'static str,
        label: &'static str,
    ) -> SpanGuard<'t> {
        SpanGuard {
            tracer: self,
            open: Some(DetachedSpan {
                trace: ctx.trace,
                id: self.next_id(ctx.trace),
                parent: ctx.parent,
                component,
                label,
                clock: ctx.clock.clone(),
                start_us: ctx.clock.now_us(),
                status: SpanStatus::Ok,
                detail: String::new(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Take back a span that [`SpanGuard::detach`] let go of: the guard
    /// records it here when dropped, as if it had never left.
    pub fn attach(&self, span: DetachedSpan) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            open: Some(span),
        }
    }

    /// Record one point span for `trace` (no parent, zero duration).
    /// Retained for ad-hoc annotations and tests; instrumented paths use
    /// [`Tracer::start`].
    pub fn span(&self, trace: TraceId, component: &'static str, label: &'static str, detail: &str) {
        let id = self.next_id(trace);
        self.lock().insert(SpanRecord {
            trace,
            id,
            parent: None,
            component,
            label,
            detail: detail.to_string(),
            status: SpanStatus::Ok,
            start_us: 0,
            end_us: 0,
            attrs: Vec::new(),
        });
    }

    /// All retained spans for `trace`, in recording order (children
    /// close — and therefore record — before their parents).
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.lock().spans_of(trace).to_vec()
    }

    /// The distinct components that recorded spans for `trace`, in
    /// sorted (ascending lexicographic) order. The order is part of the
    /// contract: report sections built from this list are byte-stable
    /// across shard interleavings.
    pub fn components_for(&self, trace: TraceId) -> Vec<String> {
        let components: BTreeSet<&str> = self
            .lock()
            .spans_of(trace)
            .iter()
            .map(|s| s.component)
            .collect();
        components.into_iter().map(str::to_string).collect()
    }

    /// The distinct trace ids with retained spans, in sorted (ascending
    /// numeric) order. Like [`Tracer::components_for`], the sorted order
    /// is a documented contract, not an accident of storage.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.lock()
            .traces
            .iter()
            .filter(|(_, held)| matches!(held, Held::Spans(_)))
            .map(|(trace, _)| *trace)
            .collect()
    }

    /// Retained span count.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by the ring cap since creation.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

/// RAII guard for an open span: created by [`Tracer::start`], records
/// the [`SpanRecord`] when dropped. Mutators set the status, detail and
/// attributes before the drop; [`SpanGuard::child_ctx`] derives the
/// context children open their own spans under.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    /// `Some` until the guard is dropped or detached.
    open: Option<DetachedSpan>,
}

/// An open span that has let go of its tracer, so it can be kept past
/// the tracer's borrow or handed to another thread: plain data, and
/// recorded only once [`Tracer::attach`] has taken it back — dropped on
/// its own it leaves no span.
pub struct DetachedSpan {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    component: &'static str,
    label: &'static str,
    clock: TraceClock,
    start_us: u64,
    status: SpanStatus,
    detail: String,
    attrs: Vec<(String, AttrValue)>,
}

impl SpanGuard<'_> {
    fn open(&self) -> &DetachedSpan {
        self.open
            .as_ref()
            .expect("a guard holds its span until it is dropped or detached")
    }

    fn open_mut(&mut self) -> &mut DetachedSpan {
        self.open
            .as_mut()
            .expect("a guard holds its span until it is dropped or detached")
    }

    /// This span's id (e.g. to stamp onto security events or send as the
    /// wire parent).
    pub fn id(&self) -> SpanId {
        self.open().id
    }

    /// A [`SpanCtx`] that parents new spans under this one.
    pub fn child_ctx(&self) -> SpanCtx {
        let open = self.open();
        SpanCtx {
            trace: open.trace,
            parent: Some(open.id),
            clock: open.clock.clone(),
        }
    }

    /// Set the terminal status (default [`SpanStatus::Ok`]).
    pub fn set_status(&mut self, status: SpanStatus) {
        self.open_mut().status = status;
    }

    /// Set the free-form detail recorded with the span.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.open_mut().detail = detail.into();
    }

    /// Attach a string attribute.
    pub fn attr_str(&mut self, key: &str, value: impl Into<String>) {
        self.open_mut()
            .attrs
            .push((key.to_string(), AttrValue::Str(value.into())));
    }

    /// Attach an unsigned-quantity attribute.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        self.open_mut()
            .attrs
            .push((key.to_string(), AttrValue::U64(value)));
    }

    /// Close the span now (equivalent to dropping the guard).
    pub fn finish(self) {}

    /// Let go of the tracer without recording: the span stays open, and
    /// whoever holds it hands it back through [`Tracer::attach`].
    pub fn detach(mut self) -> DetachedSpan {
        self.open
            .take()
            .expect("a guard holds its span until it is dropped or detached")
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_us = open.clock.now_us().max(open.start_us);
        self.tracer.lock().insert(SpanRecord {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            component: open.component,
            label: open.label,
            detail: open.detail,
            status: open.status,
            start_us: open.start_us,
            end_us,
            attrs: open.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_scattered() {
        let ns = namespace("login1");
        assert_eq!(TraceId::derive(ns, 7), TraceId::derive(ns, 7));
        assert_ne!(TraceId::derive(ns, 7), TraceId::derive(ns, 8));
        assert_ne!(
            TraceId::derive(ns, 0),
            TraceId::derive(namespace("login2"), 0)
        );
    }

    #[test]
    fn mint_yields_distinct_ids() {
        assert_ne!(TraceId::mint(), TraceId::mint());
    }

    #[test]
    fn tracer_records_and_queries() {
        let t = Tracer::new();
        let a = TraceId::from_u64(1);
        let b = TraceId::from_u64(2);
        t.span(a, "pam", "authenticate", "challenge");
        t.span(a, "radius.proxy", "forward", "upstream=home");
        t.span(a, "otp", "validate", "ok");
        t.span(b, "pam", "authenticate", "reject");
        assert_eq!(t.spans_for(a).len(), 3);
        assert_eq!(t.components_for(a), vec!["otp", "pam", "radius.proxy"]);
        assert_eq!(t.trace_ids(), vec![a, b]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn a_detached_span_records_where_it_is_attached_as_if_it_never_left() {
        let t = Tracer::new();
        let ctx = SpanCtx::root(TraceId::from_u64(9), TraceClock::at(100));
        let mut guard = t.start(&ctx, "otp", "validate");
        guard.attr_u64("steps", 21);
        let id = guard.id();
        let detached = guard.detach();
        assert!(t.is_empty(), "detaching records nothing");
        // Off its tracer it is plain data: another thread may finish it.
        ctx.clock.advance_us(420);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut guard = t.attach(detached);
                guard.set_status(SpanStatus::Degraded);
                guard.set_detail("unavailable");
            });
        });
        let spans = t.spans_for(ctx.trace);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!((span.id, span.label), (id, "validate"));
        assert_eq!((span.start_us, span.end_us), (100, 520));
        assert_eq!(span.status, SpanStatus::Degraded);
        assert_eq!(span.detail, "unavailable");
        assert_eq!(span.attrs, [("steps".to_string(), AttrValue::U64(21))]);
        // One that is never handed back leaves no span.
        drop(t.start(&ctx, "otp", "sms").detach());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ring_cap_evicts_oldest() {
        let t = Tracer::with_cap(2);
        for i in 0..5 {
            t.span(TraceId::from_u64(i), "pam", "x", "");
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.spans_for(TraceId::from_u64(0)).is_empty());
        assert_eq!(t.spans_for(TraceId::from_u64(4)).len(), 1);
    }

    #[test]
    fn ring_evicts_whole_traces_never_truncating_a_tree() {
        let t = Tracer::with_cap(4);
        let a = TraceId::from_u64(1);
        let b = TraceId::from_u64(2);
        let c = TraceId::from_u64(3);
        // Trace a has three spans, b has one: inserting c's first span
        // must evict *all* of a (the oldest trace), not just one span.
        for _ in 0..3 {
            t.span(a, "pam", "x", "");
        }
        t.span(b, "pam", "x", "");
        t.span(c, "pam", "x", "");
        assert!(t.spans_for(a).is_empty(), "a evicted whole");
        assert_eq!(t.spans_for(b).len(), 1, "b untouched");
        assert_eq!(t.spans_for(c).len(), 1);
        assert_eq!(t.dropped(), 3, "dropped counts individual spans");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_trace_larger_than_the_cap_is_dropped_whole() {
        let t = Tracer::with_cap(2);
        let a = TraceId::from_u64(1);
        t.span(a, "pam", "x", "");
        t.span(a, "pam", "y", "");
        // The third span would overflow; a is the oldest trace *and* the
        // incoming trace, so the whole trace (incoming span included) is
        // dropped rather than returning a truncated tree.
        t.span(a, "pam", "z", "");
        assert!(t.spans_for(a).is_empty());
        assert_eq!(t.dropped(), 3);
        // The tracer still works for later traces.
        let b = TraceId::from_u64(2);
        t.span(b, "pam", "x", "");
        assert_eq!(t.spans_for(b).len(), 1);
    }

    #[test]
    fn query_orders_are_sorted_and_deterministic() {
        // Pinned contract (see DESIGN.md §15): `components_for` is
        // sorted lexicographically, `trace_ids` numerically — regardless
        // of recording order.
        let t = Tracer::new();
        let hi = TraceId::from_u64(0xffff);
        let lo = TraceId::from_u64(0x0001);
        t.span(hi, "zeta", "x", "");
        t.span(hi, "alpha", "x", "");
        t.span(hi, "mid", "x", "");
        t.span(lo, "pam", "x", "");
        assert_eq!(t.components_for(hi), vec!["alpha", "mid", "zeta"]);
        assert_eq!(t.trace_ids(), vec![lo, hi]);
    }

    #[test]
    fn guard_records_timed_parented_spans() {
        let t = Tracer::new();
        let clock = TraceClock::at(1_000);
        let trace = TraceId::from_u64(7);
        let ctx = SpanCtx::root(trace, clock.clone());
        let root_id;
        {
            let root = t.start(&ctx, "ssh", "session");
            root_id = root.id();
            clock.advance_us(10);
            {
                let mut child = t.start(&root.child_ctx(), "pam", "stack");
                clock.advance_us(40);
                child.set_status(SpanStatus::Error);
                child.set_detail("denied");
                child.attr_str("user", "alice");
                child.attr_u64("attempt", 2);
            }
            clock.advance_us(5);
        }
        let spans = t.spans_for(trace);
        assert_eq!(spans.len(), 2);
        // Children record before parents (recording order).
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root_id));
        assert_eq!(root.start_us, 1_000);
        assert_eq!(root.end_us, 1_055);
        assert_eq!(child.start_us, 1_010);
        assert_eq!(child.end_us, 1_050);
        assert_eq!(child.status, SpanStatus::Error);
        assert_eq!(child.detail, "denied");
        assert_eq!(child.duration_us(), 40);
        assert_eq!(
            child.attrs,
            vec![
                ("user".to_string(), AttrValue::Str("alice".to_string())),
                ("attempt".to_string(), AttrValue::U64(2)),
            ]
        );
        assert!(root.attrs.is_empty());
    }

    #[test]
    fn span_ids_are_deterministic_per_namespace_and_distinct_across() {
        let mk = |site: &str| {
            let t = Tracer::new();
            t.set_namespace(site);
            let ctx = SpanCtx::root(TraceId::from_u64(9), TraceClock::at(0));
            let g = t.start(&ctx, "otp", "validate");
            let id = g.id();
            drop(g);
            id
        };
        assert_eq!(mk("tacc"), mk("tacc"), "same site, same seq, same id");
        assert_ne!(mk("tacc"), mk("psc"), "sites never collide");
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(SpanStatus::Ok.label(), "ok");
        assert_eq!(SpanStatus::Error.label(), "error");
        assert_eq!(SpanStatus::Shed.label(), "shed");
        assert_eq!(SpanStatus::Degraded.label(), "degraded");
    }

    #[test]
    fn trace_clock_is_monotone() {
        let c = TraceClock::at(100);
        assert_eq!(c.now_us(), 100);
        assert_eq!(c.advance_us(50), 150);
        c.fast_forward_us(120); // behind: no-op
        assert_eq!(c.now_us(), 150);
        c.fast_forward_us(400);
        assert_eq!(c.now_us(), 400);
        let shared = c.clone();
        shared.advance_us(1);
        assert_eq!(c.now_us(), 401, "clones share the clock");
    }
}
