//! The metrics registry: named, labelled series of counters, gauges and
//! histograms, with Prometheus text exposition and frozen snapshots.
//!
//! Series are keyed by `(name, sorted labels)`; instruments are handed out
//! as `Arc`s so hot paths can cache them and record without touching the
//! registry lock again. Rendering iterates `BTreeMap`s, so output is
//! deterministic for a given set of recorded series — chaos scenarios
//! compare rendered reports byte-for-byte.
//!
//! Naming follows the Prometheus convention
//! `hpcmfa_<component>_<what>_<unit>` (`_total` for counters, `_us` for
//! microsecond histograms); see DESIGN.md §9.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::events::{SecurityEvent, SecurityEventKind, SecurityEvents};
use crate::histogram::{bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
use crate::trace::{SpanId, TraceId, Tracer};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A series key: family name plus sorted `(label, value)` pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` or `name{k="v",…}` — the exposition-format series id, also
    /// used as the snapshot map key.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::new();
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Same, with one extra label appended (for histogram `le`).
    fn render_with(&self, suffix: &str, extra_key: &str, extra_val: &str) -> String {
        let mut out = String::new();
        out.push_str(&self.name);
        out.push_str(suffix);
        out.push('{');
        for (k, v) in &self.labels {
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push_str("\",");
        }
        out.push_str(extra_key);
        out.push_str("=\"");
        out.push_str(extra_val);
        out.push('"');
        out.push('}');
        out
    }
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

type SeriesMap<T> = RwLock<BTreeMap<SeriesKey, Arc<T>>>;

/// The process-wide (or per-`Center`) metrics registry. Thread-safe;
/// shared behind an `Arc` by every component on the auth path. Also owns
/// the request [`Tracer`], so wiring one registry wires tracing too.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: SeriesMap<Counter>,
    gauges: SeriesMap<Gauge>,
    histograms: SeriesMap<Histogram>,
    tracer: Tracer,
    events: SecurityEvents,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &read(&self.counters).len())
            .field("gauges", &read(&self.gauges).len())
            .field("histograms", &read(&self.histograms).len())
            .field("spans", &self.tracer.len())
            .finish()
    }
}

fn read<T>(m: &SeriesMap<T>) -> std::sync::RwLockReadGuard<'_, BTreeMap<SeriesKey, Arc<T>>> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

fn get_or_insert<T: Default>(m: &SeriesMap<T>, name: &str, labels: &[(&str, &str)]) -> Arc<T> {
    let key = SeriesKey::new(name, labels);
    if let Some(v) = read(m).get(&key) {
        return Arc::clone(v);
    }
    let mut w = m.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(key).or_default())
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// New registry with explicit span/event ring caps (tests and
    /// memory-constrained deployments).
    pub fn with_ring_caps(tracer_cap: usize, events_cap: usize) -> Self {
        MetricsRegistry {
            tracer: Tracer::with_cap(tracer_cap),
            events: SecurityEvents::with_cap(events_cap),
            ..Self::default()
        }
    }

    /// The counter series `name{labels}`, created at zero on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_insert(&self.counters, name, labels)
    }

    /// The gauge series `name{labels}`, created at zero on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, labels)
    }

    /// The histogram series `name{labels}`, created empty on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, labels)
    }

    /// The shared request tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared security-event ring.
    pub fn security_events(&self) -> &SecurityEvents {
        &self.events
    }

    /// Emit one security event: append it to the ring and bump
    /// `hpcmfa_security_events_total{kind=…}`. `at` is the emitter's
    /// virtual-clock timestamp; `trace` is the triggering request and
    /// `span` the emitter's open span, when it has them, so an alert →
    /// event → span → parent-chain walk needs no grep.
    pub fn emit_event(
        &self,
        kind: SecurityEventKind,
        trace: Option<TraceId>,
        span: Option<SpanId>,
        at: u64,
        detail: impl Into<String>,
    ) {
        self.events.push(SecurityEvent {
            kind,
            trace,
            span,
            at,
            detail: detail.into(),
        });
        self.counter("hpcmfa_security_events_total", &[("kind", kind.label())])
            .inc();
    }

    /// Render every series in the Prometheus text exposition format:
    /// `# TYPE` headers, one `name{labels} value` line per counter/gauge
    /// series, and cumulative `_bucket{le=…}` / `_sum` / `_count` lines
    /// per histogram series (empty buckets are elided; `le="+Inf"` always
    /// closes the series). Output order is deterministic.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, c) in read(&self.counters).iter() {
            type_header(&mut out, &mut last_family, &key.name, "counter");
            out.push_str(&format!("{} {}\n", key.render(), c.get()));
        }
        // Ring-eviction counters live on the rings themselves, not in the
        // series map; expose them so overflow is never silent.
        for (name, v) in self.ring_drop_counters() {
            type_header(&mut out, &mut last_family, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family.clear();
        for (key, g) in read(&self.gauges).iter() {
            type_header(&mut out, &mut last_family, &key.name, "gauge");
            out.push_str(&format!("{} {}\n", key.render(), g.get()));
        }
        last_family.clear();
        for (key, h) in read(&self.histograms).iter() {
            type_header(&mut out, &mut last_family, &key.name, "histogram");
            let snap = h.snapshot();
            // OpenMetrics exemplar suffix for a bucket line:
            // `… # {trace_id="<hex>"} <value>` — the worst traced
            // observation that landed in that bucket, so a quantile
            // breach points at a concrete trace.
            let exemplar_suffix = |bucket: usize| -> String {
                snap.exemplars()
                    .iter()
                    .find(|e| e.bucket == bucket)
                    .map(|e| format!(" # {{trace_id=\"{}\"}} {}", e.trace, e.value))
                    .unwrap_or_default()
            };
            let mut cum = 0u64;
            for (i, &n) in snap.bucket_counts().iter().enumerate() {
                cum += n;
                if n > 0 && i + 1 < NUM_BUCKETS {
                    out.push_str(&format!(
                        "{} {}{}\n",
                        key.render_with("_bucket", "le", &bucket_upper_bound(i).to_string()),
                        cum,
                        exemplar_suffix(i)
                    ));
                }
            }
            out.push_str(&format!(
                "{} {}{}\n",
                key.render_with("_bucket", "le", "+Inf"),
                snap.count(),
                exemplar_suffix(NUM_BUCKETS - 1)
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                key.name,
                label_block(key),
                snap.sum()
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                key.name,
                label_block(key),
                snap.count()
            ));
        }
        out
    }

    /// The eviction counters of the span and event rings, as
    /// `(family, value)` pairs.
    fn ring_drop_counters(&self) -> [(&'static str, u64); 2] {
        [
            (
                "hpcmfa_security_events_dropped_total",
                self.events.dropped(),
            ),
            ("hpcmfa_tracer_dropped_total", self.tracer.dropped()),
        ]
    }

    /// Freeze every series into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = read(&self.counters)
            .iter()
            .map(|(k, c)| (k.render(), c.get()))
            .collect();
        for (name, v) in self.ring_drop_counters() {
            counters.insert(name.to_string(), v);
        }
        MetricsSnapshot {
            counters,
            gauges: read(&self.gauges)
                .iter()
                .map(|(k, g)| (k.render(), g.get()))
                .collect(),
            histograms: read(&self.histograms)
                .iter()
                .map(|(k, h)| (k.render(), h.snapshot()))
                .collect(),
        }
    }
}

/// Emit a `# TYPE` line the first time `name` appears in this section.
fn type_header(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        *last = name.to_string();
    }
}

/// The `{k="v",…}` block of a key (empty string when unlabelled).
fn label_block(key: &SeriesKey) -> String {
    let rendered = key.render();
    rendered[key.name.len()..].to_string()
}

/// A frozen, passive view of a registry: plain maps from rendered series
/// ids (`name` or `name{k="v",…}`) to values. This is what reports
/// (chaos, rollout) embed and what tests assert against.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The exact counter series (`name` or `name{k="v"}`), 0 if absent.
    pub fn counter(&self, series: &str) -> u64 {
        self.counters.get(series).copied().unwrap_or(0)
    }

    /// Sum of every counter series in family `name` (any label set).
    pub fn counter_family(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The exact gauge series, 0 if absent.
    pub fn gauge(&self, series: &str) -> i64 {
        self.gauges.get(series).copied().unwrap_or(0)
    }

    /// The exact histogram series, if recorded.
    pub fn histogram(&self, series: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(series)
    }

    /// Every series in histogram family `name` merged into one shard.
    pub fn histogram_family(&self, name: &str) -> HistogramSnapshot {
        let prefix = format!("{name}{{");
        let mut merged = HistogramSnapshot::empty();
        for (k, h) in &self.histograms {
            if k == name || k.starts_with(&prefix) {
                merged.merge(h);
            }
        }
        merged
    }

    /// All counter series, sorted by series id.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_shared_and_label_order_is_canonical() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hpcmfa_test_total", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("hpcmfa_test_total", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same series regardless of label order");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hpcmfa_test_total{a=\"1\",b=\"2\"}"), 3);
        assert_eq!(snap.counter_family("hpcmfa_test_total"), 3);
    }

    #[test]
    fn gauge_set_reads_back() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hpcmfa_up", &[]);
        g.set(5);
        assert_eq!(reg.snapshot().gauge("hpcmfa_up"), 5);
        g.set(3);
        assert_eq!(reg.snapshot().gauge("hpcmfa_up"), 3);
    }

    #[test]
    fn prometheus_rendering_is_valid_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("hpcmfa_logins_total", &[("outcome", "granted")])
            .add(3);
        reg.counter("hpcmfa_logins_total", &[("outcome", "denied")])
            .inc();
        reg.gauge("hpcmfa_servers_up", &[]).set(2);
        let h = reg.histogram("hpcmfa_rtt_us", &[]);
        h.record(10);
        h.record(10);
        h.record(3000);
        let text = reg.render_prometheus();
        assert_eq!(text, reg.render_prometheus(), "deterministic");
        assert!(text.contains("# TYPE hpcmfa_logins_total counter\n"));
        assert!(text.contains("hpcmfa_logins_total{outcome=\"denied\"} 1\n"));
        assert!(text.contains("hpcmfa_logins_total{outcome=\"granted\"} 3\n"));
        assert!(text.contains("# TYPE hpcmfa_servers_up gauge\n"));
        assert!(text.contains("hpcmfa_servers_up 2\n"));
        assert!(text.contains("# TYPE hpcmfa_rtt_us histogram\n"));
        assert!(text.contains("hpcmfa_rtt_us_bucket{le=\"11\"} 2\n"));
        assert!(text.contains("hpcmfa_rtt_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("hpcmfa_rtt_us_sum 3020\n"));
        assert!(text.contains("hpcmfa_rtt_us_count 3\n"));
        // One TYPE line per family, even with several series.
        assert_eq!(text.matches("# TYPE hpcmfa_logins_total").count(), 1);
        // Every non-comment line is `series value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(!parts.next().unwrap().is_empty());
        }
    }

    #[test]
    fn histogram_bucket_lines_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("hpcmfa_d_us", &[]);
        for v in [1u64, 1, 2, 500] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("hpcmfa_d_us_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("hpcmfa_d_us_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("hpcmfa_d_us_bucket{le=\"+Inf\"} 4\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("hpcmfa_odd_total", &[("msg", "a\"b\\c\nd")])
            .inc();
        let text = reg.render_prometheus();
        assert!(text.contains("msg=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    fn snapshot_families_merge_histograms() {
        let reg = MetricsRegistry::new();
        reg.histogram("hpcmfa_x_us", &[("server", "a")]).record(10);
        reg.histogram("hpcmfa_x_us", &[("server", "b")]).record(30);
        let snap = reg.snapshot();
        let merged = snap.histogram_family("hpcmfa_x_us");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), 40);
        assert!(snap.histogram("hpcmfa_x_us{server=\"a\"}").is_some());
        assert!(snap.histogram("hpcmfa_x_us{server=\"missing\"}").is_none());
    }

    #[test]
    fn emit_event_feeds_ring_and_counter() {
        let reg = MetricsRegistry::new();
        let t = crate::TraceId::from_u64(7);
        reg.emit_event(
            SecurityEventKind::ReplayAttempt,
            Some(t),
            None,
            100,
            "user=alice",
        );
        reg.emit_event(
            SecurityEventKind::ReplayAttempt,
            Some(t),
            None,
            130,
            "user=alice",
        );
        reg.emit_event(
            SecurityEventKind::BreakerFlap,
            None,
            None,
            140,
            "server=radius0",
        );
        assert_eq!(reg.security_events().all().len(), 3);
        assert_eq!(
            reg.security_events()
                .of_kind(SecurityEventKind::ReplayAttempt)
                .len(),
            2
        );
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hpcmfa_security_events_total{kind=\"replay_attempt\"}"),
            2
        );
        assert_eq!(snap.counter_family("hpcmfa_security_events_total"), 3);
    }

    #[test]
    fn traced_observations_render_openmetrics_exemplars() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("hpcmfa_radius_request_duration_us", &[("server", "r0")]);
        h.record(10); // untraced: that bucket gets no exemplar
        h.record_traced(2_049, TraceId::from_u64(0xbeef));
        h.record_traced(2_050, TraceId::from_u64(0xfeed)); // same bucket, worse
        let text = reg.render_prometheus();
        assert!(
            text.contains("# {trace_id=\"000000000000feed\"} 2050\n"),
            "{text}"
        );
        assert!(!text.contains("beef"), "replaced exemplar is gone");
        // The exemplar rides the bucket line, after the cumulative count.
        let line = text
            .lines()
            .find(|l| l.contains("trace_id"))
            .expect("exemplar line");
        assert!(line.starts_with("hpcmfa_radius_request_duration_us_bucket{server=\"r0\",le=\""));
        assert!(
            line.contains("} 3 # {"),
            "cumulative count precedes exemplar"
        );
        // Untraced-only histograms render without exemplar suffixes.
        let plain = MetricsRegistry::new();
        plain.histogram("hpcmfa_plain_us", &[]).record(5);
        assert!(!plain.render_prometheus().contains("trace_id"));
    }

    #[test]
    fn ring_drop_counters_are_exposed() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().counter("hpcmfa_tracer_dropped_total"), 0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE hpcmfa_tracer_dropped_total counter\n"));
        assert!(text.contains("hpcmfa_tracer_dropped_total 0\n"));
        assert!(text.contains("hpcmfa_security_events_dropped_total 0\n"));
        // Overflow is visible, not silent.
        let tight = MetricsRegistry::with_ring_caps(2, 1);
        for i in 0..5 {
            tight
                .tracer()
                .span(crate::TraceId::from_u64(i), "pam", "x", "");
            tight.emit_event(SecurityEventKind::SmsAbuse, None, None, i, "");
        }
        let snap = tight.snapshot();
        assert_eq!(snap.counter("hpcmfa_tracer_dropped_total"), 3);
        assert_eq!(snap.counter("hpcmfa_security_events_dropped_total"), 4);
        assert!(tight
            .render_prometheus()
            .contains("hpcmfa_tracer_dropped_total 3\n"));
    }

    #[test]
    fn registry_debug_is_compact() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[]).inc();
        reg.tracer()
            .span(crate::TraceId::from_u64(1), "pam", "x", "");
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("MetricsRegistry"));
        assert!(dbg.contains("counters: 1"));
        assert!(dbg.contains("spans: 1"));
    }
}
