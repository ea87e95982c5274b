//! Telemetry for the MFA auth path: metrics and request tracing.
//!
//! The paper's operators ran a two-month phased rollout over ~10,000
//! accounts and reasoned about it through LinOTP audit rows and RADIUS
//! logs (§5, §6). This crate gives the reproduction a first-class
//! observability layer instead:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotonic and signed instruments;
//! * [`Histogram`] — a log-linear latency histogram (16 sub-buckets per
//!   power of two, ≤ 6.25 % relative error) with p50/p90/p99/max
//!   extraction and mergeable [`HistogramSnapshot`](histogram::HistogramSnapshot) shards;
//! * [`MetricsRegistry`] — a thread-safe, label-aware registry that
//!   renders the Prometheus text exposition format and cheap
//!   [`MetricsSnapshot`] views for reports and tests;
//! * [`TraceId`] / [`SpanId`] / [`Tracer`] — hierarchical timed request
//!   tracing: one trace id minted per login attempt in the SSH daemon,
//!   propagated with the parent span and virtual clock through the
//!   RADIUS client/proxy (as a vendor attribute) into the OTP-server
//!   audit log; components open RAII [`SpanGuard`]s so a login's hops
//!   reconstruct as a timed tree;
//! * [`TraceCollector`] / [`TraceTree`] — cross-site trace assembly with
//!   per-trace critical-path analysis (which hop dominated the latency)
//!   behind `GET /system/traces`;
//! * [`SecurityEvent`](events::SecurityEvent) / [`SecurityEvents`](events::SecurityEvents) — a bounded ring of typed
//!   security events (replays, lockouts, breaker trips, fsync failures),
//!   each stamped with the triggering request's [`TraceId`] and the
//!   emitting [`SpanId`];
//! * [`AlertEngine`] — a deterministic rule engine (threshold,
//!   rate-over-window, multi-window SLO burn rate, windowed latency
//!   quantiles) evaluated over successive [`MetricsSnapshot`]s on the
//!   virtual clock, with pending/firing/resolved state machines.
//!
//! The crate is deliberately dependency-free (`std` only): every consumer
//! on the auth path (`pam`, `radius`, `otpserver`, `core`, `workload`,
//! `bench`) links it, so it must never pull the dependency graph sideways.
//!
//! Metric names follow `hpcmfa_<component>_<what>_<unit>`; see DESIGN.md
//! §9 for the full naming scheme and overhead budget.

#![forbid(unsafe_code)]

mod alert;
mod collector;
pub mod events;
pub mod histogram;
mod registry;
mod slo;
pub mod trace;

pub use alert::{default_security_rules, AlertEngine, AlertStatus};
pub use collector::{critical_path_summary, TraceCollector, TraceTree};
pub use events::SecurityEventKind;
pub use histogram::Histogram;
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    DetachedSpan, SpanCtx, SpanGuard, SpanId, SpanStatus, TraceClock, TraceId, Tracer,
};
