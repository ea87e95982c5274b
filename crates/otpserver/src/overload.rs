//! Overload protection for the validation engine.
//!
//! An attack on the MFA center doubles as an overload: a credential-
//! stuffing storm lands thousands of doomed validations on the same
//! sharded token store that legitimate logins need. This module puts a
//! bounded admission queue in front of validation, with per-source-network
//! token buckets and graceful shedding:
//!
//! * **Rate limiting** — each /16 source network gets a token bucket
//!   (burst + sustained refill). A network that exceeds it is shed first,
//!   regardless of who it claims to be.
//! * **Two admission lanes** — networks that recently completed a
//!   *successful* validation are *trusted*; their requests queue only
//!   behind other trusted work (a reserved slice of the queue). Everyone
//!   else is *best-effort* and is shed as soon as the total virtual
//!   backlog would exceed the latency SLO. An unauthenticated flood
//!   therefore starves itself, never the paper's 10k legitimate users.
//! * **Fail-safe deny** — a shed request is answered
//!   [`ValidationOutcome::Unavailable`](crate::server::ValidationOutcome),
//!   never silently dropped and never `Success`.
//!
//! Time is *virtual* (the simulation clock, whole seconds) and the queue
//! is modeled in virtual microseconds of service time, so seeded attack
//! scenarios replay byte-identically: the same storm always sheds the
//! same requests. Each admitted request records its queueing delay in
//! `hpcmfa_otp_validate_vtime_us{lane=…}`; each shed bumps
//! `hpcmfa_shed_total{reason=…}` and emits an
//! [`OverloadShed`](SecurityEventKind::OverloadShed) security event.

use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry, SecurityEventKind, SpanId, TraceId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Admission-control tuning.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Requests the trusted lane may hold queued (bounded queue depth).
    pub queue_capacity: u64,
    /// Virtual service time one validation costs, in microseconds.
    pub service_cost_us: u64,
    /// Best-effort requests are shed once the total virtual backlog would
    /// exceed this latency, in microseconds (the SLO the center protects).
    pub latency_slo_us: u64,
    /// Token-bucket burst per /16 source network.
    pub bucket_burst: u64,
    /// Token-bucket sustained refill per /16 source network, per minute.
    pub bucket_rate_per_min: u64,
    /// How long one successful validation keeps a source network in the
    /// trusted lane, in seconds.
    pub trust_ttl_secs: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 64,
            service_cost_us: 2_000,
            latency_slo_us: 20_000,
            bucket_burst: 8,
            bucket_rate_per_min: 30,
            trust_ttl_secs: 3_600,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedReason {
    /// The source network exhausted its token bucket.
    RateLimited,
    /// Best-effort (never-authenticated) traffic pushed the backlog past
    /// the latency SLO.
    UnauthFlood,
    /// The bounded trusted-lane queue is full.
    QueueFull,
}

impl ShedReason {
    /// The label used for `hpcmfa_shed_total{reason=…}`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::UnauthFlood => "unauth_flood",
            ShedReason::QueueFull => "queue_full",
        }
    }
}

struct Bucket {
    /// Milli-tokens, so fractional refill stays in integer arithmetic
    /// (determinism: no floats on the admission path).
    milli_tokens: u64,
    last_refill: u64,
}

struct AdmState {
    last_now: u64,
    /// Outstanding virtual work from everyone, in microseconds.
    total_backlog_us: u64,
    /// Outstanding virtual work from trusted networks only.
    trusted_backlog_us: u64,
    buckets: HashMap<u32, Bucket>,
    /// /16 network → virtual time of its last successful validation.
    trusted: HashMap<u32, u64>,
}

/// The bounded admission queue in front of the token store.
pub(crate) struct AdmissionController {
    config: OverloadConfig,
    state: Mutex<AdmState>,
    metrics: Arc<MetricsRegistry>,
    shed_rate_limited: Arc<Counter>,
    shed_unauth_flood: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    vtime_trusted: Arc<Histogram>,
    vtime_best_effort: Arc<Histogram>,
}

impl AdmissionController {
    /// Build over `metrics`, pre-registering every shed reason and both
    /// latency lanes so `/system/metrics` renders them at zero.
    pub(crate) fn new(config: OverloadConfig, metrics: Arc<MetricsRegistry>) -> Self {
        let shed = |reason: ShedReason| {
            metrics.counter("hpcmfa_shed_total", &[("reason", reason.label())])
        };
        AdmissionController {
            shed_rate_limited: shed(ShedReason::RateLimited),
            shed_unauth_flood: shed(ShedReason::UnauthFlood),
            shed_queue_full: shed(ShedReason::QueueFull),
            vtime_trusted: metrics
                .histogram("hpcmfa_otp_validate_vtime_us", &[("lane", "trusted")]),
            vtime_best_effort: metrics
                .histogram("hpcmfa_otp_validate_vtime_us", &[("lane", "best_effort")]),
            config,
            state: Mutex::new(AdmState {
                last_now: 0,
                total_backlog_us: 0,
                trusted_backlog_us: 0,
                buckets: HashMap::new(),
                trusted: HashMap::new(),
            }),
            metrics,
        }
    }

    fn net16(ip: Ipv4Addr) -> u32 {
        u32::from(ip) >> 16
    }

    /// Decide admission for a request from `source` at virtual second
    /// `now`. On `Ok` the request's virtual queueing delay (µs) is
    /// returned and has been recorded in the lane histogram; on `Err` the
    /// shed has been counted and a typed
    /// [`OverloadShed`](SecurityEventKind::OverloadShed) event emitted —
    /// stamped with the caller's `span`, when it passed one — and the
    /// caller answers fail-safe deny.
    pub(crate) fn admit(
        &self,
        source: Ipv4Addr,
        now: u64,
        trace: Option<TraceId>,
        span: Option<SpanId>,
        op: &str,
    ) -> Result<u64, ShedReason> {
        let c = &self.config;
        let net = Self::net16(source);
        let mut s = self.state.lock();

        // The virtual server drains 1 s of work per virtual second.
        let dt = now.saturating_sub(s.last_now);
        if dt > 0 {
            let drained = dt.saturating_mul(1_000_000);
            s.total_backlog_us = s.total_backlog_us.saturating_sub(drained);
            s.trusted_backlog_us = s.trusted_backlog_us.saturating_sub(drained);
            s.last_now = now;
        }

        // Per-network token bucket (milli-token integer refill).
        let cap = c.bucket_burst.saturating_mul(1_000);
        let bucket = s.buckets.entry(net).or_insert(Bucket {
            milli_tokens: cap,
            last_refill: now,
        });
        let elapsed = now.saturating_sub(bucket.last_refill);
        bucket.milli_tokens = cap.min(
            bucket.milli_tokens.saturating_add(
                elapsed
                    .saturating_mul(c.bucket_rate_per_min)
                    .saturating_mul(1_000)
                    / 60,
            ),
        );
        bucket.last_refill = now;
        if bucket.milli_tokens < 1_000 {
            drop(s);
            return Err(self.shed(ShedReason::RateLimited, source, now, trace, span, op));
        }
        bucket.milli_tokens -= 1_000;

        let trusted = s
            .trusted
            .get(&net)
            .is_some_and(|&t| now.saturating_sub(t) <= c.trust_ttl_secs);
        let cost = c.service_cost_us;
        if trusted {
            // Trusted work queues only behind other trusted work inside
            // the bounded queue — a best-effort flood cannot delay it.
            if s.trusted_backlog_us.saturating_add(cost) > c.queue_capacity.saturating_mul(cost) {
                drop(s);
                return Err(self.shed(ShedReason::QueueFull, source, now, trace, span, op));
            }
            let latency = s.trusted_backlog_us + cost;
            s.trusted_backlog_us += cost;
            s.total_backlog_us += cost;
            drop(s);
            self.vtime_trusted.record(latency);
            Ok(latency)
        } else {
            if s.total_backlog_us.saturating_add(cost) > c.latency_slo_us {
                drop(s);
                return Err(self.shed(ShedReason::UnauthFlood, source, now, trace, span, op));
            }
            let latency = s.total_backlog_us + cost;
            s.total_backlog_us += cost;
            drop(s);
            self.vtime_best_effort.record(latency);
            Ok(latency)
        }
    }

    fn shed(
        &self,
        reason: ShedReason,
        source: Ipv4Addr,
        now: u64,
        trace: Option<TraceId>,
        span: Option<SpanId>,
        op: &str,
    ) -> ShedReason {
        match reason {
            ShedReason::RateLimited => self.shed_rate_limited.inc(),
            ShedReason::UnauthFlood => self.shed_unauth_flood.inc(),
            ShedReason::QueueFull => self.shed_queue_full.inc(),
        }
        let octets = source.octets();
        self.metrics.emit_event(
            SecurityEventKind::OverloadShed,
            trace,
            span,
            now,
            format!(
                "op={op} net={}.{}.0.0/16 reason={}",
                octets[0],
                octets[1],
                reason.label()
            ),
        );
        reason
    }

    /// Mark `source`'s network trusted: it just completed a successful
    /// validation, so its traffic rides the reserved lane for
    /// [`OverloadConfig::trust_ttl_secs`].
    pub(crate) fn note_success(&self, source: Ipv4Addr, now: u64) {
        self.state.lock().trusted.insert(Self::net16(source), now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(config: OverloadConfig) -> AdmissionController {
        AdmissionController::new(config, Arc::new(MetricsRegistry::new()))
    }

    const BENIGN: Ipv4Addr = Ipv4Addr::new(70, 1, 50, 3);
    const ATTACKER: Ipv4Addr = Ipv4Addr::new(198, 18, 7, 9);

    #[test]
    fn bucket_sheds_a_single_network_burst() {
        let adm = controller(OverloadConfig {
            bucket_burst: 3,
            ..OverloadConfig::default()
        });
        for i in 0..3 {
            assert!(
                adm.admit(ATTACKER, 100, None, None, "validate").is_ok(),
                "req {i}"
            );
        }
        assert_eq!(
            adm.admit(ATTACKER, 100, None, None, "validate"),
            Err(ShedReason::RateLimited)
        );
        // A different /16 is unaffected.
        assert!(adm
            .admit(Ipv4Addr::new(198, 19, 7, 9), 100, None, None, "validate")
            .is_ok());
        // The bucket refills with virtual time (30/min → one per 2 s).
        assert!(adm.admit(ATTACKER, 102, None, None, "validate").is_ok());
    }

    #[test]
    fn flood_is_shed_before_the_slo_and_trusted_lane_survives() {
        let adm = controller(OverloadConfig {
            bucket_burst: 1_000,
            bucket_rate_per_min: 60_000,
            service_cost_us: 2_000,
            latency_slo_us: 10_000,
            queue_capacity: 64,
            ..OverloadConfig::default()
        });
        adm.note_success(BENIGN, 99);
        // Five best-effort floods fill the 10 ms SLO budget…
        let mut admitted = 0;
        let mut shed = 0;
        for i in 0..40u32 {
            let ip = Ipv4Addr::new(198, 18 + (i % 8) as u8, 1, 1);
            match adm.admit(ip, 100, None, None, "validate") {
                Ok(_) => admitted += 1,
                Err(r) => {
                    assert_eq!(r, ShedReason::UnauthFlood);
                    shed += 1;
                }
            }
        }
        assert_eq!(admitted, 5, "SLO admits 10ms/2ms of best-effort work");
        assert_eq!(shed, 35);
        // …but the trusted network still gets in, queued only behind
        // trusted work (none), i.e. at bare service cost.
        assert!(adm.admit(BENIGN, 100, None, None, "validate").is_ok());
    }

    #[test]
    fn trusted_queue_is_bounded() {
        let adm = controller(OverloadConfig {
            bucket_burst: 1_000,
            queue_capacity: 4,
            latency_slo_us: u64::MAX,
            ..OverloadConfig::default()
        });
        adm.note_success(BENIGN, 100);
        for _ in 0..4 {
            assert!(adm.admit(BENIGN, 100, None, None, "validate").is_ok());
        }
        assert_eq!(
            adm.admit(BENIGN, 100, None, None, "validate"),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn trust_expires_after_ttl() {
        let adm = controller(OverloadConfig {
            bucket_burst: 1_000,
            bucket_rate_per_min: 60_000,
            latency_slo_us: 0,
            ..OverloadConfig::default()
        });
        adm.note_success(BENIGN, 100);
        assert!(adm.admit(BENIGN, 100, None, None, "validate").is_ok());
        // Past the TTL the network is best-effort again (SLO 0 → shed).
        assert!(adm
            .admit(BENIGN, 100 + 3_601, None, None, "validate")
            .is_err());
    }

    #[test]
    fn sheds_are_counted_and_emit_events() {
        let reg = Arc::new(MetricsRegistry::new());
        let adm = AdmissionController::new(
            OverloadConfig {
                bucket_burst: 1,
                ..OverloadConfig::default()
            },
            Arc::clone(&reg),
        );
        assert!(adm.admit(ATTACKER, 50, None, None, "validate").is_ok());
        assert!(adm.admit(ATTACKER, 50, None, None, "validate").is_err());
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hpcmfa_shed_total{reason=\"rate_limited\"}"),
            1
        );
        assert_eq!(
            snap.counter("hpcmfa_shed_total{reason=\"unauth_flood\"}"),
            0
        );
        let events = reg.security_events().all();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SecurityEventKind::OverloadShed);
        assert!(events[0].detail.contains("net=198.18.0.0/16"));
        assert!(events[0].detail.contains("reason=rate_limited"));
    }
}
