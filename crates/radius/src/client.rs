//! The RADIUS client embedded in the PAM token module.
//!
//! "These API calls communicate with RADIUS servers in a round-robin fashion
//! to provide load balancing and resiliency if specific RADIUS servers are
//! unavailable" (§3.4). The client owns a list of transports; each request
//! starts at the next rotor position and fails over through the remaining
//! servers on timeout or unreachability. Response authenticators are
//! verified before a reply is trusted.
//!
//! Resiliency is bounded and observable:
//!
//! * every server sits behind a [`CircuitBreaker`] (closed → open after a
//!   streak of transport failures → half-open revival probe after a
//!   cooldown), mirroring FreeRADIUS `zombie_period`/`revive_interval`;
//! * instead of unbounded walks of the pool, each login gets a
//!   `DEADLINE_US` deadline budget, with deterministic exponential
//!   backoff and bounded seeded jitter between walks;
//! * per-server [`ServerHealthSnapshot`] stats expose attempts, failures,
//!   skips and breaker state to the chaos harness and operators.
//!
//! Time is *virtual*: a monotonic microsecond counter advanced by per-
//! attempt cost charges, never by sleeping, so the whole failover story is
//! deterministic and fast to simulate.

use crate::attribute::{AttrView, AttributeType};
use crate::auth::{hidden_len, hide_password_into, request_authenticator, verify_reply};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::packet::{Code, PacketView};
use crate::tracewire;
use crate::transport::{Transport, TransportError};
use crate::MIN_PACKET_LEN;
use hpcmfa_telemetry::{
    Counter, Histogram, MetricsRegistry, SecurityEventKind, SpanCtx, SpanId, SpanStatus, TraceId,
};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// Deadline-budgeted retry tuning, in virtual microseconds. The per-attempt
// costs are what an attempt charges against the login's deadline: they
// stand in for the wall-clock a real client would burn (a UDP timeout is
// expensive, an ICMP port-unreachable is cheap, a healthy round trip is
// cheap).

/// Total budget for one login request; when spent, the request fails with
/// [`ClientError::AllServersFailed`].
const DEADLINE_US: u64 = 10_000_000;
/// Backoff before the second walk of the pool; doubles each walk.
const INITIAL_BACKOFF_US: u64 = 50_000;
/// Upper bound on the exponential backoff (before jitter).
const MAX_BACKOFF_US: u64 = 1_000_000;
/// Seed for the deterministic bounded jitter added to each backoff.
const JITTER_SEED: u64 = 0x5eed_cafe;
/// Charged when an attempt times out: a 1 s UDP read timeout.
const TIMEOUT_COST_US: u64 = 1_000_000;
/// Charged when the host is actively unreachable (fast failure).
const UNREACHABLE_COST_US: u64 = 10_000;
/// Charged for any attempt that got a reply (healthy round trip).
const RTT_COST_US: u64 = 2_000;

/// SplitMix64: one deterministic 64-bit hash step for jitter derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Backoff delay inserted before walk `round` (1-based): exponential
/// doubling from [`INITIAL_BACKOFF_US`], capped at [`MAX_BACKOFF_US`], plus
/// deterministic jitter in `[0, base/4]` derived from the round number.
/// Pure: same round → same delay, always ≥ 1.
fn backoff_us(round: u32) -> u64 {
    let exp = round.saturating_sub(1).min(20);
    let base = INITIAL_BACKOFF_US
        .saturating_mul(1u64 << exp)
        .min(MAX_BACKOFF_US);
    let span = base / 4;
    base + splitmix64(JITTER_SEED ^ u64::from(round)) % (span + 1)
}

/// The full deterministic backoff schedule: delays for walks 1, 2, …
/// whose running total stays within `DEADLINE_US`.
pub fn backoff_schedule() -> Vec<u64> {
    let mut delays = Vec::new();
    let mut spent = 0u64;
    for round in 1.. {
        let d = backoff_us(round);
        match spent.checked_add(d) {
            Some(total) if total <= DEADLINE_US => {
                spent = total;
                delays.push(d);
            }
            _ => break,
        }
    }
    delays
}

/// Client configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// Shared secret with all servers in the pool.
    pub secret: Vec<u8>,
    /// NAS identifier sent with every request (the login node's name).
    pub nas_identifier: String,
}

impl ClientConfig {
    /// Config for a pool sharing `secret`, sent as `nas_identifier`.
    pub fn new(secret: impl Into<Vec<u8>>, nas_identifier: &str) -> Self {
        ClientConfig {
            secret: secret.into(),
            nas_identifier: nas_identifier.to_string(),
        }
    }
}

/// Errors surfaced to the PAM module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every server in the pool failed (or the deadline budget ran out
    /// before any answered).
    AllServersFailed {
        /// Number of exchange attempts made.
        attempts: u32,
    },
    /// A reply arrived but its authenticator did not verify — treated as an
    /// attack or misconfiguration, never as a success.
    BadAuthenticator,
    /// A reply arrived with the wrong identifier.
    IdentifierMismatch {
        /// What we sent.
        expected: u8,
        /// What came back.
        got: u8,
    },
    /// No transports configured.
    NoServers,
    /// A request field is longer than its attribute can carry; nothing
    /// was sent.
    FieldTooLong {
        /// The attribute it was meant for.
        field: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::AllServersFailed { attempts } => {
                write!(f, "all RADIUS servers failed after {attempts} attempts")
            }
            ClientError::BadAuthenticator => write!(f, "response authenticator mismatch"),
            ClientError::IdentifierMismatch { expected, got } => {
                write!(f, "identifier mismatch: sent {expected}, got {got}")
            }
            ClientError::NoServers => write!(f, "no RADIUS servers configured"),
            ClientError::FieldTooLong { field } => {
                write!(f, "{field} is longer than a RADIUS attribute can carry")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The verified outcome of one authentication exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Access-Accept.
    Accept {
        /// Optional message for the user.
        message: Option<String>,
    },
    /// Access-Reject.
    Reject {
        /// Optional message for the user.
        message: Option<String>,
    },
    /// Access-Challenge: present `message` and reply with `state` echoed.
    Challenge {
        /// Opaque state to echo in the follow-up request.
        state: Vec<u8>,
        /// Prompt to present (e.g. `TACC Token:` or "SMS already sent").
        message: Option<String>,
    },
}

/// Failover counters.
#[derive(Default)]
pub struct ClientStats {
    /// Total requests issued by callers.
    pub requests: AtomicU64,
    /// Individual exchange attempts (≥ requests).
    pub attempts: AtomicU64,
    /// Attempts that failed over to another server.
    pub failovers: AtomicU64,
}

/// Per-server health counters (atomics; snapshot via
/// [`RadiusClient::server_health`]).
#[derive(Default)]
struct ServerHealth {
    attempts: AtomicU64,
    successes: AtomicU64,
    failures: AtomicU64,
    skipped: AtomicU64,
}

/// One server's health as seen by the client.
#[derive(Clone, Debug)]
pub struct ServerHealthSnapshot {
    /// Transport name (e.g. `radius0`).
    pub name: String,
    /// Exchange attempts actually sent to this server.
    pub attempts: u64,
    /// Attempts that produced a usable reply.
    pub successes: u64,
    /// Transport-level failures (timeout, unreachable, garbled).
    pub failures: u64,
    /// Attempts *not* sent because the breaker was open.
    pub skipped: u64,
    /// Breaker state at snapshot time.
    pub breaker: BreakerState,
    /// How many times the breaker has opened.
    pub breaker_opens: u64,
}

/// Registry instruments resolved once at construction so the hot path
/// records without touching the registry lock. Per-server series carry a
/// `server` label with the transport name.
struct ClientInstruments {
    requests: Arc<Counter>,
    failovers: Arc<Counter>,
    duration_us: Arc<Histogram>,
    outcome_accept: Arc<Counter>,
    outcome_reject: Arc<Counter>,
    outcome_challenge: Arc<Counter>,
    outcome_error: Arc<Counter>,
    err_timeout: Arc<Counter>,
    err_unreachable: Arc<Counter>,
    err_garbled: Arc<Counter>,
    err_discard: Arc<Counter>,
    per_server: Vec<ServerInstruments>,
}

/// Per-server labelled counters, and the name attempt spans carry.
struct ServerInstruments {
    name: Arc<str>,
    attempts: Arc<Counter>,
    failures: Arc<Counter>,
    skipped: Arc<Counter>,
}

impl ClientInstruments {
    fn resolve(metrics: &MetricsRegistry, transports: &[Arc<dyn Transport>]) -> Self {
        let outcome = |o: &str| metrics.counter("hpcmfa_radius_outcomes_total", &[("outcome", o)]);
        let err = |k: &str| metrics.counter("hpcmfa_radius_transport_errors_total", &[("kind", k)]);
        ClientInstruments {
            requests: metrics.counter("hpcmfa_radius_requests_total", &[]),
            failovers: metrics.counter("hpcmfa_radius_failovers_total", &[]),
            duration_us: metrics.histogram("hpcmfa_radius_request_duration_us", &[]),
            outcome_accept: outcome("accept"),
            outcome_reject: outcome("reject"),
            outcome_challenge: outcome("challenge"),
            outcome_error: outcome("error"),
            err_timeout: err("timeout"),
            err_unreachable: err("unreachable"),
            err_garbled: err("garbled"),
            err_discard: err("discard"),
            per_server: transports
                .iter()
                .map(|t| {
                    let name = t.name();
                    let server = [("server", name.as_str())];
                    ServerInstruments {
                        name: name.as_str().into(),
                        attempts: metrics.counter("hpcmfa_radius_attempts_total", &server),
                        failures: metrics.counter("hpcmfa_radius_failures_total", &server),
                        skipped: metrics.counter("hpcmfa_radius_skips_total", &server),
                    }
                })
                .collect(),
        }
    }
}

/// How one reply should steer the failover loop.
enum Interpreted {
    /// A verified outcome: return it.
    Done(Outcome),
    /// A security-relevant failure: abort the whole login.
    Fatal(ClientError),
    /// RFC 2865 "silently discard": treat like a lost datagram and fail
    /// over to the next server.
    Discard,
}

/// A round-robin, failover RADIUS client with per-server circuit breakers
/// and a deadline-budgeted retry loop.
pub struct RadiusClient {
    config: ClientConfig,
    transports: Vec<Arc<dyn Transport>>,
    breakers: Vec<CircuitBreaker>,
    health: Vec<ServerHealth>,
    rotor: AtomicUsize,
    identifier: AtomicUsize,
    /// Virtual clock, microseconds. Advanced by attempt costs and backoff
    /// delays; breaker cooldowns are measured against it.
    vclock: AtomicU64,
    /// Exchange counters.
    pub stats: ClientStats,
    /// Shared registry (also owns the request tracer).
    metrics: Arc<MetricsRegistry>,
    /// Hot-path instruments resolved from `metrics` at construction.
    instruments: ClientInstruments,
}

impl RadiusClient {
    /// Build a client over `transports` with a private metrics registry.
    pub fn new(config: ClientConfig, transports: Vec<Arc<dyn Transport>>) -> Self {
        Self::with_metrics(config, transports, Arc::new(MetricsRegistry::new()))
    }

    /// Build a client that records into a shared `metrics` registry (the
    /// `Center` passes one registry to every component on the auth path).
    pub fn with_metrics(
        config: ClientConfig,
        transports: Vec<Arc<dyn Transport>>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let breakers = transports
            .iter()
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect();
        let health = transports.iter().map(|_| ServerHealth::default()).collect();
        let instruments = ClientInstruments::resolve(&metrics, &transports);
        RadiusClient {
            config,
            transports,
            breakers,
            health,
            rotor: AtomicUsize::new(0),
            identifier: AtomicUsize::new(0),
            vclock: AtomicU64::new(0),
            stats: ClientStats::default(),
            metrics,
            instruments,
        }
    }

    fn next_identifier(&self) -> u8 {
        (self.identifier.fetch_add(1, Ordering::Relaxed) & 0xff) as u8
    }

    /// Current virtual time in microseconds.
    pub(crate) fn vclock_us(&self) -> u64 {
        self.vclock.load(Ordering::SeqCst)
    }

    /// Advance the virtual clock and return the new time.
    fn advance(&self, delta_us: u64) -> u64 {
        self.vclock.fetch_add(delta_us, Ordering::SeqCst) + delta_us
    }

    /// Per-server health and breaker snapshot, in pool order.
    pub fn server_health(&self) -> Vec<ServerHealthSnapshot> {
        self.transports
            .iter()
            .zip(&self.breakers)
            .zip(&self.health)
            .map(|((t, b), h)| ServerHealthSnapshot {
                name: t.name(),
                attempts: h.attempts.load(Ordering::Relaxed),
                successes: h.successes.load(Ordering::Relaxed),
                failures: h.failures.load(Ordering::Relaxed),
                skipped: h.skipped.load(Ordering::Relaxed),
                breaker: b.state(),
                breaker_opens: b.opened_count(),
            })
            .collect()
    }

    /// Start an authentication: `password` may be empty (null request) to
    /// open a challenge round / trigger an SMS.
    pub fn authenticate<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        username: &str,
        password: &[u8],
        calling_station: &str,
    ) -> Result<Outcome, ClientError> {
        self.request(rng, username, password, calling_station, None, None)
    }

    /// Continue a challenge with the user's answer and the echoed state.
    pub fn respond_to_challenge<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        username: &str,
        answer: &[u8],
        calling_station: &str,
        state: &[u8],
    ) -> Result<Outcome, ClientError> {
        self.request(rng, username, answer, calling_station, Some(state), None)
    }

    /// Issue one request — an opening [`authenticate`](Self::authenticate)
    /// or, with the echoed `state`, a
    /// [`respond_to_challenge`](Self::respond_to_challenge) — and record
    /// its telemetry: a virtual-time latency sample (deterministic — the
    /// vclock only moves by attempt costs) and an outcome counter. Under
    /// concurrent logins the shared vclock interleaves, so per-request
    /// deltas are upper bounds; single-threaded simulations get exact
    /// figures. A field longer than its attribute can carry is refused
    /// with [`ClientError::FieldTooLong`] before any of that.
    ///
    /// Inside a span context the request is traced: the context is encoded
    /// as a vendor attribute on the wire and a timed `radius.client` span
    /// tree is recorded (one request span under `ctx.parent`, one child
    /// per exchange attempt, plus backoff / breaker-wait children), stamped
    /// from `ctx.clock`, which is advanced by the same virtual costs the
    /// client charges its own vclock and fast-forwarded past the
    /// responder's processing time when the reply carries a clock.
    pub fn request<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        username: &str,
        password: &[u8],
        calling_station: &str,
        state: Option<&[u8]>,
        ctx: Option<&SpanCtx>,
    ) -> Result<Outcome, ClientError> {
        // These become attribute values whose length is one octet (RFC 2865
        // §5: at most 253 of value, 128 of password): a longer one would
        // wrap it and have its tail parsed as attributes of the sender's
        // choosing. Refused before anything is counted, charged or sent.
        for (field, len, max) in [
            ("User-Name", username.len(), 253),
            ("User-Password", password.len(), 128),
            ("Calling-Station-Id", calling_station.len(), 253),
            ("State", state.map_or(0, <[u8]>::len), 253),
        ] {
            if len > max {
                return Err(ClientError::FieldTooLong { field });
            }
        }
        let t0 = self.vclock_us();
        let label = if state.is_some() {
            "challenge_response"
        } else {
            "authenticate"
        };
        let mut guard = ctx.map(|c| self.metrics.tracer().start(c, "radius.client", label));
        let child_ctx = guard.as_ref().map(|g| g.child_ctx());
        let result = self.walk_pool(
            rng,
            username,
            password,
            calling_station,
            state,
            child_ctx.as_ref(),
        );
        let duration = self.vclock_us().saturating_sub(t0);
        match ctx {
            // The worst traced observation per bucket becomes the
            // histogram's exemplar, so a latency spike links straight to
            // its trace tree.
            Some(c) => self
                .instruments
                .duration_us
                .record_traced(duration, c.trace),
            None => self.instruments.duration_us.record(duration),
        }
        let outcome = match &result {
            Ok(Outcome::Accept { .. }) => {
                self.instruments.outcome_accept.inc();
                "accept"
            }
            Ok(Outcome::Reject { .. }) => {
                self.instruments.outcome_reject.inc();
                "reject"
            }
            Ok(Outcome::Challenge { .. }) => {
                self.instruments.outcome_challenge.inc();
                "challenge"
            }
            Err(_) => {
                self.instruments.outcome_error.inc();
                "error"
            }
        };
        if let Some(g) = guard.as_mut() {
            g.set_detail(outcome);
            if result.is_err() {
                g.set_status(SpanStatus::Error);
            }
        }
        result
    }

    /// Advance the vclock and, when traced, mirror the same charge onto
    /// the login's trace clock so span timestamps track attempt costs.
    fn advance_mirrored(&self, delta_us: u64, tctx: Option<&SpanCtx>) -> u64 {
        if let Some(c) = tctx {
            c.clock.advance_us(delta_us);
        }
        self.advance(delta_us)
    }

    fn walk_pool<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        username: &str,
        password: &[u8],
        calling_station: &str,
        state: Option<&[u8]>,
        tctx: Option<&SpanCtx>,
    ) -> Result<Outcome, ClientError> {
        if self.transports.is_empty() {
            return Err(ClientError::NoServers);
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.instruments.requests.inc();

        let ra = request_authenticator(rng);
        let id = self.next_identifier();
        // Encoded once. A traced attempt only swaps the trace context at
        // the tail, since it names the attempt span and the clock at send
        // time.
        let mut wire = self.encode_request(
            id,
            &ra,
            username,
            password,
            calling_station,
            state,
            tctx.is_some(),
        );
        let base_len = wire.len();
        let trace = tctx.map(|c| c.trace);

        // Round-robin with failover: start at the rotor, walk the pool,
        // back off, and repeat until the deadline budget is spent. Servers
        // with an open breaker are skipped instead of attempted.
        let n = self.transports.len();
        // One reply buffer reused across every attempt of this walk.
        let mut reply = Vec::new();
        let start = self.rotor.fetch_add(1, Ordering::Relaxed);
        let t0 = self.vclock_us();
        let deadline = t0.saturating_add(DEADLINE_US);
        let mut attempts = 0u32;
        let mut round = 0u32;
        loop {
            let mut sent_any = false;
            for k in 0..n {
                let idx = (start + k) % n;
                let now = self.vclock_us();
                if now >= deadline {
                    return Err(ClientError::AllServersFailed { attempts });
                }
                let breaker_before = self.breakers[idx].state();
                if !self.breakers[idx].allow(now) {
                    self.health[idx].skipped.fetch_add(1, Ordering::Relaxed);
                    self.instruments.per_server[idx].skipped.inc();
                    continue;
                }
                self.note_breaker_transition(
                    idx,
                    breaker_before,
                    trace,
                    tctx.and_then(|c| c.parent),
                );
                sent_any = true;
                attempts += 1;
                self.stats.attempts.fetch_add(1, Ordering::Relaxed);
                if attempts > 1 {
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    self.instruments.failovers.inc();
                }
                self.health[idx].attempts.fetch_add(1, Ordering::Relaxed);
                self.instruments.per_server[idx].attempts.inc();
                // Open the attempt span and stamp the wire with it: the
                // responder parents its own spans under this attempt.
                let mut att = tctx.map(|c| {
                    let mut g = self.metrics.tracer().start(c, "radius.client", "attempt");
                    g.attr_str("server", Arc::clone(&self.instruments.per_server[idx].name));
                    wire.truncate(base_len);
                    tracewire::append_trace_ctx(&mut wire, c.trace, Some(g.id()), c.clock.now_us());
                    set_wire_len(&mut wire);
                    g
                });
                let att_span = att.as_ref().map(|g| g.id());
                match self.transports[idx].exchange_into(&wire, &mut reply) {
                    Ok(()) => {
                        // Parsed once, in the receive buffer. A
                        // clock-aware responder reports its trace clock
                        // after processing; fast-forward ours past it so
                        // the attempt span encloses the server's spans.
                        let view = PacketView::parse(&reply);
                        if let (Some(c), Ok(v)) = (tctx, &view) {
                            if let Some(server_clock) = tracewire::clock_of_view(v) {
                                c.clock.fast_forward_us(server_clock);
                            }
                        }
                        let now = self.advance_mirrored(
                            RTT_COST_US + self.transports[idx].round_trip_latency_us(),
                            tctx,
                        );
                        let interpreted = match view {
                            Ok(v) => self.interpret(&v, &reply, id, &ra),
                            // RFC 2865 §3: a datagram that fails to parse
                            // is silently discarded — to the client it is
                            // indistinguishable from a lost packet, so it
                            // must fail over, not abort the login.
                            Err(_) => Interpreted::Discard,
                        };
                        match interpreted {
                            Interpreted::Done(outcome) => {
                                let before = self.breakers[idx].state();
                                self.breakers[idx].record_success();
                                self.note_breaker_transition(idx, before, trace, att_span);
                                self.health[idx].successes.fetch_add(1, Ordering::Relaxed);
                                return Ok(outcome);
                            }
                            Interpreted::Fatal(e) => {
                                // The transport works; the payload is the
                                // problem. Never mark the server dead for it.
                                let before = self.breakers[idx].state();
                                self.breakers[idx].record_success();
                                self.note_breaker_transition(idx, before, trace, att_span);
                                if let Some(g) = att.as_mut() {
                                    g.set_status(SpanStatus::Error);
                                    g.set_detail("fatal");
                                }
                                return Err(e);
                            }
                            Interpreted::Discard => {
                                if let Some(g) = att.as_mut() {
                                    g.set_status(SpanStatus::Error);
                                    g.set_detail("discard");
                                }
                                self.record_failure(
                                    idx,
                                    now,
                                    &self.instruments.err_discard,
                                    trace,
                                    att_span,
                                );
                            }
                        }
                    }
                    Err(TransportError::Timeout) | Err(TransportError::Io(_)) => {
                        let now = self.advance_mirrored(TIMEOUT_COST_US, tctx);
                        if let Some(g) = att.as_mut() {
                            g.set_status(SpanStatus::Error);
                            g.set_detail("timeout");
                        }
                        self.record_failure(
                            idx,
                            now,
                            &self.instruments.err_timeout,
                            trace,
                            att_span,
                        );
                    }
                    Err(TransportError::Unreachable) => {
                        let now = self.advance_mirrored(UNREACHABLE_COST_US, tctx);
                        if let Some(g) = att.as_mut() {
                            g.set_status(SpanStatus::Error);
                            g.set_detail("unreachable");
                        }
                        self.record_failure(
                            idx,
                            now,
                            &self.instruments.err_unreachable,
                            trace,
                            att_span,
                        );
                    }
                    Err(TransportError::GarbledReply) => {
                        let now = self.advance_mirrored(RTT_COST_US, tctx);
                        if let Some(g) = att.as_mut() {
                            g.set_status(SpanStatus::Error);
                            g.set_detail("garbled");
                        }
                        self.record_failure(
                            idx,
                            now,
                            &self.instruments.err_garbled,
                            trace,
                            att_span,
                        );
                    }
                }
            }
            if !sent_any {
                // Every breaker is open. Fast-forward virtual time to the
                // earliest revival probe instead of spinning.
                let earliest = self.breakers.iter().filter_map(|b| b.open_until_us()).min();
                match earliest {
                    Some(t) if t < deadline => {
                        let wait = t.saturating_sub(self.vclock_us());
                        if let Some(c) = tctx {
                            let mut g =
                                self.metrics
                                    .tracer()
                                    .start(c, "radius.client", "breaker_wait");
                            g.attr_u64("wait_us", wait);
                            c.clock.advance_us(wait);
                            g.finish();
                        }
                        self.vclock.fetch_max(t, Ordering::SeqCst);
                    }
                    _ => return Err(ClientError::AllServersFailed { attempts }),
                }
                continue;
            }
            round += 1;
            let delay = backoff_us(round);
            let backoff_guard = tctx.map(|c| {
                let mut g = self.metrics.tracer().start(c, "radius.client", "backoff");
                g.attr_u64("round", u64::from(round));
                g
            });
            let past_deadline = self.advance_mirrored(delay, tctx) >= deadline;
            drop(backoff_guard);
            if past_deadline {
                return Err(ClientError::AllServersFailed { attempts });
            }
        }
    }

    /// Count one transport-level failure against server `idx`: breaker,
    /// health, per-server failure series and the per-kind error counter.
    fn record_failure(
        &self,
        idx: usize,
        now_us: u64,
        kind: &Counter,
        trace: Option<TraceId>,
        span: Option<SpanId>,
    ) {
        let before = self.breakers[idx].state();
        self.breakers[idx].record_failure(now_us);
        self.note_breaker_transition(idx, before, trace, span);
        self.health[idx].failures.fetch_add(1, Ordering::Relaxed);
        self.instruments.per_server[idx].failures.inc();
        kind.inc();
    }

    /// Bump the breaker-transition counter when the state moved away from
    /// `before`. Transitions are rare, so this one registry lookup per
    /// transition is off the hot path. A trip to `Open` also lands on the
    /// security-event ring: a pool member just got benched, stamped with
    /// the login (and the open span) that tipped it over.
    fn note_breaker_transition(
        &self,
        idx: usize,
        before: BreakerState,
        trace: Option<TraceId>,
        span: Option<SpanId>,
    ) {
        let after = self.breakers[idx].state();
        if after != before {
            let to = match after {
                BreakerState::Closed => "closed",
                BreakerState::Open => "open",
                BreakerState::HalfOpen => "half_open",
            };
            self.metrics
                .counter(
                    "hpcmfa_radius_breaker_transitions_total",
                    &[("server", &self.transports[idx].name()), ("to", to)],
                )
                .inc();
            if after == BreakerState::Open {
                self.metrics.emit_event(
                    SecurityEventKind::BreakerFlap,
                    trace,
                    span,
                    self.vclock_us(),
                    format!("server={} breaker opened", self.transports[idx].name()),
                );
            }
        }
    }

    /// Steer on a parsed reply: `resp` is `reply` parsed, and the
    /// authenticator is checked over `reply`'s bytes in place.
    fn interpret(
        &self,
        resp: &PacketView<'_>,
        reply: &[u8],
        expected_id: u8,
        request_auth: &[u8; 16],
    ) -> Interpreted {
        if resp.identifier != expected_id {
            return Interpreted::Fatal(ClientError::IdentifierMismatch {
                expected: expected_id,
                got: resp.identifier,
            });
        }
        if !verify_reply(reply, request_auth, &self.config.secret) {
            return Interpreted::Fatal(ClientError::BadAuthenticator);
        }
        let message = resp
            .text(AttributeType::ReplyMessage)
            .map(|s| s.to_string());
        match resp.code {
            Code::AccessAccept => Interpreted::Done(Outcome::Accept { message }),
            Code::AccessReject => Interpreted::Done(Outcome::Reject { message }),
            Code::AccessChallenge => {
                let state = resp
                    .attribute(AttributeType::State)
                    .map(|a| a.value.to_vec())
                    .unwrap_or_default();
                Interpreted::Done(Outcome::Challenge { state, message })
            }
            Code::AccessRequest => Interpreted::Fatal(ClientError::BadAuthenticator),
        }
    }

    /// Encode an Access-Request once, into a buffer sized to it — with
    /// room for the trace context when `traced`: User-Name, the hidden
    /// User-Password, NAS-Identifier, Calling-Station-Id and the echoed
    /// State, in the order and to the bytes `Packet::encode` gives them.
    #[allow(clippy::too_many_arguments)]
    fn encode_request(
        &self,
        id: u8,
        ra: &[u8; 16],
        username: &str,
        password: &[u8],
        calling_station: &str,
        state: Option<&[u8]>,
        traced: bool,
    ) -> Vec<u8> {
        let nas = self.config.nas_identifier.as_bytes();
        let hidden = hidden_len(password);
        let attrs = [username.as_bytes(), nas, calling_station.as_bytes()]
            .iter()
            .chain(state.as_slice())
            .map(|v| 2 + v.len())
            .sum::<usize>();
        let tail = if traced {
            tracewire::TRACE_CTX_WIRE_LEN
        } else {
            0
        };
        let mut wire = Vec::with_capacity(MIN_PACKET_LEN + attrs + 2 + hidden + tail);
        wire.push(Code::AccessRequest.code());
        wire.push(id);
        wire.extend_from_slice(&[0, 0]); // length, set below
        wire.extend_from_slice(ra);
        let put = |wire: &mut Vec<u8>, ty, value| AttrView { ty, value }.encode(wire);
        put(&mut wire, AttributeType::UserName, username.as_bytes());
        wire.push(AttributeType::UserPassword.code());
        wire.push((2 + hidden) as u8);
        // `request` refused a password over 128 octets before this.
        hide_password_into(password, ra, &self.config.secret, &mut wire);
        put(&mut wire, AttributeType::NasIdentifier, nas);
        put(
            &mut wire,
            AttributeType::CallingStationId,
            calling_station.as_bytes(),
        );
        if let Some(s) = state {
            put(&mut wire, AttributeType::State, s);
        }
        set_wire_len(&mut wire);
        wire
    }
}

/// Write `wire`'s length into its header.
fn set_wire_len(wire: &mut [u8]) {
    let len = (wire.len() as u16).to_be_bytes();
    wire[2..4].copy_from_slice(&len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::packet::Packet;
    use crate::server::{Handler, RadiusServer, ServerDecision};
    use crate::transport::{FaultPlan, InMemoryTransport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SECRET: &[u8] = b"pool-secret";

    /// A handler that accepts password "123456", challenges empty
    /// passwords, rejects the rest.
    fn token_handler() -> Arc<dyn Handler> {
        Arc::new(|_req: &Packet, pw: Option<&[u8]>| match pw {
            Some(b"") => ServerDecision::Challenge(vec![
                Attribute::new(AttributeType::State, b"chal-1".to_vec()),
                Attribute::text(AttributeType::ReplyMessage, "TACC Token:"),
            ]),
            Some(b"123456") => ServerDecision::Accept(vec![]),
            _ => ServerDecision::Reject(vec![Attribute::text(
                AttributeType::ReplyMessage,
                "Authentication error",
            )]),
        })
    }

    fn pool(n: usize) -> (RadiusClient, Vec<Arc<FaultPlan>>) {
        let mut transports: Vec<Arc<dyn Transport>> = Vec::new();
        let mut plans = Vec::new();
        for i in 0..n {
            let server = Arc::new(RadiusServer::new(SECRET, token_handler()));
            let plan = FaultPlan::healthy();
            plans.push(Arc::clone(&plan));
            transports.push(Arc::new(InMemoryTransport::new(
                &format!("radius{i}"),
                server,
                plan,
            )));
        }
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), transports);
        (client, plans)
    }

    #[test]
    fn accept_and_reject() {
        let (client, _) = pool(3);
        let mut rng = StdRng::seed_from_u64(1);
        let ok = client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .unwrap();
        assert!(matches!(ok, Outcome::Accept { .. }));
        let bad = client
            .authenticate(&mut rng, "alice", b"999999", "10.0.0.1")
            .unwrap();
        assert!(matches!(bad, Outcome::Reject { message: Some(m) } if m == "Authentication error"));
    }

    #[test]
    fn challenge_round_trip() {
        let (client, _) = pool(2);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = client
            .authenticate(&mut rng, "alice", b"", "10.0.0.1")
            .unwrap();
        let (state, message) = match outcome {
            Outcome::Challenge { state, message } => (state, message),
            other => panic!("expected challenge, got {other:?}"),
        };
        assert_eq!(message.as_deref(), Some("TACC Token:"));
        let final_outcome = client
            .respond_to_challenge(&mut rng, "alice", b"123456", "10.0.0.1", &state)
            .unwrap();
        assert!(matches!(final_outcome, Outcome::Accept { .. }));
    }

    #[test]
    fn round_robin_spreads_load() {
        let (client, _) = pool(3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..9 {
            client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
        }
        // With a healthy pool each request is exactly one attempt.
        assert_eq!(client.stats.attempts.load(Ordering::SeqCst), 9);
        assert_eq!(client.stats.failovers.load(Ordering::SeqCst), 0);
        let health = client.server_health();
        assert!(health.iter().all(|h| h.attempts == 3 && h.failures == 0));
        assert!(health.iter().all(|h| h.breaker == BreakerState::Closed));
    }

    #[test]
    fn failover_on_down_server() {
        let (client, plans) = pool(3);
        let mut rng = StdRng::seed_from_u64(4);
        plans[0].set_down(true);
        plans[1].set_down(true);
        for _ in 0..6 {
            let out = client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
            assert!(matches!(out, Outcome::Accept { .. }));
        }
        assert!(client.stats.failovers.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn all_down_reports_failure_within_deadline() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(5);
        for p in &plans {
            p.set_down(true);
        }
        let err = client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .unwrap_err();
        // The walk is bounded by the deadline budget, not a fixed round
        // count: both servers get probed repeatedly (breakers open after
        // the failure streak, then one revival probe each per cooldown)
        // and the final error still names every attempt.
        let ClientError::AllServersFailed { attempts } = err else {
            panic!("expected AllServersFailed, got {err:?}");
        };
        assert!(
            attempts >= 4,
            "too few attempts before giving up: {attempts}"
        );
        // The virtual clock never runs past the login deadline by more
        // than one backoff step.
        assert!(client.vclock_us() <= DEADLINE_US * 2);
    }

    #[test]
    fn breaker_opens_on_dead_server_and_limits_attempts() {
        let (client, plans) = pool(3);
        let mut rng = StdRng::seed_from_u64(11);
        plans[0].set_down(true);
        let logins = 300;
        for _ in 0..logins {
            let out = client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
            assert!(matches!(out, Outcome::Accept { .. }));
        }
        let health = client.server_health();
        // A naive every-request walk would hit the dead server on every
        // login that starts at (or rotates through) it — ≥ logins/3 times.
        // The breaker caps that at the failure streak plus revival probes.
        assert!(
            health[0].attempts < (logins / 3) as u64,
            "breaker did not shed load: {} attempts to dead server",
            health[0].attempts
        );
        assert!(health[0].skipped > 0, "open breaker never skipped");
        assert!(health[0].breaker_opens >= 1);
        assert_eq!(health[0].successes, 0);
        // The healthy servers carried the fleet.
        assert_eq!(health[1].successes + health[2].successes, logins as u64);
    }

    #[test]
    fn recovery_after_outage() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(6);
        plans[0].set_down(true);
        plans[1].set_down(true);
        assert!(client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .is_err());
        plans[1].set_down(false);
        assert!(client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .is_ok());
    }

    #[test]
    fn dropped_datagrams_retry_next_server() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(7);
        // Drop every datagram on server 0.
        plans[0].drop_every.store(1, Ordering::SeqCst);
        for _ in 0..4 {
            assert!(client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .is_ok());
        }
    }

    #[test]
    fn garbled_replies_fail_over_instead_of_aborting() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(12);
        // Server 0 answers every request with an undecodable datagram.
        plans[0].set_garble_every(1);
        for _ in 0..4 {
            let out = client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
            assert!(matches!(out, Outcome::Accept { .. }));
        }
        let health = client.server_health();
        assert!(health[0].failures > 0, "garbled replies not counted");
        assert_eq!(health[0].successes, 0);
    }

    #[test]
    fn wrong_pool_secret_rejected_as_bad_authenticator() {
        let server = Arc::new(RadiusServer::new(b"other-secret".to_vec(), token_handler()));
        let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "radius0",
            server,
            FaultPlan::healthy(),
        ));
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), vec![transport]);
        let mut rng = StdRng::seed_from_u64(8);
        // Password garbles under the wrong secret, so the server rejects —
        // but the response seal also fails verification, which must win.
        // Unlike an undecodable reply, a decodable-but-unauthentic one is
        // a fatal error, never a failover.
        let err = client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .unwrap_err();
        assert_eq!(err, ClientError::BadAuthenticator);
    }

    #[test]
    fn no_servers_error() {
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), vec![]);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(
            client.authenticate(&mut rng, "a", b"x", "ip").unwrap_err(),
            ClientError::NoServers
        );
    }

    /// Requests as the handler was given them, with the recovered password.
    type Seen = Vec<(Packet, Vec<u8>)>;

    /// One accept-all server behind a client, recording what it is sent.
    struct Recording {
        client: RadiusClient,
        server: Arc<RadiusServer>,
        seen: Arc<parking_lot::Mutex<Seen>>,
    }

    fn recording() -> Recording {
        let seen = Arc::new(parking_lot::Mutex::new(Seen::new()));
        let seen2 = Arc::clone(&seen);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Packet, pw: Option<&[u8]>| {
            seen2
                .lock()
                .push((req.clone(), pw.unwrap_or_default().to_vec()));
            ServerDecision::Accept(vec![])
        });
        let server = Arc::new(RadiusServer::new(SECRET, handler));
        let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "radius0",
            Arc::clone(&server),
            FaultPlan::healthy(),
        ));
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), vec![transport]);
        Recording {
            client,
            server,
            seen,
        }
    }

    impl Recording {
        /// No datagram reached the server, and the refusal cost nothing:
        /// no request or attempt counted, no virtual time, no breaker
        /// failure.
        fn assert_nothing_sent(&self) {
            assert_eq!(self.server.stats.received.load(Ordering::SeqCst), 0);
            assert_eq!(self.client.stats.requests.load(Ordering::SeqCst), 0);
            assert_eq!(self.client.stats.attempts.load(Ordering::SeqCst), 0);
            assert_eq!(self.client.vclock_us(), 0);
            let health = self.client.server_health();
            assert!(health.iter().all(|h| h.attempts == 0 && h.failures == 0));
        }
    }

    #[test]
    fn overlong_username_cannot_rewrite_the_request() {
        // 261 octets. Encoded unchecked, the length octet wraps to 7
        // ("alice") and the tail parses as a forged Calling-Station-Id
        // ahead of the true one, then two filler attributes sized so the
        // packet stays well-formed — and the server accepts it.
        let mut name = b"alice".to_vec();
        name.extend([31, 13]);
        name.extend(b"129.114.0.1");
        name.extend([b'a', 0x7f]);
        name.extend([b'a'; 125]);
        name.extend([b'a', 116]);
        name.extend([b'a'; 114]);
        assert_eq!(name.len(), 261);
        let name = String::from_utf8(name).unwrap();
        let rig = recording();
        let mut rng = StdRng::seed_from_u64(31);
        let err = rig
            .client
            .authenticate(&mut rng, &name, b"123456", "203.0.113.9")
            .unwrap_err();
        assert_eq!(err, ClientError::FieldTooLong { field: "User-Name" });
        rig.assert_nothing_sent();
    }

    #[test]
    fn field_limits_are_what_one_attribute_carries() {
        let rig = recording();
        let mut rng = StdRng::seed_from_u64(32);
        let x = |n: usize| "x".repeat(n);
        // One octet over: refused by name, nothing sent.
        for (field, user, password, calling, state) in [
            ("User-Name", x(254), x(6), x(9), None),
            ("User-Password", x(5), x(129), x(9), None),
            ("Calling-Station-Id", x(5), x(6), x(254), None),
            ("State", x(5), x(6), x(9), Some(x(254))),
        ] {
            let state = state.as_deref().map(str::as_bytes);
            let err = rig
                .client
                .request(&mut rng, &user, password.as_bytes(), &calling, state, None)
                .unwrap_err();
            assert_eq!(err, ClientError::FieldTooLong { field });
        }
        rig.assert_nothing_sent();
        // At the limit: sent, and every value arrives whole.
        let (user, password, calling, state) = (x(253), x(128), x(253), x(253));
        let out = rig.client.respond_to_challenge(
            &mut rng,
            &user,
            password.as_bytes(),
            &calling,
            state.as_bytes(),
        );
        assert!(matches!(out, Ok(Outcome::Accept { .. })));
        let seen = rig.seen.lock();
        let (req, got_password) = &seen[0];
        assert_eq!(req.attributes.len(), 5);
        assert_eq!(req.text(AttributeType::UserName), Some(user.as_str()));
        assert_eq!(got_password, password.as_bytes());
        assert_eq!(
            req.text(AttributeType::CallingStationId),
            Some(calling.as_str())
        );
        let got_state = req.attribute(AttributeType::State).unwrap();
        assert_eq!(got_state.value, state.as_bytes());
    }

    #[test]
    fn identifiers_cycle() {
        let (client, _) = pool(1);
        let first = client.next_identifier();
        for _ in 0..255 {
            client.next_identifier();
        }
        assert_eq!(client.next_identifier(), first);
    }

    #[test]
    fn telemetry_counts_requests_and_latency() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(21);
        plans[0].set_down(true);
        for _ in 0..4 {
            client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
        }
        let snap = client.metrics.snapshot();
        assert_eq!(snap.counter("hpcmfa_radius_requests_total"), 4);
        assert_eq!(
            snap.counter("hpcmfa_radius_outcomes_total{outcome=\"accept\"}"),
            4
        );
        assert!(snap.counter_family("hpcmfa_radius_attempts_total") >= 4);
        assert!(snap.counter("hpcmfa_radius_transport_errors_total{kind=\"unreachable\"}") > 0);
        let hist = snap.histogram("hpcmfa_radius_request_duration_us").unwrap();
        assert_eq!(hist.count(), 4);
        // Logins that hit the dead server first charge the unreachable
        // cost on top of the healthy round trip.
        assert!(
            hist.max() >= 12_000,
            "unreachable cost missing: {}",
            hist.max()
        );
        assert!(hist.min() >= 2_000, "rtt cost missing: {}", hist.min());
    }

    #[test]
    fn traced_requests_carry_the_id_and_record_spans() {
        use hpcmfa_telemetry::trace::namespace;
        use hpcmfa_telemetry::TraceClock;
        // A handler that proves the vendor attribute reached the server.
        let seen: Arc<parking_lot::Mutex<Vec<Option<TraceId>>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let handler: Arc<dyn Handler> = Arc::new(move |req: &Packet, _pw: Option<&[u8]>| {
            seen2.lock().push(crate::tracewire::trace_id_of(req));
            ServerDecision::Accept(vec![])
        });
        let server = Arc::new(RadiusServer::new(SECRET, handler));
        let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "radius0",
            server,
            FaultPlan::healthy(),
        ));
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), vec![transport]);
        let mut rng = StdRng::seed_from_u64(22);
        let id = TraceId::derive(namespace("login1"), 0);
        let ctx = SpanCtx::root(id, TraceClock::at(client.vclock_us()));
        client
            .request(&mut rng, "alice", b"123456", "10.0.0.1", None, Some(&ctx))
            .unwrap();
        client
            .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
            .unwrap();
        assert_eq!(seen.lock().as_slice(), &[Some(id), None]);
        // Children record before parents: the exchange attempt, then the
        // request span it hangs off.
        let spans = client.metrics.tracer().spans_for(id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].component, "radius.client");
        assert_eq!(spans[0].label, "attempt");
        assert_eq!(spans[1].label, "authenticate");
        assert_eq!(spans[1].detail, "accept");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        // The timed request span charges at least the healthy rtt cost.
        assert!(spans[1].duration_us() >= 2_000, "{:?}", spans[1]);
        assert!(spans[1].start_us <= spans[0].start_us);
        assert!(spans[1].end_us >= spans[0].end_us);
    }

    #[test]
    fn breaker_transitions_are_counted() {
        let (client, plans) = pool(2);
        let mut rng = StdRng::seed_from_u64(23);
        plans[0].set_down(true);
        for _ in 0..50 {
            client
                .authenticate(&mut rng, "alice", b"123456", "10.0.0.1")
                .unwrap();
        }
        let snap = client.metrics.snapshot();
        assert!(
            snap.counter("hpcmfa_radius_breaker_transitions_total{server=\"radius0\",to=\"open\"}")
                >= 1,
            "open transition not recorded"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = backoff_schedule();
        let b = backoff_schedule();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().sum::<u64>() <= DEADLINE_US);
        // Exponential up to the cap, jitter within +25%.
        for (i, d) in a.iter().enumerate() {
            let base = INITIAL_BACKOFF_US
                .saturating_mul(1 << i.min(20))
                .min(MAX_BACKOFF_US);
            assert!(*d >= base && *d <= base + base / 4, "round {i}: {d}");
        }
    }
}
