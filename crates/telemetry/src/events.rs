//! The structured security-event stream.
//!
//! Counters tell an operator *how much*; security events tell them *what
//! happened*. Components on the auth path emit typed
//! [`SecurityEvent`]s — a replayed OTP, a lockout, a circuit breaker
//! tripping, a WAL fsync failing — into a bounded, thread-safe ring owned
//! by the [`MetricsRegistry`], each stamped with the request's
//! [`TraceId`] so an alert links straight to the spans and audit rows
//! behind it. Emission also bumps the
//! `hpcmfa_security_events_total{kind=…}` counter family, which is what
//! the [`AlertEngine`](crate::AlertEngine) rules watch.
//!
//! Timestamps are *virtual*: each emitter stamps its own deterministic
//! clock (the simulation's unix seconds for the OTP server and PAM, the
//! RADIUS client's microsecond vclock), never the wall clock, so seeded
//! runs render byte-identical event feeds.
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use crate::trace::{SpanId, TraceId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Events retained by a [`SecurityEvents`] ring before eviction.
pub const DEFAULT_EVENTS_CAP: usize = 4_096;

/// The taxonomy of security-relevant conditions the stack can raise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityEventKind {
    /// A streak of consecutive authentication failures (PAM stack).
    AuthFailureBurst,
    /// A user account crossed the OTP failure-lockout threshold.
    LockoutStorm,
    /// An already-consumed OTP step was presented again.
    ReplayAttempt,
    /// An SMS fallback code was requested while one was still pending.
    SmsAbuse,
    /// A RADIUS circuit breaker tripped open (or a proxy lost its
    /// upstream pool).
    BreakerFlap,
    /// A WAL append/fsync failed and a request was denied fail-safe.
    WalFsyncDegraded,
    /// The risk engine demanded step-up for a login (exemption bypass
    /// revoked; the token module must run).
    RiskStepUp,
    /// The risk engine denied a login outright (score ≥ deny threshold,
    /// e.g. impossible travel).
    RiskDeny,
    /// The OTP-server admission controller shed a request under
    /// overload (rate limit, unauthenticated flood, or full queue).
    OverloadShed,
    /// An OTP standby was promoted to primary (replication failover):
    /// the epoch advanced and the deposed node is fenced.
    Failover,
    /// A session-resumption token was replayed: its single-use nonce was
    /// already consumed, or it was presented from outside its bound /16
    /// (RFC 9000 §8.1.4's stolen-token shape).
    ResumeReplay,
    /// A federated realm's entire upstream pool became unreachable (the
    /// realm router could not deliver a login to the peer).
    RealmUnreachable,
}

impl SecurityEventKind {
    /// The snake_case label used for the
    /// `hpcmfa_security_events_total{kind=…}` series and in rendered
    /// feeds.
    pub fn label(self) -> &'static str {
        match self {
            SecurityEventKind::AuthFailureBurst => "auth_failure_burst",
            SecurityEventKind::LockoutStorm => "lockout_storm",
            SecurityEventKind::ReplayAttempt => "replay_attempt",
            SecurityEventKind::SmsAbuse => "sms_abuse",
            SecurityEventKind::BreakerFlap => "breaker_flap",
            SecurityEventKind::WalFsyncDegraded => "wal_fsync_degraded",
            SecurityEventKind::RiskStepUp => "risk_step_up",
            SecurityEventKind::RiskDeny => "risk_deny",
            SecurityEventKind::OverloadShed => "overload_shed",
            SecurityEventKind::Failover => "failover",
            SecurityEventKind::ResumeReplay => "resume_replay",
            SecurityEventKind::RealmUnreachable => "realm_unreachable",
        }
    }
}

impl fmt::Display for SecurityEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One security event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecurityEvent {
    /// What happened.
    pub kind: SecurityEventKind,
    /// The request that triggered it, when one was in flight. Every
    /// emitter on the simulated auth path has a trace in scope, so in
    /// `Center`-driven runs this is always `Some`.
    pub trace: Option<TraceId>,
    /// The span that was open when the event was emitted, so an
    /// alert → event → span → parent-chain walk needs no grep. Emitters
    /// off the request path (e.g. background failover) stamp the span
    /// they opened for the operation itself.
    pub span: Option<SpanId>,
    /// The emitter's virtual-clock timestamp (unix seconds for the OTP
    /// server / PAM, microseconds for the RADIUS client vclock).
    pub at: u64,
    /// Free-form detail (user, server, streak length; never secrets).
    pub detail: String,
}

impl fmt::Display for SecurityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} trace=", self.at, self.kind)?;
        match self.trace {
            Some(t) => write!(f, "{t}")?,
            None => write!(f, "-")?,
        }
        write!(f, " span=")?;
        match self.span {
            Some(s) => write!(f, "{s}")?,
            None => write!(f, "-")?,
        }
        write!(f, " {}", self.detail)
    }
}

struct EventsInner {
    ring: VecDeque<SecurityEvent>,
    cap: usize,
    dropped: u64,
}

/// A bounded, thread-safe ring of [`SecurityEvent`]s (one per
/// [`MetricsRegistry`], like the span [`Tracer`]).
///
/// [`MetricsRegistry`]: crate::MetricsRegistry
/// [`Tracer`]: crate::Tracer
pub struct SecurityEvents {
    inner: Mutex<EventsInner>,
}

impl Default for SecurityEvents {
    fn default() -> Self {
        Self::with_cap(DEFAULT_EVENTS_CAP)
    }
}

impl SecurityEvents {
    /// New ring retaining at most `cap` events.
    pub(crate) fn with_cap(cap: usize) -> Self {
        SecurityEvents {
            inner: Mutex::new(EventsInner {
                ring: VecDeque::new(),
                cap,
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventsInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one event, evicting the oldest past the cap.
    pub(crate) fn push(&self, event: SecurityEvent) {
        let mut inner = self.lock();
        if inner.cap == 0 {
            inner.dropped += 1;
            return;
        }
        while inner.ring.len() >= inner.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
    }

    /// The newest `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<SecurityEvent> {
        let inner = self.lock();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Every retained event, oldest first.
    pub fn all(&self) -> Vec<SecurityEvent> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn of_kind(&self, kind: SecurityEventKind) -> Vec<SecurityEvent> {
        self.lock()
            .ring
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Events evicted by the ring cap since creation.
    pub(crate) fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SecurityEventKind, at: u64) -> SecurityEvent {
        SecurityEvent {
            kind,
            trace: Some(TraceId::from_u64(at)),
            span: Some(SpanId::from_u64(at)),
            at,
            detail: format!("n={at}"),
        }
    }

    #[test]
    fn push_and_tail_preserve_order() {
        let ring = SecurityEvents::default();
        for i in 0..5 {
            ring.push(ev(SecurityEventKind::ReplayAttempt, i));
        }
        assert_eq!(ring.all().len(), 5);
        let tail = ring.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].at, 3);
        assert_eq!(tail[1].at, 4);
        assert_eq!(ring.tail(100).len(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn cap_evicts_oldest_and_counts_drops() {
        let ring = SecurityEvents::with_cap(3);
        for i in 0..7 {
            ring.push(ev(SecurityEventKind::BreakerFlap, i));
        }
        assert_eq!(ring.all().len(), 3);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.all()[0].at, 4);
    }

    #[test]
    fn of_kind_filters() {
        let ring = SecurityEvents::default();
        ring.push(ev(SecurityEventKind::LockoutStorm, 1));
        ring.push(ev(SecurityEventKind::SmsAbuse, 2));
        ring.push(ev(SecurityEventKind::LockoutStorm, 3));
        assert_eq!(ring.of_kind(SecurityEventKind::LockoutStorm).len(), 2);
        assert_eq!(ring.of_kind(SecurityEventKind::WalFsyncDegraded).len(), 0);
    }

    #[test]
    fn display_renders_trace_span_and_detail() {
        let e = ev(SecurityEventKind::WalFsyncDegraded, 9);
        let line = e.to_string();
        assert!(line.starts_with("9 wal_fsync_degraded trace=0000000000000009"));
        assert!(line.contains(" span=0000000000000009 "));
        assert!(line.ends_with("n=9"));
        let anon = SecurityEvent {
            trace: None,
            span: None,
            ..e
        };
        assert!(anon.to_string().contains("trace=- span=-"));
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::BTreeSet<_> = [
            SecurityEventKind::AuthFailureBurst,
            SecurityEventKind::LockoutStorm,
            SecurityEventKind::ReplayAttempt,
            SecurityEventKind::SmsAbuse,
            SecurityEventKind::BreakerFlap,
            SecurityEventKind::WalFsyncDegraded,
            SecurityEventKind::RiskStepUp,
            SecurityEventKind::RiskDeny,
            SecurityEventKind::OverloadShed,
            SecurityEventKind::Failover,
            SecurityEventKind::ResumeReplay,
            SecurityEventKind::RealmUnreachable,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 12);
        assert_eq!(SecurityEventKind::ReplayAttempt.label(), "replay_attempt");
        assert_eq!(SecurityEventKind::RiskDeny.label(), "risk_deny");
        assert_eq!(SecurityEventKind::OverloadShed.label(), "overload_shed");
        assert_eq!(SecurityEventKind::Failover.label(), "failover");
        assert_eq!(SecurityEventKind::ResumeReplay.label(), "resume_replay");
        assert_eq!(
            SecurityEventKind::RealmUnreachable.label(),
            "realm_unreachable"
        );
    }
}
