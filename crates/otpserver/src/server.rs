//! The validation engine: token-code checks, replay nullification, the
//! 20-failure lockout, SMS triggering, and admin operations.
//!
//! When built [`with_storage`](LinotpServer::with_storage), every
//! operation's state record and audit row go to the WAL as one commit
//! through the [`durability`](crate::durability) layer and are synced
//! *before* the operation is acknowledged: an accepted code whose replay
//! mark cannot be persisted is answered [`ValidationOutcome::Unavailable`]
//! (deny), never `Success` — the fail-safe direction for an
//! authentication service. The three operations a login waits on —
//! validate, SMS trigger, resume consume — are each one *begin* (up to
//! the commit's append, under the store or ledger lock) and one *finish*
//! (everything the commit's verdict decides), driven on the caller's
//! thread (`Begun::settle`) or left with the pump (`Begun::park`).

use crate::audit::{AuditAction, AuditLog, NewRow, Staged};
use crate::durability::snapshot::snapshot_live;
use crate::durability::{
    recover, Commit, DurabilityCounters, Finish, Persistence, RecoverError, RecoveryReport,
    StorageBackend, Ticket, WalRecord,
};
use crate::overload::{AdmissionController, OverloadConfig, ShedReason};
use crate::sms::{PhoneNumber, SmsMessage, SmsProvider};
use crate::store::{PendingSmsCode, TokenPairing, TokenStore, TotpProvenance, UserTokenStatus};
use crate::{DRIFT_TOLERANCE_SECS, LOCKOUT_THRESHOLD, SMS_CODE_VALIDITY_SECS};
use hpcmfa_crypto::ct::ct_eq;
use hpcmfa_otp::hotp::hotp_value_prepared;
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_telemetry::{
    Counter, DetachedSpan, Histogram, MetricsRegistry, SecurityEventKind, SpanCtx, SpanGuard,
    SpanId, SpanStatus, TraceId,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Modeled virtual-time costs (µs) charged to the shared trace clock by
/// the responder-side spans. Purely virtual — wall time is untouched —
/// these make the critical-path analysis name which stage dominated a
/// login (window scan vs WAL fsync vs admission wait) deterministically.
pub(crate) mod span_cost {
    /// Fixed engine overhead per validate/sms operation.
    pub(crate) const OTP_BASE_US: u64 = 90;
    /// Per drift-window step walked during a TOTP verify.
    pub(crate) const WINDOW_SCAN_STEP_US: u64 = 18;
    /// One WAL append + fsync on the durable path.
    pub(crate) const WAL_FSYNC_US: u64 = 420;
    /// Handing one message to the SMS provider.
    pub(crate) const SMS_DISPATCH_US: u64 = 250;
    /// Waiting for the warm standby to ack the shipped frame.
    pub(crate) const REPLICATION_ACK_US: u64 = 650;
    /// Promoting the standby to primary (reload included).
    pub(crate) const FAILOVER_PROMOTE_US: u64 = 1_500;
}

/// Result of a token-code validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// Code accepted; the code is now nullified.
    Success,
    /// Code did not match (or SMS code expired).
    WrongCode,
    /// Code matched a step already consumed — replays are refused.
    Replayed,
    /// Account deactivated by the failure-counter policy.
    Locked,
    /// User has no pairing in the token database.
    NoToken,
    /// The code matched but its nullification could not be made durable;
    /// the attempt is denied rather than risk a replay window after a
    /// crash. The submitted code is burned either way.
    Unavailable,
}

impl ValidationOutcome {
    /// Whether SSH entry may proceed.
    pub fn is_success(self) -> bool {
        self == ValidationOutcome::Success
    }
}

/// Result of asking the server to text a code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmsTrigger {
    /// A message was handed to the provider.
    Sent(SmsMessage),
    /// A previously sent code is still active; "LinOTP will not forward to
    /// Twilio and instead ... a response message ... notifying them that the
    /// SMS has already been sent" (§3.3).
    AlreadyActive,
    /// The user's pairing is not an SMS token.
    NotSmsUser,
    /// No pairing at all.
    NoToken,
    /// Account locked out.
    Locked,
    /// The issued code could not be made durable; nothing was sent.
    Unavailable,
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Consecutive failures before deactivation (paper: 20).
    pub lockout_threshold: u32,
    /// TOTP drift tolerance in seconds (paper: 300).
    pub drift_tolerance_secs: u64,
    /// SMS code validity in seconds.
    pub sms_validity_secs: u64,
    /// Half-width of the resync search window, in time steps.
    pub resync_window_steps: u64,
    /// Audit-log retention cap (ring semantics; oldest entries evicted).
    pub audit_cap: usize,
    /// WAL *records* (not commits: a validate writes two, its state
    /// record and its audit row) between compacting snapshots when a
    /// storage backend is attached (0 = never compact). Bounds WAL size
    /// and recovery replay time.
    pub snapshot_every_appends: u64,
    /// Telemetry registry receiving validation counters, latency
    /// histograms, durability counters, and spans. Defaults to a private
    /// registry; a computing center hands every component the same one.
    pub metrics: Arc<MetricsRegistry>,
    /// Admission control in front of the token store; `None` (the
    /// default) keeps the original unguarded behaviour.
    pub overload: Option<OverloadConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lockout_threshold: LOCKOUT_THRESHOLD,
            drift_tolerance_secs: DRIFT_TOLERANCE_SECS,
            sms_validity_secs: SMS_CODE_VALIDITY_SECS,
            resync_window_steps: 2_000,
            audit_cap: crate::audit::DEFAULT_AUDIT_CAP,
            snapshot_every_appends: 256,
            metrics: Arc::new(MetricsRegistry::new()),
            overload: None,
        }
    }
}

/// The LinOTP-substitute server.
pub struct LinotpServer {
    store: TokenStore,
    audit: AuditLog,
    sms: Arc<dyn SmsProvider>,
    rng: Mutex<StdRng>,
    config: ServerConfig,
    /// Shared handle to `config.metrics`.
    metrics: Arc<MetricsRegistry>,
    held: HeldSeries,
    /// WAL/snapshot pump; `None` keeps the original volatile behaviour.
    persistence: Option<Persistence>,
    /// Admission control; `None` keeps the original unguarded behaviour.
    admission: Option<AdmissionController>,
    /// Single-use enforcement for the federation resumption path.
    resume_consumed: Mutex<ResumeLedger>,
}

/// Consumed resumption-token nonces → ledger expiry (the token's own
/// stateless expiry, after which the entry may be purged).
#[derive(Default)]
struct ResumeLedger {
    consumed: BTreeMap<[u8; 16], u64>,
    /// The latest expiry the last purge left behind: once `now` reaches
    /// it every nonce that purge kept has expired, so the next one is due.
    purge_due: u64,
}

impl ResumeLedger {
    /// Forget expired nonces: past its expiry the stateless step-window
    /// check rejects the token anyway. Consumes run it when due, so each
    /// nonce is visited at most twice and a server that never compacts
    /// still forgets; the compactor runs it so none lands in a snapshot.
    fn purge_expired(&mut self, now: u64) {
        self.consumed.retain(|_, expires_at| *expires_at > now);
        self.purge_due = self.consumed.values().copied().max().unwrap_or(0);
    }
}

/// The audit detail of a validation outcome.
fn validation_detail(outcome: ValidationOutcome) -> &'static str {
    match outcome {
        ValidationOutcome::Success => "ok",
        ValidationOutcome::WrongCode => "wrong code",
        ValidationOutcome::Replayed => "replayed code",
        ValidationOutcome::Locked => "account locked",
        ValidationOutcome::NoToken => "no pairing",
        ValidationOutcome::Unavailable => "durability unavailable",
    }
}

/// One operation's audit rows and, on a server with storage, the WAL
/// commit they ride in with its state records. Opened before the store or
/// ledger lock the operation mutates under. A row is encoded once, as
/// its WAL frame, and staged; the commit appends the same bytes, and the
/// ring keeps them. [`Txn::append`] hands the commit to the WAL
/// inside that lock — WAL order is mutation order — and [`Txn::settle`]
/// waits for its sync once the lock is released. Dropping the `Txn`
/// settles what is still unsettled (best effort: audit persistence
/// failures are counted, never gate), copies the staged rows into the
/// ring, releases the compactor fence, and only then checks whether a
/// compaction is due — so a row enters the ring after the commit that
/// carries it and before the fence drops.
///
/// **Why the lock may be released before the sync.** Every record a
/// gated operation appends is absolute state — `last_step`,
/// `fail_count`, `active`, a pending SMS code, a consumed nonce — and the
/// mutation is already in memory when the lock drops. A second operation
/// that reads the not-yet-durable mark can therefore only *deny* more (a
/// replay, an already-consumed nonce, a code already active, a higher
/// failure count); its own commit has a later sequence number, so it is
/// durable only if the first is; and a failed sync denies every
/// unacknowledged commit up to its end, the reader's included. Nothing
/// is acknowledged on the strength of state that may yet be lost.
/// ([`LinotpServer::resync`] reactivates an account, which that argument
/// does not cover: it alone still syncs under its shard lock.)
pub(crate) struct Txn<'a> {
    server: &'a LinotpServer,
    user: &'a str,
    now: u64,
    /// The trace the operation rode in on, when the RADIUS hop carried one.
    trace: Option<TraceId>,
    /// `None` on a volatile server.
    commit: Option<Commit>,
    /// Where [`Txn::append`] left the commit, until [`Txn::settle`].
    ticket: Option<Ticket>,
    /// The frames of the rows bound for the ring, encoded once: the
    /// commit carries the same bytes.
    staged: Staged,
    /// It runs as a parked commit's finish, whose compaction claim the
    /// pump refuses and whose denial row is told out of turn.
    parked: bool,
}

impl<'a> Txn<'a> {
    /// Add the record `build` returns (not called on a volatile server).
    fn record(&mut self, build: impl FnOnce() -> WalRecord) {
        if let Some(c) = &mut self.commit {
            c.record(&build());
        }
    }

    fn val_state(&mut self, last_step: Option<u64>, fail_count: u32, active: bool) {
        if let Some(c) = &mut self.commit {
            c.val_state(self.user, last_step, fail_count, active);
        }
    }

    /// Add an audit row, its detail ending in the operation's trace id —
    /// `grep trace=<hex>` then joins the OTP audit log with the PAM and
    /// RADIUS spans of the same login.
    fn audit(&mut self, action: AuditAction, success: bool, detail: &str) {
        let frame = self.staged.stage(&NewRow {
            at: self.now,
            user: self.user,
            action,
            success,
            detail,
            trace: self.trace,
        });
        if let Some(c) = &mut self.commit {
            c.frame(frame);
        }
    }

    /// Hand what was added to the WAL: the step that belongs inside the
    /// lock the operation mutates under.
    fn append(&mut self) {
        if let Some(c) = &mut self.commit {
            self.ticket = c.append();
        }
    }

    /// Make what was added durable, appending it first if
    /// [`Txn::append`] has not; `false` only on a persistence failure.
    /// A durable commit's rows go into the ring in WAL order as its
    /// verdict comes; a failed one's stay staged, for the operations
    /// durability does not gate, whose rows say what the store holds, and
    /// for the drop.
    fn settle(&mut self) -> bool {
        let (Some(c), Some(pump)) = (&mut self.commit, &self.server.persistence) else {
            return true;
        };
        let Some(ticket) = self.ticket.take().or_else(|| c.append()) else {
            return true;
        };
        let (audit, staged) = (&self.server.audit, &mut self.staged);
        let push = || {
            audit.push_frames(staged.frames());
            staged.clear();
        };
        pump.settle(ticket, self.parked, push).is_ok()
    }

    /// Forget the rows of a commit that failed: the caller stages the
    /// denial it answers instead.
    fn discard_staged(&mut self) {
        self.staged.clear();
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        self.settle();
        self.server.audit.push_frames(self.staged.frames());
        if let Some(commit) = self.commit.take() {
            // The compactor's claim waits for the pass this gives back.
            drop(commit);
            self.server.maybe_compact(self.now, self.parked);
        }
    }
}

/// What a gated operation carries from its commit's append to its
/// verdict: plain data, so that it can wait on no thread.
pub(crate) trait Gated: Send + 'static {
    /// What the caller is told.
    type Outcome;

    /// Everything the verdict decides: the `Unavailable` rewrite and its
    /// denial row, outcome counters, security events, span statuses.
    fn finish(self, txn: &mut Txn<'_>, persisted: bool) -> Self::Outcome;
}

/// A gated operation past its *begin*: the store (or ledger) holds what
/// it did, its commit is appended, the lock is released. Two drivers
/// take it to its *finish*, and there is one of each.
pub(crate) struct Begun<'a, Op> {
    txn: Txn<'a>,
    op: Op,
}

impl<'a, Op: Gated> Begun<'a, Op> {
    /// The user the operation is on.
    pub(crate) fn user(&self) -> &'a str {
        self.txn.user
    }

    /// Drive inline: wait for the commit's sync on this thread — leading
    /// it when none is in flight — and finish.
    pub(crate) fn settle(self) -> Op::Outcome {
        let Begun { mut txn, op } = self;
        let persisted = txn.settle();
        op.finish(&mut txn, persisted)
    }

    /// Whether [`Begun::settle`] would wait for a sync another thread is
    /// running.
    pub(crate) fn would_wait(&self) -> bool {
        let pump = self.txn.server.persistence.as_ref();
        pump.zip(self.txn.ticket.as_ref())
            .is_some_and(|(pump, ticket)| pump.would_wait(ticket))
    }

    /// Drive parked: leave the finish with the pump, to be run — and its
    /// outcome handed to `then` — by the thread holding the release turn
    /// once the verdict is in. Returns the pump and the commit's sequence
    /// number to [`Persistence::drive`] it by, or `None` if there was
    /// nothing to wait behind after all and both ran here. `server` is the
    /// shared handle of the server that began it.
    pub(crate) fn park(
        self,
        server: Arc<LinotpServer>,
        then: impl FnOnce(&str, Op::Outcome) + Send + 'static,
    ) -> Option<(Persistence, u64)> {
        let Begun { mut txn, op } = self;
        let (pump, user) = (txn.server.persistence.as_ref(), txn.user.to_string());
        // The operation leaves this thread with its commit and rows, and
        // what is left of `txn` drops as a no-op.
        let (now, trace, ticket) = (txn.now, txn.trace, txn.ticket.take());
        let (commit, staged) = (txn.commit.take(), std::mem::take(&mut txn.staged));
        drop(txn);
        let finish: Finish = Box::new(move |persisted| {
            let mut txn = Txn {
                server: &server,
                user: &user,
                now,
                trace,
                commit,
                ticket: None,
                staged,
                parked: true,
            };
            let outcome = op.finish(&mut txn, persisted);
            drop(txn);
            then(&user, outcome);
        });
        match pump.zip(ticket) {
            Some((pump, ticket)) => pump.park(ticket, finish),
            None => {
                finish(true);
                None
            }
        }
    }
}

/// Stage a validation's audit rows: what the caller is told, and the
/// lockout the attempt tripped.
fn validation_rows(
    txn: &mut Txn<'_>,
    outcome: ValidationOutcome,
    locked_now: bool,
) -> (ValidationOutcome, bool) {
    txn.audit(
        AuditAction::Validate,
        outcome.is_success(),
        validation_detail(outcome),
    );
    if locked_now {
        txn.audit(AuditAction::Lockout, true, "threshold reached");
    }
    (outcome, locked_now)
}

/// A validation between [`LinotpServer::validate_begin`] and its verdict.
pub(crate) struct Validate {
    /// The `validate` span and, on a server with storage, its `wal_fsync`
    /// child, off the tracer until the verdict has stamped them.
    span: Option<DetachedSpan>,
    fsync: Option<DetachedSpan>,
    /// The `validate` span's id: every event carries it, so every alert
    /// joins the trace tree.
    span_id: Option<SpanId>,
    /// What the store said.
    outcome: ValidationOutcome,
    locked_now: bool,
    source: Option<Ipv4Addr>,
    started: Instant,
}

impl Gated for Validate {
    type Outcome = ValidationOutcome;

    fn finish(self, txn: &mut Txn<'_>, persisted: bool) -> ValidationOutcome {
        let (server, username, now, trace) = (txn.server, txn.user, txn.now, txn.trace);
        let tracer = server.metrics.tracer();
        if let Some(mut fsync) = self.fsync.map(|span| tracer.attach(span)) {
            if !persisted {
                fsync.set_status(SpanStatus::Error);
                fsync.set_detail("append failed");
            }
        }
        let outcome = if persisted {
            self.outcome
        } else {
            // An accepted code whose nullification is not durable must not
            // be acknowledged: after a crash the WAL would re-open its
            // replay window. The in-memory mark stays advanced (deny-safe)
            // and the caller sees Unavailable. The failed commit's rows
            // went with it; these say what the caller is told.
            let told = match self.outcome {
                ValidationOutcome::Success => ValidationOutcome::Unavailable,
                other => other,
            };
            txn.discard_staged();
            validation_rows(txn, told, self.locked_now).0
        };

        let event = |kind, what: &str| {
            let detail = format!("user={username} {what}");
            server
                .metrics
                .emit_event(kind, trace, self.span_id, now, detail)
        };
        server.held.validations[outcome as usize]
            .get_or_init(|| {
                server.metrics.counter(
                    "hpcmfa_otp_validations_total",
                    &[("outcome", validation_label(outcome))],
                )
            })
            .inc();
        if self.locked_now {
            server
                .held
                .lockouts
                .get_or_init(|| server.metrics.counter("hpcmfa_otp_lockouts_total", &[]))
                .inc();
            event(SecurityEventKind::LockoutStorm, "threshold reached");
        }
        match outcome {
            ValidationOutcome::Replayed => event(
                SecurityEventKind::ReplayAttempt,
                "consumed code resubmitted",
            ),
            ValidationOutcome::Unavailable => event(
                SecurityEventKind::WalFsyncDegraded,
                "accepted code not durable, denied",
            ),
            _ => {}
        }
        server
            .held
            .validate_wall_us
            .get_or_init(|| server.metrics.histogram("hpcmfa_otp_validate_wall_us", &[]))
            .record_elapsed_us(self.started);
        if outcome.is_success() {
            if let (Some(adm), Some(src)) = (&server.admission, self.source) {
                adm.note_success(src, now);
            }
        }
        stamp_validation_span(&mut self.span.map(|span| tracer.attach(span)), outcome);
        outcome
    }
}

/// A resume-nonce consume between its ledger insert and its verdict.
pub(crate) struct ResumeConsume {
    /// The `resume_consume` span, off the tracer until stamped.
    span: Option<DetachedSpan>,
    span_id: Option<SpanId>,
    /// Whether this was the nonce's first presentation.
    fresh: bool,
}

impl Gated for ResumeConsume {
    type Outcome = ResumeConsumeOutcome;

    fn finish(self, txn: &mut Txn<'_>, persisted: bool) -> ResumeConsumeOutcome {
        let (server, username, now, trace) = (txn.server, txn.user, txn.now, txn.trace);
        let outcome = match (self.fresh, persisted) {
            (true, true) => ResumeConsumeOutcome::Fresh,
            (true, false) => {
                txn.discard_staged();
                let detail = "resume consume not durable, denied";
                txn.audit(AuditAction::Validate, false, detail);
                ResumeConsumeOutcome::Unavailable
            }
            (false, _) => ResumeConsumeOutcome::Replayed,
        };
        let label = match outcome {
            ResumeConsumeOutcome::Fresh => "fresh",
            ResumeConsumeOutcome::Replayed => "replayed",
            ResumeConsumeOutcome::Unavailable => "unavailable",
        };
        server.held.resume_consumes[outcome as usize]
            .get_or_init(|| {
                server
                    .metrics
                    .counter("hpcmfa_otp_resume_consumes_total", &[("outcome", label)])
            })
            .inc();
        let event = |kind, what: &str| {
            let detail = format!("user={username} {what}");
            server
                .metrics
                .emit_event(kind, trace, self.span_id, now, detail)
        };
        match outcome {
            ResumeConsumeOutcome::Replayed => {
                event(SecurityEventKind::ResumeReplay, "resumption nonce replayed")
            }
            ResumeConsumeOutcome::Unavailable => event(
                SecurityEventKind::WalFsyncDegraded,
                "resume consume not durable, denied",
            ),
            ResumeConsumeOutcome::Fresh => {}
        }
        if let Some(mut g) = self.span.map(|span| server.metrics.tracer().attach(span)) {
            g.set_detail(label);
            match outcome {
                ResumeConsumeOutcome::Fresh => {}
                ResumeConsumeOutcome::Replayed => g.set_status(SpanStatus::Error),
                ResumeConsumeOutcome::Unavailable => g.set_status(SpanStatus::Degraded),
            }
        }
        outcome
    }
}

/// An SMS trigger between its issue record's append and its verdict.
pub(crate) struct SmsIssue {
    /// The `sms` span, off the tracer until stamped.
    span: Option<DetachedSpan>,
    /// Parents `sms_dispatch`; its `parent` field stamps emitted events.
    tctx: Option<SpanCtx>,
    /// `Ok`: the number to text and the code issued to it. `Err`: nothing
    /// is sent, and why.
    issued: Result<(PhoneNumber, String), SmsTrigger>,
}

impl Gated for SmsIssue {
    type Outcome = SmsTrigger;

    fn finish(self, txn: &mut Txn<'_>, persisted: bool) -> SmsTrigger {
        let (server, username, now, trace) = (txn.server, txn.user, txn.now, txn.trace);
        let tracer = server.metrics.tracer();
        let trigger = match self.issued {
            // The SMS is dispatched only once its commit is durable.
            Ok((phone, code)) if persisted => {
                let dispatch = self.tctx.as_ref().map(|c| {
                    let g = tracer.start(c, "otp", "sms_dispatch");
                    c.clock.advance_us(span_cost::SMS_DISPATCH_US);
                    g
                });
                let body = format!("Your TACC token code is {code}");
                let msg = server.sms.send(&phone, &body, now);
                drop(dispatch);
                SmsTrigger::Sent(msg)
            }
            Ok((_, code)) => {
                txn.discard_staged();
                txn.audit(AuditAction::SmsTriggered, false, "durability unavailable");
                // The code nobody will be sent stops being pending, so the
                // next trigger issues one instead of suppressing itself.
                server.store.with_record(username, |rec| {
                    if let TokenPairing::Sms { pending, .. } = &mut rec.pairing {
                        if pending.as_ref().is_some_and(|p| p.code == code) {
                            *pending = None;
                        }
                    }
                });
                SmsTrigger::Unavailable
            }
            Err(refused) => refused,
        };
        let span_id = self.tctx.as_ref().and_then(|c| c.parent);
        let event = |kind, what: &str| {
            let detail = format!("user={username} {what}");
            server.metrics.emit_event(kind, trace, span_id, now, detail)
        };
        match trigger {
            SmsTrigger::AlreadyActive => {
                event(SecurityEventKind::SmsAbuse, "re-trigger while code active")
            }
            SmsTrigger::Unavailable => event(
                SecurityEventKind::WalFsyncDegraded,
                "sms issue not durable, withheld",
            ),
            _ => {}
        }
        let slot = sms_slot(&trigger);
        server.held.sms_triggers[slot]
            .get_or_init(|| {
                server.metrics.counter(
                    "hpcmfa_otp_sms_triggers_total",
                    &[("result", SMS_LABELS[slot])],
                )
            })
            .inc();
        stamp_sms_span(&mut self.span.map(|span| tracer.attach(span)), &trigger);
        trigger
    }
}

/// The names one admission-guarded operation goes by.
struct Guarded {
    /// Span label, and the operation named to admission control.
    label: &'static str,
    /// Audit action of the row a shed request leaves.
    action: AuditAction,
    /// Counter family and label key that count a shed request as
    /// `unavailable`.
    counter: (&'static str, &'static str),
}

/// The `outcome` label used for counters and span details.
fn validation_label(outcome: ValidationOutcome) -> &'static str {
    match outcome {
        ValidationOutcome::Success => "success",
        ValidationOutcome::WrongCode => "wrong_code",
        ValidationOutcome::Replayed => "replayed",
        ValidationOutcome::Locked => "locked",
        ValidationOutcome::NoToken => "no_token",
        ValidationOutcome::Unavailable => "unavailable",
    }
}

/// The `result` labels used for counters and span details, in
/// [`sms_slot`] order.
const SMS_LABELS: [&str; 6] = [
    "sent",
    "already_active",
    "not_sms_user",
    "no_token",
    "locked",
    "unavailable",
];

/// Where `trigger` sits in [`SMS_LABELS`] and [`HeldSeries::sms_triggers`].
fn sms_slot(trigger: &SmsTrigger) -> usize {
    match trigger {
        SmsTrigger::Sent(_) => 0,
        SmsTrigger::AlreadyActive => 1,
        SmsTrigger::NotSmsUser => 2,
        SmsTrigger::NoToken => 3,
        SmsTrigger::Locked => 4,
        SmsTrigger::Unavailable => 5,
    }
}

/// The `result` label of `trigger`.
fn sms_label(trigger: &SmsTrigger) -> &'static str {
    SMS_LABELS[sms_slot(trigger)]
}

/// The series every operation counts, each looked up in the registry the
/// first time it is counted and held from then on: a lookup builds a key
/// and takes the registry's lock, several times what the increment costs.
/// First use rather than construction, so a series nothing has counted yet
/// stays out of `/system/metrics`. A labelled family is an array indexed
/// by the outcome's discriminant ([`sms_slot`] for an [`SmsTrigger`]).
#[derive(Default)]
struct HeldSeries {
    window_scans: OnceLock<Arc<Counter>>,
    validations: [OnceLock<Arc<Counter>>; 6],
    lockouts: OnceLock<Arc<Counter>>,
    validate_wall_us: OnceLock<Arc<Histogram>>,
    resume_consumes: [OnceLock<Arc<Counter>>; 3],
    sms_triggers: [OnceLock<Arc<Counter>>; 6],
}

/// Close out a `validate` span: outcome label as detail, degraded for
/// durability denials, error for the other non-success outcomes.
fn stamp_validation_span(guard: &mut Option<SpanGuard<'_>>, outcome: ValidationOutcome) {
    if let Some(g) = guard.as_mut() {
        g.set_detail(validation_label(outcome));
        match outcome {
            ValidationOutcome::Success => {}
            ValidationOutcome::Unavailable => g.set_status(SpanStatus::Degraded),
            _ => g.set_status(SpanStatus::Error),
        }
    }
}

/// Close out an `sms` span analogously.
fn stamp_sms_span(guard: &mut Option<SpanGuard<'_>>, trigger: &SmsTrigger) {
    if let Some(g) = guard.as_mut() {
        g.set_detail(sms_label(trigger));
        match trigger {
            SmsTrigger::Sent(_) | SmsTrigger::AlreadyActive | SmsTrigger::NotSmsUser => {}
            SmsTrigger::Unavailable => g.set_status(SpanStatus::Degraded),
            SmsTrigger::NoToken | SmsTrigger::Locked => g.set_status(SpanStatus::Error),
        }
    }
}

impl LinotpServer {
    /// Create a server with default configuration.
    pub fn new(sms: Arc<dyn SmsProvider>, seed: u64) -> Arc<Self> {
        Self::with_config(sms, seed, ServerConfig::default())
    }

    /// Create with explicit configuration.
    pub fn with_config(sms: Arc<dyn SmsProvider>, seed: u64, config: ServerConfig) -> Arc<Self> {
        Arc::new(Self::empty(sms, seed, config, None))
    }

    /// Create a durable server: recover whatever state `backend` holds
    /// (empty backends recover to an empty store), then persist every
    /// mutation through it. Fails only if the snapshot is corrupt or the
    /// backend is unreadable — a torn WAL tail recovers by truncation.
    pub fn with_storage(
        sms: Arc<dyn SmsProvider>,
        seed: u64,
        config: ServerConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Arc<Self>, RecoverError> {
        let persistence =
            Persistence::with_metrics(backend, config.snapshot_every_appends, &config.metrics);
        let server = Self::empty(sms, seed, config, Some(persistence));
        server.reload_from_storage()?;
        Ok(Arc::new(server))
    }

    /// A server with nothing enrolled, pumping through `persistence`
    /// (`None` keeps it volatile).
    fn empty(
        sms: Arc<dyn SmsProvider>,
        seed: u64,
        config: ServerConfig,
        persistence: Option<Persistence>,
    ) -> Self {
        let metrics = Arc::clone(&config.metrics);
        let admission = config
            .overload
            .clone()
            .map(|c| AdmissionController::new(c, Arc::clone(&metrics)));
        LinotpServer {
            store: TokenStore::new(),
            audit: AuditLog::with_cap(config.audit_cap),
            sms,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            config,
            metrics,
            held: HeldSeries::default(),
            persistence,
            admission,
            resume_consumed: Mutex::default(),
        }
    }

    /// The durability pump, or the error every storage operation of a
    /// volatile server answers.
    fn storage(&self) -> Result<&Persistence, RecoverError> {
        self.persistence.as_ref().ok_or_else(|| {
            RecoverError::Storage(crate::durability::StorageError::Io(
                "no storage backend attached".into(),
            ))
        })
    }

    /// Crash the process image and come back up from durable state:
    /// un-synced backend bytes are lost (possibly leaving a torn tail),
    /// the in-memory store and audit log are wiped, and `recover()`
    /// rebuilds them from snapshot + WAL. In-place so shared handles
    /// (RADIUS handler, admin API) survive the restart.
    pub fn crash_and_recover(&self) -> Result<RecoveryReport, RecoverError> {
        self.storage()?.backend().simulate_crash();
        self.reload_from_storage()
    }

    /// Rebuild the in-memory store and audit log from durable state
    /// without crashing the backend first. A replication failover calls
    /// this after promoting the standby: the backend now routes to the
    /// new primary, so the server's working set must be re-read from it.
    /// In-place so shared handles (RADIUS handler, admin API) survive.
    pub fn reload_from_storage(&self) -> Result<RecoveryReport, RecoverError> {
        let p = self.storage()?;
        let _quiet = p.quiesce();
        self.store.clear();
        self.audit.clear();
        *self.resume_consumed.lock() = ResumeLedger::default();
        let state = recover(p.backend())?;
        self.store.load_all(state.users);
        self.audit.load(state.audit_entries, state.audit_dropped);
        self.resume_consumed.lock().consumed = state.resume_consumed;
        p.note_recovery(&state.report);
        Ok(state.report)
    }

    /// Durability counters, if a storage backend is attached.
    pub fn durability_counters(&self) -> Option<DurabilityCounters> {
        self.persistence.as_ref().map(|p| p.stats().counters())
    }

    /// The telemetry registry (shared with the admin API's
    /// `GET /system/metrics` route).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Open the [`Txn`] of an operation on `user` at `now` under `trace`.
    /// Never while another is open on this thread (see
    /// [`Persistence::begin`]).
    fn txn<'a>(&'a self, user: &'a str, now: u64, trace: Option<TraceId>) -> Txn<'a> {
        Txn {
            server: self,
            user,
            now,
            trace,
            commit: self.persistence.as_ref().map(Persistence::begin),
            ticket: None,
            staged: Staged::default(),
            parked: false,
        }
    }

    /// Compact if enough records have accumulated and no other thread has
    /// claimed the compaction. Called with no [`Txn`] open, from the drop
    /// of each: the claim waits out every commit in flight and holds new
    /// ones off, so the exported state and the WAL it replaces cannot
    /// diverge. Expired SMS codes and resume nonces are purged first so
    /// they never land in durable state.
    fn maybe_compact(&self, now: u64, from_finish: bool) {
        let Some(compaction) = self
            .persistence
            .as_ref()
            .and_then(|pump| pump.claim_compaction(from_finish))
        else {
            return;
        };
        self.store.purge_expired_sms(now);
        let consumed = {
            let mut ledger = self.resume_consumed.lock();
            ledger.purge_expired(now);
            ledger.consumed.clone()
        };
        let bytes = snapshot_live(&self.store, &self.audit, &consumed);
        let _ = compaction.install(&bytes);
    }

    /// The token store (shared with the admin API).
    pub fn store(&self) -> &TokenStore {
        &self.store
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    // ------------------------------------------------------------------
    // Enrollment (driven by the portal through the admin API)
    // ------------------------------------------------------------------

    /// Enroll `pairing`, committing the WAL record and its audit row
    /// before the store mutation.
    fn enroll_pairing(&self, username: &str, pairing: TokenPairing, now: u64, detail: &str) {
        let mut txn = self.txn(username, now, None);
        txn.record(|| WalRecord::Enroll {
            user: username.to_string(),
            pairing: pairing.clone(),
        });
        txn.audit(AuditAction::Enroll, true, detail);
        txn.settle();
        self.store.enroll(username, pairing);
    }

    /// Enroll a soft token: mint a fresh secret and return it (the portal
    /// turns it into a QR code).
    pub fn enroll_soft(&self, username: &str, now: u64) -> Secret {
        let secret = Secret::generate(&mut *self.rng.lock());
        self.enroll_pairing(
            username,
            TokenPairing::Totp {
                totp: Totp::new(secret.clone()),
                provenance: TotpProvenance::Soft,
                serial: None,
                last_step: None,
                drift_steps: 0,
            },
            now,
            "soft",
        );
        secret
    }

    /// Enroll a hard token from the vendor seed file.
    pub fn enroll_hard(&self, username: &str, serial: &str, secret: Secret, now: u64) {
        self.enroll_pairing(
            username,
            TokenPairing::Totp {
                totp: Totp::new(secret),
                provenance: TotpProvenance::Hard,
                serial: Some(serial.to_string()),
                last_step: None,
                drift_steps: 0,
            },
            now,
            "hard",
        );
    }

    /// Enroll an SMS token for `phone`.
    pub fn enroll_sms(&self, username: &str, phone: PhoneNumber, now: u64) {
        self.enroll_pairing(
            username,
            TokenPairing::Sms {
                phone,
                pending: None,
            },
            now,
            "sms",
        );
    }

    /// Enroll a static training code; returns the assigned code.
    pub fn enroll_static(&self, username: &str, now: u64) -> String {
        let code = format!("{:06}", self.rng.lock().random_range(0..1_000_000u32));
        self.enroll_pairing(
            username,
            TokenPairing::Static { code: code.clone() },
            now,
            "training",
        );
        code
    }

    /// Remove a pairing.
    pub fn remove_pairing(&self, username: &str, now: u64) -> bool {
        let mut txn = self.txn(username, now, None);
        let existed = self.store.has_pairing(username);
        // A Remove record for an absent user replays as a no-op, so it is
        // written either way, ahead of the store mutation.
        txn.record(|| WalRecord::Remove {
            user: username.to_string(),
        });
        txn.audit(AuditAction::Remove, existed, "");
        txn.settle();
        self.store.remove(username);
        existed
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Validate `code` for `username` at `now`. Implements the full §3.1/
    /// §3.2 semantics: drift window, replay nullification, SMS expiry, the
    /// consecutive-failure lockout.
    ///
    /// With a storage backend attached, the post-attempt security state
    /// (replay mark, failure counter, active flag) and the attempt's audit
    /// row go to the WAL as one commit *inside* the store lock — WAL order
    /// matches mutation order — and a matching code whose commit cannot be
    /// made durable is answered [`ValidationOutcome::Unavailable`], not
    /// `Success`.
    pub fn validate(&self, username: &str, code: &str, now: u64) -> ValidationOutcome {
        self.validate_guarded(username, code, now, None, None)
    }

    /// What every guarded operation does first: open its timed `otp` span
    /// when traced, charge the engine's modeled base cost to the trace
    /// clock, and put the request to admission control when that is
    /// configured and the source known. `Err` is a shed request — its
    /// audit row written, counted as `unavailable`, the span closed as
    /// shed — and the caller answers its fail-safe denial. An admitted
    /// request's queue wait becomes an `admission` child span charging its
    /// virtual delay to the trace clock, so the critical path can name it.
    fn admit(
        &self,
        op: &Guarded,
        username: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Option<SpanGuard<'_>>, ShedReason> {
        let trace = ctx.map(|c| c.trace);
        let mut guard = ctx.map(|c| self.metrics.tracer().start(c, "otp", op.label));
        if let Some(c) = ctx {
            c.clock.advance_us(span_cost::OTP_BASE_US);
        }
        if let (Some(adm), Some(src)) = (&self.admission, source) {
            let span = guard.as_ref().map(|g| g.id());
            match adm.admit(src, now, trace, span, op.label) {
                Err(reason) => {
                    let shed = format!("shed: {}", reason.label());
                    self.txn(username, now, trace)
                        .audit(op.action, false, &shed);
                    let (family, key) = op.counter;
                    self.metrics.counter(family, &[(key, "unavailable")]).inc();
                    if let Some(g) = guard.as_mut() {
                        g.set_status(SpanStatus::Shed);
                        g.set_detail(shed);
                    }
                    return Err(reason);
                }
                Ok(wait_us) => {
                    if let Some(c) = guard.as_ref().map(|g| g.child_ctx()) {
                        let mut adm_span = self.metrics.tracer().start(&c, "otp", "admission");
                        adm_span.attr_u64("wait_us", wait_us);
                        c.clock.advance_us(wait_us);
                        adm_span.finish();
                    }
                }
            }
        }
        Ok(guard)
    }

    /// [`LinotpServer::validate`] under an optional propagated span
    /// context and behind admission control. With `ctx` the operation is a
    /// timed `otp`/`validate` span under `ctx.parent`, with `window_scan` /
    /// `wal_fsync` children naming the dominant stage, and the audit
    /// detail carries the trace id, so one login's PAM, RADIUS and OTP
    /// records can be joined. With `source` (the RADIUS
    /// `Calling-Station-Id`) and overload protection configured, the
    /// address is first checked against the per-network token bucket and
    /// the bounded queue: a shed request is denied fail-safe with
    /// [`ValidationOutcome::Unavailable`] — the store is never touched, so
    /// a flood cannot inflate a victim's failure counter — and a
    /// successful validation marks the source network trusted.
    pub fn validate_guarded(
        &self,
        username: &str,
        code: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> ValidationOutcome {
        match self.validate_begin(username, code, now, ctx, source) {
            Ok(begun) => begun.settle(),
            Err(shed) => shed,
        }
    }

    /// [`LinotpServer::trigger_sms`] under an optional propagated span
    /// context (a timed `otp`/`sms` span with `wal_fsync` and
    /// `sms_dispatch` children) and behind the same admission control as
    /// [`LinotpServer::validate_guarded`]: a shed null request sends
    /// nothing (no Twilio cost to an SMS flood) and reports
    /// [`SmsTrigger::Unavailable`] — fail-safe deny.
    pub fn trigger_sms_guarded(
        &self,
        username: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> SmsTrigger {
        match self.trigger_sms_begin(username, now, ctx, source) {
            Ok(begun) => begun.settle(),
            Err(shed) => shed,
        }
    }

    /// The *begin* of a validation: admission, the validation engine
    /// proper, and the commit's append. `Err` is a shed request's answer —
    /// a shed request never begins.
    ///
    /// With a storage backend attached, the post-attempt security state
    /// (replay mark, failure counter, active flag) and the attempt's audit
    /// rows are appended to the WAL as one commit *inside* the store lock
    /// — WAL order matches mutation order — and the lock is released
    /// before the sync that makes them durable (see [`Txn`]).
    pub(crate) fn validate_begin<'a>(
        &'a self,
        username: &'a str,
        code: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Begun<'a, Validate>, ValidationOutcome> {
        const OP: Guarded = Guarded {
            label: "validate",
            action: AuditAction::Validate,
            counter: ("hpcmfa_otp_validations_total", "outcome"),
        };
        let started = Instant::now();
        let guard = self
            .admit(&OP, username, now, ctx, source)
            .map_err(|_| ValidationOutcome::Unavailable)?;
        // The enclosing `validate` span's child context: its trace threads
        // the audit detail and security events, sub-spans parent under it.
        let tctx = guard.as_ref().map(|g| g.child_ctx());
        let tctx = tctx.as_ref();
        let mut fsync = None;
        let mut txn = self.txn(username, now, tctx.map(|c| c.trace));
        let (outcome, locked_now) = self
            .store
            .with_record(username, |rec| {
                if !rec.active {
                    return validation_rows(&mut txn, ValidationOutcome::Locked, false);
                }
                let mut purged_sms = false;
                let outcome = match &mut rec.pairing {
                    TokenPairing::Totp {
                        totp,
                        last_step,
                        drift_steps,
                        ..
                    } => {
                        // Saturating: `drift_steps` and `step_secs` may come
                        // from disk, where any value is CRC-valid.
                        let drift_secs = i64::try_from(totp.params.step_secs)
                            .unwrap_or(i64::MAX)
                            .saturating_mul(*drift_steps);
                        let adjusted_now = now.saturating_add_signed(drift_secs);
                        let window = totp.window_for_drift(self.config.drift_tolerance_secs);
                        // Every full-OTP validation scans the drift window.
                        // The resumption fast path never reaches this line,
                        // which is what lets tests pin "zero window scans".
                        self.held
                            .window_scans
                            .get_or_init(|| {
                                self.metrics.counter("hpcmfa_otp_window_scans_total", &[])
                            })
                            .inc();
                        if let Some(c) = tctx {
                            let steps = window.saturating_mul(2).saturating_add(1);
                            let mut scan = self.metrics.tracer().start(c, "otp", "window_scan");
                            scan.attr_u64("window_steps", steps);
                            c.clock
                                .advance_us(span_cost::WINDOW_SCAN_STEP_US.saturating_mul(steps));
                            scan.finish();
                        }
                        // An accept stops at its step; a wrong code and a
                        // replay both MAC the whole window.
                        match totp.verify_tracked(code, adjusted_now, window, *last_step) {
                            Some(step) => {
                                if last_step.is_some_and(|ls| step <= ls) {
                                    ValidationOutcome::Replayed
                                } else {
                                    *last_step = Some(step);
                                    ValidationOutcome::Success
                                }
                            }
                            None => ValidationOutcome::WrongCode,
                        }
                    }
                    TokenPairing::Sms { pending, .. } => {
                        // Purge an expired code on validate so it doesn't
                        // linger in memory, snapshots, or status output.
                        if pending.as_ref().is_some_and(|p| !p.active(now)) {
                            *pending = None;
                            purged_sms = true;
                        }
                        match pending {
                            Some(p) => {
                                if hpcmfa_crypto::ct::ct_eq_str(&p.code, code) {
                                    // One-time: consume on success.
                                    *pending = None;
                                    purged_sms = true;
                                    ValidationOutcome::Success
                                } else {
                                    ValidationOutcome::WrongCode
                                }
                            }
                            None => ValidationOutcome::WrongCode,
                        }
                    }
                    TokenPairing::Static { code: expected } => {
                        if hpcmfa_crypto::ct::ct_eq_str(expected, code) {
                            ValidationOutcome::Success
                        } else {
                            ValidationOutcome::WrongCode
                        }
                    }
                };
                // Failure accounting and lockout.
                let mut locked_now = false;
                match outcome {
                    ValidationOutcome::Success => rec.fail_count = 0,
                    ValidationOutcome::WrongCode | ValidationOutcome::Replayed => {
                        rec.fail_count += 1;
                        if rec.fail_count >= self.config.lockout_threshold && rec.active {
                            rec.active = false;
                            locked_now = true;
                        }
                    }
                    _ => {}
                }
                // Append the post-attempt state and the attempt's audit
                // rows before the lock is released; the ack waits for their
                // sync outside it. A consumed or expired pending SMS code is
                // cleared durably too. Every outcome that reaches here is
                // Success, WrongCode or Replayed.
                if purged_sms {
                    txn.record(|| WalRecord::SmsClear {
                        user: username.to_string(),
                    });
                }
                txn.val_state(
                    match (&rec.pairing, outcome) {
                        (TokenPairing::Totp { last_step, .. }, ValidationOutcome::Success) => {
                            *last_step
                        }
                        _ => None,
                    },
                    rec.fail_count,
                    rec.active,
                );
                validation_rows(&mut txn, outcome, locked_now);
                fsync = tctx.filter(|_| self.persistence.is_some()).map(|c| {
                    let g = self.metrics.tracer().start(c, "otp", "wal_fsync");
                    c.clock.advance_us(span_cost::WAL_FSYNC_US);
                    g.detach()
                });
                txn.append();
                (outcome, locked_now)
            })
            .unwrap_or_else(|| validation_rows(&mut txn, ValidationOutcome::NoToken, false));
        let op = Validate {
            span_id: guard.as_ref().map(SpanGuard::id),
            span: guard.map(SpanGuard::detach),
            fsync,
            outcome,
            locked_now,
            source,
            started,
        };
        Ok(Begun { txn, op })
    }

    /// Consume a resumption-token nonce, enforcing single use durably.
    ///
    /// The token itself is stateless (integrity, binding, and expiry are
    /// all checked by `ResumeAuthority::validate` before this is called);
    /// the only server-side state is this nonce ledger. First presentation
    /// inserts the nonce and appends a `ResumeConsume` record *inside the
    /// ledger lock*, and is acknowledged only once that record is synced —
    /// the same persist-before-ack discipline as OTP nullification — so
    /// single use survives crash recovery and standby promotion. A nonce
    /// that cannot be made durable is denied (`Unavailable`) while the
    /// in-memory entry stays, which is deny-safe.
    pub fn consume_resume_nonce(
        &self,
        username: &str,
        nonce: [u8; 16],
        expires_at: u64,
        now: u64,
        ctx: Option<&SpanCtx>,
    ) -> ResumeConsumeOutcome {
        self.resume_consume_begin(username, nonce, expires_at, now, ctx)
            .settle()
    }

    /// The *begin* of [`LinotpServer::consume_resume_nonce`]: the ledger
    /// insert and the commit's append, under the ledger lock.
    pub(crate) fn resume_consume_begin<'a>(
        &'a self,
        username: &'a str,
        nonce: [u8; 16],
        expires_at: u64,
        now: u64,
        ctx: Option<&SpanCtx>,
    ) -> Begun<'a, ResumeConsume> {
        let guard = ctx.map(|c| self.metrics.tracer().start(c, "otp", "resume_consume"));
        if let Some(c) = ctx {
            c.clock.advance_us(span_cost::OTP_BASE_US);
        }
        let mut txn = self.txn(username, now, ctx.map(|c| c.trace));
        let fresh = {
            let mut ledger = self.resume_consumed.lock();
            if now >= ledger.purge_due {
                ledger.purge_expired(now);
            }
            let slot = ledger.consumed.entry(nonce);
            let fresh = matches!(slot, std::collections::btree_map::Entry::Vacant(_));
            if fresh {
                slot.or_insert(expires_at);
                // The nonce consume is one WAL commit on the durable path.
                if let Some(c) = ctx.filter(|_| self.persistence.is_some()) {
                    c.clock.advance_us(span_cost::WAL_FSYNC_US);
                }
                txn.record(|| WalRecord::ResumeConsume {
                    user: username.to_string(),
                    nonce,
                    expires_at,
                });
                txn.audit(AuditAction::Validate, true, "resume token accepted");
                txn.append();
            }
            fresh
        };
        if !fresh {
            txn.audit(
                AuditAction::Validate,
                false,
                "resume nonce already consumed",
            );
        }
        let op = ResumeConsume {
            span_id: guard.as_ref().map(SpanGuard::id),
            span: guard.map(SpanGuard::detach),
            fresh,
        };
        Begun { txn, op }
    }

    /// Trigger an SMS code for `username` (the "null request" path).
    pub fn trigger_sms(&self, username: &str, now: u64) -> SmsTrigger {
        self.trigger_sms_guarded(username, now, None, None)
    }

    /// The *begin* of an SMS trigger: admission, the pending code set and
    /// its issue record appended under the store lock. `Err` is a shed
    /// request's answer.
    pub(crate) fn trigger_sms_begin<'a>(
        &'a self,
        username: &'a str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Begun<'a, SmsIssue>, SmsTrigger> {
        const OP: Guarded = Guarded {
            label: "sms",
            action: AuditAction::SmsTriggered,
            counter: ("hpcmfa_otp_sms_triggers_total", "result"),
        };
        let guard = self
            .admit(&OP, username, now, ctx, source)
            .map_err(|_| SmsTrigger::Unavailable)?;
        // Parents the sub-spans; its `parent` field stamps emitted events.
        let tctx = guard.as_ref().map(|g| g.child_ctx());
        let code = format!("{:06}", self.rng.lock().random_range(0..1_000_000u32));
        let mut txn = self.txn(username, now, tctx.as_ref().map(|c| c.trace));
        // `Ok`: a code is issued, to be texted to this number once its
        // commit is durable. `Err`: nothing is sent, and why.
        let issued = self
            .store
            .with_record(username, |rec| {
                if !rec.active {
                    return Err(SmsTrigger::Locked);
                }
                let TokenPairing::Sms { phone, pending } = &mut rec.pairing else {
                    return Err(SmsTrigger::NotSmsUser);
                };
                if pending.as_ref().is_some_and(|p| p.active(now)) {
                    txn.audit(AuditAction::SmsSuppressed, true, "code active");
                    return Err(SmsTrigger::AlreadyActive);
                }
                let expires_at = now + self.config.sms_validity_secs;
                // The issue record (and its audit row) must be durable
                // before the provider is handed the message.
                if let Some(c) = tctx.as_ref().filter(|_| self.persistence.is_some()) {
                    let fsync = self.metrics.tracer().start(c, "otp", "wal_fsync");
                    c.clock.advance_us(span_cost::WAL_FSYNC_US);
                    fsync.finish();
                }
                txn.record(|| WalRecord::SmsIssue {
                    user: username.to_string(),
                    code: code.clone(),
                    sent_at: now,
                    expires_at,
                });
                txn.audit(AuditAction::SmsTriggered, true, "");
                txn.append();
                *pending = Some(PendingSmsCode {
                    code: code.clone(),
                    sent_at: now,
                    expires_at,
                });
                Ok(phone.clone())
            })
            .unwrap_or(Err(SmsTrigger::NoToken));
        let op = SmsIssue {
            span: guard.map(SpanGuard::detach),
            tctx,
            issued: issued.map(|phone| (phone, code)),
        };
        Ok(Begun { txn, op })
    }

    // ------------------------------------------------------------------
    // Admin operations
    // ------------------------------------------------------------------

    /// Clear a user's failure counter and reactivate (staff action, §3.1).
    pub fn reset_failcount(&self, username: &str, now: u64) -> bool {
        let mut txn = self.txn(username, now, None);
        let ok = self
            .store
            .with_record(username, |rec| {
                txn.val_state(None, 0, true);
                txn.audit(AuditAction::ResetFailCount, true, "");
                txn.append();
                rec.fail_count = 0;
                rec.active = true;
            })
            .is_some();
        if !ok {
            txn.audit(AuditAction::ResetFailCount, false, "");
        }
        ok
    }

    /// Resynchronize a drifted TOTP token from two consecutive codes.
    ///
    /// Searches ±`resync_window_steps` around `now` for a step where `code1`
    /// matches and `code2` matches the following step, then stores the
    /// offset so future validations are centered correctly.
    pub fn resync(&self, username: &str, code1: &str, code2: &str, now: u64) -> bool {
        let window = self.config.resync_window_steps;
        let mut txn = self.txn(username, now, None);
        let ok = self
            .store
            .with_record(username, |rec| {
                let TokenPairing::Totp {
                    totp,
                    last_step,
                    drift_steps,
                    ..
                } = &mut rec.pairing
                else {
                    return false;
                };
                // Both codes face `Totp::verify`'s length-and-digits check,
                // then each step is compared with them as it is there: as a
                // number, in constant time.
                let digits = totp.params.digits;
                let number = |code: &str| {
                    let well_formed =
                        code.len() == digits as usize && code.bytes().all(|b| b.is_ascii_digit());
                    code.parse::<u32>().ok().filter(|_| well_formed)
                };
                let (Some(code1), Some(code2)) = (number(code1), number(code2)) else {
                    return false;
                };
                let modulus = 10u32.pow(digits);
                // One key preparation for the whole ±window search — at the
                // default ±2000 steps this saves ~8000 block compressions.
                let key = totp.params.alg.prepare_key(totp.secret.bytes());
                let shows = |step: u64, code: u32| {
                    let shown = hotp_value_prepared(&key, step) % modulus;
                    ct_eq(&shown.to_be_bytes(), &code.to_be_bytes())
                };
                let center = totp.params.time_step(now);
                let lo = center.saturating_sub(window);
                let hi = center.saturating_add(window);
                let Some(step) = (lo..hi).find(|&s| shows(s, code1) && shows(s + 1, code2)) else {
                    return false;
                };
                // The resync burns both codes (last_step lands past them) —
                // that must be durable before the ack, or a crash would let
                // them replay.
                txn.record(|| WalRecord::Resync {
                    user: username.to_string(),
                    drift_steps: step as i64 + 1 - center as i64,
                    last_step: step + 1,
                });
                txn.audit(AuditAction::Resync, true, "");
                // Reactivating an account is not a mark a later reader can
                // only deny on (see [`Txn`]): the sync stays inside the lock.
                if !txn.settle() {
                    txn.discard_staged();
                    return false;
                }
                *drift_steps = step as i64 + 1 - center as i64;
                // Forward only, as recovery merges the record: a resync from
                // codes older than the last accepted one must not re-open
                // the steps in between.
                *last_step = Some(last_step.map_or(step + 1, |ls| ls.max(step + 1)));
                rec.fail_count = 0;
                rec.active = true;
                true
            })
            .unwrap_or(false);
        if !ok {
            txn.audit(AuditAction::Resync, false, "");
        }
        ok
    }

    /// Status for staff tooling (purges an expired pending SMS on read).
    pub fn status(&self, username: &str, now: u64) -> Option<UserTokenStatus> {
        self.store.status(username, now)
    }

    /// Refresh the `hpcmfa_otp_locked_users` / `hpcmfa_otp_sms_pending`
    /// gauges from one store pass at `now`. Both admin observability
    /// routes call this before rendering, so `/system/metrics` and
    /// `/system/alerts` always agree on the same census.
    pub(crate) fn refresh_gauges(&self, now: u64) {
        let (locked, sms_pending) = self.store.gauge_counts(now);
        self.metrics
            .gauge("hpcmfa_otp_locked_users", &[])
            .set(locked as i64);
        self.metrics
            .gauge("hpcmfa_otp_sms_pending", &[])
            .set(sms_pending as i64);
    }
}

/// Outcome of [`LinotpServer::consume_resume_nonce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeConsumeOutcome {
    /// First presentation: nonce recorded durably, login may proceed.
    Fresh,
    /// The nonce was already consumed — a replay. Deny.
    Replayed,
    /// The consume record could not be made durable. Deny (fail-safe).
    Unavailable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sms::TwilioSim;
    use hpcmfa_otp::device::SoftToken;
    use hpcmfa_otp::totp::TotpParams;

    const NOW: u64 = 1_475_000_000;

    fn server() -> Arc<LinotpServer> {
        LinotpServer::new(TwilioSim::new(5), 42)
    }

    fn soft_device(secret: &Secret) -> SoftToken {
        SoftToken::new(secret.clone(), TotpParams::default())
    }

    #[test]
    fn soft_token_validation_succeeds() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let device = soft_device(&secret);
        let code = device.displayed_code(NOW + 60);
        assert_eq!(
            srv.validate("alice", &code, NOW + 60),
            ValidationOutcome::Success
        );
    }

    #[test]
    fn used_code_is_nullified() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        assert!(srv.validate("alice", &code, NOW).is_success());
        // "the provided token code is nullified" (§3.2).
        assert_eq!(
            srv.validate("alice", &code, NOW),
            ValidationOutcome::Replayed
        );
        // The next step's code works.
        let next = soft_device(&secret).displayed_code(NOW + 30);
        assert!(srv.validate("alice", &next, NOW + 30).is_success());
    }

    #[test]
    fn failed_code_stays_valid_for_retry() {
        // "In the event of a token mismatch, the token code remains valid"
        // (§3.2): a typo then the correct code must succeed.
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        assert_eq!(
            srv.validate("alice", "000000", NOW),
            ValidationOutcome::WrongCode
        );
        assert!(srv.validate("alice", &code, NOW).is_success());
    }

    #[test]
    fn drift_tolerance_300s() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let slow_phone = soft_device(&secret).with_skew(-300);
        assert!(srv
            .validate("alice", &slow_phone.displayed_code(NOW), NOW)
            .is_success());
        let too_slow = soft_device(&secret).with_skew(-331);
        assert_eq!(
            srv.validate("alice", &too_slow.displayed_code(NOW), NOW),
            ValidationOutcome::WrongCode
        );
    }

    #[test]
    fn lockout_after_20_consecutive_failures() {
        let srv = server();
        srv.enroll_soft("alice", NOW);
        for i in 0..19 {
            assert_eq!(
                srv.validate("alice", "000000", NOW + i),
                ValidationOutcome::WrongCode,
                "attempt {i}"
            );
        }
        // 20th failure trips the threshold.
        assert_eq!(
            srv.validate("alice", "000000", NOW + 19),
            ValidationOutcome::WrongCode
        );
        assert_eq!(
            srv.validate("alice", "000000", NOW + 20),
            ValidationOutcome::Locked
        );
        assert!(!srv.status("alice", NOW + 20).unwrap().active);
        assert_eq!(srv.audit().count(AuditAction::Lockout, true), 1);
    }

    #[test]
    fn success_resets_fail_counter() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        for i in 0..19 {
            srv.validate("alice", "000000", NOW + i);
        }
        let code = soft_device(&secret).displayed_code(NOW + 30);
        assert!(srv.validate("alice", &code, NOW + 30).is_success());
        assert_eq!(srv.status("alice", NOW + 30).unwrap().fail_count, 0);
        // Counter starts over: 20 more failures needed to lock.
        for i in 0..19 {
            srv.validate("alice", "000000", NOW + 60 + i);
        }
        assert!(srv.status("alice", NOW + 80).unwrap().active);
    }

    #[test]
    fn staff_reset_unlocks() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        for i in 0..20 {
            srv.validate("alice", "000000", NOW + i);
        }
        assert_eq!(
            srv.validate("alice", "x", NOW + 30),
            ValidationOutcome::Locked
        );
        assert!(srv.reset_failcount("alice", NOW + 40));
        let code = soft_device(&secret).displayed_code(NOW + 60);
        assert!(srv.validate("alice", &code, NOW + 60).is_success());
        assert!(!srv.reset_failcount("nobody", NOW));
    }

    #[test]
    fn sms_flow_send_validate() {
        let srv = server();
        let phone = PhoneNumber::parse("5125551234").unwrap();
        srv.enroll_sms("bob", phone.clone(), NOW);
        let SmsTrigger::Sent(msg) = srv.trigger_sms("bob", NOW) else {
            panic!("expected send");
        };
        // The code rides inside the message body.
        let code = msg.body.rsplit(' ').next().unwrap().to_string();
        assert_eq!(code.len(), 6);
        assert!(srv.validate("bob", &code, NOW + 10).is_success());
        // Consumed: same code fails afterwards.
        assert_eq!(
            srv.validate("bob", &code, NOW + 11),
            ValidationOutcome::WrongCode
        );
    }

    #[test]
    fn sms_already_sent_suppression() {
        let srv = server();
        srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), NOW);
        assert!(matches!(srv.trigger_sms("bob", NOW), SmsTrigger::Sent(_)));
        assert_eq!(srv.trigger_sms("bob", NOW + 5), SmsTrigger::AlreadyActive);
        // After expiry a new send goes out.
        assert!(matches!(
            srv.trigger_sms("bob", NOW + SMS_CODE_VALIDITY_SECS + 1),
            SmsTrigger::Sent(_)
        ));
        assert_eq!(srv.audit().count(AuditAction::SmsSuppressed, true), 1);
    }

    #[test]
    fn sms_code_expires() {
        let srv = server();
        srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), NOW);
        let SmsTrigger::Sent(msg) = srv.trigger_sms("bob", NOW) else {
            panic!()
        };
        let code = msg.body.rsplit(' ').next().unwrap().to_string();
        assert_eq!(
            srv.validate("bob", &code, NOW + SMS_CODE_VALIDITY_SECS + 1),
            ValidationOutcome::WrongCode
        );
    }

    #[test]
    fn sms_trigger_classifications() {
        let srv = server();
        assert_eq!(srv.trigger_sms("ghost", NOW), SmsTrigger::NoToken);
        srv.enroll_soft("alice", NOW);
        assert_eq!(srv.trigger_sms("alice", NOW), SmsTrigger::NotSmsUser);
        srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), NOW);
        srv.store().with_record("bob", |r| r.active = false);
        assert_eq!(srv.trigger_sms("bob", NOW), SmsTrigger::Locked);
    }

    #[test]
    fn static_training_codes_are_reusable() {
        let srv = server();
        let code = srv.enroll_static("train01", NOW);
        assert!(srv.validate("train01", &code, NOW).is_success());
        // Reusable within the session (no replay nullification for static).
        assert!(srv.validate("train01", &code, NOW + 100).is_success());
        assert_eq!(
            srv.validate("train01", "999999", NOW),
            ValidationOutcome::WrongCode
        );
        // Regeneration invalidates the old code.
        let new_code = srv.enroll_static("train01", NOW + 200);
        assert_ne!(code, new_code);
        assert_eq!(
            srv.validate("train01", &code, NOW + 201),
            ValidationOutcome::WrongCode
        );
    }

    #[test]
    fn validation_without_pairing() {
        let srv = server();
        assert_eq!(
            srv.validate("ghost", "123456", NOW),
            ValidationOutcome::NoToken
        );
    }

    #[test]
    fn resync_recovers_badly_drifted_fob() {
        let srv = server();
        let secret = Secret::from_bytes(*b"12345678901234567890");
        srv.enroll_hard("carol", "TACC-0042", secret.clone(), NOW);
        // The fob drifted 2 hours (240 steps) — far outside ±300 s.
        let fob_time = NOW - 7200;
        let fob = soft_device(&secret);
        assert_eq!(
            srv.validate("carol", &fob.displayed_code(fob_time), NOW),
            ValidationOutcome::WrongCode
        );
        // Staff resync with two consecutive codes.
        let c1 = fob.displayed_code(fob_time);
        let c2 = fob.displayed_code(fob_time + 30);
        assert!(srv.resync("carol", &c1, &c2, NOW));
        // Fob codes now validate at its own pace.
        let c3 = fob.displayed_code(fob_time + 60);
        assert!(srv.validate("carol", &c3, NOW + 60).is_success());
    }

    #[test]
    fn resync_never_moves_the_replay_mark_back() {
        let srv = server();
        let secret = Secret::from_bytes(*b"12345678901234567890");
        srv.enroll_hard("carol", "TACC-0042", secret.clone(), NOW);
        let fob = soft_device(&secret);
        let used = fob.displayed_code(NOW);
        assert!(srv.validate("carol", &used, NOW).is_success());
        // A resync from the two codes before the one just used.
        let c1 = fob.displayed_code(NOW - 90);
        let c2 = fob.displayed_code(NOW - 60);
        assert!(srv.resync("carol", &c1, &c2, NOW));
        // Whatever the new offset makes of the window, the used code and
        // the one before it stay burnt.
        for at in [NOW, NOW + 30, NOW + 60] {
            assert!(!srv.validate("carol", &used, at).is_success());
            assert!(!srv
                .validate("carol", &fob.displayed_code(NOW - 30), at)
                .is_success());
        }
    }

    #[test]
    fn resync_rejects_nonconsecutive_codes() {
        let srv = server();
        let secret = Secret::from_bytes(*b"12345678901234567890");
        srv.enroll_hard("carol", "TACC-0042", secret.clone(), NOW);
        let fob = soft_device(&secret);
        let c1 = fob.displayed_code(NOW);
        let c_far = fob.displayed_code(NOW + 300);
        assert!(!srv.resync("carol", &c1, &c_far, NOW));
        assert!(!srv.resync("nobody", "111111", "222222", NOW));
        // A code is compared as a number only once it is well-formed: its
        // digits without the leading zero, signed or not, are not the code.
        let (t, c1) = (0..)
            .map(|i| (NOW + 30 * i, fob.displayed_code(NOW + 30 * i)))
            .find(|(_, code)| code.starts_with('0'))
            .unwrap();
        let c2 = fob.displayed_code(t + 30);
        assert!(!srv.resync("carol", &c1[1..], &c2, t));
        assert!(!srv.resync("carol", &c1.replacen('0', "+", 1), &c2, t));
        assert!(srv.resync("carol", &c1, &c2, t));
    }

    #[test]
    fn audit_trail_records_validations() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        srv.validate("alice", &code, NOW);
        srv.validate("alice", "000000", NOW + 1);
        let entries = srv.audit().for_user("alice");
        assert_eq!(entries.len(), 3); // enroll + 2 validations
        assert!(entries.iter().any(|e| e.action == AuditAction::Enroll));
        assert_eq!(srv.audit().count(AuditAction::Validate, true), 1);
        assert_eq!(srv.audit().count(AuditAction::Validate, false), 1);
        // Codes never appear in audit details.
        assert!(entries.iter().all(|e| !e.detail.contains(&code)));
    }

    fn durable_server(backend: Arc<dyn crate::durability::StorageBackend>) -> Arc<LinotpServer> {
        LinotpServer::with_storage(TwilioSim::new(5), 42, ServerConfig::default(), backend)
            .expect("recovery of fresh backend")
    }

    #[test]
    fn crash_recovery_keeps_replay_nullification() {
        use crate::durability::MemoryBackend;
        let backend = MemoryBackend::healthy();
        let srv = durable_server(backend);
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        assert!(srv.validate("alice", &code, NOW).is_success());
        srv.crash_and_recover().unwrap();
        // The accepted code must still be nullified after the restart.
        assert_eq!(
            srv.validate("alice", &code, NOW),
            ValidationOutcome::Replayed
        );
        // And fresh codes still work.
        let next = soft_device(&secret).displayed_code(NOW + 30);
        assert!(srv.validate("alice", &next, NOW + 30).is_success());
    }

    #[test]
    fn crash_recovery_keeps_lockout() {
        use crate::durability::MemoryBackend;
        let backend = MemoryBackend::healthy();
        let srv = durable_server(backend);
        srv.enroll_soft("alice", NOW);
        for i in 0..20 {
            srv.validate("alice", "000000", NOW + i);
        }
        assert!(!srv.status("alice", NOW + 20).unwrap().active);
        srv.crash_and_recover().unwrap();
        assert!(
            !srv.status("alice", NOW + 21).unwrap().active,
            "lockout must not regress across a crash"
        );
        assert_eq!(
            srv.validate("alice", "x", NOW + 22),
            ValidationOutcome::Locked
        );
        // Only an admin action reactivates.
        assert!(srv.reset_failcount("alice", NOW + 30));
        srv.crash_and_recover().unwrap();
        assert!(srv.status("alice", NOW + 31).unwrap().active);
    }

    #[test]
    fn fsync_failure_denies_instead_of_acking() {
        use crate::durability::{MemoryBackend, StorageFaultPlan};
        let plan = StorageFaultPlan::seeded(11);
        let backend = MemoryBackend::with_plan(Arc::clone(&plan));
        let srv = durable_server(backend);
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        plan.set_fsync_fail_every(1);
        assert_eq!(
            srv.validate("alice", &code, NOW),
            ValidationOutcome::Unavailable,
            "a matching code must not be acked while its record is not durable"
        );
        // The failed commit's `ok` row went with it: the ring says what the
        // caller was told.
        let rows = srv.audit().for_user("alice");
        let newest = rows.iter().rfind(|e| e.action == AuditAction::Validate);
        assert_eq!(newest.unwrap().detail, "durability unavailable");
        assert!(rows.iter().all(|e| e.detail != "ok"));
        let counters = srv.durability_counters().unwrap();
        assert!(counters.fsync_failures > 0);
        // The code is burned in memory either way — deny-safe.
        plan.set_fsync_fail_every(0);
        assert_ne!(
            srv.validate("alice", &code, NOW),
            ValidationOutcome::Success
        );
    }

    #[test]
    fn sms_issue_not_sent_when_unpersistable() {
        use crate::durability::{MemoryBackend, StorageFaultPlan};
        let plan = StorageFaultPlan::seeded(11);
        let backend = MemoryBackend::with_plan(Arc::clone(&plan));
        let srv = durable_server(backend);
        srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), NOW);
        plan.set_fsync_fail_every(1);
        assert_eq!(srv.trigger_sms("bob", NOW), SmsTrigger::Unavailable);
        plan.set_fsync_fail_every(0);
        assert!(matches!(
            srv.trigger_sms("bob", NOW + 1),
            SmsTrigger::Sent(_)
        ));
    }

    /// Whatever the operation and however it ends, its rows reach the ring
    /// and the WAL alike — across the compactions a snapshot every eight
    /// records forces, which would lose a row that entered the ring after
    /// its operation's compaction check.
    #[test]
    fn every_operation_leaves_the_same_rows_in_ring_and_wal() {
        use crate::durability::MemoryBackend;
        let backend: Arc<dyn StorageBackend> = MemoryBackend::healthy();
        let config = ServerConfig {
            snapshot_every_appends: 8,
            // Every request that names its source is shed.
            overload: Some(OverloadConfig {
                bucket_burst: 0,
                ..OverloadConfig::default()
            }),
            ..ServerConfig::default()
        };
        let srv = LinotpServer::with_storage(TwilioSim::new(5), 42, config, Arc::clone(&backend))
            .unwrap();
        let fob_secret = Secret::from_bytes(*b"12345678901234567890");
        let secret = srv.enroll_soft("alice", NOW);
        srv.enroll_hard("carol", "TACC-0042", fob_secret.clone(), NOW + 1);
        srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), NOW + 2);
        let training = srv.enroll_static("dave", NOW + 3);

        let code = soft_device(&secret).displayed_code(NOW);
        let validate = |user: &str, code: &str| srv.validate(user, code, NOW + 4);
        assert_eq!(validate("alice", &code), ValidationOutcome::Success);
        assert_eq!(validate("alice", "nope"), ValidationOutcome::WrongCode);
        assert_eq!(validate("alice", &code), ValidationOutcome::Replayed);
        // The twentieth consecutive failure crosses the lockout threshold.
        for _ in 2..LOCKOUT_THRESHOLD {
            assert_eq!(validate("alice", "nope"), ValidationOutcome::WrongCode);
        }
        assert_eq!(srv.audit().count(AuditAction::Lockout, true), 1);
        assert_eq!(validate("alice", &code), ValidationOutcome::Locked);
        assert_eq!(validate("ghost", "nope"), ValidationOutcome::NoToken);
        assert_eq!(validate("dave", &training), ValidationOutcome::Success);

        assert!(matches!(
            srv.trigger_sms("bob", NOW + 5),
            SmsTrigger::Sent(_)
        ));
        assert_eq!(srv.trigger_sms("bob", NOW + 6), SmsTrigger::AlreadyActive);
        assert_eq!(srv.trigger_sms("carol", NOW + 7), SmsTrigger::NotSmsUser);

        let fob = soft_device(&fob_secret);
        let (c1, c2) = (
            fob.displayed_code(NOW - 7200),
            fob.displayed_code(NOW - 7170),
        );
        assert!(srv.resync("carol", &c1, &c2, NOW + 8));
        assert!(!srv.resync("carol", "111111", "222222", NOW + 9));
        assert!(srv.reset_failcount("alice", NOW + 10));
        assert!(!srv.reset_failcount("ghost", NOW + 11));
        assert!(srv.remove_pairing("dave", NOW + 12));

        let consume = |now| srv.consume_resume_nonce("carol", [7; 16], NOW + 600, now, None);
        assert_eq!(consume(NOW + 13), ResumeConsumeOutcome::Fresh);
        assert_eq!(consume(NOW + 14), ResumeConsumeOutcome::Replayed);
        let source = std::net::Ipv4Addr::new(203, 0, 113, 9);
        assert_eq!(
            srv.validate_guarded("carol", "nope", NOW + 15, None, Some(source)),
            ValidationOutcome::Unavailable
        );

        let ring = srv.audit().export_all();
        // 4 enrolments, 20 attempts by alice and her lockout, 4 more
        // validations, 2 rows each for SMS, resync, reset and resume, the
        // removal and the shed; `NotSmsUser` leaves none.
        assert_eq!(ring.len(), 4 + 21 + 4 + 2 * 4 + 2);
        assert!(srv.durability_counters().unwrap().snapshots >= 2);
        assert_eq!(recover(&backend).unwrap().audit_entries, ring);
    }

    #[test]
    fn resume_ledger_forgets_expired_nonces_without_a_compactor() {
        let srv = server();
        let expiry = NOW + 600;
        let consume = |nonce, expires_at, now| {
            srv.consume_resume_nonce("alice", [nonce; 16], expires_at, now, None)
        };
        for i in 0..200u8 {
            let outcome = consume(i, expiry, NOW + u64::from(i));
            assert_eq!(outcome, ResumeConsumeOutcome::Fresh);
        }
        // Live nonces are all still refused a second presentation.
        assert_eq!(
            consume(0, expiry, NOW + 599),
            ResumeConsumeOutcome::Replayed
        );
        assert_eq!(
            consume(199, expiry, NOW + 599),
            ResumeConsumeOutcome::Replayed
        );
        assert_eq!(srv.resume_consumed.lock().consumed.len(), 200);
        // The first consume past their expiry forgets them.
        assert_eq!(
            consume(200, expiry + 600, expiry + 1),
            ResumeConsumeOutcome::Fresh
        );
        assert_eq!(srv.resume_consumed.lock().consumed.len(), 1);
    }

    #[test]
    fn compaction_snapshots_and_resets_wal() {
        use crate::durability::MemoryBackend;
        let backend = MemoryBackend::healthy();
        let config = ServerConfig {
            snapshot_every_appends: 8,
            ..ServerConfig::default()
        };
        let srv = LinotpServer::with_storage(
            TwilioSim::new(5),
            42,
            config,
            Arc::clone(&backend) as Arc<dyn crate::durability::StorageBackend>,
        )
        .unwrap();
        let secret = srv.enroll_soft("alice", NOW);
        for i in 0..10u64 {
            let code = soft_device(&secret).displayed_code(NOW + i * 30);
            srv.validate("alice", &code, NOW + i * 30);
        }
        let counters = srv.durability_counters().unwrap();
        assert!(counters.snapshots >= 1, "compaction ran");
        assert!(backend.durable_snapshot().is_some());
        // Recovery from the compacted state preserves the replay mark.
        srv.crash_and_recover().unwrap();
        let old = soft_device(&secret).displayed_code(NOW + 9 * 30);
        assert_eq!(
            srv.validate("alice", &old, NOW + 9 * 30),
            ValidationOutcome::Replayed
        );
    }

    #[test]
    fn traced_validation_stamps_audit_span_and_counters() {
        let srv = server();
        let secret = srv.enroll_soft("alice", NOW);
        let code = soft_device(&secret).displayed_code(NOW);
        let id = TraceId::from_u64(0xabcd);
        let ctx = SpanCtx::root(id, hpcmfa_telemetry::TraceClock::at(NOW * 1_000_000));
        assert!(srv
            .validate_guarded("alice", &code, NOW, Some(&ctx), None)
            .is_success());
        // The audit row carries the trace id; joinable with PAM/RADIUS spans.
        assert!(srv
            .audit()
            .for_user("alice")
            .iter()
            .any(|e| e.detail.contains(&format!("trace={id}"))));
        // Children record before their parent: the drift-window scan span
        // first, then the enclosing timed validate span.
        let spans = srv.metrics().tracer().spans_for(id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].component, "otp");
        assert_eq!(spans[0].label, "window_scan");
        assert_eq!(spans[1].component, "otp");
        assert_eq!(spans[1].label, "validate");
        assert_eq!(spans[1].detail, "success");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].duration_us() >= span_cost::OTP_BASE_US);
        let snap = srv.metrics().snapshot();
        assert_eq!(
            snap.counter("hpcmfa_otp_validations_total{outcome=\"success\"}"),
            1
        );
        assert_eq!(snap.counter("hpcmfa_otp_window_scans_total"), 1);
        assert!(snap.histogram_family("hpcmfa_otp_validate_wall_us").count() >= 1);
    }

    #[test]
    fn durability_counters_and_registry_agree() {
        use crate::durability::MemoryBackend;
        let srv = durable_server(MemoryBackend::healthy());
        srv.enroll_soft("alice", NOW);
        srv.validate("alice", "000000", NOW);
        let c = srv.durability_counters().unwrap();
        assert!(c.appends > 0);
        let snap = srv.metrics().snapshot();
        assert_eq!(snap.counter("hpcmfa_otp_wal_appends_total"), c.appends);
        assert_eq!(snap.counter("hpcmfa_otp_wal_fsyncs_total"), c.fsyncs);
        assert_eq!(snap.counter("hpcmfa_otp_recoveries_total"), c.recoveries);
    }

    #[test]
    fn concurrent_validation_storm() {
        let srv = server();
        for u in 0..16 {
            srv.enroll_soft(&format!("user{u}"), NOW);
        }
        let mut handles = Vec::new();
        for u in 0..16 {
            let s = Arc::clone(&srv);
            handles.push(std::thread::spawn(move || {
                let name = format!("user{u}");
                for i in 0..50 {
                    let _ = s.validate(&name, "000000", NOW + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every user hit the lockout threshold exactly.
        for u in 0..16 {
            assert!(!srv.status(&format!("user{u}"), NOW).unwrap().active);
        }
    }
}
