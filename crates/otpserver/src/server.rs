//! The OTP server: the shell around the authority's pure `step`.
//!
//! `authority::step` decides every validation, SMS issue, failure-count
//! reset and resync from the user's record alone, and `authority::apply`
//! is the one place a record changes. Every such operation here runs the
//! same sequence: admission control (for the two a login sends); the
//! operation's `Txn`, which holds its WAL commit and audit rows; then,
//! under the user's shard lock, `step`, `apply` of each change and the
//! same change encoded into the commit beside the staged rows; then the
//! commit's append, its settle, and the finish.
//!
//! When built [`with_storage`](LinotpServer::with_storage), the commit is
//! synced *before* the operation is acknowledged: an accepted code whose
//! replay mark cannot be persisted is answered
//! [`ValidationOutcome::Unavailable`] (deny), never `Success` — the
//! fail-safe direction for an authentication service. The three
//! operations a login waits on — validate, SMS trigger, resume consume —
//! are each one *begin* (up to the commit's append, under the store or
//! ledger lock) and one *finish* (everything the commit's verdict decides,
//! read from the outcome's table), driven on the caller's thread
//! (`Begun::settle`) or left with the pump (`Begun::park`). A staff reset
//! or resync reactivates an account, so it syncs under the shard lock and
//! applies its change only once that change is durable.

use crate::audit::{AuditAction, AuditLog, NewRow, Staged};
use crate::authority::{self, Change, Event, Op, Outcome, Row, SmsOutcome, Told, Transition};
use crate::durability::snapshot::snapshot_live_sized;
use crate::durability::{
    recover, Commit, DurabilityCounters, Finish, Persistence, RecoverError, RecoveryReport,
    StorageBackend, Ticket, WalRecord,
};
use crate::overload::{AdmissionController, OverloadConfig};
use crate::sms::{PhoneNumber, SmsMessage, SmsProvider};
use crate::store::{TokenPairing, TokenStore, TotpProvenance, UserTokenStatus};
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_telemetry::{
    Counter, DetachedSpan, Histogram, MetricsRegistry, SecurityEventKind, SpanCtx, SpanGuard,
    SpanStatus, TraceId,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::Instant;

pub use crate::authority::ValidationOutcome;

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
    /// Audit-log retention cap (ring semantics; oldest entries evicted).
    pub audit_cap: usize,
    /// The fewest WAL *records* (not commits: a validate writes two, its
    /// state record and its audit row) between compacting snapshots when
    /// a storage backend is attached (0 = never compact). A floor: a
    /// snapshot also waits until the WAL holds an eighth of the last
    /// one's bytes, which bounds compaction's write amplification at 8
    /// and the WAL a recovery replays at an eighth of the snapshot.
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
    /// The configured registry, `ServerConfig::metrics`.
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
/// is acknowledged on the strength of state that may yet be lost. A
/// staff reset or resync reactivates an account, which that argument
/// does not cover: it syncs under its shard lock and applies its change
/// only once the change is durable.
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

    /// Add each change of `t`, in order, then stage its rows.
    fn encode(&mut self, t: &Transition<'_>) {
        for change in t.changes.iter().flatten() {
            self.change(change);
        }
        self.stage(&t.rows);
    }

    /// Add the record of one change to the user's record.
    fn change(&mut self, change: &Change<'_>) {
        if let Some(c) = &mut self.commit {
            c.change(self.user, change);
        }
    }

    /// Add audit rows, each detail ending in the operation's trace id —
    /// `grep trace=<hex>` then joins the OTP audit log with the PAM and
    /// RADIUS spans of the same login.
    fn stage(&mut self, rows: &[Option<Row>]) {
        for row in rows.iter().flatten() {
            let frame = self.staged.stage(&NewRow {
                at: self.now,
                user: self.user,
                action: row.action,
                success: row.success,
                detail: row.detail,
                trace: self.trace,
            });
            if let Some(c) = &mut self.commit {
                c.frame(frame);
            }
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

    /// Stage `rows` in place of the rows of a commit that failed: they say
    /// what the caller is told instead.
    fn restage(&mut self, rows: &[Option<Row>]) {
        self.staged.clear();
        self.stage(rows);
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

/// An outcome of an operation a login waits on: what its one finish
/// needs to know of it.
pub(crate) trait Answer: Copy + PartialEq + Send + 'static {
    /// What the caller is handed.
    type Reply;
    /// The operation's span label, and its name to admission control.
    const LABEL: &'static str;
    /// The family of its outcome counter, and the counter's label key.
    const COUNTER: (&'static str, &'static str);
    /// The outcome that grants something (a login, a text, a resumption),
    /// and so stands only once its commit is durable.
    const GRANT: Self;
    /// What a shed request, or a grant whose commit was not durable, is
    /// told.
    const UNAVAILABLE: Self;
    /// The outcome's entry in its table.
    fn entry(self) -> Told;
    /// The outcome's counter, held.
    fn series(self, held: &HeldSeries) -> &OnceLock<Arc<Counter>>;
    /// The reply, with the text an SMS issue sent.
    fn reply(self, sent: Option<SmsMessage>) -> Self::Reply;
}

impl Answer for ValidationOutcome {
    type Reply = Self;
    const LABEL: &'static str = "validate";
    const COUNTER: (&'static str, &'static str) = ("hpcmfa_otp_validations_total", "outcome");
    const GRANT: Self = ValidationOutcome::Success;
    const UNAVAILABLE: Self = ValidationOutcome::Unavailable;

    fn entry(self) -> Told {
        self.told()
    }

    fn series(self, held: &HeldSeries) -> &OnceLock<Arc<Counter>> {
        &held.validations[self as usize]
    }

    fn reply(self, _: Option<SmsMessage>) -> Self {
        self
    }
}

impl Answer for SmsOutcome {
    type Reply = SmsTrigger;
    const LABEL: &'static str = "sms";
    const COUNTER: (&'static str, &'static str) = ("hpcmfa_otp_sms_triggers_total", "result");
    const GRANT: Self = SmsOutcome::Sent;
    const UNAVAILABLE: Self = SmsOutcome::Unavailable;

    fn entry(self) -> Told {
        self.told()
    }

    fn series(self, held: &HeldSeries) -> &OnceLock<Arc<Counter>> {
        &held.sms_triggers[self as usize]
    }

    fn reply(self, sent: Option<SmsMessage>) -> SmsTrigger {
        match (self, sent) {
            (SmsOutcome::Sent, Some(message)) => SmsTrigger::Sent(message),
            (SmsOutcome::AlreadyActive, _) => SmsTrigger::AlreadyActive,
            (SmsOutcome::NotSmsUser, _) => SmsTrigger::NotSmsUser,
            (SmsOutcome::NoToken, _) => SmsTrigger::NoToken,
            (SmsOutcome::Locked, _) => SmsTrigger::Locked,
            (SmsOutcome::Sent | SmsOutcome::Unavailable, _) => SmsTrigger::Unavailable,
        }
    }
}

impl Answer for ResumeConsumeOutcome {
    type Reply = Self;
    const LABEL: &'static str = "resume_consume";
    const COUNTER: (&'static str, &'static str) = ("hpcmfa_otp_resume_consumes_total", "outcome");
    const GRANT: Self = ResumeConsumeOutcome::Fresh;
    const UNAVAILABLE: Self = ResumeConsumeOutcome::Unavailable;

    /// The resume-consume table.
    fn entry(self) -> Told {
        let row = |success, detail| Some(Row::new(AuditAction::Validate, success, detail));
        match self {
            ResumeConsumeOutcome::Fresh => {
                Told::new("fresh", row(true, "resume token accepted"), None, None)
            }
            ResumeConsumeOutcome::Replayed => Told::new(
                "replayed",
                row(false, "resume nonce already consumed"),
                Some((SecurityEventKind::ResumeReplay, "resumption nonce replayed")),
                Some(SpanStatus::Error),
            ),
            ResumeConsumeOutcome::Unavailable => Told::new(
                "unavailable",
                row(false, "resume consume not durable, denied"),
                Some((
                    SecurityEventKind::WalFsyncDegraded,
                    "resume consume not durable, denied",
                )),
                Some(SpanStatus::Degraded),
            ),
        }
    }

    fn series(self, held: &HeldSeries) -> &OnceLock<Arc<Counter>> {
        &held.resume_consumes[self as usize]
    }

    fn reply(self, _: Option<SmsMessage>) -> Self {
        self
    }
}

/// A gated operation between its commit's append and its verdict: plain
/// data, so that it can wait on no thread.
pub(crate) struct Gate<A> {
    /// What the store (or the ledger) said.
    outcome: A,
    /// The rows and events that outcome leaves, the outcome's own row
    /// first and its own event last.
    rows: [Option<Row>; 2],
    events: [Option<Event>; 2],
    /// The operation's span and, on a server with storage, its `wal_fsync`
    /// child, off the tracer until the verdict has stamped them.
    span: Option<DetachedSpan>,
    fsync: Option<DetachedSpan>,
    /// The span's child context: it parents `sms_dispatch`, and its
    /// parent, the span's id, stamps every event, so every alert joins the
    /// trace tree.
    tctx: Option<SpanCtx>,
    /// A validation's: the source its success marks trusted, and when it
    /// began, for `hpcmfa_otp_validate_wall_us`.
    source: Option<Ipv4Addr>,
    started: Option<Instant>,
    /// An SMS issue's: the number to text and the code issued to it.
    text: Option<(PhoneNumber, String)>,
}

impl<A: Answer> Gate<A> {
    /// `outcome` with its rows and events, under `guard`'s span.
    fn new(
        outcome: A,
        (rows, events): ([Option<Row>; 2], [Option<Event>; 2]),
        guard: Option<SpanGuard<'_>>,
        fsync: Option<DetachedSpan>,
    ) -> Self {
        Gate {
            outcome,
            rows,
            events,
            tctx: guard.as_ref().map(SpanGuard::child_ctx),
            span: guard.map(SpanGuard::detach),
            fsync,
            source: None,
            started: None,
            text: None,
        }
    }

    /// Everything the verdict decides, the same for every outcome: a grant
    /// that is not durable is retold as `Unavailable` with that outcome's
    /// row and event; then the text an SMS issue owes, the security
    /// events, the counters and the span statuses.
    fn finish(self, txn: &mut Txn<'_>, persisted: bool) -> A::Reply {
        let (server, username, now, trace) = (txn.server, txn.user, txn.now, txn.trace);
        let tracer = server.metrics.tracer();
        if let Some(mut fsync) = self.fsync.map(|span| tracer.attach(span)) {
            if !persisted {
                fsync.set_status(SpanStatus::Error);
                fsync.set_detail("append failed");
            }
        }
        let (mut outcome, mut rows, mut events) = (self.outcome, self.rows, self.events);
        if !persisted {
            // A grant whose commit is not durable must not be acknowledged:
            // after a crash the WAL would re-open its replay window. What
            // the store holds stays (deny-safe). The failed commit's rows
            // went with it; these say what the caller is told.
            if outcome == A::GRANT {
                outcome = A::UNAVAILABLE;
                rows[0] = outcome.entry().row;
                events = [None, outcome.entry().event];
            }
            txn.restage(&rows);
        }
        let sent = self.text.and_then(|(phone, code)| {
            if persisted {
                // The SMS is dispatched only once its commit is durable.
                let dispatch = self.tctx.as_ref().map(|c| {
                    let g = tracer.start(c, "otp", "sms_dispatch");
                    c.clock.advance_us(span_cost::SMS_DISPATCH_US);
                    g
                });
                let body = format!("Your TACC token code is {code}");
                let message = server.sms.send(&phone, &body, now);
                drop(dispatch);
                Some(message)
            } else {
                // The code nobody will be sent stops being pending, so the
                // next trigger issues one instead of suppressing itself.
                // The failed issue may yet become durable, so the clear is
                // logged, in the commit of the row that says what the
                // caller was told, and a reload agrees.
                server.store.with_record(username, |rec| {
                    if let Some(clear) = authority::withdrawal(rec, &code) {
                        authority::apply(rec, &clear);
                        txn.change(&clear);
                        txn.append();
                    }
                });
                None
            }
        });
        let span_id = self.tctx.as_ref().and_then(|c| c.parent);
        for (kind, what) in events.into_iter().flatten() {
            if kind == SecurityEventKind::LockoutStorm {
                let lockouts = &server.held.lockouts;
                let lookup = || server.metrics.counter("hpcmfa_otp_lockouts_total", &[]);
                lockouts.get_or_init(lookup).inc();
            }
            let detail = format!("user={username} {what}");
            server.metrics.emit_event(kind, trace, span_id, now, detail);
        }
        let told = outcome.entry();
        let (family, key) = A::COUNTER;
        outcome
            .series(&server.held)
            .get_or_init(|| server.metrics.counter(family, &[(key, told.label)]))
            .inc();
        if let Some(started) = self.started {
            server
                .held
                .validate_wall_us
                .get_or_init(|| server.metrics.histogram("hpcmfa_otp_validate_wall_us", &[]))
                .record_elapsed_us(started);
        }
        if let (true, Some(adm), Some(src)) = (outcome == A::GRANT, &server.admission, self.source)
        {
            adm.note_success(src, now);
        }
        if let Some(mut span) = self.span.map(|span| tracer.attach(span)) {
            span.set_detail(told.label);
            if let Some(status) = told.status {
                span.set_status(status);
            }
        }
        outcome.reply(sent)
    }
}

/// A gated operation past its *begin*: the store (or ledger) holds what
/// it did, its commit is appended, the lock is released. Two drivers
/// take it to its *finish*: [`Begun::settle`] on the caller's thread, or
/// [`Begun::park`] on the thread holding the pump's release turn.
pub(crate) struct Begun<'a, A> {
    txn: Txn<'a>,
    gate: Gate<A>,
}

impl<'a, A: Answer> Begun<'a, A> {
    /// The user the operation is on.
    pub(crate) fn user(&self) -> &'a str {
        self.txn.user
    }

    /// When the operation runs.
    pub(crate) fn now(&self) -> u64 {
        self.txn.now
    }

    /// Drive inline: wait for the commit's sync on this thread — leading
    /// it when none is in flight — and finish.
    pub(crate) fn settle(self) -> A::Reply {
        let Begun { mut txn, gate } = self;
        let persisted = txn.settle();
        gate.finish(&mut txn, persisted)
    }

    /// Whether [`Begun::settle`] would wait for a sync another thread is
    /// running, and if so the commit's sequence number, to see a
    /// [parked](Begun::park) commit through by.
    pub(crate) fn would_wait(&self) -> Option<u64> {
        let pump = self.txn.server.persistence.as_ref()?;
        pump.would_wait(self.txn.ticket.as_ref()?)
    }

    /// Drive parked: leave the finish with the pump, to be run — and its
    /// reply handed to `then` — by the thread holding the release turn
    /// once the verdict is in. Returns `false` if there was nothing to
    /// wait behind after all and both ran here. `server` is the shared
    /// handle of the server that began it.
    pub(crate) fn park(
        self,
        server: Arc<LinotpServer>,
        then: impl FnOnce(&str, A::Reply) + Send + 'static,
    ) -> bool {
        let Begun { mut txn, gate } = self;
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
            let reply = gate.finish(&mut txn, persisted);
            drop(txn);
            then(&user, reply);
        });
        match pump.zip(ticket) {
            Some((pump, ticket)) => pump.park(ticket, finish),
            None => {
                finish(true);
                false
            }
        }
    }
}

/// The series every operation counts, each looked up in the registry the
/// first time it is counted and held from then on: a lookup builds a key
/// and takes the registry's lock, several times what the increment costs.
/// First use rather than construction, so a series nothing has counted yet
/// stays out of `/system/metrics`. A labelled family is an array indexed
/// by the outcome's discriminant.
#[derive(Default)]
pub(crate) struct HeldSeries {
    window_scans: OnceLock<Arc<Counter>>,
    validations: [OnceLock<Arc<Counter>>; 6],
    lockouts: OnceLock<Arc<Counter>>,
    validate_wall_us: OnceLock<Arc<Histogram>>,
    resume_consumes: [OnceLock<Arc<Counter>>; 3],
    sms_triggers: [OnceLock<Arc<Counter>>; 6],
}

impl LinotpServer {
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
        let ServerConfig {
            audit_cap,
            metrics,
            overload,
            ..
        } = config;
        let admission = overload.map(|c| AdmissionController::new(c, Arc::clone(&metrics)));
        LinotpServer {
            store: TokenStore::new(),
            audit: AuditLog::with_cap(audit_cap),
            sms,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
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
    /// diverge. Expired resume nonces are purged first, so none lands in
    /// a snapshot; the records are written as they stand (an expired SMS
    /// code is inert, and only `authority::apply` changes a record).
    fn maybe_compact(&self, now: u64, from_finish: bool) {
        let Some(compaction) = self
            .persistence
            .as_ref()
            .and_then(|pump| pump.claim_compaction(from_finish))
        else {
            return;
        };
        let consumed = {
            let mut ledger = self.resume_consumed.lock();
            ledger.purge_expired(now);
            ledger.consumed.clone()
        };
        let capacity = compaction.snapshot_len();
        let bytes = snapshot_live_sized(capacity, &self.store, &self.audit, &consumed);
        let _ = compaction.install(&bytes);
    }

    /// See parked commit `seq` through on this thread: its verdict in and
    /// its finish run (see [`Persistence::drive`]).
    pub(crate) fn drive(&self, seq: u64) {
        if let Some(pump) = &self.persistence {
            pump.drive(seq);
        }
    }

    /// See the oldest parked commit along without waiting, `waker` woken
    /// if a sync in flight leaves it more to do (see
    /// [`Persistence::nudge`]); having made commits durable, with no
    /// [`Txn`] open, make the compaction check every operation's end
    /// makes. Whether it led a sync or ran a parked finish.
    pub(crate) fn nudge(&self, now: u64, waker: &Waker) -> bool {
        let worked = (self.persistence.as_ref()).is_some_and(|pump| pump.nudge(waker));
        if worked {
            self.maybe_compact(now, false);
        }
        worked
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
    fn enroll_pairing(
        &self,
        username: &str,
        pairing: TokenPairing,
        now: u64,
        detail: &'static str,
    ) {
        let mut txn = self.txn(username, now, None);
        txn.record(|| WalRecord::Enroll {
            user: username.to_string(),
            pairing: pairing.clone(),
        });
        txn.stage(&[Some(Row::new(AuditAction::Enroll, true, detail))]);
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
        txn.stage(&[Some(Row::new(AuditAction::Remove, existed, ""))]);
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

    /// Open an operation's timed `otp` span labelled `label` when traced,
    /// and charge the engine's modeled base cost to the trace clock.
    fn open(&self, label: &'static str, ctx: Option<&SpanCtx>) -> Option<SpanGuard<'_>> {
        let guard = ctx.map(|c| self.metrics.tracer().start(c, "otp", label));
        if let Some(c) = ctx {
            c.clock.advance_us(span_cost::OTP_BASE_US);
        }
        guard
    }

    /// What every guarded operation does first: [`LinotpServer::open`]
    /// its span, then put the request to admission control when that is
    /// configured and the source known. `Err` is a shed request's reply —
    /// its audit row written, counted as `unavailable`, the span closed as
    /// shed — the fail-safe denial. An admitted request's queue wait
    /// becomes an `admission` child span charging its virtual delay to the
    /// trace clock, so the critical path can name it.
    fn admit<A: Answer>(
        &self,
        username: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Option<SpanGuard<'_>>, A::Reply> {
        let label = A::LABEL;
        let mut guard = self.open(label, ctx);
        let (Some(adm), Some(src)) = (&self.admission, source) else {
            return Ok(guard);
        };
        let trace = ctx.map(|c| c.trace);
        match adm.admit(src, now, trace, guard.as_ref().map(SpanGuard::id), label) {
            Err(reason) => {
                let (shed, unavailable) = (reason.detail(), A::UNAVAILABLE);
                let told = unavailable.entry();
                let row = told.row.map(|row| Row {
                    detail: shed,
                    ..row
                });
                self.txn(username, now, trace).stage(&[row]);
                let (family, key) = A::COUNTER;
                unavailable
                    .series(&self.held)
                    .get_or_init(|| self.metrics.counter(family, &[(key, told.label)]))
                    .inc();
                if let Some(g) = guard.as_mut() {
                    g.set_status(SpanStatus::Shed);
                    g.set_detail(shed);
                }
                Err(unavailable.reply(None))
            }
            Ok(wait_us) => {
                if let Some(c) = guard.as_ref().map(SpanGuard::child_ctx) {
                    let mut adm_span = self.metrics.tracer().start(&c, "otp", "admission");
                    adm_span.attr_u64("wait_us", wait_us);
                    c.clock.advance_us(wait_us);
                    adm_span.finish();
                }
                Ok(guard)
            }
        }
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

    /// The *begin* of a validation: admission, then [`LinotpServer::step_begin`].
    /// `Err` is a shed request's answer — a shed request never begins.
    pub(crate) fn validate_begin<'a>(
        &'a self,
        username: &'a str,
        code: &str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Begun<'a, ValidationOutcome>, ValidationOutcome> {
        let started = Instant::now();
        let guard = self.admit::<ValidationOutcome>(username, now, ctx, source)?;
        let (mut begun, _) = self.step_begin(guard, username, &Op::Validate { code }, now);
        begun.gate.source = source;
        begun.gate.started = Some(started);
        Ok(begun)
    }

    /// The *begin* of an operation a login waits on that `step` decides:
    /// its [`Txn`], then under the shard lock `step`, each change applied
    /// and encoded into the commit beside the staged rows, and — when
    /// something changed — the commit's append, so the lock is released
    /// before the sync that makes them durable (see [`Txn`]). Returns the
    /// number an SMS issue texts once durable.
    fn step_begin<'a, A: Answer + From<Outcome>>(
        &'a self,
        guard: Option<SpanGuard<'a>>,
        username: &'a str,
        op: &Op<'_>,
        now: u64,
    ) -> (Begun<'a, A>, Option<PhoneNumber>) {
        // The enclosing span's child context: its trace threads the audit
        // detail and security events, sub-spans parent under it.
        let tctx = guard.as_ref().map(SpanGuard::child_ctx);
        let mut txn = self.txn(username, now, tctx.as_ref().map(|c| c.trace));
        let (mut fsync, mut phone) = (None, None);
        let t = self.store.with_record(username, |rec| {
            let t = authority::step(rec, op, now);
            if t.window_steps > 0 {
                // Every full-OTP validation scans the drift window. The
                // resumption fast path never reaches this line, which is
                // what lets tests pin "zero window scans".
                let scans = || self.metrics.counter("hpcmfa_otp_window_scans_total", &[]);
                self.held.window_scans.get_or_init(scans).inc();
                if let Some(c) = &tctx {
                    let mut scan = self.metrics.tracer().start(c, "otp", "window_scan");
                    scan.attr_u64("window_steps", t.window_steps);
                    let cost = span_cost::WINDOW_SCAN_STEP_US.saturating_mul(t.window_steps);
                    c.clock.advance_us(cost);
                    scan.finish();
                }
            }
            for change in t.changes.iter().flatten() {
                authority::apply(rec, change);
            }
            txn.encode(&t);
            if t.changes.iter().any(Option::is_some) {
                fsync = tctx
                    .as_ref()
                    .filter(|_| self.persistence.is_some())
                    .map(|c| {
                        let g = self.metrics.tracer().start(c, "otp", "wal_fsync");
                        c.clock.advance_us(span_cost::WAL_FSYNC_US);
                        g.detach()
                    });
                txn.append();
            }
            if let (Outcome::Sms(SmsOutcome::Sent), TokenPairing::Sms { phone: to, .. }) =
                (t.outcome, &rec.pairing)
            {
                phone = Some(to.clone());
            }
            t
        });
        let t = t.unwrap_or_else(|| {
            let t = authority::absent(op);
            txn.stage(&t.rows);
            t
        });
        let gate = Gate::new(A::from(t.outcome), (t.rows, t.events), guard, fsync);
        (Begun { txn, gate }, phone)
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
    /// in-memory entry stays, which is deny-safe. A nonce presented at or
    /// past `expires_at` is `Replayed` whatever the ledger still holds,
    /// and commits nothing.
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
    ) -> Begun<'a, ResumeConsumeOutcome> {
        let guard = self.open(ResumeConsumeOutcome::LABEL, ctx);
        let mut txn = self.txn(username, now, ctx.map(|c| c.trace));
        let outcome = if now >= expires_at {
            // A nonce at its expiry can no longer be spent, and the ledger
            // may or may not have forgotten it yet: refused before the
            // ledger is asked, so the answer does not hang on when a purge
            // ran. Nothing to make durable: no insert, record or row.
            ResumeConsumeOutcome::Replayed
        } else {
            let mut ledger = self.resume_consumed.lock();
            if now >= ledger.purge_due {
                ledger.purge_expired(now);
            }
            match ledger.consumed.entry(nonce) {
                Entry::Occupied(_) => {
                    txn.stage(&[ResumeConsumeOutcome::Replayed.entry().row]);
                    ResumeConsumeOutcome::Replayed
                }
                Entry::Vacant(slot) => {
                    slot.insert(expires_at);
                    // The nonce consume is one WAL commit on the durable path.
                    if let Some(c) = ctx.filter(|_| self.persistence.is_some()) {
                        c.clock.advance_us(span_cost::WAL_FSYNC_US);
                    }
                    txn.record(|| WalRecord::ResumeConsume {
                        user: username.to_string(),
                        nonce,
                        expires_at,
                    });
                    txn.stage(&[ResumeConsumeOutcome::Fresh.entry().row]);
                    txn.append();
                    ResumeConsumeOutcome::Fresh
                }
            }
        };
        let told = outcome.entry();
        let gate = Gate::new(outcome, ([told.row, None], [None, told.event]), guard, None);
        Begun { txn, gate }
    }

    /// Trigger an SMS code for `username` (the "null request" path).
    pub fn trigger_sms(&self, username: &str, now: u64) -> SmsTrigger {
        self.trigger_sms_guarded(username, now, None, None)
    }

    /// The *begin* of an SMS trigger: admission, a code drawn, then
    /// [`LinotpServer::step_begin`] — the issue record and its row must be
    /// durable before the provider is handed the message. `Err` is a shed
    /// request's answer.
    pub(crate) fn trigger_sms_begin<'a>(
        &'a self,
        username: &'a str,
        now: u64,
        ctx: Option<&SpanCtx>,
        source: Option<Ipv4Addr>,
    ) -> Result<Begun<'a, SmsOutcome>, SmsTrigger> {
        let guard = self.admit::<SmsOutcome>(username, now, ctx, source)?;
        let code = format!("{:06}", self.rng.lock().random_range(0..1_000_000u32));
        let (mut begun, phone) =
            self.step_begin(guard, username, &Op::SmsIssue { code: &code }, now);
        begun.gate.text = phone.map(|phone| (phone, code));
        Ok(begun)
    }

    // ------------------------------------------------------------------
    // Admin operations
    // ------------------------------------------------------------------

    /// Clear a user's failure counter and reactivate (staff action, §3.1).
    pub fn reset_failcount(&self, username: &str, now: u64) -> bool {
        self.staff(username, &Op::Reset, now)
    }

    /// Resynchronize a drifted TOTP token from two consecutive codes: a
    /// step within ±2 000 of `now` where `code1` matches and `code2`
    /// matches the next sets the offset future validations are centred on.
    pub fn resync(&self, username: &str, code1: &str, code2: &str, now: u64) -> bool {
        self.staff(username, &Op::Resync { code1, code2 }, now)
    }

    /// A staff operation: `step` under the shard lock, and the sync there
    /// too, since reactivating an account is not a mark a later reader can
    /// only deny on (see [`Txn`]). The change is applied only once it is
    /// durable; otherwise the answer is `false`, and the row says
    /// "durability unavailable".
    fn staff(&self, username: &str, op: &Op<'_>, now: u64) -> bool {
        let mut txn = self.txn(username, now, None);
        let took = self.store.with_record(username, |rec| {
            let t = authority::step(rec, op, now);
            txn.encode(&t);
            if t.outcome != Outcome::Staff(true) {
                return false;
            }
            if !txn.settle() {
                txn.restage(&[t.rows[0].map(Row::not_durable)]);
                return false;
            }
            for change in t.changes.iter().flatten() {
                authority::apply(rec, change);
            }
            true
        });
        took.unwrap_or_else(|| {
            txn.stage(&authority::absent(op).rows);
            false
        })
    }

    /// Status for staff tooling at `now`: a read, which changes nothing.
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
    use crate::{LOCKOUT_THRESHOLD, SMS_CODE_VALIDITY_SECS};
    use hpcmfa_otp::device::SoftToken;
    use hpcmfa_otp::totp::TotpParams;

    const NOW: u64 = 1_475_000_000;

    fn server() -> Arc<LinotpServer> {
        LinotpServer::with_config(TwilioSim::new(5), 42, ServerConfig::default())
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

    /// A reset reactivates an account, so it answers `true` only once its
    /// record is durable: otherwise the account stays locked, the answer
    /// is `false`, and the row says why.
    #[test]
    fn a_reset_that_is_not_durable_answers_false() {
        use crate::durability::{MemoryBackend, StorageFaultPlan};
        let plan = StorageFaultPlan::seeded(11);
        let srv = durable_server(MemoryBackend::with_plan(Arc::clone(&plan)));
        srv.enroll_soft("alice", NOW);
        for i in 0..u64::from(LOCKOUT_THRESHOLD) {
            srv.validate("alice", "000000", NOW + i);
        }
        assert!(!srv.status("alice", NOW + 30).unwrap().active);
        plan.set_fsync_fail_every(1);
        assert!(!srv.reset_failcount("alice", NOW + 30));
        assert!(srv.durability_counters().unwrap().fsync_failures > 0);
        assert!(!srv.status("alice", NOW + 30).unwrap().active);
        let rows = srv.audit().for_user("alice");
        let reset = rows
            .iter()
            .rfind(|e| e.action == AuditAction::ResetFailCount);
        let reset = reset.unwrap();
        assert_eq!(
            (reset.success, reset.detail.as_str()),
            (false, "durability unavailable")
        );
        plan.set_fsync_fail_every(0);
        assert!(srv.reset_failcount("alice", NOW + 40));
        assert!(srv.status("alice", NOW + 40).unwrap().active);
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
    /// and the WAL alike — across the compactions a floor of eight records
    /// and a snapshot this small let through every few operations, which
    /// would lose a row that entered the ring after its operation's
    /// compaction check.
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

    fn durable(snapshot_every_appends: u64) -> Arc<LinotpServer> {
        let config = ServerConfig {
            snapshot_every_appends,
            ..ServerConfig::default()
        };
        let backend = crate::durability::MemoryBackend::healthy();
        LinotpServer::with_storage(TwilioSim::new(5), 42, config, backend).unwrap()
    }

    #[test]
    fn an_expired_nonce_is_replayed_whether_or_not_a_purge_ran() {
        // One server compacts (and so purges) between the two
        // presentations, the other never does.
        for (every, compacts) in [(1, true), (0, false)] {
            let srv = durable(every);
            let consume = |nonce, expires_at, now| {
                srv.consume_resume_nonce("carol", [nonce; 16], expires_at, now, None)
            };
            // A long-lived nonce first keeps the consume path's own purge
            // from coming due before the third presentation.
            assert_eq!(consume(1, NOW + 3_600, NOW), ResumeConsumeOutcome::Fresh);
            assert_eq!(consume(9, NOW + 60, NOW), ResumeConsumeOutcome::Fresh);
            let snapshots = srv.durability_counters().unwrap().snapshots;
            assert_eq!(
                consume(2, NOW + 3_600, NOW + 100),
                ResumeConsumeOutcome::Fresh
            );
            let compacted = srv.durability_counters().unwrap().snapshots > snapshots;
            assert_eq!(compacted, compacts);
            assert_eq!(
                consume(9, NOW + 60, NOW + 120),
                ResumeConsumeOutcome::Replayed,
                "compacted in between: {compacts}"
            );
        }
    }

    #[test]
    fn a_nonce_presented_at_its_expiry_is_replayed_and_commits_nothing() {
        let srv = durable(0);
        let commits = srv.durability_counters().unwrap().commits;
        assert_eq!(
            srv.consume_resume_nonce("carol", [3; 16], NOW, NOW, None),
            ResumeConsumeOutcome::Replayed
        );
        assert_eq!(srv.durability_counters().unwrap().commits, commits);
        assert!(srv.resume_consumed.lock().consumed.is_empty());
        assert!(srv.audit().export_all().is_empty());
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
