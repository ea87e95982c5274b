//! Durable OTP-server state: write-ahead log, snapshots, crash recovery.
//!
//! The paper's validation server keeps pairing, replay-nullification and
//! failure-counter state in a MariaDB-backed LinOTP database (§3.1–§3.2);
//! losing that state across a restart silently re-opens the TOTP replay
//! window and forgets lockouts. This module gives the in-process
//! [`LinotpServer`](crate::server::LinotpServer) the same durability
//! posture:
//!
//! * [`wal`] — a checksummed, length-prefixed record codec. Every
//!   operation appends its store and audit records as one *commit*,
//!   inside the lock it mutates under, and is acknowledged only once a
//!   sync covering the commit has finished ([`Persistence`]: who leads
//!   that sync, who waits for it, who parks and is told). Concurrent
//!   commits share syncs, and no store or ledger lock is held across one.
//! * [`backend`] — the [`StorageBackend`] trait with two implementations: a
//!   real file-backed backend and a deterministic in-memory backend whose
//!   [`StorageFaultPlan`](backend::StorageFaultPlan) injects short writes,
//!   fsync failures, read corruption and torn crash tails.
//! * [`snapshot`] — periodic compaction (snapshot + WAL reset) and the
//!   [`recover`](snapshot::recover) path that replays snapshot + WAL,
//!   truncating at the first torn or corrupt tail record.
//!
//! The recovery invariants the test suite pins down: **replay
//! nullification and lockout state never regress across a crash** — a code
//! accepted before the crash is rejected after recovery, and a locked
//! account stays locked until an admin acts.

pub mod backend;
pub mod replication;
pub mod snapshot;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageFaultPlan};
pub use replication::{
    ApplyResult, ClusterBackend, LinkFaultPlan, MemoryLink, OtpCluster, ReplEnvelope, ReplFrame,
    ReplicationMode, StandbyNode,
};
pub use snapshot::{recover, RecoverError, RecoveredState, RecoveryReport};
pub use wal::{decode_stream, PairingImage, WalRecord, WalTail};

use crate::audit::AuditAction;
use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Errors a storage backend can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// OS-level I/O failure.
    Io(String),
    /// An append persisted only a prefix of the frame.
    ShortWrite {
        /// Bytes actually written.
        wrote: usize,
        /// Bytes requested.
        of: usize,
    },
    /// fsync reported failure; durability of buffered data is unknown.
    FsyncFailed,
    /// The backend is in a simulated-crash state.
    Crashed,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::ShortWrite { wrote, of } => {
                write!(f, "short write: {wrote} of {of} bytes")
            }
            StorageError::FsyncFailed => write!(f, "fsync failed"),
            StorageError::Crashed => write!(f, "backend crashed"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The storage substrate the durability layer writes through. One WAL
/// byte stream plus one snapshot blob; both opaque to the backend.
pub trait StorageBackend: Send + Sync {
    /// Append one commit — one or more whole encoded frames, back to
    /// back — to the WAL. On error the backend should already have
    /// discarded (or the caller will roll back) any partial bytes via
    /// [`StorageBackend::rollback_inflight`].
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError>;

    /// Make every appended byte durable.
    fn sync_wal(&self) -> Result<(), StorageError>;

    /// Read the entire durable WAL.
    fn read_wal(&self) -> Result<Vec<u8>, StorageError>;

    /// Cut the durable WAL down to `len` bytes (recovery truncates torn
    /// tails through this).
    fn truncate_wal(&self, len: u64) -> Result<(), StorageError>;

    /// Empty the WAL (after a successful snapshot).
    fn reset_wal(&self) -> Result<(), StorageError> {
        self.truncate_wal(0)
    }

    /// Durable WAL length in bytes.
    fn wal_len(&self) -> u64;

    /// Atomically replace the snapshot blob.
    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Read the current snapshot blob, if one exists.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError>;

    /// Remove the snapshot blob entirely (a replication resync wipes the
    /// standby before replaying the primary's state). Absence is not an
    /// error.
    fn clear_snapshot(&self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Discard bytes appended but not yet synced (called after a failed
    /// append so a detected short write cannot poison the stream).
    fn rollback_inflight(&self) {}

    /// Simulate a process crash: un-synced bytes are lost, possibly
    /// leaving a torn prefix of the in-flight frame behind. No-op for
    /// backends whose crash model is "the process dies" (files survive).
    fn simulate_crash(&self) {}

    /// Diagnostic name.
    fn name(&self) -> &'static str;
}

/// Monotonic durability counters, exposed to admins via
/// `GET /system/durability` and asserted on by the chaos scenarios.
///
/// Each field is a telemetry [`Counter`]; built through
/// [`DurabilityStats::registered`] the same instruments also surface in the
/// shared registry's `GET /system/metrics` output under `hpcmfa_otp_wal_*`
/// names, so the legacy JSON route and the Prometheus scrape always agree.
#[derive(Default)]
pub struct DurabilityStats {
    /// WAL records appended and synced.
    pub appends: Arc<Counter>,
    /// Commits attempted (one per operation; `commits / fsyncs` is the
    /// mean group size).
    pub commits: Arc<Counter>,
    /// Commits that did not become durable: the backend rejected the
    /// append (short write / crashed / I/O), or the sync covering it
    /// failed.
    pub append_failures: Arc<Counter>,
    /// Successful fsyncs.
    pub fsyncs: Arc<Counter>,
    /// Failed fsyncs (one per sync, however many commits it covered).
    pub fsync_failures: Arc<Counter>,
    /// Snapshots written (compactions).
    pub snapshots: Arc<Counter>,
    /// Snapshot attempts that failed.
    pub snapshot_failures: Arc<Counter>,
    /// Recoveries performed.
    pub recoveries: Arc<Counter>,
    /// WAL records replayed across all recoveries.
    pub records_replayed: Arc<Counter>,
    /// Recoveries that truncated a torn or corrupt tail.
    pub tail_truncations: Arc<Counter>,
    /// Bytes dropped by tail truncation across all recoveries.
    pub truncated_bytes: Arc<Counter>,
}

/// A plain-value copy of [`DurabilityStats`] for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityCounters {
    /// WAL records appended and synced.
    pub appends: u64,
    /// Commits attempted.
    pub commits: u64,
    /// Commits that did not become durable.
    pub append_failures: u64,
    /// Successful fsyncs.
    pub fsyncs: u64,
    /// Failed fsyncs.
    pub fsync_failures: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Snapshot attempts that failed.
    pub snapshot_failures: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub records_replayed: u64,
    /// Recoveries that truncated a torn or corrupt tail.
    pub tail_truncations: u64,
    /// Bytes dropped by tail truncation.
    pub truncated_bytes: u64,
}

impl DurabilityStats {
    /// Stats whose counters live in `metrics`, so every increment is
    /// visible to Prometheus scrapes as well as to [`Self::counters`].
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        DurabilityStats {
            appends: metrics.counter("hpcmfa_otp_wal_appends_total", &[]),
            commits: metrics.counter("hpcmfa_otp_wal_commits_total", &[]),
            append_failures: metrics.counter("hpcmfa_otp_wal_append_failures_total", &[]),
            fsyncs: metrics.counter("hpcmfa_otp_wal_fsyncs_total", &[]),
            fsync_failures: metrics.counter("hpcmfa_otp_wal_fsync_failures_total", &[]),
            snapshots: metrics.counter("hpcmfa_otp_snapshot_writes_total", &[]),
            snapshot_failures: metrics.counter("hpcmfa_otp_snapshot_failures_total", &[]),
            recoveries: metrics.counter("hpcmfa_otp_recoveries_total", &[]),
            records_replayed: metrics.counter("hpcmfa_otp_wal_records_replayed_total", &[]),
            tail_truncations: metrics.counter("hpcmfa_otp_wal_tail_truncations_total", &[]),
            truncated_bytes: metrics.counter("hpcmfa_otp_wal_truncated_bytes_total", &[]),
        }
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            appends: self.appends.get(),
            commits: self.commits.get(),
            append_failures: self.append_failures.get(),
            fsyncs: self.fsyncs.get(),
            fsync_failures: self.fsync_failures.get(),
            snapshots: self.snapshots.get(),
            snapshot_failures: self.snapshot_failures.get(),
            recoveries: self.recoveries.get(),
            records_replayed: self.records_replayed.get(),
            tail_truncations: self.tail_truncations.get(),
            truncated_bytes: self.truncated_bytes.get(),
        }
    }
}

/// What a parked commit leaves with the pump: called once, with whether
/// the commit became durable, by the thread that led the sync covering
/// it.
pub type Finish = Box<dyn FnOnce(bool) + Send>;

struct Parked {
    seq: u64,
    ticket: Ticket,
    finish: Finish,
}

/// Group-commit and fence bookkeeping, all under one lock. Commits are
/// numbered from 1 in append order under it, so sequence order is WAL
/// byte order.
#[derive(Default)]
struct GroupState {
    /// Sequence number of the last commit appended.
    appended: u64,
    /// Every commit up to here has been covered by a finished sync that
    /// began after its append.
    settled: u64,
    /// Every commit up to here that had not been acknowledged when this
    /// moved is denied: its sync failed, or a rollback after a failed
    /// append discarded its bytes. Checked before `settled`, so a commit
    /// that slept through a later good sync is still denied.
    failed: u64,
    /// A leader is inside `sync_wal`.
    syncing: bool,
    /// Fence passes out: operations between their `begin` and the end of
    /// their finish, parked ones included.
    passes: u64,
    /// A compactor or a reload holds the fence: no pass is issued until
    /// it lets go. Doubles as the claim on a due compaction.
    closed: bool,
    /// Commits whose threads did not wait, in sequence order.
    parked: VecDeque<Parked>,
    /// A thread is running parked finishes; it also takes whatever a sync
    /// finishing meanwhile covers.
    releasing: bool,
}

impl GroupState {
    /// Whether a verdict on commit `seq` exists yet.
    fn covers(&self, seq: u64) -> bool {
        seq <= self.settled.max(self.failed)
    }

    /// Whether settling commit `seq` now would wait for a sync another
    /// thread is running.
    fn waits_behind_a_sync(&self, seq: u64) -> bool {
        self.syncing && !self.covers(seq)
    }
}

/// [`GroupState`] and the one condvar every change of it that somebody
/// may be waiting for is announced on: a sync finishing, the last pass
/// coming back to a closed fence, the fence opening.
#[derive(Default)]
struct Group {
    state: Mutex<GroupState>,
    moved: Condvar,
}

impl Group {
    fn lock(&self) -> MutexGuard<'_, GroupState> {
        // Every update of the state is a plain store that leaves it
        // consistent, so a poisoned lock is still usable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'g>(&self, state: MutexGuard<'g, GroupState>) -> MutexGuard<'g, GroupState> {
        self.moved.wait(state).unwrap_or_else(|e| e.into_inner())
    }
}

/// One pass through the compactor fence, counted in
/// [`GroupState::passes`] for as long as it lives. Owns its way back to
/// the count, so it can wait with a parked commit on no thread at all.
struct Pass(Arc<Group>);

impl Pass {
    /// Wait out a closed fence, then pass.
    fn take(group: &Arc<Group>) -> Pass {
        let mut state = group.lock();
        while state.closed {
            state = group.wait(state);
        }
        state.passes += 1;
        Pass(Arc::clone(group))
    }
}

impl Drop for Pass {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.passes -= 1;
        if state.closed && state.passes == 0 {
            self.0.moved.notify_all();
        }
    }
}

/// The durability pump: appends each operation's records as one commit,
/// shares fsyncs between concurrent commits, counts everything, and
/// runs one fenced compaction at a time.
///
/// **Who leads, who waits, who parks.** A commit is *appended* under the
/// group lock ([`Commit::append`]) and *settled* outside every other
/// lock ([`Persistence::settle`]). Settling finds either no sync in
/// flight — the caller leads one, covering every commit appended so
/// far — or one in flight, and then the caller chooses: wait for it on
/// the condvar, or [`Persistence::park`] a [`Finish`] and leave. No lock
/// of the store or the resume ledger is held across a sync, so commits
/// of one shard, and resume consumes, share syncs like any others.
///
/// **Who releases.** The thread that finishes a sync runs the finishes
/// of the parked commits it covered before it returns, unless a thread
/// is already doing so, which then takes those too: one releaser at a
/// time, so a finish that commits (a denial row) cannot recurse into
/// another round of finishes. A parked finish therefore runs on
/// whichever thread led its sync, and its fence pass comes back without
/// any other layer's help.
///
/// **The fence rule.** Every operation holds a [`Pass`] from before it
/// takes a store or ledger lock until its audit rows are in the ring;
/// the compactor and a reload close the fence and wait for the passes
/// out to come back, so the state they export and the WAL they reset
/// cannot move underneath them. A parked commit holds its pass on no
/// thread, and every thread that could lead its sync may be the waiter
/// or stuck behind the closed fence — so *whoever waits on the fence
/// while a commit is unsettled leads the sync it is waiting for* (and
/// runs the finishes). The wait needs nobody else.
pub struct Persistence {
    backend: Arc<dyn StorageBackend>,
    stats: DurabilityStats,
    /// Wall-clock latency of a full durable commit (write + sync wait).
    append_us: Arc<Histogram>,
    /// Wall-clock latency of the fsync alone.
    fsync_us: Arc<Histogram>,
    /// WAL records between snapshots; 0 disables compaction.
    snapshot_every: u64,
    records_since_snapshot: AtomicU64,
    group: Arc<Group>,
}

/// Where an appended commit sits in the WAL order: what
/// [`Persistence::settle`] or [`Persistence::park`] takes to find the
/// sync that covers it.
#[must_use = "an appended commit is acknowledged only once it is settled"]
pub struct Ticket {
    seq: Result<u64, StorageError>,
    records: u64,
    started: std::time::Instant,
}

impl Ticket {
    /// The commit's sequence number, unless the backend refused it.
    pub fn seq(&self) -> Option<u64> {
        self.seq.as_ref().ok().copied()
    }
}

/// One operation's WAL records, encoded back to back as ordinary frames
/// and made durable together by [`Commit::flush`]. Holds a pass through
/// the compactor fence for as long as it lives.
pub struct Commit<'a> {
    pump: &'a Persistence,
    held: HeldCommit,
}

/// A [`Commit`] away from its pump ([`Commit::suspend`]), pass and all:
/// what a parked operation keeps until [`Persistence::resume`].
pub struct HeldCommit {
    _pass: Pass,
    frames: Vec<u8>,
    records: u64,
}

/// Room for a validate's ValState + audit row without regrowing.
const COMMIT_CAPACITY: usize = 256;

impl<'a> Commit<'a> {
    /// Add `record` to the commit.
    pub fn record(&mut self, record: &WalRecord) {
        record.encode_frame_into(&mut self.held.frames);
        self.held.records += 1;
    }

    /// Add a [`WalRecord::ValState`] from borrowed fields.
    pub fn val_state(&mut self, user: &str, last_step: Option<u64>, fail_count: u32, active: bool) {
        wal::frame_into(&mut self.held.frames, |out| {
            wal::put_val_state(out, user, last_step, fail_count, active)
        });
        self.held.records += 1;
    }

    /// Add a [`WalRecord::Audit`] row from borrowed fields.
    pub fn audit(&mut self, at: u64, user: &str, action: AuditAction, success: bool, detail: &str) {
        wal::frame_into(&mut self.held.frames, |out| {
            wal::put_audit(out, at, user, wal::action_tag(action), success, detail)
        });
        self.held.records += 1;
    }

    /// Hand everything added so far to the backend in one `append_wal`
    /// and say where it landed (`None`: nothing had been added). This is
    /// the half that belongs inside the lock the operation mutates under
    /// — it fixes WAL order = mutation order — and it waits for nothing
    /// but the group lock. Leaves the commit empty.
    pub fn append(&mut self) -> Option<Ticket> {
        let held = &mut self.held;
        if held.records == 0 {
            return None;
        }
        let started = std::time::Instant::now();
        let pump = self.pump;
        pump.stats.commits.inc();
        let mut group = pump.group.lock();
        let seq = match pump.backend.append_wal(&held.frames) {
            Ok(()) => {
                group.appended += 1;
                Ok(group.appended)
            }
            Err(e) => {
                // The rollback discards every unsynced byte, not only this
                // commit's, so whatever has not been acknowledged yet is
                // gone (a sync already in flight may or may not have
                // beaten it).
                pump.backend.rollback_inflight();
                group.failed = group.appended;
                Err(e)
            }
        };
        drop(group);
        held.frames.clear();
        Some(Ticket {
            seq,
            records: std::mem::take(&mut held.records),
            started,
        })
    }

    /// [`Commit::append`] and [`Persistence::settle`] back to back, for a
    /// caller that holds no lock. The operation must not be acknowledged
    /// until this returns `Ok`; on `Err` none of the records may be
    /// assumed durable (or lost). Leaves the commit empty, so a denial
    /// row can follow a failed flush.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.append().map_or(Ok(()), |ticket| self.settle(ticket))
    }

    /// [`Persistence::settle`] on this commit's pump.
    pub fn settle(&self, ticket: Ticket) -> Result<(), StorageError> {
        self.pump.settle(ticket)
    }

    /// Leave the pump, keeping the pass.
    pub fn suspend(self) -> HeldCommit {
        self.held
    }
}

/// The fence held closed: every pass is back and none is issued until
/// this drops.
pub struct Quiesced<'a>(&'a Persistence);

impl Drop for Quiesced<'_> {
    fn drop(&mut self) {
        self.0.group.lock().closed = false;
        self.0.group.moved.notify_all();
    }
}

/// The claim on a due compaction: the fence held closed, so no commit is
/// in flight and none can start until this drops.
pub struct Compaction<'a> {
    pump: &'a Persistence,
    _fence: Quiesced<'a>,
}

impl Compaction<'_> {
    /// Install `bytes` as the new snapshot and reset the WAL. The WAL is
    /// only reset after the snapshot write succeeds, so a failed
    /// compaction never loses records.
    pub fn install(self, bytes: &[u8]) -> Result<(), StorageError> {
        let pump = self.pump;
        let written = pump
            .backend
            .write_snapshot(bytes)
            .and_then(|()| pump.backend.reset_wal());
        match &written {
            Ok(()) => {
                pump.stats.snapshots.inc();
                pump.records_since_snapshot.store(0, Ordering::SeqCst);
            }
            Err(_) => pump.stats.snapshot_failures.inc(),
        }
        written
    }
}

/// Marks the one thread running parked finishes; lets the next thread
/// have the turn if a finish panics its way out.
struct ReleaseTurn<'a>(&'a Group);

impl Drop for ReleaseTurn<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().releasing = false;
        }
    }
}

impl Persistence {
    /// Pump through `backend`, compacting every `snapshot_every` WAL
    /// records (0 = never). Counters and latency histograms stay private
    /// to this pump; use [`Persistence::with_metrics`] to surface them in
    /// a registry.
    pub fn new(backend: Arc<dyn StorageBackend>, snapshot_every: u64) -> Self {
        Self::build(
            backend,
            snapshot_every,
            DurabilityStats::default(),
            Arc::new(Histogram::new()),
            Arc::new(Histogram::new()),
        )
    }

    /// Like [`Persistence::new`], but counters and latency histograms are
    /// registered in `metrics` (`hpcmfa_otp_wal_*`).
    pub fn with_metrics(
        backend: Arc<dyn StorageBackend>,
        snapshot_every: u64,
        metrics: &MetricsRegistry,
    ) -> Self {
        Self::build(
            backend,
            snapshot_every,
            DurabilityStats::registered(metrics),
            metrics.histogram("hpcmfa_otp_wal_append_us", &[]),
            metrics.histogram("hpcmfa_otp_wal_fsync_us", &[]),
        )
    }

    fn build(
        backend: Arc<dyn StorageBackend>,
        snapshot_every: u64,
        stats: DurabilityStats,
        append_us: Arc<Histogram>,
        fsync_us: Arc<Histogram>,
    ) -> Self {
        Persistence {
            backend,
            stats,
            append_us,
            fsync_us,
            snapshot_every,
            records_since_snapshot: AtomicU64::new(0),
            group: Arc::default(),
        }
    }

    /// The backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The counters.
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// Open an operation's commit. Call it *before* taking the store or
    /// ledger lock the operation mutates under, keep it until the
    /// operation's audit rows are in the ring, and never open a second
    /// one on the same thread while it lives (a waiting compactor would
    /// deadlock the pair).
    pub fn begin(&self) -> Commit<'_> {
        self.resume(HeldCommit {
            _pass: Pass::take(&self.group),
            frames: Vec::with_capacity(COMMIT_CAPACITY),
            records: 0,
        })
    }

    /// Take back a commit that left through [`Commit::suspend`].
    pub fn resume(&self, held: HeldCommit) -> Commit<'_> {
        Commit { pump: self, held }
    }

    /// Commit one record on its own.
    pub fn append(&self, record: &WalRecord) -> Result<(), StorageError> {
        let mut commit = self.begin();
        commit.record(record);
        commit.flush()
    }

    /// Wait for a sync that began after `ticket`'s append — leading it
    /// when none is in flight, for every commit appended so far — and say
    /// whether the commit is durable. Call it with no store or ledger
    /// lock held.
    pub fn settle(&self, ticket: Ticket) -> Result<(), StorageError> {
        let result = match &ticket.seq {
            Ok(seq) => self.cover(*seq),
            Err(e) => Err(e.clone()),
        };
        self.note(&ticket, result.is_ok());
        self.release_covered();
        result
    }

    /// Whether settling `ticket` now would wait for a sync another
    /// thread is running: the case [`Persistence::park`] takes.
    pub fn would_wait(&self, ticket: &Ticket) -> bool {
        let group = self.group.lock();
        ticket
            .seq()
            .is_some_and(|seq| group.waits_behind_a_sync(seq))
    }

    /// Instead of waiting for the sync in flight, leave `finish` with the
    /// pump: the thread that leads the sync covering `ticket` calls it.
    /// Gives both back when there is nothing to wait behind — no sync in
    /// flight, or the verdict already in — and the caller settles inline.
    pub fn park(&self, ticket: Ticket, finish: Finish) -> Result<(), (Ticket, Finish)> {
        let mut group = self.group.lock();
        match ticket.seq() {
            Some(seq) if group.waits_behind_a_sync(seq) => {
                // Tickets are parked outside the lock they were appended
                // under, so not quite in order.
                let at = group.parked.iter().rposition(|p| p.seq < seq);
                group.parked.insert(
                    at.map_or(0, |i| i + 1),
                    Parked {
                        seq,
                        ticket,
                        finish,
                    },
                );
                Ok(())
            }
            _ => Err((ticket, finish)),
        }
    }

    /// See to it that parked commit `seq` gets its verdict and its finish
    /// is run — by this thread, leading the sync if nobody is, or by the
    /// one already at it (the finish may then still be running when this
    /// returns).
    pub fn drive(&self, seq: u64) {
        let _ = self.cover(seq);
        self.release_covered();
    }

    /// Leader/follower group commit for a commit already appended:
    /// either wait for a sync that started after the append, or — when
    /// none is in flight — run one for every commit appended so far.
    fn cover(&self, seq: u64) -> Result<(), StorageError> {
        let mut group = self.group.lock();
        loop {
            if seq <= group.failed {
                return Err(StorageError::FsyncFailed);
            }
            if seq <= group.settled {
                return Ok(());
            }
            if group.syncing {
                group = self.group.wait(group);
                continue;
            }
            let (relocked, synced) = self.lead(group);
            group = relocked;
            synced?;
        }
    }

    /// Run one sync for every commit appended so far. Takes the group
    /// lock with no sync in flight and gives it back the same way.
    fn lead<'g>(
        &'g self,
        mut group: MutexGuard<'g, GroupState>,
    ) -> (MutexGuard<'g, GroupState>, Result<(), StorageError>) {
        group.syncing = true;
        let end = group.appended;
        drop(group);

        let sync_started = std::time::Instant::now();
        let synced = self.backend.sync_wal();
        match &synced {
            Ok(()) => {
                self.fsync_us.record_elapsed_us(sync_started);
                self.stats.fsyncs.inc();
            }
            Err(_) => self.stats.fsync_failures.inc(),
        }

        let mut group = self.group.lock();
        group.syncing = false;
        group.settled = end;
        if synced.is_err() {
            group.failed = group.failed.max(end);
        }
        self.group.moved.notify_all();
        (group, synced)
    }

    /// Count a commit's verdict.
    fn note(&self, ticket: &Ticket, durable: bool) {
        if durable {
            self.append_us.record_elapsed_us(ticket.started);
            self.stats.appends.add(ticket.records);
            self.records_since_snapshot
                .fetch_add(ticket.records, Ordering::SeqCst);
        } else {
            self.stats.append_failures.inc();
        }
    }

    /// Run the finish of every parked commit that has its verdict, oldest
    /// first, unless a thread is already doing so.
    fn release_covered(&self) {
        let mut group = self.group.lock();
        if group.releasing {
            return;
        }
        let _turn = ReleaseTurn(&self.group);
        loop {
            let due = group.parked.front().is_some_and(|p| group.covers(p.seq));
            let Some(parked) = due.then(|| group.parked.pop_front()).flatten() else {
                group.releasing = false;
                return;
            };
            group.releasing = true;
            let durable = parked.seq > group.failed;
            drop(group);
            self.note(&parked.ticket, durable);
            (parked.finish)(durable);
            group = self.group.lock();
        }
    }

    /// Whether enough WAL records have accumulated for a compaction.
    fn wants_snapshot(&self) -> bool {
        self.snapshot_every > 0
            && self.records_since_snapshot.load(Ordering::SeqCst) >= self.snapshot_every
    }

    /// Close the fence and wait for every pass out to come back, leading
    /// the syncs parked commits among them are waiting for (the fence
    /// rule).
    fn close<'g>(&'g self, mut group: MutexGuard<'g, GroupState>) -> Quiesced<'g> {
        group.closed = true;
        while group.passes > 0 {
            if group.appended > group.settled && !group.syncing {
                drop(self.lead(group));
                self.release_covered();
                group = self.group.lock();
            } else {
                group = self.group.wait(group);
            }
        }
        Quiesced(self)
    }

    /// Hold the fence closed without compacting (a reload swaps the whole
    /// in-memory image, which no commit may straddle). Call it with no
    /// [`Commit`] open on this thread.
    pub fn quiesce(&self) -> Quiesced<'_> {
        let mut group = self.group.lock();
        while group.closed {
            group = self.group.wait(group);
        }
        self.close(group)
    }

    /// Claim the compaction if one is due and nobody holds the fence: the
    /// winner gets it closed (after the commits in flight drain),
    /// everyone else gets `None` and carries on. Call it with no
    /// [`Commit`] open on this thread.
    pub fn claim_compaction(&self) -> Option<Compaction<'_>> {
        if !self.wants_snapshot() {
            return None;
        }
        let group = self.group.lock();
        // Only the fence holder resets the record count, so a second look
        // under the lock settles whether a compaction finished between
        // the check above and here.
        if group.closed || !self.wants_snapshot() {
            return None;
        }
        Some(Compaction {
            pump: self,
            _fence: self.close(group),
        })
    }

    /// Record a completed recovery in the counters.
    pub fn note_recovery(&self, report: &RecoveryReport) {
        self.stats.recoveries.inc();
        self.stats.records_replayed.add(report.wal_records as u64);
        if report.truncated_bytes > 0 {
            self.stats.tail_truncations.inc();
            self.stats
                .truncated_bytes
                .add(report.truncated_bytes as u64);
        }
        self.records_since_snapshot.store(0, Ordering::SeqCst);
    }
}
