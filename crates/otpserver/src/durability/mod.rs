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
//!   sync covering the commit has finished. Concurrent commits share
//!   syncs, and no store or ledger lock is held across one.
//! * `group` — who leads that sync, who waits for it, who
//!   parks and is told, and when the compactor fence closes: one pure
//!   state machine, which [`Persistence`] drives.
//! * `backend` — the [`StorageBackend`] trait with two implementations: a
//!   real file-backed backend and a deterministic in-memory backend whose
//!   [`StorageFaultPlan`] injects short writes,
//!   fsync failures, read corruption and torn crash tails.
//! * [`snapshot`] — periodic compaction (snapshot + WAL reset) and the
//!   [`recover`] path that replays snapshot + WAL,
//!   truncating at the first torn or corrupt tail record.
//!
//! The recovery invariants the test suite pins down: **replay
//! nullification and lockout state never regress across a crash** — a code
//! accepted before the crash is rejected after recovery, and a locked
//! account stays locked until an admin acts.

mod backend;
mod group;
mod replication;
pub mod snapshot;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageFaultPlan};
pub use replication::{
    ApplyResult, ClusterBackend, LinkFaultPlan, OtpCluster, ReplEnvelope, ReplFrame,
    ReplicationMode, StandbyNode,
};
pub use snapshot::{recover, RecoverError, RecoveredState, RecoveryReport};
pub use wal::WalRecord;

use group::{Actor, Goal, GroupMachine, Step};
use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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
pub(crate) struct DurabilityStats {
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

/// A plain-value copy of `DurabilityStats` for reporting.
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
    pub(crate) fn registered(metrics: &MetricsRegistry) -> Self {
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
    pub(crate) fn counters(&self) -> DurabilityCounters {
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
/// the commit became durable, by the thread holding the release turn
/// once that is known.
pub(crate) type Finish = Box<dyn FnOnce(bool) + Send>;

/// A parked commit's payload in the group machine.
type Parked = (Ticket, Finish);

/// The durability pump: appends each operation's records as one commit,
/// shares fsyncs between concurrent commits, counts everything, and runs
/// one fenced compaction at a time.
///
/// Who leads a sync, who waits, who parks, who runs parked finishes and
/// when the fence closes is the group machine's to say (`group.rs`; its
/// doc is the specification); the pump carries it out. **Every region
/// where the pump holds the group lock is exactly one machine call**: the
/// loop in `Persistence::run`, and the single calls in `Commit::append`,
/// `Persistence::would_wait`, `Persistence::park`, a [`Commit`]'s drop and
/// the fence's release. So interleaving machine calls, as the machine's
/// explorer does, is interleaving the threads.
pub struct Persistence(Arc<Pump>);

struct Pump {
    backend: Arc<dyn StorageBackend>,
    stats: DurabilityStats,
    /// Wall-clock latency of a full durable commit (write + sync wait).
    append_us: Arc<Histogram>,
    /// Wall-clock latency of the fsync alone.
    fsync_us: Arc<Histogram>,
    /// WAL records between snapshots; 0 disables compaction.
    snapshot_every: u64,
    records_since_snapshot: AtomicU64,
    group: Mutex<GroupMachine<Parked>>,
    /// Announces every machine call that says somebody may be waiting
    /// for it.
    moved: Condvar,
}

impl Pump {
    fn lock(&self) -> MutexGuard<'_, GroupMachine<Parked>> {
        // The machine's state is consistent between calls, and a call does
        // not panic, so a poisoned lock is still usable.
        self.group.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Where an appended commit sits in the WAL order: what
/// [`Persistence::settle`] or [`Persistence::park`] takes to find the
/// sync that covers it.
#[must_use = "an appended commit is acknowledged only once it is settled"]
pub(crate) struct Ticket {
    seq: u64,
    /// Why the backend refused the commit, if it did.
    refused: Option<StorageError>,
    records: u64,
    started: Instant,
}

/// One operation's WAL records, encoded back to back as ordinary frames
/// and made durable together by [`Commit::flush`]. Holds a pass through
/// the compactor fence for as long as it lives.
pub struct Commit {
    pump: Persistence,
    frames: Vec<u8>,
    records: u64,
}

/// Room for a validate's ValState + audit row without regrowing.
const COMMIT_CAPACITY: usize = 256;

impl Commit {
    /// Add `record` to the commit.
    pub fn record(&mut self, record: &WalRecord) {
        record.encode_frame_into(&mut self.frames);
        self.records += 1;
    }

    /// Add a [`WalRecord::ValState`] from borrowed fields.
    pub fn val_state(&mut self, user: &str, last_step: Option<u64>, fail_count: u32, active: bool) {
        wal::frame_into(&mut self.frames, |out| {
            wal::put_val_state(out, user, last_step, fail_count, active)
        });
        self.records += 1;
    }

    /// Add one frame encoded elsewhere — an audit row's, staged as the
    /// bytes the ring keeps.
    pub(crate) fn frame(&mut self, frame: &[u8]) {
        self.frames.extend_from_slice(frame);
        self.records += 1;
    }

    /// Hand everything added so far to the backend in one `append_wal`
    /// and say where it landed (`None`: nothing had been added). This is
    /// the half that belongs inside the lock the operation mutates under
    /// — it fixes WAL order = mutation order — and it waits for nothing
    /// but the group lock. Leaves the commit empty.
    pub(crate) fn append(&mut self) -> Option<Ticket> {
        if self.records == 0 {
            return None;
        }
        let started = Instant::now();
        let pump = &self.pump.0;
        pump.stats.commits.inc();
        let mut group = pump.lock();
        let appended = pump.backend.append_wal(&self.frames);
        if appended.is_err() {
            pump.backend.rollback_inflight();
        }
        let seq = group.append(appended.is_ok());
        drop(group);
        self.frames.clear();
        Some(Ticket {
            seq,
            refused: appended.err(),
            records: std::mem::take(&mut self.records),
            started,
        })
    }

    /// Append what was added and settle it, for a caller that holds no
    /// lock. The operation must not be acknowledged until this returns
    /// `Ok`; on `Err` none of the records may be assumed durable (or
    /// lost). Leaves the commit empty, so a denial row can follow a
    /// failed flush.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.append()
            .map_or(Ok(()), |ticket| self.pump.settle(ticket, false, || {}))
    }
}

impl Drop for Commit {
    fn drop(&mut self) {
        let pump = &self.pump.0;
        if pump.lock().return_pass() {
            pump.moved.notify_all();
        }
    }
}

/// The fence held closed: every pass is back, so no commit is in flight,
/// and none can start until this drops.
pub(crate) struct Fence<'a>(&'a Pump);

impl Drop for Fence<'_> {
    fn drop(&mut self) {
        self.0.lock().open_fence();
        self.0.moved.notify_all();
    }
}

impl Fence<'_> {
    /// Install `bytes` as the new snapshot and reset the WAL. The WAL is
    /// only reset after the snapshot write succeeds, so a failed
    /// compaction never loses records.
    pub(crate) fn install(self, bytes: &[u8]) -> Result<(), StorageError> {
        let pump = self.0;
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

impl Persistence {
    /// Pump through `backend`, compacting every `snapshot_every` WAL
    /// records (0 = never). Counters and latency histograms stay private
    /// to this pump; use `Persistence::with_metrics` to surface them in
    /// a registry.
    pub fn new(backend: Arc<dyn StorageBackend>, snapshot_every: u64) -> Self {
        Self::with_metrics(backend, snapshot_every, &MetricsRegistry::new())
    }

    /// Like [`Persistence::new`], but counters and latency histograms are
    /// registered in `metrics` (`hpcmfa_otp_wal_*`).
    pub(crate) fn with_metrics(
        backend: Arc<dyn StorageBackend>,
        snapshot_every: u64,
        metrics: &MetricsRegistry,
    ) -> Self {
        Persistence(Arc::new(Pump {
            backend,
            stats: DurabilityStats::registered(metrics),
            append_us: metrics.histogram("hpcmfa_otp_wal_append_us", &[]),
            fsync_us: metrics.histogram("hpcmfa_otp_wal_fsync_us", &[]),
            snapshot_every,
            records_since_snapshot: AtomicU64::new(0),
            group: Mutex::default(),
            moved: Condvar::new(),
        }))
    }

    /// The backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.0.backend
    }

    /// The counters.
    pub(crate) fn stats(&self) -> &DurabilityStats {
        &self.0.stats
    }

    /// Open an operation's commit. Call it *before* taking the store or
    /// ledger lock the operation mutates under, keep it until the
    /// operation's audit rows are in the ring, and never open a second
    /// one on the same thread while it lives (a waiting compactor would
    /// deadlock the pair).
    pub fn begin(&self) -> Commit {
        self.run(self.0.lock(), &mut Actor::new(Goal::Pass), None);
        Commit {
            pump: Persistence(Arc::clone(&self.0)),
            frames: Vec::with_capacity(COMMIT_CAPACITY),
            records: 0,
        }
    }

    /// Commit one record on its own.
    pub fn append(&self, record: &WalRecord) -> Result<(), StorageError> {
        let mut commit = self.begin();
        commit.record(record);
        commit.flush()
    }

    /// Wait for a sync that began after `ticket`'s append — leading it
    /// when none is in flight, for every commit appended so far — and say
    /// whether the commit is durable. A durable commit runs `push` (its
    /// rows into the audit ring) in its turn: after every durable commit
    /// appended before it has pushed its own, unless it is the `denial`
    /// row of a parked commit's finish. Call it with no store or ledger
    /// lock held.
    pub(crate) fn settle(
        &self,
        ticket: Ticket,
        denial: bool,
        push: impl FnOnce(),
    ) -> Result<(), StorageError> {
        let seq = ticket.seq;
        let mut actor = Actor::new(if denial {
            Goal::Denial(seq)
        } else {
            Goal::Verdict(seq)
        });
        let mut push = Some(push);
        let mut push = || push.take().map_or((), |push| push());
        match self.run(self.0.lock(), &mut actor, Some((&ticket, &mut push))) {
            Some(true) => Ok(()),
            _ => Err(ticket.refused.unwrap_or(StorageError::FsyncFailed)),
        }
    }

    /// Whether settling `ticket` now would wait for a sync another
    /// thread is running: the case [`Persistence::park`] takes.
    pub(crate) fn would_wait(&self, ticket: &Ticket) -> bool {
        self.0.lock().would_wait(ticket.seq)
    }

    /// Instead of waiting for the sync in flight, leave `finish` with the
    /// pump, to be run by the thread holding the release turn once the
    /// commit's verdict is in. Returns what [`Persistence::drive`] sees it
    /// through with — or `None` when there was nothing to wait behind
    /// after all, and the commit was settled and `finish` run here.
    pub(crate) fn park(&self, ticket: Ticket, finish: Finish) -> Option<(Persistence, u64)> {
        let seq = ticket.seq;
        let parked = self.0.lock().park(seq, (ticket, finish));
        let Err((ticket, finish)) = parked else {
            return Some((Persistence(Arc::clone(&self.0)), seq));
        };
        // A durable finish pushes its rows, so it runs in the commit's turn.
        let mut finish = Some(finish);
        let durable = self.settle(ticket, false, || finish.take().map_or((), |f| f(true)));
        if let Some(finish) = finish {
            finish(durable.is_ok());
        }
        None
    }

    /// See to it that parked commit `seq` gets its verdict and its finish
    /// is run — by this thread, leading the sync if nobody is, or by the
    /// one already at it (the finish may then still be running when this
    /// returns).
    pub(crate) fn drive(&self, seq: u64) {
        self.run(self.0.lock(), &mut Actor::new(Goal::Drive(seq)), None);
    }

    /// Hold the fence closed without compacting (a reload swaps the whole
    /// in-memory image, which no commit may straddle). Call it with no
    /// [`Commit`] open on this thread.
    pub(crate) fn quiesce(&self) -> Fence<'_> {
        self.run(self.0.lock(), &mut Actor::new(Goal::Quiesce), None);
        Fence(&self.0)
    }

    /// Claim the compaction if one is due and nobody holds the fence: the
    /// winner gets it closed (after the commits in flight drain),
    /// everyone else gets `None` and carries on. Call it with no
    /// [`Commit`] open on this thread, and say whether it is a parked
    /// commit's finish.
    pub(crate) fn claim_compaction(&self, from_finish: bool) -> Option<Fence<'_>> {
        if !self.wants_snapshot() {
            return None;
        }
        let group = self.0.lock();
        // Only the fence holder resets the record count, so a second look
        // under the lock settles whether a compaction finished between
        // the check above and here.
        let due = self.wants_snapshot();
        let mut claim = Actor::new(Goal::Claim { due, from_finish });
        self.run(group, &mut claim, None);
        claim.holds_fence().then(|| Fence(&self.0))
    }

    /// The pump's one loop: ask the machine, then do what it says — sync
    /// or run a parked finish with the lock released, wait on the condvar,
    /// or return the goal's verdict, if it had one. `own`, the ticket of
    /// the goal's commit, is counted as soon as that is in, and `push`
    /// runs if it is durable. A finish or push that panics strands no
    /// other: the panic goes on up once the goal is reached, and the fence
    /// is let go first if the goal was to hold it.
    fn run<'p>(
        &'p self,
        mut group: MutexGuard<'p, GroupMachine<Parked>>,
        actor: &mut Actor,
        mut own: Option<(&Ticket, &mut dyn FnMut())>,
    ) -> Option<bool> {
        let pump = &*self.0;
        let (mut verdict, mut panicked) = (None, None);
        loop {
            let (step, wake) = group.next(actor);
            if wake {
                pump.moved.notify_all();
            }
            if matches!(step, Step::Wait) {
                group = pump.moved.wait(group).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            drop(group);
            match step {
                Step::Lead => {
                    let started = Instant::now();
                    let synced = pump.backend.sync_wal().is_ok();
                    if synced {
                        pump.fsync_us.record_elapsed_us(started);
                        pump.stats.fsyncs.inc();
                    } else {
                        pump.stats.fsync_failures.inc();
                    }
                    actor.report(synced);
                }
                Step::Again(durable) => {
                    verdict = Some(durable);
                    if let Some((ticket, push)) = &mut own {
                        self.note(ticket, durable);
                        if durable {
                            let ran = panic::catch_unwind(AssertUnwindSafe(&mut **push));
                            panicked = panicked.or(ran.err());
                        }
                    }
                }
                Step::Release(durable, (ticket, finish)) => {
                    self.note(&ticket, durable);
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| finish(durable)));
                    panicked = panicked.or(ran.err());
                }
                Step::Wait | Step::Done => break,
            }
            group = pump.lock();
        }
        if let Some(payload) = panicked {
            if actor.holds_fence() {
                drop(Fence(pump));
            }
            panic::resume_unwind(payload);
        }
        verdict
    }

    /// Count a commit's verdict.
    fn note(&self, ticket: &Ticket, durable: bool) {
        let pump = &*self.0;
        if durable {
            pump.append_us.record_elapsed_us(ticket.started);
            pump.stats.appends.add(ticket.records);
            pump.records_since_snapshot
                .fetch_add(ticket.records, Ordering::SeqCst);
        } else {
            pump.stats.append_failures.inc();
        }
    }

    /// Whether enough WAL records have accumulated for a compaction.
    fn wants_snapshot(&self) -> bool {
        self.0.snapshot_every > 0
            && self.0.records_since_snapshot.load(Ordering::SeqCst) >= self.0.snapshot_every
    }

    /// Record a completed recovery in the counters.
    pub(crate) fn note_recovery(&self, report: &RecoveryReport) {
        let stats = &self.0.stats;
        stats.recoveries.inc();
        stats.records_replayed.add(report.wal_records as u64);
        if report.truncated_bytes > 0 {
            stats.tail_truncations.inc();
            stats.truncated_bytes.add(report.truncated_bytes as u64);
        }
        self.0.records_since_snapshot.store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// A [`MemoryBackend`] whose syncs report in and wait to be let go.
    struct HeldSyncs {
        inner: Arc<MemoryBackend>,
        entered: Mutex<Sender<()>>,
        let_go: Mutex<Receiver<()>>,
    }

    impl StorageBackend for HeldSyncs {
        fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
            self.inner.append_wal(frame)
        }
        fn sync_wal(&self) -> Result<(), StorageError> {
            let _ = self.entered.lock().unwrap().send(());
            let _ = self.let_go.lock().unwrap().recv();
            self.inner.sync_wal()
        }
        fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
            self.inner.read_wal()
        }
        fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
            self.inner.truncate_wal(len)
        }
        fn wal_len(&self) -> u64 {
            self.inner.wal_len()
        }
        fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.write_snapshot(bytes)
        }
        fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
            self.inner.read_snapshot()
        }
        fn name(&self) -> &'static str {
            "held-syncs"
        }
    }

    fn commit_one(pump: &Persistence, user: &str) -> (Commit, Ticket) {
        let mut commit = pump.begin();
        commit.record(&WalRecord::Remove {
            user: user.to_string(),
        });
        let ticket = commit.append().expect("a record was added");
        (commit, ticket)
    }

    #[test]
    fn a_panicking_parked_finish_strands_no_other() {
        let (entered_tx, entered) = channel();
        let (let_go, let_go_rx) = channel();
        let backend = Arc::new(HeldSyncs {
            inner: MemoryBackend::healthy(),
            entered: Mutex::new(entered_tx),
            let_go: Mutex::new(let_go_rx),
        });
        let pump = Arc::new(Persistence::new(backend, 0));
        let spawn = |work: fn(&Persistence)| {
            let pump = Arc::clone(&pump);
            std::thread::spawn(move || work(&pump))
        };

        // Three commits park behind a held sync they missed.
        let first = spawn(|pump| {
            let (_commit, ticket) = commit_one(pump, "first");
            pump.settle(ticket, false, || {}).unwrap();
        });
        entered.recv().unwrap();
        let (told, verdicts) = channel();
        for i in 0..3 {
            let (commit, ticket) = commit_one(&pump, &format!("parked{i}"));
            let told = told.clone();
            let finish: Finish = Box::new(move |durable| {
                let _pass = commit;
                assert!(i != 1, "the middle finish panics");
                told.send((i, durable)).unwrap();
            });
            assert!(pump.park(ticket, finish).is_some(), "parked {i}");
        }
        drop(told);
        let_go.send(()).unwrap();
        first.join().unwrap();

        // Whoever leads their sync runs all three finishes, the panicking
        // one included, and only then panics itself.
        let leader = spawn(|pump| pump.drive(4));
        entered.recv().unwrap();
        let_go.send(()).unwrap();
        assert!(leader.join().is_err(), "the leader's panic comes through");
        spawn(|pump| pump.drive(4)).join().unwrap();
        let got: Vec<_> = verdicts.iter().collect();
        assert_eq!(got, vec![(0, true), (2, true)]);

        // Every pass is back: the fence closes at once.
        let (quiet, quieted) = channel();
        std::thread::spawn(move || {
            let _fence = pump.quiesce();
            quiet.send(()).unwrap();
        });
        quieted
            .recv_timeout(Duration::from_secs(5))
            .expect("a pass went missing: the fence never closed");
    }
}
