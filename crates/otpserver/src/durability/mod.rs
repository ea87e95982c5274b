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
//!   operation appends its store and audit records as one *commit* and
//!   waits for a sync covering it *before* it is acknowledged
//!   ([`Persistence::begin`]); concurrent commits share syncs.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// Group-commit bookkeeping. Commits are numbered from 1 in append
/// order under this state's lock, so sequence order is WAL byte order.
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
}

/// The durability pump: appends each operation's records as one commit,
/// shares fsyncs between concurrent commits, counts everything, and
/// runs one fenced compaction at a time.
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
    group: Mutex<GroupState>,
    /// Signalled whenever a sync finishes.
    sync_done: Condvar,
    /// The compactor fence: every operation holds it shared from before
    /// it takes a store or ledger lock until its audit rows are in the
    /// ring; the compactor (and a reload) holds it exclusively, so the
    /// state it exports and the WAL it resets cannot move underneath it.
    fence: RwLock<()>,
    /// Set while one thread owns the pending compaction.
    compacting: AtomicBool,
}

/// One operation's WAL records, encoded back to back as ordinary frames
/// and made durable together by [`Commit::flush`]. Holds the compactor
/// fence shared for as long as it lives.
pub struct Commit<'a> {
    pump: &'a Persistence,
    _fence: RwLockReadGuard<'a, ()>,
    frames: Vec<u8>,
    records: u64,
}

/// Room for a validate's ValState + audit row without regrowing.
const COMMIT_CAPACITY: usize = 256;

impl Commit<'_> {
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

    /// Add a [`WalRecord::Audit`] row from borrowed fields.
    pub fn audit(&mut self, at: u64, user: &str, action: AuditAction, success: bool, detail: &str) {
        wal::frame_into(&mut self.frames, |out| {
            wal::put_audit(out, at, user, wal::action_tag(action), success, detail)
        });
        self.records += 1;
    }

    /// Hand everything added so far to the backend in one `append_wal`
    /// and wait for a `sync_wal` that began after it. The operation must
    /// not be acknowledged until this returns `Ok`; on `Err` none of the
    /// records may be assumed durable (or lost). Leaves the commit empty,
    /// so a denial row can follow a failed flush.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.records == 0 {
            return Ok(());
        }
        let result = self.pump.commit(&self.frames, self.records);
        self.frames.clear();
        self.records = 0;
        result
    }
}

/// The claim on a due compaction: the fence held exclusively, so no
/// commit is in flight and none can start until this drops.
pub struct Compaction<'a> {
    pump: &'a Persistence,
    _fence: RwLockWriteGuard<'a, ()>,
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

impl Drop for Compaction<'_> {
    fn drop(&mut self) {
        self.pump.compacting.store(false, Ordering::SeqCst);
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
            group: Mutex::new(GroupState::default()),
            sync_done: Condvar::new(),
            fence: RwLock::new(()),
            compacting: AtomicBool::new(false),
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
        Commit {
            pump: self,
            // The fence guards no data, so a holder that panicked left
            // nothing half-updated behind it.
            _fence: self.fence.read().unwrap_or_else(|e| e.into_inner()),
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

    /// Hold the fence exclusively without compacting (a reload swaps the
    /// whole in-memory image, which no commit may straddle).
    pub fn quiesce(&self) -> RwLockWriteGuard<'_, ()> {
        self.fence.write().unwrap_or_else(|e| e.into_inner())
    }

    fn group(&self) -> MutexGuard<'_, GroupState> {
        // Every update of the state is a plain store that leaves it
        // consistent, so a poisoned lock is still usable.
        self.group.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn commit(&self, frames: &[u8], records: u64) -> Result<(), StorageError> {
        let started = std::time::Instant::now();
        self.stats.commits.inc();
        let result = self.append_and_sync(frames);
        match &result {
            Ok(()) => {
                self.append_us.record_elapsed_us(started);
                self.stats.appends.add(records);
                self.records_since_snapshot
                    .fetch_add(records, Ordering::SeqCst);
            }
            Err(_) => self.stats.append_failures.inc(),
        }
        result
    }

    /// Leader/follower group commit: append under the group lock and
    /// take a sequence number; then either wait for a sync that started
    /// after the append, or — when none is in flight — run one for every
    /// commit appended so far.
    fn append_and_sync(&self, frames: &[u8]) -> Result<(), StorageError> {
        let mut group = self.group();
        if let Err(e) = self.backend.append_wal(frames) {
            // The rollback discards every unsynced byte, not only this
            // commit's, so whatever has not been acknowledged yet is gone
            // (a sync already in flight may or may not have beaten it).
            self.backend.rollback_inflight();
            group.failed = group.appended;
            return Err(e);
        }
        group.appended += 1;
        let seq = group.appended;
        loop {
            if seq <= group.failed {
                return Err(StorageError::FsyncFailed);
            }
            if seq <= group.settled {
                return Ok(());
            }
            if !group.syncing {
                break;
            }
            group = self
                .sync_done
                .wait(group)
                .unwrap_or_else(|e| e.into_inner());
        }
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

        let mut group = self.group();
        group.syncing = false;
        group.settled = end;
        if synced.is_err() {
            group.failed = group.failed.max(end);
        }
        let denied = seq <= group.failed;
        drop(group);
        self.sync_done.notify_all();
        match synced {
            Ok(()) if denied => Err(StorageError::FsyncFailed),
            other => other,
        }
    }

    /// Whether enough WAL records have accumulated for a compaction.
    fn wants_snapshot(&self) -> bool {
        self.snapshot_every > 0
            && self.records_since_snapshot.load(Ordering::SeqCst) >= self.snapshot_every
    }

    /// Claim the compaction if one is due and nobody else has it: the
    /// winner gets the fence exclusively (after the commits in flight
    /// drain), everyone else gets `None` and carries on. Call it with no
    /// [`Commit`] open on this thread.
    pub fn claim_compaction(&self) -> Option<Compaction<'_>> {
        if !self.wants_snapshot() {
            return None;
        }
        self.compacting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .ok()?;
        // Only the claim holder resets the record count, so a second look
        // settles whether a compaction finished between the check above
        // and the claim.
        if !self.wants_snapshot() {
            self.compacting.store(false, Ordering::SeqCst);
            return None;
        }
        Some(Compaction {
            pump: self,
            _fence: self.quiesce(),
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
