//! Warm-standby WAL-shipping replication with epoch-fenced failover.
//!
//! The paper's deployment hangs every login on one LinOTP/MariaDB host;
//! this module removes that availability cliff without giving back any of
//! the durability invariants PR 2 established. The shape:
//!
//! * The primary's durable WAL frames are batched into checksummed
//!   *replication envelopes* and streamed over an in-memory link
//!   ([`MemoryLink`]) that injects drops, reorder, partition and lag
//!   through a [`LinkFaultPlan`] in the same seeded cadence-counter style
//!   as the storage layer's `StorageFaultPlan`.
//! * A warm [`StandbyNode`] applies envelopes strictly in sequence order
//!   (out-of-order arrivals are buffered, duplicates dropped) and its
//!   applied sequence number doubles as the ack. In
//!   [`ReplicationMode::Sync`] an unacked batch fails the primary's
//!   `sync_wal` — the validation engine then answers `Unavailable`, the
//!   same fail-safe deny it uses for a local fsync failure, so **a code is
//!   only ever accepted once its nullification is durable on both nodes**.
//! * Every envelope carries a monotonically increasing **epoch**.
//!   Promotion bumps the epoch; frames a deposed primary still holds are
//!   stamped with the old epoch and fenced on rejoin — the split-brain
//!   stale node cannot smuggle state into the new timeline.
//!
//! [`ClusterBackend`] is the tap point: it implements
//! [`StorageBackend`] by routing to the current primary and shipping each
//! synced batch, so `LinotpServer`'s hot path is untouched. Failover is
//! driven by a reused RADIUS [`CircuitBreaker`]: local storage errors on
//! the primary trip it, and the next request (a safe point — no store
//! locks held) promotes the standby and reloads the server from its state.

use super::wal::{frame_into, put_u64, split_frame, Reader};
use super::{StorageBackend, StorageError};
use hpcmfa_otp::clock::Clock;
use hpcmfa_radius::breaker::{BreakerConfig, CircuitBreaker};
use hpcmfa_telemetry::{
    Counter, Gauge, MetricsRegistry, SecurityEventKind, SpanCtx, TraceClock, TraceId,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes of framing overhead per replication envelope (length + checksum).
pub(crate) const REPL_HEADER_LEN: usize = 8;

/// Upper bound on one envelope payload. Larger than the WAL's per-record
/// cap because one envelope may batch several WAL frames or carry a whole
/// snapshot.
pub(crate) const MAX_REPL_LEN: u32 = 1 << 26;

const TAG_WAL: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_RESET: u8 = 4;

/// What one replication envelope instructs the standby to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// Append these already-framed WAL bytes and fsync them.
    Wal(Vec<u8>),
    /// Install this snapshot blob and reset the WAL (compaction mirror).
    Snapshot(Vec<u8>),
    /// Liveness probe; applies nothing.
    Heartbeat,
    /// Drop any snapshot and truncate the WAL to empty (resync preamble
    /// when the primary has no snapshot to ship).
    Reset,
}

/// One wire frame: `[len u32 LE][crc32 u32 LE][epoch u64][seq u64][tag][body]`,
/// with the CRC covering everything after the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEnvelope {
    /// The shipping primary's epoch. A receiver at a higher epoch rejects
    /// the frame (stale-primary fencing); a lower one adopts it.
    pub epoch: u64,
    /// Position in the shipping order, 1-based and contiguous.
    pub seq: u64,
    /// The instruction.
    pub frame: ReplFrame,
}

impl ReplEnvelope {
    /// Encode the full wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, body): (u8, &[u8]) = match &self.frame {
            ReplFrame::Wal(b) => (TAG_WAL, b),
            ReplFrame::Snapshot(b) => (TAG_SNAPSHOT, b),
            ReplFrame::Heartbeat => (TAG_HEARTBEAT, &[]),
            ReplFrame::Reset => (TAG_RESET, &[]),
        };
        // The payload is the epoch, the sequence number, the tag and the body.
        let mut out = Vec::with_capacity(REPL_HEADER_LEN + 8 + 8 + 1 + body.len());
        frame_into(&mut out, |out| {
            put_u64(out, self.epoch);
            put_u64(out, self.seq);
            out.push(tag);
            out.extend_from_slice(body);
        });
        out
    }

    /// Decode one wire frame. `bytes` must be *exactly* one frame: any
    /// truncation, extension, or flipped bit yields `None` (the length
    /// field is covered by the exact-size check, everything after it by
    /// the CRC — which is linear, so a single flipped bit always changes
    /// it).
    pub fn decode(bytes: &[u8]) -> Option<ReplEnvelope> {
        let (payload, after) = split_frame(bytes, MAX_REPL_LEN).ok()?;
        if !after.is_empty() {
            return None;
        }
        let mut r = Reader::new(payload);
        let epoch = r.u64()?;
        let seq = r.u64()?;
        let tag = r.u8()?;
        let body = r.rest();
        let frame = match tag {
            TAG_WAL => ReplFrame::Wal(body.to_vec()),
            TAG_SNAPSHOT => ReplFrame::Snapshot(body.to_vec()),
            TAG_HEARTBEAT if body.is_empty() => ReplFrame::Heartbeat,
            TAG_RESET if body.is_empty() => ReplFrame::Reset,
            _ => return None,
        };
        Some(ReplEnvelope { epoch, seq, frame })
    }
}

// ---------------------------------------------------------------------
// The link
// ---------------------------------------------------------------------

/// Deterministic fault injection for a `MemoryLink`, mirroring the
/// storage layer's `StorageFaultPlan`: `1-in-n` cadence knobs from
/// `SeqCst` counter RMWs (0 disables), plus partition and lag switches.
pub struct LinkFaultPlan {
    /// Every `n`th offered frame is dropped in flight.
    pub drop_every: AtomicU64,
    drop_counter: AtomicU64,
    /// Every `n`th offered frame is delivered *before* the frame already
    /// queued ahead of it (a one-slot reorder).
    pub reorder_every: AtomicU64,
    reorder_counter: AtomicU64,
    /// Hold back the newest `n` queued frames on every delivery (a
    /// lagging standby).
    pub lag_frames: AtomicU64,
    /// Network partition: offered frames are lost, nothing is delivered.
    pub partitioned: AtomicBool,
}

impl LinkFaultPlan {
    /// No faults.
    pub fn healthy() -> Arc<Self> {
        Arc::new(LinkFaultPlan {
            drop_every: AtomicU64::new(0),
            drop_counter: AtomicU64::new(0),
            reorder_every: AtomicU64::new(0),
            reorder_counter: AtomicU64::new(0),
            lag_frames: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
        })
    }

    #[cfg(test)]
    /// Drop one offered frame in every `n` (0 disables).
    pub(crate) fn set_drop_every(&self, n: u64) {
        self.drop_every.store(n, Ordering::SeqCst);
    }

    #[cfg(test)]
    /// Reorder one offered frame in every `n` (0 disables).
    pub(crate) fn set_reorder_every(&self, n: u64) {
        self.reorder_every.store(n, Ordering::SeqCst);
    }

    /// Hold back the newest `n` frames on delivery (0 disables).
    pub fn set_lag_frames(&self, n: u64) {
        self.lag_frames.store(n, Ordering::SeqCst);
    }

    /// Partition or heal the link.
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst);
    }

    /// Whether the link is partitioned.
    pub(crate) fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    fn cadence_hit(every: &AtomicU64, counter: &AtomicU64) -> bool {
        let n = every.load(Ordering::SeqCst);
        if n == 0 {
            return false;
        }
        let c = counter.fetch_add(1, Ordering::SeqCst) + 1;
        c.is_multiple_of(n)
    }

    fn drop_hit(&self) -> bool {
        Self::cadence_hit(&self.drop_every, &self.drop_counter)
    }

    fn reorder_hit(&self) -> bool {
        Self::cadence_hit(&self.reorder_every, &self.reorder_counter)
    }
}

/// The in-memory transport replication envelopes travel over, with seeded
/// fault injection. Byte-oriented; acks flow back as the standby's
/// highest contiguously applied sequence number.
pub(crate) struct MemoryLink {
    queue: Mutex<VecDeque<Vec<u8>>>,
    acked: AtomicU64,
    plan: Arc<LinkFaultPlan>,
}

impl MemoryLink {
    /// A link driven by `plan`.
    pub(crate) fn new(plan: Arc<LinkFaultPlan>) -> Arc<Self> {
        Arc::new(MemoryLink {
            queue: Mutex::new(VecDeque::new()),
            acked: AtomicU64::new(0),
            plan,
        })
    }

    /// The fault plan.
    pub(crate) fn plan(&self) -> &Arc<LinkFaultPlan> {
        &self.plan
    }

    /// Drop every queued frame (promotion and resync start clean).
    pub(crate) fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Hand one encoded envelope to the transport (may be lost).
    pub(crate) fn offer(&self, bytes: Vec<u8>) {
        if self.plan.is_partitioned() || self.plan.drop_hit() {
            return; // lost in flight; retransmission recovers
        }
        let mut q = self.queue.lock();
        if self.plan.reorder_hit() && !q.is_empty() {
            let at = q.len() - 1;
            q.insert(at, bytes);
        } else {
            q.push_back(bytes);
        }
    }

    /// Drain whatever the transport delivered, in arrival order.
    pub(crate) fn deliver(&self) -> Vec<Vec<u8>> {
        if self.plan.is_partitioned() {
            return Vec::new();
        }
        let mut q = self.queue.lock();
        let hold = self.plan.lag_frames.load(Ordering::SeqCst) as usize;
        let take = q.len().saturating_sub(hold);
        q.drain(..take).collect()
    }

    /// Record the standby's ack high-water mark.
    pub(crate) fn set_acked(&self, seq: u64) {
        self.acked.store(seq, Ordering::SeqCst);
    }

    /// The last acked sequence number.
    pub(crate) fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// The standby
// ---------------------------------------------------------------------

/// How a [`StandbyNode`] disposed of one offered envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyResult {
    /// Applied (possibly cascading buffered successors).
    Applied,
    /// Out of order; held until the gap fills.
    Buffered,
    /// Sequence already applied; dropped (retransmission overlap).
    Duplicate,
    /// Epoch older than the standby's — a deposed primary is fenced.
    StaleEpoch,
    /// The envelope failed its checksum or parse.
    Corrupt,
    /// The standby's own storage rejected the apply; not acked, so the
    /// primary will retransmit.
    StorageFailed,
}

/// A warm standby: applies replication envelopes strictly in sequence
/// order onto its own [`StorageBackend`], buffering out-of-order arrivals
/// and fencing stale epochs.
pub struct StandbyNode {
    backend: Arc<dyn StorageBackend>,
    epoch: u64,
    applied_seq: u64,
    buffered: BTreeMap<u64, ReplEnvelope>,
}

impl StandbyNode {
    /// A standby at `epoch` whose state already reflects every sequence
    /// number up to and including `applied_seq`.
    pub fn new(backend: Arc<dyn StorageBackend>, epoch: u64, applied_seq: u64) -> Self {
        StandbyNode {
            backend,
            epoch,
            applied_seq,
            buffered: BTreeMap::new(),
        }
    }

    /// The standby's storage.
    pub(crate) fn backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }

    /// Highest contiguously applied sequence number — the ack.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Offer one encoded envelope.
    pub fn offer(&mut self, bytes: &[u8]) -> ApplyResult {
        let Some(env) = ReplEnvelope::decode(bytes) else {
            return ApplyResult::Corrupt;
        };
        if env.epoch < self.epoch {
            return ApplyResult::StaleEpoch;
        }
        if env.epoch > self.epoch {
            self.epoch = env.epoch;
        }
        if env.seq <= self.applied_seq {
            return ApplyResult::Duplicate;
        }
        if env.seq > self.applied_seq + 1 {
            self.buffered.insert(env.seq, env);
            return ApplyResult::Buffered;
        }
        if self.apply(&env).is_err() {
            return ApplyResult::StorageFailed;
        }
        self.applied_seq = env.seq;
        // Fill from the reorder buffer as far as it is contiguous.
        while let Some(next) = self.buffered.remove(&(self.applied_seq + 1)) {
            if self.apply(&next).is_err() {
                self.buffered.insert(next.seq, next);
                break;
            }
            self.applied_seq = next.seq;
        }
        ApplyResult::Applied
    }

    fn apply(&self, env: &ReplEnvelope) -> Result<(), StorageError> {
        match &env.frame {
            ReplFrame::Wal(bytes) => {
                self.backend.append_wal(bytes)?;
                self.backend.sync_wal()
            }
            ReplFrame::Snapshot(bytes) => {
                self.backend.write_snapshot(bytes)?;
                self.backend.reset_wal()
            }
            ReplFrame::Heartbeat => Ok(()),
            ReplFrame::Reset => {
                self.backend.clear_snapshot()?;
                self.backend.truncate_wal(0)
            }
        }
    }
}

// ---------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------

/// When the primary acknowledges a durable write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// A batch must be applied (acked) by the standby before `sync_wal`
    /// succeeds. An unreachable standby degrades the primary to fail-safe
    /// denials — no accepted code can be lost by a failover.
    Sync,
    /// `sync_wal` succeeds on local durability alone; the standby trails
    /// by the link lag. Failover may lose the unacked suffix (bounded
    /// staleness), which is why promotion fences the deposed primary
    /// rather than trusting it.
    Async,
}

struct ClusterState {
    primary: Arc<dyn StorageBackend>,
    standby: Option<StandbyNode>,
    /// WAL frames appended to the primary but not yet shipped (a batch
    /// ships on the enclosing `sync_wal`).
    pending_wal: Vec<u8>,
    /// Shipped but unacked envelopes, by sequence — the retransmission
    /// window, and the deposed frames if a promotion happens now.
    unacked: BTreeMap<u64, Vec<u8>>,
    epoch: u64,
    next_seq: u64,
    /// Old-epoch envelopes a deposed primary still held at promotion.
    deposed: Vec<Vec<u8>>,
    /// The deposed primary's storage, kept for a later standby rejoin.
    deposed_backend: Option<Arc<dyn StorageBackend>>,
}

struct ClusterCore {
    mode: ReplicationMode,
    clock: Arc<dyn Clock>,
    metrics: Arc<MetricsRegistry>,
    link: Arc<MemoryLink>,
    state: Mutex<ClusterState>,
    /// Held by `sync_wal` from taking its batch to shipping it, and taken
    /// before `state` by everything that discards pending bytes or swaps
    /// a node (rollback, crash, promotion, rejoin), so none of those lands
    /// between the two. Appends do not take it: they never wait out the
    /// primary's sync.
    syncing: Mutex<()>,
    /// Local-storage health of the current primary; trips on inner
    /// errors only — replication misses must not cause a promotion (a
    /// partitioned standby promoting itself is exactly the split brain
    /// the epoch fence exists to contain).
    breaker: CircuitBreaker,
    promotion_due: AtomicBool,
    lag_gauge: Arc<Gauge>,
    epoch_gauge: Arc<Gauge>,
    failovers: Arc<Counter>,
    frames_sent: Arc<Counter>,
    frames_applied: Arc<Counter>,
    stale_frames: Arc<Counter>,
    corrupt_frames: Arc<Counter>,
    sync_misses: Arc<Counter>,
}

impl ClusterCore {
    fn now_us(&self) -> u64 {
        self.clock.now().saturating_mul(1_000_000)
    }

    /// The state, with no sync in flight.
    fn settled(&self) -> (MutexGuard<'_, ()>, MutexGuard<'_, ClusterState>) {
        let syncing = self.syncing.lock();
        (syncing, self.state.lock())
    }

    fn note_inner<T>(&self, r: Result<T, StorageError>) -> Result<T, StorageError> {
        match r {
            Ok(v) => {
                self.breaker.record_success();
                Ok(v)
            }
            Err(e) => {
                if self.breaker.record_failure_opened(self.now_us()) {
                    self.promotion_due.store(true, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Drain the link into the standby, retransmit if the pipe ran dry,
    /// prune the ack window, refresh the lag gauge.
    fn pump_locked(&self, st: &mut ClusterState) {
        let delivered = self.link.deliver();
        let mut any = false;
        if let Some(standby) = st.standby.as_mut() {
            for bytes in &delivered {
                any = true;
                let before = standby.applied_seq();
                match standby.offer(bytes) {
                    ApplyResult::Applied => {
                        self.frames_applied
                            .add(standby.applied_seq().saturating_sub(before));
                    }
                    ApplyResult::StaleEpoch => self.stale_frames.inc(),
                    ApplyResult::Corrupt => self.corrupt_frames.inc(),
                    ApplyResult::Buffered | ApplyResult::Duplicate | ApplyResult::StorageFailed => {
                    }
                }
            }
            let acked = standby.applied_seq();
            self.link.set_acked(acked);
            st.unacked = st.unacked.split_off(&(acked + 1));
            // Nothing arrived and frames are still outstanding: assume
            // loss and re-offer the whole window in order. Duplicates are
            // deduped by the standby, so over-retransmission is harmless.
            if !any && !st.unacked.is_empty() && !self.link.plan().is_partitioned() {
                for bytes in st.unacked.values() {
                    self.link.offer(bytes.clone());
                }
            }
        }
        let shipped = st.next_seq.saturating_sub(1);
        self.lag_gauge
            .set(shipped.saturating_sub(self.link.acked()) as i64);
    }

    /// Assign the next sequence number and ship one frame, tracking it in
    /// the retransmission window.
    fn ship_locked(&self, st: &mut ClusterState, frame: ReplFrame) {
        let env = ReplEnvelope {
            epoch: st.epoch,
            seq: st.next_seq,
            frame,
        };
        st.next_seq += 1;
        let bytes = env.encode();
        st.unacked.insert(env.seq, bytes.clone());
        self.frames_sent.inc();
        self.link.offer(bytes);
    }
}

/// The [`StorageBackend`] the durable server actually writes through:
/// routes every operation to the cluster's current primary and ships each
/// synced WAL batch (and each snapshot) to the standby.
pub struct ClusterBackend {
    core: Arc<ClusterCore>,
}

impl StorageBackend for ClusterBackend {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        let mut st = self.core.state.lock();
        let r = st.primary.append_wal(frame);
        if r.is_ok() {
            st.pending_wal.extend_from_slice(frame);
        }
        drop(st);
        self.core.note_inner(r)
    }

    fn sync_wal(&self) -> Result<(), StorageError> {
        // The batch this sync covers and the primary it lives on are taken
        // under the state lock and synced without it: appends take that
        // lock, under the pump's group lock, and must not wait out the
        // disk.
        let (_syncing, mut st) = self.core.settled();
        let (primary, mut batch) = (Arc::clone(&st.primary), std::mem::take(&mut st.pending_wal));
        drop(st);
        let r = primary.sync_wal();
        let mut st = self.core.state.lock();
        if let Err(e) = r {
            // Back to the front of the queue, ahead of later appends.
            batch.append(&mut st.pending_wal);
            st.pending_wal = batch;
            drop(st);
            return self.core.note_inner(Err(e));
        }
        // Locally durable: ship the batch, then pump the standby. With no
        // standby attached (post-failover, pre-rejoin) the cluster runs
        // degraded single-node — nothing to ship, nothing to wait on; a
        // rejoin resyncs from the full durable state.
        let miss = if st.standby.is_some() {
            if !batch.is_empty() {
                self.core.ship_locked(&mut st, ReplFrame::Wal(batch));
            }
            self.core.pump_locked(&mut st);
            self.core.mode == ReplicationMode::Sync && !st.unacked.is_empty()
        } else {
            false
        };
        drop(st);
        self.core.note_inner(Ok(()))?;
        if miss {
            // The standby has not acked: in sync mode the write is not
            // yet cluster-durable. Fail-safe deny upstream; the batch
            // stays in the retransmission window. This is *not* a breaker
            // failure — the local disk is fine.
            self.core.sync_misses.inc();
            return Err(StorageError::FsyncFailed);
        }
        Ok(())
    }

    fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        self.core.state.lock().primary.read_wal()
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
        // Truncation only ever cuts torn/corrupt bytes during recovery,
        // and only synced (whole-frame) bytes are ever shipped — so the
        // standby never needs to see a truncation.
        self.core.state.lock().primary.truncate_wal(len)
    }

    fn wal_len(&self) -> u64 {
        self.core.state.lock().primary.wal_len()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        let mut st = self.core.state.lock();
        let r = st.primary.write_snapshot(bytes);
        if r.is_ok() {
            // Mirror the compaction: the standby installs the same
            // snapshot and resets its WAL in sequence order.
            if st.standby.is_some() {
                self.core
                    .ship_locked(&mut st, ReplFrame::Snapshot(bytes.to_vec()));
                self.core.pump_locked(&mut st);
            }
        }
        drop(st);
        self.core.note_inner(r)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.core.state.lock().primary.read_snapshot()
    }

    fn clear_snapshot(&self) -> Result<(), StorageError> {
        self.core.state.lock().primary.clear_snapshot()
    }

    fn rollback_inflight(&self) {
        // After the sync in flight, if any, has shipped what it made
        // durable.
        let (_syncing, mut st) = self.core.settled();
        st.primary.rollback_inflight();
        st.pending_wal.clear();
    }

    fn simulate_crash(&self) {
        let (_syncing, mut st) = self.core.settled();
        st.primary.simulate_crash();
        // Unsynced bytes died with the process; they were never shipped.
        st.pending_wal.clear();
    }

    fn name(&self) -> &'static str {
        "cluster"
    }
}

/// The replicated OTP-server pair: one primary, one warm standby, a
/// fault-injectable link between them, and breaker-driven failover.
pub struct OtpCluster {
    core: Arc<ClusterCore>,
    server: Mutex<Option<Arc<crate::server::LinotpServer>>>,
}

impl OtpCluster {
    /// Build a cluster over two storage nodes. Returns the cluster handle
    /// and the [`ClusterBackend`] to hand to
    /// [`LinotpServer::with_storage`](crate::server::LinotpServer::with_storage).
    ///
    /// All replication series are pre-registered so `/system/metrics`
    /// renders them at zero from the first scrape.
    pub fn new(
        primary: Arc<dyn StorageBackend>,
        standby: Arc<dyn StorageBackend>,
        mode: ReplicationMode,
        clock: Arc<dyn Clock>,
        metrics: Arc<MetricsRegistry>,
        breaker: BreakerConfig,
        link_plan: Arc<LinkFaultPlan>,
    ) -> (Arc<OtpCluster>, Arc<ClusterBackend>) {
        let link = MemoryLink::new(link_plan);
        let epoch_gauge = metrics.gauge("hpcmfa_otp_replication_epoch", &[]);
        epoch_gauge.set(1);
        let core = Arc::new(ClusterCore {
            mode,
            clock,
            link,
            lag_gauge: metrics.gauge("hpcmfa_otp_replication_lag_frames", &[]),
            epoch_gauge,
            failovers: metrics.counter("hpcmfa_otp_failovers_total", &[]),
            frames_sent: metrics.counter("hpcmfa_otp_replication_frames_sent_total", &[]),
            frames_applied: metrics.counter("hpcmfa_otp_replication_frames_applied_total", &[]),
            stale_frames: metrics.counter("hpcmfa_otp_replication_stale_frames_total", &[]),
            corrupt_frames: metrics.counter("hpcmfa_otp_replication_corrupt_frames_total", &[]),
            sync_misses: metrics.counter("hpcmfa_otp_replication_sync_misses_total", &[]),
            metrics,
            syncing: Mutex::new(()),
            state: Mutex::new(ClusterState {
                primary,
                standby: Some(StandbyNode::new(standby, 1, 0)),
                pending_wal: Vec::new(),
                unacked: BTreeMap::new(),
                epoch: 1,
                next_seq: 1,
                deposed: Vec::new(),
                deposed_backend: None,
            }),
            breaker: CircuitBreaker::new(breaker),
            promotion_due: AtomicBool::new(false),
        });
        let cluster = Arc::new(OtpCluster {
            core: Arc::clone(&core),
            server: Mutex::new(None),
        });
        (cluster, Arc::new(ClusterBackend { core }))
    }

    /// Attach the server whose in-memory state must be reloaded from the
    /// new primary after a promotion.
    pub(crate) fn attach_server(&self, server: Arc<crate::server::LinotpServer>) {
        *self.server.lock() = Some(server);
    }

    /// The link's fault plan (chaos scripts partition/lag through this).
    pub fn link_plan(&self) -> Arc<LinkFaultPlan> {
        Arc::clone(self.core.link.plan())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.core.state.lock().epoch
    }

    /// Whether a warm standby is attached.
    pub fn has_standby(&self) -> bool {
        self.core.state.lock().standby.is_some()
    }

    /// Shipped-but-unacked frame count (what the lag gauge shows).
    pub fn replication_lag(&self) -> u64 {
        let st = self.core.state.lock();
        st.next_seq
            .saturating_sub(1)
            .saturating_sub(self.core.link.acked())
    }

    /// Completed failovers.
    pub fn failovers(&self) -> u64 {
        self.core.failovers.get()
    }

    /// Drain the link into the standby outside any write. Chaos scripts
    /// call this between logins so a lagging/healed link converges.
    pub fn pump(&self) {
        let mut st = self.core.state.lock();
        self.core.pump_locked(&mut st);
    }

    /// Promote the standby if the primary's breaker tripped since the
    /// last check. Called at the top of the RADIUS handler — a safe
    /// point: no store or state locks are held there, and
    /// [`LinotpServer::reload_from_storage`](crate::server::LinotpServer::reload_from_storage)
    /// re-enters this cluster's backend.
    pub(crate) fn maybe_failover(&self, now: u64) -> bool {
        if !self.core.promotion_due.swap(false, Ordering::SeqCst) {
            return false;
        }
        self.promote(now, "primary storage failing, breaker open")
    }

    /// Operator-forced promotion (the lagging-standby chaos scenario).
    pub fn force_promote(&self, now: u64, reason: &'static str) -> bool {
        self.promote(now, reason)
    }

    fn promote(&self, now: u64, reason: &'static str) -> bool {
        let (new_epoch, lost) = {
            let (_syncing, mut st) = self.core.settled();
            if st.standby.is_none() {
                return false; // nothing to promote; stay degraded
            }
            // Final drain: take every frame the link still has.
            self.core.pump_locked(&mut st);
            let Some(standby) = st.standby.take() else {
                return false;
            };
            let acked = standby.applied_seq();
            // Frames the old primary shipped (or held) past the ack are
            // stamped with the old epoch: they are the deposed node's
            // split-brain residue, kept to prove the fence rejects them.
            let lost = st.unacked.len();
            st.deposed = st.unacked.values().cloned().collect();
            st.deposed_backend = Some(Arc::clone(&st.primary));
            st.unacked.clear();
            st.pending_wal.clear();
            st.primary = standby.backend();
            st.epoch += 1;
            self.core.link.clear();
            self.core.link.set_acked(acked);
            (st.epoch, lost)
        };
        // Outside the state lock: recovery reads back through the
        // ClusterBackend, which takes the lock per operation.
        if let Some(server) = self.server.lock().clone() {
            let _ = server.reload_from_storage();
        }
        self.core.failovers.inc();
        self.core.epoch_gauge.set(new_epoch as i64);
        self.core.lag_gauge.set(0);
        // A failover is its own operation, not part of any login: mint a
        // trace derived from the new epoch and record the promotion as a
        // timed span so the Failover event resolves to a live span.
        let trace = TraceId::from_u64(0xFA11_0FE5_0000_0000 ^ new_epoch);
        let ctx = SpanCtx::root(trace, TraceClock::at(now.saturating_mul(1_000_000)));
        let mut span = self
            .core
            .metrics
            .tracer()
            .start(&ctx, "otp.cluster", "failover");
        span.attr_u64("epoch", new_epoch);
        span.attr_u64("unacked_frames", lost as u64);
        span.set_detail(reason);
        ctx.clock
            .advance_us(crate::server::span_cost::FAILOVER_PROMOTE_US);
        let span_id = span.id();
        span.finish();
        self.core.metrics.emit_event(
            SecurityEventKind::Failover,
            Some(trace),
            Some(span_id),
            now,
            format!("standby promoted to epoch {new_epoch} ({reason}); unacked_frames={lost}"),
        );
        // The new primary's storage is healthy until proven otherwise.
        self.core.breaker.record_success();
        true
    }

    /// Replay the deposed primary's leftover frames against the current
    /// epoch's fence. Every one must be rejected as stale — this is the
    /// split-brain reconnect. Returns `(offered, rejected)`.
    pub fn rejoin_deposed(&self) -> (usize, usize) {
        let mut st = self.core.state.lock();
        let frames = std::mem::take(&mut st.deposed);
        let offered = frames.len();
        let mut rejected = 0;
        for bytes in &frames {
            match ReplEnvelope::decode(bytes) {
                Some(env) if env.epoch < st.epoch => {
                    self.core.stale_frames.inc();
                    rejected += 1;
                }
                Some(_) => {}
                None => {
                    self.core.corrupt_frames.inc();
                    rejected += 1;
                }
            }
        }
        (offered, rejected)
    }

    /// Re-admit the healed deposed node as the new warm standby: wipe it
    /// with a resync preamble (snapshot, or reset when the primary has
    /// none) plus the primary's current WAL, all shipped at the current
    /// epoch through the normal link + apply path.
    pub fn rejoin_as_standby(&self) -> bool {
        let (_syncing, mut st) = self.core.settled();
        if st.standby.is_some() {
            return false;
        }
        let Some(healed) = st.deposed_backend.take() else {
            return false;
        };
        st.deposed.clear();
        let Ok(snapshot) = st.primary.read_snapshot() else {
            st.deposed_backend = Some(healed);
            return false;
        };
        let Ok(wal) = st.primary.read_wal() else {
            st.deposed_backend = Some(healed);
            return false;
        };
        self.core.link.clear();
        let base_seq = st.next_seq - 1;
        self.core.link.set_acked(base_seq);
        st.standby = Some(StandbyNode::new(healed, st.epoch, base_seq));
        match snapshot {
            Some(bytes) => self.core.ship_locked(&mut st, ReplFrame::Snapshot(bytes)),
            None => self.core.ship_locked(&mut st, ReplFrame::Reset),
        }
        if !wal.is_empty() {
            self.core.ship_locked(&mut st, ReplFrame::Wal(wal));
        }
        self.core.pump_locked(&mut st);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::wal::{decode_stream, WalTail};
    use crate::durability::{MemoryBackend, WalRecord};
    use hpcmfa_otp::clock::SimClock;

    fn rec(user: &str) -> WalRecord {
        WalRecord::Remove { user: user.into() }
    }

    fn env(epoch: u64, seq: u64, frame: ReplFrame) -> ReplEnvelope {
        ReplEnvelope { epoch, seq, frame }
    }

    #[test]
    fn envelope_round_trips() {
        for e in [
            env(1, 1, ReplFrame::Wal(rec("a").encode_frame())),
            env(3, 9, ReplFrame::Snapshot(vec![1, 2, 3])),
            env(2, 5, ReplFrame::Heartbeat),
            env(7, 11, ReplFrame::Reset),
        ] {
            assert_eq!(ReplEnvelope::decode(&e.encode()), Some(e));
        }
    }

    #[test]
    fn truncated_or_extended_envelope_rejected() {
        let bytes = env(1, 1, ReplFrame::Wal(rec("a").encode_frame())).encode();
        for cut in 0..bytes.len() {
            assert_eq!(ReplEnvelope::decode(&bytes[..cut]), None, "cut={cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(ReplEnvelope::decode(&longer), None);
    }

    #[test]
    fn any_single_bit_flip_rejected() {
        let bytes = env(4, 17, ReplFrame::Wal(rec("flip").encode_frame())).encode();
        for bit in 0..bytes.len() * 8 {
            let mut dirty = bytes.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(ReplEnvelope::decode(&dirty), None, "bit={bit}");
        }
    }

    #[test]
    fn standby_applies_in_order_and_buffers_reorder() {
        let backend = MemoryBackend::healthy();
        let mut standby = StandbyNode::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 1, 0);
        let f1 = env(1, 1, ReplFrame::Wal(rec("a").encode_frame())).encode();
        let f2 = env(1, 2, ReplFrame::Wal(rec("b").encode_frame())).encode();
        let f3 = env(1, 3, ReplFrame::Wal(rec("c").encode_frame())).encode();
        assert_eq!(standby.offer(&f3), ApplyResult::Buffered);
        assert_eq!(standby.offer(&f1), ApplyResult::Applied);
        assert_eq!(standby.applied_seq(), 1);
        assert_eq!(standby.offer(&f2), ApplyResult::Applied);
        assert_eq!(standby.applied_seq(), 3, "buffered frame cascades");
        assert_eq!(standby.offer(&f2), ApplyResult::Duplicate);
        let (records, tail) = decode_stream(&backend.durable_wal());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, vec![rec("a"), rec("b"), rec("c")]);
    }

    #[test]
    fn standby_fences_stale_epoch_without_touching_storage() {
        let backend = MemoryBackend::healthy();
        let mut standby = StandbyNode::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 3, 5);
        let stale = env(2, 6, ReplFrame::Wal(rec("evil").encode_frame())).encode();
        assert_eq!(standby.offer(&stale), ApplyResult::StaleEpoch);
        assert_eq!(standby.applied_seq(), 5);
        assert!(backend.durable_wal().is_empty());
        // A higher epoch is adopted.
        let newer = env(4, 6, ReplFrame::Wal(rec("ok").encode_frame())).encode();
        assert_eq!(standby.offer(&newer), ApplyResult::Applied);
        assert_eq!(standby.epoch, 4);
    }

    #[test]
    fn link_faults_drop_reorder_partition_lag() {
        let plan = LinkFaultPlan::healthy();
        let link = MemoryLink::new(Arc::clone(&plan));
        // Drop cadence.
        plan.set_drop_every(2);
        link.offer(vec![1]);
        link.offer(vec![2]); // dropped
        link.offer(vec![3]);
        assert_eq!(link.deliver(), vec![vec![1], vec![3]]);
        plan.set_drop_every(0);
        // Reorder swaps a frame ahead of its predecessor.
        plan.set_reorder_every(2);
        link.offer(vec![4]);
        link.offer(vec![5]); // reorder hit: lands before 4
        assert_eq!(link.deliver(), vec![vec![5], vec![4]]);
        plan.set_reorder_every(0);
        // Partition loses offers and delivers nothing.
        plan.set_partitioned(true);
        link.offer(vec![6]);
        assert!(link.deliver().is_empty());
        plan.set_partitioned(false);
        assert!(link.deliver().is_empty(), "partitioned offers were lost");
        // Lag holds back the newest frames.
        plan.set_lag_frames(1);
        link.offer(vec![7]);
        link.offer(vec![8]);
        assert_eq!(link.deliver(), vec![vec![7]]);
        plan.set_lag_frames(0);
        assert_eq!(link.deliver(), vec![vec![8]]);
    }

    fn cluster(
        mode: ReplicationMode,
    ) -> (
        Arc<OtpCluster>,
        Arc<ClusterBackend>,
        Arc<MemoryBackend>,
        Arc<MemoryBackend>,
    ) {
        let primary = MemoryBackend::healthy();
        let standby = MemoryBackend::healthy();
        let (cluster, backend) = OtpCluster::new(
            Arc::clone(&primary) as Arc<dyn StorageBackend>,
            Arc::clone(&standby) as Arc<dyn StorageBackend>,
            mode,
            Arc::new(SimClock::at(1_475_000_000)),
            Arc::new(MetricsRegistry::new()),
            BreakerConfig::default(),
            LinkFaultPlan::healthy(),
        );
        (cluster, backend, primary, standby)
    }

    fn durable_append(backend: &ClusterBackend, record: &WalRecord) -> Result<(), StorageError> {
        backend.append_wal(&record.encode_frame())?;
        backend.sync_wal()
    }

    #[test]
    fn synced_batches_reach_the_standby() {
        let (cluster, backend, primary, standby) = cluster(ReplicationMode::Sync);
        durable_append(&backend, &rec("a")).unwrap();
        durable_append(&backend, &rec("b")).unwrap();
        assert_eq!(standby.durable_wal(), primary.durable_wal());
        assert_eq!(cluster.replication_lag(), 0);
    }

    #[test]
    fn sync_mode_partition_fails_the_sync_and_heals_by_retransmission() {
        let (cluster, backend, primary, standby) = cluster(ReplicationMode::Sync);
        durable_append(&backend, &rec("a")).unwrap();
        cluster.link_plan().set_partitioned(true);
        assert_eq!(
            durable_append(&backend, &rec("b")),
            Err(StorageError::FsyncFailed),
            "unacked batch must fail a sync-mode sync"
        );
        // Locally durable all along; just not cluster-durable.
        assert!(primary.durable_wal().len() > standby.durable_wal().len());
        cluster.link_plan().set_partitioned(false);
        cluster.pump(); // retransmit window
        cluster.pump(); // deliver it
        assert_eq!(standby.durable_wal(), primary.durable_wal());
        assert_eq!(cluster.replication_lag(), 0);
    }

    #[test]
    fn async_mode_tolerates_lag() {
        let (cluster, backend, primary, standby) = cluster(ReplicationMode::Async);
        cluster.link_plan().set_lag_frames(10);
        durable_append(&backend, &rec("a")).unwrap();
        assert!(standby.durable_wal().is_empty(), "standby lags");
        assert_eq!(cluster.replication_lag(), 1);
        cluster.link_plan().set_lag_frames(0);
        cluster.pump();
        assert_eq!(standby.durable_wal(), primary.durable_wal());
    }

    #[test]
    fn breaker_trip_promotes_and_fences_the_deposed_primary() {
        let (cluster, backend, primary, standby) = cluster(ReplicationMode::Sync);
        durable_append(&backend, &rec("before")).unwrap();
        // Partition first so a frame is left unacked (the deposed residue).
        cluster.link_plan().set_partitioned(true);
        let _ = durable_append(&backend, &rec("unacked"));
        // Then the primary's disk dies: inner errors trip the breaker.
        primary.set_down(true);
        for _ in 0..3 {
            let _ = durable_append(&backend, &rec("dead"));
        }
        assert!(
            cluster.maybe_failover(1_475_000_100),
            "breaker trip must schedule a promotion"
        );
        assert_eq!(cluster.failovers(), 1);
        assert_eq!(cluster.epoch(), 2);
        assert!(!cluster.has_standby());
        // The new primary serves reads: the acked prefix survived.
        let (records, _) = decode_stream(&backend.read_wal().unwrap());
        assert_eq!(records, vec![rec("before")]);
        // Writes now land on the old standby's storage.
        cluster.link_plan().set_partitioned(false);
        durable_append(&backend, &rec("after")).unwrap();
        assert!(standby
            .durable_wal()
            .ends_with(&rec("after").encode_frame()));
        // The deposed node's unacked frame is stale-fenced on reconnect.
        let (offered, rejected) = cluster.rejoin_deposed();
        assert_eq!(offered, 1);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn healed_deposed_node_rejoins_as_standby_and_converges() {
        let (cluster, backend, primary, standby) = cluster(ReplicationMode::Sync);
        durable_append(&backend, &rec("a")).unwrap();
        primary.set_down(true);
        for _ in 0..3 {
            let _ = durable_append(&backend, &rec("x"));
        }
        let _ = durable_append(&backend, &rec("x"));
        assert!(cluster.maybe_failover(1_475_000_200));
        primary.set_down(false);
        assert!(cluster.rejoin_as_standby());
        assert!(cluster.has_standby());
        // The healed node was resynced to the new primary's state...
        assert_eq!(primary.durable_wal(), standby.durable_wal());
        // ...and follows new writes again.
        durable_append(&backend, &rec("b")).unwrap();
        assert_eq!(primary.durable_wal(), standby.durable_wal());
        assert_eq!(cluster.epoch(), 2);
    }

    #[test]
    fn no_standby_means_no_promotion() {
        let (cluster, backend, primary, _standby) = cluster(ReplicationMode::Sync);
        primary.set_down(true);
        for _ in 0..4 {
            let _ = durable_append(&backend, &rec("x"));
        }
        assert!(cluster.maybe_failover(1)); // first promotion consumes the standby
        primary.set_down(false);
        // Kill the new primary too: no standby left, must stay degraded.
        let st_backend = {
            let st = cluster.core.state.lock();
            Arc::clone(&st.primary)
        };
        drop(st_backend);
        cluster.core.promotion_due.store(true, Ordering::SeqCst);
        assert!(!cluster.maybe_failover(2));
        assert_eq!(cluster.failovers(), 1);
    }

    #[test]
    fn snapshot_compaction_is_mirrored() {
        let (_cluster, backend, primary, standby) = cluster(ReplicationMode::Sync);
        durable_append(&backend, &rec("a")).unwrap();
        backend.write_snapshot(b"snap-v1").unwrap();
        backend.reset_wal().unwrap();
        durable_append(&backend, &rec("b")).unwrap();
        assert_eq!(standby.durable_snapshot().as_deref(), Some(&b"snap-v1"[..]));
        assert_eq!(standby.durable_wal(), primary.durable_wal());
    }
}
