//! Storage backends: a real file-backed implementation and a
//! deterministic in-memory fault-injecting one.
//!
//! The file backend is what a production deployment would run on the OTP
//! server host: an append-only WAL, size-rotated into `wal.<seq>.log`
//! segments, plus an atomically-replaced `snapshot.bin` in one directory.
//! The memory backend is the test substrate: identical semantics, plus a
//! seeded [`StorageFaultPlan`] injecting the failure modes disks actually
//! exhibit — short writes, fsync failures, read corruption and torn crash
//! tails — in the same cadence-counter style as the RADIUS transport's
//! `FaultPlan`, and a [`MemoryBackend::set_down`] switch that models a
//! dead primary node for the replication layer.

use super::{StorageBackend, StorageError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------

/// Base WAL file name inside the storage directory (segment 0; later
/// segments are `wal.<seq>.log`).
pub const WAL_FILE: &str = "wal.log";

/// Snapshot file name inside the storage directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Default segment-rotation threshold: an active segment at or past this
/// size is sealed before the next append.
pub const DEFAULT_ROTATE_BYTES: u64 = 1 << 20;

#[derive(Clone)]
struct Segment {
    seq: u64,
    path: PathBuf,
    /// Length of the known-good prefix: bytes successfully written (a
    /// failed append truncates back to this, so a detected short write
    /// never poisons the stream).
    len: u64,
}

struct WalState {
    /// Sealed (rotated-out) segments, ascending by sequence. Synced at
    /// seal time; deleted when snapshot compaction resets the WAL.
    sealed: Vec<Segment>,
    active: Segment,
    /// Open append handle on the active segment, shared so that a sync
    /// can go on outside the lock.
    file: Arc<File>,
}

impl WalState {
    fn total_len(&self) -> u64 {
        self.sealed.iter().map(|s| s.len).sum::<u64>() + self.active.len
    }
}

/// Durable storage in a directory: segmented `wal.log` / `wal.<seq>.log`
/// files plus `snapshot.bin`.
pub struct FileBackend {
    dir: PathBuf,
    rotate_bytes: u64,
    wal: Mutex<WalState>,
    /// Called by `sync_wal` between taking the handle and syncing it.
    #[cfg(test)]
    before_sync: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl FileBackend {
    /// Open (creating if needed) the storage directory with the default
    /// rotation threshold. Existing WAL segments are kept — recovery
    /// decides what in them is valid.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Arc<Self>> {
        Self::open_with_rotation(dir, DEFAULT_ROTATE_BYTES)
    }

    /// Open with an explicit rotation threshold (0 disables rotation).
    /// A leftover `snapshot.bin.tmp` from a crash mid-replace is removed;
    /// recovery never reads it.
    pub fn open_with_rotation(
        dir: impl AsRef<Path>,
        rotate_bytes: u64,
    ) -> std::io::Result<Arc<Self>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let _ = std::fs::remove_file(dir.join(format!("{SNAPSHOT_FILE}.tmp")));
        let mut segments: Vec<Segment> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let seq = if name == WAL_FILE {
                Some(0)
            } else {
                name.strip_prefix("wal.")
                    .and_then(|s| s.strip_suffix(".log"))
                    .and_then(|s| s.parse::<u64>().ok())
            };
            if let Some(seq) = seq {
                let len = entry.metadata()?.len();
                segments.push(Segment {
                    seq,
                    path: entry.path(),
                    len,
                });
            }
        }
        segments.sort_by_key(|s| s.seq);
        let active = match segments.pop() {
            Some(seg) => seg,
            None => Segment {
                seq: 0,
                path: dir.join(WAL_FILE),
                len: 0,
            },
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active.path)?;
        Ok(Arc::new(FileBackend {
            dir,
            rotate_bytes,
            wal: Mutex::new(WalState {
                sealed: segments,
                active,
                file: Arc::new(file),
            }),
            #[cfg(test)]
            before_sync: Mutex::new(None),
        }))
    }

    fn io<T>(r: std::io::Result<T>) -> Result<T, StorageError> {
        r.map_err(|e| StorageError::Io(e.to_string()))
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        if seq == 0 {
            self.dir.join(WAL_FILE)
        } else {
            self.dir.join(format!("wal.{seq}.log"))
        }
    }

    /// Fsync the storage directory itself, making renames, creates and
    /// deletes durable. Without this a crash after a metadata operation
    /// can roll it back — the snapshot-resurrection bug this PR fixes.
    fn sync_dir(&self) -> Result<(), StorageError> {
        let d = Self::io(File::open(&self.dir))?;
        d.sync_all().map_err(|_| StorageError::FsyncFailed)
    }

    /// Seal the active segment and start a new one. The sealed file is
    /// fsynced first so its contents are durable before any append lands
    /// in the successor; the directory is fsynced so the new file's
    /// existence is durable too.
    fn rotate_locked(&self, wal: &mut WalState) -> Result<(), StorageError> {
        wal.file
            .sync_data()
            .map_err(|_| StorageError::FsyncFailed)?;
        let next_seq = wal.active.seq + 1;
        let path = self.segment_path(next_seq);
        let file = Self::io(OpenOptions::new().create(true).append(true).open(&path))?;
        let sealed = std::mem::replace(
            &mut wal.active,
            Segment {
                seq: next_seq,
                path,
                len: 0,
            },
        );
        wal.file = Arc::new(file);
        wal.sealed.push(sealed);
        self.sync_dir()
    }
}

impl StorageBackend for FileBackend {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        let mut wal = self.wal.lock();
        if self.rotate_bytes > 0 && wal.active.len >= self.rotate_bytes {
            self.rotate_locked(&mut wal)?;
        }
        match (&*wal.file).write_all(frame) {
            Ok(()) => {
                wal.active.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Cut any partial bytes back off the stream.
                let good = wal.active.len;
                let _ = wal.file.set_len(good);
                Err(StorageError::Io(e.to_string()))
            }
        }
    }

    fn sync_wal(&self) -> Result<(), StorageError> {
        // Sealed segments were synced at rotation, so only the active one
        // can hold buffered bytes — and the handle taken here is the
        // active segment's as of now or later than every append this sync
        // must cover (the pump captures its `end` before calling). The
        // lock is let go before the sync: `append_wal` runs under the
        // pump's group lock, and must not wait out an fsync behind it.
        let file = Arc::clone(&self.wal.lock().file);
        #[cfg(test)]
        if let Some(hook) = self.before_sync.lock().as_ref() {
            hook();
        }
        file.sync_data().map_err(|_| StorageError::FsyncFailed)
    }

    fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        let wal = self.wal.lock();
        let mut out = Vec::new();
        for seg in wal.sealed.iter().chain(std::iter::once(&wal.active)) {
            out.extend_from_slice(&Self::io(std::fs::read(&seg.path))?);
        }
        Ok(out)
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
        let mut wal = self.wal.lock();
        let mut segments = std::mem::take(&mut wal.sealed);
        segments.push(wal.active.clone());
        let mut keep: Vec<Segment> = Vec::new();
        let mut remaining = len;
        let mut cutting = false;
        for seg in segments {
            if cutting {
                Self::io(std::fs::remove_file(&seg.path))?;
                continue;
            }
            if remaining >= seg.len {
                remaining -= seg.len;
                keep.push(seg);
                continue;
            }
            // The cut lands inside this segment; everything after it goes.
            let f = Self::io(OpenOptions::new().write(true).open(&seg.path))?;
            Self::io(f.set_len(remaining))?;
            f.sync_data().map_err(|_| StorageError::FsyncFailed)?;
            keep.push(Segment {
                len: remaining,
                ..seg
            });
            cutting = true;
        }
        // `segments` ends with the active one, and the loop keeps the first
        // segment whichever branch it takes (cutting starts after a keep).
        let active = keep.pop().expect("a WAL always has at least one segment");
        let file = Self::io(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&active.path),
        )?;
        wal.sealed = keep;
        wal.active = active;
        wal.file = Arc::new(file);
        self.sync_dir()
    }

    fn wal_len(&self) -> u64 {
        self.wal.lock().total_len()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        // Classic atomic replace: write sideways, fsync, rename, fsync
        // the directory. A crash at any point leaves either the old or
        // the new snapshot intact — the directory fsync is what makes the
        // rename itself durable; without it a crash right after the
        // rename can resurrect the *old* snapshot, silently rolling
        // recovery back past compacted WAL records.
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let mut f = Self::io(File::create(&tmp))?;
        Self::io(f.write_all(bytes))?;
        f.sync_data().map_err(|_| StorageError::FsyncFailed)?;
        drop(f);
        Self::io(std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE)))?;
        self.sync_dir()
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError::Io(e.to_string())),
        }
    }

    fn clear_snapshot(&self) -> Result<(), StorageError> {
        match std::fs::remove_file(self.dir.join(SNAPSHOT_FILE)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::Io(e.to_string())),
        }
    }

    fn name(&self) -> &'static str {
        "file"
    }
}

// ---------------------------------------------------------------------
// Fault-injecting memory backend
// ---------------------------------------------------------------------

/// Deterministic, seeded fault injection for [`MemoryBackend`].
///
/// Cadence knobs follow the transport `FaultPlan` contract: `1-in-n`
/// decisions come from `SeqCst` counter RMWs so concurrent writers each
/// take every decision exactly once; 0 disables a knob.
pub struct StorageFaultPlan {
    /// Every `n`th append persists only a seeded prefix and errors.
    pub short_write_every: AtomicU64,
    short_write_counter: AtomicU64,
    /// Every `n`th fsync fails (buffered bytes stay un-durable).
    pub fsync_fail_every: AtomicU64,
    fsync_counter: AtomicU64,
    /// Every `n`th WAL read has one seeded bit flipped.
    pub read_corrupt_every: AtomicU64,
    read_counter: AtomicU64,
    /// Corrupt the *snapshot* on its next read (one-shot).
    pub corrupt_next_snapshot_read: AtomicBool,
    rng: Mutex<StdRng>,
}

impl StorageFaultPlan {
    /// No faults; RNG still seeded for torn-crash prefix lengths.
    pub fn healthy() -> Arc<Self> {
        Self::seeded(0)
    }

    /// All knobs off, RNG seeded with `seed`.
    pub fn seeded(seed: u64) -> Arc<Self> {
        Arc::new(StorageFaultPlan {
            short_write_every: AtomicU64::new(0),
            short_write_counter: AtomicU64::new(0),
            fsync_fail_every: AtomicU64::new(0),
            fsync_counter: AtomicU64::new(0),
            read_corrupt_every: AtomicU64::new(0),
            read_counter: AtomicU64::new(0),
            corrupt_next_snapshot_read: AtomicBool::new(false),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        })
    }

    /// Short-write one append in every `n` (0 disables).
    pub fn set_short_write_every(&self, n: u64) {
        self.short_write_every.store(n, Ordering::SeqCst);
    }

    /// Fail one fsync in every `n` (0 disables).
    pub fn set_fsync_fail_every(&self, n: u64) {
        self.fsync_fail_every.store(n, Ordering::SeqCst);
    }

    /// Flip one bit in one WAL read in every `n` (0 disables).
    pub fn set_read_corrupt_every(&self, n: u64) {
        self.read_corrupt_every.store(n, Ordering::SeqCst);
    }

    fn cadence_hit(every: &AtomicU64, counter: &AtomicU64) -> bool {
        let n = every.load(Ordering::SeqCst);
        if n == 0 {
            return false;
        }
        let c = counter.fetch_add(1, Ordering::SeqCst) + 1;
        c.is_multiple_of(n)
    }

    fn short_write_hit(&self) -> bool {
        Self::cadence_hit(&self.short_write_every, &self.short_write_counter)
    }

    fn fsync_hit(&self) -> bool {
        Self::cadence_hit(&self.fsync_fail_every, &self.fsync_counter)
    }

    fn read_hit(&self) -> bool {
        Self::cadence_hit(&self.read_corrupt_every, &self.read_counter)
    }

    /// Seeded draw in `[0, n)`.
    fn draw(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        self.rng.lock().random_range(0..n)
    }
}

#[derive(Default)]
struct MemState {
    /// Bytes an fsync has made durable — what survives a crash.
    durable: Vec<u8>,
    /// Bytes appended but not yet synced.
    inflight: Vec<u8>,
    /// Where in `inflight` a short write's bytes begin, until the
    /// rollback: a sync makes only what comes before them durable, as a
    /// file backend cuts a short write off before anyone can sync it.
    torn_at: Option<usize>,
    snapshot: Option<Vec<u8>>,
}

/// Deterministic in-memory backend with injected faults. Crash semantics:
/// [`StorageBackend::simulate_crash`] drops in-flight bytes, keeping a
/// seeded prefix — the torn-tail shape a real crash leaves on disk.
pub struct MemoryBackend {
    state: Mutex<MemState>,
    plan: Arc<StorageFaultPlan>,
    /// Node down: every operation fails with [`StorageError::Crashed`]
    /// until the node is brought back up. Durable state is retained —
    /// this models a crashed-but-recoverable replica, not disk loss.
    down: AtomicBool,
}

impl MemoryBackend {
    /// Fault-free backend.
    pub fn healthy() -> Arc<Self> {
        Self::with_plan(StorageFaultPlan::healthy())
    }

    /// Backend driven by `plan`.
    pub fn with_plan(plan: Arc<StorageFaultPlan>) -> Arc<Self> {
        Arc::new(MemoryBackend {
            state: Mutex::new(MemState::default()),
            plan,
            down: AtomicBool::new(false),
        })
    }

    /// Backend pre-loaded with durable contents — the crash-point sweep
    /// reconstructs "what was on disk" prefixes through this.
    pub fn with_contents(wal: Vec<u8>, snapshot: Option<Vec<u8>>) -> Arc<Self> {
        Arc::new(MemoryBackend {
            state: Mutex::new(MemState {
                durable: wal,
                inflight: Vec::new(),
                torn_at: None,
                snapshot,
            }),
            plan: StorageFaultPlan::healthy(),
            down: AtomicBool::new(false),
        })
    }

    /// The fault plan.
    pub fn plan(&self) -> &Arc<StorageFaultPlan> {
        &self.plan
    }

    /// Take the node down (every operation fails) or bring it back up.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Whether the node is down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    fn up(&self) -> Result<(), StorageError> {
        if self.is_down() {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }

    /// The durable WAL bytes (test observability; no fault injection).
    pub fn durable_wal(&self) -> Vec<u8> {
        self.state.lock().durable.clone()
    }

    /// The durable snapshot bytes (test observability).
    pub fn durable_snapshot(&self) -> Option<Vec<u8>> {
        self.state.lock().snapshot.clone()
    }
}

impl StorageBackend for MemoryBackend {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        self.up()?;
        let mut st = self.state.lock();
        if self.plan.short_write_hit() {
            let keep = self.plan.draw(frame.len());
            st.torn_at = st.torn_at.or(Some(st.inflight.len()));
            st.inflight.extend_from_slice(&frame[..keep]);
            return Err(StorageError::ShortWrite {
                wrote: keep,
                of: frame.len(),
            });
        }
        st.inflight.extend_from_slice(frame);
        Ok(())
    }

    fn sync_wal(&self) -> Result<(), StorageError> {
        self.up()?;
        let mut st = self.state.lock();
        if self.plan.fsync_hit() {
            // Like a real failed fsync, the fate of the buffered bytes is
            // unknown to the caller; this model keeps them buffered.
            return Err(StorageError::FsyncFailed);
        }
        // Everything before a short write's tear becomes durable; the torn
        // bytes stay in flight, at its front. `inflight` keeps its buffer.
        let st = &mut *st;
        let good = st.torn_at.unwrap_or(st.inflight.len());
        st.durable.extend_from_slice(&st.inflight[..good]);
        st.inflight.drain(..good);
        st.torn_at = st.torn_at.map(|_| 0);
        Ok(())
    }

    fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        self.up()?;
        let st = self.state.lock();
        let mut bytes = st.durable.clone();
        if !bytes.is_empty() && self.plan.read_hit() {
            let bit = self.plan.draw(bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(bytes)
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
        self.up()?;
        let mut st = self.state.lock();
        st.durable.truncate(len as usize);
        st.inflight.clear();
        st.torn_at = None;
        Ok(())
    }

    fn wal_len(&self) -> u64 {
        if self.is_down() {
            return 0;
        }
        self.state.lock().durable.len() as u64
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        self.up()?;
        self.state.lock().snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.up()?;
        let st = self.state.lock();
        let mut snap = st.snapshot.clone();
        if let Some(bytes) = snap.as_mut() {
            if !bytes.is_empty()
                && self
                    .plan
                    .corrupt_next_snapshot_read
                    .swap(false, Ordering::SeqCst)
            {
                let bit = self.plan.draw(bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Ok(snap)
    }

    fn clear_snapshot(&self) -> Result<(), StorageError> {
        self.up()?;
        self.state.lock().snapshot = None;
        Ok(())
    }

    fn rollback_inflight(&self) {
        let mut st = self.state.lock();
        st.inflight.clear();
        st.torn_at = None;
    }

    fn simulate_crash(&self) {
        let mut st = self.state.lock();
        st.torn_at = None;
        let inflight = std::mem::take(&mut st.inflight);
        if !inflight.is_empty() {
            // A crash may tear the in-flight frame: a seeded prefix
            // (possibly empty, possibly all of it) reached the platter.
            let keep = self.plan.draw(inflight.len() + 1);
            st.durable.extend_from_slice(&inflight[..keep]);
        }
    }

    fn name(&self) -> &'static str {
        "memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::wal::{decode_stream, WalRecord, WalTail};

    fn rec(user: &str) -> WalRecord {
        WalRecord::Remove { user: user.into() }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcmfa-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wal_segment_count(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name == WAL_FILE || (name.starts_with("wal.") && name.ends_with(".log"))
            })
            .count()
    }

    #[test]
    fn memory_append_sync_read_round_trip() {
        let b = MemoryBackend::healthy();
        b.append_wal(&rec("a").encode_frame()).unwrap();
        assert_eq!(b.wal_len(), 0, "unsynced bytes are not durable");
        b.sync_wal().unwrap();
        b.append_wal(&rec("b").encode_frame()).unwrap();
        b.sync_wal().unwrap();
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, vec![rec("a"), rec("b")]);
    }

    #[test]
    fn crash_drops_unsynced_bytes() {
        let b = MemoryBackend::healthy();
        b.append_wal(&rec("a").encode_frame()).unwrap();
        b.sync_wal().unwrap();
        b.append_wal(&rec("b").encode_frame()).unwrap();
        b.simulate_crash();
        let wal = b.read_wal().unwrap();
        let (records, tail) = decode_stream(&wal);
        // Only the synced record fully survives; the in-flight one is at
        // most a torn tail.
        assert_eq!(records, vec![rec("a")]);
        assert!(matches!(tail, WalTail::Clean | WalTail::Torn { .. }));
    }

    #[test]
    fn short_write_fault_reports_and_rollback_cleans() {
        let plan = StorageFaultPlan::seeded(3);
        plan.set_short_write_every(1);
        let b = MemoryBackend::with_plan(plan);
        let frame = rec("a").encode_frame();
        let err = b.append_wal(&frame).unwrap_err();
        assert!(matches!(err, StorageError::ShortWrite { .. }));
        b.rollback_inflight();
        b.sync_wal().unwrap();
        assert_eq!(b.wal_len(), 0);
    }

    #[test]
    fn a_sync_before_the_rollback_keeps_a_short_write_off_the_disk() {
        let b = MemoryBackend::with_plan(StorageFaultPlan::seeded(3));
        let (good, torn) = (rec("a").encode_frame(), rec("b").encode_frame());
        b.append_wal(&good).unwrap();
        b.plan().set_short_write_every(1);
        b.append_wal(&torn).unwrap_err();
        // A sync another thread was running gets in before the rollback.
        b.sync_wal().unwrap();
        b.rollback_inflight();
        b.plan().set_short_write_every(0);
        b.append_wal(&good).unwrap();
        b.sync_wal().unwrap();
        assert_eq!(b.durable_wal(), [&good[..], &good[..]].concat());
    }

    #[test]
    fn fsync_fault_keeps_bytes_buffered() {
        let plan = StorageFaultPlan::seeded(3);
        plan.set_fsync_fail_every(1);
        let b = MemoryBackend::with_plan(plan);
        b.append_wal(&rec("a").encode_frame()).unwrap();
        assert_eq!(b.sync_wal().unwrap_err(), StorageError::FsyncFailed);
        assert_eq!(b.wal_len(), 0);
        // Clear the fault: the buffered bytes flush on the next sync.
        b.plan().set_fsync_fail_every(0);
        b.sync_wal().unwrap();
        assert!(b.wal_len() > 0);
    }

    #[test]
    fn read_corruption_flips_exactly_one_bit() {
        let plan = StorageFaultPlan::seeded(9);
        let b = MemoryBackend::with_plan(plan);
        b.append_wal(&rec("abcdef").encode_frame()).unwrap();
        b.sync_wal().unwrap();
        let clean = b.read_wal().unwrap();
        b.plan().set_read_corrupt_every(1);
        let dirty = b.read_wal().unwrap();
        let diff: u32 = clean
            .iter()
            .zip(&dirty)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn down_node_fails_everything_but_retains_state() {
        let b = MemoryBackend::healthy();
        b.append_wal(&rec("a").encode_frame()).unwrap();
        b.sync_wal().unwrap();
        b.set_down(true);
        assert_eq!(
            b.append_wal(&rec("b").encode_frame()),
            Err(StorageError::Crashed)
        );
        assert_eq!(b.sync_wal(), Err(StorageError::Crashed));
        assert_eq!(b.read_wal(), Err(StorageError::Crashed));
        assert_eq!(b.read_snapshot(), Err(StorageError::Crashed));
        assert_eq!(b.wal_len(), 0);
        b.set_down(false);
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, vec![rec("a")], "durable state survived the outage");
    }

    #[test]
    fn memory_clear_snapshot_removes_it() {
        let b = MemoryBackend::healthy();
        b.write_snapshot(b"snap").unwrap();
        b.clear_snapshot().unwrap();
        assert_eq!(b.read_snapshot().unwrap(), None);
    }

    #[test]
    fn file_backend_round_trip_and_truncate() {
        let dir = temp_dir("durability-test");
        let b = FileBackend::open(&dir).unwrap();
        let f1 = rec("a").encode_frame();
        let f2 = rec("b").encode_frame();
        b.append_wal(&f1).unwrap();
        b.append_wal(&f2).unwrap();
        b.sync_wal().unwrap();
        assert_eq!(b.wal_len(), (f1.len() + f2.len()) as u64);
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 2);

        // Truncation drops the second record.
        b.truncate_wal(f1.len() as u64).unwrap();
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, vec![rec("a")]);

        // Snapshot replace + reopen persistence.
        b.write_snapshot(b"snap-v1").unwrap();
        assert_eq!(b.read_snapshot().unwrap().as_deref(), Some(&b"snap-v1"[..]));
        drop(b);
        let reopened = FileBackend::open(&dir).unwrap();
        assert_eq!(reopened.wal_len(), f1.len() as u64);
        assert_eq!(
            reopened.read_snapshot().unwrap().as_deref(),
            Some(&b"snap-v1"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_appends_while_a_sync_is_in_progress() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let dir = temp_dir("durability-sync-unlocked");
        let b = FileBackend::open(&dir).unwrap();
        b.append_wal(&rec("a").encode_frame()).unwrap();
        // The sync parks between taking its handle and `sync_data`: where
        // a real disk keeps it for a whole fsync.
        let (parked_tx, parked) = channel();
        let (release, release_rx) = channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        *b.before_sync.lock() = Some(Box::new(move || {
            parked_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
        }));
        std::thread::scope(|scope| {
            let syncer = scope.spawn(|| b.sync_wal());
            parked
                .recv_timeout(Duration::from_secs(5))
                .expect("the sync reached its hook");
            let (done_tx, done) = channel();
            let b = &b;
            scope.spawn(move || {
                done_tx
                    .send(b.append_wal(&rec("b").encode_frame()))
                    .unwrap()
            });
            let appended = done.recv_timeout(Duration::from_secs(5));
            release.send(()).unwrap();
            appended
                .expect("an append must not wait for the sync in progress")
                .unwrap();
            syncer.join().unwrap().unwrap();
        });
        *b.before_sync.lock() = None;
        b.sync_wal().unwrap();
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, vec![rec("a"), rec("b")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_missing_snapshot_is_none() {
        let dir = temp_dir("durability-nosnap");
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_snapshot().unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_cleans_stale_snapshot_tmp_on_open() {
        let dir = temp_dir("durability-staletmp");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash between the tmp write and the rename leaves this file;
        // it must never be read as a snapshot, and reopening clears it.
        std::fs::write(dir.join(format!("{SNAPSHOT_FILE}.tmp")), b"half-written").unwrap();
        let b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read_snapshot().unwrap(), None);
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_clear_snapshot_is_idempotent() {
        let dir = temp_dir("durability-clearsnap");
        let b = FileBackend::open(&dir).unwrap();
        b.clear_snapshot().unwrap();
        b.write_snapshot(b"snap").unwrap();
        b.clear_snapshot().unwrap();
        assert_eq!(b.read_snapshot().unwrap(), None);
        b.clear_snapshot().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_replays_in_order() {
        let dir = temp_dir("durability-rotate");
        let b = FileBackend::open_with_rotation(&dir, 32).unwrap();
        let mut expect = Vec::new();
        for i in 0..12 {
            let r = rec(&format!("user{i:02}"));
            b.append_wal(&r.encode_frame()).unwrap();
            b.sync_wal().unwrap();
            expect.push(r);
        }
        assert!(
            wal_segment_count(&dir) > 1,
            "a 32-byte threshold must have rotated"
        );
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, expect, "replay order is stable across segments");
        let total = b.wal_len();
        drop(b);
        // Reopen: same bytes, same order, appends continue on the newest
        // segment.
        let reopened = FileBackend::open_with_rotation(&dir, 32).unwrap();
        assert_eq!(reopened.wal_len(), total);
        let (records, tail) = decode_stream(&reopened.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, expect);
        reopened.append_wal(&rec("more").encode_frame()).unwrap();
        reopened.sync_wal().unwrap();
        let (records, _) = decode_stream(&reopened.read_wal().unwrap());
        assert_eq!(records.len(), 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_across_segments_deletes_later_files() {
        let dir = temp_dir("durability-segtrunc");
        let b = FileBackend::open_with_rotation(&dir, 32).unwrap();
        let frames: Vec<Vec<u8>> = (0..10)
            .map(|i| rec(&format!("user{i:02}")).encode_frame())
            .collect();
        for f in &frames {
            b.append_wal(f).unwrap();
            b.sync_wal().unwrap();
        }
        let before = wal_segment_count(&dir);
        assert!(before > 1);
        // Keep only the first three frames — the cut lands in an early
        // segment and every later segment file must disappear.
        let keep: u64 = frames[..3].iter().map(|f| f.len() as u64).sum();
        b.truncate_wal(keep).unwrap();
        assert!(wal_segment_count(&dir) < before);
        assert_eq!(b.wal_len(), keep);
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 3);
        // The stream keeps accepting appends after the cut.
        b.append_wal(&rec("next").encode_frame()).unwrap();
        b.sync_wal().unwrap();
        let (records, tail) = decode_stream(&b.read_wal().unwrap());
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_after_compaction_deletes_sealed_segments() {
        let dir = temp_dir("durability-segreset");
        let b = FileBackend::open_with_rotation(&dir, 32).unwrap();
        for i in 0..10 {
            b.append_wal(&rec(&format!("user{i:02}")).encode_frame())
                .unwrap();
            b.sync_wal().unwrap();
        }
        assert!(wal_segment_count(&dir) > 1);
        b.write_snapshot(b"compacted").unwrap();
        b.reset_wal().unwrap();
        assert_eq!(
            wal_segment_count(&dir),
            1,
            "compaction must delete sealed segments"
        );
        assert_eq!(b.wal_len(), 0);
        assert_eq!(
            b.read_snapshot().unwrap().as_deref(),
            Some(&b"compacted"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
