//! When compaction comes due: once the WAL holds at least
//! `snapshot_every_appends` records **and** an eighth of the last
//! snapshot's bytes. So a compaction writes at most eight snapshot bytes
//! for each WAL byte it retires, whatever the population or audit ring,
//! and `snapshot_every_appends: 0` still means never.
//!
//! A counting [`StorageBackend`] decorator watches every WAL append,
//! reset and snapshot write, so the bound is checked at each compaction
//! and over the run, across a recovery too.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig};
use hpcmfa_otpserver::sms::TwilioSim;
use hpcmfa_otpserver::{MemoryBackend, StorageBackend, StorageError, ValidationOutcome};
use std::sync::{Arc, Mutex};

const T0: u64 = 1_700_000_000;
const USERS: usize = 300;
const AUDIT_CAP: usize = 3_000;
/// The most snapshot bytes a compaction may write per WAL byte it retires.
const SNAPSHOT_PER_WAL_BYTES: u64 = 8;

/// What the decorator saw.
#[derive(Default, Debug)]
struct Tally {
    /// WAL bytes appended over the run.
    wal_bytes: u64,
    /// WAL bytes appended since the last reset (or in the WAL at open).
    since_reset: u64,
    /// Snapshot bytes written over the run.
    snapshot_bytes: u64,
    /// Length of every snapshot written, in order.
    snapshots: Vec<u64>,
    /// Length of the snapshot in place (written or found at open).
    last_snapshot: u64,
    /// A snapshot written before the WAL earned it: (WAL bytes since the
    /// reset, the snapshot before it).
    early: Vec<(u64, u64)>,
}

/// [`MemoryBackend`] behind a tally of its WAL and snapshot bytes.
struct Counting {
    inner: Arc<MemoryBackend>,
    tally: Mutex<Tally>,
}

impl Counting {
    /// Count from what `inner` already holds: a recovered server's first
    /// compaction is held to the snapshot it recovered.
    fn over(inner: Arc<MemoryBackend>) -> Arc<Self> {
        let tally = Tally {
            since_reset: inner.wal_len(),
            last_snapshot: inner.durable_snapshot().map_or(0, |s| s.len() as u64),
            ..Tally::default()
        };
        Arc::new(Counting {
            inner,
            tally: Mutex::new(tally),
        })
    }

    fn tally<T>(&self, f: impl FnOnce(&Tally) -> T) -> T {
        f(&self.tally.lock().unwrap())
    }
}

impl StorageBackend for Counting {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        self.inner.append_wal(frame)?;
        let mut t = self.tally.lock().unwrap();
        t.wal_bytes += frame.len() as u64;
        t.since_reset += frame.len() as u64;
        Ok(())
    }
    fn sync_wal(&self) -> Result<(), StorageError> {
        self.inner.sync_wal()
    }
    fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_wal()
    }
    fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate_wal(len)
    }
    fn reset_wal(&self) -> Result<(), StorageError> {
        self.inner.reset_wal()?;
        self.tally.lock().unwrap().since_reset = 0;
        Ok(())
    }
    fn wal_len(&self) -> u64 {
        self.inner.wal_len()
    }
    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_snapshot(bytes)?;
        let mut t = self.tally.lock().unwrap();
        let len = bytes.len() as u64;
        if t.since_reset * SNAPSHOT_PER_WAL_BYTES < t.last_snapshot {
            let early = (t.since_reset, t.last_snapshot);
            t.early.push(early);
        }
        t.snapshot_bytes += len;
        t.snapshots.push(len);
        t.last_snapshot = len;
        Ok(())
    }
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read_snapshot()
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

fn server_over(backend: &Arc<Counting>, floor: u64) -> Arc<LinotpServer> {
    let config = ServerConfig {
        audit_cap: AUDIT_CAP,
        snapshot_every_appends: floor,
        ..ServerConfig::default()
    };
    let backend = Arc::clone(backend) as Arc<dyn StorageBackend>;
    LinotpServer::with_storage(TwilioSim::new(3), 3, config, backend)
        .expect("durable server recovers at startup")
}

fn users() -> (Vec<String>, Vec<Totp>) {
    (0..USERS)
        .map(|i| {
            let mut secret = *b"compaction-trigger-0";
            secret[17..].copy_from_slice(format!("{i:03}").as_bytes());
            (format!("user{i:03}"), Totp::new(Secret::from_bytes(secret)))
        })
        .unzip()
}

fn enroll(server: &LinotpServer, names: &[String], totps: &[Totp]) {
    for (i, (name, totp)) in names.iter().zip(totps).enumerate() {
        server.enroll_hard(name, &format!("FOB-{i:04}"), totp.secret.clone(), T0);
    }
}

/// Every user logs in once a round, rounds `rounds` apart by 30 s. Between
/// two compactions the run sees, at least `floor` WAL records were made
/// durable.
fn log_in(
    server: &LinotpServer,
    names: &[String],
    totps: &[Totp],
    rounds: std::ops::Range<u64>,
    floor: u64,
) {
    let counters = || server.durability_counters().expect("a durable server");
    let mut last = counters();
    let mut compacted = false;
    for round in rounds {
        let now = T0 + 30 * round;
        for (name, totp) in names.iter().zip(totps) {
            let outcome = server.validate(name, &totp.code_at(now), now);
            assert_eq!(outcome, ValidationOutcome::Success, "{name} round {round}");
            let c = counters();
            if c.snapshots > last.snapshots {
                let records = c.appends - last.appends;
                assert!(
                    !compacted || records >= floor,
                    "compacted after {records} records, under the floor of {floor}"
                );
                (last, compacted) = (c, true);
            }
        }
    }
}

/// The bound over the run: each snapshot was paid for by WAL bytes worth
/// an eighth of the one before it, so every snapshot but the last (which
/// the WAL after the run would pay for) costs at most eight times the WAL.
fn assert_amortised(t: &Tally) {
    assert!(
        t.early.is_empty(),
        "snapshots the WAL had not earned: {:?}",
        t.early
    );
    let last = t.snapshots.last().copied().unwrap_or(0);
    assert!(
        t.snapshot_bytes - last <= SNAPSHOT_PER_WAL_BYTES * t.wal_bytes,
        "{} snapshot bytes for {} WAL bytes",
        t.snapshot_bytes,
        t.wal_bytes
    );
}

#[test]
fn compaction_waits_for_an_eighth_of_the_snapshot_in_wal_bytes() {
    let backend = Counting::over(MemoryBackend::healthy());
    let server = server_over(&backend, 8);
    let (names, totps) = users();
    enroll(&server, &names, &totps);
    log_in(&server, &names, &totps, 1..21, 8);

    backend.tally(|t| {
        assert_amortised(t);
        // 6 000 logins over a snapshot of ≈ 100 KB: the bytes, not the
        // floor of 8 records, decide, yet compaction still runs.
        assert!(t.snapshots.len() >= 5, "{} snapshots", t.snapshots.len());
        assert!(t.snapshots.len() < 100, "{} snapshots", t.snapshots.len());
        let last = *t.snapshots.last().unwrap();
        assert!(last > 50_000, "a ring of {AUDIT_CAP} rows: {last} bytes");
        // What a recovery would replay stays under an eighth of the
        // snapshot, plus the last login's commit (under 256 bytes).
        assert!(t.since_reset * SNAPSHOT_PER_WAL_BYTES < last + SNAPSHOT_PER_WAL_BYTES * 256);
    });
}

#[test]
fn a_floor_above_an_eighth_of_the_snapshot_still_governs() {
    // ≈ 34 WAL bytes a record: 3 000 records are ≈ 100 KB, well over an
    // eighth of the snapshot.
    const FLOOR: u64 = 3_000;
    let backend = Counting::over(MemoryBackend::healthy());
    let server = server_over(&backend, FLOOR);
    let (names, totps) = users();
    enroll(&server, &names, &totps);
    log_in(&server, &names, &totps, 1..21, FLOOR);

    backend.tally(|t| {
        assert_amortised(t);
        // 12 000 records and the enrolments' 600: four compactions.
        assert_eq!(t.snapshots.len(), 4, "{:?}", t.snapshots);
    });
}

#[test]
fn a_zero_floor_never_compacts() {
    let backend = Counting::over(MemoryBackend::healthy());
    let server = server_over(&backend, 0);
    let (names, totps) = users();
    enroll(&server, &names, &totps);
    log_in(&server, &names, &totps, 1..6, 0);

    backend.tally(|t| assert!(t.snapshots.is_empty(), "{:?}", t.snapshots));
    assert_eq!(server.durability_counters().unwrap().snapshots, 0);
}

#[test]
fn a_recovered_server_waits_for_an_eighth_of_its_snapshot() {
    let memory = MemoryBackend::healthy();
    let (names, totps) = users();
    let backend = Counting::over(Arc::clone(&memory));
    let server = server_over(&backend, 8);
    enroll(&server, &names, &totps);
    // Log in until a compaction leaves the WAL empty.
    let mut round = 0;
    while server.durability_counters().unwrap().snapshots == 0 || memory.wal_len() > 0 {
        round += 1;
        let now = T0 + 30 * round;
        for (name, totp) in names.iter().zip(&totps) {
            server.validate(name, &totp.code_at(now), now);
            if memory.wal_len() == 0 {
                break;
            }
        }
    }
    drop(server);
    let recovered = memory.durable_snapshot().unwrap().len() as u64;

    // A restart that forgot the snapshot's length would compact again
    // after 8 records, ≈ 300 WAL bytes. This one waits for an eighth of
    // the snapshot it recovered.
    let backend = Counting::over(Arc::clone(&memory));
    let server = server_over(&backend, 8);
    log_in(&server, &names, &totps, round + 1..round + 11, 8);

    backend.tally(|t| {
        assert_amortised(t);
        assert!(!t.snapshots.is_empty(), "the restarted server compacted");
        assert!(t.wal_bytes * SNAPSHOT_PER_WAL_BYTES >= recovered);
    });
}
