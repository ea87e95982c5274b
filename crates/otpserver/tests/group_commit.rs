//! The durable commit path under concurrency: group commit and the
//! compactor fence.
//!
//! 1. **Groups form and lose nothing.** Threads validating at once share
//!    syncs (`fsyncs < commits`), every acknowledged operation is in the
//!    durable bytes after a crash, and the outcomes equal a serial replay
//!    of each user's operations in the order they ran.
//! 2. **A failed sync denies its whole group.** Every member is answered
//!    `Unavailable`, nothing is acknowledged, and the failure counter
//!    counts syncs, not members.
//! 3. **Compaction cannot erase an acknowledged record.** A validate that
//!    races a compaction parked inside `write_snapshot` is refused as a
//!    replay after crash + recovery, and its audit row survives.
//!
//! The interleavings are forced by a hooked backend, not by sleeping: the
//! first sync of a storm is held until every thread has appended, and the
//! snapshot write parks on a channel.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::audit::AuditAction;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig};
use hpcmfa_otpserver::sms::TwilioSim;
use hpcmfa_otpserver::store::shard_of_name;
use hpcmfa_otpserver::{
    MemoryBackend, StorageBackend, StorageError, StorageFaultPlan, ValidationOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const THREADS: usize = 4;
const T0: u64 = 1_700_000_000;

/// [`MemoryBackend`] behind two hooks: a sync can be held until a given
/// number of commits have been appended, and a snapshot write can park.
struct Hooked {
    inner: Arc<MemoryBackend>,
    appends: Mutex<u64>,
    appended: Condvar,
    syncs: AtomicU64,
    /// The next sync waits until this many commits have been appended in
    /// total (0 = syncs run straight through).
    hold_sync_until: AtomicU64,
    /// Armed: the next snapshot write reports in and waits for release.
    park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Hooked {
    fn over(inner: Arc<MemoryBackend>) -> Arc<Self> {
        Arc::new(Hooked {
            inner,
            appends: Mutex::new(0),
            appended: Condvar::new(),
            syncs: AtomicU64::new(0),
            hold_sync_until: AtomicU64::new(0),
            park: Mutex::new(None),
        })
    }

    fn appends(&self) -> u64 {
        *self.appends.lock().unwrap()
    }

    fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Hold the next sync until `more` further commits have been appended.
    fn hold_next_sync_for(&self, more: u64) {
        self.hold_sync_until
            .store(self.appends() + more, Ordering::SeqCst);
    }

    /// Park the next snapshot write: returns the channel it reports in on
    /// and the one that releases it.
    fn park_next_snapshot(&self) -> (Receiver<()>, Sender<()>) {
        let (parked_tx, parked_rx) = channel();
        let (release_tx, release_rx) = channel();
        *self.park.lock().unwrap() = Some((parked_tx, release_rx));
        (parked_rx, release_tx)
    }
}

impl StorageBackend for Hooked {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        self.inner.append_wal(frame)?;
        *self.appends.lock().unwrap() += 1;
        self.appended.notify_all();
        Ok(())
    }

    fn sync_wal(&self) -> Result<(), StorageError> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        let until = self.hold_sync_until.swap(0, Ordering::SeqCst);
        let mut appends = self.appends.lock().unwrap();
        while *appends < until {
            appends = self.appended.wait(appends).unwrap();
        }
        drop(appends);
        self.inner.sync_wal()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        let parking = self.park.lock().unwrap().take();
        if let Some((parked, release)) = parking {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.write_snapshot(bytes)
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

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read_snapshot()
    }

    fn clear_snapshot(&self) -> Result<(), StorageError> {
        self.inner.clear_snapshot()
    }

    fn rollback_inflight(&self) {
        self.inner.rollback_inflight()
    }

    fn simulate_crash(&self) {
        self.inner.simulate_crash()
    }

    fn name(&self) -> &'static str {
        "hooked"
    }
}

fn fixed_secret(i: usize) -> Secret {
    let mut bytes = *b"group-commit-test-20";
    bytes[17] = b'0' + (i / 10) as u8;
    bytes[18] = b'0' + (i % 10) as u8;
    Secret::from_bytes(bytes)
}

/// `n` user names in `n` different store shards: commits run inside the
/// shard lock, so users sharing a shard could not commit side by side.
fn names_in_distinct_shards(n: usize) -> Vec<String> {
    let mut shards = Vec::new();
    let mut names = Vec::new();
    for i in 0.. {
        let name = format!("group{i:03}");
        let shard = shard_of_name(&name);
        if !shards.contains(&shard) {
            shards.push(shard);
            names.push(name);
            if names.len() == n {
                break;
            }
        }
    }
    names
}

fn enroll(server: &LinotpServer, names: &[String]) -> Vec<Totp> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let secret = fixed_secret(i);
            server.enroll_hard(name, &format!("FOB-{i:04}"), secret.clone(), T0);
            Totp::new(secret)
        })
        .collect()
}

fn durable_server(backend: Arc<dyn StorageBackend>, config: ServerConfig) -> Arc<LinotpServer> {
    LinotpServer::with_storage(TwilioSim::new(7), 7, config, backend)
        .expect("durable server recovers at startup")
}

/// The server a restart after a crash would bring up from `memory`.
fn recovered_from(memory: &MemoryBackend) -> Arc<LinotpServer> {
    memory.simulate_crash();
    durable_server(
        MemoryBackend::with_contents(memory.durable_wal(), memory.durable_snapshot()),
        ServerConfig::default(),
    )
}

/// A six-digit code matching no step `totp` could accept during the test.
fn wrong_code(totp: &Totp) -> String {
    let lo = totp.params.time_step(T0).saturating_sub(15);
    let hi = totp.params.time_step(T0) + 430;
    (0..1_000_000u32)
        .map(|c| format!("{c:06}"))
        .find(|code| (lo..=hi).all(|step| totp.code_at(step * totp.params.step_secs) != *code))
        .expect("a million candidates cannot all collide")
}

/// One recorded operation and the outcome the concurrent run observed.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Validate {
        code: String,
        now: u64,
        outcome: ValidationOutcome,
    },
    Resync {
        c1: String,
        c2: String,
        now: u64,
        ok: bool,
    },
}

#[test]
fn concurrent_commits_share_syncs_and_survive_a_crash() {
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    // The default compaction period: the storm crosses it, so compaction
    // runs among concurrent commits too.
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    let names = names_in_distinct_shards(8);
    let totps = enroll(&server, &names);
    let wrong: Vec<String> = totps.iter().map(wrong_code).collect();
    let logs: Vec<Mutex<Vec<Op>>> = names.iter().map(|_| Mutex::new(Vec::new())).collect();

    // Every thread opens on a user of its own, and the first sync waits
    // for all of those commits: the second sync must cover a group.
    hooked.hold_next_sync_for(THREADS as u64);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (server, names, totps, wrong, logs) = (&server, &names, &totps, &wrong, &logs);
            scope.spawn(move || {
                for round in 0..12u64 {
                    for k in 0..names.len() {
                        let i = (t + k) % names.len();
                        let (name, totp) = (&names[i], &totps[i]);
                        let now = T0 + (round + 1) * 30;
                        // The log lock is held across the call so the
                        // recorded order is the execution order.
                        let mut log = logs[i].lock().unwrap();
                        match (t + round as usize + i) % 4 {
                            0 => {
                                let code = totp.code_at(now);
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            1 => {
                                let code = wrong[i].clone();
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            2 => {
                                let code = totp.code_at(now.saturating_sub(90));
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            _ => {
                                let c1 = totp.code_at(now + 60 * 30);
                                let c2 = totp.code_at(now + 61 * 30);
                                let ok = server.resync(name, &c1, &c2, now);
                                log.push(Op::Resync { c1, c2, now, ok });
                            }
                        }
                    }
                }
            });
        }
    });

    let c = server.durability_counters().unwrap();
    assert_eq!(c.commits, hooked.appends(), "one append_wal per commit");
    assert_eq!(c.fsyncs, hooked.syncs());
    assert_eq!((c.append_failures, c.fsync_failures), (0, 0));
    assert!(
        c.fsyncs < c.commits,
        "groups must form: {} syncs for {} commits",
        c.fsyncs,
        c.commits
    );
    assert!(c.snapshots >= 1, "the storm crossed a compaction period");

    // Everything was acknowledged, so everything is durable: the restart
    // sees the live state, and refuses every code the storm accepted.
    let recovered = recovered_from(&memory);
    // Serial replay: a fresh volatile server, each user's operations in
    // the order they ran.
    let serial = LinotpServer::with_config(TwilioSim::new(7), 7, ServerConfig::default());
    enroll(&serial, &names);
    for (i, name) in names.iter().enumerate() {
        let live = server.store().get(name);
        assert_eq!(
            recovered.store().get(name),
            live,
            "{name}: recovered record"
        );
        for op in logs[i].lock().unwrap().iter() {
            match op {
                Op::Validate { code, now, outcome } => {
                    assert_eq!(
                        &serial.validate(name, code, *now),
                        outcome,
                        "{name}: serial replay diverged on validate({code}, {now})"
                    );
                    if outcome.is_success() {
                        assert_ne!(
                            recovered.validate(name, code, *now),
                            ValidationOutcome::Success,
                            "{name}: acknowledged code {code} replayed after the crash"
                        );
                    }
                }
                Op::Resync { c1, c2, now, ok } => {
                    assert_eq!(
                        &serial.resync(name, c1, c2, *now),
                        ok,
                        "{name}: serial replay diverged on resync at {now}"
                    );
                }
            }
        }
        assert_eq!(serial.store().get(name), live, "{name}: serial record");
    }
}

#[test]
fn a_failed_sync_denies_its_whole_group() {
    let plan = StorageFaultPlan::seeded(5);
    let memory = MemoryBackend::with_plan(Arc::clone(&plan));
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    let names = names_in_distinct_shards(THREADS);
    let totps = enroll(&server, &names);
    let before = server.durability_counters().unwrap();
    let (syncs_before, durable_before) = (hooked.syncs(), memory.durable_wal());

    // Every sync fails, and the first waits until all four commits are
    // appended: it fails its lone member, the next fails the other three.
    plan.set_fsync_fail_every(1);
    hooked.hold_next_sync_for(THREADS as u64);
    let now = T0 + 30;
    let outcomes: Vec<ValidationOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = names
            .iter()
            .zip(&totps)
            .map(|(name, totp)| {
                let server = &server;
                scope.spawn(move || server.validate(name, &totp.code_at(now), now))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        outcomes,
        vec![ValidationOutcome::Unavailable; THREADS],
        "every member of a failed group is denied"
    );

    let c = server.durability_counters().unwrap();
    let failed_syncs = hooked.syncs() - syncs_before;
    assert_eq!(c.fsyncs, before.fsyncs, "no sync succeeded");
    assert_eq!(
        memory.durable_wal(),
        durable_before,
        "nothing became durable"
    );
    // Four validate commits and four denial-row commits failed; the syncs
    // that failed them are fewer, and it is syncs the counter counts.
    assert_eq!(
        c.append_failures - before.append_failures,
        2 * THREADS as u64
    );
    assert_eq!(c.fsync_failures - before.fsync_failures, failed_syncs);
    assert!(failed_syncs < 2 * THREADS as u64, "{failed_syncs} syncs");
    assert_eq!(
        server
            .metrics()
            .snapshot()
            .counter("hpcmfa_otp_wal_fsync_failures_total"),
        c.fsync_failures
    );

    // The codes are burned in memory either way — deny-safe.
    plan.set_fsync_fail_every(0);
    for (name, totp) in names.iter().zip(&totps) {
        assert_ne!(
            server.validate(name, &totp.code_at(now), now),
            ValidationOutcome::Success
        );
    }
}

#[test]
fn compaction_never_erases_an_acknowledged_record() {
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig {
            snapshot_every_appends: 8,
            ..ServerConfig::default()
        },
    );
    let names = names_in_distinct_shards(2);
    let totps = enroll(&server, &names);
    let (alice, bob) = (&names[0], &names[1]);

    // Alice logs in until her commits cross the compaction period; the
    // compaction she then runs parks inside `write_snapshot`, its export
    // of the store already taken.
    let (parked, release) = hooked.park_next_snapshot();
    let mut accepted: Vec<(&String, String, u64)> = Vec::new();
    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| {
            (1..=4u64)
                .map(|step| {
                    let now = T0 + step * 30;
                    let code = totps[0].code_at(now);
                    assert_eq!(
                        server.validate(alice, &code, now),
                        ValidationOutcome::Success
                    );
                    (alice, code, now)
                })
                .collect::<Vec<_>>()
        });
        parked.recv().expect("a compaction started");

        // Bob logs in while the compactor is parked. Behind the fence his
        // validate waits for the compaction to finish; without it he is
        // acknowledged now, out of a WAL the compactor is about to reset.
        let now = T0 + 30;
        let code = totps[1].code_at(now);
        let (done_tx, done_rx) = channel();
        let racer = scope.spawn({
            let code = code.clone();
            let server = &server;
            move || {
                let outcome = server.validate(bob, &code, now);
                done_tx.send(()).unwrap();
                outcome
            }
        });
        let _ = done_rx.recv_timeout(Duration::from_millis(300));
        release.send(()).unwrap();

        assert_eq!(racer.join().unwrap(), ValidationOutcome::Success);
        accepted.push((bob, code, now));
        accepted.extend(compactor.join().unwrap());
    });
    assert!(server.durability_counters().unwrap().snapshots >= 1);

    let recovered = recovered_from(&memory);
    assert!(
        recovered
            .audit()
            .for_user(bob)
            .iter()
            .any(|row| row.action == AuditAction::Validate && row.success),
        "the audit row of an acknowledged login survives the compaction"
    );
    for (name, code, now) in &accepted {
        assert_ne!(
            recovered.validate(name, code, *now),
            ValidationOutcome::Success,
            "{name}: code acknowledged around the compaction replayed after the crash"
        );
    }
}
