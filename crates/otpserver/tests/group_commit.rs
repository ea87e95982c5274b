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
//! 4. **No lock is held across a sync.** Commits of one store shard, and
//!    resume-nonce consumes, share syncs like any others.
//! 5. **A reply waits for its sync, a worker does not.** Behind the
//!    batched UDP ingest more commits are appended during one sync than
//!    there are workers, no ingest thread sleeps on the pump while the
//!    sync is held, no reply leaves before the sync covering its commit
//!    ends, a failed sync denies every login it covered exactly as the
//!    inline path does, and a compaction falling due among parked replies
//!    strands none.
//! 6. **A replicated append does not wait out the primary's sync**, and
//!    the standby still receives exactly the synced bytes, in order, a
//!    failed append and its rollback during the sync included.
//!
//! The interleavings are forced by a hooked backend, not by sleeping: the
//! first sync of a storm is held until every thread has appended (or the
//! test lets go), and the snapshot write parks on a channel. Behind the
//! ingest, the held sync is already in flight when the storm starts, led
//! by one more login from a thread of the test's own, so every commit of
//! the storm finds it and parks.

use hpcmfa_otp::clock::{Clock, SimClock};
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::audit::AuditAction;
use hpcmfa_otpserver::durability::WalRecord;
use hpcmfa_otpserver::server::{LinotpServer, ResumeConsumeOutcome, ServerConfig};
use hpcmfa_otpserver::sms::TwilioSim;
use hpcmfa_otpserver::store::shard_of_name;
use hpcmfa_otpserver::{
    ClusterBackend, LinkFaultPlan, MemoryBackend, OtpCluster, OtpRadiusHandler, ReplicationMode,
    StorageBackend, StorageError, StorageFaultPlan, ValidationOutcome,
};
use hpcmfa_radius::auth::{fixture_authenticator, hide_password};
use hpcmfa_radius::ingest::{BatchedUdpServer, IngestConfig, IngestHandle};
use hpcmfa_radius::packet::{Code, Packet, PacketView};
use hpcmfa_radius::server::RadiusServer;
use hpcmfa_radius::tracewire;
use hpcmfa_radius::BreakerConfig;
use hpcmfa_radius::{Attribute, AttributeType};
use hpcmfa_telemetry::{MetricsRegistry, SecurityEventKind, SpanStatus, TraceId};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// total (0 = syncs run straight through), or for [`HOLD_LIMIT`].
    hold_sync_until: AtomicU64,
    /// Syncs wait while this is set.
    held: Mutex<bool>,
    let_go: Condvar,
    /// Every sync takes at least this long (µs).
    sync_micros: AtomicU64,
    /// Armed: the next snapshot write reports in and waits for release.
    park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

/// How long a sync held for appends waits for them: were a lock held
/// across the sync the appends could not come, and the test must fail on
/// its count rather than hang.
const HOLD_LIMIT: Duration = Duration::from_secs(2);

impl Hooked {
    fn over(inner: Arc<MemoryBackend>) -> Arc<Self> {
        Arc::new(Hooked {
            inner,
            appends: Mutex::new(0),
            appended: Condvar::new(),
            syncs: AtomicU64::new(0),
            hold_sync_until: AtomicU64::new(0),
            held: Mutex::new(false),
            let_go: Condvar::new(),
            sync_micros: AtomicU64::new(0),
            park: Mutex::new(None),
        })
    }

    /// Hold every sync from now until [`Hooked::release_syncs`].
    fn hold_syncs(&self) {
        *self.held.lock().unwrap() = true;
    }

    fn release_syncs(&self) {
        *self.held.lock().unwrap() = false;
        self.let_go.notify_all();
    }

    /// Wait until `n` commits have been appended since `before`.
    fn wait_for_appends(&self, before: u64, n: u64) -> u64 {
        let deadline = Instant::now() + HOLD_LIMIT;
        let mut appends = self.appends.lock().unwrap();
        while *appends < before + n && Instant::now() < deadline {
            appends = self
                .appended
                .wait_timeout(appends, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        *appends - before
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
        let deadline = Instant::now() + HOLD_LIMIT;
        let mut appends = self.appends.lock().unwrap();
        while *appends < until && Instant::now() < deadline {
            appends = self
                .appended
                .wait_timeout(appends, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        drop(appends);
        let mut held = self.held.lock().unwrap();
        while *held {
            held = self.let_go.wait(held).unwrap();
        }
        drop(held);
        std::thread::sleep(Duration::from_micros(
            self.sync_micros.load(Ordering::SeqCst),
        ));
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

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("group{i:03}")).collect()
}

/// `n` user names of one store shard: were commits made inside the shard
/// lock, these could not commit side by side.
fn names_in_one_shard(n: usize) -> Vec<String> {
    let shard = shard_of_name("group000");
    (0..)
        .map(|i| format!("group{i:03}"))
        .filter(|name| shard_of_name(name) == shard)
        .take(n)
        .collect()
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
    let names = names(8);
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
    let names = names(THREADS);
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
    let names = names(2);
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

#[test]
fn commits_of_one_shard_and_resume_consumes_share_syncs() {
    const STORM: usize = 8;
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    let names = names_in_one_shard(STORM);
    let totps = enroll(&server, &names);
    let now = T0 + 30;

    // The first sync waits for all eight commits: the second covers the
    // other seven — unless the first was run inside the shard lock the
    // others need, in which case they come one sync each.
    let before = hooked.syncs();
    hooked.hold_next_sync_for(STORM as u64);
    std::thread::scope(|scope| {
        for (name, totp) in names.iter().zip(&totps) {
            let server = &server;
            scope.spawn(move || {
                assert_eq!(
                    server.validate(name, &totp.code_at(now), now),
                    ValidationOutcome::Success
                );
            });
        }
    });
    let syncs = hooked.syncs() - before;
    assert!(
        syncs <= 2,
        "{syncs} syncs for {STORM} validates of one shard"
    );

    // Likewise the one resume ledger.
    let before = hooked.syncs();
    hooked.hold_next_sync_for(STORM as u64);
    std::thread::scope(|scope| {
        for (i, name) in names.iter().enumerate() {
            let server = &server;
            scope.spawn(move || {
                assert_eq!(
                    server.consume_resume_nonce(name, [i as u8; 16], now + 600, now, None),
                    ResumeConsumeOutcome::Fresh
                );
            });
        }
    });
    let syncs = hooked.syncs() - before;
    assert!(syncs <= 2, "{syncs} syncs for {STORM} resume consumes");

    // Early release lost nothing: a restart refuses every code and nonce.
    let recovered = recovered_from(&memory);
    for (i, (name, totp)) in names.iter().zip(&totps).enumerate() {
        assert_ne!(
            recovered.validate(name, &totp.code_at(now), now),
            ValidationOutcome::Success
        );
        assert_eq!(
            recovered.consume_resume_nonce(name, [i as u8; 16], now + 600, now, None),
            ResumeConsumeOutcome::Replayed
        );
    }
}

// ---------------------------------------------------------------------
// Behind the batched UDP ingest
// ---------------------------------------------------------------------

const SECRET: &[u8] = b"group-commit-secret";

/// `server` behind the OTP handler and the default batched ingest (four
/// workers) on a loopback socket, and the one client socket of a gateway.
/// Nothing reads the server's socket until [`Gateway::open`].
struct Gateway {
    addr: std::net::SocketAddr,
    client: UdpSocket,
    clock: SimClock,
    shutdown: Arc<AtomicBool>,
    front: Option<(BatchedUdpServer, UdpSocket)>,
    ingest: Option<IngestHandle>,
}

impl Gateway {
    fn to(server: &Arc<LinotpServer>, now: u64) -> Self {
        let clock = SimClock::at(now);
        let handler = OtpRadiusHandler::new(Arc::clone(server), Arc::new(clock.clone()));
        let radius = Arc::new(RadiusServer::new(SECRET, handler));
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let addr = socket.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = BatchedUdpServer::with_config(
            radius,
            Arc::clone(server.metrics()),
            IngestConfig::default(),
        );
        let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Gateway {
            addr,
            client,
            clock,
            shutdown,
            front: Some((front, socket)),
            ingest: None,
        }
    }

    /// Start serving: what was sent before this is the first drain's batch,
    /// so it goes to the workers whole (a datagram drained alone is the
    /// receiver's, and nothing is read while the receiver waits on a sync).
    fn open(&mut self) {
        let (front, socket) = self.front.take().expect("opened once");
        self.ingest = Some(front.serve(socket, Arc::clone(&self.shutdown)));
    }

    fn stats(&self) -> hpcmfa_radius::IngestStats {
        self.ingest.as_ref().expect("open").stats()
    }

    /// Send user `id`'s single-shot login with `code`, traced as `trace`.
    fn send_login(&self, id: u8, name: &str, code: &str, trace: Option<TraceId>) {
        let auth = fixture_authenticator(name);
        let mut request = Packet::new(Code::AccessRequest, id, auth)
            .with_attribute(Attribute::text(AttributeType::UserName, name))
            .with_attribute(Attribute::new(
                AttributeType::UserPassword,
                hide_password(code.as_bytes(), &auth, SECRET),
            ));
        if let Some(trace) = trace {
            request = request.with_attribute(tracewire::trace_ctx_attribute(trace, None, 0));
        }
        self.client.send_to(&request.encode(), self.addr).unwrap();
    }

    /// The next reply: whose it is, its code and the server's clock in it.
    fn reply(&self) -> (u8, Code, Option<u64>) {
        let mut buf = [0u8; 4096];
        let (n, _) = self
            .client
            .recv_from(&mut buf)
            .expect("a reply (none within 5 s: a reply is stranded)");
        let reply = PacketView::parse(&buf[..n]).unwrap();
        (
            reply.identifier,
            reply.code,
            tracewire::clock_of_view(&reply),
        )
    }

    fn shut_down(self) -> hpcmfa_radius::IngestStats {
        self.shutdown.store(true, Ordering::SeqCst);
        let stats = self.stats();
        self.ingest.expect("open").join();
        stats
    }
}

/// Sixteen traced logins sent while a sync is held: how many commits were
/// appended meanwhile, how many times a thread slept on the pump
/// meanwhile, the replies once it is let go and how soon the first came,
/// and each login's span tree in a form that compares across logins.
struct HeldStorm {
    appended_while_held: u64,
    pump_sleeps_while_held: u64,
    first_reply_after: Duration,
    replies: Vec<(u8, Code, Option<u64>)>,
    span_trees: Vec<Vec<String>>,
}

const STORM_LOGINS: usize = 16;

/// The storm starts with the held sync in flight: `lead` logs in inline
/// with a wrong code from a thread of its own, and its commit's sync is
/// held before the gateway opens. Were the storm's own first commit to
/// lead the sync instead, all four workers could append before any of
/// them led it, and none would park. The lead login sends no datagram
/// and is untraced, so it is in no reply and no span tree.
fn storm_behind_a_held_sync(
    server: &Arc<LinotpServer>,
    hooked: &Hooked,
    names: &[String],
    totps: &[Totp],
    (lead, lead_totp): (&str, &Totp),
) -> HeldStorm {
    let now = T0 + 30;
    let mut gateway = Gateway::to(server, now);
    let trace = |i: usize| TraceId::from_u64(0x5700 + i as u64);
    hooked.hold_syncs();
    let syncs_before = hooked.syncs();
    let lead_code = wrong_code(lead_totp);
    let leader = std::thread::spawn({
        let server = Arc::clone(server);
        let lead = lead.to_string();
        move || server.validate(&lead, &lead_code, now)
    });
    let deadline = Instant::now() + HOLD_LIMIT;
    while hooked.syncs() == syncs_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        hooked.syncs(),
        syncs_before + 1,
        "the lead login's sync is in flight"
    );
    let before = hooked.appends();
    let pump_sleeps = || server.durability_counters().unwrap().sync_waits;
    let sleeps_before = pump_sleeps();
    for (i, (name, totp)) in names.iter().zip(totps).enumerate() {
        gateway.send_login(i as u8, name, &totp.code_at(now), Some(trace(i)));
    }
    gateway.open();
    let appended_while_held = hooked.wait_for_appends(before, STORM_LOGINS as u64);
    // Past a worker's poll: time for any thread that would sleep on the
    // pump behind the held sync to do so.
    std::thread::sleep(Duration::from_millis(60));
    let pump_sleeps_while_held = pump_sleeps() - sleeps_before;

    // No reply outruns its sync.
    gateway.client.set_nonblocking(true).unwrap();
    let mut buf = [0u8; 64];
    assert!(
        gateway.client.recv_from(&mut buf).is_err(),
        "a reply left while the sync covering its commit was held"
    );
    assert_eq!(gateway.stats().replied, 0);
    gateway.client.set_nonblocking(false).unwrap();

    hooked.release_syncs();
    let let_go = Instant::now();
    let first = gateway.reply();
    let first_reply_after = let_go.elapsed();
    assert_ne!(
        leader.join().unwrap(),
        ValidationOutcome::Success,
        "the lead login's code is wrong"
    );
    let rest = (1..STORM_LOGINS).map(|_| gateway.reply());
    let mut replies: Vec<_> = std::iter::once(first).chain(rest).collect();
    replies.sort_unstable_by_key(|(id, ..)| *id);
    let stats = gateway.shut_down();
    assert_eq!(
        (stats.replied, stats.discarded, stats.shed),
        (STORM_LOGINS as u64, 0, 0)
    );

    let tracer = server.metrics().tracer();
    let span_trees = (0..STORM_LOGINS)
        .map(|i| {
            let spans = tracer.spans_for(trace(i));
            spans
                .iter()
                .map(|s| {
                    let parent = spans.iter().find(|p| Some(p.id) == s.parent);
                    format!(
                        "{} under {:?} [{}..{}] {} {:?}",
                        s.label,
                        parent.map(|p| p.label),
                        s.start_us,
                        s.end_us,
                        s.status,
                        s.detail
                    )
                })
                .collect()
        })
        .collect();
    HeldStorm {
        appended_while_held,
        pump_sleeps_while_held,
        first_reply_after,
        replies,
        span_trees,
    }
}

#[test]
fn no_reply_outruns_its_sync_and_no_worker_waits_for_one() {
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    // One more user, whose inline login leads the held sync.
    let mut names = names(STORM_LOGINS + 1);
    let mut totps = enroll(&server, &names);
    let (lead, lead_totp) = (names.pop().unwrap(), totps.pop().unwrap());
    let storm = storm_behind_a_held_sync(&server, &hooked, &names, &totps, (&lead, &lead_totp));

    // Four workers, the sync in flight: were they waiting for it, four
    // commits would be all there are.
    assert!(
        storm.appended_while_held >= 12,
        "{} commits appended during one sync",
        storm.appended_while_held
    );
    for (i, (id, code, clock)) in storm.replies.iter().enumerate() {
        assert_eq!((*id, *code), (i as u8, Code::AccessAccept));
        assert_eq!(
            *clock, storm.replies[0].2,
            "login {i}: the reply's trace clock"
        );
    }
    // The login that led the sync and those that parked behind it leave
    // the same spans.
    assert_eq!(storm.span_trees[0].len(), 3, "{:?}", storm.span_trees[0]);
    for (i, tree) in storm.span_trees.iter().enumerate() {
        assert_eq!(tree, &storm.span_trees[0], "login {i}");
    }
    let c = server.durability_counters().unwrap();
    assert_eq!((c.append_failures, c.fsync_failures), (0, 0));

    // Every one of them was acknowledged, so every one is durable.
    let now = T0 + 30;
    let recovered = recovered_from(&memory);
    for (name, totp) in names.iter().zip(&totps) {
        assert_ne!(
            recovered.validate(name, &totp.code_at(now), now),
            ValidationOutcome::Success,
            "{name}: acknowledged code replayed after the crash"
        );
    }
}

#[test]
fn a_held_sync_puts_no_ingest_thread_to_sleep_on_the_pump() {
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    let mut names = names(STORM_LOGINS + 1);
    let mut totps = enroll(&server, &names);
    let (lead, lead_totp) = (names.pop().unwrap(), totps.pop().unwrap());
    let storm = storm_behind_a_held_sync(&server, &hooked, &names, &totps, (&lead, &lead_totp));

    // The sync is held by a thread of the test's own, inside the backend:
    // every commit of the storm parks behind it, and the workers that
    // appended them hand their replies over and find the sync in other
    // hands. None of them, nor the receiver, sleeps on the pump.
    assert!(storm.appended_while_held >= 12);
    assert_eq!(storm.pump_sleeps_while_held, 0);
    // Once it is let go, every reply still leaves.
    assert!(storm
        .replies
        .iter()
        .all(|(_, code, _)| *code == Code::AccessAccept));
}

#[test]
fn a_sync_led_outside_the_ingest_rouses_its_workers_when_it_ends() {
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    let mut names = names(STORM_LOGINS + 1);
    let mut totps = enroll(&server, &names);
    let (lead, lead_totp) = (names.pop().unwrap(), totps.pop().unwrap());
    let storm = storm_behind_a_held_sync(&server, &hooked, &names, &totps, (&lead, &lead_totp));

    // The held sync is the lead login's, not a worker's, and it covers none
    // of the storm's commits: every worker nudged and was turned away. The
    // sync's end rouses one, which leads the next at once; a worker left
    // to its 50 ms poll would answer anywhere up to 50 ms later.
    assert!(storm.appended_while_held >= 12);
    assert!(
        storm.first_reply_after < Duration::from_millis(25),
        "the first reply came {:?} after the held sync ended",
        storm.first_reply_after
    );
}

#[test]
fn a_failed_sync_denies_parked_logins_as_it_does_inline_ones() {
    let plan = StorageFaultPlan::seeded(5);
    let memory = MemoryBackend::with_plan(Arc::clone(&plan));
    let hooked = Hooked::over(Arc::clone(&memory));
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig::default(),
    );
    // One more user, who logs in inline against the same failing disk: the
    // reference for what a denied login leaves. And one whose inline login
    // leads the held sync, with a wrong code: denied as failed, not as
    // unavailable, so the counts below are the storm's and the inline's.
    let mut names = names(STORM_LOGINS + 2);
    let mut totps = enroll(&server, &names);
    let (inline, inline_totp) = (names.pop().unwrap(), totps.pop().unwrap());
    let (lead, lead_totp) = (names.pop().unwrap(), totps.pop().unwrap());
    let now = T0 + 30;
    let durable_before = memory.durable_wal();

    plan.set_fsync_fail_every(1);
    let storm = storm_behind_a_held_sync(&server, &hooked, &names, &totps, (&lead, &lead_totp));
    let inline_trace = TraceId::from_u64(0x1471);
    let ctx = hpcmfa_telemetry::SpanCtx::root(inline_trace, hpcmfa_telemetry::TraceClock::at(0));
    assert_eq!(
        server.validate_guarded(&inline, &inline_totp.code_at(now), now, Some(&ctx), None),
        ValidationOutcome::Unavailable
    );
    plan.set_fsync_fail_every(0);

    assert!(storm.appended_while_held >= 12);
    for (i, (id, code, _)) in storm.replies.iter().enumerate() {
        assert_eq!((*id, *code), (i as u8, Code::AccessReject));
    }
    assert_eq!(
        memory.durable_wal(),
        durable_before,
        "nothing became durable"
    );

    // Row for row, span for span, what the inline path leaves.
    let rows = |name: &str| -> Vec<(AuditAction, bool, String)> {
        let rows = server.audit().for_user(name);
        rows.iter()
            .map(|e| {
                let detail = e.detail.split(" trace=").next().unwrap_or_default();
                (e.action, e.success, detail.to_string())
            })
            .collect()
    };
    let denied = (
        AuditAction::Validate,
        false,
        "durability unavailable".to_string(),
    );
    assert_eq!(rows(&inline).last(), Some(&denied));
    for name in &names {
        assert_eq!(rows(name), rows(&inline), "{name}");
    }
    let inline_spans = server.metrics().tracer().spans_for(inline_trace);
    let shape = |label: &str| {
        let span = inline_spans.iter().find(|s| s.label == label).unwrap();
        (span.status, span.detail)
    };
    assert_eq!(shape("wal_fsync"), (SpanStatus::Error, "append failed"));
    assert_eq!(shape("validate"), (SpanStatus::Degraded, "unavailable"));
    for (i, tree) in storm.span_trees.iter().enumerate() {
        assert_eq!(tree, &storm.span_trees[0], "login {i}");
        assert!(tree
            .iter()
            .any(|s| s.starts_with("wal_fsync") && s.contains("append failed")));
        assert!(tree
            .iter()
            .any(|s| s.starts_with("validate") && s.contains("degraded")));
    }
    let logins = STORM_LOGINS as u64 + 1;
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.counter("hpcmfa_otp_validations_total{outcome=\"unavailable\"}"),
        logins
    );
    assert_eq!(
        snap.counter("hpcmfa_otp_validations_total{outcome=\"success\"}"),
        0
    );
    let degraded = server
        .metrics()
        .security_events()
        .of_kind(SecurityEventKind::WalFsyncDegraded);
    assert_eq!(degraded.len() as u64, logins, "one event per denied login");

    // The codes are burned in memory, and nothing was acknowledged.
    for (name, totp) in names.iter().zip(&totps) {
        assert_ne!(
            server.validate(name, &totp.code_at(now), now),
            ValidationOutcome::Success
        );
    }
}

#[test]
fn the_compactor_cannot_strand_parked_replies() {
    const IN_FLIGHT: usize = 64;
    const LOGINS: usize = 2_000;
    let memory = MemoryBackend::healthy();
    let hooked = Hooked::over(Arc::clone(&memory));
    // Syncs long enough that commits park behind them, and compactions
    // due as soon as the WAL holds 16 records and an eighth of the last
    // snapshot: one falls due with replies parked, and its claim has to
    // see their syncs through itself.
    hooked.sync_micros.store(200, Ordering::SeqCst);
    let server = durable_server(
        Arc::clone(&hooked) as Arc<dyn StorageBackend>,
        ServerConfig {
            snapshot_every_appends: 16,
            ..ServerConfig::default()
        },
    );
    let names = names(IN_FLIGHT);
    let totps = enroll(&server, &names);
    let mut gateway = Gateway::to(&server, T0);
    gateway.open();

    // Closed loop, sixty-four in flight on one socket: each user's next
    // login (the next step's code) leaves when the last is answered.
    let mut rounds = vec![0u64; IN_FLIGHT];
    let mut sent = 0;
    let mut send_next = |user: usize| {
        rounds[user] += 1;
        let at = T0 + rounds[user] * 30;
        gateway.clock.set(at.max(gateway.clock.now()));
        gateway.send_login(user as u8, &names[user], &totps[user].code_at(at), None);
    };
    for user in 0..IN_FLIGHT {
        send_next(user);
        sent += 1;
    }
    for answered in 0..LOGINS {
        let (id, code, _) = gateway.reply();
        assert_eq!(code, Code::AccessAccept, "login {answered}, user {id}");
        if sent < LOGINS {
            send_next(id as usize);
            sent += 1;
        }
    }
    let stats = gateway.shut_down();
    assert_eq!(
        (stats.replied, stats.discarded, stats.shed),
        (LOGINS as u64, 0, 0)
    );

    let c = server.durability_counters().unwrap();
    // As the ring grows from 64 rows to 2 064 the snapshot grows with it,
    // and with it the WAL each compaction waits for: 26–28 compactions.
    // Far fewer would mean the trigger no longer stresses the parked
    // replies.
    assert!(
        c.snapshots >= 20,
        "{} compactions among the parked replies",
        c.snapshots
    );
    assert!(c.fsyncs < c.commits, "groups formed");
    let recovered = recovered_from(&memory);
    for name in &names {
        assert_eq!(
            recovered.store().get(name),
            server.store().get(name),
            "{name}: recovered record"
        );
    }
    // Parked or not, a login's rows reach the ring and the WAL alike.
    assert_eq!(recovered.audit().export_all(), server.audit().export_all());
}

// ---------------------------------------------------------------------
// Behind a replicated backend
// ---------------------------------------------------------------------

/// A cluster whose primary is `primary`: its standby's storage and the
/// backend the pump writes through.
fn replicated(primary: &Arc<Hooked>) -> (Arc<MemoryBackend>, Arc<ClusterBackend>) {
    let standby = MemoryBackend::healthy();
    let (_cluster, backend) = OtpCluster::new(
        Arc::clone(primary) as Arc<dyn StorageBackend>,
        Arc::clone(&standby) as Arc<dyn StorageBackend>,
        ReplicationMode::Sync,
        Arc::new(SimClock::at(T0)),
        Arc::new(MetricsRegistry::new()),
        BreakerConfig::default(),
        LinkFaultPlan::healthy(),
    );
    (standby, backend)
}

fn remove_frame(user: &str) -> Vec<u8> {
    WalRecord::Remove {
        user: user.to_string(),
    }
    .encode_frame()
}

#[test]
fn a_cluster_append_does_not_wait_out_the_primary_sync() {
    let hooked = Hooked::over(MemoryBackend::healthy());
    let (standby, backend) = replicated(&hooked);
    let (first, second) = (remove_frame("first"), remove_frame("second"));
    backend.append_wal(&first).unwrap();

    // The primary's sync is held; an append on another thread meanwhile
    // must not queue behind it.
    hooked.hold_syncs();
    std::thread::scope(|scope| {
        let syncer = scope.spawn(|| backend.sync_wal());
        while hooked.syncs() == 0 {
            std::thread::yield_now();
        }
        let (done_tx, done_rx) = channel();
        let (backend, second) = (&backend, &second);
        let appender = scope.spawn(move || {
            let appended = backend.append_wal(second);
            done_tx.send(()).unwrap();
            appended
        });
        let waited = done_rx.recv_timeout(HOLD_LIMIT);
        hooked.release_syncs();
        assert_eq!(syncer.join().unwrap(), Ok(()));
        assert_eq!(appender.join().unwrap(), Ok(()));
        assert!(waited.is_ok(), "the append waited for the primary's sync");
    });

    // The standby holds what that sync covered, and the next sync ships
    // the rest behind it.
    assert_eq!(standby.durable_wal(), first);
    backend.sync_wal().unwrap();
    assert_eq!(standby.durable_wal(), [first, second].concat());
}

#[test]
fn a_cluster_rollback_during_a_sync_leaves_the_standby_equal_to_the_primary() {
    let memory = MemoryBackend::with_plan(StorageFaultPlan::seeded(7));
    let hooked = Hooked::over(Arc::clone(&memory));
    let (standby, backend) = replicated(&hooked);
    let (first, second, third) = (
        remove_frame("first"),
        remove_frame("second"),
        remove_frame("third"),
    );
    backend.append_wal(&first).unwrap();

    // An append fails while the primary's sync is held, and its rollback
    // follows, as the pump's does: the batch that sync covers must still
    // ship, and the failed append's bytes reach neither node. The append
    // returns at once; the rollback waits the sync out, for one landing
    // inside it would leave the batch's fate to a race.
    hooked.hold_syncs();
    std::thread::scope(|scope| {
        let syncer = scope.spawn(|| backend.sync_wal());
        while hooked.syncs() == 0 {
            std::thread::yield_now();
        }
        memory.plan().set_short_write_every(1);
        let (done_tx, done_rx) = channel();
        let (backend, second) = (&backend, &second);
        let failer = scope.spawn(move || {
            let appended = backend.append_wal(second);
            done_tx.send("append").unwrap();
            backend.rollback_inflight();
            done_tx.send("rollback").unwrap();
            appended
        });
        let failed = done_rx.recv_timeout(HOLD_LIMIT);
        let rolled_back = done_rx.recv_timeout(Duration::from_millis(300));
        hooked.release_syncs();
        assert_eq!(syncer.join().unwrap(), Ok(()));
        let appended = failer.join().unwrap();
        assert!(matches!(appended, Err(StorageError::ShortWrite { .. })));
        assert_eq!(failed, Ok("append"), "the append waited for the sync");
        assert!(rolled_back.is_err(), "the rollback landed inside the sync");
    });
    assert_eq!(memory.durable_wal(), first);
    assert_eq!(standby.durable_wal(), first);

    memory.plan().set_short_write_every(0);
    backend.append_wal(&third).unwrap();
    backend.sync_wal().unwrap();
    assert_eq!(memory.durable_wal(), [&first[..], &third[..]].concat());
    assert_eq!(standby.durable_wal(), memory.durable_wal());
}
