//! Wire-rate batched UDP ingest for the RADIUS server (DESIGN.md §16).
//!
//! The RADIUS server's one UDP front end. A loop that did one
//! recv → process → send round per datagram would make every datagram
//! wait for the full processing of the one before it, so a login storm
//! queues in the kernel and overflows the socket buffer. This module is
//! that loop while traffic is one datagram at a time and an event-loop
//! pipeline as soon as it is not (`workers: 1, batch_max: 1` never sees
//! a batch of two, so it never hands off: it is exactly that loop):
//!
//! * a **receiver** thread drains the socket in batches — one blocking
//!   wait (bounded by [`IngestConfig::poll_wait`]) for the first
//!   datagram, then nonblocking reads until the batch is full or the
//!   socket is empty: the portable `std::net` shape of `recvmmsg`;
//! * a per-batch **fairness quota** bounds how many best-effort
//!   datagrams one drain may admit, so a best-effort flood cannot starve
//!   trusted-lane traffic that arrived in the same batch. This is the
//!   transport-level twin of the §12 admission lanes the OTP handler
//!   applies downstream; the [`Lane`] vocabulary matches;
//! * when the admitted batch is **one datagram and no job handed to the
//!   workers is unfinished**, the receiver answers it itself, on its own
//!   reply and password-scratch buffers: there is nothing to overlap
//!   with, so a hand-off would cost a futex wake and a context switch per
//!   datagram for nothing. The choice is made from what the drain just
//!   observed, not from a setting;
//! * otherwise datagrams are dispatched to a **bounded worker pool** over
//!   a backpressured queue, in pooled receive buffers (recycled worker →
//!   pool → receiver, so steady state allocates nothing);
//! * receiver and workers run the same zero-copy
//!   `RadiusServer::begin_into` call with reusable buffers and flush
//!   each reply straight back to the shared socket as it completes — the
//!   batch boundary governs fairness and metrics, not reply latency;
//! * a reply may wait, a worker does not. When the handler's decision is
//!   [pending](crate::server::ServerDecision::Pending) — the OTP server
//!   appended the login's commit while another commit's sync was in
//!   flight — the worker **parks** the reply with the receive buffer it
//!   will be encoded from and takes the next datagram, so the commits of
//!   a burst pile into the next sync instead of waiting one worker each.
//!
//! The cost of the receiver answering: nobody reads the socket while it
//! is inside the handler, so a datagram that arrives then waits in the
//! kernel buffer for the rest of that **one** call — at most one handler
//! call longer than if it had been handed off — after which the drain
//! finds it (a batch of several, or workers still busy) and it goes to
//! the pool. Overlapping traffic therefore keeps its concurrency, group
//! commit, fairness quota and shed accounting.
//!
//! Who sends a parked reply, each rule observed and none configured:
//!
//! * a worker looks for a parked reply whose decision is in before it
//!   takes anything else, so the worker that led a sync sends what the
//!   sync covered as soon as its own call returns;
//! * a worker with nothing queued and replies parked sees the oldest
//!   through ([`PendingDecision::wait`], which leads the sync if nobody
//!   is) instead of sleeping: a burst's tail is answered within one sync
//!   without further traffic, and a sync led from outside the ingest
//!   still gets its replies out;
//! * a parked reply stays *handed off* until it leaves, so the receiver's
//!   lone-datagram rule never fires with replies parked (and a pending
//!   decision the receiver itself meets, it waits out);
//! * queued plus parked never exceeds [`IngestConfig::queue_cap`]: at the
//!   bound a worker waits for its decision as it used to, so a hung
//!   device still backpressures into the kernel buffer;
//! * shutdown sends what is parked before [`IngestHandle::join`] returns;
//!   `replied` and `outcome="ok"` count a reply when it leaves;
//! * a handler call (or a pending decision) that panics is caught: its
//!   datagram counts `discarded`, its buffer is recycled, and the thread
//!   carries on.
//!
//! Observability: `hpcmfa_radius_ingest_batch_size` (histogram of
//! datagrams per drain) and `hpcmfa_radius_datagrams_total{outcome}`
//! (`ok` / `discarded` / `shed`) render on `/system/metrics` alongside
//! the rest of the auth path.

use crate::server::{Begun, PendingDecision, RadiusServer, ServerDecision};
use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Service lane of one inbound datagram, decided before any decode work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Production login traffic: always admitted.
    Trusted,
    /// Bulk / unrecognized sources: admitted up to the per-batch quota.
    BestEffort,
}

/// Classifies a datagram into a [`Lane`] from its source address and raw
/// bytes — cheap peeking only (an IP allowlist, a port range); full
/// decode happens on the workers.
pub(crate) type LaneClassifier = dyn Fn(&SocketAddr, &[u8]) -> Lane + Send + Sync;

/// Tuning for the batched ingest loop.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Maximum datagrams drained per batch (the `recvmmsg` vector size).
    pub batch_max: usize,
    /// Worker threads running the decode → handler → encode path.
    pub workers: usize,
    /// Maximum best-effort datagrams admitted from one batch; the rest of
    /// the batch's best-effort traffic is shed (`outcome="shed"`).
    /// Trusted datagrams are never shed here.
    pub best_effort_batch_quota: usize,
    /// Bound on queued-but-unprocessed datagrams; the receiver blocks
    /// (kernel-side backpressure) rather than queueing unboundedly.
    pub queue_cap: usize,
    /// Blocking-wait bound for the first datagram of a batch; also the
    /// shutdown-latency bound.
    pub poll_wait: Duration,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            batch_max: 64,
            workers: 4,
            best_effort_batch_quota: 48,
            queue_cap: 256,
            poll_wait: Duration::from_millis(50),
        }
    }
}

/// One received datagram traveling receiver → queue → worker.
struct Job {
    buf: Box<[u8; crate::MAX_PACKET_LEN]>,
    len: usize,
    peer: SocketAddr,
}

/// A datagram whose reply waits for its decision, in the receive buffer it
/// arrived in (the reply is encoded from it).
struct ParkedReply {
    job: Job,
    pending: Box<dyn PendingDecision>,
}

/// What the workers have ahead of them. `jobs.len() + parked.len()` never
/// exceeds [`Shared::queue_cap`].
#[derive(Default)]
struct Backlog {
    jobs: VecDeque<Job>,
    parked: VecDeque<ParkedReply>,
}

/// Monotonic ingest counters (also mirrored to the metrics registry).
#[derive(Default)]
struct RawStats {
    batches: AtomicU64,
    received: AtomicU64,
    replied: AtomicU64,
    discarded: AtomicU64,
    shed: AtomicU64,
}

/// A frozen view of the ingest counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Batches drained (≥ 1 datagram each).
    pub batches: u64,
    /// Datagrams read off the socket.
    pub received: u64,
    /// Datagrams answered with a reply.
    pub replied: u64,
    /// Datagrams processed but discarded (malformed, handler said so).
    pub discarded: u64,
    /// Best-effort datagrams shed by the batch quota before processing.
    pub shed: u64,
}

/// State shared between the receiver, the workers and the handle.
struct Shared {
    server: Arc<RadiusServer>,
    socket: UdpSocket,
    queue: Mutex<Backlog>,
    job_ready: Condvar,
    space_ready: Condvar,
    shutdown: Arc<AtomicBool>,
    /// Jobs handed to the workers and not yet answered, parked replies
    /// included. Zero means nothing would overlap with a datagram the
    /// receiver answers itself. Publishes no other data, hence `Relaxed`
    /// throughout.
    handed_off: AtomicUsize,
    /// Recycled receive buffers: worker → pool → receiver.
    pool: Mutex<Vec<Box<[u8; crate::MAX_PACKET_LEN]>>>,
    queue_cap: usize,
    stats: RawStats,
    ok: Arc<Counter>,
    discarded: Arc<Counter>,
    shed: Arc<Counter>,
    batch_size: Arc<Histogram>,
}

impl Shared {
    fn take_buf(&self) -> Box<[u8; crate::MAX_PACKET_LEN]> {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| Box::new([0u8; crate::MAX_PACKET_LEN]))
    }

    fn recycle(&self, buf: Box<[u8; crate::MAX_PACKET_LEN]>) {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(buf);
    }
}

/// The batched UDP front end: wires a [`RadiusServer`] to a socket
/// through the receiver/worker pipeline described in the module docs.
pub struct BatchedUdpServer {
    server: Arc<RadiusServer>,
    metrics: Arc<MetricsRegistry>,
    config: IngestConfig,
    classifier: Option<Arc<LaneClassifier>>,
}

/// Join handle for a running ingest pipeline; also the stats window.
pub struct IngestHandle {
    shared: Arc<Shared>,
    receiver: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IngestHandle {
    /// Current counters.
    pub fn stats(&self) -> IngestStats {
        let s = &self.shared.stats;
        IngestStats {
            batches: s.batches.load(Ordering::Relaxed),
            received: s.received.load(Ordering::Relaxed),
            replied: s.replied.load(Ordering::Relaxed),
            discarded: s.discarded.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
        }
    }

    /// Wait for the receiver and every worker to exit (after the shutdown
    /// flag passed to [`BatchedUdpServer::serve`] is set).
    pub fn join(self) {
        let _ = self.receiver.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl BatchedUdpServer {
    /// Default-tuned front end for `server`, recording into `metrics`.
    pub fn new(server: Arc<RadiusServer>, metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_config(server, metrics, IngestConfig::default())
    }

    /// Explicitly tuned front end.
    pub fn with_config(
        server: Arc<RadiusServer>,
        metrics: Arc<MetricsRegistry>,
        config: IngestConfig,
    ) -> Self {
        BatchedUdpServer {
            server,
            metrics,
            config,
            classifier: None,
        }
    }

    /// Install a lane classifier (default: everything is trusted, so the
    /// quota never sheds).
    pub fn classify_with(
        mut self,
        f: impl Fn(&SocketAddr, &[u8]) -> Lane + Send + Sync + 'static,
    ) -> Self {
        self.classifier = Some(Arc::new(f));
        self
    }

    /// Start the pipeline on a bound socket; runs until `shutdown` is
    /// set, then drains the queue and exits.
    pub fn serve(self, socket: UdpSocket, shutdown: Arc<AtomicBool>) -> IngestHandle {
        let outcome = |o: &str| {
            self.metrics
                .counter("hpcmfa_radius_datagrams_total", &[("outcome", o)])
        };
        let shared = Arc::new(Shared {
            server: Arc::clone(&self.server),
            ok: outcome("ok"),
            discarded: outcome("discarded"),
            shed: outcome("shed"),
            batch_size: self
                .metrics
                .histogram("hpcmfa_radius_ingest_batch_size", &[]),
            socket,
            queue: Mutex::default(),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            shutdown,
            handed_off: AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
            queue_cap: self.config.queue_cap.max(self.config.batch_max).max(1),
            stats: RawStats::default(),
        });

        let workers = (0..self.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let receiver = {
            let shared = Arc::clone(&shared);
            let config = self.config.clone();
            let classifier = self.classifier.clone();
            std::thread::spawn(move || receiver_loop(&shared, &config, classifier.as_deref()))
        };
        IngestHandle {
            shared,
            receiver,
            workers,
        }
    }
}

/// The receiver thread: [`drain_socket`] until shutdown or a fatal socket
/// error, then wake every worker so they observe the shutdown flag.
fn receiver_loop(shared: &Shared, config: &IngestConfig, classifier: Option<&LaneClassifier>) {
    // A socket error is fatal to the receiver only: the workers finish what
    // is queued and the handle still joins.
    let _ = drain_socket(shared, config, classifier);
    shared.job_ready.notify_all();
}

/// Drain the socket in batches, applying the per-batch best-effort quota;
/// answer a lone datagram here, hand everything else to the workers.
fn drain_socket(
    shared: &Shared,
    config: &IngestConfig,
    classifier: Option<&LaneClassifier>,
) -> std::io::Result<()> {
    // `SO_RCVTIMEO` survives the `O_NONBLOCK` toggles below: set once.
    shared.socket.set_read_timeout(Some(config.poll_wait))?;
    let batch_max = config.batch_max.max(1);
    let mut batch: Vec<(Job, Lane)> = Vec::with_capacity(batch_max);
    let mut admitted: Vec<Job> = Vec::with_capacity(batch_max);
    let mut reply = Vec::with_capacity(crate::MAX_PACKET_LEN);
    let mut pw_scratch = Vec::with_capacity(128);
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Phase 1: block (bounded) for the first datagram of the batch.
        let mut buf = shared.take_buf();
        match shared.socket.recv_from(buf.as_mut()) {
            Ok((len, peer)) => {
                let lane = classify(classifier, &peer, &buf[..len]);
                batch.push((Job { buf, len, peer }, lane));
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                shared.recycle(buf);
                continue;
            }
            Err(e) => return Err(e),
        }
        // Phase 2: nonblocking drain until the batch fills or the socket
        // is empty — the recvmmsg-style bulk read.
        shared.socket.set_nonblocking(true)?;
        while batch.len() < batch_max {
            let mut buf = shared.take_buf();
            match shared.socket.recv_from(buf.as_mut()) {
                Ok((len, peer)) => {
                    let lane = classify(classifier, &peer, &buf[..len]);
                    batch.push((Job { buf, len, peer }, lane));
                }
                Err(_) => {
                    shared.recycle(buf);
                    break;
                }
            }
        }
        shared.socket.set_nonblocking(false)?;

        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .received
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.batch_size.record(batch.len() as u64);

        // Phase 3: admit within the batch — every trusted datagram (a
        // flood arriving alongside them can never push them out) and
        // best-effort up to the quota; the surplus is shed unprocessed.
        let mut admitted_best_effort = 0usize;
        for (job, lane) in batch.drain(..) {
            match lane {
                Lane::Trusted => admitted.push(job),
                Lane::BestEffort if admitted_best_effort < config.best_effort_batch_quota => {
                    admitted_best_effort += 1;
                    admitted.push(job);
                }
                Lane::BestEffort => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shared.shed.inc();
                    shared.recycle(job.buf);
                }
            }
        }

        // Phase 4: one datagram and idle workers means nothing to overlap
        // with, so a hand-off would buy a wake-up and a context switch and
        // nothing else. Anything more goes to the pool.
        let lone = admitted.len() == 1 && shared.handed_off.load(Ordering::Relaxed) == 0;
        for job in admitted.drain(..) {
            if lone {
                // Nothing is parked (`handed_off` is zero), and no worker
                // is awake to send a parked reply: the receiver waits.
                if let Some(parked) = answer(shared, job, &mut reply, &mut pw_scratch) {
                    settle(shared, parked, &mut reply);
                }
            } else {
                enqueue(shared, job);
            }
        }
    }
    Ok(())
}

fn classify(classifier: Option<&LaneClassifier>, peer: &SocketAddr, data: &[u8]) -> Lane {
    classifier.map_or(Lane::Trusted, |c| c(peer, data))
}

/// Push one job, blocking while the backlog is at capacity (backpressure:
/// excess load waits in the kernel socket buffer, not in process memory).
fn enqueue(shared: &Shared, job: Job) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    while q.jobs.len() + q.parked.len() >= shared.queue_cap
        && !shared.shutdown.load(Ordering::SeqCst)
    {
        q = shared
            .space_ready
            .wait_timeout(q, Duration::from_millis(50))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
    shared.handed_off.fetch_add(1, Ordering::Relaxed);
    q.jobs.push_back(job);
    drop(q);
    shared.job_ready.notify_one();
}

/// A handler (or a pending decision) that panics costs its own datagram,
/// not the thread that ran it.
fn survive<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Run one datagram through the zero-copy server path on the caller's
/// reusable buffers and flush the reply to the socket — or hand the
/// datagram back with its pending decision, for the caller to park or
/// [`settle`].
fn answer(
    shared: &Shared,
    job: Job,
    reply: &mut Vec<u8>,
    pw_scratch: &mut Vec<u8>,
) -> Option<ParkedReply> {
    let begun = survive(|| {
        shared
            .server
            .begin_into(&job.buf[..job.len], reply, pw_scratch)
    });
    match begun {
        Some(Begun::Pending(pending)) => return Some(ParkedReply { job, pending }),
        Some(Begun::Replied) => send(shared, &job, reply),
        Some(Begun::Discarded) | None => discard(shared),
    }
    shared.recycle(job.buf);
    None
}

/// Wait out a pending decision, then [`release`] its reply.
fn settle(shared: &Shared, parked: ParkedReply, reply: &mut Vec<u8>) {
    let ParkedReply { job, pending } = parked;
    match survive(|| pending.wait()) {
        Some(decision) => release(shared, job, decision, reply),
        None => {
            discard(shared);
            shared.recycle(job.buf);
        }
    }
}

/// Encode the reply `decision` gives `job` on the caller's reply buffer,
/// flush it to the socket, recycle the receive buffer.
fn release(shared: &Shared, job: Job, decision: ServerDecision, reply: &mut Vec<u8>) {
    let encoded = survive(|| {
        shared
            .server
            .finish_into(&job.buf[..job.len], decision, reply)
    });
    match encoded {
        Some(true) => send(shared, &job, reply),
        Some(false) | None => discard(shared),
    }
    shared.recycle(job.buf);
}

fn send(shared: &Shared, job: &Job, reply: &[u8]) {
    // Count before sending: the instant the datagram is on the wire a
    // client (or a test joining on its reply) can observe the request as
    // answered, so the counters must already agree.
    shared.stats.replied.fetch_add(1, Ordering::Relaxed);
    shared.ok.inc();
    let _ = shared.socket.send_to(reply, job.peer);
}

fn discard(shared: &Shared) {
    shared.stats.discarded.fetch_add(1, Ordering::Relaxed);
    shared.discarded.inc();
}

/// What a worker does next.
enum Turn {
    /// A parked reply's decision is in: it leaves before anything else is
    /// begun.
    Release(Job, ServerDecision),
    Answer(Job),
    /// Nothing is queued and replies are parked: rather than sleep, see
    /// the oldest through — leading the sync it waits for if nobody is —
    /// so a burst's tail, or a sync led from outside the ingest, is
    /// answered without further traffic.
    Settle(ParkedReply),
    Exit,
}

/// Worker: take [`Turn`]s on per-worker buffers. A pending reply is parked
/// with its datagram while the backlog has room, so the worker moves on
/// and the reply leaves from whichever worker next finds its decision in;
/// at the bound the worker waits it out, so a hung device still
/// backpressures into the kernel buffer. Exits once the shutdown flag is
/// set, the queue has drained and every parked reply has been sent.
fn worker_loop(shared: &Shared) {
    let mut reply = Vec::with_capacity(crate::MAX_PACKET_LEN);
    let mut pw_scratch = Vec::with_capacity(128);
    loop {
        let turn = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let ready = q
                    .parked
                    .iter_mut()
                    .enumerate()
                    .find_map(|(at, p)| p.pending.poll().map(|decision| (at, decision)));
                if let Some((at, decision)) = ready {
                    if let Some(parked) = q.parked.remove(at) {
                        break Turn::Release(parked.job, decision);
                    }
                }
                if let Some(job) = q.jobs.pop_front() {
                    shared.space_ready.notify_one();
                    break Turn::Answer(job);
                }
                if let Some(parked) = q.parked.pop_front() {
                    break Turn::Settle(parked);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break Turn::Exit;
                }
                q = shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        match turn {
            Turn::Release(job, decision) => release(shared, job, decision, &mut reply),
            Turn::Settle(parked) => settle(shared, parked, &mut reply),
            Turn::Answer(job) => {
                if let Some(parked) = answer(shared, job, &mut reply, &mut pw_scratch) {
                    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    if q.jobs.len() + q.parked.len() < shared.queue_cap {
                        q.parked.push_back(parked);
                        continue;
                    }
                    drop(q);
                    settle(shared, parked, &mut reply);
                }
            }
            Turn::Exit => return,
        }
        // A reply left, parked or not: `handed_off` falls here, never at
        // park, so the receiver answers nothing itself with replies parked.
        shared.handed_off.fetch_sub(1, Ordering::Relaxed);
        shared.space_ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, AttributeType};
    use crate::auth::fixture_authenticator;
    use crate::packet::{Code, Packet};
    use crate::server::{Handler, ServerDecision};

    const SECRET: &[u8] = b"ingest-secret";

    fn accept_all() -> Arc<dyn Handler> {
        Arc::new(|_: &Packet, _: Option<&[u8]>| {
            ServerDecision::Accept(vec![Attribute::text(AttributeType::ReplyMessage, "ok")])
        })
    }

    fn request(id: u8) -> Vec<u8> {
        Packet::new(Code::AccessRequest, id, fixture_authenticator("rq"))
            .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
            .encode()
    }

    #[test]
    fn batch_pipeline_answers_and_counts() {
        let server = Arc::new(RadiusServer::new(SECRET, accept_all()));
        let metrics = Arc::new(MetricsRegistry::new());
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = socket.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = BatchedUdpServer::new(server, Arc::clone(&metrics))
            .serve(socket, Arc::clone(&shutdown));

        let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; crate::MAX_PACKET_LEN];
        for id in 0..20u8 {
            client.send_to(&request(id), addr).unwrap();
            let (n, _) = client.recv_from(&mut buf).unwrap();
            let resp = Packet::decode(&buf[..n]).unwrap();
            assert_eq!(resp.code, Code::AccessAccept);
            assert_eq!(resp.identifier, id);
        }
        // Garbage is processed (then discarded), never answered.
        client.send_to(&[0xff, 0xee], addr).unwrap();

        // Wait for *processing* to finish, not just the socket drain: the
        // discard happens on a worker after `received` is bumped.
        let done = |s: IngestStats| s.replied + s.discarded + s.shed >= 21;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !done(handle.stats()) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown.store(true, Ordering::SeqCst);
        let stats = handle.stats();
        handle.join();
        assert_eq!(stats.replied, 20);
        assert_eq!(stats.discarded, 1);
        assert_eq!(stats.shed, 0);
        assert!(stats.batches >= 1);

        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("hpcmfa_radius_datagrams_total{outcome=\"ok\"}"),
            20
        );
        assert_eq!(
            snap.counter("hpcmfa_radius_datagrams_total{outcome=\"discarded\"}"),
            1
        );
        let batch_hist = snap.histogram("hpcmfa_radius_ingest_batch_size").unwrap();
        assert_eq!(batch_hist.sum(), 21, "every datagram counted in a batch");
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE hpcmfa_radius_datagrams_total counter"));
        assert!(text.contains("# TYPE hpcmfa_radius_ingest_batch_size histogram"));
    }

    #[test]
    fn stats_default_is_zero() {
        assert_eq!(IngestStats::default().received, 0);
    }
}
