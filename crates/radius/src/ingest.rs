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
//!   flight — the worker hands the decision the reply
//!   ([`PendingDecision::deliver`]) with the receive buffer it will be
//!   encoded from, and takes the next datagram, so the commits of a burst
//!   pile into the next sync instead of waiting one worker each.
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
//! * the thread that concludes the decision: a parked reply is encoded
//!   from its receive buffer, sent and its buffer recycled by the reply
//!   the worker handed over, wherever that runs — for the OTP handler, on
//!   the thread holding the pump's release turn, usually the leader of
//!   the sync that covered the commit. One sync's replies leave one after
//!   another from that thread, and no ingest thread waits for them;
//! * a worker with nothing queued and replies parked nudges the newest
//!   parked decision ([`PendingDecision::nudge`]), which leads the sync
//!   the oldest one waits for if none is in flight, and sends what it
//!   covers, but returns at once if another thread is at it: a burst's
//!   tail is answered within one sync without further traffic. A worker
//!   whose nudge found the work in other hands sleeps until a job comes
//!   or the ingest is roused: the nudge's waker runs when the sync it
//!   found in flight ends, if that sync left a parked decision to see
//!   through, so commits parked behind a sync led from outside the ingest
//!   (an admin commit, another front end) are led as soon as it ends. Its
//!   50 ms poll nudges again too, for a decision that never wakes it;
//! * a parked reply stays *handed off* until it leaves, so the receiver's
//!   lone-datagram rule never fires with replies parked (and a pending
//!   decision the receiver itself meets, it waits out with
//!   [`PendingDecision::wait`]);
//! * queued plus parked never exceeds [`IngestConfig::queue_cap`]: at the
//!   bound a worker waits for its decision, so a hung device still
//!   backpressures into the kernel buffer;
//! * shutdown sends what is parked before [`IngestHandle::join`] returns;
//!   `replied` and `outcome="ok"` count a reply when it leaves;
//! * a handler call (or a pending decision) that panics is caught: its
//!   datagram counts `discarded`, its buffer is recycled, and the thread
//!   carries on. A reply dropped unsent, its decision never concluded,
//!   counts its datagram the same way.
//!
//! Who is woken, and when: a condvar notify is a syscall whether or not
//! anyone waits, so the backlog counts its sleepers and only they are
//! told. Both counts change under the queue lock, which every wait holds.
//!
//! * a batch handed off wakes as many workers as it queued jobs, but no
//!   more than are asleep; a worker that is awake needs no wake-up, since
//!   it looks at the queue under the lock before it sleeps;
//! * a parked reply needs no wake-up: whichever thread concludes its
//!   decision sends it. A rouse wakes one sleeping worker, and the first
//!   worker to look takes it;
//! * the receiver is told there is room only while it waits for some, at
//!   [`IngestConfig::queue_cap`].
//!
//! Observability: `hpcmfa_radius_ingest_batch_size` (histogram of
//! datagrams per drain) and `hpcmfa_radius_datagrams_total{outcome}`
//! (`ok` / `discarded` / `shed`) render on `/system/metrics` alongside
//! the rest of the auth path.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::server::{Begun, PendingDecision, RadiusServer, ServerDecision};
use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry};
use std::cell::Cell;
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Wake, Waker};
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

impl Job {
    /// The datagram's bytes.
    fn datagram(&self) -> &[u8] {
        received(self.buf.as_ref(), self.len)
    }
}

/// The `len` bytes a receive left at the front of `buf`.
fn received(buf: &[u8], len: usize) -> &[u8] {
    buf.get(..len).unwrap_or_default()
}

/// A datagram whose reply waits for its decision, in the receive buffer it
/// arrived in (the reply is encoded from it).
struct ParkedReply {
    job: Job,
    pending: Arc<dyn PendingDecision>,
}

/// What the workers have ahead of them, and who sleeps until it changes.
/// [`Backlog::len`] never exceeds [`Shared::queue_cap`].
#[derive(Default)]
struct Backlog {
    jobs: VecDeque<Job>,
    /// Replies handed to their pending decisions and not sent yet.
    parked: usize,
    /// The decision last handed a reply while any is parked: what a
    /// worker with nothing queued nudges.
    newest: Option<Arc<dyn PendingDecision>>,
    /// A nudge's waker ran: a worker turned away nudges again.
    roused: bool,
    /// Workers asleep on [`Shared::job_ready`].
    idle: usize,
    /// Whether the receiver sleeps on [`Shared::space_ready`].
    receiver_waits: bool,
}

impl Backlog {
    /// Queued jobs plus parked replies: what counts against the cap.
    fn len(&self) -> usize {
        self.jobs.len().saturating_add(self.parked)
    }
}

/// A parked datagram on its way out, on whichever thread concludes its
/// decision. It leaves the backlog when it drops: sent, or — its decision
/// never concluded — counted `discarded`.
struct Outbound {
    shared: Arc<Shared>,
    job: Option<Job>,
}

thread_local! {
    /// The reply buffer of a parked datagram, on the thread that sends it:
    /// that thread's own buffers may be in use further up its stack.
    static PARKED_REPLY: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl Outbound {
    fn send(mut self, decision: ServerDecision) {
        if let Some(job) = self.job.take() {
            let mut reply = PARKED_REPLY.take();
            release(&self.shared, job, decision, &mut reply);
            PARKED_REPLY.set(reply);
        }
    }
}

impl Drop for Outbound {
    fn drop(&mut self) {
        let shared = &*self.shared;
        if let Some(job) = self.job.take() {
            discard(shared);
            shared.recycle(job.buf);
        }
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.parked = q.parked.saturating_sub(1);
        made_room(shared, &q);
        let newest = if q.parked == 0 { q.newest.take() } else { None };
        drop(q);
        drop(newest);
        // It left: only now may the receiver answer a datagram itself.
        shared.handed_off.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a nudge leaves to be woken by: it rouses the ingest, if it still
/// runs.
struct Rouse(Weak<Shared>);

impl Wake for Rouse {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let Some(shared) = self.0.upgrade() else {
            return;
        };
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.roused = true;
        let sleeps = q.idle > 0;
        drop(q);
        if sleeps {
            shared.job_ready.notify_one();
        }
    }
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
    fn new(
        server: Arc<RadiusServer>,
        metrics: &MetricsRegistry,
        config: &IngestConfig,
        socket: UdpSocket,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let outcome = |o: &str| metrics.counter("hpcmfa_radius_datagrams_total", &[("outcome", o)]);
        Shared {
            server,
            ok: outcome("ok"),
            discarded: outcome("discarded"),
            shed: outcome("shed"),
            batch_size: metrics.histogram("hpcmfa_radius_ingest_batch_size", &[]),
            socket,
            queue: Mutex::default(),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            shutdown,
            handed_off: AtomicUsize::new(0),
            pool: Mutex::new(Vec::new()),
            queue_cap: config.queue_cap.max(config.batch_max).max(1),
            stats: RawStats::default(),
        }
    }

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
        let shared = Arc::new(Shared::new(
            Arc::clone(&self.server),
            &self.metrics,
            &self.config,
            socket,
            shutdown,
        ));

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
                let lane = classify(classifier, &peer, received(buf.as_ref(), len));
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
                    let lane = classify(classifier, &peer, received(buf.as_ref(), len));
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
                    admitted_best_effort = admitted_best_effort.saturating_add(1);
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
        if lone {
            if let Some(job) = admitted.pop() {
                // Nothing is parked (`handed_off` is zero) and nothing is
                // read while the receiver is here: a pending decision has
                // nothing to overlap with, and the receiver waits it out.
                if let Some(parked) = answer(shared, job, &mut reply, &mut pw_scratch) {
                    settle(shared, parked, &mut reply);
                }
            }
        } else {
            enqueue(shared, &mut admitted);
        }
    }
    Ok(())
}

fn classify(classifier: Option<&LaneClassifier>, peer: &SocketAddr, data: &[u8]) -> Lane {
    classifier.map_or(Lane::Trusted, |c| c(peer, data))
}

/// Push a batch's jobs under one hold of the queue lock, blocking while
/// the backlog is at capacity (backpressure: excess load waits in the
/// kernel socket buffer, not in process memory). Workers see the batch
/// whole: one that finds the queue empty, and nudges a parked reply —
/// leading its sync — while the receiver is still handing off datagrams
/// it has already drained, would hold the rest of the batch behind that
/// sync.
fn enqueue(shared: &Shared, jobs: &mut Vec<Job>) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    let mut queued = 0usize;
    for job in jobs.drain(..) {
        while q.len() >= shared.queue_cap && !shared.shutdown.load(Ordering::SeqCst) {
            // The workers take what is queued before there is room.
            wake_workers(shared, std::mem::take(&mut queued).min(q.idle));
            q.receiver_waits = true;
            q = shared
                .space_ready
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            q.receiver_waits = false;
        }
        shared.handed_off.fetch_add(1, Ordering::Relaxed);
        q.jobs.push_back(job);
        queued = queued.saturating_add(1);
    }
    let sleepers = queued.min(q.idle);
    drop(q);
    wake_workers(shared, sleepers);
}

/// Wake `n` of the workers asleep on [`Shared::job_ready`].
fn wake_workers(shared: &Shared, n: usize) {
    (0..n).for_each(|_| shared.job_ready.notify_one());
}

/// A job or a parked reply left the backlog: tell the receiver, if it
/// waits for room.
fn made_room(shared: &Shared, q: &Backlog) {
    if q.receiver_waits {
        shared.space_ready.notify_one();
    }
}

/// A handler (or a pending decision) that panics costs its own datagram,
/// not the thread that ran it.
fn survive<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Run one datagram through the zero-copy server path on the caller's
/// reusable buffers and flush the reply to the socket — or hand the
/// datagram back with its pending decision, for the caller to [`park`] or
/// [`settle`].
fn answer(
    shared: &Shared,
    job: Job,
    reply: &mut Vec<u8>,
    pw_scratch: &mut Vec<u8>,
) -> Option<ParkedReply> {
    let begun = survive(|| shared.server.begin_into(job.datagram(), reply, pw_scratch));
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
    let encoded = survive(|| shared.server.finish_into(job.datagram(), decision, reply));
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

/// Hand `parked`'s decision the reply that sends it, if the backlog has
/// room for one more; at the bound it comes back, for the caller to
/// [`settle`].
fn park(shared: &Arc<Shared>, parked: ParkedReply) -> Result<(), ParkedReply> {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.len() >= shared.queue_cap {
        return Err(parked);
    }
    let ParkedReply { job, pending } = parked;
    // Counted before it is handed over: the reply may leave at once.
    q.parked = q.parked.saturating_add(1);
    let older = q.newest.replace(Arc::clone(&pending));
    drop(q);
    drop(older);
    let out = Outbound {
        shared: Arc::clone(shared),
        job: Some(job),
    };
    // A `deliver` that panics drops the reply unsent.
    let _ = survive(|| pending.deliver(Box::new(move |decision| out.send(decision))));
    Ok(())
}

/// What a worker does next.
enum Turn {
    Answer(Job),
    /// Nothing is queued and replies are parked: see their decisions along
    /// — leading the sync they wait for if nobody is — so a burst's tail is
    /// answered without further traffic.
    Nudge(Arc<dyn PendingDecision>),
    Exit,
}

/// Worker: take [`Turn`]s on per-worker buffers. A pending reply is handed
/// to its decision while the backlog has room, so the worker moves on and
/// the reply leaves from whichever thread concludes the decision; at the
/// bound the worker waits it out, so a hung device still backpressures
/// into the kernel buffer. Exits once the shutdown flag is set, the queue
/// has drained and every parked reply has been sent.
fn worker_loop(shared: &Arc<Shared>) {
    let mut reply = Vec::with_capacity(crate::MAX_PACKET_LEN);
    let mut pw_scratch = Vec::with_capacity(128);
    let waker = Waker::from(Arc::new(Rouse(Arc::downgrade(shared))));
    // The last nudge found the work in other hands: nudge again only after
    // a wake-up, not at once.
    let mut turned_away = false;
    loop {
        let turn = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    made_room(shared, &q);
                    break Turn::Answer(job);
                }
                if q.parked > 0 && (!turned_away || std::mem::take(&mut q.roused)) {
                    if let Some(newest) = &q.newest {
                        break Turn::Nudge(Arc::clone(newest));
                    }
                }
                if shared.shutdown.load(Ordering::SeqCst) && q.parked == 0 {
                    break Turn::Exit;
                }
                q.idle = q.idle.saturating_add(1);
                q = shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                q.idle = q.idle.saturating_sub(1);
                turned_away = false;
            }
        };
        match turn {
            Turn::Answer(job) => {
                turned_away = false;
                if let Some(parked) = answer(shared, job, &mut reply, &mut pw_scratch) {
                    match park(shared, parked) {
                        // `handed_off` falls when the reply leaves.
                        Ok(()) => continue,
                        Err(parked) => settle(shared, parked, &mut reply),
                    }
                }
                shared.handed_off.fetch_sub(1, Ordering::Relaxed);
            }
            Turn::Nudge(pending) => turned_away = survive(|| pending.nudge(&waker)) != Some(true),
            Turn::Exit => return,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]
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

    /// A pipeline's shared state with `workers` workers running and no
    /// receiver: the test enqueues for it.
    fn workers_only(
        handler: Arc<dyn Handler>,
        workers: usize,
        queue_cap: usize,
    ) -> (Arc<Shared>, Vec<std::thread::JoinHandle<()>>) {
        let config = IngestConfig {
            batch_max: 1,
            queue_cap,
            ..IngestConfig::default()
        };
        let shared = Arc::new(Shared::new(
            Arc::new(RadiusServer::new(SECRET, handler)),
            &MetricsRegistry::new(),
            &config,
            UdpSocket::bind(("127.0.0.1", 0)).unwrap(),
            Arc::new(AtomicBool::new(false)),
        ));
        let threads = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        (shared, threads)
    }

    fn shut_down(shared: &Shared, workers: Vec<std::thread::JoinHandle<()>>) {
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.job_ready.notify_all();
        workers.into_iter().for_each(|w| w.join().unwrap());
    }

    /// `n` requests as jobs, answered to a socket nobody reads.
    fn jobs(n: usize) -> Vec<Job> {
        let peer = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let peer = peer.local_addr().unwrap();
        (0..n)
            .map(|i| {
                let bytes = request(u8::try_from(i).unwrap());
                let mut buf = Box::new([0u8; crate::MAX_PACKET_LEN]);
                buf[..bytes.len()].copy_from_slice(&bytes);
                Job {
                    buf,
                    len: bytes.len(),
                    peer,
                }
            })
            .collect()
    }

    fn until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "never {what}");
            std::thread::yield_now();
        }
    }

    /// A notified thread is running within a few milliseconds; one left to
    /// its poll waits for up to 50.
    const WOKEN_WITHIN: Duration = Duration::from_millis(25);

    #[test]
    fn a_batch_wakes_as_many_sleeping_workers_as_it_has_jobs() {
        const WORKERS: usize = 4;
        // Each job's handler waits for all the others: they can only meet
        // if a worker was woken for every one.
        let met = Arc::new(std::sync::Barrier::new(WORKERS + 1));
        let handler: Arc<dyn Handler> = {
            let met = Arc::clone(&met);
            Arc::new(move |_: &Packet, _: Option<&[u8]>| {
                met.wait();
                ServerDecision::Reject(Vec::new())
            })
        };
        let (shared, workers) = workers_only(handler, WORKERS, 64);
        // A worker's poll is as likely to end at any moment, so one
        // batch could meet by luck: several cannot.
        for round in 0..5 {
            until("all asleep", || {
                shared.queue.lock().unwrap().idle == WORKERS
            });
            let queued = std::time::Instant::now();
            enqueue(&shared, &mut jobs(WORKERS));
            met.wait();
            let took = queued.elapsed();
            assert!(took < WOKEN_WITHIN, "round {round}: met after {took:?}");
        }
        shut_down(&shared, workers);
        assert_eq!(
            shared.stats.replied.load(Ordering::Relaxed),
            5 * WORKERS as u64
        );
    }

    #[test]
    fn a_receiver_at_the_cap_is_woken_when_a_worker_takes_a_job() {
        // One worker, held inside its first job; the cap is one job.
        let (gate, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        let handler: Arc<dyn Handler> = Arc::new(move |_: &Packet, _: Option<&[u8]>| {
            held.lock().unwrap().recv().unwrap();
            ServerDecision::Reject(Vec::new())
        });
        let (shared, workers) = workers_only(handler, 1, 1);
        let mut batch = jobs(3);
        enqueue(&shared, &mut vec![batch.remove(0)]);
        until("taken", || shared.queue.lock().unwrap().jobs.is_empty());
        enqueue(&shared, &mut vec![batch.remove(0)]);

        let receiver = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                enqueue(&shared, &mut batch);
                std::time::Instant::now()
            })
        };
        until("waiting for room", || {
            shared.queue.lock().unwrap().receiver_waits
        });
        let opened = std::time::Instant::now();
        (0..3).for_each(|_| gate.send(()).unwrap());
        let took = receiver.join().unwrap().duration_since(opened);
        assert!(
            took < WOKEN_WITHIN,
            "room was made {took:?} before it was noticed"
        );
        until("answered", || {
            shared.stats.replied.load(Ordering::Relaxed) == 3
        });
        shut_down(&shared, workers);
        assert!(!shared.queue.lock().unwrap().receiver_waits);
    }

    #[test]
    fn stats_default_is_zero() {
        assert_eq!(IngestStats::default().received, 0);
    }
}
