//! Wire-rate batched UDP ingest for the RADIUS server (DESIGN.md §16).
//!
//! The RADIUS server's one UDP front end. A loop that did one
//! recv → process → send round per datagram would make every datagram
//! wait for the full processing of the one before it, so a login storm
//! queues in the kernel and overflows the socket buffer. This module is
//! an event-loop pipeline instead (`workers: 1, batch_max: 1` is that
//! simple loop, for callers that want it):
//!
//! * a **receiver** thread drains the socket in batches — one blocking
//!   wait (bounded by [`IngestConfig::poll_wait`]) for the first
//!   datagram, then nonblocking reads until the batch is full or the
//!   socket is empty: the portable `std::net` shape of `recvmmsg`;
//! * datagrams land in pooled receive buffers (recycled worker → pool →
//!   receiver, so steady state allocates nothing) and are dispatched to
//!   a **bounded worker pool** over a backpressured queue;
//! * workers run the zero-copy [`RadiusServer::process_into`] path with
//!   per-worker reusable reply and password-scratch buffers, and flush
//!   each reply straight back to the shared socket as it completes — the
//!   batch boundary governs fairness and metrics, not reply latency;
//! * a per-batch **fairness quota** bounds how many best-effort
//!   datagrams one drain may admit, so a best-effort flood cannot starve
//!   trusted-lane traffic that arrived in the same batch. This is the
//!   transport-level twin of the §12 admission lanes the OTP handler
//!   applies downstream; the [`Lane`] vocabulary matches.
//!
//! Observability: `hpcmfa_radius_ingest_batch_size` (histogram of
//! datagrams per drain) and `hpcmfa_radius_datagrams_total{outcome}`
//! (`ok` / `discarded` / `shed`) render on `/system/metrics` alongside
//! the rest of the auth path.

use crate::server::RadiusServer;
use hpcmfa_telemetry::{Counter, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
pub type LaneClassifier = dyn Fn(&SocketAddr, &[u8]) -> Lane + Send + Sync;

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
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    space_ready: Condvar,
    shutdown: Arc<AtomicBool>,
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
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            shutdown,
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

/// Drain the socket in batches and enqueue jobs, applying the per-batch
/// best-effort quota. Runs on its own thread until shutdown.
fn receiver_loop(shared: &Shared, config: &IngestConfig, classifier: Option<&LaneClassifier>) {
    shared
        .socket
        .set_read_timeout(Some(config.poll_wait))
        .expect("set_read_timeout");
    let batch_max = config.batch_max.max(1);
    let mut batch: Vec<(Job, Lane)> = Vec::with_capacity(batch_max);
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
            Err(_) => {
                shared.recycle(buf);
                break;
            }
        }
        // Phase 2: nonblocking drain until the batch fills or the socket
        // is empty — the recvmmsg-style bulk read.
        shared
            .socket
            .set_nonblocking(true)
            .expect("set_nonblocking");
        while batch.len() < batch_max {
            let mut buf = shared.take_buf();
            match shared.socket.recv_from(buf.as_mut()) {
                Ok((len, peer)) => {
                    let lane = classify(classifier, &peer, &buf[..len]);
                    batch.push((Job { buf, len, peer }, lane));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    shared.recycle(buf);
                    break;
                }
                Err(_) => {
                    shared.recycle(buf);
                    break;
                }
            }
        }
        shared.socket.set_nonblocking(false).expect("set_blocking");
        shared
            .socket
            .set_read_timeout(Some(config.poll_wait))
            .expect("set_read_timeout");

        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .received
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.batch_size.record(batch.len() as u64);

        // Phase 3: admit within the batch — trusted datagrams first (a
        // flood arriving alongside them can never push them out), then
        // best-effort up to the quota; the surplus is shed unprocessed.
        let mut admitted_best_effort = 0usize;
        for (job, lane) in batch.drain(..) {
            match lane {
                Lane::Trusted => enqueue(shared, job),
                Lane::BestEffort if admitted_best_effort < config.best_effort_batch_quota => {
                    admitted_best_effort += 1;
                    enqueue(shared, job);
                }
                Lane::BestEffort => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shared.shed.inc();
                    shared.recycle(job.buf);
                }
            }
        }
    }
    // Wake every worker so they observe the shutdown flag.
    shared.job_ready.notify_all();
}

fn classify(classifier: Option<&LaneClassifier>, peer: &SocketAddr, data: &[u8]) -> Lane {
    classifier.map_or(Lane::Trusted, |c| c(peer, data))
}

/// Push one job, blocking while the queue is at capacity (backpressure:
/// excess load waits in the kernel socket buffer, not in process memory).
fn enqueue(shared: &Shared, job: Job) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    while q.len() >= shared.queue_cap && !shared.shutdown.load(Ordering::SeqCst) {
        q = shared
            .space_ready
            .wait_timeout(q, Duration::from_millis(50))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
    q.push_back(job);
    drop(q);
    shared.job_ready.notify_one();
}

/// Worker: pop jobs, run the zero-copy server path with reusable buffers,
/// flush replies to the socket, recycle receive buffers. Exits once the
/// shutdown flag is set and the queue has drained.
fn worker_loop(shared: &Shared) {
    let mut reply = Vec::with_capacity(crate::MAX_PACKET_LEN);
    let mut pw_scratch = Vec::with_capacity(128);
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    shared.space_ready.notify_one();
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some(job) = job else { return };
        if shared
            .server
            .process_into(&job.buf[..job.len], &mut reply, &mut pw_scratch)
        {
            // Count before sending: the instant the datagram is on the wire
            // a client (or a test joining on its reply) can observe the
            // request as answered, so the counters must already agree.
            shared.stats.replied.fetch_add(1, Ordering::Relaxed);
            shared.ok.inc();
            let _ = shared.socket.send_to(&reply, job.peer);
        } else {
            shared.stats.discarded.fetch_add(1, Ordering::Relaxed);
            shared.discarded.inc();
        }
        shared.recycle(job.buf);
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
