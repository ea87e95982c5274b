//! End-to-end RADIUS over real UDP sockets: proves the wire format and the
//! batched serve loop (one worker up to a full pool) work outside the
//! in-memory harness.

use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::client::{ClientConfig, Outcome, RadiusClient};
use hpcmfa_radius::ingest::{BatchedUdpServer, IngestConfig, IngestHandle};
use hpcmfa_radius::packet::{Code, Packet};
use hpcmfa_radius::server::{PendingDecision, RadiusServer, Reply, ServerDecision};
use hpcmfa_radius::transport::{Transport, UdpTransport};
use hpcmfa_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SECRET: &[u8] = b"udp-secret";

/// The simplest front end the ingest loop can be: one worker, one
/// datagram per drain.
fn spawn_server() -> (std::net::SocketAddr, Arc<AtomicBool>, IngestHandle) {
    let handler = Arc::new(|_req: &Packet, pw: Option<&[u8]>| match pw {
        Some(b"") => ServerDecision::Challenge(vec![
            Attribute::new(AttributeType::State, b"udp-state".to_vec()),
            Attribute::text(AttributeType::ReplyMessage, "TACC Token:"),
        ]),
        Some(b"654321") => ServerDecision::Accept(vec![]),
        _ => ServerDecision::Reject(vec![Attribute::text(
            AttributeType::ReplyMessage,
            "Authentication error",
        )]),
    });
    let server = Arc::new(RadiusServer::new(SECRET, handler));
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let config = IngestConfig {
        workers: 1,
        batch_max: 1,
        ..IngestConfig::default()
    };
    let handle = BatchedUdpServer::with_config(server, Arc::new(MetricsRegistry::new()), config)
        .serve(socket, Arc::clone(&shutdown));
    (addr, shutdown, handle)
}

#[test]
fn udp_full_challenge_flow() {
    let (addr, shutdown, handle) = spawn_server();
    let transport: Arc<dyn Transport> =
        Arc::new(UdpTransport::new(addr, Duration::from_millis(500)));
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(11);

    let out = client
        .authenticate(&mut rng, "alice", b"", "192.0.2.7")
        .expect("challenge");
    let Outcome::Challenge { state, message } = out else {
        panic!("expected challenge, got {out:?}");
    };
    assert_eq!(message.as_deref(), Some("TACC Token:"));

    let ok = client
        .respond_to_challenge(&mut rng, "alice", b"654321", "192.0.2.7", &state)
        .expect("accept");
    assert!(matches!(ok, Outcome::Accept { .. }));

    let bad = client
        .respond_to_challenge(&mut rng, "alice", b"111111", "192.0.2.7", &state)
        .expect("reject");
    assert!(matches!(bad, Outcome::Reject { message: Some(m) } if m == "Authentication error"));

    shutdown.store(true, Ordering::SeqCst);
    handle.join();
}

#[test]
fn udp_timeout_when_no_server() {
    // Reserve a port then close it: nothing listens there.
    let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let addr = sock.local_addr().unwrap();
    drop(sock);

    let transport: Arc<dyn Transport> =
        Arc::new(UdpTransport::new(addr, Duration::from_millis(100)));
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(12);
    assert!(client
        .authenticate(&mut rng, "alice", b"654321", "192.0.2.7")
        .is_err());
}

#[test]
fn udp_timeout_when_server_never_answers() {
    // A bound socket that nobody reads: the datagram is accepted by the
    // kernel but no reply ever comes, so the transport itself must report
    // Timeout (not Io, not a hang).
    let silent = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let addr = silent.local_addr().unwrap();

    let transport = UdpTransport::new(addr, Duration::from_millis(100));
    let start = std::time::Instant::now();
    let err = transport.exchange(b"any request").unwrap_err();
    assert_eq!(err, hpcmfa_radius::transport::TransportError::Timeout);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "timeout not honored"
    );
    drop(silent);
}

/// A "server" that answers every datagram with undecodable junk.
fn spawn_junk_server() -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || {
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 4096];
        while !stop.load(Ordering::SeqCst) {
            if let Ok((_, peer)) = socket.recv_from(&mut buf) {
                let _ = socket.send_to(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x01], peer);
            }
        }
    });
    (addr, shutdown, handle)
}

#[test]
fn udp_garbled_reply_fails_over_to_healthy_server() {
    let (junk_addr, junk_stop, junk_handle) = spawn_junk_server();
    let (good_addr, good_stop, good_handle) = spawn_server();

    // Junk server first in the pool: RFC 2865 silently-discard semantics
    // mean the undecodable reply must fail over, not abort the login.
    let transports: Vec<Arc<dyn Transport>> = vec![
        Arc::new(UdpTransport::new(junk_addr, Duration::from_millis(500))),
        Arc::new(UdpTransport::new(good_addr, Duration::from_millis(500))),
    ];
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), transports);
    let mut rng = StdRng::seed_from_u64(13);
    let out = client
        .authenticate(&mut rng, "alice", b"654321", "192.0.2.7")
        .expect("failover past garbled reply");
    assert!(matches!(out, Outcome::Accept { .. }));
    let health = client.server_health();
    assert!(
        health[0].failures > 0,
        "garbled reply not counted as failure"
    );

    junk_stop.store(true, Ordering::SeqCst);
    good_stop.store(true, Ordering::SeqCst);
    junk_handle.join().unwrap();
    good_handle.join();
}

#[test]
fn udp_batched_ingest_serves_clients() {
    // The batched front end must be drop-in behind the same wire format.
    let handler = Arc::new(|_req: &Packet, pw: Option<&[u8]>| match pw {
        Some(b"654321") => ServerDecision::Accept(vec![]),
        _ => ServerDecision::Reject(vec![]),
    });
    let server = Arc::new(RadiusServer::new(SECRET, handler));
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = BatchedUdpServer::new(server, Arc::new(MetricsRegistry::new()))
        .serve(socket, Arc::clone(&shutdown));

    let transport: Arc<dyn Transport> =
        Arc::new(UdpTransport::new(addr, Duration::from_millis(500)));
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..16 {
        let out = client
            .authenticate(&mut rng, "alice", b"654321", "192.0.2.7")
            .expect("accept");
        assert!(matches!(out, Outcome::Accept { .. }));
    }
    shutdown.store(true, Ordering::SeqCst);
    handle.join();
}

#[test]
fn udp_transport_reuses_socket_and_skips_stale_replies() {
    // A slow-then-answered exchange: the first request times out, but its
    // late reply is still queued when the retry runs on the same socket.
    // The transport must skip the stale datagram (identifier mismatch),
    // not surface it as the answer to the second request.
    let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let addr = socket.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        // First request: reply late (after the client's timeout).
        let (n, peer) = socket.recv_from(&mut buf).unwrap();
        let first: Vec<u8> = buf[..n].to_vec();
        std::thread::sleep(Duration::from_millis(200));
        let _ = socket.send_to(&first, peer); // echo = same identifier
                                              // Second request: reply immediately.
        let (n, peer) = socket.recv_from(&mut buf).unwrap();
        let _ = socket.send_to(&buf[..n], peer);
    });

    let transport = UdpTransport::new(addr, Duration::from_millis(100));
    let req1 = [1u8, 7, 0, 20, 0, 0, 0, 0];
    let req2 = [1u8, 9, 0, 20, 0, 0, 0, 0];
    assert_eq!(
        transport.exchange(&req1).unwrap_err(),
        hpcmfa_radius::transport::TransportError::Timeout
    );
    std::thread::sleep(Duration::from_millis(250)); // stale reply arrives
    let reply = transport.exchange(&req2).expect("fresh reply");
    assert_eq!(reply[1], 9, "got the stale reply for identifier 7");
    server.join().unwrap();
}

#[test]
fn udp_concurrent_clients() {
    let (addr, shutdown, handle) = spawn_server();
    let mut joins = Vec::new();
    for t in 0..8 {
        joins.push(std::thread::spawn(move || {
            let transport: Arc<dyn Transport> =
                Arc::new(UdpTransport::new(addr, Duration::from_millis(500)));
            let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), vec![transport]);
            let mut rng = StdRng::seed_from_u64(100 + t);
            for _ in 0..10 {
                let out = client
                    .authenticate(&mut rng, "bob", b"654321", "192.0.2.9")
                    .expect("accept");
                assert!(matches!(out, Outcome::Accept { .. }));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    shutdown.store(true, Ordering::SeqCst);
    handle.join();
}

#[test]
fn udp_transport_reaches_an_ipv6_server() {
    // The client socket must be of the server's address family: one bound
    // to 127.0.0.1 cannot send to `[::1]` (EINVAL), nor off the machine.
    let Ok(socket) = UdpSocket::bind("[::1]:0") else {
        println!("note: [::1] cannot be bound here, IPv6 transport not exercised");
        return;
    };
    let addr = socket.local_addr().unwrap();
    let handler = Arc::new(|_req: &Packet, _pw: Option<&[u8]>| ServerDecision::Accept(vec![]));
    let server = Arc::new(RadiusServer::new(SECRET, handler));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = BatchedUdpServer::new(server, Arc::new(MetricsRegistry::new()))
        .serve(socket, Arc::clone(&shutdown));

    let transport: Arc<dyn Transport> =
        Arc::new(UdpTransport::new(addr, Duration::from_millis(500)));
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-udp"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(61);
    let out = client
        .authenticate(&mut rng, "alice", b"654321", "2001:db8::7")
        .expect("accept over IPv6");
    assert!(matches!(out, Outcome::Accept { .. }));
    shutdown.store(true, Ordering::SeqCst);
    handle.join();
}

/// A server socket and, beside it, an interloper that learns the client's
/// ephemeral port and answers first with the request's own identifier
/// (first octet `0xff`, so the two replies can be told apart). The server
/// echoes the request afterwards only if `server_answers`.
fn spawn_server_with_interloper(
    server_answers: bool,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let interloper = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let (n, peer) = server.recv_from(&mut buf).unwrap();
        let mut forged = buf[..n].to_vec();
        forged[0] = 0xff;
        interloper.send_to(&forged, peer).unwrap();
        if server_answers {
            server.send_to(&buf[..n], peer).unwrap();
        }
    });
    (addr, handle)
}

#[test]
fn udp_transport_ignores_replies_from_other_sources() {
    let request = [1u8, 7, 0, 20, 0, 0, 0, 0];

    // Interloper first, server second: the exchange is the server's.
    let (addr, server) = spawn_server_with_interloper(true);
    let transport = UdpTransport::new(addr, Duration::from_millis(500));
    let reply = transport.exchange(&request).expect("the server's reply");
    assert_eq!(reply, request, "took the interloper's datagram");
    server.join().unwrap();

    // Interloper only: nobody answered, which is a timeout — not a garbled
    // reply to fail over on and charge to the server's breaker.
    let (addr, server) = spawn_server_with_interloper(false);
    let transport = UdpTransport::new(addr, Duration::from_millis(100));
    assert_eq!(
        transport.exchange(&request).unwrap_err(),
        hpcmfa_radius::transport::TransportError::Timeout
    );
    server.join().unwrap();
}

#[test]
fn udp_lone_datagram_delays_followers_by_at_most_one_handler_call() {
    // The receiver answers a lone datagram itself, and while it is inside
    // the handler nobody reads the socket. The bound this test asserts: a
    // datagram arriving then is answered at most ONE handler call later
    // than had the first been handed to a worker (sent + 2 × HANDLER
    // instead of sent + HANDLER) — the next drain finds it and everything
    // beside it and hands them to the pool, where they overlap.
    const HANDLER: Duration = Duration::from_millis(100);
    const SLACK: Duration = Duration::from_millis(70);
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let handler = Arc::new(move |req: &Packet, _pw: Option<&[u8]>| {
        if req.identifier == b'A' {
            entered_tx.send(()).unwrap();
        }
        std::thread::sleep(HANDLER);
        ServerDecision::Accept(vec![])
    });
    let server = Arc::new(RadiusServer::new(SECRET, handler));
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = BatchedUdpServer::new(server, Arc::new(MetricsRegistry::new()))
        .serve(socket, Arc::clone(&shutdown));

    let request = |id: u8| {
        Packet::new(
            Code::AccessRequest,
            id,
            hpcmfa_radius::auth::fixture_authenticator("slow"),
        )
        .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
        .encode()
    };
    let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    client.send_to(&request(b'A'), addr).unwrap();
    // B and C leave only once A's handler call is running (forced, not
    // hoped for), 10 ms into it.
    entered_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("A reached the handler");
    std::thread::sleep(Duration::from_millis(10));
    client.send_to(&request(b'B'), addr).unwrap();
    client.send_to(&request(b'C'), addr).unwrap();
    let followers_sent = std::time::Instant::now();

    let mut buf = [0u8; 4096];
    let mut answered = Vec::new();
    for _ in 0..3 {
        let (n, _) = client.recv_from(&mut buf).expect("reply");
        let resp = Packet::decode(&buf[..n]).unwrap();
        assert_eq!(resp.code, Code::AccessAccept);
        answered.push(resp.identifier);
    }
    let followers_done = followers_sent.elapsed();
    assert_eq!(answered[0], b'A', "A was alone and is answered first");
    answered.sort_unstable();
    assert_eq!(answered, [b'A', b'B', b'C']);
    // Run one after the other, C would end 10 ms short of 3 × HANDLER
    // after it was sent.
    assert!(
        followers_done < 2 * HANDLER + SLACK,
        "B and C took {followers_done:?}: more than one handler call behind, or not overlapped"
    );

    shutdown.store(true, Ordering::SeqCst);
    let stats = handle.stats();
    handle.join();
    assert_eq!(stats.replied, 3);
    assert_eq!(stats.received, 3);
}

/// A server socket nobody reads yet, and a client socket with a
/// two-second read timeout. What is sent before [`serve_on`] is the first
/// drain's batch, so it goes to the workers whole — a datagram drained
/// alone is the receiver's own, and nothing else is read until that
/// handler call returns.
fn bind() -> (UdpSocket, std::net::SocketAddr, UdpSocket) {
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    (socket, addr, client)
}

/// A batched front end over `handler` with `config` on `socket`.
fn serve_on(
    socket: UdpSocket,
    handler: Arc<dyn hpcmfa_radius::server::Handler>,
    config: IngestConfig,
) -> (Arc<AtomicBool>, IngestHandle) {
    let server = Arc::new(RadiusServer::new(SECRET, handler));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = BatchedUdpServer::with_config(server, Arc::new(MetricsRegistry::new()), config)
        .serve(socket, Arc::clone(&shutdown));
    (shutdown, handle)
}

fn request_from(user: &str, id: u8) -> Vec<u8> {
    Packet::new(
        Code::AccessRequest,
        id,
        hpcmfa_radius::auth::fixture_authenticator("udp"),
    )
    .with_attribute(Attribute::text(AttributeType::UserName, user))
    .encode()
}

/// The identifiers of the next `n` replies, each an Access-Accept.
fn accepted(client: &UdpSocket, n: usize) -> Vec<u8> {
    let mut buf = [0u8; 4096];
    let mut ids: Vec<u8> = (0..n)
        .map(|_| {
            let (len, _) = client.recv_from(&mut buf).expect("reply");
            let resp = Packet::decode(&buf[..len]).unwrap();
            assert_eq!(resp.code, Code::AccessAccept);
            resp.identifier
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn udp_a_panicking_handler_costs_its_datagram_not_its_worker() {
    let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let handler = {
        let calls = Arc::clone(&calls);
        Arc::new(move |req: &Packet, _pw: Option<&[u8]>| {
            calls.fetch_add(1, Ordering::SeqCst);
            if req.text(AttributeType::UserName) == Some("mallory") {
                panic!("handler bug (expected by this test)");
            }
            ServerDecision::Accept(vec![])
        })
    };
    let (socket, addr, client) = bind();
    let (shutdown, handle) = serve_on(socket, handler, IngestConfig::default());

    // Five at once: more than there are workers, and a batch, so they go to
    // the pool rather than to the receiver.
    for id in 0..5u8 {
        client.send_to(&request_from("mallory", id), addr).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().discarded < 5 {
        assert!(
            std::time::Instant::now() < deadline,
            "the panicking datagrams were not all counted discarded: {:?} after {} handler calls",
            handle.stats(),
            calls.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The pool still answers a batch...
    for id in 10..14u8 {
        client.send_to(&request_from("alice", id), addr).unwrap();
    }
    assert_eq!(accepted(&client, 4), [10, 11, 12, 13]);
    // ...and no job is forever "handed off": with the workers idle again a
    // lone datagram is the receiver's, which a panic in its own call must
    // not cost either.
    let idle = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().replied < 4 && std::time::Instant::now() < idle {
        std::thread::sleep(Duration::from_millis(5));
    }
    client.send_to(&request_from("mallory", 20), addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.send_to(&request_from("alice", 21), addr).unwrap();
    assert_eq!(accepted(&client, 1), [21]);

    shutdown.store(true, Ordering::SeqCst);
    let stats = handle.stats();
    handle.join();
    assert_eq!((stats.replied, stats.discarded, stats.shed), (5, 6, 0));
}

/// Stands in for the OTP server's WAL: a decision handed out while the
/// disk is unsynced is pending until a sync finishes, and — as there — the
/// sync's leader runs every reply handed over before it ended, a nudge
/// leads the sync if nobody is and returns at once if somebody is, and a
/// wait leads it or waits for it.
#[derive(Default)]
struct Disk {
    state: std::sync::Mutex<DiskState>,
    moved: std::sync::Condvar,
}

#[derive(Default)]
struct DiskState {
    /// How long a sync takes; `None` hangs it until set.
    sync_time: Option<Duration>,
    syncing: bool,
    synced: bool,
    /// Replies handed over, for the sync's leader to run.
    replies: Vec<Reply>,
    /// Pending decisions handed out, and how many of them a thread is
    /// blocked waiting on.
    pending: usize,
    waited: usize,
}

impl Disk {
    /// Lead the sync if nobody is — a hung device holds the leader inside
    /// it — then run every reply handed over. Whether this thread led it.
    fn lead(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.syncing || state.synced {
            return false;
        }
        state.syncing = true;
        let sync_time = loop {
            match state.sync_time {
                Some(sync_time) => break sync_time,
                None => state = self.moved.wait(state).unwrap(),
            }
        };
        drop(state);
        std::thread::sleep(sync_time);
        let mut state = self.state.lock().unwrap();
        state.synced = true;
        let replies = std::mem::take(&mut state.replies);
        drop(state);
        self.moved.notify_all();
        for reply in replies {
            reply(ServerDecision::Accept(vec![]));
        }
        true
    }
}

struct UntilSynced(Arc<Disk>);

impl PendingDecision for UntilSynced {
    fn deliver(&self, reply: Reply) {
        let mut state = self.0.state.lock().unwrap();
        if state.synced {
            drop(state);
            reply(ServerDecision::Accept(vec![]));
        } else {
            state.replies.push(reply);
        }
    }

    /// One sync covers every decision: it never leaves more to do, so the
    /// waker is never woken.
    fn nudge(&self, _waker: &std::task::Waker) -> bool {
        self.0.lead()
    }

    fn wait(self: Arc<Self>) -> ServerDecision {
        let disk = &self.0;
        disk.state.lock().unwrap().waited += 1;
        disk.lead();
        let mut state = disk.state.lock().unwrap();
        while !state.synced {
            state = disk.moved.wait(state).unwrap();
        }
        ServerDecision::Accept(vec![])
    }
}

fn pending_on(disk: &Arc<Disk>) -> Arc<dyn hpcmfa_radius::server::Handler> {
    let disk = Arc::clone(disk);
    Arc::new(move |_req: &Packet, _pw: Option<&[u8]>| {
        disk.state.lock().unwrap().pending += 1;
        ServerDecision::Pending(Arc::new(UntilSynced(Arc::clone(&disk))))
    })
}

#[test]
fn udp_a_bursts_tail_is_answered_within_two_syncs_without_further_traffic() {
    const SYNC: Duration = Duration::from_millis(100);
    const SLACK: Duration = Duration::from_millis(100);
    let disk = Arc::new(Disk::default());
    disk.state.lock().unwrap().sync_time = Some(SYNC);
    let (socket, addr, client) = bind();

    // Twice as many as there are workers, and nothing after them: nobody
    // but an idle worker can run the sync the parked replies wait for.
    for id in 0..8u8 {
        client.send_to(&request_from("alice", id), addr).unwrap();
    }
    let sent = std::time::Instant::now();
    let (shutdown, handle) = serve_on(socket, pending_on(&disk), IngestConfig::default());
    assert_eq!(accepted(&client, 8), [0, 1, 2, 3, 4, 5, 6, 7]);
    let took = sent.elapsed();
    assert!(took < 2 * SYNC + SLACK, "the burst took {took:?}");
    // Eight replies from four workers, and no worker waited for one: every
    // reply left from the thread that led the sync.
    assert_eq!(disk.state.lock().unwrap().waited, 0);

    shutdown.store(true, Ordering::SeqCst);
    let stats = handle.stats();
    handle.join();
    assert_eq!((stats.replied, stats.discarded, stats.shed), (8, 0, 0));
}

#[test]
fn udp_shutdown_sends_what_is_parked_before_join_returns() {
    // The device hangs until the test says so.
    let disk = Arc::new(Disk::default());
    let (socket, addr, client) = bind();
    for id in 0..8u8 {
        client.send_to(&request_from("alice", id), addr).unwrap();
    }
    let (shutdown, handle) = serve_on(socket, pending_on(&disk), IngestConfig::default());
    // Every datagram has been through the handler — its commit appended,
    // in the OTP server's terms — and none can have been answered.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while disk.state.lock().unwrap().pending < 8 {
        assert!(std::time::Instant::now() < deadline, "{:?}", handle.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown.store(true, Ordering::SeqCst);
    assert_eq!(handle.stats().replied, 0);
    disk.state.lock().unwrap().sync_time = Some(Duration::ZERO);
    disk.moved.notify_all();
    handle.join();
    // `join` returned, so every reply is on the wire already.
    client
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    assert_eq!(accepted(&client, 8), [0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn udp_parked_replies_count_against_the_queue_bound() {
    const WORKERS: usize = 2;
    const CAP: usize = 2;
    let disk = Arc::new(Disk::default());
    // The device hangs: no sync ends until the test says so.
    let config = IngestConfig {
        workers: WORKERS,
        batch_max: CAP,
        queue_cap: 1,
        ..IngestConfig::default()
    };
    let (socket, addr, client) = bind();
    for id in 0..12u8 {
        client.send_to(&request_from("alice", id), addr).unwrap();
    }
    let (shutdown, handle) = serve_on(socket, pending_on(&disk), config);

    // The backlog fills with parked replies, and a worker with nothing
    // queued leads the sync they wait for, which hangs; give the pipeline
    // time to overrun the bound if it is going to.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !disk.state.lock().unwrap().syncing {
        assert!(std::time::Instant::now() < deadline, "{:?}", handle.stats());
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));
    let begun = disk.state.lock().unwrap().pending;
    assert!(
        begun <= WORKERS + CAP,
        "{begun} datagrams were begun against a backlog bound of {CAP} and {WORKERS} workers"
    );
    assert_eq!(handle.stats().replied, 0);

    // The device comes back: everything is answered, nothing was shed.
    disk.state.lock().unwrap().sync_time = Some(Duration::ZERO);
    disk.moved.notify_all();
    assert_eq!(accepted(&client, 12), (0..12).collect::<Vec<u8>>());
    shutdown.store(true, Ordering::SeqCst);
    let stats = handle.stats();
    handle.join();
    assert_eq!((stats.replied, stats.discarded, stats.shed), (12, 0, 0));
}
