//! The closed-loop client and the sessions it runs: state fill, warm-up
//! and the timed phase, all driving the stack built in `sut.rs`.
//!
//! One client, on the calling thread: the load generator adds no thread
//! of its own to the ones the program runs.

use crate::disk::Device;
use crate::host;
use crate::stats::Boundary;
use crate::sut::{self, Reply, Sut, Wire};
use crate::trace::{self, Span, Tracing};
use crate::workload::{script_period, Kind, Login, Script, Workload};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a recorded session reads the process's memory.
const MEMORY_EVERY: Duration = Duration::from_millis(100);

/// The closed-loop client: its script position survives across sessions.
pub struct Client {
    script: Script,
    pass: u64,
    wire: Wire,
    socket: UdpSocket,
    segment_logins: u64,
    /// See [`script_period`].
    script_period: u64,
}

impl Client {
    pub fn new(w: &Workload, seed: u64, sut: &Sut) -> Client {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback");
        socket.connect(sut.addr).expect("connect to the front end");
        socket
            .set_read_timeout(Some(sut::EXCHANGE_TIMEOUT))
            .expect("set_read_timeout");
        Client {
            script: Script::new(seed, w.mix),
            pass: 0,
            wire: Wire::new(seed),
            socket,
            segment_logins: w.segment_logins,
            script_period: script_period(w.mix),
        }
    }

    /// Leave the current pass and the `passes` after it out of the
    /// script (see [`Script::reserve_passes`]).
    pub fn reserve_passes(&mut self, passes: u64) -> std::ops::Range<u64> {
        self.script.reserve_passes(passes)
    }

    /// Next scripted login with the code its user types. Opening a new
    /// pass moves the clock one TOTP step. Logins whose code the
    /// generator will not use are passed over (see [`Sut::code_for`]).
    fn next_login(&mut self, sut: &Sut) -> (Login, String) {
        loop {
            let login = self.script.next().expect("scripts are endless");
            if login.pass != self.pass {
                self.pass = login.pass;
                sut.begin_pass(login.pass);
            }
            if let Some(code) = sut.code_for(&login) {
                return (login, code);
            }
        }
    }
}

/// When a session stops starting logins.
#[derive(Clone, Copy)]
pub enum Limit {
    /// After exactly this many.
    Count(u64),
    /// At the first whole [`script_period`] after this moment: every
    /// session then leaves the script where a period starts, so the next
    /// one's segments hold whole ones.
    Until(Instant),
}

/// Reads the clocks of a recorded session as its segments close.
struct Recorder {
    epoch: Instant,
    device: Option<Arc<Device>>,
}

impl Recorder {
    fn boundary(&self) -> Boundary {
        let waiting = self.device.as_ref().map_or(0, |d| d.wait_cpu_ns());
        Boundary {
            wall_ns: self.epoch.elapsed().as_nanos() as u64,
            cpu_ns: (host::process_cpu().as_nanos() as u64).saturating_sub(waiting),
        }
    }
}

/// What one session did.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Wrong, missing, forged or timed-out verdicts.
    pub failed: u64,
    /// Recorded sessions: latency of every login with the expected
    /// verdict, ns, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Recorded sessions: the start boundary plus one per closed segment.
    pub bounds: Vec<Boundary>,
    /// Recorded sessions: bytes allocated and not freed, without this
    /// record's own, MiB, read as a segment closed, `MEMORY_EVERY` or
    /// more apart.
    pub heap_mib: Vec<f64>,
    /// Recorded sessions: resident set size, MiB, read at the same moments.
    pub rss_mib: Vec<f64>,
}

impl Outcome {
    /// Bytes the record itself holds, which are not the program's.
    fn recorded_bytes(&self) -> usize {
        use std::mem::size_of;
        self.latencies_ns.capacity() * size_of::<u64>()
            + self.bounds.capacity() * size_of::<Boundary>()
            + (self.heap_mib.capacity() + self.rss_mib.capacity()) * size_of::<f64>()
    }
}

/// A session in progress: its limit, its tally and its recorder.
struct Progress {
    limit: Limit,
    segment_logins: u64,
    script_period: u64,
    started: u64,
    recorder: Option<Recorder>,
    out: Outcome,
}

impl Progress {
    fn may_start(&mut self) -> bool {
        let open = match self.limit {
            Limit::Count(logins) => self.started < logins,
            Limit::Until(deadline) => {
                !self.started.is_multiple_of(self.script_period) || Instant::now() < deadline
            }
        };
        self.started += u64::from(open);
        open
    }

    fn done(&mut self, started: Instant, as_expected: bool) {
        self.out.attempted += 1;
        if !as_expected {
            self.out.failed += 1;
            return;
        }
        let Some(r) = &self.recorder else {
            return;
        };
        self.out
            .latencies_ns
            .push(started.elapsed().as_nanos() as u64);
        if (self.out.latencies_ns.len() as u64).is_multiple_of(self.segment_logins) {
            let boundary = r.boundary();
            self.out.bounds.push(boundary);
            let due = MEMORY_EVERY.as_nanos() as u64 * self.out.heap_mib.len() as u64;
            if boundary.wall_ns >= due {
                const MIB: f64 = 1024.0 * 1024.0;
                let held = crate::alloc::live_bytes().saturating_sub(self.out.recorded_bytes());
                self.out.heap_mib.push(held as f64 / MIB);
                self.out
                    .rss_mib
                    .push(host::status_kib("VmRSS:") as f64 / 1024.0);
            }
        }
    }

    /// Say what went wrong with a login (the first few).
    fn explain(&self, login: &Login, what: std::fmt::Arguments<'_>) {
        if self.out.failed < 5 {
            eprintln!("loginbench: failed login: {login:?}: {what}");
        }
    }
}

/// How the client drives the stack.
#[derive(Clone, Copy)]
pub enum Via {
    /// Raw datagrams, this many logins in flight.
    Wire { in_flight: usize },
    /// `SshDaemon::connect` on the login node.
    Ssh,
}

impl Via {
    pub fn of(w: &Workload) -> Via {
        if w.ssh {
            Via::Ssh
        } else {
            Via::Wire {
                in_flight: w.in_flight,
            }
        }
    }
}

/// Run one session: the client drives its script until `limit`. With
/// `record` the session's segments are timed; with `tracing` (and its
/// collector on) it records spans.
pub fn session(
    sut: &Sut,
    client: &mut Client,
    via: Via,
    limit: Limit,
    record: bool,
    tracing: Option<&Tracing>,
) -> Outcome {
    let recorder = record.then(|| Recorder {
        epoch: Instant::now(),
        device: sut.device.clone(),
    });
    let mut progress = Progress {
        limit,
        segment_logins: client.segment_logins,
        script_period: client.script_period,
        started: 0,
        out: Outcome {
            bounds: recorder.iter().map(Recorder::boundary).collect(),
            ..Outcome::default()
        },
        recorder,
    };
    let tracing = tracing.filter(|t| t.collector.enabled());
    match via {
        Via::Ssh => ssh_client(sut, client, &mut progress, tracing),
        Via::Wire { in_flight } => wire_client(sut, client, in_flight, &mut progress, tracing),
    }
    progress.out
}

/// Span bookkeeping of one in-flight wire login.
#[derive(Clone, Copy, Default)]
struct LoginSpans {
    login: u64,
    root: u64,
    root_start_ns: u64,
    leg: u64,
    leg_start_ns: u64,
}

struct Slot {
    login: Login,
    code: String,
    leg: u8,
    auth: [u8; 16],
    started: Instant,
    spans: LoginSpans,
}

/// What `pam::modules::token` puts on the wire for one login: a null
/// Access-Request answered by a challenge, then the code. `in_flight`
/// logins share the client's socket, told apart by RADIUS identifier
/// (two per slot, one for each leg).
fn wire_client(
    sut: &Sut,
    c: &mut Client,
    in_flight: usize,
    progress: &mut Progress,
    tracing: Option<&Tracing>,
) {
    assert!(in_flight <= 128, "two identifiers per slot must fit a byte");
    let mut wire = WireLoop {
        sut,
        c,
        progress,
        tracing,
        slots: (0..in_flight).map(|_| None).collect(),
        request: Vec::with_capacity(256),
    };
    for idx in 0..in_flight {
        wire.start(idx);
    }
    let mut datagram = [0u8; 4096];
    while wire.slots.iter().any(Option::is_some) {
        match wire.c.socket.recv(&mut datagram) {
            Ok(n) => wire.on_reply(&datagram[..n]),
            Err(_) => {
                // Timed out: everything still in flight is lost.
                for slot in wire.slots.iter_mut().filter_map(Option::take) {
                    wire.progress
                        .explain(&slot.login, format_args!("leg {} timed out", slot.leg));
                    wire.progress.done(slot.started, false);
                }
            }
        }
    }
}

struct WireLoop<'a> {
    sut: &'a Sut,
    c: &'a mut Client,
    progress: &'a mut Progress,
    tracing: Option<&'a Tracing>,
    slots: Vec<Option<Slot>>,
    request: Vec<u8>,
}

impl WireLoop<'_> {
    /// Start the next scripted login in slot `idx`, if one may start.
    fn start(&mut self, idx: usize) {
        if !self.progress.may_start() {
            return;
        }
        let (login, code) = self.c.next_login(self.sut);
        let mut slot = Slot {
            code,
            login,
            leg: 0,
            auth: [0; 16],
            started: Instant::now(),
            spans: LoginSpans::default(),
        };
        if let Some(t) = self.tracing {
            slot.spans.login = t.collector.next_id();
            slot.spans.root = t.collector.next_id();
            slot.spans.root_start_ns = t.collector.now_ns();
        }
        slot.started = Instant::now();
        self.send(idx, slot, None);
    }

    /// Send leg `slot.leg` of `slot`'s login and park it in slot `idx`;
    /// a send error fails the login.
    fn send(&mut self, idx: usize, mut slot: Slot, state: Option<&[u8]>) {
        let id = (idx * 2) as u8 + slot.leg;
        let password: &[u8] = if slot.leg == 0 {
            b""
        } else {
            slot.code.as_bytes()
        };
        let c = &mut *self.c;
        slot.auth = c
            .wire
            .request(&mut self.request, id, &slot.login, password, state);
        if let Some(t) = self.tracing {
            slot.spans.leg = t.collector.next_id();
            slot.spans.leg_start_ns = t.collector.now_ns();
            t.publish(slot.login.user, slot.spans.login, slot.spans.leg);
        }
        match c.socket.send(&self.request) {
            Ok(_) => self.slots[idx] = Some(slot),
            Err(e) => {
                self.progress
                    .explain(&slot.login, format_args!("send: {e}"));
                self.progress.done(slot.started, false);
            }
        }
    }

    fn on_reply(&mut self, datagram: &[u8]) {
        let Some(id) = sut::reply_id(datagram) else {
            return;
        };
        let idx = usize::from(id / 2);
        let Some(mut slot) = self.slots.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if slot.leg != id % 2 {
            self.slots[idx] = Some(slot);
            return;
        }
        let s = slot.spans;
        self.record("udp_ingest", s.leg, s.root, s.login, s.leg_start_ns);
        let reply = sut::open_reply(datagram, &slot.auth);
        let as_expected = match (slot.leg, &reply) {
            (0, Some(Reply::Challenge(state))) => {
                slot.leg = 1;
                return self.send(idx, slot, Some(state));
            }
            (1, Some(Reply::Accept)) => slot.login.kind == Kind::Valid,
            (1, Some(Reply::Reject)) => slot.login.kind != Kind::Valid,
            // Forged, malformed or out of protocol.
            _ => false,
        };
        if !as_expected {
            self.progress.explain(
                &slot.login,
                format_args!("leg {} answered {reply:?}", slot.leg),
            );
        }
        self.record("client", s.root, 0, s.login, s.root_start_ns);
        self.progress.done(slot.started, as_expected);
        self.start(idx);
    }

    /// Record a span that ends now (traced phases only).
    fn record(&self, name: &'static str, id: u64, parent: u64, login: u64, start_ns: u64) {
        if let Some(t) = self.tracing {
            t.collector.record(Span {
                id,
                parent,
                login,
                name,
                start_ns,
                end_ns: t.collector.now_ns(),
            });
        }
    }
}

/// Interactive password + soft-token logins through the login node:
/// `SshDaemon::connect` down to the OTP server and back.
fn ssh_client(sut: &Sut, c: &mut Client, progress: &mut Progress, tracing: Option<&Tracing>) {
    let node = sut.node.as_ref().expect("an ssh workload has a login node");
    while progress.may_start() {
        let (login, _) = c.next_login(sut);
        let started = Instant::now();
        let granted = match tracing {
            Some(t) => {
                let outer = trace::set_current(trace::Current {
                    login: t.collector.next_id(),
                    span: 0,
                    user: login.user,
                });
                let granted = t.collector.scoped("client", |_| {
                    t.collector.scoped("ssh", |_| node.login(login.user))
                });
                trace::set_current(outer);
                granted
            }
            None => node.login(login.user),
        };
        let as_expected = granted == (login.kind == Kind::Valid);
        if !as_expected {
            progress.explain(&login, format_args!("sshd granted: {granted}"));
        }
        progress.done(started, as_expected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{USERS, WORKLOADS};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn every_workload_logs_in_with_the_expected_verdicts() {
        for w in WORKLOADS {
            let mut sut = Sut::build(&w, 3, None);
            let mut client = Client::new(&w, 3, &sut);
            let done = session(
                &sut,
                &mut client,
                Via::of(&w),
                Limit::Count(400),
                false,
                None,
            );
            assert_eq!((done.attempted, done.failed), (400, 0), "{}", w.name);
            sut.shutdown();
            let ingest = sut.ingest();
            assert_eq!((ingest.shed, ingest.discarded), (0, 0), "{}", w.name);
            assert_eq!(ingest.received, 800, "{}: two requests per login", w.name);
            sut.verify_recovery().expect(w.name);
            assert_eq!(sut.device.is_some(), w.durable);
            if let Some(device) = &sut.device {
                // Enrolment: 2 appends per user; a login: 2 more.
                let c = device.counters();
                assert_eq!(c.appends, 2 * u64::from(USERS) + 2 * 400, "{}", w.name);
                assert_eq!(c.flushes, c.appends + c.snapshots, "{}", w.name);
            }
        }
    }

    #[test]
    fn a_recorded_session_is_cut_into_whole_segments() {
        let w = WORKLOADS[0];
        let mut sut = Sut::build(&w, 7, None);
        let mut client = Client::new(&w, 7, &sut);
        let limit = Limit::Count(2 * w.segment_logins + 5);
        let done = session(&sut, &mut client, Via::of(&w), limit, true, None);
        sut.shutdown();
        assert_eq!((done.attempted, done.failed), (2 * w.segment_logins + 5, 0));
        assert_eq!(done.latencies_ns.len() as u64, 2 * w.segment_logins + 5);
        assert_eq!(done.bounds.len(), 3, "the start and two whole segments");
        assert!(!done.heap_mib.is_empty());
        assert_eq!(done.heap_mib.len(), done.rss_mib.len());
        for pair in done.bounds.windows(2) {
            assert!(pair[0].wall_ns < pair[1].wall_ns && pair[0].cpu_ns < pair[1].cpu_ns);
        }
        let seg = crate::stats::segments(&done.bounds, &done.latencies_ns, w.segment_logins);
        assert_eq!(seg.logins_per_s.len(), 2);
    }

    #[test]
    fn a_timed_session_ends_on_a_script_period() {
        let w = WORKLOADS[0];
        let mut sut = Sut::build(&w, 7, None);
        let mut client = Client::new(&w, 7, &sut);
        let limit = Limit::Until(Instant::now() + Duration::from_millis(20));
        let done = session(&sut, &mut client, Via::of(&w), limit, false, None);
        sut.shutdown();
        assert!(done.attempted > 0 && done.attempted.is_multiple_of(script_period(w.mix)));
    }

    #[test]
    fn spans_join_across_the_udp_hop_and_tile_the_login() {
        for w in [WORKLOADS[2], WORKLOADS[3]] {
            let tracing = Arc::new(Tracing::new(USERS));
            let mut sut = Sut::build(&w, 5, Some(&tracing));
            let mut client = Client::new(&w, 5, &sut);
            tracing.collector.set_enabled(true);
            let done = session(
                &sut,
                &mut client,
                Via::of(&w),
                Limit::Count(200),
                false,
                Some(&tracing),
            );
            tracing.collector.set_enabled(false);
            sut.shutdown();
            assert_eq!((done.attempted, done.failed), (200, 0), "{}", w.name);

            let spans = tracing.collector.drain();
            let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
            let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
            assert_eq!(named("client"), 200, "{}", w.name);
            assert_eq!(named("udp_ingest"), 400, "{}", w.name);
            assert_eq!(named("handler"), 400, "{}", w.name);
            assert_eq!(named("storage_append"), 400, "{}", w.name);
            assert_eq!(named("storage_flush"), 400, "{}", w.name);
            assert_eq!(named("ssh"), if w.ssh { 200 } else { 0 });
            assert_eq!(named("pam_token"), if w.ssh { 200 } else { 0 });
            for s in &spans {
                if s.parent == 0 {
                    assert_eq!(s.name, "client");
                    continue;
                }
                let parent = by_id.get(&s.parent).expect("parent span recorded");
                assert_eq!(parent.login, s.login, "{} under {}", s.name, parent.name);
                if s.name == "handler" {
                    assert_eq!(parent.name, "udp_ingest");
                }
            }
            let selfs = trace::self_times(&spans);
            let closure = trace::closure_pct(&spans, &selfs, "client");
            assert!((50.0..=100.0).contains(&closure), "{}: {closure}", w.name);
        }
    }
}
