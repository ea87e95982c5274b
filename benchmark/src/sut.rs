//! The system under test: every call into the repository lives here.
//!
//! The benchmark composes the real stack the way `hpcmfa_core::Center`
//! does, except that the RADIUS hop is loopback UDP into
//! `BatchedUdpServer` (which `Center` cannot wire) and the OTP server's
//! WAL goes through the pinned device. An API rename in the repository
//! is a fix in this file only.

use crate::disk::Device;
use crate::stats::{percentile, quiet_low};
use crate::trace::{self, Tracing};
use crate::workload::{Kind, Login, Workload, USERS};
use crate::{metric, Metric};
use hpcmfa_crypto::hmac::HmacKey;
use hpcmfa_crypto::md5::md5;
use hpcmfa_crypto::sha1::Sha1;
use hpcmfa_crypto::sha256::sha256;
use hpcmfa_crypto::PreparedHmac;
use hpcmfa_directory::ldap::{Directory, Entry, Filter};
use hpcmfa_otp::clock::{Clock, SimClock};
use hpcmfa_otp::hotp::hotp_value_prepared;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::durability::snapshot::snapshot_live;
use hpcmfa_otpserver::durability::{ReplicationMode, WalRecord};
use hpcmfa_otpserver::server::{ServerConfig, ValidationOutcome};
use hpcmfa_otpserver::sms::SmsProvider;
use hpcmfa_otpserver::{
    recover, FileBackend, LinkFaultPlan, LinotpServer, MemoryBackend, OtpCluster, OtpRadiusHandler,
    Persistence, ReplEnvelope, ReplFrame, StorageBackend, StorageError, TwilioSim,
    DRIFT_TOLERANCE_SECS,
};
use hpcmfa_pam::access::{AccessConfig, WatchedAccessConfig};
use hpcmfa_pam::modules::exemption::ExemptionModule;
use hpcmfa_pam::modules::password::{
    hash_password, verify_password, UnixPasswordModule, PASSWORD_ATTR,
};
use hpcmfa_pam::modules::pubkey::PubkeyCheckModule;
use hpcmfa_pam::modules::token::{EnforcementMode, TokenModule};
use hpcmfa_pam::{
    ControlFlag, PamContext, PamModule, PamResult, PamStack, PamVerdict, ScriptedConversation,
};
use hpcmfa_radius::auth::{hide_password, request_authenticator, verify_response};
use hpcmfa_radius::packet::{Packet, PacketView};
use hpcmfa_radius::transport::UdpTransport;
use hpcmfa_radius::{
    Attribute, AttributeType, BatchedUdpServer, BreakerConfig, ClientConfig, Code, FaultPlan,
    Handler, InMemoryTransport, IngestHandle, IngestStats, RadiusClient, RadiusServer,
    ServerDecision, Transport, TransportError,
};
use hpcmfa_risk::{GeoDb, RiskEngine, RiskGateModule, RiskWeights};
use hpcmfa_ssh::client::TokenSource;
use hpcmfa_ssh::{AuthLog, ClientProfile, SshDaemon};
use hpcmfa_telemetry::events::DEFAULT_EVENTS_CAP;
use hpcmfa_telemetry::{Histogram, MetricsRegistry, SpanCtx, TraceClock, TraceId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RADIUS shared secret between the login nodes and the server.
const SECRET: &[u8] = b"loginbench-radius-secret";

/// Virtual time of pass 0, aligned to a TOTP step boundary.
const T0: u64 = 1_475_000_010;

/// Seconds per pass: one TOTP step, so each pass's codes are fresh.
const STEP_SECS: u64 = 30;

const PEOPLE_BASE: &str = "ou=people,dc=bench";

/// NAS-Identifier of the one login node.
const NODE_NAME: &str = "login0";

/// Audit ring of every workload, scaled down from the server's
/// 1 000 000 default so that it can be filled before anything is timed:
/// compaction serialises the whole ring, so its cost (and, on the
/// volatile store, the process's memory) is stationary only once the
/// ring is full. At 16 384 rows a snapshot took 10 ms, and the four
/// workers of `storm_durable`, which all compact when one should, spent
/// more time in them than at the device: the workload was CPU-bound on
/// the one core and as unsteady as the neighbour (20-33 % between runs).
pub const AUDIT_CAP: usize = 4_096;

/// The repository's span ring of every workload, scaled down from its
/// 65 536 default. An eviction from a full ring moves every span left
/// in it: at the default that is ~10 MB per `ssh_full` login, more than
/// the CPU's own cache holds, so the login's cost was the machine's
/// memory traffic, neighbours' included (10 identical runs: 14 % apart).
/// `telemetry.span_open_close_ns` times the default ring.
pub const SPAN_RING_CAP: usize = 4_096;

/// Per-exchange client timeout.
pub const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(2);

/// Steps the server's clock may be ahead of a code's own when the code
/// arrives: logins in flight when the client opens the next pass.
const MAX_CLOCK_LEAD: u64 = 1;

/// Steps on each side of a wrong code that must not match it: the
/// server's own drift window plus the lead.
const WRONG_CODE_WINDOW_SLACK: u64 = MAX_CLOCK_LEAD + 1;

pub fn user_name(user: u32) -> String {
    format!("u{user:05}")
}

fn user_index(name: &str) -> Option<u32> {
    name.strip_prefix('u')?.parse().ok().filter(|u| *u < USERS)
}

/// The external address `user` always logs in from: one habitual
/// network per user, so the risk gate sees nothing unusual.
fn user_addr(user: u32, seed: u64) -> Ipv4Addr {
    let mix = (u64::from(user) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Ipv4Addr::new(
        70,
        (mix >> 40) as u8,
        (mix >> 32) as u8,
        1 + (mix >> 24) as u8 % 250,
    )
}

/// Passes over the population that fill the audit ring.
pub const FILL_PASSES: u64 = (AUDIT_CAP / USERS as usize) as u64;

fn pass_time(pass: u64) -> u64 {
    T0 + STEP_SECS * pass
}

// ---------------------------------------------------------------------
// The composed stack
// ---------------------------------------------------------------------

/// One built instance of the stack a workload drives.
pub struct Sut {
    clock: SimClock,
    /// Loopback address of the batched RADIUS front end.
    pub addr: SocketAddr,
    /// The pinned flush device (durable workloads).
    pub device: Option<Arc<Device>>,
    memory: Option<Arc<MemoryBackend>>,
    server: Arc<LinotpServer>,
    metrics: Arc<MetricsRegistry>,
    ingest: Option<IngestHandle>,
    /// The counters as they stood when the front end stopped.
    ingest_at_exit: IngestStats,
    shutdown: Arc<AtomicBool>,
    tokens: Vec<Totp>,
    /// The tokens' HMAC keys, prepared once (the generator computes
    /// several codes per login).
    keys: Vec<PreparedHmac>,
    /// The login node (`ssh_full` only).
    pub node: Option<LoginNode>,
}

impl Sut {
    /// Build the stack for `w`, enrol the population, and start serving
    /// on loopback. With `tracing`, the benchmark's span decorators sit
    /// on the handler, storage, PAM-module and transport seams.
    pub fn build(w: &Workload, seed: u64, tracing: Option<&Arc<Tracing>>) -> Sut {
        let clock = SimClock::at(pass_time(0));
        let clock_arc: Arc<dyn Clock> = Arc::new(clock.clone());
        let metrics = Arc::new(MetricsRegistry::with_ring_caps(
            SPAN_RING_CAP,
            DEFAULT_EVENTS_CAP,
        ));
        let sms: Arc<dyn SmsProvider> = TwilioSim::new(seed ^ 0x5115);

        let (server, device, memory) = if w.durable {
            let device = Arc::new(Device::new());
            let memory = MemoryBackend::healthy();
            let backend = Arc::new(PinnedBackend {
                inner: Arc::clone(&memory) as Arc<dyn StorageBackend>,
                device: Arc::clone(&device),
                tracing: tracing.cloned(),
            });
            let server = LinotpServer::with_storage(sms, seed, server_config(&metrics), backend)
                .expect("an empty backend recovers to an empty store");
            (server, Some(device), Some(memory))
        } else {
            let server = LinotpServer::with_config(sms, seed, server_config(&metrics));
            (server, None, None)
        };
        let tokens: Vec<Totp> = (0..USERS)
            .map(|u| Totp::new(server.enroll_soft(&user_name(u), T0)))
            .collect();

        let mut handler: Arc<dyn Handler> =
            OtpRadiusHandler::new(Arc::clone(&server), Arc::clone(&clock_arc));
        if let Some(t) = tracing {
            handler = Arc::new(TracedHandler {
                inner: handler,
                tracing: Arc::clone(t),
            });
        }
        let radius = Arc::new(RadiusServer::new(SECRET, handler));
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback");
        let addr = socket.local_addr().expect("bound socket has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let ingest = BatchedUdpServer::new(radius, Arc::clone(&metrics))
            .serve(socket, Arc::clone(&shutdown));

        let node = w.ssh.then(|| {
            let udp = UdpTransport::new(addr, EXCHANGE_TIMEOUT);
            let transport: Arc<dyn Transport> = match tracing {
                Some(t) => Arc::new(TracedTransport {
                    inner: udp,
                    tracing: Arc::clone(t),
                }),
                None => Arc::new(udp),
            };
            login_node(seed, transport, &clock_arc, &metrics, &tokens, tracing)
        });
        let keys = tokens
            .iter()
            .map(|t| t.params.alg.prepare_key(t.secret.bytes()))
            .collect();
        Sut {
            clock,
            addr,
            device,
            memory,
            server,
            metrics,
            ingest: Some(ingest),
            ingest_at_exit: IngestStats::default(),
            shutdown,
            tokens,
            keys,
            node,
        }
    }

    /// Fill the audit ring, as it is on a server that has been up for a
    /// while: every user logs in once in each of `passes` (`FILL_PASSES`
    /// of them, which the client's script leaves out), straight at the
    /// OTP server. Returns how many of those logins it did not accept.
    pub fn fill_audit_ring(&self, passes: std::ops::Range<u64>) -> u64 {
        let mut refused = 0;
        for pass in passes {
            let now = pass_time(pass);
            for (user, totp) in (0..USERS).zip(&self.tokens) {
                let verdict = self
                    .server
                    .validate(&user_name(user), &totp.code_at(now), now);
                refused += u64::from(verdict != ValidationOutcome::Success);
            }
        }
        refused
    }

    /// The client opens `pass`: the clock moves to its time step, and
    /// so do the tokens the login node's users read their codes from.
    pub fn begin_pass(&self, pass: u64) {
        let now = pass_time(pass);
        self.clock.advance(now.saturating_sub(self.clock.now()));
        if let Some(node) = &self.node {
            node.begin_pass(now);
        }
    }

    /// The code `login`'s user types, per the script. `None` when the
    /// fresh code is also the next step's (one in a million logins): the
    /// server credits a code to the matching step nearest its clock, so
    /// with the clock already a pass ahead it would credit this one to
    /// the later step and then refuse that step's login as a replay. The
    /// user sits this pass out.
    pub fn code_for(&self, login: &Login) -> Option<String> {
        let user = login.user as usize;
        let totp = &self.tokens[user];
        let now = pass_time(login.pass);
        match login.kind {
            Kind::Wrong => Some(wrong_code(totp, now, login.user)),
            Kind::Valid | Kind::Replay => {
                let code_of = |step: u64| hotp_value_prepared(&self.keys[user], step) % 1_000_000;
                let step = totp.params.time_step(now);
                let code = code_of(step);
                let shared = (1..=MAX_CLOCK_LEAD).any(|k| code_of(step + k) == code);
                (!shared).then(|| format!("{code:06}"))
            }
        }
    }

    /// Whether the repository's own span ring has started evicting. A
    /// server that has been up for minutes always runs with it full, and
    /// a full ring costs more per span, so set-up fills it.
    pub fn span_ring_full(&self) -> bool {
        self.metrics.tracer().dropped() > 0
    }

    /// The front end's counters (frozen once it has stopped).
    pub fn ingest(&self) -> IngestStats {
        match &self.ingest {
            Some(handle) => handle.stats(),
            None => self.ingest_at_exit,
        }
    }

    /// Exchange attempts beyond the first by the login node's RADIUS
    /// client.
    pub fn client_retries(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| {
            let s = &n.radius.stats;
            s.attempts.load(Ordering::Relaxed) - s.requests.load(Ordering::Relaxed)
        })
    }

    /// Stop serving and wait for the receiver and every worker to exit.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ingest_at_exit = self.ingest();
        if let Some(handle) = self.ingest.take() {
            handle.join();
        }
    }

    /// Acknowledged writes survive: a second server recovering from what
    /// the backend holds as durable must agree with the live one on every
    /// user. Call after [`Sut::shutdown`]; volatile stacks pass trivially.
    pub fn verify_recovery(&self) -> Result<(), String> {
        let Some(memory) = &self.memory else {
            return Ok(());
        };
        let durable = MemoryBackend::with_contents(memory.durable_wal(), memory.durable_snapshot());
        let recovered = LinotpServer::with_storage(
            TwilioSim::new(0),
            0,
            server_config(&Arc::new(MetricsRegistry::new())),
            durable,
        )
        .map_err(|e| format!("recovery failed: {e:?}"))?;
        if recovered.store().len() != USERS as usize {
            return Err(format!(
                "recovered {} users, enrolled {USERS}",
                recovered.store().len()
            ));
        }
        let now = self.clock.now();
        for user in 0..USERS {
            let name = user_name(user);
            let (live, back) = (self.server.status(&name, now), recovered.status(&name, now));
            if live.is_none() || live != back {
                return Err(format!("{name}: live {live:?}, recovered {back:?}"));
            }
        }
        Ok(())
    }
}

/// A code certainly outside the drift window around `now`: a six-digit
/// guess hits one of the 21 window codes once in ~48 000 tries, which at
/// these login counts would make the expected verdict a coin toss.
fn wrong_code(totp: &Totp, now: u64, salt: u32) -> String {
    let window = totp.window_for_drift(DRIFT_TOLERANCE_SECS) + WRONG_CODE_WINDOW_SLACK;
    let mut guess = totp.value_at(now).wrapping_add(1 + salt) % 1_000_000;
    loop {
        let code = format!("{guess:06}");
        if totp.verify(&code, now, window).is_none() {
            return code;
        }
        guess = (guess + 1) % 1_000_000;
    }
}

fn server_config(metrics: &Arc<MetricsRegistry>) -> ServerConfig {
    ServerConfig {
        metrics: Arc::clone(metrics),
        audit_cap: AUDIT_CAP,
        ..ServerConfig::default()
    }
}

// ---------------------------------------------------------------------
// The wire: what `pam::modules::token` sends through `RadiusClient`
// ---------------------------------------------------------------------

/// A verified reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    Challenge(Vec<u8>),
    Accept,
    Reject,
}

/// The client's request encoder.
pub struct Wire {
    rng: StdRng,
    seed: u64,
}

impl Wire {
    pub fn new(seed: u64) -> Self {
        Wire {
            rng: StdRng::seed_from_u64(seed ^ (0xc11e << 16)),
            seed,
        }
    }

    /// Encode an Access-Request into `buf` and return its authenticator.
    /// `password` is empty for the null request; `state` echoes the
    /// challenge on the second leg.
    pub fn request(
        &mut self,
        buf: &mut Vec<u8>,
        id: u8,
        login: &Login,
        password: &[u8],
        state: Option<&[u8]>,
    ) -> [u8; 16] {
        let ra = request_authenticator(&mut self.rng);
        let mut packet = Packet::new(Code::AccessRequest, id, ra)
            .with_attribute(Attribute::text(
                AttributeType::UserName,
                &user_name(login.user),
            ))
            .with_attribute(Attribute::new(
                AttributeType::UserPassword,
                hide_password(password, &ra, SECRET),
            ))
            .with_attribute(Attribute::text(AttributeType::NasIdentifier, NODE_NAME))
            .with_attribute(Attribute::text(
                AttributeType::CallingStationId,
                &user_addr(login.user, self.seed).to_string(),
            ));
        if let Some(s) = state {
            packet = packet.with_attribute(Attribute::new(AttributeType::State, s.to_vec()));
        }
        packet.encode_into(buf);
        ra
    }
}

/// The RADIUS identifier of a raw reply, if it is long enough to have one.
pub fn reply_id(datagram: &[u8]) -> Option<u8> {
    datagram.get(1).copied()
}

/// Decode a reply and verify its response authenticator against the
/// request's. `None` for anything malformed or forged.
pub fn open_reply(datagram: &[u8], request_auth: &[u8; 16]) -> Option<Reply> {
    let packet = Packet::decode(datagram).ok()?;
    if !verify_response(&packet, request_auth, SECRET) {
        return None;
    }
    match packet.code {
        Code::AccessAccept => Some(Reply::Accept),
        Code::AccessReject => Some(Reply::Reject),
        Code::AccessChallenge => Some(Reply::Challenge(
            packet.attribute(AttributeType::State)?.value.clone(),
        )),
        Code::AccessRequest => None,
    }
}

// ---------------------------------------------------------------------
// The login node (ssh_full)
// ---------------------------------------------------------------------

/// The login node: sshd, its PAM stack and its RADIUS client.
pub struct LoginNode {
    daemon: SshDaemon,
    stack: Arc<PamStack>,
    authlog: AuthLog,
    radius: Arc<RadiusClient>,
    /// Virtual time the users' tokens currently show.
    token_time: Arc<AtomicU64>,
    /// Connecting clients, indexed by user.
    profiles: Vec<ClientProfile>,
}

impl LoginNode {
    /// Start of the pass at virtual time `now`: the users' tokens move
    /// to its time step and logrotate drops auth-log lines older than the
    /// pubkey module's search window can reach.
    fn begin_pass(&self, now: u64) {
        self.token_time.store(now, Ordering::SeqCst);
        self.authlog.prune_older_than(now - 2 * STEP_SECS);
    }

    /// One interactive password + soft-token login; whether sshd granted
    /// entry on the first run of the stack.
    pub fn login(&self, user: u32) -> bool {
        let report = self.daemon.connect(&self.profiles[user as usize]);
        report.granted && report.attempts == 1 && report.mfa_prompted
    }
}

fn login_node(
    seed: u64,
    transport: Arc<dyn Transport>,
    clock: &Arc<dyn Clock>,
    metrics: &Arc<MetricsRegistry>,
    tokens: &[Totp],
    tracing: Option<&Arc<Tracing>>,
) -> LoginNode {
    let directory = Directory::new();
    for user in 0..USERS {
        let name = user_name(user);
        directory
            .add(
                Entry::new(format!("uid={name},{PEOPLE_BASE}"))
                    .with_attr("uid", &name)
                    .with_attr("uidNumber", &(80_000 + user).to_string())
                    .with_attr("mail", &format!("{name}@example.org"))
                    .with_attr(PASSWORD_ATTR, &hash_password(&password_of(user), &name)),
            )
            .expect("user names are unique");
    }
    let geodb = GeoDb::parse("70.0.0.0/8 US\n129.114.0.0/16 US\n141.30.0.0/16 DE\n")
        .expect("geo table parses");
    let risk = RiskEngine::new(Arc::new(geodb), RiskWeights::default());
    risk.attach_metrics(Arc::clone(metrics));
    // Everyone has logged in from their habitual address before: the
    // timed phase should not be the engine's first sight of anybody.
    for user in 0..USERS {
        risk.assess(&user_name(user), user_addr(user, seed), T0);
    }

    let wrap = |span: &'static str, module: Arc<dyn PamModule>| -> Arc<dyn PamModule> {
        match tracing {
            Some(t) => Arc::new(TracedModule {
                span,
                inner: module,
                tracing: Arc::clone(t),
            }),
            None => module,
        }
    };
    let authlog = AuthLog::new();
    let exemptions = WatchedAccessConfig::new(
        AccessConfig::parse("+ : ALL : 129.114.0.0/16 : ALL").expect("internal rule parses"),
    );
    let radius = Arc::new(RadiusClient::with_metrics(
        ClientConfig::new(SECRET, NODE_NAME),
        vec![transport],
        Arc::clone(metrics),
    ));
    let token_module = TokenModule::new(
        EnforcementMode::Full,
        Arc::clone(&radius),
        directory.clone(),
        PEOPLE_BASE,
        seed,
    );
    // The stack `Center` builds, risk gate included.
    let mut stack = PamStack::new();
    stack.push(
        ControlFlag::Requisite,
        wrap("pam_risk", RiskGateModule::new(Arc::clone(&risk))),
    );
    stack.push(
        ControlFlag::SuccessSkip(1),
        wrap(
            "pam_pubkey",
            PubkeyCheckModule::new(Arc::new(authlog.clone())),
        ),
    );
    stack.push(
        ControlFlag::Requisite,
        wrap(
            "pam_unix",
            UnixPasswordModule::new(directory.clone(), PEOPLE_BASE),
        ),
    );
    stack.push(
        ControlFlag::Sufficient,
        wrap("pam_exempt", ExemptionModule::new(exemptions)),
    );
    stack.push(ControlFlag::Required, wrap("pam_token", token_module));
    stack.set_metrics(Arc::clone(metrics));
    let stack = Arc::new(stack);
    let daemon = SshDaemon::with_metrics(
        NODE_NAME,
        Arc::clone(&stack),
        authlog.clone(),
        Arc::clone(clock),
        Arc::clone(metrics),
    );

    let token_time = Arc::new(AtomicU64::new(pass_time(0)));
    let profiles = (0..USERS)
        .map(|user| {
            let totp = tokens[user as usize].clone();
            let shown = Arc::clone(&token_time);
            ClientProfile::interactive_user(
                &user_name(user),
                user_addr(user, seed),
                &password_of(user),
            )
            .with_token(TokenSource::device(move |_| {
                Some(totp.code_at(shown.load(Ordering::SeqCst)))
            }))
        })
        .collect();
    LoginNode {
        daemon,
        stack,
        authlog,
        radius,
        token_time,
        profiles,
    }
}

fn password_of(user: u32) -> String {
    format!("correct horse {user}")
}

// ---------------------------------------------------------------------
// Decorators on the seams the repository exposes for fault injection
// ---------------------------------------------------------------------

/// The pinned device in front of a real backend: the backend still does
/// its work, the device owns how long a flush takes and counts it.
struct PinnedBackend {
    inner: Arc<dyn StorageBackend>,
    device: Arc<Device>,
    tracing: Option<Arc<Tracing>>,
}

impl PinnedBackend {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracing {
            Some(t) => t.collector.scoped(name, |_| f()),
            None => f(),
        }
    }
}

impl StorageBackend for PinnedBackend {
    fn append_wal(&self, frame: &[u8]) -> Result<(), StorageError> {
        self.device.note_append(frame.len());
        self.span("storage_append", || self.inner.append_wal(frame))
    }

    fn sync_wal(&self) -> Result<(), StorageError> {
        self.span("storage_flush", || {
            self.device.flush(|| self.inner.sync_wal())
        })
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StorageError> {
        self.span("storage_snapshot", || {
            self.device
                .snapshot(bytes.len(), || self.inner.write_snapshot(bytes))
        })
    }

    fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_wal()
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate_wal(len)
    }

    fn reset_wal(&self) -> Result<(), StorageError> {
        self.inner.reset_wal()
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
        "pinned"
    }
}

/// Opens the `handler` span on the worker thread, under the client span
/// published for the request's user.
struct TracedHandler {
    inner: Arc<dyn Handler>,
    tracing: Arc<Tracing>,
}

impl Handler for TracedHandler {
    fn handle(&self, request: &Packet, password: Option<&[u8]>) -> ServerDecision {
        self.inner.handle(request, password)
    }

    fn handle_view(&self, request: &PacketView<'_>, password: Option<&[u8]>) -> ServerDecision {
        let user = request.text(AttributeType::UserName).and_then(user_index);
        let (true, Some(user)) = (self.tracing.collector.enabled(), user) else {
            return self.inner.handle_view(request, password);
        };
        let (login, span) = self.tracing.lookup(user);
        let outer = trace::set_current(trace::Current { login, span, user });
        let decision = self
            .tracing
            .collector
            .scoped("handler", |_| self.inner.handle_view(request, password));
        trace::set_current(outer);
        decision
    }
}

/// Opens one span per PAM module invocation.
struct TracedModule {
    span: &'static str,
    inner: Arc<dyn PamModule>,
    tracing: Arc<Tracing>,
}

impl PamModule for TracedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        self.tracing
            .collector
            .scoped(self.span, |_| self.inner.authenticate(ctx))
    }
}

/// Opens the `udp_ingest` span around a login node's datagram exchange
/// and publishes it so the server-side spans parent under it.
struct TracedTransport {
    inner: UdpTransport,
    tracing: Arc<Tracing>,
}

impl Transport for TracedTransport {
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut reply = Vec::new();
        self.exchange_into(request, &mut reply)?;
        Ok(reply)
    }

    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        self.tracing.collector.scoped("udp_ingest", |span| {
            if span != 0 {
                let cur = trace::current();
                self.tracing.publish(cur.user, cur.login, span);
            }
            self.inner.exchange_into(request, reply)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

// ---------------------------------------------------------------------
// Isolated layers
// ---------------------------------------------------------------------

/// Nanoseconds per call of an undisturbed batch: `batches` timed batches
/// of `per_batch` back-to-back calls each. For calls too short to time
/// one by one.
fn per_call_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    quiet_low(&samples)
}

/// Passes over the population: `prepare(pass)` makes one input per user,
/// untimed, then `f(user, pass, input)` runs for every user, timed in
/// batches of `PASS_BATCH`. Nanoseconds per call of an undisturbed batch.
fn per_pass_ns<T>(
    passes: std::ops::Range<u64>,
    mut prepare: impl FnMut(u64) -> Vec<T>,
    mut f: impl FnMut(u32, u64, &T),
) -> f64 {
    const PASS_BATCH: usize = 64;
    let mut samples = Vec::new();
    for pass in passes {
        let inputs = prepare(pass);
        let users: Vec<u32> = (0..USERS).collect();
        for (users, inputs) in users.chunks(PASS_BATCH).zip(inputs.chunks(PASS_BATCH)) {
            let t = Instant::now();
            for (user, input) in users.iter().zip(inputs) {
                f(*user, pass, input);
            }
            samples.push(t.elapsed().as_nanos() as f64 / inputs.len() as f64);
        }
    }
    quiet_low(&samples)
}

/// For layers that need no per-user input.
fn no_inputs(_pass: u64) -> Vec<()> {
    vec![(); USERS as usize]
}

fn accept_all() -> Arc<dyn Handler> {
    Arc::new(|_: &Packet, _: Option<&[u8]>| ServerDecision::Accept(vec![]))
}

fn valid_login(user: u32, pass: u64) -> Login {
    Login {
        user,
        kind: Kind::Valid,
        pass,
    }
}

/// Time each layer's public functions directly, on the workloads' own
/// inputs (same users, names, codes and datagrams).
pub fn layers(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    crypto_and_codec_layers(seed, &mut out);
    udp_layers(seed, &mut out);
    otpserver_layers(seed, &mut out);
    wal_layers(&mut out);
    login_node_layers(seed, &mut out);
    telemetry_layers(&mut out);
    out
}

fn crypto_and_codec_layers(seed: u64, out: &mut Vec<Metric>) {
    let key = HmacKey::<Sha1>::new(b"twenty byte secret!!");
    let mut mac = [0u8; 64];
    let mut counter = 0u64;
    out.push(metric(
        "crypto.hmac_sha1_midstate_ns",
        per_call_ns(20, 1000, || {
            counter += 1;
            black_box(key.mac_into(&counter.to_be_bytes(), &mut mac));
        }),
        "ns",
    ));
    let block = [0x5au8; 48];
    out.push(metric(
        "crypto.md5_block_ns",
        per_call_ns(20, 1000, || {
            black_box(md5(black_box(&block)));
        }),
        "ns",
    ));
    out.push(metric(
        "crypto.sha256_password_ns",
        per_call_ns(20, 1000, || {
            black_box(sha256(black_box(b"u00042correct horse 42")));
        }),
        "ns",
    ));
    let totp = Totp::new(hpcmfa_otp::Secret::from_bytes(*b"twenty byte secret!!"));
    let mut now = T0;
    out.push(metric(
        "otp.totp_code_at_ns",
        per_call_ns(20, 1000, || {
            now += STEP_SECS;
            black_box(totp.code_at(now));
        }),
        "ns",
    ));

    let mut wire = Wire::new(seed);
    let mut request = Vec::new();
    let login = valid_login(42, 0);
    out.push(metric(
        "radius.request_encode_ns",
        per_call_ns(20, 1000, || {
            black_box(wire.request(&mut request, 7, &login, b"123456", Some(b"otp-chal-0000")));
        }),
        "ns",
    ));
    out.push(metric(
        "radius.view_parse_walk_ns",
        per_call_ns(20, 1000, || {
            let view = PacketView::parse(black_box(&request)).expect("own encoding parses");
            black_box(view.attributes().count());
        }),
        "ns",
    ));
    let server = RadiusServer::new(SECRET, accept_all());
    let (mut reply, mut scratch) = (Vec::new(), Vec::new());
    out.push(metric(
        "radius.process_into_accept_ns",
        per_call_ns(20, 1000, || {
            black_box(server.process_into(&request, &mut reply, &mut scratch));
        }),
        "ns",
    ));
}

/// Loopback round trips through the batched front end, accept-all
/// handler, one in flight: what the network hop costs with no OTP work.
fn udp_layers(seed: u64, out: &mut Vec<Metric>) {
    let radius = Arc::new(RadiusServer::new(SECRET, accept_all()));
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = socket.local_addr().expect("bound socket has an address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let ingest = BatchedUdpServer::new(radius, Arc::new(MetricsRegistry::new()))
        .serve(socket, Arc::clone(&shutdown));

    let client = UdpSocket::bind(("127.0.0.1", 0)).expect("bind loopback");
    client.connect(addr).expect("connect to the front end");
    client
        .set_read_timeout(Some(EXCHANGE_TIMEOUT))
        .expect("set_read_timeout");
    let mut wire = Wire::new(seed);
    let mut request = Vec::new();
    wire.request(&mut request, 1, &valid_login(42, 0), b"123456", None);
    let mut datagram = [0u8; 4096];
    let mut echo: Vec<u64> = (0..10_000)
        .filter_map(|_| {
            let t = Instant::now();
            client.send(&request).ok()?;
            client.recv(&mut datagram).ok()?;
            Some(t.elapsed().as_nanos() as u64)
        })
        .collect();
    echo.sort_unstable();
    out.push(metric(
        "radius.udp_echo_rtt_us",
        percentile(&echo, 0.5) as f64 / 1e3,
        "us",
    ));

    let transport: Arc<dyn Transport> = Arc::new(UdpTransport::new(addr, EXCHANGE_TIMEOUT));
    let radius_client = RadiusClient::new(ClientConfig::new(SECRET, "login0"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut exchange: Vec<u64> = (0..10_000)
        .filter_map(|_| {
            let t = Instant::now();
            radius_client
                .authenticate(&mut rng, "u00042", b"123456", "70.1.2.3")
                .ok()?;
            Some(t.elapsed().as_nanos() as u64)
        })
        .collect();
    exchange.sort_unstable();
    out.push(metric(
        "radius.client_exchange_us",
        percentile(&exchange, 0.5) as f64 / 1e3,
        "us",
    ));
    shutdown.store(true, Ordering::SeqCst);
    ingest.join();
}

fn otpserver_layers(seed: u64, out: &mut Vec<Metric>) {
    let us = |ns: f64| ns / 1e3;
    let names: Vec<String> = (0..USERS).map(user_name).collect();
    let sms = || -> Arc<dyn SmsProvider> { TwilioSim::new(seed) };
    let server = LinotpServer::with_config(sms(), seed, ServerConfig::default());
    let tokens: Vec<Totp> = names
        .iter()
        .map(|n| Totp::new(server.enroll_soft(n, T0)))
        .collect();
    let fresh_codes =
        |pass: u64| -> Vec<String> { tokens.iter().map(|t| t.code_at(pass_time(pass))).collect() };
    let validate = |user: u32, pass: u64, code: &String| {
        black_box(server.validate(&names[user as usize], code, pass_time(pass)));
    };

    // Passes 1-5: fresh codes, accepted.
    let hit = per_pass_ns(1..6, fresh_codes, validate);
    out.push(metric("otpserver.validate_hit_us", us(hit), "us"));
    // Passes 6-10: each pass accepted untimed, then resubmitted.
    let accepted_codes = |pass: u64| {
        let codes = fresh_codes(pass);
        for (user, code) in (0..USERS).zip(&codes) {
            validate(user, pass, code);
        }
        codes
    };
    let replay = per_pass_ns(6..11, accepted_codes, validate);
    out.push(metric("otpserver.validate_replay_us", us(replay), "us"));
    // Passes 11-15: codes outside the whole window (fail count reaches 6).
    let wrong_codes = |pass: u64| -> Vec<String> {
        tokens
            .iter()
            .zip(0..)
            .map(|(t, user)| wrong_code(t, pass_time(pass), user))
            .collect()
    };
    let miss = per_pass_ns(11..16, wrong_codes, validate);
    out.push(metric("otpserver.validate_miss_us", us(miss), "us"));
    let null = per_pass_ns(16..21, no_inputs, |user, pass, ()| {
        black_box(server.trigger_sms_guarded(&names[user as usize], pass_time(pass), None, None));
    });
    out.push(metric("otpserver.null_request_us", us(null), "us"));

    // The real handler behind the RADIUS server shell, volatile: decode,
    // password recovery, validation, reply encode and seal.
    let clock = SimClock::at(pass_time(21));
    let radius = RadiusServer::new(
        SECRET,
        OtpRadiusHandler::new(Arc::clone(&server), Arc::new(clock.clone())),
    );
    let mut wire = Wire::new(seed);
    let (mut reply, mut scratch) = (Vec::new(), Vec::new());
    let second_legs = |pass: u64| -> Vec<Vec<u8>> {
        if pass > 21 {
            clock.advance(STEP_SECS);
        }
        (0..USERS)
            .map(|user| {
                let mut datagram = Vec::new();
                let code = tokens[user as usize].code_at(pass_time(pass));
                let state = Some(&b"otp-chal-0000"[..]);
                wire.request(
                    &mut datagram,
                    1,
                    &valid_login(user, pass),
                    code.as_bytes(),
                    state,
                );
                datagram
            })
            .collect()
    };
    let process = per_pass_ns(21..26, second_legs, |_, _, datagram| {
        black_box(radius.process_into(datagram, &mut reply, &mut scratch));
    });
    out.push(metric(
        "otpserver.process_into_validate_us",
        us(process),
        "us",
    ));

    // The durable software path with the device at latency 0 and
    // compaction off: what the WAL adds to a validation before any
    // device time. Its audit ring is four times the workloads' and the
    // passes fill it (2048 enrol rows + 2048 a pass), so that compaction
    // can be timed at two ring sizes below.
    let memory = MemoryBackend::healthy();
    let backend: Arc<dyn StorageBackend> = Arc::new(PinnedBackend {
        inner: Arc::clone(&memory) as Arc<dyn StorageBackend>,
        device: Arc::new(Device::new()),
        tracing: None,
    });
    let config = ServerConfig {
        snapshot_every_appends: 0,
        audit_cap: 4 * AUDIT_CAP,
        ..server_config(&Arc::new(MetricsRegistry::new()))
    };
    let durable = LinotpServer::with_storage(sms(), seed, config, Arc::clone(&backend))
        .expect("an empty backend recovers to an empty store");
    let tokens: Vec<Totp> = names
        .iter()
        .map(|n| Totp::new(durable.enroll_soft(n, T0)))
        .collect();
    let validate_durable = |passes: std::ops::Range<u64>| {
        per_pass_ns(
            passes,
            |pass| -> Vec<String> { tokens.iter().map(|t| t.code_at(pass_time(pass))).collect() },
            |user, pass, code| {
                black_box(durable.validate(&names[user as usize], code, pass_time(pass)));
            },
        )
    };
    // One compaction of the ring as it stands plus the 2048 users:
    // serialise, hand the blob to the backend, reset the WAL.
    let ledger = BTreeMap::new();
    let compact = |rows: usize| {
        assert_eq!(durable.audit().len(), rows, "audit rows");
        per_call_ns(40, 1, || {
            let blob = snapshot_live(durable.store(), durable.audit(), &ledger);
            backend
                .write_snapshot(&blob)
                .expect("memory backend accepts snapshots");
            backend.reset_wal().expect("memory backend resets");
        })
    };
    let rows_per_pass = USERS as usize;
    let fill = (AUDIT_CAP / rows_per_pass - 1) as u64;
    validate_durable(1..1 + fill);
    let at_cap = compact(AUDIT_CAP);
    let refill = (3 * AUDIT_CAP / rows_per_pass) as u64;
    let sw = validate_durable(1 + fill..1 + fill + refill);
    let at_four_caps = compact(4 * AUDIT_CAP);
    out.push(metric("otpserver.validate_durable_sw_us", us(sw), "us"));
    out.push(metric("otpserver.compact_ms", at_cap / 1e6, "ms"));
    out.push(metric(
        "otpserver.compact_ns_per_audit_entry",
        (at_four_caps - at_cap) / (3 * AUDIT_CAP) as f64,
        "ns",
    ));
}

fn wal_layers(out: &mut Vec<Metric>) {
    let record = WalRecord::ValState {
        user: user_name(42),
        last_step: Some(49_166_667),
        fail_count: 0,
        active: true,
    };
    out.push(metric(
        "wal.encode_frame_ns",
        per_call_ns(20, 1000, || {
            black_box(record.encode_frame());
        }),
        "ns",
    ));
    let pump = Persistence::new(MemoryBackend::healthy(), 0);
    out.push(metric(
        "wal.append_sync_sw_us",
        per_call_ns(20, 1000, || {
            pump.append(&record)
                .expect("memory backend accepts appends");
        }) / 1e3,
        "us",
    ));
    // The 20 000 records just appended are the recovery input.
    let backend = Arc::clone(pump.backend());
    let recover_ns = per_call_ns(10, 1, || {
        black_box(recover(&backend).expect("clean WAL recovers"));
    });
    out.push(metric(
        "wal.recover_ns_per_record",
        recover_ns / 20_000.0,
        "ns",
    ));

    let frame = record.encode_frame();
    let mut seq = 0u64;
    out.push(metric(
        "repl.envelope_roundtrip_ns",
        per_call_ns(20, 1000, || {
            seq += 1;
            let envelope = ReplEnvelope {
                epoch: 1,
                seq,
                frame: ReplFrame::Wal(frame.clone()),
            };
            black_box(ReplEnvelope::decode(&envelope.encode()));
        }),
        "ns",
    ));
    let (_cluster, replicated) = OtpCluster::new(
        MemoryBackend::healthy(),
        MemoryBackend::healthy(),
        ReplicationMode::Sync,
        Arc::new(SimClock::at(T0)),
        Arc::new(MetricsRegistry::new()),
        BreakerConfig::default(),
        LinkFaultPlan::healthy(),
    );
    let pump = Persistence::new(replicated, 0);
    out.push(metric(
        "repl.sync_append_us",
        per_call_ns(20, 500, || {
            pump.append(&record).expect("healthy standby acks");
        }) / 1e3,
        "us",
    ));

    // A real fsync on the file system this checkout sits on. Not part of
    // any timed path; it says how far the pinned 200 us is from this disk.
    let mut fsync = Vec::new();
    if let Ok(dir) = crate::out_dir().map(|d| d.join(format!("fsync-{}", std::process::id()))) {
        if let Ok(file) = FileBackend::open(&dir) {
            for _ in 0..300 {
                if file.append_wal(&frame).is_err() {
                    break;
                }
                let t = Instant::now();
                if file.sync_wal().is_err() {
                    break;
                }
                fsync.push(t.elapsed().as_nanos() as u64);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    fsync.sort_unstable();
    out.push(metric(
        "wal.real_fsync_p50_us",
        percentile(&fsync, 0.5) as f64 / 1e3,
        "us",
    ));
    out.push(metric(
        "wal.real_fsync_p90_us",
        percentile(&fsync, 0.9) as f64 / 1e3,
        "us",
    ));
}

/// The login-node side on its own: risk engine, directory, password
/// hash, then the whole PAM stack and sshd over an in-memory transport
/// into a volatile OTP server (no network, no device).
fn login_node_layers(seed: u64, out: &mut Vec<Metric>) {
    let clock = SimClock::at(pass_time(0));
    let clock_arc: Arc<dyn Clock> = Arc::new(clock.clone());
    let metrics = Arc::new(MetricsRegistry::new());
    let config = ServerConfig {
        metrics: Arc::clone(&metrics),
        ..ServerConfig::default()
    };
    let server = LinotpServer::with_config(TwilioSim::new(seed), seed, config);
    let tokens: Vec<Totp> = (0..USERS)
        .map(|u| Totp::new(server.enroll_soft(&user_name(u), T0)))
        .collect();
    let radius = Arc::new(RadiusServer::new(
        SECRET,
        OtpRadiusHandler::new(server, Arc::clone(&clock_arc)),
    ));
    let in_memory: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
        "radius0",
        Arc::clone(&radius),
        FaultPlan::healthy(),
    ));
    let node = login_node(seed, in_memory, &clock_arc, &metrics, &tokens, None);

    // A fixture of its own for the three leaf timings, so they do not
    // disturb the node's engine and directory.
    let directory = Directory::new();
    for user in 0..USERS {
        let name = user_name(user);
        directory
            .add(
                Entry::new(format!("uid={name},{PEOPLE_BASE}"))
                    .with_attr("uid", &name)
                    .with_attr(PASSWORD_ATTR, &hash_password(&password_of(user), &name)),
            )
            .expect("user names are unique");
    }
    let risk = RiskEngine::new(
        Arc::new(GeoDb::parse("70.0.0.0/8 US\n").expect("geo table parses")),
        RiskWeights::default(),
    );
    let names: Vec<String> = (0..USERS).map(user_name).collect();
    let assess = per_pass_ns(0..5, no_inputs, |user, pass, ()| {
        let (name, now) = (&names[user as usize], pass_time(pass));
        black_box(risk.assess(name, user_addr(user, seed), now));
        risk.record_outcome(name, now, true);
    });
    out.push(metric("risk.assess_us", assess / 1e3, "us"));
    let search = per_pass_ns(0..5, no_inputs, |user, _, ()| {
        black_box(directory.search(PEOPLE_BASE, &Filter::eq("uid", &names[user as usize])));
    });
    out.push(metric("directory.search_uid_us", search / 1e3, "us"));
    let stored = hash_password(&password_of(42), &names[42]);
    let candidate = password_of(42);
    out.push(metric(
        "pam.password_verify_us",
        per_call_ns(20, 500, || {
            black_box(verify_password(black_box(&candidate), &stored));
        }) / 1e3,
        "us",
    ));

    // Fill the repository's span ring first (as set-up does for
    // `ssh_full`), then time every other user in steady state.
    let mut pass = 0;
    while metrics.tracer().dropped() == 0 && pass < 8 {
        pass += 1;
        clock.advance(STEP_SECS);
        node.begin_pass(pass_time(pass));
        for user in 0..USERS {
            assert!(node.login(user), "fill login granted");
        }
    }
    pass += 1;
    clock.advance(STEP_SECS);
    node.begin_pass(pass_time(pass));
    let users: Vec<u32> = (0..USERS).step_by(2).collect();
    let mut walk: Vec<u64> = users
        .iter()
        .map(|user| {
            let code = tokens[*user as usize].code_at(pass_time(pass));
            let mut conv = ScriptedConversation::with_answers([password_of(*user), code]);
            let mut ctx = PamContext::new(
                &user_name(*user),
                user_addr(*user, seed),
                Arc::clone(&clock_arc),
                &mut conv,
            );
            let t = Instant::now();
            let verdict = node.stack.authenticate(&mut ctx);
            assert_eq!(verdict, PamVerdict::Granted, "stack walk granted");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    walk.sort_unstable();
    out.push(metric(
        "pam.stack_walk_us",
        percentile(&walk, 0.5) as f64 / 1e3,
        "us",
    ));

    // sshd's own share of a connection: the request, the conversation
    // bridge, the auth log and the session report, around a stack that
    // permits at once (and with no registry, so no spans).
    struct Permit;
    impl PamModule for Permit {
        fn name(&self) -> &'static str {
            "pam_permit"
        }
        fn authenticate(&self, _: &mut PamContext<'_>) -> PamResult {
            PamResult::Success
        }
    }
    let mut permit = PamStack::new();
    permit.push(ControlFlag::Required, Arc::new(Permit));
    let sshd = SshDaemon::new("login0", Arc::new(permit), AuthLog::new(), clock_arc);
    let profile = ClientProfile::interactive_user(&names[42], user_addr(42, seed), &candidate);
    out.push(metric(
        "ssh.connect_glue_us",
        per_call_ns(20, 500, || {
            black_box(sshd.connect(&profile));
        }) / 1e3,
        "us",
    ));
}

fn telemetry_layers(out: &mut Vec<Metric>) {
    let metrics = MetricsRegistry::new();
    out.push(metric(
        "telemetry.counter_lookup_inc_ns",
        per_call_ns(20, 1000, || {
            metrics
                .counter("hpcmfa_otp_validations_total", &[("outcome", "success")])
                .inc();
        }),
        "ns",
    ));
    let histogram = Histogram::new();
    let mut v = 0u64;
    out.push(metric(
        "telemetry.histogram_record_ns",
        per_call_ns(20, 1000, || {
            v = v.wrapping_add(37) % 5000;
            histogram.record(v);
        }),
        "ns",
    ));
    // Spans arrive 16 to a trace, as an ssh login's do, into a ring that
    // is already full: the state of any server up for more than minutes.
    let tracer = metrics.tracer();
    let mut trace_no = 0u64;
    let mut one_trace = || {
        trace_no += 1;
        let ctx = SpanCtx::root(TraceId::from_u64(trace_no), TraceClock::at(0));
        for _ in 0..16 {
            tracer.start(&ctx, "bench", "span").finish();
        }
    };
    while tracer.dropped() == 0 {
        one_trace();
    }
    out.push(metric(
        "telemetry.span_open_close_ns",
        per_call_ns(20, 25, &mut one_trace) / 16.0,
        "ns",
    ));
}
