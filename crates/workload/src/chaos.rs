//! Chaos scenario harness: scripted fault injection against a live center.
//!
//! The paper's fleet walks RADIUS servers "in a round-robin fashion to
//! provide load balancing and resiliency if specific RADIUS servers are
//! unavailable" (§3.4). This module turns that claim into an experiment:
//! a [`FaultScript`] replays a deterministic sequence of infrastructure
//! faults (outages, rolling restarts, packet loss, flapping, garbled-reply
//! storms, latency spikes, and OTP-server crash/recover cycles) against a
//! [`Center`] while a steady stream of real logins runs through the full
//! sshd → PAM → RADIUS → OTP path. The run produces a [`ChaosReport`]
//! with availability figures, the per-server health the circuit breakers
//! accumulated, and — for durable runs — WAL replay statistics.
//!
//! Everything is virtual-time and seeded: the same script and seed yield
//! byte-identical reports.

use hpcmfa_core::center::{Center, CenterConfig, OtpStorage};
use hpcmfa_otp::clock::Clock;
use hpcmfa_otpserver::{MemoryBackend, ReplicationMode, StorageBackend};
use hpcmfa_pam::modules::token::EnforcementMode;
use hpcmfa_radius::client::ServerHealthSnapshot;
use hpcmfa_ssh::client::{ClientProfile, TokenSource};
use hpcmfa_telemetry::MetricsSnapshot;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One fault applied to a RADIUS server's fault plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Hard-down: every exchange fails immediately.
    ServerDown,
    /// Bring the server back up (clears a `ServerDown`).
    ServerUp,
    /// Drop one datagram in `one_in` (0 clears).
    PacketLoss {
        /// Loss cadence denominator.
        one_in: u64,
    },
    /// Corrupt one reply in `one_in` on the wire (0 clears).
    GarbleStorm {
        /// Garble cadence denominator.
        one_in: u64,
    },
    /// Alternate `period` exchanges up, `period` down (0 clears).
    Flap {
        /// Half-period in exchanges.
        period: u64,
    },
    /// Add one-way latency (0 clears the spike).
    LatencySpike {
        /// Extra one-way latency, microseconds.
        extra_us: u64,
    },
    /// Kill the center's OTP server and recover it from durable storage
    /// mid-stream. The `server` index is ignored — the whole RADIUS fleet
    /// shares one OTP back end. Requires a runner built with
    /// [`ChaosOtpStorage::Durable`]; firing it against an in-memory-only
    /// center is a script bug and panics.
    OtpCrashRestart,
    /// Kill the replicated OTP primary's storage node (it stays down
    /// until [`FaultAction::OtpDeposedRejoin`]). Durable appends start
    /// failing, the cluster breaker opens, and the next RADIUS request
    /// promotes the warm standby. The `server` index is ignored.
    /// Requires [`ChaosOtpStorage::Replicated`].
    OtpPrimaryCrash,
    /// Partition (`on: true`) or heal (`on: false`) the replication
    /// link. In sync mode a partition makes the primary refuse to
    /// acknowledge writes (fail-safe denial) without ever tripping the
    /// breaker — a partition alone must not cause a split-brain
    /// promotion. Requires [`ChaosOtpStorage::Replicated`].
    OtpReplicationPartition {
        /// `true` severs the link, `false` heals it.
        on: bool,
    },
    /// Hold back the newest `frames` frames on the replication link so
    /// the standby applies at a lag (0 clears). Requires
    /// [`ChaosOtpStorage::Replicated`].
    OtpReplicationLag {
        /// Frames held back from delivery.
        frames: u64,
    },
    /// Operator-initiated failover: promote the warm standby
    /// immediately, bumping the epoch and fencing the old primary.
    /// Requires [`ChaosOtpStorage::Replicated`].
    OtpFailover,
    /// Heal the deposed primary's storage, replay its stale frames
    /// against the epoch fence (all must be rejected), and readmit the
    /// node as the new warm standby. Requires
    /// [`ChaosOtpStorage::Replicated`].
    OtpDeposedRejoin,
}

impl FaultAction {
    /// Stable label naming the fault family this action belongs to —
    /// used for the report's per-kind breakdown and the
    /// `hpcmfa_chaos_faults_total{kind=…}` counter. Clearing actions
    /// (`ServerUp`, a zero cadence) share their family's label.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            FaultAction::ServerDown | FaultAction::ServerUp => "outage",
            FaultAction::PacketLoss { .. } => "packet_loss",
            FaultAction::GarbleStorm { .. } => "garble",
            FaultAction::Flap { .. } => "flap",
            FaultAction::LatencySpike { .. } => "latency_spike",
            FaultAction::OtpCrashRestart => "otp_crash",
            FaultAction::OtpPrimaryCrash
            | FaultAction::OtpReplicationPartition { .. }
            | FaultAction::OtpReplicationLag { .. }
            | FaultAction::OtpFailover
            | FaultAction::OtpDeposedRejoin => "otp_failover",
        }
    }
}

/// Apply `action` to server `server` just before login number `at_login`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based login index the event fires before.
    pub at_login: usize,
    /// Index into the RADIUS fleet.
    pub server: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic fault schedule, indexed by login count rather than wall
/// time so runs are reproducible regardless of how fast logins execute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// Events in any order; the runner fires every event whose `at_login`
    /// has been reached.
    pub events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script (a control run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: append an event.
    pub fn at(mut self, at_login: usize, server: usize, action: FaultAction) -> Self {
        self.events.push(FaultEvent {
            at_login,
            server,
            action,
        });
        self
    }

    /// The acceptance scenario: server `down_server` hard-down from the
    /// start, 1-in-`one_in` packet loss on every other server.
    pub fn outage_with_loss(down_server: usize, n_servers: usize, one_in: u64) -> Self {
        let mut script = FaultScript::new().at(0, down_server, FaultAction::ServerDown);
        for s in (0..n_servers).filter(|&s| s != down_server) {
            script = script.at(0, s, FaultAction::PacketLoss { one_in });
        }
        script
    }

    /// A rolling restart: each server in turn is down for `hold` logins,
    /// back-to-back, starting at login `start`.
    pub fn rolling_restart(n_servers: usize, start: usize, hold: usize) -> Self {
        let mut script = FaultScript::new();
        for s in 0..n_servers {
            let t = start + s * hold;
            script =
                script
                    .at(t, s, FaultAction::ServerDown)
                    .at(t + hold, s, FaultAction::ServerUp);
        }
        script
    }

    #[cfg(test)]
    /// Crash-and-recover the OTP server every `every` logins over a
    /// `logins`-long stream, starting at login `every` (never at 0, so
    /// the first crash interrupts an in-flight stream rather than an
    /// empty store).
    pub(crate) fn periodic_otp_crashes(every: usize, logins: usize) -> Self {
        let mut script = FaultScript::new();
        let mut t = every.max(1);
        while t < logins {
            script = script.at(t, 0, FaultAction::OtpCrashRestart);
            t += every.max(1);
        }
        script
    }

    /// Failover scenario: the replicated primary's storage dies a third
    /// of the way into the stream (mid-batch, with real state in flight),
    /// the breaker opens and the standby is promoted, then at two thirds
    /// the deposed node heals, is epoch-fenced, and rejoins as standby.
    pub fn primary_crash_mid_batch(logins: usize) -> Self {
        FaultScript::new()
            .at(logins / 3, 0, FaultAction::OtpPrimaryCrash)
            .at(2 * logins / 3, 0, FaultAction::OtpDeposedRejoin)
    }

    #[cfg(test)]
    /// Failover scenario: the replication link partitions from login
    /// `start` to login `heal` while the stream (typically including SMS
    /// fallback users, see [`ChaosParams::sms_users`]) keeps dialing. In
    /// sync mode the partitioned window is denied fail-safe and — the
    /// split-brain check — must NOT promote the standby.
    pub(crate) fn partition_during_sms_burst(start: usize, heal: usize) -> Self {
        FaultScript::new()
            .at(start, 0, FaultAction::OtpReplicationPartition { on: true })
            .at(heal, 0, FaultAction::OtpReplicationPartition { on: false })
    }

    #[cfg(test)]
    /// Failover scenario: the standby starts lagging `frames` frames at
    /// login `lag_at`, then an operator forces a promotion at
    /// `promote_at` — the failover event records the unacked tail the
    /// lagging standby never applied.
    pub(crate) fn lagging_standby_promotion(lag_at: usize, promote_at: usize, frames: u64) -> Self {
        FaultScript::new()
            .at(lag_at, 0, FaultAction::OtpReplicationLag { frames })
            .at(promote_at, 0, FaultAction::OtpFailover)
    }
}

/// Compaction floor of a durable chaos run's OTP server: the fewest
/// appends per snapshot (a snapshot also waits for an eighth of the last
/// one's bytes in WAL). Low, so a stream of a few dozen logins compacts.
const DURABLE_SNAPSHOT_EVERY: u64 = 16;

/// Where a chaos run's OTP server keeps its state. The runner builds the
/// fault-injectable in-memory storage nodes and keeps typed handles on
/// them.
#[derive(Debug, Clone, Copy)]
pub enum ChaosOtpStorage {
    /// In memory only (the default): the `Otp*` actions cannot run.
    Volatile,
    /// One durable node, so [`FaultAction::OtpCrashRestart`] events can
    /// kill and recover the server mid-stream. It compacts at a floor of
    /// 16 appends (`DURABLE_SNAPSHOT_EVERY`).
    Durable,
    /// A warm-standby pair in the given ack mode, so the `Otp*` failover
    /// actions can crash the primary, partition the link, and promote the
    /// standby mid-stream.
    Replicated(ReplicationMode),
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Logins in the stream.
    pub logins: usize,
    /// Distinct paired users cycled round-robin through the stream.
    pub users: usize,
    /// Times a denied user re-dials before counting an eventual failure.
    pub max_redials: usize,
    /// Master seed.
    pub seed: u64,
    /// Where the OTP server keeps its state.
    pub otp_storage: ChaosOtpStorage,
    /// Of the `users`, how many pair an SMS fallback token instead of a
    /// soft token (the first `sms_users` of the roster). Their logins
    /// read the challenge code off the newest text delivered.
    pub sms_users: usize,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            logins: 120,
            users: 4,
            max_redials: 3,
            seed: 0xc4a05,
            otp_storage: ChaosOtpStorage::Volatile,
            sms_users: 0,
        }
    }
}

/// Outcome tallies for the logins attempted while one fault kind was
/// active, so a mixed script can be read apart: did the garble storm or
/// the latency spike cost the re-dials?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultKindStats {
    /// Logins attempted while this kind was active.
    pub logins: usize,
    /// Of those, granted on the first dial.
    pub first_try_successes: usize,
    /// Of those, granted within the re-dial budget.
    pub eventual_successes: usize,
    /// Re-dials spent on those logins.
    pub redials: usize,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Logins attempted.
    pub logins: usize,
    /// Logins granted on the first dial.
    pub first_try_successes: usize,
    /// Logins granted within `max_redials` re-dials (includes first-try).
    pub eventual_successes: usize,
    /// Logins still denied after all re-dials.
    pub eventual_failures: usize,
    /// Total re-dials across the stream.
    pub redials: usize,
    /// Per-server health from the login node's RADIUS client: attempts,
    /// failures, breaker-skipped sends, breaker state.
    pub health: Vec<ServerHealthSnapshot>,
    /// OTP-server crash/recover cycles the script fired.
    pub otp_crashes: usize,
    /// WAL records replayed across all OTP recoveries (0 without
    /// durable storage).
    pub otp_records_replayed: u64,
    /// Bytes dropped truncating torn WAL tails during OTP recoveries.
    pub otp_truncated_bytes: u64,
    /// Replication epoch at the end of the run (0 without replication;
    /// starts at 1, each promotion bumps it).
    pub otp_epoch: u64,
    /// Standby promotions the cluster performed during the run.
    pub otp_failovers: u64,
    /// Frames the standby still lagged behind the primary at the end of
    /// the run.
    pub otp_replication_lag: u64,
    /// Per-fault-kind outcome breakdown, in a fixed kind order; only
    /// kinds that were active for at least one login appear. A login
    /// under two concurrent kinds is counted under both.
    pub by_fault_kind: Vec<(&'static str, FaultKindStats)>,
    /// Point-in-time snapshot of the center-wide metrics registry taken
    /// at the end of the run — the full auth-path counters and latency
    /// histograms behind the availability headline. Not part of the
    /// [`Display`](std::fmt::Display) output: wall-clock histograms
    /// would break byte-identical reports.
    pub metrics: MetricsSnapshot,
    /// The alert engine's full transition timeline (`"{at} {rule}
    /// {from}->{to}"` lines, virtual seconds). Deterministic, so it IS
    /// part of the Display output and of byte-identical comparisons.
    pub alerts: Vec<String>,
    /// The security-event ring at the end of the run, rendered one event
    /// per line (virtual timestamps + trace ids — deterministic).
    pub security_events: Vec<String>,
    /// Critical-path summary of the slowest surviving trace in the
    /// center's collector, one line per hop plus the per-component
    /// self-time breakdown. Virtual-clock durations, so it IS part of
    /// the byte-identical Display output.
    pub critical_path: Vec<String>,
}

impl ChaosReport {
    /// Fraction of logins that eventually succeeded.
    pub fn availability(&self) -> f64 {
        if self.logins == 0 {
            return 1.0;
        }
        self.eventual_successes as f64 / self.logins as f64
    }

    /// Fraction of logins that succeeded without a re-dial.
    pub(crate) fn first_try_availability(&self) -> f64 {
        if self.logins == 0 {
            return 1.0;
        }
        self.first_try_successes as f64 / self.logins as f64
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos: {}/{} logins eventually succeeded ({:.1}% availability, {:.1}% first-try), {} re-dials",
            self.eventual_successes,
            self.logins,
            100.0 * self.availability(),
            100.0 * self.first_try_availability(),
            self.redials,
        )?;
        for h in &self.health {
            writeln!(
                f,
                "  {}: {} attempts, {} ok, {} failed, {} skipped by breaker ({:?}, opened {}x)",
                h.name, h.attempts, h.successes, h.failures, h.skipped, h.breaker, h.breaker_opens,
            )?;
        }
        if self.otp_crashes > 0 {
            writeln!(
                f,
                "  otp: {} crash/recover cycles, {} WAL records replayed, {} torn-tail bytes dropped",
                self.otp_crashes, self.otp_records_replayed, self.otp_truncated_bytes,
            )?;
        }
        if self.otp_epoch > 0 {
            writeln!(
                f,
                "  otp-ha: epoch {}, {} failovers, {} frames standby lag",
                self.otp_epoch, self.otp_failovers, self.otp_replication_lag,
            )?;
        }
        for (kind, s) in &self.by_fault_kind {
            writeln!(
                f,
                "  fault[{kind}]: {} logins, {} first-try, {} eventual, {} re-dials",
                s.logins, s.first_try_successes, s.eventual_successes, s.redials,
            )?;
        }
        for line in &self.critical_path {
            writeln!(f, "  path: {line}")?;
        }
        for line in &self.alerts {
            writeln!(f, "  alert: {line}")?;
        }
        for line in &self.security_events {
            writeln!(f, "  event: {line}")?;
        }
        Ok(())
    }
}

/// Builds the center, enrolls the users, replays the script.
pub struct ChaosRunner {
    /// The center under test (single login node, so the health stats have
    /// one unambiguous owner).
    pub center: Arc<Center>,
    /// The OTP server's storage node when built with
    /// [`ChaosOtpStorage::Durable`] (inspect WAL/snapshot state or dial
    /// in storage faults via its plan).
    pub otp_backend: Option<Arc<MemoryBackend>>,
    /// The replicated primary's storage node when built with
    /// [`ChaosOtpStorage::Replicated`] (the node
    /// [`FaultAction::OtpPrimaryCrash`] kills).
    pub otp_primary: Option<Arc<MemoryBackend>>,
    params: ChaosParams,
    devices: Vec<(String, TokenSource)>,
}

impl ChaosRunner {
    /// Stand up a full-enforcement center with `params.users` soft-token
    /// users, ready to take a login stream.
    pub fn new(params: ChaosParams) -> Self {
        let (otp_backend, otp_primary, otp_storage) = match params.otp_storage {
            ChaosOtpStorage::Volatile => (None, None, OtpStorage::Volatile),
            ChaosOtpStorage::Durable => {
                let backend = MemoryBackend::healthy();
                let storage = OtpStorage::Durable {
                    backend: Arc::clone(&backend) as Arc<dyn StorageBackend>,
                    snapshot_every: DURABLE_SNAPSHOT_EVERY,
                };
                (Some(backend), None, storage)
            }
            ChaosOtpStorage::Replicated(mode) => {
                let primary = MemoryBackend::healthy();
                let storage = OtpStorage::Replicated {
                    mode,
                    primary: Arc::clone(&primary) as Arc<dyn StorageBackend>,
                    standby: MemoryBackend::healthy(),
                };
                (None, Some(primary), storage)
            }
        };
        let center = Center::new(CenterConfig {
            login_nodes: vec!["login1".into()],
            enforcement: EnforcementMode::Full,
            seed: params.seed,
            otp_storage,
            ..CenterConfig::default()
        });
        let mut devices = Vec::new();
        for i in 0..params.users {
            let name = format!("chaos{i:02}");
            center.create_user(&name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
            if i < params.sms_users {
                let phone = center.pair_sms(&name, &format!("512555{:04}", 1200 + i));
                devices.push((name, center.sms_device(&phone)));
            } else {
                let token = center.pair_soft(&name);
                let device = TokenSource::device(move |now| Some(token.displayed_code(now)));
                devices.push((name, device));
            }
        }
        ChaosRunner {
            center,
            otp_backend,
            otp_primary,
            params,
            devices,
        }
    }

    fn cluster(&self) -> &Arc<hpcmfa_otpserver::OtpCluster> {
        self.center
            .otp_cluster
            .as_ref()
            .expect("Otp failover actions require ChaosOtpStorage::Replicated")
    }

    fn apply(&self, event: &FaultEvent) {
        match event.action {
            FaultAction::OtpCrashRestart => {
                self.center
                    .crash_otp_server()
                    .expect("OTP server recovers from durable state");
                return;
            }
            FaultAction::OtpPrimaryCrash => {
                self.otp_primary
                    .as_ref()
                    .expect("OtpPrimaryCrash requires ChaosOtpStorage::Replicated")
                    .set_down(true);
                return;
            }
            FaultAction::OtpReplicationPartition { on } => {
                let cluster = self.cluster();
                cluster.link_plan().set_partitioned(on);
                if !on {
                    // Drain the healed link deterministically: the first
                    // pump re-offers the unacked window, the second
                    // delivers it.
                    cluster.pump();
                    cluster.pump();
                }
                return;
            }
            FaultAction::OtpReplicationLag { frames } => {
                self.cluster().link_plan().set_lag_frames(frames);
                return;
            }
            FaultAction::OtpFailover => {
                self.cluster()
                    .force_promote(self.center.clock.now(), "scripted failover");
                return;
            }
            FaultAction::OtpDeposedRejoin => {
                if let Some(primary) = &self.otp_primary {
                    primary.set_down(false);
                }
                let cluster = self.cluster();
                // Every frame the deposed node still held is from an old
                // epoch: the fence must reject all of them before the
                // node is readmitted as the new standby.
                let (offered, rejected) = cluster.rejoin_deposed();
                assert_eq!(offered, rejected, "stale frames must all be fenced");
                cluster.rejoin_as_standby();
                return;
            }
            _ => {}
        }
        let faults = &self.center.radius_faults[event.server];
        match event.action {
            FaultAction::ServerDown => faults.set_down(true),
            FaultAction::ServerUp => faults.set_down(false),
            FaultAction::PacketLoss { one_in } => faults.set_drop_every(one_in),
            FaultAction::GarbleStorm { one_in } => faults.set_garble_every(one_in),
            FaultAction::Flap { period } => faults.set_flap_period(period),
            FaultAction::LatencySpike { extra_us } => faults.set_extra_latency_us(extra_us),
            _ => unreachable!("handled above"),
        }
    }

    /// Replay `script` under a steady login stream and report.
    pub fn run(self, script: &FaultScript) -> ChaosReport {
        // The per-kind breakdown's fixed presentation order.
        const KIND_ORDER: [&str; 7] = [
            "outage",
            "packet_loss",
            "garble",
            "flap",
            "latency_spike",
            "otp_crash",
            "otp_failover",
        ];
        let mut report = ChaosReport {
            logins: self.params.logins,
            first_try_successes: 0,
            eventual_successes: 0,
            eventual_failures: 0,
            redials: 0,
            health: Vec::new(),
            otp_crashes: 0,
            otp_records_replayed: 0,
            otp_truncated_bytes: 0,
            otp_epoch: 0,
            otp_failovers: 0,
            otp_replication_lag: 0,
            by_fault_kind: Vec::new(),
            metrics: MetricsSnapshot::default(),
            alerts: Vec::new(),
            security_events: Vec::new(),
            critical_path: Vec::new(),
        };
        // Mirror of each server's fault plane, so every login can be
        // attributed to the fault kinds active while it dialed.
        let n = self.center.radius_servers.len();
        let (mut down, mut loss) = (vec![false; n], vec![0u64; n]);
        let (mut garble, mut flap, mut latency) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        // Replication-link state (partition and lag persist; crash,
        // forced promotion, and rejoin are one-shot like otp_crash).
        let (mut repl_partitioned, mut repl_lag) = (false, 0u64);
        let mut kind_stats: std::collections::HashMap<&'static str, FaultKindStats> =
            std::collections::HashMap::new();
        let source_ip = Ipv4Addr::new(70, 112, 50, 3); // external: MFA enforced
        for login in 0..self.params.logins {
            let mut otp_crashed_now = false;
            let mut ha_event_now = false;
            for event in script.events.iter().filter(|e| e.at_login == login) {
                self.apply(event);
                self.center
                    .metrics()
                    .counter(
                        "hpcmfa_chaos_faults_total",
                        &[("kind", event.action.kind())],
                    )
                    .inc();
                match event.action {
                    FaultAction::ServerDown => down[event.server] = true,
                    FaultAction::ServerUp => down[event.server] = false,
                    FaultAction::PacketLoss { one_in } => loss[event.server] = one_in,
                    FaultAction::GarbleStorm { one_in } => garble[event.server] = one_in,
                    FaultAction::Flap { period } => flap[event.server] = period,
                    FaultAction::LatencySpike { extra_us } => latency[event.server] = extra_us,
                    FaultAction::OtpCrashRestart => {
                        report.otp_crashes += 1;
                        otp_crashed_now = true;
                    }
                    FaultAction::OtpReplicationPartition { on } => repl_partitioned = on,
                    FaultAction::OtpReplicationLag { frames } => repl_lag = frames,
                    FaultAction::OtpPrimaryCrash
                    | FaultAction::OtpFailover
                    | FaultAction::OtpDeposedRejoin => ha_event_now = true,
                }
            }
            let mut active: Vec<&'static str> = Vec::new();
            if down.iter().any(|&d| d) {
                active.push("outage");
            }
            if loss.iter().any(|&v| v > 0) {
                active.push("packet_loss");
            }
            if garble.iter().any(|&v| v > 0) {
                active.push("garble");
            }
            if flap.iter().any(|&v| v > 0) {
                active.push("flap");
            }
            if latency.iter().any(|&v| v > 0) {
                active.push("latency_spike");
            }
            if otp_crashed_now {
                active.push("otp_crash");
            }
            if repl_partitioned || repl_lag > 0 || ha_event_now {
                active.push("otp_failover");
            }
            let (user, device) = &self.devices[login % self.devices.len()];
            let profile = ClientProfile::interactive_user(user, source_ip, &format!("{user}-pw"))
                .with_token(device.clone());
            let mut granted = false;
            let mut dials_spent = 0;
            for dial in 0..=self.params.max_redials {
                // Step past the TOTP window so a retry (or the next login
                // by this user) is a fresh code, not a replay.
                self.center.clock.advance(30);
                dials_spent = dial;
                if self.center.ssh(0, &profile).granted {
                    granted = true;
                    break;
                }
            }
            let first_try = granted && dials_spent == 0;
            if first_try {
                report.first_try_successes += 1;
            }
            report.redials += dials_spent;
            if granted {
                report.eventual_successes += 1;
            } else {
                report.eventual_failures += 1;
            }
            for kind in active {
                let s = kind_stats.entry(kind).or_default();
                s.logins += 1;
                if first_try {
                    s.first_try_successes += 1;
                }
                if granted {
                    s.eventual_successes += 1;
                }
                s.redials += dials_spent;
            }
        }
        report.by_fault_kind = KIND_ORDER
            .iter()
            .filter_map(|k| kind_stats.get(k).map(|s| (*k, *s)))
            .collect();
        report.health = self.center.radius_health(0);
        if let Some(counters) = self.center.linotp.durability_counters() {
            report.otp_records_replayed = counters.records_replayed;
            report.otp_truncated_bytes = counters.truncated_bytes;
        }
        if let Some(cluster) = &self.center.otp_cluster {
            report.otp_epoch = cluster.epoch();
            report.otp_failovers = cluster.failovers();
            report.otp_replication_lag = cluster.replication_lag();
        }
        report.metrics = self.center.metrics_snapshot();
        report.alerts = self.center.alerts.timeline_lines();
        report.security_events = self
            .center
            .metrics()
            .security_events()
            .all()
            .iter()
            .map(|e| e.to_string())
            .collect();
        // Which hop dominated the slowest surviving login: breaker
        // wait, retry backoff, window scan, WAL fsync, or the admission
        // queue. Virtual durations, so the lines replay byte-identical.
        report.critical_path = self
            .center
            .traces
            .slowest(1)
            .first()
            .map(|tree| {
                hpcmfa_telemetry::critical_path_summary(tree)
                    .lines()
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmfa_radius::breaker::BreakerState;

    fn small(logins: usize) -> ChaosParams {
        ChaosParams {
            logins,
            users: 3,
            seed: 11,
            ..ChaosParams::default()
        }
    }

    #[test]
    fn control_run_is_perfect() {
        let report = ChaosRunner::new(small(20)).run(&FaultScript::new());
        assert_eq!(report.eventual_successes, 20);
        assert_eq!(report.first_try_successes, 20);
        assert_eq!(report.redials, 0);
        assert!(report
            .health
            .iter()
            .all(|h| h.breaker == BreakerState::Closed && h.skipped == 0));
    }

    #[test]
    fn outage_with_loss_survives_with_full_availability() {
        let script = FaultScript::outage_with_loss(0, 3, 5);
        let report = ChaosRunner::new(small(60)).run(&script);
        assert_eq!(report.availability(), 1.0, "{report}");
        // The breaker quarantined the dead server after the threshold.
        assert!(report.health[0].skipped > 0, "{report}");
        assert!(report.health[0].breaker_opens >= 1, "{report}");
    }

    #[test]
    fn rolling_restart_never_loses_logins() {
        let script = FaultScript::rolling_restart(3, 5, 10);
        let report = ChaosRunner::new(small(50)).run(&script);
        assert_eq!(report.availability(), 1.0, "{report}");
        // Every server took some traffic: the restart rolled, it didn't
        // blackhole.
        assert!(report.health.iter().all(|h| h.successes > 0), "{report}");
    }

    #[test]
    fn garble_storm_and_flapping_fail_over() {
        let script = FaultScript::new()
            .at(0, 0, FaultAction::GarbleStorm { one_in: 1 })
            .at(0, 1, FaultAction::Flap { period: 4 })
            .at(20, 0, FaultAction::GarbleStorm { one_in: 0 });
        let report = ChaosRunner::new(small(40)).run(&script);
        assert_eq!(report.availability(), 1.0, "{report}");
        assert!(report.health[0].failures > 0, "garbles counted: {report}");
    }

    #[test]
    fn latency_spike_is_charged_not_fatal() {
        let script = FaultScript::new().at(0, 2, FaultAction::LatencySpike { extra_us: 40_000 });
        let runner = ChaosRunner::new(small(15));
        let center = Arc::clone(&runner.center);
        let report = runner.run(&script);
        assert_eq!(report.availability(), 1.0, "{report}");
        assert!(
            center.radius_faults[2]
                .total_latency_us
                .load(std::sync::atomic::Ordering::SeqCst)
                > 0
        );
    }

    #[test]
    fn total_outage_fails_closed_then_recovers() {
        let script = FaultScript::new()
            .at(5, 0, FaultAction::ServerDown)
            .at(5, 1, FaultAction::ServerDown)
            .at(5, 2, FaultAction::ServerDown)
            .at(10, 0, FaultAction::ServerUp)
            .at(10, 1, FaultAction::ServerUp)
            .at(10, 2, FaultAction::ServerUp);
        let mut params = small(20);
        params.max_redials = 0; // one dial per login: outage shows up crisply
        let report = ChaosRunner::new(params).run(&script);
        assert_eq!(report.eventual_failures, 5, "{report}");
        assert_eq!(report.eventual_successes, 15, "{report}");
    }

    #[test]
    fn per_fault_kind_breakdown_attributes_logins() {
        // Garble on for the first 20 logins, latency spike for the last 10;
        // the middle 10 run clean.
        let script = FaultScript::new()
            .at(0, 0, FaultAction::GarbleStorm { one_in: 1 })
            .at(20, 0, FaultAction::GarbleStorm { one_in: 0 })
            .at(30, 2, FaultAction::LatencySpike { extra_us: 40_000 });
        let report = ChaosRunner::new(small(40)).run(&script);
        let kinds: std::collections::HashMap<_, _> = report.by_fault_kind.iter().copied().collect();
        assert_eq!(kinds["garble"].logins, 20, "{report}");
        assert_eq!(kinds["latency_spike"].logins, 10, "{report}");
        assert!(!kinds.contains_key("outage"), "{report}");
        // The fault applications themselves were counted in the registry.
        assert_eq!(
            report
                .metrics
                .counter("hpcmfa_chaos_faults_total{kind=\"garble\"}"),
            2
        );
        assert_eq!(
            report
                .metrics
                .counter("hpcmfa_chaos_faults_total{kind=\"latency_spike\"}"),
            1
        );
        // The snapshot carries the full auth path, not just chaos counters.
        assert!(
            report
                .metrics
                .counter_family("hpcmfa_radius_requests_total")
                >= 40
        );
        assert!(
            report
                .metrics
                .histogram_family("hpcmfa_radius_request_duration_us")
                .count()
                >= 40
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let script = FaultScript::outage_with_loss(1, 3, 4);
        let a = ChaosRunner::new(small(30)).run(&script);
        let b = ChaosRunner::new(small(30)).run(&script);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    fn durable(logins: usize) -> ChaosParams {
        ChaosParams {
            otp_storage: ChaosOtpStorage::Durable,
            ..small(logins)
        }
    }

    #[test]
    fn otp_crash_restart_mid_stream_keeps_full_availability() {
        let script = FaultScript::periodic_otp_crashes(10, 40);
        let runner = ChaosRunner::new(durable(40));
        let report = runner.run(&script);
        assert_eq!(report.otp_crashes, 3, "{report}");
        assert_eq!(report.availability(), 1.0, "{report}");
        assert!(
            report.otp_records_replayed > 0,
            "state came back from the WAL: {report}"
        );
    }

    #[test]
    fn otp_crashes_stack_with_radius_faults() {
        let script = FaultScript::outage_with_loss(0, 3, 6)
            .at(8, 0, FaultAction::OtpCrashRestart)
            .at(16, 0, FaultAction::OtpCrashRestart);
        let report = ChaosRunner::new(durable(30)).run(&script);
        assert_eq!(report.otp_crashes, 2, "{report}");
        assert_eq!(report.availability(), 1.0, "{report}");
    }

    #[test]
    fn otp_crash_with_flaky_fsync_still_recovers() {
        let runner = ChaosRunner::new(durable(30));
        runner
            .otp_backend
            .as_ref()
            .expect("durable runner has a backend")
            .plan()
            .set_fsync_fail_every(7);
        let report = runner.run(&FaultScript::periodic_otp_crashes(10, 30));
        assert_eq!(report.otp_crashes, 2, "{report}");
        // A failed fsync denies that dial (fail-safe), but re-dials with a
        // fresh code make the stream converge.
        assert!(report.availability() >= 0.9, "{report}");
        assert_eq!(
            report.eventual_successes + report.eventual_failures,
            report.logins
        );
    }

    #[test]
    fn durable_chaos_deterministic_given_seed() {
        let script = FaultScript::periodic_otp_crashes(7, 30);
        let a = ChaosRunner::new(durable(30)).run(&script);
        let b = ChaosRunner::new(durable(30)).run(&script);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    fn replicated(logins: usize, mode: ReplicationMode) -> ChaosParams {
        ChaosParams {
            otp_storage: ChaosOtpStorage::Replicated(mode),
            ..small(logins)
        }
    }

    #[test]
    fn primary_crash_mid_batch_promotes_and_rejoins() {
        let script = FaultScript::primary_crash_mid_batch(30);
        let runner = ChaosRunner::new(replicated(30, ReplicationMode::Sync));
        let center = Arc::clone(&runner.center);
        let report = runner.run(&script);
        assert_eq!(report.otp_failovers, 1, "{report}");
        assert_eq!(report.otp_epoch, 2, "{report}");
        // A few dials died with the primary; the stream converged on the
        // promoted standby.
        assert!(report.availability() >= 0.9, "{report}");
        // The failover landed in the event feed and the alert timeline.
        assert!(
            report
                .security_events
                .iter()
                .any(|e| e.contains("failover")),
            "{report}"
        );
        assert!(
            report.alerts.iter().any(|l| l.contains("otp_failover")),
            "{report}"
        );
        // The deposed node was fenced (apply() asserts every stale frame
        // was rejected) and readmitted as the new warm standby.
        assert!(
            center.otp_cluster.as_ref().unwrap().has_standby(),
            "{report}"
        );
    }

    #[test]
    fn partition_during_sms_burst_never_promotes() {
        let mut params = replicated(24, ReplicationMode::Sync);
        params.sms_users = 2;
        let script = FaultScript::partition_during_sms_burst(8, 16);
        let runner = ChaosRunner::new(params);
        let center = Arc::clone(&runner.center);
        let report = runner.run(&script);
        // The split-brain check: a partition alone (local storage still
        // healthy) must never open the breaker or promote the standby.
        assert_eq!(report.otp_failovers, 0, "{report}");
        assert_eq!(report.otp_epoch, 1, "{report}");
        // Sync mode refuses what the standby can't see: the partitioned
        // window is denied fail-safe, the healed link restores service.
        assert!(report.eventual_failures > 0, "{report}");
        assert!(report.availability() >= 0.5, "{report}");
        assert_eq!(
            center.otp_cluster.as_ref().unwrap().replication_lag(),
            0,
            "standby caught up after the heal: {report}"
        );
    }

    #[test]
    fn lagging_standby_promotion_records_the_lost_tail() {
        let script = FaultScript::lagging_standby_promotion(5, 15, 8);
        let report = ChaosRunner::new(replicated(25, ReplicationMode::Async)).run(&script);
        assert_eq!(report.otp_failovers, 1, "{report}");
        assert_eq!(report.otp_epoch, 2, "{report}");
        // Async mode kept serving through the lag and the promotion.
        assert!(report.availability() >= 0.9, "{report}");
        // The forced promotion of a lagging standby records the unacked
        // tail it never applied.
        assert!(
            report
                .security_events
                .iter()
                .any(|e| e.contains("failover") && !e.contains("unacked_frames=0")),
            "{report}"
        );
    }

    #[test]
    fn replicated_chaos_deterministic_given_seed() {
        let script = FaultScript::primary_crash_mid_batch(24);
        let a = ChaosRunner::new(replicated(24, ReplicationMode::Sync)).run(&script);
        let b = ChaosRunner::new(replicated(24, ReplicationMode::Sync)).run(&script);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
