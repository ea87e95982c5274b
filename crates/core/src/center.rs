//! Center assembly.

use hpcmfa_directory::identity::{IdentityDb, PairingMethod};
use hpcmfa_directory::ldap::{Directory, Entry};
use hpcmfa_federation::{ResumeAuthority, TrustConfig};
use hpcmfa_otp::clock::{Clock, SimClock};
use hpcmfa_otp::device::{HardTokenBatch, SoftToken};
use hpcmfa_otpserver::admin::AdminApi;
use hpcmfa_otpserver::handler::OtpRadiusHandler;
use hpcmfa_otpserver::overload::OverloadConfig;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig};
use hpcmfa_otpserver::sms::{PhoneNumber, SmsProvider, TwilioSim};
use hpcmfa_otpserver::{
    LinkFaultPlan, OtpCluster, RecoverError, RecoveryReport, ReplicationMode, StorageBackend,
};
use hpcmfa_pam::access::{AccessConfig, Cidr, WatchedAccessConfig};
use hpcmfa_pam::modules::exemption::ExemptionModule;
use hpcmfa_pam::modules::password::{hash_password, UnixPasswordModule, PASSWORD_ATTR};
use hpcmfa_pam::modules::pubkey::PubkeyCheckModule;
use hpcmfa_pam::modules::token::{DegradationPolicy, EnforcementMode, TokenModule};
use hpcmfa_pam::stack::{ControlFlag, PamStack};
use hpcmfa_radius::breaker::BreakerConfig;
use hpcmfa_radius::client::{ClientConfig, RadiusClient, RetryPolicy, ServerHealthSnapshot};
use hpcmfa_radius::realm::RealmRouter;
use hpcmfa_radius::server::{Handler, RadiusServer};
use hpcmfa_radius::transport::{FaultPlan, InMemoryTransport, Transport};
use hpcmfa_risk::engine::{RiskEngine, RiskGateModule, RiskWeights};
use hpcmfa_risk::geo::GeoDb;
use hpcmfa_ssh::authlog::AuthLog;
use hpcmfa_ssh::client::ClientProfile;
use hpcmfa_ssh::daemon::{SessionReport, SshDaemon};
use hpcmfa_ssh::keys::{KeyPair, PublicKey};
use hpcmfa_telemetry::{
    default_security_rules, AlertEngine, MetricsRegistry, MetricsSnapshot, TraceCollector,
};
use parking_lot::Mutex;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Behavioural risk assessment for the login path (§6 growth feature).
#[derive(Clone)]
pub struct RiskParams {
    /// IP → country database the engine scores against.
    pub geodb: Arc<GeoDb>,
    /// Scoring weights and thresholds.
    pub weights: RiskWeights,
}

/// Warm-standby replication for the OTP back end. The caller supplies
/// both storage nodes (keeping typed handles for fault injection); the
/// center builds the cluster, routes the validation server through it,
/// and arms breaker-driven failover in every RADIUS handler.
#[derive(Clone)]
pub struct OtpReplicationParams {
    /// Ack mode: `Sync` never acknowledges a write the standby has not
    /// applied; `Async` tolerates bounded staleness.
    pub mode: ReplicationMode,
    /// The primary's storage node.
    pub primary: Arc<dyn StorageBackend>,
    /// The warm standby's storage node.
    pub standby: Arc<dyn StorageBackend>,
    /// Breaker tuning for the primary's local-storage health (reuses the
    /// RADIUS breaker; an open breaker schedules the failover).
    pub breaker: BreakerConfig,
    /// Fault plan for the replication link (drops, reorder, partition,
    /// lag) — chaos scripts keep a handle to drive it mid-run.
    pub link_plan: Arc<LinkFaultPlan>,
}

impl OtpReplicationParams {
    /// Replication over the given nodes with a healthy link and default
    /// breaker tuning.
    pub fn new(
        mode: ReplicationMode,
        primary: Arc<dyn StorageBackend>,
        standby: Arc<dyn StorageBackend>,
    ) -> Self {
        OtpReplicationParams {
            mode,
            primary,
            standby,
            breaker: BreakerConfig::default(),
            link_plan: LinkFaultPlan::healthy(),
        }
    }
}

/// Cross-site federation for a center: realm routing plus stateless
/// session-resumption tokens.
#[derive(Clone)]
pub struct FederationParams {
    /// This site's home realm and the peers it trusts. Each peer entry
    /// carries that link's shared RADIUS secret and per-realm policy
    /// (degradation mode, risk weight). Peers' upstream pools are wired
    /// after construction with [`Center::connect_peer_realm`].
    pub trust: TrustConfig,
    /// Site-local HMAC key protecting resumption tokens. Never shared
    /// with peers: a token is only redeemable where it was minted.
    pub resume_key: Vec<u8>,
    /// Resumption-token lifetime in 30-second TOTP steps.
    pub resume_lifetime_steps: u64,
}

impl FederationParams {
    /// Federation for `trust` with a lifetime of `lifetime_steps` steps.
    pub fn new(trust: TrustConfig, resume_key: &[u8], resume_lifetime_steps: u64) -> Self {
        FederationParams {
            trust,
            resume_key: resume_key.to_vec(),
            resume_lifetime_steps,
        }
    }
}

/// Deployment parameters.
#[derive(Clone)]
pub struct CenterConfig {
    /// Shared secret between login nodes and the RADIUS fleet.
    pub radius_secret: Vec<u8>,
    /// Size of the RADIUS fleet ("a handful of servers", §3.2).
    pub radius_servers: usize,
    /// Login-node names.
    pub login_nodes: Vec<String>,
    /// The center's internal network, exempt by default so users can
    /// "move back and forth freely within login and reserved compute
    /// nodes" (§3.4).
    pub internal_network: Cidr,
    /// Initial token-module enforcement mode on all nodes.
    pub enforcement: EnforcementMode,
    /// Directory subtree for people entries.
    pub people_base: String,
    /// Simulation start time.
    pub start_time: u64,
    /// Master RNG seed for all deterministic components.
    pub seed: u64,
    /// Per-login retry budget for every node's RADIUS client.
    pub retry: RetryPolicy,
    /// Per-server circuit-breaker tuning for every node's RADIUS client.
    pub breaker: BreakerConfig,
    /// What the token module does during a total back-end outage.
    pub degradation: DegradationPolicy,
    /// Durable storage for the OTP back end. `None` (the default) runs
    /// the server purely in memory, as before; `Some` makes every store
    /// and audit mutation write-ahead-logged through the backend and lets
    /// [`Center::crash_otp_server`] kill and recover it mid-run.
    pub otp_storage: Option<Arc<dyn StorageBackend>>,
    /// Compaction cadence for the durable OTP server: a snapshot replaces
    /// the WAL after this many appends. Ignored without `otp_storage`.
    pub otp_snapshot_every: u64,
    /// The center-wide metrics registry. Every component — PAM stacks,
    /// RADIUS clients, sshd instances, the OTP back end — records into
    /// this one registry, so a single scrape sees the whole auth path.
    pub metrics: Arc<MetricsRegistry>,
    /// Behavioural risk assessment. `Some` places a `requisite` risk gate
    /// at the head of every node's PAM stack (before the pubkey check, so
    /// the pubkey module's skip arithmetic is untouched) and feeds login
    /// outcomes back to the engine. `None` (the default) keeps the stack
    /// exactly as before.
    pub risk: Option<RiskParams>,
    /// Overload protection for the OTP back end. `Some` puts a bounded
    /// admission queue with per-source-network rate limiting in front of
    /// validation; `None` (the default) leaves it unguarded.
    pub otp_overload: Option<OverloadConfig>,
    /// Warm-standby replication for the OTP back end. `Some` supersedes
    /// `otp_storage`: the server writes through the cluster's routing
    /// backend and every RADIUS handler promotes the standby when the
    /// primary's breaker opens. `None` (the default) keeps the
    /// single-node layout.
    pub otp_replication: Option<OtpReplicationParams>,
    /// Cross-site federation. `Some` fronts every RADIUS server with a
    /// realm router (`user@site` principals route to their home realm)
    /// and enables session-resumption token issuance on full-MFA logins.
    /// `None` (the default) keeps the single-site layout.
    pub federation: Option<FederationParams>,
}

impl Default for CenterConfig {
    fn default() -> Self {
        CenterConfig {
            radius_secret: b"tacc-radius-secret".to_vec(),
            radius_servers: 3,
            login_nodes: vec!["login1".into(), "login2".into()],
            internal_network: Cidr::parse("129.114.0.0/16").unwrap(),
            enforcement: EnforcementMode::Paired,
            people_base: "ou=people,dc=tacc".to_string(),
            start_time: 1_470_787_200, // 2016-08-10, announcement day
            seed: 2016,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            degradation: DegradationPolicy::FailClosed,
            otp_storage: None,
            otp_snapshot_every: ServerConfig::default().snapshot_every_appends,
            metrics: Arc::new(MetricsRegistry::new()),
            risk: None,
            otp_overload: None,
            otp_replication: None,
            federation: None,
        }
    }
}

/// One login node: sshd + its PAM stack and local state.
pub struct LoginNode {
    /// Node name (NAS identifier).
    pub name: String,
    /// The sshd instance.
    pub daemon: SshDaemon,
    /// This node's token module (mode switchable in production).
    pub token_module: Arc<TokenModule>,
    /// This node's exemption list (hot-reloadable).
    pub exemptions: WatchedAccessConfig,
    /// This node's RADIUS client (round-robin over the fleet).
    pub radius_client: Arc<RadiusClient>,
}

/// The fully assembled center.
pub struct Center {
    /// Deployment parameters.
    pub config: CenterConfig,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// LDAP directory.
    pub directory: Directory,
    /// Identity-management database.
    pub identity: IdentityDb,
    /// The OTP back end.
    pub linotp: Arc<LinotpServer>,
    /// The SMS provider.
    pub twilio: Arc<TwilioSim>,
    /// The admin REST interface.
    pub admin: Arc<AdminApi>,
    /// The user portal.
    pub portal: Arc<hpcmfa_portal::portal::Portal>,
    /// Fault planes for each RADIUS server, index-aligned with the fleet.
    pub radius_faults: Vec<Arc<FaultPlan>>,
    /// The RADIUS servers themselves (for stats).
    pub radius_servers: Vec<Arc<RadiusServer>>,
    /// Login nodes.
    pub nodes: Vec<Arc<LoginNode>>,
    /// The center-wide alert engine: the default security rule set
    /// evaluated over the shared registry after every login, on the
    /// virtual clock. Also served by the admin API's `/system/alerts`.
    pub alerts: Arc<AlertEngine>,
    /// The behavioural risk engine, when [`CenterConfig::risk`] is set.
    pub risk_engine: Option<Arc<RiskEngine>>,
    /// The OTP replication cluster, when
    /// [`CenterConfig::otp_replication`] is set: epoch, lag, and
    /// promotion controls for chaos scripts and operators.
    pub otp_cluster: Option<Arc<OtpCluster>>,
    /// The realm routers fronting each RADIUS server, when
    /// [`CenterConfig::federation`] is set. Index-aligned with
    /// `radius_servers`.
    pub realm_routers: Vec<Arc<RealmRouter>>,
    /// The fleet's transports, exposed so peer sites can build their
    /// cross-realm upstream pools against this center.
    radius_transports: Vec<Arc<dyn Transport>>,
    /// Cross-site trace assembly over this site's registry plus any peer
    /// registries registered via [`Center::add_trace_source`]. Also served
    /// by the admin API's `GET /system/traces`.
    pub traces: Arc<TraceCollector>,
    /// Exemption file text lines added beyond the internal-network rule,
    /// mirrored to every node.
    exemption_lines: Mutex<Vec<String>>,
}

impl Center {
    /// Stand up the center.
    pub fn new(config: CenterConfig) -> Arc<Self> {
        let clock = SimClock::at(config.start_time);
        let clock_arc: Arc<dyn Clock> = Arc::new(clock.clone());
        // Span ids are namespaced by site so federated traces assembled
        // across several centers can never collide.
        let site_label = config
            .federation
            .as_ref()
            .map(|f| f.trust.home_realm.clone())
            .unwrap_or_else(|| "site".to_string());
        config.metrics.tracer().set_namespace(&site_label);
        let directory = Directory::new();
        let identity = IdentityDb::new();
        let twilio = TwilioSim::new(config.seed ^ 0x5115);
        // Replication supersedes plain durable storage: the server writes
        // through the cluster's routing backend, which ships every synced
        // batch to the warm standby.
        let otp_cluster_parts = config.otp_replication.as_ref().map(|p| {
            OtpCluster::new(
                Arc::clone(&p.primary),
                Arc::clone(&p.standby),
                p.mode,
                Arc::clone(&clock_arc),
                Arc::clone(&config.metrics),
                p.breaker,
                Arc::clone(&p.link_plan),
            )
        });
        let otp_backend: Option<Arc<dyn StorageBackend>> = match &otp_cluster_parts {
            Some((_, backend)) => Some(Arc::clone(backend) as Arc<dyn StorageBackend>),
            None => config.otp_storage.clone(),
        };
        let linotp = match &otp_backend {
            Some(backend) => LinotpServer::with_storage(
                Arc::clone(&twilio) as Arc<dyn SmsProvider>,
                config.seed,
                ServerConfig {
                    snapshot_every_appends: config.otp_snapshot_every,
                    metrics: Arc::clone(&config.metrics),
                    overload: config.otp_overload.clone(),
                    ..ServerConfig::default()
                },
                Arc::clone(backend),
            )
            .expect("durable OTP state recovers at startup"),
            None => LinotpServer::with_config(
                Arc::clone(&twilio) as Arc<dyn SmsProvider>,
                config.seed,
                ServerConfig {
                    metrics: Arc::clone(&config.metrics),
                    overload: config.otp_overload.clone(),
                    ..ServerConfig::default()
                },
            ),
        };
        let otp_cluster = otp_cluster_parts.map(|(cluster, _)| cluster);
        let admin = AdminApi::new(
            Arc::clone(&linotp),
            "LinOTP admin area",
            config.seed ^ 0xadd,
        );
        admin.add_admin("portal-svc", "portal-svc-password");
        let portal = hpcmfa_portal::portal::Portal::new(
            Arc::clone(&admin),
            "portal-svc",
            "portal-svc-password",
            identity.clone(),
            directory.clone(),
            &config.people_base,
            b"portal-url-signing-key",
            Arc::clone(&clock_arc),
        );

        // RADIUS fleet. With federation, a realm router fronts each
        // server's OTP handler: home traffic is stripped and served
        // locally, peer realms are proxied to their own upstream pools.
        let mut radius_faults = Vec::new();
        let mut radius_servers = Vec::new();
        let mut realm_routers = Vec::new();
        let mut transports: Vec<Arc<dyn Transport>> = Vec::new();
        for i in 0..config.radius_servers {
            let handler = match &otp_cluster {
                Some(cluster) => OtpRadiusHandler::with_cluster(
                    Arc::clone(&linotp),
                    Arc::clone(&clock_arc),
                    Arc::clone(cluster),
                ),
                None => OtpRadiusHandler::new(Arc::clone(&linotp), Arc::clone(&clock_arc)),
            };
            let front: Arc<dyn Handler> = match &config.federation {
                Some(fed) => {
                    // Distinct nonce streams per handler: the fleet is
                    // load-balanced, and two handlers at the same RNG
                    // position would mint colliding nonces.
                    handler.attach_resume(
                        ResumeAuthority::new(
                            &fed.resume_key,
                            &fed.trust.home_realm,
                            &fed.trust.home_realm,
                            fed.resume_lifetime_steps,
                            30,
                        ),
                        config.seed ^ 0xfed0 ^ (i as u64) << 8,
                    );
                    let router = Arc::new(RealmRouter::new(
                        fed.trust.clone(),
                        handler,
                        config.seed ^ 0xfed1 ^ (i as u64) << 8,
                        Arc::clone(&config.metrics),
                    ));
                    realm_routers.push(Arc::clone(&router));
                    router
                }
                None => handler,
            };
            let server = Arc::new(RadiusServer::new(config.radius_secret.clone(), front));
            let faults = FaultPlan::healthy();
            transports.push(Arc::new(InMemoryTransport::new(
                &format!("radius{i}"),
                Arc::clone(&server),
                Arc::clone(&faults),
            )));
            radius_faults.push(faults);
            radius_servers.push(server);
        }

        // Risk engine, shared by every node's gate and fed by Center::ssh.
        let risk_engine = config.risk.as_ref().map(|p| {
            let engine = RiskEngine::new(Arc::clone(&p.geodb), p.weights.clone());
            engine.attach_metrics(Arc::clone(&config.metrics));
            engine
        });

        // Login nodes.
        let internal_rule = format!(
            "+ : ALL : {}/{} : ALL",
            config.internal_network.addr, config.internal_network.prefix
        );
        let mut nodes = Vec::new();
        for (i, name) in config.login_nodes.iter().enumerate() {
            let authlog = AuthLog::new();
            let exemptions = WatchedAccessConfig::new(
                AccessConfig::parse(&internal_rule).expect("internal rule parses"),
            );
            let mut client_config = ClientConfig::new(config.radius_secret.clone(), name);
            client_config.retry = config.retry.clone();
            client_config.breaker = config.breaker;
            let radius_client = Arc::new(RadiusClient::with_metrics(
                client_config,
                transports.clone(),
                Arc::clone(&config.metrics),
            ));
            let token_module = TokenModule::new(
                config.enforcement.clone(),
                Arc::clone(&radius_client),
                directory.clone(),
                &config.people_base,
                config.seed ^ (i as u64),
            );
            token_module.set_degradation(config.degradation.clone());
            let mut stack = PamStack::new();
            // The risk gate leads the stack: a denied login never reaches
            // the password module (and the pubkey module's SuccessSkip(1)
            // arithmetic, which skips the *next* module, stays intact).
            if let Some(engine) = &risk_engine {
                stack.push(
                    ControlFlag::Requisite,
                    RiskGateModule::new(Arc::clone(engine)),
                );
            }
            stack.push(
                ControlFlag::SuccessSkip(1),
                PubkeyCheckModule::new(Arc::new(authlog.clone())),
            );
            stack.push(
                ControlFlag::Requisite,
                UnixPasswordModule::new(directory.clone(), &config.people_base),
            );
            stack.push(
                ControlFlag::Sufficient,
                ExemptionModule::new(exemptions.clone()),
            );
            stack.push(ControlFlag::Required, Arc::clone(&token_module) as _);
            stack.set_metrics(Arc::clone(&config.metrics));
            let daemon = SshDaemon::with_metrics(
                name,
                Arc::new(stack),
                authlog,
                Arc::clone(&clock_arc),
                Arc::clone(&config.metrics),
            );
            nodes.push(Arc::new(LoginNode {
                name: name.clone(),
                daemon,
                token_module,
                exemptions,
                radius_client,
            }));
        }

        let alerts = Arc::new(AlertEngine::new(
            Arc::clone(&config.metrics),
            default_security_rules(),
        ));
        admin.attach_alerts(Arc::clone(&alerts));

        // Cross-site trace assembly: this site's registry is the first
        // source; federation wiring adds peer registries so one login's
        // spans from every hop assemble into a single tree.
        let traces = Arc::new(TraceCollector::new());
        traces.add_source(Arc::clone(&config.metrics));
        admin.attach_traces(Arc::clone(&traces));

        Arc::new(Center {
            config,
            clock,
            directory,
            identity,
            linotp,
            twilio,
            admin,
            portal,
            radius_faults,
            radius_servers,
            nodes,
            alerts,
            risk_engine,
            otp_cluster,
            realm_routers,
            radius_transports: transports,
            traces,
            exemption_lines: Mutex::new(Vec::new()),
        })
    }

    /// A center with default parameters.
    pub fn default_center() -> Arc<Self> {
        Self::new(CenterConfig::default())
    }

    // ------------------------------------------------------------------
    // Account management
    // ------------------------------------------------------------------

    /// Create an account end to end: identity record, LDAP entry with
    /// password hash, uid number shared between both (§3.1).
    pub fn create_user(&self, username: &str, email: &str, password: &str) {
        let rec = self
            .identity
            .create_account(username, email)
            .expect("unique username");
        let dn = format!("uid={username},{}", self.config.people_base);
        self.directory
            .add(
                Entry::new(dn)
                    .with_attr("uid", username)
                    .with_attr(
                        hpcmfa_directory::UID_NUMBER_ATTR,
                        &rec.uid_number.to_string(),
                    )
                    .with_attr("mail", email)
                    .with_attr(PASSWORD_ATTR, &hash_password(password, username)),
            )
            .expect("unique dn");
    }

    /// Install a public key for `user` on every login node.
    pub(crate) fn authorize_key_everywhere(&self, user: &str, key: &PublicKey) {
        for node in &self.nodes {
            node.daemon.authorize_key(user, key);
        }
    }

    /// Generate and install a keypair for `user` on all nodes.
    pub fn provision_key(&self, user: &str) -> KeyPair {
        let key = KeyPair::generate(&format!("{user}@client"));
        self.authorize_key_everywhere(user, key.public());
        key
    }

    // ------------------------------------------------------------------
    // Pairing conveniences (drive the real portal flows)
    // ------------------------------------------------------------------

    /// Pair a soft token through the portal and return the working device.
    pub fn pair_soft(&self, user: &str) -> SoftToken {
        let qr = self.portal.begin_soft_pairing(user).expect("begin soft");
        let device = SoftToken::from_uri(qr.payload()).expect("scannable QR");
        let code = device.displayed_code(self.clock.now());
        self.portal
            .confirm_pairing(user, &code)
            .expect("confirm soft");
        // The confirmation consumed the current time step; step past it so
        // an immediately following login isn't a replay.
        self.clock.advance(30);
        device
    }

    /// Pair an SMS token through the portal; the confirmation code is read
    /// off the simulated phone after carrier delivery. A message that takes
    /// the slow carrier-retry path arrives after the code expired — the
    /// user waits out the validity window and restarts the pairing, as a
    /// real user would.
    pub fn pair_sms(&self, user: &str, phone: &str) -> PhoneNumber {
        let parsed = PhoneNumber::parse(phone).expect("valid phone");
        for _attempt in 0..8 {
            self.portal
                .begin_sms_pairing(user, phone)
                .expect("begin sms");
            let sent_at = self.clock.now();
            // Wait out carrier latency (fast path is ≤ 9 s).
            self.clock.advance(10);
            let inbox = self.twilio.inbox(&parsed, self.clock.now());
            let fresh = inbox.iter().rev().find(|m| m.sent_at >= sent_at);
            if let Some(msg) = fresh {
                let code = msg.body.rsplit(' ').next().unwrap().to_string();
                self.portal
                    .confirm_pairing(user, &code)
                    .expect("confirm sms");
                self.clock.advance(30);
                return parsed;
            }
            // Delayed delivery: let the pending code expire, then retry
            // from the top (the suppression window blocks earlier resends).
            self.clock
                .advance(hpcmfa_otpserver::SMS_CODE_VALIDITY_SECS + 1);
        }
        panic!("carrier failed to deliver a pairing SMS in 8 attempts");
    }

    /// Import a hard-token batch and pair one fob to `user` by serial.
    pub fn pair_hard(&self, user: &str, batch: &HardTokenBatch, serial: &str) {
        self.portal.import_hard_token_batch(batch.seed_file());
        self.portal
            .begin_hard_pairing(user, serial)
            .expect("begin hard");
        let fob = batch.by_serial(serial).expect("serial in batch");
        let code = fob.press_button(self.clock.now()).expect("battery ok");
        self.portal
            .confirm_pairing(user, &code)
            .expect("confirm hard");
        self.clock.advance(30);
    }

    /// Enroll a training account with a static code (§3.3). Also records
    /// the pairing in the identity back end and LDAP.
    pub fn enroll_training_account(&self, user: &str) -> String {
        let code = self.linotp.enroll_static(user, self.clock.now());
        let _ = self
            .identity
            .set_pairing(user, PairingMethod::Training, self.clock.now());
        let dn = format!("uid={user},{}", self.config.people_base);
        let _ = self.directory.modify(&dn, |e| {
            e.set_attr(
                hpcmfa_directory::MFA_PAIRING_ATTR,
                vec!["training".to_string()],
            );
        });
        code
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Switch the enforcement mode on every node (the phase transitions of
    /// §5).
    pub fn set_enforcement(&self, mode: EnforcementMode) {
        for node in &self.nodes {
            node.token_module.set_mode(mode.clone());
        }
    }

    /// Per-RADIUS-server health as seen from login node `node_idx`.
    pub fn radius_health(&self, node_idx: usize) -> Vec<ServerHealthSnapshot> {
        self.nodes[node_idx].radius_client.server_health()
    }

    /// The fleet's transports, for peer sites building cross-realm pools.
    pub(crate) fn radius_transports(&self) -> Vec<Arc<dyn Transport>> {
        self.radius_transports.clone()
    }

    /// Register a peer site's metrics registry with this site's trace
    /// collector: a federated login's spans recorded over there join the
    /// trees assembled (and served via `GET /system/traces`) here.
    pub fn add_trace_source(&self, registry: Arc<MetricsRegistry>) {
        self.traces.add_source(registry);
    }

    /// Wire `peer` as the upstream for `realm`: every realm router in
    /// this center gets a dedicated [`RadiusClient`] over the peer's
    /// fleet, keyed with the shared secret from this site's trust config.
    /// The realm must appear in the trust ACL (the secret comes from its
    /// peer entry) and this center must be federated.
    pub fn connect_peer_realm(&self, realm: &str, peer: &Center) {
        let fed = self
            .config
            .federation
            .as_ref()
            .expect("connect_peer_realm on a non-federated center");
        let secret = fed
            .trust
            .peer(realm)
            .unwrap_or_else(|| panic!("realm {realm} not in the trust ACL"))
            .secret
            .clone();
        let mut client_config =
            ClientConfig::new(secret, &format!("{}-to-{realm}", fed.trust.home_realm));
        client_config.retry = self.config.retry.clone();
        client_config.breaker = self.config.breaker;
        // One pool per realm, shared by all routers: its per-server
        // breakers are this realm's breakers, independent of every other
        // realm's pool and of the local fleet's clients.
        let upstream = Arc::new(RadiusClient::with_metrics(
            client_config,
            peer.radius_transports(),
            Arc::clone(&self.config.metrics),
        ));
        for router in &self.realm_routers {
            router.add_route(realm, Arc::clone(&upstream));
        }
    }

    /// Kill the OTP server mid-stream and bring it back from durable
    /// state: un-synced WAL bytes are lost (possibly leaving a torn
    /// tail), the in-memory store is wiped, and recovery replays
    /// snapshot + WAL. Requires `otp_storage` in the config; the RADIUS
    /// handlers and admin API share the recovered instance, so the fleet
    /// resumes serving immediately.
    pub fn crash_otp_server(&self) -> Result<RecoveryReport, RecoverError> {
        self.linotp.crash_and_recover()
    }

    /// Append an exemption rule (one config line) and reload every node's
    /// list — "changes take effect immediately upon write to disk" (§3.4).
    pub fn add_exemption_rule(
        &self,
        line: &str,
    ) -> Result<(), hpcmfa_pam::access::AccessParseError> {
        let mut lines = self.exemption_lines.lock();
        let internal_rule = format!(
            "+ : ALL : {}/{} : ALL",
            self.config.internal_network.addr, self.config.internal_network.prefix
        );
        let mut text = String::new();
        for l in lines.iter() {
            text.push_str(l);
            text.push('\n');
        }
        text.push_str(line);
        text.push('\n');
        text.push_str(&internal_rule);
        text.push('\n');
        let parsed = AccessConfig::parse(&text)?;
        for node in &self.nodes {
            node.exemptions.reload(parsed.clone());
        }
        lines.push(line.to_string());
        Ok(())
    }

    /// SSH into node `node_idx` with `profile`. Every login also drives
    /// one alert-engine evaluation at the current virtual time, so any
    /// center-based harness (chaos, rollout, tests) gets a per-login
    /// alert cadence with no extra pumping.
    pub fn ssh(&self, node_idx: usize, profile: &ClientProfile) -> SessionReport {
        let report = self.nodes[node_idx].daemon.connect(profile);
        if let Some(engine) = &self.risk_engine {
            engine.record_outcome(&profile.username, self.clock.now(), report.granted);
        }
        self.alerts
            .tick(self.clock.now(), &self.config.metrics.snapshot());
        report
    }

    /// The center-wide metrics registry shared by every component.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.config.metrics
    }

    /// A point-in-time snapshot of every metric in the center.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.config.metrics.snapshot()
    }

    /// An address inside the internal network (for intra-center traffic).
    pub fn internal_ip(&self, host: u8) -> Ipv4Addr {
        let base = u32::from(self.config.internal_network.addr);
        Ipv4Addr::from(base | ((40u32 << 8) | host as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmfa_ssh::client::TokenSource;

    const EXTERNAL_IP: Ipv4Addr = Ipv4Addr::new(70, 112, 50, 3);

    fn center() -> Arc<Center> {
        let c = Center::default_center();
        c.create_user("alice", "alice@utexas.edu", "alice-pw");
        c.create_user("gateway1", "gw@portal.org", "gw-pw");
        c
    }

    #[test]
    fn unpaired_user_passes_in_paired_mode() {
        let c = center();
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw");
        let report = c.ssh(0, &profile);
        assert!(report.granted);
        assert!(!report.mfa_prompted);
    }

    #[test]
    fn paired_user_is_challenged_and_succeeds() {
        let c = center();
        let device = c.pair_soft("alice");
        let clock = c.clock.clone();
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
            TokenSource::device(move |now| {
                let _ = &clock;
                Some(device.displayed_code(now))
            }),
        );
        let report = c.ssh(0, &profile);
        assert!(report.granted, "prompts: {:?}", report.prompts);
        assert!(report.mfa_prompted);
    }

    #[test]
    fn full_mode_locks_out_unpaired() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw");
        let report = c.ssh(0, &profile);
        assert!(!report.granted);
        assert!(report.mfa_prompted);
    }

    #[test]
    fn internal_traffic_is_exempt() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let profile = ClientProfile::interactive_user("alice", c.internal_ip(7), "alice-pw");
        let report = c.ssh(0, &profile);
        assert!(report.granted);
        assert!(!report.mfa_prompted);
    }

    #[test]
    fn gateway_exemption_with_pubkey_runs_noninteractive() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        c.add_exemption_rule("+ : gateway1 : ALL : ALL").unwrap();
        let key = c.provision_key("gateway1");
        let profile = ClientProfile::batch_client("gateway1", EXTERNAL_IP, key);
        let report = c.ssh(0, &profile);
        assert!(report.granted);
        assert!(report.used_pubkey);
        assert!(report.prompts.is_empty(), "fully non-interactive");
    }

    #[test]
    fn batch_client_without_exemption_fails_in_full_mode() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let key = c.provision_key("alice");
        let profile = ClientProfile::batch_client("alice", EXTERNAL_IP, key);
        let report = c.ssh(0, &profile);
        assert!(!report.granted);
    }

    #[test]
    fn temporary_variance_expires_mid_simulation() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        c.add_exemption_rule("+ : alice : ALL : 2016-08-20")
            .unwrap();
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw");
        assert!(c.ssh(0, &profile).granted);
        // Advance past the variance (start is 2016-08-10).
        c.clock.advance(12 * 86_400);
        assert!(!c.ssh(0, &profile).granted);
    }

    #[test]
    fn sms_pairing_and_login() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let phone = c.pair_sms("alice", "5125551234");
        let twilio = Arc::clone(&c.twilio);
        let clock = c.clock.clone();
        // The login-time token source reads the most recent SMS; carrier
        // latency means we read slightly in the future of "now".
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
            TokenSource::device(move |now| {
                clock.advance(10); // user waits for the text
                let _ = now;
                twilio
                    .inbox(&phone, clock.now())
                    .last()
                    .map(|m| m.body.rsplit(' ').next().unwrap().to_string())
            }),
        );
        let report = c.ssh(0, &profile);
        assert!(report.granted, "prompts: {:?}", report.prompts);
        assert!(report.prompts.iter().any(|p| p.contains("SMS")));
    }

    #[test]
    fn hard_token_pairing_and_login() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::SeedableRng;
        let batch = HardTokenBatch::manufacture("TACC", 5, &mut rng);
        c.pair_hard("alice", &batch, "TACC-0003");
        let fob = batch.by_serial("TACC-0003").unwrap().clone();
        c.clock.advance(30);
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::device(move |now| fob.press_button(now)));
        assert!(c.ssh(0, &profile).granted);
    }

    #[test]
    fn training_account_static_code() {
        let c = center();
        c.create_user("train01", "train@tacc", "train-pw");
        c.set_enforcement(EnforcementMode::Full);
        let code = c.enroll_training_account("train01");
        let profile = ClientProfile::interactive_user("train01", EXTERNAL_IP, "train-pw")
            .with_token(TokenSource::Fixed(code.clone()));
        // Reusable: several participants log in with the same code.
        for _ in 0..3 {
            assert!(c.ssh(0, &profile).granted);
            c.clock.advance(60);
        }
    }

    #[test]
    fn radius_outage_failover_keeps_logins_working() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        // Take down 2 of 3 RADIUS servers.
        c.radius_faults[0].set_down(true);
        c.radius_faults[1].set_down(true);
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
            TokenSource::device(move |now| Some(device.displayed_code(now))),
        );
        assert!(c.ssh(0, &profile).granted);
        // Total outage fails secure.
        c.radius_faults[2].set_down(true);
        c.clock.advance(30);
        assert!(!c.ssh(1, &profile).granted);
    }

    #[test]
    fn both_nodes_share_backend_state() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        let d2 = device.clone();
        let p1 = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
            TokenSource::device(move |now| Some(device.displayed_code(now))),
        );
        assert!(c.ssh(0, &p1).granted);
        c.clock.advance(30);
        let p2 = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::device(move |now| Some(d2.displayed_code(now))));
        assert!(c.ssh(1, &p2).granted);
    }

    #[test]
    fn durable_center_keeps_replay_nullification_across_otp_crash() {
        use hpcmfa_otpserver::MemoryBackend;
        let backend = MemoryBackend::healthy();
        let c = Center::new(CenterConfig {
            otp_storage: Some(backend as Arc<dyn StorageBackend>),
            ..CenterConfig::default()
        });
        c.create_user("alice", "alice@utexas.edu", "alice-pw");
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        let code = device.displayed_code(c.clock.now());
        let p = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::Fixed(code));
        assert!(c.ssh(0, &p).granted);

        let report = c.crash_otp_server().expect("recovers");
        assert!(report.wal_records > 0, "the login stream was logged");

        // The accepted code is still a replay on the recovered server.
        assert!(!c.ssh(1, &p).granted);

        // A fresh code works: the fleet resumed serving after recovery.
        c.clock.advance(30);
        let d2 = device.clone();
        let fresh = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::device(move |now| Some(d2.displayed_code(now))));
        assert!(c.ssh(0, &fresh).granted);
    }

    #[test]
    fn replicated_center_promotes_the_standby_when_the_primary_dies() {
        use hpcmfa_otpserver::MemoryBackend;
        let primary = MemoryBackend::healthy();
        let standby = MemoryBackend::healthy();
        let c = Center::new(CenterConfig {
            otp_replication: Some(OtpReplicationParams::new(
                ReplicationMode::Sync,
                Arc::clone(&primary) as Arc<dyn StorageBackend>,
                Arc::clone(&standby) as Arc<dyn StorageBackend>,
            )),
            ..CenterConfig::default()
        });
        c.create_user("alice", "alice@utexas.edu", "alice-pw");
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        let code = device.displayed_code(c.clock.now());
        let replayed = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::Fixed(code));
        assert!(c.ssh(0, &replayed).granted);

        // Kill the primary's storage: durable appends fail, its breaker
        // opens, and the next request promotes the warm standby.
        primary.set_down(true);
        let d2 = device.clone();
        let fresh = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::device(move |now| Some(d2.displayed_code(now))));
        let cluster = c.otp_cluster.as_ref().expect("replicated center");
        for _ in 0..6 {
            c.clock.advance(30);
            let _ = c.ssh(0, &fresh);
            if cluster.epoch() > 1 {
                break;
            }
        }
        assert_eq!(cluster.epoch(), 2, "standby promoted");
        assert_eq!(cluster.failovers(), 1);

        // The fleet serves from the standby...
        c.clock.advance(30);
        assert!(c.ssh(1, &fresh).granted);
        // ...and the pre-crash acceptance replicated: replay still denied.
        assert!(!c.ssh(0, &replayed).granted);
    }

    #[test]
    fn one_login_populates_the_shared_registry_and_threads_one_trace() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        let profile = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw").with_token(
            TokenSource::device(move |now| Some(device.displayed_code(now))),
        );
        let report = c.ssh(0, &profile);
        assert!(report.granted, "prompts: {:?}", report.prompts);

        // Every layer recorded into the ONE center-wide registry.
        let snap = c.metrics_snapshot();
        assert!(snap.counter_family("hpcmfa_ssh_sessions_total") >= 1);
        assert!(snap.counter_family("hpcmfa_pam_stack_runs_total") >= 1);
        assert!(snap.counter_family("hpcmfa_radius_requests_total") >= 1);
        assert!(
            snap.counter("hpcmfa_otp_validations_total{outcome=\"success\"}") >= 1,
            "the OTP back end shares the registry"
        );
        let hist = snap.histogram_family("hpcmfa_radius_request_duration_us");
        assert!(hist.count() >= 1, "auth-path latency histogram present");

        // The session minted a trace id that reached the OTP audit log:
        // PAM stamped it on the RADIUS wire, the back end appended it to
        // the audit detail, and the tracer saw spans from both ends.
        let trace = *report.trace_ids.last().expect("session minted a trace id");
        let needle = format!("trace={trace}");
        assert!(
            c.linotp
                .audit()
                .for_user("alice")
                .iter()
                .any(|e| e.detail.contains(&needle)),
            "audit rows carry the session trace id"
        );
        let components = c.metrics().tracer().components_for(trace);
        assert!(
            components.contains(&"pam".to_string()) && components.contains(&"otp".to_string()),
            "spans from both ends of the path: {components:?}"
        );
    }

    #[test]
    fn replayed_token_code_rejected_across_nodes() {
        let c = center();
        c.set_enforcement(EnforcementMode::Full);
        let device = c.pair_soft("alice");
        let code = device.displayed_code(c.clock.now());
        let p = ClientProfile::interactive_user("alice", EXTERNAL_IP, "alice-pw")
            .with_token(TokenSource::Fixed(code.clone()));
        assert!(c.ssh(0, &p).granted);
        // Same code immediately on the other node: replay, denied.
        assert!(!c.ssh(1, &p).granted);
    }
}
