//! Seeded adversarial workload harness: scripted attacker models replayed
//! against a live center.
//!
//! Where [`chaos`](crate::chaos) injects *infrastructure* faults, this
//! module injects *adversaries*. An [`AttackScenario`] describes one
//! parameterized attacker — credential stuffing or password spraying from
//! rotating source networks, impossible-travel token phishing, SMS-flood
//! abuse, or slow-and-low probing — and an [`AttackRunner`] replays it on
//! the virtual clock against a center running the full defense stack:
//! the behavioural [`RiskEngine`](hpcmfa_risk::engine::RiskEngine) gate at
//! the head of every PAM stack, and the OTP server's bounded admission
//! queue with per-source-network token buckets.
//!
//! Every attempt — benign or hostile — is attributed by sampling the
//! defense counters (`hpcmfa_risk_decisions_total`, `hpcmfa_shed_total`,
//! the SMS "already sent" suppression) around its login, so the
//! [`AttackReport`] can state detection precision and recall per attack,
//! benign collateral (false-positive flags, sheds, lockouts), and the
//! latency the trusted lane held for legitimate users while the attack
//! ran. Everything is virtual-time and seeded: the same scenario and seed
//! yield byte-identical reports, alert timelines, and event feeds.

use hpcmfa_core::center::{Center, CenterConfig, FederationParams, RiskParams};
use hpcmfa_federation::TrustConfig;
use hpcmfa_otpserver::OverloadConfig;
use hpcmfa_pam::modules::token::EnforcementMode;
use hpcmfa_risk::engine::RiskWeights;
use hpcmfa_risk::geo::GeoDb;
use hpcmfa_ssh::client::{ClientProfile, TokenSource};
use hpcmfa_telemetry::{Counter, MetricsSnapshot};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The IP→country fixture every attack run scores against. Benign users
/// live in US space (70.0.0.0/8, plus the center's internal network);
/// the attacker pools rotate through CN/RU/BR/IR exit networks.
pub(crate) const ATTACK_GEODB: &str = "70.0.0.0/8 US\n\
                                129.114.0.0/16 US\n\
                                198.0.0.0/8 CN\n\
                                185.0.0.0/8 RU\n\
                                1.0.0.0/8 CN\n\
                                203.0.0.0/8 BR\n\
                                91.0.0.0/8 IR\n";

/// The attacker taxonomy (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Breached username/password lists replayed against a few target
    /// accounts at volume, from rotating foreign exit networks.
    CredentialStuffing,
    /// One password tried across the whole population, spread thin so no
    /// single account accumulates failures quickly.
    PasswordSpraying,
    /// The attacker holds a victim's password *and* live token codes
    /// (real-time phishing relay); every attempt comes from a
    /// geographically impossible network.
    TokenPhishing,
    /// Null-request abuse against SMS-paired victims: every trigger costs
    /// carrier money and keeps the victim's code window churning.
    SmsFlood,
    /// One probe every few minutes from a single quiet network, tuned to
    /// stay under velocity thresholds.
    SlowAndLow,
    /// The attacker phished a victim's password *and* session-resumption
    /// token (the RFC 9000 §8.1.4 stolen-token shape) and replays the
    /// token from their own networks — outside the /16 the token was
    /// bound to at issuance.
    TokenTheft,
}

impl AttackKind {
    /// Stable label for reports and counters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AttackKind::CredentialStuffing => "credential_stuffing",
            AttackKind::PasswordSpraying => "password_spraying",
            AttackKind::TokenPhishing => "token_phishing",
            AttackKind::SmsFlood => "sms_flood",
            AttackKind::SlowAndLow => "slow_and_low",
            AttackKind::TokenTheft => "token_theft",
        }
    }
}

/// One parameterized, seeded attacker. All fields are in virtual steps
/// (the runner advances the clock 30 s per step, exactly like the chaos
/// harness), so a scenario replays byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackScenario {
    /// Which attacker model.
    pub kind: AttackKind,
    /// First step the attack is active (steps before it are warmup: every
    /// benign user establishes a baseline and a trusted admission lane).
    pub start_step: usize,
    /// Active duration, in steps.
    pub duration_steps: usize,
    /// The attack fires on every `every`-th active step (1 = each step;
    /// slow-and-low uses 3).
    pub every: usize,
    /// Attempts per firing step.
    pub rate: usize,
    /// Rotating /16 source-pool size.
    pub source_pool: usize,
    /// Number of focused victim accounts; 0 spreads attempts across the
    /// whole benign population.
    pub victims: usize,
    /// Source the attack from inside the victims' home country
    /// (residential-proxy stuffing) instead of the kind's foreign pools.
    pub home_country_sources: bool,
    /// `Some(n)`: one in `n` attempts carries the victim's real password
    /// ("breached" credentials, so doomed token validations reach the OTP
    /// back end); `None`: every attempt guesses wrong.
    pub breached_creds: Option<usize>,
}

impl AttackScenario {
    fn preset(kind: AttackKind) -> Self {
        AttackScenario {
            kind,
            start_step: 16,
            duration_steps: 40,
            every: 1,
            rate: 1,
            source_pool: 1,
            victims: 0,
            home_country_sources: false,
            breached_creds: None,
        }
    }

    /// Stuffing: 6 attempts/step against 3 accounts from 6 rotating
    /// CN/RU networks; every 4th attempt carries a breached password.
    pub fn credential_stuffing() -> Self {
        AttackScenario {
            rate: 6,
            source_pool: 6,
            victims: 3,
            breached_creds: Some(4),
            ..Self::preset(AttackKind::CredentialStuffing)
        }
    }

    /// Spraying: one wrong password, 6 attempts/step spread across the
    /// whole population from 8 rotating RU/IR networks.
    pub fn password_spraying() -> Self {
        AttackScenario {
            rate: 6,
            source_pool: 8,
            ..Self::preset(AttackKind::PasswordSpraying)
        }
    }

    /// Phishing relay: correct password and live token codes for one
    /// victim, one attempt per step, a fresh network in a fresh country
    /// every attempt.
    pub fn token_phishing() -> Self {
        AttackScenario {
            source_pool: 200,
            victims: 1,
            breached_creds: Some(1),
            ..Self::preset(AttackKind::TokenPhishing)
        }
    }

    /// SMS flood: 2 null-request-plus-wrong-code attempts/step against 2
    /// SMS-paired victims from 4 rotating in-country networks.
    pub fn sms_flood() -> Self {
        AttackScenario {
            rate: 2,
            source_pool: 4,
            victims: 2,
            breached_creds: Some(1),
            ..Self::preset(AttackKind::SmsFlood)
        }
    }

    /// Slow-and-low: one probe every third step from a single quiet IR
    /// network, spread across the population.
    pub fn slow_and_low() -> Self {
        AttackScenario {
            duration_steps: 90,
            every: 3,
            ..Self::preset(AttackKind::SlowAndLow)
        }
    }

    /// The overload-acceptance storm: a 10×-benign-rate stuffing run with
    /// breached credentials from two in-country proxy networks, so the
    /// doomed validations land on the OTP admission queue. Pair with
    /// [`AttackParams::storm`].
    pub fn stuffing_storm() -> Self {
        AttackScenario {
            rate: 12,
            source_pool: 2,
            victims: 6,
            home_country_sources: true,
            breached_creds: Some(1),
            ..Self::preset(AttackKind::CredentialStuffing)
        }
    }

    /// Token theft: the attacker replays the victim's freshly issued
    /// resumption token (plus their phished password) once per step from
    /// rotating *in-country* residential proxies — no geo signal for the
    /// risk engine to score, so the token's /16 binding is the only
    /// thing between them and a shell.
    pub fn token_theft() -> Self {
        AttackScenario {
            source_pool: 200,
            victims: 1,
            home_country_sources: true,
            breached_creds: Some(1),
            ..Self::preset(AttackKind::TokenTheft)
        }
    }

    /// A zero-rate scenario: the no-attack control run.
    pub fn control() -> Self {
        AttackScenario {
            duration_steps: 0,
            rate: 0,
            ..Self::preset(AttackKind::CredentialStuffing)
        }
    }

    fn active_at(&self, step: usize) -> bool {
        step >= self.start_step
            && step < self.start_step + self.duration_steps
            && (step - self.start_step).is_multiple_of(self.every.max(1))
    }
}

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct AttackParams {
    /// Steps in the run (one benign login per step, 30 virtual seconds
    /// apart).
    pub steps: usize,
    /// Soft-token benign users.
    pub users: usize,
    /// SMS-token benign users (the SMS-flood victim pool).
    pub sms_users: usize,
    /// Master seed (center internals: token secrets, carrier sim).
    pub seed: u64,
    /// OTP admission control; `None` runs the back end unguarded.
    pub overload: Option<OverloadConfig>,
    /// Risk-engine scoring. The default raises `deny_at` to 100 so a
    /// victim under active attack (impossible-travel flag + attacker-fed
    /// failure score ≈ 95) is stepped up, never locked out.
    pub weights: RiskWeights,
}

impl Default for AttackParams {
    fn default() -> Self {
        AttackParams {
            steps: 120,
            users: 12,
            sms_users: 4,
            seed: 0xa77ac,
            overload: Some(OverloadConfig::default()),
            weights: RiskWeights {
                deny_at: 100,
                ..RiskWeights::default()
            },
        }
    }
}

impl AttackParams {
    /// Tight admission control for the stuffing-storm acceptance run:
    /// small per-network buckets so the storm's breached-credential
    /// validations visibly shed instead of queueing.
    pub fn storm() -> Self {
        AttackParams {
            overload: Some(OverloadConfig {
                bucket_burst: 4,
                bucket_rate_per_min: 6,
                ..OverloadConfig::default()
            }),
            ..AttackParams::default()
        }
    }
}

/// Which defense signals fired across one login attempt (sampled as
/// counter deltas around the dial).
#[derive(Debug, Clone, Copy, Default)]
struct Fired {
    step_up: bool,
    deny: bool,
    shed: bool,
    sms_abuse: bool,
    resume_replay: bool,
}

impl Fired {
    fn any(&self) -> bool {
        self.step_up || self.deny || self.shed || self.sms_abuse || self.resume_replay
    }
}

/// Cached handles on every counter the detector samples.
struct Detectors {
    step_up: Arc<Counter>,
    deny: Arc<Counter>,
    shed_rate_limited: Arc<Counter>,
    shed_unauth_flood: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    sms_already_active: Arc<Counter>,
    resume_wrong_address: Arc<Counter>,
    resume_replayed: Arc<Counter>,
}

impl Detectors {
    fn new(center: &Center) -> Self {
        let m = center.metrics();
        Detectors {
            step_up: m.counter("hpcmfa_risk_decisions_total", &[("decision", "step_up")]),
            deny: m.counter("hpcmfa_risk_decisions_total", &[("decision", "deny")]),
            shed_rate_limited: m.counter("hpcmfa_shed_total", &[("reason", "rate_limited")]),
            shed_unauth_flood: m.counter("hpcmfa_shed_total", &[("reason", "unauth_flood")]),
            shed_queue_full: m.counter("hpcmfa_shed_total", &[("reason", "queue_full")]),
            sms_already_active: m.counter(
                "hpcmfa_otp_sms_triggers_total",
                &[("result", "already_active")],
            ),
            resume_wrong_address: m.counter(
                "hpcmfa_otp_resume_validations_total",
                &[("outcome", "wrong_address")],
            ),
            resume_replayed: m.counter(
                "hpcmfa_otp_resume_validations_total",
                &[("outcome", "replayed")],
            ),
        }
    }

    fn sample(&self) -> [u64; 8] {
        [
            self.step_up.get(),
            self.deny.get(),
            self.shed_rate_limited.get(),
            self.shed_unauth_flood.get(),
            self.shed_queue_full.get(),
            self.sms_already_active.get(),
            self.resume_wrong_address.get(),
            self.resume_replayed.get(),
        ]
    }

    fn fired_since(&self, before: [u64; 8]) -> Fired {
        let now = self.sample();
        Fired {
            step_up: now[0] > before[0],
            deny: now[1] > before[1],
            shed: now[2] > before[2] || now[3] > before[3] || now[4] > before[4],
            sms_abuse: now[5] > before[5],
            resume_replay: now[6] > before[6] || now[7] > before[7],
        }
    }
}

/// What one adversarial run produced.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// The scenario's attack label.
    pub kind: &'static str,
    /// Hostile attempts dialed.
    pub attack_attempts: usize,
    /// Hostile attempts that were *granted* — the number that matters.
    pub attack_granted: usize,
    /// Hostile attempts on which at least one defense signal fired.
    pub attack_flagged: usize,
    /// Of the flagged, how many saw a risk deny.
    pub flagged_deny: usize,
    /// …a risk step-up.
    pub flagged_step_up: usize,
    /// …an admission-control shed.
    pub flagged_shed: usize,
    /// …the SMS "already sent" suppression.
    pub flagged_sms_abuse: usize,
    /// …a resumption-token replay signal (wrong-/16 presentation or a
    /// nonce already burned in the single-use ledger).
    pub flagged_resume_replay: usize,
    /// Benign logins dialed (one per step).
    pub benign_attempts: usize,
    /// Benign logins granted.
    pub benign_granted: usize,
    /// Benign logins on which a defense signal fired (false-positive
    /// flags; under attack these are mostly step-ups on the victims).
    pub benign_flagged: usize,
    /// Benign logins shed by admission control (must stay 0: the trusted
    /// lane exists exactly so the flood starves itself, not the users).
    pub benign_shed: usize,
    /// Benign accounts left deactivated by the 20-failure lockout at the
    /// end of the run (must stay 0: gate denials and sheds never touch
    /// the OTP failure counter, and every benign success resets it).
    pub benign_lockouts: usize,
    /// p99 of the trusted admission lane's virtual queueing latency, µs
    /// (0 when overload protection is off).
    pub trusted_p99_us: u64,
    /// p99 of the best-effort lane, µs.
    pub best_effort_p99_us: u64,
    /// Point-in-time snapshot of the center-wide registry at the end of
    /// the run. Not part of the [`Display`](std::fmt::Display) output:
    /// wall-clock histograms would break byte-identical reports.
    pub metrics: MetricsSnapshot,
    /// The alert engine's full transition timeline (deterministic; part
    /// of the Display output and of byte-identical comparisons).
    pub alerts: Vec<String>,
    /// The security-event ring at the end of the run (deterministic).
    pub security_events: Vec<String>,
    /// Critical-path summary of the slowest surviving trace in the
    /// center's collector — under attack, usually a benign login that
    /// queued behind the flood. Virtual durations; part of the
    /// byte-identical Display output.
    pub critical_path: Vec<String>,
}

impl AttackReport {
    /// Fraction of hostile attempts on which a defense signal fired.
    pub fn recall(&self) -> f64 {
        if self.attack_attempts == 0 {
            return 1.0;
        }
        self.attack_flagged as f64 / self.attack_attempts as f64
    }

    /// Of everything flagged, the fraction that was actually hostile.
    pub fn precision(&self) -> f64 {
        let flagged = self.attack_flagged + self.benign_flagged;
        if flagged == 0 {
            return 1.0;
        }
        self.attack_flagged as f64 / flagged as f64
    }

    /// Fraction of benign logins that drew a step-up or other flag.
    pub fn benign_fp_rate(&self) -> f64 {
        if self.benign_attempts == 0 {
            return 0.0;
        }
        self.benign_flagged as f64 / self.benign_attempts as f64
    }

    /// Fraction of hostile attempts shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.attack_attempts == 0 {
            return 0.0;
        }
        self.flagged_shed as f64 / self.attack_attempts as f64
    }
}

impl std::fmt::Display for AttackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "attack[{}]: {} attempts, {} granted, {} flagged ({} deny, {} step-up, {} shed, {} sms-abuse, {} resume-replay), recall {:.3}, precision {:.3}",
            self.kind,
            self.attack_attempts,
            self.attack_granted,
            self.attack_flagged,
            self.flagged_deny,
            self.flagged_step_up,
            self.flagged_shed,
            self.flagged_sms_abuse,
            self.flagged_resume_replay,
            self.recall(),
            self.precision(),
        )?;
        writeln!(
            f,
            "benign: {} logins, {} granted, {} flagged, {} shed, {} lockouts",
            self.benign_attempts,
            self.benign_granted,
            self.benign_flagged,
            self.benign_shed,
            self.benign_lockouts,
        )?;
        writeln!(
            f,
            "latency: trusted p99 {}us, best-effort p99 {}us",
            self.trusted_p99_us, self.best_effort_p99_us,
        )?;
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

/// A user's token-code generator, shared with the login profile.
type TokenFn = Arc<dyn Fn(u64) -> Option<String> + Send + Sync>;

struct BenignUser {
    name: String,
    ip: Ipv4Addr,
    token: TokenFn,
}

/// Builds the center with the full defense stack, enrolls the benign
/// population, replays one [`AttackScenario`].
pub struct AttackRunner {
    /// The center under test (single login node, risk gate + admission
    /// control wired in).
    pub center: Arc<Center>,
    params: AttackParams,
    scenario: AttackScenario,
    benign: Vec<BenignUser>,
}

impl AttackRunner {
    /// Stand up a full-enforcement center with risk scoring and overload
    /// protection, `params.users` soft-token users at distinct home /16s,
    /// and `params.sms_users` SMS-paired users.
    pub fn new(params: AttackParams, scenario: AttackScenario) -> Self {
        let geodb = Arc::new(GeoDb::parse(ATTACK_GEODB).expect("fixture geodb parses"));
        // Token theft only exists where tokens do: enable the federation
        // stack (local-only trust — no peers — is enough to mint
        // resumption tokens) for that scenario.
        let federation = (scenario.kind == AttackKind::TokenTheft).then(|| {
            FederationParams::new(TrustConfig::local_only("tacc"), b"attack-resume-key", 20)
        });
        let center = Center::new(CenterConfig {
            login_nodes: vec!["login1".into()],
            enforcement: EnforcementMode::Full,
            seed: params.seed,
            risk: Some(RiskParams {
                geodb,
                weights: params.weights.clone(),
            }),
            otp_overload: params.overload.clone(),
            federation,
            ..CenterConfig::default()
        });
        let mut benign = Vec::new();
        for i in 0..params.users {
            let name = format!("user{i:02}");
            center.create_user(&name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
            let token = center.pair_soft(&name);
            benign.push(BenignUser {
                name,
                // One stable /16 per user: their behavioural baseline.
                ip: Ipv4Addr::new(70, 10 + i as u8, 50, 3),
                token: Arc::new(move |now| Some(token.displayed_code(now))) as TokenFn,
            });
        }
        for i in 0..params.sms_users {
            let name = format!("sms{i:02}");
            center.create_user(&name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
            let phone = center.pair_sms(&name, &format!("512555{:04}", 1000 + i));
            let twilio = Arc::clone(&center.twilio);
            let clock = center.clock.clone();
            benign.push(BenignUser {
                name,
                ip: Ipv4Addr::new(70, 100 + i as u8, 50, 3),
                token: Arc::new(move |_now| {
                    // The user waits for the text, then types the code.
                    use hpcmfa_otp::clock::Clock;
                    use hpcmfa_otpserver::sms::SmsProvider;
                    clock.advance(10);
                    twilio
                        .inbox(&phone, clock.now())
                        .last()
                        .map(|m| m.body.rsplit(' ').next().unwrap().to_string())
                }) as TokenFn,
            });
        }
        AttackRunner {
            center,
            params,
            scenario,
            benign,
        }
    }

    /// The source network for hostile attempt number `counter`.
    fn attacker_ip(&self, counter: usize) -> Ipv4Addr {
        let s = &self.scenario;
        let pool = s.source_pool.max(1);
        if s.home_country_sources || s.kind == AttackKind::SmsFlood {
            // Residential proxies inside the victims' own country: no geo
            // signal, only velocity/failure/admission pressure.
            return Ipv4Addr::new(70, 200u8.wrapping_add((counter % pool.min(40)) as u8), 9, 9);
        }
        match s.kind {
            AttackKind::CredentialStuffing => {
                // Alternate CN/RU exits while walking the /16 pool.
                let country = if counter.is_multiple_of(2) { 198 } else { 185 };
                Ipv4Addr::new(country, 18 + (counter % pool.min(200)) as u8, 4, 4)
            }
            AttackKind::PasswordSpraying => {
                // One sweep = one pass over the whole population. Rotate
                // the exit network *between* sweeps, so consecutive probes
                // of the same account arrive from alternating countries —
                // the impossible-travel signal fires from the first repeat
                // probe onward instead of waiting for failures to accrue.
                let sweep = counter / self.benign.len().max(1);
                let country = if sweep.is_multiple_of(2) { 185 } else { 91 };
                Ipv4Addr::new(country, 30 + (sweep % pool.min(200)) as u8, 4, 4)
            }
            AttackKind::TokenPhishing | AttackKind::TokenTheft => {
                // A fresh network in a rotating country every attempt: the
                // impossible-travel signature, and (for theft) a /16 that
                // never matches the one sealed into the stolen token.
                const COUNTRIES: [u8; 4] = [1, 185, 203, 91];
                Ipv4Addr::new(
                    COUNTRIES[counter % 4],
                    1 + (counter % pool.min(250)) as u8,
                    4,
                    4,
                )
            }
            AttackKind::SmsFlood => unreachable!("handled above"),
            AttackKind::SlowAndLow => Ipv4Addr::new(91, 77, 4, 4),
        }
    }

    /// The benign index hostile attempt `counter` targets.
    fn victim_index(&self, counter: usize) -> usize {
        let s = &self.scenario;
        match s.kind {
            // The SMS flood aims at the SMS-paired cohort.
            AttackKind::SmsFlood => {
                let n = s.victims.clamp(1, self.params.sms_users.max(1));
                self.params.users + (counter % n)
            }
            _ if s.victims > 0 => counter % s.victims.min(self.params.users.max(1)),
            // Spread: walk the whole population.
            _ => counter % self.benign.len().max(1),
        }
    }

    /// The credential-and-token pair for hostile attempt `counter`.
    /// `stolen` is the victim's most recently exfiltrated resumption
    /// token, when the scenario has one.
    fn attacker_profile(
        &self,
        counter: usize,
        victim: &BenignUser,
        stolen: Option<&str>,
    ) -> ClientProfile {
        let s = &self.scenario;
        let breached = match s.breached_creds {
            Some(n) => counter.is_multiple_of(n.max(1)),
            None => false,
        };
        let password = if breached {
            format!("{}-pw", victim.name)
        } else {
            "hunter2".to_string()
        };
        let token = match s.kind {
            // The relay clones the victim's live codes.
            AttackKind::TokenPhishing => TokenSource::Device(Arc::clone(&victim.token)),
            // The thief replays the exfiltrated resumption token verbatim
            // (falling back to a doomed guess until one has been minted).
            AttackKind::TokenTheft => match stolen {
                Some(t) => TokenSource::Fixed(t.to_string()),
                None => TokenSource::Fixed("000000".to_string()),
            },
            _ => TokenSource::Fixed("000000".to_string()),
        };
        ClientProfile::interactive_user(&victim.name, self.attacker_ip(counter), &password)
            .with_token(token)
    }

    /// Replay the scenario and report.
    pub fn run(self) -> AttackReport {
        let detect = Detectors::new(&self.center);
        let mut report = AttackReport {
            kind: self.scenario.kind.label(),
            attack_attempts: 0,
            attack_granted: 0,
            attack_flagged: 0,
            flagged_deny: 0,
            flagged_step_up: 0,
            flagged_shed: 0,
            flagged_sms_abuse: 0,
            flagged_resume_replay: 0,
            benign_attempts: 0,
            benign_granted: 0,
            benign_flagged: 0,
            benign_shed: 0,
            benign_lockouts: 0,
            trusted_p99_us: 0,
            best_effort_p99_us: 0,
            metrics: MetricsSnapshot::default(),
            alerts: Vec::new(),
            security_events: Vec::new(),
            critical_path: Vec::new(),
        };
        let mut attempt_counter = 0usize;
        // Token theft's exfiltration channel: the most recent resumption
        // token each benign user was issued, as captured off the wire by
        // the attacker's phishing kit.
        let mut stolen: std::collections::BTreeMap<String, String> =
            std::collections::BTreeMap::new();
        for step in 0..self.params.steps {
            // Step past the TOTP window so the next login by the same user
            // is a fresh code, not a replay.
            self.center.clock.advance(30);

            // One benign login per step, rotating through the population.
            let user = &self.benign[step % self.benign.len()];
            let profile =
                ClientProfile::interactive_user(&user.name, user.ip, &format!("{}-pw", user.name))
                    .with_token(TokenSource::Device(Arc::clone(&user.token)));
            let before = detect.sample();
            let session = self.center.ssh(0, &profile);
            let granted = session.granted;
            if let Some(token) = session.issued_resume_token {
                stolen.insert(user.name.clone(), token);
            }
            let fired = detect.fired_since(before);
            report.benign_attempts += 1;
            if granted {
                report.benign_granted += 1;
            }
            if fired.any() {
                report.benign_flagged += 1;
            }
            if fired.shed {
                report.benign_shed += 1;
            }

            // The attack burst, same virtual second (after the benign
            // dial: the flood contends with the *next* step's benign
            // traffic through the admission queue).
            if self.scenario.active_at(step) {
                for _ in 0..self.scenario.rate {
                    let victim = &self.benign[self.victim_index(attempt_counter)];
                    let phished = stolen.get(&victim.name).map(String::as_str);
                    let profile = self.attacker_profile(attempt_counter, victim, phished);
                    attempt_counter += 1;
                    let before = detect.sample();
                    let granted = self.center.ssh(0, &profile).granted;
                    let fired = detect.fired_since(before);
                    report.attack_attempts += 1;
                    if granted {
                        report.attack_granted += 1;
                    }
                    if fired.any() {
                        report.attack_flagged += 1;
                    }
                    if fired.deny {
                        report.flagged_deny += 1;
                    }
                    if fired.step_up {
                        report.flagged_step_up += 1;
                    }
                    if fired.shed {
                        report.flagged_shed += 1;
                    }
                    if fired.sms_abuse {
                        report.flagged_sms_abuse += 1;
                    }
                    if fired.resume_replay {
                        report.flagged_resume_replay += 1;
                    }
                }
            }
        }

        // End-of-run accounting.
        let store = self.center.linotp.store();
        report.benign_lockouts = self
            .benign
            .iter()
            .filter(|u| !store.with_record(&u.name, |r| r.active).unwrap_or(true))
            .count();
        report.metrics = self.center.metrics_snapshot();
        if let Some(h) = report
            .metrics
            .histogram("hpcmfa_otp_validate_vtime_us{lane=\"trusted\"}")
        {
            report.trusted_p99_us = h.p99();
        }
        if let Some(h) = report
            .metrics
            .histogram("hpcmfa_otp_validate_vtime_us{lane=\"best_effort\"}")
        {
            report.best_effort_p99_us = h.p99();
        }
        report.alerts = self.center.alerts.timeline_lines();
        report.security_events = self
            .center
            .metrics()
            .security_events()
            .all()
            .iter()
            .map(|e| e.to_string())
            .collect();
        // Which hop the flood actually slowed down: the admission queue
        // wait, a window scan, or a WAL fsync. Virtual durations, so the
        // lines replay byte-identical.
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

    fn run(scenario: AttackScenario) -> AttackReport {
        AttackRunner::new(AttackParams::default(), scenario).run()
    }

    #[test]
    fn control_run_is_clean() {
        let report = run(AttackScenario::control());
        assert_eq!(report.attack_attempts, 0);
        assert_eq!(report.benign_attempts, 120);
        assert_eq!(report.benign_shed, 0, "{report}");
        assert_eq!(report.benign_lockouts, 0, "{report}");
        assert!(
            report.benign_granted >= report.benign_attempts - 2,
            "benign stream healthy modulo carrier tail: {report}"
        );
        // Warm benign traffic rides the trusted lane at bare service cost.
        assert!(report.trusted_p99_us > 0, "{report}");
    }

    #[test]
    fn stuffing_is_detected_and_denied() {
        let report = run(AttackScenario::credential_stuffing());
        assert_eq!(report.attack_attempts, 240);
        assert_eq!(report.attack_granted, 0, "{report}");
        assert!(
            report.recall() >= 0.9,
            "recall {}: {report}",
            report.recall()
        );
        assert!(report.flagged_deny > 0, "{report}");
        assert_eq!(report.benign_lockouts, 0, "{report}");
        // The deny surge must walk the full alert lifecycle.
        let has = |needle: &str| report.alerts.iter().any(|l| l.contains(needle));
        assert!(has("risk_deny_surge inactive->pending"), "{report}");
        assert!(has("risk_deny_surge pending->firing"), "{report}");
        assert!(has("risk_deny_surge firing->resolved"), "{report}");
    }

    #[test]
    fn phishing_never_gets_in() {
        let report = run(AttackScenario::token_phishing());
        assert_eq!(report.attack_attempts, 40);
        // The attacker holds a valid password AND live codes; geography
        // is the only thing standing between them and a shell.
        assert_eq!(report.attack_granted, 0, "{report}");
        assert_eq!(report.attack_flagged, report.attack_attempts, "{report}");
        assert_eq!(report.benign_lockouts, 0, "{report}");
    }

    #[test]
    fn stolen_resume_token_never_gets_in() {
        let report = run(AttackScenario::token_theft());
        assert_eq!(report.attack_attempts, 40);
        // The attacker holds the victim's password AND a live resumption
        // token; the /16 binding is the only remaining control.
        assert_eq!(report.attack_granted, 0, "{report}");
        assert!(report.flagged_resume_replay > 0, "{report}");
        assert!(
            report
                .security_events
                .iter()
                .any(|e| e.contains("resume_replay")),
            "{report}"
        );
        assert_eq!(report.benign_lockouts, 0, "{report}");
    }

    #[test]
    fn storm_sheds_but_benign_lane_holds() {
        let control = AttackRunner::new(AttackParams::storm(), AttackScenario::control()).run();
        let storm =
            AttackRunner::new(AttackParams::storm(), AttackScenario::stuffing_storm()).run();
        assert!(storm.flagged_shed > 0, "{storm}");
        assert!(storm.recall() > 0.0, "{storm}");
        assert_eq!(storm.benign_lockouts, 0, "{storm}");
        assert_eq!(storm.benign_shed, 0, "{storm}");
        // The latency SLO: benign p99 within 2× of the no-attack run.
        assert!(
            storm.trusted_p99_us <= control.trusted_p99_us * 2,
            "storm trusted p99 {} vs control {}",
            storm.trusted_p99_us,
            control.trusted_p99_us
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(AttackScenario::credential_stuffing());
        let b = run(AttackScenario::credential_stuffing());
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
