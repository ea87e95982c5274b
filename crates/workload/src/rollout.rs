//! The day-by-day rollout simulator.
//!
//! Replays §5's calendar against a real [`Center`]: phase 1 ("paired")
//! begins with the 2016-08-10 announcement, phase 2 ("countdown") on
//! 09-06, phase 3 ("full"/mandatory) on 10-04. Every login below runs the
//! complete sshd → PAM → RADIUS → OTP-server path; every pairing runs the
//! real portal flow; SMS codes ride the simulated carrier with its
//! occasional delayed-past-expiry deliveries.
//!
//! The §5 mitigation strategies are modeled as reactions: when a scripted
//! workflow first breaks (the phase-2 mandatory acknowledgement, then
//! mandatory MFA), its owner either obtains a temporary exemption, moves
//! the cron job onto a login node (internal, exempt traffic), or adopts
//! SSH multiplexing (pairs a device; external volume collapses to the
//! master connections).

use crate::population::{Cohort, DevicePreference, Population, UserSpec};
use hpcmfa_core::center::{Center, CenterConfig, RiskParams};
use hpcmfa_otp::clock::Clock as _;
use hpcmfa_otp::date::Date;
use hpcmfa_otp::device::HardTokenBatch;
use hpcmfa_pam::modules::token::EnforcementMode;
use hpcmfa_ssh::client::{ClientProfile, TokenSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The §5 milestone dates.
#[derive(Debug, Clone, Copy)]
pub struct Milestones {
    /// First public announcement; phase 1 ("paired") begins.
    pub announce: Date,
    /// Phase 2 ("countdown") begins.
    pub phase2: Date,
    /// Phase 3: MFA mandatory ("full").
    pub mandatory: Date,
}

impl Default for Milestones {
    fn default() -> Self {
        Milestones {
            announce: Date::new(2016, 8, 10),
            phase2: Date::new(2016, 9, 6),
            mandatory: Date::new(2016, 10, 4),
        }
    }
}

// Ticket-model rates, tuned so the MFA share of tickets lands near the
// paper's 6.7 % during the transition and 2.7 % in Q1 2017 (Figure 5).

/// Mean non-MFA tickets per weekday.
const TICKETS_PER_WEEKDAY: f64 = 55.0;
/// Mean non-MFA tickets per weekend day.
const TICKETS_PER_WEEKEND_DAY: f64 = 13.0;
/// P(ticket) per new pairing.
const TICKET_PER_PAIRING: f64 = 0.065;
/// P(ticket) per failed login.
const TICKET_PER_FAILED_LOGIN: f64 = 0.018;
/// P(ticket) per newly disrupted automated workflow.
const TICKET_PER_DISRUPTION: f64 = 0.12;
/// Extra MFA tickets on each phase-transition day.
const TICKETS_PER_PHASE_BUMP: f64 = 4.0;

/// Daily probability that a paired user replaces their device pairing
/// (new phone, new number — §3.5's update flows; the paper's Q1-2017
/// inquiries were "from new users or those who wished to change their
/// MFA device pairing").
const REPAIR_DAILY_PROB: f64 = 0.001;

/// Full simulation parameters.
#[derive(Debug, Clone)]
pub struct RolloutParams {
    /// Population scale factor (1.0 = paper scale, >10k accounts).
    pub population_scale: f64,
    /// First simulated day (inclusive).
    pub from: Date,
    /// Last simulated day (inclusive).
    pub to: Date,
    /// Phase dates.
    pub milestones: Milestones,
    /// Simulation seed.
    pub seed: u64,
    /// Score every login through the behavioural risk engine (default
    /// weights). The rollout population is the benign baseline for the
    /// detection report: with everyone logging in from their stable home
    /// networks, the deny counter must stay at zero.
    pub risk: bool,
}

impl Default for RolloutParams {
    fn default() -> Self {
        RolloutParams {
            population_scale: 1.0,
            from: Date::new(2016, 7, 1),
            to: Date::new(2016, 12, 31),
            milestones: Milestones::default(),
            seed: 1017,
            risk: false,
        }
    }
}

/// One simulated day's aggregates — the raw material of Figures 3–6.
#[derive(Debug, Clone, PartialEq)]
pub struct DayRecord {
    /// Calendar day.
    pub date: Date,
    /// Phase in effect: 0 = pre-announcement, 1/2/3 as in the paper.
    pub phase: u8,
    /// Distinct users with ≥1 successful MFA login (Figure 3).
    pub unique_mfa_users: usize,
    /// External logins that used MFA (Figure 4, blue).
    pub ext_mfa_logins: u64,
    /// All external logins (Figure 4, red).
    pub ext_total_logins: u64,
    /// All logins including internal traffic (Figure 4, black).
    pub total_logins: u64,
    /// Newly initialized pairings (Figure 6).
    pub new_pairings: u64,
    /// Login attempts that were denied.
    pub failed_logins: u64,
    /// MFA-related support tickets (Figure 5).
    pub tickets_mfa: u64,
    /// All other tickets (Figure 5).
    pub tickets_other: u64,
}

/// The simulation result.
pub struct SimOutput {
    /// Per-day aggregates, in calendar order.
    pub days: Vec<DayRecord>,
    /// Final pairing breakdown [soft, sms, hard, training] as fractions of
    /// paired accounts (Table 1).
    pub table1: Option<[f64; 4]>,
    /// Total successful logins across the run (§6's "over half a million
    /// successful log ins" at paper scale).
    pub total_successful_logins: u64,
    /// Total SMS messages sent and their cost in micro-dollars.
    pub sms_sent: usize,
    /// SMS cost including monthly fees, micro-dollars.
    pub sms_cost_micros: u64,
    /// Failed-login counts by cohort (diagnostics; which population the
    /// transition actually hurt).
    pub failures_by_cohort: std::collections::HashMap<Cohort, u64>,
    /// End-of-run snapshot of the center-wide metrics registry: the
    /// counters and latency histograms behind the per-day aggregates.
    pub metrics: hpcmfa_telemetry::MetricsSnapshot,
    /// Full alert-transition timeline from the center's rule engine, in
    /// virtual-time order (deterministic for a given seed).
    pub alerts: Vec<String>,
    /// Security events observed during the run, rendered in emission
    /// order (deterministic for a given seed).
    pub security_events: Vec<String>,
}

impl SimOutput {
    /// MFA share of tickets over `[from, to]`, as a fraction.
    pub fn ticket_mfa_share(&self, from: Date, to: Date) -> f64 {
        let (mut mfa, mut total) = (0u64, 0u64);
        for d in &self.days {
            if d.date >= from && d.date <= to {
                mfa += d.tickets_mfa;
                total += d.tickets_mfa + d.tickets_other;
            }
        }
        if total == 0 {
            0.0
        } else {
            mfa as f64 / total as f64
        }
    }
}

/// How a disrupted automated workflow adapted (§5 strategies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Migration {
    /// Staff granted a temporary variance.
    Exemption,
    /// Cron moved onto a login node: traffic becomes internal.
    InternalCron,
    /// SSH multiplexing: owner paired a device; external volume drops to
    /// the master connections.
    Multiplex,
}

struct UserState {
    spec: UserSpec,
    device: TokenSource,
    key: Option<hpcmfa_ssh::keys::KeyPair>,
    ext_ip: Ipv4Addr,
    disrupted: bool,
    migration: Option<Migration>,
    paired: bool,
}

/// The simulator.
pub struct RolloutSim {
    /// The center under test.
    pub center: Arc<Center>,
    params: RolloutParams,
    users: Vec<UserState>,
    hard_batch: HardTokenBatch,
    next_hard_serial: usize,
    rng: StdRng,
    new_user_counter: usize,
    failures_by_cohort: std::collections::HashMap<Cohort, u64>,
}

impl RolloutSim {
    /// Build the center, create all accounts, install keys, pre-exempt
    /// gateway and community accounts.
    pub fn new(params: RolloutParams) -> Self {
        let population = Population::generate(crate::population::PopulationParams {
            seed: params.seed ^ 0x9e37,
            ..crate::population::PopulationParams::scaled(params.population_scale)
        });
        let center = Center::new(CenterConfig {
            start_time: params.from.unix_midnight(),
            enforcement: EnforcementMode::Off,
            seed: params.seed,
            // One-country fixture spanning every simulated external /8 plus
            // the internal network: the benign baseline only exercises the
            // velocity/failure/new-network signals, never geography.
            risk: params.risk.then(|| RiskParams {
                geodb: Arc::new(
                    hpcmfa_risk::geo::GeoDb::parse("64.0.0.0/2 US\n128.0.0.0/2 US\n")
                        .expect("baseline geodb parses"),
                ),
                weights: hpcmfa_risk::engine::RiskWeights::default(),
            }),
            ..CenterConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(params.seed);

        let hard_count = population
            .users
            .iter()
            .filter(|u| u.device == DevicePreference::Hard)
            .count();
        let mut batch_rng = StdRng::seed_from_u64(params.seed ^ 0xfe17);
        let hard_batch = HardTokenBatch::manufacture("TACC", hard_count + 64, &mut batch_rng);

        let mut users = Vec::with_capacity(population.len());
        let mut gateway_names = Vec::new();
        let mut community_names = Vec::new();
        for spec in &population.users {
            if spec.cohort == Cohort::Inactive {
                // Dormant accounts exist in the identity plant but never
                // generate events; keep them out of the hot loop.
                center.create_user(
                    &spec.username,
                    &format!("{}@x.edu", spec.username),
                    "unused",
                );
                continue;
            }
            center.create_user(
                &spec.username,
                &format!("{}@utexas.edu", spec.username),
                &format!("{}-pw", spec.username),
            );
            let key = spec
                .uses_pubkey
                .then(|| center.provision_key(&spec.username));
            match spec.cohort {
                Cohort::Gateway => gateway_names.push(spec.username.clone()),
                Cohort::Community => community_names.push(spec.username.clone()),
                _ => {}
            }
            let ext_ip = Ipv4Addr::new(
                70 + (rng.random_range(0..60u8)),
                rng.random_range(1..250),
                rng.random_range(1..250),
                rng.random_range(1..250),
            );
            users.push(UserState {
                spec: spec.clone(),
                device: TokenSource::None,
                key,
                ext_ip,
                disrupted: false,
                migration: None,
                paired: false,
            });
        }
        // Trusted accounts are whitelisted before the rollout starts so
        // their automated transactions continue uninterrupted (§3.4).
        if !gateway_names.is_empty() {
            center
                .add_exemption_rule(&format!("+ : {} : ALL : ALL", gateway_names.join(" ")))
                .expect("gateway rule");
        }
        if !community_names.is_empty() {
            center
                .add_exemption_rule(&format!("+ : {} : ALL : ALL", community_names.join(" ")))
                .expect("community rule");
        }

        RolloutSim {
            center,
            params,
            users,
            hard_batch,
            next_hard_serial: 0,
            rng,
            new_user_counter: 0,
            failures_by_cohort: std::collections::HashMap::new(),
        }
    }

    fn activity_multiplier(date: Date) -> f64 {
        let holiday = (date >= Date::new(2016, 12, 17) && date <= Date::new(2017, 1, 2))
            || (date >= Date::new(2016, 11, 24) && date <= Date::new(2016, 11, 27));
        let base = if date.is_weekend() { 0.5 } else { 1.0 };
        if holiday {
            base * 0.35
        } else {
            base
        }
    }

    fn phase_of(&self, date: Date) -> u8 {
        let m = &self.params.milestones;
        if date >= m.mandatory {
            3
        } else if date >= m.phase2 {
            2
        } else if date >= m.announce {
            1
        } else {
            0
        }
    }

    /// Pair user `idx` through the real portal flows. Returns whether a new
    /// pairing was made.
    fn pair_user(&mut self, idx: usize) -> bool {
        let (username, device, phone) = {
            let u = &self.users[idx];
            if u.paired {
                return false;
            }
            (u.spec.username.clone(), u.spec.device, u.spec.phone.clone())
        };
        let handle = match device {
            DevicePreference::Soft => {
                let dev = self.center.pair_soft(&username);
                TokenSource::device(move |now| Some(dev.displayed_code(now)))
            }
            DevicePreference::Sms => {
                let phone = phone.expect("sms users carry phones");
                let parsed = self.center.pair_sms(&username, &phone);
                self.center.sms_device(&parsed)
            }
            DevicePreference::Hard => {
                let serial = self.hard_batch.fobs[self.next_hard_serial].serial.clone();
                self.next_hard_serial += 1;
                self.center.pair_hard(&username, &self.hard_batch, &serial);
                let fob = self.hard_batch.by_serial(&serial).unwrap().clone();
                TokenSource::device(move |now| fob.press_button(now))
            }
            DevicePreference::Training => {
                let code = self.center.enroll_training_account(&username);
                TokenSource::Fixed(code)
            }
        };
        self.users[idx].device = handle;
        self.users[idx].paired = true;
        true
    }

    /// React to a broken scripted workflow with one of the §5 strategies.
    /// A workflow whose temporary variance later expires re-migrates to a
    /// permanent strategy (staff "worked with these users", §5).
    fn migrate_automated(&mut self, idx: usize, pairings_today: &mut u64) {
        let roll: f64 = self.rng.random();
        let migration = if self.users[idx].migration.is_some() {
            // Second disruption (an expired variance): go permanent.
            if roll < 0.6 {
                Migration::InternalCron
            } else {
                Migration::Multiplex
            }
        } else if roll < 0.40 {
            Migration::Exemption
        } else if roll < 0.75 {
            Migration::InternalCron
        } else {
            Migration::Multiplex
        };
        let username = self.users[idx].spec.username.clone();
        match migration {
            Migration::Exemption => {
                // Temporary variance for the account; staff grant these
                // "easily" (§6).
                let expiry = self
                    .params
                    .milestones
                    .mandatory
                    .plus_days(self.rng.random_range(20..90));
                let _ = self
                    .center
                    .add_exemption_rule(&format!("+ : {username} : ALL : {expiry}"));
            }
            Migration::InternalCron => {
                // Traffic moves inside the center; nothing to configure —
                // the internal network is exempt.
            }
            Migration::Multiplex => {
                // The owner pairs a device for master connections.
                if self.pair_user(idx) {
                    *pairings_today += 1;
                }
            }
        }
        self.users[idx].migration = Some(migration);
        self.users[idx].disrupted = true;
    }

    /// Simulate one day; returns its aggregate record.
    fn run_day(&mut self, date: Date) -> DayRecord {
        let phase = self.phase_of(date);
        let m = self.params.milestones;
        // Phase transitions, applied center-wide exactly once.
        if date == m.announce {
            self.center.set_enforcement(EnforcementMode::Paired);
        } else if date == m.phase2 {
            self.center.set_enforcement(EnforcementMode::Countdown {
                deadline: m.mandatory,
                url: "https://portal.tacc.utexas.edu/mfa".into(),
            });
        } else if date == m.mandatory {
            self.center.set_enforcement(EnforcementMode::Full);
        }

        let mult = Self::activity_multiplier(date);
        let mut record = DayRecord {
            date,
            phase,
            unique_mfa_users: 0,
            ext_mfa_logins: 0,
            ext_total_logins: 0,
            total_logins: 0,
            new_pairings: 0,
            failed_logins: 0,
            tickets_mfa: 0,
            tickets_other: 0,
        };
        let mut mfa_users_today: HashSet<String> = HashSet::new();
        let mut disruptions_today = 0u64;

        // --- Pairings scheduled for today (non-automated cohorts; the
        // automated accounts pair only through the multiplex strategy). ---
        let due: Vec<usize> = self
            .users
            .iter()
            .enumerate()
            .filter(|(_, u)| {
                u.spec.adoption_day == Some(date) && u.spec.cohort != Cohort::Automated && !u.paired
            })
            .map(|(i, _)| i)
            .collect();
        for idx in due {
            if self.pair_user(idx) {
                record.new_pairings += 1;
            }
        }

        // --- New-user onboarding (from late August; spring uptick). ---
        if date >= Date::new(2016, 8, 22) && !date.is_weekend() {
            let rate = if date >= Date::new(2017, 1, 9) && date <= Date::new(2017, 2, 15) {
                14.0
            } else if date >= Date::new(2017, 1, 1) {
                8.0
            } else {
                6.0
            } * self.params.population_scale;
            let n = self.sample_count(rate);
            for _ in 0..n {
                let idx = self.onboard_new_user(date);
                // New users pair at signup once instructed to (§4.2).
                if self.pair_user(idx) {
                    record.new_pairings += 1;
                }
            }
        }

        // --- Device re-pairings: a trickle of paired users replace their
        // device (lost/upgraded phones). Counted as new pairings, exactly
        // as the production Figure 6 counted re-initializations. ---
        if phase >= 1 {
            let candidates: Vec<usize> = (0..self.users.len())
                .filter(|&i| {
                    let u = &self.users[i];
                    u.paired && matches!(u.spec.cohort, Cohort::Interactive | Cohort::Staff)
                })
                .collect();
            for idx in candidates {
                if self.rng.random_bool(REPAIR_DAILY_PROB) {
                    self.users[idx].paired = false;
                    if self.pair_user(idx) {
                        record.new_pairings += 1;
                    }
                }
            }
        }

        // --- Plan today's logins. ---
        struct LoginPlan {
            idx: usize,
            internal: bool,
        }
        let mut plan: Vec<LoginPlan> = Vec::new();
        for idx in 0..self.users.len() {
            let (cohort, daily_logins, activity_prob, migration) = {
                let u = &self.users[idx];
                (
                    u.spec.cohort,
                    u.spec.daily_logins,
                    u.spec.activity_prob,
                    u.migration,
                )
            };
            if cohort == Cohort::Inactive || daily_logins == 0.0 {
                continue;
            }
            // Training accounts only log in during workshops, i.e. once a
            // static code has been assigned.
            if cohort == Cohort::Training && !self.users[idx].paired {
                continue;
            }
            let active: bool = self.rng.random_bool((activity_prob * mult).clamp(0.0, 1.0));
            if !active {
                continue;
            }
            let mut n_ext = self.sample_count(daily_logins * mult).max(1) as usize;
            let mut n_int = 0usize;
            match migration {
                Some(Migration::InternalCron) => {
                    n_int = n_ext;
                    n_ext = 0;
                }
                Some(Migration::Multiplex) => {
                    n_ext = n_ext.min(2);
                }
                _ => {}
            }
            // Interactive users also generate intra-center traffic (job
            // scripts, storage transfers) roughly matching their external
            // activity.
            if matches!(cohort, Cohort::Interactive | Cohort::Staff) {
                n_int += self.sample_count(daily_logins * mult * 1.2) as usize;
            }
            for _ in 0..n_ext {
                plan.push(LoginPlan {
                    idx,
                    internal: false,
                });
            }
            for _ in 0..n_int {
                plan.push(LoginPlan {
                    idx,
                    internal: true,
                });
            }
        }

        // --- Execute, spreading events across the working day. The plan
        // is shuffled so one user's logins interleave with everyone
        // else's; back-to-back same-user logins inside one TOTP step would
        // otherwise read as replay attacks. ---
        use rand::seq::SliceRandom;
        plan.shuffle(&mut self.rng);
        let day_end = date.succ().unix_midnight();
        let events = plan.len().max(1) as u64;
        let budget = day_end.saturating_sub(self.center.clock.now());
        let dt = (budget.saturating_mul(8) / 10 / events).clamp(1, 600);
        let mut node_rotor = 0usize;
        for login in plan {
            if self.center.clock.now() + dt < day_end {
                self.center.clock.advance(dt);
            }
            let u = &self.users[login.idx];
            let ip = if login.internal {
                self.center.internal_ip((login.idx % 200) as u8)
            } else {
                u.ext_ip
            };
            let profile = self.profile_for(login.idx, ip);
            node_rotor = (node_rotor + 1) % self.center.nodes.len();
            let report = self.center.ssh(node_rotor, &profile);

            record.total_logins += 1;
            if !login.internal {
                record.ext_total_logins += 1;
                if report.granted && report.mfa_prompted {
                    record.ext_mfa_logins += 1;
                }
            }
            if report.granted {
                if report.mfa_prompted {
                    mfa_users_today.insert(self.users[login.idx].spec.username.clone());
                }
            } else {
                record.failed_logins += 1;
                *self
                    .failures_by_cohort
                    .entry(self.users[login.idx].spec.cohort)
                    .or_insert(0) += 1;
                let u = &self.users[login.idx];
                let needs_migration = u.spec.cohort == Cohort::Automated
                    && phase >= 2
                    && (!u.disrupted || u.migration == Some(Migration::Exemption));
                let forced_adoption = phase >= 3
                    && !u.paired
                    && matches!(u.spec.cohort, Cohort::Interactive | Cohort::Staff);
                if needs_migration {
                    disruptions_today += 1;
                    self.migrate_automated(login.idx, &mut record.new_pairings);
                } else if forced_adoption {
                    // Locked out at the door: the user pairs a device the
                    // same day rather than waiting for their planned date.
                    if self.pair_user(login.idx) {
                        record.new_pairings += 1;
                    }
                }
            }
        }
        record.unique_mfa_users = mfa_users_today.len();

        // --- Tickets. ---
        // Baseline (non-MFA) ticket volume tracks the population size, as
        // MFA ticket volume implicitly does through pairings and failures.
        let base = if date.is_weekend() {
            TICKETS_PER_WEEKEND_DAY
        } else {
            TICKETS_PER_WEEKDAY
        } * if mult < 0.5 { 0.5 } else { 1.0 }
            * self.params.population_scale;
        record.tickets_other = self.sample_count(base);
        let mut mfa_tickets = 0u64;
        mfa_tickets += self.binomial(record.new_pairings, TICKET_PER_PAIRING);
        mfa_tickets += self.binomial(record.failed_logins, TICKET_PER_FAILED_LOGIN);
        mfa_tickets += self.binomial(disruptions_today, TICKET_PER_DISRUPTION);
        if date == m.announce || date == m.phase2 || date == m.mandatory {
            mfa_tickets += self.sample_count(TICKETS_PER_PHASE_BUMP * self.params.population_scale);
        }
        record.tickets_mfa = mfa_tickets;

        // --- Day end: advance to midnight, rotate logs. In-loop pairings
        // are not in the login budget, so a day can run past midnight: the
        // overrun then carries into the next day, whose budget shrinks. ---
        let clock = &self.center.clock;
        clock.set(clock.now().max(day_end));
        let cutoff = day_end.saturating_sub(2 * 86_400);
        for node in &self.center.nodes {
            node.daemon.authlog().prune_older_than(cutoff);
        }
        self.center.linotp.audit().prune_older_than(cutoff);
        record
    }

    fn profile_for(&self, idx: usize, ip: Ipv4Addr) -> ClientProfile {
        let u = &self.users[idx];
        // Multiplexing masters are established interactively with the
        // owner's device; only the master connections appear as traffic.
        let interactive = matches!(
            u.spec.cohort,
            Cohort::Interactive | Cohort::Staff | Cohort::Training
        ) || u.migration == Some(Migration::Multiplex);
        let mut profile = if interactive {
            ClientProfile::interactive_user(
                &u.spec.username,
                ip,
                &format!("{}-pw", u.spec.username),
            )
        } else {
            ClientProfile {
                username: u.spec.username.clone(),
                source_ip: ip,
                key: None,
                password: None,
                token: TokenSource::None,
                interactive: false,
                wants_tty: false,
            }
        };
        if let Some(key) = &u.key {
            profile = profile.with_key(key.clone());
        }
        if interactive {
            profile = profile.with_token(u.device.clone());
        }
        profile
    }

    fn onboard_new_user(&mut self, date: Date) -> usize {
        self.new_user_counter += 1;
        let name = format!("newuser{:05}", self.new_user_counter);
        self.center
            .create_user(&name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
        let device = if self.rng.random_bool(0.58) {
            DevicePreference::Soft
        } else {
            DevicePreference::Sms
        };
        let phone = matches!(device, DevicePreference::Sms)
            .then(|| format!("512556{:04}", self.rng.random_range(0..10_000)));
        let ext_ip = Ipv4Addr::new(
            70 + self.rng.random_range(0..60u8),
            self.rng.random_range(1..250),
            self.rng.random_range(1..250),
            self.rng.random_range(1..250),
        );
        self.users.push(UserState {
            spec: UserSpec {
                username: name,
                cohort: Cohort::Interactive,
                device,
                daily_logins: 1.0,
                activity_prob: 0.2,
                adoption_day: Some(date),
                uses_pubkey: false,
                phone,
            },
            device: TokenSource::None,
            key: None,
            ext_ip,
            disrupted: false,
            migration: None,
            paired: false,
        });
        self.users.len() - 1
    }

    /// Poisson-ish count with mean `lambda` (normal approximation above a
    /// threshold, exact inversion below — adequate for aggregate counts).
    fn sample_count(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            // Knuth inversion.
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.rng.random::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 10_000 {
                    return k;
                }
            }
        }
        let std = lambda.sqrt();
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + std * z).round().max(0.0) as u64
    }

    fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if n > 200 {
            return self.sample_count(n as f64 * p);
        }
        (0..n).filter(|_| self.rng.random_bool(p.min(1.0))).count() as u64
    }

    /// Run the whole calendar and collect the output.
    pub fn run(mut self) -> SimOutput {
        let mut days = Vec::new();
        let mut date = self.params.from;
        let mut total_ok = 0u64;
        while date <= self.params.to {
            let record = self.run_day(date);
            total_ok += record.total_logins - record.failed_logins;
            days.push(record);
            date = date.succ();
        }
        use hpcmfa_otpserver::sms::SmsProvider;
        let months = (self.params.from.days_until(self.params.to) as u64 / 30).max(1);
        SimOutput {
            failures_by_cohort: self.failures_by_cohort.clone(),
            table1: self.center.identity.pairing_breakdown(),
            days,
            total_successful_logins: total_ok,
            sms_sent: self.center.twilio.sent_count(),
            sms_cost_micros: self.center.twilio.total_cost_micros(months),
            metrics: self.center.metrics_snapshot(),
            alerts: self.center.alerts.timeline_lines(),
            security_events: self
                .center
                .metrics()
                .security_events()
                .all()
                .iter()
                .map(|e| e.to_string())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(out: &SimOutput, date: Date) -> Option<&DayRecord> {
        out.days.iter().find(|d| d.date == date)
    }

    /// One shared small run for the assertion-heavy tests (building and
    /// running the calendar once keeps the suite fast).
    fn small_run() -> SimOutput {
        RolloutSim::new(RolloutParams {
            population_scale: 0.02,
            seed: 7,
            ..RolloutParams::default()
        })
        .run()
    }

    #[test]
    fn risk_scored_baseline_never_denies_benign_users() {
        // The 10k-user rollout (scaled) with every login scored by the
        // risk engine: the benign population must draw zero denies —
        // this run is the false-positive baseline the detection report
        // cites.
        let out = RolloutSim::new(RolloutParams {
            population_scale: 0.01,
            to: Date::new(2016, 10, 31),
            seed: 7,
            risk: true,
            ..RolloutParams::default()
        })
        .run();
        assert_eq!(
            out.metrics
                .counter("hpcmfa_risk_decisions_total{decision=\"deny\"}"),
            0
        );
        assert!(
            out.metrics
                .counter("hpcmfa_risk_decisions_total{decision=\"allow\"}")
                > 0
        );
    }

    #[test]
    fn rollout_reproduces_evaluation_shapes() {
        let out = small_run();
        let m = Milestones::default();

        // --- Figure 3 shape: adoption grows, jumps at phase 2, plateaus.
        let avg = |from: Date, to: Date| {
            let mut sum = 0usize;
            let mut n = 0usize;
            for d in &out.days {
                if d.date >= from && d.date <= to && !d.date.is_weekend() {
                    sum += d.unique_mfa_users;
                    n += 1;
                }
            }
            sum as f64 / n.max(1) as f64
        };
        let pre = avg(Date::new(2016, 7, 5), Date::new(2016, 8, 9));
        let phase1 = avg(m.announce, Date::new(2016, 9, 5));
        let phase2 = avg(Date::new(2016, 9, 8), Date::new(2016, 10, 3));
        let phase3 = avg(Date::new(2016, 10, 10), Date::new(2016, 12, 10));
        assert!(
            phase1 > pre,
            "adoption begins in phase 1: {pre} -> {phase1}"
        );
        assert!(
            phase2 > phase1 * 1.5,
            "phase 2 accelerates: {phase1} -> {phase2}"
        );
        assert!(
            phase3 > phase2,
            "phase 3 is the plateau: {phase2} -> {phase3}"
        );
        // Holiday dip.
        let holiday = avg(Date::new(2016, 12, 24), Date::new(2016, 12, 30));
        assert!(holiday < phase3 * 0.7, "winter dip: {phase3} -> {holiday}");

        // --- Figure 4 shape: external non-MFA traffic collapses at phase
        // 2 but never vanishes (exempt gateways).
        let nonmfa = |from: Date, to: Date| {
            let mut sum = 0u64;
            let mut n = 0u64;
            for d in &out.days {
                if d.date >= from && d.date <= to && !d.date.is_weekend() {
                    sum += d.ext_total_logins - d.ext_mfa_logins;
                    n += 1;
                }
            }
            sum as f64 / n.max(1) as f64
        };
        let before = nonmfa(Date::new(2016, 8, 20), Date::new(2016, 9, 5));
        let after = nonmfa(Date::new(2016, 10, 20), Date::new(2016, 11, 20));
        assert!(
            after < before * 0.7,
            "automated non-MFA external traffic drops: {before} -> {after}"
        );
        assert!(after > 0.0, "exempt traffic persists in phase 3");
        // Internal traffic dwarfs external and is unaffected by MFA.
        let d = day(&out, Date::new(2016, 11, 2)).unwrap();
        assert!(d.total_logins > d.ext_total_logins);

        // --- Figure 6 shape: Sep 7 is the biggest pairing day.
        let mut ranked: Vec<(&DayRecord, u64)> =
            out.days.iter().map(|d| (d, d.new_pairings)).collect();
        ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        assert_eq!(
            ranked[0].0.date,
            Date::new(2016, 9, 7),
            "Sep 7 ranks first in new pairings"
        );
        let oct4_rank = ranked
            .iter()
            .position(|(d, _)| d.date == m.mandatory)
            .unwrap();
        assert!(
            oct4_rank <= 6,
            "Oct 4 among the top pairing days (rank {oct4_rank})"
        );

        // --- Table 1 ordering.
        let t1 = out.table1.expect("some pairings");
        assert!(t1[0] > t1[1], "soft > sms");
        assert!(t1[1] > t1[3], "sms > training");
        assert!(t1[0] + t1[1] > 0.9, "mobile devices dominate (>90 %)");

        // --- Figure 5: MFA tickets are a modest share during transition.
        let share = out.ticket_mfa_share(m.announce, Date::new(2016, 12, 31));
        assert!(
            (0.02..0.15).contains(&share),
            "transition MFA ticket share {share}"
        );

        // --- SMS cost model produced charges.
        assert!(out.sms_sent > 0);
        assert!(out.sms_cost_micros > out.sms_sent as u64 * 7_500);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RolloutSim::new(RolloutParams {
            population_scale: 0.01,
            to: Date::new(2016, 9, 15),
            seed: 99,
            ..RolloutParams::default()
        })
        .run();
        let b = RolloutSim::new(RolloutParams {
            population_scale: 0.01,
            to: Date::new(2016, 9, 15),
            seed: 99,
            ..RolloutParams::default()
        })
        .run();
        assert_eq!(a.days, b.days);
        assert_eq!(a.alerts, b.alerts, "alert timelines diverge across seeds");
        assert_eq!(
            a.security_events, b.security_events,
            "security-event feeds diverge across seeds"
        );
    }

    #[test]
    fn a_day_of_forced_pairings_carries_its_overrun_into_the_next() {
        // The calendar opens on the mandatory day with nobody paired, so
        // every active interactive or staff user is refused and pairs in
        // the login loop: 30 s or more each, outside the login budget,
        // which leaves a fifth of the day for them.
        let mandatory = Date::new(2016, 10, 4);
        let out = RolloutSim::new(RolloutParams {
            population_scale: 0.4,
            from: mandatory,
            to: mandatory.succ(),
            milestones: Milestones {
                announce: mandatory.plus_days(-2),
                phase2: mandatory.plus_days(-1),
                mandatory,
            },
            seed: 7,
            ..RolloutParams::default()
        })
        .run();
        let first = &out.days[0];
        assert!(
            first.new_pairings * 30 > 86_400 / 5,
            "{} pairings fit in the day",
            first.new_pairings
        );
        assert_eq!(out.days.len(), 2);
        assert!(out.days[1].total_logins > 0);
    }

    #[test]
    fn phases_advance_on_schedule() {
        let out = RolloutSim::new(RolloutParams {
            population_scale: 0.005,
            seed: 3,
            ..RolloutParams::default()
        })
        .run();
        assert_eq!(day(&out, Date::new(2016, 7, 15)).unwrap().phase, 0);
        assert_eq!(day(&out, Date::new(2016, 8, 10)).unwrap().phase, 1);
        assert_eq!(day(&out, Date::new(2016, 9, 6)).unwrap().phase, 2);
        assert_eq!(day(&out, Date::new(2016, 10, 4)).unwrap().phase, 3);
        assert_eq!(out.days.len(), 184); // Jul 1 .. Dec 31 inclusive
    }
}
