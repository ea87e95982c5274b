//! In-house module #3: "MFA Token Code Success?" — the token module with the
//! four-tier opt-in enforcement policy (§3.4, Figure 2).
//!
//! Modes, verbatim from the paper:
//!
//! * **off** — "deactivates the token module entirely, exiting with
//!   success. This effectively drops the system back to single-factor
//!   authentication."
//! * **paired** — prompt only users who have paired a device; everyone
//!   else passes through.
//! * **countdown** — like `paired`, but unpaired users see a mandatory
//!   press-return notice with the days remaining until the deadline and
//!   the tutorial URL. Past the deadline the module behaves as `full`.
//! * **full** — prompt everyone; validation failure denies entry. "If any
//!   configuration errors occur, the token module defaults to the fourth
//!   enforcement mode."
//!
//! The module queries LDAP for the user's pairing, talks RADIUS
//! challenge–response for validation, and may be switched between modes
//! during production operation.

use crate::access::{AccessDecision, WatchedAccessConfig};
use crate::context::PamContext;
use crate::conv::{ConvError, Prompt};
use crate::stack::{PamModule, PamResult};
use hpcmfa_directory::ldap::{Directory, Filter};
use hpcmfa_directory::MFA_PAIRING_ATTR;
use hpcmfa_otp::date::Date;
use hpcmfa_radius::client::{ClientError, Outcome, RadiusClient};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The four-tier enforcement mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Single factor only.
    Off,
    /// Opt-in: prompt the paired.
    Paired,
    /// Opt-in with a nagging deadline.
    Countdown {
        /// The date MFA becomes mandatory.
        deadline: Date,
        /// The tutorial URL shown to users.
        url: String,
    },
    /// Mandatory MFA.
    Full,
}

impl EnforcementMode {
    /// Parse a PAM-config mode argument. Any configuration error yields
    /// `Full`, per the paper's fail-secure rule.
    pub fn parse(mode: &str, deadline: Option<&str>, url: Option<&str>) -> EnforcementMode {
        match mode {
            "off" => EnforcementMode::Off,
            "paired" => EnforcementMode::Paired,
            "countdown" => match (deadline.map(Date::parse), url) {
                (Some(Ok(d)), Some(u)) => EnforcementMode::Countdown {
                    deadline: d,
                    url: u.to_string(),
                },
                // Missing or malformed countdown parameters: fail secure.
                _ => EnforcementMode::Full,
            },
            "full" => EnforcementMode::Full,
            // Unknown mode string: fail secure.
            _ => EnforcementMode::Full,
        }
    }
}

/// What the module does when the whole RADIUS fleet is unreachable — the
/// client exhausted its deadline budget and returned
/// [`ClientError::AllServersFailed`]. Protocol-level failures
/// (bad authenticators, identifier mismatches) are never degraded: they
/// always deny.
#[derive(Clone, Default)]
pub enum DegradationPolicy {
    /// Deny the login — the paper's fail-secure rule, and the default.
    #[default]
    FailClosed,
    /// Let logins matching the operator ACL through on the first factor
    /// alone while the back end is down; everyone else is still denied.
    /// The ACL reuses the §3.4 exemption syntax, so a site lists its
    /// on-call operators exactly the way it lists gateway exemptions.
    FailOpenExempt {
        /// Who may log in single-factor during a total back-end outage.
        operators: WatchedAccessConfig,
    },
}

impl DegradationPolicy {}

impl std::fmt::Debug for DegradationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationPolicy::FailClosed => write!(f, "FailClosed"),
            DegradationPolicy::FailOpenExempt { operators } => {
                write!(f, "FailOpenExempt({} rules)", operators.len())
            }
        }
    }
}

/// The token-validation module.
pub struct TokenModule {
    mode: RwLock<EnforcementMode>,
    degradation: RwLock<DegradationPolicy>,
    radius: Arc<RadiusClient>,
    directory: Directory,
    base: String,
    rng: Mutex<StdRng>,
}

impl TokenModule {
    /// Build with `mode`, validating through `radius`, checking pairings in
    /// `directory` under `base`.
    pub fn new(
        mode: EnforcementMode,
        radius: Arc<RadiusClient>,
        directory: Directory,
        base: &str,
        seed: u64,
    ) -> Arc<Self> {
        Arc::new(TokenModule {
            mode: RwLock::new(mode),
            degradation: RwLock::new(DegradationPolicy::FailClosed),
            radius,
            directory,
            base: base.to_string(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        })
    }

    /// Switch modes during production ("any of these modes may be set
    /// during production operation and are in effect as soon as written to
    /// disk", §3.4).
    pub fn set_mode(&self, mode: EnforcementMode) {
        *self.mode.write() = mode;
    }

    /// The active mode.
    pub(crate) fn mode(&self) -> EnforcementMode {
        self.mode.read().clone()
    }

    /// Set the total-outage policy. Like enforcement modes, switchable in
    /// production.
    pub fn set_degradation(&self, policy: DegradationPolicy) {
        *self.degradation.write() = policy;
    }

    /// The active degradation policy.
    pub(crate) fn degradation(&self) -> DegradationPolicy {
        self.degradation.read().clone()
    }

    /// Apply the degradation policy after the RADIUS client reported every
    /// server unreachable within its deadline budget.
    fn degraded(&self, ctx: &mut PamContext<'_>) -> PamResult {
        match self.degradation() {
            DegradationPolicy::FailClosed => PamResult::AuthErr,
            DegradationPolicy::FailOpenExempt { operators } => {
                match operators.decide(&ctx.username, ctx.rhost, ctx.now()) {
                    AccessDecision::Exempt => {
                        let _ = ctx.conv.converse(&Prompt::Info(
                            "MFA back end unreachable; operator variance applied.".into(),
                        ));
                        PamResult::Success
                    }
                    AccessDecision::NotExempt => PamResult::AuthErr,
                }
            }
        }
    }

    /// The user's pairing label from LDAP, if any (Figure 2's first step).
    fn pairing_of(&self, username: &str) -> Option<String> {
        self.directory
            .search(&self.base, &Filter::eq("uid", username))
            .first()
            .and_then(|e| e.get_one(MFA_PAIRING_ATTR).map(str::to_string))
    }

    /// The challenge–response exchange of Figure 2.
    fn prompt_and_validate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let rhost = ctx.rhost.to_string();
        // The login's span context: the client's request span parents
        // under the PAM stack span on the shared trace clock.
        let span_ctx = ctx.span_ctx();
        // Null request: opens the challenge and triggers SMS sends.
        let opening = {
            let mut rng = self.rng.lock();
            self.radius
                .request(&mut *rng, &ctx.username, b"", &rhost, None, Some(&span_ctx))
        };
        let (state, prompt_text) = match opening {
            Ok(Outcome::Challenge { state, message }) => {
                (state, message.unwrap_or_else(|| "TACC Token:".to_string()))
            }
            Ok(Outcome::Accept { message }) => {
                capture_resume_token(ctx, message.as_deref());
                return PamResult::Success;
            }
            Ok(Outcome::Reject { .. }) => return PamResult::AuthErr,
            // Whole fleet unreachable: apply the degradation policy
            // (fail-closed unless an operator variance is configured).
            Err(ClientError::AllServersFailed { .. }) => return self.degraded(ctx),
            // Protocol-level failure (forged or corrupt responses): always
            // deny, regardless of policy.
            Err(_) => return PamResult::AuthErr,
        };

        let code = match ctx.conv.converse(&Prompt::EchoOff(prompt_text)) {
            Ok(c) => c,
            Err(ConvError::Aborted) | Err(ConvError::Unsupported) => return PamResult::Abort,
        };

        let answer = {
            let mut rng = self.rng.lock();
            self.radius.request(
                &mut *rng,
                &ctx.username,
                code.as_bytes(),
                &rhost,
                Some(&state),
                Some(&span_ctx),
            )
        };
        match answer {
            Ok(Outcome::Accept { message }) => {
                capture_resume_token(ctx, message.as_deref());
                PamResult::Success
            }
            Ok(Outcome::Reject { message }) => {
                let text = message.unwrap_or_else(|| "Authentication error".into());
                let _ = ctx.conv.converse(&Prompt::ErrorMsg(text));
                PamResult::AuthErr
            }
            // An outage mid-login (challenge opened, fleet died before the
            // answer) degrades the same way as one at the opening.
            Err(ClientError::AllServersFailed { .. }) => self.degraded(ctx),
            Ok(Outcome::Challenge { .. }) | Err(_) => PamResult::AuthErr,
        }
    }

    /// The countdown notice for unpaired users.
    fn countdown_notice(&self, ctx: &mut PamContext<'_>, deadline: Date, url: &str) -> PamResult {
        let today = Date::from_unix(ctx.now());
        let days_left = today.days_until(deadline).max(0);
        let notice = format!(
            "Multi-factor authentication becomes mandatory in {days_left} day(s) \
             ({deadline}). Pair a device before then: {url}"
        );
        if ctx.conv.converse(&Prompt::Info(notice)).is_err() {
            return PamResult::Abort;
        }
        // "the user must press return to acknowledge that they have read
        // and received this statement" (§3.4).
        match ctx
            .conv
            .converse(&Prompt::EchoOn("Press return to acknowledge: ".into()))
        {
            Ok(_) => PamResult::Success,
            Err(_) => PamResult::Abort,
        }
    }
}

/// Stash a `resume=<token>` `Reply-Message` from an Accept on the
/// context so the application can hand the token back to the client.
fn capture_resume_token(ctx: &mut PamContext<'_>, message: Option<&str>) {
    if let Some(token) =
        message.and_then(|m| m.strip_prefix(hpcmfa_federation::RESUME_REPLY_PREFIX))
    {
        ctx.issued_resume_token = Some(token.to_string());
    }
}

impl PamModule for TokenModule {
    fn name(&self) -> &'static str {
        "pam_tacc_mfa_token"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let mode = self.mode();
        match mode {
            EnforcementMode::Off => PamResult::Success,
            EnforcementMode::Paired => {
                if self.pairing_of(&ctx.username).is_some() {
                    self.prompt_and_validate(ctx)
                } else {
                    PamResult::Success
                }
            }
            EnforcementMode::Countdown { deadline, url } => {
                let today = Date::from_unix(ctx.now());
                if today > deadline {
                    // "If the configured countdown date expires, the token
                    // module will default to the fourth mode."
                    return self.prompt_and_validate(ctx);
                }
                if self.pairing_of(&ctx.username).is_some() {
                    self.prompt_and_validate(ctx)
                } else {
                    self.countdown_notice(ctx, deadline, &url)
                }
            }
            EnforcementMode::Full => self.prompt_and_validate(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ScriptedConversation;
    use hpcmfa_directory::ldap::Entry;
    use hpcmfa_otp::clock::{Clock, SimClock};
    use hpcmfa_otp::device::SoftToken;
    use hpcmfa_otpserver::handler::OtpRadiusHandler;
    use hpcmfa_otpserver::server::LinotpServer;
    use hpcmfa_otpserver::sms::TwilioSim;
    use hpcmfa_radius::client::ClientConfig;
    use hpcmfa_radius::server::RadiusServer;
    use hpcmfa_radius::transport::{FaultPlan, InMemoryTransport, Transport};
    use std::net::Ipv4Addr;

    const NOW: u64 = 1_473_250_000; // 2016-09-07, during phase 2

    struct Rig {
        module: Arc<TokenModule>,
        linotp: Arc<LinotpServer>,
        directory: Directory,
        clock: SimClock,
        faults: Arc<FaultPlan>,
    }

    fn rig(mode: EnforcementMode) -> Rig {
        let clock = SimClock::at(NOW);
        let linotp = LinotpServer::new(TwilioSim::new(3), 21);
        let handler = OtpRadiusHandler::new(Arc::clone(&linotp), Arc::new(clock.clone()));
        let radius_srv = Arc::new(RadiusServer::new(b"sec".to_vec(), handler));
        let faults = FaultPlan::healthy();
        let transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "r0",
            radius_srv,
            Arc::clone(&faults),
        ));
        let radius = Arc::new(hpcmfa_radius::client::RadiusClient::new(
            ClientConfig::new(b"sec".to_vec(), "login1"),
            vec![transport],
        ));
        let directory = Directory::new();
        let module = TokenModule::new(mode, radius, directory.clone(), "dc=tacc", 55);
        Rig {
            module,
            linotp,
            directory,
            clock,
            faults,
        }
    }

    fn add_user(rig: &Rig, user: &str, pairing: Option<&str>) {
        let mut e = Entry::new(format!("uid={user},ou=people,dc=tacc")).with_attr("uid", user);
        if let Some(p) = pairing {
            e.add_attr(MFA_PAIRING_ATTR, p);
        }
        rig.directory.add(e).unwrap();
    }

    fn run(rig: &Rig, user: &str, answers: Vec<String>) -> (PamResult, Vec<String>) {
        let mut conv = ScriptedConversation::with_answers(answers);
        let transcript = conv.transcript();
        let mut ctx = PamContext::new(
            user,
            Ipv4Addr::new(8, 8, 8, 8),
            Arc::new(rig.clock.clone()),
            &mut conv,
        );
        let r = rig.module.authenticate(&mut ctx);
        let texts = transcript
            .lock()
            .iter()
            .map(|t| t.prompt.text().to_string())
            .collect();
        (r, texts)
    }

    #[test]
    fn off_mode_always_succeeds() {
        let rig = rig(EnforcementMode::Off);
        add_user(&rig, "alice", None);
        let (r, texts) = run(&rig, "alice", vec![]);
        assert_eq!(r, PamResult::Success);
        assert!(texts.is_empty(), "off mode must not prompt");
    }

    #[test]
    fn paired_mode_passes_unpaired_silently() {
        let rig = rig(EnforcementMode::Paired);
        add_user(&rig, "alice", None);
        let (r, texts) = run(&rig, "alice", vec![]);
        assert_eq!(r, PamResult::Success);
        assert!(texts.is_empty());
    }

    #[test]
    fn paired_mode_prompts_paired_user() {
        let rig = rig(EnforcementMode::Paired);
        add_user(&rig, "alice", Some("soft"));
        let secret = rig.linotp.enroll_soft("alice", NOW);
        let device = SoftToken::new(secret, Default::default());
        let code = device.displayed_code(rig.clock.now());
        let (r, texts) = run(&rig, "alice", vec![code]);
        assert_eq!(r, PamResult::Success);
        assert_eq!(texts, vec!["TACC Token:"]);
    }

    #[test]
    fn paired_mode_denies_wrong_code() {
        let rig = rig(EnforcementMode::Paired);
        add_user(&rig, "alice", Some("soft"));
        rig.linotp.enroll_soft("alice", NOW);
        let (r, texts) = run(&rig, "alice", vec!["000000".into()]);
        assert_eq!(r, PamResult::AuthErr);
        assert!(texts.iter().any(|t| t == "Authentication error"));
    }

    #[test]
    fn overlong_answer_is_denied_without_reaching_the_wire() {
        let rig = rig(EnforcementMode::Paired);
        add_user(&rig, "alice", Some("soft"));
        rig.linotp.enroll_soft("alice", NOW);
        // One character more than a User-Password can carry.
        let (r, _) = run(&rig, "alice", vec!["1".repeat(129)]);
        assert_eq!(r, PamResult::AuthErr);
        // The opening null request is the only one that went out: the
        // answer cost the pool no attempt.
        let attempts = &rig.module.radius.stats.attempts;
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn full_mode_prompts_unpaired_then_denies() {
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "ghost", None);
        let (r, texts) = run(&rig, "ghost", vec!["123456".into()]);
        assert_eq!(r, PamResult::AuthErr);
        assert_eq!(texts.first().map(String::as_str), Some("TACC Token:"));
    }

    #[test]
    fn countdown_notice_for_unpaired() {
        let deadline = Date::new(2016, 10, 4);
        let rig = rig(EnforcementMode::Countdown {
            deadline,
            url: "https://portal.tacc.utexas.edu/mfa".into(),
        });
        add_user(&rig, "alice", None);
        // NOW is 2016-09-07: 27 days before the deadline.
        let (r, texts) = run(&rig, "alice", vec![String::new()]);
        assert_eq!(r, PamResult::Success);
        assert!(texts[0].contains("27 day(s)"), "got: {}", texts[0]);
        assert!(texts[0].contains("https://portal.tacc.utexas.edu/mfa"));
        assert!(texts[1].contains("acknowledge"));
    }

    #[test]
    fn countdown_prompts_paired_user_normally() {
        let deadline = Date::new(2016, 10, 4);
        let rig = rig(EnforcementMode::Countdown {
            deadline,
            url: "u".into(),
        });
        add_user(&rig, "alice", Some("soft"));
        let secret = rig.linotp.enroll_soft("alice", NOW);
        let code = SoftToken::new(secret, Default::default()).displayed_code(rig.clock.now());
        let (r, texts) = run(&rig, "alice", vec![code]);
        assert_eq!(r, PamResult::Success);
        assert_eq!(texts, vec!["TACC Token:"]);
    }

    #[test]
    fn countdown_past_deadline_behaves_as_full() {
        let deadline = Date::new(2016, 9, 1); // already past at NOW
        let rig = rig(EnforcementMode::Countdown {
            deadline,
            url: "u".into(),
        });
        add_user(&rig, "alice", None);
        let (r, texts) = run(&rig, "alice", vec!["000000".into()]);
        assert_eq!(r, PamResult::AuthErr);
        assert_eq!(texts.first().map(String::as_str), Some("TACC Token:"));
    }

    #[test]
    fn mode_switch_during_production() {
        let rig = rig(EnforcementMode::Off);
        add_user(&rig, "alice", None);
        assert_eq!(run(&rig, "alice", vec![]).0, PamResult::Success);
        rig.module.set_mode(EnforcementMode::Full);
        assert_eq!(
            run(&rig, "alice", vec!["000000".into()]).0,
            PamResult::AuthErr
        );
    }

    #[test]
    fn backend_outage_fails_secure() {
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "alice", Some("soft"));
        rig.linotp.enroll_soft("alice", NOW);
        rig.faults.set_down(true);
        let (r, _) = run(&rig, "alice", vec!["123456".into()]);
        assert_eq!(r, PamResult::AuthErr);
    }

    #[test]
    fn backend_outage_fail_open_admits_only_listed_operators() {
        use crate::access::{AccessConfig, WatchedAccessConfig};
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "oncall1", Some("soft"));
        add_user(&rig, "alice", Some("soft"));
        rig.linotp.enroll_soft("oncall1", NOW);
        rig.linotp.enroll_soft("alice", NOW);
        let operators =
            WatchedAccessConfig::new(AccessConfig::parse("+ : oncall1 : ALL : ALL\n").unwrap());
        rig.module
            .set_degradation(DegradationPolicy::FailOpenExempt { operators });
        rig.faults.set_down(true);
        // The listed operator gets in single-factor, with a notice.
        let (r, texts) = run(&rig, "oncall1", vec![]);
        assert_eq!(r, PamResult::Success);
        assert!(texts.iter().any(|t| t.contains("unreachable")), "{texts:?}");
        // Everyone else is still denied.
        let (r, _) = run(&rig, "alice", vec![]);
        assert_eq!(r, PamResult::AuthErr);
    }

    #[test]
    fn fail_open_policy_never_excuses_wrong_codes() {
        use crate::access::{AccessConfig, WatchedAccessConfig};
        // With the back end healthy, the degradation policy must be inert:
        // an operator typing a wrong code is denied like anyone else.
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "oncall1", Some("soft"));
        rig.linotp.enroll_soft("oncall1", NOW);
        let operators =
            WatchedAccessConfig::new(AccessConfig::parse("+ : oncall1 : ALL : ALL\n").unwrap());
        rig.module
            .set_degradation(DegradationPolicy::FailOpenExempt { operators });
        let (r, _) = run(&rig, "oncall1", vec!["000000".into()]);
        assert_eq!(r, PamResult::AuthErr);
    }

    #[test]
    fn batch_client_aborts_cleanly() {
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "alice", Some("soft"));
        rig.linotp.enroll_soft("alice", NOW);
        let mut conv = ScriptedConversation::refusing();
        let mut ctx = PamContext::new(
            "alice",
            Ipv4Addr::new(8, 8, 8, 8),
            Arc::new(rig.clock.clone()),
            &mut conv,
        );
        assert_eq!(rig.module.authenticate(&mut ctx), PamResult::Abort);
    }

    #[test]
    fn sms_user_sees_sms_message_in_prompt() {
        let rig = rig(EnforcementMode::Full);
        add_user(&rig, "bob", Some("sms"));
        rig.linotp.enroll_sms(
            "bob",
            hpcmfa_otpserver::sms::PhoneNumber::parse("5125551234").unwrap(),
            NOW,
        );
        let (r, texts) = run(&rig, "bob", vec!["000000".into()]);
        assert_eq!(r, PamResult::AuthErr); // we typed a wrong code
        assert!(texts[0].contains("SMS"), "got: {}", texts[0]);
    }

    #[test]
    fn mode_parse_fail_secure() {
        assert_eq!(
            EnforcementMode::parse("off", None, None),
            EnforcementMode::Off
        );
        assert_eq!(
            EnforcementMode::parse("paired", None, None),
            EnforcementMode::Paired
        );
        assert_eq!(
            EnforcementMode::parse("full", None, None),
            EnforcementMode::Full
        );
        assert_eq!(
            EnforcementMode::parse("countdown", Some("2016-10-04"), Some("http://x")),
            EnforcementMode::Countdown {
                deadline: Date::new(2016, 10, 4),
                url: "http://x".into()
            }
        );
        // Configuration errors default to full.
        assert_eq!(
            EnforcementMode::parse("countdown", None, Some("http://x")),
            EnforcementMode::Full
        );
        assert_eq!(
            EnforcementMode::parse("countdown", Some("garbage"), Some("x")),
            EnforcementMode::Full
        );
        assert_eq!(
            EnforcementMode::parse("bogus", None, None),
            EnforcementMode::Full
        );
    }
}
