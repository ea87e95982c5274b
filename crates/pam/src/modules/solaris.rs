//! In-house module #4: the Solaris combination module (§3.4).
//!
//! "A module specific for use on Oracle Solaris operating systems that
//! combine the public key and MFA exemption checks to accommodate
//! differences in PAM stack processing logic."
//!
//! Solaris PAM lacks the Linux-PAM `[success=N default=ignore]` jump
//! control, so the two checks cannot be composed from separate modules the
//! way Figure 1 does on Linux. This module performs both checks in one
//! call: it succeeds — deployed `sufficient` — only when public key
//! authentication already succeeded *and* an MFA exemption is granted,
//! which is exactly the condition that lets trusted gateway and community
//! accounts continue "automated, non-interactive transactions" without any
//! prompt.

use crate::access::{AccessDecision, WatchedAccessConfig};
use crate::context::PamContext;
use crate::modules::pubkey::{AuthLogSource, DEFAULT_FRESHNESS_SECS};
use crate::stack::{PamModule, PamResult};
use std::sync::Arc;

/// The combined pubkey + exemption module.
pub struct SolarisComboModule {
    log: Arc<dyn AuthLogSource>,
    config: WatchedAccessConfig,
    freshness_secs: u64,
}

impl SolarisComboModule {
    /// Combine `log` (pubkey evidence) and `config` (exemptions).
    pub fn new(log: Arc<dyn AuthLogSource>, config: WatchedAccessConfig) -> Arc<Self> {
        Arc::new(SolarisComboModule {
            log,
            config,
            freshness_secs: DEFAULT_FRESHNESS_SECS,
        })
    }
}

impl PamModule for SolarisComboModule {
    fn name(&self) -> &'static str {
        "pam_tacc_solaris_combo"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let pubkey_ok =
            self.log
                .pubkey_success(&ctx.username, ctx.rhost, ctx.now(), self.freshness_secs);
        if pubkey_ok {
            ctx.pubkey_succeeded = true;
        }
        let exempt =
            self.config.decide(&ctx.username, ctx.rhost, ctx.now()) == AccessDecision::Exempt;
        if pubkey_ok && exempt {
            PamResult::Success
        } else {
            PamResult::Ignore
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConfig;
    use crate::conv::ScriptedConversation;
    use hpcmfa_otp::clock::SimClock;
    use parking_lot::Mutex;
    use std::net::Ipv4Addr;

    #[derive(Default)]
    struct ToyLog(Mutex<Vec<(String, Ipv4Addr, u64)>>);
    impl AuthLogSource for ToyLog {
        fn pubkey_success(&self, user: &str, rhost: Ipv4Addr, now: u64, within: u64) -> bool {
            self.0
                .lock()
                .iter()
                .any(|(u, r, at)| u == user && *r == rhost && *at <= now && now - at <= within)
        }
    }

    fn run(module: &SolarisComboModule, user: &str, ip: Ipv4Addr, now: u64) -> PamResult {
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(user, ip, Arc::new(SimClock::at(now)), &mut conv);
        module.authenticate(&mut ctx)
    }

    fn setup(pubkey_for: Option<(&str, Ipv4Addr)>, rules: &str) -> Arc<SolarisComboModule> {
        let log = Arc::new(ToyLog::default());
        if let Some((u, ip)) = pubkey_for {
            log.0.lock().push((u.to_string(), ip, 995));
        }
        let cfg = WatchedAccessConfig::new(AccessConfig::parse(rules).unwrap());
        SolarisComboModule::new(log as Arc<dyn AuthLogSource>, cfg)
    }

    const GW_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

    #[test]
    fn both_conditions_met_succeeds() {
        let m = setup(Some(("gateway1", GW_IP)), "+ : gateway1 : ALL : ALL\n");
        assert_eq!(run(&m, "gateway1", GW_IP, 1000), PamResult::Success);
    }

    #[test]
    fn pubkey_without_exemption_continues() {
        let m = setup(Some(("alice", GW_IP)), "+ : gateway1 : ALL : ALL\n");
        assert_eq!(run(&m, "alice", GW_IP, 1000), PamResult::Ignore);
    }

    #[test]
    fn exemption_without_pubkey_continues() {
        // Password users still need the password module even if exempt from
        // the second factor — the combo alone must not grant.
        let m = setup(None, "+ : gateway1 : ALL : ALL\n");
        assert_eq!(run(&m, "gateway1", GW_IP, 1000), PamResult::Ignore);
    }

    #[test]
    fn sets_pubkey_flag_even_without_exemption() {
        let log = Arc::new(ToyLog::default());
        log.0.lock().push(("alice".into(), GW_IP, 995));
        let cfg = WatchedAccessConfig::new(AccessConfig::default());
        let m = SolarisComboModule::new(log as Arc<dyn AuthLogSource>, cfg);
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new("alice", GW_IP, Arc::new(SimClock::at(1000)), &mut conv);
        assert_eq!(m.authenticate(&mut ctx), PamResult::Ignore);
        assert!(ctx.pubkey_succeeded);
    }
}
