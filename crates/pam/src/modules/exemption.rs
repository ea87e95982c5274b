//! In-house module #2: "MFA Exemption Granted?" (§3.4).
//!
//! "The user's information, including username and remote IP address are
//! compared with an existing configuration file that contains white and
//! blacklists specific to the second factor of the MFA process. ... If an
//! exemption is granted, no further action by the user is required to gain
//! SSH entry into the system."
//!
//! Deployed `sufficient`: a grant short-circuits the stack before the token
//! module; a denial is `Ignore` so processing continues to the token
//! prompt.

use crate::access::{AccessDecision, WatchedAccessConfig};
use crate::context::PamContext;
use crate::stack::{PamModule, PamResult};
use std::sync::Arc;

/// The exemption-check module.
pub struct ExemptionModule {
    config: WatchedAccessConfig,
}

impl ExemptionModule {
    /// Check against the given hot-reloadable configuration.
    pub fn new(config: WatchedAccessConfig) -> Arc<Self> {
        Arc::new(ExemptionModule { config })
    }
}

impl PamModule for ExemptionModule {
    fn name(&self) -> &'static str {
        "pam_tacc_mfa_exempt"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        // A risk module upstream may demand step-up authentication: the
        // exemption then declines to bypass the second factor (§6's
        // "dynamic risk assessment" growth feature).
        if ctx.risk_step_up {
            return PamResult::Ignore;
        }
        match self.config.decide(&ctx.username, ctx.rhost, ctx.now()) {
            AccessDecision::Exempt => PamResult::Success,
            AccessDecision::NotExempt => PamResult::Ignore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConfig;
    use crate::conv::ScriptedConversation;
    use hpcmfa_otp::clock::SimClock;
    use std::net::Ipv4Addr;

    fn run(module: &ExemptionModule, user: &str, ip: Ipv4Addr, now: u64) -> PamResult {
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(user, ip, Arc::new(SimClock::at(now)), &mut conv);
        module.authenticate(&mut ctx)
    }

    #[test]
    fn exempt_user_succeeds() {
        let cfg =
            WatchedAccessConfig::new(AccessConfig::parse("+ : gateway1 : ALL : ALL\n").unwrap());
        let m = ExemptionModule::new(cfg);
        assert_eq!(
            run(&m, "gateway1", Ipv4Addr::new(8, 8, 8, 8), 0),
            PamResult::Success
        );
        assert_eq!(
            run(&m, "alice", Ipv4Addr::new(8, 8, 8, 8), 0),
            PamResult::Ignore
        );
    }

    #[test]
    fn reload_takes_effect_immediately() {
        let cfg = WatchedAccessConfig::new(AccessConfig::default());
        let m = ExemptionModule::new(cfg.clone());
        assert_eq!(
            run(&m, "late_user", Ipv4Addr::new(8, 8, 8, 8), 0),
            PamResult::Ignore
        );
        cfg.reload(AccessConfig::parse("+ : late_user : ALL : 2016-12-31\n").unwrap());
        assert_eq!(
            run(&m, "late_user", Ipv4Addr::new(8, 8, 8, 8), 1_475_000_000),
            PamResult::Success
        );
    }
}
