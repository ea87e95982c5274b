//! In-house module #1: "Public Key Success?" (§3.4).
//!
//! "The first PAM module in the stack has been constructed to determine if
//! a user has utilized public key authentication successfully via SSH as
//! their first factor of authentication. This module searches recent local
//! secure system entry logs to determine this information. ... Information
//! about the state of public key authentication is not provided from SSH
//! to PAM. This module is the only mechanism known to provide this
//! information."
//!
//! Deployed with the `[success=N default=ignore]` control so a hit skips
//! the password module.

use crate::context::PamContext;
use crate::stack::{PamModule, PamResult};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Where the module reads "recent local secure system entry logs" from.
/// `hpcmfa-ssh`'s auth log implements this.
pub trait AuthLogSource: Send + Sync {
    /// Whether a successful publickey authentication for `user` from
    /// `rhost` was logged within the last `within_secs` seconds before
    /// `now`.
    fn pubkey_success(&self, user: &str, rhost: Ipv4Addr, now: u64, within_secs: u64) -> bool;
}

/// How far back the log search reaches. The sshd pubkey phase and the PAM
/// phase of the same connection are at most a few seconds apart.
pub(crate) const DEFAULT_FRESHNESS_SECS: u64 = 30;

/// The pubkey-success check module.
pub struct PubkeyCheckModule {
    log: Arc<dyn AuthLogSource>,
    freshness_secs: u64,
}

impl PubkeyCheckModule {
    /// Search `log` with the default freshness window.
    pub fn new(log: Arc<dyn AuthLogSource>) -> Arc<Self> {
        Arc::new(PubkeyCheckModule {
            log,
            freshness_secs: DEFAULT_FRESHNESS_SECS,
        })
    }
}

impl PamModule for PubkeyCheckModule {
    fn name(&self) -> &'static str {
        "pam_tacc_pubkey"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        if self
            .log
            .pubkey_success(&ctx.username, ctx.rhost, ctx.now(), self.freshness_secs)
        {
            ctx.pubkey_succeeded = true;
            PamResult::Success
        } else {
            // Not an error: the user simply continues to the password path.
            PamResult::Ignore
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ScriptedConversation;
    use hpcmfa_otp::clock::SimClock;
    use parking_lot::Mutex;

    /// A toy auth log: (user, rhost, at) triples.
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

    fn ctx_run(
        module: &PubkeyCheckModule,
        user: &str,
        ip: Ipv4Addr,
        now: u64,
    ) -> (PamResult, bool) {
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(user, ip, Arc::new(SimClock::at(now)), &mut conv);
        let r = module.authenticate(&mut ctx);
        (r, ctx.pubkey_succeeded)
    }

    #[test]
    fn recent_entry_found() {
        let log = Arc::new(ToyLog::default());
        log.0
            .lock()
            .push(("alice".into(), Ipv4Addr::new(1, 2, 3, 4), 995));
        let module = PubkeyCheckModule::new(Arc::clone(&log) as Arc<dyn AuthLogSource>);
        let (r, flag) = ctx_run(&module, "alice", Ipv4Addr::new(1, 2, 3, 4), 1000);
        assert_eq!(r, PamResult::Success);
        assert!(flag);
    }

    #[test]
    fn stale_entry_ignored() {
        let log = Arc::new(ToyLog::default());
        log.0
            .lock()
            .push(("alice".into(), Ipv4Addr::new(1, 2, 3, 4), 900));
        let module = PubkeyCheckModule::new(Arc::clone(&log) as Arc<dyn AuthLogSource>);
        let (r, flag) = ctx_run(&module, "alice", Ipv4Addr::new(1, 2, 3, 4), 1000);
        assert_eq!(r, PamResult::Ignore);
        assert!(!flag);
    }

    #[test]
    fn wrong_user_or_host_ignored() {
        let log = Arc::new(ToyLog::default());
        log.0
            .lock()
            .push(("alice".into(), Ipv4Addr::new(1, 2, 3, 4), 999));
        let module = PubkeyCheckModule::new(Arc::clone(&log) as Arc<dyn AuthLogSource>);
        assert_eq!(
            ctx_run(&module, "bob", Ipv4Addr::new(1, 2, 3, 4), 1000).0,
            PamResult::Ignore
        );
        assert_eq!(
            ctx_run(&module, "alice", Ipv4Addr::new(9, 9, 9, 9), 1000).0,
            PamResult::Ignore
        );
    }
}
