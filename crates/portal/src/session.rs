//! Stateful pairing sessions.
//!
//! "The pairing process itself is a stateful operation between the browser
//! client and the portal back end. ... If a user refreshes in the middle
//! of the process, e.g. after requesting a token but before confirming it,
//! the process is aborted and the user will have to restart from the
//! beginning. This also protects against using the browser's back button
//! to go back to the pairing setup page after a successful pairing." (§3.5)

use hpcmfa_directory::identity::PairingMethod;

/// Where a pairing session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionState {
    /// A token was requested; the portal waits for the confirmation code.
    AwaitingConfirmation,
    /// Confirmed and recorded; the session is spent.
    Completed,
    /// Refreshed/navigated away mid-flow; must restart.
    Aborted,
}

/// One user's in-flight pairing attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairingSession {
    /// The account pairing.
    pub user: String,
    /// Device kind being paired.
    pub method: PairingMethod,
    /// Current state.
    pub state: SessionState,
    /// Unix time the session started.
    pub started_at: u64,
    /// Hard-token serial being claimed, if any.
    pub serial: Option<String>,
}

impl PairingSession {
    /// Open a session awaiting confirmation.
    pub(crate) fn start(user: &str, method: PairingMethod, now: u64) -> Self {
        PairingSession {
            user: user.to_string(),
            method,
            state: SessionState::AwaitingConfirmation,
            started_at: now,
            serial: None,
        }
    }

    /// Whether a confirmation may be accepted.
    pub(crate) fn can_confirm(&self) -> bool {
        self.state == SessionState::AwaitingConfirmation
    }

    /// Mark spent (successful confirmation).
    pub(crate) fn complete(&mut self) {
        self.state = SessionState::Completed;
    }

    /// Mark aborted (refresh / back button / new session supersedes).
    pub(crate) fn abort(&mut self) {
        if self.state == SessionState::AwaitingConfirmation {
            self.state = SessionState::Aborted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut s = PairingSession::start("alice", PairingMethod::Soft, 100);
        assert!(s.can_confirm());
        s.complete();
        assert!(!s.can_confirm());
        assert_eq!(s.state, SessionState::Completed);
    }

    #[test]
    fn abort_only_from_awaiting() {
        let mut s = PairingSession::start("alice", PairingMethod::Sms, 100);
        s.complete();
        s.abort();
        // A completed session is spent, not aborted: the back button must
        // not resurrect or cancel it.
        assert_eq!(s.state, SessionState::Completed);

        let mut s2 = PairingSession::start("bob", PairingMethod::Soft, 100);
        s2.abort();
        assert_eq!(s2.state, SessionState::Aborted);
        assert!(!s2.can_confirm());
    }
}
