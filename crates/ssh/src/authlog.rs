//! The secure system entry log (`/var/log/secure` role).
//!
//! Two consumers from the paper:
//!
//! * the in-house pubkey PAM module, which "searches recent local secure
//!   system entry logs" (§3.4) — via the
//!   [`AuthLogSource`] impl;
//! * the §4.1 information-gathering audit: "a script was installed
//!   throughout major systems to create a log event upon successful entry
//!   with explicit information pertaining to the user's current shell
//!   properties and whether a terminal session (TTY) had been initiated."

use hpcmfa_pam::modules::pubkey::AuthLogSource;
use parking_lot::RwLock;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How the connection authenticated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuthMethod {
    /// SSH public key (first factor).
    Publickey,
    /// Password via PAM (first factor).
    Password,
    /// Keyboard-interactive (the MFA challenge ran).
    KeyboardInteractive,
}

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Unix time.
    pub at: u64,
    /// Login name.
    pub user: String,
    /// Peer address.
    pub rhost: Ipv4Addr,
    /// Method.
    pub method: AuthMethod,
    /// Whether authentication succeeded.
    pub success: bool,
    /// Whether a TTY was allocated (§4.1's interactive/scripted signal).
    pub tty: bool,
}

/// Append-only auth log, shared between sshd and the PAM pubkey module.
#[derive(Clone, Default)]
pub struct AuthLog {
    entries: Arc<RwLock<Vec<LogEntry>>>,
}

impl AuthLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry.
    pub fn record(&self, entry: LogEntry) {
        self.entries.write().push(entry);
    }

    /// Snapshot of all entries.
    pub(crate) fn entries(&self) -> Vec<LogEntry> {
        self.entries.read().clone()
    }

    /// Count of entries satisfying `pred`.
    pub fn count_where(&self, pred: impl Fn(&LogEntry) -> bool) -> usize {
        self.entries.read().iter().filter(|e| pred(e)).count()
    }

    /// Drop entries older than `cutoff` (log rotation). Long simulations
    /// rotate daily, exactly as production logrotate would.
    pub fn prune_older_than(&self, cutoff: u64) {
        self.entries.write().retain(|e| e.at >= cutoff);
    }
}

impl AuthLogSource for AuthLog {
    fn pubkey_success(&self, user: &str, rhost: Ipv4Addr, now: u64, within_secs: u64) -> bool {
        // Scan from the tail: the matching entry is almost always the most
        // recent line, written moments ago by the same connection. Entries
        // are appended in time order, so the scan stops at the first line
        // older than the freshness window instead of walking months of
        // history.
        self.entries
            .read()
            .iter()
            .rev()
            .take_while(|e| e.at + within_secs >= now)
            .any(|e| {
                e.method == AuthMethod::Publickey
                    && e.success
                    && e.user == user
                    && e.rhost == rhost
                    && e.at <= now
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: &str, at: u64, method: AuthMethod, success: bool, tty: bool) -> LogEntry {
        LogEntry {
            at,
            user: user.into(),
            rhost: Ipv4Addr::new(1, 2, 3, 4),
            method,
            success,
            tty,
        }
    }

    #[test]
    fn pubkey_source_matches_recent_success() {
        let log = AuthLog::new();
        log.record(entry("alice", 990, AuthMethod::Publickey, true, true));
        assert!(log.pubkey_success("alice", Ipv4Addr::new(1, 2, 3, 4), 1000, 30));
        assert!(!log.pubkey_success("alice", Ipv4Addr::new(9, 9, 9, 9), 1000, 30));
        assert!(!log.pubkey_success("bob", Ipv4Addr::new(1, 2, 3, 4), 1000, 30));
        assert!(!log.pubkey_success("alice", Ipv4Addr::new(1, 2, 3, 4), 2000, 30));
    }

    #[test]
    fn failed_pubkey_does_not_count() {
        let log = AuthLog::new();
        log.record(entry("alice", 995, AuthMethod::Publickey, false, false));
        assert!(!log.pubkey_success("alice", Ipv4Addr::new(1, 2, 3, 4), 1000, 30));
    }

    #[test]
    fn password_entries_do_not_count_as_pubkey() {
        let log = AuthLog::new();
        log.record(entry("alice", 995, AuthMethod::Password, true, true));
        assert!(!log.pubkey_success("alice", Ipv4Addr::new(1, 2, 3, 4), 1000, 30));
    }

    #[test]
    fn counting_helpers() {
        let log = AuthLog::new();
        log.record(entry("a", 1, AuthMethod::Password, true, true));
        log.record(entry("a", 2, AuthMethod::Password, true, false));
        log.record(entry("b", 3, AuthMethod::Publickey, true, false));
        assert_eq!(log.entries.read().len(), 3);
        assert_eq!(log.count_where(|e| !e.tty), 2);
        assert_eq!(log.count_where(|e| e.user == "a"), 2);
    }
}
