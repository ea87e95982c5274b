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
use std::collections::HashMap;
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
    inner: Arc<RwLock<Lines>>,
}

/// The log's lines and, under the same lock, the time of the latest
/// successful pubkey login per user and peer among them.
#[derive(Default)]
struct Lines {
    entries: Vec<LogEntry>,
    latest_pubkey: HashMap<String, HashMap<Ipv4Addr, u64>>,
}

impl AuthLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry.
    pub fn record(&self, entry: LogEntry) {
        let mut lines = self.inner.write();
        if entry.method == AuthMethod::Publickey && entry.success {
            let latest = match lines.latest_pubkey.get_mut(&entry.user) {
                Some(by_host) => by_host.entry(entry.rhost).or_insert(entry.at),
                None => lines
                    .latest_pubkey
                    .entry(entry.user.clone())
                    .or_default()
                    .entry(entry.rhost)
                    .or_insert(entry.at),
            };
            *latest = (*latest).max(entry.at);
        }
        lines.entries.push(entry);
    }

    /// Snapshot of all entries.
    pub(crate) fn entries(&self) -> Vec<LogEntry> {
        self.inner.read().entries.clone()
    }

    /// Count of entries satisfying `pred`.
    pub fn count_where(&self, pred: impl Fn(&LogEntry) -> bool) -> usize {
        self.inner.read().entries.iter().filter(|e| pred(e)).count()
    }

    /// Drop entries older than `cutoff` (log rotation). Long simulations
    /// rotate daily, exactly as production logrotate would.
    pub fn prune_older_than(&self, cutoff: u64) {
        let mut lines = self.inner.write();
        lines.entries.retain(|e| e.at >= cutoff);
        // A latest time that survives is still the latest; one that does
        // not took every older line of its user and peer with it.
        lines.latest_pubkey.retain(|_, by_host| {
            by_host.retain(|_, at| *at >= cutoff);
            !by_host.is_empty()
        });
    }
}

impl AuthLogSource for AuthLog {
    /// Whether `user` logged in from `rhost` with a public key at most
    /// `within_secs` before `now`: a lookup of their latest such login,
    /// however long the log. Every password login misses, so a scan
    /// back through the window would walk all of it on each of them.
    /// The log is written in time order and asked at the present, so the
    /// latest pubkey login is never after `now`, and when it is too old
    /// every earlier one is as well.
    fn pubkey_success(&self, user: &str, rhost: Ipv4Addr, now: u64, within_secs: u64) -> bool {
        self.inner
            .read()
            .latest_pubkey
            .get(user)
            .and_then(|by_host| by_host.get(&rhost))
            .is_some_and(|&at| at <= now && at.saturating_add(within_secs) >= now)
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
        assert_eq!(log.inner.read().entries.len(), 3);
        assert_eq!(log.count_where(|e| !e.tty), 2);
        assert_eq!(log.count_where(|e| e.user == "a"), 2);
    }
}
