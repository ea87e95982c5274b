//! The audit log (§3.1: "Admins can view user pairings, re-synchronize
//! tokens, access audit logs, and clear failure counters"; §3.2: "Upon
//! validation, an audit log entry is created within the LinOTP database").
//!
//! The log is bounded: a configurable retention cap gives it ring
//! semantics — once full, each append evicts the oldest entry and bumps a
//! dropped-entry counter — so week-long simulations can't grow it without
//! bound. `prune_older_than` keeps its time-based retention behaviour.

use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default retention cap: large enough that no simulation in this repo
/// evicts, small enough to bound a runaway stream.
pub const DEFAULT_AUDIT_CAP: usize = 1_000_000;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditAction {
    /// A token-code validation attempt.
    Validate,
    /// An SMS send was triggered.
    SmsTriggered,
    /// An SMS send was suppressed because a code was already active.
    SmsSuppressed,
    /// A token was enrolled.
    Enroll,
    /// A token was removed.
    Remove,
    /// A token was resynchronized.
    Resync,
    /// A failure counter was cleared by staff.
    ResetFailCount,
    /// The account was deactivated by the lockout policy.
    Lockout,
}

impl AuditAction {
    /// Stable label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            AuditAction::Validate => "validate",
            AuditAction::SmsTriggered => "sms_triggered",
            AuditAction::SmsSuppressed => "sms_suppressed",
            AuditAction::Enroll => "enroll",
            AuditAction::Remove => "remove",
            AuditAction::Resync => "resync",
            AuditAction::ResetFailCount => "reset_failcount",
            AuditAction::Lockout => "lockout",
        }
    }
}

/// One audit entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Unix time of the event.
    pub at: u64,
    /// Account involved.
    pub username: String,
    /// Event type.
    pub action: AuditAction,
    /// Whether the operation succeeded.
    pub success: bool,
    /// Free-form detail (never contains secrets or token codes).
    pub detail: String,
}

struct AuditInner {
    entries: VecDeque<AuditEntry>,
    cap: usize,
    dropped: u64,
}

/// Bounded, thread-safe audit log with ring eviction. Clone shares state.
#[derive(Clone)]
pub struct AuditLog {
    inner: Arc<RwLock<AuditInner>>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::with_cap(DEFAULT_AUDIT_CAP)
    }
}

impl AuditLog {
    /// New empty log with the default retention cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty log retaining at most `cap` entries (0 retains nothing).
    pub fn with_cap(cap: usize) -> Self {
        AuditLog {
            inner: Arc::new(RwLock::new(AuditInner {
                entries: VecDeque::new(),
                cap,
                dropped: 0,
            })),
        }
    }

    /// The retention cap.
    pub fn cap(&self) -> usize {
        self.inner.read().cap
    }

    /// Entries evicted by the ring cap since creation (time-based pruning
    /// does not count — that is deliberate retention, not overflow).
    pub fn dropped(&self) -> u64 {
        self.inner.read().dropped
    }

    /// Append an entry, evicting the oldest if the log is at cap.
    pub fn record(
        &self,
        at: u64,
        username: &str,
        action: AuditAction,
        success: bool,
        detail: &str,
    ) {
        self.push(AuditEntry {
            at,
            username: username.to_string(),
            action,
            success,
            detail: detail.to_string(),
        });
    }

    /// [`AuditLog::record`] for an entry the caller already built.
    pub(crate) fn push(&self, entry: AuditEntry) {
        let mut inner = self.inner.write();
        if inner.cap == 0 {
            inner.dropped += 1;
            return;
        }
        while inner.entries.len() >= inner.cap {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(entry);
    }

    /// All entries for `username`.
    pub fn for_user(&self, username: &str) -> Vec<AuditEntry> {
        self.inner
            .read()
            .entries
            .iter()
            .filter(|e| e.username == username)
            .cloned()
            .collect()
    }

    /// Entries in `[from, to)`.
    pub fn in_range(&self, from: u64, to: u64) -> Vec<AuditEntry> {
        self.inner
            .read()
            .entries
            .iter()
            .filter(|e| e.at >= from && e.at < to)
            .cloned()
            .collect()
    }

    /// Count of entries matching `action` and `success`.
    pub fn count(&self, action: AuditAction, success: bool) -> usize {
        self.inner
            .read()
            .entries
            .iter()
            .filter(|e| e.action == action && e.success == success)
            .count()
    }

    /// Drop entries older than `cutoff` (retention rotation for long
    /// simulations; production would archive instead).
    pub fn prune_older_than(&self, cutoff: u64) {
        self.inner.write().entries.retain(|e| e.at >= cutoff);
    }

    /// Clone all retained entries in order (snapshot encoding).
    pub fn export_all(&self) -> Vec<AuditEntry> {
        self.inner.read().entries.iter().cloned().collect()
    }

    /// Visit all retained entries in order without cloning them
    /// (snapshot encoding); returns the dropped counter as it stood for
    /// that visit. The log stays read-locked throughout, so `f` must not
    /// call back into it.
    pub fn for_each(&self, f: impl FnMut(&AuditEntry)) -> u64 {
        let inner = self.inner.read();
        inner.entries.iter().for_each(f);
        inner.dropped
    }

    /// Replace the log's contents and dropped counter (crash recovery).
    /// The cap is preserved; if the recovered set exceeds it, the oldest
    /// entries are evicted exactly as live appends would have.
    pub fn load(&self, entries: Vec<AuditEntry>, dropped: u64) {
        let mut inner = self.inner.write();
        inner.entries = entries.into();
        inner.dropped = dropped;
        while inner.cap > 0 && inner.entries.len() > inner.cap {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        if inner.cap == 0 {
            inner.dropped += inner.entries.len() as u64;
            inner.entries.clear();
        }
    }

    /// Drop every entry (simulated crash wipes the in-memory image). The
    /// dropped counter is reset too — recovery restores it from the
    /// snapshot seal.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.entries.clear();
        inner.dropped = 0;
    }

    /// Total retained entries.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let log = AuditLog::new();
        log.record(10, "alice", AuditAction::Validate, true, "totp ok");
        log.record(20, "alice", AuditAction::Validate, false, "wrong code");
        log.record(30, "bob", AuditAction::Enroll, true, "soft");
        assert_eq!(log.len(), 3);
        assert_eq!(log.for_user("alice").len(), 2);
        assert_eq!(log.in_range(15, 35).len(), 2);
        assert_eq!(log.count(AuditAction::Validate, true), 1);
        assert_eq!(log.count(AuditAction::Validate, false), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AuditAction::Validate.label(), "validate");
        assert_eq!(AuditAction::Lockout.label(), "lockout");
    }

    #[test]
    fn ring_cap_evicts_oldest_and_counts_drops() {
        let log = AuditLog::with_cap(3);
        for i in 0..5 {
            log.record(i, "u", AuditAction::Validate, true, "");
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let entries = log.export_all();
        assert_eq!(entries.first().unwrap().at, 2, "oldest evicted first");
        assert_eq!(entries.last().unwrap().at, 4);
    }

    #[test]
    fn prune_keeps_time_retention_and_does_not_count_as_dropped() {
        let log = AuditLog::with_cap(10);
        for i in 0..5 {
            log.record(i * 10, "u", AuditAction::Validate, true, "");
        }
        log.prune_older_than(25);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn load_restores_and_respects_cap() {
        let log = AuditLog::with_cap(2);
        let entries: Vec<AuditEntry> = (0..4)
            .map(|i| AuditEntry {
                at: i,
                username: "u".into(),
                action: AuditAction::Validate,
                success: true,
                detail: String::new(),
            })
            .collect();
        log.load(entries, 7);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 9, "7 prior + 2 evicted on load");
        assert_eq!(log.export_all().first().unwrap().at, 2);
    }

    #[test]
    fn concurrent_appends() {
        let log = AuditLog::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let l = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    l.record(i, &format!("u{t}"), AuditAction::Validate, true, "");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
    }
}
