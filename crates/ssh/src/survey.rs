//! The §4.1 information-gathering analysis.
//!
//! "Users were ranked by the number of log in events in a fixed time
//! period. Any known gateway or community accounts ... were filtered out
//! and contacted separately. As a small sample but good point of
//! reference, staff members, who generally tend to be quite active on the
//! systems, served as threshold cutoffs. Any user more active in log ins
//! than this threshold were separated out to be targeted for inquiry."

use crate::authlog::AuthLog;
use std::collections::{HashMap, HashSet};

/// Per-user login activity over the audit window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserActivity {
    /// Login name.
    pub user: String,
    /// Successful entries in the window.
    pub logins: usize,
    /// Of those, how many had no TTY (scripted indicator).
    pub non_tty: usize,
}

impl UserActivity {
    /// Fraction of logins without a TTY.
    pub fn non_tty_fraction(&self) -> f64 {
        if self.logins == 0 {
            0.0
        } else {
            self.non_tty as f64 / self.logins as f64
        }
    }
}

/// The outcome of the audit: who to contact about automated workflows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveyReport {
    /// Users above the staff-activity threshold, most active first.
    pub targeted: Vec<UserActivity>,
    /// The activity threshold used (max successful logins among staff).
    pub threshold: usize,
    /// Known gateway/community accounts excluded from targeting.
    pub excluded: Vec<UserActivity>,
}

/// Aggregate successful logins per user in `[from, to)`.
pub(crate) fn aggregate_activity(log: &AuthLog, from: u64, to: u64) -> Vec<UserActivity> {
    let mut map: HashMap<String, (usize, usize)> = HashMap::new();
    for e in log.entries() {
        if e.success && e.at >= from && e.at < to {
            let slot = map.entry(e.user.clone()).or_insert((0, 0));
            slot.0 += 1;
            if !e.tty {
                slot.1 += 1;
            }
        }
    }
    let mut out: Vec<UserActivity> = map
        .into_iter()
        .map(|(user, (logins, non_tty))| UserActivity {
            user,
            logins,
            non_tty,
        })
        .collect();
    out.sort_by(|a, b| b.logins.cmp(&a.logins).then(a.user.cmp(&b.user)));
    out
}

/// Run the full §4.1 analysis.
///
/// `staff` provides the threshold reference; `known_accounts` (gateways,
/// community accounts) are excluded from targeting and reported
/// separately.
pub fn survey(
    log: &AuthLog,
    from: u64,
    to: u64,
    staff: &HashSet<String>,
    known_accounts: &HashSet<String>,
) -> SurveyReport {
    let all = aggregate_activity(log, from, to);
    let threshold = all
        .iter()
        .filter(|a| staff.contains(&a.user))
        .map(|a| a.logins)
        .max()
        .unwrap_or(0);
    let mut targeted = Vec::new();
    let mut excluded = Vec::new();
    for a in all {
        if known_accounts.contains(&a.user) {
            excluded.push(a);
        } else if !staff.contains(&a.user) && a.logins > threshold {
            targeted.push(a);
        }
    }
    SurveyReport {
        targeted,
        threshold,
        excluded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authlog::{AuthMethod, LogEntry};
    use std::net::Ipv4Addr;

    fn log_with(counts: &[(&str, usize, bool)]) -> AuthLog {
        let log = AuthLog::new();
        let mut t = 0u64;
        for (user, n, tty) in counts {
            for _ in 0..*n {
                t += 1;
                log.record(LogEntry {
                    at: t,
                    user: user.to_string(),
                    rhost: Ipv4Addr::new(1, 1, 1, 1),
                    method: AuthMethod::Publickey,
                    success: true,
                    tty: *tty,
                });
            }
        }
        log
    }

    #[test]
    fn ranks_by_activity() {
        let log = log_with(&[("light", 2, true), ("heavy", 50, false), ("mid", 10, true)]);
        let ranked = aggregate_activity(&log, 0, 10_000);
        assert_eq!(ranked[0].user, "heavy");
        assert_eq!(ranked[0].logins, 50);
        assert_eq!(ranked[0].non_tty, 50);
        assert_eq!(ranked[2].user, "light");
    }

    #[test]
    fn survey_targets_above_staff_threshold() {
        let log = log_with(&[
            ("staffer", 20, true),
            ("automator", 500, false),
            ("casual", 5, true),
            ("gateway1", 900, false),
        ]);
        let staff: HashSet<String> = ["staffer".to_string()].into();
        let known: HashSet<String> = ["gateway1".to_string()].into();
        let report = survey(&log, 0, 100_000, &staff, &known);
        assert_eq!(report.threshold, 20);
        assert_eq!(report.targeted.len(), 1);
        assert_eq!(report.targeted[0].user, "automator");
        // "the far majority of these log in events were not invoked with a
        // TTY" — the targeted population is overwhelmingly scripted.
        assert!(report.targeted[0].non_tty_fraction() > 0.9);
        assert_eq!(report.excluded.len(), 1);
        assert_eq!(report.excluded[0].user, "gateway1");
    }

    #[test]
    fn failures_and_out_of_window_ignored() {
        let log = AuthLog::new();
        log.record(LogEntry {
            at: 5,
            user: "u".into(),
            rhost: Ipv4Addr::new(1, 1, 1, 1),
            method: AuthMethod::Password,
            success: false,
            tty: true,
        });
        log.record(LogEntry {
            at: 50_000,
            user: "u".into(),
            rhost: Ipv4Addr::new(1, 1, 1, 1),
            method: AuthMethod::Password,
            success: true,
            tty: true,
        });
        let acts = aggregate_activity(&log, 0, 10_000);
        assert!(acts.is_empty());
    }

    #[test]
    fn empty_staff_targets_everyone_active() {
        let log = log_with(&[("u1", 3, true)]);
        let report = survey(&log, 0, 100, &HashSet::new(), &HashSet::new());
        assert_eq!(report.threshold, 0);
        assert_eq!(report.targeted.len(), 1);
    }
}
