//! The pubkey check is a lookup, and it answers as the tail scan did.
//!
//! [`AuthLog`] keeps, beside its lines, the latest successful pubkey login
//! per user and peer, and `pubkey_success` reads only that. The reference
//! here is the scan it replaced: walk the log back from its newest line
//! while lines are inside the freshness window, looking for a successful
//! pubkey line of the user from the peer. The log is written in time order
//! and asked at the present, as sshd and the PAM module use it: pubkey
//! successes and failures, password and keyboard-interactive lines, other
//! users and other peers, with rotations (prunes) in between.

use hpcmfa_pam::modules::pubkey::AuthLogSource;
use hpcmfa_ssh::authlog::{AuthMethod, LogEntry};
use hpcmfa_ssh::AuthLog;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const USERS: [&str; 3] = ["alice", "bob", "carol"];

fn host(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i)
}

/// The tail scan `pubkey_success` was before the index.
fn tail_scan(lines: &[LogEntry], user: &str, rhost: Ipv4Addr, now: u64, within: u64) -> bool {
    lines
        .iter()
        .rev()
        .take_while(|e| e.at + within >= now)
        .any(|e| {
            e.method == AuthMethod::Publickey
                && e.success
                && e.user == user
                && e.rhost == rhost
                && e.at <= now
        })
}

/// One step of a log's life.
#[derive(Debug, Clone)]
enum Step {
    /// Time moves on by this many seconds.
    Wait(u64),
    /// A login line at the present.
    Line {
        user: usize,
        host: u8,
        method: u8,
        success: bool,
    },
    /// Rotation: drop lines older than this many seconds before now.
    Prune(u64),
    /// The pubkey module asks about a user and peer, with a window.
    Ask { user: usize, host: u8, within: u64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..40).prop_map(Step::Wait),
        (0usize..3, 0u8..3, 0u8..3, any::<bool>()).prop_map(|(user, host, method, success)| {
            Step::Line {
                user,
                host,
                method,
                success,
            }
        }),
        (0u64..90).prop_map(Step::Prune),
        (0usize..3, 0u8..3, 0u64..60).prop_map(|(user, host, within)| Step::Ask {
            user,
            host,
            within
        }),
    ]
}

proptest! {
    /// Step for step, the index answers every question as the scan over
    /// the same (pruned) lines does.
    fn the_index_answers_as_the_tail_scan(
        steps in prop::collection::vec(arb_step(), 1..120),
    ) {
        let log = AuthLog::new();
        let mut lines: Vec<LogEntry> = Vec::new();
        let mut now = 1_000u64;
        for step in steps {
            match step {
                Step::Wait(secs) => now += secs,
                Step::Line { user, host: h, method, success } => {
                    let entry = LogEntry {
                        at: now,
                        user: USERS[user].to_string(),
                        rhost: host(h),
                        method: match method {
                            0 => AuthMethod::Publickey,
                            1 => AuthMethod::Password,
                            _ => AuthMethod::KeyboardInteractive,
                        },
                        success,
                        tty: false,
                    };
                    log.record(entry.clone());
                    lines.push(entry);
                }
                Step::Prune(age) => {
                    let cutoff = now.saturating_sub(age);
                    log.prune_older_than(cutoff);
                    lines.retain(|e| e.at >= cutoff);
                }
                Step::Ask { user, host: h, within } => {
                    prop_assert_eq!(
                        log.pubkey_success(USERS[user], host(h), now, within),
                        tail_scan(&lines, USERS[user], host(h), now, within),
                        "{} from {} at {} within {}", USERS[user], host(h), now, within
                    );
                }
            }
            prop_assert_eq!(log.count_where(|_| true), lines.len());
        }
        // And every question the last state can be asked.
        for (user, h, within) in (0..3).flat_map(|u| (0..3).flat_map(move |h| [0, 1, 30, 500].map(|w| (u, h, w)))) {
            prop_assert_eq!(
                log.pubkey_success(USERS[user], host(h), now, within),
                tail_scan(&lines, USERS[user], host(h), now, within)
            );
        }
    }
}
