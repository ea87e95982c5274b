//! Concurrency smoke test for the sharded auth path: several threads
//! hammer validate/resync/lockout on *overlapping* users — the worst case
//! for sharding, since every contended user lives behind one shard lock —
//! and the test asserts the three invariants concurrency must not bend:
//!
//! 1. **No lost lockout increments.** Every user hammered with wrong codes
//!    ends with `fail_count` exactly at the threshold and deactivated, and
//!    exactly `threshold` attempts observed `WrongCode` (the rest saw
//!    `Locked`). A lost increment would surface as an extra `WrongCode`.
//! 2. **No replay acceptance.** All threads racing the same fresh code get
//!    exactly one `Success`; everyone else sees `Replayed`.
//! 3. **Serializability.** Each operation is recorded, with its outcome, in
//!    the per-user order it actually executed; replaying every user's
//!    sequence serially on a fresh identically-enrolled server reproduces
//!    the same outcome sequence and the same final store records.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig, ValidationOutcome};
use hpcmfa_otpserver::sms::TwilioSim;
use hpcmfa_otpserver::LOCKOUT_THRESHOLD;
use parking_lot::Mutex;
use std::sync::Arc;

const THREADS: usize = 4;
const T0: u64 = 1_700_000_000;

/// One recorded operation and the outcome the concurrent run observed.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Validate {
        code: String,
        now: u64,
        outcome: ValidationOutcome,
    },
    Resync {
        c1: String,
        c2: String,
        now: u64,
        ok: bool,
    },
}

fn fixed_secret(i: usize) -> Secret {
    let mut bytes = *b"concurrency-smoke-20";
    bytes[17] = b'0' + (i / 10) as u8;
    bytes[18] = b'0' + (i % 10) as u8;
    Secret::from_bytes(bytes)
}

fn server_with_users(n: usize) -> (Arc<LinotpServer>, Vec<(String, Totp)>) {
    let server = LinotpServer::with_config(TwilioSim::new(7), 7, ServerConfig::default());
    let users: Vec<(String, Totp)> = (0..n)
        .map(|i| {
            let name = format!("smoke{i:02}");
            let secret = fixed_secret(i);
            server.enroll_hard(&name, &format!("FOB-{i:04}"), secret.clone(), T0);
            (name, Totp::new(secret))
        })
        .collect();
    (server, users)
}

/// A six-digit code guaranteed to match no step of `totp`'s drift window
/// around `now..now + slack` — found by scanning, so the test can never
/// accidentally submit a valid code.
fn wrong_code(totp: &Totp, now: u64, slack_steps: u64) -> String {
    let lo = totp.params.time_step(now).saturating_sub(15);
    let hi = totp.params.time_step(now) + slack_steps + 15;
    'candidate: for c in 0..1_000_000u32 {
        let code = format!("{c:06}");
        for step in lo..=hi {
            if totp.code_at(step * totp.params.step_secs) == code {
                continue 'candidate;
            }
        }
        return code;
    }
    unreachable!("a million candidates cannot all collide");
}

#[test]
fn concurrent_lockout_loses_no_increments() {
    let (server, users) = server_with_users(6);
    let threshold = LOCKOUT_THRESHOLD as usize;
    let rounds = threshold; // THREADS * rounds attempts per user >> threshold
    let wrong: Vec<String> = users.iter().map(|(_, t)| wrong_code(t, T0, 0)).collect();
    let logs: Vec<Mutex<Vec<ValidationOutcome>>> =
        users.iter().map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let server = &server;
            let users = &users;
            let wrong = &wrong;
            let logs = &logs;
            scope.spawn(move || {
                for _ in 0..rounds {
                    for (i, (name, _)) in users.iter().enumerate() {
                        // The log lock is held across the call so the
                        // recorded order is the execution order.
                        let mut log = logs[i].lock();
                        log.push(server.validate(name, &wrong[i], T0));
                    }
                }
            });
        }
    });

    for (i, (name, _)) in users.iter().enumerate() {
        let rec = server.store().get(name).unwrap();
        assert!(!rec.active, "{name} must be locked out");
        assert_eq!(
            rec.fail_count as usize, threshold,
            "{name}: fail_count must land exactly on the threshold — \
             an overshoot or undershoot means increments raced"
        );
        let log = logs[i].lock();
        assert_eq!(log.len(), THREADS * rounds);
        let wrongs = log
            .iter()
            .filter(|o| **o == ValidationOutcome::WrongCode)
            .count();
        let locked = log
            .iter()
            .filter(|o| **o == ValidationOutcome::Locked)
            .count();
        assert_eq!(
            (wrongs, locked),
            (threshold, THREADS * rounds - threshold),
            "{name}: exactly `threshold` attempts may observe WrongCode"
        );
        // And once locked, no later attempt saw anything else.
        assert!(
            log.iter()
                .skip(threshold)
                .all(|o| *o == ValidationOutcome::Locked),
            "{name}: attempts after the threshold must all be Locked"
        );
    }
}

#[test]
fn racing_the_same_code_accepts_it_exactly_once() {
    let (server, users) = server_with_users(5);
    for (name, totp) in &users {
        let now = T0 + 60;
        let code = totp.code_at(now);
        let outcomes: Mutex<Vec<ValidationOutcome>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let server = &server;
                let outcomes = &outcomes;
                let code = &code;
                scope.spawn(move || {
                    let o = server.validate(name, code, now);
                    outcomes.lock().push(o);
                });
            }
        });
        let outcomes = outcomes.into_inner();
        let successes = outcomes.iter().filter(|o| o.is_success()).count();
        let replays = outcomes
            .iter()
            .filter(|o| **o == ValidationOutcome::Replayed)
            .count();
        assert_eq!(
            successes, 1,
            "{name}: the code must be accepted exactly once"
        );
        assert_eq!(
            replays,
            THREADS - 1,
            "{name}: every other racer must see Replayed"
        );
    }
}

#[test]
fn concurrent_run_equals_serial_replay_of_per_user_order() {
    let (server, users) = server_with_users(8);
    let logs: Vec<Mutex<Vec<Op>>> = users.iter().map(|_| Mutex::new(Vec::new())).collect();
    let wrong: Vec<String> = users.iter().map(|(_, t)| wrong_code(t, T0, 400)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            let users = &users;
            let wrong = &wrong;
            let logs = &logs;
            scope.spawn(move || {
                for round in 0..12u64 {
                    for (i, (name, totp)) in users.iter().enumerate() {
                        let now = T0 + (round + 1) * 30;
                        // Deterministic mix per (thread, round, user):
                        // fresh code, wrong code, stale code, or resync.
                        let mut log = logs[i].lock();
                        match (t + round as usize + i) % 4 {
                            0 => {
                                let code = totp.code_at(now);
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            1 => {
                                let code = wrong[i].clone();
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            2 => {
                                // A code from three steps back: in-window,
                                // but may already be nullified.
                                let code = totp.code_at(now.saturating_sub(90));
                                let outcome = server.validate(name, &code, now);
                                log.push(Op::Validate { code, now, outcome });
                            }
                            _ => {
                                // Resync from a drifted pair ~60 steps ahead.
                                let c1 = totp.code_at(now + 60 * 30);
                                let c2 = totp.code_at(now + 61 * 30);
                                let ok = server.resync(name, &c1, &c2, now);
                                log.push(Op::Resync { c1, c2, now, ok });
                            }
                        }
                    }
                }
            });
        }
    });

    // Serial replay: fresh identically-enrolled server, each user's ops in
    // recorded order. Outcomes and final records must match exactly.
    let (serial, _) = server_with_users(8);
    for (i, (name, _)) in users.iter().enumerate() {
        for op in logs[i].lock().iter() {
            match op {
                Op::Validate { code, now, outcome } => {
                    assert_eq!(
                        &serial.validate(name, code, *now),
                        outcome,
                        "{name}: serial replay diverged on validate({code}, {now})"
                    );
                }
                Op::Resync { c1, c2, now, ok } => {
                    assert_eq!(
                        &serial.resync(name, c1, c2, *now),
                        ok,
                        "{name}: serial replay diverged on resync at {now}"
                    );
                }
            }
        }
        assert_eq!(
            serial.store().get(name),
            server.store().get(name),
            "{name}: final record differs between concurrent run and serial replay"
        );
    }
    // Gauges agree with a census of the final state on both servers.
    assert_eq!(
        server.store().gauge_counts(T0 + 1_000),
        serial.store().gauge_counts(T0 + 1_000)
    );
}
