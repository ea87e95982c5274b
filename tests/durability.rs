//! The durability acceptance scenario (§3.2's LinOTP database, made
//! crash-safe): a seeded login stream interrupted by N OTP-server
//! crash/recover cycles must complete exactly like the crash-free run,
//! with **zero replay acceptances** and **zero lockout resets** — the two
//! security invariants a lossy restart would break.
//!
//! Two configurations are on trial:
//!
//! 1. A healthy backend — every acknowledged mutation survives the crash,
//!    so the interrupted stream grants the same logins as the control.
//! 2. A backend with failing fsyncs — some appends never become durable,
//!    leaving torn WAL tails at crash time. The server already refused to
//!    acknowledge those operations (fail-safe deny), so recovery still
//!    never resurrects an accepted code or unlocks a locked account.

use securing_hpc::core::center::{Center, CenterConfig, OtpStorage};
use securing_hpc::core::Clock as _;
use securing_hpc::otpserver::{MemoryBackend, StorageBackend, ValidationOutcome};
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use std::net::Ipv4Addr;
use std::sync::Arc;

const OUTSIDE: Ipv4Addr = Ipv4Addr::new(70, 112, 33, 44);
const USERS: usize = 4;
const LOGINS: usize = 48;

#[derive(Debug, Default)]
struct StreamResult {
    granted: usize,
    crashes: usize,
    replay_acceptances: usize,
    lockout_resets: usize,
}

/// Drive a seeded login stream against a durable center, crashing the OTP
/// server every `crash_every` logins (`None` = the crash-free control).
/// After every crash the immediately-preceding accepted code is replayed
/// and the locked sentinel account is probed. `fsync_fail_every` dials in
/// fsync faults once setup is done (0 = a healthy backend throughout).
fn run_stream(
    backend: Arc<MemoryBackend>,
    crash_every: Option<usize>,
    fsync_fail_every: u64,
) -> StreamResult {
    let c = Center::new(CenterConfig {
        otp_storage: OtpStorage::Durable {
            backend: Arc::clone(&backend) as Arc<dyn StorageBackend>,
            snapshot_every: 16,
        },
        seed: 0xd00d,
        ..CenterConfig::default()
    });
    c.set_enforcement(EnforcementMode::Full);

    let mut devices = Vec::new();
    for i in 0..USERS {
        let name = format!("user{i:02}");
        c.create_user(&name, &format!("{name}@utexas.edu"), &format!("{name}-pw"));
        let device = c.pair_soft(&name);
        devices.push((name, device));
    }

    // Sentinel 1: an account the lockout policy deactivated. A crash must
    // never bring it back.
    c.create_user("locked", "locked@utexas.edu", "locked-pw");
    c.pair_soft("locked");
    for _ in 0..securing_hpc::otpserver::LOCKOUT_THRESHOLD {
        c.clock.advance(3);
        c.linotp.validate("locked", "000000", c.clock.now());
    }
    assert!(!c.linotp.status("locked", c.clock.now()).unwrap().active);

    // Sentinel 2: a locked account staff explicitly cleared. A crash must
    // never re-lock it (the reset was acknowledged, so it is durable).
    c.create_user("cleared", "cleared@utexas.edu", "cleared-pw");
    c.pair_soft("cleared");
    for _ in 0..securing_hpc::otpserver::LOCKOUT_THRESHOLD {
        c.clock.advance(3);
        c.linotp.validate("cleared", "000000", c.clock.now());
    }
    c.linotp.reset_failcount("cleared", c.clock.now());
    assert!(c.linotp.status("cleared", c.clock.now()).unwrap().active);

    if fsync_fail_every > 0 {
        backend.plan().set_fsync_fail_every(fsync_fail_every);
    }

    let mut res = StreamResult::default();
    let mut last_accept: Option<(String, String)> = None;
    for login in 0..LOGINS {
        c.clock.advance(30);
        let (name, device) = &devices[login % USERS];
        let code = device.displayed_code(c.clock.now());
        let profile = ClientProfile::interactive_user(name, OUTSIDE, &format!("{name}-pw"))
            .with_token(TokenSource::Fixed(code.clone()));
        if c.ssh(0, &profile).granted {
            res.granted += 1;
            last_accept = Some((name.clone(), code));
        }
        let crash_now = crash_every.is_some_and(|every| (login + 1) % every == 0);
        if crash_now {
            c.crash_otp_server()
                .expect("OTP server recovers from durable state");
            res.crashes += 1;
            // The code accepted just before the crash must still be
            // nullified on the recovered server (its TOTP step is still
            // inside the validation window at this point).
            if let Some((user, code)) = &last_accept {
                if c.linotp.validate(user, code, c.clock.now()) == ValidationOutcome::Success {
                    res.replay_acceptances += 1;
                }
            }
            if c.linotp.status("locked", c.clock.now()).unwrap().active {
                res.lockout_resets += 1;
            }
            assert!(
                c.linotp.status("cleared", c.clock.now()).unwrap().active,
                "an acknowledged staff reset was lost by crash #{}",
                res.crashes
            );
        }
    }
    res
}

#[test]
fn crash_interrupted_stream_matches_crash_free_run() {
    let control = run_stream(MemoryBackend::healthy(), None, 0);
    let crashed = run_stream(MemoryBackend::healthy(), Some(8), 0);

    assert_eq!(crashed.crashes, LOGINS / 8);
    assert_eq!(control.crashes, 0);

    // The invariants under trial: nothing a crash did re-accepted a spent
    // code or reactivated a locked account.
    assert_eq!(crashed.replay_acceptances, 0, "{crashed:?}");
    assert_eq!(crashed.lockout_resets, 0, "{crashed:?}");

    // And the interrupted stream completed exactly like the control:
    // every acknowledged mutation survived, so no login was lost.
    assert_eq!(control.granted, LOGINS, "{control:?}");
    assert_eq!(
        crashed.granted, control.granted,
        "{crashed:?} vs {control:?}"
    );
}

#[test]
fn torn_tail_crashes_never_weaken_the_invariants() {
    // Fail every third fsync: acknowledged operations are still synced
    // (the server denies when they are not), but the WAL accumulates
    // un-synced bytes that each crash tears mid-record.
    let crashed = run_stream(MemoryBackend::healthy(), Some(6), 3);

    assert_eq!(crashed.crashes, LOGINS / 6);
    assert_eq!(crashed.replay_acceptances, 0, "{crashed:?}");
    assert_eq!(crashed.lockout_resets, 0, "{crashed:?}");
    // Fail-safe denials may cost logins, but recovery never panics and
    // the stream keeps flowing between crashes.
    assert!(crashed.granted > 0, "{crashed:?}");
}
