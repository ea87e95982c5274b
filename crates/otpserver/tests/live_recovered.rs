//! The live server's state against the state a recovery rebuilds from its
//! WAL and snapshots: every change the server made under its shard lock
//! was applied through the same function recovery replays it through, so
//! the two must agree, whatever the operations, the clock skew, the
//! compactions, the reads and the failed syncs in between.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::durability::wal::{decode_stream, WalRecord};
use hpcmfa_otpserver::durability::{MemoryBackend, StorageBackend, StorageFaultPlan};
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig, SmsTrigger};
use hpcmfa_otpserver::sms::{PhoneNumber, TwilioSim};
use hpcmfa_otpserver::store::{TokenPairing, UserTokenStatus};
use hpcmfa_otpserver::{OverloadConfig, ValidationOutcome, SMS_CODE_VALIDITY_SECS};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

const USERS: [&str; 3] = ["alice", "bob", "carol"];

/// One operation of a script: what to do, to which user, how many seconds
/// after the last, and how far the user's device is off the clock.
#[derive(Debug, Clone)]
struct Step {
    what: u8,
    user: usize,
    dt: u64,
    skew: i64,
}

/// Scripts of operations `0..ops`: 15 run on a healthy backend, and the
/// two after them while every sync fails.
fn steps(ops: u8) -> impl Strategy<Value = Vec<Step>> {
    let skews = [0i64, -30, 30, -300, 330, 3_600, -7_200];
    let step = (
        0u8..ops,
        0usize..USERS.len(),
        0u64..200,
        0usize..skews.len(),
    )
        .prop_map(move |(what, user, dt, skew)| Step {
            what,
            user,
            dt,
            skew: skews[skew],
        });
    prop::collection::vec(step, 1..80)
}

/// A durable server on `backend`, compacting every few records.
fn durable(seed: u64, backend: Arc<dyn StorageBackend>) -> Arc<LinotpServer> {
    let config = ServerConfig {
        snapshot_every_appends: 8,
        overload: Some(OverloadConfig {
            bucket_burst: 2,
            ..OverloadConfig::default()
        }),
        ..ServerConfig::default()
    };
    LinotpServer::with_storage(TwilioSim::new(seed), seed, config, backend).unwrap()
}

/// Play `script` on `srv`, whose backend runs on `plan` if the script
/// fails syncs. Returns the time it ends at.
fn play(srv: &LinotpServer, script: &[Step], seed: u64, plan: Option<&StorageFaultPlan>) -> u64 {
    let failing = |op: &dyn Fn()| {
        let plan = plan.expect("a script that fails syncs runs on a fault plan");
        plan.set_fsync_fail_every(1);
        op();
        plan.set_fsync_fail_every(0);
    };
    let phone = PhoneNumber::parse("5125551234").unwrap();
    let mut now = 1_475_000_000u64;
    let mut devices: [Option<Totp>; 3] = [None, None, None];
    let mut last = vec![String::new(); USERS.len()];
    for s in script {
        now += s.dt;
        let (user, device) = (USERS[s.user], &mut devices[s.user]);
        let shown = |at: u64| device.as_ref().map(|d| d.code_at(at)).unwrap_or_default();
        let at = now.saturating_add_signed(s.skew);
        match s.what {
            0 => *device = Some(Totp::new(srv.enroll_soft(user, now))),
            1 => {
                let secret = Secret::from_bytes(seed.to_be_bytes().repeat(3));
                srv.enroll_hard(user, "TACC-0001", secret.clone(), now);
                *device = Some(Totp::new(secret));
            }
            2 => {
                srv.enroll_sms(user, phone.clone(), now);
                *device = None;
            }
            3 => {
                last[s.user] = srv.enroll_static(user, now);
                *device = None;
            }
            4 | 5 => {
                if device.is_some() {
                    last[s.user] = shown(at);
                }
                srv.validate(user, &last[s.user], now);
            }
            6 => {
                srv.validate(user, "000000", now);
            }
            7 => {
                if let SmsTrigger::Sent(message) = srv.trigger_sms(user, now) {
                    last[s.user] = message.body.rsplit(' ').next().unwrap().to_string();
                }
            }
            8 => {
                srv.reset_failcount(user, now);
            }
            9 => {
                srv.resync(user, &shown(at), &shown(at + 30), now);
            }
            10 => {
                srv.remove_pairing(user, now);
            }
            11 | 12 => {
                let source = Some(Ipv4Addr::new(203, 0, 113, s.user as u8));
                srv.validate_guarded(user, &shown(at), now, None, source);
            }
            13 => {
                srv.status(user, now);
            }
            14 => {
                srv.store().gauge_counts(now);
            }
            15 => failing(&|| {
                srv.trigger_sms(user, now);
            }),
            _ => failing(&|| {
                srv.validate(user, &shown(at), now);
            }),
        }
    }
    now
}

/// Every user's status and the gauge census at `now`.
fn reads(srv: &LinotpServer, now: u64) -> ([Option<UserTokenStatus>; 3], (u64, u64)) {
    (
        USERS.map(|u| srv.status(u, now)),
        srv.store().gauge_counts(now),
    )
}

proptest! {
    /// Random scripts — enrol (any kind), validate a right, wrong or
    /// replayed code, trigger an SMS and validate what was texted, reset,
    /// resync, remove, requests admission control sheds, and the staff
    /// reads (`status`, the gauge census) at any time, an SMS code's expiry
    /// included — on a durable server compacting every few records:
    /// reloading from its storage leaves the store and the audit ring
    /// exactly as they were, and every read answers as it did.
    #[test]
    fn live_state_equals_recovered_state(script in steps(15), seed in 0u64..1_000) {
        let backend: std::sync::Arc<dyn StorageBackend> = MemoryBackend::healthy();
        let srv = durable(seed, backend);
        let now = play(&srv, &script, seed, None);
        let (store, ring, read) = (srv.store().export_all(), srv.audit().export_all(), reads(&srv, now));
        srv.reload_from_storage().unwrap();
        prop_assert_eq!(srv.store().export_all(), store);
        prop_assert_eq!(srv.audit().export_all(), ring);
        prop_assert_eq!(reads(&srv, now), read);
    }

    /// The same scripts with two more operations: an SMS trigger, and a
    /// validation of the shown code, while every sync fails. The grant is
    /// denied, and what the store holds stays or is taken back by a logged
    /// change; the failed commit's bytes stay buffered, and the next good
    /// sync (at the latest, one more enrolment's before the reload) makes
    /// them durable. The store and every read must still agree with what
    /// a reload rebuilds. The audit ring is not compared: a reload holds
    /// the failed commit's rows as well as those written for its caller.
    #[test]
    fn live_state_equals_recovered_state_across_failed_syncs(script in steps(17), seed in 0u64..1_000) {
        let plan = StorageFaultPlan::seeded(seed);
        let backend: Arc<dyn StorageBackend> = MemoryBackend::with_plan(Arc::clone(&plan));
        let srv = durable(seed, backend);
        let now = play(&srv, &script, seed, Some(&plan));
        // A good sync, for whatever a failed one left buffered.
        srv.enroll_static("flush", now);
        let (store, read) = (srv.store().export_all(), reads(&srv, now));
        srv.reload_from_storage().unwrap();
        prop_assert_eq!(srv.store().export_all(), store);
        prop_assert_eq!(reads(&srv, now), read);
    }
}

/// An SMS code that expired before a compaction rides in the snapshot,
/// inert: the recovered server still holds it, a validation of it answers
/// `WrongCode` and clears it with a logged `SmsClear`, and the next
/// trigger sends a fresh code.
#[test]
fn an_expired_sms_code_in_a_snapshot_is_inert_after_recovery() {
    let backend = MemoryBackend::healthy();
    let config = ServerConfig {
        snapshot_every_appends: 4,
        ..ServerConfig::default()
    };
    let storage = Arc::clone(&backend) as Arc<dyn StorageBackend>;
    let srv = LinotpServer::with_storage(TwilioSim::new(3), 3, config, storage).unwrap();
    let sent = 1_475_000_000u64;
    // A large snapshot, so the few records after recovery do not earn a
    // compaction that would retire the WAL this test reads.
    for i in 0..200 {
        srv.enroll_static(&format!("trainee{i:03}"), sent);
    }
    srv.enroll_sms("bob", PhoneNumber::parse("5125551234").unwrap(), sent);
    let SmsTrigger::Sent(message) = srv.trigger_sms("bob", sent) else {
        panic!("first trigger sends");
    };
    let code = message.body.rsplit(' ').next().unwrap().to_string();

    // Past the code's expiry, commit until a compaction runs.
    let expired = sent + SMS_CODE_VALIDITY_SECS;
    let snapshots = srv.durability_counters().unwrap().snapshots;
    let mut filler = 0;
    while srv.durability_counters().unwrap().snapshots == snapshots {
        srv.enroll_static(&format!("late{filler:03}"), expired);
        filler += 1;
        assert!(filler < 200, "no compaction after the expiry");
    }
    assert!(decode_stream(&backend.read_wal().unwrap()).0.is_empty());
    srv.crash_and_recover().unwrap();
    let held = |srv: &LinotpServer| match srv.store().get("bob").unwrap().pairing {
        TokenPairing::Sms { pending, .. } => pending,
        _ => panic!("bob is an SMS user"),
    };
    let pending = held(&srv).expect("the expired code rode in the snapshot");
    assert_eq!(pending.expires_at, expired);
    assert!(!srv.status("bob", expired).unwrap().sms_pending);

    let snapshots = srv.durability_counters().unwrap().snapshots;
    assert_eq!(
        srv.validate("bob", &code, expired + 1),
        ValidationOutcome::WrongCode
    );
    assert_eq!(srv.durability_counters().unwrap().snapshots, snapshots);
    let (wal, _) = decode_stream(&backend.read_wal().unwrap());
    assert!(wal.contains(&WalRecord::SmsClear { user: "bob".into() }));
    assert_eq!(held(&srv), None);
    assert!(matches!(
        srv.trigger_sms("bob", expired + 2),
        SmsTrigger::Sent(_)
    ));
}
