//! The live server's state against the state a recovery rebuilds from its
//! WAL and snapshots: every change the server made under its shard lock
//! was applied through the same function recovery replays it through, so
//! the two must agree, whatever the operations, the clock skew and the
//! compactions in between.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::durability::{MemoryBackend, StorageBackend};
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig, SmsTrigger};
use hpcmfa_otpserver::sms::{PhoneNumber, TwilioSim};
use hpcmfa_otpserver::OverloadConfig;
use proptest::prelude::*;
use std::net::Ipv4Addr;

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

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let skews = [0i64, -30, 30, -300, 330, 3_600, -7_200];
    let step = (0u8..13, 0usize..USERS.len(), 0u64..200, 0usize..skews.len()).prop_map(
        move |(what, user, dt, skew)| Step {
            what,
            user,
            dt,
            skew: skews[skew],
        },
    );
    prop::collection::vec(step, 1..80)
}

proptest! {
    /// Random scripts — enrol (any kind), validate a right, wrong or
    /// replayed code, trigger an SMS and validate what was texted, reset,
    /// resync, remove, and requests admission control sheds — on a
    /// durable server compacting every few records: reloading from its
    /// storage leaves the store and the audit ring exactly as they were.
    #[test]
    fn live_state_equals_recovered_state(script in steps(), seed in 0u64..1_000) {
        let backend: std::sync::Arc<dyn StorageBackend> = MemoryBackend::healthy();
        let config = ServerConfig {
            snapshot_every_appends: 8,
            overload: Some(OverloadConfig {
                bucket_burst: 2,
                ..OverloadConfig::default()
            }),
            ..ServerConfig::default()
        };
        let srv = LinotpServer::with_storage(TwilioSim::new(seed), seed, config, backend).unwrap();
        let phone = PhoneNumber::parse("5125551234").unwrap();
        let mut now = 1_475_000_000u64;
        let mut devices: [Option<Totp>; 3] = [None, None, None];
        let mut last = vec![String::new(); USERS.len()];
        for s in &script {
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
                _ => {
                    let source = Some(Ipv4Addr::new(203, 0, 113, s.user as u8));
                    srv.validate_guarded(user, &shown(at), now, None, source);
                }
            }
        }
        let (store, ring) = (srv.store().export_all(), srv.audit().export_all());
        srv.reload_from_storage().unwrap();
        prop_assert_eq!(srv.store().export_all(), store);
        prop_assert_eq!(srv.audit().export_all(), ring);
    }
}
