//! Equivalence properties for the sharded token store: under arbitrary
//! operation sequences the sharded store must behave exactly like a plain
//! single `BTreeMap` reference model — same record state, same status
//! output, and the same gauge readings as the model's census. Reads
//! (`status`, `gauge_counts`) leave the model untouched: the store must
//! not change under them either.

use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::Totp;
use hpcmfa_otpserver::audit::{AuditAction, AuditLog};
use hpcmfa_otpserver::durability::snapshot::{encode_snapshot, snapshot_live};
use hpcmfa_otpserver::sms::PhoneNumber;
use hpcmfa_otpserver::store::{
    shard_of_name, PendingSmsCode, TokenPairing, TokenStore, TotpProvenance, SHARD_COUNT,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A store record the model and the sharded store both apply.
#[derive(Debug, Clone)]
enum Op {
    EnrollTotp {
        user: String,
        hard: bool,
    },
    EnrollSms {
        user: String,
        pending: Option<(u64, u64)>,
    },
    Remove {
        user: String,
    },
    SetActive {
        user: String,
        active: bool,
    },
    BumpFail {
        user: String,
    },
    SetPending {
        user: String,
        pending: Option<(u64, u64)>,
    },
    Status {
        user: String,
        now: u64,
    },
    Gauges {
        now: u64,
    },
}

fn mk_totp(hard: bool) -> TokenPairing {
    TokenPairing::Totp {
        totp: Totp::new(Secret::from_bytes(*b"12345678901234567890")),
        provenance: if hard {
            TotpProvenance::Hard
        } else {
            TotpProvenance::Soft
        },
        serial: hard.then(|| "TACC-0001".to_string()),
        last_step: None,
        drift_steps: 0,
    }
}

fn mk_sms(pending: Option<(u64, u64)>) -> TokenPairing {
    TokenPairing::Sms {
        phone: PhoneNumber::parse("5125551234").unwrap(),
        pending: pending.map(|(sent_at, expires_at)| PendingSmsCode {
            code: "123456".into(),
            sent_at,
            expires_at,
        }),
    }
}

/// Reference model: the old single-map store semantics, written as plainly
/// as possible.
#[derive(Default)]
struct Model {
    users: BTreeMap<String, hpcmfa_otpserver::store::UserTokenRecord>,
}

impl Model {
    /// Census over the one map.
    fn gauges(&self, now: u64) -> (u64, u64) {
        let locked = self.users.values().filter(|r| !r.active).count() as u64;
        let pending = self
            .users
            .values()
            .filter(|r| {
                matches!(
                    &r.pairing,
                    TokenPairing::Sms { pending: Some(p), .. } if p.active(now)
                )
            })
            .count() as u64;
        (locked, pending)
    }
}

fn arb_user() -> BoxedStrategy<String> {
    // A small closed set of names so operations actually collide on users.
    prop_oneof![
        "[a-f]",
        "user[0-9]",
        Just("zoe".to_string()),
        Just("".to_string()),
    ]
    .boxed()
}

fn arb_pending() -> BoxedStrategy<Option<(u64, u64)>> {
    prop_oneof![
        Just(None),
        (0u64..500, 1u64..1_000).prop_map(|(s, e)| Some((s, s + e))),
    ]
    .boxed()
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        (arb_user(), any::<bool>()).prop_map(|(user, hard)| Op::EnrollTotp { user, hard }),
        (arb_user(), arb_pending()).prop_map(|(user, pending)| Op::EnrollSms { user, pending }),
        arb_user().prop_map(|user| Op::Remove { user }),
        (arb_user(), any::<bool>()).prop_map(|(user, active)| Op::SetActive { user, active }),
        arb_user().prop_map(|user| Op::BumpFail { user }),
        (arb_user(), arb_pending()).prop_map(|(user, pending)| Op::SetPending { user, pending }),
        (arb_user(), 0u64..2_000).prop_map(|(user, now)| Op::Status { user, now }),
        (0u64..2_000).prop_map(|now| Op::Gauges { now }),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn sharded_store_equals_reference_model(ops in prop::collection::vec(arb_op(), 0..60)) {
        let store = TokenStore::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::EnrollTotp { user, hard } => {
                    store.enroll(&user, mk_totp(hard));
                    model.users.insert(
                        user,
                        hpcmfa_otpserver::store::UserTokenRecord {
                            pairing: mk_totp(hard),
                            fail_count: 0,
                            active: true,
                        },
                    );
                }
                Op::EnrollSms { user, pending } => {
                    store.enroll(&user, mk_sms(pending));
                    model.users.insert(
                        user,
                        hpcmfa_otpserver::store::UserTokenRecord {
                            pairing: mk_sms(pending),
                            fail_count: 0,
                            active: true,
                        },
                    );
                }
                Op::Remove { user } => {
                    prop_assert_eq!(store.remove(&user), model.users.remove(&user).is_some());
                }
                Op::SetActive { user, active } => {
                    let got = store.with_record(&user, |r| r.active = active);
                    let want = model.users.get_mut(&user).map(|r| r.active = active);
                    prop_assert_eq!(got.is_some(), want.is_some());
                }
                Op::BumpFail { user } => {
                    let got = store.with_record(&user, |r| {
                        r.fail_count += 1;
                        r.fail_count
                    });
                    let want = model.users.get_mut(&user).map(|r| {
                        r.fail_count += 1;
                        r.fail_count
                    });
                    prop_assert_eq!(got, want);
                }
                Op::SetPending { user, pending } => {
                    let set = |r: &mut hpcmfa_otpserver::store::UserTokenRecord| {
                        if let TokenPairing::Sms { pending: p, .. } = &mut r.pairing {
                            *p = pending.map(|(sent_at, expires_at)| PendingSmsCode {
                                code: "123456".into(),
                                sent_at,
                                expires_at,
                            });
                            true
                        } else {
                            false
                        }
                    };
                    let got = store.with_record(&user, set);
                    let want = model.users.get_mut(&user).map(set);
                    prop_assert_eq!(got, want);
                }
                Op::Status { user, now } => {
                    let got = store.status(&user, now);
                    let want = model.users.get(&user).map(|r| {
                        hpcmfa_otpserver::store::UserTokenStatus {
                            kind: r.pairing.kind_label().to_string(),
                            fail_count: r.fail_count,
                            active: r.active,
                            serial: match &r.pairing {
                                TokenPairing::Totp { serial, .. } => serial.clone(),
                                _ => None,
                            },
                            sms_pending: matches!(
                                &r.pairing,
                                TokenPairing::Sms { pending: Some(p), .. } if p.active(now)
                            ),
                        }
                    });
                    prop_assert_eq!(got, want);
                }
                Op::Gauges { now } => {
                    prop_assert_eq!(store.gauge_counts(now), model.gauges(now));
                }
            }
            // Full-state equivalence after every step, not just at the end:
            // export merges shards in sorted order, so it must equal the
            // reference map exactly.
            prop_assert_eq!(store.export_all(), model.users.clone());
            prop_assert_eq!(store.len(), model.users.len());
        }
        // Final gauge read agrees with a from-scratch census.
        prop_assert_eq!(store.gauge_counts(1_000), model.gauges(1_000));
        // The borrowed visit sees what the cloned export holds, shard by
        // shard: the model's users grouped by `shard_of_name`, then by name.
        let mut visited = Vec::new();
        store.for_each_by_shard(|name, rec| visited.push((name.to_string(), rec.clone())));
        let mut want: Vec<_> = model.users.into_iter().collect();
        want.sort_by(|(a, _), (b, _)| (shard_of_name(a), a).cmp(&(shard_of_name(b), b)));
        prop_assert_eq!(visited, want);
    }

    /// A compaction encodes straight from the live records; its bytes are
    /// those of the cloned exports, whatever pairings the store holds and
    /// however far the audit ring has wrapped.
    #[test]
    fn snapshot_live_equals_the_encoded_exports(
        ops in prop::collection::vec(arb_op(), 0..40),
        audit_rows in 0usize..8,
        nonces in prop::collection::btree_map(any::<[u8; 16]>(), any::<u64>(), 0..3),
    ) {
        let store = TokenStore::new();
        for op in ops {
            match op {
                Op::EnrollTotp { user, hard } => store.enroll(&user, mk_totp(hard)),
                Op::EnrollSms { user, pending } => store.enroll(&user, mk_sms(pending)),
                Op::SetActive { user, active } => {
                    store.with_record(&user, |r| r.active = active);
                }
                Op::BumpFail { user } => {
                    store.with_record(&user, |r| r.fail_count += 1);
                }
                _ => {}
            }
        }
        store.enroll("trainee", TokenPairing::Static { code: "000000".into() });
        let audit = AuditLog::with_cap(5);
        for i in 0..audit_rows {
            audit.record(i as u64, "user", AuditAction::Validate, i % 2 == 0, "detail");
        }
        prop_assert_eq!(
            snapshot_live(&store, &audit, &nonces),
            encode_snapshot(&store.export_all(), &audit.export_all(), audit.dropped(), &nonces)
        );
    }

    #[test]
    fn export_load_round_trip_preserves_state_and_gauges(ops in prop::collection::vec(arb_op(), 0..40)) {
        let store = TokenStore::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::EnrollTotp { user, hard } => {
                    store.enroll(&user, mk_totp(hard));
                    model.users.insert(user, hpcmfa_otpserver::store::UserTokenRecord {
                        pairing: mk_totp(hard), fail_count: 0, active: true,
                    });
                }
                Op::EnrollSms { user, pending } => {
                    store.enroll(&user, mk_sms(pending));
                    model.users.insert(user, hpcmfa_otpserver::store::UserTokenRecord {
                        pairing: mk_sms(pending), fail_count: 0, active: true,
                    });
                }
                Op::SetActive { user, active } => {
                    store.with_record(&user, |r| r.active = active);
                    if let Some(r) = model.users.get_mut(&user) { r.active = active; }
                }
                _ => {}
            }
        }
        // Crash-recovery shape: export, wipe, reload. State and gauges must
        // both survive (the gauges are a census of what was loaded).
        let image = store.export_all();
        let gauges_before = store.gauge_counts(0);
        store.clear();
        prop_assert_eq!(store.gauge_counts(0), (0, 0));
        store.load_all(image.clone());
        prop_assert_eq!(store.export_all(), image);
        prop_assert_eq!(store.gauge_counts(0), gauges_before);
        prop_assert_eq!(store.gauge_counts(0), model.gauges(0));
    }

    #[test]
    fn shard_partition_is_total_and_stable(users in prop::collection::vec("[a-z0-9._-]{0,16}", 0..50)) {
        for u in &users {
            let s = shard_of_name(u);
            prop_assert!(s < SHARD_COUNT);
            prop_assert_eq!(s, shard_of_name(u));
        }
    }
}
