//! The durable formats, pinned from outside the codec.
//!
//! A round-trip property cannot see a format change that the encoder and
//! the decoder make together; the known answers here can. Every WAL record
//! kind, every pairing shape, every audit action and every replication
//! envelope is held to the exact bytes of one frame.
//!
//! The snapshot tests characterise what recovery accepts: a CRC-valid
//! snapshot is still refused wholesale unless its body holds only user,
//! audit and resume records, ends in exactly one seal, and the seal's
//! counts match the body.
//!
//! The audit ring keeps rows as their frames and decodes them on every
//! read, so the hostile-ring tests hold recovery to the line it draws: a
//! CRC-valid audit frame whose payload does not parse never gets into the
//! ring, from a snapshot or from the WAL.

use hpcmfa_crypto::hex::to_hex;
use hpcmfa_crypto::HashAlg;
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::{Totp, TotpParams};
use hpcmfa_otpserver::audit::AuditAction;
use hpcmfa_otpserver::durability::snapshot::snapshot_live;
use hpcmfa_otpserver::durability::wal::{crc32, WalRecord};
use hpcmfa_otpserver::durability::RecoveredState;
use hpcmfa_otpserver::server::ServerConfig;
use hpcmfa_otpserver::sms::PhoneNumber;
use hpcmfa_otpserver::store::{PendingSmsCode, TokenPairing, TotpProvenance};
use hpcmfa_otpserver::{
    recover, LinotpServer, MemoryBackend, RecoverError, ReplEnvelope, ReplFrame, StorageBackend,
    TwilioSim, ValidationOutcome,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const ACTIONS: [AuditAction; 8] = [
    AuditAction::Validate,
    AuditAction::SmsTriggered,
    AuditAction::SmsSuppressed,
    AuditAction::Enroll,
    AuditAction::Remove,
    AuditAction::Resync,
    AuditAction::ResetFailCount,
    AuditAction::Lockout,
];

fn totp(digits: u32, hard: bool) -> TokenPairing {
    let (secret, step_secs, t0, alg) = if hard {
        (
            &b"abcdefghijABCDEFGHIJ0123456789ab"[..],
            60,
            7,
            HashAlg::Sha256,
        )
    } else {
        (&b"12345678901234567890"[..], 30, 0, HashAlg::Sha1)
    };
    let params = TotpParams {
        digits,
        step_secs,
        t0,
        alg,
    };
    TokenPairing::Totp {
        totp: Totp::with_params(Secret::from_bytes(secret), params),
        provenance: if hard {
            TotpProvenance::Hard
        } else {
            TotpProvenance::Soft
        },
        serial: hard.then(|| "FT-0042".to_string()),
        last_step: hard.then_some(49_166_666),
        drift_steps: if hard { -3 } else { 0 },
    }
}

fn sms(pending: bool) -> TokenPairing {
    let phone = if pending {
        "5125551234"
    } else {
        "+441632960961"
    };
    TokenPairing::Sms {
        phone: PhoneNumber::parse(phone).unwrap(),
        pending: pending.then(|| PendingSmsCode {
            code: "111111".into(),
            sent_at: 5,
            expires_at: 305,
        }),
    }
}

fn fixed() -> TokenPairing {
    TokenPairing::Static {
        code: "24681357".into(),
    }
}

fn audit(i: usize, action: AuditAction) -> WalRecord {
    WalRecord::Audit {
        at: 1_700_000_000 + i as u64,
        user: "alice".into(),
        action,
        success: i.is_multiple_of(2),
        detail: format!("trace={i:016x}"),
    }
}

fn user(name: &str, pairing: TokenPairing) -> WalRecord {
    WalRecord::SnapshotUser {
        user: name.into(),
        pairing,
        fail_count: 3,
        active: true,
    }
}

/// One record of every kind, each pairing shape, each audit action.
fn records() -> Vec<WalRecord> {
    let mut records = vec![
        WalRecord::Enroll {
            user: "alice".into(),
            pairing: totp(6, false),
        },
        WalRecord::Enroll {
            user: "bob".into(),
            pairing: totp(8, true),
        },
        WalRecord::Enroll {
            user: "carol".into(),
            pairing: sms(true),
        },
        WalRecord::Enroll {
            user: "dave".into(),
            pairing: sms(false),
        },
        WalRecord::Enroll {
            user: "erin".into(),
            pairing: fixed(),
        },
        WalRecord::Remove {
            user: "frank".into(),
        },
        WalRecord::ValState {
            user: "alice".into(),
            last_step: Some(49_166_667),
            fail_count: 0,
            active: true,
        },
        WalRecord::ValState {
            user: "bob".into(),
            last_step: None,
            fail_count: 20,
            active: false,
        },
        WalRecord::Resync {
            user: "bob".into(),
            drift_steps: -240,
            last_step: 10,
        },
        WalRecord::SmsIssue {
            user: "carol".into(),
            code: "123456".into(),
            sent_at: 100,
            expires_at: 400,
        },
        WalRecord::SmsClear {
            user: "carol".into(),
        },
        WalRecord::ResumeConsume {
            user: "alice".into(),
            nonce: [7; 16],
            expires_at: 1_700_000_630,
        },
        user("bob", totp(8, true)),
        WalRecord::SnapshotSeal {
            users: 1,
            audits: 8,
            audit_dropped: 2,
            resumes: 1,
        },
    ];
    records.extend(ACTIONS.iter().enumerate().map(|(i, &a)| audit(i, a)));
    records
}

fn envelopes() -> Vec<ReplEnvelope> {
    let wal = WalRecord::Remove {
        user: "frank".into(),
    }
    .encode_frame();
    [
        ReplFrame::Wal(wal),
        ReplFrame::Snapshot(b"snapshot-blob".to_vec()),
        ReplFrame::Heartbeat,
        ReplFrame::Reset,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, frame)| ReplEnvelope {
        epoch: 3,
        seq: 7 + i as u64,
        frame,
    })
    .collect()
}

const RECORD_HEX: [&str; 22] = [
    "4a0000003fc2aea90105000000616c69636501140000003132333435363738393031323334353637383930060000001e00000000000000000000000000000004000000534841310000000000000000000000",
    "690000005428fd1e0103000000626f6201200000006162636465666768696a4142434445464748494a303132333435363738396162080000003c0000000000000007000000000000000600000053484132353601010700000046542d30303432014a39ee0200000000fdffffffffffffff",
    "34000000e64ca94b01050000006361726f6c020a00000035313235353531323334010600000031313131313105000000000000003101000000000000",
    "1c0000001a84e0c4010400000064617665020d0000002b34343136333239363039363100",
    "16000000740f391601040000006572696e03080000003234363831333537",
    "0a0000001048a71202050000006672616e6b",
    "180000005e39b51c0305000000616c696365014b39ee02000000000000000001",
    "0e000000694707e20303000000626f62001400000000",
    "18000000c5cc8ff80403000000626f6210ffffffffffffff0a00000000000000",
    "2400000075ee3b8405050000006361726f6c0600000031323334353664000000000000009001000000000000",
    "0a000000a0261f0806050000006361726f6c",
    "22000000c83389b70a05000000616c6963650707070707070707070707070707070776f3536500000000",
    "6e00000000bd233b0803000000626f6201200000006162636465666768696a4142434445464748494a303132333435363738396162080000003c0000000000000007000000000000000600000053484132353601010700000046542d30303432014a39ee0200000000fdffffffffffffff0300000001",
    "210000004e37b648090100000000000000080000000000000002000000000000000100000000000000",
    "2e0000008db3a5470700f153650000000005000000616c69636500011600000074726163653d30303030303030303030303030303030",
    "2e0000000b4d0dfc0701f153650000000005000000616c69636501001600000074726163653d30303030303030303030303030303031",
    "2e000000427e9d360702f153650000000005000000616c69636502011600000074726163653d30303030303030303030303030303032",
    "2e000000c480358d0703f153650000000005000000616c69636503001600000074726163653d30303030303030303030303030303033",
    "2e0000001328d4a50704f153650000000005000000616c69636504011600000074726163653d30303030303030303030303030303034",
    "2e00000095d67c1e0705f153650000000005000000616c69636505001600000074726163653d30303030303030303030303030303035",
    "2e000000dce5ecd40706f153650000000005000000616c69636506011600000074726163653d30303030303030303030303030303036",
    "2e0000005a1b446f0707f153650000000005000000616c69636507001600000074726163653d30303030303030303030303030303037",
];

const ENVELOPE_HEX: [&str; 4] = [
    "230000002e147c1f03000000000000000700000000000000010a0000001048a71202050000006672616e6b",
    "1e0000009c3cc1320300000000000000080000000000000002736e617073686f742d626c6f62",
    "11000000d84ddfaf0300000000000000090000000000000003",
    "11000000bee4360803000000000000000a0000000000000004",
];

/// Compare `got` against the pinned hex, listing every frame that moved.
fn pinned(what: &str, got: Vec<String>, want: &[&str]) {
    assert_eq!(got.len(), want.len(), "{what}: one pinned frame each");
    let moved: Vec<String> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (g, w))| g != *w)
        .map(|(i, (g, _))| format!("{what} {i} now encodes as\n    \"{g}\","))
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn every_wal_record_kind_has_the_pinned_bytes() {
    let records = records();
    let got = records.iter().map(|r| to_hex(&r.encode_frame())).collect();
    pinned("record", got, &RECORD_HEX);
    for r in &records {
        let frame = r.encode_frame();
        assert_eq!(WalRecord::decode_payload(&frame[8..]).as_ref(), Some(r));
    }
}

#[test]
fn every_replication_envelope_has_the_pinned_bytes() {
    let envelopes = envelopes();
    let got = envelopes.iter().map(|e| to_hex(&e.encode())).collect();
    pinned("envelope", got, &ENVELOPE_HEX);
    for e in &envelopes {
        assert_eq!(ReplEnvelope::decode(&e.encode()).as_ref(), Some(e));
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

fn blob(records: &[WalRecord]) -> Vec<u8> {
    records.iter().flat_map(WalRecord::encode_frame).collect()
}

fn seal(users: u64, audits: u64, audit_dropped: u64, resumes: u64) -> WalRecord {
    WalRecord::SnapshotSeal {
        users,
        audits,
        audit_dropped,
        resumes,
    }
}

fn resume() -> WalRecord {
    WalRecord::ResumeConsume {
        user: String::new(),
        nonce: [9; 16],
        expires_at: 1_700_000_990,
    }
}

/// Two users, one audit row, one consumed nonce: the body a compaction
/// writes, without its seal.
fn body() -> Vec<WalRecord> {
    vec![
        user("alice", totp(6, false)),
        user("bob", sms(true)),
        audit(0, AuditAction::Enroll),
        resume(),
    ]
}

fn load(snapshot: Vec<u8>) -> Result<RecoveredState, RecoverError> {
    let backend = MemoryBackend::with_contents(Vec::new(), Some(snapshot));
    recover(&(backend as Arc<dyn StorageBackend>))
}

fn load_records(records: &[WalRecord]) -> Result<RecoveredState, RecoverError> {
    load(blob(records))
}

#[test]
fn a_sealed_body_loads() {
    let mut records = body();
    records.push(seal(2, 1, 5, 1));
    let state = load_records(&records).unwrap();
    assert_eq!(state.users.len(), 2);
    assert_eq!(state.users["alice"].fail_count, 3);
    assert_eq!(state.audit_entries.len(), 1);
    assert_eq!(state.audit_entries[0].action, AuditAction::Enroll);
    assert_eq!(state.audit_dropped, 5);
    assert_eq!(state.resume_consumed.get(&[9; 16]), Some(&1_700_000_990));
    assert_eq!(state.report.snapshot_users, 2);
    assert_eq!(state.report.snapshot_audits, 1);
    assert_eq!(state.report.skipped_records, 0);
}

#[test]
fn a_duplicated_user_is_corrupt() {
    let mut records = body();
    records.insert(1, user("alice", totp(6, false)));
    records.push(seal(3, 1, 0, 1));
    assert_eq!(
        load_records(&records).unwrap_err(),
        RecoverError::SnapshotCorrupt
    );
}

#[test]
fn a_val_state_in_the_body_is_corrupt() {
    let mut records = body();
    records.insert(
        2,
        WalRecord::ValState {
            user: "alice".into(),
            last_step: Some(5),
            fail_count: 0,
            active: true,
        },
    );
    records.push(seal(2, 1, 0, 1));
    assert_eq!(
        load_records(&records).unwrap_err(),
        RecoverError::SnapshotCorrupt
    );
}

#[test]
fn a_second_seal_mid_body_is_corrupt() {
    let mut records = body();
    records.insert(2, seal(2, 0, 0, 0));
    records.push(seal(2, 1, 0, 1));
    assert_eq!(
        load_records(&records).unwrap_err(),
        RecoverError::SnapshotCorrupt
    );
}

/// The seal's `audit_dropped` is a value the ring carries over, not a
/// count of anything in the body, so only the other three are checked.
#[test]
fn every_seal_count_off_by_one_is_corrupt() {
    let counts = [2u64, 1, 1];
    for which in 0..3 {
        for delta in [-1i64, 1] {
            let mut c = counts;
            c[which] = (c[which] as i64 + delta) as u64;
            let mut records = body();
            records.push(seal(c[0], c[1], 0, c[2]));
            assert_eq!(
                load_records(&records).unwrap_err(),
                RecoverError::SnapshotCorrupt,
                "count {which} off by {delta}"
            );
        }
    }
}

#[test]
fn a_user_whose_pairing_no_longer_validates_is_skipped() {
    let mut records = body();
    records.insert(1, user("mallory", totp(10, false)));
    records.push(seal(3, 1, 0, 1));
    let state = load_records(&records).unwrap();
    assert_eq!(state.report.skipped_records, 1);
    assert_eq!(state.report.snapshot_users, 2);
    assert!(state.users.contains_key("alice") && state.users.contains_key("bob"));
    assert!(!state.users.contains_key("mallory"));
}

/// A CRC-valid enrollment whose clock offset cannot be applied —
/// `drift_steps × step_secs` outside `i64` — recovers, and validating
/// against it is a denial: the offset saturates instead of overflowing
/// (a panic in the shard closure in a debug build, a wrap in release).
#[test]
fn an_unrepresentable_drift_from_disk_denies_without_panicking() {
    for step_secs in [1 << 40, u64::MAX] {
        for drift_steps in [i64::MAX, i64::MIN] {
            let params = TotpParams {
                digits: 6,
                step_secs,
                t0: 0,
                alg: HashAlg::Sha1,
            };
            let pairing = TokenPairing::Totp {
                totp: Totp::with_params(Secret::from_bytes(*b"12345678901234567890"), params),
                provenance: TotpProvenance::Soft,
                serial: None,
                last_step: None,
                drift_steps,
            };
            let wal = blob(&[WalRecord::Enroll {
                user: "mallory".into(),
                pairing,
            }]);
            let server = LinotpServer::with_storage(
                TwilioSim::new(0),
                0,
                ServerConfig::default(),
                MemoryBackend::with_contents(wal, None),
            )
            .unwrap();
            assert_eq!(server.store().len(), 1);
            assert_eq!(
                server.validate("mallory", "000000", 1_700_000_000),
                ValidationOutcome::WrongCode,
                "step_secs {step_secs}, drift_steps {drift_steps}"
            );
        }
    }
}

/// A well-framed stream of `payloads`: each CRC-valid, so decoding gets
/// past the checksum into the payload parser.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(p).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// A real audit row's payload made malformed three ways, each CRC-valid
/// once framed.
fn hostile_audit_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let good = audit(1, AuditAction::Validate).encode_payload();
    // Tag, then the time, then the user's length prefix.
    let user_len_at = 1 + 8;
    let action_at = user_len_at + 4 + "alice".len();
    let cut_length = good[..user_len_at + 2].to_vec();
    let mut bad_action = good.clone();
    bad_action[action_at] = ACTIONS.len() as u8;
    let mut overrun = good.clone();
    overrun[user_len_at..user_len_at + 4].copy_from_slice(&(good.len() as u32).to_le_bytes());
    vec![
        ("a truncated string length", cut_length),
        ("an unknown action tag", bad_action),
        ("a length running past the frame", overrun),
    ]
}

#[test]
fn hostile_audit_frames_in_a_snapshot_are_corrupt() {
    let good = audit(1, AuditAction::Validate).encode_payload();
    for (what, payload) in hostile_audit_payloads() {
        assert_eq!(WalRecord::decode_payload(&payload), None, "{what}");
        let snapshot = |audit_payload: &Vec<u8>| {
            let mut bytes = blob(&body());
            bytes.extend(framed(std::slice::from_ref(audit_payload)));
            bytes.extend(blob(&[seal(2, 2, 0, 1)]));
            bytes
        };
        assert_eq!(load(snapshot(&good)).unwrap().audit_entries.len(), 2);
        assert_eq!(
            load(snapshot(&payload)).unwrap_err(),
            RecoverError::SnapshotCorrupt,
            "{what}"
        );
    }
}

#[test]
fn hostile_audit_frames_at_the_wal_tail_are_truncated_there() {
    let prefix = blob(&[
        WalRecord::Enroll {
            user: "alice".into(),
            pairing: totp(6, false),
        },
        audit(0, AuditAction::Enroll),
    ]);
    for (what, payload) in hostile_audit_payloads() {
        let mut wal = prefix.clone();
        wal.extend(framed(&[payload]));
        wal.extend(blob(&[audit(2, AuditAction::Validate)]));
        let backend = MemoryBackend::with_contents(wal, None);
        let server = LinotpServer::with_storage(
            TwilioSim::new(0),
            0,
            ServerConfig::default(),
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
        )
        .unwrap();
        assert_eq!(backend.durable_wal(), prefix, "{what}");
        let WalRecord::Audit { at, .. } = audit(0, AuditAction::Enroll) else {
            unreachable!()
        };
        let rows = server.audit().export_all();
        assert_eq!(rows.len(), 1, "{what}");
        assert_eq!(rows[0].at, at, "{what}");
    }
}

fn assert_state_or_corrupt(result: Result<RecoveredState, RecoverError>) {
    assert!(
        matches!(result, Ok(_) | Err(RecoverError::SnapshotCorrupt)),
        "{result:?}"
    );
}

proptest! {
    /// Arbitrary bytes as the snapshot blob never panic recovery: they
    /// give a state or `SnapshotCorrupt`.
    #[test]
    fn arbitrary_snapshot_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_state_or_corrupt(load(bytes));
    }

    /// The same for CRC-valid frames around arbitrary payloads, some of
    /// them real records' payloads with one byte changed.
    #[test]
    fn arbitrary_framed_payloads_never_panic(
        payloads in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..48),
                (0..22usize, any::<u64>(), any::<u8>()).prop_map(|(i, at, b)| {
                    let mut p = records()[i].encode_payload();
                    let at = at as usize % p.len();
                    p[at] = b;
                    p
                }),
            ],
            0..6,
        ),
    ) {
        assert_state_or_corrupt(load(framed(&payloads)));
    }

    /// Any strict prefix, and any single flipped bit, of a valid snapshot
    /// is refused wholesale: there is no partial snapshot to fall back on.
    #[test]
    fn a_cut_or_flipped_snapshot_is_corrupt(cut in any::<u64>(), flip in any::<u64>()) {
        let mut records = body();
        records.push(seal(2, 1, 0, 1));
        let whole = blob(&records);
        let cut = cut as usize % whole.len();
        prop_assert_eq!(load(whole[..cut].to_vec()).unwrap_err(), RecoverError::SnapshotCorrupt);
        let bit = flip as usize % (whole.len() * 8);
        let mut flipped = whole;
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(load(flipped).unwrap_err(), RecoverError::SnapshotCorrupt);
    }

    /// Whatever a WAL of CRC-valid frames — real audit rows, hostile ones,
    /// mutated and arbitrary payloads — recovers to, every audit reader
    /// returns without panicking, and the rows come back unchanged through
    /// two compactions, each followed by a recovery.
    #[test]
    fn whatever_recovery_accepts_the_audit_readers_survive(
        payloads in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..48),
                (0..3usize).prop_map(|i| hostile_audit_payloads().swap_remove(i).1),
                (0..8usize, any::<u64>(), any::<u8>()).prop_map(|(i, at, b)| {
                    let mut p = audit(i, ACTIONS[i]).encode_payload();
                    let at = at as usize % p.len();
                    p[at] = b;
                    p
                }),
                (any::<u64>(), "\\PC{0,8}", 0..8usize, any::<bool>(), "\\PC{0,24}").prop_map(
                    |(at, user, i, success, detail)| WalRecord::Audit {
                        at,
                        user,
                        action: ACTIONS[i],
                        success,
                        detail,
                    }
                    .encode_payload()
                ),
            ],
            0..10,
        ),
    ) {
        let backend = MemoryBackend::with_contents(framed(&payloads), None);
        let config = ServerConfig { audit_cap: 4, ..ServerConfig::default() };
        let server = LinotpServer::with_storage(
            TwilioSim::new(0),
            0,
            config,
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
        )
        .unwrap();
        let audit = server.audit();
        let (rows, dropped) = (audit.export_all(), audit.dropped());
        prop_assert_eq!(audit.len(), rows.len());
        for row in &rows {
            prop_assert!(audit.for_user(&row.username).contains(row));
            prop_assert!(audit.in_range(row.at, row.at.saturating_add(1)).contains(row));
        }
        prop_assert_eq!(audit.in_range(0, u64::MAX).len(), rows.iter().filter(|r| r.at < u64::MAX).count());
        let counted: usize = ACTIONS
            .iter()
            .map(|&a| audit.count(a, true) + audit.count(a, false))
            .sum();
        prop_assert_eq!(counted, rows.len());
        let mut visited = Vec::new();
        prop_assert_eq!(audit.for_each(|row| visited.push(row.clone())), dropped);
        prop_assert_eq!(&visited, &rows);
        for _ in 0..2 {
            let snapshot = snapshot_live(server.store(), audit, &BTreeMap::new());
            backend.write_snapshot(&snapshot).unwrap();
            backend.reset_wal().unwrap();
            server.reload_from_storage().unwrap();
            prop_assert_eq!(audit.export_all(), rows.clone());
            prop_assert_eq!(audit.dropped(), dropped);
        }
        audit.prune_older_than(u64::MAX);
        prop_assert_eq!(audit.len(), rows.iter().filter(|r| r.at == u64::MAX).count());
    }
}
