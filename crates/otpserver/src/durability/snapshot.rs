//! Snapshot encoding, compaction, and the crash-recovery path.
//!
//! A snapshot is the full store + audit state serialized as a sequence of
//! ordinary WAL frames ([`WalRecord::SnapshotUser`] per user,
//! [`WalRecord::Audit`] per retained audit entry) terminated by a
//! [`WalRecord::SnapshotSeal`] carrying the expected counts. Snapshots are
//! replaced atomically by the backend and validated wholesale on read: a
//! snapshot with a torn tail, a failed checksum, or a seal whose counts
//! disagree is rejected as [`RecoverError::SnapshotCorrupt`] — unlike the
//! WAL, there is no valid "prefix" of a snapshot to fall back on.
//!
//! [`recover`] replays the snapshot, then the WAL, through one `apply`.
//! The WAL *is* allowed a bad tail — that is what a crash mid-append
//! leaves behind — and recovery truncates the backend at the first torn or
//! corrupt record.
//! Replay is monotonic where security demands it: `last_step` only ever
//! moves forward (`max`-merge), so replay nullification cannot regress
//! whatever order records landed in.

use super::wal::{replay, snapshot_user_frame_into, WalRecord, WalTail, TAG_SNAP_USER};
use super::{StorageBackend, StorageError};
use crate::audit::{AuditEntry, AuditLog, NewRow};
use crate::store::{shard_of_name, PendingSmsCode, TokenPairing, TokenStore, UserTokenRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why recovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The backend could not be read or truncated.
    Storage(StorageError),
    /// The snapshot exists but is not wholly valid.
    SnapshotCorrupt,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Storage(e) => write!(f, "recovery storage error: {e}"),
            RecoverError::SnapshotCorrupt => write!(f, "snapshot failed validation"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<StorageError> for RecoverError {
    fn from(e: StorageError) -> Self {
        RecoverError::Storage(e)
    }
}

/// What a recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Users restored from the snapshot.
    pub snapshot_users: usize,
    /// Audit entries restored from the snapshot.
    pub snapshot_audits: usize,
    /// WAL records replayed.
    pub wal_records: usize,
    /// Valid WAL bytes kept.
    pub wal_bytes: usize,
    /// Bytes cut off a torn/corrupt tail (0 for a clean WAL).
    pub truncated_bytes: usize,
    /// Checksummed-but-semantically-unusable records skipped (e.g. a
    /// pairing whose algorithm label no longer parses).
    pub skipped_records: usize,
    /// Whether the WAL tail was clean, torn, or corrupt.
    pub tail_was_clean: bool,
}

/// The state a recovery produced, ready to load into a live server.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Per-user records.
    pub users: BTreeMap<String, UserTokenRecord>,
    /// Audit entries in order.
    pub audit_entries: Vec<AuditEntry>,
    /// The audit ring's dropped-entry counter at snapshot time.
    pub audit_dropped: u64,
    /// Consumed resumption-token nonces → ledger expiry. Single-use
    /// enforcement survives the crash because this map is rebuilt from
    /// the snapshot and every replayed `ResumeConsume` record.
    pub resume_consumed: BTreeMap<[u8; 16], u64>,
    /// What happened.
    pub report: RecoveryReport,
}

/// Serialize the full state as a snapshot blob: users in the store's
/// shard-major order (by [`shard_of_name`], then by name), then the audit
/// rows, the resume ledger and the seal.
pub fn encode_snapshot(
    users: &BTreeMap<String, UserTokenRecord>,
    audit_entries: &[AuditEntry],
    audit_dropped: u64,
    resume_consumed: &BTreeMap<[u8; 16], u64>,
) -> Vec<u8> {
    let mut out = Vec::new();
    let mut by_shard: Vec<_> = users.iter().collect();
    // Stable: each shard keeps its users in name order.
    by_shard.sort_by_key(|(user, _)| shard_of_name(user));
    for (user, rec) in by_shard {
        snapshot_user_frame_into(&mut out, user, rec);
    }
    for entry in audit_entries {
        NewRow::from(entry).frame_into(&mut out);
    }
    finish_snapshot(
        out,
        users.len(),
        audit_entries.len(),
        audit_dropped,
        resume_consumed,
    )
}

/// Snapshot a live store + audit log + resume ledger (what compaction
/// installs): the bytes [`encode_snapshot`] gives for their exports. The
/// users are encoded straight from the live records, visited shard by
/// shard; the audit section is the ring's frames, copied as they stand.
/// A compaction holds every commit off for as long as this takes, so
/// nothing is cloned or sorted, and the buffer starts at the previous
/// snapshot's length.
pub fn snapshot_live(
    store: &TokenStore,
    audit: &AuditLog,
    resume_consumed: &BTreeMap<[u8; 16], u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(audit.snapshot_len());
    let mut users = 0;
    store.for_each_by_shard(|user, rec| {
        snapshot_user_frame_into(&mut out, user, rec);
        users += 1;
    });
    let (audits, audit_dropped) = audit.copy_frames_into(&mut out);
    let out = finish_snapshot(out, users, audits, audit_dropped, resume_consumed);
    audit.note_snapshot_len(out.len());
    out
}

/// Close a snapshot whose user and audit frames are in `out`: the resume
/// ledger, then the seal with the counts.
fn finish_snapshot(
    mut out: Vec<u8>,
    users: usize,
    audits: usize,
    audit_dropped: u64,
    resume_consumed: &BTreeMap<[u8; 16], u64>,
) -> Vec<u8> {
    for (nonce, expires_at) in resume_consumed {
        WalRecord::ResumeConsume {
            user: String::new(),
            nonce: *nonce,
            expires_at: *expires_at,
        }
        .encode_frame_into(&mut out);
    }
    WalRecord::SnapshotSeal {
        users: users as u64,
        audits: audits as u64,
        audit_dropped,
        resumes: resume_consumed.len() as u64,
    }
    .encode_frame_into(&mut out);
    out
}

/// Load a snapshot blob into the empty `state` through [`apply`]; `None`
/// if it is not wholly valid. Replay already refuses torn and malformed
/// frames. A snapshot must also hold only user, audit and resume records,
/// then exactly one seal, and the seal's counts must match what it holds.
/// A user whose pairing no longer validates is skipped, and still counts
/// toward the seal it was written under.
fn load_snapshot(state: &mut RecoveredState, bytes: &[u8]) -> Option<()> {
    let mut seal = None;
    let mut skipped_users = 0;
    let tail = replay(bytes, |rec| {
        match rec {
            _ if seal.is_some() => return false,
            Ok(WalRecord::SnapshotSeal {
                users,
                audits,
                audit_dropped,
                resumes,
            }) => seal = Some((users, audits, audit_dropped, resumes)),
            Ok(
                rec @ (WalRecord::SnapshotUser { .. }
                | WalRecord::Audit { .. }
                | WalRecord::ResumeConsume { .. }),
            ) => apply(state, rec),
            Err(TAG_SNAP_USER) => skipped_users += 1,
            _ => return false,
        }
        true
    });
    let (users, audits, audit_dropped, resumes) = seal?;
    let counted = (state.users.len() + skipped_users) as u64 == users
        && state.audit_entries.len() as u64 == audits
        && state.resume_consumed.len() as u64 == resumes;
    if tail != WalTail::Clean || !counted {
        return None;
    }
    state.audit_dropped = audit_dropped;
    state.report.snapshot_users = state.users.len();
    state.report.snapshot_audits = state.audit_entries.len();
    state.report.skipped_records = skipped_users;
    Some(())
}

/// Apply one decoded record to the recovered state: the one step both a
/// snapshot load and a WAL replay take.
fn apply(state: &mut RecoveredState, rec: WalRecord) {
    let users = &mut state.users;
    match rec {
        WalRecord::Enroll { user, pairing } => {
            users.insert(
                user,
                UserTokenRecord {
                    pairing,
                    fail_count: 0,
                    active: true,
                },
            );
        }
        WalRecord::SnapshotUser {
            user,
            pairing,
            fail_count,
            active,
        } => {
            users.insert(
                user,
                UserTokenRecord {
                    pairing,
                    fail_count,
                    active,
                },
            );
        }
        WalRecord::Remove { user } => {
            users.remove(&user);
        }
        WalRecord::ValState {
            user,
            last_step,
            fail_count,
            active,
        } => {
            if let Some(rec) = users.get_mut(&user) {
                if let Some(step) = last_step {
                    merge_last_step(&mut rec.pairing, step);
                }
                rec.fail_count = fail_count;
                rec.active = active;
            }
        }
        WalRecord::Resync {
            user,
            drift_steps,
            last_step,
        } => {
            if let Some(rec) = users.get_mut(&user) {
                if let TokenPairing::Totp { drift_steps: d, .. } = &mut rec.pairing {
                    *d = drift_steps;
                }
                merge_last_step(&mut rec.pairing, last_step);
                rec.fail_count = 0;
                rec.active = true;
            }
        }
        WalRecord::SmsIssue {
            user,
            code,
            sent_at,
            expires_at,
        } => {
            if let Some(TokenPairing::Sms { pending, .. }) =
                users.get_mut(&user).map(|rec| &mut rec.pairing)
            {
                *pending = Some(PendingSmsCode {
                    code,
                    sent_at,
                    expires_at,
                });
            }
        }
        WalRecord::SmsClear { user } => {
            if let Some(TokenPairing::Sms { pending, .. }) =
                users.get_mut(&user).map(|rec| &mut rec.pairing)
            {
                *pending = None;
            }
        }
        WalRecord::Audit {
            at,
            user,
            action,
            success,
            detail,
        } => state.audit_entries.push(AuditEntry {
            at,
            username: user,
            action,
            success,
            detail,
        }),
        WalRecord::ResumeConsume {
            nonce, expires_at, ..
        } => {
            // Max-merge like `last_step`: a nonce can never un-consume,
            // and its ledger retention only ever extends.
            let slot = state.resume_consumed.entry(nonce).or_insert(expires_at);
            *slot = (*slot).max(expires_at);
        }
        // The loaders keep seals to themselves.
        WalRecord::SnapshotSeal { .. } => {}
    }
}

/// Advance (never regress) a TOTP pairing's replay mark.
fn merge_last_step(pairing: &mut TokenPairing, step: u64) {
    if let TokenPairing::Totp { last_step, .. } = pairing {
        *last_step = Some(last_step.map_or(step, |ls| ls.max(step)));
    }
}

/// Rebuild state from `backend`: snapshot first, then WAL replay, then
/// tail truncation. Both go through the one `apply`; in the WAL,
/// snapshot-only records and pairings that no longer validate are
/// skipped and counted, not fatal. The backend's WAL is left holding
/// exactly the valid prefix, so appends after recovery continue a clean
/// stream.
pub fn recover(backend: &Arc<dyn StorageBackend>) -> Result<RecoveredState, RecoverError> {
    let mut state = RecoveredState::default();
    if let Some(bytes) = backend.read_snapshot()? {
        load_snapshot(&mut state, &bytes).ok_or(RecoverError::SnapshotCorrupt)?;
    }

    let wal = backend.read_wal()?;
    let tail = replay(&wal, |rec| {
        match rec {
            Ok(WalRecord::SnapshotUser { .. } | WalRecord::SnapshotSeal { .. }) | Err(_) => {
                state.report.skipped_records += 1
            }
            Ok(rec) => {
                apply(&mut state, rec);
                state.report.wal_records += 1;
            }
        }
        true
    });
    let report = &mut state.report;
    report.tail_was_clean = tail == WalTail::Clean;
    report.wal_bytes = tail.valid_len(wal.len());
    report.truncated_bytes = wal.len() - report.wal_bytes;
    if report.truncated_bytes > 0 {
        backend.truncate_wal(report.wal_bytes as u64)?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditAction;
    use crate::durability::backend::MemoryBackend;
    use crate::store::TotpProvenance;
    use hpcmfa_otp::secret::Secret;
    use hpcmfa_otp::totp::{Totp, TotpParams};

    fn totp_pairing(digits: u32, last_step: Option<u64>) -> TokenPairing {
        let params = TotpParams {
            digits,
            ..TotpParams::default()
        };
        TokenPairing::Totp {
            totp: Totp::with_params(Secret::from_bytes(*b"12345678901234567890"), params),
            provenance: TotpProvenance::Soft,
            serial: None,
            last_step,
            drift_steps: 0,
        }
    }

    fn backend_with(records: &[WalRecord]) -> Arc<dyn StorageBackend> {
        let mut wal = Vec::new();
        for r in records {
            wal.extend_from_slice(&r.encode_frame());
        }
        MemoryBackend::with_contents(wal, None)
    }

    #[test]
    fn empty_backend_recovers_empty() {
        let b: Arc<dyn StorageBackend> = MemoryBackend::healthy();
        let state = recover(&b).unwrap();
        assert!(state.users.is_empty());
        assert!(state.audit_entries.is_empty());
        assert!(state.report.tail_was_clean);
    }

    #[test]
    fn wal_replay_rebuilds_store() {
        let b = backend_with(&[
            WalRecord::Enroll {
                user: "alice".into(),
                pairing: totp_pairing(6, None),
            },
            WalRecord::ValState {
                user: "alice".into(),
                last_step: Some(100),
                fail_count: 0,
                active: true,
            },
            WalRecord::ValState {
                user: "alice".into(),
                last_step: None,
                fail_count: 3,
                active: true,
            },
            WalRecord::Audit {
                at: 7,
                user: "alice".into(),
                action: AuditAction::Validate,
                success: true,
                detail: "ok".into(),
            },
        ]);
        let state = recover(&b).unwrap();
        let rec = &state.users["alice"];
        assert_eq!(rec.fail_count, 3);
        assert!(rec.active);
        let TokenPairing::Totp { last_step, .. } = &rec.pairing else {
            panic!("wrong pairing");
        };
        assert_eq!(*last_step, Some(100));
        assert_eq!(state.audit_entries.len(), 1);
        assert_eq!(state.report.wal_records, 4);
    }

    #[test]
    fn ten_digit_pairing_is_skipped_not_restored() {
        // Checksummed and well-formed, but `10^10` overflows the modulus
        // the first validation would compute.
        let b = backend_with(&[WalRecord::Enroll {
            user: "alice".into(),
            pairing: totp_pairing(10, None),
        }]);
        let state = recover(&b).unwrap();
        assert!(state.users.is_empty());
        assert_eq!(state.report.skipped_records, 1);
        assert_eq!(state.report.wal_records, 0);
    }

    #[test]
    fn last_step_never_regresses_on_replay() {
        // Records landing out of order (concurrent writers) must still
        // leave the high-water mark at the max.
        let b = backend_with(&[
            WalRecord::Enroll {
                user: "alice".into(),
                pairing: totp_pairing(6, None),
            },
            WalRecord::ValState {
                user: "alice".into(),
                last_step: Some(200),
                fail_count: 0,
                active: true,
            },
            WalRecord::ValState {
                user: "alice".into(),
                last_step: Some(150),
                fail_count: 0,
                active: true,
            },
        ]);
        let state = recover(&b).unwrap();
        let TokenPairing::Totp { last_step, .. } = &state.users["alice"].pairing else {
            panic!("wrong pairing");
        };
        assert_eq!(*last_step, Some(200));
    }

    #[test]
    fn torn_tail_truncates_backend() {
        let records = vec![
            WalRecord::Enroll {
                user: "alice".into(),
                pairing: totp_pairing(6, Some(5)),
            },
            WalRecord::Remove { user: "bob".into() },
        ];
        let mut wal = Vec::new();
        for r in &records {
            wal.extend_from_slice(&r.encode_frame());
        }
        let clean_len = wal.len();
        // A torn third frame.
        let torn = WalRecord::Remove {
            user: "carol".into(),
        }
        .encode_frame();
        wal.extend_from_slice(&torn[..torn.len() - 3]);
        let b: Arc<dyn StorageBackend> = MemoryBackend::with_contents(wal, None);
        let state = recover(&b).unwrap();
        assert_eq!(state.report.truncated_bytes, torn.len() - 3);
        assert!(!state.report.tail_was_clean);
        assert_eq!(b.wal_len(), clean_len as u64, "backend truncated");
        assert!(state.users.contains_key("alice"));
        // A second recovery now sees a clean WAL.
        let again = recover(&b).unwrap();
        assert!(again.report.tail_was_clean);
        assert_eq!(again.users.len(), state.users.len());
    }

    #[test]
    fn snapshot_plus_wal_compose() {
        let mut users = BTreeMap::new();
        users.insert(
            "alice".to_string(),
            UserTokenRecord {
                pairing: totp_pairing(6, Some(90)),
                fail_count: 2,
                active: true,
            },
        );
        let audit = vec![AuditEntry {
            at: 1,
            username: "alice".into(),
            action: AuditAction::Enroll,
            success: true,
            detail: "soft".into(),
        }];
        let mut consumed = BTreeMap::new();
        consumed.insert([3u8; 16], 1_700_000_630u64);
        let snap = encode_snapshot(&users, &audit, 7, &consumed);
        let mut wal = Vec::new();
        wal.extend_from_slice(
            &WalRecord::ResumeConsume {
                user: "alice".into(),
                nonce: [9u8; 16],
                expires_at: 1_700_000_990,
            }
            .encode_frame(),
        );
        wal.extend_from_slice(
            &WalRecord::ValState {
                user: "alice".into(),
                last_step: Some(95),
                fail_count: 0,
                active: true,
            }
            .encode_frame(),
        );
        let b: Arc<dyn StorageBackend> = MemoryBackend::with_contents(wal, Some(snap));
        let state = recover(&b).unwrap();
        assert_eq!(state.report.snapshot_users, 1);
        assert_eq!(state.report.snapshot_audits, 1);
        assert_eq!(state.audit_dropped, 7);
        let TokenPairing::Totp { last_step, .. } = &state.users["alice"].pairing else {
            panic!();
        };
        assert_eq!(*last_step, Some(95));
        assert_eq!(state.users["alice"].fail_count, 0);
        // Both the snapshotted and the WAL-replayed nonce survive.
        assert_eq!(state.resume_consumed.get(&[3u8; 16]), Some(&1_700_000_630));
        assert_eq!(state.resume_consumed.get(&[9u8; 16]), Some(&1_700_000_990));
    }

    #[test]
    fn corrupt_snapshot_is_fatal_not_partial() {
        let mut users = BTreeMap::new();
        users.insert(
            "alice".to_string(),
            UserTokenRecord {
                pairing: totp_pairing(6, None),
                fail_count: 0,
                active: true,
            },
        );
        let mut snap = encode_snapshot(&users, &[], 0, &BTreeMap::new());
        let mid = snap.len() / 2;
        snap[mid] ^= 0x40;
        let b: Arc<dyn StorageBackend> = MemoryBackend::with_contents(Vec::new(), Some(snap));
        assert_eq!(recover(&b).unwrap_err(), RecoverError::SnapshotCorrupt);
    }

    #[test]
    fn snapshot_without_seal_rejected() {
        let frame = WalRecord::SnapshotUser {
            user: "alice".into(),
            pairing: totp_pairing(6, None),
            fail_count: 0,
            active: true,
        }
        .encode_frame();
        let b: Arc<dyn StorageBackend> = MemoryBackend::with_contents(Vec::new(), Some(frame));
        assert_eq!(recover(&b).unwrap_err(), RecoverError::SnapshotCorrupt);
    }
}
