//! The token store — the MariaDB-backed LinOTP user repository (§3.1).
//!
//! One record per user: the pairing (which kind of token and its secret
//! material), replay-prevention state, the consecutive-failure counter, and
//! the active flag the lockout policy clears.
//!
//! # Sharding
//!
//! The store is partitioned into [`SHARD_COUNT`] shards, each its own
//! `RwLock<BTreeMap>`, keyed by an FNV-1a hash of the username
//! ([`shard_of_name`] — deterministic across processes and runs, unlike
//! `RandomState`). Validations for users in different shards proceed in
//! parallel; per-user operations still serialize under their shard's write
//! lock, which is all the replay/lockout invariants need.
//!
//! The store holds the records and nothing derived from them. The two
//! security-posture gauges — locked-out users and outstanding unexpired
//! SMS codes — are a census taken under the shards' read locks when an
//! admin route is scraped ([`TokenStore::gauge_counts`]), and an SMS
//! code's expiry is read, never purged: an expired code is inert until a
//! validation clears it or a freshly issued code replaces it, both through
//! `authority::apply`, so what the live store holds is what a recovery
//! rebuilds.
//!
//! Admin enumeration ([`TokenStore::export_all`])
//! merges shards into a `BTreeMap`, so its output is in sorted key order
//! and seeded runs stay byte-identical. Compaction visits the shards in
//! place instead ([`TokenStore::for_each_by_shard`]): shard by shard, each
//! in name order — as deterministic, and with nothing to merge.

use crate::sms::PhoneNumber;
use hpcmfa_otp::totp::Totp;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// log2 of [`SHARD_COUNT`].
pub(crate) const SHARD_BITS: u32 = 4;

/// Number of hash partitions. 16 shards keeps per-shard contention
/// negligible for any realistic validator thread count while the merge cost
/// of admin enumeration stays trivial.
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// Deterministic shard index for `name`: FNV-1a over the bytes, folded and
/// masked to [`SHARD_COUNT`]. Public so tests can partition users by shard
/// and provably never contend on a shard lock.
pub fn shard_of_name(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    // Fold the high bits in: FNV-1a's low bits alone mix short keys poorly.
    ((h ^ (h >> 32)) & (SHARD_COUNT as u64 - 1)) as usize
}

/// Which physical token a TOTP pairing corresponds to (identical math,
/// different provenance and reporting label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TotpProvenance {
    /// Secret minted by the portal and imported via QR (smartphone app).
    Soft,
    /// Factory-seeded fob identified by serial number.
    Hard,
}

/// An SMS code awaiting use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSmsCode {
    /// The six-digit code that was texted.
    pub code: String,
    /// When it was generated.
    pub sent_at: u64,
    /// When it stops being accepted.
    pub expires_at: u64,
}

impl PendingSmsCode {
    /// Whether the code is still usable at `now`.
    pub fn active(&self, now: u64) -> bool {
        now < self.expires_at
    }
}

/// A user's pairing record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenPairing {
    /// Soft or hard TOTP token.
    Totp {
        /// Generator bound to the shared secret.
        totp: Totp,
        /// Soft or hard.
        provenance: TotpProvenance,
        /// Hard-token serial, if any.
        serial: Option<String>,
        /// Highest accepted time step — used codes are nullified (§3.2) by
        /// refusing any step at or below this.
        last_step: Option<u64>,
        /// Resync adjustment in whole time steps (admin "re-synchronize
        /// tokens", §3.1).
        drift_steps: i64,
    },
    /// SMS token: the server texts a fresh code on demand.
    Sms {
        /// Destination number.
        phone: PhoneNumber,
        /// The outstanding code, if one is active.
        pending: Option<PendingSmsCode>,
    },
    /// Static training-account code (§3.3, fourth token type).
    Static {
        /// The fixed six-digit code.
        code: String,
    },
}

impl TokenPairing {
    /// The reporting label (Table 1 rows).
    pub fn kind_label(&self) -> &'static str {
        match self {
            TokenPairing::Totp {
                provenance: TotpProvenance::Soft,
                ..
            } => "soft",
            TokenPairing::Totp {
                provenance: TotpProvenance::Hard,
                ..
            } => "hard",
            TokenPairing::Sms { .. } => "sms",
            TokenPairing::Static { .. } => "training",
        }
    }
}

/// Per-user record in the store.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTokenRecord {
    /// The pairing.
    pub pairing: TokenPairing,
    /// Consecutive validation failures since the last success/reset.
    pub fail_count: u32,
    /// Cleared by the lockout policy; admins re-activate.
    pub active: bool,
}

/// Status summary exposed to admins and the internal staff website (§3.1:
/// deactivation info "is available to staff via an internal website").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserTokenStatus {
    /// Pairing kind label.
    pub kind: String,
    /// Current consecutive failures.
    pub fail_count: u32,
    /// Whether validation is currently allowed.
    pub active: bool,
    /// Hard-token serial if applicable.
    pub serial: Option<String>,
    /// Whether an unexpired SMS code is outstanding (always `false` for
    /// non-SMS pairings).
    pub sms_pending: bool,
}

/// Whether `rec` holds an SMS code still usable at `now`.
fn sms_pending(rec: &UserTokenRecord, now: u64) -> bool {
    matches!(&rec.pairing, TokenPairing::Sms { pending: Some(p), .. } if p.active(now))
}

/// One hash partition.
type Shard = RwLock<BTreeMap<String, UserTokenRecord>>;

/// Thread-safe sharded token store. Clone shares state.
#[derive(Clone, Default)]
pub struct TokenStore {
    shards: Arc<[Shard; SHARD_COUNT]>,
}

impl TokenStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, username: &str) -> &Shard {
        &self.shards[shard_of_name(username)]
    }

    /// Enroll (or replace) a pairing for `username`. Re-enrolling resets
    /// failure state, matching LinOTP's behaviour on token re-init.
    pub fn enroll(&self, username: &str, pairing: TokenPairing) {
        let record = UserTokenRecord {
            pairing,
            fail_count: 0,
            active: true,
        };
        self.shard(username)
            .write()
            .insert(username.to_string(), record);
    }

    /// Remove a user's pairing. Returns whether one existed.
    pub fn remove(&self, username: &str) -> bool {
        self.shard(username).write().remove(username).is_some()
    }

    /// Whether the user has any pairing.
    pub(crate) fn has_pairing(&self, username: &str) -> bool {
        self.shard(username).read().contains_key(username)
    }

    /// Snapshot a user's record.
    pub fn get(&self, username: &str) -> Option<UserTokenRecord> {
        self.shard(username).read().get(username).cloned()
    }

    /// Status summary for staff tooling at `now`, read under the shard's
    /// read lock: an SMS code past its expiry reads as not pending.
    pub fn status(&self, username: &str, now: u64) -> Option<UserTokenStatus> {
        let users = self.shard(username).read();
        let r = users.get(username)?;
        Some(UserTokenStatus {
            kind: r.pairing.kind_label().to_string(),
            fail_count: r.fail_count,
            active: r.active,
            serial: match &r.pairing {
                TokenPairing::Totp { serial, .. } => serial.clone(),
                _ => None,
            },
            sms_pending: sms_pending(r, now),
        })
    }

    /// Security-posture gauges at `now`: (locked-out users, users with an
    /// unexpired SMS code outstanding). Both `/system/metrics` and
    /// `/system/alerts` refresh from this one read so the two surfaces can
    /// never disagree about the same instant. A census under each shard's
    /// read lock in turn: only the scrapes pay for it, never a validation.
    pub fn gauge_counts(&self, now: u64) -> (u64, u64) {
        let (mut locked, mut pending) = (0, 0);
        for shard in self.shards.iter() {
            for rec in shard.read().values() {
                locked += u64::from(!rec.active);
                pending += u64::from(sms_pending(rec, now));
            }
        }
        (locked, pending)
    }

    /// Mutate a user's record under its shard's write lock. Returns `None`
    /// if the user has no pairing, else the closure's result.
    pub fn with_record<T>(
        &self,
        username: &str,
        f: impl FnOnce(&mut UserTokenRecord) -> T,
    ) -> Option<T> {
        self.shard(username).write().get_mut(username).map(f)
    }

    /// Number of enrolled users.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Clone the full user map, merged across shards in sorted key order
    /// (admin reads and tests).
    pub fn export_all(&self) -> BTreeMap<String, UserTokenRecord> {
        let mut out = BTreeMap::new();
        for shard in self.shards.iter() {
            for (name, rec) in shard.read().iter() {
                out.insert(name.clone(), rec.clone());
            }
        }
        out
    }

    /// Visit every record without cloning any, shard by shard: shard 0 to
    /// [`SHARD_COUNT`] − 1, each shard's users in name order. The order
    /// depends on the names alone — [`shard_of_name`] is FNV-1a, not a
    /// seeded hash — so it is the same in every process and run (snapshot
    /// encoding; [`encode_snapshot`] writes an exported map in this
    /// order). Every shard stays read-locked for the whole visit, so `f`
    /// must not call back into the store.
    ///
    /// [`encode_snapshot`]: crate::durability::snapshot::encode_snapshot
    pub fn for_each_by_shard(&self, mut f: impl FnMut(&str, &UserTokenRecord)) {
        let shards = self.shards.each_ref().map(|s| s.read());
        for users in &shards {
            for (name, rec) in users.iter() {
                f(name, rec);
            }
        }
    }

    /// Replace the full user map (crash recovery).
    pub fn load_all(&self, users: BTreeMap<String, UserTokenRecord>) {
        self.clear();
        for (name, rec) in users {
            self.shard(&name).write().insert(name, rec);
        }
    }

    /// Drop every record (simulated crash wipes the in-memory image).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmfa_otp::secret::Secret;

    fn totp_pairing(provenance: TotpProvenance) -> TokenPairing {
        TokenPairing::Totp {
            totp: Totp::new(Secret::from_bytes(*b"12345678901234567890")),
            provenance,
            serial: match provenance {
                TotpProvenance::Hard => Some("TACC-0001".into()),
                TotpProvenance::Soft => None,
            },
            last_step: None,
            drift_steps: 0,
        }
    }

    #[test]
    fn enroll_get_remove() {
        let store = TokenStore::new();
        assert!(!store.has_pairing("alice"));
        store.enroll("alice", totp_pairing(TotpProvenance::Soft));
        assert!(store.has_pairing("alice"));
        assert_eq!(store.len(), 1);
        assert!(store.remove("alice"));
        assert!(!store.remove("alice"));
        assert!(store.is_empty());
    }

    #[test]
    fn reenroll_resets_failures() {
        let store = TokenStore::new();
        store.enroll("alice", totp_pairing(TotpProvenance::Soft));
        store.with_record("alice", |r| {
            r.fail_count = 19;
            r.active = false;
        });
        store.enroll("alice", totp_pairing(TotpProvenance::Soft));
        let rec = store.get("alice").unwrap();
        assert_eq!(rec.fail_count, 0);
        assert!(rec.active);
    }

    #[test]
    fn status_reports_kind_and_serial() {
        let store = TokenStore::new();
        store.enroll("h", totp_pairing(TotpProvenance::Hard));
        store.enroll(
            "s",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551234").unwrap(),
                pending: None,
            },
        );
        store.enroll(
            "t",
            TokenPairing::Static {
                code: "123456".into(),
            },
        );
        assert_eq!(store.status("h", 0).unwrap().kind, "hard");
        assert_eq!(
            store.status("h", 0).unwrap().serial.as_deref(),
            Some("TACC-0001")
        );
        assert_eq!(store.status("s", 0).unwrap().kind, "sms");
        assert_eq!(store.status("t", 0).unwrap().kind, "training");
        assert_eq!(store.status("missing", 0), None);
    }

    #[test]
    fn status_reads_sms_expiry_and_writes_nothing() {
        let store = TokenStore::new();
        store.enroll(
            "s",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551234").unwrap(),
                pending: Some(PendingSmsCode {
                    code: "111111".into(),
                    sent_at: 100,
                    expires_at: 400,
                }),
            },
        );
        let before = store.export_all();
        assert!(store.status("s", 200).unwrap().sms_pending);
        // At expiry the code reads as not pending, and stays in the record.
        assert!(!store.status("s", 400).unwrap().sms_pending);
        assert_eq!(store.export_all(), before);
    }

    #[test]
    fn gauge_counts_is_a_census_that_writes_nothing() {
        let store = TokenStore::new();
        store.enroll("locked", totp_pairing(TotpProvenance::Soft));
        store.with_record("locked", |r| r.active = false);
        store.enroll(
            "fresh",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551234").unwrap(),
                pending: Some(PendingSmsCode {
                    code: "111111".into(),
                    sent_at: 100,
                    expires_at: 900,
                }),
            },
        );
        store.enroll(
            "stale",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551235").unwrap(),
                pending: Some(PendingSmsCode {
                    code: "222222".into(),
                    sent_at: 100,
                    expires_at: 400,
                }),
            },
        );
        let before = store.export_all();
        assert_eq!(store.gauge_counts(500), (1, 1));
        // The stale code is not counted, and stays in its record.
        assert_eq!(store.export_all(), before);
    }

    #[test]
    fn export_load_round_trip() {
        let store = TokenStore::new();
        store.enroll("alice", totp_pairing(TotpProvenance::Soft));
        let image = store.export_all();
        store.clear();
        assert!(store.is_empty());
        store.load_all(image);
        assert!(store.has_pairing("alice"));
    }

    #[test]
    fn pending_sms_activity_window() {
        let p = PendingSmsCode {
            code: "111111".into(),
            sent_at: 100,
            expires_at: 400,
        };
        assert!(p.active(100));
        assert!(p.active(399));
        assert!(!p.active(400));
    }

    #[test]
    fn shard_of_name_is_stable_and_in_range() {
        // Pinned values: any change to the hash would silently re-partition
        // durable stores.
        assert_eq!(shard_of_name("alice"), shard_of_name("alice"));
        for name in ["", "alice", "bob", "user0123", "üñí"] {
            assert!(shard_of_name(name) < SHARD_COUNT);
        }
        // Distribution sanity: 256 sequential usernames must not collapse
        // into a handful of shards.
        let mut hit = [false; SHARD_COUNT];
        for i in 0..256 {
            hit[shard_of_name(&format!("user{i:04}"))] = true;
        }
        assert!(hit.iter().filter(|h| **h).count() >= SHARD_COUNT / 2);
    }

    #[test]
    fn gauges_track_every_mutation_path() {
        let store = TokenStore::new();
        assert_eq!(store.gauge_counts(0), (0, 0));

        // Lock via with_record.
        store.enroll("a", totp_pairing(TotpProvenance::Soft));
        store.with_record("a", |r| r.active = false);
        assert_eq!(store.gauge_counts(0), (1, 0));
        // Unlock.
        store.with_record("a", |r| r.active = true);
        assert_eq!(store.gauge_counts(0), (0, 0));
        // Lock then remove: gauge must not leak.
        store.with_record("a", |r| r.active = false);
        store.remove("a");
        assert_eq!(store.gauge_counts(0), (0, 0));

        // Pending SMS issued via with_record, consumed via with_record.
        store.enroll(
            "s",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551234").unwrap(),
                pending: None,
            },
        );
        store.with_record("s", |r| {
            if let TokenPairing::Sms { pending, .. } = &mut r.pairing {
                *pending = Some(PendingSmsCode {
                    code: "111111".into(),
                    sent_at: 10,
                    expires_at: 300,
                });
            }
        });
        assert_eq!(store.gauge_counts(20), (0, 1));
        store.with_record("s", |r| {
            if let TokenPairing::Sms { pending, .. } = &mut r.pairing {
                *pending = None;
            }
        });
        assert_eq!(store.gauge_counts(20), (0, 0));

        // Re-enroll over a locked user resets the locked gauge.
        store.enroll("a", totp_pairing(TotpProvenance::Soft));
        store.with_record("a", |r| r.active = false);
        store.enroll("a", totp_pairing(TotpProvenance::Soft));
        assert_eq!(store.gauge_counts(20), (0, 0));
    }

    #[test]
    fn gauges_survive_clear_and_load_all() {
        let store = TokenStore::new();
        store.enroll("locked", totp_pairing(TotpProvenance::Soft));
        store.with_record("locked", |r| r.active = false);
        store.enroll(
            "s",
            TokenPairing::Sms {
                phone: PhoneNumber::parse("5125551234").unwrap(),
                pending: Some(PendingSmsCode {
                    code: "111111".into(),
                    sent_at: 10,
                    expires_at: 300,
                }),
            },
        );
        let image = store.export_all();
        assert_eq!(store.gauge_counts(20), (1, 1));
        store.clear();
        assert_eq!(store.gauge_counts(20), (0, 0));
        store.load_all(image);
        assert_eq!(store.gauge_counts(20), (1, 1));
        // The reloaded code stops counting at its expiry.
        assert_eq!(store.gauge_counts(300), (1, 0));
    }

    #[test]
    fn export_all_is_sorted_across_shards() {
        let store = TokenStore::new();
        let mut names: Vec<String> = (0..64).map(|i| format!("user{i:03}")).collect();
        // Insert in scrambled order.
        names.reverse();
        for n in &names {
            store.enroll(n, totp_pairing(TotpProvenance::Soft));
        }
        let exported: Vec<String> = store.export_all().keys().cloned().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(exported, sorted);
    }
}
