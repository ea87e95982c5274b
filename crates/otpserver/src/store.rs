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
//! Two security-posture gauges — locked-out users and outstanding unexpired
//! SMS codes — are maintained *incrementally*: every mutation path diffs the
//! record's gauge contribution before and after the change and applies the
//! delta to global atomics. `/system/metrics` and `/system/alerts` read the
//! atomics instead of taking a whole-store write-lock census per scrape.
//! The only wrinkle is time: an SMS code stops counting when it *expires*,
//! not when it is mutated, so each shard keeps a conservative low watermark
//! of its earliest pending-code expiry (`sms_expiry_floor`). A gauge read at
//! `now` sweeps only shards whose floor has passed, purging expired codes
//! (and decrementing the gauge) exactly as the old census did — shards with
//! no expirable code are not even read-locked.
//!
//! Admin enumeration ([`TokenStore::export_all`], [`TokenStore::breakdown`])
//! merges shards into a `BTreeMap`, so its output is in sorted key order
//! and seeded runs stay byte-identical. Compaction visits the shards in
//! place instead ([`TokenStore::for_each_by_shard`]): shard by shard, each
//! in name order — as deterministic, and with nothing to merge.

use crate::sms::PhoneNumber;
use hpcmfa_otp::totp::Totp;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of [`SHARD_COUNT`].
pub const SHARD_BITS: u32 = 4;

/// Number of hash partitions. 16 shards keeps per-shard contention
/// negligible for any realistic validator thread count while the merge cost
/// of admin enumeration stays trivial.
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// Sentinel for "no pending SMS code in this shard".
const NO_FLOOR: u64 = u64::MAX;

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

/// What a record contributes to the global gauges: whether it is locked
/// out, and the expiry of its pending SMS code if one is outstanding.
fn contribution(rec: &UserTokenRecord) -> (bool, Option<u64>) {
    let pending = match &rec.pairing {
        TokenPairing::Sms {
            pending: Some(p), ..
        } => Some(p.expires_at),
        _ => None,
    };
    (!rec.active, pending)
}

/// One hash partition.
#[derive(Default)]
struct Shard {
    users: RwLock<BTreeMap<String, UserTokenRecord>>,
    /// Conservative low watermark of the earliest `expires_at` among this
    /// shard's pending SMS codes; [`NO_FLOOR`] when none. May lag low after
    /// a code is consumed (raising it cheaply is impossible without a
    /// sweep) — a stale-low floor only costs one extra sweep, never
    /// correctness.
    sms_expiry_floor: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            users: RwLock::new(BTreeMap::new()),
            sms_expiry_floor: AtomicU64::new(NO_FLOOR),
        }
    }
}

struct Inner {
    shards: Vec<Shard>,
    /// Users with `active == false`.
    locked_users: AtomicU64,
    /// Users with *some* pending SMS code. Equals the number of unexpired
    /// codes only after expired ones are purged — which every gauge read
    /// does (floor-gated) before loading this.
    sms_pending: AtomicU64,
}

/// Thread-safe sharded token store. Clone shares state.
#[derive(Clone)]
pub struct TokenStore {
    inner: Arc<Inner>,
}

impl Default for TokenStore {
    fn default() -> Self {
        TokenStore {
            inner: Arc::new(Inner {
                shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
                locked_users: AtomicU64::new(0),
                sms_pending: AtomicU64::new(0),
            }),
        }
    }
}

impl TokenStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, username: &str) -> &Shard {
        &self.inner.shards[shard_of_name(username)]
    }

    /// Apply the gauge delta between a record's contribution `before` and
    /// `after` a mutation. Called with the owning shard's write lock held,
    /// so per-record transitions are never double-counted.
    fn apply_diff(&self, shard: &Shard, before: (bool, Option<u64>), after: (bool, Option<u64>)) {
        match (before.0, after.0) {
            (false, true) => {
                self.inner.locked_users.fetch_add(1, Ordering::SeqCst);
            }
            (true, false) => {
                self.inner.locked_users.fetch_sub(1, Ordering::SeqCst);
            }
            _ => {}
        }
        match (before.1.is_some(), after.1.is_some()) {
            (false, true) => {
                self.inner.sms_pending.fetch_add(1, Ordering::SeqCst);
            }
            (true, false) => {
                self.inner.sms_pending.fetch_sub(1, Ordering::SeqCst);
            }
            _ => {}
        }
        if let Some(expires_at) = after.1 {
            shard
                .sms_expiry_floor
                .fetch_min(expires_at, Ordering::SeqCst);
        }
    }

    /// Enroll (or replace) a pairing for `username`. Re-enrolling resets
    /// failure state, matching LinOTP's behaviour on token re-init.
    pub fn enroll(&self, username: &str, pairing: TokenPairing) {
        let record = UserTokenRecord {
            pairing,
            fail_count: 0,
            active: true,
        };
        let after = contribution(&record);
        let shard = self.shard(username);
        let mut users = shard.users.write();
        let before = users
            .insert(username.to_string(), record)
            .map(|old| contribution(&old))
            .unwrap_or((false, None));
        self.apply_diff(shard, before, after);
    }

    /// Remove a user's pairing. Returns whether one existed.
    pub fn remove(&self, username: &str) -> bool {
        let shard = self.shard(username);
        let mut users = shard.users.write();
        match users.remove(username) {
            Some(old) => {
                self.apply_diff(shard, contribution(&old), (false, None));
                true
            }
            None => false,
        }
    }

    /// Whether the user has any pairing.
    pub fn has_pairing(&self, username: &str) -> bool {
        self.shard(username).users.read().contains_key(username)
    }

    /// Snapshot a user's record.
    pub fn get(&self, username: &str) -> Option<UserTokenRecord> {
        self.shard(username).users.read().get(username).cloned()
    }

    /// Status summary for staff tooling. Takes the current time so an
    /// expired pending SMS code is purged on read rather than lingering in
    /// snapshots and status output.
    pub fn status(&self, username: &str, now: u64) -> Option<UserTokenStatus> {
        self.with_record(username, |r| {
            if let TokenPairing::Sms { pending, .. } = &mut r.pairing {
                if pending.as_ref().is_some_and(|p| !p.active(now)) {
                    *pending = None;
                }
            }
            UserTokenStatus {
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
        })
    }

    /// Purge expired pending SMS codes in one shard, adjusting the gauge
    /// and recomputing the floor exactly. Returns how many were purged.
    fn purge_shard(&self, shard: &Shard, now: u64) -> usize {
        let mut users = shard.users.write();
        let mut purged = 0;
        let mut floor = NO_FLOOR;
        for rec in users.values_mut() {
            if let TokenPairing::Sms { pending, .. } = &mut rec.pairing {
                match pending {
                    Some(p) if p.active(now) => floor = floor.min(p.expires_at),
                    Some(_) => {
                        *pending = None;
                        self.inner.sms_pending.fetch_sub(1, Ordering::SeqCst);
                        purged += 1;
                    }
                    None => {}
                }
            }
        }
        shard.sms_expiry_floor.store(floor, Ordering::SeqCst);
        purged
    }

    /// Drop every expired pending SMS code in the store. Returns how many
    /// were purged. Called before snapshotting so stale codes never land
    /// in durable state. Shards whose expiry floor is still in the future
    /// cannot hold an expired code and are skipped without locking.
    pub fn purge_expired_sms(&self, now: u64) -> usize {
        let mut purged = 0;
        for shard in &self.inner.shards {
            if now >= shard.sms_expiry_floor.load(Ordering::SeqCst) {
                purged += self.purge_shard(shard, now);
            }
        }
        purged
    }

    /// Security-posture gauges at `now`: (locked-out users, users with an
    /// unexpired SMS code outstanding). Both `/system/metrics` and
    /// `/system/alerts` refresh from this one read so the two surfaces can
    /// never disagree about the same instant.
    ///
    /// Expired codes are purged first (floor-gated, usually touching no
    /// shard at all); the counts themselves come from the incrementally
    /// maintained atomics — no whole-store census.
    pub fn gauge_counts(&self, now: u64) -> (u64, u64) {
        self.purge_expired_sms(now);
        (
            self.inner.locked_users.load(Ordering::SeqCst),
            self.inner.sms_pending.load(Ordering::SeqCst),
        )
    }

    /// Mutate a user's record under its shard's write lock. Returns `None`
    /// if the user has no pairing, else the closure's result. Gauge deltas
    /// caused by the closure are applied before the lock is released.
    pub fn with_record<T>(
        &self,
        username: &str,
        f: impl FnOnce(&mut UserTokenRecord) -> T,
    ) -> Option<T> {
        let shard = self.shard(username);
        let mut users = shard.users.write();
        let rec = users.get_mut(username)?;
        let before = contribution(rec);
        let out = f(rec);
        let after = contribution(rec);
        self.apply_diff(shard, before, after);
        Some(out)
    }

    /// Number of enrolled users.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.users.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(|s| s.users.read().is_empty())
    }

    /// Clone the full user map, merged across shards in sorted key order
    /// (admin reads and tests).
    pub fn export_all(&self) -> BTreeMap<String, UserTokenRecord> {
        let mut out = BTreeMap::new();
        for shard in &self.inner.shards {
            for (name, rec) in shard.users.read().iter() {
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
        let shards: [_; SHARD_COUNT] = std::array::from_fn(|i| self.inner.shards[i].users.read());
        for users in &shards {
            for (name, rec) in users.iter() {
                f(name, rec);
            }
        }
    }

    /// Replace the full user map (crash recovery). Gauges and expiry
    /// floors are rebuilt from scratch.
    pub fn load_all(&self, users: BTreeMap<String, UserTokenRecord>) {
        self.clear();
        for (name, rec) in users {
            let shard = &self.inner.shards[shard_of_name(&name)];
            let after = contribution(&rec);
            let mut map = shard.users.write();
            map.insert(name, rec);
            self.apply_diff(shard, (false, None), after);
        }
    }

    /// Drop every record (simulated crash wipes the in-memory image).
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.users.write().clear();
            shard.sms_expiry_floor.store(NO_FLOOR, Ordering::SeqCst);
        }
        self.inner.locked_users.store(0, Ordering::SeqCst);
        self.inner.sms_pending.store(0, Ordering::SeqCst);
    }

    /// Count pairings by kind label — the Table 1 numerator. Sorted-map
    /// output, same as the pre-shard store.
    pub fn breakdown(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for shard in &self.inner.shards {
            for rec in shard.users.read().values() {
                *out.entry(rec.pairing.kind_label()).or_insert(0) += 1;
            }
        }
        out
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
    fn status_purges_expired_sms_and_reports_pending() {
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
        assert!(store.status("s", 200).unwrap().sms_pending);
        // After expiry the status read itself purges the stale code.
        assert!(!store.status("s", 400).unwrap().sms_pending);
        let rec = store.get("s").unwrap();
        assert!(matches!(
            rec.pairing,
            TokenPairing::Sms { pending: None, .. }
        ));
    }

    #[test]
    fn purge_expired_sms_sweeps_store() {
        let store = TokenStore::new();
        for (name, expires_at) in [("a", 400u64), ("b", 900)] {
            store.enroll(
                name,
                TokenPairing::Sms {
                    phone: PhoneNumber::parse("5125551234").unwrap(),
                    pending: Some(PendingSmsCode {
                        code: "222222".into(),
                        sent_at: 100,
                        expires_at,
                    }),
                },
            );
        }
        assert_eq!(store.purge_expired_sms(500), 1);
        assert!(matches!(
            store.get("a").unwrap().pairing,
            TokenPairing::Sms { pending: None, .. }
        ));
        assert!(matches!(
            store.get("b").unwrap().pairing,
            TokenPairing::Sms {
                pending: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn gauge_counts_purge_and_census_in_one_pass() {
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
        assert_eq!(store.gauge_counts(500), (1, 1));
        // The census purged the stale code durably in memory.
        assert!(matches!(
            store.get("stale").unwrap().pairing,
            TokenPairing::Sms { pending: None, .. }
        ));
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
    fn breakdown_counts() {
        let store = TokenStore::new();
        store.enroll("a", totp_pairing(TotpProvenance::Soft));
        store.enroll("b", totp_pairing(TotpProvenance::Soft));
        store.enroll("c", totp_pairing(TotpProvenance::Hard));
        let b = store.breakdown();
        assert_eq!(b.get("soft"), Some(&2));
        assert_eq!(b.get("hard"), Some(&1));
        assert_eq!(b.get("sms"), None);
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
        // The rebuilt floor still expires the reloaded code on time.
        assert_eq!(store.gauge_counts(300), (1, 0));
    }

    #[test]
    fn expiry_floor_skips_unexpirable_shards_but_never_misses() {
        let store = TokenStore::new();
        // Many codes with staggered expiries across shards.
        for i in 0..40u64 {
            store.enroll(
                &format!("user{i:03}"),
                TokenPairing::Sms {
                    phone: PhoneNumber::parse("5125551234").unwrap(),
                    pending: Some(PendingSmsCode {
                        code: "111111".into(),
                        sent_at: 0,
                        expires_at: 100 + i * 10,
                    }),
                },
            );
        }
        assert_eq!(store.gauge_counts(0), (0, 40));
        // Expire roughly half; the gauge must reflect exactly the survivors.
        let now = 100 + 19 * 10 + 1; // codes 0..=19 expired
        assert_eq!(store.gauge_counts(now), (0, 20));
        // And all of them eventually.
        assert_eq!(store.gauge_counts(100 + 39 * 10), (0, 0));
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
