//! The identity-management database.
//!
//! This is the account-of-record system the portal talks to: it stores each
//! account's state and "the current state pertaining to user's MFA pairing
//! status" (§4.2). It deliberately does **not** hold token secrets — those
//! live only in the OTP server's token store, preserving the paper's
//! "information firewall between different pieces of the multi-factor
//! authentication process" (§3.5).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The pairing method recorded by the identity back end. Mirrors the token
/// kinds of `hpcmfa-otp` without depending on it (the identity plant
/// predates MFA and knows only labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairingMethod {
    /// Smartphone app.
    Soft,
    /// SMS delivery.
    Sms,
    /// Key fob.
    Hard,
    /// Training static code.
    Training,
}

impl PairingMethod {
    /// Stable lower-case label stored in the LDAP `mfaPairing` attribute.
    pub fn label(self) -> &'static str {
        match self {
            PairingMethod::Soft => "soft",
            PairingMethod::Sms => "sms",
            PairingMethod::Hard => "hard",
            PairingMethod::Training => "training",
        }
    }
}

/// Administrative account state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccountState {
    /// Normal, usable account.
    #[default]
    Active,
    /// Disabled by staff.
    Suspended,
}

/// One account record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountRecord {
    /// Login name.
    pub username: String,
    /// Unique numeric user ID shared with the token database (§3.1).
    pub uid_number: u64,
    /// Contact email (target of signed unpairing URLs).
    pub email: String,
    /// Administrative state.
    pub state: AccountState,
    /// Current MFA pairing, if any.
    pub pairing: Option<PairingMethod>,
    /// Unix time of the last pairing change, for reporting.
    pub pairing_changed_at: Option<u64>,
}

/// A change to a pairing, kept for audit and for Figure 6 (new pairings per
/// day).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairingEvent {
    /// Account affected.
    pub username: String,
    /// `Some(method)` for a pairing, `None` for an unpairing.
    pub method: Option<PairingMethod>,
    /// Unix time of the change.
    pub at: u64,
}

/// Identity DB errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentityError {
    /// Account name already taken.
    DuplicateUsername(String),
    /// Unknown account.
    NoSuchAccount(String),
}

impl std::fmt::Display for IdentityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdentityError::DuplicateUsername(u) => write!(f, "duplicate username: {u}"),
            IdentityError::NoSuchAccount(u) => write!(f, "no such account: {u}"),
        }
    }
}

impl std::error::Error for IdentityError {}

#[derive(Default)]
struct Inner {
    accounts: BTreeMap<String, AccountRecord>,
    next_uid: u64,
    pairing_log: Vec<PairingEvent>,
}

/// The identity-management database. Clone shares state.
#[derive(Clone, Default)]
pub struct IdentityDb {
    inner: Arc<RwLock<Inner>>,
}

impl IdentityDb {
    /// Create an empty database. UID numbers start at 10000, like a typical
    /// HPC site's people range.
    pub fn new() -> Self {
        let db = IdentityDb::default();
        db.inner.write().next_uid = 10_000;
        db
    }

    /// Register a new account; allocates the shared unique user ID.
    pub fn create_account(
        &self,
        username: &str,
        email: &str,
    ) -> Result<AccountRecord, IdentityError> {
        let mut inner = self.inner.write();
        if inner.accounts.contains_key(username) {
            return Err(IdentityError::DuplicateUsername(username.to_string()));
        }
        let uid_number = inner.next_uid;
        inner.next_uid += 1;
        let rec = AccountRecord {
            username: username.to_string(),
            uid_number,
            email: email.to_string(),
            state: AccountState::Active,
            pairing: None,
            pairing_changed_at: None,
        };
        inner.accounts.insert(username.to_string(), rec.clone());
        Ok(rec)
    }

    /// Fetch an account.
    pub fn get(&self, username: &str) -> Option<AccountRecord> {
        self.inner.read().accounts.get(username).cloned()
    }

    /// Record that `username` paired with `method` at time `at` — the
    /// portal's §3.5 notification.
    pub fn set_pairing(
        &self,
        username: &str,
        method: PairingMethod,
        at: u64,
    ) -> Result<(), IdentityError> {
        let mut inner = self.inner.write();
        let rec = inner
            .accounts
            .get_mut(username)
            .ok_or_else(|| IdentityError::NoSuchAccount(username.to_string()))?;
        rec.pairing = Some(method);
        rec.pairing_changed_at = Some(at);
        inner.pairing_log.push(PairingEvent {
            username: username.to_string(),
            method: Some(method),
            at,
        });
        Ok(())
    }

    /// Record that `username` unpaired at time `at`.
    pub fn clear_pairing(&self, username: &str, at: u64) -> Result<(), IdentityError> {
        let mut inner = self.inner.write();
        let rec = inner
            .accounts
            .get_mut(username)
            .ok_or_else(|| IdentityError::NoSuchAccount(username.to_string()))?;
        rec.pairing = None;
        rec.pairing_changed_at = Some(at);
        inner.pairing_log.push(PairingEvent {
            username: username.to_string(),
            method: None,
            at,
        });
        Ok(())
    }

    /// All pairing events so far (Figure 6's raw series).
    pub fn pairing_log(&self) -> Vec<PairingEvent> {
        self.inner.read().pairing_log.clone()
    }

    /// Current pairing-type breakdown over paired accounts, as fractions in
    /// Table 1 order: soft, sms, hard, training. Returns `None` when no
    /// account is paired.
    pub fn pairing_breakdown(&self) -> Option<[f64; 4]> {
        let inner = self.inner.read();
        let mut counts = [0usize; 4];
        for rec in inner.accounts.values() {
            if let Some(p) = rec.pairing {
                let idx = match p {
                    PairingMethod::Soft => 0,
                    PairingMethod::Sms => 1,
                    PairingMethod::Hard => 2,
                    PairingMethod::Training => 3,
                };
                counts[idx] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return None;
        }
        Some(counts.map(|c| c as f64 / total as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_allocates_unique_uids() {
        let db = IdentityDb::new();
        let a = db.create_account("alice", "alice@utexas.edu").unwrap();
        let b = db.create_account("bob", "bob@utexas.edu").unwrap();
        assert_eq!(a.uid_number, 10_000);
        assert_eq!(b.uid_number, 10_001);
        assert_eq!(
            db.create_account("alice", "dup@x.org"),
            Err(IdentityError::DuplicateUsername("alice".into()))
        );
    }

    #[test]
    fn pairing_lifecycle_and_log() {
        let db = IdentityDb::new();
        db.create_account("alice", "a@x.org").unwrap();
        db.set_pairing("alice", PairingMethod::Soft, 100).unwrap();
        assert_eq!(db.get("alice").unwrap().pairing, Some(PairingMethod::Soft));
        db.clear_pairing("alice", 200).unwrap();
        assert_eq!(db.get("alice").unwrap().pairing, None);
        let log = db.pairing_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].method, Some(PairingMethod::Soft));
        assert_eq!(log[1].method, None);
        assert_eq!(log[1].at, 200);
    }

    #[test]
    fn unknown_account_errors() {
        let db = IdentityDb::new();
        assert!(db.set_pairing("ghost", PairingMethod::Sms, 0).is_err());
        assert!(db.clear_pairing("ghost", 0).is_err());
    }

    #[test]
    fn breakdown_fractions() {
        let db = IdentityDb::new();
        for (i, m) in [
            PairingMethod::Soft,
            PairingMethod::Soft,
            PairingMethod::Sms,
            PairingMethod::Hard,
        ]
        .iter()
        .enumerate()
        {
            let name = format!("u{i}");
            db.create_account(&name, "x@x.org").unwrap();
            db.set_pairing(&name, *m, 0).unwrap();
        }
        // One unpaired account must not affect the denominator.
        db.create_account("unpaired", "y@y.org").unwrap();
        let b = db.pairing_breakdown().unwrap();
        assert_eq!(b, [0.5, 0.25, 0.25, 0.0]);
    }

    #[test]
    fn breakdown_empty_is_none() {
        let db = IdentityDb::new();
        assert_eq!(db.pairing_breakdown(), None);
        db.create_account("u", "e@x.org").unwrap();
        assert_eq!(db.pairing_breakdown(), None);
    }
}
