//! The stock first-factor password module (the `pam_unix` role in
//! Figure 1): "an existing PAM module instead ensures that the user enters
//! an appropriate password as their first factor of authentication" (§3.4).
//!
//! Credentials live in the LDAP directory as salted SHA-256 digests in the
//! `userPassword` attribute, format `{SSHA256}salt$hex`.

use crate::context::PamContext;
use crate::conv::{ConvError, Prompt};
use crate::stack::{PamModule, PamResult};
use hpcmfa_crypto::sha256::Sha256;
use hpcmfa_crypto::Digest;
use hpcmfa_directory::ldap::{Directory, Filter};
use std::sync::Arc;

/// The directory attribute holding the password hash.
pub const PASSWORD_ATTR: &str = "userPassword";

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `hex(sha256(salt || pw))`, lower case, on the stack.
fn digest_hex(password: &str, salt: &str) -> [u8; 64] {
    let mut h = Sha256::new();
    h.update(salt.as_bytes());
    h.update(password.as_bytes());
    let mut hex = [0u8; 64];
    for (pair, b) in hex.chunks_exact_mut(2).zip(h.finalize()) {
        pair.copy_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
    }
    hex
}

/// Hash a password for storage: `{SSHA256}salt$hex(sha256(salt || pw))`.
pub fn hash_password(password: &str, salt: &str) -> String {
    let mut record = format!("{{SSHA256}}{salt}$");
    record.extend(digest_hex(password, salt).map(char::from));
    record
}

/// The salt and digest of a well-formed `{SSHA256}salt$hex` record.
fn parts_of(stored: &str) -> Option<(&str, &str)> {
    stored.strip_prefix("{SSHA256}")?.split_once('$')
}

/// Verify a candidate against a stored hash: the candidate's digest,
/// hex-encoded on the stack, against the record's in constant time.
/// Allocates nothing.
pub fn verify_password(candidate: &str, stored: &str) -> bool {
    let Some((salt, hex)) = parts_of(stored) else {
        return false;
    };
    hpcmfa_crypto::ct::ct_eq(&digest_hex(candidate, salt), hex.as_bytes())
}

/// What the password of a user the directory does not hold is checked
/// against: `hash_password("no such user", "nobody")`. With the lookup a
/// constant-time index probe, answering an unknown name before any hash
/// would tell it from a known one by the clock alone.
const NOBODY_RECORD: &str =
    "{SSHA256}nobody$3e3d73710f2685a3f95312e66611eef2d47e1d5d5f5071e4508af8641c271b06";

/// The password-checking module.
pub struct UnixPasswordModule {
    directory: Directory,
    base: String,
}

impl UnixPasswordModule {
    /// Check passwords against entries under `base` in `directory`.
    pub fn new(directory: Directory, base: &str) -> Arc<Self> {
        Arc::new(UnixPasswordModule {
            directory,
            base: base.to_string(),
        })
    }
}

impl PamModule for UnixPasswordModule {
    fn name(&self) -> &'static str {
        "pam_unix"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let answer = match ctx.conv.converse(&Prompt::EchoOff("Password: ".into())) {
            Ok(a) => a,
            Err(ConvError::Aborted) | Err(ConvError::Unsupported) => return PamResult::Abort,
        };
        let hits = self
            .directory
            .search(&self.base, &Filter::eq("uid", &ctx.username));
        // A stored record that is itself malformed counts as none.
        let stored = hits
            .first()
            .and_then(|e| e.get_one(PASSWORD_ATTR))
            .filter(|record| parts_of(record).is_some());
        // Unknown user: indistinguishable from a bad password, in the
        // verdict and in the work done for it.
        let matches = verify_password(&answer, stored.unwrap_or(NOBODY_RECORD));
        if matches && stored.is_some() {
            PamResult::Success
        } else {
            PamResult::AuthErr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ScriptedConversation;
    use hpcmfa_directory::ldap::Entry;
    use hpcmfa_otp::clock::SimClock;
    use std::net::Ipv4Addr;

    /// The password [`NOBODY_RECORD`] was hashed from.
    const NOBODY_PASSWORD: &str = "no such user";

    fn directory_with(user: &str, password: &str) -> Directory {
        let dir = Directory::new();
        dir.add(
            Entry::new(format!("uid={user},ou=people,dc=tacc"))
                .with_attr("uid", user)
                .with_attr(PASSWORD_ATTR, &hash_password(password, "s4lt")),
        )
        .unwrap();
        dir
    }

    fn run(module: &UnixPasswordModule, user: &str, answers: Vec<&str>) -> PamResult {
        let mut conv = ScriptedConversation::with_answers(answers);
        let mut ctx = PamContext::new(
            user,
            Ipv4Addr::new(8, 8, 8, 8),
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        module.authenticate(&mut ctx)
    }

    #[test]
    fn hash_and_verify() {
        let h = hash_password("hunter2", "abc");
        assert!(h.starts_with("{SSHA256}abc$"));
        assert!(verify_password("hunter2", &h));
        assert!(!verify_password("hunter3", &h));
        assert!(!verify_password("hunter2", "plaintext"));
        assert!(!verify_password("hunter2", "{SSHA256}missing-dollar"));
    }

    #[test]
    fn salts_produce_distinct_hashes() {
        assert_ne!(hash_password("pw", "salt1"), hash_password("pw", "salt2"));
    }

    #[test]
    fn correct_password_succeeds() {
        let dir = directory_with("alice", "correct horse");
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        assert_eq!(run(&m, "alice", vec!["correct horse"]), PamResult::Success);
    }

    #[test]
    fn wrong_password_fails() {
        let dir = directory_with("alice", "correct horse");
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        assert_eq!(run(&m, "alice", vec!["battery staple"]), PamResult::AuthErr);
    }

    #[test]
    fn unknown_user_fails_identically() {
        let dir = directory_with("alice", "pw");
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        assert_eq!(run(&m, "mallory", vec!["pw"]), PamResult::AuthErr);
    }

    #[test]
    fn the_nobody_record_is_well_formed() {
        // It takes the whole hash-and-compare path, not an early return.
        assert!(verify_password(NOBODY_PASSWORD, NOBODY_RECORD));
    }

    #[test]
    fn nobody_logs_in_with_the_nobody_password() {
        let dir = directory_with("alice", "pw");
        dir.add(Entry::new("uid=nopass,ou=people,dc=tacc").with_attr("uid", "nopass"))
            .unwrap();
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        // Absent from the directory, and present without a password.
        for user in ["mallory", "nopass"] {
            assert_eq!(run(&m, user, vec![NOBODY_PASSWORD]), PamResult::AuthErr);
        }
    }

    #[test]
    fn malformed_records_are_checked_like_missing_ones() {
        let dir = Directory::new();
        for (user, record) in [("plain", "garbage"), ("nosalt", "{SSHA256}nosalt")] {
            dir.add(
                Entry::new(format!("uid={user},ou=people,dc=tacc"))
                    .with_attr("uid", user)
                    .with_attr(PASSWORD_ATTR, record),
            )
            .unwrap();
        }
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        for user in ["plain", "nosalt"] {
            for answer in ["garbage", "{SSHA256}nosalt", "", NOBODY_PASSWORD] {
                assert_eq!(run(&m, user, vec![answer]), PamResult::AuthErr);
            }
        }
    }

    #[test]
    fn conversation_failure_aborts() {
        let dir = directory_with("alice", "pw");
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        assert_eq!(run(&m, "alice", vec![]), PamResult::Abort);
    }

    #[test]
    fn prompt_is_echo_off() {
        let dir = directory_with("alice", "pw");
        let m = UnixPasswordModule::new(dir, "dc=tacc");
        let mut conv = ScriptedConversation::with_answers(["pw"]);
        let transcript = conv.transcript();
        let mut ctx = PamContext::new(
            "alice",
            Ipv4Addr::new(8, 8, 8, 8),
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        m.authenticate(&mut ctx);
        let t = transcript.lock();
        assert!(matches!(t[0].prompt, Prompt::EchoOff(_)));
    }
}
