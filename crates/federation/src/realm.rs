//! `user@site` principal parsing.
//!
//! Federated logins name the user's home realm with an `@` suffix, the
//! same convention Kerberos cross-realm principals and eduroam outer
//! identities use. Parsing is deliberately forgiving: anything that does
//! not look like `user@realm` (empty user, empty realm, no `@` at all) is
//! treated as a bare local username, because rejecting a weird-but-local
//! account name at the parser would lock out users the directory is
//! perfectly happy to serve.

/// A parsed login name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Principal {
    /// The bare username, with any realm suffix removed.
    pub user: String,
    /// The named realm, if the login name carried one.
    pub realm: Option<String>,
}

/// Split `name` into (user, realm). The *last* `@` wins, so an exotic
/// local part containing `@` still routes on its trailing realm.
pub fn split_principal(name: &str) -> Principal {
    match name.rsplit_once('@') {
        Some((user, realm)) if !user.is_empty() && !realm.is_empty() => Principal {
            user: user.to_string(),
            realm: Some(realm.to_string()),
        },
        _ => Principal {
            user: name.to_string(),
            realm: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_name_has_no_realm() {
        let p = split_principal("alice");
        assert_eq!(p.user, "alice");
        assert_eq!(p.realm, None);
    }

    #[test]
    fn suffixed_name_splits() {
        let p = split_principal("alice@psc");
        assert_eq!(p.user, "alice");
        assert_eq!(p.realm.as_deref(), Some("psc"));
    }

    #[test]
    fn last_at_wins() {
        let p = split_principal("alice@laptop@tacc");
        assert_eq!(p.user, "alice@laptop");
        assert_eq!(p.realm.as_deref(), Some("tacc"));
    }

    #[test]
    fn degenerate_forms_stay_local() {
        for name in ["@tacc", "alice@", "@", ""] {
            let p = split_principal(name);
            assert_eq!(p.user, name);
            assert_eq!(p.realm, None, "{name:?} must not parse a realm");
        }
    }
}
