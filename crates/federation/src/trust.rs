//! Cross-site trust configuration.
//!
//! Federation is pairwise and explicit: a site routes logins only for
//! realms it has exchanged a shared secret with. There is no transitive
//! trust — exactly the posture the InCommon/eduGAIN federations impose on
//! their members.

/// One federation peer: a realm this site will route logins to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealmPeer {
    /// Realm name (`psc`, `ncsa`, ...).
    pub realm: String,
    /// Shared RADIUS secret for the proxy ↔ peer leg.
    pub secret: Vec<u8>,
}

impl RealmPeer {
    /// A peer reached under `secret`.
    pub fn new(realm: &str, secret: impl Into<Vec<u8>>) -> Self {
        RealmPeer {
            realm: realm.to_string(),
            secret: secret.into(),
        }
    }
}

/// A site's complete trust configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrustConfig {
    /// The realm this site answers for locally; `user@home` and bare
    /// `user` are equivalent.
    pub home_realm: String,
    /// Realms this site will proxy to. Order is the ACL order reported
    /// to operators; lookup is by name.
    pub peers: Vec<RealmPeer>,
}

impl TrustConfig {
    /// A config with no peers (federation disabled beyond the home realm).
    pub fn local_only(home_realm: &str) -> Self {
        TrustConfig {
            home_realm: home_realm.to_string(),
            peers: Vec::new(),
        }
    }

    /// Is `realm` the home realm?
    pub fn is_home(&self, realm: &str) -> bool {
        realm == self.home_realm
    }

    /// The allowed-realm ACL: home plus every configured peer.
    pub fn is_allowed(&self, realm: &str) -> bool {
        self.is_home(realm) || self.peer(realm).is_some()
    }

    /// Look up a peer by realm name.
    pub fn peer(&self, realm: &str) -> Option<&RealmPeer> {
        self.peers.iter().find(|p| p.realm == realm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acl_is_home_plus_peers() {
        let trust = TrustConfig {
            home_realm: "tacc".into(),
            peers: vec![RealmPeer::new("psc", b"s1".to_vec())],
        };
        assert!(trust.is_allowed("tacc"));
        assert!(trust.is_allowed("psc"));
        assert!(!trust.is_allowed("ncsa"));
        assert!(trust.is_home("tacc"));
        assert!(!trust.is_home("psc"));
        assert_eq!(trust.peer("psc").unwrap().secret, b"s1");
        assert!(trust.peer("tacc").is_none(), "home realm is not a peer");
    }

    #[test]
    fn local_only_denies_everything_foreign() {
        let trust = TrustConfig::local_only("tacc");
        assert!(trust.is_allowed("tacc"));
        assert!(!trust.is_allowed("psc"));
    }
}
