//! SSH public keys and fingerprints.
//!
//! Key material is modeled as opaque named blobs with SHA-256 fingerprints
//! — the cryptographic handshake itself is orthogonal to the MFA logic
//! being reproduced (sshd either verified a key or it did not; the PAM
//! stack only ever learns the outcome through the auth log).

use hpcmfa_crypto::base64;
use hpcmfa_crypto::sha256::sha256;

/// A public key as it appears in `authorized_keys`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Key type label, e.g. `ssh-ed25519`.
    pub algo: String,
    /// Key blob (opaque).
    pub blob: Vec<u8>,
}

impl PublicKey {
    /// OpenSSH-style fingerprint: `SHA256:` + unpadded base64 of the digest.
    pub(crate) fn fingerprint(&self) -> String {
        let mut data = self.algo.as_bytes().to_vec();
        data.extend_from_slice(&self.blob);
        format!("SHA256:{}", base64::encode_url(&sha256(&data)))
    }
}

/// A user-held keypair. The private half is a capability: possessing the
/// `KeyPair` lets a client pass the daemon's authorized-key check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    public: PublicKey,
}

impl KeyPair {
    /// Deterministically derive a keypair from a seed label (tests and the
    /// population generator use `user@host` labels).
    pub fn generate(seed_label: &str) -> Self {
        let blob = sha256(format!("key-material:{seed_label}").as_bytes()).to_vec();
        KeyPair {
            public: PublicKey {
                algo: "ssh-ed25519".to_string(),
                blob,
            },
        }
    }

    /// The shareable public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = KeyPair::generate("alice@laptop");
        let b = KeyPair::generate("bob@laptop");
        assert_eq!(a.public().fingerprint(), a.public().fingerprint());
        assert_ne!(a.public().fingerprint(), b.public().fingerprint());
        assert!(a.public().fingerprint().starts_with("SHA256:"));
    }

    #[test]
    fn same_seed_same_key() {
        assert_eq!(KeyPair::generate("x"), KeyPair::generate("x"));
    }
}
