//! LDAP-style directory service and identity-management database.
//!
//! The paper's infrastructure hangs off an existing identity plant:
//!
//! * "The LinOTP user repository is an encrypted MariaDB relational database
//!   that extends an existing identity management database reserved for
//!   Lightweight Directory Access Protocol (LDAP) queries. When a user
//!   account is created, an LDAP entry is generated including a unique user
//!   ID that becomes common to both databases." (§3.1)
//! * The PAM token module "queries for existing LDAP entries on the
//!   authenticating user to distinguish between possible authentication
//!   routes" (§3.4) — i.e. the user's MFA pairing type lives in the
//!   directory.
//! * The portal "notifies the identity management back end that the user has
//!   configured multi-factor authentication and which method" (§3.5).
//!
//! [`ldap`] implements the directory: DN-addressed entries with multi-valued
//! attributes and RFC 4515-style search filters. [`identity`]
//! implements the account database the portal updates. Both are thread-safe
//! (`parking_lot::RwLock`) because login nodes, RADIUS servers, and the
//! portal query them concurrently.

#![forbid(unsafe_code)]

pub mod identity;
pub mod ldap;

/// The attribute the token module inspects to learn a user's pairing type.
pub const MFA_PAIRING_ATTR: &str = "mfaPairing";

/// The attribute holding the unique numeric user ID shared between the LDAP
/// directory and the token database (§3.1).
pub const UID_NUMBER_ATTR: &str = "uidNumber";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_attribute_names() {
        // These names are part of the cross-crate contract with hpcmfa-pam
        // and hpcmfa-portal; changing them is a breaking change.
        assert_eq!(MFA_PAIRING_ATTR, "mfaPairing");
        assert_eq!(UID_NUMBER_ATTR, "uidNumber");
    }
}
