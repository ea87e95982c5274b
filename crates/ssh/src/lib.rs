//! SSH entry into the HPC systems.
//!
//! "Entry into TACC's HPC systems occurs predominately in two forms, both
//! of which utilize the SSH network protocol" (§2). This crate models the
//! slice of SSH that the MFA deployment touches:
//!
//! * [`keys`] — public keys, fingerprints, `authorized_keys` checks.
//! * [`authlog`] — the secure system entry log. It backs two things from
//!   the paper: the in-house PAM module that "searches recent local secure
//!   system entry logs" for pubkey success (§3.4), and the §4.1
//!   information-gathering audit of login events and TTY usage.
//! * [`daemon`] — the sshd authentication state machine: authorized-key
//!   check, hand-off to the PAM stack, password retry ("up to a maximum of
//!   two more times before SSH disconnect", §3.4), banner, and session
//!   reporting.
//! * [`client`] — client-side behaviours: interactive users,
//!   keyboard-interactive capable GUI clients, and the scripted batch
//!   clients whose workflows the transition disrupted.
//! * [`multiplex`] — SSH connection multiplexing, "perhaps most popular of
//!   all" the §5 mitigation strategies: one MFA login, many channels.
//! * [`survey`] — the §4.1 login-event analysis used to target automated
//!   workflows for outreach.

#![forbid(unsafe_code)]

pub mod authlog;
pub mod client;
pub mod daemon;
pub mod keys;
pub mod multiplex;
pub mod survey;

pub use authlog::{AuthLog, AuthMethod, LogEntry};
pub use client::{ClientProfile, ConnectionRequest, CredentialResponder};
pub use daemon::{SessionReport, SshDaemon};
pub use keys::{KeyPair, PublicKey};
pub use multiplex::MultiplexedConnection;
