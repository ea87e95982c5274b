//! The OTP back end: a LinOTP-work-alike validation server.
//!
//! The paper's §3.1 back end is "an open source OTP-platform" holding "a
//! repository that keeps track of users and their associated one-time
//! password secret key", reachable only through trusted RADIUS servers, with
//! a web admin interface for staff. This crate reproduces that component:
//!
//! * [`store`] — the token database (the MariaDB substitute): pairings for
//!   soft/hard TOTP tokens, SMS tokens, and static training tokens, with
//!   replay nullification and per-user failure counters.
//! * [`server`] — the validation engine: token-code checks with drift
//!   windows, the 20-consecutive-failure lockout (§3.1), SMS triggering
//!   with "already sent" suppression (§3.3), and resynchronization.
//! * [`sms`] — the Twilio-substitute SMS gateway with the paper's cost
//!   model ($1/month + $0.0075 per US message) and a carrier-delay model
//!   that occasionally delivers codes after expiry, as §5 reports.
//! * [`audit`] — the audit log admins consult ("Admins can view user
//!   pairings, re-synchronize tokens, access audit logs, and clear failure
//!   counters", §3.1).
//! * [`handler`] — the RADIUS [`Handler`](hpcmfa_radius::server::Handler)
//!   bridging Access-Requests to the validation engine, implementing the
//!   challenge–response flow of Figure 2.
//! * [`admin`] — the administrative REST-style interface the portal drives
//!   over HTTP digest auth (§3.5), with [`json`] as its wire format.

#![forbid(unsafe_code)]

pub mod admin;
pub mod audit;
pub mod durability;
pub mod handler;
pub mod json;
pub mod overload;
pub mod server;
pub mod sms;
pub mod store;

pub use durability::{
    recover, ApplyResult, ClusterBackend, FileBackend, LinkFaultPlan, MemoryBackend, OtpCluster,
    Persistence, RecoverError, RecoveryReport, ReplEnvelope, ReplFrame, ReplicationMode,
    StandbyNode, StorageBackend, StorageError, StorageFaultPlan,
};
pub use handler::OtpRadiusHandler;
pub use overload::OverloadConfig;
pub use server::{LinotpServer, ResumeConsumeOutcome, ValidationOutcome};
pub use sms::{SmsProvider, TwilioSim};

/// Consecutive failed validations before a user account is temporarily
/// deactivated ("a threshold of 20 consecutive failed attempts must occur
/// before a user account is temporarily deactivated", §3.1).
pub const LOCKOUT_THRESHOLD: u32 = 20;

/// Seconds an SMS-delivered token code stays valid.
pub const SMS_CODE_VALIDITY_SECS: u64 = 300;

/// Drift tolerance for TOTP validation, in seconds (§3.3: 300 s).
pub const DRIFT_TOLERANCE_SECS: u64 = 300;
