//! The assembled center: every paper component wired together.
//!
//! [`Center`] stands up the full §3 architecture in one call — identity
//! plant (LDAP + identity DB), LinOTP-substitute OTP server with its
//! Twilio-substitute SMS gateway and admin API, a FreeRADIUS-substitute
//! server fleet with fault injection, the user portal, and a set of login
//! nodes whose sshd hands authentication to the Figure 1 PAM stack.
//!
//! Everything runs against one shared [`SimClock`], so integration tests,
//! examples, and the five-month rollout simulation in
//! `hpcmfa-workload` are deterministic and fast.

#![forbid(unsafe_code)]

pub mod center;

pub use center::{Center, CenterConfig, FederationParams, LoginNode};

pub use hpcmfa_otp::clock::{Clock, SimClock};
