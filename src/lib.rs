//! Umbrella crate for the Securing HPC MFA infrastructure reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can use a single dependency.

#![forbid(unsafe_code)]

pub use hpcmfa_core as core;
pub use hpcmfa_crypto as crypto;
pub use hpcmfa_directory as directory;
pub use hpcmfa_federation as federation;
pub use hpcmfa_otp as otp;
pub use hpcmfa_otpserver as otpserver;
pub use hpcmfa_pam as pam;
pub use hpcmfa_portal as portal;
pub use hpcmfa_radius as radius;
pub use hpcmfa_risk as risk;
pub use hpcmfa_ssh as ssh;
pub use hpcmfa_telemetry as telemetry;
pub use hpcmfa_workload as workload;
