//! The paper's growth path, §6: "This software infrastructure is freely
//! available for open source distribution and is ready to be grown to
//! incorporate new features including geolocation services, dynamic risk
//! assessment, or biometric security."
//!
//! This crate implements the first two as drop-in PAM modules that slot
//! into the Figure 1 stack without touching the existing components:
//!
//! * [`geo`] — a GeoIP-style database (CIDR → country) and a per-user
//!   country policy, exposed as [`geo::GeoGateModule`]: deployed
//!   `requisite` ahead of the exemption module, it denies (or merely
//!   flags) logins from countries the account never uses.
//! * [`engine`] — a per-user behavioural risk engine scoring each attempt
//!   (new country, new network, impossible travel, failure velocity),
//!   exposed as [`engine::RiskGateModule`] with deny / step-up / allow
//!   outcomes. "Step-up" marks the context so a following exemption
//!   module can be skipped — risky logins lose their MFA bypass.

#![forbid(unsafe_code)]

pub mod engine;
pub mod geo;

pub use engine::{RiskEngine, RiskGateModule, RiskWeights};
pub use geo::GeoDb;
