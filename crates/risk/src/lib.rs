//! The paper's growth path, §6: "This software infrastructure is freely
//! available for open source distribution and is ready to be grown to
//! incorporate new features including geolocation services, dynamic risk
//! assessment, or biometric security."
//!
//! This crate implements the first two as one drop-in PAM module that
//! slots into the Figure 1 stack without touching the existing components:
//!
//! * [`geo`] — a GeoIP-style database (CIDR → country) the engine reads
//!   a login's country from.
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
