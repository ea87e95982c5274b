//! The evaluation engine: a deterministic replay of the paper's §5 rollout.
//!
//! The paper's evaluation is observational — five months of production
//! telemetry across a ~10,000-account population. This crate substitutes a
//! seeded synthetic population with the cohort structure the paper
//! describes (interactive researchers, the "minority of users responsible
//! for the majority of entries" running automated workflows, trusted
//! gateway/community accounts, staff, training accounts) and replays the
//! calendar 2016-07-01 → 2017-03-31 against a real [`Center`]: every
//! simulated SSH login runs the full PAM → RADIUS → OTP-server code path;
//! every pairing runs the real portal flows.
//!
//! * `population` — cohorts, device-choice model (Table 1), adoption-day
//!   model (Figures 3/6 spikes), activity rates.
//! * [`rollout`] — the day-by-day simulator: phase transitions on
//!   2016-08-10 / 09-06 / 10-04, login traffic, automated-workflow
//!   disruption and migration, ticket generation, daily aggregation.
//! * [`figures`] — series extraction for Figures 3–6 and Table 1, plus
//!   terminal rendering for the regeneration binaries.
//! * [`chaos`] — scripted fault-injection scenarios (outages, rolling
//!   restarts, packet loss, garble storms) replayed against a center under
//!   a live login stream, reporting availability and breaker behaviour.
//! * [`attack`] — seeded adversarial scenarios (credential stuffing,
//!   password spraying, token phishing, SMS floods, slow-and-low probing)
//!   replayed against the full defense stack, reporting detection
//!   precision/recall, shed rates, and benign collateral.
//!
//! [`Center`]: hpcmfa_core::center::Center

#![forbid(unsafe_code)]

pub mod attack;
pub mod chaos;
pub mod federation;
pub mod figures;
mod population;
pub mod rollout;

pub use attack::AttackReport;
