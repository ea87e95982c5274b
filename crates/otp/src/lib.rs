//! One-time-password algorithms and token-device models.
//!
//! Implements the algorithmic heart of the paper's second factor:
//!
//! * [`hotp()`](hotp::hotp) — HMAC-based OTP, RFC 4226 (counter mode), with the dynamic
//!   truncation the RFC specifies.
//! * [`totp`] — time-based OTP, RFC 6238: the "six digit, timed-based one
//!   time password, known colloquially as a token code" (§1) generated
//!   "every 30 seconds using the combination of the current time and a
//!   secret key" (§3.3).
//! * [`uri`] — `otpauth://` provisioning URIs, the payload of the QR code
//!   the portal shows during soft-token pairing.
//! * [`qr`] — a minimal QR-payload model so the pairing flow exercises a
//!   render/import round trip without an imaging stack.
//! * [`device`] — concrete token devices: the smartphone soft token with
//!   bounded clock drift and the Feitian-style hard token fob with a serial
//!   number.
//!
//! All code is validated against the RFC 4226 Appendix D and RFC 6238
//! Appendix B test vectors.

#![forbid(unsafe_code)]

pub mod clock;
pub mod date;
pub mod device;
pub mod hotp;
pub mod qr;
pub mod secret;
pub mod totp;
pub mod uri;

pub use secret::Secret;
pub use totp::{Totp, TotpParams};

/// Number of decimal digits in a token code. The paper uses six everywhere.
const DEFAULT_DIGITS: u32 = 6;

/// TOTP time step in seconds ("a code is generated every 30 seconds", §3.3).
const DEFAULT_STEP_SECS: u64 = 30;

/// Maximum tolerated client clock drift in seconds: "the smartphone keep a
/// time that does not drift more than a time delta of 300 seconds from the
/// LinOTP server's time" (§3.3). The server's own copy is
/// `hpcmfa_otpserver::DRIFT_TOLERANCE_SECS`; the window tests scan this one.
#[cfg(test)]
const MAX_DRIFT_SECS: u64 = 300;

/// Render an OTP value as a zero-padded decimal code of `digits` digits.
fn format_code(value: u32, digits: u32) -> String {
    format!("{value:0width$}", width = digits as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_code_pads() {
        assert_eq!(format_code(42, 6), "000042");
        assert_eq!(format_code(999999, 6), "999999");
        assert_eq!(format_code(0, 8), "00000000");
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(DEFAULT_DIGITS, 6);
        assert_eq!(DEFAULT_STEP_SECS, 30);
        assert_eq!(MAX_DRIFT_SECS, 300);
    }
}
