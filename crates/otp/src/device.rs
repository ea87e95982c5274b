//! Token devices a user may possess (§3.3).
//!
//! Three device types:
//!
//! * **Soft token** — the in-house smartphone app (Google Authenticator
//!   lineage). Needs no network; its only failure mode is clock drift,
//!   which the server tolerates up to ±300 s.
//! * **Hard token** — a Feitian OTP c200-style fob: pre-programmed secret,
//!   serial number on the back used for pairing, single button, LCD.
//! * **SMS token** — the *server* generates the code and texts it; the
//!   "device" is just a phone number. Modeled in `hpcmfa-otpserver::sms`
//!   since all logic is server-side.
//!
//! The fourth pairing type, the static training code, lives in the token
//! store (`hpcmfa-otpserver`): no device generates it.

use crate::secret::Secret;
use crate::totp::{Totp, TotpParams};
use crate::uri::{OtpauthUri, UriError};

/// A smartphone soft token: secret imported by QR scan, codes generated
/// locally against the phone's (possibly drifting) clock.
#[derive(Debug, Clone)]
pub struct SoftToken {
    totp: Totp,
    /// Phone clock offset from true time, in seconds (positive = fast).
    pub clock_skew_secs: i64,
}

impl SoftToken {
    /// Import a scanned provisioning URI, as the app's QR reader does.
    pub fn from_uri(uri: &str) -> Result<Self, UriError> {
        let parsed = OtpauthUri::parse(uri)?;
        Ok(SoftToken {
            totp: Totp::with_params(parsed.secret, parsed.params),
            clock_skew_secs: 0,
        })
    }

    /// Direct construction (tests, hard-token emulation).
    pub fn new(secret: Secret, params: TotpParams) -> Self {
        SoftToken {
            totp: Totp::with_params(secret, params),
            clock_skew_secs: 0,
        }
    }

    /// Set the phone's clock skew.
    pub fn with_skew(mut self, skew_secs: i64) -> Self {
        self.clock_skew_secs = skew_secs;
        self
    }

    /// The code currently displayed, given the true time `unix_time`.
    pub fn displayed_code(&self, unix_time: u64) -> String {
        let local = unix_time.saturating_add_signed(self.clock_skew_secs);
        self.totp.code_at(local)
    }
}

/// A Feitian-style hard token fob.
///
/// Fobs arrive "pre-programmed with a secret key, all of which were provided
/// at the time of batch purchase" (§3.3); users pair by entering the serial
/// number printed on the back.
#[derive(Debug, Clone)]
pub struct HardToken {
    /// Printed serial number, e.g. `K1234567`.
    pub serial: String,
    totp: Totp,
    /// Fob oscillator drift in seconds (hard tokens drift slowly over
    /// years; the c200 spec is within a couple of minutes per year).
    pub clock_skew_secs: i64,
    /// Whether the battery is still good; a dead fob displays nothing.
    pub battery_ok: bool,
}

impl HardToken {
    /// Construct a fob as the factory does.
    pub(crate) fn new(serial: impl Into<String>, secret: Secret) -> Self {
        HardToken {
            serial: serial.into(),
            totp: Totp::new(secret),
            clock_skew_secs: 0,
            battery_ok: true,
        }
    }

    /// Press the button: the displayed code at true time `unix_time`, or
    /// `None` if the battery is dead.
    pub fn press_button(&self, unix_time: u64) -> Option<String> {
        if !self.battery_ok {
            return None;
        }
        let local = unix_time.saturating_add_signed(self.clock_skew_secs);
        Some(self.totp.code_at(local))
    }

    /// Access to the underlying generator.
    pub(crate) fn totp(&self) -> &Totp {
        &self.totp
    }
}

/// A batch of hard tokens as shipped by the vendor: serials plus seeds.
///
/// "The single button TOTP hard tokens came pre-programmed with a secret
/// key, all of which were provided at the time of batch purchase" (§3.3).
#[derive(Debug, Default)]
pub struct HardTokenBatch {
    /// The physical fobs.
    pub fobs: Vec<HardToken>,
}

impl HardTokenBatch {
    /// Manufacture `n` fobs with serials `prefix-0001...` using `rng` for
    /// the seeds.
    pub fn manufacture<R: rand::RngCore + ?Sized>(prefix: &str, n: usize, rng: &mut R) -> Self {
        let fobs = (0..n)
            .map(|i| HardToken::new(format!("{prefix}-{:04}", i + 1), Secret::generate(rng)))
            .collect();
        HardTokenBatch { fobs }
    }

    /// The seed file handed to the center at purchase: serial → secret.
    pub fn seed_file(&self) -> Vec<(String, Secret)> {
        self.fobs
            .iter()
            .map(|f| (f.serial.clone(), f.totp().secret.clone()))
            .collect()
    }

    /// Look up a fob by serial.
    pub fn by_serial(&self, serial: &str) -> Option<&HardToken> {
        self.fobs.iter().find(|f| f.serial == serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secret() -> Secret {
        Secret::from_bytes(*b"12345678901234567890")
    }

    #[test]
    fn soft_token_imports_uri_and_matches_server() {
        let uri = OtpauthUri::new("TACC", "alice", secret(), TotpParams::default());
        let app = SoftToken::from_uri(&uri.render()).unwrap();
        let server = Totp::new(secret());
        assert_eq!(
            app.displayed_code(1_475_000_000),
            server.code_at(1_475_000_000)
        );
    }

    #[test]
    fn skewed_clock_shows_adjacent_step_code() {
        let app = SoftToken::new(secret(), TotpParams::default()).with_skew(-45);
        let server = Totp::new(secret());
        let now = 1_475_000_000;
        // Skew -45 s puts the phone one-or-two steps behind.
        assert_eq!(app.displayed_code(now), server.code_at(now - 45));
        // Still within the ±300 s acceptance window.
        assert!(server
            .verify(&app.displayed_code(now), now, server.window_for_drift(300))
            .is_some());
    }

    #[test]
    fn excessive_skew_rejected_by_server_window() {
        let app = SoftToken::new(secret(), TotpParams::default()).with_skew(-400);
        let server = Totp::new(secret());
        let now = 1_475_000_000;
        assert!(server
            .verify(&app.displayed_code(now), now, server.window_for_drift(300))
            .is_none());
    }

    #[test]
    fn hard_token_button_and_battery() {
        let mut fob = HardToken::new("TACC-0001", secret());
        assert_eq!(
            fob.press_button(59).unwrap(),
            Totp::new(secret()).code_at(59)
        );
        fob.battery_ok = false;
        assert_eq!(fob.press_button(59), None);
    }

    #[test]
    fn batch_manufacture_unique_serials_and_secrets() {
        let mut rng = StdRng::seed_from_u64(1);
        let batch = HardTokenBatch::manufacture("TACC", 50, &mut rng);
        assert_eq!(batch.fobs.len(), 50);
        let serials: std::collections::HashSet<_> =
            batch.fobs.iter().map(|f| f.serial.clone()).collect();
        assert_eq!(serials.len(), 50);
        let secrets: std::collections::HashSet<_> = batch
            .seed_file()
            .into_iter()
            .map(|(_, s)| s.to_hex())
            .collect();
        assert_eq!(secrets.len(), 50);
        assert!(batch.by_serial("TACC-0007").is_some());
        assert!(batch.by_serial("TACC-9999").is_none());
    }
}
