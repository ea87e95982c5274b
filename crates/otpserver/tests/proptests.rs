//! Property-based tests for the OTP server's validation-engine invariants.

use hpcmfa_otp::device::SoftToken;
use hpcmfa_otp::totp::TotpParams;
use hpcmfa_otpserver::server::{LinotpServer, ServerConfig, ValidationOutcome};
use hpcmfa_otpserver::sms::TwilioSim;
use proptest::prelude::*;

proptest! {
    /// The engine never accepts a malformed candidate for a TOTP pairing,
    /// whatever the account's state.
    #[test]
    fn malformed_codes_never_validate(
        code in "[0-9]{1,5}|[0-9]{7,9}|[a-zA-Z!@#]{1,8}|",
        t in 1_400_000_000u64..1_500_000_000,
    ) {
        let srv = LinotpServer::with_config(TwilioSim::new(1), 5, ServerConfig::default());
        srv.enroll_soft("u", t);
        prop_assert_ne!(srv.validate("u", &code, t), ValidationOutcome::Success);
    }

    /// Lockout invariant: after any interleaving of wrong codes and
    /// correct codes, the account is inactive iff some run of consecutive
    /// failures reached the threshold — and a success always resets the
    /// streak.
    #[test]
    fn lockout_streak_semantics(pattern in proptest::collection::vec(any::<bool>(), 1..60)) {
        let srv = LinotpServer::with_config(TwilioSim::new(2), 6, ServerConfig::default());
        let start = 1_475_000_000u64;
        let secret = srv.enroll_soft("u", start);
        let device = SoftToken::new(secret, TotpParams::default());

        let mut streak = 0u32;
        let mut locked = false;
        for (i, &good) in pattern.iter().enumerate() {
            let t = start + (i as u64 + 1) * 30; // fresh step each attempt
            let outcome = if good {
                let code = device.displayed_code(t);
                srv.validate("u", &code, t)
            } else {
                srv.validate("u", "000000", t)
            };
            // Model the spec.
            if locked {
                prop_assert_eq!(outcome, ValidationOutcome::Locked, "attempt {}", i);
                continue;
            }
            if good {
                prop_assert_eq!(outcome, ValidationOutcome::Success, "attempt {}", i);
                streak = 0;
            } else {
                prop_assert_eq!(outcome, ValidationOutcome::WrongCode, "attempt {}", i);
                streak += 1;
                if streak >= hpcmfa_otpserver::LOCKOUT_THRESHOLD {
                    locked = true;
                }
            }
            let status = srv.status("u", t).unwrap();
            prop_assert_eq!(status.active, !locked, "attempt {}", i);
        }
    }

    /// Replay invariant: a code that validated once never validates again,
    /// no matter how much later it is retried (within the secret's life).
    #[test]
    fn accepted_codes_never_replay(delay_steps in 0u64..9) {
        let srv = LinotpServer::with_config(TwilioSim::new(3), 7, ServerConfig::default());
        let start = 1_475_000_000u64;
        let secret = srv.enroll_soft("u", start);
        let device = SoftToken::new(secret, TotpParams::default());
        let code = device.displayed_code(start);
        prop_assert_eq!(srv.validate("u", &code, start), ValidationOutcome::Success);
        let retry_at = start + delay_steps * 30;
        prop_assert_ne!(srv.validate("u", &code, retry_at), ValidationOutcome::Success);
    }
}
