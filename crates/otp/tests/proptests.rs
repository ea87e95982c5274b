//! Property-based tests for the OTP algorithms.

use hpcmfa_crypto::HashAlg;
use hpcmfa_otp::{
    hotp::hotp,
    secret::Secret,
    totp::{Totp, TotpParams},
    uri::OtpauthUri,
};
use proptest::prelude::*;

fn arb_secret() -> impl Strategy<Value = Secret> {
    proptest::collection::vec(any::<u8>(), 10..64).prop_map(Secret::from_bytes)
}

proptest! {
    #[test]
    fn hotp_codes_are_always_digits(secret in arb_secret(), counter in any::<u64>()) {
        let code = hotp(&secret, counter, 6, HashAlg::Sha1);
        prop_assert_eq!(code.len(), 6);
        prop_assert!(code.bytes().all(|b| b.is_ascii_digit()));
    }

    #[test]
    fn totp_verify_accepts_own_codes_within_window(
        secret in arb_secret(),
        time in 0u64..4_000_000_000,
        drift in -300i64..=300,
    ) {
        let t = Totp::new(secret);
        let device_time = time.saturating_add_signed(drift);
        let code = t.code_at(device_time);
        let window = t.window_for_drift(300);
        prop_assert!(t.verify(&code, time, window).is_some(),
            "code at drift {drift} rejected at t={time}");
    }

    #[test]
    fn totp_verify_never_accepts_wrong_length(
        secret in arb_secret(),
        time in 0u64..4_000_000_000,
        code in "[0-9]{1,5}|[0-9]{7,10}",
    ) {
        let t = Totp::new(secret);
        prop_assert_eq!(t.verify(&code, time, 10), None);
    }

    #[test]
    fn totp_matched_step_is_within_window(
        secret in arb_secret(),
        time in 400u64..4_000_000_000,
        offset in 0u64..=10,
    ) {
        let t = Totp::new(secret);
        let past = time - offset * 30;
        let code = t.code_at(past);
        if let Some(step) = t.verify(&code, time, 10) {
            let center = t.params.time_step(time);
            prop_assert!(step >= center.saturating_sub(10) && step <= center + 10);
        } else {
            prop_assert!(false, "in-window code rejected");
        }
    }

    #[test]
    fn uri_round_trips(
        secret in arb_secret(),
        account in "[a-z][a-z0-9]{0,15}",
        digits in 6u32..=8,
        period in prop::sample::select(vec![30u64, 60]),
    ) {
        let params = TotpParams { digits, step_secs: period, t0: 0, alg: HashAlg::Sha1 };
        let uri = OtpauthUri::new("TACC", &account, secret, params);
        let parsed = OtpauthUri::parse(&uri.render()).unwrap();
        prop_assert_eq!(parsed, uri);
    }

    /// A scanned code is hostile input: arbitrary text, a valid URI cut
    /// at any char boundary, or one with a char replaced. `parse` answers
    /// `Ok` or `Err` and never panics, and whatever it accepts renders
    /// back to a URI that parses to the same value.
    #[test]
    fn uri_parse_never_panics_and_what_it_accepts_round_trips(
        secret in arb_secret(),
        issuer in "[A-Za-z0-9 :@%&=?]{0,8}",
        account in "[a-z][a-z0-9:%]{0,15}",
        arbitrary in "\\PC{0,80}|otpauth://totp/\\PC{0,40}|otpauth://totp/[A-Za-z0-9%:@._-]{0,16}\\?[A-Za-z0-9=&%._-]{0,48}",
        at in any::<usize>(),
        with in "\\PC",
    ) {
        let params = TotpParams::default();
        let rendered = OtpauthUri::new(&issuer, &account, secret, params).render();
        let chars: Vec<(usize, char)> = rendered.char_indices().collect();
        let (cut_at, _) = chars.get(at % chars.len()).copied().unwrap_or((0, ' '));
        let cut = &rendered[..cut_at];
        let mut replaced = rendered.clone();
        replaced.replace_range(cut_at..cut_at + rendered[cut_at..].chars().next().map_or(0, char::len_utf8), &with);
        for input in [arbitrary.as_str(), cut, &replaced] {
            if let Ok(parsed) = OtpauthUri::parse(input) {
                prop_assert_eq!(OtpauthUri::parse(&parsed.render()), Ok(parsed));
            }
        }
    }

    #[test]
    fn distinct_secrets_rarely_collide_on_a_step(
        a in arb_secret(),
        b in arb_secret(),
        time in 0u64..4_000_000_000,
    ) {
        prop_assume!(a != b);
        let ta = Totp::new(a);
        let tb = Totp::new(b);
        // A 6-digit collision has probability 1e-6 per draw; over the test's
        // 256 cases a false failure is ~0.03% and proptest will show the seed.
        // We assert on the 31-bit pre-truncation value instead (2^-31).
        prop_assert_ne!(ta.value_at(time), tb.value_at(time));
    }
}
