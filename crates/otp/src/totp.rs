//! TOTP: time-based one-time password algorithm (RFC 6238).
//!
//! "A code is generated every 30 seconds using the combination of the
//! current time and a secret key" (§3.3). The validation server accepts
//! codes from a window of adjacent time steps to absorb client clock drift —
//! the paper tolerates up to 300 seconds (±10 steps of 30 s).

use crate::hotp::{hotp, hotp_value, hotp_value_prepared};
use crate::secret::Secret;
use hpcmfa_crypto::HashAlg;

/// TOTP parameters, separate from the secret so stores can share them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TotpParams {
    /// Decimal digits in the code (the paper: 6).
    pub digits: u32,
    /// Time step in seconds (the paper: 30).
    pub step_secs: u64,
    /// Unix time at which counting starts (RFC 6238 `T0`, normally 0).
    pub t0: u64,
    /// HMAC hash algorithm.
    pub alg: HashAlg,
}

impl Default for TotpParams {
    fn default() -> Self {
        TotpParams {
            digits: crate::DEFAULT_DIGITS,
            step_secs: crate::DEFAULT_STEP_SECS,
            t0: 0,
            alg: HashAlg::Sha1,
        }
    }
}

impl TotpParams {
    /// `self` if it can drive a token, else the name of the `otpauth://`
    /// parameter that cannot: `digits` must be 6..=9 (RFC 4226 §5.3's
    /// minimum; `10^9` is the largest modulus below the 31-bit truncated
    /// value, and `10^10` overflows the `u32` it is computed in) and
    /// `period` at least one second. Parameters from outside — a scanned
    /// URI, a WAL or snapshot image — pass through this before any code is
    /// computed from them.
    pub fn validated(self) -> Result<Self, &'static str> {
        if !(6..=9).contains(&self.digits) {
            Err("digits")
        } else if self.step_secs == 0 {
            Err("period")
        } else {
            Ok(self)
        }
    }

    /// The RFC 6238 time-step counter `T = (now - T0) / X` for `unix_time`.
    pub fn time_step(&self, unix_time: u64) -> u64 {
        unix_time.saturating_sub(self.t0) / self.step_secs
    }

    /// Seconds until the code for `unix_time` rotates.
    pub fn secs_remaining(&self, unix_time: u64) -> u64 {
        self.step_secs - (unix_time.saturating_sub(self.t0) % self.step_secs)
    }
}

/// A TOTP generator/validator bound to one secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Totp {
    /// Shared secret key.
    pub secret: Secret,
    /// Algorithm parameters.
    pub params: TotpParams,
}

impl Totp {
    /// Standard paper-configuration TOTP (6 digits, 30 s, SHA-1).
    pub fn new(secret: Secret) -> Self {
        Totp {
            secret,
            params: TotpParams::default(),
        }
    }

    /// TOTP with explicit parameters.
    pub fn with_params(secret: Secret, params: TotpParams) -> Self {
        Totp { secret, params }
    }

    /// The token code at `unix_time`.
    pub fn code_at(&self, unix_time: u64) -> String {
        let step = self.params.time_step(unix_time);
        hotp(&self.secret, step, self.params.digits, self.params.alg)
    }

    /// Raw (untruncated-to-digits) 31-bit value at `unix_time`.
    pub fn value_at(&self, unix_time: u64) -> u32 {
        let step = self.params.time_step(unix_time);
        hotp_value(&self.secret, step, self.params.alg)
    }

    /// Validate `candidate` at `unix_time`, accepting ±`window` time steps.
    ///
    /// Returns the matching absolute time step on success so callers can
    /// enforce one-time semantics ("the provided token code is nullified",
    /// §3.2) by refusing steps at or below the last accepted one.
    pub fn verify(&self, candidate: &str, unix_time: u64, window: u64) -> Option<u64> {
        if candidate.len() != self.params.digits as usize
            || !candidate.bytes().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        // A well-formed candidate is compared as the number it spells: no
        // step of the scan formats a code, so the scan allocates nothing.
        let candidate = candidate.parse::<u32>().ok()?.to_be_bytes();
        let modulus = 10u32.pow(self.params.digits);
        let center = self.params.time_step(unix_time);
        let lo = center.saturating_sub(window);
        let hi = center.saturating_add(window);
        // Precompute the HMAC midstates once: each window step then costs
        // two block compressions instead of a full key schedule.
        let key = self.params.alg.prepare_key(self.secret.bytes());
        // Scan the full window unconditionally; per-step comparison is
        // constant-time so total work leaks only the (public) window size.
        // Among matches, report the step closest to the present: six-digit
        // codes collide across steps about once per million pairs, and
        // attributing a fresh code to a stale colliding step would make
        // replay tracking reject a legitimate login.
        let mut matched: Option<u64> = None;
        for step in lo..=hi {
            let code = hotp_value_prepared(&key, step) % modulus;
            if hpcmfa_crypto::ct::ct_eq(&code.to_be_bytes(), &candidate) {
                let better = match matched {
                    None => true,
                    Some(prev) => step.abs_diff(center) < prev.abs_diff(center),
                };
                if better {
                    matched = Some(step);
                }
            }
        }
        matched
    }

    /// Window size (in steps, one side) equivalent to a drift tolerance of
    /// `drift_secs` seconds.
    pub fn window_for_drift(&self, drift_secs: u64) -> u64 {
        drift_secs / self.params.step_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 6238 Appendix B reference vectors (8 digits).
    ///
    /// Note the RFC uses algorithm-specific seeds: the ASCII digits repeated
    /// to 20/32/64 bytes for SHA-1/SHA-256/SHA-512 respectively.
    #[test]
    fn rfc6238_vectors() {
        let seed20 = Secret::from_bytes(*b"12345678901234567890");
        let seed32 = Secret::from_bytes(*b"12345678901234567890123456789012");
        let seed64 = Secret::from_bytes(
            *b"1234567890123456789012345678901234567890123456789012345678901234",
        );
        let times: [u64; 6] = [
            59,
            1111111109,
            1111111111,
            1234567890,
            2000000000,
            20000000000,
        ];
        let sha1_codes = [
            "94287082", "07081804", "14050471", "89005924", "69279037", "65353130",
        ];
        let sha256_codes = [
            "46119246", "68084774", "67062674", "91819424", "90698825", "77737706",
        ];
        let sha512_codes = [
            "90693936", "25091201", "99943326", "93441116", "38618901", "47863826",
        ];

        let mk = |secret: Secret, alg| {
            Totp::with_params(
                secret,
                TotpParams {
                    digits: 8,
                    step_secs: 30,
                    t0: 0,
                    alg,
                },
            )
        };
        let t1 = mk(seed20, HashAlg::Sha1);
        let t256 = mk(seed32, HashAlg::Sha256);
        let t512 = mk(seed64, HashAlg::Sha512);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(t1.code_at(t), sha1_codes[i], "sha1 t={t}");
            assert_eq!(t256.code_at(t), sha256_codes[i], "sha256 t={t}");
            assert_eq!(t512.code_at(t), sha512_codes[i], "sha512 t={t}");
        }
    }

    fn paper_totp() -> Totp {
        Totp::new(Secret::from_bytes(*b"12345678901234567890"))
    }

    #[test]
    fn code_stable_within_step() {
        let t = paper_totp();
        assert_eq!(t.code_at(60), t.code_at(89));
        assert_ne!(t.code_at(60), t.code_at(90));
    }

    #[test]
    fn verify_exact_time() {
        let t = paper_totp();
        let now = 1_475_000_000; // around the paper's Sept 2016 rollout
        let code = t.code_at(now);
        assert_eq!(t.verify(&code, now, 0), Some(t.params.time_step(now)));
    }

    #[test]
    fn verify_within_drift_window() {
        let t = paper_totp();
        let now = 1_475_000_000;
        let window = t.window_for_drift(crate::MAX_DRIFT_SECS);
        assert_eq!(window, 10);
        // Client 5 minutes slow: code from 300 s ago is still accepted.
        let old_code = t.code_at(now - 300);
        assert!(t.verify(&old_code, now, window).is_some());
        // Client 5 minutes fast likewise.
        let future_code = t.code_at(now + 300);
        assert!(t.verify(&future_code, now, window).is_some());
        // Beyond the tolerance: rejected.
        let too_old = t.code_at(now - 330);
        assert_eq!(t.verify(&too_old, now, window), None);
    }

    #[test]
    fn verify_rejects_malformed_codes() {
        let t = paper_totp();
        assert_eq!(t.verify("12345", 1000, 10), None); // too short
        assert_eq!(t.verify("1234567", 1000, 10), None); // too long
        assert_eq!(t.verify("12a456", 1000, 10), None); // non-digit
        assert_eq!(t.verify("", 1000, 10), None);
    }

    #[test]
    fn verify_returns_matched_step_for_replay_tracking() {
        let t = paper_totp();
        let now = 1_475_000_000;
        let code = t.code_at(now - 30);
        let matched = t.verify(&code, now, 10).unwrap();
        assert_eq!(matched, t.params.time_step(now) - 1);
    }

    #[test]
    fn secs_remaining() {
        let p = TotpParams::default();
        assert_eq!(p.secs_remaining(0), 30);
        assert_eq!(p.secs_remaining(29), 1);
        assert_eq!(p.secs_remaining(30), 30);
        assert_eq!(p.secs_remaining(45), 15);
    }

    #[test]
    fn nonzero_t0_shifts_steps() {
        let params = TotpParams {
            t0: 1_000_000,
            ..TotpParams::default()
        };
        let t = Totp::with_params(Secret::from_bytes(*b"12345678901234567890"), params);
        let base = Totp::new(Secret::from_bytes(*b"12345678901234567890"));
        assert_eq!(t.code_at(1_000_000 + 59), base.code_at(59));
    }

    #[test]
    fn colliding_code_attributed_to_nearest_step() {
        // Six-digit codes collide across time steps ~1e-6 per pair. Find a
        // real collision between the current step and an earlier in-window
        // step, then check verify() reports the *current* step — otherwise
        // replay tracking would reject a legitimate fresh code.
        let t = paper_totp();
        let mut found = None;
        'outer: for step in 0u64..2_000_000 {
            let code = t.code_at(step * 30);
            for back in 1..=10u64 {
                if step >= back && t.code_at((step - back) * 30) == code {
                    found = Some((step, back));
                    break 'outer;
                }
            }
        }
        let (step, _back) = found.expect("a collision exists in 2M steps");
        let now = step * 30;
        let code = t.code_at(now);
        assert_eq!(t.verify(&code, now, 10), Some(step), "nearest step wins");
    }

    #[test]
    fn window_scan_near_epoch_no_underflow() {
        let t = paper_totp();
        // center step 0 with window 10 must not underflow.
        let code = t.code_at(0);
        assert!(t.verify(&code, 0, 10).is_some());
    }
}
