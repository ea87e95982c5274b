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

    /// Validate `candidate` at `unix_time`, accepting ±`window` time steps,
    /// for a caller that keeps no replay mark: the nearest matching step.
    /// [`Totp::verify_tracked`] with nothing used.
    pub fn verify(&self, candidate: &str, unix_time: u64, window: u64) -> Option<u64> {
        self.verify_tracked(candidate, unix_time, window, None)
    }

    /// Validate `candidate` at `unix_time`, accepting ±`window` time steps,
    /// for a token whose steps through `used_through` are spent.
    ///
    /// Returns the matching absolute time step nearest the present (ties go
    /// to the earlier step), or `None`. Callers enforce one-time semantics
    /// ("the provided token code is nullified", §3.2) by refusing a step at
    /// or below `used_through`.
    ///
    /// The work rule: steps are visited nearest-first (centre, centre−1,
    /// centre+1, …, centre−w, centre+w), one MAC each. When the first match
    /// lies above `used_through` it is returned at once, so an accept costs
    /// its rank in that order plus one MAC — one for a synced phone. Every
    /// other call — a wrong code, a replayed one — MACs the whole window,
    /// 2w+1 steps (fewer only where it is cut at step 0 or `u64::MAX`), so
    /// the two denials cost the same. What an accept's speed discloses, the
    /// reply already says in clear text (accept vs reject), plus how far
    /// the matched step lies from the server's clock.
    pub fn verify_tracked(
        &self,
        candidate: &str,
        unix_time: u64,
        window: u64,
        used_through: Option<u64>,
    ) -> Option<u64> {
        if candidate.len() != self.params.digits as usize
            || !candidate.bytes().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        // A well-formed candidate is compared as the number it spells: no
        // step of the scan formats a code, so the scan allocates nothing.
        let candidate = candidate.parse::<u32>().ok()?.to_be_bytes();
        let modulus = 10u32.pow(self.params.digits);
        // Precompute the HMAC midstates once: each window step then costs
        // two block compressions instead of a full key schedule.
        let key = self.params.alg.prepare_key(self.secret.bytes());
        // The first match met is the nearest: six-digit codes collide
        // across steps about once per million pairs, and attributing a
        // fresh code to a stale colliding step would make replay tracking
        // reject a legitimate login. A later match is MAC-ed but ignored.
        let mut matched: Option<u64> = None;
        for step in nearest_first(self.params.time_step(unix_time), window) {
            #[cfg(test)]
            tests::STEPS.with(|n| n.set(n.get() + 1));
            let code = hotp_value_prepared(&key, step) % modulus;
            if hpcmfa_crypto::ct::ct_eq(&code.to_be_bytes(), &candidate) && matched.is_none() {
                if used_through.is_none_or(|used| step > used) {
                    return Some(step);
                }
                matched = Some(step);
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

/// The steps `center.saturating_sub(window)..=center.saturating_add(window)`,
/// nearest `center` first and the earlier of two equidistant steps first:
/// `center`, `center − 1`, `center + 1`, … A side that would pass step 0 or
/// `u64::MAX` is cut there while the other goes on.
fn nearest_first(center: u64, window: u64) -> impl Iterator<Item = u64> {
    (0..=window).flat_map(move |k| {
        let later = center.checked_add(k).filter(|_| k > 0);
        [center.checked_sub(k), later].into_iter().flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Candidate steps `verify_tracked` has MAC-ed on this thread.
        pub(super) static STEPS: Cell<u64> = const { Cell::new(0) };
    }

    /// `verify_tracked`'s answer and the steps it MAC-ed to reach it.
    fn counted(
        t: &Totp,
        candidate: &str,
        now: u64,
        window: u64,
        used_through: Option<u64>,
    ) -> (Option<u64>, u64) {
        let before = STEPS.with(Cell::get);
        let step = t.verify_tracked(candidate, now, window, used_through);
        (step, STEPS.with(Cell::get) - before)
    }

    /// The window scan as one ascending loop over every step, keeping the
    /// nearest match (the earlier of two equidistant ones). The reference
    /// `verify_tracked` is checked against.
    fn verify_full_scan(t: &Totp, candidate: &str, unix_time: u64, window: u64) -> Option<u64> {
        let digits = t.params.digits as usize;
        if candidate.len() != digits || !candidate.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let candidate = candidate.parse::<u32>().ok()?;
        let key = t.params.alg.prepare_key(t.secret.bytes());
        let center = t.params.time_step(unix_time);
        let mut matched: Option<u64> = None;
        for step in center.saturating_sub(window)..=center.saturating_add(window) {
            if hotp_value_prepared(&key, step) % 10u32.pow(t.params.digits) == candidate
                && matched.is_none_or(|prev| step.abs_diff(center) < prev.abs_diff(center))
            {
                matched = Some(step);
            }
        }
        matched
    }

    #[derive(Debug, PartialEq)]
    enum Verdict {
        Success,
        Replayed,
        WrongCode,
    }

    /// The OTP server's replay rule over a matched step.
    fn verdict(step: Option<u64>, used_through: Option<u64>) -> Verdict {
        match step {
            None => Verdict::WrongCode,
            Some(s) if used_through.is_some_and(|used| s <= used) => Verdict::Replayed,
            Some(_) => Verdict::Success,
        }
    }

    fn short_code_totp(secret: Vec<u8>, digits: u32, step_secs: u64, t0: u64) -> Totp {
        // A literal, not `validated()`: one or two digits make equidistant
        // collisions and "nearest step used, farther step fresh" common.
        let params = TotpParams {
            digits,
            step_secs,
            t0,
            alg: HashAlg::Sha1,
        };
        Totp::with_params(Secret::from_bytes(secret), params)
    }

    proptest! {
        #[test]
        fn verify_tracked_matches_the_full_scan_reference(
            secret in proptest::collection::vec(any::<u8>(), 1..40),
            digits in 1u32..=2,
            step_secs in prop::sample::select(vec![1u64, 30]),
            t0 in prop::sample::select(vec![0u64, 7]),
            unix_time in prop_oneof![
                0u64..400,
                any::<u64>(),
                (u64::MAX - 400)..=u64::MAX,
            ],
            window in 0u64..=12,
            value in 0u32..100,
            used in 0u8..4,
            delta in 0u64..4,
        ) {
            let t = short_code_totp(secret, digits, step_secs, t0);
            let candidate = format!("{:0width$}", value % 10u32.pow(digits), width = digits as usize);
            let nearest = verify_full_scan(&t, &candidate, unix_time, window);
            let mark = nearest.unwrap_or_else(|| t.params.time_step(unix_time));
            let used_through = match used {
                0 => None,
                1 => mark.checked_sub(1 + delta),
                2 => Some(mark),
                _ => Some(mark.saturating_add(delta)),
            };
            let step = t.verify_tracked(&candidate, unix_time, window, used_through);
            prop_assert_eq!(step, nearest);
            prop_assert_eq!(verdict(step, used_through), verdict(nearest, used_through));
        }
    }

    #[test]
    fn nearest_first_visits_the_clamped_window_once() {
        for (center, window) in [(0, 0), (0, 5), (3, 10), (1_000, 10), (u64::MAX - 2, 10)] {
            let order: Vec<u64> = nearest_first(center, window).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let all: Vec<u64> =
                (center.saturating_sub(window)..=center.saturating_add(window)).collect();
            assert_eq!(sorted, all, "center {center}, window {window}");
            assert!(
                order
                    .windows(2)
                    .all(|w| w[0].abs_diff(center) <= w[1].abs_diff(center)),
                "center {center}: {order:?}"
            );
        }
        assert_eq!(
            nearest_first(1_000, 2).collect::<Vec<_>>(),
            [1_000, 999, 1_001, 998, 1_002]
        );
    }

    /// The equal-work rule counted: a fresh code costs its rank in the
    /// nearest-first order plus one MAC; a wrong code and a replayed one
    /// each cost the whole window.
    #[test]
    fn verify_work_is_rank_plus_one_to_accept_and_the_window_to_deny() {
        let t = paper_totp();
        let now = 1_475_000_000;
        let center = t.params.time_step(now);
        let w = t.window_for_drift(crate::MAX_DRIFT_SECS);
        let full = 2 * w + 1;
        let wrong = (0..1_000_000)
            .map(|n| format!("{n:06}"))
            .find(|c| verify_full_scan(&t, c, now, w).is_none())
            .unwrap();
        assert_eq!(counted(&t, &wrong, now, w, None), (None, full));
        assert_eq!(counted(&t, &wrong, now, w, Some(center + w)), (None, full));
        for offset in -(w as i64)..=w as i64 {
            let step = center.checked_add_signed(offset).unwrap();
            let code = t.code_at(step * t.params.step_secs);
            assert_eq!(verify_full_scan(&t, &code, now, w), Some(step), "{offset}");
            let rank = match offset {
                0 => 0,
                o if o < 0 => 2 * o.unsigned_abs() - 1,
                o => 2 * o.unsigned_abs(),
            };
            for fresh in [None, Some(step - 1), step.checked_sub(50)] {
                assert_eq!(counted(&t, &code, now, w, fresh), (Some(step), rank + 1));
            }
            for spent in [Some(step), Some(step + 1), Some(center + w)] {
                assert_eq!(
                    counted(&t, &code, now, w, spent),
                    (Some(step), full),
                    "{offset}"
                );
            }
        }
    }

    #[test]
    fn verify_work_near_step_zero_is_the_truncated_window() {
        let t = paper_totp();
        // Centre step 3, window 10: steps 0..=13, fourteen of them, visited
        // 3, 2, 4, 1, 5, 0, 6, 7, … — step 0 has rank 5.
        let now = 3 * 30 + 12;
        let wrong = (0..1_000_000)
            .map(|n| format!("{n:06}"))
            .find(|c| verify_full_scan(&t, c, now, 10).is_none())
            .unwrap();
        assert_eq!(counted(&t, &wrong, now, 10, None), (None, 14));
        let at_zero = t.code_at(0);
        assert_eq!(counted(&t, &at_zero, now, 10, None), (Some(0), 6));
        assert_eq!(counted(&t, &at_zero, now, 10, Some(0)), (Some(0), 14));
        let at_thirteen = t.code_at(13 * 30);
        assert_eq!(counted(&t, &at_thirteen, now, 10, None), (Some(13), 14));
    }

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
        let (step, back) = found.expect("a collision exists in 2M steps");
        let now = step * 30;
        let code = t.code_at(now);
        assert_eq!(t.verify(&code, now, 10), Some(step), "nearest step wins");
        // The stale colliding step is spent; the fresh code still passes.
        assert_eq!(
            t.verify_tracked(&code, now, 10, Some(step - back)),
            Some(step)
        );
    }

    #[test]
    fn window_scan_near_epoch_no_underflow() {
        let t = paper_totp();
        // center step 0 with window 10 must not underflow.
        let code = t.code_at(0);
        assert!(t.verify(&code, 0, 10).is_some());
    }
}
