//! The OTP authority: what every operation does to one user's token
//! state, as one pure function, and the one place that state changes.
//!
//! [`step`] maps a record, an [`Op`] and the time to a [`Transition`]: the
//! outcome, the state changes, the audit rows and the security events.
//! It takes no lock, reads no clock, touches no registry and allocates
//! nothing on the accept path. [`apply`] makes a [`Change`] to a record.
//! The server is the shell around the two: under the shard lock it calls
//! `step`, `apply`s each change and encodes the same change into the
//! operation's WAL commit, and recovery replays every change record
//! through the same `apply`, so a recovered store means what the live one
//! meant.
//!
//! | Paper rule | What `step` does |
//! |---|---|
//! | "a threshold of 20 consecutive failed attempts must occur before a user account is temporarily deactivated" (§3.1) | a wrong or replayed code raises `fail_count`; the attempt that reaches [`LOCKOUT_THRESHOLD`] clears `active` and adds a `Lockout` row and a `LockoutStorm` event; an accept clears the counter |
//! | a deactivated account stays so until staff act (§3.1) | every validation of an inactive account is `Locked`: no scan, no change |
//! | "the provided token code is nullified" (§3.2) | a TOTP accept moves `last_step` to the matched step, and a match at or below it is `Replayed`; an accepted SMS code is cleared |
//! | "In the event of a token mismatch, the token code remains valid" (§3.2) | a wrong code moves no replay mark and clears no pending code |
//! | "an audit log entry is created" (§3.2) | every validation leaves one `Validate` row, whatever its outcome |
//! | 300 s of drift (§3.3) | the scan covers ±[`DRIFT_TOLERANCE_SECS`] around the clock shifted by the resync offset |
//! | SMS "already sent" suppression (§3.3) | an issue while a code is active is `AlreadyActive`: an `SmsSuppressed` row and an `SmsAbuse` event, no new code; an expired code is cleared when a validation meets it |
//! | staff "clear failure counters" (§3.1) | `Reset`: counter cleared, account active |
//! | staff "re-synchronize tokens" (§3.1) | `Resync`: the first step within ±2 000 showing the two codes in a row sets the offset; the mark moves past both codes, forward only; counter cleared, account active |

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::audit::AuditAction::{self, Lockout, SmsSuppressed, SmsTriggered};
use crate::store::{PendingSmsCode, TokenPairing, UserTokenRecord};
use crate::{DRIFT_TOLERANCE_SECS, LOCKOUT_THRESHOLD, SMS_CODE_VALIDITY_SECS};
use hpcmfa_crypto::ct::{ct_eq, ct_eq_str};
use hpcmfa_otp::hotp::hotp_value_prepared;
use hpcmfa_otp::totp::Totp;
use hpcmfa_telemetry::SecurityEventKind::{
    LockoutStorm, ReplayAttempt, SmsAbuse, WalFsyncDegraded,
};
use hpcmfa_telemetry::{SecurityEventKind, SpanStatus};

/// Half-width of the resync search window, in time steps.
const RESYNC_WINDOW_STEPS: u64 = 2_000;

/// Result of a token-code validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// Code accepted; the code is now nullified.
    Success,
    /// Code did not match (or SMS code expired).
    WrongCode,
    /// Code matched a step already consumed — replays are refused.
    Replayed,
    /// Account deactivated by the failure-counter policy.
    Locked,
    /// User has no pairing in the token database.
    NoToken,
    /// The code matched but its nullification could not be made durable;
    /// the attempt is denied rather than risk a replay window after a
    /// crash. The submitted code is burned either way.
    Unavailable,
}

impl ValidationOutcome {
    /// Whether SSH entry may proceed.
    pub fn is_success(self) -> bool {
        self == ValidationOutcome::Success
    }
}

/// What an SMS issue answers, before any text is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmsOutcome {
    /// A code is issued, to be texted once its commit is durable.
    Sent,
    /// A code still active suppresses the resend (§3.3).
    AlreadyActive,
    NotSmsUser,
    NoToken,
    Locked,
    /// The issue could not be made durable; nothing is sent.
    Unavailable,
}

/// An operation on one user's token state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op<'a> {
    /// Validate a submitted code.
    Validate { code: &'a str },
    /// Issue `code`, drawn by the shell, unless a code is still active.
    SmsIssue { code: &'a str },
    /// Staff: clear the failure counter and reactivate.
    Reset,
    /// Staff: re-centre a drifted TOTP token on two consecutive codes.
    Resync { code1: &'a str, code2: &'a str },
}

/// What an operation answers: a validation's, an SMS issue's, or whether
/// a staff operation took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Validate(ValidationOutcome),
    Sms(SmsOutcome),
    Staff(bool),
}

impl From<Outcome> for ValidationOutcome {
    /// A validation's outcome; any other denies.
    fn from(outcome: Outcome) -> Self {
        match outcome {
            Outcome::Validate(outcome) => outcome,
            _ => ValidationOutcome::Unavailable,
        }
    }
}

impl From<Outcome> for SmsOutcome {
    /// An SMS issue's outcome; any other withholds the text.
    fn from(outcome: Outcome) -> Self {
        match outcome {
            Outcome::Sms(outcome) => outcome,
            _ => SmsOutcome::Unavailable,
        }
    }
}

/// One change to a user's record, from borrowed fields. A commit encodes
/// it as the WAL record of the same name (`wal::put_change`), and
/// [`apply`] makes it, live and in recovery alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change<'a> {
    /// What a validation leaves: the replay mark advanced to `last_step`
    /// (never moved back), the counter and the flag set.
    ValState {
        last_step: Option<u64>,
        fail_count: u32,
        active: bool,
    },
    /// The pending SMS code is gone: consumed or expired.
    SmsClear,
    /// An SMS code is pending.
    SmsIssue {
        code: &'a str,
        sent_at: u64,
        expires_at: u64,
    },
    /// A resync took: the offset set, the mark advanced to `last_step`,
    /// the counter cleared, the account active.
    Resync { drift_steps: i64, last_step: u64 },
}

/// An audit row; its user, time and trace are the operation's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) action: AuditAction,
    pub(crate) success: bool,
    /// Never a code.
    pub(crate) detail: &'static str,
}

impl Row {
    pub(crate) const fn new(action: AuditAction, success: bool, detail: &'static str) -> Self {
        Row {
            action,
            success,
            detail,
        }
    }

    /// The row of an operation that took, when its commit was not durable.
    pub(crate) fn not_durable(self) -> Row {
        Row::new(self.action, false, "durability unavailable")
    }
}

/// A security event: its kind, and what its detail says after the user.
pub(crate) type Event = (SecurityEventKind, &'static str);

/// What an operation does. Plain data, copied out of the shard lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transition<'a> {
    /// What the caller is told, once the commit is durable.
    pub(crate) outcome: Outcome,
    /// In WAL order.
    pub(crate) changes: [Option<Change<'a>>; 2],
    /// The outcome's own row, then a lockout's.
    pub(crate) rows: [Option<Row>; 2],
    /// A lockout's event, then the outcome's own.
    pub(crate) events: [Option<Event>; 2],
    /// Steps in the TOTP drift window a validation scanned (2w + 1); 0
    /// when it scanned none.
    pub(crate) window_steps: u64,
}

impl<'a> Transition<'a> {
    /// `outcome` with `change`, its own `row` and `event`, and no scan.
    fn new(
        outcome: Outcome,
        change: Option<Change<'a>>,
        row: Option<Row>,
        event: Option<Event>,
    ) -> Self {
        Transition {
            outcome,
            changes: [change, None],
            rows: [row, None],
            events: [None, event],
            window_steps: 0,
        }
    }

    fn validation(outcome: ValidationOutcome) -> Self {
        let told = outcome.told();
        Self::new(Outcome::Validate(outcome), None, told.row, told.event)
    }

    fn sms(outcome: SmsOutcome, change: Option<Change<'a>>) -> Self {
        let told = outcome.told();
        Self::new(Outcome::Sms(outcome), change, told.row, told.event)
    }

    /// A staff operation's: `change` if it took, and its row.
    fn staff(action: AuditAction, change: Option<Change<'a>>) -> Self {
        let took = change.is_some();
        Self::new(
            Outcome::Staff(took),
            change,
            Some(Row::new(action, took, "")),
            None,
        )
    }
}

/// What the shell tells about one outcome; each outcome type has its
/// table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Told {
    /// The outcome counter's label, and the span's detail.
    pub(crate) label: &'static str,
    pub(crate) row: Option<Row>,
    pub(crate) event: Option<Event>,
    /// How the operation's span ends; `None` leaves it `Ok`.
    pub(crate) status: Option<SpanStatus>,
}

impl Told {
    pub(crate) const fn new(
        label: &'static str,
        row: Option<Row>,
        event: Option<Event>,
        status: Option<SpanStatus>,
    ) -> Self {
        Told {
            label,
            row,
            event,
            status,
        }
    }
}

const ERROR: Option<SpanStatus> = Some(SpanStatus::Error);
const DEGRADED: Option<SpanStatus> = Some(SpanStatus::Degraded);

impl ValidationOutcome {
    /// This outcome's entry in the validation table.
    pub(crate) fn told(self) -> Told {
        let (label, detail, event, status) = match self {
            Self::Success => ("success", "ok", None, None),
            Self::WrongCode => ("wrong_code", "wrong code", None, ERROR),
            Self::Replayed => (
                "replayed",
                "replayed code",
                Some((ReplayAttempt, "consumed code resubmitted")),
                ERROR,
            ),
            Self::Locked => ("locked", "account locked", None, ERROR),
            Self::NoToken => ("no_token", "no pairing", None, ERROR),
            Self::Unavailable => (
                "unavailable",
                "durability unavailable",
                Some((WalFsyncDegraded, "accepted code not durable, denied")),
                DEGRADED,
            ),
        };
        let row = Row::new(AuditAction::Validate, self.is_success(), detail);
        Told::new(label, Some(row), event, status)
    }
}

impl SmsOutcome {
    /// This outcome's entry in the SMS table.
    pub(crate) fn told(self) -> Told {
        match self {
            Self::Sent => Told::new("sent", Some(Row::new(SmsTriggered, true, "")), None, None),
            Self::AlreadyActive => Told::new(
                "already_active",
                Some(Row::new(SmsSuppressed, true, "code active")),
                Some((SmsAbuse, "re-trigger while code active")),
                None,
            ),
            Self::NotSmsUser => Told::new("not_sms_user", None, None, None),
            Self::NoToken => Told::new("no_token", None, None, ERROR),
            Self::Locked => Told::new("locked", None, None, ERROR),
            Self::Unavailable => Told::new(
                "unavailable",
                Some(Row::new(SmsTriggered, false, "durability unavailable")),
                Some((WalFsyncDegraded, "sms issue not durable, withheld")),
                DEGRADED,
            ),
        }
    }
}

/// What `op` does to `record` at `now`; see the module table.
pub(crate) fn step<'a>(record: &UserTokenRecord, op: &Op<'a>, now: u64) -> Transition<'a> {
    match *op {
        Op::Validate { code } => validate(record, code, now),
        Op::SmsIssue { code } => sms_issue(record, code, now),
        Op::Reset => {
            let reset = Change::ValState {
                last_step: None,
                fail_count: 0,
                active: true,
            };
            Transition::staff(AuditAction::ResetFailCount, Some(reset))
        }
        Op::Resync { code1, code2 } => {
            Transition::staff(AuditAction::Resync, resync(record, code1, code2, now))
        }
    }
}

/// What `op` does for a user with no pairing.
pub(crate) fn absent<'a>(op: &Op<'a>) -> Transition<'a> {
    match op {
        Op::Validate { .. } => Transition::validation(ValidationOutcome::NoToken),
        Op::SmsIssue { .. } => Transition::sms(SmsOutcome::NoToken, None),
        Op::Reset => Transition::staff(AuditAction::ResetFailCount, None),
        Op::Resync { .. } => Transition::staff(AuditAction::Resync, None),
    }
}

/// The change that forgets `code` if it is still the pending one: it was
/// issued, but its commit failed, so it was never sent.
pub(crate) fn withdrawal(record: &UserTokenRecord, code: &str) -> Option<Change<'static>> {
    let pairing = &record.pairing;
    let issued = matches!(pairing, TokenPairing::Sms { pending: Some(p), .. } if p.code == code);
    issued.then_some(Change::SmsClear)
}

fn validate<'a>(record: &UserTokenRecord, code: &str, now: u64) -> Transition<'a> {
    use ValidationOutcome::{Replayed, Success, WrongCode};
    if !record.active {
        return Transition::validation(ValidationOutcome::Locked);
    }
    let (mut window_steps, mut clear) = (0, None);
    let (outcome, accepted) = match &record.pairing {
        TokenPairing::Totp {
            totp,
            last_step,
            drift_steps,
            ..
        } => {
            // Saturating: `drift_steps` and `step_secs` may come from disk,
            // where any value is CRC-valid.
            let drift_secs = i64::try_from(totp.params.step_secs)
                .unwrap_or(i64::MAX)
                .saturating_mul(*drift_steps);
            let window = totp.window_for_drift(DRIFT_TOLERANCE_SECS);
            window_steps = window.saturating_mul(2).saturating_add(1);
            // An accept stops at its step; a wrong code and a replay both
            // MAC the whole window.
            let adjusted_now = now.saturating_add_signed(drift_secs);
            match totp.verify_tracked(code, adjusted_now, window, *last_step) {
                Some(step) if last_step.is_none_or(|ls| step > ls) => (Success, Some(step)),
                Some(_) => (Replayed, None),
                None => (WrongCode, None),
            }
        }
        // An expired code is inert until met: the validation that meets it
        // clears it (a logged `SmsClear`); a matching live one is consumed.
        TokenPairing::Sms {
            pending: Some(p), ..
        } if !p.active(now) || ct_eq_str(&p.code, code) => {
            clear = Some(Change::SmsClear);
            (if p.active(now) { Success } else { WrongCode }, None)
        }
        TokenPairing::Static { code: expected } if ct_eq_str(expected, code) => (Success, None),
        TokenPairing::Sms { .. } | TokenPairing::Static { .. } => (WrongCode, None),
    };
    let fail_count = match outcome {
        Success => 0,
        _ => record.fail_count.saturating_add(1),
    };
    let locked_now = fail_count >= LOCKOUT_THRESHOLD;
    let threshold = "threshold reached";
    let state = Change::ValState {
        last_step: accepted,
        fail_count,
        active: !locked_now,
    };
    let mut t = Transition::validation(outcome);
    t.changes = [clear, Some(state)];
    t.rows[1] = locked_now.then_some(Row::new(Lockout, true, threshold));
    t.events[0] = locked_now.then_some((LockoutStorm, threshold));
    t.window_steps = window_steps;
    t
}

fn sms_issue<'a>(record: &UserTokenRecord, code: &'a str, now: u64) -> Transition<'a> {
    let outcome = match &record.pairing {
        _ if !record.active => SmsOutcome::Locked,
        TokenPairing::Sms { pending, .. } if pending.as_ref().is_some_and(|p| p.active(now)) => {
            SmsOutcome::AlreadyActive
        }
        TokenPairing::Sms { .. } => SmsOutcome::Sent,
        _ => SmsOutcome::NotSmsUser,
    };
    let issue = Change::SmsIssue {
        code,
        sent_at: now,
        expires_at: now.saturating_add(SMS_CODE_VALIDITY_SECS),
    };
    Transition::sms(outcome, (outcome == SmsOutcome::Sent).then_some(issue))
}

/// The first step within ±[`RESYNC_WINDOW_STEPS`] of `now` that shows
/// `code1`, followed by one that shows `code2`, as the change it makes.
fn resync<'a>(record: &UserTokenRecord, code1: &str, code2: &str, now: u64) -> Option<Change<'a>> {
    let TokenPairing::Totp { totp, .. } = &record.pairing else {
        return None;
    };
    let (code1, code2) = (well_formed(totp, code1)?, well_formed(totp, code2)?);
    let modulus = 10u32.checked_pow(totp.params.digits)?;
    // One key preparation for the whole ±window search — at ±2000 steps
    // this saves ~8000 block compressions.
    let key = totp.params.alg.prepare_key(totp.secret.bytes());
    let shows = |step: u64, code: u32| {
        let shown = hotp_value_prepared(&key, step).checked_rem(modulus);
        shown.is_some_and(|shown| ct_eq(&shown.to_be_bytes(), &code.to_be_bytes()))
    };
    let center = totp.params.time_step(now);
    let lo = center.saturating_sub(RESYNC_WINDOW_STEPS);
    let hi = center.saturating_add(RESYNC_WINDOW_STEPS);
    let last_step = (lo..hi)
        .filter_map(|step| step.checked_add(1).map(|next| (step, next)))
        .find(|&(step, next)| shows(step, code1) && shows(next, code2))?
        .1;
    // Both codes are burnt: the mark lands past them.
    Some(Change::Resync {
        drift_steps: (last_step as i64).wrapping_sub(center as i64),
        last_step,
    })
}

/// The changes that take staff change `change` back on `record`, which
/// it was made to: logged after the change, when its commit failed, so
/// that whatever a later sync makes durable replays to the record as it
/// stands. The replay mark, which never moves back, stays where `change`
/// put it.
pub(crate) fn reversal(
    record: &UserTokenRecord,
    change: &Change<'_>,
) -> [Option<Change<'static>>; 2] {
    let standing = Change::ValState {
        last_step: None,
        fail_count: record.fail_count,
        active: record.active,
    };
    match (change, &record.pairing) {
        (Change::Resync { last_step, .. }, TokenPairing::Totp { drift_steps, .. }) => {
            let offset = Change::Resync {
                drift_steps: *drift_steps,
                last_step: *last_step,
            };
            [Some(offset), Some(standing)]
        }
        _ => [Some(standing), None],
    }
}

/// `code` as the number it spells, once it passes `Totp::verify`'s
/// length-and-digits check: each step is then compared with it as there,
/// as a number, in constant time.
fn well_formed(totp: &Totp, code: &str) -> Option<u32> {
    let digits = u32::try_from(code.len()).ok() == Some(totp.params.digits)
        && code.bytes().all(|b| b.is_ascii_digit());
    code.parse().ok().filter(|_| digits)
}

/// Make `change` to `record`: the one place a state change is applied,
/// by the live server under the shard lock and by recovery alike.
pub(crate) fn apply(record: &mut UserTokenRecord, change: &Change<'_>) {
    match *change {
        Change::ValState {
            last_step,
            fail_count,
            active,
        } => {
            if let Some(step) = last_step {
                advance(&mut record.pairing, step);
            }
            record.fail_count = fail_count;
            record.active = active;
        }
        Change::SmsClear => {
            if let TokenPairing::Sms { pending, .. } = &mut record.pairing {
                *pending = None;
            }
        }
        Change::SmsIssue {
            code,
            sent_at,
            expires_at,
        } => {
            if let TokenPairing::Sms { pending, .. } = &mut record.pairing {
                *pending = Some(PendingSmsCode {
                    code: code.to_string(),
                    sent_at,
                    expires_at,
                });
            }
        }
        Change::Resync {
            drift_steps,
            last_step,
        } => {
            if let TokenPairing::Totp {
                drift_steps: offset,
                ..
            } = &mut record.pairing
            {
                *offset = drift_steps;
            }
            advance(&mut record.pairing, last_step);
            record.fail_count = 0;
            record.active = true;
        }
    }
}

/// Advance a TOTP pairing's replay mark to `step`, never back: replay
/// nullification cannot regress, whatever order the records land in, and
/// a resync from codes older than the last accepted one re-opens nothing.
fn advance(pairing: &mut TokenPairing, step: u64) {
    if let TokenPairing::Totp { last_step, .. } = pairing {
        *last_step = Some(last_step.map_or(step, |ls| ls.max(step)));
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::cast_possible_truncation
    )]

    use super::*;
    use crate::sms::PhoneNumber;
    use crate::store::TotpProvenance;
    use hpcmfa_otp::hotp::hotp;
    use hpcmfa_otp::secret::Secret;
    use proptest::prelude::*;

    const T0: u64 = 1_475_000_000;

    /// What the reference knows of one user: the pairing's secret or
    /// code, and the state the paper's rules read, the lock a plain flag.
    #[derive(Debug, Clone)]
    struct Model {
        totp: Option<Totp>,
        fixed: Option<String>,
        last_step: Option<u64>,
        drift_steps: i64,
        fail_count: u32,
        locked: bool,
        pending: Option<(String, u64, u64)>,
    }

    /// A step's code the RFC 6238 way: HOTP of the step counter.
    fn code_of(totp: &Totp, step: u64) -> String {
        hotp(&totp.secret, step, totp.params.digits, totp.params.alg)
    }

    fn row(action: AuditAction, success: bool, detail: &'static str) -> Option<Row> {
        Some(Row::new(action, success, detail))
    }

    impl Model {
        /// The transition the rules give for `op` at `now`, and the model
        /// after it.
        fn step<'a>(&mut self, op: &Op<'a>, now: u64) -> (Outcome, Vec<Change<'a>>, Vec<Row>) {
            let (outcome, changes, rows) = match *op {
                Op::Validate { code } => self.validate(code, now),
                Op::SmsIssue { code } => self.sms_issue(code, now),
                Op::Reset => {
                    self.fail_count = 0;
                    self.locked = false;
                    let reset = Change::ValState {
                        last_step: None,
                        fail_count: 0,
                        active: true,
                    };
                    let rows = vec![row(AuditAction::ResetFailCount, true, "")];
                    (Outcome::Staff(true), vec![reset], rows)
                }
                Op::Resync { code1, code2 } => self.resync(code1, code2, now),
            };
            (outcome, changes, rows.into_iter().flatten().collect())
        }

        fn validate(
            &mut self,
            code: &str,
            now: u64,
        ) -> (Outcome, Vec<Change<'static>>, Vec<Option<Row>>) {
            use ValidationOutcome::*;
            if self.locked {
                let rows = vec![row(AuditAction::Validate, false, "account locked")];
                return (Outcome::Validate(Locked), vec![], rows);
            }
            let mut changes = vec![];
            let (outcome, accepted) = if let Some(totp) = &self.totp {
                // Every step of the window, in ascending order; the match
                // nearest the clock wins, the earlier of two equidistant.
                let step_secs = totp.params.step_secs;
                let drift = (step_secs as i64).saturating_mul(self.drift_steps);
                let center = totp.params.time_step(now.saturating_add_signed(drift));
                let w = DRIFT_TOLERANCE_SECS / step_secs;
                let nearest = (center.saturating_sub(w)..=center.saturating_add(w))
                    .filter(|&s| code_of(totp, s) == code)
                    .min_by_key(|&s| (s.abs_diff(center), s));
                match nearest {
                    Some(s) if self.last_step.is_none_or(|ls| s > ls) => {
                        self.last_step = Some(s);
                        (Success, Some(s))
                    }
                    Some(_) => (Replayed, None),
                    None => (WrongCode, None),
                }
            } else if let Some(fixed) = &self.fixed {
                (if fixed == code { Success } else { WrongCode }, None)
            } else {
                match self.pending.clone() {
                    Some((_, _, expires)) if now >= expires => {
                        self.pending = None;
                        changes.push(Change::SmsClear);
                        (WrongCode, None)
                    }
                    Some((sent, _, _)) if sent == code => {
                        self.pending = None;
                        changes.push(Change::SmsClear);
                        (Success, None)
                    }
                    _ => (WrongCode, None),
                }
            };
            let mut lockout = None;
            if outcome == Success {
                self.fail_count = 0;
            } else {
                self.fail_count += 1;
                if self.fail_count >= LOCKOUT_THRESHOLD {
                    self.locked = true;
                    lockout = row(AuditAction::Lockout, true, "threshold reached");
                }
            }
            changes.push(Change::ValState {
                last_step: accepted,
                fail_count: self.fail_count,
                active: !self.locked,
            });
            let detail = match outcome {
                Success => "ok",
                WrongCode => "wrong code",
                _ => "replayed code",
            };
            let rows = vec![
                row(AuditAction::Validate, outcome == Success, detail),
                lockout,
            ];
            (Outcome::Validate(outcome), changes, rows)
        }

        fn sms_issue<'a>(
            &mut self,
            code: &'a str,
            now: u64,
        ) -> (Outcome, Vec<Change<'a>>, Vec<Option<Row>>) {
            if self.locked {
                return (Outcome::Sms(SmsOutcome::Locked), vec![], vec![]);
            }
            if self.totp.is_some() || self.fixed.is_some() {
                return (Outcome::Sms(SmsOutcome::NotSmsUser), vec![], vec![]);
            }
            if self.pending.as_ref().is_some_and(|p| now < p.2) {
                let rows = vec![row(AuditAction::SmsSuppressed, true, "code active")];
                return (Outcome::Sms(SmsOutcome::AlreadyActive), vec![], rows);
            }
            self.pending = Some((code.to_string(), now, now + SMS_CODE_VALIDITY_SECS));
            let issue = Change::SmsIssue {
                code,
                sent_at: now,
                expires_at: now + SMS_CODE_VALIDITY_SECS,
            };
            let rows = vec![row(AuditAction::SmsTriggered, true, "")];
            (Outcome::Sms(SmsOutcome::Sent), vec![issue], rows)
        }

        fn resync(
            &mut self,
            code1: &str,
            code2: &str,
            now: u64,
        ) -> (Outcome, Vec<Change<'static>>, Vec<Option<Row>>) {
            let found = self.totp.as_ref().and_then(|totp| {
                let center = totp.params.time_step(now);
                (center.saturating_sub(2_000)..center + 2_000)
                    .find(|&s| code_of(totp, s) == code1 && code_of(totp, s + 1) == code2)
                    .map(|s| (s + 1, center))
            });
            let Some((last, center)) = found else {
                let rows = vec![row(AuditAction::Resync, false, "")];
                return (Outcome::Staff(false), vec![], rows);
            };
            self.drift_steps = last as i64 - center as i64;
            self.last_step = Some(self.last_step.map_or(last, |ls| ls.max(last)));
            self.fail_count = 0;
            self.locked = false;
            let resync = Change::Resync {
                drift_steps: self.drift_steps,
                last_step: last,
            };
            let rows = vec![row(AuditAction::Resync, true, "")];
            (Outcome::Staff(true), vec![resync], rows)
        }

        /// Whether `record` holds what the model does.
        fn matches(&self, record: &UserTokenRecord) -> bool {
            let pending = match &record.pairing {
                TokenPairing::Sms { pending, .. } => pending
                    .as_ref()
                    .map(|p| (p.code.clone(), p.sent_at, p.expires_at)),
                _ => None,
            };
            let (last_step, drift_steps) = match &record.pairing {
                TokenPairing::Totp {
                    last_step,
                    drift_steps,
                    ..
                } => (*last_step, *drift_steps),
                _ => (None, 0),
            };
            (
                last_step,
                drift_steps,
                record.fail_count,
                record.active,
                pending,
            ) == (
                self.last_step,
                self.drift_steps,
                self.fail_count,
                !self.locked,
                self.pending.clone(),
            )
        }
    }

    /// One operation of a script, as the proptest draws it.
    #[derive(Debug, Clone)]
    enum Script {
        /// The code the device shows `skew` seconds off the server's clock.
        Right(i64),
        /// A code the server never issued.
        Wrong(u32),
        /// The last code validated, again.
        Replay,
        Issue(u32),
        /// The pending SMS code, or the static one.
        Pending,
        Reset,
        /// Two consecutive codes of a device `skew` seconds off.
        Resync(i64),
    }

    /// A script: the pairing's kind, then operations each `dt` seconds
    /// after the last.
    fn script() -> impl Strategy<Value = (u8, Vec<(u64, Script)>)> {
        let skews = [0i64, -30, 30, -300, 300, -330, 3_600, -7_200];
        let op =
            (0u8..15, 0usize..skews.len(), 0u32..1_000_000).prop_map(move |(k, s, n)| match k {
                0..=3 => Script::Right(skews[s]),
                4..=6 => Script::Wrong(n),
                7 | 8 => Script::Replay,
                9 | 10 => Script::Issue(n),
                11 | 12 => Script::Pending,
                13 => Script::Reset,
                _ => Script::Resync(skews[s]),
            });
        (0u8..3, prop::collection::vec((0u64..400, op), 1..60))
    }

    proptest! {
        /// `step` against the naive reference: after every operation of a
        /// random script (clock skew, resyncs, a lockout now and then) the
        /// outcome, the changes and the rows agree, and so do the record
        /// the changes were applied to and the model.
        #[test]
        fn step_equals_the_naive_reference(
            script in script(),
            secret in prop::collection::vec(any::<u8>(), 20..=20),
        ) {
            let (kind, ops) = script;
            let totp = Totp::new(Secret::from_bytes(secret));
            let (pairing, fixed) = match kind {
                0 => (TokenPairing::Totp {
                    totp: totp.clone(),
                    provenance: TotpProvenance::Hard,
                    serial: None,
                    last_step: None,
                    drift_steps: 0,
                }, None),
                1 => (TokenPairing::Sms {
                    phone: PhoneNumber::parse("5125551234").unwrap(),
                    pending: None,
                }, None),
                _ => (TokenPairing::Static { code: "042042".into() }, Some("042042".to_string())),
            };
            let mut record = UserTokenRecord { pairing, fail_count: 0, active: true };
            let mut model = Model {
                totp: (kind == 0).then_some(totp.clone()),
                fixed,
                last_step: None,
                drift_steps: 0,
                fail_count: 0,
                locked: false,
                pending: None,
            };
            let (mut now, mut last_code) = (T0, String::new());
            for (dt, op) in &ops {
                now += dt;
                let shown = |skew: i64| totp.code_at(now.saturating_add_signed(skew));
                let (c1, c2);
                let owned;
                let op = match op {
                    Script::Right(skew) => {
                        last_code = shown(*skew);
                        Op::Validate { code: &last_code }
                    }
                    Script::Wrong(n) => {
                        owned = format!("{n:06}");
                        Op::Validate { code: &owned }
                    }
                    Script::Replay => Op::Validate { code: &last_code },
                    Script::Issue(n) => {
                        owned = format!("{n:06}");
                        Op::SmsIssue { code: &owned }
                    }
                    Script::Pending => {
                        owned = model.pending.as_ref().map(|p| p.0.clone())
                            .or_else(|| model.fixed.clone())
                            .unwrap_or_default();
                        Op::Validate { code: &owned }
                    }
                    Script::Reset => Op::Reset,
                    Script::Resync(skew) => {
                        (c1, c2) = (shown(*skew), shown(skew + 30));
                        Op::Resync { code1: &c1, code2: &c2 }
                    }
                };
                let t = step(&record, &op, now);
                let (outcome, changes, rows) = model.step(&op, now);
                prop_assert_eq!(t.outcome, outcome, "{:?} at {}", op, now);
                prop_assert_eq!(t.changes.iter().flatten().copied().collect::<Vec<_>>(), changes);
                prop_assert_eq!(t.rows.iter().flatten().copied().collect::<Vec<_>>(), rows);
                for change in t.changes.iter().flatten() {
                    apply(&mut record, change);
                }
                prop_assert!(model.matches(&record), "{:?}: {:?} against {:?}", op, record, model);
            }
        }
    }

    #[test]
    fn a_user_with_no_pairing_is_told_so_and_changes_nothing() {
        let validate = absent(&Op::Validate { code: "123456" });
        assert_eq!(
            validate.outcome,
            Outcome::Validate(ValidationOutcome::NoToken)
        );
        assert_eq!(
            validate.rows[0],
            row(AuditAction::Validate, false, "no pairing")
        );
        let issue = absent(&Op::SmsIssue { code: "123456" });
        assert_eq!(issue.outcome, Outcome::Sms(SmsOutcome::NoToken));
        for t in [validate, issue, absent(&Op::Reset)] {
            assert_eq!(t.changes, [None, None]);
            assert_eq!(t.window_steps, 0);
        }
    }
}
