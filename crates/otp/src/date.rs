//! Civil-date arithmetic (proleptic Gregorian ↔ Unix time).
//!
//! The MFA exemption configuration carries expiry dates ("temporary
//! variances that will automatically expire if the date has passed", §3.4)
//! and the rollout simulator walks a day-by-day calendar across the
//! 2016-08-10 → 10-04 transition. Both need date ↔ Unix-time conversion
//! without pulling a chrono dependency; the algorithms are the well-known
//! days-from-civil/civil-from-days routines.

/// A calendar date (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year, e.g. 2016.
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day 1–31.
    pub day: u32,
}

/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;

/// Errors from [`Date::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateParseError(pub String);

impl std::fmt::Display for DateParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid date: {}", self.0)
    }
}

impl std::error::Error for DateParseError {}

impl Date {
    /// Construct, panicking on out-of-range fields (validated construction
    /// goes through `Date::new_checked` or [`Date::parse`]).
    pub fn new(year: i32, month: u32, day: u32) -> Self {
        Self::new_checked(year, month, day)
            .unwrap_or_else(|| panic!("invalid date {year:04}-{month:02}-{day:02}"))
    }

    /// Construct with validation.
    pub(crate) fn new_checked(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Result<Self, DateParseError> {
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 || parts[0].len() != 4 {
            return Err(DateParseError(s.to_string()));
        }
        let year: i32 = parts[0].parse().map_err(|_| DateParseError(s.into()))?;
        let month: u32 = parts[1].parse().map_err(|_| DateParseError(s.into()))?;
        let day: u32 = parts[2].parse().map_err(|_| DateParseError(s.into()))?;
        Self::new_checked(year, month, day).ok_or_else(|| DateParseError(s.to_string()))
    }

    /// Days since 1970-01-01 (may be negative before the epoch).
    pub fn days_from_epoch(self) -> i64 {
        // Howard Hinnant's days_from_civil.
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// The date containing Unix time `secs` (UTC).
    pub fn from_unix(secs: u64) -> Self {
        let days = (secs / SECS_PER_DAY) as i64;
        Self::from_days(days)
    }

    /// The date `days` after the epoch.
    pub fn from_days(days: i64) -> Self {
        // Howard Hinnant's civil_from_days.
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
        Date {
            year: (y + if m <= 2 { 1 } else { 0 }) as i32,
            month: m,
            day: d,
        }
    }

    /// Unix time of this date's midnight UTC.
    pub fn unix_midnight(self) -> u64 {
        let days = self.days_from_epoch();
        assert!(days >= 0, "dates before 1970 have no unsigned Unix time");
        days as u64 * SECS_PER_DAY
    }

    /// The next calendar day.
    pub fn succ(self) -> Self {
        Self::from_days(self.days_from_epoch() + 1)
    }

    /// This date plus `n` days (n may be negative).
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_days(self.days_from_epoch() + n)
    }

    /// Whole days from `self` to `other` (positive when other is later).
    pub fn days_until(self, other: Date) -> i64 {
        other.days_from_epoch() - self.days_from_epoch()
    }

    /// Day of week, 0 = Sunday … 6 = Saturday.
    pub fn weekday(self) -> u32 {
        ((self.days_from_epoch() + 4).rem_euclid(7)) as u32
    }

    /// Whether this is a Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self.weekday(), 0 | 6)
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        let epoch = Date::new(1970, 1, 1);
        assert_eq!(epoch.days_from_epoch(), 0);
        assert_eq!(epoch.unix_midnight(), 0);
        assert_eq!(Date::from_unix(0), epoch);
    }

    #[test]
    fn known_dates() {
        // The paper's milestones.
        let announce = Date::parse("2016-08-10").unwrap();
        let phase2 = Date::parse("2016-09-06").unwrap();
        let mandatory = Date::parse("2016-10-04").unwrap();
        assert_eq!(announce.unix_midnight(), 1_470_787_200);
        assert_eq!(phase2.unix_midnight(), 1_473_120_000);
        assert_eq!(mandatory.unix_midnight(), 1_475_539_200);
        assert_eq!(announce.days_until(mandatory), 55);
        assert_eq!(phase2.weekday(), 2); // a Tuesday
    }

    #[test]
    fn round_trip_every_day_of_2016_2017() {
        let mut d = Date::new(2016, 1, 1);
        for _ in 0..730 {
            assert_eq!(Date::from_unix(d.unix_midnight()), d);
            assert_eq!(Date::from_unix(d.unix_midnight() + 86_399), d);
            let n = d.succ();
            assert_eq!(d.days_until(n), 1);
            d = n;
        }
        assert_eq!(d, Date::new(2017, 12, 31));
    }

    #[test]
    fn leap_year_handling() {
        assert!(Date::new_checked(2016, 2, 29).is_some());
        assert!(Date::new_checked(2017, 2, 29).is_none());
        assert!(Date::new_checked(2000, 2, 29).is_some());
        assert!(Date::new_checked(1900, 2, 29).is_none());
        assert_eq!(Date::new(2016, 2, 28).succ(), Date::new(2016, 2, 29));
        assert_eq!(Date::new(2016, 2, 29).succ(), Date::new(2016, 3, 1));
    }

    #[test]
    fn parse_and_display() {
        let d = Date::parse("2016-10-04").unwrap();
        assert_eq!(d.to_string(), "2016-10-04");
        assert!(Date::parse("2016-13-01").is_err());
        assert!(Date::parse("2016-00-01").is_err());
        assert!(Date::parse("2016-01-32").is_err());
        assert!(Date::parse("16-01-01").is_err());
        assert!(Date::parse("not-a-date").is_err());
        assert!(Date::parse("2016/01/01").is_err());
    }

    #[test]
    fn weekday_known_values() {
        assert_eq!(Date::new(1970, 1, 1).weekday(), 4); // Thursday
        assert_eq!(Date::new(2016, 10, 4).weekday(), 2); // Tuesday
        assert!(Date::new(2016, 10, 1).is_weekend()); // Saturday
        assert!(Date::new(2016, 10, 2).is_weekend()); // Sunday
        assert!(!Date::new(2016, 10, 3).is_weekend()); // Monday
    }

    #[test]
    fn plus_days_and_ordering() {
        let d = Date::new(2016, 8, 10);
        assert_eq!(d.plus_days(55), Date::new(2016, 10, 4));
        assert_eq!(d.plus_days(-10), Date::new(2016, 7, 31));
        assert!(Date::new(2016, 8, 10) < Date::new(2016, 9, 6));
    }
}
