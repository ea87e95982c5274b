//! Geolocation services (§6 growth feature).
//!
//! A GeoIP-style lookup (longest-prefix CIDR → ISO country code), which
//! the [`RiskEngine`](crate::engine::RiskEngine) scores as one feature of
//! a login: a new country and impossible travel. Real deployments would
//! load a MaxMind-style database; the semantics exercised here —
//! longest-prefix match, unknown origins — are identical.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use hpcmfa_pam::access::Cidr;
use std::net::Ipv4Addr;

/// An ISO 3166-1 alpha-2 country code, e.g. `US`: two ASCII uppercase
/// letters, as [`CountryCode::parse`] builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct CountryCode([u8; 2]);

impl CountryCode {
    /// Parse a two-letter code (case-insensitive).
    pub(crate) fn parse(s: &str) -> Option<Self> {
        let &[a, b] = s.as_bytes() else {
            return None;
        };
        (a.is_ascii_alphabetic() && b.is_ascii_alphabetic())
            .then(|| CountryCode([a.to_ascii_uppercase(), b.to_ascii_uppercase()]))
    }
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b] = self.0;
        write!(f, "{}{}", char::from(a), char::from(b))
    }
}

/// A CIDR → country database with longest-prefix-match lookups.
pub struct GeoDb {
    /// Entries sorted by prefix length, longest first; equal prefixes in
    /// file order.
    entries: Vec<(Cidr, CountryCode)>,
}

/// Parse errors for [`GeoDb::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeoParseError {
    /// 1-based line.
    pub line: usize,
    /// Reason.
    pub reason: String,
}

impl std::fmt::Display for GeoParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "geo db line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for GeoParseError {}

impl GeoDb {
    /// Parse a text database: one `CIDR CC` pair per line, `#` comments.
    ///
    /// ```text
    /// 129.114.0.0/16  US   # TACC
    /// 141.30.0.0/16   DE
    /// ```
    pub fn parse(text: &str) -> Result<Self, GeoParseError> {
        let mut entries = Vec::new();
        for (line_no, raw) in (1..).zip(text.lines()) {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(net), Some(cc), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(GeoParseError {
                    line: line_no,
                    reason: "expected 'CIDR CC'".into(),
                });
            };
            let net = Cidr::parse(net).ok_or_else(|| GeoParseError {
                line: line_no,
                reason: format!("bad CIDR {net:?}"),
            })?;
            let cc = CountryCode::parse(cc).ok_or_else(|| GeoParseError {
                line: line_no,
                reason: format!("bad country code {cc:?}"),
            })?;
            entries.push((net, cc));
        }
        // Stable: entries with equal prefixes keep file order.
        entries.sort_by_key(|e| std::cmp::Reverse(e.0.prefix));
        Ok(GeoDb { entries })
    }

    /// Longest-prefix-match lookup.
    pub(crate) fn country_of(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        self.entries
            .iter()
            .find(|(net, _)| net.contains(ip))
            .map(|(_, cc)| *cc)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::parse(s).unwrap()
    }

    fn sample_db() -> GeoDb {
        GeoDb::parse(
            "129.114.0.0/16 US  # TACC\n\
             70.0.0.0/8     US\n\
             141.30.0.0/16  DE\n\
             141.30.8.0/24  CZ  # longer prefix wins\n\
             1.2.0.0/16     CN\n\
             1.2.0.0/16     HK  # same prefix: the first line wins\n",
        )
        .unwrap()
    }

    #[test]
    fn country_codes_parse_and_display() {
        assert_eq!(cc("us").to_string(), "US");
        assert!(CountryCode::parse("USA").is_none());
        assert!(CountryCode::parse("U1").is_none());
        assert!(CountryCode::parse("").is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let db = sample_db();
        assert_eq!(db.country_of("141.30.1.1".parse().unwrap()), Some(cc("DE")));
        assert_eq!(db.country_of("141.30.8.9".parse().unwrap()), Some(cc("CZ")));
        assert_eq!(db.country_of("1.2.3.4".parse().unwrap()), Some(cc("CN")));
        assert_eq!(db.country_of("8.8.8.8".parse().unwrap()), None);
    }

    #[test]
    fn db_parse_errors() {
        assert!(GeoDb::parse("129.114.0.0/16\n").is_err());
        assert!(GeoDb::parse("bogus US\n").is_err());
        let err = GeoDb::parse("# header\n1.2.3.0/24 USA\n").err().unwrap();
        assert_eq!(err.to_string(), "geo db line 2: bad country code \"USA\"");
        assert!(GeoDb::parse("1.2.3.0/24 US extra\n").is_err());
        assert!(GeoDb::parse("# only comments\n\n")
            .unwrap()
            .entries
            .is_empty());
    }
}
