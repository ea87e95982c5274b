//! The MFA exemption control list (§3.4).
//!
//! "The configuration file extends typical PAM access configuration syntax
//! and allows for either permanent exemptions or for temporary variances
//! that will automatically expire if the date has passed. Individual
//! accounts, specific IP addresses or IP ranges, or any combination of the
//! two may be targeted for MFA exemption with or without an expiration
//! date. Additionally, special "ALL" keywords can be set in the date,
//! account, and IP address fields ... By default, all accounts are subject
//! to multi-factor authentication and are denied an MFA exemption."
//!
//! Line format (pam_access-flavoured), first match wins:
//!
//! ```text
//! # action : users            : origins                : expiry
//!   +      : gateway1 portal2 : ALL                    : ALL
//!   +      : ALL              : 129.114.0.0/16         : ALL
//!   +      : pi_smith         : 198.51.100.7           : 2016-10-18
//!   -      : baduser          : ALL                    : ALL
//! ```
//!
//! `+` grants an exemption (second factor skipped), `-` explicitly denies
//! one (useful to carve a user out of a broad rule above... below it).
//! The expiry date is inclusive: the variance lapses at the following
//! midnight UTC.

use hpcmfa_otp::date::Date;
use parking_lot::RwLock;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// An IPv4 network in CIDR form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Network address.
    pub addr: Ipv4Addr,
    /// Prefix length 0–32.
    pub prefix: u8,
}

impl Cidr {
    /// Parse `a.b.c.d` (a /32) or `a.b.c.d/n`.
    pub fn parse(s: &str) -> Option<Self> {
        let (ip_str, prefix) = match s.split_once('/') {
            Some((ip, p)) => (ip, p.parse::<u8>().ok()?),
            None => (s, 32),
        };
        if prefix > 32 {
            return None;
        }
        let addr: Ipv4Addr = ip_str.parse().ok()?;
        Some(Cidr { addr, prefix })
    }

    /// Whether `ip` falls inside this network.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        if self.prefix == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.prefix as u32);
        (u32::from(self.addr) & mask) == (u32::from(ip) & mask)
    }
}

/// Who a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
enum UserPattern {
    All,
    Named(Vec<String>),
}

/// Where a rule applies from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OriginPattern {
    All,
    Nets(Vec<Cidr>),
}

/// Until when a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExpiryPattern {
    /// `ALL`: permanent.
    Never,
    /// Valid through this date (inclusive).
    Through(Date),
}

/// One parsed rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AccessEntry {
    grant: bool,
    users: UserPattern,
    origins: OriginPattern,
    expiry: ExpiryPattern,
    /// 1-based source line, for diagnostics.
    pub line: usize,
}

impl AccessEntry {
    fn matches(&self, user: &str, ip: Ipv4Addr, now: u64) -> bool {
        let user_ok = match &self.users {
            UserPattern::All => true,
            UserPattern::Named(names) => names.iter().any(|n| n == user),
        };
        if !user_ok {
            return false;
        }
        let origin_ok = match &self.origins {
            OriginPattern::All => true,
            OriginPattern::Nets(nets) => nets.iter().any(|n| n.contains(ip)),
        };
        if !origin_ok {
            return false;
        }
        match self.expiry {
            ExpiryPattern::Never => true,
            ExpiryPattern::Through(date) => now < date.succ().unix_midnight(),
        }
    }
}

/// The outcome of an exemption lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Second factor skipped.
    Exempt,
    /// Subject to MFA (the default).
    NotExempt,
}

/// Parse failures, with line numbers so sysadmins can fix the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessParseError {
    /// 1-based line.
    pub line: usize,
    /// Reason.
    pub reason: String,
}

impl std::fmt::Display for AccessParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access config line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for AccessParseError {}

/// A parsed exemption configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessConfig {
    entries: Vec<AccessEntry>,
}

impl AccessConfig {
    /// Parse a configuration file.
    pub fn parse(text: &str) -> Result<Self, AccessParseError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(':').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(AccessParseError {
                    line: line_no,
                    reason: format!("expected 4 ':'-separated fields, found {}", fields.len()),
                });
            }
            let grant = match fields[0] {
                "+" => true,
                "-" => false,
                other => {
                    return Err(AccessParseError {
                        line: line_no,
                        reason: format!("action must be '+' or '-', found {other:?}"),
                    })
                }
            };
            let users = if fields[1].eq_ignore_ascii_case("ALL") {
                UserPattern::All
            } else {
                let names: Vec<String> = fields[1]
                    .split([' ', ','])
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if names.is_empty() {
                    return Err(AccessParseError {
                        line: line_no,
                        reason: "empty user list".into(),
                    });
                }
                UserPattern::Named(names)
            };
            let origins = if fields[2].eq_ignore_ascii_case("ALL") {
                OriginPattern::All
            } else {
                let mut nets = Vec::new();
                for tok in fields[2].split([' ', ',']).filter(|s| !s.is_empty()) {
                    match Cidr::parse(tok) {
                        Some(c) => nets.push(c),
                        None => {
                            return Err(AccessParseError {
                                line: line_no,
                                reason: format!("bad IP or CIDR {tok:?}"),
                            })
                        }
                    }
                }
                if nets.is_empty() {
                    return Err(AccessParseError {
                        line: line_no,
                        reason: "empty origin list".into(),
                    });
                }
                OriginPattern::Nets(nets)
            };
            let expiry = if fields[3].eq_ignore_ascii_case("ALL") {
                ExpiryPattern::Never
            } else {
                match Date::parse(fields[3]) {
                    Ok(d) => ExpiryPattern::Through(d),
                    Err(e) => {
                        return Err(AccessParseError {
                            line: line_no,
                            reason: e.to_string(),
                        })
                    }
                }
            };
            entries.push(AccessEntry {
                grant,
                users,
                origins,
                expiry,
                line: line_no,
            });
        }
        Ok(AccessConfig { entries })
    }

    /// First-match-wins decision; default deny-exemption.
    pub fn decide(&self, user: &str, ip: Ipv4Addr, now: u64) -> AccessDecision {
        for entry in &self.entries {
            if entry.matches(user, ip, now) {
                return if entry.grant {
                    AccessDecision::Exempt
                } else {
                    AccessDecision::NotExempt
                };
            }
        }
        AccessDecision::NotExempt
    }
}

/// A hot-reloadable config handle: "changes take effect immediately upon
/// write to disk" (§3.4). The PAM exemption module holds one of these; the
/// sysadmin (or a test) calls [`WatchedAccessConfig::reload`].
#[derive(Clone, Default)]
pub struct WatchedAccessConfig {
    inner: Arc<RwLock<AccessConfig>>,
}

impl WatchedAccessConfig {
    /// Start with `config`.
    pub fn new(config: AccessConfig) -> Self {
        WatchedAccessConfig {
            inner: Arc::new(RwLock::new(config)),
        }
    }

    /// Replace the active rules (the write-to-disk moment).
    pub fn reload(&self, config: AccessConfig) {
        *self.inner.write() = config;
    }

    /// Current decision.
    pub(crate) fn decide(&self, user: &str, ip: Ipv4Addr, now: u64) -> AccessDecision {
        self.inner.read().decide(user, ip, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    const SEP_2016: u64 = 1_473_120_000; // 2016-09-06 00:00 UTC

    #[test]
    fn cidr_parsing_and_matching() {
        let net = Cidr::parse("129.114.0.0/16").unwrap();
        assert!(net.contains(ip("129.114.5.6")));
        assert!(!net.contains(ip("129.115.5.6")));
        let host = Cidr::parse("10.1.2.3").unwrap();
        assert_eq!(host.prefix, 32);
        assert!(host.contains(ip("10.1.2.3")));
        assert!(!host.contains(ip("10.1.2.4")));
        let any = Cidr::parse("0.0.0.0/0").unwrap();
        assert!(any.contains(ip("255.255.255.255")));
        assert!(Cidr::parse("10.0.0.0/33").is_none());
        assert!(Cidr::parse("300.0.0.1").is_none());
        assert!(Cidr::parse("not-an-ip").is_none());
    }

    #[test]
    fn default_is_not_exempt() {
        let cfg = AccessConfig::default();
        assert_eq!(
            cfg.decide("anyone", ip("1.2.3.4"), SEP_2016),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn user_exemption() {
        let cfg = AccessConfig::parse("+ : gateway1 : ALL : ALL\n").unwrap();
        assert_eq!(
            cfg.decide("gateway1", ip("1.2.3.4"), SEP_2016),
            AccessDecision::Exempt
        );
        assert_eq!(
            cfg.decide("alice", ip("1.2.3.4"), SEP_2016),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn internal_network_exemption() {
        // The per-system rule that lets traffic flow freely inside (§3.4).
        let cfg = AccessConfig::parse("+ : ALL : 129.114.0.0/16 : ALL\n").unwrap();
        assert_eq!(
            cfg.decide("anyone", ip("129.114.40.1"), SEP_2016),
            AccessDecision::Exempt
        );
        assert_eq!(
            cfg.decide("anyone", ip("8.8.8.8"), SEP_2016),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn temporary_variance_expires() {
        let cfg = AccessConfig::parse("+ : slowpoke : ALL : 2016-10-18\n").unwrap();
        let before = Date::new(2016, 10, 18).unix_midnight() + 3600;
        let after = Date::new(2016, 10, 19).unix_midnight() + 1;
        assert_eq!(
            cfg.decide("slowpoke", ip("1.2.3.4"), before),
            AccessDecision::Exempt
        );
        assert_eq!(
            cfg.decide("slowpoke", ip("1.2.3.4"), after),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn first_match_wins_with_explicit_deny() {
        let cfg = AccessConfig::parse(
            "- : mallory : ALL : ALL\n\
             + : ALL : 10.0.0.0/8 : ALL\n",
        )
        .unwrap();
        assert_eq!(
            cfg.decide("mallory", ip("10.1.1.1"), SEP_2016),
            AccessDecision::NotExempt
        );
        assert_eq!(
            cfg.decide("alice", ip("10.1.1.1"), SEP_2016),
            AccessDecision::Exempt
        );
    }

    #[test]
    fn combined_user_and_ip_rule() {
        let cfg = AccessConfig::parse("+ : pi_smith : 198.51.100.7 : ALL\n").unwrap();
        assert_eq!(
            cfg.decide("pi_smith", ip("198.51.100.7"), SEP_2016),
            AccessDecision::Exempt
        );
        assert_eq!(
            cfg.decide("pi_smith", ip("198.51.100.8"), SEP_2016),
            AccessDecision::NotExempt
        );
        assert_eq!(
            cfg.decide("other", ip("198.51.100.7"), SEP_2016),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn lists_and_comments() {
        let cfg = AccessConfig::parse(
            "# gateways\n\
             + : gw1 gw2, gw3 : ALL : ALL  # trailing comment\n\
             \n\
             + : ALL : 10.0.0.1, 10.0.0.2 : ALL\n",
        )
        .unwrap();
        assert_eq!(cfg.entries.len(), 2);
        for u in ["gw1", "gw2", "gw3"] {
            assert_eq!(cfg.decide(u, ip("8.8.8.8"), 0), AccessDecision::Exempt);
        }
        assert_eq!(cfg.decide("x", ip("10.0.0.2"), 0), AccessDecision::Exempt);
        assert_eq!(
            cfg.decide("x", ip("10.0.0.3"), 0),
            AccessDecision::NotExempt
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = AccessConfig::parse("+ : a : ALL\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = AccessConfig::parse("# ok\n* : a : ALL : ALL\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(AccessConfig::parse("+ : a : 999.1.1.1 : ALL\n").is_err());
        assert!(AccessConfig::parse("+ : a : ALL : 2016-13-01\n").is_err());
        assert!(AccessConfig::parse("+ :  : ALL : ALL\n").is_err());
        assert!(AccessConfig::parse("+ : a :  : ALL\n").is_err());
    }

    #[test]
    fn watched_config_hot_reload() {
        let watched = WatchedAccessConfig::new(AccessConfig::default());
        assert_eq!(
            watched.decide("gw", ip("1.1.1.1"), 0),
            AccessDecision::NotExempt
        );
        watched.reload(AccessConfig::parse("+ : gw : ALL : ALL\n").unwrap());
        assert_eq!(
            watched.decide("gw", ip("1.1.1.1"), 0),
            AccessDecision::Exempt
        );
    }

    #[test]
    fn blanket_all_all_all() {
        // The "drop everything back to single factor" escape hatch.
        let cfg = AccessConfig::parse("+ : ALL : ALL : ALL\n").unwrap();
        assert_eq!(
            cfg.decide("anyone", ip("8.8.8.8"), 0),
            AccessDecision::Exempt
        );
    }
}
