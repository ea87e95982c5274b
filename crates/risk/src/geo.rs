//! Geolocation services (§6 growth feature).
//!
//! A GeoIP-style lookup (longest-prefix CIDR → ISO country code) plus a
//! per-account country policy, packaged as a PAM module. Real deployments
//! would load a MaxMind-style database; the semantics exercised here —
//! longest-prefix match, per-user allow lists, unknown-origin handling —
//! are identical.

use hpcmfa_pam::access::Cidr;
use hpcmfa_pam::context::PamContext;
use hpcmfa_pam::stack::{PamModule, PamResult};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// An ISO 3166-1 alpha-2 country code, e.g. `US`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Parse a two-letter code (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let b = s.as_bytes();
        if b.len() == 2 && b.iter().all(|c| c.is_ascii_alphabetic()) {
            Some(CountryCode([
                b[0].to_ascii_uppercase(),
                b[1].to_ascii_uppercase(),
            ]))
        } else {
            None
        }
    }

    /// The code as a string.
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap()
    }
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A CIDR → country database with longest-prefix-match lookups.
#[derive(Default)]
pub struct GeoDb {
    /// Entries sorted by prefix length, longest first.
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
    /// Empty database (every lookup is `None`).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add one network → country mapping.
    pub(crate) fn add(&mut self, net: Cidr, country: CountryCode) {
        self.entries.push((net, country));
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.0.prefix));
    }

    /// Parse a text database: one `CIDR CC` pair per line, `#` comments.
    ///
    /// ```text
    /// 129.114.0.0/16  US   # TACC
    /// 141.30.0.0/16   DE
    /// ```
    pub fn parse(text: &str) -> Result<Self, GeoParseError> {
        let mut db = GeoDb::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
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
            db.add(net, cc);
        }
        Ok(db)
    }

    /// Longest-prefix-match lookup.
    pub(crate) fn country_of(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        self.entries
            .iter()
            .find(|(net, _)| net.contains(ip))
            .map(|(_, cc)| *cc)
    }
}

/// What to do with logins from unexpected places.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GeoAction {
    /// Refuse the login outright.
    Deny,
    /// Allow, but demand step-up authentication (no exemption bypass).
    #[default]
    StepUp,
}

/// Per-account country policy. Accounts without an entry fall back to the
/// default allow list (empty default list = geography unrestricted).
#[derive(Default)]
pub struct GeoPolicy {
    per_user: RwLock<HashMap<String, Vec<CountryCode>>>,
    default_allowed: RwLock<Vec<CountryCode>>,
    /// What a violation triggers.
    pub on_violation: GeoAction,
    /// Whether an IP with no database entry counts as a violation.
    pub deny_unknown_origin: bool,
}

impl GeoPolicy {
    /// Unrestricted policy that steps-up on violations.
    pub fn new(on_violation: GeoAction) -> Self {
        GeoPolicy {
            on_violation,
            ..Default::default()
        }
    }

    /// Restrict `user` to `countries`.
    pub fn allow_user(&self, user: &str, countries: &[CountryCode]) {
        self.per_user
            .write()
            .insert(user.to_string(), countries.to_vec());
    }

    /// Whether `country` is acceptable for `user`.
    pub(crate) fn permits(&self, user: &str, country: Option<CountryCode>) -> bool {
        let Some(country) = country else {
            return !self.deny_unknown_origin;
        };
        if let Some(list) = self.per_user.read().get(user) {
            return list.contains(&country);
        }
        let default = self.default_allowed.read();
        default.is_empty() || default.contains(&country)
    }
}

/// The geolocation PAM module. Deploy `requisite` (Deny policies) or
/// `optional` (StepUp policies) ahead of the exemption module.
pub struct GeoGateModule {
    db: Arc<GeoDb>,
    policy: Arc<GeoPolicy>,
}

impl GeoGateModule {
    /// Gate with `db` and `policy`.
    pub fn new(db: Arc<GeoDb>, policy: Arc<GeoPolicy>) -> Arc<Self> {
        Arc::new(GeoGateModule { db, policy })
    }
}

impl PamModule for GeoGateModule {
    fn name(&self) -> &'static str {
        "pam_tacc_geo"
    }

    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult {
        let country = self.db.country_of(ctx.rhost);
        if self.policy.permits(&ctx.username, country) {
            return PamResult::Ignore;
        }
        match self.policy.on_violation {
            GeoAction::Deny => PamResult::AuthErr,
            GeoAction::StepUp => {
                ctx.risk_step_up = true;
                PamResult::Ignore
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmfa_otp::clock::SimClock;
    use hpcmfa_pam::conv::ScriptedConversation;

    fn cc(s: &str) -> CountryCode {
        CountryCode::parse(s).unwrap()
    }

    fn sample_db() -> GeoDb {
        GeoDb::parse(
            "129.114.0.0/16 US  # TACC\n\
             70.0.0.0/8     US\n\
             141.30.0.0/16  DE\n\
             141.30.8.0/24  CZ  # longer prefix wins\n\
             1.2.0.0/16     CN\n",
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
        assert_eq!(db.country_of("8.8.8.8".parse().unwrap()), None);
    }

    #[test]
    fn db_parse_errors() {
        assert!(GeoDb::parse("129.114.0.0/16\n").is_err());
        assert!(GeoDb::parse("bogus US\n").is_err());
        assert!(GeoDb::parse("1.2.3.0/24 USA\n").is_err());
        assert!(GeoDb::parse("1.2.3.0/24 US extra\n").is_err());
        assert!(GeoDb::parse("# only comments\n\n")
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn policy_per_user_and_default() {
        let p = GeoPolicy::new(GeoAction::Deny);
        assert!(p.permits("anyone", Some(cc("CN")))); // unrestricted default
        *p.default_allowed.write() = vec![cc("US"), cc("DE")];
        assert!(p.permits("anyone", Some(cc("DE"))));
        assert!(!p.permits("anyone", Some(cc("CN"))));
        p.allow_user("traveler", &[cc("CN"), cc("US")]);
        assert!(p.permits("traveler", Some(cc("CN"))));
        assert!(!p.permits("traveler", Some(cc("DE")))); // per-user overrides
    }

    #[test]
    fn unknown_origin_handling() {
        let mut p = GeoPolicy::new(GeoAction::Deny);
        assert!(p.permits("u", None));
        p.deny_unknown_origin = true;
        assert!(!p.permits("u", None));
    }

    fn run_module(module: &GeoGateModule, user: &str, ip: &str) -> (PamResult, bool) {
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            user,
            ip.parse().unwrap(),
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        let r = module.authenticate(&mut ctx);
        (r, ctx.risk_step_up)
    }

    #[test]
    fn deny_mode_blocks_wrong_country() {
        let db = Arc::new(sample_db());
        let policy = Arc::new(GeoPolicy::new(GeoAction::Deny));
        policy.allow_user("usonly", &[cc("US")]);
        let m = GeoGateModule::new(db, policy);
        assert_eq!(
            run_module(&m, "usonly", "70.1.2.3"),
            (PamResult::Ignore, false)
        );
        assert_eq!(
            run_module(&m, "usonly", "1.2.3.4"),
            (PamResult::AuthErr, false)
        );
    }

    #[test]
    fn stepup_mode_flags_context() {
        let db = Arc::new(sample_db());
        let policy = Arc::new(GeoPolicy::new(GeoAction::StepUp));
        policy.allow_user("usonly", &[cc("US")]);
        let m = GeoGateModule::new(db, policy);
        let (r, stepup) = run_module(&m, "usonly", "141.30.1.1");
        assert_eq!(r, PamResult::Ignore);
        assert!(stepup, "foreign login demands step-up");
        let (_, stepup) = run_module(&m, "usonly", "129.114.5.5");
        assert!(!stepup);
    }
}
