//! Property-based tests for the exemption ACL machinery.

use hpcmfa_pam::access::{AccessConfig, Cidr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    /// Arbitrary text never panics the parser.
    #[test]
    fn parse_never_panics(text in "\\PC{0,300}") {
        let _ = AccessConfig::parse(&text);
    }

    /// Round-trip property of CIDR membership: an address inside the
    /// network keeps its prefix bits.
    #[test]
    fn cidr_membership_consistent(net in any::<[u8; 4]>(), prefix in 0u8..=32, probe in any::<[u8; 4]>()) {
        let cidr = Cidr { addr: Ipv4Addr::from(net), prefix };
        let probe = Ipv4Addr::from(probe);
        let mask = if prefix == 0 { 0u32 } else { u32::MAX << (32 - prefix as u32) };
        let expected = (u32::from(cidr.addr) & mask) == (u32::from(probe) & mask);
        prop_assert_eq!(cidr.contains(probe), expected);
    }

    /// Expired rules never grant: any config whose every line carries a
    /// pre-2016 expiry decides NotExempt after 2016.
    #[test]
    fn expired_rules_never_grant(
        user_id in 0u32..40,
        ip in any::<[u8; 4]>(),
        n_rules in 1usize..10,
    ) {
        let lines: Vec<String> = (0..n_rules)
            .map(|i| format!("+ : user{} : ALL : 2015-0{}-01", i % 40, (i % 9) + 1))
            .collect();
        let config = AccessConfig::parse(&lines.join("\n")).unwrap();
        let decision = config.decide(
            &format!("user{user_id}"),
            Ipv4Addr::from(ip),
            1_470_000_000, // mid-2016
        );
        prop_assert_eq!(decision, hpcmfa_pam::access::AccessDecision::NotExempt);
    }
}
