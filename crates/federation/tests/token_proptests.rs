//! Property tests for the resumption-token codec: seal/validate round
//! trips over arbitrary principals, keys, addresses, and clocks, and the
//! rejection properties RFC 9000 §8.1.4 demands — truncation, bit flips,
//! wrong keys, wrong addresses, and out-of-window steps are all refused,
//! never panicking and never yielding plausible-but-wrong claims.

use hpcmfa_crypto::base64::encode_url;
use hpcmfa_crypto::hmac::HmacKey;
use hpcmfa_crypto::sha256::Sha256;
use hpcmfa_federation::{ResumeAuthority, TokenClaims, TokenError, TOKEN_PREFIX};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn arb_user() -> BoxedStrategy<String> {
    "[a-z][a-z0-9_.-]{0,14}".boxed()
}

fn arb_realm() -> BoxedStrategy<String> {
    "[a-z]{2,8}".boxed()
}

fn arb_key() -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(any::<u8>(), 8..40).boxed()
}

fn arb_ip() -> BoxedStrategy<Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from).boxed()
}

/// A token body: up to three `u16 LE` length-prefixed byte strings
/// (declared lengths true or not) and an arbitrary tail, or arbitrary
/// bytes outright.
fn arb_body() -> BoxedStrategy<Vec<u8>> {
    let field = (
        any::<bool>(),
        any::<u16>(),
        prop::collection::vec(any::<u8>(), 0..24),
    );
    let structured = (
        prop::collection::vec(field, 0..4),
        prop::collection::vec(any::<u8>(), 0..40),
    )
        .prop_map(|(fields, tail)| {
            let mut body = Vec::new();
            for (honest, lie, bytes) in fields {
                let len = if honest { bytes.len() as u16 } else { lie };
                body.extend_from_slice(&len.to_le_bytes());
                body.extend_from_slice(&bytes);
            }
            body.extend_from_slice(&tail);
            body
        });
    prop_oneof![prop::collection::vec(any::<u8>(), 0..200), structured].boxed()
}

/// An authority plus a token it issued and the issue time.
fn issue(
    key: &[u8],
    realm: &str,
    lifetime: u64,
    user: &str,
    client: Ipv4Addr,
    now: u64,
    rng_seed: u64,
) -> (ResumeAuthority, String) {
    let auth = ResumeAuthority::new(key, realm, realm, lifetime, 30);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let token = auth.issue(&mut rng, user, client, now);
    (auth, token)
}

proptest! {
    /// Issue → validate round-trips every claim, from anywhere inside
    /// the bound /16 and anywhere inside the validity window.
    #[test]
    fn round_trip(
        key in arb_key(),
        realm in arb_realm(),
        user in arb_user(),
        ip in arb_ip(),
        host in any::<[u8; 2]>(),
        t0 in 1_000_000u64..2_000_000_000,
        lifetime in 1u64..64,
        skew_steps in 0u64..64,
        seed in any::<u64>(),
    ) {
        let (auth, token) = issue(&key, &realm, lifetime, &user, ip, t0, seed);
        prop_assert!(ResumeAuthority::is_token(&token));
        // Same /16, any host part; any time up to `lifetime` steps later.
        let sibling = Ipv4Addr::new(ip.octets()[0], ip.octets()[1], host[0], host[1]);
        let later = t0 + skew_steps.min(lifetime) * 30;
        let claims = auth.validate(&token, &user, sibling, later);
        prop_assert!(claims.is_ok(), "round trip failed: {claims:?}");
        let claims = claims.unwrap();
        prop_assert_eq!(&claims.user, &user);
        prop_assert_eq!(&claims.realm, &realm);
        prop_assert_eq!(&claims.issuer, &realm);
        prop_assert_eq!(claims.client_net, TokenClaims::net_of(ip));
        prop_assert_eq!(claims.issued_step, t0 / 30);
    }

    /// Realistically sized principals (HPC usernames, short site names)
    /// always fit RFC 2865's 128-octet `User-Password` ceiling — the
    /// constraint that forced the unpadded-base64url wire form.
    #[test]
    fn realistic_tokens_fit_radius_password(
        key in arb_key(),
        realm in "[a-z]{2,6}",
        user in "[a-z][a-z0-9]{0,11}",
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        seed in any::<u64>(),
    ) {
        let (_, token) = issue(&key, &realm, 20, &user, ip, t0, seed);
        prop_assert!(
            token.len() <= 128,
            "token of {} chars overflows the RADIUS password field",
            token.len()
        );
    }

    /// Any strict prefix of a token is refused (tokens are ASCII, so
    /// every byte cut is a char cut).
    #[test]
    fn any_truncation_is_rejected(
        key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        cut_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let (auth, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        let cut = (cut_seed as usize) % token.len();
        prop_assert!(auth.open(&token[..cut]).is_err());
    }

    /// Replacing any single character with any other character is
    /// refused: in the prefix it malforms, in the body the MAC catches
    /// it, in the MAC the comparison fails.
    #[test]
    fn any_single_char_change_is_rejected(
        key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        pos_seed in any::<u64>(),
        replacement in "[A-Za-z0-9_-]",
        seed in any::<u64>(),
    ) {
        let (auth, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        let pos = (pos_seed as usize) % token.len();
        let replacement = replacement.chars().next().unwrap();
        prop_assume!(token.as_bytes()[pos] != replacement as u8);
        let mut chars: Vec<char> = token.chars().collect();
        chars[pos] = replacement;
        let tampered: String = chars.into_iter().collect();
        prop_assert!(auth.open(&tampered).is_err());
    }

    /// A token has one accepted spelling: padding appended, or the spare
    /// low bits of a final partial quantum set (the same bytes to a lax
    /// decoder, so the MAC would still hold), is malformed.
    #[test]
    fn respelled_tokens_are_malformed(
        key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        pads in 1usize..=3,
        spare in 1usize..16,
        seed in any::<u64>(),
    ) {
        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
        let (auth, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        let padded = format!("{token}{}", "=".repeat(pads));
        prop_assert_eq!(auth.open(&padded).unwrap_err(), TokenError::Malformed);
        // 2 symbols past a quantum leave 4 spare bits, 3 leave 2.
        let spare_bits = match (token.len() - TOKEN_PREFIX.len()) % 4 {
            2 => 4,
            3 => 2,
            _ => 0,
        };
        let spare = spare % (1 << spare_bits);
        if spare != 0 {
            let last = token.as_bytes()[token.len() - 1];
            let value = ALPHABET.iter().position(|&c| c == last).unwrap();
            prop_assert_eq!(value % (1 << spare_bits), 0, "the encoder leaves spare bits zero");
            let respelled = format!(
                "{}{}",
                &token[..token.len() - 1],
                ALPHABET[value | spare] as char
            );
            prop_assert_eq!(auth.open(&respelled).unwrap_err(), TokenError::Malformed);
        }
    }

    /// A token minted under one key never verifies under another.
    #[test]
    fn wrong_key_is_rejected(
        key in arb_key(),
        other_key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        seed in any::<u64>(),
    ) {
        prop_assume!(key != other_key);
        let (_, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        let other = ResumeAuthority::new(&other_key, "tacc", "tacc", 20, 30);
        prop_assert_eq!(other.open(&token).unwrap_err(), TokenError::BadMac);
    }

    /// Presentation from outside the bound /16 is refused as
    /// WrongAddress — checked before the step window, so a thief's
    /// presentation is attributed to theft, not expiry.
    #[test]
    fn wrong_address_is_rejected(
        key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        thief_ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        seed in any::<u64>(),
    ) {
        prop_assume!(TokenClaims::net_of(ip) != TokenClaims::net_of(thief_ip));
        let (auth, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        prop_assert_eq!(
            auth.validate(&token, &user, thief_ip, t0).unwrap_err(),
            TokenError::WrongAddress
        );
    }

    /// Outside the step window — too old, or from the issuer's future —
    /// the token is expired regardless of everything else verifying.
    #[test]
    fn out_of_window_step_is_rejected(
        key in arb_key(),
        user in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        lifetime in 1u64..64,
        beyond in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let (auth, token) = issue(&key, "tacc", lifetime, &user, ip, t0, seed);
        let expired_now = (t0 / 30 + lifetime + beyond) * 30;
        prop_assert_eq!(
            auth.validate(&token, &user, ip, expired_now).unwrap_err(),
            TokenError::Expired
        );
        // A clock before the issue step is equally out of window.
        if t0 / 30 > 0 {
            let future_token_now = (t0 / 30 - 1) * 30;
            prop_assert_eq!(
                auth.validate(&token, &user, ip, future_token_now).unwrap_err(),
                TokenError::Expired
            );
        }
    }

    /// The user binding holds for any other principal.
    #[test]
    fn wrong_user_is_rejected(
        key in arb_key(),
        user in arb_user(),
        other in arb_user(),
        ip in arb_ip(),
        t0 in 1_000_000u64..2_000_000_000,
        seed in any::<u64>(),
    ) {
        prop_assume!(user != other);
        let (auth, token) = issue(&key, "tacc", 20, &user, ip, t0, seed);
        prop_assert_eq!(
            auth.validate(&token, &other, ip, t0).unwrap_err(),
            TokenError::WrongUser
        );
    }

    /// The body decoder behind the MAC never panics: any body sealed
    /// under the authority's own key opens to claims or `Malformed`.
    #[test]
    fn sealed_arbitrary_bodies_open_or_are_malformed(key in arb_key(), body in arb_body()) {
        let auth = ResumeAuthority::new(&key, "tacc", "tacc", 20, 30);
        let mut mac = [0u8; 32];
        HmacKey::<Sha256>::new(&key).mac_into(&body, &mut mac);
        let raw = [body.as_slice(), &mac].concat();
        let token = format!("{TOKEN_PREFIX}{}", encode_url(&raw));
        let opened = auth.open(&token);
        prop_assert!(
            matches!(opened, Ok(_) | Err(TokenError::Malformed)),
            "{opened:?}"
        );
    }

    /// Garbage never panics the parser, and only the exact prefix is
    /// even considered.
    #[test]
    fn arbitrary_strings_never_panic(s in ".{0,200}") {
        let auth = ResumeAuthority::new(b"k", "tacc", "tacc", 20, 30);
        let _ = auth.open(&s);
        let _ = auth.open(&format!("{TOKEN_PREFIX}{s}"));
    }
}
