//! `otpauth://` provisioning URIs (the Google Authenticator key-URI format).
//!
//! "During a soft token pairing, the user is shown a QR code which contains
//! the user's secret key encoded as an image that can be scanned by the
//! mobile application for import" (§3.5). The QR payload is exactly one of
//! these URIs.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::secret::Secret;
use crate::totp::TotpParams;
use hpcmfa_crypto::HashAlg;

/// A parsed or to-be-rendered provisioning URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtpauthUri {
    /// Issuer, e.g. `TACC`.
    pub issuer: String,
    /// Account label, e.g. the username.
    pub account: String,
    /// The shared secret.
    pub secret: Secret,
    /// TOTP parameters carried in the query string.
    pub params: TotpParams,
}

/// Errors from [`OtpauthUri::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UriError {
    /// Not an `otpauth://totp/` URI.
    BadScheme,
    /// Label missing or malformed.
    BadLabel,
    /// `secret` parameter missing or not valid base32.
    BadSecret,
    /// Unparseable numeric parameter.
    BadNumber(String),
    /// Unknown `algorithm` value.
    BadAlgorithm(String),
}

impl std::fmt::Display for UriError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UriError::BadScheme => write!(f, "not an otpauth://totp/ URI"),
            UriError::BadLabel => write!(f, "missing or malformed label"),
            UriError::BadSecret => write!(f, "missing or invalid secret parameter"),
            UriError::BadNumber(p) => write!(f, "invalid numeric parameter {p}"),
            UriError::BadAlgorithm(a) => write!(f, "unknown algorithm {a}"),
        }
    }
}

impl std::error::Error for UriError {}

/// Percent-encode the small reserved set that can appear in labels.
fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn pct_decode(s: &str) -> Option<String> {
    /// One hex digit's value.
    fn nibble(b: Option<u8>) -> Option<u8> {
        u8::try_from(char::from(b?).to_digit(16)?).ok()
    }
    let mut bytes = s.bytes();
    let mut out = Vec::with_capacity(s.len());
    while let Some(b) = bytes.next() {
        if b == b'%' {
            out.push(nibble(bytes.next())?.checked_mul(16)? | nibble(bytes.next())?);
        } else {
            out.push(b);
        }
    }
    String::from_utf8(out).ok()
}

impl OtpauthUri {
    /// Build a URI for a new soft-token pairing.
    pub fn new(issuer: &str, account: &str, secret: Secret, params: TotpParams) -> Self {
        OtpauthUri {
            issuer: issuer.to_string(),
            account: account.to_string(),
            secret,
            params,
        }
    }

    /// Render the canonical URI string.
    pub fn render(&self) -> String {
        format!(
            "otpauth://totp/{}:{}?secret={}&issuer={}&algorithm={}&digits={}&period={}",
            pct_encode(&self.issuer),
            pct_encode(&self.account),
            self.secret.to_base32(),
            pct_encode(&self.issuer),
            self.params.alg.name(),
            self.params.digits,
            self.params.step_secs,
        )
    }

    /// Parse a provisioning URI (as a scanning app would).
    pub fn parse(uri: &str) -> Result<Self, UriError> {
        let rest = uri
            .strip_prefix("otpauth://totp/")
            .ok_or(UriError::BadScheme)?;
        let (label, query) = rest.split_once('?').ok_or(UriError::BadSecret)?;
        // The issuer prefix ends at the first literal ':', so a colon
        // encoded inside either part stays in it; a label with no literal
        // one may use an encoded colon as the separator instead.
        let decode = |part| pct_decode(part).ok_or(UriError::BadLabel);
        let (label_issuer, account) = match label.split_once(':') {
            Some((issuer, account)) => (decode(issuer)?, decode(account)?),
            None => {
                let label = decode(label)?;
                match label.split_once(':') {
                    Some((i, a)) => (i.to_string(), a.to_string()),
                    None => (String::new(), label),
                }
            }
        };
        if account.is_empty() {
            return Err(UriError::BadLabel);
        }

        let mut secret = None;
        let mut issuer = label_issuer.clone();
        let mut params = TotpParams::default();
        for pair in query.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            match k {
                "secret" => secret = Some(Secret::from_base32(v).map_err(|_| UriError::BadSecret)?),
                "issuer" => issuer = pct_decode(v).ok_or(UriError::BadLabel)?,
                "digits" => {
                    params.digits = v
                        .parse()
                        .map_err(|_| UriError::BadNumber("digits".into()))?
                }
                "period" => {
                    params.step_secs = v
                        .parse()
                        .map_err(|_| UriError::BadNumber("period".into()))?
                }
                "algorithm" => {
                    params.alg =
                        HashAlg::parse(v).ok_or_else(|| UriError::BadAlgorithm(v.to_string()))?
                }
                _ => {} // ignore unknown parameters, as scanners do
            }
        }
        let secret = secret.ok_or(UriError::BadSecret)?;
        if secret.is_empty() {
            return Err(UriError::BadSecret);
        }
        let params = params
            .validated()
            .map_err(|p| UriError::BadNumber(p.into()))?;
        Ok(OtpauthUri {
            issuer,
            account,
            secret,
            params,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> OtpauthUri {
        OtpauthUri::new(
            "TACC",
            "cproctor",
            Secret::from_bytes(*b"12345678901234567890"),
            TotpParams::default(),
        )
    }

    #[test]
    fn a_colon_inside_the_issuer_or_account_survives_the_round_trip() {
        let mut uri = sample();
        (uri.issuer, uri.account) = ("TACC:HPC".into(), "cproctor:admin".into());
        assert_eq!(OtpauthUri::parse(&uri.render()).unwrap(), uri);
        // An encoded colon still separates a label that has no literal one.
        let encoded = "otpauth://totp/TACC%3Acproctor?secret=GEZDGNBV";
        let parsed = OtpauthUri::parse(encoded).unwrap();
        assert_eq!(
            (parsed.issuer.as_str(), parsed.account.as_str()),
            ("TACC", "cproctor")
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let uri = sample();
        let rendered = uri.render();
        assert!(rendered.starts_with("otpauth://totp/TACC:cproctor?"));
        let parsed = OtpauthUri::parse(&rendered).unwrap();
        assert_eq!(parsed, uri);
    }

    #[test]
    fn renders_expected_fields() {
        let rendered = sample().render();
        assert!(rendered.contains("secret=GEZDGNBVGY3TQOJQGEZDGNBVGY3TQOJQ"));
        assert!(rendered.contains("issuer=TACC"));
        assert!(rendered.contains("digits=6"));
        assert!(rendered.contains("period=30"));
        assert!(rendered.contains("algorithm=SHA1"));
    }

    #[test]
    fn label_with_spaces_percent_encoded() {
        let uri = OtpauthUri::new(
            "Texas Advanced Computing Center",
            "user name",
            Secret::from_bytes(*b"12345678901234567890"),
            TotpParams::default(),
        );
        let rendered = uri.render();
        assert!(rendered.contains("Texas%20Advanced%20Computing%20Center"));
        let parsed = OtpauthUri::parse(&rendered).unwrap();
        assert_eq!(parsed.account, "user name");
        assert_eq!(parsed.issuer, "Texas Advanced Computing Center");
    }

    #[test]
    fn parse_without_issuer_prefix() {
        let uri = "otpauth://totp/alice?secret=GEZDGNBVGY3TQOJQGEZDGNBVGY3TQOJQ";
        let parsed = OtpauthUri::parse(uri).unwrap();
        assert_eq!(parsed.account, "alice");
        assert_eq!(parsed.issuer, "");
        assert_eq!(parsed.params, TotpParams::default());
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            OtpauthUri::parse("otpauth://hotp/x?secret=MZXW6YTB"),
            Err(UriError::BadScheme)
        );
        assert_eq!(
            OtpauthUri::parse("otpauth://totp/a:b?digits=6"),
            Err(UriError::BadSecret)
        );
        assert_eq!(
            OtpauthUri::parse("otpauth://totp/a:b?secret=1NVALID0"),
            Err(UriError::BadSecret)
        );
        assert_eq!(
            OtpauthUri::parse("otpauth://totp/a:b?secret=MZXW6YTB&digits=six"),
            Err(UriError::BadNumber("digits".into()))
        );
        assert_eq!(
            OtpauthUri::parse("otpauth://totp/a:b?secret=MZXW6YTB&algorithm=MD5"),
            Err(UriError::BadAlgorithm("MD5".into()))
        );
        assert_eq!(
            OtpauthUri::parse("otpauth://totp/?secret=MZXW6YTB"),
            Err(UriError::BadLabel)
        );
    }

    #[test]
    fn out_of_range_parameters_are_refused() {
        // A zero period would divide by zero at the first code; ten digits
        // overflow the `10^digits` modulus.
        for (query, param) in [
            ("period=0", "period"),
            ("digits=10", "digits"),
            ("digits=5", "digits"),
        ] {
            let uri = format!("otpauth://totp/a:b?secret=MZXW6YTB&{query}");
            assert_eq!(
                OtpauthUri::parse(&uri),
                Err(UriError::BadNumber(param.into())),
                "{query}"
            );
        }
        let nine = OtpauthUri::parse("otpauth://totp/a:b?secret=MZXW6YTB&digits=9&period=1");
        assert_eq!(nine.map(|u| u.params.digits), Ok(9));
    }

    #[test]
    fn unknown_parameters_ignored() {
        let uri = "otpauth://totp/a:b?secret=MZXW6YTB&image=https%3A%2F%2Fx&counter=9";
        assert!(OtpauthUri::parse(uri).is_ok());
    }

    #[test]
    fn parsed_secret_generates_same_codes() {
        // End-to-end: the app that scans the QR must produce the same codes
        // as the server that generated the secret.
        let uri = sample();
        let parsed = OtpauthUri::parse(&uri.render()).unwrap();
        let server = crate::Totp::with_params(uri.secret.clone(), uri.params);
        let app = crate::Totp::with_params(parsed.secret, parsed.params);
        for t in [0u64, 59, 1_475_000_000] {
            assert_eq!(server.code_at(t), app.code_at(t));
        }
    }
}
