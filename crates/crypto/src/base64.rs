//! Base64 encoding (RFC 4648 §4 and the URL-safe §5 variant).
//!
//! The portal's out-of-band unpairing flow emails users a signed URL; the
//! HMAC signature and payload travel as URL-safe base64. SSH public keys in
//! `authorized_keys` files are standard base64.

const STD: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
const URL: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Errors from the decoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base64Error {
    /// A character outside the selected alphabet.
    InvalidChar(char),
    /// Length not a valid base64 quantum or stray padding.
    InvalidLength,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::InvalidChar(c) => write!(f, "invalid base64 character {c:?}"),
            Base64Error::InvalidLength => write!(f, "invalid base64 length"),
        }
    }
}

impl std::error::Error for Base64Error {}

fn encode_with(data: &[u8], alphabet: &[u8; 64], pad: bool) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let mut buf = [0u8; 3];
        buf[..chunk.len()].copy_from_slice(chunk);
        let bits = u32::from_be_bytes([0, buf[0], buf[1], buf[2]]);
        let n_sym = chunk.len() + 1;
        for i in 0..n_sym {
            out.push(alphabet[((bits >> (18 - 6 * i)) & 0x3f) as usize] as char);
        }
        if pad {
            for _ in n_sym..4 {
                out.push('=');
            }
        }
    }
    out
}

fn sym_value(c: char, alphabet: &[u8; 64]) -> Result<u32, Base64Error> {
    alphabet
        .iter()
        .position(|&a| a as char == c)
        .map(|p| p as u32)
        .ok_or(Base64Error::InvalidChar(c))
}

/// Decode unpadded `trimmed`; trailing bits below the last byte must be
/// zero, so every blob has one accepted unpadded spelling.
fn decode_with(trimmed: &str, alphabet: &[u8; 64]) -> Result<Vec<u8>, Base64Error> {
    if trimmed.len() % 4 == 1 {
        return Err(Base64Error::InvalidLength);
    }
    let mut out = Vec::with_capacity(trimmed.len() * 3 / 4);
    let mut acc: u32 = 0;
    let mut acc_bits: u32 = 0;
    for c in trimmed.chars() {
        acc = (acc << 6) | sym_value(c, alphabet)?;
        acc_bits += 6;
        if acc_bits >= 8 {
            acc_bits -= 8;
            out.push((acc >> acc_bits) as u8);
        }
    }
    if acc_bits > 0 && (acc & ((1 << acc_bits) - 1)) != 0 {
        return Err(Base64Error::InvalidLength);
    }
    Ok(out)
}

/// Standard base64 with padding.
pub fn encode(data: &[u8]) -> String {
    encode_with(data, STD, true)
}

/// Decode standard base64 (padding optional).
pub fn decode(s: &str) -> Result<Vec<u8>, Base64Error> {
    decode_with(s.trim_end_matches('='), STD)
}

/// URL-safe base64, unpadded — for signed-URL tokens.
pub fn encode_url(data: &[u8]) -> String {
    encode_with(data, URL, false)
}

/// Decode URL-safe base64. Strict: [`encode_url`] never pads, so `=` is
/// refused like any other character outside the alphabet.
pub fn decode_url(s: &str) -> Result<Vec<u8>, Base64Error> {
    decode_with(s, URL)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, enc) in cases {
            assert_eq!(encode(raw), *enc);
            assert_eq!(decode(enc).unwrap(), raw.to_vec());
        }
    }

    #[test]
    fn url_safe_round_trip_no_padding() {
        let data = [0xfbu8, 0xef, 0xbe, 0xff, 0x00, 0x10];
        let enc = encode_url(&data);
        assert!(!enc.contains('='));
        assert!(!enc.contains('+') && !enc.contains('/'));
        assert_eq!(decode_url(&enc).unwrap(), data.to_vec());
    }

    #[test]
    fn url_alphabet_differs_on_62_63() {
        // 0xfb 0xff encodes symbols 62/63 in the first two positions.
        let std = encode(&[0xfb, 0xff]);
        let url = encode_url(&[0xfb, 0xff]);
        assert!(std.starts_with("+"));
        assert!(url.starts_with("-"));
    }

    #[test]
    fn invalid_inputs() {
        assert_eq!(decode("Z!g="), Err(Base64Error::InvalidChar('!')));
        // Interior padding is caught as an invalid character.
        assert_eq!(decode("Zg=v"), Err(Base64Error::InvalidChar('=')));
        assert_eq!(decode("A"), Err(Base64Error::InvalidLength));
        // "Zh" leaves nonzero trailing bits (only "Zg" maps to "f").
        assert_eq!(decode("Zh"), Err(Base64Error::InvalidLength));
        assert_eq!(decode_url("Zm+v"), Err(Base64Error::InvalidChar('+')));
    }

    #[test]
    fn url_decoder_accepts_one_spelling() {
        assert_eq!(decode_url("Zg").unwrap(), b"f");
        assert_eq!(decode_url("Zg=="), Err(Base64Error::InvalidChar('=')));
        assert_eq!(decode_url("Zm8="), Err(Base64Error::InvalidChar('=')));
        assert_eq!(decode_url("Zh"), Err(Base64Error::InvalidLength));
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
        assert_eq!(decode_url(&encode_url(&data)).unwrap(), data);
    }
}
