//! A minimal JSON value type and its writer.
//!
//! The admin interface is "available as a Representational State Transfer
//! (REST) interface" (§3.5); its payloads are JSON. The approved offline
//! dependency set has no JSON crate, so this module implements the small
//! subset needed: objects, arrays, strings (with escapes), numbers, bools,
//! null. Numbers are kept as `f64`, which covers every value the API emits.
//! Requests reach the API as `Json` values in-process, so nothing here
//! parses JSON text: the [`Display`](std::fmt::Display) writer is the wire
//! format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object builder from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Get an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer content (numbers that are whole).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Bool content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_write_compactly() {
        for (v, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Num(42.0), "42"),
            (Json::Num(-7.0), "-7"),
            (Json::Num(2.5), "2.5"),
            (Json::Num(1e20), "100000000000000000000"),
            (Json::str("hi"), "\"hi\""),
        ] {
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn nested_structure_writes_keys_in_order() {
        let v = Json::obj([
            (
                "result",
                Json::obj([("status", Json::Bool(true)), ("value", Json::Num(3.0))]),
            ),
            ("detail", Json::Arr(vec![Json::str("a"), Json::Null])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"detail":["a",null],"result":{"status":true,"value":3}}"#
        );
    }

    #[test]
    fn string_escapes() {
        let v = Json::str("line1\nline2\t\"quoted\" \\ \u{1}");
        assert_eq!(v.to_string(), r#""line1\nline2\t\"quoted\" \\ \u0001""#);
        let key = Json::Obj([("a\"b".to_string(), Json::Null)].into());
        assert_eq!(key.to_string(), r#"{"a\"b":null}"#);
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(Json::str("café ☕").to_string(), "\"café ☕\"");
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("n", Json::Num(5.0)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn deep_nesting_writes() {
        let mut v = Json::Num(1.0);
        for _ in 0..50 {
            v = Json::Arr(vec![v]);
        }
        assert_eq!(
            v.to_string(),
            format!("{}1{}", "[".repeat(50), "]".repeat(50))
        );
    }
}
