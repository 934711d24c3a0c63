//! JSON without dependencies: the workspace's one JSON tree
//! ([`JsonValue`]), its strict parser ([`parse`]), its printer (the
//! `Display` impl), the [`json!`](crate::json) builder, and the string
//! escaper every exporter in this crate shares.
//!
//! The benchmark binaries build their documents with `json!` and print
//! them; the exporter round-trip tests and `bench_guard`'s committed
//! baseline file read theirs back through [`parse`].
//!
//! The printer has one form: 2-space indentation, object keys sorted in
//! byte order, integers exact, integral floats below 1e15 with a trailing
//! `.0`, other floats in Rust's shortest round-trip form, and non-finite
//! floats as `null`. So a tree whose objects list their keys in order
//! parses back equal, except that an integral float of 1e15 or more
//! prints without `.0` and comes back as an integer.
//!
//! "Strict" means stricter than lenient production parsers where the
//! strictness catches exporter bugs:
//!
//! * duplicate keys inside one object are an **error** (a duplicate
//!   metric name in an export is a bug, not a last-wins tie);
//! * trailing non-whitespace after the document is an error;
//! * only the escape sequences of RFC 8259 are accepted, including
//!   `\uXXXX` surrogate pairs; lone surrogates are rejected;
//! * numbers follow the JSON grammar exactly (no leading `+`, no bare
//!   `.5`, no hex, no `NaN`/`Infinity`);
//! * nesting depth is capped so malformed input cannot blow the stack.

use std::fmt::{self, Write as _};

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// and every control character).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON value. Objects keep their fields in insertion (or source)
/// order, so tests can assert on exporter order; the printer sorts them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. A parsed object's keys are unique.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::Float(v) if !v.is_finite() => f.write_str("null"),
            JsonValue::Float(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(f, "{v:.1}"),
            JsonValue::Float(v) => write!(f, "{v}"),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Arr(items) => {
                write_list(f, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            JsonValue::Obj(fields) => {
                let mut sorted: Vec<_> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                write_list(
                    f,
                    depth,
                    ('{', '}'),
                    sorted.into_iter().map(|(k, v)| (Some(k), v)),
                )
            }
        }
    }
}

/// One array or object: `[]`/`{}` when empty, else one entry per line,
/// indented two spaces per level.
fn write_list<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    (open, close): (char, char),
    entries: impl ExactSizeIterator<Item = (Option<&'a String>, &'a JsonValue)>,
) -> fmt::Result {
    if entries.len() == 0 {
        return write!(f, "{open}{close}");
    }
    f.write_char(open)?;
    for (i, (key, value)) in entries.enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(f, "{sep}\n{:indent$}", "", indent = 2 * (depth + 1))?;
        if let Some(key) = key {
            write!(f, "\"{}\": ", escape(key))?;
        }
        value.write(f, depth + 1)?;
    }
    write!(f, "\n{:indent$}{close}", "", indent = 2 * depth)
}

/// The one printed form (see the module docs).
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Int(v as i128)
            }
        }
    )*};
}

from_int!(u32, u64, usize, i32, i64);

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl<T: Clone + Into<JsonValue>> From<&T> for JsonValue {
    fn from(v: &T) -> Self {
        v.clone().into()
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Builds a [`JsonValue`](crate::jsonv::JsonValue) from a JSON-shaped
/// literal. Object values and array elements may be nested `{...}` /
/// `[...]` literals, `null`, or any Rust expression with a `From`
/// conversion into `JsonValue`.
///
/// ```
/// let x = 2.0;
/// let doc = neo_trace::json!({ "b": [1u64, null], "a": { "half": x / 2.0 } });
/// assert_eq!(doc.to_string(), "{\n  \"a\": {\n    \"half\": 1.0\n  },\n  \"b\": [\n    1,\n    null\n  ]\n}");
/// ```
#[macro_export]
macro_rules! json {
    // Arrays and objects munch one entry at a time into `[done, ...]`.
    (@array [$($done:expr),*]) => {
        $crate::jsonv::JsonValue::Arr(::std::vec![$($done),*])
    };
    (@array [$($done:expr),*] $value:tt $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::json!($value)] $($($rest)*)?)
    };
    (@array [$($done:expr),*] $value:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($done,)* $crate::json!($value)] $($($rest)*)?)
    };
    (@object [$($done:expr),*]) => {
        $crate::jsonv::JsonValue::Obj(::std::vec![$($done),*])
    };
    (@object [$($done:expr),*] $key:literal : $value:tt $(, $($rest:tt)*)?) => {
        $crate::json!(@object [$($done,)* ($key.to_string(), $crate::json!($value))] $($($rest)*)?)
    };
    (@object [$($done:expr),*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@object [$($done,)* ($key.to_string(), $crate::json!($value))] $($($rest)*)?)
    };
    (null) => {
        $crate::jsonv::JsonValue::Null
    };
    ([ $($tt:tt)* ]) => {
        $crate::json!(@array [] $($tt)*)
    };
    ({ $($tt:tt)* }) => {
        $crate::json!(@object [] $($tt)*)
    };
    ($other:expr) => {
        $crate::jsonv::JsonValue::from($other)
    };
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                0x00..=0x1F => return Err(format!("unescaped control byte at {}", self.pos - 1)),
                _ => {
                    // Re-borrow the raw UTF-8: step back and take the
                    // whole code point (input is &str, so it's valid).
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        let v = u16::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape {s:?}"))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("lone high surrogate".to_string());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".to_string());
            }
            let c = 0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
            char::from_u32(c).ok_or_else(|| "invalid surrogate pair".to_string())
        } else if (0xDC00..0xE000).contains(&hi) {
            Err("lone low surrogate".to_string())
        } else {
            char::from_u32(u32::from(hi)).ok_or_else(|| "invalid \\u escape".to_string())
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b) if b.is_ascii_digit() => {
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("invalid number at byte {start}"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("invalid number at byte {start}"));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        // Without fraction or exponent (and within i128) it is an integer.
        if let Ok(v) = s.parse::<i128>() {
            return Ok(JsonValue::Int(v));
        }
        s.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("invalid number {s:?}: {e}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let v = parse(
            r#"{"a": [1, -2.5, 1e3, true, false, null], "b": {"nested": "x"}, "s": "q\"\\\né😀"}"#,
        )
        .expect("valid document");
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(6)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_array())
                .and_then(|a| a[2].as_f64()),
            Some(1000.0)
        );
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("nested"))
                .and_then(JsonValue::as_str),
            Some("x")
        );
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("q\"\\\né😀"));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let hostile = "q\"\\\n\t\r\u{1}é";
        let doc = format!("\"{}\"", escape(hostile));
        assert_eq!(parse(&doc).expect("valid"), JsonValue::Str(hostile.into()));
    }

    #[test]
    fn preserves_object_source_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).expect("valid");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"dup\": 1, \"dup\": 2}",
            "01",
            "+1",
            ".5",
            "1.",
            "1e",
            "NaN",
            "Infinity",
            "'single'",
            "\"bad \\x escape\"",
            "\"lone \\ud800 surrogate\"",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn json_macro_shapes() {
        let rows = vec![json!({ "a": 1u64, "b": 2.5f64 })];
        let v = json!({ "rows": rows, "name": "x", "flag": true, "none": null });
        assert_eq!(v.as_object().map(<[_]>::len), Some(4));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("rows")
                .and_then(JsonValue::as_array)
                .and_then(|rows| rows[0].get("b"))
                .and_then(JsonValue::as_f64),
            Some(2.5)
        );
    }

    #[test]
    fn json_macro_nests_inline() {
        let x = 2.0f64;
        let v = json!({
            "outer": { "inner": [1u64, 2u64, { "deep": x / 2.0 }], "n": null },
            "arr": [[1u64], []],
            "expr": x * 3.0,
        });
        let inner = v.get("outer").and_then(|o| o.get("inner"));
        assert_eq!(
            inner
                .and_then(JsonValue::as_array)
                .and_then(|a| a[2].get("deep"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(v.get("expr").and_then(JsonValue::as_f64), Some(6.0));
        assert_eq!(
            v.get("arr"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Arr(vec![JsonValue::Int(1)]),
                JsonValue::Arr(vec![]),
            ]))
        );
    }

    #[test]
    fn pretty_output_is_pinned() {
        let v = json!({ "b": 1u64, "a": [1u64, 2u64], "s": "hi\"x", "e": {}, "l": [] });
        assert_eq!(
            v.to_string(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": 1,\n  \"e\": {},\n  \"l\": [],\n  \"s\": \"hi\\\"x\"\n}"
        );
    }

    #[test]
    fn numbers_follow_the_printed_conventions() {
        assert_eq!(json!(1.0f64).to_string(), "1.0");
        assert_eq!(json!(0.25f64).to_string(), "0.25");
        assert_eq!(json!(f64::NAN).to_string(), "null");
        assert_eq!(json!(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(json!(-3i64).to_string(), "-3");
        assert_eq!(json!(u64::MAX).to_string(), "18446744073709551615");
        // Integral floats of 1e15 or more print without `.0`, so they
        // parse back as integers.
        assert_eq!(
            json!(999_999_999_999_999.0f64).to_string(),
            "999999999999999.0"
        );
        assert_eq!(json!(1e15f64).to_string(), "1000000000000000");
        assert_eq!(json!(-2e16f64).to_string(), "-20000000000000000");
        assert_eq!(
            parse("1000000000000000"),
            Ok(JsonValue::Int(1_000_000_000_000_000))
        );
    }

    #[test]
    fn printed_trees_parse_back_equal() {
        let v = json!({
            "floats": [0.25f64, -2.5, 1.0, -0.0, 0.1, 1e-7, 123_456.789, f64::MIN_POSITIVE],
            "ints": [0u64, u64::MAX, i64::MIN, -1i64],
            "nested": { "a": [], "b": {}, "c": [true, false, null] },
            "strings": [
                "",
                "quote \" backslash \\ slash /",
                "\n\t\r",
                "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
                "é ∑ 😀 \u{10FFFF}",
            ],
        });
        let text = v.to_string();
        assert_eq!(parse(&text), Ok(v), "{text}");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }
}
