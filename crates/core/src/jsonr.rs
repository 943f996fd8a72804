//! A minimal, serde-free JSON reader — the inverse of [`crate::jsonw`].
//!
//! The checkpoint layer writes snapshots with [`crate::jsonw::JsonWriter`]
//! and must read them back without pulling in a serialization framework
//! (determinism and dependency policy both forbid one). This is a small
//! recursive-descent parser producing a [`JValue`] tree.
//!
//! Numbers are kept as their **raw source text** and parsed lazily
//! ([`JValue::as_u64`] etc.): the snapshots carry full-range `u64`
//! values (KVAs like `0xffff_8880_…` rendered in decimal) that an eager
//! `f64` representation would silently corrupt.
//!
//! ```
//! use dma_core::jsonr::parse;
//! let v = parse(r#"{"seed":7,"bits":[1,2,3],"ok":true}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(7));
//! assert_eq!(v.get("bits").and_then(|b| b.as_arr()).map(|a| a.len()), Some(3));
//! ```

use std::fmt;

/// Maximum nesting depth accepted (defense against pathological input).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object fields keep their source order.
#[derive(Clone, Debug, PartialEq)]
pub enum JValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw source text (lossless for any u64/i64).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JValue)>),
}

impl JValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JValue> {
        match self {
            JValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if it parses.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if it parses.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JValue]> {
        match self {
            JValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JValue)]> {
        match self {
            JValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)?.as_u64()`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Convenience: `self.get(key)?.as_str()`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable cause.
    pub what: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(s: &str) -> Result<JValue, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError {
            what,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, what: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JValue::Str(self.string()?)),
            Some(b't') => {
                self.literal("true", "expected 'true'")?;
                Ok(JValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected 'false'")?;
                Ok(JValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null", "expected 'null'")?;
                Ok(JValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JValue::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JValue::Arr(elems));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are not produced by jsonw;
                            // map a lone surrogate to the replacement
                            // character rather than failing the load.
                            out.push(char::from_u32(cp as u32).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte. All three are ASCII, so the run ends
                    // on a character boundary of the `&str` input and
                    // multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            v = (v << 4) | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        Ok(JValue::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonw::JsonWriter;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JValue::Null);
        assert_eq!(parse("true").unwrap(), JValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("0.500").unwrap().as_f64(), Some(0.5));
        assert_eq!(parse("\"hi\\n\"").unwrap().as_str(), Some("hi\n"));
    }

    #[test]
    fn full_range_u64_survives() {
        // 0xffff_8880_0000_0000 and u64::MAX both exceed f64 precision;
        // raw-text numbers must round-trip them exactly.
        for v in [0xffff_8880_0000_0000u64, u64::MAX, u64::MAX - 1] {
            assert_eq!(parse(&v.to_string()).unwrap().as_u64(), Some(v));
        }
    }

    #[test]
    fn containers_nest_and_keep_order() {
        let v = parse(r#"{"b":[1,{"c":2}],"a":3}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].get("c").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn jsonw_output_round_trips() {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("big", u64::MAX);
            w.field_str("escaped", "a\"b\\c\nd\u{1}");
            w.field_bool("flag", true);
            w.field("list", |w| {
                w.arr(|w| {
                    w.elem(|w| w.u64(1));
                    w.elem(|w| w.str("two"));
                });
            });
            w.field_i64("neg", -5);
            w.field_f64("frac", 0.25);
        });
        let doc = w.finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.u64_field("big"), Some(u64::MAX));
        assert_eq!(v.str_field("escaped"), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-5));
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for (doc, _why) in [
            ("{", "unterminated object"),
            ("[1,]", "trailing comma"),
            (r#"{"a" 1}"#, "missing colon"),
            ("tru", "bad literal"),
            ("\"abc", "unterminated string"),
            ("1 2", "trailing garbage"),
            ("", "empty"),
        ] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
        let e = parse("[1,").unwrap_err();
        assert!(e.to_string().contains("byte 3"), "{e}");
    }

    #[test]
    fn string_parsing_is_linear_in_the_document() {
        // ~1 MiB of escaped and multi-byte strings. A reader that
        // re-scans the rest of the document per character takes minutes
        // on this; a linear one takes milliseconds even in a debug build.
        let item = r#""ascii run then \"escapes\"\n, é, 日本, \u00e9 and more text""#;
        let doc = format!("[{}]", vec![item; 17_000].join(","));
        assert!(doc.len() > 1 << 20, "{}", doc.len());
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 17_000);
        assert_eq!(
            arr[16_999].as_str(),
            Some("ascii run then \"escapes\"\n, é, 日本, é and more text")
        );
        assert!(elapsed.as_secs() < 5, "1 MiB parse took {elapsed:?}");
    }

    #[test]
    fn raw_control_characters_are_rejected_at_their_offset() {
        let e = parse("\"ab\u{1}c\"").unwrap_err();
        assert_eq!(e.what, "raw control character in string");
        assert_eq!(e.offset, 3);
        assert_eq!(parse("\"日\u{7f}\"").unwrap().as_str(), Some("日\u{7f}"));
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }
}
