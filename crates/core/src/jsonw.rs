//! A minimal, serde-free JSON writer.
//!
//! The observability layer promises *byte-deterministic* machine-readable
//! output, which is easier to guarantee by constructing the document by
//! hand than by trusting a serializer's map ordering. Only the subset
//! the exporters need is implemented: objects, arrays, strings, u64/i64,
//! f64 (fixed 3-decimal rendering so formatting never varies), bools.
//!
//! Keys and string values are escaped straight into the output buffer
//! ([`escape_into`]); text with nothing to escape, which is nearly every
//! metric name and frame key, is copied whole, so rendering a document
//! allocates nothing per field beyond the buffer's own growth.
//!
//! ```
//! use dma_core::jsonw::JsonWriter;
//! let mut w = JsonWriter::new();
//! w.obj(|w| {
//!     w.field_str("name", "iotlb");
//!     w.field_u64("hits", 42);
//!     w.field("tags", |w| w.arr(|w| {
//!         w.elem(|w| w.str("a"));
//!         w.elem(|w| w.str("b"));
//!     }));
//! });
//! assert_eq!(w.finish(), r#"{"name":"iotlb","hits":42,"tags":["a","b"]}"#);
//! ```

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped for inclusion inside a JSON string literal, to
/// `out`. Text without a `"`, a `\` or a control byte is pushed whole;
/// only text that has one is rewritten char by char.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// Streaming JSON builder; see the module docs for the example.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Consumes the writer, returning the document.
    pub fn finish(self) -> String {
        self.buf
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.buf.push(',');
            }
            *need = true;
        }
    }

    /// Writes an object; populate fields inside `f`.
    pub fn obj(&mut self, f: impl FnOnce(&mut Self)) {
        self.buf.push('{');
        self.need_comma.push(false);
        f(self);
        self.need_comma.pop();
        self.buf.push('}');
    }

    /// Writes an array; populate elements inside `f`.
    pub fn arr(&mut self, f: impl FnOnce(&mut Self)) {
        self.buf.push('[');
        self.need_comma.push(false);
        f(self);
        self.need_comma.pop();
        self.buf.push(']');
    }

    /// Starts an object field whose value `f` writes.
    pub fn field(&mut self, key: &str, f: impl FnOnce(&mut Self)) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        // The value itself must not re-trigger comma logic at this level.
        self.need_comma.push(false);
        f(self);
        self.need_comma.pop();
    }

    /// Writes one array element via `f`.
    pub fn elem(&mut self, f: impl FnOnce(&mut Self)) {
        self.pre_value();
        self.need_comma.push(false);
        f(self);
        self.need_comma.pop();
    }

    /// Bare string value.
    pub fn str(&mut self, v: &str) {
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Bare u64 value.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.buf, "{v}");
    }

    /// Bare i64 value.
    pub fn i64(&mut self, v: i64) {
        let _ = write!(self.buf, "{v}");
    }

    /// Bare f64 value, always rendered with 3 decimals.
    pub fn f64(&mut self, v: f64) {
        let _ = write!(self.buf, "{v:.3}");
    }

    /// Bare bool value.
    pub fn bool(&mut self, v: bool) {
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Embeds an already-rendered JSON document verbatim — for nesting
    /// one exporter's output (e.g. a metrics snapshot) inside another's.
    /// The caller is responsible for `v` being valid JSON.
    pub fn raw(&mut self, v: &str) {
        self.buf.push_str(v);
    }

    /// `"key": "value"` string field.
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.field(key, |w| w.str(v));
    }

    /// `"key": 123` u64 field.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.field(key, |w| w.u64(v));
    }

    /// `"key": -1` i64 field.
    pub fn field_i64(&mut self, key: &str, v: i64) {
        self.field(key, |w| w.i64(v));
    }

    /// `"key": 0.500` f64 field (3 decimals, stable formatting).
    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.field(key, |w| w.f64(v));
    }

    /// `"key": true` bool field.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.field(key, |w| w.bool(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// The per-char escaping rules, kept here as the reference that
    /// `escape_into`'s whole-copy case must agree with.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn keys_and_values_escape_like_the_reference_and_parse_back() {
        let plain: Vec<char> = (0x20u8..0x7f)
            .map(char::from)
            .filter(|c| !matches!(c, '"' | '\\'))
            .chain(['/', 'é', '€', '😀', '\u{2028}'])
            .collect();
        let mut full: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
        full.extend(['"', '\\']);
        full.extend_from_slice(&plain);
        let mut rng = crate::rng::DetRng::new(0x6a73_6f6e);
        for _ in 0..2000 {
            // Half the strings need no escaping, so both cases run.
            let alphabet = if rng.chance(1, 2) { &plain } else { &full };
            let len = rng.below(24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect();
            let mut w = JsonWriter::new();
            w.obj(|w| {
                w.field_str(&s, &s);
                w.field("arr", |w| w.arr(|w| w.elem(|w| w.str(&s))));
            });
            let doc = w.finish();
            let e = reference_escape(&s);
            assert_eq!(
                doc,
                format!("{{\"{e}\":\"{e}\",\"arr\":[\"{e}\"]}}"),
                "{s:?}"
            );
            let v = crate::jsonr::parse(&doc).expect("escaped output parses");
            let fields = v.as_obj().expect("an object");
            assert_eq!(fields[0].0, s);
            assert_eq!(fields[0].1.as_str(), Some(s.as_str()));
            let arr = fields[1].1.as_arr().expect("an array");
            assert_eq!(arr[0].as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn nested_structures_comma_correctly() {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("a", 1);
            w.field("b", |w| {
                w.arr(|w| {
                    w.elem(|w| w.u64(2));
                    w.elem(|w| w.obj(|w| w.field_bool("c", false)));
                });
            });
            w.field_str("d", "x");
            w.field_f64("e", 0.5);
            w.field_i64("f", -3);
        });
        assert_eq!(
            w.finish(),
            r#"{"a":1,"b":[2,{"c":false}],"d":"x","e":0.500,"f":-3}"#
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field("a", |w| w.arr(|_| {}));
            w.field("b", |w| w.obj(|_| {}));
        });
        assert_eq!(w.finish(), r#"{"a":[],"b":{}}"#);
    }
}
