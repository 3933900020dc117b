//! A minimal ordered JSON document builder and parser, shared by every
//! tool in the workspace that speaks JSON.
//!
//! The workspace builds offline, so it carries its own serializer instead
//! of depending on `serde_json`. Object keys keep their insertion order,
//! which makes exported `BENCH_*.json` files diffable across runs and
//! thread counts, and makes the `grserve` daemon's responses byte-stable
//! for content-addressed caching. The companion [`Json::parse`] reads the
//! same documents back; the serving layer uses it to decode request
//! bodies.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (printed without a decimal point).
    UInt(u64),
    /// A finite double (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts `key` into an object, replacing an existing entry in place.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(entries) = self else { panic!("Json::set on a non-object") };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
        self
    }

    /// The entry for `key`, when `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when `self` is a number ([`Json::UInt`] included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string value, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The key/value entries, when `self` is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Parses a JSON document. Object keys keep document order; integers
    /// without a fraction or exponent parse as [`Json::UInt`], every other
    /// number as [`Json::Num`].
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input (including
    /// trailing non-whitespace after the document).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// final line, matching `serde_json::to_string_pretty` conventions.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                entries.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are not needed for the harness's
                        // ASCII-named documents; reject them explicitly.
                        let c = char::from_u32(code).ok_or("surrogate \\u escape unsupported")?;
                        out.push(c);
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (keys and values may hold any
                // unescaped non-ASCII text).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(u64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string_pretty(), "null");
        assert_eq!(Json::Bool(true).to_string_pretty(), "true");
        assert_eq!(Json::UInt(42).to_string_pretty(), "42");
        assert_eq!(Json::Num(0.5).to_string_pretty(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string_pretty(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\n").to_string_pretty(), r#""a\"b\\c\n""#);
        assert_eq!(Json::from("\u{1}").to_string_pretty(), "\"\\u0001\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut o = Json::obj();
        o.set("z", 1u64).set("a", 2u64).set("z", 3u64);
        assert_eq!(o.to_string_pretty(), "{\n  \"z\": 3,\n  \"a\": 2\n}");
    }

    #[test]
    fn nesting_indents() {
        let mut inner = Json::obj();
        inner.set("k", Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
        let mut o = Json::obj();
        o.set("outer", inner);
        let expected = "{\n  \"outer\": {\n    \"k\": [\n      1,\n      2\n    ]\n  }\n}";
        assert_eq!(o.to_string_pretty(), expected);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::obj().to_string_pretty(), "{}");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let mut inner = Json::obj();
        inner.set("rate", 1.25).set("count", 42u64).set("ok", true);
        let mut doc = Json::obj();
        doc.set("name", "NRU \"quoted\"\n")
            .set("policies", Json::Arr(vec![inner, Json::Null]))
            .set("empty", Json::Arr(vec![]));
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integral_floats_reparse_as_uint() {
        // `Num(2.0)` prints as `2` (the serializer has no trailing `.0`),
        // so it comes back as `UInt(2)` — numerically equal via `as_f64`.
        let text = Json::Num(2.0).to_string_pretty();
        assert_eq!(text, "2");
        assert_eq!(Json::parse(&text).unwrap(), Json::UInt(2));
    }

    #[test]
    fn parse_distinguishes_uint_from_float() {
        let doc = Json::parse(r#"{"a": 7, "b": 7.0, "c": -7, "d": 1e3}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::UInt(7)));
        assert_eq!(doc.get("b"), Some(&Json::Num(7.0)));
        assert_eq!(doc.get("c"), Some(&Json::Num(-7.0)));
        assert_eq!(doc.get("d"), Some(&Json::Num(1000.0)));
    }

    #[test]
    fn parse_keeps_document_key_order() {
        let doc = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = doc.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn parse_decodes_escapes() {
        let doc = Json::parse(r#""tab\t quote\" uA""#).unwrap();
        assert_eq!(doc.as_str(), Some("tab\t quote\" uA"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Str("x".into()).as_f64(), None);
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Json::UInt(3).as_str(), None);
        assert_eq!(Json::Arr(vec![]).entries(), None);
    }
}
