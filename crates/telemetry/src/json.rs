//! A minimal hand-written JSON parser.
//!
//! The workspace builds fully offline, so instead of serde this small
//! recursive-descent parser backs everything that must *read* JSON: the
//! `repro diff` perf-regression gate (bench/metrics baselines) and the
//! round-trip validation of the hand-rolled writers ([`crate::sink`],
//! [`crate::perfetto`]).  It accepts exactly RFC 8259 JSON — no
//! comments, no trailing commas — and keeps object member order.
//! Arrays and objects nest at most [`MAX_DEPTH`] levels deep, so a
//! hostile document is an error instead of a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The member `key` of an object, when present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Element `i` of an array, when present.
    pub fn index(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Flattens every numeric leaf into `path → value` pairs, with dotted
    /// object paths and `[i]` array indices.  When every element of an
    /// array is an object carrying a string `design` or `name` member,
    /// that member is used as the index instead, so reordering entries
    /// does not break baseline comparisons.
    pub fn flatten_numbers(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        flatten_into(self, String::new(), &mut out);
        out
    }
}

fn flatten_into(v: &JsonValue, path: String, out: &mut BTreeMap<String, f64>) {
    match v {
        JsonValue::Number(n) => {
            out.insert(path, *n);
        }
        JsonValue::Bool(b) => {
            out.insert(path, if *b { 1.0 } else { 0.0 });
        }
        JsonValue::Object(members) => {
            for (k, member) in members {
                let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                flatten_into(member, child, out);
            }
        }
        JsonValue::Array(items) => {
            let labels: Option<Vec<&str>> = items
                .iter()
                .map(|it| {
                    it.get("design")
                        .or_else(|| it.get("name"))
                        .and_then(JsonValue::as_str)
                })
                .collect();
            for (i, item) in items.iter().enumerate() {
                let idx = match &labels {
                    Some(names) if !names.is_empty() => names[i].to_string(),
                    _ => i.to_string(),
                };
                flatten_into(item, format!("{path}[{idx}]"), out);
            }
        }
        JsonValue::Null | JsonValue::String(_) => {}
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
/// Every document the repository writes or reads nests at most 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (trailing whitespace allowed,
/// anything else after the value is an error).
///
/// # Errors
///
/// Returns a [`JsonParseError`] locating the first malformed byte, or
/// the first container nested deeper than [`MAX_DEPTH`].
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after top-level value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let container = if c == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                container
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8 by
                    // construction: it came from a &str).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let s = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let rest = self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| {
            self.err("truncated \\u escape")
        })?;
        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("number out of range"))
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
    fn parses_scalars_containers_and_escapes() {
        let v = parse_json(
            r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "x\n\"\\\u0041", "o": {}}"#,
        )
        .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[5], JsonValue::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"\\A"));
        assert_eq!(v.get("o").unwrap(), &JsonValue::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "{'a':1}", "01", "1.", "1e", "\"\\q\"",
            "nul", "[1] extra", "\"unterminated", "{\"a\":1,}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let deep_array = "[".repeat(100_000) + &"]".repeat(100_000);
        let deep_object = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        for deep in [&deep_array, &deep_object] {
            let err = parse_json(deep).unwrap_err();
            assert!(err.message.contains("128"), "{err}");
            assert_eq!(err.offset, MAX_DEPTH * if deep.starts_with('[') { 1 } else { 5 });
        }
        // Exactly the limit still parses; one more level does not.
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&at_limit).is_ok());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&past).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse_json(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "unpaired surrogate accepted");
    }

    #[test]
    fn flatten_uses_design_names_for_array_keys() {
        let v = parse_json(
            r#"{"designs":[{"design":"BSC-L4","cycles":64},{"design":"LPC-L4","cycles":64}],
                "plain":[10,20]}"#,
        )
        .unwrap();
        let flat = v.flatten_numbers();
        assert_eq!(flat["designs[BSC-L4].cycles"], 64.0);
        assert_eq!(flat["designs[LPC-L4].cycles"], 64.0);
        assert_eq!(flat["plain[0]"], 10.0);
        assert_eq!(flat["plain[1]"], 20.0);
    }
}
