//! A minimal JSON parser and two writers — just enough to build the
//! bench artifacts as values, stream the exporters' compact lines, and
//! validate both in tests and tooling without pulling an external
//! dependency into the zero-dep crate.
//!
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) but keeps numbers as `f64` and makes no
//! attempt at performance; it is not a serde. [`Value::write`] and
//! [`parse`] are symmetric: `parse(&v.write()) == Ok(v)` for every value
//! without non-finite numbers.
//!
//! [`object`] streams one compact object through a [`Writer`]: fields in
//! call order (a [`Value`] object sorts its keys), numbers by `Display`,
//! non-finite numbers as `null`. The event JSONL, the Chrome trace, the
//! metrics snapshot and the server's telemetry line are written by it.

use std::collections::BTreeMap;

/// A parsed JSON value.
///
/// # Example: reading a `BENCH_real.json` artifact
///
/// The bench harness's artifacts are plain JSON; this parser is enough
/// to pull numbers back out of them in tests and tooling:
///
/// ```
/// use tahoe_obs::json;
///
/// let artifact = r#"{
///   "schema": "tahoe-bench-real/v3",
///   "runs": [
///     {"policy": "tahoe", "workers": 4, "migrations": 12, "pct_overlap": 91.2}
///   ]
/// }"#;
/// let v = json::parse(artifact).unwrap();
/// assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("tahoe-bench-real/v3"));
/// let runs = v.get("runs").and_then(|r| r.as_array()).unwrap();
/// let tahoe = runs
///     .iter()
///     .find(|r| r.get("policy").and_then(|p| p.as_str()) == Some("tahoe"))
///     .unwrap();
/// assert!(tahoe.get("pct_overlap").and_then(|n| n.as_f64()).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys sorted by `BTreeMap`.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to values.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// `x` rounded to `decimals` places, exactly as `{:.decimals}` prints
    /// it — the fixed precisions the artifacts record wall clocks at.
    /// Non-finite `x` becomes `null`.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        let rounded = format!("{x:.decimals$}").parse::<f64>().ok();
        rounded.filter(|n| n.is_finite()).into()
    }

    /// Serialise as indented JSON text ending in a newline. Containers
    /// holding only scalars (or arrays of scalars) stay on one line, so
    /// a table row reads as a row. Non-finite numbers are written as
    /// `null` (JSON has no literal for them).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Value::Array(items) => items
                .iter()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_))),
            Value::Object(map) => map.is_empty(),
            _ => true,
        }
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        let items: Vec<(Option<&String>, &Value)> = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return b.write_json(out),
            Value::Number(n) => return n.write_json(out),
            Value::String(s) => return write_string(out, s),
            Value::Array(items) => items.iter().map(|v| (None, v)).collect(),
            Value::Object(map) => map.iter().map(|(k, v)| (Some(k), v)).collect(),
        };
        let (open, close) = if matches!(self, Value::Array(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        let inline = items.iter().all(|(_, v)| v.is_flat());
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            out.push_str(match (inline, i) {
                (true, 0) => "",
                (true, _) => ", ",
                (false, 0) => "\n",
                (false, _) => ",\n",
            });
            if !inline {
                out.push_str(&" ".repeat(indent + 2));
            }
            if let Some(k) = key {
                write_string(out, k);
                out.push_str(": ");
            }
            v.write_into(out, indent + 2);
        }
        if !inline {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

/// Append `s` as a quoted JSON string literal, escaping quotes,
/// backslashes and control characters.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A value the streaming [`Writer`] can emit.
pub trait Scalar {
    /// Append the value's compact JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl Scalar for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Shortest round-tripping `Display`; JSON has no literal for NaN or
/// the infinities, so they are `null`.
impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! scalar_integer {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
scalar_integer!(i32, i64, u32, u64, usize);

/// Build one compact JSON object in a fresh string.
///
/// ```
/// use tahoe_obs::json;
///
/// let line = json::object(|w| {
///     w.field("ev", "demo").field("t", 1.5);
///     w.array("xs").item(1u32).item(f64::NAN);
///     w.object("args").field("zeta", true).field("alpha", "a\"b");
/// });
/// assert_eq!(line, r#"{"ev":"demo","t":1.5,"xs":[1,null],"args":{"zeta":true,"alpha":"a\"b"}}"#);
/// ```
pub fn object(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    fill(&mut Writer::open(&mut out, '{', '}'));
    out
}

/// One open JSON object or array, streamed into a string with no
/// whitespace. A nested container borrows its parent and closes when
/// dropped, so containers nest exactly as the borrows do.
pub struct Writer<'a> {
    out: &'a mut String,
    close: char,
    empty: bool,
}

impl<'a> Writer<'a> {
    fn open(out: &'a mut String, open: char, close: char) -> Self {
        out.push(open);
        Writer {
            out,
            close,
            empty: true,
        }
    }

    /// Separate from the previous member and write `key:` if given.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        if let Some(key) = key {
            write_string(self.out, key);
            self.out.push(':');
        }
        self.out
    }

    /// Write the object member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        value.write_json(self.next(Some(key)));
        self
    }

    /// Write the array element `value`.
    pub fn item(&mut self, value: impl Scalar) -> &mut Self {
        value.write_json(self.next(None));
        self
    }

    /// Open a nested object: the member `key` of an object, or (with
    /// `None`) the next element of an array.
    pub fn object<'k>(&mut self, key: impl Into<Option<&'k str>>) -> Writer<'_> {
        Writer::open(self.next(key.into()), '{', '}')
    }

    /// Open a nested array, as [`Writer::object`] opens an object.
    pub fn array<'k>(&mut self, key: impl Into<Option<&'k str>>) -> Writer<'_> {
        Writer::open(self.next(key.into()), '[', ']')
    }
}

impl Drop for Writer<'_> {
    fn drop(&mut self) {
        self.out.push(self.close);
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

/// Counts are exact up to 2^53, far beyond anything an artifact holds.
macro_rules! value_from_count {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n as f64)
            }
        }
    )*};
}
value_from_count!(u32, u64, usize);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

/// Parse error: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
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

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e2 ").unwrap(), Value::Number(-150.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            Value::String("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,2,{\"b\":false}],\"c\":\"x\"}").unwrap();
        let arr = v.get("a").and_then(|v| v.as_array()).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(v.get("c").and_then(|v| v.as_str()), Some("x"));
    }

    #[test]
    fn parses_unicode_escape_and_utf8() {
        assert_eq!(
            parse("\"\\u00e9\"").unwrap(),
            Value::String("é".to_string())
        );
        assert_eq!(parse("\"é\"").unwrap(), Value::String("é".to_string()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("true false").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn roundtrips_exporter_style_lines() {
        let line = "{\"ev\":\"task_start\",\"t\":0,\"task\":1,\"class\":0,\"window\":0}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some("task_start"));
        assert_eq!(v.get("t").and_then(|v| v.as_f64()), Some(0.0));
    }
}
