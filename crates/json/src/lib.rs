//! `mlp-json`: the workspace's one JSON layer (no dependencies; the
//! workspace builds offline).
//!
//! One value type ([`Json`], object members in order), one parser
//! ([`parse`]), one string escaper ([`write_str`]) and one number rule
//! ([`write_num`]), printed in two layouts: [`Json::to_line`] and
//! [`Json::to_pretty`], the layout of every `mlp-experiments` report.
//! Literals without `.`/`e` parse as [`Json::Int`], so `Num(1.0)`, which
//! prints as `1`, reads back as `Int(1)`. The parser faces the network
//! in `mlp-serve`, so it is total: nesting is capped at [`MAX_DEPTH`],
//! raw control characters in strings are rejected, and every error
//! carries a byte offset.
//!
//! # Examples
//!
//! ```
//! use mlp_json::Json;
//!
//! let v = Json::obj([("a", Json::from(1u64)), ("b", Json::from(vec![1u64, 2]))]);
//! assert_eq!(v.to_line(), r#"{"a": 1, "b": [1, 2]}"#);
//! assert_eq!(v.to_pretty(), "{\n  \"a\": 1,\n  \"b\": [1, 2]\n}");
//! assert_eq!(mlp_json::parse(&v.to_pretty()), Ok(v));
//! ```

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. Deeper documents are an
/// error rather than a recursion that could overflow a thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object members keep document (or insertion) order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats print as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a decimal point.
    Int(i64),
    /// A float, printed by [`write_num`].
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (linear; report objects are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer. Integral
    /// floats count, since integers beyond `i64::MAX` parse as floats.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) if n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members, in order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The single-line layout: `{"a": 1, "b": [1, 2]}`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The pretty layout, without a trailing newline: every object
    /// member on its own line at a 2-space indent; arrays inline unless
    /// an element is an object, then one element per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `indent` is `None` for the single-line layout,
    /// else the pretty layout's current indent in spaces.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let pad = indent.filter(|_| items.iter().any(|v| matches!(v, Json::Obj(_))));
                let inner = pad.map_or(indent, |n| Some(n + 2));
                write_seq(out, ('[', ']'), items, pad, |out, item| {
                    item.write(out, inner)
                });
            }
            Json::Obj(members) => {
                write_seq(out, ('{', '}'), members, indent, |out, (key, value)| {
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent.map(|n| n + 2));
                });
            }
        }
    }
}

/// Writes `items` between `open` and `close`: inline with `", "`
/// separators when `pad` is `None`, else one item per line at `pad + 2`
/// spaces with the closer at `pad`. Empty sequences are always `[]`/`{}`.
fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    pad: Option<usize>,
    mut write_item: impl FnMut(&mut String, &T),
) {
    let newline = |out: &mut String, n: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', n));
    };
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        match pad {
            Some(n) => {
                out.push_str(if i > 0 { "," } else { "" });
                newline(out, n + 2);
            }
            None => out.push_str(if i > 0 { ", " } else { "" }),
        }
        write_item(out, item);
    }
    if let (Some(n), false) = (pad, items.is_empty()) {
        newline(out, n);
    }
    out.push(close);
}

/// Writes `s` as a quoted JSON string: `"`, `\` and the control
/// characters are escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`); everything else, multibyte text included, is copied as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole characters and copy as slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes `x` in Rust's shortest round-trip decimal form (`1.38`, `1`
/// for 1.0, never an exponent); NaN and infinities, which JSON cannot
/// express, become `null`.
pub fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v.into())
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
/// Values beyond `i64::MAX` become floats, as the parser reads them.
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A parse failure: what was wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Never panics.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses the comma-separated items of the container whose opening
    /// byte is at `pos`, through its `close` byte. Each container opened
    /// counts towards [`MAX_DEPTH`].
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
                self.skip_ws();
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(0..=0x1f) => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte in one slice. All three
                    // are ASCII, so the run ends on a char boundary of
                    // the (already valid) text.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (surrogate pairs for
    /// supplementary-plane characters).
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a low surrogate right after.
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("unpaired surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err(self.err("unpaired surrogate"));
            }
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        // `from_str_radix` alone would also accept a leading `+`.
        let code = u32::from_str_radix(digits, 16)
            .ok()
            .filter(|_| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            // Integer literal; fall back to f64 on i64 overflow and for
            // `-0`, whose sign only a float keeps.
            if let Ok(i) = text.parse::<i64>() {
                if i != 0 || !text.starts_with('-') {
                    return Ok(Json::Int(i));
                }
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Int(1)));
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap(),
            &[Json::Bool(true), Json::Null, Json::Num(-2.5)]
        );
        assert_eq!(
            doc.get("c").unwrap().get("d").unwrap().as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn preserves_member_order_and_int_float_distinction() {
        let doc = parse(r#"{"z": 1, "a": 2, "m": 3.0}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(doc.get("z"), Some(&Json::Int(1)));
        assert_eq!(doc.get("m"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let doc = parse(r#""é😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("é😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\u+041""#).is_err(), "sign is not a hex digit");
    }

    #[test]
    fn multibyte_text_next_to_escapes() {
        let doc = parse(r#"{"é\"😀": "\\ü\u00e9x\n日本"}"#).unwrap();
        let (key, value) = &doc.as_obj().unwrap()[0];
        assert_eq!(key, "é\"😀");
        assert_eq!(value.as_str(), Some("\\üéx\n日本"));
        assert!(parse("\"日本").is_err(), "unterminated");
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
        assert_eq!(parse("\"a\u{1}b\"").unwrap_err().offset, 2);
    }

    #[test]
    fn big_u64_falls_back_to_float() {
        // u64::MAX overflows i64; the parser keeps the magnitude as f64.
        let doc = parse("18446744073709551615").unwrap();
        assert!(matches!(doc, Json::Num(_)));
        assert_eq!(doc.as_u64(), Some(u64::MAX));
        assert_eq!(Json::Num(2.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::from(u64::MAX), Json::Num(u64::MAX as f64));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let doc = parse("-0").unwrap();
        assert!(matches!(doc, Json::Num(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(doc.to_line(), "-0");
        assert_eq!(parse("0"), Ok(Json::Int(0)));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // A request body of nothing but brackets must not recurse.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn json_values_serialize() {
        let v = Json::Arr(vec![
            Json::Null,
            Json::Bool(true),
            Json::Int(-3),
            Json::Num(1.38),
            Json::Num(f64::INFINITY),
            Json::Str("a\"b\n\u{1}\\é".into()),
        ]);
        let line = r#"[null, true, -3, 1.38, null, "a\"b\n\u0001\\é"]"#;
        assert_eq!(v.to_line(), line);
        assert_eq!(v.to_pretty(), line, "no objects: the array stays inline");
    }

    #[test]
    fn pretty_layout_breaks_objects_and_arrays_of_objects() {
        let v = Json::obj([
            ("axes", Json::obj([("n", Json::from([1u64, 2]))])),
            ("empty", Json::Obj(vec![])),
            ("rows", Json::from(vec![Json::obj([("a", Json::Int(1))])])),
            ("none", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"axes\": {\n    \"n\": [1, 2]\n  },\n  \"empty\": {},\n  \
             \"rows\": [\n    {\n      \"a\": 1\n    }\n  ],\n  \"none\": []\n}"
        );
        assert_eq!(
            v.to_line(),
            r#"{"axes": {"n": [1, 2]}, "empty": {}, "rows": [{"a": 1}], "none": []}"#
        );
    }
}
