//! Harvesting training data from recorded experiment reports.
//!
//! `mlp-experiments --json` leaves `mlp-experiments.report/v*` documents
//! on disk; this module reads them back into `(ConfigPoint, CPI)`
//! training pairs. Only rows that carry the full sweep coordinate —
//! `benchmark`, `window`, `mshrs`, `latency`, `l2_kb` — plus a `cpi`
//! value qualify (in practice, `sweep1000`'s simulated rows); rows from
//! other experiments are silently skipped, so pointing the trainer at a
//! mixed report directory is safe.
//!
//! The JSON reader is first-party (the workspace builds offline, and
//! `mlp-stats`' parser is unreachable from here without a dependency
//! cycle): a ~100-line recursive-descent parser, depth-limited and total
//! on hostile input.

use crate::features::{workload_index, ConfigPoint};

/// Maximum nesting depth the parser accepts; beyond this the document is
/// rejected rather than risking a stack overflow on hostile input.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object, keys in document order.
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Member lookup for objects (first match wins).
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Val::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document. Returns `None` on any syntax error, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`] — never panics.
pub fn parse(text: &str) -> Option<Val> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    (pos == bytes.len()).then_some(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, want: u8) -> Option<()> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Val> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => object(bytes, pos, depth),
        b'[' => array(bytes, pos, depth),
        b'"' => Some(Val::Str(string(bytes, pos)?)),
        b't' => literal(bytes, pos, b"true", Val::Bool(true)),
        b'f' => literal(bytes, pos, b"false", Val::Bool(false)),
        b'n' => literal(bytes, pos, b"null", Val::Null),
        _ => number(bytes, pos),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, word: &[u8], v: Val) -> Option<Val> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Some(v)
    } else {
        None
    }
}

fn number(bytes: &[u8], pos: &mut usize) -> Option<Val> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Val::Num)
}

fn string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    eat(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            &c if c < 0x20 => return None,
            _ => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control byte in one slice. All three are
                // ASCII, so the run is whole characters of the valid text.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b >= 0x20 && b != b'"' && b != b'\\')
                {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Val> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Val::Arr(items));
    }
    loop {
        items.push(value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Val::Arr(items));
            }
            _ => return None,
        }
    }
}

fn object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Val> {
    eat(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Val::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = string(bytes, pos)?;
        eat(bytes, pos, b':')?;
        members.push((key, value(bytes, pos, depth + 1)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Val::Obj(members));
            }
            _ => return None,
        }
    }
}

/// One training pair harvested from a report row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorpusRow {
    /// The sweep coordinate.
    pub point: ConfigPoint,
    /// Simulated CPI at that coordinate.
    pub cpi: f64,
}

fn axis_u32(row: &Val, key: &str) -> Option<u32> {
    let x = row.get(key)?.as_num()?;
    (x > 0.0 && x <= u32::MAX as f64 && x.fract() == 0.0).then_some(x as u32)
}

/// Extracts every qualifying training row from one report document.
/// Returns an empty vector for non-JSON input, reports without rows, or
/// reports whose rows lack the full sweep coordinate.
pub fn rows_from_report(text: &str) -> Vec<CorpusRow> {
    let Some(doc) = parse(text) else {
        return Vec::new();
    };
    let Some(Val::Arr(rows)) = doc.get("rows") else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let workload = workload_index(row.get("benchmark")?.as_str()?)?;
            let point = ConfigPoint {
                workload,
                window: axis_u32(row, "window")?,
                mshrs: axis_u32(row, "mshrs")?,
                latency: axis_u32(row, "latency")?,
                l2_kb: axis_u32(row, "l2_kb")?,
            };
            let cpi = row.get("cpi")?.as_num()?;
            (cpi > 0.0).then_some(CorpusRow { point, cpi })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null"), Some(Val::Null));
        assert_eq!(parse(" true "), Some(Val::Bool(true)));
        assert_eq!(parse("-1.5e2"), Some(Val::Num(-150.0)));
        assert_eq!(parse(r#""a\nbA""#), Some(Val::Str("a\nbA".into())));
        let v = parse(r#"{"a": [1, {"b": 2}], "c": {}}"#).expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Val::Arr(items) => items[1].get("b").and_then(Val::as_num),
                _ => None,
            }),
            Some(2.0)
        );
    }

    #[test]
    fn multibyte_text_next_to_escapes() {
        assert_eq!(
            parse(r#""é\"😀\\üéx""#),
            Some(Val::Str("é\"😀\\üéx".into()))
        );
        assert_eq!(parse(r#""\n日本""#), Some(Val::Str("\n日本".into())));
        assert_eq!(parse("\"a\u{1}b\""), None, "raw control characters");
        assert_eq!(parse("\"日本"), None, "unterminated");
    }

    #[test]
    fn rejects_hostile_input() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("{"), None);
        assert_eq!(parse("[1,]"), None);
        assert_eq!(parse("1 trailing"), None);
        assert_eq!(parse(&("[".repeat(100) + &"]".repeat(100))), None);
        assert_eq!(parse("{\"a\"}"), None);
    }

    #[test]
    fn harvests_only_full_coordinates() {
        let report = r#"{
          "schema": "mlp-experiments.report/v2",
          "rows": [
            {"source": "summary", "grid_points": 3888},
            {"benchmark": "Database", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "Unknown", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "SPECweb99", "window": 64, "mshrs": 4,
             "latency": 300, "cpi": 2.25},
            {"benchmark": "SPECjbb2000", "window": 64, "mshrs": 0,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25}
          ]
        }"#;
        let rows = rows_from_report(report);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].point.workload, 0);
        assert_eq!(rows[0].point.window, 64);
        assert_eq!(rows[0].cpi, 2.25);
    }

    #[test]
    fn non_reports_yield_nothing() {
        assert!(rows_from_report("not json").is_empty());
        assert!(rows_from_report("{\"rows\": 3}").is_empty());
        assert!(rows_from_report("{}").is_empty());
    }
}
