//! Property-based tests of the JSON layer: parser totality over
//! arbitrary text and damaged reports, write → parse round trips in both
//! layouts, and the pretty layout reproducing every checked-in golden
//! report byte for byte.

use mlp_json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::strategy::LazyGen;
use proptest::test_runner::TestRng;
use std::sync::OnceLock;

/// Every checked-in golden report, `(file name, text)`, sorted; read
/// once per test binary.
fn golden_reports() -> &'static [(String, String)] {
    static REPORTS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
        let mut reports: Vec<(String, String)> = std::fs::read_dir(dir)
            .expect("tests/golden exists")
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).expect("golden is UTF-8"))
            })
            .collect();
        reports.sort();
        reports
    })
}

/// Characters chosen to stress the escaper and the parser's string
/// scanner: quotes, backslashes, every control character, multibyte
/// text, and arbitrary scalar values.
fn gen_char(rng: &mut TestRng) -> char {
    const SPECIAL: [char; 8] = ['"', '\\', '/', 'é', '日', '😀', '\u{7f}', '\u{2028}'];
    match rng.below(4) {
        0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
        1 => char::from_u32(rng.below(0x20) as u32).unwrap(),
        2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('x'),
        _ => (b' ' + rng.below(95) as u8) as char,
    }
}

fn gen_string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| gen_char(rng)).collect()
}

/// Finite floats across the whole range: raw bit patterns (huge and
/// subnormal magnitudes print as long digit strings), short decimals,
/// integral values and signed zero.
fn gen_float(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => Some(f64::from_bits(rng.next_u64()))
            .filter(|x| x.is_finite())
            .unwrap_or(0.5),
        1 => (rng.below(2_000_001) as f64 - 1e6) / 1000.0,
        2 => rng.below(1 << 20) as f64,
        _ => -0.0,
    }
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.ratio(1, 2)),
        2 => Json::Int(rng.next_u64() as i64 >> rng.below(64)),
        3 => Json::Num(gen_float(rng)),
        4 => Json::Str(gen_string(rng)),
        5 => Json::Arr(
            (0..rng.below(5))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_json() -> impl Strategy<Value = Json> {
    LazyGen::new(|rng: &mut TestRng| gen_json(rng, 4))
}

/// What `parse(write(v))` returns: the number rule prints integral
/// floats without a fraction, so those within `i64` (except `-0`) come
/// back as integers.
fn as_parsed(v: &Json) -> Json {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    match v {
        Json::Num(x)
            if x.fract() == 0.0
                && (-TWO_63..TWO_63).contains(x)
                && !(*x == 0.0 && x.is_sign_negative()) =>
        {
            Json::Int(*x as i64)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), as_parsed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Text built from JSON-shaped fragments, so arbitrary inputs reach
/// deep into the grammar instead of failing on the first byte.
fn gen_fragments(rng: &mut TestRng) -> String {
    const FRAGMENTS: [&str; 24] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "true", "null", "fals", "-",
        "0", "12", "1e5", ".", "e", " ", "\n", "\"k\"", "é", "\u{1}",
    ];
    (0..rng.below(40))
        .map(|_| {
            if rng.ratio(1, 8) {
                gen_char(rng).to_string()
            } else {
                FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize].to_string()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Totality: arbitrary text never panics the parser.
    #[test]
    fn arbitrary_text_never_panics(
        text in LazyGen::new(gen_fragments),
        raw in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = parse(&text);
        let _ = parse(&String::from_utf8_lossy(&raw));
    }

    /// Totality: a golden report with one byte replaced, or cut short,
    /// parses or fails cleanly.
    #[test]
    fn damaged_reports_never_panic(
        pick in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let reports = golden_reports();
        let text = &reports[pick.index(reports.len())].1;
        let i = at.index(text.len());
        let mut bytes = text.as_bytes().to_vec();
        bytes[i] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
        let _ = parse(&String::from_utf8_lossy(&text.as_bytes()[..i]));
    }

    /// Nesting past the limit is an error, never a stack overflow; at the
    /// limit it still parses.
    #[test]
    fn nesting_past_the_limit_is_an_error(
        openers in prop::collection::vec(any::<bool>(), MAX_DEPTH + 1..MAX_DEPTH + 4096),
    ) {
        let open = |as_array: bool| if as_array { "[" } else { "{\"k\": " };
        let deep: String = openers.iter().map(|&a| open(a)).collect();
        prop_assert!(parse(&deep).is_err());
        let at_limit = &openers[..MAX_DEPTH];
        let mut text: String = at_limit.iter().map(|&a| open(a)).collect();
        text.push_str("null");
        text.extend(at_limit.iter().rev().map(|&a| if a { "]" } else { "}" }));
        prop_assert!(parse(&text).is_ok(), "{} levels must parse", MAX_DEPTH);
    }

    /// Round trip: in both layouts every tree parses back to itself
    /// (integral floats as integers) and re-writes to the same bytes.
    #[test]
    fn both_layouts_round_trip(v in arb_json()) {
        let layouts: [fn(&Json) -> String; 2] = [Json::to_line, Json::to_pretty];
        for write in layouts {
            let text = write(&v);
            let back = parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
            prop_assert_eq!(&back, &as_parsed(&v));
            prop_assert_eq!(write(&back), text);
        }
    }
}

/// The pretty layout is the report layout: every golden parses and
/// prints back to identical bytes.
#[test]
fn goldens_pretty_print_to_identical_bytes() {
    let reports = golden_reports();
    assert!(
        reports.len() >= 20,
        "expected the golden corpus, found {}",
        reports.len()
    );
    for (name, text) in reports {
        let doc = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            &(doc.to_pretty() + "\n"),
            text,
            "{name} changed on re-print"
        );
    }
}

#[test]
fn multibyte_text_next_to_escapes() {
    let str_of = |text: &str| {
        parse(text)
            .ok()
            .and_then(|v| v.as_str().map(str::to_string))
    };
    assert_eq!(str_of(r#""é\"😀\\üéx""#).as_deref(), Some("é\"😀\\üéx"));
    assert_eq!(str_of(r#""\n日本""#).as_deref(), Some("\n日本"));
    assert!(parse("\"a\u{1}b\"").is_err(), "raw control characters");
    assert!(parse("\"日本").is_err(), "unterminated");
}

#[test]
fn rejects_hostile_input() {
    for text in [
        "",
        "{",
        "[1,]",
        "1 trailing",
        "{\"a\"}",
        "\"\\x\"",
        "[\"\\u12\"]",
        "nul",
        "-",
    ] {
        assert!(parse(text).is_err(), "{text:?} must not parse");
    }
    assert!(parse(&("[".repeat(100) + &"]".repeat(100))).is_err());
}
