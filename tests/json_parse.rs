//! The vendored JSON parser (`vendor/serde_json`) on the input a decision
//! log file can carry: integer edge cases, nesting depth, and arbitrary
//! strings, which must parse or return `Err` but never panic or crash.
//! The vendored crates are not workspace members, so tests inside them do
//! not run with `cargo test`; these do.

use distserve::router::log_from_json;
use proptest::prelude::*;
use serde_json::Value;

fn parse(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str(text)
}

#[test]
fn roundtrip_object() {
    let text = r#"{"headers": ["k"], "rows": [["v"]], "n": 3, "x": -1.5}"#;
    let v = parse(text).unwrap();
    assert_eq!(v["headers"][0], "k");
    assert_eq!(v["rows"][0][0], "v");
    assert_eq!(v["n"].as_u64(), Some(3));
    assert_eq!(v["x"].as_f64(), Some(-1.5));
    let emitted = serde_json::to_string_pretty(&v).unwrap();
    assert_eq!(parse(&emitted).unwrap(), v);
}

#[test]
fn string_escapes_roundtrip() {
    let v = Value::Str("a\"b\\c\nd\té".to_string());
    let s = serde_json::to_string(&v).unwrap();
    assert_eq!(parse(&s).unwrap(), v);
}

#[test]
fn rejects_trailing_garbage() {
    assert!(parse("{} x").is_err());
}

#[test]
fn negative_integers_parse_exactly_or_fail() {
    assert_eq!(parse("-1").unwrap(), Value::Int(-1));
    assert_eq!(parse("-0").unwrap(), Value::Int(0));
    assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
    for out_of_range in ["-9223372036854775809", "-18446744073709551615", "-1e", "-"] {
        assert!(parse(out_of_range).is_err(), "{out_of_range} parsed");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    // 2 MiB is the default stack of a spawned thread, where a server
    // would parse an uploaded log.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let at_limit = format!("{}{}", "[".repeat(128), "]".repeat(128));
            assert!(parse(&at_limit).is_ok());
            let past_limit = format!("{}{}", "[".repeat(129), "]".repeat(129));
            assert!(parse(&past_limit).is_err());
            let arrays = "[".repeat(200_000);
            assert!(parse(&arrays).is_err());
            assert!(log_from_json(&arrays).is_err());
            let objects = r#"{"a":"#.repeat(200_000);
            assert!(parse(&objects).is_err());
        })
        .expect("spawn parser thread")
        .join()
        .expect("parser thread panicked");
}

/// Fragments that steer random text into the parser's less common
/// branches: escapes, literals, number edges, and decision-log fields.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "é",
    " ",
    "-",
    "0",
    "7",
    ".",
    "e",
    "+",
    "1e999",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "null",
    "nul",
    "true",
    "false",
    "\"request\"",
    "\"kind\"",
    "\"Disagg\"",
    "\"Queue\"",
    "\"target\"",
    "\"retry_after_secs\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lossy_utf8_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse(&text);
        let _ = log_from_json(&text);
    }

    #[test]
    fn json_tokens_never_panic(picks in prop::collection::vec(0..TOKENS.len(), 0..64)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse(&text);
        let _ = log_from_json(&text);
    }
}
