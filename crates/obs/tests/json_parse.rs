//! Integration tests for the zero-dependency JSON parser — the piece
//! every self-validated bench artifact and CI check leans on. Beyond the
//! unit tests in `json.rs`, this exercises the parser against the JSONL
//! exporter's actual output (round-trip property test) and the rejection
//! paths a hand-built artifact writer could realistically hit.

use proptest::prelude::*;

use tahoe_obs::json::{parse, Value};
use tahoe_obs::{to_jsonl, Event};

#[test]
fn escape_sequences_unescape() {
    let v = parse(r#""a\"b\\c\/d\bx\fy\nz\rw\tv""#).unwrap();
    assert_eq!(v.as_str().unwrap(), "a\"b\\c/d\u{8}x\u{c}y\nz\rw\tv");
    // BMP \u escapes, raw UTF-8 passthrough, and a lone surrogate half
    // degrading to U+FFFD rather than an error.
    assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    assert_eq!(parse("\"héllo→\"").unwrap().as_str(), Some("héllo→"));
    assert_eq!(parse(r#""\ud83d""#).unwrap().as_str(), Some("\u{fffd}"));
    assert!(parse(r#""\q""#).is_err(), "unknown escape must be rejected");
    assert!(parse(r#""\u12"#).is_err(), "truncated \\u must be rejected");
}

#[test]
fn nested_arrays_and_objects() {
    let v = parse(r#"{"a":[1,[2,{"b":[true,null,{"c":{}}]}],[]],"d":{"e":[-0.5]}}"#).unwrap();
    let a = v.get("a").and_then(Value::as_array).unwrap();
    assert_eq!(a[0].as_f64(), Some(1.0));
    let inner = a[1].as_array().unwrap();
    assert_eq!(inner[0].as_f64(), Some(2.0));
    let b = inner[1].get("b").and_then(Value::as_array).unwrap();
    assert_eq!(b[0].as_bool(), Some(true));
    assert_eq!(b[1], Value::Null);
    assert!(matches!(b[2].get("c"), Some(Value::Object(m)) if m.is_empty()));
    assert_eq!(a[2].as_array(), Some(&[][..]));
    let e = v.get("d").and_then(|d| d.get("e")).unwrap();
    assert_eq!(e.as_array().unwrap()[0].as_f64(), Some(-0.5));
}

#[test]
fn non_finite_numbers_are_rejected() {
    // JSON has no NaN/Infinity literals; a formatter that lets one
    // through must fail validation, not silently parse.
    for bad in ["NaN", "-NaN", "Infinity", "-Infinity", "inf", "-inf", "nan"] {
        assert!(parse(bad).is_err(), "{bad} must not parse");
        assert!(
            parse(&format!("{{\"x\":{bad}}}")).is_err(),
            "{{\"x\":{bad}}} must not parse"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for bad in [
        "{} {}",
        "1 2",
        "[1],",
        "{\"a\":1}x",
        "null null",
        "\"s\"\"t\"",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
    // Trailing whitespace (including newlines) is fine.
    assert!(parse("{\"a\":1}  \n\t").is_ok());
}

fn char_palette() -> Vec<char> {
    // Quotes, backslashes, control chars, ASCII, and multi-byte UTF-8.
    vec![
        '"', '\\', '/', '\n', '\r', '\t', '\u{1}', ' ', 'a', 'Z', '0', '{', '}', '[', ']', ':',
        ',', 'é', '→', '𝕊', '\u{fffd}',
    ]
}

fn palette_string(picks: &[usize]) -> String {
    let palette = char_palette();
    picks.iter().map(|&i| palette[i]).collect()
}

/// Values nested up to `depth` containers deep.
fn value_strategy(depth: u32) -> Box<dyn Strategy<Value = Value>> {
    let text = || proptest::collection::vec(0usize..21, 0..8).prop_map(|p| palette_string(&p));
    let leaf = prop_oneof![
        Just(Value::Null),
        proptest::bool::ANY.prop_map(Value::from),
        (0u64..(1 << 53)).prop_map(Value::from),
        (-1e12f64..1e12, prop_oneof![Just(1usize), Just(3), Just(6)])
            .prop_map(|(x, decimals)| Value::fixed(x, decimals)),
        text().prop_map(Value::from),
    ];
    if depth == 0 {
        return Box::new(leaf);
    }
    Box::new(prop_oneof![
        leaf,
        proptest::collection::vec(value_strategy(depth - 1), 0..4).prop_map(Value::array),
        proptest::collection::vec((text(), value_strategy(depth - 1)), 0..4)
            .prop_map(Value::object),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any string, escaped by the writer, parses back to itself.
    #[test]
    fn string_escaping_round_trips(picks in proptest::collection::vec(0usize..21, 0..40)) {
        let s = palette_string(&picks);
        let parsed = parse(&Value::from(s.as_str()).write()).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// `parse(write(v)) == v` for artifact-shaped values: nested objects
    /// and arrays whose keys and strings carry quotes, backslashes and
    /// control characters, and whose numbers are counts or floats at the
    /// fixed precisions the artifacts use (`{:.1}`, `{:.3}`, `{:.6}`).
    #[test]
    fn written_values_parse_back_to_themselves(v in value_strategy(3)) {
        let text = v.write();
        prop_assert_eq!(parse(&text).map_err(|e| format!("{e}: {text}")), Ok(v));
    }

    /// Every line the JSONL exporter writes parses, and the numeric and
    /// enum fields round-trip exactly (Rust's shortest-float formatting
    /// is lossless through the parser's `f64` path).
    #[test]
    fn exporter_output_round_trips(
        t in 0.0f64..1e12,
        tenant in 0u32..64,
        worker in 0u32..256,
        task in 0u32..100_000,
        window in 0u32..1000,
        wall in 0.0f64..1e9,
        gate in 0.0f64..1e9,
        object in 0u32..4096,
        bytes in 1u64..(1 << 40),
        benefit in 0.0f64..1e12,
        chosen in prop_oneof![Just(true), Just(false)],
    ) {
        let events = vec![
            Event::WorkerTask {
                t,
                tenant,
                worker,
                task,
                window,
                wall_ns: wall,
                gate_wait_ns: gate,
            },
            Event::PlacementDecision {
                t,
                object,
                bytes,
                predicted_benefit_ns: benefit,
                chosen,
            },
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        prop_assert_eq!(lines.len(), events.len());

        let wt = parse(lines[0]).unwrap();
        prop_assert_eq!(wt.get("ev").and_then(Value::as_str), Some("worker_task"));
        prop_assert_eq!(wt.get("t").and_then(Value::as_f64), Some(t));
        prop_assert_eq!(wt.get("tenant").and_then(Value::as_f64), Some(tenant as f64));
        prop_assert_eq!(wt.get("worker").and_then(Value::as_f64), Some(worker as f64));
        prop_assert_eq!(wt.get("task").and_then(Value::as_f64), Some(task as f64));
        prop_assert_eq!(wt.get("wall_ns").and_then(Value::as_f64), Some(wall));
        prop_assert_eq!(wt.get("gate_wait_ns").and_then(Value::as_f64), Some(gate));

        let pd = parse(lines[1]).unwrap();
        prop_assert_eq!(pd.get("ev").and_then(Value::as_str), Some("placement_decision"));
        prop_assert_eq!(pd.get("object").and_then(Value::as_f64), Some(object as f64));
        prop_assert_eq!(pd.get("bytes").and_then(Value::as_f64), Some(bytes as f64));
        prop_assert_eq!(
            pd.get("predicted_benefit_ns").and_then(Value::as_f64),
            Some(benefit)
        );
        prop_assert_eq!(pd.get("chosen").and_then(Value::as_bool), Some(chosen));
    }
}
