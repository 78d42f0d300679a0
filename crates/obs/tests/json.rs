//! Golden round-trip and malformed-input coverage for
//! `tdals_obs::json` — the hand-rolled parser/printer every committed
//! benchmark baseline (`BENCH_delta_sim.json`) and CI gate flows
//! through. A silent parsing regression here would let a gate pass
//! against garbage, so the error cases are pinned as hard as the happy
//! path.

use tdals_obs::json::Json;

/// A miniature benchmark report in the exact shape the gates consume,
/// with the printer's canonical formatting.
const GOLDEN: &str = r#"{
  "schema": 1,
  "bench": "delta_sim",
  "seed": 57114,
  "circuits": [
    {
      "name": "Sqrt",
      "gates": 14709,
      "speedup": 2.75,
      "exact": true,
      "missing": null
    }
  ],
  "note": "escape \"this\" and\nthat"
}"#;

#[test]
fn golden_document_round_trips_byte_for_byte() {
    let parsed = Json::parse(GOLDEN).expect("golden parses");
    // print(parse(text)) == text: the printer is the canonical form.
    assert_eq!(parsed.to_string(), GOLDEN);
    // parse(print(value)) == value: no information lost either way.
    let again = Json::parse(&parsed.to_string()).expect("reparse");
    assert_eq!(again, parsed);
}

#[test]
fn golden_accessors_reach_every_metric() {
    let parsed = Json::parse(GOLDEN).expect("golden parses");
    assert_eq!(parsed.get("schema").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        parsed.get("bench").and_then(Json::as_str),
        Some("delta_sim")
    );
    let circuits = parsed
        .get("circuits")
        .and_then(Json::as_array)
        .expect("circuits array");
    assert_eq!(circuits.len(), 1);
    assert_eq!(
        circuits[0].get("speedup").and_then(Json::as_f64),
        Some(2.75)
    );
    assert_eq!(circuits[0].get("exact"), Some(&Json::Bool(true)));
    assert_eq!(circuits[0].get("missing"), Some(&Json::Null));
    assert_eq!(
        parsed.get("note").and_then(Json::as_str),
        Some("escape \"this\" and\nthat")
    );
}

#[test]
fn truncated_object_is_rejected() {
    for truncated in [
        "{",
        r#"{"schema""#,
        r#"{"schema":"#,
        r#"{"schema": 1"#,
        r#"{"schema": 1,"#,
        r#"{"circuits": [{"name": "Sqrt""#,
    ] {
        let err = Json::parse(truncated).expect_err(truncated);
        assert!(!err.is_empty(), "{truncated}: error names the problem");
    }
}

#[test]
fn duplicate_key_is_rejected() {
    let err = Json::parse(r#"{"speedup": 2.5, "speedup": 9.9}"#).expect_err("duplicate key");
    assert!(err.contains("duplicate key `speedup`"), "{err}");
    // Nested objects get the same treatment...
    let err = Json::parse(r#"{"largest": {"gates": 1, "gates": 2}}"#).expect_err("nested dup");
    assert!(err.contains("duplicate key `gates`"), "{err}");
    // ...but the same key in *different* objects is fine.
    let ok = r#"[{"gates": 1}, {"gates": 2}]"#;
    assert!(Json::parse(ok).is_ok());
}

#[test]
fn non_numeric_metric_is_rejected() {
    // Bad number literals fail at parse time with a located message.
    for bad in [
        r#"{"speedup": 12ab}"#,
        r#"{"speedup": 1.2.3}"#,
        r#"{"speedup": -}"#,
        r#"{"speedup": 1e+}"#,
    ] {
        assert!(Json::parse(bad).is_err(), "{bad} must not parse");
    }
    // A string where the gate expects a number parses as JSON but
    // yields no f64 — the typed accessor is the gate's second line of
    // defense.
    let stringly = Json::parse(r#"{"speedup": "fast"}"#).expect("valid JSON");
    assert_eq!(stringly.get("speedup").and_then(Json::as_f64), None);
}

#[test]
fn the_committed_baselines_still_parse() {
    // The repo's committed benchmark baselines must stay within the
    // grammar this parser accepts (duplicate-key rejection included).
    for path in ["../../BENCH_delta_sim.json"] {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // tolerated: baseline not generated yet
        };
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            parsed.get("schema").and_then(Json::as_f64),
            Some(1.0),
            "{path}"
        );
    }
}

#[test]
fn typed_accessors_are_exact_not_lossy() {
    // as_uint: exact non-negative integers only — fractions, negatives,
    // and values past 2^53 (where f64 stops being exact) all refuse,
    // because callers use it to validate schema versions and record
    // indices where "roughly 1" is a bug.
    let doc = Json::parse(
        r#"{"schema": 1, "neg": -1, "frac": 1.5, "big": 9007199254740992,
            "edge": 9007199254740991, "yes": true, "no": false, "text": "1"}"#,
    )
    .expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_uint), Some(1));
    assert_eq!(doc.get("edge").and_then(Json::as_uint), Some((1 << 53) - 1));
    assert_eq!(doc.get("neg").and_then(Json::as_uint), None);
    assert_eq!(doc.get("frac").and_then(Json::as_uint), None);
    assert_eq!(doc.get("big").and_then(Json::as_uint), None);
    assert_eq!(doc.get("text").and_then(Json::as_uint), None);

    // as_bool: booleans only, no truthiness.
    assert_eq!(doc.get("yes").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("no").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("schema").and_then(Json::as_bool), None);
    assert_eq!(doc.get("text").and_then(Json::as_bool), None);
}
