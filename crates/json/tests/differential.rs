//! Differential and property tests for the JSON substrate.
//!
//! `serde_json` is used purely as a reference oracle (dev-dependency):
//! whatever our parser accepts must agree with serde_json's reading,
//! and parse→serialize→parse must be the identity on our DOM.
//!
//! The second half holds the three scans, `parse_projected`,
//! `parse_fields` and `parse_member_offsets`, to `parse`, their oracle:
//! on valid documents spelled every legal way and on corruptions of
//! them, a scan errs exactly when the parser errs, and otherwise
//! returns the parser's value for each requested key — the first
//! occurrence, a nested one printed as `to_string` prints it — and no
//! other key. The member-offset scan reports every member, and
//! `parse_value_at` reads the parser's value at each offset, as
//! `parse_field_at` reads the `FieldValue` `parse_fields` hands over.

mod support;

use ciao_json::{
    parse, parse_field_at, parse_fields, parse_member_offsets, parse_projected, parse_value_at,
    to_string, FieldKeys, FieldValue, JsonValue,
};
use proptest::prelude::*;
use support::{arb_json, corruptions, spell, Rng};

fn to_serde(v: &JsonValue) -> serde_json::Value {
    serde_json::from_str(&to_string(v)).expect("our serializer must emit valid JSON")
}

fn assert_equivalent(ours: &JsonValue, theirs: &serde_json::Value) {
    match (ours, theirs) {
        (JsonValue::Null, serde_json::Value::Null) => {}
        (JsonValue::Bool(a), serde_json::Value::Bool(b)) => assert_eq!(a, b),
        (JsonValue::String(a), serde_json::Value::String(b)) => assert_eq!(a, b),
        (JsonValue::Number(a), serde_json::Value::Number(b)) => {
            // `-0` is a known representational split (we: Int(0), serde:
            // Float(-0.0)); compare numerically when the int views differ.
            match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => assert_eq!(x, y),
                _ => {
                    let theirs = b.as_f64().expect("numeric view");
                    assert!(
                        (a.as_f64() - theirs).abs() <= f64::EPSILON * a.as_f64().abs().max(1.0),
                        "float mismatch: {} vs {theirs}",
                        a.as_f64()
                    );
                }
            };
        }
        (JsonValue::Array(a), serde_json::Value::Array(b)) => {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_equivalent(x, y);
            }
        }
        (JsonValue::Object(a), serde_json::Value::Object(b)) => {
            // serde_json's map dedups duplicate keys keeping the LAST
            // value; our DOM keeps every pair (lookups return the
            // first, like rapidJSON). Compare serde's view against our
            // last occurrence per key.
            let mut last: std::collections::HashMap<&str, &JsonValue> = Default::default();
            for (k, v) in a {
                last.insert(k.as_str(), v);
            }
            assert_eq!(last.len(), b.len(), "distinct key counts differ");
            for (k, v) in last {
                let theirs = b.get(k).unwrap_or_else(|| panic!("missing key {k}"));
                assert_equivalent(v, theirs);
            }
        }
        (x, y) => panic!("shape mismatch: {} vs {y:?}", x.type_name()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_identity(v in arb_json()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn serde_json_agrees(v in arb_json()) {
        let theirs = to_serde(&v);
        assert_equivalent(&v, &theirs);
    }

    #[test]
    fn we_accept_what_serde_emits(v in arb_json()) {
        // serde_json reserializes our document; we must re-parse it to an
        // equivalent DOM (numbers may change spelling but not value).
        let theirs = to_serde(&v);
        let retext = serde_json::to_string(&theirs).unwrap();
        let back = parse(&retext).unwrap();
        assert_equivalent(&back, &theirs);
    }

    #[test]
    fn rejection_agreement_on_mutations(v in arb_json(), cut in 0usize..64) {
        // Truncated documents must be rejected by both parsers.
        let text = to_string(&v);
        if text.len() > 1 {
            let cut = 1 + cut % (text.len() - 1);
            if text.is_char_boundary(cut) {
                let broken = &text[..cut];
                let ours = parse(broken).is_ok();
                let theirs = serde_json::from_str::<serde_json::Value>(broken).is_ok();
                prop_assert_eq!(ours, theirs, "disagreement on {:?}", broken);
            }
        }
    }
}

/// Records shaped like parked ones — a top-level object — with keys
/// from an alphabet small enough that duplicates are common and odd
/// enough that they need escaping; or, one time in five, any document
/// at all (a non-object top level).
fn arb_record() -> impl Strategy<Value = JsonValue> {
    let members = prop::collection::vec(("[ab\"é\n]{1,2}", arb_json()), 0..8);
    (members, arb_json(), 0usize..5).prop_map(|(members, any, pick)| {
        if pick == 0 {
            any
        } else {
            JsonValue::Object(members)
        }
    })
}

/// A key set to project: each top-level key with probability one half,
/// plus one the record does not have.
fn pick_keys<'a>(v: &'a JsonValue, rng: &mut Rng) -> Vec<&'a str> {
    let mut keys = vec!["absent"];
    for (k, _) in v.as_object().unwrap_or(&[]) {
        if rng.below(2) == 0 && !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    keys
}

/// The whole contract of the three scans on one input.
fn assert_scan_matches_parse(doc: &str, keys: &[&str]) {
    assert_fields_match_parse(doc, keys);
    assert_offsets_match_parse(doc);
    let full = parse(doc);
    let scanned = parse_projected(doc, keys);
    assert_eq!(
        scanned.is_err(),
        full.is_err(),
        "acceptance differs on {doc:?}: scan {scanned:?}, parse {full:?}"
    );
    let (Ok(full), Ok(scanned)) = (full, scanned) else {
        return;
    };
    for key in keys {
        assert_eq!(scanned.get(key), full.get(key), "key {key:?} of {doc:?}");
    }
    let pairs = scanned.as_object().expect("the scan returns an object");
    for (i, (k, _)) in pairs.iter().enumerate() {
        assert!(keys.contains(&k.as_str()), "unrequested key {k:?}: {doc:?}");
        assert!(
            pairs[..i].iter().all(|(earlier, _)| earlier != k),
            "key {k:?} returned twice: {doc:?}"
        );
    }
}

/// `parse_fields`' contract on one input: `Err` exactly when `parse`
/// errs, and otherwise each key the document has, once, in document
/// order, with the value `parse(..).get(key)` converts to.
fn assert_fields_match_parse(doc: &str, keys: &[&str]) {
    let mut field_keys = FieldKeys::new(keys.iter().copied());
    let mut delivered = Vec::new();
    let scanned = parse_fields(doc, &mut field_keys, |i, v| {
        delivered.push((i, v.into_owned()));
    });
    let full = parse(doc);
    assert_eq!(
        scanned.is_err(),
        full.is_err(),
        "acceptance differs on {doc:?}: fields {scanned:?}, parse {full:?}"
    );
    let Ok(full) = full else {
        return;
    };
    let mut expected: Vec<(usize, FieldValue)> = Vec::new();
    for (k, v) in full.as_object().unwrap_or(&[]) {
        let i = keys.iter().position(|key| key == k);
        if let Some(i) = i.filter(|&i| expected.iter().all(|(seen, _)| *seen != i)) {
            expected.push((i, FieldValue::from(v).into_owned()));
        }
    }
    assert_eq!(delivered, expected, "fields of {doc:?}");
}

/// `parse_member_offsets`' contract on one input: `Err` exactly when
/// `parse` errs, and otherwise every top-level member in document
/// order, duplicates included, under its unescaped key and at an offset
/// `parse_value_at` reads the parser's value from, and `parse_field_at`
/// that value as a `FieldValue` — so the first offset reported for a key
/// reads `parse(..).get(key)`.
fn assert_offsets_match_parse(doc: &str) {
    let mut json = String::new();
    let mut members: Vec<(String, usize)> = Vec::new();
    let scanned = parse_member_offsets(doc, |key, at| members.push((key.to_owned(), at)));
    let full = parse(doc);
    assert_eq!(
        scanned.is_err(),
        full.is_err(),
        "acceptance differs on {doc:?}: offsets {scanned:?}, parse {full:?}"
    );
    let Ok(full) = full else {
        return;
    };
    let pairs = full.as_object().unwrap_or(&[]);
    assert_eq!(members.len(), pairs.len(), "members of {doc:?}");
    for ((key, at), (k, v)) in members.iter().zip(pairs) {
        assert_eq!(key, k, "key order of {doc:?}");
        assert_eq!(&parse_value_at(doc, *at).unwrap(), v, "{key:?} of {doc:?}");
        assert_eq!(
            parse_field_at(doc, *at, &mut json).unwrap(),
            FieldValue::from(v),
            "{key:?} of {doc:?}"
        );
    }
    for (k, _) in pairs {
        let (_, first) = members.iter().find(|(key, _)| key == k).unwrap();
        assert_eq!(
            parse_value_at(doc, *first).ok().as_ref(),
            full.get(k),
            "first {k:?} of {doc:?}"
        );
    }
}

/// Every prefix of `doc` that ends on a char boundary.
fn truncations(doc: &str) -> impl Iterator<Item = &str> {
    (0..doc.len())
        .filter(|&i| doc.is_char_boundary(i))
        .map(|i| &doc[..i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scan_agrees_on_valid_documents(v in arb_record(), seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut doc = String::new();
        spell(&v, &mut rng, &mut doc);
        prop_assert_eq!(&parse(&doc).unwrap(), &v, "spelling changed the document: {:?}", doc);
        let keys = pick_keys(&v, &mut rng);
        assert_scan_matches_parse(&doc, &keys);
        assert_scan_matches_parse(&doc, &[]);
    }

    #[test]
    fn scan_agrees_on_corrupted_documents(v in arb_record(), seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut doc = String::new();
        spell(&v, &mut rng, &mut doc);
        let keys = pick_keys(&v, &mut rng);

        for corrupted in corruptions(&doc, &mut rng) {
            assert_scan_matches_parse(&corrupted, &keys);
        }
    }
}

#[test]
fn scan_agrees_on_every_truncation_of_a_small_record() {
    let doc = "{ \"id\" : -12.5e+3, \"s\":\"a\\u00e9\\ud83d\\ude00\\\"b\", \"n\":{\"k\":[true,false,null,{}]},\n\"id\":7 , \"t\":[ ] }";
    assert!(parse(doc).is_ok());
    for keys in [&["id", "n"][..], &["s"], &[]] {
        assert_scan_matches_parse(doc, keys);
        for prefix in truncations(doc) {
            assert!(parse(prefix).is_err(), "a proper prefix parsed: {prefix:?}");
            assert_scan_matches_parse(prefix, keys);
        }
    }
}

#[test]
fn scan_agrees_at_the_depth_limit() {
    // The top-level object is depth 0 and its member values depth 1,
    // so the innermost of 128 nested arrays sits at the limit of 128
    // and one more exceeds it — whether the deep member is skipped or
    // requested.
    for (arrays, ok) in [(128, true), (129, false)] {
        let doc = format!(
            r#"{{"a":1,"deep":{}{},"b":2}}"#,
            "[".repeat(arrays),
            "]".repeat(arrays)
        );
        assert_eq!(parse(&doc).is_ok(), ok, "{arrays} arrays");
        assert_scan_matches_parse(&doc, &["a", "b"]);
        assert_scan_matches_parse(&doc, &["deep"]);
        // The same nesting at the top level: a non-object document.
        let bare = format!("{}{}", "[".repeat(arrays + 1), "]".repeat(arrays + 1));
        assert_eq!(parse(&bare).is_ok(), ok, "{arrays} arrays, bare");
        assert_scan_matches_parse(&bare, &["a"]);
    }
}

#[test]
fn scan_agrees_on_handpicked_documents() {
    let keys = ["k", "a b", "é", "absent"];
    for doc in [
        // Duplicate keys: the first occurrence wins, later ones are
        // still validated.
        r#"{"k":1,"k":2}"#,
        r#"{"k":1,"k":tru}"#,
        r#"{"x":{"k":9},"k":[{"k":1}]}"#,
        // Values a nested copy must print as `to_string` does.
        r#"{"k":{"a":2.50,"b":[1E+2,-0,"\/"]},"a b":-0,"é":{ }}"#,
        // Keys that need unescaping to be recognised, or that are not
        // valid strings at all.
        r#"{"\u006b":1,"a\u0020b":2,"\u00e9":3}"#,
        r#"{"\ud800":1,"k":2}"#,
        r#"{"k\q":1}"#,
        // Non-object top levels.
        "[]",
        "null",
        r#""k""#,
        "-0.0e0",
        r#"[{"k":1}]"#,
        "",
        "   ",
        "nul",
        // Numbers only the conversion can reject.
        r#"{"k":1e400}"#,
        r#"{"z":1e400}"#,
        r#"{"z":-1e-400,"k":123456789012345678901234567890}"#,
        // Strings that straddle the scanner's 8-byte words.
        r#"{"z":"1234567\"","k":"12345678\\","y":"123456789\n"}"#,
        "{\"z\":\"1234567\u{1f}\"}",
        r#"{"z":"éééééééé\u00e9","k":"😀😀\ud83d\ude00"}"#,
    ] {
        assert_scan_matches_parse(doc, &keys);
        assert_scan_matches_parse(doc, &[]);
    }
}

#[test]
fn corpus_agreement() {
    // Hand-picked tricky documents, all valid.
    let corpus = [
        r#"{"a":[[],{},[{}]],"b":"A😀","c":1e-3}"#,
        r#"[0.1, -0, 1E+2, 123456789012345678901234567890]"#,
        r#"{"nested":{"very":{"deep":{"value":null}}}}"#,
        "[true,false,null]",
        r#""\\\"\/\b\f\n\r\t""#,
    ];
    for doc in corpus {
        let ours = parse(doc).unwrap_or_else(|e| panic!("we rejected {doc:?}: {e}"));
        let theirs: serde_json::Value = serde_json::from_str(doc).unwrap();
        assert_equivalent(&ours, &theirs);
    }
}
