//! Differential and property tests for the JSON substrate.
//!
//! `serde_json` is used purely as a reference oracle (dev-dependency):
//! whatever our parser accepts must agree with serde_json's reading,
//! and parse→serialize→parse must be the identity on our DOM.
//!
//! The second half holds `parse_projected` to `parse`, its oracle: on
//! valid documents spelled every legal way and on corruptions of them,
//! the scan errs exactly when the parser errs, and otherwise returns
//! the parser's value for each requested key and no other key.

use ciao_json::{escape_into, parse, parse_projected, to_string, JsonValue};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Strategy for arbitrary JSON values with bounded size/depth.
fn arb_json() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::from),
        any::<i64>().prop_map(JsonValue::from),
        // Finite floats only; JSON has no NaN/inf.
        prop::num::f64::NORMAL.prop_map(JsonValue::from),
        "[a-zA-Z0-9 _\\-\"\\\\\n\t😀é]{0,20}".prop_map(JsonValue::from),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..6)
                .prop_map(|pairs| JsonValue::Object(pairs.into_iter().collect())),
        ]
    })
}

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

/// SplitMix64: the corruption and spelling choices of one case, all
/// derived from one generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Serializes `v` with random whitespace between tokens and a random
/// quarter of string characters spelled as `\uXXXX` escapes (surrogate
/// pairs for astral ones) — keys included, so keys need unescaping.
fn spell(v: &JsonValue, rng: &mut Rng, out: &mut String) {
    fn ws(rng: &mut Rng, out: &mut String) {
        for _ in 0..rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4)]);
        }
    }
    fn string(s: &str, rng: &mut Rng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            if rng.below(4) == 0 {
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    write!(out, "\\u{unit:04x}").unwrap();
                }
            } else {
                escape_into(c.encode_utf8(&mut [0u8; 4]), out);
            }
        }
        out.push('"');
    }
    ws(rng, out);
    match v {
        JsonValue::String(s) => string(s, rng, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spell(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        JsonValue::Object(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                string(key, rng, out);
                ws(rng, out);
                out.push(':');
                spell(value, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&to_string(scalar)),
    }
    ws(rng, out);
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

/// The whole contract of `parse_projected` on one input.
fn assert_scan_matches_parse(doc: &str, keys: &[&str]) {
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

/// Every prefix of `doc` that ends on a char boundary.
fn truncations(doc: &str) -> impl Iterator<Item = &str> {
    (0..doc.len())
        .filter(|&i| doc.is_char_boundary(i))
        .map(|i| &doc[..i])
}

/// `doc` with `insert` spliced in at a random char boundary.
fn splice(doc: &str, insert: &str, rng: &mut Rng) -> String {
    let mut at = rng.below(doc.len() + 1);
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    format!("{}{insert}{}", &doc[..at], &doc[at..])
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

        // One ASCII byte replaced by another (structure, digits,
        // quotes and backslashes included).
        for _ in 0..8 {
            let at = rng.below(doc.len());
            if doc.as_bytes()[at].is_ascii() {
                let mut bytes = doc.clone().into_bytes();
                const REPLACEMENTS: &[u8] = b" \"\\{}[]:,0-9.eEtfnu\x01x";
                bytes[at] = REPLACEMENTS[rng.below(REPLACEMENTS.len())];
                let flipped = String::from_utf8(bytes).expect("ASCII for ASCII");
                assert_scan_matches_parse(&flipped, &keys);
            }
        }
        // Things that are only wrong inside a string, spliced wherever
        // they land: a raw control character, a lone surrogate (either
        // half), a bad escape.
        for insert in ["\u{1}", "\n", "\\ud800", "\\udc00", "\\ud800\\u0041", "\\x", "\\"] {
            assert_scan_matches_parse(&splice(&doc, insert, &mut rng), &keys);
        }
        // Trailing garbage, and a truncation.
        for tail in [" x", "}", ",", "\"", " {}"] {
            assert_scan_matches_parse(&format!("{doc}{tail}"), &keys);
        }
        let cut = splice(&doc, "\0", &mut rng);
        assert_scan_matches_parse(&cut[..cut.find('\0').unwrap()], &keys);
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
