//! Generated JSON documents, shared by the property tests that hold a
//! scan to [`ciao_json::parse`] — here and in `ciao_columnar`'s
//! `text_load_equivalence.rs`, which includes this file by path.

#![allow(dead_code)]

use ciao_json::{escape_into, to_string, JsonValue};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Strategy for arbitrary JSON values with bounded size/depth.
pub fn arb_json() -> impl Strategy<Value = JsonValue> {
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

/// SplitMix64: the corruption and spelling choices of one case, all
/// derived from one generated seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Serializes `v` with random whitespace between tokens and a random
/// quarter of string characters spelled as `\uXXXX` escapes (surrogate
/// pairs for astral ones) — keys included, so keys need unescaping.
pub fn spell(v: &JsonValue, rng: &mut Rng, out: &mut String) {
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

/// Corruptions of `doc` that [`ciao_json::parse`] must mostly reject:
/// single ASCII bytes replaced (structure, digits, quotes and
/// backslashes included); things only wrong inside a string spliced in
/// wherever they land (a raw control character, a lone surrogate, a
/// bad escape); trailing garbage; and a truncation.
pub fn corruptions(doc: &str, rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..8 {
        let at = rng.below(doc.len().max(1));
        if doc.as_bytes().get(at).is_some_and(u8::is_ascii) {
            let mut bytes = doc.as_bytes().to_vec();
            const REPLACEMENTS: &[u8] = b" \"\\{}[]:,0-9.eEtfnu\x01x";
            bytes[at] = REPLACEMENTS[rng.below(REPLACEMENTS.len())];
            out.push(String::from_utf8(bytes).expect("ASCII for ASCII"));
        }
    }
    for insert in [
        "\u{1}",
        "\n",
        "\\ud800",
        "\\udc00",
        "\\ud800\\u0041",
        "\\x",
        "\\",
    ] {
        out.push(splice(doc, insert, rng));
    }
    for tail in [" x", "}", ",", "\"", " {}"] {
        out.push(format!("{doc}{tail}"));
    }
    let cut = splice(doc, "\0", rng);
    out.push(cut[..cut.find('\0').unwrap()].to_owned());
    out
}

/// `doc` with `insert` spliced in at a random char boundary.
pub fn splice(doc: &str, insert: &str, rng: &mut Rng) -> String {
    let mut at = rng.below(doc.len() + 1);
    while !doc.is_char_boundary(at) {
        at -= 1;
    }
    format!("{}{insert}{}", &doc[..at], &doc[at..])
}
