//! `TableBuilder::push_text` against its oracle, `ciao_json::parse`
//! then `TableBuilder::push_record`.
//!
//! Records are generated JSON — members under the schema's keys and
//! others, values of every type (so many do not fit their column),
//! nested values, repeated keys, non-object top levels — spelled with
//! random whitespace and `\u` escapes, keys included, and interleaved
//! with corruptions of themselves (byte flips, bad escapes, trailing
//! garbage, truncations) across block boundaries. For every record
//! `push_text` errs exactly when `parse` errs; the two builders count
//! the same rows and coercion failures after every record; and the
//! finished tables are equal, block metadata (stats, predicate bits)
//! included. Since the oracle never sees a rejected record, that is
//! also the proof that an `Err` between two good records leaves the
//! builder as if the bad one had never been pushed.

#[path = "../../json/tests/support/mod.rs"]
mod support;

use ciao_columnar::{DataType, Field, Schema, Table, TableBuilder};
use ciao_json::{parse, JsonValue};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use support::{arb_json, corruptions, spell, Rng};

/// One column of each type, and a string column whose key needs
/// escaping whenever it is spelled.
const FIELDS: [(&str, DataType); 6] = [
    ("id", DataType::Int),
    ("score", DataType::Float),
    ("name", DataType::Str),
    ("ok", DataType::Bool),
    ("doc", DataType::Json),
    ("é \"k\"\n", DataType::Str),
];

/// Keys no column reads.
const OTHER_KEYS: [&str; 2] = ["extra", "idx"];

/// The pushed predicate ids, in construction order.
const IDS: [u32; 2] = [7, 2];

fn schema() -> Arc<Schema> {
    let fields = FIELDS.iter().map(|&(name, dtype)| Field::new(name, dtype));
    Arc::new(Schema::new(fields.collect()).unwrap())
}

/// A record: usually an object with up to eight members under eight
/// keys (so repeats are common), sometimes any document at all.
fn arb_record() -> impl Strategy<Value = JsonValue> {
    let keys: Vec<&str> = FIELDS.iter().map(|f| f.0).chain(OTHER_KEYS).collect();
    let member = (prop::sample::select(keys), arb_json()).prop_map(|(k, v)| (k.to_owned(), v));
    let members = prop::collection::vec(member, 0..8);
    (members, arb_json(), 0usize..5).prop_map(|(members, any, pick)| {
        if pick == 0 {
            any
        } else {
            JsonValue::Object(members)
        }
    })
}

/// The two builders, fed one record text.
struct Pair {
    by_text: TableBuilder,
    by_tree: TableBuilder,
}

impl Pair {
    fn new(block_size: usize) -> Pair {
        Pair {
            by_text: TableBuilder::with_block_size(schema(), &IDS, block_size),
            by_tree: TableBuilder::with_block_size(schema(), &IDS, block_size),
        }
    }

    fn push(&mut self, text: &str, bits: [bool; 2]) {
        let oracle = parse(text);
        let loaded = self.by_text.push_text(text, |k| bits[k]);
        assert_eq!(
            loaded.is_ok(),
            oracle.is_ok(),
            "acceptance differs on {text:?}: text {loaded:?}, parse {oracle:?}"
        );
        if let Ok(record) = oracle {
            let bits = BTreeMap::from([(IDS[0], bits[0]), (IDS[1], bits[1])]);
            self.by_tree.push_record(&record, &bits);
        }
        assert_eq!(
            self.by_text.row_count(),
            self.by_tree.row_count(),
            "{text:?}"
        );
        assert_eq!(
            self.by_text.coercion_failures(),
            self.by_tree.coercion_failures(),
            "coercion failures after {text:?}"
        );
    }

    fn finish(self) -> (Table, Table) {
        (self.by_text.finish(), self.by_tree.finish())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn text_loads_equal_parsed_loads(
        records in prop::collection::vec(arb_record(), 1..24),
        block_size in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let mut pair = Pair::new(block_size);
        for record in &records {
            let mut doc = String::new();
            spell(record, &mut rng, &mut doc);
            let bits = [rng.below(2) == 0, rng.below(2) == 0];
            pair.push(&doc, bits);
            if rng.below(3) == 0 {
                let bad = corruptions(&doc, &mut rng);
                pair.push(&bad[rng.below(bad.len())], bits);
            }
        }
        let (by_text, by_tree) = pair.finish();
        prop_assert_eq!(by_text, by_tree);
    }
}

#[test]
fn handpicked_records_load_equally() {
    let mut pair = Pair::new(3);
    for (i, text) in [
        // Every column typed right; nested text normalised the way
        // `to_string` prints it.
        r#"{"id":1,"score":2.50,"name":"a\/b","ok":true,"doc":{ "n" : [1E+2, -0, "é\/"] },"é \"k\"\n":"x"}"#,
        // An escaped key, a wrong type in every column, an int into
        // the float column, unknown and nested members skipped.
        r#"{"id":"7","score":3,"name":5,"ok":null,"doc":"text","extra":{"id":1},"idx":[]}"#,
        // Partly appended, then rejected: appends nothing.
        r#"{"id":5,"name":"half","doc":[1,2],"ok":tru}"#,
        r#"{"id":6,"doc":{"a":1e999}}"#,
        // Repeated keys: the first occurrence wins, the rest are
        // still validated.
        r#"{"id":2,"id":"two","name":"first","name":"second"}"#,
        r#"{"id":3,"id":[}"#,
        // Non-object top levels: a row of NULLs, or rejected.
        r#"[{"id":4}]"#,
        "-0",
        "[1,",
        "",
        r#"{"id":8} x"#,
        // An integer too large for i64 is a float.
        r#"{"id":99999999999999999999,"score":99999999999999999999}"#,
        "{}",
    ]
    .into_iter()
    .enumerate()
    {
        pair.push(text, [i % 2 == 0, i % 3 == 0]);
    }
    let (by_text, by_tree) = pair.finish();
    assert_eq!(by_text.row_count(), 7);
    assert_eq!(by_text, by_tree);
    let doc = by_text.cell(0, "doc");
    assert_eq!(doc.as_str(), None);
    assert_eq!(format!("{doc:?}"), r#"Json("{\"n\":[100.0,0,\"é/\"]}")"#);
}
