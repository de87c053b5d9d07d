//! Property tests for the engine's skipping soundness:
//!
//! For ANY bitvectors that are supersets of the truth (the only kind a
//! correct client can produce — false positives allowed, false
//! negatives never), a skip-scan must return exactly the full-scan
//! count. Zone-map pruning must never change a count either, under any
//! block size.

use ciao_columnar::{Schema, TableBuilder};
use ciao_engine::{scan_count, ScanOptions};
use ciao_json::JsonValue;
use ciao_predicate::{eval_query, parse_query, Query};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Records over a small value domain so predicates hit often.
fn arb_records() -> impl Strategy<Value = Vec<JsonValue>> {
    prop::collection::vec((0i64..8, 0i64..4, prop::option::of(0i64..3)), 1..120).prop_map(|rows| {
        rows.into_iter()
            .map(|(stars, kind, opt)| {
                let mut pairs = vec![
                    ("stars".to_string(), JsonValue::from(stars)),
                    ("kind".to_string(), JsonValue::from(kind)),
                ];
                if let Some(o) = opt {
                    pairs.push(("opt".to_string(), JsonValue::from(o)));
                }
                JsonValue::Object(pairs)
            })
            .collect()
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        (0i64..10).prop_map(|v| parse_query("q", &format!("stars = {v}")).unwrap()),
        (0i64..10, 0i64..5).prop_map(|(a, b)| {
            parse_query("q", &format!("stars = {a} AND kind = {b}")).unwrap()
        }),
        (0i64..10).prop_map(|v| parse_query("q", &format!("stars < {v}")).unwrap()),
        (0i64..4).prop_map(|v| parse_query("q", &format!("opt = {v}")).unwrap()),
        Just(parse_query("q", "opt != NULL").unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn superset_bits_never_change_counts(
        records in arb_records(),
        query in arb_query(),
        block_size in 1usize..16,
        noise in prop::collection::vec(any::<bool>(), 120),
    ) {
        let truth = records.iter().filter(|r| eval_query(&query, r)).count() as u64;

        // Bits for predicate 0: the query's truth OR noise (superset).
        let schema = Arc::new(Schema::infer(&records).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[0], block_size);
        for (i, r) in records.iter().enumerate() {
            let exact = eval_query(&query, r);
            let bit = exact || noise[i % noise.len()];
            tb.push_record(r, &BTreeMap::from([(0, bit)]));
        }
        let table = tb.finish();

        let full = scan_count(&table, &query, &ScanOptions::full());
        prop_assert_eq!(full.rows_matched, truth);

        let skipped = scan_count(&table, &query, &ScanOptions::skipping(vec![0]));
        prop_assert_eq!(skipped.rows_matched, truth, "skip-scan diverged");
        prop_assert!(skipped.rows_scanned <= full.rows_scanned);

        let zoned = scan_count(
            &table,
            &query,
            &ScanOptions::skipping(vec![0]).with_zone_maps(),
        );
        prop_assert_eq!(zoned.rows_matched, truth, "zone-mapped scan diverged");

        let zoned_full = scan_count(&table, &query, &ScanOptions::full().with_zone_maps());
        prop_assert_eq!(zoned_full.rows_matched, truth);
        prop_assert!(zoned_full.blocks_total == table.blocks().len() as u64);
        prop_assert!(zoned_full.blocks_pruned_zone <= zoned_full.blocks_total);
    }

    #[test]
    fn exact_bits_scan_only_matches(
        records in arb_records(),
        query in arb_query(),
        block_size in 1usize..16,
    ) {
        // With exact (no false positive) bits, the skip-scan visits
        // precisely the matching rows.
        let truth = records.iter().filter(|r| eval_query(&query, r)).count() as u64;
        let schema = Arc::new(Schema::infer(&records).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[0], block_size);
        for r in &records {
            tb.push_record(r, &BTreeMap::from([(0, eval_query(&query, r))]));
        }
        let table = tb.finish();
        let m = scan_count(&table, &query, &ScanOptions::skipping(vec![0]));
        prop_assert_eq!(m.rows_matched, truth);
        prop_assert_eq!(m.rows_scanned, truth);
        prop_assert_eq!(
            m.rows_skipped_zone + m.rows_skipped_mask,
            records.len() as u64 - truth
        );
    }
}

#[test]
fn zone_maps_prune_out_of_range_blocks() {
    // Records sorted by stars so blocks have tight ranges.
    let records: Vec<JsonValue> = (0..100)
        .map(|i| JsonValue::object([("stars", JsonValue::from(i / 10))]))
        .collect();
    let schema = Arc::new(Schema::infer(&records).unwrap());
    let mut tb = TableBuilder::with_block_size(schema, &[], 10);
    for r in &records {
        tb.push_record(r, &BTreeMap::new());
    }
    let table = tb.finish();
    let q = parse_query("q", "stars = 3").unwrap();
    let m = scan_count(&table, &q, &ScanOptions::full().with_zone_maps());
    assert_eq!(m.rows_matched, 10);
    assert_eq!(m.blocks_pruned_zone, 9, "only one block holds stars = 3");
    assert_eq!(m.blocks_total, 10);
}
