//! The block-scan driver allocates nothing per row: with the same
//! number of blocks, a `COUNT(*) … WHERE` scan makes as many
//! allocations over 64-row blocks as over 1024-row blocks, so the
//! selection buffers are sized once and reused from block to block.
//!
//! Counted with the counting allocator of
//! `crates/json/tests/support/counting_alloc.rs`.

#[path = "../../json/tests/support/counting_alloc.rs"]
mod counting_alloc;

use ciao_columnar::{Schema, Table, TableBuilder};
use ciao_engine::{scan_count, Executor, ScanOptions};
use ciao_json::parse;
use ciao_predicate::parse_query;
use counting_alloc::allocations_of;
use std::collections::BTreeMap;
use std::sync::Arc;

const BLOCKS: usize = 8;

/// `BLOCKS` blocks of `block_rows` rows; predicate 0's bit is set on
/// every third row, so a skip-scan opens every block through a mask.
fn table(block_rows: usize) -> Table {
    let records: Vec<_> = (0..BLOCKS * block_rows)
        .map(|i| {
            parse(&format!(
                r#"{{"n":{i},"s":"v{}","t":"unit {} said hello","x":{}.5}}"#,
                i % 7,
                i % 13,
                i % 5
            ))
            .unwrap()
        })
        .collect();
    let schema = Arc::new(Schema::infer(&records[..64]).unwrap());
    let mut tb = TableBuilder::with_block_size(schema, &[0], block_rows);
    for (i, record) in records.iter().enumerate() {
        tb.push_record(record, &BTreeMap::from([(0, i % 3 == 0)]));
    }
    tb.finish()
}

#[test]
fn scans_allocate_per_block_never_per_row() {
    let (small, large) = (table(64), table(1024));
    assert_eq!(small.blocks().len(), large.blocks().len());

    let where_body = r#"s IN ("v1", "v3") AND t LIKE "%said%" AND n > 5"#;
    let query = parse_query("q", where_body).unwrap();
    for options in [ScanOptions::full(), ScanOptions::skipping(vec![0])] {
        let on = |table: &Table| {
            allocations_of(|| {
                scan_count(table, &query, &options);
            })
        };
        assert!(scan_count(&large, &query, &options).rows_matched > 0);
        assert_eq!(on(&small), on(&large), "scan_count under {options:?}");
    }

    let sql = format!("SELECT COUNT(*) FROM t WHERE {where_body}");
    let plan = ciao_sql::compile(&sql, small.schema().unwrap()).unwrap();
    let (executor, parked) = (Executor::default(), Vec::<String>::new());
    let on = |table: &Table| allocations_of(|| drop(executor.execute_plan(table, &parked, &plan)));
    assert_eq!(on(&small), on(&large), "execute_plan");
}
