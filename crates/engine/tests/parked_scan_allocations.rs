//! A warm scan of mapped parked records allocates nothing per record,
//! for scalar and string WHERE keys alike: `COUNT(*) … WHERE n > k`,
//! and the same with `AND x = 1.5` or `AND s = "v3"`, make as many
//! allocations over 8192 records as over 1024 — eight batches against
//! one — so the scratch columns (a string one holds its batch's text in
//! one reused buffer) and selection buffers are sized once per
//! statement and reused from batch to batch. The scalar statements
//! make at most one allocation per 64 records.
//!
//! Counted with the counting allocator of
//! `crates/json/tests/support/counting_alloc.rs`.

#[path = "../../json/tests/support/counting_alloc.rs"]
mod counting_alloc;

use ciao_columnar::{Block, Schema};
use ciao_engine::{plan_query, Executor, ParkedFragment, PartialResult};
use ciao_json::parse;
use counting_alloc::allocations_of;
use std::sync::OnceLock;

/// `len` parked records with an int key `n` among string and float
/// fields the statement does not read.
fn records(len: usize) -> Vec<String> {
    (0..len)
        .map(|i| {
            format!(
                r#"{{"s":"v{}","n":{i},"t":"unit {} said hello","x":{}.5}}"#,
                i % 7,
                i % 13,
                i % 5
            )
        })
        .collect()
}

#[test]
fn warm_parked_scans_allocate_per_statement_never_per_record() {
    let int = warm_scan_allocations("SELECT COUNT(*) FROM t WHERE n > 100", |i| i > 100);
    assert!(int <= 1024 / 64, "{int} allocations over 1024 records");

    // A second WHERE key costs its scratch column once per statement;
    // a string one costs exactly one allocation more than a float one,
    // the buffer its batch's text is copied into.
    let float = warm_scan_allocations("SELECT COUNT(*) FROM t WHERE n > 100 AND x = 1.5", |i| {
        i > 100 && i % 5 == 1
    });
    let string = warm_scan_allocations(
        r#"SELECT COUNT(*) FROM t WHERE n > 100 AND s = "v3""#,
        |i| i > 100 && i % 7 == 3,
    );
    assert!(float <= 1024 / 64, "{float} allocations over 1024 records");
    assert_eq!(string, float + 1, "a string key's scratch column");
}

/// The allocations of a warm scan by `sql`, whose matches are the
/// records `matches` picks by position: the same over 1024 records as
/// over 8192.
fn warm_scan_allocations(sql: &str, matches: impl Fn(usize) -> bool) -> usize {
    let sample: Vec<_> = records(64).iter().map(|r| parse(r).unwrap()).collect();
    let schema = Schema::infer(&sample).unwrap();
    let plan = ciao_sql::compile(sql, &schema).unwrap();
    let exec = Executor::default();
    let none = std::iter::empty::<&Block>;
    let on = |len: usize| {
        let records = records(len);
        let index = OnceLock::new();
        let prepared = exec.prepare(plan_query(&plan), none(), records.len());
        let scan = || -> PartialResult {
            let fragment = ParkedFragment::indexed(&records, &index).with_schema(&schema);
            exec.scan_plan(&prepared, none(), [fragment], &plan)
        };
        // The cold scan builds the map.
        let cold = scan();
        assert_eq!(cold.parked_index_builds, 1);
        assert!(index.get().unwrap().is_mapped());
        let mut warm = None;
        let allocations = allocations_of(|| warm = Some(scan()));
        let warm = warm.unwrap();
        assert_eq!(warm.profile, cold.profile);
        let expected = (0..len).filter(|&i| matches(i)).count();
        assert_eq!(warm.profile.parked_rows_matched, expected as u64);
        allocations
    };
    let (small, large) = (on(1024), on(8192));
    assert_eq!(small, large, "{sql}: allocations over 1024 vs 8192 records");
    small
}
