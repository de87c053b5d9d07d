//! A warm scan of mapped parked records allocates nothing per record
//! when its WHERE keys are scalars: `COUNT(*) … WHERE n > k` makes as
//! many allocations over 8192 records as over 1024 — eight batches
//! against one — and at most one per 64 records, so the scratch columns
//! and selection buffers are sized once per statement and reused from
//! batch to batch.
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
    let sample: Vec<_> = records(64).iter().map(|r| parse(r).unwrap()).collect();
    let schema = Schema::infer(&sample).unwrap();
    let plan = ciao_sql::compile("SELECT COUNT(*) FROM t WHERE n > 100", &schema).unwrap();
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
        assert_eq!(warm.profile.parked_rows_matched, len as u64 - 101);
        allocations
    };
    let (small, large) = (on(1024), on(8192));
    assert_eq!(small, large, "allocations over 1024 vs 8192 records");
    assert!(small <= 1024 / 64, "{small} allocations over 1024 records");
}
