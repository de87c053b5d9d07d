//! Parking copies nothing: a chunk whose every record is parked loads
//! with the same number of allocations at 1024 records as at 8192 (the
//! loader's per-chunk vectors, none per record), and every parked
//! record is a view into the chunk's own text.
//!
//! Counted with the counting allocator of
//! `crates/json/tests/support/counting_alloc.rs`.

#[path = "../../json/tests/support/counting_alloc.rs"]
mod counting_alloc;

use ciao::{AdmissionPolicy, Loader};
use ciao_client::Prefilter;
use ciao_columnar::Schema;
use ciao_json::RecordChunk;
use ciao_predicate::{compile_clause, parse_clause};
use counting_alloc::allocations_of;
use std::sync::Arc;

fn chunk(records: usize) -> RecordChunk {
    let lines: Vec<String> = (0..records)
        .map(|i| {
            format!(
                r#"{{"stars":{},"name":"user {i}","tags":["a","b"]}}"#,
                i % 4 + 1
            )
        })
        .collect();
    RecordChunk::from_records(&lines).unwrap()
}

/// Allocations `Loader::load_chunk` makes on a fresh loader for a chunk
/// of `records` records, none of which matches the one pushed
/// predicate (`stars = 5`), so every one is parked. Also checks that
/// each parked record points into the chunk's text.
fn park_all(records: usize) -> usize {
    let chunk = chunk(records);
    let schema = Arc::new(Schema::infer(&[ciao_json::parse(chunk.record(0)).unwrap()]).unwrap());
    let pattern = compile_clause(&parse_clause("stars = 5").unwrap()).unwrap();
    let filter = Prefilter::new([(0, pattern)]).run_chunk(&chunk);
    let mut loader = Loader::new(
        schema,
        &[0],
        AdmissionPolicy::from_coverage(&[vec![0]]),
        1024,
    );
    let allocations = allocations_of(|| loader.load_chunk(&chunk, &filter));

    let (table, parked, stats) = loader.finish();
    assert_eq!(table.row_count(), 0);
    assert_eq!(stats.parked_records, records);
    let text = chunk.as_ndjson().as_bytes().as_ptr_range();
    for (record, original) in parked.iter().zip(chunk.iter()) {
        assert_eq!(record.as_str(), original);
        assert!(
            text.contains(&record.as_str().as_ptr()),
            "a parked record was copied out of its chunk"
        );
    }
    allocations
}

#[test]
fn parking_a_chunk_allocates_nothing_per_record() {
    let small = park_all(1024);
    let large = park_all(8192);
    assert_eq!(small, large, "parking allocates per record");
    assert!(small <= 8, "{small} allocations to park one chunk");
}
