//! Shared fixtures for the workspace integration tests.
//!
//! Declared as `mod support;` per test binary; not every binary uses
//! every helper, hence the crate-level `dead_code` allowance.
#![allow(dead_code)]

pub mod crash;

use ciao::{LoadStats, PushdownPlan};
use ciao_columnar::Schema;
use ciao_engine::QueryOutcome;
use ciao_json::{JsonValue, RecordChunk};
use ciao_optimizer::CostModel;
use ciao_predicate::{parse_query, Query};
use ciao_service::{Service, ServiceConfig};
use std::sync::Arc;

/// Records per deterministic ingest chunk.
pub const CHUNK_RECORDS: u64 = 40;

/// The deterministic chunk with index `i` — identical in every
/// process, so a crashed child's ingest stream can be reproduced
/// exactly by an oracle that never crashed.
pub fn chunk(i: u64) -> RecordChunk {
    let records: Vec<String> = (0..CHUNK_RECORDS)
        .map(|j| {
            let id = i * CHUNK_RECORDS + j;
            format!(r#"{{"stars":{},"id":{id}}}"#, id % 5 + 1)
        })
        .collect();
    RecordChunk::from_records(&records).expect("fixture records are newline-free")
}

/// The queries every durability test answers and cross-checks.
pub fn queries() -> Vec<Query> {
    vec![
        parse_query("hot", "stars = 5").unwrap(),
        parse_query("cold", "stars = 2").unwrap(),
    ]
}

/// A deterministic plan + schema over the fixture's record shape —
/// the same in the crashing child, the recovering parent, and the
/// crash-free oracle.
pub fn plan_and_schema() -> (PushdownPlan, Arc<Schema>) {
    let sample: Vec<_> = chunk(0)
        .iter()
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let plan = PushdownPlan::build(
        &queries(),
        &sample,
        &CostModel::default_uncalibrated(),
        10.0,
    )
    .unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    (plan, schema)
}

/// What one [`run_on_service`] produced.
pub struct ServiceRun {
    /// The plan pushed to the client.
    pub plan: PushdownPlan,
    /// Records in the input, parseable or not.
    pub records: usize,
    /// Loading statistics summed over every shard.
    pub load: LoadStats,
    /// One outcome per query, in workload order.
    pub outcomes: Vec<QueryOutcome>,
}

/// Runs NDJSON through the production sequence: the first `sample`
/// parseable records → lenient schema inference (a conflicting value
/// loads as NULL and counts as a coercion failure) → plan at `budget`
/// → `Service::start(config)` → client prefilter over
/// `chunk_size`-record chunks → `enqueue_wait` → one `Service::query`
/// per query → shutdown.
pub fn run_on_service(
    ndjson: &str,
    queries: &[Query],
    budget: f64,
    sample: usize,
    chunk_size: usize,
    config: ServiceConfig,
) -> ServiceRun {
    let all = RecordChunk::from_ndjson(ndjson);
    let sample: Vec<JsonValue> = all
        .iter()
        .take(sample)
        .filter_map(|r| ciao_json::parse(r).ok())
        .collect();
    let schema = Arc::new(Schema::infer_lenient(&sample).expect("schema"));
    let plan = PushdownPlan::build(queries, &sample, &CostModel::default_uncalibrated(), budget)
        .expect("plan");
    let svc = Service::start(plan.clone(), schema, config);
    let prefilter = svc.prefilter();
    for chunk in all.split(chunk_size) {
        let filter = prefilter.run_chunk(&chunk);
        assert!(svc.enqueue_wait(chunk, filter).is_enqueued());
    }
    let outcomes = queries.iter().map(|q| svc.query(q)).collect();
    ServiceRun {
        plan,
        records: all.len(),
        load: svc.shutdown().load(),
        outcomes,
    }
}
