//! The system-level correctness contract, checked across all three
//! datasets and all three workload shapes on the production path
//! (`Service`: client prefilter → queue → partial load → fan-out
//! query):
//!
//! 1. **Ground truth**: every CIAO `COUNT(*)` equals a naive count
//!    computed by parsing every record and evaluating the query with
//!    typed semantics — no budget, plan, chunking, block size or shard
//!    count may change an answer.
//! 2. **Baseline equivalence**: CIAO at budget B and the zero-budget
//!    baseline agree query by query.

mod support;

use ciao_datagen::Dataset;
use ciao_json::JsonValue;
use ciao_predicate::{eval_query, Query};
use ciao_service::ServiceConfig;
use ciao_workload::{build_pool, WorkloadConfig};

const RECORDS: usize = 3_000;
const QUERIES: usize = 15;
const SAMPLE: usize = 500;

fn ground_truth(records: &[JsonValue], q: &Query) -> usize {
    records.iter().filter(|r| eval_query(q, r)).count()
}

/// One shard and no workers: the deterministic single-core sequence.
fn one_shard(block_size: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_workers(0)
        .with_block_size(block_size)
}

fn check_dataset(dataset: Dataset, budget: f64, chunk_size: usize, config: ServiceConfig) {
    let records = dataset.generate(7, RECORDS);
    let ndjson = dataset.generate_ndjson(7, RECORDS);
    let pool = build_pool(dataset);
    for (label, mut cfg) in WorkloadConfig::presets(dataset, 21) {
        cfg.queries = QUERIES;
        let queries = cfg.generate(&pool);
        let report = support::run_on_service(
            &ndjson,
            &queries,
            budget,
            SAMPLE,
            chunk_size,
            config.clone(),
        );
        assert_eq!(report.load.total(), RECORDS, "{dataset} {label}");
        if budget == 0.0 {
            // The baseline pushes nothing and loads every record.
            assert!(report.plan.is_empty(), "{dataset} {label}");
            assert_eq!(report.load.loaded_records, RECORDS, "{dataset} {label}");
        }

        for (q, result) in queries.iter().zip(&report.outcomes) {
            let truth = ground_truth(&records, q);
            assert_eq!(
                result.count, truth,
                "{dataset} workload {label} budget {budget}: query `{q}` returned {} (truth {truth})",
                result.count
            );
        }
    }
}

#[test]
fn winlog_all_workloads_match_ground_truth() {
    check_dataset(Dataset::WinLog, 5.0, 512, one_shard(256));
}

#[test]
fn yelp_all_workloads_match_ground_truth() {
    check_dataset(Dataset::Yelp, 20.0, 1024, one_shard(512));
}

#[test]
fn ycsb_all_workloads_match_ground_truth() {
    check_dataset(Dataset::Ycsb, 50.0, 333, one_shard(128));
}

#[test]
fn odd_chunk_and_block_sizes_do_not_change_answers() {
    // Chunk/block boundaries that never align with each other or the
    // record count.
    check_dataset(Dataset::WinLog, 5.0, 7, one_shard(13));
}

#[test]
fn zero_budget_baseline_matches_ground_truth() {
    check_dataset(Dataset::WinLog, 0.0, 512, one_shard(256));
}

#[test]
fn three_shards_match_ground_truth() {
    // The sharded path: chunks round-robin over three shards, ingested
    // by workers and by the producer, merged at query time.
    for (dataset, budget) in [
        (Dataset::WinLog, 5.0),
        (Dataset::Yelp, 20.0),
        (Dataset::Ycsb, 50.0),
    ] {
        let config = ServiceConfig::default()
            .with_shards(3)
            .with_workers(2)
            .with_block_size(256);
        check_dataset(dataset, budget, 200, config);
    }
}

#[test]
fn budget_sweep_is_answer_invariant() {
    let dataset = Dataset::Ycsb;
    let ndjson = dataset.generate_ndjson(3, RECORDS);
    let pool = build_pool(dataset);
    let mut cfg = WorkloadConfig::workload_b(dataset, 5);
    cfg.queries = QUERIES;
    let queries = cfg.generate(&pool);

    let counts_at = |budget: f64| -> Vec<usize> {
        support::run_on_service(&ndjson, &queries, budget, SAMPLE, 1024, one_shard(1024))
            .outcomes
            .iter()
            .map(|r| r.count)
            .collect()
    };

    let baseline = counts_at(0.0);
    for budget in [1.0, 25.0, 75.0, 125.0] {
        assert_eq!(
            counts_at(budget),
            baseline,
            "budget {budget} changed answers"
        );
    }
}
