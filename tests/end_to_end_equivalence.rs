//! The system-level correctness contract, checked across all three
//! datasets and all three workload shapes:
//!
//! 1. **Ground truth**: every CIAO `COUNT(*)` equals a naive count
//!    computed by parsing every record and evaluating the query with
//!    typed semantics — no budget, plan, chunking, or block size may
//!    change an answer.
//! 2. **Baseline equivalence**: CIAO at budget B and the zero-budget
//!    baseline agree query by query.

use ciao::CiaoConfig;
use ciao_datagen::Dataset;
use ciao_json::JsonValue;
use ciao_predicate::{eval_query, Query};
use ciao_service::Pipeline;
use ciao_workload::{build_pool, WorkloadConfig};

const RECORDS: usize = 3_000;
const QUERIES: usize = 15;

fn ground_truth(records: &[JsonValue], q: &Query) -> usize {
    records.iter().filter(|r| eval_query(q, r)).count()
}

fn check_dataset(dataset: Dataset, budget: f64, chunk_size: usize, block_size: usize) {
    let records = dataset.generate(7, RECORDS);
    let ndjson = dataset.generate_ndjson(7, RECORDS);
    let pool = build_pool(dataset);
    for (label, mut cfg) in WorkloadConfig::presets(dataset, 21) {
        cfg.queries = QUERIES;
        let queries = cfg.generate(&pool);
        let report = Pipeline::new(
            CiaoConfig::default()
                .with_budget_micros(budget)
                .with_chunk_size(chunk_size)
                .with_block_size(block_size)
                .with_sample_size(500),
        )
        .run(&ndjson, &queries)
        .unwrap_or_else(|e| panic!("{dataset} {label}: {e}"));

        for (q, result) in queries.iter().zip(&report.query_results) {
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
    check_dataset(Dataset::WinLog, 5.0, 512, 256);
}

#[test]
fn yelp_all_workloads_match_ground_truth() {
    check_dataset(Dataset::Yelp, 20.0, 1024, 512);
}

#[test]
fn ycsb_all_workloads_match_ground_truth() {
    check_dataset(Dataset::Ycsb, 50.0, 333, 128);
}

#[test]
fn odd_chunk_and_block_sizes_do_not_change_answers() {
    // Chunk/block boundaries that never align with each other or the
    // record count.
    check_dataset(Dataset::WinLog, 5.0, 7, 13);
}

#[test]
fn zero_budget_baseline_matches_ground_truth() {
    check_dataset(Dataset::WinLog, 0.0, 512, 256);
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
        Pipeline::new(
            CiaoConfig::default()
                .with_budget_micros(budget)
                .with_sample_size(500),
        )
        .run(&ndjson, &queries)
        .expect("pipeline")
        .query_results
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
