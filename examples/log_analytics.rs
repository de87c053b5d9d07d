//! Log analytics: the paper's Windows System Log scenario.
//!
//! Run with: `cargo run --release --example log_analytics`
//!
//! Builds a synthetic Windows event log (the intro's "single log
//! server collecting syslog events"), generates the paper's three
//! workload shapes (Table III: A = highly skewed, B = moderate,
//! C = uniform), and shows how the same budget buys very different
//! outcomes depending on predicate overlap and skewness.

use ciao::CiaoConfig;
use ciao_datagen::Dataset;
use ciao_service::Pipeline;
use ciao_workload::{build_pool, predicate_counts, skewness_factor, WorkloadConfig};

fn main() {
    const RECORDS: usize = 30_000;
    const QUERIES: usize = 40;
    const BUDGET_MICROS: f64 = 3.0;

    println!("== CIAO log analytics (Windows System Log) ==");
    let ndjson = Dataset::WinLog.generate_ndjson(42, RECORDS);
    println!(
        "dataset: {} records, {:.1} MB raw",
        RECORDS,
        ndjson.len() as f64 / 1e6
    );

    let pool = build_pool(Dataset::WinLog);
    println!("predicate pool: {} candidates (paper Table II)", pool.len());

    for (label, mut cfg) in WorkloadConfig::presets(Dataset::WinLog, 7) {
        cfg.queries = QUERIES;
        let queries = cfg.generate(&pool);
        let skew = skewness_factor(&predicate_counts(&queries));

        let report = Pipeline::new(
            CiaoConfig::default()
                .with_budget_micros(BUDGET_MICROS)
                .with_sample_size(2000),
        )
        .run(&ndjson, &queries)
        .expect("pipeline");

        let (p, l, q) = report.timings.as_secs();
        println!(
            "\nworkload {label} ({}) — skewness factor {:.2}",
            cfg.kind.label(),
            skew
        );
        println!(
            "  pushed {:>3} predicates | loading ratio {:>5.1}% | {} / {} queries used skipping",
            report.plan.len(),
            100.0 * report.load.loading_ratio(),
            report.queries_with_skipping(),
            queries.len(),
        );
        println!(
            "  prefilter {p:.3}s | load {l:.3}s | query {q:.3}s | total {:.3}s",
            report.timings.total().as_secs_f64()
        );
    }

    println!(
        "\nExpected shape (paper Fig. 3): workload A loads the least and answers \
         fastest; workload C sees little partial loading at the same budget."
    );
}
