//! Budget tuning: reproduce the shape of the paper's Figs. 3–5 on one
//! dataset from the command line.
//!
//! Run with: `cargo run --release --example budget_tuning [records]`
//!
//! Sweeps the client budget over the Yelp dataset and prints the
//! stacked prefilter / load / query breakdown per budget, showing the
//! trade-off the administrator tunes: more client microseconds buy
//! fewer loaded records and faster queries, with diminishing returns.

use ciao::CiaoConfig;
use ciao_datagen::Dataset;
use ciao_service::Pipeline;
use ciao_workload::{build_pool, WorkloadConfig};

fn main() {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    println!("== CIAO budget tuning (Yelp Review, {records} records) ==");
    let ndjson = Dataset::Yelp.generate_ndjson(11, records);
    let pool = build_pool(Dataset::Yelp);
    let mut cfg = WorkloadConfig::workload_b(Dataset::Yelp, 3);
    cfg.queries = 30;
    let queries = cfg.generate(&pool);

    println!(
        "{:>8} | {:>6} | {:>9} | {:>10} | {:>9} | {:>9} | {:>9}",
        "budget", "#preds", "f(S)", "load ratio", "prefilter", "load", "query"
    );
    for budget in [0.0, 1.0, 3.0, 5.0, 10.0, 20.0, 50.0] {
        let report = Pipeline::new(
            CiaoConfig::default()
                .with_budget_micros(budget)
                .with_sample_size(2000),
        )
        .run(&ndjson, &queries)
        .expect("pipeline");
        let (p, l, q) = report.timings.as_secs();
        println!(
            "{:>7.1}µ | {:>6} | {:>9.3} | {:>9.1}% | {:>8.3}s | {:>8.3}s | {:>8.3}s",
            budget,
            report.plan.len(),
            report.plan.objective,
            100.0 * report.load.loading_ratio(),
            p,
            l,
            q,
        );
    }
    println!(
        "\nExpected shape (paper Figs. 3–5): loading and query time fall steeply \
         with the first few microseconds of budget, then flatten (submodular \
         diminishing returns); prefiltering time grows with the budget."
    );
}
