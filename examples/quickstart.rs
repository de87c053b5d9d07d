//! Quickstart: the smallest complete CIAO deployment.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Generates a small stream of log-like JSON records, declares a
//! prospective query workload, and lets CIAO plan the pushdown, run
//! the client prefilter, partially load the data, and answer the
//! queries — printing what happened at every stage.

use ciao::CiaoConfig;
use ciao_predicate::parse_query;
use ciao_service::Pipeline;

fn main() {
    // 1. Raw data as the clients would produce it: NDJSON.
    let ndjson: String = (0..20_000)
        .map(|i| {
            format!(
                "{{\"level\":\"{}\",\"service\":\"svc{}\",\"latency_ms\":{}}}\n",
                match i % 20 {
                    0 => "Error",
                    1..=4 => "Warning",
                    _ => "Info",
                },
                i % 8,
                (i * 7) % 500,
            )
        })
        .collect();

    // 2. The prospective workload (what analysts are expected to ask).
    let queries = vec![
        parse_query("errors", r#"level = "Error""#).unwrap(),
        parse_query("errors_svc3", r#"level = "Error" AND service = "svc3""#).unwrap(),
        parse_query("warnings", r#"level = "Warning""#).unwrap(),
    ];

    // 3. Run the whole system with a 1 µs/record client budget.
    let config = CiaoConfig::default().with_budget_micros(1.0);
    let report = Pipeline::new(config)
        .run(&ndjson, &queries)
        .expect("pipeline");

    // 4. Inspect the outcome.
    println!("== CIAO quickstart ==");
    println!(
        "plan: {} predicate(s) pushed (budget {:.1} µs, modeled cost {:.3} µs, f(S) = {:.3}, winner: {})",
        report.plan.len(),
        report.plan.budget,
        report.plan.total_cost,
        report.plan.objective,
        report.plan.winner,
    );
    for p in &report.plan.predicates {
        println!(
            "  predicate #{}: {}  (sel {:.3}, cost {:.3} µs)",
            p.id, p.clause, p.selectivity, p.cost
        );
    }
    println!(
        "loading: {} of {} records loaded into columnar format ({:.1}% loading ratio), {} parked",
        report.load.loaded_records,
        report.records,
        100.0 * report.load.loading_ratio(),
        report.load.parked_records,
    );
    for q in &report.query_results {
        println!(
            "query {:<12} count = {:<6} skipping = {:<5} scanned {} rows, skipped {}",
            q.name,
            q.count,
            q.profile.used_skipping(),
            q.profile.rows_scanned,
            q.profile.rows_skipped_zone + q.profile.rows_skipped_mask,
        );
    }
    println!("timings: {}", report.timings);
}
