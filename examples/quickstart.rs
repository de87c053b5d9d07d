//! Quickstart: the smallest complete CIAO deployment.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Generates a small stream of log-like JSON records, declares a
//! prospective query workload, and lets CIAO plan the pushdown, run
//! the client prefilter, partially load the data into a `Service`, and
//! answer the queries — printing what happened at every stage.

use ciao::PushdownPlan;
use ciao_client::ClientStats;
use ciao_columnar::Schema;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::parse_query;
use ciao_service::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

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
    let records = RecordChunk::from_ndjson(&ndjson);

    // 2. The prospective workload (what analysts are expected to ask).
    let queries = vec![
        parse_query("errors", r#"level = "Error""#).unwrap(),
        parse_query("errors_svc3", r#"level = "Error" AND service = "svc3""#).unwrap(),
        parse_query("warnings", r#"level = "Warning""#).unwrap(),
    ];

    // 3. Plan from a sample under a 1 µs/record client budget.
    let sample: Vec<_> = records
        .iter()
        .take(1000)
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let schema = Arc::new(Schema::infer_lenient(&sample).unwrap());
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 1.0).unwrap();
    println!("== CIAO quickstart ==");
    println!(
        "plan: {} predicate(s) pushed (budget {:.1} µs, modeled cost {:.3} µs, f(S) = {:.3}, winner: {})",
        plan.len(),
        plan.budget,
        plan.total_cost,
        plan.objective,
        plan.winner,
    );
    for p in &plan.predicates {
        println!(
            "  predicate #{}: {}  (sel {:.3}, cost {:.3} µs)",
            p.id, p.clause, p.selectivity, p.cost
        );
    }

    // 4. Start the service; the client prefilters each chunk and ships
    //    it with its bitvectors.
    let svc = Service::start(plan, schema, ServiceConfig::default());
    let prefilter = svc.prefilter();
    let mut client = ClientStats::default();
    let load_start = Instant::now();
    for chunk in records.split(1024) {
        let filter = prefilter.run_chunk_with_stats(&chunk, &mut client);
        assert!(svc.enqueue_wait(chunk, filter).is_enqueued());
    }
    svc.drain();
    let load = load_start.elapsed();
    let stats = svc.metrics().load();
    println!(
        "loading: {} of {} records loaded into columnar format ({:.1}% loading ratio), {} parked",
        stats.loaded_records,
        records.len(),
        100.0 * stats.loading_ratio(),
        stats.parked_records,
    );

    // 5. Queries fan out over the shards, skipping what the bits rule out.
    for q in &queries {
        let out = svc.query(q);
        println!(
            "query {:<12} count = {:<6} skipping = {:<5} scanned {} rows, skipped {}",
            q.name,
            out.count,
            out.profile.used_skipping(),
            out.profile.rows_scanned,
            out.profile.rows_skipped_zone + out.profile.rows_skipped_mask,
        );
    }
    let query_ns = svc.telemetry().expect("telemetry is on").query.sum();
    println!(
        "timings: prefilter {:.3}s (client) + enqueue and load {:.3}s + query {:.3}s",
        client.matching_time.as_secs_f64(),
        load.as_secs_f64(),
        query_ns as f64 * 1e-9,
    );
    svc.shutdown();
}
