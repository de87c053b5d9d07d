//! Adaptive stream: selectivity drift, replanning, and parked-row
//! promotion — the operational extensions on top of the paper's core.
//!
//! Run with: `cargo run --release --example adaptive_stream`
//!
//! Scenario: a log stream is planned against yesterday's sample. Then
//! the stream *drifts* — the predicate the optimizer bet on ("Error"
//! lines are rare) stops being selective because an outage makes
//! errors common. The client's own match counters expose the drift;
//! the server replans with observed selectivities. Finally an ad-hoc
//! query that no pushed predicate covers scans the parked store, and a
//! compaction pass promotes that store into columns for the re-run.

use ciao::{adaptive, PushdownPlan};
use ciao_client::ClientStats;
use ciao_columnar::Schema;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::parse_query;
use ciao_service::{CompactionPolicy, ServiceConfig, Shard};
use std::sync::Arc;

fn record(i: usize, error_rate_pct: usize) -> String {
    format!(
        r#"{{"level":"{}","service":"svc{}","code":{}}}"#,
        if i % 100 < error_rate_pct {
            "Error"
        } else {
            "Info"
        },
        i % 6,
        i % 17,
    )
}

fn main() {
    let budget = 0.35;
    let cost_model = CostModel::default_uncalibrated();

    // Yesterday's sample: errors are rare (2%).
    let sample: Vec<_> = (0..2000)
        .map(|i| ciao_json::parse(&record(i, 2)).unwrap())
        .collect();
    let queries = vec![
        parse_query("errors", r#"level = "Error""#).unwrap(),
        parse_query("svc3", r#"service = "svc3""#).unwrap(),
    ];
    let plan = PushdownPlan::build(&queries, &sample, &cost_model, budget).expect("plan");
    println!("== initial plan (budget {budget:.2} µs) ==");
    for p in &plan.predicates {
        println!(
            "  #{} {}  (planned sel {:.3}, cost {:.3} µs)",
            p.id, p.clause, p.selectivity, p.cost
        );
    }

    // Today's stream: an outage pushes the error rate to 60%.
    let stream: Vec<String> = (0..20_000).map(|i| record(i, 60)).collect();
    let chunk = RecordChunk::from_records(&stream).expect("chunk");
    let schema = Arc::new(Schema::infer(&sample).expect("schema"));
    let plan = Arc::new(plan);
    let block_size = ServiceConfig::default().block_size;
    let shard = Shard::new(Arc::clone(&plan), Arc::clone(&schema), block_size);
    let prefilter = plan.prefilter();
    let mut stats = ClientStats::default();
    for sub in chunk.split(1024) {
        let filter = prefilter.run_chunk_with_stats(&sub, &mut stats);
        shard.ingest(&sub, &filter);
    }
    println!(
        "\ningested {} records; loading ratio {:.1}% (the drifted predicate admits far more than planned)",
        stats.records_processed,
        100.0 * shard.snapshot().load.loading_ratio()
    );

    // The client's counters expose the drift.
    let report = adaptive::drift_report(&plan, &stats);
    println!("\n== drift report ==");
    for e in &report {
        println!(
            "  predicate #{}: planned sel {:.3}, observed {:.3} (drift {:.3})",
            e.id,
            e.planned,
            e.observed,
            e.drift()
        );
    }
    let threshold = 0.2;
    if adaptive::should_replan(&report, threshold) {
        let new_plan = adaptive::replan_with_observations(
            &queries,
            &sample,
            &plan,
            &stats,
            &cost_model,
            budget,
        )
        .expect("replan");
        println!("\n== replanned (drift > {threshold}) ==");
        for p in &new_plan.predicates {
            println!(
                "  #{} {}  (sel {:.3}, cost {:.3} µs)",
                p.id, p.clause, p.selectivity, p.cost
            );
        }
        println!("(the next ingestion epoch would push this set instead)");
    }

    // An ad-hoc query outside the planned workload parses the parked
    // store; one compaction pass then promotes all of it.
    let adhoc = parse_query("adhoc", "code = 13").unwrap();
    let out = shard.execute(&adhoc);
    let parked_before = shard.snapshot().parked;
    let promoted = shard
        .compact(&CompactionPolicy::default().with_batch(usize::MAX))
        .promoted;
    println!(
        "\nad-hoc `{adhoc}`: count = {} after parsing {} parked records; compaction then promoted {} ({} → {} parked)",
        out.count,
        out.profile.parked_rows_parsed,
        promoted,
        parked_before,
        shard.snapshot().parked,
    );
    let again = shard.execute(&adhoc);
    println!(
        "re-run: count = {} with {} raw records parsed (promotion paid off)",
        again.count, again.profile.parked_rows_parsed
    );
}
