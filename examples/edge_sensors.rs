//! Edge sensors: a heterogeneous client fleet feeding a sharded service.
//!
//! Run with: `cargo run --release --example edge_sensors`
//!
//! The YCSB-customers scenario from the paper's intro: a fleet of edge
//! devices of different speeds ships JSON to one server. This example
//! exercises three CIAO features beyond the basic pipeline:
//!
//! 1. **Multi-client budget allocation** (the abstract's "different
//!    budgets for different clients"): a global budget pool is split
//!    across fast/slow devices by marginal benefit per unit cost.
//! 2. **Hard runtime enforcement**: each device wraps its prefilter in
//!    a [`ciao_client::BudgetedPrefilter`] so a stalled device degrades
//!    to all-ones bits (correct, just less useful) instead of falling
//!    behind.
//! 3. **A sharded concurrent service**: the devices run as real
//!    threads, pushing prefiltered chunks into a bounded-queue
//!    [`ciao_service::Service`] (blocking on backpressure), while
//!    worker threads drain into shards and background compaction ticks
//!    promote parked raw rows into columnar blocks.

use ciao::PushdownPlan;
use ciao_client::{Budget, BudgetedPrefilter, ClientStats};
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_optimizer::{allocate_budgets, ClientSpec, InstanceBuilder};
use ciao_predicate::{compile_clause, parse_query, SelectivityEstimator};
use ciao_service::{CompactionPolicy, Service, ServiceConfig};
use std::sync::Arc;

fn main() {
    const RECORDS_PER_CLIENT: usize = 5_000;
    const SHARDS: usize = 4;

    println!("== CIAO edge sensors (YCSB customers → sharded service) ==");

    // The fleet: a beefy gateway and two slow sensors.
    let fleet = [
        ClientSpec::new("gateway", 1.0, 0.6),
        ClientSpec::new("sensor-a", 3.0, 0.25),
        ClientSpec::new("sensor-b", 5.0, 0.15),
    ];

    // Prospective workload.
    let queries = vec![
        parse_query("active_us", r#"isActive = true AND phone_country = "+1""#).unwrap(),
        parse_query("seniors", r#"age_group = "senior""#).unwrap(),
        parse_query("gmail", r#"email LIKE "%@gmail.test%""#).unwrap(),
        parse_query("top_score", "linear_score = 99").unwrap(),
    ];

    // Sample for planning.
    let sample = Dataset::Ycsb.generate(1, 2000);
    let estimator = SelectivityEstimator::new(&sample);
    let clauses: Vec<_> = queries.iter().flat_map(|q| q.pushable_clauses()).collect();
    let sels = estimator.estimate_all(clauses);
    let cost_model = ciao_optimizer::CostModel::default_uncalibrated();
    let mean_len = sample
        .iter()
        .map(|r| ciao_json::to_string(r).len())
        .sum::<usize>() as f64
        / sample.len() as f64;

    // Global budget pool split across the fleet.
    let instance = InstanceBuilder::new(&sels, 6.0).build(&queries, |c| {
        cost_model.clause_cost(&compile_clause(c).unwrap(), mean_len, sels.get(c))
    });
    let allocation = allocate_budgets(&instance, &fleet);
    println!(
        "global budget pool: 6.0 µs/record, spent {:.2}",
        allocation.total_spent()
    );
    for (spec, (selected, spent)) in fleet
        .iter()
        .zip(allocation.selections.iter().zip(&allocation.spent))
    {
        println!(
            "  {:<9} (speed ×{:.0}, share {:>4.0}%): {} predicate(s), {:.2} µs/record",
            spec.name,
            spec.speed_factor,
            spec.data_share * 100.0,
            selected.len(),
            spent
        );
        for &i in selected {
            println!("      {}", instance.candidates[i].clause);
        }
    }

    // Start the sharded service: SHARDS shards, SHARDS ingest workers,
    // a bounded queue so slow draining pushes back on producers, and a
    // compaction policy that promotes parked rows that queries keep
    // scanning.
    let plan = PushdownPlan::build(&queries, &sample, &cost_model, 6.0).expect("plan");
    let schema = Arc::new(Schema::infer(&sample).expect("schema"));
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(SHARDS)
            .with_workers(SHARDS)
            .with_queue_capacity(16)
            .with_block_size(1024)
            .with_compaction(CompactionPolicy::default().with_batch(2048)),
    );

    // Each fleet member runs as a real producer thread with hard
    // budget enforcement, blocking on backpressure when the service
    // falls behind.
    let per_client_stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let service = &service;
                scope.spawn(move || {
                    let mut stats = ClientStats::default();
                    let budgeted = BudgetedPrefilter::new(
                        service.prefilter(),
                        Budget::per_record_micros(25.0), // generous: no degradation expected
                    );
                    let ndjson = Dataset::Ycsb.generate_ndjson(2 + i as u64, RECORDS_PER_CLIENT);
                    for chunk in RecordChunk::from_ndjson(&ndjson).split(1024) {
                        let filter = budgeted.run_chunk(&chunk, &mut stats);
                        assert!(
                            service.enqueue_wait(chunk, filter).is_enqueued(),
                            "{}: service shut down mid-stream",
                            spec.name
                        );
                    }
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    service.drain();

    for (spec, stats) in fleet.iter().zip(&per_client_stats) {
        println!(
            "{:<9} shipped {} records in {} chunks ({} degraded), measured {:.2} µs/record",
            spec.name,
            stats.records_processed,
            stats.chunks,
            stats.degraded_chunks,
            stats.micros_per_record(),
        );
    }

    let before = service.metrics();
    println!(
        "\nservice: {} shards, {} rows columnar / {} parked (parked ratio {:.1}%)",
        before.shards.len(),
        before.rows(),
        before.parked(),
        100.0 * before.parked_ratio(),
    );
    for (i, s) in before.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} rows, {} parked, loading ratio {:.1}%",
            s.rows,
            s.parked,
            100.0 * s.load.loading_ratio(),
        );
    }

    for q in &queries {
        let out = service.query(q);
        println!(
            "query {:<10} count = {:<5} (skipping: {}, parked scanned: {})",
            q.name,
            out.count,
            out.profile.used_skipping(),
            out.profile.parked_rows_parsed > 0
        );
    }

    // Background maintenance: tick compaction until the parked store
    // is fully promoted, then show the queries again — same answers,
    // no raw parsing left anywhere.
    let mut ticks = 0;
    while service.metrics().parked() > 0 {
        service.compact();
        ticks += 1;
    }
    let after = service.metrics();
    println!(
        "\ncompaction: {} ticks promoted {} rows ({} unparseable observations); parked ratio {:.1}% → {:.1}%",
        ticks,
        after.compaction().promoted,
        after.compaction().unparseable,
        100.0 * before.parked_ratio(),
        100.0 * after.parked_ratio(),
    );
    for q in &queries {
        let out = service.query(q);
        println!(
            "query {:<10} count = {:<5} (raw records parsed: {})",
            q.name, out.count, out.profile.parked_rows_parsed
        );
    }

    // Final telemetry report, read before shutdown tears the handles
    // down: latency quantiles from the service's own histograms and
    // the recent event timeline from the bounded trace ring.
    let t = service.telemetry().expect("telemetry is on by default");
    let ack = t.ingest_ack_merged();
    let ticks_hist = t.compaction_tick_merged();
    println!("\n== telemetry report ==");
    println!(
        "ingest-ack latency : p50 {:>7.1} µs, p99 {:>7.1} µs, max {:>7.1} µs ({} chunks)",
        ack.p50() as f64 / 1e3,
        ack.p99() as f64 / 1e3,
        ack.max() as f64 / 1e3,
        ack.count(),
    );
    println!(
        "query latency      : p50 {:>7.1} µs, p99 {:>7.1} µs ({} queries)",
        t.query.p50() as f64 / 1e3,
        t.query.p99() as f64 / 1e3,
        t.query.count(),
    );
    println!(
        "compaction ticks   : p50 {:>7.1} µs, p99 {:>7.1} µs ({} ticks)",
        ticks_hist.p50() as f64 / 1e3,
        ticks_hist.p99() as f64 / 1e3,
        ticks_hist.count(),
    );
    println!(
        "backpressure       : {} QueueFull rejections, producers blocked in enqueue_wait {} times",
        t.queue_full.get(),
        t.enqueue_wait.count(),
    );
    let events = t.events().snapshot();
    let seals = events
        .iter()
        .filter(|e| e.kind == ciao_service::telemetry::names::EVENT_EPOCH_SEAL)
        .count();
    println!(
        "event ring         : {} events retained ({} dropped), {} epoch seals",
        events.len(),
        t.events().dropped(),
        seals,
    );
    println!("compaction timeline (from the trace ring):");
    for e in events
        .iter()
        .filter(|e| e.kind == ciao_service::telemetry::names::EVENT_COMPACTION_TICK)
    {
        let shard = e.shard.map_or_else(|| "?".into(), |s| s.to_string());
        let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  +{:>8.3}ms shard {shard}: {}",
            e.t.as_secs_f64() * 1e3,
            fields.join(", "),
        );
    }

    let final_metrics = service.shutdown();
    println!(
        "\nshutdown: {} chunks / {} records ingested, {} queries served, queue rejected {}, \
         producers blocked {:.1} ms total",
        final_metrics.ingested_chunks,
        final_metrics.ingested_records,
        final_metrics.queries,
        final_metrics.rejected_chunks,
        final_metrics.blocked.as_secs_f64() * 1e3,
    );
}
