//! End-to-end service guarantees: a sharded, multi-threaded
//! `ciao_service::Service` answers exactly as a typed full scan of the
//! same records — for every shard count, before and after compaction,
//! and under concurrent producers.

use ciao::PushdownPlan;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::{eval_query, parse_query, Query};
use ciao_service::{CompactionPolicy, EnqueueResult, Service, ServiceConfig};
use std::sync::Arc;

const RECORDS: usize = 3_000;
const SEED: u64 = 77;
const CHUNK: usize = 128;

struct Fixture {
    plan: PushdownPlan,
    schema: Arc<Schema>,
    chunks: Vec<RecordChunk>,
    queries: Vec<Query>,
}

/// YCSB records with a plan that pushes some clauses (so partial
/// loading actually parks rows) while q2 stays uncovered (so queries
/// exercise the parked path too).
fn fixture() -> Fixture {
    let records = Dataset::Ycsb.generate(SEED, RECORDS);
    let ndjson = Dataset::Ycsb.generate_ndjson(SEED, RECORDS);
    let queries = vec![
        parse_query("q0", "isActive = true").unwrap(),
        parse_query("q1", r#"age_group = "senior" AND isActive = true"#).unwrap(),
        parse_query("q2", "linear_score = 42").unwrap(),
    ];
    let sample: Vec<_> = records.iter().take(500).cloned().collect();
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 30.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let chunks = RecordChunk::from_ndjson(&ndjson).split(CHUNK);
    Fixture {
        plan,
        schema,
        chunks,
        queries,
    }
}

/// The ground truth: each query evaluated with typed semantics over
/// every parsed record.
fn full_scan_counts(f: &Fixture) -> Vec<usize> {
    let records: Vec<_> = f
        .chunks
        .iter()
        .flat_map(|c| c.iter())
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    f.queries
        .iter()
        .map(|q| records.iter().filter(|r| eval_query(q, r)).count())
        .collect()
}

#[test]
fn shard_count_invariance() {
    let f = fixture();
    let truth = full_scan_counts(&f);
    assert!(truth.iter().any(|&c| c > 0), "fixture queries must hit");

    for shards in [1, 2, 4] {
        let service = Service::start(
            f.plan.clone(),
            Arc::clone(&f.schema),
            ServiceConfig::default()
                .with_shards(shards)
                .with_workers(shards),
        );
        let prefilter = service.prefilter();
        for chunk in &f.chunks {
            let filter = prefilter.run_chunk(chunk);
            assert!(service.enqueue_wait(chunk.clone(), filter).is_enqueued());
        }
        for (q, &expected) in f.queries.iter().zip(&truth) {
            let out = service.query(q);
            assert_eq!(
                out.count, expected,
                "{} diverged at {shards} shards",
                q.name
            );
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.load().total(), RECORDS);
        assert_eq!(metrics.shards.len(), shards);
    }
}

#[test]
fn compaction_ticks_shrink_parked_ratio_and_preserve_answers() {
    let f = fixture();
    let truth = full_scan_counts(&f);
    let service = Service::start(
        f.plan.clone(),
        Arc::clone(&f.schema),
        ServiceConfig::default()
            .with_shards(4)
            .with_workers(2)
            // Small batches force several ticks, each of which must
            // make strictly-decreasing progress.
            .with_compaction(CompactionPolicy::default().with_batch(64)),
    );
    for chunk in &f.chunks {
        assert!(service
            .enqueue_wait(chunk.clone(), service.prefilter().run_chunk(chunk))
            .is_enqueued());
    }
    service.drain();
    let mut ratio = service.metrics().parked_ratio();
    assert!(
        ratio > 0.0,
        "fixture must park rows for compaction to matter"
    );

    let mut ticks = 0;
    while service.metrics().parked() > 0 {
        let delta = service.compact();
        assert!(
            delta.promoted > 0,
            "every tick over a parked backlog promotes"
        );
        let next = service.metrics().parked_ratio();
        assert!(next < ratio, "tick {ticks} did not shrink the parked ratio");
        ratio = next;
        ticks += 1;
        assert!(ticks <= 64, "compaction failed to converge");
        // Results stay identical mid-compaction, not just at the end.
        for (q, &expected) in f.queries.iter().zip(&truth) {
            assert_eq!(service.query(q).count, expected, "{} after tick", q.name);
        }
    }
    assert!(ticks > 1, "batch size should force multiple ticks");
    let metrics = service.shutdown();
    assert_eq!(metrics.parked(), 0);
    assert_eq!(metrics.compaction().promoted, metrics.load().parked_records);
}

#[test]
fn backpressure_queue_full_then_successful_drain() {
    let f = fixture();
    // No workers: nothing drains until we say so.
    let service = Service::start(
        f.plan.clone(),
        Arc::clone(&f.schema),
        ServiceConfig::default()
            .with_shards(2)
            .with_workers(0)
            .with_queue_capacity(3),
    );
    let prefilter = service.prefilter();
    let filters: Vec<_> = f.chunks.iter().map(|c| prefilter.run_chunk(c)).collect();

    // Fill the bounded queue...
    for i in 0..3 {
        assert!(service
            .enqueue(f.chunks[i].clone(), filters[i].clone())
            .is_enqueued());
    }
    // ...observe backpressure...
    assert_eq!(
        service.enqueue(f.chunks[3].clone(), filters[3].clone()),
        EnqueueResult::QueueFull { capacity: 3 }
    );
    assert_eq!(service.metrics().queue_depth, 3);
    assert_eq!(service.metrics().rejected_chunks, 1);

    // ...drain, and the refused chunk now goes through.
    service.drain();
    assert_eq!(service.metrics().queue_depth, 0);
    assert!(service
        .enqueue(f.chunks[3].clone(), filters[3].clone())
        .is_enqueued());
    for (chunk, filter) in f.chunks.iter().zip(&filters).skip(4) {
        assert!(service.enqueue(chunk.clone(), filter.clone()).is_enqueued());
        service.drain();
    }
    service.drain();

    let truth = full_scan_counts(&f);
    for (q, &expected) in f.queries.iter().zip(&truth) {
        assert_eq!(service.query(q).count, expected, "{} after refill", q.name);
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.ingested_chunks, f.chunks.len() as u64);
    assert_eq!(metrics.rejected_chunks, 1);
}

/// Deterministic stress: many producer threads race many ingest
/// workers through a small bounded queue (so backpressure paths run),
/// with compaction ticks interleaved — and the merged answers still
/// equal the full-scan truth. Fixed seed; counts are
/// insensitive to interleaving by construction, which is exactly the
/// invariant under test.
#[test]
fn concurrent_producers_stress_matches_baseline() {
    const PRODUCERS: usize = 8;
    let f = fixture();
    let truth = full_scan_counts(&f);
    let service = Service::start(
        f.plan.clone(),
        Arc::clone(&f.schema),
        ServiceConfig::default()
            .with_shards(4)
            .with_workers(4)
            .with_queue_capacity(4),
    );
    let prefilter = service.prefilter();

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let service = &service;
            let prefilter = &prefilter;
            let chunks = &f.chunks;
            scope.spawn(move || {
                // Producer p ships every PRODUCERS-th chunk.
                for chunk in chunks.iter().skip(p).step_by(PRODUCERS) {
                    let filter = prefilter.run_chunk(chunk);
                    assert!(service.enqueue_wait(chunk.clone(), filter).is_enqueued());
                }
            });
        }
        // A maintenance thread ticks compaction while ingest races.
        let service = &service;
        scope.spawn(move || {
            for _ in 0..16 {
                let _ = service.compact();
                std::thread::yield_now();
            }
        });
    });

    for (q, &expected) in f.queries.iter().zip(&truth) {
        assert_eq!(service.query(q).count, expected, "{} under stress", q.name);
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.ingested_records as usize, RECORDS);
    assert_eq!(metrics.rejected_chunks, 0, "enqueue_wait never rejects");
}

#[test]
fn telemetry_snapshot_is_consistent_and_json_exports_parse() {
    let f = fixture();
    let service = Service::start(
        f.plan.clone(),
        Arc::clone(&f.schema),
        ServiceConfig::default().with_shards(2).with_workers(2),
    );
    let prefilter = service.prefilter();
    for chunk in &f.chunks {
        let filter = prefilter.run_chunk(chunk);
        assert!(service.enqueue_wait(chunk.clone(), filter).is_enqueued());
    }
    for q in &f.queries {
        service.query(q);
    }
    service.compact();

    let t = service.telemetry().expect("telemetry on by default");
    assert_eq!(
        t.ingest_ack_merged().count() as usize,
        f.chunks.len(),
        "every ingested chunk recorded an ack latency"
    );
    assert_eq!(t.query.count() as usize, f.queries.len());
    assert!(t.query.p99() >= t.query.p50());

    let metrics = service.metrics();
    assert_eq!(
        metrics.sealed_epochs() as u64,
        t.snapshot()
            .counter(ciao_service::telemetry::names::EPOCHS_SEALED_TOTAL)
            .unwrap(),
        "snapshot counter agrees with per-shard sealed counts"
    );
    assert!(metrics.sealed_blocks() > 0);

    // Both exports must be machine-readable: JSON through the strict
    // oracle parser, Prometheus text by line shape.
    let snap = service.telemetry_snapshot().unwrap();
    let json: serde_json::Value =
        serde_json::from_str(&snap.to_json()).expect("snapshot JSON is strict RFC 8259");
    let histograms = json.get("histograms").unwrap().as_object().unwrap();
    let query_series = histograms
        .get(ciao_service::telemetry::names::QUERY_NS)
        .expect("query latency series exported");
    assert_eq!(
        query_series.get("count").unwrap().as_i64().unwrap() as usize,
        f.queries.len()
    );
    for line in snap.prometheus_text().lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "malformed exposition line: {line}"
        );
    }
    service.shutdown();
}
