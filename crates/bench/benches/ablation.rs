//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **Admission policy** — the paper §VI-A prose rule (OR over all
//!    pushed predicates) vs the per-query coverage rule the evaluation
//!    implies, measured as full ingest runs.
//! 2. **Zone maps** — block pruning on top of bitvector skipping.

use ciao::{AdmissionPolicy, Loader, PushdownPlan};
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_engine::{scan_count, ScanOptions};
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::parse_query;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

const RECORDS: usize = 10_000;

struct Env {
    chunks: Vec<RecordChunk>,
    plan: PushdownPlan,
    schema: Arc<Schema>,
}

fn env() -> Env {
    let ndjson = Dataset::WinLog.generate_ndjson(21, RECORDS);
    let all = RecordChunk::from_ndjson(&ndjson);
    let sample: Vec<_> = all
        .iter()
        .take(1500)
        .filter_map(|r| ciao_json::parse(r).ok())
        .collect();
    let queries = vec![
        parse_query("q0", r#"level = "Error" AND service = "CBS""#).unwrap(),
        parse_query("q1", r#"level = "Critical""#).unwrap(),
    ];
    let plan = PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 50.0)
        .expect("plan");
    let schema = Arc::new(Schema::infer(&sample).expect("schema"));
    Env {
        chunks: all.split(1024),
        plan,
        schema,
    }
}

fn bench_admission_policies(c: &mut Criterion) {
    let env = env();
    let prefilter = env.plan.prefilter();
    let filters: Vec<_> = env
        .chunks
        .iter()
        .map(|ch| prefilter.run_chunk(ch))
        .collect();

    let mut group = c.benchmark_group("ablation_admission");
    group.sample_size(20);
    group.throughput(Throughput::Elements(RECORDS as u64));
    let policies = [
        ("load_all", AdmissionPolicy::LoadAll),
        ("any_predicate_or", AdmissionPolicy::AnyPredicate),
        (
            "per_query_coverage",
            AdmissionPolicy::from_coverage(&env.plan.query_coverage),
        ),
    ];
    for (name, policy) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, policy| {
            b.iter(|| {
                let mut loader = Loader::new(
                    Arc::clone(&env.schema),
                    &env.plan.ids(),
                    policy.clone(),
                    1024,
                );
                for (chunk, filter) in env.chunks.iter().zip(&filters) {
                    loader.load_chunk(chunk, filter);
                }
                let (table, parked, stats) = loader.finish();
                black_box((table.row_count(), parked.len(), stats))
            })
        });
    }
    group.finish();
}

fn bench_zone_maps(c: &mut Criterion) {
    let env = env();
    // Load everything so the scan side is isolated.
    let prefilter = env.plan.prefilter();
    let mut loader = Loader::new(
        Arc::clone(&env.schema),
        &env.plan.ids(),
        AdmissionPolicy::LoadAll,
        512,
    );
    for chunk in &env.chunks {
        let filter = prefilter.run_chunk(chunk);
        loader.load_chunk(chunk, &filter);
    }
    let (table, _, _) = loader.finish();
    let query = parse_query("q", "pid = 7 AND pid < 8").unwrap();

    let mut group = c.benchmark_group("ablation_zone_maps");
    group.throughput(Throughput::Elements(table.row_count() as u64));
    group.bench_function("scan_plain", |b| {
        b.iter(|| scan_count(black_box(&table), &query, &ScanOptions::full()))
    });
    group.bench_function("scan_zone_mapped", |b| {
        b.iter(|| {
            scan_count(
                black_box(&table),
                &query,
                &ScanOptions::full().with_zone_maps(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_admission_policies, bench_zone_maps);
criterion_main!(benches);
