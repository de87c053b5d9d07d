//! Sharded-service ingest benchmark: the same prefiltered chunk
//! stream pushed through 1/2/4/8 shards (workers = shards), versus one
//! shard driven on the calling thread. Measures the server side only —
//! client prefiltering is pre-paid when the environment is built.
//!
//! The binary also measures the telemetry tax directly: identical
//! ingest runs with instrumentation on and off, medians compared, and
//! the overhead percentage appended to `BENCH_service.json` (see
//! `ciao_bench::trajectory`). The same comparison runs on the query
//! path, where telemetry-on now includes the whole profiler (span
//! tree, workload EWMAs, slow-query log). The acceptance budget is 5%
//! for both.

use ciao_bench::experiments::service::ServiceEnv;
use ciao_bench::experiments::sql;
use ciao_bench::{trajectory, ExperimentScale};
use ciao_service::Service;
use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use std::time::Instant;

fn bench_service_ingest(c: &mut Criterion) {
    let scale = ExperimentScale::tiny();
    let env = ServiceEnv::new(scale);

    let mut group = c.benchmark_group("service_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(env.records() as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("ycsb", format!("shards_{shards}")),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let service = env.run_service_ingest(black_box(shards));
                    black_box(service.metrics().rows());
                    service.shutdown()
                })
            },
        );
    }
    group.finish();
}

fn bench_baseline_shard(c: &mut Criterion) {
    let scale = ExperimentScale::tiny();
    let env = ServiceEnv::new(scale);

    let mut group = c.benchmark_group("service_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(env.records() as u64));
    group.bench_function("ycsb/single_thread_shard", |b| {
        b.iter(|| {
            let shard = env.baseline_shard();
            shard.seal_epoch();
            black_box(shard.snapshot().rows)
        })
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let scale = ExperimentScale::tiny();
    let env = ServiceEnv::new(scale);

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(env.records() as u64));
    for (name, telemetry) in [("instrumented", true), ("uninstrumented", false)] {
        group.bench_function(format!("ycsb/2_shards_{name}"), |b| {
            b.iter(|| {
                let service = env.run_service_ingest_with(black_box(2), telemetry);
                black_box(service.metrics().rows());
                service.shutdown()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_service_ingest,
    bench_baseline_shard,
    bench_telemetry_overhead
);

/// The vendored Criterion prints medians but does not expose them, so
/// the trajectory measurement re-times both settings by hand. The
/// instrumented and uninstrumented runs are **interleaved** so
/// machine-load drift lands on both sides equally instead of biasing
/// whichever block ran second; medians then shrug off the outliers.
fn interleaved_medians(env: &ServiceEnv, iters: usize) -> (f64, f64) {
    let time_one = |telemetry: bool| {
        let start = Instant::now();
        let service = env.run_service_ingest_with(2, telemetry);
        black_box(service.metrics().rows());
        service.shutdown();
        start.elapsed().as_secs_f64()
    };
    time_one(true); // warm-up, discarded
    let mut on_samples = Vec::with_capacity(iters);
    let mut off_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        on_samples.push(time_one(true));
        off_samples.push(time_one(false));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    (median(&mut on_samples), median(&mut off_samples))
}

fn append_overhead_run() {
    const ITERS: usize = 15;
    let scale = ExperimentScale::tiny();
    let env = ServiceEnv::new(scale);
    let (on, off) = interleaved_medians(&env, ITERS);
    let overhead_pct = (on - off) / off * 100.0;
    println!(
        "telemetry overhead: median ingest {on:.4}s instrumented vs {off:.4}s uninstrumented \
         ({overhead_pct:+.2}%)"
    );

    let path = trajectory::output_path();
    let run = trajectory::run_from_rows("bench", env.records(), Some(overhead_pct), &[]);
    match trajectory::append_run(&path, run) {
        Ok(doc) => println!(
            "trajectory: appended run #{} to {}",
            doc.runs.len(),
            path.display()
        ),
        Err(e) => eprintln!("trajectory: could not write {}: {e}", path.display()),
    }
}

/// The profiler's query-path tax, measured the same way: one
/// instrumented and one uninstrumented 2-shard service over the same
/// ingested data, the SQL battery replayed on each in interleaved
/// rounds. Telemetry-on runs the full profiler per statement — span
/// tree, per-clause workload EWMAs, slow-query log — telemetry-off
/// skips it all, so the median gap is the profiling overhead.
fn profiling_overhead_medians(env: &ServiceEnv, iters: usize) -> (f64, f64) {
    let on = env.run_service_ingest_with(2, true);
    let off = env.run_service_ingest_with(2, false);
    let battery = sql::statements();
    let time_battery = |service: &Service| {
        let start = Instant::now();
        for stmt in &battery {
            black_box(
                service
                    .query_sql(stmt)
                    .expect("battery executes")
                    .rows
                    .len(),
            );
        }
        start.elapsed().as_secs_f64()
    };
    time_battery(&on); // warm-up, discarded
    let mut on_samples = Vec::with_capacity(iters);
    let mut off_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        on_samples.push(time_battery(&on));
        off_samples.push(time_battery(&off));
    }
    on.shutdown();
    off.shutdown();
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    (median(&mut on_samples), median(&mut off_samples))
}

fn append_profiling_overhead_run() {
    const ITERS: usize = 15;
    let scale = ExperimentScale::tiny();
    let env = ServiceEnv::new(scale);
    let (on, off) = profiling_overhead_medians(&env, ITERS);
    let overhead_pct = (on - off) / off * 100.0;
    println!(
        "profiling overhead: median SQL battery {on:.4}s instrumented vs {off:.4}s \
         uninstrumented ({overhead_pct:+.2}%)"
    );

    let path = trajectory::output_path();
    let run = trajectory::run_from_rows("bench-profiling", env.records(), Some(overhead_pct), &[]);
    match trajectory::append_run(&path, run) {
        Ok(doc) => println!(
            "trajectory: appended run #{} to {}",
            doc.runs.len(),
            path.display()
        ),
        Err(e) => eprintln!("trajectory: could not write {}: {e}", path.display()),
    }
}

fn main() {
    benches();
    append_overhead_run();
    append_profiling_overhead_run();
}
