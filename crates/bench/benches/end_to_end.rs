//! End-to-end pipeline benchmark: the statistical backend of
//! Figs. 3–5 (the `repro` binary prints the paper-shaped rows; this
//! gives criterion-grade timing for selected budget points).

use ciao::CiaoConfig;
use ciao_datagen::Dataset;
use ciao_service::Pipeline;
use ciao_workload::{build_pool, WorkloadConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const RECORDS: usize = 8_000;
const QUERIES: usize = 20;

fn bench_end_to_end(c: &mut Criterion) {
    let data = Dataset::WinLog.generate_ndjson(9, RECORDS);
    let pool = build_pool(Dataset::WinLog);
    let mut cfg = WorkloadConfig::workload_a(Dataset::WinLog, 13);
    cfg.queries = QUERIES;
    let queries = cfg.generate(&pool);

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(RECORDS as u64));
    for budget in [0.0, 1.0, 5.0] {
        group.bench_with_input(
            BenchmarkId::new("winlog_workload_a", format!("budget_{budget}")),
            &budget,
            |b, &budget| {
                let pipeline = Pipeline::new(
                    CiaoConfig::default()
                        .with_budget_micros(budget)
                        .with_sample_size(1000),
                );
                b.iter(|| {
                    pipeline
                        .run(black_box(&data), black_box(&queries))
                        .expect("run")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
