//! Bitvector kernels: the data-skipping hot path (AND of per-predicate
//! bitvectors + iteration of surviving rows).

use ciao_bitvec::BitVec;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_bitvec(c: &mut Criterion) {
    const BITS: usize = 1 << 20;
    let sparse = BitVec::from_fn(BITS, |i| i % 97 == 0);
    let dense = BitVec::from_fn(BITS, |i| i % 3 != 0);

    let mut group = c.benchmark_group("bitvec");
    group.throughput(Throughput::Elements(BITS as u64));

    group.bench_function("and", |b| {
        b.iter(|| black_box(&sparse).and(black_box(&dense)))
    });
    group.bench_function("or", |b| {
        b.iter(|| black_box(&sparse).or(black_box(&dense)))
    });
    group.bench_function("count_ones_sparse", |b| {
        b.iter(|| black_box(&sparse).count_ones())
    });
    group.bench_function("count_and", |b| {
        b.iter(|| black_box(&sparse).count_and(black_box(&dense)))
    });
    group.bench_function("iter_ones_sparse", |b| {
        b.iter(|| black_box(&sparse).iter_ones().sum::<usize>())
    });
    group.bench_function("iter_ones_dense", |b| {
        b.iter(|| black_box(&dense).iter_ones().sum::<usize>())
    });
    for n in [3usize, 8] {
        let vecs: Vec<BitVec> = (0..n)
            .map(|k| BitVec::from_fn(BITS, |i| (i + k) % (5 + k) != 0))
            .collect();
        group.bench_with_input(BenchmarkId::new("and_all", n), &vecs, |b, vecs| {
            b.iter(|| {
                let refs: Vec<&BitVec> = vecs.iter().collect();
                BitVec::and_all(&refs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bitvec);
criterion_main!(benches);
