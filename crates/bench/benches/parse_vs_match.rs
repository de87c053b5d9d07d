//! The cost asymmetry that motivates CIAO (paper §I, §IV): full JSON
//! parsing vs raw substring matching per record. Partial loading pays
//! the left column only for admitted records; clients pay only the
//! right column. In between sits what a query over parked records
//! pays: the projected scan, which validates a whole record but builds
//! only the fields asked for.

use ciao_client::raw_eval::CompiledClause;
use ciao_datagen::Dataset;
use ciao_predicate::{compile_clause, parse_clause};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_parse_vs_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_vs_match");
    for ds in Dataset::all() {
        let records: Vec<String> = ds
            .generate_ndjson(3, 1000)
            .lines()
            .map(str::to_owned)
            .collect();
        let bytes: usize = records.iter().map(String::len).sum();
        group.throughput(Throughput::Bytes(bytes as u64));

        group.bench_with_input(
            BenchmarkId::new("full_parse", ds.name()),
            &records,
            |b, records| {
                b.iter(|| {
                    let mut fields = 0usize;
                    for r in records {
                        let v = ciao_json::parse(black_box(r)).expect("valid");
                        fields += v.as_object().map_or(0, <[_]>::len);
                    }
                    fields
                })
            },
        );

        // Two top-level fields, as a filter-plus-group-by statement
        // reads; `full_parse` above is its reference.
        let first = ciao_json::parse(&records[0]).expect("valid");
        let keys: Vec<&str> = first
            .as_object()
            .expect("object")
            .iter()
            .take(2)
            .map(|(k, _)| k.as_str())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("projected_scan", ds.name()),
            &records,
            |b, records| {
                b.iter(|| {
                    let mut fields = 0usize;
                    for r in records {
                        let v = ciao_json::parse_projected(black_box(r), &keys).expect("valid");
                        fields += v.as_object().map_or(0, <[_]>::len);
                    }
                    fields
                })
            },
        );

        let clause = compile_clause(&parse_clause(r#"anyfield LIKE "%kw007%""#).unwrap()).unwrap();
        let compiled = CompiledClause::new(&clause);
        group.bench_with_input(
            BenchmarkId::new("raw_match", ds.name()),
            &records,
            |b, records| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for r in records {
                        if compiled.is_match(black_box(r.as_bytes())) {
                            hits += 1;
                        }
                    }
                    hits
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parse_vs_match);
criterion_main!(benches);
