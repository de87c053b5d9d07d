//! Statements over part of a workload query's pushed conjunction, or
//! over more than it, answer exactly as a typed full scan of the
//! records: on one shard, and on a 2-shard service through `query` and
//! `query_sql`, before and after compaction — whether a statement is
//! the one that builds an epoch's parked-record positional map or reads
//! through it, and after a compaction that drains part of a mapped
//! epoch.
//!
//! Partial loading parks a record when it fails some pushed clause of
//! *every* workload query. A statement may skip the parked side only
//! when its pushed clauses contain one workload query's whole pushed
//! set; one that filters on part of it must still read the parked
//! records.

use ciao::PushdownPlan;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::{JsonValue, RecordChunk};
use ciao_optimizer::CostModel;
use ciao_predicate::{eval_query, parse_clause, Clause, Query};
use ciao_service::{CompactionPolicy, Service, ServiceConfig, Shard};
use ciao_sql::SqlValue;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Parked rows one partial compaction tick promotes per shard: part of
/// the one epoch each shard holds.
const PARTIAL: usize = 256;

/// YCSB records (seed 3) in 256-record chunks, with a schema inferred
/// from the first 500.
struct Fixture {
    records: Vec<JsonValue>,
    chunks: Vec<RecordChunk>,
    schema: Arc<Schema>,
}

impl Fixture {
    fn new(records: usize) -> Fixture {
        let all = RecordChunk::from_ndjson(&Dataset::Ycsb.generate_ndjson(3, records));
        let records: Vec<JsonValue> = all.iter().map(|r| ciao_json::parse(r).unwrap()).collect();
        let schema = Arc::new(Schema::infer(&records[..500]).unwrap());
        Fixture {
            records,
            chunks: all.split(256),
            schema,
        }
    }

    /// A plan that pushes `pushed` for `workload`.
    fn plan(&self, pushed: &[Clause], workload: &[Query]) -> PushdownPlan {
        let sample = &self.records[..500];
        PushdownPlan::manual(pushed, workload, sample, &CostModel::default_uncalibrated())
    }

    /// One shard and a 2-shard service, each holding every record.
    fn load(&self, plan: PushdownPlan) -> (Shard, Service) {
        let prefilter = plan.prefilter();
        let shard = Shard::new(Arc::new(plan.clone()), Arc::clone(&self.schema), 128);
        let config = ServiceConfig::default()
            .with_shards(2)
            .with_workers(0)
            .with_block_size(128)
            .with_compaction(CompactionPolicy::default().with_batch(PARTIAL));
        let service = Service::start(plan, Arc::clone(&self.schema), config);
        for chunk in &self.chunks {
            let filter = prefilter.run_chunk(chunk);
            shard.ingest(chunk, &filter);
            assert!(service.enqueue(chunk.clone(), filter).is_enqueued());
            service.drain();
        }
        (shard, service)
    }

    /// Answers the conjunction every way and holds each answer to
    /// typed evaluation over every record.
    fn check(&self, shard: &Shard, service: &Service, clauses: &[Clause]) -> Result<(), String> {
        let query = Query::new("q", clauses.to_vec());
        let truth = self
            .records
            .iter()
            .filter(|r| eval_query(&query, r))
            .count();
        let conjunction: Vec<String> = clauses.iter().map(Clause::to_string).collect();
        let sql = format!("SELECT COUNT(*) FROM t WHERE {}", conjunction.join(" AND "));
        let rows = service.query_sql(&sql).map_err(|e| e.render(&sql))?.rows;
        for (path, count) in [
            ("one shard", shard.execute(&query).count),
            ("2-shard query", service.query(&query).count),
        ] {
            if count != truth {
                return Err(format!("{path}: `{sql}` answered {count}, truth {truth}"));
            }
        }
        if rows != vec![vec![SqlValue::Int(truth as i64)]] {
            return Err(format!(
                "2-shard query_sql: `{sql}` answered {rows:?}, truth {truth}"
            ));
        }
        Ok(())
    }
}

/// Promotes the oldest [`PARTIAL`] parked rows of each shard, on the
/// shard and on the service.
fn compact_part(shard: &Shard, service: &Service) {
    shard.compact(&CompactionPolicy::default().with_batch(PARTIAL));
    service.compact();
}

/// Promotes every parked row, on the shard and on the service.
fn compact(shard: &Shard, service: &Service) {
    shard.compact(&CompactionPolicy::default().with_batch(usize::MAX));
    while service.compact().promoted > 0 {}
}

fn clause(text: &str) -> Clause {
    parse_clause(text).unwrap()
}

#[test]
fn part_of_a_pushed_conjunction_reads_the_parked_side() {
    let f = Fixture::new(5_000);
    // One workload query, both of its clauses pushed: a record is
    // loaded only when both bits are set, so nearly every record with
    // `linear_score = 22` (51 of them) or `weighted_score = 36` (33) is
    // parked.
    let (score, weighted) = (clause("linear_score = 22"), clause("weighted_score = 36"));
    let pair = vec![score.clone(), weighted.clone()];
    let workload = [Query::new("w", pair.clone())];
    let plan = f.plan(&pair, &workload);
    assert_eq!(plan.query_coverage, [[0, 1]]);
    let (shard, service) = f.load(plan);

    let part = shard.execute(&Query::new("q", vec![score.clone()]));
    assert_eq!(part.count, 51);
    assert!(part.metrics.used_skipping && part.metrics.scanned_parked);
    let whole = shard.execute(&workload[0]);
    assert!(whole.metrics.used_skipping && !whole.metrics.scanned_parked);

    let statements = [vec![score], vec![weighted], pair];
    for _ in 0..2 {
        for clauses in &statements {
            f.check(&shard, &service, clauses).unwrap();
        }
        compact(&shard, &service);
    }
    service.shutdown();
}

/// Pushable YCSB clauses, from common to rare.
const POOL: &[&str] = &[
    "isActive = true",
    r#"age_group = "adult""#,
    "newsletter = true",
    r#"phone_country = "+44""#,
    r#"device = "ios""#,
    r#"age_group = "senior""#,
    "premium = true",
    "signup_year = 2015",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sub_and_super_conjunctions_of_workload_queries_match_the_full_scan(
        workload in prop::collection::vec(prop::collection::vec(0..POOL.len(), 1..4), 1..4),
        push in any::<u8>(),
        statements in prop::collection::vec(
            (any::<u8>(), any::<u8>(), prop::collection::vec(0..POOL.len(), 0..2)),
            1..5,
        ),
    ) {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        let f = FIXTURE.get_or_init(|| Fixture::new(2_000));
        let queries: Vec<Query> = workload
            .iter()
            .enumerate()
            .map(|(i, picks)| {
                Query::new(format!("w{i}"), picks.iter().map(|&p| clause(POOL[p])).collect())
            })
            .collect();
        // Push the workload clauses `push` picks, at least one.
        let used: Vec<usize> = (0..POOL.len())
            .filter(|p| workload.iter().any(|w| w.contains(p)))
            .collect();
        let mut pushed: Vec<Clause> = used
            .iter()
            .filter(|&&p| push >> p & 1 == 1)
            .map(|&p| clause(POOL[p]))
            .collect();
        if pushed.is_empty() {
            pushed.push(clause(POOL[used[0]]));
        }
        let (shard, service) = f.load(f.plan(&pushed, &queries));

        // Each statement keeps part of one workload query and may add
        // a clause of its own.
        let statements: Vec<Vec<Clause>> = statements
            .iter()
            .map(|(which, keep, extra)| {
                let base = &queries[*which as usize % queries.len()].clauses;
                let mut clauses: Vec<Clause> = base
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep >> i & 1 == 1)
                    .map(|(_, c)| c.clone())
                    .collect();
                clauses.extend(extra.iter().map(|&p| clause(POOL[p])));
                if clauses.is_empty() {
                    clauses.push(base[0].clone());
                }
                clauses
            })
            .collect();
        for stage in ["before compaction", "after a partial compaction", "after compaction"] {
            // Twice over: the first statement to read an epoch's parked
            // rows builds its map, every later one reads through it.
            for round in ["cold", "warm"] {
                for clauses in &statements {
                    f.check(&shard, &service, clauses)
                        .map_err(|e| TestCaseError::fail(format!("{stage}, {round}: {e}")))?;
                }
            }
            if stage == "before compaction" {
                compact_part(&shard, &service);
            } else {
                compact(&shard, &service);
            }
        }
        service.shutdown();
    }
}
