//! Set-up: everything a run needs before its first timed phase, made
//! from `--seed` and the workload's constants alone.
//!
//! generate records → sample → draw the query workload → build the
//! plan and the schema → split into chunks → write the statement
//! battery → check the plan against a zero-budget oracle on a prefix.

use crate::spec::{self, Scale, Workload};
use ciao::PushdownPlan;
use ciao_client::ChunkFilterResult;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::Query;
use ciao_service::{Service, ServiceConfig, StorageConfig};
use ciao_workload::{build_pool, WorkloadConfig, WorkloadKind};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which part of the battery a statement belongs to. The groups are
/// the same on every workload; what executes them differs (skip-masks,
/// a block scan, or the parked-record fallback) and is read from each
/// result's profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The 50 drawn queries as `COUNT(*)` plus 4 aggregates over the
    /// workload's most frequent WHERE conjunctions: what the plan was
    /// built for.
    Workload,
    /// 2 statements over range predicates, which no plan can push.
    Adhoc,
}

#[derive(Debug, Clone)]
pub struct Statement {
    pub sql: String,
    pub group: Group,
    /// Has a GROUP BY (feeds `engine.groupby_ns_per_row`).
    pub grouped: bool,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub total_s: f64,
    pub gen_s: f64,
    pub plan_build_ms: f64,
    pub split_ns_per_rec: f64,
}

/// Checks made and checks failed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one check; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The generated inputs of one run. The system under test sees only
/// these, never the workload's name.
#[derive(Debug)]
pub struct Inputs {
    pub plan: PushdownPlan,
    pub schema: Arc<Schema>,
    pub chunks: Vec<RecordChunk>,
    pub records: usize,
    /// NDJSON bytes of all records, newlines included.
    pub input_bytes: usize,
    pub statements: Vec<Statement>,
    pub timing: SetupTiming,
    pub tally: Tally,
}

/// SplitMix64 step: derives the data and sample seeds from `--seed`.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed service topology, with or without a storage directory.
pub fn service_config(shards: usize, storage: Option<StorageConfig>) -> ServiceConfig {
    let config = ServiceConfig::default()
        .with_shards(shards)
        .with_workers(spec::WORKERS)
        .with_queue_capacity(spec::QUEUE_CAPACITY)
        .with_block_size(spec::BLOCK_SIZE);
    match storage {
        Some(storage) => config.with_storage(storage),
        None => config,
    }
}

fn where_of(query: &Query) -> String {
    let clauses: Vec<String> = query.clauses.iter().map(ToString::to_string).collect();
    clauses.join(" AND ")
}

/// The statement battery: the same text on every workload that shares
/// a dataset, so `ycsb_skew` and `ycsb_full` answer identical SQL.
fn battery(dataset: Dataset, queries: &[Query]) -> Vec<Statement> {
    let mut statements: Vec<Statement> = queries
        .iter()
        .map(|q| Statement {
            sql: format!("SELECT COUNT(*) FROM t WHERE {}", where_of(q)),
            group: Group::Workload,
            grouped: false,
        })
        .collect();

    // The aggregates filter on the workload's most frequent WHERE
    // conjunctions, whole: partial loading keeps a record only when it
    // can satisfy every pushed clause of some workload query, so a
    // statement filtering on part of a query's conjunction is not one
    // the plan promises to answer.
    let mut frequency: BTreeMap<String, usize> = BTreeMap::new();
    for query in queries {
        *frequency.entry(where_of(query)).or_default() += 1;
    }
    let mut ranked: Vec<(String, usize)> = frequency.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let top = |i: usize| ranked[i.min(ranked.len() - 1)].0.as_str();

    // (label column, numeric column, range column) per dataset.
    let (label, number, other) = match dataset {
        Dataset::Ycsb => ("age_group", "linear_score", "phone_country"),
        Dataset::WinLog => ("level", "pid", "service"),
        Dataset::Yelp => unreachable!("no workload uses Yelp"),
    };
    let aggregates = [
        (format!("SELECT COUNT(*), AVG({number}) FROM t WHERE {}", top(0)), false),
        (
            format!(
                "SELECT {label}, COUNT(*), SUM({number}) FROM t WHERE {} GROUP BY {label} ORDER BY {label}",
                top(0)
            ),
            true,
        ),
        (
            format!(
                "SELECT {other}, MIN({number}), MAX({number}) FROM t WHERE {} GROUP BY {other} ORDER BY {other}",
                top(1)
            ),
            true,
        ),
        (
            format!(
                "SELECT {label}, {number} FROM t WHERE {} ORDER BY {label}, {number} LIMIT 10",
                top(2)
            ),
            false,
        ),
    ];
    statements.extend(aggregates.into_iter().map(|(sql, grouped)| Statement {
        sql,
        group: Group::Workload,
        grouped,
    }));

    let (low, high) = match dataset {
        Dataset::Ycsb => (5, 94),
        _ => (100, 1900),
    };
    statements.push(Statement {
        sql: format!("SELECT COUNT(*) FROM t WHERE {number} > {high}"),
        group: Group::Adhoc,
        grouped: false,
    });
    statements.push(Statement {
        sql: format!("SELECT {label}, COUNT(*) FROM t WHERE {number} < {low} GROUP BY {label} ORDER BY {label}"),
        group: Group::Adhoc,
        grouped: true,
    });
    statements
}

/// Enqueues every chunk with its filter result and drains.
pub fn load_all(
    service: &Service,
    chunks: &[RecordChunk],
    filters: &[ChunkFilterResult],
    tally: &mut Tally,
) {
    for (chunk, filter) in chunks.iter().zip(filters) {
        let result = service.enqueue_wait(chunk.clone(), filter.clone());
        tally.check(result.is_enqueued(), || {
            format!("enqueue refused: {result:?}")
        });
    }
    service.drain();
}

/// Runs the plan on the fixed topology and a zero-budget one-shard
/// oracle over a prefix, and compares every statement's rendered
/// result. A pushdown plan must also answer the workload group from
/// skip-masks alone: the mixed workload's reader depends on it.
fn oracle_check(
    plan: &PushdownPlan,
    oracle_plan: &PushdownPlan,
    schema: &Arc<Schema>,
    prefix: &[RecordChunk],
    statements: &[Statement],
    tally: &mut Tally,
) {
    let start = |plan: &PushdownPlan, shards: usize, tally: &mut Tally| {
        let service = Service::try_start(
            plan.clone(),
            Arc::clone(schema),
            service_config(shards, None),
        )
        .expect("a memory-only service starts");
        let prefilter = plan.prefilter();
        let filters: Vec<ChunkFilterResult> =
            prefix.iter().map(|c| prefilter.run_chunk(c)).collect();
        load_all(&service, prefix, &filters, tally);
        service
    };
    let subject = start(plan, spec::SHARDS, tally);
    let oracle = start(oracle_plan, 1, tally);
    for statement in statements {
        match (
            subject.query_sql(&statement.sql),
            oracle.query_sql(&statement.sql),
        ) {
            (Ok(got), Ok(expected)) => {
                tally.check(got.render() == expected.render(), || {
                    format!(
                        "oracle mismatch on `{}`:\n--- got\n{}\n--- expected\n{}",
                        statement.sql,
                        got.render(),
                        expected.render()
                    )
                });
                if !plan.is_empty() && statement.group == Group::Workload {
                    tally.check(got.profile.parked_rows_parsed == 0, || {
                        format!(
                            "workload statement fell back to parked records: `{}`",
                            statement.sql
                        )
                    });
                }
            }
            (got, expected) => tally.check(false, || {
                format!(
                    "`{}` failed: {:?} / {:?}",
                    statement.sql,
                    got.err(),
                    expected.err()
                )
            }),
        }
    }
    subject.shutdown();
    oracle.shutdown();
}

/// One complete set-up.
pub fn set_up(workload: &Workload, scale: Scale, seed: u64) -> Inputs {
    let started = Instant::now();
    let records = workload.records(scale);
    let dataset = workload.dataset;

    let gen_started = Instant::now();
    let text = dataset.generate_ndjson(derive_seed(seed, 1), records);
    let gen_s = gen_started.elapsed().as_secs_f64();

    let sample = dataset.generate(derive_seed(seed, 2), spec::SAMPLE_RECORDS);
    let queries = WorkloadConfig {
        dataset,
        kind: WorkloadKind::Zipf {
            exponent: workload.zipf_exponent,
        },
        queries: spec::WORKLOAD_QUERIES,
        expected_predicates: spec::EXPECTED_PREDICATES,
        seed: spec::WORKLOAD_SEED,
    }
    .generate(&build_pool(dataset));

    let cost = CostModel::default_uncalibrated();
    let plan_started = Instant::now();
    let plan = PushdownPlan::build(&queries, &sample, &cost, workload.budget_us)
        .expect("workload has queries");
    let plan_build_ms = plan_started.elapsed().as_secs_f64() * 1e3;
    let oracle_plan =
        PushdownPlan::build(&queries, &sample, &cost, 0.0).expect("workload has queries");
    let schema = Arc::new(Schema::infer(&sample).expect("sample has a schema"));

    let split_started = Instant::now();
    let chunks = RecordChunk::from_ndjson(&text).split(spec::CHUNK_RECORDS);
    let split_ns_per_rec = split_started.elapsed().as_nanos() as f64 / records as f64;
    let input_bytes = text.len();
    drop(text);

    let statements = battery(dataset, &queries);
    let mut tally = Tally::default();
    let prefix_chunks = (spec::ORACLE_PREFIX / spec::CHUNK_RECORDS).min(chunks.len());
    oracle_check(
        &plan,
        &oracle_plan,
        &schema,
        &chunks[..prefix_chunks],
        &statements,
        &mut tally,
    );

    Inputs {
        plan,
        schema,
        chunks,
        records,
        input_bytes,
        statements,
        timing: SetupTiming {
            total_s: started.elapsed().as_secs_f64(),
            gen_s,
            plan_build_ms,
            split_ns_per_rec,
        },
        tally,
    }
}
