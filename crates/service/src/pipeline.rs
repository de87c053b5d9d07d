//! The end-to-end pipeline: the exact sequence the paper measures.
//!
//! ```text
//! raw NDJSON ──chunk──▶ client prefilter ──bits──▶ partial load ──▶ queries
//!      ▲                                                              │
//!      └── planning: sample → selectivities → submodular selection ◀──┘
//! ```
//!
//! [`Pipeline::run`] performs all four phases on one [`Shard`] — the
//! loading and query state the service runs N of — and reports the
//! timing breakdown of Figs. 3–5 plus per-query detail.

use crate::report::TimingBreakdown;
use crate::shard::Shard;
use ciao::{CiaoConfig, LoadStats, PlanError, PushdownPlan};
use ciao_columnar::{Schema, SchemaError};
use ciao_engine::QueryProfile;
use ciao_json::{JsonValue, RecordChunk};
use ciao_predicate::Query;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// No parseable records in the input.
    NoData,
    /// Planning failed.
    Plan(PlanError),
    /// Schema inference failed.
    Schema(SchemaError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoData => write!(f, "input contains no parseable records"),
            PipelineError::Plan(e) => write!(f, "planning failed: {e}"),
            PipelineError::Schema(e) => write!(f, "schema inference failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PlanError> for PipelineError {
    fn from(e: PlanError) -> Self {
        PipelineError::Plan(e)
    }
}

impl From<SchemaError> for PipelineError {
    fn from(e: SchemaError) -> Self {
        PipelineError::Schema(e)
    }
}

/// Per-query execution record.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Query name.
    pub name: String,
    /// The COUNT(*) result.
    pub count: usize,
    /// What the scan did.
    pub profile: QueryProfile,
}

/// Everything one pipeline run produces.
#[derive(Debug)]
pub struct PipelineReport {
    /// The plan that was pushed to clients.
    pub plan: PushdownPlan,
    /// Stage timings (the stacked bars of Figs. 3–5).
    pub timings: TimingBreakdown,
    /// Loading statistics (loading ratio etc.).
    pub load: LoadStats,
    /// Per-query results in workload order.
    pub query_results: Vec<QueryReport>,
    /// Number of chunks shipped by the client.
    pub chunks: usize,
    /// Total records processed.
    pub records: usize,
}

impl PipelineReport {
    /// Fraction of queries that used data skipping and actually
    /// skipped at least one row (the Fig. 6 numerator's cheap proxy;
    /// the bench harness computes the timed version).
    pub fn queries_with_skipping(&self) -> usize {
        self.query_results
            .iter()
            .filter(|q| {
                let p = &q.profile;
                p.used_skipping() && p.rows_skipped_zone + p.rows_skipped_mask > 0
            })
            .count()
    }

    /// Sum of all query counts (workload-level sanity metric).
    pub fn total_hits(&self) -> usize {
        self.query_results.iter().map(|q| q.count).sum()
    }
}

/// The end-to-end driver.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: CiaoConfig,
}

impl Pipeline {
    /// Creates a pipeline with a configuration.
    pub fn new(config: CiaoConfig) -> Pipeline {
        Pipeline { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CiaoConfig {
        &self.config
    }

    /// Runs planning, client prefiltering, partial loading, and the
    /// query workload over raw NDJSON text.
    pub fn run(&self, ndjson: &str, queries: &[Query]) -> Result<PipelineReport, PipelineError> {
        let all = RecordChunk::from_ndjson(ndjson);
        self.run_chunked(&all, queries)
    }

    /// Like [`Pipeline::run`] but over an existing record chunk.
    pub fn run_chunked(
        &self,
        all: &RecordChunk,
        queries: &[Query],
    ) -> Result<PipelineReport, PipelineError> {
        // --- Phase 0: planning (sample → schema + selectivities + plan).
        let sample: Vec<JsonValue> = all
            .iter()
            .take(self.config.sample_size)
            .filter_map(|r| ciao_json::parse(r).ok())
            .collect();
        if sample.is_empty() {
            return Err(PipelineError::NoData);
        }
        // Lenient inference: a single producer emitting a conflicting
        // type must not block ingestion (conflicting values load as
        // NULL and are counted as coercion failures).
        let schema = Arc::new(Schema::infer_lenient(&sample)?);
        let plan = PushdownPlan::build(
            queries,
            &sample,
            &self.config.cost_model,
            self.config.budget_micros,
        )?;

        // --- Phase 1: client-side prefiltering, chunk by chunk.
        let chunks = all.split(self.config.chunk_size);
        let prefilter_start = Instant::now();
        let prefilter = plan.prefilter();
        let filters: Vec<_> = chunks.iter().map(|c| prefilter.run_chunk(c)).collect();
        let prefiltering = prefilter_start.elapsed();

        // --- Phase 2: server-side partial loading into one shard.
        let plan = Arc::new(plan);
        let shard = Shard::new(Arc::clone(&plan), schema, self.config.block_size);
        let load_start = Instant::now();
        for (chunk, filter) in chunks.iter().zip(&filters) {
            shard.ingest(chunk, filter);
        }
        shard.seal_epoch();
        let loading = load_start.elapsed();

        // --- Phase 3: query workload.
        let query_start = Instant::now();
        let query_results: Vec<QueryReport> = queries
            .iter()
            .map(|q| {
                let out = shard.execute(q);
                QueryReport {
                    name: q.name.clone(),
                    count: out.count,
                    profile: out.profile,
                }
            })
            .collect();
        let query = query_start.elapsed();

        Ok(PipelineReport {
            plan: PushdownPlan::clone(&plan),
            timings: TimingBreakdown {
                prefiltering,
                loading,
                query,
            },
            load: shard.snapshot().load,
            query_results,
            chunks: chunks.len(),
            records: all.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_predicate::parse_query;

    fn ndjson(n: usize) -> String {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"stars\":{},\"name\":\"u{}\",\"text\":\"{}\"}}\n",
                    i % 5 + 1,
                    i % 20,
                    if i % 10 == 0 {
                        "delicious stuff"
                    } else {
                        "plain stuff"
                    }
                )
            })
            .collect()
    }

    fn workload() -> Vec<Query> {
        vec![
            parse_query("q0", "stars = 5").unwrap(),
            parse_query("q1", r#"text LIKE "%delicious%""#).unwrap(),
            parse_query("q2", r#"stars = 5 AND name = "u4""#).unwrap(),
        ]
    }

    #[test]
    fn full_run_produces_correct_counts() {
        let data = ndjson(500);
        let report = Pipeline::new(CiaoConfig::default().with_budget_micros(10.0))
            .run(&data, &workload())
            .unwrap();
        assert_eq!(report.records, 500);
        assert_eq!(report.query_results[0].count, 100); // stars = 5
        assert_eq!(report.query_results[1].count, 50); // delicious
        assert_eq!(report.query_results[2].count, 25); // u4 ∧ stars=5: i%20==4 ∧ i%5==4
        assert!(!report.plan.is_empty());
    }

    #[test]
    fn ciao_matches_baseline_counts() {
        // The load-bearing equivalence: with and without pushdown, every
        // query must return identical counts.
        let data = ndjson(400);
        let queries = workload();
        let ciao = Pipeline::new(CiaoConfig::default().with_budget_micros(10.0))
            .run(&data, &queries)
            .unwrap();
        let baseline = Pipeline::new(CiaoConfig::default().with_budget_micros(0.0))
            .run(&data, &queries)
            .unwrap();
        for (a, b) in ciao.query_results.iter().zip(&baseline.query_results) {
            assert_eq!(a.count, b.count, "count mismatch on {}", a.name);
        }
        // Baseline loads everything; CIAO loads a strict subset here.
        assert_eq!(baseline.load.loaded_records, 400);
        assert!(ciao.load.loaded_records < 400);
    }

    #[test]
    fn budget_zero_is_no_op_plan() {
        let data = ndjson(100);
        let report = Pipeline::new(CiaoConfig::default().with_budget_micros(0.0))
            .run(&data, &workload())
            .unwrap();
        assert!(report.plan.is_empty());
        assert_eq!(report.load.loading_ratio(), 1.0);
        assert_eq!(report.queries_with_skipping(), 0);
    }

    #[test]
    fn chunking_respected() {
        let data = ndjson(100);
        let report = Pipeline::new(
            CiaoConfig::default()
                .with_budget_micros(10.0)
                .with_chunk_size(16),
        )
        .run(&data, &workload())
        .unwrap();
        assert_eq!(report.chunks, 7); // ceil(100/16)
    }

    #[test]
    fn empty_input_rejected() {
        let err = Pipeline::new(CiaoConfig::default())
            .run("", &workload())
            .unwrap_err();
        assert!(matches!(err, PipelineError::NoData));
    }

    #[test]
    fn garbage_only_input_rejected() {
        let err = Pipeline::new(CiaoConfig::default())
            .run("not json\nstill not json\n", &workload())
            .unwrap_err();
        assert!(matches!(err, PipelineError::NoData));
    }

    #[test]
    fn skipping_reported() {
        let data = ndjson(500);
        let report = Pipeline::new(CiaoConfig::default().with_budget_micros(10.0))
            .run(&data, &workload())
            .unwrap();
        assert!(report.queries_with_skipping() > 0);
        assert!(report.total_hits() > 0);
    }
}
