//! Micro-benchmarks of paper §VII-E (Figs. 7–12): sensitivity of
//! loading time, loading ratio, and per-query time to predicate
//! **selectivity**, **overlap**, and **skewness** — all on the Windows
//! System Log dataset, all with a *manually fixed* pushdown (the paper
//! pushes 2, 2, and 1 predicates respectively), so the optimizer is
//! out of the loop and the measured variable is isolated.

use crate::experiments::datasets::{ndjson, ExperimentScale, CHUNK_RECORDS};
use ciao::PushdownPlan;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::{JsonValue, RecordChunk};
use ciao_optimizer::CostModel;
use ciao_predicate::{estimate_clause_selectivity, Clause, Query, SimplePredicate};
use ciao_service::{ServiceConfig, Shard};
use ciao_workload::{predicate_counts, skewness_factor};
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one micro-benchmark configuration.
#[derive(Debug, Clone)]
pub struct MicroOutcome {
    /// Configuration label (e.g. "sel=0.35", "Hol", "Hsk").
    pub label: String,
    /// Loading seconds (the Fig. 7/9/11 bar).
    pub loading_s: f64,
    /// Loading ratio (records loaded / total).
    pub loading_ratio: f64,
    /// Per-query execution seconds, q0..q4 (the Fig. 8/10/12 bars).
    pub per_query_s: Vec<f64>,
    /// Per-query result counts (used by equivalence checks).
    pub per_query_count: Vec<usize>,
    /// Queries containing at least one pushed clause.
    pub covered_queries: usize,
    /// The paper's skewness factor for the workload.
    pub skew_factor: f64,
}

/// Shared environment for the micro-benchmarks.
pub struct MicroEnv {
    data: RecordChunk,
    sample: Vec<JsonValue>,
    schema: Arc<Schema>,
}

impl MicroEnv {
    /// Materializes the Windows-log environment at a scale.
    pub fn new(scale: ExperimentScale) -> MicroEnv {
        let text = ndjson(Dataset::WinLog, scale);
        let data = RecordChunk::from_ndjson(&text);
        let sample: Vec<JsonValue> = data
            .iter()
            .take(scale.sample)
            .filter_map(|r| ciao_json::parse(r).ok())
            .collect();
        let schema = Arc::new(Schema::infer(&sample).expect("schema"));
        MicroEnv {
            data,
            sample,
            schema,
        }
    }

    /// All `info LIKE <kw>` clauses with their estimated selectivities,
    /// ascending by selectivity.
    pub fn keyword_clauses(&self) -> Vec<(Clause, f64)> {
        let mut out: Vec<(Clause, f64)> = ciao_datagen::text::keyword_pool(200)
            .into_iter()
            .map(|kw| {
                let clause = Clause::single(SimplePredicate::StrContains {
                    key: "info".into(),
                    needle: kw,
                });
                let sel = estimate_clause_selectivity(&clause, &self.sample);
                (clause, sel)
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    /// Picks `n` distinct clauses whose selectivity is nearest
    /// `target`, preferring the closest.
    pub fn clauses_near(&self, target: f64, n: usize) -> Vec<Clause> {
        let mut pool = self.keyword_clauses();
        pool.sort_by(|a, b| (a.1 - target).abs().total_cmp(&(b.1 - target).abs()));
        pool.into_iter().take(n).map(|(c, _)| c).collect()
    }

    /// Runs one configuration: fixed pushdown + 5 queries.
    pub fn run(&self, label: &str, queries: &[Query], pushed: &[Clause]) -> MicroOutcome {
        let plan = PushdownPlan::manual(
            pushed,
            queries,
            &self.sample,
            &CostModel::default_uncalibrated(),
        );
        let covered_queries = plan
            .query_coverage
            .iter()
            .filter(|ids| !ids.is_empty())
            .count();
        let prefilter = plan.prefilter();
        let shard = Shard::new(
            Arc::new(plan),
            Arc::clone(&self.schema),
            ServiceConfig::default().block_size,
        );
        let chunks = self.data.split(CHUNK_RECORDS);
        let filters: Vec<_> = chunks.iter().map(|c| prefilter.run_chunk(c)).collect();

        let t_load = Instant::now();
        for (chunk, filter) in chunks.iter().zip(&filters) {
            shard.ingest(chunk, filter);
        }
        shard.seal_epoch();
        let loading_s = t_load.elapsed().as_secs_f64();

        let mut per_query_s = Vec::with_capacity(queries.len());
        let mut per_query_count = Vec::with_capacity(queries.len());
        for q in queries {
            let mut best = f64::INFINITY;
            let mut count = 0;
            for _ in 0..3 {
                let t = Instant::now();
                let out = shard.execute(q);
                best = best.min(t.elapsed().as_secs_f64());
                count = out.count;
            }
            per_query_s.push(best);
            per_query_count.push(count);
        }

        MicroOutcome {
            label: label.to_owned(),
            loading_s,
            loading_ratio: shard.snapshot().load.loading_ratio(),
            per_query_s,
            per_query_count,
            covered_queries,
            skew_factor: skewness_factor(&predicate_counts(queries)),
        }
    }
}

/// Figs. 7 & 8: three workloads at target selectivities 0.35 / 0.15 /
/// 0.01; 5 queries × 3 conjunctive predicates; 2 predicates pushed and
/// arranged to cover every query.
pub fn selectivity_sweep(env: &MicroEnv) -> Vec<MicroOutcome> {
    [0.35, 0.15, 0.01]
        .iter()
        .map(|&target| {
            // 12 clauses near the target: 2 pushed + 10 fillers.
            let picked = env.clauses_near(target, 12);
            let pushed = &picked[..2];
            let queries: Vec<Query> = (0..5)
                .map(|i| {
                    Query::new(
                        format!("q{i}"),
                        vec![
                            pushed[i % 2].clone(),
                            picked[2 + 2 * i].clone(),
                            picked[3 + 2 * i].clone(),
                        ],
                    )
                })
                .collect();
            env.run(&format!("sel={target}"), &queries, pushed)
        })
        .collect()
}

/// Figs. 9 & 10: overlap workloads Lol/Mol/Hol — queries with 1, 2,
/// and 4 conjunctive predicates respectively; 2 predicates pushed.
pub fn overlap_sweep(env: &MicroEnv) -> Vec<MicroOutcome> {
    // A pool of moderately selective predicates so conjunction effects
    // are visible.
    let picked = env.clauses_near(0.15, 12);
    let pushed = &picked[..2];

    let lol: Vec<Query> = (0..5)
        .map(|i| Query::new(format!("q{i}"), vec![picked[i].clone()]))
        .collect();
    let mol: Vec<Query> = (0..5)
        .map(|i| {
            Query::new(
                format!("q{i}"),
                vec![picked[i].clone(), picked[(i + 1) % 5].clone()],
            )
        })
        .collect();
    let hol: Vec<Query> = (0..5)
        .map(|i| {
            Query::new(
                format!("q{i}"),
                vec![
                    picked[0].clone(),
                    picked[1].clone(),
                    picked[2 + 2 * i].clone(),
                    picked[3 + 2 * i].clone(),
                ],
            )
        })
        .collect();

    vec![
        env.run("Lol", &lol, pushed),
        env.run("Mol", &mol, pushed),
        env.run("Hol", &hol, pushed),
    ]
}

/// Figs. 11 & 12: skewness workloads Lsk/Msk/Hsk — 5 queries × 2
/// predicates; 1 predicate pushed; the hot predicate appears in 1, 3,
/// and 5 queries respectively.
pub fn skewness_sweep(env: &MicroEnv) -> Vec<MicroOutcome> {
    let picked = env.clauses_near(0.2, 11);
    let hot = &picked[0];
    let extras = &picked[1..];
    let pushed = std::slice::from_ref(hot);

    // Lsk: hot appears once; every other slot distinct.
    let lsk: Vec<Query> = (0..5)
        .map(|i| {
            let clauses = if i == 0 {
                vec![hot.clone(), extras[0].clone()]
            } else {
                vec![extras[2 * i - 1].clone(), extras[2 * i].clone()]
            };
            Query::new(format!("q{i}"), clauses)
        })
        .collect();
    // Msk: hot in q0..q2.
    let msk: Vec<Query> = (0..5)
        .map(|i| {
            let clauses = if i < 3 {
                vec![hot.clone(), extras[i].clone()]
            } else {
                vec![extras[2 * i - 3].clone(), extras[2 * i - 2].clone()]
            };
            Query::new(format!("q{i}"), clauses)
        })
        .collect();
    // Hsk: hot in every query.
    let hsk: Vec<Query> = (0..5)
        .map(|i| Query::new(format!("q{i}"), vec![hot.clone(), extras[i].clone()]))
        .collect();

    vec![
        env.run("Lsk", &lsk, pushed),
        env.run("Msk", &msk, pushed),
        env.run("Hsk", &hsk, pushed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> MicroEnv {
        MicroEnv::new(ExperimentScale::tiny())
    }

    #[test]
    fn selectivity_controls_loading_ratio() {
        let env = env();
        let rows = selectivity_sweep(&env);
        assert_eq!(rows.len(), 3);
        // Every configuration covers all 5 queries, so partial loading
        // engages everywhere.
        for r in &rows {
            assert_eq!(r.covered_queries, 5, "{}", r.label);
            assert!(
                r.loading_ratio < 1.0,
                "{}: ratio {}",
                r.label,
                r.loading_ratio
            );
        }
        // Lower selectivity → lower loading ratio (paper Fig. 7).
        assert!(
            rows[0].loading_ratio > rows[1].loading_ratio
                && rows[1].loading_ratio > rows[2].loading_ratio,
            "ratios: {} {} {}",
            rows[0].loading_ratio,
            rows[1].loading_ratio,
            rows[2].loading_ratio
        );
    }

    #[test]
    fn overlap_controls_partial_loading() {
        let env = env();
        let rows = overlap_sweep(&env);
        // Lol/Mol leave uncovered queries → full loading; Hol covers
        // everything → drastic drop (paper Fig. 9).
        assert!((rows[0].loading_ratio - 1.0).abs() < 1e-9, "Lol loads all");
        assert!((rows[1].loading_ratio - 1.0).abs() < 1e-9, "Mol loads all");
        assert!(
            rows[2].loading_ratio < 0.5,
            "Hol ratio {}",
            rows[2].loading_ratio
        );
        // Coverage counts mirror the paper's narrative.
        assert_eq!(rows[0].covered_queries, 2);
        assert_eq!(rows[1].covered_queries, 3);
        assert_eq!(rows[2].covered_queries, 5);
    }

    #[test]
    fn skewness_controls_coverage() {
        let env = env();
        let rows = skewness_sweep(&env);
        assert_eq!(rows[0].covered_queries, 1);
        assert_eq!(rows[1].covered_queries, 3);
        assert_eq!(rows[2].covered_queries, 5);
        // Lsk's counts are perfectly uniform → factor exactly 0.
        assert_eq!(rows[0].skew_factor, 0.0);
        assert!(
            rows[2].skew_factor > 1.0,
            "Hsk factor {}",
            rows[2].skew_factor
        );
        // Only Hsk partially loads (paper Fig. 11).
        assert!((rows[0].loading_ratio - 1.0).abs() < 1e-9);
        assert!((rows[1].loading_ratio - 1.0).abs() < 1e-9);
        assert!(
            rows[2].loading_ratio < 1.0,
            "Hsk ratio {}",
            rows[2].loading_ratio
        );
    }
}
