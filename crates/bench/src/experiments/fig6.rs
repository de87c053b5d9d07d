//! Fig. 6: the fraction of queries that benefit from data skipping on
//! the "challenging" workload (YCSB, workload C), per budget.
//!
//! The aggregated Fig. 5 plot hides the win; per-query timing shows
//! 37–68% of queries still run faster thanks to skipping. We measure
//! each query twice on the same loaded state — once through the
//! plan-aware executor (skipping) and once through an executor with an
//! empty registry (full scans) — and count the queries whose skipping
//! run was faster.

use crate::experiments::datasets::{ndjson, ExperimentScale};
use ciao::{CiaoConfig, PushdownPlan};
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_engine::Executor;
use ciao_json::RecordChunk;
use ciao_service::Shard;
use ciao_workload::{build_pool, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

/// One Fig. 6 point.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Budget (µs/record).
    pub budget: f64,
    /// Queries where the skipping run was strictly faster.
    pub benefiting: usize,
    /// Total queries.
    pub total: usize,
}

impl Fig6Row {
    /// The plotted fraction.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.benefiting as f64 / self.total as f64
        }
    }
}

/// Runs the Fig. 6 measurement.
pub fn run(scale: ExperimentScale, budgets: &[f64]) -> Vec<Fig6Row> {
    let data = ndjson(Dataset::Ycsb, scale);
    let all = RecordChunk::from_ndjson(&data);
    let pool = build_pool(Dataset::Ycsb);
    let mut cfg = WorkloadConfig::workload_c(Dataset::Ycsb, 99);
    cfg.queries = scale.queries;
    let queries = cfg.generate(&pool);

    let sample: Vec<_> = all
        .iter()
        .take(scale.sample)
        .filter_map(|r| ciao_json::parse(r).ok())
        .collect();
    let schema = Arc::new(Schema::infer(&sample).expect("schema"));
    let config = CiaoConfig::default();

    budgets
        .iter()
        .map(|&budget| {
            let plan =
                PushdownPlan::build(&queries, &sample, &config.cost_model, budget).expect("plan");
            let prefilter = plan.prefilter();
            let shard = Shard::new(Arc::new(plan), Arc::clone(&schema), config.block_size);
            for chunk in all.split(config.chunk_size) {
                shard.ingest(&chunk, &prefilter.run_chunk(&chunk));
            }
            let pin = shard.pin();

            let no_skip = Executor::default();
            let mut benefiting = 0;
            for q in &queries {
                // Interleave and repeat to be robust to timer noise at
                // this scale.
                let reps = 3;
                let mut with = f64::INFINITY;
                let mut without = f64::INFINITY;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let a = shard.scan_count(&pin, &shard.prepare(&pin, q));
                    with = with.min(t0.elapsed().as_secs_f64());
                    let t1 = Instant::now();
                    let unskipped = no_skip.prepare(q.clone(), pin.blocks(), pin.parked_count());
                    let b = no_skip.scan_count(&unskipped, pin.blocks(), pin.parked_scan());
                    without = without.min(t1.elapsed().as_secs_f64());
                    assert_eq!(a.count, b.count, "skipping changed a result");
                }
                if with < without {
                    benefiting += 1;
                }
            }
            Fig6Row {
                budget,
                benefiting,
                total: queries.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipping_benefits_some_queries() {
        let rows = run(ExperimentScale::tiny(), &[75.0]);
        assert_eq!(rows.len(), 1);
        let f = rows[0].fraction();
        assert!(
            f > 0.05,
            "at a healthy budget some queries must benefit from skipping (got {f})"
        );
    }
}
