//! Figs. 3–5: end-to-end time vs budget, per workload, per dataset —
//! plus the headline speedup numbers.
//!
//! Every point runs the production sequence on a 1-shard,
//! `workers = 0` [`Service`]: plan, client prefilter, `enqueue_wait`,
//! `drain`, [`Service::query`]. That keeps the single-core sequence
//! the paper times, on the code that serves.

use crate::experiments::datasets::{budget_sweep, ndjson, ExperimentScale, CHUNK_RECORDS};
use ciao::PushdownPlan;
use ciao_client::ClientStats;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::{JsonValue, RecordChunk};
use ciao_optimizer::CostModel;
use ciao_predicate::Query;
use ciao_service::{Service, ServiceConfig};
use ciao_workload::{build_pool, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

/// One point of a Fig. 3/4/5 series.
#[derive(Debug, Clone)]
pub struct EndToEndRow {
    /// Workload label (A/B/C).
    pub workload: char,
    /// Budget (µs/record).
    pub budget: f64,
    /// Predicates pushed at this budget.
    pub pushed: usize,
    /// Prefiltering seconds (the stacked bottom segment).
    pub prefilter_s: f64,
    /// Loading seconds.
    pub load_s: f64,
    /// Query seconds (the full workload).
    pub query_s: f64,
    /// Fraction of records loaded into columnar form.
    pub loading_ratio: f64,
    /// Queries that skipped at least one row.
    pub queries_with_skipping: usize,
}

impl EndToEndRow {
    /// Total end-to-end seconds.
    pub fn total_s(&self) -> f64 {
        self.prefilter_s + self.load_s + self.query_s
    }
}

/// Runs the Fig. 3/4/5 sweep for one dataset: workloads A/B/C × the
/// dataset's budget sweep.
pub fn run(dataset: Dataset, scale: ExperimentScale) -> Vec<EndToEndRow> {
    let data = RecordChunk::from_ndjson(&ndjson(dataset, scale));
    let sample: Vec<JsonValue> = data
        .iter()
        .take(scale.sample)
        .filter_map(|r| ciao_json::parse(r).ok())
        .collect();
    // Lenient inference: a conflicting value loads as NULL and counts
    // as a coercion failure instead of blocking ingestion.
    let schema = Arc::new(Schema::infer_lenient(&sample).expect("schema"));
    let chunks = data.split(CHUNK_RECORDS);
    let pool = build_pool(dataset);
    let mut rows = Vec::new();
    for (label, mut cfg) in WorkloadConfig::presets(dataset, 99) {
        cfg.queries = scale.queries;
        let queries = cfg.generate(&pool);
        for &budget in budget_sweep(dataset) {
            let plan = PushdownPlan::build(
                &queries,
                &sample,
                &CostModel::default_uncalibrated(),
                budget,
            )
            .expect("plan");
            rows.push(run_point(label, plan, &schema, &chunks, &queries));
        }
    }
    rows
}

/// One (workload, budget) point. The prefilter time is the client's
/// own `matching_time`, the query time the service's query histogram;
/// loading is the caller's wall time over `enqueue_wait` + `drain`,
/// since no service instrument times ingest end to end. The last
/// epoch seals inside the first statement, as it does in production.
fn run_point(
    workload: char,
    plan: PushdownPlan,
    schema: &Arc<Schema>,
    chunks: &[RecordChunk],
    queries: &[Query],
) -> EndToEndRow {
    let budget = plan.budget;
    let pushed = plan.len();
    let svc = Service::start(
        plan,
        Arc::clone(schema),
        ServiceConfig::default().with_shards(1).with_workers(0),
    );
    let prefilter = svc.prefilter();
    let mut client = ClientStats::default();
    let jobs: Vec<_> = chunks
        .iter()
        .map(|c| (c.clone(), prefilter.run_chunk_with_stats(c, &mut client)))
        .collect();

    let load_start = Instant::now();
    for (chunk, filter) in jobs {
        assert!(svc.enqueue_wait(chunk, filter).is_enqueued());
    }
    svc.drain();
    let load_s = load_start.elapsed().as_secs_f64();

    let queries_with_skipping = queries
        .iter()
        .map(|q| svc.query(q).profile)
        .filter(|p| p.used_skipping() && p.rows_skipped_zone + p.rows_skipped_mask > 0)
        .count();
    let query_ns = svc.telemetry().expect("telemetry is on").query.sum();
    let loading_ratio = svc.shutdown().load().loading_ratio();
    EndToEndRow {
        workload,
        budget,
        pushed,
        prefilter_s: client.matching_time.as_secs_f64(),
        load_s,
        query_s: query_ns as f64 * 1e-9,
        loading_ratio,
        queries_with_skipping,
    }
}

/// The paper's headline: best speedups over the zero-budget baseline
/// across all datasets/workloads ("up to 21x loading, 23x query, 19x
/// end-to-end").
#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    /// Max loading-time speedup.
    pub loading_speedup: f64,
    /// Max query-time speedup.
    pub query_speedup: f64,
    /// Max end-to-end speedup (including prefiltering cost).
    pub end_to_end_speedup: f64,
}

/// Computes headline speedups from end-to-end rows (grouped per
/// workload; budget 0 is the baseline).
pub fn headline(rows: &[EndToEndRow]) -> Headline {
    let mut h = Headline::default();
    for workload in ['A', 'B', 'C'] {
        let group: Vec<&EndToEndRow> = rows.iter().filter(|r| r.workload == workload).collect();
        let Some(base) = group.iter().find(|r| r.budget == 0.0) else {
            continue;
        };
        for r in &group {
            if r.budget == 0.0 {
                continue;
            }
            if r.load_s > 1e-9 {
                h.loading_speedup = h.loading_speedup.max(base.load_s / r.load_s);
            }
            if r.query_s > 1e-9 {
                h.query_speedup = h.query_speedup.max(base.query_s / r.query_s);
            }
            if r.total_s() > 1e-9 {
                h.end_to_end_speedup = h.end_to_end_speedup.max(base.total_s() / r.total_s());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winlog_sweep_shapes() {
        let rows = run(Dataset::WinLog, ExperimentScale::tiny());
        // 3 workloads × 6 budgets.
        assert_eq!(rows.len(), 18);

        // Baselines push nothing; positive budgets push something for
        // the skewed workloads.
        for r in rows.iter().filter(|r| r.budget == 0.0) {
            assert_eq!(r.pushed, 0);
            assert!((r.loading_ratio - 1.0).abs() < 1e-9);
        }
        let a_max: &EndToEndRow = rows
            .iter()
            .filter(|r| r.workload == 'A')
            .max_by(|x, y| x.budget.total_cmp(&y.budget))
            .unwrap();
        assert!(a_max.pushed > 0, "workload A should push predicates");

        // Workload A at max budget loads less than its baseline.
        assert!(
            a_max.loading_ratio < 1.0,
            "A should partially load (ratio {})",
            a_max.loading_ratio
        );

        // Headline speedups are positive and loading speedup > 1 for
        // this workload.
        let h = headline(&rows);
        assert!(
            h.loading_speedup > 1.0,
            "loading speedup {}",
            h.loading_speedup
        );
        assert!(h.query_speedup > 1.0, "query speedup {}", h.query_speedup);
    }
}
