//! Beyond the paper: the SQL frontend over the sharded service.
//!
//! Runs a battery of `SELECT` statements (projections, aggregates,
//! `GROUP BY`, `ORDER BY`, `LIMIT`) twice over the same YCSB records:
//! once on a multi-shard service with a real pushdown plan, once on a
//! single-shard zero-budget service that loads everything columnar —
//! the full-scan oracle. Answers must be bit-identical; the covered
//! statements additionally show the data-skipping machinery (pruned
//! blocks, skipped rows) working on the aggregate path, and the
//! per-stage parse/plan/exec latencies come straight from the
//! service's own telemetry histograms.

use super::datasets::ExperimentScale;
use ciao::PushdownPlan;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_predicate::parse_query;
use ciao_service::{Service, ServiceConfig};
use std::sync::Arc;

/// One SQL statement's measured execution on the pushdown service.
#[derive(Debug, Clone)]
pub struct SqlRow {
    /// The statement text.
    pub statement: String,
    /// Result rows returned.
    pub rows: usize,
    /// Whether ≥1 `WHERE` clause rode a pushed bitvector skip mask.
    pub covered: bool,
    /// Columnar blocks skipped wholesale by zone maps.
    pub blocks_pruned: u64,
    /// Rows skipped (pruned blocks + skip-mask zeros).
    pub rows_skipped: u64,
    /// End-to-end execution time (fan-out + merge + finalize), ms.
    pub exec_ms: f64,
    /// Whether columns and rows match the full-scan oracle exactly.
    pub matches_oracle: bool,
}

/// The battery's outcome: per-statement rows plus the pushdown
/// service's per-stage latency medians (µs).
#[derive(Debug, Clone)]
pub struct SqlReport {
    /// One row per statement, in battery order.
    pub rows: Vec<SqlRow>,
    /// Median lex+parse time.
    pub parse_p50_us: f64,
    /// Median analyze+plan time.
    pub plan_p50_us: f64,
    /// Median plan execution time.
    pub exec_p50_us: f64,
}

/// The SQL battery. The first statements hit pushed clauses
/// (`isActive = true`, `age_group = "senior" AND isActive = true`,
/// `phone_country = "+44"`, `linear_score = 42` are the plan's query
/// workload); the rest exercise uncovered scans, grouping, ordering,
/// and limits.
pub fn statements() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) FROM ycsb WHERE isActive = true",
        "SELECT COUNT(*), AVG(linear_score) FROM ycsb WHERE isActive = true",
        "SELECT COUNT(*) FROM ycsb WHERE age_group = 'senior' AND isActive = true",
        "SELECT COUNT(*) FROM ycsb WHERE linear_score = 42",
        "SELECT age_group, COUNT(*) AS n, AVG(linear_score) \
         FROM ycsb WHERE isActive = true GROUP BY age_group ORDER BY n DESC",
        "SELECT phone_country, MIN(linear_score), MAX(linear_score) \
         FROM ycsb GROUP BY phone_country ORDER BY phone_country",
        "SELECT age_group, SUM(weighted_score) \
         FROM ycsb WHERE phone_country = '+44' GROUP BY age_group ORDER BY age_group",
        "SELECT age_group, linear_score FROM ycsb WHERE linear_score = 42 \
         ORDER BY age_group, linear_score LIMIT 10",
    ]
}

fn start_service(plan: PushdownPlan, ndjson: &str, shards: usize) -> Service {
    let schema = {
        let sample: Vec<_> = ndjson
            .lines()
            .take(2_000)
            .map(|r| ciao_json::parse(r).unwrap())
            .collect();
        Arc::new(ciao_columnar::Schema::infer(&sample).unwrap())
    };
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(shards)
            .with_workers(shards)
            .with_queue_capacity(64),
    );
    for chunk in RecordChunk::from_ndjson(ndjson).split(1024) {
        let filter = service.prefilter().run_chunk(&chunk);
        assert!(service.enqueue_wait(chunk, filter).is_enqueued());
    }
    service.drain();
    service
}

/// Runs the battery at the given scale on a `shards`-shard pushdown
/// service vs the single-shard zero-budget oracle.
pub fn run(scale: ExperimentScale, shards: usize) -> SqlReport {
    let sample = Dataset::Ycsb.generate(11, scale.sample);
    let ndjson = Dataset::Ycsb.generate_ndjson(12, scale.records);
    let queries = vec![
        parse_query("q0", "isActive = true").unwrap(),
        parse_query("q1", r#"age_group = "senior" AND isActive = true"#).unwrap(),
        parse_query("q2", r#"phone_country = "+44""#).unwrap(),
        parse_query("q3", "linear_score = 42").unwrap(),
    ];
    let cost = ciao_optimizer::CostModel::default_uncalibrated();
    let pushed_plan = PushdownPlan::build(&queries, &sample, &cost, 30.0).unwrap();
    let oracle_plan = PushdownPlan::build(&queries, &sample, &cost, 0.0).unwrap();
    assert!(oracle_plan.is_empty(), "zero budget pushes nothing");

    let service = start_service(pushed_plan, &ndjson, shards);
    let oracle = start_service(oracle_plan, &ndjson, 1);

    let mut rows = Vec::new();
    for stmt in statements() {
        let expected = oracle.query_sql(stmt).expect("oracle executes battery");
        let got = service.query_sql(stmt).expect("service executes battery");
        rows.push(SqlRow {
            statement: stmt.to_owned(),
            rows: got.rows.len(),
            covered: got.profile.used_skipping(),
            blocks_pruned: got.profile.blocks_pruned_zone,
            rows_skipped: got.profile.rows_skipped_zone + got.profile.rows_skipped_mask,
            exec_ms: got.elapsed.as_secs_f64() * 1e3,
            matches_oracle: got.columns == expected.columns && got.rows == expected.rows,
        });
    }

    let t = service.telemetry().expect("telemetry on by default");
    let report = SqlReport {
        rows,
        parse_p50_us: t.sql_parse.p50() as f64 / 1e3,
        plan_p50_us: t.sql_plan.p50() as f64 / 1e3,
        exec_p50_us: t.sql_exec.p50() as f64 / 1e3,
    };
    service.shutdown();
    oracle.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_matches_full_scan_oracle() {
        let report = run(ExperimentScale::tiny(), 2);
        assert_eq!(report.rows.len(), statements().len());
        for row in &report.rows {
            assert!(row.matches_oracle, "diverged from oracle: {row:?}");
        }
        // The workload statements ride pushed clauses and skip rows.
        assert!(report.rows[0].covered, "{:?}", report.rows[0]);
        assert!(report.rows[0].rows_skipped > 0, "{:?}", report.rows[0]);
        // Ungrouped aggregates return one row; the LIMIT caps at 10.
        assert_eq!(report.rows[0].rows, 1);
        assert!(report.rows[7].rows <= 10);
        assert!(report.exec_p50_us > 0.0);
    }
}
