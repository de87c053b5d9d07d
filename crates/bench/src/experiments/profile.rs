//! Beyond the paper: the query profiler end to end.
//!
//! Runs an `EXPLAIN ANALYZE` battery over the SQL statements on a
//! sharded YCSB pushdown service and reports what the profiler saw:
//! per-statement block pruning and row skipping straight from the
//! rendered analyze annotations' backing profile, the service's
//! [`WorkloadStats`](ciao_service::WorkloadStats) clause EWMAs after the battery, the slow-query
//! log (threshold zero here, so every statement lands), and the last
//! query's span tree exported as Chrome `trace_event` JSON — written
//! to disk and parsed back to prove the export is well-formed.

use super::datasets::ExperimentScale;
use ciao::PushdownPlan;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_predicate::parse_query;
use ciao_service::{Service, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Env var overriding where the Chrome trace JSON is written.
pub const TRACE_PATH_ENV: &str = "CIAO_TRACE_JSON";

/// Default Chrome trace output path, relative to the working
/// directory (scratch output, not a committed trajectory).
pub const DEFAULT_TRACE_PATH: &str = "profile.trace.json";

/// One `EXPLAIN ANALYZE` statement's profile, read back from the
/// carried [`QueryProfile`](ciao_engine::QueryProfile).
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// The SELECT being analyzed (without the `EXPLAIN ANALYZE`).
    pub statement: String,
    /// Rows the statement matched before grouping/limits.
    pub rows_matched: u64,
    /// Columnar blocks the scan considered.
    pub blocks_total: u64,
    /// Blocks skipped wholesale by zone maps.
    pub blocks_pruned: u64,
    /// Rows skipped (zone-pruned blocks + skip-mask zeros).
    pub rows_skipped: u64,
    /// Parked raw records parsed by the fallback scan.
    pub parked_parsed: u64,
    /// `WHERE` clauses the profiler tracked for this statement.
    pub clauses: usize,
    /// End-to-end execution time, ms.
    pub exec_ms: f64,
}

/// One clause's workload statistics after the battery.
#[derive(Debug, Clone)]
pub struct ClauseRow {
    /// The clause text, as `EXPLAIN` renders it.
    pub text: String,
    /// Whether it ever rode a pushed bitvector.
    pub pushed: bool,
    /// Queries that contained it.
    pub queries_seen: u64,
    /// Frequency EWMA (fraction of recent queries containing it).
    pub frequency: f64,
    /// Selectivity EWMA over its evaluated rows, if ever observed.
    pub selectivity: Option<f64>,
}

/// The profiler battery's outcome.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// One row per analyzed statement, in battery order.
    pub rows: Vec<ProfileRow>,
    /// The workload collector's per-clause EWMAs after the battery.
    pub clauses: Vec<ClauseRow>,
    /// Entries in the slow-query log (threshold zero: every query).
    pub slow_queries: usize,
    /// Spans in the last query's trace (root + stages + shards).
    pub trace_spans: usize,
    /// Events in the written Chrome trace, counted by parsing the
    /// file back.
    pub trace_events: usize,
    /// Where the Chrome trace JSON landed.
    pub trace_path: PathBuf,
}

/// The Chrome trace output path: `$CIAO_TRACE_JSON` or
/// [`DEFAULT_TRACE_PATH`], relative to the working directory.
pub fn trace_output_path() -> PathBuf {
    std::env::var_os(TRACE_PATH_ENV)
        .map_or_else(|| PathBuf::from(DEFAULT_TRACE_PATH), PathBuf::from)
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
            .with_queue_capacity(64)
            // Zero threshold: the battery is the workload under test,
            // so every statement should land in the slow-query log.
            .with_slow_query_threshold(Duration::ZERO),
    );
    for chunk in RecordChunk::from_ndjson(ndjson).split(1024) {
        let filter = service.prefilter().run_chunk(&chunk);
        assert!(service.enqueue_wait(chunk, filter).is_enqueued());
    }
    service.drain();
    service
}

/// Writes `trace` to `path` and parses it back, returning the number
/// of `traceEvents`. Panics if the export is not valid JSON of the
/// Chrome `trace_event` shape — that is the point of the round trip.
pub fn write_and_validate_trace(trace: &ciao_telemetry::SpanTree, path: &PathBuf) -> usize {
    let json = trace.to_chrome_trace();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let parsed = ciao_json::parse(&json).expect("chrome trace export is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("chrome trace has a traceEvents array");
    assert!(
        events.iter().all(|e| e.has_key("name")
            && e.has_key("ph")
            && e.has_key("ts")
            && e.has_key("pid")
            && e.has_key("tid")),
        "every trace event carries name/ph/ts/pid/tid"
    );
    events.len()
}

/// Runs the `EXPLAIN ANALYZE` battery at the given scale on a
/// `shards`-shard pushdown service, then collects the profiler's
/// surfaces and writes the Chrome trace to [`trace_output_path`].
pub fn run(scale: ExperimentScale, shards: usize) -> ProfileReport {
    run_with_trace_path(scale, shards, trace_output_path())
}

/// [`run`] with an explicit trace destination (tests pass a temp path
/// instead of mutating the environment).
pub fn run_with_trace_path(
    scale: ExperimentScale,
    shards: usize,
    trace_path: PathBuf,
) -> ProfileReport {
    let sample = Dataset::Ycsb.generate(11, scale.sample);
    let ndjson = Dataset::Ycsb.generate_ndjson(12, scale.records);
    let queries = vec![
        parse_query("q0", "isActive = true").unwrap(),
        parse_query("q1", r#"age_group = "senior" AND isActive = true"#).unwrap(),
        parse_query("q2", r#"phone_country = "+44""#).unwrap(),
        parse_query("q3", "linear_score = 42").unwrap(),
    ];
    let cost = ciao_optimizer::CostModel::default_uncalibrated();
    let plan = PushdownPlan::build(&queries, &sample, &cost, 30.0).unwrap();
    let service = start_service(plan, &ndjson, shards);

    let mut rows = Vec::new();
    for stmt in super::sql::statements() {
        let analyzed = service
            .query_sql(&format!("EXPLAIN ANALYZE {stmt}"))
            .expect("battery statement analyzes");
        let p = &analyzed.profile;
        rows.push(ProfileRow {
            statement: stmt.to_owned(),
            rows_matched: p.total_matched(),
            blocks_total: p.blocks_total,
            blocks_pruned: p.blocks_pruned_zone + p.blocks_pruned_mask,
            rows_skipped: p.rows_skipped_zone + p.rows_skipped_mask,
            parked_parsed: p.parked_rows_parsed,
            clauses: p.clauses.len(),
            exec_ms: analyzed.metrics.elapsed.as_secs_f64() * 1e3,
        });
    }

    let workload = service.workload_stats();
    let clauses = workload
        .clauses()
        .iter()
        .map(|c| ClauseRow {
            text: c.text.clone(),
            pushed: c.pushed,
            queries_seen: c.queries_seen,
            frequency: c.frequency_ewma,
            selectivity: c.selectivity_ewma,
        })
        .collect();

    let trace = service
        .last_query_trace()
        .expect("telemetry on: every query leaves a trace");
    let trace_events = write_and_validate_trace(&trace, &trace_path);

    let report = ProfileReport {
        rows,
        clauses,
        slow_queries: service.slow_queries().len(),
        trace_spans: trace.spans().len(),
        trace_events,
        trace_path,
    };
    service.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_profiles_and_trace_round_trips() {
        let dir = std::env::temp_dir().join("ciao-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report =
            run_with_trace_path(ExperimentScale::tiny(), 2, dir.join("battery.trace.json"));

        assert_eq!(report.rows.len(), super::super::sql::statements().len());
        // The covered statements prune blocks and skip rows; every
        // statement's profile tracked at least its own clauses.
        assert!(report.rows[0].rows_skipped > 0, "{:?}", report.rows[0]);
        assert!(report.rows.iter().all(|r| r.blocks_total > 0));
        // Workload stats saw every battery statement; the pushed
        // clauses are marked as such.
        assert!(report.clauses.iter().any(|c| c.pushed));
        assert!(report.clauses.iter().all(|c| c.queries_seen > 0));
        // Zero threshold: the whole battery landed in the slow log.
        assert_eq!(report.slow_queries, report.rows.len());
        // The trace export wrote real spans and parsed back.
        assert!(report.trace_spans >= 4, "root + parse + plan + execute");
        assert_eq!(report.trace_events, report.trace_spans);
        std::fs::remove_file(&report.trace_path).ok();
    }
}
