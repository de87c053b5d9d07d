//! Acceptance tests for the query profiler: the numbers `EXPLAIN
//! ANALYZE` renders must restate the statement's
//! [`QueryProfile`](ciao_engine::QueryProfile), which must agree with
//! what is known without the engine — the rows the service's
//! [`ServiceMetrics`](ciao_service::ServiceMetrics) hold and the
//! full-scan answer — and the
//! [`WorkloadStats`](ciao_service::WorkloadStats) selectivity EWMAs
//! must converge to ground-truth selectivity on a fixed workload.

use ciao::PushdownPlan;
use ciao_columnar::Schema;
use ciao_engine::QueryResult;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::{eval_query, parse_query};
use ciao_service::{Service, ServiceConfig};
use ciao_sql::SqlValue;
use std::sync::Arc;
use std::time::Duration;

/// Same deterministic 240-record shape as the SQL e2e suite: `stars`
/// clustered in runs of 48 (tight zone ranges per 16-row block),
/// `city` cycling through four values in every block.
fn dataset() -> Vec<String> {
    (0..240)
        .map(|i| {
            format!(
                r#"{{"id":{},"stars":{},"score":{},"city":"{}","active":{}}}"#,
                i,
                i / 48 + 1,
                (i % 20) as f64 * 0.5,
                ["Amsterdam", "Boston", "Chicago", "Denver"][i % 4],
                i % 3 == 0,
            )
        })
        .collect()
}

fn start_service(records: &[String], budget: f64, shards: usize) -> Service {
    let sample: Vec<_> = records
        .iter()
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![
        parse_query("q0", "stars = 5").unwrap(),
        parse_query("q1", "active = true").unwrap(),
    ];
    let plan = PushdownPlan::build(
        &queries,
        &sample,
        &CostModel::default_uncalibrated(),
        budget,
    )
    .unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(shards)
            .with_workers(0)
            .with_block_size(16)
            .with_slow_query_threshold(Duration::ZERO),
    );
    for chunk in RecordChunk::from_records(records).unwrap().split(48) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
        service.drain();
    }
    service
}

/// Unwraps a `plan:str` result into its rendered lines.
fn plan_lines(result: &QueryResult) -> Vec<String> {
    assert_eq!(result.columns.len(), 1);
    assert_eq!(result.columns[0].name, "plan");
    result
        .rows
        .iter()
        .map(|row| match &row[0] {
            SqlValue::Str(s) => s.clone(),
            other => panic!("plan rows are strings, got {other:?}"),
        })
        .collect()
}

/// Extracts `key=<u64>` from a rendered annotation line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no `{key}=` in {line:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad `{key}` in {line:?}: {e}"))
}

#[test]
fn explain_analyze_restates_the_profile_and_agrees_with_the_service() {
    let records = dataset();
    let service = start_service(&records, 30.0, 3);
    let stmt = "SELECT city, COUNT(*) AS n FROM t \
                WHERE stars = 5 AND active = true \
                GROUP BY city ORDER BY n DESC, city";

    let selected = service.query_sql(stmt).unwrap();
    let analyzed = service
        .query_sql(&format!("EXPLAIN ANALYZE {stmt}"))
        .unwrap();

    // Same statement, same data: the ANALYZE run's carried profile is
    // identical to the plain run's.
    assert_eq!(analyzed.profile, selected.profile);

    // The profile agrees with facts known without the engine: every
    // columnar row the service holds was scanned or skipped exactly
    // once; the pushed WHERE rules the parked records out, so none was
    // read; and the matches are the full-scan answer.
    let p = &analyzed.profile;
    let sm = service.metrics();
    assert!(sm.parked() > 0, "the parked side holds records");
    let held: usize = sm.shards.iter().map(|s| s.rows).sum();
    assert_eq!(
        p.rows_scanned + p.rows_skipped_zone + p.rows_skipped_mask,
        held as u64
    );
    assert_eq!(p.parked_rows_parsed, 0);
    let query = parse_query("q", "stars = 5 AND active = true").unwrap();
    let truth = records
        .iter()
        .filter(|r| eval_query(&query, &ciao_json::parse(r).unwrap()))
        .count();
    assert_eq!(p.total_matched(), truth as u64);

    // The rendered numbers are the profile, re-read from the text.
    let lines = plan_lines(&analyzed);
    let blocks = lines
        .iter()
        .find(|l| l.starts_with("blocks:"))
        .expect("blocks line");
    assert_eq!(field(blocks, "total"), p.blocks_total);
    assert_eq!(field(blocks, "pruned_zone"), p.blocks_pruned_zone);
    assert_eq!(field(blocks, "pruned_mask"), p.blocks_pruned_mask);
    assert_eq!(
        field(blocks, "visited"),
        p.blocks_total - p.blocks_pruned_zone
    );
    let rows = lines
        .iter()
        .find(|l| l.starts_with("rows:"))
        .expect("rows line");
    assert_eq!(field(rows, "scanned"), p.rows_scanned);
    assert_eq!(field(rows, "skipped_zone"), p.rows_skipped_zone);
    assert_eq!(field(rows, "skipped_mask"), p.rows_skipped_mask);
    let parked = lines
        .iter()
        .find(|l| l.starts_with("parked fallback:"))
        .expect("parked line");
    assert_eq!(field(parked, "parsed"), p.parked_rows_parsed);
    assert_eq!(field(parked, "matched"), p.parked_rows_matched);
    let matched = lines
        .iter()
        .find(|l| l.starts_with("rows matched:"))
        .expect("matched line");
    assert_eq!(
        matched.strip_prefix("rows matched: ").unwrap(),
        analyzed.profile.total_matched().to_string()
    );
    // Every per-clause line restates its profile entry, selectivity
    // included (rendered at 3 decimals from passed/evaluated).
    for clause in &analyzed.profile.clauses {
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("clause {}:", clause.text)))
            .unwrap_or_else(|| panic!("no line for clause {}", clause.text));
        assert_eq!(field(line, "evaluated"), clause.rows_evaluated);
        assert_eq!(field(line, "passed"), clause.rows_passed);
        let rendered_sel = line.split("selectivity=").nth(1).unwrap();
        let expected_sel = clause
            .selectivity()
            .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.3}"));
        assert_eq!(rendered_sel, expected_sel);
        assert!(clause.pushed, "both clauses ride pushed bitvectors");
    }

    // Service-level accounting agrees: the plain SELECT and the
    // ANALYZE both executed (plain EXPLAIN would not), and both landed
    // in the zero-threshold slow-query log with the same row counts.
    assert_eq!(sm.queries, 2);
    assert_eq!(sm.slow_queries, 2);
    let slow = service.slow_queries();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].rows_matched, analyzed.profile.total_matched());
    assert_eq!(slow[0].rows_returned, selected.rows.len());
    assert_eq!(slow[1].rows_matched, slow[0].rows_matched);

    // The span tree from the ANALYZE run covers all three shards and
    // exports to Chrome trace JSON.
    let trace = service.last_query_trace().expect("trace recorded");
    let names: Vec<&str> = trace.spans().iter().map(|s| s.name()).collect();
    for required in [
        "query_sql",
        "parse",
        "plan",
        "execute",
        "shard0",
        "shard1",
        "shard2",
    ] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    // The execute span says how the shards were dispatched and on how
    // many surviving rows that was decided; with no workers every
    // shard ran on the statement's own lane.
    let execute = trace
        .spans()
        .iter()
        .find(|s| s.name() == "execute")
        .expect("execute span");
    let attr = |key: &str| {
        execute
            .attrs()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(
        attr("dispatch"),
        Some(ciao_telemetry::AttrValue::Str("inline".to_owned()))
    );
    assert_eq!(
        attr("surviving_rows"),
        Some(ciao_telemetry::AttrValue::Int(
            analyzed.profile.rows_scanned as i64
        )),
        "a covered statement's survivors are exactly the rows it scanned"
    );
    for span in trace
        .spans()
        .iter()
        .filter(|s| s.name().starts_with("shard"))
    {
        assert_eq!(span.track(), 0, "{} ran on the caller", span.name());
    }
    assert!(trace.to_chrome_trace().starts_with("{\"traceEvents\":["));
    service.shutdown();
}

#[test]
fn workload_selectivity_ewma_converges_to_ground_truth() {
    let records = dataset();
    // Zero budget: nothing pushed, everything loaded columnar — each
    // query full-scans, so observed per-clause selectivity IS the
    // data's ground-truth selectivity.
    let service = start_service(&records, 0.0, 1);
    let stmt = r#"SELECT COUNT(*) FROM t WHERE city = "Boston""#;
    for _ in 0..20 {
        let result = service.query_sql(stmt).unwrap();
        assert_eq!(result.rows, vec![vec![SqlValue::Int(60)]]);
    }

    let matching = records
        .iter()
        .filter(|r| r.contains(r#""city":"Boston""#))
        .count();
    let truth = matching as f64 / records.len() as f64;
    assert_eq!(truth, 0.25, "fixed-seed dataset: 60 of 240 in Boston");

    let w = service.workload_stats();
    assert_eq!(w.queries, 20);
    let c = w.clause(r#"city = "Boston""#).expect("clause tracked");
    assert_eq!(c.queries_seen, 20);
    assert_eq!(c.observations, 20);
    assert!(!c.pushed);
    let sel = c.selectivity_ewma.unwrap();
    assert!(
        (sel - truth).abs() < 1e-9,
        "EWMA converged to ground truth {truth}, got {sel}"
    );
    assert!((c.frequency_ewma - 1.0).abs() < 1e-9);

    // Five queries without the clause decay its frequency EWMA by the
    // default alpha (0.2) each step: 0.8^5.
    for _ in 0..5 {
        service
            .query_sql("SELECT COUNT(*) FROM t WHERE stars = 5")
            .unwrap();
    }
    let w = service.workload_stats();
    let c = w.clause(r#"city = "Boston""#).unwrap();
    assert!(
        (c.frequency_ewma - 0.8f64.powi(5)).abs() < 1e-9,
        "frequency decayed to {}",
        c.frequency_ewma
    );
    assert!(
        (c.selectivity_ewma.unwrap() - truth).abs() < 1e-9,
        "absence does not touch selectivity"
    );
    service.shutdown();
}
