//! Workspace smoke test: the quickstart example's exact path, asserted.
//!
//! Runs the full system end-to-end through a `Service` — plan the
//! pushdown, prefilter on the client, partially load, answer queries
//! with data skipping — and checks every query's count against a
//! ground-truth full scan of the raw records through typed evaluation.
//! Partial loading and skipping are optimizations; they must never
//! change an answer.

mod support;

use ciao_predicate::{eval_query, parse_query};
use ciao_service::ServiceConfig;

fn quickstart_ndjson(records: usize) -> String {
    (0..records)
        .map(|i| {
            format!(
                "{{\"level\":\"{}\",\"service\":\"svc{}\",\"latency_ms\":{}}}\n",
                match i % 20 {
                    0 => "Error",
                    1..=4 => "Warning",
                    _ => "Info",
                },
                i % 8,
                (i * 7) % 500,
            )
        })
        .collect()
}

#[test]
fn quickstart_path_end_to_end() {
    let ndjson = quickstart_ndjson(20_000);
    let queries = vec![
        parse_query("errors", r#"level = "Error""#).unwrap(),
        parse_query("errors_svc3", r#"level = "Error" AND service = "svc3""#).unwrap(),
        parse_query("warnings", r#"level = "Warning""#).unwrap(),
    ];

    let report =
        support::run_on_service(&ndjson, &queries, 1.0, 1000, 1024, ServiceConfig::default());

    // The plan actually pushed something down and loading was partial:
    // the service exercised prefilter → park → skip, not a degenerate
    // load-everything path.
    assert!(!report.plan.predicates.is_empty(), "no predicates pushed");
    assert_eq!(report.records, 20_000);
    assert!(
        report.load.loaded_records < report.records,
        "partial loading did not park anything ({} of {} loaded)",
        report.load.loaded_records,
        report.records
    );

    // Ground truth by full typed scan over every raw record.
    let records: Vec<_> = ndjson
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| ciao_json::parse(l).expect("quickstart records are valid JSON"))
        .collect();
    assert_eq!(records.len(), report.records);

    for (query, result) in queries.iter().zip(&report.outcomes) {
        let truth = records.iter().filter(|r| eval_query(query, r)).count();
        assert_eq!(
            result.count, truth,
            "query {} diverged from full-scan ground truth",
            query.name
        );
    }

    // At least one pushed-down query must have used bitvector skipping.
    assert!(
        report.outcomes.iter().any(|q| q.profile.used_skipping()),
        "no query used data skipping"
    );

    // Expected quickstart shape: 5% errors, 20% warnings.
    assert_eq!(report.outcomes[0].count, 1_000);
    assert_eq!(report.outcomes[2].count, 4_000);
}
