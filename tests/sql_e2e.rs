//! Acceptance test for the SQL frontend: a grouped aggregate with
//! `WHERE`, `GROUP BY`, `ORDER BY`, and `LIMIT` over a multi-shard
//! service must be **bit-identical** to a hand-rolled full scan of the
//! raw records, while the scan metrics prove the aggregate path rode
//! the data-skipping machinery (zone-map block pruning + pushed
//! bitvector skip masks) instead of scanning everything.

use ciao::PushdownPlan;
use ciao_columnar::Schema;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::parse_query;
use ciao_service::telemetry::names;
use ciao_service::{Service, ServiceConfig};
use ciao_sql::SqlValue;
use std::collections::BTreeMap;
use std::sync::Arc;

/// 240 records, `stars` clustered in runs of 48 so each 16-row block
/// has a single-value zone range. `score` is a multiple of 0.5 — every
/// value and every partial sum is exactly representable in f64, so
/// AVG is bit-identical no matter how shards split the records.
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

#[test]
fn grouped_aggregate_over_sharded_service_is_bit_identical_and_skips() {
    let records = dataset();
    let sample: Vec<_> = records
        .iter()
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![
        parse_query("q0", "stars = 5").unwrap(),
        parse_query("q1", "active = true").unwrap(),
    ];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 30.0).unwrap();
    assert_eq!(plan.len(), 2, "both workload clauses are pushed");
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(3)
            .with_workers(0)
            .with_block_size(16),
    );
    // 48-record chunks: each chunk holds one stars value, so each
    // shard's sealed 16-row blocks get single-value zone ranges.
    for chunk in RecordChunk::from_records(&records).unwrap().split(48) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
        service.drain();
    }

    let sql = "SELECT city, COUNT(*) AS n, AVG(score) AS mean FROM t \
               WHERE stars = 5 AND active = true \
               GROUP BY city ORDER BY n DESC, city LIMIT 3";
    let got = service.query_sql(sql).unwrap();

    // Hand-rolled full-scan oracle over the raw records.
    let mut groups: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for r in &records {
        let v = ciao_json::parse(r).unwrap();
        if v.get("stars").unwrap().as_i64() != Some(5)
            || v.get("active").unwrap().as_bool() != Some(true)
        {
            continue;
        }
        let city = v.get("city").unwrap().as_str().unwrap().to_owned();
        let score = v.get("score").unwrap().as_f64().unwrap();
        let entry = groups.entry(city).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += score;
    }
    let mut expected: Vec<Vec<SqlValue>> = groups
        .into_iter()
        .map(|(city, (n, sum))| {
            vec![
                SqlValue::Str(city),
                SqlValue::Int(n),
                SqlValue::Float(sum / n as f64),
            ]
        })
        .collect();
    expected.sort_by(|a, b| a[1].cmp(&b[1]).reverse().then_with(|| a.cmp(b)));
    expected.truncate(3);
    assert!(!expected.is_empty(), "the oracle found matching groups");

    let column_names: Vec<&str> = got.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(column_names, ["city", "n", "mean"]);
    assert_eq!(got.rows, expected, "bit-identical to the full-scan oracle");

    // The aggregate path consumed the skipping machinery: pushed
    // clauses activated skip masks, zone maps pruned whole blocks,
    // and the parked store was never parsed.
    let p = &got.profile;
    assert!(p.used_skipping(), "{p:?}");
    assert!(p.blocks_pruned_zone > 0, "{p:?}");
    assert!(p.rows_skipped_zone + p.rows_skipped_mask > 0, "{p:?}");
    assert_eq!(p.parked_rows_parsed, 0, "{p:?}");

    // Per-stage latencies landed in the service telemetry.
    let snap = service.telemetry_snapshot().unwrap();
    for name in [names::SQL_PARSE_NS, names::SQL_PLAN_NS, names::SQL_EXEC_NS] {
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert_eq!(h.count, 1, "{name}");
    }
    assert!(snap.events.iter().any(|e| e.kind == names::EVENT_SQL_QUERY));
    service.shutdown();
}

#[test]
fn uncovered_sql_query_falls_back_to_full_scan() {
    let records = dataset();
    let sample: Vec<_> = records
        .iter()
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![parse_query("q0", "stars = 5").unwrap()];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 0.0).unwrap();
    assert!(plan.is_empty(), "zero budget pushes nothing");
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let service = Service::start(plan, schema, ServiceConfig::default().with_workers(0));
    for chunk in RecordChunk::from_records(&records).unwrap().split(48) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
    }
    let got = service
        .query_sql("SELECT COUNT(*) FROM t WHERE city = 'Boston'")
        .unwrap();
    assert_eq!(got.rows, vec![vec![SqlValue::Int(60)]]);
    assert!(
        !got.profile.used_skipping(),
        "nothing pushed, nothing skipped"
    );
    service.shutdown();
}
