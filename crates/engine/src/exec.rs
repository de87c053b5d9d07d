//! The executor: route a query across the columnar and parked sides.

use crate::metrics::QueryMetrics;
use crate::raw_scan::scan_raw_records;
use crate::scan::{scan_count, ScanOptions};
use ciao_columnar::Table;
use ciao_predicate::{Clause, Query};
use std::collections::HashMap;
use std::time::Instant;

/// The result of one `COUNT(*)` execution.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// The count.
    pub count: usize,
    /// Detailed counters and timing.
    pub metrics: QueryMetrics,
}

impl QueryOutcome {
    /// Merges a per-shard outcome into this one: counts add, metrics
    /// merge per [`QueryMetrics::merge`]. A multi-shard service folds
    /// shard outcomes into [`QueryOutcome::default`] to answer as if
    /// one server held all the data.
    pub fn merge(&mut self, other: &QueryOutcome) {
        self.count += other.count;
        self.metrics.merge(&other.metrics);
    }
}

/// Executes count queries against a (columnar table, parked raw
/// records) pair, given the server's pushed-predicate registry.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    /// Pushed clause → predicate id (the server's predicate hashmap,
    /// paper §VI).
    pushed: HashMap<Clause, u32>,
}

impl Executor {
    /// Creates an executor with the pushed-predicate registry.
    pub fn new(pushed: impl IntoIterator<Item = (Clause, u32)>) -> Executor {
        Executor {
            pushed: pushed.into_iter().collect(),
        }
    }

    /// The registry size.
    pub fn pushed_count(&self) -> usize {
        self.pushed.len()
    }

    /// Whether this exact clause is in the pushed-predicate registry.
    pub fn is_pushed(&self, clause: &Clause) -> bool {
        self.pushed.contains_key(clause)
    }

    /// Ids of the query's clauses that were pushed down.
    pub fn pushed_ids_for(&self, query: &Query) -> Vec<u32> {
        let mut ids: Vec<u32> = query
            .clauses
            .iter()
            .filter_map(|c| self.pushed.get(c).copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Executes `SELECT COUNT(*) WHERE query` over the table plus the
    /// parked raw records.
    ///
    /// Routing per paper §VI-B:
    /// * query has ≥1 pushed clause → scan only the columnar side with
    ///   the pushed bitvectors as a skip mask (no parked record can
    ///   satisfy a pushed clause, so the parked side contributes 0);
    /// * no pushed clause → full columnar scan **plus** projected scan
    ///   of every parked record.
    pub fn execute_count<S: AsRef<str>>(
        &self,
        table: &Table,
        parked: &[S],
        query: &Query,
    ) -> QueryOutcome {
        let start = Instant::now();
        let pushed_ids = self.pushed_ids_for(query);
        let mut metrics = QueryMetrics::default();

        // Zone maps are always sound, so both paths enable them.
        if pushed_ids.is_empty() {
            metrics.table_scan = scan_count(table, query, &ScanOptions::full().with_zone_maps());
            metrics.table_scan_time = start.elapsed();
            let raw_start = Instant::now();
            metrics.raw_scan = scan_raw_records(parked, query);
            metrics.raw_scan_time = raw_start.elapsed();
            metrics.scanned_parked = true;
            metrics.used_skipping = false;
        } else {
            metrics.table_scan = scan_count(
                table,
                query,
                &ScanOptions::skipping(pushed_ids).with_zone_maps(),
            );
            metrics.table_scan_time = start.elapsed();
            metrics.scanned_parked = false;
            metrics.used_skipping = true;
        }

        metrics.elapsed = start.elapsed();
        QueryOutcome {
            count: metrics.total_matched(),
            metrics,
        }
    }

    /// Executes `SELECT * WHERE query`, materializing matching records
    /// from both sides with the same routing as
    /// [`Executor::execute_count`].
    pub fn execute_select<S: AsRef<str>>(
        &self,
        table: &Table,
        parked: &[S],
        query: &Query,
    ) -> (Vec<ciao_json::JsonValue>, QueryMetrics) {
        use crate::select::{select_from_raw, select_from_table};
        let start = Instant::now();
        let pushed_ids = self.pushed_ids_for(query);
        let mut metrics = QueryMetrics::default();
        let mut records;
        if pushed_ids.is_empty() {
            let t = select_from_table(table, query, &ScanOptions::full().with_zone_maps());
            metrics.table_scan_time = start.elapsed();
            let raw_start = Instant::now();
            let r = select_from_raw(parked, query);
            metrics.raw_scan_time = raw_start.elapsed();
            metrics.table_scan = t.metrics;
            metrics.raw_scan = r.metrics;
            metrics.scanned_parked = true;
            records = t.records;
            records.extend(r.records);
        } else {
            let t = select_from_table(
                table,
                query,
                &ScanOptions::skipping(pushed_ids).with_zone_maps(),
            );
            metrics.table_scan_time = start.elapsed();
            metrics.table_scan = t.metrics;
            metrics.used_skipping = true;
            records = t.records;
        }
        metrics.elapsed = start.elapsed();
        (records, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_columnar::{Schema, TableBuilder};
    use ciao_json::{parse, JsonValue};
    use ciao_predicate::{parse_clause, parse_query};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Environment mimicking a partial load: records with stars = 5
    /// were admitted into the table (their predicate-1 bits exact);
    /// everything else was parked as raw JSON.
    struct Env {
        table: ciao_columnar::Table,
        parked: Vec<String>,
        exec: Executor,
    }

    fn env() -> Env {
        let all: Vec<JsonValue> = (0..50)
            .map(|i| parse(&format!(r#"{{"name":"u{}","stars":{}}}"#, i, i % 5 + 1)).unwrap())
            .collect();
        let schema = Arc::new(Schema::infer(&all).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[1], 8);
        let mut parked = Vec::new();
        for rec in &all {
            let stars = rec.get("stars").unwrap().as_i64().unwrap();
            if stars == 5 {
                tb.push_record(rec, &BTreeMap::from([(1, true)]));
            } else {
                parked.push(ciao_json::to_string(rec));
            }
        }
        let exec = Executor::new([(parse_clause("stars = 5").unwrap(), 1)]);
        Env {
            table: tb.finish(),
            parked,
            exec,
        }
    }

    #[test]
    fn covered_query_skips_parked_side() {
        let e = env();
        let q = parse_query("q", "stars = 5").unwrap();
        let out = e.exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 10);
        assert!(out.metrics.used_skipping);
        assert!(!out.metrics.scanned_parked);
        assert_eq!(out.metrics.raw_scan.records_parsed, 0);
        // No fallback ran, so no fallback time was spent.
        assert_eq!(out.metrics.raw_scan_time, std::time::Duration::ZERO);
        assert!(out.metrics.table_scan_time <= out.metrics.elapsed);
    }

    #[test]
    fn uncovered_query_scans_both_sides() {
        let e = env();
        let q = parse_query("q", "stars = 3").unwrap();
        let out = e.exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 10); // all stars=3 records are parked
        assert!(!out.metrics.used_skipping);
        assert!(out.metrics.scanned_parked);
        assert_eq!(out.metrics.raw_scan.records_parsed, 40);
        assert_eq!(out.metrics.raw_scan.rows_matched, 10);
        assert_eq!(out.metrics.table_scan.rows_matched, 0);
        // The parked-record fallback is timed separately.
        assert!(out.metrics.raw_scan_time > std::time::Duration::ZERO);
    }

    #[test]
    fn covered_conjunction_uses_all_pushed_ids() {
        let e = env();
        let q = parse_query("q", r#"stars = 5 AND name = "u4""#).unwrap();
        let ids = e.exec.pushed_ids_for(&q);
        assert_eq!(ids, vec![1]); // only the stars clause is pushed
        let out = e.exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 1);
        assert!(out.metrics.used_skipping);
    }

    #[test]
    fn executor_equivalence_with_ground_truth() {
        // For any query, CIAO's answer must equal a naive scan over all
        // 50 original records.
        let e = env();
        for text in [
            "stars = 5",
            "stars = 2",
            r#"name = "u7""#,
            "stars = 5 AND stars = 5",
        ] {
            let q = parse_query("q", text).unwrap();
            let truth = (0..50)
                .filter(|i| {
                    let rec =
                        parse(&format!(r#"{{"name":"u{}","stars":{}}}"#, i, i % 5 + 1)).unwrap();
                    ciao_predicate::eval_query(&q, &rec)
                })
                .count();
            let out = e.exec.execute_count(&e.table, &e.parked, &q);
            assert_eq!(out.count, truth, "divergence on {text}");
        }
    }

    #[test]
    fn empty_registry_always_scans_everything() {
        let e = env();
        let exec = Executor::default();
        assert_eq!(exec.pushed_count(), 0);
        let q = parse_query("q", "stars = 5").unwrap();
        let out = exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 10);
        assert!(out.metrics.scanned_parked);
    }

    #[test]
    fn duplicate_pushed_clauses_dedup() {
        let e = env();
        let q = parse_query("q", "stars = 5 AND stars = 5").unwrap();
        assert_eq!(e.exec.pushed_ids_for(&q), vec![1]);
    }

    #[test]
    fn sharded_outcomes_merge_to_the_unsharded_answer() {
        // Split the environment's 50 records across two "shards" and
        // check that merged per-shard outcomes equal the one-server run.
        let e = env();
        let q = parse_query("q", "stars = 3").unwrap();
        let whole = e.exec.execute_count(&e.table, &e.parked, &q);

        let (left, right) = e.parked.split_at(e.parked.len() / 2);
        let mut merged = QueryOutcome::default();
        merged.merge(&e.exec.execute_count(&e.table, left, &q));
        merged.merge(
            &e.exec
                .execute_count(&ciao_columnar::Table::default(), right, &q),
        );
        assert_eq!(merged.count, whole.count);
        assert_eq!(
            merged.metrics.raw_scan.records_parsed,
            whole.metrics.raw_scan.records_parsed
        );
        assert!(merged.metrics.scanned_parked);
    }

    #[test]
    fn select_matches_count_on_both_paths() {
        let e = env();
        for text in ["stars = 5", "stars = 3", r#"name = "u7""#] {
            let q = parse_query("q", text).unwrap();
            let count = e.exec.execute_count(&e.table, &e.parked, &q);
            let (records, metrics) = e.exec.execute_select(&e.table, &e.parked, &q);
            assert_eq!(
                records.len(),
                count.count,
                "select/count diverged on {text}"
            );
            assert_eq!(metrics.total_matched(), count.count);
            // Every returned record genuinely satisfies the query.
            for r in &records {
                assert!(ciao_predicate::eval_query(&q, r));
            }
        }
    }
}
