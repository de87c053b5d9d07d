//! The executor: route a query across the columnar and parked sides.

use crate::metrics::QueryMetrics;
use crate::raw_scan::scan_parked;
use crate::scan::{count_survivors, PreparedScan, ScanOptions};
use ciao_columnar::{Block, Table};
use ciao_predicate::{Clause, Query};
use std::collections::HashMap;
use std::time::{Duration, Instant};

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

    /// Decides everything about one execution that can be decided
    /// before a column or a parked record is touched: which clauses
    /// ride pushed bitvectors, and per block the zone-prune, the fused
    /// skip-mask and its popcount ([`PreparedScan`]).
    ///
    /// Routing per paper §VI-B:
    /// * query has ≥1 pushed clause → scan only the columnar side with
    ///   the pushed bitvectors as a skip mask (no parked record can
    ///   satisfy a pushed clause, so the parked side contributes 0);
    /// * no pushed clause → full columnar scan **plus** projected scan
    ///   of every one of the `parked_rows` parked records.
    ///
    /// Zone maps are always sound, so both paths enable them. The
    /// matching `scan_*` call must be given the same blocks in the
    /// same order.
    pub fn prepare<'a>(
        &self,
        query: Query,
        blocks: impl IntoIterator<Item = &'a Block>,
        parked_rows: usize,
    ) -> Prepared {
        let start = Instant::now();
        let pushed_ids = self.pushed_ids_for(&query);
        let skipping = !pushed_ids.is_empty();
        let options = ScanOptions::skipping(pushed_ids).with_zone_maps();
        let scan = PreparedScan::new(blocks, &query, &options);
        Prepared {
            query,
            scan,
            skipping,
            parked_rows: if skipping { 0 } else { parked_rows },
            prepared_in: start.elapsed(),
        }
    }

    /// Counts the rows a [`Prepared`] execution left standing.
    pub fn scan_count<'a, P>(
        &self,
        prepared: &Prepared,
        blocks: impl IntoIterator<Item = &'a Block>,
        parked: P,
    ) -> QueryOutcome
    where
        P: IntoIterator,
        P::Item: AsRef<str>,
    {
        let start = Instant::now();
        let mut metrics = prepared.metrics();
        metrics.table_scan = count_survivors(blocks, &prepared.scan, &prepared.query);
        metrics.table_scan_time += start.elapsed();
        if !prepared.skipping {
            let raw_start = Instant::now();
            metrics.raw_scan = scan_parked(parked, &prepared.query.clauses, &[], |_, _| {}).metrics;
            metrics.raw_scan_time = raw_start.elapsed();
        }
        metrics.elapsed += start.elapsed();
        QueryOutcome {
            count: metrics.total_matched(),
            metrics,
        }
    }

    /// Executes `SELECT COUNT(*) WHERE query` over the table plus the
    /// parked raw records: [`Executor::prepare`], then
    /// [`Executor::scan_count`].
    pub fn execute_count<S: AsRef<str>>(
        &self,
        table: &Table,
        parked: &[S],
        query: &Query,
    ) -> QueryOutcome {
        let prepared = self.prepare(query.clone(), table.blocks(), parked.len());
        self.scan_count(&prepared, table.blocks(), parked)
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
        use crate::select::{select_from_raw, select_survivors};
        let prepared = self.prepare(query.clone(), table.blocks(), parked.len());
        let start = Instant::now();
        let mut metrics = prepared.metrics();
        let t = select_survivors(table.blocks(), &prepared.scan, query);
        metrics.table_scan = t.metrics;
        metrics.table_scan_time += start.elapsed();
        let mut records = t.records;
        if !prepared.skipping {
            let raw_start = Instant::now();
            let r = select_from_raw(parked, query);
            metrics.raw_scan_time = raw_start.elapsed();
            metrics.raw_scan = r.metrics;
            records.extend(r.records);
        }
        metrics.elapsed += start.elapsed();
        (records, metrics)
    }
}

/// One execution after [`Executor::prepare`]: the lowered query, the
/// routing decision, and what survives of each block. Owns everything
/// it needs (no borrow of the blocks), so a prepared scan can be
/// handed to another thread together with the data it was prepared
/// over.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) query: Query,
    pub(crate) scan: PreparedScan,
    /// Whether ≥1 clause rides a pushed bitvector (and the parked side
    /// is therefore skipped).
    pub(crate) skipping: bool,
    parked_rows: usize,
    prepared_in: Duration,
}

impl Prepared {
    /// Rows the scan will evaluate: block rows left by zone maps and
    /// skip-masks, plus every parked record when the parked side must
    /// be scanned. Known before a column is touched.
    pub fn surviving_rows(&self) -> usize {
        self.scan.surviving_rows + self.parked_rows
    }

    /// The accounting a scan starts from: routing flags set, the
    /// preparation's time already on the clock.
    pub(crate) fn metrics(&self) -> QueryMetrics {
        QueryMetrics {
            used_skipping: self.skipping,
            scanned_parked: !self.skipping,
            elapsed: self.prepared_in,
            table_scan_time: self.prepared_in,
            ..QueryMetrics::default()
        }
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
