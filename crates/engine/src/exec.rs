//! The executor: route a query across the columnar and parked sides.

use crate::plan_exec::{count_plan, finalize};
use crate::profile::QueryProfile;
use crate::raw_scan::ParkedFragment;
use crate::result::QueryResult;
use crate::scan::{PreparedScan, ScanOptions};
use ciao_columnar::{Block, Table};
use ciao_predicate::{Clause, Query};
use ciao_sql::SqlValue;
use std::collections::HashMap;
use std::time::Duration;

/// The result of one `COUNT(*)` execution.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// The count.
    pub count: usize,
    /// What the scan did.
    pub profile: QueryProfile,
    /// Wall time, as [`QueryResult::elapsed`].
    pub elapsed: Duration,
}

impl QueryOutcome {
    /// Reads a finalized [`count_plan`] result: its one count, its
    /// profile and its wall time.
    pub fn from_count(result: QueryResult) -> QueryOutcome {
        let count = match result.rows.first().map(Vec::as_slice) {
            Some([SqlValue::Int(n)]) => *n as usize,
            other => panic!("not a COUNT(*) result: {other:?}"),
        };
        QueryOutcome {
            count,
            profile: result.profile,
            elapsed: result.elapsed,
        }
    }
}

/// Executes count queries against a (columnar table, parked raw
/// records) pair, given the server's pushed-predicate registry.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    /// Pushed clause → predicate id (the server's predicate hashmap,
    /// paper §VI).
    pushed: HashMap<Clause, u32>,
    /// Pushed-id sets no parked record passes as a whole: a query whose
    /// pushed ids contain one skips the parked side. Minimal,
    /// deduplicated, each sorted ([`Executor::with_coverage`]).
    parked_excludes: Vec<Vec<u32>>,
}

impl Executor {
    /// Creates an executor with the pushed-predicate registry, over
    /// parked records that fail every pushed clause: any pushed clause
    /// then rules the parked side out. [`Executor::with_coverage`]
    /// narrows that to the loader's per-query admission.
    pub fn new(pushed: impl IntoIterator<Item = (Clause, u32)>) -> Executor {
        Executor {
            pushed: pushed.into_iter().collect(),
            parked_excludes: vec![Vec::new()],
        }
    }

    /// Routes the parked side by the plan's per-query coverage (each
    /// workload query's pushed ids), the rule the loader parked by: a
    /// record is parked when it fails some pushed clause of *every*
    /// workload query, so only a query whose pushed ids contain one
    /// workload query's whole set may skip the parked side. Coverage
    /// with an uncovered query (or none at all) parks only malformed
    /// records, so there any pushed clause still suffices.
    pub fn with_coverage(mut self, coverage: &[Vec<u32>]) -> Executor {
        let mut sets = coverage.to_vec();
        for set in &mut sets {
            set.sort_unstable();
            set.dedup();
        }
        // Shortest first: a set containing one already kept (a
        // duplicate included) rules out nothing more.
        sets.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        self.parked_excludes.clear();
        for set in sets {
            if !self
                .parked_excludes
                .iter()
                .any(|kept| kept.iter().all(|id| set.contains(id)))
            {
                self.parked_excludes.push(set);
            }
        }
        if self.parked_excludes.is_empty() {
            self.parked_excludes.push(Vec::new());
        }
        self
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
    fn pushed_ids_for(&self, query: &Query) -> Vec<u32> {
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
    /// ride pushed bitvectors, whether the parked side is read, and per
    /// block the zone-prune, the fused skip-mask and its popcount
    /// ([`PreparedScan`]).
    ///
    /// Routing per paper §VI-B, under the loader's admission rule:
    /// * every pushed clause of the query ANDs its block bitvectors
    ///   into the skip mask;
    /// * the parked side is skipped when the query's pushed ids contain
    ///   a whole set of [`Executor::with_coverage`] (no parked record
    ///   passes those clauses, so it contributes 0); otherwise every
    ///   one of the `parked_rows` parked records gets the projected
    ///   scan.
    ///
    /// Zone maps are always sound, so both sides enable them. The
    /// matching [`Executor::scan_plan`] must be given the same blocks
    /// in the same order.
    pub fn prepare<'a>(
        &self,
        query: Query,
        blocks: impl IntoIterator<Item = &'a Block>,
        parked_rows: usize,
    ) -> Prepared {
        let pushed_ids = self.pushed_ids_for(&query);
        let scan_parked = pushed_ids.is_empty()
            || !self
                .parked_excludes
                .iter()
                .any(|set| set.iter().all(|id| pushed_ids.contains(id)));
        let options = ScanOptions::skipping(pushed_ids).with_zone_maps();
        let scan = PreparedScan::new(blocks, &query, &options);
        Prepared {
            query,
            scan,
            scan_parked,
            parked_rows: if scan_parked { parked_rows } else { 0 },
        }
    }

    /// Executes `SELECT COUNT(*) WHERE query` over the table plus the
    /// parked raw records: [`Executor::prepare`], then
    /// [`Executor::scan_plan`] of the [`count_plan`]. A one-off scan:
    /// the records get no positional map.
    pub fn execute_count<S: AsRef<str>>(
        &self,
        table: &Table,
        parked: &[S],
        query: &Query,
    ) -> QueryOutcome {
        let prepared = self.prepare(query.clone(), table.blocks(), parked.len());
        let plan = count_plan();
        let partial = self.scan_plan(
            &prepared,
            table.blocks(),
            [ParkedFragment::unindexed(parked)],
            &plan,
        );
        QueryOutcome::from_count(finalize(&plan, partial))
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
    /// Whether the parked side is scanned ([`Executor::prepare`]).
    pub(crate) scan_parked: bool,
    parked_rows: usize,
}

impl Prepared {
    /// Rows the scan will evaluate: block rows left by zone maps and
    /// skip-masks, plus every parked record when the parked side must
    /// be scanned. Known before a column is touched.
    pub fn surviving_rows(&self) -> usize {
        self.scan.surviving_rows + self.parked_rows
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
        assert!(out.profile.used_skipping());
        assert_eq!(out.profile.parked_rows_parsed, 0);
        // Only the 10 rows the skip-mask left were evaluated.
        assert_eq!(out.profile.rows_scanned, 10);
    }

    #[test]
    fn uncovered_query_scans_both_sides() {
        let e = env();
        let q = parse_query("q", "stars = 3").unwrap();
        let out = e.exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 10); // all stars=3 records are parked
        assert!(!out.profile.used_skipping());
        assert_eq!(out.profile.parked_rows_parsed, 40);
        assert_eq!(out.profile.parked_rows_matched, 10);
        assert_eq!(out.profile.rows_matched, 0);
    }

    #[test]
    fn covered_conjunction_uses_all_pushed_ids() {
        let e = env();
        let q = parse_query("q", r#"stars = 5 AND name = "u4""#).unwrap();
        let ids = e.exec.pushed_ids_for(&q);
        assert_eq!(ids, vec![1]); // only the stars clause is pushed
        let out = e.exec.execute_count(&e.table, &e.parked, &q);
        assert_eq!(out.count, 1);
        assert!(out.profile.used_skipping());
    }

    #[test]
    fn part_of_a_workload_conjunction_still_scans_parked() {
        // One workload query, `stars = 5 AND name = "u4"`, both clauses
        // pushed: the loader parks a record failing either, so `stars =
        // 5` alone must read the parked side; the whole query need not.
        let e = env();
        let exec = Executor::new([
            (parse_clause("stars = 5").unwrap(), 1),
            (parse_clause(r#"name = "u4""#).unwrap(), 2),
        ])
        .with_coverage(&[vec![2, 1]]);
        let part = exec.execute_count(&e.table, &e.parked, &parse_query("q", "stars = 5").unwrap());
        assert_eq!(part.count, 10);
        assert!(part.profile.used_skipping());
        assert_eq!(part.profile.parked_rows_parsed, 40);
        let whole = parse_query("q", r#"name = "u4" AND stars = 5"#).unwrap();
        let whole = exec.execute_count(&e.table, &e.parked, &whole);
        assert_eq!(whole.count, 1);
        assert!(whole.profile.used_skipping());
        assert_eq!(whole.profile.parked_rows_parsed, 0);
    }

    #[test]
    fn coverage_keeps_the_minimal_sets() {
        let exec =
            Executor::default().with_coverage(&[vec![3, 1], vec![1, 3, 4], vec![1, 3], vec![2]]);
        assert_eq!(exec.parked_excludes, [vec![2], vec![1, 3]]);
        // An uncovered workload query (or no workload) parks only
        // malformed records: any pushed clause rules them out.
        let any: [Vec<u32>; 1] = [vec![]];
        assert_eq!(
            Executor::default()
                .with_coverage(&[vec![1], vec![]])
                .parked_excludes,
            any
        );
        assert_eq!(Executor::default().with_coverage(&[]).parked_excludes, any);
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
        assert_eq!(out.profile.parked_rows_parsed, 40);
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
        let plan = count_plan();
        let shard = |table: &Table, parked: &[String]| {
            let prepared = e.exec.prepare(q.clone(), table.blocks(), parked.len());
            let parked = [ParkedFragment::unindexed(parked)];
            e.exec.scan_plan(&prepared, table.blocks(), parked, &plan)
        };
        let mut merged = shard(&e.table, left);
        merged.merge(shard(&Table::default(), right));
        let merged = QueryOutcome::from_count(finalize(&plan, merged));
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.profile, whole.profile);
    }
}
