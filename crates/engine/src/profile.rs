//! Per-query execution profiles: attributable, mergeable evidence of
//! what the data-skipping machinery did for *one* statement.
//!
//! A [`QueryProfile`] is the only record of what a statement's scan
//! did, split into the stories EXPLAIN ANALYZE and the service's
//! workload collector need: blocks pruned by zone maps vs. blocks whose
//! pushed skip-mask was all-zero, rows skipped by each mechanism, the
//! parked-record scan, and a per-WHERE-clause hit/selectivity counter
//! pair. Every block row lands in exactly one of `rows_scanned`,
//! `rows_skipped_zone` and `rows_skipped_mask`. Profiles merge across
//! shards exactly like [`crate::PartialResult`]s (counters add, clauses
//! combine positionally).

use crate::scan::BlockTally;

/// Observed behavior of one WHERE clause during a plan execution.
///
/// `rows_evaluated` counts rows on which this clause actually ran —
/// under conjunctive short-circuiting a clause is only reached when
/// every earlier clause passed, so later clauses see a pre-filtered
/// stream and their selectivity is *conditional* on clause order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseProfile {
    /// The clause's canonical text (`ciao_predicate::Clause` display
    /// form, e.g. `stars = 5` or `(city = "a" OR city = "b")`).
    pub text: String,
    /// Whether the clause rode a pushed client bitvector.
    pub pushed: bool,
    /// Rows the clause was evaluated on (table + parked fallback).
    pub rows_evaluated: u64,
    /// Rows that passed the clause.
    pub rows_passed: u64,
}

impl ClauseProfile {
    /// Observed selectivity (`rows_passed / rows_evaluated`), `None`
    /// until the clause has been evaluated at least once.
    pub fn selectivity(&self) -> Option<f64> {
        (self.rows_evaluated > 0).then(|| self.rows_passed as f64 / self.rows_evaluated as f64)
    }

    /// Adds another shard's counters for the same clause.
    pub fn merge(&mut self, other: &ClauseProfile) {
        debug_assert_eq!(
            self.text, other.text,
            "merging profiles of different clauses"
        );
        self.pushed |= other.pushed;
        self.rows_evaluated += other.rows_evaluated;
        self.rows_passed += other.rows_passed;
    }
}

/// Per-stage and per-block execution stats for one plan execution.
///
/// Started by `PreparedScan::profile` and filled in by
/// `Executor::scan_plan` as part of the partial result; shards'
/// profiles merge into the query-wide profile the same way their
/// partials do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Sealed blocks considered (pruned + visited).
    pub blocks_total: u64,
    /// Blocks skipped wholesale by zone maps (never opened).
    pub blocks_pruned_zone: u64,
    /// Visited blocks whose fused skip-mask was all-zero — opened, but
    /// not a single row was fed to the operator.
    pub blocks_pruned_mask: u64,
    /// Rows inside zone-pruned blocks.
    pub rows_skipped_zone: u64,
    /// Rows skipped by skip-mask zero bits inside visited blocks.
    pub rows_skipped_mask: u64,
    /// Columnar rows actually fed to predicate evaluation.
    pub rows_scanned: u64,
    /// Columnar rows that satisfied every clause.
    pub rows_matched: u64,
    /// Parked raw records the fallback went through, malformed ones
    /// included (0 when routing skipped the parked side).
    pub parked_rows_parsed: u64,
    /// Parked rows that satisfied every clause.
    pub parked_rows_matched: u64,
    /// Distinct top-level fields that scan built per record: the WHERE
    /// clauses' keys plus the operator's columns (0 if it did not run).
    pub parked_fields_projected: u64,
    /// One entry per WHERE clause, in plan order.
    pub clauses: Vec<ClauseProfile>,
}

impl QueryProfile {
    /// Total rows matched across both sides (the answer's cardinality
    /// before grouping/limit).
    pub fn total_matched(&self) -> u64 {
        self.rows_matched + self.parked_rows_matched
    }

    /// Whether ≥1 clause rode a pushed bitvector, so a skip-mask ran.
    pub fn used_skipping(&self) -> bool {
        self.clauses.iter().any(|c| c.pushed)
    }

    /// Adds what the block-scan driver did to one block: rows scanned
    /// and matched, and each clause's evaluations and passes.
    pub fn add_block(&mut self, tally: &BlockTally<'_>) {
        self.rows_scanned += tally.scanned as u64;
        self.rows_matched += tally.selected.len() as u64;
        for (clause, counts) in self.clauses.iter_mut().zip(tally.clauses) {
            clause.rows_evaluated += counts.evaluated;
            clause.rows_passed += counts.passed;
        }
    }

    /// Folds another shard's profile in: counters add, clauses merge
    /// positionally (both sides ran the same plan). An empty clause
    /// list (the merge identity) adopts the other side's clauses.
    pub fn merge(&mut self, other: &QueryProfile) {
        self.blocks_total += other.blocks_total;
        self.blocks_pruned_zone += other.blocks_pruned_zone;
        self.blocks_pruned_mask += other.blocks_pruned_mask;
        self.rows_skipped_zone += other.rows_skipped_zone;
        self.rows_skipped_mask += other.rows_skipped_mask;
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.parked_rows_parsed += other.parked_rows_parsed;
        self.parked_rows_matched += other.parked_rows_matched;
        // Per record, and the same on every shard that scanned.
        self.parked_fields_projected = self
            .parked_fields_projected
            .max(other.parked_fields_projected);
        if self.clauses.is_empty() {
            self.clauses = other.clauses.clone();
        } else if !other.clauses.is_empty() {
            debug_assert_eq!(self.clauses.len(), other.clauses.len());
            for (cur, inc) in self.clauses.iter_mut().zip(&other.clauses) {
                cur.merge(inc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(text: &str, evaluated: u64, passed: u64) -> ClauseProfile {
        ClauseProfile {
            text: text.to_owned(),
            pushed: false,
            rows_evaluated: evaluated,
            rows_passed: passed,
        }
    }

    #[test]
    fn selectivity_is_passed_over_evaluated() {
        assert_eq!(clause("a = 1", 0, 0).selectivity(), None);
        assert_eq!(clause("a = 1", 10, 4).selectivity(), Some(0.4));
    }

    #[test]
    fn merge_adds_counters_and_combines_clauses_positionally() {
        let mut a = QueryProfile {
            blocks_total: 3,
            blocks_pruned_zone: 1,
            rows_skipped_zone: 16,
            rows_scanned: 20,
            rows_matched: 5,
            clauses: vec![clause("a = 1", 20, 5)],
            ..QueryProfile::default()
        };
        let b = QueryProfile {
            blocks_total: 2,
            rows_scanned: 10,
            rows_matched: 2,
            parked_rows_parsed: 7,
            parked_rows_matched: 1,
            clauses: vec![clause("a = 1", 17, 7)],
            ..QueryProfile::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks_total, 5);
        assert_eq!(a.rows_scanned, 30);
        assert_eq!(a.total_matched(), 8);
        assert_eq!(a.clauses[0].rows_evaluated, 37);
        assert_eq!(a.clauses[0].rows_passed, 12);

        // The merge identity adopts the other side's clause list.
        let mut identity = QueryProfile::default();
        identity.merge(&a);
        assert_eq!(identity, a);

        // One shard whose clause rode a skip-mask makes the merge one
        // that used skipping.
        assert!(!a.used_skipping());
        let pushed = QueryProfile {
            clauses: vec![ClauseProfile {
                pushed: true,
                ..clause("a = 1", 0, 0)
            }],
            ..QueryProfile::default()
        };
        a.merge(&pushed);
        assert!(a.used_skipping());
    }
}
