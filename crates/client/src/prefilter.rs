//! Chunk-level prefiltering: raw records in, bitvectors out.
//!
//! Since the hot-path rework, the chunk loop evaluates **all**
//! predicates in one pass per record via a compiled
//! [`PatternSet`] instead of one
//! haystack traversal per predicate. The per-needle loop survives as
//! [`Prefilter::run_chunk_scalar`] — the differential-test oracle and
//! the benchmark baseline.

use crate::pattern_set::PatternSet;
use crate::raw_eval::CompiledClause;
use crate::stats::ClientStats;
use ciao_bitvec::BitVec;
use ciao_json::RecordChunk;
use ciao_predicate::ClausePattern;
use std::time::{Duration, Instant};

/// A pushed-down predicate as the client sees it: a server-assigned id
/// plus compiled pattern strings.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    /// Server-assigned predicate id (indexes the bitvector set).
    pub id: u32,
    clause: CompiledClause,
}

impl CompiledPredicate {
    /// Compiles the clause pattern shipped by the server.
    pub fn new(id: u32, pattern: &ClausePattern) -> CompiledPredicate {
        CompiledPredicate {
            id,
            clause: CompiledClause::new(pattern),
        }
    }

    /// Evaluates against one raw record.
    #[inline]
    pub fn is_match(&self, record: &[u8]) -> bool {
        self.clause.is_match(record)
    }

    /// Total pattern bytes (for cost accounting).
    pub fn pattern_len(&self) -> usize {
        self.clause.pattern_len()
    }
}

/// The result of prefiltering one chunk: one bitvector per predicate,
/// aligned with the prefilter's predicate order.
#[derive(Debug, Clone)]
pub struct ChunkFilterResult {
    /// Predicate ids, parallel to `bitvecs`.
    pub predicate_ids: Vec<u32>,
    /// `bitvecs[i].bit(r)` ⇔ record `r` may satisfy predicate `i`.
    pub bitvecs: Vec<BitVec>,
    /// Records evaluated.
    pub records: usize,
    /// Wall-clock time spent matching.
    pub elapsed: Duration,
}

impl ChunkFilterResult {
    /// The bitvector for a predicate id, if that predicate was pushed.
    pub fn bitvec_for(&self, id: u32) -> Option<&BitVec> {
        self.predicate_ids
            .iter()
            .position(|&p| p == id)
            .map(|i| &self.bitvecs[i])
    }

    /// OR of all bitvectors — the partial-loading admission mask
    /// (paper §VI-A: load a record iff it is valid for ≥1 predicate).
    /// `None` when no predicates were pushed (then everything loads).
    pub fn admission_mask(&self) -> Option<BitVec> {
        let refs: Vec<&BitVec> = self.bitvecs.iter().collect();
        BitVec::union_all(&refs)
    }

    /// Mean matching cost per record in microseconds.
    pub fn micros_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e6 / self.records as f64
        }
    }
}

/// Evaluates a fixed set of pushed predicates over raw chunks.
#[derive(Debug, Clone, Default)]
pub struct Prefilter {
    predicates: Vec<CompiledPredicate>,
    /// All clauses compiled for one-pass batched evaluation; order
    /// matches `predicates`.
    set: PatternSet,
}

impl Prefilter {
    /// Builds a prefilter from `(id, pattern)` pairs.
    pub fn new(predicates: impl IntoIterator<Item = (u32, ClausePattern)>) -> Prefilter {
        let pairs: Vec<(u32, ClausePattern)> = predicates.into_iter().collect();
        let set = PatternSet::new(pairs.iter().map(|(_, p)| p));
        Prefilter {
            predicates: pairs
                .iter()
                .map(|(id, p)| CompiledPredicate::new(*id, p))
                .collect(),
            set,
        }
    }

    /// Builds a prefilter straight from predicate clauses — e.g. the
    /// `WHERE` clauses of a compiled SQL plan — compiling each to its
    /// pattern form. Clauses with no compilable pattern (none exist
    /// today) are skipped rather than pushed as always-false.
    pub fn for_clauses<'a>(
        clauses: impl IntoIterator<Item = (u32, &'a ciao_predicate::Clause)>,
    ) -> Prefilter {
        Prefilter::new(
            clauses
                .into_iter()
                .filter_map(|(id, c)| ciao_predicate::compile_clause(c).map(|p| (id, p))),
        )
    }

    /// Number of pushed predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// The compiled predicates in evaluation order.
    pub fn predicates(&self) -> &[CompiledPredicate] {
        &self.predicates
    }

    /// Evaluates every predicate on every record of `chunk`.
    pub fn run_chunk(&self, chunk: &RecordChunk) -> ChunkFilterResult {
        self.run_chunk_with_stats(chunk, &mut ClientStats::default())
    }

    /// Like [`Prefilter::run_chunk`], also accumulating counters.
    ///
    /// One pass per record: the compiled [`PatternSet`] answers every
    /// predicate from a single traversal instead of `P` of them.
    pub fn run_chunk_with_stats(
        &self,
        chunk: &RecordChunk,
        stats: &mut ClientStats,
    ) -> ChunkFilterResult {
        let start = Instant::now();
        let n = chunk.len();
        let mut bitvecs: Vec<BitVec> = self.predicates.iter().map(|_| BitVec::zeros(n)).collect();
        let mut matched = Vec::with_capacity(self.predicates.len());
        for (r, record) in chunk.iter().enumerate() {
            self.set.eval_into(record.as_bytes(), &mut matched);
            for (p, &hit) in matched.iter().enumerate() {
                if hit {
                    bitvecs[p].set(r, true);
                }
            }
        }
        let elapsed = start.elapsed();
        self.finish_result(bitvecs, n, elapsed, stats)
    }

    /// The pre-batching reference: one haystack traversal per
    /// predicate. Kept as the differential-test oracle and the
    /// benchmark baseline for the one-pass path.
    pub fn run_chunk_scalar(&self, chunk: &RecordChunk) -> ChunkFilterResult {
        let start = Instant::now();
        let n = chunk.len();
        let mut bitvecs: Vec<BitVec> = self.predicates.iter().map(|_| BitVec::zeros(n)).collect();
        for (r, record) in chunk.iter().enumerate() {
            let bytes = record.as_bytes();
            for (p, pred) in self.predicates.iter().enumerate() {
                if pred.is_match(bytes) {
                    bitvecs[p].set(r, true);
                }
            }
        }
        let elapsed = start.elapsed();
        self.finish_result(bitvecs, n, elapsed, &mut ClientStats::default())
    }

    fn finish_result(
        &self,
        bitvecs: Vec<BitVec>,
        records: usize,
        elapsed: Duration,
        stats: &mut ClientStats,
    ) -> ChunkFilterResult {
        stats.record_chunk(records, self.predicates.len(), elapsed);
        for (p, bv) in bitvecs.iter().enumerate() {
            stats.record_matches(self.predicates[p].id, bv.count_ones());
        }
        ChunkFilterResult {
            predicate_ids: self.predicates.iter().map(|p| p.id).collect(),
            bitvecs,
            records,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_predicate::{compile_clause, parse_clause};

    fn pattern(text: &str) -> ClausePattern {
        compile_clause(&parse_clause(text).unwrap()).unwrap()
    }

    fn chunk() -> RecordChunk {
        RecordChunk::from_records(&[
            r#"{"name":"Bob","stars":5}"#,
            r#"{"name":"Alice","stars":3}"#,
            r#"{"name":"John","stars":5}"#,
            r#"{"name":"Carol","stars":1}"#,
        ])
        .unwrap()
    }

    #[test]
    fn produces_one_bitvec_per_predicate() {
        let pf = Prefilter::new([(7, pattern(r#"name = "Bob""#)), (9, pattern("stars = 5"))]);
        let res = pf.run_chunk(&chunk());
        assert_eq!(res.predicate_ids, vec![7, 9]);
        assert_eq!(res.records, 4);
        assert_eq!(res.bitvecs.len(), 2);
        assert_eq!(res.bitvecs[0].ones_positions(), vec![0]);
        assert_eq!(res.bitvecs[1].ones_positions(), vec![0, 2]);
    }

    #[test]
    fn bitvec_for_lookup() {
        let pf = Prefilter::new([(7, pattern(r#"name = "Bob""#))]);
        let res = pf.run_chunk(&chunk());
        assert!(res.bitvec_for(7).is_some());
        assert!(res.bitvec_for(8).is_none());
    }

    #[test]
    fn admission_mask_is_union() {
        let pf = Prefilter::new([(0, pattern(r#"name = "Bob""#)), (1, pattern("stars = 1"))]);
        let res = pf.run_chunk(&chunk());
        let mask = res.admission_mask().unwrap();
        assert_eq!(mask.ones_positions(), vec![0, 3]);
    }

    #[test]
    fn no_predicates_means_no_mask() {
        let pf = Prefilter::new([]);
        let res = pf.run_chunk(&chunk());
        assert!(res.admission_mask().is_none());
        assert_eq!(res.bitvecs.len(), 0);
    }

    #[test]
    fn empty_chunk() {
        let pf = Prefilter::new([(0, pattern("stars = 5"))]);
        let res = pf.run_chunk(&RecordChunk::from_ndjson(""));
        assert_eq!(res.records, 0);
        assert_eq!(res.bitvecs[0].len(), 0);
        assert_eq!(res.micros_per_record(), 0.0);
    }

    #[test]
    fn disjunction_predicate() {
        let pf = Prefilter::new([(0, pattern(r#"name IN ("Bob","John")"#))]);
        let res = pf.run_chunk(&chunk());
        assert_eq!(res.bitvecs[0].ones_positions(), vec![0, 2]);
    }

    #[test]
    fn batched_path_matches_scalar_path() {
        let pf = Prefilter::new([
            (0, pattern(r#"name = "Bob""#)),
            (1, pattern("stars = 5")),
            (2, pattern(r#"name IN ("Bob","John")"#)),
            (3, pattern("stars = 1")),
        ]);
        let batched = pf.run_chunk(&chunk());
        let scalar = pf.run_chunk_scalar(&chunk());
        assert_eq!(batched.predicate_ids, scalar.predicate_ids);
        assert_eq!(batched.bitvecs, scalar.bitvecs);
    }

    #[test]
    fn for_clauses_matches_manual_compilation() {
        let clauses = [
            parse_clause(r#"name = "Bob""#).unwrap(),
            parse_clause("stars = 5").unwrap(),
        ];
        let from_clauses =
            Prefilter::for_clauses(clauses.iter().enumerate().map(|(i, c)| (i as u32, c)));
        let manual = Prefilter::new([(0, pattern(r#"name = "Bob""#)), (1, pattern("stars = 5"))]);
        let a = from_clauses.run_chunk(&chunk());
        let b = manual.run_chunk(&chunk());
        assert_eq!(a.predicate_ids, b.predicate_ids);
        assert_eq!(a.bitvecs, b.bitvecs);
    }

    #[test]
    fn stats_accumulate() {
        let mut stats = ClientStats::default();
        let pf = Prefilter::new([(3, pattern("stars = 5"))]);
        pf.run_chunk_with_stats(&chunk(), &mut stats);
        pf.run_chunk_with_stats(&chunk(), &mut stats);
        assert_eq!(stats.records_processed, 8);
        assert_eq!(stats.predicate_evals, 8);
        assert_eq!(stats.matches_for(3), 4);
    }
}
