//! Partial data loading (paper §VI-A).
//!
//! For each incoming chunk the loader computes an **admission mask**
//! from the chunk's predicate bitvectors and the workload's coverage:
//! a record is admitted when *some* query might need it, i.e. when the
//! AND of that query's pushed-clause bits is 1 for the record
//! (conjunction semantics). A record failing every query's pushed
//! conjunction is parked verbatim: as a [`SharedRecord`], a handle
//! into the text of the chunk it arrived in, so parking copies nothing
//! and allocates nothing per record. A chunk keeps its whole text alive
//! only while its parked records hold at least half of it; the parked
//! records of a mostly loaded chunk are copied into one small buffer
//! instead ([`RecordChunk::share_records`]).
//!
//! Two degenerate cases load everything, matching the paper's observed
//! behaviour on low-overlap workloads (§VII-D/E): a workload with any
//! **uncovered** query (no pushed clause), and an empty plan.
//!
//! An admitted record goes from its text straight into the column
//! builders ([`TableBuilder::push_text`], over
//! [`ciao_json::parse_fields`]): one validating pass appends each
//! schema field's value and skips the rest, with no DOM in between. A
//! record that pass rejects — exactly the records [`ciao_json::parse`]
//! rejects — appends nothing and is parked. This is the one
//! record-to-row loop: shard ingest, WAL-tail replay at recovery, and
//! parked-row promotion ([`crate::jit::promote_parked`], which the
//! service's compactor runs — the one promotion path) all load through
//! a [`Loader`].

use ciao_bitvec::BitVec;
use ciao_client::ChunkFilterResult;
use ciao_columnar::{Schema, Table, TableBuilder};
use ciao_json::{RecordChunk, SharedRecord};
use std::sync::Arc;

/// How the loader decides which records to admit into the columnar
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Load every parseable record (baseline, or any uncovered query).
    LoadAll,
    /// Per-query coverage: admit a record iff for some query, all of
    /// that query's pushed-clause bits are set.
    PerQueryCoverage {
        /// For each workload query, the ids of its pushed clauses
        /// (each inner list non-empty).
        coverage: Vec<Vec<u32>>,
    },
    /// The paper §VI-A prose rule, kept for ablation: admit a record
    /// iff it is valid for **at least one** pushed predicate (pure OR,
    /// ignoring which query each predicate belongs to). Always sound
    /// (a parked record has every pushed bit 0, so no covered query
    /// can match it), and admits a superset of what
    /// [`AdmissionPolicy::PerQueryCoverage`] admits. Its weakness is
    /// the other side: it keeps parking even when the workload has
    /// uncovered queries, making every such query re-parse the parked
    /// store — the trade-off the coverage policy exists to avoid.
    AnyPredicate,
}

impl AdmissionPolicy {
    /// Builds the policy from per-query pushed-id sets: any empty set
    /// (uncovered query) collapses to [`AdmissionPolicy::LoadAll`].
    pub fn from_coverage(coverage: &[Vec<u32>]) -> AdmissionPolicy {
        if coverage.is_empty() || coverage.iter().any(Vec::is_empty) {
            AdmissionPolicy::LoadAll
        } else {
            AdmissionPolicy::PerQueryCoverage {
                coverage: coverage.to_vec(),
            }
        }
    }

    /// Computes the admission mask for one chunk; `None` = admit all.
    pub fn admission_mask(&self, filter: &ChunkFilterResult) -> Option<BitVec> {
        match self {
            AdmissionPolicy::LoadAll => None,
            AdmissionPolicy::AnyPredicate => filter.admission_mask(),
            AdmissionPolicy::PerQueryCoverage { coverage } => {
                let mut admitted = BitVec::zeros(filter.records);
                for ids in coverage {
                    // A missing bitvector means the client never
                    // evaluated this predicate — be conservative
                    // and treat every record as possibly needed.
                    let bvs: Vec<&BitVec> = ids
                        .iter()
                        .map(|id| filter.bitvec_for(*id))
                        .collect::<Option<_>>()?;
                    if let Some(mask) = BitVec::and_all(&bvs) {
                        admitted.or_assign(&mask);
                    }
                }
                Some(admitted)
            }
        }
    }
}

/// Loader counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Records parsed and loaded into the columnar table.
    pub loaded_records: usize,
    /// Records parked as raw JSON.
    pub parked_records: usize,
    /// Admitted records that failed to parse (parked instead, having
    /// appended nothing — a malformed record must not be dropped, §IV's
    /// contract is about filtering, not validation).
    pub parse_errors: usize,
    /// Values that failed type coercion into the schema (stored NULL).
    pub coercion_failures: usize,
}

impl LoadStats {
    /// Merges another loader's counters into this one — used when one
    /// server seals successive loading epochs, and when a sharded
    /// service reports fleet-wide loading statistics. Folding from
    /// [`LoadStats::default`] is the identity.
    pub fn merge(&mut self, other: &LoadStats) {
        self.loaded_records += other.loaded_records;
        self.parked_records += other.parked_records;
        self.parse_errors += other.parse_errors;
        self.coercion_failures += other.coercion_failures;
    }

    /// Total records seen.
    pub fn total(&self) -> usize {
        self.loaded_records + self.parked_records
    }

    /// Fraction of records loaded into the columnar format — the
    /// paper's *loading ratio* (Fig 7/9/11).
    pub fn loading_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.loaded_records as f64 / self.total() as f64
        }
    }
}

/// Streams (chunk, bitvectors) pairs into a columnar table plus a
/// parked raw store.
#[derive(Debug)]
pub struct Loader {
    builder: TableBuilder,
    predicate_ids: Vec<u32>,
    policy: AdmissionPolicy,
    parked: Vec<SharedRecord>,
    /// Bytes of text `parked` keeps alive: each chunk it shares plus
    /// each copy, as [`RecordChunk::share_records`] reports them.
    parked_text: usize,
    /// Scratch: the indices of the current chunk's parked records.
    picked: Vec<u32>,
    stats: LoadStats,
}

impl Loader {
    /// Creates a loader for a schema, the pushed predicate ids, and an
    /// admission policy.
    pub fn new(
        schema: Arc<Schema>,
        predicate_ids: &[u32],
        policy: AdmissionPolicy,
        block_size: usize,
    ) -> Loader {
        Loader {
            builder: TableBuilder::with_block_size(schema, predicate_ids, block_size),
            predicate_ids: predicate_ids.to_vec(),
            policy,
            parked: Vec::new(),
            parked_text: 0,
            picked: Vec::new(),
            stats: LoadStats::default(),
        }
    }

    /// Ingests one chunk with its client-produced filter result.
    ///
    /// Panics if the filter result's record count does not match the
    /// chunk (a framing bug upstream must not be silently absorbed).
    pub fn load_chunk(&mut self, chunk: &RecordChunk, filter: &ChunkFilterResult) {
        assert_eq!(
            chunk.len(),
            filter.records,
            "chunk has {} records but filter result covers {}",
            chunk.len(),
            filter.records
        );
        let admission = self.policy.admission_mask(filter);
        // The chunk's bitvector for each of the builder's predicate
        // ids, in its order (`None`: the client did not evaluate it).
        let bitvecs: Vec<Option<&BitVec>> = self
            .predicate_ids
            .iter()
            .map(|&id| filter.bitvec_for(id))
            .collect();
        self.picked.clear();
        self.picked.reserve(chunk.len());
        for (i, record) in chunk.iter().enumerate() {
            // `None` mask → everything is admitted (baseline / an
            // uncovered query in the workload).
            let admitted = admission.as_ref().is_none_or(|mask| mask.bit(i));
            if admitted {
                let bit = |k: usize| bitvecs[k].is_some_and(|bv| bv.bit(i));
                if self.builder.push_text(record, bit).is_ok() {
                    self.stats.loaded_records += 1;
                    continue;
                }
                // Malformed but admitted: park it rather than lose it.
                self.stats.parse_errors += 1;
            }
            self.picked.push(i as u32);
        }
        self.stats.parked_records += self.picked.len();
        self.parked_text += chunk.share_records(&self.picked, &mut self.parked);
    }

    /// Bytes of text the records parked so far keep alive: the text of
    /// each chunk they share, and each copy made for the few parked
    /// records of a mostly loaded chunk (a chunk loaded twice counts
    /// twice).
    pub fn parked_text_bytes(&self) -> usize {
        self.parked_text
    }

    /// Current counters.
    pub fn stats(&self) -> LoadStats {
        let mut s = self.stats;
        s.coercion_failures = self.builder.coercion_failures();
        s
    }

    /// Finalizes into (table, parked raw records, stats).
    pub fn finish(self) -> (Table, Vec<SharedRecord>, LoadStats) {
        let mut stats = self.stats;
        stats.coercion_failures = self.builder.coercion_failures();
        (self.builder.finish(), self.parked, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_client::Prefilter;
    use ciao_predicate::{compile_clause, parse_clause};

    fn chunk() -> RecordChunk {
        RecordChunk::from_records(&[
            r#"{"stars":5,"name":"a"}"#,
            r#"{"stars":3,"name":"b"}"#,
            r#"{"stars":5,"name":"c"}"#,
            r#"not valid json {"#,
            r#"{"stars":1,"name":"e"}"#,
        ])
        .unwrap()
    }

    fn schema() -> Arc<Schema> {
        let sample = vec![ciao_json::parse(r#"{"stars":1,"name":"x"}"#).unwrap()];
        Arc::new(Schema::infer(&sample).unwrap())
    }

    fn prefilter() -> Prefilter {
        let pattern = compile_clause(&parse_clause("stars = 5").unwrap()).unwrap();
        Prefilter::new([(0, pattern)])
    }

    fn covered_policy() -> AdmissionPolicy {
        AdmissionPolicy::from_coverage(&[vec![0]])
    }

    #[test]
    fn partial_loading_splits_records() {
        let c = chunk();
        let filter = prefilter().run_chunk(&c);
        let mut loader = Loader::new(schema(), &[0], covered_policy(), 4);
        loader.load_chunk(&c, &filter);
        let (table, parked, stats) = loader.finish();
        // stars=5 records loaded; stars=3/1 and the malformed line parked.
        assert_eq!(stats.loaded_records, 2);
        assert_eq!(stats.parked_records, 3);
        assert_eq!(table.row_count(), 2);
        assert_eq!(parked.len(), 3);
        assert!((stats.loading_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bitvectors_repacked_per_block() {
        let c = chunk();
        let filter = prefilter().run_chunk(&c);
        let mut loader = Loader::new(schema(), &[0], covered_policy(), 1);
        loader.load_chunk(&c, &filter);
        let (table, _, _) = loader.finish();
        // Each loaded record landed in its own block with bit 1 (it was
        // admitted *because* predicate 0 matched).
        assert_eq!(table.blocks().len(), 2);
        for block in table.blocks() {
            assert_eq!(block.metadata().bitvec(0).unwrap().count_ones(), 1);
        }
    }

    #[test]
    fn malformed_admitted_record_is_parked_not_dropped() {
        // A pattern matching the malformed line: "not valid json {" —
        // search for "valid".
        let pattern = compile_clause(&parse_clause(r#"name LIKE "%valid%""#).unwrap()).unwrap();
        let pf = Prefilter::new([(0, pattern)]);
        let c = chunk();
        let filter = pf.run_chunk(&c);
        let mut loader = Loader::new(schema(), &[0], covered_policy(), 4);
        loader.load_chunk(&c, &filter);
        let (_, parked, stats) = loader.finish();
        assert_eq!(stats.parse_errors, 1);
        assert!(parked.iter().any(|r| r.as_str().contains("not valid")));
        assert_eq!(stats.total(), 5);
    }

    #[test]
    fn no_predicates_loads_everything_parseable() {
        let c = chunk();
        let filter = Prefilter::new([]).run_chunk(&c);
        let mut loader = Loader::new(schema(), &[], AdmissionPolicy::LoadAll, 4);
        loader.load_chunk(&c, &filter);
        let (table, parked, stats) = loader.finish();
        assert_eq!(table.row_count(), 4);
        assert_eq!(parked.len(), 1); // only the malformed line
        assert_eq!(stats.parse_errors, 1);
        assert!((stats.loading_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "filter result covers")]
    fn desynced_filter_rejected() {
        let c = chunk();
        let other = RecordChunk::from_records(&[r#"{"stars":5}"#]).unwrap();
        let filter = prefilter().run_chunk(&other);
        let mut loader = Loader::new(schema(), &[0], covered_policy(), 4);
        loader.load_chunk(&c, &filter);
    }

    #[test]
    fn multiple_chunks_accumulate() {
        let c = chunk();
        let pf = prefilter();
        let mut loader = Loader::new(schema(), &[0], covered_policy(), 100);
        for _ in 0..3 {
            let filter = pf.run_chunk(&c);
            loader.load_chunk(&c, &filter);
        }
        let (table, parked, stats) = loader.finish();
        assert_eq!(stats.total(), 15);
        assert_eq!(table.row_count(), 6);
        assert_eq!(parked.len(), 9);
    }

    #[test]
    fn empty_stats() {
        assert_eq!(LoadStats::default().loading_ratio(), 0.0);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = LoadStats {
            loaded_records: 3,
            parked_records: 1,
            parse_errors: 1,
            coercion_failures: 0,
        };
        let b = LoadStats {
            loaded_records: 2,
            parked_records: 4,
            parse_errors: 0,
            coercion_failures: 2,
        };
        a.merge(&b);
        assert_eq!(a.loaded_records, 5);
        assert_eq!(a.parked_records, 5);
        assert_eq!(a.parse_errors, 1);
        assert_eq!(a.coercion_failures, 2);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn uncovered_query_forces_load_all() {
        // Coverage with an empty entry (an uncovered query) collapses
        // to LoadAll — the paper's low-overlap behaviour.
        assert_eq!(
            AdmissionPolicy::from_coverage(&[vec![0], vec![]]),
            AdmissionPolicy::LoadAll
        );
        assert_eq!(
            AdmissionPolicy::from_coverage(&[]),
            AdmissionPolicy::LoadAll
        );
    }

    #[test]
    fn per_query_conjunction_semantics() {
        // Two predicates; one query needs BOTH (conjunction). Records
        // matching only one must be parked.
        let c = RecordChunk::from_records(&[
            r#"{"stars":5,"name":"hit"}"#, // both
            r#"{"stars":5,"name":"x"}"#,   // stars only
            r#"{"stars":1,"name":"hit"}"#, // name only
            r#"{"stars":1,"name":"x"}"#,   // neither
        ])
        .unwrap();
        let p0 = compile_clause(&parse_clause("stars = 5").unwrap()).unwrap();
        let p1 = compile_clause(&parse_clause(r#"name = "hit""#).unwrap()).unwrap();
        let pf = Prefilter::new([(0, p0), (1, p1)]);
        let filter = pf.run_chunk(&c);

        let policy = AdmissionPolicy::from_coverage(&[vec![0, 1]]);
        let mask = policy.admission_mask(&filter).unwrap();
        assert_eq!(mask.ones_positions(), vec![0]);

        // Two single-clause queries instead: union semantics.
        let policy = AdmissionPolicy::from_coverage(&[vec![0], vec![1]]);
        let mask = policy.admission_mask(&filter).unwrap();
        assert_eq!(mask.ones_positions(), vec![0, 1, 2]);
    }

    #[test]
    fn any_predicate_policy_is_a_superset_of_coverage() {
        let c = RecordChunk::from_records(&[
            r#"{"stars":5,"name":"hit"}"#,
            r#"{"stars":5,"name":"x"}"#,
            r#"{"stars":1,"name":"hit"}"#,
            r#"{"stars":1,"name":"x"}"#,
        ])
        .unwrap();
        let p0 = compile_clause(&parse_clause("stars = 5").unwrap()).unwrap();
        let p1 = compile_clause(&parse_clause(r#"name = "hit""#).unwrap()).unwrap();
        let filter = Prefilter::new([(0, p0), (1, p1)]).run_chunk(&c);

        let any = AdmissionPolicy::AnyPredicate
            .admission_mask(&filter)
            .unwrap();
        assert_eq!(any.ones_positions(), vec![0, 1, 2]);

        let coverage = AdmissionPolicy::from_coverage(&[vec![0, 1]])
            .admission_mask(&filter)
            .unwrap();
        assert!(coverage.is_subset_of(&any), "coverage admits a subset");
    }

    #[test]
    fn missing_bitvector_is_conservative() {
        let c = chunk();
        let filter = prefilter().run_chunk(&c); // only id 0 present
        let policy = AdmissionPolicy::from_coverage(&[vec![0, 7]]);
        assert!(policy.admission_mask(&filter).is_none(), "must admit all");
    }
}
