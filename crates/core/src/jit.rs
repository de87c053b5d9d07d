//! Promotion of parked records into columns.
//!
//! The paper parks records "to be loaded when needed (e.g. just-in-time
//! loading)" (§I) and cites Invisible Loading as the lineage. Here the
//! service's background compactor (`ciao_service::Shard::compact`) is
//! the one promotion path: each tick hands a batch of parked rows to
//! [`promote_parked`], so a store that queries keep scanning becomes
//! columns instead of being re-parsed by every query.
//!
//! Promotion is loading: a batch of parked records (handles into the
//! text they arrived in, [`SharedRecord`]) is framed into one chunk and
//! goes through a [`Loader`] that admits everything, so it reaches the
//! columns exactly as an ingested record does (text straight into the
//! column builders, malformed records parked again — as handles into
//! that chunk, or a copy of their own when they are few). Once no
//! handle points into an ingested chunk any more, its text is freed.
//! Promoted records need predicate bits for the block metadata;
//! promotion regenerates them by re-running the plan's raw patterns
//! over the parked text — the same conservative bits the client would
//! have produced, so every skipping guarantee still holds.

use crate::loader::{AdmissionPolicy, Loader};
use crate::plan::PushdownPlan;
use ciao_columnar::{Schema, Table};
use ciao_json::{RecordChunk, SharedRecord};
use std::sync::Arc;

/// Outcome of one promotion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionStats {
    /// Parked records parsed and appended to the columnar side.
    pub promoted: usize,
    /// Records that still fail to parse (stay parked).
    pub still_parked: usize,
}

/// Promotes every parseable parked record into a new table fragment.
///
/// Returns the fragment (same schema/block size discipline as the main
/// table) and the surviving parked records. The caller appends the
/// fragment's blocks to its table.
pub fn promote_parked(
    plan: &PushdownPlan,
    schema: Arc<Schema>,
    parked: Vec<SharedRecord>,
    block_size: usize,
) -> (Table, Vec<SharedRecord>, PromotionStats) {
    let mut loader = Loader::new(schema, &plan.ids(), AdmissionPolicy::LoadAll, block_size);
    let Ok(chunk) = RecordChunk::from_records(&parked) else {
        // Parked records came from NDJSON lines, so this cannot
        // happen; defend anyway by keeping everything parked.
        let (empty, _, _) = loader.finish();
        return (empty, parked, PromotionStats::default());
    };
    // Regenerate conservative bits with the plan's own patterns.
    loader.load_chunk(&chunk, &plan.prefilter().run_chunk(&chunk));
    let (fragment, survivors, stats) = loader.finish();
    let stats = PromotionStats {
        promoted: stats.loaded_records,
        still_parked: stats.parked_records,
    };
    (fragment, survivors, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_optimizer::CostModel;
    use ciao_predicate::parse_query;

    fn setup() -> (PushdownPlan, Arc<Schema>, Vec<SharedRecord>) {
        let sample: Vec<_> = (0..50)
            .map(|i| {
                ciao_json::parse(&format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i)).unwrap()
            })
            .collect();
        let queries = vec![parse_query("q", "stars = 5").unwrap()];
        let plan = PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0)
            .unwrap();
        let schema = Arc::new(Schema::infer(&sample).unwrap());
        (plan, schema, parked(30, false))
    }

    /// `n` parseable parked records, and an unparseable one after them
    /// when `garbage`.
    fn parked(n: usize, garbage: bool) -> Vec<SharedRecord> {
        let mut records: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"stars":{},"name":"p{}"}}"#, i % 5 + 1, i))
            .collect();
        if garbage {
            records.push("not json at all".to_owned());
        }
        RecordChunk::from_records(&records)
            .unwrap()
            .shared()
            .collect()
    }

    #[test]
    fn promotes_parseable_records_with_bits() {
        let (plan, schema, parked) = setup();
        let (fragment, survivors, stats) = promote_parked(&plan, schema, parked, 8);
        assert_eq!(stats.promoted, 30);
        assert_eq!(stats.still_parked, 0);
        assert!(survivors.is_empty());
        assert_eq!(fragment.row_count(), 30);
        // Bits present in every block for the plan's predicate.
        let id = plan.ids()[0];
        let total_ones: usize = fragment
            .blocks()
            .iter()
            .map(|b| b.metadata().bitvec(id).unwrap().count_ones())
            .sum();
        assert_eq!(total_ones, 6, "stars=5 records carry a set bit");
    }

    #[test]
    fn unparseable_records_stay_parked() {
        let (plan, schema, _) = setup();
        let (fragment, survivors, stats) = promote_parked(&plan, schema, parked(30, true), 8);
        assert_eq!(stats.promoted, 30);
        assert_eq!(stats.still_parked, 1);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].as_str(), "not json at all");
        // The survivor keeps only its own bytes alive, not the batch.
        assert_eq!(SharedRecord::retained_bytes(&survivors), 15);
        assert_eq!(fragment.row_count(), 30);
    }
}
