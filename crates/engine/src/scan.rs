//! Columnar table scan with bitvector data skipping.

use crate::metrics::ScanMetrics;
use crate::row_eval::eval_query_on_block;
use ciao_columnar::{BitVec, Block, Table};
use ciao_predicate::Query;

/// Scan configuration.
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Predicate ids (of the query's pushed clauses) whose block
    /// bitvectors should be ANDed into a skip mask. Empty = no skipping.
    pub skip_predicate_ids: Vec<u32>,
    /// Prune whole blocks via min/max/null metadata before row-level
    /// work (see [`crate::zone`]).
    pub use_zone_maps: bool,
}

impl ScanOptions {
    /// A scan with no skipping and no pruning.
    pub fn full() -> ScanOptions {
        ScanOptions::default()
    }

    /// A scan that skips via the given predicate ids.
    pub fn skipping(ids: impl Into<Vec<u32>>) -> ScanOptions {
        ScanOptions {
            skip_predicate_ids: ids.into(),
            use_zone_maps: false,
        }
    }

    /// Enables zone-map block pruning on top of the current options.
    pub fn with_zone_maps(mut self) -> ScanOptions {
        self.use_zone_maps = true;
        self
    }
}

/// What zone maps and the fused skip-mask leave of one block.
#[derive(Debug, Clone)]
pub enum Survivors {
    /// No row can match — zone maps said so, or the fused skip-mask
    /// is all zeros: the block's columns are never read.
    Pruned,
    /// Every row is evaluated: nothing was pushed, or a bitvector is
    /// missing (which says nothing about which rows qualify).
    All,
    /// Only the rows whose bit is set in the fused skip-mask.
    Mask(BitVec),
}

impl Survivors {
    /// Calls `visit` with each surviving row of a `rows`-row block.
    #[inline]
    pub fn for_each_row(&self, rows: usize, mut visit: impl FnMut(usize)) {
        match self {
            Survivors::Pruned => {}
            Survivors::All => (0..rows).for_each(visit),
            Survivors::Mask(mask) => {
                for row in mask.iter_ones() {
                    visit(row);
                }
            }
        }
    }
}

/// The block side of a scan, decided before a column is touched:
/// zone-prune, fused skip-mask and popcount per block. Every block
/// scan — count, select, plan — starts from one of these and only
/// walks [`PreparedScan::survivors`], so how many rows it will
/// evaluate is known up front ([`PreparedScan::surviving_rows`]).
#[derive(Debug, Clone, Default)]
pub struct PreparedScan {
    survivors: Vec<Survivors>,
    /// Blocks skipped wholesale by zone maps.
    pub blocks_pruned_zone: usize,
    /// Opened blocks whose fused skip-mask excluded every row.
    pub blocks_pruned_mask: usize,
    /// Rows inside zone-pruned blocks.
    pub rows_skipped_zone: usize,
    /// Rows a skip-mask's zero bits exclude inside opened blocks.
    pub rows_skipped_mask: usize,
    /// Rows the scan will evaluate.
    pub surviving_rows: usize,
}

impl PreparedScan {
    /// Decides, for each block in order, which rows survive `query`
    /// under `options`. A scan must walk the same blocks in the same
    /// order.
    pub fn new<'a>(
        blocks: impl IntoIterator<Item = &'a Block>,
        query: &Query,
        options: &ScanOptions,
    ) -> PreparedScan {
        let mut prepared = PreparedScan::default();
        for block in blocks {
            let rows = block.row_count();
            if options.use_zone_maps && !crate::zone::block_can_match(query, block) {
                prepared.blocks_pruned_zone += 1;
                prepared.rows_skipped_zone += rows;
                prepared.survivors.push(Survivors::Pruned);
                continue;
            }
            let mask = if options.skip_predicate_ids.is_empty() {
                None
            } else {
                // A missing bitvector makes skip_mask return None →
                // conservative full scan of the block.
                block.metadata().skip_mask(&options.skip_predicate_ids)
            };
            prepared.survivors.push(match mask {
                Some(mask) => {
                    let ones = mask.count_ones();
                    prepared.rows_skipped_mask += rows - ones;
                    prepared.surviving_rows += ones;
                    if ones == 0 {
                        prepared.blocks_pruned_mask += 1;
                        Survivors::Pruned
                    } else {
                        Survivors::Mask(mask)
                    }
                }
                None => {
                    prepared.surviving_rows += rows;
                    Survivors::All
                }
            });
        }
        prepared
    }

    /// One entry per prepared block, in block order.
    pub fn survivors(&self) -> &[Survivors] {
        &self.survivors
    }

    /// The counters the preparation already settled; a scan adds
    /// `rows_scanned` and `rows_matched`.
    pub fn metrics(&self) -> ScanMetrics {
        ScanMetrics {
            blocks_visited: self.survivors.len() - self.blocks_pruned_zone,
            blocks_pruned: self.blocks_pruned_zone,
            rows_skipped: self.rows_skipped_zone + self.rows_skipped_mask,
            ..ScanMetrics::default()
        }
    }
}

/// Counts the prepared survivors of `blocks` that satisfy `query`.
///
/// Every surviving row is verified with **full** typed evaluation of
/// all clauses — bits are a pre-filter, not an answer: client-side
/// matching admits false positives, so a set bit proves nothing.
/// Skipping is only ever sound in the other direction (bit 0 ⇒ the
/// clause cannot hold), which block metadata guarantees.
pub(crate) fn count_survivors<'a>(
    blocks: impl IntoIterator<Item = &'a Block>,
    prepared: &PreparedScan,
    query: &Query,
) -> ScanMetrics {
    let mut metrics = prepared.metrics();
    for (block, survivors) in blocks.into_iter().zip(prepared.survivors()) {
        survivors.for_each_row(block.row_count(), |row| {
            metrics.rows_scanned += 1;
            if eval_query_on_block(query, block, row) {
                metrics.rows_matched += 1;
            }
        });
    }
    metrics
}

/// Counts rows of `table` satisfying `query`, applying data skipping
/// when requested (paper §VI-B): [`PreparedScan::new`], then a count
/// over its survivors.
pub fn scan_count(table: &Table, query: &Query, options: &ScanOptions) -> ScanMetrics {
    let prepared = PreparedScan::new(table.blocks(), query, options);
    count_survivors(table.blocks(), &prepared, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_columnar::{Schema, TableBuilder};
    use ciao_json::parse;
    use ciao_predicate::parse_query;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// 100 rows; predicate id 1 ⇔ stars = 5 (exact bits, no false
    /// positives); predicate id 2 ⇔ always-on noise bits.
    fn table() -> ciao_columnar::Table {
        let recs: Vec<_> = (0..100)
            .map(|i| parse(&format!(r#"{{"name":"u{}","stars":{}}}"#, i, i % 5 + 1)).unwrap())
            .collect();
        let schema = Arc::new(Schema::infer(&recs).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[1, 2], 16);
        for (i, r) in recs.iter().enumerate() {
            let bits = BTreeMap::from([(1, i % 5 + 1 == 5), (2, true)]);
            tb.push_record(r, &bits);
        }
        tb.finish()
    }

    #[test]
    fn full_scan_counts_correctly() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::full());
        assert_eq!(m.rows_matched, 20);
        assert_eq!(m.rows_scanned, 100);
        assert_eq!(m.rows_skipped, 0);
        assert_eq!(m.blocks_visited, 7);
    }

    #[test]
    fn skipping_gives_same_count_with_fewer_rows() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![1]));
        assert_eq!(m.rows_matched, 20);
        assert_eq!(m.rows_scanned, 20);
        assert_eq!(m.rows_skipped, 80);
        assert!((m.skip_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn false_positive_bits_are_verified_away() {
        // Predicate 2's bits are all 1 (pure false positives for any
        // real predicate); the verify step must still give the exact
        // count.
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![2]));
        assert_eq!(m.rows_matched, 20);
        assert_eq!(m.rows_scanned, 100);
        assert_eq!(m.rows_skipped, 0);
    }

    #[test]
    fn conjunction_intersects_masks() {
        let t = table();
        let q = parse_query("q", r#"stars = 5 AND name = "u4""#).unwrap();
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![1, 2]));
        assert_eq!(m.rows_matched, 1); // u4 has stars 5
        assert_eq!(m.rows_scanned, 20); // mask(1) ∧ mask(2) = mask(1)
    }

    #[test]
    fn missing_bitvector_falls_back_to_full_scan() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![99]));
        assert_eq!(m.rows_matched, 20);
        assert_eq!(m.rows_scanned, 100);
        assert_eq!(m.rows_skipped, 0);
    }

    #[test]
    fn preparation_counts_what_the_scan_will_touch() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        // Predicate 1's bits: 20 survivors, known before the scan.
        let prepared = PreparedScan::new(t.blocks(), &q, &ScanOptions::skipping(vec![1]));
        assert_eq!(prepared.surviving_rows, 20);
        assert_eq!(prepared.rows_skipped_mask, 80);
        assert_eq!(prepared.survivors().len(), t.blocks().len());
        let m = count_survivors(t.blocks(), &prepared, &q);
        assert_eq!(m.rows_scanned, prepared.surviving_rows);
        assert_eq!(m, scan_count(&t, &q, &ScanOptions::skipping(vec![1])));

        // An impossible range: zone maps leave nothing, no mask is
        // even fused.
        let none = parse_query("q", "stars > 9").unwrap();
        let prepared = PreparedScan::new(
            t.blocks(),
            &none,
            &ScanOptions::skipping(vec![1]).with_zone_maps(),
        );
        assert_eq!(prepared.surviving_rows, 0);
        assert_eq!(prepared.blocks_pruned_zone, t.blocks().len());
        assert!(prepared
            .survivors()
            .iter()
            .all(|s| matches!(s, Survivors::Pruned)));
    }

    #[test]
    fn an_all_zero_mask_prunes_the_block_but_still_counts_it_visited() {
        // Predicate 3 holds only in the first 16-row block.
        let recs: Vec<_> = (0..48)
            .map(|i| parse(&format!(r#"{{"n":{i}}}"#)).unwrap())
            .collect();
        let schema = Arc::new(Schema::infer(&recs).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[3], 16);
        for (i, r) in recs.iter().enumerate() {
            tb.push_record(r, &BTreeMap::from([(3, i < 16)]));
        }
        let t = tb.finish();
        let q = parse_query("q", "n < 16").unwrap();
        let prepared = PreparedScan::new(t.blocks(), &q, &ScanOptions::skipping(vec![3]));
        assert!(matches!(
            prepared.survivors(),
            [Survivors::Mask(_), Survivors::Pruned, Survivors::Pruned]
        ));
        assert_eq!(prepared.blocks_pruned_mask, 2);
        assert_eq!(prepared.blocks_pruned_zone, 0);
        let m = count_survivors(t.blocks(), &prepared, &q);
        assert_eq!((m.blocks_visited, m.blocks_pruned), (3, 0));
        assert_eq!(
            (m.rows_scanned, m.rows_skipped, m.rows_matched),
            (16, 32, 16)
        );
    }

    #[test]
    fn empty_table() {
        let t = ciao_columnar::Table::default();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::full());
        assert_eq!(m.rows_matched, 0);
        assert_eq!(m.blocks_visited, 0);
    }
}
