//! The block side of every scan: prepare, then one column-at-a-time
//! driver.
//!
//! [`PreparedScan`] settles, per block and before a column is read,
//! what zone maps and the fused skip-mask leave ([`Survivors`]).
//! [`BlockFilter`] then runs the WHERE conjunction over each block a
//! column at a time, on the selection-vector model of MonetDB/X100
//! (Boncz et al., CIDR 2005): it seeds a reused `u32` selection vector
//! from the block's survivors, resolves each clause's key to a column
//! index once per block, and narrows the selection clause by clause,
//! in plan order, with one standalone kernel per (predicate, column
//! type) over the typed slice and its validity bitmap. What is left is
//! the block's matching rows in ascending order, and a [`BlockTally`]
//! the statement's [`QueryProfile`] adds once per block.
//!
//! `Executor::scan_plan` feeds each selected row to the SQL operator,
//! or adds the selection's length for a `COUNT(*)`; [`scan_count`] counts
//! one table under explicit [`ScanOptions`]. The same driver filters the
//! typed batches parked records are read into ([`crate::raw_scan`]): it
//! finds a column through its caller, not only in a block.
//! [`crate::row_eval`] is the row-at-a-time reference the driver is
//! tested against.

use crate::profile::{ClauseProfile, QueryProfile};
use ciao_columnar::{BitVec, Block, ColumnValues, StrColumn, Table};
use ciao_predicate::{Clause, Query, SimplePredicate};

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

/// The block side of a scan, decided before a column is touched:
/// zone-prune, fused skip-mask and popcount per block. Every block
/// scan — count or plan — starts from one of these and
/// [`BlockFilter`] reads only its [`PreparedScan::survivors`], so how
/// many rows it will evaluate is known up front
/// ([`PreparedScan::surviving_rows`]).
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

    /// The profile a scan starts from: the block counters this
    /// preparation settled, and one zeroed entry per WHERE clause,
    /// `pushed` where `is_pushed` says so. The scan then adds the rows
    /// it scanned and matched ([`QueryProfile::add_block`]) and the
    /// parked side.
    pub(crate) fn profile(
        &self,
        clauses: &[Clause],
        is_pushed: impl Fn(&Clause) -> bool,
    ) -> QueryProfile {
        QueryProfile {
            blocks_total: self.survivors.len() as u64,
            blocks_pruned_zone: self.blocks_pruned_zone as u64,
            blocks_pruned_mask: self.blocks_pruned_mask as u64,
            rows_skipped_zone: self.rows_skipped_zone as u64,
            rows_skipped_mask: self.rows_skipped_mask as u64,
            clauses: clauses
                .iter()
                .map(|c| ClauseProfile {
                    text: c.to_string(),
                    pushed: is_pushed(c),
                    rows_evaluated: 0,
                    rows_passed: 0,
                })
                .collect(),
            ..QueryProfile::default()
        }
    }
}

/// One clause's counters on one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClauseTally {
    /// Rows the clause ran on: those every earlier clause passed.
    pub evaluated: u64,
    /// Rows that passed it.
    pub passed: u64,
}

/// What [`BlockFilter::run`] did to one block.
#[derive(Debug, Clone, Copy)]
pub struct BlockTally<'f> {
    /// Surviving rows the conjunction ran on (0 for a pruned block).
    pub scanned: usize,
    /// Rows that passed every clause, ascending.
    pub selected: &'f [u32],
    /// One entry per clause, in plan order.
    pub clauses: &'f [ClauseTally],
}

/// The one block-scan driver: a WHERE conjunction evaluated over
/// whole blocks, a column at a time, into a selection vector.
///
/// Every surviving row is verified with **full** typed evaluation of
/// all clauses — bits are a pre-filter, not an answer: client-side
/// matching admits false positives, so a set bit proves nothing.
/// Skipping is only ever sound in the other direction (bit 0 ⇒ the
/// clause cannot hold), which block metadata guarantees.
///
/// The kernels keep the row evaluator's truth table
/// ([`crate::row_eval`]): NULL, a column missing from the schema and a
/// column of another type are false for every predicate (`NotNull`
/// reads only validity), `FloatEq` widens an int column, and a clause
/// keeps a row when any of its disjuncts does. A clause runs only on
/// the rows every earlier clause passed, so the per-clause tallies are
/// those of a short-circuiting row loop.
///
/// The buffers are reused across blocks: after the first block of a
/// given size, running a block allocates nothing.
#[derive(Debug)]
pub struct BlockFilter<'q> {
    clauses: &'q [Clause],
    split: Split,
    tallies: Vec<ClauseTally>,
}

impl<'q> BlockFilter<'q> {
    /// A driver for the conjunction `clauses`, evaluated in order.
    pub fn new(clauses: &'q [Clause]) -> BlockFilter<'q> {
        BlockFilter {
            clauses,
            split: Split::default(),
            tallies: vec![ClauseTally::default(); clauses.len()],
        }
    }

    /// The conjunction, in evaluation order.
    pub(crate) fn clauses(&self) -> &'q [Clause] {
        self.clauses
    }

    /// Runs the conjunction over the `survivors` of `block`.
    pub fn run(&mut self, block: &Block, survivors: &Survivors) -> BlockTally<'_> {
        self.run_columns(block.row_count(), survivors, |key| {
            let column = block.column_by_name(key)?;
            Some((column.values(), column.validity()))
        })
    }

    /// Runs the conjunction over the `survivors` of `rows` rows whose
    /// columns `column` finds by key: a block's, or the scratch columns
    /// a batch of parked records is read into ([`crate::raw_scan`]). A
    /// key it finds no column for reads NULL on every row.
    pub(crate) fn run_columns<'c>(
        &mut self,
        rows: usize,
        survivors: &Survivors,
        column: impl Fn(&str) -> Option<ColumnView<'c>>,
    ) -> BlockTally<'_> {
        let rows32 = u32::try_from(rows).expect("a block holds fewer than 2^32 rows");
        let split = &mut self.split;
        split.rest.clear();
        self.tallies.fill(ClauseTally::default());
        match survivors {
            Survivors::Pruned => {}
            Survivors::All => {
                split.rest.reserve(rows);
                split.rest.extend(0..rows32);
            }
            Survivors::Mask(mask) => {
                split.rest.reserve(rows);
                mask_rows(mask, &mut split.rest);
            }
        }
        let scanned = split.rest.len();
        for (clause, tally) in self.clauses.iter().zip(&mut self.tallies) {
            if split.rest.is_empty() {
                break;
            }
            tally.evaluated = split.rest.len() as u64;
            split.hits.clear();
            split.hits.reserve(rows);
            // Each disjunct runs on the rows the earlier ones failed.
            for p in clause.disjuncts() {
                filter_simple(p, column(p.key()), split);
            }
            if clause.disjuncts().len() > 1 {
                split.hits.sort_unstable();
            }
            std::mem::swap(&mut split.rest, &mut split.hits);
            tally.passed = split.rest.len() as u64;
        }
        BlockTally {
            scanned,
            selected: &split.rest,
            clauses: &self.tallies,
        }
    }
}

/// A clause's working rows: those its next disjunct runs on, and those
/// an earlier disjunct already passed. Between clauses, `rest` is the
/// selection.
#[derive(Debug, Default)]
struct Split {
    rest: Vec<u32>,
    hits: Vec<u32>,
}

impl Split {
    /// The loop under every kernel: the rows of `rest` that `pass` move,
    /// in order, to the end of `hits`; `rest` keeps the others, in
    /// order.
    #[inline(always)]
    fn partition(&mut self, mut pass: impl FnMut(usize) -> bool) {
        let Split { rest, hits } = self;
        rest.retain(|&row| {
            let keep = pass(row as usize);
            if keep {
                hits.push(row);
            }
            !keep
        });
    }
}

/// One column as the kernels read it: its values and validity.
pub(crate) type ColumnView<'c> = (&'c ColumnValues, &'c BitVec);

/// Moves the rows that satisfy `p` on `column`, `p`'s key's column,
/// from `rows.rest` to `rows.hits`: the kernel for `p`'s (predicate,
/// column type) pair, or nothing when no row can satisfy it.
fn filter_simple(p: &SimplePredicate, column: Option<ColumnView<'_>>, rows: &mut Split) {
    use ColumnValues as V;
    use SimplePredicate as P;
    // A key the schema lacks reads NULL on every row.
    let Some((values, valid)) = column else {
        return;
    };
    match (p, values) {
        (P::StrEq { value, .. }, V::Str(v)) => str_eq(v, valid, value, rows),
        (P::StrContains { needle, .. }, V::Str(v)) => str_contains(v, valid, needle, rows),
        (P::NotNull { .. }, _) => not_null(valid, rows),
        (P::IntEq { value, .. }, V::Int(v)) => int_eq(v, valid, *value, rows),
        (P::IntLt { value, .. }, V::Int(v)) => int_lt(v, valid, *value, rows),
        (P::IntGt { value, .. }, V::Int(v)) => int_gt(v, valid, *value, rows),
        (P::BoolEq { value, .. }, V::Bool(v)) => bool_eq(v, valid, *value, rows),
        (P::FloatEq { value, .. }, V::Float(v)) => float_eq(v, valid, *value, rows),
        (P::FloatEq { value, .. }, V::Int(v)) => float_eq_int(v, valid, *value, rows),
        // The cell is never of the type the predicate reads.
        _ => {}
    }
}

/// Appends the positions of `mask`'s set bits to `rows`, ascending: a
/// kernel of its own, so the seed loop compiles alike in every caller.
#[inline(never)]
fn mask_rows(mask: &BitVec, rows: &mut Vec<u32>) {
    for (w, &word) in mask.as_words().iter().enumerate() {
        let base = (w * 64) as u32;
        let mut word = word;
        while word != 0 {
            rows.push(base + word.trailing_zeros());
            word &= word - 1;
        }
    }
}

#[inline(never)]
fn str_eq(values: &StrColumn, valid: &BitVec, value: &str, rows: &mut Split) {
    let value = value.as_bytes();
    rows.partition(|row| valid.bit(row) && values.bytes(row) == value);
}

#[inline(never)]
fn str_contains(values: &StrColumn, valid: &BitVec, needle: &str, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values.get(row).contains(needle));
}

#[inline(never)]
fn not_null(valid: &BitVec, rows: &mut Split) {
    rows.partition(|row| valid.bit(row));
}

#[inline(never)]
fn int_eq(values: &[i64], valid: &BitVec, value: i64, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values[row] == value);
}

#[inline(never)]
fn int_lt(values: &[i64], valid: &BitVec, value: i64, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values[row] < value);
}

#[inline(never)]
fn int_gt(values: &[i64], valid: &BitVec, value: i64, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values[row] > value);
}

#[inline(never)]
fn bool_eq(values: &BitVec, valid: &BitVec, value: bool, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values.bit(row) == value);
}

#[inline(never)]
fn float_eq(values: &[f64], valid: &BitVec, value: f64, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values[row] == value);
}

/// `FloatEq` on an int column compares the widened int.
#[inline(never)]
fn float_eq_int(values: &[i64], valid: &BitVec, value: f64, rows: &mut Split) {
    rows.partition(|row| valid.bit(row) && values[row] as f64 == value);
}

/// Counts rows of `table` satisfying `query`, applying data skipping
/// when requested (paper §VI-B): [`PreparedScan::new`], then the length
/// of each block's selection, into `rows_matched`. A bare count keeps
/// the block and row counters only: the profile has no clause entries.
pub fn scan_count(table: &Table, query: &Query, options: &ScanOptions) -> QueryProfile {
    let prepared = PreparedScan::new(table.blocks(), query, options);
    let mut profile = prepared.profile(&[], |_| false);
    let mut filter = BlockFilter::new(&query.clauses);
    for (block, survivors) in table.blocks().iter().zip(prepared.survivors()) {
        profile.add_block(&filter.run(block, survivors));
    }
    profile
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
        assert_eq!(m.rows_skipped_zone + m.rows_skipped_mask, 0);
        assert_eq!((m.blocks_total, m.blocks_pruned_zone), (7, 0));
    }

    #[test]
    fn skipping_gives_same_count_with_fewer_rows() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![1]));
        assert_eq!(m.rows_matched, 20);
        assert_eq!(m.rows_scanned, 20);
        assert_eq!((m.rows_skipped_zone, m.rows_skipped_mask), (0, 80));
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
        assert_eq!(m.rows_skipped_mask, 0);
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
        assert_eq!(m.rows_skipped_mask, 0);
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
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![1]));
        assert_eq!(m.rows_scanned, prepared.surviving_rows as u64);

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
        let m = scan_count(&t, &q, &ScanOptions::skipping(vec![3]));
        assert_eq!(
            (m.blocks_total, m.blocks_pruned_zone, m.blocks_pruned_mask),
            (3, 0, 2)
        );
        assert_eq!(
            (m.rows_scanned, m.rows_skipped_mask, m.rows_matched),
            (16, 32, 16)
        );
    }

    #[test]
    fn empty_table() {
        let t = ciao_columnar::Table::default();
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_count(&t, &q, &ScanOptions::full());
        assert_eq!(m.rows_matched, 0);
        assert_eq!(m.blocks_total, 0);
    }
}
