//! Block-level metadata.
//!
//! Each data block of the columnar file carries the bitvectors of every
//! pushed-down predicate, re-packed to the block's rows at load time
//! (paper §VI-A: "we store the bit-vector information of this object
//! into the metadata of each data block"). Query processing ANDs the
//! bitvectors of a query's pushed clauses to skip rows (§VI-B).

use crate::column::{Column, ColumnValues};
use crate::str_column::StrColumn;
use ciao_bitvec::BitVec;
use std::collections::BTreeMap;

/// Cardinality ceiling for [`ColumnStats::str_dict`]: above this many
/// distinct strings a dictionary stops being a useful zone map (and the
/// column chunk would not dictionary-encode well on disk either).
pub const STR_DICT_STATS_MAX: usize = 32;

/// Per-column statistics, kept for min/max pruning and diagnostics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// NULL rows in this block's column chunk.
    pub null_count: usize,
    /// Minimum integer value (Int columns with ≥1 non-null row only).
    pub min_int: Option<i64>,
    /// Maximum integer value.
    pub max_int: Option<i64>,
    /// Every distinct non-null string of a low-cardinality string
    /// column chunk (sorted), mirroring the on-disk dictionary
    /// encoding. `Some` ⇒ the list is **complete**, so a value absent
    /// from it provably matches no row — the string analogue of the
    /// int min/max zone map. `None` when cardinality exceeds
    /// [`STR_DICT_STATS_MAX`] or the column holds no strings.
    pub str_dict: Option<Vec<String>>,
}

impl ColumnStats {
    /// Computes the statistics of one column chunk. The single
    /// implementation behind both the block-build path and the
    /// snapshot-reload path, so pruning behaves identically across a
    /// restart.
    pub fn compute(col: &Column) -> ColumnStats {
        let valid = col.validity();
        let mut stats = ColumnStats {
            null_count: col.null_count(),
            ..ColumnStats::default()
        };
        match col.values() {
            ColumnValues::Int(values) => {
                let mut rows = values.iter().enumerate().filter(|&(row, _)| valid.bit(row));
                if let Some((_, &first)) = rows.next() {
                    let (min, max) = rows.fold((first, first), |(min, max), (_, &v)| {
                        (min.min(v), max.max(v))
                    });
                    (stats.min_int, stats.max_int) = (Some(min), Some(max));
                }
            }
            ColumnValues::Str(values) => stats.str_dict = str_dict(values, valid),
            _ => {}
        }
        stats
    }

    /// True when `value` provably matches no row of this column chunk:
    /// the dictionary is complete and does not contain it.
    pub fn str_excludes(&self, value: &str) -> bool {
        match &self.str_dict {
            Some(dict) => dict.binary_search_by(|e| e.as_str().cmp(value)).is_err(),
            None => false,
        }
    }

    /// True when no string of this column chunk can contain `needle`.
    pub fn str_excludes_substring(&self, needle: &str) -> bool {
        match &self.str_dict {
            Some(dict) => !dict.iter().any(|e| e.contains(needle)),
            None => false,
        }
    }
}

/// Every distinct string of the rows `valid` marks, sorted, or `None`
/// when there are none or more than [`STR_DICT_STATS_MAX`]. Each string
/// is looked up in a small open-addressing table of the distinct ones
/// seen so far (a repeat of the previous row's string skips even that),
/// and the scan stops at the first string one too many. The table never
/// holds more than [`STR_DICT_STATS_MAX`] strings, so values crafted to
/// collide cost at most that many probes a row.
fn str_dict(values: &StrColumn, valid: &BitVec) -> Option<Vec<String>> {
    /// Slots of the table: a power of two, at least twice the most
    /// strings it holds, so probes stay short.
    const SLOTS: usize = 128;
    const EMPTY: u8 = u8::MAX;
    const _: () = assert!(SLOTS >= 2 * (STR_DICT_STATS_MAX + 1) && SLOTS.is_power_of_two());
    const _: () = assert!(STR_DICT_STATS_MAX < EMPTY as usize);
    // The position in `distinct` of the string each slot holds.
    let mut slots = [EMPTY; SLOTS];
    let mut distinct: Vec<&str> = Vec::with_capacity(STR_DICT_STATS_MAX);
    let mut previous = None;
    for (row, s) in values.iter().enumerate() {
        if !valid.bit(row) || previous == Some(s) {
            continue;
        }
        previous = Some(s);
        let mut slot = (fx_hash(s.as_bytes()) >> (64 - SLOTS.trailing_zeros())) as usize;
        loop {
            match slots[slot] {
                EMPTY if distinct.len() == STR_DICT_STATS_MAX => return None,
                EMPTY => {
                    slots[slot] = distinct.len() as u8;
                    distinct.push(s);
                    break;
                }
                seen if distinct[seen as usize] == s => break,
                _ => slot = (slot + 1) % SLOTS,
            }
        }
    }
    if distinct.is_empty() {
        return None;
    }
    distinct.sort_unstable();
    Some(distinct.into_iter().map(str::to_owned).collect())
}

/// A fast, non-cryptographic hash of `bytes` (the multiply-rotate step
/// of rustc's `FxHasher`, a word at a time); its high bits are the
/// best mixed.
fn fx_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(0, bytes.len() as u64);
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(word));
    }
    h
}

/// Metadata attached to one block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockMetadata {
    /// Rows in the block.
    pub row_count: usize,
    /// One stats entry per schema column.
    pub column_stats: Vec<ColumnStats>,
    /// Predicate id → validity bits for this block's rows.
    bitvectors: BTreeMap<u32, BitVec>,
}

impl BlockMetadata {
    /// Assembles metadata, validating bitvector lengths.
    pub fn new(
        row_count: usize,
        column_stats: Vec<ColumnStats>,
        bitvectors: BTreeMap<u32, BitVec>,
    ) -> BlockMetadata {
        for (id, bv) in &bitvectors {
            assert_eq!(
                bv.len(),
                row_count,
                "bitvector for predicate {id} has {} bits for {row_count} rows",
                bv.len()
            );
        }
        BlockMetadata {
            row_count,
            column_stats,
            bitvectors,
        }
    }

    /// The bitvector for one predicate id.
    pub fn bitvec(&self, predicate_id: u32) -> Option<&BitVec> {
        self.bitvectors.get(&predicate_id)
    }

    /// All stored `(predicate id, bitvector)` pairs, ordered by id.
    pub fn bitvectors(&self) -> impl Iterator<Item = (u32, &BitVec)> {
        self.bitvectors.iter().map(|(&id, bv)| (id, bv))
    }

    /// Number of stored bitvectors.
    pub fn bitvector_count(&self) -> usize {
        self.bitvectors.len()
    }

    /// Intersection (AND) of the bitvectors for `predicate_ids` — the
    /// §VI-B skip mask. Returns `None` when any id is missing, which
    /// callers must treat as "cannot skip, scan everything":
    /// a missing bitvector says nothing about which rows qualify.
    pub fn skip_mask(&self, predicate_ids: &[u32]) -> Option<BitVec> {
        let bvs: Vec<&BitVec> = predicate_ids
            .iter()
            .map(|id| self.bitvectors.get(id))
            .collect::<Option<_>>()?;
        BitVec::and_all(&bvs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BlockMetadata {
        let mut bvs = BTreeMap::new();
        bvs.insert(1, BitVec::from_bools(&[true, false, true, false]));
        bvs.insert(2, BitVec::from_bools(&[true, true, false, false]));
        BlockMetadata::new(4, vec![], bvs)
    }

    #[test]
    fn lookup() {
        let m = meta();
        assert_eq!(m.bitvec(1).unwrap().ones_positions(), vec![0, 2]);
        assert!(m.bitvec(9).is_none());
        assert_eq!(m.bitvector_count(), 2);
        assert_eq!(
            m.bitvectors().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn stats_build_a_complete_string_dictionary() {
        let mut b = crate::column::ColumnBuilder::new(crate::schema::DataType::Str);
        for i in 0..100 {
            b.push(Some(&ciao_json::JsonValue::String(format!(
                "lvl-{}",
                i % 3
            ))));
        }
        b.push(None);
        let col = b.finish();
        let stats = ColumnStats::compute(&col);
        assert_eq!(stats.null_count, 1);
        assert_eq!(
            stats.str_dict,
            Some(vec!["lvl-0".into(), "lvl-1".into(), "lvl-2".into()])
        );
        assert!(!stats.str_excludes("lvl-1"));
        assert!(stats.str_excludes("lvl-9"));
        assert!(!stats.str_excludes_substring("vl-2"));
        assert!(stats.str_excludes_substring("zzz"));
    }

    #[test]
    fn high_cardinality_drops_the_dictionary() {
        let mut b = crate::column::ColumnBuilder::new(crate::schema::DataType::Str);
        for i in 0..(STR_DICT_STATS_MAX + 1) {
            b.push(Some(&ciao_json::JsonValue::String(format!("unique-{i}"))));
        }
        let stats = ColumnStats::compute(&b.finish());
        assert_eq!(stats.str_dict, None);
        // No dictionary ⇒ nothing is provably excluded.
        assert!(!stats.str_excludes("anything"));
        assert!(!stats.str_excludes_substring("anything"));
    }

    #[test]
    fn skip_mask_is_intersection() {
        let m = meta();
        let mask = m.skip_mask(&[1, 2]).unwrap();
        assert_eq!(mask.ones_positions(), vec![0]);
        let single = m.skip_mask(&[2]).unwrap();
        assert_eq!(single.ones_positions(), vec![0, 1]);
    }

    #[test]
    fn missing_predicate_yields_none() {
        let m = meta();
        assert!(m.skip_mask(&[1, 99]).is_none());
        assert!(m.skip_mask(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "bits for")]
    fn length_mismatch_rejected() {
        let mut bvs = BTreeMap::new();
        bvs.insert(1, BitVec::zeros(3));
        BlockMetadata::new(4, vec![], bvs);
    }
}
