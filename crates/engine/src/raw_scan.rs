//! The scan over parked raw JSON records — the one loop counts and
//! plans share — and the positional map that lets it validate each
//! record once.
//!
//! Records that partial loading left unconverted are still part of the
//! logical table, so a query the parked side is not ruled out for must
//! consult each one (paper §VI-B, final paragraph) — but it does not
//! owe each a full parse, nor a fresh validation every time. The scan
//! derives once per query the top-level fields the query reads (its
//! WHERE clauses' keys plus its operator's columns) and hands each
//! record's projection of them to the caller's sink when it matches:
//! nothing (a count) or a plan's row/group feed.
//!
//! A parked record never changes, so whether it is valid JSON and where
//! each of its top-level values starts never change either. The first
//! scan over an epoch's parked records builds a [`ParkedIndex`] — a
//! positional map (NoDB, Alagiannis et al., SIGMOD 2012) — by
//! validating each record once with [`ciao_json::parse_member_offsets`]:
//! per record a validity flag and the offset of the first occurrence of
//! every top-level key. Every later scan resolves its keys to map slots
//! once per epoch and builds each value straight from its offset
//! ([`ciao_json::parse_value_at`]), validating nothing again. A record
//! the map cannot hold (longer than `u16` offsets reach), an epoch whose
//! map would outgrow its text, and a scan handed no map at all read
//! through [`ciao_json::parse_projected`], which validates the whole
//! record and builds only those fields.
//!
//! Both paths are exact: the map marks a record invalid exactly when
//! the full parse errs, and the projected scan is `Err` exactly when
//! the full parse is — a malformed record still matches nothing, as a
//! broken log line should — and each builds the values, in the member
//! order, the full parse would.

use crate::metrics::ScanMetrics;
use ciao_json::{parse_member_offsets, parse_projected, parse_value_at, JsonValue};
use ciao_predicate::{eval_clause, Clause, Query, SimplePredicate};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The offset of a key a record does not have.
const ABSENT: u16 = u16::MAX;

/// Records longer than this are read by the projected scan: every
/// offset into a shorter one fits a `u16` below [`ABSENT`].
const MAX_MAPPED_LEN: usize = ABSENT as usize;

/// What a [`ParkedIndex`] knows about one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Valid; its row of offsets is filled in.
    Mapped,
    /// Not valid JSON: matches nothing.
    Malformed,
    /// Not in the map; the projected scan reads it.
    Unmapped,
}

/// A positional map over one epoch's parked records: which are valid,
/// and where in each the first occurrence of every top-level key's
/// value starts. Built once, by the first scan that reads the records
/// ([`ParkedIndex::build`]); it addresses records by their position in
/// the epoch, so it stays right for as long as those records do.
#[derive(Debug, Clone, Default)]
pub struct ParkedIndex {
    /// Every top-level key the epoch's records hold; a key's slot is
    /// its position.
    keys: Vec<String>,
    /// One entry per record, in record order; empty when the epoch has
    /// no map and every record is read by the projected scan.
    entries: Vec<Entry>,
    /// One row of `keys.len()` record-relative value offsets per
    /// record, [`ABSENT`] where the record lacks the key.
    offsets: Vec<u16>,
}

impl ParkedIndex {
    /// Validates every record once, as [`ciao_json::parse`] would, and
    /// maps it. An epoch whose map would take more bytes than its
    /// records' text (too many distinct keys for the records' size)
    /// gets none: every record is then read by the projected scan.
    pub fn build<S: AsRef<str>>(records: &[S]) -> ParkedIndex {
        let text: usize = records.iter().map(|r| r.as_ref().len()).sum();
        let mut keys = KeyDict::default();
        let mut entries = Vec::with_capacity(records.len());
        // Rows are `stride` wide; the stride at least doubles when a key
        // first appears past it, so late keys cost amortised O(1) each.
        let (mut stride, mut offsets) = (0, Vec::new());
        let mut members: Vec<(usize, u16)> = Vec::new();
        for record in records {
            let record = record.as_ref();
            members.clear();
            let entry = if record.len() > MAX_MAPPED_LEN {
                Entry::Unmapped
            } else {
                let mut guess = 0;
                let scanned = parse_member_offsets(record, |key, at| {
                    let slot = keys.slot(key, guess);
                    guess = slot + 1;
                    // `at < record.len() <= MAX_MAPPED_LEN`.
                    members.push((slot, at as u16));
                });
                if scanned.is_ok() {
                    Entry::Mapped
                } else {
                    members.clear();
                    Entry::Malformed
                }
            };
            if keys.names.len() > stride {
                if records.len() * (2 * keys.names.len() + 1) > text {
                    return ParkedIndex::default();
                }
                let wider = keys.names.len().max(2 * stride);
                offsets = restride(&offsets, entries.len(), stride, wider, records.len());
                stride = wider;
            }
            let row = offsets.len();
            offsets.resize(row + stride, ABSENT);
            for &(slot, at) in &members {
                // The first occurrence of a key is its value.
                let cell = &mut offsets[row + slot];
                if *cell == ABSENT {
                    *cell = at;
                }
            }
            entries.push(entry);
        }
        let width = keys.names.len();
        if stride != width {
            offsets = restride(&offsets, entries.len(), stride, width, records.len());
        }
        ParkedIndex {
            keys: keys.names,
            entries,
            offsets,
        }
    }

    /// Heap bytes the map holds: its key text, offsets and flags.
    pub fn bytes(&self) -> usize {
        self.keys.iter().map(String::len).sum::<usize>()
            + self.offsets.len() * std::mem::size_of::<u16>()
            + self.entries.len()
    }

    /// Whether the map holds any record (an epoch too wide to map, or
    /// of records all too long, holds none).
    pub fn is_mapped(&self) -> bool {
        self.entries.contains(&Entry::Mapped)
    }

    /// The slot of each of `keys` the epoch's records hold, paired with
    /// the key: what one scan resolves once per epoch.
    fn resolve<'k>(&self, keys: &[&'k str], out: &mut Vec<(usize, &'k str)>) {
        out.clear();
        out.extend(
            keys.iter()
                .filter_map(|&key| Some((self.keys.iter().position(|k| k == key)?, key))),
        );
    }

    /// Record `i`'s projection onto the statement's keys — `slots`, as
    /// [`ParkedIndex::resolve`] left them — or `None` when it is not
    /// valid JSON: the value [`parse_projected`] returns for it.
    /// `order` is scratch space one record leaves for the next.
    fn project<'k>(
        &self,
        i: usize,
        record: &str,
        keys: &[&str],
        slots: &[(usize, &'k str)],
        order: &mut Vec<(u16, &'k str)>,
    ) -> Option<JsonValue> {
        match self.entries.get(i) {
            Some(Entry::Mapped) => {}
            Some(Entry::Malformed) => return None,
            Some(Entry::Unmapped) | None => return parse_projected(record, keys).ok(),
        }
        let row = &self.offsets[i * self.keys.len()..][..self.keys.len()];
        order.clear();
        order.extend(
            slots
                .iter()
                .filter(|&&(slot, _)| row[slot] != ABSENT)
                .map(|&(slot, key)| (row[slot], key)),
        );
        // The projected scan returns the members in record order.
        order.sort_unstable_by_key(|&(at, _)| at);
        let mut pairs = Vec::with_capacity(order.len());
        for &(at, key) in order.iter() {
            pairs.push((
                key.to_owned(),
                parse_value_at(record, usize::from(at)).ok()?,
            ));
        }
        Some(JsonValue::Object(pairs))
    }
}

/// The first `rows` rows of `offsets`, `from` slots wide, copied into
/// `to`-wide rows (cut, or padded with [`ABSENT`]), with room for
/// `capacity` rows.
fn restride(offsets: &[u16], rows: usize, from: usize, to: usize, capacity: usize) -> Vec<u16> {
    let mut copy = Vec::with_capacity(capacity * to);
    let keep = from.min(to);
    for row in 0..rows {
        copy.extend_from_slice(&offsets[row * from..][..keep]);
        copy.resize(copy.len() + to - keep, ABSENT);
    }
    copy
}

/// The dictionary a map's build grows: each key's slot, tried first at
/// the slot after the previous member's, which is where a record whose
/// members follow the first one's order finds it (Mison's speculation,
/// Li et al., VLDB 2017).
#[derive(Default)]
struct KeyDict {
    names: Vec<String>,
    slots: HashMap<String, usize>,
}

impl KeyDict {
    fn slot(&mut self, key: &str, guess: usize) -> usize {
        if self.names.get(guess).is_some_and(|name| name == key) {
            return guess;
        }
        if let Some(&slot) = self.slots.get(key) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(key.to_owned());
        self.slots.insert(key.to_owned(), slot);
        slot
    }
}

/// One epoch's parked records as the scan reads them: the records, and
/// the cell the first scan builds their [`ParkedIndex`] into. The cell
/// must belong to exactly these records; a holder that changes them
/// replaces the cell.
pub struct ParkedFragment<'a, S> {
    records: &'a [S],
    index: Option<&'a OnceLock<ParkedIndex>>,
}

impl<S> Clone for ParkedFragment<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for ParkedFragment<'_, S> {}

impl<'a, S: AsRef<str>> ParkedFragment<'a, S> {
    /// Records read through the map in `index`, which the first scan
    /// over them builds.
    pub fn indexed(records: &'a [S], index: &'a OnceLock<ParkedIndex>) -> Self {
        ParkedFragment {
            records,
            index: Some(index),
        }
    }

    /// Records with no map, each validated by every scan: for a scan
    /// that reads them once.
    pub fn unindexed(records: &'a [S]) -> Self {
        ParkedFragment {
            records,
            index: None,
        }
    }
}

/// What one pass over the parked records did.
pub(crate) struct ParkedScan {
    /// Scan counters; every record counts as parsed and scanned.
    pub metrics: ScanMetrics,
    /// Per clause, in order: records it was evaluated on and records
    /// that passed it (the conjunction short-circuits).
    pub clause_counts: Vec<(u64, u64)>,
    /// How many distinct fields the scan built per record.
    pub fields_projected: usize,
    /// Epochs whose positional map this scan built.
    pub index_builds: usize,
}

/// Scans every parked record of every fragment, projecting the fields
/// `clauses` and `columns` name, and calls `on_match` with the
/// projection of each record that satisfies every clause.
pub(crate) fn scan_parked<'p, S: AsRef<str> + 'p>(
    fragments: impl IntoIterator<Item = ParkedFragment<'p, S>>,
    clauses: &[Clause],
    columns: &[String],
    mut on_match: impl FnMut(&JsonValue),
) -> ParkedScan {
    let mut keys: Vec<&str> = Vec::new();
    let clause_keys = clauses
        .iter()
        .flat_map(Clause::disjuncts)
        .map(SimplePredicate::key);
    for key in clause_keys.chain(columns.iter().map(String::as_str)) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut scan = ParkedScan {
        metrics: ScanMetrics::default(),
        clause_counts: vec![(0, 0); clauses.len()],
        fields_projected: keys.len(),
        index_builds: 0,
    };
    let (mut slots, mut order) = (Vec::new(), Vec::new());
    for fragment in fragments {
        if fragment.records.is_empty() {
            continue;
        }
        let index = fragment.index.map(|cell| {
            cell.get_or_init(|| {
                scan.index_builds += 1;
                ParkedIndex::build(fragment.records)
            })
        });
        if let Some(index) = index {
            index.resolve(&keys, &mut slots);
        }
        for (i, record) in fragment.records.iter().enumerate() {
            let record = record.as_ref();
            scan.metrics.records_parsed += 1;
            scan.metrics.rows_scanned += 1;
            let value = match index {
                Some(index) => index.project(i, record, &keys, &slots, &mut order),
                None => parse_projected(record, &keys).ok(),
            };
            // A malformed parked record cannot match anything.
            let Some(value) = value else {
                continue;
            };
            let mut conjunction = clauses.iter().zip(&mut scan.clause_counts);
            if conjunction.all(|(clause, (evaluated, passed))| {
                let pass = eval_clause(clause, &value);
                *evaluated += 1;
                *passed += u64::from(pass);
                pass
            }) {
                scan.metrics.rows_matched += 1;
                on_match(&value);
            }
        }
    }
    scan
}

/// Counts parked records satisfying `query`.
///
/// Unparseable records are counted in `records_parsed` but never match.
pub fn scan_raw_records<S: AsRef<str>>(records: &[S], query: &Query) -> ScanMetrics {
    scan_parked(
        [ParkedFragment::unindexed(records)],
        &query.clauses,
        &[],
        |_| {},
    )
    .metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_predicate::parse_query;

    #[test]
    fn counts_matches() {
        let records = vec![
            r#"{"stars":5}"#.to_owned(),
            r#"{"stars":3}"#.to_owned(),
            r#"{"stars":5,"x":1}"#.to_owned(),
        ];
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records(&records, &q);
        assert_eq!(m.rows_matched, 2);
        assert_eq!(m.records_parsed, 3);
    }

    #[test]
    fn malformed_records_never_match() {
        let records = vec![
            "not json".to_owned(),
            r#"{"stars":5}"#.to_owned(),
            r#"{"stars":"#.to_owned(),
            // Malformed in a field the query never reads.
            r#"{"stars":5,"x":tru}"#.to_owned(),
        ];
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records(&records, &q);
        assert_eq!(m.rows_matched, 1);
        assert_eq!(m.records_parsed, 4);
    }

    #[test]
    fn projects_each_field_once_and_counts_per_clause() {
        let records = [
            r#"{"stars":5,"city":"a","name":"x"}"#,
            r#"{"stars":5,"city":"b","name":"y"}"#,
            r#"{"stars":1,"city":"a","name":"z"}"#,
        ];
        let q = parse_query("q", r#"stars = 5 AND city IN ("a","c")"#).unwrap();
        let cell = OnceLock::new();
        let columns = ["name".to_owned(), "city".to_owned()];
        for fragment in [
            ParkedFragment::unindexed(&records),
            ParkedFragment::indexed(&records, &cell),
            ParkedFragment::indexed(&records, &cell),
        ] {
            let mut seen = Vec::new();
            let scan = scan_parked([fragment], &q.clauses, &columns, |value| {
                assert_eq!(value.as_object().unwrap().len(), 3);
                seen.push(value.get("name").unwrap().as_str() == Some("x"));
            });
            assert_eq!(seen, vec![true]);
            assert_eq!(scan.fields_projected, 3);
            assert_eq!(scan.clause_counts, vec![(3, 2), (2, 1)]);
        }
    }

    #[test]
    fn empty_store() {
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records::<String>(&[], &q);
        assert_eq!(m.rows_matched, 0);
        assert_eq!(m.records_parsed, 0);
    }

    /// What the map reads for each record and key set, against the
    /// projected scan it stands in for.
    fn assert_map_reads_as_projected(records: &[String], key_sets: &[&[&str]]) -> ParkedIndex {
        let index = ParkedIndex::build(records);
        let (mut slots, mut order) = (Vec::new(), Vec::new());
        for keys in key_sets {
            index.resolve(keys, &mut slots);
            for (i, record) in records.iter().enumerate() {
                assert_eq!(
                    index.project(i, record, keys, &slots, &mut order),
                    parse_projected(record, keys).ok(),
                    "{keys:?} of {record:?}"
                );
            }
        }
        index
    }

    #[test]
    fn the_map_reads_what_the_projected_scan_builds() {
        let records: Vec<String> = [
            r#"{"a":1,"b":"x","c":[1,{"d":2}]}"#,
            // Members out of the first record's order, and a key only
            // this record has.
            r#" { "c" : null , "a" : -0, "e": 2.50 } "#,
            // Duplicates (the first wins) and escaped keys.
            r#"{"a":1,"a":2,"b":"first","b":"late"}"#,
            r#"{"\u0061":2,"a":3,"b\u0020":"spaced"}"#,
            // Malformed, also in a key no statement reads.
            r#"{"a":1,"z":tru}"#,
            r#"{"a":1"#,
            // Not objects: read as `{}`.
            "[1,2]",
            "7",
            "{}",
        ]
        .map(str::to_owned)
        .to_vec();
        let index = assert_map_reads_as_projected(
            &records,
            &[&["a"], &["b", "a"], &["c", "e", "b ", "absent"], &[]],
        );
        assert!(index.is_mapped());
        assert_eq!(index.keys, ["a", "b", "c", "e", "b ", "z"]);
        assert_eq!(
            index
                .entries
                .iter()
                .filter(|&&e| e == Entry::Malformed)
                .count(),
            2
        );
        assert_eq!(index.offsets.len(), records.len() * index.keys.len());
    }

    #[test]
    fn long_records_and_wide_epochs_fall_back_to_the_projected_scan() {
        let long = format!(r#"{{"a":1,"pad":"{}","b":2}}"#, "x".repeat(70_000));
        let records = vec![r#"{"a":3}"#.to_owned(), long, r#"{"b":4}"#.to_owned()];
        let index = assert_map_reads_as_projected(&records, &[&["a", "b"]]);
        assert_eq!(
            index.entries,
            [Entry::Mapped, Entry::Unmapped, Entry::Mapped]
        );

        // Each record brings keys of its own: two bytes per key per
        // record would outgrow the text, so the epoch gets no map.
        let records: Vec<String> = (0..50)
            .map(|i| format!(r#"{{"k{i}a":1,"k{i}b":2,"k{i}c":3}}"#))
            .collect();
        let index = assert_map_reads_as_projected(&records, &[&["k7a", "k9c"]]);
        assert!(!index.is_mapped());
        assert_eq!(index.bytes(), 0);
    }

    #[test]
    fn keys_that_first_appear_late_widen_every_row() {
        let records: Vec<String> = (0..40)
            .map(|i| format!(r#"{{"k{}":{i},"id":{i}}}"#, i / 8))
            .collect();
        let index = assert_map_reads_as_projected(&records, &[&["k0", "k4", "id"]]);
        assert_eq!(index.keys.len(), 6);
        assert_eq!(index.offsets.len(), 40 * 6);
    }

    #[test]
    fn the_first_indexed_scan_builds_the_map_and_later_ones_reuse_it() {
        let records = [r#"{"stars":5}"#, r#"{"stars":2}"#, "oops"];
        let q = parse_query("q", "stars = 5").unwrap();
        let cell = OnceLock::new();
        let run = |fragment| scan_parked([fragment], &q.clauses, &[], |_| {});
        let cold = run(ParkedFragment::indexed(&records, &cell));
        let warm = run(ParkedFragment::indexed(&records, &cell));
        assert_eq!((cold.index_builds, warm.index_builds), (1, 0));
        assert_eq!(cold.metrics, warm.metrics);
        assert_eq!(warm.metrics.records_parsed, 3);
        assert_eq!(warm.metrics.rows_matched, 1);
        // An empty fragment builds nothing.
        let empty = OnceLock::new();
        assert_eq!(run(ParkedFragment::indexed(&[], &empty)).index_builds, 0);
        assert!(empty.get().is_none());
    }
}
