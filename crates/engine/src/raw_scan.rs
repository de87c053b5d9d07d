//! The scan over parked raw JSON records — the one loop counts and
//! plans share — the positional map that lets it validate each record
//! once, and the typed batches that let the block kernels filter them.
//!
//! Records that partial loading left unconverted are still part of the
//! logical table, so a query the parked side is not ruled out for must
//! consult each one (paper §VI-B, final paragraph) — but it does not
//! owe each a full parse, nor a fresh validation every time. The scan
//! derives once per query the top-level fields the query reads (its
//! WHERE clauses' keys plus its operator's columns) and hands each
//! matching record's values of the operator's columns to the caller's
//! sink: nothing (a count) or a plan's row/group feed.
//!
//! A parked record never changes, so whether it is valid JSON and where
//! each of its top-level values starts never change either. The first
//! scan over an epoch's parked records builds a [`ParkedIndex`] — a
//! positional map (NoDB, Alagiannis et al., SIGMOD 2012) — by
//! validating each record once with [`ciao_json::parse_member_offsets`]:
//! per record a validity flag and the offset of the first occurrence of
//! every top-level key. Every later scan resolves its keys to map slots
//! once per epoch and reads values straight from their offsets,
//! validating nothing again.
//!
//! A fragment handed its schema ([`ParkedFragment::with_schema`]) is
//! read a batch at a time, vectorised as a block is (MonetDB/X100,
//! Boncz et al., CIDR 2005): up to 1024 mapped records' WHERE values are
//! read at their offsets ([`ciao_json::parse_field_at`]) into reused
//! scratch [`ColumnBuilder`]s typed by the schema, the statement's
//! [`BlockFilter`] narrows a selection vector over them with the block
//! kernels, and the operator's columns are read, the same way, for the
//! selected rows only — each fed as a block's cell is. A count adds the
//! selection's length. Warm, such a scan builds no tree and allocates
//! nothing per record: a string or nested WHERE value is copied into
//! its scratch column's one text buffer ([`ciao_columnar::StrColumn`]),
//! which keeps its room from batch to batch. Only a string spelled with
//! an escape costs an allocation, the unescaped copy
//! [`ciao_json::parse_field_at`] makes of it.
//!
//! Everything else is read row at a time: the record's projection onto
//! the statement's keys — built from the map's offsets
//! ([`ciao_json::parse_value_at`]), or by [`ciao_json::parse_projected`],
//! which validates the whole record, for a record the map cannot hold
//! (longer than `u16` offsets reach), an epoch whose map would outgrow
//! its text and a scan handed no map — evaluated by
//! [`ciao_predicate::eval_clause`]. That is the path of a statement
//! whose WHERE keys or operator columns the schema cannot type, and of
//! a mapped record with a WHERE value that would land in its column as
//! another type: there a kernel and `eval_clause` disagree. Both paths
//! hand matches over in record order.
//!
//! All paths are exact: the map marks a record invalid exactly when the
//! full parse errs, and the projected scan is `Err` exactly when the
//! full parse is — a malformed record still matches nothing, as a
//! broken log line should — and each reads the values the full parse
//! would build.

use crate::profile::QueryProfile;
use crate::scan::{BlockFilter, PreparedScan, Survivors};
use ciao_columnar::{ColumnBuilder, DataType, Schema};
use ciao_json::{
    parse_field_at, parse_member_offsets, parse_projected, parse_value_at, FieldValue, JsonValue,
};
use ciao_predicate::{eval_clause, Clause, Query, SimplePredicate};
use ciao_sql::{ColumnRef, SqlType, SqlValue};
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

    /// What the map knows about record `i`.
    fn entry(&self, i: usize) -> Entry {
        self.entries.get(i).copied().unwrap_or(Entry::Unmapped)
    }

    /// Record `i`'s row of value offsets (a mapped record's).
    fn row(&self, i: usize) -> &[u16] {
        &self.offsets[i * self.keys.len()..][..self.keys.len()]
    }

    /// The slot of each of `keys`, or `None` for a key no record of the
    /// epoch holds: what one scan resolves once per epoch.
    fn resolve(&self, keys: &[&str], out: &mut Vec<Option<usize>>) {
        out.clear();
        out.extend(
            keys.iter()
                .map(|&key| self.keys.iter().position(|k| k == key)),
        );
    }

    /// Record `i`'s projection onto the statement's `keys` — whose
    /// `slots` [`ParkedIndex::resolve`] found — or `None` when it is not
    /// valid JSON: the value [`parse_projected`] returns for it. `order`
    /// is scratch space one record leaves for the next.
    fn project<'k>(
        &self,
        i: usize,
        record: &str,
        keys: &[&'k str],
        slots: &[Option<usize>],
        order: &mut Vec<(u16, &'k str)>,
    ) -> Option<JsonValue> {
        match self.entry(i) {
            Entry::Mapped => {}
            Entry::Malformed => return None,
            Entry::Unmapped => return parse_projected(record, keys).ok(),
        }
        let row = self.row(i);
        order.clear();
        order.extend(keys.iter().zip(slots).filter_map(|(&key, &slot)| {
            let at = row[slot?];
            (at != ABSENT).then_some((at, key))
        }));
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

/// One epoch's parked records as the scan reads them: the records, the
/// cell the first scan builds their [`ParkedIndex`] into, and the schema
/// their batches are typed by. The cell must belong to exactly these
/// records; a holder that changes them replaces the cell.
pub struct ParkedFragment<'a, S> {
    records: &'a [S],
    index: Option<&'a OnceLock<ParkedIndex>>,
    schema: Option<&'a Schema>,
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
            schema: None,
        }
    }

    /// Records with no map, each validated by every scan: for a scan
    /// that reads them once.
    pub fn unindexed(records: &'a [S]) -> Self {
        ParkedFragment {
            records,
            index: None,
            schema: None,
        }
    }

    /// The same records, their mapped ones read in typed batches under
    /// `schema` — the schema their columnar siblings are loaded with —
    /// whenever it types every column a statement reads.
    pub fn with_schema(self, schema: &'a Schema) -> Self {
        ParkedFragment {
            schema: Some(schema),
            ..self
        }
    }
}

/// A matching parked record's value for each operator column, by slot
/// of the scan's `inputs`.
pub(crate) type ParkedRow<'r> = &'r dyn Fn(usize) -> SqlValue;

/// Scans every parked record of every fragment under the conjunction
/// `filter` runs, and hands `on_match` (when there is one) each matching
/// record's values of the operator columns `inputs`, in record order.
/// Adds to `profile` the records read (each one, malformed ones too),
/// the matches, each clause's evaluations and passes (the conjunction
/// short-circuits), and sets the fields built per record; `profile`
/// holds one clause entry per clause of `filter`. Returns how many
/// epochs' positional maps the scan built.
///
/// A mapped record of a fragment with a schema joins a batch of up to
/// [`BATCH_ROWS`] when every WHERE value it holds lands in its column
/// as its own JSON type; `filter` then runs the block kernels over the
/// batch, and the operator columns are read for the selected rows only.
/// Every other record — malformed, unmapped, or with a value the column
/// would coerce — and every record of a statement the schema cannot
/// type is read row at a time, through its projection and
/// [`eval_clause`]. The two agree on every record the batch takes: a
/// kernel and [`ciao_predicate::eval_simple`] differ only on a value
/// stored as another type (an int widened into a float column reads
/// false to `x > 2`, and a coercion failure false to `NotNull`).
pub(crate) fn scan_parked<'p, S: AsRef<str> + 'p>(
    fragments: impl IntoIterator<Item = ParkedFragment<'p, S>>,
    filter: &mut BlockFilter<'_>,
    inputs: &[&ColumnRef],
    mut on_match: Option<impl FnMut(ParkedRow<'_>)>,
    profile: &mut QueryProfile,
) -> usize {
    let clauses = filter.clauses();
    // The row path's conjunction runs over both in step.
    assert_eq!(profile.clauses.len(), clauses.len(), "one entry per clause");
    // The WHERE keys first, then the operator's other columns.
    let mut keys: Vec<&str> = Vec::new();
    let clause_keys = clauses
        .iter()
        .flat_map(Clause::disjuncts)
        .map(SimplePredicate::key);
    for key in clause_keys {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let where_keys = keys.len();
    for input in inputs {
        if !keys.contains(&input.name.as_str()) {
            keys.push(&input.name);
        }
    }
    profile.parked_fields_projected = keys.len() as u64;
    let mut index_builds = 0;
    let rows = RowReader {
        clauses,
        keys: &keys,
        inputs,
    };
    let (mut slots, mut order) = (Vec::new(), Vec::new());
    // The batch of the last schema seen; `None` inside when the schema
    // cannot type the statement.
    let mut typed: Option<(&Schema, Option<Batch>)> = None;
    for fragment in fragments {
        if fragment.records.is_empty() {
            continue;
        }
        let index = fragment.index.map(|cell| {
            cell.get_or_init(|| {
                index_builds += 1;
                ParkedIndex::build(fragment.records)
            })
        });
        if let Some(index) = index {
            index.resolve(&keys, &mut slots);
        }
        let batch = match (index, fragment.schema) {
            (Some(index), Some(schema)) if index.is_mapped() => {
                if !typed
                    .as_ref()
                    .is_some_and(|(s, _)| std::ptr::eq(*s, schema))
                {
                    let batch = Batch::new(schema, &keys, where_keys, inputs);
                    typed = Some((schema, batch));
                }
                typed.as_mut().and_then(|(_, batch)| batch.as_mut())
            }
            _ => None,
        };
        let (Some(index), Some(batch)) = (index, batch) else {
            for (i, record) in fragment.records.iter().enumerate() {
                let record = record.as_ref();
                let value = match index {
                    Some(index) => index.project(i, record, &keys, &slots, &mut order),
                    None => parse_projected(record, &keys).ok(),
                };
                rows.read(profile, value, &mut on_match);
            }
            continue;
        };
        let epoch = Epoch {
            records: fragment.records,
            index,
            slots: &slots,
        };
        for (i, record) in fragment.records.iter().enumerate() {
            match index.entry(i) {
                // A malformed parked record cannot match anything.
                Entry::Malformed => profile.parked_rows_parsed += 1,
                Entry::Mapped if batch.push(i, record.as_ref(), index.row(i), &slots) => {}
                _ => batch.rest.push(i),
            }
            if batch.rows.len() + batch.rest.len() == BATCH_ROWS {
                batch.flush(filter, &epoch, &rows, profile, &mut order, &mut on_match);
            }
        }
        batch.flush(filter, &epoch, &rows, profile, &mut order, &mut on_match);
    }
    index_builds
}

/// Records a parked batch spans at most: a block's worth.
const BATCH_ROWS: usize = 1024;

/// What reading one record row at a time needs: the conjunction, the
/// keys a projection builds (the WHERE keys first), and the operator
/// columns a match hands over.
struct RowReader<'r> {
    clauses: &'r [Clause],
    keys: &'r [&'r str],
    inputs: &'r [&'r ColumnRef],
}

impl RowReader<'_> {
    /// Counts one record read row at a time — `value` is its projection,
    /// `None` when it is malformed — evaluates the conjunction on it,
    /// short-circuiting, and hands a match to `on_match`.
    fn read(
        &self,
        profile: &mut QueryProfile,
        value: Option<JsonValue>,
        on_match: &mut Option<impl FnMut(ParkedRow<'_>)>,
    ) {
        profile.parked_rows_parsed += 1;
        // A malformed parked record cannot match anything.
        let Some(value) = value else {
            return;
        };
        let mut conjunction = self.clauses.iter().zip(&mut profile.clauses);
        if conjunction.all(|(clause, counts)| {
            let pass = eval_clause(clause, &value);
            counts.rows_evaluated += 1;
            counts.rows_passed += u64::from(pass);
            pass
        }) {
            profile.parked_rows_matched += 1;
            if let Some(on_match) = on_match {
                let inputs = self.inputs;
                on_match(&|slot| {
                    SqlValue::from_json(value.get(&inputs[slot].name), inputs[slot].ty)
                });
            }
        }
    }
}

/// One mapped epoch as its batches read it.
struct Epoch<'e, S> {
    records: &'e [S],
    index: &'e ParkedIndex,
    /// The map slot of each of the scan's keys.
    slots: &'e [Option<usize>],
}

/// The scratch columns one statement reads parked records into, a batch
/// at a time: one per WHERE key, typed by the schema, filled for every
/// record the batch takes; and one per operator column, which holds the
/// one selected row being handed over. Never finished: they are
/// truncated, keeping their room.
struct Batch {
    /// One column per WHERE key, in the scan's key order.
    filter_cols: Vec<ColumnBuilder>,
    /// One one-row column per operator input, and the scan key it reads.
    input_cols: Vec<(ColumnBuilder, usize)>,
    /// The epoch position of each batch row, ascending.
    rows: Vec<usize>,
    /// The positions of the records since the last flush read row at a
    /// time, ascending.
    rest: Vec<usize>,
    /// Where a nested value's text is written.
    json: String,
}

impl Batch {
    /// The batch for a statement whose WHERE clauses read the first
    /// `where_keys` of `keys` and whose operator reads `inputs` (each
    /// one of `keys`), or `None` when `schema` lacks one of them or
    /// types an input other than the plan does.
    fn new(
        schema: &Schema,
        keys: &[&str],
        where_keys: usize,
        inputs: &[&ColumnRef],
    ) -> Option<Batch> {
        let filter_cols = keys[..where_keys]
            .iter()
            .map(|&key| {
                let mut column = ColumnBuilder::new(schema.field(key)?.dtype);
                column.reserve(BATCH_ROWS);
                Some(column)
            })
            .collect::<Option<_>>()?;
        let input_cols = inputs
            .iter()
            .map(|input| {
                let dtype = schema.field(&input.name)?.dtype;
                let key = keys.iter().position(|&k| k == input.name)?;
                (SqlType::from_data_type(dtype) == input.ty)
                    .then(|| (ColumnBuilder::new(dtype), key))
            })
            .collect::<Option<_>>()?;
        Some(Batch {
            filter_cols,
            input_cols,
            rows: Vec::with_capacity(BATCH_ROWS),
            rest: Vec::new(),
            json: String::new(),
        })
    }

    /// Adds mapped record `i` — `offsets` is its row of the map, and
    /// `slots` the map slot of each of the scan's keys — unless one of
    /// its WHERE values would land in its column as another type.
    fn push(&mut self, i: usize, record: &str, offsets: &[u16], slots: &[Option<usize>]) -> bool {
        let json = &mut self.json;
        let typed = self
            .filter_cols
            .iter_mut()
            .zip(slots)
            .all(|(column, slot)| {
                let at = slot.map_or(ABSENT, |s| offsets[s]);
                if at == ABSENT {
                    column.push_null();
                    return true;
                }
                match parse_field_at(record, usize::from(at), json) {
                    Ok(value) if keeps_its_type(column.dtype(), &value) => {
                        column.push_field(value);
                        true
                    }
                    _ => false,
                }
            });
        if typed {
            self.rows.push(i);
        } else {
            let rows = self.rows.len();
            for column in &mut self.filter_cols {
                column.truncate(rows);
            }
        }
        typed
    }

    /// Runs the conjunction over the batch and reads the records since
    /// the last flush it does not hold row at a time, handing
    /// `on_match` every match in record order; then empties the batch.
    fn flush<'r, S: AsRef<str>, F: FnMut(ParkedRow<'_>)>(
        &mut self,
        filter: &mut BlockFilter<'_>,
        epoch: &Epoch<'_, S>,
        reader: &RowReader<'r>,
        profile: &mut QueryProfile,
        order: &mut Vec<(u16, &'r str)>,
        on_match: &mut Option<F>,
    ) {
        let Batch {
            filter_cols,
            input_cols,
            rows,
            rest,
            json,
        } = self;
        let keys = &reader.keys[..filter_cols.len()];
        let tally = filter.run_columns(rows.len(), &Survivors::All, |key| {
            let column = &filter_cols[keys.iter().position(|&k| k == key)?];
            Some((column.values(), column.validity()))
        });
        profile.parked_rows_parsed += rows.len() as u64;
        profile.parked_rows_matched += tally.selected.len() as u64;
        for (counts, clause) in profile.clauses.iter_mut().zip(tally.clauses) {
            counts.rows_evaluated += clause.evaluated;
            counts.rows_passed += clause.passed;
        }
        // A count reads no column: only its matches' number matters.
        let matches = if on_match.is_some() {
            tally.selected
        } else {
            &[]
        };
        let mut matches = matches.iter().map(|&row| rows[row as usize]).peekable();
        // Hands over the batch's matches before record `upto`, reading
        // the operator's columns for each.
        let mut feed = |upto: usize, on_match: &mut Option<F>| {
            while let Some(i) = matches.next_if(|&i| i < upto) {
                let (record, offsets) = (epoch.records[i].as_ref(), epoch.index.row(i));
                for (column, key) in input_cols.iter_mut() {
                    column.truncate(0);
                    match epoch.slots[*key].map_or(ABSENT, |s| offsets[s]) {
                        ABSENT => column.push_null(),
                        // A member of a record the map validated: it
                        // parses.
                        at => match parse_field_at(record, usize::from(at), json) {
                            Ok(value) => column.push_field(value),
                            Err(_) => column.push_null(),
                        },
                    }
                }
                if let Some(on_match) = on_match {
                    on_match(&|slot: usize| SqlValue::from_cell(input_cols[slot].0.cell(0)));
                }
            }
        };
        for &i in rest.iter() {
            feed(i, on_match);
            let record = epoch.records[i].as_ref();
            let value = epoch
                .index
                .project(i, record, reader.keys, epoch.slots, order);
            reader.read(profile, value, on_match);
        }
        feed(usize::MAX, on_match);
        for column in filter_cols.iter_mut() {
            column.truncate(0);
        }
        rows.clear();
        rest.clear();
    }
}

/// Whether `value` lands in a `dtype` column as its own JSON type: what
/// lets the block kernels answer for it exactly as
/// [`ciao_predicate::eval_simple`] does.
fn keeps_its_type(dtype: DataType, value: &FieldValue<'_>) -> bool {
    matches!(
        (dtype, value),
        (_, FieldValue::Null)
            | (DataType::Str, FieldValue::Str(_))
            | (DataType::Int, FieldValue::Int(_))
            | (DataType::Float, FieldValue::Float(_))
            | (DataType::Bool, FieldValue::Bool(_))
            | (DataType::Json, FieldValue::Json(_))
    )
}

/// Counts parked records satisfying `query`, into the profile's
/// `parked_rows_matched`.
///
/// Unparseable records are counted in `parked_rows_parsed` but never
/// match.
pub fn scan_raw_records<S: AsRef<str>>(records: &[S], query: &Query) -> QueryProfile {
    let mut profile = PreparedScan::default().profile(&query.clauses, |_| false);
    scan_parked(
        [ParkedFragment::unindexed(records)],
        &mut BlockFilter::new(&query.clauses),
        &[],
        None::<fn(ParkedRow<'_>)>,
        &mut profile,
    );
    profile
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
        assert_eq!(m.parked_rows_matched, 2);
        assert_eq!(m.parked_rows_parsed, 3);
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
        assert_eq!(m.parked_rows_matched, 1);
        assert_eq!(m.parked_rows_parsed, 4);
    }

    #[test]
    fn projects_each_field_once_and_counts_per_clause() {
        let records = [
            r#"{"stars":5,"city":"a","name":"x"}"#,
            r#"{"stars":5,"city":"b","name":"y"}"#,
            r#"{"stars":1,"city":"a","name":"z"}"#,
        ];
        let q = parse_query("q", r#"stars = 5 AND city IN ("a","c")"#).unwrap();
        let schema = Schema::infer(&records.map(|r| ciao_json::parse(r).unwrap())).unwrap();
        let column = |name: &str| ColumnRef {
            name: name.to_owned(),
            index: schema.index_of(name).unwrap(),
            ty: SqlType::Str,
        };
        let columns = [column("name"), column("city")];
        let inputs: Vec<&ColumnRef> = columns.iter().collect();
        let cell = OnceLock::new();
        for fragment in [
            ParkedFragment::unindexed(&records),
            ParkedFragment::indexed(&records, &cell),
            ParkedFragment::indexed(&records, &cell),
            ParkedFragment::indexed(&records, &cell).with_schema(&schema),
        ] {
            let mut seen = Vec::new();
            let mut filter = BlockFilter::new(&q.clauses);
            let on_match = |row: ParkedRow<'_>| seen.push((row(0), row(1)));
            let mut profile = PreparedScan::default().profile(&q.clauses, |_| false);
            scan_parked(
                [fragment],
                &mut filter,
                &inputs,
                Some(on_match),
                &mut profile,
            );
            let str = |s: &str| SqlValue::Str(s.to_owned());
            assert_eq!(seen, vec![(str("x"), str("a"))]);
            assert_eq!(profile.parked_fields_projected, 3);
            let counts: Vec<_> = profile
                .clauses
                .iter()
                .map(|c| (c.rows_evaluated, c.rows_passed))
                .collect();
            assert_eq!(counts, vec![(3, 2), (2, 1)]);
        }
    }

    #[test]
    fn empty_store() {
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records::<String>(&[], &q);
        assert_eq!(m.parked_rows_matched, 0);
        assert_eq!(m.parked_rows_parsed, 0);
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
        let run = |fragment| {
            let mut filter = BlockFilter::new(&q.clauses);
            let mut profile = PreparedScan::default().profile(&q.clauses, |_| false);
            let no_feed = None::<fn(ParkedRow<'_>)>;
            let builds = scan_parked([fragment], &mut filter, &[], no_feed, &mut profile);
            (builds, profile)
        };
        let cold = run(ParkedFragment::indexed(&records, &cell));
        let warm = run(ParkedFragment::indexed(&records, &cell));
        assert_eq!((cold.0, warm.0), (1, 0));
        assert_eq!(cold.1, warm.1);
        assert_eq!(warm.1.parked_rows_parsed, 3);
        assert_eq!(warm.1.parked_rows_matched, 1);
        // An empty fragment builds nothing.
        let empty = OnceLock::new();
        assert_eq!(run(ParkedFragment::indexed(&[], &empty)).0, 0);
        assert!(empty.get().is_none());
    }
}
