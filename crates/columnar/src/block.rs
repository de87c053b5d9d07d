//! Data blocks (row groups).

use crate::column::{Cell, Column, ColumnBuilder};
use crate::metadata::{BlockMetadata, ColumnStats};
use crate::schema::Schema;
use ciao_bitvec::BitVec;
use ciao_json::{parse_fields, FieldKeys, JsonValue, ParseError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One immutable row group: a column chunk per schema field plus
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    metadata: BlockMetadata,
}

impl Block {
    /// Assembles a block, checking schema/column consistency.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>, metadata: BlockMetadata) -> Block {
        assert_eq!(columns.len(), schema.len(), "column count mismatch");
        for (col, field) in columns.iter().zip(schema.fields()) {
            assert_eq!(
                col.dtype(),
                field.dtype,
                "column `{}` type mismatch",
                field.name
            );
            assert_eq!(
                col.len(),
                metadata.row_count,
                "column `{}` row count",
                field.name
            );
        }
        Block {
            schema,
            columns,
            metadata,
        }
    }

    /// Rows in the block.
    pub fn row_count(&self) -> usize {
        self.metadata.row_count
    }

    /// The block's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column chunk by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column chunk by field name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// One cell by field name; `Cell::Null` for unknown fields (the
    /// field simply never appeared in this table). Every call searches
    /// the schema for `field` by name, so a scan must not call this per
    /// row: it resolves each column once per block
    /// ([`Schema::index_of`], [`Block::column_by_name`]) and reads the
    /// typed column.
    pub fn cell(&self, row: usize, field: &str) -> Cell<'_> {
        match self.schema.index_of(field) {
            Some(i) => self.columns[i].cell(row),
            None => Cell::Null,
        }
    }

    /// Block metadata (bitvectors, stats).
    pub fn metadata(&self) -> &BlockMetadata {
        &self.metadata
    }

    /// Reconstructs row `row` as a JSON object (NULL cells omitted, so
    /// the record round-trips the way the original sparse log line was
    /// written).
    pub fn to_record(&self, row: usize) -> JsonValue {
        let pairs = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let cell = self.columns[i].cell_json(row);
                if cell.is_null() {
                    None
                } else {
                    Some((f.name.clone(), cell))
                }
            })
            .collect();
        JsonValue::Object(pairs)
    }
}

/// Accumulates rows (plus per-predicate bits) into a block.
///
/// Rows arrive as record text ([`BlockBuilder::push_text`], what
/// loading uses: each column a schema field names is appended straight
/// from the scan, with no tree in between) or as an already parsed
/// record ([`BlockBuilder::push_record`], for fixtures and as the
/// oracle `push_text` is tested against). Both coerce each value the
/// same way and yield equal blocks for the same record.
#[derive(Debug)]
pub struct BlockBuilder {
    schema: Arc<Schema>,
    builders: Vec<ColumnBuilder>,
    /// The schema's field names, indexed for [`parse_fields`].
    keys: FieldKeys,
    /// One bitvector per pushed predicate, in construction order.
    bits: Vec<(u32, BitVec)>,
    rows: usize,
    /// Rows to make room for when the first row arrives.
    capacity: usize,
}

impl BlockBuilder {
    /// Creates a builder for a schema and the set of pushed predicate
    /// ids whose bits each row will carry.
    pub fn new(schema: Arc<Schema>, predicate_ids: &[u32]) -> BlockBuilder {
        Self::with_capacity(schema, predicate_ids, 0)
    }

    /// [`BlockBuilder::new`] for a block that will hold about `rows`
    /// rows: the first row makes room for all of them, so appending
    /// never reallocates a column, and [`BlockBuilder::finish`] gives
    /// back what a shorter block left unused.
    pub(crate) fn with_capacity(
        schema: Arc<Schema>,
        predicate_ids: &[u32],
        rows: usize,
    ) -> BlockBuilder {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype))
            .collect();
        let keys = FieldKeys::new(schema.fields().iter().map(|f| f.name.as_str()));
        BlockBuilder {
            schema,
            builders,
            keys,
            bits: predicate_ids
                .iter()
                .map(|&id| (id, BitVec::new()))
                .collect(),
            rows: 0,
            capacity: rows,
        }
    }

    /// Appends one record from its text: the value of each schema
    /// field the record has (its first occurrence), coerced as
    /// [`ColumnBuilder::push_field`] coerces it, and NULL for each it
    /// lacks; `bit(k)` is the row's bit for the `k`-th predicate id
    /// given at construction.
    ///
    /// `Err` exactly when [`ciao_json::parse`] rejects `text`, and
    /// then nothing was appended: the builder is as it was before the
    /// call. A record whose top level is not an object is a row of
    /// NULLs, as [`BlockBuilder::push_record`] makes it.
    pub fn push_text(&mut self, text: &str, bit: impl Fn(usize) -> bool) -> Result<(), ParseError> {
        let rows = self.rows;
        if rows == 0 {
            self.reserve();
        }
        let builders = &mut self.builders;
        if let Err(e) = parse_fields(text, &mut self.keys, |i, value| {
            builders[i].push_field(value)
        }) {
            for column in builders {
                column.truncate(rows);
            }
            return Err(e);
        }
        for column in builders.iter_mut().filter(|c| c.len() == rows) {
            column.push_null();
        }
        for (k, (_, bv)) in self.bits.iter_mut().enumerate() {
            bv.push(bit(k));
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends one parsed record with its predicate bits. `bits` must
    /// cover exactly the ids declared at construction.
    pub fn push_record(&mut self, record: &JsonValue, bits: &BTreeMap<u32, bool>) {
        assert_eq!(bits.len(), self.bits.len(), "predicate bit arity mismatch");
        if self.rows == 0 {
            self.reserve();
        }
        for (i, field) in self.schema.fields().iter().enumerate() {
            self.builders[i].push(record.get(&field.name));
        }
        for (id, bv) in &mut self.bits {
            let bit = *bits
                .get(id)
                .unwrap_or_else(|| panic!("missing bit for predicate {id}"));
            bv.push(bit);
        }
        self.rows += 1;
    }

    fn reserve(&mut self) {
        for column in &mut self.builders {
            column.reserve(self.capacity);
        }
        for (_, bv) in &mut self.bits {
            bv.reserve(self.capacity);
        }
    }

    /// Rows staged so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are staged.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Total coercion failures across columns (values stored as NULL).
    pub fn coercion_failures(&self) -> usize {
        self.builders
            .iter()
            .map(ColumnBuilder::coercion_failures)
            .sum()
    }

    /// Finalizes the block, computing per-column stats.
    pub fn finish(self) -> Block {
        let columns: Vec<Column> = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        let stats = columns.iter().map(ColumnStats::compute).collect();
        let bits = self
            .bits
            .into_iter()
            .map(|(id, mut bv)| {
                bv.shrink_to_fit();
                (id, bv)
            })
            .collect();
        let metadata = BlockMetadata::new(self.rows, stats, bits);
        Block {
            schema: self.schema,
            columns,
            metadata,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};
    use ciao_json::parse;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("stars", DataType::Int),
                Field::new("active", DataType::Bool),
            ])
            .unwrap(),
        )
    }

    fn bits(p1: bool, p2: bool) -> BTreeMap<u32, bool> {
        BTreeMap::from([(1, p1), (2, p2)])
    }

    fn sample_block() -> Block {
        let mut b = BlockBuilder::new(schema(), &[1, 2]);
        b.push_record(
            &parse(r#"{"name":"Bob","stars":5,"active":true}"#).unwrap(),
            &bits(true, false),
        );
        b.push_record(
            &parse(r#"{"name":"Alice","stars":2}"#).unwrap(),
            &bits(false, true),
        );
        b.push_record(
            &parse(r#"{"stars":4,"active":false}"#).unwrap(),
            &bits(true, true),
        );
        b.finish()
    }

    #[test]
    fn build_and_access() {
        let block = sample_block();
        assert_eq!(block.row_count(), 3);
        assert_eq!(block.cell(0, "name").as_str(), Some("Bob"));
        assert_eq!(block.cell(1, "stars").as_i64(), Some(2));
        assert!(block.cell(1, "active").is_null()); // absent key
        assert!(block.cell(2, "name").is_null());
        assert!(block.cell(0, "no_such_field").is_null());
        assert_eq!(block.column_by_name("stars").unwrap().len(), 3);
        assert!(block.column_by_name("zzz").is_none());
    }

    #[test]
    fn metadata_bitvectors() {
        let block = sample_block();
        assert_eq!(
            block.metadata().bitvec(1).unwrap().ones_positions(),
            vec![0, 2]
        );
        assert_eq!(
            block.metadata().bitvec(2).unwrap().ones_positions(),
            vec![1, 2]
        );
        let mask = block.metadata().skip_mask(&[1, 2]).unwrap();
        assert_eq!(mask.ones_positions(), vec![2]);
    }

    #[test]
    fn stats_computed() {
        let block = sample_block();
        let stars_idx = block.schema().index_of("stars").unwrap();
        let stats = &block.metadata().column_stats[stars_idx];
        assert_eq!(stats.min_int, Some(2));
        assert_eq!(stats.max_int, Some(5));
        assert_eq!(stats.null_count, 0);
        let name_idx = block.schema().index_of("name").unwrap();
        assert_eq!(block.metadata().column_stats[name_idx].null_count, 1);
    }

    #[test]
    fn to_record_omits_nulls() {
        let block = sample_block();
        let rec = block.to_record(1);
        assert_eq!(ciao_json::to_string(&rec), r#"{"name":"Alice","stars":2}"#);
    }

    #[test]
    #[should_panic(expected = "missing bit")]
    fn missing_predicate_bit_panics() {
        let mut b = BlockBuilder::new(schema(), &[1, 2]);
        let wrong = BTreeMap::from([(1, true), (3, false)]);
        b.push_record(&parse(r#"{"name":"x"}"#).unwrap(), &wrong);
    }

    #[test]
    fn empty_block() {
        let b = BlockBuilder::new(schema(), &[]);
        assert!(b.is_empty());
        let block = b.finish();
        assert_eq!(block.row_count(), 0);
        assert_eq!(block.metadata().bitvector_count(), 0);
    }

    #[test]
    fn coercion_failures_surface() {
        let mut b = BlockBuilder::new(schema(), &[]);
        b.push_record(&parse(r#"{"stars":"five"}"#).unwrap(), &BTreeMap::new());
        assert_eq!(b.coercion_failures(), 1);
    }
}
