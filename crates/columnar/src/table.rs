//! Tables: sequences of blocks under one schema.

use crate::block::{Block, BlockBuilder};
use crate::column::Cell;
use crate::schema::Schema;
use ciao_json::{JsonValue, ParseError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default rows per block — mirrors the paper's ~1k-record chunks.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// An immutable columnar table.
///
/// The blocks sit behind one `Arc`, so a clone shares them instead of
/// copying columns: a reader can keep scanning the table it cloned
/// while the owner appends to its own (see [`Table::merge`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    schema: Option<Arc<Schema>>,
    blocks: Arc<Vec<Block>>,
}

impl Table {
    /// Builds a table from finished blocks (all must share the schema).
    pub fn from_blocks(schema: Arc<Schema>, blocks: Vec<Block>) -> Table {
        for b in &blocks {
            assert_eq!(b.schema(), schema.as_ref(), "block schema mismatch");
        }
        Table {
            schema: Some(schema),
            blocks: Arc::new(blocks),
        }
    }

    /// The schema (`None` for an empty table that never saw data).
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_deref()
    }

    /// The blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total rows across blocks.
    pub fn row_count(&self) -> usize {
        self.blocks.iter().map(Block::row_count).sum()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Appends another table's blocks (schemas must match). Used by
    /// just-in-time promotion of parked records. Copies this table's
    /// blocks first when a clone still shares them.
    pub fn merge(&mut self, other: Table) {
        let Some(other_schema) = other.schema else {
            return; // nothing to merge
        };
        match &self.schema {
            None => self.schema = Some(other_schema),
            Some(ours) => assert_eq!(
                ours.as_ref(),
                other_schema.as_ref(),
                "cannot merge tables with different schemas"
            ),
        }
        let theirs = Arc::try_unwrap(other.blocks).unwrap_or_else(|shared| (*shared).clone());
        Arc::make_mut(&mut self.blocks).extend(theirs);
    }

    /// Reads a cell by global row index. Every call walks the blocks
    /// and searches the schema for `field` by name ([`Block::cell`]):
    /// for diagnostics and tests, not scans, which resolve each column
    /// once per block.
    pub fn cell(&self, row: usize, field: &str) -> Cell<'_> {
        let mut in_block = row;
        for block in self.blocks.iter() {
            if in_block < block.row_count() {
                return block.cell(in_block, field);
            }
            in_block -= block.row_count();
        }
        panic!(
            "row {row} out of range for a table of {} rows",
            self.row_count()
        );
    }

    /// Iterates all rows as reconstructed JSON records (diagnostics and
    /// tests; queries scan blocks directly).
    pub fn iter_records(&self) -> impl Iterator<Item = JsonValue> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| (0..b.row_count()).map(move |r| b.to_record(r)))
    }
}

/// Streams rows into fixed-size blocks.
///
/// [`TableBuilder::push_text`] is the loading path; `push_record` is
/// for fixtures and is the oracle `push_text` is tested against
/// (`tests/text_load_equivalence.rs`).
#[derive(Debug)]
pub struct TableBuilder {
    schema: Arc<Schema>,
    predicate_ids: Vec<u32>,
    block_size: usize,
    current: BlockBuilder,
    blocks: Vec<Block>,
    coercion_failures: usize,
}

impl TableBuilder {
    /// Creates a builder with the default block size.
    pub fn new(schema: Arc<Schema>, predicate_ids: &[u32]) -> TableBuilder {
        Self::with_block_size(schema, predicate_ids, DEFAULT_BLOCK_SIZE)
    }

    /// Creates a builder with an explicit block size. Each block makes
    /// room for up to [`DEFAULT_BLOCK_SIZE`] rows when its first row
    /// arrives.
    pub fn with_block_size(
        schema: Arc<Schema>,
        predicate_ids: &[u32],
        block_size: usize,
    ) -> TableBuilder {
        assert!(block_size > 0, "block size must be positive");
        TableBuilder {
            current: block_builder(&schema, predicate_ids, block_size),
            schema,
            predicate_ids: predicate_ids.to_vec(),
            block_size,
            blocks: Vec::new(),
            coercion_failures: 0,
        }
    }

    /// Appends one record from its text, with its predicate bits in
    /// construction order ([`BlockBuilder::push_text`]). `Err` exactly
    /// when [`ciao_json::parse`] rejects `text`, and then nothing was
    /// appended.
    pub fn push_text(&mut self, text: &str, bit: impl Fn(usize) -> bool) -> Result<(), ParseError> {
        self.current.push_text(text, bit)?;
        if self.current.len() >= self.block_size {
            self.seal_block();
        }
        Ok(())
    }

    /// Appends one parsed record with its predicate bits.
    pub fn push_record(&mut self, record: &JsonValue, bits: &BTreeMap<u32, bool>) {
        self.current.push_record(record, bits);
        if self.current.len() >= self.block_size {
            self.seal_block();
        }
    }

    /// Rows staged + sealed so far.
    pub fn row_count(&self) -> usize {
        self.blocks.iter().map(Block::row_count).sum::<usize>() + self.current.len()
    }

    /// Values that failed type coercion so far (stored as NULL).
    pub fn coercion_failures(&self) -> usize {
        self.coercion_failures + self.current.coercion_failures()
    }

    fn seal_block(&mut self) {
        let finished = std::mem::replace(
            &mut self.current,
            block_builder(&self.schema, &self.predicate_ids, self.block_size),
        );
        self.coercion_failures += finished.coercion_failures();
        self.blocks.push(finished.finish());
    }

    /// Finalizes the table.
    pub fn finish(mut self) -> Table {
        if !self.current.is_empty() {
            self.seal_block();
        }
        Table {
            schema: Some(self.schema),
            blocks: Arc::new(self.blocks),
        }
    }
}

/// The builder for a table's next block.
fn block_builder(schema: &Arc<Schema>, predicate_ids: &[u32], block_size: usize) -> BlockBuilder {
    let rows = block_size.min(DEFAULT_BLOCK_SIZE);
    BlockBuilder::with_capacity(Arc::clone(schema), predicate_ids, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};
    use ciao_json::parse;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        )
    }

    fn build(n: usize, block_size: usize) -> Table {
        let mut tb = TableBuilder::with_block_size(schema(), &[0], block_size);
        for i in 0..n {
            let rec = parse(&format!(r#"{{"id":{i},"name":"u{i}"}}"#)).unwrap();
            tb.push_record(&rec, &BTreeMap::from([(0, i % 2 == 0)]));
        }
        tb.finish()
    }

    #[test]
    fn blocks_split_at_block_size() {
        let t = build(10, 4);
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.blocks().len(), 3);
        assert_eq!(t.blocks()[0].row_count(), 4);
        assert_eq!(t.blocks()[2].row_count(), 2);
    }

    #[test]
    fn global_row_addressing() {
        let t = build(10, 4);
        assert_eq!(t.cell(0, "id").as_i64(), Some(0));
        assert_eq!(t.cell(5, "id").as_i64(), Some(5));
        assert_eq!(t.cell(9, "name").as_str(), Some("u9"));
    }

    #[test]
    #[should_panic(expected = "row 3 out of range for a table of 3 rows")]
    fn out_of_range_row() {
        build(3, 4).cell(3, "id");
    }

    #[test]
    fn bitvecs_follow_blocks() {
        let t = build(10, 4);
        let bv0 = t.blocks()[0].metadata().bitvec(0).unwrap();
        assert_eq!(bv0.ones_positions(), vec![0, 2]);
        let bv2 = t.blocks()[2].metadata().bitvec(0).unwrap();
        assert_eq!(bv2.ones_positions(), vec![0]); // global rows 8, 9 → 8 is even
    }

    #[test]
    fn iter_records_roundtrip() {
        let t = build(5, 2);
        let recs: Vec<String> = t.iter_records().map(|r| ciao_json::to_string(&r)).collect();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[3], r#"{"id":3,"name":"u3"}"#);
    }

    #[test]
    fn empty_table() {
        let t = Table::default();
        assert!(t.is_empty());
        assert!(t.schema().is_none());
        assert_eq!(t.iter_records().count(), 0);

        let built = TableBuilder::new(schema(), &[]).finish();
        assert!(built.is_empty());
        assert!(built.schema().is_some());
        assert_eq!(built.blocks().len(), 0);
    }

    #[test]
    fn exact_multiple_of_block_size() {
        let t = build(8, 4);
        assert_eq!(t.blocks().len(), 2);
        assert_eq!(t.row_count(), 8);
    }

    #[test]
    fn merge_appends_blocks() {
        let mut a = build(6, 4);
        let b = build(5, 4);
        a.merge(b);
        assert_eq!(a.row_count(), 11);
        assert_eq!(a.blocks().len(), 4);
        // Global addressing spans the merged blocks.
        assert_eq!(a.cell(6, "id").as_i64(), Some(0));

        let mut empty = Table::default();
        empty.merge(build(3, 4));
        assert_eq!(empty.row_count(), 3);
        empty.merge(Table::default());
        assert_eq!(empty.row_count(), 3);
    }

    #[test]
    fn a_clone_shares_blocks_and_survives_a_merge_into_the_original() {
        let mut live = build(6, 4);
        let pinned = live.clone();
        assert!(
            std::ptr::eq(live.blocks().as_ptr(), pinned.blocks().as_ptr()),
            "cloning a table copies no block"
        );
        live.merge(build(5, 4));
        assert_eq!(live.row_count(), 11);
        assert_eq!(
            pinned.row_count(),
            6,
            "the clone still reads what it cloned"
        );
        assert_eq!(pinned.blocks(), &live.blocks()[..2]);
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn merge_rejects_schema_mismatch() {
        use crate::schema::{DataType, Field};
        let mut a = build(2, 4);
        let other_schema =
            Arc::new(Schema::new(vec![Field::new("different", DataType::Int)]).unwrap());
        let b = TableBuilder::new(other_schema, &[]).finish();
        a.merge(b);
    }
}
