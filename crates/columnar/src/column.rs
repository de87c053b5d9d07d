//! Typed columns with validity bitmaps.

use crate::schema::DataType;
use crate::str_column::StrColumn;
use ciao_bitvec::BitVec;
use ciao_json::{FieldValue, JsonValue};

/// A borrowed view of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// SQL NULL (absent or JSON null).
    Null,
    /// String value.
    Str(&'a str),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Nested JSON kept as serialized text.
    Json(&'a str),
}

impl<'a> Cell<'a> {
    /// True for NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// String payload for `Str` cells.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload for `Int` cells.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload (`Int` widened) for numeric cells.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Float(f) => Some(*f),
            Cell::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean payload for `Bool` cells.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Cell::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Physical storage for one column of one block.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// Strings, in one buffer with an end offset per row; the io layer
    /// dictionary-encodes them on disk when that is smaller.
    Str(StrColumn),
    /// Integers.
    Int(Vec<i64>),
    /// Floats.
    Float(Vec<f64>),
    /// Booleans, bit-packed.
    Bool(BitVec),
    /// Serialized nested JSON, one compact text per row, held as
    /// strings are.
    Json(StrColumn),
}

impl ColumnValues {
    /// Row `row`'s cell under the validity bitmap `valid`.
    fn cell(&self, valid: &BitVec, row: usize) -> Cell<'_> {
        if !valid.bit(row) {
            return Cell::Null;
        }
        match self {
            ColumnValues::Str(v) => Cell::Str(v.get(row)),
            ColumnValues::Int(v) => Cell::Int(v[row]),
            ColumnValues::Float(v) => Cell::Float(v[row]),
            ColumnValues::Bool(b) => Cell::Bool(b.bit(row)),
            ColumnValues::Json(v) => Cell::Json(v.get(row)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnValues::Str(v) | ColumnValues::Json(v) => v.len(),
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Float(v) => v.len(),
            ColumnValues::Bool(b) => b.len(),
        }
    }
}

/// A complete column: values plus a validity bitmap (`valid.bit(i)` ⇔
/// row `i` is non-null). Invalid rows hold an arbitrary default value.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    values: ColumnValues,
    valid: BitVec,
}

impl Column {
    /// Assembles a column, checking the bitmap length.
    pub fn new(values: ColumnValues, valid: BitVec) -> Column {
        assert_eq!(values.len(), valid.len(), "validity bitmap length mismatch");
        Column { values, valid }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.valid.count_zeros()
    }

    /// The storage type.
    pub fn dtype(&self) -> DataType {
        match &self.values {
            ColumnValues::Str(_) => DataType::Str,
            ColumnValues::Int(_) => DataType::Int,
            ColumnValues::Float(_) => DataType::Float,
            ColumnValues::Bool(_) => DataType::Bool,
            ColumnValues::Json(_) => DataType::Json,
        }
    }

    /// Reads one cell.
    pub fn cell(&self, row: usize) -> Cell<'_> {
        assert!(
            row < self.len(),
            "row {row} out of range (len {})",
            self.len()
        );
        self.values.cell(&self.valid, row)
    }

    /// Raw storage access for the io/encoding layer.
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &BitVec {
        &self.valid
    }

    /// Reconstructs the cell as a [`JsonValue`] (Json cells re-parse).
    pub fn cell_json(&self, row: usize) -> JsonValue {
        match self.cell(row) {
            Cell::Null => JsonValue::Null,
            Cell::Str(s) => JsonValue::from(s),
            Cell::Int(i) => JsonValue::from(i),
            Cell::Float(f) => JsonValue::from(f),
            Cell::Bool(b) => JsonValue::from(b),
            Cell::Json(s) => ciao_json::parse(s).expect("stored JSON is valid by construction"),
        }
    }
}

/// The text room [`ColumnBuilder::reserve`] makes per row of a string
/// or nested column. Longer text grows the column's buffer, which
/// doubles, so a block costs a few more allocations, never one per
/// cell.
pub const TEXT_BYTES_PER_ROW: usize = 32;

/// Incrementally builds one column from JSON cells.
///
/// Type handling is lenient by design (CIAO loads heterogeneous machine
/// logs): a value that does not fit the declared type is stored as NULL
/// and counted in [`ColumnBuilder::coercion_failures`], never dropped
/// silently and never a hard error at the row level.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    values: ColumnValues,
    valid: BitVec,
    /// Rows whose value failed coercion, ascending.
    failed_rows: Vec<usize>,
}

impl ColumnBuilder {
    /// Creates a builder for the given type.
    pub fn new(dtype: DataType) -> ColumnBuilder {
        let values = match dtype {
            DataType::Str => ColumnValues::Str(StrColumn::new()),
            DataType::Int => ColumnValues::Int(Vec::new()),
            DataType::Float => ColumnValues::Float(Vec::new()),
            DataType::Bool => ColumnValues::Bool(BitVec::new()),
            DataType::Json => ColumnValues::Json(StrColumn::new()),
        };
        ColumnBuilder {
            dtype,
            values,
            valid: BitVec::new(),
            failed_rows: Vec::new(),
        }
    }

    /// Appends a cell from an optional JSON value (`None` = key absent).
    pub fn push(&mut self, value: Option<&JsonValue>) {
        match value {
            None => self.push_null(),
            Some(v) => self.push_field(FieldValue::from(v)),
        }
    }

    /// Appends a cell from a value [`ciao_json::parse_fields`] handed
    /// over, coerced exactly as [`ColumnBuilder::push`] coerces the
    /// value [`ciao_json::parse`] builds for it. A string or nested
    /// value's text is copied into the column's buffer: no allocation
    /// while the buffer has room.
    pub fn push_field(&mut self, value: FieldValue<'_>) {
        match (&mut self.values, value) {
            (_, FieldValue::Null) => return self.push_null(),
            (ColumnValues::Str(col), FieldValue::Str(s)) => col.push(&s),
            (ColumnValues::Int(col), FieldValue::Int(i)) => col.push(i),
            (ColumnValues::Float(col), FieldValue::Int(i)) => col.push(i as f64),
            (ColumnValues::Float(col), FieldValue::Float(f)) => col.push(f),
            (ColumnValues::Bool(col), FieldValue::Bool(b)) => col.push(b),
            (ColumnValues::Json(col), FieldValue::Json(text)) => col.push(&text),
            _ => {
                self.failed_rows.push(self.len());
                return self.push_null();
            }
        }
        self.valid.push(true);
    }

    /// Appends a NULL cell. Its value is a placeholder that is written
    /// to disk with the column: `""` for a string, `null` for a nested
    /// value.
    pub fn push_null(&mut self) {
        match &mut self.values {
            ColumnValues::Str(col) => col.push(""),
            ColumnValues::Int(col) => col.push(0),
            ColumnValues::Float(col) => col.push(0.0),
            ColumnValues::Bool(col) => col.push(false),
            ColumnValues::Json(col) => col.push("null"),
        }
        self.valid.push(false);
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values that failed coercion and were stored as NULL.
    pub fn coercion_failures(&self) -> usize {
        self.failed_rows.len()
    }

    /// The declared type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// The rows appended so far: values, as a finished column would
    /// hold them.
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// The rows appended so far: validity.
    pub fn validity(&self) -> &BitVec {
        &self.valid
    }

    /// Reads one appended row's cell, as [`Column::cell`] would read it
    /// once finished.
    pub fn cell(&self, row: usize) -> Cell<'_> {
        assert!(
            row < self.len(),
            "row {row} out of range (len {})",
            self.len()
        );
        self.values.cell(&self.valid, row)
    }

    /// Drops every row from `len` on, and the coercion failures they
    /// counted: the builder is as it was when it held `len` rows. Room
    /// already reserved is kept, so a builder truncated to 0 is a
    /// scratch column refilled without allocating.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.values {
            ColumnValues::Str(v) | ColumnValues::Json(v) => v.truncate(len),
            ColumnValues::Int(v) => v.truncate(len),
            ColumnValues::Float(v) => v.truncate(len),
            ColumnValues::Bool(b) => b.truncate(len),
        }
        self.valid.truncate(len);
        let kept = self.failed_rows.partition_point(|&row| row < len);
        self.failed_rows.truncate(kept);
    }

    /// Makes room for `rows` more rows without reallocating — for a
    /// string or nested column, rows of up to [`TEXT_BYTES_PER_ROW`]
    /// bytes on average.
    pub fn reserve(&mut self, rows: usize) {
        match &mut self.values {
            ColumnValues::Str(v) | ColumnValues::Json(v) => {
                v.reserve(rows, rows * TEXT_BYTES_PER_ROW);
            }
            ColumnValues::Int(v) => v.reserve_exact(rows),
            ColumnValues::Float(v) => v.reserve_exact(rows),
            ColumnValues::Bool(b) => b.reserve(rows),
        }
        self.valid.reserve(rows);
    }

    /// Finalizes the column, releasing room reserved beyond its rows.
    pub fn finish(mut self) -> Column {
        match &mut self.values {
            ColumnValues::Str(v) | ColumnValues::Json(v) => v.shrink_to_fit(),
            ColumnValues::Int(v) => v.shrink_to_fit(),
            ColumnValues::Float(v) => v.shrink_to_fit(),
            ColumnValues::Bool(b) => b.shrink_to_fit(),
        }
        self.valid.shrink_to_fit();
        Column {
            values: self.values,
            valid: self.valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_json::parse;

    #[test]
    fn build_and_read_back() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(Some(&JsonValue::from(5)));
        b.push(None);
        b.push(Some(&JsonValue::Null));
        b.push(Some(&JsonValue::from(-3)));
        let col = b.finish();
        assert_eq!(col.len(), 4);
        assert_eq!(col.null_count(), 2);
        assert_eq!(col.cell(0), Cell::Int(5));
        assert_eq!(col.cell(1), Cell::Null);
        assert_eq!(col.cell(2), Cell::Null);
        assert_eq!(col.cell(3), Cell::Int(-3));
        assert_eq!(col.dtype(), DataType::Int);
    }

    #[test]
    fn coercion_failures_become_null() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(Some(&JsonValue::from("not an int")));
        b.push(Some(&JsonValue::from(2.5))); // float into int column
        b.push(Some(&JsonValue::from(7)));
        let failures = b.coercion_failures();
        let col = b.finish();
        assert_eq!(failures, 2);
        assert_eq!(col.cell(0), Cell::Null);
        assert_eq!(col.cell(1), Cell::Null);
        assert_eq!(col.cell(2), Cell::Int(7));
    }

    #[test]
    fn truncate_forgets_rows_and_their_coercion_failures() {
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push_field(FieldValue::Str("kept".into()));
        b.push_field(FieldValue::Int(1)); // a failure that stays
        b.push_field(FieldValue::Str("dropped".into()));
        b.push_field(FieldValue::Bool(true)); // a failure that goes
        b.truncate(2);
        assert_eq!((b.len(), b.coercion_failures()), (2, 1));
        b.push_field(FieldValue::Str("next".into()));
        let col = b.finish();
        assert_eq!(col.cell(0).as_str(), Some("kept"));
        assert!(col.cell(1).is_null());
        assert_eq!(col.cell(2).as_str(), Some("next"));
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(Some(&JsonValue::from(2)));
        b.push(Some(&JsonValue::from(2.5)));
        let col = b.finish();
        assert_eq!(col.cell(0), Cell::Float(2.0));
        assert_eq!(col.cell(1), Cell::Float(2.5));
    }

    #[test]
    fn bool_column_bitpacked() {
        let mut b = ColumnBuilder::new(DataType::Bool);
        for i in 0..100 {
            b.push(Some(&JsonValue::from(i % 3 == 0)));
        }
        let col = b.finish();
        assert_eq!(col.cell(0), Cell::Bool(true));
        assert_eq!(col.cell(1), Cell::Bool(false));
        assert_eq!(col.null_count(), 0);
    }

    #[test]
    fn json_column_roundtrips() {
        let mut b = ColumnBuilder::new(DataType::Json);
        let v = parse(r#"{"a":[1,2]}"#).unwrap();
        b.push(Some(&v));
        b.push(Some(&JsonValue::from("plain string"))); // coercion failure
        let col = b.finish();
        assert_eq!(col.cell(0), Cell::Json(r#"{"a":[1,2]}"#));
        assert_eq!(col.cell_json(0), v);
        assert!(col.cell(1).is_null());
    }

    #[test]
    fn str_column() {
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push(Some(&JsonValue::from("hello")));
        b.push_null();
        let col = b.finish();
        assert_eq!(col.cell(0).as_str(), Some("hello"));
        assert!(col.cell(1).is_null());
        assert_eq!(col.cell_json(0), JsonValue::from("hello"));
        assert_eq!(col.cell_json(1), JsonValue::Null);
    }

    #[test]
    fn cell_accessors() {
        assert_eq!(Cell::Int(3).as_f64(), Some(3.0));
        assert_eq!(Cell::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Cell::Str("x").as_i64(), None);
        assert_eq!(Cell::Bool(true).as_bool(), Some(true));
        assert!(Cell::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range() {
        let col = ColumnBuilder::new(DataType::Int).finish();
        col.cell(0);
    }
}
