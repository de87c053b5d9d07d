//! Property tests: a string or nested column built in one buffer reads,
//! encodes and summarises exactly as the one-`String`-per-cell column
//! it replaced.
//!
//! Random sequences of pushes (borrowed text, escaped text the parser
//! unescaped into an owned string, nested text), NULLs, truncations —
//! how a parked scan's scratch column is refilled — and reservations
//! run against a [`ColumnBuilder`] and a `Vec<String>` model side by
//! side. Each cell, the length and the NULL count must agree before and
//! after `finish`; the column must encode to the bytes the per-cell
//! encoder wrote (kept here as the reference) and decode back to
//! itself; and [`ColumnStats::compute`] must equal a `BTreeSet`
//! reference, including at 32 and 33 distinct values, either side of
//! [`STR_DICT_STATS_MAX`].

use bytes::{BufMut, BytesMut};
use ciao_columnar::encoding::{decode_strings, encode_ints, encode_strings};
use ciao_columnar::{
    Cell, Column, ColumnBuilder, ColumnStats, ColumnValues, DataType, StrColumn, STR_DICT_STATS_MAX,
};
use ciao_json::FieldValue;
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum Op {
    /// A string borrowed from the record text.
    Borrowed(String),
    /// A string the parser unescaped into its own buffer.
    Escaped(String),
    /// A nested value's compact text.
    Nested(String),
    Null,
    /// Truncate to `len % (rows + 1)` rows.
    Truncate(usize),
    Reserve(usize),
}

fn arb_text() -> impl Strategy<Value = String> {
    "[ab\"\\\\é😀 ]{0,6}"
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_text().prop_map(Op::Borrowed),
        arb_text().prop_map(Op::Escaped),
        arb_text().prop_map(|s| Op::Nested(format!("[{s:?}]"))),
        Just(Op::Null),
        (0usize..64).prop_map(Op::Truncate),
        (0usize..40).prop_map(Op::Reserve),
    ]
}

/// What a column holds: each row's stored text (a NULL row's
/// placeholder included) and whether it is valid.
#[derive(Debug, Default)]
struct Model {
    values: Vec<String>,
    valid: Vec<bool>,
}

impl Model {
    fn push(&mut self, text: &str, valid: bool) {
        self.values.push(text.to_owned());
        self.valid.push(valid);
    }

    fn cell(&self, dtype: DataType, row: usize) -> Cell<'_> {
        match (self.valid[row], dtype) {
            (false, _) => Cell::Null,
            (true, DataType::Str) => Cell::Str(&self.values[row]),
            (true, _) => Cell::Json(&self.values[row]),
        }
    }
}

/// Runs `ops` against a builder of `dtype` and the model, checking
/// every cell after each step.
fn build(dtype: DataType, ops: &[Op]) -> Result<(Column, Model), TestCaseError> {
    let placeholder = if dtype == DataType::Str { "" } else { "null" };
    let mut builder = ColumnBuilder::new(dtype);
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Borrowed(s) | Op::Escaped(s) => {
                let cow = match op {
                    Op::Borrowed(_) => Cow::Borrowed(s.as_str()),
                    _ => Cow::Owned(s.clone()),
                };
                builder.push_field(FieldValue::Str(cow));
                match dtype {
                    DataType::Str => model.push(s, true),
                    _ => model.push(placeholder, false),
                }
            }
            Op::Nested(text) => {
                builder.push_field(FieldValue::Json(Cow::Borrowed(text)));
                match dtype {
                    DataType::Json => model.push(text, true),
                    _ => model.push(placeholder, false),
                }
            }
            Op::Null => {
                builder.push_null();
                model.push(placeholder, false);
            }
            Op::Truncate(len) => {
                let len = len % (model.values.len() + 1);
                builder.truncate(len);
                model.values.truncate(len);
                model.valid.truncate(len);
            }
            Op::Reserve(rows) => builder.reserve(*rows),
        }
        prop_assert_eq!(builder.len(), model.values.len());
        for row in 0..builder.len() {
            prop_assert_eq!(builder.cell(row), model.cell(dtype, row));
        }
    }
    Ok((builder.finish(), model))
}

fn strings(column: &Column) -> &StrColumn {
    match column.values() {
        ColumnValues::Str(v) | ColumnValues::Json(v) => v,
        other => panic!("not a string column: {other:?}"),
    }
}

/// The string encoder as it was when every cell was its own `String`.
fn reference_encoding(values: &[String]) -> BytesMut {
    let mut out = BytesMut::new();
    let put_str = |out: &mut BytesMut, s: &str| {
        out.put_u32_le(s.len() as u32);
        out.put_slice(s.as_bytes());
    };
    let mut dict: Vec<&str> = Vec::new();
    let mut codes: Vec<i64> = Vec::new();
    let mut index: HashMap<&str, i64> = HashMap::new();
    for v in values {
        codes.push(*index.entry(v.as_str()).or_insert_with(|| {
            dict.push(v.as_str());
            dict.len() as i64 - 1
        }));
    }
    if !values.is_empty() && dict.len() * 2 <= values.len() {
        out.put_u8(1);
        out.put_u64_le(values.len() as u64);
        out.put_u32_le(dict.len() as u32);
        for entry in &dict {
            put_str(&mut out, entry);
        }
        encode_ints(&codes, &mut out);
    } else {
        out.put_u8(0);
        out.put_u64_le(values.len() as u64);
        for v in values {
            put_str(&mut out, v);
        }
    }
    out
}

/// [`ColumnStats::str_dict`] as the `BTreeSet` of every valid cell.
fn reference_dict(model: &Model) -> Option<Vec<String>> {
    let set: BTreeSet<&str> = model
        .values
        .iter()
        .zip(&model.valid)
        .filter(|(_, &valid)| valid)
        .map(|(s, _)| s.as_str())
        .collect();
    (!set.is_empty() && set.len() <= STR_DICT_STATS_MAX)
        .then(|| set.into_iter().map(str::to_owned).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_column_matches_a_string_per_cell(
        ops in prop::collection::vec(arb_op(), 0..48),
        nested in any::<bool>(),
    ) {
        let dtype = if nested { DataType::Json } else { DataType::Str };
        let (column, model) = build(dtype, &ops)?;
        prop_assert_eq!(column.len(), model.values.len());
        let nulls = model.valid.iter().filter(|&&v| !v).count();
        prop_assert_eq!(column.null_count(), nulls);
        for row in 0..column.len() {
            prop_assert_eq!(column.cell(row), model.cell(dtype, row));
        }

        let values = strings(&column);
        let model_values: Vec<&str> = model.values.iter().map(String::as_str).collect();
        prop_assert_eq!(values.iter().collect::<Vec<_>>(), model_values);
        let mut encoded = BytesMut::new();
        encode_strings(values, &mut encoded);
        prop_assert_eq!(&encoded[..], &reference_encoding(&model.values)[..]);
        let mut rest = &encoded[..];
        prop_assert_eq!(&decode_strings(&mut rest).unwrap(), values);
        prop_assert!(rest.is_empty());

        let stats = ColumnStats::compute(&column);
        let dict = if nested { None } else { reference_dict(&model) };
        prop_assert_eq!(stats.str_dict, dict);
        prop_assert_eq!(stats.null_count, nulls);
    }

    /// Columns of exactly `distinct` distinct strings, each at least
    /// once, in a shuffled order, among repeats and NULLs.
    #[test]
    fn stats_dictionary_matches_a_btreeset_around_its_ceiling(
        distinct in (STR_DICT_STATS_MAX - 1)..=(STR_DICT_STATS_MAX + 2),
        picks in prop::collection::vec(0usize..1000, 0..120),
        order in any::<u64>(),
    ) {
        let pool: Vec<String> = (0..distinct).map(|i| format!("v{}", (i * 7919) % 1000)).collect();
        let mut rows: Vec<Option<&str>> = pool.iter().map(|s| Some(s.as_str())).collect();
        rows.extend(picks.iter().map(|&p| (p % 9 != 0).then(|| pool[p % distinct].as_str())));
        // A deterministic shuffle.
        let mut state = order | 1;
        for i in (1..rows.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            rows.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut builder = ColumnBuilder::new(DataType::Str);
        let mut model = Model::default();
        for row in &rows {
            match row {
                Some(s) => {
                    builder.push_field(FieldValue::Str(Cow::Borrowed(s)));
                    model.push(s, true);
                }
                None => {
                    builder.push_null();
                    model.push("", false);
                }
            }
        }
        let stats = ColumnStats::compute(&builder.finish());
        let expected = reference_dict(&model);
        prop_assert_eq!(expected.is_some(), distinct <= STR_DICT_STATS_MAX);
        prop_assert_eq!(stats.str_dict, expected);
    }
}
