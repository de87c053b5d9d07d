//! Loading records from their text allocates per block, never per
//! row: a block of 1024 rows costs exactly as many allocations as a
//! block of 64 — with int, float, bool and null columns, with nested
//! members no column reads skipped on the way, and with string and
//! nested columns, whose cells are copied into one buffer per column.
//! The one allocation a cell still costs is the unescaped copy
//! `ciao_json::parse_fields` makes of a string spelled with an escape.
//!
//! Counted with the counting allocator of
//! `crates/json/tests/support/counting_alloc.rs`.

#[path = "../../json/tests/support/counting_alloc.rs"]
mod counting_alloc;

use ciao_columnar::{DataType, Field, Schema, TableBuilder};
use counting_alloc::allocations_of;
use std::sync::Arc;

/// Members no column reads: nested, long and escaped.
const SKIPPED: &str =
    r#""skip":{"tags":["a","b",{"deep":[[1.5e3]]}],"note":"long enough \"to\" matter é"}"#;

fn record(i: usize, escapes: bool) -> String {
    // With `escapes`, even rows spell the string with an escape, odd
    // rows plainly; the nested value's text has the same length on
    // every row.
    let name = if escapes && i.is_multiple_of(2) {
        r"n\u0041"
    } else {
        "nA"
    };
    format!(
        r#"{{"id":{i},{SKIPPED},"score":{i}.5,"ok":{},"none":null,"name":"{name}{i}","doc":{{"k":[1, 2],"n":"{i:04}"}}}}"#,
        i.is_multiple_of(3)
    )
}

fn schema(with_text: bool) -> Arc<Schema> {
    let mut fields = vec![
        Field::new("id", DataType::Int),
        Field::new("score", DataType::Float),
        Field::new("ok", DataType::Bool),
        Field::new("none", DataType::Str),
    ];
    if with_text {
        fields.push(Field::new("name", DataType::Str));
        fields.push(Field::new("doc", DataType::Json));
    }
    Arc::new(Schema::new(fields).unwrap())
}

/// Allocations made loading the first `rows` records into a table of
/// one full block, builder and finished table included.
fn load(records: &[String], rows: usize, with_text: bool) -> usize {
    let schema = schema(with_text);
    allocations_of(|| {
        let mut tb = TableBuilder::with_block_size(schema, &[3, 4], rows);
        for (i, r) in records[..rows].iter().enumerate() {
            tb.push_text(r, |k| (i + k) % 2 == 0).unwrap();
        }
        let table = tb.finish();
        assert_eq!(table.blocks().len(), 1);
        assert_eq!(table.row_count(), rows);
        drop(table);
    })
}

#[test]
fn text_loads_allocate_per_block_not_per_cell() {
    let plain: Vec<String> = (0..1024).map(|i| record(i, false)).collect();
    let scalars = (load(&plain, 64, false), load(&plain, 1024, false));
    assert_eq!(scalars.0, scalars.1, "scalar columns, 64 vs 1024 rows");
    let with_text = (load(&plain, 64, true), load(&plain, 1024, true));
    assert_eq!(with_text.0, with_text.1, "text columns, 64 vs 1024 rows");

    let escaped: Vec<String> = (0..1024).map(|i| record(i, true)).collect();
    let with_escapes = (load(&escaped, 64, true), load(&escaped, 1024, true));
    assert_eq!(
        with_escapes.1 - with_escapes.0,
        (1024 - 64) / 2,
        "one allocation per escaped string, its unescaped copy"
    );
}
