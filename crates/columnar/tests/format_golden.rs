//! The on-disk bytes of a fixed table, pinned: snapshots and recovery
//! read what [`write_table`] and [`ciao_columnar::write_block`] wrote,
//! so a change to how columns are held in memory must not move a byte
//! of what they encode to.
//!
//! The table (12 rows in blocks of 8 and 4, loaded from record text)
//! covers every column encoding a snapshot holds:
//!
//! * `tag`: a low-cardinality string column, dictionary-encoded
//!   (`STR_DICT`) in the first block and plain (`STR_PLAIN`) in the
//!   second, where 3 distinct values fill 4 rows;
//! * `name`: a plain string column with empty strings and strings the
//!   record spelled with escapes;
//! * `gone`: a string column that is NULL on every row;
//! * `doc`: a nested column with NULL rows (absent, `null`, and a value
//!   of another type);
//! * int, float and bool columns, and two predicate bitvectors.
//!
//! The expected file is hex, 32 bytes a line. A change to it is a
//! format change: bump `io::VERSION` with it. Regenerate with:
//!
//! ```text
//! CIAO_UPDATE_GOLDEN=1 cargo test -p ciao_columnar --test format_golden
//! ```

use ciao_columnar::{read_table, write_table, DataType, Field, Schema, Table, TableBuilder};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn record(i: usize) -> String {
    let tag = ["alpha", "beta", "gamma"][i % 3];
    let name = match i % 4 {
        0 => String::new(),
        1 => r#"q\"uo\\te é\n\tA"#.to_owned(),
        _ => format!("name-{i}"),
    };
    let doc = match i % 3 {
        0 if i.is_multiple_of(2) => String::new(),
        0 => r#","doc":null"#.to_owned(),
        _ if i == 5 => r#","doc":"not nested""#.to_owned(),
        _ => format!(r#","doc":{{"k":[{i},"xé"],"e":{{}}}}"#),
    };
    let gone = if i.is_multiple_of(2) {
        r#","gone":null"#
    } else {
        ""
    };
    format!(
        r#"{{"tag":"{tag}","name":"{name}","n":{},"x":{i}.25,"ok":{}{doc}{gone}}}"#,
        i as i64 - 6,
        i.is_multiple_of(2)
    )
}

fn table() -> Table {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("tag", DataType::Str),
            Field::new("name", DataType::Str),
            Field::new("gone", DataType::Str),
            Field::new("doc", DataType::Json),
            Field::new("n", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("ok", DataType::Bool),
        ])
        .unwrap(),
    );
    let mut tb = TableBuilder::with_block_size(schema, &[2, 9], 8);
    for i in 0..12 {
        tb.push_text(&record(i), |k| (i + k) % 3 == 0).unwrap();
    }
    tb.finish()
}

fn hex_lines(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        for b in line {
            write!(out, "{b:02x}").unwrap();
        }
        out.push('\n');
    }
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    text.lines()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(move |at| u8::from_str_radix(&line[at..at + 2], 16).unwrap())
        })
        .collect()
}

#[test]
fn write_table_bytes_are_pinned() {
    let table = table();
    assert_eq!(table.blocks().len(), 2);
    let actual = hex_lines(&write_table(&table));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/format.hex");
    if std::env::var_os("CIAO_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read tests/golden/format.hex");
    if let Some((line, (got, want))) = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "byte line {line} (offset {}) differs:\n got  {got}\n want {want}",
            line * 32
        );
    }
    assert_eq!(actual.len(), expected.len(), "encoded length differs");

    // The pinned bytes decode to the table they were written from.
    assert_eq!(read_table(&from_hex(&expected)).unwrap(), table);
}
