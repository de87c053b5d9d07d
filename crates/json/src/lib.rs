//! From-scratch JSON substrate for CIAO.
//!
//! The paper's server fully parses JSON (rapidJSON) only for the records
//! that survive client prefiltering; everything else stays as raw text.
//! This crate supplies both sides of that asymmetry:
//!
//! * a **DOM + recursive-descent parser + serializer** ([`JsonValue`],
//!   [`parse`], [`to_string`]) used where whole records are needed: to
//!   materialize a parked record that matched a query, and as the
//!   oracle the two scans below are tested against,
//! * a **projected scan** ([`parse_projected`]) for queries over parked
//!   records: one validating pass that builds only the top-level
//!   fields the query reads and skips the rest without allocating,
//! * a **field scan** ([`parse_fields`]) for loading records into
//!   columns — at ingest, at WAL replay, and when parked records are
//!   promoted: one validating pass that hands each top-level member a
//!   schema column reads to a sink as a typed [`FieldValue`] (a nested
//!   one as its compact text) and skips the rest,
//! * a **member-offset scan** ([`parse_member_offsets`]) that validates
//!   a record once and reports where each top-level value starts, so a
//!   positional map can later build one value from its offset
//!   ([`parse_value_at`]), or read it as the typed [`FieldValue`] the
//!   field scan would hand over ([`parse_field_at`], what a batch of
//!   parked records is filled from), without validating the record
//!   again, and
//! * **raw chunking** ([`chunk::RecordChunk`]) that splits
//!   newline-delimited JSON into per-record byte slices *without*
//!   parsing, which is all the client ever does.
//!
//! The parser is strict RFC 8259 except where noted (it accepts any
//! top-level value, not just objects/arrays). The scans' exactness
//! contract — `Err` exactly when [`parse`] is `Err`, and for every key
//! read the value `parse(..).get(key)` returns — is what lets a query
//! answer from parked text, and a column hold a record, as if the
//! record had been parsed; [`parse`] stays as their differential
//! oracle (`tests/differential.rs`).
//!
//! # Example
//!
//! ```
//! use ciao_json::{parse, JsonValue};
//!
//! let v = parse(r#"{"name":"Bob","age":22}"#).unwrap();
//! assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("Bob"));
//! assert_eq!(v.get("age").and_then(JsonValue::as_i64), Some(22));
//!
//! let p = ciao_json::parse_projected(r#"{"name":"Bob","age":22}"#, &["age"]).unwrap();
//! assert_eq!(p.get("age"), v.get("age"));
//! assert_eq!(p.get("name"), None);
//!
//! let mut keys = ciao_json::FieldKeys::new(["age", "tags"]);
//! let mut fields = Vec::new();
//! ciao_json::parse_fields(r#"{"name":"Bob","age":22,"tags":[ "a" ]}"#, &mut keys, |i, v| {
//!     fields.push((i, v.into_owned()))
//! })
//! .unwrap();
//! assert_eq!(
//!     fields,
//!     [(0, ciao_json::FieldValue::Int(22)), (1, ciao_json::FieldValue::Json(r#"["a"]"#.into()))]
//! );
//! ```

#![warn(missing_docs)]

pub mod chunk;
mod escape;
mod fields;
mod number;
mod parse;
mod ser;
mod value;

pub use chunk::{ChunkError, ChunkReader, RecordChunk, SharedRecord, MAX_RETAINED_PER_SHARED_BYTE};
pub use escape::{escape, escape_into, unescape, UnescapeError};
pub use fields::{FieldKeys, FieldValue};
pub use number::JsonNumber;
pub use parse::{
    parse, parse_bytes, parse_field_at, parse_fields, parse_member_offsets, parse_projected,
    parse_value_at, ParseError, ParserOptions,
};
pub use ser::{to_pretty_string, to_string, write_value};
pub use value::JsonValue;
