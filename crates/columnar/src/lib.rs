//! Columnar storage substrate (the repo's Parquet substitute).
//!
//! CIAO converts admitted JSON records into a binary columnar format
//! whose data blocks carry metadata — including the **per-predicate
//! bitvectors** that drive data skipping (paper §VI). What the system
//! needs from "Parquet" is:
//!
//! 1. a real conversion cost at load time (type dispatch, dictionary
//!    building, encoding) — the thing partial loading avoids;
//! 2. block-level metadata holding bitvectors, min/max and null counts;
//! 3. fast columnar scans for query verification.
//!
//! Layout: a [`Table`] is a sequence of fixed-[`Schema`] [`Block`]s
//! (row groups, default 1024 rows). Each block stores one encoded
//! column per field plus a [`BlockMetadata`]. The on-disk format is
//! implemented in [`io`].

#![warn(missing_docs)]

pub mod block;
pub mod column;
pub mod encoding;
pub mod io;
pub mod metadata;
pub mod schema;
pub mod table;

pub use block::{Block, BlockBuilder};
// The type of a block's predicate bitvectors and skip-masks
// ([`BlockMetadata::skip_mask`]), so scan code can name what it holds.
pub use ciao_bitvec::BitVec;
pub use column::{Cell, Column, ColumnBuilder, ColumnValues};
pub use io::{
    crc32, read_block, read_schema, read_table, write_block, write_schema, write_table, Crc32,
    IoError, PageReader, PageWriter,
};
pub use metadata::{BlockMetadata, ColumnStats, STR_DICT_STATS_MAX};
pub use schema::{DataType, Field, Schema, SchemaError};
pub use table::{Table, TableBuilder, DEFAULT_BLOCK_SIZE};
