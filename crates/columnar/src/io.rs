//! On-disk format for columnar tables, plus the generic page layer
//! durable storage builds on.
//!
//! ```text
//! [magic "CIAO"] [version u16]
//! [schema: field count u32, then (name, dtype tag) per field]
//! [block count u32]
//! per block:
//!   [row count u64]
//!   [bitvec count u32] then (predicate id u32, BitVec wire) per entry
//!   per column: [validity BitVec wire] [encoded values]
//! ```
//!
//! Everything is little-endian. Column stats are recomputed on read —
//! they are derived data, and recomputation keeps readers honest about
//! the actual payload.
//!
//! The schema and block codecs are exposed individually
//! ([`write_schema`]/[`read_schema`], [`write_block`]/[`read_block`])
//! so storage layers can frame them however they like;
//! [`write_table`]/[`read_table`] compose them into the monolithic
//! format above. [`PageWriter`]/[`PageReader`] add the generic frame
//! durable files use: tagged, length-prefixed, CRC-checksummed pages
//! whose corruption is *detected* (an [`IoError::Checksum`]) instead
//! of silently decoding garbage. The writer streams into any
//! `io::Write` and checksums a payload where it lies — in one piece
//! or in borrowed parts — so a page never needs a staging copy. The
//! checksum itself is [`crc32`] / the incremental [`Crc32`]: the IEEE
//! polynomial, table-driven.

use crate::block::Block;
use crate::column::{Column, ColumnValues};
use crate::encoding::{
    decode_floats, decode_ints, decode_strings, encode_floats, encode_ints, encode_strings,
    DecodeError,
};
use crate::metadata::{BlockMetadata, ColumnStats};
use crate::schema::{DataType, Field, Schema, SchemaError};
use crate::table::Table;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ciao_bitvec::{BitVec, WireError};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CIAO";
const VERSION: u16 = 1;

/// Read/write failures.
#[derive(Debug)]
pub enum IoError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended early.
    Truncated,
    /// Column payload failed to decode.
    Decode(DecodeError),
    /// A bitvector failed to decode.
    BitVec(WireError),
    /// Schema failed validation.
    Schema(SchemaError),
    /// A page's payload does not match its recorded checksum.
    Checksum {
        /// CRC32 recorded in the page header.
        expected: u32,
        /// CRC32 of the payload actually read.
        actual: u32,
    },
    /// Internal inconsistency (e.g. column length vs row count).
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadMagic => write!(f, "not a CIAO columnar file (bad magic)"),
            IoError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::Truncated => write!(f, "file truncated"),
            IoError::Decode(e) => write!(f, "column decode error: {e}"),
            IoError::BitVec(e) => write!(f, "bitvector decode error: {e}"),
            IoError::Schema(e) => write!(f, "schema error: {e}"),
            IoError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload is {actual:#010x}"
            ),
            IoError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<DecodeError> for IoError {
    fn from(e: DecodeError) -> Self {
        IoError::Decode(e)
    }
}

impl From<WireError> for IoError {
    fn from(e: WireError) -> Self {
        IoError::BitVec(e)
    }
}

impl From<SchemaError> for IoError {
    fn from(e: SchemaError) -> Self {
        IoError::Schema(e)
    }
}

/// Serializes a schema section: field count, then (name, dtype tag)
/// per field.
pub fn write_schema(schema: &Schema, buf: &mut BytesMut) {
    buf.put_u32_le(schema.len() as u32);
    for field in schema.fields() {
        buf.put_u32_le(field.name.len() as u32);
        buf.put_slice(field.name.as_bytes());
        buf.put_u8(field.dtype.tag());
    }
}

/// Serializes one block against its schema: row count, bitvector
/// entries, then each column's validity and encoded values.
pub fn write_block(schema: &Schema, block: &Block, buf: &mut BytesMut) {
    buf.put_u64_le(block.row_count() as u64);
    let bitvecs: Vec<(u32, &BitVec)> = block.metadata().bitvectors().collect();
    buf.put_u32_le(bitvecs.len() as u32);
    for (id, bv) in bitvecs {
        buf.put_u32_le(id);
        bv.encode_into(buf);
    }
    for (idx, _field) in schema.fields().iter().enumerate() {
        let col = block.column(idx);
        col.validity().encode_into(buf);
        match col.values() {
            ColumnValues::Str(v) | ColumnValues::Json(v) => encode_strings(v, buf),
            ColumnValues::Int(v) => encode_ints(v, buf),
            ColumnValues::Float(v) => encode_floats(v, buf),
            ColumnValues::Bool(b) => b.encode_into(buf),
        }
    }
}

/// Serializes a table to bytes.
pub fn write_table(table: &Table) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);

    let empty = Schema::new(vec![]).expect("empty schema is valid");
    let schema = table.schema().unwrap_or(&empty);
    write_schema(schema, &mut buf);

    buf.put_u32_le(table.blocks().len() as u32);
    for block in table.blocks() {
        write_block(schema, block, &mut buf);
    }
    buf.freeze()
}

fn get_u16(buf: &mut impl Buf) -> Result<u16, IoError> {
    if buf.remaining() < 2 {
        return Err(IoError::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut impl Buf) -> Result<u32, IoError> {
    if buf.remaining() < 4 {
        return Err(IoError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut impl Buf) -> Result<u64, IoError> {
    if buf.remaining() < 8 {
        return Err(IoError::Truncated);
    }
    Ok(buf.get_u64_le())
}

fn get_string(buf: &mut impl Buf) -> Result<String, IoError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(IoError::Truncated);
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| IoError::Corrupt("field name not UTF-8".into()))
}

/// Deserializes a schema section written by [`write_schema`].
pub fn read_schema(buf: &mut &[u8]) -> Result<Arc<Schema>, IoError> {
    let field_count = get_u32(buf)? as usize;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let name = get_string(buf)?;
        if !buf.has_remaining() {
            return Err(IoError::Truncated);
        }
        let tag = buf.get_u8();
        let dtype = DataType::from_tag(tag)
            .ok_or_else(|| IoError::Corrupt(format!("unknown dtype tag {tag}")))?;
        fields.push(Field { name, dtype });
    }
    Ok(Arc::new(Schema::new(fields)?))
}

/// Deserializes one block written by [`write_block`] against `schema`.
/// Column stats are recomputed rather than trusted.
pub fn read_block(schema: &Arc<Schema>, buf: &mut &[u8]) -> Result<Block, IoError> {
    let row_count = get_u64(buf)? as usize;
    let bitvec_count = get_u32(buf)? as usize;
    let mut bitvecs = BTreeMap::new();
    for _ in 0..bitvec_count {
        let id = get_u32(buf)?;
        let bv = BitVec::decode_from(buf)?;
        if bv.len() != row_count {
            return Err(IoError::Corrupt(format!(
                "bitvec for predicate {id} has {} bits for {row_count} rows",
                bv.len()
            )));
        }
        bitvecs.insert(id, bv);
    }
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let validity = BitVec::decode_from(buf)?;
        let values = match field.dtype {
            DataType::Str => ColumnValues::Str(decode_strings(buf)?),
            DataType::Json => ColumnValues::Json(decode_strings(buf)?),
            DataType::Int => ColumnValues::Int(decode_ints(buf)?),
            DataType::Float => ColumnValues::Float(decode_floats(buf)?),
            DataType::Bool => ColumnValues::Bool(BitVec::decode_from(buf)?),
        };
        let col = Column::new(values, validity);
        if col.len() != row_count {
            return Err(IoError::Corrupt(format!(
                "column `{}` has {} rows, block has {row_count}",
                field.name,
                col.len()
            )));
        }
        columns.push(col);
    }
    // Recompute stats rather than trusting the producer.
    let stats: Vec<ColumnStats> = columns.iter().map(ColumnStats::compute).collect();
    let metadata = BlockMetadata::new(row_count, stats, bitvecs);
    Ok(Block::new(Arc::clone(schema), columns, metadata))
}

/// Deserializes a table from bytes.
pub fn read_table(mut bytes: &[u8]) -> Result<Table, IoError> {
    let buf = &mut bytes;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(IoError::BadMagic);
    }
    buf.advance(4);
    let version = get_u16(buf)?;
    if version != VERSION {
        return Err(IoError::BadVersion(version));
    }
    let schema = read_schema(buf)?;
    let block_count = get_u32(buf)? as usize;
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        blocks.push(read_block(&schema, buf)?);
    }
    Ok(Table::from_blocks(schema, blocks))
}

/// The reflected IEEE 802.3 polynomial (zlib, gzip, PNG).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables, evaluated at compile time.
/// `CRC_TABLES[k][b]` is the CRC state contributed by byte `b` when
/// `k` more bytes follow it in the 16-byte group, so one group costs
/// sixteen independent loads and xors instead of 128 dependent
/// shift/xor rounds.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// An incremental CRC-32 (IEEE 802.3, the zlib/gzip polynomial).
///
/// `update` may be called any number of times with any split of the
/// input — including empty parts — and `finish` yields exactly what
/// [`crc32`] yields over the concatenation. Durable writers use this
/// to checksum a header and a borrowed payload without first gluing
/// them into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum, sixteen at a time.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Crc32 {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut groups = bytes.chunks_exact(16);
        for g in &mut groups {
            // `u8 as usize` indexes a 256-entry table: no bounds check.
            let head = crc.to_le_bytes();
            crc = t[15][usize::from(g[0] ^ head[0])]
                ^ t[14][usize::from(g[1] ^ head[1])]
                ^ t[13][usize::from(g[2] ^ head[2])]
                ^ t[12][usize::from(g[3] ^ head[3])]
                ^ t[11][usize::from(g[4])]
                ^ t[10][usize::from(g[5])]
                ^ t[9][usize::from(g[6])]
                ^ t[8][usize::from(g[7])]
                ^ t[7][usize::from(g[8])]
                ^ t[6][usize::from(g[9])]
                ^ t[5][usize::from(g[10])]
                ^ t[4][usize::from(g[11])]
                ^ t[3][usize::from(g[12])]
                ^ t[2][usize::from(g[13])]
                ^ t[1][usize::from(g[14])]
                ^ t[0][usize::from(g[15])];
        }
        for &b in groups.remainder() {
            crc = (crc >> 8) ^ t[0][usize::from(b ^ crc.to_le_bytes()[0])];
        }
        self.state = crc;
        self
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over `bytes` — the
/// one-shot form of [`Crc32`].
///
/// Table-driven (slice-by-16, `const`-evaluated tables, safe Rust, no
/// CPU-feature dispatch): it checksums every WAL frame, snapshot page
/// and manifest on both the write and the recovery side, so it runs
/// over every durably ingested byte at least twice.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Bytes in a page header: kind, payload length, payload CRC.
const PAGE_HEADER: usize = 9;

/// Streams tagged payloads into `W` as checksummed pages:
/// `[kind u8][len u32 le][crc32 u32 le][payload]`.
///
/// This is the unit of corruption detection for every durable file:
/// a torn write or bit flip inside a page surfaces as
/// [`IoError::Checksum`]/[`IoError::Truncated`] on read, never as a
/// silently-wrong decode.
///
/// A payload is never copied into a staging buffer: it is checksummed
/// where it lies, then the header and the payload go straight to the
/// sink — hand it a `BufWriter` when pages are small or many-parted.
#[derive(Debug)]
pub struct PageWriter<W: Write> {
    out: W,
}

impl<W: Write> PageWriter<W> {
    /// Starts a page stream on `out`.
    pub fn new(out: W) -> PageWriter<W> {
        PageWriter { out }
    }

    /// Writes one page of `kind` wrapping `payload`.
    pub fn page(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        self.page_parts(kind, [payload])
    }

    /// Writes one page of `kind` whose payload is the concatenation of
    /// `parts` (walked once for the length, once for the checksum and
    /// once to write — the parts themselves are only borrowed).
    ///
    /// A payload the `u32` length field cannot describe is refused
    /// with [`std::io::ErrorKind::InvalidInput`] before anything is
    /// written, instead of producing a file that looks valid and
    /// mis-frames at recovery.
    pub fn page_parts<'a, I>(&mut self, kind: u8, parts: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = &'a [u8]> + Clone,
    {
        let len: usize = parts.clone().into_iter().map(<[u8]>::len).sum();
        let len = u32::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("page payload of {len} bytes exceeds the u32 length field"),
            )
        })?;
        let mut crc = Crc32::new();
        for part in parts.clone() {
            crc.update(part);
        }
        let mut header = [kind; PAGE_HEADER];
        header[1..5].copy_from_slice(&len.to_le_bytes());
        header[5..].copy_from_slice(&crc.finish().to_le_bytes());
        self.out.write_all(&header)?;
        for part in parts {
            self.out.write_all(part)?;
        }
        Ok(())
    }

    /// Ends the stream and hands the sink back (unflushed).
    pub fn finish(self) -> W {
        self.out
    }
}

/// Reads back a [`PageWriter`] stream, verifying each page's checksum.
#[derive(Debug)]
pub struct PageReader<'a> {
    buf: &'a [u8],
}

impl<'a> PageReader<'a> {
    /// Starts reading a page stream.
    pub fn new(buf: &'a [u8]) -> PageReader<'a> {
        PageReader { buf }
    }

    /// The next `(kind, payload)` pair; `Ok(None)` at a clean end of
    /// input, [`IoError::Truncated`] on a partial page,
    /// [`IoError::Checksum`] on payload corruption.
    pub fn next_page(&mut self) -> Result<Option<(u8, &'a [u8])>, IoError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.len() < PAGE_HEADER {
            return Err(IoError::Truncated);
        }
        let kind = self.buf[0];
        let len = u32::from_le_bytes(self.buf[1..5].try_into().unwrap()) as usize;
        let expected = u32::from_le_bytes(self.buf[5..9].try_into().unwrap());
        let rest = &self.buf[PAGE_HEADER..];
        if rest.len() < len {
            return Err(IoError::Truncated);
        }
        let payload = &rest[..len];
        let actual = crc32(payload);
        if actual != expected {
            return Err(IoError::Checksum { expected, actual });
        }
        self.buf = &rest[len..];
        Ok(Some((kind, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ciao_json::parse;
    use proptest::prelude::*;

    fn sample_table() -> Table {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("stars", DataType::Int),
                Field::new("score", DataType::Float),
                Field::new("active", DataType::Bool),
                Field::new("meta", DataType::Json),
            ])
            .unwrap(),
        );
        let mut tb = TableBuilder::with_block_size(schema, &[1, 5], 3);
        for i in 0..8i64 {
            let rec = parse(&format!(
                r#"{{"name":"level-{}","stars":{},"score":{}.5,"active":{},"meta":{{"i":{}}}}}"#,
                i % 3,
                i,
                i,
                i % 2 == 0,
                i
            ))
            .unwrap();
            let bits = BTreeMap::from([(1, i % 2 == 0), (5, i % 3 == 0)]);
            tb.push_record(&rec, &bits);
        }
        tb.finish()
    }

    #[test]
    fn roundtrip() {
        let table = sample_table();
        let bytes = write_table(&table);
        let back = read_table(&bytes).unwrap();
        assert_eq!(back.row_count(), table.row_count());
        assert_eq!(back.blocks().len(), table.blocks().len());
        assert_eq!(back.schema(), table.schema());
        // Full logical equality block by block.
        for (a, b) in table.blocks().iter().zip(back.blocks()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_empty_table() {
        let t = Table::default();
        let bytes = write_table(&t);
        let back = read_table(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bitvectors_survive() {
        let table = sample_table();
        let back = read_table(&write_table(&table)).unwrap();
        for (a, b) in table.blocks().iter().zip(back.blocks()) {
            assert_eq!(
                a.metadata().bitvec(1).unwrap(),
                b.metadata().bitvec(1).unwrap()
            );
            assert_eq!(
                a.metadata().bitvec(5).unwrap(),
                b.metadata().bitvec(5).unwrap()
            );
        }
    }

    #[test]
    fn stats_recomputed_on_read() {
        let table = sample_table();
        let back = read_table(&write_table(&table)).unwrap();
        let idx = back.schema().unwrap().index_of("stars").unwrap();
        let stats = &back.blocks()[0].metadata().column_stats[idx];
        assert_eq!(stats.min_int, Some(0));
        assert_eq!(stats.max_int, Some(2));
    }

    #[test]
    fn schema_and_block_codecs_compose() {
        // The extracted section codecs must agree with the monolithic
        // table format — write pieces, read pieces, same table.
        let table = sample_table();
        let schema = table.schema().unwrap();
        let mut buf = BytesMut::new();
        write_schema(schema, &mut buf);
        for block in table.blocks() {
            write_block(schema, block, &mut buf);
        }
        let bytes = buf.freeze();
        let mut cursor: &[u8] = &bytes;
        let schema_back = read_schema(&mut cursor).unwrap();
        assert_eq!(schema_back.as_ref(), schema);
        for block in table.blocks() {
            let back = read_block(&schema_back, &mut cursor).unwrap();
            assert_eq!(&back, block);
        }
        assert!(cursor.is_empty(), "codecs consumed exactly their bytes");
    }

    /// The textbook bit-at-a-time loop the table version replaced,
    /// kept as the differential oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Pin the polynomial: these are the standard IEEE CRC-32 test
        // vectors (zlib's crc32() produces the same values).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_bitwise_at_every_length_and_offset() {
        // Every length that exercises the 16-byte groups, the byte
        // tail and their boundary, at every start offset of a buffer
        // (so no alignment of the input is special).
        let buf: Vec<u8> = (0..128u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..32 {
            for len in 0..=80 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn crc32_matches_bitwise_on_random_buffers(
            bytes in prop::collection::vec(any::<u8>(), 0..(1 << 20)),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        #[test]
        fn crc32_update_over_any_split_equals_one_shot(
            bytes in prop::collection::vec(any::<u8>(), 0..4096),
            cuts in prop::collection::vec(0usize..4097, 0..8),
        ) {
            // Duplicate cuts make empty parts; so do cuts at 0 and len.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            for pair in cuts.windows(2) {
                crc.update(&bytes[pair[0]..pair[1]]);
            }
            prop_assert_eq!(crc.finish(), crc32(&bytes));
        }
    }

    #[test]
    fn page_roundtrip_and_corruption_detection() {
        let mut w = PageWriter::new(Vec::new());
        w.page(1, b"hello").unwrap();
        w.page(2, b"").unwrap();
        // A many-parted payload frames exactly like the glued one.
        w.page_parts(7, [&[0xAB; 100][..], &[], &[0xAB; 200]])
            .unwrap();
        let bytes = w.finish();
        let mut glued = PageWriter::new(Vec::new());
        glued.page(7, &[0xAB; 300]).unwrap();
        assert!(bytes.ends_with(&glued.finish()));

        let mut r = PageReader::new(&bytes);
        assert_eq!(r.next_page().unwrap(), Some((1, &b"hello"[..])));
        assert_eq!(r.next_page().unwrap(), Some((2, &b""[..])));
        let (kind, payload) = r.next_page().unwrap().unwrap();
        assert_eq!((kind, payload.len()), (7, 300));
        assert_eq!(r.next_page().unwrap(), None);

        // A flipped payload byte is a checksum error, not bad data.
        let mut flipped = bytes.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let mut r = PageReader::new(&flipped);
        r.next_page().unwrap();
        r.next_page().unwrap();
        assert!(matches!(r.next_page(), Err(IoError::Checksum { .. })));

        // Every mid-page prefix is truncated or checksum-broken, never
        // a silent success. (Cuts at exact page boundaries *are* valid
        // shorter streams — that is why durable files pair the page
        // layer with an end marker or page count.)
        let boundaries = [9 + 5, 9 + 5 + 9, bytes.len()];
        for cut in 1..bytes.len() {
            if boundaries.contains(&cut) {
                continue;
            }
            let mut r = PageReader::new(&bytes[..cut]);
            let mut outcome = Ok(());
            loop {
                match r.next_page() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            assert!(outcome.is_err(), "prefix of {cut} bytes read cleanly");
        }
    }

    #[test]
    fn over_long_page_is_refused_before_anything_is_written() {
        // 4097 borrowed MiB: one byte more than the u32 length field
        // holds. Only the lengths are walked before the refusal.
        let mib = vec![0u8; 1 << 20];
        let parts = std::iter::repeat_n(&mib[..], 4097);
        let mut w = PageWriter::new(Vec::new());
        let err = w.page_parts(3, parts).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(w.finish().is_empty(), "nothing reached the sink");
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(read_table(b"NOPE....."), Err(IoError::BadMagic)));
        assert!(matches!(read_table(b""), Err(IoError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write_table(&sample_table()).to_vec();
        bytes[4] = 0xff;
        assert!(matches!(read_table(&bytes), Err(IoError::BadVersion(_))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = write_table(&sample_table());
        // Every strict prefix must fail loudly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                read_table(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }
}
