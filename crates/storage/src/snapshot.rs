//! Per-shard epoch snapshots.
//!
//! A snapshot captures everything a shard has *applied*: the sealed
//! columnar table, the parked raw records, cumulative load stats, and
//! the WAL position (`ceiling`) all of it covers. Restoring the
//! snapshot and replaying WAL records with `seq >= ceiling` rebuilds
//! the shard exactly.
//!
//! On-disk layout: the magic `CIAOSNAP`, a version word, then CRC'd
//! pages framed by [`ciao_columnar::PageWriter`]:
//!
//! ```text
//! META    [shard u32][sealed_epochs u64][ceiling u64][4 × stat u64]
//! SCHEMA  columnar schema section            (omitted when no rows)
//! BLOCK   one columnar block section         (repeated)
//! PARKED  parked raw records, NDJSON
//! END     empty
//! ```
//!
//! The `END` page matters: the page layer alone cannot distinguish a
//! file truncated at an exact page boundary from a complete shorter
//! file, so a reader treats a missing `END` as corruption.
//!
//! Files are written to a temp name and renamed into place, so a
//! snapshot either exists whole or not at all; crash mid-write leaves
//! only a `.tmp` that recovery ignores.
//!
//! The writer ([`write_snapshot`]) takes a borrowed [`SnapshotView`]
//! of the live shard and streams it: each page is checksummed where
//! its payload lies (the parked page over the shard's own records —
//! anything that lends a `str` — one incremental CRC pass) and goes
//! through a `BufWriter` to the temp file — no parked record is cloned,
//! joined or staged on the way. [`ShardSnapshot`] is the owned form
//! recovery decodes into: it keeps the PARKED page as one text buffer,
//! which the service restores as one chunk, so recovering a parked
//! store allocates nothing per record.

use crate::StorageError;
use bytes::{BufMut, BytesMut};
use ciao::LoadStats;
use ciao_columnar::{
    read_block, read_schema, write_block, write_schema, Block, PageReader, PageWriter, Schema,
    Table,
};
use std::io::{BufWriter, Write};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"CIAOSNAP";
const VERSION: u32 = 1;

const PAGE_META: u8 = 1;
const PAGE_SCHEMA: u8 = 2;
const PAGE_BLOCK: u8 = 3;
const PAGE_PARKED: u8 = 4;
const PAGE_END: u8 = 5;

/// The durable image of one shard at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index within the service.
    pub shard: u32,
    /// Epochs sealed into the table so far.
    pub sealed_epochs: u64,
    /// WAL watermark: every logged record with `seq < ceiling` is
    /// already applied here; replay resumes at `seq >= ceiling`.
    pub ceiling: u64,
    /// Cumulative load statistics at the boundary.
    pub stats: LoadStats,
    /// Schema of the sealed table (`None` when it has no rows).
    pub schema: Option<Arc<Schema>>,
    /// Sealed columnar blocks.
    pub blocks: Vec<Block>,
    /// Parked raw records awaiting just-in-time promotion, as the
    /// PARKED page holds them: each record followed by `\n`. Its lines
    /// (as `str::lines` frames them) are the records.
    pub parked: String,
}

/// A borrowed image of one live shard — what a checkpoint hands the
/// writer, so nothing the shard holds is cloned to be persisted.
///
/// A shard holds its sealed state as a list of fragments (one per
/// sealed epoch or compaction), so blocks and parked records come as
/// slices of fragments — anything that lends a `[Block]`, and anything
/// that derefs to a slice of records that lend a `str` — and are
/// written in order as one run each; the file does not record the
/// fragmentation.
#[derive(Debug)]
pub struct SnapshotView<'a, B = Vec<Block>, P = Vec<String>> {
    /// Shard index within the service.
    pub shard: u32,
    /// Epochs sealed into the table so far.
    pub sealed_epochs: u64,
    /// WAL watermark (see [`ShardSnapshot::ceiling`]).
    pub ceiling: u64,
    /// Cumulative load statistics at the boundary.
    pub stats: LoadStats,
    /// Schema of the sealed table (`None` when it has no rows).
    pub schema: Option<&'a Schema>,
    /// Sealed columnar blocks, fragment by fragment.
    pub blocks: &'a [B],
    /// Parked raw records awaiting just-in-time promotion, fragment
    /// by fragment.
    pub parked: &'a [P],
}

// Not derived: a view is a handful of references whatever `B` and `P`
// are, and a derive would demand `B: Copy, P: Copy`.
impl<B, P> Clone for SnapshotView<'_, B, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B, P> Copy for SnapshotView<'_, B, P> {}

/// Something [`write_snapshot`] persists: a borrowed [`SnapshotView`]
/// of a live shard, or an owned [`ShardSnapshot`].
pub trait SnapshotImage {
    /// `(shard, sealed_epochs, ceiling)`: what the file is named by.
    fn identity(&self) -> (u32, u64, u64);

    /// Streams the snapshot's file image into `out`.
    fn write_image(&self, out: &mut dyn Write) -> std::io::Result<()>;
}

impl<B: AsRef<[Block]>, P: Deref<Target = [S]>, S: AsRef<str>> SnapshotView<'_, B, P> {
    /// Streams the snapshot's file image into `out`.
    pub fn write_to(&self, out: impl Write) -> std::io::Result<()> {
        let lines = self
            .parked
            .iter()
            .flat_map(|fragment| fragment.iter())
            .flat_map(|line| [line.as_ref().as_bytes(), b"\n".as_slice()]);
        self.write_pages(out, lines)
    }
}

impl<B: AsRef<[Block]>, P: Deref<Target = [S]>, S: AsRef<str>> SnapshotImage
    for SnapshotView<'_, B, P>
{
    fn identity(&self) -> (u32, u64, u64) {
        (self.shard, self.sealed_epochs, self.ceiling)
    }

    fn write_image(&self, out: &mut dyn Write) -> std::io::Result<()> {
        self.write_to(out)
    }
}

impl<B: AsRef<[Block]>, P> SnapshotView<'_, B, P> {
    /// The page stream, with `parked` as the PARKED page's payload.
    fn write_pages<'p, I>(&self, mut out: impl Write, parked: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = &'p [u8]> + Clone,
    {
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        let mut writer = PageWriter::new(out);

        let mut meta = BytesMut::with_capacity(52);
        meta.put_u32_le(self.shard);
        meta.put_u64_le(self.sealed_epochs);
        meta.put_u64_le(self.ceiling);
        for stat in [
            self.stats.loaded_records,
            self.stats.parked_records,
            self.stats.parse_errors,
            self.stats.coercion_failures,
        ] {
            meta.put_u64_le(stat as u64);
        }
        writer.page(PAGE_META, &meta)?;

        if let Some(schema) = self.schema {
            let mut buf = BytesMut::new();
            write_schema(schema, &mut buf);
            writer.page(PAGE_SCHEMA, &buf)?;
            for block in self.blocks.iter().flat_map(AsRef::as_ref) {
                let mut buf = BytesMut::new();
                write_block(schema, block, &mut buf);
                writer.page(PAGE_BLOCK, &buf)?;
            }
        }
        writer.page_parts(PAGE_PARKED, parked)?;
        writer.page(PAGE_END, &[])
    }
}

impl SnapshotImage for ShardSnapshot {
    fn identity(&self) -> (u32, u64, u64) {
        (self.shard, self.sealed_epochs, self.ceiling)
    }

    fn write_image(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let header: SnapshotView<'_, Vec<Block>, Vec<String>> = SnapshotView {
            shard: self.shard,
            sealed_epochs: self.sealed_epochs,
            ceiling: self.ceiling,
            stats: self.stats,
            schema: self.schema.as_deref(),
            blocks: std::slice::from_ref(&self.blocks),
            parked: &[],
        };
        header.write_pages(out, [self.parked.as_bytes()])
    }
}

impl ShardSnapshot {
    /// Takes the snapshot apart into what a shard restores from — the
    /// sealed table and the parked records' text (see
    /// [`ShardSnapshot::parked`]) — without cloning either.
    pub fn into_table_and_parked(self) -> (Table, String) {
        let table = match self.schema {
            Some(schema) => Table::from_blocks(schema, self.blocks),
            None => Table::default(),
        };
        (table, self.parked)
    }

    /// Serializes the snapshot to its file image in memory (the same
    /// page stream [`write_snapshot`] sends to disk).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_image(&mut out)
            .expect("a Vec refuses nothing below the u32 page limit");
        out
    }

    /// Parses a snapshot file image, verifying magic, version, page
    /// checksums, and the terminal `END` page. Decodes a copy of
    /// `bytes` ([`read_snapshot`] hands its file image over instead).
    pub fn decode(bytes: &[u8]) -> Result<ShardSnapshot, StorageError> {
        ShardSnapshot::decode_owned(bytes.to_vec())
    }

    /// The decoder behind [`ShardSnapshot::decode`], over an image it
    /// owns: the PARKED page's text becomes [`ShardSnapshot::parked`] in
    /// the image's own buffer, moved to its front, so it is never
    /// copied.
    fn decode_owned(mut bytes: Vec<u8>) -> Result<ShardSnapshot, StorageError> {
        let (mut snapshot, parked) = ShardSnapshot::decode_pages(&bytes)?;
        bytes.truncate(parked.end);
        bytes.drain(..parked.start);
        // Give the rest of the image back: the restored parked records
        // keep this buffer alive, and it is never copied (blocks can
        // be most of the file).
        bytes.shrink_to_fit();
        snapshot.parked = String::from_utf8(bytes)
            .map_err(|_| StorageError::corrupt("snapshot: parked not UTF-8"))?;
        Ok(snapshot)
    }

    /// Every check and page of [`ShardSnapshot::decode_owned`] but the
    /// PARKED page's text, whose position in `bytes` it returns unvalidated
    /// (empty when there is no such page).
    fn decode_pages(bytes: &[u8]) -> Result<(ShardSnapshot, Range<usize>), StorageError> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(StorageError::corrupt("snapshot: bad magic"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StorageError::corrupt(format!(
                "snapshot: unsupported version {version}"
            )));
        }

        let mut reader = PageReader::new(&bytes[12..]);
        let mut snapshot: Option<ShardSnapshot> = None;
        let mut parked = 0..0;
        let mut ended = false;
        while let Some((kind, payload)) = reader
            .next_page()
            .map_err(|e| StorageError::corrupt(format!("snapshot page: {e}")))?
        {
            if ended {
                return Err(StorageError::corrupt("snapshot: pages after END"));
            }
            match kind {
                PAGE_META => {
                    if payload.len() != 52 {
                        return Err(StorageError::corrupt("snapshot: bad META size"));
                    }
                    let u64_at =
                        |off: usize| u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
                    snapshot = Some(ShardSnapshot {
                        shard: u32::from_le_bytes(payload[..4].try_into().unwrap()),
                        sealed_epochs: u64_at(4),
                        ceiling: u64_at(12),
                        stats: LoadStats {
                            loaded_records: u64_at(20) as usize,
                            parked_records: u64_at(28) as usize,
                            parse_errors: u64_at(36) as usize,
                            coercion_failures: u64_at(44) as usize,
                        },
                        schema: None,
                        blocks: Vec::new(),
                        parked: String::new(),
                    });
                }
                PAGE_SCHEMA => {
                    let snap = snapshot
                        .as_mut()
                        .ok_or_else(|| StorageError::corrupt("snapshot: SCHEMA before META"))?;
                    let mut buf = payload;
                    snap.schema = Some(
                        read_schema(&mut buf)
                            .map_err(|e| StorageError::corrupt(format!("snapshot schema: {e}")))?,
                    );
                }
                PAGE_BLOCK => {
                    let snap = snapshot
                        .as_mut()
                        .ok_or_else(|| StorageError::corrupt("snapshot: BLOCK before META"))?;
                    let schema = snap
                        .schema
                        .clone()
                        .ok_or_else(|| StorageError::corrupt("snapshot: BLOCK before SCHEMA"))?;
                    let mut buf = payload;
                    snap.blocks.push(
                        read_block(&schema, &mut buf)
                            .map_err(|e| StorageError::corrupt(format!("snapshot block: {e}")))?,
                    );
                }
                PAGE_PARKED => {
                    if snapshot.is_none() {
                        return Err(StorageError::corrupt("snapshot: PARKED before META"));
                    }
                    // `payload` borrows from `bytes`: its offset there.
                    let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
                    parked = start..start + payload.len();
                }
                PAGE_END => ended = true,
                other => {
                    return Err(StorageError::corrupt(format!(
                        "snapshot: unknown page kind {other}"
                    )));
                }
            }
        }
        if !ended {
            return Err(StorageError::corrupt(
                "snapshot: missing END page (truncated file)",
            ));
        }
        let snapshot =
            snapshot.ok_or_else(|| StorageError::corrupt("snapshot: missing META page"))?;
        Ok((snapshot, parked))
    }
}

/// A parsed snapshot filename: `snap-s<shard>-e<epochs>-q<ceiling>.snap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotName {
    /// Shard index.
    pub shard: u32,
    /// Sealed-epoch count at the boundary (orders generations).
    pub epochs: u64,
    /// WAL ceiling recorded in the name (readable without opening).
    pub ceiling: u64,
    /// Absolute path.
    pub path: PathBuf,
}

impl SnapshotName {
    fn file_name(shard: u32, epochs: u64, ceiling: u64) -> String {
        format!("snap-s{shard:04}-e{epochs:010}-q{ceiling:020}.snap")
    }

    fn parse(dir: &Path, name: &str) -> Option<SnapshotName> {
        let rest = name.strip_prefix("snap-s")?.strip_suffix(".snap")?;
        let (shard, rest) = rest.split_once("-e")?;
        let (epochs, ceiling) = rest.split_once("-q")?;
        Some(SnapshotName {
            shard: shard.parse().ok()?,
            epochs: epochs.parse().ok()?,
            ceiling: ceiling.parse().ok()?,
            path: dir.join(name),
        })
    }
}

/// Lists snapshot files in `dir`, sorted by (shard, epochs) so the
/// last entry per shard is its newest generation.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<SnapshotName>> {
    let mut found: Vec<SnapshotName> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| SnapshotName::parse(dir, &e.file_name().to_string_lossy()))
        .collect();
    found.sort_by_key(|s| (s.shard, s.epochs, s.ceiling));
    Ok(found)
}

/// Buffer between the page stream and the temp file: large enough
/// that a shard's worth of short parked lines costs a few hundred
/// `write` calls, not one per 8 KiB.
const WRITE_BUFFER: usize = 256 << 10;

/// Writes the snapshot atomically (temp file + fsync + rename) and
/// returns its parsed name. Takes a [`SnapshotView`] (or a
/// `&ShardSnapshot`) and streams it, see the module docs.
pub fn write_snapshot(dir: &Path, snapshot: &impl SnapshotImage) -> std::io::Result<SnapshotName> {
    let (shard, epochs, ceiling) = snapshot.identity();
    let name = SnapshotName::file_name(shard, epochs, ceiling);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let mut out = BufWriter::with_capacity(WRITE_BUFFER, std::fs::File::create(&tmp_path)?);
    snapshot.write_image(&mut out)?;
    // `into_inner` flushes and, unlike a drop, reports the failure.
    let file = out.into_inner().map_err(|e| e.into_error())?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself — and fail loudly if that is not
    // possible, since an unsynced dirent means the snapshot may not
    // exist after power loss even though the data blocks do.
    crate::sync_dir(dir)?;
    Ok(SnapshotName::parse(dir, &name).expect("self-generated name parses"))
}

/// Reads and decodes one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<ShardSnapshot, StorageError> {
    ShardSnapshot::decode_owned(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ciao_columnar::{DataType, Field, TableBuilder};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sample(shard: u32, epochs: u64, ceiling: u64, rows: usize) -> ShardSnapshot {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("level", DataType::Str),
                Field::new("code", DataType::Int),
            ])
            .unwrap(),
        );
        let mut tb = TableBuilder::with_block_size(Arc::clone(&schema), &[0], 3);
        for i in 0..rows {
            let rec = ciao_json::parse(&format!(r#"{{"level":"l{}","code":{i}}}"#, i % 2)).unwrap();
            tb.push_record(&rec, &BTreeMap::from([(0, i % 2 == 0)]));
        }
        let table = tb.finish();
        ShardSnapshot {
            shard,
            sealed_epochs: epochs,
            ceiling,
            stats: LoadStats {
                loaded_records: rows,
                parked_records: 2,
                parse_errors: 1,
                coercion_failures: 0,
            },
            schema: table.schema().map(|s| Arc::new(s.clone())),
            blocks: table.blocks().to_vec(),
            parked: "{\"raw\":1}\n{\"raw\":2}\n".to_owned(),
        }
    }

    /// The parent format's encoder, kept as the byte-identity oracle:
    /// every page payload is materialized (the parked `lines` joined
    /// into one buffer) and checksummed in one shot, sharing nothing
    /// with the streaming [`SnapshotView::write_to`].
    fn reference_encode(snap: &ShardSnapshot, lines: &[String]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut page = |kind: u8, payload: &[u8]| {
            out.push(kind);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&ciao_columnar::crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        };
        let mut meta = BytesMut::new();
        meta.put_u32_le(snap.shard);
        meta.put_u64_le(snap.sealed_epochs);
        meta.put_u64_le(snap.ceiling);
        meta.put_u64_le(snap.stats.loaded_records as u64);
        meta.put_u64_le(snap.stats.parked_records as u64);
        meta.put_u64_le(snap.stats.parse_errors as u64);
        meta.put_u64_le(snap.stats.coercion_failures as u64);
        page(PAGE_META, &meta);
        if let Some(schema) = &snap.schema {
            let mut buf = BytesMut::new();
            write_schema(schema, &mut buf);
            page(PAGE_SCHEMA, &buf);
            for block in &snap.blocks {
                let mut buf = BytesMut::new();
                write_block(schema, block, &mut buf);
                page(PAGE_BLOCK, &buf);
            }
        }
        let parked: String = lines.iter().map(|l| format!("{l}\n")).collect();
        page(PAGE_PARKED, parked.as_bytes());
        page(PAGE_END, &[]);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streamed_file_is_byte_identical_to_the_reference_image(
            key in (0u32..8, 0u64..1000, any::<u64>()),
            rows in 0usize..20,
            parked in prop::collection::vec("[ -~]{0,60}", 0..40),
            cuts in (0usize..=20, 0usize..=40),
        ) {
            // `rows == 0` has no schema page; `parked` may be empty or
            // hold empty lines.
            let mut snap = sample(key.0, key.1, key.2, rows);
            snap.parked = parked.iter().map(|l| format!("{l}\n")).collect();
            let d = ScratchDir::new("snap-identity");
            let name = write_snapshot(d.path(), &snap).unwrap();
            let reference = reference_encode(&snap, &parked);
            prop_assert_eq!(std::fs::read(&name.path).unwrap(), reference.clone());
            let back = read_snapshot(&name.path).unwrap();
            prop_assert_eq!(back.parked.lines().collect::<Vec<_>>(), parked.clone());
            prop_assert_eq!(back, snap.clone());

            // A live shard lends its state as per-epoch fragments
            // (some empty): wherever the cuts fall, the same bytes.
            let (b, p) = (cuts.0.min(snap.blocks.len()), cuts.1.min(parked.len()));
            let blocks: [&[Block]; 3] = [&snap.blocks[..b], &[], &snap.blocks[b..]];
            let parked: [&[String]; 3] = [&parked[..p], &parked[p..], &[]];
            let mut streamed = Vec::new();
            SnapshotView {
                shard: snap.shard,
                sealed_epochs: snap.sealed_epochs,
                ceiling: snap.ceiling,
                stats: snap.stats,
                schema: snap.schema.as_deref(),
                blocks: &blocks,
                parked: &parked,
            }
            .write_to(&mut streamed)
            .unwrap();
            prop_assert_eq!(&streamed, &reference);
            prop_assert_eq!(streamed, snap.encode());
        }
    }

    #[test]
    fn roundtrip_with_rows() {
        let snap = sample(3, 7, 42, 8);
        let back = ShardSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.into_table_and_parked().0.row_count(), 8);
    }

    #[test]
    fn a_read_snapshot_keeps_only_its_parked_page() {
        let snap = sample(0, 1, 5, 200);
        let d = ScratchDir::new("snap-parked-page");
        let name = write_snapshot(d.path(), &snap).unwrap();
        let back = read_snapshot(&name.path).unwrap();
        assert_eq!(back, snap);
        // The blocks were most of the file; the parked text holds none
        // of their bytes.
        assert!(std::fs::metadata(&name.path).unwrap().len() > 10 * snap.parked.len() as u64);
        assert_eq!(back.parked.capacity(), back.parked.len());
    }

    #[test]
    fn roundtrip_empty_shard() {
        let snap = ShardSnapshot {
            shard: 0,
            sealed_epochs: 0,
            ceiling: 0,
            stats: LoadStats::default(),
            schema: None,
            blocks: Vec::new(),
            parked: String::new(),
        };
        let back = ShardSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        assert!(back.into_table_and_parked().0.is_empty());
    }

    #[test]
    fn a_parked_page_that_is_not_utf8_is_corruption() {
        let mut image = Vec::new();
        let mut header = sample(0, 1, 5, 0);
        header.parked = String::new();
        header.write_image(&mut image).unwrap();
        // Swap the empty PARKED page for a checksummed one that is not
        // UTF-8, keeping END after it.
        image.truncate(image.len() - 2 * 9);
        let mut pages = PageWriter::new(&mut image);
        pages.page(PAGE_PARKED, b"{\"a\":1}\n\xff\n").unwrap();
        pages.page(PAGE_END, &[]).unwrap();
        let err = ShardSnapshot::decode(&image).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let d = ScratchDir::new("snap-utf8");
        let path = d.path().join("bad.snap");
        std::fs::write(&path, &image).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample(0, 1, 5, 6).encode();
        // Every strict prefix must fail: mid-page cuts break the page
        // reader, exact page-boundary cuts lose the END marker.
        for cut in 0..bytes.len() {
            assert!(
                ShardSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample(0, 1, 5, 6).encode();
        for &at in &[13, bytes.len() / 2, bytes.len() - 1] {
            let mut broken = bytes.clone();
            broken[at] ^= 0x20;
            assert!(
                ShardSnapshot::decode(&broken).is_err(),
                "flip at {at} went unnoticed"
            );
        }
    }

    #[test]
    fn atomic_write_and_listing() {
        let d = ScratchDir::new("snap");
        write_snapshot(d.path(), &sample(0, 1, 10, 4)).unwrap();
        write_snapshot(d.path(), &sample(0, 2, 20, 4)).unwrap();
        write_snapshot(d.path(), &sample(1, 1, 15, 4)).unwrap();
        let listed = list_snapshots(d.path()).unwrap();
        assert_eq!(listed.len(), 3);
        assert_eq!(
            listed
                .iter()
                .map(|s| (s.shard, s.epochs, s.ceiling))
                .collect::<Vec<_>>(),
            vec![(0, 1, 10), (0, 2, 20), (1, 1, 15)],
        );
        let back = read_snapshot(&listed[1].path).unwrap();
        assert_eq!(back.sealed_epochs, 2);
        assert_eq!(back.ceiling, 20);
    }

    #[test]
    fn tmp_files_are_not_listed() {
        let d = ScratchDir::new("snap");
        std::fs::write(d.path().join("snap-s0000-e1-q1.snap.tmp"), b"junk").unwrap();
        assert!(list_snapshots(d.path()).unwrap().is_empty());
    }
}
