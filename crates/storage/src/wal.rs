//! The segmented write-ahead chunk log.
//!
//! Ingest durability is chunk-granular: the unit a producer acks is a
//! whole [`RecordChunk`](ciao_json::RecordChunk), so that is the unit
//! the log records — raw NDJSON payload plus the routing the service
//! chose (`seq`, `shard`). Nothing derived (filter bitvectors, parsed
//! values) is logged; replay re-derives it with the same deterministic
//! prefilter, which keeps the log small and version-proof.
//!
//! On-disk frame, little-endian:
//!
//! ```text
//! [payload len u32][crc32(payload) u32][payload]
//! payload = [seq u64][shard u32][chunk NDJSON bytes…]
//! ```
//!
//! The payload is the producer's chunk text as it lies in memory: the
//! append path checksums the 12 routing bytes and the borrowed chunk
//! incrementally ([`frame_prefix`]) and hands both to one vectored
//! write, so between the producer's `RecordChunk` and the `write`
//! syscall the payload is never copied. Replay reads each frame's
//! chunk straight from the segment file into the buffer the record
//! then owns.
//!
//! Segments are append-only files `wal-<id>.log`; the id only ever
//! grows, and a reopened log always starts a *fresh* segment — after a
//! crash the previous tail may be torn, and appending past a torn
//! frame would bury valid records behind garbage. Closed segments
//! whose highest seq falls below the checkpoint floor are deleted by
//! [`Wal::truncate_below`].
//!
//! Damage found by a replay must be **repaired** before the writer
//! reopens ([`repair_dir`]): the corrupt segment is truncated to its
//! intact prefix and any later (untrusted) segments are quarantined as
//! `*.corrupt`. Without the repair, the next replay would stop at the
//! same old hole and drop every segment written *after* the first
//! recovery — losing records that were acked and fsync'd in the
//! meantime. Two unclean shutdowns in a row are the normal WAL torture
//! case, so recovery always repairs.

use crate::config::{StorageConfig, SyncPolicy};
use crate::sync_dir;
use ciao_columnar::{crc32, Crc32};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Frame header: payload length + checksum.
const FRAME_HEADER: usize = 8;
/// Payload header: seq + shard.
const PAYLOAD_HEADER: usize = 12;
/// Everything that precedes the chunk bytes of a frame on disk.
const FRAME_PREFIX: usize = FRAME_HEADER + PAYLOAD_HEADER;
/// Sanity bound on a single record — a length prefix beyond this is
/// treated as a torn/corrupt tail, not an allocation request, and the
/// writer refuses to produce one.
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// The 20 bytes that precede a chunk on disk — frame header (payload
/// length, CRC) then payload header (`seq`, `shard`) — with the CRC
/// taken incrementally over the payload header and the borrowed
/// `chunk`, so framing never copies the chunk.
///
/// A record above [`MAX_RECORD_BYTES`] — which the reader would reject
/// as corruption — is refused with [`ErrorKind::InvalidInput`].
pub fn frame_prefix(seq: u64, shard: u32, chunk: &[u8]) -> std::io::Result<[u8; FRAME_PREFIX]> {
    let payload_len = PAYLOAD_HEADER + chunk.len();
    if payload_len > MAX_RECORD_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("wal record of {payload_len} bytes exceeds the {MAX_RECORD_BYTES}-byte limit"),
        ));
    }
    let mut prefix = [0u8; FRAME_PREFIX];
    // Cannot truncate: bounded by MAX_RECORD_BYTES just above.
    prefix[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    prefix[8..16].copy_from_slice(&seq.to_le_bytes());
    prefix[16..].copy_from_slice(&shard.to_le_bytes());
    let crc = Crc32::new()
        .update(&prefix[FRAME_HEADER..])
        .update(chunk)
        .finish();
    prefix[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(prefix)
}

/// Writes `prefix` then `chunk` with one `writev` (looping only if the
/// kernel takes less than the whole frame).
fn write_frame(file: &mut File, prefix: &[u8], chunk: &[u8]) -> std::io::Result<()> {
    let mut written = 0;
    while written < prefix.len() + chunk.len() {
        let result = if written < prefix.len() {
            file.write_vectored(&[IoSlice::new(&prefix[written..]), IoSlice::new(chunk)])
        } else {
            file.write(&chunk[written - prefix.len()..])
        };
        match result {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One logged ingest chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Service-lifetime enqueue sequence number.
    pub seq: u64,
    /// Shard the chunk was routed to at enqueue time.
    pub shard: u32,
    /// Raw NDJSON chunk payload.
    pub chunk: Vec<u8>,
}

impl WalRecord {
    /// Encodes the full frame (header + payload) in memory: the
    /// reference the append path's [`frame_prefix`] + vectored write is
    /// tested byte-for-byte against. Panics on a record the `u32`
    /// length field cannot describe.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = PAYLOAD_HEADER + self.chunk.len();
        let framed_len = u32::try_from(payload_len).expect("wal record exceeds u32 framing");
        let mut out = Vec::with_capacity(FRAME_HEADER + payload_len);
        out.extend_from_slice(&framed_len.to_le_bytes());
        out.extend_from_slice(&[0; 4]); // crc placeholder
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.chunk);
        let crc = crc32(&out[FRAME_HEADER..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a checksummed payload (the bytes after the frame
    /// header). `None` when the payload is too short to carry its own
    /// header.
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        if payload.len() < PAYLOAD_HEADER {
            return None;
        }
        Some(WalRecord {
            seq: u64::from_le_bytes(payload[..8].try_into().unwrap()),
            shard: u32::from_le_bytes(payload[8..12].try_into().unwrap()),
            chunk: payload[PAYLOAD_HEADER..].to_vec(),
        })
    }
}

/// What one on-disk segment holds (derived by scanning at open).
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Monotone segment id (the number in `wal-<id>.log`).
    pub id: u64,
    /// Absolute path.
    pub path: PathBuf,
    /// Highest record seq inside, `None` for an empty segment.
    pub max_seq: Option<u64>,
}

/// The damage a replay found — everything [`repair_dir`] needs to make
/// the hole single-shot instead of permanent.
#[derive(Debug, Clone)]
pub struct WalDamage {
    /// Human-readable description of the first corrupt/torn frame.
    pub reason: String,
    /// Id of the segment holding that frame.
    pub segment_id: u64,
    /// Length of the segment's intact prefix (every replayed byte).
    pub valid_bytes: u64,
    /// Ids of later segments replay refused to trust (a hole breaks
    /// the prefix property for everything behind it).
    pub poisoned: Vec<u64>,
}

/// Everything a WAL directory scan recovers.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every intact record, in (segment, offset) order.
    pub records: Vec<WalRecord>,
    /// Per-segment metadata (for the writer to resume around).
    pub segments: Vec<SegmentMeta>,
    /// Bytes abandoned at and after the first corrupt/torn frame.
    pub dropped_bytes: u64,
    /// The first corruption hit, if any.
    pub corruption: Option<WalDamage>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:020}.log"))
}

fn parse_segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Scans `dir` for WAL segments and replays every intact record.
///
/// Replay is conservative: the first torn or checksum-broken frame
/// ends it — everything after (including later segments) is reported
/// as dropped rather than trusted, because a log with a hole in the
/// middle no longer proves anything about what follows.
///
/// Chunks are opaque bytes here; recovery, whose chunks must be text,
/// additionally refuses a frame that is not UTF-8.
pub fn replay_dir(dir: &Path) -> std::io::Result<WalReplay> {
    replay_frames(dir, false)
}

/// [`replay_dir`] for the service's log, whose chunks are NDJSON: a
/// frame that passes its CRC but is not UTF-8 was never written by a
/// producer, so it ends the replay like a checksum mismatch does
/// instead of being ingested with its bytes rewritten.
pub(crate) fn replay_text_dir(dir: &Path) -> std::io::Result<WalReplay> {
    replay_frames(dir, true)
}

fn replay_frames(dir: &Path, require_text: bool) -> std::io::Result<WalReplay> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_segment_id(&e.file_name().to_string_lossy()))
        .collect();
    ids.sort_unstable();

    let mut replay = WalReplay::default();
    for (i, &id) in ids.iter().enumerate() {
        let path = segment_path(dir, id);
        // Buffered for the 20 header bytes of each frame; a chunk
        // larger than the buffer is read past it, straight into the
        // record's own allocation — no whole-segment staging copy.
        let mut file = BufReader::new(File::open(&path)?);
        let file_len = file.get_ref().metadata()?.len();
        let mut meta = SegmentMeta {
            id,
            path: path.clone(),
            max_seq: None,
        };

        let mut offset = 0u64;
        let corruption: Option<String> = loop {
            let rest = file_len - offset;
            if rest == 0 {
                break None;
            }
            if rest < FRAME_HEADER as u64 {
                break Some(format!(
                    "{}: torn frame header at offset {offset}",
                    path.display()
                ));
            }
            let mut header = [0u8; FRAME_HEADER];
            file.read_exact(&mut header)?;
            let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let expected = u32::from_le_bytes(header[4..].try_into().unwrap());
            if len > MAX_RECORD_BYTES {
                break Some(format!(
                    "{}: implausible record length {len} at offset {offset}",
                    path.display()
                ));
            }
            if rest < (FRAME_HEADER + len) as u64 {
                break Some(format!(
                    "{}: torn record payload at offset {offset}",
                    path.display()
                ));
            }
            let mut routing = [0u8; PAYLOAD_HEADER];
            let routing = &mut routing[..len.min(PAYLOAD_HEADER)];
            file.read_exact(routing)?;
            let mut chunk = vec![0u8; len - routing.len()];
            file.read_exact(&mut chunk)?;
            let actual = Crc32::new().update(routing).update(&chunk).finish();
            if actual != expected {
                break Some(format!(
                    "{}: checksum mismatch at offset {offset} \
                     (header {expected:#010x}, payload {actual:#010x})",
                    path.display()
                ));
            }
            if len < PAYLOAD_HEADER {
                break Some(format!(
                    "{}: record at offset {offset} too short for its header",
                    path.display()
                ));
            }
            if require_text && std::str::from_utf8(&chunk).is_err() {
                break Some(format!(
                    "{}: record at offset {offset} is not UTF-8 text",
                    path.display()
                ));
            }
            let record = WalRecord {
                seq: u64::from_le_bytes(routing[..8].try_into().unwrap()),
                shard: u32::from_le_bytes(routing[8..].try_into().unwrap()),
                chunk,
            };
            meta.max_seq = Some(meta.max_seq.map_or(record.seq, |m| m.max(record.seq)));
            replay.records.push(record);
            offset += (FRAME_HEADER + len) as u64;
        };

        replay.segments.push(meta);
        if let Some(reason) = corruption {
            replay.dropped_bytes += file_len - offset;
            // Later segments cannot be trusted past a hole: count them
            // dropped wholesale.
            for &later in &ids[i + 1..] {
                let p = segment_path(dir, later);
                replay.dropped_bytes += std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
                replay.segments.push(SegmentMeta {
                    id: later,
                    path: p,
                    max_seq: None,
                });
            }
            replay.corruption = Some(WalDamage {
                reason,
                segment_id: id,
                valid_bytes: offset,
                poisoned: ids[i + 1..].to_vec(),
            });
            break;
        }
    }
    Ok(replay)
}

/// Repairs the damage a replay found so the *next* replay no longer
/// stops at the same hole: the corrupt segment is truncated to its
/// intact prefix and every poisoned later segment is renamed to
/// `wal-<id>.log.corrupt` (quarantined — invisible to replay, kept on
/// disk for inspection until the next checkpoint truncation cleans it
/// up). The directory is fsync'd so the repair itself is durable.
///
/// Mutates `replay.segments` to match the disk: quarantined metas keep
/// their id (the writer's `next_id` stays monotone) but point at the
/// `.corrupt` path with no `max_seq`, so [`Wal::truncate_below`]
/// deletes them at the first checkpoint.
///
/// Returns one human-readable note per file touched; no-op (empty
/// notes) when the replay was clean.
pub fn repair_dir(dir: &Path, replay: &mut WalReplay) -> std::io::Result<Vec<String>> {
    let Some(damage) = replay.corruption.clone() else {
        return Ok(Vec::new());
    };
    let mut notes = Vec::new();
    let torn = segment_path(dir, damage.segment_id);
    let file = OpenOptions::new().write(true).open(&torn)?;
    file.set_len(damage.valid_bytes)?;
    file.sync_data()?;
    notes.push(format!(
        "wal: truncated {} to its {} intact byte(s)",
        torn.display(),
        damage.valid_bytes
    ));
    for &id in &damage.poisoned {
        let from = segment_path(dir, id);
        let to = dir.join(format!("wal-{id:020}.log.corrupt"));
        std::fs::rename(&from, &to)?;
        if let Some(meta) = replay.segments.iter_mut().find(|m| m.id == id) {
            meta.path = to.clone();
        }
        notes.push(format!(
            "wal: quarantined untrusted segment as {}",
            to.display()
        ));
    }
    sync_dir(dir)?;
    Ok(notes)
}

/// What the most recent [`Wal::append_chunk`] cost, split where the
/// service's telemetry wants it split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendTiming {
    /// Checksum + `write` (everything but fsync).
    pub write: Duration,
    /// Time in `fsync`, `None` when the append issued none (a policy
    /// sync that came due, or a segment rotation).
    pub sync: Option<Duration>,
}

/// The append side of the log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: usize,
    /// Closed segments, oldest first.
    closed: Vec<SegmentMeta>,
    active: Option<ActiveSegment>,
    next_id: u64,
    appends_since_sync: u64,
    /// Records appended over this writer's lifetime.
    pub appends: u64,
    /// `fsync` calls issued by the append path.
    pub syncs: u64,
    /// Total time spent inside those `fsync` calls.
    sync_time: Duration,
    /// Cost of the most recent append.
    pub last_append: AppendTiming,
}

#[derive(Debug)]
struct ActiveSegment {
    meta: SegmentMeta,
    file: File,
    bytes: usize,
}

impl Wal {
    /// Opens the writer over a directory whose segments were already
    /// scanned by [`replay_dir`]. Existing segments are all treated as
    /// closed; the first append starts a fresh one.
    pub fn open(dir: &Path, config: &StorageConfig, existing: Vec<SegmentMeta>) -> Wal {
        let next_id = existing.iter().map(|s| s.id + 1).max().unwrap_or(0);
        Wal {
            dir: dir.to_path_buf(),
            sync: config.sync,
            segment_bytes: config.segment_bytes,
            closed: existing,
            active: None,
            next_id,
            appends_since_sync: 0,
            appends: 0,
            syncs: 0,
            sync_time: Duration::ZERO,
            last_append: AppendTiming::default(),
        }
    }

    /// Appends one record — [`Wal::append_chunk`] for a caller that
    /// holds an owned [`WalRecord`].
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.append_chunk(record.seq, record.shard, &record.chunk)
    }

    /// Appends one record framing the borrowed `chunk`, rotating and
    /// syncing per policy. When this returns under
    /// [`SyncPolicy::Always`], the record is on stable storage. A
    /// record above [`MAX_RECORD_BYTES`] is refused
    /// ([`ErrorKind::InvalidInput`]) with nothing written.
    pub fn append_chunk(&mut self, seq: u64, shard: u32, chunk: &[u8]) -> std::io::Result<()> {
        let started = Instant::now();
        let (syncs_before, sync_time_before) = (self.syncs, self.sync_time);
        let prefix = frame_prefix(seq, shard, chunk)?;
        let frame_len = prefix.len() + chunk.len();
        if self
            .active
            .as_ref()
            .is_some_and(|a| a.bytes + frame_len > self.segment_bytes && a.bytes > 0)
        {
            self.rotate()?;
        }
        if self.active.is_none() {
            let meta = SegmentMeta {
                id: self.next_id,
                path: segment_path(&self.dir, self.next_id),
                max_seq: None,
            };
            self.next_id += 1;
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&meta.path)?;
            // Make the directory entry itself durable: without this a
            // power loss can erase the whole freshly created segment —
            // records acked under `SyncPolicy::Always` included — even
            // though the file's data blocks were fsync'd.
            sync_dir(&self.dir)?;
            self.active = Some(ActiveSegment {
                meta,
                file,
                bytes: 0,
            });
        }
        let active = self.active.as_mut().expect("just opened");
        write_frame(&mut active.file, &prefix, chunk)?;
        active.bytes += frame_len;
        active.meta.max_seq = Some(active.meta.max_seq.map_or(seq, |m| m.max(seq)));
        self.appends += 1;
        self.appends_since_sync += 1;
        if self.sync.due(self.appends_since_sync) {
            self.sync()?;
        }
        let synced = self.sync_time - sync_time_before;
        self.last_append = AppendTiming {
            write: started.elapsed().saturating_sub(synced),
            sync: (self.syncs > syncs_before).then_some(synced),
        };
        Ok(())
    }

    /// Forces an fsync of the active segment (no-op when already
    /// clean).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        if let Some(active) = &mut self.active {
            let started = Instant::now();
            active.file.sync_data()?;
            self.sync_time += started.elapsed();
            self.syncs += 1;
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Closes the active segment (after syncing it) so it becomes
    /// eligible for truncation. The next append opens a new segment.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        if let Some(active) = self.active.take() {
            self.closed.push(active.meta);
        }
        Ok(())
    }

    /// Deletes closed segments every record of which has
    /// `seq < floor`. Returns how many files were removed.
    ///
    /// On a removal error the failing segment and everything after it
    /// stay in the closed list, so a later truncation retries them
    /// instead of leaking the files on disk forever.
    pub fn truncate_below(&mut self, floor: u64) -> std::io::Result<usize> {
        let mut deleted = 0;
        let mut kept = Vec::with_capacity(self.closed.len());
        let mut error = None;
        for seg in self.closed.drain(..) {
            let disposable = seg.max_seq.is_none_or(|max| max < floor);
            if disposable && error.is_none() {
                match std::fs::remove_file(&seg.path) {
                    Ok(()) => deleted += 1,
                    Err(e) => {
                        error = Some(e);
                        kept.push(seg);
                    }
                }
            } else {
                kept.push(seg);
            }
        }
        self.closed = kept;
        match error {
            Some(e) => Err(e),
            None => Ok(deleted),
        }
    }

    /// Closed + active segment count (for observability and tests).
    pub fn segment_count(&self) -> usize {
        self.closed.len() + usize::from(self.active.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn rec(seq: u64, shard: u32, text: &str) -> WalRecord {
        WalRecord {
            seq,
            shard,
            chunk: text.as_bytes().to_vec(),
        }
    }

    fn open_wal(dir: &Path, cfg: &StorageConfig) -> Wal {
        let replay = replay_dir(dir).unwrap();
        Wal::open(dir, cfg, replay.segments)
    }

    #[test]
    fn append_replay_roundtrip() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        let records: Vec<WalRecord> = (0..20)
            .map(|i| rec(i, (i % 3) as u32, &format!("{{\"i\":{i}}}")))
            .collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let replay = replay_dir(d.path()).unwrap();
        assert_eq!(replay.records, records);
        assert!(replay.corruption.is_none());
        assert_eq!(replay.dropped_bytes, 0);
    }

    #[test]
    fn reopen_starts_fresh_segment_and_preserves_history() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        wal.append(&rec(0, 0, "a")).unwrap();
        drop(wal);
        let mut wal = open_wal(d.path(), &cfg);
        wal.append(&rec(1, 0, "b")).unwrap();
        drop(wal);
        let replay = replay_dir(d.path()).unwrap();
        assert_eq!(replay.segments.len(), 2, "one segment per writer life");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].chunk, b"b");
    }

    #[test]
    fn rotation_by_size_and_truncation_by_floor() {
        let d = ScratchDir::new("wal");
        // Tiny segments: every record rotates.
        let cfg = StorageConfig::new(d.path()).with_segment_bytes(8);
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..10 {
            wal.append(&rec(i, 0, "xxxxxxxxxxxxxxxx")).unwrap();
        }
        assert!(wal.segment_count() >= 10);
        wal.rotate().unwrap();
        // Floor 7: segments holding seqs 0..=6 go; 7, 8, 9 stay.
        let deleted = wal.truncate_below(7).unwrap();
        assert_eq!(deleted, 7);
        let replay = replay_dir(d.path()).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..5 {
            wal.append(&rec(i, 0, "payload-payload")).unwrap();
        }
        drop(wal);
        // Tear 3 bytes off the single segment's tail.
        let seg = segment_path(d.path(), 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let replay = replay_dir(d.path()).unwrap();
        assert_eq!(replay.records.len(), 4, "only the torn record is lost");
        let damage = replay.corruption.as_ref().unwrap();
        assert!(damage.reason.contains("torn"));
        assert_eq!(damage.segment_id, 0);
        assert!(damage.poisoned.is_empty());
        assert!(replay.dropped_bytes > 0);
    }

    #[test]
    fn checksum_flip_stops_replay_at_the_flip() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..5 {
            wal.append(&rec(i, 0, "payload-payload")).unwrap();
        }
        drop(wal);
        let seg = segment_path(d.path(), 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a payload byte in the middle record (frame 2 of 5).
        let frame = bytes.len() / 5;
        bytes[2 * frame + FRAME_HEADER + PAYLOAD_HEADER + 1] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        let replay = replay_dir(d.path()).unwrap();
        assert_eq!(replay.records.len(), 2, "replay stops before the flip");
        let damage = replay.corruption.as_ref().unwrap();
        assert!(damage.reason.contains("checksum mismatch"));
        assert_eq!(damage.valid_bytes, 2 * frame as u64);
        assert_eq!(replay.dropped_bytes, 3 * frame as u64);
    }

    #[test]
    fn corruption_poisons_later_segments_too() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path()).with_segment_bytes(8);
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..4 {
            wal.append(&rec(i, 0, "sixteen-byte-rec")).unwrap();
        }
        drop(wal);
        // Corrupt segment 1 of 4: segments 2 and 3 must not be
        // trusted either — a hole breaks the prefix property.
        let seg = segment_path(d.path(), 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();

        let replay = replay_dir(d.path()).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0], "only the pre-hole prefix survives");
        let damage = replay.corruption.as_ref().unwrap();
        assert_eq!(damage.segment_id, 1);
        assert_eq!(damage.poisoned, vec![2, 3]);
    }

    #[test]
    fn repair_makes_a_torn_tail_single_shot() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..5 {
            wal.append(&rec(i, 0, "payload-payload")).unwrap();
        }
        drop(wal);
        // Crash 1 tears the tail.
        let seg = segment_path(d.path(), 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        // Recovery 1: replay, repair, append new (acked) records.
        let mut replay = replay_dir(d.path()).unwrap();
        assert_eq!(replay.records.len(), 4);
        let notes = repair_dir(d.path(), &mut replay).unwrap();
        assert_eq!(notes.len(), 1, "one truncation, nothing quarantined");
        let mut wal = Wal::open(d.path(), &cfg, replay.segments);
        for i in 4..8 {
            wal.append(&rec(i, 0, "post-crash")).unwrap();
        }
        drop(wal);

        // Crash 2 (unclean again): the old hole must not swallow the
        // post-repair segment.
        let replay = replay_dir(d.path()).unwrap();
        assert!(replay.corruption.is_none(), "the hole was repaired");
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn repair_quarantines_poisoned_segments_until_truncation() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path()).with_segment_bytes(8);
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..4 {
            wal.append(&rec(i, 0, "sixteen-byte-rec")).unwrap();
        }
        drop(wal);
        // A hole in segment 1 poisons segments 2 and 3.
        let seg = segment_path(d.path(), 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();

        let mut replay = replay_dir(d.path()).unwrap();
        let notes = repair_dir(d.path(), &mut replay).unwrap();
        assert_eq!(notes.len(), 3, "one truncation + two quarantines");
        let quarantined: Vec<PathBuf> = std::fs::read_dir(d.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".corrupt"))
            .collect();
        assert_eq!(quarantined.len(), 2, "poisoned files kept for inspection");

        // The repaired log replays its surviving prefix and keeps
        // accepting appends past the (former) hole.
        let mut wal = Wal::open(d.path(), &cfg, replay.segments);
        assert!(wal.next_id >= 4, "quarantined ids are not reused");
        wal.append(&rec(1, 0, "sixteen-byte-rec")).unwrap();
        wal.rotate().unwrap();
        let replay = replay_dir(d.path()).unwrap();
        assert!(replay.corruption.is_none());
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // A checkpoint truncation past everything cleans the
        // quarantine files up (their metas have no max_seq).
        wal.truncate_below(u64::MAX).unwrap();
        for q in &quarantined {
            assert!(!q.exists(), "{} should be gone", q.display());
        }
    }

    #[test]
    fn truncate_error_keeps_undeleted_segments_tracked() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path()).with_segment_bytes(8);
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..3 {
            wal.append(&rec(i, 0, "sixteen-byte-rec")).unwrap();
        }
        wal.rotate().unwrap();
        assert_eq!(wal.segment_count(), 3);
        // Sabotage segment 1: replace the file with a non-empty
        // directory so remove_file fails mid-truncation.
        let seg1 = segment_path(d.path(), 1);
        std::fs::remove_file(&seg1).unwrap();
        std::fs::create_dir(&seg1).unwrap();
        std::fs::write(seg1.join("x"), b"x").unwrap();

        let err = wal.truncate_below(u64::MAX);
        assert!(err.is_err(), "removal of a directory must fail");
        // Segment 0 was deleted; 1 (failed) and 2 (never reached) must
        // still be tracked so a retry can delete them.
        assert_eq!(wal.segment_count(), 2);
        std::fs::remove_dir_all(&seg1).unwrap();
        std::fs::write(&seg1, b"").unwrap();
        assert_eq!(wal.truncate_below(u64::MAX).unwrap(), 2);
        assert_eq!(wal.segment_count(), 0);
    }

    #[test]
    fn implausible_length_is_corruption_not_allocation() {
        let d = ScratchDir::new("wal");
        let seg = segment_path(d.path(), 0);
        let mut bytes = (u32::MAX - 7).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        std::fs::write(&seg, &bytes).unwrap();
        let replay = replay_dir(d.path()).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay
            .corruption
            .as_ref()
            .unwrap()
            .reason
            .contains("implausible record length"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The append path (incremental checksum over the borrowed
        /// chunk, vectored write) lays down exactly the bytes of the
        /// reference encoder (`WalRecord::encode`: one glued buffer,
        /// one-shot checksum) — the on-disk format did not move.
        #[test]
        fn segment_is_byte_identical_to_the_reference_frames(
            records in proptest::collection::vec(
                (
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u32>(),
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2000),
                ),
                1..12,
            ),
        ) {
            let d = ScratchDir::new("wal-identity");
            let cfg = StorageConfig::new(d.path()).with_sync(SyncPolicy::Never);
            let mut wal = open_wal(d.path(), &cfg);
            let mut expected = Vec::new();
            for (seq, shard, chunk) in records {
                wal.append_chunk(seq, shard, &chunk).unwrap();
                expected.extend(WalRecord { seq, shard, chunk }.encode());
            }
            proptest::prop_assert_eq!(std::fs::read(segment_path(d.path(), 0)).unwrap(), expected);
        }
    }

    #[test]
    fn over_long_record_is_refused_at_write_time() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path());
        let mut wal = open_wal(d.path(), &cfg);
        // One byte past what the reader accepts (never touched: the
        // refusal precedes the checksum pass).
        let chunk = vec![0u8; MAX_RECORD_BYTES - PAYLOAD_HEADER + 1];
        let err = wal.append_chunk(0, 0, &chunk).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert_eq!(wal.appends, 0);
        assert_eq!(wal.segment_count(), 0, "nothing was created or written");
        // The limit itself still frames.
        assert!(frame_prefix(0, 0, &chunk[1..]).is_ok());
    }

    #[test]
    fn append_timing_splits_write_from_sync() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path()).with_sync(SyncPolicy::EveryN(2));
        let mut wal = open_wal(d.path(), &cfg);
        wal.append(&rec(0, 0, "x")).unwrap();
        assert!(wal.last_append.write > Duration::ZERO);
        assert_eq!(wal.last_append.sync, None, "first of two: no fsync due");
        wal.append(&rec(1, 0, "x")).unwrap();
        assert!(wal.last_append.sync.is_some(), "second append fsyncs");
    }

    #[test]
    fn sync_policy_counts_syncs() {
        let d = ScratchDir::new("wal");
        let cfg = StorageConfig::new(d.path()).with_sync(SyncPolicy::EveryN(4));
        let mut wal = open_wal(d.path(), &cfg);
        for i in 0..10 {
            wal.append(&rec(i, 0, "x")).unwrap();
        }
        assert_eq!(wal.syncs, 2, "10 appends / every-4 = 2 due syncs");
        wal.sync().unwrap();
        assert_eq!(wal.syncs, 3, "explicit sync flushes the remainder");
        wal.sync().unwrap();
        assert_eq!(wal.syncs, 3, "clean log does not re-sync");
    }
}
