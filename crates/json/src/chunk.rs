//! Raw, unparsed record chunks.
//!
//! CIAO clients ship newline-delimited JSON in chunks (the paper uses
//! ~1k objects per chunk, §III). A [`RecordChunk`] holds the raw text
//! once, behind an `Arc`, and exposes each record as a borrowed `&str`
//! slice, because the whole point of client-assisted loading is that
//! nobody tokenizes these bytes until the server decides a record is
//! worth parsing. A record that outlives its chunk — one the server
//! parks — is a [`SharedRecord`]: a 16-byte handle into the same text,
//! so keeping it copies and allocates nothing
//! ([`RecordChunk::share_records`], which also bounds how much text
//! such handles keep alive).

use std::collections::HashSet;
use std::sync::Arc;

/// Errors from chunk construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// A record contained an interior newline (would corrupt NDJSON
    /// framing downstream).
    EmbeddedNewline {
        /// Index of the offending record.
        record: usize,
    },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::EmbeddedNewline { record } => {
                write!(f, "record {record} contains an embedded newline")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// A chunk of raw newline-delimited JSON records.
///
/// Blank lines are dropped at construction; records are otherwise kept
/// byte-for-byte, including any malformed JSON — validation is the
/// *server's* job at load time, never the client's. The text is shared:
/// a clone copies only the record spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordChunk {
    text: Arc<String>,
    /// Byte ranges of each record within `text` (exclusive end, no
    /// trailing newline included).
    spans: Vec<(u32, u32)>,
}

/// A record held apart from its [`RecordChunk`]: the text it lives in
/// (shared, not copied) and its byte range there. 16 bytes; a clone
/// bumps a reference count.
#[derive(Clone)]
pub struct SharedRecord {
    text: Arc<String>,
    start: u32,
    end: u32,
}

impl SharedRecord {
    /// The record's raw text.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.text[self.start as usize..self.end as usize]
    }

    /// Bytes of text `records` keep alive: the length of each distinct
    /// buffer they point into, counted once however many of them share
    /// it.
    pub fn retained_bytes<'a>(records: impl IntoIterator<Item = &'a SharedRecord>) -> usize {
        let mut seen = HashSet::new();
        let mut last: Option<&Arc<String>> = None;
        let mut bytes = 0;
        for record in records {
            // Records of one buffer arrive together: test the set only
            // when the buffer changes.
            if last.is_some_and(|text| Arc::ptr_eq(text, &record.text)) {
                continue;
            }
            last = Some(&record.text);
            if seen.insert(Arc::as_ptr(&record.text)) {
                bytes += record.text.len();
            }
        }
        bytes
    }

    /// Applies [`RecordChunk::share_records`]' bound afresh to handles
    /// that have outlived some of their neighbours (a parked store that
    /// compaction is draining): when `records` keep more than
    /// [`MAX_RETAINED_PER_SHARED_BYTE`] times their own bytes alive,
    /// they are copied into one buffer of exactly their size. Returns
    /// the bytes of text they keep alive afterwards
    /// ([`SharedRecord::retained_bytes`]).
    pub fn bound_retained(records: &mut [SharedRecord]) -> usize {
        let retained = SharedRecord::retained_bytes(&*records);
        let bytes: usize = records.iter().map(|r| (r.end - r.start) as usize).sum();
        if retained <= bytes * MAX_RETAINED_PER_SHARED_BYTE {
            return retained;
        }
        let packed: Vec<SharedRecord> =
            pack(records.iter().map(SharedRecord::as_str), bytes).collect();
        records.clone_from_slice(&packed);
        bytes
    }
}

impl AsRef<str> for SharedRecord {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Debug for SharedRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// How much text [`SharedRecord`]s taken from one chunk may keep alive,
/// per byte of their own: [`RecordChunk::share_records`] shares a
/// chunk's text only while the records it hands out hold at least
/// `1 / MAX_RETAINED_PER_SHARED_BYTE` of it, and copies them into one
/// buffer of their own otherwise. A fixed rule, not a setting.
pub const MAX_RETAINED_PER_SHARED_BYTE: usize = 2;

/// Copies `records` (`bytes` bytes in all) back to back into one buffer
/// of exactly that size, and hands out a handle to each, in order.
fn pack<'a>(
    records: impl Iterator<Item = &'a str> + Clone + 'a,
    bytes: usize,
) -> impl Iterator<Item = SharedRecord> + 'a {
    let mut text = String::with_capacity(bytes);
    records.clone().for_each(|record| text.push_str(record));
    let text = Arc::new(text);
    let mut start = 0;
    records.map(move |record| {
        let end = start + record.len() as u32;
        let shared = SharedRecord {
            text: Arc::clone(&text),
            start,
            end,
        };
        start = end;
        shared
    })
}

/// Byte ranges of the non-blank lines of `text` (CR/LF excluded).
fn line_spans(text: &str) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for line in text.split('\n') {
        let next = start + line.len() + 1;
        // Tolerate CRLF producers.
        let line = line.strip_suffix('\r').unwrap_or(line);
        if !line.trim().is_empty() {
            spans.push((start as u32, (start + line.len()) as u32));
        }
        start = next;
    }
    spans
}

impl RecordChunk {
    /// Splits NDJSON text into one chunk containing every non-blank line.
    pub fn from_ndjson(text: &str) -> RecordChunk {
        RecordChunk::from_ndjson_owned(text.to_owned())
    }

    /// [`RecordChunk::from_ndjson`] for a caller that already owns the
    /// text (a replayed log payload): the chunk takes the buffer as it
    /// is instead of copying it.
    pub fn from_ndjson_owned(text: String) -> RecordChunk {
        let spans = line_spans(&text);
        RecordChunk {
            text: Arc::new(text),
            spans,
        }
    }

    /// A chunk with one record per line of `text`, framed exactly as
    /// [`str::lines`] frames it: blank and whitespace-only lines are
    /// records too, and one `\r` before each `\n` is dropped. This reads
    /// back a page written as records each followed by `\n` (a
    /// snapshot's parked records) record for record, taking the buffer
    /// without copying it. Panics when `text` is 4 GiB or longer.
    pub fn from_lines_owned(text: String) -> RecordChunk {
        // Spans are `u32`; a snapshot page's length field is too.
        assert!(u32::try_from(text.len()).is_ok(), "chunk text over 4 GiB");
        let mut start = 0usize;
        let spans = text
            .split_inclusive('\n')
            .map(|line| {
                let record = match line.strip_suffix('\n') {
                    Some(line) => line.strip_suffix('\r').unwrap_or(line),
                    None => line,
                };
                let span = (start as u32, (start + record.len()) as u32);
                start += line.len();
                span
            })
            .collect();
        RecordChunk {
            text: Arc::new(text),
            spans,
        }
    }

    /// Builds a chunk from individual record strings.
    pub fn from_records<S: AsRef<str>>(records: &[S]) -> Result<RecordChunk, ChunkError> {
        let mut text = String::with_capacity(records.iter().map(|r| r.as_ref().len() + 1).sum());
        let mut spans = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let r = r.as_ref();
            if r.contains('\n') {
                return Err(ChunkError::EmbeddedNewline { record: i });
            }
            let start = text.len() as u32;
            text.push_str(r);
            spans.push((start, text.len() as u32));
            text.push('\n');
        }
        Ok(RecordChunk {
            text: Arc::new(text),
            spans,
        })
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the chunk holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The raw text of record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> &str {
        let (s, e) = self.spans[i];
        &self.text[s as usize..e as usize]
    }

    /// Iterates the raw records in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.spans
            .iter()
            .map(move |&(s, e)| &self.text[s as usize..e as usize])
    }

    /// Every record as a [`SharedRecord`] over this chunk's text, in
    /// order.
    pub fn shared(&self) -> impl ExactSizeIterator<Item = SharedRecord> + '_ {
        (0..self.len()).map(|i| self.share(i))
    }

    fn share(&self, i: usize) -> SharedRecord {
        let (start, end) = self.spans[i];
        SharedRecord {
            text: Arc::clone(&self.text),
            start,
            end,
        }
    }

    /// Appends a [`SharedRecord`] for each record index in `picked` to
    /// `out`, in `picked`'s order. While the picked records hold at
    /// least `1 / MAX_RETAINED_PER_SHARED_BYTE` of the chunk's text,
    /// the handles share it: nothing is copied or allocated per record.
    /// Below that they are copied into one buffer of exactly their
    /// size, so a few kept records never pin a whole chunk. Either way
    /// the text the handles keep alive is at most
    /// [`MAX_RETAINED_PER_SHARED_BYTE`] times their own bytes. Returns
    /// the length of that text (0 when `picked` is empty).
    pub fn share_records(&self, picked: &[u32], out: &mut Vec<SharedRecord>) -> usize {
        if picked.is_empty() {
            return 0;
        }
        let bytes: usize = picked
            .iter()
            .map(|&i| {
                let (s, e) = self.spans[i as usize];
                (e - s) as usize
            })
            .sum();
        out.reserve(picked.len());
        if bytes * MAX_RETAINED_PER_SHARED_BYTE >= self.text.len() {
            out.extend(picked.iter().map(|&i| self.share(i as usize)));
            return self.text.len();
        }
        out.extend(pack(picked.iter().map(|&i| self.record(i as usize)), bytes));
        bytes
    }

    /// Canonical NDJSON serialization: every record followed by one
    /// `\n`, blank lines and CRLF normalized away. This is the byte
    /// form durable logs persist — `from_ndjson(&c.to_ndjson())`
    /// yields a chunk with identical records.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.payload_bytes() + self.len());
        for record in self.iter() {
            out.push_str(record);
            out.push('\n');
        }
        out
    }

    /// The chunk's own NDJSON text, borrowed: what a durable log
    /// persists without serializing anything. Unlike
    /// [`RecordChunk::to_ndjson`] it is not normalized — a producer's
    /// blank lines and CRLFs are still in it — but
    /// `from_ndjson(c.as_ndjson())` yields a chunk with identical
    /// records, which is all a replay needs. For chunks built by
    /// [`RecordChunk::from_records`] or [`RecordChunk::split`] the two
    /// forms are byte-identical.
    pub fn as_ndjson(&self) -> &str {
        &self.text
    }

    /// Total payload size in bytes (records only, no framing).
    pub fn payload_bytes(&self) -> usize {
        self.spans.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// Mean record length in bytes (0 for an empty chunk). This is the
    /// `len(t)` statistic the cost model of paper §V-D consumes.
    pub fn mean_record_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.payload_bytes() as f64 / self.len() as f64
        }
    }

    /// Splits into sub-chunks of at most `records_per_chunk` records.
    pub fn split(&self, records_per_chunk: usize) -> Vec<RecordChunk> {
        assert!(records_per_chunk > 0, "chunk size must be positive");
        self.spans
            .chunks(records_per_chunk)
            .map(|spans| {
                let records: Vec<&str> = spans
                    .iter()
                    .map(|&(s, e)| &self.text[s as usize..e as usize])
                    .collect();
                RecordChunk::from_records(&records).expect("records already newline-free")
            })
            .collect()
    }
}

impl<'a> IntoIterator for &'a RecordChunk {
    type Item = &'a str;
    type IntoIter = Box<dyn ExactSizeIterator<Item = &'a str> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Streams fixed-size [`RecordChunk`]s out of any NDJSON byte source
/// without materializing the whole stream — the production ingestion
/// path for multi-gigabyte logs (`File` → `BufReader` → chunks).
///
/// Blank lines are dropped; CRLF is tolerated; I/O errors surface on
/// the iterator. Lines that are not valid UTF-8 are yielded as an
/// error (JSON must be UTF-8).
#[derive(Debug)]
pub struct ChunkReader<R> {
    reader: R,
    records_per_chunk: usize,
    done: bool,
}

impl<R: std::io::BufRead> ChunkReader<R> {
    /// Wraps a buffered reader, emitting chunks of at most
    /// `records_per_chunk` records.
    pub fn new(reader: R, records_per_chunk: usize) -> ChunkReader<R> {
        assert!(records_per_chunk > 0, "chunk size must be positive");
        ChunkReader {
            reader,
            records_per_chunk,
            done: false,
        }
    }

    fn read_chunk(&mut self) -> std::io::Result<Option<RecordChunk>> {
        let mut records: Vec<String> = Vec::with_capacity(self.records_per_chunk);
        let mut line = String::new();
        while records.len() < self.records_per_chunk {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                self.done = true;
                break;
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.trim().is_empty() {
                continue;
            }
            records.push(trimmed.to_owned());
        }
        if records.is_empty() {
            return Ok(None);
        }
        Ok(Some(
            RecordChunk::from_records(&records).expect("read_line strips newlines"),
        ))
    }
}

impl<R: std::io::BufRead> Iterator for ChunkReader<R> {
    type Item = std::io::Result<RecordChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_chunk() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time framing `line_spans` replaced, kept as its
    /// oracle.
    fn line_spans_bytewise(text: &str) -> Vec<(u32, u32)> {
        let mut spans = Vec::new();
        let mut start = 0usize;
        let bytes = text.as_bytes();
        for i in 0..=bytes.len() {
            if i == bytes.len() || bytes[i] == b'\n' {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                if !text[start..end].trim().is_empty() {
                    spans.push((start as u32, end as u32));
                }
                start = i + 1;
            }
        }
        spans
    }

    /// Text made of lines that are blank, whitespace-only, CRLF- or
    /// CR-CR-LF-ended, or carry a multi-byte character.
    fn arb_lines() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                Just(String::new()),
                Just(" \t ".to_owned()),
                Just("\r".to_owned()),
                "[a-z{}:\" é\r\t]{0,12}",
            ],
            0..24,
        )
        .prop_flat_map(|lines| {
            let n = lines.len();
            (
                Just(lines),
                prop::collection::vec(any::<bool>(), n),
                any::<bool>(),
            )
        })
        .prop_map(|(lines, crlf, trailing)| {
            let mut text = String::new();
            for (i, (line, crlf)) in lines.iter().zip(crlf).enumerate() {
                text.push_str(line);
                if i + 1 < lines.len() || trailing {
                    text.push_str(if crlf { "\r\n" } else { "\n" });
                }
            }
            text
        })
    }

    proptest! {
        #[test]
        fn line_spans_match_the_bytewise_framing(text in arb_lines()) {
            prop_assert_eq!(line_spans(&text), line_spans_bytewise(&text));
        }

        #[test]
        fn from_lines_owned_frames_as_str_lines(text in arb_lines()) {
            let chunk = RecordChunk::from_lines_owned(text.clone());
            prop_assert_eq!(chunk.iter().collect::<Vec<_>>(), text.lines().collect::<Vec<_>>());
            prop_assert_eq!(chunk.as_ndjson(), text.as_str());
        }
    }

    #[test]
    fn from_lines_owned_keeps_blank_records() {
        let c = RecordChunk::from_lines_owned("{}\n\n  \nx\r\r\n".to_owned());
        assert_eq!(c.iter().collect::<Vec<_>>(), ["{}", "", "  ", "x\r"]);
        assert!(RecordChunk::from_lines_owned(String::new()).is_empty());
    }

    #[test]
    fn shared_records_point_into_the_chunk_text() {
        let c = RecordChunk::from_records(&["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]).unwrap();
        let mut out = Vec::new();
        c.share_records(&[], &mut out);
        assert!(out.is_empty());
        c.share_records(&[2, 0], &mut out);
        assert_eq!(out[0].as_str(), "{\"c\":3}");
        assert_eq!(out[1].as_str(), "{\"a\":1}");
        let text = c.as_ndjson().as_bytes().as_ptr_range();
        assert!(out.iter().all(|r| text.contains(&r.as_str().as_ptr())));
        assert_eq!(SharedRecord::retained_bytes(&out), c.as_ndjson().len());
        assert_eq!(c.shared().collect::<Vec<_>>().len(), 3);
    }

    #[test]
    fn a_few_shared_records_are_copied_out_of_a_large_chunk() {
        let records: Vec<String> = (0..100).map(|i| format!("{{\"i\":{i}}}")).collect();
        let c = RecordChunk::from_records(&records).unwrap();
        let mut out = Vec::new();
        c.share_records(&[7, 3], &mut out);
        assert_eq!(
            out.iter().map(SharedRecord::as_str).collect::<Vec<_>>(),
            [&records[7], &records[3]]
        );
        let text = c.as_ndjson().as_bytes().as_ptr_range();
        assert!(out.iter().all(|r| !text.contains(&r.as_str().as_ptr())));
        // One buffer of exactly their bytes, counted once.
        assert_eq!(
            SharedRecord::retained_bytes(&out),
            records[7].len() + records[3].len()
        );
    }

    #[test]
    fn bound_retained_copies_out_handles_that_outlived_their_neighbours() {
        let records: Vec<String> = (0..100).map(|i| format!("{{\"i\":{i}}}")).collect();
        let c = RecordChunk::from_records(&records).unwrap();
        let whole = c.as_ndjson().len();
        // Most of the chunk still held: the handles keep sharing it.
        let mut kept: Vec<SharedRecord> = c.shared().skip(10).collect();
        assert_eq!(SharedRecord::bound_retained(&mut kept), whole);
        let text = c.as_ndjson().as_bytes().as_ptr_range();
        assert!(kept.iter().all(|r| text.contains(&r.as_str().as_ptr())));
        // A few left: copied into one buffer of exactly their bytes.
        let mut few = kept.split_off(85);
        let own: usize = few.iter().map(|r| r.as_str().len()).sum();
        assert_eq!(SharedRecord::bound_retained(&mut few), own);
        assert_eq!(SharedRecord::retained_bytes(&few), own);
        assert!(few.iter().all(|r| !text.contains(&r.as_str().as_ptr())));
        assert_eq!(
            few.iter().map(SharedRecord::as_str).collect::<Vec<_>>(),
            records[95..]
        );
        assert_eq!(SharedRecord::bound_retained(&mut []), 0);
    }

    #[test]
    fn clones_share_the_text() {
        let c = RecordChunk::from_ndjson("{\"a\":1}\n{\"b\":2}");
        let d = c.clone();
        assert_eq!(c.as_ndjson().as_ptr(), d.as_ndjson().as_ptr());
        assert_eq!(c, d);
    }

    #[test]
    fn from_ndjson_basic() {
        let c = RecordChunk::from_ndjson("{\"a\":1}\n{\"b\":2}\n{\"c\":3}");
        assert_eq!(c.len(), 3);
        assert_eq!(c.record(0), "{\"a\":1}");
        assert_eq!(c.record(2), "{\"c\":3}");
        assert_eq!(c.iter().count(), 3);
    }

    #[test]
    fn blank_lines_and_trailing_newline() {
        let c = RecordChunk::from_ndjson("{\"a\":1}\n\n  \n{\"b\":2}\n");
        assert_eq!(c.len(), 2);
        assert_eq!(c.record(1), "{\"b\":2}");
    }

    #[test]
    fn crlf_tolerated() {
        let c = RecordChunk::from_ndjson("{\"a\":1}\r\n{\"b\":2}\r\n");
        assert_eq!(c.len(), 2);
        assert_eq!(c.record(0), "{\"a\":1}");
        assert_eq!(c.record(1), "{\"b\":2}");
    }

    #[test]
    fn empty_input() {
        let c = RecordChunk::from_ndjson("");
        assert!(c.is_empty());
        assert_eq!(c.payload_bytes(), 0);
        assert_eq!(c.mean_record_len(), 0.0);
    }

    #[test]
    fn from_records_roundtrip() {
        let recs = ["{\"x\":1}", "{\"y\":2}"];
        let c = RecordChunk::from_records(&recs).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.record(0), recs[0]);
        assert_eq!(c.record(1), recs[1]);
    }

    #[test]
    fn from_records_rejects_newline() {
        let err = RecordChunk::from_records(&["ok", "bad\nline"]).unwrap_err();
        assert_eq!(err, ChunkError::EmbeddedNewline { record: 1 });
    }

    #[test]
    fn to_ndjson_roundtrips_and_normalizes() {
        let c = RecordChunk::from_ndjson("{\"a\":1}\r\n\n{\"b\":2}\n   \n{\"c\":3}");
        assert_eq!(c.to_ndjson(), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
        let back = RecordChunk::from_ndjson(&c.to_ndjson());
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            c.iter().collect::<Vec<_>>()
        );
        assert_eq!(RecordChunk::from_ndjson("").to_ndjson(), "");
    }

    #[test]
    fn as_ndjson_replays_to_identical_records() {
        // Not normalized, but replay-equivalent...
        let messy = "{\"a\":1}\r\n\n{\"b\":2}\n   \n{\"c\":3}";
        let c = RecordChunk::from_ndjson(messy);
        assert_eq!(c.as_ndjson(), messy);
        let back = RecordChunk::from_ndjson_owned(c.as_ndjson().to_owned());
        assert_eq!(back, c);
        // ...and already canonical for chunks built from records.
        for part in c.split(2) {
            assert_eq!(part.as_ndjson(), part.to_ndjson());
        }
    }

    #[test]
    fn payload_stats() {
        let c = RecordChunk::from_records(&["aaaa", "bb"]).unwrap();
        assert_eq!(c.payload_bytes(), 6);
        assert_eq!(c.mean_record_len(), 3.0);
    }

    #[test]
    fn split_into_subchunks() {
        let recs: Vec<String> = (0..10).map(|i| format!("{{\"i\":{i}}}")).collect();
        let c = RecordChunk::from_records(&recs).unwrap();
        let parts = c.split(3);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[3].len(), 1);
        // Order and contents preserved across the split.
        let mut all = Vec::new();
        for p in &parts {
            all.extend(p.iter().map(str::to_owned));
        }
        assert_eq!(all, recs);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn split_zero_panics() {
        RecordChunk::from_ndjson("x").split(0);
    }

    #[test]
    fn malformed_json_is_kept_verbatim() {
        // The chunk layer must not validate — that's the server's job.
        let c = RecordChunk::from_ndjson("not json at all\n{\"ok\":1}");
        assert_eq!(c.len(), 2);
        assert_eq!(c.record(0), "not json at all");
    }

    #[test]
    fn chunk_reader_streams_fixed_chunks() {
        let text: String = (0..10).map(|i| format!("{{\"i\":{i}}}\n")).collect();
        let reader = ChunkReader::new(std::io::Cursor::new(text), 3);
        let chunks: Vec<RecordChunk> = reader.map(|c| c.unwrap()).collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        assert_eq!(chunks[1].record(0), "{\"i\":3}");
    }

    #[test]
    fn chunk_reader_matches_from_ndjson() {
        let text = "{\"a\":1}\r\n\n{\"b\":2}\n   \n{\"c\":3}";
        let streamed: Vec<String> = ChunkReader::new(std::io::Cursor::new(text), 2)
            .flat_map(|c| c.unwrap().iter().map(str::to_owned).collect::<Vec<_>>())
            .collect();
        let batch: Vec<String> = RecordChunk::from_ndjson(text)
            .iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn chunk_reader_empty_source() {
        let mut reader = ChunkReader::new(std::io::Cursor::new(""), 8);
        assert!(reader.next().is_none());
        let mut blanks = ChunkReader::new(std::io::Cursor::new("\n\n \n"), 8);
        assert!(blanks.next().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn chunk_reader_zero_size() {
        ChunkReader::new(std::io::Cursor::new(""), 0);
    }
}
