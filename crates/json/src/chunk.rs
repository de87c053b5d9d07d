//! Raw, unparsed record chunks.
//!
//! CIAO clients ship newline-delimited JSON in chunks (the paper uses
//! ~1k objects per chunk, §III). A [`RecordChunk`] owns the raw text
//! once and exposes each record as a borrowed `&str` slice, because the
//! whole point of client-assisted loading is that nobody tokenizes these
//! bytes until the server decides a record is worth parsing.

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
/// *server's* job at load time, never the client's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordChunk {
    text: String,
    /// Byte ranges of each record within `text` (exclusive end, no
    /// trailing newline included).
    spans: Vec<(u32, u32)>,
}

/// Byte ranges of the non-blank lines of `text` (CR/LF excluded).
fn line_spans(text: &str) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    let bytes = text.as_bytes();
    for i in 0..=bytes.len() {
        if i == bytes.len() || bytes[i] == b'\n' {
            let mut end = i;
            // Tolerate CRLF producers.
            if end > start && bytes[end - 1] == b'\r' {
                end -= 1;
            }
            if text[start..end].trim().is_empty() {
                start = i + 1;
                continue;
            }
            spans.push((start as u32, end as u32));
            start = i + 1;
        }
    }
    spans
}

impl RecordChunk {
    /// Splits NDJSON text into one chunk containing every non-blank line.
    pub fn from_ndjson(text: &str) -> RecordChunk {
        let spans = line_spans(text);
        RecordChunk {
            text: text.to_owned(),
            spans,
        }
    }

    /// [`RecordChunk::from_ndjson`] for a caller that already owns the
    /// text (a replayed log payload): the chunk takes the buffer as it
    /// is instead of copying it.
    pub fn from_ndjson_owned(text: String) -> RecordChunk {
        let spans = line_spans(&text);
        RecordChunk { text, spans }
    }

    /// Builds a chunk from individual record strings.
    pub fn from_records<S: AsRef<str>>(records: &[S]) -> Result<RecordChunk, ChunkError> {
        let mut text = String::new();
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
        Ok(RecordChunk { text, spans })
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
