//! Hot-path micro suite: every optimized kernel measured against its
//! scalar reference in the same process, medians appended to
//! `BENCH_hotpath.json` (see [`crate::trajectory`]).
//!
//! The suite's portability trick: the *gate* never compares absolute
//! nanoseconds across machines. Each row records the optimized
//! median, the in-run scalar-reference median, and their ratio
//! (`speedup`); CI compares ratios against the committed baseline's
//! ratios, so a slower runner shifts both sides equally.
//!
//! Optimized and baseline timings are **interleaved** (the
//! `BENCH_service.json` telemetry-overhead measurement established the
//! idiom): machine-load drift lands on both sides instead of biasing
//! whichever ran second, and medians shrug off outliers.

use crate::experiments::datasets::{ndjson, ExperimentScale};
use ciao_bitvec::BitVec;
use ciao_client::{Finder, Prefilter};
use ciao_columnar::Block;
use ciao_columnar::{Schema, Table, TableBuilder};
use ciao_datagen::Dataset;
use ciao_engine::{
    eval_query_on_block, scan_count, Executor, ParkedFragment, ParkedIndex, ScanOptions,
};
use ciao_json::RecordChunk;
use ciao_predicate::{compile_clause, parse_clause, parse_query, ClausePattern};
use ciao_storage::wal::frame_prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One measured kernel: optimized median vs in-run scalar baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathRow {
    /// Row id, stable across runs (the gate joins on it).
    pub name: String,
    /// Kernel family ("search", "prefilter", "bitvec", "columnar",
    /// "engine", "json", "storage").
    pub group: String,
    /// Median wall-clock of the optimized path, nanoseconds.
    pub median_ns: f64,
    /// Median wall-clock of the scalar reference, nanoseconds.
    pub baseline_ns: f64,
    /// `baseline_ns / median_ns` — the machine-portable number.
    pub speedup: f64,
    /// Bytes the optimized path touched per second, MB/s.
    pub throughput_mb_s: f64,
    /// Whether CI's perf gate enforces this row. A row whose speedup
    /// depends on core count would be recorded but not gated, so a
    /// 1-core runner cannot fail the build on topology.
    pub gated: bool,
}

/// Interleaved timing iterations; odd so the median is a real sample.
pub const MEASURE_ITERS: usize = 9;

/// Times two closures interleaved for [`MEASURE_ITERS`] rounds (after
/// one discarded warm-up each) and returns `(optimized, baseline)`
/// median nanoseconds. Closures return a checksum so the work cannot
/// be optimized away.
pub fn interleaved_median_ns(
    mut optimized: impl FnMut() -> u64,
    mut baseline: impl FnMut() -> u64,
) -> (f64, f64) {
    fn time_one(f: &mut impl FnMut() -> u64) -> f64 {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64() * 1e9
    }
    black_box(optimized());
    black_box(baseline());
    let mut opt = Vec::with_capacity(MEASURE_ITERS);
    let mut base = Vec::with_capacity(MEASURE_ITERS);
    for _ in 0..MEASURE_ITERS {
        opt.push(time_one(&mut optimized));
        base.push(time_one(&mut baseline));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    (median(&mut opt), median(&mut base))
}

fn row(
    name: &str,
    group: &str,
    (median_ns, baseline_ns): (f64, f64),
    bytes: usize,
    gated: bool,
) -> HotpathRow {
    HotpathRow {
        name: name.to_owned(),
        group: group.to_owned(),
        median_ns,
        baseline_ns,
        speedup: baseline_ns / median_ns.max(1.0),
        throughput_mb_s: bytes as f64 / (median_ns.max(1.0) / 1e9) / 1e6,
        gated,
    }
}

/// Shared inputs: one WinLog stream reused by every row.
pub struct HotpathEnv {
    text: String,
    chunk: RecordChunk,
    keywords: Vec<String>,
}

impl HotpathEnv {
    /// Materializes the environment at a scale.
    pub fn new(scale: ExperimentScale) -> HotpathEnv {
        let text = ndjson(Dataset::WinLog, scale);
        let chunk = RecordChunk::from_ndjson(&text);
        let keywords = ciao_datagen::text::keyword_pool(64);
        HotpathEnv {
            text,
            chunk,
            keywords,
        }
    }

    /// The raw NDJSON stream.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The stream parsed into one record chunk.
    pub fn chunk(&self) -> &RecordChunk {
        &self.chunk
    }

    /// A prefilter over `preds` LIKE clauses from the keyword pool.
    pub fn prefilter(&self, preds: usize) -> Prefilter {
        Prefilter::new(self.like_clauses(preds))
    }

    fn like_clauses(&self, n: usize) -> Vec<(u32, ClausePattern)> {
        // Spread picks across the pool so selectivities vary.
        let step = (self.keywords.len() / n).max(1);
        (0..n)
            .map(|i| {
                let kw = &self.keywords[(i * step) % self.keywords.len()];
                let clause = parse_clause(&format!(r#"info LIKE "%{kw}%""#)).unwrap();
                (i as u32, compile_clause(&clause).unwrap())
            })
            .collect()
    }
}

/// SWAR substring search vs the pure-Horspool reference: count every
/// occurrence of one keyword across the whole stream.
fn search_row(env: &HotpathEnv) -> HotpathRow {
    let hay = env.text.as_bytes();
    let finder = Finder::new(&env.keywords[env.keywords.len() / 2]);
    let count_with = |find: &dyn Fn(&[u8], usize) -> Option<usize>| {
        let mut n = 0u64;
        let mut at = 0usize;
        while let Some(hit) = find(hay, at) {
            n += 1;
            at = hit + 1;
        }
        n
    };
    let timings = interleaved_median_ns(
        || count_with(&|h, s| finder.find_from(h, s)),
        || count_with(&|h, s| finder.find_from_scalar(h, s)),
    );
    row("search/memmem_swar", "search", timings, hay.len(), true)
}

/// One-pass [`PatternSet`](ciao_client::PatternSet) chunk evaluation vs
/// the per-needle loop, at `preds` pushed predicates.
fn patternset_row(env: &HotpathEnv, preds: usize) -> HotpathRow {
    let pf = Prefilter::new(env.like_clauses(preds));
    let timings = interleaved_median_ns(
        || {
            pf.run_chunk(&env.chunk)
                .bitvecs
                .iter()
                .map(BitVec::count_ones)
                .sum::<usize>() as u64
        },
        || {
            pf.run_chunk_scalar(&env.chunk)
                .bitvecs
                .iter()
                .map(BitVec::count_ones)
                .sum::<usize>() as u64
        },
    );
    row(
        &format!("prefilter/patternset_preds{preds}"),
        "prefilter",
        timings,
        env.chunk.payload_bytes(),
        true,
    )
}

// Large enough (256 KiB of words per operand) that the accumulator
// does not just sit in L1: the fused kernel's one-pass traffic win is
// what the row measures, and it only exists past the cache.
const BITVEC_BITS: usize = 1 << 21;
const BITVEC_OPERANDS: usize = 8;

fn bitvec_inputs() -> Vec<BitVec> {
    (0..BITVEC_OPERANDS)
        .map(|k| BitVec::from_fn(BITVEC_BITS, |i| (i + k) % (k + 2) != 0))
        .collect()
}

/// Fused multi-operand AND vs the clone-then-fold composition.
fn bitvec_and_all_row() -> HotpathRow {
    let vecs = bitvec_inputs();
    let refs: Vec<&BitVec> = vecs.iter().collect();
    let timings = interleaved_median_ns(
        || BitVec::and_all(&refs).unwrap().count_ones() as u64,
        || {
            let mut acc = vecs[0].clone();
            for v in &vecs[1..] {
                acc.and_assign(v);
            }
            acc.count_ones() as u64
        },
    );
    row(
        "bitvec/and_all8",
        "bitvec",
        timings,
        BITVEC_BITS / 8 * BITVEC_OPERANDS,
        true,
    )
}

/// Popcount-without-materializing vs materialize-then-count.
fn bitvec_count_and_row() -> HotpathRow {
    let vecs = bitvec_inputs();
    let (a, b) = (&vecs[0], &vecs[1]);
    let timings = interleaved_median_ns(|| a.count_and(b) as u64, || a.and(b).count_ones() as u64);
    row("bitvec/count_and", "bitvec", timings, BITVEC_BITS / 4, true)
}

/// Dictionary zone maps: a `StrEq` probe for an absent value over a
/// low-cardinality column prunes every block instead of scanning rows.
fn columnar_zone_row(records: usize) -> HotpathRow {
    let recs: Vec<ciao_json::JsonValue> = (0..records)
        .map(|i| {
            ciao_json::parse(&format!(
                r#"{{"level":"L{}","seq":{},"msg":"unit {} reported state {}"}}"#,
                i % 4,
                i,
                i % 97,
                i % 13
            ))
            .unwrap()
        })
        .collect();
    let schema = Arc::new(Schema::infer(&recs).unwrap());
    let mut tb = TableBuilder::new(schema, &[]);
    for r in &recs {
        tb.push_record(r, &BTreeMap::new());
    }
    let table = tb.finish();
    let query = parse_query("probe", r#"level = "absent""#).unwrap();
    let bytes = records * 8; // order-of-magnitude cell traffic
    let timings = interleaved_median_ns(
        || scan_count(&table, &query, &ScanOptions::full().with_zone_maps()).rows_scanned as u64,
        || scan_count(&table, &query, &ScanOptions::full()).rows_scanned as u64,
    );
    row("columnar/dict_zone_prune", "columnar", timings, bytes, true)
}

/// Rows the `engine/block_filter_ycsb` row scans at every scale: about
/// fifty 1024-row blocks.
const BLOCK_FILTER_ROWS: usize = 50_000;

/// A 3-clause conjunction with a string equality and a LIKE, none of
/// which zone maps can prune on a fully loaded YCSB table.
const BLOCK_FILTER_WHERE: &str =
    r#"age_group = "adult" AND linear_score < 30 AND url LIKE "%shop%""#;

/// `records` YCSB records, parsed and fully loaded into a table.
fn loaded_ycsb(records: usize) -> (Vec<ciao_json::JsonValue>, Table) {
    let recs: Vec<ciao_json::JsonValue> = Dataset::Ycsb
        .generate_ndjson(11, records)
        .lines()
        .map(|r| ciao_json::parse(r).expect("valid record"))
        .collect();
    let schema = Arc::new(Schema::infer(&recs).unwrap());
    let mut tb = TableBuilder::new(schema, &[]);
    for r in &recs {
        tb.push_record(r, &BTreeMap::new());
    }
    (recs, tb.finish())
}

/// The block-scan driver ([`ciao_engine::BlockFilter`], through
/// `scan_count`) vs the row-at-a-time reference evaluator every scan
/// ran before it ([`eval_query_on_block`], which looks each column up
/// by name per row), over a fully loaded YCSB table, no skipping.
fn engine_block_filter_row(records: usize) -> HotpathRow {
    let (_, table) = loaded_ycsb(records);
    let query = parse_query("filter", BLOCK_FILTER_WHERE).unwrap();
    let timings = interleaved_median_ns(
        || scan_count(&table, &query, &ScanOptions::full()).rows_matched as u64,
        || {
            table
                .blocks()
                .iter()
                .map(|b| {
                    (0..b.row_count())
                        .filter(|&r| eval_query_on_block(&query, b, r))
                        .count() as u64
                })
                .sum()
        },
    );
    let bytes = records * 3 * 8; // order-of-magnitude: three cells a row
    row("engine/block_filter_ycsb", "engine", timings, bytes, true)
}

/// Records the `columnar/load_text_ycsb` row loads: about fifty
/// 1024-row blocks from CI's scale (4000) up, twelve per suite record
/// at the tiny scales unit tests run unoptimised.
const LOAD_TEXT_ROWS: usize = 50_000;

/// The pushed predicate ids both sides of `columnar/load_text_ycsb`
/// carry, and each row's bits.
const LOAD_IDS: [u32; 2] = [0, 1];

fn load_bit(row: usize, k: usize) -> bool {
    (row + k).is_multiple_of(3)
}

/// YCSB records, and the schema a sample of them infers.
fn ycsb_lines(records: usize) -> (String, Arc<Schema>) {
    let text = Dataset::Ycsb.generate_ndjson(13, records);
    let sample: Vec<_> = text
        .lines()
        .take(1000)
        .map(|r| ciao_json::parse(r).expect("valid record"))
        .collect();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    (text, schema)
}

/// The loader's path: each record's text straight into the columns.
fn load_by_text(schema: &Arc<Schema>, text: &str) -> Table {
    let mut tb = TableBuilder::new(Arc::clone(schema), &LOAD_IDS);
    for (i, r) in text.lines().enumerate() {
        tb.push_text(r, |k| load_bit(i, k)).expect("valid record");
    }
    tb.finish()
}

/// The path it replaced: a DOM per record, then a bit map per row.
fn load_by_tree(schema: &Arc<Schema>, text: &str) -> Table {
    let mut tb = TableBuilder::new(Arc::clone(schema), &LOAD_IDS);
    for (i, r) in text.lines().enumerate() {
        let record = ciao_json::parse(r).expect("valid record");
        let bits = LOAD_IDS
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, load_bit(i, k)));
        tb.push_record(&record, &bits.collect());
    }
    tb.finish()
}

/// Full loading's kernel, what `Loader::load_chunk` runs per admitted
/// record: [`TableBuilder::push_text`] scanning YCSB record text
/// straight into the column builders, vs [`ciao_json::parse`] then
/// [`TableBuilder::push_record`] — the DOM path it replaced, kept as
/// its oracle. Both build the same table.
fn columnar_load_text_row(records: usize) -> HotpathRow {
    let (text, schema) = ycsb_lines(records);
    let timings = interleaved_median_ns(
        || load_by_text(&schema, &text).row_count() as u64,
        || load_by_tree(&schema, &text).row_count() as u64,
    );
    row(
        "columnar/load_text_ycsb",
        "columnar",
        timings,
        text.len(),
        true,
    )
}

/// The two fields each `json/projected2_*` row builds per record.
const YCSB_KEYS: [&str; 2] = ["linear_score", "age_group"];
const WINLOG_KEYS: [&str; 2] = ["pid", "level"];

/// The parked-record scan's kernel: [`ciao_json::parse_projected`]
/// building two top-level fields (the shape of the ledger's ad-hoc
/// statements: one range column, one label column) and validating the
/// rest, vs the full [`ciao_json::parse`] it replaced there — which
/// stays as the reference and the loader's parser.
fn json_projected_row(tag: &str, text: &str, keys: [&str; 2]) -> HotpathRow {
    let records: Vec<&str> = text.lines().collect();
    let timings = interleaved_median_ns(
        || {
            records
                .iter()
                .map(|r| ciao_json::parse_projected(r, &keys).expect("valid record"))
                .map(|v| keys.iter().filter(|k| v.has_key(k)).count() as u64)
                .sum()
        },
        || {
            records
                .iter()
                .map(|r| ciao_json::parse(r).expect("valid record"))
                .map(|v| keys.iter().filter(|k| v.has_key(k)).count() as u64)
                .sum()
        },
    );
    row(
        &format!("json/projected2_{tag}"),
        "json",
        timings,
        text.len(),
        true,
    )
}

/// The WHERE clauses of each `engine/parked_rescan_*` row's statement:
/// one range column, one label column, the shape of the ledger's
/// ad-hoc statements.
const YCSB_RESCAN: &str = r#"linear_score < 30 AND age_group = "adult""#;
const WINLOG_RESCAN: &str = r#"pid < 1000 AND level = "Error""#;

/// The count one `engine/parked_rescan_*` side answers: `where_body`
/// over `records` held as one epoch's parked rows, and nothing else —
/// read through the map in `index` when there is one.
fn count_parked(where_body: &str, records: &[&str], index: Option<&OnceLock<ParkedIndex>>) -> u64 {
    let query = parse_query("rescan", where_body).unwrap();
    let exec = Executor::default();
    let none = std::iter::empty::<&Block>;
    let prepared = exec.prepare(query, none(), records.len());
    let fragment = match index {
        Some(index) => ParkedFragment::indexed(records, index),
        None => ParkedFragment::unindexed(records),
    };
    exec.scan_count(&prepared, none(), [fragment]).count as u64
}

/// A statement over parked records an earlier statement has scanned:
/// read through the epoch's positional map ([`ciao_engine::ParkedIndex`],
/// built by a first scan before the timing starts) vs validating every
/// record again with [`ciao_json::parse_projected`], which is what each
/// statement paid before the map and what a map-less scan still pays.
fn engine_parked_rescan_row(tag: &str, text: &str, where_body: &str) -> HotpathRow {
    let records: Vec<&str> = text.lines().collect();
    let index = OnceLock::new();
    count_parked(where_body, &records, Some(&index));
    let timings = interleaved_median_ns(
        || count_parked(where_body, &records, Some(&index)),
        || count_parked(where_body, &records, None),
    );
    row(
        &format!("engine/parked_rescan_{tag}"),
        "engine",
        timings,
        text.len(),
        true,
    )
}

/// The bit-at-a-time CRC-32 loop (8 shift/xor rounds per byte) the
/// durable path ran before [`ciao_columnar::crc32`] went table-driven.
/// It is on no runtime path any more; it lives here as the reference
/// both `storage/*` rows are measured against.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// One ingest chunk the size the ledger logs: 1024 YCSB records,
/// ≈ 640 KB of NDJSON.
fn wal_chunk() -> RecordChunk {
    RecordChunk::from_ndjson(&Dataset::Ycsb.generate_ndjson(7, 1024))
        .split(1024)
        .remove(0)
}

/// The checksum under every WAL frame, snapshot page and recovery
/// read: the table-driven [`ciao_columnar::crc32`] vs the bitwise loop.
fn storage_crc32_row(chunk: &RecordChunk) -> HotpathRow {
    let bytes = chunk.as_ndjson().as_bytes();
    let timings = interleaved_median_ns(
        || u64::from(ciao_columnar::crc32(bytes)),
        || u64::from(crc32_bitwise(bytes)),
    );
    row("storage/crc32_640k", "storage", timings, bytes.len(), true)
}

/// Framing one chunk for the log, up to the bytes the `write` takes.
/// Now: an incremental checksum over the routing header and the
/// chunk's borrowed text ([`frame_prefix`]), then header and text
/// handed over as they lie (the copy into `sink` stands in for the
/// kernel's). Before: serialize the chunk (`to_ndjson`), copy it into
/// an owned record (`to_vec`), copy that into a frame buffer, and
/// checksum the frame bit by bit.
fn storage_wal_frame_row(chunk: &RecordChunk) -> HotpathRow {
    let (seq, shard) = (41u64, 1u32);
    let mut sink: Vec<u8> = Vec::new();
    let timings = interleaved_median_ns(
        || {
            let text = chunk.as_ndjson().as_bytes();
            let prefix = frame_prefix(seq, shard, text).expect("chunk is under the record limit");
            sink.clear();
            sink.extend_from_slice(&prefix);
            sink.extend_from_slice(text);
            black_box(&sink);
            u64::from(u32::from_le_bytes(prefix[4..8].try_into().unwrap()))
        },
        || {
            let payload = chunk.to_ndjson();
            let record: Vec<u8> = payload.as_bytes().to_vec();
            let mut frame = Vec::with_capacity(20 + record.len());
            frame.extend_from_slice(&((12 + record.len()) as u32).to_le_bytes());
            frame.extend_from_slice(&[0; 4]);
            frame.extend_from_slice(&seq.to_le_bytes());
            frame.extend_from_slice(&shard.to_le_bytes());
            frame.extend_from_slice(&record);
            let crc = crc32_bitwise(&frame[8..]);
            frame[4..8].copy_from_slice(&crc.to_le_bytes());
            black_box(&frame);
            u64::from(crc)
        },
    );
    row(
        "storage/wal_frame_640k",
        "storage",
        timings,
        chunk.as_ndjson().len(),
        true,
    )
}

/// Runs the whole suite at a scale.
pub fn run(scale: ExperimentScale) -> Vec<HotpathRow> {
    let env = HotpathEnv::new(scale);
    let mut rows = vec![search_row(&env)];
    for preds in [2usize, 4, 8, 16] {
        rows.push(patternset_row(&env, preds));
    }
    rows.push(bitvec_and_all_row());
    rows.push(bitvec_count_and_row());
    rows.push(columnar_zone_row(scale.records.min(20_000)));
    rows.push(engine_block_filter_row(BLOCK_FILTER_ROWS));
    rows.push(columnar_load_text_row(
        LOAD_TEXT_ROWS.min(12 * scale.records),
    ));
    rows.push(json_projected_row(
        "ycsb",
        &ndjson(Dataset::Ycsb, scale),
        YCSB_KEYS,
    ));
    rows.push(json_projected_row("winlog", env.text(), WINLOG_KEYS));
    rows.push(engine_parked_rescan_row(
        "ycsb",
        &ndjson(Dataset::Ycsb, scale),
        YCSB_RESCAN,
    ));
    rows.push(engine_parked_rescan_row(
        "winlog",
        env.text(),
        WINLOG_RESCAN,
    ));
    let chunk = wal_chunk();
    rows.push(storage_crc32_row(&chunk));
    rows.push(storage_wal_frame_row(&chunk));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_rows_are_well_formed() {
        let scale = ExperimentScale {
            records: 400,
            queries: 1,
            sample: 100,
        };
        let rows = run(scale);
        assert_eq!(rows.len(), 16);
        for r in &rows {
            assert!(r.median_ns > 0.0, "{}: zero median", r.name);
            assert!(r.baseline_ns > 0.0, "{}: zero baseline", r.name);
            assert!(r.speedup > 0.0, "{}: zero speedup", r.name);
            assert!(r.throughput_mb_s >= 0.0, "{}", r.name);
        }
        let names: std::collections::BTreeSet<_> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), rows.len(), "row names must be unique");
    }

    #[test]
    fn projected_rows_find_their_fields() {
        // Every generated record has both keys, so the rows measure
        // the work they claim to: two fields built, the rest skipped.
        for (dataset, keys) in [(Dataset::Ycsb, YCSB_KEYS), (Dataset::WinLog, WINLOG_KEYS)] {
            for r in dataset.generate_ndjson(9, 50).lines() {
                let projected = ciao_json::parse_projected(r, &keys).unwrap();
                assert_eq!(projected.as_object().unwrap().len(), 2, "{r}");
            }
        }
    }

    #[test]
    fn rescan_rows_count_the_same_both_ways_and_match_some_records() {
        for (dataset, where_body) in [
            (Dataset::Ycsb, YCSB_RESCAN),
            (Dataset::WinLog, WINLOG_RESCAN),
        ] {
            let text = dataset.generate_ndjson(9, 400);
            let records: Vec<&str> = text.lines().collect();
            let index = OnceLock::new();
            let unmapped = count_parked(where_body, &records, None);
            for _ in 0..2 {
                let mapped = count_parked(where_body, &records, Some(&index));
                assert_eq!(mapped, unmapped, "{where_body}");
            }
            assert!(index.get().unwrap().is_mapped());
            assert!(0 < unmapped && unmapped < 400, "{where_body}: {unmapped}");
        }
    }

    #[test]
    fn storage_rows_frame_the_same_bytes_both_ways() {
        // The two sides of `storage/wal_frame_640k` must agree on the
        // frame, or the row compares different work.
        let chunk = wal_chunk();
        assert_eq!(chunk.as_ndjson(), chunk.to_ndjson());
        let text = chunk.as_ndjson().as_bytes();
        let prefix = frame_prefix(41, 1, text).unwrap();
        let crc = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        let mut payload = prefix[8..].to_vec();
        payload.extend_from_slice(text);
        assert_eq!(crc, crc32_bitwise(&payload));
        assert_eq!(ciao_columnar::crc32(text), crc32_bitwise(text));
    }

    #[test]
    fn block_filter_row_selects_some_rows_and_both_sides_agree() {
        let (recs, table) = loaded_ycsb(3000);
        let query = parse_query("filter", BLOCK_FILTER_WHERE).unwrap();
        let truth = recs
            .iter()
            .filter(|r| ciao_predicate::eval_query(&query, r))
            .count();
        assert!(
            0 < truth && truth < recs.len() / 4,
            "{truth} of {}",
            recs.len()
        );
        let m = scan_count(&table, &query, &ScanOptions::full());
        assert_eq!((m.rows_matched, m.rows_scanned), (truth, recs.len()));
    }

    #[test]
    fn load_row_sides_build_the_same_table() {
        let (text, schema) = ycsb_lines(2500);
        let table = load_by_text(&schema, &text);
        assert_eq!(table.row_count(), 2500);
        assert_eq!(table, load_by_tree(&schema, &text));
    }

    #[test]
    fn zone_prune_row_actually_prunes() {
        let r = columnar_zone_row(2_000);
        assert!(
            r.speedup > 1.0,
            "pruned scan should beat the full scan: {r:?}"
        );
    }
}
