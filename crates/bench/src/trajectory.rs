//! `BENCH_service.json` / `BENCH_hotpath.json` — benchmark
//! trajectories.
//!
//! Every `repro -- service` run (and the Criterion overhead bench)
//! appends one [`BenchRun`] to a JSON file, so performance history
//! accumulates across commits instead of vanishing with the terminal;
//! `repro -- micro` does the same for the hot-path kernel suite
//! ([`HotpathRun`]). Each document's shape is pinned by a checked-in
//! schema file (a JSON-Schema subset) and [`validate`] enforces it —
//! CI validates both emitted files on every push, and the perf gate
//! (`repro -- check-perf`) compares the hotpath file against the
//! committed baseline.

use crate::experiments::hotpath::HotpathRow;
use crate::experiments::service::ServiceRow;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Current trajectory document version.
pub const SCHEMA_VERSION: i64 = 1;
/// Default output file, relative to the workspace root.
pub const DEFAULT_PATH: &str = "BENCH_service.json";
/// Default schema file, relative to the workspace root.
pub const DEFAULT_SCHEMA_PATH: &str = "schemas/BENCH_service.schema.json";
/// Env var overriding the output path.
pub const PATH_ENV: &str = "CIAO_BENCH_JSON";
/// Env var overriding the schema path.
pub const SCHEMA_ENV: &str = "CIAO_BENCH_SCHEMA";
/// Default hot-path trajectory file, relative to the workspace root.
pub const DEFAULT_HOTPATH_PATH: &str = "BENCH_hotpath.json";
/// Default hot-path schema file, relative to the workspace root.
pub const DEFAULT_HOTPATH_SCHEMA_PATH: &str = "schemas/BENCH_hotpath.schema.json";
/// Env var overriding the hot-path output path.
pub const HOTPATH_PATH_ENV: &str = "CIAO_BENCH_HOTPATH_JSON";
/// Env var overriding the hot-path schema path.
pub const HOTPATH_SCHEMA_ENV: &str = "CIAO_BENCH_HOTPATH_SCHEMA";

/// The whole trajectory document: a version pin plus appended runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchTrajectory {
    /// Document format version ([`SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// All recorded runs, oldest first.
    pub runs: Vec<BenchRun>,
}

/// One benchmark invocation (a `repro -- service` sweep or a Criterion
/// overhead run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRun {
    /// `"repro"` for the sweep binary, `"bench"` for Criterion.
    pub source: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_s: u64,
    /// Records in the ingested stream.
    pub records: u64,
    /// `available_parallelism` on the host.
    pub cores: u64,
    /// Median ingest overhead of telemetry-on vs telemetry-off, in
    /// percent; `null` when the run did not measure it.
    pub telemetry_overhead_pct: Option<f64>,
    /// One row per measured configuration (baseline + shard counts).
    pub configs: Vec<ConfigRow>,
}

/// One measured configuration inside a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigRow {
    /// Human label ("server (single thread)", "service ×2", …).
    pub label: String,
    /// Shard count (1 for the baseline server).
    pub shards: u64,
    /// Wall-clock ingest seconds for the whole stream.
    pub ingest_s: f64,
    /// Ingest throughput.
    pub records_per_s: f64,
    /// Ingest speedup over the baseline row.
    pub speedup: f64,
    /// Mean per-query latency in milliseconds.
    pub query_ms: f64,
    /// p50 enqueue→ingested (baseline: per-chunk ingest) latency, µs.
    pub ingest_ack_p50_us: f64,
    /// p99 of the same distribution, µs.
    pub ingest_ack_p99_us: f64,
    /// p50 per-query latency, µs.
    pub query_p50_us: f64,
    /// p99 per-query latency, µs.
    pub query_p99_us: f64,
    /// Cumulative producer blocked time in `enqueue_wait`, ms.
    pub blocked_ms: f64,
    /// Chunks rejected with `QueueFull`.
    pub rejected: u64,
    /// Whether every query count matched the baseline.
    pub counts_ok: bool,
    /// Records that landed on each shard.
    pub shard_records: Vec<u64>,
}

impl BenchTrajectory {
    /// An empty trajectory at the current version.
    pub fn empty() -> BenchTrajectory {
        BenchTrajectory {
            schema_version: SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }
}

/// The hot-path trajectory document (`BENCH_hotpath.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathTrajectory {
    /// Document format version ([`SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// All recorded runs, oldest first.
    pub runs: Vec<HotpathRun>,
}

/// One hot-path suite invocation (`repro -- micro`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathRun {
    /// `"repro"` for the sweep binary; older runs appended by a
    /// Criterion bench read `"bench"`.
    pub source: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_s: u64,
    /// Records in the generated stream the suite scanned.
    pub records: u64,
    /// `available_parallelism` on the host.
    pub cores: u64,
    /// One row per measured kernel.
    pub rows: Vec<HotpathRow>,
}

impl HotpathTrajectory {
    /// An empty hot-path trajectory at the current version.
    pub fn empty() -> HotpathTrajectory {
        HotpathTrajectory {
            schema_version: SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }
}

/// Builds a hot-path run from suite rows, stamped with the current
/// time and this host's core count.
pub fn hotpath_run_from_rows(source: &str, records: usize, rows: Vec<HotpathRow>) -> HotpathRun {
    let unix_time_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    HotpathRun {
        source: source.to_owned(),
        unix_time_s,
        records: records as u64,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        rows,
    }
}

/// The hot-path output path: `$CIAO_BENCH_HOTPATH_JSON` (relative to
/// the working directory) or [`DEFAULT_HOTPATH_PATH`] anchored at the
/// workspace root.
pub fn hotpath_output_path() -> PathBuf {
    std::env::var_os(HOTPATH_PATH_ENV).map_or_else(|| anchored(DEFAULT_HOTPATH_PATH), PathBuf::from)
}

/// The hot-path schema path: `$CIAO_BENCH_HOTPATH_SCHEMA` (relative to
/// the working directory) or [`DEFAULT_HOTPATH_SCHEMA_PATH`] anchored
/// at the workspace root.
pub fn hotpath_schema_path() -> PathBuf {
    std::env::var_os(HOTPATH_SCHEMA_ENV)
        .map_or_else(|| anchored(DEFAULT_HOTPATH_SCHEMA_PATH), PathBuf::from)
}

/// Appends one run to the hot-path trajectory at `path` (creating it,
/// or starting fresh when the existing file does not parse) and writes
/// the updated document back. Returns the document as written.
pub fn append_hotpath_run(path: &Path, run: HotpathRun) -> std::io::Result<HotpathTrajectory> {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<HotpathTrajectory>(&text).ok())
        .unwrap_or_else(HotpathTrajectory::empty);
    doc.schema_version = SCHEMA_VERSION;
    doc.runs.push(run);
    let json = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")?;
    Ok(doc)
}

/// Reads and parses a hot-path trajectory file.
pub fn read_hotpath(path: &Path) -> Result<HotpathTrajectory, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("{} is not a hot-path trajectory: {e}", path.display()))
}

impl From<&ServiceRow> for ConfigRow {
    fn from(r: &ServiceRow) -> ConfigRow {
        ConfigRow {
            label: r.label.clone(),
            shards: r.shards as u64,
            ingest_s: r.ingest_s,
            records_per_s: r.records_per_s,
            speedup: r.speedup,
            query_ms: r.query_ms,
            ingest_ack_p50_us: r.ingest_ack_p50_us,
            ingest_ack_p99_us: r.ingest_ack_p99_us,
            query_p50_us: r.query_p50_us,
            query_p99_us: r.query_p99_us,
            blocked_ms: r.blocked_ms,
            rejected: r.rejected,
            counts_ok: r.counts_ok,
            shard_records: r.shard_records.iter().map(|&n| n as u64).collect(),
        }
    }
}

/// Builds a run from sweep rows, stamped with the current time and
/// this host's core count.
pub fn run_from_rows(
    source: &str,
    records: usize,
    telemetry_overhead_pct: Option<f64>,
    rows: &[ServiceRow],
) -> BenchRun {
    let unix_time_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    BenchRun {
        source: source.to_owned(),
        unix_time_s,
        records: records as u64,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        telemetry_overhead_pct,
        configs: rows.iter().map(ConfigRow::from).collect(),
    }
}

/// The output path: `$CIAO_BENCH_JSON` (relative to the working
/// directory) or [`DEFAULT_PATH`] anchored at the workspace root.
pub fn output_path() -> PathBuf {
    std::env::var_os(PATH_ENV).map_or_else(|| anchored(DEFAULT_PATH), PathBuf::from)
}

/// The schema path: `$CIAO_BENCH_SCHEMA` (relative to the working
/// directory) or [`DEFAULT_SCHEMA_PATH`] anchored at the workspace
/// root.
pub fn schema_path() -> PathBuf {
    std::env::var_os(SCHEMA_ENV).map_or_else(|| anchored(DEFAULT_SCHEMA_PATH), PathBuf::from)
}

/// Resolves a workspace-relative default against the workspace root so
/// `repro` (cwd = invocation dir) and Criterion benches (cwd = the
/// crate's manifest dir) write the same file. Walks up from the
/// current directory to the nearest `Cargo.lock`; falls back to the
/// path as given when none is found.
fn anchored(default: &str) -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join(default);
        }
        if !dir.pop() {
            return PathBuf::from(default);
        }
    }
}

/// Appends one run to the trajectory at `path` (creating it, or
/// starting fresh when the existing file does not parse) and writes
/// the updated document back. Returns the document as written.
pub fn append_run(path: &Path, run: BenchRun) -> std::io::Result<BenchTrajectory> {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<BenchTrajectory>(&text).ok())
        .unwrap_or_else(BenchTrajectory::empty);
    doc.schema_version = SCHEMA_VERSION;
    doc.runs.push(run);
    let json = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")?;
    Ok(doc)
}

/// Validates `doc` against a JSON-Schema subset: `type` (a string or
/// a union array, including `"integer"`/`"null"`), `properties`,
/// `required`, and `items`. Returns every violation with its JSON
/// pointer path.
pub fn validate(doc: &Value, schema: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    validate_at(doc, schema, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Reads, parses, and validates the trajectory file against the
/// schema file; the error is a printable report.
pub fn validate_files(doc_path: &Path, schema_path: &Path) -> Result<(), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let doc: Value = serde_json::from_str(&read(doc_path)?)
        .map_err(|e| format!("{} is not valid JSON: {e:?}", doc_path.display()))?;
    let schema: Value = serde_json::from_str(&read(schema_path)?)
        .map_err(|e| format!("{} is not valid JSON: {e:?}", schema_path.display()))?;
    validate(&doc, &schema).map_err(|errors| {
        format!(
            "{} violates {}:\n  {}",
            doc_path.display(),
            schema_path.display(),
            errors.join("\n  ")
        )
    })
}

fn type_matches(value: &Value, ty: &str) -> bool {
    match ty {
        "object" => value.as_object().is_some(),
        "array" => value.as_array().is_some(),
        "string" => value.as_str().is_some(),
        "boolean" => value.as_bool().is_some(),
        "null" => value.is_null(),
        "number" => value.as_f64().is_some(),
        "integer" => value.as_i64().is_some(),
        _ => false,
    }
}

fn validate_at(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type") {
        let allowed: Vec<&str> = match ty {
            Value::String(s) => vec![s.as_str()],
            Value::Array(names) => names.iter().filter_map(Value::as_str).collect(),
            _ => Vec::new(),
        };
        if !allowed.iter().any(|t| type_matches(value, t)) {
            errors.push(format!("{path}: expected type {allowed:?}"));
            return; // structural checks below would only cascade
        }
    }
    if let Some(required) = schema.get("required").and_then(Value::as_array) {
        for name in required.iter().filter_map(Value::as_str) {
            if value.get(name).is_none() {
                errors.push(format!("{path}: missing required property `{name}`"));
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(Value::as_object) {
        for (name, sub) in props {
            if let Some(v) = value.get(name) {
                validate_at(v, sub, &format!("{path}.{name}"), errors);
            }
        }
    }
    if let (Some(items), Some(elems)) = (schema.get("items"), value.as_array()) {
        for (i, v) in elems.iter().enumerate() {
            validate_at(v, items, &format!("{path}[{i}]"), errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> ServiceRow {
        ServiceRow {
            label: "service ×2".into(),
            shards: 2,
            ingest_s: 0.5,
            records_per_s: 8000.0,
            speedup: 0.9,
            query_ms: 1.25,
            ingest_ack_p50_us: 310.0,
            ingest_ack_p99_us: 2400.0,
            query_p50_us: 900.0,
            query_p99_us: 2100.0,
            blocked_ms: 3.5,
            rejected: 0,
            counts_ok: true,
            shard_records: vec![2000, 2000],
        }
    }

    fn checked_in_schema() -> Value {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/BENCH_service.schema.json"
        );
        serde_json::from_str(&std::fs::read_to_string(path).expect("schema file checked in"))
            .expect("schema file is valid JSON")
    }

    #[test]
    fn document_round_trips_and_satisfies_the_checked_in_schema() {
        let run = run_from_rows("repro", 4000, Some(1.5), &[sample_row()]);
        let mut doc = BenchTrajectory::empty();
        doc.runs.push(run);
        let json = serde_json::to_string(&doc).unwrap();

        // Round trip through the typed structs…
        let back: BenchTrajectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.runs.len(), 1);
        assert_eq!(back.runs[0].configs[0].label, "service ×2");
        assert_eq!(back.runs[0].configs[0].shard_records, vec![2000, 2000]);
        assert_eq!(back.runs[0].telemetry_overhead_pct, Some(1.5));

        // …and through the schema validator.
        let value: Value = serde_json::from_str(&json).unwrap();
        validate(&value, &checked_in_schema()).expect("emitted document matches schema");
    }

    #[test]
    fn none_overhead_is_null_and_still_valid() {
        let run = run_from_rows("bench", 4000, None, &[]);
        let json = serde_json::to_string(&BenchTrajectory {
            schema_version: SCHEMA_VERSION,
            runs: vec![run],
        })
        .unwrap();
        assert!(json.contains("\"telemetry_overhead_pct\":null"));
        let value: Value = serde_json::from_str(&json).unwrap();
        validate(&value, &checked_in_schema()).expect("null overhead is schema-legal");
    }

    #[test]
    fn validator_reports_type_and_missing_field_violations() {
        let schema = checked_in_schema();
        let bad: Value =
            serde_json::from_str(r#"{"schema_version":"one","runs":[{"source":5}]}"#).unwrap();
        let errors = validate(&bad, &schema).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("schema_version")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("missing required")),
            "{errors:?}"
        );
    }

    fn sample_hotpath_row() -> HotpathRow {
        HotpathRow {
            name: "search/memmem_swar".into(),
            group: "search".into(),
            median_ns: 1000.0,
            baseline_ns: 4000.0,
            speedup: 4.0,
            throughput_mb_s: 4000.0,
            gated: true,
        }
    }

    fn checked_in_hotpath_schema() -> Value {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/BENCH_hotpath.schema.json"
        );
        serde_json::from_str(&std::fs::read_to_string(path).expect("schema file checked in"))
            .expect("schema file is valid JSON")
    }

    #[test]
    fn hotpath_document_round_trips_and_satisfies_the_checked_in_schema() {
        let run = hotpath_run_from_rows("repro", 4000, vec![sample_hotpath_row()]);
        let mut doc = HotpathTrajectory::empty();
        doc.runs.push(run);
        let json = serde_json::to_string(&doc).unwrap();

        let back: HotpathTrajectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.runs[0].rows[0].name, "search/memmem_swar");
        assert!(back.runs[0].rows[0].gated);

        let value: Value = serde_json::from_str(&json).unwrap();
        validate(&value, &checked_in_hotpath_schema()).expect("emitted document matches schema");
    }

    #[test]
    fn hotpath_schema_rejects_a_malformed_row() {
        let bad: Value = serde_json::from_str(
            r#"{"schema_version":1,"runs":[{"source":"repro","unix_time_s":0,"records":0,
                "cores":1,"rows":[{"name":"x","group":"g","median_ns":"fast"}]}]}"#,
        )
        .unwrap();
        let errors = validate(&bad, &checked_in_hotpath_schema()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("median_ns")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("missing required")),
            "{errors:?}"
        );
    }

    #[test]
    fn hotpath_append_accumulates_and_validates() {
        let path = std::env::temp_dir().join(format!(
            "ciao_bench_hotpath_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let one = append_hotpath_run(
            &path,
            hotpath_run_from_rows("repro", 100, vec![sample_hotpath_row()]),
        )
        .unwrap();
        assert_eq!(one.runs.len(), 1);
        let two = append_hotpath_run(&path, hotpath_run_from_rows("bench", 100, vec![])).unwrap();
        assert_eq!(two.runs.len(), 2);
        assert_eq!(two.runs[1].source, "bench");

        let schema = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/BENCH_hotpath.schema.json"
        );
        validate_files(&path, Path::new(schema)).unwrap();
        let read_back = read_hotpath(&path).unwrap();
        assert_eq!(read_back.runs.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_accumulates_runs_across_invocations() {
        let path = std::env::temp_dir().join(format!(
            "ciao_bench_trajectory_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let one = append_run(&path, run_from_rows("repro", 100, None, &[sample_row()])).unwrap();
        assert_eq!(one.runs.len(), 1);
        let two = append_run(&path, run_from_rows("bench", 100, Some(0.5), &[])).unwrap();
        assert_eq!(two.runs.len(), 2);
        assert_eq!(two.runs[0].source, "repro");
        assert_eq!(two.runs[1].source, "bench");

        // The file on disk validates end to end.
        let schema = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/BENCH_service.schema.json"
        );
        validate_files(&path, Path::new(schema)).unwrap();

        // A corrupt file starts fresh instead of wedging the bench.
        std::fs::write(&path, "not json").unwrap();
        let fresh = append_run(&path, run_from_rows("repro", 100, None, &[])).unwrap();
        assert_eq!(fresh.runs.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
