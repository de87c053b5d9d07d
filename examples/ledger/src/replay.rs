//! The traced replay: the same inputs, inline on one thread, through
//! each crate's public functions with a span around every call. No
//! `Service`, no queue, no worker: what is left is what the layers
//! themselves cost, and what the measured run adds on top is
//! coordination.
//!
//! Per chunk, a root span `chunk` with children `client.prefilter` →
//! `replay.payload` → `storage.wal_append` → `service.shard_ingest` →
//! `json.parse`; at the end of the load, `service.seal_epoch` per shard
//! and `storage.recover`. Per statement execution, a root span `stmt`
//! with children `sql.parse` → `sql.plan` → `engine.execute_plan` per
//! shard → `engine.merge_finalize`.
//!
//! The write-ahead log is replayed on every workload, into a scratch
//! store, so the storage layer has a number for each record size; only
//! `ycsb_skew_durable` pays it in its end-to-end metrics.

use crate::measure::{dir_bytes, Measured};
use crate::setup::{Group, Inputs, Tally};
use crate::spans::Recorder;
use crate::spec;
use crate::stats::median;
use ciao::AdmissionPolicy;
use ciao_engine::PartialResult;
use ciao_service::{Shard, StorageConfig, SyncPolicy};
use ciao_storage::Store;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Executions of each statement in the replay. The ad-hoc statements
/// re-parse every parked record, so they get fewer.
const WORKLOAD_ROUNDS: usize = 5;
const ADHOC_ROUNDS: usize = 2;
/// Lowest share of a phase's traced wall its spans must account for.
const MIN_COVERAGE: f64 = 0.90;

/// Per-layer metrics of the replay, by name, plus the trace itself.
#[derive(Debug)]
pub struct Replay {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Self time per span name: (name, calls, total self ms).
    pub self_times: Vec<(&'static str, usize, f64)>,
    pub chrome_trace: String,
    pub tally: Tally,
}

/// Sum and count of the spans called `name`.
fn total_ns(rec: &Recorder, name: &str) -> (f64, usize) {
    let spans = rec.spans().iter().filter(|s| s.name == name);
    spans.fold((0.0, 0), |(sum, n), s| {
        (sum + s.duration_ns() as f64, n + 1)
    })
}

fn median_us(rec: &Recorder, name: &str) -> f64 {
    let samples: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    median(&samples)
}

/// Share of the wall between the first and the last root span called
/// `root` that root spans cover. Every child lies inside its root, so
/// this is the share of the phase's wall that self times add up to.
fn coverage(rec: &Recorder, root: &str) -> f64 {
    let roots: Vec<_> = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .collect();
    let covered: u64 = roots.iter().map(|s| s.duration_ns()).sum();
    let wall = roots.last().expect("phase has spans").end_ns - roots[0].start_ns;
    covered as f64 / wall as f64
}

/// What the replay accumulates: spans, checks, metrics by name.
struct Replaying {
    rec: Recorder,
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
}

/// Client → WAL → shard ingest → seal → recover, chunk by chunk.
/// Returns the loaded shards for the statements to run on.
fn replay_load(
    replaying: &mut Replaying,
    inputs: &Inputs,
    measured: &Measured,
    scratch: &Path,
) -> Vec<Shard> {
    let Replaying {
        rec,
        tally,
        metrics: m,
    } = replaying;
    let records = inputs.records as f64;
    let plan = Arc::new(inputs.plan.clone());
    let prefilter = inputs.plan.prefilter();
    let admission = AdmissionPolicy::from_coverage(&inputs.plan.query_coverage);
    let store_dir = scratch.join("replay-store");
    let storage =
        StorageConfig::new(&store_dir).with_sync(SyncPolicy::EveryN(spec::WAL_SYNC_EVERY));
    let (mut store, _) =
        Store::open(storage.clone(), spec::SHARDS as u32).expect("scratch store opens");
    let mut shards: Vec<Shard> = (0..spec::SHARDS)
        .map(|_| {
            Shard::new(
                Arc::clone(&plan),
                Arc::clone(&inputs.schema),
                spec::BLOCK_SIZE,
            )
        })
        .collect();

    let (mut admitted, mut matched, mut evidence_bytes, mut wal_bytes) =
        (0usize, 0usize, 0usize, 0usize);
    let load_started = Instant::now();
    for (seq, chunk) in inputs.chunks.iter().enumerate() {
        let shard = seq % spec::SHARDS;
        let root = rec.begin("chunk", None, seq as u64);
        let filter = rec.child("client.prefilter", root, || prefilter.run_chunk(chunk));
        let payload = rec.child("replay.payload", root, || chunk.to_ndjson());
        rec.child("storage.wal_append", root, || {
            store
                .append(seq as u64, shard as u32, payload.as_bytes())
                .expect("scratch WAL append")
        });
        rec.child("service.shard_ingest", root, || {
            shards[shard].ingest(chunk, &filter)
        });
        // Parsing again what the loader just parsed splits its time
        // into parse and columnarise without reaching inside it.
        let mask = admission.admission_mask(&filter);
        rec.child("json.parse", root, || {
            for (i, record) in chunk.iter().enumerate() {
                if mask.as_ref().is_none_or(|mask| mask.bit(i)) {
                    std::hint::black_box(ciao_json::parse(record).is_ok());
                }
            }
        });
        rec.end(root);
        admitted += mask.as_ref().map_or(chunk.len(), |mask| mask.count_ones());
        matched += filter.admission_mask().map_or(0, |any| any.count_ones());
        evidence_bytes += filter
            .bitvecs
            .iter()
            .map(|bv| bv.to_bytes().len())
            .sum::<usize>();
        wal_bytes += payload.len();
    }
    let seal = rec.begin("seal", None, 0);
    for shard in &mut shards {
        rec.child("service.seal_epoch", seal, || shard.seal_epoch());
    }
    rec.end(seal);
    let load_wall_ns = load_started.elapsed().as_nanos() as f64;

    let wal_appends = store.wal_appends();
    let wal_syncs = store.wal_syncs();
    store.sync().expect("scratch WAL syncs");
    drop(store);
    let wal_on_disk = dir_bytes(&store_dir);
    let recover = rec.begin("storage.recover", None, 0);
    let recovery =
        ciao_storage::recover(&storage, spec::SHARDS as u32).expect("scratch store recovers");
    rec.end(recover);
    tally.check(recovery.tail.len() == inputs.chunks.len(), || {
        format!(
            "recovered {} of {} logged chunks",
            recovery.tail.len(),
            inputs.chunks.len()
        )
    });
    drop(recovery);
    std::fs::remove_dir_all(&store_dir).expect("scratch store is removable");

    tally.check(admitted == measured.loaded_records, || {
        format!(
            "replay admitted {admitted} records, the measured run loaded {}",
            measured.loaded_records
        )
    });

    let (prefilter_ns, _) = total_ns(rec, "client.prefilter");
    let (ingest_ns, _) = total_ns(rec, "service.shard_ingest");
    let (parse_ns, _) = total_ns(rec, "json.parse");
    let (wal_ns, wal_calls) = total_ns(rec, "storage.wal_append");
    let (seal_ns, _) = total_ns(rec, "service.seal_epoch");
    m.insert("client.prefilter_ns_per_rec", prefilter_ns / records);
    m.insert(
        "client.prefilter_mb_per_s",
        inputs.input_bytes as f64 / 1e6 / (prefilter_ns / 1e9),
    );
    m.insert("client.pushed_predicates", inputs.plan.len() as f64);
    m.insert("client.match_share", matched as f64 / records);
    m.insert(
        "bitvec.evidence_bytes_per_rec",
        evidence_bytes as f64 / records,
    );
    m.insert("json.parse_ns_per_rec", parse_ns / admitted as f64);
    m.insert("core.load_chunk_ns_per_rec", ingest_ns / records);
    m.insert("core.loading_ratio", admitted as f64 / records);
    // Derived: what `Shard::ingest` does besides parsing (build rows,
    // park the rest), per record ingested.
    m.insert(
        "columnar.build_ns_per_rec",
        (ingest_ns - parse_ns) / records,
    );
    m.insert("service.seal_ms", seal_ns / 1e6);
    m.insert("storage.wal_append_ns_per_chunk", wal_ns / wal_calls as f64);
    m.insert(
        "storage.wal_mb_per_s",
        wal_bytes as f64 / 1e6 / (wal_ns / 1e9),
    );
    m.insert("storage.wal_appends", wal_appends as f64);
    m.insert("storage.wal_syncs", wal_syncs as f64);
    m.insert(
        "storage.wal_bytes_per_input_byte",
        wal_on_disk as f64 / inputs.input_bytes as f64,
    );
    m.insert(
        "storage.recover_ms",
        rec.spans()[recover].duration_ns() as f64 / 1e6,
    );
    m.insert("trace.client_share", prefilter_ns / load_wall_ns);
    m.insert("trace.load_share", ingest_ns / load_wall_ns);
    m.insert(
        "service.coordination_share",
        1.0 - ingest_ns / 1e9 / median(&measured.load_wall_s),
    );
    shards
}

/// Parse → plan → execute on each shard → merge and finalize, for
/// every statement of the battery.
fn replay_statements(
    replaying: &mut Replaying,
    inputs: &Inputs,
    measured: &Measured,
    shards: &mut [Shard],
) {
    let Replaying {
        rec,
        tally,
        metrics: m,
    } = replaying;
    let n = inputs.statements.len();
    // Per statement: slowest shard of each execution, in µs.
    let mut exec_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let (mut grouped_ns, mut grouped_rows) = (0.0, 0u64);
    let (mut adhoc_ns, mut adhoc_rows, mut adhoc_parked) = (0.0, 0u64, 0u64);
    let (mut skipped, mut considered, mut pruned, mut blocks, mut scanned, mut results) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (id, statement) in inputs.statements.iter().enumerate() {
        let rounds = match statement.group {
            Group::Workload => WORKLOAD_ROUNDS,
            Group::Adhoc => ADHOC_ROUNDS,
        };
        for round in 0..rounds {
            let root = rec.begin("stmt", None, id as u64);
            let parsed = rec
                .child("sql.parse", root, || ciao_sql::parse(&statement.sql))
                .expect("statement parses");
            let physical = rec
                .child("sql.plan", root, || ciao_sql::plan(&parsed, &inputs.schema))
                .expect("statement plans");
            let mut merged = PartialResult::empty(&physical);
            let (mut slowest, mut exec_ns) = (0u64, 0u64);
            let mut partials = Vec::with_capacity(shards.len());
            for shard in shards.iter_mut() {
                let span = rec.begin("engine.execute_plan", Some(root), id as u64);
                partials.push(shard.execute_plan(&physical));
                rec.end(span);
                let nanos = rec.spans()[span].duration_ns();
                slowest = slowest.max(nanos);
                exec_ns += nanos;
            }
            let result = rec.child("engine.merge_finalize", root, || {
                for partial in partials {
                    merged.merge(partial);
                }
                ciao_engine::finalize(&physical, merged)
            });
            rec.end(root);
            exec_us[id].push(slowest as f64 / 1e3);

            if round == 0 {
                tally.check(Some(result.render()) == measured.answers[id], || {
                    format!("replay and measured run disagree on `{}`", statement.sql)
                });
                let p = &result.profile;
                if statement.group == Group::Workload {
                    skipped += p.rows_skipped_zone + p.rows_skipped_mask;
                    considered += p.rows_skipped_zone + p.rows_skipped_mask + p.rows_scanned;
                    pruned += p.blocks_pruned_zone;
                    blocks += p.blocks_total;
                    scanned += p.rows_scanned;
                    results += p.total_matched().max(1);
                }
            }
            let p = &result.profile;
            let exec_ns = exec_ns as f64;
            if statement.group == Group::Adhoc {
                adhoc_ns += exec_ns;
                adhoc_rows += p.rows_scanned + p.parked_rows_parsed;
                adhoc_parked += p.parked_rows_parsed;
            } else if statement.grouped {
                grouped_ns += exec_ns;
                grouped_rows += p.rows_scanned;
            }
        }
    }

    let workload_ids: Vec<usize> = (0..n)
        .filter(|&id| inputs.statements[id].group == Group::Workload)
        .collect();
    let exec_medians: Vec<f64> = workload_ids
        .iter()
        .map(|&id| median(&exec_us[id]))
        .collect();
    let fanout: Vec<f64> = workload_ids
        .iter()
        .zip(&exec_medians)
        .map(|(&id, exec)| median(&measured.statement_us[id]) - exec)
        .collect();
    m.insert("sql.parse_us", median_us(rec, "sql.parse"));
    m.insert("sql.plan_us", median_us(rec, "sql.plan"));
    m.insert(
        "engine.merge_finalize_us",
        median_us(rec, "engine.merge_finalize"),
    );
    m.insert("engine.exec_workload_us", median(&exec_medians));
    m.insert("service.fanout_overhead_us", median(&fanout));
    m.insert(
        "engine.rows_skipped_share",
        skipped as f64 / considered.max(1) as f64,
    );
    m.insert(
        "engine.blocks_pruned_share",
        pruned as f64 / blocks.max(1) as f64,
    );
    m.insert(
        "engine.rows_scanned_per_result",
        scanned as f64 / results as f64,
    );
    m.insert(
        "engine.groupby_ns_per_row",
        grouped_ns / grouped_rows.max(1) as f64,
    );
    m.insert(
        "engine.adhoc_ns_per_row",
        adhoc_ns / adhoc_rows.max(1) as f64,
    );
    m.insert(
        "engine.adhoc_parked_share",
        adhoc_parked as f64 / adhoc_rows.max(1) as f64,
    );
}

/// Coverage and cost of the trace itself.
fn trace_quality(replaying: &mut Replaying) {
    let Replaying {
        rec,
        tally,
        metrics: m,
    } = replaying;
    let load_coverage = coverage(rec, "chunk");
    let query_coverage = coverage(rec, "stmt");
    for (phase, share) in [("load", load_coverage), ("query", query_coverage)] {
        tally.check(share >= MIN_COVERAGE, || {
            format!("spans cover only {share:.3} of the traced {phase} phase")
        });
    }
    m.insert("trace.coverage", load_coverage.min(query_coverage));
    m.insert("trace.spans", rec.spans().len() as f64);

    // What recording costs: time as many empty spans as were recorded
    // and compare with the traced wall.
    let traced_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let mut probe = Recorder::new();
    let probe_started = Instant::now();
    let probe_root = probe.begin("probe", None, 0);
    for _ in 0..rec.spans().len() {
        probe.child("probe", probe_root, || ());
    }
    probe.end(probe_root);
    m.insert(
        "trace.overhead_pct",
        100.0 * probe_started.elapsed().as_nanos() as f64 / traced_ns as f64,
    );
}

pub fn run(inputs: &Inputs, measured: &Measured, scratch: &Path) -> Replay {
    let mut replaying = Replaying {
        rec: Recorder::new(),
        tally: Tally::default(),
        metrics: BTreeMap::new(),
    };
    let mut shards = replay_load(&mut replaying, inputs, measured, scratch);
    replay_statements(&mut replaying, inputs, measured, &mut shards);
    trace_quality(&mut replaying);
    let Replaying {
        rec,
        tally,
        metrics,
    } = replaying;

    let own = rec.self_times_ns();
    let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (span, own_ns) in rec.spans().iter().zip(&own) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += *own_ns as f64 / 1e6;
    }
    Replay {
        metrics,
        self_times: by_name
            .into_iter()
            .map(|(name, (calls, ms))| (name, calls, ms))
            .collect(),
        chrome_trace: rec.chrome_trace(),
        tally,
    }
}
