//! Turns what a run saw into named metrics, the one-line result the
//! driver reads, and the run record a person reads.

use crate::measure::Measured;
use crate::replay::Replay;
use crate::setup::{Group, Inputs, SetupTiming};
use crate::spec::{self, Scale, Workload};
use crate::stats::{median, mid_mean, quantile};
use ciao_json::JsonValue;
use std::path::Path;

/// One reported number with the samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single reading).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Latencies of one statement group, every execution pooled.
fn pooled(inputs: &Inputs, measured: &Measured, group: Group) -> Vec<f64> {
    inputs
        .statements
        .iter()
        .zip(&measured.statement_us)
        .filter(|(s, _)| s.group == group)
        .flat_map(|(_, us)| us.iter().copied())
        .collect()
}

/// The end-to-end metrics, in `spec::END_TO_END` order.
pub fn end_to_end(
    workload: &Workload,
    inputs: &Inputs,
    setups: &[SetupTiming],
    measured: &Measured,
) -> Vec<Metric> {
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let client_s = median(&measured.client_pass_s);
    let load_s = median(&measured.load_wall_s);
    // One execution of every statement of the battery.
    let battery_s: f64 = measured
        .statement_us
        .iter()
        .map(|us| median(us) / 1e6)
        .sum();
    let recover_s = if workload.durable {
        median(&measured.recover_s)
    } else {
        0.0
    };
    let planned = pooled(inputs, measured, Group::Workload);
    // The two ad-hoc statements cost different amounts, so the median
    // of their pooled latencies would sit between two clusters; a round
    // over the group is one quantity.
    let adhoc: Vec<&Vec<f64>> = inputs
        .statements
        .iter()
        .zip(&measured.statement_us)
        .filter(|(s, _)| s.group == Group::Adhoc)
        .map(|(_, us)| us)
        .collect();
    let adhoc_rounds: Vec<f64> = (0..adhoc[0].len())
        .map(|round| adhoc.iter().map(|us| us[round]).sum())
        .collect();
    let records = inputs.records as f64;

    let values = [
        (median(&setup_s), setup_s.len()),
        (
            client_s + load_s + battery_s + recover_s,
            measured.load_wall_s.len(),
        ),
        (
            (client_s + load_s) * 1e6 / records,
            measured.load_wall_s.len(),
        ),
        (records / load_s, measured.load_wall_s.len()),
        (mid_mean(&measured.ack_us), measured.ack_us.len()),
        (quantile(&measured.ack_us, 0.95), measured.ack_us.len()),
        (median(&planned), planned.len()),
        (median(&adhoc_rounds) / 1e3, adhoc_rounds.len()),
        (measured.rss_peak_mb, 1),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| metric(m.name, m.unit, value, samples))
        .collect()
}

/// The per-layer metrics, in `spec::PER_LAYER` order: the replay's,
/// plus those read from set-up and from the measured run's snapshots.
pub fn per_layer(
    inputs: &Inputs,
    setups: &[SetupTiming],
    measured: &Measured,
    replay: &Replay,
) -> Vec<Metric> {
    let planned = pooled(inputs, measured, Group::Workload);
    let of = |pick: fn(&SetupTiming) -> f64| median(&setups.iter().map(pick).collect::<Vec<_>>());
    let mean_shard =
        measured.shard_records.iter().sum::<usize>() as f64 / measured.shard_records.len() as f64;
    let largest_shard = *measured
        .shard_records
        .iter()
        .max()
        .expect("service has shards") as f64;
    let from_measured = [
        ("datagen.gen_s", of(|t| t.gen_s), setups.len()),
        (
            "optimizer.plan_build_ms",
            of(|t| t.plan_build_ms),
            setups.len(),
        ),
        (
            "json.split_ns_per_rec",
            of(|t| t.split_ns_per_rec),
            setups.len(),
        ),
        (
            "service.blocked_share",
            median(&measured.blocked_share),
            measured.blocked_share.len(),
        ),
        (
            "service.drain_tail_ms",
            median(&measured.drain_tail_ms),
            measured.drain_tail_ms.len(),
        ),
        ("service.shard_skew", largest_shard / mean_shard, 1),
        (
            "measured.load_wall_ms",
            median(&measured.load_wall_s) * 1e3,
            measured.load_wall_s.len(),
        ),
        (
            "measured.q_workload_p50_us",
            median(&planned),
            planned.len(),
        ),
        (
            "measured.q_workload_p95_us",
            quantile(&planned, 0.95),
            planned.len(),
        ),
    ];
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) = from_measured
                .iter()
                .find(|(name, ..)| *name == m.name)
                .map(|&(_, value, samples)| (value, samples))
                .or_else(|| replay.metrics.get(m.name).map(|&value| (value, 1)))
                .unwrap_or_else(|| panic!("no value for per-layer metric {}", m.name));
            metric(m.name, m.unit, value, samples)
        })
        .collect()
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let metrics = metrics.iter().map(|m| {
        (
            m.name,
            JsonValue::object([
                ("value", JsonValue::from(m.value)),
                ("unit", JsonValue::from(m.unit)),
            ]),
        )
    });
    ciao_json::to_string(&JsonValue::object([
        ("correct", JsonValue::from(failed == 0)),
        ("attempted", JsonValue::from(attempted as i64)),
        ("failed", JsonValue::from(failed as i64)),
        ("metrics", JsonValue::object(metrics)),
    ]))
}

/// `git rev-parse HEAD` without spawning git: the checkout the driver
/// runs in is not a repository, and then this is `unknown`.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_owned(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit.to_owned()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

/// Where, on what and with which constants a result was measured.
#[allow(clippy::too_many_arguments)]
pub fn run_record(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    inputs: &Inputs,
    measured: &Measured,
    metrics: &[Metric],
    replay: Option<&Replay>,
    attempted: u64,
    failed: u64,
) -> JsonValue {
    let int = |v: usize| JsonValue::from(v as i64);
    let mut record = vec![
        ("workload", JsonValue::from(workload.name)),
        ("why", JsonValue::from(workload.why)),
        ("scale", JsonValue::from(scale.label())),
        ("seed", JsonValue::from(seed as i64)),
        ("seconds", JsonValue::from(seconds)),
        ("traced", JsonValue::from(traced)),
        ("git_commit", JsonValue::from(git_commit())),
        ("rustc", JsonValue::from(rustc_version())),
        ("build_profile", JsonValue::from("release")),
        (
            "nproc",
            int(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        (
            "topology",
            JsonValue::object([
                ("shards", int(spec::SHARDS)),
                ("workers", int(spec::WORKERS)),
                ("queue_capacity", int(spec::QUEUE_CAPACITY)),
                ("block_size", int(spec::BLOCK_SIZE)),
                ("chunk_records", int(spec::CHUNK_RECORDS)),
                ("telemetry", JsonValue::from(true)),
                (
                    "load_threads",
                    int(if workload.open_loop_records_per_s.is_some() {
                        2
                    } else {
                        1
                    }),
                ),
            ]),
        ),
        (
            "sync_policy",
            if workload.durable {
                JsonValue::from(format!("EveryN({})", spec::WAL_SYNC_EVERY))
            } else {
                JsonValue::from("none (memory-only)")
            },
        ),
        (
            "sizes",
            JsonValue::object([
                ("records", int(inputs.records)),
                ("chunks", int(inputs.chunks.len())),
                ("input_bytes", int(inputs.input_bytes)),
                ("sample_records", int(spec::SAMPLE_RECORDS)),
                ("statements", int(inputs.statements.len())),
                ("pushed_predicates", int(inputs.plan.len())),
                ("budget_us", JsonValue::from(workload.budget_us)),
                ("workload_seed", JsonValue::from(spec::WORKLOAD_SEED as i64)),
            ]),
        ),
        (
            "loading",
            JsonValue::object([
                ("loaded_records", int(measured.loaded_records)),
                ("parked_records", int(measured.parked_records)),
                ("ratio", JsonValue::from(measured.loading_ratio())),
                ("base", JsonValue::from("records ingested")),
            ]),
        ),
        ("attempted", JsonValue::from(attempted as i64)),
        ("failed", JsonValue::from(failed as i64)),
        (
            "metrics",
            JsonValue::array(metrics.iter().map(|m| {
                JsonValue::object([
                    ("name", JsonValue::from(m.name)),
                    ("value", JsonValue::from(m.value)),
                    ("unit", JsonValue::from(m.unit)),
                    ("samples", int(m.samples)),
                ])
            })),
        ),
        (
            "extras",
            JsonValue::array(measured.extras.iter().map(|&(name, value, unit)| {
                JsonValue::object([
                    ("name", JsonValue::from(name)),
                    ("value", JsonValue::from(value)),
                    ("unit", JsonValue::from(unit)),
                ])
            })),
        ),
    ];
    if let Some(replay) = replay {
        record.push((
            "self_time_ms",
            JsonValue::array(replay.self_times.iter().map(|&(name, calls, ms)| {
                JsonValue::object([
                    ("span", JsonValue::from(name)),
                    ("calls", int(calls)),
                    ("self_ms", JsonValue::from(ms)),
                ])
            })),
        ));
    }
    JsonValue::object(record)
}

/// The table a person reads, on stderr: stdout's last line is the
/// driver's.
pub fn print_table(
    workload: &Workload,
    seed: u64,
    metrics: &[Metric],
    measured: &Measured,
    replay: Option<&Replay>,
) {
    eprintln!("== {} (seed {seed}) ==", workload.name);
    eprintln!(
        "   loaded {} of {} records (ratio {:.4})",
        measured.loaded_records,
        measured.loaded_records + measured.parked_records,
        measured.loading_ratio()
    );
    for m in metrics {
        eprintln!(
            "   {:<34} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for &(name, value, unit) in &measured.extras {
        eprintln!("   + {:<32} {:>16.4} {:<6}", name, value, unit);
    }
    if let Some(replay) = replay {
        eprintln!("   self time by span (traced replay):");
        for &(name, calls, ms) in &replay.self_times {
            eprintln!("     {:<30} {:>12.3} ms  calls={calls}", name, ms);
        }
    }
}
