//! The measured run: the workload driven through `ciao_service`'s
//! public API with tracing off. Every end-to-end metric comes from
//! here; the layer metrics marked M read the service's own snapshots
//! afterwards.
//!
//! A run is a sequence of identical **cycles**, repeated until
//! `--seconds` are spent: client (one thread prefilters every chunk) →
//! load (fresh service, `enqueue_wait` every chunk, `drain`) → query
//! (the statement battery on that service) → retire (shutdown; on the
//! durable workload copy, shutdown, recover). Every metric therefore
//! samples the whole run, not one stretch of it: this machine's speed
//! drifts by ±10% over seconds, and a phase measured in one block
//! inherits whatever the machine was doing in that block. Cycle 0 warms
//! caches and the allocator and is not reported. The mixed workload
//! ends with its open-loop window on the last cycle's service.

use crate::setup::{service_config, Group, Inputs, Tally};
use crate::spec::{self, Workload};
use ciao_client::ChunkFilterResult;
use ciao_json::RecordChunk;
use ciao_service::{Service, StorageConfig, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reported cycles a run makes even when `--seconds` are spent.
const MIN_CYCLES: usize = 3;
/// Rounds over the workload group in one cycle of a closed-loop
/// workload; the ad-hoc group gets one (it re-parses every parked row).
const WORKLOAD_ROUNDS: usize = 10;
/// Share of `--seconds` the mixed workload keeps for its window.
const WINDOW_SHARE: f64 = 0.6;

/// What the measured run saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each client pass over all chunks.
    pub client_pass_s: Vec<f64>,
    /// First `enqueue_wait` call → `drain` return, per load.
    pub load_wall_s: Vec<f64>,
    /// Duration of each `enqueue_wait` call of the closed-loop loads.
    pub ack_us: Vec<f64>,
    /// Last ack → `drain` return, per load.
    pub drain_tail_ms: Vec<f64>,
    /// `ServiceMetrics::blocked` over the load wall, per load.
    pub blocked_share: Vec<f64>,
    /// `query_sql` call latencies per statement, warm-up excluded.
    pub statement_us: Vec<Vec<f64>>,
    /// Rendered answer of each statement over the loaded records.
    pub answers: Vec<Option<String>>,
    pub loaded_records: usize,
    pub parked_records: usize,
    /// Records (loaded + parked) per shard.
    pub shard_records: Vec<usize>,
    /// `Service::checkpoint` at the 75% mark, per durable load.
    pub checkpoint_s: Vec<f64>,
    /// `try_start` on the copied directory → first `COUNT(*)` answered.
    pub recover_s: Vec<f64>,
    /// `VmHWM` after the last cycle and the window, before compaction;
    /// the peak is reset after set-up.
    pub rss_peak_mb: f64,
    /// Workload-specific numbers for the run record: (name, value, unit).
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
}

impl Measured {
    pub fn loading_ratio(&self) -> f64 {
        self.loaded_records as f64 / (self.loaded_records + self.parked_records) as f64
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Returns every free heap page to the operating system, so each
/// cycle starts from the same heap: all of it to be faulted in again.
/// Without this, whether glibc happens to keep a retired service's
/// memory decides whether the next load pays ~15 000 page faults, and
/// `load_rec_per_s` on the cheap-load workloads has two modes 40% apart.
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and is safe to call at
    // any time from any thread; it only releases memory `free` already
    // gave back to the allocator.
    unsafe {
        malloc_trim(0);
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)
        .expect("storage directory is readable")
        .flatten()
    {
        let meta = entry.metadata().expect("directory entry has metadata");
        total += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    total
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy target is creatable");
    for entry in std::fs::read_dir(from)
        .expect("storage directory is readable")
        .flatten()
    {
        let target = to.join(entry.file_name());
        if entry
            .metadata()
            .expect("directory entry has metadata")
            .is_dir()
        {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("storage file copies");
        }
    }
}

/// One loaded service and what loading it cost.
struct Loaded {
    service: Service,
    storage: Option<PathBuf>,
}

struct Run<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    filters: Vec<ChunkFilterResult>,
    scratch: &'a Path,
    out: Measured,
}

impl Run<'_> {
    fn start_service(&self, storage: Option<&Path>) -> Service {
        let storage = storage
            .map(|dir| StorageConfig::new(dir).with_sync(SyncPolicy::EveryN(spec::WAL_SYNC_EVERY)));
        Service::try_start(
            self.inputs.plan.clone(),
            Arc::clone(&self.inputs.schema),
            service_config(spec::SHARDS, storage),
        )
        .expect("service starts")
    }

    /// One thread prefilters every chunk; the filter results feed the
    /// load that follows.
    fn client_pass(&mut self, report: bool) {
        let prefilter = self.inputs.plan.prefilter();
        let started = Instant::now();
        let filters: Vec<ChunkFilterResult> = self
            .inputs
            .chunks
            .iter()
            .map(|c| prefilter.run_chunk(c))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        if report {
            self.out.client_pass_s.push(wall);
        }
        self.filters = filters;
    }

    /// Loads a fresh service. Chunks are cloned before the clock
    /// starts: a producer owns its chunks, it does not copy them.
    fn load(&mut self, cycle: usize, report: bool) -> Loaded {
        let storage = self
            .workload
            .durable
            .then(|| self.scratch.join(format!("cycle{cycle}")));
        let service = self.start_service(storage.as_deref());
        let pre: Vec<(RecordChunk, ChunkFilterResult)> = self
            .inputs
            .chunks
            .iter()
            .cloned()
            .zip(self.filters.iter().cloned())
            .collect();
        let checkpoint_after = (self.inputs.chunks.len() as f64 * spec::CHECKPOINT_AT) as usize;
        let mut acks = Vec::with_capacity(pre.len());
        let mut checkpoint_s = None;

        let started = Instant::now();
        for (i, (chunk, filter)) in pre.into_iter().enumerate() {
            let call = Instant::now();
            let result = service.enqueue_wait(chunk, filter);
            acks.push(call.elapsed().as_secs_f64() * 1e6);
            self.out.tally.check(result.is_enqueued(), || {
                format!("enqueue refused: {result:?}")
            });
            if self.workload.durable && i + 1 == checkpoint_after {
                let call = Instant::now();
                let stats = service.checkpoint();
                checkpoint_s = Some(call.elapsed().as_secs_f64());
                self.out
                    .tally
                    .check(stats.is_some(), || "checkpoint wrote nothing".to_owned());
            }
        }
        let last_ack = Instant::now();
        service.drain();
        let wall = started.elapsed().as_secs_f64();
        let tail_ms = last_ack.elapsed().as_secs_f64() * 1e3;

        let metrics = service.metrics();
        self.out.tally.check(
            metrics.ingested_records as usize == self.inputs.records,
            || {
                format!(
                    "ingested {} of {} records",
                    metrics.ingested_records, self.inputs.records
                )
            },
        );
        if report {
            self.out.load_wall_s.push(wall);
            self.out.drain_tail_ms.push(tail_ms);
            self.out
                .blocked_share
                .push(metrics.blocked.as_secs_f64() / wall);
            self.out.ack_us.extend(acks);
            self.out.checkpoint_s.extend(checkpoint_s);
        }
        let load = metrics.load();
        self.out.loaded_records = load.loaded_records;
        self.out.parked_records = load.parked_records;
        self.out.shard_records = metrics.shards.iter().map(|s| s.rows + s.parked).collect();
        Loaded { service, storage }
    }

    /// Executes one statement and returns its latency in µs. The
    /// first execution of the run records the answer; every later one,
    /// on whichever service, must repeat it.
    fn execute(&mut self, service: &Service, id: usize) -> f64 {
        let inputs = self.inputs;
        let sql = &inputs.statements[id].sql;
        let call = Instant::now();
        let result = service.query_sql(sql);
        let micros = call.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(result) if self.out.answers[id].is_none() => {
                self.out.tally.attempted += 1;
                self.out.answers[id] = Some(result.render());
            }
            Ok(result) => self
                .out
                .tally
                .check(Some(result.render()) == self.out.answers[id], || {
                    format!("answer changed between executions: `{sql}`")
                }),
            Err(e) => self
                .out
                .tally
                .check(false, || format!("`{sql}` failed: {e:?}")),
        }
        micros
    }

    /// The battery on one loaded service: a warm-up round over the
    /// workload group (it pays the epoch seal and is not reported),
    /// one round over the ad-hoc group, then the workload rounds.
    fn query(&mut self, service: &Service, report: bool) {
        let ids = |group: Group| -> Vec<usize> {
            (0..self.inputs.statements.len())
                .filter(|&id| self.inputs.statements[id].group == group)
                .collect()
        };
        let (planned, adhoc) = (ids(Group::Workload), ids(Group::Adhoc));
        for &id in &planned {
            self.execute(service, id);
        }
        self.check_count(service, self.inputs.records);
        let rounds = if self.workload.open_loop_records_per_s.is_some() {
            0
        } else {
            WORKLOAD_ROUNDS
        };
        for &id in adhoc
            .iter()
            .chain(std::iter::repeat_n(&planned, rounds).flatten())
        {
            let micros = self.execute(service, id);
            if report {
                self.out.statement_us[id].push(micros);
            }
        }
    }

    fn check_count(&mut self, service: &Service, expected: usize) {
        let answer = service
            .query_sql("SELECT COUNT(*) FROM t")
            .map(|r| r.render());
        let want = format!("count(*):int\n{expected}");
        self.out
            .tally
            .check(answer.as_deref() == Ok(want.as_str()), || {
                format!("COUNT(*) answered {answer:?}, expected {expected}")
            });
    }

    /// Compaction ticks until nothing more is promoted.
    fn compact(&mut self, service: &Service) {
        let started = Instant::now();
        let mut promoted = 0usize;
        loop {
            let tick = service.compact();
            if tick.promoted == 0 {
                break;
            }
            promoted += tick.promoted;
        }
        let nanos = started.elapsed().as_nanos() as f64;
        self.out
            .extras
            .push(("compact_promoted_rows", promoted as f64, "count"));
        if promoted > 0 {
            self.out
                .extras
                .push(("compact_ns_per_row", nanos / promoted as f64, "ns"));
        }
        self.check_count(service, self.inputs.records);
    }

    /// Ends a cycle's service. Memory-only: shut it down. Durable:
    /// copy the directory as a crash would leave it (snapshot at 75%
    /// plus the WAL tail), shut the service down, and start another on
    /// the copy; `compare_answers` re-answers the battery on it.
    fn retire(&mut self, loaded: Loaded, report: bool, compare_answers: bool) {
        let Some(dir) = loaded.storage else {
            loaded.service.shutdown();
            return;
        };
        let copy = dir.with_extension("copy");
        let durability = loaded
            .service
            .durability()
            .expect("durable service reports durability");
        let on_disk = dir_bytes(&dir);
        copy_dir(&dir, &copy);
        loaded.service.shutdown();

        let started = Instant::now();
        let recovered = self.start_service(Some(&copy));
        self.check_count(&recovered, self.inputs.records);
        let recover_s = started.elapsed().as_secs_f64();
        if report {
            self.out.recover_s.push(recover_s);
        }
        if compare_answers {
            let replayed = recovered.durability().map_or(0, |d| d.wal_replayed);
            self.out.extras.extend([
                (
                    "checkpoint_s",
                    crate::stats::median(&self.out.checkpoint_s),
                    "s",
                ),
                ("recover_s", crate::stats::median(&self.out.recover_s), "s"),
                (
                    "wal_write_amp",
                    on_disk as f64 / self.inputs.input_bytes as f64,
                    "ratio",
                ),
                ("wal_appends", durability.wal_appends as f64, "count"),
                ("wal_syncs", durability.wal_syncs as f64, "count"),
                (
                    "snapshots_written",
                    durability.snapshots_written as f64,
                    "count",
                ),
                ("wal_replayed_chunks", replayed as f64, "count"),
            ]);
            for id in 0..self.inputs.statements.len() {
                self.execute(&recovered, id);
            }
        }
        recovered.shutdown();
        for path in [dir, copy] {
            std::fs::remove_dir_all(&path).expect("scratch storage is removable");
        }
    }

    /// The mixed window: a paced producer beside a closed-loop reader.
    /// Chunk `i` is due at `t0 + i·Δ` whatever the service does, and
    /// its ack is timed from that due time. At this rate the queue
    /// never fills, so those acks are the generator's wake-up jitter
    /// plus an enqueue: they go to the run record, not to `ack_*`.
    fn mixed_window(&mut self, service: &Service, records_per_s: f64, window: Duration) {
        let delta = Duration::from_secs_f64(spec::CHUNK_RECORDS as f64 / records_per_s);
        let count = (window.as_secs_f64() / delta.as_secs_f64()) as usize;
        let n = self.inputs.chunks.len();
        let pre: Vec<(RecordChunk, ChunkFilterResult)> = (0..count)
            .map(|i| {
                (
                    self.inputs.chunks[i % n].clone(),
                    self.filters[i % n].clone(),
                )
            })
            .collect();
        let sent_records: usize = pre.iter().map(|(c, _)| c.len()).sum();
        let readers: Vec<usize> = (0..self.inputs.statements.len())
            .filter(|&id| self.inputs.statements[id].group == Group::Workload)
            .collect();
        let statements = &self.inputs.statements;
        let done = AtomicBool::new(false);

        let (acks, late, sent_in, refused, reads) = std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let mut acks = Vec::with_capacity(count);
                let mut late = Vec::with_capacity(count);
                let mut refused = 0u64;
                let t0 = Instant::now();
                for (i, (chunk, filter)) in pre.into_iter().enumerate() {
                    let due = t0 + delta * i as u32;
                    // Sleep most of the wait, spin the rest: a sleep
                    // alone overshoots by the timer slack.
                    let wait = due.saturating_duration_since(Instant::now());
                    std::thread::sleep(wait.saturating_sub(Duration::from_micros(200)));
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    late.push(due.elapsed().as_secs_f64() * 1e6);
                    if !service.enqueue_wait(chunk, filter).is_enqueued() {
                        refused += 1;
                    }
                    acks.push(due.elapsed().as_secs_f64() * 1e6);
                }
                let sent_in = t0.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                (acks, late, sent_in, refused)
            });
            let reader = scope.spawn(|| {
                let mut reads: Vec<(usize, f64, f64, bool)> = Vec::new();
                for turn in 0.. {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let id = readers[turn % readers.len()];
                    let call = Instant::now();
                    service.drain();
                    let drain_us = call.elapsed().as_secs_f64() * 1e6;
                    let call = Instant::now();
                    let ok = service.query_sql(&statements[id].sql).is_ok();
                    reads.push((id, call.elapsed().as_secs_f64() * 1e6, drain_us, ok));
                }
                reads
            });
            let (acks, late, sent_in, refused) = producer.join().expect("producer thread");
            (
                acks,
                late,
                sent_in,
                refused,
                reader.join().expect("reader thread"),
            )
        });
        self.out.tally.attempted += count as u64;
        self.out.tally.failed += refused;

        let mut drain_wait = Vec::with_capacity(reads.len());
        for (id, micros, drain_us, ok) in reads {
            self.out.tally.check(ok, || {
                format!("window statement failed: `{}`", statements[id].sql)
            });
            self.out.statement_us[id].push(micros);
            drain_wait.push(drain_us);
        }
        self.check_count(service, self.inputs.records + sent_records);
        self.out.extras.extend([
            ("window_chunks", count as f64, "count"),
            ("window.ack_p50_us", crate::stats::median(&acks), "us"),
            (
                "window.ack_p95_us",
                crate::stats::quantile(&acks, 0.95),
                "us",
            ),
            ("window_statements", drain_wait.len() as f64, "count"),
            ("gen.late_p95_us", crate::stats::quantile(&late, 0.95), "us"),
            (
                "gen.achieved_rate_share",
                sent_records as f64 / sent_in / records_per_s,
                "ratio",
            ),
            (
                "service.drain_wait_us",
                crate::stats::median(&drain_wait),
                "us",
            ),
            (
                "table_growth_share",
                sent_records as f64 / self.inputs.records as f64,
                "ratio",
            ),
        ]);
    }
}

/// Drives `workload` for about `seconds` seconds.
pub fn run(workload: &Workload, inputs: &Inputs, seconds: f64, scratch: &Path) -> Measured {
    let n = inputs.statements.len();
    let mut run = Run {
        workload,
        inputs,
        filters: Vec::new(),
        scratch,
        out: Measured {
            answers: vec![None; n],
            statement_us: vec![Vec::new(); n],
            ..Measured::default()
        },
    };
    let window = workload
        .open_loop_records_per_s
        .map(|rate| (rate, Duration::from_secs_f64(seconds * WINDOW_SHARE)));
    let cycles_for = Duration::from_secs_f64(seconds) - window.map_or(Duration::ZERO, |(_, w)| w);

    // Set-up holds the records three times over at its peak; that is
    // the benchmark's memory, not the pipeline's. Start `VmHWM` again
    // from what is resident now (the chunks).
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let deadline = Instant::now() + cycles_for;
    let mut cycle = 0;
    let last = loop {
        let report = cycle > 0;
        run.client_pass(report);
        let loaded = run.load(cycle, report);
        run.query(&loaded.service, report);
        if cycle >= MIN_CYCLES && Instant::now() >= deadline {
            break loaded;
        }
        run.retire(loaded, report, false);
        trim_heap();
        cycle += 1;
    };

    if let Some((rate, window)) = window {
        run.mixed_window(&last.service, rate, window);
    }
    run.out.rss_peak_mb = vm_hwm_mb();
    if !workload.durable && window.is_none() {
        run.compact(&last.service);
    }
    run.retire(last, true, true);
    run.out
}
