//! The service: shards + queue + workers under one handle.

use crate::compactor::CompactionStats;
use crate::config::{fnv1a, Routing, ServiceConfig};
use crate::metrics::ServiceMetrics;
use crate::queue::{EnqueueResult, IngestJob, IngestQueue, ScanJob, Work};
use crate::shard::{EpochPin, Shard};
use crate::telemetry::{names, ServiceTelemetry};
use crate::workload::{SlowQueryEntry, SlowQueryLog, WorkloadStats};
use ciao::PushdownPlan;
use ciao_client::{ChunkFilterResult, Prefilter};
use ciao_columnar::Block;
use ciao_columnar::Schema;
use ciao_engine::{
    count_plan, plan_query, ColumnDesc, PartialResult, Prepared, QueryOutcome, QueryResult,
};
use ciao_json::{RecordChunk, SharedRecord};
use ciao_predicate::Query;
use ciao_sql::{PhysicalPlan, SqlError, SqlType, SqlValue, Statement};
use ciao_storage::{CheckpointStats, RecoveryReport, SnapshotView, StorageError, Store};
use ciao_telemetry::{SpanId, SpanTree, TelemetrySnapshot};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared between the service handle and its worker threads.
#[derive(Debug)]
struct Inner {
    queue: IngestQueue,
    /// Each shard guards its own active epoch; see [`Shard`].
    shards: Vec<Shard>,
    routing: Routing,
    rejected: AtomicU64,
    ingested_chunks: AtomicU64,
    ingested_records: AtomicU64,
    queries: AtomicU64,
    /// Nanoseconds producers spent blocked in `enqueue_wait` —
    /// tracked even with telemetry off (it is one add per blocking
    /// enqueue, and `ServiceMetrics::blocked` always reports it).
    blocked_nanos: AtomicU64,
    telemetry: Option<Arc<ServiceTelemetry>>,
    /// The durable store, `None` for a purely in-memory service. The
    /// mutex serializes WAL appends (each with the queue push it
    /// precedes, see `push_logged`) and checkpoints; ingest workers
    /// never touch it (logging happens on the producer's thread,
    /// before the ack).
    storage: Option<Mutex<Store>>,
    /// Producer/checkpoint exclusion. Producers hold it shared across
    /// WAL append + `queue.push`, so the two are atomic as seen by a
    /// checkpoint; [`Service::checkpoint`] holds it exclusively across
    /// ceiling-read + drain + shard seal. Without the gate a chunk
    /// enqueued mid-checkpoint could land both in a snapshot and above
    /// its ceiling, double-applying on recovery. Never held while
    /// blocking on queue capacity (see `enqueue_wait`'s retry loop),
    /// so a pending checkpoint cannot deadlock with a blocked
    /// producer.
    ingest_gate: RwLock<()>,
    /// Snapshot files written by checkpoints over this service's life.
    snapshots_written: AtomicU64,
    /// Per-clause frequency/selectivity EWMAs fed by every executed
    /// SQL statement's profile. Only populated while telemetry is on.
    workload: Mutex<WorkloadStats>,
    /// Bounded ring of statements at or above the slow-query
    /// threshold. Only populated while telemetry is on.
    slow_log: Mutex<SlowQueryLog>,
    /// The most recent SQL statement's span tree, `None` until the
    /// first statement or while telemetry is off.
    last_trace: Mutex<Option<SpanTree>>,
}

/// Entries the slow-query ring retains before evicting the oldest.
const SLOW_QUERY_LOG_CAPACITY: usize = 64;

impl Inner {
    fn route(&self, seq_hint: u64, chunk: &RecordChunk) -> usize {
        match self.routing {
            Routing::RoundRobin => (seq_hint % self.shards.len() as u64) as usize,
            Routing::Hash => {
                let mut h = fnv1a(chunk.record(0).as_bytes());
                // Mix the record count so single-record chunks of the
                // same payload still spread.
                h ^= chunk.len() as u64;
                (h % self.shards.len() as u64) as usize
            }
        }
    }

    fn ingest(&self, job: IngestJob) {
        let records = job.chunk.len() as u64;
        self.shards[job.shard].ingest(&job.chunk, &job.filter);
        self.ingested_chunks.fetch_add(1, Ordering::Relaxed);
        self.ingested_records.fetch_add(records, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.ingest_ack[job.shard].record_duration(job.enqueued_at.elapsed());
        }
        self.queue.complete();
    }

    /// Offers one chunk to the queue and — for a durable service —
    /// write-ahead-logs it, as one step: `Ok(seq)` means queued *and*
    /// logged, `Err` hands the untouched job back (queue full or
    /// closed, nothing logged).
    ///
    /// The log frames the chunk's own text, borrowed from the chunk
    /// the producer still holds: it is appended under the seq the
    /// queue is about to assign and only then moved into the queue, so
    /// nothing is serialized or copied on the way to the `write`. That
    /// is sound because every durable push happens under the store
    /// lock taken here — no other producer can claim the seq or the
    /// free slot in between (workers only ever add space) — and it
    /// makes log order, seq order and queue order one order.
    ///
    /// Panics on a WAL write failure: returning `Enqueued` for a chunk
    /// the log could not take would turn "acked" into a lie, and the
    /// producer's thread is where that contract breaks.
    fn push_logged(
        &self,
        shard: usize,
        chunk: RecordChunk,
        filter: ChunkFilterResult,
    ) -> Result<u64, (RecordChunk, ChunkFilterResult)> {
        let Some(storage) = &self.storage else {
            return self.queue.try_push(shard, chunk, filter);
        };
        let mut store = storage.lock();
        let Some(seq) = self.queue.next_seq_if_space() else {
            return Err((chunk, filter));
        };
        store
            .append(seq, shard as u32, chunk.as_ndjson().as_bytes())
            .expect("write-ahead log append failed");
        let timing = store.last_append();
        let pushed = self.queue.try_push(shard, chunk, filter).ok();
        drop(store);
        assert_eq!(pushed, Some(seq), "a logged chunk must enter the queue");
        if let Some(t) = &self.telemetry {
            t.wal_appends.inc();
            t.wal_append.record_duration(timing.write);
            if let Some(sync) = timing.sync {
                t.wal_sync.record_duration(sync);
            }
        }
        Ok(seq)
    }
}

/// Wraps rendered plan/annotation lines as a one-column result set
/// (`plan:str`, one row per line) so `EXPLAIN` output flows through
/// the same [`QueryResult`] machinery as any `SELECT`.
fn plan_text_result(lines: Vec<String>) -> QueryResult {
    QueryResult {
        columns: vec![ColumnDesc {
            name: "plan".to_owned(),
            ty: SqlType::Str,
        }],
        rows: lines.into_iter().map(|l| vec![SqlValue::Str(l)]).collect(),
        ..QueryResult::default()
    }
}

/// A statement whose shards leave at most this many rows to evaluate
/// — block rows surviving zone maps and skip-masks, plus every parked
/// row when the parked side must be scanned — is scanned on its
/// caller's thread; a larger one keeps one shard and hands the rest to
/// the workers. A constant, not a setting: it weighs the hand-off (a
/// condvar wake of a sleeping worker, ≈ 100 µs on the 2-core sandbox,
/// about what spawning a thread costs there) against the scan it
/// takes off the caller, and is set from `repro -- fanout`
/// (`crates/bench/src/experiments/fanout.rs`; 2 shards, median µs per
/// `SELECT COUNT(*) … WHERE id < X`, arms interleaved, 2 cores, block
/// rows filtered by the column-at-a-time block driver):
///
/// ```text
/// surviving block rows   inline   hand-off   thread::scope spawn
///                  256     11.3       12.4                  67.5
///                  512     14.8       15.6                  65.1
///                 1024     21.3       30.4                  69.0
///                 2048     33.4       38.2                  76.3
///                 4096     55.9       51.1                  87.6
///                 8192    100.8       75.9                 113.6
///                16384    186.6      132.6                 180.9
/// ```
///
/// Inline won at 512–2048 rows in all eight runs made (at 256 it lost
/// one by 0.2 µs); the hand-off won at 4096 and at 8192 in six (by
/// 5–7 µs at 4096; the two losses came in a phase where every hand-off
/// cost 10–15 µs more) and at 16384 in four, so the sweep prints a
/// crossover of 4096 when the host is quiet. The block driver
/// halved the inline cost per block row (the row-at-a-time loop took
/// 103.8 µs at 4096), which pulled the crossover down from
/// 8192–16384. Handing off too early costs the post (≈ 6 µs, the
/// caller takes an unstarted scan back); scanning inline too late
/// costs up to the parallel half; the constant stays at the printed
/// crossover, where inlining gives up about 5 µs. Parked rows are
/// dearer per row, which this one count does not weigh. The first
/// statement to read an epoch's parked rows validates each while it
/// builds the epoch's positional map, at about what a map-less scan
/// pays: 450 ns a row on short WinLog records, 1500 ns on YCSB's.
/// Later statements read through the map: 280–310 ns a row on both
/// (`repro -- micro`'s `engine/parked_rescan_*` rows, two fields
/// built per row, same host). Before the map, the same sweep over
/// short parked records crossed at 512 in a quiet phase.
const INLINE_MAX_SURVIVING_ROWS: usize = 4096;

/// Where a statement's per-shard scans ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// All on the statement's own thread.
    Inline,
    /// Shard 0 on the statement's thread, the rest handed to workers.
    Handoff,
}

impl Dispatch {
    fn as_str(self) -> &'static str {
        match self {
            Dispatch::Inline => "inline",
            Dispatch::Handoff => "handoff",
        }
    }
}

/// One shard's scan as [`Service::execute`] ran it.
#[derive(Debug)]
struct ShardRun {
    partial: PartialResult,
    /// `0` for the statement's thread, `w + 1` for worker `w`.
    lane: u64,
    /// Offset of the scan's start from the statement's origin.
    start_ns: u64,
    dur_ns: u64,
}

impl ShardRun {
    fn time(origin: Instant, lane: u64, scan: impl FnOnce() -> PartialResult) -> ShardRun {
        let started = Instant::now();
        let partial = scan();
        ShardRun {
            partial,
            lane,
            start_ns: started.duration_since(origin).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

/// Durability counters for a storage-backed service, reported by
/// [`Service::durability`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Chunks appended to the WAL since start.
    pub wal_appends: u64,
    /// `fsync` calls the append path issued (tracks the
    /// [`ciao_storage::SyncPolicy`]).
    pub wal_syncs: u64,
    /// Live WAL segment files.
    pub wal_segments: usize,
    /// Chunks re-applied from the WAL tail when this service started.
    pub wal_replayed: u64,
    /// Snapshot files written by this service's checkpoints.
    pub snapshots_written: u64,
}

/// A long-running, sharded CIAO service.
///
/// Wraps N [`Shard`]s (each an independently locked partial-loading
/// state sharing one [`PushdownPlan`]) behind a bounded ingest queue.
/// Producers [`Service::enqueue`] prefiltered chunks and observe
/// [`EnqueueResult::QueueFull`] backpressure; worker threads drain the
/// queue into shards; [`Service::query`] and [`Service::query_sql`]
/// fan out across shards and merge the per-shard partials into one
/// answer — identical to one [`Shard`] holding all the records. Tick
/// [`Service::compact`] from any maintenance cadence to promote parked
/// raw rows into columnar blocks in the background.
#[derive(Debug)]
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    prefilter: Prefilter,
    config: ServiceConfig,
    /// The columnar schema every shard loads under — kept so
    /// [`Service::query_sql`] can analyze statements against it.
    schema: Arc<Schema>,
    /// What recovery worked around at start (`None` when storage is
    /// off). An empty-notes report means a clean start.
    recovery_report: Option<RecoveryReport>,
    /// Chunks re-applied from the WAL tail at start.
    wal_replayed: u64,
}

impl Service {
    /// Starts a service: builds the shards and spawns the configured
    /// worker threads.
    ///
    /// Panics when [`ServiceConfig::storage`] is set and recovery
    /// fails; use [`Service::try_start`] to handle storage errors.
    pub fn start(plan: PushdownPlan, schema: Arc<Schema>, config: ServiceConfig) -> Service {
        Self::try_start(plan, schema, config).expect("storage recovery failed")
    }

    /// Starts a service, recovering durable state first when
    /// [`ServiceConfig::storage`] is set: the manifest picks each
    /// shard's newest readable snapshot (falling back a generation on
    /// damage), the WAL tail is re-applied through the normal ingest
    /// path, and the sequence line resumes past everything recovered.
    /// The [`Service::recovery_report`] records every degradation the
    /// start tolerated.
    pub fn try_start(
        plan: PushdownPlan,
        schema: Arc<Schema>,
        config: ServiceConfig,
    ) -> Result<Service, StorageError> {
        let prefilter = plan.prefilter();
        let plan = Arc::new(plan);
        let telemetry = config
            .telemetry
            .then(|| ServiceTelemetry::new(config.shards, config.event_capacity));
        let mut shards: Vec<Shard> = (0..config.shards)
            .map(|i| {
                let mut shard =
                    Shard::new(Arc::clone(&plan), Arc::clone(&schema), config.block_size);
                if let Some(t) = &telemetry {
                    shard.attach_telemetry(i, Arc::clone(t));
                }
                shard
            })
            .collect();

        let mut storage = None;
        let mut recovery_report = None;
        let mut first_seq = 0;
        let mut wal_replayed = 0u64;
        if let Some(storage_config) = &config.storage {
            let (store, recovery) = Store::open(storage_config.clone(), config.shards as u32)?;
            // The recovery is consumed by value: restored tables, parked
            // records and replayed chunks move into the shards, and each
            // log payload is freed as soon as it has been re-applied.
            let mut ceilings = vec![0u64; config.shards];
            for recovered in recovery.shards {
                ceilings[recovered.shard as usize] = recovered.ceiling;
                if let Some(snap) = recovered.snapshot {
                    let (stats, sealed_epochs) = (snap.stats, snap.sealed_epochs as usize);
                    // The parked page comes back as one chunk, whose text
                    // every restored parked record shares.
                    let (table, parked) = snap.into_table_and_parked();
                    let parked = RecordChunk::from_lines_owned(parked);
                    shards[recovered.shard as usize].restore(table, parked, stats, sealed_epochs);
                }
            }
            // Re-apply the WAL tail through the normal ingest path —
            // the prefilter is deterministic, so re-running it beats
            // persisting filter bitvectors in the log. Log order is
            // each shard's apply order; shards are independent.
            for record in recovery.tail {
                let shard = record.shard as usize;
                if shard >= shards.len() || record.seq < ceilings[shard] {
                    continue;
                }
                let text =
                    String::from_utf8(record.chunk).expect("recovery replays only UTF-8 chunks");
                let chunk = RecordChunk::from_ndjson_owned(text);
                let filter = prefilter.run_chunk(&chunk);
                shards[shard].ingest(&chunk, &filter);
                wal_replayed += 1;
            }
            if let Some(t) = &telemetry {
                t.wal_replayed.add(wal_replayed);
            }
            first_seq = recovery.next_seq;
            recovery_report = Some(recovery.report);
            storage = Some(Mutex::new(store));
        }

        let inner = Arc::new(Inner {
            queue: IngestQueue::with_first_seq(config.queue_capacity, first_seq),
            shards,
            routing: config.routing,
            rejected: AtomicU64::new(0),
            ingested_chunks: AtomicU64::new(0),
            ingested_records: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            blocked_nanos: AtomicU64::new(0),
            telemetry,
            storage,
            ingest_gate: RwLock::new(()),
            snapshots_written: AtomicU64::new(0),
            workload: Mutex::new(WorkloadStats::default()),
            slow_log: Mutex::new(SlowQueryLog::new(
                config.slow_query_threshold,
                SLOW_QUERY_LOG_CAPACITY,
            )),
            last_trace: Mutex::new(None),
        });
        // The workers ingest chunks and run the scans statements hand
        // off; worker `w` is lane `w + 1` in a statement's trace.
        let workers = (1..=config.workers as u64)
            .map(|lane| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(work) = inner.queue.pop_wait() {
                        match work {
                            Work::Ingest(job) => inner.ingest(job),
                            Work::Scan(job) => job.run(lane),
                        }
                    }
                })
            })
            .collect();
        Ok(Service {
            inner,
            workers,
            prefilter,
            config,
            schema,
            recovery_report,
            wal_replayed,
        })
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The plan's client-side prefilter, for producers that filter
    /// their own chunks before [`Service::enqueue`].
    pub fn prefilter(&self) -> Prefilter {
        self.prefilter.clone()
    }

    /// A chunk and its filter result must agree on the record count;
    /// panicking here (the producer's thread, where the framing bug
    /// lives) beats wedging an ingest worker on the loader's own
    /// assert and hanging every future [`Service::drain`].
    fn check_framing(chunk: &RecordChunk, filter: &ChunkFilterResult) {
        assert_eq!(
            chunk.len(),
            filter.records,
            "chunk has {} records but filter result covers {}",
            chunk.len(),
            filter.records
        );
    }

    /// Non-blocking enqueue of a prefiltered chunk. Routes to a shard
    /// deterministically, then either queues the job or reports
    /// [`EnqueueResult::QueueFull`] backpressure. Empty chunks are
    /// accepted and dropped (seq still advances). Never waits for
    /// queue capacity, but may block momentarily while a concurrent
    /// [`Service::checkpoint`] commits.
    ///
    /// Panics when `filter` does not cover exactly `chunk`'s records.
    pub fn enqueue(&self, chunk: RecordChunk, filter: ChunkFilterResult) -> EnqueueResult {
        Self::check_framing(&chunk, &filter);
        if chunk.is_empty() {
            return EnqueueResult::Enqueued {
                seq: self.inner.queue.accepted(),
                shard: 0,
            };
        }
        let shard = self.inner.route(self.inner.queue.accepted(), &chunk);
        // Under the shared gate, WAL append + push are one atomic step
        // as far as a concurrent checkpoint is concerned (it briefly
        // blocks here while a checkpoint commits).
        let gate = self.inner.ingest_gate.read().expect("ingest gate");
        let pushed = self.inner.push_logged(shard, chunk, filter);
        drop(gate);
        match pushed {
            Ok(seq) => EnqueueResult::Enqueued { seq, shard },
            Err(_) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                let capacity = self.inner.queue.capacity();
                if let Some(t) = &self.inner.telemetry {
                    t.queue_full.inc();
                    t.events().push(
                        names::EVENT_QUEUE_FULL,
                        Some(shard),
                        &[("capacity", capacity as u64)],
                    );
                }
                EnqueueResult::QueueFull { capacity }
            }
        }
    }

    /// Blocking enqueue: waits for queue capacity instead of reporting
    /// `QueueFull` (which it returns only if the service shuts down
    /// while waiting).
    ///
    /// Panics when `filter` does not cover exactly `chunk`'s records.
    pub fn enqueue_wait(&self, chunk: RecordChunk, filter: ChunkFilterResult) -> EnqueueResult {
        Self::check_framing(&chunk, &filter);
        if chunk.is_empty() {
            return EnqueueResult::Enqueued {
                seq: self.inner.queue.accepted(),
                shard: 0,
            };
        }
        let shard = self.inner.route(self.inner.queue.accepted(), &chunk);
        let started = Instant::now();
        // Attempt under the shared gate; wait for capacity *outside*
        // it. Holding the gate while blocked would deadlock a pending
        // checkpoint in inline-drain mode (the checkpoint is the only
        // thing that would free capacity).
        let (mut chunk, mut filter) = (chunk, filter);
        let result = loop {
            let gate = self.inner.ingest_gate.read().expect("ingest gate");
            match self.inner.push_logged(shard, chunk, filter) {
                Ok(seq) => break EnqueueResult::Enqueued { seq, shard },
                Err(back) => (chunk, filter) = back,
            }
            drop(gate);
            if !self.inner.queue.wait_space() {
                break EnqueueResult::QueueFull {
                    capacity: self.inner.queue.capacity(),
                };
            }
        };
        let blocked = started.elapsed();
        self.inner.blocked_nanos.fetch_add(
            u64::try_from(blocked.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if let Some(t) = &self.inner.telemetry {
            t.enqueue_wait.record_duration(blocked);
        }
        result
    }

    /// Convenience: prefilter a raw chunk with the plan's own patterns
    /// and enqueue it (the "thin client" path; real edge clients run
    /// the prefilter themselves and call [`Service::enqueue`]).
    pub fn enqueue_raw(&self, chunk: RecordChunk) -> EnqueueResult {
        let filter = self.prefilter.run_chunk(&chunk);
        self.enqueue(chunk, filter)
    }

    /// Blocks until every queued chunk has been ingested. With
    /// `workers == 0` the calling thread drains the queue itself —
    /// the deterministic mode tests use.
    pub fn drain(&self) {
        if self.workers.is_empty() {
            while let Some(job) = self.inner.queue.try_pop() {
                self.inner.ingest(job);
            }
        }
        self.inner.queue.wait_idle();
    }

    /// Executes `SELECT COUNT(*) WHERE query`: the [`count_plan`]
    /// through the same execution as [`Service::query_sql`] — drain (a
    /// query answers over everything accepted before it), pin and
    /// prepare every shard, scan inline or hand off, merge. `elapsed`
    /// is the wall time this call measured from drain to merge,
    /// whichever way the shards ran. Unlike SQL text, the query's
    /// clauses are not checked against the schema: a key the schema
    /// lacks, or a value of another type, is false on every row.
    pub fn query(&self, query: &Query) -> QueryOutcome {
        self.query_via(query, None)
    }

    fn query_via(&self, query: &Query, forced: Option<Dispatch>) -> QueryOutcome {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(count_plan());
        let out = QueryOutcome::from_count(self.execute(query, &plan, forced, None));
        if let Some(t) = &self.inner.telemetry {
            t.query.record_duration(out.elapsed);
            t.events().push(
                names::EVENT_PLAN_EVAL,
                None,
                &[
                    ("covered", u64::from(out.profile.used_skipping())),
                    ("count", out.count as u64),
                    ("parsed", out.profile.parked_rows_parsed),
                ],
            );
        }
        out
    }

    /// The execution both query entry points go through: `plan`, its
    /// WHERE conjunction lowered once to `query`. Drains the queue;
    /// takes each shard's lock only long enough to seal its active
    /// epoch and pin the sealed ones; prepares every shard on this
    /// thread, which settles how many rows the statement will evaluate
    /// before one is read; then, unless `forced`, scans every shard
    /// here when that is at most [`INLINE_MAX_SURVIVING_ROWS`] (or
    /// there is one shard, or no worker), and otherwise scans shard 0
    /// here while the workers scan the rest. No thread is spawned
    /// either way. A hand-off cannot stall on busy workers: once its
    /// own shard is done this thread runs whatever scans no worker has
    /// started. The partials merge in shard order and finalize; the
    /// result's `elapsed` is this call's wall time.
    ///
    /// With a span tree, the dispatch and every shard's scan land under
    /// `span`, the scans timed against the tree's origin whichever lane
    /// ran them.
    fn execute(
        &self,
        query: &Query,
        plan: &Arc<PhysicalPlan>,
        forced: Option<Dispatch>,
        trace: Option<(&mut SpanTree, SpanId)>,
    ) -> QueryResult {
        let started = Instant::now();
        let origin = trace.as_ref().map_or(started, |(tree, _)| tree.origin());
        self.drain();
        let shards = &self.inner.shards;
        let prepared: Vec<(EpochPin, Prepared)> = shards
            .iter()
            .map(|shard| {
                let pin = shard.pin();
                let prepared = shard.prepare(&pin, query);
                (pin, prepared)
            })
            .collect();
        let surviving_rows: usize = prepared.iter().map(|(_, p)| p.surviving_rows()).sum();
        let inline = shards.len() == 1
            || self.workers.is_empty()
            || surviving_rows <= INLINE_MAX_SURVIVING_ROWS;
        let dispatch = forced.unwrap_or(if inline {
            Dispatch::Inline
        } else {
            Dispatch::Handoff
        });
        if let Some(t) = &self.inner.telemetry {
            match dispatch {
                Dispatch::Inline => t.query_inline.inc(),
                Dispatch::Handoff => t.query_handoff.inc(),
            }
        }
        let runs: Vec<ShardRun> = match dispatch {
            Dispatch::Inline => shards
                .iter()
                .zip(&prepared)
                .map(|(shard, (pin, prepared))| {
                    ShardRun::time(origin, 0, || shard.scan_plan(pin, prepared, plan))
                })
                .collect(),
            Dispatch::Handoff => {
                let (tx, rx) = mpsc::channel();
                let mut prepared = prepared.into_iter().enumerate();
                let (_, (own_pin, own_prepared)) = prepared.next().expect("at least one shard");
                for (i, (pin, prepared)) in prepared {
                    let (inner, plan, tx) = (Arc::clone(&self.inner), Arc::clone(plan), tx.clone());
                    let posted = Instant::now();
                    let job = ScanJob::new(move |lane| {
                        if let Some(t) = &inner.telemetry {
                            t.handoff_wait.record_duration(posted.elapsed());
                        }
                        let run = ShardRun::time(origin, lane, || {
                            inner.shards[i].scan_plan(&pin, &prepared, &plan)
                        });
                        // The statement's thread outlives its jobs
                        // unless it panicked; nobody is left to tell.
                        let _ = tx.send((i, run));
                    });
                    // A closed queue has no workers left: scan here.
                    if let Err(job) = self.inner.queue.push_scan(job) {
                        job.run(0);
                    }
                }
                drop(tx);
                let own = ShardRun::time(origin, 0, || {
                    shards[0].scan_plan(&own_pin, &own_prepared, plan)
                });
                while let Some(job) = self.inner.queue.try_pop_scan() {
                    job.run(0);
                }
                // `rx` ends when every job has sent its run (or died).
                let mut runs: Vec<(usize, ShardRun)> =
                    std::iter::once((0, own)).chain(rx).collect();
                assert_eq!(runs.len(), shards.len(), "a handed-off scan panicked");
                runs.sort_unstable_by_key(|(i, _)| *i);
                runs.into_iter().map(|(_, run)| run).collect()
            }
        };
        if let Some(t) = &self.inner.telemetry {
            for (i, run) in runs.iter().enumerate() {
                let p = &run.partial.profile;
                let permille = (p.blocks_pruned_zone * 1000)
                    .checked_div(p.blocks_total)
                    .unwrap_or(0);
                t.prune_rate[i].set(permille as i64);
            }
        }
        if let Some((tree, span)) = trace {
            tree.attr(span, "dispatch", dispatch.as_str());
            tree.attr(span, "surviving_rows", surviving_rows);
            for (i, run) in runs.iter().enumerate() {
                let shard_span = tree.add_complete(
                    Some(span),
                    &format!("shard{i}"),
                    run.lane,
                    run.start_ns,
                    run.dur_ns,
                );
                let profile = &run.partial.profile;
                tree.attr(shard_span, "blocks_pruned", profile.blocks_pruned_zone);
                tree.attr(shard_span, "rows_scanned", profile.rows_scanned);
                tree.attr(shard_span, "parked_parsed", profile.parked_rows_parsed);
                if profile.parked_rows_parsed > 0 {
                    let index = if run.partial.parked_index_builds > 0 {
                        "built"
                    } else {
                        "reused"
                    };
                    tree.attr(shard_span, "parked_index", index);
                }
            }
        }
        // Merge in shard order: group states and row batches combine
        // associatively, and finalize() re-sorts, so the answer is
        // independent of which shard finished first.
        let mut merged = PartialResult::empty(plan);
        for run in runs {
            merged.merge(run.partial);
        }
        let mut result = ciao_engine::finalize(plan, merged);
        result.elapsed = started.elapsed();
        result
    }

    /// Executes one SQL statement end to end: lex + parse, analyze
    /// against the service's schema, plan, then run the physical plan
    /// over a pinned epoch of every shard — on this thread when the
    /// skip-masks leave little to scan, on the workers otherwise — and
    /// merge the partials into one [`QueryResult`], bit-identical to
    /// running the same statement on a single shard holding all the
    /// records. The result's `elapsed` is the execute phase's
    /// measured wall time (drain to finalize). Covered `WHERE`
    /// clauses ride the same pushed-bitvector skip masks and zone maps
    /// as [`Service::query`], so aggregates over sealed blocks skip
    /// work exactly like counts do.
    ///
    /// `EXPLAIN <select>` returns the physical plan as a one-column
    /// (`plan:str`) result without executing anything; `EXPLAIN
    /// ANALYZE <select>` executes the statement and appends the live
    /// per-stage / per-clause profile annotations
    /// ([`QueryResult::analyze_lines`]) under the tree, carrying the
    /// real [`QueryResult::profile`] and [`QueryResult::elapsed`].
    ///
    /// While telemetry is on, every executed statement also records a
    /// span tree ([`Service::last_query_trace`]), folds its profile
    /// into the workload collector ([`Service::workload_stats`]), and
    /// lands in the slow-query log when it crosses the configured
    /// threshold ([`Service::slow_queries`]).
    ///
    /// Errors (with the offending source span) on any lex, parse, or
    /// analysis failure; [`SqlError::render`] turns one into a
    /// caret-annotated excerpt of `sql`.
    pub fn query_sql(&self, sql: &str) -> Result<QueryResult, SqlError> {
        self.query_sql_via(sql, None)
    }

    fn query_sql_via(&self, sql: &str, forced: Option<Dispatch>) -> Result<QueryResult, SqlError> {
        let mut trace = self
            .inner
            .telemetry
            .as_ref()
            .map(|_| SpanTree::new("query_sql"));

        let parse_started = Instant::now();
        let parse_span = trace.as_mut().map(|t| t.begin("parse"));
        let statement = ciao_sql::parse(sql)?;
        let parsed_in = parse_started.elapsed();
        if let (Some(t), Some(span)) = (trace.as_mut(), parse_span) {
            t.end(span);
        }

        let plan_started = Instant::now();
        let plan_span = trace.as_mut().map(|t| t.begin("plan"));
        let plan = Arc::new(ciao_sql::plan(&statement, &self.schema)?);
        let planned_in = plan_started.elapsed();
        if let (Some(t), Some(span)) = (trace.as_mut(), plan_span) {
            t.end(span);
        }

        // Plain EXPLAIN never executes: render the plan tree, record
        // the frontend stage latencies, and leave every
        // execution-side series (queries counter, sql_exec histogram,
        // workload stats) untouched.
        if let Statement::Explain { analyze: false, .. } = &statement {
            if let Some(t) = &self.inner.telemetry {
                t.sql_parse.record_duration(parsed_in);
                t.sql_plan.record_duration(planned_in);
            }
            self.store_trace(trace);
            return Ok(plan_text_result(ciao_sql::render_plan(&plan)));
        }

        let exec_span = trace.as_mut().map(|t| t.begin("execute"));
        let seq = self.inner.queries.fetch_add(1, Ordering::Relaxed) + 1;
        let query = plan_query(&plan);
        let traced = trace.as_mut().zip(exec_span);
        let result = self.execute(&query, &plan, forced, traced);
        let executed_in = result.elapsed;
        if let (Some(t), Some(span)) = (trace.as_mut(), exec_span) {
            t.end(span);
        }

        if let Some(t) = &self.inner.telemetry {
            t.sql_parse.record_duration(parsed_in);
            t.sql_plan.record_duration(planned_in);
            t.sql_exec.record_duration(executed_in);
            t.events().push(
                names::EVENT_SQL_QUERY,
                None,
                &[
                    ("rows", result.rows.len() as u64),
                    ("covered", u64::from(result.profile.used_skipping())),
                    ("pruned", result.profile.blocks_pruned_zone),
                ],
            );
            self.inner.workload.lock().observe(&result.profile);
            let slow = self.inner.slow_log.lock().observe(SlowQueryEntry {
                seq,
                sql: sql.to_owned(),
                elapsed: executed_in,
                rows_returned: result.rows.len(),
                rows_matched: result.profile.total_matched(),
            });
            if slow {
                t.slow_queries.inc();
            }
        }
        if let Some(tree) = trace.as_mut() {
            let root = tree.root();
            tree.attr(root, "sql", sql);
            tree.attr(root, "rows", result.rows.len());
            tree.attr(root, "matched", result.profile.total_matched());
        }
        self.store_trace(trace);

        match &statement {
            // EXPLAIN ANALYZE: the plan tree annotated with the live
            // profile, carrying the real profile and timing so callers
            // can reconcile the rendered numbers against them.
            Statement::Explain { .. } => {
                let mut lines = ciao_sql::render_plan(&plan);
                lines.extend(result.analyze_lines());
                let QueryResult { columns, rows, .. } = plan_text_result(lines);
                Ok(QueryResult {
                    columns,
                    rows,
                    ..result
                })
            }
            Statement::Select(_) => Ok(result),
        }
    }

    /// Finishes a statement's span tree (when one was recorded) and
    /// retains it as the most-recent trace.
    fn store_trace(&self, trace: Option<SpanTree>) {
        let Some(mut tree) = trace else { return };
        tree.finish();
        *self.inner.last_trace.lock() = Some(tree);
    }

    /// One background-maintenance tick: runs the configured compaction
    /// policy over every shard and returns the tick's fleet-wide delta.
    /// Call it from any cadence — a dedicated thread, an idle hook, or
    /// a test loop; ticks are cheap no-ops when nothing is eligible.
    pub fn compact(&self) -> CompactionStats {
        let mut delta = CompactionStats::default();
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let started = Instant::now();
            let tick = shard.compact(&self.config.compaction);
            if let Some(t) = &self.inner.telemetry {
                t.compaction_tick[i].record_duration(started.elapsed());
                // Idle ticks are frequent and carry no information, so
                // only real work enters the bounded trace ring.
                if tick.promoted > 0 || tick.unparseable > 0 {
                    t.events().push(
                        names::EVENT_COMPACTION_TICK,
                        Some(i),
                        &[
                            ("promoted", tick.promoted as u64),
                            ("unparseable", tick.unparseable as u64),
                        ],
                    );
                }
            }
            delta.merge(&tick);
        }
        delta
    }

    /// Commits a checkpoint: drains the queue, seals and pins every
    /// shard, writes one snapshot per shard plus the manifest,
    /// prunes old snapshot generations, and truncates WAL segments no
    /// retained generation still needs. Returns `None` when the
    /// service runs without storage.
    ///
    /// The snapshots' WAL ceiling is the accepted-seq high-water mark,
    /// read and drained under the exclusive ingest gate: producers are
    /// held off for the ceiling-read → drain → seal window, so every
    /// record a snapshot claims to cover has provably been applied and
    /// no concurrently-enqueued chunk can land both in a snapshot and
    /// above its ceiling (which would double-apply on recovery).
    /// Producers block briefly on [`Service::enqueue`] /
    /// [`Service::enqueue_wait`] while a checkpoint commits — the
    /// quiescence the recovery protocol needs is enforced here, not
    /// assumed. Readers do not: the snapshots stream from pinned
    /// epochs, so no shard lock is held while the files are written
    /// and a statement issued mid-checkpoint runs at once.
    ///
    /// Panics on a storage write failure, like the WAL append path.
    pub fn checkpoint(&self) -> Option<CheckpointStats> {
        let storage = self.inner.storage.as_ref()?;
        let started = Instant::now();
        let _gate = self.inner.ingest_gate.write().expect("ingest gate");
        let ceiling = self.inner.queue.accepted();
        self.drain();
        // The snapshots are borrowed views of the pinned epochs,
        // streamed to disk without cloning a block or a parked record
        // and without holding a shard's lock.
        let pins: Vec<EpochPin> = self.inner.shards.iter().map(Shard::pin).collect();
        let blocks: Vec<Vec<&[Block]>> = pins.iter().map(EpochPin::block_fragments).collect();
        let parked: Vec<Vec<&[SharedRecord]>> =
            pins.iter().map(EpochPin::parked_fragments).collect();
        let snapshots: Vec<_> = pins
            .iter()
            .enumerate()
            .map(|(i, pin)| SnapshotView {
                shard: i as u32,
                sealed_epochs: pin.sealed_epochs() as u64,
                ceiling,
                stats: pin.stats(),
                schema: pin.schema(),
                blocks: &blocks[i],
                parked: &parked[i],
            })
            .collect();
        let stats = storage
            .lock()
            .checkpoint(&snapshots)
            .expect("checkpoint commit failed");
        self.inner
            .snapshots_written
            .fetch_add(stats.snapshots_written as u64, Ordering::Relaxed);
        if let Some(t) = &self.inner.telemetry {
            t.checkpoint.record_duration(started.elapsed());
            t.snapshots_written.add(stats.snapshots_written as u64);
            t.events().push(
                names::EVENT_CHECKPOINT,
                None,
                &[
                    ("snapshots", stats.snapshots_written as u64),
                    ("floor", stats.floor),
                    ("segments_deleted", stats.segments_deleted as u64),
                ],
            );
        }
        Some(stats)
    }

    /// Durability counters, `None` for an in-memory service.
    pub fn durability(&self) -> Option<DurabilityStatus> {
        let storage = self.inner.storage.as_ref()?;
        let store = storage.lock();
        Some(DurabilityStatus {
            wal_appends: store.wal_appends(),
            wal_syncs: store.wal_syncs(),
            wal_segments: store.wal_segments(),
            wal_replayed: self.wal_replayed,
            snapshots_written: self.inner.snapshots_written.load(Ordering::Relaxed),
        })
    }

    /// What recovery worked around when this service started; `None`
    /// without storage, empty notes for a clean start.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery_report.as_ref()
    }

    /// The service's telemetry bundle, `None` when started with
    /// [`ServiceConfig::with_telemetry`]`(false)`.
    pub fn telemetry(&self) -> Option<&ServiceTelemetry> {
        self.inner.telemetry.as_deref()
    }

    /// A point-in-time snapshot of every telemetry series and the
    /// trace-event ring (queue depth gauge refreshed first). `None`
    /// when telemetry is off.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let t = self.inner.telemetry.as_ref()?;
        t.registry()
            .gauge(names::QUEUE_DEPTH)
            .set(self.inner.queue.depth() as i64);
        Some(t.snapshot())
    }

    /// Per-clause workload statistics (frequency/selectivity EWMAs)
    /// aggregated from every executed SQL statement's profile — the
    /// observed-workload input a future re-optimization pass compares
    /// against the pushdown plan's assumed workload. Empty when
    /// telemetry is off.
    pub fn workload_stats(&self) -> WorkloadStats {
        self.inner.workload.lock().clone()
    }

    /// The slow-query log's retained window, oldest first. Empty when
    /// telemetry is off or nothing crossed
    /// [`ServiceConfig::slow_query_threshold`].
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.inner.slow_log.lock().snapshot()
    }

    /// The span tree recorded for the most recent SQL statement
    /// (parse/plan/execute stages, per-shard child spans on their own
    /// tracks). A shard span that read parked rows says whether its scan
    /// built an epoch's positional map (`parked_index=built`) or read
    /// through maps built before (`parked_index=reused`). `None` before
    /// any statement or with telemetry off.
    /// Export with [`SpanTree::to_chrome_trace`].
    pub fn last_query_trace(&self) -> Option<SpanTree> {
        self.inner.last_trace.lock().clone()
    }

    /// A point-in-time observability snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            queue_depth: self.inner.queue.depth(),
            queue_capacity: self.inner.queue.capacity(),
            accepted_chunks: self.inner.queue.accepted(),
            rejected_chunks: self.inner.rejected.load(Ordering::Relaxed),
            ingested_chunks: self.inner.ingested_chunks.load(Ordering::Relaxed),
            ingested_records: self.inner.ingested_records.load(Ordering::Relaxed),
            queries: self.inner.queries.load(Ordering::Relaxed),
            slow_queries: self.inner.slow_log.lock().total(),
            blocked: Duration::from_nanos(self.inner.blocked_nanos.load(Ordering::Relaxed)),
            shards: self.inner.shards.iter().map(Shard::snapshot).collect(),
        }
    }

    /// Graceful shutdown: drain the queue, commit a final checkpoint
    /// (when storage is on, so a clean restart replays no WAL at all),
    /// close the queue, join every worker, and return the final
    /// metrics snapshot.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.drain();
        self.checkpoint();
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("ingest worker panicked");
        }
        self.metrics()
    }
}

impl Drop for Service {
    /// Dropping without [`Service::shutdown`] still joins workers
    /// (pending queued chunks are ingested first — close() lets the
    /// backlog drain before workers exit).
    fn drop(&mut self) {
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Best-effort flush of an EveryN/Never WAL tail — a clean exit
        // should not lose acked chunks a crash would have kept only by
        // luck of the page cache.
        if let Some(storage) = &self.inner.storage {
            let _ = storage.lock().sync();
        }
    }
}

#[cfg(test)]
#[path = "dispatch_tests.rs"]
mod dispatch_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_optimizer::CostModel;
    use ciao_predicate::parse_query;
    use ciao_telemetry::AttrValue;

    fn plan_and_schema(budget: f64) -> (PushdownPlan, Arc<Schema>, RecordChunk) {
        let raw: Vec<String> = (0..400)
            .map(|i| format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i))
            .collect();
        let sample: Vec<_> = raw
            .iter()
            .take(100)
            .map(|r| ciao_json::parse(r).unwrap())
            .collect();
        let queries = vec![parse_query("q0", "stars = 5").unwrap()];
        let plan = PushdownPlan::build(
            &queries,
            &sample,
            &CostModel::default_uncalibrated(),
            budget,
        )
        .unwrap();
        let schema = Arc::new(Schema::infer(&sample).unwrap());
        let all = RecordChunk::from_records(&raw).unwrap();
        (plan, schema, all)
    }

    #[test]
    fn ingest_query_roundtrip_with_workers() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(3).with_workers(3),
        );
        for chunk in all.split(64) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        let out = service.query(&parse_query("q", "stars = 5").unwrap());
        assert_eq!(out.count, 80);
        assert!(out.profile.used_skipping());
        let m = service.shutdown();
        assert_eq!(m.ingested_records, 400);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.queries, 1);
        assert_eq!(m.load().total(), 400);
    }

    #[test]
    fn inline_drain_mode_and_backpressure() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(2)
                .with_workers(0)
                .with_queue_capacity(2),
        );
        let chunks = all.split(100);
        assert_eq!(chunks.len(), 4);
        assert!(service.enqueue_raw(chunks[0].clone()).is_enqueued());
        assert!(service.enqueue_raw(chunks[1].clone()).is_enqueued());
        assert_eq!(
            service.enqueue_raw(chunks[2].clone()),
            EnqueueResult::QueueFull { capacity: 2 }
        );
        assert_eq!(service.metrics().rejected_chunks, 1);
        service.drain();
        assert!(service.enqueue_raw(chunks[2].clone()).is_enqueued());
        assert!(service.enqueue_raw(chunks[3].clone()).is_enqueued());
        let out = service.query(&parse_query("q", "stars = 2").unwrap());
        assert_eq!(out.count, 80);
        let m = service.shutdown();
        assert_eq!(m.rejected_chunks, 1);
        assert_eq!(m.ingested_chunks, 4);
    }

    #[test]
    fn round_robin_routing_spreads_chunks() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(4).with_workers(0),
        );
        for chunk in all.split(50) {
            let _ = service.enqueue_raw(chunk);
        }
        service.drain();
        let m = service.metrics();
        for s in &m.shards {
            assert_eq!(s.load.total(), 100, "8 chunks over 4 shards, 2 each");
        }
        drop(service);
    }

    #[test]
    fn hash_routing_is_deterministic() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let route = |svc: &Service| -> Vec<usize> {
            all.split(32)
                .into_iter()
                .map(|c| svc.inner.route(0, &c))
                .collect()
        };
        let cfg = ServiceConfig::default()
            .with_shards(4)
            .with_workers(0)
            .with_routing(Routing::Hash);
        let a = Service::start(plan.clone(), Arc::clone(&schema), cfg.clone());
        let b = Service::start(plan, schema, cfg);
        assert_eq!(route(&a), route(&b));
        assert!(route(&a).iter().any(|&s| s != route(&a)[0]), "spreads");
    }

    #[test]
    fn compaction_tick_reduces_parked() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(2).with_workers(2),
        );
        let pf = service.prefilter();
        for chunk in all.split(64) {
            let filter = pf.run_chunk(&chunk);
            assert!(service.enqueue_wait(chunk, filter).is_enqueued());
        }
        service.drain();
        let before = service.metrics();
        assert!(before.parked() > 0);
        let delta = service.compact();
        assert!(delta.promoted > 0);
        let after = service.metrics();
        assert!(after.parked_ratio() < before.parked_ratio());
        service.shutdown();
    }

    #[test]
    fn telemetry_observes_the_full_hot_path() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(2).with_workers(0),
        );
        let chunks = all.split(64);
        let n_chunks = chunks.len() as u64;
        for chunk in chunks {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        service.query(&parse_query("q", "stars = 5").unwrap());
        service.query(&parse_query("q", "stars = 2").unwrap());
        service.compact();

        let t = service.telemetry().expect("telemetry on by default");
        assert_eq!(t.ingest_ack_merged().count(), n_chunks);
        assert!(t.ingest_ack_merged().max() > 0, "ack latency was measured");
        assert_eq!(t.query.count(), 2);
        assert_eq!(t.compaction_tick_merged().count(), 2, "one tick per shard");

        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(
            snap.counter(names::EPOCHS_SEALED_TOTAL),
            Some(service.metrics().sealed_epochs() as u64)
        );
        assert_eq!(snap.gauge(names::QUEUE_DEPTH), Some(0));
        // Both statements were small and there is no worker: scanned
        // on the caller's thread, nothing handed off.
        assert_eq!(snap.counter(names::QUERY_INLINE_TOTAL), Some(2));
        assert_eq!(snap.counter(names::QUERY_HANDOFF_TOTAL), Some(0));
        assert_eq!(t.handoff_wait.count(), 0);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&names::EVENT_EPOCH_SEAL));
        assert!(kinds.contains(&names::EVENT_PLAN_EVAL));
        assert!(kinds.contains(&names::EVENT_COMPACTION_TICK));
        // The exposition formats render without panicking and carry
        // the service's series.
        for name in [names::QUERY_NS, names::QUERY_HANDOFF_WAIT_NS] {
            assert!(snap.prometheus_text().contains(name), "{name}");
            assert!(snap.to_json().contains(name), "{name}");
        }
        service.shutdown();
    }

    #[test]
    fn telemetry_observes_the_durable_path() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let dir = ciao_storage::ScratchDir::new("svc-telemetry");
        let storage = ciao_storage::StorageConfig::new(dir.path())
            .with_sync(ciao_storage::SyncPolicy::EveryN(2));
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(2)
                .with_workers(0)
                .with_storage(storage),
        );
        let chunks = all.split(50); // 8 chunks → 4 policy fsyncs
        let n_chunks = chunks.len() as u64;
        for chunk in chunks {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        service.checkpoint().expect("storage is on");

        let t = service.telemetry().expect("telemetry on by default");
        assert_eq!(t.wal_append.count(), n_chunks, "one sample per append");
        assert!(t.wal_append.max() > 0, "append cost was measured");
        assert_eq!(t.wal_sync.count(), n_chunks / 2, "one sample per fsync");
        assert!(t.wal_sync.max() > 0);
        assert_eq!(t.checkpoint.count(), 1);
        assert!(t.checkpoint.max() > 0);

        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter(names::WAL_APPENDS_TOTAL), Some(n_chunks));
        for name in [
            names::WAL_APPEND_NS,
            names::WAL_SYNC_NS,
            names::CHECKPOINT_NS,
        ] {
            assert!(snap.prometheus_text().contains(name), "{name}");
            assert!(snap.to_json().contains(name), "{name}");
        }
        service.shutdown();
    }

    #[test]
    fn telemetry_can_be_disabled() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_workers(0)
                .with_telemetry(false),
        );
        for chunk in all.split(100) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        assert!(service.telemetry().is_none());
        assert!(service.telemetry_snapshot().is_none());
        let out = service.query(&parse_query("q", "stars = 5").unwrap());
        assert_eq!(out.count, 80, "answers are identical without telemetry");
    }

    #[test]
    fn queue_full_raises_counter_and_trace_event() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_workers(0)
                .with_queue_capacity(1),
        );
        let chunks = all.split(200);
        assert!(service.enqueue_raw(chunks[0].clone()).is_enqueued());
        assert!(!service.enqueue_raw(chunks[1].clone()).is_enqueued());
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter(names::QUEUE_FULL_TOTAL), Some(1));
        let event = snap
            .events
            .iter()
            .find(|e| e.kind == names::EVENT_QUEUE_FULL)
            .expect("backpressure leaves a trace event");
        assert_eq!(event.fields, vec![("capacity", 1)]);
        service.drain();
        service.shutdown();
    }

    #[test]
    fn enqueue_wait_blocked_time_is_accounted() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Arc::new(Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(1)
                .with_workers(0)
                .with_queue_capacity(1),
        ));
        let chunks = all.split(200);
        assert!(service.enqueue_raw(chunks[0].clone()).is_enqueued());
        assert_eq!(service.metrics().blocked, std::time::Duration::ZERO);

        // A producer blocks on the full queue until the main thread
        // drains it ~30ms later; that wait must surface as blocked time.
        let svc = Arc::clone(&service);
        let chunk = chunks[1].clone();
        let producer = std::thread::spawn(move || {
            let filter = svc.prefilter().run_chunk(&chunk);
            svc.enqueue_wait(chunk, filter)
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        service.drain();
        assert!(producer.join().unwrap().is_enqueued());

        let blocked = service.metrics().blocked;
        assert!(
            blocked >= std::time::Duration::from_millis(20),
            "blocked for ~30ms but recorded {blocked:?}"
        );
        let t = service.telemetry().unwrap();
        assert_eq!(t.enqueue_wait.count(), 1);
        assert!(t.enqueue_wait.max() >= 20_000_000);
    }

    #[test]
    #[should_panic(expected = "filter result covers")]
    fn desynced_filter_rejected_at_enqueue() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(plan, schema, ServiceConfig::default().with_workers(0));
        let chunks = all.split(100);
        // Filter computed over the wrong chunk: must panic in the
        // producer, never inside a worker.
        let filter = service.prefilter().run_chunk(&chunks[0]);
        let _ = service.enqueue(all, filter);
    }

    #[test]
    fn parked_records_come_back_from_a_checkpoint_in_order() {
        let (plan, schema, _) = plan_and_schema(10.0);
        // None has `stars = 5`, so all are parked: ordinary records,
        // whitespace-only and empty ones, and ones ending in `\r`.
        let records = [
            r#"{"stars":1,"name":"a"}"#,
            "   ",
            "",
            "\t",
            "{\"stars\":2,\"name\":\"b\"}\r",
            "not json\r\r",
            r#"{"stars":3,"name":"é"}"#,
        ];
        let dir = ciao_storage::ScratchDir::new("svc-parked");
        let start = || {
            let cfg = ServiceConfig::default()
                .with_shards(1)
                .with_workers(0)
                .with_storage(ciao_storage::StorageConfig::new(dir.path()));
            Service::try_start(plan.clone(), Arc::clone(&schema), cfg).unwrap()
        };
        let parked = |service: &Service| -> Vec<String> {
            let pin = service.inner.shards[0].pin();
            let fragments = pin.parked_fragments();
            fragments
                .iter()
                .flat_map(|f| f.iter())
                .map(|r| r.as_str().to_owned())
                .collect()
        };

        let service = start();
        let chunk = RecordChunk::from_records(&records).unwrap();
        assert!(service.enqueue_raw(chunk).is_enqueued());
        service.checkpoint().unwrap();
        assert_eq!(parked(&service), records);
        drop(service);

        // Recovery reads the PARKED page back as one chunk, framed as
        // `str::lines` frames it: blank records survive, and a record
        // ending in `\r` loses one `\r`, as it always has.
        let service = start();
        assert_eq!(service.durability().unwrap().wal_replayed, 0);
        let page: String = records.iter().map(|r| format!("{r}\n")).collect();
        assert_eq!(parked(&service), page.lines().collect::<Vec<_>>());
        assert_eq!(parked(&service)[1..4], records[1..4]);
        assert_eq!(parked(&service)[4], records[4].trim_end_matches('\r'));
        assert_eq!(parked(&service)[5], "not json\r");
        assert_eq!(service.metrics().parked(), records.len());
    }

    #[test]
    fn durable_service_restarts_from_checkpoint_and_wal() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let dir = ciao_storage::ScratchDir::new("svc");
        let storage = || ciao_storage::StorageConfig::new(dir.path());
        let cfg = || {
            ServiceConfig::default()
                .with_shards(2)
                .with_workers(0)
                .with_storage(storage())
        };
        let q = parse_query("q", "stars = 5").unwrap();
        let chunks = all.split(50); // 8 chunks

        // Life 1: ingest 4 chunks, checkpoint, ingest 2 more (WAL
        // tail), then drop WITHOUT shutdown — the tail must survive.
        {
            let service = Service::start(plan.clone(), Arc::clone(&schema), cfg());
            assert!(service.recovery_report().unwrap().clean());
            for chunk in &chunks[..4] {
                assert!(service.enqueue_raw(chunk.clone()).is_enqueued());
            }
            let stats = service.checkpoint().unwrap();
            assert_eq!(stats.snapshots_written, 2);
            for chunk in &chunks[4..6] {
                assert!(service.enqueue_raw(chunk.clone()).is_enqueued());
            }
            service.drain();
            let d = service.durability().unwrap();
            assert_eq!(d.wal_appends, 6);
            assert_eq!(d.snapshots_written, 2);
            drop(service);
        }

        // Life 2: recovery = snapshot + 2-chunk WAL replay; answers
        // and load totals match a crash-free service over 6 chunks.
        {
            let service = Service::start(plan.clone(), Arc::clone(&schema), cfg());
            let d = service.durability().unwrap();
            assert_eq!(d.wal_replayed, 2);
            assert!(service.recovery_report().unwrap().clean());
            assert_eq!(service.query(&q).count, 60, "6 × 50 records, 1/5 match");
            assert_eq!(service.metrics().load().total(), 300);
            // Seq line resumed: new chunks extend, not overwrite.
            for chunk in &chunks[6..] {
                assert!(service.enqueue_raw(chunk.clone()).is_enqueued());
            }
            assert_eq!(service.query(&q).count, 80);
            service.shutdown(); // final checkpoint
        }

        // Life 3: clean shutdown left no WAL tail to replay.
        {
            let service = Service::start(plan, schema, cfg());
            assert_eq!(service.durability().unwrap().wal_replayed, 0);
            assert_eq!(service.query(&q).count, 80);
            service.shutdown();
        }
    }

    #[test]
    fn concurrent_checkpoints_never_double_apply_or_lose_chunks() {
        // Producers race checkpoints on purpose: the ingest gate must
        // make every chunk land either fully inside a snapshot or
        // fully above its ceiling. A double-applied chunk shows up as
        // an inflated count after restart; a lost one as a deflated
        // count.
        let (plan, schema, all) = plan_and_schema(10.0);
        let dir = ciao_storage::ScratchDir::new("svc-race");
        let storage = || ciao_storage::StorageConfig::new(dir.path());
        let q = parse_query("q", "stars = 5").unwrap();
        let chunks = all.split(10); // 40 chunks × 10 records
        {
            let service = Service::start(
                plan.clone(),
                Arc::clone(&schema),
                ServiceConfig::default()
                    .with_shards(2)
                    .with_workers(2)
                    .with_queue_capacity(4)
                    .with_storage(storage()),
            );
            let pf = service.prefilter();
            std::thread::scope(|scope| {
                for producer in chunks.chunks(10) {
                    let (service, pf) = (&service, &pf);
                    scope.spawn(move || {
                        for chunk in producer {
                            let filter = pf.run_chunk(chunk);
                            assert!(service.enqueue_wait(chunk.clone(), filter).is_enqueued());
                        }
                    });
                }
                // Checkpoint continuously while producers run.
                scope.spawn(|| {
                    for _ in 0..8 {
                        service.checkpoint();
                        std::thread::yield_now();
                    }
                });
            });
            assert_eq!(service.query(&q).count, 80);
            drop(service); // unclean exit: recovery must reconstruct
        }
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(2)
                .with_workers(0)
                .with_storage(storage()),
        );
        assert_eq!(service.metrics().accepted_chunks, 40);
        assert_eq!(service.query(&q).count, 80, "exactly-once across restart");
        assert_eq!(service.metrics().load().total(), 400);
        service.shutdown();
    }

    #[test]
    fn shard_count_mismatch_surfaces_via_try_start() {
        let (plan, schema, _) = plan_and_schema(10.0);
        let dir = ciao_storage::ScratchDir::new("svc");
        let storage = || ciao_storage::StorageConfig::new(dir.path());
        let cfg = |shards| {
            ServiceConfig::default()
                .with_shards(shards)
                .with_workers(0)
                .with_storage(storage())
        };
        Service::start(plan.clone(), Arc::clone(&schema), cfg(2)).shutdown();
        let err = Service::try_start(plan, schema, cfg(3)).unwrap_err();
        assert!(matches!(err, StorageError::ShardCountMismatch { .. }));
    }

    #[test]
    fn in_memory_service_reports_no_durability() {
        let (plan, schema, _) = plan_and_schema(10.0);
        let service = Service::start(plan, schema, ServiceConfig::default().with_workers(0));
        assert!(service.durability().is_none());
        assert!(service.recovery_report().is_none());
        assert!(service.checkpoint().is_none());
    }

    #[test]
    fn sql_query_matches_count_query_and_records_telemetry() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(3).with_workers(0),
        );
        for chunk in all.split(64) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        let count = service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        assert_eq!(count.rows, vec![vec![ciao_sql::SqlValue::Int(80)]]);
        assert!(count.profile.used_skipping(), "stars = 5 is pushed");

        // Grouped aggregate over all shards: every stars bucket holds
        // 80 records, keys come back in order.
        let grouped = service
            .query_sql("SELECT stars, COUNT(*) AS n FROM reviews GROUP BY stars ORDER BY stars")
            .unwrap();
        assert_eq!(grouped.columns.len(), 2);
        assert_eq!(grouped.columns[1].name, "n");
        assert_eq!(grouped.rows.len(), 5);
        for (i, row) in grouped.rows.iter().enumerate() {
            assert_eq!(
                row,
                &vec![
                    ciao_sql::SqlValue::Int(i as i64 + 1),
                    ciao_sql::SqlValue::Int(80)
                ]
            );
        }

        // Per-stage latency histograms and the trace event are live.
        let snap = service.telemetry_snapshot().unwrap();
        for name in [names::SQL_PARSE_NS, names::SQL_PLAN_NS, names::SQL_EXEC_NS] {
            let (_, h) = snap
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"));
            assert_eq!(h.count, 2, "{name} records once per statement");
        }
        assert!(snap.events.iter().any(|e| e.kind == names::EVENT_SQL_QUERY));
        assert_eq!(service.metrics().queries, 2);
        service.shutdown();
    }

    #[test]
    fn explain_renders_without_executing_and_analyze_executes() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(3).with_workers(0),
        );
        for chunk in all.split(64) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        service.drain();

        let lines = |r: &QueryResult| -> Vec<String> {
            assert_eq!(r.columns.len(), 1);
            assert_eq!(r.columns[0].name, "plan");
            r.rows
                .iter()
                .map(|row| match &row[0] {
                    SqlValue::Str(s) => s.clone(),
                    other => panic!("plan rows are strings, got {other:?}"),
                })
                .collect()
        };

        // Plain EXPLAIN: a plan tree, nothing executed.
        let explained = service
            .query_sql("EXPLAIN SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        let tree = lines(&explained);
        assert!(tree[0].starts_with("HashAggregate"), "{tree:?}");
        assert!(tree.iter().any(|l| l.contains("Filter: stars = 5")));
        assert!(!tree.iter().any(|l| l.contains("-- analyze --")));
        assert_eq!(service.metrics().queries, 0, "EXPLAIN does not execute");
        let t = service.telemetry().unwrap();
        assert_eq!(t.sql_parse.count(), 1);
        assert_eq!(t.sql_exec.count(), 0);

        // EXPLAIN ANALYZE: same tree plus live annotations, and the
        // carried profile is the real execution's.
        let analyzed = service
            .query_sql("EXPLAIN ANALYZE SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        let annotated = lines(&analyzed);
        assert_eq!(&annotated[..tree.len()], &tree[..], "tree prefix matches");
        assert!(annotated.contains(&"-- analyze --".to_owned()));
        assert!(annotated.contains(&"rows matched: 80".to_owned()));
        let p = &analyzed.profile;
        let rows: usize = service.metrics().shards.iter().map(|s| s.rows).sum();
        assert_eq!(
            p.rows_scanned + p.rows_skipped_zone + p.rows_skipped_mask,
            rows as u64
        );
        assert_eq!(p.parked_rows_parsed, 0, "stars = 5 is pushed");
        assert_eq!(p.total_matched(), 80);
        assert!(analyzed.elapsed > Duration::ZERO);
        assert_eq!(service.metrics().queries, 1, "ANALYZE executes once");
        assert_eq!(t.sql_exec.count(), 1);
        service.shutdown();
    }

    #[test]
    fn profiler_feeds_workload_stats_slow_log_and_trace() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(2)
                .with_workers(0)
                .with_slow_query_threshold(Duration::ZERO),
        );
        for chunk in all.split(64) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 2")
            .unwrap();

        let w = service.workload_stats();
        assert_eq!(w.queries, 3);
        // The pushed clause: its skip mask removes non-matching rows
        // before clause evaluation, so observed selectivity is
        // conditionally 1 — the profiler reports what was evaluated,
        // not the raw data distribution.
        let c5 = w.clause("stars = 5").expect("clause tracked");
        assert_eq!(c5.queries_seen, 2);
        assert!(c5.pushed);
        assert_eq!(c5.selectivity_ewma, Some(1.0));
        // Seeded at 1.0, present again (stays 1.0), then absent once:
        // one default-alpha (0.2) step toward 0.
        assert!((c5.frequency_ewma - 0.8).abs() < 1e-9);
        // The unpushed clause falls back to scanning: zone maps prune
        // the loaded blocks (all stars = 5), so it is evaluated on the
        // 320 parked rows, of which 80 match — observed selectivity is
        // the ground truth over what actually ran.
        let c2 = w.clause("stars = 2").expect("clause tracked");
        assert!(!c2.pushed);
        let sel = c2.selectivity_ewma.unwrap();
        assert!(
            (sel - 0.25).abs() < 1e-9,
            "80 of 320 parked match, got {sel}"
        );

        // A zero threshold logs every executed statement.
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 3);
        assert_eq!(slow[0].seq, 1);
        assert_eq!(slow[2].rows_matched, 80);
        assert_eq!(service.metrics().slow_queries, 3);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter(names::SLOW_QUERIES_TOTAL), Some(3));
        // Per-shard prune gauges were refreshed by the last scan.
        assert!(snap
            .gauges
            .iter()
            .any(|(name, _)| name.starts_with(names::SHARD_PRUNE_PERMILLE)));

        // The last statement left a full span tree.
        let trace = service.last_query_trace().expect("trace recorded");
        let spans: Vec<&str> = trace.spans().iter().map(|s| s.name()).collect();
        assert_eq!(&spans[..4], &["query_sql", "parse", "plan", "execute"]);
        assert!(spans.contains(&"shard0") && spans.contains(&"shard1"));
        assert!(trace.spans()[0].dur_ns() > 0, "finish() closed the root");
        assert!(trace.to_chrome_trace().contains("\"traceEvents\""));
        service.shutdown();
    }

    #[test]
    fn each_epoch_builds_its_parked_map_once_and_the_trace_says_which_scan_did() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default().with_shards(2).with_workers(0),
        );
        for chunk in all.split(100) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        let parked_index = |trace: &SpanTree| -> Vec<AttrValue> {
            trace
                .spans()
                .iter()
                .filter(|s| s.name().starts_with("shard"))
                .filter_map(|s| s.attrs().iter().find(|(k, _)| *k == "parked_index"))
                .map(|(_, v)| v.clone())
                .collect()
        };
        let builds = || {
            service
                .telemetry_snapshot()
                .unwrap()
                .counter(names::PARKED_INDEX_BUILDS_TOTAL)
        };
        // A covered statement reads no parked row and builds nothing.
        service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        assert_eq!(builds(), Some(0));
        assert!(parked_index(&service.last_query_trace().unwrap()).is_empty());
        assert_eq!(service.metrics().shards[0].parked_index_bytes, 0);

        // Two uncovered statements: the first maps each shard's one
        // epoch, the second reads through the maps.
        let built = AttrValue::from("built");
        let reused = AttrValue::from("reused");
        for (sql, count, attr) in [
            ("SELECT COUNT(*) FROM reviews WHERE stars = 2", 80, &built),
            (
                r#"SELECT COUNT(*) FROM reviews WHERE name = "u7""#,
                1,
                &reused,
            ),
        ] {
            let result = service.query_sql(sql).unwrap();
            assert_eq!(result.rows, vec![vec![SqlValue::Int(count)]], "{sql}");
            let trace = service.last_query_trace().unwrap();
            assert_eq!(parked_index(&trace), [attr.clone(), attr.clone()], "{sql}");
        }
        assert_eq!(builds(), Some(2), "one build per epoch");
        assert!(service
            .metrics()
            .shards
            .iter()
            .all(|s| s.parked > 0 && s.parked_index_bytes > 0));
        service.shutdown();
    }

    #[test]
    fn profiler_surfaces_are_inert_with_telemetry_off() {
        let (plan, schema, all) = plan_and_schema(10.0);
        let service = Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_workers(0)
                .with_telemetry(false)
                .with_slow_query_threshold(Duration::ZERO),
        );
        for chunk in all.split(100) {
            assert!(service.enqueue_raw(chunk).is_enqueued());
        }
        let result = service
            .query_sql("SELECT COUNT(*) FROM reviews WHERE stars = 5")
            .unwrap();
        assert_eq!(result.rows, vec![vec![SqlValue::Int(80)]]);
        assert!(service.last_query_trace().is_none());
        assert_eq!(service.workload_stats().queries, 0);
        assert!(service.slow_queries().is_empty());
        assert_eq!(service.metrics().slow_queries, 0);
        // EXPLAIN still renders — the profiler gates recording, not
        // the statement forms.
        let explained = service
            .query_sql("EXPLAIN SELECT COUNT(*) FROM reviews")
            .unwrap();
        assert!(!explained.rows.is_empty());
    }

    #[test]
    fn sql_errors_surface_with_spans_not_panics() {
        let (plan, schema, _) = plan_and_schema(10.0);
        let service = Service::start(plan, schema, ServiceConfig::default().with_workers(0));
        let err = service.query_sql("SELECT nope FROM reviews").unwrap_err();
        assert!(err.to_string().contains("unknown column `nope`"));
        let err = service.query_sql("SELECT").unwrap_err();
        assert!(err.render("SELECT").contains('^'));
    }

    #[test]
    fn empty_chunk_is_accepted_and_dropped() {
        let (plan, schema, _) = plan_and_schema(10.0);
        let service = Service::start(plan, schema, ServiceConfig::default().with_workers(0));
        let empty = RecordChunk::from_ndjson("");
        assert!(service.enqueue_raw(empty).is_enqueued());
        service.drain();
        assert_eq!(service.metrics().ingested_chunks, 0);
    }
}
