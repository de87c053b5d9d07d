//! Beyond the paper: throughput scaling of the sharded service.
//!
//! The paper's server loop is single-threaded; `ciao_service` shards
//! it. This experiment measures ingest throughput and query latency at
//! 1/2/4/8 shards against one shard driven on one thread, on the same
//! prefiltered chunk stream, and checks that every configuration
//! returns the baseline's counts. Client prefiltering is done **before
//! the clock starts** — the paper already measures that stage; here we
//! isolate what sharding buys the server side.

use super::datasets::ExperimentScale;
use ciao::PushdownPlan;
use ciao_client::ChunkFilterResult;
use ciao_columnar::Schema;
use ciao_datagen::Dataset;
use ciao_json::RecordChunk;
use ciao_predicate::{parse_query, Query};
use ciao_service::{Service, ServiceConfig, Shard};
use ciao_telemetry::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// How many times the query workload is replayed per configuration so
/// the latency quantiles have more than one sample per query.
pub const QUERY_REPEATS: usize = 5;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Human label ("server (single thread)" or "service ×N").
    pub label: String,
    /// Shard count (1 for the baseline server).
    pub shards: usize,
    /// Wall-clock seconds to ingest every chunk.
    pub ingest_s: f64,
    /// Records ingested per second.
    pub records_per_s: f64,
    /// Ingest speedup over the baseline row.
    pub speedup: f64,
    /// Mean per-query latency (ms) over the workload.
    pub query_ms: f64,
    /// p50 ingest-ack latency (µs): enqueue → ingested for the
    /// service, per-chunk synchronous ingest for the baseline.
    pub ingest_ack_p50_us: f64,
    /// p99 of the same distribution (µs).
    pub ingest_ack_p99_us: f64,
    /// p50 per-query latency (µs) over the replayed workload.
    pub query_p50_us: f64,
    /// p99 per-query latency (µs).
    pub query_p99_us: f64,
    /// Producer blocked time in `enqueue_wait` (ms; 0 for baseline).
    pub blocked_ms: f64,
    /// Chunks rejected with `QueueFull` (0 under `enqueue_wait`).
    pub rejected: u64,
    /// Whether every query count matched the baseline.
    pub counts_ok: bool,
    /// Records per shard (single entry for the baseline).
    pub shard_records: Vec<usize>,
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// The environment both sides share: plan, schema, prefiltered chunks.
pub struct ServiceEnv {
    plan: PushdownPlan,
    schema: Arc<Schema>,
    chunks: Vec<(RecordChunk, ChunkFilterResult)>,
    queries: Vec<Query>,
    records: usize,
}

impl ServiceEnv {
    /// Builds the YCSB environment at the given scale.
    pub fn new(scale: ExperimentScale) -> ServiceEnv {
        let records = Dataset::Ycsb.generate(11, scale.sample);
        let ndjson = Dataset::Ycsb.generate_ndjson(12, scale.records);
        let queries = vec![
            parse_query("q0", "isActive = true").unwrap(),
            parse_query("q1", r#"age_group = "senior" AND isActive = true"#).unwrap(),
            parse_query("q2", r#"phone_country = "+44""#).unwrap(),
            parse_query("q3", "linear_score = 42").unwrap(),
        ];
        let plan = PushdownPlan::build(
            &queries,
            &records,
            &ciao_optimizer::CostModel::default_uncalibrated(),
            30.0,
        )
        .unwrap();
        let schema = Arc::new(Schema::infer(&records).unwrap());
        let prefilter = plan.prefilter();
        let chunks: Vec<_> = RecordChunk::from_ndjson(&ndjson)
            .split(1024)
            .into_iter()
            .map(|c| {
                let f = prefilter.run_chunk(&c);
                (c, f)
            })
            .collect();
        ServiceEnv {
            plan,
            schema,
            chunks,
            queries,
            records: scale.records,
        }
    }

    /// Total records in the chunk stream.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The query workload every configuration replays.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Ingests the whole stream into one fresh shard on the calling
    /// thread (its last epoch not yet sealed) — the baseline both the
    /// sweep and the Criterion benches compare against.
    pub fn baseline_shard(&self) -> Shard {
        self.baseline_shard_timed().0
    }

    /// Like [`ServiceEnv::baseline_shard`], but records each chunk's
    /// synchronous ingest latency — the baseline's ingest-ack
    /// distribution for the trajectory rows.
    pub fn baseline_shard_timed(&self) -> (Shard, Histogram) {
        let ack = Histogram::new();
        let shard = Shard::new(Arc::new(self.plan.clone()), Arc::clone(&self.schema), 1024);
        for (chunk, filter) in &self.chunks {
            let start = Instant::now();
            shard.ingest(chunk, filter);
            ack.record_duration(start.elapsed());
        }
        (shard, ack)
    }

    /// Ingests the whole stream into a fresh sharded service and
    /// drains it (the Criterion benches iterate exactly this).
    pub fn run_service_ingest(&self, shards: usize) -> Service {
        self.run_service_ingest_with(shards, true)
    }

    /// [`ServiceEnv::run_service_ingest`] with an explicit telemetry
    /// switch — the overhead bench compares both settings on the same
    /// stream.
    pub fn run_service_ingest_with(&self, shards: usize, telemetry: bool) -> Service {
        self.run_service_ingest_configured(
            ServiceConfig::default()
                .with_shards(shards)
                .with_workers(shards)
                .with_queue_capacity(64)
                .with_telemetry(telemetry),
        )
    }

    /// Ingests the whole stream under an arbitrary service config —
    /// how the durability experiment attaches a write-ahead log to the
    /// same chunk stream the in-memory sweep measures.
    pub fn run_service_ingest_configured(&self, config: ServiceConfig) -> Service {
        let service = Service::start(self.plan.clone(), Arc::clone(&self.schema), config);
        for (chunk, filter) in &self.chunks {
            assert!(service
                .enqueue_wait(chunk.clone(), filter.clone())
                .is_enqueued());
        }
        service.drain();
        service
    }
}

/// Runs the sweep: baseline server, then 1/2/4/8-shard services. Each
/// configuration replays the query workload [`QUERY_REPEATS`] times so
/// the p50/p99 latencies rest on more than one sample per query; the
/// service rows read their ingest-ack/query distributions and blocked
/// time from the service's own telemetry.
pub fn run(scale: ExperimentScale, shard_counts: &[usize]) -> Vec<ServiceRow> {
    let env = ServiceEnv::new(scale);
    let mut rows = Vec::new();

    // Baseline: the paper's single-threaded server loop, with local
    // histograms standing in for the service's telemetry.
    let start = Instant::now();
    let (shard, baseline_ack) = env.baseline_shard_timed();
    shard.seal_epoch();
    let baseline_ingest = start.elapsed().as_secs_f64();

    let baseline_query = Histogram::new();
    let qstart = Instant::now();
    let mut truth: Vec<usize> = Vec::new();
    for round in 0..QUERY_REPEATS {
        for q in &env.queries {
            let t = Instant::now();
            let count = shard.execute(q).count;
            baseline_query.record_duration(t.elapsed());
            if round == 0 {
                truth.push(count);
            }
        }
    }
    let executed = (env.queries.len() * QUERY_REPEATS) as f64;
    let baseline_query_ms = qstart.elapsed().as_secs_f64() * 1e3 / executed;

    rows.push(ServiceRow {
        label: "server (single thread)".into(),
        shards: 1,
        ingest_s: baseline_ingest,
        records_per_s: env.records as f64 / baseline_ingest,
        speedup: 1.0,
        query_ms: baseline_query_ms,
        ingest_ack_p50_us: us(baseline_ack.p50()),
        ingest_ack_p99_us: us(baseline_ack.p99()),
        query_p50_us: us(baseline_query.p50()),
        query_p99_us: us(baseline_query.p99()),
        blocked_ms: 0.0,
        rejected: 0,
        counts_ok: true,
        shard_records: vec![env.records],
    });

    for &shards in shard_counts {
        let start = Instant::now();
        let service = env.run_service_ingest(shards);
        let ingest_s = start.elapsed().as_secs_f64();

        let qstart = Instant::now();
        let mut counts: Vec<usize> = Vec::new();
        for round in 0..QUERY_REPEATS {
            for q in &env.queries {
                let count = service.query(q).count;
                if round == 0 {
                    counts.push(count);
                }
            }
        }
        let query_ms = qstart.elapsed().as_secs_f64() * 1e3 / executed;

        let t = service.telemetry().expect("sweep runs with telemetry on");
        let ack = t.ingest_ack_merged();
        let query_hist = t.query.detached_copy();
        let metrics = service.shutdown();

        rows.push(ServiceRow {
            label: format!("service ×{shards}"),
            shards,
            ingest_s,
            records_per_s: env.records as f64 / ingest_s,
            speedup: baseline_ingest / ingest_s,
            query_ms,
            ingest_ack_p50_us: us(ack.p50()),
            ingest_ack_p99_us: us(ack.p99()),
            query_p50_us: us(query_hist.p50()),
            query_p99_us: us(query_hist.p99()),
            blocked_ms: metrics.blocked.as_secs_f64() * 1e3,
            rejected: metrics.rejected_chunks,
            counts_ok: counts == truth,
            shard_records: metrics.shards.iter().map(|s| s.load.total()).collect(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_baseline_counts() {
        let rows = run(ExperimentScale::tiny(), &[1, 2]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.counts_ok), "{rows:?}");
        assert!(rows.iter().all(|r| r.records_per_s > 0.0));
        // Every row carries real latency distributions…
        for r in &rows {
            assert!(r.ingest_ack_p99_us >= r.ingest_ack_p50_us, "{r:?}");
            assert!(r.query_p99_us >= r.query_p50_us, "{r:?}");
            assert!(r.ingest_ack_p50_us > 0.0, "{r:?}");
        }
        // …and the per-shard record split covers the whole stream.
        let records = ExperimentScale::tiny().records;
        for r in &rows {
            assert_eq!(r.shard_records.iter().sum::<usize>(), records, "{r:?}");
            assert_eq!(r.shard_records.len(), r.shards);
        }
    }
}
