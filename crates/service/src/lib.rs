//! # `ciao_service` — sharded concurrent ingest/query service
//!
//! The CIAO paper evaluates a single-threaded server loop: clients
//! prefilter in parallel, but ingest is exclusive, queries block
//! ingest, and rows parked by partial loading stay raw JSON for every
//! query that reads them to parse again. A [`Shard`] is that loop's
//! loading-and-query state, made epochal; [`Pipeline`] drives one shard
//! through the paper's sequence, and this crate runs N of them as a
//! long-running service:
//!
//! * **Sharding** — N [`Shard`]s, each an independently locked
//!   partial-loading state (sealed epochs of columnar blocks + parked
//!   rows, and one active epoch) sharing one [`ciao::PushdownPlan`].
//!   Readers pin the sealed epochs and scan them unlocked, so a query
//!   never blocks ingest — not even on its own shard.
//! * **Bounded ingest with backpressure** — producers enqueue
//!   prefiltered chunks into a bounded queue and observe
//!   [`EnqueueResult::QueueFull`] when the service falls behind;
//!   worker threads drain jobs into shards. Chunk → shard routing is
//!   decided at enqueue time ([`Routing`]), so results never depend on
//!   worker scheduling.
//! * **Fan-out queries** — [`Service::query_sql`] runs SQL `SELECT`
//!   statements (projections, aggregates, `GROUP BY`, `ORDER BY`,
//!   `LIMIT`), and [`Service::query`] a predicate query's `COUNT(*)`,
//!   through one execution: pin and prepare every shard, which settles
//!   how many rows survive zone maps and skip-masks before one is
//!   read; scan a small statement on the caller's thread and share a
//!   large one with the ingest workers (no thread is spawned per
//!   statement); merge each shard's partial result of the `ciao_sql`
//!   physical plan into one typed
//!   [`QueryResult`](ciao_engine::QueryResult) (profile counters
//!   add, `elapsed` is the measured wall time), answering exactly as one
//!   shard holding all the data would. A count runs
//!   [`count_plan`](ciao_engine::count_plan) and returns its
//!   [`QueryOutcome`](ciao_engine::QueryOutcome).
//! * **Background compaction** — the one promotion path: tick-driven
//!   promotion of parked raw rows into columnar blocks
//!   ([`Service::compact`], through `ciao::jit::promote_parked`), with
//!   its own [`CompactionStats`] and a query-heat policy
//!   ([`CompactionPolicy`]).
//! * **Observability and lifecycle** — [`Service::metrics`] snapshots
//!   queue depth, per-shard row counts, parked ratio, and compaction
//!   counters; [`Service::telemetry_snapshot`] exports latency
//!   histograms (enqueue-wait, per-shard ingest-ack and
//!   compaction-tick, query), backpressure counters, and a bounded
//!   trace-event ring via `ciao_telemetry`; [`Service::shutdown`]
//!   drains the queue and joins every worker.
//! * **Query profiling** — `EXPLAIN` / `EXPLAIN ANALYZE` statements
//!   flow through [`Service::query_sql`]; every executed statement
//!   records a per-query span tree ([`Service::last_query_trace`],
//!   Chrome-trace exportable), folds its per-clause profile into a
//!   [`WorkloadStats`] collector ([`Service::workload_stats`]), and
//!   lands in a bounded slow-query log ([`Service::slow_queries`])
//!   when it crosses [`ServiceConfig::slow_query_threshold`].
//!
//! ## The paper's pipeline
//!
//! [`Pipeline`] runs the sequence the paper measures — plan, client
//! prefilter, partial load, queries — through one [`Shard`]:
//!
//! ```
//! use ciao::CiaoConfig;
//! use ciao_predicate::parse_query;
//! use ciao_service::Pipeline;
//!
//! // Some raw NDJSON records (normally produced by edge clients).
//! let ndjson: String = (0..500)
//!     .map(|i| format!("{{\"level\":\"{}\",\"code\":{}}}\n",
//!                      if i % 10 == 0 { "Error" } else { "Info" }, i % 7))
//!     .collect();
//!
//! // A prospective workload.
//! let queries = vec![
//!     parse_query("q0", r#"level = "Error""#).unwrap(),
//!     parse_query("q1", r#"level = "Error" AND code = 3"#).unwrap(),
//! ];
//!
//! // Run the whole system: plan → client prefilter → partial load → queries.
//! let report = Pipeline::new(CiaoConfig::default().with_budget_micros(1.0))
//!     .run(&ndjson, &queries)
//!     .unwrap();
//!
//! assert_eq!(report.query_results[0].count, 50);
//! assert!(report.load.loaded_records <= 500);
//! ```
//!
//! ## Running as a service
//!
//! ```
//! use ciao::PushdownPlan;
//! use ciao_columnar::Schema;
//! use ciao_json::RecordChunk;
//! use ciao_optimizer::CostModel;
//! use ciao_predicate::parse_query;
//! use ciao_service::{Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! // Plan once (normally from a workload + sample)...
//! let raw: Vec<String> = (0..400)
//!     .map(|i| format!("{{\"stars\":{},\"id\":{}}}", i % 5 + 1, i))
//!     .collect();
//! let sample: Vec<_> = raw.iter().take(100).map(|r| ciao_json::parse(r).unwrap()).collect();
//! let queries = vec![parse_query("hot", "stars = 5").unwrap()];
//! let plan = PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0)
//!     .unwrap();
//! let schema = Arc::new(Schema::infer(&sample).unwrap());
//!
//! // ...start a 2-shard service and stream chunks in.
//! let service = Service::start(plan, schema, ServiceConfig::default().with_shards(2));
//! for chunk in RecordChunk::from_records(&raw).unwrap().split(64) {
//!     assert!(service.enqueue_raw(chunk).is_enqueued());
//! }
//!
//! // Queries fan out and merge; compaction ticks drain the parked store.
//! assert_eq!(service.query(&queries[0]).count, 80);
//! while service.compact().promoted > 0 {}
//! let metrics = service.shutdown();
//! assert_eq!(metrics.load().total(), 400);
//! assert_eq!(metrics.parked(), 0);
//! ```

#![warn(missing_docs)]

pub mod compactor;
pub mod config;
pub mod metrics;
pub mod pipeline;
pub mod queue;
pub mod report;
pub mod service;
pub mod shard;
pub mod telemetry;
pub mod workload;

pub use compactor::{CompactionPolicy, CompactionStats};
pub use config::{Routing, ServiceConfig};
pub use metrics::ServiceMetrics;
pub use pipeline::{Pipeline, PipelineError, PipelineReport, QueryReport};
pub use queue::{EnqueueResult, IngestQueue, ScanJob, Work};
pub use report::TimingBreakdown;
pub use service::{DurabilityStatus, Service};
pub use shard::{EpochPin, Shard, ShardSnapshot};
pub use telemetry::ServiceTelemetry;
pub use workload::{ClauseStats, SlowQueryEntry, SlowQueryLog, WorkloadStats};

// Re-exported so storage-backed deployments configure durability
// without naming `ciao_storage` directly.
pub use ciao_storage::{CheckpointStats, RecoveryReport, StorageConfig, StorageError, SyncPolicy};
