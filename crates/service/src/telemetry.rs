//! Service-level telemetry: the metric names the service publishes
//! and a pre-resolved bundle of handles for the hot paths.
//!
//! The [`ciao_telemetry::Telemetry`] registry hands out handles by
//! name through a mutex; looking a name up per ingest job would put
//! that mutex on the hot path. [`ServiceTelemetry`] resolves every
//! handle once at service start, so recording is a couple of relaxed
//! atomic adds — cheap enough to leave on in production, and gated
//! behind [`crate::ServiceConfig::telemetry`] for benchmarks that
//! want a zero-instrumentation baseline.

use ciao_telemetry::{Counter, EventRing, Gauge, Histogram, Telemetry, TelemetrySnapshot};
use std::sync::Arc;

/// Metric and event names published by a [`crate::Service`].
///
/// Histograms record nanoseconds. Per-shard histograms append
/// `_shard<i>`; merged views are exposed by
/// [`ServiceTelemetry::ingest_ack_merged`] and
/// [`ServiceTelemetry::compaction_tick_merged`].
pub mod names {
    /// Duration of each [`crate::Service::enqueue_wait`] call, the
    /// ack its producer sees (ingest it did while refused included).
    pub const ENQUEUE_WAIT_NS: &str = "ciao_service_enqueue_wait_ns";
    /// Chunks ingested on a producer's, drainer's or statement's
    /// thread instead of a worker's.
    pub const INGEST_HELPED_TOTAL: &str = "ciao_service_ingest_helped_total";
    /// Enqueue → ingested latency per chunk (prefix; one histogram per
    /// shard, suffixed `_shard<i>`).
    pub const INGEST_ACK_NS: &str = "ciao_service_ingest_ack_ns";
    /// Duration of one compaction tick (prefix; one histogram per
    /// shard, suffixed `_shard<i>`).
    pub const COMPACTION_TICK_NS: &str = "ciao_service_compaction_tick_ns";
    /// End-to-end [`crate::Service::query`] latency (drain + fan-out +
    /// merge).
    pub const QUERY_NS: &str = "ciao_service_query_ns";
    /// SQL text → AST time inside [`crate::Service::query_sql`].
    pub const SQL_PARSE_NS: &str = "ciao_service_sql_parse_ns";
    /// AST → physical-plan time (analysis + planning) inside
    /// [`crate::Service::query_sql`].
    pub const SQL_PLAN_NS: &str = "ciao_service_sql_plan_ns";
    /// Plan execution time (drain + fan-out + merge + finalize) inside
    /// [`crate::Service::query_sql`].
    pub const SQL_EXEC_NS: &str = "ciao_service_sql_exec_ns";
    /// Enqueue attempts refused with `QueueFull`.
    pub const QUEUE_FULL_TOTAL: &str = "ciao_service_queue_full_total";
    /// Epochs sealed across all shards.
    pub const EPOCHS_SEALED_TOTAL: &str = "ciao_service_epochs_sealed_total";
    /// Parked-record positional maps built across all shards: one per
    /// epoch whose parked rows a statement scanned, and again after a
    /// compaction drains part of an epoch.
    pub const PARKED_INDEX_BUILDS_TOTAL: &str = "ciao_service_parked_index_builds_total";
    /// Queue depth at the last snapshot.
    pub const QUEUE_DEPTH: &str = "ciao_service_queue_depth";
    /// Chunks appended to the write-ahead log (durable ingest acks).
    pub const WAL_APPENDS_TOTAL: &str = "ciao_service_wal_appends_total";
    /// What one WAL append costs the producer before its ack: the
    /// checksum pass and the `write`, per chunk (fsync excluded).
    pub const WAL_APPEND_NS: &str = "ciao_service_wal_append_ns";
    /// Duration of each `fsync` the append path issued (policy syncs
    /// and segment rotations).
    pub const WAL_SYNC_NS: &str = "ciao_service_wal_sync_ns";
    /// Duration of one [`crate::Service::checkpoint`], gate to commit
    /// (producers are held off for all of it).
    pub const CHECKPOINT_NS: &str = "ciao_service_checkpoint_ns";
    /// Chunks re-applied from the WAL tail during recovery.
    pub const WAL_REPLAYED_TOTAL: &str = "ciao_service_wal_replayed_total";
    /// Per-shard snapshot files written by checkpoints.
    pub const SNAPSHOTS_WRITTEN_TOTAL: &str = "ciao_service_snapshots_written_total";
    /// Zone-map block prune rate of the last SQL scan, in permille
    /// (prefix; one gauge per shard, suffixed `_shard<i>`).
    pub const SHARD_PRUNE_PERMILLE: &str = "ciao_service_shard_prune_permille";
    /// SQL statements slower than the configured slow-query threshold.
    pub const SLOW_QUERIES_TOTAL: &str = "ciao_service_slow_queries_total";
    /// Statements whose every shard was scanned on the caller's thread.
    pub const QUERY_INLINE_TOTAL: &str = "ciao_service_query_inline_total";
    /// Statements that handed all shards but one to the workers.
    pub const QUERY_HANDOFF_TOTAL: &str = "ciao_service_query_handoff_total";
    /// How long a handed-off shard scan sat between being posted and
    /// a thread starting it.
    pub const QUERY_HANDOFF_WAIT_NS: &str = "ciao_service_query_handoff_wait_ns";

    /// Trace-event kind: a shard sealed an ingest epoch.
    pub const EVENT_EPOCH_SEAL: &str = "epoch_seal";
    /// Trace-event kind: a compaction tick did real work.
    pub const EVENT_COMPACTION_TICK: &str = "compaction_tick";
    /// Trace-event kind: an enqueue was refused (backpressure).
    pub const EVENT_QUEUE_FULL: &str = "queue_full";
    /// Trace-event kind: a query plan was evaluated.
    pub const EVENT_PLAN_EVAL: &str = "plan_eval";
    /// Trace-event kind: a SQL statement was executed end to end.
    pub const EVENT_SQL_QUERY: &str = "sql_query";
    /// Trace-event kind: a checkpoint committed (snapshots + manifest).
    pub const EVENT_CHECKPOINT: &str = "checkpoint";
}

/// Pre-resolved telemetry handles for one [`crate::Service`].
///
/// Built at [`crate::Service::start`] when
/// [`crate::ServiceConfig::telemetry`] is on; shared (via `Arc`) by
/// the service handle, its worker threads, and each shard.
#[derive(Debug)]
pub struct ServiceTelemetry {
    registry: Arc<Telemetry>,
    /// Per-call duration of [`crate::Service::enqueue_wait`].
    pub enqueue_wait: Histogram,
    /// Chunks ingested off the workers.
    pub ingest_helped: Counter,
    /// End-to-end query latency.
    pub query: Histogram,
    /// SQL lex+parse stage latency.
    pub sql_parse: Histogram,
    /// SQL analyze+plan stage latency.
    pub sql_plan: Histogram,
    /// SQL plan execution latency (fan-out + merge + finalize).
    pub sql_exec: Histogram,
    /// Per-shard enqueue → ingested latency.
    pub ingest_ack: Vec<Histogram>,
    /// Per-shard compaction-tick duration.
    pub compaction_tick: Vec<Histogram>,
    /// Backpressure events.
    pub queue_full: Counter,
    /// Epoch seals across all shards.
    pub epochs_sealed: Counter,
    /// Parked-record positional maps built across all shards.
    pub parked_index_builds: Counter,
    /// Durable (write-ahead-logged) ingest acks.
    pub wal_appends: Counter,
    /// Per-chunk WAL append cost (checksum + write).
    pub wal_append: Histogram,
    /// Per-fsync cost on the append path.
    pub wal_sync: Histogram,
    /// Per-checkpoint duration.
    pub checkpoint: Histogram,
    /// Chunks re-applied from the WAL tail at recovery.
    pub wal_replayed: Counter,
    /// Snapshot files written by checkpoints.
    pub snapshots_written: Counter,
    /// Per-shard zone-map prune rate of the last SQL scan (permille).
    pub prune_rate: Vec<Gauge>,
    /// SQL statements that crossed the slow-query threshold.
    pub slow_queries: Counter,
    /// Statements scanned entirely on their caller's thread.
    pub query_inline: Counter,
    /// Statements that handed scans to the workers.
    pub query_handoff: Counter,
    /// Posted → started wait of each handed-off scan.
    pub handoff_wait: Histogram,
}

impl ServiceTelemetry {
    /// Builds a registry with one histogram per shard for the sharded
    /// series and resolves every handle.
    pub fn new(shards: usize, event_capacity: usize) -> Arc<ServiceTelemetry> {
        let registry = Arc::new(Telemetry::with_event_capacity(event_capacity));
        let per_shard = |prefix: &str| {
            (0..shards)
                .map(|i| registry.histogram(&format!("{prefix}_shard{i}")))
                .collect()
        };
        // HELP text rides the Prometheus exposition; register it once
        // here so scrapes are self-describing.
        registry.set_help(names::QUERY_NS, "End-to-end query latency (nanoseconds)");
        registry.set_help(
            names::QUEUE_FULL_TOTAL,
            "Enqueue attempts refused with QueueFull (backpressure)",
        );
        registry.set_help(
            names::INGEST_HELPED_TOTAL,
            "Chunks ingested on a producer's, drainer's or statement's thread, not a worker's",
        );
        registry.set_help(
            names::SLOW_QUERIES_TOTAL,
            "SQL statements slower than the configured slow-query threshold",
        );
        let prune_rate = (0..shards)
            .map(|i| {
                let name = format!("{}_shard{i}", names::SHARD_PRUNE_PERMILLE);
                registry.set_help(
                    &name,
                    "Zone-map block prune rate of the shard's last SQL scan, in permille",
                );
                registry.gauge(&name)
            })
            .collect();
        Arc::new(ServiceTelemetry {
            enqueue_wait: registry.histogram(names::ENQUEUE_WAIT_NS),
            ingest_helped: registry.counter(names::INGEST_HELPED_TOTAL),
            query: registry.histogram(names::QUERY_NS),
            sql_parse: registry.histogram(names::SQL_PARSE_NS),
            sql_plan: registry.histogram(names::SQL_PLAN_NS),
            sql_exec: registry.histogram(names::SQL_EXEC_NS),
            ingest_ack: per_shard(names::INGEST_ACK_NS),
            compaction_tick: per_shard(names::COMPACTION_TICK_NS),
            queue_full: registry.counter(names::QUEUE_FULL_TOTAL),
            epochs_sealed: registry.counter(names::EPOCHS_SEALED_TOTAL),
            parked_index_builds: registry.counter(names::PARKED_INDEX_BUILDS_TOTAL),
            wal_appends: registry.counter(names::WAL_APPENDS_TOTAL),
            wal_append: registry.histogram(names::WAL_APPEND_NS),
            wal_sync: registry.histogram(names::WAL_SYNC_NS),
            checkpoint: registry.histogram(names::CHECKPOINT_NS),
            wal_replayed: registry.counter(names::WAL_REPLAYED_TOTAL),
            snapshots_written: registry.counter(names::SNAPSHOTS_WRITTEN_TOTAL),
            prune_rate,
            slow_queries: registry.counter(names::SLOW_QUERIES_TOTAL),
            query_inline: registry.counter(names::QUERY_INLINE_TOTAL),
            query_handoff: registry.counter(names::QUERY_HANDOFF_TOTAL),
            handoff_wait: registry.histogram(names::QUERY_HANDOFF_WAIT_NS),
            registry,
        })
    }

    /// The underlying registry (for exporting or registering extra
    /// series next to the service's own).
    pub fn registry(&self) -> &Arc<Telemetry> {
        &self.registry
    }

    /// The trace-event ring.
    pub fn events(&self) -> &EventRing {
        self.registry.events()
    }

    /// Ingest-ack latency merged across shards (a detached copy; safe
    /// to quantile while ingest keeps recording).
    pub fn ingest_ack_merged(&self) -> Histogram {
        Self::merged(&self.ingest_ack)
    }

    /// Compaction-tick duration merged across shards (detached copy).
    pub fn compaction_tick_merged(&self) -> Histogram {
        Self::merged(&self.compaction_tick)
    }

    fn merged(per_shard: &[Histogram]) -> Histogram {
        let total = Histogram::new();
        for h in per_shard {
            total.merge(h);
        }
        total
    }

    /// A point-in-time snapshot of every series and the event ring.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_series_and_merge() {
        let t = ServiceTelemetry::new(3, 16);
        t.ingest_ack[0].record(100);
        t.ingest_ack[2].record(5_000);
        let merged = t.ingest_ack_merged();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max(), 5_000);
        // The merged view is detached: later records don't leak in.
        t.ingest_ack[1].record(9);
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn help_text_reaches_the_exposition() {
        let t = ServiceTelemetry::new(2, 16);
        t.prune_rate[1].set(750);
        let text = t.snapshot().prometheus_text();
        assert!(text.contains("# HELP ciao_service_query_ns"));
        assert!(text.contains("# HELP ciao_service_shard_prune_permille_shard1"));
        assert!(text.contains("ciao_service_shard_prune_permille_shard1 750"));
    }

    #[test]
    fn snapshot_carries_named_series() {
        let t = ServiceTelemetry::new(2, 16);
        t.query
            .record_duration(std::time::Duration::from_micros(40));
        t.queue_full.inc();
        let snap = t.snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|(name, h)| name == names::QUERY_NS && h.count == 1));
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == names::QUEUE_FULL_TOTAL && *v == 1));
    }
}
