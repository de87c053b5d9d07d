//! Service tunables.

use crate::compactor::CompactionPolicy;
use ciao_storage::StorageConfig;
use std::time::Duration;

/// How an incoming chunk is routed to a shard.
///
/// Both policies decide the shard **at enqueue time**, so the
/// assignment is deterministic regardless of which thread later
/// ingests the job, and the queue hands each shard its chunks one at a
/// time in seq order — merged query results never depend on
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Chunk `i` (in enqueue order) goes to shard `i % shards`. Evens
    /// out load when chunks are similar in size — the default.
    #[default]
    RoundRobin,
    /// The chunk's payload bytes are hashed (FNV-1a) to pick the
    /// shard. Keeps a replayed stream on the same shards even when
    /// interleaved with other streams.
    Hash,
}

/// Tunables for a [`crate::Service`] deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards, each owning an independent partial-loading
    /// state behind its own lock.
    pub shards: usize,
    /// Ingest worker threads draining the queue. A producer refused
    /// by a full queue and every [`crate::Service::drain`] ingest
    /// queued chunks too, beside them. `0` means no background
    /// workers: jobs are ingested only by those callers, in seq order
    /// (deterministic mode for tests).
    pub workers: usize,
    /// Bounded ingest-queue capacity in chunks; an enqueue beyond this
    /// observes [`crate::EnqueueResult::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// Rows per columnar block in every shard.
    pub block_size: usize,
    /// Chunk → shard routing policy.
    pub routing: Routing,
    /// Background compaction policy (parked-row promotion).
    pub compaction: CompactionPolicy,
    /// Whether the service registers telemetry (latency histograms,
    /// backpressure counters, trace events). On by default — recording
    /// is a few relaxed atomics per chunk; turn it off only for
    /// zero-instrumentation baselines.
    pub telemetry: bool,
    /// Trace-event ring capacity (oldest events evicted beyond it).
    pub event_capacity: usize,
    /// SQL statements at or above this end-to-end execution time enter
    /// the bounded slow-query log (requires telemetry; `Duration::ZERO`
    /// logs every statement).
    pub slow_query_threshold: Duration,
    /// Durability. `None` (the default) keeps the service purely
    /// in-memory; `Some` write-ahead-logs every acked chunk, persists
    /// epoch snapshots at [`crate::Service::checkpoint`], and makes
    /// [`crate::Service::start`] recover whatever the directory holds.
    pub storage: Option<StorageConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            workers: 4,
            queue_capacity: 64,
            block_size: 1024,
            routing: Routing::RoundRobin,
            compaction: CompactionPolicy::default(),
            telemetry: true,
            event_capacity: ciao_telemetry::registry::DEFAULT_EVENT_CAPACITY,
            slow_query_threshold: Duration::from_millis(100),
            storage: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the shard count (workers follow unless set explicitly).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the ingest worker count (`0` = inline-drain mode).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded queue capacity (chunks).
    pub fn with_queue_capacity(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "queue capacity must be positive");
        self.queue_capacity = chunks;
        self
    }

    /// Sets the columnar block size.
    pub fn with_block_size(mut self, rows: usize) -> Self {
        assert!(rows > 0, "block size must be positive");
        self.block_size = rows;
        self
    }

    /// Sets the routing policy.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the compaction policy.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }

    /// Enables or disables telemetry registration.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Sets the trace-event ring capacity.
    pub fn with_event_capacity(mut self, events: usize) -> Self {
        assert!(events > 0, "event capacity must be positive");
        self.event_capacity = events;
        self
    }

    /// Sets the slow-query log threshold (`Duration::ZERO` logs every
    /// SQL statement).
    pub fn with_slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Enables durability rooted at `storage.dir` (WAL + snapshots).
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }
}

/// FNV-1a over the chunk payload — cheap, deterministic, and stable
/// across runs (no `RandomState`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = ServiceConfig::default()
            .with_shards(8)
            .with_workers(2)
            .with_queue_capacity(16)
            .with_block_size(64)
            .with_routing(Routing::Hash)
            .with_telemetry(false)
            .with_event_capacity(32)
            .with_slow_query_threshold(Duration::from_millis(5));
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.block_size, 64);
        assert_eq!(cfg.routing, Routing::Hash);
        assert!(!cfg.telemetry);
        assert_eq!(cfg.event_capacity, 32);
        assert_eq!(cfg.slow_query_threshold, Duration::from_millis(5));
        assert!(ServiceConfig::default().telemetry, "on by default");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ServiceConfig::default().with_shards(0);
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: routing must not silently change across
        // refactors, or replayed streams land on different shards.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"ciao"), fnv1a(b"ciao"));
        assert_ne!(fnv1a(b"ciao"), fnv1a(b"oaic"));
    }
}
