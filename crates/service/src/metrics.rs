//! Fleet-wide observability snapshot.

use crate::compactor::CompactionStats;
use crate::shard::ShardSnapshot;
use ciao::LoadStats;
use std::time::Duration;

/// A point-in-time view of the whole service, from
/// [`crate::Service::metrics`].
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Chunks currently queued (excluding in-flight).
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// Chunks ever accepted by the queue.
    pub accepted_chunks: u64,
    /// Enqueue attempts refused with `QueueFull` (backpressure events).
    pub rejected_chunks: u64,
    /// Chunks fully ingested, by the workers or by threads that would
    /// otherwise have waited for them ([`ServiceMetrics::helped_chunks`]
    /// of them).
    pub ingested_chunks: u64,
    /// Records inside those ingested chunks.
    pub ingested_records: u64,
    /// Chunks ingested on a producer's thread (refused space by
    /// [`crate::Service::enqueue_wait`]), a drainer's
    /// ([`crate::Service::drain`], a checkpoint, a shutdown) or a
    /// statement's, instead of a worker's. With no workers, every
    /// ingested chunk is one.
    pub helped_chunks: u64,
    /// Queries answered (fan-out counts once, not per shard).
    pub queries: u64,
    /// SQL statements whose execution crossed the configured
    /// slow-query threshold (lifetime count, including entries the
    /// bounded log ring has since evicted). Zero with telemetry off.
    pub slow_queries: u64,
    /// Cumulative wall-clock time producers spent blocked inside
    /// [`crate::Service::enqueue_wait`] waiting — for queue capacity,
    /// or for a busy shard to free a chunk they could ingest — the
    /// backpressure cost the bounded queue passes upstream. Time a
    /// refused producer spent ingesting queued chunks is work, not
    /// waiting, and is not counted.
    pub blocked: Duration,
    /// Per-shard views, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
}

impl ServiceMetrics {
    /// Cumulative loading counters merged across shards.
    pub fn load(&self) -> LoadStats {
        let mut total = LoadStats::default();
        for s in &self.shards {
            total.merge(&s.load);
        }
        total
    }

    /// Compaction counters merged across shards.
    pub fn compaction(&self) -> CompactionStats {
        let mut total = CompactionStats::default();
        for s in &self.shards {
            total.merge(&s.compaction);
        }
        total
    }

    /// Rows currently in columnar blocks, fleet-wide.
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.rows).sum()
    }

    /// Rows currently parked as raw JSON, fleet-wide.
    pub fn parked(&self) -> usize {
        self.shards.iter().map(|s| s.parked).sum()
    }

    /// Ingest epochs sealed, fleet-wide.
    pub fn sealed_epochs(&self) -> usize {
        self.shards.iter().map(|s| s.sealed_epochs).sum()
    }

    /// Columnar blocks live in sealed tables, fleet-wide.
    pub fn sealed_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.sealed_blocks).sum()
    }

    /// Fraction of live rows still parked — the number compaction
    /// ticks drive toward zero.
    pub fn parked_ratio(&self) -> f64 {
        let total = self.rows() + self.parked();
        if total == 0 {
            0.0
        } else {
            self.parked() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_across_shards() {
        let mut m = ServiceMetrics::default();
        assert_eq!(m.parked_ratio(), 0.0);
        m.shards = vec![
            ShardSnapshot {
                rows: 30,
                parked: 10,
                load: LoadStats {
                    loaded_records: 30,
                    parked_records: 10,
                    ..Default::default()
                },
                compaction: CompactionStats {
                    promoted: 5,
                    ..Default::default()
                },
                heat: 0,
                sealed_epochs: 2,
                sealed_blocks: 3,
                parked_index_bytes: 0,
                parked_text_bytes: 0,
            },
            ShardSnapshot {
                rows: 10,
                parked: 30,
                load: LoadStats {
                    loaded_records: 10,
                    parked_records: 30,
                    ..Default::default()
                },
                compaction: CompactionStats {
                    ticks: 2,
                    ..Default::default()
                },
                heat: 1,
                sealed_epochs: 1,
                sealed_blocks: 1,
                parked_index_bytes: 0,
                parked_text_bytes: 0,
            },
        ];
        assert_eq!(m.rows(), 40);
        assert_eq!(m.parked(), 40);
        assert!((m.parked_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(m.load().total(), 80);
        assert_eq!(m.compaction().promoted, 5);
        assert_eq!(m.compaction().ticks, 2);
        assert_eq!(m.sealed_epochs(), 3);
        assert_eq!(m.sealed_blocks(), 4);
    }
}
