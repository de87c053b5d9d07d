//! Background parked-row compaction.
//!
//! Partial loading (`AdmissionPolicy::PerQueryCoverage`, what a
//! service with a non-empty plan admits with) parks a record when it
//! fails every workload query's pushed conjunction — for each query,
//! at least one of its pushed clauses' bits is zero. (Some of its
//! bits may be one: a record can match a pushed clause of a query
//! whose other pushed clause it fails.) Every query that reads the
//! parked side re-parses those rows, so a long-running service migrates
//! them to columnar blocks during idle time; the compactor is the one
//! promotion path.
//!
//! The compactor is **tick-driven** — no wall clock, no timer thread.
//! Each tick hands a bounded batch of parked rows per shard (oldest
//! first) to `ciao::jit::promote_parked`, which regenerates their
//! predicate bits with the plan's own patterns (the same conservative
//! bits the client would have produced, so every skipping guarantee
//! still holds) and loads them through a `ciao::Loader` that admits
//! everything — the same record-to-row path as ingest — so the
//! parseable ones become new columnar blocks. Rows that still fail to
//! parse rotate to the back of the parked store so one malformed
//! record cannot wedge the window.
//!
//! Shards are prioritized by **heat**: the number of query
//! executions that scanned the shard's parked store since its last
//! compaction. [`CompactionPolicy::min_heat`] optionally restricts
//! ticks to shards whose parked rows are actually being read.

/// When and how much a compaction tick promotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Skip shards holding fewer parked rows than this.
    pub min_parked: usize,
    /// Maximum parked rows re-evaluated per shard per tick (bounds the
    /// latency impact of a tick on a live shard's lock).
    pub batch: usize,
    /// Only compact shards whose parked store was scanned by at least
    /// this many queries since the last compaction. `0` (the default)
    /// compacts unconditionally — ticks make progress even on a
    /// query-idle service.
    pub min_heat: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_parked: 1,
            batch: 1024,
            min_heat: 0,
        }
    }
}

impl CompactionPolicy {
    /// Sets the minimum parked-store size for a shard to be eligible.
    pub fn with_min_parked(mut self, rows: usize) -> Self {
        self.min_parked = rows;
        self
    }

    /// Sets the per-shard per-tick promotion batch.
    pub fn with_batch(mut self, rows: usize) -> Self {
        assert!(rows > 0, "compaction batch must be positive");
        self.batch = rows;
        self
    }

    /// Sets the query-heat threshold.
    pub fn with_min_heat(mut self, scans: usize) -> Self {
        self.min_heat = scans;
        self
    }

    /// Whether a shard with this parked-store size and heat should be
    /// compacted this tick.
    pub fn eligible(&self, parked: usize, heat: usize) -> bool {
        parked >= self.min_parked.max(1) && heat >= self.min_heat
    }
}

/// Cumulative compaction counters (per shard, and merged fleet-wide in
/// [`crate::ServiceMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Ticks that promoted at least one row on this shard.
    pub ticks: usize,
    /// Ticks that found the shard ineligible (cold, or nothing parked).
    pub idle_ticks: usize,
    /// Parked rows promoted into columnar blocks.
    pub promoted: usize,
    /// Rows re-evaluated that still failed to parse (rotated to the
    /// back of the parked store, counted once per observation).
    pub unparseable: usize,
}

impl CompactionStats {
    /// Merges another shard's counters into this one. Folding from
    /// [`CompactionStats::default`] is the identity.
    pub fn merge(&mut self, other: &CompactionStats) {
        self.ticks += other.ticks;
        self.idle_ticks += other.idle_ticks;
        self.promoted += other.promoted;
        self.unparseable += other.unparseable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_always_eligible_when_parked() {
        let p = CompactionPolicy::default();
        assert!(p.eligible(1, 0));
        assert!(!p.eligible(0, 10));
    }

    #[test]
    fn heat_gate() {
        let p = CompactionPolicy::default().with_min_heat(2);
        assert!(!p.eligible(100, 1));
        assert!(p.eligible(100, 2));
    }

    #[test]
    fn min_parked_gate() {
        let p = CompactionPolicy::default().with_min_parked(50);
        assert!(!p.eligible(49, 0));
        assert!(p.eligible(50, 0));
        // min_parked = 0 still never compacts an empty store.
        let p = CompactionPolicy::default().with_min_parked(0);
        assert!(!p.eligible(0, 0));
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = CompactionStats {
            ticks: 1,
            idle_ticks: 2,
            promoted: 30,
            unparseable: 1,
        };
        a.merge(&CompactionStats {
            ticks: 2,
            idle_ticks: 0,
            promoted: 12,
            unparseable: 0,
        });
        assert_eq!(a.ticks, 3);
        assert_eq!(a.idle_ticks, 2);
        assert_eq!(a.promoted, 42);
        assert_eq!(a.unparseable, 1);
    }
}
