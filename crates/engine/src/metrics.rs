//! Execution metrics.

use crate::scan::BlockTally;
use std::time::Duration;

/// Counters from one table or raw scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Blocks visited.
    pub blocks_visited: usize,
    /// Blocks pruned wholesale by zone maps.
    pub blocks_pruned: usize,
    /// Rows actually evaluated.
    pub rows_scanned: usize,
    /// Rows skipped via bitvector masks without evaluation.
    pub rows_skipped: usize,
    /// Rows that satisfied the query.
    pub rows_matched: usize,
    /// Raw records the projected scan went through (raw scans only).
    pub records_parsed: usize,
}

impl ScanMetrics {
    /// Merges another scan's counters into this one.
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.blocks_visited += other.blocks_visited;
        self.blocks_pruned += other.blocks_pruned;
        self.rows_scanned += other.rows_scanned;
        self.rows_skipped += other.rows_skipped;
        self.rows_matched += other.rows_matched;
        self.records_parsed += other.records_parsed;
    }

    /// Adds what the block-scan driver did to one block.
    pub fn add_block(&mut self, tally: &BlockTally<'_>) {
        self.rows_scanned += tally.scanned;
        self.rows_matched += tally.selected.len();
    }

    /// Fraction of candidate rows that skipping eliminated.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.rows_scanned + self.rows_skipped;
        if total == 0 {
            0.0
        } else {
            self.rows_skipped as f64 / total as f64
        }
    }
}

/// Full accounting for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Columnar-side counters.
    pub table_scan: ScanMetrics,
    /// Parked-raw-side counters (zeroed when the parked side was
    /// skipped wholesale).
    pub raw_scan: ScanMetrics,
    /// Whether bitvector skipping was applied.
    pub used_skipping: bool,
    /// Whether the parked raw store had to be scanned.
    pub scanned_parked: bool,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Time spent scanning the columnar side (includes the skip-mask
    /// evaluation when `used_skipping` is set).
    pub table_scan_time: Duration,
    /// Time spent in the projected-scan fallback over parked raw rows
    /// (zero when the parked side was skipped wholesale).
    pub raw_scan_time: Duration,
}

impl QueryMetrics {
    /// Total rows satisfying the query across both sides.
    pub fn total_matched(&self) -> usize {
        self.table_scan.rows_matched + self.raw_scan.rows_matched
    }

    /// Merges another execution's accounting into this one, as used
    /// when one logical query fans out across shards: counters add,
    /// the boolean flags OR (any shard that skipped / scanned parked
    /// sets the merged flag), and `elapsed` takes the max. That is the
    /// wall-clock only of a fan-out that really ran its shards in
    /// parallel (the slowest one); the merge cannot know, so a caller
    /// that ran them any other way — `ciao_service` scans small
    /// statements shard after shard on one thread — overwrites
    /// `elapsed` with the wall time it measured. The per-side scan
    /// times add: they report cumulative work done, not wall-clock.
    /// Folding from [`QueryMetrics::default`] is the identity.
    pub fn merge(&mut self, other: &QueryMetrics) {
        self.table_scan.merge(&other.table_scan);
        self.raw_scan.merge(&other.raw_scan);
        self.used_skipping |= other.used_skipping;
        self.scanned_parked |= other.scanned_parked;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.table_scan_time += other.table_scan_time;
        self.raw_scan_time += other.raw_scan_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_ratio() {
        let mut a = ScanMetrics {
            blocks_visited: 1,
            blocks_pruned: 1,
            rows_scanned: 10,
            rows_skipped: 30,
            rows_matched: 4,
            records_parsed: 0,
        };
        let b = ScanMetrics {
            blocks_visited: 2,
            blocks_pruned: 0,
            rows_scanned: 20,
            rows_skipped: 0,
            rows_matched: 6,
            records_parsed: 20,
        };
        a.merge(&b);
        assert_eq!(a.blocks_visited, 3);
        assert_eq!(a.rows_scanned, 30);
        assert_eq!(a.rows_matched, 10);
        assert_eq!(a.records_parsed, 20);
        assert!((a.skip_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio() {
        assert_eq!(ScanMetrics::default().skip_ratio(), 0.0);
    }

    #[test]
    fn query_metrics_merge_is_fold_friendly() {
        let shard = QueryMetrics {
            table_scan: ScanMetrics {
                rows_matched: 3,
                rows_scanned: 7,
                ..Default::default()
            },
            raw_scan: ScanMetrics {
                rows_matched: 2,
                records_parsed: 9,
                ..Default::default()
            },
            used_skipping: true,
            scanned_parked: true,
            elapsed: Duration::from_millis(5),
            table_scan_time: Duration::from_millis(3),
            raw_scan_time: Duration::from_millis(1),
        };
        let mut merged = QueryMetrics::default();
        merged.merge(&shard);
        merged.merge(&shard);
        assert_eq!(merged.total_matched(), 10);
        assert_eq!(merged.raw_scan.records_parsed, 18);
        assert!(merged.used_skipping);
        assert!(merged.scanned_parked);
        // The default assumes a parallel fan-out: the slowest shard.
        assert_eq!(merged.elapsed, Duration::from_millis(5));
        // ...but per-side scan time is cumulative work, so it adds.
        assert_eq!(merged.table_scan_time, Duration::from_millis(6));
        assert_eq!(merged.raw_scan_time, Duration::from_millis(2));
    }

    #[test]
    fn query_totals() {
        let m = QueryMetrics {
            table_scan: ScanMetrics {
                rows_matched: 3,
                ..Default::default()
            },
            raw_scan: ScanMetrics {
                rows_matched: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(m.total_matched(), 5);
    }
}
