//! The durable store: one WAL plus checkpoints, behind a single handle.
//!
//! [`Store::open`] recovers whatever the directory holds and returns
//! the [`Recovery`] for the service to rebuild shards from; the store
//! itself then owns the append path and the checkpoint protocol:
//!
//! * [`Store::append`] logs one acked ingest chunk (fsync per the
//!   configured [`SyncPolicy`](crate::SyncPolicy));
//! * [`Store::checkpoint`] — called with the queue drained, so every
//!   logged record below each shard's ceiling has been applied —
//!   rotates the WAL, writes one snapshot per shard, commits the
//!   manifest, prunes old snapshot generations, and truncates WAL
//!   segments no retained generation still needs.
//!
//! The truncation floor is the *minimum over shards of the oldest
//! retained generation's ceiling*: even after falling back a full
//! generation on every shard, the surviving WAL still covers the gap.

use crate::config::StorageConfig;
use crate::manifest::{self, Manifest, ManifestEntry};
use crate::recovery::{recover, Recovery};
use crate::snapshot::{list_snapshots, write_snapshot, SnapshotView};
use crate::wal::{AppendTiming, Wal};
use crate::StorageError;
use ciao_columnar::Block;
use std::ops::Deref;
use std::path::Path;

/// What one checkpoint did (for telemetry and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshot files written (one per shard).
    pub snapshots_written: usize,
    /// Old snapshot generations deleted by retention.
    pub generations_pruned: usize,
    /// WAL segment files deleted below the truncation floor.
    pub segments_deleted: usize,
    /// The truncation floor used (min retained ceiling over shards).
    pub floor: u64,
}

/// A recovered, writable durability handle for one service.
#[derive(Debug)]
pub struct Store {
    config: StorageConfig,
    shard_count: u32,
    wal: Wal,
}

impl Store {
    /// Recovers `config.dir` (creating it when new) and opens the
    /// append path. The returned [`Recovery`] carries the shard state
    /// and WAL tail the caller must apply before ingesting.
    pub fn open(
        config: StorageConfig,
        shard_count: u32,
    ) -> Result<(Store, Recovery), StorageError> {
        let recovery = recover(&config, shard_count)?;
        let wal = Wal::open(&config.dir, &config, recovery.segments.clone());
        Ok((
            Store {
                config,
                shard_count,
                wal,
            },
            recovery,
        ))
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Logs one acked chunk, framing the borrowed bytes in place (a
    /// checksum pass and one vectored write). When this returns under
    /// [`SyncPolicy::Always`](crate::SyncPolicy::Always), the chunk is
    /// on stable storage.
    pub fn append(&mut self, seq: u64, shard: u32, chunk: &[u8]) -> std::io::Result<()> {
        self.wal.append_chunk(seq, shard, chunk)
    }

    /// What the most recent [`Store::append`] cost: checksum + write,
    /// and the fsync it issued, if any.
    pub fn last_append(&self) -> AppendTiming {
        self.wal.last_append
    }

    /// Forces an fsync of the active WAL segment.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Records appended over this handle's lifetime.
    pub fn wal_appends(&self) -> u64 {
        self.wal.appends
    }

    /// `fsync` calls issued by the append path.
    pub fn wal_syncs(&self) -> u64 {
        self.wal.syncs
    }

    /// Live WAL segment files (closed + active).
    pub fn wal_segments(&self) -> usize {
        self.wal.segment_count()
    }

    /// Commits a checkpoint: one snapshot per shard (callers pass
    /// exactly `shard_count` borrowed views, queue drained), then the
    /// manifest, then retention pruning and WAL truncation.
    pub fn checkpoint<B, P, S>(
        &mut self,
        snapshots: &[SnapshotView<'_, B, P>],
    ) -> Result<CheckpointStats, StorageError>
    where
        B: AsRef<[Block]>,
        P: Deref<Target = [S]>,
        S: AsRef<str>,
    {
        assert_eq!(
            snapshots.len(),
            self.shard_count as usize,
            "checkpoint requires one snapshot per shard"
        );
        let dir = self.config.dir.clone();
        let mut stats = CheckpointStats::default();

        // Seal the running WAL segment first: everything the snapshots
        // cover is now in closed segments, eligible for truncation.
        self.wal.rotate()?;

        let mut entries = Vec::with_capacity(snapshots.len());
        for snap in snapshots {
            let name = write_snapshot(&dir, snap)?;
            stats.snapshots_written += 1;
            entries.push(ManifestEntry {
                shard: snap.shard,
                epochs: snap.sealed_epochs,
                ceiling: snap.ceiling,
                file: name
                    .path
                    .file_name()
                    .expect("snapshot file name")
                    .to_string_lossy()
                    .into_owned(),
            });
        }
        manifest::store(
            &dir,
            &Manifest {
                shard_count: self.shard_count,
                entries,
            },
        )?;

        // Retention: keep the newest `retain_snapshots` generations
        // per shard; the floor is the min ceiling still retained.
        let retain = self.config.retain_snapshots;
        let all = list_snapshots(&dir)?;
        let mut floor = u64::MAX;
        for shard in 0..self.shard_count {
            let of_shard: Vec<_> = all.iter().filter(|s| s.shard == shard).collect();
            let cut = of_shard.len().saturating_sub(retain);
            for stale in &of_shard[..cut] {
                std::fs::remove_file(&stale.path)?;
                stats.generations_pruned += 1;
            }
            // Oldest retained generation bounds what replay may need.
            floor = floor.min(of_shard.get(cut).map_or(0, |s| s.ceiling));
        }
        if floor == u64::MAX {
            floor = 0; // no shards — nothing proves any record applied
        }
        stats.floor = floor;
        stats.segments_deleted = self.wal.truncate_below(floor)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyncPolicy;
    use crate::scratch::ScratchDir;
    use ciao::LoadStats;

    fn snap(shard: u32, epochs: u64, ceiling: u64) -> SnapshotView<'static> {
        SnapshotView {
            shard,
            sealed_epochs: epochs,
            ceiling,
            stats: LoadStats::default(),
            schema: None,
            blocks: &[],
            parked: &[],
        }
    }

    #[test]
    fn append_checkpoint_reopen_cycle() {
        let d = ScratchDir::new("store");
        let cfg = StorageConfig::new(d.path());
        let (mut store, r) = Store::open(cfg.clone(), 2).unwrap();
        assert_eq!(r.next_seq, 0);
        for seq in 0..6 {
            store
                .append(seq, (seq % 2) as u32, format!("c{seq}\n").as_bytes())
                .unwrap();
        }
        // Both shards applied everything logged so far.
        let stats = store.checkpoint(&[snap(0, 1, 6), snap(1, 1, 6)]).unwrap();
        assert_eq!(stats.snapshots_written, 2);
        // Post-checkpoint appends form the tail.
        for seq in 6..9 {
            store
                .append(seq, (seq % 2) as u32, format!("c{seq}\n").as_bytes())
                .unwrap();
        }
        drop(store);

        let (_store, r) = Store::open(cfg, 2).unwrap();
        assert!(r.report.clean(), "notes: {:?}", r.report.notes);
        assert_eq!(r.next_seq, 9);
        assert_eq!(r.tail_for(0).map(|x| x.seq).collect::<Vec<_>>(), vec![6, 8]);
        assert_eq!(r.tail_for(1).map(|x| x.seq).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn retention_prunes_and_floor_respects_oldest_retained() {
        let d = ScratchDir::new("store");
        // Tiny segments so every record closes one; retain 2.
        let cfg = StorageConfig::new(d.path())
            .with_segment_bytes(1)
            .with_retain_snapshots(2);
        let (mut store, _) = Store::open(cfg, 1).unwrap();
        let mut pruned = 0;
        let mut last = CheckpointStats::default();
        for gen in 1..=4u64 {
            let upto = gen * 3;
            for seq in (gen - 1) * 3..upto {
                store.append(seq, 0, b"x").unwrap();
            }
            last = store.checkpoint(&[snap(0, gen, upto)]).unwrap();
            pruned += last.generations_pruned;
        }
        // 4 generations written, 2 retained.
        assert_eq!(pruned, 2);
        assert_eq!(list_snapshots(store.dir()).unwrap().len(), 2);
        // Oldest retained is generation 3 (ceiling 9): the floor must
        // not outrun it even though generation 4 reached 12.
        assert_eq!(last.floor, 9);
        // Fallback drill: delete the newest snapshot; generation 3
        // plus the surviving WAL tail must still cover seqs 9..12.
        let newest = list_snapshots(store.dir())
            .unwrap()
            .into_iter()
            .max_by_key(|s| s.epochs)
            .unwrap();
        std::fs::remove_file(&newest.path).unwrap();
        drop(store);
        let (_s, r) =
            Store::open(StorageConfig::new(d.path()).with_retain_snapshots(2), 1).unwrap();
        assert_eq!(r.shards[0].ceiling, 9);
        assert_eq!(
            r.tail_for(0).map(|x| x.seq).collect::<Vec<_>>(),
            vec![9, 10, 11],
            "WAL retained the fallback generation's tail"
        );
    }

    #[test]
    fn sync_counters_reflect_policy() {
        let d = ScratchDir::new("store");
        let cfg = StorageConfig::new(d.path()).with_sync(SyncPolicy::EveryN(3));
        let (mut store, _) = Store::open(cfg, 1).unwrap();
        for seq in 0..7 {
            store.append(seq, 0, b"x").unwrap();
        }
        assert_eq!(store.wal_appends(), 7);
        assert_eq!(store.wal_syncs(), 2);
        store.sync().unwrap();
        assert_eq!(store.wal_syncs(), 3);
    }
}
