//! Restart-time recovery.
//!
//! [`recover`] turns a storage directory back into per-shard state:
//!
//! 1. load the manifest (a broken one degrades to a directory scan —
//!    reported, never fatal);
//! 2. per shard, open the newest readable snapshot, falling back one
//!    generation at a time when a file is missing or corrupt, and to
//!    an empty shard (full WAL replay) when none survives;
//! 3. replay every intact WAL record; torn, checksum-broken or
//!    non-text (CRC-valid but not UTF-8) tails are dropped, reported,
//!    and repaired on disk
//!    ([`repair_dir`]) so the hole cannot
//!    swallow segments a later service life appends.
//!
//! The only *hard* error besides I/O is a shard-count mismatch: a
//! checkpoint taken under `N` shards encodes routing decisions that a
//! different shard count would silently scramble.

use crate::config::StorageConfig;
use crate::manifest::{self, Manifest};
use crate::snapshot::{list_snapshots, read_snapshot, ShardSnapshot, SnapshotName};
use crate::wal::{repair_dir, replay_text_dir, SegmentMeta, WalRecord};
use crate::StorageError;

/// One shard's recovered starting point.
#[derive(Debug)]
pub struct RecoveredShard {
    /// Shard index.
    pub shard: u32,
    /// The snapshot to restore from (`None` → start empty).
    pub snapshot: Option<ShardSnapshot>,
    /// Replay WAL records for this shard with `seq >= ceiling`.
    pub ceiling: u64,
}

/// What recovery had to work around, for logs and tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether the manifest was present and valid.
    pub manifest_ok: bool,
    /// Shards that could not use the newest generation and fell back.
    pub snapshot_fallbacks: usize,
    /// Bytes dropped at/after the first corrupt or torn WAL frame.
    pub wal_dropped_bytes: u64,
    /// Description of the WAL corruption hit, if any.
    pub wal_corruption: Option<String>,
    /// Human-readable notes, one per degradation.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// True when recovery used exactly what the last checkpoint wrote,
    /// with no fallback or dropped bytes.
    pub fn clean(&self) -> bool {
        self.notes.is_empty()
    }

    fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// Everything [`recover`] reconstructs.
#[derive(Debug)]
pub struct Recovery {
    /// Starting state for each shard (length = requested shard count).
    pub shards: Vec<RecoveredShard>,
    /// Intact WAL records in log order; each applies to the shard it
    /// names, and only when `seq >=` that shard's ceiling.
    pub tail: Vec<WalRecord>,
    /// Existing WAL segments (handed to the writer as closed history).
    pub segments: Vec<SegmentMeta>,
    /// First sequence number never observed durable — the ingest queue
    /// resumes here.
    pub next_seq: u64,
    /// What recovery had to work around.
    pub report: RecoveryReport,
}

impl Recovery {
    /// WAL records for `shard` at or above its ceiling, in log order.
    pub fn tail_for(&self, shard: u32) -> impl Iterator<Item = &WalRecord> {
        let ceiling = self.shards[shard as usize].ceiling;
        self.tail
            .iter()
            .filter(move |r| r.shard == shard && r.seq >= ceiling)
    }
}

/// Recovers shard state from `config.dir`, creating it when absent.
pub fn recover(config: &StorageConfig, shard_count: u32) -> Result<Recovery, StorageError> {
    let dir = &config.dir;
    std::fs::create_dir_all(dir)?;
    let mut report = RecoveryReport::default();

    let manifest: Manifest = match manifest::load(dir) {
        Ok(Some(m)) => {
            if m.shard_count != shard_count {
                return Err(StorageError::ShardCountMismatch {
                    manifest: m.shard_count,
                    requested: shard_count,
                });
            }
            report.manifest_ok = true;
            m
        }
        Ok(None) => {
            report.manifest_ok = true; // a fresh directory is clean
            Manifest {
                shard_count,
                entries: Vec::new(),
            }
        }
        Err(e) => {
            report.note(format!(
                "manifest unreadable ({e}); falling back to snapshot directory scan"
            ));
            Manifest {
                shard_count,
                entries: Vec::new(),
            }
        }
    };

    let scanned = list_snapshots(dir)?;
    let mut shards = Vec::with_capacity(shard_count as usize);
    for shard in 0..shard_count {
        shards.push(recover_shard(shard, &manifest, &scanned, &mut report));
    }

    let mut replay = replay_text_dir(dir)?;
    if let Some(damage) = &replay.corruption {
        report.wal_corruption = Some(damage.reason.clone());
        report.wal_dropped_bytes = replay.dropped_bytes;
        report.note(format!(
            "wal: dropped {} byte(s) after corruption: {}",
            replay.dropped_bytes, damage.reason
        ));
        // Repair before the writer reopens: truncate the hole away and
        // quarantine untrusted segments, so the *next* replay reads
        // straight through to whatever this service life appends. An
        // unrepaired hole would make a second crash drop post-recovery
        // segments wholesale — acked, fsync'd records included.
        for note in repair_dir(dir, &mut replay)? {
            report.note(note);
        }
    }

    let next_seq = replay
        .records
        .iter()
        .map(|r| r.seq + 1)
        .chain(shards.iter().map(|s| s.ceiling))
        .max()
        .unwrap_or(0);

    Ok(Recovery {
        shards,
        tail: replay.records,
        segments: replay.segments,
        next_seq,
        report,
    })
}

/// Picks the newest readable snapshot for one shard: the manifest's
/// choice first, then older scanned generations, then empty.
fn recover_shard(
    shard: u32,
    manifest: &Manifest,
    scanned: &[SnapshotName],
    report: &mut RecoveryReport,
) -> RecoveredShard {
    let preferred = manifest
        .entries
        .iter()
        .find(|e| e.shard == shard)
        .map(|e| e.file.clone());
    let is_preferred = |s: &SnapshotName| {
        preferred
            .as_deref()
            .is_some_and(|f| s.path.file_name().is_some_and(|n| *n == *f))
    };
    // Scanned names for this shard, newest generation first; the
    // manifest's pick leads when present.
    let mut candidates: Vec<&SnapshotName> = scanned.iter().filter(|s| s.shard == shard).collect();
    candidates.sort_by_key(|s| std::cmp::Reverse((s.epochs, s.ceiling)));
    candidates.sort_by_key(|s| !is_preferred(s));

    let total = candidates.len();
    for (i, candidate) in candidates.into_iter().enumerate() {
        match read_snapshot(&candidate.path) {
            Ok(snapshot) => {
                // A fallback is any outcome other than "used exactly
                // what the checkpoint committed": the manifest's pick
                // was skipped (corrupt) or is gone entirely, or — with
                // no manifest entry — a newer scan hit was unreadable.
                let fell_back = match &preferred {
                    Some(_) => !is_preferred(candidate),
                    None => i > 0,
                };
                if fell_back {
                    report.snapshot_fallbacks += 1;
                    report.note(format!(
                        "shard {shard}: fell back to {}",
                        candidate.path.display()
                    ));
                }
                let ceiling = snapshot.ceiling;
                return RecoveredShard {
                    shard,
                    snapshot: Some(snapshot),
                    ceiling,
                };
            }
            Err(e) => report.note(format!(
                "shard {shard}: snapshot {} unreadable ({e})",
                candidate.path.display()
            )),
        }
    }
    if total > 0 || preferred.is_some() {
        report.snapshot_fallbacks += 1;
        report.note(format!(
            "shard {shard}: no readable snapshot ({total} scanned, manifest entry {}); \
             rebuilding from WAL",
            if preferred.is_some() {
                "present"
            } else {
                "absent"
            }
        ));
    }
    RecoveredShard {
        shard,
        snapshot: None,
        ceiling: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ManifestEntry;
    use crate::scratch::ScratchDir;
    use crate::snapshot::write_snapshot;
    use crate::wal::{replay_dir, Wal};
    use ciao::LoadStats;

    fn empty_snap(shard: u32, epochs: u64, ceiling: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            sealed_epochs: epochs,
            ceiling,
            stats: LoadStats::default(),
            schema: None,
            blocks: Vec::new(),
            parked: String::new(),
        }
    }

    fn rec(seq: u64, shard: u32) -> WalRecord {
        WalRecord {
            seq,
            shard,
            chunk: format!("{{\"seq\":{seq}}}\n").into_bytes(),
        }
    }

    fn checkpoint(dir: &std::path::Path, shard_count: u32, snaps: &[ShardSnapshot]) {
        let mut entries = Vec::new();
        for s in snaps {
            let name = write_snapshot(dir, s).unwrap();
            entries.push(ManifestEntry {
                shard: s.shard,
                epochs: s.sealed_epochs,
                ceiling: s.ceiling,
                file: name
                    .path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned(),
            });
        }
        manifest::store(
            dir,
            &Manifest {
                shard_count,
                entries,
            },
        )
        .unwrap();
    }

    #[test]
    fn fresh_directory_recovers_empty_and_clean() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        let r = recover(&cfg, 2).unwrap();
        assert!(r.report.clean());
        assert_eq!(r.shards.len(), 2);
        assert!(r.shards.iter().all(|s| s.snapshot.is_none()));
        assert_eq!(r.next_seq, 0);
        assert!(r.tail.is_empty());
    }

    #[test]
    fn snapshot_plus_tail_partition() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        // Checkpoint: shard 0 applied seqs 0..4 (ceiling 4), shard 1
        // applied 0..6 (ceiling 6). WAL holds 0..10.
        checkpoint(d.path(), 2, &[empty_snap(0, 1, 4), empty_snap(1, 1, 6)]);
        let mut wal = Wal::open(d.path(), &cfg, Vec::new());
        for seq in 0..10 {
            wal.append(&rec(seq, (seq % 2) as u32)).unwrap();
        }
        drop(wal);

        let r = recover(&cfg, 2).unwrap();
        assert!(r.report.clean(), "notes: {:?}", r.report.notes);
        assert_eq!(r.next_seq, 10);
        let s0: Vec<u64> = r.tail_for(0).map(|x| x.seq).collect();
        let s1: Vec<u64> = r.tail_for(1).map(|x| x.seq).collect();
        assert_eq!(s0, vec![4, 6, 8], "even seqs at or above ceiling 4");
        assert_eq!(s1, vec![7, 9], "odd seqs at or above ceiling 6");
    }

    #[test]
    fn shard_count_mismatch_is_a_hard_error() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        checkpoint(d.path(), 2, &[empty_snap(0, 1, 4)]);
        let err = recover(&cfg, 4).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ShardCountMismatch {
                manifest: 2,
                requested: 4
            }
        ));
    }

    #[test]
    fn corrupt_manifest_degrades_to_scan() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        checkpoint(d.path(), 1, &[empty_snap(0, 2, 9)]);
        // Damage the manifest body.
        let path = d.path().join(crate::manifest::MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let r = recover(&cfg, 1).unwrap();
        assert!(!r.report.manifest_ok);
        assert!(!r.report.clean());
        // The snapshot itself is still found by the scan.
        assert_eq!(r.shards[0].ceiling, 9);
        assert!(r.shards[0].snapshot.is_some());
    }

    #[test]
    fn deleted_newest_snapshot_falls_back_a_generation() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        // Two generations for shard 0; manifest names the newer.
        write_snapshot(d.path(), &empty_snap(0, 1, 3)).unwrap();
        checkpoint(d.path(), 1, &[empty_snap(0, 2, 7)]);
        // Delete the newest.
        let newest = list_snapshots(d.path())
            .unwrap()
            .into_iter()
            .max_by_key(|s| s.epochs)
            .unwrap();
        std::fs::remove_file(&newest.path).unwrap();

        let r = recover(&cfg, 1).unwrap();
        assert_eq!(r.report.snapshot_fallbacks, 1);
        assert_eq!(r.shards[0].ceiling, 3, "older generation's ceiling rules");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_a_generation() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        write_snapshot(d.path(), &empty_snap(0, 1, 3)).unwrap();
        checkpoint(d.path(), 1, &[empty_snap(0, 2, 7)]);
        let newest = list_snapshots(d.path())
            .unwrap()
            .into_iter()
            .max_by_key(|s| s.epochs)
            .unwrap();
        let mut bytes = std::fs::read(&newest.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest.path, &bytes).unwrap();

        let r = recover(&cfg, 1).unwrap();
        assert_eq!(r.report.snapshot_fallbacks, 1);
        assert_eq!(r.shards[0].ceiling, 3);
        assert!(r.report.notes.iter().any(|n| n.contains("unreadable")));
    }

    #[test]
    fn all_snapshots_gone_rebuilds_from_wal() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        checkpoint(d.path(), 1, &[empty_snap(0, 1, 5)]);
        for s in list_snapshots(d.path()).unwrap() {
            std::fs::remove_file(&s.path).unwrap();
        }
        let mut wal = Wal::open(d.path(), &cfg, Vec::new());
        for seq in 0..8 {
            wal.append(&rec(seq, 0)).unwrap();
        }
        drop(wal);

        let r = recover(&cfg, 1).unwrap();
        assert!(r.shards[0].snapshot.is_none());
        assert_eq!(r.shards[0].ceiling, 0);
        assert_eq!(r.tail_for(0).count(), 8, "full WAL replay");
        assert!(!r.report.clean());
    }

    #[test]
    fn second_recovery_keeps_records_acked_after_the_first() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        // Life 1 crashes mid-append: seqs 0..5 logged, the last frame
        // torn.
        let mut wal = Wal::open(d.path(), &cfg, Vec::new());
        for seq in 0..5 {
            wal.append(&rec(seq, 0)).unwrap();
        }
        drop(wal);
        let seg = replay_dir(d.path()).unwrap().segments[0].path.clone();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();

        // Recovery 1 repairs; life 2 acks three more records and also
        // dies unclean.
        let r = recover(&cfg, 1).unwrap();
        assert_eq!(r.next_seq, 4);
        assert!(r.report.wal_corruption.is_some());
        let mut wal = Wal::open(d.path(), &cfg, r.segments);
        for seq in 4..7 {
            wal.append(&rec(seq, 0)).unwrap();
        }
        drop(wal);

        // Recovery 2 must see everything either life made durable —
        // without the repair it would stop at the life-1 hole and drop
        // life 2's segment wholesale.
        let r = recover(&cfg, 1).unwrap();
        assert!(r.report.wal_corruption.is_none(), "hole was repaired");
        assert_eq!(r.next_seq, 7);
        assert_eq!(
            r.tail_for(0).map(|x| x.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn crc_valid_non_utf8_chunk_ends_replay_like_a_checksum_mismatch() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        let mut wal = Wal::open(d.path(), &cfg, Vec::new());
        wal.append(&rec(0, 0)).unwrap();
        wal.append(&rec(1, 0)).unwrap();
        // Framed and checksummed correctly — but no producer sends this.
        wal.append_chunk(2, 0, b"{\"seq\":\xFF\xFE}\n").unwrap();
        wal.append(&rec(3, 0)).unwrap();
        drop(wal);
        // The byte-level scan accepts the frame; only recovery, whose
        // chunks must be text, refuses it.
        assert_eq!(replay_dir(d.path()).unwrap().records.len(), 4);

        let r = recover(&cfg, 1).unwrap();
        assert_eq!(
            r.tail.iter().map(|x| x.seq).collect::<Vec<_>>(),
            vec![0, 1],
            "replay stops at the bad frame"
        );
        assert_eq!(r.next_seq, 2);
        let reason = r.report.wal_corruption.as_deref().unwrap();
        assert!(reason.contains("not UTF-8"), "{reason}");
        assert!(r.report.wal_dropped_bytes > 0);
        // Repaired like any other hole: the next recovery is clean.
        let r = recover(&cfg, 1).unwrap();
        assert!(r.report.clean(), "notes: {:?}", r.report.notes);
        assert_eq!(r.tail.len(), 2);
    }

    #[test]
    fn wal_corruption_is_reported_not_fatal() {
        let d = ScratchDir::new("rec");
        let cfg = StorageConfig::new(d.path());
        let mut wal = Wal::open(d.path(), &cfg, Vec::new());
        for seq in 0..5 {
            wal.append(&rec(seq, 0)).unwrap();
        }
        drop(wal);
        // Tear the tail.
        let seg = replay_dir(d.path()).unwrap().segments[0].path.clone();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();

        let r = recover(&cfg, 1).unwrap();
        assert_eq!(r.tail.len(), 4);
        assert_eq!(r.next_seq, 4, "the torn record was never durable");
        assert!(r.report.wal_corruption.is_some());
        assert!(r.report.wal_dropped_bytes > 0);
    }
}
