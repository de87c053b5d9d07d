//! # `ciao_storage` — durability for the CIAO service
//!
//! The paper's pipeline is an in-memory system: clients prefilter,
//! the server partially loads, queries run against RAM. This crate
//! adds the missing durability story so an ingest **ack means
//! something** across crashes:
//!
//! * [`wal`] — a segmented write-ahead chunk log. The unit of logging
//!   is the unit of acking (a raw NDJSON chunk plus its routing);
//!   frames are length-prefixed and CRC-checksummed over the
//!   producer's borrowed bytes (no staging copy), and the fsync
//!   cadence is the [`SyncPolicy`].
//! * [`snapshot`] — per-shard epoch-boundary images (sealed columnar
//!   blocks, parked records, stats, and the WAL ceiling they cover),
//!   streamed from a borrowed [`SnapshotView`] of the live shard and
//!   committed atomically via temp-file + rename.
//! * [`manifest`] — a CRC-tailed text file naming the newest snapshot
//!   per shard; the commit point of a checkpoint.
//! * [`recovery`] — restart logic: manifest → snapshots (falling back
//!   a generation per shard when files are missing or corrupt) → WAL
//!   tail replay, with every degradation surfaced in a
//!   [`RecoveryReport`] instead of a panic. WAL damage is *repaired*
//!   in place ([`repair_dir`]: truncate the torn segment, quarantine
//!   untrusted later ones) so a second unclean shutdown cannot re-drop
//!   records acked after the first recovery.
//! * [`store`] — the single handle a service owns: append on the hot
//!   path, [`Store::checkpoint`] at epoch boundaries (snapshots +
//!   manifest + retention pruning + WAL truncation).
//! * [`scratch`] — unique self-cleaning temp directories, shared by
//!   this crate's tests, the workspace test tree, and the durability
//!   benchmark.
//!
//! Invariant the whole design leans on: checkpoints run with the
//! ingest queue drained, so per shard the applied records form a
//! prefix of the logged ones — a single `ceiling` per shard fully
//! describes what the snapshot covers, and replay is simply "apply
//! logged records with `seq >= ceiling`".

#![warn(missing_docs)]

pub mod config;
pub mod manifest;
pub mod recovery;
pub mod scratch;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use config::{StorageConfig, SyncPolicy};
pub use recovery::{recover, RecoveredShard, Recovery, RecoveryReport};
pub use scratch::ScratchDir;
pub use snapshot::{
    list_snapshots, read_snapshot, write_snapshot, ShardSnapshot, SnapshotImage, SnapshotName,
    SnapshotView,
};
pub use store::{CheckpointStats, Store};
pub use wal::{
    repair_dir, replay_dir, AppendTiming, SegmentMeta, Wal, WalDamage, WalRecord, WalReplay,
};

/// Fsyncs a directory so renames, creations, and deletions inside it
/// survive power loss. Every durable-file path in this crate (WAL
/// segment creation, snapshot and manifest rename, WAL repair) must
/// persist the *directory entry*, not just the file data — a missing
/// dirent loses the whole file no matter how hard its blocks were
/// synced.
pub(crate) fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk data failed validation (checksum, framing, format).
    Corrupt(String),
    /// The manifest was written under a different shard count;
    /// restarting with a new count would scramble routing.
    ShardCountMismatch {
        /// Shard count recorded in the manifest.
        manifest: u32,
        /// Shard count the service was started with.
        requested: u32,
    },
}

impl StorageError {
    pub(crate) fn corrupt(message: impl Into<String>) -> StorageError {
        StorageError::Corrupt(message.into())
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(m) => write!(f, "storage corruption: {m}"),
            StorageError::ShardCountMismatch {
                manifest,
                requested,
            } => write!(
                f,
                "shard count mismatch: manifest was written for {manifest} shard(s), \
                 service requested {requested}"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}
