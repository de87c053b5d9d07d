//! Per-shard state: an epochal partial-loading store with pinned,
//! unlocked reads.
//!
//! A shard seals **epochs**: ingest streams into
//! the active [`Loader`]; the first reader (or compaction tick) after
//! an ingest burst seals that epoch — its columnar fragment and parked
//! rows become one immutable entry appended to the shard's sealed
//! list, its [`LoadStats`] fold into the cumulative ones — and the
//! next ingest opens a fresh epoch.
//!
//! A reader never scans under the shard's lock. It **pins**
//! ([`Shard::pin`]): takes the lock only long enough to seal the
//! active epoch and clone the `Arc` of the sealed list, then prepares
//! and scans the pinned epochs unlocked ([`Shard::prepare`],
//! [`Shard::scan_plan`]) — every statement, a predicate query's
//! `COUNT(*)` included, as a physical plan. A pin is a snapshot: it holds every record
//! ingested before it and nothing ingested after, however long the
//! scan runs, and no half-sealed epoch is ever observable. Writers
//! (seal, compaction) publish a new list; they copy the list — never
//! the blocks, which epochs share — only while a reader still pins the
//! old one. So ingest never waits for a query, a slow ad-hoc scan never
//! stalls its shard, and a checkpoint streams from a pin.
//!
//! An epoch's parked rows are [`SharedRecord`]s: 16-byte handles into
//! the text of the chunks they arrived in (or, for the few parked rows
//! of a mostly loaded chunk, into one small copy), so parking copies
//! nothing. A chunk's text lives as long as one of its parked rows
//! does, and an epoch's rows never keep more than twice their own bytes
//! alive: when compaction leaves an epoch's remaining rows (a restored
//! PARKED page's, say) holding less than half the text they pin, it
//! copies them into one buffer of their own
//! ([`SharedRecord::bound_retained`]).
//! [`ShardSnapshot::parked_text_bytes`] reports what is kept alive.
//!
//! An epoch's parked rows carry a positional map ([`ParkedIndex`]),
//! built by the first scan of any pin that reads them, so later
//! statements never validate those records again; a pin hands them to
//! the scan typed by the shard's schema, which reads mapped records in
//! batches the block kernels filter. Compaction is the
//! only writer that changes an epoch's parked rows; it drops the map of
//! each epoch it drains, and the next scan builds it afresh.

use crate::compactor::{CompactionPolicy, CompactionStats};
use crate::telemetry::{names, ServiceTelemetry};
use ciao::{jit, LoadStats, Loader, PushdownPlan};
use ciao_client::ChunkFilterResult;
use ciao_columnar::{Block, Schema, Table};
use ciao_engine::{
    count_plan, finalize, plan_query, Executor, ParkedFragment, ParkedIndex, PartialResult,
    Prepared, QueryOutcome,
};
use ciao_json::{RecordChunk, SharedRecord};
use ciao_predicate::Query;
use ciao_sql::PhysicalPlan;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A point-in-time view of one shard, reported by
/// [`crate::Service::metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// Rows currently in columnar blocks (sealed epochs + the active
    /// epoch's loaded rows).
    pub rows: usize,
    /// Rows currently parked as raw JSON (sealed + active epoch).
    pub parked: usize,
    /// Cumulative loading counters across every epoch. Unlike
    /// `parked`, `load.parked_records` counts parking *events* and
    /// never decreases when compaction drains the store.
    pub load: LoadStats,
    /// Cumulative compaction counters.
    pub compaction: CompactionStats,
    /// Query executions that scanned this shard's parked
    /// store since its last compaction (the compactor's heat signal).
    pub heat: usize,
    /// Ingest epochs sealed so far.
    pub sealed_epochs: usize,
    /// Columnar blocks currently live in the sealed epochs (excluding
    /// the active epoch's unfinished blocks).
    pub sealed_blocks: usize,
    /// Bytes held by the sealed epochs' parked-record positional maps
    /// ([`ParkedIndex::bytes`]); an epoch has one once a statement
    /// has scanned its parked rows.
    pub parked_index_bytes: usize,
    /// Bytes of text the parked rows (sealed + active epoch) keep
    /// alive: each buffer they point into, counted once per epoch (a
    /// chunk's rows all land in one). At most twice their own bytes
    /// ([`ciao_json::MAX_RETAINED_PER_SHARED_BYTE`]).
    pub parked_text_bytes: usize,
}

impl ShardSnapshot {
    /// Fraction of this shard's live rows still parked as raw JSON.
    pub fn parked_ratio(&self) -> f64 {
        let total = self.rows + self.parked;
        if total == 0 {
            0.0
        } else {
            self.parked as f64 / total as f64
        }
    }
}

/// One sealed fragment: the blocks and parked rows of one ingest epoch
/// (or of one compaction pass). Immutable once published; a clone
/// shares the blocks.
#[derive(Debug, Clone)]
struct Epoch {
    table: Table,
    parked: Vec<SharedRecord>,
    /// Bytes of text `parked` keeps alive, set whenever `parked` is.
    parked_text: usize,
    /// The positional map over `parked`, built by the first scan that
    /// reads them and dropped whenever `parked` changes.
    index: OnceLock<ParkedIndex>,
}

/// Everything a shard has sealed, oldest epoch first.
#[derive(Debug, Clone, Default)]
struct Sealed {
    epochs: Vec<Arc<Epoch>>,
    rows: usize,
    parked: usize,
    stats: LoadStats,
    sealed_epochs: usize,
}

impl Sealed {
    fn push(&mut self, table: Table, mut parked: Vec<SharedRecord>) {
        if table.is_empty() && parked.is_empty() {
            return;
        }
        self.rows += table.row_count();
        self.parked += parked.len();
        let parked_text = SharedRecord::bound_retained(&mut parked);
        self.epochs.push(Arc::new(Epoch {
            table,
            parked,
            parked_text,
            index: OnceLock::new(),
        }));
    }

    /// Removes up to `n` parked rows, oldest first. Only the epochs it
    /// takes from are touched, and copied first if a reader pins them;
    /// the rows an epoch keeps are held to the same bound on the text
    /// they keep alive as when they were parked.
    fn take_parked(&mut self, n: usize) -> Vec<SharedRecord> {
        let mut batch = Vec::with_capacity(n.min(self.parked));
        for epoch in &mut self.epochs {
            let want = n - batch.len();
            if want == 0 {
                break;
            }
            if !epoch.parked.is_empty() {
                let epoch = Arc::make_mut(epoch);
                let take = want.min(epoch.parked.len());
                batch.extend(epoch.parked.drain(..take));
                epoch.parked_text = SharedRecord::bound_retained(&mut epoch.parked);
                // The map addresses records by position: rebuild it.
                epoch.index = OnceLock::new();
            }
        }
        self.epochs
            .retain(|e| !(e.parked.is_empty() && e.table.is_empty()));
        self.parked -= batch.len();
        batch
    }
}

/// A reader's hold on the epochs that were sealed when it pinned
/// ([`Shard::pin`]), and on the shard's schema. Cheap to clone and to
/// send to another thread; the epochs live until the last pin over them
/// drops.
#[derive(Debug, Clone)]
pub struct EpochPin(Arc<Sealed>, Arc<Schema>);

impl EpochPin {
    /// Every pinned block, oldest epoch first.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> + Clone {
        self.0.epochs.iter().flat_map(|e| e.table.blocks())
    }

    /// The pinned blocks, one slice per epoch (what a checkpoint's
    /// `SnapshotView` borrows).
    pub fn block_fragments(&self) -> Vec<&[Block]> {
        self.0.epochs.iter().map(|e| e.table.blocks()).collect()
    }

    /// The pinned parked rows, one slice per epoch.
    pub fn parked_fragments(&self) -> Vec<&[SharedRecord]> {
        self.0.epochs.iter().map(|e| &e.parked[..]).collect()
    }

    /// The pinned parked rows as the parked scan reads them: one
    /// fragment per epoch, each with the cell its positional map is
    /// built into by the first scan (of any pin) that reads it, and
    /// typed by the shard's schema, so its mapped records are read in
    /// batches the block kernels filter.
    pub fn parked_scan(&self) -> impl Iterator<Item = ParkedFragment<'_, SharedRecord>> + Clone {
        self.0
            .epochs
            .iter()
            .map(|e| ParkedFragment::indexed(&e.parked, &e.index).with_schema(&self.1))
    }

    /// The schema of the pinned blocks (`None` while there are none).
    pub fn schema(&self) -> Option<&Schema> {
        self.0.epochs.iter().find_map(|e| e.table.schema())
    }

    /// Rows in pinned columnar blocks.
    pub fn row_count(&self) -> usize {
        self.0.rows
    }

    /// Pinned parked rows.
    pub fn parked_count(&self) -> usize {
        self.0.parked
    }

    /// Cumulative load stats over the pinned epochs.
    pub fn stats(&self) -> LoadStats {
        self.0.stats
    }

    /// Epochs sealed when the pin was taken.
    pub fn sealed_epochs(&self) -> usize {
        self.0.sealed_epochs
    }
}

/// What the shard's lock guards: the active epoch and the handle to
/// the sealed list. Both are touched only briefly — a chunk load, a
/// seal, an `Arc` clone, a compaction batch.
#[derive(Debug)]
struct Active {
    /// The active ingest epoch (`None` between a seal and the next
    /// ingest).
    loader: Option<Loader>,
    sealed: Arc<Sealed>,
    compaction: CompactionStats,
}

/// One shard: a plan-sharing loading state with its own lock.
#[derive(Debug)]
pub struct Shard {
    plan: Arc<PushdownPlan>,
    schema: Arc<Schema>,
    block_size: usize,
    executor: Executor,
    active: Mutex<Active>,
    /// Parked-store scans since the last compaction. A statistic: it
    /// publishes no other data, so every access is `Relaxed`.
    heat: AtomicUsize,
    /// `(shard index, handles)` once the owning service attaches its
    /// telemetry; standalone shards run unobserved.
    telemetry: Option<(usize, Arc<ServiceTelemetry>)>,
}

impl Shard {
    /// Creates an empty shard sharing the service-wide plan.
    pub fn new(plan: Arc<PushdownPlan>, schema: Arc<Schema>, block_size: usize) -> Shard {
        let executor = Executor::new(plan.predicates.iter().map(|p| (p.clause.clone(), p.id)))
            .with_coverage(&plan.query_coverage);
        Shard {
            plan,
            schema,
            block_size,
            executor,
            active: Mutex::new(Active {
                loader: None,
                sealed: Arc::default(),
                compaction: CompactionStats::default(),
            }),
            heat: AtomicUsize::new(0),
            telemetry: None,
        }
    }

    /// Attaches service telemetry so epoch seals are counted and
    /// traced under this shard's index.
    pub fn attach_telemetry(&mut self, shard_index: usize, telemetry: Arc<ServiceTelemetry>) {
        self.telemetry = Some((shard_index, telemetry));
    }

    /// Restores recovered durable state into a freshly built shard:
    /// the sealed table, the parked store (every record of `parked`,
    /// sharing its text), cumulative load stats, and the sealed-epoch
    /// count the snapshot was taken at. Replayed WAL chunks are then
    /// ingested on top through the normal path.
    ///
    /// Panics when the shard already holds data — restore is a
    /// start-of-life operation, not a merge.
    pub fn restore(
        &mut self,
        table: Table,
        parked: RecordChunk,
        stats: LoadStats,
        sealed_epochs: usize,
    ) {
        let active = self.active.get_mut();
        assert!(
            active.loader.is_none() && active.sealed.epochs.is_empty(),
            "restore into a non-empty shard"
        );
        let mut sealed = Sealed {
            stats,
            sealed_epochs,
            ..Sealed::default()
        };
        sealed.push(table, parked.shared().collect());
        active.sealed = Arc::new(sealed);
    }

    /// Ingests one chunk with its client filter result into the active
    /// epoch (opening one if needed).
    pub fn ingest(&self, chunk: &RecordChunk, filter: &ChunkFilterResult) {
        let mut active = self.active.lock();
        let loader = active.loader.get_or_insert_with(|| {
            let policy = if self.plan.is_empty() {
                ciao::AdmissionPolicy::LoadAll
            } else {
                ciao::AdmissionPolicy::from_coverage(&self.plan.query_coverage)
            };
            Loader::new(
                Arc::clone(&self.schema),
                &self.plan.ids(),
                policy,
                self.block_size,
            )
        });
        loader.load_chunk(chunk, filter);
    }

    /// Seals the active epoch into the sealed list. Idempotent; cheap
    /// when no epoch is open.
    pub fn seal_epoch(&self) {
        self.seal(&mut self.active.lock());
    }

    fn seal(&self, active: &mut Active) {
        let Some(loader) = active.loader.take() else {
            return;
        };
        let (fragment, parked, stats) = loader.finish();
        // Copies the list (not the epochs) if a reader still pins it.
        let sealed = Arc::make_mut(&mut active.sealed);
        sealed.push(fragment, parked);
        sealed.stats.merge(&stats);
        sealed.sealed_epochs += 1;
        if let Some((index, t)) = &self.telemetry {
            t.epochs_sealed.inc();
            t.events().push(
                names::EVENT_EPOCH_SEAL,
                Some(*index),
                &[
                    ("loaded", stats.loaded_records as u64),
                    ("parked", stats.parked_records as u64),
                ],
            );
        }
    }

    /// Seals the active epoch and pins everything sealed so far: the
    /// returned pin holds every record ingested before this call and
    /// none ingested after. The shard's lock is released before it
    /// returns.
    pub fn pin(&self) -> EpochPin {
        let mut active = self.active.lock();
        self.seal(&mut active);
        EpochPin(Arc::clone(&active.sealed), Arc::clone(&self.schema))
    }

    /// Prepares a query's WHERE conjunction over a pin: routing,
    /// zone-prune and fused skip-masks, so [`Prepared::surviving_rows`]
    /// is known before anything is scanned. A SQL statement prepares
    /// its [`plan_query`].
    pub fn prepare(&self, pin: &EpochPin, query: &Query) -> Prepared {
        self.executor
            .prepare(query.clone(), pin.blocks(), pin.parked_count())
    }

    /// Runs `plan` over the survivors of a [`Shard::prepare`] over the
    /// same pin, returning this shard's mergeable partial. Takes no
    /// lock. Parked-store scans heat the shard for the compactor, and
    /// the first one over an epoch builds its positional map.
    pub fn scan_plan(
        &self,
        pin: &EpochPin,
        prepared: &Prepared,
        plan: &PhysicalPlan,
    ) -> PartialResult {
        let out = self
            .executor
            .scan_plan(prepared, pin.blocks(), pin.parked_scan(), plan);
        if out.profile.parked_rows_parsed > 0 {
            self.heat.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((_, t)) = &self.telemetry {
            t.parked_index_builds.add(out.parked_index_builds as u64);
        }
        out
    }

    /// Executes `SELECT COUNT(*) WHERE query` over everything ingested
    /// so far: pin, prepare, scan the [`count_plan`].
    pub fn execute(&self, query: &Query) -> QueryOutcome {
        let pin = self.pin();
        let plan = count_plan();
        let partial = self.scan_plan(&pin, &self.prepare(&pin, query), &plan);
        QueryOutcome::from_count(finalize(&plan, partial))
    }

    /// Executes a SQL physical plan over everything ingested so far:
    /// pin, prepare its [`plan_query`], scan.
    pub fn execute_plan(&self, plan: &PhysicalPlan) -> PartialResult {
        let pin = self.pin();
        self.scan_plan(&pin, &self.prepare(&pin, &plan_query(plan)), plan)
    }

    /// One compaction pass: promote up to `policy.batch` parked rows
    /// (oldest first) into new columnar blocks, published as one more
    /// epoch. Readers holding an older pin keep scanning what they
    /// pinned. Returns this tick's delta (also folded into the
    /// cumulative counters).
    pub fn compact(&self, policy: &CompactionPolicy) -> CompactionStats {
        let mut active = self.active.lock();
        self.seal(&mut active);
        let mut delta = CompactionStats::default();
        if !policy.eligible(active.sealed.parked, self.heat.load(Ordering::Relaxed)) {
            delta.idle_ticks = 1;
            active.compaction.merge(&delta);
            return delta;
        }
        let sealed = Arc::make_mut(&mut active.sealed);
        let batch = sealed.take_parked(policy.batch);
        let (fragment, survivors, stats) =
            jit::promote_parked(&self.plan, Arc::clone(&self.schema), batch, self.block_size);
        // Survivors (still-unparseable rows) go to the back with the
        // new epoch, so the next tick's window advances past them.
        sealed.push(fragment, survivors);
        if stats.promoted > 0 {
            delta.ticks = 1;
        } else {
            delta.idle_ticks = 1;
        }
        delta.promoted = stats.promoted;
        delta.unparseable = stats.still_parked;
        self.heat.store(0, Ordering::Relaxed);
        active.compaction.merge(&delta);
        delta
    }

    /// A point-in-time view, including the active (unsealed) epoch.
    pub fn snapshot(&self) -> ShardSnapshot {
        let active = self.active.lock();
        let loader = active.loader.as_ref();
        let epoch = loader.map(Loader::stats).unwrap_or_default();
        let sealed = &active.sealed;
        let mut load = sealed.stats;
        load.merge(&epoch);
        ShardSnapshot {
            rows: sealed.rows + epoch.loaded_records,
            parked: sealed.parked + epoch.parked_records,
            load,
            compaction: active.compaction,
            heat: self.heat.load(Ordering::Relaxed),
            sealed_epochs: sealed.sealed_epochs,
            sealed_blocks: sealed.epochs.iter().map(|e| e.table.blocks().len()).sum(),
            parked_index_bytes: sealed
                .epochs
                .iter()
                .filter_map(|e| e.index.get())
                .map(ParkedIndex::bytes)
                .sum(),
            parked_text_bytes: sealed.epochs.iter().map(|e| e.parked_text).sum::<usize>()
                + loader.map_or(0, Loader::parked_text_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_optimizer::CostModel;
    use ciao_predicate::parse_query;

    fn fixture() -> (Shard, Vec<RecordChunk>) {
        let raw: Vec<String> = (0..120)
            .map(|i| format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i))
            .collect();
        let sample: Vec<_> = raw
            .iter()
            .take(60)
            .map(|r| ciao_json::parse(r).unwrap())
            .collect();
        let queries = vec![parse_query("q0", "stars = 5").unwrap()];
        let plan = PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0)
            .unwrap();
        let schema = Arc::new(Schema::infer(&sample).unwrap());
        let shard = Shard::new(Arc::new(plan), schema, 16);
        let chunks = RecordChunk::from_records(&raw).unwrap().split(40);
        (shard, chunks)
    }

    fn filters(shard: &Shard, chunks: &[RecordChunk]) -> Vec<ChunkFilterResult> {
        let pf = shard.plan.prefilter();
        chunks.iter().map(|c| pf.run_chunk(c)).collect()
    }

    #[test]
    fn ingest_query_ingest_query_interleaves() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        let q = parse_query("q", "stars = 5").unwrap();

        shard.ingest(&chunks[0], &fs[0]);
        assert_eq!(shard.execute(&q).count, 8); // 40 records, 1/5 stars=5
        shard.ingest(&chunks[1], &fs[1]);
        shard.ingest(&chunks[2], &fs[2]);
        assert_eq!(shard.execute(&q).count, 24);
        assert_eq!(shard.snapshot().load.total(), 120);
    }

    #[test]
    fn seal_is_idempotent_and_lazy() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        shard.seal_epoch(); // no epoch open: no-op
        shard.ingest(&chunks[0], &fs[0]);
        shard.seal_epoch();
        let rows = shard.snapshot().rows;
        shard.seal_epoch();
        assert_eq!(shard.snapshot().rows, rows);
    }

    #[test]
    fn snapshot_sees_active_epoch() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        shard.ingest(&chunks[0], &fs[0]);
        let snap = shard.snapshot();
        assert_eq!(snap.rows + snap.parked, 40);
        assert!(snap.parked_ratio() > 0.0);
    }

    #[test]
    fn compaction_drains_parked_in_batches() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        for (c, f) in chunks.iter().zip(&fs) {
            shard.ingest(c, f);
        }
        let q5 = parse_query("q", "stars = 5").unwrap();
        let q2 = parse_query("q", "stars = 2").unwrap();
        let before5 = shard.execute(&q5).count;
        let before2 = shard.execute(&q2).count;
        let parked0 = shard.snapshot().parked;
        assert!(parked0 > 0);

        let policy = CompactionPolicy::default().with_batch(32);
        let mut ratios = vec![shard.snapshot().parked_ratio()];
        while shard.snapshot().parked > 0 {
            let delta = shard.compact(&policy);
            assert!(delta.promoted > 0);
            ratios.push(shard.snapshot().parked_ratio());
        }
        // Strictly decreasing parked ratio, identical answers.
        assert!(ratios.windows(2).all(|w| w[1] < w[0]), "{ratios:?}");
        assert_eq!(shard.execute(&q5).count, before5);
        assert_eq!(shard.execute(&q2).count, before2);
        assert_eq!(shard.snapshot().compaction.promoted, parked0);
        // Everything now columnar: uncovered queries parse nothing.
        assert_eq!(shard.execute(&q2).profile.parked_rows_parsed, 0);
    }

    #[test]
    fn heat_accumulates_on_parked_scans_and_resets_on_compaction() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        shard.ingest(&chunks[0], &fs[0]);
        let covered = parse_query("q", "stars = 5").unwrap();
        let uncovered = parse_query("q", "stars = 2").unwrap();
        shard.execute(&covered);
        assert_eq!(shard.snapshot().heat, 0, "covered queries add no heat");
        shard.execute(&uncovered);
        shard.execute(&uncovered);
        assert_eq!(shard.snapshot().heat, 2);

        // A heat-gated policy ignores a cold shard...
        let gated = CompactionPolicy::default().with_min_heat(3);
        assert_eq!(shard.compact(&gated).promoted, 0);
        shard.execute(&uncovered);
        // ...and fires once the threshold is reached, resetting heat.
        assert!(shard.compact(&gated).promoted > 0);
        assert_eq!(shard.snapshot().heat, 0);
    }

    #[test]
    fn sealed_epoch_and_block_counts_track_lifecycle() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        assert_eq!(shard.snapshot().sealed_epochs, 0);
        assert_eq!(shard.snapshot().sealed_blocks, 0);

        let q = parse_query("q", "stars = 5").unwrap();
        shard.ingest(&chunks[0], &fs[0]);
        // Ingest alone seals nothing; the first query does.
        assert_eq!(shard.snapshot().sealed_epochs, 0);
        shard.execute(&q);
        let snap = shard.snapshot();
        assert_eq!(snap.sealed_epochs, 1);
        assert!(snap.sealed_blocks > 0, "sealed rows live in blocks");

        // A sealed-then-resealed idempotent seal adds no epoch.
        shard.seal_epoch();
        assert_eq!(shard.snapshot().sealed_epochs, 1);

        // Each ingest→query cycle seals exactly one more epoch.
        shard.ingest(&chunks[1], &fs[1]);
        shard.execute(&q);
        assert_eq!(shard.snapshot().sealed_epochs, 2);
    }

    #[test]
    fn attached_telemetry_traces_epoch_seals() {
        let (mut shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        let t = crate::telemetry::ServiceTelemetry::new(4, 16);
        shard.attach_telemetry(3, Arc::clone(&t));
        shard.ingest(&chunks[0], &fs[0]);
        shard.seal_epoch();
        assert_eq!(
            t.snapshot()
                .counter(crate::telemetry::names::EPOCHS_SEALED_TOTAL),
            Some(1)
        );
        let events = t.events().snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, crate::telemetry::names::EVENT_EPOCH_SEAL);
        assert_eq!(events[0].shard, Some(3));
        let total: u64 = events[0].fields.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 40, "loaded + parked covers the whole chunk");
    }

    #[test]
    fn the_first_parked_scan_of_an_epoch_maps_it_and_compaction_drops_the_map() {
        let (mut shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        let t = crate::telemetry::ServiceTelemetry::new(1, 16);
        shard.attach_telemetry(0, Arc::clone(&t));
        let builds = || {
            t.snapshot()
                .counter(names::PARKED_INDEX_BUILDS_TOTAL)
                .unwrap()
        };
        let covered = parse_query("q", "stars = 5").unwrap();
        let uncovered = parse_query("q", "stars = 2").unwrap();
        let other = parse_query("q", r#"name = "u7""#).unwrap();
        let plan =
            ciao_sql::compile("SELECT COUNT(*) FROM t WHERE stars = 3", &shard.schema).unwrap();

        // A count of `query`, and the maps its scan built.
        let count = |query| {
            let pin = shard.pin();
            let count = count_plan();
            let partial = shard.scan_plan(&pin, &shard.prepare(&pin, query), &count);
            let builds = partial.parked_index_builds;
            (QueryOutcome::from_count(finalize(&count, partial)), builds)
        };

        shard.ingest(&chunks[0], &fs[0]);
        assert_eq!(count(&covered).1, 0);
        assert_eq!(shard.snapshot().parked_index_bytes, 0);
        let cold = count(&uncovered);
        assert_eq!(cold.1, 1);
        let bytes = shard.snapshot().parked_index_bytes;
        assert!(bytes > 0);
        // The next statements read the same epoch through its map.
        let warm = count(&uncovered);
        assert_eq!(warm.1, 0);
        assert_eq!(
            (warm.0.count, &warm.0.profile),
            (cold.0.count, &cold.0.profile)
        );
        assert_eq!(count(&other).1, 0);
        assert_eq!(shard.execute_plan(&plan).parked_index_builds, 0);
        assert_eq!(builds(), 1);

        // A second epoch gets a map of its own; the first keeps its.
        shard.ingest(&chunks[1], &fs[1]);
        assert_eq!(count(&uncovered).1, 1);
        assert!(shard.snapshot().parked_index_bytes > bytes);
        assert_eq!(builds(), 2);

        // Compaction drains part of the first epoch: its map goes with
        // the rows, and the next scan rebuilds it over the rest.
        let before = shard.execute(&uncovered).count;
        assert_eq!(
            shard
                .compact(&CompactionPolicy::default().with_batch(8))
                .promoted,
            8
        );
        let after = count(&uncovered);
        assert_eq!(after.1, 1);
        assert_eq!(after.0.count, before);
        assert_eq!(count(&uncovered).1, 0);
        assert_eq!(builds(), 3);
    }

    /// A chunk of 1024 records whose first `parked` have `stars = 1`
    /// (parked under the fixture's plan) and the rest `stars = 5`.
    fn chunk_parking(parked: usize) -> RecordChunk {
        let records: Vec<String> = (0..1024)
            .map(|i| {
                let stars = if i < parked { 1 } else { 5 };
                format!(r#"{{"stars":{stars},"name":"u{i}"}}"#)
            })
            .collect();
        RecordChunk::from_records(&records).unwrap()
    }

    #[test]
    fn parked_rows_keep_at_most_twice_their_text_alive() {
        // One parked record in 1024 is copied out: its chunk is freed.
        let (shard, _) = fixture();
        let chunk = chunk_parking(1);
        shard.ingest(&chunk, &shard.plan.prefilter().run_chunk(&chunk));
        let snap = shard.snapshot();
        assert_eq!(snap.parked, 1);
        assert!(snap.parked_text_bytes > 0);
        assert!(snap.parked_text_bytes <= 2 * chunk.record(0).len());
        shard.seal_epoch();
        assert_eq!(shard.snapshot().parked_text_bytes, snap.parked_text_bytes);

        // 99% parked: the records share the chunk, counted once.
        let (shard, _) = fixture();
        let chunk = chunk_parking(1014);
        shard.ingest(&chunk, &shard.plan.prefilter().run_chunk(&chunk));
        let snap = shard.snapshot();
        assert_eq!(snap.parked, 1014);
        assert_eq!(snap.parked_text_bytes, chunk.as_ndjson().len());
    }

    /// The bytes of the parked rows a pin of `shard` sees.
    fn parked_bytes(shard: &Shard) -> usize {
        let pin = shard.pin();
        let fragments = pin.parked_fragments();
        fragments
            .iter()
            .flat_map(|f| f.iter())
            .map(|r| r.as_str().len())
            .sum()
    }

    #[test]
    fn compaction_frees_a_chunk_once_its_parked_rows_hold_under_half() {
        let (shard, _) = fixture();
        let chunk = chunk_parking(900);
        shard.ingest(&chunk, &shard.plan.prefilter().run_chunk(&chunk));
        let whole = chunk.as_ndjson().len();
        assert_eq!(shard.snapshot().parked_text_bytes, whole);
        // While the remaining rows hold half the chunk, they share it...
        let policy = CompactionPolicy::default();
        assert_eq!(shard.compact(&policy.with_batch(200)).promoted, 200);
        assert_eq!(shard.snapshot().parked_text_bytes, whole);
        // ...below that they are copied out, and the chunk is freed...
        assert_eq!(shard.compact(&policy.with_batch(699)).promoted, 699);
        assert_eq!(shard.snapshot().parked_text_bytes, parked_bytes(&shard));
        let text = chunk.as_ndjson().as_bytes().as_ptr_range();
        let pin = shard.pin();
        let left = pin.parked_fragments().concat();
        assert_eq!(left.len(), 1);
        assert!(!text.contains(&left[0].as_str().as_ptr()));
        drop(pin);
        // ...and the last one frees its copy.
        assert_eq!(shard.compact(&policy.with_batch(1)).promoted, 1);
        let snap = shard.snapshot();
        assert_eq!((snap.parked, snap.parked_text_bytes), (0, 0));
    }

    #[test]
    fn a_restored_page_stays_bounded_while_compaction_drains_it() {
        let (mut shard, _) = fixture();
        let page: String = (0..3000)
            .map(|i| format!("{{\"stars\":{},\"name\":\"r{i}\"}}\n", i % 5 + 1))
            .collect();
        let restored = RecordChunk::from_lines_owned(page.clone());
        shard.restore(Table::default(), restored, LoadStats::default(), 0);
        assert_eq!(shard.snapshot().parked_text_bytes, page.len());
        let policy = CompactionPolicy::default().with_batch(256);
        for _ in 0..3000 / 256 {
            assert_eq!(shard.compact(&policy).promoted, 256);
            let snap = shard.snapshot();
            let own = parked_bytes(&shard);
            assert!(snap.parked_text_bytes <= 2 * own, "{snap:?} vs {own}");
        }
        assert_eq!(shard.compact(&policy).promoted, 3000 % 256);
        let snap = shard.snapshot();
        assert_eq!((snap.parked, snap.parked_text_bytes), (0, 0));
    }

    #[test]
    fn unparseable_rows_rotate_not_wedge() {
        let (mut shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        // Plant garbage at the *front* of the parked store.
        shard.restore(
            Table::default(),
            RecordChunk::from_records(&["not json {"]).unwrap(),
            LoadStats::default(),
            0,
        );
        shard.ingest(&chunks[0], &fs[0]);
        let live = shard.snapshot().parked - 1;
        let policy = CompactionPolicy::default().with_batch(8);
        for _ in 0..20 {
            if shard.snapshot().parked <= 1 {
                break;
            }
            shard.compact(&policy);
        }
        let snap = shard.snapshot();
        assert_eq!(snap.parked, 1, "only the garbage row survives");
        assert_eq!(snap.compaction.promoted, live);
        assert!(snap.compaction.unparseable >= 1);
    }

    #[test]
    fn a_pin_is_a_snapshot_that_writers_neither_change_nor_wait_for() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        let uncovered = parse_query("q", "stars = 2").unwrap();
        shard.ingest(&chunks[0], &fs[0]);

        let pin = shard.pin();
        let plan = count_plan();
        let count = |prepared: &Prepared| {
            QueryOutcome::from_count(finalize(&plan, shard.scan_plan(&pin, prepared, &plan)))
        };
        let prepared = shard.prepare(&pin, &uncovered);
        let before = count(&prepared);
        assert_eq!(before.count, 8, "40 records, 1/5 stars = 2, all parked");
        assert_eq!(before.profile.parked_rows_parsed, pin.parked_count() as u64);

        // While the reader holds its pin, another thread ingests into,
        // seals and compacts the same shard. The join returning is the
        // point: none of it waited for the pin to go away.
        let compacted = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    shard.ingest(&chunks[1], &fs[1]);
                    shard.seal_epoch();
                    shard.compact(&CompactionPolicy::default().with_batch(16))
                })
                .join()
                .unwrap()
        });
        assert_eq!(compacted.promoted, 16, "rows the pin still reads as parked");

        // The pinned reader answers from the old epoch, row for row —
        // also when the same prepared scan simply runs again.
        assert_eq!(pin.row_count() + pin.parked_count(), 40);
        for prepared in [&prepared, &shard.prepare(&pin, &uncovered)] {
            let again = count(prepared);
            assert_eq!(again.count, before.count);
            assert_eq!(again.profile, before.profile);
        }
        // The next statement sees everything, compaction included.
        let after = shard.execute(&uncovered);
        assert_eq!(after.count, 16);
        assert_eq!(
            after.profile.parked_rows_parsed + 16,
            2 * before.profile.parked_rows_parsed,
            "16 of the parked rows are columnar now"
        );
        assert_eq!(shard.snapshot().load.total(), 80);
    }

    #[test]
    fn scans_take_no_shard_lock() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        shard.ingest(&chunks[0], &fs[0]);
        let plan =
            ciao_sql::compile("SELECT COUNT(*) FROM t WHERE stars = 2", &shard.schema).unwrap();
        let query = plan_query(&plan);
        let pin = shard.pin();

        // Stand in for an ingest that never finishes: hold the lock
        // ingest, seal and compaction take. Preparing and scanning a
        // pin must complete regardless (a lock would hang here).
        let ingesting = shard.active.lock();
        let partials = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let prepared = shard.prepare(&pin, &query);
                    [&plan, &count_plan()].map(|plan| shard.scan_plan(&pin, &prepared, plan))
                })
                .join()
                .unwrap()
        });
        drop(ingesting);
        for partial in partials {
            assert_eq!(partial.profile.total_matched(), 8);
        }
        assert_eq!(shard.snapshot().heat, 2, "both scans read parked rows");
    }

    #[test]
    fn no_pin_ever_observes_a_half_sealed_epoch() {
        let (shard, chunks) = fixture();
        let fs = filters(&shard, &chunks);
        let rounds = 200;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..rounds {
                    shard.ingest(&chunks[i % 3], &fs[i % 3]);
                }
            });
            // Whatever instant a pin lands on, it holds whole chunks:
            // blocks, parked rows and load stats of the same epochs.
            let mut last = 0;
            while !writer.is_finished() || last < rounds * 40 {
                let pin = shard.pin();
                let held = pin.row_count() + pin.parked_count();
                assert_eq!(held % 40, 0, "a pin holds whole 40-record chunks");
                assert_eq!(pin.stats().total(), held);
                assert_eq!(
                    pin.blocks().map(Block::row_count).sum::<usize>(),
                    pin.row_count()
                );
                assert_eq!(
                    pin.parked_fragments()
                        .iter()
                        .map(|f| f.len())
                        .sum::<usize>(),
                    pin.parked_count()
                );
                assert!(held >= last, "pins only move forward");
                last = held;
            }
        });
        assert_eq!(shard.snapshot().load.total(), rounds * 40);
    }
}
