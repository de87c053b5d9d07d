//! Beyond the paper: where a statement's per-shard scans should run.
//!
//! `ciao_service` prepares every shard of a statement on the caller's
//! thread — zone-prune, fused skip-mask, popcount — so it knows how
//! many rows survive before it reads one, and then either scans every
//! shard itself (*inline*) or keeps one and hands the rest to its
//! long-lived workers through the ingest queue (*hand-off*). This
//! experiment measures both on one fixed two-shard table, over
//! statements whose surviving-row count doubles from a few hundred to
//! the whole table, next to the per-statement `std::thread::scope`
//! fan-out the service used before (*spawn*, kept only here as the
//! reference). The row where hand-off first beats inline is the
//! crossover `ciao_service`'s `INLINE_MAX_SURVIVING_ROWS` is set from.
//!
//! The arms are built from the service's own public pieces —
//! [`Shard::pin`] / [`Shard::prepare`] / [`Shard::scan_plan`] and
//! [`IngestQueue::push_scan`] with a worker blocked in
//! [`IngestQueue::pop_wait`] — because the service's choice between
//! them is deliberately not switchable from outside.
//!
//! Block rows are surviving rows of sealed columnar blocks (`id < X`
//! on a table clustered by `id`, so zone maps leave a prefix of the
//! blocks); parked rows are raw JSON records an uncovered statement
//! must run the projected scan over, roughly a hundred times dearer
//! per row.

use ciao::{LoadStats, PushdownPlan};
use ciao_columnar::{Schema, Table};
use ciao_engine::{finalize, plan_query, PartialResult, QueryResult};
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_service::{IngestQueue, ScanJob, Shard, Work};
use ciao_sql::PhysicalPlan;
use std::sync::{mpsc, Arc};
use std::time::Instant;

const SHARDS: usize = 2;
/// Rows per block and per chunk: one chunk fills one block, so `id <
/// X` survives zone maps in whole blocks of this size.
const BLOCK_ROWS: usize = 128;
/// Block rows in the fixed table (both shards together).
const TABLE_ROWS: usize = 16_384;

/// Which side of the shards a row's statements scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Surviving rows of columnar blocks.
    Blocks,
    /// Parked raw records (the projected-scan fallback).
    Parked,
}

/// One statement size: median µs per statement under each arm.
#[derive(Debug, Clone)]
pub struct FanoutRow {
    /// What the statement scans.
    pub side: Side,
    /// Rows the prepare step reports as surviving, all shards.
    pub surviving_rows: usize,
    /// Every shard scanned on the caller's thread.
    pub inline_us: f64,
    /// One shard on the caller's thread, the other on the worker.
    pub handoff_us: f64,
    /// One scoped thread spawned and joined per shard.
    pub spawn_us: f64,
    /// Timed statements per arm.
    pub samples: usize,
}

fn record(id: usize) -> String {
    format!(r#"{{"id":{id},"v":{},"tag":"t{}"}}"#, id % 97, id % 13)
}

/// Nothing pushed: every ingested record is loaded, and every
/// statement is uncovered (it scans whatever is parked).
fn empty_plan() -> Arc<PushdownPlan> {
    Arc::new(PushdownPlan::manual(
        &[],
        &[],
        &[],
        &CostModel::default_uncalibrated(),
    ))
}

fn schema() -> Arc<Schema> {
    let sample: Vec<_> = (0..64)
        .map(|i| ciao_json::parse(&record(i)).expect("generated records parse"))
        .collect();
    Arc::new(Schema::infer(&sample).expect("schema infers"))
}

/// The fixed table: `TABLE_ROWS` records clustered by `id`, chunk `c`
/// on shard `c % SHARDS`, nothing pushed, everything loaded.
fn block_shards(schema: &Arc<Schema>) -> Vec<Arc<Shard>> {
    let plan = empty_plan();
    let shards: Vec<Arc<Shard>> = (0..SHARDS)
        .map(|_| {
            Arc::new(Shard::new(
                Arc::clone(&plan),
                Arc::clone(schema),
                BLOCK_ROWS,
            ))
        })
        .collect();
    let raw: Vec<String> = (0..TABLE_ROWS).map(record).collect();
    let chunks = RecordChunk::from_records(&raw)
        .expect("records frame")
        .split(BLOCK_ROWS);
    let prefilter = plan.prefilter();
    for (c, chunk) in chunks.iter().enumerate() {
        shards[c % SHARDS].ingest(chunk, &prefilter.run_chunk(chunk));
    }
    for shard in &shards {
        shard.seal_epoch();
    }
    shards
}

/// Shards holding nothing but `rows` parked records between them.
fn parked_shards(schema: &Arc<Schema>, rows: usize) -> Vec<Arc<Shard>> {
    let plan = empty_plan();
    (0..SHARDS)
        .map(|s| {
            let mut shard = Shard::new(Arc::clone(&plan), Arc::clone(schema), BLOCK_ROWS);
            let parked: Vec<String> = (0..rows).filter(|i| i % SHARDS == s).map(record).collect();
            let parked = RecordChunk::from_records(&parked).expect("records frame");
            shard.restore(Table::default(), parked, LoadStats::default(), 0);
            Arc::new(shard)
        })
        .collect()
}

fn merge(plan: &PhysicalPlan, partials: impl IntoIterator<Item = PartialResult>) -> QueryResult {
    let mut merged = PartialResult::empty(plan);
    for partial in partials {
        merged.merge(partial);
    }
    finalize(plan, merged)
}

fn inline(shards: &[Arc<Shard>], plan: &Arc<PhysicalPlan>) -> (QueryResult, usize) {
    let query = plan_query(plan);
    let mut surviving = 0;
    let partials: Vec<PartialResult> = shards
        .iter()
        .map(|shard| {
            let pin = shard.pin();
            let prepared = shard.prepare(&pin, &query);
            surviving += prepared.surviving_rows();
            shard.scan_plan(&pin, &prepared, plan)
        })
        .collect();
    (merge(plan, partials), surviving)
}

fn handoff(shards: &[Arc<Shard>], plan: &Arc<PhysicalPlan>, queue: &IngestQueue) -> QueryResult {
    let query = plan_query(plan);
    let prepared: Vec<_> = shards
        .iter()
        .map(|shard| {
            let pin = shard.pin();
            let prepared = shard.prepare(&pin, &query);
            (pin, prepared)
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let mut prepared = prepared.into_iter().enumerate();
    let (_, (own_pin, own_prepared)) = prepared.next().expect("two shards");
    for (i, (pin, prepared)) in prepared {
        let (shard, plan, tx) = (Arc::clone(&shards[i]), Arc::clone(plan), tx.clone());
        let job = ScanJob::new(move |_lane| {
            let _ = tx.send(shard.scan_plan(&pin, &prepared, &plan));
        });
        queue.push_scan(job).expect("the queue is open");
    }
    drop(tx);
    let own = shards[0].scan_plan(&own_pin, &own_prepared, plan);
    while let Some(job) = queue.try_pop_scan() {
        job.run(0);
    }
    merge(plan, std::iter::once(own).chain(rx))
}

/// The fan-out `Service::query_sql` ran before it had workers to hand
/// scans to: one scoped thread per shard, spawned and joined per
/// statement.
fn spawn(shards: &[Arc<Shard>], plan: &Arc<PhysicalPlan>) -> QueryResult {
    let partials: Vec<PartialResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(move || shard.execute_plan(plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard scan"))
            .collect()
    });
    merge(plan, partials)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the three arms round-robin on one statement, so drift hits
/// them alike and the worker is as asleep between hand-offs as a
/// service's is between large statements.
fn measure(
    side: Side,
    shards: &[Arc<Shard>],
    plan: &Arc<PhysicalPlan>,
    queue: &IngestQueue,
) -> FanoutRow {
    let (want, surviving_rows) = inline(shards, plan);
    let want = want.render();
    // About a quarter second per arm, within 30..=2000 statements.
    let probe = Instant::now();
    inline(shards, plan);
    let per = probe.elapsed().as_secs_f64().max(1e-6);
    let samples = ((0.25 / per) as usize).clamp(30, 2000);
    let mut times = [const { Vec::new() }; 3];
    for _ in 0..samples {
        for (arm, out) in times.iter_mut().enumerate() {
            let started = Instant::now();
            let got = match arm {
                0 => inline(shards, plan).0,
                1 => handoff(shards, plan, queue),
                _ => spawn(shards, plan),
            };
            out.push(started.elapsed().as_secs_f64() * 1e6);
            assert_eq!(got.render(), want, "every arm answers alike");
        }
    }
    let [inline_us, handoff_us, spawn_us] = times.map(|mut t| median(&mut t));
    FanoutRow {
        side,
        surviving_rows,
        inline_us,
        handoff_us,
        spawn_us,
        samples,
    }
}

/// Runs the sweep: block-row statements from one block per shard up
/// to the whole table, then parked-row statements from 32 to 2048
/// records.
pub fn run() -> Vec<FanoutRow> {
    let schema = schema();
    let queue = Arc::new(IngestQueue::new(1));
    let worker = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            while let Some(work) = queue.pop_wait() {
                match work {
                    Work::Scan(job) => job.run(1),
                    Work::Ingest(_) => unreachable!("nothing ingests through this queue"),
                }
            }
        })
    };

    let mut rows = Vec::new();
    let blocks = block_shards(&schema);
    let mut bound = BLOCK_ROWS * SHARDS;
    while bound <= TABLE_ROWS {
        let sql = format!("SELECT COUNT(*) FROM t WHERE id < {bound}");
        let plan = Arc::new(ciao_sql::compile(&sql, &schema).expect("statement compiles"));
        rows.push(measure(Side::Blocks, &blocks, &plan, &queue));
        bound *= 2;
    }
    let plan = Arc::new(
        ciao_sql::compile("SELECT COUNT(*) FROM t WHERE v < 50", &schema)
            .expect("statement compiles"),
    );
    for parked in [32, 128, 512, 2048] {
        let shards = parked_shards(&schema, parked);
        rows.push(measure(Side::Parked, &shards, &plan, &queue));
    }

    queue.close();
    worker.join().expect("scan worker");
    rows
}

/// The smallest measured surviving-row count on `side` from which
/// hand-off is at least as fast as inline on every larger one.
pub fn crossover(rows: &[FanoutRow], side: Side) -> Option<usize> {
    let side_rows: Vec<&FanoutRow> = rows.iter().filter(|r| r.side == side).collect();
    let first_win = side_rows
        .iter()
        .rposition(|r| r.handoff_us > r.inline_us)
        .map_or(0, |last_loss| last_loss + 1);
    side_rows.get(first_win).map(|r| r.surviving_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_and_prepare_counts_the_survivors() {
        let schema = schema();
        let shards = block_shards(&schema);
        let plan =
            Arc::new(ciao_sql::compile("SELECT COUNT(*) FROM t WHERE id < 1024", &schema).unwrap());
        let (answer, surviving) = inline(&shards, &plan);
        assert_eq!(answer.render(), "count(*):int\n1024");
        // Zone maps leave exactly the blocks below the bound.
        assert_eq!(surviving, 1024);
        assert_eq!(spawn(&shards, &plan).render(), answer.render());
        // No worker: the caller takes its own hand-off back.
        let queue = IngestQueue::new(1);
        assert_eq!(handoff(&shards, &plan, &queue).render(), answer.render());
    }

    #[test]
    fn crossover_is_the_first_size_handoff_keeps_winning_from() {
        let row = |surviving_rows, inline_us, handoff_us| FanoutRow {
            side: Side::Blocks,
            surviving_rows,
            inline_us,
            handoff_us,
            spawn_us: 0.0,
            samples: 1,
        };
        let rows = [
            row(256, 2.0, 9.0),
            row(512, 4.0, 3.9), // a lucky win below the crossover
            row(1024, 8.0, 9.5),
            row(2048, 16.0, 12.0),
            row(4096, 32.0, 20.0),
        ];
        assert_eq!(crossover(&rows, Side::Blocks), Some(2048));
        assert_eq!(crossover(&rows[..3], Side::Blocks), None);
        assert_eq!(crossover(&rows, Side::Parked), None);
    }
}
