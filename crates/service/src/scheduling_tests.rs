//! Who ingests, and in what order: every thread that would wait for
//! ingest pops and ingests queued chunks itself, and each shard applies
//! its chunks one at a time in seq order whichever threads pop them —
//! so a shard's rows, and a float sum over them, come out the same on
//! every run; a service without workers never stalls on a full queue;
//! and a producer's helping does not disturb a checkpoint.

use super::*;
use ciao_columnar::Cell;
use ciao_optimizer::CostModel;
use ciao_predicate::{eval_query, parse_query};

/// Record `i`: a unique `id`, a `score` whose magnitude swings over
/// six decades (so a float sum depends on its addition order), and
/// `stars` in 1..=5.
fn record(i: u64) -> String {
    let score =
        (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64 / 7.0 * 10f64.powi((i % 7) as i32 - 3);
    format!(r#"{{"id":{i},"score":{score:?},"stars":{}}}"#, i % 5 + 1)
}

/// Chunk `c` of `len` records, ids `c * len ..`.
fn chunk(c: u64, len: u64) -> RecordChunk {
    let records: Vec<String> = (c * len..(c + 1) * len).map(record).collect();
    RecordChunk::from_records(&records).unwrap()
}

/// A 2-shard service over `record`'s shape. Budget 0 loads every
/// record into blocks; a positive budget pushes `stars = 5` and parks
/// the rest.
fn service(
    workers: usize,
    capacity: usize,
    budget: f64,
    storage: Option<&std::path::Path>,
) -> Service {
    service_on(2, workers, capacity, budget, storage)
}

/// [`service`] with `shards` shards.
fn service_on(
    shards: usize,
    workers: usize,
    capacity: usize,
    budget: f64,
    storage: Option<&std::path::Path>,
) -> Service {
    let sample: Vec<_> = (0..200)
        .map(|i| ciao_json::parse(&record(i)).unwrap())
        .collect();
    let queries = [parse_query("q", "stars = 5").unwrap()];
    let plan = PushdownPlan::build(
        &queries,
        &sample,
        &CostModel::default_uncalibrated(),
        budget,
    )
    .unwrap();
    let mut config = ServiceConfig::default()
        .with_shards(shards)
        .with_workers(workers)
        .with_queue_capacity(capacity)
        .with_block_size(64);
    if let Some(dir) = storage {
        config = config.with_storage(ciao_storage::StorageConfig::new(dir));
    }
    Service::start(plan, Arc::new(Schema::infer(&sample).unwrap()), config)
}

/// Every id in `shard`'s blocks, in block order.
fn shard_ids(service: &Service, shard: usize) -> Vec<i64> {
    let pin = service.inner.shards[shard].pin();
    assert_eq!(pin.parked_count(), 0, "budget 0 parks nothing");
    pin.blocks()
        .flat_map(|block| {
            (0..block.row_count()).map(move |row| match block.cell(row, "id") {
                Cell::Int(id) => id,
                other => panic!("id cell {other:?}"),
            })
        })
        .collect()
}

#[test]
fn each_shard_applies_its_chunks_in_seq_order_under_any_worker_count() {
    const PRODUCERS: u64 = 4;
    const CHUNKS_EACH: u64 = 12;
    const LEN: u64 = 20;
    for workers in [0, 1, 3] {
        for capacity in [1, 2] {
            let service = service(workers, capacity, 0.0, None);
            let done = std::sync::atomic::AtomicBool::new(false);
            // (seq, shard, first id) of every accepted chunk.
            let accepted: Vec<(u64, usize, u64)> = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut last = 0;
                    while !done.load(Ordering::SeqCst) {
                        let count = service.query_sql("SELECT COUNT(*) FROM t").unwrap();
                        let SqlValue::Int(count) = count.rows[0][0] else {
                            panic!("count is an int");
                        };
                        assert!(count >= last, "a later statement sees no fewer rows");
                        last = count;
                    }
                });
                let producers: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let service = &service;
                        scope.spawn(move || {
                            (0..CHUNKS_EACH)
                                .map(|k| {
                                    let c = p * CHUNKS_EACH + k;
                                    let chunk = chunk(c, LEN);
                                    let filter = service.prefilter().run_chunk(&chunk);
                                    match service.enqueue_wait(chunk, filter) {
                                        EnqueueResult::Enqueued { seq, shard } => {
                                            (seq, shard, c * LEN)
                                        }
                                        full => panic!("refused: {full:?}"),
                                    }
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let accepted = producers
                    .into_iter()
                    .flat_map(|p| p.join().unwrap())
                    .collect();
                done.store(true, Ordering::SeqCst);
                reader.join().unwrap();
                accepted
            });
            service.drain();
            let mut accepted = accepted;
            accepted.sort_unstable();
            for shard in 0..2 {
                let expected: Vec<i64> = accepted
                    .iter()
                    .filter(|(_, s, _)| *s == shard)
                    .flat_map(|&(_, _, first)| (first..first + LEN).map(|id| id as i64))
                    .collect();
                assert_eq!(
                    shard_ids(&service, shard),
                    expected,
                    "{workers} workers, capacity {capacity}: shard {shard} out of seq order"
                );
            }
            let m = service.metrics();
            assert_eq!(m.ingested_chunks, PRODUCERS * CHUNKS_EACH);
            if workers == 0 {
                assert_eq!(m.helped_chunks, m.ingested_chunks, "no worker, all helped");
            }
            service.shutdown();
        }
    }
}

#[test]
fn a_float_sum_is_bit_identical_run_to_run_with_three_workers() {
    // One producer fixes the seq order, and with it each shard's
    // chunks; what is left to chance is only which worker applies a
    // shard's next chunk, and when. The chunks are filtered up front
    // and the queue holds them all, so they arrive faster than three
    // workers take them, and two workers often hold chunks of one
    // shard at once.
    let run = || {
        let service = service(3, 64, 0.0, None);
        let prefilter = service.prefilter();
        let chunks: Vec<_> = (0..40)
            .map(|c| {
                let chunk = chunk(c, 25);
                let filter = prefilter.run_chunk(&chunk);
                (chunk, filter)
            })
            .collect();
        for (chunk, filter) in chunks {
            assert!(service.enqueue_wait(chunk, filter).is_enqueued());
        }
        let result = service
            .query_sql("SELECT SUM(score), AVG(score) FROM t")
            .unwrap();
        let bits: Vec<u64> = result.rows[0]
            .iter()
            .map(|v| match v {
                SqlValue::Float(f) => f.to_bits(),
                other => panic!("float aggregate, got {other:?}"),
            })
            .collect();
        service.shutdown();
        bits
    };
    let first = run();
    for i in 1..20 {
        assert_eq!(run(), first, "run {i} summed in another order");
    }
}

#[test]
fn a_full_queue_without_workers_is_emptied_by_its_producer() {
    let service = service(0, 1, 10.0, None);
    let records: Vec<_> = (0..50 * 16)
        .map(|i| ciao_json::parse(&record(i)).unwrap())
        .collect();
    // No drain: every chunk but the last is ingested by the
    // producer's own refused pushes, where it used to wait forever.
    for c in 0..50 {
        let chunk = chunk(c, 16);
        let filter = service.prefilter().run_chunk(&chunk);
        assert!(service.enqueue_wait(chunk, filter).is_enqueued());
    }
    let m = service.metrics();
    assert_eq!(m.ingested_chunks, 49);
    assert_eq!(m.helped_chunks, 49);
    assert_eq!(m.queue_depth, 1);
    let t = service.telemetry().unwrap();
    assert_eq!(t.ingest_helped.get(), 49);
    assert_eq!(t.enqueue_wait.count(), 50);
    // Ingesting is not waiting.
    assert!(m.blocked < Duration::from_millis(20), "{:?}", m.blocked);
    for text in ["stars = 5", "stars = 2", "stars > 1 AND id < 400"] {
        let q = parse_query("q", text).unwrap();
        let truth = records.iter().filter(|r| eval_query(&q, r)).count();
        assert_eq!(service.query(&q).count, truth, "{text}");
    }
    // The statement's drain ingested the last chunk on its own lane.
    assert_eq!(service.metrics().helped_chunks, 50);
    service.query_sql("SELECT COUNT(*) FROM t").unwrap();
    let chunk = chunk(50, 16);
    let filter = service.prefilter().run_chunk(&chunk);
    assert!(service.enqueue(chunk, filter).is_enqueued());
    service.query_sql("SELECT COUNT(*) FROM t").unwrap();
    let trace = service.last_query_trace().unwrap();
    let ingest: Vec<_> = trace
        .spans()
        .iter()
        .filter(|s| s.name() == "ingest")
        .collect();
    assert_eq!(ingest.len(), 1);
    assert_eq!(ingest[0].track(), 0);
    assert!(ingest[0]
        .attrs()
        .contains(&("seq", ciao_telemetry::AttrValue::Int(50))));
}

#[test]
fn dropping_a_one_shard_backlog_with_four_workers_joins_them_all() {
    // One shard keeps one chunk in flight, so three of the four
    // workers wait on a busy shard when the drop closes the queue;
    // each must still be woken to see the backlog end.
    for round in 0..5 {
        let service = service_on(1, 4, 64, 0.0, None);
        // Filtered up front, so the chunks arrive far faster than one
        // shard's ingest takes them and the drop finds a backlog.
        let chunks: Vec<_> = (0..40)
            .map(|c| {
                let chunk = chunk(c, 200);
                let filter = service.prefilter().run_chunk(&chunk);
                (chunk, filter)
            })
            .collect();
        for (chunk, filter) in chunks {
            assert!(service.enqueue(chunk, filter).is_enqueued());
        }
        assert!(
            service.metrics().queue_depth > 0,
            "round {round}: no backlog"
        );
        let (dropped, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(service);
            dropped.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("round {round}: dropping the service never joined"));
    }
}

#[test]
fn a_helping_producer_beside_repeated_checkpoints_recovers_to_the_oracle() {
    const CHUNKS: u64 = 60;
    const LEN: u64 = 16;
    let records: Vec<_> = (0..CHUNKS * LEN)
        .map(|i| ciao_json::parse(&record(i)).unwrap())
        .collect();
    let queries: Vec<_> = ["stars = 5", "stars = 3", "id >= 100 AND stars < 3"]
        .iter()
        .map(|text| parse_query("q", text).unwrap())
        .collect();
    for workers in [0, 1] {
        let dir = ciao_storage::ScratchDir::new("svc-helping-checkpoints");
        let service = service(workers, 1, 10.0, Some(dir.path()));
        let checkpoints = std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                for c in 0..CHUNKS {
                    let chunk = chunk(c, LEN);
                    let filter = service.prefilter().run_chunk(&chunk);
                    assert!(service.enqueue_wait(chunk, filter).is_enqueued());
                }
            });
            let mut checkpoints = 0;
            while !producer.is_finished() {
                service.checkpoint().expect("storage is on");
                checkpoints += 1;
            }
            producer.join().unwrap();
            checkpoints
        });
        assert!(checkpoints > 0);
        if workers == 0 {
            let m = service.metrics();
            assert_eq!(
                m.helped_chunks, m.ingested_chunks,
                "nothing ran on a worker"
            );
        }
        // No final checkpoint: whatever the last one missed comes back
        // from the write-ahead log.
        drop(service);
        let recovered = self::service(workers, 1, 10.0, Some(dir.path()));
        assert_eq!(
            recovered.metrics().load().total() as u64,
            CHUNKS * LEN,
            "{workers} workers: every acked record, once"
        );
        for q in &queries {
            let truth = records.iter().filter(|r| eval_query(q, r)).count();
            assert_eq!(recovered.query(q).count, truth, "{workers} workers");
        }
        recovered.shutdown();
    }
}
