//! Persistence: the partially loaded columnar state (including its
//! bitvector metadata) must survive a serialize/deserialize cycle with
//! identical query results — the "Parquet file on disk" path — and the
//! disk-touching tests must each own a unique, self-cleaning directory
//! (a fixed path collides the moment two test binaries run at once).

use ciao::{AdmissionPolicy, Loader, PushdownPlan};
use ciao_columnar::{read_table, write_table, Schema, Table};
use ciao_datagen::Dataset;
use ciao_engine::Executor;
use ciao_json::{RecordChunk, SharedRecord};
use ciao_optimizer::CostModel;
use ciao_predicate::{parse_query, Query};
use ciao_storage::{read_snapshot, write_snapshot, ScratchDir, ShardSnapshot};
use ciao_workload::{build_pool, WorkloadConfig};
use std::sync::Arc;

/// A partially loaded state: the table and parked records a `Loader`
/// made of 2k Yelp records under a 10-query workload's plan, and the
/// executor that queries it.
struct Loaded {
    table: Table,
    parked: Vec<SharedRecord>,
    executor: Executor,
    queries: Vec<Query>,
}

/// The loaded state every roundtrip test persists and reloads.
fn loaded() -> Loaded {
    let ndjson = Dataset::Yelp.generate_ndjson(31, 2_000);
    let all = RecordChunk::from_ndjson(&ndjson);
    let sample: Vec<_> = all
        .iter()
        .take(500)
        .filter_map(|r| ciao_json::parse(r).ok())
        .collect();
    let pool = build_pool(Dataset::Yelp);
    let mut cfg = WorkloadConfig::workload_a(Dataset::Yelp, 17);
    cfg.queries = 10;
    let queries = cfg.generate(&pool);

    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 20.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let policy = AdmissionPolicy::from_coverage(&plan.query_coverage);
    let mut loader = Loader::new(schema, &plan.ids(), policy, 1024);
    let prefilter = plan.prefilter();
    for chunk in all.split(1024) {
        loader.load_chunk(&chunk, &prefilter.run_chunk(&chunk));
    }
    let (table, parked, _) = loader.finish();
    let executor = Executor::new(plan.predicates.iter().map(|p| (p.clause.clone(), p.id)))
        .with_coverage(&plan.query_coverage);
    Loaded {
        table,
        parked,
        executor,
        queries,
    }
}

#[test]
fn loaded_state_roundtrips_through_bytes() {
    let l = loaded();

    // Serialize the columnar side, read it back, and query both with
    // the same executor.
    let bytes = write_table(&l.table);
    let reloaded = read_table(&bytes).expect("roundtrip");
    assert_eq!(reloaded.row_count(), l.table.row_count());

    for q in &l.queries {
        let live = l.executor.execute_count(&l.table, &l.parked, q);
        let disk = l.executor.execute_count(&reloaded, &l.parked, q);
        assert_eq!(
            live.count, disk.count,
            "query {} diverged after reload",
            q.name
        );
        assert_eq!(
            live.profile.used_skipping(),
            disk.profile.used_skipping(),
            "skipping decision diverged after reload"
        );
    }
}

#[test]
fn loaded_state_roundtrips_through_a_file_on_disk() {
    // The same roundtrip through an actual file — in a per-test unique
    // scratch directory. A fixed path here would collide the moment two
    // test binaries (or two parallel tests) persist at once; this test
    // also pins that the directory cleans up after itself.
    let l = loaded();
    let scratch = ScratchDir::new("persist-table");
    let path = scratch.path().join("table.bin");
    std::fs::write(&path, write_table(&l.table)).unwrap();
    let reloaded = read_table(&std::fs::read(&path).unwrap()).expect("disk roundtrip");
    assert_eq!(reloaded.row_count(), l.table.row_count());

    for q in &l.queries {
        assert_eq!(
            l.executor.execute_count(&l.table, &l.parked, q).count,
            l.executor.execute_count(&reloaded, &l.parked, q).count,
            "query {} diverged after file reload",
            q.name
        );
    }

    let dir = scratch.path().to_path_buf();
    drop(scratch);
    assert!(!dir.exists(), "scratch dir must remove itself on drop");
}

#[test]
fn shard_snapshot_roundtrips_on_disk() {
    // The storage layer's snapshot file must carry a real loaded state
    // (blocks, bitvector metadata, parked rows) bit-for-bit, with the
    // (shard, epochs, ceiling) identity recoverable from the file name
    // alone.
    let l = loaded();
    let table = &l.table;
    let snapshot = ShardSnapshot {
        shard: 3,
        sealed_epochs: 2,
        ceiling: 41,
        stats: ciao::LoadStats::default(),
        schema: table.schema().map(|s| Arc::new(s.clone())),
        blocks: table.blocks().to_vec(),
        parked: l
            .parked
            .iter()
            .map(|r| format!("{}\n", r.as_str()))
            .collect(),
    };

    let scratch = ScratchDir::new("persist-snap");
    let name = write_snapshot(scratch.path(), &snapshot).unwrap();
    assert_eq!((name.shard, name.epochs, name.ceiling), (3, 2, 41));
    let back = read_snapshot(&name.path).expect("snapshot roundtrip");
    assert_eq!(back, snapshot);
}

#[test]
fn plan_roundtrips_through_serde() {
    // The pushdown plan is what a real deployment persists/ships; it
    // must survive serde and rebuild an identical prefilter.
    let sample = Dataset::WinLog.generate(5, 300);
    let queries = vec![
        parse_query("q0", r#"level = "Error""#).unwrap(),
        parse_query("q1", r#"level = "Error" AND service = "CBS""#).unwrap(),
    ];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 5.0).unwrap();
    assert!(!plan.is_empty());

    let json = serde_json::to_string(&plan).unwrap();
    let back: PushdownPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), plan.len());
    assert_eq!(back.query_coverage, plan.query_coverage);

    // Both prefilters produce identical bitvectors.
    let chunk = RecordChunk::from_ndjson(&Dataset::WinLog.generate_ndjson(6, 500));
    let a = plan.prefilter().run_chunk(&chunk);
    let b = back.prefilter().run_chunk(&chunk);
    assert_eq!(a.bitvecs, b.bitvecs);
}
