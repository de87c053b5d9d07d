//! The fan-out's guarantees, driven through the private dispatch with
//! the decision forced: whichever thread scans a shard, the statement
//! answers the same bytes with the same profile, and that profile
//! agrees with what is known of the data without the engine; no
//! configuration grows a thread; a checkpoint in flight does not hold
//! a reader up.

use super::*;
use ciao_engine::QueryProfile;
use ciao_optimizer::CostModel;
use ciao_predicate::{parse_clause, parse_query};
use proptest::prelude::*;

/// The golden suite's 240 records (`tests/sql_golden.rs`): `stars`
/// clustered in runs of 48, `email` NULL on every 7th record.
fn dataset() -> Vec<String> {
    (0..240)
        .map(|i| {
            let email = if i % 7 == 0 {
                "null".to_owned()
            } else {
                format!(r#""u{i}@example.com""#)
            };
            format!(
                concat!(
                    r#"{{"id":{},"stars":{},"score":{},"name":"user{:03}","#,
                    r#""city":"{}","active":{},"email":{},"payload":{{"tag":{}}}}}"#
                ),
                i,
                i / 48 + 1,
                (i % 20) as f64 * 0.5,
                i,
                ["Amsterdam", "Boston", "Chicago", "Denver"][i % 4],
                i % 3 == 0,
                email,
                i % 2,
            )
        })
        .collect()
}

/// The golden suite's service shape (`stars = 5` and `active = true`
/// pushed, blocks of 16, chunks of 48) at a given topology.
fn golden_service(shards: usize, workers: usize) -> Service {
    let records = dataset();
    let sample: Vec<_> = records
        .iter()
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![
        parse_query("q0", "stars = 5").unwrap(),
        parse_query("q1", "active = true").unwrap(),
    ];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(shards)
            .with_workers(workers)
            .with_block_size(16),
    );
    for chunk in RecordChunk::from_records(&records).unwrap().split(48) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
    }
    service.drain();
    service
}

/// The golden services' pushed clauses. Each is a workload query's
/// whole pushed set, so a WHERE holding either skips the parked side.
const PUSHED: &[&str] = &["stars = 5", "active = true"];

/// Golden records `query` holds on, by typed evaluation.
fn oracle_count(query: &Query) -> u64 {
    dataset()
        .iter()
        .filter(|r| ciao_predicate::eval_query(query, &ciao_json::parse(r).unwrap()))
        .count() as u64
}

/// Holds a statement's profile to what is known without the engine:
/// every block row is scanned or skipped exactly once; the parked side
/// reads every parked record the service holds, or none when the WHERE
/// holds a pushed clause; and the matches are `eval_query`'s count.
fn check_facts(service: &Service, query: &Query, profile: &QueryProfile) -> Result<(), String> {
    let m = service.metrics();
    let rows: usize = m.shards.iter().map(|s| s.rows).sum();
    let covered = PUSHED
        .iter()
        .any(|c| query.clauses.contains(&parse_clause(c).unwrap()));
    let parked = if covered { 0 } else { m.parked() };
    let p = profile;
    let got = (
        p.rows_scanned + p.rows_skipped_zone + p.rows_skipped_mask,
        p.parked_rows_parsed,
        p.total_matched(),
    );
    let want = (rows as u64, parked as u64, oracle_count(query));
    if got != want {
        return Err(format!(
            "`{query}`: (rows, parked read, matched) = {got:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// What a statement returned, down to the bytes and the profile.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `render()`, or the caret-annotated error.
    rendered: String,
    /// The merged profile (`None` for an error).
    profile: Option<QueryProfile>,
}

fn observe(service: &Service, sql: &str, forced: Dispatch) -> Observed {
    match service.query_sql_via(sql, Some(forced)) {
        Ok(r) => Observed {
            rendered: r.render(),
            profile: Some(r.profile),
        },
        Err(e) => Observed {
            rendered: e.render(sql),
            profile: None,
        },
    }
}

/// Inline, hand-off to a live worker, hand-off with no worker (the
/// caller takes every scan back), on three shards, and a 1-shard
/// service.
struct Fleet {
    sharded: Service,
    workerless: Service,
    single: Service,
}

impl Fleet {
    fn start() -> Fleet {
        Fleet {
            sharded: golden_service(3, 1),
            workerless: golden_service(3, 0),
            single: golden_service(1, 0),
        }
    }

    /// Runs `sql` through every forced dispatch, each held to the
    /// inline run and, when it scanned, to [`check_facts`].
    fn check(&self, sql: &str) -> Result<(), String> {
        let inline = observe(&self.sharded, sql, Dispatch::Inline);
        // The WHERE conjunction of a statement that scans.
        let query = match ciao_sql::parse(sql) {
            Ok(Statement::Explain { analyze: false, .. }) | Err(_) => None,
            Ok(statement) => ciao_sql::plan(&statement, &self.sharded.schema)
                .ok()
                .map(|plan| plan_query(&plan)),
        };
        if let (Some(query), Some(profile)) = (&query, &inline.profile) {
            check_facts(&self.sharded, query, profile)?;
        }
        for (what, other) in [
            (
                "hand-off to a worker",
                observe(&self.sharded, sql, Dispatch::Handoff),
            ),
            (
                "hand-off without workers",
                observe(&self.workerless, sql, Dispatch::Handoff),
            ),
            ("one shard", observe(&self.single, sql, Dispatch::Inline)),
        ] {
            if other != inline {
                return Err(format!(
                    "`{sql}`: {what} diverged from inline\n{other:#?}\nvs\n{inline:#?}"
                ));
            }
            if let (Some(query), Some(profile)) = (&query, &other.profile) {
                check_facts(&self.single, query, profile).map_err(|e| format!("{what}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Counts `query` through every forced dispatch of [`Fleet::check`]
    /// and holds each to typed evaluation over the golden records and
    /// to [`check_facts`].
    fn check_count(&self, query: &Query) -> Result<(), String> {
        let truth = oracle_count(query) as usize;
        let inline = observe_count(&self.sharded, query, Dispatch::Inline);
        if inline.0 != truth {
            return Err(format!("`{query}`: counted {}, truth {truth}", inline.0));
        }
        check_facts(&self.sharded, query, &inline.1)?;
        for (what, other) in [
            (
                "hand-off to a worker",
                observe_count(&self.sharded, query, Dispatch::Handoff),
            ),
            (
                "hand-off without workers",
                observe_count(&self.workerless, query, Dispatch::Handoff),
            ),
            (
                "one shard",
                observe_count(&self.single, query, Dispatch::Inline),
            ),
        ] {
            if other != inline {
                return Err(format!(
                    "`{query}`: {what} diverged from inline\n{other:#?}\nvs\n{inline:#?}"
                ));
            }
            check_facts(&self.single, query, &other.1).map_err(|e| format!("{what}: {e}"))?;
        }
        Ok(())
    }
}

/// A count's answer and its profile.
fn observe_count(service: &Service, query: &Query, forced: Dispatch) -> (usize, QueryProfile) {
    let out = service.query_via(query, Some(forced));
    (out.count, out.profile)
}

#[test]
fn golden_corpus_is_dispatch_invariant() {
    let fleet = Fleet::start();
    let corpus = include_str!("../../../tests/support/sql_conformance.sql");
    let mut statements = 0;
    for sql in corpus
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("--"))
    {
        fleet.check(sql).unwrap();
        statements += 1;
    }
    assert!(statements >= 40, "the corpus was read: {statements}");
    // The facts' parked side is not vacuous.
    assert!(fleet.single.metrics().parked() > 0);
    // The forced decisions really took both paths.
    let t = fleet.sharded.telemetry().unwrap();
    assert!(t.query_inline.get() > 0 && t.query_handoff.get() > 0);
    assert!(t.handoff_wait.count() > 0, "every hand-off timed its wait");
}

/// WHERE clauses a workload over the golden dataset could hold: the
/// two pushed ones, plus unpushed ranges, equalities and NULL tests.
const CLAUSES: &[&str] = &[
    "stars = 5",
    "active = true",
    "stars >= 3",
    "stars < 2",
    "id < 100",
    "id >= 200",
    "score < 4.0",
    r#"city = "Boston""#,
    r#"city IN ("Chicago", "Denver")"#,
    "email IS NOT NULL",
    r#"name LIKE "%user1%""#,
];

const SHAPES: &[&str] = &[
    "SELECT COUNT(*) FROM t WHERE {}",
    "SELECT COUNT(*), SUM(id), AVG(score) FROM t WHERE {}",
    "SELECT city, COUNT(*) FROM t WHERE {} GROUP BY city ORDER BY city",
    "SELECT id, name FROM t WHERE {} ORDER BY id LIMIT 7",
    "EXPLAIN ANALYZE SELECT stars, MAX(score) FROM t WHERE {} GROUP BY stars",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_conjunctions_are_dispatch_invariant(
        picks in proptest::collection::vec(0usize..CLAUSES.len(), 1..4),
        shape in 0usize..SHAPES.len(),
    ) {
        // One fleet for the whole property: statements do not change
        // what a service holds.
        static FLEET: std::sync::OnceLock<Fleet> = std::sync::OnceLock::new();
        let fleet = FLEET.get_or_init(Fleet::start);
        let conjunction: Vec<&str> = picks.iter().map(|&i| CLAUSES[i]).collect();
        let sql = SHAPES[shape].replace("{}", &conjunction.join(" AND "));
        if let Err(diverged) = fleet.check(&sql) {
            return Err(TestCaseError::fail(diverged));
        }
    }

    #[test]
    fn counts_are_dispatch_invariant_and_match_the_oracle(
        picks in proptest::collection::vec(0usize..CLAUSES.len(), 1..4),
    ) {
        static FLEET: std::sync::OnceLock<Fleet> = std::sync::OnceLock::new();
        let fleet = FLEET.get_or_init(Fleet::start);
        let conjunction: Vec<&str> = picks.iter().map(|&i| CLAUSES[i]).collect();
        let body = conjunction.join(" AND ");
        // `score < 4.0` is a parse error: its statements answer one.
        let Ok(where_clauses) = ciao_sql::parse_where_body(&body) else {
            return Ok(());
        };
        let query = Query::new("q", ciao_predicate::clauses_from_sql(&where_clauses));
        if let Err(diverged) = fleet.check_count(&query) {
            return Err(TestCaseError::fail(diverged));
        }
        // The count is the SQL statement's answer, counters and all.
        let sql = format!("SELECT COUNT(*) FROM t WHERE {body}");
        let out = fleet.sharded.query_via(&query, Some(Dispatch::Inline));
        let result = fleet.sharded.query_sql_via(&sql, Some(Dispatch::Inline)).unwrap();
        prop_assert_eq!(&result.rows, &vec![vec![SqlValue::Int(out.count as i64)]]);
        prop_assert_eq!(result.profile, out.profile);
    }
}

#[test]
fn counts_the_analyzer_would_reject_are_dispatch_invariant() {
    let fleet = Fleet::start();
    for body in [
        // A key the schema lacks, and a string against an int column:
        // false on every row, also inside a clause that matches rows.
        "no_such_key = 3",
        r#"stars = "5""#,
        r#"(stars = "5" OR stars = 4)"#,
        r#"active = true AND (no_such_key = 3 OR city = "Boston")"#,
    ] {
        let query = parse_query("q", body).unwrap();
        fleet.check_count(&query).unwrap();
        let sql = format!("SELECT COUNT(*) FROM t WHERE {body}");
        assert!(fleet.sharded.query_sql(&sql).is_err(), "`{sql}` ran");
    }
}

/// 6 000 two-field records, nothing pushed: an unfiltered statement
/// leaves more rows standing than [`INLINE_MAX_SURVIVING_ROWS`].
fn large_service(shards: usize, workers: usize) -> Service {
    let raw: Vec<String> = (0..6000)
        .map(|i| format!(r#"{{"id":{i},"stars":{}}}"#, i % 5 + 1))
        .collect();
    let sample: Vec<_> = raw
        .iter()
        .take(100)
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![parse_query("q0", "stars = 5").unwrap()];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 0.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let service = Service::start(
        plan,
        schema,
        ServiceConfig::default()
            .with_shards(shards)
            .with_workers(workers),
    );
    for chunk in RecordChunk::from_records(&raw).unwrap().split(500) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
    }
    service.drain();
    service
}

#[test]
fn the_decision_follows_the_surviving_rows_and_no_topology_grows_a_thread() {
    const LARGE: &str = "SELECT COUNT(*) FROM t";
    const SMALL: &str = "SELECT COUNT(*) FROM t WHERE id < 10";
    for (shards, workers, large_goes) in [
        (2, 1, Dispatch::Handoff),
        (3, 2, Dispatch::Handoff),
        // No worker to hand to, or nothing to hand: always inline.
        (2, 0, Dispatch::Inline),
        (1, 2, Dispatch::Inline),
        (1, 0, Dispatch::Inline),
    ] {
        let service = large_service(shards, workers);
        // The ingest workers are every thread the service owns; the
        // read path adds none, whatever it decides.
        assert_eq!(service.workers.len(), workers);
        let t = service.telemetry().unwrap();
        let (mut inline, mut handoff) = (0, 0);
        for (sql, goes) in [
            (SMALL, Dispatch::Inline),
            (LARGE, large_goes),
            (LARGE, large_goes),
        ] {
            let result = service.query_sql(sql).unwrap();
            match goes {
                Dispatch::Inline => inline += 1,
                Dispatch::Handoff => handoff += 1,
            }
            assert_eq!(
                (t.query_inline.get(), t.query_handoff.get()),
                (inline, handoff),
                "{shards} shards, {workers} workers: `{sql}`"
            );
            let trace = service.last_query_trace().unwrap();
            let execute = trace
                .spans()
                .iter()
                .find(|s| s.name() == "execute")
                .unwrap();
            assert!(execute.attrs().contains(&(
                "dispatch",
                ciao_telemetry::AttrValue::Str(goes.as_str().to_owned())
            )));
            if sql == LARGE {
                assert_eq!(result.rows, vec![vec![SqlValue::Int(6000)]]);
                assert!(execute
                    .attrs()
                    .contains(&("surviving_rows", ciao_telemetry::AttrValue::Int(6000))));
            }
            // Shard 0 always runs on the statement's own lane; inline,
            // so does every other shard.
            let lanes: Vec<u64> = trace
                .spans()
                .iter()
                .filter(|s| s.name().starts_with("shard"))
                .map(|s| s.track())
                .collect();
            assert_eq!(lanes.len(), shards);
            assert_eq!(lanes[0], 0);
            if goes == Dispatch::Inline {
                assert!(lanes.iter().all(|&lane| lane == 0), "{lanes:?}");
            } else {
                assert!(
                    lanes.iter().all(|&lane| lane <= workers as u64),
                    "{lanes:?}"
                );
            }
        }
        assert_eq!(t.handoff_wait.count(), handoff * (shards as u64 - 1));
        // The count path goes through the same dispatch.
        let q = parse_query("q", "stars = 5").unwrap();
        assert_eq!(service.query(&q).count, 1200);
        assert_eq!(t.query_inline.get() + t.query_handoff.get(), 4);
        service.shutdown();
    }
}

#[test]
fn merged_elapsed_is_the_measured_wall_time_not_the_slowest_shard() {
    let service = large_service(2, 0);
    let started = Instant::now();
    let result = service
        .query_sql_via("SELECT COUNT(*) FROM t", Some(Dispatch::Inline))
        .unwrap();
    let wall = started.elapsed();
    assert!(result.elapsed > Duration::ZERO);
    assert!(result.elapsed <= wall);
    // Inline, the shards ran one after the other: the statement took
    // at least the sum of its scans, which the slowest alone would
    // under-report.
    let trace = service.last_query_trace().unwrap();
    let scans: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|s| s.name().starts_with("shard"))
        .map(|s| s.dur_ns())
        .collect();
    assert_eq!(scans.len(), 2);
    let elapsed = result.elapsed.as_nanos() as u64;
    assert!(elapsed >= scans.iter().sum(), "{elapsed} vs {scans:?}");
    // A count is timed the same way.
    let q = parse_query("q", "stars = 5").unwrap();
    let started = Instant::now();
    let out = service.query_via(&q, Some(Dispatch::Inline));
    assert!(out.elapsed > Duration::ZERO && out.elapsed <= started.elapsed());
}

#[test]
fn a_statement_does_not_wait_for_a_checkpoint_in_flight() {
    let dir = ciao_storage::ScratchDir::new("svc-pinned-checkpoint");
    let raw: Vec<String> = (0..400)
        .map(|i| format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i))
        .collect();
    let sample: Vec<_> = raw
        .iter()
        .take(100)
        .map(|r| ciao_json::parse(r).unwrap())
        .collect();
    let queries = vec![parse_query("q0", "stars = 5").unwrap()];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0).unwrap();
    let service = Service::start(
        plan,
        Arc::new(Schema::infer(&sample).unwrap()),
        ServiceConfig::default()
            .with_shards(2)
            .with_workers(0)
            .with_storage(ciao_storage::StorageConfig::new(dir.path())),
    );
    for chunk in RecordChunk::from_records(&raw).unwrap().split(50) {
        assert!(service.enqueue_raw(chunk).is_enqueued());
    }

    // Hold the store: the checkpoint below gets as far as pinning
    // every shard and then cannot write — a commit frozen mid-flight.
    let store = service.inner.storage.as_ref().unwrap().lock();
    let committed = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            service.checkpoint().expect("storage is on");
            committed.store(true, Ordering::SeqCst);
        });
        // The checkpoint holds the ingest gate from its first step to
        // its last; once it is taken, the checkpoint is in flight.
        while service.inner.ingest_gate.try_write().is_ok() {
            std::thread::yield_now();
        }
        // Statements, metrics and compaction all return while it is.
        let count = service
            .query_sql("SELECT COUNT(*) FROM t WHERE stars = 5")
            .unwrap();
        assert_eq!(count.rows, vec![vec![SqlValue::Int(80)]]);
        assert_eq!(service.metrics().load().total(), 400);
        service.compact();
        assert!(
            !committed.load(Ordering::SeqCst),
            "the commit cannot finish before the store is released"
        );
        drop(store);
    });
    assert!(committed.load(Ordering::SeqCst));
    service.shutdown();
}
