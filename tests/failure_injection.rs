//! Failure injection across the stack: malformed records, budget
//! exhaustion, schema-violating values, desynchronized bitvectors —
//! and, for the durable service, corrupted storage (torn WAL tails,
//! flipped checksum bytes, deleted snapshots, a broken manifest).
//! CIAO's contract under failure is "never lose a record, never return
//! a wrong count" — degradation is allowed, silence is not.

mod support;

use ciao::{AdmissionPolicy, Loader, PushdownPlan};
use ciao_client::{Budget, BudgetedPrefilter, ClientStats, Prefilter};
use ciao_columnar::Schema;
use ciao_json::RecordChunk;
use ciao_optimizer::CostModel;
use ciao_predicate::{compile_clause, parse_clause, parse_query};
use ciao_service::{ServiceConfig, Shard};
use std::sync::Arc;

fn dirty_ndjson(n: usize) -> String {
    (0..n)
        .map(|i| match i % 10 {
            // A malformed line every 10 records.
            3 => "{\"stars\": oops not json\n".to_owned(),
            // A schema-violating value (string in an int field).
            7 => format!("{{\"stars\":\"five\",\"name\":\"u{i}\"}}\n"),
            _ => format!("{{\"stars\":{},\"name\":\"u{}\"}}\n", i % 5 + 1, i),
        })
        .collect()
}

#[test]
fn malformed_records_survive_end_to_end() {
    let data = dirty_ndjson(500);
    let queries = vec![
        parse_query("q0", "stars = 5").unwrap(),
        parse_query("q1", r#"name = "u7""#).unwrap(), // i=7 is the bad-stars record
    ];
    let report = support::run_on_service(&data, &queries, 5.0, 1000, 64, ServiceConfig::default());

    // Ground truth over the 500 lines: malformed lines match nothing;
    // stars = 5 ⇔ i % 5 == 4 and i % 10 ∉ {3, 7}.
    let expected_stars5 = (0..500)
        .filter(|i| i % 5 == 4 && i % 10 != 3 && i % 10 != 7)
        .count();
    assert_eq!(report.outcomes[0].count, expected_stars5);
    // u7's stars field is the string "five": stored as NULL in the int
    // column, but the name predicate still finds the record.
    assert_eq!(report.outcomes[1].count, 1);
    // Nothing was dropped.
    assert_eq!(report.records, 500);
    assert_eq!(report.load.total(), 500);
    assert!(report.load.coercion_failures > 0);
}

#[test]
fn budget_degradation_preserves_answers() {
    // A zero runtime budget forces the client to degrade every chunk
    // to all-ones bits. More records get loaded (no filtering power),
    // but every count must stay exact.
    let raw: Vec<String> = (0..400)
        .map(|i| format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i))
        .collect();
    let chunk = RecordChunk::from_records(&raw).unwrap();
    let sample: Vec<_> = raw.iter().map(|r| ciao_json::parse(r).unwrap()).collect();
    let queries = vec![parse_query("q", "stars = 5").unwrap()];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0).unwrap();
    assert!(!plan.is_empty());
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let budgeted = BudgetedPrefilter::new(plan.prefilter(), Budget::per_record_micros(0.0))
        .with_check_interval(1)
        .with_slack(1.0);
    let shard = Shard::new(Arc::new(plan), schema, 64);
    let mut stats = ClientStats::default();
    for sub in chunk.split(64) {
        let filter = budgeted.run_chunk(&sub, &mut stats);
        shard.ingest(&sub, &filter);
    }
    assert!(
        stats.degraded_chunks > 0,
        "degradation should have triggered"
    );

    let out = shard.execute(&queries[0]);
    assert_eq!(out.count, 80, "degraded bits must not change the answer");
}

#[test]
fn loader_rejects_desynchronized_bitvectors() {
    let schema = Arc::new(Schema::infer(&[ciao_json::parse(r#"{"a":1}"#).unwrap()]).unwrap());
    let pattern = compile_clause(&parse_clause("a = 1").unwrap()).unwrap();
    let pf = Prefilter::new([(0, pattern)]);
    let short = RecordChunk::from_records(&[r#"{"a":1}"#]).unwrap();
    let long = RecordChunk::from_records(&[r#"{"a":1}"#, r#"{"a":2}"#]).unwrap();
    let filter = pf.run_chunk(&short);
    let mut loader = Loader::new(schema, &[0], AdmissionPolicy::from_coverage(&[vec![0]]), 16);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        loader.load_chunk(&long, &filter);
    }));
    assert!(result.is_err(), "framing desync must fail loudly");
}

#[test]
fn all_garbage_chunk_is_fully_parked() {
    let schema = Arc::new(Schema::infer(&[ciao_json::parse(r#"{"a":1}"#).unwrap()]).unwrap());
    let chunk = RecordChunk::from_records(&["garbage", "also garbage {"]).unwrap();
    let filter = Prefilter::new([]).run_chunk(&chunk);
    let mut loader = Loader::new(schema, &[], AdmissionPolicy::LoadAll, 16);
    loader.load_chunk(&chunk, &filter);
    let (table, parked, stats) = loader.finish();
    assert_eq!(table.row_count(), 0);
    assert_eq!(parked.len(), 2);
    assert_eq!(stats.parse_errors, 2);
}

#[test]
fn queries_over_empty_server_return_zero() {
    let queries = vec![parse_query("q", "stars = 5").unwrap()];
    let sample = vec![ciao_json::parse(r#"{"stars":1}"#).unwrap()];
    let plan =
        PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 1.0).unwrap();
    let schema = Arc::new(Schema::infer(&sample).unwrap());
    let shard = Shard::new(Arc::new(plan), schema, 16);
    assert_eq!(shard.execute(&queries[0]).count, 0);
}

// ---------------------------------------------------------------------
// Storage fault injection: damage the on-disk state between two lives
// of a durable service and require graceful degradation — every intact
// prefix recovered, every degradation surfaced in the recovery report,
// never a panic, never a wrong count over what survived.
// ---------------------------------------------------------------------

mod storage_faults {
    use crate::support::{self, chunk, CHUNK_RECORDS};
    use ciao_service::{Service, ServiceConfig, StorageConfig};
    use ciao_storage::{list_snapshots, manifest::MANIFEST_FILE, ScratchDir};
    use std::fs::OpenOptions;
    use std::path::{Path, PathBuf};

    const SHARDS: usize = 2;

    /// A deterministic durable service over the shared fixture: no
    /// worker threads, explicit drains, `SyncPolicy::Always` (the
    /// `StorageConfig` default).
    fn durable(dir: &Path) -> Service {
        let (plan, schema) = support::plan_and_schema();
        Service::start(
            plan,
            schema,
            ServiceConfig::default()
                .with_shards(SHARDS)
                .with_workers(0)
                .with_storage(StorageConfig::new(dir)),
        )
    }

    fn feed(service: &Service, range: std::ops::Range<u64>) {
        let prefilter = service.prefilter();
        for i in range {
            let c = chunk(i);
            let filter = prefilter.run_chunk(&c);
            assert!(service.enqueue(c, filter).is_enqueued());
            service.drain();
        }
    }

    /// Recover from `dir` and require the service to hold exactly the
    /// dense chunk prefix `[0, expected_next_seq)` with oracle-equal
    /// answers.
    fn assert_recovers_prefix(dir: &Path, expected_next_seq: u64) -> Service {
        let recovered = durable(dir);
        let next_seq = recovered.metrics().accepted_chunks;
        assert_eq!(next_seq, expected_next_seq, "recovered sequence line");
        assert_eq!(
            recovered.metrics().load().total() as u64,
            next_seq * CHUNK_RECORDS,
            "recovered prefix is not dense"
        );
        let (counts, _) = support::crash::oracle(SHARDS, next_seq);
        for (q, expected) in support::queries().iter().zip(counts) {
            assert_eq!(
                recovered.query(q).count,
                expected,
                "query {} diverged after fault recovery",
                q.name
            );
        }
        recovered
    }

    /// Newest WAL segment in `dir` (the one holding the tail).
    fn newest_wal_segment(dir: &Path) -> PathBuf {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("wal-") && name.ends_with(".log")
            })
            .collect();
        segments.sort();
        segments.pop().expect("a WAL segment exists")
    }

    fn flip_byte(path: &Path, offset: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset] ^= 0xFF;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn torn_wal_tail_drops_only_the_torn_record() {
        let scratch = ScratchDir::new("fault-torn");
        {
            let service = durable(scratch.path());
            feed(&service, 0..12);
            drop(service); // no shutdown: no checkpoint, WAL holds everything
        }
        // Cut into the final frame, as a crash mid-append would.
        let segment = newest_wal_segment(scratch.path());
        let len = std::fs::metadata(&segment).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let recovered = assert_recovers_prefix(scratch.path(), 11);
        let report = recovered.recovery_report().unwrap();
        assert!(!report.clean(), "a torn tail must be surfaced");
        assert!(report.wal_corruption.is_some());
        assert!(report.wal_dropped_bytes > 0);
        recovered.shutdown();
    }

    #[test]
    fn torn_wal_tail_is_repaired_so_a_second_crash_loses_nothing() {
        let scratch = ScratchDir::new("fault-torn-twice");
        {
            let service = durable(scratch.path());
            feed(&service, 0..12);
            drop(service);
        }
        let segment = newest_wal_segment(scratch.path());
        let len = std::fs::metadata(&segment).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        // First recovery drops the torn record AND truncates the
        // damage out of the segment; the resumed life appends past it.
        {
            let recovered = assert_recovers_prefix(scratch.path(), 11);
            assert!(recovered
                .recovery_report()
                .unwrap()
                .wal_corruption
                .is_some());
            feed(&recovered, 11..18);
            drop(recovered); // crash again: no checkpoint, WAL is all there is
        }
        // Second recovery must replay both lives cleanly. Without the
        // repair, replay would stop at the old tear and lose every
        // chunk the second life acked.
        let recovered = assert_recovers_prefix(scratch.path(), 18);
        let report = recovered.recovery_report().unwrap();
        assert!(
            report.wal_corruption.is_none(),
            "the first recovery's repair left a clean log: {report:?}"
        );
        recovered.shutdown();
    }

    #[test]
    fn flipped_wal_byte_recovers_the_intact_prefix() {
        const CHUNKS: u64 = 16;
        let scratch = ScratchDir::new("fault-flip");
        {
            let service = durable(scratch.path());
            feed(&service, 0..CHUNKS);
            drop(service);
        }
        // Flip one byte mid-segment: replay must stop at the broken
        // frame (checksum or framing, whichever the byte lands in) and
        // keep every record before it.
        let segment = newest_wal_segment(scratch.path());
        let len = std::fs::metadata(&segment).unwrap().len() as usize;
        flip_byte(&segment, len / 2);

        let recovered = durable(scratch.path());
        let report = recovered.recovery_report().unwrap().clone();
        assert!(!report.clean());
        assert!(report.wal_corruption.is_some());
        assert!(report.wal_dropped_bytes > 0);
        let next_seq = recovered.metrics().accepted_chunks;
        assert!(
            (1..CHUNKS).contains(&next_seq),
            "a mid-file flip keeps a proper, non-empty prefix (got {next_seq})"
        );
        drop(recovered);
        assert_recovers_prefix(scratch.path(), next_seq).shutdown();
    }

    #[test]
    fn crc_valid_non_utf8_wal_payload_is_corruption_not_data() {
        const CHUNKS: u64 = 8;
        let scratch = ScratchDir::new("fault-non-utf8");
        {
            let service = durable(scratch.path());
            feed(&service, 0..CHUNKS);
            drop(service);
        }
        // Splice in a frame no producer could have sent — its bytes are
        // not UTF-8 — with a *correct* checksum, then a well-formed
        // frame behind it. A lossy decode would ingest the first with
        // its bytes rewritten to U+FFFD; recovery must instead stop
        // there, exactly as it does at a checksum mismatch.
        let forged = ciao_storage::WalRecord {
            seq: CHUNKS,
            shard: 0,
            chunk: b"{\"stars\":5,\"name\":\"\xC3\x28\xFF\"}\n".to_vec(),
        };
        let behind = ciao_storage::WalRecord {
            seq: CHUNKS + 1,
            shard: 1,
            chunk: chunk(CHUNKS + 1).to_ndjson().into_bytes(),
        };
        let segment = newest_wal_segment(scratch.path());
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&forged.encode());
        bytes.extend_from_slice(&behind.encode());
        std::fs::write(&segment, bytes).unwrap();

        let recovered = assert_recovers_prefix(scratch.path(), CHUNKS);
        let report = recovered.recovery_report().unwrap();
        assert!(!report.clean());
        let reason = report.wal_corruption.as_deref().expect("surfaced");
        assert!(reason.contains("not UTF-8"), "{reason}");
        assert_eq!(
            report.wal_dropped_bytes,
            (forged.encode().len() + behind.encode().len()) as u64,
            "the forged frame and everything behind it"
        );
        drop(recovered);
        // The hole was repaired: a second start is clean.
        let again = assert_recovers_prefix(scratch.path(), CHUNKS);
        assert!(again.recovery_report().unwrap().clean());
        again.shutdown();
    }

    #[test]
    fn deleted_newest_snapshots_fall_back_a_generation() {
        let scratch = ScratchDir::new("fault-snap");
        {
            let service = durable(scratch.path());
            feed(&service, 0..6);
            assert!(service.checkpoint().is_some()); // generation 1
            feed(&service, 6..12);
            assert!(service.checkpoint().is_some()); // generation 2
            feed(&service, 12..15); // WAL tail past the last checkpoint
            drop(service);
        }
        // Delete the newest snapshot of every shard. Retention keeps
        // two generations and truncates the WAL only below the oldest
        // retained ceiling, so the previous generation plus the
        // surviving log must still reconstruct everything.
        let snapshots = list_snapshots(scratch.path()).unwrap();
        for shard in 0..SHARDS as u32 {
            let newest = snapshots
                .iter()
                .rfind(|s| s.shard == shard)
                .expect("two generations on disk");
            std::fs::remove_file(&newest.path).unwrap();
        }

        let recovered = assert_recovers_prefix(scratch.path(), 15);
        let report = recovered.recovery_report().unwrap();
        assert!(!report.clean());
        assert_eq!(
            report.snapshot_fallbacks, SHARDS,
            "every shard fell back one generation"
        );
        recovered.shutdown();
    }

    #[test]
    fn corrupt_manifest_degrades_to_directory_scan() {
        let scratch = ScratchDir::new("fault-manifest");
        {
            let service = durable(scratch.path());
            feed(&service, 0..10);
            assert!(service.checkpoint().is_some());
            feed(&service, 10..13);
            drop(service);
        }
        flip_byte(&scratch.path().join(MANIFEST_FILE), 10);

        let recovered = assert_recovers_prefix(scratch.path(), 13);
        let report = recovered.recovery_report().unwrap();
        assert!(!report.manifest_ok, "manifest corruption must be noticed");
        assert!(!report.clean());
        recovered.shutdown();
    }
}
