//! The parked scan answers the same through an epoch's positional map
//! as without one: on the scan that builds the map (cold) and on every
//! scan that reads through it (warm).
//!
//! Without a map, every scan validates each parked record again
//! (`ciao_json::parse_projected`); `parked_equivalence.rs` holds that
//! path to a full parse of every record. This suite holds the mapped
//! path to it, statement by statement, over the same planted store —
//! malformed lines, duplicate and escaped keys, missing and
//! type-mismatched fields, nested values, non-objects — plus the two
//! epochs the map hands back to the projected scan: one with a record
//! too long for the map's offsets, and one with so many distinct keys
//! that its map would outgrow its text.

use ciao_columnar::{Schema, Table};
use ciao_engine::{Executor, ParkedFragment, ParkedIndex, PartialResult, QueryOutcome};
use ciao_json::{parse, JsonValue};
use ciao_predicate::{clauses_from_sql, Query};
use ciao_sql::PhysicalPlan;
use std::sync::OnceLock;

/// The clean records of `parked_equivalence.rs`'s store.
fn clean_record(i: usize) -> String {
    let score = if i.is_multiple_of(7) {
        "null".to_owned()
    } else {
        format!("{}.5", i % 4)
    };
    let email = if i.is_multiple_of(3) {
        "null".to_owned()
    } else {
        format!("\"u{i}@example.com\"")
    };
    format!(
        r#"{{"id":{i},"name":"user{i:03}","stars":{},"score":{score},"active":{},"city":"c{}","email":{email},"payload":{{"tags":["t{}","x"],"geo":{{"lat":{i}.25}}}}}}"#,
        i % 5 + 1,
        i.is_multiple_of(2),
        i % 3,
        i % 4,
    )
}

/// `parked_equivalence.rs`'s planted store: clean records with the
/// lines a projection could get wrong spread through them.
fn planted_store() -> Vec<String> {
    let mut store: Vec<String> = (0..40).map(clean_record).collect();
    let planted = [
        "not json",
        r#"{"id":900,"stars":5,"city":"c0""#,
        r#"{"id":901,"stars":5,"city":"c0"} trailing"#,
        r#"{"id":902,"stars":5,"city":"c0","name":tru}"#,
        r#"{"id":903,"stars":5,"city":"c0","payload":{"deep":[1 2]}}"#,
        r#"{"id":904,"stars":5,"city":"c0","name":"bad \q escape"}"#,
        r#"{"id":905,"stars":5,"city":"c0","name":"lone \ud800 surrogate"}"#,
        "{\"id\":906,\"stars\":5,\"city\":\"c0\",\"name\":\"raw\ttab\"}",
        r#"{"id":907,"stars":5,"city":"c0","score":1e999}"#,
        r#"{"id":908,"stars":5,"city":"c0",}"#,
        "",
        r#"{"id":910,"stars":5,"stars":1,"city":"c1","city":"c0","name":"dup"}"#,
        r#"{"id":911,"stars":2,"stars":5,"score":0.5,"score":9.5,"name":"dup2","city":"c2"}"#,
        r#"{"\u0069d":920,"st\u0061rs":5,"c\u0069ty":"c0","n\u0061me":"esc"}"#,
        r#"{"id":921,"stars":5,"city":"c0","name":"a\tb \"q\" é 😀"}"#,
        r#"{"id":930}"#,
        r#"{"stars":5}"#,
        "{}",
        r#"{"id":"940","stars":"five","score":"x","active":1,"city":7,"name":null}"#,
        r#"{"id":941,"stars":5.0,"score":2,"active":"true","city":"c0","name":"floaty"}"#,
        r#"{"id":942.5,"stars":5.5,"score":3,"city":"c0","name":"half"}"#,
        r#"{"id":943,"stars":123456789012345678901234567890,"city":"c1","name":"huge"}"#,
        r#"{"id":950,"stars":[5],"city":{"name":"c0"},"name":["n"],"payload":3,"score":{"v":1.5}}"#,
        r#"{"id":951,"stars":5,"city":"c0","name":"nest","payload":{"stars":1,"city":"zz","id":-1}}"#,
        "[1,2,3]",
        "42",
        r#""stars""#,
        "null",
        r#"[{"id":960,"stars":5,"city":"c0"}]"#,
    ];
    for (i, line) in planted.iter().enumerate() {
        store.insert((i * 7) % store.len(), (*line).to_owned());
    }
    store
}

/// Clean records around two longer than a map's `u16` offsets reach,
/// one valid and one malformed past the padding.
fn long_store() -> Vec<String> {
    let pad = "x".repeat(70_000);
    let mut store: Vec<String> = (0..12).map(clean_record).collect();
    store.insert(
        3,
        format!(r#"{{"id":970,"stars":5,"city":"c0","name":"long","payload":{{"pad":"{pad}"}},"score":1.5,"active":true}}"#),
    );
    store.insert(
        8,
        format!(r#"{{"id":971,"stars":5,"city":"c0","pad":"{pad}","name":tru}}"#),
    );
    store
}

/// Short records with keys of their own: two bytes per key per record
/// outgrow the text, so this epoch gets no map.
fn wide_store() -> Vec<String> {
    (0..60)
        .map(|i| {
            format!(
                r#"{{"id":{},"stars":{},"city":"c{}","x{i}":1,"y{i}":2,"z{i}":3}}"#,
                1000 + i,
                i % 5 + 1,
                i % 3
            )
        })
        .collect()
}

fn schema() -> Schema {
    let clean: Vec<JsonValue> = (0..40).map(|i| parse(&clean_record(i)).unwrap()).collect();
    Schema::infer(&clean).unwrap()
}

/// `parked_equivalence.rs`'s statements: every shape the golden suite
/// uses, on predicates nothing pushed.
const STATEMENTS: &[&str] = &[
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE stars = 5",
    "SELECT COUNT(*) FROM t WHERE stars > 9",
    "SELECT COUNT(email) FROM t",
    "SELECT COUNT(*), AVG(score), MIN(score), MAX(score) FROM t WHERE stars = 5",
    "SELECT SUM(stars), SUM(score), AVG(stars) FROM t WHERE active = true",
    "SELECT MIN(name), MAX(name) FROM t",
    "SELECT stars, COUNT(*) FROM t GROUP BY stars",
    "SELECT city, stars, COUNT(*), AVG(score) FROM t GROUP BY city, stars ORDER BY city, stars LIMIT 8",
    "SELECT city, COUNT(email) AS emails, MIN(id), MAX(id) FROM t WHERE stars = 5 GROUP BY city ORDER BY city",
    "SELECT active, COUNT(*) FROM t GROUP BY active ORDER BY active",
    "SELECT id, name FROM t WHERE stars = 5 ORDER BY id LIMIT 5",
    "SELECT * FROM t WHERE id < 3 ORDER BY 1",
    "SELECT name AS who, city FROM t WHERE active = true ORDER BY who LIMIT 4",
    "SELECT id, stars FROM t WHERE id > 30 ORDER BY stars DESC, id",
    "SELECT id FROM t ORDER BY id DESC LIMIT 3",
    "SELECT id FROM t WHERE stars = 5 AND active = false AND city = 'c0' ORDER BY id",
    r#"SELECT id, city FROM t WHERE city IN ("c0", "c2") AND stars <= 2 ORDER BY id LIMIT 5"#,
    r#"SELECT COUNT(*) FROM t WHERE name LIKE "%user01%" AND email IS NOT NULL"#,
    "SELECT COUNT(*) FROM t WHERE score = 0.5 AND id > 10 AND id < 30",
    "SELECT city, COUNT(*) FROM t WHERE stars != NULL AND name != NULL GROUP BY city ORDER BY 2 DESC, city",
    "SELECT stars, SUM(id) FROM t WHERE stars < 4 GROUP BY stars ORDER BY stars DESC",
    "SELECT payload FROM t WHERE id = 951",
];

/// Everything a plan scan reports that a map could change.
fn assert_same_partial(got: &PartialResult, expected: &PartialResult, what: &str) {
    assert_eq!(
        format!("{:?}", got.data),
        format!("{:?}", expected.data),
        "{what}"
    );
    assert_eq!(got.metrics.raw_scan, expected.metrics.raw_scan, "{what}");
    assert_eq!(got.profile, expected.profile, "{what}");
}

fn assert_same_count(got: &QueryOutcome, expected: &QueryOutcome, what: &str) {
    assert_eq!(got.count, expected.count, "{what}");
    assert_eq!(got.metrics.raw_scan, expected.metrics.raw_scan, "{what}");
}

/// Runs every statement over each epoch's fragment twice through one
/// map cell per epoch — fresh for the first statement, so its first run
/// builds every map — and holds each run to the unmapped scan.
fn assert_mapped_scans_match(epochs: &[Vec<String>]) -> Vec<OnceLock<ParkedIndex>> {
    let schema = schema();
    let exec = Executor::default();
    let table = Table::default();
    let cells: Vec<OnceLock<ParkedIndex>> = epochs.iter().map(|_| OnceLock::new()).collect();
    let parked_rows = epochs.iter().map(Vec::len).sum();
    let unmapped = || epochs.iter().map(|e| ParkedFragment::unindexed(e));
    let mapped = || {
        epochs
            .iter()
            .zip(&cells)
            .map(|(e, cell)| ParkedFragment::indexed(e, cell))
    };
    for (n, sql) in STATEMENTS.iter().enumerate() {
        let plan: PhysicalPlan =
            ciao_sql::compile(sql, &schema).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let prepared = exec.prepare_plan(&plan, table.blocks(), parked_rows);
        let expected = exec.scan_plan(&prepared, table.blocks(), unmapped(), &plan);
        assert_eq!(expected.metrics.parked_index_builds, 0);

        let query = Query::new("sql", clauses_from_sql(&plan.filter));
        let counted = exec.prepare(query, table.blocks(), parked_rows);
        let expected_count = exec.scan_count(&counted, table.blocks(), unmapped());
        assert_eq!(expected_count.count, expected.metrics.raw_scan.rows_matched);

        for round in ["cold", "warm"] {
            let what = format!("{sql} ({round})");
            let got = exec.scan_plan(&prepared, table.blocks(), mapped(), &plan);
            let builds = if n == 0 && round == "cold" {
                epochs.iter().filter(|e| !e.is_empty()).count()
            } else {
                0
            };
            assert_eq!(got.metrics.parked_index_builds, builds, "{what}");
            assert_same_partial(&got, &expected, &what);
            let count = exec.scan_count(&counted, table.blocks(), mapped());
            assert_eq!(count.metrics.parked_index_builds, 0, "{what}");
            assert_same_count(&count, &expected_count, &what);
        }
    }
    cells
}

#[test]
fn every_statement_reads_the_same_through_the_map_cold_and_warm() {
    let cells = assert_mapped_scans_match(&[planted_store()]);
    assert!(cells[0].get().unwrap().is_mapped());
}

#[test]
fn records_and_epochs_the_map_cannot_hold_read_the_same() {
    let epochs = [planted_store(), long_store(), wide_store(), Vec::new()];
    let cells = assert_mapped_scans_match(&epochs);
    let index = |i: usize| cells[i].get();
    assert!(index(0).unwrap().is_mapped());
    // The long records fall back one by one; the rest stay mapped.
    assert!(index(1).unwrap().is_mapped());
    assert_eq!(epochs[1].iter().filter(|r| r.len() > 65_535).count(), 2);
    // The wide epoch has no map at all, and an empty one is never built.
    assert!(!index(2).unwrap().is_mapped());
    assert_eq!(index(2).unwrap().bytes(), 0);
    assert!(index(3).is_none());
}
