//! The parked-record scan answers exactly as a loop that fully parses
//! every record would.
//!
//! The engine reads parked records through `ciao_json::parse_projected`
//! (only the fields a statement touches are built). This suite keeps
//! the loop it replaced — `ciao_json::parse` per record, the clause
//! conjunction on the whole DOM — as a reference, and holds every
//! statement shape to it over a store planted with the records a
//! projection could get wrong: malformed lines (some malformed only in
//! a field the statement never reads), duplicate and escaped keys,
//! missing fields, type-mismatched fields, nested values, and
//! documents that are not objects at all.

use ciao_columnar::{Schema, Table};
use ciao_engine::{finalize, AggState, Executor, PartialData, QueryProfile};
use ciao_json::{parse, JsonValue};
use ciao_predicate::{clauses_from_sql, eval_clause, Query};
use ciao_sql::{AggArgRef, PhysicalOp, PhysicalPlan, SqlValue};
use std::collections::BTreeMap;

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

/// Well-formed records with well-typed fields, and what was planted
/// among them.
fn parked_store() -> Vec<String> {
    let mut store: Vec<String> = (0..40).map(clean_record).collect();
    let planted = [
        // Malformed: never a match, whatever the statement reads.
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
        // Duplicate keys: the first occurrence is the field.
        r#"{"id":910,"stars":5,"stars":1,"city":"c1","city":"c0","name":"dup"}"#,
        r#"{"id":911,"stars":2,"stars":5,"score":0.5,"score":9.5,"name":"dup2","city":"c2"}"#,
        // Keys spelled with escapes are still those keys.
        r#"{"\u0069d":920,"st\u0061rs":5,"c\u0069ty":"c0","n\u0061me":"esc"}"#,
        r#"{"id":921,"stars":5,"city":"c0","name":"a\tb \"q\" é 😀"}"#,
        // Missing fields.
        r#"{"id":930}"#,
        r#"{"stars":5}"#,
        "{}",
        // Type mismatches: NULL to the operator, false to a predicate.
        r#"{"id":"940","stars":"five","score":"x","active":1,"city":7,"name":null}"#,
        r#"{"id":941,"stars":5.0,"score":2,"active":"true","city":"c0","name":"floaty"}"#,
        r#"{"id":942.5,"stars":5.5,"score":3,"city":"c0","name":"half"}"#,
        r#"{"id":943,"stars":123456789012345678901234567890,"city":"c1","name":"huge"}"#,
        // Nested values where scalars are expected, and the reverse.
        r#"{"id":950,"stars":[5],"city":{"name":"c0"},"name":["n"],"payload":3,"score":{"v":1.5}}"#,
        r#"{"id":951,"stars":5,"city":"c0","name":"nest","payload":{"stars":1,"city":"zz","id":-1}}"#,
        // Not objects.
        "[1,2,3]",
        "42",
        r#""stars""#,
        "null",
        r#"[{"id":960,"stars":5,"city":"c0"}]"#,
    ];
    for (i, line) in planted.iter().enumerate() {
        // Spread them through the store.
        store.insert((i * 7) % store.len(), (*line).to_owned());
    }
    store
}

fn schema() -> Schema {
    let clean: Vec<JsonValue> = (0..40).map(|i| parse(&clean_record(i)).unwrap()).collect();
    Schema::infer(&clean).unwrap()
}

/// Every shape the golden suite uses, on predicates nothing pushed.
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
    // Multi-clause WHERE, OR within a clause, every predicate kind.
    "SELECT id FROM t WHERE stars = 5 AND active = false AND city = 'c0' ORDER BY id",
    r#"SELECT id, city FROM t WHERE city IN ("c0", "c2") AND stars <= 2 ORDER BY id LIMIT 5"#,
    r#"SELECT COUNT(*) FROM t WHERE name LIKE "%user01%" AND email IS NOT NULL"#,
    "SELECT COUNT(*) FROM t WHERE score = 0.5 AND id > 10 AND id < 30",
    "SELECT city, COUNT(*) FROM t WHERE stars != NULL AND name != NULL GROUP BY city ORDER BY 2 DESC, city",
    // The WHERE key is also an operator column; and is not one.
    "SELECT stars, SUM(id) FROM t WHERE stars < 4 GROUP BY stars ORDER BY stars DESC",
    "SELECT payload FROM t WHERE id = 951",
];

/// What the reference loop produces: the old parked arm of
/// `execute_plan`, one full `parse` per record.
struct Reference {
    data: PartialData,
    /// Records read, malformed ones included.
    parsed: u64,
    matched: u64,
    clause_counts: Vec<(u64, u64)>,
}

fn reference(parked: &[String], plan: &PhysicalPlan, query: &Query) -> Reference {
    let mut out = Reference {
        data: match &plan.op {
            PhysicalOp::ProjectScan { .. } => PartialData::Rows(Vec::new()),
            PhysicalOp::HashAggregate { .. } => PartialData::Groups(BTreeMap::new()),
        },
        parsed: 0,
        matched: 0,
        clause_counts: vec![(0, 0); query.clauses.len()],
    };
    'parked: for rec in parked {
        out.parsed += 1;
        let Ok(value) = parse(rec) else {
            continue;
        };
        for (ci, clause) in query.clauses.iter().enumerate() {
            out.clause_counts[ci].0 += 1;
            if !eval_clause(clause, &value) {
                continue 'parked;
            }
            out.clause_counts[ci].1 += 1;
        }
        out.matched += 1;
        match (&mut out.data, &plan.op) {
            (PartialData::Rows(rows), PhysicalOp::ProjectScan { columns }) => rows.push(
                columns
                    .iter()
                    .map(|c| SqlValue::from_json(value.get(&c.name), c.ty))
                    .collect(),
            ),
            (PartialData::Groups(groups), PhysicalOp::HashAggregate { group, aggs }) => {
                let key: Vec<SqlValue> = group
                    .iter()
                    .map(|c| SqlValue::from_json(value.get(&c.name), c.ty))
                    .collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(AggState::new).collect());
                for (state, call) in states.iter_mut().zip(aggs) {
                    match &call.arg {
                        AggArgRef::Star => state.update(&SqlValue::Int(1)),
                        AggArgRef::Column(c) => {
                            state.update(&SqlValue::from_json(value.get(&c.name), c.ty))
                        }
                    }
                }
            }
            _ => unreachable!("operator/partial shape mismatch"),
        }
    }
    out
}

#[test]
fn every_statement_shape_matches_the_full_parse_reference() {
    let parked = parked_store();
    let schema = schema();
    let exec = Executor::default();
    let table = Table::default();
    for sql in STATEMENTS {
        let plan = ciao_sql::compile(sql, &schema).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let query = Query::new("sql", clauses_from_sql(&plan.filter));
        let expected = reference(&parked, &plan, &query);
        let got = exec.execute_plan(&table, &parked, &plan);

        // The partial itself (rows in scan order, or every group's
        // aggregate states), bit for bit.
        assert_eq!(
            format!("{:?}", got.data),
            format!("{:?}", expected.data),
            "{sql}"
        );
        // The counters: the parked side's are the reference's, and the
        // empty table contributes nothing.
        let p = &got.profile;
        assert!(!p.used_skipping(), "{sql}");
        assert_eq!(p.parked_rows_parsed, parked.len() as u64, "{sql}");
        assert_eq!(
            (p.parked_rows_parsed, p.parked_rows_matched),
            (expected.parsed, expected.matched),
            "{sql}"
        );
        assert_eq!(
            (p.blocks_total, p.rows_scanned, p.rows_matched),
            (0, 0, 0),
            "{sql}"
        );
        let clause_counts: Vec<(u64, u64)> = p
            .clauses
            .iter()
            .map(|c| (c.rows_evaluated, c.rows_passed))
            .collect();
        assert_eq!(clause_counts, expected.clause_counts, "{sql}");

        // The count entry point shares the scan; it reads no operator
        // column.
        let count = exec.execute_count(&table, &parked, &query);
        assert_eq!(count.count as u64, expected.matched, "{sql}");
        let fields = p.parked_fields_projected;
        assert_eq!(
            QueryProfile {
                parked_fields_projected: fields,
                ..count.profile
            },
            got.profile,
            "{sql}"
        );

        // And the finished answer, through merge and finalize.
        let mut merged = exec.execute_plan(&table, &parked[..parked.len() / 2], &plan);
        merged.merge(exec.execute_plan(&table, &parked[parked.len() / 2..], &plan));
        assert_eq!(merged.profile, got.profile, "{sql}");
        assert_eq!(
            finalize(&plan, merged).render(),
            finalize(&plan, got).render(),
            "{sql}"
        );
    }
}

#[test]
fn the_planted_records_are_what_they_claim() {
    // The suite is only as good as its store: the malformed lines must
    // be malformed, and the statements must hit both outcomes.
    let parked = parked_store();
    let malformed = parked.iter().filter(|r| parse(r).is_err()).count();
    assert_eq!(malformed, 11);
    let non_objects = parked
        .iter()
        .filter(|r| parse(r).is_ok_and(|v| v.as_object().is_none()))
        .count();
    assert_eq!(non_objects, 5);

    let schema = schema();
    let exec = Executor::default();
    let run = |sql: &str| {
        let plan = ciao_sql::compile(sql, &schema).unwrap();
        exec.execute_plan(&Table::default(), &parked, &plan)
    };
    // No WHERE: every well-formed record matches, objects or not.
    let all = run("SELECT COUNT(*) FROM t");
    assert_eq!(
        all.profile.parked_rows_matched as usize,
        parked.len() - malformed
    );
    assert_eq!(all.profile.parked_fields_projected, 0);
    // The WHERE key plus two operator columns, one of them the same.
    let grouped = run("SELECT stars, SUM(id) FROM t WHERE stars < 4 GROUP BY stars");
    assert_eq!(grouped.profile.parked_fields_projected, 2);
    // Ten malformed lines carry `stars = 5`, as do duplicates whose
    // *second* `stars` is 5; none of them may count.
    let fives = run("SELECT id FROM t WHERE stars = 5 AND id >= 900");
    let PartialData::Rows(rows) = &fives.data else {
        panic!("projection yields rows");
    };
    let mut ids: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
    ids.sort();
    assert_eq!(ids, ["910", "920", "921", "951"]);
}
