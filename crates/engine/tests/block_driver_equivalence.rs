//! Differential property test: the column-at-a-time block-scan driver
//! ([`BlockFilter`]) against the row-at-a-time reference evaluator
//! ([`eval_clause_on_block`]); the driver's two consumers —
//! `scan_count` and `Executor::execute_plan` — against each other; and
//! the plan scan's `COUNT(*)` fold against its per-row operator feed,
//! on blocks and on parked rows.
//!
//! Blocks hold int, float, str, bool and JSON columns with NULLs and
//! coercion failures; statements draw every `SimplePredicate` over
//! every column plus a key the schema lacks, so type mismatches
//! (`IntEq` on a float column, `FloatEq` on an int column,
//! `StrEq`/`StrContains` on a JSON column, `NotNull` on a missing key)
//! and multi-value IN clauses are all exercised, under each of
//! `Survivors::{All, Mask, Pruned}`.

use ciao_columnar::{BitVec, Block, DataType, Field, Schema, Table, TableBuilder};
use ciao_engine::{
    eval_clause_on_block, finalize, scan_count, BlockFilter, ClauseTally, Executor, PartialData,
    PartialResult, QueryProfile, ScanOptions, Survivors,
};
use ciao_json::{parse, JsonValue};
use ciao_predicate::{Clause, Query, SimplePredicate};
use ciao_sql::{Ident, Span, SqlPredicate, SqlValue, WhereClause};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every key a predicate may read: the five typed columns and one the
/// schema does not have.
const KEYS: [&str; 6] = ["i", "f", "s", "b", "j", "missing"];
const STRS: [&str; 5] = ["", "a", "ab", "ba", "[1]"];
const FLOATS: [f64; 5] = [-1.0, 0.0, 0.5, 1.0, 2.0];

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
            Field::new("j", DataType::Json),
        ])
        .unwrap(),
    )
}

/// One cell's JSON: absent, null, a value of the column's type, or a
/// value of another type (stored as NULL, a coercion failure).
fn arb_cell(column: usize) -> impl Strategy<Value = Option<JsonValue>> {
    let typed = match column {
        0 => (-3i64..3).prop_map(JsonValue::from).boxed(),
        // Ints widen into a float column.
        1 => prop_oneof![
            prop::sample::select(FLOATS.to_vec()).prop_map(JsonValue::from),
            (-1i64..3).prop_map(JsonValue::from),
        ]
        .boxed(),
        2 => prop::sample::select(STRS.to_vec())
            .prop_map(JsonValue::from)
            .boxed(),
        3 => any::<bool>().prop_map(JsonValue::from).boxed(),
        _ => prop::sample::select(vec!["[1]", "[1,2]", r#"{"a":"ab"}"#, "[]"])
            .prop_map(|text| parse(text).unwrap())
            .boxed(),
    };
    (typed, 0u8..9).prop_map(|(value, pick)| match pick {
        0 => None,
        1 => Some(JsonValue::Null),
        2 => Some(JsonValue::from("x")),
        _ => Some(value),
    })
}

fn arb_record() -> impl Strategy<Value = JsonValue> {
    (
        arb_cell(0),
        arb_cell(1),
        arb_cell(2),
        arb_cell(3),
        arb_cell(4),
    )
        .prop_map(|cells| {
            let cells = [cells.0, cells.1, cells.2, cells.3, cells.4];
            JsonValue::Object(
                KEYS.iter()
                    .zip(cells)
                    .filter_map(|(key, cell)| cell.map(|v| (key.to_string(), v)))
                    .collect(),
            )
        })
}

fn key() -> impl Strategy<Value = String> {
    prop::sample::select(KEYS.to_vec()).prop_map(str::to_owned)
}

fn string() -> impl Strategy<Value = String> {
    prop::sample::select(STRS.to_vec()).prop_map(str::to_owned)
}

fn arb_predicate() -> impl Strategy<Value = SimplePredicate> {
    prop_oneof![
        (key(), string()).prop_map(|(key, value)| SimplePredicate::StrEq { key, value }),
        (key(), string()).prop_map(|(key, needle)| SimplePredicate::StrContains { key, needle }),
        key().prop_map(|key| SimplePredicate::NotNull { key }),
        (key(), -3i64..3).prop_map(|(key, value)| SimplePredicate::IntEq { key, value }),
        (key(), any::<bool>()).prop_map(|(key, value)| SimplePredicate::BoolEq { key, value }),
        (key(), -3i64..3).prop_map(|(key, value)| SimplePredicate::IntLt { key, value }),
        (key(), -3i64..3).prop_map(|(key, value)| SimplePredicate::IntGt { key, value }),
        (key(), prop::sample::select(FLOATS.to_vec()))
            .prop_map(|(key, value)| SimplePredicate::FloatEq { key, value }),
    ]
}

/// A conjunction of up to `max` clauses, each an IN-list of one to
/// three disjuncts.
fn arb_clauses(max: usize) -> impl Strategy<Value = Vec<Clause>> {
    prop::collection::vec(
        prop::collection::vec(arb_predicate(), 1..=3).prop_map(Clause::new),
        0..=max,
    )
}

/// A table of `records` in `block_rows`-row blocks, with predicate 0's
/// bits taken from `bits`.
fn table(records: &[JsonValue], block_rows: usize, bits: &[bool]) -> Table {
    let mut tb = TableBuilder::with_block_size(schema(), &[0], block_rows);
    for (record, &bit) in records.iter().zip(bits.iter().cycle()) {
        tb.push_record(record, &BTreeMap::from([(0, bit)]));
    }
    tb.finish()
}

/// What the driver must reproduce: the short-circuiting row loop.
fn row_loop(
    clauses: &[Clause],
    block: &Block,
    survivors: &Survivors,
) -> (usize, Vec<u32>, Vec<ClauseTally>) {
    let rows: Vec<usize> = match survivors {
        Survivors::Pruned => Vec::new(),
        Survivors::All => (0..block.row_count()).collect(),
        Survivors::Mask(mask) => mask.iter_ones().collect(),
    };
    let mut tallies = vec![ClauseTally::default(); clauses.len()];
    let mut selected = Vec::new();
    'rows: for &row in &rows {
        for (clause, tally) in clauses.iter().zip(&mut tallies) {
            tally.evaluated += 1;
            if !eval_clause_on_block(clause, block, row) {
                continue 'rows;
            }
            tally.passed += 1;
        }
        selected.push(row as u32);
    }
    (rows.len(), selected, tallies)
}

fn sql_predicate(p: &SimplePredicate) -> SqlPredicate {
    let key = Ident {
        name: p.key().to_owned(),
        span: Span::point(0),
    };
    match p.clone() {
        SimplePredicate::StrEq { value, .. } => SqlPredicate::StrEq { key, value },
        SimplePredicate::StrContains { needle, .. } => SqlPredicate::StrContains { key, needle },
        SimplePredicate::NotNull { .. } => SqlPredicate::NotNull { key },
        SimplePredicate::IntEq { value, .. } => SqlPredicate::IntEq { key, value },
        SimplePredicate::BoolEq { value, .. } => SqlPredicate::BoolEq { key, value },
        SimplePredicate::IntLt { value, .. } => SqlPredicate::IntLt { key, value },
        SimplePredicate::IntGt { value, .. } => SqlPredicate::IntGt { key, value },
        SimplePredicate::FloatEq { value, .. } => SqlPredicate::FloatEq { key, value },
    }
}

/// `select` (a statement without WHERE) filtered by `clauses`, with
/// the WHERE clauses set directly so no type check stands between the
/// drawn predicates and the executor.
fn plan_with(select: &str, clauses: &[Clause]) -> ciao_sql::PhysicalPlan {
    let mut plan = ciao_sql::compile(select, &schema()).unwrap();
    plan.filter = clauses
        .iter()
        .map(|c| WhereClause {
            disjuncts: c.disjuncts().iter().map(sql_predicate).collect(),
            span: Span::point(0),
        })
        .collect();
    plan
}

/// A partial's group states with only each group's first `calls`
/// aggregates kept.
fn first_calls(data: &PartialData, calls: usize) -> String {
    let PartialData::Groups(groups) = data else {
        panic!("an aggregate plan holds groups")
    };
    let kept = groups
        .iter()
        .map(|(key, states)| (key.clone(), states[..calls].to_vec()))
        .collect();
    format!("{:?}", PartialData::Groups(kept))
}

/// Everything but the operator's data. The parked
/// fields built for each plan's operator are its own (a `COUNT(*)`
/// builds only those its WHERE clauses read).
fn assert_same_scan(got: &PartialResult, expected: &PartialResult) -> Result<(), TestCaseError> {
    let unprojected = |p: &PartialResult| QueryProfile {
        parked_fields_projected: 0,
        ..p.profile.clone()
    };
    prop_assert_eq!(unprojected(got), unprojected(expected));
    prop_assert_eq!(got.parked_index_builds, expected.parked_index_builds);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn driver_equals_the_row_loop_on_every_block(
        records in prop::collection::vec(arb_record(), 1..=1100),
        block_rows in 1usize..=1100,
        clauses in arb_clauses(4),
        mask_bits in prop::collection::vec(any::<bool>(), 1..=97),
    ) {
        let table = table(&records, block_rows, &[true]);
        let mut filter = BlockFilter::new(&clauses);
        for block in table.blocks() {
            let mask = BitVec::from_fn(block.row_count(), |r| mask_bits[r % mask_bits.len()]);
            for survivors in [Survivors::All, Survivors::Mask(mask), Survivors::Pruned] {
                let (scanned, selected, tallies) = row_loop(&clauses, block, &survivors);
                let tally = filter.run(block, &survivors);
                prop_assert_eq!(tally.scanned, scanned);
                prop_assert_eq!(tally.selected, &selected[..]);
                prop_assert_eq!(tally.clauses, &tallies[..]);
            }
        }
    }

    #[test]
    fn count_select_and_plan_agree(
        records in prop::collection::vec(arb_record(), 1..=1100),
        block_rows in 1usize..=1100,
        // Short conjunctions, so most statements match some rows.
        clauses in arb_clauses(2),
        bits in prop::collection::vec(any::<bool>(), 1..=97),
    ) {
        let table = table(&records, block_rows, &bits);
        let query = Query::new("q", clauses.clone());
        let plan = plan_with("SELECT COUNT(*) FROM t", &clauses);
        let parked: Vec<String> = Vec::new();

        // How many rows the oracle keeps, and how many of those have
        // their bit set.
        let (mut truth, mut truth_masked, mut global) = (0, 0, 0);
        for block in table.blocks() {
            let (_, selected, _) = row_loop(&clauses, block, &Survivors::All);
            truth += selected.len();
            truth_masked += selected
                .iter()
                .filter(|&&row| bits[(global + row as usize) % bits.len()])
                .count();
            global += block.row_count();
        }

        // Nothing pushed: zone maps may prune, every row is evaluated.
        // With clause 0 pushed as predicate 0: skip-masks (and blocks
        // whose mask is empty) leave only the rows whose bit is set.
        let mut arms = vec![(
            ScanOptions::full().with_zone_maps(),
            Executor::default(),
            truth,
        )];
        if let Some(first) = clauses.first() {
            arms.push((
                ScanOptions::skipping(vec![0]).with_zone_maps(),
                Executor::new([(first.clone(), 0)]),
                truth_masked,
            ));
        }
        for (options, executor, want) in arms {
            let count = scan_count(&table, &query, &options);
            prop_assert_eq!(count.rows_matched, want as u64);

            // The table side's counters are the count's.
            let partial = executor.execute_plan(&table, &parked, &plan);
            let blocks = |p: &QueryProfile| {
                (
                    (p.blocks_total, p.blocks_pruned_zone, p.blocks_pruned_mask),
                    (p.rows_skipped_zone, p.rows_skipped_mask),
                    (p.rows_scanned, p.rows_matched),
                )
            };
            prop_assert_eq!(blocks(&partial.profile), blocks(&count));
            let result = finalize(&plan, partial);
            prop_assert_eq!(&result.rows, &vec![vec![SqlValue::Int(want as i64)]]);
        }
    }

    #[test]
    fn the_count_fold_equals_the_row_feed(
        records in prop::collection::vec(arb_record(), 1..=600),
        parked in prop::collection::vec(arb_record(), 0..=120),
        block_rows in 1usize..=600,
        clauses in arb_clauses(2),
        bits in prop::collection::vec(any::<bool>(), 1..=97),
    ) {
        let table = table(&records, block_rows, &bits);
        let parked: Vec<String> = parked.iter().map(ciao_json::to_string).collect();
        let query = Query::new("q", clauses.clone());
        let parked_truth = parked
            .iter()
            .filter(|r| ciao_predicate::eval_query(&query, &parse(r).unwrap()))
            .count();

        // Nothing pushed: every block row and every parked row is read.
        // Clause 0 pushed: skip-masks, and no parked side.
        let mut executors = vec![Executor::default()];
        if let Some(first) = clauses.first() {
            executors.push(Executor::new([(first.clone(), 0)]));
        }
        for executor in executors {
            let run = |select: &str| {
                let plan = plan_with(select, &clauses);
                (executor.execute_plan(&table, &parked, &plan), plan)
            };
            // Folded plans, each against the same plan plus one column
            // aggregate, which feeds every row to the operator.
            let mut matched = None;
            for (calls, folded, fed) in [
                (1, "SELECT COUNT(*) FROM t", "SELECT COUNT(*), COUNT(i) FROM t"),
                (
                    2,
                    "SELECT COUNT(*), COUNT(*) FROM t",
                    "SELECT COUNT(*), COUNT(*), COUNT(s) FROM t",
                ),
            ] {
                let (folded, plan) = run(folded);
                let (fed, _) = run(fed);
                prop_assert_eq!(format!("{:?}", folded.data), first_calls(&fed.data, calls));
                assert_same_scan(&folded, &fed)?;
                let count = folded.profile.total_matched();
                let rows = finalize(&plan, folded).rows;
                prop_assert_eq!(rows, vec![vec![SqlValue::Int(count as i64); calls]]);
                matched = Some((count, fed));
            }
            let (count, fed) = matched.unwrap();
            if executor.pushed_count() == 0 {
                let table_truth: usize = table
                    .blocks()
                    .iter()
                    .map(|b| row_loop(&clauses, b, &Survivors::All).1.len())
                    .sum();
                prop_assert_eq!(count, (table_truth + parked_truth) as u64);
            }

            // Plans the fold must leave to the row feed: a column
            // aggregate beside `COUNT(*)`, and a grouped `COUNT(*)`.
            let (mixed, plan) = run("SELECT COUNT(*), COUNT(f) FROM t");
            assert_same_scan(&mixed, &fed)?;
            let rows = finalize(&plan, mixed).rows;
            prop_assert_eq!(&rows[0][0], &SqlValue::Int(count as i64));
            let (grouped, plan) = run("SELECT b, COUNT(*) FROM t GROUP BY b");
            assert_same_scan(&grouped, &fed)?;
            let rows = finalize(&plan, grouped).rows;
            let counts: i64 = rows
                .iter()
                .map(|row| match row[1] {
                    SqlValue::Int(n) => n,
                    ref other => panic!("a count is an int: {other:?}"),
                })
                .sum();
            prop_assert_eq!(counts, count as i64);
            prop_assert_eq!(rows.is_empty(), count == 0);
        }
    }
}
