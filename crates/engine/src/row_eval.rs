//! The reference evaluator: predicates on one columnar row at a time.
//!
//! Mirrors `ciao_predicate::eval` exactly, but reads
//! [`ciao_columnar::Cell`]s instead of a parsed DOM; the integration
//! suite asserts the two agree on every dataset record. No scan runs
//! it: every call looks its column up by name
//! ([`ciao_columnar::Block::cell`]), which is why the block-scan
//! driver ([`crate::scan::BlockFilter`]) resolves columns once per
//! block instead. It stays as the oracle that driver is tested
//! against (`tests/block_driver_equivalence.rs`).

use ciao_columnar::Block;
use ciao_predicate::{Clause, Query, SimplePredicate};

/// Evaluates one simple predicate against row `row` of `block`.
pub fn eval_simple_on_block(p: &SimplePredicate, block: &Block, row: usize) -> bool {
    match p {
        SimplePredicate::StrEq { key, value } => {
            block.cell(row, key).as_str() == Some(value.as_str())
        }
        SimplePredicate::StrContains { key, needle } => block
            .cell(row, key)
            .as_str()
            .is_some_and(|s| s.contains(needle.as_str())),
        SimplePredicate::NotNull { key } => !block.cell(row, key).is_null(),
        SimplePredicate::IntEq { key, value } => block.cell(row, key).as_i64() == Some(*value),
        SimplePredicate::BoolEq { key, value } => block.cell(row, key).as_bool() == Some(*value),
        SimplePredicate::IntLt { key, value } => {
            block.cell(row, key).as_i64().is_some_and(|i| i < *value)
        }
        SimplePredicate::IntGt { key, value } => {
            block.cell(row, key).as_i64().is_some_and(|i| i > *value)
        }
        SimplePredicate::FloatEq { key, value } => block.cell(row, key).as_f64() == Some(*value),
    }
}

/// Evaluates a disjunctive clause against one row.
pub fn eval_clause_on_block(c: &Clause, block: &Block, row: usize) -> bool {
    c.disjuncts()
        .iter()
        .any(|p| eval_simple_on_block(p, block, row))
}

/// Evaluates a query's full conjunction against one row.
pub fn eval_query_on_block(q: &Query, block: &Block, row: usize) -> bool {
    q.clauses
        .iter()
        .all(|c| eval_clause_on_block(c, block, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_columnar::{Schema, TableBuilder};
    use ciao_json::{parse, JsonValue};
    use ciao_predicate::{eval_query, eval_simple, parse_query};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn records() -> Vec<JsonValue> {
        [
            r#"{"name":"Bob","stars":5,"score":4.5,"active":true,"text":"delicious food"}"#,
            r#"{"name":"Alice","stars":3,"score":2.0,"active":false,"text":"awful"}"#,
            r#"{"name":"John","stars":5,"active":true}"#,
            r#"{"stars":1,"score":1.0,"text":"ok delicious"}"#,
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect()
    }

    fn block() -> ciao_columnar::Table {
        let recs = records();
        let schema = Arc::new(Schema::infer(&recs).unwrap());
        let mut tb = TableBuilder::new(schema, &[]);
        for r in &recs {
            tb.push_record(r, &BTreeMap::new());
        }
        tb.finish()
    }

    #[test]
    fn matches_typed_eval_on_every_record_and_predicate() {
        let recs = records();
        let table = block();
        let b = &table.blocks()[0];
        let preds = [
            SimplePredicate::StrEq {
                key: "name".into(),
                value: "Bob".into(),
            },
            SimplePredicate::StrContains {
                key: "text".into(),
                needle: "delicious".into(),
            },
            SimplePredicate::NotNull {
                key: "score".into(),
            },
            SimplePredicate::IntEq {
                key: "stars".into(),
                value: 5,
            },
            SimplePredicate::BoolEq {
                key: "active".into(),
                value: true,
            },
            SimplePredicate::IntLt {
                key: "stars".into(),
                value: 4,
            },
            SimplePredicate::IntGt {
                key: "stars".into(),
                value: 4,
            },
            SimplePredicate::FloatEq {
                key: "score".into(),
                value: 4.5,
            },
            SimplePredicate::FloatEq {
                key: "stars".into(),
                value: 5.0,
            },
            SimplePredicate::StrEq {
                key: "missing".into(),
                value: "x".into(),
            },
        ];
        for (row, rec) in recs.iter().enumerate() {
            for p in &preds {
                assert_eq!(
                    eval_simple_on_block(p, b, row),
                    eval_simple(p, rec),
                    "divergence for {p} on row {row}"
                );
            }
        }
    }

    #[test]
    fn query_conjunction_on_block() {
        let table = block();
        let b = &table.blocks()[0];
        let q = parse_query("q", r#"stars = 5 AND active = true"#).unwrap();
        let hits: Vec<usize> = (0..b.row_count())
            .filter(|&r| eval_query_on_block(&q, b, r))
            .collect();
        assert_eq!(hits, vec![0, 2]);
        // Agreement with typed evaluation.
        for (row, rec) in records().iter().enumerate() {
            assert_eq!(eval_query_on_block(&q, b, row), eval_query(&q, rec));
        }
    }

    #[test]
    fn clause_disjunction_on_block() {
        let table = block();
        let b = &table.blocks()[0];
        let q = parse_query("q", r#"name IN ("Alice","John")"#).unwrap();
        let hits: Vec<usize> = (0..b.row_count())
            .filter(|&r| eval_clause_on_block(&q.clauses[0], b, r))
            .collect();
        assert_eq!(hits, vec![1, 2]);
    }
}
