//! SQL frontend for CIAO: lexer → AST → typed analyzer → logical plan
//! → physical plan.
//!
//! The crate turns statement text into a [`PhysicalPlan`] validated
//! against a columnar [`Schema`]:
//!
//! ```
//! use ciao_columnar::{DataType, Field, Schema};
//!
//! let schema = Schema::new(vec![
//!     Field::new("city", DataType::Str),
//!     Field::new("stars", DataType::Int),
//! ])
//! .unwrap();
//! let plan = ciao_sql::compile(
//!     "SELECT city, COUNT(*) FROM reviews WHERE stars = 5 \
//!      GROUP BY city ORDER BY 2 DESC LIMIT 3",
//!     &schema,
//! )
//! .unwrap();
//! assert_eq!(plan.output.len(), 2);
//! ```
//!
//! Execution lives in `ciao_engine` (single shard) and `ciao_service`
//! (fan-out with partial-aggregate merge); this crate stays pure —
//! text and schema in, plan out — so every layer above shares one
//! grammar and one error type. The WHERE sub-grammar is the old
//! `ciao_predicate` predicate grammar, which now re-exports a shim
//! over [`parse_where_body`], and the supported predicate shapes
//! deliberately stay within `SimplePredicate` so SQL filters keep
//! flowing through pushdown plans, `PatternSet` prefilters, zone
//! maps, and fused bitvec skip-masks unchanged.

#![warn(missing_docs)]

mod analyzer;
mod ast;
mod error;
mod explain;
mod logical;
mod parser;
mod physical;
mod token;
mod value;

pub use analyzer::{
    analyze, AggArgRef, AggCall, AnalyzedSelect, ColumnRef, OutputColumn, OutputSource, SortKey,
};
pub use ast::{
    AggArg, AggExpr, AggFunc, Ident, OrderKey, OrderTarget, Select, SelectItem, SqlPredicate,
    Statement, WhereClause,
};
pub use error::{Span, SqlError, Stage};
pub use explain::{render_clause, render_plan};
pub use logical::{build_logical, LogicalPlan, PlanCore};
pub use parser::{parse, parse_where_body};
pub use physical::{build_physical, PhysicalOp, PhysicalPlan};
pub use token::{lex, Spanned, Token};
pub use value::{SqlType, SqlValue};

use ciao_columnar::Schema;

/// Plans a parsed statement against a schema: analyze → logical →
/// physical.
pub fn plan(stmt: &Statement, schema: &Schema) -> Result<PhysicalPlan, SqlError> {
    let analyzed = analyze(stmt, schema)?;
    Ok(build_physical(build_logical(analyzed)))
}

/// One-shot convenience: parse and plan a statement.
pub fn compile(sql: &str, schema: &Schema) -> Result<PhysicalPlan, SqlError> {
    plan(&parse(sql)?, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_columnar::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("stars", DataType::Int),
            Field::new("score", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn compile_grouped_aggregate() {
        let plan = compile(
            "SELECT city, COUNT(*), AVG(score) FROM t WHERE stars = 5 \
             GROUP BY city ORDER BY 2 DESC LIMIT 3",
            &schema(),
        )
        .unwrap();
        assert_eq!(plan.filter.len(), 1);
        assert!(matches!(&plan.op, PhysicalOp::HashAggregate { group, aggs }
            if group.len() == 1 && aggs.len() == 2));
        assert_eq!(plan.needed_columns, vec!["city", "score"]);
        assert_eq!(plan.limit, Some(3));
    }

    #[test]
    fn compile_projection() {
        let plan = compile("SELECT city, stars FROM t WHERE stars > 3", &schema()).unwrap();
        assert!(matches!(&plan.op, PhysicalOp::ProjectScan { columns } if columns.len() == 2));
        assert_eq!(plan.needed_columns, vec!["city", "stars"]);
    }

    #[test]
    fn errors_flow_from_every_stage() {
        assert_eq!(
            compile("SELECT ~", &schema()).unwrap_err().stage,
            Stage::Lex
        );
        assert_eq!(
            compile("SELECT", &schema()).unwrap_err().stage,
            Stage::Parse
        );
        assert_eq!(
            compile("SELECT nope FROM t", &schema()).unwrap_err().stage,
            Stage::Analyze
        );
    }
}
