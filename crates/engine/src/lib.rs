//! CIAO's query execution engine (the repo's Spark substitute).
//!
//! The paper integrates data skipping into Spark 2.4's scan: for every
//! `SELECT COUNT(*) … WHERE <conjunctive predicates>` query it (a)
//! looks up which of the query's clauses were pushed down, (b) ANDs
//! their per-block bitvectors into a skip mask, (c) scans only the
//! surviving rows, and (d) **re-verifies every clause** on each
//! survivor, because client bits admit false positives (§VI-B).
//!
//! Two scan sides exist:
//!
//! * [`scan`] — over the columnar table, with optional skipping: one
//!   block-scan driver ([`BlockFilter`]) narrows a selection vector
//!   over each block a column at a time, clause by clause, and the
//!   operator reads only the rows it selected ([`row_eval`] is the
//!   row-at-a-time reference it is tested against);
//! * [`raw_scan`] — over parked raw JSON records: only the fields the
//!   query reads are built per record, then evaluated — the one
//!   parked-record loop. Each epoch's records are validated once, by
//!   the first scan, which leaves a positional map ([`ParkedIndex`])
//!   every later scan reads values from by offset. The loader parks a
//!   record only when it fails some pushed clause of every workload
//!   query (client bits have no false negatives), so a query whose
//!   pushed clauses contain one workload query's whole pushed set
//!   skips this side wholesale; every other query reads it.
//!
//! [`exec::Executor`] ties the two together, and a [`QueryProfile`]
//! is the one record of what a scan did.
//! Every execution runs in two steps: *prepare* ([`Executor::prepare`],
//! [`PreparedScan`]) routes the query and settles, per block, what
//! zone maps and the fused skip-mask leave — the surviving row count
//! is known before a column is touched — and *scan*
//! ([`Executor::scan_plan`]) runs the driver over only those survivors.
//!
//! There is one execution path, the SQL layer ([`plan_exec`],
//! [`result`]): [`Executor::scan_plan`] runs a `ciao_sql` physical plan
//! (projection or grouped aggregation) over both sides — consuming zone
//! maps and fused bitvec skip-masks so data skipping accelerates
//! aggregates too — and produces a mergeable [`PartialResult`];
//! [`finalize`] turns merged partials into the ordered, limited, typed
//! [`QueryResult`]. A predicate query's count is the same path: the
//! [`count_plan`] over the query's clauses
//! ([`Executor::execute_count`]), which adds each side's match count
//! instead of feeding rows.

#![warn(missing_docs)]

pub mod exec;
pub mod plan_exec;
pub mod profile;
pub mod raw_scan;
pub mod result;
pub mod row_eval;
pub mod scan;
pub mod zone;

pub use exec::{Executor, Prepared, QueryOutcome};
pub use plan_exec::{count_plan, finalize, plan_query, AggState, PartialData, PartialResult};
pub use profile::{ClauseProfile, QueryProfile};
pub use raw_scan::{scan_raw_records, ParkedFragment, ParkedIndex};
pub use result::{ColumnDesc, QueryResult};
pub use row_eval::{eval_clause_on_block, eval_query_on_block, eval_simple_on_block};
pub use scan::{
    scan_count, BlockFilter, BlockTally, ClauseTally, PreparedScan, ScanOptions, Survivors,
};
pub use zone::block_can_match;
