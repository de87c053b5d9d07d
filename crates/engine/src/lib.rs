//! CIAO's query execution engine (the repo's Spark substitute).
//!
//! The paper integrates data skipping into Spark 2.4's scan: for every
//! `SELECT COUNT(*) … WHERE <conjunctive predicates>` query it (a)
//! looks up which of the query's clauses were pushed down, (b) ANDs
//! their per-block bitvectors into a skip mask, (c) scans only the
//! surviving rows, and (d) **re-verifies every clause** on each
//! survivor, because client bits admit false positives (§VI-B).
//!
//! Two scan paths exist:
//!
//! * [`scan`] — over the columnar table, with optional skipping: one
//!   block-scan driver ([`BlockFilter`]) narrows a selection vector
//!   over each block a column at a time, clause by clause, and its two
//!   consumers — counts and plans — read only the rows it selected
//!   ([`row_eval`] is the row-at-a-time reference it is tested
//!   against);
//! * [`raw_scan`] — over parked raw JSON records: only the fields the
//!   query reads are built per record, then evaluated — the one
//!   parked-record loop, shared by counts and plans. Each epoch's
//!   records are validated once, by the first scan, which leaves a
//!   positional map ([`ParkedIndex`]) every later scan reads values
//!   from by offset. The loader parks a record only when it fails
//!   some pushed clause of every workload query (client bits have no
//!   false negatives), so a query whose pushed clauses contain one
//!   workload query's whole pushed set skips this path wholesale;
//!   every other query runs it.
//!
//! [`exec::Executor`] ties the two together and reports [`metrics`].
//! Every entry point runs in two steps: *prepare* ([`Executor::prepare`],
//! [`PreparedScan`]) routes the query and settles, per block, what
//! zone maps and the fused skip-mask leave — the surviving row count
//! is known before a column is touched — and *scan* runs the driver
//! over only those survivors.
//!
//! On top of the count primitives sits the SQL execution layer
//! ([`plan_exec`], [`result`]): [`Executor::execute_plan`] runs a
//! `ciao_sql` physical plan (projection or grouped aggregation) over
//! the same two paths — consuming zone maps and fused bitvec
//! skip-masks so data skipping accelerates aggregates too — and
//! produces a mergeable [`PartialResult`]; [`finalize`] turns merged
//! partials into the ordered, limited, typed [`QueryResult`].

#![warn(missing_docs)]

pub mod exec;
pub mod metrics;
pub mod plan_exec;
pub mod profile;
pub mod raw_scan;
pub mod result;
pub mod row_eval;
pub mod scan;
pub mod zone;

pub use exec::{Executor, Prepared, QueryOutcome};
pub use metrics::{QueryMetrics, ScanMetrics};
pub use plan_exec::{finalize, AggState, PartialData, PartialResult};
pub use profile::{ClauseProfile, QueryProfile};
pub use raw_scan::{scan_raw_records, ParkedFragment, ParkedIndex};
pub use result::{ColumnDesc, QueryResult};
pub use row_eval::{eval_clause_on_block, eval_query_on_block, eval_simple_on_block};
pub use scan::{
    scan_count, BlockFilter, BlockTally, ClauseTally, PreparedScan, ScanOptions, Survivors,
};
pub use zone::block_can_match;
