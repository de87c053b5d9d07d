//! Physical-plan execution: projections and aggregates over the
//! columnar table plus the parked raw records.
//!
//! This is the one execution path: a SQL `SELECT`, and a predicate
//! [`Query`]'s count through [`count_plan`], both run as a
//! [`PhysicalPlan`] through [`Executor::scan_plan`]. A plan's WHERE
//! conjunction is lowered once into predicate
//! [`Clause`](ciao_predicate::Clause)s ([`plan_query`]) and routed by
//! [`Executor::prepare`]: pushed clauses drive fused bitvec
//! skip-masks, the parked side is read unless the pushed clauses
//! contain a workload query's whole pushed set, and zone maps prune
//! blocks. The block-scan driver ([`crate::scan::BlockFilter`]) runs the
//! conjunction, and each row of a block's selection feeds a projection
//! buffer or per-group aggregate states, through one operator feed
//! whichever side the row came from — except under an ungrouped
//! aggregate of `COUNT(*)` calls only, which adds each side's match
//! count: a block's is its selection vector's length (MonetDB/X100,
//! Boncz et al., CIDR 2005). The parked side is
//! [`crate::raw_scan`]'s scan: each record is validated once per epoch
//! (by the first scan, which builds the epoch's positional map), and
//! only the fields the WHERE clauses and the operator read are read,
//! with the errors and the values a full parse would give — for mapped
//! records of a typed fragment, into batches the same
//! [`crate::scan::BlockFilter`] filters and whose selected rows feed the
//! operator as a block's do.
//!
//! Execution is deliberately split so a sharded service can fan out:
//! per shard, [`Executor::prepare`] decides what survives zone maps and
//! skip-masks — so the cost of the scan is known before it starts, and
//! the scan can be run on whichever thread suits it — and
//! [`Executor::scan_plan`] produces a mergeable [`PartialResult`]
//! ([`Executor::execute_plan`] is the two in one call); [`finalize`]
//! turns the merged partial into the ordered, limited
//! [`QueryResult`]. Determinism is load-bearing (the tests compare
//! against a full-scan oracle bit-for-bit): integer sums/averages
//! accumulate exactly in `i128`, groups live in a `BTreeMap` so output
//! is key-ordered before ORDER BY, and sorting tie-breaks on the whole
//! row.

use crate::exec::{Executor, Prepared};
use crate::profile::QueryProfile;
use crate::raw_scan::{scan_parked, ParkedFragment, ParkedRow};
use crate::result::{ColumnDesc, QueryResult};
use crate::scan::BlockFilter;
use ciao_columnar::{Block, Table};
use ciao_predicate::{clauses_from_sql, Query};
use ciao_sql::{
    AggArgRef, AggCall, AggFunc, ColumnRef, OutputColumn, OutputSource, PhysicalOp, PhysicalPlan,
    SqlType, SqlValue,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Running state of one aggregate over one group.
///
/// NULLs are ignored (SQL semantics): `COUNT(col)` counts non-null
/// values, `SUM`/`AVG`/`MIN`/`MAX` of an all-null group finalize to
/// NULL. `COUNT(*)` is fed a non-null marker per row, so it counts
/// rows. Integer sums accumulate in `i128` so shard merge order can
/// never change the answer through intermediate overflow.
#[derive(Debug, Clone)]
pub enum AggState {
    /// `COUNT(*)` / `COUNT(col)`.
    Count {
        /// Non-null values seen.
        n: i64,
    },
    /// `SUM` over an int column (exact).
    SumInt {
        /// Exact running sum.
        sum: i128,
        /// Whether any non-null value was seen.
        seen: bool,
    },
    /// `SUM` over a float column.
    SumFloat {
        /// Running sum.
        sum: f64,
        /// Whether any non-null value was seen.
        seen: bool,
    },
    /// `MIN` over any comparable column.
    Min {
        /// Smallest value seen, if any.
        v: Option<SqlValue>,
    },
    /// `MAX` over any comparable column.
    Max {
        /// Largest value seen, if any.
        v: Option<SqlValue>,
    },
    /// `AVG` over an int column (exact sum, float finalize).
    AvgInt {
        /// Exact running sum.
        sum: i128,
        /// Non-null values seen.
        n: i64,
    },
    /// `AVG` over a float column.
    AvgFloat {
        /// Running sum.
        sum: f64,
        /// Non-null values seen.
        n: i64,
    },
}

impl AggState {
    /// Fresh state for one aggregate call.
    pub fn new(call: &AggCall) -> AggState {
        let col_ty = match &call.arg {
            AggArgRef::Star => None,
            AggArgRef::Column(c) => Some(c.ty),
        };
        match call.func {
            AggFunc::Count => AggState::Count { n: 0 },
            AggFunc::Sum => match col_ty {
                Some(SqlType::Int) => AggState::SumInt {
                    sum: 0,
                    seen: false,
                },
                _ => AggState::SumFloat {
                    sum: 0.0,
                    seen: false,
                },
            },
            AggFunc::Avg => match col_ty {
                Some(SqlType::Int) => AggState::AvgInt { sum: 0, n: 0 },
                _ => AggState::AvgFloat { sum: 0.0, n: 0 },
            },
            AggFunc::Min => AggState::Min { v: None },
            AggFunc::Max => AggState::Max { v: None },
        }
    }

    /// Folds one value in. NULLs are ignored for every variant.
    pub fn update(&mut self, value: &SqlValue) {
        if value.is_null() {
            return;
        }
        match self {
            AggState::Count { n } => *n += 1,
            AggState::SumInt { sum, seen } => {
                if let SqlValue::Int(i) = value {
                    *sum += *i as i128;
                    *seen = true;
                }
            }
            AggState::SumFloat { sum, seen } => {
                if let Some(x) = as_f64(value) {
                    *sum += x;
                    *seen = true;
                }
            }
            AggState::Min { v } => {
                if v.as_ref().is_none_or(|cur| value < cur) {
                    *v = Some(value.clone());
                }
            }
            AggState::Max { v } => {
                if v.as_ref().is_none_or(|cur| value > cur) {
                    *v = Some(value.clone());
                }
            }
            AggState::AvgInt { sum, n } => {
                if let SqlValue::Int(i) = value {
                    *sum += *i as i128;
                    *n += 1;
                }
            }
            AggState::AvgFloat { sum, n } => {
                if let Some(x) = as_f64(value) {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    /// Merges another shard's state for the same aggregate and group.
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count { n }, AggState::Count { n: m }) => *n += m,
            (AggState::SumInt { sum, seen }, AggState::SumInt { sum: s, seen: sn }) => {
                *sum += s;
                *seen |= sn;
            }
            (AggState::SumFloat { sum, seen }, AggState::SumFloat { sum: s, seen: sn }) => {
                *sum += s;
                *seen |= sn;
            }
            (AggState::Min { v }, AggState::Min { v: Some(o) }) => {
                if v.as_ref().is_none_or(|cur| o < *cur) {
                    *v = Some(o);
                }
            }
            (AggState::Max { v }, AggState::Max { v: Some(o) }) => {
                if v.as_ref().is_none_or(|cur| o > *cur) {
                    *v = Some(o);
                }
            }
            (AggState::Min { .. }, AggState::Min { v: None })
            | (AggState::Max { .. }, AggState::Max { v: None }) => {}
            (AggState::AvgInt { sum, n }, AggState::AvgInt { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (AggState::AvgFloat { sum, n }, AggState::AvgFloat { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            _ => unreachable!("merging aggregate states from different plans"),
        }
    }

    /// Produces the final value.
    pub fn finalize(self) -> SqlValue {
        match self {
            AggState::Count { n } => SqlValue::Int(n),
            AggState::SumInt { seen: false, .. } | AggState::SumFloat { seen: false, .. } => {
                SqlValue::Null
            }
            AggState::SumInt { sum, .. } => match i64::try_from(sum) {
                Ok(i) => SqlValue::Int(i),
                Err(_) => SqlValue::Float(sum as f64),
            },
            AggState::SumFloat { sum, .. } => SqlValue::Float(sum),
            AggState::Min { v } | AggState::Max { v } => v.unwrap_or(SqlValue::Null),
            AggState::AvgInt { n: 0, .. } | AggState::AvgFloat { n: 0, .. } => SqlValue::Null,
            AggState::AvgInt { sum, n } => SqlValue::Float(sum as f64 / n as f64),
            AggState::AvgFloat { sum, n } => SqlValue::Float(sum / n as f64),
        }
    }
}

fn as_f64(value: &SqlValue) -> Option<f64> {
    match value {
        SqlValue::Int(i) => Some(*i as f64),
        SqlValue::Float(x) => Some(*x),
        _ => None,
    }
}

/// The mergeable, order-free part of a plan execution.
#[derive(Debug, Clone)]
pub enum PartialData {
    /// Projection rows, in scan order.
    Rows(Vec<Vec<SqlValue>>),
    /// Per-group aggregate states, keyed by GROUP BY values. A
    /// `BTreeMap` (with [`SqlValue`]'s total order) makes iteration —
    /// and therefore unsorted output — deterministic.
    Groups(BTreeMap<Vec<SqlValue>, Vec<AggState>>),
}

/// One shard's contribution to a plan execution.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// Rows or group states.
    pub data: PartialData,
    /// This shard's per-block / per-clause execution profile.
    pub profile: QueryProfile,
    /// Epochs whose parked-record positional map this execution built
    /// ([`crate::raw_scan::ParkedIndex`]); a scan that found every map
    /// built reads 0. Not part of the profile: a cold and a warm run
    /// of one statement profile alike.
    pub parked_index_builds: usize,
}

impl PartialResult {
    /// An empty partial matching the plan's operator shape, the
    /// identity for [`PartialResult::merge`].
    pub fn empty(plan: &PhysicalPlan) -> PartialResult {
        let data = match &plan.op {
            PhysicalOp::ProjectScan { .. } => PartialData::Rows(Vec::new()),
            PhysicalOp::HashAggregate { .. } => PartialData::Groups(BTreeMap::new()),
        };
        PartialResult {
            data,
            profile: QueryProfile::default(),
            parked_index_builds: 0,
        }
    }

    /// Folds another shard's partial in: projection rows append in
    /// merge order; group states merge per key; profiles merge per
    /// [`QueryProfile::merge`]; map builds add.
    pub fn merge(&mut self, other: PartialResult) {
        self.profile.merge(&other.profile);
        self.parked_index_builds += other.parked_index_builds;
        match (&mut self.data, other.data) {
            (PartialData::Rows(rows), PartialData::Rows(more)) => rows.extend(more),
            (PartialData::Groups(groups), PartialData::Groups(more)) => {
                for (key, states) in more {
                    match groups.entry(key) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(states);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            for (cur, inc) in e.get_mut().iter_mut().zip(states) {
                                cur.merge(inc);
                            }
                        }
                    }
                }
            }
            _ => unreachable!("merging partials from different plans"),
        }
    }
}

/// The columns the operator reads, one slot per read: a projection's
/// columns, or an aggregation's group keys then the argument of each
/// aggregate that has one. The columnar side resolves the slots to
/// block column indices once per block, not per row.
fn operator_inputs(op: &PhysicalOp) -> Vec<&ColumnRef> {
    match op {
        PhysicalOp::ProjectScan { columns } => columns.iter().collect(),
        PhysicalOp::HashAggregate { group, aggs } => {
            let args = aggs.iter().filter_map(|a| match &a.arg {
                AggArgRef::Star => None,
                AggArgRef::Column(c) => Some(c),
            });
            group.iter().chain(args).collect()
        }
    }
}

/// Feeds one matching row to the operator; `input(slot)` is the row's
/// value for the slot-th column of [`operator_inputs`].
fn feed_operator(
    data: &mut PartialData,
    op: &PhysicalOp,
    mut input: impl FnMut(usize) -> SqlValue,
) {
    match (data, op) {
        (PartialData::Rows(rows), PhysicalOp::ProjectScan { columns }) => {
            rows.push((0..columns.len()).map(input).collect());
        }
        (PartialData::Groups(groups), PhysicalOp::HashAggregate { group, aggs }) => {
            let key: Vec<SqlValue> = (0..group.len()).map(&mut input).collect();
            let states = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(AggState::new).collect());
            let mut slot = group.len();
            for (state, call) in states.iter_mut().zip(aggs) {
                match call.arg {
                    AggArgRef::Star => state.update(&SqlValue::Int(1)),
                    AggArgRef::Column(_) => {
                        state.update(&input(slot));
                        slot += 1;
                    }
                }
            }
        }
        _ => unreachable!("operator/partial shape mismatch"),
    }
}

/// The calls of an ungrouped aggregate of `COUNT(*)` calls only: such
/// a plan reads no column, so each side adds its match count instead of
/// feeding rows.
fn count_stars(op: &PhysicalOp) -> Option<&[AggCall]> {
    let PhysicalOp::HashAggregate { group, aggs } = op else {
        return None;
    };
    let star = |a: &AggCall| a.func == AggFunc::Count && a.arg == AggArgRef::Star;
    (group.is_empty() && aggs.iter().all(star)).then_some(aggs)
}

/// `SELECT COUNT(*) FROM t`, the plan a predicate [`Query`] count runs
/// over the query's own clauses ([`Executor::execute_count`]). Built,
/// not compiled, so no schema rejects a clause: a key the schema lacks
/// or a value of another type is false on every row.
pub fn count_plan() -> PhysicalPlan {
    PhysicalPlan {
        filter: Vec::new(),
        op: PhysicalOp::HashAggregate {
            group: Vec::new(),
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: AggArgRef::Star,
                output: SqlType::Int,
            }],
        },
        output: vec![OutputColumn {
            name: "count(*)".to_owned(),
            ty: SqlType::Int,
            source: OutputSource::Agg(0),
        }],
        order_by: Vec::new(),
        limit: None,
        needed_columns: Vec::new(),
    }
}

/// A plan's WHERE conjunction as the [`Query`] [`Executor::prepare`]
/// routes, lowered once per statement.
pub fn plan_query(plan: &PhysicalPlan) -> Query {
    Query::new("sql", clauses_from_sql(&plan.filter))
}

impl Executor {
    /// Runs `plan`'s operator over the rows a [`Prepared`] execution
    /// left standing, producing a mergeable partial.
    ///
    /// Pushed WHERE clauses make the scan walk the fused skip-masks;
    /// the parked side gets the parked scan over every record unless
    /// [`Executor::prepare`] ruled it out. Zone maps prune blocks on both paths — including pure
    /// aggregate scans, so data skipping accelerates aggregates, not
    /// just filters. Every surviving row is re-verified with full typed
    /// evaluation before it feeds the operator (client bits admit false
    /// positives).
    pub fn scan_plan<'a, 'p, S: AsRef<str> + 'p>(
        &self,
        prepared: &Prepared,
        blocks: impl IntoIterator<Item = &'a Block>,
        parked: impl IntoIterator<Item = ParkedFragment<'p, S>>,
        plan: &PhysicalPlan,
    ) -> PartialResult {
        let query = &prepared.query;
        let mut out = PartialResult::empty(plan);
        out.profile = prepared.scan.profile(&query.clauses, |c| self.is_pushed(c));
        let inputs = operator_inputs(&plan.op);
        let counts = count_stars(&plan.op);

        // Columnar side: each block's selection feeds the operator, its
        // input columns resolved once per block. A count adds each
        // selection's length (`rows_matched`) and feeds nothing.
        let mut filter = BlockFilter::new(&query.clauses);
        let mut cols: Vec<Option<usize>> = Vec::with_capacity(inputs.len());
        for (block, survivors) in blocks.into_iter().zip(prepared.scan.survivors()) {
            let tally = filter.run(block, survivors);
            out.profile.add_block(&tally);
            if tally.selected.is_empty() || counts.is_some() {
                continue;
            }
            cols.clear();
            cols.extend(inputs.iter().map(|c| block.schema().index_of(&c.name)));
            for &row in tally.selected {
                feed_operator(&mut out.data, &plan.op, |slot| {
                    cols[slot].map_or(SqlValue::Null, |i| {
                        SqlValue::from_cell(block.column(i).cell(row as usize))
                    })
                });
            }
        }

        // Parked side: skipped only when the pushed clauses contain a
        // workload query's whole pushed set (no parked record passes).
        if prepared.scan_parked {
            let data = &mut out.data;
            let feed = |row: ParkedRow<'_>| feed_operator(data, &plan.op, row);
            out.parked_index_builds = scan_parked(
                parked,
                &mut filter,
                &inputs,
                counts.is_none().then_some(feed),
                &mut out.profile,
            );
        }

        // Exactly the partial the row feed leaves: one group once a row
        // has matched.
        let matched = out.profile.total_matched() as i64;
        if let (Some(aggs), 1..) = (counts, matched) {
            let states = aggs
                .iter()
                .map(|_| AggState::Count { n: matched })
                .collect();
            out.data = PartialData::Groups(BTreeMap::from([(Vec::new(), states)]));
        }
        out
    }

    /// Executes a SQL physical plan over this shard's (table, parked)
    /// pair: [`Executor::prepare`] of its [`plan_query`], then
    /// [`Executor::scan_plan`]. A one-off scan: the records get no
    /// positional map.
    pub fn execute_plan<S: AsRef<str>>(
        &self,
        table: &Table,
        parked: &[S],
        plan: &PhysicalPlan,
    ) -> PartialResult {
        let prepared = self.prepare(plan_query(plan), table.blocks(), parked.len());
        self.scan_plan(
            &prepared,
            table.blocks(),
            [ParkedFragment::unindexed(parked)],
            plan,
        )
    }
}

/// Turns the merged partials into the final answer: finalize group
/// states (or take projection rows), apply ORDER BY with a full-row
/// tie-break, then LIMIT. The result's `elapsed` is zero: only the
/// caller that ran the scans knows their wall time.
pub fn finalize(plan: &PhysicalPlan, partial: PartialResult) -> QueryResult {
    let PartialResult {
        data,
        profile,
        parked_index_builds,
    } = partial;
    let mut rows: Vec<Vec<SqlValue>> = match data {
        PartialData::Rows(rows) => rows,
        PartialData::Groups(groups) => {
            let aggs = match &plan.op {
                PhysicalOp::HashAggregate { aggs, .. } => aggs,
                PhysicalOp::ProjectScan { .. } => {
                    unreachable!("grouped partial from a projection plan")
                }
            };
            let emit = |key: &[SqlValue], agg_vals: &[SqlValue]| -> Vec<SqlValue> {
                plan.output
                    .iter()
                    .map(|o| match &o.source {
                        OutputSource::Group(i) => key[*i].clone(),
                        OutputSource::Agg(i) => agg_vals[*i].clone(),
                        OutputSource::Column(_) => {
                            unreachable!("bare column in an aggregate plan")
                        }
                    })
                    .collect()
            };
            let grouped_by_keys = match &plan.op {
                PhysicalOp::HashAggregate { group, .. } => !group.is_empty(),
                PhysicalOp::ProjectScan { .. } => false,
            };
            if groups.is_empty() && !grouped_by_keys {
                // SQL: an ungrouped aggregate over zero rows still
                // yields one row (COUNT = 0, the rest NULL).
                let agg_vals: Vec<SqlValue> = aggs
                    .iter()
                    .map(|call| AggState::new(call).finalize())
                    .collect();
                vec![emit(&[], &agg_vals)]
            } else {
                groups
                    .into_iter()
                    .map(|(key, states)| {
                        let agg_vals: Vec<SqlValue> =
                            states.into_iter().map(AggState::finalize).collect();
                        emit(&key, &agg_vals)
                    })
                    .collect()
            }
        }
    };

    if !plan.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for key in &plan.order_by {
                let ord = a[key.output].cmp(&b[key.output]);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            // Full-row tie-break: output never depends on shard count
            // or merge order.
            a.cmp(b)
        });
    }
    if let Some(limit) = plan.limit {
        rows.truncate(limit);
    }

    QueryResult {
        columns: plan
            .output
            .iter()
            .map(|o| ColumnDesc {
                name: o.name.clone(),
                ty: o.ty,
            })
            .collect(),
        rows,
        profile,
        elapsed: Duration::ZERO,
        parked_index_builds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_columnar::{Schema, TableBuilder};
    use ciao_json::{parse, JsonValue};
    use ciao_predicate::parse_clause;
    use std::collections::BTreeMap as Map;
    use std::sync::Arc;

    /// 60 records; stars = 5 rows admitted to the table with exact
    /// predicate-1 bits, the rest parked as raw JSON. Records carry an
    /// occasionally-null float score.
    struct Env {
        table: ciao_columnar::Table,
        parked: Vec<String>,
        exec: Executor,
        schema: Schema,
        all: Vec<JsonValue>,
    }

    fn record(i: usize) -> String {
        let score = if i.is_multiple_of(7) {
            "null".to_owned()
        } else {
            format!("{}.5", i % 4)
        };
        format!(
            r#"{{"name":"u{}","stars":{},"score":{},"city":"c{}"}}"#,
            i,
            i % 5 + 1,
            score,
            i % 3
        )
    }

    fn env() -> Env {
        let all: Vec<JsonValue> = (0..60).map(|i| parse(&record(i)).unwrap()).collect();
        let schema = Schema::infer(&all).unwrap();
        let mut tb = TableBuilder::with_block_size(Arc::new(schema.clone()), &[1], 8);
        let mut parked = Vec::new();
        for rec in &all {
            if rec.get("stars").unwrap().as_i64() == Some(5) {
                tb.push_record(rec, &Map::from([(1, true)]));
            } else {
                parked.push(ciao_json::to_string(rec));
            }
        }
        Env {
            table: tb.finish(),
            parked,
            exec: Executor::new([(parse_clause("stars = 5").unwrap(), 1)]),
            schema,
            all,
        }
    }

    fn run(e: &Env, sql: &str) -> QueryResult {
        let plan = ciao_sql::compile(sql, &e.schema).unwrap();
        finalize(&plan, e.exec.execute_plan(&e.table, &e.parked, &plan))
    }

    #[test]
    fn count_star_matches_execute_count() {
        let e = env();
        // The count plan is the compiled statement, minus its schema.
        assert_eq!(
            count_plan(),
            ciao_sql::compile("SELECT COUNT(*) FROM t", &e.schema).unwrap()
        );
        for (body, count, covered) in [
            ("stars = 5", 12, true),
            ("stars < 3", 24, false),
            (r#"stars = 5 AND city = "c1""#, 4, true),
            ("stars > 99", 0, false),
        ] {
            let sql = run(&e, &format!("SELECT COUNT(*) FROM t WHERE {body}"));
            assert_eq!(sql.rows, vec![vec![SqlValue::Int(count)]], "{body}");
            let query = ciao_predicate::parse_query("q", body).unwrap();
            let out = e.exec.execute_count(&e.table, &e.parked, &query);
            assert_eq!(out.count, count as usize, "{body}");
            assert_eq!(out.profile, sql.profile, "{body}");
            assert_eq!(out.profile.used_skipping(), covered, "{body}");
            let parked = if covered { 0 } else { e.parked.len() as u64 };
            assert_eq!(out.profile.parked_rows_parsed, parked, "{body}");
        }
    }

    #[test]
    fn grouped_aggregate_matches_oracle() {
        let e = env();
        let r = run(
            &e,
            "SELECT city, COUNT(*), SUM(stars), AVG(score) FROM t GROUP BY city ORDER BY city",
        );
        // Oracle: fold the raw records by hand with exact int sums.
        let mut oracle: Map<String, (i64, i64, f64, i64)> = Map::new();
        for rec in &e.all {
            let city = rec.get("city").unwrap().as_str().unwrap().to_owned();
            let stars = rec.get("stars").unwrap().as_i64().unwrap();
            let entry = oracle.entry(city).or_insert((0, 0, 0.0, 0));
            entry.0 += 1;
            entry.1 += stars;
            if let Some(s) = rec.get("score").and_then(|v| v.as_f64()) {
                entry.2 += s;
                entry.3 += 1;
            }
        }
        let expected: Vec<Vec<SqlValue>> = oracle
            .into_iter()
            .map(|(city, (n, sum, ssum, sn))| {
                vec![
                    SqlValue::Str(city),
                    SqlValue::Int(n),
                    SqlValue::Int(sum),
                    SqlValue::Float(ssum / sn as f64),
                ]
            })
            .collect();
        assert_eq!(r.rows, expected);
        // Uncovered aggregate: full scan plus the parked fallback.
        assert_eq!(r.profile.parked_rows_parsed, e.parked.len() as u64);
    }

    #[test]
    fn covered_aggregate_uses_skip_masks() {
        let e = env();
        let r = run(
            &e,
            "SELECT MIN(name), MAX(name), COUNT(score) FROM t WHERE stars = 5",
        );
        assert!(r.profile.used_skipping());
        assert_eq!(r.profile.parked_rows_parsed, 0);
        // 12 stars=5 rows: u4, u9, ..., u59; lexicographic min/max.
        assert_eq!(r.rows[0][0], SqlValue::Str("u14".into()));
        assert_eq!(r.rows[0][1], SqlValue::Str("u9".into()));
        // score is null when i % 7 == 0 → u14, u49 excluded from COUNT(score).
        assert_eq!(r.rows[0][2], SqlValue::Int(10));
    }

    #[test]
    fn projection_reads_both_sides() {
        let e = env();
        let r = run(
            &e,
            "SELECT name, stars FROM t WHERE stars < 3 ORDER BY name LIMIT 5",
        );
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.columns[0].name, "name");
        for row in &r.rows {
            assert!(matches!(row[1], SqlValue::Int(s) if s < 3));
        }
    }

    #[test]
    fn empty_ungrouped_aggregate_yields_one_row() {
        let e = env();
        let r = run(
            &e,
            "SELECT COUNT(*), SUM(stars), AVG(score) FROM t WHERE stars > 99",
        );
        assert_eq!(
            r.rows,
            vec![vec![SqlValue::Int(0), SqlValue::Null, SqlValue::Null]]
        );
        let grouped = run(
            &e,
            "SELECT city, COUNT(*) FROM t WHERE stars > 99 GROUP BY city",
        );
        assert!(grouped.rows.is_empty());
    }

    #[test]
    fn sharded_merge_equals_single_shard() {
        let e = env();
        let plan = ciao_sql::compile(
            "SELECT city, COUNT(*), AVG(score) FROM t GROUP BY city ORDER BY 2 DESC LIMIT 2",
            &e.schema,
        )
        .unwrap();
        let whole = finalize(&plan, e.exec.execute_plan(&e.table, &e.parked, &plan));

        let (left, right) = e.parked.split_at(e.parked.len() / 2);
        let mut merged = e.exec.execute_plan(&e.table, left, &plan);
        merged.merge(
            e.exec
                .execute_plan(&ciao_columnar::Table::default(), right, &plan),
        );
        let sharded = finalize(&plan, merged);
        assert_eq!(whole.rows, sharded.rows);
    }

    /// Independent facts a profile must agree with: every table row is
    /// scanned or skipped exactly once, the parked side reads all of
    /// `parked` records or none, and the matches are `eval_query`'s
    /// count over every record.
    fn assert_profile_facts(e: &Env, sql: &str, profile: &QueryProfile, parked: u64) {
        let plan = ciao_sql::compile(sql, &e.schema).unwrap();
        let query = plan_query(&plan);
        let p = profile;
        assert_eq!(
            p.rows_scanned + p.rows_skipped_zone + p.rows_skipped_mask,
            e.table.row_count() as u64,
            "{sql}: {p:?}"
        );
        assert_eq!(p.parked_rows_parsed, parked, "{sql}: {p:?}");
        let truth = e
            .all
            .iter()
            .filter(|r| ciao_predicate::eval_query(&query, r))
            .count();
        assert_eq!(p.total_matched(), truth as u64, "{sql}: {p:?}");
    }

    #[test]
    fn profile_conserves_rows_on_both_paths() {
        let e = env();
        // Covered path: skip-masks, no parked fallback.
        let sql = "SELECT COUNT(*) FROM t WHERE stars = 5";
        let covered = run(&e, sql);
        assert_profile_facts(&e, sql, &covered.profile, 0);
        assert_eq!(covered.profile.clauses.len(), 1);
        assert!(covered.profile.clauses[0].pushed);
        assert_eq!(covered.profile.clauses[0].text, "stars = 5");
        // Every surviving skip-mask row re-verified true.
        assert_eq!(covered.profile.clauses[0].selectivity(), Some(1.0));

        // Uncovered path: full scan plus the parked-record fallback, with
        // short-circuited per-clause counters.
        let sql = r#"SELECT name FROM t WHERE stars < 3 AND city = "c0""#;
        let uncovered = run(&e, sql);
        assert_profile_facts(&e, sql, &uncovered.profile, e.parked.len() as u64);
        let [first, second] = &uncovered.profile.clauses[..] else {
            panic!("expected two clause profiles");
        };
        assert!(!first.pushed && !second.pushed);
        // The first clause runs on every row actually fed to the
        // operator (zone maps pruned the stars=5 table blocks); the
        // second only on rows that survived the first.
        assert_eq!(
            first.rows_evaluated,
            uncovered.profile.rows_scanned + uncovered.profile.parked_rows_parsed
        );
        assert_eq!(second.rows_evaluated, first.rows_passed);
        assert_eq!(
            second.rows_passed,
            uncovered.profile.total_matched(),
            "last clause's passes are the match count"
        );
        assert_eq!(
            uncovered.rows.len() as u64,
            uncovered.profile.total_matched()
        );
    }

    #[test]
    fn prepare_settles_the_surviving_rows_before_anything_is_scanned() {
        let e = env();
        for (sql, reads_parked) in [
            ("SELECT COUNT(*) FROM t WHERE stars = 5", false),
            (
                "SELECT city, COUNT(*) FROM t WHERE stars < 3 GROUP BY city",
                true,
            ),
            ("SELECT name FROM t", true),
        ] {
            let plan = ciao_sql::compile(sql, &e.schema).unwrap();
            let prepared = e
                .exec
                .prepare(plan_query(&plan), e.table.blocks(), e.parked.len());
            let whole = e.exec.execute_plan(&e.table, &e.parked, &plan);
            // Exactly the rows the scan then evaluates, on either side.
            assert_eq!(
                prepared.surviving_rows() as u64,
                whole.profile.rows_scanned + whole.profile.parked_rows_parsed,
                "{sql}"
            );
            let parked = if reads_parked { e.parked.len() } else { 0 };
            assert_profile_facts(&e, sql, &whole.profile, parked as u64);
            // A prepared scan owns what it decided: it can run later,
            // elsewhere, and more than once, to the same partial — also
            // when the first run builds the parked records' map and the
            // second reads through it.
            let prepared = std::thread::spawn(move || prepared).join().unwrap();
            let index = std::sync::OnceLock::new();
            for _ in 0..2 {
                let parked = [ParkedFragment::indexed(&e.parked, &index)];
                let again = e.exec.scan_plan(&prepared, e.table.blocks(), parked, &plan);
                assert_eq!(again.profile, whole.profile, "{sql}");
                assert_eq!(
                    finalize(&plan, again).rows,
                    finalize(&plan, whole.clone()).rows,
                    "{sql}"
                );
            }
        }
    }

    #[test]
    fn sharded_profile_merge_reconciles() {
        let e = env();
        let sql = "SELECT city, COUNT(*) FROM t GROUP BY city";
        let plan = ciao_sql::compile(sql, &e.schema).unwrap();
        let (left, right) = e.parked.split_at(e.parked.len() / 2);
        let mut merged = e.exec.execute_plan(&e.table, left, &plan);
        merged.merge(
            e.exec
                .execute_plan(&ciao_columnar::Table::default(), right, &plan),
        );
        let r = finalize(&plan, merged);
        assert_eq!(r.profile, run(&e, sql).profile);
        assert_profile_facts(&e, sql, &r.profile, e.parked.len() as u64);
    }

    #[test]
    fn zone_maps_prune_aggregate_scans() {
        // Clustered data: stars monotone over rows, so most blocks are
        // prunable for a narrow range query.
        let recs: Vec<JsonValue> = (0..128)
            .map(|i| parse(&format!(r#"{{"k":{},"v":{}}}"#, i / 16, i)).unwrap())
            .collect();
        let schema = Schema::infer(&recs).unwrap();
        let mut tb = TableBuilder::with_block_size(Arc::new(schema.clone()), &[], 16);
        for rec in &recs {
            tb.push_record(rec, &Map::new());
        }
        let table = tb.finish();
        let exec = Executor::default();
        let plan = ciao_sql::compile("SELECT SUM(v) FROM t WHERE k = 3", &schema).unwrap();
        let r = finalize(&plan, exec.execute_plan::<String>(&table, &[], &plan));
        let expected: i64 = (48..64).sum();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(expected)]]);
        let p = &r.profile;
        assert!(p.blocks_pruned_zone >= 6);
        assert_eq!(p.blocks_total - p.blocks_pruned_zone, 1);
    }
}
