//! The typed result set a SQL plan execution produces.

use crate::profile::QueryProfile;
use ciao_sql::{SqlType, SqlValue};
use std::time::Duration;

/// One output column's name and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDesc {
    /// Output name (alias or derived, e.g. `avg(score)`).
    pub name: String,
    /// Value type.
    pub ty: SqlType,
}

/// A fully materialized query answer: named+typed columns, rows, and
/// the merged execution profile. This one type replaces the old
/// count/select split — `COUNT(*)` is simply a one-cell result.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output columns, in projection order.
    pub columns: Vec<ColumnDesc>,
    /// Result rows; each row has one [`SqlValue`] per column.
    pub rows: Vec<Vec<SqlValue>>,
    /// Merged per-stage / per-clause execution profile across every
    /// shard touched (the EXPLAIN ANALYZE payload).
    pub profile: QueryProfile,
    /// Wall time of the execution, set by the caller that ran and
    /// timed it (`ciao_service::Service` measures drain to merge);
    /// zero as [`crate::finalize`] leaves it.
    pub elapsed: Duration,
    /// Epochs whose parked-record positional map the execution built,
    /// summed over shards ([`crate::PartialResult::parked_index_builds`]).
    pub parked_index_builds: usize,
}

impl QueryResult {
    /// Renders the `EXPLAIN ANALYZE` annotation section from this
    /// result's profile and row count: a `-- analyze --` separator,
    /// then per-stage counters and one line per WHERE clause.
    ///
    /// Deliberately free of wall-clock timings so the rendering is
    /// deterministic for a fixed dataset and shard layout (the golden
    /// conformance suite snapshots it). `rows matched` / `rows
    /// returned` are additionally config-invariant — they restate the
    /// query's answer, not the skipping strategy — and are the lines
    /// the suite compares across service configurations.
    pub fn analyze_lines(&self) -> Vec<String> {
        let p = &self.profile;
        let mut lines = vec![
            "-- analyze --".to_owned(),
            format!("rows matched: {}", p.total_matched()),
            format!("rows returned: {}", self.rows.len()),
            format!(
                "blocks: total={} pruned_zone={} pruned_mask={} visited={}",
                p.blocks_total,
                p.blocks_pruned_zone,
                p.blocks_pruned_mask,
                p.blocks_total - p.blocks_pruned_zone
            ),
            format!(
                "rows: scanned={} skipped_zone={} skipped_mask={}",
                p.rows_scanned, p.rows_skipped_zone, p.rows_skipped_mask
            ),
            // `parsed` keeps the counter's name: records the projected
            // scan went through, of which it built `fields` fields each.
            format!(
                "parked fallback: projected scan fields={} parsed={} matched={}",
                p.parked_fields_projected, p.parked_rows_parsed, p.parked_rows_matched
            ),
        ];
        for c in &p.clauses {
            let selectivity = c
                .selectivity()
                .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.3}"));
            lines.push(format!(
                "clause {}: pushed={} evaluated={} passed={} selectivity={selectivity}",
                c.text, c.pushed, c.rows_evaluated, c.rows_passed
            ));
        }
        lines
    }

    /// Renders the result as stable, diff-friendly text: a `name:type`
    /// header, then one `|`-separated line per row. Used by the golden
    /// conformance suite, so the format must stay deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{}:{}", c.name, c.ty))
            .collect();
        out.push_str(&header.join(" | "));
        for row in &self.rows {
            out.push('\n');
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable() {
        let r = QueryResult {
            columns: vec![
                ColumnDesc {
                    name: "city".into(),
                    ty: SqlType::Str,
                },
                ColumnDesc {
                    name: "count(*)".into(),
                    ty: SqlType::Int,
                },
            ],
            rows: vec![
                vec![SqlValue::Str("Chicago".into()), SqlValue::Int(3)],
                vec![SqlValue::Null, SqlValue::Int(1)],
            ],
            ..QueryResult::default()
        };
        assert_eq!(r.render(), "city:str | count(*):int\nChicago | 3\nNULL | 1");
    }
}
