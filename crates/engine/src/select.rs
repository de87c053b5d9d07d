//! Record materialization: `SELECT *` support.
//!
//! The paper's evaluation only measures `COUNT(*)` (it isolates scan
//! cost), but a usable system must also return rows. This module is
//! the materializing consumer of the block-scan driver
//! ([`crate::scan::BlockFilter`]): each row of a block's selection
//! comes back as a reconstructed JSON record. The parked raw side runs
//! the projected scan, then a full parse of each match. All
//! skipping/pruning machinery applies unchanged.

use crate::metrics::ScanMetrics;
use crate::raw_scan::scan_parked;
use crate::scan::{BlockFilter, PreparedScan, ScanOptions};
use ciao_columnar::{Block, Table};
use ciao_json::{parse, JsonValue};
use ciao_predicate::Query;

/// Matching rows plus scan counters.
#[derive(Debug, Clone)]
pub struct SelectResult {
    /// Reconstructed matching records, in storage order.
    pub records: Vec<JsonValue>,
    /// Scan counters (rows_matched == records.len()).
    pub metrics: ScanMetrics,
}

/// Materializes the prepared survivors of `blocks` that satisfy
/// `query`.
pub(crate) fn select_survivors<'a>(
    blocks: impl IntoIterator<Item = &'a Block>,
    prepared: &PreparedScan,
    query: &Query,
) -> SelectResult {
    let mut metrics = prepared.metrics();
    let mut records = Vec::new();
    let mut filter = BlockFilter::new(&query.clauses);
    for (block, survivors) in blocks.into_iter().zip(prepared.survivors()) {
        let tally = filter.run(block, survivors);
        metrics.add_block(&tally);
        records.extend(
            tally
                .selected
                .iter()
                .map(|&row| block.to_record(row as usize)),
        );
    }
    SelectResult { records, metrics }
}

/// Materializes every table row satisfying `query`:
/// [`PreparedScan::new`], then a walk over its survivors.
pub fn select_from_table(table: &Table, query: &Query, options: &ScanOptions) -> SelectResult {
    let prepared = PreparedScan::new(table.blocks(), query, options);
    select_survivors(table.blocks(), &prepared, query)
}

/// Materializes every parked raw record satisfying `query`: the
/// shared projected scan finds the matches, and only those are parsed
/// whole.
pub fn select_from_raw<S: AsRef<str>>(records: &[S], query: &Query) -> SelectResult {
    let mut out = Vec::new();
    let scan = scan_parked(records, &query.clauses, &[], |raw, _| {
        // `Ok`: the scan validated the whole record.
        out.extend(parse(raw));
    });
    SelectResult {
        records: out,
        metrics: scan.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_count;
    use ciao_columnar::{Schema, TableBuilder};
    use ciao_predicate::parse_query;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn table() -> Table {
        let recs: Vec<JsonValue> = (0..40)
            .map(|i| parse(&format!(r#"{{"stars":{},"name":"u{}"}}"#, i % 5 + 1, i)).unwrap())
            .collect();
        let schema = Arc::new(Schema::infer(&recs).unwrap());
        let mut tb = TableBuilder::with_block_size(schema, &[1], 8);
        for (i, r) in recs.iter().enumerate() {
            tb.push_record(r, &BTreeMap::from([(1, i % 5 + 1 == 5)]));
        }
        tb.finish()
    }

    #[test]
    fn select_matches_count() {
        let t = table();
        let q = parse_query("q", "stars = 5").unwrap();
        for options in [
            ScanOptions::full(),
            ScanOptions::skipping(vec![1]),
            ScanOptions::full().with_zone_maps(),
        ] {
            let count = scan_count(&t, &q, &options);
            let select = select_from_table(&t, &q, &options);
            assert_eq!(select.records.len(), count.rows_matched);
            assert_eq!(select.metrics.rows_matched, count.rows_matched);
        }
    }

    #[test]
    fn records_reconstructed_correctly() {
        let t = table();
        let q = parse_query("q", r#"name = "u14""#).unwrap();
        let res = select_from_table(&t, &q, &ScanOptions::full());
        assert_eq!(res.records.len(), 1);
        assert_eq!(
            ciao_json::to_string(&res.records[0]),
            r#"{"stars":5,"name":"u14"}"#
        );
    }

    #[test]
    fn select_from_raw_parses_and_filters() {
        let parked = vec![
            r#"{"stars":5,"name":"a"}"#.to_owned(),
            "broken {".to_owned(),
            r#"{"stars":2,"name":"b"}"#.to_owned(),
        ];
        let q = parse_query("q", "stars = 5").unwrap();
        let res = select_from_raw(&parked, &q);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(res.metrics.records_parsed, 3);
    }

    #[test]
    fn empty_inputs() {
        let q = parse_query("q", "stars = 5").unwrap();
        let res = select_from_table(&Table::default(), &q, &ScanOptions::full());
        assert!(res.records.is_empty());
        let raw = select_from_raw::<String>(&[], &q);
        assert!(raw.records.is_empty());
    }
}
