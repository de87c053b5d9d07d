//! The scan over parked raw JSON records — the one loop counts and
//! plans share.
//!
//! Records that partial loading left unconverted are still part of the
//! logical table, so a query the parked side is not ruled out for must
//! consult each one (paper §VI-B, final paragraph) — but it does not
//! owe each a full parse. [`scan_parked`] derives once per query the
//! top-level fields the query reads (its WHERE clauses' keys plus its
//! operator's columns) and runs [`ciao_json::parse_projected`] per
//! record, which validates the whole record but builds only those
//! fields. Matches go to the caller's sink: nothing (a count) or a
//! plan's row/group feed.
//!
//! This is exact because the projected scan is `Err` exactly when the
//! full parse is — a malformed record still matches nothing, as a
//! broken log line should — and builds the values the full parse would.

use crate::metrics::ScanMetrics;
use ciao_json::{parse_projected, JsonValue};
use ciao_predicate::{eval_clause, Clause, Query, SimplePredicate};

/// What one pass over the parked records did.
pub(crate) struct ParkedScan {
    /// Scan counters; every record counts as parsed and scanned.
    pub metrics: ScanMetrics,
    /// Per clause, in order: records it was evaluated on and records
    /// that passed it (the conjunction short-circuits).
    pub clause_counts: Vec<(u64, u64)>,
    /// How many distinct fields the scan built per record.
    pub fields_projected: usize,
}

/// Scans every parked record, projecting the fields `clauses` and
/// `columns` name, and calls `on_match` with the projection of each
/// record that satisfies every clause.
pub(crate) fn scan_parked<R>(
    records: R,
    clauses: &[Clause],
    columns: &[String],
    mut on_match: impl FnMut(&JsonValue),
) -> ParkedScan
where
    R: IntoIterator,
    R::Item: AsRef<str>,
{
    let mut keys: Vec<&str> = Vec::new();
    let clause_keys = clauses
        .iter()
        .flat_map(Clause::disjuncts)
        .map(SimplePredicate::key);
    for key in clause_keys.chain(columns.iter().map(String::as_str)) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut metrics = ScanMetrics::default();
    let mut clause_counts = vec![(0, 0); clauses.len()];
    for rec in records {
        let rec = rec.as_ref();
        metrics.records_parsed += 1;
        metrics.rows_scanned += 1;
        let Ok(value) = parse_projected(rec, &keys) else {
            // Malformed parked record: cannot match anything.
            continue;
        };
        let mut conjunction = clauses.iter().zip(&mut clause_counts);
        if conjunction.all(|(clause, (evaluated, passed))| {
            let pass = eval_clause(clause, &value);
            *evaluated += 1;
            *passed += u64::from(pass);
            pass
        }) {
            metrics.rows_matched += 1;
            on_match(&value);
        }
    }
    ParkedScan {
        metrics,
        clause_counts,
        fields_projected: keys.len(),
    }
}

/// Counts parked records satisfying `query`.
///
/// Unparseable records are counted in `records_parsed` but never match.
pub fn scan_raw_records<S: AsRef<str>>(records: &[S], query: &Query) -> ScanMetrics {
    scan_parked(records, &query.clauses, &[], |_| {}).metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_predicate::parse_query;

    #[test]
    fn counts_matches() {
        let records = vec![
            r#"{"stars":5}"#.to_owned(),
            r#"{"stars":3}"#.to_owned(),
            r#"{"stars":5,"x":1}"#.to_owned(),
        ];
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records(&records, &q);
        assert_eq!(m.rows_matched, 2);
        assert_eq!(m.records_parsed, 3);
    }

    #[test]
    fn malformed_records_never_match() {
        let records = vec![
            "not json".to_owned(),
            r#"{"stars":5}"#.to_owned(),
            r#"{"stars":"#.to_owned(),
            // Malformed in a field the query never reads.
            r#"{"stars":5,"x":tru}"#.to_owned(),
        ];
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records(&records, &q);
        assert_eq!(m.rows_matched, 1);
        assert_eq!(m.records_parsed, 4);
    }

    #[test]
    fn projects_each_field_once_and_counts_per_clause() {
        let records = [
            r#"{"stars":5,"city":"a","name":"x"}"#,
            r#"{"stars":5,"city":"b","name":"y"}"#,
            r#"{"stars":1,"city":"a","name":"z"}"#,
        ];
        let q = parse_query("q", r#"stars = 5 AND city IN ("a","c")"#).unwrap();
        let mut seen = Vec::new();
        let columns = ["name".to_owned(), "city".to_owned()];
        let scan = scan_parked(&records, &q.clauses, &columns, |value| {
            assert_eq!(value.as_object().unwrap().len(), 3);
            seen.push(value.get("name").unwrap().as_str() == Some("x"));
        });
        assert_eq!(seen, vec![true]);
        assert_eq!(scan.fields_projected, 3);
        assert_eq!(scan.clause_counts, vec![(3, 2), (2, 1)]);
    }

    #[test]
    fn empty_store() {
        let q = parse_query("q", "stars = 5").unwrap();
        let m = scan_raw_records::<String>(&[], &q);
        assert_eq!(m.rows_matched, 0);
        assert_eq!(m.records_parsed, 0);
    }
}
