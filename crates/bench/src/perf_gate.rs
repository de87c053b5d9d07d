//! CI perf-regression gate over the hot-path trajectory.
//!
//! The gate is machine-portable because it never compares absolute
//! nanoseconds across runs: every
//! [`HotpathRow`](crate::experiments::hotpath::HotpathRow) carries the ratio of
//! its in-run scalar reference to its optimized median (`speedup`),
//! measured interleaved in the same process. A slower runner scales
//! both sides of the ratio equally, so the ratio regresses only when
//! the *optimized kernel itself* regresses relative to its reference —
//! e.g. an injected 2× slowdown halves the ratio and trips the gate at
//! any tolerance below 50%.
//!
//! Rows with `gated == false` (shard scaling, anything topology-bound)
//! are reported but never enforced, so a 1-core CI runner cannot fail
//! the build on core count.

use crate::trajectory::{HotpathRun, HotpathTrajectory};

/// One gated row's verdict.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Row name (the join key across runs).
    pub name: String,
    /// Speedup ratio in the committed baseline run.
    pub baseline_speedup: f64,
    /// Speedup ratio in the current run; `None` when the current run
    /// no longer measures this row (itself a failure).
    pub current_speedup: Option<f64>,
    /// Minimum acceptable current ratio:
    /// `baseline × (1 − tolerance/100)`.
    pub floor: f64,
    /// Whether this row passes.
    pub pass: bool,
}

/// The whole gate verdict.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-row verdicts for every gated baseline row.
    pub rows: Vec<GateRow>,
    /// Tolerance used, percent.
    pub tolerance_pct: f64,
    /// `true` when every gated row passes.
    pub pass: bool,
}

impl GateReport {
    /// Renders the verdict as a printable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "perf gate (tolerance {:.0}%): speedup ratios vs committed baseline\n",
            self.tolerance_pct
        ));
        for r in &self.rows {
            let current = r
                .current_speedup
                .map_or("MISSING".to_owned(), |s| format!("{s:.2}x"));
            out.push_str(&format!(
                "  {:<4} {:<34} baseline {:>6.2}x  floor {:>6.2}x  current {:>7}\n",
                if r.pass { "ok" } else { "FAIL" },
                r.name,
                r.baseline_speedup,
                r.floor,
                current,
            ));
        }
        out.push_str(if self.pass {
            "PASS: no gated kernel regressed\n"
        } else {
            "FAIL: at least one gated kernel regressed past tolerance\n"
        });
        out
    }
}

/// Compares the latest run of `current` against the latest run of
/// `baseline`, gated rows only. A gated baseline row missing from the
/// current run fails (a kernel silently dropped from the suite is a
/// regression, not a pass); rows only the current run has are ignored
/// (they have no baseline to regress from yet).
pub fn check(
    baseline: &HotpathTrajectory,
    current: &HotpathTrajectory,
    tolerance_pct: f64,
) -> Result<GateReport, String> {
    let latest = |doc: &HotpathTrajectory, what: &str| -> Result<HotpathRun, String> {
        doc.runs
            .last()
            .cloned()
            .ok_or_else(|| format!("{what} trajectory has no runs"))
    };
    let base_run = latest(baseline, "baseline")?;
    let cur_run = latest(current, "current")?;
    let factor = 1.0 - tolerance_pct / 100.0;
    let mut rows = Vec::new();
    for b in base_run.rows.iter().filter(|r| r.gated) {
        let floor = b.speedup * factor;
        let current_speedup = cur_run
            .rows
            .iter()
            .find(|c| c.name == b.name)
            .map(|c| c.speedup);
        rows.push(GateRow {
            name: b.name.clone(),
            baseline_speedup: b.speedup,
            current_speedup,
            floor,
            pass: current_speedup.is_some_and(|s| s >= floor),
        });
    }
    if rows.is_empty() {
        return Err("baseline run has no gated rows — nothing to enforce".to_owned());
    }
    let pass = rows.iter().all(|r| r.pass);
    Ok(GateReport {
        rows,
        tolerance_pct,
        pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::hotpath::HotpathRow;
    use crate::trajectory::SCHEMA_VERSION;

    fn row(name: &str, speedup: f64, gated: bool) -> HotpathRow {
        HotpathRow {
            name: name.to_owned(),
            group: "test".to_owned(),
            median_ns: 100.0,
            baseline_ns: 100.0 * speedup,
            speedup,
            throughput_mb_s: 1.0,
            gated,
        }
    }

    fn doc(rows: Vec<HotpathRow>) -> HotpathTrajectory {
        HotpathTrajectory {
            schema_version: SCHEMA_VERSION,
            runs: vec![HotpathRun {
                source: "test".into(),
                unix_time_s: 0,
                records: 0,
                cores: 1,
                rows,
            }],
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = doc(vec![row("a", 4.0, true), row("b", 2.0, true)]);
        let current = doc(vec![row("a", 3.2, true), row("b", 2.4, true)]);
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(report.pass, "{}", report.render());
        // floor for a = 3.0, current 3.2 — a 20% drift survives.
        assert!(report.rows.iter().all(|r| r.pass));
    }

    #[test]
    fn injected_2x_slowdown_trips_the_gate() {
        let baseline = doc(vec![row("a", 4.0, true)]);
        // Optimized path twice as slow ⇒ ratio halves: 4.0 → 2.0,
        // under the 3.0 floor at 25% tolerance.
        let current = doc(vec![row("a", 2.0, true)]);
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(!report.pass);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn ungated_rows_cannot_fail_the_gate() {
        let baseline = doc(vec![row("a", 4.0, true), row("shard", 2.0, false)]);
        // The topology-bound row collapses; the gate ignores it.
        let current = doc(vec![row("a", 4.0, true), row("shard", 0.1, false)]);
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(report.pass, "{}", report.render());
        assert_eq!(report.rows.len(), 1, "only gated rows are enforced");
    }

    #[test]
    fn dropped_gated_row_fails() {
        let baseline = doc(vec![row("a", 4.0, true)]);
        let current = doc(vec![row("other", 9.0, true)]);
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(!report.pass);
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn new_current_rows_without_baseline_are_ignored() {
        let baseline = doc(vec![row("a", 4.0, true)]);
        let current = doc(vec![row("a", 4.0, true), row("brand_new", 0.2, true)]);
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(report.pass, "{}", report.render());
    }

    #[test]
    fn latest_run_is_compared_not_the_first() {
        let mut baseline = doc(vec![row("a", 10.0, true)]);
        baseline.runs.push(HotpathRun {
            source: "test".into(),
            unix_time_s: 1,
            records: 0,
            cores: 1,
            rows: vec![row("a", 4.0, true)],
        });
        let current = doc(vec![row("a", 3.5, true)]);
        // Against the stale first run (10.0) this would fail; against
        // the latest (4.0, floor 3.0) it passes.
        let report = check(&baseline, &current, 25.0).unwrap();
        assert!(report.pass, "{}", report.render());
    }

    #[test]
    fn empty_inputs_are_errors() {
        let empty = HotpathTrajectory::empty();
        let one = doc(vec![row("a", 4.0, true)]);
        assert!(check(&empty, &one, 25.0).is_err());
        assert!(check(&one, &empty, 25.0).is_err());
        let ungated_only = doc(vec![row("shard", 2.0, false)]);
        assert!(check(&ungated_only, &one, 25.0).is_err());
    }
}
