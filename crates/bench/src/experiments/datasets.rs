//! Experiment scale control and dataset materialization.

use ciao_datagen::Dataset;

/// How big each experiment's dataset is.
///
/// The default (`records = 30_000`) keeps the full `repro all` run in
/// the minutes range. Set `CIAO_SCALE_RECORDS` to override from the
/// environment, e.g. `CIAO_SCALE_RECORDS=200000 cargo run --bin repro`.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Records per dataset.
    pub records: usize,
    /// Queries per end-to-end workload (paper: 200).
    pub queries: usize,
    /// Planning sample size.
    pub sample: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        let records = std::env::var("CIAO_SCALE_RECORDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(30_000);
        let queries = std::env::var("CIAO_SCALE_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(50);
        ExperimentScale {
            records,
            queries,
            sample: 2_000,
        }
    }
}

impl ExperimentScale {
    /// A small scale for unit/integration tests.
    pub fn tiny() -> ExperimentScale {
        ExperimentScale {
            records: 4_000,
            queries: 20,
            sample: 800,
        }
    }
}

/// Records per client chunk (the paper's clients ship ~1k-record
/// chunks, §III).
pub const CHUNK_RECORDS: usize = 1024;

/// Materializes a dataset as NDJSON at the given scale (deterministic
/// per dataset).
pub fn ndjson(dataset: Dataset, scale: ExperimentScale) -> String {
    let seed = match dataset {
        Dataset::Yelp => 101,
        Dataset::WinLog => 202,
        Dataset::Ycsb => 303,
    };
    dataset.generate_ndjson(seed, scale.records)
}

/// The per-dataset budget sweeps of Figs. 3–5 (µs per record).
pub fn budget_sweep(dataset: Dataset) -> &'static [f64] {
    match dataset {
        Dataset::WinLog => &[0.0, 1.0, 3.0, 5.0, 7.0, 9.0],
        Dataset::Yelp => &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
        Dataset::Ycsb => &[0.0, 25.0, 50.0, 75.0, 100.0, 125.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        let t = ExperimentScale::tiny();
        assert!(t.records < ExperimentScale::default().records);
        assert!(t.sample <= t.records);
    }

    #[test]
    fn sweeps_start_at_zero() {
        for ds in Dataset::all() {
            let sweep = budget_sweep(ds);
            assert_eq!(sweep[0], 0.0, "{ds} sweep must include the baseline");
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn ndjson_materializes() {
        let text = ndjson(
            Dataset::WinLog,
            ExperimentScale {
                records: 10,
                queries: 1,
                sample: 5,
            },
        );
        assert_eq!(text.lines().count(), 10);
    }
}
