//! System-wide configuration.

use ciao_optimizer::CostModel;

/// Tunables for a CIAO deployment.
#[derive(Debug, Clone)]
pub struct CiaoConfig {
    /// Client-side computation budget `B`, in microseconds of modeled
    /// predicate-evaluation cost per record (paper §V-A). Zero disables
    /// pushdown entirely — the no-optimization baseline.
    pub budget_micros: f64,
    /// Records per client chunk (paper §III uses ~1k).
    pub chunk_size: usize,
    /// Rows per columnar block.
    pub block_size: usize,
    /// Records sampled for schema inference and selectivity estimation.
    pub sample_size: usize,
    /// The calibrated cost model used by predicate selection.
    pub cost_model: CostModel,
}

impl Default for CiaoConfig {
    fn default() -> Self {
        CiaoConfig {
            budget_micros: 1.0,
            chunk_size: 1024,
            block_size: 1024,
            sample_size: 1000,
            cost_model: CostModel::default_uncalibrated(),
        }
    }
}

impl CiaoConfig {
    /// Sets the per-record budget (µs).
    pub fn with_budget_micros(mut self, budget: f64) -> Self {
        assert!(
            budget >= 0.0 && budget.is_finite(),
            "budget must be non-negative"
        );
        self.budget_micros = budget;
        self
    }

    /// Sets the client chunk size.
    pub fn with_chunk_size(mut self, records: usize) -> Self {
        assert!(records > 0, "chunk size must be positive");
        self.chunk_size = records;
        self
    }

    /// Sets the columnar block size.
    pub fn with_block_size(mut self, rows: usize) -> Self {
        assert!(rows > 0, "block size must be positive");
        self.block_size = rows;
        self
    }

    /// Sets the planning sample size.
    pub fn with_sample_size(mut self, records: usize) -> Self {
        assert!(records > 0, "sample size must be positive");
        self.sample_size = records;
        self
    }

    /// Installs a calibrated cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = CiaoConfig::default()
            .with_budget_micros(5.0)
            .with_chunk_size(256)
            .with_block_size(512)
            .with_sample_size(100);
        assert_eq!(cfg.budget_micros, 5.0);
        assert_eq!(cfg.chunk_size, 256);
        assert_eq!(cfg.block_size, 512);
        assert_eq!(cfg.sample_size, 100);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_budget_rejected() {
        CiaoConfig::default().with_budget_micros(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        CiaoConfig::default().with_chunk_size(0);
    }
}
