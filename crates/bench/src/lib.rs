//! Experiment harness regenerating every table and figure of the CIAO
//! paper (the `repro` binary runs them; see "Reproducing the paper" in
//! the repository's README).
//!
//! Each experiment is a pure function from parameters to printable
//! rows, so the same code backs the `repro` binary, the integration
//! tests that assert the paper's *shapes*, and the Criterion benches.
//!
//! Scale: the paper runs on 5–27 GB datasets; defaults here are sized
//! for seconds-per-experiment on a laptop. Absolute times differ from
//! the paper; the shapes (who wins, where the knees are) are what the
//! assertions check.

#![warn(missing_docs)]

pub mod experiments;
pub mod perf_gate;
pub mod table;
pub mod trajectory;

pub use experiments::datasets::ExperimentScale;
