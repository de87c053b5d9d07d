//! # CIAO — client-assisted data loading
//!
//! A from-scratch Rust reproduction of *CIAO: An Optimization Framework
//! for Client-Assisted Data Loading* (ICDE 2021, arXiv:2102.11793).
//!
//! CIAO offloads cheap predicate pre-filtering to the **clients** that
//! produce data (edge sensors, log shippers): given a workload of
//! prospective queries and a per-record compute budget, it selects a
//! near-optimal set of predicates (a submodular maximization under a
//! knapsack, §V), compiles them to substring patterns the clients can
//! evaluate **without parsing** (§IV), and uses the resulting
//! bitvectors twice on the server (§VI):
//!
//! 1. **Partial loading** — records whose bits are all 0 are parked as
//!    raw JSON instead of being parsed into the columnar store;
//! 2. **Data skipping** — per-block bitvectors are ANDed into skip
//!    masks at query time.
//!
//! This crate holds planning ([`PushdownPlan`]) and loading
//! ([`Loader`], [`AdmissionPolicy`], and parked-row promotion in
//! [`jit`]). `ciao_service` runs them: its `Shard` is the one
//! loading-and-query state, and its `Service` runs N of them through
//! the sequence the paper measures.
//!
//! ## Quickstart
//!
//! ```
//! use ciao::{AdmissionPolicy, Loader, PushdownPlan};
//! use ciao_columnar::Schema;
//! use ciao_json::RecordChunk;
//! use ciao_optimizer::CostModel;
//! use ciao_predicate::parse_query;
//! use std::sync::Arc;
//!
//! // Some raw records (normally produced by edge clients).
//! let raw: Vec<String> = (0..400)
//!     .map(|i| format!("{{\"stars\":{},\"id\":{}}}", i % 5 + 1, i))
//!     .collect();
//! let sample: Vec<_> = raw.iter().take(100).map(|r| ciao_json::parse(r).unwrap()).collect();
//!
//! // Plan: pick the predicates the clients evaluate under the budget.
//! let queries = vec![parse_query("hot", "stars = 5").unwrap()];
//! let plan = PushdownPlan::build(&queries, &sample, &CostModel::default_uncalibrated(), 10.0)
//!     .unwrap();
//! assert!(plan.is_fully_covering());
//!
//! // Client prefilter → partial load: records no query needs are parked.
//! let chunk = RecordChunk::from_records(&raw).unwrap();
//! let filter = plan.prefilter().run_chunk(&chunk);
//! let schema = Arc::new(Schema::infer(&sample).unwrap());
//! let policy = AdmissionPolicy::from_coverage(&plan.query_coverage);
//! let mut loader = Loader::new(schema, &plan.ids(), policy, 64);
//! loader.load_chunk(&chunk, &filter);
//! let (table, parked, stats) = loader.finish();
//!
//! assert_eq!(table.row_count(), 80);
//! assert_eq!(parked.len(), 320);
//! assert_eq!(stats.total(), 400);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod jit;
pub mod loader;
pub mod plan;

pub use adaptive::{drift_report, replan_with_observations, DriftEntry};
pub use jit::PromotionStats;
pub use loader::{AdmissionPolicy, LoadStats, Loader};
pub use plan::{PlanError, PushdownPlan, PushedPredicate};
