//! CIAO's client side.
//!
//! A data client (edge sensor, log shipper) receives a handful of
//! compiled pattern strings from the server and, for every raw JSON
//! record it produces, answers one question per pattern: *could this
//! record satisfy the predicate?* — using nothing but substring search
//! (paper §IV). The answers ship as one bitvector per predicate
//! alongside the raw chunk.
//!
//! Correctness contract (property-tested against typed evaluation):
//! raw matching may report **false positives** but never **false
//! negatives**. Everything downstream (partial loading, data skipping)
//! relies on that asymmetry.
//!
//! Modules:
//!
//! * [`swar`] — SIMD-within-a-register byte-scan primitives
//!   (broadcast-compare masks, `u64`-at-a-time `memchr`).
//! * [`search`] — reusable substring searchers: a SWAR first/last-byte
//!   anchor scan feeding a Horspool verify, the client's only text
//!   primitive.
//! * [`raw_eval`] — pattern/clause matching over raw records.
//! * [`pattern_set`] — all predicates of a pushdown plan compiled into
//!   prefix groups behind a Teddy fingerprint scan (AVX2, with a
//!   portable fallback), evaluated in a single pass per record.
//! * [`prefilter`] — per-chunk evaluation producing bitvectors.
//! * [`budget`] — runtime budget enforcement with conservative
//!   degradation (over budget ⇒ remaining bits forced to 1).
//! * [`hardware`] — simulated hardware profiles for the cost-model
//!   calibration experiments (paper Table IV).
//! * [`stats`] — client-side counters.

#![warn(missing_docs)]

pub mod budget;
pub mod hardware;
pub mod pattern_set;
pub mod prefilter;
pub mod raw_eval;
pub mod search;
pub mod stats;
pub mod swar;

pub use budget::{Budget, BudgetedPrefilter};
pub use hardware::HardwareProfile;
pub use pattern_set::PatternSet;
pub use prefilter::{ChunkFilterResult, CompiledPredicate, Prefilter};
pub use raw_eval::{match_clause, match_pattern, CompiledClause};
pub use search::Finder;
pub use stats::ClientStats;
