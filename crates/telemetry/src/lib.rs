//! # `ciao_telemetry` — lock-free metrics core
//!
//! The paper's claims are quantitative (parse-free matching beats
//! parsing, §IV; the pushdown plan pays off under a measured workload,
//! §V), so the reproduction needs more than point-in-time gauges: it
//! needs latency *distributions*, an event *history*, and exporters a
//! trajectory harness can persist. This crate is the measurement
//! substrate the service, engine, and client all record into:
//!
//! * [`Counter`] / [`Gauge`] — typed handles over plain atomics;
//!   cloning a handle shares the underlying cell, so hot paths record
//!   without any lock or registry lookup.
//! * [`Histogram`] — a log-linear-bucket latency histogram (16 linear
//!   buckets per power of two, ≤ ~6% relative bucket width) with
//!   atomic buckets, p50/p90/p99/max quantiles, and an associative,
//!   commutative [`Histogram::merge`] so per-shard histograms fold
//!   into fleet-wide ones.
//! * [`EventRing`] — a bounded ring buffer of structured
//!   [`TraceEvent`]s (epoch seals, compaction ticks, `QueueFull`
//!   backpressure, plan evaluations) with a dropped-event counter.
//! * [`SpanTree`] — a per-query tree of parent/child spans with
//!   monotonic timings and typed [`AttrValue`] attributes, exporting
//!   as Chrome `trace_event` JSON (`chrome://tracing` / Perfetto).
//! * [`Telemetry`] — a named registry tying the above together, with
//!   two exporters on its [`TelemetrySnapshot`]: Prometheus-style text
//!   exposition (HELP text via [`Telemetry::set_help`], escaped per
//!   the exposition format) and a JSON snapshot.
//!
//! The crate has **zero dependencies** (std only) and every recording
//! operation is a handful of relaxed atomic ops; pushing a trace event
//! takes a short mutex on the ring only.
//!
//! ```
//! use ciao_telemetry::Telemetry;
//! use std::time::Duration;
//!
//! let t = Telemetry::new();
//! let ingested = t.counter("ingested_chunks_total");
//! let latency = t.histogram("ingest_ack_ns");
//! ingested.inc();
//! latency.record_duration(Duration::from_micros(250));
//! t.events().push("epoch_seal", Some(0), &[("rows", 1024)]);
//!
//! let snap = t.snapshot();
//! assert!(snap.prometheus_text().contains("ingested_chunks_total 1"));
//! assert!(snap.to_json().contains("\"epoch_seal\""));
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod histogram;
pub mod registry;
pub mod spantree;

pub use events::{EventRing, TraceEvent};
pub use export::TelemetrySnapshot;
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Telemetry};
pub use spantree::{AttrValue, Span, SpanId, SpanTree};
