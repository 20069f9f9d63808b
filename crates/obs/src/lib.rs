//! Observability for the Termite analyser: structured tracing, a unified
//! metrics registry, and Chrome-trace export.
//!
//! This crate sits below every other `termite-*` crate (it depends on
//! nothing but `std`) so the synthesis core, the invariant pipeline, and the
//! driver can all emit spans and events through one thread-local handle.
//!
//! # Tracing
//!
//! Instrumentation sites use the [`span!`] and [`event!`] macros:
//!
//! ```
//! use std::sync::Arc;
//! use termite_obs::{chrome_trace_json, event, install, span, Recorder};
//!
//! let recorder = Arc::new(Recorder::new(1024));
//! {
//!     let _guard = install(Arc::clone(&recorder));
//!     let mut lp = span!("lp_solve", rows = 12usize);
//!     lp.arg("pivots", 7usize);
//!     drop(lp);
//!     event!("cegis_iter", iteration = 1usize);
//! }
//! let events = recorder.drain();
//! assert_eq!(events.len(), 2);
//! let json = chrome_trace_json(&events, recorder.dropped());
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```
//!
//! With no recorder installed, the same call sites compile to a
//! thread-local read and a branch on a null handle: no clock read, no
//! allocation, and the macro arguments are never evaluated. That is the
//! whole "zero cost when disabled" contract; `benches/obs_overhead.rs` in
//! `termite-bench` holds it to ≤1% of a suite run.
//!
//! Events land in a bounded lock-free [`ring::RingBuffer`] that keeps the
//! most recent N events and counts what it drops, so tracing can stay on
//! for a long daemon run without unbounded memory.
//!
//! # Metrics
//!
//! The [`MetricsRegistry`] is the always-on companion: wait-free atomic
//! counters merged once per landed job, snapshot-readable mid-run (the
//! driver's `{"stats": true}` serve verb and `--stats-every` flag read it).

#![deny(missing_docs)]

mod export;
mod metrics;
pub mod ring;
mod trace;

pub use export::chrome_trace_json;
pub use metrics::{MetricUnit, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    enabled, install, installed, record_event, start_span, ArgValue, EventKind, InstallGuard,
    Recorder, Span, TraceEvent, DEFAULT_RING_CAPACITY, SUITE_RING_CAPACITY,
};
