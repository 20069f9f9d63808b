//! Parallel portfolio batch-analysis driver for the Termite reproduction,
//! plus the `termite` command-line interface.
//!
//! The paper's claim is that lazy, counterexample-guided synthesis is fast
//! enough to sweep whole benchmark suites (Table 1). This crate is the
//! subsystem that actually drives such sweeps at scale:
//!
//! ```text
//!            jobs (suites, files)
//!                    │
//!              ┌─────▼─────┐   shared FIFO; idle workers take the
//!              │   queue   │   oldest unclaimed job (work stealing)
//!              └─────┬─────┘
//!        ┌───────────┼───────────┐
//!   ┌────▼────┐ ┌────▼────┐ ┌────▼────┐
//!   │ worker  │ │ worker  │ │ worker  │   `--jobs N` OS threads
//!   └────┬────┘ └────┬────┘ └────┬────┘
//!        │     ┌─────▼──────────┐│
//!        │     │   portfolio    ││   per job: race Termite / Eager /
//!        │     │  (first proof  ││   Podelski–Rybalchenko / Heuristic,
//!        │     │  wins, losers  ││   first proof cancels siblings via
//!        │     │   cancelled)   ││   child `CancelToken`s
//!        │     └─────┬──────────┘│
//!        └───────────┼───────────┘
//!              ┌─────▼─────┐
//!              │   cache   │   content-addressed (hash of normalized
//!              └───────────┘   transition system + invariants + options),
//!                              in memory + optional JSON file
//! ```
//!
//! * [`AnalysisJob`] — the unit of work: a prepared transition system plus
//!   invariants (front-end excluded from timing, as in the paper).
//! * [`EngineSelection`] / [`run_selection`] — one engine, or a racing
//!   portfolio with first-proof-wins cancellation.
//! * [`ResultCache`] / [`cache_key`] — content-addressed result store;
//!   repeated batch runs and duplicate benchmarks are near-free.
//! * [`with_scheduler`] / [`serve`] — the **streaming scheduler** and its
//!   NDJSON service front-end (`termite serve`): jobs are scheduled with no
//!   batch barrier, results stream back the moment each lands, a bounded
//!   in-flight window throttles intake and `{"cancel": id}` stops a job
//!   mid-flight.
//! * [`run_batch`] — batch mode as a thin client of the same scheduler
//!   (submit all, collect, restore submission order).
//! * [`json`] — a minimal self-contained JSON reader/writer (the build
//!   environment has no serde), shared by the cache file, the `--json`
//!   reports and the service wire protocol.
//!
//! # Example
//!
//! ```
//! use termite_driver::{run_batch, AnalysisJob, BatchConfig, EngineSelection, ResultCache};
//! use termite_suite::SuiteId;
//!
//! let cache = ResultCache::new();
//! let config = BatchConfig {
//!     workers: 4,
//!     selection: EngineSelection::full_portfolio(),
//!     ..BatchConfig::default()
//! };
//! let results = run_batch(AnalysisJob::from_suite(SuiteId::Sorts), &config, Some(&cache));
//! assert!(results.iter().filter(|r| r.proved()).count() >= 5);
//!
//! // Second run: served from the cache.
//! let again = run_batch(AnalysisJob::from_suite(SuiteId::Sorts), &config, Some(&cache));
//! assert!(again.iter().all(|r| r.from_cache));
//! ```

#![deny(missing_docs)]

mod batch;
mod cache;
pub mod faults;
mod job;
pub mod json;
mod net;
mod portfolio;
mod service;

pub use batch::{run_batch, BatchConfig, BatchResult, BatchTotals};
pub use cache::{
    cache_key, polyhedron_from_json, polyhedron_to_json, report_from_json, report_to_json,
    stat_entries, stat_rows_from_json, verdict_name, verdict_rank, CacheStats, ResultCache,
};
pub use job::AnalysisJob;
pub use net::{install_sigterm_handler, serve_tcp};
pub use portfolio::{parse_selection, run_selection, EngineSelection, PortfolioOutcome};
pub use service::{
    parse_request, serve, with_scheduler, Request, SchedulerConfig, SchedulerHandle, ServeConfig,
    ServeSummary, TaskOutcome, TaskSpec,
};

/// Locks a mutex, recovering the guard from a poisoned lock. With worker
/// panics caught at the scheduler's isolation boundary, a poisoned mutex
/// means a panic unwound *through* a critical section; the protected data is
/// bookkeeping (counters, id maps) whose worst case after such an unwind is
/// one already-failed job, so recovering beats wedging the whole service.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
