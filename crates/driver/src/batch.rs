//! Batch execution: the blocking client of the streaming scheduler.
//!
//! Since the service refactor there is exactly one execution path —
//! [`with_scheduler`](crate::with_scheduler)'s worker pool (queue → workers
//! → portfolio → cache). `run_batch` is a thin client of it: submit every
//! job, collect the out-of-order completions from a channel, and put them
//! back into submission order. `termite suite` and `termite serve` therefore
//! run byte-identical analyses; only the intake/ordering shell differs.

use crate::cache::ResultCache;
use crate::job::AnalysisJob;
use crate::portfolio::EngineSelection;
use crate::service::{with_scheduler, SchedulerConfig, TaskSpec};
use std::sync::Arc;
use std::time::Duration;
use termite_core::{AnalysisOptions, Engine, SynthesisStats, TerminationReport};
use termite_obs::Recorder;

/// Configuration of one batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Number of worker threads (clamped to at least 1 and at most the
    /// number of jobs).
    pub workers: usize,
    /// Engine selection applied to every job.
    pub selection: EngineSelection,
    /// Base analysis options; `options.cancel` acts as the batch-wide
    /// cancellation token (deadlines included).
    pub options: AnalysisOptions,
    /// Optional per-job wall-clock budget, enforced through a child
    /// cancellation token.
    pub job_timeout: Option<Duration>,
    /// Trace recorder installed on every worker thread when present (the
    /// `--trace` flag): every job's spans and events land in its ring.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 1,
            selection: EngineSelection::Single(Engine::Termite),
            options: AnalysisOptions::default(),
            job_timeout: None,
            recorder: None,
        }
    }
}

/// Result of one job within a batch.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Name of the analysed program.
    pub name: String,
    /// Ground truth from the benchmark suite, when known.
    pub expected_terminating: Option<bool>,
    /// The analysis report (possibly served from the cache).
    pub report: TerminationReport,
    /// The engine that proved termination, when one did (`None` also for
    /// cache hits, which do not re-run any engine).
    pub winner: Option<Engine>,
    /// Whether the report came out of the result cache.
    pub from_cache: bool,
    /// Wall-clock time this job took inside the driver, in milliseconds
    /// (near zero for cache hits).
    pub wall_millis: f64,
}

impl BatchResult {
    /// `true` if termination was proved.
    pub fn proved(&self) -> bool {
        self.report.proved()
    }
}

/// Runs every job through the worker pool; exactly one result per job comes
/// back, in submission order regardless of completion order. Jobs the pool
/// never started because the batch token fired report `Unknown` with zeroed
/// stats (cancellation is indistinguishable from "gave up", never from a
/// proof).
///
/// When `cache` is given, each job is first looked up by content-addressed
/// key; fresh results are stored back unless their run was cancelled (a
/// timeout's `Unknown` must not poison later, un-budgeted runs).
pub fn run_batch(
    jobs: Vec<AnalysisJob>,
    config: &BatchConfig,
    cache: Option<&ResultCache>,
) -> Vec<BatchResult> {
    let total = jobs.len();
    let scheduler_config = SchedulerConfig {
        workers: config.workers.clamp(1, total.max(1)),
        selection: config.selection.clone(),
        options: config.options.clone(),
        job_timeout: config.job_timeout,
        metrics: None,
        recorder: config.recorder.clone(),
    };
    let (tx, rx) = std::sync::mpsc::channel::<(usize, BatchResult)>();
    let mut slots: Vec<Option<BatchResult>> = (0..total).map(|_| None).collect();
    with_scheduler(&scheduler_config, cache, |scheduler| {
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let token = scheduler.child_token();
            scheduler.submit(
                TaskSpec {
                    id: index.to_string(),
                    client: 0,
                    job,
                    selection: None,
                    timeout: None,
                    trace: false,
                },
                token,
                move |outcome| {
                    let _ = tx.send((index, outcome.result));
                },
            );
        }
        drop(tx);
        // The barrier lives here, in the client — the scheduler itself
        // streams. Completions arrive out of order; the slots restore
        // submission order.
        for (index, result) in rx {
            slots[index] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task answers exactly once"))
        .collect()
}

/// Aggregate counts over a batch, for the CLI's totals lines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchTotals {
    /// Number of jobs.
    pub total: usize,
    /// Number proved terminating (unconditionally or conditionally).
    pub proved: usize,
    /// Of `proved`, how many carry an inferred precondition
    /// (`Verdict::TerminatesIf`).
    pub conditional: usize,
    /// Number expected terminating (when ground truth is known).
    pub expected: usize,
    /// Results served from the cache.
    pub cache_hits: usize,
    /// Sum of the per-job driver wall-clock times (milliseconds).
    pub wall_millis: f64,
    /// Sum of the driver wall-clock spent serving cache hits (milliseconds).
    pub cache_millis: f64,
    /// Every job's stats folded together with [`SynthesisStats::merge`]:
    /// counters, times and IR sizes summed under the schema's rules.
    pub stats: SynthesisStats,
}

impl BatchTotals {
    /// Aggregates a result list.
    pub fn of(results: &[BatchResult]) -> BatchTotals {
        let mut totals = BatchTotals {
            total: results.len(),
            ..BatchTotals::default()
        };
        for r in results {
            if r.proved() {
                totals.proved += 1;
                if !r.report.proved_unconditionally() {
                    totals.conditional += 1;
                }
            }
            if r.expected_terminating == Some(true) {
                totals.expected += 1;
            }
            if r.from_cache {
                totals.cache_hits += 1;
                totals.cache_millis += r.wall_millis;
            }
            totals.wall_millis += r.wall_millis;
            totals.stats.merge(&r.report.stats);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_core::CancelToken;
    use termite_suite::SuiteId;

    #[test]
    fn empty_batch_is_fine() {
        let results = run_batch(Vec::new(), &BatchConfig::default(), None);
        assert!(results.is_empty());
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs = AnalysisJob::from_suite(SuiteId::Sorts);
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        let config = BatchConfig {
            workers: 3,
            ..BatchConfig::default()
        };
        let results = run_batch(jobs, &config, None);
        assert_eq!(
            results.iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
            names
        );
    }

    #[test]
    fn cancelled_batch_stops_early() {
        let jobs = AnalysisJob::from_all_suites();
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        let token = CancelToken::new();
        token.cancel();
        let config = BatchConfig {
            workers: 2,
            options: AnalysisOptions::default().with_cancel(token),
            ..BatchConfig::default()
        };
        let results = run_batch(jobs, &config, None);
        assert_eq!(
            results.len(),
            names.len(),
            "every job reports a result even when cancelled"
        );
        for (result, name) in results.iter().zip(&names) {
            assert_eq!(&result.name, name, "results stay in submission order");
            assert!(!result.proved(), "a cancelled job never reports a proof");
            assert_eq!(
                result.report.stats.iterations, 0,
                "a pre-cancelled batch must not run jobs"
            );
        }
    }

    #[test]
    fn cache_hit_is_relabelled_with_the_jobs_own_name() {
        use crate::cache::ResultCache;
        use termite_invariants::InvariantOptions;
        use termite_ir::parse_named_program;

        let src = "var x; assume x >= 0; while (x > 0) { x = x - 1; }";
        let jobs: Vec<AnalysisJob> = ["alpha", "beta"]
            .iter()
            .map(|name| {
                AnalysisJob::from_program(
                    &parse_named_program(src, name).unwrap(),
                    &InvariantOptions::default(),
                )
            })
            .collect();
        let cache = ResultCache::new();
        let results = run_batch(jobs, &BatchConfig::default(), Some(&cache));
        assert!(
            results[1].from_cache,
            "identical content must hit the cache"
        );
        assert_eq!(
            results[1].report.program, "beta",
            "a cache hit reports the requesting job's name, not the first submitter's"
        );
    }

    #[test]
    fn totals_add_up() {
        let jobs = AnalysisJob::from_suite(SuiteId::Sorts);
        let expected: usize = jobs
            .iter()
            .filter(|j| j.expected_terminating == Some(true))
            .count();
        let results = run_batch(
            jobs,
            &BatchConfig {
                workers: 2,
                ..Default::default()
            },
            None,
        );
        let totals = BatchTotals::of(&results);
        assert_eq!(totals.total, results.len());
        assert_eq!(totals.expected, expected);
        assert!(totals.proved <= totals.total);
        assert_eq!(totals.cache_hits, 0);
        assert_eq!(
            totals.stats.iterations,
            results
                .iter()
                .map(|r| r.report.stats.iterations)
                .sum::<usize>()
        );
    }
}
