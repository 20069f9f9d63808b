//! Streaming job scheduler and the NDJSON analysis service.
//!
//! The batch driver of PR 1 ran with a barrier: submit everything, wait for
//! the pool to drain, collect results in submission order. That shape cannot
//! serve a long-lived analysis service, where jobs arrive continuously and a
//! caller wants each verdict the moment it lands. This module inverts the
//! topology:
//!
//! ```text
//!   intake ──────▶ queue ──▶ workers ──▶ reply callbacks (out of order)
//!     │              ▲
//!     └── bounded ───┘   backpressure: intake blocks while the number of
//!         window         in-flight jobs is at the window limit
//! ```
//!
//! * [`with_scheduler`] / [`SchedulerHandle`] — the barrier-free core: tasks
//!   are submitted one at a time, each carrying its own reply callback and a
//!   pre-issued [`CancelToken`], and complete in whatever order the workers
//!   finish them. [`run_batch`](crate::run_batch) is now a thin client of
//!   this scheduler (submit everything, collect from a channel, reorder).
//! * [`serve`] — the NDJSON wire front-end: job requests are read line by
//!   line from any [`BufRead`], responses stream back over any [`Write`] the
//!   moment each job lands, tagged by the request `id`. Intake only parses;
//!   the worker that runs a task prepares its job ([`TaskJob::Program`]), so
//!   one client's jobs prepare in parallel. A `{"cancel": id}`
//!   control line cancels a queued or running job mid-flight. Exposed on
//!   stdin/stdout as `termite serve`, so any transport — a socket wrapper, a
//!   CI harness, an editor plugin — can drive the prover as a service.
//!
//! # Wire protocol
//!
//! One JSON document per line, in both directions.
//!
//! Requests:
//!
//! ```json
//! {"id": "job-1", "program": "var x; while (x > 0) { x = x - 1; }"}
//! {"id": "job-2", "program": "...", "engine": "eager", "timeout_ms": 500}
//! {"id": "job-4", "program": "...", "trace": true}
//! {"cancel": "job-2"}
//! {"stats": true}
//! {"shutdown": true}
//! ```
//!
//! Responses (exactly one line per job, unordered):
//!
//! ```json
//! {"id": "job-1", "status": "ok", "verdict": "terminates", "from_cache": false, ...}
//! {"id": "job-2", "status": "cancelled"}
//! {"id": "job-3", "status": "error", "error": "parse: ..."}
//! {"id": "job-4", "status": "ok", ..., "trace": {"traceEvents": [...]}}
//! {"status": "stats", "jobs": {...}, "synthesis": {...}, "cache": {...}}
//! {"status": "shutdown", "draining": 2}
//! ```
//!
//! The service is **fault-tolerant and multi-tenant**: tasks carry a client
//! number dequeued round-robin (one flooding client cannot starve others,
//! see [`TaskSpec::client`]), a panicking engine is caught at the worker
//! boundary and answered as an error instead of killing the service, and
//! `{"shutdown": true}` (or SIGTERM via [`ServeConfig::shutdown_flag`])
//! drains in-flight jobs under a deadline. The TCP front-end over the same
//! machinery lives in [`crate::serve_tcp`].
//!
//! `{"stats": true}` (optionally with an `"id"` to correlate) is a control
//! verb like cancel: it bypasses the in-flight window, so a live snapshot of
//! the [`MetricsRegistry`] — job counts, in-flight depth, queue wait,
//! synthesis/SMT/LP/invariant phase totals, cache occupancy — comes back
//! immediately even while the window is full of long-running jobs.
//! `"trace": true` on a job request runs it under a fresh per-job trace
//! recorder and attaches the Chrome-trace events to its response line.
//!
//! # Example
//!
//! ```
//! use std::io::Cursor;
//! use termite_driver::{serve, ServeConfig};
//!
//! let requests = concat!(
//!     r#"{"id": "down", "program": "var x; while (x > 0) { x = x - 1; }"}"#, "\n",
//!     r#"{"id": "up", "program": "var x; assume x >= 1; while (x > 0) { x = x + 1; }"}"#, "\n",
//! );
//! let mut responses = Vec::new();
//! let summary = serve(
//!     Cursor::new(requests),
//!     &mut responses,
//!     &ServeConfig::default(),
//!     None,
//! )
//! .unwrap();
//! assert_eq!(summary.ok, 2);
//! let text = String::from_utf8(responses).unwrap();
//! assert!(text.contains(r#""verdict":"terminates""#));
//! assert!(text.contains(r#""verdict":"unknown""#));
//! ```

use crate::batch::BatchResult;
use crate::cache::{cache_key, report_to_json, verdict_name, ResultCache};
use crate::job::AnalysisJob;
use crate::json::Json;
use crate::lock;
use crate::portfolio::{run_selection, EngineSelection, PortfolioOutcome};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use termite_core::{
    AnalysisOptions, CancelToken, Engine, StatField, StatKind, SynthesisStats, TerminationReport,
    UnknownReason, Verdict, STAT_FIELDS,
};
use termite_invariants::InvariantOptions;
use termite_ir::{parse_named_program, Program};
use termite_obs::{
    ArgValue, EventKind, MetricUnit, MetricsRegistry, MetricsSnapshot, Recorder, TraceEvent,
};

/// Configuration of a scheduler scope.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Number of worker threads (at least one is spawned).
    pub workers: usize,
    /// Default engine selection for tasks that do not override it.
    pub selection: EngineSelection,
    /// Base analysis options; `options.cancel` is the scheduler-wide token
    /// (cancelling it stops every task, queued or running).
    pub options: AnalysisOptions,
    /// Default per-task wall-clock budget, measured from the moment a worker
    /// starts the task (queue wait does not count against it).
    pub job_timeout: Option<Duration>,
    /// Metrics sink: submissions, queue waits, and every landed job's
    /// synthesis totals are merged here when present.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Trace recorder installed on every worker thread when present (the
    /// `--trace` flag); per-job opt-in traces via [`TaskSpec::trace`] shadow
    /// it for the duration of their job.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 1,
            selection: EngineSelection::Single(Engine::Termite),
            options: AnalysisOptions::default(),
            job_timeout: None,
            metrics: None,
            recorder: None,
        }
    }
}

/// One unit of work submitted to the scheduler.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Caller-chosen identifier, echoed in the [`TaskOutcome`].
    pub id: String,
    /// The submitting tenant: tasks are dequeued round-robin across client
    /// numbers, so one client flooding the queue cannot starve the others.
    /// Single-tenant callers (batch mode) use `0`.
    pub client: u64,
    /// The analysis job, or the program a worker prepares into one.
    pub job: TaskJob,
    /// Engine selection override; `None` uses the scheduler default.
    pub selection: Option<EngineSelection>,
    /// Wall-clock budget override; `None` uses the scheduler default.
    pub timeout: Option<Duration>,
    /// When `true`, the task runs under a fresh per-job trace recorder and
    /// its events come back in [`TaskOutcome::trace`] (the serve protocol's
    /// `"trace": true` request field).
    pub trace: bool,
}

/// What a task analyses.
#[derive(Clone, Debug)]
pub enum TaskJob {
    /// A job its submitter already prepared (batch mode).
    Prepared(Box<AnalysisJob>),
    /// A parsed program that the worker running the task prepares
    /// ([`AnalysisJob::from_program_with`]): IR optimization and the
    /// transition system, all the cache key needs. Done by the worker pool,
    /// it runs in parallel instead of one job at a time on a client's
    /// intake thread; the invariants follow only on a cache miss.
    Program {
        /// The parsed program.
        program: Program,
        /// Whether to run the IR shrinking pipeline first.
        optimize: bool,
    },
}

impl TaskJob {
    /// The job's name (the program's name).
    fn name(&self) -> &str {
        match self {
            TaskJob::Prepared(job) => &job.name,
            TaskJob::Program { program, .. } => &program.name,
        }
    }

    /// The prepared job: borrowed, or prepared now on the calling thread.
    fn prepare(&self) -> Cow<'_, AnalysisJob> {
        match self {
            TaskJob::Prepared(job) => Cow::Borrowed(job.as_ref()),
            TaskJob::Program { program, optimize } => {
                let _span = termite_obs::span!("job.prepare", program = program.name.as_str());
                Cow::Owned(AnalysisJob::from_program_with(
                    program,
                    &InvariantOptions::default(),
                    *optimize,
                ))
            }
        }
    }
}

/// What the scheduler hands to a task's reply callback.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// The submitting [`TaskSpec::id`].
    pub id: String,
    /// The analysis result (same shape as one batch row).
    pub result: BatchResult,
    /// The job's trace events, when [`TaskSpec::trace`] asked for them.
    pub trace: Option<Vec<TraceEvent>>,
    /// The panic message, when the worker running this task panicked and the
    /// scheduler's isolation boundary caught it. [`TaskOutcome::result`] then
    /// carries `Unknown` with [`UnknownReason::EngineFailure`] and zeroed
    /// stats — the failure says nothing about the program.
    pub panic: Option<String>,
}

/// A task's reply callback: invoked exactly once, on a worker thread, the
/// moment the task lands.
type Reply = Box<dyn FnOnce(TaskOutcome) + Send>;

struct Task {
    spec: TaskSpec,
    cancel: CancelToken,
    reply: Reply,
    queued_at: Instant,
}

/// The scheduler queue: one FIFO lane per client, dequeued round-robin.
///
/// A single shared FIFO would let one tenant with a deep backlog starve
/// everyone behind it; per-client lanes with a rotating cursor give each
/// client with pending work one task per round, while a lone client still
/// sees plain FIFO order.
struct QueueState {
    lanes: BTreeMap<u64, VecDeque<Task>>,
    /// The next client number the round-robin cursor will serve (clients at
    /// or above it are preferred; the cursor wraps past the largest).
    cursor: u64,
    shutdown: bool,
}

impl QueueState {
    fn push(&mut self, task: Task) {
        self.lanes
            .entry(task.spec.client)
            .or_default()
            .push_back(task);
    }

    /// Pops the oldest task of the first client at or after the cursor
    /// (wrapping), then advances the cursor past that client.
    fn pop_fair(&mut self) -> Option<Task> {
        let client = self
            .lanes
            .range(self.cursor..)
            .next()
            .or_else(|| self.lanes.range(..).next())
            .map(|(client, _)| *client)?;
        let lane = self.lanes.get_mut(&client).expect("the chosen lane exists");
        let task = lane.pop_front().expect("lanes are never left empty");
        if lane.is_empty() {
            self.lanes.remove(&client);
        }
        self.cursor = client.wrapping_add(1);
        Some(task)
    }
}

struct SchedulerState {
    queue: Mutex<QueueState>,
    ready: Condvar,
}

/// Submission handle of a running scheduler scope (see [`with_scheduler`]).
///
/// The handle is `Sync`: intake threads may share it to submit concurrently.
pub struct SchedulerHandle<'a> {
    state: &'a SchedulerState,
    config: &'a SchedulerConfig,
}

impl SchedulerHandle<'_> {
    /// A fresh cancellation token scoped under the scheduler-wide token:
    /// cancelling it stops one task (pass it to [`submit`](Self::submit)),
    /// while the scheduler token still stops everything.
    pub fn child_token(&self) -> CancelToken {
        self.config.options.cancel.child()
    }

    /// Submits a task. `cancel` must come from
    /// [`child_token`](Self::child_token) (issuing it first lets the caller
    /// index the token — e.g. under an id — *before* the task can complete,
    /// closing the race between fast workers and bookkeeping). The `reply`
    /// callback fires exactly once, on a worker thread, when the task lands —
    /// results stream back in completion order, not submission order.
    pub fn submit(
        &self,
        spec: TaskSpec,
        cancel: CancelToken,
        reply: impl FnOnce(TaskOutcome) + Send + 'static,
    ) {
        if let Some(metrics) = &self.config.metrics {
            metrics.job_submitted();
        }
        if let Some(recorder) = &self.config.recorder {
            recorder.record_event(
                "task_submit",
                vec![("id", termite_obs::ArgValue::from(spec.id.as_str()))],
            );
        }
        let mut queue = lock(&self.state.queue);
        queue.push(Task {
            spec,
            cancel,
            reply: Box::new(reply),
            queued_at: Instant::now(),
        });
        drop(queue);
        self.state.ready.notify_one();
    }
}

/// Runs `body` against a live worker pool: `config.workers` threads pull
/// tasks from a shared queue as [`SchedulerHandle::submit`] feeds it, with no
/// barrier anywhere — a submitted task completes (and its reply callback
/// fires) while `body` is still submitting others.
///
/// When `body` returns, the scope shuts down: tasks still queued are
/// completed as cancelled (reply fired, zeroed stats, never run), running
/// tasks finish, and the workers are joined before `with_scheduler` returns.
///
/// When `cache` is given, each task is first looked up by content-addressed
/// key; fresh results are stored back unless their run was cancelled (a
/// timeout's `Unknown` must not poison later, un-budgeted runs).
pub fn with_scheduler<R>(
    config: &SchedulerConfig,
    cache: Option<&ResultCache>,
    body: impl FnOnce(&SchedulerHandle<'_>) -> R,
) -> R {
    let state = SchedulerState {
        queue: Mutex::new(QueueState {
            lanes: BTreeMap::new(),
            cursor: 0,
            shutdown: false,
        }),
        ready: Condvar::new(),
    };
    // Shutdown must happen even when `body` unwinds: `thread::scope` joins
    // the workers before propagating the panic, and a worker parked on the
    // condvar with `shutdown` unset would make that join — and hence the
    // whole process — wait forever.
    struct ShutdownGuard<'a>(&'a SchedulerState);
    impl Drop for ShutdownGuard<'_> {
        fn drop(&mut self) {
            lock(&self.0.queue).shutdown = true;
            self.0.ready.notify_all();
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| worker_loop(&state, config, cache));
        }
        let handle = SchedulerHandle {
            state: &state,
            config,
        };
        let _shutdown = ShutdownGuard(&state);
        body(&handle)
    })
}

fn worker_loop(state: &SchedulerState, config: &SchedulerConfig, cache: Option<&ResultCache>) {
    // A scheduler-wide recorder (`--trace`) covers every task this worker
    // runs; per-job recorders installed in `execute_task` shadow it.
    let _recorder_guard = config
        .recorder
        .as_ref()
        .map(|recorder| termite_obs::install(Arc::clone(recorder)));
    loop {
        let (task, drain) = {
            let mut queue = lock(&state.queue);
            loop {
                if let Some(task) = queue.pop_fair() {
                    break (task, queue.shutdown);
                }
                if queue.shutdown {
                    return;
                }
                queue = state
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(metrics) = &config.metrics {
            metrics.queue_wait_micros(
                u64::try_from(task.queued_at.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
        }
        // A task still queued at shutdown is completed as cancelled rather
        // than run: the scope is closing and nobody submits work they do not
        // want, but every submitted task still gets exactly one reply.
        //
        // `catch_unwind` is the service's panic isolation boundary: a
        // panicking engine yields an `EngineFailure` result instead of a
        // dead worker, a poisoned mutex, and a client hung forever on a
        // missing response. The worker returns to the pool.
        let (result, trace, panic) = if drain || task.cancel.is_cancelled() {
            (
                unrun_result(&task.spec.job, UnknownReason::Cancelled),
                None,
                None,
            )
        } else {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_task(&task, config, cache)
            })) {
                Ok((result, trace)) => (result, trace, None),
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    termite_obs::event!(
                        "task_panic",
                        id = task.spec.id.as_str(),
                        message = message.as_str()
                    );
                    if let Some(metrics) = &config.metrics {
                        metrics.job_panicked();
                    }
                    eprintln!(
                        "termite: worker panicked running job `{}`: {message} (worker \
                         recovered; job answered as engine failure)",
                        task.spec.id
                    );
                    (
                        unrun_result(&task.spec.job, UnknownReason::EngineFailure),
                        None,
                        Some(message),
                    )
                }
            }
        };
        if let Some(metrics) = &config.metrics {
            let cancelled = matches!(
                result.report.verdict,
                Verdict::Unknown {
                    reason: UnknownReason::Cancelled
                }
            );
            metrics.job_finished(
                registered_stats().map(|(field, _)| (field.get)(&result.report.stats).number()),
                result.from_cache,
                cancelled,
            );
        }
        termite_obs::event!("task_land", id = task.spec.id.as_str());
        (task.reply)(TaskOutcome {
            id: task.spec.id,
            result,
            trace,
            panic,
        });
    }
}

/// Best-effort extraction of a panic payload's message (the `&str` and
/// `String` payloads `panic!` produces; anything else is summarized).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The stats-schema rows the metrics registry keeps, with their units:
/// every counter and time (sizes and labels describe one job, not work
/// done, and do not add up across a session).
fn registered_stats() -> impl Iterator<Item = (&'static StatField, MetricUnit)> {
    STAT_FIELDS.iter().filter_map(|field| match field.kind {
        StatKind::Counter => Some((field, MetricUnit::Count)),
        StatKind::Millis => Some((field, MetricUnit::Millis)),
        StatKind::Size | StatKind::Label => None,
    })
}

/// The result of a task that produced no analysis: `Unknown` for `reason`
/// with zeroed stats. A task cancelled before a worker ran it answers
/// `Cancelled` (indistinguishable from "gave up", never from a proof); a
/// task whose worker panicked (caught at the scheduler's isolation boundary)
/// answers `EngineFailure` — the failure says nothing about the program.
fn unrun_result(job: &TaskJob, reason: UnknownReason) -> BatchResult {
    let expected_terminating = match job {
        TaskJob::Prepared(job) => job.expected_terminating,
        TaskJob::Program { .. } => None,
    };
    BatchResult {
        report: TerminationReport {
            program: job.name().to_string(),
            verdict: Verdict::unknown(reason),
            stats: SynthesisStats::default(),
        },
        name: job.name().to_string(),
        expected_terminating,
        winner: None,
        from_cache: false,
        wall_millis: 0.0,
    }
}

/// Runs one task: cache lookup, engine selection (possibly a portfolio
/// race) under a deadline-bearing child of the task token, cache store.
/// Returns the result plus the drained per-job trace when the spec opted in.
fn execute_task(
    task: &Task,
    config: &SchedulerConfig,
    cache: Option<&ResultCache>,
) -> (BatchResult, Option<Vec<TraceEvent>>) {
    // A per-job trace gets its own recorder (timestamps start at 0 for this
    // job), shadowing any scheduler-wide recorder for the duration.
    let job_recorder = task
        .spec
        .trace
        .then(|| Arc::new(Recorder::new(termite_obs::DEFAULT_RING_CAPACITY)));
    let recorder_guard = job_recorder
        .as_ref()
        .map(|recorder| termite_obs::install(Arc::clone(recorder)));
    let result = run_task(task, config, cache);
    drop(recorder_guard);
    let trace = job_recorder.map(|recorder| recorder.drain());
    (result, trace)
}

fn run_task(task: &Task, config: &SchedulerConfig, cache: Option<&ResultCache>) -> BatchResult {
    let start = Instant::now();
    let _job_span = termite_obs::span!("job", id = task.spec.id.as_str());
    // Fault injection (no-op unless a plan is armed, see `crate::faults`):
    // the stall observes cancellation like a real engine would, and the
    // injected panic exercises the `catch_unwind` boundary in `worker_loop`.
    if crate::faults::armed() {
        let ordinal = crate::faults::next_execution();
        if let Some(millis) = crate::faults::slow_job_millis(&task.spec.id, ordinal) {
            let deadline = Instant::now() + Duration::from_millis(millis);
            while Instant::now() < deadline && !task.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if crate::faults::worker_panic(&task.spec.id, ordinal) {
            panic!("injected fault: worker_panic (job `{}`)", task.spec.id);
        }
    }
    let job = task.spec.job.prepare();
    let job = job.as_ref();
    let selection = task.spec.selection.as_ref().unwrap_or(&config.selection);
    let key = cache.map(|_| cache_key(job, selection, &config.options));

    if let (Some(cache), Some(key)) = (cache, &key) {
        let found = cache.lookup(key);
        termite_obs::event!("cache_probe", hit = found.is_some());
        if let Some(mut report) = found {
            // The key is content-addressed (it ignores program names), so the
            // stored report may carry the first submitter's name; re-label it
            // for this job.
            report.program = job.name.clone();
            return BatchResult {
                name: job.name.clone(),
                expected_terminating: job.expected_terminating,
                report,
                winner: None,
                from_cache: true,
                wall_millis: start.elapsed().as_secs_f64() * 1000.0,
            };
        }
    }

    // The deadline starts now, not at submission: queue wait under a loaded
    // service must not eat a job's synthesis budget.
    let run_token = match task.spec.timeout.or(config.job_timeout) {
        Some(budget) => task.cancel.child_with_deadline(budget),
        None => task.cancel.child(),
    };
    let options = config.options.clone().with_cancel(run_token.clone());
    let PortfolioOutcome { report, winner, .. } = run_selection(job, selection, &options);

    // A cancelled run's `Unknown` is an artefact of the budget, not a fact
    // about the program; never persist it.
    let genuine = report.proved() || !run_token.is_cancelled();
    if let (Some(cache), Some(key), true) = (cache, key, genuine) {
        cache.store(key, report.clone());
    }

    BatchResult {
        name: job.name.clone(),
        expected_terminating: job.expected_terminating,
        report,
        winner,
        from_cache: false,
        wall_millis: start.elapsed().as_secs_f64() * 1000.0,
    }
}

/// Configuration of the NDJSON service front-end.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Default engine selection for requests without an `"engine"` field.
    pub selection: EngineSelection,
    /// Base analysis options; `options.cancel` stops the whole service.
    pub options: AnalysisOptions,
    /// Default per-job budget for requests without `"timeout_ms"`.
    pub job_timeout: Option<Duration>,
    /// Bound on concurrently in-flight (queued + running) jobs: intake
    /// blocks — exerting backpressure on the transport — while the window is
    /// full. At least 1.
    pub max_inflight: usize,
    /// When set, a one-line metrics summary is printed to stderr at this
    /// interval for the lifetime of the session (the `--stats-every` flag).
    pub stats_every: Option<Duration>,
    /// How long a graceful shutdown — the `{"shutdown": true}` verb, or the
    /// external [`shutdown_flag`](Self::shutdown_flag) — waits for in-flight
    /// jobs to land before cancelling the stragglers (the `--drain-ms`
    /// flag).
    pub drain_timeout: Duration,
    /// External shutdown request: when the flag flips to `true` (a SIGTERM
    /// handler, a test), intake stops and the service drains exactly as if a
    /// client had sent the shutdown verb. `'static` because a Unix signal
    /// handler cannot capture state.
    pub shutdown_flag: Option<&'static AtomicBool>,
    /// Whether to run the IR pre-optimization pipeline on submitted
    /// programs (the session default; a job's `"optimize"` field overrides
    /// it per request). Defaults to `true`.
    pub optimize: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            selection: EngineSelection::Single(Engine::Termite),
            options: AnalysisOptions::default(),
            job_timeout: None,
            max_inflight: 64,
            stats_every: None,
            drain_timeout: Duration::from_secs(10),
            shutdown_flag: None,
            optimize: true,
        }
    }
}

/// Aggregate counts of one [`serve`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs answered with `"status": "ok"`.
    pub ok: usize,
    /// Jobs answered with `"status": "cancelled"`.
    pub cancelled: usize,
    /// Lines answered with `"status": "error"` (parse failures, unknown
    /// cancel targets, duplicate ids, worker panics).
    pub errors: usize,
    /// Lines answered with `"status": "stats"`.
    pub stats: usize,
    /// Jobs whose worker panicked (a subset of [`errors`](Self::errors)).
    pub panicked: usize,
    /// `{"shutdown": true}` verbs acknowledged.
    pub shutdowns: usize,
}

impl ServeSummary {
    /// Accumulates another summary into this one (the TCP front-end sums one
    /// summary per connection).
    pub fn merge(&mut self, other: &ServeSummary) {
        self.ok += other.ok;
        self.cancelled += other.cancelled;
        self.errors += other.errors;
        self.stats += other.stats;
        self.panicked += other.panicked;
        self.shutdowns += other.shutdowns;
    }
}

/// The bounded in-flight window: intake blocks in [`acquire`](Self::acquire)
/// while `limit` jobs are queued or running.
struct Window {
    inflight: Mutex<usize>,
    freed: Condvar,
    limit: usize,
}

impl Window {
    fn new(limit: usize) -> Self {
        Window {
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Blocks until a slot frees (returning `true`) or `abort()` reports the
    /// wait is pointless — shutdown began, the client disconnected —
    /// returning `false` without a slot. `abort` is polled between waits.
    fn acquire(&self, abort: &dyn Fn() -> bool) -> bool {
        let mut inflight = lock(&self.inflight);
        while *inflight >= self.limit {
            if abort() {
                return false;
            }
            let (next, _) = self
                .freed
                .wait_timeout(inflight, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            inflight = next;
        }
        *inflight += 1;
        true
    }

    fn release(&self) {
        *lock(&self.inflight) -= 1;
        self.freed.notify_one();
    }

    /// The number of jobs currently queued or running (the live in-flight
    /// depth reported by the stats verb).
    fn depth(&self) -> usize {
        *lock(&self.inflight)
    }
}

/// One event flowing from intake/workers to the response writer.
enum Event {
    /// A job landed (ok or cancelled — the writer decides which by id).
    /// Boxed: an outcome (report + certificate) dwarfs a rejection line.
    Done(Box<TaskOutcome>),
    /// An intake line was rejected before becoming a job.
    Reject { id: Option<String>, error: String },
    /// A `{"stats": true}` control line: the writer (which holds the
    /// registry, the window, and the cache) composes the snapshot.
    Stats { id: Option<String> },
    /// A `{"shutdown": true}` control line was accepted: the writer emits
    /// the acknowledgement after everything already queued ahead of it.
    ShutdownAck { id: Option<String> },
}

/// A parsed request line of the serve wire protocol (see [`serve`]).
#[derive(Clone, Debug)]
pub enum Request {
    /// An analysis job request (`{"id", "program", ...}`).
    Job {
        /// Caller-chosen id, echoed in the response line.
        id: String,
        /// The program text to analyse.
        source: String,
        /// Engine override from the `"engine"` field.
        selection: Option<EngineSelection>,
        /// Per-job budget override from `"timeout_ms"`.
        timeout: Option<Duration>,
        /// Whether `"trace": true` asked for a per-job trace.
        trace: bool,
        /// Per-job override of the session's IR pre-optimization default
        /// (`"optimize": false` analyses the program as written).
        optimize: Option<bool>,
    },
    /// `{"cancel": id}` — cancel a queued or running job.
    Cancel {
        /// The id of the job to cancel.
        id: String,
    },
    /// `{"stats": true}` — snapshot the session metrics.
    Stats {
        /// Optional id echoed back to correlate the snapshot line.
        id: Option<String>,
    },
    /// `{"shutdown": true}` — stop intake and drain the whole service.
    Shutdown {
        /// Optional id echoed back to correlate the acknowledgement line.
        id: Option<String>,
    },
}

/// The id field of a request: a JSON string, or a number. Numbers are
/// stringified on intake — responses always carry the id as a JSON *string*
/// (`{"id": 7}` is answered as `{"id": "7"}`), so clients comparing ids
/// must compare textually.
fn parse_id(json: &Json) -> Option<String> {
    match json {
        Json::String(s) => Some(s.clone()),
        Json::Number(_) => Some(json.to_string()),
        _ => None,
    }
}

/// Parses one request line of the serve wire protocol. A rejected line
/// (`Err((id, error))`) keeps its `id` whenever one was present and
/// well-formed, so even a semantically invalid request still gets an
/// id-tagged error response a client can correlate.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let fail = |id: Option<&str>, error: String| (id.map(str::to_string), error);
    let doc = Json::parse(line).map_err(|e| fail(None, format!("bad request line: {e}")))?;
    if let Some(target) = doc.get("cancel") {
        let id = parse_id(target)
            .ok_or_else(|| fail(None, "cancel: `cancel` must be a job id".to_string()))?;
        return Ok(Request::Cancel { id });
    }
    if let Some(flag) = doc.get("shutdown") {
        let id = doc.get("id").and_then(parse_id);
        return match flag {
            Json::Bool(true) => Ok(Request::Shutdown { id }),
            _ => Err(fail(
                id.as_deref(),
                "shutdown: `shutdown` must be `true`".to_string(),
            )),
        };
    }
    if let Some(flag) = doc.get("stats") {
        // An optional id is echoed back so a client multiplexing verbs can
        // correlate the snapshot line.
        let id = doc.get("id").and_then(parse_id);
        return match flag {
            Json::Bool(true) => Ok(Request::Stats { id }),
            _ => Err(fail(
                id.as_deref(),
                "stats: `stats` must be `true`".to_string(),
            )),
        };
    }
    let id = doc
        .get("id")
        .ok_or_else(|| fail(None, "request without `id`".to_string()))
        .and_then(|id| {
            parse_id(id)
                .ok_or_else(|| fail(None, "request `id` must be a string or number".to_string()))
        })?;
    let source = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(Some(&id), "request without a `program` string".to_string()))?
        .to_string();
    let selection = match doc.get("engine") {
        None | Some(Json::Null) => None,
        Some(engine) => {
            let name = engine
                .as_str()
                .ok_or_else(|| fail(Some(&id), "`engine` must be a string".to_string()))?;
            Some(crate::portfolio::parse_selection(name).map_err(|e| fail(Some(&id), e))?)
        }
    };
    let timeout = match doc.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(ms) => {
            let ms = ms
                .as_f64()
                .filter(|ms| *ms >= 0.0 && ms.fract() == 0.0)
                .ok_or_else(|| {
                    fail(
                        Some(&id),
                        "`timeout_ms` must be a non-negative integer".to_string(),
                    )
                })?;
            Some(Duration::from_millis(ms as u64))
        }
    };
    let trace = match doc.get("trace") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => {
            return Err(fail(Some(&id), "`trace` must be a boolean".to_string()));
        }
    };
    let optimize = match doc.get("optimize") {
        None | Some(Json::Null) => None,
        Some(Json::Bool(b)) => Some(*b),
        Some(_) => {
            return Err(fail(Some(&id), "`optimize` must be a boolean".to_string()));
        }
    };
    Ok(Request::Job {
        id,
        source,
        selection,
        timeout,
        trace,
        optimize,
    })
}

/// A drained per-job trace as an embeddable Chrome-trace document
/// (`{"traceEvents": [...]}`), mirroring [`termite_obs::chrome_trace_json`]
/// in the driver's own JSON type so it nests inside a response line.
fn trace_events_to_json(events: &[TraceEvent]) -> Json {
    let arg_to_json = |arg: &ArgValue| -> Json {
        match arg {
            ArgValue::Int(i) => Json::Number(*i as f64),
            ArgValue::Float(f) if f.is_finite() => Json::Number(*f),
            ArgValue::Float(f) => Json::String(f.to_string()),
            ArgValue::Bool(b) => Json::Bool(*b),
            ArgValue::Str(s) => Json::String(s.clone()),
        }
    };
    let event_to_json = |e: &TraceEvent| -> Json {
        let mut fields = vec![
            ("name", Json::String(e.name.to_string())),
            ("cat", Json::String("termite".to_string())),
            ("pid", Json::Number(1.0)),
            ("tid", Json::Number(e.tid as f64)),
            ("ts", Json::Number(e.ts_us as f64)),
        ];
        match e.kind {
            EventKind::Span { dur_us } => {
                fields.push(("ph", Json::String("X".to_string())));
                fields.push(("dur", Json::Number(dur_us as f64)));
            }
            EventKind::Instant => {
                fields.push(("ph", Json::String("i".to_string())));
                fields.push(("s", Json::String("t".to_string())));
            }
        }
        if !e.args.is_empty() {
            fields.push((
                "args",
                Json::object(e.args.iter().map(|(k, v)| (*k, arg_to_json(v)))),
            ));
        }
        Json::object(fields)
    };
    Json::object([(
        "traceEvents",
        Json::Array(events.iter().map(event_to_json).collect()),
    )])
}

/// The `"status": "ok"` response line of one landed job.
fn ok_response(outcome: &TaskOutcome) -> Json {
    let r = &outcome.result;
    let mut fields = vec![
        ("id", Json::String(outcome.id.clone())),
        ("status", Json::String("ok".to_string())),
        (
            "verdict",
            Json::String(verdict_name(&r.report.verdict).to_string()),
        ),
        // "Proved, possibly conditionally" — same semantics as the
        // `terminating` field of `suite --json`. Unconditional-only clients
        // must gate on `verdict == "terminates"`.
        ("terminating", Json::Bool(r.proved())),
        ("from_cache", Json::Bool(r.from_cache)),
        (
            "winner",
            match r.winner {
                Some(e) => Json::String(format!("{e:?}")),
                None => Json::Null,
            },
        ),
        ("wall_millis", Json::Number(r.wall_millis)),
        ("report", report_to_json(&r.report)),
    ];
    if let Some(trace) = &outcome.trace {
        fields.push(("trace", trace_events_to_json(trace)));
    }
    Json::object(fields)
}

/// The `"status": "stats"` response line: a live snapshot of the session's
/// metrics registry, the window's in-flight depth, and (when a cache is
/// wired) the result cache's occupancy.
fn stats_response(
    id: Option<&str>,
    snapshot: &MetricsSnapshot,
    in_flight: usize,
    cache: Option<&ResultCache>,
) -> Json {
    let count = |n: u64| Json::Number(n as f64);
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::String(id.to_string())));
    }
    fields.push(("status", Json::String("stats".to_string())));
    fields.push((
        "jobs",
        Json::object([
            ("submitted", count(snapshot.jobs_submitted)),
            ("completed", count(snapshot.jobs_completed)),
            ("cancelled", count(snapshot.jobs_cancelled)),
            ("from_cache", count(snapshot.jobs_from_cache)),
            ("panicked", count(snapshot.jobs_panicked)),
            ("in_flight", Json::Number(in_flight as f64)),
            (
                "queue_wait_millis",
                Json::Number(snapshot.queue_wait_millis),
            ),
        ]),
    ));
    fields.push((
        "synthesis",
        Json::Object(
            snapshot
                .totals
                .iter()
                .map(|(name, total)| (name.to_string(), Json::Number(*total)))
                .collect(),
        ),
    ));
    fields.push((
        "cache",
        match cache {
            Some(cache) => {
                let stats = cache.stats();
                Json::object([
                    ("entries", Json::Number(cache.len() as f64)),
                    ("hits", Json::Number(stats.hits as f64)),
                    ("misses", Json::Number(stats.misses as f64)),
                    ("stores", Json::Number(stats.stores as f64)),
                    (
                        "serialized_bytes",
                        Json::Number(cache.serialized_bytes() as f64),
                    ),
                ])
            }
            None => Json::Null,
        },
    ));
    Json::object(fields)
}

fn error_response(id: Option<&str>, error: &str) -> Json {
    let mut fields = vec![
        ("status", Json::String("error".to_string())),
        ("error", Json::String(error.to_string())),
    ];
    if let Some(id) = id {
        fields.insert(0, ("id", Json::String(id.to_string())));
    }
    Json::object(fields)
}

/// How one intake read ended.
pub(crate) enum LineRead {
    /// A complete line (without its terminator).
    Line(String),
    /// Clean end of input (EOF, or the peer half-closed its send side).
    Eof,
    /// The stop predicate fired while waiting for input.
    Stopped,
    /// The transport failed mid-read.
    Failed(String),
}

/// A blocking, stoppable source of request lines. The transports differ —
/// stdin cannot time out, a socket can — so each wraps its own read loop;
/// `stop` is polled whenever the implementation gets the chance (at minimum
/// between lines).
pub(crate) trait LineSource {
    /// Blocks for the next line, the end of input, or a stop/failure.
    fn next_line(&mut self, stop: &dyn Fn() -> bool) -> LineRead;
}

/// [`LineSource`] over any [`BufRead`] (stdin, a cursor, a pipe). The
/// underlying read blocks uninterruptibly, so `stop` is only observed
/// between lines — best effort, like any cooperative check. Invalid UTF-8
/// is replaced rather than fatal: one mangled line must not kill the whole
/// session (it gets a parse-error response like any other bad line).
pub(crate) struct BufReadSource<R: BufRead>(pub R);

impl<R: BufRead> LineSource for BufReadSource<R> {
    fn next_line(&mut self, stop: &dyn Fn() -> bool) -> LineRead {
        if stop() {
            return LineRead::Stopped;
        }
        let mut bytes = Vec::new();
        match self.0.read_until(b'\n', &mut bytes) {
            Ok(0) => LineRead::Eof,
            Ok(_) => {
                if bytes.last() == Some(&b'\n') {
                    bytes.pop();
                    if bytes.last() == Some(&b'\r') {
                        bytes.pop();
                    }
                }
                LineRead::Line(String::from_utf8_lossy(&bytes).into_owned())
            }
            Err(e) => LineRead::Failed(format!("read request line: {e}")),
        }
    }
}

/// Per-client session state, shared between a client's intake and egress
/// halves. Each client gets its own in-flight window (the per-tenant quota),
/// its own id namespace, and its own disconnect fate — one client vanishing
/// never disturbs another's jobs.
pub(crate) struct ClientState {
    /// The client number: the queue lane (fair dequeue) and the log label.
    client: u64,
    /// This client's bounded in-flight window.
    window: Window,
    /// Tokens of this client's in-flight jobs, by id: the cancel control
    /// message (and a disconnect) fires them.
    live: Mutex<HashMap<String, CancelToken>>,
    /// Ids cancelled by control message: their outcome becomes a
    /// `"status": "cancelled"` response rather than a result.
    cancelled: Mutex<HashSet<String>>,
    /// Flipped when the connection is gone (read error, failed write):
    /// intake stops, response writes are dropped, in-flight jobs cancelled.
    gone: AtomicBool,
}

impl ClientState {
    pub(crate) fn new(client: u64, max_inflight: usize) -> Self {
        ClientState {
            client,
            window: Window::new(max_inflight),
            live: Mutex::new(HashMap::new()),
            cancelled: Mutex::new(HashSet::new()),
            gone: AtomicBool::new(false),
        }
    }

    fn is_gone(&self) -> bool {
        self.gone.load(Ordering::SeqCst)
    }

    /// Cancels every in-flight job of this client — disconnect semantics:
    /// nobody is left to hear the answers, so free the workers (and this
    /// client's window slots) for the clients still connected.
    fn cancel_live(&self) {
        for token in lock(&self.live).values() {
            token.cancel();
        }
    }
}

/// State shared by every connection of one serve session: the configuration,
/// the metrics registry, and the graceful-shutdown machinery.
pub(crate) struct ServeShared<'a> {
    config: &'a ServeConfig,
    registry: Arc<MetricsRegistry>,
    cache: Option<&'a ResultCache>,
    /// Set once shutdown begins (the verb, the external flag, or a dead
    /// stdio transport): intake stops admitting jobs everywhere.
    shutdown: AtomicBool,
    drain: Mutex<DrainState>,
    drain_cv: Condvar,
}

struct DrainState {
    /// Armed when shutdown begins: past this instant the watchdog cancels
    /// outstanding work so a wedged job cannot hold shutdown hostage.
    deadline: Option<Instant>,
    /// The session finished (every egress loop returned): watchdog exits.
    finished: bool,
}

impl<'a> ServeShared<'a> {
    pub(crate) fn new(config: &'a ServeConfig, cache: Option<&'a ResultCache>) -> Self {
        ServeShared {
            config,
            registry: Arc::new(MetricsRegistry::with_counters(
                registered_stats().map(|(field, unit)| (field.name, unit)),
            )),
            cache,
            shutdown: AtomicBool::new(false),
            drain: Mutex::new(DrainState {
                deadline: None,
                finished: false,
            }),
            drain_cv: Condvar::new(),
        }
    }

    pub(crate) fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            workers: self.config.workers,
            selection: self.config.selection.clone(),
            options: self.config.options.clone(),
            job_timeout: self.config.job_timeout,
            metrics: Some(Arc::clone(&self.registry)),
            recorder: None,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The per-client in-flight quota (each connection gets its own window
    /// of this size).
    pub(crate) fn max_inflight(&self) -> usize {
        self.config.max_inflight
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins a graceful shutdown (idempotent): intake stops, and the drain
    /// watchdog arms its deadline.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        lock(&self.drain).deadline = Some(Instant::now() + self.config.drain_timeout);
        self.drain_cv.notify_all();
    }

    /// Promotes an external shutdown request ([`ServeConfig::shutdown_flag`],
    /// typically a SIGTERM handler) into a graceful shutdown. Polled from
    /// the intake and accept loops.
    pub(crate) fn poll_external(&self) {
        if let Some(flag) = self.config.shutdown_flag {
            if flag.load(Ordering::SeqCst) && !self.shutting_down() {
                eprintln!("termite serve: shutdown signal received; draining");
                self.begin_shutdown();
            }
        }
    }

    /// Marks the session finished, releasing the drain watchdog.
    pub(crate) fn finish(&self) {
        lock(&self.drain).finished = true;
        self.drain_cv.notify_all();
    }

    /// Blocks until the session finishes; if a drain deadline arms and
    /// passes first, cancels all outstanding work (via the service-wide
    /// token) and then waits for the session to wind down.
    pub(crate) fn watchdog(&self) {
        let mut drain = lock(&self.drain);
        loop {
            if drain.finished {
                return;
            }
            match drain.deadline {
                None => {
                    drain = self
                        .drain_cv
                        .wait(drain)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, _) = self
                        .drain_cv
                        .wait_timeout(drain, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    drain = next;
                }
            }
        }
        drop(drain);
        eprintln!(
            "termite serve: drain deadline ({} ms) passed; cancelling outstanding jobs",
            self.config.drain_timeout.as_millis()
        );
        self.config.options.cancel.cancel();
        let mut drain = lock(&self.drain);
        while !drain.finished {
            drain = self
                .drain_cv
                .wait(drain)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The periodic stderr metrics line (`--stats-every`): observational only,
/// never touches any response stream. `stop` is flipped (under its mutex)
/// when the session ends, so the ticker exits promptly instead of sleeping
/// out its last interval.
pub(crate) fn ticker_loop(
    registry: &MetricsRegistry,
    every: Duration,
    stop: &(Mutex<bool>, Condvar),
) {
    let (flag, stopped) = stop;
    let mut guard = lock(flag);
    loop {
        let (next, timeout) = stopped
            .wait_timeout(guard, every)
            .unwrap_or_else(PoisonError::into_inner);
        guard = next;
        if *guard {
            return;
        }
        if timeout.timed_out() {
            let s = registry.snapshot();
            let times: Vec<String> = s
                .totals
                .iter()
                .filter_map(|(name, total)| {
                    let part = name.strip_suffix("_millis")?;
                    Some(format!("{part} {total:.1} ms"))
                })
                .collect();
            eprintln!(
                "termite serve: {} submitted, {} completed ({} cached, {} cancelled, {} \
                 panicked), {} in flight; {}",
                s.jobs_submitted,
                s.jobs_completed,
                s.jobs_from_cache,
                s.jobs_cancelled,
                s.jobs_panicked,
                s.jobs_submitted.saturating_sub(s.jobs_completed),
                times.join(", "),
            );
        }
    }
}

/// Reads one client's request lines until EOF, shutdown, or disconnect,
/// submitting jobs (under that client's window) and firing cancel tokens.
/// Every accepted job eventually produces exactly one `Event::Done`; every
/// rejected line exactly one `Event::Reject`.
///
/// A malformed line is additionally diagnosed on stderr with the client
/// number and its 1-based line number, so an operator tailing the service
/// log can locate the offending line without correlating response ids.
fn client_intake(
    source: &mut dyn LineSource,
    scheduler: &SchedulerHandle<'_>,
    event_tx: std::sync::mpsc::Sender<Event>,
    shared: &ServeShared<'_>,
    state: &ClientState,
) {
    let mut line_no = 0usize;
    let stop = || {
        shared.poll_external();
        shared.shutting_down() || state.is_gone() || shared.config.options.cancel.is_cancelled()
    };
    loop {
        let line = match source.next_line(&stop) {
            LineRead::Line(line) => line,
            LineRead::Eof | LineRead::Stopped => return,
            LineRead::Failed(error) => {
                eprintln!(
                    "termite serve: client {}: {error}; cancelling its in-flight jobs",
                    state.client
                );
                state.gone.store(true, Ordering::SeqCst);
                state.cancel_live();
                return;
            }
        };
        line_no += 1;
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err((id, error)) => {
                match &id {
                    Some(id) => eprintln!(
                        "termite serve: client {} line {line_no} (id `{id}`): {error}",
                        state.client
                    ),
                    None => eprintln!(
                        "termite serve: client {} line {line_no}: {error}",
                        state.client
                    ),
                }
                let _ = event_tx.send(Event::Reject { id, error });
                continue;
            }
        };
        match request {
            Request::Shutdown { id } => {
                eprintln!(
                    "termite serve: shutdown requested by client {}; draining",
                    state.client
                );
                shared.begin_shutdown();
                let _ = event_tx.send(Event::ShutdownAck { id });
                return;
            }
            Request::Stats { id } => {
                // Like cancel, stats never waits on the window: the snapshot
                // must come back while long jobs hold every slot.
                let _ = event_tx.send(Event::Stats { id });
            }
            Request::Cancel { id } => {
                // A cancel never waits on the window itself. It can still be
                // *read* late when intake is blocked admitting an earlier job
                // into a full window (one reader, one stream) — size
                // `max_inflight` above the expected job/cancel interleave.
                match lock(&state.live).get(&id) {
                    Some(token) => {
                        token.cancel();
                        lock(&state.cancelled).insert(id);
                    }
                    None => {
                        let _ = event_tx.send(Event::Reject {
                            id: Some(id),
                            error: "cancel: no such in-flight job".to_string(),
                        });
                    }
                }
            }
            Request::Job {
                id,
                source: program_text,
                selection,
                timeout,
                trace,
                optimize,
            } => {
                if shared.shutting_down() {
                    let _ = event_tx.send(Event::Reject {
                        id: Some(id),
                        error: "service is shutting down".to_string(),
                    });
                    continue;
                }
                let program = match parse_named_program(&program_text, &id) {
                    Ok(program) => program,
                    Err(e) => {
                        let _ = event_tx.send(Event::Reject {
                            id: Some(id),
                            error: format!("parse: {e}"),
                        });
                        continue;
                    }
                };
                let job = TaskJob::Program {
                    program,
                    optimize: optimize.unwrap_or(shared.config.optimize),
                };
                let token = scheduler.child_token();
                // The window comes first: an id is only "in flight" (and
                // only duplicate-checked) once admitted, so a resubmission
                // waiting behind a full window is not a duplicate of the
                // landing job it waited for.
                if !state.window.acquire(&stop) {
                    let _ = event_tx.send(Event::Reject {
                        id: Some(id),
                        error: "service is shutting down".to_string(),
                    });
                    return;
                }
                {
                    let mut live = lock(&state.live);
                    if live.contains_key(&id) {
                        drop(live);
                        state.window.release();
                        let _ = event_tx.send(Event::Reject {
                            id: Some(id),
                            error: "duplicate in-flight id".to_string(),
                        });
                        continue;
                    }
                    // Registered before submission, so a cancel can never
                    // race a fast worker to the bookkeeping.
                    live.insert(id.clone(), token.clone());
                }
                let reply_tx = event_tx.clone();
                scheduler.submit(
                    TaskSpec {
                        id,
                        client: state.client,
                        job,
                        selection,
                        timeout,
                        trace,
                    },
                    token,
                    move |outcome| {
                        let _ = reply_tx.send(Event::Done(Box::new(outcome)));
                    },
                );
            }
        }
    }
}

/// Drains one client's event stream, writing one response line per event.
/// Returns the client's totals plus the first write error, if any. Keeps
/// draining after a write failure — every in-flight job must still land and
/// release its window slot and bookkeeping, answers or no answers.
///
/// `disconnect_cancels` selects the failed-write policy: a TCP connection
/// cancels only its own client's jobs (the daemon keeps serving everyone
/// else), while the stdio transport stops the whole service — there is
/// nobody left to serve when stdout is gone.
fn client_egress<W: Write>(
    mut output: W,
    event_rx: std::sync::mpsc::Receiver<Event>,
    shared: &ServeShared<'_>,
    state: &ClientState,
    disconnect_cancels: bool,
) -> (ServeSummary, Option<String>) {
    let mut summary = ServeSummary::default();
    let mut write_error: Option<String> = None;
    for event in event_rx {
        let (line, response_id) = match event {
            Event::Done(outcome) => {
                // All bookkeeping for this id is consumed *before* the
                // window slot is released: once release() runs, intake may
                // admit a new job reusing the id, and a leftover
                // `live`/`cancelled` entry would cross-wire the old job's
                // response with the new job's fate.
                lock(&state.live).remove(&outcome.id);
                let was_cancelled = lock(&state.cancelled).remove(&outcome.id);
                state.window.release();
                let id = outcome.id.clone();
                let line = if let Some(message) = &outcome.panic {
                    summary.errors += 1;
                    summary.panicked += 1;
                    Json::object([
                        ("id", Json::String(outcome.id.clone())),
                        ("status", Json::String("error".to_string())),
                        ("error", Json::String(format!("worker panic: {message}"))),
                        ("reason", Json::String("worker-panic".to_string())),
                    ])
                } else if was_cancelled {
                    summary.cancelled += 1;
                    Json::object([
                        ("id", Json::String(outcome.id.clone())),
                        ("status", Json::String("cancelled".to_string())),
                    ])
                } else {
                    summary.ok += 1;
                    ok_response(&outcome)
                };
                (line, Some(id))
            }
            Event::Reject { id, error } => {
                summary.errors += 1;
                (error_response(id.as_deref(), &error), id)
            }
            Event::Stats { id } => {
                summary.stats += 1;
                let line = stats_response(
                    id.as_deref(),
                    &shared.registry.snapshot(),
                    state.window.depth(),
                    shared.cache,
                );
                (line, id)
            }
            Event::ShutdownAck { id } => {
                summary.shutdowns += 1;
                let snapshot = shared.registry.snapshot();
                let draining = snapshot
                    .jobs_submitted
                    .saturating_sub(snapshot.jobs_completed);
                let mut fields = vec![
                    ("status", Json::String("shutdown".to_string())),
                    ("draining", Json::Number(draining as f64)),
                ];
                if let Some(id) = &id {
                    fields.insert(0, ("id", Json::String(id.clone())));
                }
                (Json::object(fields), id)
            }
        };
        if write_error.is_some() || state.is_gone() {
            continue;
        }
        // The `conn_drop` fault simulates the peer resetting the connection
        // exactly when this response goes out — deterministically, where a
        // real reset is a race against the kernel's buffers.
        let wrote = if crate::faults::armed()
            && response_id.as_deref().is_some_and(crate::faults::conn_drop)
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: conn_drop",
            ))
        } else {
            writeln!(output, "{line}").and_then(|()| output.flush())
        };
        if let Err(e) = wrote {
            let error = format!("write response: {e}");
            if disconnect_cancels {
                eprintln!(
                    "termite serve: client {}: {error}; cancelling its in-flight jobs",
                    state.client
                );
                state.gone.store(true, Ordering::SeqCst);
                state.cancel_live();
            } else {
                // The transport is gone and it was the only one: stop
                // everything in flight so intake and the workers wind down
                // instead of proving programs nobody will hear about.
                eprintln!("termite serve: {error}; stopping the service");
                shared.config.options.cancel.cancel();
            }
            write_error = Some(error);
        }
    }
    (summary, write_error)
}

/// Runs one client session: an intake half (its own thread) feeding the
/// scheduler, an egress half (this thread) streaming responses. Returns
/// when the client's input is exhausted — EOF, shutdown, disconnect — and
/// every job it submitted has landed.
pub(crate) fn run_client<W: Write>(
    source: &mut (dyn LineSource + Send),
    output: W,
    scheduler: &SchedulerHandle<'_>,
    shared: &ServeShared<'_>,
    state: &ClientState,
    disconnect_cancels: bool,
) -> (ServeSummary, Option<String>) {
    let (event_tx, event_rx) = std::sync::mpsc::channel::<Event>();
    std::thread::scope(|scope| {
        // The channel closes (ending egress) once intake returns *and* every
        // in-flight reply callback has fired: exactly the drain condition.
        let intake = scope.spawn(|| client_intake(source, scheduler, event_tx, shared, state));
        let result = client_egress(output, event_rx, shared, state, disconnect_cancels);
        intake.join().expect("intake must not panic");
        result
    })
}

/// Runs the NDJSON analysis service until `input` reaches end-of-file (or a
/// `{"shutdown": true}` verb drains it) and every accepted job has been
/// answered.
///
/// Requests are read line by line (one JSON document per line:
/// `{"id", "program", "engine"?, "timeout_ms"?}` or a control verb),
/// scheduled onto the worker pool with no batch barrier, and
/// answered the moment each job lands — out of order, tagged by `id`, one
/// response line per job, flushed per line so downstream pipes see every
/// verdict immediately. A `{"cancel": id}` control line cancels the matching
/// queued or running job; it produces no line of its own — the cancelled job
/// answers with `"status": "cancelled"` (a cancel matching no in-flight job
/// gets an error line). Intake blocks while
/// [`max_inflight`](ServeConfig::max_inflight) jobs are in flight, so an
/// overeager producer is throttled instead of ballooning the queue.
///
/// `{"shutdown": true}` stops intake, is acknowledged with a
/// `"status": "shutdown"` line, and the in-flight jobs drain under
/// [`drain_timeout`](ServeConfig::drain_timeout) — past the deadline the
/// stragglers are cancelled (answering `"status": "ok"` with a cancelled
/// verdict) rather than holding shutdown hostage.
///
/// A worker panicking inside an engine is caught at the scheduler's
/// isolation boundary: the job answers `{"status": "error", "reason":
/// "worker-panic"}` and the service keeps running.
///
/// Ids must be unique among in-flight jobs; a duplicate is rejected with an
/// error line (the id becomes reusable once its job answers).
///
/// Returns the session totals; `Err` only on a broken `output` (responses
/// cannot be delivered — the service is dead either way). For the
/// multi-client TCP front-end over the same machinery, see
/// [`serve_tcp`](crate::serve_tcp).
pub fn serve<R: BufRead + Send, W: Write>(
    input: R,
    output: W,
    config: &ServeConfig,
    cache: Option<&ResultCache>,
) -> Result<ServeSummary, String> {
    let shared = ServeShared::new(config, cache);
    let scheduler_config = shared.scheduler_config();
    let ticker_stop = (Mutex::new(false), Condvar::new());
    with_scheduler(&scheduler_config, cache, |scheduler| {
        std::thread::scope(|scope| {
            let shared_ref = &shared;
            let ticker_stop = &ticker_stop;
            scope.spawn(move || shared_ref.watchdog());
            if let Some(every) = config.stats_every {
                let registry = Arc::clone(shared_ref.registry());
                scope.spawn(move || ticker_loop(&registry, every, ticker_stop));
            }
            // Even when the session body panics, the watchdog and the
            // ticker must be released — `thread::scope` joins them before
            // propagating, and both park on condvars otherwise.
            struct EndGuard<'s, 'c> {
                shared: &'s ServeShared<'c>,
                ticker_stop: &'s (Mutex<bool>, Condvar),
            }
            impl Drop for EndGuard<'_, '_> {
                fn drop(&mut self) {
                    self.shared.finish();
                    *lock(&self.ticker_stop.0) = true;
                    self.ticker_stop.1.notify_all();
                }
            }
            let _end = EndGuard {
                shared: shared_ref,
                ticker_stop,
            };
            let state = ClientState::new(0, config.max_inflight);
            let mut source = BufReadSource(input);
            let (summary, write_error) =
                run_client(&mut source, output, scheduler, shared_ref, &state, false);
            match write_error {
                Some(error) => Err(error),
                None => Ok(summary),
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::mpsc;

    fn spec(id: &str, src: &str) -> TaskSpec {
        spec_for_client(id, 0, src)
    }

    fn spec_for_client(id: &str, client: u64, src: &str) -> TaskSpec {
        let program = parse_named_program(src, id).unwrap();
        TaskSpec {
            id: id.to_string(),
            client,
            job: TaskJob::Prepared(Box::new(AnalysisJob::from_program(
                &program,
                &InvariantOptions::default(),
            ))),
            selection: None,
            timeout: None,
            trace: false,
        }
    }

    #[test]
    fn stats_verb_synthesis_keys_are_the_counter_and_time_rows() {
        let registry =
            MetricsRegistry::with_counters(registered_stats().map(|(f, unit)| (f.name, unit)));
        let report = termite_core::prove_termination(
            &parse_named_program("var x; while (x > 0) { x = x - 1; }", "p").unwrap(),
            &AnalysisOptions::default(),
        );
        registry.job_finished(
            registered_stats().map(|(field, _)| (field.get)(&report.stats).number()),
            false,
            false,
        );
        let response = stats_response(None, &registry.snapshot(), 0, None);
        let Some(Json::Object(synthesis)) = response.get("synthesis") else {
            panic!("no synthesis object: {response}");
        };
        let keys: Vec<&str> = synthesis.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "counterexamples",
                "invariant_millis",
                "iterations",
                "lp_instances",
                "lp_millis",
                "lp_pivots",
                "lp_warm_hits",
                "refinements",
                "smt_lp_solves",
                "smt_millis",
                "smt_queries",
                "smt_warm_checks",
                "synthesis_millis",
            ],
            "the wire keys of the stats verb are part of the protocol"
        );
        assert_eq!(
            synthesis.get("iterations").and_then(Json::as_f64),
            Some(report.stats.iterations as f64)
        );
    }

    #[test]
    fn scheduler_streams_results_without_a_barrier() {
        let config = SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let received = with_scheduler(&config, None, |scheduler| {
            // The first result must be observable from inside the submitting
            // scope, before any "end of batch".
            for id in ["a", "b", "c"] {
                let tx = tx.clone();
                let token = scheduler.child_token();
                scheduler.submit(
                    spec(id, "var x; while (x > 0) { x = x - 1; }"),
                    token,
                    move |outcome| {
                        let _ = tx.send(outcome);
                    },
                );
            }
            let first = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a result streams back while the scope is still open");
            assert!(first.result.proved());
            let mut rest = vec![first.id];
            for _ in 0..2 {
                rest.push(rx.recv_timeout(Duration::from_secs(60)).unwrap().id);
            }
            rest.sort();
            rest
        });
        assert_eq!(received, ["a", "b", "c"]);
    }

    #[test]
    fn cancelling_a_queued_task_answers_without_running_it() {
        // One worker, pre-cancelled task: the dequeue check must answer with
        // zeroed stats instead of running the analysis.
        let (tx, rx) = mpsc::channel();
        with_scheduler(&SchedulerConfig::default(), None, |scheduler| {
            let token = scheduler.child_token();
            token.cancel();
            let tx = tx.clone();
            scheduler.submit(
                spec("doomed", "var x; while (x > 0) { x = x - 1; }"),
                token,
                move |outcome| {
                    let _ = tx.send(outcome);
                },
            );
            let outcome = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            assert!(!outcome.result.proved());
            assert_eq!(outcome.result.report.stats.iterations, 0);
        });
    }

    #[test]
    fn scheduler_scope_propagates_body_panics_instead_of_hanging() {
        // Regression: an unwinding body used to skip the shutdown flag, so
        // `thread::scope` joined condvar-parked workers forever.
        let result = std::panic::catch_unwind(|| {
            with_scheduler(&SchedulerConfig::default(), None, |_| {
                panic!("client bug");
            })
        });
        assert!(result.is_err(), "the body's panic must propagate");
    }

    #[test]
    fn semantically_invalid_requests_keep_their_id_in_the_error() {
        // Regression: a JSON-parseable request with a bad field used to lose
        // its id, leaving the client without a correlatable response.
        let requests = concat!(
            r#"{"id": "bad-program", "program": 42}"#,
            "\n",
            r#"{"id": "bad-engine", "program": "var x;", "engine": "nope"}"#,
            "\n",
            r#"{"id": "bad-timeout", "program": "var x;", "timeout_ms": -5}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.errors, 3);
        let text = String::from_utf8(out).unwrap();
        for id in ["bad-program", "bad-engine", "bad-timeout"] {
            let line = text
                .lines()
                .find(|l| Json::parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no id-tagged error for `{id}`: {text}"));
            assert_eq!(
                Json::parse(line)
                    .unwrap()
                    .get("status")
                    .and_then(Json::as_str),
                Some("error")
            );
        }
    }

    #[test]
    fn serve_answers_every_line_and_tags_errors() {
        let requests = concat!(
            r#"{"id": "good", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
            "this is not json\n",
            r#"{"id": "bad", "program": "var x; while ("}"#,
            "\n",
            r#"{"cancel": "never-submitted"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(
            summary,
            ServeSummary {
                ok: 1,
                cancelled: 0,
                errors: 3,
                stats: 0,
                panicked: 0,
                shutdowns: 0
            }
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().count(),
            4,
            "one response line per line: {text}"
        );
        let status_of = |id: &str| -> String {
            let line = text
                .lines()
                .find(|l| Json::parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response for `{id}`: {text}"));
            Json::parse(line)
                .unwrap()
                .get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(status_of("good"), "ok");
        assert_eq!(status_of("bad"), "error");
        assert_eq!(status_of("never-submitted"), "error");
    }

    #[test]
    fn serve_engine_and_timeout_overrides_are_honoured() {
        // A two-phase loop needs a 2-dimensional lexicographic ranking
        // function: the default (Termite) engine proves it, the
        // Podelski–Rybalchenko single-function baseline cannot — so the
        // per-request engine override must change the verdict.
        let two_phase = "var a, b; assume a >= 0 && b >= 0; \
             while (a > 0 || b > 0) { choice { assume a > 0; a = a - 1; b = nondet(); assume b >= 0; } \
             or { assume a <= 0 && b > 0; b = b - 1; } }";
        let requests = format!(
            "{}\n{}\n",
            Json::object([
                ("id", Json::String("default".into())),
                ("program", Json::String(two_phase.into())),
            ]),
            Json::object([
                ("id", Json::String("pr".into())),
                ("program", Json::String(two_phase.into())),
                ("engine", Json::String("pr".into())),
            ]),
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.ok, 2);
        let text = String::from_utf8(out).unwrap();
        let verdict_of = |id: &str| -> String {
            let line = text
                .lines()
                .find(|l| Json::parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
                .unwrap();
            Json::parse(line)
                .unwrap()
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(verdict_of("default"), "terminates");
        assert_eq!(verdict_of("pr"), "unknown");
    }

    #[test]
    fn serve_rejects_duplicate_inflight_ids_but_allows_reuse_after_landing() {
        // Sequential requests on one worker with max_inflight 1: the first
        // "twice" lands before the second arrives, so the id is reusable; a
        // genuinely concurrent duplicate is exercised via a pre-cancelled
        // scheduler (both land as cancelled, second line rejected).
        let requests = concat!(
            r#"{"id": "twice", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
            r#"{"id": "twice", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let summary = serve(Cursor::new(requests), &mut out, &config, None).unwrap();
        assert_eq!(summary.ok, 2, "the id is reusable once the first job lands");
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn serve_uses_the_cache_for_duplicate_programs() {
        let requests = concat!(
            r#"{"id": "first", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
            r#"{"id": "second", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
        );
        let cache = ResultCache::new();
        let mut out = Vec::new();
        // One worker and a window of one: "second" is only submitted after
        // "first" landed (and stored), so the hit is deterministic.
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let summary = serve(Cursor::new(requests), &mut out, &config, Some(&cache)).unwrap();
        assert_eq!(summary.ok, 2);
        assert_eq!(cache.stats().hits, 1);
        let text = String::from_utf8(out).unwrap();
        let second = text
            .lines()
            .find(|l| l.contains(r#""id":"second""#))
            .unwrap();
        let doc = Json::parse(second).unwrap();
        assert_eq!(doc.get("from_cache").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("report")
                .and_then(|r| r.get("program"))
                .and_then(Json::as_str),
            Some("second"),
            "a cache hit must be re-labelled with the requesting id"
        );
    }

    #[test]
    fn serve_prepares_jobs_on_the_worker_that_runs_them() {
        // Preparation (IR optimization) runs inside the task,
        // not on the client's intake thread: the job's own trace holds its
        // `ir_opt` span, on the thread of its `job` span.
        let requests = concat!(
            r#"{"id": "t", "program": "var x; while (x > 0) { x = x - 1; }", "trace": true}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.ok, 1);
        let doc = Json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        let events = doc
            .get("trace")
            .and_then(|t| t.get("traceEvents"))
            .and_then(Json::as_array)
            .expect("a traced job carries its events");
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("tid").and_then(Json::as_f64))
                .unwrap_or_else(|| panic!("no `{name}` span in {doc}"))
        };
        assert_eq!(tid_of("ir_opt"), tid_of("job"));
    }

    #[test]
    fn a_cache_hit_does_no_invariant_work() {
        // The cache key is built from the job's inputs: the miss builds the
        // invariant snapshot once, the hit answers without building any.
        let line = |id: &str| {
            format!(
                r#"{{"id": "{id}", "program": "var x, y; while (x > 0) {{ x = x + y; }}", "trace": true}}"#
            )
        };
        let requests = format!("{}\n{}\n", line("miss"), line("hit"));
        let cache = ResultCache::new();
        let mut out = Vec::new();
        // A window of one: "hit" is only submitted after "miss" stored.
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let summary = serve(Cursor::new(requests), &mut out, &config, Some(&cache)).unwrap();
        assert_eq!(summary.ok, 2);
        let text = String::from_utf8(out).unwrap();
        let response = |id: &str| {
            let tag = format!(r#""id":"{id}""#);
            Json::parse(text.lines().find(|l| l.contains(&tag)).unwrap()).unwrap()
        };
        let invariant_inits = |doc: &Json| {
            doc.get("trace")
                .and_then(|t| t.get("traceEvents"))
                .and_then(Json::as_array)
                .expect("a traced job carries its events")
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some("invariant_init"))
                .count()
        };
        let (miss, hit) = (response("miss"), response("hit"));
        assert_eq!(invariant_inits(&miss), 1);
        assert_eq!(invariant_inits(&hit), 0);
        assert_eq!(miss.get("from_cache").and_then(Json::as_bool), Some(false));
        assert_eq!(hit.get("from_cache").and_then(Json::as_bool), Some(true));
        assert_eq!(miss.get("verdict"), hit.get("verdict"));
        assert_eq!(
            hit.get("verdict").and_then(Json::as_str),
            Some("conditional")
        );
    }

    #[test]
    fn fair_dequeue_interleaves_clients_round_robin() {
        // One worker; client 1's first task stalls while its other two plus
        // client 2's single task queue up. A plain FIFO would answer
        // t1,t2,t3,u1 — fair dequeue must serve client 2 after the stall.
        let _faults = crate::faults::arm("slow_job=fair-t1:400").unwrap();
        let (tx, rx) = mpsc::channel();
        let order = with_scheduler(&SchedulerConfig::default(), None, |scheduler| {
            for (id, client) in [
                ("fair-t1", 1),
                ("fair-t2", 1),
                ("fair-t3", 1),
                ("fair-u1", 2),
            ] {
                let tx = tx.clone();
                let token = scheduler.child_token();
                scheduler.submit(
                    spec_for_client(id, client, "var x; while (x > 0) { x = x - 1; }"),
                    token,
                    move |outcome| {
                        let _ = tx.send(outcome.id);
                    },
                );
            }
            (0..4)
                .map(|_| rx.recv_timeout(Duration::from_secs(60)).unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(order, ["fair-t1", "fair-u1", "fair-t2", "fair-t3"]);
    }

    #[test]
    fn a_panicking_worker_answers_the_job_and_survives() {
        let _faults = crate::faults::arm("worker_panic=isolate-boom").unwrap();
        let (tx, rx) = mpsc::channel();
        // One worker: the follow-up job proves the panicking worker returned
        // to the pool rather than dying with its job.
        with_scheduler(&SchedulerConfig::default(), None, |scheduler| {
            for id in ["isolate-boom", "isolate-after"] {
                let tx = tx.clone();
                let token = scheduler.child_token();
                scheduler.submit(
                    spec(id, "var x; while (x > 0) { x = x - 1; }"),
                    token,
                    move |outcome| {
                        let _ = tx.send(outcome);
                    },
                );
            }
            let boomed = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(boomed.id, "isolate-boom");
            assert!(boomed.panic.as_deref().unwrap().contains("worker_panic"));
            assert_eq!(
                boomed.result.report.verdict,
                Verdict::unknown(UnknownReason::EngineFailure)
            );
            let after = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(after.id, "isolate-after");
            assert!(after.panic.is_none());
            assert!(after.result.proved(), "the worker survived the panic");
        });
    }

    #[test]
    fn shutdown_verb_acknowledges_and_stops_intake() {
        // The third line is valid but must never be read: the shutdown verb
        // ends intake, and the session answers what was already in flight.
        let requests = concat!(
            r#"{"id": "pre-shutdown", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
            r#"{"id": "verb", "shutdown": true}"#,
            "\n",
            r#"{"id": "post-shutdown", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.shutdowns, 1);
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(
            !text.contains("post-shutdown"),
            "no line after the shutdown verb may be answered: {text}"
        );
        let ack = text
            .lines()
            .find(|l| l.contains(r#""status":"shutdown""#))
            .unwrap_or_else(|| panic!("no shutdown acknowledgement: {text}"));
        let doc = Json::parse(ack).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("verb"));
        assert!(doc.get("draining").is_some());
    }

    #[test]
    fn intake_survives_invalid_utf8_lines() {
        // `BufRead::lines()` would kill intake on the first invalid UTF-8
        // byte; the lossy line source must answer it as a parse error and
        // keep serving.
        let mut requests = Vec::new();
        requests.extend_from_slice(b"\xff\xfe garbage bytes \x80\n");
        requests.extend_from_slice(
            br#"{"id": "after-garbage", "program": "var x; while (x > 0) { x = x - 1; }"}"#,
        );
        requests.push(b'\n');
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(r#""id":"after-garbage""#));
        assert!(text.contains(r#""verdict":"terminates""#));
    }

    #[test]
    fn job_optimize_field_bypasses_the_pre_optimizer() {
        // The same padded program three ways: session default (optimize on),
        // explicit `"optimize": false`, and explicit `"optimize": true`. The
        // raw job must reach the engines with every padding variable intact
        // (no ir_* shrink recorded), and all three must agree on the verdict.
        let padded = "var x, d0, d1; assume x >= 0; \
                      while (x > 0) { x = x - 1; d0 = x + 1; d1 = d0 + d0; }";
        let requests = format!(
            "{}\n{}\n{}\n",
            format_args!(r#"{{"id": "default", "program": "{padded}"}}"#),
            format_args!(r#"{{"id": "raw", "program": "{padded}", "optimize": false}}"#),
            format_args!(r#"{{"id": "opt", "program": "{padded}", "optimize": true}}"#),
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(requests),
            &mut out,
            &ServeConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(summary.ok, 3);
        let text = String::from_utf8(out).unwrap();
        let stats_of = |id: &str| {
            let line = text
                .lines()
                .find(|l| Json::parse(l).unwrap().get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response for `{id}`: {text}"));
            let doc = Json::parse(line).unwrap();
            assert_eq!(
                doc.get("verdict").and_then(Json::as_str),
                Some("terminates")
            );
            let stats = doc.get("report").and_then(|r| r.get("stats")).unwrap();
            let field = |name: &str| stats.get(name).and_then(Json::as_usize).unwrap();
            (field("ir_vars_before"), field("ir_vars_after"))
        };
        assert_eq!(stats_of("default"), (3, 1), "session default optimizes");
        assert_eq!(stats_of("opt"), (3, 1));
        assert_eq!(stats_of("raw"), (0, 0), "optimize:false must not shrink");
    }
}
