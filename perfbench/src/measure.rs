//! Set-up, the job paths, and the timed (untraced) runs that give the
//! end-to-end metrics.

use crate::session;
use crate::stats::{median, millis_since, peak_rss_mb, process_cpu_seconds, tail, Rng};
use crate::workloads::{check, paper_inputs, suite_inputs, Check, Input, ServePool, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use termite_driver::{
    run_batch, AnalysisJob, BatchConfig, BatchResult, EngineSelection, ResultCache,
};
use termite_invariants::InvariantOptions;
use termite_ir::parse_named_program;
use termite_obs::{span, Recorder};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Per-job analysis budget of the batch workloads; a job that hits it
/// answers `unknown` and fails its known-answer check.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// Salt separating the pass-order stream from the input stream of a seed.
const ORDER_SALT: u64 = 0x006f_7264_6572;

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Known-answer bookkeeping of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Proofs claimed for programs known not to be provable, and any other
    /// broken check: each one makes the whole run incorrect.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, input: &Input, verdict: &str) {
        self.attempted += 1;
        match check(input.expect, verdict) {
            Check::Ok => {}
            Check::Below => self.failed += 1,
            Check::Unsound => {
                self.failed += 1;
                self.errors
                    .push(format!("unsound verdict `{verdict}` for `{}`", input.name));
            }
        }
    }

    /// Checks a verdict reached outside the measured jobs (set-up,
    /// warm-up): only unsoundness matters there.
    pub fn screen(&mut self, input: &Input, verdict: &str) {
        if check(input.expect, verdict) == Check::Unsound {
            self.errors.push(format!(
                "unsound verdict `{verdict}` for `{}` in set-up",
                input.name
            ));
        }
    }
}

/// What one run prints.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

pub fn verdict_of(result: &Option<BatchResult>) -> &'static str {
    match result {
        Some(r) => termite_driver::verdict_name(&r.report.verdict),
        None => "error",
    }
}

pub fn batch_config(selection: EngineSelection, recorder: Option<Arc<Recorder>>) -> BatchConfig {
    BatchConfig {
        workers: 1,
        selection,
        job_timeout: Some(JOB_TIMEOUT),
        recorder,
        ..BatchConfig::default()
    }
}

/// One batch job from program text to verdict: parse, prepare (IR
/// optimization and invariants included, as `termite suite` does), and
/// `run_batch`. Returns the wall time in milliseconds and the result
/// (`None` when the text does not parse). The spans are inert unless a
/// trace recorder is installed on this thread.
pub fn run_job(input: &Input, config: &BatchConfig) -> (f64, Option<BatchResult>) {
    let start = Instant::now();
    let result = {
        let _job = span!("bench.job");
        let parsed = {
            let _parse = span!("ir.parse");
            parse_named_program(&input.text, &input.name)
        };
        parsed.ok().and_then(|program| {
            let job = {
                let _prepare = span!("job.prepare");
                AnalysisJob::from_program_with(&program, &InvariantOptions::default(), true)
            };
            let _batch = span!("bench.batch");
            run_batch(vec![job], config, None).pop()
        })
    };
    (millis_since(start), result)
}

/// The batch workloads' set-up: generate and print the inputs (each
/// checked to parse back), parse and prepare every one of them once, then
/// warm up on the two shortest texts, whose cost does not depend on the
/// seed.
pub fn setup_batch(
    workload: Workload,
    seed: u64,
    tally: &mut Tally,
) -> Result<(Vec<Input>, f64), String> {
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let inputs = match workload {
        Workload::SuitePortfolio => suite_inputs(&mut rng)?,
        Workload::PaperTermite => paper_inputs(&mut rng)?,
        Workload::ServeCached => unreachable!("serve-cached has its own set-up"),
    };
    for input in &inputs {
        let program = parse_named_program(&input.text, &input.name)
            .map_err(|e| format!("{}: {e}", input.name))?;
        AnalysisJob::from_program_with(&program, &InvariantOptions::default(), true);
    }
    let mut shortest: Vec<&Input> = inputs.iter().collect();
    shortest.sort_by_key(|i| (i.text.len(), i.name.clone()));
    let config = batch_config(workload.selection(), None);
    for input in shortest.into_iter().take(2) {
        let (_, result) = run_job(input, &config);
        tally.screen(input, verdict_of(&result));
    }
    Ok((inputs, start.elapsed().as_secs_f64()))
}

/// Inputs of one pass: every input once, in a fresh seeded order.
pub fn pass_order(inputs: &[Input], rng: &mut Rng) -> Vec<Input> {
    let mut order = inputs.to_vec();
    rng.shuffle(&mut order);
    order
}

pub fn order_rng(seed: u64) -> Rng {
    Rng::new(seed ^ ORDER_SALT)
}

/// A scratch directory for cache files, inside the build directory of the
/// running binary (and so inside the checkout).
pub fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}

/// The pre-filled, saved and reloaded cache of `serve-cached`.
pub struct ServeSetup {
    pub pool: ServePool,
    pub cache: ResultCache,
    pub save_ms: f64,
    pub load_ms: f64,
}

/// `serve-cached`'s set-up: generate the pool, analyse its pre-filled part
/// into a `ResultCache`, save it to disk and load it back, and warm the
/// service up with a few hits. Returns the set-up and its time in seconds.
pub fn setup_serve(seed: u64, tally: &mut Tally) -> Result<(ServeSetup, f64), String> {
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let pool = ServePool::new(&mut rng)?;
    let selection = Workload::ServeCached.selection();
    let jobs = pool
        .warm
        .iter()
        .map(|input| {
            parse_named_program(&input.text, &input.name)
                .map(|p| AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true))
                .map_err(|e| format!("{}: {e}", input.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let filled = ResultCache::new();
    let config = BatchConfig {
        workers: session::MAX_IN_FLIGHT,
        ..batch_config(selection.clone(), None)
    };
    for (input, result) in pool
        .warm
        .iter()
        .zip(run_batch(jobs, &config, Some(&filled)))
    {
        tally.screen(input, termite_driver::verdict_name(&result.report.verdict));
    }

    let dir = scratch_dir()?;
    let path = dir.join("cache.json");
    let saved = Instant::now();
    filled.save(&path)?;
    let save_ms = millis_since(saved);
    let loaded = Instant::now();
    let cache = ResultCache::load(&path)?;
    let load_ms = millis_since(loaded);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    if cache.len() != pool.warm.len() {
        return Err(format!(
            "reloaded cache holds {} entries, expected {}",
            cache.len(),
            pool.warm.len()
        ));
    }

    let mut warmup = pool.warm.iter().take(4).cloned();
    session::run(
        &selection,
        Some(&cache),
        false,
        || Ok(warmup.next()),
        |response| {
            tally.screen(&response.input, response.verdict());
            Ok(())
        },
    )?;
    let setup = ServeSetup {
        pool,
        cache,
        save_ms,
        load_ms,
    };
    Ok((setup, start.elapsed().as_secs_f64()))
}

/// Runs the set-up [`SETUP_REPEATS`] times; returns the last set-up and the
/// median time.
pub fn repeated<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (value, secs) = setup()?;
        times.push(secs);
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Length of a `serve-cached` measurement window.
const SERVE_WINDOW: Duration = Duration::from_secs(2);

/// The timed phase, cut into windows: a pass over the inputs for the batch
/// workloads, [`SERVE_WINDOW`] for `serve-cached`. A shared machine's speed
/// drifts over seconds, so throughput, CPU per job and the median are taken
/// per window and reported as their median over windows; the tail pools
/// every sample of the run.
struct Windows {
    began: Instant,
    cpu_began: f64,
    current: Vec<f64>,
    all: Vec<f64>,
    medians: Vec<f64>,
    rates: Vec<f64>,
    cpu_per_job: Vec<f64>,
}

impl Windows {
    fn start() -> Result<Windows, String> {
        Ok(Windows {
            began: Instant::now(),
            cpu_began: process_cpu_seconds()?,
            current: Vec::new(),
            all: Vec::new(),
            medians: Vec::new(),
            rates: Vec::new(),
            cpu_per_job: Vec::new(),
        })
    }

    fn push(&mut self, ms: f64) {
        self.current.push(ms);
        self.all.push(ms);
    }

    /// Ends the current window (a no-op when it holds no job).
    fn close(&mut self) -> Result<(), String> {
        if self.current.is_empty() {
            return Ok(());
        }
        let cpu = process_cpu_seconds()?;
        let jobs = self.current.len() as f64;
        self.medians.push(median(&self.current));
        self.rates.push(jobs / self.began.elapsed().as_secs_f64());
        self.cpu_per_job
            .push((cpu - self.cpu_began) * 1000.0 / jobs);
        self.current.clear();
        self.began = Instant::now();
        self.cpu_began = cpu;
        Ok(())
    }

    fn end_to_end(self, setup_s: f64, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
        let n = self.all.len();
        let t = tail(&self.all).ok_or_else(|| {
            format!("only {n} jobs in the timed phase; the tail needs more than ten")
        })?;
        notes.push(format!(
            "job_ms.tail is the p{:.2} latency of {} jobs ({} beyond it); \
             p50, jobs_per_s and cpu_ms_per_job are medians over {} windows",
            t.percentile,
            t.samples,
            crate::stats::TAIL_BEYOND,
            self.medians.len()
        ));
        Ok(vec![
            metric("job_ms.p50", median(&self.medians), "ms"),
            metric("job_ms.tail", t.value, "ms"),
            metric("jobs_per_s", median(&self.rates), "1/s"),
            metric("cpu_ms_per_job", median(&self.cpu_per_job), "ms"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("setup_s", setup_s, "s"),
        ])
    }
}

/// A timed batch workload: whole passes over the inputs until `seconds`
/// have passed.
pub fn timed_batch(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (inputs, setup_s) = repeated(|| setup_batch(workload, seed, &mut tally))?;
    let config = batch_config(workload.selection(), None);
    let mut rng = order_rng(seed);
    let start = Instant::now();
    let mut windows = Windows::start()?;
    while windows.all.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for input in pass_order(&inputs, &mut rng) {
            let (ms, result) = run_job(&input, &config);
            windows.push(ms);
            tally.record(&input, verdict_of(&result));
        }
        windows.close()?;
    }
    let mut notes = Vec::new();
    let metrics = windows.end_to_end(setup_s, &mut notes)?;
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}

/// The timed `serve-cached` workload: one closed-loop client until
/// `seconds` have passed.
pub fn timed_serve(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (setup, setup_s) = repeated(|| setup_serve(seed, &mut tally))?;
    let mut rng = order_rng(seed);
    let before = setup.cache.stats();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut windows = Windows::start()?;
    session::run(
        &Workload::ServeCached.selection(),
        Some(&setup.cache),
        false,
        || {
            if Instant::now() < deadline {
                setup.pool.draw(&mut rng).map(Some)
            } else {
                Ok(None)
            }
        },
        |response| {
            windows.push(response.latency_ms);
            tally.record(&response.input, response.verdict());
            if windows.began.elapsed() >= SERVE_WINDOW {
                windows.close()?;
            }
            Ok(())
        },
    )?;
    // The last, partial window drains the client: it counts only when it is
    // the only one.
    if windows.medians.is_empty() {
        windows.close()?;
    }
    let after = setup.cache.stats();
    let mut notes = vec![format!(
        "cache: {} hits, {} misses, {} stores during the timed phase",
        after.hits - before.hits,
        after.misses - before.misses,
        after.stores - before.stores
    )];
    let metrics = windows.end_to_end(setup_s, &mut notes)?;
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}
