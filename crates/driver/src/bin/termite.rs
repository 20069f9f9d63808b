//! The `termite` command-line interface.
//!
//! ```text
//! termite analyze <file> [--engine E | --portfolio] [--timeout-ms N] [--cache FILE]
//!                        [--trace FILE]
//! termite serve [--engine E | --portfolio] [--jobs N] [--cache FILE]
//!               [--max-inflight K] [--timeout-ms N] [--stats-every N]
//!               [--listen ADDR:PORT] [--drain-ms N]
//! termite suite <name|all> [--engine E | --portfolio] [--jobs N] [--shard k/n]
//!                          [--json FILE] [--cache FILE] [--timeout-ms N] [--trace FILE]
//! termite merge-reports <out.json> <in1.json> <in2.json> [...]
//! termite bench-diff <old.json> <new.json> [--max-ratio R] [--min-millis M]
//! termite check-verdicts <expected.json> <actual.json>
//! termite table1
//! ```
//!
//! `analyze` proves one program of the mini-language; `serve` runs the
//! long-lived NDJSON analysis service on stdin/stdout — or, with
//! `--listen addr:port`, as a fault-tolerant multi-tenant TCP daemon that
//! drains gracefully on SIGTERM or the `{"shutdown": true}` verb (see
//! `termite_driver::serve` for the wire protocol: jobs in, per-job verdicts
//! streamed back out of order the moment each lands, `{"cancel": id}`
//! control messages, bounded in-flight window); `suite` batch-analyses
//! a benchmark suite over the worker pool (optionally racing the engine
//! portfolio per benchmark, optionally against a persistent result cache,
//! optionally taking only every `n`-th benchmark by cache-key hash so a
//! fleet of invocations can split a suite); `merge-reports` unions the
//! `--json` reports of such shards back into one; `bench-diff` compares two
//! `suite --json` reports (`BENCH_<seq>.json` trend files) and fails on
//! verdict *regressions* (a proof becoming weaker on the
//! `terminates ⊒ conditional ⊒ unknown` lattice) or per-benchmark time
//! regressions — improvements are reported as notes; `check-verdicts` diffs
//! a run against a committed expectation file (the CI suite-score gate);
//! `table1` reproduces the paper's Table 1 report.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use termite_bench::{format_table, prepare_suite, run_suite};
use termite_core::{
    AnalysisOptions, CancelToken, Engine, StatKind, StatLine, StatValue, STAT_FIELDS,
};
use termite_driver::json::Json;
use termite_driver::{
    cache_key, install_sigterm_handler, parse_selection, report_from_json, report_to_json,
    run_batch, serve, serve_tcp, stat_entries, stat_rows_from_json, verdict_name, verdict_rank,
    AnalysisJob, BatchConfig, BatchResult, BatchTotals, EngineSelection, ResultCache, ServeConfig,
    ENGINE_NAMES,
};
use termite_invariants::InvariantOptions;
use termite_ir::parse_named_program;
use termite_suite::SuiteId;

const USAGE: &str = "usage:
  termite analyze <file> [--engine E | --portfolio] [--timeout-ms N] [--cache FILE]
                         [--cache-max-bytes N] [--trace FILE] [--no-optimize]
  termite serve [--engine E | --portfolio] [--jobs N] [--cache FILE]
                [--cache-max-bytes N] [--max-inflight K] [--timeout-ms N]
                [--stats-every N] [--listen ADDR:PORT] [--drain-ms N] [--no-optimize]
  termite suite <polybench|sorts|termcomp|wtc|bloated|multiphase|lasso|piecewise|all>
                [--engine E | --portfolio] [--jobs N] [--shard k/n] [--json FILE]
                [--cache FILE] [--cache-max-bytes N] [--timeout-ms N] [--trace FILE]
                [--no-optimize]
  termite merge-reports <out.json> <in1.json> <in2.json> [...]
  termite bench-diff <old.json> <new.json> [--max-ratio R] [--min-millis M]
  termite check-verdicts <expected.json> <actual.json>
  termite table1

engines: termite (default), eager, pr, heuristic, lasso, complete-lrf, piecewise
--portfolio races every engine (complete-lrf and lasso first) and keeps the
strongest verdict; the report's `engine_won` names the engine that produced it
--no-optimize analyses programs as written, skipping the IR shrinking pipeline
(constant propagation, dead-variable elimination) that runs by default";

fn main() -> ExitCode {
    // `TERMITE_FAULTS` arms deterministic failure points (worker panics,
    // stalls, torn cache writes, dropped connections) for chaos testing;
    // unset, this is a no-op and the fault checks stay on their fast path.
    if let Err(message) = termite_driver::faults::arm_from_env() {
        eprintln!("termite: TERMITE_FAULTS: {message}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("termite: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line flags shared by `analyze` and `suite`.
struct Flags {
    selection: EngineSelection,
    jobs: usize,
    json_path: Option<PathBuf>,
    cache_path: Option<PathBuf>,
    timeout: Option<Duration>,
    /// `--shard k/n` (1-based `k`): keep only the benchmarks whose
    /// cache-key hash lands in shard `k` of `n`.
    shard: Option<(u64, u64)>,
    /// `--max-inflight K` (serve only): bound on concurrently in-flight
    /// jobs before intake blocks.
    max_inflight: Option<usize>,
    /// `--trace FILE` (analyze/suite): record a Chrome-trace of the whole
    /// run and write it to FILE on completion.
    trace_path: Option<PathBuf>,
    /// `--stats-every N` (serve only): print a metrics summary line to
    /// stderr every N seconds.
    stats_every: Option<Duration>,
    /// `--listen ADDR:PORT` (serve only): accept NDJSON sessions over TCP
    /// instead of stdin/stdout, multiplexing any number of clients onto one
    /// scheduler.
    listen: Option<String>,
    /// `--drain-ms N` (serve only): how long a graceful shutdown waits for
    /// in-flight jobs before cancelling the stragglers.
    drain_ms: Option<u64>,
    /// `--no-optimize`: skip the IR pre-optimization pipeline and analyse
    /// programs as written (the pipeline is on by default).
    no_optimize: bool,
    /// `--cache-max-bytes N`: LRU-evict cache entries whenever the cache's
    /// serialized size exceeds N bytes.
    cache_max_bytes: Option<usize>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        selection: EngineSelection::single(Engine::Termite),
        jobs: 1,
        json_path: None,
        cache_path: None,
        timeout: None,
        shard: None,
        max_inflight: None,
        trace_path: None,
        stats_every: None,
        listen: None,
        drain_ms: None,
        no_optimize: false,
        cache_max_bytes: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            // One name table for the CLI and the NDJSON wire: `--engine
            // portfolio` is accepted as a synonym of `--portfolio`.
            "--engine" => flags.selection = parse_selection(&value("--engine")?)?,
            "--portfolio" => flags.selection = EngineSelection::full_portfolio(),
            "--jobs" => {
                flags.jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--jobs needs a positive integer")?
            }
            "--json" => flags.json_path = Some(PathBuf::from(value("--json")?)),
            "--shard" => {
                let spec = value("--shard")?;
                let (k, n) = spec
                    .split_once('/')
                    .ok_or("--shard needs the form k/n (e.g. 1/4)")?;
                let k = k
                    .parse::<u64>()
                    .map_err(|_| "--shard k must be an integer")?;
                let n = n
                    .parse::<u64>()
                    .map_err(|_| "--shard n must be an integer")?;
                if n == 0 || k == 0 || k > n {
                    return Err(format!("--shard {spec}: need 1 <= k <= n"));
                }
                flags.shard = Some((k, n));
            }
            "--cache" => flags.cache_path = Some(PathBuf::from(value("--cache")?)),
            "--cache-max-bytes" => {
                flags.cache_max_bytes = Some(
                    value("--cache-max-bytes")?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--cache-max-bytes needs a positive integer")?,
                )
            }
            "--no-optimize" => flags.no_optimize = true,
            "--max-inflight" => {
                flags.max_inflight = Some(
                    value("--max-inflight")?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--max-inflight needs a positive integer")?,
                )
            }
            "--timeout-ms" => {
                let ms = value("--timeout-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--timeout-ms needs an integer")?;
                flags.timeout = Some(Duration::from_millis(ms));
            }
            "--trace" => flags.trace_path = Some(PathBuf::from(value("--trace")?)),
            "--listen" => flags.listen = Some(value("--listen")?),
            "--drain-ms" => {
                let ms = value("--drain-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--drain-ms needs an integer (milliseconds)")?;
                flags.drain_ms = Some(ms);
            }
            "--stats-every" => {
                let secs = value("--stats-every")?
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--stats-every needs a positive integer (seconds)")?;
                flags.stats_every = Some(Duration::from_secs(secs));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let file = args.get(1).ok_or("analyze needs a file argument")?;
            let flags = parse_flags(&args[2..])?;
            if flags.json_path.is_some() {
                return Err("analyze does not support --json (use `suite --json`)".to_string());
            }
            if flags.jobs != 1 {
                return Err("analyze does not support --jobs (it runs one program)".to_string());
            }
            if flags.shard.is_some() {
                return Err("analyze does not support --shard (it runs one program)".to_string());
            }
            if flags.max_inflight.is_some() {
                return Err("analyze does not support --max-inflight (serve only)".to_string());
            }
            if flags.stats_every.is_some() {
                return Err("analyze does not support --stats-every (serve only)".to_string());
            }
            if flags.listen.is_some() {
                return Err("analyze does not support --listen (serve only)".to_string());
            }
            if flags.drain_ms.is_some() {
                return Err("analyze does not support --drain-ms (serve only)".to_string());
            }
            analyze(file, flags)
        }
        Some("serve") => {
            let flags = parse_flags(&args[1..])?;
            if flags.json_path.is_some() {
                return Err("serve does not support --json (responses are NDJSON)".to_string());
            }
            if flags.shard.is_some() {
                return Err("serve does not support --shard".to_string());
            }
            if flags.trace_path.is_some() {
                return Err(
                    "serve does not support --trace (request per-job traces with \
                     `\"trace\": true`)"
                        .to_string(),
                );
            }
            serve_command(flags)
        }
        Some("suite") => {
            let name = args.get(1).ok_or("suite needs a suite name")?;
            let flags = parse_flags(&args[2..])?;
            if flags.max_inflight.is_some() {
                return Err("suite does not support --max-inflight (serve only)".to_string());
            }
            if flags.stats_every.is_some() {
                return Err("suite does not support --stats-every (serve only)".to_string());
            }
            if flags.listen.is_some() {
                return Err("suite does not support --listen (serve only)".to_string());
            }
            if flags.drain_ms.is_some() {
                return Err("suite does not support --drain-ms (serve only)".to_string());
            }
            suite_command(name, flags)
        }
        Some("merge-reports") => merge_reports(&args[1..]),
        Some("bench-diff") => bench_diff(&args[1..]),
        Some("check-verdicts") => check_verdicts(&args[1..]),
        Some("table1") => {
            if let Some(flag) = args.get(1) {
                return Err(format!("table1 takes no flags (got `{flag}`)"));
            }
            table1();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    }
}

fn analyze(file: &str, flags: Flags) -> Result<ExitCode, String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let name = PathBuf::from(file)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| file.to_string());
    let program = parse_named_program(&source, &name).map_err(|e| format!("parse {file}: {e}"))?;
    let job =
        AnalysisJob::from_program_with(&program, &InvariantOptions::default(), !flags.no_optimize);

    let results = run_jobs(vec![job], &flags)?;
    let result = &results[0];
    print!("{}", result.report);
    if let Some(engine) = result.winner {
        println!("proved by: {engine:?}");
    }
    if result.from_cache {
        println!("(served from cache)");
    }
    Ok(if result.proved() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The long-lived NDJSON analysis service: on stdin/stdout it reads job
/// requests line by line, streams one response line per job the moment it
/// lands (out of order, tagged by id), and exits once stdin closes and every
/// accepted job has answered; with `--listen` it serves the same protocol to
/// any number of concurrent TCP clients until a graceful shutdown (SIGTERM
/// or the `{"shutdown": true}` verb). On shutdown the cache (when given) is
/// persisted and a one-line stats summary goes to stderr.
fn serve_command(flags: Flags) -> Result<ExitCode, String> {
    // A daemon must come up even if a crash left the cache file torn:
    // quarantine-and-warn, never die on load.
    let cache = flags
        .cache_path
        .as_deref()
        .map(|p| ResultCache::load_or_quarantine(p).with_max_bytes(flags.cache_max_bytes));
    // The one authoritative defaults live in `ServeConfig::default()`.
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: flags.jobs,
        selection: flags.selection.clone(),
        options: AnalysisOptions::default().with_cancel(CancelToken::new()),
        job_timeout: flags.timeout,
        max_inflight: flags.max_inflight.unwrap_or(defaults.max_inflight),
        stats_every: flags.stats_every,
        drain_timeout: flags
            .drain_ms
            .map(Duration::from_millis)
            .unwrap_or(defaults.drain_timeout),
        // SIGTERM only drives the TCP daemon: a stdin session ends when its
        // pipe closes, and std retries interrupted stdin reads, so a handler
        // would only stop plain `kill` from working there.
        shutdown_flag: flags.listen.as_ref().map(|_| install_sigterm_handler()),
        optimize: !flags.no_optimize,
    };
    let outcome = match &flags.listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr.as_str())
                .map_err(|e| format!("listen on {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            eprintln!(
                "termite serve: {} worker(s), window {} per client, listening on {local} ...",
                config.workers, config.max_inflight
            );
            serve_tcp(listener, &config, cache.as_ref())
        }
        None => {
            eprintln!(
                "termite serve: {} worker(s), window {}, reading NDJSON jobs from stdin ...",
                config.workers, config.max_inflight
            );
            // `StdinLock` holds a `MutexGuard` and cannot move to the intake
            // thread; the unlocked handle re-locks per read, which is fine at
            // line granularity.
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            serve(stdin, stdout.lock(), &config, cache.as_ref())
        }
    };
    // Persist the cache even when the session died on a broken output pipe:
    // the results were computed either way, and losing them would make the
    // most common failure mode (the consumer going away) also the most
    // expensive one.
    if let (Some(cache), Some(path)) = (&cache, &flags.cache_path) {
        let bytes = cache.save(path)?;
        eprintln!("cache: {}", cache.summary(bytes));
    }
    let summary = outcome?;
    eprintln!(
        "termite serve: {} ok, {} cancelled, {} errors ({} worker panics), {} stats, {} shutdowns",
        summary.ok,
        summary.cancelled,
        summary.errors,
        summary.panicked,
        summary.stats,
        summary.shutdowns
    );
    Ok(ExitCode::SUCCESS)
}

fn parse_suites(name: &str) -> Result<Vec<SuiteId>, String> {
    match name {
        "polybench" => Ok(vec![SuiteId::PolyBench]),
        "sorts" => Ok(vec![SuiteId::Sorts]),
        "termcomp" => Ok(vec![SuiteId::TermComp]),
        "wtc" => Ok(vec![SuiteId::Wtc]),
        "bloated" => Ok(vec![SuiteId::Bloated]),
        "multiphase" => Ok(vec![SuiteId::Multiphase]),
        "lasso" => Ok(vec![SuiteId::Lasso]),
        "piecewise" => Ok(vec![SuiteId::Piecewise]),
        "all" => Ok(SuiteId::all().to_vec()),
        other => Err(format!("unknown suite `{other}`")),
    }
}

fn suite_command(name: &str, flags: Flags) -> Result<ExitCode, String> {
    let suites = parse_suites(name)?;
    eprintln!(
        "preparing {} suite(s) (front-end, untimed) ...",
        suites.len()
    );
    let mut jobs = Vec::new();
    let mut suite_of: Vec<&'static str> = Vec::new();
    for s in &suites {
        let suite_jobs = AnalysisJob::from_suite_with(*s, !flags.no_optimize);
        suite_of.extend(std::iter::repeat_n(s.name(), suite_jobs.len()));
        jobs.extend(suite_jobs);
    }

    if let Some((k, n)) = flags.shard {
        // Deterministic split on the content-addressed cache key, so every
        // shard of a fleet sees the same partition regardless of suite
        // ordering, and re-sharding with a different n re-balances cleanly.
        let options = AnalysisOptions::default();
        let before = jobs.len();
        let paired: Vec<(AnalysisJob, &'static str)> = jobs
            .into_iter()
            .zip(suite_of)
            .filter(|(job, _)| {
                let key = cache_key(job, &flags.selection, &options);
                let hash = u64::from_str_radix(&key, 16).unwrap_or(0);
                hash % n == k - 1
            })
            .collect();
        jobs = paired.iter().map(|(j, _)| j.clone()).collect();
        suite_of = paired.into_iter().map(|(_, s)| s).collect();
        eprintln!("shard {k}/{n}: {} of {before} benchmarks", jobs.len());
    }

    let start = Instant::now();
    let results = run_jobs(jobs, &flags)?;
    let wall = start.elapsed().as_secs_f64() * 1000.0;

    println!(
        "{:<26} {:<10} {:<12} {:>12} {:>5} {:>6} {:>6} {:>9} {:>8} {:>7} {:>10} {:>8} {:>8} {:>8} {:>7}",
        "benchmark",
        "suite",
        "engine",
        "verdict",
        "dim",
        "iters",
        "piv",
        "warm",
        "nodes",
        "vars",
        "time(ms)",
        "smt(ms)",
        "lp(ms)",
        "inv(ms)",
        "cache"
    );
    // "12→9" when the IR pre-optimizer ran, "-" otherwise (a report with no
    // `ir_*` counters — `--no-optimize`, or an entry cached before the
    // optimizer existed — must not render as a measured "0→0").
    let shrink = |before: usize, after: usize| {
        if before == 0 {
            "-".to_string()
        } else {
            format!("{before}\u{2192}{after}")
        }
    };
    for (result, suite) in results.iter().zip(&suite_of) {
        let verdict = match verdict_name(&result.report.verdict) {
            "terminates" => "TERMINATING",
            other => other,
        };
        let s = &result.report.stats;
        println!(
            "{:<26} {:<10} {:<12} {:>12} {:>5} {:>6} {:>6} {:>5}/{:<3} {:>8} {:>7} {:>10.2} {:>8.2} {:>8.2} {:>8.2} {:>7}",
            result.name,
            suite,
            engine_cell(s.engine_won.as_deref()),
            verdict,
            s.dimension,
            s.iterations,
            s.lp_pivots,
            s.lp_warm_hits,
            s.lp_instances,
            shrink(s.ir_nodes_before, s.ir_nodes_after),
            shrink(s.ir_vars_before, s.ir_vars_after),
            s.synthesis_millis,
            s.smt_millis,
            s.lp_millis,
            s.invariant_millis,
            if result.from_cache { "hit" } else { "miss" },
        );
    }
    let totals = BatchTotals::of(&results);
    println!(
        "\ntotals: {}/{} proved ({} conditional, {} expected), {} cache hits ({:.0}%), \
         synthesis {:.1} ms, batch wall {:.1} ms ({} workers)",
        totals.proved,
        totals.total,
        totals.conditional,
        totals.expected,
        totals.cache_hits,
        100.0 * totals.cache_hits as f64 / totals.total.max(1) as f64,
        totals.stats.synthesis_millis,
        wall,
        flags.jobs,
    );
    let row_totals: Vec<Option<f64>> = STAT_FIELDS
        .iter()
        .map(|field| Some((field.get)(&totals.stats).number()))
        .collect();
    let lp: Vec<String> = STAT_FIELDS
        .iter()
        .zip(&row_totals)
        .filter_map(|(field, total)| match field.line {
            StatLine::Lp(label) => Some(format!("{} {label}", total.unwrap_or(0.0))),
            _ => None,
        })
        .collect();
    println!("lp: {}", lp.join(", "));
    println!(
        "phases: {}; cache served {} hit(s) in {:.1} ms",
        phase_figures(&row_totals),
        totals.cache_hits,
        totals.cache_millis,
    );
    let optimized = results
        .iter()
        .filter(|r| pre_optimized(|i| Some((STAT_FIELDS[i].get)(&r.report.stats).number())))
        .count();
    if optimized > 0 {
        println!(
            "ir: {optimized} benchmark(s) pre-optimized, {}",
            ir_figures(&row_totals)
        );
    }

    if let Some(path) = &flags.json_path {
        let doc = results_to_json(&results, &suite_of, totals.wall_millis);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!("wrote per-benchmark JSON report to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs jobs through the batch driver, wiring up the optional persistent
/// cache and (for `--trace`) a run-wide trace recorder whose Chrome-trace
/// JSON is written once the batch completes.
fn run_jobs(jobs: Vec<AnalysisJob>, flags: &Flags) -> Result<Vec<BatchResult>, String> {
    let cache = match &flags.cache_path {
        Some(path) => Some(ResultCache::load(path)?.with_max_bytes(flags.cache_max_bytes)),
        None => None,
    };
    // The suite-sized ring: a whole-run trace holds every job's spans, not
    // just one job's.
    let recorder = flags
        .trace_path
        .as_ref()
        .map(|_| std::sync::Arc::new(termite_obs::Recorder::new(termite_obs::SUITE_RING_CAPACITY)));
    let config = BatchConfig {
        workers: flags.jobs,
        selection: flags.selection.clone(),
        options: AnalysisOptions::default().with_cancel(CancelToken::new()),
        job_timeout: flags.timeout,
        recorder: recorder.clone(),
    };
    let results = run_batch(jobs, &config, cache.as_ref());
    if let (Some(recorder), Some(path)) = (&recorder, &flags.trace_path) {
        let dropped = recorder.dropped();
        let trace = termite_obs::chrome_trace_json(&recorder.drain(), dropped);
        std::fs::write(path, trace).map_err(|e| format!("write {path:?}: {e}"))?;
        if dropped > 0 {
            eprintln!(
                "trace: ring wrapped, {dropped} oldest event(s) dropped (see \
                 `termite_dropped_events` in the file)"
            );
        }
        eprintln!("wrote Chrome-trace JSON to {}", path.display());
    }
    if let (Some(cache), Some(path)) = (&cache, &flags.cache_path) {
        cache.save(path)?;
        let stats = cache.stats();
        eprintln!(
            "cache: {} hits, {} misses, {} evicted, {} entries persisted to {}",
            stats.hits,
            stats.misses,
            stats.evictions,
            cache.len(),
            path.display()
        );
    }
    Ok(results)
}

/// The machine-readable `--json` report: one record per benchmark plus
/// aggregate totals (the shape future `BENCH_*.json` trajectories read).
/// `wall_millis` is the totals' wall time (the sum of per-job walls).
fn results_to_json(results: &[BatchResult], suites: &[&'static str], wall_millis: f64) -> Json {
    let benchmarks: Vec<Json> = results
        .iter()
        .zip(suites)
        .map(|(r, suite)| {
            let mut fields = vec![
                ("name", Json::String(r.name.clone())),
                ("suite", Json::String(suite.to_string())),
                (
                    "verdict",
                    Json::String(verdict_name(&r.report.verdict).to_string()),
                ),
                ("terminating", Json::Bool(r.proved())),
                (
                    "expected_terminating",
                    r.expected_terminating.map_or(Json::Null, Json::Bool),
                ),
                ("wall_millis", Json::Number(r.wall_millis)),
                ("from_cache", Json::Bool(r.from_cache)),
                // `winner` is the live race's pick and is Null on cache
                // hits; `engine_won` rides in the report's stats, so it
                // survives the cache round trip. Consumers should prefer it.
                (
                    "winner",
                    r.winner
                        .map_or(Json::Null, |e| Json::String(format!("{e:?}"))),
                ),
                ("report", report_to_json(&r.report)),
            ];
            // Every stat also sits at the top level of the record, so
            // trend tooling can read a flat record.
            fields.extend(stat_entries(&r.report.stats));
            Json::object(fields)
        })
        .collect();
    let totals = totals_json(&benchmarks, wall_millis);
    Json::object([("benchmarks", Json::Array(benchmarks)), ("totals", totals)])
}

/// The `totals` object of a `--json` report, computed from its benchmark
/// records: the one routine behind `suite --json` and `merge-reports`.
/// Each time row is summed over the records carrying it, and left out when
/// none does (absent is unknown, not 0 ms). A suite passes the sum of its
/// job walls as `wall_millis`, a merge the slowest shard's.
fn totals_json(benchmarks: &[Json], wall_millis: f64) -> Json {
    let is = |key: &'static str| move |b: &&Json| b.get(key).and_then(Json::as_bool) == Some(true);
    let count = |key: &'static str| Json::Number(benchmarks.iter().filter(is(key)).count() as f64);
    let conditional = benchmarks
        .iter()
        .filter(|b| b.get("verdict").and_then(Json::as_str) == Some("conditional"))
        .count();
    let cache_millis = benchmarks
        .iter()
        .filter(is("from_cache"))
        .filter_map(|b| b.get("wall_millis").and_then(Json::as_f64))
        .sum();
    let mut totals = vec![
        ("total", Json::Number(benchmarks.len() as f64)),
        ("proved", count("terminating")),
        ("conditional", Json::Number(conditional as f64)),
        ("expected", count("expected_terminating")),
        ("cache_hits", count("from_cache")),
        ("cache_millis", Json::Number(cache_millis)),
        ("wall_millis", Json::Number(wall_millis)),
    ];
    for field in STAT_FIELDS.iter().filter(|f| f.kind == StatKind::Millis) {
        let measured: Vec<f64> = benchmarks
            .iter()
            .filter_map(|b| b.get(field.name).and_then(Json::as_f64))
            .collect();
        if !measured.is_empty() {
            totals.push((field.name, Json::Number(measured.iter().sum())));
        }
    }
    Json::object(totals)
}

/// Whether a job was pre-optimized: some `ir` figure is positive (all are
/// 0 or unknown when the optimizer did not run).
fn pre_optimized(value: impl Fn(usize) -> Option<f64>) -> bool {
    (STAT_FIELDS.iter().enumerate())
        .any(|(i, f)| matches!(f.line, StatLine::Ir(_)) && value(i).is_some_and(|v| v > 0.0))
}

/// The `phases:` figures from per-row totals (indexed like `STAT_FIELDS`),
/// `n/a` for a phase no record measured.
fn phase_figures(totals: &[Option<f64>]) -> String {
    STAT_FIELDS
        .iter()
        .zip(totals)
        .filter_map(|(field, total)| match (field.line, total) {
            (StatLine::Phase(label), Some(ms)) => Some(format!("{label} {ms:.1} ms")),
            (StatLine::Phase(label), None) => Some(format!("{label} n/a")),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The `ir:` figures (`nodes 12→9, vars 5→3`) from per-row totals
/// (indexed like `STAT_FIELDS`), `n/a` for a pair no record measured.
fn ir_figures(totals: &[Option<f64>]) -> String {
    let rows: Vec<(&str, Option<f64>)> = STAT_FIELDS
        .iter()
        .zip(totals)
        .filter_map(|(field, total)| match field.line {
            StatLine::Ir(label) => Some((label, *total)),
            _ => None,
        })
        .collect();
    (rows.chunks(2))
        .map(|pair| match (pair[0].1, pair[1].1) {
            (Some(before), Some(after)) => format!("{} {before}\u{2192}{after}", pair[0].0),
            _ => format!("{} n/a", pair[0].0),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One benchmark record of a `suite --json` report, as `bench-diff` and
/// `check-verdicts` consume it.
struct BenchRecord {
    name: String,
    verdict: String,
    /// One value per `STAT_FIELDS` row, `None` where the report predates
    /// the stat: unknown, never 0 (a missing pivot count read as 0 would
    /// make every pre-pivot baseline look infinitely regressed).
    stats: Vec<Option<StatValue>>,
    /// The portfolio engine whose answer the report carries (`None`: no
    /// race, no proof, or an older report). Never itself gated on.
    engine_won: Option<String>,
    /// The disjunct clauses of a conditional verdict's embedded report;
    /// `None` otherwise, which keeps the DNF gate silent.
    disjuncts: Option<Vec<termite_polyhedra::Polyhedron>>,
}

impl BenchRecord {
    /// The named stat, `None` when the record does not carry it.
    fn stat(&self, name: &str) -> Option<&StatValue> {
        let index = STAT_FIELDS.iter().position(|field| field.name == name)?;
        self.stats[index].as_ref()
    }
}

/// Per-row sums over the `records` that `keep` selects (indexed like
/// `STAT_FIELDS`), `None` for a row that none of them carries.
fn record_totals(records: &[BenchRecord], keep: impl Fn(&BenchRecord) -> bool) -> Vec<Option<f64>> {
    let kept: Vec<&BenchRecord> = records.iter().filter(|r| keep(r)).collect();
    (0..STAT_FIELDS.len())
        .map(|i| {
            let measured: Vec<f64> = (kept.iter())
                .filter_map(|r| r.stats[i].as_ref().map(StatValue::number))
                .collect();
            (!measured.is_empty()).then(|| measured.iter().sum())
        })
        .collect()
}

/// Renders a report's `engine_won` for the suite and diff tables, folding
/// the `Engine` debug names back onto the `--engine` spellings. `-` means
/// no portfolio race picked a winner (single-engine run, no-proof race, or
/// a report written before the field existed).
fn engine_cell(engine_won: Option<&str>) -> String {
    let Some(won) = engine_won else {
        return "-".to_string();
    };
    (ENGINE_NAMES.iter())
        .find(|(engine, _)| format!("{engine:?}") == won)
        .map_or(won, |(_, spelling)| *spelling)
        .to_string()
}

/// Reads the benchmark records of a `suite --json` report. A record's
/// embedded `report` goes through the cache codec (which migrates every
/// older schema) and gives the verdict, stats and DNF clauses; a record
/// without one is read from its top-level keys, which use the same names.
fn load_report(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let benchmarks = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing `benchmarks` array"))?;
    benchmarks
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: benchmark without `name`"))?;
            let (verdict, stats, disjuncts) = match b.get("report") {
                Some(embedded) => {
                    let report =
                        report_from_json(embedded).map_err(|e| format!("{path}: `{name}`: {e}"))?;
                    let clauses: Vec<termite_polyhedra::Polyhedron> = report
                        .preconditions()
                        .iter()
                        .map(|d| d.clause.clone())
                        .collect();
                    (
                        verdict_name(&report.verdict).to_string(),
                        stat_rows_from_json(embedded.get("stats").unwrap_or(&Json::Null)),
                        (!clauses.is_empty()).then_some(clauses),
                    )
                }
                None => {
                    let verdict = b
                        .get("verdict")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{path}: `{name}` without a verdict"))?;
                    (verdict.to_string(), stat_rows_from_json(b), None)
                }
            };
            let mut record = BenchRecord {
                name: name.to_string(),
                verdict,
                stats,
                engine_won: None,
                disjuncts,
            };
            if record.stat("synthesis_millis").is_none() {
                return Err(format!("{path}: `{name}` without `synthesis_millis`"));
            }
            // Older portfolio reports carry only the live race's `winner`
            // (same engine names); fall back to it so `bench-diff`'s
            // same-engine pivot rule still sees pre-`engine_won` files.
            record.engine_won = match record.stat("engine_won") {
                Some(StatValue::Label(engine)) => engine.clone(),
                _ => None,
            }
            .or_else(|| b.get("winner").and_then(Json::as_str).map(String::from));
            Ok(record)
        })
        .collect()
}

/// Compares two `suite --json` trend files (`BENCH_<seq>.json`). Failures
/// are *regressions only*: a verdict dropping on the
/// `terminates ⊒ conditional ⊒ unknown` lattice, a benchmark missing from
/// the new report, a slowdown beyond `--max-ratio` (default 2x, ignoring
/// benchmarks faster than `--min-millis`, default 5 ms, in both runs, where
/// timer noise dominates), or an `lp_pivots` increase beyond the same
/// `--max-ratio` (ignoring benchmarks below `--min-pivots`, default 16, in
/// both runs — pivot counts are deterministic, so no noise allowance beyond
/// the small-count floor is needed, and a pivot blow-up fails the gate even
/// on a machine fast enough to hide it in wall-clock). The pivot gate is
/// suspended when the two reports name *different* winning engines
/// (`engine_won`, falling back to the older `winner` field): pivot counts
/// are only comparable within one engine, and the portfolio re-assigning a
/// benchmark is a race outcome judged by wall time alone. Benchmarks whose
/// reports predate the pivot counter print `n/a` and are never gated on
/// pivots: an absent count is unknown, not a measured zero. Verdict
/// *improvements* are reported as notes — without this asymmetry, the
/// conditional-termination pipeline's own improvements would break the
/// trend gate.
fn bench_diff(args: &[String]) -> Result<ExitCode, String> {
    let old_path = args.first().ok_or("bench-diff needs two JSON files")?;
    let new_path = args.get(1).ok_or("bench-diff needs two JSON files")?;
    let mut max_ratio = 2.0f64;
    let mut min_millis = 5.0f64;
    let mut min_pivots = 16.0f64;
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--max-ratio" => {
                max_ratio = value("--max-ratio")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| *r > 1.0)
                    .ok_or("--max-ratio needs a number > 1")?
            }
            "--min-millis" => {
                min_millis = value("--min-millis")?
                    .parse::<f64>()
                    .ok()
                    .filter(|m| *m >= 0.0)
                    .ok_or("--min-millis needs a non-negative number")?
            }
            "--min-pivots" => {
                min_pivots = value("--min-pivots")?
                    .parse::<f64>()
                    .ok()
                    .filter(|m| *m >= 0.0)
                    .ok_or("--min-pivots needs a non-negative number")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let old = load_report(old_path)?;
    let new = load_report(new_path)?;
    let new_by_name: std::collections::BTreeMap<&str, &BenchRecord> =
        new.iter().map(|b| (b.name.as_str(), b)).collect();

    println!(
        "{:<26} {:>12} {:>12} {:>7} {:>10} {:>10} {:>12}  status",
        "benchmark", "old(ms)", "new(ms)", "ratio", "old piv", "new piv", "engine"
    );
    // The two gated stats: wall time and pivots (`load_report` ensures
    // every record has the former).
    let synthesis_millis =
        |r: &BenchRecord| r.stat("synthesis_millis").map_or(0.0, StatValue::number);
    let pivots = |r: &BenchRecord| r.stat("lp_pivots").map(StatValue::number);
    // `n/a` when the report predates the pivot counter.
    let pivots_cell = |r: &BenchRecord| pivots(r).map_or("n/a".into(), |p| p.to_string());
    let mut failures = 0usize;
    let mut improvements = 0usize;
    for record in &old {
        let name = &record.name;
        let Some(new_record) = new_by_name.get(name.as_str()) else {
            println!("{name:<26} {:>64}", "MISSING from new report");
            failures += 1;
            continue;
        };
        let (old_ms, new_ms) = (synthesis_millis(record), synthesis_millis(new_record));
        let ratio = if old_ms > 0.0 { new_ms / old_ms } else { 1.0 };
        // Pivot counts are engine-relative: an SMT-driven engine's report
        // carries a handful of pivots where an LP-saturating one's carries
        // hundreds, at a fraction of the wall time. So the pivot gate only
        // fires when both sides were won by the *same* engine (or when
        // neither report names one — pre-portfolio trend files); a
        // portfolio handing a benchmark to a different engine is a race
        // outcome, not a solver regression, and stays gated on wall time.
        let same_engine = match (&record.engine_won, &new_record.engine_won) {
            (Some(old_engine), Some(new_engine)) => old_engine == new_engine,
            _ => true,
        };
        // The pivot gate only fires when both sides actually measured
        // pivots and at least one count clears the small-count floor.
        let pivot_regressed = same_engine
            && match (pivots(record), pivots(new_record)) {
                (Some(old_piv), Some(new_piv)) => {
                    new_piv > max_ratio * old_piv
                        && (old_piv >= min_pivots || new_piv >= min_pivots)
                }
                _ => false,
            };
        let (old_rank, new_rank) = (
            verdict_rank(&record.verdict),
            verdict_rank(&new_record.verdict),
        );
        // Within rank 1 the lattice is refined by DNF subsumption: the new
        // disjunction must cover the old one (every old clause inside some
        // new clause), or the precondition got strictly weaker — a verdict
        // regression the rank alone cannot see. Extra uncovered new
        // disjuncts are an improvement note. Records without embedded
        // clauses (older trend files) leave the gate silent.
        let (dnf_weakened, dnf_widened) = match (
            old_rank == 1 && new_rank == 1,
            &record.disjuncts,
            &new_record.disjuncts,
        ) {
            (true, Some(old_dnf), Some(new_dnf)) => (
                old_dnf
                    .iter()
                    .any(|c| !new_dnf.iter().any(|d| c.is_subset_of(d))),
                new_dnf
                    .iter()
                    .any(|d| !old_dnf.iter().any(|c| d.is_subset_of(c))),
            ),
            _ => (false, false),
        };
        let status = if new_rank < old_rank {
            failures += 1;
            "VERDICT REGRESSED"
        } else if new_rank > old_rank {
            improvements += 1;
            "improved"
        } else if dnf_weakened {
            failures += 1;
            "PRECONDITION WEAKENED"
        } else if dnf_widened {
            improvements += 1;
            "precond widened"
        } else if pivot_regressed {
            failures += 1;
            "PIVOT REGRESSION"
        } else if ratio > max_ratio && (new_ms > min_millis || old_ms > min_millis) {
            failures += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        // The winning engine; `old→new` when the portfolio handed the
        // benchmark to a different engine (which also suspends the pivot
        // gate), `n/a` when the report predates the field or no race picked
        // one. Informational — never itself a gate.
        let engine = match (
            record.engine_won.as_deref(),
            new_record.engine_won.as_deref(),
        ) {
            (Some(old_engine), Some(new_engine)) if old_engine != new_engine => format!(
                "{}\u{2192}{}",
                engine_cell(Some(old_engine)),
                engine_cell(Some(new_engine))
            ),
            (_, Some(new_engine)) => engine_cell(Some(new_engine)),
            (_, None) => "n/a".to_string(),
        };
        println!(
            "{name:<26} {old_ms:>12.2} {new_ms:>12.2} {ratio:>6.2}x {:>10} {:>10} {engine:>12}  {status}",
            pivots_cell(record),
            pivots_cell(new_record),
        );
    }
    if improvements > 0 {
        println!("bench-diff: note: {improvements} verdict improvement(s) (not failures)");
    }
    // Informational phase-time and IR-shrink totals, one line each per side.
    // A side whose reports predate a stat prints `n/a` for it — never 0,
    // and never a gate. IR figures count pre-optimized records only.
    let optimized = |r: &BenchRecord| pre_optimized(|i| r.stats[i].as_ref().map(StatValue::number));
    for (records, label) in [(&old, "old"), (&new, "new")] {
        let totals = record_totals(records, |_| true);
        println!("bench-diff: phases {label}: {}", phase_figures(&totals));
    }
    for (records, label) in [(&old, "old"), (&new, "new")] {
        let totals = record_totals(records, optimized);
        println!("bench-diff: ir {label}: {}", ir_figures(&totals));
    }
    if failures > 0 {
        eprintln!("bench-diff: {failures} benchmark(s) regressed");
        Ok(ExitCode::from(1))
    } else {
        println!("bench-diff: no regressions ({} benchmarks)", old.len());
        Ok(ExitCode::SUCCESS)
    }
}

/// Unions several shard `--json` reports into one: concatenates the
/// benchmark records and recomputes the totals, so a fleet of
/// `suite --shard k/n --json` runs merges back into the report an unsharded
/// run would have produced (ordering aside; `totals.wall_millis` is the
/// slowest shard's batch wall clock, since fleet shards run concurrently).
fn merge_reports(args: &[String]) -> Result<ExitCode, String> {
    if args.len() < 3 {
        return Err("merge-reports needs an output file and at least two inputs".to_string());
    }
    let out_path = &args[0];
    let mut benchmarks: Vec<Json> = Vec::new();
    let mut slowest_shard_wall = 0.0f64;
    for path in &args[1..] {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        let shard = doc
            .get("benchmarks")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: missing `benchmarks` array"))?;
        // Shards of a fleet run concurrently, so the union's batch wall
        // clock is the slowest shard's — not the sum (and not the sum of
        // per-benchmark walls, which double-counts multi-worker overlap).
        let shard_wall = doc
            .get("totals")
            .and_then(|t| t.get("wall_millis"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                shard
                    .iter()
                    .filter_map(|b| b.get("wall_millis").and_then(Json::as_f64))
                    .sum()
            });
        slowest_shard_wall = slowest_shard_wall.max(shard_wall);
        benchmarks.extend(shard.iter().cloned());
    }
    // Deterministic order regardless of shard assignment.
    benchmarks.sort_by(|a, b| {
        let name = |j: &Json| {
            j.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        name(a).cmp(&name(b))
    });
    {
        let mut seen = std::collections::BTreeSet::new();
        for b in &benchmarks {
            let name = b.get("name").and_then(Json::as_str).unwrap_or("");
            if !seen.insert(name.to_string()) {
                return Err(format!(
                    "merge-reports: benchmark `{name}` appears in more than one shard"
                ));
            }
        }
    }
    let totals = totals_json(&benchmarks, slowest_shard_wall);
    let doc = Json::object([("benchmarks", Json::Array(benchmarks)), ("totals", totals)]);
    std::fs::write(out_path, doc.to_string()).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!("merged {} shard report(s) into {out_path}", args.len() - 1);
    Ok(ExitCode::SUCCESS)
}

/// The CI suite-score gate: every benchmark of the committed expectation
/// file must reach at least its expected verdict on the
/// `terminates ⊒ conditional ⊒ unknown` lattice in the actual `--json` run.
/// Verdicts *above* expectation are notes inviting a bump of the file, so
/// prover-power regressions fail CI even when bench timings do not.
fn check_verdicts(args: &[String]) -> Result<ExitCode, String> {
    let expected_path = args.first().ok_or("check-verdicts needs two JSON files")?;
    let actual_path = args.get(1).ok_or("check-verdicts needs two JSON files")?;
    if let Some(extra) = args.get(2) {
        return Err(format!("check-verdicts takes two files (got `{extra}`)"));
    }
    let text =
        std::fs::read_to_string(expected_path).map_err(|e| format!("read {expected_path}: {e}"))?;
    let expected = Json::parse(&text).map_err(|e| format!("parse {expected_path}: {e}"))?;
    let Json::Object(expected) = expected else {
        return Err(format!("{expected_path}: expected a name → verdict object"));
    };
    let actual = load_report(actual_path)?;
    let actual_by_name: std::collections::BTreeMap<&str, &str> = actual
        .iter()
        .map(|b| (b.name.as_str(), b.verdict.as_str()))
        .collect();

    let mut failures = 0usize;
    let mut better = 0usize;
    for (name, expected_verdict) in &expected {
        let expected_verdict = expected_verdict
            .as_str()
            .ok_or_else(|| format!("{expected_path}: `{name}` verdict must be a string"))?;
        match actual_by_name.get(name.as_str()) {
            None => {
                println!("{name:<26} MISSING from {actual_path}");
                failures += 1;
            }
            Some(actual_verdict) => {
                let (want, got) = (verdict_rank(expected_verdict), verdict_rank(actual_verdict));
                if got < want {
                    println!("{name:<26} expected {expected_verdict}, got {actual_verdict}");
                    failures += 1;
                } else if got > want {
                    better += 1;
                }
            }
        }
    }
    if better > 0 {
        println!(
            "check-verdicts: note: {better} benchmark(s) beat their expected verdict — \
             consider updating {expected_path}"
        );
    }
    if failures > 0 {
        eprintln!("check-verdicts: {failures} verdict(s) below expectation");
        Ok(ExitCode::from(1))
    } else {
        println!("check-verdicts: all {} expectations met", expected.len());
        Ok(ExitCode::SUCCESS)
    }
}

fn table1() {
    let mut rows = Vec::new();
    for suite_id in SuiteId::all() {
        eprintln!("preparing {} ...", suite_id.name());
        let prepared = prepare_suite(suite_id);
        for engine in [Engine::Termite, Engine::Eager, Engine::Heuristic] {
            eprintln!("  running {engine:?} ...");
            rows.push(run_suite(suite_id, &prepared, engine));
        }
    }
    println!("\n=== Table 1 (reproduced) ===\n{}", format_table(&rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> String {
        format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn committed_bench_files_keep_absent_stats_unknown() {
        for seq in 1..=9 {
            let path = committed(&format!("BENCH_{seq:04}.json"));
            let records = load_report(&path).unwrap();
            let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let raw = doc.get("benchmarks").and_then(Json::as_array).unwrap();
            assert_eq!(records.len(), raw.len());
            for (record, bench) in records.iter().zip(raw) {
                let stats = bench.get("report").and_then(|r| r.get("stats")).unwrap();
                for (field, value) in STAT_FIELDS.iter().zip(&record.stats) {
                    assert_eq!(
                        value.is_some(),
                        stats.get(field.name).is_some(),
                        "{path}: `{}`.{}",
                        record.name,
                        field.name
                    );
                }
            }
        }
    }

    #[test]
    fn stats_a_report_predates_print_as_n_a() {
        let records = load_report(&committed("BENCH_0001.json")).unwrap();
        assert!(records.iter().all(|r| r.stat("refinements").is_none()));
        let totals = record_totals(&records, |_| true);
        assert_eq!(phase_figures(&totals), "smt n/a, lp n/a, invariants n/a");
        assert_eq!(ir_figures(&totals), "nodes n/a, vars n/a");
        assert_eq!(records[0].stat("no_such_stat"), None);

        let records = load_report(&committed("BENCH_0009.json")).unwrap();
        let totals = record_totals(&records, |_| true);
        assert!(!phase_figures(&totals).contains("n/a"));
        assert!(!ir_figures(&totals).contains("n/a"));
    }
}
