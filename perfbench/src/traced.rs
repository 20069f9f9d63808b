//! The traced run: per-layer metrics, kept apart from the timed runs.
//!
//! Each pass runs the workload once untraced and once traced. The traced
//! jobs record the benchmark's spans around its public calls and, through
//! the installed `termite_obs` recorder, the spans the prover already
//! emits; [`attribution::split`] charges each job's wall time to layers and
//! the run checks that the parts add up. The first pass also probes every
//! distinct input layer by layer ([`probe`]).

use crate::attribution::{self, Layer, SpanRec, Split};
use crate::measure::{
    batch_config, metric, order_rng, pass_order, run_job, scratch_dir, setup_batch, setup_serve,
    verdict_of, Outcome, Tally,
};
use crate::probe::{engine_name, engines, probe, Probe};
use crate::session;
use crate::stats::{median, millis_since};
use crate::workloads::{Input, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use termite_core::SynthesisStats;
use termite_driver::json::Json;
use termite_driver::{report_from_json, EngineSelection, ResultCache};
use termite_obs::{EventKind, Recorder, TraceEvent, SUITE_RING_CAPACITY};

/// Closure tolerance: layer times must add up to the job wall time within
/// this share (float rounding only — the split is exact by construction).
const CLOSURE_TOLERANCE: f64 = 1e-9;

/// The counters that must repeat exactly on `paper-termite`, in the order
/// of [`Traced::pass_counts`].
const EXACT_COUNTERS: [&str; 5] = [
    "lp.pivots",
    "smt.queries",
    "synth.iterations",
    "synth.counterexamples",
    "invariants.init_calls",
];

/// Totals over the traced jobs.
#[derive(Default)]
struct Traced {
    jobs: usize,
    split: Split,
    worst_closure_error: f64,
    init_calls: u64,
    refine_ms: f64,
    minimize_calls: u64,
    minimize_ms: f64,
    check_ms: f64,
    lp_solve_ms: f64,
    iterations: u64,
    counterexamples: u64,
    smt_queries: u64,
    lp_pivots: u64,
    lp_instances: u64,
    lp_warm_hits: u64,
    /// Per pass, the [`EXACT_COUNTERS`].
    pass_counts: Vec<[u64; 5]>,
    /// Response latency minus the analysis time the service reports.
    service_overhead_ms: Vec<f64>,
    queue_wait_ms: f64,
    queued_jobs: f64,
}

impl Traced {
    fn start_pass(&mut self) {
        self.pass_counts.push([0; 5]);
    }

    /// Adds one traced job: its spans, its layer split and, when it ran
    /// an analysis, its report statistics.
    fn add_job(&mut self, spans: &[SpanRec], split: &Split, stats: Option<&SynthesisStats>) {
        self.jobs += 1;
        self.split.merge(split);
        self.worst_closure_error = self
            .worst_closure_error
            .max(split.closure_error() / split.wall.max(1.0));
        let mut init_calls = 0;
        for s in spans {
            let ms = (s.end - s.start) / 1000.0;
            match s.name.as_str() {
                "invariant_init" => init_calls += 1,
                "invariant_refine" => self.refine_ms += ms,
                "smt_minimize" => {
                    self.minimize_calls += 1;
                    self.minimize_ms += ms;
                }
                "smt_check" => self.check_ms += ms,
                "lp_solve" => self.lp_solve_ms += ms,
                _ => {}
            }
        }
        self.init_calls += init_calls;
        let mut counts = [0, 0, 0, 0, init_calls];
        if let Some(stats) = stats {
            counts[0] = stats.lp_pivots as u64;
            counts[1] = stats.smt_queries as u64;
            counts[2] = stats.iterations as u64;
            counts[3] = stats.counterexamples as u64;
            self.lp_pivots += counts[0];
            self.smt_queries += counts[1];
            self.iterations += counts[2];
            self.counterexamples += counts[3];
            self.lp_instances += stats.lp_instances as u64;
            self.lp_warm_hits += stats.lp_warm_hits as u64;
        }
        let pass = self.pass_counts.last_mut().expect("a pass is open");
        for (total, count) in pass.iter_mut().zip(counts) {
            *total += count;
        }
    }

    fn add_queue_wait(&mut self, stats: &Json) {
        let jobs = stats.get("jobs");
        let field = |name| jobs.and_then(|j| j.get(name)).and_then(Json::as_f64);
        self.queue_wait_ms += field("queue_wait_millis").unwrap_or(0.0);
        self.queued_jobs += field("completed").unwrap_or(0.0);
    }
}

fn span_recs(events: &[TraceEvent]) -> Vec<SpanRec> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_us } => Some(SpanRec {
                name: e.name.to_string(),
                tid: e.tid,
                start: e.ts_us as f64,
                end: (e.ts_us + dur_us) as f64,
            }),
            EventKind::Instant => None,
        })
        .collect()
}

/// The spans of a `serve` response's embedded Chrome trace.
fn spans_from_response(doc: &Json) -> Result<Vec<SpanRec>, String> {
    let events = doc
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_array)
        .ok_or("traced response without trace events")?;
    Ok(events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            let start = e.get("ts")?.as_f64()?;
            Some(SpanRec {
                name: e.get("name")?.as_str()?.to_string(),
                tid: e.get("tid")?.as_f64()? as u64,
                start,
                end: start + e.get("dur")?.as_f64()?,
            })
        })
        .collect())
}

fn root_span(spans: &[SpanRec], name: &str) -> Result<SpanRec, String> {
    let mut roots = spans.iter().filter(|s| s.name == name);
    match (roots.next(), roots.next()) {
        (Some(root), None) => Ok(root.clone()),
        _ => Err(format!(
            "expected exactly one `{name}` span in a job's trace"
        )),
    }
}

/// Cache figures of the run (`hit_ratio` of the workload's own cache; the
/// rest from the workload's cache or the probe cache).
struct CacheFigures {
    hit_ratio: f64,
    load_ms: f64,
    save_ms: f64,
    bytes: f64,
}

/// Saves and reloads the probe cache, timing both.
fn cache_round_trip(cache: &ResultCache) -> Result<(f64, f64), String> {
    let dir = scratch_dir()?;
    let path = dir.join("probe-cache.json");
    let t = Instant::now();
    cache.save(&path)?;
    let save_ms = millis_since(t);
    let t = Instant::now();
    let loaded = ResultCache::load(&path)?;
    let load_ms = millis_since(t);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    if loaded.len() != cache.len() {
        return Err("probe cache did not survive its round trip".to_string());
    }
    Ok((save_ms, load_ms))
}

/// The three shortest inputs through a `serve` session of their own: the
/// service layer's overhead on a batch workload, which itself bypasses it.
fn service_probe(
    inputs: &[Input],
    selection: &EngineSelection,
    traced: &mut Traced,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut shortest: Vec<Input> = inputs.to_vec();
    shortest.sort_by_key(|i| (i.text.len(), i.name.clone()));
    let mut requests = shortest.into_iter().take(3);
    let stats = session::run(
        selection,
        None,
        false,
        || Ok(requests.next()),
        |response| {
            tally.screen(&response.input, response.verdict());
            traced
                .service_overhead_ms
                .push(response.latency_ms - response.wall_ms());
            Ok(())
        },
    )?;
    traced.add_queue_wait(&stats);
    Ok(())
}

/// The traced run of `suite-portfolio` or `paper-termite`.
pub fn traced_batch(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (inputs, _) = setup_batch(workload, seed, &mut tally)?;
    let selection = workload.selection();
    let recorder = Arc::new(Recorder::new(SUITE_RING_CAPACITY));
    let plain = batch_config(selection.clone(), None);
    let with_trace = batch_config(selection.clone(), Some(Arc::clone(&recorder)));
    let mut rng = order_rng(seed);
    let mut traced = Traced::default();
    let mut probes = Vec::new();
    let probe_cache = ResultCache::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    // Counters are compared between passes, so `paper-termite` needs two.
    let min_passes = if workload == Workload::PaperTermite {
        2
    } else {
        1
    };
    let start = Instant::now();
    while traced.pass_counts.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        for input in pass_order(&inputs, &mut rng) {
            let (ms, result) = run_job(&input, &plain);
            untraced_ms.push(ms);
            tally.record(&input, verdict_of(&result));
        }
        traced.start_pass();
        for input in pass_order(&inputs, &mut rng) {
            let (ms, result) = {
                let _recorder = termite_obs::install(Arc::clone(&recorder));
                run_job(&input, &with_trace)
            };
            let spans = span_recs(&recorder.drain());
            if recorder.dropped() > 0 {
                return Err("the trace ring overflowed; spans were lost".to_string());
            }
            traced_ms.push(ms);
            tally.record(&input, verdict_of(&result));
            let root = root_span(&spans, "bench.job")?;
            let worker = spans.iter().find(|s| s.name == "job").map(|s| s.tid);
            let depth = |tid| match tid {
                t if t == root.tid => 0,
                t if Some(t) == worker => 1,
                _ => 2,
            };
            let split = attribution::split(&root, &spans, depth);
            traced.add_job(&spans, &split, result.as_ref().map(|r| &r.report.stats));
        }
        if probes.is_empty() {
            for input in &inputs {
                probes.push(probe(input, &selection, &probe_cache)?);
            }
        }
    }
    service_probe(&inputs, &selection, &mut traced, &mut tally)?;
    let (save_ms, load_ms) = cache_round_trip(&probe_cache)?;
    let cache = CacheFigures {
        // No cache on the batch workloads.
        hit_ratio: 0.0,
        load_ms,
        save_ms,
        bytes: probe_cache.serialized_bytes() as f64,
    };
    let mut notes = Vec::new();
    if workload == Workload::PaperTermite {
        check_counters_repeat(&traced, &mut tally, &mut notes);
    } else {
        notes.push(format!(
            "race-dependent counters per pass ({}): {:?}",
            EXACT_COUNTERS.join(", "),
            traced.pass_counts
        ));
    }
    finish(
        traced,
        &probes,
        cache,
        &untraced_ms,
        &traced_ms,
        tally,
        notes,
    )
}

/// On a single-engine workload every pass analyses the same programs, so
/// the deterministic counters must repeat exactly.
fn check_counters_repeat(traced: &Traced, tally: &mut Tally, notes: &mut Vec<String>) {
    let first = traced.pass_counts[0];
    notes.push(format!(
        "exact counters per pass ({}): {:?}",
        EXACT_COUNTERS.join(", "),
        traced.pass_counts
    ));
    for (pass, counts) in traced.pass_counts.iter().enumerate().skip(1) {
        for (i, name) in EXACT_COUNTERS.iter().enumerate() {
            if counts[i] != first[i] {
                tally.errors.push(format!(
                    "{name} is not deterministic: pass 1 counted {}, pass {} counted {}",
                    first[i],
                    pass + 1,
                    counts[i]
                ));
            }
        }
    }
}

/// The traced run of `serve-cached`.
pub fn traced_serve(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (setup, _) = setup_serve(seed, &mut tally)?;
    let selection = Workload::ServeCached.selection();
    let mut rng = order_rng(seed);
    let mut traced = Traced::default();
    let mut probes = Vec::new();
    let probe_cache = ResultCache::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0usize, 0usize);
    // Each pass: a quarter of the budget untraced, a quarter traced.
    let phase = Duration::from_secs_f64(seconds / 4.0);
    let start = Instant::now();
    while traced.pass_counts.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let deadline = Instant::now() + phase;
        session::run(
            &selection,
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
                untraced_ms.push(response.latency_ms);
                tally.record(&response.input, response.verdict());
                Ok(())
            },
        )?;

        traced.start_pass();
        let before = setup.cache.stats();
        let deadline = Instant::now() + phase;
        let stats = session::run(
            &selection,
            Some(&setup.cache),
            true,
            || {
                if Instant::now() < deadline {
                    setup.pool.draw(&mut rng).map(Some)
                } else {
                    Ok(None)
                }
            },
            |response| {
                traced_ms.push(response.latency_ms);
                tally.record(&response.input, response.verdict());
                let spans = spans_from_response(&response.doc)?;
                let job = root_span(&spans, "job")?;
                let inner = attribution::split(&job, &spans, |tid| usize::from(tid != job.tid));
                // Outside the analysis: intake (parse, job preparation), the
                // queue, the JSON codec and the pipes.
                let latency_us = response.latency_ms * 1000.0;
                let analysis_us = inner.wall;
                let mut split = Split {
                    wall: latency_us,
                    ..inner
                };
                split.add(Layer::Service, latency_us - analysis_us);
                let stats = match (response.cached(), response.doc.get("report")) {
                    (false, Some(report)) => Some(report_from_json(report)?.stats),
                    _ => None,
                };
                traced.add_job(&spans, &split, stats.as_ref());
                traced
                    .service_overhead_ms
                    .push(response.latency_ms - response.wall_ms());
                Ok(())
            },
        )?;
        traced.add_queue_wait(&stats);
        let after = setup.cache.stats();
        hits += after.hits - before.hits;
        lookups += after.hits - before.hits + after.misses - before.misses;

        if probes.is_empty() {
            for input in &setup.pool.warm {
                probes.push(probe(input, &selection, &probe_cache)?);
            }
        }
    }
    let cache = CacheFigures {
        hit_ratio: hits as f64 / lookups.max(1) as f64,
        load_ms: setup.load_ms,
        save_ms: setup.save_ms,
        bytes: setup.cache.serialized_bytes() as f64,
    };
    let notes = vec![format!("cache: {hits} hits in {lookups} traced lookups")];
    finish(
        traced,
        &probes,
        cache,
        &untraced_ms,
        &traced_ms,
        tally,
        notes,
    )
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn finish(
    traced: Traced,
    probes: &[Probe],
    cache: CacheFigures,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    mut tally: Tally,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    if traced.jobs == 0 || probes.is_empty() {
        return Err("the traced run measured nothing".to_string());
    }
    if traced.worst_closure_error > CLOSURE_TOLERANCE {
        tally.errors.push(format!(
            "closure: layer times miss a job's wall time by {:.3e} of it",
            traced.worst_closure_error
        ));
    }
    let jobs = traced.jobs as f64;
    let per_job = |v: f64| v / jobs;
    let per_job_count = |v: u64| v as f64 / jobs;
    let probe_mean = |f: &dyn Fn(&Probe) -> f64| mean(probes.iter().map(f));
    let wall_us = traced.split.wall;

    let mut metrics = vec![
        metric("ir.parse_ms", probe_mean(&|p| p.parse_ms), "ms"),
        metric("ir.opt_ms", probe_mean(&|p| p.opt_ms), "ms"),
        metric("ir.ts_ms", probe_mean(&|p| p.ts_ms), "ms"),
        metric(
            "ir.vars_kept_frac",
            probe_mean(&|p| p.vars_kept_frac),
            "frac",
        ),
        metric("job.prepare_ms", probe_mean(&|p| p.prepare_ms), "ms"),
        metric(
            "invariants.fixpoint_ms",
            probe_mean(&|p| p.fixpoint_ms),
            "ms",
        ),
        metric("invariants.houdini_ms", probe_mean(&|p| p.houdini_ms), "ms"),
        metric("invariants.refine_ms", per_job(traced.refine_ms), "ms"),
        metric(
            "invariants.init_calls",
            per_job_count(traced.init_calls),
            "count",
        ),
    ];
    // A lane the workload does not race reads 0.
    for (i, engine) in engines().into_iter().enumerate() {
        let name = engine_name(engine);
        metrics.push(metric(
            format!("lane.{name}.synth_ms"),
            probe_mean(&|p| p.lanes[i].map_or(0.0, |l| l.synth_ms)),
            "ms",
        ));
        metrics.push(metric(
            format!("lane.{name}.proved"),
            probe_mean(&|p| p.lanes[i].map_or(0.0, |l| f64::from(u8::from(l.proved)))),
            "frac",
        ));
    }
    let lane_ms: f64 = probes.iter().map(|p| p.race_lane_ms).sum();
    let useful_ms: f64 = probes
        .iter()
        .filter(|p| p.race_proved)
        .map(|p| p.race_answer_lane_ms)
        .sum();
    metrics.extend([
        metric(
            "synth.iterations",
            per_job_count(traced.iterations),
            "count",
        ),
        metric(
            "synth.counterexamples",
            per_job_count(traced.counterexamples),
            "count",
        ),
        metric("smt.queries", per_job_count(traced.smt_queries), "count"),
        metric(
            "smt.minimize_calls",
            per_job_count(traced.minimize_calls),
            "count",
        ),
        metric("smt.minimize_ms", per_job(traced.minimize_ms), "ms"),
        metric("smt.check_ms", per_job(traced.check_ms), "ms"),
        metric("lp.pivots", per_job_count(traced.lp_pivots), "count"),
        metric("lp.instances", per_job_count(traced.lp_instances), "count"),
        metric(
            "lp.warm_ratio",
            traced.lp_warm_hits as f64 / traced.lp_instances.max(1) as f64,
            "frac",
        ),
        metric("lp.solve_ms", per_job(traced.lp_solve_ms), "ms"),
        metric("race.wall_ms", probe_mean(&|p| p.race_wall_ms), "ms"),
        metric("race.lane_cpu_ms", probe_mean(&|p| p.race_lane_ms), "ms"),
        metric(
            "race.wait_ms",
            probe_mean(&|p| p.race_wall_ms - p.race_answer_lane_ms),
            "ms",
        ),
        metric(
            "race.useful_ratio",
            useful_ms / lane_ms.max(f64::MIN_POSITIVE),
            "frac",
        ),
        metric(
            "race.unproved_losers",
            probe_mean(&|p| p.unproved_losers as f64),
            "count",
        ),
        metric("cache.hit_ratio", cache.hit_ratio, "frac"),
        metric("cache.lookup_us", probe_mean(&|p| p.lookup_us), "us"),
        metric("cache.store_us", probe_mean(&|p| p.store_us), "us"),
        metric("cache.load_ms", cache.load_ms, "ms"),
        metric("cache.save_ms", cache.save_ms, "ms"),
        metric("cache.bytes", cache.bytes, "B"),
        metric(
            "service.queue_wait_ms",
            traced.queue_wait_ms / traced.queued_jobs.max(1.0),
            "ms",
        ),
        metric(
            "service.overhead_ms",
            mean(traced.service_overhead_ms.iter().copied()),
            "ms",
        ),
        metric("json.encode_us", probe_mean(&|p| p.encode_us), "us"),
        metric("json.decode_us", probe_mean(&|p| p.decode_us), "us"),
    ]);
    for layer in Layer::ALL {
        metrics.push(metric(
            format!("share.{}", layer.name()),
            traced.split.get(layer) / wall_us,
            "frac",
        ));
    }
    metrics.extend([
        metric("trace.job_wall_ms", per_job(wall_us) / 1000.0, "ms"),
        metric(
            "unattributed_frac",
            traced.split.get(Layer::Unattributed) / wall_us,
            "frac",
        ),
        metric(
            "trace_overhead_frac",
            median(traced_ms) / median(untraced_ms) - 1.0,
            "frac",
        ),
        metric(
            "fail_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "frac",
        ),
    ]);

    let mut shares: Vec<(Layer, f64)> = Layer::ALL
        .iter()
        .map(|l| (*l, traced.split.get(*l) / wall_us))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "layer self time per traced job (share of its wall time): {}",
        shares
            .iter()
            .map(|(l, s)| format!(
                "{} {:.3} ms ({:.1}%)",
                l.name(),
                per_job(traced.split.get(*l)) / 1000.0,
                100.0 * s
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "closure: layers + unattributed = {:.3} ms = job wall {:.3} ms (worst job off by {:.1e} of its wall)",
        traced.split.attributed_total() / 1000.0,
        wall_us / 1000.0,
        traced.worst_closure_error
    ));
    Ok(Outcome {
        metrics,
        tally,
        notes,
    })
}
