//! Per-layer probes: each layer's public functions called and timed from
//! outside, on one workload input.

use crate::stats::millis_since;
use crate::workloads::Input;
use std::time::{Duration, Instant};
use termite_core::{prove_with_pipeline, AnalysisOptions, CancelToken, Engine};
use termite_driver::json::Json;
use termite_driver::{
    cache_key, parse_request, report_from_json, report_to_json, run_selection, AnalysisJob,
    EngineSelection, ResultCache,
};
use termite_invariants::{location_invariants, FixpointPipeline, InvariantOptions};
use termite_ir::{optimize, parse_named_program};

/// Every engine of the full portfolio, each probed as a lane of its own.
pub fn engines() -> Vec<Engine> {
    EngineSelection::full_portfolio().engines()
}

/// The metric spelling of an engine (its CLI name).
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Termite => "termite",
        Engine::Eager => "eager",
        Engine::PodelskiRybalchenko => "pr",
        Engine::Heuristic => "heuristic",
        Engine::Lasso => "lasso",
        Engine::CompleteLrf => "complete-lrf",
        Engine::Piecewise => "piecewise",
    }
}

/// Budget of one isolated lane; a lane that reaches it is cancelled and
/// reads as unproved.
pub const LANE_DEADLINE: Duration = Duration::from_secs(2);

/// One lane run alone on a prebuilt invariant pipeline.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    /// `FixpointPipeline::new` plus synthesis: what the lane costs in a race.
    pub total_ms: f64,
    /// `prove_with_pipeline` only.
    pub synth_ms: f64,
    pub proved: bool,
}

/// Everything one probe measures.
#[derive(Clone, Debug)]
pub struct Probe {
    pub parse_ms: f64,
    pub opt_ms: f64,
    pub ts_ms: f64,
    pub vars_kept_frac: f64,
    pub prepare_ms: f64,
    pub fixpoint_ms: f64,
    pub houdini_ms: f64,
    /// In [`engines`] order; `None` for a lane the workload does not race.
    pub lanes: Vec<Option<Lane>>,
    pub race_wall_ms: f64,
    /// Summed isolated cost of the lanes the workload's selection races.
    pub race_lane_ms: f64,
    /// Isolated cost of the lane whose report the race returned.
    pub race_answer_lane_ms: f64,
    /// Whether that report is a proof (its lane did useful work).
    pub race_proved: bool,
    pub unproved_losers: usize,
    pub lookup_us: f64,
    pub store_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Probes one input under the workload's engine selection. `cache` is a
/// probe cache of the caller's (never a workload's own cache).
pub fn probe(
    input: &Input,
    selection: &EngineSelection,
    cache: &ResultCache,
) -> Result<Probe, String> {
    let inv = InvariantOptions::default();
    let t = Instant::now();
    let program = parse_named_program(&input.text, &input.name)
        .map_err(|e| format!("{}: {e}", input.name))?;
    let parse_ms = millis_since(t);
    let t = Instant::now();
    let optimized = optimize(&program);
    let opt_ms = millis_since(t);
    let t = Instant::now();
    let ts = optimized.program.transition_system();
    let ts_ms = millis_since(t);
    let vars_kept_frac =
        optimized.stats.vars_after as f64 / optimized.stats.vars_before.max(1) as f64;
    let t = Instant::now();
    let job = AnalysisJob::from_program_with(&program, &inv, true);
    let prepare_ms = millis_since(t);
    let analysed = &optimized.program;
    let t = Instant::now();
    let _ = location_invariants(analysed, &inv);
    let fixpoint_ms = millis_since(t);

    // Only the lanes the workload races: the DNF-based engines exhaust
    // memory on the larger multipath loops that the single-engine
    // workloads feed the Termite lane.
    let raced = selection.engines();
    let mut lanes = Vec::new();
    let mut termite_pipeline_ms = None;
    for engine in engines() {
        if !raced.contains(&engine) {
            lanes.push(None);
            continue;
        }
        let cancel = CancelToken::with_deadline(LANE_DEADLINE);
        let options = AnalysisOptions::with_engine(engine).with_cancel(cancel.clone());
        // As in `prove_termination`: only the Termite lane refines.
        let refinements = if engine == Engine::Termite {
            options.max_refinements
        } else {
            0
        };
        let t = Instant::now();
        let mut pipeline = FixpointPipeline::new(
            analysed,
            &ts,
            &options.invariants,
            refinements,
            termite_lp::Interrupt::new(move || cancel.is_cancelled()),
        );
        let pipeline_ms = millis_since(t);
        let t = Instant::now();
        let report = prove_with_pipeline(&ts, &mut pipeline, &options);
        let synth_ms = millis_since(t);
        if engine == Engine::Termite {
            termite_pipeline_ms = Some(pipeline_ms);
        }
        lanes.push(Some(Lane {
            total_ms: pipeline_ms + synth_ms,
            synth_ms,
            proved: report.proved(),
        }));
    }
    // Every workload races the Termite lane, whose pipeline runs Houdini.
    let houdini_ms = termite_pipeline_ms.ok_or("the Termite lane is not raced")? - fixpoint_ms;

    let options = AnalysisOptions::default();
    let t = Instant::now();
    let outcome = run_selection(&job, selection, &options);
    let race_wall_ms = millis_since(t);
    let lane_of = |engine: Engine| {
        engines()
            .iter()
            .position(|e| *e == engine)
            .and_then(|i| lanes[i])
            .expect("every raced engine is probed")
    };
    let race_lane_ms = raced.iter().map(|e| lane_of(*e).total_ms).sum();
    // The race returns the winner's report, or the preferred engine's.
    let answering = outcome.winner.unwrap_or(raced[0]);
    let race_answer_lane_ms = lane_of(answering).total_ms;

    let key = cache_key(&job, selection, &options);
    // Suite programs with equal content share a key, so the first lookup
    // may already hit.
    let t = Instant::now();
    let _ = cache.lookup(&key);
    let first_us = micros_since(t);
    let t = Instant::now();
    cache.store(key.clone(), outcome.report.clone());
    let store_us = micros_since(t);
    let t = Instant::now();
    let hit = cache.lookup(&key);
    let hit_us = micros_since(t);
    if hit.is_none() {
        return Err(format!("{}: probe cache lookups misbehaved", input.name));
    }

    let t = Instant::now();
    let encoded = report_to_json(&outcome.report).to_string();
    let encode_us = micros_since(t);
    let request = format!(
        "{{\"id\":\"probe\",\"program\":{}}}",
        Json::String(input.text.clone())
    );
    let t = Instant::now();
    parse_request(&request).map_err(|(_, e)| format!("{}: {e}", input.name))?;
    let doc = Json::parse(&encoded).map_err(|e| format!("{}: {e}", input.name))?;
    let decoded = report_from_json(&doc)?;
    let decode_us = micros_since(t);
    if decoded.verdict != outcome.report.verdict {
        return Err(format!("{}: report JSON does not round-trip", input.name));
    }

    Ok(Probe {
        parse_ms,
        opt_ms,
        ts_ms,
        vars_kept_frac,
        prepare_ms,
        fixpoint_ms,
        houdini_ms,
        lanes,
        race_wall_ms,
        race_lane_ms,
        race_answer_lane_ms,
        race_proved: outcome.winner.is_some(),
        unproved_losers: outcome.unproved_losers,
        lookup_us: (first_us + hit_us) / 2.0,
        store_us,
        encode_us,
        decode_us,
    })
}
