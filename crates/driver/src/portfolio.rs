//! Engine portfolios: race several provers on one job, first proof wins.
//!
//! The paper's evaluation (Table 1) compares four provers on the same
//! programs; related CEGIS-based termination tools run complementary
//! strategies concurrently. This module does the same within one job: every
//! selected engine runs in its own thread on a *child* cancellation token of
//! the job token, and the first engine to return a proof cancels its
//! siblings. Losers exit at their next cooperative cancellation check (one
//! SMT→LP round trip), so a portfolio costs barely more wall-clock time than
//! its fastest member. The engines share one invariant snapshot per job,
//! built before they start (see DESIGN.md §1).

use crate::job::{AnalysisJob, JobInput};
use std::fmt;
use std::sync::{Arc, Mutex};
use termite_core::{
    invariant_snapshot, prove_transition_system, prove_with_snapshot, AnalysisOptions, Engine,
    Precondition, RankingFunction, TerminationReport, UnknownReason, Verdict,
};
use termite_invariants::InvariantSnapshot;
use termite_ir::Provenance;
use termite_polyhedra::{Constraint, Polyhedron};

/// Runs one engine on a job: on the job's shared invariant snapshot when
/// the program source is available (refinement pipeline, conditional
/// termination), on the job's one-shot invariants otherwise.
///
/// Every engine of a race reads the same immutable snapshot; only the
/// Termite engine refines, and its pipeline computes (and owns) new
/// invariants when it does, so the race needs no lock.
///
/// Pre-optimized jobs get their verdict translated back to source variables
/// *here*, before anything downstream (cache, NDJSON response, suite table)
/// sees the report — a cached report is therefore always in source terms.
fn prove_job(
    job: &AnalysisJob,
    snapshot: Option<&Arc<InvariantSnapshot>>,
    options: &AnalysisOptions,
) -> TerminationReport {
    let report = match (snapshot, &job.input) {
        (Some(snapshot), _) => prove_with_snapshot(&job.ts, snapshot, options),
        (None, JobInput::Invariants(invariants)) => {
            prove_transition_system(&job.ts, invariants, options)
        }
        (None, JobInput::Program(_)) => unreachable!("program-carrying jobs run on a snapshot"),
    };
    finish_report(job, report)
}

/// Labels a raw engine report for the job: its name, its verdict in source
/// variables, and its IR shrink counters.
fn finish_report(job: &AnalysisJob, mut report: TerminationReport) -> TerminationReport {
    report.program = job.name.clone();
    if let Some(prov) = &job.provenance {
        translate_verdict(&mut report.verdict, prov);
    }
    if let Some(os) = job.opt_stats {
        report.stats.ir_nodes_before = os.nodes_before;
        report.stats.ir_nodes_after = os.nodes_after;
        report.stats.ir_vars_before = os.vars_before;
        report.stats.ir_vars_after = os.vars_after;
    }
    report
}

/// Rewrites a verdict over the optimized variable space into the original
/// one: ranking rows and precondition constraints get `0` coefficients at
/// every eliminated index. The scattered certificate is a genuine
/// certificate of the original program, because the optimizer only removes
/// variables no guard can observe.
fn translate_verdict(verdict: &mut Verdict, prov: &Provenance) {
    if prov.is_identity() {
        return;
    }
    let owned = std::mem::replace(verdict, Verdict::unknown(UnknownReason::NoRankingFunction));
    *verdict = match owned {
        Verdict::Terminates(rf) => Verdict::Terminates(scatter_ranking(&rf, prov)),
        Verdict::TerminatesIf { disjuncts, ranking } => Verdict::TerminatesIf {
            disjuncts: disjuncts
                .into_iter()
                .map(|d| Precondition {
                    clause: scatter_polyhedron(&d.clause, prov),
                    ranking: d.ranking.map(|rf| scatter_ranking(&rf, prov)),
                })
                .collect(),
            ranking: scatter_ranking(&ranking, prov),
        },
        unknown => unknown,
    };
}

fn scatter_ranking(rf: &RankingFunction, prov: &Provenance) -> RankingFunction {
    let components = (0..rf.dimension())
        .map(|d| {
            (0..rf.num_locations())
                .map(|k| {
                    let (lambda, lambda0) = rf.component(d, k);
                    (prov.scatter(lambda), lambda0.clone())
                })
                .collect()
        })
        .collect();
    RankingFunction::new(
        prov.num_original_vars(),
        prov.original_var_names().to_vec(),
        components,
    )
}

fn scatter_polyhedron(p: &Polyhedron, prov: &Provenance) -> Polyhedron {
    let constraints = p
        .constraints()
        .iter()
        .map(|c| Constraint {
            coeffs: prov.scatter(&c.coeffs),
            rhs: c.rhs.clone(),
            kind: c.kind,
        })
        .collect();
    Polyhedron::from_constraints(prov.num_original_vars(), constraints)
}

/// Which engines a job runs: one, or a racing portfolio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineSelection {
    /// Run exactly one engine.
    Single(Engine),
    /// Race the given engines; first proof wins and cancels the rest.
    Portfolio(Vec<Engine>),
}

impl EngineSelection {
    /// A single-engine selection.
    pub fn single(engine: Engine) -> Self {
        EngineSelection::Single(engine)
    }

    /// A portfolio of the given engines (must be non-empty).
    pub fn portfolio(engines: Vec<Engine>) -> Self {
        assert!(!engines.is_empty(), "a portfolio needs at least one engine");
        EngineSelection::Portfolio(engines)
    }

    /// The full default portfolio: the complete LRF existence test first
    /// (lasso at depth 1: cheap, and definitive on single-path loops), then
    /// the multiphase lasso templates, then the paper's four engines. The
    /// order is the *preference* order used to break ties between
    /// equally-ranked answers (see `race`'s confluence contract), not a
    /// scheduling order — all engines start simultaneously.
    pub fn full_portfolio() -> Self {
        EngineSelection::Portfolio(vec![
            Engine::CompleteLrf,
            Engine::Lasso,
            Engine::Termite,
            Engine::Eager,
            Engine::PodelskiRybalchenko,
            Engine::Heuristic,
            Engine::Piecewise,
        ])
    }

    /// The engines, in preference order.
    pub fn engines(&self) -> Vec<Engine> {
        match self {
            EngineSelection::Single(e) => vec![*e],
            EngineSelection::Portfolio(es) => es.clone(),
        }
    }
}

/// Every engine with its CLI and NDJSON-wire spelling, in `Engine`
/// declaration order: the one table [`parse_selection`], [`engine_cli_name`]
/// and the suite tables' winner column read.
pub const ENGINE_NAMES: [(Engine, &str); 7] = [
    (Engine::Termite, "termite"),
    (Engine::Eager, "eager"),
    (Engine::PodelskiRybalchenko, "pr"),
    (Engine::Heuristic, "heuristic"),
    (Engine::Lasso, "lasso"),
    (Engine::CompleteLrf, "complete-lrf"),
    (Engine::Piecewise, "piecewise"),
];

/// Parses an engine-selection name as used on the CLI and the NDJSON wire:
/// one of the [`ENGINE_NAMES`] (plus `podelski-rybalchenko`, an alias of
/// `pr`) or `portfolio` for the full seven-engine race.
pub fn parse_selection(name: &str) -> Result<EngineSelection, String> {
    match name {
        "portfolio" => Ok(EngineSelection::full_portfolio()),
        "podelski-rybalchenko" => Ok(EngineSelection::single(Engine::PodelskiRybalchenko)),
        _ => (ENGINE_NAMES.iter())
            .find(|(_, spelling)| *spelling == name)
            .map(|(engine, _)| EngineSelection::single(*engine))
            .ok_or_else(|| format!("unknown engine `{name}`")),
    }
}

/// The CLI spelling of an engine — the inverse of [`parse_selection`]'s
/// single-engine names, and the spelling the `slow_engine` fault point
/// targets.
pub fn engine_cli_name(engine: Engine) -> &'static str {
    (ENGINE_NAMES.iter())
        .find(|(e, _)| *e == engine)
        .map(|(_, spelling)| *spelling)
        .expect("ENGINE_NAMES lists every engine")
}

/// Stable textual form, used by the cache key derivation.
impl fmt::Display for EngineSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineSelection::Single(e) => write!(f, "single:{e:?}"),
            EngineSelection::Portfolio(es) => {
                write!(f, "portfolio:")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{e:?}")?;
                }
                Ok(())
            }
        }
    }
}

/// Result of running a job through an engine selection.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The report returned to the caller: the winner's on a proof, the
    /// preferred (first-listed) engine's otherwise.
    pub report: TerminationReport,
    /// The engine whose answer the report carries, when that answer is a
    /// proof: the first engine to prove *unconditionally*, or the
    /// best-ranked finisher otherwise.
    pub winner: Option<Engine>,
    /// Raced engines that ended without a proof once a winner existed —
    /// typically because the winner cancelled them, though an engine that
    /// finished `Unknown` on its own just before the win counts too (a
    /// report does not record whether its run was cut short).
    pub unproved_losers: usize,
}

/// Runs one job under an engine selection.
///
/// A program-carrying job's invariant snapshot (forward fixpoint and
/// Houdini, under `options.invariants`) is built once, under the job token,
/// before any engine starts; its build time lands in the returned report's
/// `invariant_millis` exactly once, whichever engine answers.
///
/// The job token in `options.cancel` stays under the caller's control: the
/// race uses child tokens internally, so a batch deadline still cancels the
/// whole race, while the race's own first-proof-wins cancellation never
/// leaks upwards.
///
/// # Panics
///
/// Panics if the selection is an empty `Portfolio` (the variant is public,
/// so a caller can bypass the [`EngineSelection::portfolio`] constructor).
pub fn run_selection(
    job: &AnalysisJob,
    selection: &EngineSelection,
    options: &AnalysisOptions,
) -> PortfolioOutcome {
    if let EngineSelection::Portfolio(engines) = selection {
        assert!(!engines.is_empty(), "a portfolio needs at least one engine");
    }
    let (snapshot, snapshot_millis) = job
        .program()
        .map(|program| invariant_snapshot(program, &job.ts, options))
        .unzip();
    let snapshot = snapshot.as_ref();
    let mut out = match selection {
        EngineSelection::Single(engine) => {
            let opts = AnalysisOptions {
                engine: *engine,
                ..options.clone()
            };
            let report = prove_job(job, snapshot, &opts);
            let winner = report.proved().then_some(*engine);
            PortfolioOutcome {
                report,
                winner,
                unproved_losers: 0,
            }
        }
        EngineSelection::Portfolio(engines) => {
            let mut out = race(job, snapshot, engines, options);
            // Name the winning engine in the report itself, so the answer
            // survives the cache round trip and reaches `suite table`,
            // `merge-reports` and `bench-diff` (single-engine runs keep
            // `None`: there was no race to win).
            out.report.stats.engine_won = out.winner.map(|e| format!("{e:?}"));
            out
        }
    };
    out.report.stats.invariant_millis += snapshot_millis.unwrap_or(0.0);
    out
}

/// Races the engines under the **verdict-confluence invariant**: the rank of
/// the returned verdict (`Terminates` ⊐ `TerminatesIf` ⊐ `Unknown`) does not
/// depend on thread scheduling.
///
/// Only an *unconditional* proof claims the winner slot and cancels its
/// siblings — an unconditional proof is already the top of the verdict
/// lattice, so no still-running engine could improve on it. A conditional
/// proof must instead let the race run to completion: cancelling on it would
/// make the verdict rank depend on whether a sibling's unconditional proof
/// was a microsecond ahead or behind. When no engine claims the slot, every
/// engine finishes on its own and the best answer wins, ties broken by
/// engine-list position — a fully deterministic pick. The certificate (and
/// the winner's identity) may still vary between runs *only* when several
/// engines race to equally-ranked unconditional proofs.
fn race(
    job: &AnalysisJob,
    snapshot: Option<&Arc<InvariantSnapshot>>,
    engines: &[Engine],
    options: &AnalysisOptions,
) -> PortfolioOutcome {
    // One shared child token: the first unconditional proof cancels every
    // sibling, the caller's token still cancels everyone.
    let race_token = options.cancel.child();
    let winner: Mutex<Option<(Engine, TerminationReport)>> = Mutex::new(None);
    let mut per_engine: Vec<TerminationReport> = Vec::new();
    // The trace recorder is installed per-thread: propagate the caller's into
    // each engine thread so a race's spans land in the same ring.
    let recorder = termite_obs::installed();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(engines.len());
        for &engine in engines {
            let opts = AnalysisOptions {
                engine,
                ..options.clone()
            }
            .with_cancel(race_token.clone());
            let race_token = &race_token;
            let winner = &winner;
            let recorder = recorder.clone();
            handles.push(scope.spawn(move || {
                let _recorder_guard = recorder.map(termite_obs::install);
                // The `slow_engine` fault point: hand this engine an
                // arbitrary scheduling disadvantage before it starts. The
                // stall observes the race token so a cancelled loser still
                // wakes up promptly — exactly like a real engine that lost.
                if crate::faults::armed() {
                    if let Some(millis) = crate::faults::slow_engine_millis(engine_cli_name(engine))
                    {
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_millis(millis);
                        while std::time::Instant::now() < deadline && !opts.cancel.is_cancelled() {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                }
                let report = prove_job(job, snapshot, &opts);
                if report.proved_unconditionally() {
                    let mut slot = winner.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some((engine, report.clone()));
                        // First unconditional proof: stop the siblings.
                        race_token.cancel();
                    }
                }
                report
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(report) => per_engine.push(report),
                // A prover panic is a bug, not a race outcome: surface it
                // even when a sibling engine returned cleanly.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let first_proof = winner.into_inner().unwrap();
    let (winning_engine, report) = match first_proof {
        Some((engine, report)) => (Some(engine), report),
        None => {
            // No unconditional proof: every engine completed on its own.
            // Pick the best verdict; among equals, the first-listed engine —
            // deterministic regardless of completion order.
            let best = per_engine
                .iter()
                .enumerate()
                .max_by_key(|(i, r)| (r.verdict.rank(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .expect("a portfolio has at least one engine");
            let report = per_engine[best].clone();
            let winner = report.proved().then_some(engines[best]);
            (winner, report)
        }
    };
    let unproved_losers = match winning_engine {
        Some(w) => per_engine
            .iter()
            .zip(engines)
            .filter(|(r, e)| !r.proved() && **e != w)
            .count(),
        None => 0,
    };
    PortfolioOutcome {
        report,
        winner: winning_engine,
        unproved_losers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report_to_json;
    use termite_invariants::InvariantOptions;
    use termite_ir::parse_program;

    fn job(src: &str) -> AnalysisJob {
        let p = parse_program(src).unwrap();
        AnalysisJob::from_program(&p, &InvariantOptions::default())
    }

    /// Report JSON with every wall-clock field zeroed (as in the race
    /// determinism test): timings legitimately vary between runs.
    fn normalized(report: &TerminationReport) -> String {
        fn scrub(json: &mut Json) {
            match json {
                Json::Object(map) => {
                    for (key, value) in map.iter_mut() {
                        if key.ends_with("_millis") {
                            *value = Json::Number(0.0);
                        } else {
                            scrub(value);
                        }
                    }
                }
                Json::Array(items) => items.iter_mut().for_each(scrub),
                _ => {}
            }
        }
        let mut json = report_to_json(report);
        scrub(&mut json);
        json.to_string()
    }

    /// What one engine reports on the job with a private pipeline of its
    /// own: `prove_termination` on the job's program, labelled like
    /// `prove_job` labels a report.
    fn fresh(job: &AnalysisJob, options: &AnalysisOptions) -> String {
        let program = job.program().expect("program-carrying job");
        normalized(&finish_report(
            job,
            termite_core::prove_termination(program, options),
        ))
    }

    fn invariant_init_spans(job: &AnalysisJob, selection: &EngineSelection) -> usize {
        let recorder = std::sync::Arc::new(termite_obs::Recorder::new(
            termite_obs::DEFAULT_RING_CAPACITY,
        ));
        let guard = termite_obs::install(std::sync::Arc::clone(&recorder));
        run_selection(job, selection, &AnalysisOptions::default());
        drop(guard);
        recorder
            .drain()
            .iter()
            .filter(|e| e.name == "invariant_init")
            .count()
    }

    #[test]
    fn a_job_builds_its_invariants_once_whatever_the_selection() {
        let j = job("var x, y; while (x > 0) { x = x + y; }");
        assert_eq!(
            invariant_init_spans(&j, &EngineSelection::full_portfolio()),
            1
        );
        assert_eq!(
            invariant_init_spans(&j, &EngineSelection::single(Engine::Termite)),
            1
        );
    }

    #[test]
    fn every_lane_answers_on_the_shared_snapshot_as_on_a_fresh_pipeline() {
        let jobs = AnalysisJob::from_all_suites_with(true);
        assert_eq!(jobs.len(), 62);
        for j in &jobs {
            for engine in EngineSelection::full_portfolio().engines() {
                let options = AnalysisOptions::with_engine(engine);
                let shared = run_selection(j, &EngineSelection::single(engine), &options);
                assert_eq!(
                    normalized(&shared.report),
                    fresh(j, &options),
                    "{}: {engine:?} answers differently on the shared snapshot",
                    j.name
                );
            }
        }
    }

    #[test]
    fn invariants_prepared_under_other_options_are_not_reused() {
        // One ascending sweep stops the forward fixpoint at `x = 0`: a
        // header "invariant" that is not one. The options a job is prepared
        // with never reach the analysis; the run's options decide.
        let odd = InvariantOptions {
            max_iterations: 1,
            ..InvariantOptions::default()
        };
        let p = parse_program("var x; x = 0; while (x < 10) { x = x + 1; }").unwrap();
        let j = AnalysisJob::from_program_with(&p, &odd, true);
        let defaults = AnalysisOptions::default();
        let program = j.program().unwrap();
        assert_ne!(
            termite_invariants::location_invariants(program, &odd)[0].to_string(),
            termite_invariants::location_invariants(program, &defaults.invariants)[0].to_string()
        );
        for engine in EngineSelection::full_portfolio().engines() {
            let options = AnalysisOptions::with_engine(engine);
            let shared = run_selection(&j, &EngineSelection::single(engine), &options);
            assert_eq!(
                normalized(&shared.report),
                fresh(&j, &options),
                "{engine:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a portfolio needs at least one engine")]
    fn empty_portfolio_is_rejected_at_the_boundary() {
        let j = job("var x; assume x >= 0; while (x > 0) { x = x - 1; }");
        run_selection(
            &j,
            &EngineSelection::Portfolio(Vec::new()),
            &AnalysisOptions::default(),
        );
    }

    #[test]
    fn optimized_jobs_report_in_source_variables() {
        let src = "var d0, x, d1; assume x >= 0; d0 = 3; d1 = d0 + x; \
                   while (x > 0) { x = x - 1; }";
        let p = parse_program(src).unwrap();
        let j = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        assert_eq!(j.ts.var_names(), &["x".to_string()]);
        let out = run_selection(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert!(out.report.proved());
        let rf = out.report.ranking_function().unwrap();
        assert_eq!(rf.num_vars(), 3, "ranking must live in the source space");
        assert_eq!(
            rf.var_names(),
            &["d0".to_string(), "x".to_string(), "d1".to_string()]
        );
        for d in 0..rf.dimension() {
            for k in 0..rf.num_locations() {
                let (lambda, _) = rf.component(d, k);
                assert!(lambda.entries()[0].is_zero() && lambda.entries()[2].is_zero());
            }
        }
        assert_eq!(out.report.stats.ir_vars_before, 3);
        assert_eq!(out.report.stats.ir_vars_after, 1);
    }

    #[test]
    fn selection_display_is_stable() {
        assert_eq!(
            EngineSelection::single(Engine::Termite).to_string(),
            "single:Termite"
        );
        assert_eq!(
            EngineSelection::full_portfolio().to_string(),
            "portfolio:CompleteLrf+Lasso+Termite+Eager+PodelskiRybalchenko+Heuristic+Piecewise"
        );
    }

    #[test]
    fn every_portfolio_engine_round_trips_through_its_name() {
        for engine in EngineSelection::full_portfolio().engines() {
            let name = engine_cli_name(engine);
            assert_eq!(parse_selection(name).unwrap().engines(), vec![engine]);
        }
        assert_eq!(
            parse_selection("podelski-rybalchenko").unwrap().engines(),
            vec![Engine::PodelskiRybalchenko]
        );
        assert!(parse_selection("complete").is_err());
    }

    #[test]
    fn single_engine_reports_winner_only_on_proof() {
        let j = job("var x; assume x >= 0; while (x > 0) { x = x - 1; }");
        let out = run_selection(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert_eq!(out.winner, Some(Engine::Termite));
        assert!(out.report.proved());

        let diverging = job("var x; assume x >= 1; while (x > 0) { x = x + 1; }");
        let out = run_selection(
            &diverging,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert_eq!(out.winner, None);
        assert!(!out.report.proved());
    }

    #[test]
    fn portfolio_finds_a_proof_and_no_proof_is_deterministic() {
        let j = job("var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }");
        let out = run_selection(
            &j,
            &EngineSelection::full_portfolio(),
            &AnalysisOptions::default(),
        );
        assert!(out.report.proved());
        assert!(out.winner.is_some());

        let diverging = job("var x; assume x >= 1; while (x > 0) { x = x + 1; }");
        let out = run_selection(
            &diverging,
            &EngineSelection::full_portfolio(),
            &AnalysisOptions::default(),
        );
        assert_eq!(out.winner, None);
        assert!(!out.report.proved());
        // Deterministic fallback: the preferred engine's report.
        assert_eq!(out.report.program, diverging.name);
        assert_eq!(out.report.stats.engine_won, None);
    }

    #[test]
    fn portfolio_report_names_the_winning_engine() {
        let j = job("var x; assume x >= 0; while (x > 0) { x = x - 1; }");
        let out = run_selection(
            &j,
            &EngineSelection::full_portfolio(),
            &AnalysisOptions::default(),
        );
        assert!(out.report.proved());
        assert_eq!(
            out.report.stats.engine_won,
            out.winner.map(|e| format!("{e:?}")),
            "the report must carry the winner's name"
        );
        // A single-engine run has no race to win.
        let single = run_selection(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert_eq!(single.report.stats.engine_won, None);
    }

    #[test]
    fn unconditional_proof_outranks_a_conditional_one() {
        // Terminates from *every* state (two-phase drift), but Termite only
        // proves it conditionally while the lasso engine has an unconditional
        // depth-2 certificate. The race must return the unconditional
        // verdict no matter how threads interleave.
        let j = job("var x, y; while (x > 0) { x = x + y; y = y - 1; }");
        for _ in 0..4 {
            let out = run_selection(
                &j,
                &EngineSelection::full_portfolio(),
                &AnalysisOptions::default(),
            );
            assert!(
                out.report.proved_unconditionally(),
                "conditional proofs must not pre-empt an unconditional one: {:?}",
                out.report.verdict
            );
            assert_eq!(out.winner, Some(Engine::Lasso));
        }
    }

    #[test]
    fn conditional_proof_still_wins_when_nothing_outranks_it() {
        // Terminates only from y ≤ −1: no engine can prove it
        // unconditionally, so the race runs to completion and returns
        // Termite's conditional verdict deterministically.
        let j = job("var x, y; while (x > 0) { x = x + y; }");
        let out = run_selection(
            &j,
            &EngineSelection::full_portfolio(),
            &AnalysisOptions::default(),
        );
        assert!(out.report.proved());
        assert!(!out.report.proved_unconditionally());
        assert_eq!(out.winner, Some(Engine::Termite));
        assert_eq!(out.report.stats.engine_won, Some("Termite".to_string()));
    }
}
