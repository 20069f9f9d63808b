//! Top-level analysis entry points: engine selection and the
//! conditional-termination refinement loop.
//!
//! PR 3 architecture: the engines no longer consume a one-shot invariant
//! map. [`prove_termination`] builds a
//! [`termite_invariants::FixpointPipeline`] (forward fixpoint + Houdini
//! strengthening + backward precondition inference) and drives a refinement
//! loop around the synthesis: a failed run hands its spurious extremal
//! counterexample back to the pipeline, which may answer with stronger,
//! precondition-seeded invariants for a retry. A proof found under a
//! narrowed entry set is reported as the conditional verdict
//! [`Verdict::TerminatesIf`].
//!
//! The pipeline's initial stages come from a
//! [`termite_invariants::InvariantSnapshot`] ([`invariant_snapshot`]), which
//! engines racing on the same program share through
//! [`prove_with_snapshot`].

use crate::baselines;
use crate::cancel::CancelToken;
use crate::multidim::synthesize_lexicographic;
use crate::regions::enabled_invariants;
use crate::report::{
    Precondition, RankingFunction, SynthesisStats, TerminationReport, UnknownReason, Verdict,
};
use std::sync::Arc;
use std::time::Instant;
use termite_invariants::{
    FixpointPipeline, InvariantOptions, InvariantSnapshot, RefinementWitness,
};
use termite_ir::{Program, TransitionSystem};
use termite_linalg::QVector;
use termite_polyhedra::Polyhedron;

/// Which termination prover to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// The paper's contribution: counterexample-guided synthesis of
    /// lexicographic linear ranking functions (Algorithms 1–3).
    #[default]
    Termite,
    /// Eager baseline in the style of Rank / Alias et al. 2010: DNF-expand the
    /// block transitions and build one large Farkas LP per dimension.
    Eager,
    /// Podelski–Rybalchenko-style baseline: a single (monodimensional) linear
    /// ranking function over the DNF expansion, all transitions strict — the
    /// eager baseline capped at one lexicographic level.
    PodelskiRybalchenko,
    /// Syntactic heuristic baseline in the spirit of Loopus: guess candidate
    /// ranking expressions from the loop guards and verify them with single
    /// SMT queries.
    Heuristic,
    /// Multiphase (nested) ranking templates for single-location lasso
    /// programs, after Leike & Heizmann: one warm-started Farkas feasibility
    /// LP per nesting depth, deepening up to [`crate::lasso::MAX_PHASES`].
    Lasso,
    /// Complete linear-ranking-function existence test for single-location
    /// loops, after Bagnara et al.: the lasso engine capped at depth 1, whose
    /// infeasible Farkas system *definitively* refutes linear ranking
    /// functions (see [`crate::lasso`]).
    CompleteLrf,
    /// Piecewise ranking functions over a learned segment lattice, after
    /// Kura, Unno & Hasuo: split the state space on predicates harvested
    /// from the DNF path guards, synthesise one affine ranking function per
    /// segment in a single Farkas LP, and emit the segments as a DNF
    /// conditional certificate (see [`crate::piecewise`]).
    Piecewise,
}

/// Options of the termination analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Which prover to run.
    pub engine: Engine,
    /// Options of the polyhedral invariant generator.
    pub invariants: InvariantOptions,
    /// Bound on counterexample-guided iterations per lexicographic dimension.
    pub max_iterations_per_dim: usize,
    /// Bound on the number of DNF disjuncts the eager baselines may build
    /// before giving up.
    pub max_eager_disjuncts: usize,
    /// Bound on precondition-refinement rounds of the conditional-termination
    /// pipeline (`0` disables conditional verdicts; only the Termite engine
    /// produces refinement witnesses).
    pub max_refinements: usize,
    /// Cooperative cancellation: the provers poll this token at every
    /// iteration / lexicographic level — and, via [`termite_lp::Interrupt`],
    /// inside every simplex pivot loop, including the ones under the SMT
    /// theory solver — and report [`Verdict::Unknown`] once it fires.
    /// Portfolio drivers share one token between racing engines; deadlines
    /// are tokens too ([`CancelToken::with_deadline`]).
    pub cancel: CancelToken,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            engine: Engine::Termite,
            invariants: InvariantOptions::default(),
            max_iterations_per_dim: 120,
            max_eager_disjuncts: 4096,
            max_refinements: 3,
            cancel: CancelToken::new(),
        }
    }
}

impl AnalysisOptions {
    /// Convenience constructor selecting an engine with default settings.
    pub fn with_engine(engine: Engine) -> Self {
        AnalysisOptions {
            engine,
            ..Default::default()
        }
    }

    /// The same options with the given cancellation token installed.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// One synthesis attempt: either a proof verdict (`Terminates`, or a
/// DNF `TerminatesIf` from the piecewise engine) or a reason plus
/// (possibly) a refinement witness.
type Attempt = Result<Verdict, (UnknownReason, Option<(usize, QVector)>)>;

/// Runs the selected engine once against a fixed set of invariants.
fn attempt(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    options: &AnalysisOptions,
    stats: &mut SynthesisStats,
) -> Attempt {
    if ts.num_locations() == 0 {
        // No loop: trivially terminating.
        return Ok(Verdict::Terminates(RankingFunction::new(
            ts.num_vars(),
            ts.var_names().to_vec(),
            Vec::new(),
        )));
    }
    match options.engine {
        Engine::Termite => {
            // Per-level enabled-region strengthening happens inside the
            // lexicographic driver (see `crate::regions`).
            let outcome = synthesize_lexicographic(
                ts,
                invariants,
                options.max_iterations_per_dim,
                &options.cancel,
                stats,
            );
            match outcome.components {
                Some(components) => Ok(Verdict::Terminates(RankingFunction::new(
                    ts.num_vars(),
                    ts.var_names().to_vec(),
                    components
                        .into_iter()
                        .map(|t| t.lambda.into_iter().zip(t.lambda0).collect())
                        .collect(),
                ))),
                None => {
                    let reason = if outcome.cancelled {
                        UnknownReason::Cancelled
                    } else if outcome.exhausted {
                        UnknownReason::ResourceBudget
                    } else {
                        UnknownReason::NoRankingFunction
                    };
                    Err((reason, outcome.witness))
                }
            }
        }
        engine => {
            // The baselines prove a single non-negativity region per
            // location: hand them the level-1 enabled regions (sound — every
            // transition source lies inside; see DESIGN.md).
            let enabled = enabled_invariants(ts, invariants);
            let verdict = match engine {
                Engine::Eager => baselines::eager::prove(ts, &enabled, options, usize::MAX, stats),
                Engine::PodelskiRybalchenko => {
                    baselines::eager::prove(ts, &enabled, options, 1, stats)
                }
                Engine::Heuristic => {
                    baselines::heuristic::prove(ts, &enabled, &options.cancel, stats)
                }
                Engine::Lasso => {
                    crate::lasso::prove(ts, &enabled, options, crate::lasso::MAX_PHASES, stats)
                }
                Engine::CompleteLrf => crate::lasso::prove(ts, &enabled, options, 1, stats),
                Engine::Piecewise => crate::piecewise::prove(ts, &enabled, options, stats),
                Engine::Termite => unreachable!("handled above"),
            };
            match verdict {
                Verdict::Unknown { reason } => Err((reason, None)),
                proof => Ok(proof),
            }
        }
    }
}

/// The interruption source the invariant stages and the DNF lanes poll:
/// `options.cancel`.
pub(crate) fn interrupt_of(options: &AnalysisOptions) -> termite_lp::Interrupt {
    let cancel = options.cancel.clone();
    termite_lp::Interrupt::new(move || cancel.is_cancelled())
}

/// Builds the invariant snapshot of `program` (forward fixpoint + Houdini,
/// see [`InvariantSnapshot`]) under one `invariant_init` span, polling
/// `options.cancel`. Returns it with its build time in milliseconds, which
/// belongs in the `invariant_millis` of exactly one report however many
/// engines share the snapshot.
pub fn invariant_snapshot(
    program: &Program,
    ts: &TransitionSystem,
    options: &AnalysisOptions,
) -> (Arc<InvariantSnapshot>, f64) {
    let start = Instant::now();
    let _span = termite_obs::span!("invariant_init");
    let snapshot = InvariantSnapshot::new(program, ts, &options.invariants, &interrupt_of(options));
    (Arc::new(snapshot), start.elapsed().as_secs_f64() * 1000.0)
}

/// Proves termination of a program of the mini language: front-end,
/// invariant pipeline (with precondition refinement) and ranking-function
/// synthesis. A thin wrapper: [`invariant_snapshot`], then
/// [`prove_with_snapshot`].
///
/// As in the paper's Table 1, the reported `synthesis_millis` excludes
/// parsing and the initial invariant stages. Refinement rounds re-run the
/// invariant stages inside the synthesis loop, so `synthesis_millis`
/// includes them; `invariant_millis` reports all invariant work (initial
/// stages, refinement rounds and ¬g re-verification) on its own.
pub fn prove_termination(program: &Program, options: &AnalysisOptions) -> TerminationReport {
    let ts = program.transition_system();
    let (snapshot, snapshot_millis) = invariant_snapshot(program, &ts, options);
    let mut report = prove_with_snapshot(&ts, &snapshot, options);
    report.stats.invariant_millis += snapshot_millis;
    report
}

/// Runs the selected engine (with precondition refinement for Termite) on
/// a transition system whose initial invariant stages are already in
/// `snapshot` — the entry point for engines that share one snapshot, such
/// as the lanes of a portfolio race. `ts` must be the transition system of
/// the snapshot's program. The snapshot's build time is the caller's to
/// report: the returned `invariant_millis` covers only the refinement and
/// re-verification work done here.
pub fn prove_with_snapshot(
    ts: &TransitionSystem,
    snapshot: &Arc<InvariantSnapshot>,
    options: &AnalysisOptions,
) -> TerminationReport {
    // Only the Termite engine produces refinement witnesses; the baselines
    // run on the snapshot's invariants and stop there.
    let refinement_budget = if options.engine == Engine::Termite {
        options.max_refinements
    } else {
        0
    };
    let mut pipeline = FixpointPipeline::from_snapshot(
        Arc::clone(snapshot),
        ts,
        refinement_budget,
        interrupt_of(options),
    );
    let mut report = prove_with_pipeline(ts, &mut pipeline, options);
    verify_pending_disjuncts(ts, &pipeline, options, &mut report);
    report
}

/// Tries to promote the pipeline's pending `¬g` disjuncts into the
/// conditional verdict: each candidate region is re-verified by a fresh,
/// entry-seeded analysis (no refinement) on the pipeline's snapshot, and
/// joins the DNF — with its own ranking function — only when that analysis
/// proves termination from it. Unverified candidates are silently dropped,
/// keeping the reported precondition a sound under-approximation.
fn verify_pending_disjuncts(
    ts: &TransitionSystem,
    pipeline: &FixpointPipeline<'_>,
    options: &AnalysisOptions,
    report: &mut TerminationReport,
) {
    let Verdict::TerminatesIf { disjuncts, .. } = &mut report.verdict else {
        return;
    };
    for candidate in pipeline.pending_disjuncts() {
        if options.cancel.is_cancelled() {
            return;
        }
        if disjuncts.iter().any(|d| candidate.is_subset_of(&d.clause)) {
            continue;
        }
        let invariant_start = Instant::now();
        let mut sub = FixpointPipeline::reseeded(
            pipeline.snapshot(),
            ts,
            interrupt_of(options),
            candidate.clone(),
        );
        let initial_invariant_millis = invariant_start.elapsed().as_secs_f64() * 1000.0;
        let mut verified = prove_with_pipeline(ts, &mut sub, options);
        verified.stats.invariant_millis += initial_invariant_millis;
        report.stats.merge(&verified.stats);
        if let Verdict::Terminates(rf) = verified.verdict {
            disjuncts.push(Precondition::with_ranking(candidate.clone(), rf));
        }
    }
}

/// Proves termination of a transition system against a
/// [`FixpointPipeline`]: the refinement loop at the heart of the
/// conditional-termination architecture.
pub fn prove_with_pipeline(
    ts: &TransitionSystem,
    pipeline: &mut FixpointPipeline<'_>,
    options: &AnalysisOptions,
) -> TerminationReport {
    // The pipeline's SMT loops poll the same token as the synthesis, so a
    // cancel or deadline lands mid-refinement, not after the round.
    let cancel = options.cancel.clone();
    pipeline.set_interrupt(termite_lp::Interrupt::new(move || cancel.is_cancelled()));
    let mut stats = SynthesisStats::default();
    let start = Instant::now();
    let verdict = loop {
        let invariants = pipeline.invariants().to_vec();
        match attempt(ts, &invariants, options, &mut stats) {
            Ok(proof) => {
                break match (pipeline.precondition(), proof) {
                    (None, proof) => proof,
                    (Some(p), Verdict::Terminates(rf)) => Verdict::terminates_if(p.clone(), rf),
                    // An engine-level DNF proof under a pipeline-narrowed
                    // entry: both conditions must hold, so conjoin the
                    // pipeline precondition onto every disjunct.
                    (Some(p), Verdict::TerminatesIf { disjuncts, ranking }) => {
                        Verdict::TerminatesIf {
                            disjuncts: disjuncts
                                .into_iter()
                                .map(|d| Precondition {
                                    clause: d.clause.intersection(p).minimize(),
                                    ranking: d.ranking,
                                })
                                .collect(),
                            ranking,
                        }
                    }
                    (_, unknown) => unknown,
                };
            }
            Err((reason, witness)) => {
                let retry = match (&witness, reason) {
                    (Some((location, state)), UnknownReason::NoRankingFunction) => {
                        let refine_start = Instant::now();
                        let _span = termite_obs::span!("invariant_refine", location = *location);
                        let retry = pipeline.refine(&RefinementWitness {
                            location: *location,
                            state: state.clone(),
                        });
                        stats.invariant_millis += refine_start.elapsed().as_secs_f64() * 1000.0;
                        retry
                    }
                    _ => false,
                };
                if retry {
                    stats.refinements += 1;
                    continue;
                }
                // A refinement abandoned because the token fired is a
                // cancellation, not a completed "no ranking function"
                // search: report it as such so callers (the serve cancel
                // protocol, portfolio losers) see the true cause.
                break Verdict::unknown(if options.cancel.is_cancelled() {
                    UnknownReason::Cancelled
                } else {
                    reason
                });
            }
        }
    };
    stats.synthesis_millis = start.elapsed().as_secs_f64() * 1000.0;
    TerminationReport {
        program: ts.name().to_string(),
        verdict,
        stats,
    }
}

/// Proves termination of a cut-point transition system with the given
/// per-location invariants — the one-shot path (no refinement, no
/// conditional verdicts), used when the caller has already prepared
/// invariants and dropped the program source.
pub fn prove_transition_system(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    options: &AnalysisOptions,
) -> TerminationReport {
    let mut stats = SynthesisStats::default();
    let start = Instant::now();
    let verdict = match attempt(ts, invariants, options, &mut stats) {
        Ok(proof) => proof,
        Err((reason, _)) => Verdict::unknown(reason),
    };
    stats.synthesis_millis = start.elapsed().as_secs_f64() * 1000.0;
    TerminationReport {
        program: ts.name().to_string(),
        verdict,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_program;

    #[test]
    fn straight_line_program_is_trivially_terminating() {
        let p = parse_program("var x; x = 1; x = x + 2;").unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        assert!(report.proved_unconditionally());
        assert_eq!(report.ranking_function().unwrap().dimension(), 0);
    }

    #[test]
    fn quickstart_example_terminates() {
        let p = parse_program(
            r#"
            var x, y;
            assume x == 5 && y == 10;
            while (true) {
                choice {
                    assume x <= 10 && y >= 0; x = x + 1; y = y - 1;
                } or {
                    assume x >= 0 && y >= 0;  x = x - 1; y = y - 1;
                }
            }
            "#,
        )
        .unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        assert!(
            report.proved_unconditionally(),
            "Example 1 of the paper must be proved terminating"
        );
        assert_eq!(report.ranking_function().unwrap().dimension(), 1);
        assert!(report.stats.synthesis_millis >= 0.0);
    }

    #[test]
    fn assume_less_countdown_is_proved_by_the_enabled_region() {
        // ROADMAP "Prover power": ρ(x) = x is bounded below on the guard
        // region x >= 1 even though the invariant is ⊤.
        let p = parse_program("var x; while (x > 0) { x = x - 1; }").unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        assert!(
            report.proved_unconditionally(),
            "the bounded-from-below relaxation must prove the bare countdown"
        );
    }

    #[test]
    fn conditional_termination_infers_a_precondition() {
        // Terminates exactly from y <= -1 (integers): the refinement loop
        // must find the precondition and report a conditional verdict.
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        match &report.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => {
                use termite_linalg::QVector;
                assert!(
                    disjuncts
                        .iter()
                        .all(|d| !d.clause.contains_point(&QVector::from_i64(&[5, 0]))),
                    "every disjunct must exclude non-terminating starts: {disjuncts:?}"
                );
                assert!(report.stats.refinements >= 1);
            }
            other => panic!("expected a conditional verdict, got {other:?}"),
        }
    }

    #[test]
    fn disjunctive_precondition_keeps_the_verified_not_g_branch() {
        // True precondition (y <= -1) ∨ (x >= 5): the then-branch resets y
        // to -1, so large-x entries terminate whatever their initial y. The
        // pipeline's primary (convex) candidate is y <= -1; the ¬g disjunct
        // x >= 5 must survive the backward walk, be re-verified by an
        // entry-seeded analysis, and join the DNF verdict with its own
        // ranking.
        use termite_linalg::QVector;
        let p = parse_program(
            "var x, y; if (x >= 5) { y = 0 - 1; } else { y = y; } \
             while (x > 0) { x = x + y; }",
        )
        .unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        match &report.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => {
                let covers = |x: i64, y: i64| {
                    disjuncts
                        .iter()
                        .any(|d| d.clause.contains_point(&QVector::from_i64(&[x, y])))
                };
                assert!(covers(7, -2), "the primary disjunct carries y <= -1");
                assert!(
                    covers(9, 3),
                    "the ¬g disjunct x >= 5 must be kept: {disjuncts:?}"
                );
                assert!(!covers(3, 0), "x = 3, y = 0 diverges and must be excluded");
                assert!(
                    disjuncts.len() >= 2 && disjuncts[1].ranking.is_some(),
                    "verified extra disjuncts carry their own certificate"
                );
            }
            other => panic!("expected a disjunctive conditional verdict, got {other:?}"),
        }
    }

    #[test]
    fn verified_disjuncts_fold_their_stats_into_the_report() {
        // The ¬g re-verification runs whole sub-analyses: their CEGIS
        // iterations and time belong in the job's report, not only the
        // primary pipeline's.
        let p = parse_program(
            "var x, y; if (x >= 5) { y = 0 - 1; } else { y = y; } \
             while (x > 0) { x = x + y; }",
        )
        .unwrap();
        let options = AnalysisOptions::default();
        let ts = p.transition_system();
        let mut primary = FixpointPipeline::new(
            &p,
            &ts,
            &options.invariants,
            options.max_refinements,
            termite_lp::Interrupt::never(),
        );
        let alone = prove_with_pipeline(&ts, &mut primary, &options);
        let report = prove_termination(&p, &options);
        assert!(report.preconditions().len() >= 2, "{report}");
        assert!(
            report.stats.iterations > alone.stats.iterations,
            "{} iterations with the verified disjunct, {} without",
            report.stats.iterations,
            alone.stats.iterations
        );
        assert!(report.stats.counterexamples > alone.stats.counterexamples);
        assert_eq!(report.stats.dimension, alone.stats.dimension);
    }

    #[test]
    fn non_terminating_program_is_unknown() {
        let p = parse_program("var x; assume x >= 1; while (x > 0) { x = x + 1; }").unwrap();
        let report = prove_termination(&p, &AnalysisOptions::default());
        assert!(!report.proved());
    }
}
