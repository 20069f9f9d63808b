//! Multiphase (nested) ranking templates for linear lasso programs, after
//! Leike & Heizmann ("Ranking templates for linear loops", arXiv 1401.5351).
//!
//! A *nested ranking function* of depth `k` for a loop relation `τ` is a
//! tuple of affine forms `⟨f_1, …, f_k⟩` such that for every step
//! `(x, x') ∈ τ`:
//!
//! * `C_i`:  `f_i(x) − f_i(x') + f_{i−1}(x) ≥ 1` for each `i` (with
//!   `f_0 ≡ 0`) — each phase decreases by at least `1 − f_{i−1}(x)`, and
//! * bound:  `f_k(x) ≥ 0`.
//!
//! Soundness: along an infinite execution `f_1` decreases by ≥ 1 every step,
//! so `f_1(x_t) → −∞`; once `f_{i−1}(x_t) → −∞ `the per-step decrease
//! `1 − f_{i−1}(x_t)` of `f_i` diverges, so `f_i(x_t) → −∞` by induction —
//! contradicting `f_k ≥ 0`. Depth 1 is exactly the linear-ranking-function
//! case; deeper templates prove phase-structured loops (e.g.
//! `x += y; y -= 1`) that have no lexicographic linear certificate over a
//! single location.
//!
//! # Encoding
//!
//! All conditions are conjunctive linear implications over the path
//! polyhedra of the DNF-expanded transition, so each depth is **one Farkas
//! feasibility LP** — no counterexample iteration. The depths share one
//! warm-started [`IncrementalLp`] in the style of
//! [`SynthesisLpWorkspace`](crate::workspace::SynthesisLpWorkspace):
//!
//! 1. at depth `k`, add the phase-`k` template variables and the untagged
//!    `C_k` rows, then *prime* with a zero-objective solve;
//! 2. snapshot, add the retractable bound rows (`f_k ≥ 0`, tagged
//!    `TAG_BOUND`), and solve;
//! 3. on failure, restore the snapshot — dropping the bound rows *and*
//!    their multipliers while reinstating the primed basis — and deepen.
//!
//! Equalities are emitted as `≥`/`≤` pairs so the incremental session keeps
//! its warm basis (a true `=` row would reset it).
//!
//! The untagged prefix `C_1 ∧ … ∧ C_k` of any deeper system is exactly the
//! depth-`k` prefix, and the first `k` phases of any deeper nested ranking
//! function satisfy it; hence an *infeasible priming solve* refutes nested
//! ranking functions of **every** depth — reported as the definitive
//! [`UnknownReason::NoRankingFunction`]. Exhausting the depth cap with the
//! bound always failing is merely a budget
//! ([`UnknownReason::ResourceBudget`]): a deeper template might still exist.
//! Multi-location programs, and DNF expansions over the disjunct budget, are
//! out of scope (`ResourceBudget`).
//!
//! # Depth 1: the complete linear-ranking-function test
//!
//! The `complete-lrf` engine is this prover capped at depth 1, after
//! Bagnara, Mesnard, Pescetti & Zaffanella ("The automatic synthesis of
//! linear ranking functions", arXiv 1004.0944). A depth-1 nested ranking
//! function *is* a linear ranking function, and every path polyhedron is
//! non-empty (`expand_paths` drops the empty ones), so the affine Farkas
//! lemma is an equivalence: the depth-1 system is feasible exactly when a
//! rational linear ranking function exists for the given paths. At cap 1 a
//! failed bound is therefore the definitive `NoRankingFunction`, not a
//! budget.

use crate::baselines::{expand_paths, PathTransition};
use crate::engine::AnalysisOptions;
use crate::report::{RankingFunction, SynthesisStats, UnknownReason, Verdict};
use termite_ir::TransitionSystem;
use termite_linalg::QVector;
use termite_lp::{IncrementalLp, LpOutcome, RowTag, VarId};
use termite_num::Rational;
use termite_polyhedra::Polyhedron;
use termite_smt::TermVar;

/// Maximum nesting depth tried before giving up with `ResourceBudget`.
pub const MAX_PHASES: usize = 3;

/// Row tag of the retractable `f_k ≥ 0` bound rows.
const TAG_BOUND: RowTag = RowTag(1);

/// One phase template `f(x) = coeffs·x + offset` as LP variables.
struct PhaseVars {
    coeffs: Vec<VarId>,
    offset: VarId,
}

/// Adds the Farkas rows certifying `∀v ∈ P(path) : target(v) ≥ rhs` (see
/// [`PathTransition::farkas_rows`]) with fresh multipliers named after
/// `prefix`, tagging every row (and implicitly scoping the multiplier
/// columns) with `tag`. Shared with the piecewise engine
/// ([`crate::piecewise`]), which emits the same row shape per segment pair.
#[allow(clippy::too_many_arguments)]
pub(crate) fn farkas_rows(
    inc: &mut IncrementalLp,
    path: &PathTransition,
    ts: &TransitionSystem,
    prefix: &str,
    target: impl Fn(TermVar) -> Vec<(VarId, Rational)>,
    rhs_terms: Vec<(VarId, Rational)>,
    rhs: Rational,
    tag: RowTag,
) {
    let mu: Vec<VarId> = (0..path.atoms.len())
        .map(|r| inc.add_var(format!("{prefix}_mu_{r}")))
        .collect();
    path.farkas_rows(ts, &mu, target, rhs_terms, rhs)
        .add_tagged(inc, tag);
}

/// Runs the multiphase synthesis, deepening from 1 to `max_depth`:
/// [`MAX_PHASES`] for the lasso lane, 1 for `complete-lrf` (see the module
/// docs for what a failure at each cap means).
pub fn prove(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    options: &AnalysisOptions,
    max_depth: usize,
    stats: &mut SynthesisStats,
) -> Verdict {
    let n = ts.num_vars();
    if ts.num_locations() != 1 {
        return Verdict::unknown(UnknownReason::ResourceBudget);
    }
    let Some(paths) = expand_paths(ts, invariants, options.max_eager_disjuncts) else {
        return Verdict::unknown(UnknownReason::ResourceBudget);
    };
    if options.cancel.is_cancelled() {
        return Verdict::unknown(UnknownReason::Cancelled);
    }
    stats.counterexamples = paths.len();
    if paths.is_empty() {
        stats.dimension = 0;
        return Verdict::Terminates(RankingFunction::new(n, ts.var_names().to_vec(), Vec::new()));
    }

    let mut inc = IncrementalLp::new();
    let cancel = options.cancel.clone();
    inc.set_interrupt(termite_lp::Interrupt::new(move || cancel.is_cancelled()));
    let mut phases: Vec<PhaseVars> = Vec::new();
    let verdict = 'depths: {
        for depth in 1..=max_depth {
            // Phase-`depth` template variables.
            let phase = PhaseVars {
                coeffs: (0..n)
                    .map(|i| inc.add_free_var(format!("f{depth}_{i}")))
                    .collect(),
                offset: inc.add_free_var(format!("f{depth}_0")),
            };
            // Untagged C_depth rows per path:
            //   (c_k + c_{k−1})·x − c_k·x' ≥ 1 − off_{k−1}.
            for (j, path) in paths.iter().enumerate() {
                let prev = phases.last();
                farkas_rows(
                    &mut inc,
                    path,
                    ts,
                    &format!("c{depth}_{j}"),
                    |v| {
                        if v.0 < n {
                            let mut t = vec![(phase.coeffs[v.0], Rational::one())];
                            if let Some(p) = prev {
                                t.push((p.coeffs[v.0], Rational::one()));
                            }
                            t
                        } else if v.0 < 2 * n {
                            vec![(phase.coeffs[v.0 - n], -Rational::one())]
                        } else {
                            Vec::new()
                        }
                    },
                    match prev {
                        Some(p) => vec![(p.offset, Rational::one())],
                        None => Vec::new(),
                    },
                    Rational::one(),
                    RowTag::UNTAGGED,
                );
            }
            phases.push(phase);
            // Priming solve over the pure C-prefix: its infeasibility
            // refutes every depth at once (see module docs).
            inc.maximize(Vec::new());
            stats.iterations += 1;
            let Some(primed) =
                stats.solve_lp(inc.num_constraints(), inc.num_vars(), || inc.solve())
            else {
                break 'depths Verdict::unknown(UnknownReason::Cancelled);
            };
            match primed.outcome {
                LpOutcome::Infeasible => {
                    break 'depths Verdict::unknown(UnknownReason::NoRankingFunction);
                }
                LpOutcome::Optimal { .. } | LpOutcome::Unbounded { .. } => {}
            }
            // The last depth never deepens, so its bound rows need no
            // retraction point.
            let snapshot = (depth < max_depth).then(|| inc.snapshot());
            // Retractable bound rows: f_depth(x) ≥ 0 on every path source.
            let last = phases.last().expect("just pushed");
            for (j, path) in paths.iter().enumerate() {
                farkas_rows(
                    &mut inc,
                    path,
                    ts,
                    &format!("b{depth}_{j}"),
                    |v| {
                        if v.0 < n {
                            vec![(last.coeffs[v.0], Rational::one())]
                        } else {
                            Vec::new()
                        }
                    },
                    vec![(last.offset, Rational::one())],
                    Rational::zero(),
                    TAG_BOUND,
                );
            }
            let Some(solution) =
                stats.solve_lp(inc.num_constraints(), inc.num_vars(), || inc.solve())
            else {
                break 'depths Verdict::unknown(UnknownReason::Cancelled);
            };
            if let LpOutcome::Optimal { assignment, .. } = solution.outcome {
                let components: Vec<Vec<(QVector, Rational)>> = phases
                    .iter()
                    .map(|p| {
                        let coeffs: QVector =
                            (0..n).map(|i| assignment[p.coeffs[i].0].clone()).collect();
                        vec![(coeffs, assignment[p.offset.0].clone())]
                    })
                    .collect();
                stats.dimension = depth;
                break 'depths Verdict::Terminates(RankingFunction::new(
                    n,
                    ts.var_names().to_vec(),
                    components,
                ));
            }
            // Bound failed at this depth: retract it (restoring the primed
            // basis) and deepen.
            if let Some(snapshot) = snapshot {
                if inc.restore(&snapshot) {
                    stats.basis_reuses += 1;
                }
                debug_assert_eq!(
                    inc.rows_tagged(TAG_BOUND),
                    0,
                    "bound rows must be retracted before deepening"
                );
            }
        }
        // Depth 1 is complete for linear ranking functions (module docs);
        // a deeper cap only bounds the search.
        Verdict::unknown(if max_depth == 1 {
            UnknownReason::NoRankingFunction
        } else {
            UnknownReason::ResourceBudget
        })
    };
    stats.lp_warm_hits += inc.warm_solves();
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisOptions, Engine};
    use termite_ir::parse_program;

    fn universe(n: usize) -> Vec<Polyhedron> {
        vec![Polyhedron::universe(n)]
    }

    fn prove_src(src: &str, n: usize) -> (Verdict, SynthesisStats) {
        let ts = parse_program(src).unwrap().transition_system();
        assert_eq!(ts.num_locations(), 1, "test programs are single loops");
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::Lasso);
        let v = prove(&ts, &universe(n), &options, MAX_PHASES, &mut stats);
        (v, stats)
    }

    /// Runs `complete-lrf`: the prover capped at depth 1.
    fn prove_linear(ts: &TransitionSystem, invariants: &[Polyhedron]) -> (Verdict, SynthesisStats) {
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::CompleteLrf);
        let v = prove(ts, invariants, &options, 1, &mut stats);
        (v, stats)
    }

    #[test]
    fn depth_one_subsumes_linear_ranking_functions() {
        let (v, stats) = prove_src("var x; while (x > 0) { x = x - 1; }", 1);
        assert!(matches!(v, Verdict::Terminates(_)), "got {v:?}");
        assert_eq!(stats.dimension, 1);
    }

    #[test]
    fn two_phase_drift_needs_depth_two() {
        // x grows while y is positive, then shrinks forever: terminating
        // from *every* state, but with no linear (depth-1) certificate.
        let (v, stats) = prove_src("var x, y; while (x > 0) { x = x + y; y = y - 1; }", 2);
        match v {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 2),
            other => panic!("lasso must prove the two-phase drift, got {other:?}"),
        }
        assert_eq!(stats.dimension, 2);
        assert!(
            stats.basis_reuses >= 1,
            "deepening must reuse the primed basis"
        );
    }

    #[test]
    fn three_phase_cascade_needs_depth_three() {
        let (v, stats) = prove_src(
            "var x, y, z; while (x > 0) { x = x + y; y = y + z; z = z - 1; }",
            3,
        );
        match v {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 3),
            other => panic!("lasso must prove the three-phase cascade, got {other:?}"),
        }
        assert_eq!(stats.dimension, 3);
    }

    #[test]
    fn diverging_counter_is_refuted_for_every_depth() {
        // x' = x + 1 on x ≥ 1: the C-prefix itself is infeasible at depth 2,
        // which refutes nested ranking functions of every depth.
        let (v, _) = prove_src("var x; assume x >= 1; while (x > 0) { x = x + 1; }", 1);
        assert!(
            matches!(
                v,
                Verdict::Unknown {
                    reason: UnknownReason::NoRankingFunction
                }
            ),
            "got {v:?}"
        );
    }

    #[test]
    fn nested_certificate_is_valid_on_the_two_phase_drift() {
        // Re-check the emitted phases against the nested-template conditions
        // on a grid of concrete states (the differential harness does this
        // with random programs; this pins the encoding's sign conventions).
        use termite_num::Rational;
        let ts = parse_program("var x, y; while (x > 0) { x = x + y; y = y - 1; }")
            .unwrap()
            .transition_system();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::Lasso);
        let rf = match prove(&ts, &universe(2), &options, MAX_PHASES, &mut stats) {
            Verdict::Terminates(rf) => rf,
            other => panic!("expected a proof, got {other:?}"),
        };
        let eval = |d: usize, x: i64, y: i64| -> Rational {
            let (coeffs, offset) = rf.component(d, 0);
            &coeffs[0] * &Rational::from(x) + &coeffs[1] * &Rational::from(y) + offset.clone()
        };
        for x in 1..6i64 {
            for y in -5..6i64 {
                let (x2, y2) = (x + y, y - 1);
                // C_1: f_1(s) − f_1(s') ≥ 1; C_2 adds the f_1 slack;
                // bound: f_2(s) ≥ 0.
                assert!(eval(0, x, y) - eval(0, x2, y2) >= Rational::one());
                assert!(
                    eval(1, x, y) - eval(1, x2, y2) + eval(0, x, y) >= Rational::one(),
                    "C_2 violated at ({x},{y})"
                );
                assert!(eval(1, x, y) >= Rational::zero());
            }
        }
    }

    #[test]
    fn depth_one_cap_proves_the_countdown_with_dimension_one() {
        let ts = parse_program("var x; while (x > 0) { x = x - 1; }")
            .unwrap()
            .transition_system();
        let (v, stats) = prove_linear(&ts, &universe(1));
        match v {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 1),
            other => panic!("complete-lrf must prove the countdown, got {other:?}"),
        }
        assert_eq!(stats.dimension, 1);
    }

    #[test]
    fn depth_one_cap_refutes_the_two_phase_choice_loop() {
        // The classic two-phase loop has no *linear* RF (it needs a
        // lexicographic or multiphase argument): at cap 1 the failed bound
        // is the definitive refutation, not a budget.
        let ts = parse_program(
            r#"
            var x, y;
            while (x > 0) {
                choice {
                    assume y > 0;  y = y - 1;
                } or {
                    assume y <= 0; x = x - 1;
                }
            }
            "#,
        )
        .unwrap()
        .transition_system();
        let (v, _) = prove_linear(&ts, &universe(2));
        assert!(
            matches!(
                v,
                Verdict::Unknown {
                    reason: UnknownReason::NoRankingFunction
                }
            ),
            "got {v:?}"
        );
    }

    #[test]
    fn depth_one_cap_leaves_multi_location_programs_out_of_scope() {
        let ts = parse_program(
            r#"
            var i, j;
            while (i > 0) {
                j = i;
                while (j > 0) { j = j - 1; }
                i = i - 1;
            }
            "#,
        )
        .unwrap()
        .transition_system();
        assert!(ts.num_locations() > 1);
        let (v, _) = prove_linear(&ts, &universe(2));
        assert!(
            matches!(
                v,
                Verdict::Unknown {
                    reason: UnknownReason::ResourceBudget
                }
            ),
            "got {v:?}"
        );
    }

    #[test]
    fn depth_one_cap_on_an_empty_invariant_is_dimension_zero() {
        use termite_polyhedra::Constraint;
        let ts = parse_program("var x; while (x > 0) { x = x - 1; }")
            .unwrap()
            .transition_system();
        // Empty invariant at the cut point: no feasible path survives.
        let empty = vec![Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), Rational::from(1)),
                Constraint::le(QVector::from_i64(&[1]), Rational::from(0)),
            ],
        )];
        match prove_linear(&ts, &empty).0 {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 0),
            other => panic!("unreachable body must be trivially terminating, got {other:?}"),
        }
    }
}
