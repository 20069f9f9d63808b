//! Complete linear-ranking-function existence test, after Bagnara, Mesnard,
//! Pescetti & Zaffanella ("The automatic synthesis of linear ranking
//! functions", arXiv 1004.0944).
//!
//! For a loop with a **single cut point** whose transition relation is a
//! union of convex path polyhedra `P_1 ∪ … ∪ P_m` (the DNF expansion of the
//! block transition, conjoined with the source invariant), a *linear* ranking
//! function `ρ(x) = λ·x + λ0` exists **iff** one LP is feasible: for every
//! path `j`, Farkas multipliers certify
//!
//! * decrease: `∀(x, x', z) ∈ P_j : λ·x − λ·x' ≥ 1`, and
//! * bound:    `∀(x, x', z) ∈ P_j : λ·x + λ0 ≥ 0`
//!
//! (`z` are the auxiliary existential variables of the large-block encoding;
//! `ρ` does not mention them, so validity over `P_j` coincides with validity
//! over its projection onto the pre/post variables). Since each `P_j` is
//! checked non-empty by `expand_paths`,
//! the affine form of Farkas' lemma is an equivalence, not just a sufficient
//! condition — both directions hold:
//!
//! * **Feasible** ⟹ the extracted `(λ, λ0)` is a linear ranking function:
//!   [`Verdict::Terminates`], dimension 1.
//! * **Infeasible** ⟹ *no* rational linear ranking function exists for the
//!   given path polyhedra (the strict decrease `> 0` can always be scaled to
//!   `≥ 1` over the rationals): [`Verdict::Unknown`] with
//!   [`UnknownReason::NoRankingFunction`] — a *definitive* negative answer,
//!   unlike the heuristic engines' "gave up".
//!
//! The engine is intentionally partial: programs with more than one cut
//! point, or whose DNF exceeds the disjunct budget, are out of scope and
//! reported as [`UnknownReason::ResourceBudget`] (never as
//! `NoRankingFunction` — the completeness claim only covers the single-
//! location case this module actually encodes). Registered first in the
//! default portfolio, it disposes of trivially-rankable single-path loops
//! before the heavier engines finish warming up.

use crate::baselines::{expand_paths, PathTransition};
use crate::engine::AnalysisOptions;
use crate::report::{RankingFunction, SynthesisStats, UnknownReason, Verdict};
use std::collections::BTreeSet;
use termite_ir::TransitionSystem;
use termite_linalg::QVector;
use termite_lp::{Constraint as LpConstraint, LinearProgram, LpOutcome, Relation, VarId};
use termite_num::Rational;
use termite_polyhedra::Polyhedron;
use termite_smt::TermVar;

/// Adds the Farkas certificate rows for `∀v ∈ P(atoms) : target(v) ≥ rhs`,
/// where `target` maps each variable of the path polyhedron to a linear
/// combination of the free template variables. Fresh multipliers `μ ≥ 0`
/// (one per atom) are introduced; rows assert `Σ_r μ_r·coeff_{r,v} =
/// target_v` per variable and `Σ_r μ_r·rhs_r ≥ rhs`.
#[allow(clippy::too_many_arguments)]
fn farkas_rows(
    lp: &mut LinearProgram,
    path: &PathTransition,
    n: usize,
    ts: &TransitionSystem,
    prefix: &str,
    target: impl Fn(TermVar) -> Vec<(VarId, Rational)>,
    rhs_terms: Vec<(VarId, Rational)>,
    rhs: Rational,
) {
    let mu_ids: Vec<VarId> = (0..path.atoms.len())
        .map(|r| lp.add_var(format!("{prefix}_mu_{r}")))
        .collect();
    let mut vars: BTreeSet<TermVar> = BTreeSet::new();
    for a in &path.atoms {
        vars.extend(a.vars());
    }
    for i in 0..n {
        vars.insert(ts.pre_var(i));
        vars.insert(ts.post_var(i));
    }
    for v in vars {
        // Σ_r μ_r · coeff_{r,v} − target_v = 0
        let mut terms: Vec<(VarId, Rational)> = path
            .atoms
            .iter()
            .enumerate()
            .filter_map(|(r, a)| {
                a.coeffs
                    .get(&v)
                    .map(|c| (mu_ids[r], Rational::from_int(c.clone())))
            })
            .collect();
        terms.extend(target(v).into_iter().map(|(id, c)| (id, -c)));
        if terms.is_empty() {
            continue;
        }
        lp.add_constraint(LpConstraint::new(terms, Relation::Eq, Rational::zero()));
    }
    // Σ_r μ_r · rhs_r + rhs_terms ≥ rhs
    let mut terms: Vec<(VarId, Rational)> = path
        .atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.rhs.is_zero())
        .map(|(r, a)| (mu_ids[r], Rational::from_int(a.rhs.clone())))
        .collect();
    terms.extend(rhs_terms);
    lp.add_constraint(LpConstraint::new(terms, Relation::Ge, rhs));
}

/// Runs the complete existence test. See the module documentation for the
/// exact contract of each verdict.
pub fn prove(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    options: &AnalysisOptions,
    stats: &mut SynthesisStats,
) -> Verdict {
    let n = ts.num_vars();
    if ts.num_locations() != 1 {
        // Out of the engine's scope — a *non-answer*, never a completeness
        // claim.
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
        // The loop body is unreachable under the invariant: trivially
        // terminating, dimension 0.
        stats.dimension = 0;
        return Verdict::Terminates(RankingFunction::new(n, ts.var_names().to_vec(), Vec::new()));
    }

    let mut lp = LinearProgram::new();
    let lambda_ids: Vec<VarId> = (0..n)
        .map(|i| lp.add_free_var(format!("lambda_{i}")))
        .collect();
    let lambda0_id = lp.add_free_var("lambda0");
    for (j, path) in paths.iter().enumerate() {
        // Decrease on P_j: λ·x − λ·x' ≥ 1.
        farkas_rows(
            &mut lp,
            path,
            n,
            ts,
            &format!("dec_{j}"),
            |v| {
                if v.0 < n {
                    vec![(lambda_ids[v.0], Rational::one())]
                } else if v.0 < 2 * n {
                    vec![(lambda_ids[v.0 - n], -Rational::one())]
                } else {
                    Vec::new()
                }
            },
            Vec::new(),
            Rational::one(),
        );
        // Bound on P_j: λ·x + λ0 ≥ 0, i.e. Σμb·rhs + λ0 ≥ 0.
        farkas_rows(
            &mut lp,
            path,
            n,
            ts,
            &format!("bnd_{j}"),
            |v| {
                if v.0 < n {
                    vec![(lambda_ids[v.0], Rational::one())]
                } else {
                    Vec::new()
                }
            },
            vec![(lambda0_id, Rational::one())],
            Rational::zero(),
        );
    }
    // Pure feasibility: the zero objective keeps the solve at one phase.
    lp.maximize(Vec::new());
    stats.iterations += 1;
    let cancel = options.cancel.clone();
    let interrupt = termite_lp::Interrupt::new(move || cancel.is_cancelled());
    let Some(solution) = stats.solve_lp(lp.num_constraints(), lp.num_vars(), || {
        lp.solve_interruptible(&interrupt)
    }) else {
        return Verdict::unknown(UnknownReason::Cancelled);
    };
    match solution.outcome {
        LpOutcome::Optimal { assignment, .. } => {
            let lambda: QVector = (0..n)
                .map(|i| assignment[lambda_ids[i].0].clone())
                .collect();
            let lambda0 = assignment[lambda0_id.0].clone();
            stats.dimension = 1;
            Verdict::Terminates(RankingFunction::new(
                n,
                ts.var_names().to_vec(),
                vec![vec![(lambda, lambda0)]],
            ))
        }
        // Farkas is an equivalence on the non-empty path polyhedra: the
        // infeasibility *is* the proof that no rational linear ranking
        // function exists for these paths.
        LpOutcome::Infeasible => Verdict::unknown(UnknownReason::NoRankingFunction),
        // Unreachable with a zero objective; answer conservatively.
        LpOutcome::Unbounded { .. } => Verdict::unknown(UnknownReason::ResourceBudget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisOptions, Engine};
    use termite_ir::parse_program;
    use termite_linalg::QVector;
    use termite_num::Rational;
    use termite_polyhedra::Constraint;

    fn universe(n: usize) -> Vec<Polyhedron> {
        vec![Polyhedron::universe(n)]
    }

    #[test]
    fn proves_simple_countdown_with_dimension_one() {
        let ts = parse_program("var x; while (x > 0) { x = x - 1; }")
            .unwrap()
            .transition_system();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::CompleteLrf);
        match prove(&ts, &universe(1), &options, &mut stats) {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 1),
            other => panic!("complete-lrf must prove the countdown, got {other:?}"),
        }
        assert_eq!(stats.dimension, 1);
    }

    #[test]
    fn no_lrf_answer_is_definitive_on_two_phase_loop() {
        // The classic two-phase loop has no *linear* RF (it needs a
        // lexicographic or multiphase argument), and the engine must say so
        // definitively.
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
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::CompleteLrf);
        assert!(matches!(
            prove(&ts, &universe(2), &options, &mut stats),
            Verdict::Unknown {
                reason: UnknownReason::NoRankingFunction
            }
        ));
    }

    #[test]
    fn multi_location_programs_are_out_of_scope() {
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
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::CompleteLrf);
        assert!(matches!(
            prove(&ts, &universe(2), &options, &mut stats),
            Verdict::Unknown {
                reason: UnknownReason::ResourceBudget
            }
        ));
    }

    #[test]
    fn unreachable_body_is_dimension_zero() {
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
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::CompleteLrf);
        match prove(&ts, &empty, &options, &mut stats) {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 0),
            other => panic!("unreachable body must be trivially terminating, got {other:?}"),
        }
    }
}
