//! Algorithm 1 / Algorithm 3: monodimensional synthesis by extremal
//! counterexamples, for one or several control points.

use crate::cancel::CancelToken;
use crate::lp_instance::RankingTemplate;
use crate::report::SynthesisStats;
use crate::workspace::SynthesisLpWorkspace;
use std::time::Instant;
use termite_ir::TransitionSystem;
use termite_linalg::{QVector, Subspace};
use termite_num::Rational;
use termite_polyhedra::Polyhedron;
use termite_smt::{
    Formula, LinExpr, Model, OptOutcome, OptResult, Prepared, SmtContext, SolverStats, TermVar,
};

/// Inputs of the monodimensional procedure.
pub struct MonodimInput<'a> {
    /// The cut-point transition system.
    pub ts: &'a TransitionSystem,
    /// Invariant of each cut point.
    pub invariants: &'a [Polyhedron],
    /// Components synthesised at previous lexicographic levels: the search is
    /// restricted to transitions on which they all stay constant
    /// (`λ_{d'}·u = 0`, Algorithm 2).
    pub previous: &'a [RankingTemplate],
    /// Bound on the number of counterexample-guided iterations.
    pub max_iterations: usize,
    /// Cooperative cancellation, polled between iterations.
    pub cancel: &'a CancelToken,
}

/// Result of the monodimensional procedure.
#[derive(Clone, Debug)]
pub struct MonodimResult {
    /// The quasi ranking function of maximal termination power.
    pub template: RankingTemplate,
    /// Whether it is a *strict* ranking function for the (restricted)
    /// transition relation.
    pub strict: bool,
    /// Number of counterexample-guided iterations performed.
    pub iterations: usize,
    /// `true` when the run was interrupted by the cancellation token; the
    /// template is then a partial artefact, not a maximal-power quasi ranking
    /// function.
    pub cancelled: bool,
    /// `true` when the iteration budget ran out before the counterexample
    /// loop converged — the template is then *not* a maximal-power quasi
    /// ranking function, and the lexicographic driver must not build on it.
    pub exhausted: bool,
    /// The concrete pre-state `(location, x)` of the last extremal
    /// counterexample, for the precondition-refinement pipeline: when the
    /// synthesis fails, this is the state it failed on.
    pub witness: Option<(usize, QVector)>,
    /// The work of the level's SMT context.
    pub smt: SolverStats,
}

/// A preprocessed block transition: source/target locations, the formula
/// `I_k(x) ∧ τ_t(x, x', aux) ∧ ⋀_{d'} λ_{d'}·u = 0` prepared on the level's
/// context, and its extension by `AvoidSpace(u, B)` for the dimension of
/// `B` it was built at.
struct PreparedTransition {
    from: usize,
    to: usize,
    formula: Prepared,
    avoiding: Option<(usize, Prepared)>,
}

impl PreparedTransition {
    /// The transition's formula conjoined with `AvoidSpace(u, basis)`,
    /// rebuilt (and the superseded one released) only when `basis` has
    /// grown since the last call.
    fn avoiding(
        &mut self,
        ctx: &mut SmtContext,
        ts: &TransitionSystem,
        num_locations: usize,
        basis: &Subspace,
    ) -> &Prepared {
        let current = matches!(&self.avoiding, Some((dim, _)) if *dim == basis.dim());
        if !current {
            if let Some((_, old)) = self.avoiding.take() {
                ctx.release(old);
            }
            let u_sym = symbolic_u(ts, num_locations, self.from, self.to);
            let extended = ctx.extend(&self.formula, avoid_space(&u_sym, basis));
            self.avoiding = Some((basis.dim(), extended));
        }
        &self.avoiding.as_ref().expect("set above").1
    }
}

/// Converts a polyhedral invariant over the program variables into a formula
/// over the pre-state theory variables.
pub(crate) fn invariant_formula(inv: &Polyhedron) -> Formula {
    termite_ir::polyhedron_to_formula(inv, &|i| LinExpr::var(TermVar(i)))
}

/// The linear expression `ρ_k(x) − ρ_{k'}(x')` (i.e. `λ·u` in the
/// homogenised stacked space, constant offsets included) for one transition.
fn objective_for(
    ts: &TransitionSystem,
    template: &RankingTemplate,
    from: usize,
    to: usize,
) -> LinExpr {
    let n = ts.num_vars();
    let mut obj = LinExpr::constant(&template.lambda0[from] - &template.lambda0[to]);
    for i in 0..n {
        let c = &template.lambda[from][i];
        if !c.is_zero() {
            obj = obj + LinExpr::term(c.clone(), ts.pre_var(i));
        }
        let c2 = &template.lambda[to][i];
        if !c2.is_zero() {
            obj = obj - LinExpr::term(c2.clone(), ts.post_var(i));
        }
    }
    obj
}

/// The symbolic stacked difference vector `u = e_k(x) − e_{k'}(x')` of one
/// transition, as one linear expression per homogenised stacked coordinate
/// (block width `n + 1`; the last coordinate of each block is the constant).
fn symbolic_u(ts: &TransitionSystem, num_locations: usize, from: usize, to: usize) -> Vec<LinExpr> {
    let n = ts.num_vars();
    let width = n + 1;
    let mut u = vec![LinExpr::zero(); num_locations * width];
    for i in 0..n {
        u[from * width + i] = u[from * width + i].clone() + LinExpr::var(ts.pre_var(i));
        u[to * width + i] = u[to * width + i].clone() - LinExpr::var(ts.post_var(i));
    }
    u[from * width + n] = u[from * width + n].clone() + LinExpr::constant(1);
    u[to * width + n] = u[to * width + n].clone() - LinExpr::constant(1);
    u
}

/// The concrete stacked difference vector for a model of one transition.
fn concrete_u(
    ts: &TransitionSystem,
    num_locations: usize,
    from: usize,
    to: usize,
    model: &Model,
) -> QVector {
    let n = ts.num_vars();
    let width = n + 1;
    let mut u = vec![Rational::zero(); num_locations * width];
    for i in 0..n {
        u[from * width + i] += &model.value_or_zero(ts.pre_var(i));
        u[to * width + i] -= &model.value_or_zero(ts.post_var(i));
    }
    u[from * width + n] += &Rational::one();
    u[to * width + n] -= &Rational::one();
    QVector::from_vec(u)
}

/// The stacked ray vector for an unbounded direction of one transition.
/// Rays are directions, so their homogeneous coordinates are zero.
fn concrete_ray(
    ts: &TransitionSystem,
    num_locations: usize,
    from: usize,
    to: usize,
    ray: &std::collections::HashMap<TermVar, Rational>,
) -> QVector {
    let n = ts.num_vars();
    let width = n + 1;
    let mut u = vec![Rational::zero(); num_locations * width];
    for i in 0..n {
        if let Some(r) = ray.get(&ts.pre_var(i)) {
            u[from * width + i] += r;
        }
        if let Some(r) = ray.get(&ts.post_var(i)) {
            u[to * width + i] -= r;
        }
    }
    QVector::from_vec(u)
}

/// `AvoidSpace(u, B)`: the symbolic residual of `u` after reduction against
/// the echelon basis of `B` must be non-zero (Section 4.1 of the paper).
fn avoid_space(u: &[LinExpr], basis: &Subspace) -> Formula {
    // Reduce the symbolic vector against the basis exactly like the concrete
    // reduction: residual := u ; for each basis vector b with pivot p,
    // residual -= residual[p] · b.
    let mut residual: Vec<LinExpr> = u.to_vec();
    for b in basis.echelon_basis() {
        let pivot = b.leading_index().expect("basis vectors are non-zero");
        let factor = residual[pivot].clone();
        for (i, coeff) in b.iter().enumerate() {
            if !coeff.is_zero() {
                residual[i] = residual[i].clone() - factor.clone().scale(coeff);
            }
        }
    }
    Formula::or(
        residual
            .into_iter()
            .map(|r| Formula::neq(r, LinExpr::constant(0)))
            .collect(),
    )
}

/// Runs one SMT query on `ctx`, adding to `stats` the query, its wall time
/// and the theory solver's work (cold LPs and warm checks) it took.
pub(crate) fn counted_query<R>(
    ctx: &mut SmtContext,
    stats: &mut SynthesisStats,
    query: impl FnOnce(&mut SmtContext) -> R,
) -> R {
    let before = ctx.stats().clone();
    stats.smt_queries += 1;
    let start = Instant::now();
    let result = query(ctx);
    stats.smt_millis += start.elapsed().as_secs_f64() * 1000.0;
    let after = ctx.stats();
    stats.smt_lp_solves += after.theory_lp_solves - before.theory_lp_solves;
    stats.smt_warm_checks += after.theory_warm_checks - before.theory_warm_checks;
    result
}

/// Restriction formula of Algorithm 2: every previously synthesised component
/// must stay constant along the transition (`λ_{d'}·u = 0`).
pub(crate) fn previous_constant(
    ts: &TransitionSystem,
    previous: &[RankingTemplate],
    from: usize,
    to: usize,
) -> Formula {
    Formula::and(
        previous
            .iter()
            .map(|t| Formula::eq_expr(objective_for(ts, t, from, to), LinExpr::constant(0)))
            .collect(),
    )
}

/// Runs the monodimensional synthesis (Algorithm 1, in its multi-control-point
/// form of Algorithm 3) against an open level of the synthesis LP workspace
/// (the caller pairs every `monodim` call with one
/// [`SynthesisLpWorkspace::begin_level`]).
pub fn monodim(
    input: &MonodimInput<'_>,
    ws: &mut SynthesisLpWorkspace,
    stats: &mut SynthesisStats,
) -> MonodimResult {
    let ts = input.ts;
    let num_locations = ts.num_locations().max(1);
    let n = ts.num_vars();
    let stacked_dim = num_locations * (n + 1);

    let mut ctx = SmtContext::new();
    let cancel_in_smt = input.cancel.clone();
    ctx.set_interrupt(termite_lp::Interrupt::new(move || {
        cancel_in_smt.is_cancelled()
    }));
    // Prepare the per-transition formulas (invariant ∧ relation ∧
    // restriction) once for the level; each is encoded on its first query.
    let mut prepared: Vec<PreparedTransition> = ts
        .transitions()
        .iter()
        .filter_map(|t| {
            let inv = &input.invariants[t.from];
            if inv.is_empty() {
                // Unreachable location: its outgoing transitions never fire.
                return None;
            }
            let formula = Formula::and(vec![
                invariant_formula(inv),
                t.formula.clone(),
                previous_constant(ts, input.previous, t.from, t.to),
            ]);
            Some(PreparedTransition {
                from: t.from,
                to: t.to,
                formula: ctx.prepare(formula),
                avoiding: None,
            })
        })
        .collect();
    let mut counterexamples: Vec<QVector> = Vec::new();
    let mut basis = Subspace::new(stacked_dim);
    let mut template = RankingTemplate::zero(num_locations, n);
    let mut all_delta_one = true;
    let mut iterations = 0usize;
    let mut witness: Option<(usize, QVector)> = None;
    let mut converged = false;

    while iterations < input.max_iterations {
        if input.cancel.is_cancelled() {
            return MonodimResult {
                template,
                strict: false,
                iterations,
                cancelled: true,
                exhausted: false,
                witness,
                smt: ctx.stats().clone(),
            };
        }
        iterations += 1;
        stats.iterations += 1;
        termite_obs::event!(
            "cegis_iter",
            iteration = iterations,
            cex = counterexamples.len()
        );

        // Search every transition for the most extremal counterexample: a
        // model minimising λ·u among those with λ·u ≤ 0 (or an unbounded ray).
        type BestCex = (Option<Rational>, QVector, Option<QVector>, (usize, QVector));
        let mut best: Option<BestCex> = None;
        for t in &mut prepared {
            let objective = objective_for(ts, &template, t.from, t.to);
            let improving = [Formula::le(objective.clone(), LinExpr::constant(0))];
            let outcome = counted_query(&mut ctx, stats, |ctx| {
                let _span = termite_obs::span!("smt_minimize", from = t.from, to = t.to);
                let query = t.avoiding(ctx, ts, num_locations, &basis);
                ctx.minimize_with(query, &improving, &objective)
            });
            match outcome {
                OptResult::Unsat => continue,
                OptResult::Interrupted => {
                    return MonodimResult {
                        template,
                        strict: false,
                        iterations,
                        cancelled: true,
                        exhausted: false,
                        witness,
                        smt: ctx.stats().clone(),
                    };
                }
                OptResult::Sat { model, outcome } => {
                    let u = concrete_u(ts, num_locations, t.from, t.to, &model);
                    let pre_state: QVector =
                        (0..n).map(|i| model.value_or_zero(ts.pre_var(i))).collect();
                    let seen_at = (t.from, pre_state);
                    match outcome {
                        OptOutcome::Unbounded { ray } => {
                            let r = concrete_ray(ts, num_locations, t.from, t.to, &ray);
                            let candidate =
                                (None, u, if r.is_zero() { None } else { Some(r) }, seen_at);
                            best = Some(candidate);
                        }
                        OptOutcome::Minimum(value) => {
                            let better = match &best {
                                None => true,
                                Some((None, _, _, _)) => false, // an unbounded witness wins
                                Some((Some(best_val), _, _, _)) => value < *best_val,
                            };
                            if better {
                                best = Some((Some(value), u, None, seen_at));
                            }
                        }
                    }
                    if matches!(best, Some((None, _, _, _))) {
                        break; // unbounded: no need to look further this round
                    }
                }
            }
        }

        let Some((_, u, ray, seen_at)) = best else {
            // No counterexample left: the current candidate strictly decreases
            // on every remaining transition.
            converged = true;
            break;
        };
        witness = Some(seen_at);

        counterexamples.push(u.clone());
        ws.push_counterexample(&u);
        let mut ray_added = false;
        if let Some(r) = ray {
            ws.push_counterexample(&r);
            counterexamples.push(r);
            ray_added = true;
        }
        stats.counterexamples = counterexamples.len();

        let Some(solution) = ws.solve(stats) else {
            // Interrupted mid-pivot: report the cancellation, not an answer.
            return MonodimResult {
                template,
                strict: false,
                iterations,
                cancelled: true,
                exhausted: false,
                witness,
                smt: ctx.stats().clone(),
            };
        };
        all_delta_one = solution.delta.iter().all(|d| *d == Rational::one());
        if solution.gamma_is_zero {
            template = solution.template;
            converged = true;
            break;
        }
        template = solution.template;
        // δ_u = 0: every quasi ranking function is flat on u — remember the
        // direction so the SMT solver stops returning it (AvoidSpace).
        let u_index = counterexamples.len() - 1 - usize::from(ray_added);
        if solution.delta[u_index].is_zero() {
            basis.insert(u.clone());
        }
        if ray_added && solution.delta[counterexamples.len() - 1].is_zero() {
            basis.insert(counterexamples[counterexamples.len() - 1].clone());
        }
    }

    let exhausted = !converged;
    // Strictness: all δ are 1 and no transition allows a null step u = 0
    // (final check of Algorithm 1). An exhausted run has no maximal-power
    // guarantee, so it is never strict.
    let strict = !exhausted
        && all_delta_one
        && !zero_step_possible(ts, num_locations, &prepared, &mut ctx, stats);
    MonodimResult {
        template,
        strict,
        iterations,
        cancelled: false,
        exhausted,
        witness,
        smt: ctx.stats().clone(),
    }
}

/// Checks whether some transition admits `u = e_k(x) − e_{k'}(x') = 0`.
fn zero_step_possible(
    ts: &TransitionSystem,
    num_locations: usize,
    prepared: &[PreparedTransition],
    ctx: &mut SmtContext,
    stats: &mut SynthesisStats,
) -> bool {
    for t in prepared {
        let u_sym = symbolic_u(ts, num_locations, t.from, t.to);
        let all_zero = Formula::and(
            u_sym
                .into_iter()
                .map(|e| Formula::eq_expr(e, LinExpr::constant(0)))
                .collect(),
        );
        let result = counted_query(ctx, stats, |ctx| {
            let _span = termite_obs::span!("smt_check", from = t.from, to = t.to);
            ctx.solve_with(&t.formula, &[all_zero])
        });
        // Only a completed `Unsat` rules the null step out; an interrupted
        // query conservatively counts as "possible" (so the result is never
        // reported strict on the strength of an unfinished check).
        if !result.is_unsat() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_program;
    use termite_polyhedra::Constraint;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// A workspace with one open level and no region strengthening.
    fn open_workspace(invariants: &[Polyhedron]) -> SynthesisLpWorkspace {
        let mut ws = SynthesisLpWorkspace::new(invariants, termite_lp::Interrupt::never());
        ws.begin_level(&vec![None; invariants.len()]);
        ws
    }

    fn example1_invariant() -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(-1)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(11)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(-1)),
                Constraint::le(QVector::from_i64(&[-1, 1]), q(5)),
                Constraint::le(QVector::from_i64(&[1, 1]), q(15)),
            ],
        )
    }

    fn example1_system() -> TransitionSystem {
        parse_program(
            r#"
            var x, y;
            while (true) {
                choice {
                    assume x <= 10 && y >= 0; x = x + 1; y = y - 1;
                } or {
                    assume x >= 0 && y >= 0;  x = x - 1; y = y - 1;
                }
            }
            "#,
        )
        .unwrap()
        .transition_system()
    }

    #[test]
    fn paper_example_1_strict_ranking_function() {
        let ts = example1_system();
        let invariants = vec![example1_invariant()];
        let mut stats = SynthesisStats::default();
        let mut ws = open_workspace(&invariants);
        let result = monodim(
            &MonodimInput {
                ts: &ts,
                invariants: &invariants,
                previous: &[],
                max_iterations: 50,
                cancel: &CancelToken::new(),
            },
            &mut ws,
            &mut stats,
        );
        assert!(
            result.strict,
            "Example 1 has the strict ranking function y + 1"
        );
        // The synthesised λ must decrease on both one-step differences
        // (-1, 1) and (1, 1): only the y direction achieves that.
        let lambda = &result.template.lambda[0];
        assert_eq!(lambda[0], q(0));
        assert!(lambda[1].is_positive());
        // Non-negativity on the invariant: λ·x + λ0 >= 0 for the extreme
        // points of I (e.g. y = -1).
        let rho_at =
            |x: i64, y: i64| &lambda.dot(&QVector::from_i64(&[x, y])) + &result.template.lambda0[0];
        assert!(rho_at(5, -1) >= Rational::zero());
        assert!(rho_at(11, -1) >= Rational::zero());
        assert!(stats.lp_instances >= 1);
        assert!(stats.smt_queries >= 2);
    }

    #[test]
    fn paper_example_3_no_strict_function_terminates() {
        // Example 3: i > 0 ∧ j > 1 → j-- ; i > 0 ∧ j ≤ 0 → i--, j := N.
        // There is no *monodimensional* strict ranking function, but the
        // algorithm must terminate and return a quasi one (δ handling + rays).
        let ts = parse_program(
            r#"
            var i, j, N;
            while (i > 0) {
                choice {
                    assume j > 1;  j = j - 1;
                } or {
                    assume j <= 0; i = i - 1; j = N;
                }
            }
            "#,
        )
        .unwrap()
        .transition_system();
        // Invariant: i unconstrained apart from what the guards give; use a
        // simple sound invariant ⊤ plus i >= 0 after the loop guard.
        let invariants = vec![Polyhedron::from_constraints(
            3,
            vec![Constraint::ge(QVector::from_i64(&[1, 0, 0]), q(0))],
        )];
        let mut stats = SynthesisStats::default();
        let mut ws = open_workspace(&invariants);
        let result = monodim(
            &MonodimInput {
                ts: &ts,
                invariants: &invariants,
                previous: &[],
                max_iterations: 60,
                cancel: &CancelToken::new(),
            },
            &mut ws,
            &mut stats,
        );
        // Termination of the synthesis itself is the point of this test; it
        // must not exhaust the iteration budget.
        assert!(
            result.iterations < 60,
            "monodim must terminate via AvoidSpace / rays"
        );
        assert!(
            !result.strict,
            "no monodimensional strict ranking function exists"
        );
    }

    #[test]
    fn infinite_self_loop_is_not_strict() {
        // while(true) { x = x; } admits the null step u = 0: no strict r.f.
        let ts = parse_program("var x; while (true) { x = x; }")
            .unwrap()
            .transition_system();
        let invariants = vec![Polyhedron::universe(1)];
        let mut stats = SynthesisStats::default();
        let mut ws = open_workspace(&invariants);
        let result = monodim(
            &MonodimInput {
                ts: &ts,
                invariants: &invariants,
                previous: &[],
                max_iterations: 20,
                cancel: &CancelToken::new(),
            },
            &mut ws,
            &mut stats,
        );
        assert!(!result.strict);
    }

    #[test]
    fn simple_countdown_is_strict() {
        let ts = parse_program("var x; while (x > 0) { x = x - 1; }")
            .unwrap()
            .transition_system();
        let invariants = vec![Polyhedron::from_constraints(
            1,
            vec![Constraint::ge(QVector::from_i64(&[1]), q(0))],
        )];
        let mut stats = SynthesisStats::default();
        let mut ws = open_workspace(&invariants);
        let result = monodim(
            &MonodimInput {
                ts: &ts,
                invariants: &invariants,
                previous: &[],
                max_iterations: 20,
                cancel: &CancelToken::new(),
            },
            &mut ws,
            &mut stats,
        );
        assert!(result.strict);
        assert!(result.template.lambda[0][0].is_positive());
    }
}
