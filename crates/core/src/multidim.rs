//! Algorithm 2: lexicographic (multidimensional) synthesis, with per-level
//! enabled-region strengthening (see `crate::regions` and DESIGN.md). Each
//! level solves its `LP(C, Constraints(I))` on a fresh primed session of
//! the run's [`SynthesisLpWorkspace`].

use crate::cancel::CancelToken;
use crate::lp_instance::RankingTemplate;
use crate::monodim::{counted_query, invariant_formula, monodim, previous_constant, MonodimInput};
use crate::regions::{active_source_regions, strengthen_with_regions};
use crate::report::SynthesisStats;
use crate::workspace::SynthesisLpWorkspace;
use termite_ir::TransitionSystem;
use termite_linalg::{QVector, Subspace};
use termite_polyhedra::Polyhedron;
use termite_smt::{Formula, SmtContext};

/// Outcome of the lexicographic synthesis.
#[derive(Clone, Debug)]
pub struct LexOutcome {
    /// The components (most significant first) of a strict lexicographic
    /// ranking function, when one exists relative to the invariants.
    pub components: Option<Vec<RankingTemplate>>,
    /// On failure: the concrete pre-state `(location, x)` of the last
    /// spurious extremal counterexample, handed to the invariant pipeline as
    /// the refinement witness.
    pub witness: Option<(usize, QVector)>,
    /// `true` when the run was cut short by the cancellation token (never
    /// mistaken for "no ranking function exists").
    pub cancelled: bool,
    /// `true` when a level exhausted its counterexample-iteration budget, so
    /// the search was abandoned without an exhaustiveness guarantee.
    pub exhausted: bool,
}

impl LexOutcome {
    fn failure(witness: Option<(usize, QVector)>, cancelled: bool, exhausted: bool) -> Self {
        LexOutcome {
            components: None,
            witness,
            cancelled,
            exhausted,
        }
    }
}

/// Synthesises a lexicographic linear ranking function by iterating the
/// monodimensional procedure, restricting at every level to the transitions
/// left constant by the previous components (Algorithm 2 of the paper).
///
/// Two extensions over the paper (DESIGN.md):
///
/// * the stacked space is homogenised, so constant offsets between cut
///   points participate in the decrease (`crate::lp_instance`);
/// * at every level, the non-negativity side of the LP uses the invariants
///   strengthened to the sources of the transitions still *active* at that
///   level (bounded-from-below relaxation, `crate::regions`): a transition
///   whose restricted relation is unsatisfiable can never fire in the tail
///   of an infinite run, so its sources need no lower bound.
///
/// The synthesis polls `cancel` before every lexicographic level and between
/// counterexample-guided iterations; once the token fires the outcome has
/// `cancelled: true` (cancellation is never mistaken for a proof).
///
/// The levels share one [`SynthesisLpWorkspace`], which opens a fresh
/// primed LP session at every level.
pub fn synthesize_lexicographic(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    max_iterations_per_dim: usize,
    cancel: &CancelToken,
    stats: &mut SynthesisStats,
) -> LexOutcome {
    let num_locations = ts.num_locations().max(1);
    let stacked_dim = num_locations * (ts.num_vars() + 1);
    let mut components: Vec<RankingTemplate> = Vec::new();
    let mut span = Subspace::new(stacked_dim);
    let mut ctx = SmtContext::new();
    let cancel_in_smt = cancel.clone();
    ctx.set_interrupt(termite_lp::Interrupt::new(move || {
        cancel_in_smt.is_cancelled()
    }));
    let cancel_in_lp = cancel.clone();
    let mut ws = SynthesisLpWorkspace::new(
        invariants,
        termite_lp::Interrupt::new(move || cancel_in_lp.is_cancelled()),
    );
    let mut witness: Option<(usize, QVector)> = None;

    // At most |W|·(n+1) dimensions (Corollary 1: the stacked λ's are
    // linearly independent).
    for _dim in 0..=stacked_dim {
        if cancel.is_cancelled() {
            stats.dimension = 0;
            return LexOutcome::failure(witness, true, false);
        }
        // Which transitions are still active: the restricted relation
        // (invariant ∧ transition ∧ previous components constant) must be
        // satisfiable.
        let mut active: Vec<bool> = Vec::with_capacity(ts.transitions().len());
        for t in ts.transitions() {
            if invariants[t.from].is_empty() {
                active.push(false);
                continue;
            }
            let query = Formula::and(vec![
                invariant_formula(&invariants[t.from]),
                t.formula.clone(),
                previous_constant(ts, &components, t.from, t.to),
            ]);
            let result = counted_query(&mut ctx, stats, |ctx| {
                let _span = termite_obs::span!("smt_check", from = t.from, to = t.to);
                ctx.solve(&query)
            });
            match result {
                termite_smt::SmtResult::Sat(_) => active.push(true),
                termite_smt::SmtResult::Unsat => active.push(false),
                // An interrupted liveness check must not masquerade as
                // "dead": that path concludes a proof.
                termite_smt::SmtResult::Interrupted => {
                    stats.dimension = 0;
                    return LexOutcome::failure(witness, true, false);
                }
            }
        }
        if active.iter().all(|a| !a) {
            // Every transition is dead: each of its steps strictly decreases
            // some previous component under a flat prefix, so the components
            // found so far already form the certificate.
            stats.dimension = components.len();
            return LexOutcome {
                components: Some(components),
                witness: None,
                cancelled: false,
                exhausted: false,
            };
        }
        // The level's enabled regions feed both sides of the synthesis: the
        // strengthened invariants go into the SMT transition formulas, and
        // the region rows join the workspace's shared Farkas structure
        // (level-specific γ multipliers on top of the per-run base).
        let regions = active_source_regions(ts, &active);
        let level_invariants = strengthen_with_regions(invariants, &regions);
        ws.begin_level(&regions);
        let result = monodim(
            &MonodimInput {
                ts,
                invariants: &level_invariants,
                previous: &components,
                max_iterations: max_iterations_per_dim,
                cancel,
            },
            &mut ws,
            stats,
        );
        if result.witness.is_some() {
            witness = result.witness.clone();
        }
        if result.cancelled {
            stats.dimension = 0;
            return LexOutcome::failure(witness, true, false);
        }
        if result.exhausted {
            // The level has no maximal-power guarantee: building further
            // levels on it would be unsound, and so would "no ranking
            // function exists".
            stats.dimension = 0;
            return LexOutcome::failure(witness, false, true);
        }
        if result.strict {
            components.push(result.template);
            stats.dimension = components.len();
            return LexOutcome {
                components: Some(components),
                witness: None,
                cancelled: false,
                exhausted: false,
            };
        }
        // Not strict: the new component must bring a new direction, otherwise
        // no lexicographic linear ranking function exists (Lemma 4).
        let stacked = result.template.stacked();
        if stacked.is_zero() || !span.insert(stacked) {
            stats.dimension = 0;
            return LexOutcome::failure(witness, false, false);
        }
        components.push(result.template);
    }
    stats.dimension = 0;
    LexOutcome::failure(witness, false, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_invariants::{location_invariants, InvariantOptions};
    use termite_ir::parse_program;
    use termite_linalg::QVector;
    use termite_num::Rational;
    use termite_polyhedra::Constraint;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn example_3_style_loop_needs_two_dimensions() {
        // Example 3 of the paper (reset `j := N` with unbounded `N`), with an
        // invariant strong enough to bound both counters from below. No
        // monodimensional linear ranking function exists (the reset makes
        // `λ·u` unbounded along the `N` ray), but the lexicographic pair
        // (i, j) works.
        let program = parse_program(
            r#"
            var i, j, N;
            assume i >= 0 && j >= 0 && N >= 0;
            while (i > 0) {
                choice {
                    assume j > 1;  j = j - 1;
                } or {
                    assume j <= 0; i = i - 1; j = N;
                }
            }
            "#,
        )
        .unwrap();
        let ts = program.transition_system();
        let invariants = vec![Polyhedron::from_constraints(
            3,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0, 0]), q(0)),
                Constraint::ge(QVector::from_i64(&[0, 1, 0]), q(0)),
                Constraint::ge(QVector::from_i64(&[0, 0, 1]), q(0)),
            ],
        )];
        let mut stats = SynthesisStats::default();
        let result =
            synthesize_lexicographic(&ts, &invariants, 60, &CancelToken::new(), &mut stats);
        let components = result
            .components
            .expect("a lexicographic ranking function exists");
        assert!(
            components.len() >= 2,
            "the reset loop needs at least two dimensions"
        );
        assert_eq!(stats.dimension, components.len());
        // The leading component must involve i (the outer counter).
        assert!(!components[0].lambda[0][0].is_zero());
    }

    #[test]
    fn nested_loops_terminate_with_computed_invariants() {
        // Example 4 flavour: two nested loops.
        let program = parse_program(
            r#"
            var i, j;
            i = 0;
            while (i < 5) {
                j = 0;
                while (i > 2 && j <= 9) {
                    j = j + 1;
                }
                i = i + 1;
            }
            "#,
        )
        .unwrap();
        let ts = program.transition_system();
        let invariants = location_invariants(&program, &InvariantOptions::default());
        let mut stats = SynthesisStats::default();
        let result =
            synthesize_lexicographic(&ts, &invariants, 80, &CancelToken::new(), &mut stats);
        // The synthesis must terminate and stay sound. With the current
        // stacked-vector encoding (no homogeneous constant coordinate),
        // decreases across different cut points that rely on constant offsets
        // are not captured, so the result may be None here; when it is Some,
        // it must be a genuine multi-location certificate.
        if let Some(components) = result.components {
            assert!(!components.is_empty());
            assert_eq!(components[0].lambda.len(), 2);
        }
        assert!(stats.smt_queries > 0);
    }

    #[test]
    fn non_terminating_loop_returns_none() {
        let program = parse_program("var x; while (x > 0) { x = x + 1; }").unwrap();
        let ts = program.transition_system();
        let invariants = vec![Polyhedron::from_constraints(
            1,
            vec![Constraint::ge(QVector::from_i64(&[1]), q(0))],
        )];
        let mut stats = SynthesisStats::default();
        let result =
            synthesize_lexicographic(&ts, &invariants, 40, &CancelToken::new(), &mut stats);
        assert!(result.components.is_none());
        assert!(!result.cancelled);
    }
}
