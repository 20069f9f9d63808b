//! Piecewise ranking functions over a learned segment lattice, after Kura,
//! Unno & Hasuo ("Decision tree learning in CEGIS-based termination
//! analysis", arXiv 2104.11463).
//!
//! A *piecewise ranking function* for a single-location loop is a covering
//! family of convex **segments** `S_1, …, S_m` of the state space, each
//! carrying an affine function `ρ_i`, such that for every DNF path `τ` of
//! the transition and every ordered segment pair `(i, j)`:
//!
//! * decrease: `∀(x, x′) ∈ S_i(x) ∧ τ ∧ S_j(x′) : ρ_i(x) − ρ_j(x′) ≥ 1`,
//! * bound:    `∀(x, _) ∈ S_i(x) ∧ τ : ρ_i(x) ≥ 0`.
//!
//! Soundness: along an infinite execution every state `x_t` is the source
//! of some path and lies in some segment `i_t` (the segments cover ℤⁿ by
//! construction — see the lattice below), so `ρ_{i_t}(x_t)` is a value
//! that decreases by ≥ 1 every step yet stays ≥ 0 — contradiction. No
//! *single* affine (or even lexicographic) function need exist: the
//! certificate may jump between pieces, which is exactly what sign-split
//! loops such as `while (x != 0) { if (x > 0) x−− else x++ }` require.
//!
//! # The segment lattice
//!
//! Segments form a binary split tree: the root is the universe, and a
//! refinement step splits **every** leaf on the next predicate from a pool
//! harvested from the path guards (the pre-state atoms of the DNF
//! expansion — the same atoms a spurious extremal counterexample violates,
//! so the split is driven by exactly the case analysis the engine's
//! counterexamples expose). A predicate `p` splits a cell into `p` and the
//! integer-tightened `¬p` (`¬(a·x ≥ b)` is `−a·x ≥ 1 − b`), which is an
//! *exact* partition over ℤⁿ: coverage is preserved by construction, so
//! the certificate never has holes. The lattice is refined at most down to
//! [`MAX_SEGMENTS`] cells before giving up with `ResourceBudget`.
//!
//! # Encoding
//!
//! All conditions are conjunctive linear implications over augmented path
//! polyhedra (the path atoms plus the segment atoms on the pre side, plus
//! the target segment's atoms shifted to the post variables), so each
//! segmentation is **one Farkas feasibility LP** — the same row shape as
//! [`lasso`](crate::lasso), whose `farkas_rows` helper (over the shared
//! `PathTransition::farkas_rows` builder) this engine uses too.
//! The rounds share one warm [`IncrementalLp`] in the style of
//! [`SynthesisLpWorkspace`](crate::workspace::SynthesisLpWorkspace): every
//! per-segment row (and, implicitly, every template and multiplier column)
//! is tagged `TAG_SEGMENT` behind a snapshot, and a failed round rolls
//! the session back via the existing `RowTag`/snapshot machinery before
//! the lattice is refined.
//!
//! # The verdict
//!
//! A proof with a single (universe) segment is an ordinary unconditional
//! linear ranking function and is reported as `Terminates`. A genuinely
//! piecewise proof is emitted as the DNF conditional verdict
//! `TerminatesIf { disjuncts, .. }` with one disjunct per non-empty
//! segment, each paired with its segment ranking: the claim "termination
//! from `S_1 ∨ … ∨ S_m`" is what the certificate literally establishes
//! (states outside every segment cannot occur, but the verdict does not
//! rely on that).

use crate::baselines::{expand_paths, PathTransition};
use crate::engine::AnalysisOptions;
use crate::lasso::farkas_rows;
use crate::report::{Precondition, RankingFunction, SynthesisStats, UnknownReason, Verdict};
use termite_ir::TransitionSystem;
use termite_linalg::QVector;
use termite_lp::{IncrementalLp, LpOutcome, RowTag, VarId};
use termite_num::{Int, Rational};
use termite_polyhedra::{Constraint, Polyhedron};
use termite_smt::{Atom, TermVar};

/// Maximum number of segment-lattice cells before giving up.
pub const MAX_SEGMENTS: usize = 8;

/// Row tag of the retractable per-segmentation rows (templates, bounds and
/// decrease conditions alike — a failed round retracts the whole layer).
const TAG_SEGMENT: RowTag = RowTag(1);

/// The integer-tightened negation of a pre-state atom: `¬(a·x ≥ b)` is
/// `−a·x ≥ 1 − b`.
fn negate_atom(atom: &Atom) -> Atom {
    Atom {
        coeffs: atom.coeffs.iter().map(|(v, c)| (*v, -c.clone())).collect(),
        rhs: Int::one() - atom.rhs.clone(),
    }
}

/// Shifts a pre-state atom to the post variables (`x_i ↦ x_i′`).
fn shift_to_post(atom: &Atom, ts: &TransitionSystem) -> Atom {
    Atom {
        coeffs: atom
            .coeffs
            .iter()
            .map(|(v, c)| (ts.post_var(v.0), c.clone()))
            .collect(),
        rhs: atom.rhs.clone(),
    }
}

/// The split-predicate pool: distinct pre-state atoms of the paths, in
/// deterministic (path, atom) order, keeping one representative per
/// `{p, ¬p}` pair.
fn predicate_pool(paths: &[PathTransition], n: usize) -> Vec<Atom> {
    let mut pool: Vec<Atom> = Vec::new();
    for path in paths {
        for atom in &path.atoms {
            if !atom.vars().all(|v| v.0 < n) {
                continue;
            }
            let neg = negate_atom(atom);
            if pool.iter().any(|p| p == atom || p == &neg) {
                continue;
            }
            pool.push(atom.clone());
        }
    }
    pool
}

/// One segment: a conjunction of pre-state atoms (empty = universe).
type Segment = Vec<Atom>;

/// The segment as an entry-state polyhedron over the `n` program variables.
fn segment_polyhedron(segment: &Segment, n: usize) -> Polyhedron {
    let constraints = segment
        .iter()
        .map(|a| {
            let coeffs: QVector = (0..n)
                .map(|i| {
                    a.coeffs
                        .get(&TermVar(i))
                        .map(|c| Rational::from_int(c.clone()))
                        .unwrap_or_else(Rational::zero)
                })
                .collect();
            Constraint::ge(coeffs, Rational::from_int(a.rhs.clone()))
        })
        .collect();
    Polyhedron::from_constraints(n, constraints).minimize()
}

/// Per-segment affine template `ρ(x) = coeffs·x + offset` as LP variables.
struct SegmentVars {
    coeffs: Vec<VarId>,
    offset: VarId,
}

/// Runs the piecewise synthesis, refining the segment lattice until the
/// Farkas LP is feasible or the budget is exhausted.
pub fn prove(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    options: &AnalysisOptions,
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

    let pool = predicate_pool(&paths, n);
    let mut inc = IncrementalLp::new();
    let cancel = options.cancel.clone();
    inc.set_interrupt(termite_lp::Interrupt::new(move || cancel.is_cancelled()));
    // Prime the session so every round's snapshot carries a live basis:
    // a failed round then restores warm instead of restarting cold.
    inc.maximize(Vec::new());
    // The program has no rows or columns yet: a zero-pivot solve that is
    // not one of the engine's LP instances.
    if inc.solve().is_none() {
        return Verdict::unknown(UnknownReason::Cancelled);
    }
    let mut segments: Vec<Segment> = vec![Vec::new()];
    let mut next_predicate = 0;
    loop {
        if options.cancel.is_cancelled() {
            return Verdict::unknown(UnknownReason::Cancelled);
        }
        let snapshot = inc.snapshot();
        let templates: Vec<SegmentVars> = (0..segments.len())
            .map(|i| SegmentVars {
                coeffs: (0..n)
                    .map(|v| inc.add_free_var(format!("s{i}_{v}")))
                    .collect(),
                offset: inc.add_free_var(format!("s{i}_0")),
            })
            .collect();
        for (i, seg_i) in segments.iter().enumerate() {
            let rho_i = &templates[i];
            for (t, path) in paths.iter().enumerate() {
                // Row building is the one multi-millisecond stretch of this
                // engine outside the LP (which polls via its interrupt), so a
                // cancelled race lane must bail out per path, not per round.
                if options.cancel.is_cancelled() {
                    return Verdict::unknown(UnknownReason::Cancelled);
                }
                // Bound: ρ_i(x) ≥ 0 on S_i ∧ source(τ).
                let mut bounded = path.clone();
                bounded.atoms.extend(seg_i.iter().cloned());
                farkas_rows(
                    &mut inc,
                    &bounded,
                    ts,
                    &format!("b{i}_{t}"),
                    |v| {
                        if v.0 < n {
                            vec![(rho_i.coeffs[v.0], Rational::one())]
                        } else {
                            Vec::new()
                        }
                    },
                    vec![(rho_i.offset, Rational::one())],
                    Rational::zero(),
                    TAG_SEGMENT,
                );
                // Decrease into every possible target segment:
                // ρ_i(x) − ρ_j(x′) ≥ 1 on S_i(x) ∧ τ ∧ S_j(x′).
                for (j, seg_j) in segments.iter().enumerate() {
                    let rho_j = &templates[j];
                    let mut step = bounded.clone();
                    step.atoms
                        .extend(seg_j.iter().map(|a| shift_to_post(a, ts)));
                    farkas_rows(
                        &mut inc,
                        &step,
                        ts,
                        &format!("d{i}_{j}_{t}"),
                        |v| {
                            if v.0 < n {
                                vec![(rho_i.coeffs[v.0], Rational::one())]
                            } else if v.0 < 2 * n {
                                vec![(rho_j.coeffs[v.0 - n], -Rational::one())]
                            } else {
                                Vec::new()
                            }
                        },
                        if i == j {
                            Vec::new()
                        } else {
                            vec![
                                (rho_i.offset, Rational::one()),
                                (rho_j.offset, -Rational::one()),
                            ]
                        },
                        Rational::one(),
                        TAG_SEGMENT,
                    );
                }
            }
        }
        stats.iterations += 1;
        let Some(solution) = stats.solve_lp(inc.num_constraints(), inc.num_vars(), || inc.solve())
        else {
            return Verdict::unknown(UnknownReason::Cancelled);
        };
        stats.lp_warm_hits = inc.warm_solves();
        if let LpOutcome::Optimal { assignment, .. } = solution.outcome {
            stats.dimension = 1;
            let mut disjuncts: Vec<Precondition> = Vec::new();
            for (seg, vars) in segments.iter().zip(&templates) {
                let clause = segment_polyhedron(seg, n);
                if clause.is_empty() {
                    // A cell refined into contradiction covers no state:
                    // its template is unconstrained and worthless.
                    continue;
                }
                let coeffs: QVector = (0..n)
                    .map(|v| assignment[vars.coeffs[v].0].clone())
                    .collect();
                let rho = RankingFunction::new(
                    n,
                    ts.var_names().to_vec(),
                    vec![vec![(coeffs, assignment[vars.offset.0].clone())]],
                );
                disjuncts.push(Precondition::with_ranking(clause, rho));
            }
            let Some(first) = disjuncts.first() else {
                // Unreachable (the cells cover ℤⁿ), but fail closed.
                return Verdict::unknown(UnknownReason::ResourceBudget);
            };
            let primary = first.ranking.clone().expect("segment rankings are total");
            if segments.len() == 1 {
                // A single universe segment is an ordinary global linear
                // ranking function: report the stronger verdict.
                return Verdict::Terminates(primary);
            }
            return Verdict::TerminatesIf {
                disjuncts,
                ranking: primary,
            };
        }
        // Infeasible (or unbounded — impossible for a feasibility system):
        // roll the whole segment layer back and refine the lattice.
        if inc.restore(&snapshot) {
            stats.basis_reuses += 1;
        }
        if next_predicate >= pool.len() || segments.len() * 2 > MAX_SEGMENTS {
            return Verdict::unknown(UnknownReason::ResourceBudget);
        }
        let predicate = &pool[next_predicate];
        next_predicate += 1;
        segments = segments
            .iter()
            .flat_map(|seg| {
                let mut with_p = seg.clone();
                with_p.push(predicate.clone());
                let mut with_not_p = seg.clone();
                with_not_p.push(negate_atom(predicate));
                [with_p, with_not_p]
            })
            .collect();
    }
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
        let options = AnalysisOptions::with_engine(Engine::Piecewise);
        let v = prove(&ts, &universe(n), &options, &mut stats);
        (v, stats)
    }

    #[test]
    fn single_segment_subsumes_linear_ranking_functions() {
        let (v, stats) = prove_src("var x; while (x > 0) { x = x - 1; }", 1);
        assert!(
            matches!(v, Verdict::Terminates(_)),
            "a plain countdown needs no split, got {v:?}"
        );
        assert_eq!(stats.dimension, 1);
    }

    #[test]
    fn sign_split_countdown_needs_a_piecewise_certificate() {
        // x walks toward 0 from either side: no single affine (or nested, or
        // lexicographic) linear ranking function exists, but splitting on
        // the sign of x gives ρ = x on x ≥ 1 and ρ = −x on x ≤ 0.
        let (v, stats) = prove_src(
            "var x; while (x != 0) { choice { assume x >= 1; x = x - 1; } \
             or { assume x <= 0 - 1; x = x + 1; } }",
            1,
        );
        match &v {
            Verdict::TerminatesIf { disjuncts, .. } => {
                assert!(
                    disjuncts.len() >= 2,
                    "expected a genuine case split, got {disjuncts:?}"
                );
                assert!(
                    disjuncts.iter().all(|d| d.ranking.is_some()),
                    "every segment must carry its own ranking"
                );
                // The segments must cover both signs.
                let covers = |x: i64| {
                    disjuncts
                        .iter()
                        .any(|d| d.clause.contains_point(&QVector::from_i64(&[x])))
                };
                assert!(covers(7) && covers(-7), "segments must cover both signs");
            }
            other => panic!("expected a piecewise certificate, got {other:?}"),
        }
        assert!(stats.basis_reuses >= 1, "refinement must roll the LP back");
        assert!(
            stats.iterations >= 2,
            "the universe segment must fail first"
        );
    }

    #[test]
    fn piecewise_certificate_decreases_on_concrete_runs() {
        // Re-check the emitted pieces on a grid of concrete states: the
        // active segment's value must drop by ≥ 1 every step and stay ≥ 0.
        let ts = parse_program(
            "var x; while (x != 0) { choice { assume x >= 1; x = x - 1; } \
             or { assume x <= 0 - 1; x = x + 1; } }",
        )
        .unwrap()
        .transition_system();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::Piecewise);
        let disjuncts = match prove(&ts, &universe(1), &options, &mut stats) {
            Verdict::TerminatesIf { disjuncts, .. } => disjuncts,
            other => panic!("expected a piecewise proof, got {other:?}"),
        };
        let value = |x: i64| -> Rational {
            let state = QVector::from_i64(&[x]);
            let d = disjuncts
                .iter()
                .find(|d| d.clause.contains_point(&state))
                .unwrap_or_else(|| panic!("no segment covers x = {x}"));
            d.ranking.as_ref().expect("segment ranking").eval(0, &state)[0].clone()
        };
        for x0 in [-6i64, -1, 1, 6] {
            let mut x = x0;
            while x != 0 {
                let next = if x > 0 { x - 1 } else { x + 1 };
                assert!(value(x) >= Rational::zero(), "bound violated at {x}");
                if next != 0 {
                    assert!(
                        value(x) - value(next) >= Rational::one(),
                        "decrease violated at {x} -> {next}"
                    );
                }
                x = next;
            }
        }
    }

    #[test]
    fn nonterminating_drift_is_not_proved() {
        // x' = x + 1 on x ≥ 1 diverges; no segmentation helps, and the
        // budget must run out rather than fabricate a certificate.
        let (v, _) = prove_src("var x; assume x >= 1; while (x > 0) { x = x + 1; }", 1);
        assert!(
            matches!(v, Verdict::Unknown { .. }),
            "the diverging counter must stay unproved, got {v:?}"
        );
    }

    #[test]
    fn multi_location_programs_are_out_of_scope() {
        let ts =
            parse_program("var x, y; while (x > 0) { x = x - 1; while (y > 0) { y = y - 1; } }")
                .unwrap()
                .transition_system();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::Piecewise);
        let v = prove(
            &ts,
            &[Polyhedron::universe(2), Polyhedron::universe(2)],
            &options,
            &mut stats,
        );
        assert!(matches!(
            v,
            Verdict::Unknown {
                reason: UnknownReason::ResourceBudget
            }
        ));
    }
}
