//! Baseline termination provers used in the paper's evaluation, and the
//! Farkas row builder every path-polyhedron LP shares.
//!
//! * [`eager`] — the Rank / Alias-et-al. style approach: expand the block
//!   transition relation into disjunctive normal form (one convex polyhedron
//!   per path), introduce Farkas multipliers for every face of every path
//!   polyhedron, and solve one large LP per lexicographic dimension. This is
//!   the approach the paper improves upon: the LP is built *eagerly* and its
//!   size grows with the number of paths (exponential in the number of
//!   successive tests), whereas Termite's LP only contains the extremal
//!   counterexamples actually needed. The Podelski–Rybalchenko baseline
//!   (`Engine::PodelskiRybalchenko`) is this prover capped at one level: a
//!   single linear ranking function strictly decreasing on every path.
//! * [`heuristic`] — a syntactic prover in the spirit of Loopus: guess
//!   candidate ranking expressions from the loop guards and verify a fixed
//!   lexicographic assembly with a handful of SMT queries. Fast, but proves
//!   fewer programs.
//!
//! [`PathTransition::farkas_rows`] builds the rows of
//! `∀v ∈ P(path) : target(v) ≥ rhs` once for all three DNF engines: eager
//! adds them as `=` rows to a one-shot LP, [`lasso`](crate::lasso) and
//! [`piecewise`](crate::piecewise) as `≥`/`≤` pairs to a warm incremental
//! session.

use crate::engine::AnalysisOptions;
use crate::report::{RankingFunction, SynthesisStats, UnknownReason, Verdict};
use std::collections::BTreeSet;
use termite_ir::TransitionSystem;
use termite_lp::{
    Constraint as LpConstraint, IncrementalLp, Interrupt, LinearProgram, Relation, VarId,
};
use termite_num::Rational;
use termite_polyhedra::Polyhedron;
use termite_smt::{Atom, Formula, LinExpr, TermVar, TheoryOutcome, TheorySolver};

/// A path transition: one disjunct of the DNF of a block transition, as a
/// conjunction of atoms, together with its source and target locations.
#[derive(Clone, Debug)]
pub struct PathTransition {
    /// Source cut point.
    pub from: usize,
    /// Target cut point.
    pub to: usize,
    /// Conjunction of normalised atoms over pre/post/auxiliary variables.
    pub atoms: Vec<Atom>,
}

/// The Farkas rows of one implication `∀v ∈ P(path) : target(v) ≥ rhs`, as
/// data: each caller adds them in its own row form.
pub(crate) struct FarkasRows {
    /// Per variable `v`, the terms of `Σ_r μ_r·coeff_{r,v} − target_v = 0`.
    eqs: Vec<Vec<(VarId, Rational)>>,
    /// `Σ_r μ_r·rhs_r + rhs_terms ≥ rhs`.
    ge: LpConstraint,
}

impl FarkasRows {
    /// Adds the rows to a one-shot LP, the equalities as `=` rows.
    pub(crate) fn add_to(self, lp: &mut LinearProgram) {
        for terms in self.eqs {
            lp.add_constraint(LpConstraint::new(terms, Relation::Eq, Rational::zero()));
        }
        lp.add_constraint(self.ge);
    }

    /// Adds the rows to an incremental session, each equality as a
    /// `≥`/`≤` pair so the session keeps its warm basis (a true `=` row
    /// would reset it).
    pub(crate) fn add_to_session(self, inc: &mut IncrementalLp) {
        for terms in self.eqs {
            inc.add_constraint(LpConstraint::new(
                terms.clone(),
                Relation::Ge,
                Rational::zero(),
            ));
            inc.add_constraint(LpConstraint::new(terms, Relation::Le, Rational::zero()));
        }
        inc.add_constraint(self.ge);
    }
}

impl PathTransition {
    /// The Farkas rows certifying `∀v ∈ P(self) : target(v) ≥ rhs` over the
    /// caller's multiplier columns `mu` (one `μ_r ≥ 0` per atom). `target`
    /// maps each variable of the path polyhedron — the atoms' variables plus
    /// every pre/post variable — to a linear combination of template columns;
    /// `rhs_terms` are template columns added to the `≥` row's left side.
    /// On a non-empty path polyhedron (`expand_paths` keeps only those) the
    /// rows are feasible exactly when the implication holds (affine Farkas
    /// lemma).
    pub(crate) fn farkas_rows(
        &self,
        ts: &TransitionSystem,
        mu: &[VarId],
        target: impl Fn(TermVar) -> Vec<(VarId, Rational)>,
        rhs_terms: Vec<(VarId, Rational)>,
        rhs: Rational,
    ) -> FarkasRows {
        let mut vars: BTreeSet<TermVar> = BTreeSet::new();
        for a in &self.atoms {
            vars.extend(a.vars());
        }
        for i in 0..ts.num_vars() {
            vars.insert(ts.pre_var(i));
            vars.insert(ts.post_var(i));
        }
        let eqs = vars
            .into_iter()
            .filter_map(|v| {
                let mut terms: Vec<(VarId, Rational)> = (self.atoms.iter().zip(mu))
                    .filter_map(|(a, &m)| {
                        a.coeffs.get(&v).map(|c| (m, Rational::from_int(c.clone())))
                    })
                    .collect();
                terms.extend(target(v).into_iter().map(|(id, c)| (id, -c)));
                (!terms.is_empty()).then_some(terms)
            })
            .collect();
        let mut terms: Vec<(VarId, Rational)> = (self.atoms.iter().zip(mu))
            .filter(|(a, _)| !a.rhs.is_zero())
            .map(|(a, &m)| (m, Rational::from_int(a.rhs.clone())))
            .collect();
        terms.extend(rhs_terms);
        FarkasRows {
            eqs,
            ge: LpConstraint::new(terms, Relation::Ge, rhs),
        }
    }
}

/// Expands a formula (in NNF) into disjunctive normal form over atoms.
/// Returns `None` if the expansion exceeds `limit` disjuncts.
pub fn formula_to_dnf(formula: &Formula, limit: usize) -> Option<Vec<Vec<Atom>>> {
    fn go(f: &Formula, limit: usize) -> Option<Vec<Vec<Atom>>> {
        match f {
            Formula::True => Some(vec![Vec::new()]),
            Formula::False => Some(Vec::new()),
            Formula::Ge(l, r) => match Atom::from_ge(l, r) {
                Ok(atom) => Some(vec![vec![atom]]),
                Err(true) => Some(vec![Vec::new()]),
                Err(false) => Some(Vec::new()),
            },
            Formula::Not(_) => unreachable!("formula must be in NNF"),
            Formula::Or(children) => {
                let mut out = Vec::new();
                for c in children {
                    out.extend(go(c, limit)?);
                    if out.len() > limit {
                        return None;
                    }
                }
                Some(out)
            }
            Formula::And(children) => {
                let mut acc: Vec<Vec<Atom>> = vec![Vec::new()];
                for c in children {
                    let child = go(c, limit)?;
                    let mut next = Vec::with_capacity(acc.len() * child.len());
                    for a in &acc {
                        for b in &child {
                            let mut merged = a.clone();
                            merged.extend(b.iter().cloned());
                            next.push(merged);
                            if next.len() > limit {
                                return None;
                            }
                        }
                    }
                    acc = next;
                }
                Some(acc)
            }
        }
    }
    go(&formula.to_nnf(), limit)
}

/// Expands every block transition of a system into feasible path transitions,
/// conjoining the source-location invariant. Fails with `ResourceBudget` when
/// the DNF exceeds the disjunct budget, and with `Cancelled` once `interrupt`
/// is raised: it is polled before each disjunct's feasibility check, inside
/// the check, and once more at the end.
pub fn expand_paths(
    ts: &TransitionSystem,
    invariants: &[Polyhedron],
    limit: usize,
    interrupt: &Interrupt,
) -> Result<Vec<PathTransition>, UnknownReason> {
    let mut theory = TheorySolver::with_interrupt(interrupt.clone());
    let mut out = Vec::new();
    for t in ts.transitions() {
        let inv = &invariants[t.from];
        if inv.is_empty() {
            continue;
        }
        let inv_formula = crate::monodim::invariant_formula(inv);
        let combined = Formula::and(vec![inv_formula, t.formula.clone()]);
        let disjuncts = formula_to_dnf(&combined, limit).ok_or(UnknownReason::ResourceBudget)?;
        for atoms in disjuncts {
            if interrupt.is_raised() {
                return Err(UnknownReason::Cancelled);
            }
            // Drop infeasible paths (Rank performs the analogous emptiness
            // test on the path polyhedra). The model is not read, so an
            // integral warm point decides the disjunct.
            match theory.decide(&atoms) {
                TheoryOutcome::Inconsistent { .. } => continue,
                TheoryOutcome::Interrupted => return Err(UnknownReason::Cancelled),
                TheoryOutcome::Consistent { .. } => {}
            }
            out.push(PathTransition {
                from: t.from,
                to: t.to,
                atoms,
            });
        }
        if out.len() > limit {
            return Err(UnknownReason::ResourceBudget);
        }
    }
    if interrupt.is_raised() {
        return Err(UnknownReason::Cancelled);
    }
    Ok(out)
}

/// The eager (Rank / Alias et al. 2010) baseline.
pub mod eager {
    use super::*;
    use termite_linalg::QVector;
    use termite_lp::LpOutcome;
    use termite_polyhedra::ConstraintKind;

    /// One lexicographic level of the eager synthesis: a single Farkas LP over
    /// all still-alive path transitions. Returns the component and the set of
    /// path indices that now decrease strictly, or `None` if no non-trivial
    /// component exists (or the solve was cancelled mid-pivot — the eager LP
    /// is the one huge solve the ROADMAP wanted interruptible).
    #[allow(clippy::type_complexity)]
    fn solve_level(
        ts: &TransitionSystem,
        invariants: &[Polyhedron],
        alive: &[&PathTransition],
        interrupt: &Interrupt,
        stats: &mut SynthesisStats,
    ) -> Option<(Vec<(QVector, Rational)>, Vec<bool>)> {
        let n = ts.num_vars();
        let num_locs = ts.num_locations();
        let mut lp = LinearProgram::new();

        // λ_{k,i} and λ0_k are free.
        let lambda_ids: Vec<Vec<VarId>> = (0..num_locs)
            .map(|k| {
                (0..n)
                    .map(|i| lp.add_free_var(format!("lambda_{k}_{i}")))
                    .collect()
            })
            .collect();
        let lambda0_ids: Vec<VarId> = (0..num_locs)
            .map(|k| lp.add_free_var(format!("lambda0_{k}")))
            .collect();

        // Non-negativity on every location invariant via Farkas multipliers ν ≥ 0:
        //   λ_k = Σ_c ν_{k,c} a_c   and   λ0_k + Σ_c ν_{k,c} b_c >= 0.
        for k in 0..num_locs {
            let inv = &invariants[k];
            if inv.is_empty() {
                continue;
            }
            let mut rows: Vec<(QVector, Rational)> = Vec::new();
            for c in inv.constraints() {
                match c.kind {
                    ConstraintKind::GreaterEq => rows.push((c.coeffs.clone(), c.rhs.clone())),
                    ConstraintKind::Equality => {
                        rows.push((c.coeffs.clone(), c.rhs.clone()));
                        rows.push((-&c.coeffs, -c.rhs.clone()));
                    }
                }
            }
            let nu_ids: Vec<VarId> = (0..rows.len())
                .map(|c| lp.add_var(format!("nu_{k}_{c}")))
                .collect();
            for i in 0..n {
                let mut terms: Vec<(VarId, Rational)> = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, (a, _))| !a[i].is_zero())
                    .map(|(c, (a, _))| (nu_ids[c], a[i].clone()))
                    .collect();
                terms.push((lambda_ids[k][i], -Rational::one()));
                lp.add_constraint(LpConstraint::new(terms, Relation::Eq, Rational::zero()));
            }
            let mut terms: Vec<(VarId, Rational)> = rows
                .iter()
                .enumerate()
                .filter(|(_, (_, b))| !b.is_zero())
                .map(|(c, (_, b))| (nu_ids[c], b.clone()))
                .collect();
            terms.push((lambda0_ids[k], Rational::one()));
            lp.add_constraint(LpConstraint::new(terms, Relation::Ge, Rational::zero()));
        }

        // One δ_j per alive path and Farkas multipliers μ per path face.
        let delta_ids: Vec<VarId> = (0..alive.len())
            .map(|j| lp.add_var(format!("delta_{j}")))
            .collect();
        for &d in &delta_ids {
            lp.add_constraint(LpConstraint::new(
                vec![(d, Rational::one())],
                Relation::Le,
                Rational::one(),
            ));
        }
        for (j, path) in alive.iter().enumerate() {
            let mu: Vec<VarId> = (0..path.atoms.len())
                .map(|r| lp.add_var(format!("mu_{j}_{r}")))
                .collect();
            // Decrease by δ_j on the path: λ_from·x − λ_to·x′ ≥ δ_j.
            path.farkas_rows(
                ts,
                &mu,
                |v| {
                    if v.0 < n {
                        vec![(lambda_ids[path.from][v.0], Rational::one())]
                    } else if v.0 < 2 * n {
                        vec![(lambda_ids[path.to][v.0 - n], -Rational::one())]
                    } else {
                        Vec::new()
                    }
                },
                vec![(delta_ids[j], -Rational::one())],
                Rational::zero(),
            )
            .add_to(&mut lp);
        }
        lp.maximize(delta_ids.iter().map(|&d| (d, Rational::one())).collect());

        let solution = stats.solve_lp(lp.num_constraints(), lp.num_vars(), || {
            lp.solve_interruptible(interrupt)
        })?;
        let assignment = match solution.outcome {
            LpOutcome::Optimal { assignment, .. } => assignment,
            _ => return None,
        };
        let strict: Vec<bool> = delta_ids
            .iter()
            .map(|d| assignment[d.0] == Rational::one())
            .collect();
        if !strict.iter().any(|s| *s) {
            return None;
        }
        let component: Vec<(QVector, Rational)> = (0..num_locs)
            .map(|k| {
                let lambda: QVector = (0..n)
                    .map(|i| assignment[lambda_ids[k][i].0].clone())
                    .collect();
                (lambda, assignment[lambda0_ids[k].0].clone())
            })
            .collect();
        Some((component, strict))
    }

    /// Runs the eager lexicographic synthesis with at most `max_levels`
    /// lexicographic levels (`usize::MAX` for the eager lane; 1 is the
    /// Podelski–Rybalchenko baseline, which needs every path strict at once).
    pub fn prove(
        ts: &TransitionSystem,
        invariants: &[Polyhedron],
        options: &AnalysisOptions,
        max_levels: usize,
        stats: &mut SynthesisStats,
    ) -> Verdict {
        let interrupt = crate::engine::interrupt_of(options);
        let paths = match expand_paths(ts, invariants, options.max_eager_disjuncts, &interrupt) {
            Ok(paths) => paths,
            Err(reason) => return Verdict::unknown(reason),
        };
        stats.counterexamples = paths.len();
        let mut alive: Vec<&PathTransition> = paths.iter().collect();
        let mut components: Vec<Vec<(QVector, Rational)>> = Vec::new();
        let max_dims = max_levels.min(ts.num_locations() * ts.num_vars() + 1);
        while !alive.is_empty() && components.len() < max_dims {
            if options.cancel.is_cancelled() {
                return Verdict::unknown(UnknownReason::Cancelled);
            }
            stats.iterations += 1;
            match solve_level(ts, invariants, &alive, &interrupt, stats) {
                None => {
                    // `solve_level` gives `None` both for "no non-trivial
                    // component" and for an interrupted pivot loop: only the
                    // former is a completed answer.
                    let reason = if options.cancel.is_cancelled() {
                        UnknownReason::Cancelled
                    } else {
                        UnknownReason::NoRankingFunction
                    };
                    return Verdict::unknown(reason);
                }
                Some((component, strict)) => {
                    alive = alive
                        .iter()
                        .zip(strict.iter())
                        .filter(|(_, s)| !**s)
                        .map(|(p, _)| *p)
                        .collect();
                    components.push(component);
                }
            }
        }
        if !alive.is_empty() {
            return Verdict::unknown(UnknownReason::NoRankingFunction);
        }
        stats.dimension = components.len();
        Verdict::Terminates(RankingFunction::new(
            ts.num_vars(),
            ts.var_names().to_vec(),
            components,
        ))
    }
}

/// The syntactic, Loopus-style heuristic baseline.
pub mod heuristic {
    use super::*;
    use crate::cancel::CancelToken;
    use termite_smt::{SmtContext, TermVar};

    /// Collects candidate ranking expressions for a location from the atoms of
    /// its outgoing block transitions that mention only pre-state variables
    /// (loop guards give expressions like `x`, `n − i`, ...).
    fn candidates_for(ts: &TransitionSystem, location: usize) -> Vec<LinExpr> {
        let n = ts.num_vars();
        let mut out: Vec<LinExpr> = Vec::new();
        fn collect(f: &Formula, n: usize, out: &mut Vec<LinExpr>) {
            match f {
                Formula::Ge(l, r) => {
                    let e = l.clone() - r.clone();
                    if e.vars().all(|v| v.0 < n) && !e.is_constant() && !out.contains(&e) {
                        out.push(e);
                    }
                }
                Formula::And(cs) | Formula::Or(cs) => {
                    for c in cs {
                        collect(c, n, out);
                    }
                }
                Formula::Not(inner) => collect(inner, n, out),
                _ => {}
            }
        }
        for t in ts.transitions().iter().filter(|t| t.from == location) {
            collect(&t.formula, n, &mut out);
        }
        out
    }

    /// Maps an expression over pre-state variables to the corresponding
    /// expression over post-state variables.
    fn to_post(ts: &TransitionSystem, e: &LinExpr) -> LinExpr {
        let n = ts.num_vars();
        e.substitute(&|v| {
            if v.0 < n {
                Some(LinExpr::var(TermVar(n + v.0)))
            } else {
                None
            }
        })
    }

    /// Issues one SMT query for transition `t`, counted, timed and traced
    /// where it runs; `true` only for a completed `Unsat` answer.
    fn unsat(
        ctx: &mut SmtContext,
        query: &Formula,
        t: &termite_ir::BlockTransition,
        stats: &mut SynthesisStats,
    ) -> bool {
        crate::monodim::counted_query(ctx, stats, |ctx| {
            let _span = termite_obs::span!("smt_check", from = t.from, to = t.to);
            ctx.solve(query)
        })
        .is_unsat()
    }

    /// Verifies a candidate lexicographic tuple: for every transition, some
    /// prefix of the tuple is non-increasing and its last element strictly
    /// decreases while being bounded below on that transition.
    fn verify_tuple(
        ts: &TransitionSystem,
        invariants: &[Polyhedron],
        tuple: &[LinExpr],
        ctx: &mut SmtContext,
        stats: &mut SynthesisStats,
    ) -> bool {
        for t in ts.transitions() {
            let inv = &invariants[t.from];
            if inv.is_empty() {
                continue;
            }
            let base = Formula::and(vec![
                crate::monodim::invariant_formula(inv),
                t.formula.clone(),
            ]);
            let mut justified = false;
            let mut prefix_nonincreasing = Formula::True;
            for e in tuple {
                let pre = e.clone();
                let post = to_post(ts, e);
                // Strict decrease on this transition? Only completed `Unsat`
                // answers justify anything: an interrupted query must not
                // smuggle in a proof.
                let not_strict = Formula::and(vec![
                    base.clone(),
                    prefix_nonincreasing.clone(),
                    Formula::ge(post.clone(), pre.clone()),
                ]);
                let unbounded = Formula::and(vec![
                    base.clone(),
                    prefix_nonincreasing.clone(),
                    Formula::le(pre.clone(), LinExpr::constant(-1)),
                ]);
                if unsat(ctx, &not_strict, t, stats) && unsat(ctx, &unbounded, t, stats) {
                    justified = true;
                    break;
                }
                // Otherwise this component must at least be non-increasing for
                // the lexicographic argument to continue.
                let increases =
                    Formula::and(vec![base.clone(), Formula::gt(post.clone(), pre.clone())]);
                if !unsat(ctx, &increases, t, stats) {
                    return false;
                }
                prefix_nonincreasing =
                    Formula::and(vec![prefix_nonincreasing, Formula::eq_expr(pre, post)]);
            }
            if !justified {
                return false;
            }
        }
        true
    }

    /// Runs the heuristic prover.
    pub fn prove(
        ts: &TransitionSystem,
        invariants: &[Polyhedron],
        cancel: &CancelToken,
        stats: &mut SynthesisStats,
    ) -> Verdict {
        let n = ts.num_vars();
        let mut ctx = SmtContext::new();
        let cancel_in_smt = cancel.clone();
        ctx.set_interrupt(termite_lp::Interrupt::new(move || {
            cancel_in_smt.is_cancelled()
        }));
        // Assemble one candidate per location, in location order (outer loops
        // first thanks to the pre-order numbering of cut points).
        let mut per_location: Vec<Vec<LinExpr>> = (0..ts.num_locations())
            .map(|k| candidates_for(ts, k))
            .collect();
        for c in &mut per_location {
            c.truncate(4);
        }
        // Try a small number of assemblies: the first candidate of each
        // location, then per-location alternatives one at a time.
        let mut assemblies: Vec<Vec<LinExpr>> = Vec::new();
        let first: Vec<LinExpr> = per_location
            .iter()
            .filter_map(|c| c.first().cloned())
            .collect();
        if first.len() == per_location.len() {
            assemblies.push(first.clone());
        }
        for (k, cands) in per_location.iter().enumerate() {
            for alt in cands.iter().skip(1) {
                if first.len() == per_location.len() {
                    let mut assembly = first.clone();
                    assembly[k] = alt.clone();
                    assemblies.push(assembly);
                }
            }
        }
        for assembly in assemblies {
            if cancel.is_cancelled() {
                return Verdict::unknown(UnknownReason::Cancelled);
            }
            stats.iterations += 1;
            if verify_tuple(ts, invariants, &assembly, &mut ctx, stats) {
                stats.dimension = assembly.len();
                // Report the verified tuple as a ranking function (same
                // expression at every location per component).
                let components = assembly
                    .iter()
                    .map(|e| {
                        let coeffs: termite_linalg::QVector =
                            (0..n).map(|i| e.coeff(TermVar(i))).collect();
                        (0..ts.num_locations())
                            .map(|_| (coeffs.clone(), e.constant_term().clone()))
                            .collect()
                    })
                    .collect();
                return Verdict::Terminates(RankingFunction::new(
                    n,
                    ts.var_names().to_vec(),
                    components,
                ));
            }
        }
        let reason = if cancel.is_cancelled() {
            UnknownReason::Cancelled
        } else {
            UnknownReason::NoRankingFunction
        };
        Verdict::unknown(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prove_transition_system, AnalysisOptions, Engine};
    use termite_ir::parse_program;
    use termite_linalg::QVector;
    use termite_num::Rational;
    use termite_polyhedra::Constraint;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    fn countdown() -> (TransitionSystem, Vec<Polyhedron>) {
        let ts = parse_program("var x; while (x > 0) { x = x - 1; }")
            .unwrap()
            .transition_system();
        let invs = vec![Polyhedron::from_constraints(
            1,
            vec![Constraint::ge(QVector::from_i64(&[1]), q(0))],
        )];
        (ts, invs)
    }

    fn example1() -> (TransitionSystem, Vec<Polyhedron>) {
        let ts = parse_program(
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
        .transition_system();
        let invs = vec![Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(-1)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(11)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(-1)),
                Constraint::le(QVector::from_i64(&[-1, 1]), q(5)),
                Constraint::le(QVector::from_i64(&[1, 1]), q(15)),
            ],
        )];
        (ts, invs)
    }

    #[test]
    fn dnf_expansion_counts_paths() {
        let (ts, invs) = example1();
        let paths = expand_paths(&ts, &invs, 1000, &Interrupt::never()).unwrap();
        // The single block transition has two feasible paths (t1 and t2).
        assert_eq!(paths.len(), 2);
        assert!(formula_to_dnf(&ts.transitions()[0].formula, 1).is_none());
    }

    #[test]
    fn pre_cancelled_expansion_stops_before_the_first_disjunct() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // 2^10 paths, each a theory check when the expansion runs through.
        let ts = termite_suite::generators::multipath_loop(10).transition_system();
        let invs = vec![Polyhedron::universe(ts.num_vars()); ts.num_locations()];
        let polls = Arc::new(AtomicUsize::new(0));
        let counter = polls.clone();
        let cancelled = Interrupt::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            true
        });
        assert_eq!(
            expand_paths(&ts, &invs, 4096, &cancelled).unwrap_err(),
            UnknownReason::Cancelled
        );
        // One poll, before the first disjunct; a theory check would poll
        // again on entry.
        assert_eq!(polls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn eager_baseline_proves_example_1() {
        let (ts, invs) = example1();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::Eager);
        let verdict = eager::prove(&ts, &invs, &options, usize::MAX, &mut stats);
        match verdict {
            Verdict::Terminates(rf) => assert_eq!(rf.dimension(), 1),
            other => panic!("eager baseline must prove Example 1, got {other:?}"),
        }
        // The eager LP is much larger than Termite's: it has Farkas
        // multipliers for every face of every path.
        assert!(stats.lp_max.1 > 10);
    }

    #[test]
    fn podelski_rybalchenko_on_simple_and_lexicographic() {
        let (ts, invs) = countdown();
        let mut stats = SynthesisStats::default();
        let options = AnalysisOptions::with_engine(Engine::PodelskiRybalchenko);
        assert!(matches!(
            eager::prove(&ts, &invs, &options, 1, &mut stats),
            Verdict::Terminates(_)
        ));
        // A two-phase loop with an unbounded reset needs a lexicographic
        // argument: the one-dimensional baseline must give up.
        let ts2 = parse_program(
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
        .unwrap()
        .transition_system();
        let invs2 = vec![Polyhedron::from_constraints(
            3,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0, 0]), q(0)),
                Constraint::ge(QVector::from_i64(&[0, 1, 0]), q(0)),
                Constraint::ge(QVector::from_i64(&[0, 0, 1]), q(0)),
            ],
        )];
        let mut stats2 = SynthesisStats::default();
        assert!(matches!(
            eager::prove(&ts2, &invs2, &options, 1, &mut stats2),
            Verdict::Unknown { .. }
        ));
    }

    #[test]
    fn heuristic_proves_guard_bounded_countdown() {
        let (ts, invs) = countdown();
        let mut stats = SynthesisStats::default();
        match heuristic::prove(&ts, &invs, &crate::CancelToken::new(), &mut stats) {
            Verdict::Terminates(rf) => {
                assert_eq!(rf.dimension(), 1);
                assert!(stats.smt_queries > 0);
            }
            other => panic!("heuristic must prove the simple countdown, got {other:?}"),
        }
    }

    #[test]
    fn heuristic_gives_up_on_nonterminating() {
        let ts = parse_program("var x; while (x > 0) { x = x + 1; }")
            .unwrap()
            .transition_system();
        let invs = vec![Polyhedron::from_constraints(
            1,
            vec![Constraint::ge(QVector::from_i64(&[1]), q(0))],
        )];
        let mut stats = SynthesisStats::default();
        assert!(matches!(
            heuristic::prove(&ts, &invs, &crate::CancelToken::new(), &mut stats),
            Verdict::Unknown { .. }
        ));
    }

    #[test]
    fn engines_agree_on_example_1() {
        let (ts, invs) = example1();
        for engine in [Engine::Termite, Engine::Eager, Engine::Heuristic] {
            let report = prove_transition_system(&ts, &invs, &AnalysisOptions::with_engine(engine));
            assert!(report.proved(), "engine {engine:?} must prove Example 1");
        }
    }
}
