//! The linear-integer-arithmetic theory solver.
//!
//! Given a conjunction of normalised atoms (`Σ aᵢ·xᵢ ≥ b` with integer
//! coefficients), this module decides satisfiability over the integers and
//! optionally minimises a linear objective:
//!
//! 1. the rational relaxation is solved by the exact simplex of
//!    [`termite_lp`]; an infeasible relaxation yields a conflict set of
//!    atoms, which the DPLL(T) driver turns into a blocking clause;
//! 2. if the relaxation is feasible but the optimum/witness is fractional,
//!    branch-and-bound on the fractional variables establishes integrality.
//!    Branching is bounded by a node budget; if the budget is exhausted the
//!    result is flagged as non-integral (`integral = false`), which callers
//!    treat conservatively (see the crate documentation of `termite-core`).
//!
//! # Conflict cores from Farkas certificates
//!
//! A conflict is shrunk by deletion: walk the atoms in order and drop each
//! one whose removal leaves the relaxation infeasible. Each "probe" is a
//! from-scratch LP solve. An infeasible solve also returns a Farkas
//! certificate ([`termite_lp::LpSolution::farkas`]): non-negative
//! multipliers on the atoms whose combination reads `0 ≥ c` with `c > 0`.
//! The atoms with non-zero multipliers (its *support*) are infeasible on
//! their own. The deletion loop keeps the support of the most recent
//! certificate: first that of the LP that found the conflict, then that of
//! each probe that came back infeasible. An atom outside that support is
//! dropped without a solve: the remaining atoms still contain the whole
//! support, so the probe would have answered "infeasible" anyway. Atoms
//! inside the support are probed as before. Every keep/drop decision is the
//! one plain deletion makes, so the core — and with it the blocking
//! clauses and the whole SAT search — is unchanged; only the solves whose
//! answer was already known are skipped.

use crate::{Atom, LinExpr, TermVar};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use termite_lp::{
    Constraint as LpConstraint, Interrupt, LinearProgram, LpOutcome, LpSolution, Relation, VarId,
};
use termite_num::Rational;

/// Result of a theory consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryOutcome {
    /// The conjunction has an integer solution (or, when `integral` is false,
    /// at least a rational one and the integrality budget was exhausted).
    Consistent {
        /// Satisfying assignment for every variable occurring in the atoms.
        model: HashMap<TermVar, Rational>,
        /// Whether the model is guaranteed integral.
        integral: bool,
    },
    /// The conjunction is unsatisfiable; `conflict` indexes a subset of the
    /// input atoms that is already unsatisfiable.
    Inconsistent {
        /// Indices (into the input slice) of a conflicting subset.
        conflict: Vec<usize>,
    },
    /// The check was interrupted mid-pivot (see [`TheorySolver::with_interrupt`]);
    /// no answer was established.
    Interrupted,
}

/// Result of minimising an objective over a conjunction of atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MinimizeOutcome {
    /// The conjunction is unsatisfiable.
    Inconsistent {
        /// Indices of a conflicting subset of atoms.
        conflict: Vec<usize>,
    },
    /// The objective is unbounded below; `ray` is a recession direction of the
    /// (rational) feasible set along which the objective decreases.
    Unbounded {
        /// A feasible point (not necessarily integral).
        model: HashMap<TermVar, Rational>,
        /// Recession direction witnessing unboundedness.
        ray: HashMap<TermVar, Rational>,
    },
    /// The minimisation was interrupted mid-pivot; no answer was
    /// established.
    Interrupted,
    /// A finite minimum was found.
    Optimal {
        /// The minimising assignment.
        model: HashMap<TermVar, Rational>,
        /// The objective value at `model`.
        value: Rational,
        /// Whether the model is guaranteed integral.
        integral: bool,
    },
}

/// Branch-and-bound node budget (per theory call).
const BB_NODE_LIMIT: usize = 400;

/// The LIA theory solver (stateless apart from the interrupt source and a
/// solve counter; all methods take the atom set).
#[derive(Debug, Default, Clone)]
pub struct TheorySolver {
    interrupt: Interrupt,
    /// LP relaxations solved so far (see [`TheorySolver::lp_solves`]).
    lp_solves: Cell<usize>,
}

impl TheorySolver {
    /// Creates a theory solver that runs to completion.
    pub fn new() -> Self {
        TheorySolver::default()
    }

    /// Creates a theory solver whose internal simplex solves poll
    /// `interrupt` every few pivots, so cancellation lands mid-pivot even
    /// inside the SMT search (ROADMAP "interruptible solvers", SMT side).
    pub fn with_interrupt(interrupt: Interrupt) -> Self {
        TheorySolver {
            interrupt,
            lp_solves: Cell::new(0),
        }
    }

    /// Number of LP relaxations this solver has solved: consistency checks,
    /// conflict-minimisation probes, branch-and-bound nodes and
    /// minimisations (interrupted solves included).
    pub fn lp_solves(&self) -> usize {
        self.lp_solves.get()
    }

    /// Runs one LP through the interruptible simplex.
    fn solve_lp(&self, lp: &LinearProgram) -> Option<LpSolution> {
        self.lp_solves.set(self.lp_solves.get() + 1);
        lp.solve_interruptible(&self.interrupt)
    }

    fn collect_vars(atoms: &[&Atom]) -> Vec<TermVar> {
        let mut vars: BTreeSet<TermVar> = BTreeSet::new();
        for a in atoms {
            vars.extend(a.vars());
        }
        vars.into_iter().collect()
    }

    /// Builds the LP relaxation of a set of atoms plus extra bound constraints
    /// from branch-and-bound.
    fn build_lp(
        atoms: &[&Atom],
        extra: &[(TermVar, Relation, Rational)],
        objective: Option<&LinExpr>,
        vars: &[TermVar],
    ) -> (LinearProgram, BTreeMap<TermVar, VarId>) {
        let mut lp = LinearProgram::new();
        let mut ids: BTreeMap<TermVar, VarId> = BTreeMap::new();
        for v in vars {
            ids.insert(*v, lp.add_free_var(format!("v{}", v.0)));
        }
        for a in atoms {
            let terms: Vec<(VarId, Rational)> = a
                .coeffs
                .iter()
                .map(|(v, c)| (ids[v], Rational::from_int(c.clone())))
                .collect();
            lp.add_constraint(LpConstraint::new(
                terms,
                Relation::Ge,
                Rational::from_int(a.rhs.clone()),
            ));
        }
        for (v, rel, bound) in extra {
            lp.add_constraint(LpConstraint::new(
                vec![(ids[v], Rational::one())],
                *rel,
                bound.clone(),
            ));
        }
        match objective {
            Some(obj) => {
                let terms: Vec<(VarId, Rational)> = obj
                    .terms()
                    .filter(|(v, _)| ids.contains_key(v))
                    .map(|(v, c)| (ids[v], c.clone()))
                    .collect();
                lp.minimize(terms);
            }
            None => lp.minimize(vec![]),
        }
        (lp, ids)
    }

    fn model_from_assignment(
        vars: &[TermVar],
        ids: &BTreeMap<TermVar, VarId>,
        assignment: &[Rational],
    ) -> HashMap<TermVar, Rational> {
        vars.iter()
            .map(|v| (*v, assignment[ids[v].0].clone()))
            .collect()
    }

    fn first_fractional(model: &HashMap<TermVar, Rational>) -> Option<(TermVar, Rational)> {
        let mut keys: Vec<&TermVar> = model.keys().collect();
        keys.sort();
        for v in keys {
            let val = &model[v];
            if !val.is_integer() {
                return Some((*v, val.clone()));
            }
        }
        None
    }

    /// Checks consistency of a conjunction of atoms over the integers.
    pub fn check(&self, atoms: &[Atom]) -> TheoryOutcome {
        let refs: Vec<&Atom> = atoms.iter().collect();
        let vars = Self::collect_vars(&refs);
        if vars.is_empty() {
            // Only trivially true/false atoms would have no variables; atoms
            // are normalised, so an empty conjunction is consistent.
            return TheoryOutcome::Consistent {
                model: HashMap::new(),
                integral: true,
            };
        }
        let (lp, ids) = Self::build_lp(&refs, &[], None, &vars);
        let Some(solution) = self.solve_lp(&lp) else {
            return TheoryOutcome::Interrupted;
        };
        match solution.outcome {
            LpOutcome::Infeasible => TheoryOutcome::Inconsistent {
                conflict: self.minimize_conflict(atoms, &vars, solution.farkas_support()),
            },
            LpOutcome::Unbounded { .. } => unreachable!("feasibility LP cannot be unbounded"),
            LpOutcome::Optimal { assignment, .. } => {
                let model = Self::model_from_assignment(&vars, &ids, &assignment);
                match Self::first_fractional(&model) {
                    None => TheoryOutcome::Consistent {
                        model,
                        integral: true,
                    },
                    Some(_) => self.branch_and_bound_feasible(&refs, &vars, model),
                }
            }
        }
    }

    /// Greedy conflict minimisation by deletion, skipping the probes a
    /// Farkas certificate already answers (see the module documentation).
    /// `support` indexes the atoms of a certificate for the whole system;
    /// `None` probes every atom.
    fn minimize_conflict(
        &self,
        atoms: &[Atom],
        vars: &[TermVar],
        mut support: Option<Vec<usize>>,
    ) -> Vec<usize> {
        let mut active: Vec<usize> = (0..atoms.len()).collect();
        // `support` holds the atoms with a non-zero multiplier in the most
        // recent certificate; it stays a subset of `active`.
        let mut i = 0;
        while i < active.len() {
            if active.len() <= 1 {
                break;
            }
            if support.as_ref().is_some_and(|s| !s.contains(&active[i])) {
                // The rest still holds the whole certificate: infeasible.
                active.remove(i);
                continue;
            }
            let mut candidate = active.clone();
            candidate.remove(i);
            let subset: Vec<&Atom> = candidate.iter().map(|&j| &atoms[j]).collect();
            let (lp, _) = Self::build_lp(&subset, &[], None, vars);
            // An interrupted probe ends the minimisation early: the current
            // `active` set is already known to be infeasible, so it is still
            // a valid (just less minimal) conflict.
            let Some(solution) = self.solve_lp(&lp) else {
                break;
            };
            if matches!(solution.outcome, LpOutcome::Infeasible) {
                // The probe's certificate indexes `candidate`'s rows.
                support = solution
                    .farkas_support()
                    .map(|rows| rows.into_iter().map(|k| candidate[k]).collect());
                active = candidate;
            } else {
                i += 1;
            }
        }
        // A wrong certificate would turn a satisfiable assignment into a
        // blocking clause: re-check the core (outside the solve count).
        debug_assert!(
            self.relaxation_infeasible(atoms, &active, vars),
            "conflict core {active:?} has a rational solution"
        );
        active
    }

    /// Whether the relaxation of `atoms[core]` is infeasible (an interrupted
    /// re-check proves nothing either way and counts as infeasible).
    fn relaxation_infeasible(&self, atoms: &[Atom], core: &[usize], vars: &[TermVar]) -> bool {
        let subset: Vec<&Atom> = core.iter().map(|&j| &atoms[j]).collect();
        let (lp, _) = Self::build_lp(&subset, &[], None, vars);
        lp.solve_interruptible(&self.interrupt)
            .is_none_or(|solution| solution.outcome == LpOutcome::Infeasible)
    }

    /// Branch-and-bound search for an integer point of a rational-feasible
    /// system.
    fn branch_and_bound_feasible(
        &self,
        atoms: &[&Atom],
        vars: &[TermVar],
        relaxation_model: HashMap<TermVar, Rational>,
    ) -> TheoryOutcome {
        let mut stack: Vec<Vec<(TermVar, Relation, Rational)>> = vec![Vec::new()];
        let mut nodes = 0usize;
        let mut fallback = relaxation_model;
        while let Some(extra) = stack.pop() {
            nodes += 1;
            if nodes > BB_NODE_LIMIT {
                return TheoryOutcome::Consistent {
                    model: fallback,
                    integral: false,
                };
            }
            let (lp, ids) = Self::build_lp(atoms, &extra, None, vars);
            let Some(solution) = self.solve_lp(&lp) else {
                return TheoryOutcome::Interrupted;
            };
            match solution.outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded { .. } => unreachable!("feasibility LP cannot be unbounded"),
                LpOutcome::Optimal { assignment, .. } => {
                    let model = Self::model_from_assignment(vars, &ids, &assignment);
                    match Self::first_fractional(&model) {
                        None => {
                            return TheoryOutcome::Consistent {
                                model,
                                integral: true,
                            }
                        }
                        Some((v, val)) => {
                            fallback = model;
                            let floor = Rational::from_int(val.floor());
                            let ceil = Rational::from_int(val.ceil());
                            let mut below = extra.clone();
                            below.push((v, Relation::Le, floor));
                            let mut above = extra;
                            above.push((v, Relation::Ge, ceil));
                            stack.push(below);
                            stack.push(above);
                        }
                    }
                }
            }
        }
        // No integer point exists.
        TheoryOutcome::Inconsistent {
            conflict: (0..atoms.len()).collect(),
        }
    }

    /// Minimises `objective` over the conjunction of atoms (integer
    /// variables).
    pub fn minimize(&self, atoms: &[Atom], objective: &LinExpr) -> MinimizeOutcome {
        let refs: Vec<&Atom> = atoms.iter().collect();
        let mut vars = Self::collect_vars(&refs);
        // Make sure objective variables are represented even if they do not
        // occur in the atoms (they are then unconstrained).
        for v in objective.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars.sort();
        if vars.is_empty() {
            return MinimizeOutcome::Optimal {
                model: HashMap::new(),
                value: objective.constant_term().clone(),
                integral: true,
            };
        }
        let (lp, ids) = Self::build_lp(&refs, &[], Some(objective), &vars);
        let Some(solution) = self.solve_lp(&lp) else {
            return MinimizeOutcome::Interrupted;
        };
        match solution.outcome {
            LpOutcome::Infeasible => MinimizeOutcome::Inconsistent {
                conflict: self.minimize_conflict(atoms, &vars, solution.farkas_support()),
            },
            LpOutcome::Unbounded { ray } => {
                // Recover some feasible point for the model part.
                let (flp, fids) = Self::build_lp(&refs, &[], None, &vars);
                let model = match self.solve_lp(&flp).map(|s| s.outcome) {
                    Some(LpOutcome::Optimal { assignment, .. }) => {
                        Self::model_from_assignment(&vars, &fids, &assignment)
                    }
                    _ => HashMap::new(),
                };
                let ray_map: HashMap<TermVar, Rational> =
                    vars.iter().map(|v| (*v, ray[ids[v].0].clone())).collect();
                MinimizeOutcome::Unbounded {
                    model,
                    ray: ray_map,
                }
            }
            LpOutcome::Optimal {
                objective: value,
                assignment,
            } => {
                let model = Self::model_from_assignment(&vars, &ids, &assignment);
                let value = &value + objective.constant_term();
                match Self::first_fractional(&model) {
                    None => MinimizeOutcome::Optimal {
                        model,
                        value,
                        integral: true,
                    },
                    Some(_) => {
                        self.branch_and_bound_minimize(&refs, &vars, objective, model, value)
                    }
                }
            }
        }
    }

    /// Branch-and-bound minimisation with an incumbent.
    fn branch_and_bound_minimize(
        &self,
        atoms: &[&Atom],
        vars: &[TermVar],
        objective: &LinExpr,
        relaxation_model: HashMap<TermVar, Rational>,
        relaxation_value: Rational,
    ) -> MinimizeOutcome {
        let mut best: Option<(HashMap<TermVar, Rational>, Rational)> = None;
        let mut stack: Vec<Vec<(TermVar, Relation, Rational)>> = vec![Vec::new()];
        let mut nodes = 0usize;
        let mut budget_exhausted = false;
        while let Some(extra) = stack.pop() {
            nodes += 1;
            if nodes > BB_NODE_LIMIT {
                budget_exhausted = true;
                break;
            }
            let (lp, ids) = Self::build_lp(atoms, &extra, Some(objective), vars);
            let Some(solution) = self.solve_lp(&lp) else {
                return MinimizeOutcome::Interrupted;
            };
            match solution.outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded { ray } => {
                    let ray_map: HashMap<TermVar, Rational> =
                        vars.iter().map(|v| (*v, ray[ids[v].0].clone())).collect();
                    return MinimizeOutcome::Unbounded {
                        model: relaxation_model,
                        ray: ray_map,
                    };
                }
                LpOutcome::Optimal {
                    objective: bound,
                    assignment,
                } => {
                    let bound = &bound + objective.constant_term();
                    if let Some((_, ref best_val)) = best {
                        if &bound >= best_val {
                            continue; // prune: cannot improve on the incumbent
                        }
                    }
                    let model = Self::model_from_assignment(vars, &ids, &assignment);
                    match Self::first_fractional(&model) {
                        None => {
                            best = Some((model, bound));
                        }
                        Some((v, val)) => {
                            let floor = Rational::from_int(val.floor());
                            let ceil = Rational::from_int(val.ceil());
                            let mut below = extra.clone();
                            below.push((v, Relation::Le, floor));
                            let mut above = extra;
                            above.push((v, Relation::Ge, ceil));
                            stack.push(below);
                            stack.push(above);
                        }
                    }
                }
            }
        }
        match best {
            Some((model, value)) => MinimizeOutcome::Optimal {
                model,
                value,
                integral: true,
            },
            None => {
                if budget_exhausted {
                    MinimizeOutcome::Optimal {
                        model: relaxation_model,
                        value: relaxation_value,
                        integral: false,
                    }
                } else {
                    // No integer point at all.
                    MinimizeOutcome::Inconsistent {
                        conflict: (0..atoms.len()).collect(),
                    }
                }
            }
        }
    }
}

/// Helper used in tests: builds an atom `Σ coeffs·vars ≥ rhs` from machine
/// integers.
#[cfg(test)]
pub(crate) fn atom(coeffs: &[(usize, i64)], rhs: i64) -> Atom {
    use termite_num::Int;
    Atom {
        coeffs: coeffs
            .iter()
            .filter(|(_, c)| *c != 0)
            .map(|(v, c)| (TermVar(*v), Int::from(*c)))
            .collect(),
        rhs: Int::from(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// Plain deletion without certificates: the reference the
    /// certificate-guided loop must reproduce core for core.
    fn plain_deletion_core(atoms: &[Atom]) -> Vec<usize> {
        let vars = TheorySolver::collect_vars(&atoms.iter().collect::<Vec<_>>());
        let mut active: Vec<usize> = (0..atoms.len()).collect();
        let mut i = 0;
        while i < active.len() && active.len() > 1 {
            let mut candidate = active.clone();
            candidate.remove(i);
            if TheorySolver::new().relaxation_infeasible(atoms, &candidate, &vars) {
                active = candidate;
            } else {
                i += 1;
            }
        }
        active
    }

    fn relaxation_feasible(atoms: &[Atom], subset: &[usize]) -> bool {
        let vars = TheorySolver::collect_vars(&atoms.iter().collect::<Vec<_>>());
        !TheorySolver::new().relaxation_infeasible(atoms, subset, &vars)
    }

    /// Random atom systems over 3 variables whose rational relaxation is
    /// infeasible (every atom mentions at least one variable).
    fn infeasible_system() -> impl Strategy<Value = Vec<Atom>> {
        prop::collection::vec((prop::collection::vec(-3i64..=3, 3), -4i64..=6), 2..10)
            .prop_map(|rows| {
                rows.iter()
                    .filter(|(c, _)| c.iter().any(|&k| k != 0))
                    .map(|(c, b)| atom(&[(0, c[0]), (1, c[1]), (2, c[2])], *b))
                    .collect::<Vec<Atom>>()
            })
            .prop_filter("rational relaxation must be infeasible", |atoms| {
                let all: Vec<usize> = (0..atoms.len()).collect();
                !atoms.is_empty() && !relaxation_feasible(atoms, &all)
            })
    }

    proptest! {
        /// Skipping the probes a certificate answers changes no decision:
        /// the core is plain deletion's, and every atom in it is necessary.
        #[test]
        fn certificate_guided_core_matches_plain_deletion(atoms in infeasible_system()) {
            let TheoryOutcome::Inconsistent { conflict } = TheorySolver::new().check(&atoms) else {
                panic!("infeasible relaxation must give a conflict");
            };
            prop_assert_eq!(&conflict, &plain_deletion_core(&atoms));
            for k in 0..conflict.len() {
                let mut rest = conflict.clone();
                rest.remove(k);
                prop_assert!(
                    relaxation_feasible(&atoms, &rest),
                    "atom {} of core {:?} is redundant", conflict[k], conflict
                );
            }
        }
    }

    #[test]
    fn consistent_conjunction() {
        // x >= 1, y >= 2, x + y <= 10
        let atoms = vec![
            atom(&[(0, 1)], 1),
            atom(&[(1, 1)], 2),
            atom(&[(0, -1), (1, -1)], -10),
        ];
        match TheorySolver::new().check(&atoms) {
            TheoryOutcome::Consistent { model, integral } => {
                assert!(integral);
                assert!(model[&TermVar(0)] >= q(1));
                assert!(model[&TermVar(1)] >= q(2));
                assert!(&model[&TermVar(0)] + &model[&TermVar(1)] <= q(10));
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_with_minimal_conflict() {
        // x >= 5, -x >= -3 (x <= 3) conflict; y >= 0 irrelevant.
        let atoms = vec![atom(&[(1, 1)], 0), atom(&[(0, 1)], 5), atom(&[(0, -1)], -3)];
        match TheorySolver::new().check(&atoms) {
            TheoryOutcome::Inconsistent { conflict } => {
                assert!(conflict.contains(&1));
                assert!(conflict.contains(&2));
                assert!(
                    !conflict.contains(&0),
                    "irrelevant atom should be dropped from the core"
                );
            }
            other => panic!("expected inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn integrality_via_branch_and_bound() {
        // 2x >= 1 and 2x <= 1 has the rational solution x = 1/2 but no integer one.
        let atoms = vec![atom(&[(0, 2)], 1), atom(&[(0, -2)], -1)];
        match TheorySolver::new().check(&atoms) {
            TheoryOutcome::Inconsistent { .. } => {}
            other => panic!("expected integer-inconsistent, got {other:?}"),
        }
        // 2x + 2y >= 1, 2x + 2y <= 3: x+y must be 1 (integer solutions exist).
        let atoms = vec![atom(&[(0, 2), (1, 2)], 1), atom(&[(0, -2), (1, -2)], -3)];
        match TheorySolver::new().check(&atoms) {
            TheoryOutcome::Consistent { model, integral } => {
                assert!(integral);
                assert!(model.values().all(Rational::is_integer));
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn minimize_bounded() {
        // minimize x subject to x >= 3, x <= 10
        let atoms = vec![atom(&[(0, 1)], 3), atom(&[(0, -1)], -10)];
        let obj = LinExpr::var(TermVar(0));
        match TheorySolver::new().minimize(&atoms, &obj) {
            MinimizeOutcome::Optimal {
                value,
                model,
                integral,
            } => {
                assert_eq!(value, q(3));
                assert_eq!(model[&TermVar(0)], q(3));
                assert!(integral);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn minimize_unbounded_gives_ray() {
        // minimize x subject to x <= 0: unbounded below along -x.
        let atoms = vec![atom(&[(0, -1)], 0)];
        let obj = LinExpr::var(TermVar(0));
        match TheorySolver::new().minimize(&atoms, &obj) {
            MinimizeOutcome::Unbounded { ray, .. } => {
                assert!(ray[&TermVar(0)].is_negative());
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn minimize_with_fractional_relaxation() {
        // minimize x subject to 2x >= 3 (relaxation optimum 3/2, integer optimum 2).
        let atoms = vec![atom(&[(0, 2)], 3)];
        let obj = LinExpr::var(TermVar(0));
        match TheorySolver::new().minimize(&atoms, &obj) {
            MinimizeOutcome::Optimal {
                value, integral, ..
            } => {
                assert!(integral);
                assert_eq!(value, q(2));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn minimize_objective_with_constant_offset() {
        // minimize x + 7 subject to x >= -2.
        let atoms = vec![atom(&[(0, 1)], -2)];
        let obj = LinExpr::var(TermVar(0)) + LinExpr::constant(7);
        match TheorySolver::new().minimize(&atoms, &obj) {
            MinimizeOutcome::Optimal { value, .. } => assert_eq!(value, q(5)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn empty_conjunction_is_consistent() {
        match TheorySolver::new().check(&[]) {
            TheoryOutcome::Consistent { integral, .. } => assert!(integral),
            other => panic!("expected consistent, got {other:?}"),
        }
    }
}
