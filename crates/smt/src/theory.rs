//! The linear-integer-arithmetic theory solver.
//!
//! Given a conjunction of normalised atoms (`Σ aᵢ·xᵢ ≥ b` with integer
//! coefficients), this module decides satisfiability over the integers and
//! optionally minimises a linear objective:
//!
//! 1. the rational relaxation is decided on a warm
//!    [`BoundedTableau`](termite_lp::BoundedTableau) that persists for the
//!    solver's lifetime (an [`SmtContext`](crate::SmtContext) keeps one
//!    solver across all its queries); an infeasible relaxation yields a
//!    conflict set of atoms, which the DPLL(T) driver turns into a blocking
//!    clause;
//! 2. a feasible relaxation gets its model from the exact (cold) simplex of
//!    [`termite_lp`] only where a caller reads that model; if the witness or
//!    optimum is fractional, branch-and-bound on the fractional variables
//!    establishes integrality. Branching is bounded by a node budget; if the
//!    budget is exhausted the result is flagged as non-integral
//!    (`integral = false`), which callers treat conservatively (see the
//!    crate documentation of `termite-core`).
//!
//! # Which models run cold
//!
//! * [`TheorySolver::minimize`] solves the cold minimisation LP first. An
//!   integral optimum is the answer: an integer point exists, so a cold
//!   check would have been consistent, and the minimiser is what a
//!   from-scratch solve returns. Only an unbounded objective (reported with
//!   the check's model) or a fractional optimum (which needs an integer
//!   point before branch-and-bound) also runs the check's cold LP.
//! * [`TheorySolver::check`] promises the cold model: the one a
//!   from-scratch solver returns.
//! * [`TheorySolver::decide`] answers from the warm tableau's point when it
//!   is integral, and takes `check`'s cold path otherwise. The answer is
//!   `check`'s; the model is a valid integer model, not necessarily the
//!   cold one. `SmtContext::solve` and path-feasibility tests use it.
//!
//! Minimisers, rays and cold models do not depend on what the warm tableau
//! has seen before, so the counterexamples built from them do not either.
//!
//! # Atoms on the tableau
//!
//! Every term variable is a free column, and every atom `Σ aᵢ·xᵢ ≥ b` one
//! row `s = Σ aᵢ·xᵢ`, oriented so that the leading coefficient is positive.
//! The atom is the lower bound `s ≥ b`; its negation `−Σ aᵢ·xᵢ ≥ 1 − b`
//! shares the row as the upper bound `s ≤ b − 1`. The solver's atom table
//! numbers each oriented atom once for the solver's lifetime, with a
//! fixed, unrandomised hasher (the table is only looked up, never iterated
//! into output). The SMT encoder, the tableau and the kept conflict cores
//! all name atoms by these ids, so every literal set of a query is loaded
//! as `(id, polarity)` pairs without building, negating or hashing an
//! atom. The atoms themselves are rebuilt from the table only for the cold
//! LPs of a feasible set. Rows outlive their query, so later queries over
//! the same atoms start warm; a query whose atoms would hold less than
//! half the rows rebuilds the tableau from them alone
//! ([`TheorySolver::intern_all`]), and the ids survive the rebuild. A
//! literal set that bounds one row twice (a duplicate atom, or an atom with
//! its negation) puts the extra literal on a spare row with the same
//! expression, so every row carries one literal and the blocking rows of a
//! check name its support.
//!
//! # Conflict cores from warm certificates
//!
//! A conflict is shrunk by deletion: walk the atoms in order and drop each
//! one whose removal leaves the relaxation infeasible. Each "probe" retracts
//! one bound on the tableau and re-checks from the current basis; a
//! feasible probe puts the bound back. An infeasible warm check also
//! returns a Farkas certificate: the violated row together with the bounds
//! that block it, which are infeasible on their own (its *support*). The
//! deletion loop keeps the support of the most recent certificate: first
//! that of the check that found the conflict, then that of each probe that
//! came back infeasible. An atom outside that support is dropped without a
//! probe: the remaining atoms still contain the whole support, so the probe
//! would have answered "infeasible" anyway. Atoms inside the support are
//! probed. Every keep/drop decision is the one plain deletion makes, so the
//! core — and with it the blocking clauses and the whole SAT search — is
//! plain deletion's, whichever oracle answered the probes and whatever rows
//! the tableau has collected.

use crate::{Atom, LinExpr, TermVar};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use termite_lp::{
    Bound, BoundedTableau, Constraint as LpConstraint, Interrupt, Interrupted, LinearProgram,
    LpOutcome, LpSolution, Relation, VarId,
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
        /// The consistency check's model of the conjunction.
        model: HashMap<TermVar, Rational>,
        /// Whether `model` is guaranteed integral.
        integral: bool,
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

/// A theory literal: an atom of a [`TheorySolver`]'s table and a polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TheoryLit {
    /// The atom's id in the solver's [`AtomTable`].
    pub(crate) atom: usize,
    /// Whether the literal is the atom (or its negation).
    pub(crate) positive: bool,
}

impl TheoryLit {
    /// The opposite literal of the same atom.
    pub(crate) fn negate(self) -> TheoryLit {
        TheoryLit {
            positive: !self.positive,
            ..self
        }
    }
}

/// A fixed, unkeyed hasher (the multiply-rotate of rustc's `FxHasher`).
/// Atom tables are only looked up, never iterated into output, so a
/// deterministic hash needs no random keys.
#[derive(Clone, Copy, Debug, Default)]
struct FixedHasher(u64);

impl FixedHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every atom a solver has seen, positively oriented (leading coefficient
/// positive) and numbered once for the solver's lifetime: the encoder, the
/// tableau and the kept conflict cores all name atoms by these ids.
#[derive(Clone, Debug, Default)]
pub(crate) struct AtomTable {
    keys: Vec<Atom>,
    ids: HashMap<Atom, usize, BuildHasherDefault<FixedHasher>>,
}

impl AtomTable {
    /// The literal `atom` is: its oriented form's id, numbered on first
    /// sight, and whether `atom` is that form or its negation.
    pub(crate) fn literal(&mut self, mut atom: Atom) -> TheoryLit {
        // `e ≥ b` with a negative leading coefficient is the negation of
        // `−e ≥ 1 − b`, whose leading coefficient is positive.
        let positive = !atom.coeffs.values().next().is_some_and(|c| c.is_negative());
        if !positive {
            atom.negate_in_place();
        }
        let id = match self.ids.get(&atom) {
            Some(&id) => id,
            None => {
                let id = self.keys.len();
                self.ids.insert(atom.clone(), id);
                self.keys.push(atom);
                id
            }
        };
        TheoryLit { atom: id, positive }
    }

    /// Number of atoms numbered so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The literal as an atom.
    fn atom(&self, lit: TheoryLit) -> Atom {
        let key = &self.keys[lit.atom];
        if lit.positive {
            key.clone()
        } else {
            key.negate()
        }
    }
}

/// The rows and bounds of one atom on an [`AtomTableau`].
#[derive(Clone, Debug)]
struct InternedAtom {
    /// The row `s = e`.
    row: usize,
    /// The spare rows with the same expression that literal sets have
    /// needed (most atoms need none).
    spares: Vec<usize>,
    /// `s ≥ b`, the bound of the positive literal.
    holds: Bound,
    /// `s ≤ b − 1`, the bound of the negative literal.
    fails: Bound,
}

/// The rows of the atoms interned so far on a [`BoundedTableau`], and the
/// literal set loaded on it.
#[derive(Clone, Debug, Default)]
struct AtomTableau {
    tableau: BoundedTableau,
    /// The column of each term variable.
    columns: HashMap<TermVar, usize>,
    /// The rows and bounds of each table atom on this tableau, by atom id.
    atoms: Vec<Option<InternedAtom>>,
    /// Each loaded literal and the row that carries it, in load order.
    loaded: Vec<(TheoryLit, usize)>,
    /// The loaded literal whose bound each variable carries, if any.
    owner: Vec<Option<usize>>,
}

impl AtomTableau {
    /// An empty tableau with room for `columns` columns and `rows` atoms'
    /// rows.
    fn with_capacity(columns: usize, rows: usize) -> Self {
        let mut tableau = BoundedTableau::new();
        tableau.reserve(columns, rows);
        AtomTableau {
            tableau,
            columns: HashMap::with_capacity(columns),
            owner: Vec::with_capacity(columns + rows),
            ..AtomTableau::default()
        }
    }

    /// Puts table atom `id` on the tableau (its row and both bounds), unless
    /// it is there already.
    fn intern(&mut self, table: &AtomTable, id: usize) {
        if self.atoms.len() <= id {
            self.atoms.resize(id + 1, None);
        }
        if self.atoms[id].is_some() {
            return;
        }
        let key = &table.keys[id];
        let row = self.add_row(key);
        let b = Rational::from_int(key.rhs.clone());
        let fails = Bound::Upper(&b - &Rational::one());
        self.atoms[id] = Some(InternedAtom {
            row,
            spares: Vec::new(),
            holds: Bound::Lower(b),
            fails,
        });
    }

    /// The rows and bounds of table atom `id`, which a literal to load
    /// names.
    fn interned(&self, id: usize) -> &InternedAtom {
        self.atoms[id]
            .as_ref()
            .expect("a query interns its literals' atoms before loading them")
    }

    /// Adds a row for `key`'s expression, and the columns of its variables
    /// not seen yet.
    fn add_row(&mut self, key: &Atom) -> usize {
        for v in key.coeffs.keys() {
            if !self.columns.contains_key(v) {
                self.columns.insert(*v, self.tableau.add_column());
            }
        }
        let columns = &self.columns;
        let terms = (key.coeffs.iter()).map(|(v, a)| (columns[v], Rational::from_int(a.clone())));
        let row = self.tableau.add_row(terms);
        self.owner.resize(row + 1, None);
        row
    }

    /// Replaces the loaded literal set by `literals`: retracts the bounds of
    /// the previous set and asserts one bound per literal.
    fn load(&mut self, table: &AtomTable, literals: &[TheoryLit]) {
        for &(_, row) in &self.loaded {
            self.tableau.retract(row);
            self.owner[row] = None;
        }
        self.loaded.clear();
        for (index, &lit) in literals.iter().enumerate() {
            let atom = self.interned(lit.atom);
            let mut rows = std::iter::once(atom.row).chain(atom.spares.iter().copied());
            let row = match rows.find(|&r| self.owner[r].is_none()) {
                Some(row) => row,
                None => {
                    let row = self.add_row(&table.keys[lit.atom]);
                    let atom = self.atoms[lit.atom].as_mut().expect("interned above");
                    atom.spares.push(row);
                    row
                }
            };
            self.owner[row] = Some(index);
            self.loaded.push((lit, row));
            self.reassert(index);
        }
    }

    /// Removes the bound of loaded literal `index`.
    fn retract(&mut self, index: usize) {
        self.tableau.retract(self.loaded[index].1);
    }

    /// Puts the bound of loaded literal `index` (back) on its row.
    fn reassert(&mut self, index: usize) {
        let (lit, row) = self.loaded[index];
        let atom = self.interned(lit.atom);
        let bound = if lit.positive {
            atom.holds.clone()
        } else {
            atom.fails.clone()
        };
        self.tableau.assert_bound(row, bound);
    }

    /// The loaded literals as atoms, in load order.
    fn loaded_atoms(&self, table: &AtomTable) -> Vec<Atom> {
        (self.loaded.iter())
            .map(|&(lit, _)| table.atom(lit))
            .collect()
    }

    /// The variables of the loaded literals, ascending.
    fn loaded_vars(&self, table: &AtomTable) -> Vec<TermVar> {
        let vars: BTreeSet<TermVar> = (self.loaded.iter())
            .flat_map(|&(lit, _)| table.keys[lit.atom].vars())
            .collect();
        vars.into_iter().collect()
    }

    /// Checks the asserted literals: `Ok(Some(support))` lists (ascending)
    /// the loaded literals of an infeasible subset.
    fn check(&mut self, interrupt: &Interrupt) -> Result<Option<Vec<usize>>, Interrupted> {
        let mut support = self.tableau.check(interrupt)?;
        // Columns are free, so every blocking variable is a literal's row.
        for var in support.iter_mut().flatten() {
            *var = self.owner[*var].expect("a blocking row carries a literal");
        }
        support
            .iter_mut()
            .for_each(|literals| literals.sort_unstable());
        Ok(support)
    }

    /// The tableau's current values of `vars`, if every one is integral.
    /// After a feasible check they satisfy every loaded literal.
    fn integral_point(&self, vars: &[TermVar]) -> Option<HashMap<TermVar, Rational>> {
        (vars.iter())
            .map(|v| {
                let value = self.tableau.value(self.columns[v]);
                value.is_integer().then(|| (*v, value.clone()))
            })
            .collect()
    }
}

/// Which model a consistent check returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ModelSource {
    /// The cold LP's model (after branch-and-bound), as a from-scratch
    /// solver returns it.
    Cold,
    /// The warm tableau's point when it is integral, else the cold model.
    WarmIfIntegral,
}

/// The LIA theory solver: the table of every atom it has seen, a warm
/// tableau over the atoms of recent queries, the interrupt source, and its
/// work counters.
#[derive(Debug, Default, Clone)]
pub struct TheorySolver {
    interrupt: Interrupt,
    /// Cold LPs solved so far (see [`TheorySolver::lp_solves`]).
    lp_solves: usize,
    /// Warm checks and probes so far (see [`TheorySolver::warm_checks`]).
    warm_checks: usize,
    table: AtomTable,
    tableau: AtomTableau,
}

impl TheorySolver {
    /// Creates a theory solver that runs to completion.
    pub fn new() -> Self {
        TheorySolver::default()
    }

    /// Creates a theory solver whose simplex solves, warm and cold, poll
    /// `interrupt` every few pivots, so cancellation lands mid-pivot even
    /// inside the SMT search (ROADMAP "interruptible solvers", SMT side).
    pub fn with_interrupt(interrupt: Interrupt) -> Self {
        TheorySolver {
            interrupt,
            ..TheorySolver::default()
        }
    }

    /// Replaces the interruption source of later solves.
    pub(crate) fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// The interruption source the solves poll.
    pub(crate) fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Number of cold LPs this solver has solved: minimisations, the
    /// models a caller reads (see the module documentation) and
    /// branch-and-bound nodes (interrupted solves included).
    pub fn lp_solves(&self) -> usize {
        self.lp_solves
    }

    /// Number of warm checks this solver has run on its tableau: one per
    /// non-empty consistency check or minimisation, plus one per conflict
    /// deletion probe (interrupted checks included).
    pub fn warm_checks(&self) -> usize {
        self.warm_checks
    }

    /// The table that numbers every atom this solver has seen.
    pub(crate) fn atoms(&mut self) -> &mut AtomTable {
        &mut self.table
    }

    /// Puts the atoms of the literals a query is about to load on the
    /// tableau, in order. A tableau more than half of whose rows would then
    /// belong to other atoms is rebuilt from these alone: stale rows cost
    /// every check and pivot, and a rebuild is paid for by the rows added
    /// since the last one. Answers do not depend on the rows a tableau holds
    /// (see the module documentation), and atom ids outlive a rebuild.
    pub(crate) fn intern_all(&mut self, literals: &[TheoryLit]) {
        for lit in literals {
            self.tableau.intern(&self.table, lit.atom);
        }
        if self.tableau.owner.len() <= 2 * literals.len() {
            return;
        }
        // The rebuilt tableau's columns are among the old one's.
        self.tableau = AtomTableau::with_capacity(self.tableau.columns.len(), literals.len());
        for lit in literals {
            self.tableau.intern(&self.table, lit.atom);
        }
    }

    /// Numbers `atoms` in the table and puts them on the tableau.
    fn literals_of(&mut self, atoms: &[Atom]) -> Vec<TheoryLit> {
        let literals: Vec<TheoryLit> = (atoms.iter())
            .map(|a| self.table.literal(a.clone()))
            .collect();
        self.intern_all(&literals);
        literals
    }

    /// Runs one LP through the interruptible simplex.
    fn solve_lp(&mut self, lp: &LinearProgram) -> Option<LpSolution> {
        self.lp_solves += 1;
        lp.solve_interruptible(&self.interrupt)
    }

    /// Runs one warm check of the literals loaded on the tableau.
    fn warm_check(&mut self) -> Result<Option<Vec<usize>>, Interrupted> {
        self.warm_checks += 1;
        self.tableau.check(&self.interrupt)
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
            // Unnamed: names are only read by `Display`.
            ids.insert(*v, lp.add_free_var(String::new()));
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

    /// Checks consistency of a conjunction of atoms over the integers; a
    /// consistent answer carries the cold model.
    pub fn check(&mut self, atoms: &[Atom]) -> TheoryOutcome {
        let literals = self.literals_of(atoms);
        self.check_literals(&literals, ModelSource::Cold)
    }

    /// Decides consistency of a conjunction of atoms over the integers, as
    /// [`check`](Self::check) does; a consistent answer may carry the warm
    /// tableau's (integral) point instead of the cold model.
    pub fn decide(&mut self, atoms: &[Atom]) -> TheoryOutcome {
        let literals = self.literals_of(atoms);
        self.check_literals(&literals, ModelSource::WarmIfIntegral)
    }

    /// Minimises `objective` over the conjunction of atoms (integer
    /// variables).
    pub fn minimize(&mut self, atoms: &[Atom], objective: &LinExpr) -> MinimizeOutcome {
        let literals = self.literals_of(atoms);
        self.minimize_literals(&literals, objective)
    }

    /// Loads `literals` and decides their relaxation warm: `Ok(Some(core))`
    /// (indices into `literals`) when it is infeasible.
    fn decide_relaxation(
        &mut self,
        literals: &[TheoryLit],
    ) -> Result<Option<Vec<usize>>, Interrupted> {
        self.tableau.load(&self.table, literals);
        // Atoms are never variable-free, so an empty set is the only one
        // that needs no check.
        if literals.is_empty() {
            return Ok(None);
        }
        Ok(self
            .warm_check()?
            .map(|support| self.minimize_conflict(support)))
    }

    /// [`check`](Self::check) on interned literals, with the model from
    /// `source`.
    pub(crate) fn check_literals(
        &mut self,
        literals: &[TheoryLit],
        source: ModelSource,
    ) -> TheoryOutcome {
        match self.decide_relaxation(literals) {
            Err(Interrupted) => return TheoryOutcome::Interrupted,
            Ok(Some(conflict)) => return TheoryOutcome::Inconsistent { conflict },
            Ok(None) => {}
        }
        let vars = self.tableau.loaded_vars(&self.table);
        if source == ModelSource::WarmIfIntegral {
            if let Some(model) = self.tableau.integral_point(&vars) {
                return TheoryOutcome::Consistent {
                    model,
                    integral: true,
                };
            }
        }
        let atoms = self.tableau.loaded_atoms(&self.table);
        self.cold_model(&atoms.iter().collect::<Vec<_>>(), &vars)
    }

    /// The cold model of a conjunction whose relaxation is feasible: the
    /// LP's vertex, then branch-and-bound if it is fractional.
    fn cold_model(&mut self, atoms: &[&Atom], vars: &[TermVar]) -> TheoryOutcome {
        if vars.is_empty() {
            return TheoryOutcome::Consistent {
                model: HashMap::new(),
                integral: true,
            };
        }
        let (lp, ids) = Self::build_lp(atoms, &[], None, vars);
        let Some(solution) = self.solve_lp(&lp) else {
            return TheoryOutcome::Interrupted;
        };
        let LpOutcome::Optimal { assignment, .. } = solution.outcome else {
            unreachable!("the warm check found the relaxation feasible");
        };
        let model = Self::model_from_assignment(vars, &ids, &assignment);
        match Self::first_fractional(&model) {
            None => TheoryOutcome::Consistent {
                model,
                integral: true,
            },
            Some(_) => self.branch_and_bound_feasible(atoms, vars, model),
        }
    }

    /// Greedy conflict minimisation by deletion on the warm tableau, which
    /// holds the loaded literals and found them infeasible with certificate
    /// `support`. Probes the certificate does not answer retract one bound
    /// and re-check (see the module documentation).
    fn minimize_conflict(&mut self, mut support: Vec<usize>) -> Vec<usize> {
        let mut active: Vec<usize> = (0..self.tableau.loaded.len()).collect();
        // `support` holds the atoms of the most recent certificate; it stays
        // a subset of `active`, and the tableau bounds exactly `active`.
        let mut i = 0;
        while i < active.len() {
            if active.len() <= 1 {
                break;
            }
            let atom = active[i];
            self.tableau.retract(atom);
            if !support.contains(&atom) {
                // The rest still holds the whole certificate: infeasible.
                active.remove(i);
                continue;
            }
            match self.warm_check() {
                Ok(Some(probe_support)) => {
                    support = probe_support;
                    active.remove(i);
                }
                Ok(None) => {
                    self.tableau.reassert(atom);
                    i += 1;
                }
                // An interrupted probe ends the minimisation early: the
                // current `active` set is already known to be infeasible, so
                // it is still a valid (just less minimal) conflict.
                Err(Interrupted) => break,
            }
        }
        // A wrong certificate would turn a satisfiable assignment into a
        // blocking clause: re-check the core (outside the solve count).
        debug_assert!(
            {
                let atoms = self.tableau.loaded_atoms(&self.table);
                self.relaxation_infeasible(active.iter().map(|&j| &atoms[j]))
            },
            "conflict core {active:?} has a rational solution"
        );
        active
    }

    /// Whether the relaxation of `atoms` is infeasible (an interrupted
    /// re-check proves nothing either way and counts as infeasible).
    fn relaxation_infeasible<'a>(&self, atoms: impl IntoIterator<Item = &'a Atom>) -> bool {
        let atoms: Vec<&Atom> = atoms.into_iter().collect();
        let (lp, _) = Self::build_lp(&atoms, &[], None, &Self::collect_vars(&atoms));
        lp.solve_interruptible(&self.interrupt)
            .is_none_or(|solution| solution.outcome == LpOutcome::Infeasible)
    }

    /// Branch-and-bound search for an integer point of a rational-feasible
    /// system.
    fn branch_and_bound_feasible(
        &mut self,
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

    /// [`minimize`](Self::minimize) on interned literals: the warm check,
    /// then the cold minimisation, then the check's cold model only where
    /// the answer needs it (see the module documentation).
    pub(crate) fn minimize_literals(
        &mut self,
        literals: &[TheoryLit],
        objective: &LinExpr,
    ) -> MinimizeOutcome {
        match self.decide_relaxation(literals) {
            Err(Interrupted) => return MinimizeOutcome::Interrupted,
            Ok(Some(conflict)) => return MinimizeOutcome::Inconsistent { conflict },
            Ok(None) => {}
        }
        let atoms = self.tableau.loaded_atoms(&self.table);
        let refs: Vec<&Atom> = atoms.iter().collect();
        let check_vars = self.tableau.loaded_vars(&self.table);
        // Objective variables that do not occur in the atoms are represented
        // too (they are then unconstrained).
        let vars: Vec<TermVar> = (check_vars.iter().copied())
            .chain(objective.vars())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
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
        // The relaxation's minimiser and minimum, or its ray.
        let relaxation = match solution.outcome {
            LpOutcome::Infeasible => unreachable!("the warm check found the relaxation feasible"),
            LpOutcome::Unbounded { ray } => {
                Err(vars.iter().map(|v| (*v, ray[ids[v].0].clone())).collect())
            }
            LpOutcome::Optimal {
                objective: value,
                assignment,
            } => {
                let model = Self::model_from_assignment(&vars, &ids, &assignment);
                let value = &value + objective.constant_term();
                if Self::first_fractional(&model).is_none() {
                    return MinimizeOutcome::Optimal {
                        model,
                        value,
                        integral: true,
                    };
                }
                Ok((model, value))
            }
        };
        // A ray is reported with the check's model, and a fractional optimum
        // needs an integer point: both take the cold check first.
        let check = match self.cold_model(&refs, &check_vars) {
            TheoryOutcome::Consistent { model, integral } => (model, integral),
            TheoryOutcome::Inconsistent { conflict } => {
                return MinimizeOutcome::Inconsistent { conflict }
            }
            TheoryOutcome::Interrupted => return MinimizeOutcome::Interrupted,
        };
        match relaxation {
            Err(ray) => MinimizeOutcome::Unbounded {
                model: check.0,
                integral: check.1,
                ray,
            },
            Ok((model, value)) => {
                self.branch_and_bound_minimize(&refs, &vars, objective, (model, value), check)
            }
        }
    }

    /// Branch-and-bound minimisation with an incumbent, from the
    /// relaxation's fractional minimiser; `check` is the conjunction's
    /// model, reported if a branch turns out unbounded.
    fn branch_and_bound_minimize(
        &mut self,
        atoms: &[&Atom],
        vars: &[TermVar],
        objective: &LinExpr,
        relaxation: (HashMap<TermVar, Rational>, Rational),
        check: (HashMap<TermVar, Rational>, bool),
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
                    return MinimizeOutcome::Unbounded {
                        model: check.0,
                        integral: check.1,
                        ray: vars.iter().map(|v| (*v, ray[ids[v].0].clone())).collect(),
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
            None if budget_exhausted => MinimizeOutcome::Optimal {
                model: relaxation.0,
                value: relaxation.1,
                integral: false,
            },
            // No integer point at all.
            None => MinimizeOutcome::Inconsistent {
                conflict: (0..atoms.len()).collect(),
            },
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
        let mut active: Vec<usize> = (0..atoms.len()).collect();
        let mut i = 0;
        while i < active.len() && active.len() > 1 {
            let mut candidate = active.clone();
            candidate.remove(i);
            if !relaxation_feasible(atoms, &candidate) {
                active = candidate;
            } else {
                i += 1;
            }
        }
        active
    }

    fn relaxation_feasible(atoms: &[Atom], subset: &[usize]) -> bool {
        !TheorySolver::new().relaxation_infeasible(subset.iter().map(|&j| &atoms[j]))
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

    /// The cold path alone, as a from-scratch solver would take it: one LP
    /// decides the relaxation, plain deletion shrinks a conflict, and a
    /// feasible relaxation takes `check`'s cold model path. A warm solver
    /// must give this answer at every step, whatever it has seen before.
    fn cold_check(atoms: &[Atom]) -> TheoryOutcome {
        let refs: Vec<&Atom> = atoms.iter().collect();
        let vars = TheorySolver::collect_vars(&refs);
        if vars.is_empty() {
            return TheoryOutcome::Consistent {
                model: HashMap::new(),
                integral: true,
            };
        }
        let (lp, ids) = TheorySolver::build_lp(&refs, &[], None, &vars);
        match lp.solve().outcome {
            LpOutcome::Infeasible => TheoryOutcome::Inconsistent {
                conflict: plain_deletion_core(atoms),
            },
            LpOutcome::Unbounded { .. } => unreachable!("feasibility LP cannot be unbounded"),
            LpOutcome::Optimal { assignment, .. } => {
                let model = TheorySolver::model_from_assignment(&vars, &ids, &assignment);
                match TheorySolver::first_fractional(&model) {
                    None => TheoryOutcome::Consistent {
                        model,
                        integral: true,
                    },
                    Some(_) => TheorySolver::new().branch_and_bound_feasible(&refs, &vars, model),
                }
            }
        }
    }

    /// The literal set a polarity assignment picks from `atoms`.
    fn literals(atoms: &[Atom], polarity: &[bool]) -> Vec<Atom> {
        atoms
            .iter()
            .zip(polarity)
            .map(|(a, &p)| if p { a.clone() } else { a.negate() })
            .collect()
    }

    /// A random atom set over 3 variables (repeats allowed) and a sequence
    /// of polarity assignments to it, as DPLL(T) hands one solver its
    /// literal sets.
    fn assignment_sequence() -> impl Strategy<Value = (Vec<Atom>, Vec<Vec<bool>>)> {
        (
            prop::collection::vec((prop::collection::vec(-3i64..=3, 3), -4i64..=6), 1..8),
            prop::collection::vec(prop::collection::vec(any::<bool>(), 8), 1..8),
        )
            .prop_map(|(rows, steps)| {
                let atoms = rows
                    .iter()
                    .filter(|(c, _)| c.iter().any(|&k| k != 0))
                    .map(|(c, b)| atom(&[(0, c[0]), (1, c[1]), (2, c[2])], *b))
                    .collect::<Vec<Atom>>();
                (atoms, steps)
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

        /// One solver driven through a sequence of literal sets answers
        /// each exactly as the cold reference does: same outcome, same
        /// core (plain deletion's), same model.
        #[test]
        fn warm_solver_matches_the_cold_reference_at_every_step(case in assignment_sequence()) {
            let (atoms, steps) = case;
            let mut theory = TheorySolver::new();
            for polarity in &steps {
                let set = literals(&atoms, polarity);
                prop_assert_eq!(theory.check(&set), cold_check(&set));
            }
        }

        /// `decide` on the same warm solver gives `check`'s answer; where
        /// it is consistent, the model (the warm point or the cold one) is
        /// integral and satisfies every literal.
        #[test]
        fn decide_gives_the_cold_answer_with_a_valid_model(case in assignment_sequence()) {
            let (atoms, steps) = case;
            let mut theory = TheorySolver::new();
            for polarity in &steps {
                let set = literals(&atoms, polarity);
                match (theory.decide(&set), cold_check(&set)) {
                    (
                        TheoryOutcome::Consistent { model, integral },
                        TheoryOutcome::Consistent { integral: cold_integral, .. },
                    ) => {
                        prop_assert!(integral || !cold_integral);
                        if integral {
                            prop_assert!(model.values().all(Rational::is_integer));
                        }
                        let value = |v: TermVar| model.get(&v).cloned().unwrap_or_else(Rational::zero);
                        prop_assert!(set.iter().all(|a| a.eval(&value)), "{:?} fails {:?}", model, set);
                    }
                    (warm, cold) => prop_assert_eq!(warm, cold),
                }
            }
        }
    }

    #[test]
    fn duplicate_and_contradictory_literals_get_the_cold_answer() {
        // Two bounds on one row: the extra literal takes a spare row with the
        // same expression. One solver for all sets, so spare rows persist.
        let x_ge_5 = atom(&[(0, 1)], 5);
        let x_le_3 = atom(&[(0, -1)], -3);
        let y_ge_0 = atom(&[(1, 1)], 0);
        let sets = [
            vec![x_ge_5.clone(), x_ge_5.clone(), x_le_3.clone()],
            vec![x_ge_5.clone(), x_ge_5.negate()],
            vec![y_ge_0.clone(), x_ge_5.clone(), x_ge_5.clone()],
            vec![x_ge_5.negate(), y_ge_0, x_ge_5.clone(), x_ge_5.negate()],
            vec![x_le_3.clone(), x_le_3.clone(), x_le_3],
        ];
        let mut theory = TheorySolver::new();
        for set in &sets {
            assert_eq!(theory.check(set), cold_check(set), "literals {set:?}");
        }
    }

    #[test]
    fn pre_raised_interrupt_stops_a_warm_check() {
        let raised = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = raised.clone();
        let mut theory = TheorySolver::with_interrupt(Interrupt::new(move || {
            flag.load(std::sync::atomic::Ordering::SeqCst)
        }));
        let conflict = vec![atom(&[(0, 1)], 5), atom(&[(0, -1)], -3)];
        assert!(matches!(
            theory.check(&conflict),
            TheoryOutcome::Inconsistent { .. }
        ));
        raised.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(theory.check(&conflict), TheoryOutcome::Interrupted);
        // Both checks ran warm, and neither built a cold LP.
        assert_eq!(theory.lp_solves(), 0);
        assert!(theory.warm_checks() >= 2);
    }

    #[test]
    fn infeasible_minimization_returns_the_deletion_core() {
        // y >= 0 is irrelevant; x >= 5 ∧ x <= 3 is the core.
        let atoms = vec![atom(&[(1, 1)], 0), atom(&[(0, 1)], 5), atom(&[(0, -1)], -3)];
        let mut theory = TheorySolver::new();
        assert_eq!(
            theory.minimize(&atoms, &LinExpr::var(TermVar(1))),
            MinimizeOutcome::Inconsistent {
                conflict: plain_deletion_core(&atoms)
            }
        );
        // The warm check finds the conflict: no cold LP.
        assert_eq!(theory.lp_solves(), 0);
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
