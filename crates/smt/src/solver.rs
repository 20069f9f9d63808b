//! The lazy DPLL(T) driver with optimization modulo theory.
//!
//! An [`SmtContext`] owns one [`TheorySolver`] for its lifetime, whose
//! table numbers every atom the context meets once. Each query
//! Tseitin-encodes its formula into a fresh SAT solver, puts the
//! encoding's atoms on the theory solver's tableau once, and then hands it
//! one literal set per SAT model: a conflict becomes a blocking clause, a
//! consistent set ends the search. `solve` accepts the theory solver's warm
//! integral point as the model; `minimize` returns the cold minimiser (see
//! the `theory` module for which models run cold, and why).
//!
//! Two things carry over from one query to the next:
//!
//! * **Prepared conjunctions.** A conjunction that many queries extend
//!   ([`SmtContext::prepare`], [`SmtContext::extend`]) is encoded once, on
//!   first use, into a template SAT solver that is never solved. A query on
//!   it ([`SmtContext::minimize_with`], [`SmtContext::solve_with`]) clones
//!   the template and encodes only its own extra conjuncts, then the root
//!   `And`: the same `new_var`/`add_clause` sequence, so the same CNF,
//!   clause for clause, as encoding the whole conjunction from scratch.
//! * **Kept cores.** Every conflict core is kept as `(atom id, polarity)`
//!   pairs. A SAT model that asserts every literal of a kept core is
//!   blocked with it, with no theory check and no deletion. Cores are valid
//!   in linear integer arithmetic, so this is sound; a kept core may differ
//!   from the one deletion would find on the new model, so identity with a
//!   fresh context's search is tested, not built in (DESIGN.md §16).

use crate::theory::{AtomTable, MinimizeOutcome, ModelSource, TheoryLit};
use crate::{Atom, Formula, LinExpr, TermVar, TheoryOutcome, TheorySolver};
use std::collections::HashMap;
use std::fmt;
use termite_lp::Interrupt;
use termite_num::Rational;
use termite_sat::{Lit, SatResult, Solver as SatSolver, Var as SatVar};

/// A first-order model: integer values for the theory variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<TermVar, Rational>,
    /// Whether every value is guaranteed integral (see the theory solver's
    /// branch-and-bound budget).
    integral: bool,
}

impl Model {
    /// Value of a variable, if the model constrains it.
    pub fn value(&self, v: TermVar) -> Option<&Rational> {
        self.values.get(&v)
    }

    /// Value of a variable, defaulting to zero (unconstrained variables can
    /// take any value; zero is a valid choice).
    pub fn value_or_zero(&self, v: TermVar) -> Rational {
        self.values.get(&v).cloned().unwrap_or_else(Rational::zero)
    }

    /// Evaluates a linear expression under the model.
    pub fn eval(&self, e: &LinExpr) -> Rational {
        e.eval(&|v| self.value_or_zero(v))
    }

    /// Whether the model is guaranteed to be integral.
    pub fn is_integral(&self) -> bool {
        self.integral
    }

    /// Iterator over the assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (&TermVar, &Rational)> {
        self.values.iter()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut keys: Vec<&TermVar> = self.values.keys().collect();
        keys.sort();
        write!(f, "{{")?;
        for (i, k) in keys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "v{} = {}", k.0, self.values[k])?;
        }
        write!(f, "}}")
    }
}

/// Result of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// A model was found.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The query was interrupted before an answer was established. Callers
    /// must treat this as "no answer", never as unsat: a proof built on an
    /// interrupted query would be unsound.
    Interrupted,
}

impl SmtResult {
    /// `true` for [`SmtResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// `true` for [`SmtResult::Unsat`] — the only answer that licenses an
    /// "impossible" conclusion (an interrupted query licenses nothing).
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }
}

/// Outcome of an optimization query on a satisfiable formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptOutcome {
    /// The objective attains a finite minimum over the disjunct of the model.
    Minimum(Rational),
    /// The objective is unbounded below on the disjunct of the model; the ray
    /// is a recession direction witnessing it.
    Unbounded {
        /// Recession direction of the feasible set (per variable).
        ray: HashMap<TermVar, Rational>,
    },
}

/// Result of an optimization query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptResult {
    /// A model was found; `outcome` describes the objective behaviour on the
    /// polyhedron corresponding to the model's Boolean disjunct (the paper's
    /// "extremal counterexample": either a minimising vertex or a ray).
    Sat {
        /// The (disjunct-minimal) model.
        model: Model,
        /// Whether a finite minimum or an unbounded direction was found.
        outcome: OptOutcome,
    },
    /// The formula is unsatisfiable.
    Unsat,
    /// The query was interrupted before an answer was established.
    Interrupted,
}

impl OptResult {
    /// `true` for [`OptResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, OptResult::Sat { .. })
    }
}

/// Statistics accumulated by an [`SmtContext`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of satisfiability / optimization queries.
    pub queries: usize,
    /// Number of SAT models checked against the theory (DPLL(T)
    /// iterations), by a warm check or by a kept core.
    pub theory_checks: usize,
    /// Number of blocking clauses added.
    pub blocking_clauses: usize,
    /// Number of blocking clauses that are conflict cores the context kept
    /// from an earlier query: their models took no theory work.
    pub reused_cores: usize,
    /// Number of answered models whose integrality could not be established
    /// within the branch-and-bound budget: a `solve` model, a minimiser, or
    /// the model reported with an unbounded objective's ray.
    pub non_integral_models: usize,
    /// Number of cold LPs the theory solver solved (see
    /// [`TheorySolver::lp_solves`]): minimisations, branch-and-bound nodes,
    /// and the check models a query reads. A `solve` query reads none when
    /// the warm tableau's point is integral, and a `minimize` query none
    /// when its minimiser is.
    pub theory_lp_solves: usize,
    /// Number of warm checks on the theory solver's tableau (see
    /// [`TheorySolver::warm_checks`]): every consistency check, plus the
    /// conflict deletion probes that a certificate does not answer.
    pub theory_warm_checks: usize,
}

impl SolverStats {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.theory_checks += other.theory_checks;
        self.blocking_clauses += other.blocking_clauses;
        self.reused_cores += other.reused_cores;
        self.non_integral_models += other.non_integral_models;
        self.theory_lp_solves += other.theory_lp_solves;
        self.theory_warm_checks += other.theory_warm_checks;
    }
}

/// A conjunction prepared on an [`SmtContext`] for many queries that extend
/// it (see [`SmtContext::prepare`]). A handle is only meaningful to the
/// context that made it.
#[derive(Debug)]
pub struct Prepared(pub(crate) usize);

/// One prepared conjunction: its own conjuncts on top of its base's, and the
/// template that encodes the whole chain. Both are built on first use, so
/// their cost falls inside the first query.
#[derive(Debug)]
struct Conjunction {
    /// The conjunction this one extends.
    base: Option<usize>,
    /// The formula as prepared, until the first query flattens it.
    formula: Option<Formula>,
    /// This conjunction's own top-level conjuncts, in negation normal form
    /// and flattened (kept after encoding only while the chain has fewer
    /// than two, the one shape queries may still need them for).
    conjuncts: Vec<Formula>,
    /// Number of flattened conjuncts of the whole chain.
    len: usize,
    /// Whether a conjunct of the chain is `false`.
    falsified: bool,
    /// The chain's conjuncts encoded into a SAT solver that is never solved.
    template: Option<Encoding>,
}

/// An SMT solving context: declares integer variables and answers
/// (optimizing) satisfiability queries.
///
/// One [`TheorySolver`] serves every query of a context: its table numbers
/// each atom once, its tableau keeps the row of each atom the recent
/// queries have seen, and each query only moves bounds on it (see the
/// `theory` module). The context keeps every conflict core it finds; a SAT
/// model that contains one is blocked by it with no theory work. A core is
/// valid in linear integer arithmetic whatever formula it came from, so
/// this is sound; but a kept core may differ from the one deletion would
/// find on the new model, so the search after it is not the fresh one *by
/// construction*. `minimize` models are what the search's first consistent
/// model gives a fresh solver; `solve` models are integral and satisfy the
/// formula, but may be the warm tableau's point.
///
/// A conjunction that many queries extend can be [`prepare`](Self::prepare)d:
/// its encoding is built once, and each query encodes only its own extra
/// conjuncts (see [`minimize_with`](Self::minimize_with)).
///
/// See the crate-level documentation for an example.
#[derive(Debug, Default)]
pub struct SmtContext {
    var_names: Vec<String>,
    stats: SolverStats,
    theory: TheorySolver,
    /// The prepared conjunctions, by handle (`None` once released).
    conjunctions: Vec<Option<Conjunction>>,
    /// Every conflict core found so far, as literals sorted by atom id.
    cores: Vec<Vec<TheoryLit>>,
    /// Scratch, by atom id: one plus the atom's index in the encoding at
    /// hand, or 0 when it has none. All zero between uses.
    slots: Vec<usize>,
}

impl SmtContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        SmtContext::default()
    }

    /// Installs an interruption source: the DPLL(T) loop polls it between
    /// theory checks and the theory solver's simplex polls it every few
    /// pivots, so cancellation lands mid-pivot inside the SMT search.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.theory.set_interrupt(interrupt);
    }

    /// Declares a fresh integer variable.
    pub fn int_var(&mut self, name: impl Into<String>) -> TermVar {
        self.var_names.push(name.into());
        TermVar(self.var_names.len() - 1)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Decides satisfiability of `formula`.
    pub fn solve(&mut self, formula: &Formula) -> SmtResult {
        self.stats.queries += 1;
        let encoding = self.encode(formula);
        self.run(encoding, None).into_smt()
    }

    /// Decides satisfiability of `formula` and, if satisfiable, minimises
    /// `objective` over the polyhedron corresponding to the Boolean disjunct
    /// of the model found (an *extremal* model in the sense of the paper).
    pub fn minimize(&mut self, formula: &Formula, objective: &LinExpr) -> OptResult {
        self.stats.queries += 1;
        let encoding = self.encode(formula);
        self.run(encoding, Some(objective)).into_opt()
    }

    /// Prepares `formula` as the common part of later queries. Nothing is
    /// normalised or encoded until the first query that uses it.
    pub fn prepare(&mut self, formula: Formula) -> Prepared {
        self.add_conjunction(None, formula)
    }

    /// Prepares `base ∧ formula`: queries on the result reuse `base`'s
    /// encoding and add `formula`'s once. `base` must not be released before
    /// the result has answered a query.
    pub fn extend(&mut self, base: &Prepared, formula: Formula) -> Prepared {
        self.add_conjunction(Some(base.0), formula)
    }

    /// Drops a prepared conjunction and its encoding.
    pub fn release(&mut self, prepared: Prepared) {
        self.conjunctions[prepared.0] = None;
    }

    /// [`solve`](Self::solve) of `prepared ∧ extras…`: the same answer and
    /// search, with only `extras` encoded by this query.
    pub fn solve_with(&mut self, prepared: &Prepared, extras: &[Formula]) -> SmtResult {
        self.stats.queries += 1;
        let encoding = self.encode_prepared(prepared.0, extras);
        self.run(encoding, None).into_smt()
    }

    /// [`minimize`](Self::minimize) of `prepared ∧ extras…`: the same answer
    /// and search, with only `extras` encoded by this query.
    ///
    /// The query's CNF is, clause for clause, what encoding
    /// `Formula::and([prepared, extras…])` from scratch gives: the template
    /// holds the chain's flattened conjuncts encoded in order, and the query
    /// encodes its own after them, then adds the root `And` and its unit
    /// clause. Where that formula has no root `And` (a `false` conjunct, or
    /// fewer than two conjuncts) the query is encoded from scratch.
    pub fn minimize_with(
        &mut self,
        prepared: &Prepared,
        extras: &[Formula],
        objective: &LinExpr,
    ) -> OptResult {
        self.stats.queries += 1;
        let encoding = self.encode_prepared(prepared.0, extras);
        self.run(encoding, Some(objective)).into_opt()
    }

    fn add_conjunction(&mut self, base: Option<usize>, formula: Formula) -> Prepared {
        self.conjunctions.push(Some(Conjunction {
            base,
            formula: Some(formula),
            conjuncts: Vec::new(),
            len: 0,
            falsified: false,
            template: None,
        }));
        Prepared(self.conjunctions.len() - 1)
    }

    fn conjunction(&self, id: usize) -> &Conjunction {
        self.conjunctions[id]
            .as_ref()
            .expect("a prepared conjunction is used after its release")
    }

    /// Flattens conjunction `id`'s formula (and its base chain's) on first
    /// use, and returns the chain's conjunct count and whether one of them
    /// is `false`.
    fn flatten(&mut self, id: usize) -> (usize, bool) {
        let base = self.conjunction(id).base;
        let (len, falsified) = base.map_or((0, false), |b| self.flatten(b));
        let conjunction = self.conjunctions[id].as_mut().expect("checked above");
        if let Some(formula) = conjunction.formula.take() {
            let conjuncts = flat_conjuncts(&formula);
            conjunction.len = len + conjuncts.as_ref().map_or(0, Vec::len);
            conjunction.falsified = falsified || conjuncts.is_none();
            conjunction.conjuncts = conjuncts.unwrap_or_default();
        }
        (conjunction.len, conjunction.falsified)
    }

    /// The template of conjunction `id`, encoded on first use: its base's
    /// template, then its own conjuncts.
    fn template(&mut self, id: usize) -> &Encoding {
        if self.conjunction(id).template.is_none() {
            let mut encoding = match self.conjunction(id).base {
                Some(base) => self.template(base).clone(),
                None => Encoding::default(),
            };
            let conjunction = self.conjunctions[id].as_mut().expect("checked above");
            let mut encoder = Encoder::new(&mut encoding, self.theory.atoms(), &mut self.slots);
            for c in &conjunction.conjuncts {
                let root = encoder.encode(c);
                encoder.encoding.roots.push(root);
            }
            drop(encoder);
            if conjunction.len >= 2 {
                conjunction.conjuncts = Vec::new();
            }
            conjunction.template = Some(encoding);
        }
        self.conjunction(id)
            .template
            .as_ref()
            .expect("encoded above")
    }

    /// The flattened conjuncts of the chain ending at `id`, base first.
    fn chain_conjuncts(&self, id: usize) -> Vec<Formula> {
        let conjunction = self.conjunction(id);
        let mut out = conjunction
            .base
            .map_or_else(Vec::new, |b| self.chain_conjuncts(b));
        out.extend(conjunction.conjuncts.iter().cloned());
        out
    }

    /// Encodes `formula` from scratch.
    pub(crate) fn encode(&mut self, formula: &Formula) -> Encoding {
        let nnf = formula.to_nnf();
        let mut encoding = Encoding::default();
        let root = Encoder::new(&mut encoding, self.theory.atoms(), &mut self.slots).encode(&nnf);
        encoding.sat.add_clause(&[root]);
        encoding
    }

    /// Encodes conjunction `id` and `extras` as [`encode`](Self::encode)
    /// encodes their conjunction (see [`minimize_with`](Self::minimize_with)).
    pub(crate) fn encode_prepared(&mut self, id: usize, extras: &[Formula]) -> Encoding {
        let (len, mut falsified) = self.flatten(id);
        let mut own: Vec<Formula> = Vec::new();
        for extra in extras {
            match flat_conjuncts(extra) {
                Some(conjuncts) => own.extend(conjuncts),
                None => falsified = true,
            }
        }
        if falsified {
            return self.encode(&Formula::False);
        }
        if len + own.len() < 2 {
            let mut all = self.chain_conjuncts(id);
            all.extend(own);
            return self.encode(&Formula::and(all));
        }
        let mut encoding = self.template(id).clone();
        let mut encoder = Encoder::new(&mut encoding, self.theory.atoms(), &mut self.slots);
        for c in &own {
            let root = encoder.encode(c);
            encoder.encoding.roots.push(root);
        }
        let roots = std::mem::take(&mut encoder.encoding.roots);
        let root = encoder.and_gate(&roots);
        drop(encoder);
        encoding.sat.add_clause(&[root]);
        encoding
    }

    /// Runs one query, adding the theory solver's work on it to the stats.
    fn run(&mut self, encoding: Encoding, objective: Option<&LinExpr>) -> RunResult {
        let lp_solves = self.theory.lp_solves();
        let warm_checks = self.theory.warm_checks();
        let result = self.search(encoding, objective);
        self.stats.theory_lp_solves += self.theory.lp_solves() - lp_solves;
        self.stats.theory_warm_checks += self.theory.warm_checks() - warm_checks;
        result
    }

    /// The kept cores all of whose atoms the encoding has, each as (atom
    /// index in the encoding, polarity) pairs by ascending index.
    fn candidate_cores(&mut self, atoms: &[(TheoryLit, SatVar)]) -> Vec<Vec<(usize, bool)>> {
        let slots = mark(&mut self.slots, atoms);
        let candidates = (self.cores.iter())
            .filter(|core| {
                core.iter()
                    .all(|lit| slots.get(lit.atom).is_some_and(|&s| s > 0))
            })
            .map(|core| {
                let mut literals: Vec<(usize, bool)> = (core.iter())
                    .map(|lit| (slots[lit.atom] - 1, lit.positive))
                    .collect();
                literals.sort_unstable();
                literals
            })
            .collect();
        unmark(slots, atoms);
        candidates
    }

    /// The DPLL(T) loop proper: SAT models checked by the theory solver.
    fn search(&mut self, mut encoding: Encoding, objective: Option<&LinExpr>) -> RunResult {
        // Each atom is put on the tableau once per query; a SAT model then
        // picks one theory literal per atom.
        let theory_lits: Vec<TheoryLit> = encoding.atoms.iter().map(|&(lit, _)| lit).collect();
        self.theory.intern_all(&theory_lits);
        let mut candidates = self.candidate_cores(&encoding.atoms);
        let mut asserted: Vec<TheoryLit> = Vec::with_capacity(theory_lits.len());
        let mut asserted_lits: Vec<Lit> = Vec::with_capacity(theory_lits.len());

        loop {
            if self.theory.interrupt().is_raised() {
                return RunResult::Interrupted;
            }
            let SatResult::Sat(bool_model) = encoding.sat.solve() else {
                return RunResult::Unsat;
            };
            self.stats.theory_checks += 1;
            asserted.clear();
            asserted_lits.clear();
            for (lit, (_, var)) in theory_lits.iter().zip(&encoding.atoms) {
                let value = bool_model[var.index()];
                asserted.push(if value { *lit } else { lit.negate() });
                asserted_lits.push(Lit::with_polarity(*var, value));
            }
            // A kept core inside the model blocks it with no theory work.
            // The blocking clause forbids that core for the rest of the
            // query, so it is no longer a candidate.
            let kept = (candidates.iter()).position(|core| {
                (core.iter()).all(|&(index, positive)| asserted[index].positive == positive)
            });
            let conflict: Vec<usize> = if let Some(k) = kept {
                let core = candidates.remove(k);
                debug_assert!(
                    (core.iter()).all(|&(index, positive)| {
                        let lit = TheoryLit {
                            atom: theory_lits[index].atom,
                            positive,
                        };
                        asserted.contains(&lit)
                    }),
                    "a reused core lies outside the asserted literals"
                );
                self.stats.reused_cores += 1;
                core.into_iter().map(|(index, _)| index).collect()
            } else {
                // A consistent answer ends the search; a conflict blocks it.
                let answer = match objective {
                    None => match self
                        .theory
                        .check_literals(&asserted, ModelSource::WarmIfIntegral)
                    {
                        TheoryOutcome::Interrupted => return RunResult::Interrupted,
                        TheoryOutcome::Inconsistent { conflict } => Err(conflict),
                        TheoryOutcome::Consistent { model, integral } => {
                            Ok((model, integral, None))
                        }
                    },
                    Some(obj) => match self.theory.minimize_literals(&asserted, obj) {
                        MinimizeOutcome::Interrupted => return RunResult::Interrupted,
                        MinimizeOutcome::Inconsistent { conflict } => Err(conflict),
                        MinimizeOutcome::Unbounded {
                            model,
                            integral,
                            ray,
                        } => Ok((model, integral, Some(OptOutcome::Unbounded { ray }))),
                        MinimizeOutcome::Optimal {
                            model,
                            value,
                            integral,
                        } => Ok((model, integral, Some(OptOutcome::Minimum(value)))),
                    },
                };
                match answer {
                    Ok((values, integral, outcome)) => {
                        if !integral {
                            self.stats.non_integral_models += 1;
                        }
                        return RunResult::Sat {
                            model: Model { values, integral },
                            outcome,
                        };
                    }
                    Err(conflict) => {
                        let mut core: Vec<TheoryLit> =
                            conflict.iter().map(|&i| asserted[i]).collect();
                        core.sort_unstable();
                        self.cores.push(core);
                        conflict
                    }
                }
            };
            self.stats.blocking_clauses += 1;
            let clause: Vec<Lit> = conflict
                .iter()
                .map(|&i| asserted_lits[i].negate())
                .collect();
            if !encoding.sat.add_clause(&clause) {
                return RunResult::Unsat;
            }
        }
    }
}

/// The top-level conjuncts of `formula` in negation normal form, flattened
/// as `Formula::and` flattens them; `None` when one of them is `false`.
fn flat_conjuncts(formula: &Formula) -> Option<Vec<Formula>> {
    match formula.to_nnf() {
        Formula::False => None,
        Formula::True => Some(Vec::new()),
        Formula::And(conjuncts) => Some(conjuncts),
        other => Some(vec![other]),
    }
}

/// Sets the slot of each atom of an encoding to one plus its index.
fn mark<'a>(slots: &'a mut Vec<usize>, atoms: &[(TheoryLit, SatVar)]) -> &'a mut Vec<usize> {
    for (index, (lit, _)) in atoms.iter().enumerate() {
        if slots.len() <= lit.atom {
            slots.resize(lit.atom + 1, 0);
        }
        slots[lit.atom] = index + 1;
    }
    slots
}

/// Clears the slots [`mark`] set.
fn unmark(slots: &mut [usize], atoms: &[(TheoryLit, SatVar)]) {
    for (lit, _) in atoms {
        slots[lit.atom] = 0;
    }
}

enum RunResult {
    Unsat,
    Sat {
        model: Model,
        outcome: Option<OptOutcome>,
    },
    Interrupted,
}

impl RunResult {
    fn into_smt(self) -> SmtResult {
        match self {
            RunResult::Unsat => SmtResult::Unsat,
            RunResult::Sat { model, .. } => SmtResult::Sat(model),
            RunResult::Interrupted => SmtResult::Interrupted,
        }
    }

    fn into_opt(self) -> OptResult {
        match self {
            RunResult::Unsat => OptResult::Unsat,
            RunResult::Sat { model, outcome } => OptResult::Sat {
                model,
                outcome: outcome.expect("optimization run always produces an outcome"),
            },
            RunResult::Interrupted => OptResult::Interrupted,
        }
    }
}

/// A CNF encoding: the SAT solver, the theory atom each atom variable
/// stands for, and the literals of the top-level conjuncts a template has
/// encoded so far.
#[derive(Clone, Debug, Default)]
pub(crate) struct Encoding {
    pub(crate) sat: SatSolver,
    /// Each atom's literal, in the polarity it was first seen in, and the
    /// SAT variable whose positive literal stands for it; in first-seen
    /// order.
    pub(crate) atoms: Vec<(TheoryLit, SatVar)>,
    pub(crate) true_lit: Option<Lit>,
    roots: Vec<Lit>,
}

/// Tseitin encoder: maps NNF formulas to CNF over an [`Encoding`]'s CDCL
/// solver, numbering atoms in the context's table and keeping the
/// correspondence between SAT variables and theory atoms.
struct Encoder<'a> {
    encoding: &'a mut Encoding,
    table: &'a mut AtomTable,
    /// The context's slots, marked for the encoding's atoms until the
    /// encoder is dropped.
    slots: &'a mut Vec<usize>,
}

impl<'a> Encoder<'a> {
    fn new(
        encoding: &'a mut Encoding,
        table: &'a mut AtomTable,
        slots: &'a mut Vec<usize>,
    ) -> Self {
        mark(slots, &encoding.atoms);
        Encoder {
            encoding,
            table,
            slots,
        }
    }

    fn constant(&mut self, value: bool) -> Lit {
        let t = match self.encoding.true_lit {
            Some(t) => t,
            None => {
                let v = self.encoding.sat.new_var();
                let l = Lit::pos(v);
                self.encoding.sat.add_clause(&[l]);
                self.encoding.true_lit = Some(l);
                l
            }
        };
        if value {
            t
        } else {
            t.negate()
        }
    }

    fn atom_lit(&mut self, atom: Atom) -> Lit {
        // Canonical polarity: the atom and its negation share one table id
        // and one SAT variable, which stands for whichever form was seen
        // first.
        let lit = self.table.literal(atom);
        if self.slots.len() < self.table.len() {
            self.slots.resize(self.table.len(), 0);
        }
        let slot = self.slots[lit.atom];
        if slot > 0 {
            let (first, var) = self.encoding.atoms[slot - 1];
            return Lit::with_polarity(var, first.positive == lit.positive);
        }
        let v = self.encoding.sat.new_var();
        self.encoding.atoms.push((lit, v));
        self.slots[lit.atom] = self.encoding.atoms.len();
        Lit::pos(v)
    }

    /// `p ↔ ⋀ lits` for a fresh `p`.
    fn and_gate(&mut self, lits: &[Lit]) -> Lit {
        let sat = &mut self.encoding.sat;
        let p = Lit::pos(sat.new_var());
        // p -> each child ; (all children) -> p
        let mut back: Vec<Lit> = vec![p];
        for &l in lits {
            sat.add_clause(&[p.negate(), l]);
            back.push(l.negate());
        }
        sat.add_clause(&back);
        p
    }

    fn encode(&mut self, f: &Formula) -> Lit {
        match f {
            Formula::True => self.constant(true),
            Formula::False => self.constant(false),
            Formula::Not(inner) => self.encode(inner).negate(),
            Formula::Ge(l, r) => match Atom::from_ge(l, r) {
                Err(truth) => self.constant(truth),
                Ok(atom) => self.atom_lit(atom),
            },
            Formula::And(children) => {
                let lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                self.and_gate(&lits)
            }
            Formula::Or(children) => {
                let lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                let sat = &mut self.encoding.sat;
                let p = Lit::pos(sat.new_var());
                // child -> p ; p -> (some child)
                let mut fwd: Vec<Lit> = vec![p.negate()];
                for &l in &lits {
                    sat.add_clause(&[p, l.negate()]);
                    fwd.push(l);
                }
                sat.add_clause(&fwd);
                p
            }
        }
    }
}

impl Drop for Encoder<'_> {
    fn drop(&mut self) {
        unmark(self.slots, &self.encoding.atoms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    fn var(ctx: &mut SmtContext, name: &str) -> TermVar {
        ctx.int_var(name)
    }

    #[test]
    fn simple_conjunction_sat() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(3)),
            Formula::le(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        match ctx.solve(&f) {
            SmtResult::Sat(m) => {
                let v = m.value_or_zero(x);
                assert!(v >= q(3) && v <= q(5));
                assert!(f.eval(&|tv| m.value_or_zero(tv)));
            }
            SmtResult::Unsat => panic!("satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn simple_conjunction_unsat() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(5)),
            Formula::lt(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        assert_eq!(ctx.solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_picks_consistent_branch() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let y = var(&mut ctx, "y");
        // (x >= 10 ∧ x <= 5) ∨ (y = 42): only the right disjunct is consistent.
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(10)),
                Formula::le(LinExpr::var(x), LinExpr::constant(5)),
            ]),
            Formula::eq_expr(LinExpr::var(y), LinExpr::constant(42)),
        ]);
        match ctx.solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.value_or_zero(y), q(42)),
            SmtResult::Unsat => panic!("satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn negation_and_nested_structure() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        // ¬(x >= 0 ∨ x <= -10)  ≡  x < 0 ∧ x > -10
        let f = Formula::not(Formula::or(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(-10)),
        ]));
        match ctx.solve(&f) {
            SmtResult::Sat(m) => {
                let v = m.value_or_zero(x);
                assert!(v < q(0) && v > q(-10));
            }
            SmtResult::Unsat => panic!("satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn integrality_matters() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        // 2x = 1 has no integer solution.
        let f = Formula::eq_expr(LinExpr::term(2, x), LinExpr::constant(1));
        assert_eq!(ctx.solve(&f), SmtResult::Unsat);
        // 2x = 4 does.
        let g = Formula::eq_expr(LinExpr::term(2, x), LinExpr::constant(4));
        match ctx.solve(&g) {
            SmtResult::Sat(m) => assert_eq!(m.value_or_zero(x), q(2)),
            SmtResult::Unsat => panic!("satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn disequality_support() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(1)),
            Formula::neq(LinExpr::var(x), LinExpr::constant(0)),
        ]);
        match ctx.solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.value_or_zero(x), q(1)),
            SmtResult::Unsat => panic!("satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn minimize_within_disjunct() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        // (3 <= x <= 10) ∨ (20 <= x <= 30), minimize x.
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(3)),
                Formula::le(LinExpr::var(x), LinExpr::constant(10)),
            ]),
            Formula::and(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(20)),
                Formula::le(LinExpr::var(x), LinExpr::constant(30)),
            ]),
        ]);
        match ctx.minimize(&f, &LinExpr::var(x)) {
            OptResult::Sat { model, outcome } => {
                let v = model.value_or_zero(x);
                // The minimum of the chosen disjunct: either 3 or 20.
                match outcome {
                    OptOutcome::Minimum(value) => {
                        assert_eq!(value, v);
                        assert!(value == q(3) || value == q(20));
                    }
                    OptOutcome::Unbounded { .. } => panic!("objective is bounded"),
                }
            }
            OptResult::Unsat => panic!("satisfiable"),
            OptResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
    }

    #[test]
    fn minimize_detects_unbounded_with_ray() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let y = var(&mut ctx, "y");
        // x <= 0 ∧ y >= 0, minimize x + y is unbounded below (x → −∞).
        let f = Formula::and(vec![
            Formula::le(LinExpr::var(x), LinExpr::constant(0)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
        ]);
        match ctx.minimize(&f, &(LinExpr::var(x) + LinExpr::var(y))) {
            OptResult::Sat {
                outcome: OptOutcome::Unbounded { ray },
                ..
            } => {
                assert!(
                    ray[&x].is_negative() || ray.get(&y).map(|r| r.is_negative()).unwrap_or(false)
                );
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn unsat_across_disjuncts() {
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let y = var(&mut ctx, "y");
        // (x >= 1 ∨ y >= 1) ∧ x <= 0 ∧ y <= 0 ∧ x + y >= 1 : unsat.
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
                Formula::ge(LinExpr::var(y), LinExpr::constant(1)),
            ]),
            Formula::le(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(y), LinExpr::constant(0)),
            Formula::ge(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(1)),
        ]);
        assert_eq!(ctx.solve(&f), SmtResult::Unsat);
        assert!(ctx.stats().queries >= 1);
    }

    #[test]
    fn certificate_skips_the_probes_of_irrelevant_atoms() {
        // x >= 5 ∧ x <= 3 conflict; y_k >= 0 for 20 further variables do not
        // take part. One warm check plus one warm probe per core atom: the
        // check's certificate answers the 20 other probes (plain deletion
        // probes all 22), and an infeasible check builds no cold LP.
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let mut conjuncts = vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(5)),
            Formula::le(LinExpr::var(x), LinExpr::constant(3)),
        ];
        for k in 0..20 {
            let y = var(&mut ctx, &format!("y{k}"));
            conjuncts.push(Formula::ge(LinExpr::var(y), LinExpr::constant(0)));
        }
        assert_eq!(ctx.solve(&Formula::and(conjuncts)), SmtResult::Unsat);
        assert_eq!(ctx.stats().theory_checks, 1);
        assert_eq!(ctx.stats().blocking_clauses, 1);
        assert_eq!(ctx.stats().theory_warm_checks, 1 + 2);
        assert_eq!(ctx.stats().theory_lp_solves, 0);
    }

    #[test]
    fn only_the_models_a_query_reads_run_cold() {
        // 3 <= x <= 10 ∧ y >= x: the warm point answers `solve`, and an
        // integral minimiser needs no check model, so each query solves
        // at most its minimisation LP. Both queries share one tableau.
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let y = var(&mut ctx, "y");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(3)),
            Formula::le(LinExpr::var(x), LinExpr::constant(10)),
            Formula::ge(LinExpr::var(y), LinExpr::var(x)),
        ]);
        match ctx.solve(&f) {
            SmtResult::Sat(m) => assert!(m.is_integral() && f.eval(&|v| m.value_or_zero(v))),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(ctx.stats().theory_lp_solves, 0);
        match ctx.minimize(&f, &(LinExpr::var(x) + LinExpr::var(y))) {
            OptResult::Sat {
                model,
                outcome: OptOutcome::Minimum(value),
            } => {
                assert_eq!(value, q(6));
                assert_eq!(
                    (model.value_or_zero(x), model.value_or_zero(y)),
                    (q(3), q(3))
                );
            }
            other => panic!("expected a minimum, got {other:?}"),
        }
        assert_eq!(ctx.stats().theory_lp_solves, 1);
    }

    #[test]
    fn pre_raised_interrupt_stops_queries_without_an_answer() {
        let mut ctx = SmtContext::new();
        ctx.set_interrupt(termite_lp::Interrupt::new(|| true));
        let x = ctx.int_var("x");
        let f = Formula::ge(LinExpr::var(x), LinExpr::constant(0));
        assert_eq!(ctx.solve(&f), SmtResult::Interrupted);
        assert!(!ctx.solve(&f).is_sat());
        assert!(!ctx.solve(&f).is_unsat());
        assert_eq!(ctx.minimize(&f, &LinExpr::var(x)), OptResult::Interrupted);
    }

    #[test]
    fn models_satisfy_formula_on_paper_example_1_transition() {
        // The transition relation of Example 1 of the paper (both transitions),
        // conjoined with the invariant; ask for any model and check it.
        let mut ctx = SmtContext::new();
        let x = var(&mut ctx, "x");
        let y = var(&mut ctx, "y");
        let xp = var(&mut ctx, "x'");
        let yp = var(&mut ctx, "y'");
        let inv = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(-1)),
            Formula::le(LinExpr::var(x), LinExpr::constant(11)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(-1)),
            Formula::le(LinExpr::var(y) - LinExpr::var(x), LinExpr::constant(5)),
            Formula::le(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(15)),
        ]);
        let t1 = Formula::and(vec![
            Formula::le(LinExpr::var(x), LinExpr::constant(10)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
            Formula::eq_expr(LinExpr::var(xp), LinExpr::var(x) + LinExpr::constant(1)),
            Formula::eq_expr(LinExpr::var(yp), LinExpr::var(y) - LinExpr::constant(1)),
        ]);
        let t2 = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
            Formula::eq_expr(LinExpr::var(xp), LinExpr::var(x) - LinExpr::constant(1)),
            Formula::eq_expr(LinExpr::var(yp), LinExpr::var(y) - LinExpr::constant(1)),
        ]);
        let f = Formula::and(vec![inv, Formula::or(vec![t1, t2])]);
        match ctx.solve(&f) {
            SmtResult::Sat(m) => {
                assert!(f.eval(&|tv| m.value_or_zero(tv)));
                assert!(m.is_integral());
            }
            SmtResult::Unsat => panic!("the transition relation is satisfiable"),
            SmtResult::Interrupted => panic!("uninterrupted context cannot interrupt"),
        }
        // y' - y decreases on every transition: y - y' >= 1 must be entailed,
        // i.e. its negation conjoined with the relation is unsat.
        let not_decreasing = Formula::le(LinExpr::var(y) - LinExpr::var(yp), LinExpr::constant(0));
        let g = Formula::and(vec![
            Formula::and(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(-1)),
                Formula::le(LinExpr::var(x), LinExpr::constant(11)),
                Formula::ge(LinExpr::var(y), LinExpr::constant(-1)),
            ]),
            Formula::or(vec![
                Formula::and(vec![
                    Formula::le(LinExpr::var(x), LinExpr::constant(10)),
                    Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
                    Formula::eq_expr(LinExpr::var(yp), LinExpr::var(y) - LinExpr::constant(1)),
                ]),
                Formula::and(vec![
                    Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
                    Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
                    Formula::eq_expr(LinExpr::var(yp), LinExpr::var(y) - LinExpr::constant(1)),
                ]),
            ]),
            not_decreasing,
        ]);
        assert_eq!(ctx.solve(&g), SmtResult::Unsat);
    }
}
