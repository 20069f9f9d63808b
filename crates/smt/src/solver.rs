//! The lazy DPLL(T) driver with optimization modulo theory.

use crate::theory::MinimizeOutcome;
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
    /// Number of theory consistency checks (DPLL(T) iterations).
    pub theory_checks: usize,
    /// Number of blocking clauses added.
    pub blocking_clauses: usize,
    /// Number of models whose integrality could not be established within the
    /// branch-and-bound budget.
    pub non_integral_models: usize,
    /// Number of cold LPs the theory solver solved (see
    /// [`TheorySolver::lp_solves`]): only checks that found a model,
    /// branch-and-bound nodes and minimisations build an LP.
    pub theory_lp_solves: usize,
    /// Number of warm checks on the theory solver's tableau (see
    /// [`TheorySolver::warm_checks`]): every consistency check, plus the
    /// conflict deletion probes that a certificate does not answer.
    pub theory_warm_checks: usize,
}

/// An SMT solving context: declares integer variables and answers
/// (optimizing) satisfiability queries.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Default)]
pub struct SmtContext {
    var_names: Vec<String>,
    stats: SolverStats,
    interrupt: Interrupt,
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
        self.interrupt = interrupt;
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

    /// The name of a variable.
    pub fn var_name(&self, v: TermVar) -> &str {
        &self.var_names[v.0]
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Decides satisfiability of `formula`.
    pub fn solve(&mut self, formula: &Formula) -> SmtResult {
        self.stats.queries += 1;
        match self.run(formula, None) {
            RunResult::Unsat => SmtResult::Unsat,
            RunResult::Sat { model, .. } => SmtResult::Sat(model),
            RunResult::Interrupted => SmtResult::Interrupted,
        }
    }

    /// Decides satisfiability of `formula` and, if satisfiable, minimises
    /// `objective` over the polyhedron corresponding to the Boolean disjunct
    /// of the model found (an *extremal* model in the sense of the paper).
    pub fn minimize(&mut self, formula: &Formula, objective: &LinExpr) -> OptResult {
        self.stats.queries += 1;
        match self.run(formula, Some(objective)) {
            RunResult::Unsat => OptResult::Unsat,
            RunResult::Sat { model, outcome } => OptResult::Sat {
                model,
                outcome: outcome.expect("optimization run always produces an outcome"),
            },
            RunResult::Interrupted => OptResult::Interrupted,
        }
    }

    fn run(&mut self, formula: &Formula, objective: Option<&LinExpr>) -> RunResult {
        let mut theory = TheorySolver::with_interrupt(self.interrupt.clone());
        let result = self.search(&mut theory, formula, objective);
        self.stats.theory_lp_solves += theory.lp_solves();
        self.stats.theory_warm_checks += theory.warm_checks();
        result
    }

    /// The DPLL(T) loop proper: SAT models checked by `theory`.
    fn search(
        &mut self,
        theory: &mut TheorySolver,
        formula: &Formula,
        objective: Option<&LinExpr>,
    ) -> RunResult {
        let nnf = formula.to_nnf();
        let mut enc = Encoder::new();
        let root = enc.encode(&nnf);
        enc.sat.add_clause(&[root]);

        loop {
            if self.interrupt.is_raised() {
                return RunResult::Interrupted;
            }
            match enc.sat.solve() {
                SatResult::Unsat => return RunResult::Unsat,
                SatResult::Sat(bool_model) => {
                    self.stats.theory_checks += 1;
                    // Collect the asserted theory literals.
                    let mut asserted: Vec<Atom> = Vec::new();
                    let mut asserted_lits: Vec<Lit> = Vec::new();
                    for (atom, var) in &enc.atom_vars {
                        if bool_model[var.index()] {
                            asserted.push(atom.clone());
                            asserted_lits.push(Lit::pos(*var));
                        } else {
                            asserted.push(atom.negate());
                            asserted_lits.push(Lit::neg(*var));
                        }
                    }
                    match theory.check(&asserted) {
                        TheoryOutcome::Interrupted => return RunResult::Interrupted,
                        TheoryOutcome::Inconsistent { conflict } => {
                            self.stats.blocking_clauses += 1;
                            let clause: Vec<Lit> = conflict
                                .iter()
                                .map(|&i| asserted_lits[i].negate())
                                .collect();
                            if !enc.sat.add_clause(&clause) {
                                return RunResult::Unsat;
                            }
                        }
                        TheoryOutcome::Consistent { model, integral } => {
                            if !integral {
                                self.stats.non_integral_models += 1;
                            }
                            let outcome = match objective {
                                None => None,
                                Some(obj) => match theory.minimize(&asserted, obj) {
                                    MinimizeOutcome::Interrupted => return RunResult::Interrupted,
                                    MinimizeOutcome::Inconsistent { .. } => {
                                        unreachable!(
                                            "consistent conjunction cannot be inconsistent"
                                        )
                                    }
                                    MinimizeOutcome::Unbounded { ray } => {
                                        Some(OptOutcome::Unbounded { ray })
                                    }
                                    MinimizeOutcome::Optimal {
                                        model: m,
                                        value,
                                        integral: int2,
                                    } => {
                                        if !int2 {
                                            self.stats.non_integral_models += 1;
                                        }
                                        // Prefer the minimising model.
                                        return RunResult::Sat {
                                            model: Model {
                                                values: m,
                                                integral: int2,
                                            },
                                            outcome: Some(OptOutcome::Minimum(value)),
                                        };
                                    }
                                },
                            };
                            return RunResult::Sat {
                                model: Model {
                                    values: model,
                                    integral,
                                },
                                outcome,
                            };
                        }
                    }
                }
            }
        }
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

/// Tseitin encoder: maps the NNF formula to CNF over a CDCL solver, keeping
/// the correspondence between SAT variables and theory atoms.
struct Encoder {
    sat: SatSolver,
    atom_vars: Vec<(Atom, SatVar)>,
    atom_index: HashMap<Atom, usize>,
    true_lit: Option<Lit>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            sat: SatSolver::new(),
            atom_vars: Vec::new(),
            atom_index: HashMap::new(),
            true_lit: None,
        }
    }

    fn constant(&mut self, value: bool) -> Lit {
        let t = match self.true_lit {
            Some(t) => t,
            None => {
                let v = self.sat.new_var();
                let l = Lit::pos(v);
                self.sat.add_clause(&[l]);
                self.true_lit = Some(l);
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
        // Canonical polarity: keep the atom and its negation on one SAT
        // variable by storing whichever form was seen first.
        if let Some(&i) = self.atom_index.get(&atom) {
            return Lit::pos(self.atom_vars[i].1);
        }
        let negated = atom.negate();
        if let Some(&i) = self.atom_index.get(&negated) {
            return Lit::neg(self.atom_vars[i].1);
        }
        let v = self.sat.new_var();
        self.atom_index.insert(atom.clone(), self.atom_vars.len());
        self.atom_vars.push((atom, v));
        Lit::pos(v)
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
                let p = Lit::pos(self.sat.new_var());
                // p -> each child ; (all children) -> p
                let mut back: Vec<Lit> = vec![p];
                for &l in &lits {
                    self.sat.add_clause(&[p.negate(), l]);
                    back.push(l.negate());
                }
                self.sat.add_clause(&back);
                p
            }
            Formula::Or(children) => {
                let lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                let p = Lit::pos(self.sat.new_var());
                // child -> p ; p -> (some child)
                let mut fwd: Vec<Lit> = vec![p.negate()];
                for &l in &lits {
                    self.sat.add_clause(&[p, l.negate()]);
                    fwd.push(l);
                }
                self.sat.add_clause(&fwd);
                p
            }
        }
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
