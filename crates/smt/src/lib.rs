//! Quantifier-free linear integer arithmetic SMT solving with optimization.
//!
//! This crate is the stand-in for Z3 in the original Termite toolchain. The
//! synthesis loop of the paper issues queries of the form
//!
//! ```text
//! Sat( I ∧ τ ∧ AvoidSpace(u, B) )   minimizing   λ·u
//! ```
//!
//! where `I ∧ τ` is the large-block-encoded transition relation — a formula of
//! linear integer arithmetic with conjunctions **and disjunctions** (one
//! disjunct per program path) and implicit existentials (intermediate SSA
//! copies). The crucial requirement inherited from the paper is that the
//! formula is *never expanded to DNF*: the solver explores disjuncts lazily.
//!
//! The architecture is classic lazy DPLL(T):
//!
//! 1. atoms (`Σ aᵢ·xᵢ ≥ b` over integer variables) are abstracted to
//!    propositional variables and the Boolean skeleton is Tseitin-encoded to
//!    CNF for the CDCL core ([`termite_sat::Solver`]);
//! 2. every propositional model is checked for theory consistency on a warm
//!    [`termite_lp::BoundedTableau`] (the simplex that also decides
//!    polyhedron emptiness) that persists across all the queries of one
//!    [`SmtContext`]: each atom is numbered once per context and put on the
//!    tableau as a slack row, and the model's literals are bounds on those
//!    rows. An infeasible check yields a conflict, shrunk by deletion to
//!    the core plain deletion finds (see the `theory` module), which goes
//!    back to the SAT core as a blocking clause; the context keeps every
//!    core and blocks a later model that contains one with no theory check.
//!    A consistent `solve` check answers with the tableau's point when it
//!    is integral, and otherwise takes its model from an exact from-scratch
//!    simplex followed by branch-and-bound for integrality. A conjunction
//!    that many queries extend can be prepared once
//!    ([`SmtContext::prepare`]), so each query encodes only its own
//!    conjuncts;
//! 3. on a theory-consistent model the objective can be **minimised** over the
//!    model's polyhedron (optimization modulo theory, per the paper's
//!    "extremal counterexample" requirement) by the same exact simplex, so
//!    the minimiser does not depend on what the context answered before; an
//!    unbounded objective is reported together with a recession **ray**,
//!    which Algorithm 1 adds to the constraint system.
//!
//! All numeric variables are integer-valued (the paper's setting); strict
//! inequalities and disequalities are normalised away using integrality.
//!
//! # Example
//!
//! ```
//! use termite_smt::{Formula, LinExpr, SmtContext, SmtResult};
//!
//! let mut ctx = SmtContext::new();
//! let x = ctx.int_var("x");
//! let y = ctx.int_var("y");
//! // (x >= 5 ∨ y >= 5) ∧ x + y <= 6 ∧ x >= 0 ∧ y >= 0
//! let f = Formula::and(vec![
//!     Formula::or(vec![
//!         Formula::ge(LinExpr::var(x), LinExpr::constant(5)),
//!         Formula::ge(LinExpr::var(y), LinExpr::constant(5)),
//!     ]),
//!     Formula::le(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(6)),
//!     Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
//!     Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
//! ]);
//! match ctx.solve(&f) {
//!     SmtResult::Sat(model) => {
//!         let vx = model.value(x).unwrap();
//!         let vy = model.value(y).unwrap();
//!         assert!(vx.numer() >= &5.into() || vy.numer() >= &5.into());
//!     }
//!     other => panic!("formula is satisfiable, got {other:?}"),
//! }
//! ```

mod expr;
mod formula;
#[cfg(test)]
mod identity_tests;
mod solver;
mod theory;

pub use expr::{Atom, LinExpr, TermVar};
pub use formula::Formula;
pub use solver::{Model, OptOutcome, OptResult, Prepared, SmtContext, SmtResult, SolverStats};
pub use theory::{TheoryOutcome, TheorySolver};
