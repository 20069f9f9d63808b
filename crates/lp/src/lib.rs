//! Exact linear programming and feasibility by simplex.
//!
//! The synthesis algorithm of the paper (Definition 11) repeatedly solves
//! small linear programs `LP(V, Constraints(I))` over the Farkas multipliers
//! `γ_i ≥ 0` and the per-counterexample indicator variables `δ_j ∈ [0, 1]`,
//! maximising `Σ_j δ_j`. The polyhedra library also needs emptiness,
//! entailment and redundancy checks, and the eager (Rank-style) baseline
//! builds one large LP per loop. All of these need *exact* rational
//! arithmetic: a termination certificate derived from a slightly-off
//! floating point optimum would be unsound.
//!
//! Both simplex codes here work over [`termite_num::Rational`] with Bland's
//! anti-cycling rule on sparse rows. [`LinearProgram`] and [`IncrementalLp`]
//! optimize by two-phase primal simplex (free variables split in two,
//! artificial columns in the first phase); an [`IncrementalLp`] keeps its
//! tableau warm between solves, and a clone of one is a retraction point
//! (assign it back to drop everything added since). [`BoundedTableau`] decides
//! feasibility warm, under bounds asserted and retracted on its variables,
//! and minimizes one of its variables from the feasible point a check
//! leaves: it answers the SMT theory checks and every polyhedron question
//! (emptiness, entailment, redundancy).
//!
//! # Example
//!
//! ```
//! use termite_lp::{Constraint, LinearProgram, LpOutcome, Relation};
//! use termite_num::Rational;
//!
//! // maximize x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x, y >= 0
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.add_constraint(Constraint::new(
//!     vec![(x, Rational::from(1)), (y, Rational::from(2))],
//!     Relation::Le,
//!     Rational::from(4),
//! ));
//! lp.add_constraint(Constraint::new(
//!     vec![(x, Rational::from(3)), (y, Rational::from(1))],
//!     Relation::Le,
//!     Rational::from(6),
//! ));
//! lp.maximize(vec![(x, Rational::from(1)), (y, Rational::from(1))]);
//! let solution = lp.solve();
//! match solution.outcome {
//!     LpOutcome::Optimal { objective, .. } => {
//!         assert_eq!(objective, Rational::from_ints(14, 5));
//!     }
//!     _ => panic!("expected an optimum"),
//! }
//! ```

mod bounded;
#[cfg(test)]
mod identity_tests;
mod incremental;
mod simplex;

pub use bounded::{Bound, BoundedTableau};
pub use incremental::IncrementalLp;
pub use simplex::{
    Constraint, Interrupt, Interrupted, LinearProgram, LpOutcome, LpSolution, Relation, VarId,
};
