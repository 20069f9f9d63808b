//! Synthesis of lexicographic linear ranking functions using extremal
//! counterexamples — the **Termite** algorithm (Gonnord, Monniaux, Radanne,
//! PLDI 2015).
//!
//! # Overview
//!
//! Given a program whose transition relation between a cut-set of control
//! points is a linear-arithmetic formula with disjunctions and existentials
//! (the large-block encoding of `termite-ir`), and supporting invariants at
//! each cut point (from `termite-invariants`), this crate synthesises a
//! lexicographic linear ranking function proving termination — or reports
//! that none exists relative to the given invariants.
//!
//! The algorithm is the paper's counterexample-guided construction:
//!
//! * a candidate `ρ(k, x) = λ_k·x + λ_{k,0}` is maintained as a non-negative
//!   combination of the invariant constraints (Farkas form), so non-negativity
//!   is guaranteed by construction;
//! * an optimizing SMT solver searches for an **extremal counterexample** — a
//!   transition on which the candidate fails to decrease, with `λ·u`
//!   (`u = e_k(x) − e_k'(x')`) minimised so the witness lies on the boundary
//!   of the convex hull of one-step differences, or a **ray** when the
//!   objective is unbounded (Example 3 of the paper);
//! * each counterexample adds one row to a small LP
//!   (`LP(C, Constraints(I))`, Definition 11) whose optimum is a quasi
//!   ranking function of **maximal termination power** (Definition 10);
//! * directions on which every quasi ranking function is flat are collected in
//!   a subspace `B`, and the SMT query is constrained by `AvoidSpace(u, B)` so
//!   the loop terminates even when no strict ranking function exists;
//! * the monodimensional procedure (Algorithm 1/3) is iterated per dimension
//!   (Algorithm 2), restricting at each level to the transitions left constant
//!   by the previous components, yielding a lexicographic function of minimal
//!   dimension.
//!
//! Two baselines from the paper's evaluation are provided for comparison (see
//! [`Engine`]): the **eager** Farkas/DNF approach of Rank / Alias et al.
//! (`baselines::eager`) and a syntactic **heuristic** prover in the spirit of
//! Loopus (`baselines::heuristic`), plus the Podelski–Rybalchenko
//! single-ranking-function special case (eager capped at one level).
//!
//! # Quickstart
//!
//! ```
//! use termite_core::{prove_termination, AnalysisOptions};
//! use termite_ir::parse_program;
//!
//! let program = parse_program(r#"
//!     var x, y;
//!     assume x == 5 && y == 10;
//!     while (true) {
//!         choice {
//!             assume x <= 10 && y >= 0; x = x + 1; y = y - 1;
//!         } or {
//!             assume x >= 0 && y >= 0;  x = x - 1; y = y - 1;
//!         }
//!     }
//! "#).unwrap();
//! let report = prove_termination(&program, &AnalysisOptions::default());
//! assert!(report.proved());
//! let rf = report.ranking_function().unwrap();
//! assert_eq!(rf.dimension(), 1);   // ρ(x, y) = y + 1 suffices (Example 1)
//! ```

#![deny(missing_docs)]

mod baselines;
mod cancel;
mod engine;
pub mod lasso;
mod lp_instance;
mod monodim;
mod multidim;
pub mod piecewise;
mod regions;
mod report;
mod workspace;

pub use baselines::{eager, heuristic};
pub use cancel::CancelToken;
pub use engine::{
    invariant_snapshot, prove_termination, prove_transition_system, prove_with_pipeline,
    prove_with_snapshot, AnalysisOptions, Engine,
};
pub use lp_instance::{
    solve_lp_instance, LpInstanceSolution, LpInstanceStats, RankingTemplate, StackedConstraints,
};
pub use monodim::{monodim, MonodimInput, MonodimResult};
pub use multidim::{synthesize_lexicographic, LexOutcome};
pub use regions::{
    active_source_invariants, active_source_regions, enabled_invariants, source_region_approx,
    strengthen_with_regions,
};
pub use report::{
    Precondition, RankingFunction, StatField, StatKind, StatLine, StatMerge, StatValue,
    SynthesisStats, TerminationReport, UnknownReason, Verdict, STAT_FIELDS,
};
pub use workspace::SynthesisLpWorkspace;
