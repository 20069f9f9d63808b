//! Closed convex rational polyhedra.
//!
//! The paper works throughout with rational closed convex polyhedra
//! (Definitions 1–3): invariants `I` are polyhedra given by constraints
//! `a_i·x ≥ b_i`, the set of one-step differences `P_{I,τ}` is a union of
//! polyhedra whose convex hull's generators (vertices and rays) drive the
//! lazily-built LP, and the baseline algorithms (Rank / Ben-Amram & Genaim)
//! enumerate those generators eagerly after a DNF expansion.
//!
//! This crate is the polyhedral substrate replacing Apron/PPL/NewPolka in the
//! original toolchain:
//!
//! * [`Constraint`] / [`Polyhedron`] — constraint representation
//!   (`a·x ⋈ b` with `⋈ ∈ {≥, =}`), exact emptiness, intersection, and
//!   redundancy removal on one warm bounded-variable simplex tableau
//!   (`termite_lp::BoundedTableau`);
//! * [`Entailment`] — a session that loads one polyhedron onto that
//!   tableau once and answers a sequence of entailment queries from it, as
//!   joins, widening and inclusion tests need;
//! * [`Generator`] and [`Polyhedron::generators`] — the double-description
//!   (Chernikova-style) conversion from constraints to vertices and rays,
//!   performed on the homogenised cone;
//! * [`Polyhedron::eliminate_dims`] — Fourier–Motzkin projection (used for
//!   affine images and the convex-hull-of-union construction);
//! * [`Polyhedron::convex_hull`] and [`Polyhedron::widen`] — the lattice
//!   operations needed by the polyhedral abstract interpreter
//!   (`termite-invariants`), i.e. the Cousot–Halbwachs join and widening.

mod constraint;
mod generator;
mod polyhedron;

pub use constraint::{Constraint, ConstraintKind};
pub use generator::Generator;
pub use polyhedron::{Entailment, Polyhedron};

pub use termite_linalg::QVector;
pub use termite_num::{Int, Rational};
