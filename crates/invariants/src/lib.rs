//! Polyhedral invariant generation.
//!
//! The paper assumes that "some external tool provides us with invariants"
//! (Section 2.2) — in the original toolchain this is Pagai or Aspic, both
//! abstract interpreters over convex polyhedra. This crate is the equivalent
//! substrate for the reproduction: a classic Cousot–Halbwachs linear-relation
//! analysis over the node-level CFG of `termite-ir`:
//!
//! * forward reachability with the polyhedra domain of `termite-polyhedra`
//!   (convex-hull join, affine-assignment and guard transfer functions);
//! * delayed widening at loop headers to force convergence;
//! * a few descending (narrowing) iterations to recover bounds lost by
//!   widening.
//!
//! The invariants are read off at the cut points (loop headers) and handed to
//! the ranking-function synthesis as the polyhedra `I_k` of the paper.
//!
//! # Example
//!
//! ```
//! use termite_invariants::{location_invariants, InvariantOptions};
//! use termite_ir::parse_program;
//! use termite_linalg::QVector;
//!
//! let p = parse_program(r#"
//!     var x;
//!     x = 0;
//!     while (x < 10) { x = x + 1; }
//! "#).unwrap();
//! let invs = location_invariants(&p, &InvariantOptions::default());
//! // The loop-header invariant contains every reachable state ...
//! assert!(invs[0].contains_point(&QVector::from_i64(&[0])));
//! assert!(invs[0].contains_point(&QVector::from_i64(&[10])));
//! // ... and excludes unreachable ones.
//! assert!(!invs[0].contains_point(&QVector::from_i64(&[-1])));
//! assert!(!invs[0].contains_point(&QVector::from_i64(&[11])));
//! ```

use termite_ir::{Cfg, CfgOp, Program};
use termite_polyhedra::Polyhedron;

mod backward;
mod houdini;
#[cfg(test)]
mod identity_tests;
mod pipeline;

pub use backward::{entry_precondition, entry_precondition_dnf, MAX_WP_DISJUNCTS};
pub use houdini::{guard_candidates, strengthen_inductive};
pub use pipeline::{FixpointPipeline, InvariantSnapshot, RefinementWitness};

/// Options controlling the fixpoint iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantOptions {
    /// Number of joins performed at a widening point before widening kicks in.
    pub widening_delay: usize,
    /// Number of descending (narrowing) sweeps after stabilisation.
    pub narrowing_passes: usize,
    /// Hard bound on ascending iterations (safety net; widening guarantees
    /// termination long before this in practice).
    pub max_iterations: usize,
    /// Use the exact convex hull as join (precise, but Fourier–Motzkin-based
    /// and therefore expensive). The default is the cheap
    /// [`termite_polyhedra::Polyhedron::weak_join`], which is what keeps the
    /// invariant generator tractable on multipath programs; see DESIGN.md.
    pub exact_join: bool,
}

impl Default for InvariantOptions {
    fn default() -> Self {
        InvariantOptions {
            widening_delay: 2,
            narrowing_passes: 2,
            max_iterations: 200,
            exact_join: false,
        }
    }
}

/// The result of the analysis: one polyhedron per CFG node.
#[derive(Clone, Debug)]
pub struct InvariantMap {
    per_node: Vec<Polyhedron>,
}

impl InvariantMap {
    /// Invariant of a CFG node.
    pub fn at_node(&self, node: usize) -> &Polyhedron {
        &self.per_node[node]
    }

    /// All node invariants.
    pub fn nodes(&self) -> &[Polyhedron] {
        &self.per_node
    }
}

fn transfer(state: &Polyhedron, op: &CfgOp) -> Polyhedron {
    match op {
        CfgOp::Guard(constraints) => {
            let mut out = state.clone();
            for c in constraints {
                out.add_constraint(c.to_polyhedral());
            }
            out
        }
        CfgOp::Assign(v, e) => state.affine_assign(*v, &e.coeffs, &e.constant),
        CfgOp::Havoc(v) => state.forget_dim(*v),
    }
}

/// Marks the successors of a changed node for re-evaluation.
fn mark_successors(cfg: &Cfg, node: usize, dirty: &mut [bool]) {
    for edge in cfg.successors(node) {
        dirty[edge.to] = true;
    }
}

/// Runs the polyhedral analysis on a CFG, returning one invariant per node.
/// The entry node starts at `⊤` (all states possible).
pub fn analyze_cfg(cfg: &Cfg, options: &InvariantOptions) -> InvariantMap {
    analyze_cfg_from(cfg, &Polyhedron::universe(cfg.num_vars()), options)
}

/// Runs the polyhedral analysis on a CFG with the given polyhedron as the set
/// of initial states — the entry point used by the conditional-termination
/// pipeline, which re-runs the forward analysis seeded with an inferred
/// precondition instead of `⊤`.
pub fn analyze_cfg_from(
    cfg: &Cfg,
    entry_state: &Polyhedron,
    options: &InvariantOptions,
) -> InvariantMap {
    let n = cfg.num_vars();
    assert_eq!(entry_state.dim(), n, "entry state dimension mismatch");
    let num_nodes = cfg.num_nodes();
    let join = |a: &Polyhedron, b: &Polyhedron| -> Polyhedron {
        if options.exact_join {
            a.convex_hull(b)
        } else {
            a.weak_join(b)
        }
    };
    let mut state: Vec<Polyhedron> = (0..num_nodes).map(|_| Polyhedron::empty(n)).collect();
    state[cfg.entry()] = entry_state.clone();
    let widening_points: std::collections::HashSet<usize> =
        cfg.loop_headers().iter().copied().collect();
    let mut join_count = vec![0usize; num_nodes];
    // Thresholds for "widening up to" (Halbwachs): every linear constraint
    // appearing in a guard of the program. A threshold entailed by the joined
    // value is kept across widening, which preserves the guard-derived bounds
    // (e.g. loop counters) that plain widening would discard.
    let thresholds: Vec<termite_polyhedra::Constraint> = {
        let mut ts = Vec::new();
        for edge in cfg.edges() {
            if let CfgOp::Guard(cs) = &edge.op {
                for c in cs {
                    let pc = c.to_polyhedral().canonicalize();
                    if !ts.contains(&pc) {
                        ts.push(pc);
                    }
                }
            }
        }
        ts
    };

    // Ascending iterations with (delayed) widening at loop headers. A node
    // is re-evaluated only when a predecessor changed since its last
    // evaluation: with the same inputs it would find `incoming ⊆ state`
    // (every update below contains its `incoming`) and change nothing, so
    // the skipped sweeps leave every state, join count and pass identical.
    let mut dirty = vec![true; num_nodes];
    let mut iteration = 0usize;
    loop {
        iteration += 1;
        let mut changed = false;
        for node in 0..num_nodes {
            if !std::mem::take(&mut dirty[node]) {
                continue;
            }
            // New value: join of the incoming edge posts (entry keeps its
            // initial value as a lower bound).
            let mut incoming = if node == cfg.entry() {
                entry_state.clone()
            } else {
                Polyhedron::empty(n)
            };
            for edge in cfg.predecessors(node) {
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(&incoming, &post);
                }
            }
            let new_value = if state[node].is_empty() {
                incoming
            } else if incoming.is_subset_of(&state[node]) {
                continue;
            } else if widening_points.contains(&node) && join_count[node] >= options.widening_delay
            {
                let joined = join(&state[node], &incoming);
                let mut widened = state[node].widen(&joined);
                let mut session = joined.entailment();
                for t in &thresholds {
                    if session.entails(t) {
                        widened.add_constraint(t.clone());
                    }
                }
                widened
            } else {
                join(&state[node], &incoming)
            };
            if !new_value.is_subset_of(&state[node]) {
                join_count[node] += 1;
                state[node] = new_value.light_reduce();
                changed = true;
                mark_successors(cfg, node, &mut dirty);
            }
        }
        if !changed || iteration >= options.max_iterations {
            break;
        }
    }

    // Descending (narrowing) iterations: recompute exact posts and intersect
    // with the stabilised value. This recovers guard-derived bounds dropped by
    // widening while staying a post-fixpoint.
    for _ in 0..options.narrowing_passes {
        for node in 0..num_nodes {
            if node == cfg.entry() {
                continue;
            }
            let mut incoming = Polyhedron::empty(n);
            for edge in cfg.predecessors(node) {
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(&incoming, &post);
                }
            }
            let refined = incoming.intersection(&state[node]).minimize();
            state[node] = refined;
        }
    }

    InvariantMap { per_node: state }
}

/// Forward propagation that ignores loop back edges: the value at each node
/// is (an over-approximation of) the states that reach it *from outside the
/// loops it heads*. Used to initialise the Houdini-style inductive
/// strengthening: a candidate invariant must hold on every loop entry before
/// it can be assumed inductively.
///
/// A back edge is an edge into a loop header from a node created after it
/// (structured lowering numbers nodes in program order, so body nodes always
/// follow their header).
pub fn entry_reach(
    cfg: &Cfg,
    entry_state: &Polyhedron,
    options: &InvariantOptions,
) -> InvariantMap {
    let n = cfg.num_vars();
    let num_nodes = cfg.num_nodes();
    let headers: std::collections::HashSet<usize> = cfg.loop_headers().iter().copied().collect();
    let join = |a: &Polyhedron, b: &Polyhedron| -> Polyhedron {
        if options.exact_join {
            a.convex_hull(b)
        } else {
            a.weak_join(b)
        }
    };
    let mut state: Vec<Polyhedron> = (0..num_nodes).map(|_| Polyhedron::empty(n)).collect();
    state[cfg.entry()] = entry_state.clone();
    // The filtered graph is acyclic, so a plain round-robin fixpoint
    // stabilises after at most `num_nodes` sweeps; no widening is needed.
    // Nodes none of whose predecessors changed are skipped, as in
    // `analyze_cfg_from`.
    let mut dirty = vec![true; num_nodes];
    for _ in 0..num_nodes {
        let mut changed = false;
        for node in 0..num_nodes {
            if !std::mem::take(&mut dirty[node]) {
                continue;
            }
            let mut incoming = if node == cfg.entry() {
                entry_state.clone()
            } else {
                Polyhedron::empty(n)
            };
            for edge in cfg.predecessors(node) {
                if headers.contains(&node) && edge.from > node {
                    continue; // back edge
                }
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(&incoming, &post);
                }
            }
            if !incoming.is_subset_of(&state[node]) {
                state[node] = join(&state[node], &incoming).light_reduce();
                changed = true;
                mark_successors(cfg, node, &mut dirty);
            }
        }
        if !changed {
            break;
        }
    }
    InvariantMap { per_node: state }
}

/// Convenience entry point: invariants at the cut points (loop headers) of a
/// program, indexed like the locations of its
/// [`termite_ir::TransitionSystem`].
pub fn location_invariants(program: &Program, options: &InvariantOptions) -> Vec<Polyhedron> {
    let cfg = program.to_cfg();
    location_invariants_from(&cfg, &Polyhedron::universe(cfg.num_vars()), options)
}

/// Invariants at the cut points for a given set of initial states (the
/// precondition-seeded variant used by [`FixpointPipeline`]).
pub fn location_invariants_from(
    cfg: &Cfg,
    entry_state: &Polyhedron,
    options: &InvariantOptions,
) -> Vec<Polyhedron> {
    let map = analyze_cfg_from(cfg, entry_state, options);
    cfg.loop_headers()
        .iter()
        .map(|&h| map.at_node(h).clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_program;
    use termite_linalg::QVector;
    use termite_num::Rational;
    use termite_polyhedra::Constraint;

    fn pt(values: &[i64]) -> QVector {
        QVector::from_i64(values)
    }

    #[test]
    fn counted_loop_bounds() {
        let p = parse_program("var x; x = 0; while (x < 10) { x = x + 1; }").unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        assert_eq!(invs.len(), 1);
        let inv = &invs[0];
        for v in 0..=10 {
            assert!(
                inv.contains_point(&pt(&[v])),
                "missing reachable state x={v}"
            );
        }
        assert!(!inv.contains_point(&pt(&[-1])));
        assert!(!inv.contains_point(&pt(&[11])));
    }

    #[test]
    fn paper_example_1_invariant_is_sound_and_bounded() {
        let p = parse_program(
            r#"
            var x, y;
            x = 5; y = 10;
            while (true) {
                choice {
                    assume x <= 10 && y >= 0;
                    x = x + 1;
                    y = y - 1;
                } or {
                    assume x >= 0 && y >= 0;
                    x = x - 1;
                    y = y - 1;
                }
            }
            "#,
        )
        .unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        let inv = &invs[0];
        // Soundness: a few states along concrete executions.
        for s in [[5, 10], [6, 9], [5, 8], [4, 7], [0, 0], [1, -1], [11, 4]] {
            assert!(inv.contains_point(&pt(&s)), "missing reachable state {s:?}");
        }
        // Precision: the analysis recovers the guard-derived lower bound on y
        // (y >= -1) which is what supports the paper's ranking function y + 1.
        // (The slanted bounds x <= 11 and x + y <= 15 of the paper's Aspic
        // invariant need the exact hull join; see `InvariantOptions::exact_join`.)
        assert!(inv.entails(&Constraint::ge(
            QVector::from_i64(&[0, 1]),
            Rational::from(-1)
        )));
    }

    #[test]
    fn nested_loops_invariants() {
        let p = parse_program(
            r#"
            var i, j;
            i = 0;
            while (i < 5) {
                j = 0;
                while (j < 10) { j = j + 1; }
                i = i + 1;
            }
            "#,
        )
        .unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        assert_eq!(invs.len(), 2);
        let outer = &invs[0];
        let inner = &invs[1];
        // Outer header: 0 <= i <= 5.
        assert!(outer.contains_point(&pt(&[0, 0])));
        assert!(outer.contains_point(&pt(&[5, 10])));
        assert!(!outer.contains_point(&pt(&[6, 0])));
        assert!(!outer.contains_point(&pt(&[-1, 0])));
        // Inner header: 0 <= j <= 10 and 0 <= i <= 4.
        assert!(inner.contains_point(&pt(&[0, 0])));
        assert!(inner.contains_point(&pt(&[4, 10])));
        assert!(!inner.contains_point(&pt(&[5, 0])));
        assert!(!inner.contains_point(&pt(&[0, 11])));
    }

    #[test]
    fn havoc_forgets_information() {
        let p = parse_program(
            r#"
            var x, n;
            n = nondet();
            x = 0;
            while (x < n) { x = x + 1; }
            "#,
        )
        .unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        let inv = &invs[0];
        // n is unconstrained, x >= 0 must hold.
        assert!(inv.contains_point(&pt(&[0, -7])));
        assert!(inv.contains_point(&pt(&[3, 100])));
        assert!(!inv.contains_point(&pt(&[-1, 5])));
    }

    #[test]
    fn unreachable_loop_gets_empty_invariant() {
        let p = parse_program(
            r#"
            var x;
            x = 0;
            assume x >= 1;
            while (x > 0) { x = x - 1; }
            "#,
        )
        .unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        assert!(invs[0].is_empty());
    }

    #[test]
    fn guard_with_disjunction_is_covered() {
        let p = parse_program(
            r#"
            var x, y;
            x = 3; y = 3;
            while (x > 0 || y > 0) {
                if (x > 0) { x = x - 1; } else { y = y - 1; }
            }
            "#,
        )
        .unwrap();
        let invs = location_invariants(&p, &InvariantOptions::default());
        let inv = &invs[0];
        for s in [[3, 3], [0, 3], [0, 0], [2, 3]] {
            assert!(inv.contains_point(&pt(&s)), "missing {s:?}");
        }
        assert!(!inv.contains_point(&pt(&[4, 3])));
    }

    #[test]
    fn node_level_map_is_consistent_with_headers() {
        let p = parse_program("var x; x = 0; while (x < 3) { x = x + 1; }").unwrap();
        let cfg = p.to_cfg();
        let map = analyze_cfg(&cfg, &InvariantOptions::default());
        assert_eq!(map.nodes().len(), cfg.num_nodes());
        let header = cfg.loop_headers()[0];
        assert!(map.at_node(header).contains_point(&pt(&[0])));
        // The exit node invariant implies x >= 3 (the loop exit guard).
        assert!(map
            .at_node(cfg.exit())
            .entails(&Constraint::ge(QVector::from_i64(&[1]), Rational::from(3))));
    }
}
