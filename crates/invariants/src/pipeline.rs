//! The invariant pipeline: forward analysis, inductive strengthening, and
//! counterexample-guided precondition refinement.
//!
//! PR 3 turns the analysis from a closed-world prover (one-shot
//! `InvariantMap` consumed by the synthesis) into a refinement pipeline: the
//! synthesis engines hold a [`FixpointPipeline`] and, when a run fails on a
//! spurious extremal counterexample, hand the witness state back via
//! [`FixpointPipeline::refine`] instead of giving up. The pipeline reacts
//! by inferring a candidate *precondition*: a
//! half-space excluding the witness is propagated backward to the program
//! entry ([`crate::entry_precondition`]), the forward analysis is re-run
//! seeded with it, and the synthesis retries with the stronger invariants.
//! A proof found under a non-trivial precondition becomes the conditional
//! verdict `TerminatesIf(P)` in `termite-core`.
//!
//! The initial stages (forward fixpoint + Houdini from the unconstrained
//! entry) do not depend on a pipeline's refinement budget, so they live in
//! an immutable [`InvariantSnapshot`] that any number of pipelines — one per
//! racing engine — share behind an [`Arc`].

use crate::{
    entry_precondition_dnf, entry_reach, guard_candidates, houdini, location_invariants_from,
    InvariantOptions,
};
use std::sync::Arc;
use termite_ir::{polyhedron_to_formula, Cfg, Program, TransitionSystem};
use termite_linalg::QVector;
use termite_lp::Interrupt;
use termite_num::Rational;
use termite_polyhedra::{Constraint, Polyhedron};
use termite_smt::{Formula, LinExpr, SmtContext};

/// A concrete header state extracted from the model of a spurious extremal
/// counterexample: the synthesis could not make progress because of this
/// state, so excluding it (and verifying the exclusion) is the natural
/// refinement move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefinementWitness {
    /// Cut point (loop-header index) the witness lives at.
    pub location: usize,
    /// Pre-state values of the program variables.
    pub state: QVector,
}

/// The initial stages of the invariant pipeline for one program, computed
/// once and then only read: the node-level CFG, the Houdini guard
/// candidates, and the forward-fixpoint and Houdini-strengthened invariants
/// of every cut point from one entry set.
///
/// Every [`FixpointPipeline`] built from a snapshot with
/// [`FixpointPipeline::from_snapshot`] starts from exactly the invariants a
/// pipeline of its own would compute, so one snapshot can serve all the
/// engines racing on a job.
#[derive(Debug)]
pub struct InvariantSnapshot {
    cfg: Cfg,
    candidates: Vec<Constraint>,
    options: InvariantOptions,
    entry: Polyhedron,
    forward: Vec<Polyhedron>,
    strengthened: Vec<Polyhedron>,
}

impl InvariantSnapshot {
    /// Runs the forward fixpoint and the Houdini strengthening from the
    /// unconstrained entry. `interrupt` is polled inside the strengthening's
    /// SMT loop; an interrupted strengthening conjoins nothing.
    pub fn new(
        program: &Program,
        ts: &TransitionSystem,
        options: &InvariantOptions,
        interrupt: &Interrupt,
    ) -> Self {
        let entry = Polyhedron::universe(program.num_vars());
        Self::from_entry(program.to_cfg(), ts, options, entry, interrupt)
    }

    fn from_entry(
        cfg: Cfg,
        ts: &TransitionSystem,
        options: &InvariantOptions,
        entry: Polyhedron,
        interrupt: &Interrupt,
    ) -> Self {
        let mut snapshot = InvariantSnapshot {
            forward: location_invariants_from(&cfg, &entry, options),
            candidates: guard_candidates(&cfg),
            cfg,
            options: options.clone(),
            entry,
            strengthened: Vec::new(),
        };
        snapshot.strengthened =
            snapshot.strengthen(ts, &snapshot.entry, snapshot.forward.clone(), interrupt);
        snapshot
    }

    /// Forward-fixpoint invariant of each cut point.
    pub fn forward_invariants(&self) -> &[Polyhedron] {
        &self.forward
    }

    /// Houdini-strengthened invariant of each cut point: what a pipeline
    /// built from the snapshot starts with.
    pub fn invariants(&self) -> &[Polyhedron] {
        &self.strengthened
    }

    /// Forward fixpoint from `entry`, then Houdini strengthening.
    fn run_stages(
        &self,
        ts: &TransitionSystem,
        entry: &Polyhedron,
        interrupt: &Interrupt,
    ) -> Vec<Polyhedron> {
        let forward = location_invariants_from(&self.cfg, entry, &self.options);
        self.strengthen(ts, entry, forward, interrupt)
    }

    /// Houdini strengthening of the forward invariants `invs` from `entry`.
    fn strengthen(
        &self,
        ts: &TransitionSystem,
        entry: &Polyhedron,
        mut invs: Vec<Polyhedron>,
        interrupt: &Interrupt,
    ) -> Vec<Polyhedron> {
        let reach = entry_reach(&self.cfg, entry, &self.options);
        let reach_at_headers: Vec<Polyhedron> = self
            .cfg
            .loop_headers()
            .iter()
            .map(|&h| reach.at_node(h).clone())
            .collect();
        houdini::strengthen_inductive(
            ts,
            &reach_at_headers,
            &mut invs,
            &self.candidates,
            interrupt,
        );
        invs
    }
}

/// The invariant pipeline: Cousot–Halbwachs forward fixpoint, Houdini-style
/// SMT-inductive strengthening, and backward precondition inference.
///
/// Its initial stages live in a shared [`InvariantSnapshot`]: until the
/// first adopted refinement, [`FixpointPipeline::invariants`] borrows them
/// from the snapshot; a refinement computes new invariants, which the
/// pipeline owns from then on (copy-on-refine).
pub struct FixpointPipeline<'ts> {
    snapshot: Arc<InvariantSnapshot>,
    ts: &'ts TransitionSystem,
    entry: Polyhedron,
    /// `None` while the pipeline still stands on the snapshot's invariants.
    owned: Option<Vec<Polyhedron>>,
    precondition: Option<Polyhedron>,
    pending: Vec<Polyhedron>,
    refinements_left: usize,
    tried: Vec<Polyhedron>,
    interrupt: Interrupt,
}

impl<'ts> FixpointPipeline<'ts> {
    /// Builds the pipeline and runs the initial forward + strengthening
    /// stages from the unconstrained entry. `interrupt` is polled inside the
    /// pipeline's SMT loops (strengthening and feasibility probes, in the
    /// initial stages and in every refinement round), so a cancellation
    /// lands mid-refinement instead of after it.
    pub fn new(
        program: &Program,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
    ) -> Self {
        let snapshot = InvariantSnapshot::new(program, ts, options, &interrupt);
        Self::from_snapshot(Arc::new(snapshot), ts, max_refinements, interrupt)
    }

    /// Like [`FixpointPipeline::new`], but with the initial states narrowed
    /// to `entry`: a proof found through such a pipeline is valid for
    /// exactly the entry states in `entry`.
    pub fn with_entry(
        program: &Program,
        ts: &'ts TransitionSystem,
        options: &InvariantOptions,
        max_refinements: usize,
        interrupt: Interrupt,
        entry: Polyhedron,
    ) -> Self {
        let snapshot =
            InvariantSnapshot::from_entry(program.to_cfg(), ts, options, entry, &interrupt);
        Self::from_snapshot(Arc::new(snapshot), ts, max_refinements, interrupt)
    }

    /// A pipeline standing on an already computed snapshot. No analysis
    /// runs here: the invariants are the snapshot's until the first
    /// refinement. `ts` must be the transition system of the snapshot's
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if `ts` and the snapshot disagree on the number of cut points.
    pub fn from_snapshot(
        snapshot: Arc<InvariantSnapshot>,
        ts: &'ts TransitionSystem,
        max_refinements: usize,
        interrupt: Interrupt,
    ) -> Self {
        assert_eq!(
            snapshot.cfg.loop_headers().len(),
            ts.num_locations(),
            "the snapshot belongs to another program"
        );
        FixpointPipeline {
            entry: snapshot.entry.clone(),
            snapshot,
            ts,
            owned: None,
            precondition: None,
            pending: Vec::new(),
            refinements_left: max_refinements,
            tried: Vec::new(),
            interrupt,
        }
    }

    /// Like [`FixpointPipeline::with_entry`] without refinement, but
    /// re-using the CFG and the guard candidates of `snapshot`: only the
    /// forward fixpoint and the Houdini strengthening run again, from
    /// `entry`. Used to re-verify an individual disjunct of a DNF
    /// precondition candidate.
    pub fn reseeded(
        snapshot: &Arc<InvariantSnapshot>,
        ts: &'ts TransitionSystem,
        interrupt: Interrupt,
        entry: Polyhedron,
    ) -> Self {
        let mut pipeline = Self::from_snapshot(Arc::clone(snapshot), ts, 0, interrupt);
        pipeline.owned = Some(snapshot.run_stages(ts, &entry, &pipeline.interrupt));
        pipeline.entry = entry;
        pipeline
    }

    /// The snapshot the pipeline was built from.
    pub fn snapshot(&self) -> &Arc<InvariantSnapshot> {
        &self.snapshot
    }

    /// Unverified extra disjuncts of the adopted precondition: the `¬g`
    /// branches the DNF backward walk kept. Each is a *candidate* — the
    /// caller must re-verify it (e.g. through
    /// [`FixpointPipeline::reseeded`]) before reporting it as part of a
    /// conditional verdict.
    pub fn pending_disjuncts(&self) -> &[Polyhedron] {
        &self.pending
    }

    /// `true` when at least one block transition can still fire under the
    /// given invariants — the guard against *vacuous* preconditions that
    /// merely make every loop unreachable (sound, but not worth reporting
    /// as conditional termination).
    fn some_transition_feasible(&self, invs: &[Polyhedron]) -> bool {
        let mut ctx = SmtContext::new();
        ctx.set_interrupt(self.interrupt.clone());
        self.ts.transitions().iter().any(|t| {
            let inv = &invs[t.from];
            if inv.is_empty() {
                return false;
            }
            let query = Formula::and(vec![
                polyhedron_to_formula(inv, &|i| LinExpr::var(self.ts.pre_var(i))),
                t.formula.clone(),
            ]);
            ctx.solve(&query).is_sat()
        })
    }

    /// Half-space candidates that exclude the witness state: for every
    /// variable with an integral value `v`, the separating bounds
    /// `x_i ≤ v − 1` and `x_i ≥ v + 1`.
    fn separating_half_spaces(&self, witness: &RefinementWitness) -> Vec<Constraint> {
        let n = self.snapshot.cfg.num_vars();
        let mut out = Vec::new();
        for i in 0..n {
            let v = &witness.state[i];
            let unit = QVector::unit(n, i);
            let floor = Rational::from_int(v.floor());
            out.push(Constraint::le(unit.clone(), &floor - &Rational::one()));
            let ceil = Rational::from_int(v.ceil());
            out.push(Constraint::ge(unit, &ceil + &Rational::one()));
        }
        out
    }

    /// Invariant of each cut point, indexed like the transition-system
    /// locations.
    pub fn invariants(&self) -> &[Polyhedron] {
        self.owned
            .as_deref()
            .unwrap_or_else(|| self.snapshot.invariants())
    }

    /// The entry precondition in effect, if the pipeline has narrowed the
    /// initial states (`None` means the unrestricted `⊤`).
    pub fn precondition(&self) -> Option<&Polyhedron> {
        self.precondition.as_ref()
    }

    /// Installs the caller's interruption source. The engines wrap their
    /// cancellation token here so a `{"cancel": id}` or deadline arriving
    /// *during* invariant refinement lands inside the pipeline's SMT loops
    /// (Houdini strengthening, feasibility probes) instead of waiting for
    /// the whole refinement round to finish.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// Reacts to a failed synthesis run with a concrete witness; returns
    /// `true` when the invariants changed (the caller should retry) and
    /// `false` when the pipeline is out of ideas.
    pub fn refine(&mut self, witness: &RefinementWitness) -> bool {
        let headers = self.snapshot.cfg.loop_headers();
        if self.refinements_left == 0 || witness.location >= headers.len() {
            return false;
        }
        let header = headers[witness.location];
        for half_space in self.separating_half_spaces(witness) {
            // A cancelled refinement is out of ideas by definition: the
            // caller's token is the authority on *why* the retry stops.
            if self.interrupt.is_raised() {
                return false;
            }
            // Seed: the part of the header invariant on the other side of
            // the separating half-space.
            let mut seed = self.invariants()[witness.location].clone();
            seed.add_constraint(half_space);
            if seed.is_empty() {
                continue;
            }
            let dnf = entry_precondition_dnf(&self.snapshot.cfg, header, &seed);
            let Some(candidate) = dnf.first().filter(|c| !c.is_empty()) else {
                continue;
            };
            let new_entry = self.entry.intersection(candidate).minimize();
            if new_entry.is_empty() || self.tried.iter().any(|t| t.equal(&new_entry)) {
                continue;
            }
            self.tried.push(new_entry.clone());
            let new_invs = self
                .snapshot
                .run_stages(self.ts, &new_entry, &self.interrupt);
            // A precondition under which no transition can fire proves
            // nothing worth reporting (the loops would simply be
            // unreachable), and one that leaves the invariants unchanged
            // cannot help the retry.
            if !self.some_transition_feasible(&new_invs) {
                continue;
            }
            if new_invs
                .iter()
                .zip(self.invariants())
                .all(|(a, b)| a.equal(b))
            {
                continue;
            }
            self.entry = new_entry.clone();
            self.owned = Some(new_invs);
            // The adopted candidate's `¬g` siblings stay pending for the
            // caller to verify independently; their backward-walk
            // justification is self-contained, so they accumulate across
            // refinement rounds.
            for extra in dnf.into_iter().skip(1) {
                let already = extra.is_subset_of(&new_entry)
                    || self.pending.iter().any(|p| extra.is_subset_of(p));
                if !already && self.pending.len() < crate::MAX_WP_DISJUNCTS {
                    self.pending.push(extra);
                }
            }
            self.precondition = Some(new_entry);
            self.refinements_left -= 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location_invariants;
    use termite_ir::parse_program;

    /// Exact equality of two invariant lists (same constraints, same order).
    fn same(a: &[Polyhedron], b: &[Polyhedron]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_string() == y.to_string())
    }

    fn snapshot_of(p: &Program, ts: &TransitionSystem) -> Arc<InvariantSnapshot> {
        let options = InvariantOptions::default();
        Arc::new(InvariantSnapshot::new(p, ts, &options, &Interrupt::never()))
    }

    #[test]
    fn initial_stages_match_location_invariants_plus_strengthening() {
        let p = parse_program("var x; x = 0; while (x < 10) { x = x + 1; }").unwrap();
        let ts = p.transition_system();
        let pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        assert_eq!(pipeline.invariants().len(), 1);
        assert!(pipeline.precondition().is_none());
        assert!(pipeline.invariants()[0].contains_point(&QVector::from_i64(&[5])));
        assert!(!pipeline.invariants()[0].contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn snapshot_pipelines_start_where_a_fresh_pipeline_does() {
        // gcd-like: Houdini adds `b >= 1`, so the strengthened stage differs
        // from the forward one and both must be carried faithfully.
        let p = parse_program(
            "var a, b; assume a >= 1 && b >= 1; \
             while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } }",
        )
        .unwrap();
        let ts = p.transition_system();
        let options = InvariantOptions::default();
        let fresh = FixpointPipeline::new(&p, &ts, &options, 2, Interrupt::never());
        let snapshot = snapshot_of(&p, &ts);
        let forward = location_invariants(&p, &options);
        assert!(same(snapshot.forward_invariants(), &forward));
        assert!(!same(snapshot.forward_invariants(), snapshot.invariants()));
        let shared = FixpointPipeline::from_snapshot(snapshot, &ts, 2, Interrupt::never());
        assert!(same(shared.invariants(), fresh.invariants()));
    }

    #[test]
    fn reseeded_pipeline_matches_with_entry_and_shares_the_snapshot() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let entry = Polyhedron::from_constraints(
            2,
            vec![Constraint::le(
                QVector::from_i64(&[0, 1]),
                Rational::from(-1),
            )],
        );
        let fresh = FixpointPipeline::with_entry(
            &p,
            &ts,
            &InvariantOptions::default(),
            0,
            Interrupt::never(),
            entry.clone(),
        );
        let snapshot = snapshot_of(&p, &ts);
        let reseeded = FixpointPipeline::reseeded(&snapshot, &ts, Interrupt::never(), entry);
        assert!(same(reseeded.invariants(), fresh.invariants()));
        assert!(Arc::ptr_eq(reseeded.snapshot(), &snapshot));
        assert!(!same(reseeded.invariants(), snapshot.invariants()));
    }

    #[test]
    fn refinement_copies_and_leaves_the_snapshot_untouched() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let snapshot = snapshot_of(&p, &ts);
        let before = snapshot.invariants().to_vec();
        let mut refined =
            FixpointPipeline::from_snapshot(Arc::clone(&snapshot), &ts, 2, Interrupt::never());
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(refined.refine(&witness));
        assert!(!refined.invariants()[0].contains_point(&QVector::from_i64(&[1, 0])));
        assert!(same(snapshot.invariants(), &before));
        let sibling = FixpointPipeline::from_snapshot(snapshot, &ts, 0, Interrupt::never());
        assert!(same(sibling.invariants(), &before));
    }

    #[test]
    fn refinement_excludes_the_witness_and_records_a_precondition() {
        // while (x > 0) { x = x + y; } terminates from y <= -1; the witness
        // y = 0 should drive the pipeline to that precondition.
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(pipeline.refine(&witness));
        let pre = pipeline.precondition().expect("a precondition was adopted");
        // The adopted precondition must exclude the witness state.
        assert!(!pre.contains_point(&QVector::from_i64(&[1, 0])));
        // And the header invariant must now constrain y away from 0.
        assert!(!pipeline.invariants()[0].contains_point(&QVector::from_i64(&[1, 0])));
    }

    #[test]
    fn raised_interrupt_stops_refinement_without_a_precondition() {
        // Same witness as above, but the interrupt fires before the first
        // separating half-space is explored: refine must bail out with
        // `false` and adopt nothing.
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 2, Interrupt::never());
        pipeline.set_interrupt(Interrupt::new(|| true));
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(!pipeline.refine(&witness));
        assert!(pipeline.precondition().is_none());
    }

    #[test]
    fn refinement_budget_is_respected() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let ts = p.transition_system();
        let mut pipeline =
            FixpointPipeline::new(&p, &ts, &InvariantOptions::default(), 0, Interrupt::never());
        let witness = RefinementWitness {
            location: 0,
            state: QVector::from_i64(&[1, 0]),
        };
        assert!(!pipeline.refine(&witness));
    }
}
