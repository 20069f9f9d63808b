//! Warm-started incremental linear programming.
//!
//! The synthesis loop of the paper solves a *growing* sequence of LPs: every
//! counterexample iteration adds one `δ_j` variable and two constraint rows
//! to the previous instance and re-optimizes. Solving each instance from an
//! empty tableau redoes all the work of the previous iterations;
//! [`IncrementalLp`] instead keeps the final tableau and basis of the last
//! solve alive and re-optimizes in two warm-started steps:
//!
//! 1. **Feasibility restoration (dual simplex).** New rows are expressed in
//!    terms of the current basis (one elimination sweep) and enter with their
//!    slack basic; rows violated by the current optimum show up as negative
//!    right-hand sides. Dual-simplex pivots with a zero cost row — which
//!    every pivot trivially keeps dual-feasible — drive them non-negative
//!    with least-index anti-cycling tie-breaks.
//! 2. **Primal re-optimization.** The real objective (extended over any new
//!    variables) is re-eliminated against the warm basis and ordinary primal
//!    simplex finishes the job. Only the handful of pivots the new rows make
//!    necessary are performed; the bulk of the basis survives.
//!
//! The outcome is exactly an optimum of the same exact-rational LP — the
//! warm start changes *time*, never *answers* (degenerate optima may pick a
//! different optimal vertex, as any pivot-order change can).
//!
//! Only cold solves carry a Farkas certificate of infeasibility
//! ([`LpSolution::farkas`](crate::LpSolution::farkas)): the warm dual path
//! stops at the first row it cannot repair and reports `Infeasible` with
//! `farkas: None`. Its callers want the verdict, not a conflict core.

use crate::simplex::{
    ColKind, Constraint, Direction, FeasibilityOutcome, Interrupt, Interrupted, LinearProgram,
    LpSolution, Relation, Tableau, VarId, VarKind,
};
use termite_num::Rational;

/// Safety net for the dual phase: pivot budget per re-optimization before the
/// session falls back to a from-scratch solve. Least-index pivoting does not
/// cycle, so this should never trigger; it bounds the damage if it ever did.
const DUAL_PIVOT_BUDGET: usize = 100_000;

/// An incremental LP session: a [`LinearProgram`] that keeps its simplex
/// tableau warm between solves.
///
/// ```
/// use termite_lp::{Constraint, IncrementalLp, Relation};
/// use termite_num::Rational;
///
/// let mut lp = IncrementalLp::new();
/// let x = lp.add_var("x");
/// lp.add_constraint(Constraint::new(
///     vec![(x, Rational::from(1))],
///     Relation::Le,
///     Rational::from(10),
/// ));
/// lp.maximize(vec![(x, Rational::from(1))]);
/// let first = lp.solve().unwrap();
/// assert_eq!(first.objective(), Some(&Rational::from(10)));
///
/// // A cutting plane: the next solve starts from the previous basis.
/// lp.add_constraint(Constraint::new(
///     vec![(x, Rational::from(1))],
///     Relation::Le,
///     Rational::from(4),
/// ));
/// let second = lp.solve().unwrap();
/// assert_eq!(second.objective(), Some(&Rational::from(4)));
/// ```
#[derive(Debug)]
pub struct IncrementalLp {
    lp: LinearProgram,
    interrupt: Interrupt,
    warm: Option<Warm>,
    /// Caller-assigned tag of each mirrored constraint (parallel to
    /// `lp.constraints`).
    tags: Vec<RowTag>,
    /// Solves served by the warm path (dual restoration from a live basis).
    warm_solves: usize,
    /// Solves that rebuilt the tableau from scratch.
    cold_solves: usize,
    /// Process-unique session identity, stamped into snapshots so a
    /// [`restore`](Self::restore) can reject a snapshot of *another*
    /// session whose row/variable counts happen to line up.
    session: u64,
}

impl Default for IncrementalLp {
    fn default() -> Self {
        IncrementalLp::new()
    }
}

/// Source of the process-unique [`IncrementalLp::session`] identities.
static NEXT_SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A caller-assigned grouping label for constraint rows.
///
/// Tags let a session distinguish structurally different row populations —
/// e.g. rows shared by every lexicographic synthesis level versus rows
/// specific to one level — so a [`snapshot`](IncrementalLp::snapshot) /
/// [`restore`](IncrementalLp::restore) cycle can assert that only the
/// intended group was rolled back, and counters can report per-group sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowTag(pub u32);

impl RowTag {
    /// The default tag of rows added through [`IncrementalLp::add_constraint`].
    pub const UNTAGGED: RowTag = RowTag(0);
}

/// A saved session state: the mirrored program boundary plus a deep copy of
/// the live tableau (when one existed). Produced by
/// [`IncrementalLp::snapshot`], consumed by [`IncrementalLp::restore`].
///
/// Restoring rolls the session back to exactly the captured state — rows and
/// variables added after the snapshot are dropped, and the captured basis
/// (with all its pivots) is reinstated, so the next solve warm-starts from
/// the snapshot's basis instead of an empty tableau.
#[derive(Debug)]
pub struct LpSnapshot {
    /// Identity of the session the snapshot was taken from.
    session: u64,
    num_vars: usize,
    num_constraints: usize,
    objective: Vec<(VarId, Rational)>,
    direction: Direction,
    warm: Option<Warm>,
}

impl LpSnapshot {
    /// Number of declared variables at capture time.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints at capture time.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// `true` when the snapshot carries a live basis (the session had solved
    /// at least once, and the program was not infeasible).
    pub fn has_basis(&self) -> bool {
        self.warm.is_some()
    }
}

/// The live tableau plus bookkeeping about how much of `lp` it has absorbed.
#[derive(Clone)]
struct Warm {
    t: Tableau,
    plus_col: Vec<usize>,
    minus_col: Vec<Option<usize>>,
    /// Number of `lp` variables already present as tableau columns.
    synced_vars: usize,
    /// Number of `lp` constraints already present as tableau rows.
    synced_constraints: usize,
}

impl std::fmt::Debug for Warm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warm")
            .field("rows", &self.t.rows.len())
            .field("cols", &self.t.ncols)
            .field("pivots", &self.t.pivots)
            .finish()
    }
}

impl IncrementalLp {
    /// Creates an empty session (maximization of 0 by default).
    pub fn new() -> Self {
        IncrementalLp {
            lp: LinearProgram::new(),
            interrupt: Interrupt::never(),
            warm: None,
            tags: Vec::new(),
            warm_solves: 0,
            cold_solves: 0,
            session: NEXT_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Installs the interruption source polled inside the pivot loops.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// Declares a non-negative decision variable. The tableau column is
    /// materialised lazily at the next [`solve`](Self::solve).
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.lp.add_var(name)
    }

    /// Declares a sign-unrestricted decision variable.
    pub fn add_free_var(&mut self, name: impl Into<String>) -> VarId {
        self.lp.add_free_var(name)
    }

    /// Number of declared decision variables.
    pub fn num_vars(&self) -> usize {
        self.lp.num_vars()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.lp.num_constraints()
    }

    /// Adds a constraint; the warm tableau absorbs it at the next solve.
    /// `Le`/`Ge` rows take the warm path; an `Eq` row forces the next solve
    /// to rebuild from scratch (equalities need an artificial variable).
    pub fn add_constraint(&mut self, c: Constraint) {
        self.add_constraint_tagged(c, RowTag::UNTAGGED);
    }

    /// Adds a constraint carrying a caller-assigned [`RowTag`].
    pub fn add_constraint_tagged(&mut self, c: Constraint, tag: RowTag) {
        if c.relation == Relation::Eq {
            self.warm = None;
        }
        self.tags.push(tag);
        self.lp.add_constraint(c);
    }

    /// Number of constraints carrying the given tag.
    pub fn rows_tagged(&self, tag: RowTag) -> usize {
        self.tags.iter().filter(|t| **t == tag).count()
    }

    /// Solves served warm (dual restoration from a live basis) so far.
    pub fn warm_solves(&self) -> usize {
        self.warm_solves
    }

    /// Solves that rebuilt the tableau from scratch so far.
    pub fn cold_solves(&self) -> usize {
        self.cold_solves
    }

    /// Captures the current session state: program boundary, objective, and
    /// a deep copy of the live basis (when one exists). [`restore`] rolls
    /// back to it.
    ///
    /// [`restore`]: Self::restore
    pub fn snapshot(&self) -> LpSnapshot {
        LpSnapshot {
            session: self.session,
            num_vars: self.lp.num_vars(),
            num_constraints: self.lp.num_constraints(),
            objective: self.lp.objective.clone(),
            direction: self.lp.direction,
            warm: self.warm.clone(),
        }
    }

    /// Rolls the session back to a state captured by [`snapshot`]: variables
    /// and constraints added since are dropped (tags included) and the
    /// captured basis is reinstated, so the next solve warm-starts from the
    /// snapshot's pivots. Returns `true` when a live basis was reinstated.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from another session (identities
    /// are stamped at capture time, so a foreign snapshot is rejected even
    /// when its row/variable counts happen to line up with this program),
    /// or if it does not describe a prefix of the current program
    /// (variables/constraints were rolled back below its boundary already).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn restore(&mut self, snapshot: &LpSnapshot) -> bool {
        assert!(
            snapshot.session == self.session,
            "LpSnapshot of session {} does not describe a prefix of session {}",
            snapshot.session,
            self.session,
        );
        assert!(
            snapshot.num_vars <= self.lp.num_vars()
                && snapshot.num_constraints <= self.lp.num_constraints(),
            "LpSnapshot does not describe a prefix of this session \
             ({} vars / {} rows captured, {} / {} present)",
            snapshot.num_vars,
            snapshot.num_constraints,
            self.lp.num_vars(),
            self.lp.num_constraints(),
        );
        self.lp.names.truncate(snapshot.num_vars);
        self.lp.kinds.truncate(snapshot.num_vars);
        self.lp.constraints.truncate(snapshot.num_constraints);
        self.tags.truncate(snapshot.num_constraints);
        self.lp.objective = snapshot.objective.clone();
        self.lp.direction = snapshot.direction;
        self.warm = snapshot.warm.clone();
        self.warm.is_some()
    }

    /// Sets the objective to maximize (may extend over newly added
    /// variables; the reduced-cost row is rebuilt at every solve).
    pub fn maximize(&mut self, objective: Vec<(VarId, Rational)>) {
        self.lp.maximize(objective);
    }

    /// Sets the objective to minimize.
    pub fn minimize(&mut self, objective: Vec<(VarId, Rational)>) {
        self.lp.minimize(objective);
    }

    /// Read-only view of the mirrored program (for from-scratch comparison).
    pub fn program(&self) -> &LinearProgram {
        &self.lp
    }

    /// Solves the current program, warm-starting from the previous basis
    /// when one is available. Returns `None` when interrupted.
    pub fn solve(&mut self) -> Option<LpSolution> {
        if let Some(mut warm) = self.warm.take() {
            match self.solve_warm(&mut warm) {
                Ok(solution) => {
                    self.warm_solves += 1;
                    // An infeasible program leaves no feasible basis to keep.
                    if !matches!(solution.outcome, crate::LpOutcome::Infeasible) {
                        self.warm = Some(warm);
                    }
                    return Some(solution);
                }
                Err(WarmFailure::Interrupted) => return None,
                // Pivot budget exhausted: fall through to the cold path.
                Err(WarmFailure::Rebuild) => {}
            }
        }
        self.solve_cold()
    }

    fn solve_cold(&mut self) -> Option<LpSolution> {
        let (mut t, plus_col, minus_col) = Tableau::build(&self.lp);
        match t.first_solve(&self.lp, &plus_col, &minus_col, &self.interrupt) {
            Ok(solution) => {
                self.cold_solves += 1;
                // Keep the basis warm unless phase 1 failed (an infeasible
                // program leaves no feasible basis to restart from).
                if !matches!(solution.outcome, crate::LpOutcome::Infeasible) {
                    self.warm = Some(Warm {
                        t,
                        plus_col,
                        minus_col,
                        synced_vars: self.lp.num_vars(),
                        synced_constraints: self.lp.num_constraints(),
                    });
                }
                Some(solution)
            }
            Err(Interrupted) => None,
        }
    }

    /// The warm path: absorb pending variables and rows, restore primal
    /// feasibility with dual pivots, re-run primal simplex.
    fn solve_warm(&mut self, w: &mut Warm) -> Result<LpSolution, WarmFailure> {
        let pivots_before = w.t.pivots;

        // 1. Materialise columns for variables declared since the last solve.
        for v in w.synced_vars..self.lp.num_vars() {
            w.plus_col.push(w.t.ncols);
            Self::push_column(&mut w.t, ColKind::Plus(v));
            if self.lp.kinds[v] == VarKind::Free {
                w.minus_col.push(Some(w.t.ncols));
                Self::push_column(&mut w.t, ColKind::Minus(v));
            } else {
                w.minus_col.push(None);
            }
        }
        w.synced_vars = self.lp.num_vars();

        // 2. Append rows for constraints added since the last solve, each
        //    with a fresh basic slack, eliminated against the current basis.
        for ci in w.synced_constraints..self.lp.constraints.len() {
            let c = &self.lp.constraints[ci];
            // `add_constraint` drops the warm state on Eq rows, so only
            // inequalities reach this point.
            debug_assert_ne!(c.relation, Relation::Eq);
            let slack = w.t.ncols;
            Self::push_column(&mut w.t, ColKind::Slack);

            // Dense row in ≤-orientation: a·x ≥ b becomes −a·x ≤ −b, so the
            // slack always enters with coefficient +1 and goes basic.
            let flip = c.relation == Relation::Ge;
            let mut row = vec![Rational::zero(); w.t.ncols];
            for (v, k) in &c.terms {
                let k = if flip { -k } else { k.clone() };
                row[w.plus_col[v.0]] += &k;
                if let Some(mc) = w.minus_col[v.0] {
                    row[mc] -= &k;
                }
            }
            row[slack] = Rational::one();
            let mut row = termite_linalg::QVector::from_vec(row);
            let mut rhs = if flip { -&c.rhs } else { c.rhs.clone() };

            // Express the new row in terms of the current basis. Canonical
            // form makes the eliminations independent: basic column b_i is a
            // unit column, so subtracting `row[b_i] · row_i` zeroes exactly
            // that coefficient.
            for (i, &b) in w.t.basis.iter().enumerate() {
                let factor = row[b].clone();
                if factor.is_zero() {
                    continue;
                }
                row.sub_scaled_in_place(&w.t.rows[i], &factor);
                rhs -= &(&w.t.rhs[i] * &factor);
            }
            w.t.rows.push(row);
            w.t.rhs.push(rhs);
            w.t.basis.push(slack);
        }
        w.synced_constraints = self.lp.constraints.len();

        // 3. Dual phase: drive the (possibly negative) new right-hand sides
        //    non-negative.
        match w
            .t
            .restore_feasibility(&self.interrupt, DUAL_PIVOT_BUDGET)
            .map_err(|Interrupted| WarmFailure::Interrupted)?
        {
            FeasibilityOutcome::Feasible => {}
            FeasibilityOutcome::Infeasible => {
                return Ok(LpSolution {
                    outcome: crate::LpOutcome::Infeasible,
                    pivots: w.t.pivots - pivots_before,
                    rows: self.lp.num_constraints(),
                    cols: self.lp.num_vars(),
                    farkas: None,
                });
            }
            FeasibilityOutcome::GaveUp => return Err(WarmFailure::Rebuild),
        }

        // 4. Primal phase with the real objective.
        w.t.optimize(
            &self.lp,
            &w.plus_col,
            &w.minus_col,
            &self.interrupt,
            pivots_before,
        )
        .map_err(|Interrupted| WarmFailure::Interrupted)
    }

    /// Appends one all-zero column to every row of the tableau.
    fn push_column(t: &mut Tableau, kind: ColKind) {
        t.col_kinds.push(kind);
        t.ncols += 1;
        for row in &mut t.rows {
            row.push(Rational::zero());
        }
    }
}

enum WarmFailure {
    Interrupted,
    Rebuild,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpOutcome, Relation};
    use proptest::prelude::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn warm_resolve_matches_scratch_on_growing_cutting_planes() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        let y = inc.add_var("y");
        inc.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(1))],
            Relation::Le,
            q(10),
        ));
        inc.maximize(vec![(x, q(3)), (y, q(2))]);
        let first = inc.solve().unwrap();
        assert_eq!(first.objective(), Some(&q(30)));

        // Tighten with cuts one at a time; each warm solve must match a
        // from-scratch solve of the same program.
        let cuts = [
            Constraint::new(vec![(x, q(1))], Relation::Le, q(6)),
            Constraint::new(vec![(x, q(1)), (y, q(2))], Relation::Le, q(14)),
            Constraint::new(vec![(y, q(1))], Relation::Ge, q(2)),
        ];
        for cut in cuts {
            inc.add_constraint(cut);
            let warm = inc.solve().unwrap();
            let scratch = inc.program().solve();
            assert_eq!(warm.objective(), scratch.objective());
        }
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(3 * 6 + 2 * 4)));
    }

    #[test]
    fn new_variables_join_the_warm_tableau() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(5)));
        inc.maximize(vec![(x, q(1))]);
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(5)));

        // The CEGIS pattern: a new δ-style variable plus rows coupling it to
        // the existing ones, objective extended.
        let d = inc.add_var("delta");
        inc.add_constraint(Constraint::new(vec![(d, q(1))], Relation::Le, q(1)));
        inc.add_constraint(Constraint::new(
            vec![(x, q(1)), (d, q(-1))],
            Relation::Ge,
            q(0),
        ));
        inc.maximize(vec![(x, q(1)), (d, q(1))]);
        let sol = inc.solve().unwrap();
        assert_eq!(sol.objective(), Some(&q(6)));
        assert_eq!(sol.assignment().unwrap()[d.0], q(1));
    }

    #[test]
    fn infeasible_cut_is_detected_and_session_recovers() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(5)));
        inc.maximize(vec![(x, q(1))]);
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(5)));
        inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Ge, q(7)));
        assert_eq!(inc.solve().unwrap().outcome, LpOutcome::Infeasible);
        // The next solve rebuilds cold and must agree with scratch again.
        assert_eq!(inc.solve().unwrap().outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn equality_constraint_falls_back_to_cold_solve() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        let y = inc.add_var("y");
        inc.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(1))],
            Relation::Le,
            q(8),
        ));
        inc.maximize(vec![(x, q(1)), (y, q(2))]);
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(16)));
        inc.add_constraint(Constraint::new(vec![(y, q(1))], Relation::Eq, q(3)));
        let sol = inc.solve().unwrap();
        assert_eq!(sol.objective(), inc.program().solve().objective());
        assert_eq!(sol.objective(), Some(&q(11)));
    }

    #[test]
    fn unbounded_then_bounded_by_a_cut() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.maximize(vec![(x, q(1))]);
        assert!(matches!(
            inc.solve().unwrap().outcome,
            LpOutcome::Unbounded { .. }
        ));
        inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(9)));
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(9)));
    }

    #[test]
    fn interrupted_session_returns_none() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(5)));
        inc.maximize(vec![(x, q(1))]);
        inc.set_interrupt(Interrupt::new(|| true));
        assert!(inc.solve().is_none());
        inc.set_interrupt(Interrupt::never());
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(5)));
    }

    #[test]
    fn snapshot_restore_rolls_back_rows_vars_and_basis() {
        let shared = RowTag(1);
        let level = RowTag(2);
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.add_constraint_tagged(Constraint::new(vec![(x, q(1))], Relation::Le, q(9)), shared);
        inc.maximize(vec![(x, q(1))]);
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(9)));
        let snap = inc.snapshot();
        assert!(snap.has_basis());
        assert_eq!((snap.num_vars(), snap.num_constraints()), (1, 1));

        // A "level": one extra variable and two extra rows, then roll back.
        let y = inc.add_var("y");
        inc.add_constraint_tagged(Constraint::new(vec![(y, q(1))], Relation::Le, q(3)), level);
        inc.add_constraint_tagged(
            Constraint::new(vec![(x, q(1)), (y, q(1))], Relation::Le, q(7)),
            level,
        );
        inc.maximize(vec![(x, q(1)), (y, q(1))]);
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(7)));
        assert_eq!(inc.rows_tagged(level), 2);

        assert!(inc.restore(&snap), "the snapshot carried a live basis");
        assert_eq!(inc.num_vars(), 1);
        assert_eq!(inc.num_constraints(), 1);
        assert_eq!(inc.rows_tagged(level), 0);
        assert_eq!(inc.rows_tagged(shared), 1);
        // The restored objective is the snapshot's; the solve is warm.
        let warm_before = inc.warm_solves();
        assert_eq!(inc.solve().unwrap().objective(), Some(&q(9)));
        assert_eq!(inc.warm_solves(), warm_before + 1);

        // A different second level on the same restored base.
        let z = inc.add_var("z");
        inc.add_constraint_tagged(Constraint::new(vec![(z, q(1))], Relation::Le, q(5)), level);
        inc.maximize(vec![(x, q(1)), (z, q(1))]);
        let warm = inc.solve().unwrap();
        assert_eq!(warm.objective(), Some(&q(14)));
        assert_eq!(warm.objective(), inc.program().solve().objective());
    }

    #[test]
    fn restore_is_reusable_and_counts_solve_kinds() {
        let mut inc = IncrementalLp::new();
        let x = inc.add_var("x");
        inc.maximize(vec![(x, q(1))]);
        // Priming solve on the constraint-free program: cold, zero pivots,
        // unbounded (no rows bound x). An unbounded solve keeps its basis.
        assert!(matches!(
            inc.solve().unwrap().outcome,
            LpOutcome::Unbounded { .. }
        ));
        assert_eq!((inc.cold_solves(), inc.warm_solves()), (1, 0));
        let baseline = inc.snapshot();

        for bound in [4i64, 6, 2] {
            assert!(inc.restore(&baseline));
            inc.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(bound)));
            assert_eq!(inc.solve().unwrap().objective(), Some(&q(bound)));
        }
        assert_eq!(inc.cold_solves(), 1, "every restored solve stayed warm");
        assert_eq!(inc.warm_solves(), 3);
    }

    #[test]
    #[should_panic(expected = "does not describe a prefix")]
    fn restore_of_a_foreign_snapshot_panics() {
        let mut big = IncrementalLp::new();
        let x = big.add_var("x");
        big.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(1)));
        let snap = big.snapshot();
        let mut small = IncrementalLp::new();
        small.restore(&snap);
    }

    #[test]
    #[should_panic(expected = "does not describe a prefix")]
    fn restore_rejects_a_foreign_snapshot_of_identical_shape() {
        // Same variable and row counts, different session: the size check
        // alone would accept this and silently install the wrong tableau.
        let mut a = IncrementalLp::new();
        let xa = a.add_var("x");
        a.add_constraint(Constraint::new(vec![(xa, q(1))], Relation::Le, q(1)));
        a.maximize(vec![(xa, q(1))]);
        a.solve().unwrap();
        let snap = a.snapshot();

        let mut b = IncrementalLp::new();
        let xb = b.add_var("x");
        b.add_constraint(Constraint::new(vec![(xb, q(1))], Relation::Le, q(100)));
        b.maximize(vec![(xb, q(1))]);
        b.solve().unwrap();
        b.restore(&snap);
    }

    proptest! {
        /// Incremental vs from-scratch agreement: grow a random LP one
        /// constraint at a time; at every step the warm session and a cold
        /// `LinearProgram::solve` must report the same outcome kind and, at
        /// an optimum, the same objective value with a feasible assignment.
        #[test]
        fn prop_incremental_matches_scratch(
            coeffs in prop::collection::vec(prop::collection::vec(-4i64..=4, 3), 2..7),
            rhs in prop::collection::vec(-6i64..=15, 7),
            obj in prop::collection::vec(-3i64..=3, 3),
            ge_mask in prop::collection::vec(any::<bool>(), 7),
        ) {
            let mut inc = IncrementalLp::new();
            let vars: Vec<VarId> = (0..3).map(|i| inc.add_var(format!("x{i}"))).collect();
            inc.maximize(obj.iter().enumerate().map(|(j, &c)| (vars[j], q(c))).collect());
            for (i, row) in coeffs.iter().enumerate() {
                let terms: Vec<(VarId, Rational)> = row
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| (vars[j], q(c)))
                    .collect();
                // Mix of ≤ and ≥ rows exercises both the slack orientation
                // and genuinely infeasible additions.
                let relation = if ge_mask[i] { Relation::Ge } else { Relation::Le };
                inc.add_constraint(Constraint::new(terms, relation, q(rhs[i])));

                let warm = inc.solve().expect("no interrupt armed");
                let scratch = inc.program().solve();
                match (&warm.outcome, &scratch.outcome) {
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    (LpOutcome::Unbounded { .. }, LpOutcome::Unbounded { .. }) => {}
                    (
                        LpOutcome::Optimal { objective: wo, assignment: wa },
                        LpOutcome::Optimal { objective: so, .. },
                    ) => {
                        prop_assert_eq!(wo, so, "objective mismatch at step {}", i);
                        // The warm assignment must be feasible for every
                        // constraint added so far.
                        for k in 0..=i {
                            let lhs: Rational = coeffs[k]
                                .iter()
                                .enumerate()
                                .map(|(j, &c)| &q(c) * &wa[j])
                                .sum();
                            if ge_mask[k] {
                                prop_assert!(lhs >= q(rhs[k]));
                            } else {
                                prop_assert!(lhs <= q(rhs[k]));
                            }
                        }
                        for v in wa {
                            prop_assert!(!v.is_negative());
                        }
                    }
                    (w, s) => prop_assert!(false, "outcome kind mismatch at step {}: warm {:?} vs scratch {:?}", i, w, s),
                }
            }
        }
    }
}
