//! Two-phase primal simplex over exact rationals.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use termite_linalg::QVector;
use termite_num::Rational;

/// How often the pivot loops (two-phase and bounded) poll the [`Interrupt`]:
/// every `INTERRUPT_POLL_PERIOD` pivots. Polling is an atomic load behind an `Arc`
/// call, so the period only has to amortise the indirect call, not the check.
pub(crate) const INTERRUPT_POLL_PERIOD: usize = 64;

/// A cooperative interruption source polled inside the simplex pivot loop.
///
/// `termite-lp` sits below the crate that owns the cancellation tokens, so
/// the coupling is a plain closure: the caller wraps whatever flag it wants
/// observed (a portfolio cancel token, a deadline, a test hook) and the
/// solver polls it every `INTERRUPT_POLL_PERIOD` (64) pivots. An interrupted
/// solve or check returns no answer — never a wrong one.
#[derive(Clone, Default)]
pub struct Interrupt(Option<Arc<dyn Fn() -> bool + Send + Sync>>);

impl Interrupt {
    /// An interrupt that never fires (the default).
    pub fn never() -> Self {
        Interrupt(None)
    }

    /// Wraps a polling closure; the solver stops soon after it first returns
    /// `true`.
    pub fn new(poll: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        Interrupt(Some(Arc::new(poll)))
    }

    /// `true` once the underlying source requests interruption.
    pub fn is_raised(&self) -> bool {
        self.0.as_ref().is_some_and(|poll| poll())
    }
}

impl fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interrupt")
            .field("armed", &self.0.is_some())
            .finish()
    }
}

/// Marker error: a solve or feasibility check was interrupted mid-pivot; no
/// answer was established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted;

/// Identifier of a decision variable in a [`LinearProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Comparison relation of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

/// A linear constraint `Σ coeff_i · x_i  (<=|>=|==)  rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Sparse left-hand side.
    pub terms: Vec<(VarId, Rational)>,
    /// Relation between left- and right-hand side.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: Rational,
}

impl Constraint {
    /// Builds a constraint from a sparse list of terms.
    pub fn new(terms: Vec<(VarId, Rational)>, relation: Relation, rhs: Rational) -> Self {
        Constraint {
            terms,
            relation,
            rhs,
        }
    }
}

/// Direction of optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    Maximize,
    Minimize,
}

/// Result status of an LP solve, with attached data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded in the direction of optimization. The
    /// `ray` is a recession direction of the feasible region along which the
    /// objective improves without bound (indexed like variable ids).
    Unbounded {
        /// Improving recession direction over the decision variables.
        ray: Vec<Rational>,
    },
    /// Finite optimum.
    Optimal {
        /// Optimal objective value.
        objective: Rational,
        /// Optimal assignment, indexed by [`VarId`] order of creation.
        assignment: Vec<Rational>,
    },
}

/// Outcome plus solver statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LpSolution {
    /// Solve outcome.
    pub outcome: LpOutcome,
    /// Number of simplex pivots performed (both phases).
    pub pivots: usize,
    /// Number of rows of the constraint matrix.
    pub rows: usize,
    /// Number of decision variables (columns) declared by the user.
    pub cols: usize,
    /// Farkas certificate of infeasibility: one multiplier `yᵢ` per user
    /// constraint, in order of addition and in the caller's orientation.
    /// Each `yᵢ` has the sign its relation allows in `Σ yᵢ·lhsᵢ ≥ Σ yᵢ·rhsᵢ`
    /// (`≥ 0` for `Ge`, `≤ 0` for `Le`, any for `Eq`); the combined
    /// left-hand side has a zero coefficient on every free variable and a
    /// non-positive one on every non-negative variable, while `Σ yᵢ·rhsᵢ > 0`.
    /// So every feasible `x` would give `0 ≥ Σ yᵢ·lhsᵢ(x) ≥ Σ yᵢ·rhsᵢ > 0`,
    /// and the rows with `yᵢ ≠ 0` (see [`LpSolution::farkas_support`]) are
    /// infeasible on their own.
    ///
    /// Present exactly when a from-scratch solve ends `Infeasible` in its
    /// first phase. `None` for optimal and unbounded outcomes, and for
    /// infeasibility found by the warm dual path of
    /// [`IncrementalLp`](crate::IncrementalLp).
    pub farkas: Option<Vec<Rational>>,
}

impl LpSolution {
    /// Convenience accessor: the optimal assignment if the LP was solved to
    /// optimality.
    pub fn assignment(&self) -> Option<&[Rational]> {
        match &self.outcome {
            LpOutcome::Optimal { assignment, .. } => Some(assignment),
            _ => None,
        }
    }

    /// Convenience accessor: the optimal objective value, if any.
    pub fn objective(&self) -> Option<&Rational> {
        match &self.outcome {
            LpOutcome::Optimal { objective, .. } => Some(objective),
            _ => None,
        }
    }

    /// Indices of the constraints the [`farkas`](LpSolution::farkas)
    /// certificate uses (non-zero multipliers), if there is a certificate.
    pub fn farkas_support(&self) -> Option<Vec<usize>> {
        let y = self.farkas.as_ref()?;
        Some((0..y.len()).filter(|&i| !y[i].is_zero()).collect())
    }
}

/// Bound type of a decision variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// `x >= 0`
    NonNegative,
    /// unrestricted in sign (internally split into `x⁺ - x⁻`)
    Free,
}

/// A linear program under construction.
///
/// Variables are non-negative by default (that is the natural domain of the
/// Farkas multipliers `γ` and indicator variables `δ` used by the paper);
/// [`LinearProgram::add_free_var`] declares a sign-unrestricted variable.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    pub(crate) names: Vec<String>,
    pub(crate) kinds: Vec<VarKind>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Vec<(VarId, Rational)>,
    pub(crate) direction: Direction,
}

impl Default for LinearProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl LinearProgram {
    /// Creates an empty LP (maximization of 0 by default).
    pub fn new() -> Self {
        LinearProgram {
            names: Vec::new(),
            kinds: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            direction: Direction::Maximize,
        }
    }

    /// Declares a non-negative decision variable.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.kinds.push(VarKind::NonNegative);
        VarId(self.names.len() - 1)
    }

    /// Declares a sign-unrestricted decision variable.
    pub fn add_free_var(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.kinds.push(VarKind::Free);
        VarId(self.names.len() - 1)
    }

    /// Number of declared decision variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Sets the objective to maximize.
    pub fn maximize(&mut self, objective: Vec<(VarId, Rational)>) {
        self.objective = objective;
        self.direction = Direction::Maximize;
    }

    /// Sets the objective to minimize.
    pub fn minimize(&mut self, objective: Vec<(VarId, Rational)>) {
        self.objective = objective;
        self.direction = Direction::Minimize;
    }

    /// Solves the program.
    pub fn solve(&self) -> LpSolution {
        self.solve_interruptible(&Interrupt::never())
            .expect("an unarmed interrupt never fires")
    }

    /// Solves the program, polling `interrupt` every few pivots. Returns
    /// `None` when the solve was interrupted (the partial tableau is
    /// discarded: an interrupted solve never produces an answer).
    pub fn solve_interruptible(&self, interrupt: &Interrupt) -> Option<LpSolution> {
        let (mut t, plus_col, minus_col) = Tableau::build(self);
        t.first_solve(self, &plus_col, &minus_col, interrupt).ok()
    }

    /// The name a variable was declared with; `x<index>` when that was
    /// empty.
    fn name(&self, v: VarId) -> String {
        match self.names[v.0].as_str() {
            "" => format!("x{}", v.0),
            name => name.to_string(),
        }
    }
}

impl fmt::Display for LinearProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.direction {
            Direction::Maximize => "maximize",
            Direction::Minimize => "minimize",
        };
        write!(f, "{dir} ")?;
        for (i, (v, c)) in self.objective.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}*{}", self.name(*v))?;
        }
        writeln!(f)?;
        for c in &self.constraints {
            write!(f, "  s.t. ")?;
            for (i, (v, k)) in c.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write!(f, "{k}*{}", self.name(*v))?;
            }
            let rel = match c.relation {
                Relation::Le => "<=",
                Relation::Ge => ">=",
                Relation::Eq => "==",
            };
            writeln!(f, " {rel} {}", c.rhs)?;
        }
        Ok(())
    }
}

/// Internal column classification in the tableau.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// positive part of user variable i
    Plus(usize),
    /// negative part of a free user variable i
    Minus(usize),
    /// slack / surplus
    Slack,
    /// phase-1 artificial
    Artificial,
}

/// One tableau row stored sparse: its non-zero entries as `(column,
/// coefficient)` pairs in increasing column order. A Farkas LP row touches a
/// handful of its thousands of columns, so the row costs its non-zeros, not
/// the tableau width; an absent column reads as zero.
#[derive(Clone, Debug, Default)]
pub(crate) struct SparseRow(Vec<(usize, Rational)>);

impl SparseRow {
    /// Builds a row from terms in any column order: sorts them, sums the
    /// coefficients of repeated columns and drops the zeros.
    ///
    /// The terms' own buffer becomes the row: a stable sort, then the sums
    /// are merged towards the front in place.
    pub(crate) fn from_terms(mut terms: Vec<(usize, Rational)>) -> Self {
        if !terms.is_sorted_by_key(|(j, _)| *j) {
            terms.sort_by_key(|(j, _)| *j);
        }
        // `terms[..merged]` holds one summed entry per column seen so far.
        let mut merged = 0;
        for next in 0..terms.len() {
            if merged > 0 && terms[merged - 1].0 == terms[next].0 {
                let k = std::mem::take(&mut terms[next].1);
                terms[merged - 1].1 += &k;
            } else {
                terms.swap(merged, next);
                merged += 1;
            }
        }
        terms.truncate(merged);
        terms.retain(|(_, k)| !k.is_zero());
        SparseRow(terms)
    }

    /// The coefficient in column `col`, `None` when it is zero.
    pub(crate) fn get(&self, col: usize) -> Option<&Rational> {
        self.0
            .binary_search_by_key(&col, |(j, _)| *j)
            .ok()
            .map(|at| &self.0[at].1)
    }

    /// Rewrites the row `s = Σ a_j·x_j` of a pivot on column `col` (entry
    /// `p`, non-zero) into the pivot's step: `−a_j/p` off `col`, and
    /// `1/p − 1` on it, dropped when zero. That is the row solved for
    /// `col`'s variable, whose entry in `col` now stands for `s`, minus the
    /// unit entry of `col`; [`add_unit`](Self::add_unit) turns it into the
    /// solved row.
    pub(crate) fn make_pivot_step(&mut self, col: usize) {
        let at = (self.0)
            .binary_search_by_key(&col, |(j, _)| *j)
            .expect("non-zero pivot");
        let inverse = self.0[at].1.recip();
        for (j, v) in &mut self.0 {
            *v = if *j == col {
                &inverse - &Rational::one()
            } else {
                -&(&*v * &inverse)
            };
        }
        if self.0[at].1.is_zero() {
            self.0.remove(at);
        }
    }

    /// Adds 1 to the coefficient in column `col`, which must not become
    /// zero.
    pub(crate) fn add_unit(&mut self, col: usize) {
        match self.0.binary_search_by_key(&col, |(j, _)| *j) {
            Ok(at) => self.0[at].1 += &Rational::one(),
            Err(at) => self.0.insert(at, (col, Rational::one())),
        }
        debug_assert!(self.get(col).is_some_and(|v| !v.is_zero()));
    }

    /// The non-zero entries in increasing column order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (usize, Rational)> {
        self.0.iter()
    }

    /// Appends a non-zero entry past every stored column.
    pub(crate) fn push(&mut self, col: usize, value: Rational) {
        debug_assert!(self.0.last().is_none_or(|(j, _)| *j < col));
        debug_assert!(!value.is_zero());
        self.0.push((col, value));
    }

    /// Multiplies every entry by `factor` (non-zero, so no entry vanishes).
    fn scale_in_place(&mut self, factor: &Rational) {
        if factor.is_one() {
            return;
        }
        for (_, v) in &mut self.0 {
            *v = &*v * factor;
        }
    }

    /// Negates every entry.
    pub(crate) fn negate(&mut self) {
        for (_, v) in &mut self.0 {
            *v = -std::mem::take(v);
        }
    }

    /// `self -= factor · other`, merged in place. A first pass counts the
    /// columns of `other` missing here (the fill-in) and grows the row by
    /// that many slots; a second pass merges from the back, so the entries
    /// before `other`'s first column never move and a row without fill-in
    /// is updated where it stands. A difference that reaches zero drops its
    /// entry.
    pub(crate) fn sub_scaled(&mut self, other: &SparseRow, factor: &Rational) {
        let mine = &mut self.0;
        let mut fill = 0;
        let mut k = 0;
        for (j, _) in &other.0 {
            while k < mine.len() && mine[k].0 < *j {
                k += 1;
            }
            if k == mine.len() || mine[k].0 != *j {
                fill += 1;
            }
        }
        // `mine[..read]` is still unmerged, `mine[write..]` is final, and
        // the slots in between are free.
        let mut read = mine.len();
        mine.resize_with(read + fill, || (0, Rational::zero()));
        let mut write = mine.len();
        for (j, b) in other.0.iter().rev() {
            while read > 0 && mine[read - 1].0 > *j {
                read -= 1;
                write -= 1;
                if read != write {
                    mine.swap(read, write);
                }
            }
            let product = b * factor;
            let value = if read > 0 && mine[read - 1].0 == *j {
                read -= 1;
                &mine[read].1 - &product
            } else {
                -product
            };
            if !value.is_zero() {
                write -= 1;
                mine[write] = (*j, value);
            }
        }
        if write > read {
            mine.drain(read..write);
        }
    }
}

/// The tableau terms of a linear form over user variables: each
/// coefficient on its variable's Plus column, negated on its Minus column
/// (free variables only), in the form's order. The buffer has room for the
/// slack and artificial entries the row builders append to it.
pub(crate) fn user_terms(
    terms: &[(VarId, Rational)],
    plus_col: &[usize],
    minus_col: &[Option<usize>],
) -> Vec<(usize, Rational)> {
    let mut out = Vec::with_capacity(2 * terms.len() + 2);
    for (v, k) in terms {
        out.push((plus_col[v.0], k.clone()));
        if let Some(mc) = minus_col[v.0] {
            out.push((mc, -k));
        }
    }
    out
}

/// `z -= factor · row` for a dense reduced-cost row `z`.
fn sub_scaled_dense(z: &mut QVector, row: &SparseRow, factor: &Rational) {
    for (j, b) in row.iter() {
        z[*j] -= &(b * factor);
    }
}

/// The simplex tableau in canonical form: every basic column is a unit
/// column. Rows are [`SparseRow`]s holding only the coefficient part; the
/// right-hand sides live in a parallel vector. Appending a column
/// (incremental variable growth) touches no row, and `Clone` — a
/// retraction point of an incremental session — copies the stored
/// non-zeros, never replays the pivots that produced them.
#[derive(Clone)]
pub(crate) struct Tableau {
    /// Coefficient rows over `ncols` columns, stored sparse.
    pub(crate) rows: Vec<SparseRow>,
    /// Right-hand side of each row.
    pub(crate) rhs: Vec<Rational>,
    /// basis[i] = column basic in row i
    pub(crate) basis: Vec<usize>,
    pub(crate) ncols: usize,
    pub(crate) col_kinds: Vec<ColKind>,
    /// Cumulative pivot count over the tableau's lifetime (a warm session
    /// spans several solves; per-solve counts are deltas of this).
    pub(crate) pivots: usize,
}

impl Tableau {
    /// Builds the initial tableau (artificial basis, nothing solved yet).
    /// Also returns the user-variable → column maps needed to state
    /// objectives and read assignments.
    pub(crate) fn build(lp: &LinearProgram) -> (Tableau, Vec<usize>, Vec<Option<usize>>) {
        let user_cols = lp.num_vars();

        // Column layout: for every user variable a Plus column, and for free
        // variables additionally a Minus column; then slacks; then artificials.
        let mut col_kinds: Vec<ColKind> = Vec::new();
        let mut plus_col = vec![0usize; user_cols];
        let mut minus_col: Vec<Option<usize>> = vec![None; user_cols];
        for (i, kind) in lp.kinds.iter().enumerate() {
            plus_col[i] = col_kinds.len();
            col_kinds.push(ColKind::Plus(i));
            if *kind == VarKind::Free {
                minus_col[i] = Some(col_kinds.len());
                col_kinds.push(ColKind::Minus(i));
            }
        }

        // One slack per inequality (+1 for <=, -1 for >=), in row order.
        let m = lp.constraints.len();
        let mut slack_of_row: Vec<Option<(usize, Rational)>> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let sign = match c.relation {
                Relation::Le => Rational::one(),
                Relation::Ge => -Rational::one(),
                Relation::Eq => {
                    slack_of_row.push(None);
                    continue;
                }
            };
            slack_of_row.push(Some((col_kinds.len(), sign)));
            col_kinds.push(ColKind::Slack);
        }
        // One artificial per row (some will be unnecessary but this keeps
        // the construction uniform; they are driven out in phase 1).
        let art_col_start = col_kinds.len();
        col_kinds.extend(std::iter::repeat_n(ColKind::Artificial, m));
        let ncols = col_kinds.len();

        let mut rows: Vec<SparseRow> = Vec::with_capacity(m);
        let mut rhs: Vec<Rational> = Vec::with_capacity(m);
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        for (i, (c, slack)) in lp.constraints.iter().zip(slack_of_row).enumerate() {
            let mut row = SparseRow::from_terms(user_terms(&c.terms, &plus_col, &minus_col));
            if let Some((sc, sign)) = slack {
                row.push(sc, sign);
            }
            let mut r = c.rhs.clone();
            // Normalise to non-negative rhs.
            if r.is_negative() {
                row.negate();
                r = -r;
            }
            // Artificial basic variable for this row.
            let ac = art_col_start + i;
            row.push(ac, Rational::one());
            basis.push(ac);
            rows.push(row);
            rhs.push(r);
        }

        let t = Tableau {
            rows,
            rhs,
            basis,
            ncols,
            col_kinds,
            pivots: 0,
        };
        (t, plus_col, minus_col)
    }

    /// Two-phase solve from the freshly built artificial basis.
    pub(crate) fn first_solve(
        &mut self,
        lp: &LinearProgram,
        plus_col: &[usize],
        minus_col: &[Option<usize>],
        interrupt: &Interrupt,
    ) -> Result<LpSolution, Interrupted> {
        let pivots_before = self.pivots;

        // ---- Phase 1: maximize -(sum of artificials) ----
        let mut phase1_obj = vec![Rational::zero(); self.ncols];
        for (j, k) in self.col_kinds.iter().enumerate() {
            if *k == ColKind::Artificial {
                phase1_obj[j] = -Rational::one();
            }
        }
        let (value1, _unb, z) = self.run_simplex(&phase1_obj, interrupt)?;
        if value1.is_negative() {
            return Ok(LpSolution {
                outcome: LpOutcome::Infeasible,
                pivots: self.pivots - pivots_before,
                rows: lp.num_constraints(),
                cols: lp.num_vars(),
                farkas: Some(self.farkas_certificate(lp, &z)),
            });
        }
        // Drive remaining artificials out of the basis (or drop redundant rows).
        self.purge_artificials();

        // ---- Phase 2 ----
        self.optimize(lp, plus_col, minus_col, interrupt, pivots_before)
    }

    /// Runs phase 2 (the real objective) from a primal-feasible basis and
    /// extracts the solution. Shared by the one-shot and warm-started paths.
    pub(crate) fn optimize(
        &mut self,
        lp: &LinearProgram,
        plus_col: &[usize],
        minus_col: &[Option<usize>],
        interrupt: &Interrupt,
        pivots_before: usize,
    ) -> Result<LpSolution, Interrupted> {
        let user_cols = lp.num_vars();
        let mut phase2_obj = vec![Rational::zero(); self.ncols];
        let sign = match lp.direction {
            Direction::Maximize => Rational::one(),
            Direction::Minimize => -Rational::one(),
        };
        for (v, k) in &lp.objective {
            let j = plus_col[v.0];
            phase2_obj[j] += &(k * &sign);
            if let Some(mc) = minus_col[v.0] {
                phase2_obj[mc] -= &(k * &sign);
            }
        }
        let (value2, unbounded_col, _) = self.run_simplex(&phase2_obj, interrupt)?;

        if let Some(col) = unbounded_col {
            // Build the improving ray over user variables.
            let mut ray = vec![Rational::zero(); user_cols];
            let mut col_dir: HashMap<usize, Rational> = HashMap::new();
            col_dir.insert(col, Rational::one());
            for (i, &b) in self.basis.iter().enumerate() {
                if let Some(a) = self.rows[i].get(col) {
                    col_dir.insert(b, -a);
                }
            }
            for (j, k) in self.col_kinds.iter().enumerate() {
                let Some(d) = col_dir.get(&j) else { continue };
                match k {
                    ColKind::Plus(i) => ray[*i] += d,
                    ColKind::Minus(i) => ray[*i] -= d,
                    _ => {}
                }
            }
            return Ok(LpSolution {
                outcome: LpOutcome::Unbounded { ray },
                pivots: self.pivots - pivots_before,
                rows: lp.num_constraints(),
                cols: user_cols,
                farkas: None,
            });
        }

        // Read the solution off the basis.
        let mut col_values = vec![Rational::zero(); self.ncols];
        for (i, &b) in self.basis.iter().enumerate() {
            col_values[b] = self.rhs[i].clone();
        }
        let mut assignment = vec![Rational::zero(); user_cols];
        for (j, k) in self.col_kinds.iter().enumerate() {
            match k {
                ColKind::Plus(i) => assignment[*i] += &col_values[j],
                ColKind::Minus(i) => assignment[*i] -= &col_values[j],
                _ => {}
            }
        }
        let objective = match lp.direction {
            Direction::Maximize => value2,
            Direction::Minimize => -value2,
        };
        Ok(LpSolution {
            outcome: LpOutcome::Optimal {
                objective,
                assignment,
            },
            pivots: self.pivots - pivots_before,
            rows: lp.num_constraints(),
            cols: user_cols,
            farkas: None,
        })
    }

    /// Reads the Farkas certificate off the final reduced-cost row `z` of a
    /// phase-1 optimum with a negative value (see [`LpSolution::farkas`]).
    ///
    /// Phase 1 maximises `c·w` with `c = −1` on the artificials and 0
    /// elsewhere, subject to the rhs-normalised rows `M·w = b'`. Its duals
    /// are `y = c_B·B⁻¹`, and a column's reduced cost is `z_j = c_j − y·M_j`.
    /// Optimality makes every `z_j ≤ 0`, hence `y·M_j ≥ 0` on each
    /// structural and slack column, while `y·b' = value < 0`. Artificial `k`
    /// is the unit column `e_k` with cost −1, so `y_k = −1 − z[art_k]`: the
    /// duals are one pass over the artificial columns of `z`. Undoing the
    /// rhs normalisation (sign `σ_k`) and negating gives the caller-
    /// orientation multipliers `−σ_k·y_k = σ_k·(1 + z[art_k])`.
    fn farkas_certificate(&self, lp: &LinearProgram, z: &QVector) -> Vec<Rational> {
        let art_start = self.ncols - lp.num_constraints();
        lp.constraints
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let minus_y = &z[art_start + k] + &Rational::one();
                if c.rhs.is_negative() {
                    -minus_y
                } else {
                    minus_y
                }
            })
            .collect()
    }

    /// Runs the simplex method maximizing `obj` (given over original columns).
    /// Returns the optimal value, the entering column that witnessed
    /// unboundedness if any, and the final reduced-cost row.
    fn run_simplex(
        &mut self,
        obj: &[Rational],
        interrupt: &Interrupt,
    ) -> Result<(Rational, Option<usize>, QVector), Interrupted> {
        // Reduced cost row: start from obj and eliminate basic columns.
        let ncols = self.ncols;
        let mut z = QVector::from_vec(obj.to_vec());
        let mut z_rhs = Rational::zero();
        for (i, &b) in self.basis.iter().enumerate() {
            let factor = z[b].clone();
            if factor.is_zero() {
                continue;
            }
            sub_scaled_dense(&mut z, &self.rows[i], &factor);
            z_rhs -= &(&self.rhs[i] * &factor);
        }
        loop {
            if self.pivots.is_multiple_of(INTERRUPT_POLL_PERIOD) && interrupt.is_raised() {
                return Err(Interrupted);
            }
            // Bland's rule: smallest-index column with positive reduced cost.
            let entering = (0..ncols).find(|&j| z[j].is_positive());
            let Some(col) = entering else {
                // optimum: objective value = -z_rhs
                return Ok((-z_rhs, None, z));
            };
            // Ratio test.
            let mut best: Option<(Rational, usize, usize)> = None; // (ratio, basic var, row)
            for (i, row) in self.rows.iter().enumerate() {
                let Some(a) = row.get(col) else { continue };
                if a.is_positive() {
                    let ratio = &self.rhs[i] / a;
                    let candidate = (ratio, self.basis[i], i);
                    best = match best {
                        None => Some(candidate),
                        Some(cur) => {
                            if candidate.0 < cur.0 || (candidate.0 == cur.0 && candidate.1 < cur.1)
                            {
                                Some(candidate)
                            } else {
                                Some(cur)
                            }
                        }
                    };
                }
            }
            let Some((_, _, pivot_row)) = best else {
                return Ok((Rational::zero(), Some(col), z));
            };
            self.pivot(pivot_row, col, &mut z, &mut z_rhs);
        }
    }

    /// Restores primal feasibility after rows with negative basic values were
    /// appended (the warm-started re-optimization step): dual-simplex pivots
    /// with a zero cost row, which every pivot trivially keeps dual-feasible,
    /// with least-index (Bland-style) tie-breaking. Returns `false` when some
    /// row is infeasible with no eligible pivot (the LP is infeasible).
    ///
    /// `max_pivots` bounds the work; exceeding it reports
    /// [`FeasibilityOutcome::GaveUp`] so the caller can rebuild from scratch
    /// (a belt-and-braces guard — least-index pivoting does not cycle).
    pub(crate) fn restore_feasibility(
        &mut self,
        interrupt: &Interrupt,
        max_pivots: usize,
    ) -> Result<FeasibilityOutcome, Interrupted> {
        let start = self.pivots;
        let mut zero_z = QVector::zeros(self.ncols);
        let mut zero_rhs = Rational::zero();
        loop {
            if self.pivots.is_multiple_of(INTERRUPT_POLL_PERIOD) && interrupt.is_raised() {
                return Err(Interrupted);
            }
            if self.pivots - start > max_pivots {
                return Ok(FeasibilityOutcome::GaveUp);
            }
            // Leaving row: smallest basic-variable index among infeasible rows.
            let leaving = self
                .rhs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_negative())
                .map(|(i, _)| (self.basis[i], i))
                .min();
            let Some((_, row)) = leaving else {
                return Ok(FeasibilityOutcome::Feasible);
            };
            // Entering column: smallest index with a negative coefficient in
            // the leaving row (zero cost row makes every such ratio equal).
            let entering = self.rows[row].iter().find(|(_, a)| a.is_negative());
            let Some(&(col, _)) = entering else {
                return Ok(FeasibilityOutcome::Infeasible);
            };
            self.pivot(row, col, &mut zero_z, &mut zero_rhs);
        }
    }

    /// One pivot: normalise row `r` so column `c` becomes 1, then merge the
    /// scaled pivot row into every row with a non-zero in column `c` and
    /// into the dense reduced-cost row. Rows without an entry in `c` are
    /// not touched.
    pub(crate) fn pivot(&mut self, r: usize, c: usize, z: &mut QVector, z_rhs: &mut Rational) {
        self.pivots += 1;
        let inv = self.rows[r]
            .get(c)
            .expect("pivot entry is non-zero")
            .recip();
        let mut prow = std::mem::take(&mut self.rows[r]);
        let mut prhs = std::mem::take(&mut self.rhs[r]);
        prow.scale_in_place(&inv);
        prhs = &prhs * &inv;
        // The taken-out pivot row is empty, so it is skipped like any row
        // without an entry in column `c`.
        for (row, rhs) in self.rows.iter_mut().zip(self.rhs.iter_mut()) {
            let Some(factor) = row.get(c).cloned() else {
                continue;
            };
            row.sub_scaled(&prow, &factor);
            *rhs -= &(&prhs * &factor);
        }
        let zf = z[c].clone();
        if !zf.is_zero() {
            sub_scaled_dense(z, &prow, &zf);
            *z_rhs -= &(&prhs * &zf);
        }
        self.rows[r] = prow;
        self.rhs[r] = prhs;
        self.basis[r] = c;
    }

    /// After phase 1, pivot artificial variables out of the basis where
    /// possible and drop rows that became identically zero.
    fn purge_artificials(&mut self) {
        let ncols = self.ncols;
        let mut dummy = QVector::zeros(ncols);
        let mut dummy_rhs = Rational::zero();
        let mut i = 0;
        while i < self.rows.len() {
            if self.col_kinds[self.basis[i]] == ColKind::Artificial {
                // Try to pivot on any non-artificial column with a non-zero entry.
                let cand = self.rows[i]
                    .iter()
                    .find(|(j, _)| self.col_kinds[*j] != ColKind::Artificial);
                match cand {
                    Some(&(c, _)) => {
                        self.pivot(i, c, &mut dummy, &mut dummy_rhs);
                        i += 1;
                    }
                    None => {
                        // Redundant row (all structural coefficients zero).
                        self.rows.remove(i);
                        self.rhs.remove(i);
                        self.basis.remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
        // Forbid artificial columns from ever entering again by zeroing them.
        let col_kinds = &self.col_kinds;
        for row in &mut self.rows {
            row.0.retain(|(j, _)| col_kinds[*j] != ColKind::Artificial);
        }
    }
}

/// Result of [`Tableau::restore_feasibility`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FeasibilityOutcome {
    /// All right-hand sides are non-negative again.
    Feasible,
    /// Some row cannot be made feasible: the LP is infeasible.
    Infeasible,
    /// Pivot budget exhausted; rebuild from scratch.
    GaveUp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn simple_maximization() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 => (4,0), obj 12
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(1))],
            Relation::Le,
            q(4),
        ));
        lp.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(3))],
            Relation::Le,
            q(6),
        ));
        lp.maximize(vec![(x, q(3)), (y, q(2))]);
        let sol = lp.solve();
        assert_eq!(sol.objective(), Some(&q(12)));
        assert_eq!(sol.assignment().unwrap()[0], q(4));
        assert_eq!(sol.assignment().unwrap()[1], q(0));
    }

    #[test]
    fn fractional_optimum() {
        // maximize x + y s.t. x + 2y <= 4, 3x + y <= 6 => x=8/5, y=6/5, obj 14/5
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(2))],
            Relation::Le,
            q(4),
        ));
        lp.add_constraint(Constraint::new(
            vec![(x, q(3)), (y, q(1))],
            Relation::Le,
            q(6),
        ));
        lp.maximize(vec![(x, q(1)), (y, q(1))]);
        let sol = lp.solve();
        assert_eq!(sol.objective(), Some(&Rational::from_ints(14, 5)));
    }

    #[test]
    fn infeasible_system() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(1)));
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Ge, q(2)));
        lp.maximize(vec![(x, q(1))]);
        assert_eq!(lp.solve().outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_program() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(-1))],
            Relation::Le,
            q(1),
        ));
        lp.maximize(vec![(x, q(1))]);
        match lp.solve().outcome {
            LpOutcome::Unbounded { ray } => {
                // Along the ray the objective strictly increases and the
                // constraint x - y <= 1 keeps holding.
                assert!(ray[0].is_positive());
                assert!(&ray[0] - &ray[1] <= Rational::zero());
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // maximize x s.t. x + y == 3, y >= 1 => x = 2
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(Constraint::new(
            vec![(x, q(1)), (y, q(1))],
            Relation::Eq,
            q(3),
        ));
        lp.add_constraint(Constraint::new(vec![(y, q(1))], Relation::Ge, q(1)));
        lp.maximize(vec![(x, q(1))]);
        let sol = lp.solve();
        assert_eq!(sol.objective(), Some(&q(2)));
    }

    #[test]
    fn free_variables_and_minimization() {
        // minimize x s.t. x >= -5 with x free => -5
        let mut lp = LinearProgram::new();
        let x = lp.add_free_var("x");
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Ge, q(-5)));
        lp.minimize(vec![(x, q(1))]);
        let sol = lp.solve();
        assert_eq!(sol.objective(), Some(&q(-5)));
        assert_eq!(sol.assignment().unwrap()[0], q(-5));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate instance; Bland's rule must terminate.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var("x1");
        let x2 = lp.add_var("x2");
        let x3 = lp.add_var("x3");
        let x4 = lp.add_var("x4");
        lp.add_constraint(Constraint::new(
            vec![
                (x1, Rational::from_ints(1, 4)),
                (x2, q(-8)),
                (x3, q(-1)),
                (x4, q(9)),
            ],
            Relation::Le,
            q(0),
        ));
        lp.add_constraint(Constraint::new(
            vec![
                (x1, Rational::from_ints(1, 2)),
                (x2, q(-12)),
                (x3, Rational::from_ints(-1, 2)),
                (x4, q(3)),
            ],
            Relation::Le,
            q(0),
        ));
        lp.add_constraint(Constraint::new(vec![(x3, q(1))], Relation::Le, q(1)));
        lp.maximize(vec![
            (x1, Rational::from_ints(3, 4)),
            (x2, q(-20)),
            (x3, Rational::from_ints(1, 2)),
            (x4, q(-6)),
        ]);
        let sol = lp.solve();
        assert_eq!(sol.objective(), Some(&Rational::from_ints(5, 4)));
    }

    #[test]
    fn raised_interrupt_stops_the_solve() {
        let mut lp = LinearProgram::new();
        let vars: Vec<VarId> = (0..6).map(|i| lp.add_var(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(Constraint::new(vec![(v, q(1))], Relation::Le, q(i as i64)));
        }
        lp.maximize(vars.iter().map(|&v| (v, q(1))).collect());
        // Already-raised interrupt: polled before the first pivot.
        assert!(lp.solve_interruptible(&Interrupt::new(|| true)).is_none());
        // Unarmed interrupt: solves normally.
        let sol = lp.solve_interruptible(&Interrupt::never()).unwrap();
        assert_eq!(sol.objective(), Some(&q(15)));
    }

    #[test]
    fn interrupt_polls_the_closure() {
        let polls = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = polls.clone();
        let interrupt = Interrupt::new(move || {
            seen.fetch_add(1, Ordering::Relaxed);
            false
        });
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(7)));
        lp.maximize(vec![(x, q(1))]);
        let sol = lp.solve_interruptible(&interrupt).unwrap();
        assert_eq!(sol.objective(), Some(&q(7)));
        assert!(polls.load(Ordering::Relaxed) > 0, "closure must be polled");
    }

    #[test]
    fn infeasible_system_carries_its_certificate() {
        // x <= 1 and x >= 2: -1·(x <= 1) + 1·(x >= 2) reads 0 >= 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x");
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Le, q(1)));
        lp.add_constraint(Constraint::new(vec![(x, q(1))], Relation::Ge, q(2)));
        let sol = lp.solve();
        assert_eq!(sol.outcome, LpOutcome::Infeasible);
        assert_eq!(sol.farkas, Some(vec![q(-1), q(1)]));
        assert_eq!(sol.farkas_support(), Some(vec![0, 1]));
    }

    /// A random small LP: each variable free or non-negative, each row
    /// `(coefficients, relation, rhs)` with relation 0 = `Le`, 1 = `Ge`,
    /// 2 = `Eq`.
    type RandomLp = (Vec<bool>, Vec<(Vec<i64>, u8, i64)>);

    fn random_lp() -> impl Strategy<Value = RandomLp> {
        (
            prop::collection::vec(any::<bool>(), 3),
            prop::collection::vec(
                (prop::collection::vec(-3i64..=3, 3), 0u8..3, -6i64..=6),
                1..7,
            ),
        )
    }

    fn relation_of(code: u8) -> Relation {
        match code {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        }
    }

    fn build_random(free: &[bool], rows: &[(Vec<i64>, u8, i64)], keep: &[usize]) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let vars: Vec<VarId> = free
            .iter()
            .enumerate()
            .map(|(j, &f)| {
                if f {
                    lp.add_free_var(format!("x{j}"))
                } else {
                    lp.add_var(format!("x{j}"))
                }
            })
            .collect();
        for &i in keep {
            let (coeffs, rel, rhs) = &rows[i];
            let terms = coeffs
                .iter()
                .enumerate()
                .map(|(j, &c)| (vars[j], q(c)))
                .collect();
            lp.add_constraint(Constraint::new(terms, relation_of(*rel), q(*rhs)));
        }
        lp.maximize(vec![(vars[0], q(1))]);
        lp
    }

    /// Checks the certificate of one random LP exactly; returns whether the
    /// LP was infeasible.
    fn certificate_is_exact((free, rows): &RandomLp) -> bool {
        let all: Vec<usize> = (0..rows.len()).collect();
        let sol = build_random(free, rows, &all).solve();
        if sol.outcome != LpOutcome::Infeasible {
            assert_eq!(
                sol.farkas, None,
                "only infeasible solves carry a certificate"
            );
            return false;
        }
        let y = sol
            .farkas
            .clone()
            .expect("an infeasible cold solve has a certificate");
        assert_eq!(y.len(), rows.len());
        // Sign per relation: Σ yᵢ·lhsᵢ ≥ Σ yᵢ·rhsᵢ holds on every feasible x.
        for (yi, (_, rel, _)) in y.iter().zip(rows) {
            match relation_of(*rel) {
                Relation::Ge => assert!(!yi.is_negative(), "Ge multiplier {yi} < 0"),
                Relation::Le => assert!(!yi.is_positive(), "Le multiplier {yi} > 0"),
                Relation::Eq => {}
            }
        }
        // The combination is `g·x ≥ c` with g ≤ 0 on x ≥ 0, g = 0 on free x,
        // and c > 0: a contradiction `0 ≥ g·x ≥ c > 0`.
        for (j, &is_free) in free.iter().enumerate() {
            let g: Rational = y
                .iter()
                .zip(rows)
                .map(|(yi, (a, _, _))| yi * &q(a[j]))
                .sum();
            if is_free {
                assert!(g.is_zero(), "free column {j} combines to {g}");
            } else {
                assert!(!g.is_positive(), "non-negative column {j} combines to {g}");
            }
        }
        let c: Rational = y.iter().zip(rows).map(|(yi, (_, _, b))| yi * &q(*b)).sum();
        assert!(c.is_positive(), "certificate combines to 0 >= {c}");
        // The support alone is already infeasible.
        let support = sol.farkas_support().expect("certificate present");
        assert_eq!(
            build_random(free, rows, &support).solve().outcome,
            LpOutcome::Infeasible
        );
        true
    }

    /// A phase-1 infeasibility proof comes with an exact Farkas certificate
    /// whose support is infeasible alone; optimal and unbounded outcomes
    /// carry none. Driven by the proptest shim's generator directly, so the
    /// test can also check that enough cases are infeasible to mean anything.
    #[test]
    fn prop_farkas_certificate_is_exact() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let infeasible = (0..proptest::test_runner::cases())
            .filter(|_| certificate_is_exact(&random_lp().generate(&mut rng)))
            .count();
        let cases = proptest::test_runner::cases();
        assert!(
            infeasible >= cases / 4,
            "only {infeasible} of {cases} cases are infeasible"
        );
    }

    proptest! {
        /// Solutions returned by the solver must satisfy every constraint, and
        /// the reported objective must match the assignment.
        #[test]
        fn prop_solution_feasible(
            coeffs in prop::collection::vec(prop::collection::vec(-5i64..=5, 3), 1..5),
            rhs in prop::collection::vec(0i64..=20, 5),
            obj in prop::collection::vec(-3i64..=3, 3),
        ) {
            let mut lp = LinearProgram::new();
            let vars: Vec<VarId> = (0..3).map(|i| lp.add_var(format!("x{i}"))).collect();
            for (i, row) in coeffs.iter().enumerate() {
                let terms = row.iter().enumerate().map(|(j, &c)| (vars[j], q(c))).collect();
                lp.add_constraint(Constraint::new(terms, Relation::Le, q(rhs[i])));
            }
            lp.maximize(obj.iter().enumerate().map(|(j, &c)| (vars[j], q(c))).collect());
            let sol = lp.solve();
            match sol.outcome {
                LpOutcome::Infeasible => {
                    // rhs >= 0 and x = 0 is always feasible for <= constraints: impossible.
                    prop_assert!(false, "origin is feasible, solver said infeasible");
                }
                LpOutcome::Unbounded { .. } => {}
                LpOutcome::Optimal { objective, assignment } => {
                    for (i, row) in coeffs.iter().enumerate() {
                        let lhs: Rational = row.iter().enumerate()
                            .map(|(j, &c)| &q(c) * &assignment[j])
                            .sum();
                        prop_assert!(lhs <= q(rhs[i]));
                    }
                    let recomputed: Rational = obj.iter().enumerate()
                        .map(|(j, &c)| &q(c) * &assignment[j])
                        .sum();
                    prop_assert_eq!(recomputed, objective);
                    for v in &assignment {
                        prop_assert!(!v.is_negative());
                    }
                }
            }
        }
    }
}
