//! The sparse tableau must make exactly the choices of the dense tableau
//! it replaced: same pivots, same optima, rays and Farkas certificates.
//! The dense [`DenseTableau`] and a dense mirror of [`IncrementalLp`]'s warm
//! path are kept here as references; the tests run random cold LPs and
//! random incremental sessions through both and compare whole
//! [`LpSolution`]s.

use crate::simplex::{
    ColKind, Direction, FeasibilityOutcome, Interrupt, Interrupted, LinearProgram, LpOutcome,
    LpSolution, Relation, VarKind, INTERRUPT_POLL_PERIOD,
};
use crate::{Constraint, IncrementalLp, VarId};
use proptest::prelude::*;
use std::collections::HashMap;
use termite_linalg::QVector;
use termite_num::Rational;

/// The tableau as it was stored before rows went sparse: every row a dense
/// vector of `ncols` entries. The algorithm is the sparse one's, operation
/// for operation.
#[derive(Clone)]
pub(crate) struct DenseTableau {
    /// Coefficient rows, `ncols` entries each.
    pub(crate) rows: Vec<QVector>,
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

impl DenseTableau {
    /// Builds the initial tableau (artificial basis, nothing solved yet).
    /// Also returns the user-variable → column maps needed to state
    /// objectives and read assignments.
    pub(crate) fn build(lp: &LinearProgram) -> (DenseTableau, Vec<usize>, Vec<Option<usize>>) {
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

        let m = lp.constraints.len();
        let struct_cols = col_kinds.len();

        // Dense rows over structural columns, all turned into equalities with
        // non-negative rhs; remember which need a slack and with which sign.
        struct RowBuild {
            coeffs: Vec<Rational>,
            rhs: Rational,
            slack_sign: Option<Rational>, // +1 for <=, -1 for >=
        }
        let mut builds: Vec<RowBuild> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let mut coeffs = vec![Rational::zero(); struct_cols];
            for (v, k) in &c.terms {
                coeffs[plus_col[v.0]] += k;
                if let Some(mc) = minus_col[v.0] {
                    coeffs[mc] -= k;
                }
            }
            let slack_sign = match c.relation {
                Relation::Le => Some(Rational::one()),
                Relation::Ge => Some(-Rational::one()),
                Relation::Eq => None,
            };
            builds.push(RowBuild {
                coeffs,
                rhs: c.rhs.clone(),
                slack_sign,
            });
        }

        // Allocate slack columns.
        let mut slack_col_of_row: Vec<Option<usize>> = vec![None; m];
        for (i, b) in builds.iter().enumerate() {
            if b.slack_sign.is_some() {
                slack_col_of_row[i] = Some(col_kinds.len());
                col_kinds.push(ColKind::Slack);
            }
        }
        // Allocate one artificial per row (some will be unnecessary but this
        // keeps the construction uniform; they are driven out in phase 1).
        let art_col_start = col_kinds.len();
        for _ in 0..m {
            col_kinds.push(ColKind::Artificial);
        }
        let ncols = col_kinds.len();

        let mut rows: Vec<QVector> = Vec::with_capacity(m);
        let mut rhs: Vec<Rational> = Vec::with_capacity(m);
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        for (i, b) in builds.iter().enumerate() {
            let mut row = vec![Rational::zero(); ncols];
            for (j, v) in b.coeffs.iter().enumerate() {
                row[j] = v.clone();
            }
            if let (Some(sc), Some(sign)) = (slack_col_of_row[i], b.slack_sign.clone()) {
                row[sc] = sign;
            }
            let mut r = b.rhs.clone();
            // Normalise to non-negative rhs.
            if r.is_negative() {
                for v in row.iter_mut() {
                    *v = -std::mem::replace(v, Rational::zero());
                }
                r = -r;
            }
            // Artificial basic variable for this row.
            let ac = art_col_start + i;
            row[ac] = Rational::one();
            basis.push(ac);
            rows.push(QVector::from_vec(row));
            rhs.push(r);
        }

        let t = DenseTableau {
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
                let delta = -&self.rows[i][col];
                if !delta.is_zero() {
                    col_dir.insert(b, delta);
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
            z.sub_scaled_in_place(&self.rows[i], &factor);
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
                if row[col].is_positive() {
                    let ratio = &self.rhs[i] / &row[col];
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
            let entering = (0..self.ncols).find(|&j| self.rows[row][j].is_negative());
            let Some(col) = entering else {
                return Ok(FeasibilityOutcome::Infeasible);
            };
            self.pivot(row, col, &mut zero_z, &mut zero_rhs);
        }
    }

    /// One pivot: normalise row `r` so column `c` becomes 1, eliminate `c`
    /// from every other row and from the reduced-cost row — all in place, no
    /// row allocation.
    pub(crate) fn pivot(&mut self, r: usize, c: usize, z: &mut QVector, z_rhs: &mut Rational) {
        self.pivots += 1;
        let inv = self.rows[r][c].recip();
        let mut prow = std::mem::take(&mut self.rows[r]);
        let mut prhs = std::mem::take(&mut self.rhs[r]);
        prow.scale_in_place(&inv);
        prhs = &prhs * &inv;
        for (row, rhs) in self.rows.iter_mut().zip(self.rhs.iter_mut()) {
            if row.dim() == 0 {
                continue; // the taken-out pivot row itself
            }
            let factor = row[c].clone();
            if factor.is_zero() {
                continue;
            }
            row.sub_scaled_in_place(&prow, &factor);
            *rhs -= &(&prhs * &factor);
        }
        let zf = z[c].clone();
        if !zf.is_zero() {
            z.sub_scaled_in_place(&prow, &zf);
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
                let cand = (0..ncols).find(|&j| {
                    self.col_kinds[j] != ColKind::Artificial && !self.rows[i][j].is_zero()
                });
                match cand {
                    Some(c) => {
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
        for row in &mut self.rows {
            for (j, k) in self.col_kinds.iter().enumerate() {
                if *k == ColKind::Artificial && !row[j].is_zero() {
                    row[j] = Rational::zero();
                }
            }
        }
    }
}

/// The dense mirror of [`IncrementalLp`]: the same program, cold solves on
/// a [`DenseTableau`], and the warm path with dense column growth and a
/// full-basis elimination of every new row. A retraction point is a clone.
#[derive(Clone)]
struct DenseSession {
    lp: LinearProgram,
    warm: Option<DenseWarm>,
}

#[derive(Clone)]
struct DenseWarm {
    t: DenseTableau,
    plus_col: Vec<usize>,
    minus_col: Vec<Option<usize>>,
    synced_vars: usize,
    synced_constraints: usize,
}

impl DenseSession {
    fn new() -> Self {
        DenseSession {
            lp: LinearProgram::new(),
            warm: None,
        }
    }

    fn add_constraint(&mut self, c: Constraint) {
        if c.relation == Relation::Eq {
            self.warm = None;
        }
        self.lp.add_constraint(c);
    }

    fn solve(&mut self) -> LpSolution {
        if let Some(mut warm) = self.warm.take() {
            let solution = self.solve_warm(&mut warm);
            if !matches!(solution.outcome, LpOutcome::Infeasible) {
                self.warm = Some(warm);
            }
            return solution;
        }
        let (mut t, plus_col, minus_col) = DenseTableau::build(&self.lp);
        let solution = t
            .first_solve(&self.lp, &plus_col, &minus_col, &Interrupt::never())
            .expect("never interrupted");
        if !matches!(solution.outcome, LpOutcome::Infeasible) {
            self.warm = Some(DenseWarm {
                t,
                plus_col,
                minus_col,
                synced_vars: self.lp.num_vars(),
                synced_constraints: self.lp.num_constraints(),
            });
        }
        solution
    }

    fn solve_warm(&self, w: &mut DenseWarm) -> LpSolution {
        let pivots_before = w.t.pivots;
        for v in w.synced_vars..self.lp.num_vars() {
            w.plus_col.push(w.t.ncols);
            push_dense_column(&mut w.t, ColKind::Plus(v));
            if self.lp.kinds[v] == VarKind::Free {
                w.minus_col.push(Some(w.t.ncols));
                push_dense_column(&mut w.t, ColKind::Minus(v));
            } else {
                w.minus_col.push(None);
            }
        }
        w.synced_vars = self.lp.num_vars();
        for c in &self.lp.constraints[w.synced_constraints..] {
            let slack = w.t.ncols;
            push_dense_column(&mut w.t, ColKind::Slack);
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
            let mut row = QVector::from_vec(row);
            let mut rhs = if flip { -&c.rhs } else { c.rhs.clone() };
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
        w.synced_constraints = self.lp.num_constraints();
        let restored =
            w.t.restore_feasibility(&Interrupt::never(), usize::MAX)
                .expect("never interrupted");
        if restored == FeasibilityOutcome::Infeasible {
            return LpSolution {
                outcome: LpOutcome::Infeasible,
                pivots: w.t.pivots - pivots_before,
                rows: self.lp.num_constraints(),
                cols: self.lp.num_vars(),
                farkas: None,
            };
        }
        w.t.optimize(
            &self.lp,
            &w.plus_col,
            &w.minus_col,
            &Interrupt::never(),
            pivots_before,
        )
        .expect("never interrupted")
    }
}

/// Appends one all-zero column to every dense row.
fn push_dense_column(t: &mut DenseTableau, kind: ColKind) {
    t.col_kinds.push(kind);
    t.ncols += 1;
    for row in &mut t.rows {
        row.push(Rational::zero());
    }
}

fn q(n: i64) -> Rational {
    Rational::from(n)
}

fn relation_of(code: u8) -> Relation {
    match code {
        0 => Relation::Le,
        1 => Relation::Ge,
        _ => Relation::Eq,
    }
}

/// Terms over the first `n` variables, zero coefficients left out.
fn terms_of(coeffs: &[i64], n: usize) -> Vec<(VarId, Rational)> {
    coeffs
        .iter()
        .take(n)
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(j, &c)| (VarId(j), q(c)))
        .collect()
}

/// A random LP: each variable free or non-negative, each row
/// `(coefficients, relation code, rhs)`, and an objective with its
/// direction.
type RandomLp = (Vec<bool>, Vec<(Vec<i64>, u8, i64)>, Vec<i64>, bool);

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (
        prop::collection::vec(any::<bool>(), 1..6),
        prop::collection::vec(
            (prop::collection::vec(-3i64..=3, 5), 0u8..3, -6i64..=6),
            1..9,
        ),
        prop::collection::vec(-2i64..=2, 5),
        any::<bool>(),
    )
}

fn build_lp((free, rows, objective, maximize): &RandomLp) -> LinearProgram {
    let mut lp = LinearProgram::new();
    for (j, &f) in free.iter().enumerate() {
        if f {
            lp.add_free_var(format!("x{j}"));
        } else {
            lp.add_var(format!("x{j}"));
        }
    }
    let n = free.len();
    for (coeffs, rel, rhs) in rows {
        lp.add_constraint(Constraint::new(
            terms_of(coeffs, n),
            relation_of(*rel),
            q(*rhs),
        ));
    }
    if *maximize {
        lp.maximize(terms_of(objective, n));
    } else {
        lp.minimize(terms_of(objective, n));
    }
    lp
}

fn dense_solve(lp: &LinearProgram) -> LpSolution {
    let (mut t, plus_col, minus_col) = DenseTableau::build(lp);
    t.first_solve(lp, &plus_col, &minus_col, &Interrupt::never())
        .expect("never interrupted")
}

/// Cold solves: the sparse tableau's whole [`LpSolution`] — outcome,
/// assignment or ray, pivot count and Farkas certificate — equals the
/// dense tableau's on random LPs with free and non-negative variables and
/// all three relations. Every outcome kind must occur.
#[test]
fn prop_cold_solves_match_the_dense_tableau() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let mut kinds = [0usize; 3];
    for _ in 0..proptest::test_runner::cases() {
        let lp = build_lp(&random_lp().generate(&mut rng));
        let sparse = lp.solve();
        assert_eq!(sparse, dense_solve(&lp), "on\n{lp}");
        kinds[match sparse.outcome {
            LpOutcome::Infeasible => 0,
            LpOutcome::Unbounded { .. } => 1,
            LpOutcome::Optimal { .. } => 2,
        }] += 1;
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "outcome kinds (infeasible, unbounded, optimal) = {kinds:?}"
    );
}

/// One step of a random incremental session: `((op, coefficients),
/// (relation code, rhs, flag))`. Ops: 0 adds a variable (free when `flag`), 1–3 add a
/// `Le`, `Ge` or coded-relation row, 4 sets the objective (maximise when
/// `flag`) and solves, 5 clones the session (a retraction point), 6 assigns
/// the last clone back and solves.
type SessionStep = ((u8, Vec<i64>), (u8, i64, bool));

fn random_session() -> impl Strategy<Value = Vec<SessionStep>> {
    prop::collection::vec(
        (
            (0u8..7, prop::collection::vec(-3i64..=3, 8)),
            (0u8..3, -6i64..=6, any::<bool>()),
        ),
        4..40,
    )
}

/// Runs one session through [`IncrementalLp`] and the dense mirror,
/// comparing every solve; returns the number of warm solves. They are
/// counted solve by solve: assigning a clone back rolls back its counters.
fn run_session(steps: &[SessionStep]) -> usize {
    let mut inc = IncrementalLp::new();
    let mut dense = DenseSession::new();
    for _ in 0..2 {
        inc.add_var("x");
        dense.lp.add_var("x");
    }
    let mut retraction = None;
    let mut warm = 0;
    let mut solve = |inc: &mut IncrementalLp, dense: &mut DenseSession| {
        let warm_before = inc.warm_solves();
        let sparse = inc.solve().expect("never interrupted");
        warm += inc.warm_solves() - warm_before;
        assert_eq!(sparse, dense.solve(), "on\n{}", dense.lp);
    };
    for ((op, coeffs), (rel, rhs, flag)) in steps {
        let n = inc.num_vars();
        match op {
            0 if *flag => {
                inc.add_free_var("x");
                dense.lp.add_free_var("x");
            }
            0 => {
                inc.add_var("x");
                dense.lp.add_var("x");
            }
            1..=3 => {
                let relation = match op {
                    1 => Relation::Le,
                    2 => Relation::Ge,
                    _ => relation_of(*rel),
                };
                let c = Constraint::new(terms_of(coeffs, n), relation, q(*rhs));
                inc.add_constraint(c.clone());
                dense.add_constraint(c);
            }
            4 => {
                let objective = terms_of(coeffs, n);
                if *flag {
                    inc.maximize(objective.clone());
                    dense.lp.maximize(objective);
                } else {
                    inc.minimize(objective.clone());
                    dense.lp.minimize(objective);
                }
                solve(&mut inc, &mut dense);
            }
            5 => retraction = Some((inc.clone(), dense.clone())),
            _ => {
                if let Some((inc_clone, dense_clone)) = &retraction {
                    inc = inc_clone.clone();
                    dense = dense_clone.clone();
                    solve(&mut inc, &mut dense);
                }
            }
        }
    }
    solve(&mut inc, &mut dense);
    warm
}

/// Incremental sessions: adding variables and rows, solving, cloning and
/// assigning a clone back give, solve for solve, the dense mirror's whole
/// [`LpSolution`]. Most solves must be warm, or the test would not reach
/// the sparse warm path.
#[test]
fn prop_incremental_sessions_match_the_dense_tableau() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let warm: usize = (0..proptest::test_runner::cases())
        .map(|_| run_session(&random_session().generate(&mut rng)))
        .sum();
    assert!(
        warm >= 2 * proptest::test_runner::cases(),
        "only {warm} warm solves"
    );
}
