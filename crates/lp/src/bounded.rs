//! Feasibility on a bounded-variable tableau, in the style of Dutertre & de
//! Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006).
//!
//! Every variable is a free column ([`BoundedTableau::add_column`]) or the
//! slack `s = Σ aᵢ·xᵢ` of one linear form (its *row*,
//! [`BoundedTableau::add_row`]), and may carry a lower and an upper bound;
//! an equality is both bounds on one row. The rows, solved for the basic
//! variables, never change when bounds come and go, so one tableau answers
//! a sequence of feasibility questions over the same rows warm.
//!
//! Every nonbasic variable lies within its bounds: asserting a bound that a
//! nonbasic value violates moves that value, and retracting a bound moves
//! nothing. [`BoundedTableau::check`] then pivots (Bland's rule: smallest
//! violated basic variable, smallest eligible nonbasic one) until every
//! basic variable is within its bounds, or a violated row has no eligible
//! nonbasic variable. That row and the bounds that block it are infeasible
//! on their own: a Farkas certificate whose support is the blocking
//! variables.
//!
//! [`BoundedTableau::minimize`] optimizes on the same tableau: from the
//! feasible values a check leaves, a primal phase 2 lowers one variable
//! under Bland's rule and leaves the tableau feasible for the next question.
//! Warm sessions ask it many questions on one set of rows: which
//! constraints a polyhedron entails, and which of its constraints are
//! redundant (retract the bound, minimize the row, re-assert the bound
//! unless the minimum already meets it).

use crate::simplex::{Interrupt, Interrupted, SparseRow, INTERRUPT_POLL_PERIOD};
use termite_num::Rational;

/// One bound on a variable of a [`BoundedTableau`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bound {
    /// `x ≥ b`.
    Lower(Rational),
    /// `x ≤ b`.
    Upper(Rational),
}

/// Where a variable sits in the tableau.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Basic in this row.
    Basic(usize),
    /// Nonbasic in this column.
    Nonbasic(usize),
}

/// A bounded-variable simplex tableau answering feasibility and
/// minimization questions (see the module documentation). Variables are
/// numbered in order of creation, columns and rows alike.
#[derive(Clone, Debug, Default)]
pub struct BoundedTableau {
    /// The basic variable of row `r` is `Σ rows[r][c]·` (the nonbasic
    /// variable of column `c`).
    rows: Vec<SparseRow>,
    /// The basic variable of each row.
    basic: Vec<usize>,
    /// The nonbasic variable of each column.
    nonbasic: Vec<usize>,
    /// Per variable: its slot, current value and bounds.
    vars: Vec<Var>,
}

/// One variable of a [`BoundedTableau`].
#[derive(Clone, Debug)]
struct Var {
    slot: Slot,
    value: Rational,
    lower: Option<Rational>,
    upper: Option<Rational>,
}

impl BoundedTableau {
    /// An empty tableau.
    pub fn new() -> Self {
        BoundedTableau::default()
    }

    /// The current value of `var`. After a feasible [`check`](Self::check)
    /// the values satisfy every bound and every row.
    pub fn value(&self, var: usize) -> &Rational {
        &self.vars[var].value
    }

    /// Makes room for `columns` more columns and `rows` more rows, so a
    /// loader that knows its size grows each of the tableau's vectors once.
    pub fn reserve(&mut self, columns: usize, rows: usize) {
        self.rows.reserve(rows);
        self.basic.reserve(rows);
        self.nonbasic.reserve(columns);
        self.vars.reserve(columns + rows);
    }

    /// Adds an unbounded variable at value 0 and returns it.
    pub fn add_column(&mut self) -> usize {
        let var = self.new_var(Slot::Nonbasic(self.nonbasic.len()), Rational::zero());
        self.nonbasic.push(var);
        var
    }

    /// Adds the slack `s = Σ a·x` of a linear form over existing variables,
    /// unbounded, and returns it.
    pub fn add_row(&mut self, terms: impl IntoIterator<Item = (usize, Rational)>) -> usize {
        let terms = terms.into_iter();
        let mut entries = Vec::with_capacity(terms.size_hint().0);
        let mut value = Rational::zero();
        for (var, a) in terms {
            value += &(&a * &self.vars[var].value);
            match self.vars[var].slot {
                Slot::Nonbasic(c) => entries.push((c, a)),
                Slot::Basic(r) => entries.extend(self.rows[r].iter().map(|(c, b)| (*c, &a * b))),
            }
        }
        let var = self.new_var(Slot::Basic(self.rows.len()), value);
        self.rows.push(SparseRow::from_terms(entries));
        self.basic.push(var);
        var
    }

    /// Puts `bound` on `var`, replacing the bound of the same side. A
    /// nonbasic value that violates it moves onto it; one that violates
    /// only the other side's bound (left there while the two crossed) moves
    /// onto that one.
    pub fn assert_bound(&mut self, var: usize, bound: Bound) {
        let lower = matches!(bound, Bound::Lower(_));
        match bound {
            Bound::Lower(b) => self.vars[var].lower = Some(b),
            Bound::Upper(b) => self.vars[var].upper = Some(b),
        }
        let Slot::Nonbasic(column) = self.vars[var].slot else {
            return;
        };
        let value = &self.vars[var].value;
        let below = self.vars[var].lower.as_ref().filter(|l| value < *l);
        let above = self.vars[var].upper.as_ref().filter(|u| value > *u);
        let target = match (below, above) {
            (Some(l), Some(_)) if lower => l,
            (_, Some(u)) => u,
            (Some(l), None) => l,
            (None, None) => return,
        };
        self.update(column, &target.clone());
    }

    /// Removes both bounds of `var`. No value moves.
    pub fn retract(&mut self, var: usize) {
        self.vars[var].lower = None;
        self.vars[var].upper = None;
    }

    /// Removes every bound. No value moves.
    pub fn retract_all(&mut self) {
        for var in &mut self.vars {
            var.lower = None;
            var.upper = None;
        }
    }

    /// Decides the rational feasibility of the asserted bounds, pivoting
    /// from the current basis and polling `interrupt` on entry and every
    /// few pivots. `Ok(None)` is feasible; `Ok(Some(vars))` lists
    /// (ascending) the variables whose bounds are infeasible together.
    pub fn check(&mut self, interrupt: &Interrupt) -> Result<Option<Vec<usize>>, Interrupted> {
        // Crossed bounds on one variable need no pivot (and would break the
        // invariant for a nonbasic one).
        let crossed = (self.vars.iter())
            .position(|v| matches!((&v.lower, &v.upper), (Some(l), Some(u)) if l > u));
        if let Some(var) = crossed {
            return Ok(Some(vec![var]));
        }
        let mut pivots = 0usize;
        loop {
            if pivots.is_multiple_of(INTERRUPT_POLL_PERIOD) && interrupt.is_raised() {
                return Err(Interrupted);
            }
            let Some((row, raise)) = self.violated_row() else {
                return Ok(None);
            };
            // `raise`: the basic value is below its lower bound, so it must
            // grow; a column helps if it can move in the matching direction.
            let entering = self.rows[row]
                .iter()
                .filter(|(column, a)| {
                    let var = self.nonbasic[*column];
                    if a.is_positive() == raise {
                        self.vars[var]
                            .upper
                            .as_ref()
                            .is_none_or(|u| &self.vars[var].value < u)
                    } else {
                        self.vars[var]
                            .lower
                            .as_ref()
                            .is_none_or(|l| &self.vars[var].value > l)
                    }
                })
                .map(|(column, _)| *column)
                .min_by_key(|&column| self.nonbasic[column]);
            let Some(column) = entering else {
                return Ok(Some(self.explain(row)));
            };
            let leaving = &self.vars[self.basic[row]];
            let bound = if raise {
                &leaving.lower
            } else {
                &leaving.upper
            };
            let target = bound.clone().expect("a violated variable has its bound");
            self.pivot_and_update(row, column, &target);
            pivots += 1;
        }
    }

    /// Minimizes `var` over the asserted bounds by bounded-variable primal
    /// simplex, starting from the feasible values that a
    /// [`check`](Self::check) answering `Ok(None)` (or an earlier
    /// `minimize`) left, and polling `interrupt` on entry and every few
    /// steps. `Ok(Some(min))` is the optimum, which `var` now holds;
    /// `Ok(None)` means `var` is unbounded below, found without moving any
    /// value. Either way every bound and row still holds, so the next
    /// question starts warm.
    ///
    /// Each step lets the smallest nonbasic variable that can lower `var`
    /// enter, moving it until it reaches its own opposite bound (a move
    /// without a pivot) or a basic variable reaches a bound (which then
    /// leaves); ties go to the smallest such variable (Bland's rule).
    pub fn minimize(
        &mut self,
        var: usize,
        interrupt: &Interrupt,
    ) -> Result<Option<Rational>, Interrupted> {
        let mut steps = 0usize;
        loop {
            if steps.is_multiple_of(INTERRUPT_POLL_PERIOD) && interrupt.is_raised() {
                return Err(Interrupted);
            }
            let Some((column, down)) = self.improving_column(var) else {
                return Ok(Some(self.vars[var].value.clone()));
            };
            let Some((leaving, row, falls)) = self.ratio_test(column, down) else {
                return Ok(None);
            };
            let leaving = &self.vars[leaving];
            let bound = if falls {
                &leaving.lower
            } else {
                &leaving.upper
            };
            let target = bound.clone().expect("a limiting variable has its bound");
            match row {
                None => self.update(column, &target),
                Some(r) => self.pivot_and_update(r, column, &target),
            }
            steps += 1;
        }
    }

    /// The smallest nonbasic column whose move lowers `var`, and whether
    /// that move is down. `var` itself is the one candidate when nonbasic.
    fn improving_column(&self, var: usize) -> Option<(usize, bool)> {
        let can_move = |column: usize, down: bool| {
            let x = self.nonbasic[column];
            if down {
                self.vars[x]
                    .lower
                    .as_ref()
                    .is_none_or(|l| &self.vars[x].value > l)
            } else {
                self.vars[x]
                    .upper
                    .as_ref()
                    .is_none_or(|u| &self.vars[x].value < u)
            }
        };
        match self.vars[var].slot {
            Slot::Nonbasic(column) => can_move(column, true).then_some((column, true)),
            Slot::Basic(row) => self.rows[row]
                .iter()
                .map(|(column, a)| (*column, a.is_positive()))
                .filter(|&(column, down)| can_move(column, down))
                .min_by_key(|&(column, _)| self.nonbasic[column]),
        }
    }

    /// The variable that first reaches a bound as nonbasic `column` moves
    /// down (or up), ties to the smallest; its row (`None` for the column's
    /// own variable); and whether it falls onto its lower bound. `None`
    /// when nothing limits the move.
    fn ratio_test(&self, column: usize, down: bool) -> Option<(usize, Option<usize>, bool)> {
        // How far `var` can move down (or up) before it meets its bound.
        let room = |var: usize, falls: bool| {
            let value = &self.vars[var].value;
            if falls {
                self.vars[var].lower.as_ref().map(|l| value - l)
            } else {
                self.vars[var].upper.as_ref().map(|u| u - value)
            }
        };
        let entering = self.nonbasic[column];
        let mut best = room(entering, down).map(|limit| (limit, entering, None, down));
        for (r, row) in self.rows.iter().enumerate() {
            let Some(a) = row.get(column) else {
                continue;
            };
            let (basic, falls) = (self.basic[r], a.is_positive() == down);
            let Some(limit) = room(basic, falls).map(|room| &room / &a.abs()) else {
                continue;
            };
            let better = best.as_ref().is_none_or(|(least, var, _, _)| {
                limit < *least || (limit == *least && basic < *var)
            });
            if better {
                best = Some((limit, basic, Some(r), falls));
            }
        }
        best.map(|(_, var, row, falls)| (var, row, falls))
    }

    /// The row of the smallest basic variable outside its bounds, and
    /// whether it lies below its lower bound.
    fn violated_row(&self) -> Option<(usize, bool)> {
        (0..self.rows.len())
            .filter_map(|r| {
                let var = self.basic[r];
                let value = &self.vars[var].value;
                if self.vars[var].lower.as_ref().is_some_and(|l| value < l) {
                    Some((var, r, true))
                } else if self.vars[var].upper.as_ref().is_some_and(|u| value > u) {
                    Some((var, r, false))
                } else {
                    None
                }
            })
            .min()
            .map(|(_, r, raise)| (r, raise))
    }

    /// The variables of a violated row that no column can repair: its basic
    /// variable and the nonbasic variable of each of its non-zero columns.
    fn explain(&self, row: usize) -> Vec<usize> {
        let mut support: Vec<usize> = std::iter::once(self.basic[row])
            .chain(self.rows[row].iter().map(|(c, _)| self.nonbasic[*c]))
            .collect();
        support.sort_unstable();
        support
    }

    /// Sets nonbasic column `column` to `target`, moving every basic value
    /// with it.
    fn update(&mut self, column: usize, target: &Rational) {
        let var = self.nonbasic[column];
        let delta = target - &self.vars[var].value;
        for (r, row) in self.rows.iter().enumerate() {
            if let Some(a) = row.get(column) {
                self.vars[self.basic[r]].value += &(a * &delta);
            }
        }
        self.vars[var].value = target.clone();
    }

    /// Moves the basic variable of `row` onto `target` by moving the
    /// nonbasic variable of `column`, then swaps the two.
    fn pivot_and_update(&mut self, row: usize, column: usize, target: &Rational) {
        let leaving = self.basic[row];
        let a = self.rows[row]
            .get(column)
            .expect("the entering column is non-zero");
        let theta = &(target - &self.vars[leaving].value) / a;
        let moved = &self.vars[self.nonbasic[column]].value + &theta;
        self.update(column, &moved);
        self.pivot(row, column);
    }

    /// Exchanges the basic variable of `row` with the nonbasic variable of
    /// `column`: solve the row for the column, substitute everywhere else.
    ///
    /// The row is rewritten where it stands, first into the step (the
    /// solved row minus the unit entry of `column`), then into the solved
    /// row.
    fn pivot(&mut self, row: usize, column: usize) {
        let mut step = std::mem::take(&mut self.rows[row]);
        step.make_pivot_step(column);
        // Substituting into a row with `f` in `column` adds `f·solved` and
        // removes the old `f`: subtract `−f·(solved − e_column)`. The taken
        // row is empty, so it is skipped like any row without the column.
        for other in self.rows.iter_mut() {
            if let Some(f) = other.get(column) {
                let factor = -f;
                other.sub_scaled(&step, &factor);
            }
        }
        step.add_unit(column);
        self.rows[row] = step;
        let (leaving, entering) = (self.basic[row], self.nonbasic[column]);
        self.basic[row] = entering;
        self.nonbasic[column] = leaving;
        self.vars[entering].slot = Slot::Basic(row);
        self.vars[leaving].slot = Slot::Nonbasic(column);
    }

    /// A new unbounded variable.
    fn new_var(&mut self, slot: Slot, value: Rational) -> usize {
        self.vars.push(Var {
            slot,
            value,
            lower: None,
            upper: None,
        });
        self.vars.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinearProgram, LpOutcome, Relation, VarId};
    use proptest::prelude::*;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// The lower and upper bound of one variable.
    type Bounds = (Option<Rational>, Option<Rational>);

    /// Columns of every generated system.
    const COLUMNS: usize = 3;

    /// One step of a warm session; variable indices wrap around the
    /// variables that exist.
    #[derive(Clone, Debug)]
    enum Step {
        /// Assert these bounds (the sides present) on a variable.
        Assert(usize, Bounds),
        /// Retract both bounds of a variable.
        Retract(usize),
        /// Add a row over the columns, which may be basic by now.
        AddRow(Vec<i64>),
    }

    /// Lower-only, upper-only, two-sided and equality bounds.
    fn bounds() -> impl Strategy<Value = Bounds> {
        (0u8..4, -4i64..=4, 0i64..=3).prop_map(|(kind, low, width)| match kind {
            0 => (Some(q(low)), None),
            1 => (None, Some(q(low))),
            2 => (Some(q(low)), Some(q(low + width))),
            _ => (Some(q(low)), Some(q(low))),
        })
    }

    fn row() -> impl Strategy<Value = Vec<i64>> {
        prop::collection::vec(-3i64..=3, COLUMNS)
    }

    /// A system of rows with bounds, then a sequence of asserts, retracts
    /// and new rows, each with the variable to minimize after it.
    fn session() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<(Step, usize)>)> {
        let step = prop_oneof![
            (0usize..16, bounds()).prop_map(|(v, b)| Step::Assert(v, b)),
            (0usize..16, bounds()).prop_map(|(v, b)| Step::Assert(v, b)),
            (0usize..16).prop_map(Step::Retract),
            row().prop_map(Step::AddRow),
        ];
        (
            prop::collection::vec(row(), 1..6),
            prop::collection::vec((step, 0usize..16), 1..12),
        )
    }

    /// A tableau and what the test knows about it: each variable's linear
    /// form over the columns (`None` for a column) and current bounds.
    struct Mirror {
        tableau: BoundedTableau,
        forms: Vec<Option<Vec<(usize, Rational)>>>,
        bounds: Vec<Bounds>,
    }

    impl Mirror {
        fn add_row(&mut self, coeffs: &[i64]) {
            let form: Vec<(usize, Rational)> = (0..COLUMNS)
                .filter(|&c| coeffs[c] != 0)
                .map(|c| (c, q(coeffs[c])))
                .collect();
            let var = self.tableau.add_row(form.clone());
            assert_eq!(var, self.forms.len());
            self.forms.push(Some(form));
            self.bounds.push((None, None));
        }

        fn assert_bounds(&mut self, var: usize, (lower, upper): &Bounds) {
            if let Some(l) = lower {
                self.tableau.assert_bound(var, Bound::Lower(l.clone()));
                self.bounds[var].0 = Some(l.clone());
            }
            if let Some(u) = upper {
                self.tableau.assert_bound(var, Bound::Upper(u.clone()));
                self.bounds[var].1 = Some(u.clone());
            }
        }

        fn retract(&mut self, var: usize) {
            self.tableau.retract(var);
            self.bounds[var] = (None, None);
        }

        /// `var`'s linear form over the columns of a cold LP.
        fn terms(&self, var: usize, columns: &[VarId]) -> Vec<(VarId, Rational)> {
            match &self.forms[var] {
                None => vec![(columns[var], q(1))],
                Some(form) => form.iter().map(|(c, a)| (columns[*c], a.clone())).collect(),
            }
        }

        /// A cold two-phase LP over the bounds of `vars`, and its columns.
        fn cold_lp(&self, vars: &[usize]) -> (LinearProgram, Vec<VarId>) {
            let mut lp = LinearProgram::new();
            let columns: Vec<VarId> = (0..COLUMNS)
                .map(|c| lp.add_free_var(format!("x{c}")))
                .collect();
            for &var in vars {
                let terms = self.terms(var, &columns);
                let (lower, upper) = &self.bounds[var];
                for (bound, relation) in [(lower, Relation::Ge), (upper, Relation::Le)] {
                    if let Some(b) = bound {
                        lp.add_constraint(Constraint::new(terms.clone(), relation, b.clone()));
                    }
                }
            }
            (lp, columns)
        }

        /// The cold two-phase verdict on the bounds of `vars`: infeasible?
        fn cold_infeasible(&self, vars: &[usize]) -> bool {
            self.cold_lp(vars).0.solve().outcome == LpOutcome::Infeasible
        }

        /// The cold two-phase minimum of `var` under every bound: `None`
        /// when unbounded below.
        fn cold_minimum(&self, var: usize) -> Option<Rational> {
            let all: Vec<usize> = (0..self.forms.len()).collect();
            let (mut lp, columns) = self.cold_lp(&all);
            lp.minimize(self.terms(var, &columns));
            match lp.solve().outcome {
                LpOutcome::Optimal { objective, .. } => Some(objective),
                LpOutcome::Unbounded { .. } => None,
                LpOutcome::Infeasible => panic!("minimizing over infeasible bounds"),
            }
        }

        /// Minimizes `var` warm and compares with the cold minimum; the
        /// values stay consistent and `var` sits on a finite minimum.
        fn minimize_against_cold(&mut self, var: usize) {
            let warm = self.tableau.minimize(var, &Interrupt::never()).unwrap();
            assert_eq!(warm, self.cold_minimum(var), "minimum of x{var}");
            self.assert_values_consistent();
            if let Some(min) = &warm {
                assert_eq!(self.tableau.value(var), min, "x{var} at its minimum");
            }
        }

        /// Checks warm and compares with the cold verdict; returns the
        /// support of an infeasible answer.
        fn check_against_cold(&mut self) -> Option<Vec<usize>> {
            let answer = self.tableau.check(&Interrupt::never()).unwrap();
            let all: Vec<usize> = (0..self.forms.len()).collect();
            assert_eq!(answer.is_some(), self.cold_infeasible(&all), "verdict");
            match &answer {
                Some(support) => {
                    assert!(support.windows(2).all(|w| w[0] < w[1]), "{support:?}");
                    assert!(self.cold_infeasible(support), "support {support:?}");
                }
                None => self.assert_values_consistent(),
            }
            answer
        }

        /// Every variable within its bounds, every row equal to its form.
        fn assert_values_consistent(&self) {
            for (var, (lower, upper)) in self.bounds.iter().enumerate() {
                let value = self.tableau.value(var);
                assert!(lower.as_ref().is_none_or(|l| value >= l), "x{var} below");
                assert!(upper.as_ref().is_none_or(|u| value <= u), "x{var} above");
            }
            for (var, form) in self.forms.iter().enumerate() {
                if let Some(form) = form {
                    let mut sum = Rational::zero();
                    for (c, a) in form {
                        sum += &(a * self.tableau.value(*c));
                    }
                    assert_eq!(self.tableau.value(var), &sum, "row x{var}");
                }
            }
        }
    }

    proptest! {
        /// A warm session answers every check as a cold two-phase LP over
        /// the bounds asserted at that point; every support is infeasible
        /// on its own, and so is every support found with one of its
        /// variables retracted (a deletion probe), which avoids that
        /// variable; a feasible answer's values satisfy every bound and
        /// every row. After each feasible check the session minimizes a
        /// variable, which must find the cold two-phase minimum (or
        /// unboundedness) and leave the session feasible for the next step.
        #[test]
        fn warm_sessions_agree_with_the_two_phase_lp(case in session()) {
            let (rows, steps) = case;
            let mut mirror = Mirror {
                tableau: BoundedTableau::new(),
                forms: vec![None; COLUMNS],
                bounds: vec![(None, None); COLUMNS],
            };
            for _ in 0..COLUMNS {
                mirror.tableau.add_column();
            }
            for coeffs in &rows {
                mirror.add_row(coeffs);
            }
            for (step, objective) in &steps {
                let n = mirror.forms.len();
                match step {
                    Step::Assert(var, bounds) => mirror.assert_bounds(var % n, bounds),
                    Step::Retract(var) => mirror.retract(var % n),
                    Step::AddRow(coeffs) => mirror.add_row(coeffs),
                }
                let Some(support) = mirror.check_against_cold() else {
                    mirror.minimize_against_cold(objective % mirror.forms.len());
                    continue;
                };
                for &k in &support {
                    let saved = mirror.bounds[k].clone();
                    mirror.retract(k);
                    if let Some(probe) = mirror.check_against_cold() {
                        prop_assert!(!probe.contains(&k), "probe {:?} without {}", probe, k);
                    }
                    mirror.assert_bounds(k, &saved);
                }
            }
        }
    }

    #[test]
    fn equality_rows_and_column_bounds() {
        // x = 2y, x ≥ 3, y ≤ 1: infeasible through the equality row.
        let mut t = BoundedTableau::new();
        let (x, y) = (t.add_column(), t.add_column());
        let eq = t.add_row([(x, q(1)), (y, q(-2))]);
        t.assert_bound(eq, Bound::Lower(q(0)));
        t.assert_bound(eq, Bound::Upper(q(0)));
        t.assert_bound(x, Bound::Lower(q(3)));
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
        assert_eq!(t.value(x), &(t.value(y) * &q(2)));
        t.assert_bound(y, Bound::Upper(q(1)));
        assert_eq!(t.check(&Interrupt::never()), Ok(Some(vec![x, y, eq])));
    }

    #[test]
    fn raised_interrupt_stops_the_check() {
        let mut t = BoundedTableau::new();
        let x = t.add_column();
        let row = t.add_row([(x, q(1))]);
        t.assert_bound(row, Bound::Lower(q(1)));
        assert_eq!(t.check(&Interrupt::new(|| true)), Err(Interrupted));
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
    }

    #[test]
    fn minimize_reports_unbounded_below_without_moving() {
        // x − y with x ≥ 0 and y free: unbounded below along y.
        let mut t = BoundedTableau::new();
        let (x, y) = (t.add_column(), t.add_column());
        let diff = t.add_row([(x, q(1)), (y, q(-1))]);
        t.assert_bound(x, Bound::Lower(q(0)));
        t.assert_bound(diff, Bound::Upper(q(5)));
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
        let before: Vec<Rational> = (0..3).map(|v| t.value(v).clone()).collect();
        assert_eq!(t.minimize(diff, &Interrupt::never()), Ok(None));
        let after: Vec<Rational> = (0..3).map(|v| t.value(v).clone()).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn minimize_moves_the_entering_variable_to_its_own_bound_without_a_pivot() {
        // x + y with 1 ≤ x ≤ 3 and 2 ≤ y ≤ 4, both nonbasic at their upper
        // bounds: each column reaches its own lower bound, and the row,
        // bounded only above, never limits the move.
        let mut t = BoundedTableau::new();
        let (x, y) = (t.add_column(), t.add_column());
        let sum = t.add_row([(x, q(1)), (y, q(1))]);
        t.assert_bound(x, Bound::Lower(q(3)));
        t.assert_bound(y, Bound::Lower(q(4)));
        t.assert_bound(sum, Bound::Upper(q(100)));
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
        // Widening the bounds moves nothing.
        for (var, low, high) in [(x, 1, 3), (y, 2, 4)] {
            t.assert_bound(var, Bound::Lower(q(low)));
            t.assert_bound(var, Bound::Upper(q(high)));
        }
        assert_eq!((t.value(x), t.value(y)), (&q(3), &q(4)));
        let basis = t.basic.clone();
        assert_eq!(t.minimize(sum, &Interrupt::never()), Ok(Some(q(3))));
        assert_eq!(t.basic, basis, "no pivot");
        assert_eq!((t.value(x), t.value(y)), (&q(1), &q(2)));
    }

    #[test]
    fn minimize_terminates_at_a_degenerate_vertex() {
        // The cone 0 ≤ y ≤ x as four rows through the origin, over free
        // columns at the origin: every ratio is zero, so each pivot is
        // degenerate and ties go to the smallest variable.
        let mut t = BoundedTableau::new();
        let (x, y) = (t.add_column(), t.add_column());
        let rows = [
            t.add_row([(x, q(1)), (y, q(-1))]),
            t.add_row([(x, q(1)), (y, q(1))]),
            t.add_row([(x, q(1))]),
            t.add_row([(y, q(1))]),
        ];
        for row in rows {
            t.assert_bound(row, Bound::Lower(q(0)));
        }
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
        let objective = t.add_row([(x, q(2)), (y, q(1))]);
        assert_eq!(t.minimize(objective, &Interrupt::never()), Ok(Some(q(0))));
        assert_eq!((t.value(x), t.value(y)), (&q(0), &q(0)));
        // Warm on the same rows: −x − y is unbounded below, x − y is not.
        let down = t.add_row([(x, q(-1)), (y, q(-1))]);
        assert_eq!(t.minimize(down, &Interrupt::never()), Ok(None));
        let lean = t.add_row([(x, q(1)), (y, q(-1))]);
        assert_eq!(t.minimize(lean, &Interrupt::never()), Ok(Some(q(0))));
    }

    #[test]
    fn raised_interrupt_stops_the_minimization() {
        let mut t = BoundedTableau::new();
        let x = t.add_column();
        t.assert_bound(x, Bound::Lower(q(1)));
        assert_eq!(t.check(&Interrupt::never()), Ok(None));
        assert_eq!(t.minimize(x, &Interrupt::new(|| true)), Err(Interrupted));
        assert_eq!(t.minimize(x, &Interrupt::never()), Ok(Some(q(1))));
    }
}
