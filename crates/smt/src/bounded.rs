//! The warm theory tableau: a bounded-variable simplex in the style of
//! Dutertre & de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)",
//! CAV 2006), used to answer the infeasible theory checks and the conflict
//! deletion probes without building a linear program.
//!
//! Every term variable is a free column. Every atom `Σ aᵢ·xᵢ ≥ b` gets one
//! slack variable `s = Σ aᵢ·xᵢ` (its *row*), and the atom and its negation
//! share it: the atom is the lower bound `s ≥ b`, its negation
//! `−Σ aᵢ·xᵢ ≥ 1 − b` the upper bound `s ≤ b − 1`. Rows are oriented so that
//! the leading coefficient is positive. Asserting a literal puts its bound on
//! its row; the tableau itself (the rows, solved for the basic variables)
//! never changes when bounds come and go.
//!
//! The invariant is that every nonbasic variable lies within its bounds.
//! Asserting a bound that a nonbasic value violates moves that value
//! (`update`), and retracting a bound moves nothing, so the basis stays
//! valid across checks, probes and loads. [`WarmTableau::check`] then pivots
//! (Bland's rule: smallest violated basic variable, smallest eligible
//! nonbasic one, which terminates) until every basic variable is within its
//! bounds, or a violated row has no eligible nonbasic variable. That row
//! and the bounds that block it are infeasible on their own: a Farkas
//! certificate whose support names the literals.
//!
//! Only feasibility is decided here. Models, optima and integrality come
//! from the cold path in the `theory` module.

use crate::{Atom, TermVar};
use std::collections::HashMap;
use termite_lp::Interrupt;
use termite_num::Rational;

/// A warm check polls its interrupt on entry and every this many pivots.
const POLL_PERIOD: usize = 16;

/// The warm check was interrupted; no answer was established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interrupted;

/// Where a variable sits in the tableau.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Basic in this row.
    Basic(usize),
    /// Nonbasic in this column.
    Nonbasic(usize),
}

/// The bound one literal puts on its row's slack variable.
#[derive(Clone, Debug)]
struct Literal {
    var: usize,
    lower: bool,
    bound: Rational,
}

/// A bounded-variable simplex tableau over the atoms seen so far, with one
/// set of literals loaded (see the module documentation).
#[derive(Clone, Debug, Default)]
pub(crate) struct WarmTableau {
    /// `rows[r][c]`: the basic variable of row `r` is `Σ_c rows[r][c]·`
    /// (the nonbasic variable of column `c`).
    rows: Vec<Vec<Rational>>,
    /// The basic variable of each row.
    basic: Vec<usize>,
    /// The nonbasic variable of each column.
    nonbasic: Vec<usize>,
    /// Per variable: its slot, current value and bounds.
    slot: Vec<Slot>,
    value: Vec<Rational>,
    lower: Vec<Option<Rational>>,
    upper: Vec<Option<Rational>>,
    /// The column variable of each term variable.
    columns: HashMap<TermVar, usize>,
    /// The slack variables of each positively oriented atom. More than one
    /// only when one literal set bounds the same row twice (a duplicate
    /// atom, or an atom with its negation): the extra literal gets a spare
    /// row with the same expression, so every row carries one bound.
    slacks: HashMap<Atom, Vec<usize>>,
    /// The loaded literals, indexed like the atoms given to `load`.
    literals: Vec<Literal>,
    /// The literal whose bound each variable carries, if any.
    owner: Vec<Option<usize>>,
}

impl WarmTableau {
    /// Replaces the loaded literal set by `atoms`: clears every bound and
    /// asserts one bound per atom, adding the rows and columns not seen yet.
    pub(crate) fn load(&mut self, atoms: &[Atom]) {
        self.lower.iter_mut().for_each(|b| *b = None);
        self.upper.iter_mut().for_each(|b| *b = None);
        self.owner.iter_mut().for_each(|o| *o = None);
        self.literals.clear();
        for (index, atom) in atoms.iter().enumerate() {
            // Orient the row: `e ≥ b` with a positive leading coefficient is
            // `s ≥ b`; otherwise the atom is `−e ≥ b`, i.e. `s ≤ −b` on the
            // row of `e` (keyed by the atom's negation, `e ≥ 1 − b`).
            let leading_negative = atom.coeffs.values().next().is_some_and(|c| c.is_negative());
            let (literal, key) = if leading_negative {
                let key = atom.negate();
                (Rational::from_int(-&atom.rhs), key)
            } else {
                (Rational::from_int(atom.rhs.clone()), atom.clone())
            };
            let free = self
                .slacks
                .get(&key)
                .and_then(|vars| vars.iter().copied().find(|&v| self.owner[v].is_none()));
            let var = match free {
                Some(var) => var,
                None => self.add_row(key),
            };
            self.owner[var] = Some(index);
            self.literals.push(Literal {
                var,
                lower: !leading_negative,
                bound: literal,
            });
            self.reassert(index);
        }
    }

    /// Removes the bound of loaded literal `index`. No value moves.
    pub(crate) fn retract(&mut self, index: usize) {
        let var = self.literals[index].var;
        self.lower[var] = None;
        self.upper[var] = None;
    }

    /// Puts the bound of loaded literal `index` (back) on its row, moving
    /// the row's value onto the bound if it is nonbasic and violates it.
    pub(crate) fn reassert(&mut self, index: usize) {
        let Literal { var, lower, bound } = self.literals[index].clone();
        let violated = if lower {
            self.value[var] < bound
        } else {
            self.value[var] > bound
        };
        if let (Slot::Nonbasic(column), true) = (self.slot[var], violated) {
            self.update(column, &bound);
        }
        if lower {
            self.lower[var] = Some(bound);
        } else {
            self.upper[var] = Some(bound);
        }
    }

    /// Decides the rational feasibility of the asserted bounds, pivoting
    /// from the current basis. `Ok(None)` is feasible; `Ok(Some(support))`
    /// lists (ascending) the loaded literals of an infeasible subset.
    pub(crate) fn check(
        &mut self,
        interrupt: &Interrupt,
    ) -> Result<Option<Vec<usize>>, Interrupted> {
        let mut pivots = 0usize;
        loop {
            if pivots.is_multiple_of(POLL_PERIOD) && interrupt.is_raised() {
                return Err(Interrupted);
            }
            let Some((row, raise)) = self.violated_row() else {
                return Ok(None);
            };
            // `raise`: the basic value is below its lower bound, so it must
            // grow; a column helps if it can move in the matching direction.
            let eligible = |tableau: &Self, column: usize| {
                let a = &tableau.rows[row][column];
                let var = tableau.nonbasic[column];
                !a.is_zero()
                    && if a.is_positive() == raise {
                        tableau.upper[var]
                            .as_ref()
                            .is_none_or(|u| &tableau.value[var] < u)
                    } else {
                        tableau.lower[var]
                            .as_ref()
                            .is_none_or(|l| &tableau.value[var] > l)
                    }
            };
            let entering = (0..self.nonbasic.len())
                .filter(|&c| eligible(self, c))
                .min_by_key(|&c| self.nonbasic[c]);
            let Some(column) = entering else {
                return Ok(Some(self.explain(row)));
            };
            let leaving = self.basic[row];
            let target = if raise {
                self.lower[leaving].clone()
            } else {
                self.upper[leaving].clone()
            }
            .expect("a violated variable has the bound it violates");
            self.pivot_and_update(row, column, &target);
            pivots += 1;
        }
    }

    /// The row of the smallest basic variable outside its bounds, and
    /// whether it lies below its lower bound.
    fn violated_row(&self) -> Option<(usize, bool)> {
        (0..self.rows.len())
            .filter_map(|r| {
                let var = self.basic[r];
                let value = &self.value[var];
                if self.lower[var].as_ref().is_some_and(|l| value < l) {
                    Some((var, r, true))
                } else if self.upper[var].as_ref().is_some_and(|u| value > u) {
                    Some((var, r, false))
                } else {
                    None
                }
            })
            .min()
            .map(|(_, r, raise)| (r, raise))
    }

    /// The literals of a violated row that no column can repair: the row's
    /// own bound and the bound blocking each of its nonzero columns. Free
    /// columns are always eligible, so every blocking variable is a bounded
    /// slack and has an owner.
    fn explain(&self, row: usize) -> Vec<usize> {
        let mut support: Vec<usize> = std::iter::once(self.basic[row])
            .chain(
                (0..self.nonbasic.len())
                    .filter(|&c| !self.rows[row][c].is_zero())
                    .map(|c| self.nonbasic[c]),
            )
            .map(|var| self.owner[var].expect("a blocking bound belongs to a literal"))
            .collect();
        support.sort_unstable();
        support
    }

    /// Sets nonbasic column `column` to `target`, moving every basic value
    /// with it.
    fn update(&mut self, column: usize, target: &Rational) {
        let var = self.nonbasic[column];
        let delta = target - &self.value[var];
        for (r, row) in self.rows.iter().enumerate() {
            if !row[column].is_zero() {
                self.value[self.basic[r]] += &(&row[column] * &delta);
            }
        }
        self.value[var] = target.clone();
    }

    /// Moves the basic variable of `row` onto `target` by moving the
    /// nonbasic variable of `column`, then swaps the two.
    fn pivot_and_update(&mut self, row: usize, column: usize, target: &Rational) {
        let leaving = self.basic[row];
        let theta = &(target - &self.value[leaving]) / &self.rows[row][column];
        let entering = self.nonbasic[column];
        let moved = &self.value[entering] + &theta;
        self.update(column, &moved);
        self.pivot(row, column);
    }

    /// Exchanges the basic variable of `row` with the nonbasic variable of
    /// `column`: solve the row for the column, substitute everywhere else.
    fn pivot(&mut self, row: usize, column: usize) {
        let inverse = self.rows[row][column].recip();
        let mut solved = std::mem::take(&mut self.rows[row]);
        for (c, entry) in solved.iter_mut().enumerate() {
            *entry = if c == column {
                inverse.clone()
            } else {
                -&(&*entry * &inverse)
            };
        }
        for (r, other) in self.rows.iter_mut().enumerate() {
            if r == row || other[column].is_zero() {
                continue;
            }
            let factor = std::mem::take(&mut other[column]);
            for (entry, s) in other.iter_mut().zip(&solved) {
                if !s.is_zero() {
                    *entry += &(&factor * s);
                }
            }
        }
        self.rows[row] = solved;
        let (leaving, entering) = (self.basic[row], self.nonbasic[column]);
        self.basic[row] = entering;
        self.nonbasic[column] = leaving;
        self.slot[entering] = Slot::Basic(row);
        self.slot[leaving] = Slot::Nonbasic(column);
    }

    /// A new unbounded variable at value 0.
    fn new_var(&mut self, slot: Slot, value: Rational) -> usize {
        self.slot.push(slot);
        self.value.push(value);
        self.lower.push(None);
        self.upper.push(None);
        self.owner.push(None);
        self.slot.len() - 1
    }

    /// Adds the slack row of a positively oriented atom, expressed over the
    /// current nonbasic columns, and returns its (basic) variable.
    fn add_row(&mut self, key: Atom) -> usize {
        for v in key.vars() {
            if !self.columns.contains_key(&v) {
                let var = self.new_var(Slot::Nonbasic(self.nonbasic.len()), Rational::zero());
                self.nonbasic.push(var);
                self.rows
                    .iter_mut()
                    .for_each(|row| row.push(Rational::zero()));
                self.columns.insert(v, var);
            }
        }
        let mut row = vec![Rational::zero(); self.nonbasic.len()];
        let mut value = Rational::zero();
        for (v, a) in &key.coeffs {
            let a = Rational::from_int(a.clone());
            let var = self.columns[v];
            value += &(&a * &self.value[var]);
            match self.slot[var] {
                Slot::Nonbasic(c) => row[c] += &a,
                Slot::Basic(r) => {
                    for (entry, b) in row.iter_mut().zip(&self.rows[r]) {
                        if !b.is_zero() {
                            *entry += &(&a * b);
                        }
                    }
                }
            }
        }
        let var = self.new_var(Slot::Basic(self.rows.len()), value);
        self.rows.push(row);
        self.basic.push(var);
        self.slacks.entry(key).or_default().push(var);
        var
    }
}
