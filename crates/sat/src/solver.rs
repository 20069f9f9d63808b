//! CDCL solver implementation.

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Index of the variable (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a polarity.
    pub fn with_polarity(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "¬x{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Result of a SAT query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model assigning a Boolean to every variable
    /// (indexed by [`Var::index`]).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// `true` if this is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// A stored clause: the range of its literals in the solver's arena.
/// Clauses are never deleted, so the ranges tile the arena in order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Clause {
    start: usize,
    end: usize,
}

const UNASSIGNED: i8 = 0;

/// A CDCL SAT solver with incremental clause addition.
///
/// A clone continues from the same state: two clones given the same
/// clauses find the same models. Two solvers are equal when they hold the
/// same variables, clauses, assignment and search state.
///
/// See the crate documentation for an example.
#[derive(Clone, Debug, PartialEq)]
pub struct Solver {
    /// The literals of every stored clause, clause after clause: adding,
    /// learning and cloning clauses allocates nothing per clause.
    lits: Vec<Lit>,
    clauses: Vec<Clause>,
    /// For each literal code, the clauses in which that literal is watched.
    watches: Vec<Vec<usize>>,
    /// Assignment per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause of each implied variable.
    reason: Vec<Option<usize>>,
    /// Saved phase for decision polarity.
    phase: Vec<bool>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Start index in `trail` of each decision level.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    /// VSIDS-style activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// False once an unconditional conflict (empty clause) has been derived.
    ok: bool,
    /// Statistics: number of conflicts seen so far.
    conflicts: u64,
    /// Statistics: number of decisions.
    decisions: u64,
    /// Statistics: number of propagations.
    propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            lits: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            ok: true,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (including learnt clauses).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of conflicts encountered so far (statistics).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far (statistics).
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.phase.push(false);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn value_lit(&self, l: Lit) -> i8 {
        let a = self.assign[l.var().index()];
        if a == UNASSIGNED {
            UNASSIGNED
        } else if l.is_positive() {
            a
        } else {
            -a
        }
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (a disjunction of literals). Returns `false` if the
    /// solver is already in an unconditionally conflicting state afterwards.
    ///
    /// Clauses may be added between [`Solver::solve`] calls; the solver
    /// automatically returns to decision level zero.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        // Simplify in the arena's free tail: sort, dedupe, detect
        // tautologies, drop literals already falsified at level 0, detect
        // satisfied clauses. A clause that is not stored is cut off again.
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        self.lits[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.lits.len() {
            let l = self.lits[i];
            if i > start && self.lits[i - 1] == l {
                continue; // duplicate
            }
            let tautology = (i + 1 < self.lits.len() && self.lits[i + 1] == l.negate())
                || (i > start && self.lits[i - 1] == l.negate());
            // A tautology (x ∨ ¬x) or a clause already satisfied at level 0.
            if tautology || self.value_lit(l) == 1 {
                self.lits.truncate(start);
                return true;
            }
            if self.value_lit(l) == UNASSIGNED {
                self.lits[kept] = l;
                kept += 1;
            }
        }
        self.lits.truncate(kept);
        match kept - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.lits.pop().expect("one literal kept");
                self.enqueue(unit, None);
                // Propagate eagerly so that later `value_lit` queries in
                // add_clause see the consequences.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let ci = self.clauses.len();
                self.watches[self.lits[start].code()].push(ci);
                self.watches[self.lits[start + 1].code()].push(ci);
                self.clauses.push(Clause { start, end: kept });
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.value_lit(l), UNASSIGNED);
        let v = l.var().index();
        self.assign[v] = if l.is_positive() { 1 } else { -1 };
        self.level[v] = self.current_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.current_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for &l in &self.trail[keep..] {
            let v = l.var().index();
            self.assign[v] = UNASSIGNED;
            self.reason[v] = None;
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    ///
    /// The falsified literal's watch list is compacted in place: the
    /// watchers it keeps stay in their order, and the list's own buffer
    /// goes back.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = p.negate();
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut conflict: Option<usize> = None;
            // `watchers[..kept]` are kept; `watchers[next..]` are unvisited.
            let (mut kept, mut next) = (0, 0);
            while next < watchers.len() {
                let ci = watchers[next];
                next += 1;
                let Clause { start, end } = self.clauses[ci];
                // Make sure the falsified literal is in position 1.
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                if self.value_lit(first) == 1 {
                    // Clause already satisfied; keep watching false_lit.
                    watchers[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let new_watch = (start + 2..end).find(|&k| self.value_lit(self.lits[k]) != -1);
                match new_watch {
                    Some(k) => {
                        self.lits.swap(start + 1, k);
                        let w = self.lits[start + 1];
                        self.watches[w.code()].push(ci);
                    }
                    None => {
                        // Clause is unit or conflicting under the current assignment.
                        watchers[kept] = ci;
                        kept += 1;
                        if self.value_lit(first) == -1 {
                            // Conflict: keep the unvisited watchers and stop.
                            while next < watchers.len() {
                                watchers[kept] = watchers[next];
                                kept += 1;
                                next += 1;
                            }
                            conflict = Some(ci);
                        } else {
                            self.enqueue(first, Some(ci));
                        }
                    }
                }
            }
            watchers.truncate(kept);
            self.watches[false_lit.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    /// 1UIP conflict analysis. Returns the learnt clause (asserting literal
    /// first) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder for the asserting literal
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut index = self.trail.len();
        let current = self.current_level();

        loop {
            let Clause { start, end } = self.clauses[confl];
            for k in start..end {
                let q = self.lits[k];
                // When resolving on the reason clause of `p`, skip the
                // implied literal `p` itself.
                if Some(q) == p {
                    continue;
                }
                let v = q.var().index();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal of the current level to resolve on.
            loop {
                index -= 1;
                if seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = pl.negate();
                break;
            }
            confl = self.reason[pl.var().index()].expect("implied literal must have a reason");
            p = Some(pl);
        }

        // Backjump level: highest level among the non-asserting literals.
        let mut bt = 0u32;
        for &l in &learnt[1..] {
            bt = bt.max(self.level[l.var().index()]);
        }
        (learnt, bt)
    }

    fn record_learnt(&mut self, learnt: &[Lit]) {
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
            return;
        }
        let ci = self.clauses.len();
        // Watch the asserting literal and a literal of the backjump level so
        // that the clause becomes unit immediately.
        let asserting = learnt[0];
        let start = self.lits.len();
        self.lits.extend_from_slice(learnt);
        let lits = &mut self.lits[start..];
        // Put a literal with maximal level in position 1.
        let mut best = 1;
        for k in 2..lits.len() {
            if self.level[lits[k].var().index()] > self.level[lits[best].var().index()] {
                best = k;
            }
        }
        lits.swap(1, best);
        self.watches[lits[0].code()].push(ci);
        self.watches[lits[1].code()].push(ci);
        let end = self.lits.len();
        self.clauses.push(Clause { start, end });
        self.enqueue(asserting, Some(ci));
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == UNASSIGNED {
                best = match best {
                    None => Some(v),
                    Some(b) if self.activity[v] > self.activity[b] => Some(v),
                    other => other,
                };
            }
        }
        match best {
            None => false,
            Some(v) => {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = Lit::with_polarity(Var(v as u32), self.phase[v]);
                self.enqueue(lit, None);
                true
            }
        }
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (`i` is 0-based).
        fn rec(i: u64) -> u64 {
            // 1-based: find k with 2^(k-1) <= i <= 2^k - 1.
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                1u64 << (k - 1)
            } else {
                rec(i - ((1u64 << (k - 1)) - 1))
            }
        }
        rec(i + 1)
    }

    /// Decides satisfiability of the current clause set.
    pub fn solve(&mut self) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = 100 * Self::luby(restart_count);
        let mut conflicts_this_restart = 0u64;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    conflicts_this_restart += 1;
                    if self.current_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(conflict);
                    self.cancel_until(bt);
                    self.record_learnt(&learnt);
                    self.decay_activity();
                }
                None => {
                    if conflicts_this_restart >= conflicts_until_restart {
                        restart_count += 1;
                        conflicts_this_restart = 0;
                        conflicts_until_restart = 100 * Self::luby(restart_count);
                        self.cancel_until(0);
                        continue;
                    }
                    if !self.decide() {
                        // Every variable is assigned: a model has been found.
                        let model = self.assign.iter().map(|&a| a == 1).collect();
                        return SatResult::Sat(model);
                    }
                }
            }
        }
    }

    /// Decides satisfiability under the given assumptions (extra literals
    /// temporarily assumed true). The solver state (learnt clauses) is kept,
    /// but the assumptions are not.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        // A simple (non-incremental) treatment sufficient for our use: add the
        // assumptions as fresh unit clauses in a throw-away copy of the solver.
        let mut copy = self.clone_for_assumptions();
        for &a in assumptions {
            if !copy.add_clause(&[a]) {
                return SatResult::Unsat;
            }
        }
        copy.solve()
    }

    fn clone_for_assumptions(&self) -> Solver {
        Solver {
            lits: self.lits.clone(),
            clauses: self.clauses.clone(),
            watches: self.watches.clone(),
            assign: vec![UNASSIGNED; self.assign.len()],
            level: vec![0; self.level.len()],
            reason: vec![None; self.reason.len()],
            phase: self.phase.clone(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            ok: self.ok,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() as usize) - 1];
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn solve_dimacs(num_vars: usize, clauses: &[Vec<i32>]) -> SatResult {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            if !s.add_clause(&lits) {
                return SatResult::Unsat;
            }
        }
        s.solve()
    }

    fn check_model(clauses: &[Vec<i32>], model: &[bool]) -> bool {
        clauses.iter().all(|c| {
            c.iter().any(|&i| {
                let v = model[(i.unsigned_abs() as usize) - 1];
                if i > 0 {
                    v
                } else {
                    !v
                }
            })
        })
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(solve_dimacs(1, &[vec![1]]).is_sat());
        assert_eq!(solve_dimacs(1, &[vec![1], vec![-1]]), SatResult::Unsat);
        assert!(solve_dimacs(2, &[vec![1, 2], vec![-1, 2], vec![1, -2]]).is_sat());
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve_dimacs(3, &[]).is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        // x1, x1 -> x2, x2 -> x3, x3 -> x4 ... all forced true.
        let clauses = vec![vec![1], vec![-1, 2], vec![-2, 3], vec![-3, 4], vec![-4, 5]];
        match solve_dimacs(5, &clauses) {
            SatResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            SatResult::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // (a ⊕ b), (b ⊕ c), (a ⊕ c) is unsatisfiable (odd cycle).
        let clauses = vec![
            vec![1, 2],
            vec![-1, -2],
            vec![2, 3],
            vec![-2, -3],
            vec![1, 3],
            vec![-1, -3],
        ];
        assert_eq!(solve_dimacs(3, &clauses), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Variables p_{i,j} = pigeon i in hole j, i in 0..3, j in 0..2.
        // var index = i*2 + j + 1
        let p = |i: usize, j: usize| (i * 2 + j + 1) as i32;
        let mut clauses = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    clauses.push(vec![-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(solve_dimacs(6, &clauses), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let holes = 3usize;
        let pigeons = 4usize;
        let p = |i: usize, j: usize| (i * holes + j + 1) as i32;
        let mut clauses = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| p(i, j)).collect());
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    clauses.push(vec![-p(i1, j), -p(i2, j)]);
                }
            }
        }
        assert_eq!(solve_dimacs(pigeons * holes, &clauses), SatResult::Unsat);
    }

    #[test]
    fn graph_coloring_satisfiable() {
        // A 4-cycle is 2-colorable: vertices 0..4, colors 0/1 encoded by one var each.
        // Adjacent vertices must differ.
        let clauses = vec![
            vec![1, 2],
            vec![-1, -2],
            vec![2, 3],
            vec![-2, -3],
            vec![3, 4],
            vec![-3, -4],
            vec![4, 1],
            vec![-4, -1],
        ];
        match solve_dimacs(4, &clauses) {
            SatResult::Sat(m) => assert!(check_model(&clauses, &m)),
            SatResult::Unsat => panic!("4-cycle is 2-colorable"),
        }
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert!(s.solve().is_sat());
        s.add_clause(&[Lit::neg(a)]);
        assert!(s.solve().is_sat());
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Once unsat, stays unsat.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(a), Lit::neg(b)]),
            SatResult::Unsat
        );
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    proptest! {
        /// On random 3-SAT instances, any model returned must satisfy the
        /// formula, and results must be consistent with a brute-force check
        /// for small variable counts.
        #[test]
        fn prop_agrees_with_bruteforce(
            clauses in prop::collection::vec(prop::collection::vec((1i32..=5).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]), 1..4), 0..12)
        ) {
            let n = 5usize;
            let result = solve_dimacs(n, &clauses);
            // Brute force over 2^5 assignments.
            let mut any = false;
            for bits in 0..(1u32 << n) {
                let model: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                if check_model(&clauses, &model) {
                    any = true;
                    break;
                }
            }
            match result {
                SatResult::Sat(m) => {
                    prop_assert!(check_model(&clauses, &m), "returned model must satisfy the formula");
                    prop_assert!(any);
                }
                SatResult::Unsat => prop_assert!(!any, "solver said unsat but a model exists"),
            }
        }

        /// Clauses added in batches with a solve after each (learnt clauses
        /// and watch lists carry over): every answer agrees with brute force,
        /// and a clone taken after any batch, given the same later batches,
        /// finds the same models and ends in the same state.
        #[test]
        fn prop_incremental_solver_and_its_clone_agree(
            batches in prop::collection::vec(
                prop::collection::vec(
                    prop::collection::vec((1i32..=6).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]), 1..5),
                    1..6,
                ),
                1..5,
            ),
            split in 0usize..5,
        ) {
            let n = 6usize;
            let mut solver = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
            let mut clone: Option<Solver> = None;
            let mut so_far: Vec<Vec<i32>> = Vec::new();
            for (b, batch) in batches.iter().enumerate() {
                if b == split % batches.len() {
                    clone = Some(solver.clone());
                }
                for c in batch {
                    let lits: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
                    solver.add_clause(&lits);
                    if let Some(other) = clone.as_mut() {
                        other.add_clause(&lits);
                    }
                    so_far.push(c.clone());
                }
                let result = solver.solve();
                let any = (0..(1u32 << n)).any(|bits| {
                    let model: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                    check_model(&so_far, &model)
                });
                match &result {
                    SatResult::Sat(m) => prop_assert!(any && check_model(&so_far, m)),
                    SatResult::Unsat => prop_assert!(!any, "unsat but a model exists"),
                }
                if let Some(other) = clone.as_mut() {
                    prop_assert_eq!(other.solve(), result);
                    prop_assert!(*other == solver, "the clone's state diverged");
                }
            }
        }
    }
}
