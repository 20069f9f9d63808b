//! Constraint-represented closed convex polyhedra and their operations.

use crate::{Constraint, ConstraintKind, Generator};
use std::fmt;
use std::sync::OnceLock;
use termite_linalg::{QMatrix, QVector};
use termite_lp::{Bound, BoundedTableau, Interrupt};
use termite_num::Rational;

/// A closed convex polyhedron `{x ∈ Qⁿ | ⋀ a_i·x ≥ b_i ∧ ⋀ c_j·x = d_j}` in
/// constraint representation.
///
/// ```
/// use termite_polyhedra::{Constraint, Polyhedron};
/// use termite_linalg::QVector;
/// use termite_num::Rational;
///
/// // The triangle 0 <= x, 0 <= y, x + y <= 2.
/// let p = Polyhedron::from_constraints(2, vec![
///     Constraint::ge(QVector::from_i64(&[1, 0]), Rational::from(0)),
///     Constraint::ge(QVector::from_i64(&[0, 1]), Rational::from(0)),
///     Constraint::le(QVector::from_i64(&[1, 1]), Rational::from(2)),
/// ]);
/// assert!(!p.is_empty());
/// assert!(p.contains_point(&QVector::from_i64(&[1, 1])));
/// assert_eq!(p.generators().iter().filter(|g| g.is_vertex()).count(), 3);
/// ```
///
/// Equality, `Debug` and `Display` look at the dimension and the constraints
/// only: the memoized emptiness answer (see [`Polyhedron::is_empty`]) is a
/// cache, not part of the value.
#[derive(Clone)]
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Constraint>,
    /// The answer of [`Polyhedron::is_empty`], once known. A `OnceLock` keeps
    /// the type `Sync`: invariant snapshots are shared across threads.
    empty: OnceLock<bool>,
}

impl PartialEq for Polyhedron {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.constraints == other.constraints
    }
}

impl Eq for Polyhedron {}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Polyhedron")
            .field("dim", &self.dim)
            .field("constraints", &self.constraints)
            .finish()
    }
}

impl Polyhedron {
    /// A polyhedron whose emptiness is `empty` when that is already known.
    fn with_emptiness(dim: usize, constraints: Vec<Constraint>, empty: Option<bool>) -> Self {
        Polyhedron {
            dim,
            constraints,
            empty: empty.map_or_else(OnceLock::new, OnceLock::from),
        }
    }

    /// The memoized emptiness answer, without computing it.
    fn known_empty(&self) -> Option<bool> {
        self.empty.get().copied()
    }

    /// `Some(true)` when the polyhedron is known to be empty: the one answer
    /// that survives adding constraints.
    fn known_to_be_empty(&self) -> Option<bool> {
        self.known_empty().filter(|&empty| empty)
    }

    /// The full space Qⁿ.
    pub fn universe(dim: usize) -> Self {
        Self::with_emptiness(dim, Vec::new(), Some(false))
    }

    /// The empty polyhedron (represented by the unsatisfiable constraint `0 ≥ 1`).
    pub fn empty(dim: usize) -> Self {
        Self::with_emptiness(
            dim,
            vec![Constraint::ge(QVector::zeros(dim), Rational::one())],
            Some(true),
        )
    }

    /// Builds a polyhedron from constraints.
    ///
    /// # Panics
    ///
    /// Panics if a constraint has a dimension different from `dim`.
    pub fn from_constraints(dim: usize, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.dim(), dim, "constraint dimension mismatch");
        }
        Self::with_emptiness(dim, constraints, None)
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints of the polyhedron (not necessarily minimised).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint in place. A polyhedron known to be empty stays
    /// empty; a "non-empty" answer is forgotten.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim, "constraint dimension mismatch");
        self.constraints.push(c);
        if self.known_empty() == Some(false) {
            self.empty = OnceLock::new();
        }
    }

    /// Intersection of two polyhedra over the same space.
    pub fn intersection(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        let empty = self.known_to_be_empty().or(other.known_to_be_empty());
        Self::with_emptiness(self.dim, constraints, empty)
    }

    /// Membership test.
    pub fn contains_point(&self, p: &QVector) -> bool {
        assert_eq!(p.dim(), self.dim, "dimension mismatch");
        self.constraints.iter().all(|c| c.satisfied_by(p))
    }

    /// Emptiness test (exact): one row per constraint on a fresh
    /// [`BoundedTableau`], an equality as both bounds on its row (the
    /// loader of an [`Entailment`] session).
    ///
    /// The answer is memoized: the first call, or the first session that
    /// loads the constraints, fills it and clones carry it.
    /// Operations whose result's emptiness follows from their operands' set
    /// it without an LP: [`universe`](Polyhedron::universe) and
    /// [`empty`](Polyhedron::empty); joins, widening and
    /// [`minimize`](Polyhedron::minimize) of checked operands (non-empty);
    /// projections, affine images, dimension changes and
    /// [`light_reduce`](Polyhedron::light_reduce) (same as the input);
    /// [`intersection`](Polyhedron::intersection),
    /// [`affine_preimage`](Polyhedron::affine_preimage) and
    /// [`add_constraint`](Polyhedron::add_constraint) (empty stays empty).
    /// A violated constraint with all-zero coefficients (`0 ≥ 1`) answers
    /// "empty" without an LP as well.
    pub fn is_empty(&self) -> bool {
        match self.known_empty() {
            Some(empty) => empty,
            None => self.load().is_none(),
        }
    }

    /// Loads the constraints onto a fresh tableau and checks it (see
    /// [`Loaded::new`]), filling the emptiness memo: `None` when the
    /// polyhedron is empty.
    fn load(&self) -> Option<Loaded> {
        let loaded = Loaded::new(self.dim, &self.constraints);
        // A racing thread may have filled the memo with the same answer.
        let _ = self.empty.set(loaded.is_none());
        loaded
    }

    /// A session answering entailment queries on this polyhedron from one
    /// tableau, loaded on the first query that needs it.
    pub fn entailment(&self) -> Entailment<'_> {
        Entailment {
            polyhedron: self,
            loaded: None,
        }
    }

    /// Whether every point of the polyhedron satisfies `c`: a one-query
    /// [`Entailment`] session.
    pub fn entails(&self, c: &Constraint) -> bool {
        self.entailment().entails(c)
    }

    /// Inclusion test `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Polyhedron) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut session = self.entailment();
        other.constraints.iter().all(|c| session.entails(c))
    }

    /// Semantic equality of the two polyhedra.
    pub fn equal(&self, other: &Polyhedron) -> bool {
        self.is_subset_of(other) && other.is_subset_of(self)
    }

    /// Cheap syntactic reduction: canonicalises constraints, removes exact
    /// duplicates, and keeps only the tightest of parallel constraints
    /// (same normal vector). Much cheaper than [`Polyhedron::minimize`]; used
    /// to keep Fourier–Motzkin intermediate systems small.
    pub fn light_reduce(&self) -> Polyhedron {
        let mut equalities: Vec<Constraint> = Vec::new();
        // Map canonical direction -> tightest rhs seen.
        let mut best: Vec<Constraint> = Vec::new();
        for c in &self.constraints {
            let cc = c.canonicalize();
            if cc.coeffs.is_zero() {
                if violated_constant(&cc) {
                    return Polyhedron::empty(self.dim);
                }
                continue;
            }
            match cc.kind {
                ConstraintKind::Equality => {
                    if !equalities.contains(&cc) {
                        equalities.push(cc);
                    }
                }
                ConstraintKind::GreaterEq => {
                    match best.iter_mut().find(|b| b.coeffs == cc.coeffs) {
                        Some(existing) => {
                            if cc.rhs > existing.rhs {
                                existing.rhs = cc.rhs;
                            }
                        }
                        None => best.push(cc),
                    }
                }
            }
        }
        equalities.extend(best);
        Self::with_emptiness(self.dim, equalities, self.known_empty())
    }

    /// Removes syntactically duplicate and LP-redundant constraints.
    pub fn minimize(&self) -> Polyhedron {
        if self.known_to_be_empty().is_some() || self.constraints.iter().any(violated_constant) {
            return Polyhedron::empty(self.dim);
        }
        // Canonicalise and deduplicate.
        let mut canon: Vec<Constraint> = Vec::new();
        for c in &self.constraints {
            let cc = c.canonicalize();
            if cc.coeffs.is_zero() {
                // 0 >= b with b <= 0 or 0 = 0: trivially true, drop.
                continue;
            }
            if !canon.contains(&cc) {
                canon.push(cc);
            }
        }
        // `canon` is the polyhedron without its trivially true constraints,
        // each scaled by a positive factor: loading it decides emptiness.
        let loaded = Loaded::new(self.dim, &canon);
        let _ = self.empty.set(loaded.is_none());
        let Some(mut loaded) = loaded else {
            return Polyhedron::empty(self.dim);
        };
        // Drop, in order, each inequality that the constraints still kept
        // entail without it.
        let mut count = canon.len();
        let keep = canon.into_iter().enumerate().filter_map(|(i, c)| {
            let drop =
                c.kind == ConstraintKind::GreaterEq && count > 1 && loaded.redundant(i, &c.rhs);
            count -= usize::from(drop);
            (!drop).then_some(c)
        });
        Self::with_emptiness(self.dim, keep.collect(), Some(false))
    }

    // ------------------------------------------------------------------
    // Fourier–Motzkin projection
    // ------------------------------------------------------------------

    /// Eliminates (projects out) the variable at index `var`, returning a
    /// polyhedron over the remaining `dim − 1` variables in their original
    /// order.
    pub fn eliminate_dim(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        let drop_var = |v: &QVector| -> QVector {
            v.iter()
                .enumerate()
                .filter(|(i, _)| *i != var)
                .map(|(_, x)| x.clone())
                .collect()
        };

        // If some equality constrains `var`, substitute it away.
        if let Some(pos) = self
            .constraints
            .iter()
            .position(|c| c.kind == ConstraintKind::Equality && !c.coeffs[var].is_zero())
        {
            let eq = &self.constraints[pos];
            let pivot = eq.coeffs[var].clone();
            let mut out = Vec::new();
            for (i, c) in self.constraints.iter().enumerate() {
                if i == pos {
                    continue;
                }
                if c.coeffs[var].is_zero() {
                    out.push(Constraint {
                        coeffs: drop_var(&c.coeffs),
                        rhs: c.rhs.clone(),
                        kind: c.kind,
                    });
                } else {
                    // c - (c_var / pivot) * eq  has a zero coefficient on var.
                    let factor = -&(&c.coeffs[var] / &pivot);
                    let coeffs = c.coeffs.add_scaled(&eq.coeffs, &factor);
                    let rhs = &c.rhs + &(&eq.rhs * &factor);
                    out.push(Constraint {
                        coeffs: drop_var(&coeffs),
                        rhs,
                        kind: c.kind,
                    });
                }
            }
            return Self::with_emptiness(self.dim - 1, out, self.known_empty());
        }

        // Otherwise classic Fourier–Motzkin on inequalities.
        let ineqs: Vec<Constraint> = self
            .constraints
            .iter()
            .flat_map(|c| c.as_inequalities())
            .collect();
        let mut lower = Vec::new(); // coefficient on var > 0 (a·x >= b gives lower bound on var)
        let mut upper = Vec::new(); // coefficient on var < 0
        let mut rest = Vec::new();
        for c in ineqs {
            if c.coeffs[var].is_positive() {
                lower.push(c);
            } else if c.coeffs[var].is_negative() {
                upper.push(c);
            } else {
                rest.push(Constraint {
                    coeffs: drop_var(&c.coeffs),
                    rhs: c.rhs,
                    kind: ConstraintKind::GreaterEq,
                });
            }
        }
        let mut out = rest;
        for lo in &lower {
            for up in &upper {
                // lo: a·x >= b with a_var > 0 ; up: c·x >= d with c_var < 0.
                // Combine: a_var * up + (-c_var) * lo eliminates var.
                let a_var = lo.coeffs[var].clone();
                let c_var = up.coeffs[var].clone();
                let coeffs = up.coeffs.scale(&a_var).add_scaled(&lo.coeffs, &-&c_var);
                let rhs = &(&up.rhs * &a_var) + &(&lo.rhs * &-&c_var);
                let combined = Constraint {
                    coeffs: drop_var(&coeffs),
                    rhs,
                    kind: ConstraintKind::GreaterEq,
                }
                .canonicalize();
                if combined.coeffs.is_zero() {
                    if combined.rhs.is_positive() {
                        // 0 >= positive: the projection is empty.
                        return Polyhedron::empty(self.dim - 1);
                    }
                    continue;
                }
                if !out.contains(&combined) {
                    out.push(combined);
                }
            }
        }
        Self::with_emptiness(self.dim - 1, out, self.known_empty())
    }

    /// Eliminates several dimensions (indices into the *current* space).
    /// Dimensions are removed from highest to lowest so indices stay valid.
    pub fn eliminate_dims(&self, dims: &[usize]) -> Polyhedron {
        let mut sorted: Vec<usize> = dims.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut cur = self.clone();
        for &d in sorted.iter().rev() {
            cur = cur.eliminate_dim(d).light_reduce();
            // Keep intermediate systems small: Fourier–Motzkin can square the
            // constraint count at every step, so fall back to LP-based
            // minimisation when the system grows too much.
            if cur.num_constraints() > 48 {
                cur = cur.minimize();
            }
        }
        cur
    }

    /// Reorders dimensions: the result's dimension `i` is the current
    /// dimension `perm[i]`. `perm` must be a permutation of `0..dim`.
    pub fn permute_dims(&self, perm: &[usize]) -> Polyhedron {
        assert_eq!(perm.len(), self.dim);
        let constraints = self
            .constraints
            .iter()
            .map(|c| Constraint {
                coeffs: perm.iter().map(|&j| c.coeffs[j].clone()).collect(),
                rhs: c.rhs.clone(),
                kind: c.kind,
            })
            .collect();
        Self::with_emptiness(self.dim, constraints, self.known_empty())
    }

    /// Extends the ambient space with `extra` fresh unconstrained dimensions
    /// (appended at the end).
    pub fn extend_dims(&self, extra: usize) -> Polyhedron {
        let constraints = self
            .constraints
            .iter()
            .map(|c| c.extend_dim(self.dim + extra))
            .collect();
        Self::with_emptiness(self.dim + extra, constraints, self.known_empty())
    }

    /// Image of the polyhedron under the affine assignment
    /// `x_var := coeffs·x + constant` (all other variables unchanged).
    pub fn affine_assign(&self, var: usize, coeffs: &QVector, constant: &Rational) -> Polyhedron {
        assert!(var < self.dim);
        assert_eq!(coeffs.dim(), self.dim);
        // Introduce a fresh variable t = coeffs·x + constant, eliminate the old
        // x_var, then move t into position var.
        let mut ext = self.extend_dims(1);
        let mut eq_coeffs = coeffs.entries().to_vec();
        eq_coeffs.push(-Rational::one()); // coeffs·x - t = -constant
        ext.add_constraint(Constraint::eq(
            QVector::from_vec(eq_coeffs),
            -constant.clone(),
        ));
        let eliminated = ext.eliminate_dim(var);
        // Current order: 0..var-1, var+1..dim-1, t. Move t (last) to `var`.
        let n = eliminated.dim();
        let mut perm: Vec<usize> = Vec::with_capacity(n);
        for i in 0..var {
            perm.push(i);
        }
        perm.push(n - 1);
        for i in var..n - 1 {
            perm.push(i);
        }
        // The image of an affine map is empty exactly when its input is
        // (`add_constraint` above forgot a "non-empty" answer).
        Self::with_emptiness(
            self.dim,
            eliminated.permute_dims(&perm).constraints,
            self.known_empty(),
        )
    }

    /// Forgets all information about a variable (unconstrained assignment,
    /// e.g. `x := nondet()`).
    pub fn forget_dim(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        let eliminated = self.eliminate_dim(var);
        let n = self.dim;
        let mut constraints: Vec<Constraint> = eliminated
            .constraints
            .iter()
            .map(|c| {
                // Re-insert a zero coefficient at position `var`.
                let mut coeffs: Vec<Rational> = Vec::with_capacity(n);
                let mut it = c.coeffs.iter().cloned();
                for i in 0..n {
                    if i == var {
                        coeffs.push(Rational::zero());
                    } else {
                        coeffs.push(it.next().expect("dimension bookkeeping"));
                    }
                }
                Constraint {
                    coeffs: QVector::from_vec(coeffs),
                    rhs: c.rhs.clone(),
                    kind: c.kind,
                }
            })
            .collect();
        if eliminated.constraints.is_empty() {
            constraints = Vec::new();
        }
        Self::with_emptiness(n, constraints, self.known_empty())
    }

    // ------------------------------------------------------------------
    // Backward transfer functions (pre-images)
    // ------------------------------------------------------------------

    /// Exact pre-image of the polyhedron under the affine assignment
    /// `x_var := coeffs·x + constant`: the set
    /// `{x | x[var := coeffs·x + constant] ∈ self}`.
    ///
    /// Computed by substituting the assigned expression into every
    /// constraint — no projection is needed, so this is much cheaper than the
    /// forward [`Polyhedron::affine_assign`].
    pub fn affine_preimage(&self, var: usize, coeffs: &QVector, constant: &Rational) -> Polyhedron {
        assert!(var < self.dim);
        assert_eq!(coeffs.dim(), self.dim);
        let constraints = self
            .constraints
            .iter()
            .map(|c| {
                let a_var = c.coeffs[var].clone();
                if a_var.is_zero() {
                    return c.clone();
                }
                // a·y ≥ b with y_var = coeffs·x + constant and y_i = x_i
                // elsewhere becomes (a − a_var·e_var + a_var·coeffs)·x
                // ≥ b − a_var·constant.
                let mut out = c.coeffs.add_scaled(coeffs, &a_var);
                out = out.add_scaled(&QVector::unit(self.dim, var), &-&a_var);
                Constraint {
                    coeffs: out,
                    rhs: &c.rhs - &(&a_var * constant),
                    kind: c.kind,
                }
            })
            .collect();
        Self::with_emptiness(self.dim, constraints, self.known_to_be_empty())
    }

    /// Pre-image of the polyhedron under `x_var := nondet()` for *demonic*
    /// non-determinism: the states whose **every** havoc successor lies in
    /// `self` (`{x | ∀v. x[var := v] ∈ self}`).
    ///
    /// A (non-redundant) constraint mentioning `var` can be violated by
    /// choosing `v` large or small enough, so the result is empty as soon as
    /// the minimised representation constrains `var`; otherwise the
    /// polyhedron is unchanged. This is the `∀`-dual of the forward
    /// [`Polyhedron::forget_dim`] (`∃`-projection) and the co-transfer used
    /// by the backward precondition analysis of `termite-invariants`.
    pub fn havoc_preimage(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim);
        if self.is_empty() {
            return Polyhedron::empty(self.dim);
        }
        let reduced = self.minimize();
        if reduced.constraints.iter().any(|c| !c.coeffs[var].is_zero()) {
            return Polyhedron::empty(self.dim);
        }
        reduced
    }

    // ------------------------------------------------------------------
    // Generators (double description)
    // ------------------------------------------------------------------

    /// Computes a generator representation (vertices and rays) of the
    /// polyhedron, by running a Chernikova-style double-description
    /// construction on the homogenised cone.
    ///
    /// The returned set generates the polyhedron but is not guaranteed to be
    /// minimal when the polyhedron is not pointed (lines are returned as pairs
    /// of opposite rays).
    pub fn generators(&self) -> Vec<Generator> {
        if self.is_empty() {
            return Vec::new();
        }
        let d = self.dim;
        let cone_dim = d + 1;
        // Homogenised constraints a·x - b·ξ >= 0 plus ξ >= 0.
        let mut cone_constraints: Vec<QVector> = Vec::new();
        {
            let mut xi_pos = vec![Rational::zero(); cone_dim];
            xi_pos[d] = Rational::one();
            cone_constraints.push(QVector::from_vec(xi_pos));
        }
        for c in &self.constraints {
            for ineq in c.as_inequalities() {
                let mut v = ineq.coeffs.entries().to_vec();
                v.push(-ineq.rhs.clone());
                cone_constraints.push(QVector::from_vec(v));
            }
        }

        // Initial generating system of {y | ξ(y) unconstrained}: all ± axes
        // and the ξ axis (the first constraint ξ >= 0 prunes it).
        let mut rays: Vec<QVector> = Vec::new();
        for i in 0..cone_dim {
            rays.push(QVector::unit(cone_dim, i));
            if i < d {
                rays.push(-&QVector::unit(cone_dim, i));
            }
        }

        let mut processed: Vec<QVector> = Vec::new();
        for c in &cone_constraints {
            let mut pos = Vec::new();
            let mut zero = Vec::new();
            let mut neg = Vec::new();
            for r in rays.drain(..) {
                let s = c.dot(&r);
                if s.is_positive() {
                    pos.push(r);
                } else if s.is_negative() {
                    neg.push(r);
                } else {
                    zero.push(r);
                }
            }
            let mut next: Vec<QVector> = Vec::new();
            let push_unique = |v: QVector, store: &mut Vec<QVector>| {
                if v.is_zero() {
                    return;
                }
                let canon = v.canonical_direction();
                if !store.contains(&canon) {
                    store.push(canon);
                }
            };
            for r in pos.iter().chain(zero.iter()) {
                push_unique(r.clone(), &mut next);
            }
            for p in &pos {
                for n in &neg {
                    // (c·p)·n − (c·n)·p lies on the hyperplane c·y = 0 and is a
                    // conic combination of p and n.
                    let cp = c.dot(p);
                    let cn = c.dot(n);
                    let comb = n.scale(&cp).add_scaled(p, &-&cn);
                    push_unique(comb, &mut next);
                }
            }
            processed.push(c.clone());
            // When the current cone is pointed, prune non-extreme rays: a ray
            // is extreme iff the constraints it saturates have rank
            // cone_dim − 1.
            let constr_matrix = QMatrix::from_rows(processed.clone());
            let pointed = constr_matrix.null_space().is_empty();
            if pointed && next.len() > cone_dim {
                next.retain(|r| {
                    let saturated: Vec<QVector> = processed
                        .iter()
                        .filter(|cc| cc.dot(r).is_zero())
                        .cloned()
                        .collect();
                    if saturated.is_empty() {
                        return cone_dim <= 1;
                    }
                    QMatrix::from_rows(saturated).rank() >= cone_dim - 1
                });
            }
            rays = next;
        }

        let mut out = Vec::new();
        for r in rays {
            let xi = r[d].clone();
            if xi.is_positive() {
                let inv = xi.recip();
                out.push(Generator::Vertex(r.slice(0, d).scale(&inv)));
            } else if xi.is_zero() {
                let dir = r.slice(0, d);
                if !dir.is_zero() {
                    out.push(Generator::Ray(dir));
                }
            }
            // ξ < 0 cannot happen: the ξ >= 0 constraint is processed first.
        }
        out
    }

    /// The vertices of the polyhedron.
    pub fn vertices(&self) -> Vec<QVector> {
        self.generators()
            .into_iter()
            .filter_map(|g| match g {
                Generator::Vertex(v) => Some(v),
                Generator::Ray(_) => None,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Lattice operations for abstract interpretation
    // ------------------------------------------------------------------

    /// Closed convex hull of the union of two polyhedra, computed by the
    /// standard "mixing" encoding followed by Fourier–Motzkin projection.
    ///
    /// The encoding splits a point `x` of the hull as `x = y + z` with
    /// `y ∈ λ·self`, `z ∈ (1−λ)·other`, `0 ≤ λ ≤ 1`, and substitutes
    /// `z = x − y`, so only `d + 1` auxiliary variables (`y` and `λ`) need to
    /// be projected out.
    pub fn convex_hull(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let d = self.dim;
        // Variables: x (0..d), y (d..2d), λ (2d).
        let total = 2 * d + 1;
        let mut constraints: Vec<Constraint> = Vec::new();
        // A_self y >= λ b_self
        for c in &self.constraints {
            let mut v = vec![Rational::zero(); total];
            for i in 0..d {
                v[d + i] = c.coeffs[i].clone();
            }
            v[2 * d] = -c.rhs.clone();
            constraints.push(Constraint {
                coeffs: QVector::from_vec(v),
                rhs: Rational::zero(),
                kind: c.kind,
            });
        }
        // A_other (x − y) >= (1 − λ) b_other
        for c in &other.constraints {
            let mut v = vec![Rational::zero(); total];
            for i in 0..d {
                v[i] = c.coeffs[i].clone();
                v[d + i] = -&c.coeffs[i];
            }
            v[2 * d] = c.rhs.clone();
            constraints.push(Constraint {
                coeffs: QVector::from_vec(v),
                rhs: c.rhs.clone(),
                kind: c.kind,
            });
        }
        // 0 <= λ <= 1
        {
            let mut vl = vec![Rational::zero(); total];
            vl[2 * d] = Rational::one();
            constraints.push(Constraint::ge(
                QVector::from_vec(vl.clone()),
                Rational::zero(),
            ));
            constraints.push(Constraint::le(QVector::from_vec(vl), Rational::one()));
        }
        // Non-empty (λ = 1, y = x ∈ self), so the projection is too.
        let big = Self::with_emptiness(total, constraints, Some(false));
        let to_eliminate: Vec<usize> = (d..total).collect();
        big.eliminate_dims(&to_eliminate).minimize()
    }

    /// A cheap over-approximation of the convex hull ("weak join"): keeps the
    /// constraints of each operand that are entailed by the other. The result
    /// contains the exact hull but may be strictly larger (slanted constraints
    /// that appear in neither operand are not discovered). Abstract
    /// interpreters use it when the exact [`Polyhedron::convex_hull`] is too
    /// expensive.
    pub fn weak_join(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let mut sessions = [self.entailment(), other.entailment()];
        if sessions[0].is_empty() {
            return other.clone();
        }
        if sessions[1].is_empty() {
            return self.clone();
        }
        let mut kept: Vec<Constraint> = Vec::new();
        // Each operand's constraints go to the other operand's session.
        for (from, session) in [self, other].into_iter().zip(sessions.iter_mut().rev()) {
            for c in from.constraints.iter().flat_map(|c| c.as_inequalities()) {
                if session.entails(&c) {
                    kept.push(c);
                }
            }
        }
        // Both operands are non-empty, and the join contains them.
        Self::with_emptiness(self.dim, kept, Some(false)).light_reduce()
    }

    /// Standard (Cousot–Halbwachs) widening: keeps the constraints of `self`
    /// that are still entailed by `other`. Assumes `self ⊆ other` in the
    /// intended use (ascending iteration).
    pub fn widen(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.is_empty() {
            return other.clone();
        }
        let mut session = other.entailment();
        let kept: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|c| session.entails(c))
            .cloned()
            .collect();
        // A subset of the constraints of the non-empty `self`.
        Self::with_emptiness(self.dim, kept, Some(false))
    }
}

/// Entailment queries on one polyhedron, answered warm from one tableau
/// ([`Polyhedron::entailment`]).
///
/// The first query that needs the tableau loads the constraints and checks
/// them, which fills the polyhedron's emptiness memo; nothing else is kept
/// on the polyhedron. Each query `a·x ≥ b` then first evaluates `a·x` at
/// the tableau's current feasible point, where a value below `b` answers
/// "no" without a pivot; otherwise it minimizes `a·x` on one objective row
/// per direction, which later queries with the same coefficients reuse,
/// and answers whether the minimum reaches `b`.
///
/// ```
/// use termite_polyhedra::{Constraint, Polyhedron};
/// use termite_linalg::QVector;
/// use termite_num::Rational;
///
/// // The square 0 <= x, y <= 2.
/// let unit = |i| QVector::from_i64(if i == 0 { &[1, 0] } else { &[0, 1] });
/// let square = Polyhedron::from_constraints(2, vec![
///     Constraint::ge(unit(0), Rational::from(0)),
///     Constraint::le(unit(0), Rational::from(2)),
///     Constraint::ge(unit(1), Rational::from(0)),
///     Constraint::le(unit(1), Rational::from(2)),
/// ]);
/// let mut session = square.entailment();
/// let sum = QVector::from_i64(&[1, 1]);
/// assert!(session.entails(&Constraint::le(sum.clone(), Rational::from(4))));
/// assert!(!session.entails(&Constraint::le(sum, Rational::from(3))));
/// ```
pub struct Entailment<'a> {
    polyhedron: &'a Polyhedron,
    /// `None` until loaded; then `Some(None)` for an empty polyhedron.
    loaded: Option<Option<Loaded>>,
}

impl Entailment<'_> {
    /// Whether every point of the polyhedron satisfies `c`.
    pub fn entails(&mut self, c: &Constraint) -> bool {
        assert_eq!(c.dim(), self.polyhedron.dim, "dimension mismatch");
        match c.kind {
            ConstraintKind::Equality => c.as_inequalities().iter().all(|ineq| self.entails(ineq)),
            // 0 ≥ b for b ≤ 0 holds everywhere.
            ConstraintKind::GreaterEq if c.coeffs.is_zero() && !c.rhs.is_positive() => true,
            // The empty set entails everything.
            ConstraintKind::GreaterEq => self.loaded().is_none_or(|loaded| loaded.entails(c)),
        }
    }

    /// Whether the polyhedron is empty: the memo's answer, or the
    /// session's loading check.
    fn is_empty(&mut self) -> bool {
        self.loaded().is_none()
    }

    /// The loaded tableau, `None` for an empty polyhedron; loads it on
    /// first use unless the polyhedron is known to be empty.
    fn loaded(&mut self) -> Option<&mut Loaded> {
        let polyhedron = self.polyhedron;
        let loaded = self
            .loaded
            .get_or_insert_with(|| match polyhedron.known_empty() {
                Some(true) => None,
                _ => polyhedron.load(),
            });
        loaded.as_mut()
    }
}

/// A non-empty system of constraints on a feasible [`BoundedTableau`]: one
/// free column per dimension, then one row per constraint carrying its
/// bound (an equality as both bounds), then the objective rows that
/// entailment queries add.
struct Loaded {
    tableau: BoundedTableau,
    /// The row variable of each constraint.
    rows: Vec<usize>,
    /// A row variable for each direction minimized so far (the
    /// constraints' own rows first).
    directions: Vec<(QVector, usize)>,
}

impl Loaded {
    /// Loads `constraints` over `dim` variables and checks them: `None`
    /// when they are infeasible.
    fn new(dim: usize, constraints: &[Constraint]) -> Option<Loaded> {
        if constraints.iter().any(violated_constant) {
            return None;
        }
        let mut tableau = BoundedTableau::new();
        for _ in 0..dim {
            tableau.add_column();
        }
        let rows: Vec<usize> = constraints
            .iter()
            .map(|c| {
                let row = tableau.add_row(nonzero_terms(&c.coeffs));
                tableau.assert_bound(row, Bound::Lower(c.rhs.clone()));
                if c.kind == ConstraintKind::Equality {
                    tableau.assert_bound(row, Bound::Upper(c.rhs.clone()));
                }
                row
            })
            .collect();
        let check = tableau.check(&Interrupt::never());
        if check.expect("an unarmed interrupt never fires").is_some() {
            return None;
        }
        let directions = constraints
            .iter()
            .zip(&rows)
            .map(|(c, &row)| (c.coeffs.clone(), row))
            .collect();
        Some(Loaded {
            tableau,
            rows,
            directions,
        })
    }

    /// Whether the loaded constraints entail the inequality `c`.
    fn entails(&mut self, c: &Constraint) -> bool {
        let at_point = nonzero_terms(&c.coeffs)
            .map(|(i, a)| &a * self.tableau.value(i))
            .fold(Rational::zero(), |sum, term| &sum + &term);
        if at_point < c.rhs {
            return false;
        }
        let row = self.direction(&c.coeffs);
        self.minimum(row).is_some_and(|min| min >= c.rhs)
    }

    /// Whether constraint `i`, an inequality `a·x ≥ rhs`, follows from the
    /// other constraints whose bounds are asserted. A redundant
    /// constraint's bound stays retracted; any other's is re-asserted.
    fn redundant(&mut self, i: usize, rhs: &Rational) -> bool {
        let row = self.rows[i];
        self.tableau.retract(row);
        if self.minimum(row).is_some_and(|min| min >= *rhs) {
            return true;
        }
        self.tableau.assert_bound(row, Bound::Lower(rhs.clone()));
        let check = self.tableau.check(&Interrupt::never());
        debug_assert_eq!(check, Ok(None), "a subset of feasible constraints");
        false
    }

    /// The row variable of direction `coeffs`, added on first use.
    fn direction(&mut self, coeffs: &QVector) -> usize {
        if let Some((_, row)) = self.directions.iter().find(|(d, _)| d == coeffs) {
            return *row;
        }
        let row = self.tableau.add_row(nonzero_terms(coeffs));
        self.directions.push((coeffs.clone(), row));
        row
    }

    /// The minimum of `var`, `None` when unbounded below.
    fn minimum(&mut self, var: usize) -> Option<Rational> {
        let minimum = self.tableau.minimize(var, &Interrupt::never());
        minimum.expect("an unarmed interrupt never fires")
    }
}

/// The non-zero coefficients of `coeffs`, by index: a row over the columns
/// of a [`Loaded`] tableau.
fn nonzero_terms(coeffs: &QVector) -> impl Iterator<Item = (usize, Rational)> + '_ {
    coeffs
        .iter()
        .cloned()
        .enumerate()
        .filter(|(_, a)| !a.is_zero())
}

/// Whether `c` has all-zero coefficients and is violated (`0 ≥ 1`, `0 = 1`).
fn violated_constant(c: &Constraint) -> bool {
    c.coeffs.is_zero()
        && match c.kind {
            ConstraintKind::GreaterEq => c.rhs.is_positive(),
            ConstraintKind::Equality => !c.rhs.is_zero(),
        }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "⊤ (Q^{})", self.dim);
        }
        write!(f, "{{ ")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use termite_lp::{Constraint as LpConstraint, LinearProgram, LpOutcome, Relation};

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// 0 <= x <= a, 0 <= y <= b box.
    fn boxed(a: i64, b: i64) -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(0)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(a)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(b)),
            ],
        )
    }

    #[test]
    fn emptiness_and_membership() {
        let p = boxed(2, 3);
        assert!(!p.is_empty());
        assert!(p.contains_point(&QVector::from_i64(&[1, 2])));
        assert!(!p.contains_point(&QVector::from_i64(&[3, 0])));
        let mut e = p.clone();
        e.add_constraint(Constraint::ge(QVector::from_i64(&[1, 0]), q(5)));
        assert!(e.is_empty());
        assert!(Polyhedron::universe(3).contains_point(&QVector::from_i64(&[9, -9, 0])));
        assert!(Polyhedron::empty(2).is_empty());
    }

    #[test]
    fn entailment_and_inclusion() {
        let small = boxed(1, 1);
        let large = boxed(5, 5);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
        assert!(small.entails(&Constraint::le(QVector::from_i64(&[1, 1]), q(2))));
        assert!(!small.entails(&Constraint::le(QVector::from_i64(&[1, 1]), q(1))));
        // An empty polyhedron entails everything.
        assert!(Polyhedron::empty(2).entails(&Constraint::ge(QVector::from_i64(&[1, 0]), q(100))));
    }

    #[test]
    fn generators_of_a_box() {
        let p = boxed(2, 3);
        let gens = p.generators();
        let vertices: Vec<_> = gens.iter().filter(|g| g.is_vertex()).collect();
        assert_eq!(vertices.len(), 4);
        assert!(gens.iter().all(|g| g.is_vertex()));
        for corner in [[0, 0], [2, 0], [0, 3], [2, 3]] {
            let v = QVector::from_i64(&[corner[0], corner[1]]);
            assert!(
                vertices.iter().any(|g| g.vector() == &v),
                "missing corner {v}"
            );
        }
    }

    #[test]
    fn generators_with_rays() {
        // x >= 1, y >= 0, unbounded in both +x and +y directions.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(1)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
            ],
        );
        let gens = p.generators();
        let n_vertices = gens.iter().filter(|g| g.is_vertex()).count();
        let n_rays = gens.iter().filter(|g| g.is_ray()).count();
        assert_eq!(n_vertices, 1);
        assert_eq!(n_rays, 2);
        assert!(gens.contains(&Generator::Vertex(QVector::from_i64(&[1, 0]))));
        assert!(gens.contains(&Generator::Ray(QVector::from_i64(&[1, 0]))));
        assert!(gens.contains(&Generator::Ray(QVector::from_i64(&[0, 1]))));
    }

    #[test]
    fn generators_of_empty() {
        assert!(Polyhedron::empty(2).generators().is_empty());
    }

    #[test]
    fn generators_of_paper_example_1_invariant() {
        // I = {0 <= x+1, x <= 11, 0 <= y+1, y <= x+5, x+y <= 15}
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(-1)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(11)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(-1)),
                Constraint::le(QVector::from_i64(&[-1, 1]), q(5)),
                Constraint::le(QVector::from_i64(&[1, 1]), q(15)),
            ],
        );
        assert!(!p.is_empty());
        let gens = p.generators();
        assert!(gens.iter().all(|g| g.is_vertex()));
        // The invariant is a bounded pentagon.
        assert_eq!(gens.len(), 5);
        assert!(p.contains_point(&QVector::from_i64(&[5, 10])));
    }

    #[test]
    fn fourier_motzkin_projection() {
        // Triangle 0 <= y <= x <= 4, projected on x gives [0, 4]... projecting out y.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::ge(QVector::from_i64(&[1, -1]), q(0)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(4)),
            ],
        );
        let proj = p.eliminate_dim(1);
        assert_eq!(proj.dim(), 1);
        assert!(proj.contains_point(&QVector::from_i64(&[0])));
        assert!(proj.contains_point(&QVector::from_i64(&[4])));
        assert!(!proj.contains_point(&QVector::from_i64(&[5])));
        assert!(!proj.contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn projection_with_equality_substitution() {
        // x = y + 1, 0 <= y <= 3 ; eliminating y gives 1 <= x <= 4.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq(QVector::from_i64(&[1, -1]), q(1)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(3)),
            ],
        );
        let proj = p.eliminate_dim(1);
        assert!(proj.contains_point(&QVector::from_i64(&[1])));
        assert!(proj.contains_point(&QVector::from_i64(&[4])));
        assert!(!proj.contains_point(&QVector::from_i64(&[0])));
        assert!(!proj.contains_point(&QVector::from_i64(&[5])));
    }

    #[test]
    fn affine_assignment_image() {
        // Box 0<=x<=2, 0<=y<=3, then x := x + y.
        let p = boxed(2, 3);
        let img = p.affine_assign(0, &QVector::from_i64(&[1, 1]), &q(0));
        assert_eq!(img.dim(), 2);
        // (x, y) = (5, 3) reachable from (2, 3); (6, 3) is not.
        assert!(img.contains_point(&QVector::from_i64(&[5, 3])));
        assert!(!img.contains_point(&QVector::from_i64(&[6, 3])));
        assert!(img.contains_point(&QVector::from_i64(&[0, 0])));
        assert!(!img.contains_point(&QVector::from_i64(&[-1, 0])));
    }

    #[test]
    fn affine_preimage_inverts_assignment() {
        // Box 0<=x<=2, 0<=y<=3; preimage of x := x + y is the set of states
        // whose post-assignment image lands in the box.
        let p = boxed(2, 3);
        let pre = p.affine_preimage(0, &QVector::from_i64(&[1, 1]), &q(0));
        // (1, 1) maps to (2, 1) ∈ box; (2, 1) maps to (3, 1) ∉ box.
        assert!(pre.contains_point(&QVector::from_i64(&[1, 1])));
        assert!(!pre.contains_point(&QVector::from_i64(&[2, 1])));
        // (-3, 3) maps to (0, 3) ∈ box.
        assert!(pre.contains_point(&QVector::from_i64(&[-3, 3])));
    }

    #[test]
    fn havoc_preimage_is_universal_quantification() {
        // ∀v. (v, y) ∈ box is impossible (x is bounded): empty.
        let p = boxed(2, 3);
        assert!(p.havoc_preimage(0).is_empty());
        // A polyhedron that does not constrain x survives unchanged.
        let only_y = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(3)),
            ],
        );
        let pre = only_y.havoc_preimage(0);
        assert!(pre.contains_point(&QVector::from_i64(&[100, 2])));
        assert!(!pre.contains_point(&QVector::from_i64(&[0, 4])));
        // A redundant x-mentioning constraint must not flip the verdict.
        let mut redundant = only_y.clone();
        redundant.add_constraint(Constraint::ge(QVector::from_i64(&[1, 1]), q(-1000000)));
        // x + y >= -1000000 is not entailed by 0 <= y <= 3 alone, so the
        // minimised form keeps an x constraint and the preimage is empty —
        // the sound answer (pick v very negative).
        assert!(redundant.havoc_preimage(0).is_empty());
        assert!(Polyhedron::empty(2).havoc_preimage(1).is_empty());
        assert!(!Polyhedron::universe(2).havoc_preimage(0).is_empty());
    }

    #[test]
    fn forget_dimension() {
        let p = boxed(2, 3);
        let f = p.forget_dim(1);
        assert!(f.contains_point(&QVector::from_i64(&[1, 100])));
        assert!(!f.contains_point(&QVector::from_i64(&[3, 0])));
    }

    #[test]
    fn convex_hull_of_two_points() {
        let a =
            Polyhedron::from_constraints(1, vec![Constraint::eq(QVector::from_i64(&[1]), q(0))]);
        let b =
            Polyhedron::from_constraints(1, vec![Constraint::eq(QVector::from_i64(&[1]), q(4))]);
        let hull = a.convex_hull(&b);
        assert!(hull.contains_point(&QVector::from_i64(&[0])));
        assert!(hull.contains_point(&QVector::from_i64(&[2])));
        assert!(hull.contains_point(&QVector::from_i64(&[4])));
        assert!(!hull.contains_point(&QVector::from_i64(&[5])));
        assert!(!hull.contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn convex_hull_with_empty() {
        let a = boxed(1, 1);
        let e = Polyhedron::empty(2);
        assert!(a.convex_hull(&e).equal(&a));
        assert!(e.convex_hull(&a).equal(&a));
    }

    #[test]
    fn convex_hull_of_boxes() {
        let a = boxed(1, 1);
        let b = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(3)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(4)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(0)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(1)),
            ],
        );
        let hull = a.convex_hull(&b);
        assert!(hull.contains_point(&QVector::from_i64(&[2, 0])));
        assert!(hull.contains_point(&QVector::from_i64(&[2, 1])));
        assert!(!hull.contains_point(&QVector::from_i64(&[2, 2])));
        assert!(!hull.contains_point(&QVector::from_i64(&[5, 0])));
    }

    #[test]
    fn widening_drops_unstable_bounds() {
        // Old: 0 <= x <= 1 ; New: 0 <= x <= 2. Widening drops the upper bound.
        let old = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), q(0)),
                Constraint::le(QVector::from_i64(&[1]), q(1)),
            ],
        );
        let new = Polyhedron::from_constraints(
            1,
            vec![
                Constraint::ge(QVector::from_i64(&[1]), q(0)),
                Constraint::le(QVector::from_i64(&[1]), q(2)),
            ],
        );
        let w = old.widen(&new);
        assert!(w.contains_point(&QVector::from_i64(&[1000])));
        assert!(!w.contains_point(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn minimize_removes_redundant() {
        let mut p = boxed(2, 2);
        p.add_constraint(Constraint::le(QVector::from_i64(&[1, 1]), q(100)));
        p.add_constraint(Constraint::le(QVector::from_i64(&[1, 0]), q(2)));
        let m = p.minimize();
        assert!(m.num_constraints() <= 4);
        assert!(m.equal(&p));
    }

    /// A constraint over Q² with small integer coefficients; one in four is
    /// an equality.
    fn small_constraint() -> impl Strategy<Value = Constraint> {
        (-2i64..3, -2i64..3, -3i64..4, 0u8..4).prop_map(|(a, b, rhs, kind)| {
            let coeffs = QVector::from_i64(&[a, b]);
            if kind == 0 {
                Constraint::eq(coeffs, q(rhs))
            } else {
                Constraint::ge(coeffs, q(rhs))
            }
        })
    }

    /// A polyhedron over Q² with up to four small constraints.
    fn small_polyhedron() -> impl Strategy<Value = Polyhedron> {
        prop::collection::vec(small_constraint(), 0..5)
            .prop_map(|cs| Polyhedron::from_constraints(2, cs))
    }

    /// Whether the two-phase simplex finds `p`'s constraints infeasible: an
    /// emptiness oracle independent of the bounded tableau.
    fn lp_says_empty(p: &Polyhedron) -> bool {
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..p.dim())
            .map(|i| lp.add_free_var(format!("x{i}")))
            .collect();
        for c in p.constraints() {
            let terms = c.coeffs.iter().enumerate();
            let relation = match c.kind {
                ConstraintKind::GreaterEq => Relation::Ge,
                ConstraintKind::Equality => Relation::Eq,
            };
            lp.add_constraint(LpConstraint::new(
                terms.map(|(i, a)| (vars[i], a.clone())).collect(),
                relation,
                c.rhs.clone(),
            ));
        }
        lp.solve().outcome == LpOutcome::Infeasible
    }

    /// Whether the two-phase simplex finds that `p` entails `c`: `c` (each
    /// half of an equality) minimized cold over `p`'s constraints reaches
    /// its right-hand side, or `p` is empty. An entailment oracle
    /// independent of the bounded tableau and of the emptiness memo.
    fn lp_says_entailed(p: &Polyhedron, c: &Constraint) -> bool {
        c.as_inequalities().iter().all(|ineq| {
            let mut lp = LinearProgram::new();
            let vars: Vec<_> = (0..p.dim())
                .map(|i| lp.add_free_var(format!("x{i}")))
                .collect();
            let terms = |coeffs: &QVector| -> Vec<_> {
                let nonzero = coeffs.iter().enumerate().filter(|(_, a)| !a.is_zero());
                nonzero.map(|(i, a)| (vars[i], a.clone())).collect()
            };
            for cc in p.constraints().iter().flat_map(|cc| cc.as_inequalities()) {
                lp.add_constraint(LpConstraint::new(terms(&cc.coeffs), Relation::Ge, cc.rhs));
            }
            lp.minimize(terms(&ineq.coeffs));
            match lp.solve().outcome {
                LpOutcome::Infeasible => true,
                LpOutcome::Unbounded { .. } => false,
                LpOutcome::Optimal { objective, .. } => objective >= ineq.rhs,
            }
        })
    }

    /// [`Polyhedron::minimize`] as the per-candidate loop it replaces: each
    /// inequality in turn is dropped when a cold LP finds it entailed by
    /// the constraints still kept without it.
    fn reference_minimize(p: &Polyhedron) -> Vec<Constraint> {
        if lp_says_empty(p) {
            return Polyhedron::empty(p.dim()).constraints().to_vec();
        }
        let mut keep: Vec<Constraint> = Vec::new();
        for c in p.constraints() {
            let cc = c.canonicalize();
            if !cc.coeffs.is_zero() && !keep.contains(&cc) {
                keep.push(cc);
            }
        }
        let mut i = 0;
        while i < keep.len() {
            if keep[i].kind == ConstraintKind::GreaterEq && keep.len() > 1 {
                let mut rest = keep.clone();
                let candidate = rest.remove(i);
                if lp_says_entailed(&Polyhedron::from_constraints(p.dim(), rest), &candidate) {
                    keep.remove(i);
                    continue;
                }
            }
            i += 1;
        }
        keep
    }

    /// Queries over a pool of three directions of Q², one of them all-zero,
    /// so that directions repeat with other right-hand sides and kinds; one
    /// query in four is an equality.
    fn query_sequence() -> impl Strategy<Value = Vec<Constraint>> {
        (
            prop::collection::vec(prop::collection::vec(-2i64..3, 2), 2),
            prop::collection::vec((0usize..3, -3i64..4, 0u8..4), 1..10),
        )
            .prop_map(|(pool, picks)| {
                let mut directions: Vec<QVector> =
                    pool.iter().map(|d| QVector::from_i64(d)).collect();
                directions.push(QVector::zeros(2));
                picks
                    .into_iter()
                    .map(|(d, rhs, kind)| {
                        let coeffs = directions[d].clone();
                        if kind == 0 {
                            Constraint::eq(coeffs, q(rhs))
                        } else {
                            Constraint::ge(coeffs, q(rhs))
                        }
                    })
                    .collect()
            })
    }

    /// `p`'s (possibly memoized) emptiness equals a fresh two-phase LP check
    /// of its constraints, and the filled memo changes neither `==` nor
    /// `{:?}`.
    fn assert_emptiness_memo_sound(p: &Polyhedron) {
        let unfilled = Polyhedron::from_constraints(p.dim(), p.constraints().to_vec());
        let expected = lp_says_empty(p);
        assert_eq!(p.is_empty(), expected, "emptiness of {p}");
        let unsatisfiable = Constraint::ge(QVector::zeros(p.dim()), q(1));
        assert_eq!(p.entails(&unsatisfiable), expected, "{p} entails 0 >= 1");
        assert_eq!(p, &unfilled);
        assert_eq!(format!("{p:?}"), format!("{unfilled:?}"));
        assert_eq!(format!("{p:#?}"), format!("{unfilled:#?}"));
    }

    #[test]
    fn debug_output_has_the_derived_shape() {
        let p =
            Polyhedron::from_constraints(1, vec![Constraint::ge(QVector::from_i64(&[1]), q(0))]);
        let before = format!("{p:?}");
        assert!(!p.is_empty());
        assert_eq!(format!("{p:?}"), before);
        assert!(before.starts_with("Polyhedron { dim: 1, constraints: [Constraint {"));
    }

    proptest! {
        /// Every operation that sets or carries the emptiness memo agrees
        /// with a fresh two-phase LP check, on operands whose memos were
        /// filled first or left empty (and by the operations themselves),
        /// and after a further constraint is added to the result.
        #[test]
        fn prop_emptiness_memo_matches_a_fresh_check(
            a in small_polyhedron(),
            b in small_polyhedron(),
            extra in small_constraint(),
            coeffs in prop::collection::vec(-2i64..3, 2),
            constant in -3i64..4,
            var in 0usize..2,
            fill in any::<bool>(),
        ) {
            if fill {
                a.is_empty();
                b.is_empty();
            }
            let cv = QVector::from_i64(&coeffs);
            let k = q(constant);
            let mut grown = a.clone();
            grown.add_constraint(extra.clone());
            let results = vec![
                Polyhedron::universe(2),
                Polyhedron::empty(2),
                Polyhedron::from_constraints(2, vec![extra.clone()]),
                grown,
                a.intersection(&b),
                a.weak_join(&b),
                a.widen(&b),
                a.convex_hull(&b),
                a.minimize(),
                a.light_reduce(),
                a.eliminate_dim(var),
                a.eliminate_dims(&[0, 1]),
                a.extend_dims(1),
                a.permute_dims(&[1, 0]),
                a.forget_dim(var),
                a.affine_assign(var, &cv, &k),
                a.affine_preimage(var, &cv, &k),
                a.havoc_preimage(var),
            ];
            for result in results {
                assert_emptiness_memo_sound(&result);
                let mut constrained = result.extend_dims(2 - result.dim().min(2));
                constrained.add_constraint(extra.clone().extend_dim(constrained.dim()));
                assert_emptiness_memo_sound(&constrained);
            }
            // Entailment sessions and `minimize` fill their operands' memos.
            assert_emptiness_memo_sound(&a);
            assert_emptiness_memo_sound(&b);
        }

        /// One warm session answers a whole sequence of queries exactly as
        /// a cold two-phase LP answers each on its own, whether or not the
        /// emptiness memo was filled first; a memo that the session filled
        /// is right too.
        #[test]
        fn prop_entailment_sessions_match_the_cold_lp(
            p in small_polyhedron(),
            queries in query_sequence(),
            fill in any::<bool>(),
        ) {
            if fill {
                p.is_empty();
            }
            let mut session = p.entailment();
            for c in &queries {
                prop_assert_eq!(session.entails(c), lp_says_entailed(&p, c), "{} entails {}", p, c);
            }
            if let Some(empty) = p.known_empty() {
                prop_assert_eq!(empty, lp_says_empty(&p), "memo of {}", p);
            }
        }

        /// Redundancy removal on one tableau keeps exactly the constraints
        /// of the per-candidate loop over cold entailment LPs.
        #[test]
        fn prop_minimize_keeps_what_the_per_candidate_loop_keeps(
            constraints in prop::collection::vec(small_constraint(), 0..8),
        ) {
            let p = Polyhedron::from_constraints(2, constraints);
            prop_assert_eq!(p.minimize().constraints(), &reference_minimize(&p)[..], "{}", p);
        }

        /// Projection is sound: any point of P, with the eliminated coordinate
        /// dropped, belongs to the projection.
        #[test]
        fn prop_projection_sound(
            pts in prop::collection::vec(prop::collection::vec(-5i64..5, 3), 1..4),
            sample in prop::collection::vec(-5i64..5, 3),
        ) {
            // Build a polyhedron containing all pts: use the bounding box.
            let mut cons = Vec::new();
            for d in 0..3usize {
                let lo = pts.iter().map(|p| p[d]).min().unwrap();
                let hi = pts.iter().map(|p| p[d]).max().unwrap();
                let mut unit = vec![0i64; 3];
                unit[d] = 1;
                cons.push(Constraint::ge(QVector::from_i64(&unit), q(lo)));
                cons.push(Constraint::le(QVector::from_i64(&unit), q(hi)));
            }
            let p = Polyhedron::from_constraints(3, cons);
            let proj = p.eliminate_dim(2);
            let point = QVector::from_i64(&sample);
            if p.contains_point(&point) {
                prop_assert!(proj.contains_point(&QVector::from_i64(&sample[..2])));
            }
        }

        /// The convex hull contains both arguments and midpoints of their
        /// sample points.
        #[test]
        fn prop_hull_contains_arguments(a in -4i64..4, b in -4i64..4, c in -4i64..4, d in -4i64..4) {
            let (lo1, hi1) = (a.min(b), a.max(b));
            let (lo2, hi2) = (c.min(d), c.max(d));
            let p1 = Polyhedron::from_constraints(1, vec![
                Constraint::ge(QVector::from_i64(&[1]), q(lo1)),
                Constraint::le(QVector::from_i64(&[1]), q(hi1)),
            ]);
            let p2 = Polyhedron::from_constraints(1, vec![
                Constraint::ge(QVector::from_i64(&[1]), q(lo2)),
                Constraint::le(QVector::from_i64(&[1]), q(hi2)),
            ]);
            let hull = p1.convex_hull(&p2);
            prop_assert!(p1.is_subset_of(&hull));
            prop_assert!(p2.is_subset_of(&hull));
            // Hull of intervals is the enclosing interval.
            prop_assert!(hull.contains_point(&QVector::from_i64(&[(lo1 + hi2) / 2])) ||
                         hull.contains_point(&QVector::from_i64(&[(lo2 + hi1) / 2])));
        }

        /// `p ∈ affine_preimage(Q)` iff the assigned image of `p` is in `Q`
        /// (exactness of the backward transfer function).
        #[test]
        fn prop_affine_preimage_exact(
            bounds in prop::collection::vec(-5i64..5, 4),
            coeffs in prop::collection::vec(-3i64..3, 2),
            constant in -4i64..4,
            sample in prop::collection::vec(-6i64..6, 2),
        ) {
            let (lo_x, hi_x) = (bounds[0].min(bounds[1]), bounds[0].max(bounds[1]));
            let (lo_y, hi_y) = (bounds[2].min(bounds[3]), bounds[2].max(bounds[3]));
            let p = Polyhedron::from_constraints(2, vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(lo_x)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(hi_x)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(lo_y)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(hi_y)),
            ]);
            let cv = QVector::from_i64(&coeffs);
            let k = q(constant);
            let pre = p.affine_preimage(0, &cv, &k);
            let point = QVector::from_i64(&sample);
            // Image of `point` under x := coeffs·point + constant.
            let image = QVector::from_vec(vec![
                &cv.dot(&point) + &k,
                point[1].clone(),
            ]);
            prop_assert_eq!(pre.contains_point(&point), p.contains_point(&image));
        }

        /// The havoc preimage is contained in the polyhedron for every choice
        /// of the havocked variable (soundness of the ∀ co-transfer).
        #[test]
        fn prop_havoc_preimage_sound(
            bounds in prop::collection::vec(-5i64..5, 2),
            sample in prop::collection::vec(-6i64..6, 2),
            v in -20i64..20,
        ) {
            let (lo, hi) = (bounds[0].min(bounds[1]), bounds[0].max(bounds[1]));
            let p = Polyhedron::from_constraints(2, vec![
                Constraint::ge(QVector::from_i64(&[0, 1]), q(lo)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(hi)),
            ]);
            let pre = p.havoc_preimage(0);
            let point = QVector::from_i64(&sample);
            if pre.contains_point(&point) {
                let havocked = QVector::from_i64(&[v, sample[1]]);
                prop_assert!(p.contains_point(&havocked));
            }
        }

        /// Vertices returned by the double description all belong to the
        /// polyhedron.
        #[test]
        fn prop_vertices_belong(xs in prop::collection::vec(-4i64..6, 4)) {
            let lo_x = xs[0].min(xs[1]);
            let hi_x = xs[0].max(xs[1]) + 1;
            let lo_y = xs[2].min(xs[3]);
            let hi_y = xs[2].max(xs[3]) + 1;
            let p = Polyhedron::from_constraints(2, vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(lo_x)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(hi_x)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(lo_y)),
                Constraint::le(QVector::from_i64(&[0, 1]), q(hi_y)),
                Constraint::le(QVector::from_i64(&[1, 1]), q(hi_x + hi_y)),
            ]);
            for v in p.vertices() {
                prop_assert!(p.contains_point(&v));
            }
        }
    }
}
