//! The cross-level synthesis LP workspace.
//!
//! Algorithm 2 solves one `LP(C, Constraints(I))` *per lexicographic level*,
//! and the Farkas structure of those LPs is largely shared: the γ multipliers
//! of the invariant rows appear at every level, only the enabled/active-region
//! rows (`crate::regions`) and the counterexample set `C` are level-specific.
//! [`SynthesisLpWorkspace`] exploits exactly that split:
//!
//! * the **base structure** (one `γ_{k,i} ≥ 0` per invariant row, with the
//!   primed tableau of an initial solve) is built once per synthesis run and
//!   captured as a [`termite_lp::LpSnapshot`]; descending a level restores
//!   the snapshot instead of rebuilding the session, so only the
//!   level-specific region rows are re-expressed ([`RowTag`]ged, so the
//!   restore can assert it rolled back nothing else);
//! * every LP solve inside a level warm-starts from the previous basis
//!   (`termite_lp::IncrementalLp`), and because the baseline itself carries a
//!   solved tableau, even the *first* solve of a level skips the two-phase
//!   construction with artificial variables;
//! * the `γ_{k,i}`-coefficients of a counterexample row — the dot products
//!   `u_k · (a_i, −b_i)` of Definition 11 — are memoized by exact row and
//!   counterexample content, so a vector re-encountered at a later level (or
//!   a later refinement round re-using the same invariant rows) costs a hash
//!   lookup instead of a rational dot product.
//!
//! The workspace replaces the per-level `LpInstanceSession` of PR 2. A
//! [`LpReuse::PerLevel`] mode rebuilds the base structure at every level
//! instead of restoring the snapshot; because a restore reinstates *exactly*
//! the state a fresh build reaches, both modes produce byte-identical
//! verdicts, ranking functions and preconditions (the property test in
//! `tests/workspace_equivalence.rs` pins this), and the mode only trades
//! time. New counters ([`crate::SynthesisStats`]: `lp_warm_hits`,
//! `basis_reuses`, `farkas_cache_hits`) make the reuse observable all the way
//! up to `termite suite --json`.

use crate::lp_instance::{
    LpInstanceSolution, LpInstanceStats, RankingTemplate, StackedConstraints,
};
use crate::report::SynthesisStats;
use std::collections::HashMap;
use termite_linalg::QVector;
use termite_lp::{
    Constraint as LpConstraint, IncrementalLp, Interrupt, LpOutcome, LpSnapshot, Relation, RowTag,
    VarId,
};
use termite_num::Rational;
use termite_polyhedra::{ConstraintKind, Polyhedron};

/// Tag of the per-counterexample rows (`δ_j ≤ 1` and the γ-row of `u_j`).
/// These are the only rows the workspace ever adds, so after a level restore
/// none may survive.
const TAG_COUNTEREXAMPLE: RowTag = RowTag(1);

/// How the workspace treats lexicographic level transitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LpReuse {
    /// Restore the shared γ-basis snapshot when descending a level (the
    /// default): the base Farkas structure and its primed tableau survive,
    /// only level-specific rows are re-expressed.
    #[default]
    CrossLevel,
    /// Rebuild the LP session from scratch at every level. Reference mode:
    /// produces byte-identical results to [`LpReuse::CrossLevel`], only
    /// slower — useful for debugging the snapshot machinery and as the
    /// "cold" side of the equivalence property test.
    PerLevel,
}

/// Interned identifier of one invariant/region row `(k, a, b)`.
type RowId = u32;

/// Interned identifier of one counterexample vector.
type CexId = u32;

/// Exact-content memo for the Farkas coefficients `u_k · (a_i, −b_i)`:
/// rows and counterexamples are interned by value, so a hit can never alias
/// two different dot products — which is also why the memo needs no
/// invalidation and can outlive any one workspace. The engine creates one
/// per analysis, *above* the precondition-refinement loop, so a refinement
/// round that rebuilds the workspace (the invariants changed) still hits on
/// every unchanged row × re-encountered counterexample pair.
#[derive(Default)]
pub struct FarkasMemo {
    rows: HashMap<(usize, QVector, Rational), RowId>,
    cexs: HashMap<QVector, CexId>,
    cache: HashMap<(RowId, CexId), Rational>,
}

impl FarkasMemo {
    /// An empty memo.
    pub fn new() -> Self {
        FarkasMemo::default()
    }

    fn intern_row(&mut self, k: usize, a: &QVector, b: &Rational) -> RowId {
        let next = self.rows.len() as RowId;
        *self.rows.entry((k, a.clone(), b.clone())).or_insert(next)
    }

    fn intern_cex(&mut self, u: &QVector) -> CexId {
        let next = self.cexs.len() as CexId;
        *self.cexs.entry(u.clone()).or_insert(next)
    }
}

/// State of the current lexicographic level: the level-specific region rows,
/// their γ variables, and the counterexample δ variables.
struct LevelState {
    /// `extra_rows[k]` = the `(a, b)` region rows appended at location `k`.
    extra_rows: Vec<Vec<(QVector, Rational)>>,
    /// γ variable of each extra row, parallel to `extra_rows`.
    extra_gamma: Vec<Vec<VarId>>,
    /// Interned row id of each extra row, parallel to `extra_rows`.
    extra_row_ids: Vec<Vec<RowId>>,
    /// One δ variable per counterexample pushed this level.
    delta_ids: Vec<VarId>,
}

/// A multi-level warm `LP(C, Constraints(I))` workspace (Definition 11,
/// multi-location form of Section 6) spanning one whole lexicographic
/// synthesis run — see the module docs for the reuse structure.
pub struct SynthesisLpWorkspace<'m> {
    interrupt: Interrupt,
    reuse: LpReuse,
    /// The level-independent invariant rows (incl. the trivial `0 ≥ −1`).
    base: StackedConstraints,
    inc: IncrementalLp,
    /// γ variable of each base row, per location.
    base_gamma: Vec<Vec<VarId>>,
    /// Interned row id of each base row, parallel to `base_gamma`.
    base_row_ids: Vec<Vec<RowId>>,
    /// The primed base structure, captured right after [`Self::init_base`].
    baseline: Option<LpSnapshot>,
    level: Option<LevelState>,
    levels_started: usize,
    /// Borrowed from the caller so it survives the workspace: refinement
    /// rounds rebuild the workspace but keep hitting the same memo.
    memo: &'m mut FarkasMemo,
}

impl<'m> SynthesisLpWorkspace<'m> {
    /// Opens a workspace over the level-independent invariants: declares the
    /// base `γ_{k,i} ≥ 0` Farkas multipliers, primes the tableau with an
    /// initial (empty-objective) solve and captures the baseline snapshot.
    /// `interrupt` is polled inside every simplex pivot loop so a portfolio
    /// loser or deadline stops mid-solve. `memo` outlives the workspace by
    /// design (one per analysis, shared across refinement rounds).
    pub fn new(
        invariants: &[Polyhedron],
        interrupt: Interrupt,
        reuse: LpReuse,
        memo: &'m mut FarkasMemo,
    ) -> Self {
        let base = StackedConstraints::from_invariants(invariants);
        let mut ws = SynthesisLpWorkspace {
            interrupt,
            reuse,
            base,
            inc: IncrementalLp::new(),
            base_gamma: Vec::new(),
            base_row_ids: Vec::new(),
            baseline: None,
            level: None,
            levels_started: 0,
            memo,
        };
        // Rows are interned once, globally: their ids are stable across
        // `init_base` rebuilds, which is what lets the memo survive
        // `LpReuse::PerLevel` rebuilds too.
        for k in 0..ws.base.num_locations() {
            let ids = ws
                .base
                .location(k)
                .iter()
                .map(|(a, b)| ws.memo.intern_row(k, a, b))
                .collect();
            ws.base_row_ids.push(ids);
        }
        ws.init_base();
        ws
    }

    /// (Re)builds the base structure from scratch: fresh session, base γ
    /// variables, priming solve, baseline snapshot. The priming solve is
    /// what lets every later solve — including the first of each level —
    /// take the warm path instead of a two-phase build with artificials.
    fn init_base(&mut self) {
        self.inc = IncrementalLp::new();
        self.inc.set_interrupt(self.interrupt.clone());
        self.base_gamma.clear();
        for k in 0..self.base.num_locations() {
            let ids = (0..self.base.location(k).len())
                .map(|i| self.inc.add_var(format!("gamma_{k}_{i}")))
                .collect();
            self.base_gamma.push(ids);
        }
        self.inc.maximize(Vec::new());
        // The priming solve of the row-free program performs zero pivots; it
        // only materialises the γ columns and installs a (trivially optimal)
        // warm basis. It can still observe a pre-raised interrupt, in which
        // case there is no baseline and later solves report the interruption.
        self.baseline = match self.inc.solve() {
            Some(_) => Some(self.inc.snapshot()),
            None => None,
        };
    }

    /// Starts a lexicographic level: rolls the session back to the shared
    /// base structure (restoring the γ-basis snapshot in
    /// [`LpReuse::CrossLevel`] mode) and appends one `γ ≥ 0` multiplier per
    /// enabled-region row of the level.
    ///
    /// `regions[k]` is the level's enabled region at location `k`
    /// ([`crate::regions::active_source_regions`]); `None` appends nothing
    /// there.
    pub fn begin_level(&mut self, regions: &[Option<Polyhedron>], stats: &mut SynthesisStats) {
        match (self.reuse, &self.baseline) {
            (LpReuse::CrossLevel, Some(snapshot)) => {
                let restored_basis = self.inc.restore(snapshot);
                debug_assert_eq!(
                    self.inc.rows_tagged(TAG_COUNTEREXAMPLE),
                    0,
                    "a level restore must drop every counterexample row"
                );
                if restored_basis && self.levels_started > 0 {
                    stats.basis_reuses += 1;
                    termite_obs::event!("basis_restore", level = self.levels_started);
                }
            }
            _ => self.init_base(),
        }
        self.levels_started += 1;

        let mut extra_rows: Vec<Vec<(QVector, Rational)>> = Vec::with_capacity(regions.len());
        let mut extra_gamma: Vec<Vec<VarId>> = Vec::with_capacity(regions.len());
        let mut extra_row_ids: Vec<Vec<RowId>> = Vec::with_capacity(regions.len());
        for (k, region) in regions.iter().enumerate() {
            let mut rows: Vec<(QVector, Rational)> = Vec::new();
            if let Some(r) = region {
                for c in r.constraints() {
                    match c.kind {
                        ConstraintKind::GreaterEq => rows.push((c.coeffs.clone(), c.rhs.clone())),
                        ConstraintKind::Equality => {
                            rows.push((c.coeffs.clone(), c.rhs.clone()));
                            rows.push((-&c.coeffs, -c.rhs.clone()));
                        }
                    }
                }
            }
            let gamma = (0..rows.len())
                .map(|i| self.inc.add_var(format!("gamma_lv{k}_{i}")))
                .collect();
            let ids = rows
                .iter()
                .map(|(a, b)| self.memo.intern_row(k, a, b))
                .collect();
            extra_rows.push(rows);
            extra_gamma.push(gamma);
            extra_row_ids.push(ids);
        }
        self.level = Some(LevelState {
            extra_rows,
            extra_gamma,
            extra_row_ids,
            delta_ids: Vec::new(),
        });
    }

    /// Number of counterexample vectors added to the current level.
    pub fn num_counterexamples(&self) -> usize {
        self.level.as_ref().map_or(0, |l| l.delta_ids.len())
    }

    /// Adds a counterexample vector `u` (a stacked vertex or ray in the
    /// homogenised space) to the current level: one fresh `δ_j ∈ [0, 1]` and
    /// the row `Σ_{k,i} γ_{k,i} (u · e_k(a_i, −b_i)) − δ_j ≥ 0`, with the
    /// γ-coefficients served from the Farkas memo where already known.
    ///
    /// # Panics
    ///
    /// Panics if no level is open ([`Self::begin_level`]).
    pub fn push_counterexample(&mut self, u: &QVector, stats: &mut SynthesisStats) {
        debug_assert_eq!(u.dim(), self.base.stacked_dim());
        let cid = self.memo.intern_cex(u);
        let mut level = self.level.take().expect("no level open; call begin_level");
        let j = level.delta_ids.len();
        let d = self.inc.add_var(format!("delta_{j}"));
        level.delta_ids.push(d);
        self.inc.add_constraint_tagged(
            LpConstraint::new(vec![(d, Rational::one())], Relation::Le, Rational::one()),
            TAG_COUNTEREXAMPLE,
        );
        let mut terms: Vec<(VarId, Rational)> = Vec::new();
        for k in 0..self.base.num_locations() {
            for (i, (a, b)) in self.base.location(k).iter().enumerate() {
                let coeff = memo_coefficient(
                    self.memo,
                    &self.base,
                    self.base_row_ids[k][i],
                    cid,
                    u,
                    k,
                    a,
                    b,
                    stats,
                );
                if !coeff.is_zero() {
                    terms.push((self.base_gamma[k][i], coeff));
                }
            }
            for (i, (a, b)) in level.extra_rows[k].iter().enumerate() {
                let coeff = memo_coefficient(
                    self.memo,
                    &self.base,
                    level.extra_row_ids[k][i],
                    cid,
                    u,
                    k,
                    a,
                    b,
                    stats,
                );
                if !coeff.is_zero() {
                    terms.push((level.extra_gamma[k][i], coeff));
                }
            }
        }
        terms.push((d, -Rational::one()));
        self.inc.add_constraint_tagged(
            LpConstraint::new(terms, Relation::Ge, Rational::zero()),
            TAG_COUNTEREXAMPLE,
        );
        self.level = Some(level);
    }

    /// Re-optimizes `maximize Σ_j δ_j` over the current level's
    /// counterexample set, warm-starting from the previous basis. Returns
    /// `None` when the solve was interrupted mid-pivot.
    ///
    /// # Panics
    ///
    /// Panics if no level is open ([`Self::begin_level`]).
    pub fn solve(&mut self, stats: &mut SynthesisStats) -> Option<LpInstanceSolution> {
        let level = self
            .level
            .as_ref()
            .expect("no level open; call begin_level");
        self.inc.maximize(
            level
                .delta_ids
                .iter()
                .map(|&d| (d, Rational::one()))
                .collect(),
        );
        let extra_total: usize = level.extra_rows.iter().map(Vec::len).sum();
        let shape = LpInstanceStats {
            rows: level.delta_ids.len(),
            cols: self.base.total_rows() + extra_total + level.delta_ids.len(),
        };
        let warm_before = self.inc.warm_solves();
        let solution = stats.solve_lp(shape.rows, shape.cols, || self.inc.solve())?;
        if self.inc.warm_solves() > warm_before {
            stats.lp_warm_hits += 1;
        }
        let assignment = match solution.outcome {
            LpOutcome::Optimal { assignment, .. } => assignment,
            // Definition 11: the LP is always feasible (γ = δ = 0).
            _ => vec![Rational::zero(); self.inc.num_vars()],
        };
        Some(self.reconstruct(&assignment, shape))
    }

    /// Reads the synthesised template off an optimal assignment, summing the
    /// base and level-specific Farkas contributions:
    /// `λ_k = Σ_i γ_{k,i} a_i` and `λ_{k,0} = −Σ_i γ_{k,i} b_i`.
    fn reconstruct(&self, assignment: &[Rational], shape: LpInstanceStats) -> LpInstanceSolution {
        let level = self.level.as_ref().expect("no level open");
        let n = self.base.num_vars();
        let num_locs = self.base.num_locations();
        let mut template = RankingTemplate::zero(num_locs, n);
        let mut gamma_is_zero = true;
        let mut absorb = |k: usize, a: &QVector, b: &Rational, g: &Rational| {
            if g.is_zero() {
                return false;
            }
            template.lambda[k] = template.lambda[k].add_scaled(a, g);
            template.lambda0[k] -= &(g * b);
            true
        };
        for k in 0..num_locs {
            for (i, (a, b)) in self.base.location(k).iter().enumerate() {
                if absorb(k, a, b, &assignment[self.base_gamma[k][i].0]) {
                    gamma_is_zero = false;
                }
            }
            for (i, (a, b)) in level.extra_rows[k].iter().enumerate() {
                if absorb(k, a, b, &assignment[level.extra_gamma[k][i].0]) {
                    gamma_is_zero = false;
                }
            }
        }
        let delta = level
            .delta_ids
            .iter()
            .map(|d| assignment[d.0].clone())
            .collect();
        LpInstanceSolution {
            template,
            delta,
            gamma_is_zero,
            shape,
        }
    }
}

/// The memoized Farkas coefficient of row `rid` against counterexample
/// `cid`: `u_k · (a, −b)`, computed at most once per (row, counterexample)
/// pair over the workspace's lifetime.
#[allow(clippy::too_many_arguments)]
fn memo_coefficient(
    memo: &mut FarkasMemo,
    base: &StackedConstraints,
    rid: RowId,
    cid: CexId,
    u: &QVector,
    k: usize,
    a: &QVector,
    b: &Rational,
    stats: &mut SynthesisStats,
) -> Rational {
    if let Some(hit) = memo.cache.get(&(rid, cid)) {
        stats.farkas_cache_hits += 1;
        return hit.clone();
    }
    let value = base.gamma_coefficient(u, k, a, b);
    memo.cache.insert((rid, cid), value.clone());
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_polyhedra::Constraint;

    fn q(n: i64) -> Rational {
        Rational::from(n)
    }

    /// The invariant of Example 1 of the paper.
    fn example1_invariant() -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge(QVector::from_i64(&[1, 0]), q(-1)),
                Constraint::le(QVector::from_i64(&[1, 0]), q(11)),
                Constraint::ge(QVector::from_i64(&[0, 1]), q(-1)),
                Constraint::le(QVector::from_i64(&[-1, 1]), q(5)),
                Constraint::le(QVector::from_i64(&[1, 1]), q(15)),
            ],
        )
    }

    /// A same-location counterexample step (homogeneous coordinate 0).
    fn step(entries: &[i64]) -> QVector {
        let mut v = entries.to_vec();
        v.push(0);
        QVector::from_i64(&v)
    }

    fn no_regions(locations: usize) -> Vec<Option<Polyhedron>> {
        vec![None; locations]
    }

    /// The workspace must agree with the from-scratch reference
    /// (`solve_lp_instance`) at every step of a growing counterexample set:
    /// same Σδ (the LP optimum), and a sound warm template.
    #[test]
    fn workspace_matches_scratch_on_growing_counterexample_set() {
        use crate::lp_instance::solve_lp_instance;
        let invs = [example1_invariant()];
        let cexs = [step(&[-1, 1]), step(&[1, 1]), step(&[1, 0]), step(&[0, -1])];
        let mut stats = SynthesisStats::default();
        let mut memo = FarkasMemo::new();
        let mut ws =
            SynthesisLpWorkspace::new(&invs, Interrupt::never(), LpReuse::CrossLevel, &mut memo);
        ws.begin_level(&no_regions(1), &mut stats);
        let sc = StackedConstraints::from_invariants(&invs);
        let mut so_far: Vec<QVector> = Vec::new();
        for u in &cexs {
            ws.push_counterexample(u, &mut stats);
            so_far.push(u.clone());
            let warm = ws.solve(&mut stats).expect("not interrupted");
            let mut scratch_stats = SynthesisStats::default();
            let scratch = solve_lp_instance(&sc, &so_far, &mut scratch_stats);
            let warm_power: Rational = warm.delta.iter().sum();
            let scratch_power: Rational = scratch.delta.iter().sum();
            assert_eq!(warm_power, scratch_power);
            assert_eq!(warm.gamma_is_zero, scratch.gamma_is_zero);
            assert_eq!(warm.shape, scratch.shape);
            // Soundness of the warm template: λ·u ≥ δ_u on every vector.
            for (j, u) in so_far.iter().enumerate() {
                let lu = warm.template.lambda[0].dot(&u.slice(0, 2));
                assert!(lu >= warm.delta[j], "λ·u = {lu} < δ = {}", warm.delta[j]);
            }
        }
        assert_eq!(ws.num_counterexamples(), cexs.len());
        assert!(stats.lp_instances >= 4);
        // Every solve after the priming one takes the warm path.
        assert_eq!(stats.lp_warm_hits, 4);
    }

    /// Descending a level restores the base snapshot: the second level's
    /// solves still take the warm path, the counters say so, and re-pushed
    /// counterexamples hit the Farkas memo.
    #[test]
    fn level_transition_reuses_basis_and_memo() {
        let invs = [example1_invariant()];
        let mut stats = SynthesisStats::default();
        let mut memo = FarkasMemo::new();
        let mut ws =
            SynthesisLpWorkspace::new(&invs, Interrupt::never(), LpReuse::CrossLevel, &mut memo);

        ws.begin_level(&no_regions(1), &mut stats);
        ws.push_counterexample(&step(&[-1, 1]), &mut stats);
        ws.push_counterexample(&step(&[1, 1]), &mut stats);
        let first = ws.solve(&mut stats).unwrap();
        assert_eq!(first.delta, vec![q(1), q(1)]);
        assert_eq!(stats.basis_reuses, 0);
        let misses_before = stats.farkas_cache_hits;

        // Next level: same invariant rows, the first counterexample returns.
        ws.begin_level(&no_regions(1), &mut stats);
        assert_eq!(stats.basis_reuses, 1);
        assert_eq!(ws.num_counterexamples(), 0);
        ws.push_counterexample(&step(&[-1, 1]), &mut stats);
        // All 6 base-row coefficients of the re-seen vector are memo hits.
        assert_eq!(stats.farkas_cache_hits, misses_before + 6);
        let second = ws.solve(&mut stats).unwrap();
        assert_eq!(second.delta, vec![q(1)]);
        assert!(stats.lp_warm_hits >= 2);
    }

    /// Region rows participate in the Farkas combination: a `⊤` invariant
    /// alone cannot bound a template from below, the level's guard region
    /// can.
    #[test]
    fn level_region_rows_enable_the_bounded_from_below_relaxation() {
        let invs = [Polyhedron::universe(1)];
        let guard_region =
            Polyhedron::from_constraints(1, vec![Constraint::ge(QVector::from_i64(&[1]), q(1))]);
        let mut stats = SynthesisStats::default();
        let mut memo = FarkasMemo::new();
        let mut ws =
            SynthesisLpWorkspace::new(&invs, Interrupt::never(), LpReuse::CrossLevel, &mut memo);

        // Without the region: only the trivial row exists, γ can only build
        // constants, and a constant never strictly decreases on u = (1).
        ws.begin_level(&no_regions(1), &mut stats);
        ws.push_counterexample(&step(&[1]), &mut stats);
        let bare = ws.solve(&mut stats).unwrap();
        assert_eq!(bare.delta, vec![q(0)]);

        // With the guard region x ≥ 1: λ = x is expressible and decreases.
        ws.begin_level(&[Some(guard_region)], &mut stats);
        ws.push_counterexample(&step(&[1]), &mut stats);
        let strengthened = ws.solve(&mut stats).unwrap();
        assert_eq!(strengthened.delta, vec![q(1)]);
        assert!(strengthened.template.lambda[0][0].is_positive());
    }

    /// Cross-level and per-level modes reach byte-identical LP solutions on
    /// the same push/solve trace (the restore reinstates exactly the state a
    /// fresh build reaches).
    #[test]
    fn per_level_mode_is_byte_identical() {
        let invs = [example1_invariant()];
        let trace = [step(&[-1, 1]), step(&[1, 1]), step(&[1, 0])];
        let run = |reuse: LpReuse| {
            let mut stats = SynthesisStats::default();
            let mut memo = FarkasMemo::new();
            let mut ws = SynthesisLpWorkspace::new(&invs, Interrupt::never(), reuse, &mut memo);
            let mut out = Vec::new();
            for split in 1..trace.len() {
                ws.begin_level(&no_regions(1), &mut stats);
                for u in &trace[..split] {
                    ws.push_counterexample(u, &mut stats);
                    out.push(ws.solve(&mut stats).unwrap());
                }
            }
            (out, stats.lp_pivots)
        };
        let (warm, warm_pivots) = run(LpReuse::CrossLevel);
        let (cold, cold_pivots) = run(LpReuse::PerLevel);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.template, c.template);
            assert_eq!(w.delta, c.delta);
            assert_eq!(w.gamma_is_zero, c.gamma_is_zero);
        }
        assert_eq!(warm_pivots, cold_pivots);
    }

    /// A pre-raised interrupt stops the workspace without an answer.
    #[test]
    fn interrupted_workspace_returns_none() {
        let invs = [example1_invariant()];
        let mut stats = SynthesisStats::default();
        let mut memo = FarkasMemo::new();
        let mut ws = SynthesisLpWorkspace::new(
            &invs,
            Interrupt::new(|| true),
            LpReuse::CrossLevel,
            &mut memo,
        );
        ws.begin_level(&no_regions(1), &mut stats);
        ws.push_counterexample(&step(&[-1, 1]), &mut stats);
        assert!(ws.solve(&mut stats).is_none());
    }
}
