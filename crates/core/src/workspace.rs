//! The synthesis LP workspace of one lexicographic run.
//!
//! Algorithm 2 solves one `LP(C, Constraints(I))` *per lexicographic level*:
//! the γ multipliers of the invariant rows appear at every level, the
//! enabled/active-region rows (`crate::regions`) and the counterexample set
//! `C` are level-specific. [`SynthesisLpWorkspace`] opens one primed
//! session per level:
//!
//! * [`begin_level`](SynthesisLpWorkspace::begin_level) builds a fresh
//!   `termite_lp::IncrementalLp` with one `γ_{k,i} ≥ 0` column per invariant
//!   row and per region row of the level, then primes it with a solve of the
//!   row-free program. That solve performs zero pivots; it only installs a
//!   warm basis, so even the *first* counterexample solve of a level skips
//!   the two-phase construction with artificial variables;
//! * every later solve inside the level warm-starts from the previous basis,
//!   and `lp_warm_hits` ([`crate::SynthesisStats::solve_session`]) counts
//!   each one.

use crate::lp_instance::{
    LpInstanceSolution, LpInstanceStats, RankingTemplate, StackedConstraints,
};
use crate::report::SynthesisStats;
use termite_linalg::QVector;
use termite_lp::{
    Constraint as LpConstraint, IncrementalLp, Interrupt, LpOutcome, Relation, VarId,
};
use termite_num::Rational;
use termite_polyhedra::{ConstraintKind, Polyhedron};

/// State of the current lexicographic level: the level-specific region rows,
/// their γ variables, and the counterexample δ variables.
struct LevelState {
    /// `extra_rows[k]` = the `(a, b)` region rows appended at location `k`.
    extra_rows: Vec<Vec<(QVector, Rational)>>,
    /// γ variable of each extra row, parallel to `extra_rows`.
    extra_gamma: Vec<Vec<VarId>>,
    /// One δ variable per counterexample pushed this level.
    delta_ids: Vec<VarId>,
}

/// A warm `LP(C, Constraints(I))` workspace (Definition 11, multi-location
/// form of Section 6) spanning one whole lexicographic synthesis run — see
/// the module docs for the session each level opens.
pub struct SynthesisLpWorkspace {
    interrupt: Interrupt,
    /// The level-independent invariant rows (incl. the trivial `0 ≥ −1`).
    base: StackedConstraints,
    inc: IncrementalLp,
    /// γ variable of each base row, per location.
    base_gamma: Vec<Vec<VarId>>,
    level: Option<LevelState>,
}

impl SynthesisLpWorkspace {
    /// Opens a workspace over the level-independent invariants. `interrupt`
    /// is polled inside every simplex pivot loop so a portfolio loser or
    /// deadline stops mid-solve.
    pub fn new(invariants: &[Polyhedron], interrupt: Interrupt) -> Self {
        SynthesisLpWorkspace {
            interrupt,
            base: StackedConstraints::from_invariants(invariants),
            inc: IncrementalLp::new(),
            base_gamma: Vec::new(),
            level: None,
        }
    }

    /// Starts a lexicographic level on a fresh primed session: one `γ ≥ 0`
    /// multiplier per invariant row and per enabled-region row of the level,
    /// then the zero-pivot priming solve.
    ///
    /// `regions[k]` is the level's enabled region at location `k`
    /// ([`crate::regions::active_source_regions`]); `None` appends nothing
    /// there.
    pub fn begin_level(&mut self, regions: &[Option<Polyhedron>]) {
        self.inc = IncrementalLp::new();
        self.inc.set_interrupt(self.interrupt.clone());
        self.base_gamma = (0..self.base.num_locations())
            .map(|k| {
                (0..self.base.location(k).len())
                    .map(|i| self.inc.add_var(format!("gamma_{k}_{i}")))
                    .collect()
            })
            .collect();
        let mut extra_rows: Vec<Vec<(QVector, Rational)>> = Vec::with_capacity(regions.len());
        let mut extra_gamma: Vec<Vec<VarId>> = Vec::with_capacity(regions.len());
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
            extra_rows.push(rows);
            extra_gamma.push(gamma);
        }
        // The priming solve of the row-free program performs zero pivots; it
        // only materialises the γ columns and installs a (trivially optimal)
        // warm basis. It is not one of the engine's LP instances. A
        // pre-raised interrupt leaves no basis, and the level's first solve
        // reports the interruption.
        self.inc.maximize(Vec::new());
        let _ = self.inc.solve();
        self.level = Some(LevelState {
            extra_rows,
            extra_gamma,
            delta_ids: Vec::new(),
        });
    }

    /// Number of counterexample vectors added to the current level.
    pub fn num_counterexamples(&self) -> usize {
        self.level.as_ref().map_or(0, |l| l.delta_ids.len())
    }

    /// Adds a counterexample vector `u` (a stacked vertex or ray in the
    /// homogenised space) to the current level: one fresh `δ_j ∈ [0, 1]` and
    /// the row `Σ_{k,i} γ_{k,i} (u · e_k(a_i, −b_i)) − δ_j ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if no level is open ([`Self::begin_level`]).
    pub fn push_counterexample(&mut self, u: &QVector) {
        debug_assert_eq!(u.dim(), self.base.stacked_dim());
        let level = self
            .level
            .as_mut()
            .expect("no level open; call begin_level");
        let j = level.delta_ids.len();
        let d = self.inc.add_var(format!("delta_{j}"));
        level.delta_ids.push(d);
        self.inc.add_constraint(LpConstraint::new(
            vec![(d, Rational::one())],
            Relation::Le,
            Rational::one(),
        ));
        let mut terms: Vec<(VarId, Rational)> = Vec::new();
        for k in 0..self.base.num_locations() {
            let rows = self.base.location(k).iter().zip(&self.base_gamma[k]);
            let extra = level.extra_rows[k].iter().zip(&level.extra_gamma[k]);
            for ((a, b), &gamma) in rows.chain(extra) {
                let coeff = self.base.gamma_coefficient(u, k, a, b);
                if !coeff.is_zero() {
                    terms.push((gamma, coeff));
                }
            }
        }
        terms.push((d, -Rational::one()));
        self.inc
            .add_constraint(LpConstraint::new(terms, Relation::Ge, Rational::zero()));
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
        let solution = stats.solve_session(shape.rows, shape.cols, &mut self.inc)?;
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
        let mut ws = SynthesisLpWorkspace::new(&invs, Interrupt::never());
        ws.begin_level(&no_regions(1));
        let sc = StackedConstraints::from_invariants(&invs);
        let mut so_far: Vec<QVector> = Vec::new();
        for u in &cexs {
            ws.push_counterexample(u);
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

    /// A second level opens a fresh primed session: on the same
    /// counterexamples it gives the solutions a fresh workspace gives, and
    /// its first solve is already warm.
    #[test]
    fn a_second_level_solves_like_a_fresh_workspace() {
        let invs = [example1_invariant()];
        let trace = [step(&[-1, 1]), step(&[1, 1]), step(&[1, 0])];
        let run = |ws: &mut SynthesisLpWorkspace, stats: &mut SynthesisStats| {
            ws.begin_level(&no_regions(1));
            trace
                .iter()
                .map(|u| {
                    ws.push_counterexample(u);
                    ws.solve(stats).unwrap()
                })
                .collect::<Vec<_>>()
        };
        let mut stats = SynthesisStats::default();
        let mut ws = SynthesisLpWorkspace::new(&invs, Interrupt::never());
        ws.begin_level(&no_regions(1));
        ws.push_counterexample(&step(&[0, -1]));
        ws.solve(&mut stats).unwrap();
        let (warm_before, pivots_before) = (stats.lp_warm_hits, stats.lp_pivots);
        let second = run(&mut ws, &mut stats);
        assert_eq!(ws.num_counterexamples(), trace.len());
        assert_eq!(stats.lp_warm_hits, warm_before + trace.len());

        let mut fresh_stats = SynthesisStats::default();
        let fresh = run(
            &mut SynthesisLpWorkspace::new(&invs, Interrupt::never()),
            &mut fresh_stats,
        );
        assert_eq!(second, fresh);
        assert_eq!(stats.lp_pivots - pivots_before, fresh_stats.lp_pivots);
        assert_eq!(fresh_stats.lp_warm_hits, fresh_stats.lp_instances);
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
        let mut ws = SynthesisLpWorkspace::new(&invs, Interrupt::never());

        // Without the region: only the trivial row exists, γ can only build
        // constants, and a constant never strictly decreases on u = (1).
        ws.begin_level(&no_regions(1));
        ws.push_counterexample(&step(&[1]));
        let bare = ws.solve(&mut stats).unwrap();
        assert_eq!(bare.delta, vec![q(0)]);

        // With the guard region x ≥ 1: λ = x is expressible and decreases.
        ws.begin_level(&[Some(guard_region)]);
        ws.push_counterexample(&step(&[1]));
        let strengthened = ws.solve(&mut stats).unwrap();
        assert_eq!(strengthened.delta, vec![q(1)]);
        assert!(strengthened.template.lambda[0][0].is_positive());
    }

    /// A pre-raised interrupt stops the workspace without an answer.
    #[test]
    fn interrupted_workspace_returns_none() {
        let invs = [example1_invariant()];
        let mut stats = SynthesisStats::default();
        let mut ws = SynthesisLpWorkspace::new(&invs, Interrupt::new(|| true));
        ws.begin_level(&no_regions(1));
        ws.push_counterexample(&step(&[-1, 1]));
        assert!(ws.solve(&mut stats).is_none());
    }
}
