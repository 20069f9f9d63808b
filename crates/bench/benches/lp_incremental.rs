//! Warm-started incremental LP vs from-scratch re-solves on the CEGIS
//! pattern: the counterexample loop of Algorithm 1 grows `LP(C,
//! Constraints(I))` by one δ variable and two rows per iteration, and
//! Algorithm 2 repeats the whole loop once per lexicographic level, each
//! level on a fresh primed session. The workspace must beat rebuilding the
//! tableau every iteration.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_core::SynthesisStats;
use termite_core::{solve_lp_instance, StackedConstraints, SynthesisLpWorkspace};
use termite_linalg::QVector;
use termite_lp::Interrupt;
use termite_num::Rational;
use termite_polyhedra::{Constraint, Polyhedron};

/// A box-with-diagonals invariant over `n` variables: `-N ≤ x_i ≤ N` plus
/// `x_i + x_{i+1} ≤ 2N`, giving 3n-ish Farkas multipliers like a real loop.
fn invariant(n: usize) -> Polyhedron {
    let mut cs = Vec::new();
    let big = Rational::from(100);
    for i in 0..n {
        let mut up = vec![0i64; n];
        up[i] = 1;
        cs.push(Constraint::le(QVector::from_i64(&up), big.clone()));
        cs.push(Constraint::ge(QVector::from_i64(&up), -&big));
        if i + 1 < n {
            let mut diag = vec![0i64; n];
            diag[i] = 1;
            diag[i + 1] = 1;
            cs.push(Constraint::le(QVector::from_i64(&diag), &big + &big));
        }
    }
    Polyhedron::from_constraints(n, cs)
}

/// Deterministic pseudo-random counterexample directions (vertices of the
/// difference polyhedron would come from the SMT solver in the real loop),
/// in the homogenised stacked space: one location block of `n` variable
/// entries plus the constant coordinate, which is 0 for a same-location
/// step (the PR 3 homogenisation; the pre-PR 5 version of this bench still
/// produced `n`-dimensional vectors and panicked on the constant read).
/// Skewed positive: a quasi ranking function must be *non-increasing* on
/// every counterexample, so directions spanning opposite pairs collapse the
/// optimum to γ = 0; a mostly-positive pointed cone keeps Σδ non-trivial
/// while the occasional negative entry still forces dual re-optimization.
fn counterexamples(n: usize, count: usize) -> Vec<QVector> {
    (0..count)
        .map(|j| {
            let mut entries: Vec<i64> = (0..n)
                .map(|i| {
                    let h = (j * 31 + i * 17 + 7) % 8;
                    h as i64 - 2
                })
                .collect();
            entries.push(0); // homogeneous coordinate of the single block
            QVector::from_i64(&entries)
        })
        .filter(|u| !u.is_zero())
        .collect()
}

/// One full "lexicographic run": `levels` levels over the same invariants,
/// each replaying the counterexample trace with a per-level offset (the
/// first few vectors recur across levels, as they do in real syntheses).
fn run_levels(
    invs: &[Polyhedron],
    cexs: &[QVector],
    levels: usize,
    stats: &mut SynthesisStats,
) -> Rational {
    let mut ws = SynthesisLpWorkspace::new(invs, Interrupt::never());
    let mut power = Rational::zero();
    for level in 0..levels {
        ws.begin_level(&vec![None; invs.len()]);
        for u in cexs.iter().skip(level) {
            ws.push_counterexample(u);
            power = ws.solve(stats).unwrap().delta.iter().sum();
        }
    }
    power
}

fn lp_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_incremental");
    group.sample_size(10);
    println!("\n=== CEGIS LP growth: warm-started workspace vs from-scratch re-solves ===");
    for &(n, count) in &[(4usize, 10usize), (6, 20), (8, 30)] {
        let inv = invariant(n);
        let invs = [inv];
        let sc = StackedConstraints::from_invariants(&invs);
        let cexs = counterexamples(n, count);

        group.bench_with_input(
            BenchmarkId::new("warm_workspace", format!("n{n}_c{count}")),
            &count,
            |b, _| {
                b.iter(|| {
                    let mut stats = SynthesisStats::default();
                    black_box(run_levels(&invs, &cexs, 1, &mut stats))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("from_scratch", format!("n{n}_c{count}")),
            &count,
            |b, _| {
                b.iter(|| {
                    let mut stats = SynthesisStats::default();
                    let mut so_far: Vec<QVector> = Vec::new();
                    let mut power = Rational::zero();
                    for u in &cexs {
                        so_far.push(u.clone());
                        let sol = solve_lp_instance(&sc, &so_far, &mut stats);
                        power = sol.delta.iter().sum();
                    }
                    black_box(power)
                })
            },
        );

        // A lexicographic run: the same workspace descends 4 levels, each
        // on a fresh primed session.
        const LEVELS: usize = 4;
        group.bench_with_input(
            BenchmarkId::new("levels", format!("n{n}_c{count}_l{LEVELS}")),
            &count,
            |b, _| {
                b.iter(|| {
                    let mut stats = SynthesisStats::default();
                    black_box(run_levels(&invs, &cexs, LEVELS, &mut stats))
                })
            },
        );

        // Sanity + visibility: both strategies must reach the same optimum,
        // and every workspace solve must be warm; report the pivot counts
        // behind the speedups.
        let mut warm_stats = SynthesisStats::default();
        let warm_power = run_levels(&invs, &cexs, 1, &mut warm_stats);
        let mut scratch_stats = SynthesisStats::default();
        let mut so_far: Vec<QVector> = Vec::new();
        let mut scratch_power = Rational::zero();
        for u in &cexs {
            so_far.push(u.clone());
            scratch_power = solve_lp_instance(&sc, &so_far, &mut scratch_stats)
                .delta
                .iter()
                .sum();
        }
        assert_eq!(warm_power, scratch_power, "strategies must agree");
        let mut level_stats = SynthesisStats::default();
        run_levels(&invs, &cexs, LEVELS, &mut level_stats);
        for stats in [&warm_stats, &level_stats] {
            assert_eq!(
                stats.lp_warm_hits, stats.lp_instances,
                "every solve of a primed level is warm"
            );
        }
        println!(
            "n={n} cexs={} : warm pivots {:>6}  scratch pivots {:>6}  (Σδ = {warm_power})",
            cexs.len(),
            warm_stats.lp_pivots,
            scratch_stats.lp_pivots,
        );
        println!(
            "n={n} cexs={} levels={LEVELS}: pivots {:>6}  warm LP solves {:>4}/{:<4}",
            cexs.len(),
            level_stats.lp_pivots,
            level_stats.lp_warm_hits,
            level_stats.lp_instances,
        );
    }
    group.finish();
}

criterion_group!(benches, lp_incremental);
criterion_main!(benches);
