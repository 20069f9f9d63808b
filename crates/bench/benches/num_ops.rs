//! Micro-benchmarks for the exact-arithmetic hot path: the small-value
//! (inline `i64`) fast path of `termite_num::Int`/`Rational`, the
//! in-place `QVector` row operations the simplex pivot is built from, and
//! the per-pivot and per-constraint normalisations (reciprocal, machine-word
//! gcd, constraint canonicalisation).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_linalg::QVector;
use termite_num::{gcd, lcm, Int, Rational};
use termite_polyhedra::Constraint;

/// Small-int arithmetic: every operand fits the inline representation, so no
/// heap allocation should happen at all.
fn int_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("int_small");
    group.sample_size(30);
    group.bench_function("add_mul_chain", |b| {
        b.iter(|| {
            let mut acc = Int::zero();
            for i in 1..1000i64 {
                let x = Int::from(i);
                let y = Int::from(1000 - i);
                acc += &(&x * &y);
                acc -= &(&x + &y);
            }
            black_box(acc)
        })
    });
    group.bench_function("divrem_chain", |b| {
        b.iter(|| {
            let mut acc = Int::from(0);
            for i in 1..1000i64 {
                let (q, r) = Int::from(i * 7919).div_rem(&Int::from(i));
                acc += &q;
                acc += &r;
            }
            black_box(acc)
        })
    });
    // Contrast: the same chain forced through the spill-over representation.
    group.bench_function("add_mul_chain_big", |b| {
        let shift = Int::from(2).pow(192);
        b.iter(|| {
            let mut acc = Int::zero();
            for i in 1..200i64 {
                let x = &Int::from(i) * &shift;
                let y = &Int::from(1000 - i) * &shift;
                acc += &(&x + &y);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Rational arithmetic on small values: the i128 cross-multiplication path.
fn rational_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("rational_small");
    group.sample_size(30);
    group.bench_function("add_mul_cmp_chain", |b| {
        // Bounded denominators (lcm of 1..=7): the chain stays on the small
        // path instead of measuring coefficient blowup.
        b.iter(|| {
            let mut acc = Rational::zero();
            for i in 1..500i64 {
                let x = Rational::from_ints(i % 13 - 6, i % 7 + 1);
                let y = Rational::from_ints(i % 11 - 5, i % 5 + 1);
                acc += &(&x * &y);
                if acc > Rational::from(100) {
                    acc -= &Rational::from(100);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("integer_den_skips_gcd", |b| {
        b.iter(|| {
            let mut acc = Rational::zero();
            for i in 1..1000i64 {
                acc += &Rational::from(i);
                acc = &acc * &Rational::from(-1);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The simplex pivot's row operations, at tableau-row sizes.
fn qvector_row_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("qvector_rows");
    group.sample_size(30);
    for dim in [32usize, 256] {
        let row: QVector = (0..dim as i64)
            .map(|i| Rational::from_ints(i % 7 - 3, i % 5 + 1))
            .collect();
        let other: QVector = (0..dim as i64)
            .map(|i| Rational::from_ints(i % 11 - 5, i % 3 + 1))
            .collect();
        let factor = Rational::from_ints(3, 7);
        // Each in-place op is paired with its inverse so entries stay
        // bounded across samples (otherwise the bench measures coefficient
        // growth, not the row operation).
        group.bench_with_input(
            BenchmarkId::new("sub_scaled_in_place_x2", dim),
            &dim,
            |b, _| {
                let mut target = row.clone();
                b.iter(|| {
                    target.sub_scaled_in_place(&other, &factor);
                    target.add_scaled_in_place(&other, &factor);
                    black_box(target.dim())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("add_scaled_allocating_x2", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    let once = row.add_scaled(&other, &factor);
                    black_box(once.add_scaled(&other, &(-&factor)))
                })
            },
        );
        let inverse = factor.recip();
        group.bench_with_input(BenchmarkId::new("scale_in_place_x2", dim), &dim, |b, _| {
            let mut target = row.clone();
            b.iter(|| {
                target.scale_in_place(&factor);
                target.scale_in_place(&inverse);
                black_box(target.dim())
            })
        });
    }
    group.finish();
}

/// The normalisations of the inner loops: a reciprocal per simplex pivot
/// (only the sign moves), gcd and lcm of small integers (machine-word
/// Euclid), and a constraint's canonical form on every join and reduction.
fn normalisations(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalise");
    group.sample_size(30);
    let fractions: Vec<Rational> = (1..500i64)
        .map(|i| Rational::from_ints(i % 23 - 11, i % 17 + 1))
        .filter(|x| !x.is_zero())
        .collect();
    group.bench_function("recip", |b| {
        b.iter(|| {
            for x in &fractions {
                black_box(x.recip());
            }
        })
    });
    let ints: Vec<Int> = (1..500i64)
        .map(|i| Int::from(i * 7919 % 3571 - 1785))
        .collect();
    group.bench_function("gcd_lcm_small", |b| {
        b.iter(|| {
            for pair in ints.windows(2) {
                black_box(gcd(&pair[0], &pair[1]));
                black_box(lcm(&pair[0], &pair[1]));
            }
        })
    });
    let constraints: Vec<Constraint> = (1..100i64)
        .map(|i| {
            let coeffs: QVector = (0..8i64)
                .map(|j| Rational::from_ints((i + j) % 9 - 4, (i * j) % 5 + 1))
                .collect();
            Constraint::ge(coeffs, Rational::from_ints(i % 7 - 3, i % 4 + 1))
        })
        .collect();
    group.bench_function("canonicalize", |b| {
        b.iter(|| {
            for c in &constraints {
                black_box(c.canonicalize());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    int_ops,
    rational_ops,
    qvector_row_ops,
    normalisations
);
criterion_main!(benches);
