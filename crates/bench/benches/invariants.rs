//! Cost of the eager invariant stages on the `paper-termite` strata: the
//! forward polyhedral fixpoint alone (`location_invariants`) and the shared
//! snapshot a job builds before its lanes start (`InvariantSnapshot::new`:
//! forward fixpoint, entry reach and Houdini strengthening). Programs are
//! IR-optimized first, as a job prepares them.
//!
//! Two more cases time the warm entailment sessions those stages are made
//! of, on the header invariants of `nested_counted_loops(2)`: `weak_join`
//! of every ordered pair (one session per operand) and `minimize` of every
//! pairwise intersection (redundancy removal on one tableau). Operands are
//! rebuilt from their constraints on every iteration, so no emptiness memo
//! carries over.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_invariants::{location_invariants, InvariantOptions, InvariantSnapshot};
use termite_ir::optimize;
use termite_lp::Interrupt;
use termite_polyhedra::Polyhedron;
use termite_suite::generators::{multipath_loop, nested_counted_loops, phase_cascade};

/// A copy of `p` that remembers nothing about its emptiness.
fn fresh(p: &Polyhedron) -> Polyhedron {
    Polyhedron::from_constraints(p.dim(), p.constraints().to_vec())
}

fn sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("sessions");
    group.sample_size(10);
    let program = optimize(&nested_counted_loops(2)).program;
    let headers = location_invariants(&program, &InvariantOptions::default());
    let pairs: Vec<(&Polyhedron, &Polyhedron)> = headers
        .iter()
        .flat_map(|a| headers.iter().map(move |b| (a, b)))
        .collect();
    group.bench_function(format!("weak_join/{}", program.name), |b| {
        b.iter(|| {
            for (x, y) in &pairs {
                black_box(fresh(x).weak_join(&fresh(y)));
            }
        })
    });
    group.bench_function(format!("minimize/{}", program.name), |b| {
        b.iter(|| {
            for (x, y) in &pairs {
                black_box(x.intersection(y).minimize());
            }
        })
    });
    group.finish();
}

fn invariants(c: &mut Criterion) {
    let mut group = c.benchmark_group("invariants");
    group.sample_size(10);
    let options = InvariantOptions::default();
    let strata = [
        multipath_loop(4),
        phase_cascade(2),
        multipath_loop(6),
        nested_counted_loops(2),
        multipath_loop(8),
        multipath_loop(10),
    ];
    for raw in &strata {
        let program = optimize(raw).program;
        let ts = program.transition_system();
        group.bench_with_input(
            BenchmarkId::new("location_invariants", &program.name),
            &program,
            |b, program| b.iter(|| black_box(location_invariants(program, &options))),
        );
        group.bench_with_input(
            BenchmarkId::new("snapshot", &program.name),
            &program,
            |b, program| {
                b.iter(|| {
                    black_box(InvariantSnapshot::new(
                        program,
                        &ts,
                        &options,
                        &Interrupt::never(),
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, invariants, sessions);
criterion_main!(benches);
