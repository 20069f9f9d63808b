//! Cost of the eager invariant stages on the `paper-termite` strata: the
//! forward polyhedral fixpoint alone (`location_invariants`) and the shared
//! snapshot a job builds before its lanes start (`InvariantSnapshot::new`:
//! forward fixpoint, entry reach and Houdini strengthening). Programs are
//! IR-optimized first, as a job prepares them.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_invariants::{location_invariants, InvariantOptions, InvariantSnapshot};
use termite_ir::optimize;
use termite_lp::Interrupt;
use termite_suite::generators::{multipath_loop, nested_counted_loops, phase_cascade};

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

criterion_group!(benches, invariants);
criterion_main!(benches);
