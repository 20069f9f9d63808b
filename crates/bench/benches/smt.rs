//! Cost of `SmtContext` query sequences as the analysis issues them:
//!
//! - `monodim`: the termite engine's lexicographic synthesis on
//!   `multipath_loop(10)`, `nested_counted_loops(2)` and `phase_cascade(2)`
//!   (the three families of the `paper-termite` workload). Each level's
//!   monodimensional loop asks one context an extremal-counterexample
//!   minimisation per transition and iteration, between the LP solves that
//!   pick the next candidate, each on the transition's prepared conjunction;
//!   a second context answers the liveness checks. Before timing, each
//!   program's SMT work is printed once: queries, SAT models checked, warm
//!   checks, and the models that kept conflict cores blocked with no theory
//!   work.
//! - `houdini`: the inductive strengthening of the forward invariants of
//!   `nested_counted_loops(2)` and `multipath_loop(10)`, one context
//!   answering a preservation `solve` per candidate, transition and round.
//!   (`phase_cascade(2)` keeps no guard candidate past the entry filter, so
//!   its Houdini run asks no query.)
//!
//! Programs are IR-optimized and their invariants (and, for Houdini, the
//! entry states and guard candidates) computed once, outside the timed loop.
//! Run with `cargo bench --bench smt`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_core::{synthesize_lexicographic, CancelToken, SynthesisStats};
use termite_invariants::{
    entry_reach, guard_candidates, location_invariants, strengthen_inductive, InvariantOptions,
};
use termite_ir::optimize;
use termite_lp::Interrupt;
use termite_polyhedra::Polyhedron;
use termite_suite::generators::{multipath_loop, nested_counted_loops, phase_cascade};

/// Iteration cap per lexicographic level, as the default analysis sets it.
const MAX_ITERATIONS_PER_DIM: usize = 120;

fn monodim(c: &mut Criterion) {
    let mut group = c.benchmark_group("monodim");
    group.sample_size(10);
    let options = InvariantOptions::default();
    for raw in [
        multipath_loop(10),
        nested_counted_loops(2),
        phase_cascade(2),
    ] {
        let program = optimize(&raw).program;
        let ts = program.transition_system();
        let invariants = location_invariants(&program, &options);
        let mut stats = SynthesisStats::default();
        let outcome = synthesize_lexicographic(
            &ts,
            &invariants,
            MAX_ITERATIONS_PER_DIM,
            &CancelToken::new(),
            &mut stats,
        );
        let smt = outcome.smt;
        println!(
            "{}: {} queries, {} models checked, {} warm checks, {} reused cores",
            program.name, smt.queries, smt.theory_checks, smt.theory_warm_checks, smt.reused_cores
        );
        group.bench_with_input(
            BenchmarkId::new("lexicographic", &program.name),
            &ts,
            |b, ts| {
                b.iter(|| {
                    let mut stats = SynthesisStats::default();
                    black_box(synthesize_lexicographic(
                        ts,
                        &invariants,
                        MAX_ITERATIONS_PER_DIM,
                        &CancelToken::new(),
                        &mut stats,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn houdini(c: &mut Criterion) {
    let mut group = c.benchmark_group("houdini");
    group.sample_size(10);
    let options = InvariantOptions::default();
    for raw in [nested_counted_loops(2), multipath_loop(10)] {
        let program = optimize(&raw).program;
        let ts = program.transition_system();
        let cfg = program.to_cfg();
        let forward = location_invariants(&program, &options);
        let reach = entry_reach(&cfg, &Polyhedron::universe(program.num_vars()), &options);
        let reach_at_headers: Vec<Polyhedron> = (cfg.loop_headers().iter())
            .map(|&h| reach.at_node(h).clone())
            .collect();
        let candidates = guard_candidates(&cfg);
        group.bench_with_input(
            BenchmarkId::new("strengthen_inductive", &program.name),
            &ts,
            |b, ts| {
                b.iter(|| {
                    let mut invariants = forward.clone();
                    black_box(strengthen_inductive(
                        ts,
                        &reach_at_headers,
                        &mut invariants,
                        &candidates,
                        &Interrupt::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, monodim, houdini);
criterion_main!(benches);
