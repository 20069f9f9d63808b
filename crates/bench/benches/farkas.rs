//! Cost of the joint Farkas LPs: the `lasso`, `complete-lrf` and
//! `piecewise` engines each build one large exact LP per program (per depth
//! or per segment round), so their time is the simplex tableau's. The
//! programs are the suite's slowest for these engines (`oscillator_nonterm`,
//! which no engine proves, `reset_loop`, `pw_triple_sum_split`) and the
//! 64-path `multipath_loop(6)`. Programs are IR-optimized and their
//! invariants computed once, outside the timed loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use termite_core::{prove_transition_system, AnalysisOptions, Engine};
use termite_invariants::{location_invariants, InvariantOptions};
use termite_ir::{optimize, Program, TransitionSystem};
use termite_polyhedra::Polyhedron;
use termite_suite::all_benchmarks;
use termite_suite::generators::multipath_loop;

const PROGRAMS: [&str; 3] = ["oscillator_nonterm", "reset_loop", "pw_triple_sum_split"];

/// The program's name, transition system and invariants, after IR
/// optimization (as a job prepares it).
fn prepare(raw: &Program) -> (String, TransitionSystem, Vec<Polyhedron>) {
    let program = optimize(raw).program;
    let invariants = location_invariants(&program, &InvariantOptions::default());
    (
        program.name.clone(),
        program.transition_system(),
        invariants,
    )
}

fn farkas(c: &mut Criterion) {
    let mut group = c.benchmark_group("farkas");
    group.sample_size(10);
    let mut programs: Vec<Program> = all_benchmarks()
        .into_iter()
        .map(|b| b.program)
        .filter(|p| PROGRAMS.contains(&p.name.as_str()))
        .collect();
    assert_eq!(programs.len(), PROGRAMS.len(), "a named program is missing");
    programs.push(multipath_loop(6));
    let prepared: Vec<_> = programs.iter().map(prepare).collect();
    for engine in [Engine::Lasso, Engine::CompleteLrf, Engine::Piecewise] {
        let options = AnalysisOptions::with_engine(engine);
        for (name, ts, invariants) in &prepared {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), name),
                ts,
                |b, ts| b.iter(|| black_box(prove_transition_system(ts, invariants, &options))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, farkas);
criterion_main!(benches);
