//! Heap allocations per job, pinned by a ceiling per program.
//!
//! Allocations are an exact work counter: the same job makes the same
//! calls to the allocator on every run, whatever the machine's load. This
//! test binary installs a counting global allocator (it exists only here)
//! and runs the termite engine on four of `paper-termite`'s generated
//! programs, prepared as the benchmark prepares them (IR-optimised). Each
//! count is printed and must stay under its ceiling: the count this file
//! was recorded with plus 10%. A change that makes the inner loops allocate
//! again (a `Vec` per SAT propagation, per simplex pivot or per constraint
//! normalisation) fails here before it shows in a timing.
//!
//! Debug assertions allocate (the SMT layer re-solves every conflict core
//! in a `debug_assert!`), so each profile has its own table. Run
//! `cargo test --release -p termite-driver --test alloc_budget -- --nocapture`
//! for the release counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use termite_core::{AnalysisOptions, Engine};
use termite_driver::{run_selection, AnalysisJob, EngineSelection};
use termite_invariants::InvariantOptions;
use termite_ir::Program;
use termite_suite::generators::{multipath_loop, nested_counted_loops, phase_cascade};

/// Counts `alloc` and `realloc` calls on the calling thread, so tests that
/// run in parallel do not add to each other's counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by one termite-engine run of `program`, after the job
/// is prepared and outside its preparation. The run is repeated once, and
/// both counts must agree: the counter is exact or it is useless.
fn allocations_per_job(program: &Program) -> u64 {
    let job = AnalysisJob::from_program_with(program, &InvariantOptions::default(), true);
    let selection = EngineSelection::single(Engine::Termite);
    let options = AnalysisOptions::default();
    let mut counts = [0u64; 2];
    for count in &mut counts {
        let before = allocations();
        let outcome = run_selection(&job, &selection, &options);
        *count = allocations() - before;
        assert!(outcome.report.proved(), "{} must be proved", program.name);
        drop(outcome);
    }
    assert_eq!(
        counts[0], counts[1],
        "{}: allocations differ between runs",
        program.name
    );
    counts[0]
}

/// (program, release count, dev-profile count) as recorded.
fn recorded() -> Vec<(Program, u64, u64)> {
    vec![
        (multipath_loop(4), 4845, 5602),
        (multipath_loop(10), 10293, 12865),
        (phase_cascade(2), 5452, 6367),
        (nested_counted_loops(2), 14116, 15498),
    ]
}

#[test]
fn inner_loops_stay_within_their_allocation_budget() {
    let mut over = Vec::new();
    for (program, release, dev) in recorded() {
        let recorded = if cfg!(debug_assertions) { dev } else { release };
        let ceiling = recorded + recorded / 10;
        let count = allocations_per_job(&program);
        println!(
            "{}: {count} allocations (recorded {recorded}, ceiling {ceiling})",
            program.name
        );
        if count > ceiling {
            over.push(format!("{}: {count} > {ceiling}", program.name));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}
