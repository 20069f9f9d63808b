//! The dirty-node sweeps of [`analyze_cfg_from`] and [`entry_reach`] must
//! produce exactly the invariants of the plain round-robin iteration they
//! replace. The round-robin versions are kept here as references; the tests
//! compare the printed invariants of both on every suite program and on the
//! generated scalability families.

use crate::{
    analyze_cfg_from, entry_reach, guard_candidates, houdini, location_invariants_from, transfer,
    InvariantMap, InvariantOptions, InvariantSnapshot,
};
use termite_ir::{optimize, Cfg, CfgOp, Program};
use termite_lp::Interrupt;
use termite_polyhedra::Polyhedron;
use termite_suite::all_benchmarks;
use termite_suite::generators::{
    multipath_loop, nested_counted_loops, padded_countdown, phase_cascade,
};

fn join(options: &InvariantOptions, a: &Polyhedron, b: &Polyhedron) -> Polyhedron {
    if options.exact_join {
        a.convex_hull(b)
    } else {
        a.weak_join(b)
    }
}

/// [`analyze_cfg_from`] as a plain round-robin iteration that re-evaluates
/// every node on every ascending pass.
fn reference_analyze_cfg_from(
    cfg: &Cfg,
    entry_state: &Polyhedron,
    options: &InvariantOptions,
) -> InvariantMap {
    let n = cfg.num_vars();
    let num_nodes = cfg.num_nodes();
    let mut state: Vec<Polyhedron> = (0..num_nodes).map(|_| Polyhedron::empty(n)).collect();
    state[cfg.entry()] = entry_state.clone();
    let widening_points: std::collections::HashSet<usize> =
        cfg.loop_headers().iter().copied().collect();
    let mut join_count = vec![0usize; num_nodes];
    let thresholds: Vec<termite_polyhedra::Constraint> = {
        let mut ts = Vec::new();
        for edge in cfg.edges() {
            if let CfgOp::Guard(cs) = &edge.op {
                for c in cs {
                    let pc = c.to_polyhedral().canonicalize();
                    if !ts.contains(&pc) {
                        ts.push(pc);
                    }
                }
            }
        }
        ts
    };
    let mut iteration = 0usize;
    loop {
        iteration += 1;
        let mut changed = false;
        for node in 0..num_nodes {
            let mut incoming = if node == cfg.entry() {
                entry_state.clone()
            } else {
                Polyhedron::empty(n)
            };
            for edge in cfg.predecessors(node) {
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(options, &incoming, &post);
                }
            }
            let new_value = if state[node].is_empty() {
                incoming
            } else if incoming.is_subset_of(&state[node]) {
                continue;
            } else if widening_points.contains(&node) && join_count[node] >= options.widening_delay
            {
                let joined = join(options, &state[node], &incoming);
                let mut widened = state[node].widen(&joined);
                for t in &thresholds {
                    if joined.entails(t) {
                        widened.add_constraint(t.clone());
                    }
                }
                widened
            } else {
                join(options, &state[node], &incoming)
            };
            if !new_value.is_subset_of(&state[node]) {
                join_count[node] += 1;
                state[node] = new_value.light_reduce();
                changed = true;
            }
        }
        if !changed || iteration >= options.max_iterations {
            break;
        }
    }
    for _ in 0..options.narrowing_passes {
        for node in 0..num_nodes {
            if node == cfg.entry() {
                continue;
            }
            let mut incoming = Polyhedron::empty(n);
            for edge in cfg.predecessors(node) {
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(options, &incoming, &post);
                }
            }
            state[node] = incoming.intersection(&state[node]).minimize();
        }
    }
    InvariantMap { per_node: state }
}

/// [`entry_reach`] as a plain round-robin iteration.
fn reference_entry_reach(
    cfg: &Cfg,
    entry_state: &Polyhedron,
    options: &InvariantOptions,
) -> InvariantMap {
    let n = cfg.num_vars();
    let num_nodes = cfg.num_nodes();
    let headers: std::collections::HashSet<usize> = cfg.loop_headers().iter().copied().collect();
    let mut state: Vec<Polyhedron> = (0..num_nodes).map(|_| Polyhedron::empty(n)).collect();
    state[cfg.entry()] = entry_state.clone();
    for _ in 0..num_nodes {
        let mut changed = false;
        for node in 0..num_nodes {
            let mut incoming = if node == cfg.entry() {
                entry_state.clone()
            } else {
                Polyhedron::empty(n)
            };
            for edge in cfg.predecessors(node) {
                if headers.contains(&node) && edge.from > node {
                    continue;
                }
                let post = transfer(&state[edge.from], &edge.op);
                if !post.is_empty() {
                    incoming = join(options, &incoming, &post);
                }
            }
            if !incoming.is_subset_of(&state[node]) {
                state[node] = join(options, &state[node], &incoming).light_reduce();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    InvariantMap { per_node: state }
}

fn printed(polyhedra: &[Polyhedron]) -> Vec<String> {
    polyhedra.iter().map(ToString::to_string).collect()
}

fn at_headers(cfg: &Cfg, map: &InvariantMap) -> Vec<Polyhedron> {
    cfg.loop_headers()
        .iter()
        .map(|&h| map.at_node(h).clone())
        .collect()
}

/// Every suite program and the generated families, raw and IR-optimized.
fn programs() -> Vec<Program> {
    let mut raw: Vec<Program> = all_benchmarks().into_iter().map(|b| b.program).collect();
    raw.extend((2..=10).map(multipath_loop));
    raw.extend((1..=3).map(phase_cascade));
    raw.extend((1..=3).map(nested_counted_loops));
    raw.push(padded_countdown(6));
    let optimized: Vec<Program> = raw.iter().map(|p| optimize(p).program).collect();
    raw.into_iter().chain(optimized).collect()
}

/// Asserts that the node maps of both fixpoints, and the cut-point
/// invariants read off them, print identically under `options`.
fn assert_identical_fixpoints(program: &Program, options: &InvariantOptions) {
    let cfg = program.to_cfg();
    let top = Polyhedron::universe(cfg.num_vars());
    let name = &program.name;
    let forward = analyze_cfg_from(&cfg, &top, options);
    let reference = reference_analyze_cfg_from(&cfg, &top, options);
    assert_eq!(
        printed(forward.nodes()),
        printed(reference.nodes()),
        "{name}: forward node map ({options:?})"
    );
    assert_eq!(
        printed(&location_invariants_from(&cfg, &top, options)),
        printed(&at_headers(&cfg, &reference)),
        "{name}: location invariants ({options:?})"
    );
    assert_eq!(
        printed(entry_reach(&cfg, &top, options).nodes()),
        printed(reference_entry_reach(&cfg, &top, options).nodes()),
        "{name}: entry reach ({options:?})"
    );
}

#[test]
fn dirty_sweeps_reproduce_round_robin_invariants() {
    let options = InvariantOptions::default();
    for program in programs() {
        assert_identical_fixpoints(&program, &options);
    }
}

/// Programs of at most 3 variables on which the exact hull's
/// Fourier–Motzkin projections take from a second to over a minute per
/// fixpoint (`paper_example_1`), raw or optimized. The default-join test
/// covers them.
const SLOW_UNDER_EXACT_JOIN: [&str; 7] = [
    "bubble_sort",
    "gcd_like",
    "insertion_sort",
    "nested_2",
    "offdiagonal",
    "paper_example_1",
    "selection_sort",
];

#[test]
fn dirty_sweeps_reproduce_round_robin_invariants_under_exact_join() {
    let options = InvariantOptions {
        exact_join: true,
        ..InvariantOptions::default()
    };
    let programs = programs();
    let cheap = programs
        .iter()
        .filter(|p| p.num_vars() <= 3 && !SLOW_UNDER_EXACT_JOIN.contains(&p.name.as_str()));
    for program in cheap {
        assert_identical_fixpoints(program, &options);
    }
}

#[test]
fn snapshot_invariants_match_round_robin_stages() {
    let options = InvariantOptions::default();
    for program in programs() {
        let cfg = program.to_cfg();
        let ts = program.transition_system();
        let top = Polyhedron::universe(cfg.num_vars());
        let snapshot = InvariantSnapshot::new(&program, &ts, &options, &Interrupt::never());
        let mut reference = at_headers(&cfg, &reference_analyze_cfg_from(&cfg, &top, &options));
        let reach = at_headers(&cfg, &reference_entry_reach(&cfg, &top, &options));
        houdini::strengthen_inductive(
            &ts,
            &reach,
            &mut reference,
            &guard_candidates(&cfg),
            &Interrupt::never(),
        );
        assert_eq!(
            printed(snapshot.invariants()),
            printed(&reference),
            "{}: strengthened invariants",
            program.name
        );
    }
}

/// The forward and Houdini-strengthened snapshot invariants of every
/// program of [`programs`], printed one cut point per line: under the
/// default weak join for all of them, and under the exact join for the
/// cheap ones of the exact-join identity test.
fn snapshot_dump() -> String {
    let exact = InvariantOptions {
        exact_join: true,
        ..InvariantOptions::default()
    };
    let programs = programs();
    let raw = programs.len() / 2;
    let mut out = String::new();
    for options in [InvariantOptions::default(), exact] {
        for (i, program) in programs.iter().enumerate() {
            let slow =
                program.num_vars() > 3 || SLOW_UNDER_EXACT_JOIN.contains(&program.name.as_str());
            if options.exact_join && slow {
                continue;
            }
            let form = if i < raw { "raw" } else { "optimized" };
            let ts = program.transition_system();
            let snapshot = InvariantSnapshot::new(program, &ts, &options, &Interrupt::never());
            out += &format!(
                "## {} ({form}, exact_join: {})\n",
                program.name, options.exact_join
            );
            for (stage, invariants) in [
                ("forward", snapshot.forward_invariants()),
                ("strengthened", snapshot.invariants()),
            ] {
                for (k, invariant) in invariants.iter().enumerate() {
                    out += &format!("{stage} {k}: {invariant}\n");
                }
            }
        }
    }
    out
}

/// The snapshot invariants print byte for byte as recorded in
/// `fixtures/snapshot_invariants.txt` before polyhedral entailment moved to
/// warm sessions. Unlike the references above, which share the polyhedra
/// library with the code they check, the fixture pins the entailment
/// answers themselves.
#[test]
fn snapshot_invariants_match_the_recorded_fixture() {
    let expected = include_str!("../fixtures/snapshot_invariants.txt");
    let actual = snapshot_dump();
    for (line, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "fixture line {}", line + 1);
    }
    assert_eq!(actual, expected, "fixture length");
}
