//! Property tests for the conditional-termination pipeline: verdicts are
//! checked against *bounded concrete simulation* of the node-level CFG, and
//! the backward precondition propagation is checked against the forward
//! analysis on `assume`-constrained programs.
//!
//! The simulator is demonic where the semantics is: every enabled guard edge
//! and every havoc value (from a small probe set) is explored, so one
//! diverging exploration falsifies a termination claim. An execution that
//! gets stuck (no enabled edge — e.g. a failing in-loop `assume`) has
//! terminated.

use proptest::prelude::*;
use termite_core::{
    monodim, prove_termination, prove_transition_system, AnalysisOptions, CancelToken, Engine,
    MonodimInput, SynthesisLpWorkspace, SynthesisStats, UnknownReason, Verdict,
};
use termite_invariants::{analyze_cfg, entry_precondition, InvariantOptions};
use termite_ir::{parse_program, Cfg, CfgOp};
use termite_linalg::QVector;
use termite_num::Rational;
use termite_polyhedra::Polyhedron;

/// Steps of CFG edge-walking each exploration may take. The sampled start
/// states live in a small box, and every template family strictly decreases
/// a sampled variable by ≥ 1 per loop iteration (a handful of edges each),
/// so genuine terminating runs finish well under this budget.
const FUEL: usize = 400;

/// Havoc probe values: a diverging havocked program almost always diverges
/// under one of these already.
const HAVOC_CHOICES: [i64; 5] = [-3, -1, 0, 1, 3];

/// `true` iff every explored execution from `state` at `node` halts (reaches
/// the exit or gets stuck) within `fuel` edge steps.
fn halts(cfg: &Cfg, node: usize, state: &QVector, fuel: usize) -> bool {
    if node == cfg.exit() {
        return true;
    }
    if fuel == 0 {
        return false;
    }
    cfg.successors(node).all(|edge| match &edge.op {
        CfgOp::Guard(cs) => {
            // A disabled guard edge contributes no execution.
            !cs.iter().all(|c| c.satisfied_by(state)) || halts(cfg, edge.to, state, fuel - 1)
        }
        CfgOp::Assign(v, e) => {
            let mut next = state.clone();
            next[*v] = &e.coeffs.dot(state) + &e.constant;
            halts(cfg, edge.to, &next, fuel - 1)
        }
        CfgOp::Havoc(v) => HAVOC_CHOICES.iter().all(|&val| {
            let mut next = state.clone();
            next[*v] = Rational::from(val);
            halts(cfg, edge.to, &next, fuel - 1)
        }),
    })
}

/// `true` iff every explored execution from `state` at `node` that reaches
/// `header` first arrives inside `inv` (executions that halt or stay in the
/// entry region trivially pass).
fn reaches_header_inside(
    cfg: &Cfg,
    node: usize,
    state: &QVector,
    header: usize,
    inv: &Polyhedron,
    fuel: usize,
) -> bool {
    if node == header {
        return inv.contains_point(state);
    }
    if node == cfg.exit() || fuel == 0 {
        return true;
    }
    cfg.successors(node).all(|edge| match &edge.op {
        CfgOp::Guard(cs) => {
            !cs.iter().all(|c| c.satisfied_by(state))
                || reaches_header_inside(cfg, edge.to, state, header, inv, fuel - 1)
        }
        CfgOp::Assign(v, e) => {
            let mut next = state.clone();
            next[*v] = &e.coeffs.dot(state) + &e.constant;
            reaches_header_inside(cfg, edge.to, &next, header, inv, fuel - 1)
        }
        CfgOp::Havoc(v) => HAVOC_CHOICES.iter().all(|&val| {
            let mut next = state.clone();
            next[*v] = Rational::from(val);
            reaches_header_inside(cfg, edge.to, &next, header, inv, fuel - 1)
        }),
    })
}

/// Instantiates one program of the template family used by the properties.
/// Every member needs an entry precondition to terminate (except the last,
/// provable unconditionally via the bounded-from-below relaxation), so the
/// refinement pipeline — backward propagation included — is on the hot path
/// of every case.
fn template(which: usize, a: i64, k: i64, c: i64) -> String {
    match which % 5 {
        0 => format!("var x, y; while (x > 0) {{ x = x + y; y = y - 1; assume y <= {a}; }}"),
        1 => "var x, y; while (x > 0) { x = x + y; }".to_string(),
        // Backward preimage through a straight-line prefix assignment.
        2 => format!(
            "var x, y; y = y + {k}; while (x > 0) {{ x = x + y; y = y - 1; assume y <= 0; }}"
        ),
        // Branching prefix: the precondition must cover both paths.
        3 => format!(
            "var x, y, c; c = nondet(); if (c >= 1) {{ x = x + 1; }} else {{ x = x + 2; }} \
             while (x > 0) {{ x = x + y; y = y - 1; assume y <= {a}; }}"
        ),
        // Countdown with no entry constraint: provable only because the
        // bounded-from-below relaxation drops ρ ≥ 0 on ⊤.
        _ => format!("var x; while (x > {c}) {{ x = x - {k}; }}"),
    }
}

/// Every engine of the portfolio, for the differential harness.
const ALL_ENGINES: [Engine; 7] = [
    Engine::CompleteLrf,
    Engine::Lasso,
    Engine::Termite,
    Engine::Eager,
    Engine::PodelskiRybalchenko,
    Engine::Heuristic,
    Engine::Piecewise,
];

/// Fuel for the differential zoo: its programs are deterministic (no havoc,
/// no branching), so exploration is a single path and a generous budget is
/// cheap. The multiphase drifts can run for a few hundred iterations from
/// the corner of the sample box before the last phase catches up.
const DIFF_FUEL: usize = 4000;

/// A `phases`-deep multiphase drift: `x1 += x2`, …, and the last variable
/// alone counts down by `step`. Universally terminating; the only linear
/// certificate is a `phases`-phase nested ranking function.
fn drift_src(phases: usize, step: i64) -> String {
    let decls: Vec<String> = (1..=phases).map(|p| format!("x{p}")).collect();
    let mut src = format!("var {}; while (x1 > 0) {{ ", decls.join(", "));
    for p in 1..phases {
        src.push_str(&format!("x{p} = x{p} + x{}; ", p + 1));
    }
    src.push_str(&format!("x{phases} = x{phases} - {step}; }}"));
    src
}

/// One program of the randomized multiphase/lasso zoo, plus its ground
/// truth: `true` iff every initial state terminates.
fn differential_template(which: usize, phases: usize, step: i64, c: i64) -> (String, bool) {
    match which % 4 {
        // Multiphase drift: terminating, lasso-provable at depth `phases`.
        0 => (drift_src(phases, step), true),
        // Stem + linearly ranked loop: terminating (`i` climbs by `step ≥ 1`
        // toward the arbitrary but fixed `n`), LRF `n − i` exists.
        1 => (
            format!("var i, n; i = 0; while (i < n) {{ i = i + {step}; }}"),
            true,
        ),
        // Open drift: diverges whenever y ≥ 0 and x ≥ 1 — only conditional
        // claims can be sound.
        2 => ("var x, y; while (x > 0) { x = x + y; }".to_string(), false),
        // Pendulum: `x ↦ c − x` cycles strictly inside the guard from
        // x = 1 (and x = c − 1), so universal termination is false.
        _ => (
            format!("var x; assume x >= 1; while (x > 0) {{ x = {c} - x; }}"),
            false,
        ),
    }
}

/// What the completeness oracle saw on one program.
#[derive(Debug, PartialEq, Eq)]
enum OracleOutcome {
    /// `complete-lrf` did not answer `NoRankingFunction`, so the oracle has
    /// nothing to cross-check.
    NotRefuted,
    /// `complete-lrf` refuted LRF existence and monodim indeed failed to
    /// synthesise a strict one — the two algorithms agree.
    Agreement,
    /// `complete-lrf` refuted LRF existence but monodim *found* a strict
    /// ranking function: one of the two is wrong.
    Contradiction,
}

/// Runs `complete-lrf` through its engine entry (lasso capped at depth 1)
/// and, when it claims no linear ranking function exists, monodim on the
/// same transition system and invariant — a box, not ⊤, so the
/// extremal-counterexample optimizations stay bounded. The engine entry
/// narrows the box to the loop's enabled region; fewer transitions are
/// easier to rank, so a refutation there also refutes every linear ranking
/// function over the whole box, and monodim must fail there too.
/// Completeness is an invariant-relative notion, so the agreement claim is
/// unaffected by which invariant is used.
fn oracle_agrees(src: &str) -> OracleOutcome {
    let program = parse_program(src).unwrap();
    let ts = program.transition_system();
    let box_inv = Polyhedron::from_constraints(
        ts.num_vars(),
        (0..ts.num_vars())
            .flat_map(|i| {
                let mut unit = vec![0i64; ts.num_vars()];
                unit[i] = 1;
                let axis = QVector::from_i64(&unit);
                [
                    termite_polyhedra::Constraint::ge(axis.clone(), Rational::from(-64)),
                    termite_polyhedra::Constraint::le(axis, Rational::from(64)),
                ]
            })
            .collect(),
    );
    let invariants = vec![box_inv];
    let report = prove_transition_system(
        &ts,
        &invariants,
        &AnalysisOptions::with_engine(Engine::CompleteLrf),
    );
    if !matches!(
        &report.verdict,
        Verdict::Unknown {
            reason: UnknownReason::NoRankingFunction
        }
    ) {
        return OracleOutcome::NotRefuted;
    }
    let mut mono_stats = SynthesisStats::default();
    let mut ws = SynthesisLpWorkspace::new(&invariants, termite_lp::Interrupt::never());
    ws.begin_level(&vec![None; invariants.len()]);
    let result = monodim(
        &MonodimInput {
            ts: &ts,
            invariants: &invariants,
            previous: &[],
            max_iterations: 40,
            cancel: &CancelToken::new(),
        },
        &mut ws,
        &mut mono_stats,
    );
    if result.strict {
        OracleOutcome::Contradiction
    } else {
        OracleOutcome::Agreement
    }
}

/// The oracle's refutation branch, exercised deterministically: the
/// stationary loop `while (x > 0) { x = x; }` self-loops at `x = 1`, so no
/// function strictly decreases — `complete-lrf` must refute and monodim
/// must concur. Guarantees the property above is never vacuously green.
#[test]
fn complete_lrf_refutation_branch_is_reachable() {
    assert_eq!(
        oracle_agrees("var x, y; while (x > 0) { x = 0 + x; y = 0; }"),
        OracleOutcome::Agreement
    );
    // And the not-refuted branch, for contrast: a plain countdown has the
    // LRF `x`, so the complete test proves rather than refutes.
    assert_eq!(
        oracle_agrees("var x, y; while (x > 0) { x = x - 1; y = 0; }"),
        OracleOutcome::NotRefuted
    );
}

/// One program of the randomized case-split family for the completeness
/// canary: a walk whose *sum* `x + y` steps toward zero by 1 per iteration,
/// but whose individual variables jump by `±k` / `∓(k−1)`. No convex linear
/// certificate exists (the ranking must be `|x + y|`), and for `k ≥ 2` the
/// per-variable jumps defeat the refinement pipeline's axis-aligned
/// narrowing, so every non-piecewise engine is stuck at `Unknown`.
fn case_split_src(k: i64, swap: bool) -> String {
    let (pos, neg) = (
        format!("x = x - {k}; y = y + {};", k - 1),
        format!("x = x + {k}; y = y - {};", k - 1),
    );
    let (a, b) = if swap { (neg, pos) } else { (pos, neg) };
    let (ga, gb) = if swap {
        ("x + y <= 0 - 1", "x + y >= 1")
    } else {
        ("x + y >= 1", "x + y <= 0 - 1")
    };
    format!(
        "var x, y; while (x + y != 0) {{ \
         choice {{ assume {ga}; {a} }} or {{ assume {gb}; {b} }} }}"
    )
}

proptest! {
    /// The completeness canary: on the randomized case-split family every
    /// engine except `piecewise` answers `Unknown`, and `piecewise` proves
    /// it — so the seventh portfolio lane is never vacuous, and a
    /// regression in any direction (a baseline suddenly proving the family,
    /// or piecewise losing it) fails loudly. The piecewise claim itself is
    /// replayed disjunct-by-disjunct under the demonic simulator.
    #[test]
    fn prop_piecewise_proves_what_the_other_six_cannot(
        k in 2i64..5,
        swap in 0usize..2,
        samples in prop::collection::vec(prop::collection::vec(-6i64..7, 2), 8),
    ) {
        let src = case_split_src(k, swap == 1);
        let program = parse_program(&src).unwrap();
        for engine in ALL_ENGINES {
            if engine == Engine::Piecewise {
                continue;
            }
            let options = AnalysisOptions { engine, ..AnalysisOptions::default() };
            let report = prove_termination(&program, &options);
            prop_assert!(
                matches!(report.verdict, Verdict::Unknown { .. }),
                "{engine:?} unexpectedly answered {:?} on {src}: the canary \
                 family no longer separates piecewise from the baselines",
                report.verdict
            );
        }
        let options = AnalysisOptions { engine: Engine::Piecewise, ..AnalysisOptions::default() };
        let report = prove_termination(&program, &options);
        let Verdict::TerminatesIf { disjuncts, .. } = &report.verdict else {
            panic!("piecewise must prove the case-split family, got {:?} on {src}", report.verdict);
        };
        prop_assert!(disjuncts.len() >= 2, "{src}: expected a genuine case split");
        let cfg = program.to_cfg();
        for s in &samples {
            let state = QVector::from_i64(s);
            if !disjuncts.iter().any(|d| d.clause.contains_point(&state)) {
                continue;
            }
            prop_assert!(
                halts(&cfg, cfg.entry(), &state, DIFF_FUEL),
                "{src}: piecewise claimed termination from {state:?}, but \
                 bounded simulation diverges"
            );
        }
    }

    /// The differential soundness harness: every engine of the portfolio
    /// runs on every program of the randomized multiphase/lasso zoo, and
    ///
    /// 1. every termination claim — universal (`Terminates`) or conditional
    ///    (`TerminatesIf`) — is checked against bounded demonic simulation
    ///    from sampled initial states;
    /// 2. no engine claims universal termination of a program whose ground
    ///    truth is non-terminating;
    /// 3. the engines agree where completeness demands it: the multiphase
    ///    drifts must be proved unconditionally by `lasso`, and the stem
    ///    loop (which has a plain LRF) by `complete-lrf` — a verdict decay
    ///    there is a completeness regression, not schedule noise.
    #[test]
    fn prop_every_engine_is_sound_on_the_lasso_zoo(
        which in 0usize..4,
        phases in 1usize..4,
        step in 1i64..4,
        c in 2i64..6,
        samples in prop::collection::vec(prop::collection::vec(-5i64..6, 3), 8),
    ) {
        let (src, universally_terminating) = differential_template(which, phases, step, c);
        let program = parse_program(&src).unwrap();
        let cfg = program.to_cfg();
        let mut unconditional: Vec<Engine> = Vec::new();
        for engine in ALL_ENGINES {
            let options = AnalysisOptions {
                engine,
                ..AnalysisOptions::default()
            };
            let report = prove_termination(&program, &options);
            // A conditional verdict claims the *union* of its disjunct
            // clauses: each disjunct is replayed independently — a state in
            // any one of them must halt.
            let claimed: Option<Vec<Polyhedron>> = match &report.verdict {
                Verdict::Terminates(_) => {
                    unconditional.push(engine);
                    None
                }
                Verdict::TerminatesIf { disjuncts, .. } => {
                    Some(disjuncts.iter().map(|d| d.clause.clone()).collect())
                }
                Verdict::Unknown { .. } => continue,
            };
            prop_assert!(
                universally_terminating || claimed.is_some(),
                "{engine:?} on {src}: claimed universal termination of a \
                 non-terminating program"
            );
            for s in &samples {
                let state = QVector::from_i64(&s[..program.num_vars()]);
                if claimed
                    .as_ref()
                    .is_some_and(|ps| !ps.iter().any(|p| p.contains_point(&state)))
                {
                    continue;
                }
                prop_assert!(
                    halts(&cfg, cfg.entry(), &state, DIFF_FUEL),
                    "{engine:?} on {src}: claimed terminating from {state:?}, \
                     but bounded simulation diverges"
                );
            }
        }
        match which % 4 {
            0 => prop_assert!(
                unconditional.contains(&Engine::Lasso),
                "lasso must prove the {phases}-phase drift unconditionally: {src}"
            ),
            1 => prop_assert!(
                unconditional.contains(&Engine::CompleteLrf),
                "complete-lrf must prove the LRF-ranked stem loop: {src}"
            ),
            _ => {}
        }
    }

    /// The completeness oracle: `complete-lrf`'s `NoRankingFunction` answer
    /// on a random single-path loop is a *universally quantified* claim —
    /// no linear ranking function exists relative to the (here trivial)
    /// invariant. The monodimensional synthesis searches the same template
    /// space from the extremal-counterexample side, so whenever the
    /// complete test says "none exists", monodim must fail to find a strict
    /// one. (The converse is not checked: monodim failing proves nothing.)
    #[test]
    fn prop_complete_lrf_refutations_bind_monodim(
        ax in -2i64..3,
        ay in -2i64..3,
        bx in -2i64..3,
        by in -2i64..3,
        cst in -3i64..4,
    ) {
        // `x' = ax·x + ay·y + cst`, `y' = bx·x + by·y` — spelled with unit
        // additions, which is all the surface grammar offers. `y` reads the
        // *updated* `x`, which is fine: the loop is still linear and
        // deterministic, and the oracle does not care which relation it is.
        let lin = |vx: i64, vy: i64, k: i64| {
            let mut e = format!("{k}");
            for _ in 0..vx.abs() {
                e.push_str(if vx > 0 { " + x" } else { " - x" });
            }
            for _ in 0..vy.abs() {
                e.push_str(if vy > 0 { " + y" } else { " - y" });
            }
            e
        };
        let src = format!(
            "var x, y; while (x > 0) {{ x = {}; y = {}; }}",
            lin(ax, ay, cst),
            lin(bx, by, 0),
        );
        prop_assert!(oracle_agrees(&src) != OracleOutcome::Contradiction);
    }

    /// Soundness of the verdict lattice against concrete execution: whatever
    /// set of initial states the engine claims termination for — everything
    /// (`Terminates`) or the inferred precondition (`TerminatesIf`) — every
    /// sampled member of that set halts under bounded demonic simulation.
    #[test]
    fn prop_claimed_preconditions_terminate(
        which in 0usize..5,
        a in 0i64..3,
        k in -3i64..4,
        c in 0i64..4,
        samples in prop::collection::vec(prop::collection::vec(-8i64..9, 3), 10),
    ) {
        let k = if which % 5 == 4 { k.abs() + 1 } else { k };
        let src = template(which, a, k, c);
        let program = parse_program(&src).unwrap();
        let cfg = program.to_cfg();
        let report = prove_termination(&program, &AnalysisOptions::default());
        // Every template family member is provable (the probe matrix in this
        // PR covered the full constant ranges) — a verdict decay to Unknown
        // is itself a regression worth failing on.
        let claimed: Option<Vec<Polyhedron>> = match &report.verdict {
            Verdict::Terminates(_) => None,
            Verdict::TerminatesIf { disjuncts, .. } => {
                Some(disjuncts.iter().map(|d| d.clause.clone()).collect())
            }
            Verdict::Unknown { reason } => panic!("{src}: expected a proof, got Unknown ({reason})"),
        };
        for s in &samples {
            let state = QVector::from_i64(&s[..program.num_vars()]);
            if claimed
                .as_ref()
                .is_some_and(|ps| !ps.iter().any(|p| p.contains_point(&state)))
            {
                continue;
            }
            prop_assert!(
                halts(&cfg, cfg.entry(), &state, FUEL),
                "{src}: claimed terminating from {state:?}, but bounded simulation diverges"
            );
        }
    }

    /// Forward/backward agreement on `assume`-constrained programs. The
    /// forward analysis computes a header invariant `I` from the entry
    /// `assume`; seeding the backward propagation with `I` must produce an
    /// entry precondition `P` such that every concrete execution from
    /// `P` reaches the header only inside `I` — and `P` must not be vacuous
    /// (it keeps the `assume`-satisfying entry states).
    #[test]
    fn prop_forward_backward_agree_on_assumes(
        cc in 1i64..5,
        b in 5i64..10,
        samples in prop::collection::vec(prop::collection::vec(-8i64..9, 2), 10),
    ) {
        let src = format!(
            "var x, y; assume y >= {cc} && x <= {b}; while (x > 0) {{ x = x - y; }}"
        );
        let program = parse_program(&src).unwrap();
        // With the assume in place the forward pass alone suffices: the
        // verdict must be unconditional.
        let report = prove_termination(&program, &AnalysisOptions::default());
        prop_assert!(
            report.proved_unconditionally(),
            "{src}: expected an unconditional proof, got {:?}",
            report.verdict
        );

        let cfg = program.to_cfg();
        let header = cfg.loop_headers()[0];
        let inv = analyze_cfg(&cfg, &InvariantOptions::default()).at_node(header).clone();
        let pre = entry_precondition(&cfg, header, &inv);
        // Non-vacuity: a state satisfying the assume is kept.
        prop_assert!(
            pre.contains_point(&QVector::from_i64(&[1, cc])),
            "{src}: backward precondition {pre} dropped the assume-satisfying state (1, {cc})"
        );
        for s in &samples {
            let state = QVector::from_i64(s);
            if !pre.contains_point(&state) {
                continue;
            }
            prop_assert!(
                reaches_header_inside(&cfg, cfg.entry(), &state, header, &inv, FUEL),
                "{src}: state {state:?} satisfies the backward precondition {pre} but \
                 reaches the header outside the forward invariant {inv}"
            );
        }
    }
}
