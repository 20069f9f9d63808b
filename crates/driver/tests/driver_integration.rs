//! Integration tests of the batch-analysis subsystem: portfolio racing with
//! loser cancellation, cache-hit identity, and parallel/sequential parity on
//! a 64-job batch.

use std::time::{Duration, Instant};
use termite_core::{AnalysisOptions, CancelToken, Engine, Verdict};
use termite_driver::{
    run_batch, run_selection, AnalysisJob, BatchConfig, EngineSelection, JobInput, ResultCache,
};
use termite_invariants::InvariantOptions;
use termite_ir::parse_program;
use termite_suite::{generators::multipath_loop, SuiteId};

fn job(src: &str) -> AnalysisJob {
    AnalysisJob::from_program(&parse_program(src).unwrap(), &InvariantOptions::default())
}

/// The portfolio returns the first engine to find a proof, and that proof is
/// reproducible by running the winner alone.
#[test]
fn portfolio_winner_reproduces_alone() {
    let j = job(r#"
        var x, y;
        assume x == 5 && y == 10;
        while (true) {
            choice {
                assume x <= 10 && y >= 0; x = x + 1; y = y - 1;
            } or {
                assume x >= 0 && y >= 0;  x = x - 1; y = y - 1;
            }
        }
    "#);
    let out = run_selection(
        &j,
        &EngineSelection::full_portfolio(),
        &AnalysisOptions::default(),
    );
    assert!(
        out.report.proved(),
        "some engine proves Example 1 of the paper"
    );
    let winner = out.winner.expect("a proof implies a winning engine");
    let solo = run_selection(
        &j,
        &EngineSelection::single(winner),
        &AnalysisOptions::default(),
    );
    assert!(
        solo.report.proved(),
        "the winning engine must also prove the job on its own"
    );
}

/// Racing losers are cancelled once a sibling proves: on the 2^6-path loop,
/// Termite's lazy encoding wins (the point of the paper), and the eager
/// baseline is either cut short (reported `Unknown` and counted as a
/// cancelled loser) or — if it slipped past the last cancellation check
/// before the winner landed — finishes its bounded LP without stealing the
/// win. Both interleavings must yield Termite's proof.
#[test]
fn portfolio_race_returns_the_first_proof() {
    let program = multipath_loop(6);
    let j = AnalysisJob::from_program(&program, &InvariantOptions::default());
    let selection = EngineSelection::portfolio(vec![Engine::Termite, Engine::Eager]);
    let out = run_selection(&j, &selection, &AnalysisOptions::default());
    assert_eq!(out.winner, Some(Engine::Termite));
    assert!(out.report.proved());
    assert!(out.unproved_losers <= 1);
}

/// A loser that can never prove (Podelski–Rybalchenko on a loop needing two
/// lexicographic dimensions) always ends as a cancelled-or-failed loser while
/// the winner's proof comes back: the deterministic half of the race
/// contract.
#[test]
fn portfolio_race_loser_never_wins() {
    use termite_linalg::QVector;
    use termite_num::Rational;
    use termite_polyhedra::{Constraint, Polyhedron};

    let program = parse_program(
        r#"
        var i, j, N;
        assume i >= 0 && j >= 0 && N >= 0;
        while (i > 0) {
            choice {
                assume j > 1;  j = j - 1;
            } or {
                assume j <= 0; i = i - 1; j = N;
            }
        }
    "#,
    )
    .unwrap();
    // The paper's Example 3 invariant (i, j, N all non-negative): strong
    // enough for the lexicographic pair (i, j), out of reach for a single
    // linear ranking function.
    let invariants = vec![Polyhedron::from_constraints(
        3,
        vec![
            Constraint::ge(QVector::from_i64(&[1, 0, 0]), Rational::from(0)),
            Constraint::ge(QVector::from_i64(&[0, 1, 0]), Rational::from(0)),
            Constraint::ge(QVector::from_i64(&[0, 0, 1]), Rational::from(0)),
        ],
    )];
    let j = AnalysisJob {
        name: program.name.clone(),
        ts: program.transition_system(),
        // One-shot job: the hand-written invariants stay authoritative (no
        // refinement pipeline re-deriving them).
        input: JobInput::Invariants(invariants),
        expected_terminating: Some(true),
        provenance: None,
        opt_stats: None,
    };
    let selection = EngineSelection::portfolio(vec![Engine::Termite, Engine::PodelskiRybalchenko]);
    let out = run_selection(&j, &selection, &AnalysisOptions::default());
    assert_eq!(
        out.winner,
        Some(Engine::Termite),
        "only Termite can prove the reset loop"
    );
    assert!(out.report.proved());
    assert!(out.report.ranking_function().unwrap().dimension() >= 2);
}

/// Cancellation is cooperative but prompt: a token that fires immediately
/// turns a multi-second analysis into a near-instant `Unknown`.
#[test]
fn expired_deadline_cuts_an_expensive_job_short() {
    let j = job(r#"
        var a, b;
        assume a >= 1 && b >= 1;
        while (a != b) {
            if (a > b) { a = a - b; } else { b = b - a; }
        }
    "#);
    let start = Instant::now();
    let options =
        AnalysisOptions::default().with_cancel(CancelToken::with_deadline(Duration::ZERO));
    let out = run_selection(&j, &EngineSelection::single(Engine::Termite), &options);
    assert!(
        !out.report.proved(),
        "a cancelled run must never claim a proof"
    );
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "cancellation must take effect within one iteration, not after the full analysis"
    );
}

/// A cache hit returns a `TerminationReport` identical to the stored one.
#[test]
fn cache_hit_returns_identical_report() {
    let cache = ResultCache::new();
    let config = BatchConfig {
        workers: 2,
        selection: EngineSelection::single(Engine::Termite),
        ..BatchConfig::default()
    };
    let first = run_batch(
        AnalysisJob::from_suite(SuiteId::Sorts),
        &config,
        Some(&cache),
    );
    assert!(first.iter().all(|r| !r.from_cache));

    let second = run_batch(
        AnalysisJob::from_suite(SuiteId::Sorts),
        &config,
        Some(&cache),
    );
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert!(
            b.from_cache,
            "{}: second run must be served from the cache",
            b.name
        );
        assert_eq!(
            a.report, b.report,
            "{}: cached report must be identical",
            a.name
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, second.len());
    assert_eq!(stats.stores, first.len());
}

/// A 64-job batch over TermComp with 4 workers produces exactly the verdicts
/// and certificates of the sequential run, in submission order.
#[test]
fn parallel_64_job_batch_matches_sequential() {
    // 64 jobs: the TermComp suite, cycled.
    let base = AnalysisJob::from_suite(SuiteId::TermComp);
    let jobs_64 = || -> Vec<AnalysisJob> { base.iter().cycle().take(64).cloned().collect() };
    let sequential_config = BatchConfig {
        workers: 1,
        selection: EngineSelection::single(Engine::Termite),
        ..BatchConfig::default()
    };
    let parallel_config = BatchConfig {
        workers: 4,
        ..sequential_config.clone()
    };

    let sequential = run_batch(jobs_64(), &sequential_config, None);
    let parallel = run_batch(jobs_64(), &parallel_config, None);

    assert_eq!(sequential.len(), 64);
    assert_eq!(parallel.len(), 64);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "submission order must be preserved");
        assert_eq!(
            s.report.verdict, p.report.verdict,
            "{}: parallel verdict differs from sequential",
            s.name
        );
        match (&s.report.verdict, &p.report.verdict) {
            (Verdict::Terminates(a), Verdict::Terminates(b)) => {
                assert_eq!(a, b, "{}: certificates must match", s.name)
            }
            (
                Verdict::TerminatesIf { ranking: a, .. },
                Verdict::TerminatesIf { ranking: b, .. },
            ) => {
                assert_eq!(a, b, "{}: certificates must match", s.name)
            }
            (Verdict::Unknown { .. }, Verdict::Unknown { .. }) => {}
            _ => unreachable!("verdicts already compared equal"),
        }
    }
}

/// The committed legacy (schema v2) cache fixture must load through the
/// strict path, its conditional entry must come back as a one-disjunct DNF,
/// and re-saving must upgrade the file to the current schema while keeping
/// both legacy entries. This is the in-tree twin of the CI cache-migration
/// smoke, pinned to the same fixture so the file can never rot silently.
#[test]
fn committed_v2_cache_fixture_migrates_and_upgrades() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cache_v2_legacy.json");
    let scratch = std::env::temp_dir().join("termite-driver-v2-fixture-test.json");
    std::fs::copy(&fixture, &scratch).unwrap();

    let cache = ResultCache::load(&scratch).expect("the committed fixture must stay readable");
    let terminating = cache.lookup("00f1de2000000001").unwrap();
    assert!(matches!(terminating.verdict, Verdict::Terminates(_)));
    let conditional = cache.lookup("00f1de2000000002").unwrap();
    let Verdict::TerminatesIf { disjuncts, .. } = &conditional.verdict else {
        panic!("legacy conditional entry must migrate to a DNF verdict");
    };
    assert_eq!(disjuncts.len(), 1, "one v2 clause becomes one disjunct");
    assert!(disjuncts[0].ranking.is_none(), "v2 rankings stay top-level");

    cache.save(&scratch).unwrap();
    let text = std::fs::read_to_string(&scratch).unwrap();
    assert!(
        text.contains("\"version\":3"),
        "re-save upgrades the schema"
    );
    assert!(text.contains("\"preconditions\""));
    assert!(
        !text.contains("\"precondition\":"),
        "legacy field is rewritten"
    );
    let reread = ResultCache::load(&scratch).unwrap();
    assert_eq!(reread.lookup("00f1de2000000002").unwrap(), conditional);
    let _ = std::fs::remove_file(&scratch);
}
