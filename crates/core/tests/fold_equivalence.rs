//! The capped engines are their uncapped ones at depth 1: `complete-lrf` is
//! lasso capped at one phase and `pr` is eager capped at one lexicographic
//! level. On every suite program a capped engine must prove exactly when its
//! uncapped engine proves at dimension ≤ 1, with the same certificate, and
//! otherwise give the answer its cap certifies.

use termite_core::{
    prove_termination, AnalysisOptions, Engine, RankingFunction, TerminationReport, UnknownReason,
    Verdict,
};
use termite_ir::Program;

fn run(program: &Program, engine: Engine) -> TerminationReport {
    prove_termination(program, &AnalysisOptions::with_engine(engine))
}

/// The report's unconditional proof, if it has dimension at most 1.
fn linear_proof(report: &TerminationReport) -> Option<&RankingFunction> {
    match &report.verdict {
        Verdict::Terminates(rf) if rf.dimension() <= 1 => Some(rf),
        _ => None,
    }
}

fn reason(report: &TerminationReport) -> Option<UnknownReason> {
    match report.verdict {
        Verdict::Unknown { reason } => Some(reason),
        _ => None,
    }
}

#[test]
fn capped_engines_agree_with_their_uncapped_engines_at_depth_one() {
    // (complete-lrf proofs, refutations, out-of-scope answers, pr proofs,
    // pr refusals of a deeper eager proof): every branch must be exercised.
    let mut seen = [0usize; 5];
    for benchmark in termite_suite::all_benchmarks() {
        let program = &benchmark.program;
        let name = &program.name;

        let lasso = run(program, Engine::Lasso);
        let lrf = run(program, Engine::CompleteLrf);
        match linear_proof(&lasso) {
            Some(rf) => {
                assert_eq!(linear_proof(&lrf), Some(rf), "{name}: complete-lrf ≠ lasso");
                seen[0] += 1;
            }
            None => {
                let single = program.transition_system().num_locations() == 1;
                let expected = if single {
                    seen[1] += 1;
                    UnknownReason::NoRankingFunction
                } else {
                    seen[2] += 1;
                    UnknownReason::ResourceBudget
                };
                assert_eq!(reason(&lrf), Some(expected), "{name}: {:?}", lrf.verdict);
            }
        }

        let eager = run(program, Engine::Eager);
        let pr = run(program, Engine::PodelskiRybalchenko);
        match linear_proof(&eager) {
            Some(rf) => {
                assert_eq!(linear_proof(&pr), Some(rf), "{name}: pr ≠ eager");
                seen[3] += 1;
            }
            None => {
                assert!(reason(&pr).is_some(), "{name}: pr proved {:?}", pr.verdict);
                if eager.proved() {
                    seen[4] += 1;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a branch went unexercised: {seen:?}"
    );
}
