//! The termite engine's certificates on the whole benchmark suite, pinned
//! byte for byte in `fixtures/termite_certificates.txt`.
//!
//! For every suite program, with and without IR pre-optimization, the
//! fixture holds the verdict, the ranking function or precondition text,
//! and the exact work counters that follow the counterexample search:
//! iterations, counterexamples, LP pivots and SMT queries. A change to the
//! SMT layer that claims to keep the search (encoding reuse, kept theory
//! cores) must leave every line as recorded; a change that moves one must
//! say why before it re-records the fixture.

use termite_core::{AnalysisOptions, Engine};
use termite_driver::{report_to_json, run_selection, AnalysisJob, EngineSelection};
use termite_suite::SuiteId;

fn certificate_dump() -> String {
    let mut out = String::new();
    for optimize in [true, false] {
        for id in SuiteId::all() {
            for job in AnalysisJob::from_suite_with(id, optimize) {
                let report = run_selection(
                    &job,
                    &EngineSelection::single(Engine::Termite),
                    &AnalysisOptions::default(),
                )
                .report;
                let doc = report_to_json(&report);
                let stats = &report.stats;
                out += &format!("## {} (optimize: {optimize})\n", job.name);
                for key in ["verdict", "preconditions", "ranking"] {
                    out += &format!("{key}: {}\n", doc.get(key).unwrap());
                }
                out += &format!(
                    "iterations: {}, counterexamples: {}, lp_pivots: {}, smt_queries: {}\n",
                    stats.iterations, stats.counterexamples, stats.lp_pivots, stats.smt_queries
                );
            }
        }
    }
    out
}

#[test]
fn termite_certificates_match_the_recorded_fixture() {
    let expected = include_str!("fixtures/termite_certificates.txt");
    let actual = certificate_dump();
    for (line, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "fixture line {}", line + 1);
    }
    assert_eq!(actual, expected, "fixture length");
}
