//! Portfolio race determinism: the report a race returns must not depend on
//! thread scheduling.
//!
//! The scheduling lever is the `slow_engine` fault point: for each engine of
//! the full portfolio in turn, that engine is handed a 40 ms head-start
//! disadvantage before it begins proving, and the race's report must come
//! out **byte-identical** (modulo wall-clock fields, which are zeroed before
//! comparison) to the fault-free baseline. Four programs cover the verdict
//! lattice:
//!
//! - a multiphase loop only the `lasso` engine proves unconditionally — the
//!   winner-slot path (the proof cancels the siblings);
//! - a conditionally terminating loop where `termite`'s `TerminatesIf` is
//!   the best answer — the no-slot path (everyone completes, rank + list
//!   position pick the winner);
//! - a case-split loop only the last-listed `piecewise` lane proves (its
//!   disjunctive `TerminatesIf` is the sole non-Unknown answer);
//! - a non-terminating loop nobody proves — the all-Unknown tie, broken by
//!   list position.
//!
//! Everything lives in one `#[test]`: fault plans are process-global, so a
//! concurrently running race from a sibling test could consume an armed
//! `slow_engine` point meant for this one.

use termite_core::AnalysisOptions;
use termite_driver::json::Json;
use termite_driver::{
    engine_cli_name, faults, parse_selection, report_to_json, run_selection, AnalysisJob,
    EngineSelection,
};
use termite_invariants::InvariantOptions;
use termite_ir::parse_program;

/// The four lattice programs and the `engine_won` each race must report.
const PROGRAMS: [(&str, &str, Option<&str>); 4] = [
    (
        "unique-unconditional",
        "var x, y; while (x > 0) { x = x + y; y = y - 1; }",
        Some("Lasso"),
    ),
    (
        "conditional-best",
        "var x, y; while (x > 0) { x = x + y; }",
        Some("Termite"),
    ),
    (
        "piecewise-only",
        "var x, y; while (x + y != 0) { \
         choice { assume x + y >= 1; x = x - 2; y = y + 1; } \
         or { assume x + y <= 0 - 1; x = x + 2; y = y - 1; } }",
        Some("Piecewise"),
    ),
    (
        "no-proof",
        "var x; assume x >= 2; while (x > 0) { x = 3 - x; }",
        None,
    ),
];

fn job(src: &str) -> AnalysisJob {
    let program = parse_program(src).expect("test program parses");
    AnalysisJob::from_program(&program, &InvariantOptions::default())
}

/// Serializes a report with every wall-clock field zeroed: timings are the
/// one part of a report that legitimately varies between runs.
fn normalized(report: Json) -> String {
    fn scrub(json: &mut Json) {
        match json {
            Json::Object(map) => {
                for (key, value) in map.iter_mut() {
                    if key.ends_with("_millis") {
                        *value = Json::Number(0.0);
                    } else {
                        scrub(value);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut json = report;
    scrub(&mut json);
    json.to_string()
}

#[test]
fn race_reports_are_identical_no_matter_which_engine_is_slowed() {
    let selection = parse_selection("portfolio").unwrap();
    for (name, src, expected_winner) in PROGRAMS {
        let j = job(src);
        let baseline = run_selection(&j, &selection, &AnalysisOptions::default());
        assert_eq!(
            baseline.report.stats.engine_won.as_deref(),
            expected_winner,
            "{name}: unexpected baseline winner"
        );
        let baseline_json = normalized(report_to_json(&baseline.report));
        // Every engine of the full portfolio, in its `--engine` spelling —
        // the name the `slow_engine` fault point targets.
        for engine in EngineSelection::full_portfolio().engines() {
            let slowed = engine_cli_name(engine);
            let _guard = faults::arm(&format!("slow_engine={slowed}:40")).unwrap();
            let raced = run_selection(&j, &selection, &AnalysisOptions::default());
            let raced_json = normalized(report_to_json(&raced.report));
            assert_eq!(
                raced_json, baseline_json,
                "{name}: report changed when `{slowed}` was slowed"
            );
        }
    }
}
