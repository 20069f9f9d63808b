//! The heuristic engine counts, times and traces each SMT query where it
//! issues it: one `smt_check` span per counted query, and non-zero
//! `smt_millis` whenever it asked anything.

use std::sync::Arc;
use termite_core::{prove_termination, AnalysisOptions, Engine};
use termite_obs::{Recorder, TraceEvent};

fn smt_checks(events: &[TraceEvent]) -> usize {
    events.iter().filter(|e| e.name == "smt_check").count()
}

#[test]
fn heuristic_queries_are_counted_timed_and_traced_where_issued() {
    let options = AnalysisOptions::with_engine(Engine::Heuristic);
    let mut some_query_was_sat = false;
    for benchmark in termite_suite::all_benchmarks() {
        let recorder = Arc::new(Recorder::new(1 << 16));
        let report = {
            let _guard = termite_obs::install(Arc::clone(&recorder));
            prove_termination(&benchmark.program, &options)
        };
        assert_eq!(recorder.dropped(), 0);
        let stats = &report.stats;
        let name = &benchmark.program.name;
        assert_eq!(
            smt_checks(&recorder.drain()),
            stats.smt_queries,
            "{name}: one smt_check span per counted query"
        );
        if stats.smt_queries > 0 {
            assert!(stats.smt_millis > 0.0, "{name}: SMT queries ran untimed");
        }
        // A tuple component whose strict-decrease query is satisfiable is
        // where the old accounting double-counted.
        some_query_was_sat |= !report.proved() && stats.smt_queries > 0;
    }
    assert!(
        some_query_was_sat,
        "no program exercised a satisfiable query"
    );
}
