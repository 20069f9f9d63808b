//! Shared harness code for the evaluation benchmarks.
//!
//! The paper's Table 1 reports, per suite: the number of benchmarks, the
//! number proved terminating by each tool, the total analysis time (excluding
//! the front-end and invariant generation for Termite/Loopus), and the average
//! `(l, c)` size of the LP instances. [`run_suite`] computes exactly those
//! quantities for one engine; the Criterion benches and the
//! `examples/table1_report.rs` binary print them.

use termite_core::{prove_termination, AnalysisOptions, Engine};
use termite_invariants::{location_invariants, InvariantOptions};
use termite_ir::{optimize, OptStats, Program, Provenance, TransitionSystem};
use termite_polyhedra::Polyhedron;
use termite_suite::{suite, Benchmark, SuiteId};

/// A benchmark prepared for timing: transition system and invariants are
/// precomputed, mirroring the paper's methodology of excluding the front-end
/// and the invariant generator from the reported times. The program source
/// rides along so the conditional-termination pipeline can re-run the
/// invariant stages under an inferred precondition.
pub struct PreparedBenchmark {
    /// Name of the benchmark program.
    pub name: String,
    /// Whether the benchmark is expected to be proved terminating.
    pub expected_terminating: bool,
    /// The program itself (for the refinement pipeline). Optimized
    /// preparations carry the *optimized* program, consistent with
    /// `ts`/`invariants`.
    pub program: Program,
    /// Cut-point transition system.
    pub ts: TransitionSystem,
    /// Invariants at the cut points.
    pub invariants: Vec<Polyhedron>,
    /// The options `invariants` were computed with.
    pub invariant_options: InvariantOptions,
    /// Source-variable translation map when the IR pre-optimizer ran.
    pub provenance: Option<Provenance>,
    /// Shrink counters when the IR pre-optimizer ran.
    pub opt_stats: Option<OptStats>,
}

/// Prepares a benchmark (front-end + invariant generation), optionally
/// running the IR shrinking pipeline first so every engine downstream sees
/// the reduced dimensions.
pub fn prepare_with(benchmark: &Benchmark, optimize_ir: bool) -> PreparedBenchmark {
    let (program, provenance, opt_stats) = if optimize_ir {
        let optimized = optimize(&benchmark.program);
        (
            optimized.program,
            Some(optimized.provenance),
            Some(optimized.stats),
        )
    } else {
        (benchmark.program.clone(), None, None)
    };
    let ts = program.transition_system();
    let invariant_options = InvariantOptions::default();
    let invariants = location_invariants(&program, &invariant_options);
    PreparedBenchmark {
        name: program.name.clone(),
        expected_terminating: benchmark.expected_terminating,
        program,
        ts,
        invariants,
        invariant_options,
        provenance,
        opt_stats,
    }
}

/// Prepares a benchmark without pre-optimization (the raw, paper-faithful
/// preparation the timing benches use).
pub fn prepare(benchmark: &Benchmark) -> PreparedBenchmark {
    prepare_with(benchmark, false)
}

/// Prepares every benchmark of a suite.
pub fn prepare_suite(id: SuiteId) -> Vec<PreparedBenchmark> {
    suite(id).iter().map(prepare).collect()
}

/// One row of Table 1 for a given engine.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Suite name.
    pub suite: &'static str,
    /// Engine used.
    pub engine: Engine,
    /// Number of benchmarks.
    pub total: usize,
    /// Number proved terminating (unconditionally or conditionally).
    pub proved: usize,
    /// Of `proved`, how many are conditional (`TerminatesIf`).
    pub conditional: usize,
    /// Number of expected-terminating benchmarks (upper bound on `proved`).
    pub expected: usize,
    /// Total synthesis time in milliseconds (excludes front-end/invariants).
    pub time_millis: f64,
    /// Average LP instance rows (`l` of Table 1).
    pub lp_rows_avg: f64,
    /// Average LP instance columns (`c` of Table 1).
    pub lp_cols_avg: f64,
    /// Total simplex pivots across the suite.
    pub lp_pivots: usize,
    /// LP solves served warm (out of `lp_instances` total solves).
    pub lp_warm_hits: usize,
    /// Total LP instances solved across the suite.
    pub lp_instances: usize,
    /// Names of the benchmarks that could not be proved.
    pub unproved: Vec<String>,
}

/// Runs one engine over a prepared suite and aggregates a Table 1 row.
pub fn run_suite(id: SuiteId, prepared: &[PreparedBenchmark], engine: Engine) -> SuiteRow {
    let options = AnalysisOptions::with_engine(engine);
    let mut proved = 0;
    let mut conditional = 0;
    let mut time = 0.0;
    let mut rows = 0.0;
    let mut cols = 0.0;
    let mut lp_count = 0usize;
    let mut lp_pivots = 0usize;
    let mut lp_warm_hits = 0usize;
    let mut lp_instances = 0usize;
    let mut unproved = Vec::new();
    for b in prepared {
        let report = prove_termination(&b.program, &options);
        if report.proved() {
            proved += 1;
            if !report.proved_unconditionally() {
                conditional += 1;
            }
        } else {
            unproved.push(b.name.clone());
        }
        time += report.stats.synthesis_millis;
        lp_pivots += report.stats.lp_pivots;
        lp_warm_hits += report.stats.lp_warm_hits;
        lp_instances += report.stats.lp_instances;
        if report.stats.lp_instances > 0 {
            rows += report.stats.lp_rows_avg;
            cols += report.stats.lp_cols_avg;
            lp_count += 1;
        }
    }
    SuiteRow {
        suite: id.name(),
        engine,
        total: prepared.len(),
        proved,
        conditional,
        expected: prepared.iter().filter(|b| b.expected_terminating).count(),
        time_millis: time,
        lp_rows_avg: if lp_count > 0 {
            rows / lp_count as f64
        } else {
            0.0
        },
        lp_cols_avg: if lp_count > 0 {
            cols / lp_count as f64
        } else {
            0.0
        },
        lp_pivots,
        lp_warm_hits,
        lp_instances,
        unproved,
    }
}

/// Formats a collection of rows as the Table 1 layout of the paper,
/// extended with the LP effort columns (`pivots`, and warm solves over
/// total LP instances) behind the reproduction's warm-start architecture.
pub fn format_table(rows: &[SuiteRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<22} {:>5} {:>8} {:>6} {:>10} {:>8} {:>8} {:>8} {:>11}\n",
        "Suite", "Engine", "#", "success", "cond", "time(ms)", "l", "c", "pivots", "warm"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<22} {:>5} {:>8} {:>6} {:>10.1} {:>8.1} {:>8.1} {:>8} {:>6}/{:<4}\n",
            r.suite,
            format!("{:?}", r.engine),
            r.total,
            r.proved,
            r.conditional,
            r.time_millis,
            r.lp_rows_avg,
            r.lp_cols_avg,
            r.lp_pivots,
            r.lp_warm_hits,
            r.lp_instances,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termcomp_row_shape() {
        // A smoke test over a couple of TermComp benchmarks (the full sweep is
        // exercised by the benches and the table1_report example).
        let prepared: Vec<PreparedBenchmark> = suite(SuiteId::TermComp)
            .iter()
            .take(3)
            .map(prepare)
            .collect();
        let row = run_suite(SuiteId::TermComp, &prepared, Engine::Termite);
        assert_eq!(row.total, 3);
        assert!(row.proved <= row.total);
        assert!(row.expected >= row.proved);
        let text = format_table(&[row]);
        assert!(text.contains("TermComp"));
    }
}
