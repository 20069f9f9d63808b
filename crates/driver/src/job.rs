//! Analysis jobs: the unit of work of the batch driver.

use termite_bench::{prepare_with, PreparedBenchmark};
use termite_invariants::{location_invariants, InvariantOptions};
use termite_ir::{optimize, OptStats, Program, Provenance, TransitionSystem};
use termite_obs::span;
use termite_polyhedra::Polyhedron;
use termite_suite::{suite, SuiteId};

/// One unit of work: a prepared transition system plus its invariants.
///
/// The front end and the forward invariant fixpoint run at job-construction
/// time (as in the paper's methodology, which excludes both from the
/// reported times); the cache key is derived from their results. When the
/// `program` source is available, a worker that misses the cache still has
/// invariant work to do: it strengthens the forward invariants with Houdini
/// once per job (re-using `invariants` when `invariant_options` match the
/// run's options), shares the result with every engine it races, and runs
/// the refinement pipeline (conditional termination) on top. Without the
/// program, the engines fall back to the one-shot `invariants`.
///
/// Construction via [`from_program_with`](AnalysisJob::from_program_with)
/// (and the suite constructors) can run the [`termite_ir::opt`] shrinking
/// pipeline first: the job then carries the *optimized* program plus a
/// [`Provenance`] map so workers can translate rankings and preconditions
/// back to source variables before anything is reported or cached.
#[derive(Clone, Debug)]
pub struct AnalysisJob {
    /// Name of the analysed program.
    pub name: String,
    /// Cut-point transition system.
    pub ts: TransitionSystem,
    /// Invariant of each cut point.
    pub invariants: Vec<Polyhedron>,
    /// The options `invariants` were computed with. A run under other
    /// options recomputes the forward fixpoint instead of re-using them.
    pub invariant_options: InvariantOptions,
    /// Ground truth, when known (benchmark suites record whether a
    /// lexicographic linear ranking function is expected to exist).
    pub expected_terminating: Option<bool>,
    /// The program source, when available: enables precondition refinement
    /// (`Verdict::TerminatesIf`) inside the workers. Optimized jobs carry
    /// the *optimized* program (consistent with `ts`/`invariants`).
    pub program: Option<Program>,
    /// Source-variable translation map when the pre-optimizer ran; `None`
    /// means the job is raw (and must never share a cache entry with an
    /// optimized twin).
    pub provenance: Option<Provenance>,
    /// Node/variable counts before and after optimization, merged into the
    /// report's statistics by the workers.
    pub opt_stats: Option<OptStats>,
}

impl AnalysisJob {
    /// Prepares a job from a parsed program **without** pre-optimization
    /// (runs the polyhedral invariant generator with the given options).
    pub fn from_program(program: &Program, invariant_options: &InvariantOptions) -> Self {
        AnalysisJob::from_program_with(program, invariant_options, false)
    }

    /// Prepares a job from a parsed program, optionally running the IR
    /// shrinking pipeline first. With `optimize_ir` the transition system
    /// and invariants are built from the optimized program — every engine
    /// downstream sees fewer dimensions — and the job records the
    /// provenance needed to translate results back to source variables.
    pub fn from_program_with(
        program: &Program,
        invariant_options: &InvariantOptions,
        optimize_ir: bool,
    ) -> Self {
        let (program, provenance, opt_stats) = if optimize_ir {
            let optimized = {
                let _span = span!("ir_opt", program = program.name.as_str());
                optimize(program)
            };
            (
                std::borrow::Cow::Owned(optimized.program),
                Some(optimized.provenance),
                Some(optimized.stats),
            )
        } else {
            (std::borrow::Cow::Borrowed(program), None, None)
        };
        AnalysisJob {
            name: program.name.clone(),
            ts: program.transition_system(),
            invariants: location_invariants(&program, invariant_options),
            invariant_options: invariant_options.clone(),
            expected_terminating: None,
            program: Some(program.into_owned()),
            provenance,
            opt_stats,
        }
    }

    /// Wraps an already-prepared benchmark.
    pub fn from_prepared(prepared: PreparedBenchmark) -> Self {
        AnalysisJob {
            name: prepared.name,
            ts: prepared.ts,
            invariants: prepared.invariants,
            invariant_options: prepared.invariant_options,
            expected_terminating: Some(prepared.expected_terminating),
            program: Some(prepared.program),
            provenance: prepared.provenance,
            opt_stats: prepared.opt_stats,
        }
    }

    /// Prepares every benchmark of a suite (optionally pre-optimized).
    pub fn from_suite_with(id: SuiteId, optimize_ir: bool) -> Vec<AnalysisJob> {
        suite(id)
            .iter()
            .map(|b| AnalysisJob::from_prepared(prepare_with(b, optimize_ir)))
            .collect()
    }

    /// Prepares every benchmark of a suite without pre-optimization.
    pub fn from_suite(id: SuiteId) -> Vec<AnalysisJob> {
        AnalysisJob::from_suite_with(id, false)
    }

    /// Prepares every benchmark of every suite (optionally pre-optimized).
    pub fn from_all_suites_with(optimize_ir: bool) -> Vec<AnalysisJob> {
        SuiteId::all()
            .into_iter()
            .flat_map(|id| AnalysisJob::from_suite_with(id, optimize_ir))
            .collect()
    }

    /// Prepares every benchmark of every suite without pre-optimization.
    pub fn from_all_suites() -> Vec<AnalysisJob> {
        AnalysisJob::from_all_suites_with(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_ir::parse_program;

    #[test]
    fn job_from_program_prepares_everything() {
        let p = parse_program("var x; while (x > 0) { x = x - 1; }").unwrap();
        let job = AnalysisJob::from_program(&p, &InvariantOptions::default());
        assert_eq!(job.ts.num_locations(), 1);
        assert_eq!(job.invariants.len(), job.ts.num_locations());
        assert_eq!(job.expected_terminating, None);
        assert!(job.provenance.is_none() && job.opt_stats.is_none());
    }

    #[test]
    fn optimized_job_shrinks_dimensions_and_keeps_provenance() {
        let p =
            parse_program("var x, c, d; c = 1; while (x > 0) { x = x - c; d = x + 3; }").unwrap();
        let job = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        let prov = job.provenance.as_ref().expect("provenance must be set");
        assert_eq!(prov.num_original_vars(), 3);
        assert_eq!(job.ts.var_names(), &["x".to_string()]);
        let stats = job.opt_stats.unwrap();
        assert_eq!((stats.vars_before, stats.vars_after), (3, 1));
        assert!(stats.nodes_after < stats.nodes_before);
    }

    #[test]
    fn suite_jobs_carry_ground_truth() {
        let jobs = AnalysisJob::from_suite(SuiteId::TermComp);
        assert!(jobs.len() >= 10);
        assert!(jobs.iter().all(|j| j.expected_terminating.is_some()));
        assert!(jobs.iter().any(|j| j.expected_terminating == Some(false)));
    }
}
