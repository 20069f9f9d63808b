//! Analysis jobs: the unit of work of the batch driver.

use termite_invariants::InvariantOptions;
use termite_ir::{optimize, OptStats, Program, Provenance, TransitionSystem};
use termite_obs::span;
use termite_polyhedra::Polyhedron;
use termite_suite::{suite, SuiteId};

/// What the engines of a job start from besides its transition system.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// The program source (optimized when the pre-optimizer ran, consistent
    /// with `ts`). The worker builds its invariants — forward fixpoint and
    /// Houdini, under the run's [`termite_core::AnalysisOptions::invariants`]
    /// — only on a cache miss, and runs the refinement pipeline
    /// (`Verdict::TerminatesIf`) on top.
    Program(Program),
    /// One-shot invariant of each cut point: the engines run on exactly
    /// these, without refinement.
    Invariants(Vec<Polyhedron>),
}

/// One unit of work: a transition system plus what its invariants come
/// from.
///
/// Preparing a program-carrying job runs the front end only: parse, the
/// optional [`termite_ir::opt`] shrinking pipeline, and the transition
/// system. The cache key is derived from these inputs, so a cache hit does
/// no invariant work at all. A worker that misses builds the job's
/// invariant snapshot once, shares it with every engine it races, and
/// reports its build time in `invariant_millis`.
///
/// A pre-optimized job carries the *optimized* program plus a
/// [`Provenance`] map so workers can translate rankings and preconditions
/// back to source variables before anything is reported or cached.
#[derive(Clone, Debug)]
pub struct AnalysisJob {
    /// Name of the analysed program.
    pub name: String,
    /// Cut-point transition system.
    pub ts: TransitionSystem,
    /// The program, or one-shot invariants.
    pub input: JobInput,
    /// Ground truth, when known (benchmark suites record whether a
    /// lexicographic linear ranking function is expected to exist).
    pub expected_terminating: Option<bool>,
    /// Source-variable translation map when the pre-optimizer ran; `None`
    /// means the job is raw (and must never share a cache entry with an
    /// optimized twin).
    pub provenance: Option<Provenance>,
    /// Node/variable counts before and after optimization, merged into the
    /// report's statistics by the workers.
    pub opt_stats: Option<OptStats>,
}

impl AnalysisJob {
    /// Prepares a job from a parsed program **without** pre-optimization.
    /// `invariant_options` is unused, as in
    /// [`from_program_with`](AnalysisJob::from_program_with).
    pub fn from_program(program: &Program, invariant_options: &InvariantOptions) -> Self {
        AnalysisJob::from_program_with(program, invariant_options, false)
    }

    /// Prepares a job from a parsed program, optionally running the IR
    /// shrinking pipeline first. With `optimize_ir` the transition system
    /// is built from the optimized program — every engine downstream sees
    /// fewer dimensions — and the job records the provenance needed to
    /// translate results back to source variables.
    ///
    /// `_invariant_options` is unused: a worker builds the invariants under
    /// the run's [`termite_core::AnalysisOptions::invariants`]. The
    /// parameter stays for source compatibility with existing callers.
    pub fn from_program_with(
        program: &Program,
        _invariant_options: &InvariantOptions,
        optimize_ir: bool,
    ) -> Self {
        let (program, provenance, opt_stats) = if optimize_ir {
            let optimized = {
                let _span = span!("ir_opt", program = program.name.as_str());
                optimize(program)
            };
            (
                optimized.program,
                Some(optimized.provenance),
                Some(optimized.stats),
            )
        } else {
            (program.clone(), None, None)
        };
        AnalysisJob {
            name: program.name.clone(),
            ts: program.transition_system(),
            input: JobInput::Program(program),
            expected_terminating: None,
            provenance,
            opt_stats,
        }
    }

    /// The program source, when the job carries it.
    pub fn program(&self) -> Option<&Program> {
        match &self.input {
            JobInput::Program(program) => Some(program),
            JobInput::Invariants(_) => None,
        }
    }

    /// Prepares every benchmark of a suite (optionally pre-optimized).
    pub fn from_suite_with(id: SuiteId, optimize_ir: bool) -> Vec<AnalysisJob> {
        suite(id)
            .iter()
            .map(|b| AnalysisJob {
                expected_terminating: Some(b.expected_terminating),
                ..AnalysisJob::from_program_with(
                    &b.program,
                    &InvariantOptions::default(),
                    optimize_ir,
                )
            })
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
        assert_eq!(job.program(), Some(&p));
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
