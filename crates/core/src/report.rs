//! Result types: ranking functions, verdicts, statistics.

use std::fmt;
use termite_linalg::QVector;
use termite_lp::{IncrementalLp, LpSolution};
use termite_num::Rational;
use termite_polyhedra::Polyhedron;

/// A lexicographic linear ranking function over a set of cut points.
///
/// Component `d` at location `k` is the affine function
/// `ρ_d(k, x) = λ[d][k]·x + λ0[d][k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankingFunction {
    /// Number of program variables.
    num_vars: usize,
    /// `components[d][k] = (λ, λ0)`.
    components: Vec<Vec<(QVector, Rational)>>,
    /// Variable names, for display.
    var_names: Vec<String>,
}

impl RankingFunction {
    /// Builds a ranking function from its components.
    pub fn new(
        num_vars: usize,
        var_names: Vec<String>,
        components: Vec<Vec<(QVector, Rational)>>,
    ) -> Self {
        RankingFunction {
            num_vars,
            components,
            var_names,
        }
    }

    /// Number of lexicographic components.
    pub fn dimension(&self) -> usize {
        self.components.len()
    }

    /// Number of program variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Names of the program variables.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Number of cut points.
    pub fn num_locations(&self) -> usize {
        self.components.first().map(|c| c.len()).unwrap_or(0)
    }

    /// The affine component `d` at location `k`: `(λ, λ0)`.
    pub fn component(&self, d: usize, k: usize) -> (&QVector, &Rational) {
        let (l, l0) = &self.components[d][k];
        (l, l0)
    }

    /// Evaluates the ranking function at a location and state, returning the
    /// lexicographic tuple.
    pub fn eval(&self, location: usize, state: &QVector) -> Vec<Rational> {
        self.components
            .iter()
            .map(|per_loc| {
                let (l, l0) = &per_loc[location];
                &l.dot(state) + l0
            })
            .collect()
    }

    /// `true` if the tuple `a` is lexicographically greater than `b`.
    pub fn lex_gt(a: &[Rational], b: &[Rational]) -> bool {
        for (x, y) in a.iter().zip(b.iter()) {
            if x > y {
                return true;
            }
            if x < y {
                return false;
            }
        }
        false
    }
}

impl fmt::Display for RankingFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, per_loc) in self.components.iter().enumerate() {
            for (k, (l, l0)) in per_loc.iter().enumerate() {
                write!(f, "ρ_{d}(loc {k}, x) = ")?;
                let mut first = true;
                for (i, c) in l.iter().enumerate() {
                    if c.is_zero() {
                        continue;
                    }
                    let name = self
                        .var_names
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("x{i}"));
                    if first {
                        write!(f, "{c}·{name}")?;
                        first = false;
                    } else if c.is_negative() {
                        write!(f, " - {}·{name}", -c)?;
                    } else {
                        write!(f, " + {c}·{name}")?;
                    }
                }
                if first {
                    write!(f, "{l0}")?;
                } else if !l0.is_zero() {
                    if l0.is_negative() {
                        write!(f, " - {}", -l0)?;
                    } else {
                        write!(f, " + {l0}")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Why an analysis ended without a proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The search completed: no lexicographic linear ranking function exists
    /// relative to the supplied invariants (the program may still terminate).
    NoRankingFunction,
    /// The run was cancelled (portfolio loser, deadline, Ctrl-C) before an
    /// answer was established.
    Cancelled,
    /// A resource budget (counterexample iterations, DNF disjuncts) was
    /// exhausted before the search completed.
    ResourceBudget,
    /// The engine itself failed (a worker-thread panic caught at the
    /// scheduler's isolation boundary). Says nothing about the program; the
    /// same job may succeed on a retry or another engine.
    EngineFailure,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::NoRankingFunction => write!(f, "no ranking function"),
            UnknownReason::Cancelled => write!(f, "cancelled"),
            UnknownReason::ResourceBudget => write!(f, "resource budget exhausted"),
            UnknownReason::EngineFailure => write!(f, "engine failure"),
        }
    }
}

/// One disjunct of a DNF precondition: a conjunctive region of entry
/// states, optionally carrying the ranking function that certifies
/// termination from exactly that region (piecewise certificates attach one
/// per segment; backward-analysis disjuncts reuse the verdict's primary
/// ranking and leave this `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Precondition {
    /// The conjunctive clause (a convex polyhedron over the entry state).
    pub clause: Polyhedron,
    /// Segment-local certificate, when one exists for this clause alone.
    pub ranking: Option<RankingFunction>,
}

impl Precondition {
    /// A disjunct without a segment-local certificate.
    pub fn new(clause: Polyhedron) -> Self {
        Precondition {
            clause,
            ranking: None,
        }
    }

    /// A disjunct carrying its own segment ranking function.
    pub fn with_ranking(clause: Polyhedron, ranking: RankingFunction) -> Self {
        Precondition {
            clause,
            ranking: Some(ranking),
        }
    }
}

/// The verdict of a termination analysis — a three-point lattice
/// `Terminates ⊒ TerminatesIf ⊒ Unknown` (see DESIGN.md).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Termination proved from **every** initial state, with the synthesised
    /// lexicographic linear ranking function as the certificate.
    Terminates(RankingFunction),
    /// Conditional termination: every execution whose initial state satisfies
    /// the *disjunction* of the `disjuncts` clauses terminates. `ranking` is
    /// the primary certificate (valid on the first disjunct); disjuncts may
    /// carry their own segment-local rankings (see [`Precondition`]).
    ///
    /// Within rank 1 of the verdict lattice, DNF preconditions are ordered
    /// by implication: a verdict is at least as strong as another iff every
    /// clause of the other is contained in some clause of it. `bench-diff`
    /// uses exactly this sufficient check.
    TerminatesIf {
        /// Inferred entry-state precondition, in disjunctive normal form.
        /// Never empty: at least one disjunct is always present.
        disjuncts: Vec<Precondition>,
        /// The primary certificate, valid under the first disjunct.
        ranking: RankingFunction,
    },
    /// No proof; `reason` says why the search stopped.
    Unknown {
        /// Why the analysis gave up.
        reason: UnknownReason,
    },
}

impl Verdict {
    /// Shorthand for an unknown verdict with the given reason.
    pub fn unknown(reason: UnknownReason) -> Verdict {
        Verdict::Unknown { reason }
    }

    /// Shorthand for a single-disjunct (conjunctive) conditional verdict —
    /// the shape every pre-DNF call site produced.
    pub fn terminates_if(precondition: Polyhedron, ranking: RankingFunction) -> Verdict {
        Verdict::TerminatesIf {
            disjuncts: vec![Precondition::new(precondition)],
            ranking,
        }
    }

    /// `true` for any proof (unconditional or conditional).
    pub fn is_proof(&self) -> bool {
        !matches!(self, Verdict::Unknown { .. })
    }

    /// Position in the verdict lattice: `Terminates` (2) above
    /// `TerminatesIf` (1) above `Unknown` (0). The driver's string-side
    /// `verdict_rank` (what `bench-diff` and the CI verdict gate compare
    /// JSON reports with) must order verdict names identically; a test in
    /// `termite-driver` pins the two against drift.
    pub fn rank(&self) -> u8 {
        match self {
            Verdict::Terminates(_) => 2,
            Verdict::TerminatesIf { .. } => 1,
            Verdict::Unknown { .. } => 0,
        }
    }
}

/// Statistics of a synthesis run (the quantities reported in Table 1 of the
/// paper: number and size of LP instances, SMT activity).
///
/// How each field is encoded, merged, totalled and shown is decided by its
/// row of [`STAT_FIELDS`]; adding a field means adding one row there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SynthesisStats {
    /// Counterexample-guided refinement iterations (SMT→LP round trips).
    pub iterations: usize,
    /// Number of LP instances solved.
    pub lp_instances: usize,
    /// Total simplex pivots performed across all LP solves (both phases,
    /// including warm-started re-optimizations).
    pub lp_pivots: usize,
    /// LP solves served by a live warm basis (dual feasibility restoration
    /// plus primal re-optimization) instead of a from-scratch two-phase
    /// solve.
    pub lp_warm_hits: usize,
    /// Average number of rows (`l`) of the LP instances.
    pub lp_rows_avg: f64,
    /// Average number of columns (`c`) of the LP instances.
    pub lp_cols_avg: f64,
    /// Largest LP instance solved, as (rows, columns). After a
    /// [`merge`](SynthesisStats::merge), each side is the larger of the two.
    pub lp_max: (usize, usize),
    /// Number of SMT (optimizing) queries issued.
    pub smt_queries: usize,
    /// Cold LPs the SMT theory solver built and solved inside those
    /// queries: consistency checks that found a model, branch-and-bound
    /// nodes and minimisations.
    pub smt_lp_solves: usize,
    /// Warm checks on the SMT theory solver's tableau: every consistency
    /// check and every conflict deletion probe a certificate did not answer.
    pub smt_warm_checks: usize,
    /// Number of counterexample vectors (vertices + rays) accumulated.
    pub counterexamples: usize,
    /// Dimension of the synthesised function (0 when none).
    pub dimension: usize,
    /// Invariant-refinement rounds taken by the conditional-termination
    /// pipeline (0 when the first synthesis run already decided).
    pub refinements: usize,
    /// Wall-clock time of the synthesis (milliseconds), excluding parsing and
    /// invariant generation (as in the paper's Table 1).
    pub synthesis_millis: f64,
    /// Wall-clock time spent inside SMT solves (milliseconds): the extremal
    /// counterexample searches and the satisfiability probes.
    pub smt_millis: f64,
    /// Wall-clock time spent inside the engines' LP solves (milliseconds):
    /// the `LP(C, Constraints(I))` optimizations, warm or cold, and the
    /// joint Farkas LPs of the eager (and `pr`), lasso (and `complete-lrf`)
    /// and piecewise engines (all timed by [`SynthesisStats::solve_lp`]).
    pub lp_millis: f64,
    /// Wall-clock time spent in invariant generation and backward
    /// precondition refinement (milliseconds). Unlike `synthesis_millis`
    /// this *includes* the initial fixpoint/Houdini stages, so the per-phase
    /// breakdown accounts for the whole analysis.
    pub invariant_millis: f64,
    /// CFG nodes of the program before IR pre-optimization (0 when the
    /// driver ran with optimization off or analysed a raw transition
    /// system).
    pub ir_nodes_before: usize,
    /// CFG nodes actually analysed, after IR pre-optimization.
    pub ir_nodes_after: usize,
    /// Declared program variables before IR pre-optimization (0 when off).
    pub ir_vars_before: usize,
    /// Variables actually analysed — every one of these is an LP column
    /// per cut point and an SMT dimension, which is what the optimizer
    /// shrinks.
    pub ir_vars_after: usize,
    /// Name of the engine whose answer this report carries, when a
    /// portfolio race picked one (`None` for single-engine runs and for
    /// races that ended without any proof). The driver sets this; the
    /// engines themselves never do.
    pub engine_won: Option<String>,
}

impl SynthesisStats {
    /// Records one LP solve of the given shape.
    pub fn record_lp(&mut self, rows: usize, cols: usize) {
        let total_rows = self.lp_rows_avg * self.lp_instances as f64 + rows as f64;
        let total_cols = self.lp_cols_avg * self.lp_instances as f64 + cols as f64;
        self.lp_instances += 1;
        self.lp_rows_avg = total_rows / self.lp_instances as f64;
        self.lp_cols_avg = total_cols / self.lp_instances as f64;
        if rows * cols >= self.lp_max.0 * self.lp_max.1 {
            self.lp_max = (rows, cols);
        }
    }

    /// Runs one LP solve and accounts for it: records its shape (as
    /// [`Self::record_lp`]), then times `solve` under an `lp_solve` trace
    /// span into `lp_millis` and adds its pivots to `lp_pivots`. Every
    /// engine's LP goes through here, so LP time is attributed the same way
    /// in every lane. `None` (an interrupted solve) still counts the shape
    /// and the time.
    pub fn solve_lp(
        &mut self,
        rows: usize,
        cols: usize,
        solve: impl FnOnce() -> Option<LpSolution>,
    ) -> Option<LpSolution> {
        self.record_lp(rows, cols);
        let start = std::time::Instant::now();
        let mut span = termite_obs::span!("lp_solve", rows = rows, cols = cols);
        let solution = solve();
        self.lp_millis += start.elapsed().as_secs_f64() * 1000.0;
        if let Some(solution) = &solution {
            span.arg("pivots", solution.pivots);
            self.lp_pivots += solution.pivots;
        }
        solution
    }

    /// [`Self::solve_lp`] on an incremental session, adding one
    /// `lp_warm_hits` when the solve took the warm path. Warm hits are
    /// counted per solve because a session rolled back to a clone rolls its
    /// own counters back too.
    pub fn solve_session(
        &mut self,
        rows: usize,
        cols: usize,
        inc: &mut IncrementalLp,
    ) -> Option<LpSolution> {
        let warm_before = inc.warm_solves();
        let solution = self.solve_lp(rows, cols, || inc.solve());
        if inc.warm_solves() > warm_before {
            self.lp_warm_hits += 1;
        }
        solution
    }

    /// Folds `other` into these stats under each row's [`StatMerge`] rule:
    /// how a job absorbs the stats of its sub-analyses, and how a batch
    /// totals its jobs.
    pub fn merge(&mut self, other: &SynthesisStats) {
        let base = self.clone();
        let (n, m) = (base.lp_instances as f64, other.lp_instances as f64);
        for field in STAT_FIELDS {
            let (a, b) = ((field.get)(&base), (field.get)(other));
            let merged = match field.merge {
                StatMerge::First => a,
                StatMerge::Sum => StatValue::Number(a.number() + b.number()),
                StatMerge::Max => StatValue::Number(a.number().max(b.number())),
                StatMerge::LpMean if n + m > 0.0 => {
                    StatValue::Number((a.number() * n + b.number() * m) / (n + m))
                }
                StatMerge::LpMean => a,
            };
            (field.set)(self, merged);
        }
    }
}

/// What a stat measures, which decides where it is aggregated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatKind {
    /// Work done (LP solves, pivots, SMT queries): a metrics-registry row.
    Counter,
    /// Wall time of a phase in milliseconds: a registry row and a total.
    Millis,
    /// A size of the job or its certificate: not work, so not a registry row.
    Size,
    /// A name, such as the winning engine.
    Label,
}

/// How two values of one stat combine (see [`SynthesisStats::merge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatMerge {
    /// Add them.
    Sum,
    /// Keep the larger.
    Max,
    /// Keep the value already held (the primary run's).
    First,
    /// Average, weighting each side by its `lp_instances`.
    LpMean,
}

/// The human-readable totals line that shows a stat, with its label there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatLine {
    /// None: the stat is in JSON (and, by kind, the registry) only.
    Hidden,
    /// The suite table's `lp:` line.
    Lp(&'static str),
    /// The `phases:` lines, as a sibling of the other (overlapping) phases.
    Phase(&'static str),
    /// The `ir:` lines: rows come in (before, after) pairs sharing a label.
    Ir(&'static str),
}

/// One value of a stat, as the schema's accessors read and write it.
#[derive(Clone, Debug, PartialEq)]
pub enum StatValue {
    /// Counters, times and sizes (counts are exact as `f64` below 2^53).
    Number(f64),
    /// A label, `None` when none applies.
    Label(Option<String>),
}

impl StatValue {
    /// The numeric value (`0` for a label).
    pub fn number(&self) -> f64 {
        match self {
            StatValue::Number(n) => *n,
            StatValue::Label(_) => 0.0,
        }
    }
}

/// One row of the stats schema [`STAT_FIELDS`].
#[derive(Clone, Copy, Debug)]
pub struct StatField {
    /// Key in report JSON, `suite --json` and the serve stats verb.
    pub name: &'static str,
    /// What the stat measures.
    pub kind: StatKind,
    /// How two values combine.
    pub merge: StatMerge,
    /// Whether readers accept a record without this stat (writers older
    /// than the stat omit it). Absent means unknown, never a measured 0.
    pub optional: bool,
    /// The totals line that shows the stat.
    pub line: StatLine,
    /// Reads the stat.
    pub get: fn(&SynthesisStats) -> StatValue,
    /// Writes the stat.
    pub set: fn(&mut SynthesisStats, StatValue),
}

/// The field types a stat can live in.
trait StatSlot {
    fn read(&self) -> StatValue;
    fn write(&mut self, value: StatValue);
}

impl StatSlot for usize {
    fn read(&self) -> StatValue {
        StatValue::Number(*self as f64)
    }
    fn write(&mut self, value: StatValue) {
        *self = value.number() as usize;
    }
}

impl StatSlot for f64 {
    fn read(&self) -> StatValue {
        StatValue::Number(*self)
    }
    fn write(&mut self, value: StatValue) {
        *self = value.number();
    }
}

impl StatSlot for Option<String> {
    fn read(&self) -> StatValue {
        StatValue::Label(self.clone())
    }
    fn write(&mut self, value: StatValue) {
        if let StatValue::Label(label) = value {
            *self = label;
        }
    }
}

/// One [`StatField`] row: `stat!(json name, kind, merge, required|optional,
/// totals line, struct field)`.
macro_rules! stat {
    (@required) => (false);
    (@optional) => (true);
    ($name:literal, $kind:ident, $merge:ident, $absent:ident, $line:ident $(($label:literal))?,
     $($field:tt)+) => {
        StatField {
            name: $name,
            kind: StatKind::$kind,
            merge: StatMerge::$merge,
            optional: stat!(@$absent),
            line: StatLine::$line $(($label))?,
            get: |s| StatSlot::read(&s.$($field)+),
            set: |s, v| StatSlot::write(&mut s.$($field)+, v),
        }
    };
}

/// The stats schema, one row per reported stat in display order. Report
/// JSON, [`SynthesisStats::merge`], batch and `suite --json` totals, the
/// metrics registry and every totals line iterate it, so adding a stat is
/// one row here. IR sizes `Sum`: only a job's final report carries them.
/// `synthesis_millis` is the headline time (the suite's `totals:` line and
/// `bench-diff`'s gate), so no `phases:` line repeats it.
#[rustfmt::skip]
pub static STAT_FIELDS: &[StatField] = &[
    //    JSON name            kind     merge   on read   totals line              field
    stat!("iterations",        Counter, Sum,    required, Hidden,                  iterations),
    stat!("lp_pivots",         Counter, Sum,    optional, Lp("pivots"),            lp_pivots),
    stat!("lp_instances",      Counter, Sum,    required, Lp("instances"),         lp_instances),
    stat!("lp_warm_hits",      Counter, Sum,    optional, Lp("warm"),              lp_warm_hits),
    stat!("smt_queries",       Counter, Sum,    required, Hidden,                  smt_queries),
    stat!("smt_lp_solves",     Counter, Sum,    optional, Hidden,                  smt_lp_solves),
    stat!("smt_warm_checks",   Counter, Sum,    optional, Hidden,                  smt_warm_checks),
    stat!("counterexamples",   Counter, Sum,    required, Hidden,                  counterexamples),
    stat!("refinements",       Counter, Sum,    optional, Hidden,                  refinements),
    stat!("lp_rows_avg",       Size,    LpMean, required, Hidden,                  lp_rows_avg),
    stat!("lp_cols_avg",       Size,    LpMean, required, Hidden,                  lp_cols_avg),
    stat!("lp_max_rows",       Size,    Max,    required, Hidden,                  lp_max.0),
    stat!("lp_max_cols",       Size,    Max,    required, Hidden,                  lp_max.1),
    stat!("dimension",         Size,    First,  required, Hidden,                  dimension),
    stat!("synthesis_millis",  Millis,  Sum,    required, Hidden,                  synthesis_millis),
    stat!("smt_millis",        Millis,  Sum,    optional, Phase("smt"),            smt_millis),
    stat!("lp_millis",         Millis,  Sum,    optional, Phase("lp"),             lp_millis),
    stat!("invariant_millis",  Millis,  Sum,    optional, Phase("invariants"),     invariant_millis),
    stat!("ir_nodes_before",   Size,    Sum,    optional, Ir("nodes"),             ir_nodes_before),
    stat!("ir_nodes_after",    Size,    Sum,    optional, Ir("nodes"),             ir_nodes_after),
    stat!("ir_vars_before",    Size,    Sum,    optional, Ir("vars"),              ir_vars_before),
    stat!("ir_vars_after",     Size,    Sum,    optional, Ir("vars"),              ir_vars_after),
    stat!("engine_won",        Label,   First,  optional, Hidden,                  engine_won),
];

/// Exhaustiveness guard: a new [`SynthesisStats`] field fails to build here,
/// next to the table its row belongs in (`schema_covers_every_field` checks
/// that the rows write every field).
#[rustfmt::skip]
const _: fn(SynthesisStats) = |stats| {
    let SynthesisStats {
        iterations: _, lp_instances: _, lp_pivots: _, lp_warm_hits: _, lp_rows_avg: _,
        lp_cols_avg: _, lp_max: _, smt_queries: _, smt_lp_solves: _, smt_warm_checks: _,
        counterexamples: _, dimension: _, refinements: _, synthesis_millis: _, smt_millis: _,
        lp_millis: _, invariant_millis: _, ir_nodes_before: _, ir_nodes_after: _,
        ir_vars_before: _, ir_vars_after: _, engine_won: _,
    } = stats;
};

/// Report returned by the top-level analysis entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct TerminationReport {
    /// Name of the analysed program.
    pub program: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics of the run.
    pub stats: SynthesisStats,
}

impl TerminationReport {
    /// `true` if termination was proved, unconditionally or under an
    /// inferred precondition.
    pub fn proved(&self) -> bool {
        self.verdict.is_proof()
    }

    /// `true` only for an unconditional proof.
    pub fn proved_unconditionally(&self) -> bool {
        matches!(self.verdict, Verdict::Terminates(_))
    }

    /// The synthesised ranking function, if any (present for both
    /// unconditional and conditional proofs).
    pub fn ranking_function(&self) -> Option<&RankingFunction> {
        match &self.verdict {
            Verdict::Terminates(rf) => Some(rf),
            Verdict::TerminatesIf { ranking, .. } => Some(ranking),
            Verdict::Unknown { .. } => None,
        }
    }

    /// The first (primary) disjunct of the inferred precondition, for
    /// conditional proofs. Callers that understand disjunction should use
    /// [`TerminationReport::preconditions`] instead.
    pub fn precondition(&self) -> Option<&Polyhedron> {
        match &self.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => disjuncts.first().map(|d| &d.clause),
            _ => None,
        }
    }

    /// The full DNF precondition, for conditional proofs: one
    /// [`Precondition`] per disjunct (empty slice otherwise).
    pub fn preconditions(&self) -> &[Precondition] {
        match &self.verdict {
            Verdict::TerminatesIf { disjuncts, .. } => disjuncts,
            _ => &[],
        }
    }
}

/// Renders a precondition with the program's variable names (`Polyhedron`'s
/// own `Display` only knows positional `x0, x1, …`).
fn write_precondition(
    f: &mut fmt::Formatter<'_>,
    precondition: &Polyhedron,
    var_names: &[String],
) -> fmt::Result {
    if precondition.constraints().is_empty() {
        return write!(f, "true");
    }
    write!(f, "{{ ")?;
    for (j, c) in precondition.constraints().iter().enumerate() {
        if j > 0 {
            write!(f, " ∧ ")?;
        }
        let mut first = true;
        for (i, coeff) in c.coeffs.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            let name = var_names.get(i).cloned().unwrap_or_else(|| format!("x{i}"));
            if first {
                write!(f, "{coeff}·{name}")?;
                first = false;
            } else if coeff.is_negative() {
                write!(f, " - {}·{name}", -coeff)?;
            } else {
                write!(f, " + {coeff}·{name}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        let op = match c.kind {
            termite_polyhedra::ConstraintKind::GreaterEq => ">=",
            termite_polyhedra::ConstraintKind::Equality => "=",
        };
        write!(f, " {op} {}", c.rhs)?;
    }
    write!(f, " }}")
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Terminates(rf) => {
                writeln!(
                    f,
                    "{}: TERMINATING (dimension {})",
                    self.program,
                    rf.dimension()
                )?;
                write!(f, "{rf}")
            }
            Verdict::TerminatesIf { disjuncts, ranking } => {
                write!(f, "{}: TERMINATES IF ", self.program)?;
                for (i, d) in disjuncts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write_precondition(f, &d.clause, ranking.var_names())?;
                }
                writeln!(f, " (dimension {})", ranking.dimension())?;
                write!(f, "{ranking}")?;
                for d in disjuncts.iter().skip(1) {
                    if let Some(rf) = &d.ranking {
                        write!(f, "{rf}")?;
                    }
                }
                Ok(())
            }
            Verdict::Unknown { reason } => writeln!(f, "{}: UNKNOWN ({reason})", self.program),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_lex_order() {
        let rf = RankingFunction::new(
            2,
            vec!["x".into(), "y".into()],
            vec![
                vec![(QVector::from_i64(&[0, 1]), Rational::from(1))],
                vec![(QVector::from_i64(&[1, 0]), Rational::from(0))],
            ],
        );
        assert_eq!(rf.dimension(), 2);
        assert_eq!(rf.num_locations(), 1);
        let a = rf.eval(0, &QVector::from_i64(&[3, 7]));
        let b = rf.eval(0, &QVector::from_i64(&[9, 6]));
        assert_eq!(a, vec![Rational::from(8), Rational::from(3)]);
        assert!(RankingFunction::lex_gt(&a, &b));
        assert!(!RankingFunction::lex_gt(&b, &a));
        assert!(!RankingFunction::lex_gt(&a, &a));
    }

    #[test]
    fn stats_running_average() {
        let mut s = SynthesisStats::default();
        s.record_lp(2, 10);
        s.record_lp(4, 20);
        assert_eq!(s.lp_instances, 2);
        assert!((s.lp_rows_avg - 3.0).abs() < 1e-9);
        assert!((s.lp_cols_avg - 15.0).abs() < 1e-9);
        assert_eq!(s.lp_max, (4, 20));
    }

    #[test]
    fn schema_covers_every_field() {
        let mut stats = SynthesisStats::default();
        let mut names = std::collections::BTreeSet::new();
        for field in STAT_FIELDS {
            assert!(names.insert(field.name), "duplicate row `{}`", field.name);
            let value = match field.kind {
                StatKind::Label => StatValue::Label(Some("x".to_string())),
                _ => StatValue::Number(7.5),
            };
            (field.set)(&mut stats, value);
            assert_ne!((field.get)(&stats), (field.get)(&SynthesisStats::default()));
        }
        // A field no row writes keeps its zero default.
        let shown = format!("{stats:?}");
        for unset in [": 0", "(0,", " 0)", "None"] {
            assert!(!shown.contains(unset), "a field has no row: {shown}");
        }
        // Every time row is named for its unit, which the ticker relies on.
        for field in STAT_FIELDS {
            assert_eq!(
                field.kind == StatKind::Millis,
                field.name.ends_with("_millis"),
                "{}",
                field.name
            );
        }
        // `ir` rows pair up as (before, after) under one label.
        let ir: Vec<&StatField> = STAT_FIELDS
            .iter()
            .filter(|f| matches!(f.line, StatLine::Ir(_)))
            .collect();
        assert_eq!(ir.len() % 2, 0);
        for pair in ir.chunks(2) {
            assert_eq!(pair[0].line, pair[1].line);
            assert!(pair[0].name.ends_with("_before") && pair[1].name.ends_with("_after"));
        }
    }

    #[test]
    fn merge_follows_each_rows_rule() {
        let mut primary = SynthesisStats {
            iterations: 3,
            dimension: 1,
            synthesis_millis: 1.5,
            engine_won: Some("Lasso".to_string()),
            ..SynthesisStats::default()
        };
        primary.record_lp(2, 10);
        let mut sub = SynthesisStats {
            iterations: 2,
            dimension: 2,
            synthesis_millis: 2.0,
            ir_nodes_before: 5,
            engine_won: Some("Termite".to_string()),
            ..SynthesisStats::default()
        };
        sub.record_lp(4, 20);
        sub.record_lp(4, 5);
        primary.merge(&sub);
        assert_eq!(primary.iterations, 5, "counters sum");
        assert_eq!(primary.lp_instances, 3);
        assert!((primary.synthesis_millis - 3.5).abs() < 1e-9, "times sum");
        assert!(
            (primary.lp_rows_avg - 10.0 / 3.0).abs() < 1e-9,
            "weighted mean"
        );
        assert!(
            (primary.lp_cols_avg - 35.0 / 3.0).abs() < 1e-9,
            "weighted mean"
        );
        assert_eq!(primary.lp_max, (4, 20), "per-side maximum");
        assert_eq!(primary.dimension, 1, "the primary certificate's");
        assert_eq!(primary.engine_won.as_deref(), Some("Lasso"));
        assert_eq!(primary.ir_nodes_before, 5);
        // Merging into empty stats keeps the other side's LP shape.
        let mut empty = SynthesisStats::default();
        empty.merge(&sub);
        assert_eq!(empty.lp_rows_avg, sub.lp_rows_avg);
    }

    #[test]
    fn verdict_lattice_ranks() {
        let rf = RankingFunction::new(1, vec!["x".into()], Vec::new());
        let terminates = Verdict::Terminates(rf.clone());
        let conditional = Verdict::terminates_if(Polyhedron::universe(1), rf);
        let unknown = Verdict::unknown(UnknownReason::NoRankingFunction);
        assert!(terminates.rank() > conditional.rank());
        assert!(conditional.rank() > unknown.rank());
        assert!(terminates.is_proof() && conditional.is_proof());
        assert!(!unknown.is_proof());
    }

    #[test]
    fn report_accessors_cover_all_verdicts() {
        let rf = RankingFunction::new(
            1,
            vec!["x".into()],
            vec![vec![(QVector::from_i64(&[1]), Rational::from(0))]],
        );
        let mut report = TerminationReport {
            program: "p".into(),
            verdict: Verdict::Terminates(rf.clone()),
            stats: SynthesisStats::default(),
        };
        assert!(report.proved() && report.proved_unconditionally());
        assert!(report.ranking_function().is_some());
        assert!(report.precondition().is_none());

        report.verdict = Verdict::terminates_if(Polyhedron::universe(1), rf);
        assert!(report.proved() && !report.proved_unconditionally());
        assert!(report.ranking_function().is_some());
        assert!(report.precondition().is_some());
        assert_eq!(report.preconditions().len(), 1);
        assert!(report.to_string().contains("TERMINATES IF"));

        report.verdict = Verdict::unknown(UnknownReason::Cancelled);
        assert!(!report.proved());
        assert!(report.ranking_function().is_none());
        assert!(report.to_string().contains("cancelled"));
    }

    #[test]
    fn display_mentions_variables() {
        let rf = RankingFunction::new(
            2,
            vec!["i".into(), "j".into()],
            vec![vec![(QVector::from_i64(&[-1, 2]), Rational::from(5))]],
        );
        let text = rf.to_string();
        assert!(text.contains("i"), "{text}");
        assert!(text.contains("2·j"), "{text}");
        assert!(text.contains("+ 5"), "{text}");
    }
}
