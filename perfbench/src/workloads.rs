//! The three workloads' inputs, generated from the seed, and their known
//! answers.
//!
//! The prover only ever sees program text: the seed picks orders, variable
//! names and draws, and the program never learns it.

use crate::source::checked_text;
use crate::stats::Rng;
use termite_driver::json::Json;
use termite_driver::{verdict_rank, EngineSelection};
use termite_ir::{parse_named_program, Program};
use termite_suite::generators::{
    multipath_loop, nested_counted_loops, padded_countdown, phase_cascade,
};

/// The suite's expected portfolio verdicts: the repository's committed
/// score file, read only.
const EXPECTED_VERDICTS: &str = include_str!("../../expected_verdicts.json");

/// A diverging loop: no sound prover may claim termination.
const DIVERGING_CONTROL: &str = "var x;\nassume x >= 1;\nwhile (x > 0) {\n  x = x + 1;\n}\n";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SuitePortfolio,
    PaperTermite,
    ServeCached,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuitePortfolio,
        Workload::PaperTermite,
        Workload::ServeCached,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuitePortfolio => "suite-portfolio",
            Workload::PaperTermite => "paper-termite",
            Workload::ServeCached => "serve-cached",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (expected one of {names:?})")
            })
    }

    /// The engine selection every job of the workload runs under.
    pub fn selection(self) -> EngineSelection {
        match self {
            Workload::SuitePortfolio => EngineSelection::full_portfolio(),
            // The paper's algorithm: the default of the CLI and of `serve`.
            Workload::PaperTermite | Workload::ServeCached => {
                EngineSelection::single(termite_core::Engine::Termite)
            }
        }
    }
}

/// One job's input: program text plus its independently known answer.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub text: String,
    /// `terminates`, `conditional` or `unknown`: the least verdict a correct
    /// run reaches, and for `unknown` the only verdict a sound one may give.
    pub expect: &'static str,
}

/// How a verdict compares with the known answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Ok,
    /// Weaker than the known answer (a timeout or error counts here too):
    /// a failed job.
    Below,
    /// A proof for a program known not to be provable: the run is wrong.
    Unsound,
}

pub fn check(expect: &str, verdict: &str) -> Check {
    let proved = verdict_rank(verdict) > 0;
    if expect == "unknown" && proved {
        Check::Unsound
    } else if verdict_rank(verdict) < verdict_rank(expect) {
        Check::Below
    } else {
        Check::Ok
    }
}

fn answer(name: &str) -> Result<&'static str, String> {
    match name {
        "terminates" => Ok("terminates"),
        "conditional" => Ok("conditional"),
        "unknown" => Ok("unknown"),
        other => Err(format!("unknown verdict name `{other}` in the score file")),
    }
}

fn input(program: &Program, expect: &'static str) -> Result<Input, String> {
    Ok(Input {
        name: program.name.clone(),
        text: checked_text(program)?,
        expect,
    })
}

/// A copy of `program` whose variables and name carry `tag`: a different
/// input text (and cache key) for the same analysis work.
fn renamed(program: &Program, tag: &str) -> Program {
    let mut copy = program.clone();
    copy.name = format!("{}_{tag}", program.name);
    for v in &mut copy.vars {
        *v = format!("{v}_{tag}");
    }
    copy
}

fn tag(rng: &mut Rng) -> String {
    let mut n = rng.next_u64() % 36u64.pow(6);
    let mut out = String::new();
    for _ in 0..6 {
        out.push(char::from_digit((n % 36) as u32, 36).expect("digit below 36"));
        n /= 36;
    }
    out
}

/// `suite-portfolio`: every committed suite program, in seeded order, with
/// its expected verdict from the score file.
pub fn suite_inputs(rng: &mut Rng) -> Result<Vec<Input>, String> {
    let expected = Json::parse(EXPECTED_VERDICTS).map_err(|e| format!("score file: {e}"))?;
    let mut inputs = termite_suite::all_benchmarks()
        .iter()
        .map(|b| {
            let name = &b.program.name;
            let expect = expected
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("no expected verdict for suite program `{name}`"))?;
            input(&b.program, answer(expect)?)
        })
        .collect::<Result<Vec<_>, String>>()?;
    rng.shuffle(&mut inputs);
    Ok(inputs)
}

/// `paper-termite`'s strata: (generated program, copies per pass). Each
/// family documents unconditional termination.
fn paper_strata() -> Vec<(Program, usize)> {
    vec![
        (multipath_loop(4), 2),
        (phase_cascade(2), 3),
        (multipath_loop(6), 2),
        (nested_counted_loops(2), 3),
        (multipath_loop(8), 3),
        (multipath_loop(10), 3),
    ]
}

/// `paper-termite`: one pass of the stratified pool, each copy under its own
/// seeded variable names, in seeded order.
pub fn paper_inputs(rng: &mut Rng) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for (program, copies) in paper_strata() {
        for _ in 0..copies {
            inputs.push(input(&renamed(&program, &tag(rng)), "terminates")?);
        }
    }
    rng.shuffle(&mut inputs);
    Ok(inputs)
}

/// `serve-cached`'s base programs: small sizes of the three paper families,
/// a padded countdown, and the diverging control.
fn serve_bases() -> Result<Vec<(Program, &'static str)>, String> {
    let control = parse_named_program(DIVERGING_CONTROL, "diverging_control")
        .map_err(|e| format!("diverging control: {e}"))?;
    Ok(vec![
        (multipath_loop(4), "terminates"),
        (phase_cascade(2), "terminates"),
        (nested_counted_loops(2), "terminates"),
        (padded_countdown(6), "terminates"),
        (control, "unknown"),
    ])
}

/// Share of `serve-cached` requests drawn from the pre-filled part of the
/// pool (cache hits); the rest draw fresh variants (misses that analyse and
/// store).
pub const SERVE_HIT_SHARE: f64 = 0.75;

/// Number of pre-filled texts in the `serve-cached` pool.
pub const SERVE_WARM_TEXTS: usize = 30;

/// The `serve-cached` request pool: a pre-filled part of
/// [`SERVE_WARM_TEXTS`] texts, and a cold part of variants generated on
/// demand from the same seed.
pub struct ServePool {
    bases: Vec<(Program, &'static str)>,
    pub warm: Vec<Input>,
}

impl ServePool {
    pub fn new(rng: &mut Rng) -> Result<ServePool, String> {
        let bases = serve_bases()?;
        let warm = (0..SERVE_WARM_TEXTS)
            .map(|i| {
                let (program, expect) = &bases[i % bases.len()];
                input(&renamed(program, &tag(rng)), expect)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ServePool { bases, warm })
    }

    /// Draws one request with replacement: a pre-filled text with
    /// probability [`SERVE_HIT_SHARE`], otherwise a cold variant.
    pub fn draw(&self, rng: &mut Rng) -> Result<Input, String> {
        if rng.unit() < SERVE_HIT_SHARE {
            return Ok(self.warm[rng.below(self.warm.len())].clone());
        }
        let (program, expect) = &self.bases[rng.below(self.bases.len())];
        input(&renamed(program, &tag(rng)), expect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let names = |seed| {
            let mut rng = Rng::new(seed);
            paper_inputs(&mut rng)
                .unwrap()
                .into_iter()
                .map(|i| i.text)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(3), names(3));
        assert_ne!(names(3), names(4));
    }

    #[test]
    fn every_suite_program_has_a_known_answer() {
        let inputs = suite_inputs(&mut Rng::new(1)).unwrap();
        assert_eq!(inputs.len(), termite_suite::all_benchmarks().len());
        assert!(inputs
            .iter()
            .any(|i| i.name == "diverging_counter" && i.expect == "unknown"));
    }

    #[test]
    fn known_answer_check() {
        assert_eq!(check("terminates", "terminates"), Check::Ok);
        assert_eq!(check("conditional", "terminates"), Check::Ok);
        assert_eq!(check("terminates", "conditional"), Check::Below);
        assert_eq!(check("terminates", "unknown"), Check::Below);
        assert_eq!(check("unknown", "unknown"), Check::Ok);
        assert_eq!(check("unknown", "conditional"), Check::Unsound);
        assert_eq!(check("unknown", "terminates"), Check::Unsound);
    }

    #[test]
    fn serve_pool_mixes_warm_and_cold_texts() {
        let mut rng = Rng::new(5);
        let pool = ServePool::new(&mut rng).unwrap();
        let draws: Vec<Input> = (0..400).map(|_| pool.draw(&mut rng).unwrap()).collect();
        let warm = draws
            .iter()
            .filter(|d| pool.warm.iter().any(|w| w.text == d.text))
            .count();
        assert!(warm > 250 && warm < 350, "{warm} warm draws of 400");
        assert!(draws.iter().any(|d| d.expect == "unknown"));
    }
}
