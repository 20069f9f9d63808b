//! The termite benchmark: time to verdict on three seeded workloads, and a
//! traced run that splits that time by layer.
//!
//! ```text
//! perfbench --workload <suite-portfolio|paper-termite|serve-cached>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The exit code is nonzero when the run is not correct — a proof claimed
//! for a program known not to terminate, a broken closure or counter check —
//! or when it could not run at all. See `perfbench/README.md`.

mod attribution;
mod measure;
mod probe;
mod session;
mod source;
mod stats;
mod traced;
mod workloads;

use measure::{Metric, Outcome};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::ServeCached, false) => measure::timed_serve(args.seed, args.seconds),
        (workload, false) => measure::timed_batch(workload, args.seed, args.seconds),
        (Workload::ServeCached, true) => traced::traced_serve(args.seed, args.seconds),
        (workload, true) => traced::traced_batch(workload, args.seed, args.seconds),
    }
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            if value.is_finite() {
                Ok(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            } else {
                Err(format!("metric {name} is not a number ({value})"))
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.errors.is_empty(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let line = match result_line(&outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for Metric { name, value, unit } in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    for error in &outcome.tally.errors {
        println!("INCORRECT: {error}");
    }
    println!("{line}");
    if !outcome.tally.errors.is_empty() {
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "paper-termite",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PaperTermite, 3, 2.0, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "paper-termite", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "paper-termite",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--x",
            "1"
        ])
        .is_err());
    }
}
