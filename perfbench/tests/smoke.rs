//! Tiny-seed smoke runs: every workload, untraced and traced, must finish
//! correctly and print exactly the metrics `BENCHMARK.json` names.

use std::process::Command;
use termite_driver::json::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each entry of a `BENCHMARK.json` list (workloads
/// have no unit).
fn names(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

#[test]
fn every_workload_emits_every_named_metric() {
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads,
        ["suite-portfolio", "paper-termite", "serve-cached"]
    );
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                workload,
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(out.status.success(), "{workload} --trace {trace}: {stdout}");
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_usize), Some(0));
            assert!(result.get("attempted").and_then(Json::as_usize) >= Some(1));
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut expected = names(section);
            printed.sort();
            expected.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ][..],
        &["--workload", "paper-termite", "--seconds", "1"][..],
        &[
            "--workload",
            "paper-termite",
            "--seed",
            "x",
            "--seconds",
            "1",
        ][..],
    ] {
        let out = run(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
