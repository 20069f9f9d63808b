//! CLI-level integration tests of the sharded-suite workflow: a fleet of
//! `suite --shard k/n --json` invocations merged by `merge-reports` must
//! reproduce the unsharded run, and the verdict gate must accept the result.

use std::path::PathBuf;
use std::process::Command;
use termite_driver::json::Json;

fn termite() -> Command {
    Command::new(env!("CARGO_BIN_EXE_termite"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("termite-cli-shard-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read_json(path: &PathBuf) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `(name, verdict)` pairs of a report, sorted by name.
fn verdicts(doc: &Json) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|b| {
            (
                b.get("name").and_then(Json::as_str).unwrap().to_string(),
                b.get("verdict").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn two_shard_union_equals_unsharded_run() {
    // The TermComp suite is the cheapest with interesting verdict variety.
    let full_path = tmp("full.json");
    let status = termite()
        .args(["suite", "termcomp", "--jobs", "2", "--json"])
        .arg(&full_path)
        .status()
        .unwrap();
    assert!(status.success());

    let shard_paths = [tmp("shard1.json"), tmp("shard2.json")];
    for (i, path) in shard_paths.iter().enumerate() {
        let status = termite()
            .args([
                "suite",
                "termcomp",
                "--jobs",
                "2",
                "--shard",
                &format!("{}/2", i + 1),
                "--json",
            ])
            .arg(path)
            .status()
            .unwrap();
        assert!(status.success(), "shard {} failed", i + 1);
    }

    // The shards must partition the suite: no benchmark missing, none
    // duplicated (merge-reports rejects duplicates itself).
    let merged_path = tmp("merged.json");
    let status = termite()
        .arg("merge-reports")
        .arg(&merged_path)
        .args(&shard_paths)
        .status()
        .unwrap();
    assert!(status.success());

    let full = read_json(&full_path);
    let merged = read_json(&merged_path);
    assert_eq!(
        verdicts(&full),
        verdicts(&merged),
        "2-shard union must reproduce the unsharded verdicts"
    );
    // Totals agree on the integral counts.
    for field in ["total", "proved", "conditional", "expected", "cache_hits"] {
        assert_eq!(
            full.get("totals")
                .unwrap()
                .get(field)
                .and_then(Json::as_f64),
            merged
                .get("totals")
                .unwrap()
                .get(field)
                .and_then(Json::as_f64),
            "totals field `{field}` differs"
        );
    }
    // One totals routine behind both: the merge carries exactly the
    // unsharded key set (no merge-only keys, none missing).
    let keys = |doc: &Json| match doc.get("totals") {
        Some(Json::Object(totals)) => totals.keys().cloned().collect::<Vec<_>>(),
        other => panic!("totals is not an object: {other:?}"),
    };
    assert_eq!(keys(&full), keys(&merged), "merged totals keys differ");
}

#[test]
fn bench_diff_accepts_improvements_and_rejects_regressions() {
    let old = tmp("diff-old.json");
    let new = tmp("diff-new.json");
    let record = |name: &str, verdict: &str, ms: f64| {
        format!(
            "{{\"name\": \"{name}\", \"verdict\": \"{verdict}\", \
             \"terminating\": {}, \"synthesis_millis\": {ms}, \"lp_pivots\": 1}}",
            verdict != "unknown"
        )
    };
    let report = |records: &[String]| {
        format!(
            "{{\"benchmarks\": [{}], \"totals\": {{}}}}",
            records.join(", ")
        )
    };
    std::fs::write(
        &old,
        report(&[
            record("a", "unknown", 1.0),
            record("b", "terminates", 1.0),
            record("c", "conditional", 1.0),
        ]),
    )
    .unwrap();
    // a improves, b keeps, c improves: must pass under regression-only
    // semantics even though three verdicts "changed".
    std::fs::write(
        &new,
        report(&[
            record("a", "conditional", 1.0),
            record("b", "terminates", 1.0),
            record("c", "terminates", 1.0),
        ]),
    )
    .unwrap();
    let status = termite()
        .arg("bench-diff")
        .args([&old, &new])
        .status()
        .unwrap();
    assert!(status.success(), "improvements must not fail bench-diff");

    // A proof decaying to conditional is a regression and must fail.
    std::fs::write(
        &new,
        report(&[
            record("a", "unknown", 1.0),
            record("b", "conditional", 1.0),
            record("c", "conditional", 1.0),
        ]),
    )
    .unwrap();
    let status = termite()
        .arg("bench-diff")
        .args([&old, &new])
        .status()
        .unwrap();
    assert!(
        !status.success(),
        "verdict regressions must fail bench-diff"
    );
}

#[test]
fn check_verdicts_gates_on_the_lattice() {
    let expected = tmp("expected.json");
    let actual = tmp("actual.json");
    std::fs::write(&expected, "{\"a\": \"terminates\", \"b\": \"conditional\"}").unwrap();
    std::fs::write(
        &actual,
        "{\"benchmarks\": [\
          {\"name\": \"a\", \"verdict\": \"terminates\", \"terminating\": true, \"synthesis_millis\": 1.0},\
          {\"name\": \"b\", \"verdict\": \"terminates\", \"terminating\": true, \"synthesis_millis\": 1.0}]}",
    )
    .unwrap();
    let status = termite()
        .arg("check-verdicts")
        .args([&expected, &actual])
        .status()
        .unwrap();
    assert!(status.success(), "meeting or beating expectations passes");

    std::fs::write(
        &actual,
        "{\"benchmarks\": [\
          {\"name\": \"a\", \"verdict\": \"conditional\", \"terminating\": true, \"synthesis_millis\": 1.0},\
          {\"name\": \"b\", \"verdict\": \"conditional\", \"terminating\": true, \"synthesis_millis\": 1.0}]}",
    )
    .unwrap();
    let status = termite()
        .arg("check-verdicts")
        .args([&expected, &actual])
        .status()
        .unwrap();
    assert!(
        !status.success(),
        "a verdict below expectation fails the gate"
    );
}
