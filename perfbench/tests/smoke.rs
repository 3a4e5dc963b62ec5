//! Smoke test of the benchmark itself: a few ops of every workload, both
//! untraced and traced, must print every metric `BENCHMARK.json` names,
//! with its unit, and report no failed op.

use fase_obs::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in the `section` list of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, ops: usize) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_fase-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--ops", &ops.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e:?}"))
}

fn check(workload: &str, ops: usize) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace, ops);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_number), Some(0.0));
        assert_eq!(
            result.get("attempted").and_then(Value::as_number),
            Some(ops as f64),
            "{workload}"
        );
        let metrics = result.get("metrics").expect("metrics");
        let declared = declared(section);
        assert_eq!(metrics.as_object().map(<[_]>::len), Some(declared.len()));
        for (name, unit) in declared {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            let value = m.get("value").and_then(Value::as_number);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name}");
        }
        if !trace {
            let ok = metrics.get("ok_ratio").and_then(|m| m.get("value"));
            assert_eq!(
                ok.and_then(Value::as_number),
                Some(1.0),
                "failed ratio is 0"
            );
        }
    }
}

#[test]
fn survey_cold_reports_every_metric() {
    check("survey-cold", 4);
}

#[test]
fn population_reports_every_metric() {
    check("population", 4);
}

#[test]
fn serve_mixed_reports_every_metric() {
    check("serve-mixed", 24);
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_fase-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
