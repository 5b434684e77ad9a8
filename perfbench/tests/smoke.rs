//! Smoke runs of every workload: each prints every catalogued metric with
//! its unit and sample count, passes its output checks, and ends with the
//! result line `BENCHMARK.json` describes.

use std::collections::BTreeMap;
use std::process::Command;

use comptest_engine::codec::{self, Value};

const WORKLOADS: [&str; 4] = ["fleet_cold", "dense_cold", "edit_warm", "serve_open"];

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn catalogue(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = codec::parse(&text).expect("BENCHMARK.json is JSON");
    doc.field(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |name| {
                m.field(name)
                    .and_then(Value::as_str)
                    .expect(name)
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A JSON number as `f64`.
fn number(value: &Value) -> f64 {
    match value {
        Value::Number(lexeme) => lexeme.parse().expect("a decimal number"),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn run(workload: &str, trace: u8) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_comptest-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.6"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = codec::parse(last).expect("the last line is JSON");
    (stdout, result)
}

fn check(workload: &str, trace: u8, list: &str) {
    let (stdout, result) = run(workload, trace);
    assert_eq!(result.field("correct").and_then(Value::as_bool), Ok(true));
    assert_eq!(result.field("failed").and_then(Value::as_u64), Ok(0));
    assert!(result.field("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

    let metrics = result.field("metrics").and_then(Value::as_object).unwrap();
    let expected = catalogue(list);
    let printed: BTreeMap<&str, &Value> = metrics.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(
        printed.len(),
        expected.len(),
        "{workload}: {list} metric count"
    );
    for (name, unit) in &expected {
        let metric = printed
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{workload}: {name} missing from the result line"));
        assert_eq!(
            metric.field("unit").and_then(Value::as_str),
            Ok(unit.as_str())
        );
        let value = number(metric.field("value").unwrap());
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let tag = if trace == 1 { "layer" } else { "e2e" };
        let line_start = format!("{tag} {name} ");
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&line_start))
            .unwrap_or_else(|| panic!("{workload}: no `{tag} {name}` line"));
        assert!(
            line.contains(&format!(" {unit} n=")),
            "{workload}: {line:?} lacks its unit and sample count"
        );
    }
    // The untraced end-to-end figures are printed by the traced run too.
    for (name, _) in catalogue("end_to_end") {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("e2e {name} "))),
            "{workload}: no e2e {name} line"
        );
    }
    assert!(
        stdout.contains("check attempted="),
        "{workload}: no check line"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        check(workload, 0, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        check(workload, 1, "per_layer");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the latency limits behind in_limit_frac assume an optimised build"
)]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let (_, result) = run(workload, 0);
        for (name, value) in result.field("metrics").and_then(Value::as_object).unwrap() {
            let value = number(value.field("value").unwrap());
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seed", "1"][..],
        &["--workload", "fleet_cold", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_comptest-perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
