//! Runs `perfbench` on every workload at `--quick` size and checks what it
//! prints against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::Value;

const WORKLOADS: [&str; 4] = ["detect-heavy", "replay-heavy", "pbin-ingest", "app-sweep"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--quick", "--seconds", "0"])
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

/// The JSON object on the last line of standard output.
fn result(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("perfbench printed something");
    serde_json::parse(last).expect("the last line is JSON")
}

fn assert_passed(workload: &str, output: &Output) -> Value {
    let result = result(output);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload}: exit {}\n{stderr}",
        output.status
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {stderr}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    result
}

/// The metric names of a result, checking each has its declared unit and a
/// finite value.
fn metric_names(workload: &str, result: &Value) -> Vec<String> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let units: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for (name, metric) in metrics {
        let (_, unit) = units
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{workload}: {name} is not declared"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

struct Span {
    id: u64,
    parent: Option<u64>,
    workload: String,
    name: String,
    duration_s: f64,
}

fn read_spans(path: &Path) -> Vec<Span> {
    std::fs::read_to_string(path)
        .expect("spans file written")
        .lines()
        .map(|line| {
            let v = serde_json::parse(line).expect("span line is JSON");
            let num = |k| {
                v.get(k)
                    .and_then(Value::as_f64)
                    .expect("numeric span field")
            };
            let text = |k| {
                v.get(k)
                    .and_then(Value::as_str)
                    .expect("text span field")
                    .to_string()
            };
            Span {
                id: v.get("id").and_then(Value::as_u64).expect("id"),
                parent: v.get("parent").and_then(Value::as_u64),
                workload: text("workload"),
                name: text("name"),
                duration_s: num("end_s") - num("start_s"),
            }
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let all: Vec<String> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .map(|(name, _)| name)
        .collect();
    for workload in WORKLOADS {
        let spans_path =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.spans"));
        let output = perfbench(&[
            "--workload",
            workload,
            "--spans",
            spans_path.to_str().unwrap(),
        ]);
        let result = assert_passed(workload, &output);
        assert_eq!(metric_names(workload, &result), all, "{workload}");

        let spans = read_spans(&spans_path);
        assert!(spans
            .iter()
            .all(|s| s.workload == workload && s.duration_s >= 0.0));
        // The layer spans of the in-memory analyses tile their analyze span.
        if workload == "detect-heavy" || workload == "replay-heavy" {
            for analyze in spans.iter().filter(|s| s.name == "analyze") {
                let children: f64 = spans
                    .iter()
                    .filter(|s| s.parent == Some(analyze.id))
                    .map(|s| s.duration_s)
                    .sum();
                let coverage = children / analyze.duration_s;
                assert!(
                    (0.95..=1.0).contains(&coverage),
                    "{workload}: layer spans cover {coverage:.3} of analyze"
                );
            }
        }
    }
}

#[test]
fn trace_flag_selects_the_metric_set() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = perfbench(&["--workload", "detect-heavy", "--trace", trace]);
        let result = assert_passed("detect-heavy", &output);
        let expected: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            metric_names("detect-heavy", &result),
            expected,
            "--trace {trace}"
        );
    }
}

#[test]
fn a_bad_argument_exits_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"]] {
        let output = perfbench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
