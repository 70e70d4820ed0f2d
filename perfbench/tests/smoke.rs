//! The benchmark at a tiny size: every metric `BENCHMARK.json` names
//! prints with its unit on every workload, and the oracle catches a
//! wrong answer.

use perfbench::{Config, Workload, END_TO_END, PER_LAYER};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn spec() -> Spec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn tiny(workload: Workload, trace: bool, corrupt_oracle: bool) -> Line {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        tiny: true,
        corrupt_oracle,
        // one directory per run: the tests run concurrently
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{trace}-{corrupt_oracle}", workload.name())),
        started: Instant::now(),
    };
    let report = perfbench::run(&cfg).expect("the tiny run completes");
    let line = report.result_line(trace).expect("every metric is measured");
    serde_json::from_str(&line).expect("the result line is JSON")
}

fn pairs(specs: &[MetricSpec]) -> Vec<(String, String)> {
    let mut v: Vec<_> = specs
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    v.sort();
    v
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<_> = t
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn the_program_and_benchmark_json_name_the_same_metrics_and_workloads() {
    let spec = spec();
    assert_eq!(pairs(&spec.end_to_end), table(&END_TO_END));
    assert_eq!(pairs(&spec.per_layer), table(&PER_LAYER));
    let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_metric_prints_with_its_unit_on_every_workload() {
    let spec = spec();
    for w in Workload::ALL {
        for (trace, specs) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let line = tiny(w, trace, false);
            let want: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
            let got: Vec<&str> = line.metrics.keys().map(String::as_str).collect();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(got, want_sorted, "{} trace {trace}", w.name());
            for m in specs {
                let v = &line.metrics[&m.name];
                assert_eq!(v.unit, m.unit, "{} {}", w.name(), m.name);
                assert!(v.value.is_finite(), "{} {}", w.name(), m.name);
            }
            assert!(line.correct, "{} trace {trace}", w.name());
            assert!(line.attempted > 0 && line.failed == 0, "{}", w.name());
            if !trace {
                assert_eq!(line.metrics["verified_frac"].value, 1.0, "{}", w.name());
                for m in specs {
                    assert!(
                        line.metrics[&m.name].value > 0.0,
                        "{} {} is 0",
                        w.name(),
                        m.name
                    );
                }
            }
        }
    }
}

#[test]
fn a_wrong_expected_answer_lowers_verified_frac() {
    for w in Workload::ALL {
        let line = tiny(w, false, true);
        assert!(!line.correct, "{}", w.name());
        assert!(line.failed > 0, "{}", w.name());
        assert!(line.metrics["verified_frac"].value < 1.0, "{}", w.name());
    }
}
