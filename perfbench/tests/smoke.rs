//! Tiny-length runs of every workload: every metric is emitted with a
//! finite value, nothing fails, and tracing leaves the model untouched.

use std::path::PathBuf;

use perfbench::run::{run_point, Ledger};
use perfbench::spans::Recorder;
use perfbench::workloads::{Spec, NAMES};
use perfbench::{bench, Options, END_TO_END, PER_LAYER};

/// Simulated lengths at 2% of the benchmark's.
const SCALE: f64 = 0.02;

fn opts(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: SCALE,
        spans_path: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-spans-{workload}.jsonl")),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

#[test]
fn every_workload_emits_every_metric_with_a_finite_value() {
    for name in NAMES {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = bench(&opts(name, trace)).expect("benchmark runs");
            assert_eq!(out.ledger.failed, 0, "{name}: {:?}", out.ledger.messages);
            assert!(out.ledger.attempted > 0);
            assert_eq!(out.ledger.error_rate(), 0.0);
            assert_eq!(out.metrics.len(), table.len());
            for (metric, _) in table {
                let v = out.get(metric).expect("metric emitted");
                assert!(v.is_finite(), "{name} {metric} = {v}");
            }
            assert!(out.correct(), "{name} trace={trace}");
            let json = out.result_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            if trace {
                let spans = std::fs::read_to_string(&opts(name, true).spans_path)
                    .expect("traced run writes its spans");
                assert!(spans.lines().any(|l| l.contains("\"name\":\"core.slice\"")));
            }
        }
    }
}

#[test]
fn traced_and_untraced_runs_model_identically() {
    for name in NAMES {
        let spec = Spec::new(name, 11, SCALE).expect("known workload");
        let mut ledger = Ledger::default();
        for point in &spec.points {
            let plain = run_point(&spec, point, &mut Recorder::new(false));
            let traced = run_point(&spec, point, &mut Recorder::new(true));
            let (plain, traced) = (
                ledger.record(name, plain).expect("untraced run"),
                ledger.record(name, traced).expect("traced run"),
            );
            assert_eq!(plain.stats, traced.stats, "{name} {}", point.label);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let mut expected: Vec<&str> = NAMES.to_vec();
    expected.extend(END_TO_END.iter().map(|m| m.0));
    expected.extend(PER_LAYER.iter().map(|m| m.0));
    assert_eq!(names, expected);
}
