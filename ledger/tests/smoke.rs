//! The ledger's own test, at the smoke size: on every workload of `BENCHMARK.json`, the
//! untraced run prints exactly the end-to-end metrics and the traced run exactly the
//! per-layer metrics, each with its declared unit, and the oracle gate passes.

use dynsld_serve::json::{self, Value};
use std::process::{Command, Output};

const FORBIDDEN_ENV: [&str; 7] = [
    "DYNSLD_THREADS",
    "DYNSLD_MSF_BACKEND",
    "DYNSLD_FAULTS",
    "DYNSLD_DURABLE_DIR",
    "DYNSLD_TRACE",
    "DYNSLD_PARTITIONER",
    "DYNSLD_QUEUE_CAP",
];

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn ledger(workload: &str, trace: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ledger"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--size", "smoke"]);
    for var in FORBIDDEN_ENV {
        cmd.env_remove(var);
    }
    cmd
}

fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let bench = benchmark();
    let workloads = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    for workload in workloads {
        let name = workload.get("name").and_then(Value::as_str).expect("name");
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = result_line(&ledger(name, trace).output().expect("ledger runs"));
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").and_then(Value::as_int) >= Some(1));
            assert_eq!(result.get("failed").and_then(Value::as_int), Some(0));
            let Some(Value::Obj(printed)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let declared = bench
                .get(kind)
                .and_then(Value::as_arr)
                .expect("metric list");
            assert_eq!(printed.len(), declared.len(), "{name} {kind}: metric count");
            for metric in declared {
                let metric_name = metric.get("name").and_then(Value::as_str).expect("name");
                let got = result
                    .get("metrics")
                    .and_then(|m| m.get(metric_name))
                    .unwrap_or_else(|| panic!("{name}: {metric_name} not printed"));
                assert_eq!(
                    got.get("unit").and_then(Value::as_str),
                    metric.get("unit").and_then(Value::as_str),
                    "{name}: unit of {metric_name}"
                );
                let value = got.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric_name} value"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_under_a_configuration_override() {
    let out = ledger("fresh_serve", "0")
        .env("DYNSLD_THREADS", "1")
        .output()
        .expect("ledger runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
