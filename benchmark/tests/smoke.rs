//! Contract smoke test: every workload, both trace modes, at `--quick` size.
//! What a run prints must be exactly what `BENCHMARK.json` promises.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

use asha::metrics::JsonValue;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of the objects in the manifest array `key`.
fn names(manifest: &JsonValue, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(JsonValue::as_str).expect("name");
            assert!(
                !name.is_empty()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name:?} must match [A-Za-z0-9_.-]+"
            );
            name.to_owned()
        })
        .collect()
}

/// Run one quick benchmark run; return its result line.
fn run(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_asha-benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload} trace={trace} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the last line is JSON")
}

#[test]
fn quick_runs_print_exactly_the_manifests_names() {
    let manifest = manifest();
    let workloads = names(&manifest, "workloads");
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.contains("setup_s"));

    let start = Instant::now();
    for workload in &workloads {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let result = run(workload, trace);
            let keys: BTreeSet<&str> = match &result {
                JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            };
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is an object");
            };
            let printed: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(&printed, expected, "{workload} trace={trace}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} has a value");
                assert!(metric.get("unit").and_then(JsonValue::as_str).is_some());
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "the smoke run took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_asha-benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
