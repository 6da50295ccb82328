//! The benchmark's own tests: a tiny run of each workload prints every
//! metric `BENCHMARK.json` declares, with its unit, and a deliberately
//! wrong reference digest or prediction makes the run fail.

use std::path::PathBuf;
use std::process::Command;

use reds_json::Json;

const WORKLOADS: [&str; 3] = ["pipeline", "ooc", "serve"];

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let doc = reds_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

struct Run {
    success: bool,
    result: Json,
    stdout: String,
}

fn run(workload: &str, trace: bool, inject: Option<&str>) -> Run {
    // Each run gets its own working directory, where it keeps its
    // scratch files.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{trace}-{}", inject.unwrap_or("none")));
    std::fs::create_dir_all(&dir).expect("test working directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reds-perfbench"));
    cmd.current_dir(&dir)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"]);
    if let Some(fault) = inject {
        cmd.args(["--inject", fault]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or_default();
    let result = reds_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last stdout line is not the result ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Run {
        success: out.status.success(),
        result,
        stdout,
    }
}

fn assert_prints_every_metric(workload: &str, trace: bool) {
    let r = run(workload, trace, None);
    assert!(r.success, "{workload} trace={trace} failed:\n{}", r.stdout);
    assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(r.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        r.result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let metrics = r.result.get("metrics").expect("metrics object");
    let Json::Obj(pairs) = metrics else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want_names, "{workload} trace={trace}");
    for (name, unit) in &want {
        let m = metrics.get(name).expect("declared metric");
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
    }
    assert!(
        r.stdout.lines().any(|l| l.starts_with("stamp {")),
        "{workload}: no commit/machine stamp"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_prints_every_metric(w, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for w in WORKLOADS {
        assert_prints_every_metric(w, true);
    }
}

fn assert_fails(workload: &str, trace: bool, fault: &str) {
    let r = run(workload, trace, Some(fault));
    assert!(!r.success, "{workload} with a wrong {fault} exited 0");
    assert_eq!(
        r.result.get("correct").and_then(Json::as_bool),
        Some(false),
        "{workload} with a wrong {fault}"
    );
    assert!(r.result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
}

#[test]
fn a_wrong_reference_digest_fails_the_run() {
    for w in WORKLOADS {
        assert_fails(w, false, "reference");
    }
    // The traced rebuild is held to the same references.
    assert_fails("pipeline", true, "reference");
    assert_fails("ooc", true, "reference");
}

#[test]
fn a_wrong_reference_prediction_fails_the_run() {
    for w in WORKLOADS {
        assert_fails(w, false, "prediction");
    }
}
