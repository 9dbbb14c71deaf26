//! Keeps the harness alive between benchmark runs: `ledger --smoke` runs
//! every workload at 1/20 size, and every metric the benchmark names must
//! come back with its unit and nothing may fail.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn committed_benchmark_json_is_what_the_spec_prints() {
    let out = Command::new(LEDGER)
        .arg("--benchmark-json")
        .output()
        .expect("ledger runs");
    assert!(out.status.success());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed);
}

#[test]
fn smoke_run_reports_every_metric_and_fails_nothing() {
    let out_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let out = Command::new(LEDGER)
        .args(["--smoke", "--seed", "2014", "--out"])
        .arg(&out_path)
        .output()
        .expect("ledger runs");
    assert!(
        out.status.success(),
        "ledger --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("result file written");
    let result = Json::parse(&text).expect("result file parses");
    let benchmark = benchmark_json();
    let workloads = result.get("workloads").expect("workloads").as_arr();
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("workload").and_then(Json::as_str).unwrap_or(""))
            .collect::<Vec<_>>(),
        names(&benchmark, "workloads")
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
    );
    for w in workloads {
        let name = w.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (run, section) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let run = w
                .get(run)
                .unwrap_or_else(|| panic!("{name}: {run} run present"));
            assert_eq!(
                run.get("fail_frac").and_then(Json::as_f64),
                Some(0.0),
                "{name}"
            );
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{name}");
            let metrics = run.get("metrics").expect("metrics");
            for (metric, unit) in names(&benchmark, section) {
                let m = metrics
                    .get(&metric)
                    .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric} = {value:?}"
                );
            }
        }
        // The four metrics a user would see are never zero.
        let e2e = w
            .get("end_to_end")
            .and_then(|r| r.get("metrics"))
            .expect("metrics");
        for (metric, _) in names(&benchmark, "end_to_end") {
            let value = e2e
                .get(&metric)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}: {metric} = {value:?}"
            );
        }
    }
}
