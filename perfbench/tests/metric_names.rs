//! Every metric the benchmark prints is listed in `BENCHMARK.json` with
//! the same unit, and every listed metric is printed: end-to-end ones by
//! an untraced run (`run.py` adds `peak_rss_mib`), per-layer ones by a
//! traced run, on every workload.

use hs_sim::Json;
use perfbench::measure::{self, Args};
use perfbench::workloads::{Size, DEFAULT_SEED, NAMES};
use std::path::PathBuf;

/// Metrics `run.py` adds to the binary's end-to-end output.
const ADDED_BY_RUNNER: [(&str, &str); 1] = [("peak_rss_mib", "MiB")];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn printed(workload: &str, trace: bool) -> Vec<(String, String)> {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("metric-names-{workload}-{}", u8::from(trace)));
    let outcome = measure::run(&Args {
        workload: workload.into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        scratch,
        size: Size::Reduced,
    })
    .expect("benchmark runs");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{workload} (trace {trace}) failed its output check: {:?}",
        outcome.notes
    );
    assert!(outcome.attempted >= 1);
    let line = Json::parse(&outcome.to_json_line()).expect("the result line is JSON");
    assert_eq!(
        line.get("metrics").and_then(|m| match m {
            Json::Obj(fields) => Some(fields.len()),
            _ => None,
        }),
        Some(outcome.metrics.len()),
        "the result line carries every metric once"
    );
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn workload_names_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn end_to_end_metrics_match() {
    let mut expected = listed(&benchmark_json(), "end_to_end");
    expected.sort();
    for workload in NAMES {
        let mut got = printed(workload, false);
        got.extend(
            ADDED_BY_RUNNER
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string())),
        );
        got.sort();
        assert_eq!(got, expected, "{workload}");
    }
}

#[test]
fn per_layer_metrics_match() {
    let expected = listed(&benchmark_json(), "per_layer");
    for workload in NAMES {
        assert_eq!(printed(workload, true), expected, "{workload}");
    }
}
