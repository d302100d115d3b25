//! `BENCHMARK.json` and the harness name the same workloads and metrics,
//! with the same units, directions and bounds.

use refidem_perfbench::json::{self, Value};
use refidem_perfbench::metrics::{self, END_TO_END};
use refidem_perfbench::workload::Workload;

fn benchmark_json() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("valid JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let listed: Vec<&str> = array(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let doc = benchmark_json();
    let listed = array(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(entry, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
}

#[test]
fn per_layer_metrics_match() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str, &str)> = array(&doc, "per_layer")
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
        .collect();
    let catalog = metrics::per_layer();
    let ours: Vec<(&str, &str, &str)> = catalog
        .iter()
        .map(|(n, u, b)| (n.as_str(), *u, b.as_str()))
        .collect();
    assert_eq!(listed, ours);
}
