//! The deterministic metrics do not depend on the `REFIDEM_JOBS` worker
//! count the analysis shards giant blocks over. The only test of its
//! binary, so setting the variable races with no other test.

use refidem_perfbench::workload::{run, RunSpec, Workload};
use std::collections::BTreeMap;

fn deterministic_at(jobs: &str, trace: bool) -> BTreeMap<String, u64> {
    // The analysis reads the variable on every call.
    std::env::set_var("REFIDEM_JOBS", jobs);
    let mut spec = RunSpec::new(Workload::ColdCompile, 3, 0.0, trace);
    spec.pool = 32;
    spec.setup_reps = 1;
    let outcome = run(&spec).expect("runs");
    assert!(outcome.correct(), "{:?}", outcome.tally.first_failure);
    outcome
        .reference
        .metrics()
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

#[test]
fn deterministic_metrics_do_not_depend_on_the_worker_count() {
    for trace in [false, true] {
        let one = deterministic_at("1", trace);
        assert!(!one.is_empty());
        assert_eq!(one, deterministic_at("2", trace), "trace {trace}");
    }
}
