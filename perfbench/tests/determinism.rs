//! The deterministic metrics — simulated speedups, the idempotent-reference
//! fraction and every engine counter — repeat bit for bit across runs and
//! op orders.

use refidem_perfbench::workload::{run, RunSpec, Workload};
use std::collections::BTreeMap;

fn quick(workload: Workload, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(workload, seed, 0.0, false);
    spec.pool = 32;
    spec.setup_reps = 1;
    spec
}

fn deterministic(spec: &RunSpec) -> BTreeMap<String, u64> {
    let outcome = run(spec).expect("runs");
    assert!(outcome.correct(), "{:?}", outcome.tally.first_failure);
    outcome
        .reference
        .metrics()
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_op_orders() {
    for workload in [Workload::ColdCompile, Workload::WarmLadder] {
        let spec = quick(workload, 9);
        let first = deterministic(&spec);
        assert_eq!(
            first,
            deterministic(&spec),
            "{workload:?}: second run differs"
        );
        // The reference pass runs the pool in an order drawn from the
        // order seed.
        let mut reordered = spec.clone();
        reordered.order_seed ^= 0xDEAD_BEEF;
        assert_eq!(
            first,
            deterministic(&reordered),
            "{workload:?}: another op order differs"
        );
    }
}

#[test]
fn the_ladder_shows_case_beating_hose() {
    let outcome = run(&quick(Workload::WarmLadder, 1)).expect("runs");
    let r = &outcome.reference;
    assert!(
        r.case_geo() >= r.hose_geo(),
        "CASE {} < HOSE {}",
        r.case_geo(),
        r.hose_geo()
    );
}
