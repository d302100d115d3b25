//! `peak_rss_mb` is each workload's own peak, not the process's: a
//! workload run after a bigger one in the same process, as under
//! `--workload all`, does not report the earlier peak. The only test of its
//! binary, so no other test shares the process's resident set.

use refidem_perfbench::workload::{peak_rss_mib, run, RunSpec, Workload};

/// Memory the earlier "workload" touches, in MiB.
const BURST_MIB: usize = 64;

#[test]
fn a_later_workload_reports_its_own_peak() {
    let burst = vec![1u8; BURST_MIB << 20];
    std::hint::black_box(&burst);
    drop(burst);
    assert!(peak_rss_mib() >= BURST_MIB as f64, "the burst is resident");

    let mut spec = RunSpec::new(Workload::WarmLadder, 1, 0.0, false);
    spec.setup_reps = 1;
    let outcome = run(&spec).expect("runs");
    assert!(outcome.correct(), "{:?}", outcome.tally.first_failure);
    let peak = outcome
        .metrics
        .iter()
        .find(|m| m.name == "peak_rss_mb")
        .expect("peak_rss_mb is reported")
        .value;
    assert!(
        peak < BURST_MIB as f64 / 2.0,
        "warm-ladder reports {peak} MiB, the earlier burst's peak"
    );
}
