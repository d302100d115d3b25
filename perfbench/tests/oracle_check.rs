//! The output check is not vacuous: a corrupted labeling makes ops fail.

use refidem_perfbench::workload::{run, RunSpec, Workload};
use refidem_testkit::diff::Tamper;

/// A quick cold-compile run: 16 generated programs and one giant block, one
/// set-up, the minimum number of rounds.
fn small_cold_run(tamper: Option<Tamper>) -> RunSpec {
    let mut spec = RunSpec::new(Workload::ColdCompile, 5, 0.0, false);
    spec.pool = 16;
    spec.setup_reps = 1;
    spec.tamper = tamper;
    spec
}

#[test]
fn a_sound_labeling_passes_every_output_check() {
    let outcome = run(&small_cold_run(None)).expect("runs");
    assert!(outcome.tally.attempted > 0);
    assert_eq!(
        outcome.fail_frac(),
        0.0,
        "{:?}",
        outcome.tally.first_failure
    );
    assert!(outcome.correct(), "{:?}", outcome.tally.self_check);
}

#[test]
fn a_tampered_labeling_drives_fail_frac_above_zero() {
    for tamper in [
        Tamper::PromoteSpeculativeReads,
        Tamper::PromoteSpeculativeWrites,
    ] {
        let outcome = run(&small_cold_run(Some(tamper))).expect("runs");
        assert!(
            outcome.fail_frac() > 0.0,
            "{tamper:?}: no op failed the oracle check"
        );
        assert!(!outcome.correct());
    }
}
