//! The simulated engine on machines wider than 32 processors. Its
//! per-address dependence masks keep one bit per processor in a `u32`, so
//! above 32 processors they switch themselves off: every other-writer and
//! other-reader check answers "maybe" and the engine scans every in-flight
//! slot instead. Every other test and workload runs at 8 processors or
//! fewer; these run the differential check (byte-exact against the
//! sequential run across the capacity ladder, HOSE and CASE) at 33
//! processors, and the widened variant at 33 and 64 over the whole corpus.
//! Run the widened variant in release with `cargo test --release -p
//! refidem-testkit --test wide_machine -- --ignored`.

use refidem_benchmarks::all_benchmarks;
use refidem_ir::program::Program;
use refidem_testkit::{check_program, generate, DiffConfig, DiffStats, SweepExec, SweepPlan};

/// Checks the corpus programs of `seeds` and the benchmark suite at each
/// processor count, panicking on the first divergence; returns the merged
/// statistics.
fn check_wide(seeds: std::ops::Range<u64>, processors: &[usize]) -> DiffStats {
    let mut programs: Vec<(String, Program)> = seeds
        .map(|seed| (format!("seed {seed}"), generate(seed).program))
        .collect();
    programs.extend(
        all_benchmarks()
            .into_iter()
            .map(|b| (b.name.to_string(), b.program)),
    );
    let mut stats = DiffStats::default();
    for &p in processors {
        let cfg = DiffConfig {
            processors: p,
            ..DiffConfig::default()
        };
        let plan: SweepPlan<&Program> = programs
            .iter()
            .map(|(name, program)| (format!("{name} at {p} processors"), program))
            .collect();
        let outcomes = plan.run(&SweepExec::new(), |program| check_program(program, &cfg));
        for ((name, _), outcome) in programs.iter().zip(outcomes) {
            match outcome {
                Ok(s) => stats.merge(&s),
                Err(failure) => panic!("{name} at {p} processors: {failure}"),
            }
        }
    }
    stats
}

#[test]
fn thirty_three_processors_match_the_sequential_run() {
    let stats = check_wide(0..128, &[33]);
    assert!(stats.segments > 0);
    assert!(stats.violations > 0, "no violation was ever detected");
}

#[test]
#[ignore = "release-mode widening; run with --ignored"]
fn the_whole_corpus_matches_at_33_and_64_processors() {
    let stats = check_wide(0..1024, &[33, 64]);
    assert!(stats.violations > 0, "no violation was ever detected");
}
