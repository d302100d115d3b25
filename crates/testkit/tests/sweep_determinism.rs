//! Determinism regression: the same sweep plan and the same differential
//! batch must produce identical output at any worker count — the ordered
//! merge is what makes sharding transparent. Cache hit/miss counters are
//! the one exception (compile races make them scheduling-dependent), so
//! they are compared on their own terms, as in `backend_differential`.

use refidem_benchmarks::suite::{fpppp, mgrid};
use refidem_core::label::label_program_region;
use refidem_specsim::sweep::{ladder_plan, SweepExec};
use refidem_specsim::{simulate_region, ExecMode, LoweredCache, SimConfig, SimReport};
use refidem_testkit::{run_suite_with, DiffConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn differential_batch_merges_identically_at_any_worker_count() {
    let cfg = DiffConfig::default();
    let reports: Vec<_> = WORKER_COUNTS
        .iter()
        .map(|&jobs| run_suite_with(0..64, &cfg, &SweepExec::new().jobs(jobs)))
        .collect();
    let baseline = &reports[0];
    assert_eq!(baseline.programs, 64);
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);
    for (i, report) in reports.iter().enumerate().skip(1) {
        let jobs = WORKER_COUNTS[i];
        assert_eq!(
            baseline.stats, report.stats,
            "merged DiffStats diverged at jobs = {jobs}"
        );
        assert_eq!(
            baseline.distinct, report.distinct,
            "distinct count diverged at jobs = {jobs}"
        );
        assert_eq!(
            baseline.failures.len(),
            report.failures.len(),
            "failure count diverged at jobs = {jobs}"
        );
    }
}

/// Zeroes the compilation-pipeline counters — the only [`SimReport`]
/// fields whose values depend on cross-thread scheduling.
fn without_cache_counters(report: &SimReport) -> SimReport {
    let mut r = report.clone();
    r.lowering_cache_hits = 0;
    r.lowering_cache_misses = 0;
    r.lowering_cache_evictions = 0;
    r
}

#[test]
fn ladder_sweep_reports_are_identical_at_any_worker_count() {
    let benches = [fpppp::twldrv_do100(), mgrid::resid_do600()];
    for bench in &benches {
        let labeled = label_program_region(&bench.program, &bench.region).expect("analyzes");
        let mut baseline: Option<Vec<SimReport>> = None;
        for &jobs in &WORKER_COUNTS {
            // A fresh cache per worker-count run: every run pays the same
            // compile pattern and shares nothing with the previous one.
            let base = SimConfig::default().cache(LoweredCache::fresh());
            let plan = ladder_plan(&base, &[1, 4, 16, 256], &[ExecMode::Hose, ExecMode::Case]);
            let reports = plan.run(&SweepExec::new().jobs(jobs), |(cfg, mode)| {
                let out = simulate_region(&bench.program, &labeled, *mode, cfg).expect("simulates");
                // Cache counters on their own terms: every lowered run
                // makes between one and three queries (prologue, region
                // body, epilogue), hit or miss.
                let queries = out.report.lowering_cache_hits + out.report.lowering_cache_misses;
                assert!(
                    (1..=3).contains(&queries),
                    "{}: {queries} cache queries at jobs = {jobs}",
                    bench.name
                );
                without_cache_counters(&out.report)
            });
            match &baseline {
                None => baseline = Some(reports),
                Some(expected) => assert_eq!(
                    expected, &reports,
                    "{}: ladder reports diverged at jobs = {jobs}",
                    bench.name
                ),
            }
        }
    }
}
