//! Benchmarks of the sweep executor: the same work — a differential batch
//! of generated programs, and the FPPPP capacity-ladder sweep — measured
//! at `jobs = 1`, `jobs = 4`, and the machine's available parallelism.
//! The `jobs1` vs `jobs4`/`jobsN` pairs recorded in `BENCH_4.json` are
//! the sharding win; on a single-core container the pair ties (there is
//! nothing to shard onto) and the multi-core scaling shows in the CI
//! artifact instead.

use refidem_bench::microbench::Harness;
use refidem_benchmarks::suite::{fpppp, mgrid};
use refidem_core::label::{label_program, label_program_region};
use refidem_ir::ids::ProcId;
use refidem_specsim::sweep::{ladder_plan, SweepExec};
use refidem_specsim::{
    simulate_program, simulate_region, ExecMode, LoweredCache, ScratchPool, SimConfig,
};
use refidem_testkit::{run_suite_with, DiffConfig};
use std::hint::black_box;

/// The ladder the FPPPP sweep walks (the simulator_perf sweep ladder).
const SWEEP_LADDER: [usize; 7] = [1, 2, 4, 8, 16, 64, 256];

/// Differential-batch size per measurement (big enough that orchestration,
/// not startup, dominates).
const DIFF_SEEDS: u64 = 64;

fn jobs_variants() -> Vec<(String, SweepExec)> {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut variants = vec![
        ("jobs1".to_string(), SweepExec::sequential()),
        ("jobs4".to_string(), SweepExec::new().jobs(4)),
    ];
    if available != 1 && available != 4 {
        variants.push((format!("jobs{available}"), SweepExec::new().jobs(available)));
    }
    variants
}

/// `cfg` as the pooled rows run it, or with a fresh scratch pool for the
/// per-call rows (each simulation then allocates fresh scratch). Both
/// clone, so the rows differ only in the pool.
fn per_call_scratch(cfg: &SimConfig, percall: bool) -> SimConfig {
    if percall {
        cfg.clone().scratch(ScratchPool::fresh())
    } else {
        cfg.clone()
    }
}

fn main() {
    let mut c = Harness::default().sample_size(10);

    let mut group = c.benchmark_group("sweep_differential");
    for (name, exec) in jobs_variants() {
        let cfg = DiffConfig::default();
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_suite_with(0..DIFF_SEEDS, &cfg, &exec);
                assert!(report.failures.is_empty());
                black_box(report.stats.runs)
            })
        });
    }
    group.finish();

    let bench = fpppp::twldrv_do100();
    let labeled = label_program_region(&bench.program, &bench.region).expect("analyzes");
    let mut group = c.benchmark_group("sweep_fpppp_ladder");
    for (name, exec) in jobs_variants() {
        group.bench_function(name, |b| {
            b.iter(|| {
                // One shared fresh cache per sweep, as the compile-once
                // engine intends; workers race on the first compile and
                // hit thereafter.
                let base = SimConfig::default().cache(LoweredCache::fresh());
                let plan = ladder_plan(&base, &SWEEP_LADDER, &[ExecMode::Hose, ExecMode::Case]);
                let cycles: u64 = plan
                    .run(&exec, |(cfg, mode)| {
                        simulate_region(black_box(&bench.program), &labeled, *mode, cfg)
                            .expect("runs")
                            .report
                            .region_cycles
                    })
                    .iter()
                    .sum();
                black_box(cycles)
            })
        });
    }
    group.finish();

    // The pooled-scratch win: the same capacity ladder with the engine
    // scratch (dependence masks + per-processor buffer pool) reused
    // across every simulation of the sweep vs reallocated per call (a
    // fresh pool per call). The sweep runs sequentially so the calling
    // thread's scratch pool is the one being exercised.
    let mut group = c.benchmark_group("scratch_pool");
    for (name, percall) in [("ladder_pooled", false), ("ladder_percall", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let base = SimConfig::default().cache(LoweredCache::fresh());
                let plan = ladder_plan(&base, &SWEEP_LADDER, &[ExecMode::Hose, ExecMode::Case]);
                let cycles: u64 = plan
                    .run(&SweepExec::sequential(), |(cfg, mode)| {
                        let cfg = per_call_scratch(cfg, percall);
                        simulate_region(black_box(&bench.program), &labeled, *mode, &cfg)
                            .expect("runs")
                            .report
                            .region_cycles
                    })
                    .iter()
                    .sum();
                black_box(cycles)
            })
        });
    }
    group.finish();

    // The satellite A/B: the same pooled-vs-percall pair, but *sharded* —
    // every `SweepPlan::run` spawns fresh scoped worker threads, which is
    // exactly the churn that defeated the old thread-local scratch pool.
    // With the shared `ScratchPool` handle the pooled variant keeps its
    // win across sweeps because workers of run N+1 take the scratch that
    // run N's (long dead) workers parked.
    let mut group = c.benchmark_group("scratch_pool_sharded");
    for (name, percall) in [("ladder_pooled", false), ("ladder_percall", true)] {
        let shared_pool = ScratchPool::fresh();
        group.bench_function(name, |b| {
            b.iter(|| {
                let base = SimConfig::default()
                    .cache(LoweredCache::fresh())
                    .scratch(shared_pool.clone());
                let plan = ladder_plan(&base, &SWEEP_LADDER, &[ExecMode::Hose, ExecMode::Case]);
                let cycles: u64 = plan
                    .run(&SweepExec::new().jobs(2), |(cfg, mode)| {
                        let cfg = per_call_scratch(cfg, percall);
                        simulate_region(black_box(&bench.program), &labeled, *mode, &cfg)
                            .expect("runs")
                            .report
                            .region_cycles
                    })
                    .iter()
                    .sum();
                black_box(cycles)
            })
        });
    }
    group.finish();

    // Whole-program simulation: the multi-region MGRID benchmark (serial
    // glue + four regions) end to end through the program pipeline.
    let mgrid_bench = mgrid::benchmark();
    let mgrid_labeled = label_program(&mgrid_bench.program, ProcId::from_index(0)).expect("labels");
    let mut group = c.benchmark_group("program_sim");
    for (name, mode) in [
        ("mgrid_hose", ExecMode::Hose),
        ("mgrid_case", ExecMode::Case),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = simulate_program(
                    &mgrid_bench.program,
                    &mgrid_labeled,
                    mode,
                    &SimConfig::default(),
                )
                .expect("runs");
                black_box(out.report.total_cycles)
            })
        });
    }
    group.finish();

    c.finish();
}
