//! Chaos table: the benchmark suite under seeded fault schedules.
//!
//! The figures all report the happy path. This table reports the
//! robustness contract on the same 14 benchmarks: every program runs
//! under `--schedules` distinct [`FaultPlan::chaotic`] schedules — forced
//! dependence violations, spurious squashes, forced buffer overflows, and
//! on some seeds an injected worker panic or error — on both runtimes and
//! both execution models, governed by budgets small enough that hot
//! schedules degrade regions to the recorded serial fallback. Every run
//! must end **byte-exact** against the sequential oracle (private
//! locations excluded, as Lemma 2 states) or in the **clean structured
//! error** its schedule injected; anything else is a divergence, and the
//! `chaos` binary exits nonzero when the table contains one.
//!
//! Schedule seeds are shared across benchmarks (seed `s` means the same
//! fault mix everywhere), so a row is reproducible from the benchmark
//! name and the schedule count alone.

use refidem_benchmarks::all_benchmarks;
use refidem_core::label::{label_program, LabeledProgram};
use refidem_ir::ids::ProcId;
use refidem_ir::memory::{Layout, Memory};
use refidem_ir::program::Program;
use refidem_specsim::sweep::{SweepExec, SweepPlan};
use refidem_specsim::{
    run_program_sequential, simulate_program, ExecMode, FaultPlan, Governor, SimConfig, SimError,
    SpecRuntime,
};

/// Speculative-storage capacity of every chaos run: small enough that
/// forced overflows actually serialize, large enough that speculation
/// still happens between them.
pub const CHAOS_CAPACITY: usize = 4;

/// Segment-processor (and thread) count of every chaos run.
pub const CHAOS_PROCESSORS: usize = 4;

/// The governor chaos runs under: budgets small enough that hot schedules
/// trip them and exercise the serial fallback on real benchmark regions.
/// (Deliberately the same thresholds as the testkit chaos campaign.)
pub fn chaos_governor() -> Governor {
    Governor::default()
        .restart_budget(24)
        .rollback_budget(512)
        .livelock_budget(2_000_000)
}

/// One benchmark's aggregate over the whole chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Total runs: schedules × {HOSE, CASE} × {simulated, threads}.
    pub runs: usize,
    /// Runs that completed byte-exact against the sequential oracle.
    pub exact: usize,
    /// Runs that ended in the structured error their schedule injected
    /// (a worker panic or worker error surfacing as a typed `SimError`).
    pub injected_failures: usize,
    /// Regions that exhausted a governor budget and transparently
    /// re-executed sequentially (summed over all exact runs).
    pub degraded_regions: usize,
    /// Injected dependence violations observed (simulated runs report the
    /// exact count; threaded runs an interleaving-dependent one).
    pub violations: u64,
    /// Runs that diverged from the oracle or failed with an error their
    /// schedule did not inject — zero on a healthy runtime.
    pub divergences: usize,
}

/// Everything about one benchmark the per-schedule jobs share: the labels,
/// the oracle memory image, and the private-address exclusion ranges.
struct Prepared {
    name: String,
    program: Program,
    labeled: LabeledProgram,
    seq_memory: Memory,
    ignored: Vec<(u64, u64)>,
}

fn prepare(program: &Program, name: &str) -> Prepared {
    let labeled = label_program(program, ProcId::from_index(0)).expect("benchmark labels");
    let seq_cfg = SimConfig::default().oracle();
    let seq = run_program_sequential(program, &labeled, &seq_cfg).expect("sequential oracle");
    // Private variables live in per-segment storage under CASE and are
    // dead at region exit; exclude their locations exactly as the
    // differential suite does.
    let proc = &program.procedures[0];
    let layout = Layout::new(&proc.vars);
    let ignored: Vec<_> = labeled
        .regions
        .iter()
        .flat_map(|r| r.private_ranges(&proc.vars, &layout))
        .collect();
    Prepared {
        name: name.to_string(),
        program: program.clone(),
        labeled,
        seq_memory: seq.memory,
        ignored,
    }
}

/// Outcome of one (schedule, mode, runtime) run, folded into the row.
#[derive(Clone, Copy, Debug, Default)]
struct RunTally {
    exact: usize,
    injected: usize,
    degraded: usize,
    violations: u64,
    divergences: usize,
}

fn run_one(p: &Prepared, faults: &FaultPlan, mode: ExecMode, runtime: SpecRuntime) -> RunTally {
    let cfg = SimConfig::default()
        .processors(CHAOS_PROCESSORS)
        .capacity(CHAOS_CAPACITY)
        .runtime(runtime)
        .faults(faults.clone())
        .governor(chaos_governor());
    let mut t = RunTally::default();
    match simulate_program(&p.program, &p.labeled, mode, &cfg) {
        Ok(out) => {
            let exact = (0..p.seq_memory.len() as u64).all(|word| {
                p.ignored.iter().any(|(lo, hi)| word >= *lo && word < *hi)
                    || p.seq_memory.load(refidem_ir::memory::Addr(word)).to_bits()
                        == out.memory.load(refidem_ir::memory::Addr(word)).to_bits()
            });
            if exact {
                t.exact = 1;
            } else {
                t.divergences = 1;
            }
            t.degraded = out.report.degraded_regions().len();
            t.violations = out.report.regions.iter().map(|r| r.violations).sum::<u64>();
        }
        // Only the exact error kind the schedule can produce counts as the
        // structured-error path doing its job; anything else is a defect.
        Err(SimError::WorkerPanic { .. }) if !faults.panic_segments.is_empty() => t.injected = 1,
        Err(SimError::Injected { .. }) if !faults.error_segments.is_empty() => t.injected = 1,
        Err(_) => t.divergences = 1,
    }
    t
}

/// The full chaos table: every benchmark under `schedules` seeded fault
/// schedules, each run at HOSE and CASE on both the simulated and the
/// real-thread runtime. `perturb` additionally injects scheduler yields at
/// the mask-probe/commit/drain edges of the threaded runs (the simulated
/// engine takes no perturbation). The (benchmark × schedule) sweep shards
/// over `exec` with an ordered merge, so the table is byte-identical at
/// any worker count.
pub fn chaos_table(schedules: u64, perturb: bool, exec: &SweepExec) -> Vec<ChaosRow> {
    let benchmarks = all_benchmarks();
    let prepared: Vec<Prepared> = benchmarks
        .iter()
        .map(|b| prepare(&b.program, b.name))
        .collect();
    let plan: SweepPlan<(usize, u64)> = prepared
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            (0..schedules).map(move |seed| (format!("{} seed {seed}", p.name), (i, seed)))
        })
        .collect();
    let tallies = plan.run(exec, |&(i, seed)| {
        let p = &prepared[i];
        let mut faults = FaultPlan::chaotic(seed);
        if perturb {
            faults = faults.perturb_rate(200);
        }
        let mut merged = RunTally::default();
        for runtime in [SpecRuntime::Simulated, SpecRuntime::Threads] {
            for mode in [ExecMode::Hose, ExecMode::Case] {
                let t = run_one(p, &faults, mode, runtime);
                merged.exact += t.exact;
                merged.injected += t.injected;
                merged.degraded += t.degraded;
                merged.violations += t.violations;
                merged.divergences += t.divergences;
            }
        }
        (i, merged)
    });
    let mut rows: Vec<ChaosRow> = prepared
        .iter()
        .map(|p| ChaosRow {
            benchmark: p.name.clone(),
            runs: 0,
            exact: 0,
            injected_failures: 0,
            degraded_regions: 0,
            violations: 0,
            divergences: 0,
        })
        .collect();
    for (i, t) in tallies {
        let row = &mut rows[i];
        row.runs += 4;
        row.exact += t.exact;
        row.injected_failures += t.injected;
        row.degraded_regions += t.degraded;
        row.violations += t.violations;
        row.divergences += t.divergences;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_chaos_table_is_divergence_free() {
        let rows = chaos_table(4, false, &SweepExec::sequential());
        assert_eq!(rows.len(), 14, "one row per benchmark");
        for row in &rows {
            assert_eq!(row.runs, 16, "4 schedules x 2 modes x 2 runtimes");
            assert_eq!(
                row.divergences, 0,
                "{}: every run is exact or a scheduled injected failure",
                row.benchmark
            );
            assert_eq!(row.exact + row.injected_failures, row.runs);
        }
        assert!(
            rows.iter().map(|r| r.violations).sum::<u64>() > 0,
            "some schedule forces a violation somewhere"
        );
    }

    #[test]
    fn the_table_is_identical_at_any_worker_count() {
        let one = chaos_table(3, false, &SweepExec::sequential());
        let four = chaos_table(3, false, &SweepExec::new().jobs(4));
        let render = |rows: &[ChaosRow]| format!("{rows:?}");
        // Threaded-run tallies are interleaving-dependent, so compare the
        // deterministic shape: run/exact/injected/divergence counts come
        // from pure-function fault decisions on the simulated engine too,
        // but violations can differ across thread interleavings. Compare
        // everything except the violation column.
        let strip = |rows: &[ChaosRow]| {
            rows.iter()
                .map(|r| {
                    (
                        r.benchmark.clone(),
                        r.runs,
                        r.exact,
                        r.injected_failures,
                        r.divergences,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip(&one),
            strip(&four),
            "{} vs {}",
            render(&one),
            render(&four)
        );
    }
}
