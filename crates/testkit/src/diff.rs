//! The differential runner: whole-program sequential vs HOSE vs CASE,
//! across a ladder of speculative-storage capacities.
//!
//! For one program the runner (1) discovers and labels **every** region of
//! the schedule with Algorithm 2 (`label_program`), (2) interprets the
//! whole procedure sequentially **on the tree-walking oracle backend** to
//! obtain the ground truth memory image, and (3) for every capacity in the
//! ladder and both execution models, simulates the whole program
//! (`simulate_program`, on the lowered bytecode backend by default, so
//! every check is also a lowered-vs-oracle differential) — serial chunks
//! sequentially, every region speculatively — and asserts:
//!
//! * **byte-exact equivalence** — the final non-speculative memory of the
//!   *whole program* equals the sequential image bit for bit
//!   (`f64::to_bits`), excluding only locations of region-private
//!   variables, which are dead at region exit and legitimately live in
//!   per-segment storage under CASE (Lemmas 1–2). A variable read by a
//!   later serial chunk or region is live-out and therefore never
//!   classified private, so the exclusion stays sound across the schedule;
//! * **capacity invariants** — per region: the peak speculative-storage
//!   occupancy never exceeds the configured capacity, and every segment
//!   commits exactly once;
//! * **rollback sanity** — per region: one processor can never observe a
//!   violation, and a run without violations performs no rollbacks;
//! * **livelock guard** — per region: no segment restarts more often than
//!   the run's roll-backs plus overflow stalls can pay for
//!   (`max_segment_restarts <= rollbacks + overflow_stalls`, and 0 when
//!   the run was clean);
//! * **forward progress** — the simulation terminates without deadlock and
//!   within the statement budget, even at capacity 1 (livelock would
//!   surface as `SimError::Deadlock` or `StatementBudgetExceeded`).
//!
//! The runner optionally *tampers* with the labeling before simulating —
//! promoting speculative references to idempotent, which is unsound — to
//! prove that the harness actually detects bad labels (and to hand the
//! shrinker something to minimize).
//!
//! The capacity ladder is a sweep, and sweeps are compile-once: every
//! simulation of one program pulls the region's lowered bytecode from one
//! shared [`LoweredCache`](refidem_ir::lowered::LoweredCache), so a
//! ladder lowers each region exactly once no matter how many capacity
//! points and modes it visits. Analysis is *analyze-once* the same way:
//! the labeling comes from one
//! [`AnalysisCache`](refidem_specsim::AnalysisCache), is differentially
//! checked bit-for-bit against a direct `label_program`, and its
//! hit/miss/eviction tally is checked on its own terms (a fresh cache
//! misses once per region, then hits once per region, and never evicts).
//! The runner deliberately uses *fresh* caches per check rather than the
//! process-global ones: generated (and shrunk) programs are one-shot, so
//! global entries could never be hit again and would accumulate for the
//! life of the process.
//!
//! The ladder itself is a
//! [`SweepPlan`](refidem_specsim::sweep::SweepPlan) built by
//! [`ladder_plan`] and executed with
//! [`SweepExec::sequential`] — one check stays on one thread because the
//! *batch* axis (many programs, see
//! [`run_suite`](crate::run_suite)) is where the worker pool shards; a
//! sequential inner ladder composes with a parallel outer batch without
//! oversubscribing the machine. [`check_program_with`] accepts another
//! executor for standalone single-program checks.

use crate::gen::{GeneratedProgram, ProgramSpec};
use refidem_core::label::{IdemCategory, Label, LabeledProgram, Labeling};
use refidem_ir::ids::{ProcId, RefId};
use refidem_ir::lowered::ExecBackend;
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::program::Program;
use refidem_ir::sites::AccessKind;
use refidem_specsim::sweep::{ladder_plan, SweepExec};
use refidem_specsim::{
    ExecMode, FaultPlan, Governor, ProgramReport, SimConfig, SimError, SpecRuntime,
};

/// The speculative-storage capacities every program is exercised at —
/// capacity 1 forces overflow serialization on almost every program, 256
/// exceeds every generated working set.
pub const CAPACITY_LADDER: [usize; 5] = [1, 2, 4, 16, 256];

/// Label corruption applied before simulating (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// Promote every speculative read to idempotent (unsound: premature
    /// reads are no longer tracked, so flow violations go undetected).
    PromoteSpeculativeReads,
    /// Promote every speculative write to idempotent (unsound: the write
    /// reaches non-speculative storage before its turn and is not rolled
    /// back).
    PromoteSpeculativeWrites,
}

/// Applies a [`Tamper`] to a labeling. Returns how many labels changed.
pub fn tamper_labeling(labeling: &mut Labeling, tamper: Tamper) -> usize {
    let wanted = match tamper {
        Tamper::PromoteSpeculativeReads => AccessKind::Read,
        Tamper::PromoteSpeculativeWrites => AccessKind::Write,
    };
    let victims: Vec<RefId> = labeling
        .iter()
        .filter(|(id, l)| *l == Label::Speculative && labeling.access(*id) == Some(wanted))
        .map(|(id, _)| id)
        .collect();
    for id in &victims {
        labeling.override_label(*id, Label::Idempotent(IdemCategory::SharedDependent));
    }
    victims.len()
}

/// Configuration of one differential check.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Processor count of the simulated machine.
    pub processors: usize,
    /// Capacity ladder.
    pub capacities: Vec<usize>,
    /// Execution models to differentiate against the sequential truth.
    pub modes: Vec<ExecMode>,
    /// Optional label corruption (fault injection).
    pub tamper: Option<Tamper>,
    /// Execution backend the speculative simulations run on. The sequential
    /// ground truth always runs on the tree-walking oracle, so with the
    /// default (`Compiled` — fused region bodies, plain serial spans) every
    /// check also differentially tests the compiled engine against the
    /// oracle.
    pub backend: ExecBackend,
    /// Runtime the speculative simulations execute on: the single-thread
    /// cycle simulator (default) or the real-thread runtime
    /// ([`SpecRuntime::Threads`]), where `processors` becomes the number
    /// of concurrent segment threads. The sequential ground truth always
    /// runs on the simulator, so a `Threads` check differentially tests
    /// real concurrency against the sequential semantics.
    pub runtime: SpecRuntime,
    /// Deterministic fault-injection schedule threaded into every
    /// speculative simulation (never into the sequential ground truth).
    /// A non-empty plan relaxes the clean-run invariants — injected
    /// misspeculation legitimately produces rollbacks without real
    /// violations — while byte-exactness still binds on every run that
    /// completes.
    pub faults: FaultPlan,
    /// Degradation budgets for the speculative simulations. Runs that
    /// exhaust a budget re-execute the region serially and count into
    /// [`DiffStats::degraded_regions`].
    pub governor: Governor,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            processors: 4,
            capacities: CAPACITY_LADDER.to_vec(),
            modes: vec![ExecMode::Hose, ExecMode::Case],
            tamper: None,
            backend: ExecBackend::default(),
            runtime: SpecRuntime::Simulated,
            faults: FaultPlan::default(),
            governor: Governor::default(),
        }
    }
}

impl DiffConfig {
    /// A configuration that only runs CASE (the model label corruption can
    /// affect — HOSE ignores labels entirely).
    pub fn case_only() -> Self {
        DiffConfig {
            modes: vec![ExecMode::Case],
            ..Default::default()
        }
    }
}

/// Why a differential check failed.
#[derive(Clone, Debug)]
pub enum DiffFailure {
    /// The region could not be analyzed or labeled.
    Analysis(String),
    /// The sequential ground-truth interpretation failed.
    Sequential(String),
    /// A simulation errored (deadlock, budget, execution error).
    Sim {
        /// Execution model of the failing run.
        mode: ExecMode,
        /// Capacity of the failing run.
        capacity: usize,
        /// Error rendering.
        error: String,
    },
    /// Final memory differs from the sequential image.
    Divergence {
        /// Execution model of the failing run.
        mode: ExecMode,
        /// Capacity of the failing run.
        capacity: usize,
        /// Differing `(address, sequential, simulated)` triples (first 8).
        diffs: Vec<(Addr, f64, f64)>,
        /// Total number of differing addresses.
        count: usize,
    },
    /// A structural invariant of the simulator was violated.
    Invariant {
        /// Execution model of the failing run.
        mode: ExecMode,
        /// Capacity of the failing run.
        capacity: usize,
        /// Label of the region whose report broke the invariant.
        region: String,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffFailure::Analysis(e) => write!(f, "analysis failed: {e}"),
            DiffFailure::Sequential(e) => write!(f, "sequential run failed: {e}"),
            DiffFailure::Sim {
                mode,
                capacity,
                error,
            } => write!(f, "{mode} @ capacity {capacity} failed: {error}"),
            DiffFailure::Divergence {
                mode,
                capacity,
                diffs,
                count,
            } => write!(
                f,
                "{mode} @ capacity {capacity} diverged at {count} addresses (first: {diffs:?})"
            ),
            DiffFailure::Invariant {
                mode,
                capacity,
                region,
                what,
            } => write!(
                f,
                "{mode} @ capacity {capacity}, region `{region}` broke invariant: {what}"
            ),
        }
    }
}

/// Aggregate statistics of the runs a differential check performed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Whole-program simulations performed (ladder points × modes).
    pub runs: usize,
    /// Regions simulated, summed over runs (0 for serial-only programs).
    pub regions: usize,
    /// Segments executed, summed over runs and regions.
    pub segments: usize,
    /// Violations observed, summed over runs and regions.
    pub violations: u64,
    /// Rollbacks observed, summed over runs and regions.
    pub rollbacks: u64,
    /// Overflow stalls observed, summed over runs and regions.
    pub overflow_stalls: u64,
    /// Highest speculative-storage peak occupancy over all runs.
    pub max_peak_occupancy: usize,
    /// Highest per-segment restart count over all runs (livelock guard).
    pub max_segment_restarts: u32,
    /// Labels changed by tampering (0 when not tampering).
    pub tampered_labels: usize,
    /// Regions that exhausted a degradation budget and transparently fell
    /// back to sequential re-execution (still byte-exact), summed over
    /// runs.
    pub degraded_regions: usize,
    /// Ladder points that ended in an *injected* terminal failure (a
    /// scheduled worker panic or worker error) instead of a report — the
    /// structured-error path working as intended, not a defect.
    pub injected_failures: usize,
}

impl DiffStats {
    /// Merges another check's statistics into this one.
    pub fn merge(&mut self, other: &DiffStats) {
        self.runs += other.runs;
        self.regions += other.regions;
        self.segments += other.segments;
        self.violations += other.violations;
        self.rollbacks += other.rollbacks;
        self.overflow_stalls += other.overflow_stalls;
        self.max_peak_occupancy = self.max_peak_occupancy.max(other.max_peak_occupancy);
        self.max_segment_restarts = self.max_segment_restarts.max(other.max_segment_restarts);
        self.tampered_labels += other.tampered_labels;
        self.degraded_regions += other.degraded_regions;
        self.injected_failures += other.injected_failures;
    }
}

/// Byte-exact memory comparison, excluding the address ranges of variables
/// the region classifies as private. Returns differing triples.
fn byte_exact_diff(seq: &Memory, sim: &Memory, ignored: &[(u64, u64)]) -> Vec<(Addr, f64, f64)> {
    let mut out = Vec::new();
    for word in 0..seq.len() as u64 {
        let addr = Addr(word);
        if ignored.iter().any(|(lo, hi)| word >= *lo && word < *hi) {
            continue;
        }
        let a = seq.load(addr);
        let b = sim.load(addr);
        if a.to_bits() != b.to_bits() {
            out.push((addr, a, b));
        }
    }
    out
}

/// Runs the full whole-program differential check: every discovered
/// region of procedure 0 is simulated speculatively, the serial chunks
/// sequentially. The capacity-ladder sweep runs sequentially on the
/// calling thread (see the module docs for why); [`check_program_with`]
/// takes an explicit executor.
pub fn check_program(program: &Program, cfg: &DiffConfig) -> Result<DiffStats, DiffFailure> {
    check_program_with(program, cfg, &SweepExec::sequential())
}

/// [`check_program`] with the (capacity × mode) ladder executed on an
/// explicit [`SweepExec`]. The merge is ordered, so the returned stats —
/// and which failure is reported when several points fail — are identical
/// at any worker count.
pub fn check_program_with(
    program: &Program,
    cfg: &DiffConfig,
    exec: &SweepExec,
) -> Result<DiffStats, DiffFailure> {
    // Label through a fresh AnalysisCache, and differentially check the
    // cache itself: the cached labeling must be bit-identical to a direct
    // `label_program`, and the tally is checked on its own terms (a fresh
    // cache misses exactly once per region, then hits exactly once per
    // region — never evicting). Running this inside the differential
    // runner means every corpus program exercises the cached-vs-fresh
    // equivalence, irregular and WHILE fallbacks included.
    let analysis_cache = refidem_specsim::AnalysisCache::fresh();
    let (mut labeled, tally) = analysis_cache
        .label_program_cached(program, ProcId::from_index(0))
        .map_err(|e| DiffFailure::Analysis(format!("{e:?}")))?;
    let fresh: LabeledProgram = refidem_core::label::label_program(program, ProcId::from_index(0))
        .map_err(|e| DiffFailure::Analysis(format!("{e:?}")))?;
    let cache_check = |cond: bool, what: &str| {
        if cond {
            Ok(())
        } else {
            Err(DiffFailure::Analysis(format!("analysis cache: {what}")))
        }
    };
    cache_check(
        labeled.regions.len() == fresh.regions.len(),
        "cached and fresh labelings disagree on the region count",
    )?;
    for (c, f) in labeled.regions.iter().zip(&fresh.regions) {
        cache_check(
            c.labeling == f.labeling,
            &format!(
                "cached labeling of `{}` differs from fresh",
                c.analysis.spec.loop_label
            ),
        )?;
        cache_check(
            c.analysis.deps == f.analysis.deps,
            &format!(
                "cached dependences of `{}` differ from fresh",
                c.analysis.spec.loop_label
            ),
        )?;
        cache_check(
            c.analysis.fully_independent == f.analysis.fully_independent,
            "cached independence flag differs from fresh",
        )?;
    }
    let n = labeled.regions.len() as u64;
    cache_check(
        tally
            == refidem_specsim::AnalysisTally {
                hits: 0,
                misses: n,
                evictions: 0,
            },
        &format!("fresh-cache tally {tally:?}, expected {n} misses"),
    )?;
    let (_, again) = analysis_cache
        .label_program_cached(program, ProcId::from_index(0))
        .map_err(|e| DiffFailure::Analysis(format!("{e:?}")))?;
    cache_check(
        again
            == refidem_specsim::AnalysisTally {
                hits: n,
                misses: 0,
                evictions: 0,
            },
        &format!("re-label tally {again:?}, expected {n} hits"),
    )?;
    let mut stats = DiffStats::default();
    if let Some(tamper) = cfg.tamper {
        for region in &mut labeled.regions {
            stats.tampered_labels += tamper_labeling(&mut region.labeling, tamper);
        }
    }

    // Ground truth: one sequential interpretation of the whole program
    // (independent of capacity and mode — the SimConfig only affects
    // timing, not values). It always runs on the tree-walking oracle
    // backend, so the simulations (compiled by default) are differentially
    // checked against the oracle semantics. A fresh cache per check:
    // compile-once across the ladder below, but nothing outlives the
    // (one-shot, generated) program being checked.
    let base_cfg = SimConfig::default()
        .processors(cfg.processors)
        .backend(cfg.backend)
        .runtime(cfg.runtime)
        .faults(cfg.faults.clone())
        .governor(cfg.governor)
        .cache(refidem_ir::lowered::LoweredCache::fresh())
        .analysis_cache(analysis_cache);
    let seq_cfg = base_cfg.clone().oracle();
    let seq = refidem_specsim::run_program_sequential(program, &labeled, &seq_cfg)
        .map_err(|e| DiffFailure::Sequential(e.to_string()))?;

    // Private variables live in per-segment storage under CASE and are
    // dead at region exit: exclude their locations, as Lemma 2's statement
    // does. The exclusion is the union over every region — a variable that
    // later serial code or a later region reads is live-out of the earlier
    // region and therefore never classified private there, so the union
    // only ever hides locations that are dead when last touched
    // speculatively.
    let proc = &program.procedures[0];
    let layout = Layout::new(&proc.vars);
    let ignored: Vec<_> = labeled
        .regions
        .iter()
        .flat_map(|r| r.private_ranges(&proc.vars, &layout))
        .collect();

    // The (capacity × mode) ladder as a declarative sweep plan; every
    // point is an independent simulate-and-check job against the shared
    // sequential image. `run_fallible` short-circuits at the plan-order
    // first failing point — on the default sequential executor nothing
    // runs past a failure, which keeps the shrinker's failing-candidate
    // probes cheap.
    let plan = ladder_plan(&base_cfg, &cfg.capacities, &cfg.modes);
    let reports = plan.run_fallible(exec, |(sim_cfg, mode)| {
        check_point(
            program,
            &labeled,
            &seq.memory,
            &ignored,
            cfg,
            sim_cfg,
            *mode,
        )
    })?;
    for outcome in reports {
        stats.runs += 1;
        let r = match outcome {
            PointOutcome::Report(r) => r,
            PointOutcome::InjectedFailure => {
                stats.injected_failures += 1;
                continue;
            }
        };
        stats.regions += r.regions.len();
        for region in &r.regions {
            stats.segments += region.segments;
            stats.violations += region.violations;
            stats.rollbacks += region.rollbacks;
            stats.overflow_stalls += region.overflow_stalls;
            stats.max_peak_occupancy = stats.max_peak_occupancy.max(region.spec_peak_occupancy);
            stats.max_segment_restarts =
                stats.max_segment_restarts.max(region.max_segment_restarts);
            if region.degraded.is_some() {
                stats.degraded_regions += 1;
            }
        }
    }
    Ok(stats)
}

/// What one ladder point produced: a report to check and count, or a
/// terminal failure the fault plan *scheduled* (which the check accepts as
/// the structured-error path doing its job).
enum PointOutcome {
    Report(ProgramReport),
    InjectedFailure,
}

/// One ladder point: simulate the whole program under `(sim_cfg, mode)`,
/// compare the final memory byte-exactly against the sequential image and
/// check the structural invariants of every region's report. Returns the
/// program report on success.
fn check_point(
    program: &Program,
    labeled: &LabeledProgram,
    seq_memory: &Memory,
    ignored: &[(u64, u64)],
    cfg: &DiffConfig,
    sim_cfg: &SimConfig,
    mode: ExecMode,
) -> Result<PointOutcome, DiffFailure> {
    let capacity = sim_cfg.spec_capacity;
    let out = match refidem_specsim::simulate_program(program, labeled, mode, sim_cfg) {
        Ok(out) => out,
        // A terminal failure the fault plan scheduled is the expected
        // outcome of that schedule, not a defect — but only the exact
        // error kind the plan can produce is accepted; anything else
        // still fails the check.
        Err(SimError::WorkerPanic { .. }) if !cfg.faults.panic_segments.is_empty() => {
            return Ok(PointOutcome::InjectedFailure);
        }
        Err(SimError::Injected { .. }) if !cfg.faults.error_segments.is_empty() => {
            return Ok(PointOutcome::InjectedFailure);
        }
        Err(e) => {
            return Err(DiffFailure::Sim {
                mode,
                capacity,
                error: e.to_string(),
            });
        }
    };
    let diffs = byte_exact_diff(seq_memory, &out.memory, ignored);
    if !diffs.is_empty() {
        let count = diffs.len();
        return Err(DiffFailure::Divergence {
            mode,
            capacity,
            diffs: diffs.into_iter().take(8).collect(),
            count,
        });
    }
    // The whole-program cycle accounting must be internally consistent.
    let report = &out.report;
    if report.total_cycles != report.serial_cycles + report.parallel_cycles() {
        return Err(DiffFailure::Invariant {
            mode,
            capacity,
            region: "<program>".to_string(),
            what: format!(
                "total {} != serial {} + parallel {}",
                report.total_cycles,
                report.serial_cycles,
                report.parallel_cycles()
            ),
        });
    }
    for (labeled_region, r) in labeled.regions.iter().zip(&report.regions) {
        let region = labeled_region.analysis.spec.loop_label.clone();
        let invariant = |cond: bool, what: &str| {
            if cond {
                Ok(())
            } else {
                Err(DiffFailure::Invariant {
                    mode,
                    capacity,
                    region: region.clone(),
                    what: what.to_string(),
                })
            }
        };
        invariant(
            r.spec_peak_occupancy <= capacity,
            &format!(
                "peak occupancy {} exceeds capacity {capacity}",
                r.spec_peak_occupancy
            ),
        )?;
        invariant(
            r.commits as usize == r.segments,
            &format!("{} commits for {} segments", r.commits, r.segments),
        )?;
        // Livelock guard: every restart is paid for by a roll-back or an
        // overflow stall — a segment restarting more often than that
        // would spin without cause.
        invariant(
            (r.max_segment_restarts as u64) <= r.rollbacks + r.overflow_stalls,
            &format!(
                "{} restarts of one segment, but only {} rollbacks + {} overflow stalls",
                r.max_segment_restarts, r.rollbacks, r.overflow_stalls
            ),
        )?;
        if cfg.processors == 1 {
            // Injections never touch the head segment, and on one
            // processor every segment runs as the head — so this binds
            // even under a fault plan.
            invariant(r.violations == 0, "violation on one processor")?;
        }
        // A degraded region re-executed sequentially: its report carries
        // serial cycles and zero speculation statistics, so the
        // runtime-specific rules below (including the Threads zero-cycle
        // rule) do not apply. Injected misspeculation likewise produces
        // rollbacks without real violations, so the clean-run rules only
        // bind on an empty fault plan.
        let faulty = !cfg.faults.is_empty();
        match cfg.runtime {
            SpecRuntime::Simulated => {
                if !faulty && r.degraded.is_none() && r.violations == 0 {
                    invariant(
                        r.rollbacks == 0,
                        &format!("{} rollbacks without a violation", r.rollbacks),
                    )?;
                    if r.overflow_stalls == 0 {
                        invariant(
                            r.max_segment_restarts == 0,
                            &format!("{} restarts on a clean run", r.max_segment_restarts),
                        )?;
                    }
                }
            }
            SpecRuntime::Threads => {
                // Real time reports no simulated cycles (except for the
                // serial fallback, which is cycle-accounted).
                if r.degraded.is_none() {
                    invariant(
                        r.region_cycles == 0,
                        &format!(
                            "{} simulated cycles from the real-thread runtime",
                            r.region_cycles
                        ),
                    )?;
                }
                // Under real concurrency an overflow discard can cascade
                // roll-backs to younger readers without a violation ever
                // being flagged, so the clean-run rule only binds when
                // neither violations nor overflows occurred.
                if !faulty && r.degraded.is_none() && r.violations == 0 && r.overflow_stalls == 0 {
                    invariant(
                        r.rollbacks == 0,
                        &format!("{} rollbacks on a clean run", r.rollbacks),
                    )?;
                    invariant(
                        r.max_segment_restarts == 0,
                        &format!("{} restarts on a clean run", r.max_segment_restarts),
                    )?;
                }
            }
        }
    }
    Ok(PointOutcome::Report(out.report))
}

/// Differential check of a generated program.
pub fn check_generated(g: &GeneratedProgram, cfg: &DiffConfig) -> Result<DiffStats, DiffFailure> {
    check_program(&g.program, cfg)
}

/// [`check_generated`] with the ladder on an explicit executor.
pub fn check_generated_with(
    g: &GeneratedProgram,
    cfg: &DiffConfig,
    exec: &SweepExec,
) -> Result<DiffStats, DiffFailure> {
    check_program_with(&g.program, cfg, exec)
}

/// Differential check of a spec (builds it first). This is the predicate
/// the shrinker re-evaluates on every candidate.
pub fn check_spec(spec: &ProgramSpec, cfg: &DiffConfig) -> Result<DiffStats, DiffFailure> {
    check_program(&spec.build().program, cfg)
}

/// [`check_spec`] with the ladder on an explicit executor.
pub fn check_spec_with(
    spec: &ProgramSpec,
    cfg: &DiffConfig,
    exec: &SweepExec,
) -> Result<DiffStats, DiffFailure> {
    check_program_with(&spec.build().program, cfg, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn untampered_generated_programs_pass() {
        for seed in 0..20 {
            let g = generate(seed);
            let stats = check_generated(&g, &DiffConfig::default())
                .unwrap_or_else(|f| panic!("seed {seed} failed the differential check: {f}"));
            assert_eq!(stats.runs, CAPACITY_LADDER.len() * 2);
            assert_eq!(stats.regions, g.regions.len() * stats.runs);
            if !g.regions.is_empty() {
                assert!(stats.segments > 0);
            }
            assert_eq!(stats.tampered_labels, 0);
        }
    }

    #[test]
    fn capacity_one_is_always_respected() {
        let cfg = DiffConfig {
            capacities: vec![1],
            ..Default::default()
        };
        for seed in 0..20 {
            let g = generate(seed);
            let stats = check_generated(&g, &cfg).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            assert!(stats.max_peak_occupancy <= 1);
        }
    }

    #[test]
    fn single_processor_differential_is_clean() {
        let cfg = DiffConfig {
            processors: 1,
            ..Default::default()
        };
        for seed in 0..10 {
            let g = generate(seed);
            let stats = check_generated(&g, &cfg).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            assert_eq!(stats.violations, 0);
            assert_eq!(stats.rollbacks, 0);
        }
    }
}
