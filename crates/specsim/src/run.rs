//! High-level simulation API.
//!
//! A simulation executes one procedure as a *schedule*: serial statement
//! spans run sequentially on one processor, and every scheduled region
//! runs speculatively under HOSE or CASE through the engine.
//! [`simulate_program`] executes a whole
//! [`LabeledProgram`] (discover →
//! label → schedule → **simulate**), reusing one pooled
//! [`EngineScratch`] across all regions and
//! reporting a per-region breakdown plus the serial/parallel split
//! ([`ProgramReport`]). [`simulate_region`] is the one-region special
//! case: a thin schedule whose serial spans are the statements around the
//! designated loop.
//!
//! The sequential baselines ([`run_sequential`] for one region,
//! [`run_program_sequential`] for a schedule) time the same code on one
//! processor with every access going to non-speculative storage — the
//! denominator of the speedups the paper reports, and the source of the
//! Amdahl-style *coverage* fraction of Section 6.

use crate::config::{SimConfig, SpecRuntime};
use crate::engine::{Engine, EngineScratch};
use crate::fault::DegradeReason;
use crate::report::{ProgramReport, SimReport, SpeedupComparison};
use refidem_core::label::{LabeledProgram, LabeledRegion};
use refidem_ir::cache::Tally;
use refidem_ir::exec::{AnyExec, CountingStore, DataStore, DynCounts, ExecError, PlainStore};
use refidem_ir::expr::Expr;
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::lowered::{ExecBackend, ExecBuffers, LowerKey, LowerUnit, LoweredProc};
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::program::{Procedure, Program};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_ir::var::VarTable;
use std::sync::Arc;

/// The execution model to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Hardware-only speculative execution (Definition 2): every reference
    /// is tracked in speculative storage.
    Hose,
    /// Compiler-assisted speculative execution (Definition 4): idempotent
    /// references bypass speculative storage.
    Case,
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Hose => write!(f, "HOSE"),
            ExecMode::Case => write!(f, "CASE"),
        }
    }
}

/// Errors produced by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The labeled region's procedure or loop could not be resolved.
    Region(String),
    /// The region loop's bounds are not compile-time constants (the
    /// simulator needs to enumerate the segments).
    RegionBoundsNotConstant,
    /// The underlying interpreter failed.
    Exec(ExecError),
    /// No segment could make progress (internal invariant violation).
    Deadlock,
    /// The configured statement budget was exhausted.
    StatementBudgetExceeded,
    /// One segment exhausted the governor's per-segment restart budget
    /// (degradable: the run-level pipeline re-executes the region
    /// sequentially).
    RestartBudget {
        /// The segment that kept restarting.
        segment: usize,
        /// Its restart count when the budget tripped.
        restarts: u32,
    },
    /// The region exhausted the governor's rollback budget (degradable).
    RollbackBudget {
        /// The region's rollback count when the budget tripped.
        rollbacks: u64,
    },
    /// The governor's livelock watchdog fired: too many statements
    /// executed without a segment committing (degradable).
    Livelock {
        /// Statements executed since the last commit.
        statements: u64,
    },
    /// A [`FaultPlan`](crate::FaultPlan) injected a typed failure at this
    /// segment (not degradable — an injected hard failure is meant to
    /// surface).
    Injected {
        /// The segment whose dispatch was failed.
        segment: usize,
    },
    /// A segment worker panicked; the runtime captured the panic instead
    /// of letting it propagate, preserving the worker's identity (not
    /// degradable).
    WorkerPanic {
        /// Index of the worker (processor) that panicked.
        thread: usize,
        /// The segment it was executing, if it had claimed one.
        segment: Option<usize>,
        /// Total segments of the region, for context.
        segments: usize,
        /// The panic payload, rendered.
        message: String,
    },
}

impl SimError {
    /// If this error is a tripped degradation budget, the corresponding
    /// [`DegradeReason`] — the run-level pipeline uses this to decide
    /// whether a failed region run may fall back to sequential
    /// re-execution. Injected failures, worker panics and the global
    /// statement budget are *not* degradable: they indicate a fault that
    /// is meant to surface, not bounded misspeculation.
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        match *self {
            SimError::RestartBudget { segment, restarts } => {
                Some(DegradeReason::RestartBudget { segment, restarts })
            }
            SimError::RollbackBudget { rollbacks } => {
                Some(DegradeReason::RollbackBudget { rollbacks })
            }
            SimError::Livelock { statements } => Some(DegradeReason::Livelock { statements }),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Region(s) => write!(f, "region error: {s}"),
            SimError::RegionBoundsNotConstant => {
                write!(f, "region loop bounds are not compile-time constants")
            }
            SimError::Exec(e) => write!(f, "execution error: {e}"),
            SimError::Deadlock => write!(f, "no segment can make progress"),
            SimError::StatementBudgetExceeded => write!(f, "statement budget exceeded"),
            SimError::RestartBudget { segment, restarts } => write!(
                f,
                "segment {segment} exhausted its restart budget ({restarts} restarts)"
            ),
            SimError::RollbackBudget { rollbacks } => write!(
                f,
                "region exhausted its rollback budget ({rollbacks} rollbacks)"
            ),
            SimError::Livelock { statements } => write!(
                f,
                "livelock watchdog: {statements} statements without a commit"
            ),
            SimError::Injected { segment } => write!(f, "injected fault at segment {segment}"),
            SimError::WorkerPanic {
                thread,
                segment,
                segments,
                message,
            } => match segment {
                Some(seg) => write!(
                    f,
                    "segment thread {thread} (segment {seg} of {segments}) panicked: {message}"
                ),
                None => write!(f, "segment thread {thread} panicked: {message}"),
            },
        }
    }
}

impl std::error::Error for SimError {}

/// The result of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Region execution statistics.
    pub report: SimReport,
    /// Final non-speculative memory (after the whole procedure ran).
    pub memory: Memory,
}

/// The result of the sequential baseline execution.
#[derive(Clone, Debug)]
pub struct SeqOutcome {
    /// Final memory.
    pub memory: Memory,
    /// Cycles spent in the region on one processor.
    pub region_cycles: u64,
    /// Dynamic per-site access counts inside the region.
    pub region_counts: DynCounts,
}

/// The result of one whole-program simulation ([`simulate_program`]).
#[derive(Clone, Debug)]
pub struct ProgramOutcome {
    /// Per-region statistics plus the serial/parallel cycle breakdown.
    pub report: ProgramReport,
    /// Final non-speculative memory (after the whole procedure ran).
    pub memory: Memory,
}

/// The result of the whole-program sequential baseline
/// ([`run_program_sequential`]).
#[derive(Clone, Debug)]
pub struct SeqProgramOutcome {
    /// Final memory.
    pub memory: Memory,
    /// Cycles spent in the serial spans on one processor.
    pub serial_cycles: u64,
    /// Cycles spent in each scheduled region, in schedule order.
    pub region_cycles: Vec<u64>,
    /// Dynamic per-site access counts inside each region, in schedule
    /// order.
    pub region_counts: Vec<DynCounts>,
    /// Whole-program cycles (`serial_cycles` + every region).
    pub total_cycles: u64,
}

impl SeqProgramOutcome {
    /// The Amdahl-style coverage fraction of Section 6: the share of the
    /// sequential execution spent inside speculative regions (0 for a
    /// serial-only program).
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.region_cycles.iter().sum::<u64>() as f64 / self.total_cycles as f64
        }
    }
}

/// Deterministic initial memory for a procedure: every word gets a small
/// pseudo-random value derived from its address, so executions are
/// reproducible without any setup code.
pub fn initial_memory(proc: &Procedure) -> Memory {
    initial_memory_with_layout(&Layout::new(&proc.vars))
}

/// [`initial_memory`] for a layout that has already been built.
pub fn initial_memory_with_layout(layout: &Layout) -> Memory {
    Memory::init_with(layout, |addr| {
        let h = addr.0.wrapping_mul(2654435761).wrapping_add(12345) % 1009;
        (h as f64) / 251.0
    })
}

/// Most segments a region may have.
const TRIP_LIMIT: usize = 10_000_000;

fn region_iteration_values(vars: &VarTable, region: &LoopStmt) -> Result<Vec<i64>, SimError> {
    let lower = region.lower.substitute_params(&|v| vars.param_value(v));
    let upper = region.upper.substitute_params(&|v| vars.param_value(v));
    if !lower.is_constant() || !upper.is_constant() {
        return Err(SimError::RegionBoundsNotConstant);
    }
    let (lo, hi, step) = (lower.constant, upper.constant, region.step);
    // Sized up front: one allocation per region, not one per doubling.
    let mut values = Vec::with_capacity(LoopStmt::trip_count(lo, hi, step).min(TRIP_LIMIT + 1));
    let mut k = lo;
    loop {
        if (step > 0 && k > hi) || (step < 0 && k < hi) {
            break;
        }
        values.push(k);
        k += step;
        if values.len() > TRIP_LIMIT {
            return Err(SimError::Region("region trip count too large".to_string()));
        }
    }
    Ok(values)
}

/// Statement budget of the sequential (non-engine) portions of a run.
const SEQ_STEP_BUDGET: usize = 200_000_000;

/// A [`PlainStore`] that additionally tallies the number of accesses, so
/// serial spans can be *timed* (accesses × non-speculative latency +
/// statement units × statement cost — the same accounting the sequential
/// region baseline uses) without collecting per-site counts.
struct TallyStore<'m> {
    inner: PlainStore<'m>,
    accesses: u64,
}

impl DataStore for TallyStore<'_> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        self.accesses += 1;
        self.inner.read(site, addr)
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        self.accesses += 1;
        self.inner.write(site, addr, value);
    }
}

/// A procedure's region schedule resolved for execution: serial spans
/// between `regions`, each labeled region paired with its top-level body
/// index, in program order. Both walks — speculative
/// ([`Schedule::simulate`]) and sequential ([`Schedule::run_sequential`])
/// — run the same spans and regions under the same cache keys, and the
/// one-region entry points are thin schedules of their own.
struct Schedule<'a> {
    cfg: &'a SimConfig,
    proc: &'a Procedure,
    layout: Layout,
    regions: Vec<(usize, &'a LabeledRegion)>,
}

impl<'a> Schedule<'a> {
    /// The schedule of a whole labeled program.
    fn program(
        program: &'a Program,
        labeled: &'a LabeledProgram,
        cfg: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let proc = program
            .procedures
            .get(labeled.proc.index())
            .ok_or_else(|| SimError::Region("procedure not found".to_string()))?;
        let regions = labeled
            .schedule
            .regions
            .iter()
            .zip(&labeled.regions)
            .map(|(d, lr)| (d.stmt_index, lr))
            .collect();
        Ok(Schedule {
            cfg,
            proc,
            layout: Layout::new(&proc.vars),
            regions,
        })
    }

    /// The thin one-region schedule of a labeled region: the statements
    /// around the designated loop are its serial spans.
    fn region(
        program: &'a Program,
        labeled: &'a LabeledRegion,
        cfg: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let proc = program
            .procedures
            .get(labeled.analysis.spec.proc.index())
            .ok_or_else(|| SimError::Region("procedure not found".to_string()))?;
        let label = &labeled.analysis.spec.loop_label;
        let stmt_index = proc
            .body
            .iter()
            .position(|s| matches!(s, Stmt::Loop(l) if l.label.as_deref() == Some(label.as_str())))
            .ok_or_else(|| SimError::Region(format!("region `{label}` is not a top-level loop")))?;
        Ok(Schedule {
            cfg,
            proc,
            layout: Layout::new(&proc.vars),
            regions: vec![(stmt_index, labeled)],
        })
    }

    fn label(&self, i: usize) -> &'a str {
        self.regions[i].1.analysis.spec.loop_label.as_str()
    }

    /// Resolves region `i`'s top-level loop statement from its body index.
    fn loop_stmt(&self, i: usize) -> Result<&'a LoopStmt, SimError> {
        let label = self.label(i);
        match self.proc.body.get(self.regions[i].0) {
            Some(Stmt::Loop(l)) if l.label.as_deref() == Some(label) => Ok(l),
            _ => Err(SimError::Region(format!(
                "region `{label}` is not a top-level loop"
            ))),
        }
    }

    /// The one backend dispatch of a run: the compiled form of `key`'s
    /// unit (`stmts` behind an optional WHILE `guard`, lowered under
    /// `index_ranges`), looked up in the config's cache and counted in
    /// `tally`, or `None` to tree-walk under the oracle backend. The caller
    /// holds the compiled form while executors borrow it.
    fn compiled(
        &self,
        key: LowerKey,
        guard: Option<&Expr>,
        stmts: &[Stmt],
        index_ranges: &[(VarId, (i64, i64))],
        tally: &mut Tally,
    ) -> Option<Arc<LoweredProc>> {
        match self.cfg.backend {
            ExecBackend::Compiled => {
                let lookup = self.cfg.cache.compile(
                    key,
                    &self.proc.vars,
                    &self.layout,
                    guard,
                    stmts,
                    index_ranges,
                );
                tally.count(&lookup);
                Some(lookup.value)
            }
            ExecBackend::TreeWalk => None,
        }
    }

    /// Runs `key`'s unit (`stmts`) to completion on one processor through
    /// `store`, within `budget` statement units, on the executor buffers
    /// `bufs` (left in place for the next unit), and returns the units it
    /// executed.
    fn run_unit(
        &self,
        key: LowerKey,
        stmts: &[Stmt],
        store: &mut impl DataStore,
        budget: usize,
        tally: &mut Tally,
        bufs: &mut ExecBuffers,
    ) -> Result<usize, SimError> {
        let compiled = self.compiled(key, None, stmts, &[], tally);
        let mut exec = AnyExec::new(
            compiled.as_deref(),
            &self.proc.vars,
            &self.layout,
            stmts,
            &[],
            std::mem::take(bufs),
        );
        let run = exec.run(store, budget);
        let steps = exec.steps();
        *bufs = exec.into_buffers();
        run.map_err(SimError::Exec)?;
        Ok(steps)
    }

    /// The one-processor cycle cost of `accesses` non-speculative accesses
    /// and `steps` statement units.
    fn seq_cycles(&self, accesses: u64, steps: usize) -> u64 {
        accesses * self.cfg.lat_nonspec + steps as u64 * self.cfg.stmt_cost
    }

    /// Runs the serial span `start..end` of the body on one processor, on
    /// the executor buffers `bufs`, and returns its cycle cost.
    fn serial_span(
        &self,
        start: usize,
        end: usize,
        memory: &mut Memory,
        tally: &mut Tally,
        bufs: &mut ExecBuffers,
    ) -> Result<u64, SimError> {
        let stmts = &self.proc.body[start..end];
        if stmts.is_empty() {
            return Ok(0);
        }
        let mut store = TallyStore {
            inner: PlainStore::new(memory),
            accesses: 0,
        };
        let key = LowerKey::new(self.proc, "", LowerUnit::SerialSpan { start, end });
        let steps = self.run_unit(key, stmts, &mut store, SEQ_STEP_BUDGET, tally, bufs)?;
        Ok(self.seq_cycles(store.accesses, steps))
    }

    /// Runs region `i`'s whole loop sequentially on one processor and
    /// returns its cycle cost, statement units and per-site counts. The
    /// sequential baseline and the degrade fallback both run a region
    /// through here (one [`LowerUnit::RegionLoop`] entry), so degraded
    /// memory is byte-identical to the oracle by construction — the
    /// guarantee that keeps chaos campaigns exact even at 100% injected
    /// misspeculation.
    fn region_loop(
        &self,
        i: usize,
        memory: &mut Memory,
        tally: &mut Tally,
        bufs: &mut ExecBuffers,
    ) -> Result<(u64, usize, DynCounts), SimError> {
        let stmts = std::slice::from_ref(&self.proc.body[self.regions[i].0]);
        let key = LowerKey::new(self.proc, self.label(i), LowerUnit::RegionLoop);
        let mut store = CountingStore::new(PlainStore::new(memory));
        let steps = self.run_unit(
            key,
            stmts,
            &mut store,
            self.cfg.max_statements as usize,
            tally,
            bufs,
        )?;
        let accesses = store.counts.values().map(|(r, w)| r + w).sum();
        Ok((self.seq_cycles(accesses, steps), steps, store.counts))
    }

    /// Executes the schedule: serial spans sequentially, every region
    /// speculatively through the engine (or the real-thread runtime), one
    /// pooled [`EngineScratch`] across all regions and spans.
    fn simulate(&self, mode: ExecMode) -> Result<(ProgramReport, Memory), SimError> {
        let cfg = self.cfg;
        let vars = &self.proc.vars;
        let mut memory = initial_memory_with_layout(&self.layout);
        let mut scratch = cfg.scratch.take();
        // One set of executor buffers serves every serial span of the call.
        let mut span_bufs = scratch.take_exec();
        let mut serial_tally = Tally::default();
        let mut report = ProgramReport::default();
        // Arm the serial fallback: under the in-place simulator a failed run
        // has already committed earlier segments and written through
        // overflows, so degradation needs a pre-region snapshot to rewind to.
        // The real-thread runtime only writes memory back on success, so its
        // failures leave memory untouched and need no snapshot. One snapshot
        // buffer serves every region of the call.
        let snapshot_armed = cfg.runtime == SpecRuntime::Simulated;
        let mut snapshot = Memory::default();
        let mut cursor = 0usize;
        for (i, &(stmt_index, labeled)) in self.regions.iter().enumerate() {
            report.serial_cycles += self.serial_span(
                cursor,
                stmt_index,
                &mut memory,
                &mut serial_tally,
                &mut span_bufs,
            )?;
            cursor = stmt_index + 1;
            let region = self.loop_stmt(i)?;
            let iter_values = region_iteration_values(vars, region)?;
            // Compile the region body once per *process* (the config's cache
            // is shared, keyed by procedure identity + region label): every
            // segment, every re-execution after a roll-back, every capacity
            // point of a sweep and every repeated call replays the same
            // bytecode. The region index's value interval is supplied so
            // subscripts mentioning it can be proven in bounds and fused to
            // flat affine addresses; the interval derives from the region
            // loop's constant bounds, so it is the same for every call that
            // shares the cache key.
            let mut region_tally = Tally::default();
            let index_range = match (iter_values.iter().min(), iter_values.iter().max()) {
                (Some(&lo), Some(&hi)) => Some((region.index, (lo, hi))),
                _ => None,
            };
            let key = LowerKey::new(self.proc, self.label(i), LowerUnit::RegionBody);
            let guard = region.while_cond.as_ref();
            let index_ranges = index_range.as_slice();
            let lowered = self.compiled(key, guard, &region.body, index_ranges, &mut region_tally);
            let segments = iter_values.len();
            if snapshot_armed {
                snapshot.copy_from(&memory);
            }
            let run_result = match cfg.runtime {
                SpecRuntime::Simulated => Engine::new(
                    cfg,
                    mode,
                    &labeled.labeling,
                    vars,
                    &self.layout,
                    region,
                    lowered.as_deref(),
                    iter_values,
                    &mut scratch,
                    &mut memory,
                )
                .run(),
                SpecRuntime::Threads => crate::parallel::run_region(
                    cfg,
                    mode,
                    &labeled.labeling,
                    vars,
                    &self.layout,
                    region,
                    lowered.as_deref(),
                    iter_values,
                    &mut memory,
                ),
            };
            let mut region_report = match run_result {
                Ok(r) => r,
                Err(err) => match err.degrade_reason() {
                    Some(reason) => {
                        if snapshot_armed {
                            std::mem::swap(&mut memory, &mut snapshot);
                        }
                        // The aborted engine may have left dependence-mask
                        // marks set; a degraded schedule continues on fresh
                        // scratch rather than parking the dirty one.
                        scratch = EngineScratch::new();
                        // The serial fallback reports the re-execution as a
                        // degraded region.
                        let (region_cycles, steps, _) =
                            self.region_loop(i, &mut memory, &mut region_tally, &mut span_bufs)?;
                        SimReport {
                            mode: Some(mode),
                            segments,
                            commits: segments as u64,
                            region_cycles,
                            statements: steps as u64,
                            degraded: Some(reason),
                            ..Default::default()
                        }
                    }
                    None => return Err(err),
                },
            };
            region_report.lowering_cache_hits = region_tally.hits;
            region_report.lowering_cache_misses = region_tally.misses;
            region_report.lowering_cache_evictions = region_tally.evictions;
            report.lowering_cache_hits += region_tally.hits;
            report.lowering_cache_misses += region_tally.misses;
            report.lowering_cache_evictions += region_tally.evictions;
            report.regions.push(region_report);
        }
        report.serial_cycles += self.serial_span(
            cursor,
            self.proc.body.len(),
            &mut memory,
            &mut serial_tally,
            &mut span_bufs,
        )?;
        report.lowering_cache_hits += serial_tally.hits;
        report.lowering_cache_misses += serial_tally.misses;
        report.lowering_cache_evictions += serial_tally.evictions;
        report.total_cycles = report.serial_cycles + report.parallel_cycles();
        // Only a *successful* run returns its scratch to the config's pool:
        // an errored engine may leave dependence-mask marks set.
        scratch.restore_exec(span_bufs);
        cfg.scratch.restore(scratch);
        Ok((report, memory))
    }

    /// Executes the schedule fully sequentially on one processor, timing
    /// the serial spans and every region separately and collecting
    /// per-region dynamic reference counts.
    fn run_sequential(&self) -> Result<SeqProgramOutcome, SimError> {
        let mut memory = initial_memory_with_layout(&self.layout);
        // The sequential baseline still compiles through the cache, but its
        // outcome has no statistics report to surface the traffic on — the
        // tally is deliberately discarded ([`SimReport`]'s counters cover the
        // speculative runs, which is where sweeps spend their time).
        let mut tally = Tally::default();
        // Fresh executor buffers, reused across this call's units.
        let mut bufs = ExecBuffers::default();
        let mut serial_cycles = 0u64;
        let mut region_cycles = Vec::with_capacity(self.regions.len());
        let mut region_counts = Vec::with_capacity(self.regions.len());
        let mut cursor = 0usize;
        for (i, &(stmt_index, _)) in self.regions.iter().enumerate() {
            serial_cycles +=
                self.serial_span(cursor, stmt_index, &mut memory, &mut tally, &mut bufs)?;
            cursor = stmt_index + 1;
            self.loop_stmt(i)?;
            let (cycles, _, counts) = self.region_loop(i, &mut memory, &mut tally, &mut bufs)?;
            region_cycles.push(cycles);
            region_counts.push(counts);
        }
        serial_cycles += self.serial_span(
            cursor,
            self.proc.body.len(),
            &mut memory,
            &mut tally,
            &mut bufs,
        )?;
        let total_cycles = serial_cycles + region_cycles.iter().sum::<u64>();
        Ok(SeqProgramOutcome {
            memory,
            serial_cycles,
            region_cycles,
            region_counts,
            total_cycles,
        })
    }
}

/// Runs the labeled region's procedure fully sequentially, timing the region
/// with the non-speculative latency of `cfg` and collecting dynamic
/// reference counts inside the region — a thin one-region schedule, like
/// [`simulate_region`].
pub fn run_sequential(
    program: &Program,
    labeled: &LabeledRegion,
    cfg: &SimConfig,
) -> Result<SeqOutcome, SimError> {
    let mut out = Schedule::region(program, labeled, cfg)?.run_sequential()?;
    Ok(SeqOutcome {
        memory: out.memory,
        region_cycles: out.region_cycles[0],
        region_counts: out.region_counts.pop().expect("one scheduled region"),
    })
}

/// Simulates a whole labeled program under the given execution model:
/// serial spans execute sequentially, every scheduled region runs through
/// the speculation engine, and the report carries the per-region
/// statistics plus the serial/parallel cycle breakdown and coverage
/// fraction. Label the program first — through the config's analysis
/// cache with
/// [`AnalysisCache::label_program_cached`](refidem_core::cache::AnalysisCache::label_program_cached),
/// which also returns that call's cache tally.
pub fn simulate_program(
    program: &Program,
    labeled: &LabeledProgram,
    mode: ExecMode,
    cfg: &SimConfig,
) -> Result<ProgramOutcome, SimError> {
    let (report, memory) = Schedule::program(program, labeled, cfg)?.simulate(mode)?;
    Ok(ProgramOutcome { report, memory })
}

/// Simulates the labeled region under the given execution model — a thin
/// one-region schedule: the statements around the designated loop are the
/// schedule's serial spans, the loop is its only region.
pub fn simulate_region(
    program: &Program,
    labeled: &LabeledRegion,
    mode: ExecMode,
    cfg: &SimConfig,
) -> Result<SimOutcome, SimError> {
    let (program_report, memory) = Schedule::region(program, labeled, cfg)?.simulate(mode)?;
    let mut report = program_report
        .regions
        .into_iter()
        .next()
        .expect("one scheduled region");
    // Single-region reports historically carried the whole run's cache
    // traffic (prologue + region body + epilogue); keep that contract.
    report.lowering_cache_hits = program_report.lowering_cache_hits;
    report.lowering_cache_misses = program_report.lowering_cache_misses;
    report.lowering_cache_evictions = program_report.lowering_cache_evictions;
    Ok(SimOutcome { report, memory })
}

/// Runs a whole labeled program fully sequentially on one processor,
/// timing the serial spans and every region separately (the denominator
/// of whole-program speedups, and the source of the sequential coverage
/// fraction) and collecting per-region dynamic reference counts.
pub fn run_program_sequential(
    program: &Program,
    labeled: &LabeledProgram,
    cfg: &SimConfig,
) -> Result<SeqProgramOutcome, SimError> {
    Schedule::program(program, labeled, cfg)?.run_sequential()
}

/// Side-by-side whole-program comparison: the sequential baseline, HOSE
/// and CASE for one labeled program (the coverage ablation's unit).
#[derive(Clone, Debug)]
pub struct ProgramComparison {
    /// Whole-program cycles of the one-processor sequential baseline.
    pub sequential_cycles: u64,
    /// The sequential baseline's coverage fraction (share of cycles
    /// inside speculative regions — the Amdahl ceiling's input).
    pub sequential_coverage: f64,
    /// HOSE whole-program report.
    pub hose: ProgramReport,
    /// CASE whole-program report.
    pub case: ProgramReport,
}

impl ProgramComparison {
    /// Whole-program speedup of HOSE over the sequential baseline.
    pub fn hose_speedup(&self) -> f64 {
        crate::report::speedup(self.sequential_cycles, self.hose.total_cycles)
    }

    /// Whole-program speedup of CASE over the sequential baseline.
    pub fn case_speedup(&self) -> f64 {
        crate::report::speedup(self.sequential_cycles, self.case.total_cycles)
    }

    /// Amdahl's ceiling for this program: the speedup an infinitely fast
    /// parallel section would reach given the sequential coverage
    /// fraction `c` and `processors` workers, `1 / ((1-c) + c/P)`.
    pub fn amdahl_bound(&self, processors: usize) -> f64 {
        let c = self.sequential_coverage;
        1.0 / ((1.0 - c) + c / processors.max(1) as f64)
    }
}

/// Runs the whole-program sequential baseline, HOSE and CASE for one
/// labeled program and packages the speedups and coverage.
pub fn compare_program_modes(
    program: &Program,
    labeled: &LabeledProgram,
    cfg: &SimConfig,
) -> Result<ProgramComparison, SimError> {
    let seq = run_program_sequential(program, labeled, cfg)?;
    let hose = simulate_program(program, labeled, ExecMode::Hose, cfg)?;
    let case = simulate_program(program, labeled, ExecMode::Case, cfg)?;
    Ok(ProgramComparison {
        sequential_cycles: seq.total_cycles,
        sequential_coverage: seq.coverage_fraction(),
        hose: hose.report,
        case: case.report,
    })
}

/// Runs the sequential baseline, HOSE and CASE for one region and packages
/// the speedups (the (b)-panels of Figures 6–9).
pub fn compare_modes(
    program: &Program,
    labeled: &LabeledRegion,
    cfg: &SimConfig,
) -> Result<SpeedupComparison, SimError> {
    let seq = run_sequential(program, labeled, cfg)?;
    let hose = simulate_region(program, labeled, ExecMode::Hose, cfg)?;
    let case = simulate_region(program, labeled, ExecMode::Case, cfg)?;
    Ok(SpeedupComparison {
        region: labeled.analysis.spec.loop_label.clone(),
        sequential_cycles: seq.region_cycles,
        hose: hose.report,
        case: case.report,
    })
}

/// Checks the simulator's functional correctness (Lemmas 1 and 2 as a test):
/// the final memory of a speculative run must equal the final memory of the
/// sequential run on every address except those belonging to variables the
/// region classifies as private (private locations are dead at region exit
/// and live in per-segment storage under CASE).
///
/// Returns the list of differing addresses (empty on success).
pub fn verify_against_sequential(
    program: &Program,
    labeled: &LabeledRegion,
    mode: ExecMode,
    cfg: &SimConfig,
) -> Result<Vec<(Addr, f64, f64)>, SimError> {
    let schedule = Schedule::region(program, labeled, cfg)?;
    let (proc, layout) = (schedule.proc, &schedule.layout);
    let seq = run_sequential(program, labeled, cfg)?;
    let sim = simulate_region(program, labeled, mode, cfg)?;
    // Addresses of private variables are excluded from the comparison.
    let ignored: Vec<_> = labeled.private_ranges(&proc.vars, layout).collect();
    let diffs = seq
        .memory
        .diff(&sim.memory, usize::MAX)
        .into_iter()
        .filter(|(addr, _, _)| !ignored.iter().any(|(lo, hi)| addr.0 >= *lo && addr.0 < *hi))
        .collect();
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_core::label::label_program_region_by_name;
    use refidem_ir::build::{ac, add, av, mul, num, ProcBuilder};
    use refidem_ir::lowered::LoweredCache;
    use refidem_ir::program::Program;

    /// do k = 2, 33:  a(k) = a(k-1) + b(k)   — a cross-segment flow
    /// dependence chain plus a read-only array.
    fn recurrence_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[40]);
        let bb = b.array("b", &[40]);
        let k = b.index("k");
        b.live_out(&[a]);
        let rhs = add(
            b.load_elem(a, vec![av(k) - ac(1)]),
            b.load_elem(bb, vec![av(k)]),
        );
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let region = b.do_loop_labeled("REC", k, ac(2), ac(33), vec![s]);
        let mut p = Program::new("recurrence");
        p.add_procedure(b.build(vec![region]));
        p
    }

    /// A wide, independent-per-iteration loop with many distinct addresses
    /// per iteration: overflows small speculative storage under HOSE, but
    /// most references are read-only/idempotent under CASE.
    fn wide_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let src = b.array("src", &[20 * 40]);
        let dst = b.array("dst", &[40]);
        let acc = b.scalar("acc");
        let k = b.index("k");
        let j = b.index("j");
        b.live_out(&[dst]);
        // acc = 0; do j = 1, 20 { acc = acc + src(20*(k-1)+j) } ; dst(k) = acc
        let init = b.assign_scalar(acc, num(0.0));
        let src_sub = AffineBuilder::wide_subscript(k, j);
        let rhs = add(b.load(acc), b.load_elem(src, vec![src_sub]));
        let body_stmt = b.assign_scalar(acc, rhs);
        let inner = b.do_loop(j, ac(1), ac(20), vec![body_stmt]);
        let rhs2 = b.load(acc);
        let fin = b.assign_elem(dst, vec![av(k)], rhs2);
        let region = b.do_loop_labeled("WIDE", k, ac(1), ac(40), vec![init, inner, fin]);
        let mut p = Program::new("wide");
        p.add_procedure(b.build(vec![region]));
        p
    }

    /// Helper building `20*(k-1) + j` without pulling the builder into
    /// the affine module.
    struct AffineBuilder;
    impl AffineBuilder {
        fn wide_subscript(
            k: refidem_ir::ids::VarId,
            j: refidem_ir::ids::VarId,
        ) -> refidem_ir::affine::AffineExpr {
            refidem_ir::affine::AffineExpr::scaled_var(k, 20) + av(j) - ac(20)
        }
    }

    #[test]
    fn hose_matches_sequential_execution_on_a_recurrence() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default();
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(diffs.is_empty(), "HOSE must match sequential: {diffs:?}");
    }

    #[test]
    fn case_matches_sequential_execution_on_a_recurrence() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default();
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        assert!(diffs.is_empty(), "CASE must match sequential: {diffs:?}");
    }

    #[test]
    fn violations_and_rollbacks_occur_on_the_recurrence_under_hose() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default();
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(
            out.report.violations > 0,
            "the flow dependence chain must trigger violations"
        );
        assert!(out.report.rollbacks > 0);
        assert_eq!(out.report.commits as usize, out.report.segments);
    }

    #[test]
    fn small_speculative_storage_overflows_under_hose_but_not_case() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        // Each iteration touches ~22 distinct addresses; capacity 8 forces
        // overflow under HOSE.
        let cfg = SimConfig::default().capacity(8);
        let hose = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        let case = simulate_region(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        assert!(hose.report.overflow_stalls > 0, "HOSE must overflow");
        assert!(
            case.report.overflow_stalls == 0,
            "CASE labels the src reads idempotent and avoids overflow"
        );
        assert!(
            case.report.region_cycles < hose.report.region_cycles,
            "CASE must be faster when HOSE overflows (case {} vs hose {})",
            case.report.region_cycles,
            hose.report.region_cycles
        );
        // Both are functionally correct.
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let diffs = verify_against_sequential(&p, &labeled, mode, &cfg).unwrap();
            assert!(diffs.is_empty(), "{mode} must match sequential: {diffs:?}");
        }
    }

    #[test]
    fn compare_modes_reports_speedups() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        let cfg = SimConfig::default().capacity(8);
        let cmp = compare_modes(&p, &labeled, &cfg).unwrap();
        assert!(cmp.sequential_cycles > 0);
        assert!(cmp.case_speedup() > cmp.hose_speedup());
        assert!(cmp.case_speedup() > 1.0, "CASE should beat one processor");
    }

    #[test]
    fn fully_speculative_loop_without_dependences_still_commits_in_order() {
        // do k = 1, 16: c(k) = c(k) * 2 — independent; HOSE should get a
        // speedup > 1 with adequate storage and no violations.
        let mut b = ProcBuilder::new("main");
        let c = b.array("c", &[16]);
        let k = b.index("k");
        b.live_out(&[c]);
        let rhs = mul(b.load_elem(c, vec![av(k)]), num(2.0));
        let s = b.assign_elem(c, vec![av(k)], rhs);
        let region = b.do_loop_labeled("IND", k, ac(1), ac(16), vec![s]);
        let mut p = Program::new("ind");
        p.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&p, "IND").unwrap();
        assert!(labeled.labeling.fully_independent);
        let cfg = SimConfig::default();
        let cmp = compare_modes(&p, &labeled, &cfg).unwrap();
        assert_eq!(cmp.hose.violations, 0);
        assert_eq!(cmp.case.violations, 0);
        assert!(cmp.hose_speedup() > 1.0);
        assert!(cmp.case_speedup() > 1.0);
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let diffs = verify_against_sequential(&p, &labeled, mode, &cfg).unwrap();
            assert!(diffs.is_empty());
        }
    }

    #[test]
    fn private_variables_use_private_storage_under_case() {
        // do k: { t = b(k); a(k) = t * 2 } — t is private.
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[24]);
        let bb = b.array("b", &[24]);
        let t = b.scalar("t");
        let k = b.index("k");
        b.live_out(&[a]);
        let rhs1 = b.load_elem(bb, vec![av(k)]);
        let s1 = b.assign_scalar(t, rhs1);
        let rhs2 = mul(b.load(t), num(2.0));
        let s2 = b.assign_elem(a, vec![av(k)], rhs2);
        let region = b.do_loop_labeled("PRIV", k, ac(1), ac(24), vec![s1, s2]);
        let mut p = Program::new("priv");
        p.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&p, "PRIV").unwrap();
        let cfg = SimConfig::default();
        let case = simulate_region(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        assert!(case.report.private_reads > 0);
        assert!(case.report.private_writes > 0);
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        assert!(
            diffs.is_empty(),
            "private values are excluded from comparison: {diffs:?}"
        );
        // Under HOSE everything goes to speculative storage.
        let hose = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert_eq!(hose.report.private_reads, 0);
        assert_eq!(hose.report.nonspec_writes, 0);
    }

    #[test]
    fn single_processor_configuration_degenerates_gracefully() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default().processors(1);
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert_eq!(out.report.violations, 0, "one processor cannot violate");
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(diffs.is_empty());
    }

    #[test]
    fn capacity_sweeps_compile_the_region_exactly_once() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        let cache = LoweredCache::fresh();
        let base = SimConfig::default().cache(cache.clone());

        // First simulation compiles (the program has no prologue/epilogue,
        // so the region body is the only query); every further point of
        // the ladder — any capacity, either mode — hits.
        let first = simulate_region(&p, &labeled, ExecMode::Hose, &base).unwrap();
        assert_eq!(first.report.lowering_cache_misses, 1);
        assert_eq!(first.report.lowering_cache_hits, 0);
        for capacity in [1, 2, 4, 16, 256] {
            for mode in [ExecMode::Hose, ExecMode::Case] {
                let cfg = base.clone().capacity(capacity);
                let out = simulate_region(&p, &labeled, mode, &cfg).unwrap();
                assert_eq!(
                    out.report.lowering_cache_misses, 0,
                    "{mode} @ {capacity} recompiled"
                );
                assert_eq!(out.report.lowering_cache_hits, 1);
            }
        }
        // One region body entry; the sequential baseline adds its own
        // whole-loop unit, and a *different* region gets its own entries.
        assert_eq!(cache.len(), 1);
        run_sequential(&p, &labeled, &base).unwrap();
        assert_eq!(cache.len(), 2);
        let other = recurrence_program();
        let other_labeled = label_program_region_by_name(&other, "REC").unwrap();
        let out = simulate_region(&other, &other_labeled, ExecMode::Case, &base).unwrap();
        assert_eq!(out.report.lowering_cache_misses, 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_ladder_analyzes_each_region_exactly_once() {
        use refidem_core::cache::AnalysisCache;
        let p = wide_program();
        let base = SimConfig::default()
            .cache(LoweredCache::fresh())
            .analysis_cache(AnalysisCache::fresh());

        // The first labeling through the config's cache analyzes; every
        // further point of the ladder — any capacity, either mode — reuses
        // that analysis.
        let label = |cfg: &SimConfig| {
            cfg.analysis_cache
                .label_region_by_name_cached(&p, "WIDE")
                .unwrap()
        };
        let first = label(&base);
        assert!(!first.hit);
        simulate_region(&p, &first.region, ExecMode::Hose, &base).unwrap();
        for capacity in [1, 2, 4, 16, 256] {
            for mode in [ExecMode::Hose, ExecMode::Case] {
                let cfg = base.clone().capacity(capacity);
                let lookup = label(&cfg);
                assert!(lookup.hit, "{mode} @ {capacity} re-analyzed");
                assert_eq!(lookup.evicted, 0);
                simulate_region(&p, &lookup.region, mode, &cfg).unwrap();
            }
        }
        assert_eq!(base.analysis_cache.len(), 1, "one entry per region");
        assert_eq!(base.analysis_cache.evictions(), 0);

        // The cached labeling simulates bit-identically to a fresh one.
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        let classic = simulate_region(&p, &labeled, ExecMode::Case, &base).unwrap();
        let cached = simulate_region(&p, &label(&base).region, ExecMode::Case, &base).unwrap();
        assert_eq!(cached.report, classic.report);
        assert!(classic.memory.diff(&cached.memory, usize::MAX).is_empty());
    }

    #[test]
    fn cached_program_labeling_simulates_like_the_classic_path() {
        use refidem_core::cache::AnalysisCache;
        use refidem_core::label::label_program;
        use refidem_ir::ids::ProcId;
        let p = recurrence_program();
        let cfg = SimConfig::default()
            .cache(LoweredCache::fresh())
            .analysis_cache(AnalysisCache::fresh());
        let labeled = label_program(&p, ProcId::from_index(0)).unwrap();
        let classic = simulate_program(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        let label = || {
            cfg.analysis_cache
                .label_program_cached(&p, ProcId::from_index(0))
                .unwrap()
        };
        let (_, tally) = label();
        assert_eq!((tally.hits, tally.misses), (0, 1));
        let (cached, tally) = label();
        assert_eq!((tally.hits, tally.misses, tally.evictions), (1, 0, 0));
        let again = simulate_program(&p, &cached, ExecMode::Hose, &cfg).unwrap();
        // The classic first run performed the lowering misses; the re-run
        // hits. Compare everything else.
        let mut strip = again.report.clone();
        strip.lowering_cache_hits = classic.report.lowering_cache_hits;
        strip.lowering_cache_misses = classic.report.lowering_cache_misses;
        strip.lowering_cache_evictions = classic.report.lowering_cache_evictions;
        for (r, c) in strip.regions.iter_mut().zip(&classic.report.regions) {
            r.lowering_cache_hits = c.lowering_cache_hits;
            r.lowering_cache_misses = c.lowering_cache_misses;
            r.lowering_cache_evictions = c.lowering_cache_evictions;
        }
        assert_eq!(strip, classic.report);
        assert!(classic.memory.diff(&again.memory, usize::MAX).is_empty());
    }

    #[test]
    fn oracle_backend_never_touches_the_compilation_cache() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cache = LoweredCache::fresh();
        let cfg = SimConfig::default().cache(cache.clone()).oracle();
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert_eq!(out.report.lowering_cache_hits, 0);
        assert_eq!(out.report.lowering_cache_misses, 0);
        assert!(cache.is_empty());
    }

    /// serial prologue ; R1: a(k) = a(k-1) + b(k) ; serial gap ;
    /// R2: c(k) = a(k) * 2 (reads R1's live output) ; serial epilogue.
    fn two_region_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[40]);
        let bb = b.array("b", &[40]);
        let c = b.array("c", &[40]);
        let s = b.scalar("s");
        let k = b.index("k");
        b.live_out(&[a, c, s]);
        let pre = b.assign_scalar(s, num(1.5));
        let rhs1 = add(
            b.load_elem(a, vec![av(k) - ac(1)]),
            b.load_elem(bb, vec![av(k)]),
        );
        let st1 = b.assign_elem(a, vec![av(k)], rhs1);
        let r1 = b.do_loop_labeled("R1", k, ac(2), ac(33), vec![st1]);
        let gap_rhs = add(b.load(s), num(0.25));
        let gap = b.assign_scalar(s, gap_rhs);
        let rhs2 = mul(b.load_elem(a, vec![av(k)]), num(2.0));
        let st2 = b.assign_elem(c, vec![av(k)], rhs2);
        let r2 = b.do_loop_labeled("R2", k, ac(1), ac(40), vec![st2]);
        let post_rhs = mul(b.load(s), num(0.5));
        let post = b.assign_scalar(s, post_rhs);
        let mut p = Program::new("two-region");
        p.add_procedure(b.build(vec![pre, r1, gap, r2, post]));
        p
    }

    /// Two regions that accumulate into memory (`a(k) += 1`, then
    /// `c(k) += a(k) * s`): re-running a partly committed region without
    /// rewinding it, or after rewinding to another region's pre-state,
    /// changes the final memory.
    fn accumulating_two_region_program() -> Program {
        let mut b = ProcBuilder::new("acc");
        let a = b.array("a", &[16]);
        let c = b.array("c", &[16]);
        let s = b.scalar("s");
        let k = b.index("k");
        b.live_out(&[a, c, s]);
        let rhs1 = add(b.load_elem(a, vec![av(k)]), num(1.0));
        let st1 = b.assign_elem(a, vec![av(k)], rhs1);
        let r1 = b.do_loop_labeled("R1", k, ac(1), ac(16), vec![st1]);
        let gap = b.assign_scalar(s, num(3.0));
        let rhs2 = add(
            b.load_elem(c, vec![av(k)]),
            mul(b.load_elem(a, vec![av(k)]), b.load(s)),
        );
        let st2 = b.assign_elem(c, vec![av(k)], rhs2);
        let r2 = b.do_loop_labeled("R2", k, ac(1), ac(16), vec![st2]);
        let mut p = Program::new("accumulate");
        p.add_procedure(b.build(vec![r1, gap, r2]));
        p
    }

    fn labeled_program(p: &Program) -> refidem_core::label::LabeledProgram {
        refidem_core::label::label_program(p, refidem_ir::ids::ProcId::from_index(0)).unwrap()
    }

    #[test]
    fn whole_program_simulation_reports_per_region_and_serial_breakdown() {
        let p = two_region_program();
        let labeled = labeled_program(&p);
        assert_eq!(labeled.len(), 2);
        let cfg = SimConfig::default();
        let seq = run_program_sequential(&p, &labeled, &cfg).unwrap();
        assert_eq!(seq.region_cycles.len(), 2);
        assert_eq!(
            seq.total_cycles,
            seq.serial_cycles + seq.region_cycles.iter().sum::<u64>()
        );
        assert!(seq.coverage_fraction() > 0.9, "tiny serial spans");
        assert!(seq.coverage_fraction() < 1.0);
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let out = simulate_program(&p, &labeled, mode, &cfg).unwrap();
            let r = &out.report;
            assert_eq!(r.regions.len(), 2);
            // Per-region reports sum to the whole-program cycle count.
            assert_eq!(r.total_cycles, r.serial_cycles + r.parallel_cycles());
            assert!(r.coverage_fraction() > 0.0 && r.coverage_fraction() < 1.0);
            assert_eq!(r.regions[0].segments, 32);
            assert_eq!(r.regions[1].segments, 40);
            // The recurrence region violates under HOSE; the independent
            // one never does.
            if mode == ExecMode::Hose {
                assert!(r.regions[0].violations > 0);
            }
            assert_eq!(r.regions[1].violations, 0);
            // Back-to-back regions share live state (R2 reads R1's a):
            // whole-program memory must equal the sequential image.
            let diffs = seq.memory.diff(&out.memory, 8);
            assert!(diffs.is_empty(), "{mode}: {diffs:?}");
        }
    }

    #[test]
    fn restarts_are_surfaced_and_bounded() {
        let p = two_region_program();
        let labeled = labeled_program(&p);
        let cfg = SimConfig::default();
        let out = simulate_program(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        let rec = &out.report.regions[0];
        assert!(rec.max_segment_restarts > 0, "the recurrence rolls back");
        assert!(
            (rec.max_segment_restarts as u64) <= rec.rollbacks + rec.overflow_stalls,
            "every restart is paid for by a roll-back or an overflow stall"
        );
        assert_eq!(out.report.max_segment_restarts(), rec.max_segment_restarts);
        // A clean region restarts nobody.
        let ind = &out.report.regions[1];
        assert_eq!(ind.max_segment_restarts, 0);
    }

    /// Zeroes a report's compilation-pipeline counters (the only fields
    /// that depend on what earlier runs left in a shared cache).
    fn no_cache_counters(report: &SimReport) -> SimReport {
        SimReport {
            lowering_cache_hits: 0,
            lowering_cache_misses: 0,
            lowering_cache_evictions: 0,
            ..report.clone()
        }
    }

    #[test]
    fn thin_region_schedule_matches_the_program_pipeline() {
        // simulate_region is a one-region schedule: on a single-region
        // program its report equals simulate_program's region report. The
        // cache counters are compared on their own terms (their hit/miss
        // split depends on what earlier runs left in the shared cache).
        let p = recurrence_program();
        let region = label_program_region_by_name(&p, "REC").unwrap();
        let labeled = labeled_program(&p);
        let cfg = SimConfig::default();
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let one = simulate_region(&p, &region, mode, &cfg).unwrap();
            let all = simulate_program(&p, &labeled, mode, &cfg).unwrap();
            assert_eq!(all.report.regions.len(), 1);
            assert_eq!(
                no_cache_counters(&one.report),
                no_cache_counters(&all.report.regions[0]),
                "{mode}"
            );
            // Both runs query the cache for the (empty-span-free) region
            // body exactly once.
            assert_eq!(
                one.report.lowering_cache_hits + one.report.lowering_cache_misses,
                1
            );
            assert_eq!(
                all.report.lowering_cache_hits + all.report.lowering_cache_misses,
                1
            );
            assert!(one.memory.diff(&all.memory, 8).is_empty());
        }
    }

    /// s = 2 ; t = s * 3 — no region at all.
    fn serial_only_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let s = b.scalar("s");
        let t = b.scalar("t");
        b.live_out(&[s, t]);
        let st1 = b.assign_scalar(s, num(2.0));
        let st2_rhs = mul(b.load(s), num(3.0));
        let st2 = b.assign_scalar(t, st2_rhs);
        let mut p = Program::new("serial-only");
        p.add_procedure(b.build(vec![st1, st2]));
        p
    }

    #[test]
    fn shared_cache_keeps_program_and_region_serial_spans_apart() {
        // The one-region path's prologue reaches back to the procedure
        // start (through earlier region loops), while the program path's
        // serial span before the same region is only the inter-region
        // gap: with one shared cache the two must compile under distinct
        // keys — a collision would silently serve whichever caller came
        // second the other's bytecode and skip (or re-run) whole regions.
        let p = two_region_program();
        let labeled = labeled_program(&p);
        let r2 = label_program_region_by_name(&p, "R2").unwrap();
        let seq_all = run_program_sequential(&p, &labeled, &SimConfig::default().oracle()).unwrap();
        let seq_one = run_sequential(&p, &r2, &SimConfig::default().oracle()).unwrap();
        for program_first in [true, false] {
            let cfg = SimConfig::default().cache(LoweredCache::fresh());
            if program_first {
                let all = simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap();
                assert!(seq_all.memory.diff(&all.memory, 8).is_empty());
                let one = simulate_region(&p, &r2, ExecMode::Case, &cfg).unwrap();
                let diffs = seq_one.memory.diff(&one.memory, 8);
                assert!(diffs.is_empty(), "region-after-program diverged: {diffs:?}");
            } else {
                let one = simulate_region(&p, &r2, ExecMode::Case, &cfg).unwrap();
                assert!(seq_one.memory.diff(&one.memory, 8).is_empty());
                let all = simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap();
                let diffs = seq_all.memory.diff(&all.memory, 8);
                assert!(diffs.is_empty(), "program-after-region diverged: {diffs:?}");
            }
        }

        // A region-free body is one serial span, not the sequential
        // interpreter's fused whole procedure: sharing a cache, either
        // order, the simulation misses once for its own plain entry.
        use refidem_ir::exec::SeqInterp;
        let p = serial_only_program();
        let labeled = labeled_program(&p);
        let proc = &p.procedures[0];
        let oracle = run_program_sequential(&p, &labeled, &SimConfig::default().oracle()).unwrap();
        for interp_first in [true, false] {
            let cache = LoweredCache::fresh();
            let cfg = SimConfig::default().cache(cache.clone());
            let interp = SeqInterp {
                cache: cache.clone(),
                ..SeqInterp::new()
            };
            let mut seq = initial_memory(proc);
            if interp_first {
                interp.run_procedure(proc, &mut seq).unwrap();
            }
            let out = simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap();
            assert_eq!(out.report.lowering_cache_misses, 1, "{interp_first}");
            assert_eq!(out.report.lowering_cache_hits, 0, "{interp_first}");
            if !interp_first {
                interp.run_procedure(proc, &mut seq).unwrap();
            }
            assert_eq!(cache.len(), 2, "one entry per unit");
            assert!(oracle.memory.diff(&out.memory, 8).is_empty());
            assert!(oracle.memory.diff(&seq, 8).is_empty());
        }

        // One compiled form per unit: a region's body is fused, the serial
        // span before it is not.
        let p = two_region_program();
        let labeled = labeled_program(&p);
        let cache = LoweredCache::fresh();
        let cfg = SimConfig::default().cache(cache.clone());
        simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        let proc = &p.procedures[0];
        let entry =
            |region, unit| cache.lookup(LowerKey::new(proc, region, unit), || unreachable!());
        assert!(entry("R1", LowerUnit::RegionBody).value.superinst_count() > 0);
        let before_r1 = LowerUnit::SerialSpan { start: 0, end: 1 };
        assert_eq!(entry("", before_r1).value.superinst_count(), 0);
    }

    #[test]
    fn serial_only_programs_have_zero_coverage() {
        let p = serial_only_program();
        let labeled = labeled_program(&p);
        assert!(labeled.is_empty());
        let cfg = SimConfig::default();
        let seq = run_program_sequential(&p, &labeled, &cfg).unwrap();
        assert_eq!(seq.coverage_fraction(), 0.0);
        assert!(seq.serial_cycles > 0);
        let out = simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap();
        assert!(out.report.regions.is_empty());
        assert_eq!(out.report.coverage_fraction(), 0.0);
        assert_eq!(out.report.total_cycles, out.report.serial_cycles);
        assert!(seq.memory.diff(&out.memory, 8).is_empty());
        // Both paths agree on the serial timing too.
        assert_eq!(out.report.serial_cycles, seq.serial_cycles);
    }

    #[test]
    fn zero_trip_and_single_iteration_regions_schedule_cleanly() {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[8]);
        let k = b.index("k");
        b.live_out(&[a]);
        // do k = 5, 2 — zero trips.
        let st0 = b.assign_elem(a, vec![av(k)], num(9.0));
        let zero = b.do_loop_labeled("ZERO", k, ac(5), ac(2), vec![st0]);
        // do k = 3, 3 — exactly one segment.
        let st1 = b.assign_elem(a, vec![av(k)], num(4.0));
        let one = b.do_loop_labeled("ONE", k, ac(3), ac(3), vec![st1]);
        let mut p = Program::new("degenerate");
        p.add_procedure(b.build(vec![zero, one]));
        let labeled = labeled_program(&p);
        let cfg = SimConfig::default();
        let seq = run_program_sequential(&p, &labeled, &cfg).unwrap();
        // The zero-trip loop's sequential cost is just its header check.
        assert!(
            seq.region_cycles[0] <= cfg.stmt_cost * 2,
            "{}",
            seq.region_cycles[0]
        );
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let out = simulate_program(&p, &labeled, mode, &cfg).unwrap();
            assert_eq!(out.report.regions[0].segments, 0);
            assert_eq!(out.report.regions[0].commits, 0);
            assert_eq!(out.report.regions[0].region_cycles, 0);
            assert_eq!(out.report.regions[1].segments, 1);
            assert_eq!(out.report.regions[1].commits, 1);
            assert_eq!(out.report.regions[1].violations, 0);
            assert!(seq.memory.diff(&out.memory, 8).is_empty());
        }
    }

    /// Regions whose executors need different buffer shapes, an interior
    /// serial span and a WHILE region: `R3` nests three loops deep, its
    /// subscripts of the inner indices strength-reduce to induction
    /// registers, and its right-nested expression needs many value
    /// registers; `s = s + 1` sits between it and the WHILE region `RW`.
    fn shapes_program() -> Program {
        use refidem_ir::build::{cmp, sub};
        use refidem_ir::expr::CmpOp;
        let mut b = ProcBuilder::new("shapes");
        let a = b.array("a", &[8, 8]);
        let bb = b.array("b", &[64]);
        let c = b.array("c", &[16]);
        let w = b.array("w", &[16]);
        let s = b.scalar("s");
        let (k, i, j) = (b.index("k"), b.index("i"), b.index("j"));
        b.live_out(&[a, w, s]);
        let flat = refidem_ir::affine::AffineExpr::scaled_var(i, 8) + av(j) - ac(8);
        let deep = add(
            b.load_elem(a, vec![av(i), av(j)]),
            mul(
                b.load_elem(bb, vec![flat]),
                add(
                    b.load_elem(c, vec![av(k)]),
                    sub(
                        b.load_elem(bb, vec![av(j)]),
                        mul(
                            b.load_elem(c, vec![av(i)]),
                            add(b.load_elem(bb, vec![av(i)]), b.load_elem(c, vec![av(j)])),
                        ),
                    ),
                ),
            ),
        );
        let st = b.assign_elem(a, vec![av(i), av(j)], deep);
        let inner = b.do_loop(j, ac(1), ac(8), vec![st]);
        let middle = b.do_loop(i, ac(1), ac(8), vec![inner]);
        let r3 = b.do_loop_labeled("R3", k, ac(1), ac(6), vec![middle]);
        let gap_rhs = add(b.load(s), num(1.0));
        let gap = b.assign_scalar(s, gap_rhs);
        let cond = cmp(CmpOp::Le, b.load(s), num(9.0));
        let acc = add(b.load(s), b.load_elem(w, vec![av(k)]));
        let w1 = b.assign_scalar(s, acc);
        let w_rhs = b.load(s);
        let w2 = b.assign_elem(w, vec![av(k)], w_rhs);
        let rw = b.while_loop_labeled("RW", k, ac(1), ac(16), cond, vec![w1, w2]);
        let mut p = Program::new("shapes");
        p.add_procedure(b.build(vec![r3, gap, rw]));
        p
    }

    /// Zeroes every compilation-cache counter of a program report.
    fn strip_cache_counters(r: &crate::report::ProgramReport) -> crate::report::ProgramReport {
        let mut r = r.clone();
        r.lowering_cache_hits = 0;
        r.lowering_cache_misses = 0;
        r.lowering_cache_evictions = 0;
        for region in &mut r.regions {
            region.lowering_cache_hits = 0;
            region.lowering_cache_misses = 0;
            region.lowering_cache_evictions = 0;
        }
        r
    }

    #[test]
    fn scratch_pooling_is_observationally_invisible() {
        // The pooled and the per-call scratch paths must be bit-identical:
        // run a capacity ladder (which re-targets pooled buffer capacities
        // in place) on both and compare everything. A fresh pool per call
        // hands each run fresh scratch.
        use crate::engine::ScratchPool;
        let p = two_region_program();
        let labeled = labeled_program(&p);
        for mode in [ExecMode::Hose, ExecMode::Case] {
            for capacity in [1usize, 4, 64, 4, 1] {
                let pooled = SimConfig::default().capacity(capacity);
                let fresh = pooled.clone().scratch(ScratchPool::fresh());
                let a = simulate_program(&p, &labeled, mode, &pooled).unwrap();
                let b = simulate_program(&p, &labeled, mode, &fresh).unwrap();
                let b_report = strip_cache_counters(&b.report);
                assert_eq!(
                    strip_cache_counters(&a.report),
                    b_report,
                    "{mode} @ {capacity}"
                );
                assert!(a.memory.diff(&b.memory, 8).is_empty());
            }
        }
        // Executor buffers pass between units of different shapes (index
        // environments, value and induction registers, loop depth), the
        // serial spans and a WHILE region, in both orders through one pool.
        let programs = [shapes_program(), recurrence_program()];
        let labeled: Vec<_> = programs.iter().map(labeled_program).collect();
        let proc = &programs[0].procedures[0];
        let cache = LoweredCache::fresh();
        for order in [[0, 1], [1, 0]] {
            let pool = ScratchPool::fresh();
            for mode in [ExecMode::Hose, ExecMode::Case] {
                for capacity in [1usize, 4, 64] {
                    for &i in &order {
                        let pooled = SimConfig::default()
                            .capacity(capacity)
                            .cache(cache.clone())
                            .scratch(pool.clone());
                        let fresh = pooled.clone().scratch(ScratchPool::fresh());
                        let a = simulate_program(&programs[i], &labeled[i], mode, &pooled);
                        let b = simulate_program(&programs[i], &labeled[i], mode, &fresh);
                        let (a, b) = (a.unwrap(), b.unwrap());
                        let at = format!("{order:?} {mode} @ {capacity}: program {i}");
                        let b_report = strip_cache_counters(&b.report);
                        assert_eq!(strip_cache_counters(&a.report), b_report, "{at}");
                        assert!(a.memory.diff(&b.memory, 8).is_empty(), "{at}");
                    }
                }
            }
        }
        let body = |region| {
            let key = LowerKey::new(proc, region, LowerUnit::RegionBody);
            cache.lookup(key, || unreachable!()).value
        };
        assert!(body("R3").induction_reduced_refs() > 0);
        assert_eq!(body("RW").induction_reduced_refs(), 0);
        // Both regions degrade after part of them has committed: the call's
        // one snapshot buffer must rewind each region to its own pre-state.
        let p = accumulating_two_region_program();
        let labeled = labeled_program(&p);
        let seq = run_program_sequential(&p, &labeled, &SimConfig::default()).unwrap();
        let degrading = SimConfig::default()
            .faults(crate::FaultPlan::seeded(1).violation_at(6, 0))
            .restart_budget(0);
        for mode in [ExecMode::Hose, ExecMode::Case] {
            for pool in [degrading.scratch.clone(), ScratchPool::fresh()] {
                let cfg = degrading.clone().scratch(pool);
                let out = simulate_program(&p, &labeled, mode, &cfg).unwrap();
                let degraded = out.report.degraded_regions();
                assert_eq!(degraded.len(), 2, "{mode}: {degraded:?}");
                let diffs = seq.memory.diff(&out.memory, 8);
                assert!(diffs.is_empty(), "{mode}: {diffs:?}");
            }
        }
    }

    #[test]
    fn warm_calls_leave_every_pooled_buffer_in_place() {
        // After one warm call, an identical call finds every buffer it
        // needs in the pool — each processor's storage buffers and the
        // executor buffers of the segments and serial spans — and hands
        // each back at the same heap address.
        use crate::engine::ScratchPool;
        let p = shapes_program();
        let labeled = labeled_program(&p);
        let pool = ScratchPool::fresh();
        let pooled = || {
            let scratch = pool.take();
            let addrs = scratch.heap_addrs();
            pool.restore(scratch);
            addrs
        };
        for mode in [ExecMode::Case, ExecMode::Hose] {
            let cfg = SimConfig::default().capacity(4).scratch(pool.clone());
            simulate_program(&p, &labeled, mode, &cfg).unwrap();
            let warm = pooled();
            let (stores, execs, _) = &warm;
            assert_eq!(*stores, cfg.processors, "one storage pair per processor");
            assert_eq!(*execs, cfg.processors + 1, "segments plus the serial spans");
            simulate_program(&p, &labeled, mode, &cfg).unwrap();
            assert_eq!(pooled(), warm, "{mode}");
        }
    }

    #[test]
    fn scratch_pool_survives_worker_thread_churn() {
        // The original thread_local pool died with every SweepExec worker;
        // the config's shared pool must not: a run on one short-lived
        // thread parks its scratch where a *different* later thread's run
        // finds it.
        use crate::engine::ScratchPool;
        let p = two_region_program();
        let labeled = labeled_program(&p);
        let pool = ScratchPool::fresh();
        let cfg = SimConfig::default().scratch(pool.clone());
        std::thread::scope(|s| {
            s.spawn(|| simulate_program(&p, &labeled, ExecMode::Case, &cfg).unwrap())
                .join()
                .unwrap();
        });
        assert_eq!(pool.len(), 1, "worker's scratch outlives its thread");
        std::thread::scope(|s| {
            s.spawn(|| simulate_program(&p, &labeled, ExecMode::Hose, &cfg).unwrap())
                .join()
                .unwrap();
        });
        assert_eq!(pool.len(), 1, "second worker reused the parked scratch");
        // An errored run drops its scratch instead of parking marks.
        let empty = ScratchPool::fresh();
        assert!(empty.is_empty());
        assert_eq!(SimConfig::default().scratch, SimConfig::default().scratch);
    }

    #[test]
    fn sweeps_under_the_default_cache_bound_never_evict() {
        // Satellite guarantee: the default LRU bound is generous enough
        // that an ordinary capacity-ladder sweep reports zero evictions.
        let p = two_region_program();
        let labeled = labeled_program(&p);
        let cfg = SimConfig::default().cache(LoweredCache::fresh());
        for mode in [ExecMode::Hose, ExecMode::Case] {
            for capacity in [1usize, 2, 4, 16, 256] {
                let out =
                    simulate_program(&p, &labeled, mode, &cfg.clone().capacity(capacity)).unwrap();
                assert_eq!(out.report.lowering_cache_evictions, 0);
                assert!(out
                    .report
                    .regions
                    .iter()
                    .all(|r| r.lowering_cache_evictions == 0));
            }
        }
        assert_eq!(cfg.cache.evictions(), 0);
        // A deliberately tiny bound *does* evict — and the report's
        // counter attributes those evictions to the run that paid them.
        let tiny = SimConfig::default().cache(LoweredCache::with_capacity(1));
        let out = simulate_program(&p, &labeled, ExecMode::Case, &tiny).unwrap();
        assert!(out.report.lowering_cache_evictions > 0);
        assert_eq!(tiny.cache.evictions(), out.report.lowering_cache_evictions);
    }

    #[test]
    fn region_bounds_must_be_constant() {
        // do k = 1, n where n is a scalar variable (not a parameter).
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[8]);
        let n = b.scalar("n");
        let k = b.index("k");
        let s = b.assign_elem(a, vec![av(k)], num(1.0));
        let region = b.do_loop_labeled("VARB", k, ac(1), av(n), vec![s]);
        let mut p = Program::new("varb");
        p.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&p, "VARB").unwrap();
        let err = simulate_region(&p, &labeled, ExecMode::Hose, &SimConfig::default()).unwrap_err();
        assert_eq!(err, SimError::RegionBoundsNotConstant);
    }
}
