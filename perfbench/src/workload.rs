//! The three workloads, their set-up, the timed closed loop, the traffic
//! self-checks and the metrics a run reports.
//!
//! Every workload is a closed loop with one client: each op starts when the
//! previous one has finished. The timed phase runs whole rounds — passes
//! over the workload's op pool, each in a seeded random order — until the
//! requested time has passed, so every round does the same work. Each op of
//! the pool runs hundreds of times in a run; its timing is the fastest of
//! them.

use crate::calib;
use crate::metrics::{self, Metric, ENGINE_COUNTERS, LADDER};
use crate::pipeline::{self, LayerCounts, OpOutput, OpSpec, Subject};
use crate::stats::{geomean, median, quantile, ratio};
use crate::trace::{self, Profile, Tracer};
use refidem_benchmarks::all_benchmarks;
use refidem_core::cache::AnalysisCache;
use refidem_ir::lowered::LoweredCache;
use refidem_specsim::{ExecMode, ProgramReport, ScratchPool, SimConfig, SpecRuntime};
use refidem_testkit::diff::Tamper;
use refidem_testkit::{generate, giant_block, Rng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Generated programs in the cold-compile pool: `generate(0..COLD_POOL)`,
/// the corpus the differential suites hold byte-exact at every ladder
/// capacity. (Draws outside it are not all sound yet:
/// `generate(12342987763080497008)` diverges from the oracle under HOSE at
/// capacity 16, so a pool of arbitrary draws would fail ops.)
pub const COLD_POOL: usize = 256;
/// One seeded giant block joins the cold-compile pool per this many
/// generated programs.
pub const GIANT_EVERY: usize = 16;
/// Speculative-storage capacity of the cold-compile simulations (a
/// differential-ladder point).
pub const COLD_CAPACITY: usize = 16;
/// Statements of a cold-compile giant block.
pub const GIANT_STMTS: usize = 128;
/// Segment threads of the threads-suite runtime.
pub const SEGMENT_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Fewest rounds a timed phase runs, however long they take.
pub const MIN_ROUNDS: usize = 3;
/// Fewest ops in one round.
pub const MIN_ROUND_OPS: usize = 100;
/// Ops of a traced phase exported to the Chrome trace file.
pub const EXPORTED_OPS: u32 = 200;

const BOTH: &[ExecMode] = &[ExecMode::Hose, ExecMode::Case];
const HOSE: &[ExecMode] = &[ExecMode::Hose];
const CASE: &[ExecMode] = &[ExecMode::Case];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The generated corpus plus seeded giant blocks through discover →
    /// label → simulate HOSE then CASE, with fresh caches every op.
    ColdCompile,
    /// The 14 suite programs at every (capacity, mode) ladder point
    /// through warm shared caches.
    WarmLadder,
    /// The 14 suite programs on the real-thread runtime at
    /// [`SEGMENT_THREADS`] threads, alternating HOSE and CASE, warm caches.
    ThreadsSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCompile,
        Workload::WarmLadder,
        Workload::ThreadsSuite,
    ];

    /// The workloads `BENCHMARK.json` lists, whose end-to-end metrics gate
    /// changes. `threads-suite` is run by hand: on a shared 2-core host its
    /// timings follow the host's speed almost one for one (even taken from
    /// each op's fastest run, five runs spread 0.16–0.23 of their median
    /// against a bound of 0.25), because its two segment threads need both
    /// cores fast at once. Its layers are still
    /// measured by the traced warm-ladder run's real-thread probes.
    pub const LISTED: [Workload; 2] = [Workload::ColdCompile, Workload::WarmLadder];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::WarmLadder => "warm-ladder",
            Workload::ThreadsSuite => "threads-suite",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs (the cold-compile giant blocks) and the op order.
    pub seed: u64,
    /// Seed of the op order alone (defaults to one derived from `seed`).
    pub order_seed: u64,
    /// Length of the timed phase (split evenly between the untraced and
    /// the traced phase of a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Generated programs in the cold-compile pool.
    pub pool: usize,
    /// Set-ups to time.
    pub setup_reps: usize,
    /// Labeling corruption applied before every simulation.
    pub tamper: Option<Tamper>,
}

impl RunSpec {
    /// A run with the default pool, set-up count and order.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunSpec {
            workload,
            seed,
            order_seed: seed ^ 0x9E37_79B9_7F4A_7C15,
            seconds,
            trace,
            pool: COLD_POOL,
            setup_reps: SETUP_REPS,
            tamper: None,
        }
    }
}

/// One op of the pool: a subject program, the modes it simulates, and
/// which of the workload's configurations it runs under.
#[derive(Clone, Copy, Debug)]
struct Op {
    subject: usize,
    modes: &'static [ExecMode],
    cfg: usize,
}

/// Engine counters summed over simulate calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct EngineTotals {
    calls: u64,
    cycles: u64,
    violations: u64,
    rollbacks: u64,
    overflow_stalls: u64,
    overflow_writethrough: u64,
    forwards: u64,
    commits: u64,
    peak: usize,
}

impl EngineTotals {
    fn add(&mut self, report: &ProgramReport) {
        self.calls += 1;
        self.cycles += report.total_cycles;
        for r in &report.regions {
            self.violations += r.violations;
            self.rollbacks += r.rollbacks;
            self.overflow_stalls += r.overflow_stalls;
            self.overflow_writethrough += r.overflow_writethrough;
            self.forwards += r.forwards;
            self.commits += r.commits;
            self.peak = self.peak.max(r.spec_peak_occupancy);
        }
    }

    /// Commits over attempts (commits + rollbacks + overflow stalls).
    fn useful_attempt_frac(&self) -> f64 {
        let attempts = self.commits + self.rollbacks + self.overflow_stalls;
        ratio(self.commits as f64, attempts as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        let per_call = |n: u64| ratio(n as f64, self.calls as f64);
        match name {
            "violations" => per_call(self.violations),
            "rollbacks" => per_call(self.rollbacks),
            "overflow_stalls" => per_call(self.overflow_stalls),
            "overflow_writethrough" => per_call(self.overflow_writethrough),
            "forwards" => per_call(self.forwards),
            "spec_peak_occupancy" => self.peak as f64,
            "useful_attempt_frac" => self.useful_attempt_frac(),
            other => unreachable!("unknown engine counter {other}"),
        }
    }
}

/// The deterministic outcome of one simulated pass over the op pool:
/// simulated speedups, the dynamic idempotent-reference fraction and the
/// engine's counters. It depends only on the inputs, never on timing or
/// op order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    hose_speedups: Vec<f64>,
    case_speedups: Vec<f64>,
    /// `bypass_fraction` of every CASE run of a speculative region.
    bypass_fractions: Vec<f64>,
    /// Keyed by capacity; `None` sums every capacity.
    engine: BTreeMap<Option<usize>, EngineTotals>,
}

impl Reference {
    fn add(&mut self, subject: &Subject, cfg: &SimConfig, mode: ExecMode, report: &ProgramReport) {
        if report.total_cycles > 0 {
            let speedup = subject.seq_cycles as f64 / report.total_cycles as f64;
            match mode {
                ExecMode::Hose => self.hose_speedups.push(speedup),
                ExecMode::Case => self.case_speedups.push(speedup),
            }
        }
        if mode == ExecMode::Case {
            for (i, r) in report.regions.iter().enumerate() {
                if subject.speculative_region(i) && r.degraded.is_none() && r.total_refs() > 0 {
                    self.bypass_fractions.push(r.bypass_fraction());
                }
            }
        }
        self.engine.entry(None).or_default().add(report);
        self.engine
            .entry(Some(cfg.spec_capacity))
            .or_default()
            .add(report);
    }

    /// Geometric mean of the HOSE whole-program speedups.
    pub fn hose_geo(&self) -> f64 {
        geomean(&self.hose_speedups)
    }

    /// Geometric mean of the CASE whole-program speedups.
    pub fn case_geo(&self) -> f64 {
        geomean(&self.case_speedups)
    }

    /// The share of dynamic references that bypass speculative storage
    /// under CASE, averaged over the runs of regions the compiler cannot
    /// parallelize (each region weighs the same, so one huge region does
    /// not decide it).
    pub fn idempotent_ref_frac(&self) -> f64 {
        let n = self.bypass_fractions.len() as f64;
        ratio(self.bypass_fractions.iter().sum(), n)
    }

    /// Every deterministic metric by name.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        out.insert("sim_case_speedup_geo".to_string(), self.case_geo());
        out.insert("sim_hose_speedup_geo".to_string(), self.hose_geo());
        out.insert(
            "idempotent_ref_frac".to_string(),
            self.idempotent_ref_frac(),
        );
        let none = EngineTotals::default();
        let all = self.engine.get(&None).unwrap_or(&none);
        out.insert(
            "specsim.engine.sim_cycles".to_string(),
            ratio(all.cycles as f64, all.calls as f64),
        );
        for (counter, _, _) in ENGINE_COUNTERS {
            out.insert(format!("specsim.engine.{counter}"), all.counter(counter));
            for cap in LADDER {
                // A workload that never runs at `cap` reads 0 there.
                let totals = self.engine.get(&Some(cap)).unwrap_or(&none);
                out.insert(
                    format!("specsim.engine.cap{cap}.{counter}"),
                    totals.counter(counter),
                );
            }
        }
        out
    }
}

/// A workload ready to time.
struct Prepared {
    subjects: Vec<Subject>,
    ops: Vec<Op>,
    /// The configurations ops run under.
    configs: Vec<SimConfig>,
    /// Their simulated twins, for the deterministic reference pass.
    sim_configs: Vec<SimConfig>,
    /// Per configuration, its real-thread twins at [`SEGMENT_THREADS`] and
    /// at one thread, for the traced probes (empty on cold-compile).
    thread_probes: Vec<(SimConfig, SimConfig)>,
    cold: bool,
}

impl Prepared {
    fn spec<'a>(&'a self, op: &Op, cfgs: &'a [SimConfig], tamper: Option<Tamper>) -> OpSpec<'a> {
        OpSpec {
            subject: &self.subjects[op.subject],
            modes: op.modes,
            cfg: &cfgs[op.cfg],
            cold: self.cold,
            thread_probes: self.thread_probes.get(op.cfg).map(|(t, t1)| (t, t1)),
            tamper,
        }
    }
}

/// The real-thread twins of `cfg` the traced probes run.
fn thread_twins(cfg: &SimConfig) -> (SimConfig, SimConfig) {
    let threads = cfg
        .clone()
        .processors(SEGMENT_THREADS)
        .runtime(SpecRuntime::Threads);
    (threads.clone(), threads.processors(1))
}

/// Shared warm caches for the suite workloads (fresh per set-up, never
/// the process-global ones).
fn warm_config() -> SimConfig {
    SimConfig::default()
        .cache(LoweredCache::fresh())
        .analysis_cache(AnalysisCache::fresh())
        .scratch(ScratchPool::fresh())
}

fn suite_subjects() -> Result<Vec<Subject>, String> {
    all_benchmarks()
        .into_iter()
        .map(|b| Subject::new(b.name.to_string(), b.program))
        .collect()
}

/// Builds the workload's programs, oracles, configurations and op pool.
fn build(spec: &RunSpec) -> Result<Prepared, String> {
    match spec.workload {
        Workload::ColdCompile => {
            let mut rng = Rng::new(spec.seed);
            let mut subjects = Vec::new();
            for i in 0..spec.pool as u64 {
                subjects.push(Subject::new(format!("gen#{i}"), generate(i).program)?);
                if i as usize % GIANT_EVERY == GIANT_EVERY - 1 {
                    let seed = rng.next_u64();
                    let (program, _) = giant_block(seed, GIANT_STMTS);
                    subjects.push(Subject::new(format!("giant#{seed}"), program)?);
                }
            }
            let ops = (0..subjects.len())
                .map(|subject| Op {
                    subject,
                    modes: BOTH,
                    cfg: 0,
                })
                .collect();
            let configs = vec![warm_config().capacity(COLD_CAPACITY)];
            Ok(Prepared {
                subjects,
                ops,
                sim_configs: configs.clone(),
                configs,
                thread_probes: Vec::new(),
                cold: true,
            })
        }
        Workload::WarmLadder => {
            let subjects = suite_subjects()?;
            let base = warm_config();
            let configs: Vec<SimConfig> =
                LADDER.iter().map(|&c| base.clone().capacity(c)).collect();
            let mut ops = Vec::new();
            for subject in 0..subjects.len() {
                for cfg in 0..configs.len() {
                    for modes in [HOSE, CASE] {
                        ops.push(Op {
                            subject,
                            modes,
                            cfg,
                        });
                    }
                }
            }
            Ok(Prepared {
                subjects,
                ops,
                sim_configs: configs.clone(),
                thread_probes: configs.iter().map(thread_twins).collect(),
                configs,
                cold: false,
            })
        }
        Workload::ThreadsSuite => {
            let subjects = suite_subjects()?;
            let (threads, t1) = thread_twins(&warm_config());
            let ops = (0..subjects.len())
                .flat_map(|subject| {
                    [HOSE, CASE].map(|modes| Op {
                        subject,
                        modes,
                        cfg: 0,
                    })
                })
                .collect();
            Ok(Prepared {
                subjects,
                ops,
                sim_configs: vec![threads.clone().runtime(SpecRuntime::Simulated)],
                thread_probes: vec![(threads.clone(), t1)],
                configs: vec![threads],
                cold: false,
            })
        }
    }
}

/// Counts of everything that ran, and the first failure of each kind.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops run (set-up passes and timed phases).
    pub attempted: u64,
    /// Ops that erred, panicked, or left memory differing from the oracle.
    pub failed: u64,
    /// The first op failure.
    pub first_failure: Option<String>,
    /// The first broken traffic self-check.
    pub self_check: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Checks one op's outputs against the oracle, and that the governor
    /// degraded no region (on every workload, the simulated engine and the
    /// thread runtime must complete every region speculatively); returns
    /// the output when the op completed.
    fn settle(&mut self, subject: &Subject, result: Result<OpOutput, String>) -> Option<OpOutput> {
        self.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.fail(e);
                return None;
            }
        };
        let memories = out
            .runs
            .iter()
            .map(|(_, _, m)| m)
            .chain(&out.probe_memories);
        let bad: usize = memories.map(|m| subject.mismatches(m)).sum();
        if bad > 0 {
            self.fail(format!(
                "{}: {bad} words differ from the oracle",
                subject.name
            ));
        }
        let reports = out.runs.iter().map(|(_, r, _)| r).chain(&out.probe_reports);
        let degraded: usize = reports.map(|r| r.degraded_regions().len()).sum();
        if degraded > 0 {
            self.self_check(format!(
                "{}: {degraded} regions degraded to serial re-execution",
                subject.name
            ));
        }
        Some(out)
    }

    fn self_check(&mut self, what: String) {
        self.self_check.get_or_insert(what);
    }
}

fn run_guarded(f: impl FnOnce() -> Result<OpOutput, String>) -> Result<OpOutput, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Proves a timed op is the traffic its workload claims.
fn check_traffic(
    workload: Workload,
    cfg: &SimConfig,
    subject: &Subject,
    out: &OpOutput,
) -> Result<(), String> {
    let name = &subject.name;
    let a = out.analysis;
    match workload {
        Workload::ColdCompile => {
            if a.hits > 0 || a.evictions > 0 {
                return Err(format!(
                    "{name}: analysis cache hits {} / evictions {} on a cold op",
                    a.hits, a.evictions
                ));
            }
            for (mode, r, _) in &out.runs {
                if r.lowering_cache_hits > 0
                    || r.lowering_cache_evictions > 0
                    || r.lowering_cache_misses == 0
                {
                    return Err(format!(
                        "{name} {mode}: lowering cache {} hits / {} misses / {} evictions on a cold op",
                        r.lowering_cache_hits, r.lowering_cache_misses, r.lowering_cache_evictions
                    ));
                }
            }
        }
        Workload::WarmLadder | Workload::ThreadsSuite => {
            if a.misses > 0 || a.evictions > 0 {
                return Err(format!(
                    "{name}: analysis cache misses {} / evictions {} on a warm op",
                    a.misses, a.evictions
                ));
            }
            for (mode, r, _) in &out.runs {
                if r.lowering_cache_misses > 0 || r.lowering_cache_evictions > 0 {
                    return Err(format!(
                        "{name} {mode}: lowering cache {} misses / {} evictions on a warm op",
                        r.lowering_cache_misses, r.lowering_cache_evictions
                    ));
                }
            }
        }
    }
    if workload == Workload::ThreadsSuite {
        if cfg.runtime != SpecRuntime::Threads || cfg.processors != SEGMENT_THREADS {
            return Err(format!(
                "ran {:?} at {} threads, not Threads at {SEGMENT_THREADS}",
                cfg.runtime, cfg.processors
            ));
        }
        for (mode, r, _) in &out.runs {
            // The real-thread runtime reports no simulated cycles.
            if r.regions.iter().any(|g| g.region_cycles != 0) {
                return Err(format!("{name} {mode}: a region ran on the simulator"));
            }
        }
    }
    Ok(())
}

/// Set-up number `rep`: build, then run every op once untimed, in an order
/// drawn from the run's order seed and `rep` — the deterministic reference
/// pass (on the simulator) and, for the suites, the cache warm-up. The
/// reports are folded into the reference in pool order, so only an effect
/// of the run order on the simulations themselves can change it.
fn setup(spec: &RunSpec, rep: u64, tally: &mut Tally) -> Result<(Prepared, Reference), String> {
    let prepared = build(spec)?;
    let mut rng = Rng::new(spec.order_seed ^ (rep + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut reports: Vec<Vec<(ExecMode, ProgramReport)>> =
        prepared.ops.iter().map(|_| Vec::new()).collect();
    for i in shuffled(prepared.ops.len(), &mut rng) {
        let op_spec = prepared.spec(&prepared.ops[i], &prepared.sim_configs, spec.tamper);
        if let Some(out) = tally.settle(op_spec.subject, run_guarded(|| pipeline::run_op(&op_spec)))
        {
            reports[i] = out.runs.into_iter().map(|(m, r, _)| (m, r)).collect();
        }
    }
    let mut reference = Reference::default();
    for (op, runs) in prepared.ops.iter().zip(&reports) {
        for (mode, report) in runs {
            reference.add(
                &prepared.subjects[op.subject],
                &prepared.sim_configs[op.cfg],
                *mode,
                report,
            );
        }
    }
    if spec.workload == Workload::ThreadsSuite {
        for op in &prepared.ops {
            let op_spec = prepared.spec(op, &prepared.configs, spec.tamper);
            tally.settle(op_spec.subject, run_guarded(|| pipeline::run_op(&op_spec)));
        }
        // Warm the compiled sequential tier the traced probe runs.
        for subject in &prepared.subjects {
            pipeline::warm_sequential(subject, &prepared.configs[0])?;
        }
    }
    Ok((prepared, reference))
}

/// The timing statistics of one round, as measured.
struct Round {
    p50_ns: f64,
    /// The mean of the host-speed kernel times taken right before and
    /// right after the round.
    calib_ns: f64,
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    /// Ops timed. (Samples are kept per round only, so the memory the
    /// benchmark holds does not grow with the speed of the code.)
    timed_ops: usize,
    rounds: Vec<Round>,
    /// Per op of the pool, its fastest wall time.
    best_ns: Vec<f64>,
    analysis_hits: u64,
    analysis_misses: u64,
    analysis_evictions: u64,
    lowering_hits: u64,
    lowering_misses: u64,
    lowering_evictions: u64,
    idempotent_static: u64,
    total_static: u64,
    /// Regions the governor degraded to serial re-execution.
    degraded: u64,
    /// Sequential statement units of each op's program.
    op_stmts: u64,
    /// Sequential statement units of each simulated program, per call.
    sim_stmts: u64,
    parallel: EngineTotals,
    parallel_regions: u64,
}

impl Phase {
    fn record(&mut self, subject: &Subject, out: &OpOutput, threads: bool) {
        self.analysis_hits += out.analysis.hits;
        self.analysis_misses += out.analysis.misses;
        self.analysis_evictions += out.analysis.evictions;
        for region in &out.labeled.regions {
            let stats = region.stats();
            self.idempotent_static += stats.idempotent_static as u64;
            self.total_static += stats.total_static as u64;
        }
        self.op_stmts += subject.seq_stmts;
        for (_, r, _) in &out.runs {
            self.lowering_hits += r.lowering_cache_hits;
            self.lowering_misses += r.lowering_cache_misses;
            self.lowering_evictions += r.lowering_cache_evictions;
            self.degraded += r.degraded_regions().len() as u64;
            self.sim_stmts += subject.seq_stmts;
            if threads {
                self.parallel.add(r);
                self.parallel_regions += r.regions.len() as u64;
            }
        }
        for r in &out.probe_reports {
            self.degraded += r.degraded_regions().len() as u64;
            self.parallel.add(r);
            self.parallel_regions += r.regions.len() as u64;
        }
    }
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Runs whole rounds until `seconds` have passed (and at least
/// [`MIN_ROUNDS`] rounds), timing every op, into `phase`. A round is as
/// many passes over the pool, each in a fresh random order, as it takes to
/// reach [`MIN_ROUND_OPS`] ops, so its p90 has at least ten samples beyond
/// it.
fn timed_phase(
    spec: &RunSpec,
    prepared: &Prepared,
    tally: &mut Tally,
    rng: &mut Rng,
    seconds: f64,
    mut tracer: Option<(&mut Tracer, &mut LayerCounts)>,
    phase: &mut Phase,
) {
    let first_round = phase.rounds.len();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let threads = spec.workload == Workload::ThreadsSuite;
    let passes = MIN_ROUND_OPS.div_ceil(prepared.ops.len().max(1));
    let mut calib_before = calib::measure();
    let mut round_ns: Vec<f64> = Vec::with_capacity(passes * prepared.ops.len());
    phase.best_ns.resize(prepared.ops.len(), f64::INFINITY);
    let start = Instant::now();
    loop {
        let order: Vec<usize> = (0..passes)
            .flat_map(|_| shuffled(prepared.ops.len(), rng))
            .collect();
        round_ns.clear();
        for &i in &order {
            let op = &prepared.ops[i];
            let op_spec = prepared.spec(op, &prepared.configs, spec.tamper);
            let t0 = Instant::now();
            let result = match tracer.as_mut() {
                Some((tr, counts)) => run_guarded(|| pipeline::run_op_traced(&op_spec, tr, counts)),
                None => run_guarded(|| pipeline::run_op(&op_spec)),
            };
            let ns = t0.elapsed().as_nanos() as f64;
            round_ns.push(ns);
            phase.best_ns[i] = phase.best_ns[i].min(ns);
            let subject = op_spec.subject;
            if let Some(out) = tally.settle(subject, result) {
                if let Err(e) = check_traffic(spec.workload, op_spec.cfg, subject, &out) {
                    tally.self_check(format!("{} self-check: {e}", spec.workload.name()));
                }
                phase.record(subject, &out, threads);
            }
        }
        phase.timed_ops += round_ns.len();
        let calib_after = calib::measure();
        phase.rounds.push(Round {
            p50_ns: median(&round_ns),
            calib_ns: (calib_before + calib_after) / 2.0,
        });
        calib_before = calib_after;
        if phase.rounds.len() - first_round >= MIN_ROUNDS && start.elapsed() >= budget {
            return;
        }
    }
}

/// Restarts the process's peak resident set (`VmHWM`) from its current
/// resident set, so that a workload run after another in one process
/// reports its own peak. Without the Linux `clear_refs` interface the peak
/// stays the process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// What one run produced.
pub struct Outcome {
    /// Op counts and failures.
    pub tally: Tally,
    /// The metrics of the run: end-to-end when untraced, per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Host-speed diagnostics: the median time of the [`calib`] kernel
    /// over the rounds (untraced runs only).
    pub diagnostics: Vec<Metric>,
    /// The deterministic reference of the last set-up.
    pub reference: Reference,
    /// Ops timed (in the traced phase of a traced run).
    pub timed_ops: usize,
    /// Rounds those ops ran in.
    pub rounds: usize,
    /// The traced phase's per-layer self-time table (traced runs only).
    pub layer_table: Option<String>,
    /// The traced phase's Chrome trace (traced runs only).
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Ops that failed over ops attempted.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.tally.failed as f64, self.tally.attempted as f64)
    }

    /// Whether every output matched the oracle and every self-check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.self_check.is_none()
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Runs one workload: [`RunSpec::setup_reps`] timed set-ups (every one
/// must reproduce the same deterministic reference), each followed by an
/// equal share of the untraced timed phase on what it set up — and, for a
/// traced run, a traced phase after them. Spreading the set-ups over the
/// run lets their median, like the rounds, sample the host's speed over
/// the whole run rather than over its first moments.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    reset_peak_rss();
    let mut tally = Tally::default();
    let mut rng = Rng::new(spec.order_seed);
    let reps = spec.setup_reps.max(1);
    let untraced_seconds = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    let mut setup_s = Vec::new();
    let mut untraced = Phase::default();
    let mut prepared: Option<Prepared> = None;
    let mut reference: Option<Reference> = None;
    for rep in 0..reps {
        drop(prepared.take());
        let t0 = Instant::now();
        let (this, this_reference) = setup(spec, rep as u64, &mut tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if reference.as_ref().is_some_and(|r| *r != this_reference) {
            tally.self_check("set-ups disagree on the deterministic metrics".to_string());
        }
        timed_phase(
            spec,
            &this,
            &mut tally,
            &mut rng,
            untraced_seconds / reps as f64,
            None,
            &mut untraced,
        );
        prepared = Some(this);
        reference = Some(this_reference);
    }
    let prepared = prepared.expect("at least one set-up");
    let reference = reference.expect("at least one set-up");

    if !spec.trace {
        let phase = untraced;
        let calib: Vec<f64> = phase.rounds.iter().map(|r| r.calib_ns).collect();
        let diagnostics = vec![metric("calib_ns", "ns", median(&calib))];
        // Timings come from each op's fastest run. Other tenants of a
        // shared host slow everything by up to 2× for seconds at a time,
        // and leave it fast only now and then; every op of the pool runs
        // hundreds of times, so its fastest run is one they did not slow,
        // while slower code slows every run.
        let best = &phase.best_ns;
        let metrics = metrics::END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "setup_s" => median(&setup_s),
                    "ops_per_s" => ratio(best.len() as f64 * 1e9, best.iter().sum()),
                    "op_ms_p50" => median(best) / 1e6,
                    "op_ms_p90" => quantile(best, 0.9) / 1e6,
                    "peak_rss_mb" => peak_rss_mib(),
                    "sim_case_speedup_geo" => reference.case_geo(),
                    "sim_hose_speedup_geo" => reference.hose_geo(),
                    "idempotent_ref_frac" => reference.idempotent_ref_frac(),
                    other => unreachable!("unmeasured end-to-end metric {other}"),
                };
                metric(m.name, m.unit, value)
            })
            .collect();
        return Ok(Outcome {
            tally,
            metrics,
            diagnostics,
            reference,
            timed_ops: phase.timed_ops,
            rounds: phase.rounds.len(),
            layer_table: None,
            chrome_trace: None,
        });
    }

    let mut tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let mut traced = Phase::default();
    timed_phase(
        spec,
        &prepared,
        &mut tally,
        &mut rng,
        spec.seconds / 2.0,
        Some((&mut tracer, &mut counts)),
        &mut traced,
    );
    let profile = Profile::of(tracer.spans());
    let metrics = layer_metrics(&reference, &untraced, &traced, &profile, &counts);
    Ok(Outcome {
        layer_table: Some(profile.table()),
        chrome_trace: Some(trace::chrome_trace(
            tracer.spans(),
            &format!("perfbench {}", spec.workload.name()),
            EXPORTED_OPS,
        )),
        tally,
        metrics,
        diagnostics: Vec::new(),
        reference,
        timed_ops: traced.timed_ops,
        rounds: traced.rounds.len(),
    })
}

fn layer_metrics(
    reference: &Reference,
    untraced: &Phase,
    traced: &Phase,
    profile: &Profile,
    counts: &LayerCounts,
) -> Vec<Metric> {
    let ops = traced.timed_ops as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let self_ns = |layer: &str| profile.self_ns.get(layer).copied().unwrap_or(0) as f64;
    let deterministic = reference.metrics();
    // Tracing overhead: each traced round's median op time without the
    // probes against each untraced round's median op time.
    let effective: Vec<f64> = profile
        .op_ns
        .iter()
        .zip(&profile.probe_ns)
        .map(|(op, probe)| op - probe)
        .collect();
    let per_round = (effective.len() / traced.rounds.len().max(1)).max(1);
    let traced_p50: Vec<f64> = effective
        .chunks(per_round)
        .take(traced.rounds.len())
        .map(median)
        .collect();
    let untraced_p50: Vec<f64> = untraced.rounds.iter().map(|r| r.p50_ns).collect();
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = if let Some(layer) = name.strip_suffix(".ns") {
                self_ns(layer) / ops.max(1.0)
            } else if let Some(v) = deterministic.get(&name) {
                *v
            } else {
                match name.as_str() {
                    "analysis.discover_regions.regions" => per_op(counts.regions),
                    "analysis.region_analyze.sites" => per_op(counts.sites),
                    "analysis.region_analyze.dep_pairs" => per_op(counts.dep_pairs),
                    "core.label_region.idempotent_static_frac" => {
                        ratio(traced.idempotent_static as f64, traced.total_static as f64)
                    }
                    "core.analysis_cache.hit_ratio" => ratio(
                        traced.analysis_hits as f64,
                        (traced.analysis_hits + traced.analysis_misses) as f64,
                    ),
                    "core.analysis_cache.misses" => per_op(traced.analysis_misses),
                    "core.analysis_cache.evictions" => per_op(traced.analysis_evictions),
                    "ir.lower.insts" => per_op(counts.lower_insts),
                    "ir.fuse.insts" => per_op(counts.fuse_insts),
                    "ir.fuse.superinsts" => per_op(counts.superinsts),
                    "ir.lowered_cache.hit_ratio" => ratio(
                        traced.lowering_hits as f64,
                        (traced.lowering_hits + traced.lowering_misses) as f64,
                    ),
                    "ir.lowered_cache.misses" => per_op(traced.lowering_misses),
                    "ir.lowered_cache.evictions" => per_op(traced.lowering_evictions),
                    "ir.seq_interp.ns_per_stmt" => {
                        ratio(self_ns(trace::SEQ_INTERP), traced.op_stmts as f64)
                    }
                    "specsim.engine.ns_per_stmt" => {
                        ratio(self_ns(trace::ENGINE), traced.sim_stmts as f64)
                    }
                    "specsim.parallel.ns_per_region" => {
                        ratio(self_ns(trace::PARALLEL), traced.parallel_regions as f64)
                    }
                    "specsim.parallel.rollbacks" => per_op(traced.parallel.rollbacks),
                    "specsim.parallel.violations" => per_op(traced.parallel.violations),
                    "specsim.parallel.overflow_stalls" => per_op(traced.parallel.overflow_stalls),
                    "specsim.parallel.useful_attempt_frac" => traced.parallel.useful_attempt_frac(),
                    "specsim.parallel.speedup_vs_seq" => {
                        ratio(self_ns(trace::SEQ_INTERP), self_ns(trace::PARALLEL))
                    }
                    "specsim.parallel.thread_scaling" => {
                        ratio(self_ns(trace::PARALLEL_T1), self_ns(trace::PARALLEL))
                    }
                    "specsim.governor.degraded_regions" => per_op(traced.degraded),
                    "trace.uncovered_frac" => {
                        ratio(profile.uncovered_ns as f64, profile.total_op_ns())
                    }
                    "trace.overhead_frac" => {
                        ratio(median(&traced_p50), median(&untraced_p50)) - 1.0
                    }
                    "trace.spans_per_op" => ratio(profile.spans as f64, ops),
                    other => unreachable!("unmeasured per-layer metric {other}"),
                }
            };
            metric(name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_checks_reject_the_other_workloads_traffic() {
        let subject = Subject::new("gen#3".into(), generate(3).program).expect("oracle runs");
        let cfg = warm_config().capacity(COLD_CAPACITY);
        let spec = |cold| OpSpec {
            subject: &subject,
            modes: BOTH,
            cfg: &cfg,
            cold,
            thread_probes: None,
            tamper: None,
        };
        let cold = pipeline::run_op(&spec(true)).expect("runs");
        assert_eq!(
            check_traffic(Workload::ColdCompile, &cfg, &subject, &cold),
            Ok(())
        );
        assert!(check_traffic(Workload::WarmLadder, &cfg, &subject, &cold).is_err());

        pipeline::run_op(&spec(false)).expect("warms the caches");
        let warm = pipeline::run_op(&spec(false)).expect("runs");
        assert_eq!(
            check_traffic(Workload::WarmLadder, &cfg, &subject, &warm),
            Ok(())
        );
        assert!(check_traffic(Workload::ColdCompile, &cfg, &subject, &warm).is_err());
        // Warm, but on the simulator rather than the thread runtime.
        assert!(check_traffic(Workload::ThreadsSuite, &cfg, &subject, &warm).is_err());
    }

    #[test]
    fn every_workload_passes_its_own_checks() {
        for workload in Workload::ALL {
            let mut spec = RunSpec::new(workload, 2, 0.0, true);
            spec.pool = 16;
            spec.setup_reps = 2;
            let outcome = run(&spec).expect("runs");
            assert!(
                outcome.correct(),
                "{workload:?}: {:?} {:?}",
                outcome.tally.first_failure,
                outcome.tally.self_check
            );
            assert_eq!(outcome.metrics.len(), metrics::per_layer().len());
            // The real-thread runtime's layers are measured on both suites.
            if workload != Workload::ColdCompile {
                let value = |name: &str| {
                    outcome
                        .metrics
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value)
                };
                for name in [
                    "specsim.parallel.ns",
                    "specsim.parallel.t1.ns",
                    "ir.seq_interp.ns",
                    "specsim.parallel.useful_attempt_frac",
                ] {
                    assert!(value(name) > 0.0, "{workload:?}: {name} reads 0");
                }
            }
        }
    }
}
