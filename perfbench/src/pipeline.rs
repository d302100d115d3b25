//! Every call the benchmark makes into the refidem crates lives in this
//! module: the oracle a subject program is checked against, and one op —
//! discover → label → simulate — run plainly or with a span around each
//! layer's public function. A change to those crates' interfaces is
//! adapted here and nowhere else.

use crate::trace::{self, Tracer};
use refidem_analysis::classify::VarClass;
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::schedule::discover_regions;
use refidem_core::cache::{AnalysisCache, AnalysisKey, AnalysisTally};
use refidem_core::label::{label_program, label_region, LabeledProgram, LabeledRegion};
use refidem_ir::ids::ProcId;
use refidem_ir::lowered::{fused::fuse, lower_with_ranges, LoweredCache};
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::program::Program;
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_specsim::{
    run_program_sequential, simulate_program, ExecMode, ProgramReport, ScratchPool, SimConfig,
    SpecRuntime,
};
use refidem_testkit::diff::{tamper_labeling, Tamper};

/// Every subject program has its code in procedure 0.
fn proc0() -> ProcId {
    ProcId::from_index(0)
}

/// A program an op runs, with the oracle its outputs are checked against.
pub struct Subject {
    /// Display name.
    pub name: String,
    /// The program.
    pub program: Program,
    /// Per scheduled region, whether the compiler cannot parallelize it
    /// (the regions the paper's idempotency claim is about).
    speculative: Vec<bool>,
    /// Final memory of the tree-walk sequential interpretation.
    pub oracle: Memory,
    /// Address ranges of region-private variables, which are dead at
    /// region exit and excluded from the comparison.
    ignored: Vec<(u64, u64)>,
    /// Whole-program cycles of the sequential run (the speedup base).
    pub seq_cycles: u64,
    /// Statement units the sequential run executes.
    pub seq_stmts: u64,
}

impl Subject {
    /// Labels `program`, runs it on the tree-walk oracle, and records the
    /// final memory and the sequential cycle and statement counts.
    pub fn new(name: String, program: Program) -> Result<Self, String> {
        let labeled =
            label_program(&program, proc0()).map_err(|e| format!("{name}: labeling: {e}"))?;
        let oracle_cfg = SimConfig::default()
            .oracle()
            .cache(LoweredCache::fresh())
            .analysis_cache(AnalysisCache::fresh())
            .scratch(ScratchPool::fresh());
        let seq = run_program_sequential(&program, &labeled, &oracle_cfg)
            .map_err(|e| format!("{name}: oracle: {e}"))?;
        // With free accesses and unit statement cost the cycle count is the
        // number of statement units executed.
        let mut step_cfg = oracle_cfg;
        step_cfg.lat_nonspec = 0;
        step_cfg.stmt_cost = 1;
        let steps = run_program_sequential(&program, &labeled, &step_cfg)
            .map_err(|e| format!("{name}: oracle: {e}"))?;
        let proc = program.procedure(proc0());
        let layout = Layout::new(&proc.vars);
        let mut ignored = Vec::new();
        let mut speculative = Vec::new();
        for region in &labeled.regions {
            speculative.push(!region.analysis.compiler_parallelizable);
            for (v, class) in region.analysis.classes.iter() {
                if class == VarClass::Private {
                    let base = layout.base(v).0;
                    ignored.push((base, base + proc.vars.kind(v).size() as u64));
                }
            }
        }
        Ok(Subject {
            name,
            program,
            speculative,
            oracle: seq.memory,
            ignored,
            seq_cycles: seq.total_cycles,
            seq_stmts: steps.total_cycles,
        })
    }

    /// Words of `memory` that differ bit-wise from the oracle, outside
    /// region-private variables.
    pub fn mismatches(&self, memory: &Memory) -> usize {
        if memory.len() != self.oracle.len() {
            return self.oracle.len().max(memory.len());
        }
        (0..self.oracle.len() as u64)
            .filter(|&w| !self.ignored.iter().any(|&(lo, hi)| w >= lo && w < hi))
            .filter(|&w| self.oracle.load(Addr(w)).to_bits() != memory.load(Addr(w)).to_bits())
            .count()
    }

    /// Whether region `i` of the schedule is one the compiler cannot
    /// parallelize.
    pub fn speculative_region(&self, i: usize) -> bool {
        self.speculative.get(i).copied().unwrap_or(false)
    }
}

/// How one op runs.
pub struct OpSpec<'a> {
    /// The program.
    pub subject: &'a Subject,
    /// The modes simulated, in order.
    pub modes: &'a [ExecMode],
    /// The configuration (its caches are the op's warm caches).
    pub cfg: &'a SimConfig,
    /// Cold: label through a fresh `AnalysisCache`, compile every simulate
    /// call through a fresh `LoweredCache`, one fresh `ScratchPool` per op.
    pub cold: bool,
    /// Traced: the real-thread runtime's configurations at the workload's
    /// segment threads and at one thread. The traced op runs the program
    /// on both (the first only when the op itself runs on the simulator)
    /// and on the sequential interpreter.
    pub thread_probes: Option<(&'a SimConfig, &'a SimConfig)>,
    /// Labeling corruption applied before simulating (non-vacuity tests).
    pub tamper: Option<Tamper>,
}

/// What one op produced.
pub struct OpOutput {
    /// The labeled program the simulations ran.
    pub labeled: LabeledProgram,
    /// This op's analysis-cache traffic.
    pub analysis: AnalysisTally,
    /// One report and final memory per mode.
    pub runs: Vec<(ExecMode, ProgramReport, Memory)>,
    /// Final memories of the traced probes that execute the program.
    pub probe_memories: Vec<Memory>,
    /// Reports of the traced real-thread probes at the workload's segment
    /// threads.
    pub probe_reports: Vec<ProgramReport>,
}

/// Work counts the traced op records where the work happens.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Regions discovered.
    pub regions: u64,
    /// Reference sites of the regions analyzed.
    pub sites: u64,
    /// Dependences found by the regions analyzed.
    pub dep_pairs: u64,
    /// Instructions of the lowered region bodies.
    pub lower_insts: u64,
    /// Instructions of the fused region bodies.
    pub fuse_insts: u64,
    /// Superinstructions of the fused region bodies.
    pub superinsts: u64,
}

fn simulate(
    spec: &OpSpec<'_>,
    labeled: &LabeledProgram,
    mode: ExecMode,
    scratch: &Option<ScratchPool>,
) -> Result<(ExecMode, ProgramReport, Memory), String> {
    let out = match scratch {
        Some(pool) => {
            let cfg = spec
                .cfg
                .clone()
                .cache(LoweredCache::fresh())
                .scratch(pool.clone());
            simulate_program(&spec.subject.program, labeled, mode, &cfg)
        }
        None => simulate_program(&spec.subject.program, labeled, mode, spec.cfg),
    }
    .map_err(|e| format!("{} {mode}: {e}", spec.subject.name))?;
    Ok((mode, out.report, out.memory))
}

fn tampered(mut labeled: LabeledProgram, tamper: Option<Tamper>) -> LabeledProgram {
    if let Some(t) = tamper {
        for region in &mut labeled.regions {
            tamper_labeling(&mut region.labeling, t);
        }
    }
    labeled
}

/// Runs one op: label every region through the analysis cache, then
/// simulate the whole program under each mode.
pub fn run_op(spec: &OpSpec<'_>) -> Result<OpOutput, String> {
    let cache = if spec.cold {
        AnalysisCache::fresh()
    } else {
        spec.cfg.analysis_cache.clone()
    };
    let scratch = spec.cold.then(ScratchPool::fresh);
    let (labeled, analysis) = cache
        .label_program_cached(&spec.subject.program, proc0())
        .map_err(|e| format!("{}: labeling: {e}", spec.subject.name))?;
    let labeled = tampered(labeled, spec.tamper);
    let runs = spec
        .modes
        .iter()
        .map(|&mode| simulate(spec, &labeled, mode, &scratch))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(OpOutput {
        labeled,
        analysis,
        runs,
        probe_memories: Vec::new(),
        probe_reports: Vec::new(),
    })
}

/// The region loop of schedule entry `stmt_index`.
fn region_loop(program: &Program, stmt_index: usize) -> Option<&LoopStmt> {
    match program.procedure(proc0()).body.get(stmt_index) {
        Some(Stmt::Loop(l)) => Some(l),
        _ => None,
    }
}

/// [`run_op`] with a span around each layer's public function. Labeling
/// goes through the same cache lookups `label_program_cached` makes, one
/// layer at a time. Probes add what runs hidden inside another call or is
/// a reference point: on a cold op, `lower` and `fuse` of every region
/// body; on the thread runtime, the sequential interpreter and the
/// one-thread runtime on the same program.
pub fn run_op_traced(
    spec: &OpSpec<'_>,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<OpOutput, String> {
    let op = tr.begin(trace::OP);
    let result = traced_body(spec, tr, counts);
    tr.end(op);
    result
}

fn traced_body(
    spec: &OpSpec<'_>,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<OpOutput, String> {
    let program = &spec.subject.program;
    let name = &spec.subject.name;
    let cache = if spec.cold {
        AnalysisCache::fresh()
    } else {
        spec.cfg.analysis_cache.clone()
    };
    let scratch = spec.cold.then(ScratchPool::fresh);

    let s = tr.begin(trace::DISCOVER);
    let schedule = discover_regions(program, proc0());
    tr.end(s);
    counts.regions += schedule.regions.len() as u64;

    let mut analysis = AnalysisTally::default();
    let mut regions = Vec::with_capacity(schedule.regions.len());
    for r in &schedule.regions {
        let s = tr.begin(trace::ANALYSIS_CACHE);
        let key = AnalysisKey::new(program.procedure(r.spec.proc), r.spec.loop_label.clone());
        let lookup = cache.lookup(key, || {
            let a = tr.begin(trace::ANALYZE);
            let analyzed = RegionAnalysis::analyze(program, &r.spec);
            tr.end(a);
            let analyzed = analyzed?;
            counts.sites += analyzed.static_ref_count() as u64;
            counts.dep_pairs += analyzed.deps.len() as u64;
            let l = tr.begin(trace::LABEL);
            let labeling = label_region(&analyzed);
            tr.end(l);
            Ok(LabeledRegion {
                analysis: analyzed,
                labeling,
            })
        });
        tr.end(s);
        let lookup = lookup.map_err(|e| format!("{name}: labeling: {e}"))?;
        analysis.count(&lookup);
        regions.push(LabeledRegion::clone(&lookup.region));
    }
    let labeled = tampered(
        LabeledProgram {
            proc: proc0(),
            schedule,
            regions,
        },
        spec.tamper,
    );

    if spec.cold {
        let proc = program.procedure(proc0());
        let layout = Layout::new(&proc.vars);
        for r in &labeled.schedule.regions {
            let Some(region) = region_loop(program, r.stmt_index) else {
                continue;
            };
            let lo = region
                .lower
                .substitute_params(&|v| proc.vars.param_value(v));
            let hi = region
                .upper
                .substitute_params(&|v| proc.vars.param_value(v));
            let ranges = if lo.is_constant() && hi.is_constant() {
                let (a, b) = (lo.constant, hi.constant);
                vec![(region.index, (a.min(b), a.max(b)))]
            } else {
                Vec::new()
            };
            let s = tr.begin(trace::LOWER);
            let base = lower_with_ranges(&proc.vars, &layout, &region.body, &ranges);
            tr.end(s);
            let s = tr.begin(trace::FUSE);
            let fused = fuse(&base);
            tr.end(s);
            counts.lower_insts += base.inst_count() as u64;
            counts.fuse_insts += fused.inst_count() as u64;
            counts.superinsts += fused.superinst_count() as u64;
        }
    }

    let layer = match spec.cfg.runtime {
        SpecRuntime::Simulated => trace::ENGINE,
        SpecRuntime::Threads => trace::PARALLEL,
    };
    let mut runs = Vec::with_capacity(spec.modes.len());
    let mut probe_memories = Vec::new();
    let mut probe_reports = Vec::new();
    for &mode in spec.modes {
        let s = tr.begin(layer);
        let run = simulate(spec, &labeled, mode, &scratch);
        tr.end(s);
        runs.push(run?);
        let Some((threads, t1)) = spec.thread_probes else {
            continue;
        };
        if spec.cfg.runtime == SpecRuntime::Simulated {
            let p = tr.begin(trace::PROBE);
            let s = tr.begin(trace::PARALLEL);
            let out = simulate_program(program, &labeled, mode, threads);
            tr.end(s);
            tr.end(p);
            let out = out.map_err(|e| format!("{name} {mode} threads: {e}"))?;
            probe_memories.push(out.memory);
            probe_reports.push(out.report);
        }
        let s = tr.begin(trace::PARALLEL_T1);
        let out = simulate_program(program, &labeled, mode, t1);
        tr.end(s);
        probe_memories.push(out.map_err(|e| format!("{name} {mode} t1: {e}"))?.memory);
    }
    if spec.thread_probes.is_some() {
        let s = tr.begin(trace::SEQ_INTERP);
        let seq = run_program_sequential(program, &labeled, spec.cfg);
        tr.end(s);
        probe_memories.push(seq.map_err(|e| format!("{name} sequential: {e}"))?.memory);
    }
    Ok(OpOutput {
        labeled,
        analysis,
        runs,
        probe_memories,
        probe_reports,
    })
}

/// Compiles the sequential tier of `subject` into `cfg`'s warm caches.
pub fn warm_sequential(subject: &Subject, cfg: &SimConfig) -> Result<(), String> {
    let (labeled, _) = cfg
        .analysis_cache
        .label_program_cached(&subject.program, proc0())
        .map_err(|e| format!("{}: labeling: {e}", subject.name))?;
    run_program_sequential(&subject.program, &labeled, cfg)
        .map(|_| ())
        .map_err(|e| format!("{}: sequential warm-up: {e}", subject.name))
}
