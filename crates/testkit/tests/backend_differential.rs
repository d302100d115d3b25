//! Oracle-vs-compiled differential suite.
//!
//! The compiled engine (`refidem_ir::lowered`: the one compile pipeline,
//! `lower` then `fuse` for the units that repeat) must be *observationally
//! identical* to the tree-walking interpreter, not merely produce the same
//! final memory: same access order (traces), same dynamic counts, same
//! statement-unit accounting, and — under the speculation engine — the same
//! violations, roll-backs, overflows and cycle counts at every capacity
//! point. This suite asserts exactly that across all 1024 generated testkit
//! programs and every named benchmark loop, sharding the corpus over the
//! sweep executor (a failing seed's assertion panic propagates out of the
//! pool with the seed's identity in the message).

use refidem_benchmarks::{all_benchmarks, all_named_loops};
use refidem_core::label::label_program;
use refidem_ir::affine::AffineExpr;
use refidem_ir::exec::{AnyExec, CountingStore, DynCounts, PlainStore, SeqInterp, TraceEvent};
use refidem_ir::ids::{ProcId, VarId};
use refidem_ir::lowered::{
    fused::fuse, lower, ExecBuffers, LowerKey, LowerUnit, LoweredCache, LoweredProc,
};
use refidem_ir::memory::{Layout, Memory};
use refidem_ir::program::{Procedure, Program};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_specsim::sweep::{SweepExec, SweepPlan};
use refidem_specsim::{initial_memory, simulate_program, ExecMode, ProgramReport, SimConfig};
use refidem_testkit::{generate, CAPACITY_LADDER};

const SUITE_SEEDS: u64 = 1024;

/// Bit-exact trace fingerprint: `(site, access, addr, value bits)` per
/// dynamic access.
type TraceKey = Vec<(u32, bool, u64, u64)>;

/// The fingerprint of a recorded trace.
fn trace_key(trace: &[TraceEvent]) -> TraceKey {
    let write = |e: &TraceEvent| e.access == refidem_ir::sites::AccessKind::Write;
    let key = |e: &TraceEvent| (e.site.0, write(e), e.addr.0, e.value.to_bits());
    trace.iter().map(key).collect()
}

/// Runs procedure 0 sequentially on `compiled` (its body's compiled form)
/// or, for `None`, on the tree-walking oracle, with tracing and counting
/// enabled; returns the final memory image, the trace fingerprint, the
/// per-site dynamic counts and the executed statement units.
fn run_sequential_traced(
    program: &Program,
    compiled: Option<&LoweredProc>,
) -> (Vec<u64>, TraceKey, DynCounts, usize) {
    let proc = &program.procedures[0];
    let layout = Layout::new(&proc.vars);
    let mut memory = initial_memory(proc);
    let mut store = CountingStore::new(PlainStore::tracing(&mut memory));
    let bufs = ExecBuffers::default();
    let mut exec = AnyExec::new(compiled, &proc.vars, &layout, &proc.body, &[], bufs);
    exec.run(&mut store, 200_000_000).expect("runs");
    let steps = exec.steps();
    let trace = trace_key(&store.inner.trace);
    let counts = store.counts.clone();
    let words: Vec<u64> = (0..layout.total_words())
        .map(|a| memory.load(refidem_ir::memory::Addr(a)).to_bits())
        .collect();
    (words, trace, counts, steps)
}

/// Zeroes the compilation-pipeline counters of a whole-program report —
/// the oracle never compiles while the compiled runs query their cache,
/// so those are compared on their own terms.
fn without_cache_counters(report: &ProgramReport) -> ProgramReport {
    let mut r = report.clone();
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

/// Asserts the compiled backend agrees with the oracle on sequential
/// execution (memory bits, trace, counts, step accounting) and on every
/// whole-program engine run across the capacity ladder under both HOSE and
/// CASE (memory bits and the full per-region statistics reports, cycles
/// and the serial/parallel split included). Every scheduled region of the
/// program is exercised.
fn assert_backend_equivalence(what: &str, program: &Program) {
    // Sequential: trace-level equivalence against the tree-walking oracle
    // of both compiled forms the pipeline produces — the plain `lower`
    // output serial spans run, and `fuse` over it, which repeating units
    // run.
    let (mem_t, trace_t, counts_t, steps_t) = run_sequential_traced(program, None);
    let proc = &program.procedures[0];
    let layout = Layout::new(&proc.vars);
    let plain = lower(&proc.vars, &layout, &proc.body);
    let fused = fuse(&plain);
    for (form, compiled) in [("lower", &plain), ("fuse", &fused)] {
        let (mem_b, trace_b, counts_b, steps_b) = run_sequential_traced(program, Some(compiled));
        assert_eq!(steps_t, steps_b, "{what}: {form}: statement units diverged");
        assert_eq!(
            trace_t.len(),
            trace_b.len(),
            "{what}: {form}: trace length diverged"
        );
        for (i, (a, b)) in trace_t.iter().zip(&trace_b).enumerate() {
            assert_eq!(a, b, "{what}: {form}: trace event {i} diverged");
        }
        assert_eq!(
            counts_t, counts_b,
            "{what}: {form}: dynamic counts diverged"
        );
        assert_eq!(mem_t, mem_b, "{what}: {form}: sequential memory diverged");
    }

    // Speculation engine: byte-exact memory and identical whole-program
    // reports at every capacity-ladder point, both execution models. One
    // fresh cache per program: compile-once across the ladder, nothing
    // retained for the process lifetime (the generated programs are
    // one-shot).
    let cache = refidem_ir::lowered::LoweredCache::fresh();
    let labeled = label_program(program, ProcId::from_index(0)).expect("labels");
    let max_queries = 2 * labeled.regions.len() as u64 + 1;
    for &capacity in &CAPACITY_LADDER {
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let cfg_t = SimConfig::default().capacity(capacity).oracle();
            let out_t = simulate_program(program, &labeled, mode, &cfg_t);
            let cfg_b = SimConfig::default().capacity(capacity).cache(cache.clone());
            let out_b = simulate_program(program, &labeled, mode, &cfg_b);
            match (&out_t, &out_b) {
                (Ok(t), Ok(b)) => {
                    // The lowering-cache counters describe the compilation
                    // pipeline, not the simulated execution: the oracle
                    // never compiles (always 0/0) while a compiled run
                    // queries its cache once per serial span and region
                    // body. Check them on their own terms, then require
                    // the rest of the report to be identical.
                    assert_eq!(
                        (t.report.lowering_cache_hits, t.report.lowering_cache_misses),
                        (0, 0),
                        "{what}: {mode} @ capacity {capacity}: oracle touched the cache"
                    );
                    let b_queries = b.report.lowering_cache_hits + b.report.lowering_cache_misses;
                    assert!(
                        b_queries <= max_queries,
                        "{what}: {mode} @ capacity {capacity}: run made {b_queries} cache \
                         queries for {} regions",
                        labeled.regions.len()
                    );
                    assert_eq!(
                        without_cache_counters(&t.report),
                        without_cache_counters(&b.report),
                        "{what}: {mode} @ capacity {capacity}: reports diverged"
                    );
                    let diffs = t.memory.diff(&b.memory, 8);
                    assert!(
                        diffs.is_empty(),
                        "{what}: {mode} @ capacity {capacity}: memory diverged: {diffs:?}"
                    );
                }
                (Err(et), Err(eb)) => assert_eq!(
                    et, eb,
                    "{what}: {mode} @ capacity {capacity}: errors diverged"
                ),
                (t, b) => panic!(
                    "{what}: {mode} @ capacity {capacity}: one backend failed: \
                     tree={t:?} compiled={b:?}"
                ),
            }
        }
    }
}

#[test]
fn all_generated_programs_execute_identically_on_all_backends() {
    let plan: SweepPlan<u64> = (0..SUITE_SEEDS)
        .map(|seed| (format!("seed {seed}"), seed))
        .collect();
    plan.run(&SweepExec::new(), |&seed| {
        let g = generate(seed);
        assert_backend_equivalence(&format!("seed {seed}"), &g.program);
    });
}

#[test]
fn all_named_benchmark_loops_execute_identically_on_all_backends() {
    let loops = all_named_loops();
    let plan: SweepPlan<&refidem_benchmarks::LoopBenchmark> =
        loops.iter().map(|b| (b.name.to_string(), b)).collect();
    plan.run(&SweepExec::new(), |bench| {
        assert_backend_equivalence(bench.name, &bench.program);
    });
}

#[test]
fn sequential_interpreter_backends_agree_via_public_api() {
    // The SeqInterp front door: default (compiled) vs oracle constructors.
    for bench in all_named_loops() {
        let proc = &bench.program.procedures[bench.region.proc.index()];
        let layout = Layout::new(&proc.vars);
        let mut mem_compiled = Memory::init_with(&layout, |a| (a.0 % 17) as f64);
        let mut mem_oracle = mem_compiled.clone();
        let compiled = SeqInterp::new()
            .run_procedure_counting(proc, &mut mem_compiled)
            .expect("compiled runs");
        let oracle = SeqInterp::oracle()
            .run_procedure_counting(proc, &mut mem_oracle)
            .expect("oracle runs");
        assert_eq!(compiled, oracle, "{}: compiled counts diverged", bench.name);
        let diffs = mem_compiled.diff(&mem_oracle, 8);
        assert!(
            diffs.is_empty(),
            "{}: compiled memory diverged: {diffs:?}",
            bench.name
        );
    }
}

/// The compiled backend, fused region bodies included, under the
/// real-thread runtime: every named benchmark's final memory must be
/// byte-identical to the oracle's sequential image,
/// excluding only region-private variables (dead at region exit and
/// legitimately living in per-segment storage under CASE, Lemma 2).
/// This is the configuration the nightly ThreadSanitizer job drives.
#[test]
fn fused_backend_under_threads_runtime_is_byte_exact() {
    for bench in all_named_loops() {
        let labeled = label_program(&bench.program, ProcId::from_index(0)).expect("labels");
        let seq_cfg = SimConfig::default().oracle();
        let seq = refidem_specsim::run_program_sequential(&bench.program, &labeled, &seq_cfg)
            .expect("sequential runs");
        let proc = &bench.program.procedures[0];
        let layout = Layout::new(&proc.vars);
        let ignored: Vec<_> = labeled
            .regions
            .iter()
            .flat_map(|r| r.private_ranges(&proc.vars, &layout))
            .collect();
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let cfg = SimConfig::default()
                .threads()
                .cache(refidem_ir::lowered::LoweredCache::fresh());
            let out = simulate_program(&bench.program, &labeled, mode, &cfg).expect("threads run");
            let diffs: Vec<_> = seq
                .memory
                .diff(&out.memory, usize::MAX)
                .into_iter()
                .filter(|(a, _, _)| !ignored.iter().any(|(lo, hi)| a.0 >= *lo && a.0 < *hi))
                .take(8)
                .collect();
            assert!(
                diffs.is_empty(),
                "{}: {mode} under Threads diverged: {diffs:?}",
                bench.name
            );
        }
    }
}

/// What one segment run did: its trace fingerprint, `steps()`, `exited()`
/// and the number of `step` calls.
type SegmentRun = (TraceKey, usize, bool, usize);

/// Restarts `exec` at region index value `value` and steps it to
/// completion against `memory`.
fn run_segment(exec: &mut AnyExec, index: VarId, value: i64, memory: &mut Memory) -> SegmentRun {
    exec.restart(&[(index, value)]);
    assert!(!exec.exited(), "restart clears exited");
    let mut store = PlainStore::tracing(memory);
    let mut calls = 1;
    while exec.step(&mut store).expect("runs") {
        calls += 1;
    }
    (trace_key(&store.trace), exec.steps(), exec.exited(), calls)
}

/// Checks every segment of WHILE region `region`, top-level statement `at`
/// of `proc`, on the tree-walk `AnyExec::segment` and on the plain and
/// fused compiled forms of its `RegionBody` unit: segments in order, each
/// against the memory the previous one left. Returns (segments, exits).
fn check_while_segments(proc: &Procedure, at: usize, region: &LoopStmt) -> (usize, usize) {
    let (vars, layout) = (&proc.vars, Layout::new(&proc.vars));
    let label = region.label.as_deref().expect("regions are labeled");
    let bound = |e: &AffineExpr| e.substitute_params(&|v| vars.param_value(v)).constant;
    let (lo, hi) = (bound(&region.lower), bound(&region.upper));
    let trips = LoopStmt::trip_count(lo, hi, region.step);
    let ranges = [(region.index, (lo.min(hi), lo.max(hi)))];
    // The runtimes run the `RegionBody` entry, `fuse` over the plain form;
    // the same inputs under a unit that does not fuse give the plain form.
    let cache = LoweredCache::fresh();
    let compile = |unit| {
        let (key, guard) = (LowerKey::new(proc, label, unit), region.while_cond.as_ref());
        cache
            .compile(key, vars, &layout, guard, &region.body, &ranges)
            .value
    };
    let span = LowerUnit::SerialSpan {
        start: at,
        end: at + 1,
    };
    assert!(!span.fuses());
    let (plain, fused) = (compile(span), compile(LowerUnit::RegionBody));
    assert_eq!(fused.disasm(), fuse(&plain).disasm(), "{label}");
    let mut execs = [
        AnyExec::segment(None, vars, &layout, region, ExecBuffers::default()),
        AnyExec::segment(Some(&plain), vars, &layout, region, ExecBuffers::default()),
        AnyExec::segment(Some(&fused), vars, &layout, region, ExecBuffers::default()),
    ];
    let mut memory = initial_memory(proc);
    AnyExec::new(
        None,
        vars,
        &layout,
        &proc.body[..at],
        &[],
        ExecBuffers::default(),
    )
    .run(&mut PlainStore::new(&mut memory), 200_000_000)
    .expect("the statements before the region run");
    let mut exits = 0;
    for value in (0..trips).map(|t| lo + t as i64 * region.step) {
        let mut next = memory.clone();
        let tree = run_segment(&mut execs[0], region.index, value, &mut next);
        for exec in &mut execs {
            let run = run_segment(exec, region.index, value, &mut memory.clone());
            assert_eq!(run, tree, "{label} segment {value}");
        }
        let (trace, steps, exited, calls) = &tree;
        assert!(*steps >= 1, "{label} segment {value}: the check is a unit");
        if *exited {
            // A failed check only reads and ends the segment in one `step`;
            // the restarts above re-armed it and ran it again.
            exits += 1;
            assert_eq!((*calls, *steps), (1, 1), "{label} segment {value}");
            assert!(trace.iter().all(|e| !e.1), "{label} segment {value}");
        }
        memory = next;
    }
    (trips, exits)
}

/// The segment contract of WHILE regions on every backend: each segment of
/// every corpus WHILE region and of IRREG's runs its continuation check as
/// its first unit, with identical traces, `steps()` and `exited()` on the
/// tree-walk and both compiled forms.
#[test]
fn while_segments_run_their_check_first_on_every_backend() {
    let irreg = all_benchmarks().into_iter().find(|b| b.name == "IRREG");
    let programs = (0..SUITE_SEEDS)
        .map(|seed| generate(seed).program)
        .chain([irreg.expect("IRREG").program]);
    let (mut regions, mut segments, mut exits) = (0, 0, 0);
    for program in programs {
        let proc = &program.procedures[0];
        for (at, stmt) in proc.body.iter().enumerate() {
            if let Stmt::Loop(l) = stmt {
                if l.label.is_some() && l.while_cond.is_some() {
                    let (n, e) = check_while_segments(proc, at, l);
                    (regions, segments, exits) = (regions + 1, segments + n, exits + e);
                }
            }
        }
    }
    assert!(regions > 200, "only {regions} WHILE regions");
    assert!(
        0 < exits && exits < segments,
        "{exits} of {segments} exited"
    );
}
