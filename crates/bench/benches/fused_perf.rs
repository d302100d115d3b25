//! Benchmarks of the fused execution tier (superinstructions,
//! advance-and-load, constant-trip loop peeling).
//!
//! * `fused_tier_twldrv/*` — the three-tier ladder on the dispatch-bound
//!   FPPPP `TWLDRV_DO100` giant block: tree-walking oracle, plain `lower`
//!   output run directly, fused (the interpreter's compiled form). The `bytecode`→`fused` ratio is the tentpole win
//!   BENCH_8 records (each two-term statement of the 128-statement body
//!   collapses from six dispatches to one whole-statement
//!   superinstruction, with the region index folded into scalar
//!   addresses).
//! * `fused_tier_mgrid/*` — the same ladder on a stencil loop whose
//!   induction references fuse to advance-and-load instead of peeling.
//! * `fused_compile/*` — one-time compilation cost: plain lowering vs the
//!   post-lowering `fuse` pass (paid once per cache key, amortized across
//!   every sweep point by the compile-once cache), on the whole TWLDRV
//!   procedure and on the unit a cold compile lowers most: the region body
//!   of a 128-statement giant block under its index range.

use refidem_analysis::bounds::constant_loop_bounds;
use refidem_bench::microbench::Harness;
use refidem_benchmarks::suite::{fpppp, mgrid};
use refidem_benchmarks::LoopBenchmark;
use refidem_ir::exec::{PlainStore, SeqInterp};
use refidem_ir::lowered::{fused::fuse, lower, lower_with_ranges, ExecBuffers, LoweredSegmentExec};
use refidem_ir::memory::{Layout, Memory};
use std::hint::black_box;

fn bench_tier_ladder(c: &mut Harness, group_name: &str, bench: &LoopBenchmark) {
    let proc = &bench.program.procedures[bench.region.proc.index()];
    let layout = Layout::new(&proc.vars);
    let mut group = c.benchmark_group(group_name);
    for (name, interp) in [
        ("tree_walk", SeqInterp::oracle()),
        ("fused", SeqInterp::new()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut memory = Memory::zeroed(&layout);
                interp.run_procedure(proc, &mut memory).expect("runs");
                black_box(memory.len())
            })
        });
    }
    // The plain pipeline stage (`lower` without `fuse`), compiled once
    // like the interpreter's cached entry and run directly.
    let plain = lower(&proc.vars, &layout, &proc.body);
    group.bench_function("bytecode", |b| {
        b.iter(|| {
            let mut memory = Memory::zeroed(&layout);
            LoweredSegmentExec::new(&plain, &[], ExecBuffers::default())
                .run(&mut PlainStore::new(&mut memory), 200_000_000)
                .expect("runs");
            black_box(memory.len())
        })
    });
    group.finish();
}

fn bench_compile_cost(c: &mut Harness, bench: &LoopBenchmark) {
    let proc = &bench.program.procedures[bench.region.proc.index()];
    let layout = Layout::new(&proc.vars);
    let mut group = c.benchmark_group("fused_compile");
    group.bench_function("lower_twldrv", |b| {
        b.iter(|| black_box(lower(&proc.vars, &layout, &proc.body)).inst_count())
    });
    let base = lower(&proc.vars, &layout, &proc.body);
    group.bench_function("fuse_twldrv", |b| {
        b.iter(|| black_box(fuse(black_box(&base))).inst_count())
    });
    // The giant block's `RegionBody` unit, lowered under the region index's
    // interval as the runtimes compile it (the seed `analysis_perf` uses).
    let (program, region) = refidem_testkit::giant_block(0x9e3779b9, 128);
    let proc = &program.procedures[region.proc.index()];
    let l = proc
        .find_loop(&region.loop_label)
        .expect("giant block region");
    let (lo, hi) = constant_loop_bounds(&proc.vars, l).expect("constant bounds");
    let ranges = [(l.index, (lo.min(hi), lo.max(hi)))];
    let layout = Layout::new(&proc.vars);
    group.bench_function("lower_giant_block_128", |b| {
        b.iter(|| black_box(lower_with_ranges(&proc.vars, &layout, &l.body, &ranges)).inst_count())
    });
    let base = lower_with_ranges(&proc.vars, &layout, &l.body, &ranges);
    group.bench_function("fuse_giant_block_128", |b| {
        b.iter(|| black_box(fuse(black_box(&base))).inst_count())
    });
    group.finish();
}

fn main() {
    let mut c = Harness::default().sample_size(20);
    let twldrv = fpppp::twldrv_do100();
    bench_tier_ladder(&mut c, "fused_tier_twldrv", &twldrv);
    bench_tier_ladder(&mut c, "fused_tier_mgrid", &mgrid::resid_do600());
    bench_compile_cost(&mut c, &twldrv);
    c.finish();
}
