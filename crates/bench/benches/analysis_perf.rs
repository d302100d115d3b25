//! Benchmarks of the compiler-side analyses — dependence analysis, RFW
//! analysis (Algorithm 1), idempotency labeling (Algorithm 2) — and of the
//! sequential interpreter on both execution backends (`interp/*` measures
//! the tree-walking oracle against the lowered bytecode engine).

use refidem_analysis::region::RegionAnalysis;
use refidem_bench::microbench::Harness;
use refidem_benchmarks::{all_named_loops, examples};
use refidem_core::label::{label_abstract_region, label_region};
use refidem_core::rfw::rfw_for_abstract;
use refidem_ir::exec::SeqInterp;
use refidem_ir::memory::{Layout, Memory};
use std::hint::black_box;

fn bench_region_analysis(c: &mut Harness) {
    let mut group = c.benchmark_group("region_analysis");
    for bench in all_named_loops() {
        group.bench_function(bench.name, |b| {
            b.iter(|| {
                let analysis =
                    RegionAnalysis::analyze(black_box(&bench.program), black_box(&bench.region))
                        .expect("analyzes");
                black_box(analysis.deps.len())
            })
        });
    }
    // A seed-pinned synthetic 128-statement giant block (the TWLDRV shape,
    // testkit-built): hundreds of reference sites, exercising the
    // pairwise-pruning path on a body no named benchmark reaches.
    let (giant_program, giant_region) = refidem_testkit::giant_block(0x9e3779b9, 128);
    group.bench_function("synthetic giant_block_128", |b| {
        b.iter(|| {
            let analysis =
                RegionAnalysis::analyze(black_box(&giant_program), black_box(&giant_region))
                    .expect("analyzes");
            black_box(analysis.deps.len())
        })
    });
    group.finish();
}

fn bench_labeling(c: &mut Harness) {
    let mut group = c.benchmark_group("labeling");
    for bench in all_named_loops() {
        let analysis = RegionAnalysis::analyze(&bench.program, &bench.region).expect("analyzes");
        group.bench_function(bench.name, |b| {
            b.iter(|| {
                let labeling = label_region(black_box(&analysis));
                black_box(labeling.stats().idempotent_static)
            })
        });
    }
    group.finish();
}

fn bench_algorithm1_on_paper_examples(c: &mut Harness) {
    let mut group = c.benchmark_group("algorithm1");
    let fig2 = examples::figure2();
    let fig3 = examples::figure3();
    group.bench_function("figure2_rfw", |b| {
        b.iter(|| black_box(rfw_for_abstract(black_box(&fig2))).len())
    });
    group.bench_function("figure3_rfw", |b| {
        b.iter(|| black_box(rfw_for_abstract(black_box(&fig3))).len())
    });
    group.bench_function("figure2_label", |b| {
        b.iter(|| {
            black_box(label_abstract_region(black_box(&fig2)))
                .stats()
                .idempotent_static
        })
    });
    group.finish();
}

fn bench_interp_backends(c: &mut Harness) {
    let mut group = c.benchmark_group("interp");
    for bench in all_named_loops() {
        let proc = &bench.program.procedures[bench.region.proc.index()];
        let layout = Layout::new(&proc.vars);
        for (suffix, interp) in [("", SeqInterp::new()), ("_oracle", SeqInterp::oracle())] {
            group.bench_function(format!("{}{suffix}", bench.name), |b| {
                b.iter(|| {
                    let mut memory = Memory::zeroed(&layout);
                    interp.run_procedure(proc, &mut memory).expect("runs");
                    black_box(memory.len())
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = Harness::default().sample_size(20);
    bench_region_analysis(&mut c);
    bench_labeling(&mut c);
    bench_algorithm1_on_paper_examples(&mut c);
    bench_interp_backends(&mut c);
    c.finish();
}
