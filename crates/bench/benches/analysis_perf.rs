//! Benchmarks of the compiler-side analyses — reference-table collection,
//! the body summary, dependence analysis, RFW analysis (Algorithm 1),
//! idempotency labeling (Algorithm 2) — and of the sequential interpreter
//! on both execution backends (`interp/*` measures the tree-walking oracle
//! against the lowered bytecode engine).

use refidem_analysis::depend::DependenceSet;
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::summary::BodySummary;
use refidem_bench::microbench::Harness;
use refidem_benchmarks::{all_named_loops, examples};
use refidem_core::label::{label_abstract_region, label_region};
use refidem_core::rfw::rfw_for_abstract;
use refidem_ir::exec::SeqInterp;
use refidem_ir::memory::{Layout, Memory};
use refidem_ir::sites::RefTable;
use std::hint::black_box;

/// The seed-pinned synthetic 128-statement giant block (the TWLDRV shape,
/// testkit-built): hundreds of reference sites, exercising the
/// pairwise-pruning path on a body no named benchmark reaches.
fn giant_block_128() -> (
    refidem_ir::program::Program,
    refidem_ir::program::RegionSpec,
) {
    refidem_testkit::giant_block(0x9e3779b9, 128)
}

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
    // `len()` is a fact of the analysis: reading it builds no list.
    let (giant_program, giant_region) = giant_block_128();
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

/// Reference-table collection alone, on the giant block's body.
fn bench_ref_table(c: &mut Harness) {
    let mut group = c.benchmark_group("ref_table");
    let (giant_program, giant_region) = giant_block_128();
    let body = &giant_program.procedures[giant_region.proc.index()]
        .find_loop(&giant_region.loop_label)
        .expect("giant block region")
        .body;
    group.bench_function("synthetic giant_block_128", |b| {
        b.iter(|| black_box(RefTable::collect(black_box(body))).len())
    });
    group.finish();
}

/// The body summary alone, on FPPPP's giant block and the synthetic one.
fn bench_body_summary(c: &mut Harness) {
    let mut group = c.benchmark_group("body_summary");
    let twldrv = all_named_loops()
        .into_iter()
        .find(|bench| bench.name == "FPPPP TWLDRV_DO100")
        .expect("the FPPPP giant block");
    let (giant_program, giant_region) = giant_block_128();
    let cases = [
        (twldrv.name, &twldrv.program, &twldrv.region),
        ("synthetic giant_block_128", &giant_program, &giant_region),
    ];
    for (name, program, spec) in cases {
        let proc = &program.procedures[spec.proc.index()];
        let region = proc.find_loop(&spec.loop_label).expect("region loop");
        group.bench_function(name, |b| {
            b.iter(|| {
                let summary =
                    BodySummary::analyze(&proc.vars, Some(region), black_box(&region.body));
                black_box(summary.iter().count())
            })
        });
    }
    group.finish();
}

/// The dependence facts alone, on the synthetic giant block's prebuilt
/// reference table.
fn bench_dependence_facts(c: &mut Harness) {
    let mut group = c.benchmark_group("dependence_facts");
    let (giant_program, giant_region) = giant_block_128();
    let proc = &giant_program.procedures[giant_region.proc.index()];
    let region = proc
        .find_loop(&giant_region.loop_label)
        .expect("giant block region");
    let table = RefTable::collect(&region.body);
    group.bench_function("synthetic giant_block_128", |b| {
        b.iter(|| DependenceSet::analyze(&proc.vars, region, black_box(&table)).len())
    });
    group.finish();
}

fn bench_labeling(c: &mut Harness) {
    let mut group = c.benchmark_group("labeling");
    let (giant_program, giant_region) = giant_block_128();
    let loops = all_named_loops()
        .into_iter()
        .map(|bench| (bench.name.to_string(), bench.program, bench.region));
    let giant = (
        "synthetic giant_block_128".to_string(),
        giant_program,
        giant_region,
    );
    for (name, program, region) in loops.chain([giant]) {
        let analysis = RegionAnalysis::analyze(&program, &region).expect("analyzes");
        group.bench_function(name, |b| {
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
    bench_ref_table(&mut c);
    bench_body_summary(&mut c);
    bench_dependence_facts(&mut c);
    bench_region_analysis(&mut c);
    bench_labeling(&mut c);
    bench_algorithm1_on_paper_examples(&mut c);
    bench_interp_backends(&mut c);
    c.finish();
}
