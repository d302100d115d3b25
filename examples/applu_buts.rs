//! Figure 4 walkthrough: the APPLU `BUTS_DO1` loop.
//!
//! Prints the loop, the cross-segment dependences on the shared array `v`,
//! the per-reference labels (the S1 reads are idempotent shared-dependent
//! references, the S2 write stays speculative), and the HOSE/CASE
//! simulation results.
//!
//! Run with `cargo run --example applu_buts`.

use refidem::analysis::depend::dependence_to_string;
use refidem::core::label::{label_program_region, Label};
use refidem::ir::pretty;
use refidem::specsim::{compare_modes, SimConfig};
use refidem_benchmarks::suite::applu;

fn main() {
    let bench = applu::buts_do1();
    let labeled = label_program_region(&bench.program, &bench.region).expect("analyzes");
    let proc = &bench.program.procedures[bench.region.proc.index()];

    println!("=== {} (Figure 4) ===", bench.name);
    let (_, region_loop, _) = proc
        .split_at_loop(&bench.region.loop_label)
        .expect("top-level region");
    print!(
        "{}",
        pretty::stmts_to_string(
            &proc.vars,
            std::slice::from_ref(&refidem::ir::stmt::Stmt::Loop(region_loop.clone())),
            0
        )
    );

    println!("\n=== Cross-segment dependences on v ===");
    let v = proc.vars.lookup("v").expect("v exists");
    for dep in &labeled.analysis.dependence_list(&bench.program) {
        let involves_v = labeled
            .analysis
            .table
            .get(dep.sink)
            .map(|s| s.var == v)
            .unwrap_or(false);
        if involves_v && dep.scope == refidem::analysis::DepScope::CrossSegment {
            println!(
                "  {}",
                dependence_to_string(&labeled.analysis.table, &proc.vars, dep)
            );
        }
    }

    println!("\n=== Labels for the references to v ===");
    for site in labeled.analysis.table.sites().iter().filter(|s| s.var == v) {
        let label = match labeled.labeling.label(site.id) {
            Label::Speculative => "speculative".to_string(),
            Label::Idempotent(cat) => format!("idempotent ({cat})"),
        };
        println!(
            "  {:<18} {:<6} -> {}",
            pretty::reference_to_string(&proc.vars, &site.reference),
            format!("{:?}", site.access).to_lowercase(),
            label
        );
    }

    let cfg = SimConfig::default().capacity(128);
    let cmp = compare_modes(&bench.program, &labeled, &cfg).expect("simulates");
    println!("\n=== Simulation (4 processors, 128-word speculative storage) ===");
    println!(
        "  HOSE: speedup {:.2} ({} overflow stalls) | CASE: speedup {:.2} ({} overflow stalls)",
        cmp.hose_speedup(),
        cmp.hose.overflow_stalls,
        cmp.case_speedup(),
        cmp.case.overflow_stalls
    );
}
