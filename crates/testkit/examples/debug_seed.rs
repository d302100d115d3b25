//! Scratch debugging driver: prints a generated program, its labels and the
//! differential outcome for a seed given on the command line.

use refidem_core::label::label_program;
use refidem_ir::ids::ProcId;
use refidem_specsim::{simulate_program, ExecMode, SimConfig};
use refidem_testkit::{check_generated, generate, DiffConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let g = generate(seed);
    println!("== spec ==\n{:#?}", g.spec);
    println!(
        "== program ==\n{}",
        refidem_ir::pretty::program_to_string(&g.program)
    );
    let labeled = label_program(&g.program, ProcId::from_index(0)).expect("labels");
    println!("== schedule: {} region(s) ==", labeled.len());
    for region in &labeled.regions {
        println!("-- region {} --", region.analysis.spec.loop_label);
        for (id, l) in region.labeling.iter() {
            println!("  {:?}: {:?} ({:?})", id, l, region.labeling.access(id));
        }
        println!("classes: {:?}", region.analysis.classes);
        println!("deps: {} total", region.analysis.deps.len());
        for d in region.analysis.dependence_list(&g.program) {
            println!("  {:?}", d);
        }
    }
    for cap in [1usize, 2, 4, 16, 256] {
        for mode in [ExecMode::Hose, ExecMode::Case] {
            let cfg = SimConfig::default().capacity(cap);
            let out = simulate_program(&g.program, &labeled, mode, &cfg).expect("sim");
            let r = &out.report;
            println!(
                "{mode} cap {cap}: serial {} parallel {} total {} (coverage {:.2})",
                r.serial_cycles,
                r.parallel_cycles(),
                r.total_cycles,
                r.coverage_fraction()
            );
            for (region, rr) in labeled.regions.iter().zip(&r.regions) {
                println!(
                    "   {}: segments {} commits {} violations {} rollbacks {} overflow {} peak {} restarts {}",
                    region.analysis.spec.loop_label,
                    rr.segments,
                    rr.commits,
                    rr.violations,
                    rr.rollbacks,
                    rr.overflow_stalls,
                    rr.spec_peak_occupancy,
                    rr.max_segment_restarts
                );
            }
        }
    }
    match check_generated(&g, &DiffConfig::default()) {
        Ok(s) => println!("differential: OK {s:?}"),
        Err(f) => println!("differential: FAIL {f}"),
    }

    // Trace every access to the address given as the second argument.
    let watch: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    use refidem_ir::exec::{DataStore, PlainStore, SegmentExec};
    use refidem_ir::memory::{Addr, Layout};
    use refidem_specsim::run::initial_memory;
    struct Watch<'m> {
        inner: PlainStore<'m>,
        watch: u64,
    }
    impl DataStore for Watch<'_> {
        fn read(&mut self, site: refidem_ir::ids::RefId, addr: Addr) -> f64 {
            let v = self.inner.read(site, addr);
            if addr.0 == self.watch {
                println!("  seq READ  @{} site {:?} -> {}", addr.0, site, v);
            }
            v
        }
        fn write(&mut self, site: refidem_ir::ids::RefId, addr: Addr, value: f64) {
            if addr.0 == self.watch {
                println!("  seq WRITE @{} site {:?} <- {}", addr.0, site, value);
            }
            self.inner.write(site, addr, value);
        }
    }
    let proc = &g.program.procedures[0];
    let layout = Layout::new(&proc.vars);
    let mut memory = initial_memory(proc);
    println!("init @{watch} = {}", memory.load(Addr(watch)));
    let mut store = Watch {
        inner: PlainStore::new(&mut memory),
        watch,
    };
    let mut exec = SegmentExec::new(&proc.vars, &layout, &proc.body, &[]);
    exec.run(&mut store, 1_000_000).expect("seq runs");
    println!("final seq @{watch} = {}", memory.load(Addr(watch)));
}
