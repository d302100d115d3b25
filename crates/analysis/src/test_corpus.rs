//! The program corpus the reference-implementation tests sweep: the 1024
//! generated differential programs, 64 seeded 128-statement giant blocks
//! and the 14 benchmark-suite programs, each with its top-level regions.

use crate::schedule::discover_regions;
use refidem_ir::ids::ProcId;
use refidem_ir::program::{Program, RegionSpec};

/// Every corpus program, named for failure messages, with its regions.
pub(crate) fn programs() -> impl Iterator<Item = (String, Program, Vec<RegionSpec>)> {
    let generated = (0..1024).map(|seed| {
        (
            format!("seed {seed}"),
            refidem_testkit::generate(seed).program,
        )
    });
    let giants = (0..64).map(|seed| {
        let (program, _) = refidem_testkit::giant_block(seed, 128);
        (format!("giant_block({seed}, 128)"), program)
    });
    let suite = refidem_benchmarks::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program));
    generated.chain(giants).chain(suite).map(|(name, program)| {
        let regions = (0..program.procedures.len())
            .flat_map(|p| discover_regions(&program, ProcId::from_index(p)).regions)
            .map(|r| r.spec)
            .collect();
        (name, program, regions)
    })
}
