//! The shared dependence set's CSR indexes: `deps_into(r)` and
//! `deps_from(r)` must yield exactly the dependences a filter over
//! `deps()` keeps, in emission order — on every region of the
//! differential corpus, on seeded giant blocks, on the benchmark suite,
//! on the paper's abstract Figure 1–3 regions (whose dependence ids are
//! not contiguous) and on the empty set.

use refidem_analysis::depend::{Dependence, DependenceSet};
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::schedule::discover_regions;
use refidem_benchmarks::{all_benchmarks, examples};
use refidem_ir::ids::{ProcId, RefId};
use refidem_ir::program::Program;
use refidem_testkit::{generate, giant_block};

/// Asserts both indexes against the filter for every id in `ids`, plus
/// ids just outside and far outside the indexed range.
fn assert_indexes_match_filter(what: &str, deps: &DependenceSet, ids: &[RefId]) {
    let lo = deps.deps().iter().map(|d| d.source.min(d.sink).0).min();
    let hi = deps.deps().iter().map(|d| d.source.max(d.sink).0).max();
    let edges = [lo.and_then(|l| l.checked_sub(1)), hi.map(|h| h + 1)];
    let probes = ids
        .iter()
        .copied()
        .chain(edges.into_iter().flatten().map(RefId))
        .chain([RefId(0), RefId(u32::MAX)]);
    let ptrs = |it: &mut dyn Iterator<Item = &Dependence>| -> Vec<*const Dependence> {
        it.map(|d| d as *const Dependence).collect()
    };
    for r in probes {
        let into = ptrs(&mut deps.deps_into(r));
        let want = ptrs(&mut deps.deps().iter().filter(|d| d.sink == r));
        assert_eq!(into, want, "{what}: deps_into({r})");
        let from = ptrs(&mut deps.deps_from(r));
        let want = ptrs(&mut deps.deps().iter().filter(|d| d.source == r));
        assert_eq!(from, want, "{what}: deps_from({r})");
    }
}

/// Checks every region of `program`; returns how many dependences it saw.
fn check_program(name: &str, program: &Program) -> usize {
    let mut seen = 0;
    for p in 0..program.procedures.len() {
        for region in discover_regions(program, ProcId::from_index(p)).regions {
            let analysis = RegionAnalysis::analyze(program, &region.spec).expect("analyzes");
            let ids: Vec<RefId> = analysis.table.sites().iter().map(|s| s.id).collect();
            let what = format!("{name} region {}", region.spec.loop_label);
            assert_indexes_match_filter(&what, &analysis.deps, &ids);
            seen += analysis.deps.len();
        }
    }
    seen
}

#[test]
fn csr_indexes_match_a_filter_on_the_corpus() {
    let mut seen = 0;
    for seed in 0..1024 {
        seen += check_program(&format!("seed {seed}"), &generate(seed).program);
    }
    assert!(seen > 0, "the corpus has dependences");
}

#[test]
fn csr_indexes_match_a_filter_on_giant_blocks_and_the_suite() {
    for seed in 0..64 {
        let (program, _) = giant_block(seed, 128);
        let seen = check_program(&format!("giant_block({seed}, 128)"), &program);
        assert!(seen > 1000, "giant_block({seed}): only {seen} dependences");
    }
    for bench in all_benchmarks() {
        check_program(bench.name, &bench.program);
    }
}

#[test]
fn from_deps_indexes_abstract_regions_with_gaps() {
    let mut gapped = 0;
    for (name, region) in [
        ("figure1", examples::figure1()),
        ("figure2", examples::figure2()),
        ("figure3", examples::figure3()),
    ] {
        let deps = region.compute_deps();
        assert!(!deps.is_empty(), "{name} has dependences");
        let ids: Vec<RefId> = region.all_refs().map(|(_, r)| r.id).collect();
        let in_deps = |r: &RefId| deps.deps().iter().any(|d| d.source == *r || d.sink == *r);
        let lo = ids.iter().filter(|r| in_deps(r)).min().expect("some dep");
        let hi = ids.iter().filter(|r| in_deps(r)).max().expect("some dep");
        if ids.iter().any(|r| lo < r && r < hi && !in_deps(r)) {
            gapped += 1;
        }
        assert_indexes_match_filter(name, &deps, &ids);
        // The set keeps the given order and equals a rebuild of it.
        let rebuilt = DependenceSet::from_deps(deps.deps().to_vec());
        assert_eq!(rebuilt.deps(), deps.deps(), "{name}");
        assert_eq!(rebuilt, deps, "{name}");
    }
    assert!(gapped > 0, "some figure's dependence ids must leave a gap");
}

#[test]
fn the_empty_set_indexes_nothing() {
    for deps in [
        DependenceSet::from_deps(Vec::new()),
        DependenceSet::default(),
    ] {
        assert!(deps.is_empty());
        assert_eq!(deps.len(), 0);
        assert!(!deps.has_cross_segment_deps());
        assert_indexes_match_filter("empty", &deps, &[RefId(0), RefId(7)]);
        assert_eq!(deps, DependenceSet::default());
    }
}
