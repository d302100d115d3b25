//! The shared dependence set's two views must agree with a filter over
//! `deps()`, on every region of the differential corpus, on seeded giant
//! blocks, on the benchmark suite, on the paper's abstract Figure 1–3
//! regions (built from an explicit list whose ids are not contiguous) and
//! on the empty set:
//!
//! * the CSR indexes: `deps_into(r)` and `deps_from(r)` yield exactly the
//!   dependences the filter keeps, in emission order;
//! * the facts the analysis computes without the list: the sink flags,
//!   `intra_sources(r)` (as a multiset), `len()` and both region flags.
//!
//! It also pins that labeling and simulation never build the list.

use refidem_analysis::classify::VarClass;
use refidem_analysis::depend::{DepKind, DepScope, Dependence, DependenceSet};
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::schedule::discover_regions;
use refidem_benchmarks::{all_benchmarks, examples};
use refidem_core::cache::AnalysisCache;
use refidem_core::label::{label_program, label_region, LabeledProgram};
use refidem_ir::ids::{ProcId, RefId, VarId};
use refidem_ir::program::Program;
use refidem_ir::sites::RefTable;
use refidem_specsim::{simulate_program, ExecMode, SimConfig};
use refidem_testkit::{generate, giant_block};

/// Asserts both indexes against the filter for every id in `ids`, plus
/// ids just outside and far outside the indexed range.
fn assert_indexes_match_filter(what: &str, deps: &DependenceSet, ids: &[RefId]) {
    let ptrs = |it: &mut dyn Iterator<Item = &Dependence>| -> Vec<*const Dependence> {
        it.map(|d| d as *const Dependence).collect()
    };
    for r in probes(deps, ids) {
        let into = ptrs(&mut deps.deps_into(r));
        let want = ptrs(&mut deps.deps().iter().filter(|d| d.sink == r));
        assert_eq!(into, want, "{what}: deps_into({r})");
        let from = ptrs(&mut deps.deps_from(r));
        let want = ptrs(&mut deps.deps().iter().filter(|d| d.source == r));
        assert_eq!(from, want, "{what}: deps_from({r})");
    }
}

/// The probes of both checks: `ids`, plus ids just outside and far
/// outside the span the dependences mention.
fn probes(deps: &DependenceSet, ids: &[RefId]) -> Vec<RefId> {
    let lo = deps.deps().iter().map(|d| d.source.min(d.sink).0).min();
    let hi = deps.deps().iter().map(|d| d.source.max(d.sink).0).max();
    let edges = [lo.and_then(|l| l.checked_sub(1)), hi.map(|h| h + 1)];
    ids.iter()
        .copied()
        .chain(edges.into_iter().flatten().map(RefId))
        .chain([RefId(0), RefId(u32::MAX)])
        .collect()
}

/// Asserts every fact query against the filter over `deps()`, for every
/// probe, with `table` and `ignored` feeding
/// `has_cross_segment_deps_excluding`.
fn assert_facts_match_filter(
    what: &str,
    deps: &DependenceSet,
    ids: &[RefId],
    table: &RefTable,
    ignored: &dyn Fn(VarId) -> bool,
) {
    let list = deps.deps();
    assert_eq!(deps.len(), list.len(), "{what}: len");
    assert_eq!(deps.is_empty(), list.is_empty(), "{what}: is_empty");
    let cross = |d: &&Dependence| d.scope == DepScope::CrossSegment;
    assert_eq!(
        deps.has_cross_segment_deps(),
        list.iter().any(|d| cross(&d)),
        "{what}: has_cross_segment_deps"
    );
    let kept = |d: &&Dependence| table.get(d.sink).map_or(true, |site| !ignored(site.var));
    assert_eq!(
        deps.has_cross_segment_deps_excluding(table, ignored),
        list.iter().filter(cross).any(|d| kept(&d)),
        "{what}: has_cross_segment_deps_excluding"
    );
    for r in probes(deps, ids) {
        let into: Vec<&Dependence> = list.iter().filter(|d| d.sink == r).collect();
        assert_eq!(
            deps.is_sink_of_cross_segment(r),
            into.iter().any(cross),
            "{what}: is_sink_of_cross_segment({r})"
        );
        assert_eq!(
            deps.is_sink_of_any(r),
            !into.is_empty(),
            "{what}: is_sink_of_any({r})"
        );
        let mut want: Vec<RefId> = into
            .iter()
            .filter(|d| d.scope == DepScope::IntraSegment && d.kind != DepKind::Anti)
            .map(|d| d.source)
            .collect();
        let mut got = deps.intra_sources(r).to_vec();
        want.sort();
        got.sort();
        assert_eq!(got, want, "{what}: intra_sources({r})");
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
            let private = |v| analysis.classes.class(v) == VarClass::Private;
            assert_facts_match_filter(&what, &analysis.deps, &ids, &analysis.table, &private);
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
        let ignore_none = |_| false;
        let no_table = RefTable::default();
        assert_facts_match_filter(name, &deps, &ids, &no_table, &ignore_none);
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
        let ids = [RefId(0), RefId(7)];
        assert_facts_match_filter("empty", &deps, &ids, &RefTable::default(), &|_| false);
        assert_indexes_match_filter("empty", &deps, &ids);
        assert_eq!(deps, DependenceSet::default());
    }
}

/// Asserts that no region of `labeled` has built its dependence list.
fn assert_list_unbuilt(what: &str, labeled: &LabeledProgram) {
    for region in &labeled.regions {
        assert!(
            !region.analysis.deps.is_list_built(),
            "{what} region {}: the dependence list was built",
            region.analysis.spec.loop_label
        );
    }
}

/// Analysis, labeling (fresh, re-run and cached) and simulation under
/// both modes answer everything from the dependence facts: none of them
/// builds the list.
#[test]
fn labeling_and_simulation_never_build_the_list() {
    let mut programs: Vec<(String, Program)> = (0..64)
        .map(|seed| (format!("seed {seed}"), generate(seed).program))
        .collect();
    programs.extend(
        all_benchmarks()
            .into_iter()
            .map(|b| (b.name.to_string(), b.program)),
    );
    programs.push(("giant_block".into(), giant_block(1, 128).0));
    let cache = AnalysisCache::fresh();
    let mut regions = 0;
    for (name, program) in &programs {
        let proc = ProcId::from_index(0);
        let labeled = label_program(program, proc).expect("labels");
        for region in &labeled.regions {
            label_region(&region.analysis);
        }
        for mode in [ExecMode::Hose, ExecMode::Case] {
            simulate_program(program, &labeled, mode, &SimConfig::default()).expect("simulates");
        }
        assert_list_unbuilt(name, &labeled);
        for _ in 0..2 {
            let (cached, _) = cache.label_program_cached(program, proc).expect("labels");
            assert_list_unbuilt(name, &cached);
        }
        regions += labeled.len();
    }
    assert!(regions > 64, "only {regions} regions checked");
}
