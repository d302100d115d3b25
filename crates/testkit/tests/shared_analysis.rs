//! A dependence set holds only the facts labeling reads. Each fact query
//! must agree with a filter over the region's `dependence_list`, on every
//! region of the differential corpus, on seeded giant blocks, on the
//! benchmark suite, on the paper's abstract Figure 1–3 regions (a set
//! built by `from_deps` from a list whose ids are not contiguous) and on
//! the empty set: per reference the cross-segment sink flag and
//! `intra_sources(r)` (in list order), and `len()`, `is_empty()` and both
//! region flags. An analyzed set also equals `from_deps` of its list.
//!
//! A region analysis computes liveness only for its private candidates;
//! its classes must equal a classification against the full live-out set.

use refidem_analysis::classify::{VarClass, VarClassification};
use refidem_analysis::depend::{DepKind, DepScope, Dependence, DependenceSet};
use refidem_analysis::liveness::region_live_out;
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::schedule::discover_regions;
use refidem_benchmarks::{all_benchmarks, examples};
use refidem_ir::ids::{ProcId, RefId, VarId};
use refidem_ir::program::Program;
use refidem_ir::sites::RefTable;
use refidem_testkit::{generate, giant_block};

/// The probes of the per-reference checks: `ids`, plus ids just outside
/// and far outside the span the dependences mention.
fn probes(list: &[Dependence], ids: &[RefId]) -> Vec<RefId> {
    let lo = list.iter().map(|d| d.source.min(d.sink).0).min();
    let hi = list.iter().map(|d| d.source.max(d.sink).0).max();
    let edges = [lo.and_then(|l| l.checked_sub(1)), hi.map(|h| h + 1)];
    ids.iter()
        .copied()
        .chain(edges.into_iter().flatten().map(RefId))
        .chain([RefId(0), RefId(u32::MAX)])
        .collect()
}

/// Asserts every fact query of `deps` against the filter over `list`, for
/// every probe, with `table` and `ignored` feeding
/// `has_cross_segment_deps_excluding`.
fn assert_facts_match_filter(
    what: &str,
    deps: &DependenceSet,
    list: &[Dependence],
    ids: &[RefId],
    table: &RefTable,
    ignored: &dyn Fn(VarId) -> bool,
) {
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
    for r in probes(list, ids) {
        let into: Vec<&Dependence> = list.iter().filter(|d| d.sink == r).collect();
        assert_eq!(
            deps.is_sink_of_cross_segment(r),
            into.iter().any(cross),
            "{what}: is_sink_of_cross_segment({r})"
        );
        let want: Vec<RefId> = into
            .iter()
            .filter(|d| d.scope == DepScope::IntraSegment && d.kind != DepKind::Anti)
            .map(|d| d.source)
            .collect();
        assert_eq!(deps.intra_sources(r), want, "{what}: intra_sources({r})");
    }
}

/// Checks every region of `program`; returns how many dependences it saw.
fn check_program(name: &str, program: &Program) -> usize {
    let mut seen = 0;
    for p in 0..program.procedures.len() {
        for region in discover_regions(program, ProcId::from_index(p)).regions {
            let analysis = RegionAnalysis::analyze(program, &region.spec).expect("analyzes");
            let list = analysis.dependence_list(program);
            let ids: Vec<RefId> = analysis.table.sites().iter().map(|s| s.id).collect();
            let what = format!("{name} region {}", region.spec.loop_label);
            let private = |v| analysis.classes.class(v) == VarClass::Private;
            let deps = &analysis.deps;
            assert_facts_match_filter(&what, deps, &list, &ids, &analysis.table, &private);
            assert_eq!(*deps, DependenceSet::from_deps(&list), "{what}: from_deps");
            seen += list.len();
        }
    }
    seen
}

#[test]
fn facts_match_a_filter_on_the_corpus() {
    let mut seen = 0;
    for seed in 0..1024 {
        seen += check_program(&format!("seed {seed}"), &generate(seed).program);
    }
    assert!(seen > 0, "the corpus has dependences");
}

#[test]
fn facts_match_a_filter_on_giant_blocks_and_the_suite() {
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
fn from_deps_answers_for_abstract_regions_with_gaps() {
    let mut gapped = 0;
    for (name, region) in [
        ("figure1", examples::figure1()),
        ("figure2", examples::figure2()),
        ("figure3", examples::figure3()),
    ] {
        let list = region.compute_deps();
        assert!(!list.is_empty(), "{name} has dependences");
        let ids: Vec<RefId> = region.all_refs().map(|(_, r)| r.id).collect();
        let is_sink = |r: &RefId| list.iter().any(|d| d.sink == *r);
        let lo = ids.iter().filter(|r| is_sink(r)).min().expect("some dep");
        let hi = ids.iter().filter(|r| is_sink(r)).max().expect("some dep");
        if ids.iter().any(|r| lo < r && r < hi && !is_sink(r)) {
            gapped += 1;
        }
        let deps = DependenceSet::from_deps(&list);
        let ignore_none = |_| false;
        let no_table = RefTable::default();
        assert_facts_match_filter(name, &deps, &list, &ids, &no_table, &ignore_none);
        assert_eq!(DependenceSet::from_deps(&list), deps, "{name}");
    }
    assert!(gapped > 0, "some figure's sink ids must leave a gap");
}

#[test]
fn the_empty_set_answers_nothing() {
    for deps in [DependenceSet::from_deps(&[]), DependenceSet::default()] {
        assert!(deps.is_empty());
        assert_eq!(deps.len(), 0);
        assert!(!deps.has_cross_segment_deps());
        let ids = [RefId(0), RefId(7)];
        assert_facts_match_filter("empty", &deps, &[], &ids, &RefTable::default(), &|_| false);
        assert_eq!(deps, DependenceSet::default());
    }
}

/// Classification reads the live-out set only for private candidates, so
/// a region analysis computes liveness for them alone, and not at all
/// without one. On every corpus, giant-block and suite region its classes
/// must equal the classification against the full live-out set, and both
/// kinds of region must occur.
#[test]
fn classes_from_candidate_liveness_match_full_liveness() {
    let (mut with, mut without) = (0, 0);
    let mut check = |name: &str, program: &Program| {
        for (p, proc) in program.procedures.iter().enumerate() {
            for region in discover_regions(program, ProcId::from_index(p)).regions {
                let label = &region.spec.loop_label;
                let analysis = RegionAnalysis::analyze(program, &region.spec).expect("analyzes");
                let live_out = region_live_out(proc, label).expect("a top-level region");
                assert_eq!(
                    analysis.classes,
                    VarClassification::classify(&analysis.summary, &live_out),
                    "{name} region {label}"
                );
                let mut candidates = VarClassification::private_candidates(&analysis.summary);
                if candidates.next().is_some() {
                    with += 1;
                } else {
                    without += 1;
                }
            }
        }
    };
    for seed in 0..1024 {
        check(&format!("seed {seed}"), &generate(seed).program);
    }
    for seed in 0..64 {
        check(
            &format!("giant_block({seed}, 128)"),
            &giant_block(seed, 128).0,
        );
    }
    for bench in all_benchmarks() {
        check(bench.name, &bench.program);
    }
    assert!(
        with > 0 && without > 0,
        "{with} regions with a private candidate, {without} without"
    );
}
