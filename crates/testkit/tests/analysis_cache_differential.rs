//! Differential tests of the analyze-once tier: the [`AnalysisCache`]
//! must hand back labelings bit-identical to a direct `label_program`
//! across every named benchmark loop (irregular and WHILE conservative
//! fallbacks included) and on the synthetic giant block, and never evict
//! at its default capacity. (The generated-program corpus runs the same
//! cached-vs-fresh check inside the differential runner itself — see
//! `refidem_testkit::diff`.)

use refidem_benchmarks::all_named_loops;
use refidem_core::cache::AnalysisCache;
use refidem_core::label::label_program_region;
use refidem_specsim::{simulate_region, ExecMode, SimConfig};
use refidem_testkit::{giant_block, GIANT_BLOCK_LABEL};

#[test]
fn cached_labelings_match_fresh_on_every_named_benchmark() {
    let cache = AnalysisCache::fresh();
    let benches = all_named_loops();
    for bench in &benches {
        let lookup = cache
            .label_region_cached(&bench.program, &bench.region)
            .expect("analyzes");
        assert!(!lookup.hit, "{}: first lookup must analyze", bench.name);
        let fresh = label_program_region(&bench.program, &bench.region).expect("analyzes");
        assert_eq!(lookup.region.labeling, fresh.labeling, "{}", bench.name);
        assert_eq!(
            lookup.region.analysis.deps, fresh.analysis.deps,
            "{}: cached dependences differ",
            bench.name
        );
        assert_eq!(
            lookup.region.analysis.fully_independent, fresh.analysis.fully_independent,
            "{}",
            bench.name
        );
        assert_eq!(
            lookup.region.analysis.compiler_parallelizable, fresh.analysis.compiler_parallelizable,
            "{}",
            bench.name
        );
    }
    // One entry per distinct (procedure, region); re-labeling hits every
    // one of them; the default capacity never evicts on the full suite.
    assert_eq!(cache.len(), benches.len());
    for bench in &benches {
        let again = cache
            .label_region_cached(&bench.program, &bench.region)
            .expect("analyzes");
        assert!(again.hit, "{}: second lookup must hit", bench.name);
    }
    assert_eq!(
        cache.evictions(),
        0,
        "the default capacity must swallow the whole suite"
    );
    let counters = cache.counters();
    assert_eq!(counters.hits, benches.len() as u64);
    assert_eq!(counters.misses, benches.len() as u64);
}

#[test]
fn cached_simulation_is_bit_identical_to_fresh_labeling_per_benchmark() {
    // End-to-end: simulating a labeling from the config's analysis cache
    // must produce the same memory image and the same report as labeling
    // from scratch, on every named benchmark.
    let cfg = SimConfig::default().analysis_cache(AnalysisCache::fresh());
    for bench in all_named_loops() {
        let fresh = label_program_region(&bench.program, &bench.region).expect("analyzes");
        let classic = simulate_region(&bench.program, &fresh, ExecMode::Case, &cfg)
            .unwrap_or_else(|e| panic!("{}: classic sim failed: {e}", bench.name));
        let lookup = cfg
            .analysis_cache
            .label_region_cached(&bench.program, &bench.region)
            .expect("analyzes");
        assert!(!lookup.hit, "{}: first lookup must analyze", bench.name);
        let cached = simulate_region(&bench.program, &lookup.region, ExecMode::Case, &cfg)
            .unwrap_or_else(|e| panic!("{}: cached sim failed: {e}", bench.name));
        // The classic run compiled first (lowering misses), the cached run
        // reused its bytecode (hits) — the lowering cache is checked on its
        // own terms elsewhere, so strip it before comparing the execution
        // statistics.
        let mut strip = cached.report.clone();
        strip.lowering_cache_hits = classic.report.lowering_cache_hits;
        strip.lowering_cache_misses = classic.report.lowering_cache_misses;
        strip.lowering_cache_evictions = classic.report.lowering_cache_evictions;
        assert_eq!(strip, classic.report, "{}: reports differ", bench.name);
        assert!(
            classic.memory.diff(&cached.memory, usize::MAX).is_empty(),
            "{}: memory differs",
            bench.name
        );
    }
}

#[test]
fn giant_block_cached_labeling_matches_fresh() {
    // The synthetic giant block: through the full labeling pipeline the
    // cached path must agree with a fresh labeling, dependence sets
    // included.
    let (program, spec) = giant_block(0x9e3779b9, 128);
    assert_eq!(spec.loop_label, GIANT_BLOCK_LABEL);
    let cache = AnalysisCache::fresh();
    let lookup = cache.label_region_cached(&program, &spec).expect("labels");
    let fresh = label_program_region(&program, &spec).expect("labels");
    assert_eq!(lookup.region.labeling, fresh.labeling);
    assert_eq!(lookup.region.analysis.deps, fresh.analysis.deps);
    assert!(!fresh.analysis.deps.is_empty());
}

#[test]
fn giant_block_is_seed_pinned() {
    let (a, _) = giant_block(7, 128);
    let (b, _) = giant_block(7, 128);
    let (c, _) = giant_block(8, 128);
    assert_eq!(a.procedures[0].body, b.procedures[0].body);
    assert_ne!(
        a.procedures[0].body, c.procedures[0].body,
        "different seeds draw different scalar tangles"
    );
}
