//! A keyed, shareable cache of completed region analyses — the analysis-side
//! counterpart of [`refidem_ir::lowered::LoweredCache`], and the same
//! bounded LRU ([`KeyedCache`]) underneath.
//!
//! Reference-idempotency analysis is a pure function of (procedure, region):
//! procedures are immutable after construction, so a `(Procedure::uid`,
//! region label`)` pair fully determines the
//! [`RegionAnalysis`](refidem_analysis::region::RegionAnalysis) and the
//! [`Labeling`](crate::label::Labeling) derived from it. That makes the
//! bundle safe to compute once and share process-wide — capacity ladders,
//! processor sweeps, differential suites and chaos schedules all re-label
//! the *same* regions over and over, and with this cache they analyze once
//! per (procedure × region) instead of once per point.

use std::sync::{Arc, OnceLock};

use refidem_analysis::region::AnalysisError;
use refidem_ir::cache::{Counted, KeyedCache, Tally};
use refidem_ir::ids::ProcId;
use refidem_ir::program::{Procedure, Program, RegionSpec};

use crate::label::{label_program_region, label_program_with, LabeledProgram, LabeledRegion};

/// Identity of one cached analysis: which procedure (by process-unique
/// [`Procedure::uid`]) and which region (by loop label) it covers.
///
/// In debug builds the key also carries a structural fingerprint of the
/// procedure (the same [`fingerprint_procedure`] the lowering cache uses),
/// so a procedure mutated in place maps to a new key and re-analyzes
/// instead of serving a stale summary.
///
/// [`fingerprint_procedure`]: refidem_ir::lowered::fingerprint_procedure
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisKey {
    /// Process-unique identity of the procedure.
    pub proc_uid: u64,
    /// Loop label of the analyzed region.
    pub region: String,
    /// Structural fingerprint guarding against in-place mutation.
    #[cfg(debug_assertions)]
    pub fingerprint: u64,
}

impl AnalysisKey {
    /// Builds the key for analyzing region `region` of `proc`.
    pub fn new(proc: &Procedure, region: impl Into<String>) -> Self {
        AnalysisKey {
            proc_uid: proc.uid(),
            region: region.into(),
            #[cfg(debug_assertions)]
            fingerprint: refidem_ir::lowered::fingerprint_procedure(&proc.vars, &proc.body),
        }
    }
}

/// Per-call outcome of an [`AnalysisCache::lookup`]: the labeled region
/// plus exactly what this call did to the cache.
#[derive(Clone, Debug)]
pub struct AnalysisLookup {
    /// The analyzed and labeled region (cached or freshly analyzed).
    pub region: Arc<LabeledRegion>,
    /// True when the bundle was served from the cache.
    pub hit: bool,
    /// Entries this call evicted to make room (0 on a hit).
    pub evicted: u64,
}

impl Counted for AnalysisLookup {
    fn hit(&self) -> bool {
        self.hit
    }

    fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Per-run attribution of analysis-cache traffic: the one cache [`Tally`].
pub type AnalysisTally = Tally;

/// A keyed, shareable cache of completed region analyses (summary *and*
/// derived labeling) — what makes repeated labelings of the same region
/// (capacity ladders, differential suites, chaos schedules) *analyze once
/// and iterate cheap*.
///
/// A thin wrapper over the bounded LRU [`KeyedCache`] (which it derefs to
/// for the counters, bound and occupancy) that adds the labeling entry
/// points. [`AnalysisCache::default`] returns the **process-global**
/// cache, so two independently-constructed `SimConfig`s — e.g. one per
/// capacity point of a sweep — still share analyses. Use
/// [`AnalysisCache::fresh`] for an isolated cache (tests, one-shot
/// generated programs).
///
/// Cached bundles are shared behind `Arc` and must be treated as
/// immutable; a caller that wants to mutate a labeling (e.g. tamper
/// testing) must clone the bundle out of the `Arc` first.
///
/// ```
/// use refidem_core::cache::AnalysisCache;
/// use refidem_ir::build::{ac, av, num, ProcBuilder};
/// use refidem_ir::program::Program;
///
/// let mut b = ProcBuilder::new("p");
/// let a = b.array("a", &[8]);
/// let k = b.index("k");
/// b.live_out(&[a]);
/// let s = b.assign_elem(a, vec![av(k)], num(1.0));
/// let body = vec![b.do_loop_labeled("L", k, ac(1), ac(8), vec![s])];
/// let mut program = Program::new("toy");
/// program.add_procedure(b.build(body));
///
/// let cache = AnalysisCache::fresh();
/// let spec = program.find_region("L").unwrap();
/// let first = cache.label_region_cached(&program, &spec).unwrap();
/// assert!(!first.hit, "first lookup analyzes");
/// let second = cache.label_region_cached(&program, &spec).unwrap();
/// assert!(second.hit, "second lookup reuses the analysis");
/// assert!(std::sync::Arc::ptr_eq(&first.region, &second.region));
/// assert_eq!(cache.stats(), (1, 1)); // (hits, misses)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisCache(KeyedCache<AnalysisKey, LabeledRegion>);

impl Default for AnalysisCache {
    /// The **process-global** cache handle (see the type-level docs).
    fn default() -> Self {
        static GLOBAL: OnceLock<AnalysisCache> = OnceLock::new();
        GLOBAL.get_or_init(AnalysisCache::fresh).clone()
    }
}

impl std::ops::Deref for AnalysisCache {
    type Target = KeyedCache<AnalysisKey, LabeledRegion>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl AnalysisCache {
    /// Creates an empty cache that shares storage with nothing else, bounded
    /// at [`KeyedCache::DEFAULT_CAPACITY`] entries.
    pub fn fresh() -> Self {
        AnalysisCache(KeyedCache::fresh())
    }

    /// The process-global cache (same handle [`Default`] returns).
    pub fn global() -> Self {
        AnalysisCache::default()
    }

    /// Returns the cached bundle for `key`, computing it with `analyze` on
    /// a miss, along with exactly what this call did to the cache (see
    /// [`KeyedCache::try_lookup`]: a failed analysis is returned as-is and
    /// never cached).
    pub fn lookup(
        &self,
        key: AnalysisKey,
        analyze: impl FnOnce() -> Result<LabeledRegion, AnalysisError>,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let lookup = self.0.try_lookup(key, analyze)?;
        Ok(AnalysisLookup {
            region: lookup.value,
            hit: lookup.hit,
            evicted: lookup.evicted,
        })
    }

    /// Analyzes and labels the region designated by `spec` through the
    /// cache — the cached counterpart of [`label_program_region`].
    pub fn label_region_cached(
        &self,
        program: &Program,
        spec: &RegionSpec,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let key = AnalysisKey::new(program.procedure(spec.proc), spec.loop_label.clone());
        self.lookup(key, || label_program_region(program, spec))
    }

    /// Analyzes and labels the region whose loop label is `label` through
    /// the cache — the cached counterpart of
    /// [`label_program_region_by_name`](crate::label::label_program_region_by_name).
    pub fn label_region_by_name_cached(
        &self,
        program: &Program,
        label: &str,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let spec = program
            .find_region(label)
            .ok_or_else(|| AnalysisError::RegionNotFound(label.to_string()))?;
        self.label_region_cached(program, &spec)
    }

    /// Discovers, analyzes and labels every region of `proc` through the
    /// cache — the cached counterpart of
    /// [`label_program`](crate::label::label_program). Returns the labeled
    /// program plus this call's attributed cache traffic (one lookup per
    /// discovered region).
    pub fn label_program_cached(
        &self,
        program: &Program,
        proc: ProcId,
    ) -> Result<(LabeledProgram, AnalysisTally), AnalysisError> {
        let mut tally = AnalysisTally::default();
        let labeled = label_program_with(program, proc, |spec| {
            let lookup = self.label_region_cached(program, spec)?;
            tally.count(&lookup);
            Ok(LabeledRegion::clone(&lookup.region))
        })?;
        Ok((labeled, tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, av, num, ProcBuilder};
    use refidem_ir::ids::ProcId;

    /// A two-region program: `R1` writes `a(k)`, `R2` writes `b(k)`.
    fn two_region_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[8]);
        let bb = b.array("b", &[8]);
        let k = b.index("k");
        b.live_out(&[a, bb]);
        let s1 = b.assign_elem(a, vec![av(k)], num(1.0));
        let r1 = b.do_loop_labeled("R1", k, ac(1), ac(8), vec![s1]);
        let s2 = b.assign_elem(bb, vec![av(k)], num(2.0));
        let r2 = b.do_loop_labeled("R2", k, ac(1), ac(8), vec![s2]);
        let mut program = Program::new("two");
        program.add_procedure(b.build(vec![r1, r2]));
        program
    }

    #[test]
    fn distinct_regions_get_distinct_entries() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let (labeled, tally) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        assert_eq!(labeled.regions.len(), 2);
        assert_eq!(cache.len(), 2, "one entry per region");
        assert_eq!(
            tally,
            AnalysisTally {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
        // Re-labeling the same program hits both entries.
        let (_, tally) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        assert_eq!(
            tally,
            AnalysisTally {
                hits: 2,
                misses: 0,
                evictions: 0
            }
        );
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn cached_and_fresh_labelings_are_identical() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let (cached, _) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        let fresh = crate::label::label_program(&program, ProcId::from_index(0)).expect("labels");
        for (c, f) in cached.regions.iter().zip(&fresh.regions) {
            assert_eq!(c.labeling, f.labeling);
            assert_eq!(c.analysis.deps, f.analysis.deps);
            assert_eq!(c.analysis.fully_independent, f.analysis.fully_independent);
        }
    }

    /// `DEP`: `t = c(k); a(k) = a(k-1) + t`, a cross-segment flow
    /// dependence, an intra-segment flow through the private scalar `t`
    /// and a read-only (idempotent) reference.
    fn dependent_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let c = b.array("c", &[16]);
        let t = b.scalar("t");
        let k = b.index("k");
        b.live_out(&[a]);
        let c_k = b.load_elem(c, vec![av(k)]);
        let s1 = b.assign_scalar(t, c_k);
        let rhs = refidem_ir::build::add(b.load_elem(a, vec![av(k) - ac(1)]), b.load(t));
        let s2 = b.assign_elem(a, vec![av(k)], rhs);
        let r = b.do_loop_labeled("DEP", k, ac(2), ac(16), vec![s1, s2]);
        let mut program = Program::new("dep");
        program.add_procedure(b.build(vec![r]));
        program
    }

    /// `label_program_cached` hands out copies of the cached bundles whose
    /// dependence set, reference table, body summary and label table are
    /// the cached ones, shared — a regression to deep copies fails here,
    /// not only in a benchmark.
    #[test]
    fn cached_regions_share_their_analysis_products() {
        let program = dependent_program();
        let cache = AnalysisCache::fresh();
        for expect_hit in [false, true] {
            let (labeled, tally) = cache
                .label_program_cached(&program, ProcId::from_index(0))
                .expect("labels");
            assert_eq!(tally.hits, expect_hit as u64);
            let region = &labeled.regions[0];
            let cached = cache
                .label_region_by_name_cached(&program, "DEP")
                .expect("labels")
                .region;
            let deps = &region.analysis.deps;
            assert!(!deps.is_empty());
            let t_read = region
                .analysis
                .table
                .sites()
                .iter()
                .map(|s| s.id)
                .find(|&r| !deps.intra_sources(r).is_empty())
                .expect("the read of t has an intra-segment source");
            assert!(std::ptr::eq(
                deps.intra_sources(t_read).as_ptr(),
                cached.analysis.deps.intra_sources(t_read).as_ptr()
            ));
            assert!(std::ptr::eq(
                region.analysis.table.sites().as_ptr(),
                cached.analysis.table.sites().as_ptr()
            ));
            let summary: Vec<_> = region.analysis.summary.iter().collect();
            let cached_summary: Vec<_> = cached.analysis.summary.iter().collect();
            assert!(!summary.is_empty());
            assert_eq!(summary.len(), cached_summary.len());
            for ((v, entry), (cached_v, cached_entry)) in summary.into_iter().zip(cached_summary) {
                assert_eq!(v, cached_v);
                assert!(std::ptr::eq(entry, cached_entry), "{v:?} was copied");
            }
            assert!(region.labeling.shares_table_with(&cached.labeling));
        }
    }

    /// Tampering a copy of a hit — what the ablations and the benchmark's
    /// tamper path do — changes that copy only: the next hit still serves
    /// the labeling the cache computed.
    #[test]
    fn tampering_a_hit_stays_local() {
        use crate::label::{IdemCategory, Label};
        let program = dependent_program();
        let cache = AnalysisCache::fresh();
        let lookup = || {
            cache
                .label_region_by_name_cached(&program, "DEP")
                .expect("labels")
        };
        let original = lookup().region.labeling.clone();
        let hit = lookup();
        assert!(hit.hit);
        let speculative = original.iter().find(|(_, l)| !l.is_idempotent());
        let (site, _) = speculative.expect("a speculative site");
        let mut promoted = LabeledRegion::clone(&hit.region);
        let promotion = Label::Idempotent(IdemCategory::SharedDependent);
        promoted.labeling.override_label(site, promotion);
        assert_eq!(promoted.labeling.label(site), promotion);
        let mut demoted = LabeledRegion::clone(&hit.region);
        assert!(original.iter().any(|(_, l)| l.is_idempotent()));
        demoted
            .labeling
            .retain_idempotent(&std::collections::BTreeSet::new());
        assert!(demoted.labeling.iter().all(|(_, l)| !l.is_idempotent()));
        let next = lookup();
        assert!(next.hit);
        assert_eq!(next.region.labeling, original);
        assert_eq!(hit.region.labeling, original);
        let (labeled, _) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        assert_eq!(labeled.regions[0].labeling, original);
    }

    #[test]
    fn fresh_caches_are_isolated_and_the_global_is_shared() {
        let a = AnalysisCache::fresh();
        let b = AnalysisCache::fresh();
        assert_ne!(a, b, "fresh caches never share storage");
        assert_eq!(AnalysisCache::default(), AnalysisCache::global());
        let program = two_region_program();
        let spec = program.find_region("R1").unwrap();
        a.label_region_cached(&program, &spec).expect("labels");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 0, "isolated cache sees no traffic");
    }

    #[test]
    fn lookups_report_their_evictions() {
        let cache = AnalysisCache::fresh();
        cache.set_capacity(1);
        let program = two_region_program();
        let r1 = program.find_region("R1").unwrap();
        let r2 = program.find_region("R2").unwrap();
        let first = cache.label_region_cached(&program, &r1).expect("labels");
        assert_eq!(first.evicted, 0);
        let second = cache.label_region_cached(&program, &r2).expect("labels");
        assert_eq!(second.evicted, 1, "second analysis evicts the first");
        assert_eq!(cache.evictions(), 1);
        // R1 was evicted: looking it up again re-analyzes.
        let again = cache.label_region_cached(&program, &r1).expect("labels");
        assert!(!again.hit);
    }

    #[test]
    fn failed_analyses_are_not_cached() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let err = cache.label_region_by_name_cached(&program, "NOPE");
        assert!(err.is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0), "failures count neither hit nor miss");
    }
}
