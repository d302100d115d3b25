//! A keyed, shareable cache of completed region analyses — the analysis-side
//! counterpart of [`refidem_ir::lowered::LoweredCache`].
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
//!
//! The cache mirrors `LoweredCache`'s shape exactly: a cheap `Clone` handle
//! over shared storage, a process-global [`Default`],
//! [`fresh`](AnalysisCache::fresh) isolation for tests, a size-bounded LRU with
//! eviction counters, and (in debug builds) a structural fingerprint in the
//! key that enforces the procedures-are-immutable convention.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use refidem_analysis::region::AnalysisError;
use refidem_ir::ids::ProcId;
use refidem_ir::lowered::CacheCounters;
use refidem_ir::program::{Procedure, Program, RegionSpec};

use crate::label::{label_program_region, LabeledProgram, LabeledRegion};

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

/// One cached analysis bundle plus the recency stamp LRU eviction orders by.
struct CacheSlot {
    region: Arc<LabeledRegion>,
    last_used: u64,
}

struct CacheInner {
    map: std::collections::HashMap<AnalysisKey, CacheSlot>,
    capacity: usize,
    /// Monotonic lookup clock; every hit or insert stamps its entry.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheInner {
    fn with_capacity(capacity: usize) -> Self {
        CacheInner {
            map: std::collections::HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the map fits the bound.
    /// Returns how many entries were dropped. The scan is linear in the
    /// entry count — eviction only happens at the bound, and the bound is
    /// sized so ordinary workloads never reach it.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut dropped = 0u64;
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            dropped += 1;
        }
        self.evictions += dropped;
        dropped
    }
}

/// Per-call outcome of an [`AnalysisCache::lookup`]: the labeled region
/// plus exactly what this call did to the cache, so callers can attribute
/// hit/miss/eviction counts to a single run without racing other threads
/// on the shared lifetime counters.
#[derive(Clone, Debug)]
pub struct AnalysisLookup {
    /// The analyzed and labeled region (cached or freshly analyzed).
    pub region: Arc<LabeledRegion>,
    /// True when the bundle was served from the cache.
    pub hit: bool,
    /// Entries this call evicted to make room (0 on a hit).
    pub evicted: u64,
}

/// Per-run attribution of analysis-cache traffic, accumulated by counting
/// [`AnalysisLookup`] outcomes (exact under concurrent users of a shared
/// cache, unlike diffing the lifetime counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisTally {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to analyze.
    pub misses: u64,
    /// Entries evicted by this run's inserts.
    pub evictions: u64,
}

impl AnalysisTally {
    /// Folds one lookup outcome into the tally.
    pub fn count(&mut self, lookup: &AnalysisLookup) {
        if lookup.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.evictions += lookup.evicted;
    }
}

/// A keyed, shareable cache of completed region analyses (summary *and*
/// derived labeling) — what makes repeated labelings of the same region
/// (capacity ladders, differential suites, chaos schedules) *analyze once
/// and iterate cheap*.
///
/// The cache is a cheap handle (`Clone` shares the underlying storage);
/// [`AnalysisCache::default`] returns the **process-global** cache, so two
/// independently-constructed `SimConfig`s — e.g. one per capacity point of
/// a sweep — still share analyses. Use [`AnalysisCache::fresh`] for an
/// isolated cache (tests, one-shot generated programs).
///
/// The cache is **size-bounded**: it holds at most
/// [`capacity`](AnalysisCache::capacity) analysis bundles and evicts the
/// least-recently-used entry when a new analysis would exceed the bound.
/// The default bound ([`AnalysisCache::DEFAULT_CAPACITY`]) is deliberately
/// generous — far above what the benchmark suite and the differential
/// corpus populate — so ordinary workloads never observe an eviction (a
/// property the test suite asserts). Evictions are counted and surfaced
/// next to hits and misses via [`counters`](AnalysisCache::counters).
///
/// Cached bundles are shared behind `Arc` and must be treated as
/// immutable; a caller that wants to mutate a labeling (e.g. tamper
/// testing) must clone the bundle out of the `Arc` first.
///
/// ```
/// use refidem_core::cache::{AnalysisCache, AnalysisKey};
/// use refidem_core::label::label_program_region;
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
#[derive(Clone)]
pub struct AnalysisCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl Default for AnalysisCache {
    /// The **process-global** cache handle (see the type-level docs).
    fn default() -> Self {
        static GLOBAL: OnceLock<AnalysisCache> = OnceLock::new();
        GLOBAL.get_or_init(AnalysisCache::fresh).clone()
    }
}

/// Handle identity: two cache values are equal when they share the same
/// underlying storage. (This is what lets configuration types holding a
/// cache keep a derived `PartialEq`.)
impl PartialEq for AnalysisCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("AnalysisCache")
            .field("entries", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

impl AnalysisCache {
    /// Default entry bound: far above the handful of (procedure, region)
    /// pairs the benchmark suite and a differential corpus run analyze, so
    /// only a deliberately long-lived process with an unbounded stream of
    /// *distinct* procedures ever evicts.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty cache that shares storage with nothing else, bounded
    /// at [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY) entries.
    pub fn fresh() -> Self {
        AnalysisCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty, isolated cache holding at most `capacity` entries
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache {
            inner: Arc::new(Mutex::new(CacheInner::with_capacity(capacity))),
        }
    }

    /// The process-global cache (same handle [`Default`] returns).
    pub fn global() -> Self {
        AnalysisCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("analysis cache poisoned")
    }

    /// Returns the cached bundle for `key`, computing it with `analyze` on
    /// a miss, along with exactly what this call did to the cache.
    ///
    /// Analysis runs *outside* the cache lock, so concurrent users (e.g.
    /// sweep workers) never serialize their analyses; if two threads race
    /// on the same key both analyze and one result wins — harmless, since
    /// equal keys produce identical bundles. Inserting past the bound
    /// evicts least-recently-used entries. A failed analysis is returned
    /// as-is and never cached (and counts neither as hit nor miss).
    pub fn lookup(
        &self,
        key: AnalysisKey,
        analyze: impl FnOnce() -> Result<LabeledRegion, AnalysisError>,
    ) -> Result<AnalysisLookup, AnalysisError> {
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(found) = inner.map.get_mut(&key) {
                found.last_used = stamp;
                let region = found.region.clone();
                inner.hits += 1;
                return Ok(AnalysisLookup {
                    region,
                    hit: true,
                    evicted: 0,
                });
            }
        }
        let analyzed = Arc::new(analyze()?);
        let mut inner = self.lock();
        inner.misses += 1;
        let stamp = inner.touch();
        let region = inner
            .map
            .entry(key)
            .or_insert(CacheSlot {
                region: analyzed,
                last_used: stamp,
            })
            .region
            .clone();
        let evicted = inner.evict_to_capacity();
        Ok(AnalysisLookup {
            region,
            hit: false,
            evicted,
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
    /// program plus this call's attributed cache traffic.
    pub fn label_program_cached(
        &self,
        program: &Program,
        proc: ProcId,
    ) -> Result<(LabeledProgram, AnalysisTally), AnalysisError> {
        let schedule = refidem_analysis::schedule::discover_regions(program, proc);
        // Mirror `label_program`'s duplicate-label rejection: a `RegionSpec`
        // resolves first-match, so duplicate labels would silently run the
        // second loop under the first loop's analysis.
        let mut seen = std::collections::BTreeSet::new();
        for r in &schedule.regions {
            if !seen.insert(r.spec.loop_label.as_str()) {
                return Err(AnalysisError::DuplicateRegionLabel(
                    r.spec.loop_label.clone(),
                ));
            }
        }
        let mut tally = AnalysisTally::default();
        let regions = schedule
            .regions
            .iter()
            .map(|r| {
                let lookup = self.label_region_cached(program, &r.spec)?;
                tally.count(&lookup);
                Ok(LabeledRegion::clone(&lookup.region))
            })
            .collect::<Result<Vec<_>, AnalysisError>>()?;
        Ok((
            LabeledProgram {
                proc,
                schedule,
                regions,
            },
            tally,
        ))
    }

    /// `(hits, misses)` accumulated over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Lifetime counters plus occupancy and bound, in one snapshot.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.lock();
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }

    /// Entries dropped by LRU eviction over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Changes the entry bound (clamped to at least 1), evicting
    /// least-recently-used entries immediately if the cache is over the new
    /// bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        inner.evict_to_capacity();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the counters (the storage — and thus
    /// handle identity — is kept; the capacity bound is kept too).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
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

    /// `label_program_cached` hands out copies of the cached bundles whose
    /// dependence set and reference table are the cached ones, shared —
    /// a regression to deep copies fails here, not only in a benchmark.
    #[test]
    fn cached_regions_share_their_analysis_products() {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        b.live_out(&[a]);
        let rhs = refidem_ir::build::add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let r = b.do_loop_labeled("DEP", k, ac(2), ac(16), vec![s]);
        let mut program = Program::new("dep");
        program.add_procedure(b.build(vec![r]));
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
            assert!(!region.analysis.deps.is_empty());
            assert!(std::ptr::eq(
                region.analysis.deps.deps().as_ptr(),
                cached.analysis.deps.deps().as_ptr()
            ));
            assert!(std::ptr::eq(
                region.analysis.table.sites().as_ptr(),
                cached.analysis.table.sites().as_ptr()
            ));
        }
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
    fn capacity_one_evicts_lru() {
        let cache = AnalysisCache::with_capacity(1);
        let program = two_region_program();
        let r1 = program.find_region("R1").unwrap();
        let r2 = program.find_region("R2").unwrap();
        let first = cache.label_region_cached(&program, &r1).expect("labels");
        assert_eq!(first.evicted, 0);
        let second = cache.label_region_cached(&program, &r2).expect("labels");
        assert_eq!(second.evicted, 1, "second analysis evicts the first");
        assert_eq!(cache.len(), 1);
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

    #[test]
    fn clear_keeps_identity_and_capacity() {
        let cache = AnalysisCache::with_capacity(7);
        let program = two_region_program();
        let spec = program.find_region("R1").unwrap();
        cache.label_region_cached(&program, &spec).expect("labels");
        let alias = cache.clone();
        cache.clear();
        assert_eq!(cache, alias);
        assert_eq!(cache.capacity(), 7);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }
}
