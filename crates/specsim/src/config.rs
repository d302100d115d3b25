//! Simulator configuration.

use crate::engine::ScratchPool;
use crate::fault::{FaultPlan, Governor};
use refidem_core::cache::AnalysisCache;
use refidem_ir::lowered::{ExecBackend, LoweredCache};

/// How speculative regions execute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SpecRuntime {
    /// The cycle-accounted event simulator (default): all segments
    /// interleave on the calling thread, smallest-clock-first, producing
    /// the paper-style simulated cycle counts and speedups.
    #[default]
    Simulated,
    /// The real-thread runtime ([`parallel`](crate::parallel)): one OS
    /// thread per simulated processor executes segments concurrently
    /// against the shared epoch-versioned speculative buffers, with
    /// atomic per-address dependence masks and strictly in-order commits.
    /// Final memory is byte-identical to the simulated engine and the
    /// sequential interpretation; cycle fields of the report are zero
    /// (time is real here — measure it with a wall clock), and the
    /// violation/rollback tallies depend on actual thread interleaving.
    Threads,
}

/// Latency of a speculative-storage access (hit), in cycles. The
/// speculative storage is small, not faster than the L1 of the
/// conventional hierarchy: both hit in the same number of cycles (the
/// default [`SimConfig::lat_nonspec`]). CASE's advantage comes from
/// avoiding overflow, not from cheaper accesses.
pub const LAT_SPEC: u64 = 3;

/// Latency of forwarding a value from an older segment's speculative
/// storage, in cycles.
pub const LAT_FORWARD: u64 = 4;

/// Penalty applied to a segment when it is rolled back, in cycles.
pub const ROLLBACK_PENALTY: u64 = 20;

/// Cost of committing one dirty speculative-storage entry, in cycles.
pub const COMMIT_PER_ENTRY: u64 = 1;

/// Fixed cost of dispatching a segment to a processor, in cycles.
pub const DISPATCH_COST: u64 = 4;

/// Per-segment cost of setting up the private stack when the labeling
/// contains private references (the paper notes "the stack setup adds a
/// substantial number of instructions"), in cycles.
pub const PRIVATE_SETUP_COST: u64 = 8;

/// Parameters of the simulated chip multiprocessor and its memory system.
///
/// Defaults follow the paper's setup where stated (4 processors,
/// kilobyte-scale speculative storage — here expressed in words) and use
/// simple latency ratios otherwise: speculative-storage hits cost what
/// non-speculative ones do, roll-backs and commits cost a handful of
/// cycles. The machine costs no run varies are this module's constants:
/// [`LAT_SPEC`], [`LAT_FORWARD`], [`ROLLBACK_PENALTY`],
/// [`COMMIT_PER_ENTRY`], [`DISPATCH_COST`] and [`PRIVATE_SETUP_COST`].
///
/// A config also carries the [`LoweredCache`] the runs compile through
/// and the [`AnalysisCache`] callers label through. Both default to their
/// process-global cache, so a capacity-ladder sweep that
/// builds one `SimConfig` per point still lowers — and analyzes — each
/// region exactly once per process:
///
/// ```
/// use refidem_specsim::SimConfig;
///
/// let a = SimConfig::default().capacity(4);
/// let b = SimConfig::default().capacity(256);
/// assert_eq!(a.cache, b.cache, "sweep points share compiled code");
/// assert_eq!(a.analysis_cache, b.analysis_cache, "and analyses");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of processors (the paper assumes Multiplex chips with four).
    pub processors: usize,
    /// Capacity of each processor's speculative storage, in words (entries).
    /// Both data values and reference-tracking entries occupy space.
    pub spec_capacity: usize,
    /// Latency of a non-speculative-storage (conventional memory hierarchy)
    /// access, in cycles.
    pub lat_nonspec: u64,
    /// Fixed cost of executing one statement (issue/compute), in cycles.
    pub stmt_cost: u64,
    /// Which execution backend the runs use: compiled bytecode (default —
    /// each unit in its one compiled form, see
    /// [`LowerUnit::fuses`](refidem_ir::lowered::LowerUnit::fuses)) or the
    /// tree-walking oracle. Both produce bit-identical results; the oracle
    /// exists for cross-checking and debugging.
    pub backend: ExecBackend,
    /// Compilation cache for the compiled backend. Defaults to the
    /// process-global cache ([`LoweredCache::global`]); substitute
    /// [`LoweredCache::fresh`] to isolate a run. The tree-walking oracle
    /// backend never compiles, so it never touches the cache.
    pub cache: LoweredCache,
    /// Analysis cache callers label through
    /// ([`AnalysisCache::label_program_cached`] before
    /// [`simulate_program`](crate::run::simulate_program)): the completed
    /// region analysis and its derived labeling are computed once per
    /// (procedure × region) and reused by every sweep point, mode and
    /// repetition. Defaults to the process-global cache
    /// ([`AnalysisCache::global`]); substitute [`AnalysisCache::fresh`] to
    /// isolate a run. The simulation entry points take labeled input and
    /// never touch it.
    pub analysis_cache: AnalysisCache,
    /// The pool engine scratch (dependence masks + per-processor buffer
    /// pool) is taken from and returned to, so it is reused across the
    /// regions of a schedule *and* across repeated simulation calls —
    /// including calls from the short-lived worker threads
    /// [`SweepExec`](crate::sweep::SweepExec) spawns. Defaults to the
    /// **process-global** pool ([`ScratchPool::global`]); substitute
    /// [`ScratchPool::fresh`] to isolate a run's allocations (a fresh
    /// pool per call allocates fresh scratch per call, bit-identically).
    pub scratch: ScratchPool,
    /// Which runtime executes speculative regions: the cycle-accounted
    /// single-thread simulator (default) or the real-thread runtime (see
    /// [`SpecRuntime`]).
    pub runtime: SpecRuntime,
    /// Deterministic fault-injection schedule (see [`FaultPlan`]). The
    /// default plan is empty: nothing is injected and the hot paths pay
    /// only one emptiness check.
    pub faults: FaultPlan,
    /// Degradation budgets and the serial-fallback switch (see
    /// [`Governor`]). The defaults are generous enough that no legitimate
    /// run trips them.
    pub governor: Governor,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 4,
            spec_capacity: 64,
            lat_nonspec: 3,
            stmt_cost: 1,
            backend: ExecBackend::default(),
            cache: LoweredCache::default(),
            analysis_cache: AnalysisCache::default(),
            scratch: ScratchPool::global(),
            runtime: SpecRuntime::Simulated,
            faults: FaultPlan::default(),
            governor: Governor::default(),
        }
    }
}

impl SimConfig {
    /// Convenience: sets the capacity and returns the modified config.
    pub fn capacity(mut self, spec_capacity: usize) -> Self {
        self.spec_capacity = spec_capacity;
        self
    }

    /// Convenience: sets the processor count and returns the modified
    /// config.
    pub fn processors(mut self, processors: usize) -> Self {
        self.processors = processors;
        self
    }

    /// Convenience: sets the execution backend and returns the modified
    /// config.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Convenience: selects the tree-walking oracle backend.
    pub fn oracle(self) -> Self {
        self.backend(ExecBackend::TreeWalk)
    }

    /// Convenience: sets the compilation cache and returns the modified
    /// config (e.g. `SimConfig::default().cache(LoweredCache::fresh())` to
    /// opt out of the process-global cache).
    pub fn cache(mut self, cache: LoweredCache) -> Self {
        self.cache = cache;
        self
    }

    /// Convenience: sets the analysis cache and returns the modified
    /// config (e.g.
    /// `SimConfig::default().analysis_cache(AnalysisCache::fresh())` to
    /// opt out of the process-global cache).
    pub fn analysis_cache(mut self, cache: AnalysisCache) -> Self {
        self.analysis_cache = cache;
        self
    }

    /// Convenience: sets the scratch pool the run draws from (e.g.
    /// `SimConfig::default().scratch(ScratchPool::fresh())` to opt out of
    /// the process-global pool) and returns the modified config.
    pub fn scratch(mut self, scratch: ScratchPool) -> Self {
        self.scratch = scratch;
        self
    }

    /// Convenience: selects the runtime that executes speculative regions
    /// and returns the modified config.
    pub fn runtime(mut self, runtime: SpecRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Convenience: selects the real-thread runtime
    /// ([`SpecRuntime::Threads`]) — one OS thread per simulated processor.
    pub fn threads(self) -> Self {
        self.runtime(SpecRuntime::Threads)
    }

    /// Convenience: installs a fault-injection schedule and returns the
    /// modified config.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Convenience: installs a degradation governor and returns the
    /// modified config.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = SimConfig::default();
        assert_eq!(c.processors, 4);
        assert!(c.spec_capacity > 0);
        assert_eq!(
            c.lat_nonspec, LAT_SPEC,
            "speculative storage is small, not faster"
        );
    }

    #[test]
    fn default_configs_share_the_global_cache_and_fresh_isolates() {
        let a = SimConfig::default();
        let b = SimConfig::default();
        assert_eq!(a.cache, b.cache, "defaults share the process-global cache");
        let c = SimConfig::default().cache(LoweredCache::fresh());
        assert_ne!(a.cache, c.cache, "a fresh cache is its own storage");
        assert_eq!(
            a.analysis_cache, b.analysis_cache,
            "defaults share the process-global analysis cache"
        );
        let d = SimConfig::default().analysis_cache(AnalysisCache::fresh());
        assert_ne!(a.analysis_cache, d.analysis_cache);
    }

    #[test]
    fn builders_override_fields() {
        let c = SimConfig::default().processors(8).capacity(16);
        assert_eq!(c.processors, 8);
        assert_eq!(c.spec_capacity, 16);
        let c2 = SimConfig::default().capacity(128).processors(2);
        assert_eq!(c2.spec_capacity, 128);
        assert_eq!(c2.processors, 2);
    }
}
