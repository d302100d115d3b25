//! Simulation reports and speedup comparisons.

use crate::fault::DegradeReason;
use crate::run::ExecMode;

/// Statistics of one speculative region execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Execution model that produced the report.
    pub mode: Option<ExecMode>,
    /// Number of segments (region-loop iterations) executed.
    pub segments: usize,
    /// Cycles spent executing the region (from region entry to the commit of
    /// the last segment).
    pub region_cycles: u64,
    /// Statement executions (including re-executions after roll-backs).
    pub statements: u64,
    /// Cross-segment flow-dependence violations detected.
    pub violations: u64,
    /// Segment roll-backs performed (a violation may roll several segments
    /// back).
    pub rollbacks: u64,
    /// Overflow events that stalled a (non-head) segment until it became the
    /// oldest.
    pub overflow_stalls: u64,
    /// Overflow events absorbed by the head segment writing/reading through
    /// to non-speculative storage.
    pub overflow_writethrough: u64,
    /// The largest number of times any single segment was restarted
    /// (violation roll-backs plus overflow restarts). The engine always
    /// tracked per-slot restart counts; surfacing the maximum makes
    /// livelock visible: forward progress guarantees it stays bounded —
    /// every restart is paid for by a violation roll-back or an overflow
    /// stall, so `max_segment_restarts <= rollbacks + overflow_stalls`
    /// (an invariant the testkit's differential runner checks).
    pub max_segment_restarts: u32,
    /// Segments committed.
    pub commits: u64,
    /// Speculative-storage entries committed to non-speculative storage.
    pub committed_entries: u64,
    /// Peak speculative-storage occupancy (entries) over all processors.
    pub spec_peak_occupancy: usize,
    /// Dynamic references served by speculative storage.
    pub spec_reads: u64,
    /// Dynamic writes into speculative storage.
    pub spec_writes: u64,
    /// Dynamic idempotent reads served by non-speculative storage.
    pub nonspec_reads: u64,
    /// Dynamic idempotent writes into non-speculative storage.
    pub nonspec_writes: u64,
    /// Dynamic reads of per-segment private storage.
    pub private_reads: u64,
    /// Dynamic writes of per-segment private storage.
    pub private_writes: u64,
    /// Values forwarded from an older segment's speculative storage.
    pub forwards: u64,
    /// Lowered-bytecode compilations this run *reused* from its
    /// [`LoweredCache`](refidem_ir::lowered::LoweredCache) (prologue,
    /// region body and epilogue are cached separately, so one simulation
    /// performs up to three cache queries). Always 0 on the tree-walking
    /// oracle backend, which never compiles — the `lowering_cache_*`
    /// counters describe the compilation pipeline, not the simulated
    /// execution, and are the only `SimReport` fields allowed to differ
    /// across backends.
    pub lowering_cache_hits: u64,
    /// Lowered-bytecode compilations this run had to perform because the
    /// cache had no entry yet. See [`SimReport::lowering_cache_hits`].
    pub lowering_cache_misses: u64,
    /// Cached compilations this run's lookups *evicted* under the cache's
    /// LRU size bound. The default bound is generous enough that ordinary
    /// sweeps never evict — a nonzero count flags a workload that cycles
    /// through more distinct procedures than the cache is sized for. Like
    /// the hit/miss counters, this describes the compilation pipeline, not
    /// the simulated execution.
    pub lowering_cache_evictions: u64,
    /// `Some(reason)` when the region's speculative run exhausted a
    /// degradation budget and the runtime transparently re-executed it
    /// *sequentially* (the paper's serial fallback). A degraded report
    /// carries the serial execution's `segments`, `commits` (one per
    /// segment, preserving the commits-equals-segments invariant),
    /// `region_cycles` and `statements`; the speculation statistics are
    /// zero because no speculative state survived the fallback.
    pub degraded: Option<DegradeReason>,
}

impl SimReport {
    /// Total dynamic references performed during the region execution.
    pub fn total_refs(&self) -> u64 {
        self.spec_reads
            + self.spec_writes
            + self.nonspec_reads
            + self.nonspec_writes
            + self.private_reads
            + self.private_writes
    }

    /// Fraction of dynamic references that bypassed speculative storage.
    pub fn bypass_fraction(&self) -> f64 {
        let total = self.total_refs();
        if total == 0 {
            0.0
        } else {
            (self.nonspec_reads + self.nonspec_writes + self.private_reads + self.private_writes)
                as f64
                / total as f64
        }
    }
}

/// Statistics of one whole-program simulation: the serial spans executed
/// sequentially plus every scheduled region executed speculatively, in
/// program order (produced by
/// [`simulate_program`](crate::run::simulate_program)).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramReport {
    /// Per-region execution statistics, in schedule order. Each region's
    /// `lowering_cache_*` counters cover its own body compilation; the
    /// serial spans' queries are accounted in the program-level counters
    /// below.
    pub regions: Vec<SimReport>,
    /// Cycles spent in the serial spans (one processor, non-speculative
    /// latency — the same accounting the sequential baseline uses).
    pub serial_cycles: u64,
    /// Whole-program cycles: `serial_cycles` plus every region's
    /// `region_cycles`, in execution order.
    pub total_cycles: u64,
    /// Lowering-cache hits across the whole run (serial spans and region
    /// bodies). Like [`SimReport::lowering_cache_hits`], these describe
    /// the compilation pipeline, not the simulated machine.
    pub lowering_cache_hits: u64,
    /// Lowering-cache misses across the whole run.
    pub lowering_cache_misses: u64,
    /// Lowering-cache LRU evictions performed by this run's lookups (see
    /// [`SimReport::lowering_cache_evictions`]).
    pub lowering_cache_evictions: u64,
}

impl ProgramReport {
    /// Cycles spent inside speculative regions (the parallel part of the
    /// serial/parallel breakdown).
    pub fn parallel_cycles(&self) -> u64 {
        self.regions.iter().map(|r| r.region_cycles).sum()
    }

    /// Fraction of the simulated execution spent inside speculative
    /// regions (0 for a serial-only program — coverage 0).
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.parallel_cycles() as f64 / self.total_cycles as f64
        }
    }

    /// The largest per-segment restart count over every region (the
    /// program-level livelock guard).
    pub fn max_segment_restarts(&self) -> u32 {
        self.regions
            .iter()
            .map(|r| r.max_segment_restarts)
            .max()
            .unwrap_or(0)
    }

    /// The regions that fell back to sequential re-execution, as
    /// `(schedule index, reason)` pairs — empty on a fully speculative
    /// run.
    pub fn degraded_regions(&self) -> Vec<(usize, DegradeReason)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.degraded.map(|reason| (i, reason)))
            .collect()
    }
}

/// Side-by-side HOSE vs CASE comparison for one region (the (b)-panels of
/// Figures 6–9).
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupComparison {
    /// Region name.
    pub region: String,
    /// Cycles of a one-processor, non-speculative execution of the region.
    pub sequential_cycles: u64,
    /// HOSE (hardware-only) report.
    pub hose: SimReport,
    /// CASE (compiler-assisted) report.
    pub case: SimReport,
}

impl SpeedupComparison {
    /// Loop speedup of HOSE relative to the sequential execution.
    pub fn hose_speedup(&self) -> f64 {
        speedup(self.sequential_cycles, self.hose.region_cycles)
    }

    /// Loop speedup of CASE relative to the sequential execution.
    pub fn case_speedup(&self) -> f64 {
        speedup(self.sequential_cycles, self.case.region_cycles)
    }

    /// CASE cycles relative to HOSE cycles (values below 1.0 mean CASE is
    /// faster).
    pub fn case_over_hose(&self) -> f64 {
        if self.hose.region_cycles == 0 {
            1.0
        } else {
            self.case.region_cycles as f64 / self.hose.region_cycles as f64
        }
    }
}

/// Ratio of sequential to parallel cycles (0 when the parallel cycle count
/// is zero).
pub fn speedup(sequential: u64, parallel: u64) -> f64 {
    if parallel == 0 {
        0.0
    } else {
        sequential as f64 / parallel as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fractions() {
        let r = SimReport {
            spec_reads: 10,
            spec_writes: 10,
            nonspec_reads: 20,
            nonspec_writes: 5,
            private_reads: 3,
            private_writes: 2,
            ..Default::default()
        };
        assert_eq!(r.total_refs(), 50);
        assert!((r.bypass_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(SimReport::default().bypass_fraction(), 0.0);
    }

    #[test]
    fn speedup_computation() {
        assert_eq!(speedup(100, 50), 2.0);
        assert_eq!(speedup(100, 0), 0.0);
        let cmp = SpeedupComparison {
            region: "R".into(),
            sequential_cycles: 1000,
            hose: SimReport {
                region_cycles: 500,
                ..Default::default()
            },
            case: SimReport {
                region_cycles: 250,
                ..Default::default()
            },
        };
        assert_eq!(cmp.hose_speedup(), 2.0);
        assert_eq!(cmp.case_speedup(), 4.0);
        assert_eq!(cmp.case_over_hose(), 0.5);
    }
}
