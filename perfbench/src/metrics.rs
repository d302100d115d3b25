//! The metric catalog: every end-to-end metric with its unit, direction
//! and regression bound, and every per-layer metric with its unit and
//! direction. The
//! names are the ones `BENCHMARK.json` lists (a test keeps the two in
//! step).

use crate::trace;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the pipeline sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, reported on every workload by an untraced run.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_p90", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
    e2e("sim_case_speedup_geo", "x", Better::Higher, 0.02),
    e2e("sim_hose_speedup_geo", "x", Better::Higher, 0.02),
    e2e("idempotent_ref_frac", "ratio", Better::Higher, 0.05),
];

/// The speculative-storage capacities the warm ladder visits.
pub const LADDER: [usize; 5] = [1, 2, 4, 16, 256];

/// Engine counters reported in total and per ladder capacity.
pub const ENGINE_COUNTERS: [(&str, &str, Better); 7] = [
    ("violations", "count", Better::Lower),
    ("rollbacks", "count", Better::Lower),
    ("overflow_stalls", "count", Better::Lower),
    ("overflow_writethrough", "count", Better::Lower),
    ("forwards", "count", Better::Higher),
    ("spec_peak_occupancy", "entries", Better::Lower),
    ("useful_attempt_frac", "ratio", Better::Higher),
];

/// A per-layer metric: name, unit and improvement direction.
pub type PerLayer = (String, &'static str, Better);

/// Every per-layer metric, reported on every workload by a traced run; a
/// layer a workload does not reach reads 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut push =
        |name: &str, unit: &'static str, better: Better| out.push((name.to_string(), unit, better));
    for layer in trace::LAYERS {
        push(&format!("{layer}.ns"), "ns", Lower);
    }
    push("analysis.discover_regions.regions", "count", Higher);
    push("analysis.region_analyze.sites", "count", Lower);
    push("analysis.region_analyze.dep_pairs", "count", Lower);
    push("core.label_region.idempotent_static_frac", "ratio", Higher);
    push("core.analysis_cache.hit_ratio", "ratio", Higher);
    push("core.analysis_cache.misses", "count", Lower);
    push("core.analysis_cache.evictions", "count", Lower);
    push("ir.lower.insts", "count", Lower);
    push("ir.fuse.insts", "count", Lower);
    push("ir.fuse.superinsts", "count", Higher);
    push("ir.lowered_cache.hit_ratio", "ratio", Higher);
    push("ir.lowered_cache.misses", "count", Lower);
    push("ir.lowered_cache.evictions", "count", Lower);
    push("ir.seq_interp.ns_per_stmt", "ns", Lower);
    push("specsim.engine.ns_per_stmt", "ns", Lower);
    push("specsim.engine.sim_cycles", "cycles", Lower);
    for (counter, unit, better) in ENGINE_COUNTERS {
        push(&format!("specsim.engine.{counter}"), unit, better);
    }
    for cap in LADDER {
        for (counter, unit, better) in ENGINE_COUNTERS {
            push(&format!("specsim.engine.cap{cap}.{counter}"), unit, better);
        }
    }
    push("specsim.parallel.ns_per_region", "ns", Lower);
    push("specsim.parallel.rollbacks", "count", Lower);
    push("specsim.parallel.violations", "count", Lower);
    push("specsim.parallel.overflow_stalls", "count", Lower);
    push("specsim.parallel.useful_attempt_frac", "ratio", Higher);
    push("specsim.parallel.speedup_vs_seq", "x", Higher);
    push("specsim.parallel.thread_scaling", "x", Higher);
    push("specsim.governor.degraded_regions", "count", Lower);
    push("trace.uncovered_frac", "ratio", Lower);
    push("trace.overhead_frac", "ratio", Lower);
    push("trace.spans_per_op", "count", Lower);
    out
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        assert!(per_layer().len() <= 128);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        for n in &names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
    }
}
