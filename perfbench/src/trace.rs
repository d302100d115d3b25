//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out at the end: per-layer self time, the share of op time no
//! span covers, and a Chrome trace-event export (viewable offline in
//! Perfetto or `chrome://tracing`).

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of one op.
pub const OP: &str = "op";
/// `schedule::discover_regions`.
pub const DISCOVER: &str = "analysis.discover_regions";
/// `region::RegionAnalysis::analyze`.
pub const ANALYZE: &str = "analysis.region_analyze";
/// `label::label_region`.
pub const LABEL: &str = "core.label_region";
/// One `cache::AnalysisCache` lookup (its self time excludes the analysis
/// and labeling it runs on a miss).
pub const ANALYSIS_CACHE: &str = "core.analysis_cache";
/// `lowered::lower_with_ranges` on a region body.
pub const LOWER: &str = "ir.lower";
/// `lowered::fused::fuse` on a lowered region body.
pub const FUSE: &str = "ir.fuse";
/// `run_program_sequential` on the compiled tier.
pub const SEQ_INTERP: &str = "ir.seq_interp";
/// `simulate_program` under `SpecRuntime::Simulated`.
pub const ENGINE: &str = "specsim.engine";
/// `simulate_program` under `SpecRuntime::Threads`.
pub const PARALLEL: &str = "specsim.parallel";
/// `simulate_program` under `SpecRuntime::Threads` at one segment thread.
pub const PARALLEL_T1: &str = "specsim.parallel.t1";

/// Wraps a layer span the op itself does not run (the real-thread runtime
/// on a simulator op), marking it a probe.
pub const PROBE: &str = "probe";

/// Spans that repeat, from outside, work another call of the op already
/// does internally (lowering and fusing happen inside `simulate_program`)
/// or that measure a layer the op does not run or a reference point (the
/// real-thread runtime, the sequential interpreter, the one-thread
/// runtime). They are subtracted before the traced op time is compared
/// with the untraced one.
pub const PROBES: [&str; 5] = [LOWER, FUSE, SEQ_INTERP, PARALLEL_T1, PROBE];

/// Every layer span, in report order.
pub const LAYERS: [&str; 10] = [
    DISCOVER,
    ANALYZE,
    LABEL,
    ANALYSIS_CACHE,
    LOWER,
    FUSE,
    SEQ_INTERP,
    ENGINE,
    PARALLEL,
    PARALLEL_T1,
];

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name (one of the constants above).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u32,
}

/// Records properly nested spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; an [`OP`] span starts a new op.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if name == OP {
            self.ops += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.ops.saturating_sub(1),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in nesting order");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What the spans of a traced phase add up to.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Self time per layer, summed over every op.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls per layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Duration of each op span.
    pub op_ns: Vec<f64>,
    /// Per op, the time spent in [`PROBES`].
    pub probe_ns: Vec<f64>,
    /// Op time no child span covers, summed over ops.
    pub uncovered_ns: u64,
    /// Spans recorded.
    pub spans: usize,
}

impl Profile {
    /// Aggregates `spans`: a span's self time is its duration minus the
    /// durations of its direct children.
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut profile = Profile {
            spans: spans.len(),
            ..Profile::default()
        };
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            if s.name == OP {
                profile.op_ns.push(dur as f64);
                profile.probe_ns.push(0.0);
                profile.uncovered_ns += self_ns;
                continue;
            }
            *profile.self_ns.entry(s.name).or_default() += self_ns;
            *profile.calls.entry(s.name).or_default() += 1;
            if PROBES.contains(&s.name) {
                profile.probe_ns[s.op as usize] += dur as f64;
            }
        }
        profile
    }

    /// Total op time.
    pub fn total_op_ns(&self) -> f64 {
        self.op_ns.iter().sum()
    }

    /// The per-layer self-time table, one line per layer.
    pub fn table(&self) -> String {
        let total = self.total_op_ns().max(1.0);
        let ops = self.op_ns.len().max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>8}",
            "layer", "calls", "self ms", "self us/op", "share"
        );
        for name in LAYERS {
            let ns = self.self_ns.get(name).copied().unwrap_or(0) as f64;
            let calls = self.calls.get(name).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12.3} {:>12.3} {:>7.2}%",
                name,
                calls,
                ns / 1e6,
                ns / ops / 1e3,
                100.0 * ns / total
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12.3} {:>12.3} {:>7.2}%",
            "(uncovered)",
            self.op_ns.len(),
            self.uncovered_ns as f64 / 1e6,
            self.uncovered_ns as f64 / ops / 1e3,
            100.0 * self.uncovered_ns as f64 / total
        );
        out
    }
}

/// The spans of the first `max_ops` ops as a Chrome trace-event document.
pub fn chrome_trace(spans: &[Span], process: &str, max_ops: u32) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {{\"name\": {}}}}}",
        json::string(process)
    );
    for s in spans.iter().filter(|s| s.op < max_ops) {
        let parent = s.parent.map(|p| spans[p as usize].name).unwrap_or("");
        let category = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            ",\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {{\"op\": {}, \"parent\": {}, \"probe\": {}}}}}",
            json::string(s.name),
            json::string(category),
            json::number(s.start_ns as f64 / 1e3),
            json::number((s.end_ns - s.start_ns) as f64 / 1e3),
            s.op,
            json::string(parent),
            PROBES.contains(&s.name)
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(OP, 0, 100, None, 0),
            span(ANALYSIS_CACHE, 10, 50, Some(0), 0),
            span(ANALYZE, 15, 35, Some(1), 0),
            span(LOWER, 60, 70, Some(0), 0),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.self_ns[ANALYSIS_CACHE], 20);
        assert_eq!(p.self_ns[ANALYZE], 20);
        assert_eq!(p.uncovered_ns, 50);
        assert_eq!(p.op_ns, vec![100.0]);
        assert_eq!(p.probe_ns, vec![10.0]);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::default();
        let op = t.begin(OP);
        let d = t.begin(DISCOVER);
        t.end(d);
        t.end(op);
        let op = t.begin(OP);
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].op, 1);
        let doc = chrome_trace(t.spans(), "test", 1);
        let v = json::parse(&doc).expect("valid JSON");
        match v.get("traceEvents") {
            Some(json::Value::Arr(events)) => assert_eq!(events.len(), 3),
            other => panic!("no events: {other:?}"),
        }
    }
}
