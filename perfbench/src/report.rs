//! Rendering a run's result — the one-line JSON summary, the result file
//! with its host block, the human-readable table — and comparing two
//! result files.

use crate::host::Host;
use crate::json::{self, Value};
use crate::metrics::{self, Better, Metric};
use crate::workload::{Outcome, Workload};
use std::fmt::Write as _;

/// Schema version of the result file.
pub const SCHEMA: u32 = 1;

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn summary_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_object(&outcome.metrics)
    )
}

/// The result file: the summary plus the host block, the failure ratio,
/// the first failure of each kind and the host-speed diagnostics.
pub fn result_file(workload: Workload, trace: bool, host: &Host, outcome: &Outcome) -> String {
    let opt = |s: &Option<String>| s.as_deref().map_or("null".to_string(), json::string);
    format!(
        "{{\"schema\": {SCHEMA}, \"workload\": {}, \"trace\": {}, \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fail_frac\": {}, \"timed_ops\": {}, \"rounds\": {}, \"first_failure\": {}, \"self_check\": {}, \"metrics\": {}, \"diagnostics\": {}}}\n",
        json::string(workload.name()),
        u8::from(trace),
        host.to_json(),
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        json::number(outcome.fail_frac()),
        outcome.timed_ops,
        outcome.rounds,
        opt(&outcome.tally.first_failure),
        opt(&outcome.tally.self_check),
        metrics_object(&outcome.metrics),
        metrics_object(&outcome.diagnostics)
    )
}

/// The human-readable report of one run.
pub fn table(workload: Workload, host: &Host, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", workload.name());
    let _ = writeln!(out, "{}", host.line());
    for m in &outcome.metrics {
        let _ = writeln!(out, "  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        out,
        "  {:<44} {:>18.6} ratio ({} of {} ops failed; {} ops timed in {} rounds)",
        "fail_frac",
        outcome.fail_frac(),
        outcome.tally.failed,
        outcome.tally.attempted,
        outcome.timed_ops,
        outcome.rounds
    );
    for m in &outcome.diagnostics {
        let _ = writeln!(out, "  diag {:<39} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(table) = &outcome.layer_table {
        out.push_str(table);
    }
    out
}

/// Compares two result files of the same workload: per end-to-end metric,
/// `improved`, `regressed` or `within bound` by the metric's bound. Results
/// from hosts with different core counts are `incomparable`. Returns the
/// report and whether any metric regressed.
pub fn compare(old: &Value, new: &Value) -> Result<(String, bool), String> {
    let host = |v: &Value| {
        v.get("host")
            .and_then(Host::from_json)
            .ok_or_else(|| "result file has no host block".to_string())
    };
    let (old_host, new_host) = (host(old)?, host(new)?);
    let workload = |v: &Value| {
        v.get("workload")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let mut out = String::new();
    if workload(old) != workload(new) {
        let _ = writeln!(
            out,
            "incomparable: workloads differ ({:?} vs {:?})",
            workload(old),
            workload(new)
        );
        return Ok((out, false));
    }
    if old_host.nproc != new_host.nproc {
        let _ = writeln!(
            out,
            "incomparable: hosts have {} and {} cores",
            old_host.nproc, new_host.nproc
        );
        return Ok((out, false));
    }
    let value = |v: &Value, name: &str| {
        v.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    };
    let mut regressed = false;
    for m in metrics::END_TO_END {
        let (Some(a), Some(b)) = (value(old, m.name), value(new, m.name)) else {
            continue;
        };
        let change = if a == 0.0 { 0.0 } else { (b - a) / a };
        let worse = match m.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let verdict = if worse > m.bound {
            regressed = true;
            "regressed"
        } else if worse < -m.bound {
            "improved"
        } else {
            "within bound"
        };
        let _ = writeln!(
            out,
            "{:<24} {:>14.6} -> {:>14.6} {:>+8.2}%  (bound {:.0}%)  {verdict}",
            m.name,
            a,
            b,
            100.0 * change,
            100.0 * m.bound
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(nproc: usize, ops_per_s: f64) -> Value {
        let host = Host {
            nproc,
            rustc: "rustc".into(),
            profile: "release".into(),
            git_rev: "x".into(),
            jobs: 2,
            seed: 1,
        };
        json::parse(&format!(
            "{{\"workload\": \"warm-ladder\", \"host\": {}, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops_per_s}, \"unit\": \"1/s\"}}}}}}",
            host.to_json()
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let (text, regressed) = compare(&result(2, 100.0), &result(2, 70.0)).unwrap();
        assert!(regressed, "{text}");
        let (text, regressed) = compare(&result(2, 100.0), &result(2, 95.0)).unwrap();
        assert!(!regressed && text.contains("within bound"), "{text}");
        let (text, _) = compare(&result(2, 100.0), &result(2, 150.0)).unwrap();
        assert!(text.contains("improved"), "{text}");
    }

    #[test]
    fn different_core_counts_are_incomparable() {
        let (text, regressed) = compare(&result(2, 100.0), &result(4, 10.0)).unwrap();
        assert!(!regressed);
        assert!(text.starts_with("incomparable"), "{text}");
    }
}
