//! The benchmark command.
//!
//! ```text
//! perfbench --workload <cold-compile|warm-ladder|threads-suite|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench compare <old-result.json> <new-result.json>
//! ```
//!
//! A run prints its report, writes its result file (and, traced, the
//! per-layer table and a Chrome trace) under `--out` (default
//! `.bench_out`), and ends its standard output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 0 only when
//! every output matched the oracle and every self-check held.

use refidem_perfbench::host::{self, Host};
use refidem_perfbench::json;
use refidem_perfbench::metrics::Metric;
use refidem_perfbench::report;
use refidem_perfbench::workload::{self, Outcome, RunSpec, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <cold-compile|warm-ladder|threads-suite|all> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
perfbench compare <old-result.json> <new-result.json>";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => {
                parsed.workloads = Workload::ALL.to_vec();
                parsed.all = true;
            }
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(value).ok_or_else(|| bad("unknown workload"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("invalid seed"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("invalid duration"))?
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1, got")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn write_file(dir: &PathBuf, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_one(args: &Args, w: Workload, host: &Host) -> Result<Outcome, String> {
    let outcome = workload::run(&RunSpec::new(w, args.seed, args.seconds, args.trace))?;
    print!("{}", report::table(w, host, &outcome));
    let stem = format!("{}-seed{}", w.name(), args.seed);
    write_file(
        &args.out,
        &format!("result-{stem}-trace{}.json", u8::from(args.trace)),
        &report::result_file(w, args.trace, host, &outcome),
    )?;
    if let (Some(table), Some(chrome)) = (&outcome.layer_table, &outcome.chrome_trace) {
        write_file(&args.out, &format!("layers-{stem}.txt"), table)?;
        write_file(&args.out, &format!("trace-{stem}.json"), chrome)?;
    }
    if let Some(e) = &outcome.tally.first_failure {
        eprintln!(
            "perfbench: {}: {} of {} ops FAILED; first: {e}",
            w.name(),
            outcome.tally.failed,
            outcome.tally.attempted
        );
    }
    if let Some(e) = &outcome.tally.self_check {
        eprintln!("perfbench: SELF-CHECK FAILED: {e}");
    }
    Ok(outcome)
}

fn run(args: &Args) -> Result<bool, String> {
    let jobs = host::pin_jobs();
    let host = Host::current(jobs, args.seed);
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        outcomes.push((w, run_one(args, w, &host)?));
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    if !args.all {
        println!("{}", report::summary_line(&outcomes[0].1));
        return Ok(correct);
    }
    // Every workload in one line: metric names carry the workload.
    let mut merged = Outcome {
        tally: Default::default(),
        metrics: Vec::new(),
        diagnostics: Vec::new(),
        reference: Default::default(),
        timed_ops: 0,
        rounds: 0,
        layer_table: None,
        chrome_trace: None,
    };
    for (w, o) in &outcomes {
        merged.tally.attempted += o.tally.attempted;
        merged.tally.failed += o.tally.failed;
        if o.tally.self_check.is_some() {
            merged.tally.self_check = o.tally.self_check.clone();
        }
        merged.metrics.extend(o.metrics.iter().map(|m| Metric {
            name: format!("{}/{}", w.name(), m.name),
            ..m.clone()
        }));
    }
    println!("{}", report::summary_line(&merged));
    Ok(correct)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [old, new] = paths else {
        return Err("compare takes two result files".to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (text, regressed) = report::compare(&load(old)?, &load(new)?)?;
    print!("{text}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
