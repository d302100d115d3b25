//! A minimal, dependency-free micro-benchmark harness.
//!
//! The environment this repository builds in has no network access, so the
//! usual Criterion dependency is unavailable; this module provides the small
//! subset the `benches/` targets need: named benchmark groups, a
//! [`Bencher::iter`] measurement loop, and a median-of-samples report
//! printed as a plain-text table. The bench targets are compiled with
//! `harness = false` and call [`Harness::finish`] from their `main`.
//!
//! Two environment variables make the harness CI-friendly:
//!
//! * `BENCH_JSON=<path>` — write the results as machine-readable JSON
//!   (`[{"name": ..., "ns_per_iter": ...}, ...]`) to `<path>`, merging
//!   with any entries already present (one entry per name, the newest
//!   value wins) so several bench binaries can share one file (this is how
//!   CI produces `BENCH_2.json`);
//! * `BENCH_SAMPLES=<n>` — override the per-benchmark sample count (the
//!   short profile CI runs uses a small value);
//! * `BENCH_FILTER=<substr>` — only run benchmarks whose full
//!   `group/function` name contains the substring, ASCII
//!   case-insensitively (skipped benches are counted in the footer), so
//!   `TWLDRV` reaches `interp/FPPPP TWLDRV_DO100` and
//!   `fused_tier_twldrv/*` alike. The `--filter <substr>` command-line flag
//!   (also accepted as `--filter=<substr>`, e.g. via
//!   `cargo bench --bench simulator_perf -- --filter TWLDRV`) takes
//!   precedence; other arguments — such as the `--bench` cargo appends —
//!   are ignored.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measurement loop handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `f` repeatedly, recording one duration per sample. Each sample
    /// executes enough iterations to amortize timer overhead.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and iteration-count calibration: aim for samples of at
        // least ~1ms, but never more than 1024 iterations per sample.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed();
        let iters = if once >= Duration::from_millis(1) {
            1
        } else {
            let target = Duration::from_millis(1).as_nanos();
            let per = once.as_nanos().max(1);
            ((target / per) as usize).clamp(1, 1024)
        };
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(start.elapsed() / iters as u32);
        }
    }

    fn median(&mut self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort();
        self.samples[self.samples.len() / 2]
    }
}

/// A named group of benchmarks, reported together.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
}

impl Group<'_> {
    /// Measures one benchmark and records its median sample. When the
    /// harness carries a name filter, benches whose `group/function` name
    /// does not contain it (ASCII case-insensitively, so `--filter TWLDRV`
    /// reaches both `interp/FPPPP TWLDRV_DO100` and `fused_tier_twldrv/*`)
    /// are skipped without executing the closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl AsRef<str>, mut f: F) {
        let full = format!("{}/{}", self.name, name.as_ref());
        if let Some(filter) = &self.harness.filter {
            if !full.to_ascii_lowercase().contains(filter.as_str()) {
                self.harness.skipped += 1;
                return;
            }
        }
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.harness.sample_size,
        };
        f(&mut bencher);
        let median = bencher.median();
        println!("{full:<48} {:>14}", format_duration(median));
        self.harness.results.push((full, median));
    }

    /// Ends the group (kept for call-site parity with Criterion).
    pub fn finish(self) {}
}

/// Top-level harness: owns the sample size, the name filter and the
/// accumulated results.
pub struct Harness {
    sample_size: usize,
    filter: Option<String>,
    skipped: usize,
    results: Vec<(String, Duration)>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sample_size: env_sample_size().unwrap_or(10),
            filter: env_filter(),
            skipped: 0,
            results: Vec::new(),
        }
    }
}

/// The `BENCH_SAMPLES` override, when set and parseable.
fn env_sample_size() -> Option<usize> {
    std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
}

/// The name filter: the `--filter <substr>` / `--filter=<substr>`
/// command-line flag when present (any other argument — e.g. the
/// `--bench` cargo appends to `harness = false` targets — is ignored),
/// else the `BENCH_FILTER` environment variable. Stored lowercased:
/// matching is ASCII case-insensitive.
fn env_filter() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--filter=") {
            return Some(v.to_ascii_lowercase());
        }
        if args[i] == "--filter" {
            return args.get(i + 1).map(|v| v.to_ascii_lowercase());
        }
        i += 1;
    }
    std::env::var("BENCH_FILTER")
        .ok()
        .filter(|v| !v.is_empty())
        .map(|v| v.to_ascii_lowercase())
}

impl Harness {
    /// Sets the number of samples per benchmark. The `BENCH_SAMPLES`
    /// environment variable, when set, takes precedence (so CI can run a
    /// short profile without patching bench sources).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = env_sample_size().unwrap_or(n).max(1);
        self
    }

    /// Restricts the harness to benchmarks whose full `group/function`
    /// name contains `substr`, ASCII case-insensitively (what the
    /// `--filter` flag sets; this builder exists for programmatic use and
    /// tests). `None` clears the filter.
    pub fn filter(mut self, substr: Option<&str>) -> Self {
        self.filter = substr.map(|s| s.to_ascii_lowercase());
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            name: name.into(),
            harness: self,
        }
    }

    /// The accumulated `(name, median)` results.
    pub fn results(&self) -> &[(String, Duration)] {
        &self.results
    }

    /// Renders the results as a JSON array of `{"name", "ns_per_iter"}`
    /// objects.
    pub fn results_json(&self) -> String {
        render_results(
            self.results
                .iter()
                .map(|(name, d)| (name.as_str(), d.as_nanos())),
        )
    }

    /// Writes (or merges into) a JSON results file. When the file already
    /// holds results — e.g. from another bench binary of the same
    /// `cargo bench` run — the merge keeps one entry per name: a name
    /// measured again takes the new value in its old place, and new names
    /// are appended (the reading [`parse_results_json`] gives a file with
    /// duplicate names). A file that does not parse is an error, not
    /// overwritten.
    ///
    /// The write is atomic (rendered to a process-unique temp file beside
    /// the target and renamed into place), so a reader — or a bench binary
    /// of a *parallel* `cargo bench` invocation — can never observe a
    /// partially-written file. Note that the read–merge–rename sequence as
    /// a whole is still last-writer-wins: concurrent *writers* should
    /// funnel through one reporter (CI runs the bench binaries of one
    /// `cargo bench` invocation sequentially, which is that funnel).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut entries = match std::fs::read_to_string(path) {
            Ok(old) => parse_results_json(&old).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
            })?,
            Err(_) => Vec::new(),
        };
        for (name, d) in &self.results {
            let ns = d.as_nanos() as u64;
            match entries.iter_mut().find(|(n, _)| n == name) {
                Some(entry) => entry.1 = ns,
                None => entries.push((name.clone(), ns)),
            }
        }
        let rendered = render_results(entries.iter().map(|(name, ns)| (name.as_str(), *ns)));
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, rendered)?;
        std::fs::rename(&tmp, path)
    }

    /// Prints the summary footer and, when `BENCH_JSON` is set, writes the
    /// machine-readable results. Call at the end of `main`.
    pub fn finish(self) {
        if self.skipped > 0 {
            println!(
                "\n{} benchmarks measured ({} skipped by filter)",
                self.results.len(),
                self.skipped
            );
        } else {
            println!("\n{} benchmarks measured", self.results.len());
        }
        if let Ok(path) = std::env::var("BENCH_JSON") {
            if !path.is_empty() {
                match self.write_json(&path) {
                    Ok(()) => println!("results merged into {path}"),
                    Err(e) => eprintln!("failed to write {path}: {e}"),
                }
            }
        }
    }
}

/// Escapes the characters JSON string literals cannot contain verbatim
/// (benchmark names are plain identifiers, so this stays minimal).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Parses a `BENCH_N.json` results file (the array of
/// `{"name", "ns_per_iter"}` objects [`Harness::write_json`] emits) back
/// into `(name, ns)` pairs, in file order. The inverse of
/// [`Harness::results_json`], and what the `bench_diff` binary compares
/// two recorded trajectories with. A name listed twice (files written
/// before the merge kept one entry per name) keeps its first place and its
/// *last* value — the newest measurement wins, as in the merge.
pub fn parse_results_json(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut order: Vec<String> = Vec::new();
    let mut latest: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let open = rest
            .find('"')
            .ok_or_else(|| "unterminated name field".to_string())?;
        rest = &rest[open + 1..];
        let close = rest
            .find('"')
            .ok_or_else(|| "unterminated name string".to_string())?;
        // Names are written through `json_escape`, but every recorded
        // bench name is a plain `group/function` identifier — reject
        // escapes rather than mis-parse them.
        let name = rest[..close].to_string();
        if name.contains('\\') {
            return Err(format!("escaped name `{name}` is not supported"));
        }
        rest = &rest[close + 1..];
        // The field must belong to *this* entry: searching past the next
        // entry's name would silently steal its value.
        let entry_end = rest.find("\"name\"").unwrap_or(rest.len());
        let key = rest[..entry_end]
            .find("\"ns_per_iter\"")
            .ok_or_else(|| format!("entry `{name}` has no ns_per_iter"))?;
        rest = &rest[key + "\"ns_per_iter\"".len()..];
        let digits: String = rest
            .chars()
            .skip_while(|c| *c == ':' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let ns: u64 = digits
            .parse()
            .map_err(|_| format!("entry `{name}` has a malformed ns_per_iter"))?;
        if !latest.contains_key(&name) {
            order.push(name.clone());
        }
        latest.insert(name, ns);
    }
    Ok(order
        .into_iter()
        .map(|name| {
            let ns = latest[&name];
            (name, ns)
        })
        .collect())
}

/// Renders `(name, ns)` entries as the results file's JSON array, one
/// object per line.
fn render_results<'a, N: std::fmt::Display>(entries: impl Iterator<Item = (&'a str, N)>) -> String {
    let entries: Vec<String> = entries
        .map(|(name, ns)| {
            format!(
                "  {{\"name\": \"{}\", \"ns_per_iter\": {ns}}}",
                json_escape(name)
            )
        })
        .collect();
    if entries.is_empty() {
        return "[]\n".to_string();
    }
    format!("[\n{}\n]\n", entries.join(",\n"))
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        let mut h = Harness::default().sample_size(3);
        let mut group = h.benchmark_group("g");
        let mut count = 0u64;
        group.bench_function("busy", |b| {
            b.iter(|| {
                count += 1;
                std::hint::black_box(count)
            })
        });
        group.finish();
        assert_eq!(h.results.len(), 1);
        assert!(count >= 3, "closure ran at least once per sample");
    }

    #[test]
    fn filter_skips_non_matching_benches_without_running_them() {
        // Uppercase filter, lowercase bench names: matching is
        // case-insensitive.
        let mut h = Harness::default().sample_size(1).filter(Some("KEEP"));
        let mut ran = 0u64;
        let mut group = h.benchmark_group("g");
        group.bench_function("keep_me", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        group.bench_function("drop_me", |_b| {
            panic!("a filtered-out bench must not execute");
        });
        group.finish();
        assert!(ran > 0, "the matching bench ran");
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].0, "g/keep_me");
        assert_eq!(h.skipped, 1);
    }

    #[test]
    fn duration_formatting_covers_all_scales() {
        assert_eq!(format_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(format_duration(Duration::from_micros(2)), "2.000 µs");
        assert_eq!(format_duration(Duration::from_millis(2)), "2.000 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn write_json_merges_atomically_via_rename() {
        let dir = std::env::temp_dir().join(format!("refidem_microbench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path_str = path.to_str().unwrap();

        let mut h = Harness::default().sample_size(1);
        h.results.push(("g/a".to_string(), Duration::from_nanos(7)));
        h.write_json(path_str).unwrap();
        // Second write merges into the same file.
        h.write_json(path_str).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        assert_eq!(merged.matches("g/a").count(), 1);
        // The temp file used for the atomic rename is gone.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn re_merging_a_name_replaces_it() {
        let dir = std::env::temp_dir().join(format!("refidem_remerge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path_str = path.to_str().unwrap();

        let mut first = Harness::default().sample_size(1);
        first
            .results
            .push(("g/a".to_string(), Duration::from_nanos(7)));
        first
            .results
            .push(("g/b".to_string(), Duration::from_nanos(8)));
        first.write_json(path_str).unwrap();
        // A later bench binary re-measures `g/a` and adds `g/c`.
        let mut second = Harness::default().sample_size(1);
        second
            .results
            .push(("g/c".to_string(), Duration::from_nanos(9)));
        second
            .results
            .push(("g/a".to_string(), Duration::from_nanos(5)));
        second.write_json(path_str).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        assert_eq!(merged.matches("g/a").count(), 1, "{merged}");
        assert_eq!(
            parse_results_json(&merged).unwrap(),
            vec![
                ("g/a".to_string(), 5),
                ("g/b".to_string(), 8),
                ("g/c".to_string(), 9)
            ]
        );
        // A file that does not parse is reported, not clobbered.
        std::fs::write(&path, "[{\"name\": \"x\"}]").unwrap();
        assert!(second.write_json(path_str).is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "[{\"name\": \"x\"}]"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn results_json_round_trips_through_the_parser() {
        let mut h = Harness::default().sample_size(1);
        h.results
            .push(("g/a".to_string(), Duration::from_nanos(120)));
        h.results
            .push(("g/b".to_string(), Duration::from_micros(3)));
        let parsed = parse_results_json(&h.results_json()).unwrap();
        assert_eq!(
            parsed,
            vec![("g/a".to_string(), 120), ("g/b".to_string(), 3000)]
        );
        // A duplicated name resolves to its newest measurement.
        let duplicated = "[\n  {\"name\": \"g/a\", \"ns_per_iter\": 120},\n  \
            {\"name\": \"g/b\", \"ns_per_iter\": 3000},\n  \
            {\"name\": \"g/a\", \"ns_per_iter\": 90}\n]\n";
        let parsed = parse_results_json(duplicated).unwrap();
        assert_eq!(
            parsed,
            vec![("g/a".to_string(), 90), ("g/b".to_string(), 3000)]
        );
        assert_eq!(parse_results_json("[]").unwrap(), vec![]);
        assert!(parse_results_json("[{\"name\": \"x\"}]").is_err());
        // A field-less entry must error even when a later entry carries a
        // value — it must not steal it.
        assert!(
            parse_results_json("[{\"name\": \"x\"}, {\"name\": \"y\", \"ns_per_iter\": 5}]")
                .is_err()
        );
    }

    #[test]
    fn json_rendering_and_merging() {
        let mut h = Harness::default().sample_size(1);
        h.results
            .push(("g/a".to_string(), Duration::from_nanos(120)));
        h.results
            .push(("g/b".to_string(), Duration::from_micros(3)));
        let json = h.results_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("{\"name\": \"g/a\", \"ns_per_iter\": 120}"));
        assert!(json.contains("{\"name\": \"g/b\", \"ns_per_iter\": 3000}"));
        assert!(json.trim().starts_with('[') && json.trim().ends_with(']'));
        assert_eq!(Harness::default().results_json(), "[]\n");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
