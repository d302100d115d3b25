//! The host block every result carries: what machine and build produced
//! the numbers, so results from different hosts are never silently
//! compared.

use crate::json;

/// The `REFIDEM_JOBS` value the benchmark pins when the caller set none:
/// one worker. On a shared 2-core host, sharding a giant block's analysis
/// over two workers made those ops slower on average and twice as
/// scattered (mean 5.5 ms against 3.3 ms, 90th percentile 9.5 ms against
/// 3.7 ms), as the second worker waits for the other core.
pub const DEFAULT_JOBS: usize = 1;

/// Facts about the machine and build a result was taken on.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Cores available to the process (`available_parallelism`).
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile (`release` for every measured run).
    pub profile: String,
    /// Source revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// The pinned `REFIDEM_JOBS` worker count.
    pub jobs: usize,
    /// The workload seed.
    pub seed: u64,
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins `REFIDEM_JOBS` for the whole process and returns its value: a
/// valid value the caller exported is kept, otherwise
/// [`DEFAULT_JOBS`] capped at the core count is set. Call before any
/// analysis runs (the analysis reads the variable on every call).
pub fn pin_jobs() -> usize {
    if let Some(n) = std::env::var("REFIDEM_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    let jobs = DEFAULT_JOBS.min(nproc());
    std::env::set_var("REFIDEM_JOBS", jobs.to_string());
    jobs
}

impl Host {
    /// The host block of this process for a run with `seed`.
    pub fn current(jobs: usize, seed: u64) -> Self {
        Host {
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_rev: env!("PERFBENCH_GIT_REV").to_string(),
            jobs,
            seed,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"profile\": {}, \"git_rev\": {}, \"refidem_jobs\": {}, \"seed\": {}}}",
            self.nproc,
            json::string(&self.rustc),
            json::string(&self.profile),
            json::string(&self.git_rev),
            self.jobs,
            self.seed
        )
    }

    /// Reads a block written by [`Host::to_json`].
    pub fn from_json(v: &json::Value) -> Option<Self> {
        let num = |k: &str| v.get(k).and_then(json::Value::as_f64);
        let text = |k: &str| v.get(k).and_then(json::Value::as_str).map(str::to_string);
        Some(Host {
            nproc: num("nproc")? as usize,
            rustc: text("rustc")?,
            profile: text("profile")?,
            git_rev: text("git_rev")?,
            jobs: num("refidem_jobs")? as usize,
            seed: num("seed")? as u64,
        })
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} jobs={} profile={} rustc=\"{}\" git={} seed={}",
            self.nproc, self.jobs, self.profile, self.rustc, self.git_rev, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_round_trips() {
        let h = Host::current(2, 7);
        let back = Host::from_json(&json::parse(&h.to_json()).unwrap()).unwrap();
        assert_eq!(h, back);
    }
}
