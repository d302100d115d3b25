//! The sweep subsystem: declarative sweep plans executed by a sharded
//! worker pool with a deterministic ordered merge.
//!
//! The paper's evaluation is a matrix of (benchmark loop × speculation
//! model × buffer capacity) points, and every driver in this repository —
//! the figure tables, the ablation sweeps, the capacity ladders, the
//! testkit's differential suite — walks some slice of that matrix. With
//! the lowered-IR engine and the
//! [`LoweredCache`](refidem_ir::lowered::LoweredCache) the per-point cost
//! is small; *orchestration* is what bounds corpus size. This module is
//! the one orchestrator they all share:
//!
//! * [`SweepPlan`] — an ordered list of labeled, independent points. Each
//!   point is a pure `&P -> R` job: no point may depend on another point's
//!   result or on execution order.
//! * [`SweepExec`] — a std-only scoped-thread worker pool. The worker
//!   count comes from the builder ([`SweepExec::jobs`]), the
//!   `REFIDEM_JOBS` environment variable, or
//!   [`std::thread::available_parallelism`], in that order of precedence.
//! * **Deterministic ordered merge** — workers self-schedule points off a
//!   shared counter, but every result lands in its point's slot and
//!   [`SweepPlan::run`] returns results in *plan order*. Tables,
//!   aggregated statistics and JSON output built from the returned vector
//!   are therefore byte-identical regardless of the worker count. (The
//!   only per-point values that legitimately differ between runs are
//!   *measurements* — wall-clock fields and cache hit/miss counters,
//!   which depend on cross-thread compile races; consumers compare those
//!   on their own terms, as `backend_differential` does.)
//!
//! A panicking point job does not hang the pool: the panic is caught in
//! the worker, the remaining workers drain, and the panic is re-raised on
//! the calling thread with the point's label and index in the message.
//! When several points panic while the pool drains, the *plan-order-first*
//! one keeps its identity and the re-raised message counts the suppressed
//! rest — concurrent failures never silently overwrite each other.
//!
//! # Threading contract
//!
//! Everything a sweep point job typically captures is shareable across
//! workers: [`SimConfig`] is `Send + Sync` (it is plain data plus a
//! [`LoweredCache`](refidem_ir::lowered::LoweredCache) handle), and the
//! cache itself is an
//! `Arc<Mutex<..>>`-backed handle whose compile path is race-tolerant —
//! two workers missing on the same key both compile outside the lock and
//! one result wins, which is harmless because equal keys produce
//! identical bytecode. Per-run mutable state (`SpecBuffer` pools, private
//! stores, memories) is created inside each job, so workers never share
//! it. This is asserted at compile time in the tests below.
//!
//! ```
//! use refidem_specsim::sweep::{SweepExec, SweepPlan};
//!
//! let plan: SweepPlan<u64> = (0..100).map(|i| (format!("point {i}"), i)).collect();
//! let exec = SweepExec::new().jobs(4);
//! let doubled = plan.run(&exec, |&i| i * 2);
//! assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
//! ```

use crate::config::SimConfig;
use crate::run::ExecMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable that sets the default worker count.
pub const JOBS_ENV: &str = "REFIDEM_JOBS";

/// Parses a worker-count override (the format `REFIDEM_JOBS` and the
/// drivers' `--jobs` accept): a positive decimal integer. Anything else —
/// including `0` — is rejected.
pub fn parse_jobs(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The worker count used when none is requested explicitly: `REFIDEM_JOBS`
/// when set and valid, otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var(JOBS_ENV)
        .ok()
        .as_deref()
        .and_then(parse_jobs)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A scoped-thread worker pool that executes [`SweepPlan`]s.
///
/// `SweepExec` is configuration, not threads: the pool is spawned inside
/// each [`SweepPlan::run`] call (via [`std::thread::scope`], so jobs may
/// borrow from the caller) and joined before it returns.
#[derive(Clone, Debug)]
pub struct SweepExec {
    jobs: usize,
}

impl Default for SweepExec {
    fn default() -> Self {
        SweepExec::new()
    }
}

impl SweepExec {
    /// An executor with the default worker count (`REFIDEM_JOBS`, then
    /// available parallelism).
    pub fn new() -> Self {
        SweepExec {
            jobs: default_jobs(),
        }
    }

    /// A single-worker executor: points run in plan order on the calling
    /// thread. Useful for nesting (a sweep job that itself runs a ladder
    /// plan stays sequential instead of oversubscribing the machine) and
    /// as the `jobs = 1` arm of determinism checks.
    pub fn sequential() -> Self {
        SweepExec { jobs: 1 }
    }

    /// Overrides the worker count. `0` restores the default
    /// ([`default_jobs`]).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// The number of workers a plan run will use (before clamping to the
    /// plan's point count).
    pub fn effective_jobs(&self) -> usize {
        self.jobs.max(1)
    }
}

/// One labeled point of a [`SweepPlan`]. The label identifies the point in
/// panic messages and progress output; the payload is whatever the job
/// needs (often just references into caller-owned data — plans are run
/// with scoped threads, so non-`'static` borrows are fine).
#[derive(Clone, Debug)]
pub struct SweepPoint<P> {
    /// Human-readable identity (e.g. `"FPPPP TWLDRV_DO100 cap 16 CASE"`).
    pub label: String,
    /// The job input.
    pub payload: P,
}

/// A declarative, ordered list of independent sweep points.
///
/// Build one with [`SweepPlan::point`], [`collect`](FromIterator) from an
/// iterator of `(label, payload)` pairs, or the [`ladder_plan`] helper for
/// the classic (capacity × execution mode) cartesian product. Execute it
/// with [`SweepPlan::run`].
#[derive(Clone, Debug, Default)]
pub struct SweepPlan<P> {
    points: Vec<SweepPoint<P>>,
}

impl<P> SweepPlan<P> {
    /// An empty plan.
    pub fn new() -> Self {
        SweepPlan { points: Vec::new() }
    }

    /// Appends a point and returns the plan (builder style).
    pub fn point(mut self, label: impl Into<String>, payload: P) -> Self {
        self.push(label, payload);
        self
    }

    /// Appends a point.
    pub fn push(&mut self, label: impl Into<String>, payload: P) {
        self.points.push(SweepPoint {
            label: label.into(),
            payload,
        });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in plan order.
    pub fn points(&self) -> &[SweepPoint<P>] {
        &self.points
    }

    /// Executes every point's job on `exec`'s worker pool and returns the
    /// results **in plan order** (the deterministic ordered merge).
    ///
    /// Workers pull point indices from a shared atomic counter; each
    /// result is stored in the slot of its point, and the slots are
    /// drained in order after the pool joins — so the returned vector is
    /// independent of the worker count and of scheduling. If a job
    /// panics, every worker stops picking up new points and the panic is
    /// re-raised here with the point's label and index. (This is
    /// [`run_fallible`](Self::run_fallible) with jobs that cannot fail.)
    pub fn run<R, F>(&self, exec: &SweepExec, job: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        match self.run_fallible(exec, |p| Ok::<R, std::convert::Infallible>(job(p))) {
            Ok(results) => results,
            Err(never) => match never {},
        }
    }

    /// [`SweepPlan::run`] for fallible jobs, with deterministic early
    /// exit: once any point returns `Err`, workers stop claiming further
    /// points, and the error returned is the **plan-order-first** one.
    ///
    /// The early exit is exact, not best-effort: workers claim indices in
    /// increasing order, so when a failure exists every point *below* the
    /// first failing index has already run — the reported error (or
    /// panic, which still propagates with the point's identity; when both
    /// occur the one earlier in plan order wins) is the same one a fully
    /// sequential run would have stopped at, at any worker count. On a
    /// single worker this degenerates to a plain short-circuiting loop —
    /// no work happens past the first failure.
    pub fn run_fallible<R, E, F>(&self, exec: &SweepExec, job: F) -> Result<Vec<R>, E>
    where
        P: Sync,
        R: Send,
        E: Send,
        F: Fn(&P) -> Result<R, E> + Sync,
    {
        let n = self.points.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = exec.effective_jobs().min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for (i, pt) in self.points.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| job(&pt.payload))) {
                    Ok(Ok(r)) => out.push(r),
                    Ok(Err(e)) => return Err(e),
                    Err(cause) => panic!(
                        "sweep point `{}` (index {i} of {n}) panicked: {}",
                        pt.label,
                        panic_message(&*cause)
                    ),
                }
            }
            return Ok(out);
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let suppressed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    match catch_unwind(AssertUnwindSafe(|| job(&self.points[i].payload))) {
                        Ok(res) => {
                            if res.is_err() {
                                stop.store(true, Ordering::Relaxed);
                            }
                            *slots[i].lock().expect("sweep slot lock") = Some(res);
                        }
                        Err(cause) => {
                            stop.store(true, Ordering::Relaxed);
                            let mut p = panicked.lock().expect("sweep failure lock");
                            match p.as_mut() {
                                Some(prev) if i < prev.0 => {
                                    *prev = (i, panic_message(&*cause));
                                    suppressed.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(_) => {
                                    suppressed.fetch_add(1, Ordering::Relaxed);
                                }
                                None => *p = Some((i, panic_message(&*cause))),
                            }
                            return;
                        }
                    }
                });
            }
        });
        // Ordered merge with failure resolution: the plan-order-first
        // failure — error or panic — wins. Unexecuted (cancelled) slots
        // form a strict suffix behind some failure, so they are never
        // reached.
        let panicked = panicked.into_inner().expect("sweep failure lock");
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            if let Some((pi, message)) = &panicked {
                if *pi == i {
                    panic!(
                        "sweep point `{}` (index {i} of {n}) panicked: {message}{}",
                        self.points[i].label,
                        suppressed_suffix(suppressed.load(Ordering::Relaxed))
                    );
                }
            }
            match slot.into_inner().expect("sweep slot lock") {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) => return Err(e),
                None => unreachable!("unexecuted sweep point not behind a failure"),
            }
        }
        Ok(out)
    }
}

impl<P, L: Into<String>> FromIterator<(L, P)> for SweepPlan<P> {
    fn from_iter<T: IntoIterator<Item = (L, P)>>(iter: T) -> Self {
        SweepPlan {
            points: iter
                .into_iter()
                .map(|(label, payload)| SweepPoint {
                    label: label.into(),
                    payload,
                })
                .collect(),
        }
    }
}

/// The suffix appended to a re-raised sweep panic when further points
/// panicked while the pool drained: empty for the common single-failure
/// case (so existing message-prefix expectations keep holding), a count
/// otherwise — concurrent failures are reported, never silently dropped.
fn suppressed_suffix(extra: usize) -> String {
    if extra == 0 {
        String::new()
    } else {
        format!(" ({extra} additional sweep point panic(s) suppressed while the pool drained)")
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The declarative cartesian product behind every capacity-ladder sweep:
/// one point per `(capacity, mode)` pair (capacities outermost, matching
/// the order the hand-rolled loops used), each carrying a `SimConfig`
/// derived from `base` with that capacity.
pub fn ladder_plan(
    base: &SimConfig,
    capacities: &[usize],
    modes: &[ExecMode],
) -> SweepPlan<(SimConfig, ExecMode)> {
    capacities
        .iter()
        .flat_map(|&cap| {
            modes
                .iter()
                .map(move |&mode| (format!("cap {cap} {mode}"), (cap, mode)))
        })
        .map(|(label, (cap, mode))| (label, (base.clone().capacity(cap), mode)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::lowered::LoweredCache;

    /// The `Send`/`Sync` contract workers rely on, checked at compile
    /// time: configs (with their cache handle) can be shared across
    /// workers, and plans/executors can move between threads.
    #[test]
    fn config_and_cache_are_shareable_across_workers() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimConfig>();
        assert_send_sync::<LoweredCache>();
        assert_send_sync::<SweepExec>();
        assert_send_sync::<SweepPlan<(SimConfig, ExecMode)>>();
    }

    #[test]
    fn empty_plan_returns_no_results() {
        let plan: SweepPlan<u32> = SweepPlan::new();
        assert!(plan.is_empty());
        let out = plan.run(&SweepExec::new().jobs(8), |_| unreachable!("no points"));
        assert!(out.is_empty());
    }

    #[test]
    fn single_point_runs_once() {
        let plan = SweepPlan::new().point("only", 21u64);
        assert_eq!(plan.len(), 1);
        let out = plan.run(&SweepExec::new().jobs(8), |&x| x * 2);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn more_workers_than_points_still_merges_in_order() {
        let plan: SweepPlan<usize> = (0..3).map(|i| (format!("p{i}"), i)).collect();
        let out = plan.run(&SweepExec::new().jobs(64), |&i| i + 100);
        assert_eq!(out, vec![100, 101, 102]);
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let plan: SweepPlan<u64> = (0..257).map(|i| (format!("p{i}"), i)).collect();
        let expect: Vec<u64> = (0..257).map(|i| i * i + 1).collect();
        for jobs in [1, 2, 3, 8, 32] {
            let out = plan.run(&SweepExec::new().jobs(jobs), |&i| i * i + 1);
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn jobs_zero_restores_the_default() {
        let exec = SweepExec::new().jobs(0);
        assert_eq!(exec.effective_jobs(), default_jobs());
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 16 "), Some(16));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(parse_jobs(""), None);
    }

    #[test]
    #[should_panic(expected = "sweep point `boom 5` (index 5 of 16) panicked: deliberate")]
    fn panicking_point_propagates_with_identity_in_parallel_pools() {
        let plan: SweepPlan<usize> = (0..16).map(|i| (format!("boom {i}"), i)).collect();
        plan.run(&SweepExec::new().jobs(4), |&i| {
            if i == 5 {
                panic!("deliberate");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "sweep point `boom 2` (index 2 of 4) panicked: deliberate")]
    fn panicking_point_propagates_with_identity_sequentially() {
        let plan: SweepPlan<usize> = (0..4).map(|i| (format!("boom {i}"), i)).collect();
        plan.run(&SweepExec::sequential(), |&i| {
            if i == 2 {
                panic!("deliberate");
            }
            i
        });
    }

    #[test]
    fn pool_drains_after_a_panic_instead_of_hanging() {
        // Many points after the panicking one: the pool must terminate.
        let plan: SweepPlan<usize> = (0..500).map(|i| (format!("p{i}"), i)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            plan.run(&SweepExec::new().jobs(8), |&i| {
                if i == 3 {
                    panic!("early failure");
                }
                i
            })
        }));
        let message = panic_message(&*result.expect_err("must propagate"));
        assert!(
            message.contains("early failure") && message.contains("index 3"),
            "unexpected panic message: {message}"
        );
    }

    #[test]
    fn concurrent_panics_keep_the_first_identity_and_count_the_rest() {
        // Both points are guaranteed to be mid-execution when either
        // panics (the barrier releases them together), so the second
        // panic always races the drain — the regression this guards:
        // it used to be silently dropped, now it is counted.
        let barrier = std::sync::Barrier::new(2);
        let plan: SweepPlan<usize> = (0..2).map(|i| (format!("boom {i}"), i)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            plan.run(&SweepExec::new().jobs(2), |&i| {
                barrier.wait();
                panic!("deliberate {i}");
            })
        }));
        let message = panic_message(&*result.expect_err("must propagate"));
        assert!(
            message.contains("sweep point `boom 0` (index 0 of 2) panicked: deliberate 0"),
            "the plan-order-first panic keeps its identity: {message}"
        );
        assert!(
            message.contains("1 additional sweep point panic(s) suppressed"),
            "the drained panic is counted, not dropped: {message}"
        );
    }

    #[test]
    fn run_fallible_counts_concurrent_panics_too() {
        let barrier = std::sync::Barrier::new(2);
        let plan: SweepPlan<usize> = (0..2).map(|i| (format!("boom {i}"), i)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _: Result<Vec<usize>, ()> = plan.run_fallible(&SweepExec::new().jobs(2), |&i| {
                barrier.wait();
                panic!("deliberate {i}");
            });
        }));
        let message = panic_message(&*result.expect_err("must propagate"));
        assert!(
            message.contains("index 0 of 2") && message.contains("deliberate 0"),
            "plan-order-first identity: {message}"
        );
        assert!(
            message.contains("1 additional sweep point panic(s) suppressed"),
            "suppressed count surfaces: {message}"
        );
    }

    #[test]
    fn ladder_plan_builds_the_cartesian_product_in_sweep_order() {
        let base = SimConfig::default();
        let plan = ladder_plan(&base, &[1, 16], &[ExecMode::Hose, ExecMode::Case]);
        let labels: Vec<&str> = plan.points().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            ["cap 1 HOSE", "cap 1 CASE", "cap 16 HOSE", "cap 16 CASE"]
        );
        for point in plan.points() {
            let (cfg, _) = &point.payload;
            assert_eq!(cfg.cache, base.cache, "points share the base cache");
            assert!(point.label.contains(&cfg.spec_capacity.to_string()));
        }
    }

    #[test]
    fn run_fallible_returns_all_results_in_order() {
        let plan: SweepPlan<u32> = (0..50).map(|i| (format!("p{i}"), i)).collect();
        for jobs in [1, 4] {
            let out: Result<Vec<u32>, ()> =
                plan.run_fallible(&SweepExec::new().jobs(jobs), |&i| Ok(i + 1));
            assert_eq!(out.unwrap(), (1..=50).collect::<Vec<_>>(), "jobs = {jobs}");
        }
    }

    #[test]
    fn run_fallible_short_circuits_sequentially() {
        let executed = AtomicUsize::new(0);
        let plan: SweepPlan<usize> = (0..100).map(|i| (format!("p{i}"), i)).collect();
        let out: Result<Vec<usize>, String> = plan.run_fallible(&SweepExec::sequential(), |&i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err(format!("failed at {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.unwrap_err(), "failed at 3");
        assert_eq!(
            executed.load(Ordering::Relaxed),
            4,
            "nothing runs past the first failure on one worker"
        );
    }

    #[test]
    fn run_fallible_reports_the_plan_order_first_error_at_any_worker_count() {
        // Several failing points: the reported error must be the earliest
        // in plan order, never a scheduling-dependent later one.
        let plan: SweepPlan<usize> = (0..64).map(|i| (format!("p{i}"), i)).collect();
        for jobs in [1, 2, 8] {
            let executed = AtomicUsize::new(0);
            let out: Result<Vec<usize>, usize> =
                plan.run_fallible(&SweepExec::new().jobs(jobs), |&i| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if i == 7 || i == 9 || i == 40 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(out.unwrap_err(), 7, "jobs = {jobs}");
            assert!(
                executed.load(Ordering::Relaxed) < 64,
                "jobs = {jobs}: the pool kept claiming points after the failure"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sweep point `p2` (index 2 of 8) panicked: fallible boom")]
    fn run_fallible_panic_beats_a_later_error_in_plan_order() {
        let plan: SweepPlan<usize> = (0..8).map(|i| (format!("p{i}"), i)).collect();
        let _: Result<Vec<usize>, usize> = plan.run_fallible(&SweepExec::sequential(), |&i| {
            if i == 2 {
                panic!("fallible boom");
            }
            if i == 5 {
                Err(i)
            } else {
                Ok(i)
            }
        });
    }

    #[test]
    fn jobs_can_borrow_caller_data() {
        let data: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        let plan: SweepPlan<&String> = data.iter().map(|s| (s.clone(), s)).collect();
        let lens = plan.run(&SweepExec::new().jobs(3), |s| s.len());
        assert_eq!(lens, vec![2; 10]);
    }
}
