//! Deterministic fault injection and the degradation governor.
//!
//! The paper's whole premise is that misspeculation is *survivable*: a
//! violated or overflowed segment is squashed and re-executed, and in the
//! worst case the region runs serially. Naturally occurring violations
//! exercise the happy half of that story; this module supplies the other
//! half on demand. A [`FaultPlan`] is a seeded, pure-function schedule of
//! injected failures — forced dependence violations, spurious
//! squash-generation bumps, forced buffer overflows at chosen
//! `(segment, attempt)` pairs, injected worker panics and typed errors,
//! and scheduler perturbation at the protocol edges of the real-thread
//! runtime. Because every decision is a hash of `(seed, kind, operands)`,
//! a schedule replays identically at any worker count and on any machine:
//! chaos campaigns are reproducible from a single `u64`.
//!
//! The [`Governor`] bounds how much misspeculation a region may absorb
//! before the runtime stops speculating: per-segment restart budgets, a
//! per-region rollback budget, and a livelock watchdog counting statements
//! executed without a commit. When a budget trips, the run-level pipeline
//! (`Schedule::simulate`) transparently re-executes the region
//! *sequentially* — the paper's serial fallback made real — and records a
//! [`DegradeReason`] in the region's report, so results stay byte-exact
//! against the oracle even at 100% injected misspeculation.

use crate::run::SimError;
use refidem_ir::exec::STEP_BUDGET;

/// SplitMix64 finalizer: the bijective avalanche at the heart of every
/// fault decision. Distinct operands are folded in by the callers with
/// distinct odd multipliers before finalizing.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Protocol edges of the real-thread runtime at which the scheduler can be
/// perturbed (an injected `yield_now`) to shake out interleavings that the
/// natural scheduler — and TSan's happens-before view of it — would rarely
/// order. The cycle-accounted simulator has no real scheduler, so
/// perturbation only affects [`SpecRuntime::Threads`](crate::SpecRuntime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerturbEdge {
    /// Right after a reader publishes its bit in the dependence read mask
    /// and before it probes ancestors for a forwardable value — the Dekker
    /// handshake window.
    MaskProbe,
    /// On entry to a segment's commit, before it drains its speculative
    /// buffer to memory.
    Commit,
    /// Inside a drain/stall spin loop (overflow stall waiting to become
    /// head, or the completion wait) — stretches the window in which an
    /// abort flag must be observed.
    Drain,
}

impl PerturbEdge {
    fn tag(self) -> u64 {
        match self {
            PerturbEdge::MaskProbe => 1,
            PerturbEdge::Commit => 2,
            PerturbEdge::Drain => 3,
        }
    }
}

/// Fault-decision kinds, as hash domain separators.
const KIND_VIOLATION: u64 = 1;
const KIND_OVERFLOW: u64 = 2;
const KIND_SQUASH: u64 = 3;
const KIND_PERTURB: u64 = 4;

/// A seeded, deterministic schedule of injected faults, threaded through
/// [`SimConfig`](crate::SimConfig) into both runtimes.
///
/// Rates are in permille (0–1000) and are evaluated by hashing the seed
/// with the injection site's coordinates — never by a stateful RNG — so a
/// plan is `Send + Sync`, replays identically under any interleaving, and
/// two sites never correlate. Point lists (`*_points`, `panic_segments`,
/// `error_segments`) force an injection at exact coordinates regardless of
/// the rates.
///
/// The default plan is empty: no faults, no perturbation, zero overhead on
/// the hot paths (both runtimes gate injection on [`FaultPlan::is_empty`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every hashed decision.
    pub seed: u64,
    /// Permille rate of forced dependence violations per
    /// `(segment, attempt)`, applied to non-head segments.
    pub violation_permille: u16,
    /// Permille rate of forced speculative-buffer overflows per
    /// `(segment, attempt)`, applied to non-head segments.
    pub overflow_permille: u16,
    /// Permille rate of spurious squash-generation bumps per
    /// `(segment, attempt)` — a squash with no underlying violation,
    /// applied to non-head segments.
    pub squash_permille: u16,
    /// Permille rate of scheduler perturbation per
    /// `(edge, segment, event)` in the real-thread runtime.
    pub perturb_permille: u16,
    /// Segments whose worker panics on dispatch (`panic!` on the worker
    /// thread under [`SpecRuntime::Threads`](crate::SpecRuntime); the
    /// simulator returns the equivalent typed
    /// [`SimError::WorkerPanic`](crate::SimError) directly).
    pub panic_segments: Vec<usize>,
    /// Segments whose worker fails with a typed
    /// [`SimError::Injected`](crate::SimError) on dispatch.
    pub error_segments: Vec<usize>,
    /// Exact `(segment, attempt)` pairs at which a dependence violation is
    /// forced, in addition to `violation_permille`.
    pub violation_points: Vec<(usize, u32)>,
    /// Exact `(segment, attempt)` pairs at which a buffer overflow is
    /// forced, in addition to `overflow_permille`.
    pub overflow_points: Vec<(usize, u32)>,
}

impl FaultPlan {
    /// An empty plan with the given seed — inject nothing until rates or
    /// points are added with the builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A seeded *chaotic* schedule for fuzz-style campaigns: moderate
    /// violation/overflow/squash rates derived from the seed; on some
    /// seeds an injected worker panic or typed error; and on a *brutal*
    /// class of seeds a 100% violation rate — every non-head attempt is
    /// squashed, so a campaign with a finite restart budget is guaranteed
    /// to exercise the serial-fallback degradation path. Every field is a
    /// pure function of `seed`, so schedule `k` is the same schedule
    /// everywhere.
    pub fn chaotic(seed: u64) -> Self {
        let mut plan = FaultPlan::seeded(seed)
            .violation_rate((mix(seed ^ 0x11) % 180) as u16)
            .overflow_rate((mix(seed ^ 0x22) % 140) as u16)
            .squash_rate((mix(seed ^ 0x33) % 120) as u16);
        if seed % 8 == 1 {
            plan = plan.violation_rate(1000);
        }
        if seed % 8 == 3 {
            plan = plan.panic_at((mix(seed ^ 0x44) % 8) as usize);
        }
        if seed % 8 == 6 {
            plan = plan.error_at((mix(seed ^ 0x55) % 8) as usize);
        }
        plan
    }

    /// Sets the forced-violation rate (permille, 0–1000).
    pub fn violation_rate(mut self, permille: u16) -> Self {
        self.violation_permille = permille;
        self
    }

    /// Sets the forced-overflow rate (permille, 0–1000).
    pub fn overflow_rate(mut self, permille: u16) -> Self {
        self.overflow_permille = permille;
        self
    }

    /// Sets the spurious-squash rate (permille, 0–1000).
    pub fn squash_rate(mut self, permille: u16) -> Self {
        self.squash_permille = permille;
        self
    }

    /// Sets the scheduler-perturbation rate (permille, 0–1000).
    pub fn perturb_rate(mut self, permille: u16) -> Self {
        self.perturb_permille = permille;
        self
    }

    /// Injects a worker panic when the given segment is dispatched.
    pub fn panic_at(mut self, segment: usize) -> Self {
        self.panic_segments.push(segment);
        self
    }

    /// Injects a typed [`SimError::Injected`](crate::SimError) when the
    /// given segment is dispatched.
    pub fn error_at(mut self, segment: usize) -> Self {
        self.error_segments.push(segment);
        self
    }

    /// Forces a dependence violation at an exact `(segment, attempt)`.
    pub fn violation_at(mut self, segment: usize, attempt: u32) -> Self {
        self.violation_points.push((segment, attempt));
        self
    }

    /// Forces a buffer overflow at an exact `(segment, attempt)`.
    pub fn overflow_at(mut self, segment: usize, attempt: u32) -> Self {
        self.overflow_points.push((segment, attempt));
        self
    }

    /// Whether the plan injects nothing at all — the hot-path gate both
    /// runtimes check once before consulting any decision.
    pub fn is_empty(&self) -> bool {
        self.violation_permille == 0
            && self.overflow_permille == 0
            && self.squash_permille == 0
            && self.perturb_permille == 0
            && self.panic_segments.is_empty()
            && self.error_segments.is_empty()
            && self.violation_points.is_empty()
            && self.overflow_points.is_empty()
    }

    /// Whether the plan injects hard failures (worker panics or typed
    /// errors) rather than only recoverable misspeculation. Campaigns use
    /// this to decide whether a typed failure is an acceptable outcome.
    pub fn injects_failures(&self) -> bool {
        !self.panic_segments.is_empty() || !self.error_segments.is_empty()
    }

    /// One hashed permille decision, domain-separated by `kind` and folded
    /// over two operands.
    fn decide(&self, kind: u64, a: u64, b: u64, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        if permille >= 1000 {
            return true;
        }
        let h = mix(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ kind.wrapping_mul(0xff51_afd7_ed55_8ccd)
            ^ a.wrapping_mul(0xc4ce_b9fe_1a85_ec53)
            ^ b.wrapping_mul(0x2545_f491_4f6c_dd1d));
        (h % 1000) < u64::from(permille)
    }

    /// Should a dependence violation be forced on this
    /// `(segment, attempt)`?
    pub fn force_violation(&self, segment: usize, attempt: u32) -> bool {
        self.violation_points.contains(&(segment, attempt))
            || self.decide(
                KIND_VIOLATION,
                segment as u64,
                u64::from(attempt),
                self.violation_permille,
            )
    }

    /// Should a buffer overflow be forced on this `(segment, attempt)`?
    pub fn force_overflow(&self, segment: usize, attempt: u32) -> bool {
        self.overflow_points.contains(&(segment, attempt))
            || self.decide(
                KIND_OVERFLOW,
                segment as u64,
                u64::from(attempt),
                self.overflow_permille,
            )
    }

    /// Should a spurious squash-generation bump hit this
    /// `(segment, attempt)`?
    pub fn spurious_bump(&self, segment: usize, attempt: u32) -> bool {
        self.decide(
            KIND_SQUASH,
            segment as u64,
            u64::from(attempt),
            self.squash_permille,
        )
    }

    /// Should the worker dispatching this segment panic?
    pub fn worker_panic(&self, segment: usize) -> bool {
        self.panic_segments.contains(&segment)
    }

    /// Should the worker dispatching this segment fail with a typed error?
    pub fn worker_error(&self, segment: usize) -> bool {
        self.error_segments.contains(&segment)
    }

    /// Whether scheduler perturbation is active at all (hot-path gate).
    pub fn perturb_active(&self) -> bool {
        self.perturb_permille > 0
    }

    /// Should the scheduler be perturbed at this `(edge, segment, event)`?
    /// `event` is a per-site counter so repeated visits to one edge
    /// decide independently.
    pub fn perturb(&self, edge: PerturbEdge, segment: usize, event: u64) -> bool {
        self.decide(
            KIND_PERTURB,
            edge.tag()
                .wrapping_mul(0x100_0000)
                .wrapping_add(segment as u64),
            event,
            self.perturb_permille,
        )
    }
}

/// Why a region stopped speculating and re-executed sequentially.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// One segment exhausted its restart budget.
    RestartBudget {
        /// The segment that kept restarting.
        segment: usize,
        /// Its restart count when the budget tripped.
        restarts: u32,
    },
    /// The region as a whole exhausted its rollback budget.
    RollbackBudget {
        /// The region's rollback count when the budget tripped.
        rollbacks: u64,
    },
    /// The livelock watchdog fired: too many statements without a commit.
    Livelock {
        /// Statements executed since the last commit when the watchdog
        /// fired.
        statements: u64,
    },
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::RestartBudget { segment, restarts } => {
                write!(f, "segment {segment} restart budget ({restarts} restarts)")
            }
            DegradeReason::RollbackBudget { rollbacks } => {
                write!(f, "region rollback budget ({rollbacks} rollbacks)")
            }
            DegradeReason::Livelock { statements } => {
                write!(f, "livelock watchdog ({statements} statements)")
            }
        }
    }
}

/// Degradation budgets: how much misspeculation a region may absorb before
/// the runtime gives up on speculation. When a budget trips, the region
/// run fails with [`SimError::Degrade`] carrying the [`DegradeReason`],
/// and the run-level pipeline catches it and transparently re-executes the
/// region sequentially, recording the reason in the region's report.
///
/// Budget semantics are `count > budget`: a budget of 0 trips on the very
/// first restart/rollback, which is how the chaos campaigns prove that the
/// serial fallback alone reproduces the oracle image bit for bit. Both
/// runtimes keep their own counts and pass them to the `check_*` methods
/// below, so every budget comparison is made here and only here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Governor {
    /// Maximum restarts any single segment may perform.
    pub max_segment_restarts: u32,
    /// Maximum rollbacks a region may perform in total.
    pub max_region_rollbacks: u64,
    /// Maximum statements a region may execute without committing a
    /// segment before the livelock watchdog fires.
    pub livelock_statements: u64,
}

impl Default for Governor {
    /// Generous defaults that no legitimate run trips: degradation is a
    /// safety net, not a scheduling policy.
    fn default() -> Self {
        Governor {
            max_segment_restarts: 100_000,
            max_region_rollbacks: 10_000_000,
            livelock_statements: 100_000_000,
        }
    }
}

impl Governor {
    /// Sets the per-segment restart budget and returns the modified
    /// governor (builder style).
    pub fn restart_budget(mut self, budget: u32) -> Self {
        self.max_segment_restarts = budget;
        self
    }

    /// Sets the per-region rollback budget and returns the modified
    /// governor.
    pub fn rollback_budget(mut self, budget: u64) -> Self {
        self.max_region_rollbacks = budget;
        self
    }

    /// Sets the livelock watchdog's statement budget and returns the
    /// modified governor.
    pub fn livelock_budget(mut self, statements: u64) -> Self {
        self.livelock_statements = statements;
        self
    }

    /// Fails once `segment` has restarted more than the per-segment budget.
    #[inline]
    pub(crate) fn check_restarts(&self, segment: usize, restarts: u32) -> Result<(), SimError> {
        if restarts > self.max_segment_restarts {
            return Err(SimError::Degrade(DegradeReason::RestartBudget {
                segment,
                restarts,
            }));
        }
        Ok(())
    }

    /// Fails once the region has rolled back more than its budget.
    #[inline]
    pub(crate) fn check_rollbacks(&self, rollbacks: u64) -> Result<(), SimError> {
        if rollbacks > self.max_region_rollbacks {
            return Err(SimError::Degrade(DegradeReason::RollbackBudget {
                rollbacks,
            }));
        }
        Ok(())
    }

    /// Fails once `statements` ran without a commit: since the last commit
    /// in the simulated engine, across one segment's attempts in the
    /// real-thread runtime.
    #[inline]
    pub(crate) fn check_livelock(&self, statements: u64) -> Result<(), SimError> {
        if statements > self.livelock_statements {
            return Err(SimError::Degrade(DegradeReason::Livelock { statements }));
        }
        Ok(())
    }

    /// Fails once a region has executed more than [`STEP_BUDGET`]
    /// statements. This guard is not a degradation budget: it surfaces as
    /// [`SimError::StatementBudgetExceeded`] instead of a serial fallback.
    #[inline]
    pub(crate) fn check_statements(&self, statements: u64) -> Result<(), SimError> {
        if statements > STEP_BUDGET as u64 {
            return Err(SimError::StatementBudgetExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.injects_failures());
        for seg in 0..64 {
            for attempt in 0..4 {
                assert!(!plan.force_violation(seg, attempt));
                assert!(!plan.force_overflow(seg, attempt));
                assert!(!plan.spurious_bump(seg, attempt));
            }
            assert!(!plan.worker_panic(seg));
            assert!(!plan.worker_error(seg));
        }
        assert!(!plan.perturb_active());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).violation_rate(500);
        let b = FaultPlan::seeded(1).violation_rate(500);
        let c = FaultPlan::seeded(2).violation_rate(500);
        let mut diverged = false;
        for seg in 0..256 {
            for attempt in 0..4 {
                assert_eq!(
                    a.force_violation(seg, attempt),
                    b.force_violation(seg, attempt)
                );
                if a.force_violation(seg, attempt) != c.force_violation(seg, attempt) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must give different schedules");
    }

    #[test]
    fn rates_hit_roughly_proportionally() {
        let plan = FaultPlan::seeded(7).overflow_rate(250);
        let hits = (0..4000).filter(|&seg| plan.force_overflow(seg, 0)).count();
        // 250/1000 of 4000 = 1000 expected; allow a wide deterministic band.
        assert!((700..1300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn rate_extremes_short_circuit() {
        let never = FaultPlan::seeded(3);
        let always = FaultPlan::seeded(3).violation_rate(1000);
        for seg in 0..64 {
            assert!(!never.force_violation(seg, 0));
            assert!(always.force_violation(seg, 0));
        }
    }

    #[test]
    fn points_fire_exactly_where_placed() {
        let plan = FaultPlan::seeded(0)
            .violation_at(5, 0)
            .overflow_at(9, 2)
            .panic_at(3)
            .error_at(4);
        assert!(plan.force_violation(5, 0));
        assert!(!plan.force_violation(5, 1));
        assert!(!plan.force_violation(6, 0));
        assert!(plan.force_overflow(9, 2));
        assert!(!plan.force_overflow(9, 0));
        assert!(plan.worker_panic(3));
        assert!(!plan.worker_panic(5));
        assert!(plan.worker_error(4));
        assert!(plan.injects_failures());
        assert!(!plan.is_empty());
    }

    #[test]
    fn kinds_decide_independently() {
        let plan = FaultPlan::seeded(11).violation_rate(300).overflow_rate(300);
        let both: Vec<(bool, bool)> = (0..512)
            .map(|seg| (plan.force_violation(seg, 0), plan.force_overflow(seg, 0)))
            .collect();
        assert!(both.iter().any(|&(v, o)| v && !o));
        assert!(both.iter().any(|&(v, o)| !v && o));
    }

    #[test]
    fn chaotic_plans_are_reproducible_and_varied() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::chaotic(seed), FaultPlan::chaotic(seed));
        }
        assert!(FaultPlan::chaotic(3).injects_failures());
        assert!(FaultPlan::chaotic(6).injects_failures());
        let rates: std::collections::BTreeSet<u16> = (0..32)
            .map(|s| FaultPlan::chaotic(s).violation_permille)
            .collect();
        assert!(rates.len() > 8, "rates vary across seeds: {rates:?}");
    }

    #[test]
    fn governor_default_is_generous() {
        let g = Governor::default();
        assert!(g.max_segment_restarts >= 100_000);
        let tight = Governor::default().restart_budget(0);
        assert_eq!(tight.max_segment_restarts, 0);
        assert_eq!(tight.check_restarts(3, 0), Ok(()));
        assert_eq!(
            tight.check_restarts(3, 1),
            Err(SimError::Degrade(DegradeReason::RestartBudget {
                segment: 3,
                restarts: 1
            }))
        );
    }

    #[test]
    fn perturbation_decides_per_edge_and_event() {
        let plan = FaultPlan::seeded(21).perturb_rate(400);
        assert!(plan.perturb_active());
        let a: Vec<bool> = (0..64)
            .map(|n| plan.perturb(PerturbEdge::MaskProbe, 3, n))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|n| plan.perturb(PerturbEdge::Commit, 3, n))
            .collect();
        assert_ne!(a, b, "edges decide independently");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }
}
