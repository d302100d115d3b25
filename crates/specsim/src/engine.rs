//! The speculation engine: event-ordered execution of HOSE and CASE.
//!
//! Segments (region-loop iterations) are dispatched in program order onto a
//! fixed number of processors. Each in-flight segment owns a bounded
//! [`SpecBuffer`]; the engine interleaves segments by always advancing the
//! one with the smallest local clock, one statement at a time. The routing
//! of each memory access is decided by the reference's idempotency label
//! (Definition 4):
//!
//! * speculative references are tracked in the segment's buffer — reads
//!   search the segment's own buffer, then the buffers of older in-flight
//!   segments (youngest ancestor first, HOSE Property 4), then
//!   non-speculative storage; writes check younger segments for premature
//!   exposed reads (violations, HOSE Property 5) and allocate a dirty entry;
//! * idempotent references bypass the buffer: reads go straight to
//!   non-speculative storage, writes perform the violation check and then
//!   write through;
//! * private references use per-segment private storage (the per-segment
//!   private stacks of Section 5).
//!
//! Violations roll back the offending segment and every younger in-flight
//! segment (Property 2). A non-head segment that overflows its buffer is
//! squashed and stalled until it becomes the oldest; the head absorbs
//! overflow by reading/writing through to non-speculative storage — the
//! serialization effect the paper describes. Segments commit in order
//! (Property 6).

use crate::config::{
    SimConfig, COMMIT_PER_ENTRY, DISPATCH_COST, LAT_FORWARD, LAT_SPEC, PRIVATE_SETUP_COST,
    ROLLBACK_PENALTY,
};
use crate::report::SimReport;
use crate::run::{ExecMode, SimError};
use crate::storage::{PrivateStore, Probe, SpecBuffer};
use refidem_core::label::{IdemCategory, Label, Labeling};
use refidem_ir::exec::{AnyExec, DataStore};
use refidem_ir::ids::RefId;
use refidem_ir::lowered::{ExecBuffers, LoweredProc};
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::stmt::LoopStmt;
use refidem_ir::var::VarTable;

/// One processor's slot: the state of the segment it runs, and that
/// processor's storage buffers. A slot stays in place for the whole
/// region: commit and WHILE termination only clear `active`, and the next
/// dispatch clears the buffers in place. The scheduling fields the
/// engine's per-statement scan reads (`seg`, `clock`, `active`, `done`,
/// `stalled`) are laid out first so the scan touches one cache line per
/// slot.
#[derive(Clone, Debug, Default)]
#[repr(C)]
struct SlotData {
    /// Segment number in execution (commit) order, 0-based.
    seg: usize,
    /// Local clock (cycles since region entry).
    clock: u64,
    /// A segment occupies the slot: dispatched, and neither committed nor
    /// discarded. Every other field is stale while this is false.
    active: bool,
    /// The segment has executed its last statement (waiting to commit).
    done: bool,
    /// The segment overflowed as a non-head and waits to become the head.
    stalled: bool,
    /// A violation requested this segment's roll-back.
    squash_requested: bool,
    /// An overflow was detected mid-statement; the rest of the statement's
    /// accesses are not tracked and the engine squashes the segment after
    /// the statement completes.
    overflow_poisoned: bool,
    /// Number of times the segment has been rolled back or restarted.
    restarts: u32,
    /// The WHILE continuation check (the segment executor's first unit)
    /// evaluated to false: this segment is the region's dynamic end. Its
    /// commit discards all younger segments.
    term_pending: bool,
    /// Earliest simulated time at which the requested roll-back can take
    /// effect (the time the violating producer write happened).
    squash_not_before: u64,
    /// Bounded speculative storage, the processor's for the whole region.
    spec: SpecBuffer,
    /// Per-segment private storage (for references labeled `Private`).
    private: PrivateStore,
}

/// Per-address presence masks over the in-flight slots: bit `p` of
/// `write[a]` / `read[a]` is set when processor `p`'s buffer holds a
/// written / exposed-read entry for address `a`. The common case — no
/// other in-flight segment has touched an address — is then a single load
/// instead of a probe of every slot's buffer. Disabled (always-scan) for
/// machines with more than 32 processors.
#[derive(Debug, Default)]
struct DepMasks {
    write: Vec<u32>,
    read: Vec<u32>,
    enabled: bool,
}

impl DepMasks {
    fn new(processors: usize, words: u64) -> Self {
        let enabled = processors <= 32;
        let n = if enabled { words as usize } else { 0 };
        DepMasks {
            write: vec![0; n],
            read: vec![0; n],
            enabled,
        }
    }

    /// Re-targets pooled masks at a machine shape, reallocating only when
    /// the address-space size or the enablement changes. A clean engine run
    /// retracts every mark it sets (on commit, roll-back and overflow
    /// restart), so reused arrays are already all-zero — debug builds
    /// verify that instead of paying an unconditional clear.
    fn prepare(&mut self, processors: usize, words: u64) {
        let enabled = processors <= 32;
        let n = if enabled { words as usize } else { 0 };
        if self.enabled != enabled || self.write.len() != n {
            *self = DepMasks::new(processors, words);
            return;
        }
        debug_assert!(
            self.write.iter().all(|&m| m == 0) && self.read.iter().all(|&m| m == 0),
            "pooled dependence masks must come back clean"
        );
    }

    /// Clears processor `p`'s bits for every address in `spec`'s journal
    /// (call right before that buffer is cleared or retired).
    fn retract(&mut self, p: usize, spec: &SpecBuffer) {
        if !self.enabled {
            return;
        }
        let clear = !(1u32 << p);
        for addr in spec.touched_addrs() {
            self.write[addr.0 as usize] &= clear;
            self.read[addr.0 as usize] &= clear;
        }
    }

    /// True when some slot other than `p` may hold a written entry for
    /// `addr` (conservatively true when masks are disabled).
    #[inline]
    fn other_writer(&self, p: usize, addr: Addr) -> bool {
        !self.enabled || self.write[addr.0 as usize] & !(1u32 << p) != 0
    }

    /// True when some slot other than `p` may hold an exposed-read entry
    /// for `addr` (conservatively true when masks are disabled).
    #[inline]
    fn other_reader(&self, p: usize, addr: Addr) -> bool {
        !self.enabled || self.read[addr.0 as usize] & !(1u32 << p) != 0
    }

    /// Marks processor `p` as holding a written entry for `addr`.
    #[inline]
    fn mark_write(&mut self, p: usize, addr: Addr) {
        if self.enabled {
            self.write[addr.0 as usize] |= 1 << p;
        }
    }

    /// Marks processor `p` as holding an exposed-read entry for `addr`.
    #[inline]
    fn mark_read(&mut self, p: usize, addr: Addr) {
        if self.enabled {
            self.read[addr.0 as usize] |= 1 << p;
        }
    }
}

/// Reusable engine scratch: the allocations whose lifetime exceeds one
/// region execution, so `simulate_program` reuses one scratch across every
/// region and serial span of a schedule, and repeated calls (capacity-ladder
/// sweeps) reuse it across calls via the config's [`ScratchPool`]. It holds:
///
/// * each processor's [`SpecBuffer`] and [`PrivateStore`]. A region moves
///   them into the processor's slot when the engine starts and back when
///   the region ends, and they stay in the slot in between: a commit only
///   retracts the slot's mask marks, and the next dispatch clears the
///   buffers in place (an O(1) epoch bump). The dense shadow arrays are
///   therefore allocated once per processor, not once per segment, region
///   or call;
/// * the per-address dependence masks over the in-flight slots;
/// * a pool of compiled-executor buffers ([`ExecBuffers`]). The engine's
///   per-processor segment executors and the schedule's serial spans take
///   theirs from it and return them at region or span end; each executor
///   resizes what it takes to its own unit.
///
/// Labels need no buffer: accesses route by the region's [`Labeling`] in
/// place.
///
/// Obtain one from a [`ScratchPool`] with [`ScratchPool::take`] and hand it
/// back with [`ScratchPool::restore`] after a *successful* run; on error,
/// drop it (a failed run may leave marks set, and a dropped scratch is
/// simply rebuilt on the next take).
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Each processor's storage buffers between regions (`None` until a
    /// region first runs on the processor, or after an address-space
    /// change).
    stores: Vec<Option<(SpecBuffer, PrivateStore)>>,
    /// Cross-slot dependence presence masks (see [`DepMasks`]).
    masks: DepMasks,
    /// Pooled executor buffers, taken last-in first-out.
    execs: Vec<ExecBuffers>,
}

impl EngineScratch {
    /// A fresh, empty scratch (allocations happen lazily when the first
    /// engine run prepares it).
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// Takes executor buffers from the pool (empty ones when it is dry).
    pub(crate) fn take_exec(&mut self) -> ExecBuffers {
        self.execs.pop().unwrap_or_default()
    }

    /// Returns executor buffers to the pool.
    pub(crate) fn restore_exec(&mut self, bufs: ExecBuffers) {
        self.execs.push(bufs);
    }

    /// Re-targets the scratch at a machine shape, keeping every allocation
    /// that still fits: masks reallocate only when the address-space size
    /// changes, pooled buffers are revalidated (dropped on a word-count
    /// mismatch, re-capacitied in place across ladder points).
    fn prepare(&mut self, processors: usize, capacity: usize, words: u64) {
        self.masks.prepare(processors, words);
        if self.stores.len() < processors {
            self.stores.resize_with(processors, || None);
        }
        for slot in &mut self.stores {
            if let Some((spec, _)) = slot {
                if spec.address_words() != words {
                    *slot = None;
                } else if spec.capacity() != capacity {
                    // Buffers clear lazily (on dispatch); clear eagerly
                    // here so the capacity change sees an empty buffer.
                    spec.clear();
                    spec.set_capacity(capacity);
                }
            }
        }
    }

    /// The pooled storage-buffer pairs, the pooled executor-buffer sets,
    /// and the heap address of every buffer they hold (pool-reuse tests
    /// compare them).
    #[cfg(test)]
    pub(crate) fn heap_addrs(&self) -> (usize, usize, Vec<usize>) {
        let mut addrs = Vec::new();
        for (spec, private) in self.stores.iter().flatten() {
            addrs.extend(spec.heap_addrs());
            addrs.extend(private.heap_addrs());
        }
        for bufs in &self.execs {
            addrs.extend(bufs.heap_addrs());
        }
        let stores = self.stores.iter().flatten().count();
        (stores, self.execs.len(), addrs)
    }

    /// Processor `p`'s storage buffers, pooled or fresh, sized to the
    /// prepared shape.
    fn take_stores(&mut self, p: usize, capacity: usize, words: u64) -> (SpecBuffer, PrivateStore) {
        self.stores[p]
            .take()
            .unwrap_or_else(|| (SpecBuffer::new(capacity, words), PrivateStore::new(words)))
    }
}

/// A shareable pool of retired [`EngineScratch`] values — the allocation
/// reuse that survives **across threads**.
///
/// Each `simulate_program` or `simulate_region` call takes one scratch at
/// the start and, when it succeeds, restores it at the end. A warm call
/// therefore finds every buffer it needs already sized: each processor's
/// storage buffers, the dependence masks, and the executor buffers of its
/// segments and serial spans (see [`EngineScratch`]).
///
/// The engine's scratch reuse was originally a bare `thread_local!`, which
/// [`SweepExec`](crate::sweep::SweepExec) silently defeated: every
/// `SweepPlan::run` spawns *fresh* scoped worker threads, so each sweep
/// re-warmed its scratch from cold and the pooled memory died with the
/// worker. This pool is a cheap process-wide handle instead (`Clone`
/// shares the underlying storage, like
/// [`LoweredCache`](refidem_ir::lowered::LoweredCache)): workers of one
/// sweep return their scratch on completion and the next sweep's workers —
/// different OS threads — pick the warm allocations straight back up.
///
/// [`ScratchPool::default`] returns the **process-global** pool, which is
/// what a default [`SimConfig`] carries; use
/// [`ScratchPool::fresh`] for an isolated pool (tests, memory-sensitive
/// embedders). The pool holds at most [`ScratchPool::MAX_POOLED`] retired
/// values — enough for every worker of the widest sweep, while bounding
/// the memory a burst of workers can park.
#[derive(Clone, Debug, Default)]
pub struct ScratchPool {
    inner: std::sync::Arc<std::sync::Mutex<Vec<EngineScratch>>>,
}

/// Handle identity: two pool values are equal when they share the same
/// underlying storage (what lets [`SimConfig`] keep a
/// derived `PartialEq`).
impl PartialEq for ScratchPool {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl ScratchPool {
    /// Most retired scratch values the pool will hold; `restore` beyond
    /// this drops the excess scratch instead of parking it.
    pub const MAX_POOLED: usize = 64;

    /// Creates an empty pool that shares storage with nothing else.
    pub fn fresh() -> Self {
        ScratchPool::default()
    }

    /// The **process-global** pool: every handle returned here shares one
    /// underlying store, so scratch survives arbitrarily many short-lived
    /// worker threads.
    pub fn global() -> Self {
        static GLOBAL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ScratchPool::fresh).clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EngineScratch>> {
        self.inner.lock().expect("scratch pool poisoned")
    }

    /// Takes a pooled scratch, or a fresh one when the pool is empty.
    pub fn take(&self) -> EngineScratch {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch for a later [`take`](Self::take) — possibly by a
    /// different thread. Only scratch from *successful* runs may come back:
    /// a failed run's masks can carry stale marks (drop it instead; the
    /// next take simply rebuilds).
    pub fn restore(&self, scratch: EngineScratch) {
        let mut pool = self.lock();
        if pool.len() < Self::MAX_POOLED {
            pool.push(scratch);
        }
    }

    /// Number of scratch values currently parked in the pool.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no scratch is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs one region speculatively. `memory` is the non-speculative storage,
/// already holding the effects of the code preceding the region.
pub(crate) struct Engine<'p> {
    cfg: &'p SimConfig,
    region: &'p LoopStmt,
    /// The labeling accesses route by: the region's under CASE, `None`
    /// under HOSE, where every site is speculative.
    labels: Option<&'p Labeling>,
    iter_values: Vec<i64>,
    has_private_labels: bool,
    /// `cfg.faults` injects something (read once, not per statement).
    faults_armed: bool,

    /// One executor per processor that will run a segment, all on the
    /// region body's one compiled form (tree-walk or bytecode), kept for
    /// the whole region and restarted at every dispatch. A WHILE region's
    /// continuation check is each segment's first unit.
    execs: Vec<AnyExec<'p>>,
    /// One slot per processor, in place for the whole region.
    slots: Vec<SlotData>,
    /// Pooled buffers + dependence masks, owned by the caller (see
    /// [`EngineScratch`]).
    scratch: &'p mut EngineScratch,
    memory: &'p mut Memory,
    head: usize,
    next_dispatch: usize,
    /// A committed segment's WHILE continuation check failed; the region
    /// is over regardless of how many counted segments remain.
    terminated: bool,
    last_commit_time: u64,
    /// Statements executed since the last commit — the livelock watchdog's
    /// counter (see [`Governor`](crate::fault::Governor)).
    stmts_since_commit: u64,
    report: SimReport,
}

impl<'p> Engine<'p> {
    /// Creates an engine for one region execution. `lowered` is the
    /// region body's compiled form, or `None` to tree-walk it (the caller
    /// compiles; the engine runs whatever it is handed). The engine takes
    /// its buffers from `scratch` and [`run`](Self::run) hands them back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: &'p SimConfig,
        mode: ExecMode,
        labeling: &'p Labeling,
        vars: &'p VarTable,
        layout: &'p Layout,
        region: &'p LoopStmt,
        lowered: Option<&'p LoweredProc>,
        iter_values: Vec<i64>,
        scratch: &'p mut EngineScratch,
        memory: &'p mut Memory,
    ) -> Self {
        let processors = cfg.processors.max(1);
        let words = layout.total_words();
        scratch.prepare(processors, cfg.spec_capacity, words);
        let labels = (mode == ExecMode::Case).then_some(labeling);
        let has_private_labels = labels.is_some_and(|l| {
            l.iter()
                .any(|(_, label)| label == Label::Idempotent(IdemCategory::Private))
        });
        // Only the processors that will run a segment get an executor and
        // the processor's storage buffers.
        let busy = processors.min(iter_values.len());
        let execs = (0..busy)
            .map(|_| AnyExec::segment(lowered, vars, layout, region, scratch.take_exec()))
            .collect();
        let mut slots: Vec<SlotData> = (0..processors).map(|_| SlotData::default()).collect();
        for (p, slot) in slots.iter_mut().enumerate().take(busy) {
            (slot.spec, slot.private) = scratch.take_stores(p, cfg.spec_capacity, words);
        }
        Engine {
            cfg,
            region,
            labels,
            iter_values,
            has_private_labels,
            faults_armed: !cfg.faults.is_empty(),
            execs,
            slots,
            scratch,
            memory,
            head: 0,
            next_dispatch: 0,
            terminated: false,
            last_commit_time: 0,
            stmts_since_commit: 0,
            report: SimReport {
                mode: Some(mode),
                ..Default::default()
            },
        }
    }

    /// Runs the region to completion and returns the report. On success
    /// every buffer the engine took goes back to the scratch; on error the
    /// caller drops the scratch.
    pub(crate) fn run(mut self) -> Result<SimReport, SimError> {
        self.drive()?;
        self.report.region_cycles = self.last_commit_time;
        let Engine {
            execs,
            slots,
            scratch,
            report,
            ..
        } = self;
        // Last in, first out: push processor 0's executor buffers last so
        // the next region hands them to processor 0 again.
        for (p, (exec, slot)) in execs.into_iter().zip(slots).enumerate().rev() {
            scratch.restore_exec(exec.into_buffers());
            scratch.stores[p] = Some((slot.spec, slot.private));
        }
        Ok(report)
    }

    /// Dispatches, steps and commits segments until the region ends.
    fn drive(&mut self) -> Result<(), SimError> {
        let total = self.iter_values.len();
        self.report.segments = total;
        // Initial dispatch.
        for p in 0..self.execs.len() {
            self.dispatch(p, 0)?;
        }
        while self.head < total && !self.terminated {
            let head_seg = self.head;
            let last_commit_time = self.last_commit_time;
            // One pass over the (few) slots: locate the head (unstalling it
            // if an overflow stalled it), find the runnable slot with the
            // smallest clock (ties to the lowest processor index), and track
            // the earliest clock of any runnable non-head segment. The head
            // commits only once every other runnable segment has simulated
            // past its finish time, so committed values do not become
            // visible "in the past" of a segment that has not executed up
            // to that point yet.
            let mut head_state: Option<(usize, bool, u64)> = None;
            let mut runnable: Option<(usize, u64)> = None;
            let mut min_other = u64::MAX;
            for (p, slot) in self.slots.iter_mut().enumerate() {
                if !slot.active {
                    continue;
                }
                let is_head = slot.seg == head_seg;
                if is_head {
                    if slot.stalled {
                        slot.stalled = false;
                        slot.clock = slot.clock.max(last_commit_time);
                    }
                    head_state = Some((p, slot.done, slot.clock));
                }
                if slot.done || slot.stalled {
                    continue;
                }
                let better = match runnable {
                    None => true,
                    Some((_, best)) => slot.clock < best,
                };
                if better {
                    runnable = Some((p, slot.clock));
                }
                if !is_head {
                    min_other = min_other.min(slot.clock);
                }
            }
            if let Some((p, true, finish)) = head_state {
                if min_other >= finish {
                    self.commit(p)?;
                    continue;
                }
            }
            let Some((p, _)) = runnable else {
                return Err(SimError::Deadlock);
            };
            self.step_slot(p)?;
            if self.report.statements > self.cfg.max_statements {
                return Err(SimError::StatementBudgetExceeded);
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, p: usize, start_time: u64) -> Result<(), SimError> {
        let seg = self.next_dispatch;
        self.next_dispatch += 1;
        let mut clock = start_time + DISPATCH_COST;
        if self.has_private_labels {
            clock += PRIVATE_SETUP_COST;
        }
        // The slot keeps the processor's buffers from its previous
        // segment; clearing them is an O(1) epoch bump.
        let slot = &mut self.slots[p];
        slot.spec.clear();
        slot.private.clear();
        slot.seg = seg;
        slot.clock = clock;
        slot.active = true;
        slot.done = false;
        slot.stalled = false;
        slot.squash_requested = false;
        slot.squash_not_before = 0;
        slot.overflow_poisoned = false;
        slot.restarts = 0;
        slot.term_pending = false;
        // Restarting reuses every buffer, so a dispatch allocates nothing.
        self.execs[p].restart(&[(self.region.index, self.iter_values[seg])]);
        // Injected dispatch failures. The simulator has no worker thread
        // to unwind, so an injected "panic" is returned directly as the
        // typed error the real-thread runtime would have reported after
        // catching it — same identity, same rendering.
        if self.cfg.faults.worker_panic(seg) {
            return Err(SimError::WorkerPanic {
                thread: p,
                segment: Some(seg),
                segments: self.iter_values.len(),
                message: "injected segment fault".to_string(),
            });
        }
        if self.cfg.faults.worker_error(seg) {
            return Err(SimError::Injected { segment: seg });
        }
        Ok(())
    }

    fn step_slot(&mut self, p: usize) -> Result<(), SimError> {
        self.slots[p].clock += self.cfg.stmt_cost;
        // Deterministic fault injection, non-head segments only: the head
        // is non-speculative and cannot misspeculate (which also keeps the
        // one-processor degenerate case injection-free, preserving its
        // zero-violation invariant). Every injection restarts the segment
        // and thereby bumps its attempt number, so each (segment, attempt)
        // decision fires at most once.
        if self.faults_armed {
            let slot = &self.slots[p];
            let (seg, attempt, now) = (slot.seg, slot.restarts, slot.clock);
            if seg != self.head {
                if self.cfg.faults.force_violation(seg, attempt) {
                    // Mirror a real flow violation: flag it and squash
                    // this segment plus every younger in-flight one.
                    self.report.violations += 1;
                    for slot in self.slots.iter_mut().filter(|s| s.active) {
                        if slot.seg >= seg {
                            slot.squash_requested = true;
                            slot.squash_not_before = slot.squash_not_before.max(now);
                        }
                    }
                    self.process_squashes(now)?;
                    return Ok(());
                }
                if self.cfg.faults.spurious_bump(seg, attempt) {
                    // A squash with no underlying violation — counted as a
                    // rollback, like the generation bump it models.
                    self.restart_slot(p, now + ROLLBACK_PENALTY, true)?;
                    return Ok(());
                }
                if self.cfg.faults.force_overflow(seg, attempt) {
                    self.report.overflow_stalls += 1;
                    self.restart_slot(p, now, false)?;
                    self.slots[p].stalled = true;
                    return Ok(());
                }
            }
        }
        // Split borrows: the executor lives in `execs`, the store context
        // borrows the sibling fields, so no per-statement move of the
        // executor is needed.
        let head = self.head;
        let violations_before = self.report.violations;
        let Engine {
            execs,
            slots,
            scratch,
            memory,
            report,
            cfg,
            labels,
            ..
        } = self;
        let exec = &mut execs[p];
        let mut ctx = AccessCtx {
            cfg,
            labels: *labels,
            memory,
            slots,
            masks: &mut scratch.masks,
            report,
            p,
            head,
        };
        // A WHILE segment's first step is its continuation check, which
        // runs through the same labeled access path (latencies, dependence
        // tracking, overflow) as every statement; a failed check ends the
        // segment in that same step.
        let more = exec.step(&mut ctx).map_err(SimError::Exec)?;
        let exited = exec.exited();
        self.report.statements += 1;
        self.stmts_since_commit += 1;
        if self.stmts_since_commit > self.cfg.governor.livelock_statements {
            return Err(SimError::Livelock {
                statements: self.stmts_since_commit,
            });
        }
        let slot = &mut self.slots[p];
        if !more {
            slot.done = true;
            slot.term_pending = exited;
        }
        let now = slot.clock;
        // Track peak speculative-storage occupancy.
        self.report.spec_peak_occupancy = self.report.spec_peak_occupancy.max(slot.spec.len());
        // Roll back segments flagged by violations during this statement
        // (squash requests are only ever set together with a violation, so
        // an unchanged count means there is nothing to process). A premature
        // read squashes the reader itself, so a continuation check decided
        // on a stale value is rolled back here and re-evaluated.
        if self.report.violations != violations_before {
            self.process_squashes(now)?;
        }
        // Handle an overflow detected during this statement.
        if self.slots[p].overflow_poisoned {
            self.restart_slot(p, now, false)?;
            self.slots[p].stalled = true;
        }
        Ok(())
    }

    /// Rolls back every in-flight segment whose squash was requested. The
    /// roll-back takes effect no earlier than the producing write that
    /// triggered it.
    fn process_squashes(&mut self, now: u64) -> Result<(), SimError> {
        for p in 0..self.slots.len() {
            let slot = &self.slots[p];
            if slot.active && slot.squash_requested {
                let restart = now.max(slot.squash_not_before) + ROLLBACK_PENALTY;
                self.restart_slot(p, restart, true)?;
            }
        }
        Ok(())
    }

    /// Resets the in-flight segment of slot `p` to its initial state.
    /// `count_rollback` separates violation roll-backs from overflow
    /// restarts in the statistics. Fails when the restart trips a governor
    /// budget.
    fn restart_slot(
        &mut self,
        p: usize,
        restart_time: u64,
        count_rollback: bool,
    ) -> Result<(), SimError> {
        let Engine {
            slots,
            scratch,
            execs,
            report,
            cfg,
            has_private_labels,
            ..
        } = self;
        let slot = &mut slots[p];
        scratch.masks.retract(p, &slot.spec);
        slot.spec.clear();
        slot.private.clear();
        slot.done = false;
        slot.stalled = false;
        slot.squash_requested = false;
        slot.squash_not_before = 0;
        slot.overflow_poisoned = false;
        slot.term_pending = false;
        slot.restarts += 1;
        report.max_segment_restarts = report.max_segment_restarts.max(slot.restarts);
        slot.clock = restart_time;
        if *has_private_labels {
            slot.clock += PRIVATE_SETUP_COST;
        }
        if slot.restarts > cfg.governor.max_segment_restarts {
            return Err(SimError::RestartBudget {
                segment: slot.seg,
                restarts: slot.restarts,
            });
        }
        execs[p].reset();
        if count_rollback {
            report.rollbacks += 1;
            if report.rollbacks > cfg.governor.max_region_rollbacks {
                return Err(SimError::RollbackBudget {
                    rollbacks: report.rollbacks,
                });
            }
        }
        Ok(())
    }

    /// Commits the head segment occupying slot `p` and dispatches the next
    /// segment onto the freed processor.
    fn commit(&mut self, p: usize) -> Result<(), SimError> {
        let total = self.iter_values.len();
        let slot = &self.slots[p];
        // Drain the journal straight into memory. An address has one entry
        // per epoch, so the (touch) order of the stores cannot matter.
        let mut entries = 0u64;
        for (addr, value) in slot.spec.dirty() {
            self.memory.store(addr, value);
            entries += 1;
        }
        let commit_time = slot.clock + COMMIT_PER_ENTRY * entries;
        let terminator = slot.term_pending;
        self.report.commits += 1;
        self.report.committed_entries += entries;
        self.last_commit_time = self.last_commit_time.max(commit_time);
        self.head += 1;
        // The slot keeps its buffers for the processor's next segment (the
        // dispatch clears them); only its mask marks go now.
        self.scratch.masks.retract(p, &slot.spec);
        self.slots[p].active = false;
        self.stmts_since_commit = 0;
        if terminator {
            // The committed head's continuation check failed: the region is
            // over. Discard every younger in-flight segment — their
            // buffered state never reached memory (a while region has no
            // non-private idempotent write-through sites; see
            // `RegionAnalysis`'s segment view) — and stop dispatching.
            for (q, slot) in self.slots.iter_mut().enumerate() {
                if slot.active {
                    self.scratch.masks.retract(q, &slot.spec);
                    slot.active = false;
                }
            }
            self.report.segments = self.head;
            self.next_dispatch = total;
            self.terminated = true;
            return Ok(());
        }
        if self.next_dispatch < total {
            self.dispatch(p, commit_time)?;
        }
        Ok(())
    }
}

/// The [`DataStore`] a stepping segment sees: routes every access according
/// to its label, charges latencies, tracks dependences and flags violations
/// and overflows.
struct AccessCtx<'a> {
    cfg: &'a SimConfig,
    labels: Option<&'a Labeling>,
    memory: &'a mut Memory,
    slots: &'a mut [SlotData],
    masks: &'a mut DepMasks,
    report: &'a mut SimReport,
    p: usize,
    head: usize,
}

impl AccessCtx<'_> {
    /// The label `site`'s access routes by.
    #[inline]
    fn label(&self, site: RefId) -> Label {
        self.labels.map_or(Label::Speculative, |l| l.label(site))
    }

    /// The stepping segment's slot.
    #[inline]
    fn own(&self) -> &SlotData {
        &self.slots[self.p]
    }

    /// Mutable access to the stepping segment's slot.
    #[inline]
    fn own_mut(&mut self) -> &mut SlotData {
        &mut self.slots[self.p]
    }

    /// Flags violations: an older segment writes `addr` while a younger
    /// in-flight segment has already performed an exposed (speculative) read
    /// of it. The offending segment and every younger one are rolled back.
    fn check_violations(&mut self, addr: Addr, writer_seg: usize) {
        if !self.masks.other_reader(self.p, addr) {
            return;
        }
        let mut min_violating: Option<usize> = None;
        for slot in self.slots.iter().filter(|s| s.active) {
            if slot.seg > writer_seg && slot.spec.has_exposed_read(addr) {
                min_violating = Some(match min_violating {
                    Some(m) => m.min(slot.seg),
                    None => slot.seg,
                });
            }
        }
        if let Some(min_seg) = min_violating {
            self.report.violations += 1;
            let detection_time = self.own().clock;
            for slot in self.slots.iter_mut().filter(|s| s.active) {
                if slot.seg >= min_seg {
                    slot.squash_requested = true;
                    slot.squash_not_before = slot.squash_not_before.max(detection_time);
                }
            }
        }
    }

    /// Forwards a value from the youngest older in-flight segment holding a
    /// written entry for `addr`, together with the time that write happened.
    fn forward_from_ancestor(&self, addr: Addr, reader_seg: usize) -> Option<(f64, u64)> {
        self.slots
            .iter()
            .filter(|s| s.active && s.seg < reader_seg)
            .filter_map(|s| Some((s.seg, s.spec.get(addr).filter(|e| e.written)?)))
            .max_by_key(|&(seg, _)| seg)
            .map(|(_, e)| (e.value, e.last_write_time))
    }

    /// Flags a premature read: the reader (and every younger segment) is
    /// rolled back because an older in-flight segment has already produced a
    /// newer value for `addr` at a later simulated time (`write_time`). The
    /// roll-back takes effect at the producing write, matching the moment
    /// the hardware detects the violation.
    fn flag_premature_read(&mut self, reader_seg: usize, write_time: u64) {
        self.report.violations += 1;
        for slot in self.slots.iter_mut().filter(|s| s.active) {
            if slot.seg >= reader_seg {
                slot.squash_requested = true;
                slot.squash_not_before = slot.squash_not_before.max(write_time);
            }
        }
    }
}

impl DataStore for AccessCtx<'_> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        let label = self.label(site);
        let own_seg = self.own().seg;
        let is_head = own_seg == self.head;
        match label {
            Label::Idempotent(IdemCategory::Private) => {
                self.report.private_reads += 1;
                let lat = self.cfg.lat_nonspec;
                let slot = self.own_mut();
                slot.clock += lat;
                match slot.private.get(addr) {
                    Some(v) => v,
                    None => self.memory.load(addr),
                }
            }
            Label::Idempotent(_) => {
                // Idempotent reads completely bypass the speculative storage
                // and leave no information in it (Definition 4).
                self.report.nonspec_reads += 1;
                self.own_mut().clock += self.cfg.lat_nonspec;
                self.memory.load(addr)
            }
            Label::Speculative => {
                self.report.spec_reads += 1;
                // Own buffer first. This one probe of its index also
                // answers the overflow check and places the insert below.
                let lat = LAT_SPEC;
                let slot = self.own_mut();
                let probe = slot.spec.probe(addr);
                if let Some(entry) = slot.spec.entry(probe) {
                    let value = entry.value;
                    slot.clock += lat;
                    return value;
                }
                if slot.overflow_poisoned {
                    // The segment is already being squashed; do not track
                    // anything further.
                    slot.clock += lat;
                    return self.memory.load(addr);
                }
                // Forward from the youngest ancestor, else non-speculative
                // storage (HOSE Property 4). The mask makes the common "no
                // other in-flight writer" case a single load.
                let now = self.own().clock;
                let forwarded = if self.masks.other_writer(self.p, addr) {
                    self.forward_from_ancestor(addr, own_seg)
                } else {
                    None
                };
                if let Some((_, write_time)) = forwarded {
                    if write_time > now {
                        // In simulated time this read happens before the
                        // older segment's write: the read is premature, a
                        // flow-dependence violation (HOSE Property 5).
                        self.flag_premature_read(own_seg, write_time);
                        self.own_mut().clock += self.cfg.lat_nonspec;
                        return self.memory.load(addr);
                    }
                }
                let (value, latency) = match forwarded {
                    Some((v, _)) => {
                        self.report.forwards += 1;
                        (v, LAT_FORWARD)
                    }
                    None => (self.memory.load(addr), self.cfg.lat_nonspec),
                };
                // Field-level borrow: the block below touches the slot and
                // the report together, which the whole-`self` accessor
                // cannot express.
                let slot = &mut self.slots[self.p];
                slot.clock += latency;
                // Record the exposed read for dependence tracking; this
                // allocation may overflow the buffer.
                if probe == Probe::Full {
                    if is_head {
                        // The head is non-speculative: it cannot violate and
                        // need not track; absorb the overflow.
                        self.report.overflow_writethrough += 1;
                    } else {
                        self.report.overflow_stalls += 1;
                        slot.overflow_poisoned = true;
                    }
                    return value;
                }
                let now = slot.clock;
                slot.spec.record_exposed_read(addr, probe, value, now);
                self.masks.mark_read(self.p, addr);
                value
            }
        }
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        let label = self.label(site);
        let own_seg = self.own().seg;
        let is_head = own_seg == self.head;
        match label {
            Label::Idempotent(IdemCategory::Private) => {
                self.report.private_writes += 1;
                let lat = self.cfg.lat_nonspec;
                let slot = self.own_mut();
                slot.clock += lat;
                slot.private.insert(addr, value);
            }
            Label::Idempotent(_) => {
                // Idempotent writes enforce dependences by checking for
                // prematurely executed speculative loads, then write through
                // to non-speculative storage (Definition 4).
                self.report.nonspec_writes += 1;
                if !self.own().squash_requested {
                    self.check_violations(addr, own_seg);
                }
                self.own_mut().clock += self.cfg.lat_nonspec;
                self.memory.store(addr, value);
            }
            Label::Speculative => {
                self.report.spec_writes += 1;
                if !self.own().squash_requested {
                    self.check_violations(addr, own_seg);
                }
                if self.own().overflow_poisoned {
                    self.own_mut().clock += LAT_SPEC;
                    return;
                }
                // One probe: the overflow check, then the update or insert.
                let probe = self.own().spec.probe(addr);
                if probe == Probe::Full {
                    if is_head {
                        self.report.overflow_writethrough += 1;
                        self.own_mut().clock += self.cfg.lat_nonspec;
                        self.memory.store(addr, value);
                    } else {
                        self.report.overflow_stalls += 1;
                        let lat = LAT_SPEC;
                        let slot = self.own_mut();
                        slot.overflow_poisoned = true;
                        slot.clock += lat;
                    }
                    return;
                }
                let lat = LAT_SPEC;
                let slot = self.own_mut();
                slot.clock += lat;
                let now = slot.clock;
                slot.spec.record_write(addr, probe, value, now);
                self.masks.mark_write(self.p, addr);
            }
        }
    }
}
