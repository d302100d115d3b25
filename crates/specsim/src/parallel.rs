//! The real-thread speculative runtime: segments on OS threads.
//!
//! The event simulator ([`engine`](crate::engine)) interleaves segments on
//! the calling thread in simulated time. This module executes the same
//! region under the same speculation protocol, but *concurrently*: one OS
//! thread per simulated processor claims segments in program order and runs
//! them against shared state, so HOSE/CASE speedups can be measured with a
//! wall clock instead of a cycle model. Selected per run via
//! [`SpecRuntime::Threads`](crate::config::SpecRuntime).
//!
//! # Memory model
//!
//! The crate forbids `unsafe`, so all sharing goes through safe
//! primitives, all with sequentially consistent ordering:
//!
//! * **Non-speculative storage** is a `Vec<AtomicU64>` of `f64` bit
//!   patterns (`AtomicMemory`) — idempotent references and head
//!   write-throughs access it directly, commits drain into it.
//! * **Dependence masks** are two `Vec<AtomicU32>`s (a read mask and a
//!   write mask), one bit per processor per address word. They are the
//!   *authoritative* violation detector, which caps the runtime at
//!   [`MAX_THREADS`] processors.
//! * **Speculative storage** is one `Mutex<SpecBuffer>` per processor
//!   slot. Locks guard only buffer *contents*; the masks are probed
//!   lock-free first, so uncontended addresses never touch a peer's lock.
//!
//! The reader and writer sides form a Dekker-style handshake: a
//! speculative read marks its read-mask bit *before* probing the write
//! mask (then forwards from the youngest older writer's buffer, or falls
//! through to memory); a speculative write records its buffer entry, sets
//! its write-mask bit, and *then* scans the read mask for younger readers.
//! Under sequential consistency at least one side observes the other, so
//! every cross-segment flow dependence is either forwarded or flagged.
//!
//! # Squash, cascade and in-order commit
//!
//! Each slot carries a *squash generation* counter. A writer that finds a
//! younger reader bumps the victim's generation; the victim notices
//! between statements, discards its attempt and re-executes. Discarding is
//! where the protocol closes the stale-forward window: while still holding
//! its own buffer lock, the victim scans the read mask of every address it
//! had *written* and bumps any younger segment that read one — a
//! transitive cascade that squashes consumers of discarded values no
//! matter what data-dependent control flow forwarded them.
//!
//! Commits are strictly in segment order, driven by an atomic `head`
//! counter. A finished non-head segment spins (yielding) until it becomes
//! the head, re-checks its generation once (any legitimate bump is
//! ordered before `head` reaches it), then drains its dirty entries to
//! memory, retracts its mask bits, and advances `head`. Once a running
//! segment observes it *is* the head it performs the same final
//! generation check and thereafter ignores bumps — no older segment
//! exists, so its execution is definitionally sound; buffer overflow is
//! absorbed by reading/writing through to non-speculative storage exactly
//! as in the simulator. A non-head segment that overflows discards its
//! attempt (so peers cannot forward its poisoned values), stalls until it
//! becomes the head, and re-executes in head mode — the serialization
//! effect the paper describes, in real time.
//!
//! A worker panic (or statement-budget error) raises a shared abort flag
//! that every spin loop checks, so peers drain instead of hanging; the
//! coordinator captures the *first* failure and returns it as a typed
//! [`SimError`] — a panic becomes [`SimError::WorkerPanic`] with the
//! thread and segment identity attached instead of unwinding the calling
//! thread. Memory is only written back on success, so a failed region run
//! leaves the caller's memory untouched (which is what lets the run-level
//! pipeline degrade to a sequential re-execution without a snapshot).
//!
//! Deterministic fault injection ([`FaultPlan`](crate::FaultPlan)) hooks
//! into the protocol at the same points real misspeculation arises: an
//! injected violation bumps the victim's own squash generation (so the
//! ordinary generation-check path restarts it), an injected overflow sets
//! the attempt's overflow flag (so the ordinary discard-and-stall path
//! runs), and scheduler perturbation injects yields at the mask-probe,
//! commit and drain edges to shake out rare interleavings.
//!
//! Final memory is byte-identical to the simulated engine and the
//! sequential interpretation — the differential suite checks this at
//! several thread counts. Cycle fields of the report are zero (time is
//! real here); violation/rollback/stall tallies depend on the actual
//! interleaving, but their invariants (none on one thread, restarts
//! bounded by rollbacks plus stalls, peak occupancy within capacity) hold
//! on every schedule.

use crate::config::SimConfig;
use crate::fault::PerturbEdge;
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::Mutex;

/// Maximum processor count of the real-thread runtime: the per-address
/// dependence masks hold one bit per processor in an `AtomicU32`, and the
/// masks are load-bearing here (the simulator merely degrades to buffer
/// scans above the same width; a lock-free violation detector cannot).
pub const MAX_THREADS: usize = 32;

/// Slot `seg` value meaning "no segment in flight on this processor".
const IDLE: usize = usize::MAX;

/// Non-speculative storage shared by every worker: `f64` values as atomic
/// bit patterns, same indexing as [`Memory`].
struct AtomicMemory {
    words: Vec<AtomicU64>,
}

impl AtomicMemory {
    fn from_memory(memory: &Memory) -> Self {
        let words = (0..memory.len())
            .map(|w| AtomicU64::new(memory.load(Addr(w as u64)).to_bits()))
            .collect();
        AtomicMemory { words }
    }

    #[inline]
    fn load(&self, addr: Addr) -> f64 {
        f64::from_bits(self.words[addr.0 as usize].load(SeqCst))
    }

    #[inline]
    fn store(&self, addr: Addr, value: f64) {
        self.words[addr.0 as usize].store(value.to_bits(), SeqCst);
    }

    fn write_back(&self, memory: &mut Memory) {
        for (w, word) in self.words.iter().enumerate() {
            memory.store(Addr(w as u64), f64::from_bits(word.load(SeqCst)));
        }
    }
}

/// One processor slot: which segment occupies it, its squash generation,
/// and its speculative storage.
struct Slot {
    /// Segment index in flight on this slot, or [`IDLE`]. Written by the
    /// owning worker at claim/commit; read by peers (forwarding, violation
    /// checks, cascades) to order the occupant against themselves.
    seg: AtomicUsize,
    /// Squash generation. Peers bump it to request a restart; the owner
    /// samples it at attempt start and restarts when it moves.
    squash: AtomicU32,
    /// The slot's speculative storage. The lock guards contents only —
    /// every mutation (record, drain, clear) and every peer probe of
    /// *entries* happens under it; masks and the atomics above do not.
    spec: Mutex<SpecBuffer>,
}

/// Shared execution tallies, merged into the [`SimReport`]. Plain
/// counters use relaxed ordering — they never order the protocol.
#[derive(Default)]
struct Tallies {
    statements: AtomicU64,
    violations: AtomicU64,
    rollbacks: AtomicU64,
    overflow_stalls: AtomicU64,
    overflow_writethrough: AtomicU64,
    commits: AtomicU64,
    committed_entries: AtomicU64,
    spec_peak: AtomicUsize,
    max_restarts: AtomicU32,
    spec_reads: AtomicU64,
    spec_writes: AtomicU64,
    nonspec_reads: AtomicU64,
    nonspec_writes: AtomicU64,
    private_reads: AtomicU64,
    private_writes: AtomicU64,
    forwards: AtomicU64,
}

/// The first failure a worker hit; peers drain via `abort` and the
/// coordinator surfaces it on the calling thread.
enum Failure {
    Error(SimError),
    Panic {
        thread: usize,
        seg: usize,
        message: String,
    },
}

/// Everything the workers share.
struct Shared<'p> {
    cfg: &'p SimConfig,
    /// The labeling accesses route by: the region's under CASE, `None`
    /// under HOSE, where every site is speculative.
    labels: Option<&'p Labeling>,
    memory: AtomicMemory,
    read_mask: Vec<AtomicU32>,
    write_mask: Vec<AtomicU32>,
    slots: Vec<Slot>,
    /// Oldest uncommitted segment; commits advance it in order.
    head: AtomicUsize,
    /// Segment whose WHILE continuation check failed (`usize::MAX` until
    /// then): the region's dynamic end. Stored *before* the terminator's
    /// head advance, so any thread that observes `head > term` also
    /// observes `term` — segments beyond it discard without committing.
    term: AtomicUsize,
    /// Next segment to claim (monotonic program-order dispatch).
    next: AtomicUsize,
    /// Total number of segments.
    total: usize,
    /// Raised on any failure: every spin loop checks it and drains.
    abort: AtomicBool,
    failure: Mutex<Option<Failure>>,
    tallies: Tallies,
}

impl Shared<'_> {
    /// Records the first failure and raises the abort flag.
    fn fail(&self, failure: Failure) {
        let mut guard = self.failure.lock().expect("failure mutex");
        if guard.is_none() {
            *guard = Some(failure);
        }
        drop(guard);
        self.abort.store(true, SeqCst);
    }
}

/// The immutable region inputs workers execute against.
struct RegionCtx<'p> {
    vars: &'p VarTable,
    layout: &'p Layout,
    region: &'p LoopStmt,
    lowered: Option<&'p LoweredProc>,
    iter_values: &'p [i64],
}

/// Runs one region under the real-thread runtime and merges the tallies
/// into a report. Mirrors the simulator's `Engine::new(..).run()` contract:
/// `lowered` is the region body's compiled form (`None` tree-walks it), and
/// `memory` holds the live-in state and receives the final state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_region(
    cfg: &SimConfig,
    mode: ExecMode,
    labeling: &Labeling,
    vars: &VarTable,
    layout: &Layout,
    region: &LoopStmt,
    lowered: Option<&LoweredProc>,
    iter_values: Vec<i64>,
    memory: &mut Memory,
) -> Result<SimReport, SimError> {
    let processors = cfg.processors.max(1);
    if processors > MAX_THREADS {
        return Err(SimError::Region(format!(
            "the real-thread runtime supports at most {MAX_THREADS} processors \
             (the dependence masks hold one bit per processor), got {processors}"
        )));
    }
    let total = iter_values.len();
    let mut report = SimReport {
        mode: Some(mode),
        segments: total,
        ..Default::default()
    };
    if total == 0 {
        return Ok(report);
    }

    // Never spawn more workers than there are segments to claim.
    let threads = processors.min(total);
    let words = layout.total_words() as usize;
    let shared = Shared {
        cfg,
        labels: (mode == ExecMode::Case).then_some(labeling),
        memory: AtomicMemory::from_memory(memory),
        read_mask: (0..words).map(|_| AtomicU32::new(0)).collect(),
        write_mask: (0..words).map(|_| AtomicU32::new(0)).collect(),
        slots: (0..threads)
            .map(|_| Slot {
                seg: AtomicUsize::new(IDLE),
                squash: AtomicU32::new(0),
                spec: Mutex::new(SpecBuffer::new(cfg.spec_capacity, layout.total_words())),
            })
            .collect(),
        head: AtomicUsize::new(0),
        term: AtomicUsize::new(usize::MAX),
        next: AtomicUsize::new(0),
        total,
        abort: AtomicBool::new(false),
        failure: Mutex::new(None),
        tallies: Tallies::default(),
    };
    let ctx = RegionCtx {
        vars,
        layout,
        region,
        lowered,
        iter_values: &iter_values,
    };

    std::thread::scope(|scope| {
        for p in 0..threads {
            let shared = &shared;
            let ctx = &ctx;
            scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| worker(shared, ctx, p)));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(err)) => shared.fail(Failure::Error(err)),
                    Err(payload) => {
                        let message = if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "non-string panic payload".to_string()
                        };
                        let seg = shared.slots[p].seg.load(SeqCst);
                        shared.fail(Failure::Panic {
                            thread: p,
                            seg,
                            message,
                        });
                    }
                }
            });
        }
    });

    match shared.failure.into_inner().expect("failure mutex") {
        Some(Failure::Error(err)) => return Err(err),
        Some(Failure::Panic {
            thread,
            seg,
            message,
        }) => {
            return Err(SimError::WorkerPanic {
                thread,
                segment: (seg != IDLE).then_some(seg),
                segments: total,
                message,
            });
        }
        None => {}
    }

    shared.memory.write_back(memory);
    // A WHILE region that terminated early executed (and committed)
    // exactly the segments up to and including the terminator.
    let term = shared.term.load(SeqCst);
    if term != usize::MAX {
        report.segments = term + 1;
    }
    let t = &shared.tallies;
    report.statements = t.statements.load(SeqCst);
    report.violations = t.violations.load(SeqCst);
    report.rollbacks = t.rollbacks.load(SeqCst);
    report.overflow_stalls = t.overflow_stalls.load(SeqCst);
    report.overflow_writethrough = t.overflow_writethrough.load(SeqCst);
    report.max_segment_restarts = t.max_restarts.load(SeqCst);
    report.commits = t.commits.load(SeqCst);
    report.committed_entries = t.committed_entries.load(SeqCst);
    report.spec_peak_occupancy = t.spec_peak.load(SeqCst);
    report.spec_reads = t.spec_reads.load(SeqCst);
    report.spec_writes = t.spec_writes.load(SeqCst);
    report.nonspec_reads = t.nonspec_reads.load(SeqCst);
    report.nonspec_writes = t.nonspec_writes.load(SeqCst);
    report.private_reads = t.private_reads.load(SeqCst);
    report.private_writes = t.private_writes.load(SeqCst);
    report.forwards = t.forwards.load(SeqCst);
    Ok(report)
}

/// One worker: claims segments in program order and runs each to commit,
/// all on one executor that it restarts per segment.
fn worker(shared: &Shared<'_>, ctx: &RegionCtx<'_>, p: usize) -> Result<(), SimError> {
    let mut private = PrivateStore::new(ctx.layout.total_words());
    let bufs = ExecBuffers::default();
    let mut exec = AnyExec::segment(ctx.lowered, ctx.vars, ctx.layout, ctx.region, bufs);
    loop {
        if shared.abort.load(SeqCst) {
            return Ok(());
        }
        let seg = shared.next.fetch_add(1, SeqCst);
        if seg >= shared.total || past_termination(shared, seg) {
            return Ok(());
        }
        shared.slots[p].seg.store(seg, SeqCst);
        // Injected dispatch failures: a real panic on the worker thread
        // (exercising the catch_unwind + abort drain path end to end), or
        // a typed error that propagates through the failure channel.
        if shared.cfg.faults.worker_panic(seg) {
            panic!("injected segment fault");
        }
        if shared.cfg.faults.worker_error(seg) {
            return Err(SimError::Injected { segment: seg });
        }
        exec.restart(&[(ctx.region.index, ctx.iter_values[seg])]);
        run_segment(shared, p, seg, &mut exec, &mut private)?;
    }
}

/// True when an older segment's WHILE continuation check failed before
/// `seg`: this segment is beyond the region's dynamic end and must discard
/// its state without committing.
#[inline]
fn past_termination(shared: &Shared<'_>, seg: usize) -> bool {
    seg > shared.term.load(SeqCst)
}

/// Drops a beyond-termination segment: discard the attempt's speculative
/// state (cascading squashes to any younger reader, though those are being
/// dropped too) and idle the slot so the region can finish.
fn drop_past_termination(shared: &Shared<'_>, p: usize, seg: usize) {
    discard_attempt(shared, p, seg);
    shared.slots[p].seg.store(IDLE, SeqCst);
}

/// Tallies one squash-driven restart and enforces the governor's restart
/// and rollback budgets (the degradation ladder's first two rungs).
fn note_rollback(shared: &Shared<'_>, seg: usize, restarts: u32) -> Result<(), SimError> {
    let rollbacks = shared.tallies.rollbacks.fetch_add(1, Relaxed) + 1;
    shared.tallies.max_restarts.fetch_max(restarts, Relaxed);
    let gov = &shared.cfg.governor;
    if restarts > gov.max_segment_restarts {
        return Err(SimError::RestartBudget {
            segment: seg,
            restarts,
        });
    }
    if rollbacks > gov.max_region_rollbacks {
        return Err(SimError::RollbackBudget { rollbacks });
    }
    Ok(())
}

/// Tallies one overflow-driven restart. Overflow restarts count toward the
/// per-segment restart budget but not the region rollback budget (an
/// overflow stall is capacity pressure, not misspeculation).
fn note_overflow(shared: &Shared<'_>, seg: usize, restarts: u32) -> Result<(), SimError> {
    shared.tallies.overflow_stalls.fetch_add(1, Relaxed);
    shared.tallies.max_restarts.fetch_max(restarts, Relaxed);
    if restarts > shared.cfg.governor.max_segment_restarts {
        return Err(SimError::RestartBudget {
            segment: seg,
            restarts,
        });
    }
    Ok(())
}

/// A scheduler-perturbation point inside a drain/stall spin loop: when the
/// plan fires for this spin iteration, stretch the window with a short
/// sleep (a bare extra yield is invisible inside a loop that already
/// yields).
#[inline]
fn perturb_drain(shared: &Shared<'_>, seg: usize, spin: u64) {
    if shared.cfg.faults.perturb(PerturbEdge::Drain, seg, spin) {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

/// Runs one claimed segment to commit (or to a cooperative abort exit),
/// restarting attempts on squash bumps and overflow stalls. A WHILE
/// segment's first step is its continuation check; a failed check ends the
/// attempt's steps, and the in-order commit publishes the dynamic end.
fn run_segment(
    shared: &Shared<'_>,
    p: usize,
    seg: usize,
    exec: &mut AnyExec<'_>,
    private: &mut PrivateStore,
) -> Result<(), SimError> {
    let slot = &shared.slots[p];
    let perturb = shared.cfg.faults.perturb_active();
    let mut restarts: u32 = 0;
    // Livelock watchdog: statements this segment executed across all of
    // its attempts without reaching a commit.
    let mut seg_statements: u64 = 0;
    'attempt: loop {
        if shared.abort.load(SeqCst) {
            return Ok(());
        }
        // Sample the generation *before* cleaning state: any bump issued
        // up to this point is answered by this (fresh) attempt.
        let squash_seen = slot.squash.load(SeqCst);
        discard_attempt(shared, p, seg);
        private.clear();
        exec.reset();
        // Entering an attempt as the head needs no generation check: the
        // state is clean and no older segment exists, so pending bumps
        // are necessarily stale.
        let mut store = ParCtx {
            shared,
            p,
            seg,
            // The termination re-check closes the race where the head just
            // advanced past us *because* the previous segment terminated
            // the region — such a segment must never act as the head.
            head_mode: shared.head.load(SeqCst) == seg && !past_termination(shared, seg),
            private,
            overflow: false,
            events: 0,
        };
        // Fault injection rides the ordinary recovery paths: a forced
        // violation or spurious squash bumps the segment's own generation
        // (the generation check below restarts it), a forced overflow
        // poisons the attempt (the discard-and-stall path below runs).
        // The head is never injected — it models the oldest segment,
        // which real misspeculation cannot touch either.
        if !shared.cfg.faults.is_empty() && !store.head_mode {
            let faults = &shared.cfg.faults;
            if faults.force_violation(seg, restarts) {
                shared.tallies.violations.fetch_add(1, Relaxed);
                slot.squash.fetch_add(1, SeqCst);
            } else if faults.spurious_bump(seg, restarts) {
                slot.squash.fetch_add(1, SeqCst);
            } else if faults.force_overflow(seg, restarts) {
                store.overflow = true;
            }
        }
        loop {
            if shared.abort.load(SeqCst) {
                return Ok(());
            }
            if past_termination(shared, seg) {
                drop_past_termination(shared, p, seg);
                return Ok(());
            }
            if !store.head_mode {
                if slot.squash.load(SeqCst) != squash_seen {
                    restarts += 1;
                    note_rollback(shared, seg, restarts)?;
                    continue 'attempt;
                }
                if shared.head.load(SeqCst) == seg {
                    // Head handover: the head advanced to us — unless it
                    // advanced past a terminator, in which case we are
                    // beyond the region's dynamic end (the `term` store is
                    // ordered before the head advance, so this re-check
                    // cannot miss it).
                    if past_termination(shared, seg) {
                        drop_past_termination(shared, p, seg);
                        return Ok(());
                    }
                    // One final check (a legitimate bump is ordered before
                    // `head` reached us), then bumps are ignored — the
                    // head cannot be squashed.
                    if slot.squash.load(SeqCst) != squash_seen {
                        restarts += 1;
                        note_rollback(shared, seg, restarts)?;
                        continue 'attempt;
                    }
                    store.head_mode = true;
                }
            }
            let more = exec.step(&mut store).map_err(SimError::Exec)?;
            if shared.tallies.statements.fetch_add(1, Relaxed) + 1 > shared.cfg.max_statements {
                return Err(SimError::StatementBudgetExceeded);
            }
            seg_statements += 1;
            if seg_statements > shared.cfg.governor.livelock_statements {
                return Err(SimError::Livelock {
                    statements: seg_statements,
                });
            }
            if store.overflow {
                // Non-head overflow: discard (so peers cannot forward the
                // poisoned attempt), stall until head, re-run absorbed.
                restarts += 1;
                note_overflow(shared, seg, restarts)?;
                discard_attempt(shared, p, seg);
                let mut spin: u64 = 0;
                loop {
                    if shared.abort.load(SeqCst) {
                        return Ok(());
                    }
                    if past_termination(shared, seg) {
                        drop_past_termination(shared, p, seg);
                        return Ok(());
                    }
                    if shared.head.load(SeqCst) == seg {
                        break;
                    }
                    if perturb {
                        spin += 1;
                        perturb_drain(shared, seg, spin);
                    }
                    std::thread::yield_now();
                }
                continue 'attempt;
            }
            if !more {
                break;
            }
        }
        // Executed to completion. Wait (in order) to become the head,
        // then perform the final generation check and commit.
        if !store.head_mode {
            let mut spin: u64 = 0;
            loop {
                if shared.abort.load(SeqCst) {
                    return Ok(());
                }
                if past_termination(shared, seg) {
                    drop_past_termination(shared, p, seg);
                    return Ok(());
                }
                if slot.squash.load(SeqCst) != squash_seen {
                    restarts += 1;
                    note_rollback(shared, seg, restarts)?;
                    continue 'attempt;
                }
                if shared.head.load(SeqCst) == seg {
                    // Same termination re-check as the head handover: the
                    // head reaching us via a terminator's commit means we
                    // discard, not commit.
                    if past_termination(shared, seg) {
                        drop_past_termination(shared, p, seg);
                        return Ok(());
                    }
                    if slot.squash.load(SeqCst) != squash_seen {
                        restarts += 1;
                        note_rollback(shared, seg, restarts)?;
                        continue 'attempt;
                    }
                    break;
                }
                if perturb {
                    spin += 1;
                    perturb_drain(shared, seg, spin);
                }
                std::thread::yield_now();
            }
        }
        if perturb && shared.cfg.faults.perturb(PerturbEdge::Commit, seg, 0) {
            std::thread::yield_now();
        }
        commit(shared, p, seg, exec.exited());
        return Ok(());
    }
}

/// Discards the slot's current speculative state: cascades squashes to
/// younger readers of its dirty values, retracts its mask bits and clears
/// the buffer — all under the slot's own lock, so a peer probing entries
/// either sees the full attempt or none of it.
fn discard_attempt(shared: &Shared<'_>, p: usize, seg: usize) {
    let own_bit = 1u32 << p;
    let mut spec = shared.slots[p].spec.lock().expect("spec lock");
    shared.tallies.spec_peak.fetch_max(spec.peak(), Relaxed);
    // Cascade: any younger in-flight segment that performed an exposed
    // read of an address this attempt *wrote* may have forwarded the now-
    // discarded value — bump it so it re-executes against clean state.
    // (Transitively, its own discard repeats this for *its* dirty values.)
    for (addr, _) in spec.dirty() {
        let readers = shared.read_mask[addr.0 as usize].load(SeqCst) & !own_bit;
        let mut bits = readers;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let q_seg = shared.slots[q].seg.load(SeqCst);
            if q_seg != IDLE && q_seg > seg {
                shared.slots[q].squash.fetch_add(1, SeqCst);
            }
        }
    }
    for addr in spec.touched_addrs() {
        shared.read_mask[addr.0 as usize].fetch_and(!own_bit, SeqCst);
        shared.write_mask[addr.0 as usize].fetch_and(!own_bit, SeqCst);
    }
    spec.clear();
}

/// Commits the head segment occupying slot `p`: drains dirty entries to
/// memory, retracts mask bits, clears the buffer, marks the slot idle and
/// advances the head — in that order, so a reader that misses the write
/// bit finds the committed value in memory.
fn commit(shared: &Shared<'_>, p: usize, seg: usize, terminator: bool) {
    let own_bit = 1u32 << p;
    let mut spec = shared.slots[p].spec.lock().expect("spec lock");
    // Unsorted drain: an address has one entry per epoch, so store order
    // cannot change memory.
    let mut entries = 0u64;
    for (addr, value) in spec.dirty() {
        shared.memory.store(addr, value);
        entries += 1;
    }
    shared.tallies.committed_entries.fetch_add(entries, Relaxed);
    shared.tallies.spec_peak.fetch_max(spec.peak(), Relaxed);
    for addr in spec.touched_addrs() {
        shared.read_mask[addr.0 as usize].fetch_and(!own_bit, SeqCst);
        shared.write_mask[addr.0 as usize].fetch_and(!own_bit, SeqCst);
    }
    spec.clear();
    drop(spec);
    shared.slots[p].seg.store(IDLE, SeqCst);
    shared.tallies.commits.fetch_add(1, Relaxed);
    if terminator {
        // Publish the dynamic end *before* advancing the head: any thread
        // that observes the head past `seg` then also observes `term` (both
        // stores are SeqCst and program-ordered), so no younger segment can
        // mistake the advance for a normal handover and commit.
        shared.term.store(seg, SeqCst);
    }
    shared.head.store(seg + 1, SeqCst);
}

/// The per-attempt [`DataStore`] routing every reference by its label,
/// the real-time mirror of the simulator's `AccessCtx`.
struct ParCtx<'a, 'p> {
    shared: &'a Shared<'p>,
    p: usize,
    seg: usize,
    /// This segment is the head: reads need no tracking, overflow is
    /// absorbed by reading/writing through, squash bumps are stale.
    head_mode: bool,
    private: &'a mut PrivateStore,
    /// The attempt overflowed its buffer (non-head only). Subsequent
    /// references are poisoned no-ops; the segment loop discards and
    /// stalls after the current statement finishes.
    overflow: bool,
    /// Monotone count of this attempt's mask-probe events, the operand the
    /// perturbation plan hashes to decide where to inject a yield.
    events: u64,
}

impl ParCtx<'_, '_> {
    /// The label `site`'s access routes by.
    #[inline]
    fn label(&self, site: RefId) -> Label {
        self.shared
            .labels
            .map_or(Label::Speculative, |l| l.label(site))
    }

    /// Forwards from the youngest older in-flight segment holding a
    /// written entry for `addr`. Candidates come from the write mask;
    /// each is verified under its own lock (entry present *and* the slot
    /// still runs an older segment), so recycled slots and concurrent
    /// discards are filtered out.
    fn forward_from_ancestor(&self, addr: Addr) -> Option<f64> {
        let candidates = self.shared.write_mask[addr.0 as usize].load(SeqCst) & !(1u32 << self.p);
        if candidates == 0 {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        let mut bits = candidates;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let slot = &self.shared.slots[q];
            let spec = slot.spec.lock().expect("spec lock");
            let q_seg = slot.seg.load(SeqCst);
            if q_seg == IDLE || q_seg >= self.seg {
                continue;
            }
            if let Some(entry) = spec.get(addr).filter(|e| e.written) {
                if best.map_or(true, |(b, _)| q_seg > b) {
                    best = Some((q_seg, entry.value));
                }
            }
        }
        best.map(|(_, v)| v)
    }

    /// Writer-side violation check: scans the read mask for younger
    /// in-flight segments that already performed an exposed read of
    /// `addr` and bumps their squash generations. The mask is
    /// authoritative — a reader marks its bit before consuming a value,
    /// so a concurrent first-read is either ordered after this write (and
    /// forwards/reads the new value) or its bit is visible here.
    fn check_violations(&self, addr: Addr) {
        let readers = self.shared.read_mask[addr.0 as usize].load(SeqCst) & !(1u32 << self.p);
        if readers == 0 {
            return;
        }
        let mut hit = false;
        let mut bits = readers;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let q_seg = self.shared.slots[q].seg.load(SeqCst);
            if q_seg != IDLE && q_seg > self.seg {
                self.shared.slots[q].squash.fetch_add(1, SeqCst);
                hit = true;
            }
        }
        if hit {
            self.shared.tallies.violations.fetch_add(1, Relaxed);
        }
    }

    fn speculative_read(&mut self, addr: Addr) -> f64 {
        let t = &self.shared.tallies;
        t.spec_reads.fetch_add(1, Relaxed);
        // Own buffer first — a hit (prior write or tracked read) is not a
        // new exposed read. The one probe also places the insert below:
        // only this thread changes its own buffer, so the probe stays
        // valid while the lock is released.
        let probe = {
            let spec = self.shared.slots[self.p].spec.lock().expect("spec lock");
            let probe = spec.probe(addr);
            if let Some(entry) = spec.entry(probe) {
                return entry.value;
            }
            if probe == Probe::Full {
                if self.head_mode {
                    // The head absorbs overflow by reading through.
                    t.overflow_writethrough.fetch_add(1, Relaxed);
                    drop(spec);
                    return self.shared.memory.load(addr);
                }
                drop(spec);
                self.overflow = true;
                return self.shared.memory.load(addr);
            }
            probe
        };
        if self.overflow {
            // Poisoned attempt: keep the statement running without
            // tracking; the value is discarded with the attempt.
            return self.shared.memory.load(addr);
        }
        if self.head_mode {
            // No older segment exists: read memory (plus own buffer,
            // checked above) and track the entry so re-reads hit locally.
            let value = self.shared.memory.load(addr);
            let mut spec = self.shared.slots[self.p].spec.lock().expect("spec lock");
            spec.record_exposed_read(addr, probe, value, 0);
            return value;
        }
        // Dekker, reader side: publish the read intent *before* probing
        // for writers, so a concurrent older write either forwards to us
        // or sees our bit and squashes us. The window between publishing
        // the bit and probing is the protocol's most delicate edge — the
        // perturbation plan widens it with an injected yield.
        self.shared.read_mask[addr.0 as usize].fetch_or(1u32 << self.p, SeqCst);
        self.events += 1;
        if self
            .shared
            .cfg
            .faults
            .perturb(PerturbEdge::MaskProbe, self.seg, self.events)
        {
            std::thread::yield_now();
        }
        let value = match self.forward_from_ancestor(addr) {
            Some(v) => {
                t.forwards.fetch_add(1, Relaxed);
                v
            }
            None => self.shared.memory.load(addr),
        };
        let mut spec = self.shared.slots[self.p].spec.lock().expect("spec lock");
        spec.record_exposed_read(addr, probe, value, 0);
        value
    }

    fn speculative_write(&mut self, addr: Addr, value: f64) {
        let t = &self.shared.tallies;
        t.spec_writes.fetch_add(1, Relaxed);
        if self.overflow {
            return;
        }
        {
            let mut spec = self.shared.slots[self.p].spec.lock().expect("spec lock");
            let probe = spec.probe(addr);
            if probe == Probe::Full {
                drop(spec);
                if self.head_mode {
                    // The head absorbs overflow by writing through:
                    // memory first, then the violation scan (Dekker,
                    // writer side), so a reader missing the mask bit
                    // reads the new value.
                    t.overflow_writethrough.fetch_add(1, Relaxed);
                    self.shared.memory.store(addr, value);
                    self.check_violations(addr);
                } else {
                    self.overflow = true;
                }
                return;
            }
            // Dekker, writer side: record the entry (so a reader that sees
            // the bit finds the value), publish the write bit, then scan
            // for younger readers that got ahead of us.
            spec.record_write(addr, probe, value, 0);
        }
        self.shared.write_mask[addr.0 as usize].fetch_or(1u32 << self.p, SeqCst);
        self.check_violations(addr);
    }
}

impl DataStore for ParCtx<'_, '_> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        match self.label(site) {
            Label::Speculative => self.speculative_read(addr),
            Label::Idempotent(IdemCategory::Private) => {
                self.shared.tallies.private_reads.fetch_add(1, Relaxed);
                self.private
                    .get(addr)
                    .unwrap_or_else(|| self.shared.memory.load(addr))
            }
            Label::Idempotent(_) => {
                self.shared.tallies.nonspec_reads.fetch_add(1, Relaxed);
                self.shared.memory.load(addr)
            }
        }
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        match self.label(site) {
            Label::Speculative => self.speculative_write(addr, value),
            Label::Idempotent(IdemCategory::Private) => {
                self.shared.tallies.private_writes.fetch_add(1, Relaxed);
                self.private.insert(addr, value);
            }
            Label::Idempotent(_) => {
                self.shared.tallies.nonspec_writes.fetch_add(1, Relaxed);
                if self.overflow {
                    return;
                }
                // Idempotent write-through: memory first, then the
                // violation scan (same Dekker ordering as the head's
                // overflow write-through). Re-execution after a squash
                // repeats the store — safe by the idempotency labeling.
                self.shared.memory.store(addr, value);
                self.check_violations(addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SpecRuntime;
    use crate::fault::FaultPlan;
    use crate::run::{simulate_region, verify_against_sequential, ExecMode, SimError};
    use crate::SimConfig;
    use refidem_core::label::label_program_region_by_name;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};
    use refidem_ir::program::Program;

    /// do k = 2, 33:  a(k) = a(k-1) + b(k)   — a cross-segment flow
    /// dependence chain, the adversarial case for real concurrency.
    fn recurrence_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[40]);
        let bb = b.array("b", &[40]);
        let k = b.index("k");
        b.live_out(&[a]);
        let rhs = add(
            b.load_elem(a, vec![av(k) - ac(1)]),
            b.load_elem(bb, vec![av(k)]),
        );
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let region = b.do_loop_labeled("REC", k, ac(2), ac(33), vec![s]);
        let mut p = Program::new("recurrence");
        p.add_procedure(b.build(vec![region]));
        p
    }

    /// An independent-per-iteration reduction with a large per-segment
    /// footprint: overflows small speculative storage under HOSE, and its
    /// accumulator is labeled private under CASE.
    fn wide_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let src = b.array("src", &[20 * 40]);
        let dst = b.array("dst", &[40]);
        let acc = b.scalar("acc");
        let k = b.index("k");
        let j = b.index("j");
        b.live_out(&[dst]);
        let init = b.assign_scalar(acc, num(0.0));
        let src_sub = refidem_ir::affine::AffineExpr::scaled_var(k, 20) + av(j) - ac(20);
        let rhs = add(b.load(acc), b.load_elem(src, vec![src_sub]));
        let body_stmt = b.assign_scalar(acc, rhs);
        let inner = b.do_loop(j, ac(1), ac(20), vec![body_stmt]);
        let rhs2 = b.load(acc);
        let fin = b.assign_elem(dst, vec![av(k)], rhs2);
        let region = b.do_loop_labeled("WIDE", k, ac(1), ac(40), vec![init, inner, fin]);
        let mut p = Program::new("wide");
        p.add_procedure(b.build(vec![region]));
        p
    }

    /// A bounded-WHILE region: `s` accumulates hash-initialized array
    /// values (mean ≈ 2) until it exceeds 6, so the dynamic trip count is
    /// 3–4 out of a counted cap of 64 — segments beyond the terminator
    /// must be discarded by both runtimes.
    fn while_program() -> Program {
        use refidem_ir::build::cmp;
        use refidem_ir::expr::CmpOp;
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[64]);
        let s = b.scalar("s");
        let k = b.index("k");
        b.live_out(&[a, s]);
        let cond = cmp(CmpOp::Le, b.load(s), num(6.0));
        let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
        let s1 = b.assign_scalar(s, rhs);
        let rhs2 = b.load(s);
        let s2 = b.assign_elem(a, vec![av(k)], rhs2);
        let region = b.while_loop_labeled("WH", k, ac(1), ac(64), cond, vec![s1, s2]);
        let mut p = Program::new("while_region");
        p.add_procedure(b.build(vec![region]));
        p
    }

    #[test]
    fn while_region_terminates_early_and_matches_sequential_on_both_runtimes() {
        let p = while_program();
        let labeled = label_program_region_by_name(&p, "WH").unwrap();
        for mode in [ExecMode::Hose, ExecMode::Case] {
            for threads in [1usize, 2, 8] {
                for capacity in [1usize, 4, 256] {
                    for runtime in [SpecRuntime::Simulated, SpecRuntime::Threads] {
                        let mut cfg = SimConfig::default().processors(threads).capacity(capacity);
                        cfg.runtime = runtime;
                        let diffs = verify_against_sequential(&p, &labeled, mode, &cfg).unwrap();
                        assert!(
                            diffs.is_empty(),
                            "{mode} {runtime:?} threads={threads} cap={capacity}: {diffs:?}"
                        );
                        let out = simulate_region(&p, &labeled, mode, &cfg).unwrap();
                        let r = &out.report;
                        if r.degraded.is_none() {
                            assert!(
                                r.segments < 64,
                                "{mode} {runtime:?} t={threads} c={capacity}: \
                                 dynamic trip count must undercut the counted cap, \
                                 got {} segments",
                                r.segments
                            );
                            assert_eq!(r.commits as usize, r.segments);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threads_runtime_matches_sequential_at_several_thread_counts() {
        for (p, name) in [(recurrence_program(), "REC"), (wide_program(), "WIDE")] {
            let labeled = label_program_region_by_name(&p, name).unwrap();
            for mode in [ExecMode::Hose, ExecMode::Case] {
                for threads in [1usize, 2, 8] {
                    let cfg = SimConfig::default().processors(threads).threads();
                    let diffs = verify_against_sequential(&p, &labeled, mode, &cfg).unwrap();
                    assert!(
                        diffs.is_empty(),
                        "{mode} on {threads} thread(s) must match sequential: {diffs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_walk_backend_runs_on_threads_too() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default().processors(4).oracle().threads();
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(diffs.is_empty(), "oracle backend must match: {diffs:?}");
    }

    #[test]
    fn one_thread_never_violates_and_reports_real_time_semantics() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default().processors(1).threads();
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        let r = &out.report;
        assert_eq!(r.violations, 0, "one thread cannot conflict with itself");
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.overflow_stalls, 0, "a lone segment is always the head");
        assert_eq!(r.commits as usize, r.segments);
        assert_eq!(
            r.region_cycles, 0,
            "the real-thread runtime reports no simulated cycles"
        );
        assert_eq!(r.mode, Some(ExecMode::Hose));
    }

    #[test]
    fn report_invariants_hold_under_real_contention() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default().processors(8).threads();
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        let r = &out.report;
        assert_eq!(r.commits as usize, r.segments);
        assert!(
            u64::from(r.max_segment_restarts) <= r.rollbacks + r.overflow_stalls,
            "every restart is paid for by a rollback or an overflow stall \
             (max {} vs {} + {})",
            r.max_segment_restarts,
            r.rollbacks,
            r.overflow_stalls
        );
        assert!(
            r.spec_peak_occupancy <= cfg.spec_capacity,
            "occupancy must respect the capacity bound"
        );
    }

    #[test]
    fn the_head_absorbs_overflow_by_writing_through() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        // Each iteration touches ~22 distinct addresses; capacity 8 cannot
        // hold a segment, so every segment finishes in head mode via
        // write-throughs (stall counts depend on the live interleaving).
        let cfg = SimConfig::default().processors(4).capacity(8).threads();
        let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(out.report.overflow_writethrough > 0);
        let diffs = verify_against_sequential(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
        assert!(
            diffs.is_empty(),
            "overflow handling must stay exact: {diffs:?}"
        );
    }

    #[test]
    fn more_processors_than_mask_bits_is_an_error() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default().processors(33).threads();
        match simulate_region(&p, &labeled, ExecMode::Hose, &cfg) {
            Err(SimError::Region(msg)) => {
                assert!(msg.contains("33"), "message names the count: {msg}")
            }
            other => panic!("expected a region error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_defaults_to_the_simulator() {
        assert_eq!(SimConfig::default().runtime, SpecRuntime::Simulated);
        assert_eq!(SimConfig::default().threads().runtime, SpecRuntime::Threads);
    }

    #[test]
    fn a_worker_panic_surfaces_as_a_typed_error_with_segment_identity() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default()
            .processors(4)
            .threads()
            .faults(FaultPlan::seeded(0).panic_at(5));
        match simulate_region(&p, &labeled, ExecMode::Hose, &cfg) {
            Err(SimError::WorkerPanic {
                segment, message, ..
            }) => {
                assert_eq!(segment, Some(5), "the panicking segment is identified");
                assert!(
                    message.contains("injected segment fault"),
                    "the payload survives: {message}"
                );
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
    }

    #[test]
    fn an_injected_worker_error_propagates_without_unwinding() {
        let p = recurrence_program();
        let labeled = label_program_region_by_name(&p, "REC").unwrap();
        let cfg = SimConfig::default()
            .processors(4)
            .threads()
            .faults(FaultPlan::seeded(0).error_at(3));
        match simulate_region(&p, &labeled, ExecMode::Hose, &cfg) {
            Err(SimError::Injected { segment }) => assert_eq!(segment, 3),
            other => panic!("expected the injected error, got {other:?}"),
        }
    }

    /// Satellite (c): a worker panics while peers are parked in the
    /// capacity-1 overflow-stall loop — the abort flag must drain every
    /// stalled thread (no hang) and the *head's* panic identity must
    /// survive the drain. Perturbation widens the race window.
    #[test]
    fn abort_drains_overflow_stalls_when_the_head_panics() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        let cfg = SimConfig::default()
            .processors(4)
            .capacity(1)
            .threads()
            .faults(FaultPlan::seeded(11).panic_at(0).perturb_rate(1000));
        match simulate_region(&p, &labeled, ExecMode::Hose, &cfg) {
            Err(SimError::WorkerPanic { segment, .. }) => assert_eq!(segment, Some(0)),
            other => panic!("expected the head's panic identity, got {other:?}"),
        }
    }

    /// Satellite (c), non-head variant: the panicking segment is itself a
    /// candidate for the overflow stall when it is claimed, so the drain
    /// races the stall loop from the other side.
    #[test]
    fn abort_drains_overflow_stalls_when_a_non_head_worker_panics() {
        let p = wide_program();
        let labeled = label_program_region_by_name(&p, "WIDE").unwrap();
        let cfg = SimConfig::default()
            .processors(4)
            .capacity(1)
            .threads()
            .faults(FaultPlan::seeded(12).panic_at(6).perturb_rate(1000));
        match simulate_region(&p, &labeled, ExecMode::Hose, &cfg) {
            Err(SimError::WorkerPanic { segment, .. }) => assert_eq!(segment, Some(6)),
            other => panic!("expected the non-head panic identity, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_leave_results_byte_exact_on_threads() {
        for (p, name) in [(recurrence_program(), "REC"), (wide_program(), "WIDE")] {
            let labeled = label_program_region_by_name(&p, name).unwrap();
            for mode in [ExecMode::Hose, ExecMode::Case] {
                for threads in [2usize, 8] {
                    let cfg = SimConfig::default().processors(threads).threads().faults(
                        FaultPlan::seeded(99)
                            .violation_rate(200)
                            .overflow_rate(120)
                            .squash_rate(150),
                    );
                    let diffs = verify_against_sequential(&p, &labeled, mode, &cfg).unwrap();
                    assert!(
                        diffs.is_empty(),
                        "{mode} on {threads} thread(s) under injection must match: {diffs:?}"
                    );
                }
            }
        }
    }

    /// A region whose *first* segment does ~4000 statements while the
    /// rest are nearly empty: the head stays busy long enough that the
    /// non-head claimants demonstrably run concurrently with it (real
    /// thread interleaving is otherwise free to serialize tiny regions).
    fn slow_head_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[10]);
        let bb = b.array("b", &[2010]);
        let acc = b.scalar("acc");
        let k = b.index("k");
        let j = b.index("j");
        b.live_out(&[a]);
        let init = b.assign_scalar(acc, num(0.0));
        let rhs = add(b.load(acc), b.load_elem(bb, vec![av(j)]));
        let body_stmt = b.assign_scalar(acc, rhs);
        // Upper bound 4002 - 2000k: segment k=1 runs 2002 inner
        // iterations, k=2 runs two, later segments none.
        let upper = ac(4002) - refidem_ir::affine::AffineExpr::scaled_var(k, 2000);
        let inner = b.do_loop(j, ac(1), upper, vec![body_stmt]);
        let rhs2 = add(b.load_elem(a, vec![av(k) - ac(1)]), b.load(acc));
        let fin = b.assign_elem(a, vec![av(k)], rhs2);
        let region = b.do_loop_labeled("SLOW", k, ac(1), ac(6), vec![init, inner, fin]);
        let mut p = Program::new("slow_head");
        p.add_procedure(b.build(vec![region]));
        p
    }

    #[test]
    fn a_hundred_percent_misspeculation_degrades_to_serial_and_stays_exact() {
        let p = slow_head_program();
        let labeled = label_program_region_by_name(&p, "SLOW").unwrap();
        let cfg = SimConfig::default()
            .processors(2)
            .threads()
            .faults(FaultPlan::seeded(5).violation_rate(1000))
            .restart_budget(0);
        // Degradation needs a non-head claimant (injection never touches
        // the head); the slow head makes that overlap likely per run, but
        // a single-core scheduler is free to serialize the claims, so it
        // takes a few hundred sub-millisecond attempts to make the overlap
        // certain enough for CI. Exactness must hold on every run,
        // degraded or not.
        let mut degraded = false;
        for _ in 0..300 {
            let out = simulate_region(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
            let diffs = verify_against_sequential(&p, &labeled, ExecMode::Hose, &cfg).unwrap();
            assert!(
                diffs.is_empty(),
                "serial fallback must stay exact: {diffs:?}"
            );
            if out.report.degraded.is_some() {
                degraded = true;
                break;
            }
        }
        assert!(
            degraded,
            "a fully misspeculating region must fall back to serial"
        );
    }
}
