//! The fused execution tier: trace-fused superinstructions, with
//! constant-small-trip loops peeled.
//!
//! [`fuse`] compiles plain lowered bytecode (see the parent
//! [`lowered`](crate::lowered) module) in one walk over it that peels,
//! merges and places advance-and-load as it emits:
//!
//! * **Peel** — loops whose bounds are compile-time constants (possibly
//!   after folding an enclosing peeled index) with at most
//!   [`UNROLL_LIMIT`] trips are unrolled into straight-line copies of
//!   their body. Each copy folds the induction value into `RIndex` reads
//!   and provably-in-bounds affine addresses (often all the way down to
//!   compile-time `RefPlan::Scalar` addresses); a `PeelEnter` / `Rebind`
//!   per copy keeps the environment binding exact, so any plan that is
//!   *not* folded — `Dim1`, `General` (including indirect subscripts),
//!   inner-loop bounds — still evaluates bit-identically. Zero-trip loops
//!   become a single `PeelNop`; WHILE loops are never peeled.
//! * **Superinstruction merge** — every instruction the walk emits folds
//!   into the last one emitted while a rule applies, so chains compose:
//!   load-op, const-op, load-const-op, op-store, load-op-store,
//!   load-store, const-store, the two-rounding multiply-add, and — built
//!   from those — the whole-statement `s = a op (b opb v)` form that
//!   retires a two-term assignment in a single dispatch. A *fence* holds
//!   the output position of the latest control-transfer target (a branch
//!   target, a cloned loop's body or its exit); nothing at or before it
//!   folds backwards, so merging never crosses a jump target. Merging
//!   never touches a `General`-plan reference, so indirect subscripts
//!   always take the unfused no-shortcut path.
//! * **Forward landing** — structured lowering branches only forward, to
//!   a position inside the enclosing range, so the walk keeps the emitted
//!   branches that have not landed yet. On reaching a branch's base
//!   target it points the branch at the next output position and raises
//!   the fence there. A branch to the end of a peeled copy lands on the
//!   next copy's `Rebind`, or on whatever follows the loop.
//! * **Advance-and-load** — when a cloned loop closes with a straight-line
//!   body, the first standalone load through each induction address
//!   register the loop owns is fused with the register's per-trip advance
//!   (`RAdvLoad`), moving the advance off the `LoopBack` edge.
//!
//! The walk preserves the lowered tier's observable semantics exactly:
//! identical memory effects, access order (traces), dynamic counts, step
//! counting and error behavior — `backend_differential` in
//! `refidem-testkit` proves plain and fused bytecode byte-exact with the
//! tree-walking oracle across the whole generated corpus and every named
//! benchmark.

use super::{AffinePlan, Inst, LoopPlan, LoweredProc, RefPlan};
use crate::expr::BinOp;
use crate::stmt::LoopStmt;

/// Largest constant trip count the walk fully unrolls.
pub const UNROLL_LIMIT: usize = 4;

/// Compiles plain lowered bytecode into the fused tier. The result runs on
/// the same [`LoweredSegmentExec`](super::LoweredSegmentExec) with the
/// identical resumable step/rollback contract.
pub fn fuse(base: &LoweredProc) -> LoweredProc {
    let end = base.insts.len() - 1;
    debug_assert!(matches!(base.insts[end], Inst::End));
    let mut w = Walk {
        base,
        insts: Vec::with_capacity(base.insts.len()),
        fence: 0,
        unlanded: Vec::new(),
        refs: base.refs.clone(),
        loops: Vec::new(),
        peeled_regs: Vec::new(),
        subst: Subst::new(),
        loop_map: Vec::new(),
    };
    w.emit_range(0, end);
    debug_assert!(w.unlanded.is_empty(), "every branch lands in its range");
    w.push(Inst::End);
    // The unit is cached and replayed for as long as its key lives.
    w.insts.shrink_to_fit();
    LoweredProc {
        insts: w.insts,
        refs: w.refs,
        loops: w.loops,
        addr_regs: base.addr_regs.clone(),
        env_len: base.env_len,
        max_stack: base.max_stack,
        max_loops: base.max_loops,
    }
}

/// A peel-time substitution entry: `Some(value)` binds an index slot to a
/// peeled constant; `None` masks the slot (a non-peeled loop rebinds it,
/// shadowing any outer peeled binding). Lookup is innermost-first.
type Subst = Vec<(u32, Option<i64>)>;

fn lookup(subst: &[(u32, Option<i64>)], slot: u32) -> Option<i64> {
    subst
        .iter()
        .rev()
        .find(|(s, _)| *s == slot)
        .and_then(|&(_, v)| v)
}

/// Folds every substituted slot of an affine plan into its constant term.
fn fold_plan(ap: &AffinePlan, subst: &[(u32, Option<i64>)]) -> AffinePlan {
    let mut out = AffinePlan::constant(ap.constant);
    for &(v, c) in &ap.terms {
        match lookup(subst, v.0) {
            Some(value) => out.constant += c * value,
            None => out.terms.add(v, c),
        }
    }
    out
}

/// The one walk: the fused unit emitted so far, plus what emitting the
/// rest of it exactly needs.
struct Walk<'a> {
    base: &'a LoweredProc,
    insts: Vec<Inst>,
    /// Output position of the latest control-transfer target. The
    /// instruction there never folds into the one before it.
    fence: usize,
    /// Emitted branches and jumps that have not landed yet, as (base
    /// target, output position).
    unlanded: Vec<(u32, usize)>,
    refs: Vec<RefPlan>,
    loops: Vec<LoopPlan>,
    /// Induction address registers owned by peeled loops. Their `LoopEnter`
    /// / `LoopBack` maintenance disappears with the loop, so every
    /// reference through them **must** be folded to its closed form.
    peeled_regs: Vec<u32>,
    subst: Subst,
    /// Enclosing cloned loops' plan indices, old → new, for `RWhileBranch`
    /// operands.
    loop_map: Vec<(u32, u32)>,
}

impl Walk<'_> {
    /// Emits `inst`, folding it into the last emitted instruction while a
    /// merge rule applies, never back across the fence.
    fn push(&mut self, mut inst: Inst) {
        while self.insts.len() > self.fence {
            let last = self.insts[self.insts.len() - 1];
            let Some(merged) = try_merge(last, inst, &self.refs) else {
                break;
            };
            self.insts.pop();
            inst = merged;
        }
        self.insts.push(inst);
    }

    /// Points the branches that target base position `at` at the next
    /// output position, and raises the fence there.
    fn land(&mut self, at: usize) {
        let here = self.insts.len();
        let before = self.unlanded.len();
        self.unlanded.retain(|&(target, pos)| {
            if target as usize != at {
                return true;
            }
            match &mut self.insts[pos] {
                Inst::RBranch { target: t, .. } | Inst::Jump(t) => *t = here as u32,
                other => unreachable!("landing {other:?}"),
            }
            false
        });
        if self.unlanded.len() < before {
            self.fence = here;
        }
    }

    /// Folds the peeled-constant bindings into reference `r`'s plan,
    /// returning the (possibly new) ref index the emitted copy should use.
    ///
    /// Only provably-in-bounds plans fold (`Fused` → fewer terms, possibly
    /// a compile-time `Scalar`; `Induction` owned by a peeled loop → its
    /// folded closed form). `Dim1` and `General` plans — the clamped and
    /// indirect-subscript paths — are left untouched and keep evaluating
    /// through the environment, which `PeelEnter`/`Rebind` maintain.
    fn fold_ref(&mut self, r: u32) -> u32 {
        if self.subst.is_empty() {
            return r;
        }
        let plan = match &self.base.refs[r as usize] {
            RefPlan::Fused { plan, .. }
                if plan
                    .terms
                    .iter()
                    .any(|(v, _)| lookup(&self.subst, v.0).is_some()) =>
            {
                fold_plan(plan, &self.subst)
            }
            RefPlan::Induction { reg, .. } if self.peeled_regs.contains(reg) => {
                fold_plan(&self.base.addr_regs[*reg as usize].closed, &self.subst)
            }
            _ => return r,
        };
        let site = self.base.refs[r as usize].site();
        self.refs.push(if plan.terms.is_empty() {
            debug_assert!(plan.constant >= 0, "in-bounds proof guarantees the address");
            RefPlan::Scalar {
                site,
                addr: plan.constant as u64,
            }
        } else {
            RefPlan::Fused { site, plan }
        });
        self.refs.len() as u32 - 1
    }

    /// Emits base instructions `[start, end)`, peeling eligible loops and
    /// folding the substitution into index reads and foldable reference
    /// plans. Every branch the range emits targets a position in
    /// `(start, end]`, so it lands before the range returns.
    fn emit_range(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            self.land(i);
            let inst = self.base.insts[i];
            match inst {
                Inst::LoopEnter(l) => {
                    let (next, rebound) = self.emit_loop(l);
                    // A nested loop that can execute at least one trip
                    // leaves its index bound to its own last trip value:
                    // any peeled-constant binding of the same slot is
                    // stale for the rest of this range (conservatively so
                    // — the loop may sit behind a branch), so mask it and
                    // let the environment carry the value.
                    if let Some(slot) = rebound {
                        for e in self.subst.iter_mut().filter(|e| e.0 == slot) {
                            e.1 = None;
                        }
                    }
                    i = next;
                    continue;
                }
                Inst::RBranch { target, .. } | Inst::Jump(target) => {
                    debug_assert!((i + 1..=end).contains(&(target as usize)));
                    // No merge rule takes a branch, so it stays where pushed.
                    self.unlanded.push((target, self.insts.len()));
                    self.push(inst);
                }
                Inst::RIndex { dst, slot } => match lookup(&self.subst, slot) {
                    Some(v) => self.push(Inst::RConst { dst, v: v as f64 }),
                    None => self.push(inst),
                },
                Inst::RLoad { dst, r } => {
                    let r = self.fold_ref(r);
                    self.push(Inst::RLoad { dst, r });
                }
                Inst::RStore { r, src } => {
                    let r = self.fold_ref(r);
                    self.push(Inst::RStore { r, src });
                }
                Inst::RWhileBranch { l, src } => {
                    let l = self
                        .loop_map
                        .iter()
                        .rev()
                        .find(|(o, _)| *o == l)
                        .map(|&(_, n)| n)
                        .expect("WHILE loop cloned by an enclosing emit_loop");
                    self.push(Inst::RWhileBranch { l, src });
                }
                Inst::LoopBack(_) => unreachable!("LoopBack is emitted by emit_loop"),
                _ => self.push(inst),
            }
            i += 1;
        }
        self.land(end);
    }

    /// Emits loop plan `l` (peeled or cloned), returning the base position
    /// just past the loop plus the index slot the emitted loop may rebind
    /// at runtime (`None` only for a statically zero-trip peeled loop,
    /// which binds nothing).
    fn emit_loop(&mut self, l: u32) -> (usize, Option<u32>) {
        let base = self.base;
        let plan = &base.loops[l as usize];
        let body = plan.body as usize;
        let exit = plan.exit as usize;
        let back = exit - 1;
        debug_assert!(matches!(base.insts[back], Inst::LoopBack(x) if x == l));
        let lower = fold_plan(&plan.lower, &self.subst);
        let upper = fold_plan(&plan.upper, &self.subst);
        let is_while = (body..back)
            .any(|p| matches!(base.insts[p], Inst::RWhileBranch { l: x, .. } if x == l));
        let peeled_trips = (!is_while && lower.terms.is_empty() && upper.terms.is_empty())
            .then(|| LoopStmt::trip_count(lower.constant, upper.constant, plan.step))
            .filter(|&trips| trips <= UNROLL_LIMIT);
        let Some(trips) = peeled_trips else {
            let nl = self.loops.len() as u32;
            self.loops.push(LoopPlan {
                index_slot: plan.index_slot,
                lower,
                upper,
                step: plan.step,
                body: 0,
                exit: 0,
                regs: plan.regs.clone(),
                pre_regs: Box::new([]),
            });
            self.push(Inst::LoopEnter(nl));
            // `LoopBack` jumps to the body's first instruction.
            self.fence = self.insts.len();
            let new_body = self.fence;
            self.loop_map.push((l, nl));
            // The clone rebinds its index per trip: mask any outer peeled
            // binding of the same slot while emitting the body.
            self.subst.push((plan.index_slot, None));
            self.emit_range(body, back);
            self.subst.pop();
            self.loop_map.pop();
            let new_back = self.insts.len();
            self.push(Inst::LoopBack(nl));
            // The exit is where `LoopEnter` and `LoopBack` leave to.
            self.fence = self.insts.len();
            let p = &mut self.loops[nl as usize];
            p.body = new_body as u32;
            p.exit = self.fence as u32;
            self.advance_loads(nl as usize, new_body..new_back);
            return (exit, Some(plan.index_slot));
        };
        if trips == 0 {
            // A peeled zero-trip loop binds nothing (matching LoopEnter)
            // and still costs exactly one statement unit.
            self.push(Inst::PeelNop);
            return (exit, None);
        }
        // The loop's LoopEnter/LoopBack maintenance disappears, so every
        // register it owned must fold to its closed form from here on.
        for &r in plan.regs.iter() {
            if !self.peeled_regs.contains(&r) {
                self.peeled_regs.push(r);
            }
        }
        let slot = plan.index_slot;
        let mut value = lower.constant;
        for trip in 0..trips {
            if trip == 0 {
                self.push(Inst::PeelEnter { slot, value });
            } else {
                self.push(Inst::Rebind { slot, value });
            }
            self.subst.push((slot, Some(value)));
            self.emit_range(body, back);
            self.subst.pop();
            value += plan.step;
        }
        (exit, Some(slot))
    }

    /// Advance-and-load over cloned loop `l`'s emitted `body`: when it is
    /// straight-line, each owned register's first standalone induction
    /// load becomes an [`Inst::RAdvLoad`], and the register moves from the
    /// loop's `regs` (advanced at `LoopBack`) to `pre_regs` (initialized
    /// one delta early, advanced by that load). Straight-line means every
    /// body instruction executes exactly once per trip, so the advance
    /// count stays exact even when the body holds peeled copies that share
    /// the register's ref across copies.
    fn advance_loads(&mut self, l: usize, body: std::ops::Range<usize>) {
        let plan = &mut self.loops[l];
        let body = &mut self.insts[body];
        let branches = |i: &Inst| {
            matches!(
                i,
                Inst::RBranch { .. }
                    | Inst::Jump(_)
                    | Inst::LoopEnter(_)
                    | Inst::LoopBack(_)
                    | Inst::RWhileBranch { .. }
            )
        };
        if plan.regs.is_empty() || body.iter().any(branches) {
            return;
        }
        let mut moved: Vec<u32> = Vec::new();
        for inst in body {
            if let Inst::RLoad { dst, r } = *inst {
                if let RefPlan::Induction { reg, .. } = self.refs[r as usize] {
                    if plan.regs.contains(&reg) && !moved.contains(&reg) {
                        *inst = Inst::RAdvLoad { dst, r };
                        moved.push(reg);
                    }
                }
            }
        }
        if !moved.is_empty() {
            plan.regs = plan
                .regs
                .iter()
                .copied()
                .filter(|r| !moved.contains(r))
                .collect();
            plan.pre_regs = moved.into_boxed_slice();
        }
    }
}

/// True when reference `r` may participate in a superinstruction. The
/// `General` plan — clamped multi-dimensional and indirect subscripts —
/// always takes the unfused no-shortcut path.
fn plain_ref(refs: &[RefPlan], r: u32) -> bool {
    !matches!(refs[r as usize], RefPlan::General { .. })
}

/// Tries to fuse the adjacent pair `(a, b)` into one superinstruction.
/// Caller guarantees `b` is not a control-transfer target.
fn try_merge(a: Inst, b: Inst, refs: &[RefPlan]) -> Option<Inst> {
    Some(match (a, b) {
        // A pushed load/const feeding the binary op that consumes it.
        (Inst::RLoad { dst, r }, Inst::RBin { op, dst: d })
            if d + 1 == dst && plain_ref(refs, r) =>
        {
            Inst::RLoadBin { r, op, dst: d }
        }
        (Inst::RConst { dst, v }, Inst::RBin { op, dst: d }) if d + 1 == dst => {
            Inst::RConstBin { v, op, dst: d }
        }
        (Inst::RLoad { dst, r }, Inst::RConstBin { v, op, dst: d })
            if d == dst && plain_ref(refs, r) =>
        {
            Inst::RLoadConstBin { r, v, op, dst: d }
        }
        // An op feeding the store that consumes its result.
        (Inst::RBin { op, dst }, Inst::RStore { r, src }) if src == dst && plain_ref(refs, r) => {
            Inst::RBinStore { op, r, dst }
        }
        (Inst::RLoadBin { r: rl, op, dst }, Inst::RStore { r: rs, src })
            if src == dst && plain_ref(refs, rl) && plain_ref(refs, rs) =>
        {
            Inst::RLoadBinStore { rl, op, rs, dst }
        }
        (Inst::RConstBin { v, op, dst }, Inst::RStore { r, src })
            if src == dst && plain_ref(refs, r) =>
        {
            Inst::RConstBinStore { v, op, r, dst }
        }
        (Inst::RLoad { dst, r: rl }, Inst::RStore { r: rs, src })
            if src == dst && plain_ref(refs, rl) && plain_ref(refs, rs) =>
        {
            Inst::RLoadStore { rl, rs }
        }
        (Inst::RConst { dst, v }, Inst::RStore { r, src }) if src == dst && plain_ref(refs, r) => {
            Inst::RConstStore { v, r }
        }
        // A whole two-term statement: the load of the first operand fuses
        // with the already-merged load-const-op of the second, and that
        // pair fuses with the op-store consuming both — `s = a op (b opb
        // v)` retires in a single dispatch.
        (
            Inst::RLoad { dst, r: ra },
            Inst::RLoadConstBin {
                r: rb,
                v,
                op,
                dst: d,
            },
        ) if d == dst + 1 && plain_ref(refs, ra) && plain_ref(refs, rb) => {
            Inst::RLoad2ConstBin { ra, rb, v, op, dst }
        }
        (
            Inst::RLoad2ConstBin {
                ra,
                rb,
                v,
                op: opb,
                dst,
            },
            Inst::RBinStore { op, r, dst: d },
        ) if d == dst && plain_ref(refs, r) => Inst::RLoad2ConstBinStore {
            ra,
            rb,
            v,
            opb,
            op,
            rs: r,
        },
        // Two-rounding multiply-add: Mul's product lands at d+1, Add
        // consumes it — exactly `let t = a * b; x + t`.
        (
            Inst::RBin {
                op: BinOp::Mul,
                dst,
            },
            Inst::RBin {
                op: BinOp::Add,
                dst: d,
            },
        ) if d + 1 == dst => Inst::RMulAdd { dst: d },
        _ => return None,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::{lower, ExecBuffers, LoweredProc, LoweredSegmentExec};
    use super::*;
    use crate::build::{ac, add, av, cmp, idx, mul, num, ProcBuilder};
    use crate::exec::{CountingStore, ExecError, PlainStore, SegmentExec};
    use crate::expr::CmpOp;
    use crate::memory::{Layout, Memory};
    use crate::program::Procedure;

    fn fused_of(proc: &Procedure) -> (Layout, LoweredProc) {
        let layout = Layout::new(&proc.vars);
        let fused = fuse(&lower(&proc.vars, &layout, &proc.body));
        (layout, fused)
    }

    /// Runs `proc` on the tree-walk oracle, the plain lowered tier and the
    /// fused tier with tracing + counting stores, asserting bit-exact
    /// memory, identical traces, counts, step totals and errors across all
    /// three. Returns the fused bytecode for shape assertions.
    pub(crate) fn assert_fused_agrees(proc: &Procedure) -> LoweredProc {
        let layout = Layout::new(&proc.vars);
        let lowered = lower(&proc.vars, &layout, &proc.body);
        let fused = fuse(&lowered);

        let mut mem_tree = Memory::zeroed(&layout);
        let mut store_tree = CountingStore::new(PlainStore::tracing(&mut mem_tree));
        let mut tree = SegmentExec::new(&proc.vars, &layout, &proc.body, &[]);
        let tree_result = tree.run(&mut store_tree, 1_000_000);
        let tree_trace = store_tree.inner.trace.clone();
        let tree_counts = store_tree.counts.clone();
        let tree_steps = tree.steps();

        for (name, prog) in [("lowered", &lowered), ("fused", &fused)] {
            let mut mem = Memory::zeroed(&layout);
            let mut store = CountingStore::new(PlainStore::tracing(&mut mem));
            let mut exec = LoweredSegmentExec::new(prog, &[], ExecBuffers::default());
            let result = exec.run(&mut store, 1_000_000);
            assert_eq!(tree_result, result, "{name}: result");
            if tree_result.is_ok() {
                // The oracle counts the unit an error surfaces in, the
                // compiled tiers don't — steps only compare on success
                // (the only case the simulator reads them).
                assert_eq!(tree_steps, exec.steps(), "{name}: step count");
            }
            assert_eq!(
                tree_trace.len(),
                store.inner.trace.len(),
                "{name}: trace length"
            );
            for (a, b) in tree_trace.iter().zip(&store.inner.trace) {
                assert_eq!((a.site, a.access, a.addr), (b.site, b.access, b.addr));
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            assert_eq!(tree_counts, store.counts, "{name}: dynamic counts");
            let diffs = mem_tree.diff(&mem, 10);
            assert!(diffs.is_empty(), "{name}: memory diverged: {diffs:?}");
        }
        fused
    }

    #[test]
    fn peels_constant_small_trip_loops_to_scalar_addresses() {
        // do k = 1, 4 { s = s + e(2, k) * 1.5 } — the TWLDRV shape. The
        // peel folds k into the in-bounds e subscript, collapsing it to a
        // compile-time scalar address, and the merge fuses each statement
        // into load + load-const-mul + op-store superinsts.
        let mut b = ProcBuilder::new("twl");
        let e = b.array("e", &[8, 4]);
        let s = b.scalar("s");
        let k = b.index("k");
        let rhs = add(b.load(s), mul(b.load_elem(e, vec![ac(2), av(k)]), num(1.5)));
        let stmt = b.assign_scalar(s, rhs);
        let body = vec![b.do_loop(k, ac(1), ac(4), vec![stmt])];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(fused.peeled_loop_count(), 1);
        assert!(fused.superinst_count() > 0);
        let asm = fused.disasm();
        assert!(asm.contains("peelenter"), "peeled loop entry:\n{asm}");
        assert!(asm.contains("rebind"), "rebinds between copies:\n{asm}");
        assert!(
            asm.contains(":scalar@"),
            "k folded to scalar addresses:\n{asm}"
        );
        assert!(!asm.contains("loopenter"), "no residual loop:\n{asm}");
    }

    #[test]
    fn zero_trip_and_single_trip_loops_peel_exactly() {
        // Single-trip: k stays bound to 5 after the loop (last trip
        // value). Zero-trip: k stays unbound, so the read after the loop
        // errors identically on the oracle, plain and fused bytecode.
        let mut b = ProcBuilder::new("trip1");
        let s = b.scalar("s");
        let k = b.index("k");
        let a1 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let after = b.assign_scalar(s, idx(k));
        let body = vec![b.do_loop(k, ac(5), ac(5), vec![a1]), after];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(fused.peeled_loop_count(), 1);
        assert!(fused.disasm().contains("peelenter"));

        let mut b = ProcBuilder::new("trip0");
        let s = b.scalar("s");
        let k = b.index("k");
        let a1 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let after = b.assign_scalar(s, idx(k));
        let body = vec![b.do_loop(k, ac(3), ac(2), vec![a1]), after];
        let proc = b.build(body);
        let fused = assert_fused_agrees(&proc);
        assert!(fused.disasm().contains("peelnop"));
        let (layout, fused) = fused_of(&proc);
        let mut mem = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem);
        let mut exec = LoweredSegmentExec::new(&fused, &[], ExecBuffers::default());
        let err = exec.run(&mut store, 1000).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnboundVariable(k),
            "zero-trip binds nothing"
        );
    }

    #[test]
    fn rollback_reentry_replays_unrolled_body_exactly() {
        // Step partway into the peeled copies, roll back (reset), re-run:
        // the replay must be bit-identical to an untouched run.
        let mut b = ProcBuilder::new("rb");
        let a = b.array("a", &[8]);
        let s = b.scalar("s");
        let k = b.index("k");
        let s1 = b.assign_elem(a, vec![av(k)], idx(k));
        let s2 = {
            let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop(k, ac(1), ac(4), vec![s1, s2])];
        let proc = b.build(body);
        let (layout, fused) = fused_of(&proc);
        assert!(fused.peeled_loop_count() > 0, "loop is unrolled");

        // Partial run into scratch memory, mid-way through the copies.
        let mut exec = LoweredSegmentExec::new(&fused, &[], ExecBuffers::default());
        let mut scratch = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut scratch);
        for _ in 0..5 {
            assert!(exec.step(&mut store).unwrap());
        }
        exec.reset();
        assert_eq!(exec.steps(), 0);

        let mut mem_replay = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem_replay);
        exec.run(&mut store, 1000).unwrap();

        let mut fresh = LoweredSegmentExec::new(&fused, &[], ExecBuffers::default());
        let mut mem_fresh = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem_fresh);
        fresh.run(&mut store, 1000).unwrap();

        assert_eq!(exec.steps(), fresh.steps());
        assert!(mem_replay.diff(&mem_fresh, 10).is_empty());
    }

    #[test]
    fn deep_expressions_use_a_register_per_depth_and_still_merge() {
        // s = 0 + (1 + (... + (67 + s * 0.5))): the evaluation stack grows
        // to 70 values, so the innermost load and constant land in v68 and
        // v69. They still merge into a load-const-op, and the outermost
        // add into an op-store.
        let mut b = ProcBuilder::new("deep");
        let s = b.scalar("s");
        let mut e = mul(b.load(s), num(0.5));
        for i in (0..68).rev() {
            e = add(num(f64::from(i)), e);
        }
        let stmt = b.assign_scalar(s, e);
        let fused = assert_fused_agrees(&b.build(vec![stmt]));
        assert_eq!(fused.superinst_count(), 2);
        let asm = fused.disasm();
        assert!(
            asm.contains("rloadconstbin v68 = r0:scalar@0 Mul 0.5"),
            "the deepest values merge:\n{asm}"
        );
    }

    #[test]
    fn while_regions_keep_loop_machinery_unfused() {
        // WHILE loops are never peeled: the continuation check re-runs per
        // trip through the cloned loop plan, in register form.
        let mut b = ProcBuilder::new("wh");
        let a = b.array("a", &[16]);
        let s = b.scalar("s");
        let k = b.index("k");
        let bump = {
            let rhs = add(b.load(s), num(1.0));
            b.assign_scalar(s, rhs)
        };
        let put = {
            let rhs = b.load(s);
            b.assign_elem(a, vec![av(k)], rhs)
        };
        let cond = cmp(CmpOp::Le, b.load(s), num(3.0));
        let body = vec![b.while_loop_labeled("W", k, ac(1), ac(10), cond, vec![bump, put])];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(fused.peeled_loop_count(), 0, "WHILE loops never peel");
        let asm = fused.disasm();
        assert!(asm.contains("rwhilebranch"), "cond check survives:\n{asm}");
        assert!(asm.contains("loopenter"), "loop machinery survives:\n{asm}");
    }

    #[test]
    fn indirect_subscripts_take_the_no_shortcut_path() {
        // p(k) is a permutation; a(p(k)) = k goes through the General plan
        // — never folded by the peel, never merged into a superinst.
        let mut b = ProcBuilder::new("ind");
        let a = b.array("a", &[8]);
        let p = b.array("p", &[8]);
        let k = b.index("k");
        let init = b.assign_elem(p, vec![ac(9) - av(k)], idx(k));
        let init_loop = b.do_loop(k, ac(1), ac(8), vec![init]);
        let pk_ref = b.aref(p, vec![av(k)]);
        let pk_sub = b.indirect(pk_ref);
        let lhs = b.aref_subs(a, vec![pk_sub]);
        let write = b.assign(lhs, idx(k));
        // A 4-trip user loop so the peel fires around the indirect write.
        let use_loop = b.do_loop(k, ac(1), ac(4), vec![write]);
        let fused = assert_fused_agrees(&b.build(vec![init_loop, use_loop]));
        let asm = fused.disasm();
        assert!(asm.contains("peelenter"), "outer peel still fires:\n{asm}");
        for line in asm.lines().filter(|l| l.contains(":general")) {
            assert!(
                line.contains(" rstore ") || line.contains(" rload "),
                "general-plan refs stay unfused: {line}"
            );
        }
    }

    #[test]
    fn two_term_statements_fuse_to_a_single_dispatch() {
        // s = a(k) + s * 0.5 — the first load, the load-const-op of the
        // second operand and the op-store collapse into one
        // `rload2constbinstore`: the whole statement retires in a single
        // dispatch.
        let mut b = ProcBuilder::new("whole");
        let a = b.array("a", &[64]);
        let s = b.scalar("s");
        let k = b.index("k");
        let stmt = {
            let rhs = add(b.load_elem(a, vec![av(k)]), mul(b.load(s), num(0.5)));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop(k, ac(1), ac(50), vec![stmt])];
        let fused = assert_fused_agrees(&b.build(body));
        let asm = fused.disasm();
        assert!(
            asm.contains("rload2constbinstore"),
            "whole statement fuses:\n{asm}"
        );
    }

    #[test]
    fn straight_line_loops_fuse_advance_and_load() {
        // s = (a(k) + s) + s leaves the a(k) load standalone after the
        // merge (only the trailing loads fold into load-op forms), so it
        // fuses with its induction register's advance.
        let mut b = ProcBuilder::new("adv");
        let a = b.array("a", &[64]);
        let s = b.scalar("s");
        let k = b.index("k");
        let stmt = {
            let rhs = add(add(b.load_elem(a, vec![av(k)]), b.load(s)), b.load(s));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop(k, ac(1), ac(50), vec![stmt])];
        let proc = b.build(body);
        let fused = assert_fused_agrees(&proc);
        let asm = fused.disasm();
        assert!(asm.contains("radvload"), "advance+load fuses:\n{asm}");

        // Rollback re-entry re-initializes the pre-advanced register.
        let (layout, fused) = fused_of(&proc);
        let mut exec = LoweredSegmentExec::new(&fused, &[], ExecBuffers::default());
        let mut scratch = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut scratch);
        for _ in 0..7 {
            assert!(exec.step(&mut store).unwrap());
        }
        exec.reset();
        let mut mem_replay = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem_replay);
        exec.run(&mut store, 10_000).unwrap();
        let mut fresh = LoweredSegmentExec::new(&fused, &[], ExecBuffers::default());
        let mut mem_fresh = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem_fresh);
        fresh.run(&mut store, 10_000).unwrap();
        assert!(mem_replay.diff(&mem_fresh, 10).is_empty());

        // do k = 2, 64, 2 { a(k) = k }; do k = 1, 50 { if (a(k) > 0)
        // s = (a(k) + s) + s } — the guarded load is skipped on odd trips,
        // so its register must keep advancing on the `LoopBack` edge.
        let mut b = ProcBuilder::new("guarded");
        let a = b.array("a", &[64]);
        let s = b.scalar("s");
        let k = b.index("k");
        let init = b.assign_elem(a, vec![av(k)], idx(k));
        let stmt = {
            let rhs = add(add(b.load_elem(a, vec![av(k)]), b.load(s)), b.load(s));
            b.assign_scalar(s, rhs)
        };
        let cond = cmp(CmpOp::Gt, b.load_elem(a, vec![av(k)]), num(0.0));
        let guarded = b.if_then(cond, vec![stmt]);
        let body = vec![
            b.do_loop_step(None, k, ac(2), ac(64), 2, vec![init]),
            b.do_loop(k, ac(1), ac(50), vec![guarded]),
        ];
        let fused = assert_fused_agrees(&b.build(body));
        let asm = fused.disasm();
        assert!(
            !asm.contains("radvload"),
            "branchy bodies keep loads:\n{asm}"
        );
    }

    #[test]
    fn nested_shapes_conditionals_and_descending_loops_agree() {
        // do i = 1, 6 { if (i >= 3) c = c + i else c = c - 1;
        //               do j = 1, i { a(j) = a(j) + c } } — the inner
        // loop's bound depends on i, so it only peels where i is a folded
        // constant; conditionals exercise branch-target preservation.
        let mut b = ProcBuilder::new("mix");
        let a = b.array("a", &[8]);
        let c = b.scalar("c");
        let i = b.index("i");
        let j = b.index("j");
        let then_assign = {
            let rhs = add(b.load(c), idx(i));
            b.assign_scalar(c, rhs)
        };
        let else_assign = {
            let rhs = add(b.load(c), num(-1.0));
            b.assign_scalar(c, rhs)
        };
        let if_stmt = b.if_then_else(
            cmp(CmpOp::Ge, idx(i), num(3.0)),
            vec![then_assign],
            vec![else_assign],
        );
        let inner_assign = {
            let rhs = add(b.load_elem(a, vec![av(j)]), b.load(c));
            b.assign_elem(a, vec![av(j)], rhs)
        };
        let inner = b.do_loop(j, ac(1), av(i), vec![inner_assign]);
        let body = vec![b.do_loop(i, ac(1), ac(6), vec![if_stmt, inner])];
        assert_fused_agrees(&b.build(body));

        let mut b = ProcBuilder::new("desc");
        let s = b.scalar("s");
        let k = b.index("k");
        let a1 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop_step(None, k, ac(4), ac(1), -1, vec![a1])];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(fused.peeled_loop_count(), 1, "descending 4-trip loop peels");
    }

    #[test]
    fn branches_in_peeled_copies_land_on_the_next_copy() {
        // do k = 1, 3 { while (s <= 3) do j = 1, 10 { s = s + 1 };
        //               if (s >= 2k) t = t + k }; u = 7 — the IF closes
        // each copy, so its branch lands on the next copy's rebind and the
        // last copy's on the statement after the loop. The WHILE loop never
        // peels: each copy clones it onto a loop plan of its own.
        let mut b = ProcBuilder::new("land");
        let s = b.scalar("s");
        let t = b.scalar("t");
        let u = b.scalar("u");
        let k = b.index("k");
        let j = b.index("j");
        let bump = {
            let rhs = add(b.load(s), num(1.0));
            b.assign_scalar(s, rhs)
        };
        let cond = cmp(CmpOp::Le, b.load(s), num(3.0));
        let inner = b.while_loop_labeled("W", j, ac(1), ac(10), cond, vec![bump]);
        let then = {
            let rhs = add(b.load(t), idx(k));
            b.assign_scalar(t, rhs)
        };
        let cond = cmp(CmpOp::Ge, b.load(s), mul(idx(k), num(2.0)));
        let guarded = b.if_then(cond, vec![then]);
        let after = b.assign_scalar(u, num(7.0));
        let body = vec![b.do_loop(k, ac(1), ac(3), vec![inner, guarded]), after];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(fused.peeled_loop_count(), 1);
        assert_eq!(fused.insts.capacity(), fused.insts.len(), "no spare room");

        let asm = fused.disasm();
        let at = |mnemonic: &str| -> Vec<(usize, String)> {
            asm.lines()
                .enumerate()
                .filter(|(_, line)| line[6..].starts_with(mnemonic))
                .map(|(pc, line)| (pc, line[6..].to_string()))
                .collect()
        };
        let copies: Vec<usize> = at("peelenter")
            .into_iter()
            .chain(at("rebind"))
            .map(|(pc, _)| pc)
            .collect();
        let after_loop = at("rconststore");
        assert_eq!(copies.len(), 3, "three copies:\n{asm}");
        assert_eq!(after_loop.len(), 1, "u = 7 after the loop:\n{asm}");
        let lands: Vec<usize> = copies[1..]
            .iter()
            .copied()
            .chain([after_loop[0].0])
            .collect();
        let branches = at("rbranch");
        let enters = at("loopenter");
        let checks = at("rwhilebranch");
        assert_eq!(branches.len(), 3, "one IF per copy:\n{asm}");
        assert_eq!(enters.len(), 3, "one cloned WHILE per copy:\n{asm}");
        assert_eq!(checks.len(), 3, "one check per copy:\n{asm}");
        for c in 0..3 {
            let (pc, branch) = &branches[c];
            assert!(copies[c] < *pc && *pc < lands[c], "{branch} in copy {c}");
            assert!(
                branch.ends_with(&format!("->{}", lands[c])),
                "copy {c}'s {branch} lands at {}:\n{asm}",
                lands[c]
            );
            let plan = format!("loop{c}");
            assert_eq!(enters[c].1, format!("loopenter {plan}"));
            assert!(checks[c].1.ends_with(&plan), "{}", checks[c].1);
            assert!(copies[c] < enters[c].0 && checks[c].0 < *pc);
        }
    }

    #[test]
    fn nested_constant_loops_peel_recursively() {
        // do i = 1, 3 { do j = 1, 2 { v(i, j) = i * 10 + j } } — both
        // levels peel; every subscript folds to a compile-time address.
        let mut b = ProcBuilder::new("nest");
        let v = b.array("v", &[3, 2]);
        let i = b.index("i");
        let j = b.index("j");
        let assign = {
            let rhs = add(mul(idx(i), num(10.0)), idx(j));
            b.assign_elem(v, vec![av(i), av(j)], rhs)
        };
        let inner = b.do_loop(j, ac(1), ac(2), vec![assign]);
        let body = vec![b.do_loop(i, ac(1), ac(3), vec![inner])];
        let fused = assert_fused_agrees(&b.build(body));
        assert_eq!(
            fused.peeled_loop_count(),
            4,
            "outer once, inner per copy... "
        );
        assert!(!fused.disasm().contains("loopenter"));
    }

    #[test]
    fn shadowed_index_inside_large_loop_does_not_fold() {
        // do k = 1, 2 { s += k; do k = 1, 8 { s += k } ; s += k } — the
        // inner loop rebinds k, masking the peeled constant; the final use
        // sees the inner loop's last trip value, matching the tree-walk.
        let mut b = ProcBuilder::new("shadow");
        let s = b.scalar("s");
        let k = b.index("k");
        let use1 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let use2 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let use3 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let inner = b.do_loop(k, ac(1), ac(8), vec![use2]);
        let body = vec![b.do_loop(k, ac(1), ac(2), vec![use1, inner, use3])];
        assert_fused_agrees(&b.build(body));
    }
}
