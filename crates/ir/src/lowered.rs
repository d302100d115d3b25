//! Lowered register-machine bytecode — the fast execution backend.
//!
//! The tree-walking [`SegmentExec`](crate::exec::SegmentExec) re-traverses
//! the `Expr`/`Stmt` structures on every statement execution: every affine
//! subscript looks each of its variables up in the environment, every array
//! access allocates a subscript vector, and every expression evaluation
//! chases `Box` pointers.
//! For the simulator — which executes the same segment body millions of
//! times across capacity points and label configurations — that traversal
//! is pure overhead.
//!
//! This module compiles a statement list **once** into a flat instruction
//! array:
//!
//! * expression trees are flattened to register operations, each value
//!   in the register at its depth of the expression's evaluation stack,
//! * affine subscripts are pre-resolved against the [`Layout`] into
//!   `(base, Σ stride·index)` plans with compile-time parameter folding:
//!   a provably in-bounds reference's flat address is built term by term
//!   straight into the plan's inline [`Terms`] list, which allocates
//!   nothing for the one- and two-index subscripts that dominate,
//! * structured control flow (`IF`, `DO`) is jump-threaded into branch and
//!   loop-back instructions over the flat array.
//!
//! [`LoweredSegmentExec`] then mirrors `SegmentExec`'s resumable
//! step/rollback contract exactly: one `step` executes one *statement
//! unit* (an assignment, an `IF` condition, a loop setup, or a WHILE
//! segment's continuation check), performing every memory access through
//! the same [`DataStore`] interface, and `reset` rewinds to the initial
//! state for re-execution after a roll-back. The two backends are byte-exact equivalent: identical memory
//! effects, identical access order (and therefore identical traces and
//! dynamic counts), identical step counting, identical error behavior —
//! the differential suite in `refidem-testkit` asserts this across
//! hundreds of generated programs and the whole named-benchmark suite.

use crate::affine::{AffineExpr, Terms};
use crate::cache::{KeyedCache, Lookup};
use crate::exec::{DataStore, ExecError};
use crate::expr::{BinOp, CmpOp, Expr, Reference, Subscript};
use crate::ids::{RefId, VarId};
use crate::memory::{Addr, Layout};
use crate::program::Procedure;
use crate::stmt::{LoopStmt, Stmt};
use crate::var::VarTable;

pub mod fused;

/// Which execution backend to run IR code on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// Compiled bytecode from the one compile pipeline: [`lower`], then
    /// [`fused::fuse`] for the units that repeat (see [`LowerUnit::fuses`]).
    /// Byte-exact with the oracle. The default.
    #[default]
    Compiled,
    /// The tree-walking interpreter (the cross-checking oracle).
    TreeWalk,
}

/// An affine integer expression compiled against an environment: constant
/// term (with all compile-time parameters folded in) plus `coeff * slot`
/// terms over runtime index variables, in one inline [`Terms`] list, so a
/// plan of up to [`INLINE_TERMS`](crate::affine::INLINE_TERMS) terms
/// allocates nothing. The list keeps its terms in `VarId` order, so unbound
/// errors surface on the same variable as the tree-walking interpreter.
#[derive(Clone, Debug)]
struct AffinePlan {
    constant: i64,
    terms: Terms,
}

impl AffinePlan {
    /// The plan of the constant `constant`.
    fn constant(constant: i64) -> AffinePlan {
        AffinePlan {
            constant,
            terms: Terms::new(),
        }
    }

    fn compile(e: &AffineExpr, vars: &VarTable) -> AffinePlan {
        let mut plan = AffinePlan::constant(0);
        plan.add_scaled(e, 1, vars);
        plan
    }

    /// Adds `scale * e`, folding its parameters into the constant.
    fn add_scaled(&mut self, e: &AffineExpr, scale: i64, vars: &VarTable) {
        self.constant += scale * e.constant;
        for &(v, c) in &e.terms {
            match vars.param_value(v) {
                Some(value) => self.constant += scale * c * value,
                None => self.terms.add(v, scale * c),
            }
        }
    }

    #[inline]
    fn eval(&self, env: &[i64], bound: &[bool]) -> Result<i64, ExecError> {
        match self.terms.as_slice() {
            // The overwhelmingly common shapes: constant-only and
            // single-index subscripts.
            [] => Ok(self.constant),
            [(v, c)] => {
                let i = v.index();
                if !bound[i] {
                    return Err(ExecError::UnboundVariable(*v));
                }
                Ok(self.constant + c * env[i])
            }
            terms => {
                let mut acc = self.constant;
                for &(v, c) in terms {
                    let i = v.index();
                    if !bound[i] {
                        return Err(ExecError::UnboundVariable(v));
                    }
                    acc += c * env[i];
                }
                Ok(acc)
            }
        }
    }

    /// Evaluation without bound checks — only valid for plans whose every
    /// variable is provably bound when the plan executes (the [`RefPlan::Fused`]
    /// in-bounds proof implies exactly that).
    #[inline]
    fn eval_bound(&self, env: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * env[v.index()];
        }
        acc
    }
}

/// An induction-variable address register: the strength-reduced form of a
/// [`RefPlan::Fused`] flat affine address that is an affine function of an
/// enclosing loop's induction variable.
///
/// Instead of re-evaluating `base + Σ stride·index` on every access, the
/// executor keeps the current address in a register that is initialized
/// from the closed form when the owning loop is entered and advanced by
/// the constant `delta` on every trip. Re-entering the loop — including
/// after a segment roll-back and [`LoweredSegmentExec::reset`] — re-runs
/// the initialization, so the register can never carry stale state across
/// re-executions.
#[derive(Clone, Debug)]
struct AddrRegPlan {
    /// The closed-form flat affine address, kept for loop-entry
    /// initialization and for the debug-mode cross-check on every access.
    closed: AffinePlan,
    /// Constant address advance per trip of the owning loop:
    /// `coeff(loop index) * loop step`.
    delta: i64,
}

/// One compiled array subscript.
#[derive(Clone, Debug)]
enum SubPlan {
    /// An affine subscript, pre-resolved against the environment.
    Affine(AffinePlan),
    /// An indirect subscript: the nested reference is read at run time and
    /// its value truncated to an integer, exactly as the tree-walk does.
    Indirect(Box<RefPlan>),
}

/// A compiled memory-reference site, in decreasing order of specialization:
///
/// * `Scalar` — address fully resolved at compile time;
/// * `Induction` — a [`Fused`](RefPlan::Fused) address strength-reduced to
///   an incrementally-advanced address register (see [`AddrRegPlan`]);
/// * `Fused` — an affine array access whose every subscript is *provably
///   in bounds* given the enclosing loop ranges, pre-resolved to one flat
///   affine address function `base' + Σ stride·index` (the strides and the
///   `-1` Fortran offsets are folded into the plan, the per-dimension
///   clamps are provably no-ops and dropped);
/// * `Dim1` — a one-dimensional affine access with one runtime clamp;
/// * `General` — any arity, affine or indirect subscripts, clamped per
///   dimension exactly like `Layout::element`.
#[derive(Clone, Debug)]
enum RefPlan {
    /// A scalar access: the address is a compile-time constant.
    Scalar { site: RefId, addr: u64 },
    /// A provably in-bounds affine access whose flat address lives in the
    /// induction address register `reg`, advanced by the owning loop.
    Induction { site: RefId, reg: u32 },
    /// A provably in-bounds affine access collapsed to one flat affine
    /// address function.
    Fused { site: RefId, plan: AffinePlan },
    /// A one-dimensional affine array access.
    Dim1 {
        site: RefId,
        base: u64,
        sub: AffinePlan,
        extent: i64,
        stride: u64,
    },
    /// The general case: any arity, affine or indirect subscripts.
    /// `dims` may be shorter than `subs` for degenerate references; extra
    /// subscripts are evaluated for their side effects only, mirroring
    /// `Layout::element`.
    General {
        site: RefId,
        base: u64,
        subs: Box<[SubPlan]>,
        dims: Box<[(i64, u64)]>,
    },
}

impl RefPlan {
    fn site(&self) -> RefId {
        match self {
            RefPlan::Scalar { site, .. }
            | RefPlan::Induction { site, .. }
            | RefPlan::Fused { site, .. }
            | RefPlan::Dim1 { site, .. }
            | RefPlan::General { site, .. } => *site,
        }
    }

    /// Collapses an all-affine reference into one flat affine address
    /// function when every subscript is provably within its dimension's
    /// bounds under `ranges` (the enclosing loops' index intervals). The
    /// per-dimension clamps of `Layout::element` are then no-ops, so
    /// dropping them preserves the address bit for bit; in-range also
    /// implies every mentioned index has a binding loop, so the fused
    /// plan cannot change which unbound-variable error surfaces.
    fn try_fuse(
        r: &Reference,
        vars: &VarTable,
        layout: &Layout,
        ranges: &[Option<(i64, i64)>],
    ) -> Option<AffinePlan> {
        let dims = layout.dims(r.var);
        if dims.is_empty() || dims.len() != r.subs.len() {
            return None;
        }
        let bounds = |v: VarId| vars.param_value(v).map(|c| (c, c)).or(ranges[v.index()]);
        // base + Σ (sub - 1) · stride, built straight into the plan.
        let mut flat = AffinePlan::constant(layout.base(r.var).0 as i64);
        for (sub, d) in r.subs.iter().zip(dims) {
            let e = sub.as_affine()?;
            let (lo, hi) = e.range(&bounds)?;
            if lo < 1 || hi > d.extent {
                return None;
            }
            let stride = d.stride as i64;
            flat.constant -= stride;
            flat.add_scaled(e, stride, vars);
        }
        Some(flat)
    }

    fn compile(
        r: &Reference,
        vars: &VarTable,
        layout: &Layout,
        ranges: &[Option<(i64, i64)>],
    ) -> RefPlan {
        if r.subs.is_empty() {
            return RefPlan::Scalar {
                site: r.id,
                addr: layout.scalar(r.var).0,
            };
        }
        if let Some(plan) = RefPlan::try_fuse(r, vars, layout, ranges) {
            return RefPlan::Fused { site: r.id, plan };
        }
        let ldims = layout.dims(r.var);
        if let ([Subscript::Affine(e)], [d]) = (r.subs.as_slice(), ldims) {
            return RefPlan::Dim1 {
                site: r.id,
                base: layout.base(r.var).0,
                sub: AffinePlan::compile(e, vars),
                extent: d.extent,
                stride: d.stride,
            };
        }
        let subs: Vec<SubPlan> = r
            .subs
            .iter()
            .map(|s| match s {
                Subscript::Affine(e) => SubPlan::Affine(AffinePlan::compile(e, vars)),
                Subscript::Indirect(inner) => {
                    SubPlan::Indirect(Box::new(RefPlan::compile(inner, vars, layout, ranges)))
                }
            })
            .collect();
        let dims: Vec<(i64, u64)> = ldims.iter().map(|d| (d.extent, d.stride)).collect();
        RefPlan::General {
            site: r.id,
            base: layout.base(r.var).0,
            subs: subs.into_boxed_slice(),
            dims: dims.into_boxed_slice(),
        }
    }
}

/// A compiled `DO` loop.
#[derive(Clone, Debug)]
struct LoopPlan {
    index_slot: u32,
    lower: AffinePlan,
    upper: AffinePlan,
    step: i64,
    /// Instruction index of the first body instruction.
    body: u32,
    /// Instruction index just past the loop.
    exit: u32,
    /// Induction address registers owned by this loop: initialized from
    /// their closed form when the loop is entered, advanced by their
    /// constant delta on every trip.
    regs: Box<[u32]>,
    /// Induction address registers advanced *inside* the straight-line
    /// loop body by an [`Inst::RAdvLoad`] superinstruction instead of at
    /// [`Inst::LoopBack`]. Initialized at loop entry to one `delta` before
    /// the closed form so the first in-body advance lands on it. Always
    /// empty outside the fused tier (see [`fused`]).
    pre_regs: Box<[u32]>,
}

/// One bytecode instruction over the value registers `stack[..]`. An
/// expression's value lands in the register at its depth of the
/// expression's evaluation stack, which is empty at every unit boundary,
/// so registers are fixed at compile time and the executor keeps no stack
/// pointer. `RStore`, `RBranch`, `RWhileBranch`, `RGuard` and `LoopEnter`
/// terminate a statement unit (one `step`), as do the fused forms that
/// replace them; `Jump` and `LoopBack` are free control transfers executed
/// between units.
#[derive(Clone, Copy, Debug)]
enum Inst {
    /// `stack[dst] = v`.
    RConst { dst: u16, v: f64 },
    /// `stack[dst] = env[slot]` (unbound → error).
    RIndex { dst: u16, slot: u32 },
    /// `stack[dst] = load(refs[r])`.
    RLoad { dst: u16, r: u32 },
    /// `stack[dst] = -stack[dst]`.
    RNeg { dst: u16 },
    /// `stack[dst] = stack[dst] op stack[dst + 1]`.
    RBin { op: BinOp, dst: u16 },
    /// `stack[dst] = stack[dst] cmp stack[dst + 1]` (1.0 / 0.0).
    RCmp { op: CmpOp, dst: u16 },
    /// `store(refs[r], stack[src])`. Terminates the unit.
    RStore { r: u32, src: u16 },
    /// Fall through when `stack[src]` is non-zero, jump to `target`
    /// otherwise. Terminates the unit.
    RBranch { target: u32, src: u16 },
    /// The WHILE continuation check of loop plan `l`: fall through into the
    /// body when `stack[src]` is non-zero, pop the loop and jump to its
    /// exit otherwise. Terminates the unit.
    RWhileBranch { l: u32, src: u16 },
    /// The segment's WHILE continuation check (the first unit of a
    /// [`LowerUnit::RegionBody`]): fall through into the body when
    /// `stack[src]` is non-zero, end the segment as exited otherwise.
    /// Terminates the unit.
    RGuard { src: u16 },
    /// Evaluate the bounds of loop plan `.0`; enter the body or jump past
    /// the loop when the trip count is zero. Terminates the unit.
    LoopEnter(u32),
    /// Unconditional jump (end of a taken `IF` branch).
    Jump(u32),
    /// Advance loop plan `.0`: rebind the index and jump to the body, or
    /// pop the loop and fall out to its exit.
    LoopBack(u32),
    /// End of the statement list.
    End,

    // ----- fused-tier superinstructions (see [`fused`]) ---------------
    /// `stack[dst] = stack[dst] op load(refs[r])`.
    RLoadBin { r: u32, op: BinOp, dst: u16 },
    /// `stack[dst] = stack[dst] op v`.
    RConstBin { v: f64, op: BinOp, dst: u16 },
    /// `stack[dst] = load(refs[r]) op v`.
    RLoadConstBin { r: u32, v: f64, op: BinOp, dst: u16 },
    /// `store(refs[r], stack[dst] op stack[dst + 1])`. Terminates the unit.
    RBinStore { op: BinOp, r: u32, dst: u16 },
    /// `store(refs[rs], stack[dst] op load(refs[rl]))` — the load happens
    /// before the store, preserving access order. Terminates the unit.
    RLoadBinStore {
        rl: u32,
        op: BinOp,
        rs: u32,
        dst: u16,
    },
    /// `store(refs[r], stack[dst] op v)`. Terminates the unit.
    RConstBinStore { v: f64, op: BinOp, r: u32, dst: u16 },
    /// `store(refs[rs], load(refs[rl]))`. Terminates the unit.
    RLoadStore { rl: u32, rs: u32 },
    /// `store(refs[r], v)`. Terminates the unit.
    RConstStore { v: f64, r: u32 },
    /// `stack[dst] += stack[dst+1] * stack[dst+2]` with **two** roundings
    /// (`let t = a * b; x + t`), bit-exact with the unfused Mul-then-Add.
    RMulAdd { dst: u16 },
    /// `stack[dst] = load(refs[ra]); stack[dst + 1] = load(refs[rb]) op v`
    /// — both operands of a two-term expression in one dispatch, loads in
    /// access order.
    RLoad2ConstBin {
        ra: u32,
        rb: u32,
        v: f64,
        op: BinOp,
        dst: u16,
    },
    /// A whole `s = a op (b opb v)` statement in one dispatch:
    /// `store(refs[rs], load(refs[ra]) op (load(refs[rb]) opb v))`, loads
    /// in access order before the store. Terminates the unit.
    RLoad2ConstBinStore {
        ra: u32,
        rb: u32,
        v: f64,
        opb: BinOp,
        op: BinOp,
        rs: u32,
    },
    /// Advance the induction register of [`RefPlan::Induction`] ref `r` by
    /// its per-trip delta, then `stack[dst] = load(refs[r])`. Replaces the
    /// [`Inst::LoopBack`]-time advance for `pre_regs` (straight-line loop
    /// bodies execute every instruction exactly once per trip).
    RAdvLoad { dst: u16, r: u32 },

    // ----- fused-tier peeled loops -------------------------------------
    /// First trip of a peeled constant-trip loop: bind `env[slot] = value`.
    /// Terminates the unit (it replaces the loop's [`Inst::LoopEnter`]).
    PeelEnter { slot: u32, value: i64 },
    /// Rebind `env[slot] = value` between peeled copies. Free, like the
    /// [`Inst::LoopBack`] it replaces.
    Rebind { slot: u32, value: i64 },
    /// A peeled zero-trip loop: binds nothing, falls through. Terminates
    /// the unit (it replaces the loop's [`Inst::LoopEnter`]).
    PeelNop,
}

/// Applies a binary operator with the simulator's division-by-zero
/// convention. Shared by [`Inst::RBin`] and every fused superinstruction
/// so merged ops cannot drift semantically.
#[inline]
fn apply_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                0.0
            } else {
                x / y
            }
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

/// A statement list compiled to flat bytecode, reusable across any number
/// of [`LoweredSegmentExec`] instances (and therefore across segments,
/// capacity points and re-executions). Compile once with [`lower`] (or
/// [`lower_with_ranges`]), execute any number of times; share across
/// repeated runs with a [`LoweredCache`].
#[derive(Clone, Debug)]
pub struct LoweredProc {
    insts: Vec<Inst>,
    refs: Vec<RefPlan>,
    loops: Vec<LoopPlan>,
    /// Strength-reduced induction address registers (see [`AddrRegPlan`]).
    addr_regs: Vec<AddrRegPlan>,
    env_len: usize,
    /// Number of value registers: the deepest any statement unit's
    /// evaluation stack grows (computed at compile time so the executor
    /// allocates the registers exactly once).
    max_stack: usize,
    /// Maximum loop-nesting depth.
    max_loops: usize,
}

impl LoweredProc {
    /// Number of memory-reference sites that were strength-reduced to
    /// induction address registers (exposed for tests and diagnostics).
    pub fn induction_reduced_refs(&self) -> usize {
        self.addr_regs.len()
    }

    /// Total number of instructions (including the trailing `End`).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of fused superinstructions (merged multi-op forms plus
    /// advance-and-load). Zero for plain lowered bytecode.
    pub fn superinst_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::RLoadBin { .. }
                        | Inst::RConstBin { .. }
                        | Inst::RLoadConstBin { .. }
                        | Inst::RBinStore { .. }
                        | Inst::RLoadBinStore { .. }
                        | Inst::RConstBinStore { .. }
                        | Inst::RLoadStore { .. }
                        | Inst::RConstStore { .. }
                        | Inst::RMulAdd { .. }
                        | Inst::RLoad2ConstBin { .. }
                        | Inst::RLoad2ConstBinStore { .. }
                        | Inst::RAdvLoad { .. }
                )
            })
            .count()
    }

    /// Number of loops the fused tier peeled away (`PeelEnter` plus
    /// `PeelNop` instructions). Zero for plain lowered bytecode.
    pub fn peeled_loop_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| matches!(i, Inst::PeelEnter { .. } | Inst::PeelNop))
            .count()
    }

    /// Renders the instruction stream as one mnemonic per line, reference
    /// operands annotated with their plan kind — the introspection surface
    /// behind the fused-tier golden snapshot and the fallback assertions.
    pub fn disasm(&self) -> String {
        use std::fmt::Write;
        let kind = |r: u32| match &self.refs[r as usize] {
            RefPlan::Scalar { addr, .. } => format!("r{r}:scalar@{addr}"),
            RefPlan::Induction { reg, .. } => format!("r{r}:ind(reg{reg})"),
            RefPlan::Fused { .. } => format!("r{r}:fused"),
            RefPlan::Dim1 { .. } => format!("r{r}:dim1"),
            RefPlan::General { .. } => format!("r{r}:general"),
        };
        let mut out = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            let line = match *inst {
                Inst::LoopEnter(l) => format!("loopenter loop{l}"),
                Inst::Jump(t) => format!("jump ->{t}"),
                Inst::LoopBack(l) => format!("loopback loop{l}"),
                Inst::End => "end".to_string(),
                Inst::RConst { dst, v } => format!("rconst v{dst} = {v}"),
                Inst::RIndex { dst, slot } => format!("rindex v{dst} = #{slot}"),
                Inst::RLoad { dst, r } => format!("rload v{dst} = {}", kind(r)),
                Inst::RNeg { dst } => format!("rneg v{dst}"),
                Inst::RBin { op, dst } => format!("rbin v{dst} = v{dst} {op:?} v{}", dst + 1),
                Inst::RCmp { op, dst } => format!("rcmp v{dst} = v{dst} {op:?} v{}", dst + 1),
                Inst::RStore { r, src } => format!("rstore {} = v{src}", kind(r)),
                Inst::RBranch { target, src } => format!("rbranch v{src} ->{target}"),
                Inst::RWhileBranch { l, src } => format!("rwhilebranch v{src} loop{l}"),
                Inst::RGuard { src } => format!("rguard v{src}"),
                Inst::RLoadBin { r, op, dst } => {
                    format!("rloadbin v{dst} = v{dst} {op:?} {}", kind(r))
                }
                Inst::RConstBin { v, op, dst } => format!("rconstbin v{dst} = v{dst} {op:?} {v}"),
                Inst::RLoadConstBin { r, v, op, dst } => {
                    format!("rloadconstbin v{dst} = {} {op:?} {v}", kind(r))
                }
                Inst::RBinStore { op, r, dst } => {
                    format!("rbinstore {} = v{dst} {op:?} v{}", kind(r), dst + 1)
                }
                Inst::RLoadBinStore { rl, op, rs, dst } => {
                    format!("rloadbinstore {} = v{dst} {op:?} {}", kind(rs), kind(rl))
                }
                Inst::RConstBinStore { v, op, r, dst } => {
                    format!("rconstbinstore {} = v{dst} {op:?} {v}", kind(r))
                }
                Inst::RLoadStore { rl, rs } => format!("rloadstore {} = {}", kind(rs), kind(rl)),
                Inst::RConstStore { v, r } => format!("rconststore {} = {v}", kind(r)),
                Inst::RMulAdd { dst } => {
                    format!("rmuladd v{dst} += v{} * v{}", dst + 1, dst + 2)
                }
                Inst::RLoad2ConstBin { ra, rb, v, op, dst } => {
                    format!(
                        "rload2constbin v{dst} = {}, v{} = {} {op:?} {v}",
                        kind(ra),
                        dst + 1,
                        kind(rb)
                    )
                }
                Inst::RLoad2ConstBinStore {
                    ra,
                    rb,
                    v,
                    opb,
                    op,
                    rs,
                } => {
                    format!(
                        "rload2constbinstore {} = {} {op:?} ({} {opb:?} {v})",
                        kind(rs),
                        kind(ra),
                        kind(rb)
                    )
                }
                Inst::RAdvLoad { dst, r } => format!("radvload v{dst} = {}", kind(r)),
                Inst::PeelEnter { slot, value } => format!("peelenter #{slot} = {value}"),
                Inst::Rebind { slot, value } => format!("rebind #{slot} = {value}"),
                Inst::PeelNop => "peelnop".to_string(),
            };
            writeln!(out, "{pc:>4}  {line}").expect("write to String");
        }
        out
    }
}

/// Lowering-time context of one entered (enclosing) loop — what the
/// strength-reduction legality check consults.
struct LoopCtx {
    /// Index of the loop's [`LoopPlan`].
    plan_idx: u32,
    /// Environment slot of the loop's induction variable.
    index_slot: u32,
    /// The loop's constant step.
    step: i64,
    /// Environment slots rebound somewhere inside the loop's body (the
    /// index variables of all loops nested in it). Any other variable is
    /// invariant across the body, because only loops bind index variables.
    rebound: Vec<u32>,
    /// Induction address registers allocated to this loop so far.
    regs: Vec<u32>,
}

struct Lowerer<'p> {
    vars: &'p VarTable,
    layout: &'p Layout,
    insts: Vec<Inst>,
    refs: Vec<RefPlan>,
    loops: Vec<LoopPlan>,
    addr_regs: Vec<AddrRegPlan>,
    /// Stack of entered loops, outermost first.
    loop_ctx: Vec<LoopCtx>,
    /// Interval each index variable is known to lie in at the current
    /// lowering point (entered loops plus caller-supplied initial ranges);
    /// powers the in-bounds proofs behind [`RefPlan::Fused`].
    ranges: Vec<Option<(i64, i64)>>,
    /// Depth of the current statement unit's evaluation stack: the
    /// register the next value lands in.
    depth: usize,
    max_stack: usize,
    max_loops: usize,
}

/// Collects the environment slots of every loop index bound anywhere
/// inside `stmts` (including nested loops).
fn collect_rebound_slots(stmts: &[Stmt], out: &mut Vec<u32>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(_) => {}
            Stmt::If(i) => {
                collect_rebound_slots(&i.then_branch, out);
                collect_rebound_slots(&i.else_branch, out);
            }
            Stmt::Loop(l) => {
                let slot = l.index.index() as u32;
                if !out.contains(&slot) {
                    out.push(slot);
                }
                collect_rebound_slots(&l.body, out);
            }
        }
    }
}

impl Lowerer<'_> {
    fn add_ref(&mut self, r: &Reference) -> u32 {
        let idx = self.refs.len() as u32;
        let mut plan = RefPlan::compile(r, self.vars, self.layout, &self.ranges);
        if let RefPlan::Fused { site, plan: ap } = &plan {
            if let Some(reduced) = self.try_strength_reduce(*site, ap) {
                plan = reduced;
            }
        }
        self.refs.push(plan);
        idx
    }

    /// Strength-reduces a fused flat affine address to an induction address
    /// register when it is legal to do so.
    ///
    /// The owning loop is the *deepest* enclosing loop whose induction
    /// variable appears in the address; the reduction is legal when every
    /// *other* variable of the address is invariant across that loop's body
    /// (i.e. not the index of any loop nested inside it — assignments can
    /// only write memory, so loops are the only binders of index
    /// variables). Between two consecutive executions of the reference the
    /// address then changes by exactly `coeff · step`, so a register
    /// initialized from the closed form at loop entry and advanced by that
    /// constant per trip always equals the closed form — the executor
    /// `debug_assert`s exactly that on every access.
    fn try_strength_reduce(&mut self, site: RefId, ap: &AffinePlan) -> Option<RefPlan> {
        let (ctx_pos, coeff) = self
            .loop_ctx
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, ctx)| {
                ap.terms
                    .iter()
                    .find(|(v, _)| v.0 == ctx.index_slot)
                    .map(|&(_, c)| (i, c))
            })?;
        let ctx = &self.loop_ctx[ctx_pos];
        // Every address variable — including the induction variable itself,
        // which a pathological nested loop could shadow — must be rebound
        // only by the owning loop between consecutive executions.
        let legal = !ctx.rebound.contains(&ctx.index_slot)
            && ap
                .terms
                .iter()
                .all(|(v, _)| v.0 == ctx.index_slot || !ctx.rebound.contains(&v.0));
        if !legal {
            return None;
        }
        let reg = self.addr_regs.len() as u32;
        self.addr_regs.push(AddrRegPlan {
            closed: ap.clone(),
            delta: coeff * ctx.step,
        });
        self.loop_ctx[ctx_pos].regs.push(reg);
        Some(RefPlan::Induction { site, reg })
    }

    /// Emits `e` so that its value lands in the register at the current
    /// depth, and returns that register. Operands go to the registers
    /// above it, left to right.
    fn emit_expr(&mut self, e: &Expr) -> u16 {
        let dst =
            u16::try_from(self.depth).expect("expression needs more than 65536 value registers");
        let inst = match e {
            Expr::Const(c) => Inst::RConst { dst, v: *c },
            Expr::Index(v) => match self.vars.param_value(*v) {
                Some(value) => Inst::RConst {
                    dst,
                    v: value as f64,
                },
                None => Inst::RIndex {
                    dst,
                    slot: v.index() as u32,
                },
            },
            Expr::Load(r) => Inst::RLoad {
                dst,
                r: self.add_ref(r),
            },
            Expr::Neg(a) => {
                self.emit_expr(a);
                Inst::RNeg { dst }
            }
            Expr::Bin(op, a, b) => {
                self.emit_expr(a);
                self.emit_expr(b);
                Inst::RBin { op: *op, dst }
            }
            Expr::Cmp(op, a, b) => {
                self.emit_expr(a);
                self.emit_expr(b);
                Inst::RCmp { op: *op, dst }
            }
        };
        self.insts.push(inst);
        // The value now occupies `dst`; its operands' registers are free.
        self.depth = usize::from(dst) + 1;
        self.max_stack = self.max_stack.max(self.depth);
        dst
    }

    /// Emits the operand of a statement unit and returns its register; the
    /// instruction that ends the unit consumes it, leaving the stack empty.
    fn emit_operand(&mut self, e: &Expr) -> u16 {
        let src = self.emit_expr(e);
        self.depth -= 1;
        src
    }

    fn emit_loop(&mut self, l: &LoopStmt) {
        let loop_idx = self.loops.len() as u32;
        self.loops.push(LoopPlan {
            index_slot: l.index.index() as u32,
            lower: AffinePlan::compile(&l.lower, self.vars),
            upper: AffinePlan::compile(&l.upper, self.vars),
            step: l.step,
            body: 0,
            exit: 0,
            regs: Box::new([]),
            pre_regs: Box::new([]),
        });
        self.insts.push(Inst::LoopEnter(loop_idx));
        let mut rebound = Vec::new();
        collect_rebound_slots(&l.body, &mut rebound);
        self.loop_ctx.push(LoopCtx {
            plan_idx: loop_idx,
            index_slot: l.index.index() as u32,
            step: l.step,
            rebound,
            regs: Vec::new(),
        });
        self.max_loops = self.max_loops.max(self.loop_ctx.len());
        // While the body executes, the index lies between the smallest
        // possible lower bound and the largest possible upper bound (the
        // other way around for descending loops) — the interval backing the
        // in-bounds subscript proofs.
        let index_range = {
            let bounds = |v: VarId| {
                self.vars
                    .param_value(v)
                    .map(|c| (c, c))
                    .or(self.ranges[v.index()])
            };
            match (l.lower.range(&bounds), l.upper.range(&bounds)) {
                (Some((ll, _)), Some((_, uh))) if l.step > 0 => Some((ll, uh)),
                (Some((_, lh)), Some((ul, _))) if l.step < 0 => Some((ul, lh)),
                _ => None,
            }
        };
        let saved = std::mem::replace(&mut self.ranges[l.index.index()], index_range);
        let body = self.insts.len() as u32;
        if let Some(c) = &l.while_cond {
            // The continuation check compiles to its own statement unit at
            // the top of the body; `plan.body` points here, so both the
            // first entry and every `LoopBack` re-run the check.
            let src = self.emit_operand(c);
            self.insts.push(Inst::RWhileBranch { l: loop_idx, src });
        }
        self.emit_stmts(&l.body);
        self.insts.push(Inst::LoopBack(loop_idx));
        self.ranges[l.index.index()] = saved;
        let ctx = self.loop_ctx.pop().expect("loop context balanced");
        debug_assert_eq!(ctx.plan_idx, loop_idx);
        let exit = self.insts.len() as u32;
        let plan = &mut self.loops[loop_idx as usize];
        plan.body = body;
        plan.exit = exit;
        plan.regs = ctx.regs.into_boxed_slice();
    }

    /// Points the branch or jump at `at` to the next instruction emitted.
    fn patch(&mut self, at: usize) {
        let next = self.insts.len() as u32;
        match &mut self.insts[at] {
            Inst::RBranch { target, .. } | Inst::Jump(target) => *target = next,
            other => unreachable!("patching {other:?}"),
        }
    }

    fn emit_stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign(a) => {
                    // Right-hand side references are allocated before the
                    // left-hand side's: the `RefPlan` order `disasm` shows.
                    let src = self.emit_operand(&a.rhs);
                    let r = self.add_ref(&a.lhs);
                    self.insts.push(Inst::RStore { r, src });
                }
                Stmt::If(i) => {
                    let src = self.emit_operand(&i.cond);
                    let branch_at = self.insts.len();
                    self.insts.push(Inst::RBranch { target: 0, src });
                    self.emit_stmts(&i.then_branch);
                    if i.else_branch.is_empty() {
                        self.patch(branch_at);
                    } else {
                        let jump_at = self.insts.len();
                        self.insts.push(Inst::Jump(0));
                        self.patch(branch_at);
                        self.emit_stmts(&i.else_branch);
                        self.patch(jump_at);
                    }
                }
                Stmt::Loop(l) => self.emit_loop(l),
            }
        }
    }
}

/// Compiles a statement list (typically a whole procedure body or one
/// region-loop body) into flat bytecode.
pub fn lower(vars: &VarTable, layout: &Layout, stmts: &[Stmt]) -> LoweredProc {
    lower_with_ranges(vars, layout, stmts, &[])
}

/// [`lower`] with known intervals for externally bound index variables
/// (e.g. the region-loop index a simulator segment is executed under),
/// enabling in-bounds subscript proofs that mention them.
pub fn lower_with_ranges(
    vars: &VarTable,
    layout: &Layout,
    stmts: &[Stmt],
    index_ranges: &[(VarId, (i64, i64))],
) -> LoweredProc {
    lower_guarded(vars, layout, None, stmts, index_ranges)
}

/// [`lower_with_ranges`] preceded by `guard`, a segment's WHILE
/// continuation check, compiled as the first statement unit.
fn lower_guarded(
    vars: &VarTable,
    layout: &Layout,
    guard: Option<&Expr>,
    stmts: &[Stmt],
    index_ranges: &[(VarId, (i64, i64))],
) -> LoweredProc {
    let mut ranges = vec![None; vars.len()];
    for (v, r) in index_ranges {
        ranges[v.index()] = Some(*r);
    }
    let mut lw = Lowerer {
        vars,
        layout,
        insts: Vec::new(),
        refs: Vec::new(),
        loops: Vec::new(),
        addr_regs: Vec::new(),
        loop_ctx: Vec::new(),
        ranges,
        depth: 0,
        max_stack: 0,
        max_loops: 0,
    };
    if let Some(c) = guard {
        let src = lw.emit_operand(c);
        lw.insts.push(Inst::RGuard { src });
    }
    lw.emit_stmts(stmts);
    lw.insts.push(Inst::End);
    debug_assert_eq!(lw.depth, 0, "every unit leaves the stack empty");
    debug_assert!(lw.loop_ctx.is_empty(), "loop contexts balanced");
    LoweredProc {
        insts: lw.insts,
        refs: lw.refs,
        loops: lw.loops,
        addr_regs: lw.addr_regs,
        env_len: vars.len(),
        max_stack: lw.max_stack,
        max_loops: lw.max_loops,
    }
}

/// Which part of a region-split procedure a cached [`LoweredProc`] was
/// compiled from. Together with the procedure identity and the region
/// label this pins down the exact lowering inputs (statement list and
/// index ranges), so equal keys always map to interchangeable bytecode.
/// Each unit has exactly one compiled form (see [`LowerUnit::fuses`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LowerUnit {
    /// The whole procedure body (sequential interpretation, no region
    /// split; the key's region label is empty).
    WholeProcedure,
    /// The whole region loop statement (the sequential baseline runs it).
    RegionLoop,
    /// The region loop's body — one speculative segment — lowered with the
    /// region index's value interval supplied for in-bounds proofs. A WHILE
    /// region's continuation check compiles ahead of the body as the
    /// segment's first statement unit.
    RegionBody,
    /// The top-level statements `start..end` of the procedure body, a
    /// serial span of a schedule (the key's region label is empty). The
    /// range pins down the statement list for an immutable procedure.
    SerialSpan {
        /// Index of the span's first statement.
        start: usize,
        /// Index one past the span's last statement.
        end: usize,
    },
}

impl LowerUnit {
    /// Whether the unit's one compiled form runs [`fused::fuse`] over the
    /// [`lower`] output. Units that repeat fuse: a region body runs once
    /// per segment attempt, and a region loop or a whole procedure
    /// iterates. Serial spans (the statements before, between and after
    /// regions) run once per call, so fusing them would cost more compile
    /// time than it saves; they stay plain bytecode.
    pub fn fuses(self) -> bool {
        matches!(
            self,
            LowerUnit::WholeProcedure | LowerUnit::RegionLoop | LowerUnit::RegionBody
        )
    }
}

/// Key of one [`LoweredCache`] entry: *which procedure*
/// ([`Procedure::uid`], process-unique and shared by clones), *which
/// region* (the loop label the procedure is split at), which *unit* of
/// the split — plus a structural **fingerprint** of the procedure's
/// symbol table and body.
///
/// Procedures are documented immutable after construction. **Debug builds
/// enforce that structurally**: the key then also carries a fingerprint of
/// the lowering inputs, so code that mutates a procedure after it has been
/// cached maps to a *different* key and recompiles instead of being served
/// stale bytecode — every debug test run (including the 1024-program
/// differential suite) validates the convention. Release builds omit the
/// fingerprint: the walk is linear in the procedure size and would tax
/// exactly the repeated-simulation path the cache exists to speed up.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LowerKey {
    /// The owning procedure's [`Procedure::uid`].
    pub proc_uid: u64,
    /// Label of the region loop the procedure is split at.
    pub region: String,
    /// Which unit of the split this entry holds.
    pub unit: LowerUnit,
    /// Structural fingerprint of the procedure's lowering inputs (symbol
    /// table and whole body) — debug builds only, see the type-level docs.
    #[cfg(debug_assertions)]
    pub fingerprint: u64,
}

impl LowerKey {
    /// Convenience constructor (in debug builds, fingerprints the
    /// procedure — a fast arithmetic walk, much cheaper than lowering).
    pub fn new(proc: &Procedure, region: impl Into<String>, unit: LowerUnit) -> Self {
        LowerKey {
            proc_uid: proc.uid(),
            region: region.into(),
            unit,
            #[cfg(debug_assertions)]
            fingerprint: fingerprint_procedure(&proc.vars, &proc.body),
        }
    }
}

/// SplitMix64-style streaming mixer for the structural fingerprint.
#[cfg(debug_assertions)]
struct Fingerprint(u64);

#[cfg(debug_assertions)]
impl Fingerprint {
    fn mix(&mut self, x: u64) {
        let mut z = (self.0 ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn affine(&mut self, e: &AffineExpr) {
        self.mix(0xA0);
        self.mix(e.constant as u64);
        for &(v, c) in &e.terms {
            self.mix(v.index() as u64);
            self.mix(c as u64);
        }
    }

    fn reference(&mut self, r: &Reference) {
        self.mix(0xB0);
        self.mix(r.id.index() as u64);
        self.mix(r.var.index() as u64);
        for s in &r.subs {
            match s {
                Subscript::Affine(e) => self.affine(e),
                Subscript::Indirect(inner) => {
                    self.mix(0xB1);
                    self.reference(inner);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(c) => {
                self.mix(0xC0);
                self.mix(c.to_bits());
            }
            Expr::Index(v) => {
                self.mix(0xC1);
                self.mix(v.index() as u64);
            }
            Expr::Load(r) => {
                self.mix(0xC2);
                self.reference(r);
            }
            Expr::Neg(a) => {
                self.mix(0xC3);
                self.expr(a);
            }
            Expr::Bin(op, a, b) => {
                self.mix(0xC4 + *op as u64);
                self.expr(a);
                self.expr(b);
            }
            Expr::Cmp(op, a, b) => {
                self.mix(0xD4 + *op as u64);
                self.expr(a);
                self.expr(b);
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        self.mix(stmts.len() as u64);
        for s in stmts {
            match s {
                Stmt::Assign(a) => {
                    self.mix(0xE0);
                    self.reference(&a.lhs);
                    self.expr(&a.rhs);
                }
                Stmt::If(i) => {
                    self.mix(0xE1);
                    self.expr(&i.cond);
                    self.stmts(&i.then_branch);
                    self.stmts(&i.else_branch);
                }
                Stmt::Loop(l) => {
                    self.mix(0xE2);
                    self.mix(l.index.index() as u64);
                    self.affine(&l.lower);
                    self.affine(&l.upper);
                    self.mix(l.step as u64);
                    if let Some(c) = &l.while_cond {
                        self.mix(0xE3);
                        self.expr(c);
                    }
                    self.stmts(&l.body);
                }
            }
        }
    }
}

/// Structural fingerprint of everything lowering reads: the symbol table
/// (kinds, dims and parameter values drive the [`Layout`] and compile-time
/// folding) and the statement body. Variable *names* are excluded — they
/// never influence generated code.
///
/// Public (in debug builds) so other derived-artifact caches keyed on
/// procedure identity — e.g. the analysis cache in `refidem_core` — can
/// enforce the same "equal key ⇒ identical IR" convention with the same
/// fingerprint.
#[cfg(debug_assertions)]
pub fn fingerprint_procedure(vars: &VarTable, stmts: &[Stmt]) -> u64 {
    use crate::var::VarKind;
    let mut fp = Fingerprint(0x5157_5ea6_14db_a9a1);
    fp.mix(vars.len() as u64);
    for (_, info) in vars.iter() {
        match &info.kind {
            VarKind::Scalar => fp.mix(1),
            VarKind::Array { dims } => {
                fp.mix(2);
                fp.mix(dims.len() as u64);
                for &d in dims {
                    fp.mix(d as u64);
                }
            }
            VarKind::Index => fp.mix(3),
            VarKind::Param(v) => {
                fp.mix(4);
                fp.mix(*v as u64);
            }
        }
    }
    fp.stmts(stmts);
    fp.0
}

/// A keyed, shareable cache of compiled [`LoweredProc`]s — what makes
/// repeated simulations of the same region (capacity ladders, processor
/// sweeps, differential suites) *compile once and iterate cheap*.
///
/// [`LoweredCache::default`] returns the **process-global** cache, so two
/// independently-constructed `SimConfig`s — e.g. one per capacity point of
/// a sweep — still share compiled code. Use [`KeyedCache::fresh`] for an
/// isolated cache (tests, memory-sensitive embedders). The cache is a
/// bounded LRU (see [`KeyedCache`]).
///
/// Entries are keyed by [`LowerKey`]: procedure identity — procedures are
/// immutable after construction, so equal keys mean identical IR — plus,
/// in debug builds, a structural fingerprint that *enforces* that
/// convention (a mutated procedure maps to a new key and recompiles).
///
/// ```
/// use refidem_ir::build::{ac, av, num, ProcBuilder};
/// use refidem_ir::lowered::{LowerKey, LowerUnit, LoweredCache};
/// use refidem_ir::memory::Layout;
///
/// let mut b = ProcBuilder::new("p");
/// let a = b.array("a", &[8]);
/// let k = b.index("k");
/// let s = b.assign_elem(a, vec![av(k)], num(1.0));
/// let body = vec![b.do_loop_labeled("L", k, ac(1), ac(8), vec![s])];
/// let proc = b.build(body);
///
/// let cache = LoweredCache::fresh();
/// let key = LowerKey::new(&proc, "L", LowerUnit::RegionLoop);
/// let layout = Layout::new(&proc.vars);
/// let first = cache.compile(key.clone(), &proc.vars, &layout, None, &proc.body, &[]);
/// assert!(!first.hit, "first lookup compiles");
/// assert!(first.value.superinst_count() > 0, "a region loop is fused");
/// let second = cache.compile(key, &proc.vars, &layout, None, &proc.body, &[]);
/// assert!(second.hit, "second lookup reuses the compiled bytecode");
/// assert!(std::sync::Arc::ptr_eq(&first.value, &second.value));
/// ```
pub type LoweredCache = KeyedCache<LowerKey, LoweredProc>;

impl Default for LoweredCache {
    /// The **process-global** cache handle (see the type-level docs).
    fn default() -> Self {
        static GLOBAL: std::sync::OnceLock<LoweredCache> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(LoweredCache::fresh).clone()
    }
}

impl LoweredCache {
    /// The process-global cache (same handle [`Default`] returns).
    pub fn global() -> Self {
        LoweredCache::default()
    }

    /// Returns the compiled form of `key`'s unit, compiling `stmts` on a
    /// miss: [`lower_with_ranges`], then [`fused::fuse`] when the unit
    /// fuses ([`LowerUnit::fuses`]). `guard` is a WHILE region's
    /// continuation check, compiled ahead of `stmts` as the first unit
    /// (the runtimes pass one for a [`LowerUnit::RegionBody`] only).
    /// `guard`, `stmts` and `index_ranges` must be the unit's lowering
    /// inputs, so equal keys compile identical bytecode.
    pub fn compile(
        &self,
        key: LowerKey,
        vars: &VarTable,
        layout: &Layout,
        guard: Option<&Expr>,
        stmts: &[Stmt],
        index_ranges: &[(VarId, (i64, i64))],
    ) -> Lookup<LoweredProc> {
        let fuses = key.unit.fuses();
        self.lookup(key, || {
            let base = lower_guarded(vars, layout, guard, stmts, index_ranges);
            if fuses {
                fused::fuse(&base)
            } else {
                base
            }
        })
    }
}

/// Runtime state of one active loop.
#[derive(Clone, Copy, Debug)]
struct LoopState {
    current: i64,
    last: i64,
}

/// The mutable buffers of a [`LoweredSegmentExec`]: its initial bindings,
/// index environment and bound flags, loop stack, value registers and
/// induction registers — everything an executor allocates.
///
/// One value is reusable across executors of any shape: [`new`] sizes the
/// buffers to its unit and resets them to a fresh executor's state, and
/// [`into_buffers`] hands them back. A caller that runs many executors
/// (the simulator, across regions, serial spans and calls) pools them;
/// one that does not passes [`ExecBuffers::default`], which allocates
/// nothing until `new` sizes it.
///
/// [`new`]: LoweredSegmentExec::new
/// [`into_buffers`]: LoweredSegmentExec::into_buffers
#[derive(Clone, Debug, Default)]
pub struct ExecBuffers {
    initial_env: Vec<(VarId, i64)>,
    env: Vec<i64>,
    bound: Vec<bool>,
    loop_stack: Vec<LoopState>,
    stack: Vec<f64>,
    ind_addrs: Vec<i64>,
}

impl ExecBuffers {
    /// The addresses of the buffers' heap allocations, in a fixed order:
    /// what a pool's reuse is checked against (an unallocated buffer shows
    /// its dangling placeholder).
    pub fn heap_addrs(&self) -> [usize; 6] {
        [
            self.initial_env.as_ptr() as usize,
            self.env.as_ptr() as usize,
            self.bound.as_ptr() as usize,
            self.loop_stack.as_ptr() as usize,
            self.stack.as_ptr() as usize,
            self.ind_addrs.as_ptr() as usize,
        ]
    }
}

/// A resumable executor over a [`LoweredProc`] — the fast-path counterpart
/// of [`SegmentExec`](crate::exec::SegmentExec), with the identical
/// step/rollback contract: `step` executes one statement unit through a
/// [`DataStore`], `reset` rewinds to the initial bindings for re-execution
/// after a roll-back, `restart` re-targets the executor at another
/// segment's bindings, `steps` counts executed units, and `exited` reports
/// a failed segment continuation check.
#[derive(Clone, Debug)]
pub struct LoweredSegmentExec<'p> {
    prog: &'p LoweredProc,
    initial_env: Vec<(VarId, i64)>,
    env: Vec<i64>,
    bound: Vec<bool>,
    loop_stack: Vec<LoopState>,
    stack: Vec<f64>,
    /// Induction address registers (see [`AddrRegPlan`]): re-initialized
    /// from the closed form every time their owning loop is entered, so a
    /// `reset` (segment roll-back) needs no explicit clearing.
    ind_addrs: Vec<i64>,
    pc: usize,
    steps: usize,
    /// The segment's continuation check failed in this attempt.
    exited: bool,
}

impl<'p> LoweredSegmentExec<'p> {
    /// Creates an executor with the given initial index bindings (e.g. the
    /// region-loop index of the segment), on `bufs` — pooled buffers from
    /// an earlier executor of any unit, or [`ExecBuffers::default`]. Either
    /// way the executor starts from the same state: every buffer is sized
    /// to `prog` and cleared.
    pub fn new(prog: &'p LoweredProc, initial_env: &[(VarId, i64)], bufs: ExecBuffers) -> Self {
        let ExecBuffers {
            initial_env: mut bindings,
            mut env,
            mut bound,
            mut loop_stack,
            mut stack,
            mut ind_addrs,
        } = bufs;
        bindings.clear();
        bindings.extend_from_slice(initial_env);
        env.clear();
        env.resize(prog.env_len, 0);
        bound.clear();
        bound.resize(prog.env_len, false);
        loop_stack.clear();
        loop_stack.reserve(prog.max_loops);
        // Fixed-size scratch: every instruction names its registers, and
        // the compiler knows how many any statement unit uses.
        stack.clear();
        stack.resize(prog.max_stack, 0.0);
        ind_addrs.clear();
        ind_addrs.resize(prog.addr_regs.len(), 0);
        let mut exec = LoweredSegmentExec {
            prog,
            initial_env: bindings,
            env,
            bound,
            loop_stack,
            stack,
            ind_addrs,
            pc: 0,
            steps: 0,
            exited: false,
        };
        exec.reset();
        exec
    }

    /// Ends the executor and hands its buffers back for the next one (see
    /// [`ExecBuffers`]).
    pub fn into_buffers(self) -> ExecBuffers {
        ExecBuffers {
            initial_env: self.initial_env,
            env: self.env,
            bound: self.bound,
            loop_stack: self.loop_stack,
            stack: self.stack,
            ind_addrs: self.ind_addrs,
        }
    }

    /// Re-targets the executor at a new segment: replaces the initial
    /// bindings and resets. Reuses all allocations, so an engine can run
    /// every segment of a processor slot on one executor.
    pub fn restart(&mut self, initial_env: &[(VarId, i64)]) {
        self.initial_env.clear();
        self.initial_env.extend_from_slice(initial_env);
        self.reset();
    }

    /// Restores the executor to its initial state (used for re-execution
    /// after a roll-back). Reuses all allocations.
    pub fn reset(&mut self) {
        self.bound.iter_mut().for_each(|b| *b = false);
        for (v, value) in &self.initial_env {
            self.env[v.index()] = *value;
            self.bound[v.index()] = true;
        }
        self.loop_stack.clear();
        self.pc = 0;
        self.steps = 0;
        self.exited = false;
    }

    /// True when the executor has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.prog.insts[self.pc], Inst::End)
    }

    /// Number of statement units executed since the last reset.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// True when the segment's continuation check failed in this attempt
    /// (see [`SegmentExec::exited`](crate::exec::SegmentExec::exited)).
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Resolves the address of a reference plan, performing any indirect
    /// subscript reads through the store (same order as the tree-walk:
    /// subscripts left to right, nested reads before their parent).
    fn addr_of(&self, plan: &RefPlan, store: &mut impl DataStore) -> Result<Addr, ExecError> {
        match plan {
            RefPlan::Scalar { addr, .. } => Ok(Addr(*addr)),
            RefPlan::Induction { reg, .. } => {
                let addr = self.ind_addrs[*reg as usize];
                debug_assert_eq!(
                    addr,
                    self.prog.addr_regs[*reg as usize]
                        .closed
                        .eval_bound(&self.env),
                    "induction address register diverged from its closed form"
                );
                debug_assert!(addr >= 0, "in-bounds proof guarantees a valid address");
                Ok(Addr(addr as u64))
            }
            RefPlan::Fused { plan, .. } => {
                let addr = plan.eval_bound(&self.env);
                debug_assert!(addr >= 0, "in-bounds proof guarantees a valid address");
                Ok(Addr(addr as u64))
            }
            RefPlan::Dim1 {
                base,
                sub,
                extent,
                stride,
                ..
            } => {
                let s = sub.eval(&self.env, &self.bound)?;
                let idx = (s - 1).clamp(0, extent - 1) as u64;
                Ok(Addr(base + idx * stride))
            }
            RefPlan::General {
                base, subs, dims, ..
            } => {
                let mut offset = 0u64;
                for (i, sub) in subs.iter().enumerate() {
                    let s = match sub {
                        SubPlan::Affine(a) => a.eval(&self.env, &self.bound)?,
                        SubPlan::Indirect(inner) => {
                            let addr = self.addr_of(inner, store)?;
                            store.read(inner.site(), addr).round() as i64
                        }
                    };
                    if let Some(&(extent, stride)) = dims.get(i) {
                        let idx = (s - 1).clamp(0, extent - 1) as u64;
                        offset += idx * stride;
                    }
                }
                Ok(Addr(base + offset))
            }
        }
    }

    /// Reads reference `r` through the store, pinning `pc` on error so the
    /// failing unit can be identified.
    #[inline]
    fn read_ref(
        &mut self,
        r: u32,
        pc: usize,
        store: &mut impl DataStore,
    ) -> Result<f64, ExecError> {
        let plan = &self.prog.refs[r as usize];
        match self.addr_of(plan, store) {
            Ok(addr) => Ok(store.read(plan.site(), addr)),
            Err(e) => {
                self.pc = pc;
                Err(e)
            }
        }
    }

    /// Writes `value` to reference `r` through the store, pinning `pc` on
    /// error (same contract as [`Self::read_ref`]).
    #[inline]
    fn write_ref(
        &mut self,
        r: u32,
        value: f64,
        pc: usize,
        store: &mut impl DataStore,
    ) -> Result<(), ExecError> {
        let plan = &self.prog.refs[r as usize];
        match self.addr_of(plan, store) {
            Ok(addr) => {
                store.write(plan.site(), addr, value);
                Ok(())
            }
            Err(e) => {
                self.pc = pc;
                Err(e)
            }
        }
    }

    /// Executes one statement unit. Returns `Ok(true)` when more work
    /// remains, `Ok(false)` when the segment has finished.
    pub fn step(&mut self, store: &mut impl DataStore) -> Result<bool, ExecError> {
        let prog = self.prog;
        let mut pc = self.pc;
        loop {
            match prog.insts[pc] {
                Inst::RConst { dst, v } => {
                    self.stack[dst as usize] = v;
                    pc += 1;
                }
                Inst::RIndex { dst, slot } => {
                    let i = slot as usize;
                    if !self.bound[i] {
                        self.pc = pc;
                        return Err(ExecError::UnboundVariable(VarId::from_index(i)));
                    }
                    self.stack[dst as usize] = self.env[i] as f64;
                    pc += 1;
                }
                Inst::RLoad { dst, r } => {
                    self.stack[dst as usize] = self.read_ref(r, pc, store)?;
                    pc += 1;
                }
                Inst::RNeg { dst } => {
                    self.stack[dst as usize] = -self.stack[dst as usize];
                    pc += 1;
                }
                Inst::RBin { op, dst } => {
                    let d = dst as usize;
                    self.stack[d] = apply_bin(op, self.stack[d], self.stack[d + 1]);
                    pc += 1;
                }
                Inst::RCmp { op, dst } => {
                    let d = dst as usize;
                    self.stack[d] = if op.apply(self.stack[d], self.stack[d + 1]) {
                        1.0
                    } else {
                        0.0
                    };
                    pc += 1;
                }
                Inst::RStore { r, src } => {
                    let value = self.stack[src as usize];
                    self.write_ref(r, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RBranch { target, src } => {
                    let cond = self.stack[src as usize];
                    self.pc = if cond != 0.0 { pc + 1 } else { target as usize };
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RWhileBranch { l, src } => {
                    let cond = self.stack[src as usize];
                    if cond != 0.0 {
                        self.pc = pc + 1;
                    } else {
                        let plan = &prog.loops[l as usize];
                        self.loop_stack.pop().expect("active loop");
                        self.pc = plan.exit as usize;
                    }
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RGuard { src } => {
                    self.steps += 1;
                    self.exited = self.stack[src as usize] == 0.0;
                    self.pc = if self.exited {
                        prog.insts.len() - 1
                    } else {
                        pc + 1
                    };
                    return Ok(!self.exited);
                }
                Inst::LoopEnter(l) => {
                    let plan = &prog.loops[l as usize];
                    let bounds = plan
                        .lower
                        .eval(&self.env, &self.bound)
                        .and_then(|lo| plan.upper.eval(&self.env, &self.bound).map(|hi| (lo, hi)));
                    let (lower, upper) = match bounds {
                        Ok(b) => b,
                        Err(e) => {
                            self.pc = pc;
                            return Err(e);
                        }
                    };
                    if LoopStmt::trip_count(lower, upper, plan.step) == 0 {
                        self.pc = plan.exit as usize;
                    } else {
                        self.env[plan.index_slot as usize] = lower;
                        self.bound[plan.index_slot as usize] = true;
                        // Initialize this loop's induction address registers
                        // from their closed form under the first-trip
                        // environment (also what makes re-entry after a
                        // roll-back `reset` safe).
                        for &r in plan.regs.iter() {
                            self.ind_addrs[r as usize] =
                                prog.addr_regs[r as usize].closed.eval_bound(&self.env);
                        }
                        // In-body-advanced registers start one delta early
                        // so the first `RAdvLoad` lands on the closed form.
                        for &r in plan.pre_regs.iter() {
                            let ar = &prog.addr_regs[r as usize];
                            self.ind_addrs[r as usize] = ar.closed.eval_bound(&self.env) - ar.delta;
                        }
                        self.loop_stack.push(LoopState {
                            current: lower,
                            last: upper,
                        });
                        self.pc = plan.body as usize;
                    }
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::Jump(target) => pc = target as usize,
                Inst::LoopBack(l) => {
                    let plan = &prog.loops[l as usize];
                    let state = self.loop_stack.last_mut().expect("active loop");
                    state.current += plan.step;
                    let done = if plan.step > 0 {
                        state.current > state.last
                    } else {
                        state.current < state.last
                    };
                    if done {
                        self.loop_stack.pop();
                        pc = plan.exit as usize;
                    } else {
                        self.env[plan.index_slot as usize] = state.current;
                        // Advance the loop's induction address registers by
                        // their per-trip constant.
                        for &r in plan.regs.iter() {
                            self.ind_addrs[r as usize] += prog.addr_regs[r as usize].delta;
                        }
                        pc = plan.body as usize;
                    }
                }
                Inst::End => {
                    self.pc = pc;
                    return Ok(false);
                }

                // ----- fused-tier superinstructions --------------------
                Inst::RLoadBin { r, op, dst } => {
                    let y = self.read_ref(r, pc, store)?;
                    let d = dst as usize;
                    self.stack[d] = apply_bin(op, self.stack[d], y);
                    pc += 1;
                }
                Inst::RConstBin { v, op, dst } => {
                    let d = dst as usize;
                    self.stack[d] = apply_bin(op, self.stack[d], v);
                    pc += 1;
                }
                Inst::RLoadConstBin { r, v, op, dst } => {
                    let x = self.read_ref(r, pc, store)?;
                    self.stack[dst as usize] = apply_bin(op, x, v);
                    pc += 1;
                }
                Inst::RBinStore { op, r, dst } => {
                    let d = dst as usize;
                    let value = apply_bin(op, self.stack[d], self.stack[d + 1]);
                    self.write_ref(r, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RLoadBinStore { rl, op, rs, dst } => {
                    let y = self.read_ref(rl, pc, store)?;
                    let value = apply_bin(op, self.stack[dst as usize], y);
                    self.write_ref(rs, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RConstBinStore { v, op, r, dst } => {
                    let value = apply_bin(op, self.stack[dst as usize], v);
                    self.write_ref(r, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RLoadStore { rl, rs } => {
                    let value = self.read_ref(rl, pc, store)?;
                    self.write_ref(rs, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RConstStore { v, r } => {
                    self.write_ref(r, v, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RMulAdd { dst } => {
                    let d = dst as usize;
                    // Two roundings, same operand order as Mul-then-Add.
                    let t = self.stack[d + 1] * self.stack[d + 2];
                    self.stack[d] += t;
                    pc += 1;
                }
                Inst::RLoad2ConstBin { ra, rb, v, op, dst } => {
                    let a = self.read_ref(ra, pc, store)?;
                    let b = self.read_ref(rb, pc, store)?;
                    let d = dst as usize;
                    self.stack[d] = a;
                    self.stack[d + 1] = apply_bin(op, b, v);
                    pc += 1;
                }
                Inst::RLoad2ConstBinStore {
                    ra,
                    rb,
                    v,
                    opb,
                    op,
                    rs,
                } => {
                    let a = self.read_ref(ra, pc, store)?;
                    let b = self.read_ref(rb, pc, store)?;
                    let value = apply_bin(op, a, apply_bin(opb, b, v));
                    self.write_ref(rs, value, pc, store)?;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::RAdvLoad { dst, r } => {
                    let plan = &prog.refs[r as usize];
                    let RefPlan::Induction { reg, .. } = plan else {
                        unreachable!("RAdvLoad targets induction refs only")
                    };
                    let ri = *reg as usize;
                    self.ind_addrs[ri] += prog.addr_regs[ri].delta;
                    let addr = self.ind_addrs[ri];
                    debug_assert_eq!(
                        addr,
                        prog.addr_regs[ri].closed.eval_bound(&self.env),
                        "advanced induction register diverged from its closed form"
                    );
                    debug_assert!(addr >= 0, "in-bounds proof guarantees a valid address");
                    self.stack[dst as usize] = store.read(plan.site(), Addr(addr as u64));
                    pc += 1;
                }

                // ----- fused-tier peeled loops -------------------------
                Inst::PeelEnter { slot, value } => {
                    self.env[slot as usize] = value;
                    self.bound[slot as usize] = true;
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
                Inst::Rebind { slot, value } => {
                    self.env[slot as usize] = value;
                    pc += 1;
                }
                Inst::PeelNop => {
                    self.pc = pc + 1;
                    self.steps += 1;
                    return Ok(true);
                }
            }
        }
    }

    /// Runs to completion (bounded by `max_steps` statement units).
    pub fn run(&mut self, store: &mut impl DataStore, max_steps: usize) -> Result<(), ExecError> {
        let mut executed = 0usize;
        while self.step(store)? {
            executed += 1;
            if executed > max_steps {
                return Err(ExecError::StepLimitExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ac, add, av, cmp, idx, mul, num, sub, ProcBuilder};
    use crate::exec::PlainStore;
    use crate::memory::Memory;
    use fused::tests::assert_fused_agrees;

    #[test]
    fn sum_loop_matches_tree_walk() {
        let mut b = ProcBuilder::new("sum");
        let a = b.array("a", &[8]);
        let s = b.scalar("s");
        let k = b.index("k");
        let s1 = b.assign_elem(a, vec![av(k)], idx(k));
        let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
        let s2 = b.assign_scalar(s, rhs);
        let body = vec![b.do_loop(k, ac(1), ac(5), vec![s1, s2])];
        assert_fused_agrees(&b.build(body));
    }

    #[test]
    fn conditionals_nested_loops_and_else_branches_match() {
        // do i = 1, 6 { if (i >= 3) then c = c + i else c = c - 1 ;
        //               do j = 1, i { a(j) = a(j) + c } }
        let mut b = ProcBuilder::new("cond");
        let a = b.array("a", &[8]);
        let c = b.scalar("c");
        let i = b.index("i");
        let j = b.index("j");
        let then_assign = {
            let rhs = add(b.load(c), idx(i));
            b.assign_scalar(c, rhs)
        };
        let else_assign = {
            let rhs = sub(b.load(c), num(1.0));
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
    }

    #[test]
    fn descending_and_zero_trip_loops_match() {
        let mut b = ProcBuilder::new("desc");
        let s = b.scalar("s");
        let k = b.index("k");
        let a1 = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let a2 = {
            let rhs = mul(b.load(s), num(2.0));
            b.assign_scalar(s, rhs)
        };
        let body = vec![
            b.do_loop_step(None, k, ac(5), ac(1), -1, vec![a1]),
            b.do_loop(k, ac(3), ac(2), vec![a2]), // zero-trip
        ];
        assert_fused_agrees(&b.build(body));
    }

    #[test]
    fn multi_dimensional_subscripts_and_params_match() {
        let mut b = ProcBuilder::new("md");
        let n = b.param("n", 4);
        let v = b.array("v", &[4, 4]);
        let i = b.index("i");
        let j = b.index("j");
        let assign = {
            let rhs = add(idx(i), mul(idx(j), num(10.0)));
            b.assign_elem(v, vec![av(i), av(j)], rhs)
        };
        let inner = b.do_loop(j, ac(1), av(n), vec![assign]);
        let body = vec![b.do_loop(i, ac(1), av(n), vec![inner])];
        assert_fused_agrees(&b.build(body));
    }

    #[test]
    fn indirect_subscripts_match() {
        // idx(k) holds a permutation; a(idx(k)) = k reads idx(k) then writes.
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
        let use_loop = b.do_loop(k, ac(1), ac(8), vec![write]);
        assert_fused_agrees(&b.build(vec![init_loop, use_loop]));
    }

    #[test]
    fn while_loops_match_tree_walk() {
        // s starts at 0; while (s <= 3) { s = s + 1; a(k) = s } capped at
        // 10 trips — the condition fails after 4 iterations, well before
        // the counted bound. Every cond evaluation is one statement unit
        // in both backends.
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
        assert_fused_agrees(&b.build(body));
    }

    #[test]
    fn while_loop_with_false_initial_cond_and_zero_trip_cap_matches() {
        // First while: cond false on entry — exits after one cond unit.
        // Second while: counted range empty — exits at loop enter with no
        // cond evaluation at all.
        let mut b = ProcBuilder::new("wh0");
        let s = b.scalar("s");
        let k = b.index("k");
        let a1 = {
            let rhs = add(b.load(s), num(1.0));
            b.assign_scalar(s, rhs)
        };
        let a2 = {
            let rhs = add(b.load(s), num(10.0));
            b.assign_scalar(s, rhs)
        };
        let never = cmp(CmpOp::Ge, b.load(s), num(99.0));
        let always = cmp(CmpOp::Ge, num(1.0), num(0.0));
        let body = vec![
            b.while_loop_labeled("W1", k, ac(1), ac(5), never, vec![a1]),
            b.while_loop_labeled("W2", k, ac(3), ac(2), always, vec![a2]),
        ];
        assert_fused_agrees(&b.build(body));
    }

    /// Lowers a procedure body and returns the compiled form (test helper
    /// for inspecting strength-reduction decisions).
    fn lowered_of(proc: &Procedure) -> LoweredProc {
        let layout = Layout::new(&proc.vars);
        lower(&proc.vars, &layout, &proc.body)
    }

    #[test]
    fn strength_reduction_covers_negative_strides() {
        // A descending loop (negative step) AND a negative coefficient in
        // the same program: do k = 8, 1, -1 { a(k) = a(9-k) + k }. Both
        // subscripts are provably in bounds, so both strength-reduce — one
        // register advances by -1 per trip, the other by +1.
        let mut b = ProcBuilder::new("negstride");
        let a = b.array("a", &[8]);
        let k = b.index("k");
        let rhs = add(b.load_elem(a, vec![ac(9) - av(k)]), idx(k));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_step(None, k, ac(8), ac(1), -1, vec![s])];
        let proc = b.build(body);
        assert_eq!(
            lowered_of(&proc).induction_reduced_refs(),
            2,
            "both in-bounds affine subscripts strength-reduce"
        );
        assert_fused_agrees(&proc);
    }

    #[test]
    fn strength_reduction_covers_coupled_subscripts() {
        // a(i + j) couples both loop indices: the register belongs to the
        // *inner* loop (the deepest variable of the address), advances by
        // the inner step per trip, and is re-initialized — picking up the
        // new `i` — every time the inner loop re-enters.
        let mut b = ProcBuilder::new("coupled");
        let a = b.array("a", &[12]);
        let i = b.index("i");
        let j = b.index("j");
        let assign = {
            let rhs = add(b.load_elem(a, vec![av(i) + av(j)]), num(1.0));
            b.assign_elem(a, vec![av(i) + av(j)], rhs)
        };
        let inner = b.do_loop(j, ac(1), ac(4), vec![assign]);
        let body = vec![b.do_loop(i, ac(1), ac(4), vec![inner])];
        let proc = b.build(body);
        assert_eq!(lowered_of(&proc).induction_reduced_refs(), 2);
        assert_fused_agrees(&proc);
    }

    #[test]
    fn strength_reduction_covers_triangular_inner_loops() {
        // do i = 1, 6 { do j = 1, i { a(j) = a(j) + b(i) } }: the inner
        // trip count varies per outer trip; a(j) reduces against the inner
        // loop, b(i) against the outer loop (its address is inner-loop
        // invariant).
        let mut b = ProcBuilder::new("tri");
        let a = b.array("a", &[6]);
        let bb = b.array("b", &[6]);
        let i = b.index("i");
        let j = b.index("j");
        let assign = {
            let rhs = add(b.load_elem(a, vec![av(j)]), b.load_elem(bb, vec![av(i)]));
            b.assign_elem(a, vec![av(j)], rhs)
        };
        let inner = b.do_loop(j, ac(1), av(i), vec![assign]);
        let body = vec![b.do_loop(i, ac(1), ac(6), vec![inner])];
        let proc = b.build(body);
        assert_eq!(
            lowered_of(&proc).induction_reduced_refs(),
            3,
            "a(j) twice against the inner loop, b(i) against the outer"
        );
        assert_fused_agrees(&proc);
    }

    #[test]
    fn strength_reduced_registers_survive_mid_segment_rollback_reentry() {
        // Interrupt an execution mid-loop (as a speculation roll-back
        // does), reset, and re-run to completion: the induction registers
        // must re-initialize at loop entry and produce a final memory
        // identical to an uninterrupted run.
        let mut b = ProcBuilder::new("rollback");
        let a = b.array("a", &[10]);
        let s = b.scalar("s");
        let k = b.index("k");
        let s1 = {
            let rhs = add(b.load_elem(a, vec![ac(11) - av(k)]), idx(k));
            b.assign_elem(a, vec![av(k)], rhs)
        };
        let s2 = {
            let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop(k, ac(1), ac(10), vec![s1, s2])];
        let proc = b.build(body);
        let layout = Layout::new(&proc.vars);
        let lowered = lower(&proc.vars, &layout, &proc.body);
        assert!(lowered.induction_reduced_refs() > 0);

        let init = |mem: &mut Memory| {
            for w in 0..layout.total_words() {
                mem.store(Addr(w), (w % 7) as f64);
            }
        };

        // Uninterrupted reference run.
        let mut mem_ref = Memory::zeroed(&layout);
        init(&mut mem_ref);
        let mut exec = LoweredSegmentExec::new(&lowered, &[], ExecBuffers::default());
        exec.run(&mut PlainStore::new(&mut mem_ref), 10_000)
            .unwrap();

        // Interrupted run: execute half the units into a scratch memory
        // (the speculative buffer a roll-back discards), then reset and
        // replay against a pristine copy.
        let mut scratch = Memory::zeroed(&layout);
        init(&mut scratch);
        let mut exec = LoweredSegmentExec::new(&lowered, &[], ExecBuffers::default());
        {
            let mut store = PlainStore::new(&mut scratch);
            for _ in 0..9 {
                assert!(exec.step(&mut store).unwrap(), "still mid-segment");
            }
        }
        exec.reset();
        let mut mem_replay = Memory::zeroed(&layout);
        init(&mut mem_replay);
        exec.run(&mut PlainStore::new(&mut mem_replay), 10_000)
            .unwrap();

        let diffs = mem_ref.diff(&mem_replay, 10);
        assert!(diffs.is_empty(), "re-entry diverged: {diffs:?}");
    }

    #[test]
    fn shadowed_induction_variables_are_not_strength_reduced() {
        // A pathological nest reusing the same index variable at two levels:
        // do k = 1, 3 { do k = 1, 2 { a(k) = a(k) + 1 } } — the inner loop
        // rebinds `k`, so no reference may reduce against the *outer* loop.
        // (The inner-loop reduction of a(k) is still fine.) The backends
        // must agree either way.
        let mut b = ProcBuilder::new("shadow");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let assign = {
            let rhs = add(b.load_elem(a, vec![av(k)]), num(1.0));
            b.assign_elem(a, vec![av(k)], rhs)
        };
        let inner = b.do_loop(k, ac(1), ac(2), vec![assign]);
        let body = vec![b.do_loop(k, ac(1), ac(3), vec![inner])];
        assert_fused_agrees(&b.build(body));
    }

    #[test]
    fn cache_compiles_once_per_key_in_the_unit_s_one_form() {
        let mut b = ProcBuilder::new("c1");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let s = b.assign_elem(a, vec![av(k)], idx(k));
        let body = vec![b.do_loop_labeled("R1", k, ac(1), ac(4), vec![s])];
        let p1 = b.build(body);

        let mut b = ProcBuilder::new("c2");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let s = b.assign_elem(a, vec![av(k)], num(2.0));
        let body = vec![b.do_loop_labeled("R2", k, ac(1), ac(4), vec![s])];
        let p2 = b.build(body);

        let cache = LoweredCache::fresh();
        let get = |proc: &Procedure, region: &str, unit: LowerUnit| {
            let layout = Layout::new(&proc.vars);
            let key = LowerKey::new(proc, region, unit);
            cache.compile(key, &proc.vars, &layout, None, &proc.body, &[])
        };

        // Same unit twice: exactly one compilation, shared storage.
        let first = get(&p1, "R1", LowerUnit::RegionLoop);
        let second = get(&p1, "R1", LowerUnit::RegionLoop);
        assert!(!first.hit && second.hit);
        assert!(std::sync::Arc::ptr_eq(&first.value, &second.value));

        // Distinct regions and distinct units get their own entries, each
        // in its unit's one form: repeating units fuse, serial spans not.
        let other = get(&p2, "R2", LowerUnit::RegionLoop);
        let span = get(&p1, "", LowerUnit::SerialSpan { start: 0, end: 1 });
        assert!(!other.hit && !span.hit);
        assert!(first.value.superinst_count() > 0);
        assert_eq!(span.value.superinst_count(), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (1, 3));
    }

    /// Builds a one-loop procedure whose region label is `name` (distinct
    /// labels give distinct cache keys for the same unit).
    fn labeled_proc(name: &str) -> Procedure {
        let mut b = ProcBuilder::new("lru");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let s = b.assign_elem(a, vec![av(k)], idx(k));
        let body = vec![b.do_loop_labeled(name, k, ac(1), ac(4), vec![s])];
        b.build(body)
    }

    fn lookup_region(cache: &LoweredCache, proc: &Procedure, region: &str) -> Lookup<LoweredProc> {
        let layout = Layout::new(&proc.vars);
        let key = LowerKey::new(proc, region, LowerUnit::RegionBody);
        cache.compile(key, &proc.vars, &layout, None, &proc.body, &[])
    }

    #[test]
    fn default_capacity_is_generous_and_unreached_by_ordinary_use() {
        let cache = LoweredCache::fresh();
        assert_eq!(cache.capacity(), LoweredCache::DEFAULT_CAPACITY);
        for i in 0..32 {
            let name = format!("R{i}");
            lookup_region(&cache, &labeled_proc(&name), &name);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 32);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn mutated_procedures_map_to_fresh_cache_keys() {
        let mut b = ProcBuilder::new("fp");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let s = b.assign_elem(a, vec![av(k)], num(1.0));
        let body = vec![b.do_loop_labeled("L", k, ac(1), ac(4), vec![s])];
        let proc = b.build(body);
        let key = LowerKey::new(&proc, "L", LowerUnit::RegionBody);
        // A clone with an untouched body shares the key (and thus the
        // cache entry)...
        let mut clone = proc.clone();
        assert_eq!(LowerKey::new(&clone, "L", LowerUnit::RegionBody), key);
        // ...but mutating the clone's body — a violation of the
        // immutable-after-construction convention — changes the
        // fingerprint, so the mutated form recompiles instead of being
        // served the original's bytecode.
        if let Stmt::Loop(l) = &mut clone.body[0] {
            l.step = 2;
        }
        assert_ne!(LowerKey::new(&clone, "L", LowerUnit::RegionBody), key);
    }

    #[test]
    fn unbound_variables_error_identically() {
        let mut b = ProcBuilder::new("unbound");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        let stmt = b.assign_elem(a, vec![av(k)], num(1.0));
        let proc = b.build(vec![stmt]);
        let layout = Layout::new(&proc.vars);
        let lowered = lower(&proc.vars, &layout, &proc.body);
        let mut mem = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem);
        let mut exec = LoweredSegmentExec::new(&lowered, &[], ExecBuffers::default());
        let err = exec.run(&mut store, 1000).unwrap_err();
        assert_eq!(err, ExecError::UnboundVariable(k));
    }

    #[test]
    fn reset_supports_reexecution_with_initial_env() {
        let mut b = ProcBuilder::new("seg");
        let a = b.array("a", &[8]);
        let s = b.scalar("s");
        let k = b.index("k");
        let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
        let proc_body = vec![b.assign_scalar(s, rhs)];
        let proc = b.build(proc_body);
        let layout = Layout::new(&proc.vars);
        let lowered = lower(&proc.vars, &layout, &proc.body);
        let mut mem = Memory::zeroed(&layout);
        mem.store(layout.element(a, &[3]), 7.0);
        let mut store = PlainStore::new(&mut mem);
        let mut exec = LoweredSegmentExec::new(&lowered, &[(k, 3)], ExecBuffers::default());
        exec.run(&mut store, 100).unwrap();
        assert!(exec.is_done());
        assert_eq!(exec.steps(), 1);
        exec.reset();
        assert!(!exec.is_done());
        let mut store = PlainStore::new(&mut mem);
        exec.run(&mut store, 100).unwrap();
        assert_eq!(mem.load(layout.scalar(s)), 14.0, "s += a(3) ran twice");
    }

    #[test]
    fn restart_mid_segment_matches_a_fresh_executor() {
        // The segment body of `do i = 1, 4`: an inner loop whose a(j, i)
        // and b(j) references strength-reduce to induction registers. An
        // executor interrupted inside the inner loop of segment i = 1 and
        // restarted at i = 3 must behave exactly like a fresh one built for
        // i = 3, on plain and fused bytecode alike.
        let mut b = ProcBuilder::new("restart");
        let a = b.array("a", &[12, 4]);
        let bb = b.array("b", &[12]);
        let s = b.scalar("s");
        let i = b.index("i");
        let j = b.index("j");
        let s1 = {
            let rhs = add(
                b.load_elem(a, vec![av(j), av(i)]),
                mul(b.load_elem(bb, vec![av(j)]), idx(i)),
            );
            b.assign_elem(a, vec![av(j), av(i)], rhs)
        };
        let s2 = {
            let rhs = add(b.load(s), b.load_elem(a, vec![av(j), av(i)]));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop(j, ac(1), ac(12), vec![s1, s2])];
        let proc = b.build(body);
        let layout = Layout::new(&proc.vars);
        let plain = lower_with_ranges(&proc.vars, &layout, &proc.body, &[(i, (1, 4))]);
        assert!(plain.induction_reduced_refs() > 0);
        let fused = fused::fuse(&plain);
        assert_eq!(fused.peeled_loop_count(), 0, "the inner loop stays a loop");

        let init = |mem: &mut Memory| {
            for w in 0..layout.total_words() {
                mem.store(Addr(w), (w % 5) as f64 + 0.5);
            }
        };
        let traced_run = |exec: &mut LoweredSegmentExec| {
            let mut mem = Memory::zeroed(&layout);
            init(&mut mem);
            let mut store = PlainStore::tracing(&mut mem);
            exec.run(&mut store, 10_000).unwrap();
            let trace: Vec<_> = store
                .trace
                .iter()
                .map(|e| (e.site, e.access, e.addr, e.value.to_bits()))
                .collect();
            (mem, trace)
        };
        for (name, prog) in [("plain", &plain), ("fused", &fused)] {
            let mut reused = LoweredSegmentExec::new(prog, &[(i, 1)], ExecBuffers::default());
            let mut scratch = Memory::zeroed(&layout);
            init(&mut scratch);
            let mut store = PlainStore::new(&mut scratch);
            for _ in 0..7 {
                assert!(reused.step(&mut store).unwrap(), "{name}: mid-segment");
            }
            assert!(!reused.loop_stack.is_empty(), "{name}: inner loop active");
            reused.restart(&[(i, 3)]);
            let (mem_reused, trace_reused) = traced_run(&mut reused);

            let mut fresh = LoweredSegmentExec::new(prog, &[(i, 3)], ExecBuffers::default());
            let (mem_fresh, trace_fresh) = traced_run(&mut fresh);

            assert_eq!(reused.steps(), fresh.steps(), "{name}: steps");
            assert_eq!(trace_reused, trace_fresh, "{name}: trace");
            let diffs = mem_fresh.diff(&mem_reused, 10);
            assert!(diffs.is_empty(), "{name}: memory diverged: {diffs:?}");
        }
    }
}
