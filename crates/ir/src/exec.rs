//! Execution of IR programs.
//!
//! Two consumers need to *run* IR code:
//!
//! * the sequential interpreter ([`SeqInterp`]), which provides the
//!   ground-truth final memory state ("the same value as in a sequential
//!   execution of the program", Definition 3) and the dynamic reference
//!   counts used by the evaluation, and
//! * the speculative-execution simulator in `refidem-specsim`, which runs
//!   each *segment* (loop iteration) against its own speculative storage and
//!   must be able to roll a segment back and re-execute it.
//!
//! Both are built on [`SegmentExec`], a resumable executor that runs a
//! statement list one statement at a time and performs every memory access
//! through a [`DataStore`]. The store decides where the access goes
//! (plain memory here; speculative or non-speculative storage in the
//! simulator) — exactly the routing decision the paper's labels control.

use crate::affine::AffineExpr;
use crate::expr::{BinOp, Expr, Reference, Subscript};
use crate::ids::{RefId, VarId};
use crate::lowered::{
    ExecBackend, ExecBuffers, LowerKey, LowerUnit, LoweredCache, LoweredProc, LoweredSegmentExec,
};
use crate::memory::{Addr, Layout, Memory};
use crate::program::Procedure;
use crate::sites::AccessKind;
use crate::stmt::{LoopStmt, Stmt};
use crate::var::VarTable;

/// Errors raised by the executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget was exhausted (defensive guard against runaway loops).
    StepLimitExceeded,
    /// A loop bound or subscript mentioned a variable with no binding.
    UnboundVariable(VarId),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepLimitExceeded => write!(f, "execution step limit exceeded"),
            ExecError::UnboundVariable(v) => write!(f, "unbound index/parameter variable {v}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One dynamic memory access, as recorded by tracing stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// The syntactic site that performed the access.
    pub site: RefId,
    /// Read or write.
    pub access: AccessKind,
    /// Accessed address.
    pub addr: Addr,
    /// Value read or written.
    pub value: f64,
}

/// The interface through which executing code touches memory.
pub trait DataStore {
    /// Performs a load issued by reference site `site`.
    fn read(&mut self, site: RefId, addr: Addr) -> f64;
    /// Performs a store issued by reference site `site`.
    fn write(&mut self, site: RefId, addr: Addr, value: f64);
}

/// A store that reads and writes a plain [`Memory`], optionally recording a
/// trace. Used for sequential ground-truth execution.
#[derive(Debug)]
pub struct PlainStore<'m> {
    memory: &'m mut Memory,
    record: bool,
    /// Recorded accesses (empty unless tracing was requested).
    pub trace: Vec<TraceEvent>,
}

impl<'m> PlainStore<'m> {
    /// A store without tracing.
    pub fn new(memory: &'m mut Memory) -> Self {
        PlainStore {
            memory,
            record: false,
            trace: Vec::new(),
        }
    }

    /// A store that records every access.
    pub fn tracing(memory: &'m mut Memory) -> Self {
        PlainStore {
            memory,
            record: true,
            trace: Vec::new(),
        }
    }
}

impl DataStore for PlainStore<'_> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        let value = self.memory.load(addr);
        if self.record {
            self.trace.push(TraceEvent {
                site,
                access: AccessKind::Read,
                addr,
                value,
            });
        }
        value
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        self.memory.store(addr, value);
        if self.record {
            self.trace.push(TraceEvent {
                site,
                access: AccessKind::Write,
                addr,
                value,
            });
        }
    }
}

/// Per-site dynamic access counts `(reads, writes)`, stored as a flat
/// table indexed by [`RefId::index`] — site ids are dense per procedure, so
/// counting an access is a bounds-checked array increment instead of a
/// `BTreeMap` traversal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynCounts {
    counts: Vec<(u64, u64)>,
}

impl DynCounts {
    /// An empty counter table.
    pub fn new() -> Self {
        DynCounts::default()
    }

    #[inline]
    fn slot(&mut self, site: RefId) -> &mut (u64, u64) {
        let i = site.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, (0, 0));
        }
        &mut self.counts[i]
    }

    /// Counts one read at `site`.
    #[inline]
    pub fn record_read(&mut self, site: RefId) {
        self.slot(site).0 += 1;
    }

    /// Counts one write at `site`.
    #[inline]
    pub fn record_write(&mut self, site: RefId) {
        self.slot(site).1 += 1;
    }

    /// Sets the counters of a site (mainly for tests).
    pub fn insert(&mut self, site: RefId, counts: (u64, u64)) {
        *self.slot(site) = counts;
    }

    /// The `(reads, writes)` counters of a site (zero when never accessed).
    pub fn get(&self, site: RefId) -> (u64, u64) {
        self.counts.get(site.index()).copied().unwrap_or((0, 0))
    }

    /// Iterates over the sites with at least one recorded access, in
    /// `RefId` order.
    pub fn iter(&self) -> impl Iterator<Item = (RefId, (u64, u64))> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != (0, 0))
            .map(|(i, c)| (RefId::from_index(i), *c))
    }

    /// The `(reads, writes)` pairs of the accessed sites.
    pub fn values(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.iter().map(|(_, c)| c)
    }

    /// Number of sites with at least one recorded access.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| *c == (0, 0))
    }
}

impl<'a> IntoIterator for &'a DynCounts {
    type Item = (RefId, (u64, u64));
    type IntoIter = Box<dyn Iterator<Item = (RefId, (u64, u64))> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A store adaptor that counts dynamic accesses per reference site while
/// delegating the accesses to an inner store.
#[derive(Debug)]
pub struct CountingStore<S> {
    /// The wrapped store.
    pub inner: S,
    /// Per-site `(reads, writes)` counters.
    pub counts: DynCounts,
}

impl<S> CountingStore<S> {
    /// Wraps a store.
    pub fn new(inner: S) -> Self {
        CountingStore {
            inner,
            counts: DynCounts::new(),
        }
    }
}

impl<S: DataStore> DataStore for CountingStore<S> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        self.counts.record_read(site);
        self.inner.read(site, addr)
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        self.counts.record_write(site);
        self.inner.write(site, addr, value)
    }
}

#[derive(Clone, Debug)]
struct LoopFrame<'p> {
    index: VarId,
    current: i64,
    last: i64,
    step: i64,
    /// Continuation condition of a bounded-WHILE loop (`None` for counted
    /// `DO`), evaluated as one statement unit before each iteration.
    while_cond: Option<&'p Expr>,
    /// The condition is due before the next body statement runs.
    cond_pending: bool,
}

#[derive(Clone, Debug)]
struct Frame<'p> {
    stmts: &'p [Stmt],
    pos: usize,
    looping: Option<LoopFrame<'p>>,
}

/// A resumable executor for one statement list (typically: one segment, i.e.
/// one iteration of a region loop).
///
/// `step` executes one statement "unit" — an assignment, the evaluation of an
/// `IF` condition, the setup/advance of an inner loop, or a WHILE segment's
/// continuation check (see [`SegmentExec::segment`]) — performing all of
/// its memory accesses through the supplied [`DataStore`]. The executor can
/// be [`reset`](SegmentExec::reset) to its initial state, which is how the
/// simulator re-executes a segment after a roll-back (HOSE Property 2).
#[derive(Clone, Debug)]
pub struct SegmentExec<'p> {
    vars: &'p VarTable,
    layout: &'p Layout,
    root: &'p [Stmt],
    /// The region's WHILE continuation check, run as the segment's first
    /// unit (`None` for a counted region or a plain statement list).
    guard: Option<&'p Expr>,
    /// The check, while it is still due in this attempt.
    pending_guard: Option<&'p Expr>,
    /// The check failed: the segment is its region's dynamic end.
    exited: bool,
    initial_env: Vec<(VarId, i64)>,
    env: Vec<Option<i64>>,
    frames: Vec<Frame<'p>>,
    steps: usize,
}

impl<'p> SegmentExec<'p> {
    /// Creates an executor over `stmts` with the given initial index
    /// bindings (e.g. the region-loop index of the segment).
    pub fn new(
        vars: &'p VarTable,
        layout: &'p Layout,
        stmts: &'p [Stmt],
        initial_env: &[(VarId, i64)],
    ) -> Self {
        let mut exec = SegmentExec {
            vars,
            layout,
            root: stmts,
            guard: None,
            pending_guard: None,
            exited: false,
            initial_env: initial_env.to_vec(),
            env: vec![None; vars.len()],
            frames: Vec::new(),
            steps: 0,
        };
        exec.reset();
        exec
    }

    /// An executor for one segment of `region`: its body, preceded — for a
    /// WHILE region — by the continuation check as the first statement
    /// unit. A true check returns `Ok(true)` and the body follows; a false
    /// one returns `Ok(false)` from that same `step`, and
    /// [`exited`](Self::exited) reports the segment as the region's
    /// dynamic end. [`reset`](Self::reset) and [`restart`](Self::restart)
    /// re-arm the check. Bind the region index with `restart` before
    /// stepping.
    pub fn segment(vars: &'p VarTable, layout: &'p Layout, region: &'p LoopStmt) -> Self {
        let mut exec = SegmentExec::new(vars, layout, &region.body, &[]);
        exec.guard = region.while_cond.as_ref();
        exec.reset();
        exec
    }

    /// Re-targets the executor at a new segment: replaces the initial
    /// bindings and resets.
    pub fn restart(&mut self, initial_env: &[(VarId, i64)]) {
        self.initial_env.clear();
        self.initial_env.extend_from_slice(initial_env);
        self.reset();
    }

    /// Restores the executor to its initial state (used for re-execution
    /// after a roll-back).
    pub fn reset(&mut self) {
        self.env = vec![None; self.vars.len()];
        for (v, value) in &self.initial_env {
            self.env[v.index()] = Some(*value);
        }
        self.frames = vec![Frame {
            stmts: self.root,
            pos: 0,
            looping: None,
        }];
        self.pending_guard = self.guard;
        self.exited = false;
        self.steps = 0;
    }

    /// True when the executor has finished.
    pub fn is_done(&self) -> bool {
        self.frames.is_empty()
    }

    /// True when the segment's WHILE continuation check failed in this
    /// attempt: it ran no body statement and ends its region.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Number of statement units executed since the last reset.
    pub fn steps(&self) -> usize {
        self.steps
    }

    fn lookup(&self, v: VarId) -> Result<i64, ExecError> {
        if let Some(value) = self.vars.param_value(v) {
            return Ok(value);
        }
        self.env[v.index()].ok_or(ExecError::UnboundVariable(v))
    }

    fn eval_affine(&self, e: &AffineExpr) -> Result<i64, ExecError> {
        let mut acc = e.constant;
        for &(v, c) in &e.terms {
            acc += c * self.lookup(v)?;
        }
        Ok(acc)
    }

    fn address_of(&self, r: &Reference, store: &mut impl DataStore) -> Result<Addr, ExecError> {
        if r.subs.is_empty() {
            return Ok(self.layout.scalar(r.var));
        }
        let mut subs = Vec::with_capacity(r.subs.len());
        for s in &r.subs {
            match s {
                Subscript::Affine(e) => subs.push(self.eval_affine(e)?),
                Subscript::Indirect(inner) => {
                    let value = self.read_ref(inner, store)?;
                    subs.push(value.round() as i64);
                }
            }
        }
        Ok(self.layout.element(r.var, &subs))
    }

    fn read_ref(&self, r: &Reference, store: &mut impl DataStore) -> Result<f64, ExecError> {
        let addr = self.address_of(r, store)?;
        Ok(store.read(r.id, addr))
    }

    fn eval(&self, e: &Expr, store: &mut impl DataStore) -> Result<f64, ExecError> {
        Ok(match e {
            Expr::Const(c) => *c,
            Expr::Index(v) => self.lookup(*v)? as f64,
            Expr::Load(r) => self.read_ref(r, store)?,
            Expr::Neg(a) => -self.eval(a, store)?,
            Expr::Bin(op, a, b) => {
                let (x, y) = (self.eval(a, store)?, self.eval(b, store)?);
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
            Expr::Cmp(op, a, b) => {
                let (x, y) = (self.eval(a, store)?, self.eval(b, store)?);
                if op.apply(x, y) {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    fn enter_loop(&mut self, l: &'p LoopStmt) -> Result<(), ExecError> {
        let lower = self.eval_affine(&l.lower)?;
        let upper = self.eval_affine(&l.upper)?;
        if LoopStmt::trip_count(lower, upper, l.step) == 0 {
            return Ok(());
        }
        self.env[l.index.index()] = Some(lower);
        self.frames.push(Frame {
            stmts: &l.body,
            pos: 0,
            looping: Some(LoopFrame {
                index: l.index,
                current: lower,
                last: upper,
                step: l.step,
                while_cond: l.while_cond.as_ref(),
                cond_pending: l.while_cond.is_some(),
            }),
        });
        Ok(())
    }

    /// Executes one statement unit. Returns `Ok(true)` when more work
    /// remains, `Ok(false)` when the segment has finished.
    pub fn step(&mut self, store: &mut impl DataStore) -> Result<bool, ExecError> {
        if let Some(cond) = self.pending_guard.take() {
            self.steps += 1;
            self.exited = self.eval(cond, store)? == 0.0;
            if self.exited {
                self.frames.clear();
            }
            return Ok(!self.exited);
        }
        loop {
            let Some(frame) = self.frames.last_mut() else {
                return Ok(false);
            };
            if let Some(looping) = &mut frame.looping {
                if looping.cond_pending {
                    // The WHILE continuation check is its own statement
                    // unit, evaluated before the iteration's body.
                    looping.cond_pending = false;
                    let cond = looping.while_cond.expect("cond_pending implies while_cond");
                    self.steps += 1;
                    if self.eval(cond, store)? == 0.0 {
                        self.frames.pop();
                    }
                    return Ok(true);
                }
            }
            if frame.pos >= frame.stmts.len() {
                // End of the frame: advance the loop or pop.
                if let Some(looping) = &mut frame.looping {
                    looping.current += looping.step;
                    let done = if looping.step > 0 {
                        looping.current > looping.last
                    } else {
                        looping.current < looping.last
                    };
                    if done {
                        self.frames.pop();
                    } else {
                        let idx = looping.index;
                        let value = looping.current;
                        frame.pos = 0;
                        self.env[idx.index()] = Some(value);
                        looping.cond_pending = looping.while_cond.is_some();
                    }
                } else {
                    self.frames.pop();
                }
                continue;
            }
            let stmt = &frame.stmts[frame.pos];
            frame.pos += 1;
            self.steps += 1;
            match stmt {
                Stmt::Assign(a) => {
                    let value = self.eval(&a.rhs, store)?;
                    let addr = self.address_of(&a.lhs, store)?;
                    store.write(a.lhs.id, addr, value);
                    return Ok(true);
                }
                Stmt::If(i) => {
                    let cond = self.eval(&i.cond, store)?;
                    let branch: &'p [Stmt] = if cond != 0.0 {
                        &i.then_branch
                    } else {
                        &i.else_branch
                    };
                    if !branch.is_empty() {
                        self.frames.push(Frame {
                            stmts: branch,
                            pos: 0,
                            looping: None,
                        });
                    }
                    return Ok(true);
                }
                Stmt::Loop(l) => {
                    self.enter_loop(l)?;
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

/// A resumable executor on either backend: the tree-walking
/// [`SegmentExec`] or compiled bytecode ([`LoweredSegmentExec`]). Both keep
/// the identical step/reset contract, WHILE segments' continuation check
/// included, so the speculation engine, the real-thread runtime and the
/// sequential runs drive this one type whatever the backend.
#[derive(Clone, Debug)]
pub enum AnyExec<'p> {
    /// The tree-walking oracle.
    Tree(SegmentExec<'p>),
    /// Compiled bytecode.
    Compiled(LoweredSegmentExec<'p>),
}

impl<'p> AnyExec<'p> {
    /// An executor over `stmts` with the given initial index bindings:
    /// running `compiled` when it is given (it must be `stmts`'s compiled
    /// form), on `bufs` (see [`ExecBuffers`]), tree-walking `stmts` when it
    /// is `None` (which needs no buffers and drops `bufs`).
    pub fn new(
        compiled: Option<&'p LoweredProc>,
        vars: &'p VarTable,
        layout: &'p Layout,
        stmts: &'p [Stmt],
        initial_env: &[(VarId, i64)],
        bufs: ExecBuffers,
    ) -> Self {
        match compiled {
            Some(prog) => AnyExec::Compiled(LoweredSegmentExec::new(prog, initial_env, bufs)),
            None => AnyExec::Tree(SegmentExec::new(vars, layout, stmts, initial_env)),
        }
    }

    /// An executor for one segment of `region` (see
    /// [`SegmentExec::segment`]): running `compiled` when it is given (it
    /// must be the region's [`LowerUnit::RegionBody`] form, which carries
    /// the continuation check) on `bufs`, tree-walking the body otherwise.
    pub fn segment(
        compiled: Option<&'p LoweredProc>,
        vars: &'p VarTable,
        layout: &'p Layout,
        region: &'p LoopStmt,
        bufs: ExecBuffers,
    ) -> Self {
        match compiled {
            Some(prog) => AnyExec::Compiled(LoweredSegmentExec::new(prog, &[], bufs)),
            None => AnyExec::Tree(SegmentExec::segment(vars, layout, region)),
        }
    }

    /// Ends the executor and hands its buffers back for the next one
    /// (empty ones from the tree-walk, which keeps none).
    pub fn into_buffers(self) -> ExecBuffers {
        match self {
            AnyExec::Tree(_) => ExecBuffers::default(),
            AnyExec::Compiled(e) => e.into_buffers(),
        }
    }

    /// Executes one statement unit (see [`SegmentExec::step`]).
    #[inline]
    pub fn step(&mut self, store: &mut impl DataStore) -> Result<bool, ExecError> {
        match self {
            AnyExec::Tree(e) => e.step(store),
            AnyExec::Compiled(e) => e.step(store),
        }
    }

    /// Restores the initial state (see [`SegmentExec::reset`]).
    #[inline]
    pub fn reset(&mut self) {
        match self {
            AnyExec::Tree(e) => e.reset(),
            AnyExec::Compiled(e) => e.reset(),
        }
    }

    /// Re-targets the executor at new initial bindings and resets (see
    /// [`SegmentExec::restart`]).
    #[inline]
    pub fn restart(&mut self, initial_env: &[(VarId, i64)]) {
        match self {
            AnyExec::Tree(e) => e.restart(initial_env),
            AnyExec::Compiled(e) => e.restart(initial_env),
        }
    }

    /// Runs to completion (bounded by `max_steps` statement units).
    pub fn run(&mut self, store: &mut impl DataStore, max_steps: usize) -> Result<(), ExecError> {
        match self {
            AnyExec::Tree(e) => e.run(store, max_steps),
            AnyExec::Compiled(e) => e.run(store, max_steps),
        }
    }

    /// Number of statement units executed since the last reset.
    #[inline]
    pub fn steps(&self) -> usize {
        match self {
            AnyExec::Tree(e) => e.steps(),
            AnyExec::Compiled(e) => e.steps(),
        }
    }

    /// True when the segment's continuation check failed (see
    /// [`SegmentExec::exited`]).
    #[inline]
    pub fn exited(&self) -> bool {
        match self {
            AnyExec::Tree(e) => e.exited(),
            AnyExec::Compiled(e) => e.exited(),
        }
    }
}

/// Sequential interpreter for whole procedures — the reference semantics of
/// Definition 3.
///
/// By default it runs compiled bytecode: the whole procedure is one
/// [`LowerUnit::WholeProcedure`], compiled once through the interpreter's
/// [`LoweredCache`] (the process-global one by default) in that unit's one
/// form, fused. [`SeqInterp::oracle`] selects the tree-walking
/// interpreter, the cross-checking oracle of the differential suite.
#[derive(Debug, Default)]
pub struct SeqInterp {
    /// Maximum number of statement units per procedure run.
    pub max_steps: usize,
    /// Which execution backend to run on.
    pub backend: ExecBackend,
    /// Compilation cache for whole-procedure runs on the compiled backend.
    pub cache: LoweredCache,
}

impl SeqInterp {
    /// Creates an interpreter with a generous default step budget, running
    /// compiled bytecode through the process-global cache.
    pub fn new() -> Self {
        SeqInterp {
            max_steps: 200_000_000,
            backend: ExecBackend::default(),
            cache: LoweredCache::default(),
        }
    }

    /// Creates an interpreter running on the tree-walking oracle backend.
    pub fn oracle() -> Self {
        SeqInterp {
            backend: ExecBackend::TreeWalk,
            ..SeqInterp::new()
        }
    }

    /// Runs a whole procedure body through a store, on the compiled
    /// backend through the interpreter's cache (keyed by the procedure's
    /// process-unique identity, so repeated runs compile once).
    fn run_proc_body(
        &self,
        proc: &Procedure,
        layout: &Layout,
        store: &mut impl DataStore,
    ) -> Result<(), ExecError> {
        let compiled = (self.backend == ExecBackend::Compiled).then(|| {
            let key = LowerKey::new(proc, "", LowerUnit::WholeProcedure);
            self.cache
                .compile(key, &proc.vars, layout, None, &proc.body, &[])
                .value
        });
        let bufs = ExecBuffers::default();
        AnyExec::new(
            compiled.as_deref(),
            &proc.vars,
            layout,
            &proc.body,
            &[],
            bufs,
        )
        .run(store, self.max_steps)
    }

    /// Runs a procedure against the given memory (which must have been built
    /// from the procedure's [`Layout`]).
    pub fn run_procedure(&self, proc: &Procedure, memory: &mut Memory) -> Result<(), ExecError> {
        let layout = Layout::new(&proc.vars);
        let mut store = PlainStore::new(memory);
        self.run_proc_body(proc, &layout, &mut store)
    }

    /// Runs a procedure and returns per-site dynamic access counts.
    pub fn run_procedure_counting(
        &self,
        proc: &Procedure,
        memory: &mut Memory,
    ) -> Result<DynCounts, ExecError> {
        let layout = Layout::new(&proc.vars);
        let mut store = CountingStore::new(PlainStore::new(memory));
        self.run_proc_body(proc, &layout, &mut store)?;
        Ok(store.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ac, add, av, idx, num, ProcBuilder};
    use crate::expr::CmpOp;

    /// do k = 1, 5 { a(k) = k; s = s + a(k) }
    fn sum_program() -> Procedure {
        let mut b = ProcBuilder::new("sum");
        let a = b.array("a", &[8]);
        let s = b.scalar("s");
        let k = b.index("k");
        let s1 = b.assign_elem(a, vec![av(k)], idx(k));
        let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
        let s2 = b.assign_scalar(s, rhs);
        let body = vec![b.do_loop(k, ac(1), ac(5), vec![s1, s2])];
        b.build(body)
    }

    #[test]
    fn sequential_interpretation_computes_the_expected_values() {
        let proc = sum_program();
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        SeqInterp::new().run_procedure(&proc, &mut mem).unwrap();
        let a = proc.vars.lookup("a").unwrap();
        let s = proc.vars.lookup("s").unwrap();
        assert_eq!(mem.load(layout.element(a, &[3])), 3.0);
        assert_eq!(mem.load(layout.scalar(s)), 15.0);
    }

    #[test]
    fn counting_store_counts_dynamic_accesses() {
        let proc = sum_program();
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        let counts = SeqInterp::new()
            .run_procedure_counting(&proc, &mut mem)
            .unwrap();
        // Each of the 5 iterations: write a(k), read s, read a(k), write s.
        let total_reads: u64 = counts.values().map(|c| c.0).sum();
        let total_writes: u64 = counts.values().map(|c| c.1).sum();
        assert_eq!(total_reads, 10);
        assert_eq!(total_writes, 10);
    }

    #[test]
    fn conditionals_and_nested_loops_execute_correctly() {
        // do i = 1, 4 { if (i >= 3) then c = c + 1 }
        let mut b = ProcBuilder::new("cond");
        let c = b.scalar("c");
        let i = b.index("i");
        let body_assign = {
            let rhs = add(b.load(c), num(1.0));
            b.assign_scalar(c, rhs)
        };
        let if_stmt = b.if_then(
            crate::build::cmp(CmpOp::Ge, idx(i), num(3.0)),
            vec![body_assign],
        );
        let body = vec![b.do_loop(i, ac(1), ac(4), vec![if_stmt])];
        let proc = b.build(body);
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        SeqInterp::new().run_procedure(&proc, &mut mem).unwrap();
        assert_eq!(mem.load(layout.scalar(proc.vars.lookup("c").unwrap())), 2.0);
    }

    #[test]
    fn descending_loops_and_reset() {
        // do k = 5, 1, -1 { s = s + k }
        let mut b = ProcBuilder::new("desc");
        let s = b.scalar("s");
        let k = b.index("k");
        let assign = {
            let rhs = add(b.load(s), idx(k));
            b.assign_scalar(s, rhs)
        };
        let body = vec![b.do_loop_step(None, k, ac(5), ac(1), -1, vec![assign])];
        let proc = b.build(body);
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        let mut store = PlainStore::new(&mut mem);
        let mut exec = SegmentExec::new(&proc.vars, &layout, &proc.body, &[]);
        exec.run(&mut store, 1000).unwrap();
        assert!(exec.is_done());
        assert_eq!(mem.load(layout.scalar(s)), 15.0);
        // Re-execution after reset produces the same increment again.
        let mut store = PlainStore::new(&mut mem);
        let mut exec = SegmentExec::new(&proc.vars, &layout, &proc.body, &[]);
        exec.reset();
        exec.run(&mut store, 1000).unwrap();
        assert_eq!(mem.load(layout.scalar(s)), 30.0);
    }

    #[test]
    fn unbound_variables_are_reported() {
        let mut b = ProcBuilder::new("unbound");
        let a = b.array("a", &[4]);
        let k = b.index("k");
        // a(k) = 1.0 outside any loop binding k.
        let stmt = b.assign_elem(a, vec![av(k)], num(1.0));
        let proc = b.build(vec![stmt]);
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        let err = SeqInterp::new().run_procedure(&proc, &mut mem).unwrap_err();
        assert_eq!(err, ExecError::UnboundVariable(k));
    }

    #[test]
    fn tracing_store_records_accesses_in_order() {
        let proc = sum_program();
        let layout = Layout::new(&proc.vars);
        let mut mem = Memory::zeroed(&layout);
        let mut store = PlainStore::tracing(&mut mem);
        let mut exec = SegmentExec::new(&proc.vars, &layout, &proc.body, &[]);
        exec.run(&mut store, 1000).unwrap();
        assert_eq!(store.trace.len(), 20);
        assert_eq!(store.trace[0].access, AccessKind::Write); // a(1) = 1
        assert_eq!(store.trace[1].access, AccessKind::Read); // s
    }
}
