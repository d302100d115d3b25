//! Seeded, deterministic generation of whole multi-region programs.
//!
//! The generator works in two stages. A [`ProgramSpec`] is a small,
//! declarative description of a whole program: arrays and scalars, **zero
//! to three region loops** (labeled outer `DO` loops whose bodies mix
//! assignments, conditionals and possibly triangular inner loops with
//! affine subscripts) separated by **serial straight-line chunks**
//! (prologue, inter-region gaps, epilogue — plain assignments with
//! loop-invariant subscripts). [`ProgramSpec::build`] lowers a spec to a
//! `refidem-ir` [`Program`] — always the same program for the same spec —
//! and [`generate`] draws a spec from a seeded [`Rng`]. The program-level
//! shape feeds the whole-program differential runner: every scheduled
//! region is simulated speculatively, the serial chunks sequentially, and
//! the final memory must match the sequential oracle byte for byte.
//!
//! Splitting generation from lowering is what makes shrinking possible: the
//! shrinker edits the spec (drop a statement, zero a coefficient, shorten
//! the loop) and rebuilds, instead of trying to edit IR with its
//! interdependent reference ids.
//!
//! Lowering keeps every subscript in bounds by construction: it computes,
//! per array, the minimum and maximum value any of its subscripts can take
//! over the whole iteration space, shifts all subscripts of that array by a
//! common offset so the minimum lands on zero, and sizes the array to the
//! maximum. Shifting every use by the same amount preserves the dependence
//! structure exactly.

use crate::rng::Rng;
use refidem_ir::build::{ac, add, av, cmp, idx, mul, num, sub, ProcBuilder};
use refidem_ir::expr::{BinOp, CmpOp, Expr, Reference};
use refidem_ir::ids::VarId;
use refidem_ir::program::{Program, RegionSpec};
use refidem_ir::stmt::Stmt;

/// The label of generated region `i` (`R0`, `R1`, …).
pub fn region_label(i: usize) -> String {
    format!("R{i}")
}

/// An affine subscript `kc*k + jc*j + off` in the outer index `k` and (when
/// inside an inner loop) the inner index `j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubSpec {
    /// Coefficient of the outer (region) loop index.
    pub kc: i64,
    /// Coefficient of the inner loop index (must be 0 outside inner loops).
    pub jc: i64,
    /// Constant offset.
    pub off: i64,
}

impl SubSpec {
    /// Subscript depending only on the outer index.
    pub fn outer(kc: i64, off: i64) -> Self {
        SubSpec { kc, jc: 0, off }
    }
}

/// The initialization pattern of one generated indirection array.
///
/// Every pattern fills `x(i)` for `i = 1 … n` with values guaranteed to lie
/// in `[1, n]` (so an indirect access `a(x(pos))` is in bounds whenever the
/// target array's extent covers `[1, n]` — [`ProgramSpec::layout_plan`]
/// enforces that). The permutation patterns (identity, reversal, cyclic
/// shift) exercise gather/scatter with distinct targets; the clamp patterns
/// produce *duplicate* indices, so an indirect store through them carries a
/// genuine cross-segment output dependence that only speculation handles.
/// Initialization happens in an unlabeled (serial) `DO` loop prepended to
/// the program, so the indirection arrays are read-only inside every
/// region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexPattern {
    /// `x(i) = i`.
    Identity,
    /// `x(i) = n + 1 - i`.
    Reversal,
    /// `x(i) = ((i - 1 + s) mod n) + 1`, lowered as a guarded pair of
    /// affine assignments. The stored shift is normalized into `[1, n-1]`.
    CyclicShift(i64),
    /// `x(i) = min(i, c)` — the tail collapses onto `c` (duplicates).
    ClampLow(i64),
    /// `x(i) = max(i, c)` — the head collapses onto `c` (duplicates).
    ClampHigh(i64),
}

/// Effective cyclic-shift amount over extent `n`, normalized into
/// `[1, n-1]` so the shifted value always wraps to a valid subscript.
pub(crate) fn cyclic_shift_amount(s: i64, n: i64) -> i64 {
    (s - 1).rem_euclid((n - 1).max(1)) + 1
}

/// Effective clamp bound over extent `n`.
pub(crate) fn clamp_bound(c: i64, n: i64) -> i64 {
    c.clamp(1, n)
}

/// Data-dependent early termination of a region loop (a bounded WHILE).
///
/// The region continues while `a_arr(sub) <= limit/2`; the counted `DO`
/// bounds still cap the trip count. Initial memory values lie in
/// `[0, 4.02]`, so limits in `[1, 7]` (thresholds `0.5 … 3.5`) produce trip
/// counts that genuinely depend on the data — including zero-trip and
/// full-trip runs — and that no static analysis can predict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhileSpec {
    /// The watched value array.
    pub arr: usize,
    /// Subscript of the watched element (outer-index only, `jc == 0`).
    pub sub: SubSpec,
    /// Continuation threshold in halves: continue while `value <= limit/2`.
    pub limit: i64,
}

/// How one term combines with the accumulated right-hand side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermOp {
    /// Added.
    Add,
    /// Subtracted.
    Sub,
    /// Multiplied.
    Mul,
}

/// One operand of a generated right-hand side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TermSpec {
    /// Load of `arrays[arr]` at an affine subscript.
    Arr {
        /// Array number.
        arr: usize,
        /// Subscript.
        sub: SubSpec,
    },
    /// Load of `arrays[arr]` through indirection array `idx`:
    /// `a_arr(x_idx(k - lo + 1))`. The subscript is runtime-resolved — no
    /// affine analysis applies, so the dependence analysis must fall back
    /// to its conservative answer.
    ArrInd {
        /// Value array loaded through the indirection.
        arr: usize,
        /// Indirection array number (into [`ProgramSpec::index_arrays`]).
        idx: usize,
    },
    /// Load of scalar number `n`.
    Scalar(usize),
    /// The outer loop index as a value.
    OuterIdx,
    /// The inner loop index as a value (only inside inner loops).
    InnerIdx,
    /// A small integer constant.
    Const(i64),
}

/// Where an assignment stores its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetSpec {
    /// Store into `arrays[arr]` at an affine subscript.
    Arr {
        /// Array number.
        arr: usize,
        /// Subscript.
        sub: SubSpec,
    },
    /// Store into `arrays[arr]` through indirection array `idx`:
    /// `a_arr(x_idx(k - lo + 1)) = …`. A scatter — with a duplicate-laden
    /// pattern ([`IndexPattern::ClampLow`]/[`ClampHigh`](IndexPattern::ClampHigh))
    /// this is a genuine cross-segment output dependence.
    ArrInd {
        /// Value array stored through the indirection.
        arr: usize,
        /// Indirection array number (into [`ProgramSpec::index_arrays`]).
        idx: usize,
    },
    /// Store into scalar number `n`.
    Scalar(usize),
}

/// One assignment: `target = t0 (op1) t1 (op2) t2 …`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignSpec {
    /// Store target.
    pub target: TargetSpec,
    /// Operand terms with their combining operators (the first operator is
    /// ignored).
    pub terms: Vec<(TermOp, TermSpec)>,
}

/// The value compared against a loop index in a conditional.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondIndex {
    /// Compare the outer index.
    Outer,
    /// Compare the inner index (only inside inner loops).
    Inner,
}

/// A branch condition `index <op> rhs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CondSpec {
    /// Which loop index is compared.
    pub index: CondIndex,
    /// `>` or `<=`.
    pub greater: bool,
    /// Comparison constant.
    pub rhs: i64,
}

/// The upper bound of an inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerBound {
    /// Constant trip region: `do j = lo, lo+extent-1`.
    Extent(i64),
    /// Triangular: `do j = lo, k` (the outer index).
    Triangular,
}

/// One statement of the generated loop body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtSpec {
    /// An assignment.
    Assign(AssignSpec),
    /// `IF (cond) THEN … ELSE … ENDIF` (else branch may be empty).
    If {
        /// Branch condition.
        cond: CondSpec,
        /// Taken branch.
        then_body: Vec<StmtSpec>,
        /// Fallthrough branch.
        else_body: Vec<StmtSpec>,
    },
    /// An inner `DO j` loop. Inner loops never nest further.
    Inner {
        /// Lower bound of the inner index.
        lo: i64,
        /// Upper bound form.
        bound: InnerBound,
        /// Loop body (assignments and conditionals only).
        body: Vec<StmtSpec>,
    },
}

/// One region loop of a generated program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionPart {
    /// Lower bound of the region loop index.
    pub outer_lo: i64,
    /// Trip count of the region loop (≥ 1).
    pub outer_trips: i64,
    /// Data-dependent early termination (bounded WHILE); `None` for a
    /// plain counted `DO` region.
    pub while_shape: Option<WhileSpec>,
    /// Region loop body.
    pub body: Vec<StmtSpec>,
}

impl RegionPart {
    /// Upper bound of the region loop index.
    pub fn outer_hi(&self) -> i64 {
        self.outer_lo + self.outer_trips - 1
    }
}

/// A complete generated program shape: serial chunks alternating with
/// region loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Number of arrays (`a0`, `a1`, …).
    pub arrays: usize,
    /// Number of scalars (`s0`, `s1`, …).
    pub scalars: usize,
    /// Serial straight-line chunks: `serial[i]` precedes region `i` and
    /// `serial[regions.len()]` is the epilogue — always
    /// `regions.len() + 1` chunks, possibly empty. Serial statements are
    /// plain assignments whose subscripts are loop-invariant (`kc == 0`,
    /// `jc == 0`) and whose terms never mention a loop index.
    pub serial: Vec<Vec<StmtSpec>>,
    /// The region loops, in program order (0–3 of them).
    pub regions: Vec<RegionPart>,
    /// Indirection arrays (`x0`, `x1`, …), each with its initialization
    /// pattern. All share the extent [`ProgramSpec::idx_extent`] and are
    /// filled by unlabeled (serial) `DO` loops prepended to the program,
    /// so they are read-only inside every region.
    pub index_arrays: Vec<IndexPattern>,
    /// Arrays in the live-out set.
    pub live_out_arrays: Vec<usize>,
    /// Scalars in the live-out set.
    pub live_out_scalars: Vec<usize>,
}

fn count_stmts(stmts: &[StmtSpec]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            StmtSpec::Assign(_) => 1,
            StmtSpec::If {
                then_body,
                else_body,
                ..
            } => 1 + count_stmts(then_body) + count_stmts(else_body),
            StmtSpec::Inner { body, .. } => 1 + count_stmts(body),
        })
        .sum()
}

impl ProgramSpec {
    /// Total number of statements, counting nested ones, over every
    /// serial chunk and region body.
    pub fn stmt_count(&self) -> usize {
        self.serial.iter().map(|c| count_stmts(c)).sum::<usize>()
            + self
                .regions
                .iter()
                .map(|r| count_stmts(&r.body))
                .sum::<usize>()
    }

    /// Common extent of every indirection array: at least 16 (so the
    /// duplicate/permutation patterns have room to differ) and at least
    /// the largest region trip count (so the normalized position
    /// `k - lo + 1` is always a valid subscript into the array).
    pub fn idx_extent(&self) -> i64 {
        self.regions
            .iter()
            .map(|r| r.outer_trips)
            .max()
            .unwrap_or(0)
            .max(16)
    }

    /// True when any region reference goes through an indirection array.
    pub fn has_irregular(&self) -> bool {
        let mut found = false;
        self.for_each_indirect(&mut |_| found = true);
        found
    }

    /// True when any region is a bounded WHILE.
    pub fn has_while(&self) -> bool {
        self.regions.iter().any(|r| r.while_shape.is_some())
    }

    /// Per-array subscript shift and extent making every access in-bounds:
    /// shifting all of an array's subscripts by the same amount preserves
    /// the dependence structure while pinning the minimum subscript to 1 —
    /// the smallest valid Fortran subscript. Pinning to 0 would be fatal:
    /// the layout *clamps* out-of-range subscripts, so 0 and 1 would alias
    /// the same element behind the dependence analysis's back and the
    /// differential oracle would report phantom divergences. The bounds
    /// are taken over every region's iteration space and every serial
    /// chunk. The reproducer emitter uses the same plan, so emitted code
    /// builds the identical program.
    pub fn layout_plan(&self) -> (Vec<i64>, Vec<usize>) {
        let mut bounds: Vec<Option<(i64, i64)>> = vec![None; self.arrays];
        self.for_each_sub(&mut |arr, sub, k_range, j_range| {
            let (lo, hi) = sub_range(sub, k_range, j_range);
            let slot = &mut bounds[arr];
            *slot = Some(match *slot {
                None => (lo, hi),
                Some((l, h)) => (l.min(lo), h.max(hi)),
            });
        });
        // Indirect accesses address the *unshifted* value of the
        // indirection array, which is always in [1, idx_extent]: widen the
        // target array's bounds to cover that whole range. (The shift then
        // stays non-negative because the merged minimum is at most 1, so
        // shifted affine subscripts and raw indirect values both land
        // inside the extent.)
        let idx_n = self.idx_extent();
        self.for_each_indirect(&mut |arr| {
            let slot = &mut bounds[arr];
            *slot = Some(match *slot {
                None => (1, idx_n),
                Some((l, h)) => (l.min(1), h.max(idx_n)),
            });
        });
        let shifts: Vec<i64> = bounds
            .iter()
            .map(|b| b.map(|(lo, _)| 1 - lo).unwrap_or(0))
            .collect();
        let extents: Vec<usize> = bounds
            .iter()
            .map(|b| b.map(|(lo, hi)| (hi - lo + 1) as usize).unwrap_or(1))
            .collect();
        (shifts, extents)
    }

    /// Lowers the spec to an executable, analyzable program: serial chunks
    /// alternating with labeled region loops (`R0`, `R1`, …).
    /// Deterministic: equal specs build equal programs.
    pub fn build(&self) -> GeneratedBuild {
        assert_eq!(
            self.serial.len(),
            self.regions.len() + 1,
            "one serial chunk around every region"
        );
        let (shifts, extents) = self.layout_plan();
        let idx_n = self.idx_extent();
        let mut b = ProcBuilder::new("generated");
        let arrays: Vec<VarId> = extents
            .iter()
            .enumerate()
            .map(|(i, e)| b.array(&format!("a{i}"), &[*e]))
            .collect();
        let scalars: Vec<VarId> = (0..self.scalars)
            .map(|i| b.scalar(&format!("s{i}")))
            .collect();
        let idx_arrays: Vec<VarId> = (0..self.index_arrays.len())
            .map(|i| b.array(&format!("x{i}"), &[idx_n as usize]))
            .collect();
        let k = b.index("k");
        let j = b.index("j");
        let live: Vec<VarId> = self
            .live_out_arrays
            .iter()
            .map(|i| arrays[*i])
            .chain(self.live_out_scalars.iter().map(|i| scalars[*i]))
            .collect();
        b.live_out(&live);

        let ctx = Lowering {
            arrays: &arrays,
            scalars: &scalars,
            idx_arrays: &idx_arrays,
            shifts: &shifts,
            k,
            j,
        };
        let mut body = Vec::new();
        // Indirection arrays are filled first, by unlabeled (hence serial)
        // loops — regions only ever read them.
        for (i, pat) in self.index_arrays.iter().enumerate() {
            body.push(init_index_loop(&mut b, idx_arrays[i], k, idx_n, pat));
        }
        for (i, region) in self.regions.iter().enumerate() {
            for st in &self.serial[i] {
                assert_serial(st);
            }
            body.extend(ctx.lower_stmts(&mut b, &self.serial[i], 0));
            // Normalize the outer index to a 1-based position for
            // indirection-array subscripts: `k - lo + 1` spans
            // `[1, trips]` ⊆ `[1, idx_extent]`.
            let k_shift = 1 - region.outer_lo;
            let region_body = ctx.lower_stmts(&mut b, &region.body, k_shift);
            body.push(match &region.while_shape {
                None => b.do_loop_labeled(
                    &region_label(i),
                    k,
                    ac(region.outer_lo),
                    ac(region.outer_hi()),
                    region_body,
                ),
                Some(ws) => {
                    let watched = ctx.affine(ws.arr, ws.sub);
                    let load = b.load_elem(arrays[ws.arr], vec![watched]);
                    let cond = cmp(CmpOp::Le, load, num(ws.limit as f64 * 0.5));
                    b.while_loop_labeled(
                        &region_label(i),
                        k,
                        ac(region.outer_lo),
                        ac(region.outer_hi()),
                        cond,
                        region_body,
                    )
                }
            });
        }
        let epilogue = self.serial.last().expect("epilogue chunk");
        for st in epilogue {
            assert_serial(st);
        }
        body.extend(ctx.lower_stmts(&mut b, epilogue, 0));
        let mut program = Program::new("generated");
        program.add_procedure(b.build(body));
        let regions = (0..self.regions.len())
            .map(|i| {
                program
                    .find_region(&region_label(i))
                    .expect("region exists")
            })
            .collect();
        GeneratedBuild { program, regions }
    }

    /// Visits every array subscript together with the outer-index range of
    /// its enclosing region (`(0, 0)` inside serial chunks, whose
    /// subscripts are loop-invariant) and the inner-index range applicable
    /// at its position (`None` outside inner loops).
    fn for_each_sub(&self, f: &mut impl FnMut(usize, SubSpec, (i64, i64), Option<(i64, i64)>)) {
        fn walk(
            stmts: &[StmtSpec],
            k_range: (i64, i64),
            j_range: Option<(i64, i64)>,
            f: &mut impl FnMut(usize, SubSpec, (i64, i64), Option<(i64, i64)>),
        ) {
            for s in stmts {
                match s {
                    StmtSpec::Assign(a) => {
                        if let TargetSpec::Arr { arr, sub } = &a.target {
                            f(*arr, *sub, k_range, j_range);
                        }
                        for (_, t) in &a.terms {
                            if let TermSpec::Arr { arr, sub } = t {
                                f(*arr, *sub, k_range, j_range);
                            }
                        }
                    }
                    StmtSpec::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, k_range, j_range, f);
                        walk(else_body, k_range, j_range, f);
                    }
                    StmtSpec::Inner { lo, bound, body } => {
                        let hi = match bound {
                            InnerBound::Extent(e) => lo + e - 1,
                            // `do j = lo, k`: j never exceeds the outer
                            // upper bound (empty when k < lo).
                            InnerBound::Triangular => k_range.1.max(*lo),
                        };
                        walk(body, k_range, Some((*lo, hi)), f);
                    }
                }
            }
        }
        for chunk in &self.serial {
            walk(chunk, (0, 0), None, f);
        }
        for region in &self.regions {
            let k_range = (region.outer_lo, region.outer_hi());
            if let Some(ws) = &region.while_shape {
                f(ws.arr, ws.sub, k_range, None);
            }
            walk(&region.body, k_range, None, f);
        }
    }

    /// Visits the value-array number of every reference that goes through
    /// an indirection array (loads and stores alike).
    fn for_each_indirect(&self, f: &mut impl FnMut(usize)) {
        fn walk(stmts: &[StmtSpec], f: &mut impl FnMut(usize)) {
            for s in stmts {
                match s {
                    StmtSpec::Assign(a) => {
                        if let TargetSpec::ArrInd { arr, .. } = &a.target {
                            f(*arr);
                        }
                        for (_, t) in &a.terms {
                            if let TermSpec::ArrInd { arr, .. } = t {
                                f(*arr);
                            }
                        }
                    }
                    StmtSpec::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, f);
                        walk(else_body, f);
                    }
                    StmtSpec::Inner { body, .. } => walk(body, f),
                }
            }
        }
        for chunk in &self.serial {
            walk(chunk, f);
        }
        for region in &self.regions {
            walk(&region.body, f);
        }
    }
}

/// A built program together with the [`RegionSpec`]s of its region loops,
/// in schedule order.
#[derive(Clone, Debug)]
pub struct GeneratedBuild {
    /// The lowered program.
    pub program: Program,
    /// One designation per region loop (`R0`, `R1`, …).
    pub regions: Vec<RegionSpec>,
}

/// Serial chunks hold plain, loop-invariant assignments only — no loop
/// indices exist outside the regions.
fn assert_serial(s: &StmtSpec) {
    match s {
        StmtSpec::Assign(a) => {
            match &a.target {
                TargetSpec::Arr { sub, .. } => {
                    assert!(sub.kc == 0 && sub.jc == 0, "serial subscripts are constant")
                }
                TargetSpec::ArrInd { .. } => {
                    panic!("serial code cannot use indirection (it needs the loop index)")
                }
                TargetSpec::Scalar(_) => {}
            }
            for (_, t) in &a.terms {
                match t {
                    TermSpec::Arr { sub, .. } => {
                        assert!(sub.kc == 0 && sub.jc == 0, "serial subscripts are constant")
                    }
                    TermSpec::ArrInd { .. } => {
                        panic!("serial code cannot use indirection (it needs the loop index)")
                    }
                    TermSpec::OuterIdx | TermSpec::InnerIdx => {
                        panic!("serial code cannot reference a loop index")
                    }
                    TermSpec::Scalar(_) | TermSpec::Const(_) => {}
                }
            }
        }
        _ => panic!("serial chunks hold assignments only"),
    }
}

/// The unlabeled `DO k = 1, n` loop filling indirection array `x` with its
/// pattern. Every pattern stores exact small integers in `[1, n]`, so the
/// later float-to-subscript conversion of the indirect access is exact.
fn init_index_loop(b: &mut ProcBuilder, x: VarId, k: VarId, n: i64, pat: &IndexPattern) -> Stmt {
    let body = match pat {
        IndexPattern::Identity => vec![b.assign_elem(x, vec![av(k)], idx(k))],
        IndexPattern::Reversal => {
            vec![b.assign_elem(x, vec![av(k)], sub(num((n + 1) as f64), idx(k)))]
        }
        IndexPattern::CyclicShift(s) => {
            let s = cyclic_shift_amount(*s, n);
            let stay = b.assign_elem(x, vec![av(k)], add(idx(k), num(s as f64)));
            let wrap = b.assign_elem(x, vec![av(k)], add(idx(k), num((s - n) as f64)));
            vec![b.if_then_else(
                cmp(CmpOp::Le, idx(k), num((n - s) as f64)),
                vec![stay],
                vec![wrap],
            )]
        }
        IndexPattern::ClampLow(c) => {
            let c = clamp_bound(*c, n);
            vec![b.assign_elem(x, vec![av(k)], Expr::bin(BinOp::Min, idx(k), num(c as f64)))]
        }
        IndexPattern::ClampHigh(c) => {
            let c = clamp_bound(*c, n);
            vec![b.assign_elem(x, vec![av(k)], Expr::bin(BinOp::Max, idx(k), num(c as f64)))]
        }
    };
    b.do_loop(k, ac(1), ac(n), body)
}

/// Interval of `kc*k + jc*j + off` over box-shaped index ranges.
fn sub_range(sub: SubSpec, k_range: (i64, i64), j_range: Option<(i64, i64)>) -> (i64, i64) {
    let term = |c: i64, (lo, hi): (i64, i64)| {
        if c >= 0 {
            (c * lo, c * hi)
        } else {
            (c * hi, c * lo)
        }
    };
    let (klo, khi) = term(sub.kc, k_range);
    let (jlo, jhi) = match j_range {
        Some(r) => term(sub.jc, r),
        None => (0, 0),
    };
    (klo + jlo + sub.off, khi + jhi + sub.off)
}

/// Shared lowering context: declared variables and per-array subscript
/// shifts.
struct Lowering<'a> {
    arrays: &'a [VarId],
    scalars: &'a [VarId],
    idx_arrays: &'a [VarId],
    shifts: &'a [i64],
    k: VarId,
    j: VarId,
}

impl Lowering<'_> {
    fn affine(&self, arr: usize, s: SubSpec) -> refidem_ir::affine::AffineExpr {
        let mut e = ac(s.off + self.shifts[arr]);
        if s.kc != 0 {
            e = e + refidem_ir::affine::AffineExpr::scaled_var(self.k, s.kc);
        }
        if s.jc != 0 {
            e = e + refidem_ir::affine::AffineExpr::scaled_var(self.j, s.jc);
        }
        e
    }

    /// The indirect reference `a_arr(x_idx(k + k_shift))`. The indirection
    /// array's own subscript is affine (the normalized position); the outer
    /// subscript is the loaded value, never shifted — `layout_plan` sizes
    /// the target array to cover the raw value range instead.
    fn indirect_ref(
        &self,
        b: &mut ProcBuilder,
        arr: usize,
        idxa: usize,
        k_shift: i64,
    ) -> Reference {
        let pos = av(self.k) + ac(k_shift);
        let xref = b.aref(self.idx_arrays[idxa], vec![pos]);
        let s = b.indirect(xref);
        b.aref_subs(self.arrays[arr], vec![s])
    }

    fn term(&self, b: &mut ProcBuilder, t: &TermSpec, k_shift: i64) -> Expr {
        match t {
            TermSpec::Arr { arr, sub: s } => {
                let a = self.affine(*arr, *s);
                b.load_elem(self.arrays[*arr], vec![a])
            }
            TermSpec::ArrInd { arr, idx } => {
                let r = self.indirect_ref(b, *arr, *idx, k_shift);
                b.load_ref(r)
            }
            TermSpec::Scalar(n) => b.load(self.scalars[*n]),
            TermSpec::OuterIdx => idx(self.k),
            TermSpec::InnerIdx => idx(self.j),
            TermSpec::Const(c) => num(*c as f64 * 0.5),
        }
    }

    fn rhs(&self, b: &mut ProcBuilder, terms: &[(TermOp, TermSpec)], k_shift: i64) -> Expr {
        let mut acc: Option<Expr> = None;
        for (op, t) in terms {
            let e = self.term(b, t, k_shift);
            acc = Some(match acc {
                None => e,
                Some(prev) => match op {
                    TermOp::Add => add(prev, e),
                    TermOp::Sub => sub(prev, e),
                    TermOp::Mul => mul(prev, e),
                },
            });
        }
        acc.expect("assignments have at least one term")
    }

    fn lower_stmts(&self, b: &mut ProcBuilder, stmts: &[StmtSpec], k_shift: i64) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                StmtSpec::Assign(a) => {
                    let rhs = self.rhs(b, &a.terms, k_shift);
                    let stmt = match &a.target {
                        TargetSpec::Arr { arr, sub: s } => {
                            let sub = self.affine(*arr, *s);
                            b.assign_elem(self.arrays[*arr], vec![sub], rhs)
                        }
                        TargetSpec::ArrInd { arr, idx } => {
                            let lhs = self.indirect_ref(b, *arr, *idx, k_shift);
                            b.assign(lhs, rhs)
                        }
                        TargetSpec::Scalar(n) => b.assign_scalar(self.scalars[*n], rhs),
                    };
                    out.push(stmt);
                }
                StmtSpec::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let lhs = match cond.index {
                        CondIndex::Outer => idx(self.k),
                        CondIndex::Inner => idx(self.j),
                    };
                    let op = if cond.greater { CmpOp::Gt } else { CmpOp::Le };
                    let c = cmp(op, lhs, num(cond.rhs as f64));
                    let then_s = self.lower_stmts(b, then_body, k_shift);
                    let else_s = self.lower_stmts(b, else_body, k_shift);
                    out.push(if else_s.is_empty() {
                        b.if_then(c, then_s)
                    } else {
                        b.if_then_else(c, then_s, else_s)
                    });
                }
                StmtSpec::Inner { lo, bound, body } => {
                    let upper = match bound {
                        InnerBound::Extent(e) => ac(lo + e - 1),
                        InnerBound::Triangular => av(self.k),
                    };
                    let inner_body = self.lower_stmts(b, body, k_shift);
                    out.push(b.do_loop(self.j, ac(*lo), upper, inner_body));
                }
            }
        }
        out
    }
}

/// Tuning knobs of the generator. The defaults produce small, quickly
/// simulated programs with a rich mix of shapes.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum number of arrays (at least 1 is always declared).
    pub max_arrays: usize,
    /// Maximum number of scalars.
    pub max_scalars: usize,
    /// Minimum region trip count.
    pub min_trips: i64,
    /// Maximum region trip count.
    pub max_trips: i64,
    /// Maximum top-level statements in the region body.
    pub max_stmts: usize,
    /// Probability (out of 100) that a subscript inside an inner loop
    /// couples both indices (`kc` and `jc` nonzero).
    pub coupling_pct: u32,
    /// Maximum number of region loops (0 up to this many are drawn, biased
    /// toward 1–2; at least every fifteenth program is serial-only).
    pub max_regions: usize,
    /// Maximum straight-line statements per serial chunk (prologue, gaps,
    /// epilogue).
    pub max_serial_stmts: usize,
    /// Probability (out of 100) that a program with regions declares
    /// indirection arrays. Once declared, each region assignment picks an
    /// indirect target or term with a fixed 3-in-10 chance, so such a
    /// program almost always contains at least one irregular reference.
    pub irregular_pct: u32,
    /// Probability (out of 100) that a region is a bounded WHILE with a
    /// data-dependent trip count.
    pub while_pct: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_arrays: 3,
            max_scalars: 2,
            min_trips: 4,
            max_trips: 12,
            max_stmts: 4,
            coupling_pct: 50,
            max_regions: 3,
            max_serial_stmts: 2,
            irregular_pct: 45,
            while_pct: 15,
        }
    }
}

/// A generated program, keeping the spec and seed for shrinking and
/// reporting.
#[derive(Clone, Debug)]
pub struct GeneratedProgram {
    /// The seed the spec was drawn from.
    pub seed: u64,
    /// The declarative shape.
    pub spec: ProgramSpec,
    /// The lowered program.
    pub program: Program,
    /// The region designations (the labeled outer loops, in schedule
    /// order — possibly none for a serial-only program).
    pub regions: Vec<RegionSpec>,
}

/// Draws a program from a seed with the given tuning. Equal seeds and
/// configs produce byte-identical programs.
pub fn generate_with(seed: u64, cfg: &GenConfig) -> GeneratedProgram {
    let mut rng = Rng::new(seed);
    let spec = gen_spec(&mut rng, cfg);
    let built = spec.build();
    GeneratedProgram {
        seed,
        spec,
        program: built.program,
        regions: built.regions,
    }
}

/// Draws a program from a seed with default tuning.
pub fn generate(seed: u64) -> GeneratedProgram {
    generate_with(seed, &GenConfig::default())
}

/// Label of the region [`giant_block`] builds.
pub const GIANT_BLOCK_LABEL: &str = "GIANT";

/// Builds a seed-pinned synthetic *giant block*: one region loop whose
/// body is `stmts` straight-line statements chaining four accumulator
/// scalars through reads of a wide coefficient array, closed by an array
/// store that keeps the chain live-out — the FPPPP `TWLDRV_DO100` shape,
/// sized on demand. The seed only varies which scalars each statement
/// reads and writes (the dependence tangle), never the site count, so the
/// block is a stable unit for benchmarking the pairwise dependence-test
/// pruning on bodies of hundreds of sites.
/// Equal `(seed, stmts)` produce byte-identical programs.
pub fn giant_block(seed: u64, stmts: usize) -> (Program, RegionSpec) {
    let mut rng = Rng::new(seed);
    let mut b = ProcBuilder::new("giant");
    let stmts = stmts.max(1);
    let e = b.array("e", &[stmts, 8]);
    let g = b.array("g", &[8]);
    let scalars: Vec<VarId> = (0..4).map(|i| b.scalar(&format!("s{i}"))).collect();
    let k = b.index("k");
    b.live_out(&[g]);
    let mut body = Vec::with_capacity(stmts + 1);
    for u in 0..stmts {
        let dst = scalars[rng.below(scalars.len())];
        let src = scalars[rng.below(scalars.len())];
        let term = b.load_elem(e, vec![ac(u as i64), av(k)]);
        let prev = b.load(src);
        body.push(b.assign_scalar(dst, add(prev, term)));
    }
    let s0 = b.load(scalars[0]);
    let s1 = b.load(scalars[1]);
    body.push(b.assign_elem(g, vec![av(k)], add(s0, s1)));
    let region = b.do_loop_labeled(GIANT_BLOCK_LABEL, k, ac(1), ac(8), body);
    let mut program = Program::new("giant_block");
    program.add_procedure(b.build(vec![region]));
    let spec = program
        .find_region(GIANT_BLOCK_LABEL)
        .expect("giant block region");
    (program, spec)
}

fn gen_spec(rng: &mut Rng, cfg: &GenConfig) -> ProgramSpec {
    let arrays = 1 + rng.below(cfg.max_arrays);
    let scalars = rng.below(cfg.max_scalars + 1);
    // Region count, biased toward one or two regions but keeping both the
    // serial-only shape (coverage 0) and the maximum in play.
    let n_regions = match rng.below(15) {
        0 => 0,
        1..=7 => 1.min(cfg.max_regions),
        8..=12 => 2.min(cfg.max_regions),
        _ => cfg.max_regions,
    };
    // Indirection arrays: only meaningful when there is a region to use
    // them from (serial code cannot — it has no loop index).
    let index_arrays: Vec<IndexPattern> = if n_regions > 0 && rng.chance(cfg.irregular_pct, 100) {
        (0..1 + rng.below(2))
            .map(|_| gen_index_pattern(rng))
            .collect()
    } else {
        vec![]
    };
    let n_idx = index_arrays.len();
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        let outer_lo = rng.range(-2, 3);
        let outer_trips = rng.range(cfg.min_trips, cfg.max_trips);
        let while_shape = if rng.chance(cfg.while_pct, 100) {
            Some(WhileSpec {
                arr: rng.below(arrays),
                sub: SubSpec::outer(1, rng.range(-2, 2)),
                limit: rng.range(1, 7),
            })
        } else {
            None
        };
        let n_stmts = 1 + rng.below(cfg.max_stmts);
        let mut body = Vec::new();
        for _ in 0..n_stmts {
            body.push(gen_stmt(
                rng,
                cfg,
                arrays,
                scalars,
                n_idx,
                outer_lo,
                outer_trips,
                0,
            ));
        }
        regions.push(RegionPart {
            outer_lo,
            outer_trips,
            while_shape,
            body,
        });
    }
    // Serial chunks: straight-line, loop-invariant assignments around the
    // regions. A serial-only program gets a guaranteed non-empty body.
    let mut serial = Vec::with_capacity(n_regions + 1);
    for i in 0..=n_regions {
        let min = usize::from(n_regions == 0 && i == 0);
        let n = min.max(rng.below(cfg.max_serial_stmts + 1));
        serial.push(
            (0..n)
                .map(|_| gen_serial_assign(rng, arrays, scalars))
                .collect(),
        );
    }
    // Live-out: a non-empty subset, biased toward including everything (a
    // richer live-out set defeats more dead-write special cases).
    let mut live_out_arrays: Vec<usize> = (0..arrays).filter(|_| rng.chance(3, 4)).collect();
    if live_out_arrays.is_empty() {
        live_out_arrays.push(rng.below(arrays));
    }
    let live_out_scalars: Vec<usize> = (0..scalars).filter(|_| rng.chance(1, 2)).collect();
    ProgramSpec {
        arrays,
        scalars,
        serial,
        regions,
        index_arrays,
        live_out_arrays,
        live_out_scalars,
    }
}

/// Draws an indirection-array pattern, biased away from the identity (which
/// is irregular only in form) toward genuine permutations and duplicates.
fn gen_index_pattern(rng: &mut Rng) -> IndexPattern {
    match rng.below(8) {
        0 => IndexPattern::Identity,
        1..=2 => IndexPattern::Reversal,
        3..=4 => IndexPattern::CyclicShift(rng.range(1, 8)),
        5..=6 => IndexPattern::ClampLow(rng.range(2, 10)),
        _ => IndexPattern::ClampHigh(rng.range(2, 10)),
    }
}

/// One serial straight-line assignment: loop-invariant subscripts, no
/// index terms.
fn gen_serial_assign(rng: &mut Rng, arrays: usize, scalars: usize) -> StmtSpec {
    let const_sub = |rng: &mut Rng| SubSpec {
        kc: 0,
        jc: 0,
        off: rng.range(-3, 3),
    };
    let target = if scalars > 0 && rng.chance(1, 3) {
        TargetSpec::Scalar(rng.below(scalars))
    } else {
        TargetSpec::Arr {
            arr: rng.below(arrays),
            sub: const_sub(rng),
        }
    };
    let n_terms = 1 + rng.below(2);
    let mut terms = Vec::new();
    for _ in 0..n_terms {
        let t = match rng.below(6) {
            0..=2 => TermSpec::Arr {
                arr: rng.below(arrays),
                sub: const_sub(rng),
            },
            3..=4 if scalars > 0 => TermSpec::Scalar(rng.below(scalars)),
            _ => TermSpec::Const(rng.range(-3, 3)),
        };
        let op = match t {
            TermSpec::Const(_) => *rng.pick(&[TermOp::Add, TermOp::Sub, TermOp::Mul]),
            _ => *rng.pick(&[TermOp::Add, TermOp::Add, TermOp::Sub]),
        };
        terms.push((op, t));
    }
    StmtSpec::Assign(AssignSpec { target, terms })
}

#[allow(clippy::too_many_arguments)]
fn gen_stmt(
    rng: &mut Rng,
    cfg: &GenConfig,
    arrays: usize,
    scalars: usize,
    n_idx: usize,
    outer_lo: i64,
    outer_trips: i64,
    depth: usize,
) -> StmtSpec {
    // Conditionals and inner loops appear only at the top level of the
    // region body (depth 0 keeps the shape space rich without exploding
    // run times); inner-loop bodies hold assignments and conditionals.
    let roll = rng.below(100);
    if depth == 0 && roll < 20 {
        let mut then_body = Vec::new();
        let mut else_body = Vec::new();
        for _ in 0..(1 + rng.below(2)) {
            then_body.push(StmtSpec::Assign(gen_assign(
                rng, cfg, arrays, scalars, n_idx, false,
            )));
        }
        if rng.chance(1, 2) {
            else_body.push(StmtSpec::Assign(gen_assign(
                rng, cfg, arrays, scalars, n_idx, false,
            )));
        }
        StmtSpec::If {
            cond: CondSpec {
                index: CondIndex::Outer,
                greater: rng.chance(1, 2),
                rhs: rng.range(outer_lo, outer_lo + outer_trips - 1),
            },
            then_body,
            else_body,
        }
    } else if depth == 0 && roll < 40 {
        let lo = rng.range(1, 2);
        let bound = if rng.chance(1, 2) && outer_lo + outer_trips > lo {
            InnerBound::Triangular
        } else {
            InnerBound::Extent(rng.range(2, 5))
        };
        let mut inner_body = Vec::new();
        for _ in 0..(1 + rng.below(2)) {
            if rng.chance(1, 5) {
                inner_body.push(StmtSpec::If {
                    cond: CondSpec {
                        index: CondIndex::Inner,
                        greater: rng.chance(1, 2),
                        rhs: rng.range(1, 4),
                    },
                    then_body: vec![StmtSpec::Assign(gen_assign(
                        rng, cfg, arrays, scalars, n_idx, true,
                    ))],
                    else_body: vec![],
                });
            } else {
                inner_body.push(StmtSpec::Assign(gen_assign(
                    rng, cfg, arrays, scalars, n_idx, true,
                )));
            }
        }
        StmtSpec::Inner {
            lo,
            bound,
            body: inner_body,
        }
    } else {
        StmtSpec::Assign(gen_assign(rng, cfg, arrays, scalars, n_idx, false))
    }
}

fn gen_sub(rng: &mut Rng, cfg: &GenConfig, inner: bool) -> SubSpec {
    // Outer coefficient: mostly ±1 (the common stride), sometimes 0 (a
    // loop-invariant element — a guaranteed cross-segment dependence when
    // written) or ±2 (a strided access).
    let kc = *rng.pick(&[1, 1, 1, -1, 0, 2, -2]);
    let jc = if inner {
        if rng.chance(cfg.coupling_pct, 100) {
            *rng.pick(&[1, 1, -1])
        } else {
            0
        }
    } else {
        0
    };
    SubSpec {
        kc,
        jc,
        off: rng.range(-3, 3),
    }
}

fn gen_assign(
    rng: &mut Rng,
    cfg: &GenConfig,
    arrays: usize,
    scalars: usize,
    n_idx: usize,
    inner: bool,
) -> AssignSpec {
    // With indirection arrays declared, 3 in 10 array accesses (target or
    // term alike) go through one — gathers, scatters and duplicate-index
    // scatters all arise from the same draw.
    let target = if scalars > 0 && rng.chance(1, 4) {
        TargetSpec::Scalar(rng.below(scalars))
    } else if n_idx > 0 && rng.chance(3, 10) {
        TargetSpec::ArrInd {
            arr: rng.below(arrays),
            idx: rng.below(n_idx),
        }
    } else {
        TargetSpec::Arr {
            arr: rng.below(arrays),
            sub: gen_sub(rng, cfg, inner),
        }
    };
    let n_terms = 1 + rng.below(3);
    let mut terms = Vec::new();
    for _ in 0..n_terms {
        let t = match rng.below(10) {
            0..=4 if n_idx > 0 && rng.chance(3, 10) => TermSpec::ArrInd {
                arr: rng.below(arrays),
                idx: rng.below(n_idx),
            },
            0..=4 => TermSpec::Arr {
                arr: rng.below(arrays),
                sub: gen_sub(rng, cfg, inner),
            },
            5..=6 if scalars > 0 => TermSpec::Scalar(rng.below(scalars)),
            7 => {
                if inner {
                    TermSpec::InnerIdx
                } else {
                    TermSpec::OuterIdx
                }
            }
            8 => TermSpec::OuterIdx,
            _ => TermSpec::Const(rng.range(-3, 3)),
        };
        // Multiplication only against constants and indices: products of
        // two loads compound across iterations and overflow to infinity,
        // which makes byte-exact comparison vacuous (every run saturates).
        let op = match t {
            TermSpec::Const(_) | TermSpec::OuterIdx | TermSpec::InnerIdx => {
                *rng.pick(&[TermOp::Add, TermOp::Sub, TermOp::Mul])
            }
            _ => *rng.pick(&[TermOp::Add, TermOp::Add, TermOp::Sub]),
        };
        terms.push((op, t));
    }
    AssignSpec { target, terms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::pretty;

    #[test]
    fn equal_seeds_build_identical_programs() {
        for seed in 0..20 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.spec, b.spec, "seed {seed}: specs differ");
            assert_eq!(
                pretty::program_to_string(&a.program),
                pretty::program_to_string(&b.program),
                "seed {seed}: programs differ"
            );
        }
    }

    #[test]
    fn generated_subscripts_stay_in_bounds() {
        // The sequential interpreter addresses memory through the layout;
        // an out-of-bounds subscript shows up as an execution error (or a
        // wrong-variable store that the differential runner would catch).
        // Here: every generated program interprets cleanly.
        use refidem_ir::exec::SeqInterp;
        use refidem_specsim::run::initial_memory;
        for seed in 0..100 {
            let g = generate(seed);
            let proc = &g.program.procedures[0];
            let mut memory = initial_memory(proc);
            SeqInterp::new()
                .run_procedure(proc, &mut memory)
                .unwrap_or_else(|e| panic!("seed {seed}: execution failed: {e}"));
        }
    }

    #[test]
    fn generated_regions_resolve_and_match_the_discovered_schedule() {
        use refidem_analysis::schedule::discover_regions;
        use refidem_ir::ids::ProcId;
        for seed in 0..50 {
            let g = generate(seed);
            assert_eq!(g.regions.len(), g.spec.regions.len());
            assert_eq!(g.spec.serial.len(), g.spec.regions.len() + 1);
            for (i, region) in g.regions.iter().enumerate() {
                let (_, l) = region.resolve(&g.program).expect("region resolves");
                assert_eq!(l.label.as_deref(), Some(region_label(i).as_str()));
                assert!(g.spec.regions[i].outer_trips >= 1);
            }
            // The generator's schedule is exactly what discovery sees.
            let schedule = discover_regions(&g.program, ProcId::from_index(0));
            assert_eq!(schedule.len(), g.regions.len());
            for (d, r) in schedule.regions.iter().zip(&g.regions) {
                assert_eq!(d.spec, *r);
            }
            assert!(g.spec.stmt_count() >= 1);
        }
    }

    #[test]
    fn shape_space_is_diverse() {
        let mut saw_if = false;
        let mut saw_inner = false;
        let mut saw_triangular = false;
        let mut saw_coupled = false;
        let mut saw_scalar_target = false;
        let mut region_counts = [0usize; 4];
        let mut saw_serial_stmt = false;
        for seed in 0..200 {
            let g = generate(seed);
            region_counts[g.spec.regions.len()] += 1;
            saw_serial_stmt |= g.spec.serial.iter().any(|c| !c.is_empty());
            for s in g.spec.regions.iter().flat_map(|r| &r.body) {
                match s {
                    StmtSpec::If { .. } => saw_if = true,
                    StmtSpec::Inner { bound, body, .. } => {
                        saw_inner = true;
                        if *bound == InnerBound::Triangular {
                            saw_triangular = true;
                        }
                        for inner in body {
                            if let StmtSpec::Assign(a) = inner {
                                let mut subs = Vec::new();
                                if let TargetSpec::Arr { sub, .. } = &a.target {
                                    subs.push(*sub);
                                }
                                for (_, t) in &a.terms {
                                    if let TermSpec::Arr { sub, .. } = t {
                                        subs.push(*sub);
                                    }
                                }
                                if subs.iter().any(|s| s.kc != 0 && s.jc != 0) {
                                    saw_coupled = true;
                                }
                            }
                        }
                    }
                    StmtSpec::Assign(a) => {
                        if matches!(a.target, TargetSpec::Scalar(_)) {
                            saw_scalar_target = true;
                        }
                    }
                }
            }
        }
        assert!(saw_if, "no conditional generated in 200 seeds");
        assert!(saw_inner, "no inner loop generated in 200 seeds");
        assert!(saw_triangular, "no triangular loop generated in 200 seeds");
        assert!(saw_coupled, "no coupled subscript generated in 200 seeds");
        assert!(saw_scalar_target, "no scalar target generated in 200 seeds");
        assert!(saw_serial_stmt, "no serial chunk statement in 200 seeds");
        // The whole 0–3 region range occurs, with multi-region programs
        // well represented.
        assert!(region_counts[0] > 0, "no serial-only program");
        assert!(region_counts[1] > 0, "no single-region program");
        assert!(
            region_counts[2] + region_counts[3] >= 40,
            "multi-region programs are underrepresented: {region_counts:?}"
        );
    }

    #[test]
    fn negative_coefficients_shift_into_bounds() {
        // A handwritten spec with an all-negative subscript must still
        // build an in-bounds program: a(-k - 2) over k in [1, 8] shifts to
        // a(-k + 9) with extent 8 (minimum subscript pinned to 1).
        let spec = ProgramSpec {
            arrays: 1,
            scalars: 0,
            serial: vec![vec![], vec![]],
            regions: vec![RegionPart {
                outer_lo: 1,
                outer_trips: 8,
                while_shape: None,
                body: vec![StmtSpec::Assign(AssignSpec {
                    target: TargetSpec::Arr {
                        arr: 0,
                        sub: SubSpec::outer(-1, -2),
                    },
                    terms: vec![(TermOp::Add, TermSpec::OuterIdx)],
                })],
            }],
            index_arrays: vec![],
            live_out_arrays: vec![0],
            live_out_scalars: vec![],
        };
        let built = spec.build();
        use refidem_ir::exec::SeqInterp;
        use refidem_specsim::run::initial_memory;
        let proc = &built.program.procedures[0];
        let mut memory = initial_memory(proc);
        SeqInterp::new()
            .run_procedure(proc, &mut memory)
            .expect("shifted program executes");
    }

    #[test]
    fn serial_chunks_reject_loop_dependent_statements() {
        let spec = ProgramSpec {
            arrays: 1,
            scalars: 0,
            serial: vec![vec![StmtSpec::Assign(AssignSpec {
                target: TargetSpec::Arr {
                    arr: 0,
                    sub: SubSpec::outer(1, 0),
                },
                terms: vec![(TermOp::Add, TermSpec::Const(1))],
            })]],
            regions: vec![],
            index_arrays: vec![],
            live_out_arrays: vec![0],
            live_out_scalars: vec![],
        };
        let result = std::panic::catch_unwind(|| spec.build());
        assert!(result.is_err(), "a k-dependent serial subscript must panic");
    }
}
