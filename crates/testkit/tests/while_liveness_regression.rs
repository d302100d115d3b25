//! Regression test: a WHILE region's continuation condition keeps the
//! watched variable live.
//!
//! Shrunk from differential seed 60. Region R0 writes `a1`; region R1 is a
//! WHILE region whose condition reads `a1(k+8)` but whose *body* never reads
//! `a1` at those addresses. Before the fix, the liveness/summary walkers
//! ignored `while_cond`, so `a1` looked dead after R0, was classified
//! Private there, and R0's writes never reached main memory — R1 then
//! evaluated its termination condition against stale initial values and CASE
//! diverged from the sequential run at capacity 1.

use refidem_core::label::Label;
use refidem_ir::affine::AffineExpr;
use refidem_ir::build::{ac, av, cmp, num, ProcBuilder};
use refidem_ir::expr::CmpOp;
use refidem_ir::ids::ProcId;
use refidem_ir::program::Program;
use refidem_ir::sites::AccessKind;
use refidem_testkit::diff::{check_program, DiffConfig};

fn repro_program() -> Program {
    let mut b = ProcBuilder::new("repro");
    let a0 = b.array("a0", &[7]);
    let a1 = b.array("a1", &[15]);
    let a2 = b.array("a2", &[1]);
    let s0 = b.scalar("s0");
    let s1 = b.scalar("s1");
    let k = b.index("k");
    let _j = b.index("j");
    b.live_out(&[a0, a2, s0, s1]);
    let st0 = {
        let rhs = num(0.5);
        b.assign_elem(a1, vec![av(k) + ac(8)], rhs)
    };
    let st1 = {
        let rhs = num(0.5);
        b.assign_elem(a1, vec![AffineExpr::scaled_var(k, 2) + ac(8)], rhs)
    };
    let r0 = b.do_loop_labeled("R0", k, ac(1), ac(2), vec![st0, st1]);
    let st2 = {
        let rhs = num(0.5);
        b.assign_elem(a0, vec![AffineExpr::scaled_var(k, -1) + ac(8)], rhs)
    };
    let st3 = {
        let rhs = num(0.5);
        b.assign_elem(a1, vec![AffineExpr::scaled_var(k, -1) + ac(8)], rhs)
    };
    let cond1 = cmp(CmpOp::Le, b.load_elem(a1, vec![av(k) + ac(8)]), num(3.5));
    let r1 = b.while_loop_labeled("R1", k, ac(1), ac(7), cond1, vec![st2, st3]);
    let mut program = Program::new("repro");
    program.add_procedure(b.build(vec![r0, r1]));
    program
}

#[test]
fn while_cond_reads_keep_watched_vars_live_across_regions() {
    let program = repro_program();
    let labeled = refidem_core::label::label_program(&program, ProcId::from_index(0)).unwrap();

    // R0: `a1` is read by R1's while-condition, so it is live-out of R0 and
    // must not be privatized (Private writes never reach main memory).
    let r0 = &labeled.regions[0];
    assert_eq!(r0.analysis.spec.loop_label, "R0");
    for site in r0.analysis.table.sites() {
        if site.access == AccessKind::Write {
            assert_ne!(
                r0.labeling.label(site.id),
                Label::Idempotent(refidem_core::label::IdemCategory::Private),
                "R0's write {:?} to the while-watched array must not be private",
                site.id
            );
        }
    }

    // R1 is a WHILE region: its condition read appears in the reference
    // table, and no body write may bypass speculative storage (segments past
    // the dynamic termination point must be fully discardable).
    let r1 = &labeled.regions[1];
    assert_eq!(r1.analysis.spec.loop_label, "R1");
    let (_, r1_loop) = r1.analysis.spec.resolve(&program).expect("R1 resolves");
    assert!(r1_loop.while_cond.is_some());
    assert!(!r1.analysis.fully_independent);
    let reads = r1
        .analysis
        .table
        .sites()
        .iter()
        .filter(|s| s.access == AccessKind::Read)
        .count();
    assert!(reads >= 1, "the while-condition read must be in the table");
    for site in r1.analysis.table.sites() {
        if site.access == AccessKind::Write {
            assert_eq!(
                r1.labeling.label(site.id),
                Label::Speculative,
                "while-body write {:?} must stay speculative",
                site.id
            );
        }
    }

    // Byte-exact across the full capacity ladder, both HOSE and CASE.
    let stats = check_program(&program, &DiffConfig::default()).unwrap_or_else(|e| {
        panic!("differential check failed: {e}");
    });
    assert!(stats.runs > 0);
}
