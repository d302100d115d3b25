//! Property-style tests, dependency-free.
//!
//! * The dependence analysis is *sound*: whenever a brute-force enumeration
//!   of the iteration space finds a real cross-iteration dependence, the
//!   analysis reports one (it may additionally report spurious
//!   may-dependences — they only cost performance, never correctness).
//!   The original proptest sampled this space; the grid is small enough to
//!   check **exhaustively** instead.
//! * For arbitrary small loop programs, the labeling plus the CASE simulator
//!   produce exactly the sequential memory state (Lemma 2 end-to-end), HOSE
//!   likewise (Lemma 1), and the bounded speculative storage never exceeds
//!   its capacity. Programs are drawn from `refidem-testkit`'s deterministic
//!   generator, so failures reproduce from a printed seed.

use refidem::analysis::{DepScope, RegionAnalysis};
use refidem::core::label::label_program_region_by_name;
use refidem::ir::build::{ac, num, ProcBuilder};
use refidem::ir::expr::Expr;
use refidem::ir::program::Program;
use refidem::ir::sites::AccessKind;
use refidem::specsim::{simulate_region, verify_against_sequential, ExecMode, SimConfig};
use refidem_testkit::{check_generated, generate, DiffConfig};

// ---------------------------------------------------------------------------
// Property 1: dependence-analysis soundness against a brute-force oracle.
// ---------------------------------------------------------------------------

const ORACLE_LO: i64 = 2;
const ORACLE_HI: i64 = 12;

/// Builds `do k: a(c_w*k + d_w) = a(c_r*k + d_r) + 1` and returns the
/// program plus the (write, read) site ids.
fn oracle_program(
    cw: i64,
    dw: i64,
    cr: i64,
    dr: i64,
) -> (Program, refidem::ir::ids::RefId, refidem::ir::ids::RefId) {
    let mut b = ProcBuilder::new("oracle");
    let a = b.array("a", &[64]);
    let k = b.index("k");
    b.live_out(&[a]);
    let read_ref = b.aref(
        a,
        vec![refidem::ir::affine::AffineExpr::scaled_var(k, cr) + ac(dr)],
    );
    let read_id = read_ref.id;
    let rhs = refidem::ir::build::add(Expr::Load(read_ref), num(1.0));
    let write_ref = b.aref(
        a,
        vec![refidem::ir::affine::AffineExpr::scaled_var(k, cw) + ac(dw)],
    );
    let write_id = write_ref.id;
    let stmt = b.assign(write_ref, rhs);
    let region = b.do_loop_labeled("R", k, ac(ORACLE_LO), ac(ORACLE_HI), vec![stmt]);
    let mut p = Program::new("oracle");
    p.add_procedure(b.build(vec![region]));
    (p, write_id, read_id)
}

/// Brute force: does a cross-iteration dependence with the given source and
/// sink exist (source iteration strictly earlier)?
fn oracle_cross_dep(src: (i64, i64), snk: (i64, i64)) -> bool {
    for ka in ORACLE_LO..=ORACLE_HI {
        for kb in (ka + 1)..=ORACLE_HI {
            if src.0 * ka + src.1 == snk.0 * kb + snk.1 {
                return true;
            }
        }
    }
    false
}

/// The paper's subscripts are 1-based and the layout clamps out-of-range
/// values, which would introduce aliasing the affine oracle cannot see:
/// restrict the exhaustive grid to coefficient/offset pairs whose subscripts
/// stay in `[1, 64]` over the whole iteration space.
fn oracle_in_bounds(c: i64, d: i64) -> bool {
    let ends = [c * ORACLE_LO + d, c * ORACLE_HI + d];
    ends.iter().all(|&v| (1..=64).contains(&v))
}

#[test]
fn dependence_analysis_is_sound_exhaustively() {
    let mut checked = 0u32;
    for cw in -2i64..=2 {
        for dw in -4i64..=30 {
            if !oracle_in_bounds(cw, dw) {
                continue;
            }
            for cr in -2i64..=2 {
                for dr in -4i64..=30 {
                    if !oracle_in_bounds(cr, dr) {
                        continue;
                    }
                    checked += 1;
                    let (program, write_id, read_id) = oracle_program(cw, dw, cr, dr);
                    let analysis =
                        RegionAnalysis::analyze_labeled(&program, "R").expect("analyzes");
                    let deps = analysis.dependence_list(&program);
                    let cross = |source, sink| {
                        deps.iter().any(|d| {
                            d.source == source
                                && d.sink == sink
                                && d.scope == DepScope::CrossSegment
                        })
                    };
                    // Real flow dependence: write earlier, read later.
                    if oracle_cross_dep((cw, dw), (cr, dr)) {
                        assert!(
                            cross(write_id, read_id),
                            "missed flow dependence for a({cw}k+{dw}) -> a({cr}k+{dr})"
                        );
                    }
                    // Real anti dependence: read earlier, write later.
                    if oracle_cross_dep((cr, dr), (cw, dw)) {
                        assert!(
                            cross(read_id, write_id),
                            "missed anti dependence for a({cr}k+{dr}) -> a({cw}k+{dw})"
                        );
                    }
                    // Real output dependence of the write with itself.
                    if oracle_cross_dep((cw, dw), (cw, dw)) {
                        assert!(
                            cross(write_id, write_id),
                            "missed output dependence for a({cw}k+{dw})"
                        );
                    }
                }
            }
        }
    }
    assert!(checked > 2000, "grid unexpectedly small: {checked}");
}

// ---------------------------------------------------------------------------
// Property 2: end-to-end functional equivalence on random loop programs.
// ---------------------------------------------------------------------------

#[test]
fn random_programs_execute_correctly_under_hose_and_case() {
    // Seeds 5000.. are disjoint from the testkit's own integration suite,
    // so this exercises fresh shapes. check_generated runs HOSE and CASE
    // across the whole capacity ladder with byte-exact comparison plus
    // capacity and rollback invariants.
    for seed in 5000..5064 {
        let g = generate(seed);
        if let Err(f) = check_generated(&g, &DiffConfig::default()) {
            panic!("seed {seed} failed: {f}");
        }
    }
}

#[test]
fn labels_are_consistent_between_runs() {
    for seed in 6000..6032 {
        let g = generate(seed);
        for region in &g.regions {
            let label = region.loop_label.as_str();
            let l1 = label_program_region_by_name(&g.program, label).expect("analyzes");
            let l2 = label_program_region_by_name(&g.program, label).expect("analyzes");
            assert_eq!(
                &l1.labeling, &l2.labeling,
                "seed {seed} region {label}: labels differ"
            );
            // Writes labeled idempotent are never sinks of cross-segment deps.
            for site in l1.analysis.table.sites() {
                if site.access == AccessKind::Write
                    && l1.labeling.is_idempotent(site.id)
                    && !l1.labeling.fully_independent
                    && l1.labeling.label(site.id).category()
                        != Some(refidem::core::label::IdemCategory::Private)
                {
                    assert!(
                        !l1.analysis.deps.is_sink_of_cross_segment(site.id),
                        "seed {seed} region {label}: idempotent write {:?} is a cross-segment sink",
                        site.id
                    );
                }
            }
        }
    }
}

#[test]
fn capacity_is_never_exceeded_and_segments_all_commit() {
    for seed in 7000..7016 {
        let g = generate(seed);
        for region in &g.regions {
            let labeled =
                label_program_region_by_name(&g.program, &region.loop_label).expect("analyzes");
            for capacity in [3usize, 8, 64] {
                let cfg = SimConfig::default().capacity(capacity);
                for mode in [ExecMode::Hose, ExecMode::Case] {
                    let diffs = verify_against_sequential(&g.program, &labeled, mode, &cfg)
                        .expect("simulation runs");
                    assert!(
                        diffs.is_empty(),
                        "seed {seed}: {mode} with capacity {capacity} diverged at {} addresses",
                        diffs.len()
                    );
                    let out = simulate_region(&g.program, &labeled, mode, &cfg).expect("runs");
                    assert!(out.report.spec_peak_occupancy <= capacity);
                    assert_eq!(out.report.commits as usize, out.report.segments);
                    assert!(
                        (out.report.max_segment_restarts as u64)
                            <= out.report.rollbacks + out.report.overflow_stalls,
                        "seed {seed}: unpaid-for segment restarts"
                    );
                }
            }
        }
    }
}
