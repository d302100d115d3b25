//! Live-out analysis at region exits.
//!
//! Definition 5 only requires a *live* variable to be re-written after a
//! roll-back, and Algorithm 1 marks the region's exit node `Read` for a
//! variable exactly when the variable is live-out of the region. Similarly,
//! the private classification requires the variable to be dead at segment
//! boundaries.
//!
//! A variable is live at the exit of a region if the code following the
//! region (within the same procedure) has an upward-exposed read of it, or
//! if it is listed in the procedure's `live_out` set (a program output).
//!
//! Within a region analysis the live-out set has one reader,
//! [`VarClassification::classify`], and it asks only whether each
//! *private candidate* — a written, address-precise variable with no
//! exposed read in the body — is live. (RFW for a loop region reads the
//! body summary alone.) So `RegionAnalysis::analyze` asks `live_among`
//! for its candidates only, and not at all when it has none: a program
//! output is live without a walk, and the code after the region is walked
//! for the remaining candidates only. [`region_live_out`] answers through
//! the same walk for every variable.
//!
//! [`VarClassification::classify`]: crate::classify::VarClassification::classify

use crate::summary::exposed_vars;
use refidem_ir::ids::VarId;
use refidem_ir::program::Procedure;
use refidem_ir::stmt::Stmt;
use std::collections::BTreeSet;

/// Computes the set of variables live at the exit of the labeled region.
///
/// Returns `None` when the label does not name a top-level loop of the
/// procedure.
pub fn region_live_out(proc: &Procedure, region_label: &str) -> Option<BTreeSet<VarId>> {
    let (_before, _loop, after) = proc.split_at_loop(region_label)?;
    Some(live_among(proc, after, |_| true))
}

/// The variables `wanted` selects that are live where the code `after`
/// (the rest of `proc`'s body) begins: the selected program outputs, and
/// the other selected variables `after` reads exposed.
pub(crate) fn live_among(
    proc: &Procedure,
    after: &[Stmt],
    wanted: impl Fn(VarId) -> bool,
) -> BTreeSet<VarId> {
    let mut live: BTreeSet<VarId> = proc
        .live_out
        .iter()
        .copied()
        .filter(|&v| wanted(v))
        .collect();
    let exposed = exposed_vars(&proc.vars, after, |v| wanted(v) && !live.contains(&v));
    live.extend(exposed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, av, num, ProcBuilder};

    #[test]
    fn reads_after_the_region_make_variables_live() {
        // do k = 1, 8 (region R): a(k) = 1 ; t = 2
        // after: q = t ; r = a(3)
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[8]);
        let t = b.scalar("t");
        let q = b.scalar("q");
        let r = b.scalar("r");
        let dead = b.scalar("dead");
        let k = b.index("k");
        let s1 = b.assign_elem(a, vec![av(k)], num(1.0));
        let s2 = b.assign_scalar(t, num(2.0));
        let s_dead = b.assign_scalar(dead, num(3.0));
        let region = b.do_loop_labeled("R", k, ac(1), ac(8), vec![s1, s2, s_dead]);
        let rhs_q = b.load(t);
        let after1 = b.assign_scalar(q, rhs_q);
        let rhs_r = b.load_elem(a, vec![ac(3)]);
        let after2 = b.assign_scalar(r, rhs_r);
        let proc = b.build(vec![region, after1, after2]);
        let live = region_live_out(&proc, "R").unwrap();
        assert!(live.contains(&a));
        assert!(live.contains(&t));
        assert!(!live.contains(&dead));
        assert!(!live.contains(&q));
    }

    #[test]
    fn procedure_outputs_are_always_live() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[8]);
        let k = b.index("k");
        b.live_out(&[a]);
        let s1 = b.assign_elem(a, vec![av(k)], num(1.0));
        let region = b.do_loop_labeled("R", k, ac(1), ac(8), vec![s1]);
        let proc = b.build(vec![region]);
        let live = region_live_out(&proc, "R").unwrap();
        assert!(live.contains(&a));
        assert!(region_live_out(&proc, "MISSING").is_none());
    }

    #[test]
    fn kills_after_the_region_remove_liveness() {
        // region writes t; after the region t is overwritten before use.
        let mut b = ProcBuilder::new("t");
        let t = b.scalar("t");
        let q = b.scalar("q");
        let k = b.index("k");
        let s1 = b.assign_scalar(t, num(2.0));
        let region = b.do_loop_labeled("R", k, ac(1), ac(8), vec![s1]);
        let kill = b.assign_scalar(t, num(0.0));
        let rhs = b.load(t);
        let use_stmt = b.assign_scalar(q, rhs);
        let proc = b.build(vec![region, kill, use_stmt]);
        let live = region_live_out(&proc, "R").unwrap();
        assert!(!live.contains(&t), "t is killed before its use");
    }
}
