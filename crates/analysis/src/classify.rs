//! Read-only / private / shared classification of region variables.
//!
//! Section 4.1 of the paper groups idempotent references into categories;
//! the first two are driven by a per-variable classification that the
//! prerequisite compiler (Polaris in the paper) provides:
//!
//! * **Read-only** — the variable is never written inside the region, so its
//!   references are not sinks of any dependence.
//! * **Private** — every read of the variable inside a segment is preceded
//!   by a write in the same segment, and the variable is dead at the end of
//!   the region ("private variables do not have any cross-segment
//!   dependences and are thus not live at the end of the segment").
//! * **Shared** — everything else.

use crate::summary::{BodySummary, VarSummary};
use refidem_ir::ids::VarId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The classification of one variable within a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VarClass {
    /// Never written inside the region.
    ReadOnly,
    /// Written before read in every segment and dead at region exit.
    Private,
    /// Shared read-write data.
    Shared,
}

/// The classification of every variable referenced by a region.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarClassification {
    /// Shared, so copies of an analysis (cache hits) share one map.
    map: Arc<BTreeMap<VarId, VarClass>>,
}

impl VarClassification {
    /// Classifies the variables of a region from its body summary and its
    /// live-out set. Only the [private candidates](Self::private_candidates)
    /// are looked up in the live-out set.
    pub fn classify(summary: &BodySummary, live_out: &BTreeSet<VarId>) -> Self {
        let mut map = BTreeMap::new();
        for (v, s) in summary.iter() {
            let class = if !s.has_write {
                VarClass::ReadOnly
            } else if is_private_candidate(s) && !live_out.contains(&v) {
                VarClass::Private
            } else {
                VarClass::Shared
            };
            map.insert(v, class);
        }
        VarClassification { map: Arc::new(map) }
    }

    /// The variables of `summary` whose class the live-out set decides:
    /// written, address-precise and never read exposed — private when dead
    /// at the region's exit, shared when live.
    pub fn private_candidates(summary: &BodySummary) -> impl Iterator<Item = VarId> + '_ {
        summary
            .iter()
            .filter(|(_, s)| s.has_write && is_private_candidate(s))
            .map(|(v, _)| v)
    }

    /// The class of a variable (`Shared` for unknown variables, the
    /// conservative answer).
    pub fn class(&self, v: VarId) -> VarClass {
        self.map.get(&v).copied().unwrap_or(VarClass::Shared)
    }

    /// All variables of a given class.
    pub fn vars_of(&self, class: VarClass) -> Vec<VarId> {
        self.map
            .iter()
            .filter(|(_, c)| **c == class)
            .map(|(v, _)| *v)
            .collect()
    }

    /// Iterates over `(variable, class)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, VarClass)> + '_ {
        self.map.iter().map(|(v, c)| (*v, *c))
    }
}

/// A written variable is private unless live when every read of it in a
/// segment is covered and its every reference is address-precise.
fn is_private_candidate(s: &VarSummary) -> bool {
    s.exposed_reads.is_empty() && s.all_precise
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};
    use refidem_ir::stmt::Stmt;

    fn classify_body(
        b: &mut ProcBuilder,
        k: refidem_ir::ids::VarId,
        body: Vec<Stmt>,
        live_out: &[refidem_ir::ids::VarId],
    ) -> VarClassification {
        let region = match b.do_loop_labeled("R", k, ac(1), ac(8), body) {
            Stmt::Loop(l) => l,
            _ => unreachable!(),
        };
        let summary = BodySummary::analyze(b.vars(), Some(&region), &region.body);
        let live: BTreeSet<_> = live_out.iter().copied().collect();
        VarClassification::classify(&summary, &live)
    }

    #[test]
    fn figure1_categories() {
        // Figure 1: B is read-only, C is private, A is shared.
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[8]);
        let bb = b.scalar("B");
        let c = b.scalar("C");
        let k = b.index("k");
        // a(k) = B ; C = B + a(k) ; a(k+1) = C
        let rhs1 = b.load(bb);
        let s1 = b.assign_elem(a, vec![av(k)], rhs1);
        let rhs2 = add(b.load(bb), b.load_elem(a, vec![av(k)]));
        let s2 = b.assign_scalar(c, rhs2);
        let rhs3 = b.load(c);
        let s3 = b.assign_elem(a, vec![av(k) + ac(1)], rhs3);
        let classes = classify_body(&mut b, k, vec![s1, s2, s3], &[a]);
        assert_eq!(classes.class(bb), VarClass::ReadOnly);
        assert_eq!(classes.class(c), VarClass::Private);
        assert_eq!(classes.class(a), VarClass::Shared);
        assert_eq!(classes.vars_of(VarClass::ReadOnly), vec![bb]);
    }

    #[test]
    fn live_out_private_candidates_are_shared() {
        // t = 1 ; q(k) = t   with t live-out: not private.
        let mut b = ProcBuilder::new("t");
        let q = b.array("q", &[8]);
        let t = b.scalar("t");
        let k = b.index("k");
        let s1 = b.assign_scalar(t, num(1.0));
        let rhs = b.load(t);
        let s2 = b.assign_elem(q, vec![av(k)], rhs);
        let classes = classify_body(&mut b, k, vec![s1, s2], &[t]);
        assert_eq!(classes.class(t), VarClass::Shared);
    }

    #[test]
    fn exposed_reads_prevent_privatization() {
        // s = s + a(k): s has an exposed read, so it is shared even if dead
        // afterwards.
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[8]);
        let s = b.scalar("s");
        let k = b.index("k");
        let rhs = add(b.load(s), b.load_elem(a, vec![av(k)]));
        let st = b.assign_scalar(s, rhs);
        let classes = classify_body(&mut b, k, vec![st], &[]);
        assert_eq!(classes.class(s), VarClass::Shared);
        assert_eq!(classes.class(a), VarClass::ReadOnly);
        // Unknown variables default to shared.
        assert_eq!(classes.class(refidem_ir::ids::VarId(999)), VarClass::Shared);
    }
}
