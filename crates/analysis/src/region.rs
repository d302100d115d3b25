//! Bundled analysis of one region.
//!
//! [`RegionAnalysis`] packages everything the idempotency labeling
//! (Algorithm 2 in `refidem-core`) needs for one region: the reference
//! table of the loop body, the body summary, the dependence set and the
//! variable classification, plus two derived flags:
//!
//! * `fully_independent` — the region carries no cross-segment data
//!   dependences at all (Lemma 7 applies: every reference can be labeled
//!   idempotent and the region could run as a conventional parallel loop);
//! * `compiler_parallelizable` — the region carries no cross-segment data
//!   dependences except on privatizable variables. This models what the
//!   paper's prerequisite compiler (Polaris) can parallelize without
//!   speculation; the evaluation of Section 5 is restricted to the regions
//!   where this flag is `false` ("code sections that cannot be detected as
//!   parallel").

use crate::classify::{VarClass, VarClassification};
use crate::depend::{self, Dependence, DependenceSet};
use crate::liveness::live_among;
use crate::summary::BodySummary;
use refidem_ir::ids::VarId;
use refidem_ir::program::{Procedure, Program, RegionSpec};
use refidem_ir::sites::RefTable;
use refidem_ir::stmt::{IfStmt, LoopStmt, Stmt};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Errors produced while analyzing a region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The region label does not name a loop in the program.
    RegionNotFound(String),
    /// The region loop is not a top-level statement of its procedure (the
    /// simulator and the liveness analysis require this).
    RegionNotTopLevel(String),
    /// Two scheduled loops share a label. A `RegionSpec` identifies a
    /// region by `(procedure, label)` and every resolution is
    /// first-match, so a duplicate label would silently execute the
    /// second loop under the first loop's analysis and labeling —
    /// whole-program labeling rejects the program instead.
    DuplicateRegionLabel(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::RegionNotFound(l) => write!(f, "region `{l}` not found"),
            AnalysisError::RegionNotTopLevel(l) => {
                write!(f, "region `{l}` is not a top-level loop of its procedure")
            }
            AnalysisError::DuplicateRegionLabel(l) => {
                write!(f, "two scheduled region loops share the label `{l}`")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The complete prerequisite analysis of one region (Section 4.2.1).
///
/// The reference table and the dependence set — the two products that
/// grow with the region body — are immutable and shared (`Arc`), so
/// cloning an analysis (a cache hit, a labeling input) copies pointers to
/// them rather than their contents.
#[derive(Clone, Debug)]
pub struct RegionAnalysis {
    /// The analyzed region.
    pub spec: RegionSpec,
    /// Reference table of the loop body.
    pub table: Arc<RefTable>,
    /// Body summary (exposed reads, must writes, …) of one iteration.
    pub summary: BodySummary,
    /// May-dependences, classified intra-/cross-segment.
    pub deps: DependenceSet,
    /// Read-only / private / shared classification.
    pub classes: VarClassification,
    /// No cross-segment data dependences at all (Lemma 7).
    pub fully_independent: bool,
    /// No cross-segment data dependences except on privatizable variables.
    pub compiler_parallelizable: bool,
}

impl RegionAnalysis {
    /// Analyzes the region designated by `spec`.
    pub fn analyze(program: &Program, spec: &RegionSpec) -> Result<Self, AnalysisError> {
        let proc = program
            .procedures
            .get(spec.proc.index())
            .ok_or_else(|| AnalysisError::RegionNotFound(spec.loop_label.clone()))?;
        Self::analyze_in_proc(proc, spec.clone())
    }

    /// Analyzes the region named `label`, searching every procedure.
    pub fn analyze_labeled(program: &Program, label: &str) -> Result<Self, AnalysisError> {
        let spec = program
            .find_region(label)
            .ok_or_else(|| AnalysisError::RegionNotFound(label.to_string()))?;
        Self::analyze(program, &spec)
    }

    fn analyze_in_proc(proc: &Procedure, spec: RegionSpec) -> Result<Self, AnalysisError> {
        if proc.find_loop(&spec.loop_label).is_none() {
            return Err(AnalysisError::RegionNotFound(spec.loop_label));
        }
        let Some((_before, region, after)) = proc.split_at_loop(&spec.loop_label) else {
            return Err(AnalysisError::RegionNotTopLevel(spec.loop_label));
        };
        let view = segment_view(region);
        let table = RefTable::collect(&view);
        let summary = BodySummary::analyze(&proc.vars, Some(region), &view);
        let deps = DependenceSet::analyze(&proc.vars, region, &table);
        // Classification reads the live-out set for the private candidates
        // only, so liveness is computed for them alone.
        let candidates: Vec<VarId> = VarClassification::private_candidates(&summary).collect();
        let live_out = if candidates.is_empty() {
            BTreeSet::new()
        } else {
            live_among(proc, after, |v| candidates.binary_search(&v).is_ok())
        };
        let classes = VarClassification::classify(&summary, &live_out);
        // A while region's trip count is data-dependent, so the region is
        // never "provably parallel": later segments may be discarded by an
        // earlier segment's termination, which only speculation handles.
        let is_while = region.while_cond.is_some();
        let fully_independent = !is_while && !deps.has_cross_segment_deps();
        let compiler_parallelizable = !is_while
            && !deps.has_cross_segment_deps_excluding(&table, &|v| {
                classes.class(v) == VarClass::Private
            });
        Ok(RegionAnalysis {
            spec,
            table: Arc::new(table),
            summary,
            deps,
            classes,
            fully_independent,
            compiler_parallelizable,
        })
    }

    /// Total number of (static) reference sites in the region body.
    pub fn static_ref_count(&self) -> usize {
        self.table.len()
    }

    /// The region's dependences in emission order (see
    /// [`depend::dependence_list`]), recomputed from `program`, which must
    /// be the analyzed one: the analysis keeps only the facts labeling
    /// reads. The list is the one for the loop and the table this analysis
    /// saw — the top-level loop of the label, as [`RegionAnalysis::analyze`]
    /// finds it (a nested loop sharing the label is not it), and for a
    /// WHILE region the table of its segment view. For tests and tools.
    ///
    /// # Panics
    ///
    /// When `program` has no top-level loop where the analysis found one.
    pub fn dependence_list(&self, program: &Program) -> Vec<Dependence> {
        let proc = program.procedure(self.spec.proc);
        let (_, region, _) = proc
            .split_at_loop(&self.spec.loop_label)
            .expect("the analyzed region is a top-level loop of the program");
        depend::dependence_list(&proc.vars, region, &self.table)
    }
}

/// The statements one segment of `region` executes. A WHILE region is
/// analyzed through this view: the runtime evaluates the continuation
/// condition before every iteration's body, so one segment behaves exactly
/// like `IF (cond) THEN body ENDIF`. Desugaring to that form makes the
/// existing machinery sound for free — the condition's reads become
/// unconditional exposed reads, and every body write becomes a conditional
/// may-write (never RFW, never must-written), which is precisely what lets
/// the engines discard segments past the dynamic termination point:
/// non-private idempotent write-through classes are unreachable for
/// while-body writes.
pub(crate) fn segment_view(region: &LoopStmt) -> Cow<'_, [Stmt]> {
    match &region.while_cond {
        Some(cond) => Cow::Owned(vec![Stmt::If(IfStmt {
            id: region.id,
            cond: cond.clone(),
            then_branch: region.body.clone(),
            else_branch: vec![],
        })]),
        None => Cow::Borrowed(&region.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};

    fn toy_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let c = b.array("c", &[16]);
        let k = b.index("k");
        b.live_out(&[a, c]);
        // Region DEP: a(k) = a(k-1) + 1  (cross-segment flow dependence)
        let rhs1 = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s1 = b.assign_elem(a, vec![av(k)], rhs1);
        let dep_region = b.do_loop_labeled("DEP", k, ac(2), ac(10), vec![s1]);
        // Region INDEP: c(k) = a(k) * 2  (no cross-segment dependences)
        let rhs2 = refidem_ir::build::mul(b.load_elem(a, vec![av(k)]), num(2.0));
        let s2 = b.assign_elem(c, vec![av(k)], rhs2);
        let indep_region = b.do_loop_labeled("INDEP", k, ac(1), ac(16), vec![s2]);
        let proc = b.build(vec![dep_region, indep_region]);
        let mut p = Program::new("toy");
        p.add_procedure(proc);
        p
    }

    #[test]
    fn dependent_and_independent_regions_are_distinguished() {
        let p = toy_program();
        let dep = RegionAnalysis::analyze_labeled(&p, "DEP").unwrap();
        assert!(!dep.fully_independent);
        assert!(!dep.compiler_parallelizable);
        assert!(dep.static_ref_count() > 0);
        let indep = RegionAnalysis::analyze_labeled(&p, "INDEP").unwrap();
        assert!(indep.fully_independent);
        assert!(indep.compiler_parallelizable);
    }

    #[test]
    fn privatizable_dependences_do_not_block_parallelization() {
        // do k: { t = a(k); b(k) = t }  — t is private; the only
        // cross-segment deps are on t, so the region is parallelizable but
        // not fully independent.
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let bb = b.array("b", &[16]);
        let t = b.scalar("t");
        let k = b.index("k");
        b.live_out(&[bb]);
        let rhs1 = b.load_elem(a, vec![av(k)]);
        let s1 = b.assign_scalar(t, rhs1);
        let rhs2 = b.load(t);
        let s2 = b.assign_elem(bb, vec![av(k)], rhs2);
        let region = b.do_loop_labeled("PRIV", k, ac(1), ac(16), vec![s1, s2]);
        let proc = b.build(vec![region]);
        let mut p = Program::new("toy");
        p.add_procedure(proc);
        let analysis = RegionAnalysis::analyze_labeled(&p, "PRIV").unwrap();
        assert!(!analysis.fully_independent);
        assert!(analysis.compiler_parallelizable);
        assert_eq!(analysis.classes.class(t), VarClass::Private);
    }

    /// Liveness is computed for the private candidates only, but the walk
    /// after the region still visits every statement: a candidate read
    /// only inside another variable's subscript there stays live, so it
    /// is shared, not private.
    #[test]
    fn candidate_read_in_a_later_subscript_stays_live() {
        let mut b = ProcBuilder::new("main");
        let x = b.array("x", &[8]);
        let t = b.scalar("t");
        let u = b.scalar("u");
        let k = b.index("k");
        b.live_out(&[x]);
        // Region R writes t and u before any read: both are candidates.
        let wt = b.assign_scalar(t, num(2.0));
        let wu = b.assign_scalar(u, num(3.0));
        let region = b.do_loop_labeled("R", k, ac(1), ac(4), vec![wt, wu]);
        // After R: x(t) = 1 reads t only as x's subscript; u is dead.
        let read_t = b.sref(t);
        let sub = b.indirect(read_t);
        let lhs = b.aref_subs(x, vec![sub]);
        let after = b.assign(lhs, num(1.0));
        let proc = b.build(vec![region, after]);
        let mut p = Program::new("subscript");
        p.add_procedure(proc);
        let analysis = RegionAnalysis::analyze_labeled(&p, "R").unwrap();
        assert_eq!(analysis.classes.class(t), VarClass::Shared);
        assert_eq!(analysis.classes.class(u), VarClass::Private);
        let live = crate::liveness::region_live_out(&p.procedures[0], "R").unwrap();
        assert_eq!(
            analysis.classes,
            VarClassification::classify(&analysis.summary, &live)
        );
    }

    /// The list is the analyzed loop's even when a nested loop that comes
    /// first shares its label (`RegionSpec::resolve` would find that one).
    #[test]
    fn dependence_list_follows_the_analyzed_loop() {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let c = b.array("c", &[16]);
        let (k, j) = (b.index("k"), b.index("j"));
        b.live_out(&[a, c]);
        let nested_rhs = add(b.load_elem(c, vec![av(k)]), num(1.0));
        let nested = b.assign_elem(c, vec![av(k)], nested_rhs);
        // One trip: analyzed as the region, this loop carries nothing.
        let inner = b.do_loop_labeled("R", k, ac(1), ac(1), vec![nested]);
        let outer = b.do_loop(j, ac(1), ac(2), vec![inner]);
        let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let region = b.do_loop_labeled("R", k, ac(2), ac(10), vec![s]);
        let mut p = Program::new("shadowed");
        p.add_procedure(b.build(vec![outer, region]));
        let analysis = RegionAnalysis::analyze_labeled(&p, "R").unwrap();
        let list = analysis.dependence_list(&p);
        assert!(list.iter().all(|d| analysis.table.get(d.sink).is_some()));
        assert_eq!(analysis.deps, DependenceSet::from_deps(&list));
        assert!(analysis.deps.has_cross_segment_deps());
    }

    #[test]
    fn missing_and_non_top_level_regions_are_reported() {
        let p = toy_program();
        assert!(matches!(
            RegionAnalysis::analyze_labeled(&p, "NOPE"),
            Err(AnalysisError::RegionNotFound(_))
        ));
        // Build a program whose labeled loop is nested (not top level).
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let j = b.index("j");
        let s = b.assign_elem(a, vec![av(k)], num(1.0));
        let inner = b.do_loop_labeled("NESTED", k, ac(1), ac(8), vec![s]);
        let outer = b.do_loop(j, ac(1), ac(4), vec![inner]);
        let proc = b.build(vec![outer]);
        let mut p2 = Program::new("toy2");
        p2.add_procedure(proc);
        assert!(matches!(
            RegionAnalysis::analyze_labeled(&p2, "NESTED"),
            Err(AnalysisError::RegionNotTopLevel(_))
        ));
    }
}
