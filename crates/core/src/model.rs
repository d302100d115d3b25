//! The region / segment model (Definition 1), abstract front-end.
//!
//! The paper defines a *region* as a single-entry single-exit unit whose
//! *segments* execute speculatively in parallel; segments are related by
//! age. The evaluation instantiates regions as loops (handled by
//! `refidem_analysis::RegionAnalysis` and [`crate::label::label_region`]);
//! the worked examples of Figures 1–3, however, use irregular regions whose
//! segments are connected by an explicit control-flow graph. This module
//! provides that abstract form: an [`AbstractRegion`] is a list of segments
//! (oldest first), each holding an ordered list of scalar references, plus
//! control-flow edges, an optional set of live-out variables, and explicit
//! cross-segment control dependences.
//!
//! The abstract front-end computes its own dependence list (scalar,
//! reachability-filtered may-dependences; Algorithm 2 reads it through
//! `DependenceSet::from_deps`) and per-segment/per-variable node reference
//! types, which feed Algorithm 1 ([`crate::rfw`]) and Algorithm 2
//! ([`crate::label`]).

use refidem_analysis::depend::{DepKind, DepScope, Dependence};
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::sites::AccessKind;
use refidem_ir::var::{VarKind, VarTable};
use std::collections::BTreeSet;

/// Identifies one segment of an [`AbstractRegion`]; segments are numbered in
/// age order (0 is the oldest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

impl SegmentId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One reference inside an abstract segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractRef {
    /// Unique id (the unit that gets labeled).
    pub id: RefId,
    /// Referenced variable.
    pub var: VarId,
    /// Read or write.
    pub access: AccessKind,
    /// The reference executes on some but not all paths through its segment
    /// (e.g. under `IF (A)` in Figure 2).
    pub conditional: bool,
    /// The address is statically analyzable; `false` for subscripted
    /// subscripts such as `K(E)`.
    pub precise: bool,
}

/// One segment: a name and an ordered reference list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbstractSegment {
    /// Display name, e.g. `"R0"`.
    pub name: String,
    /// References in program order.
    pub refs: Vec<AbstractRef>,
}

/// An abstract region: segments (oldest first), control-flow edges between
/// them, live-out variables and cross-segment control dependences.
#[derive(Clone, Debug, Default)]
pub struct AbstractRegion {
    /// Region name.
    pub name: String,
    vars: VarTable,
    segments: Vec<AbstractSegment>,
    edges: Vec<(SegmentId, SegmentId)>,
    live_out: BTreeSet<VarId>,
    control_deps: Vec<(SegmentId, SegmentId)>,
    next_ref: u32,
}

impl AbstractRegion {
    /// Creates an empty region.
    pub fn new(name: impl Into<String>) -> Self {
        AbstractRegion {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a segment (younger than all previously added segments).
    pub fn segment(&mut self, name: impl Into<String>) -> SegmentId {
        self.segments.push(AbstractSegment {
            name: name.into(),
            refs: Vec::new(),
        });
        SegmentId(self.segments.len() - 1)
    }

    /// Declares (or returns) the scalar variable named `name`.
    pub fn var(&mut self, name: &str) -> VarId {
        match self.vars.lookup(name) {
            Some(v) => v,
            None => self.vars.declare(name, VarKind::Scalar),
        }
    }

    /// The variable id of `name`, if declared.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.lookup(name)
    }

    /// The symbol table.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Adds a control-flow edge between two segments.
    pub fn edge(&mut self, from: SegmentId, to: SegmentId) {
        self.edges.push((from, to));
    }

    /// Adds edges forming a chain through the given segments.
    pub fn chain(&mut self, segs: &[SegmentId]) {
        for w in segs.windows(2) {
            self.edge(w[0], w[1]);
        }
    }

    /// Marks variables as live after the region.
    pub fn live_out(&mut self, names: &[&str]) {
        let ids: Vec<VarId> = names.iter().map(|n| self.var(n)).collect();
        self.live_out.extend(ids);
    }

    /// Records a cross-segment control dependence (e.g. a segment whose
    /// identity depends on a branch in an older segment).
    pub fn control_dep(&mut self, from: SegmentId, to: SegmentId) {
        self.control_deps.push((from, to));
    }

    fn push_ref(
        &mut self,
        seg: SegmentId,
        var: &str,
        access: AccessKind,
        conditional: bool,
        precise: bool,
    ) -> RefId {
        let var = self.var(var);
        let id = RefId(self.next_ref);
        self.next_ref += 1;
        self.segments[seg.index()].refs.push(AbstractRef {
            id,
            var,
            access,
            conditional,
            precise,
        });
        id
    }

    /// Adds an unconditional, address-precise read of `var` to a segment.
    pub fn read(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Read, false, true)
    }

    /// Adds an unconditional, address-precise write of `var` to a segment.
    pub fn write(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Write, false, true)
    }

    /// Adds a conditional read (under an `IF` within the segment).
    pub fn read_conditional(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Read, true, true)
    }

    /// Adds a conditional write (under an `IF` within the segment).
    pub fn write_conditional(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Write, true, true)
    }

    /// Adds a read whose address is not statically analyzable (e.g. `K(E)`).
    pub fn read_imprecise(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Read, false, false)
    }

    /// Adds a write whose address is not statically analyzable (e.g.
    /// `K(E) = …`).
    pub fn write_imprecise(&mut self, seg: SegmentId, var: &str) -> RefId {
        self.push_ref(seg, var, AccessKind::Write, false, false)
    }

    /// The segments, oldest first.
    pub fn segments(&self) -> &[AbstractSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// All references of all segments.
    pub fn all_refs(&self) -> impl Iterator<Item = (SegmentId, &AbstractRef)> {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.refs.iter().map(move |r| (SegmentId(i), r)))
    }

    /// Finds a reference by segment, variable name and direction (first
    /// match in program order). Convenience for tests and examples.
    pub fn find_ref(&self, seg: SegmentId, var: &str, access: AccessKind) -> Option<RefId> {
        let var = self.var_id(var)?;
        self.segments[seg.index()]
            .refs
            .iter()
            .find(|r| r.var == var && r.access == access)
            .map(|r| r.id)
    }

    /// Control-flow successors of a segment.
    pub fn successors(&self, seg: SegmentId) -> Vec<SegmentId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == seg)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Segments with no successors (they fall through to the region exit).
    pub fn exit_segments(&self) -> Vec<SegmentId> {
        (0..self.segments.len())
            .map(SegmentId)
            .filter(|s| self.successors(*s).is_empty())
            .collect()
    }

    /// True when `to` is reachable from `from` by following one or more
    /// control-flow edges.
    pub fn reachable(&self, from: SegmentId, to: SegmentId) -> bool {
        if from == to {
            return false;
        }
        let mut seen = vec![false; self.segments.len()];
        let mut stack = vec![from];
        while let Some(s) = stack.pop() {
            for succ in self.successors(s) {
                if succ == to {
                    return true;
                }
                if !seen[succ.index()] {
                    seen[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }
        false
    }

    /// True when the variable is live after the region.
    pub fn is_live_out(&self, var: VarId) -> bool {
        self.live_out.contains(&var)
    }

    /// True when the region has cross-segment control dependences.
    pub fn has_control_deps(&self) -> bool {
        !self.control_deps.is_empty()
    }

    /// Computes the region's scalar may-dependences.
    ///
    /// * Intra-segment: between two references of one segment, in program
    ///   order, to the same variable, at least one of them a write.
    /// * Cross-segment: from a reference in an older segment to a reference
    ///   in a younger segment that is reachable from it through the
    ///   control-flow edges (references on mutually exclusive paths never
    ///   execute together, so they do not depend on each other).
    pub fn compute_deps(&self) -> Vec<Dependence> {
        let mut deps = Vec::new();
        // Intra-segment.
        for seg in &self.segments {
            for (i, a) in seg.refs.iter().enumerate() {
                for b in &seg.refs[i + 1..] {
                    if a.var != b.var {
                        continue;
                    }
                    if let Some(kind) = dep_kind(a.access, b.access) {
                        deps.push(Dependence {
                            source: a.id,
                            sink: b.id,
                            kind,
                            scope: DepScope::IntraSegment,
                            distance: None,
                        });
                    }
                }
            }
        }
        // Cross-segment.
        for (i, older) in self.segments.iter().enumerate() {
            for (j, younger) in self.segments.iter().enumerate().skip(i + 1) {
                if !self.reachable(SegmentId(i), SegmentId(j)) {
                    continue;
                }
                for a in &older.refs {
                    for b in &younger.refs {
                        if a.var != b.var {
                            continue;
                        }
                        if let Some(kind) = dep_kind(a.access, b.access) {
                            deps.push(Dependence {
                                source: a.id,
                                sink: b.id,
                                kind,
                                scope: DepScope::CrossSegment,
                                distance: Some((j - i) as i64),
                            });
                        }
                    }
                }
            }
        }
        deps
    }

    /// True when segments carry neither data nor control dependences
    /// (Lemma 7 applies).
    pub fn fully_independent(&self) -> bool {
        !self.has_control_deps()
            && !self
                .compute_deps()
                .iter()
                .any(|d| d.scope == DepScope::CrossSegment)
    }

    /// Variables never written inside the region.
    pub fn read_only_vars(&self) -> BTreeSet<VarId> {
        let written: BTreeSet<VarId> = self
            .all_refs()
            .filter(|(_, r)| r.access == AccessKind::Write)
            .map(|(_, r)| r.var)
            .collect();
        self.all_refs()
            .map(|(_, r)| r.var)
            .filter(|v| !written.contains(v))
            .collect()
    }

    /// Variables private to segments: every segment that references the
    /// variable writes it (unconditionally, precisely) before reading it,
    /// and the variable is not live-out of the region.
    pub fn private_vars(&self) -> BTreeSet<VarId> {
        let mut candidates: BTreeSet<VarId> = self
            .all_refs()
            .filter(|(_, r)| r.access == AccessKind::Write)
            .map(|(_, r)| r.var)
            .collect();
        candidates.retain(|v| !self.live_out.contains(v));
        for seg in &self.segments {
            let mut written_here: BTreeSet<VarId> = BTreeSet::new();
            for r in &seg.refs {
                if !candidates.contains(&r.var) {
                    continue;
                }
                match r.access {
                    AccessKind::Write => {
                        if r.conditional || !r.precise {
                            // A conditional or imprecise write does not make
                            // the variable private; but it does not "unwrite"
                            // it either — simply do not record coverage.
                        } else {
                            written_here.insert(r.var);
                        }
                    }
                    AccessKind::Read => {
                        if !written_here.contains(&r.var) {
                            candidates.remove(&r.var);
                        }
                    }
                }
            }
        }
        candidates
    }

    /// Per-segment, per-variable node reference type for Algorithm 1.
    pub fn node_type(&self, seg: SegmentId, var: VarId) -> crate::rfw::NodeType {
        let refs = &self.segments[seg.index()].refs;
        let mut written = false;
        let mut exposed = false;
        let mut covered = false;
        for r in refs.iter().filter(|r| r.var == var) {
            match r.access {
                AccessKind::Write => {
                    if !r.conditional && r.precise {
                        written = true;
                    }
                }
                AccessKind::Read => {
                    if written {
                        covered = true;
                    } else {
                        exposed = true;
                    }
                }
            }
        }
        let _ = covered;
        if exposed {
            crate::rfw::NodeType::Read
        } else if written {
            crate::rfw::NodeType::Write
        } else if refs.iter().any(|r| r.var == var) {
            // Only conditional/imprecise writes (no reads): the paper's
            // typing has no better bucket than Null — its writes are not
            // guaranteed to re-occur.
            crate::rfw::NodeType::Null
        } else {
            crate::rfw::NodeType::Null
        }
    }
}

fn dep_kind(src: AccessKind, snk: AccessKind) -> Option<DepKind> {
    match (src, snk) {
        (AccessKind::Write, AccessKind::Read) => Some(DepKind::Flow),
        (AccessKind::Read, AccessKind::Write) => Some(DepKind::Anti),
        (AccessKind::Write, AccessKind::Write) => Some(DepKind::Output),
        (AccessKind::Read, AccessKind::Read) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-segment region mirroring Figure 1 of the paper.
    fn figure1_region() -> AbstractRegion {
        let mut r = AbstractRegion::new("figure1");
        let s1 = r.segment("Segment1");
        let s2 = r.segment("Segment2");
        r.edge(s1, s2);
        r.live_out(&["A"]);
        // Segment 1:  ... = B ; A = ... ; ... = B
        r.read(s1, "B");
        r.write(s1, "A");
        r.read(s1, "B");
        // Segment 2:  C = ... ; ... = A ; ... = B ; ... = C
        r.write(s2, "C");
        r.read(s2, "A");
        r.read(s2, "B");
        r.read(s2, "C");
        r
    }

    #[test]
    fn figure1_dependences_and_classes() {
        let r = figure1_region();
        let deps = r.compute_deps();
        let a_read = r.find_ref(SegmentId(1), "A", AccessKind::Read).unwrap();
        let a_write = r.find_ref(SegmentId(0), "A", AccessKind::Write).unwrap();
        // The read of A in segment 2 is the sink of a cross-segment flow
        // dependence from the write in segment 1.
        assert!(deps
            .iter()
            .any(|d| d.source == a_write && d.sink == a_read && d.scope == DepScope::CrossSegment));
        // B is read-only; C is private (written before read, not live-out).
        let b = r.var_id("B").unwrap();
        let c = r.var_id("C").unwrap();
        assert!(r.read_only_vars().contains(&b));
        assert!(r.private_vars().contains(&c));
        assert!(!r.private_vars().contains(&r.var_id("A").unwrap()));
        assert!(!r.fully_independent());
    }

    #[test]
    fn reachability_filters_dependences_between_alternative_segments() {
        let mut r = AbstractRegion::new("diamond");
        let s0 = r.segment("S0");
        let s1 = r.segment("S1");
        let s2 = r.segment("S2");
        let s3 = r.segment("S3");
        r.edge(s0, s1);
        r.edge(s0, s2);
        r.edge(s1, s3);
        r.edge(s2, s3);
        // S1 and S2 both write X; they are alternatives, so no dependence.
        let w1 = r.write(s1, "X");
        let w2 = r.write(s2, "X");
        let deps = r.compute_deps();
        assert!(!deps.iter().any(|d| d.sink == w1 || d.sink == w2));
        assert!(r.reachable(s0, s3));
        assert!(!r.reachable(s1, s2));
        assert!(!r.reachable(s3, s0));
        assert_eq!(r.exit_segments(), vec![s3]);
    }

    #[test]
    fn node_types_follow_the_paper_definition() {
        let mut r = AbstractRegion::new("types");
        let s0 = r.segment("S0");
        let x = r.var("x");
        let y = r.var("y");
        let z = r.var("z");
        let w = r.var("w");
        r.write(s0, "x"); // unconditional write, no read: Write
        r.read(s0, "y"); // exposed read: Read
        r.write_conditional(s0, "z"); // only a conditional write: Null
        let _ = w; // never referenced: Null
        assert_eq!(r.node_type(s0, x), crate::rfw::NodeType::Write);
        assert_eq!(r.node_type(s0, y), crate::rfw::NodeType::Read);
        assert_eq!(r.node_type(s0, z), crate::rfw::NodeType::Null);
        assert_eq!(r.node_type(s0, w), crate::rfw::NodeType::Null);
        // Read after write is covered: still Write-typed.
        let mut r2 = AbstractRegion::new("covered");
        let s = r2.segment("S");
        let v = r2.var("v");
        r2.write(s, "v");
        r2.read(s, "v");
        assert_eq!(r2.node_type(s, v), crate::rfw::NodeType::Write);
        // Read before write: Read-typed (the H pattern of Figure 2 / R4).
        let mut r3 = AbstractRegion::new("h");
        let s = r3.segment("S");
        let h = r3.var("h");
        r3.read(s, "h");
        r3.write(s, "h");
        assert_eq!(r3.node_type(s, h), crate::rfw::NodeType::Read);
    }

    #[test]
    fn fully_independent_region_detection() {
        let mut r = AbstractRegion::new("indep");
        let s0 = r.segment("S0");
        let s1 = r.segment("S1");
        r.edge(s0, s1);
        r.read(s0, "ro");
        r.write(s0, "a");
        r.read(s1, "ro");
        r.write(s1, "b");
        assert!(r.fully_independent());
        // Adding a control dependence breaks it.
        r.control_dep(s0, s1);
        assert!(!r.fully_independent());
    }
}
