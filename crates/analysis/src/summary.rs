//! Structured per-body summaries: exposed reads, covered reads, must-writes.
//!
//! These are the facts Algorithm 1's node reference types are built from
//! (Section 4.2.2: "If x is defined on all paths through segment v without
//! exposed read, then set the reference type to Write; else, if there is an
//! exposed read of x, then set Read; else set Null") and the facts the
//! private-variable classification needs.
//!
//! The summary is computed by a single structured walk over a statement list
//! (one segment body), tracking per variable:
//!
//! * which *locations* (canonicalized subscript vectors) are already
//!   must-written,
//! * which reads are *covered* by such writes and which are *exposed*
//!   (may consume a value produced outside the segment),
//! * which writes execute unconditionally ("must context") and whether an
//!   exposed read of the same variable precedes them — the per-reference
//!   ingredients of the re-occurring-first-write property (Definition 5).
//!
//! ### Address canonicalization
//!
//! Coverage needs a *must* "same address" argument. Scalar references and
//! array references whose affine subscripts match syntactically qualify
//! directly. In addition, inner-loop index variables are renamed to
//! positional placeholders keyed by the loop's (position, bounds, step), so
//! that `x(m)` written under `do m = 1, 5` covers `x(l)` read under
//! `do l = 1, 5` — the pattern the paper's private arrays exhibit.
//! References with indirect (subscripted) subscripts are never covered and
//! never cover anything, mirroring the paper's treatment of `K(E)`.
//!
//! ### Representation
//!
//! The walker keeps its per-variable state in dense vectors indexed by
//! variable id. Locations are interned as token streams, so a location is
//! a number; one sorted list holds the locations must-written on the
//! current path (a location names its variable, so the list serves every
//! variable), and an `IF` merge intersects the two branches' lists. Reads
//! and writes are recorded in walk order and dealt out to their variables
//! at the end, each variable's vectors allocated at their final size.
//!
//! Liveness asks only which variables the code after a region reads
//! exposed, and only for some variables. Exposure of a variable depends on
//! its own references and the control structure alone, so the liveness
//! walk (`exposed_vars`) is this walk with every other variable untracked.

use crate::bounds::{always_executes, IndexBounds};
use crate::intern::Interner;
use refidem_ir::affine::AffineExpr;
use refidem_ir::expr::{Reference, Subscript};
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_ir::var::VarTable;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Facts about one write site gathered by the body walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteFacts {
    /// The write site.
    pub id: RefId,
    /// All subscripts are affine (the address is statically analyzable).
    pub precise: bool,
    /// The write executes on every path through the body ("must context"):
    /// it is not nested under an `IF`, and every enclosing inner loop either
    /// contributes its index to the subscripts or always executes.
    pub must_context: bool,
    /// An exposed read of the same variable precedes the write on some path.
    pub preceded_by_exposed_read: bool,
    /// The write's location (canonical subscript vector) is must-written on
    /// every path through the body — either by this write itself or by
    /// other writes of the same location. Together with the absence of
    /// exposed reads this is the per-reference ingredient of the
    /// re-occurring-first-write property.
    pub location_must_written: bool,
}

/// Facts about one read site gathered by the body walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadFacts {
    /// The read site.
    pub id: RefId,
    /// The read is covered: a must-write of the same canonical location
    /// precedes it on every path, so it never consumes a value produced
    /// outside the segment.
    pub covered: bool,
}

/// Per-variable summary of one body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarSummary {
    /// Reads that may consume a value produced outside the segment.
    pub exposed_reads: Vec<RefId>,
    /// Reads always preceded by a must-write of the same location.
    pub covered_reads: Vec<RefId>,
    /// The variable is written on every path through the body by an
    /// address-precise write.
    pub must_written: bool,
    /// Any write exists.
    pub has_write: bool,
    /// Any read exists.
    pub has_read: bool,
    /// Every reference to the variable is address-precise.
    pub all_precise: bool,
    /// Per-write facts.
    pub writes: Vec<WriteFacts>,
    /// Per-read facts.
    pub reads: Vec<ReadFacts>,
}

impl VarSummary {
    /// Algorithm 1 node reference type `Write`: the variable is defined on
    /// all paths through the segment without an exposed read.
    pub fn is_write_typed(&self) -> bool {
        self.must_written && self.exposed_reads.is_empty()
    }

    /// Algorithm 1 node reference type `Read`: an exposed read exists.
    pub fn is_read_typed(&self) -> bool {
        !self.exposed_reads.is_empty()
    }
}

/// Summary of one segment body (one iteration of a region loop, or one
/// abstract segment).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BodySummary {
    /// The referenced variables' summaries, sorted by variable; shared, so
    /// copies of an analysis (cache hits) share one list.
    per_var: Arc<[(VarId, VarSummary)]>,
}

impl BodySummary {
    /// Summary of a variable ([`VarSummary::default`] when unreferenced).
    pub fn var(&self, v: VarId) -> VarSummary {
        match self.per_var.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.per_var[i].1.clone(),
            Err(_) => VarSummary::default(),
        }
    }

    /// Iterates over the referenced variables and their summaries, in
    /// variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarSummary)> {
        self.per_var.iter().map(|(v, s)| (*v, s))
    }

    /// Variables with at least one reference in the body.
    pub fn referenced_vars(&self) -> Vec<VarId> {
        self.per_var.iter().map(|&(v, _)| v).collect()
    }

    /// Variables with at least one exposed (upward-exposed) read — the gen
    /// set of a backward liveness analysis over this body.
    pub fn exposed_read_vars(&self) -> BTreeSet<VarId> {
        self.iter()
            .filter(|(_, s)| !s.exposed_reads.is_empty())
            .map(|(v, _)| v)
            .collect()
    }

    /// Computes the summary of a statement list. `region` provides the
    /// enclosing region loop (for index bounds); pass `None` when
    /// summarizing code outside any region (e.g. the statements after a
    /// region for liveness purposes).
    pub fn analyze(vars: &VarTable, region: Option<&LoopStmt>, stmts: &[Stmt]) -> Self {
        Walker::new(vars, region, |_| true).summarize(stmts)
    }
}

/// The variables `track` selects that `stmts`, code outside any region,
/// read exposed: [`BodySummary::exposed_read_vars`] of
/// `BodySummary::analyze(vars, None, stmts)`, restricted to them. The walk
/// visits every statement (the control structure, the reads inside other
/// variables' subscripts, a WHILE loop's continuation condition) but
/// records references of the selected variables only, which changes no
/// answer for them.
pub(crate) fn exposed_vars(
    vars: &VarTable,
    stmts: &[Stmt],
    track: impl Fn(VarId) -> bool,
) -> BTreeSet<VarId> {
    let mut walker = Walker::new(vars, None, track);
    for s in stmts {
        walker.walk_stmt(s);
    }
    // Exposure meets by union, so the final flow holds every exposed read.
    let flags = walker.flow.flags.iter().enumerate();
    flags
        .filter(|&(_, &f)| f & EXPOSED != 0)
        .map(|(v, _)| VarId::from_index(v))
        .collect()
}

/// A canonical location descriptor — variable plus canonicalized
/// subscripts — interned per walk: two references denote the same
/// location exactly when their ids are equal.
type LocId = u32;

/// Flow flag: an exposed read of the variable has occurred so far on some
/// path.
const EXPOSED: u8 = 1;
/// Flow flag: the variable is must-written (by a precise write) on every
/// path so far.
const MUST_WRITTEN: u8 = 2;

/// Path-sensitive state (copied at an `IF` or WHILE loop and met after).
#[derive(Debug, Default)]
struct Flow {
    /// Canonical locations must-written so far on every path, sorted.
    must_locs: Vec<LocId>,
    /// Per variable id: its [`EXPOSED`] and [`MUST_WRITTEN`] flags.
    flags: Vec<u8>,
}

impl Flow {
    /// What holds after two paths join: locations must-written on both,
    /// exposure on either, must-written on both.
    fn meet(&mut self, other: &Flow) {
        self.must_locs
            .retain(|loc| other.must_locs.binary_search(loc).is_ok());
        for (f, &o) in self.flags.iter_mut().zip(&other.flags) {
            *f = ((*f | o) & EXPOSED) | (*f & o & MUST_WRITTEN);
        }
    }
}

/// What the walk has recorded of one variable's references.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// The walk records the variable's references.
    tracked: bool,
    reads: u32,
    exposed: u32,
    writes: u32,
    /// Some reference has an indirect subscript.
    imprecise: bool,
    /// The variable's index in the finished summary.
    slot: usize,
}

/// One recorded reference: a read, or a write with its canonical location.
#[derive(Debug)]
enum Fact {
    Read(ReadFacts),
    Write(WriteFacts, Option<LocId>),
}

#[derive(Clone, Debug)]
struct LoopLevel<'a> {
    stmt: &'a LoopStmt,
    always_executes: bool,
    /// The loop's canonical name tokens in the walker's `names`:
    /// parameter-folded lower and upper bounds, then the step (the stack
    /// position is added per use).
    name: Range<usize>,
}

struct Walker<'a> {
    vars: &'a VarTable,
    /// Per variable id.
    seen: Vec<Seen>,
    /// Every recorded reference with its variable, in walk order (each
    /// syntactic site is visited exactly once).
    facts: Vec<(VarId, Fact)>,
    flow: Flow,
    /// Flow copies the merges are done with, kept for the next one.
    spare: Vec<Flow>,
    bounds: IndexBounds,
    loop_stack: Vec<LoopLevel<'a>>,
    /// The loop levels' name tokens, level after level.
    names: Vec<i64>,
    conditional_depth: usize,
    /// The walk's interned canonical locations.
    locs: Interner,
    /// Name locations with the `format!`-built strings of the reference
    /// canonicalizer instead of token streams.
    #[cfg(test)]
    string_names: bool,
}

/// Appends a parameter-folded affine expression as tokens: constant, term
/// count, then `(variable, coefficient)` pairs in variable order.
fn push_folded(vars: &VarTable, e: &AffineExpr, key: &mut Vec<i64>) {
    let at = key.len();
    key.extend([0, 0]);
    let (mut constant, mut terms) = (e.constant, 0);
    for &(v, c) in &e.terms {
        match vars.param_value(v) {
            Some(value) => constant += c * value,
            None => {
                key.extend([v.index() as i64, c]);
                terms += 1;
            }
        }
    }
    key[at] = constant;
    key[at + 1] = terms;
}

impl<'a> Walker<'a> {
    /// A walker recording the references of the data variables `track`
    /// selects.
    fn new(vars: &'a VarTable, region: Option<&LoopStmt>, track: impl Fn(VarId) -> bool) -> Self {
        let mut bounds = IndexBounds::new();
        if let Some(r) = region {
            bounds.enter_loop(vars, r.index, &r.lower, &r.upper, r.step);
        }
        let seen = vars
            .iter()
            .map(|(v, info)| Seen {
                tracked: info.kind.is_data() && track(v),
                ..Seen::default()
            })
            .collect();
        Walker {
            vars,
            seen,
            facts: Vec::new(),
            flow: Flow {
                must_locs: Vec::new(),
                flags: vec![0; vars.len()],
            },
            spare: Vec::new(),
            bounds,
            loop_stack: Vec::new(),
            names: Vec::new(),
            conditional_depth: 0,
            locs: Interner::default(),
            #[cfg(test)]
            string_names: false,
        }
    }

    fn summarize(mut self, stmts: &'a [Stmt]) -> BodySummary {
        for s in stmts {
            self.walk_stmt(s);
        }
        // Finalize: one summary per referenced variable, in variable order,
        // its vectors at their final size; the references dealt out in
        // walk order, each write's `location_must_written` resolved against
        // the final must-location list. (Collecting a counted range builds
        // the shared list in place, without a vector to copy from.)
        let referenced = self.seen.iter().filter(|s| s.reads + s.writes > 0);
        let mut per_var: Arc<[(VarId, VarSummary)]> = (0..referenced.count())
            .map(|_| (VarId::from_index(0), VarSummary::default()))
            .collect();
        let entries = Arc::get_mut(&mut per_var).expect("not shared yet");
        let mut next = 0;
        for (v, s) in self.seen.iter_mut().enumerate() {
            if s.reads + s.writes == 0 {
                continue;
            }
            s.slot = next;
            next += 1;
            let (reads, exposed, writes) =
                (s.reads as usize, s.exposed as usize, s.writes as usize);
            entries[s.slot] = (
                VarId::from_index(v),
                VarSummary {
                    exposed_reads: Vec::with_capacity(exposed),
                    covered_reads: Vec::with_capacity(reads - exposed),
                    must_written: self.flow.flags[v] & MUST_WRITTEN != 0,
                    has_write: writes > 0,
                    has_read: reads > 0,
                    all_precise: !s.imprecise,
                    writes: Vec::with_capacity(writes),
                    reads: Vec::with_capacity(reads),
                },
            );
        }
        let must_locs = &self.flow.must_locs;
        for (v, fact) in self.facts {
            let summary = &mut entries[self.seen[v.index()].slot].1;
            match fact {
                Fact::Read(read) => {
                    if read.covered {
                        summary.covered_reads.push(read.id);
                    } else {
                        summary.exposed_reads.push(read.id);
                    }
                    summary.reads.push(read);
                }
                Fact::Write(mut write, loc) => {
                    write.location_must_written =
                        loc.is_some_and(|loc| must_locs.binary_search(&loc).is_ok());
                    summary.writes.push(write);
                }
            }
        }
        BodySummary { per_var }
    }

    /// Appends `r`'s canonical location to `key` as a token stream; false
    /// for a reference with an indirect subscript, which has none. The
    /// stream is the variable, then per subscript its parameter-folded
    /// terms and constant. An inner-loop index is named by its loop's
    /// stack position, folded bounds and step rather than by its variable,
    /// so that `x(m)` written under `do m = 1, 5` and `x(l)` read under a
    /// sibling `do l = 1, 5` name the same location.
    fn loc_key(&self, r: &Reference, key: &mut Vec<i64>) -> bool {
        #[cfg(test)]
        if self.string_names {
            return reference::loc_key(self, r, key);
        }
        key.push(r.var.index() as i64);
        key.push(r.subs.len() as i64);
        for sub in &r.subs {
            let Subscript::Affine(e) = sub else {
                return false;
            };
            let count_at = key.len();
            key.push(0);
            let (mut constant, mut terms) = (e.constant, 0);
            for &(v, c) in &e.terms {
                if let Some(value) = self.vars.param_value(v) {
                    constant += c * value;
                    continue;
                }
                terms += 1;
                key.push(c);
                match self.loop_stack.iter().position(|l| l.stmt.index == v) {
                    Some(pos) => {
                        key.push(1);
                        key.push(pos as i64);
                        key.extend_from_slice(&self.names[self.loop_stack[pos].name.clone()]);
                    }
                    None => {
                        key.push(0);
                        key.push(v.index() as i64);
                    }
                }
            }
            key[count_at] = terms;
            key.push(constant);
        }
        true
    }

    /// The id of `r`'s canonical location: interned when `intern`, else
    /// only looked up (`None` when no write named it yet, so it is in no
    /// must-location list). `None` for indirect subscripts.
    fn loc_id(&mut self, r: &Reference, intern: bool) -> Option<LocId> {
        let mut locs = std::mem::take(&mut self.locs);
        let key = |key: &mut Vec<i64>| self.loc_key(r, key);
        let id = if intern {
            locs.intern_with(key).map(|(id, _)| id)
        } else {
            locs.get_with(key)
        };
        self.locs = locs;
        id
    }

    /// True when, on the *current path*, the reference is guaranteed to
    /// execute: every enclosing inner loop must either contribute its index
    /// to the subscripts (so the canonical location ranges over its extent)
    /// or always execute at least once. `IF` nesting is handled by the
    /// branch merge, not here.
    fn loops_guarantee_execution(&self, r: &Reference) -> bool {
        self.loop_stack.iter().all(|l| {
            let used = r.subs.iter().any(|s| match s {
                Subscript::Affine(e) => e.uses(l.stmt.index),
                Subscript::Indirect(_) => false,
            });
            used || l.always_executes
        })
    }

    /// A copy of the current flow, in storage left by an earlier merge.
    fn snapshot(&mut self) -> Flow {
        let mut copy = self.spare.pop().unwrap_or_default();
        copy.must_locs.clone_from(&self.flow.must_locs);
        copy.flags.clone_from(&self.flow.flags);
        copy
    }

    fn record_read_flat(&mut self, r: &Reference) {
        let v = r.var.index();
        if !self.seen[v].tracked {
            return;
        }
        // Only a must-written variable has must-written locations.
        let covered = self.flow.flags[v] & MUST_WRITTEN != 0
            && self
                .loc_id(r, false)
                .is_some_and(|loc| self.flow.must_locs.binary_search(&loc).is_ok());
        let seen = &mut self.seen[v];
        seen.reads += 1;
        seen.imprecise |= !r.is_address_precise();
        if !covered {
            seen.exposed += 1;
            self.flow.flags[v] |= EXPOSED;
        }
        self.facts
            .push((r.var, Fact::Read(ReadFacts { id: r.id, covered })));
    }

    fn record_write(&mut self, r: &Reference) {
        for inner in r.indirect_reads() {
            self.record_read_flat(inner);
        }
        let v = r.var.index();
        if !self.seen[v].tracked {
            return;
        }
        let precise = r.is_address_precise();
        // Conditionality is handled by the branch merge, so any write that
        // its loops guarantee contributes to the path-local must facts.
        let on_path_guaranteed = self.loops_guarantee_execution(r);
        let loc = self.loc_id(r, true);
        let seen = &mut self.seen[v];
        seen.writes += 1;
        seen.imprecise |= !precise;
        let write = WriteFacts {
            id: r.id,
            precise,
            must_context: self.conditional_depth == 0 && on_path_guaranteed,
            preceded_by_exposed_read: self.flow.flags[v] & EXPOSED != 0,
            location_must_written: false, // resolved at finalization
        };
        self.facts.push((r.var, Fact::Write(write, loc)));
        if on_path_guaranteed && precise {
            self.flow.flags[v] |= MUST_WRITTEN;
            if let Some(loc) = loc {
                if let Err(at) = self.flow.must_locs.binary_search(&loc) {
                    self.flow.must_locs.insert(at, loc);
                }
            }
        }
    }

    fn walk_stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::Assign(a) => {
                // `for_each_read` already yields indirect-subscript reads as
                // separate entries (inner before parent), so record them
                // flatly to avoid double counting.
                a.rhs.for_each_read(&mut |r| self.record_read_flat(r));
                self.record_write(&a.lhs);
            }
            Stmt::If(i) => {
                i.cond.for_each_read(&mut |r| self.record_read_flat(r));
                // Walk both branches from the pre-flow and meet: a location
                // is must-written after the IF only if it is must-written on
                // both branches; exposure is the union.
                let pre = self.snapshot();
                self.conditional_depth += 1;
                for st in &i.then_branch {
                    self.walk_stmt(st);
                }
                let then_flow = std::mem::replace(&mut self.flow, pre);
                for st in &i.else_branch {
                    self.walk_stmt(st);
                }
                self.conditional_depth -= 1;
                self.flow.meet(&then_flow);
                self.spare.push(then_flow);
            }
            Stmt::Loop(l) => {
                // A data-dependent continuation condition makes the loop a
                // WHILE: the condition's reads happen before every iteration
                // (they are ordinary reads of the loop statement), and the
                // body may execute zero times even when the counted range is
                // non-empty — so a WHILE body never contributes must facts
                // and never counts as guaranteed execution.
                let always = l.while_cond.is_none()
                    && always_executes(self.vars, &self.bounds, &l.lower, &l.upper, l.step);
                self.bounds
                    .enter_loop(self.vars, l.index, &l.lower, &l.upper, l.step);
                let name = self.names.len();
                push_folded(self.vars, &l.lower, &mut self.names);
                push_folded(self.vars, &l.upper, &mut self.names);
                self.names.push(l.step);
                self.loop_stack.push(LoopLevel {
                    stmt: l,
                    always_executes: always,
                    name: name..self.names.len(),
                });
                if let Some(cond) = &l.while_cond {
                    cond.for_each_read(&mut |r| self.record_read_flat(r));
                    let pre = self.snapshot();
                    self.conditional_depth += 1;
                    for st in &l.body {
                        self.walk_stmt(st);
                    }
                    self.conditional_depth -= 1;
                    self.flow.meet(&pre);
                    self.spare.push(pre);
                } else {
                    for st in &l.body {
                        self.walk_stmt(st);
                    }
                }
                self.loop_stack.pop();
                self.names.truncate(name);
            }
        }
    }
}

/// The `format!`-built string canonicalizer, kept as the reference
/// implementation: summaries naming locations either way must be
/// identical.
#[cfg(test)]
mod reference {
    use super::Walker;
    use refidem_ir::affine::AffineExpr;
    use refidem_ir::expr::{Reference, Subscript};
    use refidem_ir::stmt::{LoopStmt, Stmt};
    use refidem_ir::var::VarTable;

    /// Canonicalizes an affine subscript: inner-loop indices are replaced by
    /// positional placeholders keyed by (position, folded bounds, step).
    fn canon_affine(w: &Walker<'_>, e: &AffineExpr) -> String {
        let folded = e.substitute_params(&|v| w.vars.param_value(v));
        let mut rendered: Vec<String> = Vec::new();
        for &(v, c) in &folded.terms {
            let name = w
                .loop_stack
                .iter()
                .enumerate()
                .find(|(_, l)| l.stmt.index == v)
                .map(|(pos, l)| {
                    let lo = l.stmt.lower.substitute_params(&|v| w.vars.param_value(v));
                    let hi = l.stmt.upper.substitute_params(&|v| w.vars.param_value(v));
                    format!("inner{pos}<{lo:?},{hi:?},{}>", l.stmt.step)
                })
                .unwrap_or_else(|| format!("{v}"));
            rendered.push(format!("{c}*{name}"));
        }
        format!("{}+{}", folded.constant, rendered.join("+"))
    }

    /// The string name of `r`'s location, as bytes appended to `key`.
    pub(super) fn loc_key(w: &Walker<'_>, r: &Reference, key: &mut Vec<i64>) -> bool {
        let mut subs = Vec::with_capacity(r.subs.len());
        for s in &r.subs {
            match s {
                Subscript::Affine(e) => subs.push(canon_affine(w, e)),
                Subscript::Indirect(_) => return false,
            }
        }
        let name = format!("{}[{}]", r.var, subs.join(";"));
        key.extend(name.bytes().map(i64::from));
        true
    }

    /// [`BodySummary::analyze`](super::BodySummary::analyze) with the
    /// reference canonicalizer.
    pub(crate) fn analyze(
        vars: &VarTable,
        region: Option<&LoopStmt>,
        stmts: &[Stmt],
    ) -> super::BodySummary {
        let mut walker = Walker::new(vars, region, |_| true);
        walker.string_names = true;
        walker.summarize(stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, add, av, idx, num, ProcBuilder};
    use refidem_ir::expr::CmpOp;

    /// Helper: analyze a body built inside a region loop `k = 1..8`.
    fn analyze_region_body(
        b: &mut ProcBuilder,
        k: VarId,
        body: Vec<Stmt>,
    ) -> (BodySummary, LoopStmt) {
        let region = match b.do_loop_labeled("R", k, ac(1), ac(8), body) {
            Stmt::Loop(l) => l,
            _ => unreachable!(),
        };
        let summary = BodySummary::analyze(b.vars(), Some(&region), &region.body);
        (summary, region)
    }

    /// Interned token locations and the reference string canonicalizer
    /// produce identical summaries for every corpus region body (WHILE
    /// regions through their segment view) and for the code after every
    /// top-level statement — the summaries liveness is computed from.
    #[test]
    fn interned_locations_match_the_string_canonicalizer_on_the_corpus() {
        let mut compared = 0usize;
        for (name, program, regions) in crate::test_corpus::programs() {
            for spec in &regions {
                let proc = program.procedure(spec.proc);
                let (_, region, _) = proc.split_at_loop(&spec.loop_label).expect("top level");
                let view = crate::region::segment_view(region);
                assert_eq!(
                    BodySummary::analyze(&proc.vars, Some(region), &view),
                    reference::analyze(&proc.vars, Some(region), &view),
                    "{name} region {}",
                    spec.loop_label
                );
                compared += 1;
            }
            for proc in &program.procedures {
                for start in 0..proc.body.len() {
                    let tail = &proc.body[start..];
                    assert_eq!(
                        BodySummary::analyze(&proc.vars, None, tail),
                        reference::analyze(&proc.vars, None, tail),
                        "{name} statements {start}.."
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 2000, "only {compared} summaries compared");
    }

    #[test]
    fn read_only_variable_has_only_exposed_reads() {
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let y = b.scalar("y");
        let k = b.index("k");
        let rhs = b.load(y);
        let body = vec![b.assign_scalar(x, rhs)];
        let (s, _) = analyze_region_body(&mut b, k, body);
        let sy = s.var(y);
        assert_eq!(sy.exposed_reads.len(), 1);
        assert!(!sy.has_write);
        assert!(sy.is_read_typed());
        let sx = s.var(x);
        assert!(sx.is_write_typed());
        assert!(sx.must_written);
    }

    #[test]
    fn write_then_read_is_covered_scalar() {
        // c = y ; x = c   — c's read is covered (the "private" pattern of
        // Figure 1's variable C).
        let mut b = ProcBuilder::new("t");
        let c = b.scalar("c");
        let x = b.scalar("x");
        let y = b.scalar("y");
        let k = b.index("k");
        let rhs1 = b.load(y);
        let s1 = b.assign_scalar(c, rhs1);
        let rhs2 = b.load(c);
        let s2 = b.assign_scalar(x, rhs2);
        let (s, _) = analyze_region_body(&mut b, k, vec![s1, s2]);
        let sc = s.var(c);
        assert_eq!(sc.covered_reads.len(), 1);
        assert!(sc.exposed_reads.is_empty());
        assert!(sc.is_write_typed());
        assert!(!sc.writes[0].preceded_by_exposed_read);
    }

    #[test]
    fn read_before_write_is_exposed_and_poisons_rfw() {
        // x = x + 1 — the read is exposed, the write is preceded by it
        // (the `H` pattern of Figure 2's segment R4).
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let k = b.index("k");
        let rhs = add(b.load(x), num(1.0));
        let body = vec![b.assign_scalar(x, rhs)];
        let (s, _) = analyze_region_body(&mut b, k, body);
        let sx = s.var(x);
        assert_eq!(sx.exposed_reads.len(), 1);
        assert!(sx.is_read_typed());
        assert!(!sx.is_write_typed());
        assert!(sx.writes[0].preceded_by_exposed_read);
    }

    #[test]
    fn conditional_writes_are_not_must() {
        // if (y > 0) then x = 1  — x is not must-written (the `B` pattern of
        // Figure 2's region R0).
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let y = b.scalar("y");
        let k = b.index("k");
        let cond = refidem_ir::build::cmp(CmpOp::Gt, b.load(y), num(0.0));
        let wr = b.assign_scalar(x, num(1.0));
        let body = vec![b.if_then(cond, vec![wr])];
        let (s, _) = analyze_region_body(&mut b, k, body);
        let sx = s.var(x);
        assert!(sx.has_write);
        assert!(!sx.must_written);
        assert!(!sx.writes[0].must_context);
        assert!(!sx.is_write_typed());
    }

    #[test]
    fn writes_in_both_branches_are_must() {
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let y = b.scalar("y");
        let k = b.index("k");
        let cond = refidem_ir::build::cmp(CmpOp::Gt, b.load(y), num(0.0));
        let w1 = b.assign_scalar(x, num(1.0));
        let w2 = b.assign_scalar(x, num(2.0));
        let read_after = b.load(x);
        let use_stmt = b.assign_scalar(y, read_after);
        let body = vec![b.if_then_else(cond, vec![w1], vec![w2]), use_stmt];
        let (s, _) = analyze_region_body(&mut b, k, body);
        let sx = s.var(x);
        assert!(sx.must_written, "x written on both branches");
        // The read of x after the IF is covered.
        assert_eq!(sx.covered_reads.len(), 1);
        // Each individual write is still in a conditional context.
        assert!(sx.writes.iter().all(|w| !w.must_context));
        // Per-reference facts are recorded exactly once per site.
        assert_eq!(sx.writes.len(), 2);
        assert_eq!(s.var(y).reads.len(), 1);
        assert_eq!(s.var(y).writes.len(), 1);
    }

    #[test]
    fn private_array_pattern_with_renamed_inner_loops_is_covered() {
        // do m = 1,5: p(m) = ...   then   do l = 1,5: ... = p(l)
        let mut b = ProcBuilder::new("t");
        let p = b.array("p", &[5]);
        let q = b.scalar("q");
        let k = b.index("k");
        let m = b.index("m");
        let l = b.index("l");
        let w = b.assign_elem(p, vec![av(m)], idx(m));
        let write_loop = b.do_loop(m, ac(1), ac(5), vec![w]);
        let rhs = b.load_elem(p, vec![av(l)]);
        let r = b.assign_scalar(q, rhs);
        let read_loop = b.do_loop(l, ac(1), ac(5), vec![r]);
        let (s, _) = analyze_region_body(&mut b, k, vec![write_loop, read_loop]);
        let sp = s.var(p);
        assert_eq!(sp.covered_reads.len(), 1, "p(l) is covered by p(m)");
        assert!(sp.exposed_reads.is_empty());
        assert!(sp.is_write_typed());
    }

    #[test]
    fn different_inner_ranges_do_not_cover() {
        // do m = 1,4: p(m) = ...   then   do l = 1,5: ... = p(l)
        let mut b = ProcBuilder::new("t");
        let p = b.array("p", &[5]);
        let q = b.scalar("q");
        let k = b.index("k");
        let m = b.index("m");
        let l = b.index("l");
        let w = b.assign_elem(p, vec![av(m)], idx(m));
        let write_loop = b.do_loop(m, ac(1), ac(4), vec![w]);
        let rhs = b.load_elem(p, vec![av(l)]);
        let r = b.assign_scalar(q, rhs);
        let read_loop = b.do_loop(l, ac(1), ac(5), vec![r]);
        let (s, _) = analyze_region_body(&mut b, k, vec![write_loop, read_loop]);
        let sp = s.var(p);
        assert_eq!(sp.exposed_reads.len(), 1, "ranges differ, not covered");
    }

    #[test]
    fn shifted_subscripts_are_not_covered() {
        // x(k) = ... ; ... = x(k+1): the read is exposed.
        let mut b = ProcBuilder::new("t");
        let x = b.array("x", &[10]);
        let q = b.scalar("q");
        let k = b.index("k");
        let w = b.assign_elem(x, vec![av(k)], num(1.0));
        let rhs = b.load_elem(x, vec![av(k) + ac(1)]);
        let r = b.assign_scalar(q, rhs);
        let (s, _) = analyze_region_body(&mut b, k, vec![w, r]);
        let sx = s.var(x);
        assert_eq!(sx.exposed_reads.len(), 1);
        assert_eq!(sx.covered_reads.len(), 0);
        // Same-subscript read IS covered.
        let mut b2 = ProcBuilder::new("t2");
        let x2 = b2.array("x", &[10]);
        let q2 = b2.scalar("q");
        let k2 = b2.index("k");
        let w2 = b2.assign_elem(x2, vec![av(k2)], num(1.0));
        let rhs2 = b2.load_elem(x2, vec![av(k2)]);
        let r2 = b2.assign_scalar(q2, rhs2);
        let (s2, _) = analyze_region_body(&mut b2, k2, vec![w2, r2]);
        assert_eq!(s2.var(x2).covered_reads.len(), 1);
    }

    #[test]
    fn indirect_subscripts_are_never_covered_or_precise() {
        // K(E) = 1 ; ... = K(E)  — neither the write nor the read is
        // address-precise; the read is exposed.
        let mut b = ProcBuilder::new("t");
        let karr = b.array("K", &[10]);
        let e = b.scalar("E");
        let q = b.scalar("q");
        let kidx = b.index("k");
        let e_read1 = b.sref(e);
        let ind1 = b.indirect(e_read1);
        let lhs = b.aref_subs(karr, vec![ind1]);
        let w = b.assign(lhs, num(1.0));
        let e_read2 = b.sref(e);
        let ind2 = b.indirect(e_read2);
        let rref = b.aref_subs(karr, vec![ind2]);
        let rhs = b.load_ref(rref);
        let r = b.assign_scalar(q, rhs);
        let (s, _) = analyze_region_body(&mut b, kidx, vec![w, r]);
        let sk = s.var(karr);
        assert!(!sk.all_precise);
        assert_eq!(sk.exposed_reads.len(), 1);
        assert!(sk.writes[0].must_context);
        assert!(!sk.writes[0].precise);
        // E is read twice (indirect subscript reads), never written.
        let se = s.var(e);
        assert_eq!(se.exposed_reads.len(), 2);
        assert!(!se.has_write);
    }

    #[test]
    fn loop_without_index_in_subscripts_needs_nonempty_trip() {
        // do m = 1, 0:  x = 1   — the write is inside a possibly-empty loop
        // and does not use m, so it is not a must-write.
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let k = b.index("k");
        let m = b.index("m");
        let w = b.assign_scalar(x, num(1.0));
        let l = b.do_loop(m, ac(1), ac(0), vec![w]);
        let (s, _) = analyze_region_body(&mut b, k, vec![l]);
        assert!(!s.var(x).must_written);
        // With a non-empty loop it is a must-write.
        let mut b2 = ProcBuilder::new("t");
        let x2 = b2.scalar("x");
        let k2 = b2.index("k");
        let m2 = b2.index("m");
        let w2 = b2.assign_scalar(x2, num(1.0));
        let l2 = b2.do_loop(m2, ac(1), ac(3), vec![w2]);
        let (s2, _) = analyze_region_body(&mut b2, k2, vec![l2]);
        assert!(s2.var(x2).must_written);
    }

    #[test]
    fn exposure_from_one_branch_poisons_later_writes() {
        // if (c) then q = x endif; x = 1  — the write to x may be preceded
        // by an exposed read of x (on the then-path).
        let mut b = ProcBuilder::new("t");
        let x = b.scalar("x");
        let q = b.scalar("q");
        let c = b.scalar("c");
        let k = b.index("k");
        let cond = b.load(c);
        let rd = b.load(x);
        let asg = b.assign_scalar(q, rd);
        let ifst = b.if_then(cond, vec![asg]);
        let wr = b.assign_scalar(x, num(1.0));
        let (s, _) = analyze_region_body(&mut b, k, vec![ifst, wr]);
        let sx = s.var(x);
        assert!(sx.writes[0].preceded_by_exposed_read);
        assert!(sx.writes[0].must_context);
    }
}
