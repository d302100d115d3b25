//! Reference-by-reference may-dependence analysis of a region.
//!
//! The paper assumes "data dependences of every reference in each region"
//! have been analyzed, as may-dependences, reference by reference
//! (Section 4). The labeling conditions only need to know, for every
//! reference site, whether it is the *sink* of a dependence and whether that
//! dependence crosses segments:
//!
//! * Lemma 3: the sink of a cross-segment dependence must be speculative.
//! * Theorem 1: an idempotent write must not be the sink of a cross-segment
//!   dependence.
//! * Theorem 2: an idempotent read must either be the sink of no dependence
//!   at all, or of an intra-segment dependence whose source is idempotent.
//!
//! With regions being loops and segments being iterations, cross-segment
//! dependences are exactly the dependences carried by the region loop, and
//! intra-segment dependences are the loop-independent dependences plus those
//! carried by inner loops. The tester below is a classical hierarchical
//! dependence test: for every ordered pair of references to the same
//! variable (at least one a write) and every dependence level, it checks
//! whether the subscript systems can be equal, using exact strong-SIV
//! solving where possible and conservative interval (Banerjee-style) plus
//! GCD reasoning otherwise. Indirect subscripts are treated as
//! may-dependent in every dimension, exactly as the paper treats `K(E)`.
//!
//! # Pairwise-test pruning
//!
//! Naively the tester is quadratic in the number of reference sites, and a
//! giant straight-line block (FPPPP's 128-statement `TWLDRV_DO100` has
//! ~400 sites) makes that quadratic term dominate the whole analysis. The
//! implementation therefore prunes without changing a single verdict:
//!
//! * **Partition by base variable** — references to different variables
//!   never alias under the layout, so cross-variable pairs are never
//!   enumerated, and a variable with no write site skips pairing entirely.
//! * **Signature interning + verdict memoization** — each site's access
//!   signature (access kind, guard context, enclosing-loop vector,
//!   subscript coefficient vectors) is interned as a token stream, and the
//!   test verdict is memoized per canonical signature *pair*: the hundreds
//!   of same-shape references of a giant block pay for each distinct test
//!   once.
//! * **Flat signature arena** — per-signature facts the tester would
//!   otherwise recompute per pair per level (the [`IndexBounds`] walk and
//!   every subscript, parameter-folded and split into one coefficient per
//!   enclosing loop) are computed once per distinct signature into a few
//!   flat vectors shared by all signatures.
//! * **Dense difference rows** — per level, each subscript dimension's
//!   difference is a row of meta-variable coefficients in reused scratch
//!   buffers, so testing a pair allocates nothing.
//!
//! # The set is its facts
//!
//! Algorithm 2 and the region flags ask two things about a reference: is
//! it the sink of a cross-segment dependence, and what are the sources of
//! its intra-segment flow and output dependences. [`DependenceSet::analyze`]
//! answers exactly these in one sink-major pass. Each partition is split
//! into *runs*, its members of one signature. A pair's verdict depends
//! only on the two signatures and on which of the two sites comes first,
//! so for every sink in table order the pass splits each partner run once
//! at the sink's position — the older members, then the rest — and looks
//! up one verdict per half through the memo: the half contributes that
//! verdict's dependences once per member, and, when the verdict has an
//! intra-segment dependence and the run writes, its members as sources.
//! The pass records each sink's cross flag and intra-segment sources (in
//! table order), whether any dependence crosses segments and the exact
//! dependence count. That is all a [`DependenceSet`] holds; no
//! [`Dependence`] record is built, and a set with no dependence holds
//! nothing. The set is immutable and shared: cloning it copies one `Arc`.
//!
//! Tests and tools that want the dependences themselves call
//! [`dependence_list`] (or `RegionAnalysis::dependence_list`). It shares
//! the partition, the signature arena and the pair tester with `analyze`,
//! walks every pair source-major and returns the ordered list an
//! unpruned pair loop over the table emits;
//! [`DependenceSet::from_deps`] of that list equals the analyzed set.

use crate::bounds::IndexBounds;
use crate::intern::Interner;
use refidem_ir::affine::{gcd, AffineExpr};
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::sites::{AccessKind, LoopContext, RefSite, RefTable};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_ir::var::VarTable;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The kind of a data dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// Whether the dependence stays within one segment or crosses segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepScope {
    /// Source and sink execute in the same segment (loop-independent or
    /// carried by an inner loop).
    IntraSegment,
    /// Source executes in an older segment than the sink (carried by the
    /// region loop).
    CrossSegment,
}

/// One may-dependence between two reference sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// The earlier reference (in sequential execution order).
    pub source: RefId,
    /// The later reference.
    pub sink: RefId,
    /// Flow, anti or output.
    pub kind: DepKind,
    /// Intra- or cross-segment.
    pub scope: DepScope,
    /// Region-loop iteration distance, when it could be determined exactly
    /// (cross-segment dependences only).
    pub distance: Option<i64>,
}

/// The may-dependences of one region, as the facts labeling reads: per
/// reference, whether it is the sink of a cross-segment dependence and the
/// sources of its intra-segment flow and output dependences; per region,
/// the exact dependence count and whether any dependence crosses segments.
/// Immutable once built and shared behind one `Arc` — cloning a set (a
/// cache hit, a labeling input) copies a pointer. The dependences
/// themselves come from [`dependence_list`].
#[derive(Clone, Debug, Default)]
pub struct DependenceSet {
    facts: Arc<Facts>,
}

/// The facts, over a dense `RefId` range starting at `base`: reference
/// `base + k` is described by `sinks[k]`, and the sources of its
/// intra-segment flow and output dependences are
/// `sources[sinks[k].start..sinks[k].end]`.
#[derive(Debug, Default)]
struct Facts {
    base: u32,
    sinks: Vec<SinkFacts>,
    sources: Vec<RefId>,
    /// The exact number of dependences.
    len: usize,
    /// Some dependence crosses segments.
    has_cross: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct SinkFacts {
    start: u32,
    end: u32,
    /// The sink of some cross-segment dependence.
    cross: bool,
}

impl Facts {
    /// Facts for references `lo ..= hi`, none a sink yet.
    fn new(lo: u32, hi: u32) -> Self {
        Facts {
            base: lo,
            sinks: vec![SinkFacts::default(); (hi - lo) as usize + 1],
            ..Facts::default()
        }
    }

    fn sink(&self, r: RefId) -> Option<&SinkFacts> {
        let k = r.0.checked_sub(self.base)?;
        self.sinks.get(k as usize)
    }

    /// The references the facts cover.
    fn ids(&self) -> impl Iterator<Item = RefId> + '_ {
        (0..self.sinks.len()).map(|k| RefId(self.base + k as u32))
    }
}

/// Two sets are equal when they answer alike: the same count and region
/// cross flag, and for every reference the same cross flag and the same
/// intra-segment sources in the same order — whatever `RefId` range each
/// set's facts happen to cover.
impl PartialEq for DependenceSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.facts, &*other.facts);
        Arc::ptr_eq(&self.facts, &other.facts)
            || (a.len == b.len
                && a.has_cross == b.has_cross
                && a.ids().chain(b.ids()).all(|r| {
                    self.is_sink_of_cross_segment(r) == other.is_sink_of_cross_segment(r)
                        && self.intra_sources(r) == other.intra_sources(r)
                }))
    }
}

impl Eq for DependenceSet {}

impl DependenceSet {
    /// Builds a dependence set from an explicit list of dependences. Used
    /// by front-ends (e.g. the abstract segment-graph regions of the
    /// paper's Figures 1–3) that compute dependences themselves, and by
    /// tests. The facts are derived from the list, each sink's
    /// intra-segment sources in list order, so every query answers as it
    /// would for an analyzed set. Reference ids need not be contiguous; the
    /// facts take memory in proportion to the span of sink ids.
    pub fn from_deps(deps: &[Dependence]) -> Self {
        let mut sinks = deps.iter().map(|d| d.sink.0);
        let Some(first) = sinks.next() else {
            return DependenceSet::default();
        };
        let (lo, hi) = sinks.fold((first, first), |(lo, hi), id| (lo.min(id), hi.max(id)));
        let mut facts = Facts::new(lo, hi);
        facts.len = deps.len();
        for d in deps.iter().filter(|d| d.scope == DepScope::CrossSegment) {
            facts.sinks[(d.sink.0 - lo) as usize].cross = true;
            facts.has_cross = true;
        }
        let mut intra: Vec<(u32, RefId)> = deps
            .iter()
            .filter(|d| d.scope == DepScope::IntraSegment && d.kind != DepKind::Anti)
            .map(|d| (d.sink.0 - lo, d.source))
            .collect();
        // Stable: within one sink the sources keep list order.
        intra.sort_by_key(|&(k, _)| k);
        for (k, source) in intra {
            let sink = &mut facts.sinks[k as usize];
            if sink.start == sink.end {
                sink.start = facts.sources.len() as u32;
            }
            facts.sources.push(source);
            sink.end = facts.sources.len() as u32;
        }
        DependenceSet {
            facts: Arc::new(facts),
        }
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.facts.len
    }

    /// True when the region has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `r` is the sink of a cross-segment dependence (Lemma 3's
    /// condition).
    pub fn is_sink_of_cross_segment(&self, r: RefId) -> bool {
        self.facts.sink(r).is_some_and(|s| s.cross)
    }

    /// The sources of the intra-segment flow and output dependences into
    /// `r` — every intra-segment dependence except anti — one entry per
    /// dependence. Theorem 2 and the write-ordering refinement of
    /// Algorithm 2 ask that all of them be idempotent.
    pub fn intra_sources(&self, r: RefId) -> &[RefId] {
        match self.facts.sink(r) {
            Some(s) => &self.facts.sources[s.start as usize..s.end as usize],
            None => &[],
        }
    }

    /// True when the region carries at least one cross-segment dependence.
    pub fn has_cross_segment_deps(&self) -> bool {
        self.facts.has_cross
    }

    /// True when the region carries at least one cross-segment dependence
    /// on a variable outside `ignored` (used to model compiler
    /// parallelization after privatization): some cross-segment sink's
    /// variable is not ignored.
    pub fn has_cross_segment_deps_excluding(
        &self,
        table: &RefTable,
        ignored: &dyn Fn(VarId) -> bool,
    ) -> bool {
        self.facts.ids().any(|r| {
            self.is_sink_of_cross_segment(r)
                && table.get(r).map(|site| !ignored(site.var)).unwrap_or(true)
        })
    }

    /// Analyzes the dependences of a region loop given the reference table
    /// of its body, computing the per-reference facts (see the module
    /// docs).
    pub fn analyze(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Self {
        let pairing = Pairing::new(vars, region, table);
        let ids = pairing.sites.iter().map(|p| p.id.0);
        let (Some(lo), Some(hi)) = (ids.clone().min(), ids.max()) else {
            return DependenceSet::default();
        };
        // One sink-major pass: for every sink in table order, its partner
        // runs. `a.order < b.order` is the only pair-level fact the tester
        // reads beyond the two signatures (site orders are unique, so it
        // also subsumes the `a.id != b.id` gate) — together they form the
        // memo key, and they are shared by every member of a run's half.
        // Each distinct key's verdict is computed on first encounter, on
        // the half's first member. A feasible verdict contributes one
        // dependence per scope and pair; only the facts are kept.
        let mut memo = MemoTable::new(pairing.pre.len());
        let mut scratch = Scratch::default();
        let mut facts = Facts::new(lo, hi);
        // The current sink's intra-segment sources: per contributing partner
        // run, the span of `members` its contributing halves cover.
        let mut spans: Vec<(&Run, Range<usize>)> = Vec::new();
        // Sources to merge into table order, as indices into `sites`.
        let mut picked: Vec<u32> = Vec::new();
        for (b_idx, b) in pairing.sites.iter().enumerate() {
            let mut cross = false;
            spans.clear();
            for run in pairing.partner_runs(b) {
                let (start, end) = (run.start as usize, run.end as usize);
                let older =
                    start + pairing.members[start..end].partition_point(|m| m.order < b.order);
                for (half, lt) in [(start..older, true), (older..end, false)] {
                    if half.is_empty() {
                        continue;
                    }
                    let key = (run.sig, b.sig, lt);
                    let effect = memo.get(key).unwrap_or_else(|| {
                        let first = pairing.members[half.start].site as usize;
                        let verdict = pairing.verdict(first, b_idx, &mut scratch);
                        memo.record(key, Effect::of(verdict))
                    });
                    facts.len += effect.count() * half.len();
                    cross |= effect.cross();
                    // Flow or output: the anti dependences of a read source
                    // never gate a label.
                    if effect.intra() && run.write {
                        match spans.last_mut() {
                            // The run's older half, then the rest.
                            Some((last, span)) if std::ptr::eq(*last, run) => span.end = half.end,
                            _ => spans.push((run, half)),
                        }
                    }
                }
            }
            let start = facts.sources.len() as u32;
            match spans.as_slice() {
                [] => {}
                // One run's members by site order, which is table order
                // when the run keeps it.
                [(run, span)] if run.in_table_order => {
                    let sources = pairing.members[span.clone()].iter().map(|m| m.id);
                    facts.sources.extend(sources);
                }
                // Several runs interleave in table order, and a hand-built
                // table's site order need not follow it: merge by table
                // position.
                _ => {
                    picked.clear();
                    for (_, span) in &spans {
                        picked.extend(pairing.members[span.clone()].iter().map(|m| m.site));
                    }
                    picked.sort_unstable();
                    let sources = picked.iter().map(|&m| pairing.sites[m as usize].id);
                    facts.sources.extend(sources);
                }
            }
            facts.has_cross |= cross;
            facts.sinks[(b.id.0 - lo) as usize] = SinkFacts {
                start,
                end: facts.sources.len() as u32,
                cross,
            };
        }
        if facts.len == 0 {
            return DependenceSet::default();
        }
        // `sources` grew by doubling: drop the slack before the set is shared.
        facts.sources.shrink_to_fit();
        DependenceSet {
            facts: Arc::new(facts),
        }
    }
}

/// The dependences of a region loop given the reference table of its
/// body, in emission order: source-major over the table (each pairable
/// site in table order, its partners in table order), a pair's
/// cross-segment dependence before its intra-segment one — the order of
/// an unpruned pair loop over every ordered same-variable pair.
/// [`DependenceSet::analyze`] keeps only the facts of this list
/// (`analyze(..) == DependenceSet::from_deps(&dependence_list(..))`);
/// tests and tools call this for the records themselves.
pub fn dependence_list(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Vec<Dependence> {
    let pairing = Pairing::new(vars, region, table);
    // Each partition's members, and its writes, in table order. A site
    // pairs with every member when it writes and with the writes when it
    // reads — exactly the same-variable pairs with at least one write.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); pairing.groups.len()];
    let mut writes = members.clone();
    for (i, p) in pairing.sites.iter().enumerate() {
        members[p.group as usize].push(i);
        if p.write {
            writes[p.group as usize].push(i);
        }
    }
    let mut verdicts: HashMap<MemoKey, Verdict> = HashMap::new();
    let mut scratch = Scratch::default();
    let mut deps = Vec::new();
    for (a_idx, a) in pairing.sites.iter().enumerate() {
        let partners = if a.write { &members } else { &writes };
        for &b_idx in &partners[a.group as usize] {
            let b = &pairing.sites[b_idx];
            let verdict = *verdicts
                .entry((a.sig, b.sig, a.order < b.order))
                .or_insert_with(|| pairing.verdict(a_idx, b_idx, &mut scratch));
            let kind = match (a.write, b.write) {
                (true, false) => DepKind::Flow,
                (false, true) => DepKind::Anti,
                (true, true) => DepKind::Output,
                (false, false) => unreachable!("reads pair only with writes"),
            };
            let dep = |scope, distance| Dependence {
                source: a.id,
                sink: b.id,
                kind,
                scope,
                distance,
            };
            if let Some(distance) = verdict.cross {
                deps.push(dep(DepScope::CrossSegment, distance));
            }
            if verdict.intra {
                deps.push(dep(DepScope::IntraSegment, None));
            }
        }
    }
    deps
}

/// What [`DependenceSet::analyze`] and [`dependence_list`] share: the
/// pairable sites in table order, partitioned by base variable and each
/// partition split into runs of one access signature, the per-signature
/// facts of the pair tester, and the tester itself.
struct Pairing<'a> {
    tester: Tester<'a>,
    sites: Vec<PairSite<'a>>,
    /// Per partition, its range of `runs`.
    groups: Vec<VarGroup>,
    runs: Vec<Run>,
    /// The runs' members, run after run, each run's members by site order.
    members: Vec<Member>,
    /// Per distinct signature, the tester's precomputed site facts.
    pre: SigArena,
}

/// What the pair loops read of one pairable site.
struct PairSite<'a> {
    site: &'a RefSite,
    id: RefId,
    order: u32,
    /// Interned access signature.
    sig: u32,
    /// Index of the site's variable partition.
    group: u32,
    write: bool,
}

/// A member of a run: a pairable site's order, index into the pairable
/// sites and id.
#[derive(Clone, Copy)]
struct Member {
    order: u32,
    site: u32,
    id: RefId,
}

/// One partition's runs, `runs[start..end]`: its write runs first, up to
/// `writes_end`. (A variable with no write never produces a dependence
/// and gets no partition.)
#[derive(Clone, Copy)]
struct VarGroup {
    start: u32,
    writes_end: u32,
    end: u32,
}

/// The members of one partition that share one access signature,
/// `members[start..end]`. The signature records the access kind, so a run
/// is all writes or all reads.
struct Run {
    sig: u32,
    write: bool,
    start: u32,
    end: u32,
    /// Site order is table order among the members, as in every table
    /// `RefTable::collect` builds.
    in_table_order: bool,
}

impl<'a> Pairing<'a> {
    fn new(vars: &'a VarTable, region: &'a LoopStmt, table: &'a RefTable) -> Self {
        let sites = table.sites();

        // --- Partition sites by base variable. Only a data variable with
        // at least one write site can produce a dependence; every other
        // site — notably the giant blocks' read-only coefficient arrays —
        // skips pairing, signature interning and the bounds walk entirely.
        // Per variable id: its partition, numbered in order of first
        // write, or `u32::MAX` when it has none.
        let mut group_of: Vec<u32> = vec![u32::MAX; vars.len()];
        let mut groups = 0;
        for s in sites {
            if s.access == AccessKind::Write && vars.kind(s.var).is_data() {
                let group = &mut group_of[s.var.index()];
                if *group == u32::MAX {
                    *group = groups;
                    groups += 1;
                }
            }
        }

        // --- Gather the pairable sites in table order, interning each
        // one's access signature and precomputing, once per *distinct
        // signature*, what the tester would otherwise recompute per pair
        // per level — the `IndexBounds` walk and the parameter-folded
        // affine view of each subscript. (Sites with equal signatures have
        // identical loop nests and subscripts, so they share one arena
        // entry: a giant block's hundreds of same-shape references pay for
        // one walk.)
        let pairable = sites.iter().filter(|s| group_of[s.var.index()] != u32::MAX);
        let mut pair_sites: Vec<PairSite> = Vec::with_capacity(pairable.clone().count());
        let mut interner = Interner::with_capacity(pair_sites.capacity());
        let mut pre = SigArena::default();
        for s in pairable {
            let signature = |t: &mut Vec<i64>| {
                signature_tokens(s, t);
                true
            };
            let (sig, new) = interner
                .intern_with(signature)
                .expect("a site has a signature");
            if new {
                pre.push(vars, region, s);
            }
            pair_sites.push(PairSite {
                site: s,
                id: s.id,
                order: u32::try_from(s.order).expect("site orders fit in u32"),
                sig,
                group: group_of[s.var.index()],
                write: s.access == AccessKind::Write,
            });
        }

        // --- Split each partition into runs, write runs first, each run's
        // members by site order. One sort of packed keys: the run (the
        // partition, reads after writes, the signature), then the site
        // order and the member. Partitions are numbered densely and each
        // has a member, so the sorted keys meet them in number order.
        assert!(groups < 1 << 31, "partition numbers fit in 31 bits");
        let mut keys: Vec<(u64, u64)> = pair_sites
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let run = u64::from(p.group) << 33 | u64::from(!p.write) << 32 | u64::from(p.sig);
                (run, u64::from(p.order) << 32 | i as u64)
            })
            .collect();
        keys.sort_unstable();
        let members: Vec<Member> = keys
            .iter()
            .map(|&(_, m)| {
                let site = m as u32;
                let id = pair_sites[site as usize].id;
                let order = (m >> 32) as u32;
                Member { order, site, id }
            })
            .collect();
        let mut var_groups: Vec<VarGroup> = Vec::with_capacity(groups as usize);
        let mut runs: Vec<Run> = Vec::new();
        let mut start = 0;
        while start < keys.len() {
            let run = keys[start].0;
            let end = start + keys[start..].iter().take_while(|k| k.0 == run).count();
            let first = &pair_sites[members[start].site as usize];
            let r = runs.len() as u32;
            if var_groups.len() == first.group as usize {
                var_groups.push(VarGroup {
                    start: r,
                    writes_end: r,
                    end: r,
                });
            }
            let group = var_groups.last_mut().expect("the run's partition");
            group.end = r + 1;
            if first.write {
                group.writes_end = r + 1;
            }
            runs.push(Run {
                sig: first.sig,
                write: first.write,
                start: start as u32,
                end: end as u32,
                in_table_order: members[start..end]
                    .windows(2)
                    .all(|w| w[0].site < w[1].site),
            });
            start = end;
        }
        Pairing {
            tester: Tester::new(vars, region),
            sites: pair_sites,
            groups: var_groups,
            runs,
            members,
            pre,
        }
    }

    /// The runs `x` pairs with: every run of its partition when `x`
    /// writes, the partition's write runs when it reads — exactly the
    /// same-variable pairs with at least one write. The rule is symmetric
    /// (`y` is a partner of `x` exactly when `x` is one of `y`), so it
    /// yields a sink's sources as well as a source's sinks.
    fn partner_runs(&self, x: &PairSite) -> &[Run] {
        let group = self.groups[x.group as usize];
        let end = if x.write { group.end } else { group.writes_end };
        &self.runs[group.start as usize..end as usize]
    }

    /// The verdict for source `sites[a]` and sink `sites[b]`.
    fn verdict(&self, a: usize, b: usize, scratch: &mut Scratch) -> Verdict {
        let (a, b) = (&self.sites[a], &self.sites[b]);
        let (pa, pb) = (self.pre.get(a.sig), self.pre.get(b.sig));
        self.tester
            .test_pair_verdict(a.site, b.site, pa, pb, scratch)
    }
}

/// A canonical signature pair `(sig_a, sig_b, a.order < b.order)`.
type MemoKey = (u32, u32, bool);

/// What a verdict contributes to the facts: bit 0 set when a
/// cross-segment dependence may exist, bit 1 when an intra-segment one may.
#[derive(Clone, Copy)]
struct Effect(u8);

impl Effect {
    fn of(v: Verdict) -> Self {
        Effect(v.cross.is_some() as u8 | (v.intra as u8) << 1)
    }

    fn cross(self) -> bool {
        self.0 & 1 != 0
    }

    fn intra(self) -> bool {
        self.0 & 2 != 0
    }

    /// The dependences the pair contributes.
    fn count(self) -> usize {
        (self.0 & 1) as usize + (self.0 >> 1) as usize
    }
}

/// Memo table mapping a [`MemoKey`] to its verdict's [`Effect`]. Dense (a
/// flat `2·S²`-byte array) while the distinct-signature count `S` is small
/// — the giant-block case, where pair enumeration is the hot loop — and a
/// hash map beyond [`MemoTable::DENSE_SIG_LIMIT`], where verdict
/// computation dominates anyway. Lives only while the facts pass runs.
enum MemoTable {
    Dense { sigs: usize, table: Vec<u8> },
    Sparse(HashMap<MemoKey, Effect>),
}

impl MemoTable {
    /// Above this many distinct signatures the dense table gives way to a
    /// hash map.
    const DENSE_SIG_LIMIT: usize = 512;
    /// A dense entry no verdict has filled yet.
    const UNKNOWN: u8 = u8::MAX;

    fn new(sigs: usize) -> Self {
        if sigs <= Self::DENSE_SIG_LIMIT {
            MemoTable::Dense {
                sigs,
                table: vec![Self::UNKNOWN; 2 * sigs * sigs],
            }
        } else {
            MemoTable::Sparse(HashMap::new())
        }
    }

    fn get(&self, key: MemoKey) -> Option<Effect> {
        match self {
            MemoTable::Dense { sigs, table } => {
                let e = table[Self::dense_index(*sigs, key)];
                (e != Self::UNKNOWN).then_some(Effect(e))
            }
            MemoTable::Sparse(map) => map.get(&key).copied(),
        }
    }

    /// Records `effect` under `key` and returns it.
    fn record(&mut self, key: MemoKey, effect: Effect) -> Effect {
        match self {
            MemoTable::Dense { sigs, table } => table[Self::dense_index(*sigs, key)] = effect.0,
            MemoTable::Sparse(map) => {
                map.insert(key, effect);
            }
        }
        effect
    }

    fn dense_index(sigs: usize, (sa, sb, lt): MemoKey) -> usize {
        ((sa as usize * sigs) + sb as usize) * 2 + lt as usize
    }
}

/// Per distinct signature, what the pair tester reads of its sites, in
/// flat vectors shared by all signatures: the interval of each enclosing
/// inner loop's index after the site's bounds walk, and each subscript
/// split by loop position (`None` for an indirect subscript, which stays
/// conservatively may-dependent).
#[derive(Default)]
struct SigArena {
    /// Per signature, its ranges of `bounds` and `dims`.
    sigs: Vec<(Range<u32>, Range<u32>)>,
    /// Per signature, one interval per enclosing inner loop, outermost
    /// first (`None` where the bounds walk could not evaluate it).
    bounds: Vec<Option<(i64, i64)>>,
    /// Per signature, one entry per subscript.
    dims: Vec<Option<DimPre>>,
    /// Per affine subscript, one coefficient per loop position.
    by_pos: Vec<i64>,
    /// Per affine subscript, its terms over variables that index no
    /// enclosing loop, sorted by variable.
    program: Vec<(VarId, i64)>,
    /// The bounds walk, reused from signature to signature.
    walk: IndexBounds,
}

/// One parameter-folded affine subscript,
/// `constant + Σ by_pos[p]·index(p) + Σ program`, where loop position 0 is
/// the region loop and position `p` is the site's `loops[p - 1]`. An index
/// variable re-bound by an inner loop of the same nest belongs to its
/// innermost position, the binding the tester's substitution sees. The
/// ranges index [`SigArena`]'s vectors.
struct DimPre {
    constant: i64,
    by_pos: Range<u32>,
    program: Range<u32>,
}

/// One signature's facts in a [`SigArena`], as the pair tester reads them.
#[derive(Clone, Copy)]
struct SitePre<'p> {
    /// Per enclosing inner loop, its index's interval.
    bounds: &'p [Option<(i64, i64)>],
    /// Per subscript.
    dims: &'p [Option<DimPre>],
    arena: &'p SigArena,
}

impl SitePre<'_> {
    fn by_pos(&self, dim: &DimPre) -> &[i64] {
        &self.arena.by_pos[dim.by_pos.start as usize..dim.by_pos.end as usize]
    }

    fn program(&self, dim: &DimPre) -> &[(VarId, i64)] {
        &self.arena.program[dim.program.start as usize..dim.program.end as usize]
    }
}

impl SigArena {
    /// Appends the facts of `s`'s signature; they are
    /// `get(len() - 1)` after.
    fn push(&mut self, vars: &VarTable, region: &LoopStmt, s: &RefSite) {
        let arena_len = |len: usize| u32::try_from(len).expect("arena fits in u32");
        self.walk.reset_to_site(vars, region, &s.loops);
        let bounds_start = arena_len(self.bounds.len());
        let walk = &self.walk;
        self.bounds
            .extend(s.loops.iter().map(|l| walk.get(l.index)));
        let dims_start = arena_len(self.dims.len());
        let positions = s.loops.len() + 1;
        for sub in &s.reference.subs {
            let dim = sub.as_affine().map(|e| {
                let by_pos = self.by_pos.len();
                self.by_pos.resize(by_pos + positions, 0);
                let program = arena_len(self.program.len());
                let mut constant = e.constant;
                for &(v, c) in &e.terms {
                    if let Some(value) = vars.param_value(v) {
                        constant += c * value;
                    } else if let Some(p) = loop_position(region, &s.loops, v) {
                        self.by_pos[by_pos + p] = c;
                    } else {
                        self.program.push((v, c));
                    }
                }
                DimPre {
                    constant,
                    by_pos: arena_len(by_pos)..arena_len(by_pos + positions),
                    program: program..arena_len(self.program.len()),
                }
            });
            self.dims.push(dim);
        }
        self.sigs.push((
            bounds_start..arena_len(self.bounds.len()),
            dims_start..arena_len(self.dims.len()),
        ));
    }

    /// The number of signatures.
    fn len(&self) -> usize {
        self.sigs.len()
    }

    /// The facts of signature `sig`.
    fn get(&self, sig: u32) -> SitePre<'_> {
        let (bounds, dims) = &self.sigs[sig as usize];
        SitePre {
            bounds: &self.bounds[bounds.start as usize..bounds.end as usize],
            dims: &self.dims[dims.start as usize..dims.end as usize],
            arena: self,
        }
    }
}

/// The loop position `v` indexes for a site nested in `loops` inside
/// `region`: 0 for the region loop, `p` for `loops[p - 1]`, the innermost
/// where an index is re-bound; `None` for any other variable.
fn loop_position(region: &LoopStmt, loops: &[LoopContext], v: VarId) -> Option<usize> {
    match loops.iter().rposition(|l| l.index == v) {
        Some(p) => Some(p + 1),
        None => (region.index == v).then_some(0),
    }
}

/// The memoizable outcome of testing one ordered pair: whether a
/// cross-segment dependence may exist (with its exact distance when known)
/// and whether an intra-segment one may.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Verdict {
    cross: Option<Option<i64>>,
    intra: bool,
}

/// Appends everything the hierarchical tester reads from one site to `t`
/// as an internable token stream: access kind, guard context, the
/// enclosing-loop vector (loop identity, index variable, affine bounds,
/// step) and each subscript's affine coefficient vector (indirect
/// subscripts contribute a bare marker — the tester never looks inside
/// them). Two sites with equal tokens are indistinguishable to
/// `test_pair`, which is what makes the per-signature-pair verdict memo
/// sound.
fn signature_tokens(s: &RefSite, t: &mut Vec<i64>) {
    fn push_affine(t: &mut Vec<i64>, e: &AffineExpr) {
        t.push(e.constant);
        t.push(e.terms.len() as i64);
        for &(v, c) in &e.terms {
            t.push(v.index() as i64);
            t.push(c);
        }
    }
    t.push((s.access == AccessKind::Write) as i64);
    t.push(s.conditional as i64);
    t.push(s.loops.len() as i64);
    for l in &s.loops {
        t.push(l.stmt.index() as i64);
        t.push(l.index.index() as i64);
        push_affine(t, &l.lower);
        push_affine(t, &l.upper);
        t.push(l.step);
    }
    t.push(s.reference.subs.len() as i64);
    for sub in &s.reference.subs {
        match sub.as_affine() {
            Some(e) => {
                t.push(1);
                push_affine(t, e);
            }
            None => t.push(0),
        }
    }
}

/// Internal: hierarchical dependence tester for one region. Parameter
/// folding happens in the signature arena ([`SigArena`]), so the tester
/// only needs the region loop and its bounds.
struct Tester<'a> {
    region: &'a LoopStmt,
    region_bounds: IndexBounds,
}

/// How the source and sink instances relate at one loop level.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LevelRelation {
    /// Both instances use the same index value.
    Equal,
    /// The sink's index is `step * t` ahead of the source's, `t >= 1`.
    Carried,
    /// The indices are unrelated (inner levels of a carried dependence).
    Free,
}

/// Bounds of an index the bounds walk could not evaluate.
const UNBOUNDED: (i64, i64) = (i64::MIN / 4, i64::MAX / 4);

/// Buffers of the pair tester, reused across pairs and levels so
/// the hot loop allocates nothing once warm.
#[derive(Default)]
struct Scratch {
    /// Bounds of each meta variable of the current level, in allocation
    /// order (a meta variable is its index here).
    metas: Vec<(i64, i64)>,
    /// The meta variable each source loop position maps to.
    src: Vec<usize>,
    /// The meta variable each sink loop position maps to, plus the
    /// `(distance meta, step)` term a carried position adds.
    sink: Vec<(usize, Option<(usize, i64)>)>,
    /// One dimension's difference: meta coefficients, then the nonzero
    /// program-variable coefficients.
    row: Vec<i64>,
    program: Vec<i64>,
}

impl Scratch {
    fn meta(&mut self, (lo, hi): (i64, i64)) -> usize {
        self.metas.push((lo.min(hi), lo.max(hi)));
        self.metas.len() - 1
    }
}

impl<'a> Tester<'a> {
    fn new(vars: &'a VarTable, region: &'a LoopStmt) -> Self {
        let mut region_bounds = IndexBounds::new();
        region_bounds.enter_loop(
            vars,
            region.index,
            &region.lower,
            &region.upper,
            region.step,
        );
        Tester {
            region,
            region_bounds,
        }
    }

    /// Tests all dependence levels for the ordered pair (source = `a`,
    /// sink = `b`) and returns the memoizable verdict. The verdict depends
    /// only on the two sites' access signatures and on whether `a`
    /// textually precedes `b` — the invariant the per-signature-pair memo
    /// in [`DependenceSet::analyze`] relies on.
    fn test_pair_verdict(
        &self,
        a: &RefSite,
        b: &RefSite,
        pa: SitePre,
        pb: SitePre,
        scratch: &mut Scratch,
    ) -> Verdict {
        // Common inner loops: the longest common prefix of the two nests
        // (loops are identified by their statement id).
        let common = a
            .loops
            .iter()
            .zip(&b.loops)
            .take_while(|(la, lb)| la.stmt == lb.stmt)
            .count();

        // Cross-segment: carried by the region loop.
        let cross = self.test_level(a, b, pa, pb, common, 0, scratch);

        // Intra-segment: carried by one of the common inner loops.
        let mut intra = (1..=common).any(|level| {
            self.test_level(a, b, pa, pb, common, level, scratch)
                .is_some()
        });
        // Intra-segment: loop-independent (same instance of every common
        // loop), requires the source to precede the sink textually.
        if !intra && a.id != b.id && a.order < b.order {
            intra = self
                .test_level(a, b, pa, pb, common, common + 1, scratch)
                .is_some();
        }
        Verdict { cross, intra }
    }

    /// Tests one dependence level.
    ///
    /// `level == 0` is the region loop (cross-segment). `level == i` for
    /// `1 <= i <= common` is carried by the i-th common inner loop.
    /// `level == common + 1` is the loop-independent level.
    ///
    /// Every loop position of the source and the sink is bound to fresh
    /// meta variables (shared by both sides where the level makes the
    /// indices equal), and each subscript dimension's difference is
    /// accumulated as a dense row of meta coefficients — no per-level
    /// maps, no affine-expression algebra.
    ///
    /// Returns `Some(distance)` when a dependence may exist (the distance is
    /// known only for exactly-solved region-level dependences).
    #[allow(clippy::too_many_arguments)]
    fn test_level(
        &self,
        a: &RefSite,
        b: &RefSite,
        pa: SitePre,
        pb: SitePre,
        common: usize,
        level: usize,
        scratch: &mut Scratch,
    ) -> Option<Option<i64>> {
        scratch.metas.clear();
        scratch.src.clear();
        scratch.sink.clear();
        let mut distance: Option<usize> = None;

        // Shared positions: the region loop (position 0) and the common
        // inner loops (position i + 1 is common loop i).
        for pos in 0..=common {
            let (bounds, step) = if pos == 0 {
                let bounds = self.region_bounds.get(self.region.index);
                (bounds.unwrap_or(UNBOUNDED), self.region.step)
            } else {
                // A common loop is one statement, at this position in both
                // sites' nests.
                let bounds = pa.bounds[pos - 1].or(pb.bounds[pos - 1]);
                (bounds.unwrap_or(UNBOUNDED), a.loops[pos - 1].step)
            };
            let relation = match pos.cmp(&level) {
                std::cmp::Ordering::Less => LevelRelation::Equal,
                std::cmp::Ordering::Equal => LevelRelation::Carried,
                std::cmp::Ordering::Greater => LevelRelation::Free,
            };
            match relation {
                LevelRelation::Equal => {
                    let m = scratch.meta(bounds);
                    scratch.src.push(m);
                    scratch.sink.push((m, None));
                }
                LevelRelation::Carried => {
                    let trip = (bounds.1 - bounds.0 + 1).max(0) as usize;
                    if trip < 2 {
                        // The loop cannot carry a dependence.
                        return None;
                    }
                    let m = scratch.meta(bounds);
                    let t = scratch.meta((1, trip as i64 - 1));
                    distance = Some(t);
                    scratch.src.push(m);
                    scratch.sink.push((m, Some((t, step))));
                }
                LevelRelation::Free => {
                    let ma = scratch.meta(bounds);
                    let mb = scratch.meta(bounds);
                    scratch.src.push(ma);
                    scratch.sink.push((mb, None));
                }
            }
        }
        // Non-common inner loops: always independent.
        for bounds in &pa.bounds[common..] {
            let m = scratch.meta(bounds.unwrap_or(UNBOUNDED));
            scratch.src.push(m);
        }
        for bounds in &pb.bounds[common..] {
            let m = scratch.meta(bounds.unwrap_or(UNBOUNDED));
            scratch.sink.push((m, None));
        }

        // Scalars: no subscripts to constrain, dependence feasible. A
        // scalar dependence at the region level can have any distance; we
        // report the minimum one (1) for cross-segment dependences.
        if a.reference.subs.is_empty() && b.reference.subs.is_empty() {
            return Some((level == 0 && distance.is_some()).then_some(1));
        }
        if a.reference.subs.len() != b.reference.subs.len() {
            // Mismatched arity (should not happen for well-formed programs);
            // be conservative.
            return Some(None);
        }

        let mut exact_distance: Option<i64> = None;
        for (sa, sb) in pa.dims.iter().zip(pb.dims) {
            let (Some(da), Some(db)) = (sa, sb) else {
                // An indirect subscript: may-dependent in this dimension.
                continue;
            };
            let Scratch {
                metas,
                src,
                sink,
                row,
                program,
            } = &mut *scratch;
            row.clear();
            row.resize(metas.len(), 0);
            for (&m, &c) in src.iter().zip(pa.by_pos(da)) {
                row[m] += c;
            }
            for (&(m, carried), &c) in sink.iter().zip(pb.by_pos(db)) {
                row[m] -= c;
                if let Some((t, step)) = carried {
                    row[t] -= step * c;
                }
            }
            merge_difference(pa.program(da), pb.program(db), program);
            match feasible(da.constant - db.constant, program, row, metas) {
                Feasibility::Infeasible => return None,
                Feasibility::Feasible => {}
                Feasibility::Exact(meta, value) => {
                    if Some(meta) == distance && level == 0 {
                        exact_distance = Some(value);
                    }
                }
            }
        }
        Some(exact_distance)
    }
}

/// The nonzero coefficients of `a - b`, two term lists sorted by variable,
/// in variable order.
fn merge_difference(a: &[(VarId, i64)], b: &[(VarId, i64)], out: &mut Vec<i64>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let c = match (a.get(i), b.get(j)) {
            (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                i += 1;
                j += 1;
                ca - cb
            }
            (Some(&(va, ca)), Some(&(vb, _))) if va < vb => {
                i += 1;
                ca
            }
            (Some(&(_, ca)), None) => {
                i += 1;
                ca
            }
            (_, Some(&(_, cb))) => {
                j += 1;
                -cb
            }
            (None, None) => unreachable!("loop condition"),
        };
        if c != 0 {
            out.push(c);
        }
    }
}

enum Feasibility {
    /// The dimension can never be equal.
    Infeasible,
    /// The dimension may be equal.
    Feasible,
    /// The dimension is equal exactly when the given meta variable has the
    /// given value (strong-SIV exact solution).
    Exact(usize, i64),
}

/// Decides whether `constant + Σ program + Σ row[m]·meta(m) == 0` has a
/// solution with every meta variable inside its bounds, using exact
/// single-variable solving, a GCD test and an interval (Banerjee-style)
/// test. Program variables are unbounded.
fn feasible(constant: i64, program: &[i64], row: &[i64], metas: &[(i64, i64)]) -> Feasibility {
    let meta_terms = || row.iter().enumerate().filter(|&(_, &c)| c != 0);
    let terms = program.len() + meta_terms().count();
    if terms == 0 {
        return if constant == 0 {
            Feasibility::Feasible
        } else {
            Feasibility::Infeasible
        };
    }
    // Exact single-variable case: c * v + constant == 0.
    if terms == 1 {
        let (meta, c) = match program.first() {
            Some(&c) => (None, c),
            None => {
                let (m, &c) = meta_terms().next().expect("one term");
                (Some(m), c)
            }
        };
        if constant % c != 0 {
            return Feasibility::Infeasible;
        }
        let value = -constant / c;
        // A program variable is never the distance variable.
        let Some(meta) = meta else {
            return Feasibility::Feasible;
        };
        let (lo, hi) = metas[meta];
        if value < lo || value > hi {
            return Feasibility::Infeasible;
        }
        return Feasibility::Exact(meta, value);
    }
    // GCD test.
    let g = program
        .iter()
        .chain(meta_terms().map(|(_, c)| c))
        .fold(0i64, |acc, &c| gcd(acc, c));
    if g != 0 && constant % g != 0 {
        return Feasibility::Infeasible;
    }
    // Interval (Banerjee bounds) test; an unbounded program variable makes
    // it inconclusive, hence conservative.
    if !program.is_empty() {
        return Feasibility::Feasible;
    }
    let (mut lo, mut hi) = (constant, constant);
    for (m, &c) in meta_terms() {
        let (vl, vh) = metas[m];
        let (x, y) = (c * vl, c * vh);
        lo += x.min(y);
        hi += x.max(y);
    }
    if lo <= 0 && 0 <= hi {
        Feasibility::Feasible
    } else {
        Feasibility::Infeasible
    }
}

/// Convenience: analyzes the dependences of a labeled region loop of a
/// procedure (collecting the body's reference table internally).
pub fn analyze_region_loop(vars: &VarTable, region: &LoopStmt) -> (RefTable, DependenceSet) {
    let table = RefTable::collect(&region.body);
    let deps = DependenceSet::analyze(vars, region, &table);
    (table, deps)
}

/// Helper for tests and tools: formats a dependence with variable names.
pub fn dependence_to_string(table: &RefTable, vars: &VarTable, d: &Dependence) -> String {
    let name = |r: RefId| {
        table
            .get(r)
            .map(|s| {
                format!(
                    "{}{}({r})",
                    vars.name(s.var),
                    if s.access == AccessKind::Write {
                        "=w"
                    } else {
                        "=r"
                    }
                )
            })
            .unwrap_or_else(|| format!("{r}"))
    };
    format!(
        "{:?} {:?} {} -> {}{}",
        d.scope,
        d.kind,
        name(d.source),
        name(d.sink),
        d.distance
            .map(|x| format!(" (distance {x})"))
            .unwrap_or_default()
    )
}

/// Builds a region loop from a labeled loop inside a statement, for tests.
pub fn find_region<'p>(body: &'p [Stmt], label: &str) -> Option<&'p LoopStmt> {
    for s in body {
        if let Some(l) = s.find_loop(label) {
            return Some(l);
        }
    }
    None
}

/// The map-based pair tester: per-level `BTreeMap<VarId, AffineExpr>`
/// substitution maps and affine-expression algebra over a per-pair
/// meta-variable allocator. Kept as the reference implementation the dense
/// [`Tester::test_level`] must agree with, verdict for verdict (exact
/// distances included).
#[cfg(test)]
mod reference {
    use super::{Tester, Verdict, UNBOUNDED};
    use crate::bounds::IndexBounds;
    use refidem_ir::affine::{gcd, AffineExpr};
    use refidem_ir::ids::VarId;
    use refidem_ir::sites::{LoopContext, RefSite};
    use refidem_ir::stmt::LoopStmt;
    use refidem_ir::var::VarTable;
    use std::collections::BTreeMap;

    /// Per-site facts of the reference tester: the bounds walk and the
    /// parameter-folded affine view of each subscript.
    pub(super) struct SitePre {
        bounds: IndexBounds,
        subs: Vec<Option<AffineExpr>>,
    }

    impl SitePre {
        pub(super) fn new(vars: &VarTable, region: &LoopStmt, s: &RefSite) -> Self {
            SitePre {
                bounds: IndexBounds::for_site(vars, region, &s.loops),
                subs: s
                    .reference
                    .subs
                    .iter()
                    .map(|sub| {
                        sub.as_affine()
                            .map(|e| e.substitute_params(&|v| vars.param_value(v)))
                    })
                    .collect(),
            }
        }
    }

    /// Meta-variable ids start here so they never collide with program
    /// variables.
    const META_BASE: u32 = 1 << 24;

    #[derive(Default)]
    struct MetaAlloc {
        bounds: Vec<(i64, i64)>,
    }

    impl MetaAlloc {
        fn fresh(&mut self, lo: i64, hi: i64) -> VarId {
            let id = VarId(META_BASE + self.bounds.len() as u32);
            self.bounds.push((lo.min(hi), lo.max(hi)));
            id
        }

        fn get(&self, v: VarId) -> Option<(i64, i64)> {
            v.index()
                .checked_sub(META_BASE as usize)
                .and_then(|i| self.bounds.get(i).copied())
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum LevelRelation {
        Equal,
        Carried,
        Free,
    }

    fn common_loops<'s>(a: &'s RefSite, b: &'s RefSite) -> Vec<&'s LoopContext> {
        let mut out = Vec::new();
        for (la, lb) in a.loops.iter().zip(&b.loops) {
            if la.stmt == lb.stmt {
                out.push(la);
            } else {
                break;
            }
        }
        out
    }

    pub(super) fn test_pair_verdict(
        t: &Tester<'_>,
        a: &RefSite,
        b: &RefSite,
        pa: &SitePre,
        pb: &SitePre,
    ) -> Verdict {
        let common = common_loops(a, b);
        let cross = test_level(t, a, b, pa, pb, &common, 0);
        let mut intra = false;
        for level in 1..=common.len() {
            if test_level(t, a, b, pa, pb, &common, level).is_some() {
                intra = true;
                break;
            }
        }
        if !intra && a.id != b.id && a.order < b.order {
            let level = common.len() + 1;
            if test_level(t, a, b, pa, pb, &common, level).is_some() {
                intra = true;
            }
        }
        Verdict { cross, intra }
    }

    fn test_level(
        t: &Tester<'_>,
        a: &RefSite,
        b: &RefSite,
        pa: &SitePre,
        pb: &SitePre,
        common: &[&LoopContext],
        level: usize,
    ) -> Option<Option<i64>> {
        let mut alloc = MetaAlloc::default();
        let bounds_a = &pa.bounds;
        let bounds_b = &pb.bounds;
        let mut map_a: BTreeMap<VarId, AffineExpr> = BTreeMap::new();
        let mut map_b: BTreeMap<VarId, AffineExpr> = BTreeMap::new();
        let mut distance_var: Option<VarId> = None;
        let (klo, khi) = t.region_bounds.get(t.region.index).unwrap_or(UNBOUNDED);
        let max_trip = (khi - klo + 1).max(0) as usize;
        let relation = |lvl: usize| -> LevelRelation {
            use std::cmp::Ordering::*;
            match lvl.cmp(&level) {
                Less => LevelRelation::Equal,
                Equal => LevelRelation::Carried,
                Greater => LevelRelation::Free,
            }
        };
        let mut bind = |index: VarId,
                        bounds: (i64, i64),
                        step: i64,
                        max_trip: usize,
                        relation: LevelRelation,
                        alloc: &mut MetaAlloc|
         -> Option<()> {
            match relation {
                LevelRelation::Equal => {
                    let meta = alloc.fresh(bounds.0, bounds.1);
                    map_a.insert(index, AffineExpr::var(meta));
                    map_b.insert(index, AffineExpr::var(meta));
                }
                LevelRelation::Carried => {
                    if max_trip < 2 {
                        return None;
                    }
                    let meta = alloc.fresh(bounds.0, bounds.1);
                    let t = alloc.fresh(1, max_trip as i64 - 1);
                    distance_var = Some(t);
                    map_a.insert(index, AffineExpr::var(meta));
                    map_b.insert(
                        index,
                        AffineExpr::var(meta) + AffineExpr::scaled_var(t, step),
                    );
                }
                LevelRelation::Free => {
                    let ma = alloc.fresh(bounds.0, bounds.1);
                    let mb = alloc.fresh(bounds.0, bounds.1);
                    map_a.insert(index, AffineExpr::var(ma));
                    map_b.insert(index, AffineExpr::var(mb));
                }
            }
            Some(())
        };
        bind(
            t.region.index,
            (klo, khi),
            t.region.step,
            max_trip,
            relation(0),
            &mut alloc,
        )?;
        for (i, l) in common.iter().enumerate() {
            let bounds = bounds_a.get(l.index).or_else(|| bounds_b.get(l.index));
            let (lo, hi) = bounds.unwrap_or(UNBOUNDED);
            let trip = (hi - lo + 1).max(0) as usize;
            bind(l.index, (lo, hi), l.step, trip, relation(i + 1), &mut alloc)?;
        }
        for l in a.loops.iter().skip(common.len()) {
            let (lo, hi) = bounds_a.get(l.index).unwrap_or(UNBOUNDED);
            let meta = alloc.fresh(lo, hi);
            map_a.insert(l.index, AffineExpr::var(meta));
        }
        for l in b.loops.iter().skip(common.len()) {
            let (lo, hi) = bounds_b.get(l.index).unwrap_or(UNBOUNDED);
            let meta = alloc.fresh(lo, hi);
            map_b.insert(l.index, AffineExpr::var(meta));
        }

        if a.reference.subs.is_empty() && b.reference.subs.is_empty() {
            return Some(if level == 0 && distance_var.is_some() {
                Some(1)
            } else {
                None
            });
        }
        if a.reference.subs.len() != b.reference.subs.len() {
            return Some(None);
        }

        let mut exact_distance: Option<i64> = None;
        for (sa, sb) in pa.subs.iter().zip(&pb.subs) {
            let (ea, eb) = match (sa, sb) {
                (Some(ea), Some(eb)) => (ea, eb),
                _ => continue,
            };
            let da = substitute_folded(ea, &map_a);
            let db = substitute_folded(eb, &map_b);
            let diff = da - db;
            match feasible(&diff, &alloc) {
                Feasibility::Infeasible => return None,
                Feasibility::Feasible => {}
                Feasibility::Exact(var, value) => {
                    if Some(var) == distance_var && level == 0 {
                        exact_distance = Some(value);
                    }
                }
            }
        }
        Some(exact_distance)
    }

    fn substitute_folded(folded: &AffineExpr, map: &BTreeMap<VarId, AffineExpr>) -> AffineExpr {
        let mut out = AffineExpr::constant(folded.constant);
        for &(v, c) in &folded.terms {
            match map.get(&v) {
                Some(meta) => out = out + meta.clone() * c,
                None => out.add_term(v, c),
            }
        }
        out
    }

    enum Feasibility {
        Infeasible,
        Feasible,
        Exact(VarId, i64),
    }

    fn feasible(diff: &AffineExpr, bounds: &MetaAlloc) -> Feasibility {
        if diff.is_constant() {
            return if diff.constant == 0 {
                Feasibility::Feasible
            } else {
                Feasibility::Infeasible
            };
        }
        if diff.terms.len() == 1 {
            let (v, c) = diff.terms[0];
            if diff.constant % c != 0 {
                return Feasibility::Infeasible;
            }
            let value = -diff.constant / c;
            if let Some((lo, hi)) = bounds.get(v) {
                if value < lo || value > hi {
                    return Feasibility::Infeasible;
                }
            }
            return Feasibility::Exact(v, value);
        }
        let g = diff.terms.iter().fold(0i64, |acc, &(_, c)| gcd(acc, c));
        if g != 0 && diff.constant % g != 0 {
            return Feasibility::Infeasible;
        }
        match diff.range(&|v| bounds.get(v)) {
            Some((lo, hi)) if lo <= 0 && 0 <= hi => Feasibility::Feasible,
            Some(_) => Feasibility::Infeasible,
            None => Feasibility::Feasible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};
    fn region_of(b: &ProcBuilder, body: &[Stmt], label: &str) -> LoopStmt {
        let _ = b;
        find_region(body, label).expect("region").clone()
    }

    /// The dependences of `list` whose sink is `r`.
    fn into(list: &[Dependence], r: RefId) -> impl Iterator<Item = &Dependence> {
        list.iter().filter(move |d| d.sink == r)
    }

    /// The pre-pruning pair loop over the reference tester, kept as a
    /// reference implementation: every ordered same-variable pair is
    /// tested individually, with per-pair arena facts and no memoization.
    /// [`dependence_list`] must return exactly this list, order included,
    /// and [`DependenceSet::analyze`] must equal its facts.
    fn analyze_reference(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Vec<Dependence> {
        let tester = Tester::new(vars, region);
        let site_pre = |s: &RefSite| reference::SitePre::new(vars, region, s);
        let mut out = Vec::new();
        let sites = table.sites();
        for a in sites {
            for b in sites {
                if a.var != b.var {
                    continue;
                }
                if a.access == AccessKind::Read && b.access == AccessKind::Read {
                    continue;
                }
                if !vars.kind(a.var).is_data() {
                    continue;
                }
                let kind = match (a.access, b.access) {
                    (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
                    (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                    (AccessKind::Write, AccessKind::Write) => DepKind::Output,
                    (AccessKind::Read, AccessKind::Read) => continue,
                };
                let verdict =
                    reference::test_pair_verdict(&tester, a, b, &site_pre(a), &site_pre(b));
                if let Some(distance) = verdict.cross {
                    out.push(Dependence {
                        source: a.id,
                        sink: b.id,
                        kind,
                        scope: DepScope::CrossSegment,
                        distance,
                    });
                }
                if verdict.intra {
                    out.push(Dependence {
                        source: a.id,
                        sink: b.id,
                        kind,
                        scope: DepScope::IntraSegment,
                        distance: None,
                    });
                }
            }
        }
        out
    }

    /// Asserts that the pruned list equals the reference pair loop's and
    /// the analyzed set equals the facts of that list; returns the list.
    fn assert_matches_reference(
        vars: &VarTable,
        region: &LoopStmt,
        table: &RefTable,
    ) -> Vec<Dependence> {
        let reference = analyze_reference(vars, region, table);
        assert_eq!(dependence_list(vars, region, table), reference);
        assert_eq!(
            DependenceSet::analyze(vars, region, table),
            DependenceSet::from_deps(&reference)
        );
        reference
    }

    /// A TWLDRV-shaped giant block: `stmts` straight-line statements
    /// chaining four accumulator scalars through coefficient-array reads,
    /// plus a final array store.
    fn giant_block(stmts: usize) -> (ProcBuilder, Vec<Stmt>) {
        let mut b = ProcBuilder::new("giant");
        let e = b.array("e", &[stmts, 8]);
        let g = b.array("g", &[8]);
        let s1 = b.scalar("s1");
        let s2 = b.scalar("s2");
        let s3 = b.scalar("s3");
        let s4 = b.scalar("s4");
        let k = b.index("k");
        let scalars = [s1, s2, s3, s4];
        let mut body = Vec::with_capacity(stmts + 1);
        for u in 0..stmts {
            let dst = scalars[u % 4];
            let src = scalars[(u + 1) % 4];
            let term = b.load_elem(e, vec![ac(u as i64 + 1), av(k)]);
            let rhs = add(b.load(src), term);
            body.push(b.assign_scalar(dst, rhs));
        }
        let lhs = b.load(s1);
        let rhs = b.load(s2);
        let sum = add(lhs, rhs);
        body.push(b.assign_elem(g, vec![av(k)], sum));
        let outer = vec![b.do_loop_labeled("G", k, ac(1), ac(8), body)];
        (b, outer)
    }

    /// The pruned path (memo + partition + arena) must be structurally
    /// identical to the reference pair loop on a mix of region shapes:
    /// carried stencils, scalar tangles, interleaved strides, descending
    /// loops, indirect subscripts and guarded writes.
    #[test]
    fn pruned_analysis_matches_reference_on_diverse_regions() {
        let mut cases: Vec<(ProcBuilder, Vec<Stmt>, &str)> = Vec::new();
        // Carried stencil: a(k) = a(k-1) + 1.
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let k = b.index("k");
            let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
            let s = b.assign_elem(a, vec![av(k)], rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
            cases.push((b, body, "R"));
        }
        // Scalar tangle with a guarded write: if (a(k)) then t = a(k).
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let t = b.scalar("t");
            let k = b.index("k");
            let cond = b.load_elem(a, vec![av(k)]);
            let read = b.load_elem(a, vec![av(k)]);
            let asg = b.assign_scalar(t, read);
            let guarded = b.if_then(cond, vec![asg]);
            let tv = b.load(t);
            let store = b.assign_elem(a, vec![av(k)], tv);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![guarded, store])];
            cases.push((b, body, "R"));
        }
        // Interleaved strides: a(2k) vs a(2k+1).
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[64]);
            let q = b.scalar("q");
            let k = b.index("k");
            let w = b.assign_elem(a, vec![AffineExpr::scaled_var(k, 2)], num(1.0));
            let rhs = b.load_elem(a, vec![AffineExpr::scaled_var(k, 2) + ac(1)]);
            let r = b.assign_scalar(q, rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
            cases.push((b, body, "R"));
        }
        // Descending loop: a(k) = a(k+1), step -1.
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let k = b.index("k");
            let rhs = b.load_elem(a, vec![av(k) + ac(1)]);
            let s = b.assign_elem(a, vec![av(k)], rhs);
            let body = vec![b.do_loop_step(Some("R"), k, ac(10), ac(1), -1, vec![s])];
            cases.push((b, body, "R"));
        }
        // Indirect subscripts: x(idx(k)) = x(idx(k)) + 1.
        {
            let mut b = ProcBuilder::new("t");
            let x = b.array("x", &[16]);
            let idxv = b.array("idx", &[16]);
            let k = b.index("k");
            let i1 = b.aref(idxv, vec![av(k)]);
            let ind1 = b.indirect(i1);
            let lhs = b.aref_subs(x, vec![ind1]);
            let i2 = b.aref(idxv, vec![av(k)]);
            let ind2 = b.indirect(i2);
            let rref = b.aref_subs(x, vec![ind2]);
            let rhs = add(b.load_ref(rref), num(1.0));
            let s = b.assign(lhs, rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
            cases.push((b, body, "R"));
        }
        for (b, body, label) in &cases {
            let region = find_region(body, label).expect("region").clone();
            let table = RefTable::collect(&region.body);
            assert_matches_reference(b.vars(), &region, &table);
        }
    }

    /// A giant block — hundreds of same-shape sites, where the verdict memo
    /// does most of its work — must be byte-identical to the reference.
    #[test]
    fn giant_block_matches_reference() {
        let (b, body) = giant_block(96);
        let region = find_region(&body, "G").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let reference = assert_matches_reference(b.vars(), &region, &table);
        assert!(!reference.is_empty());
    }

    /// The facts pass splits each partner run at the sink's site order,
    /// which a hand-built table need not keep in step with table position.
    /// Here orders fall and rise along the table, ids are out of table
    /// order, `a`'s partition holds two write runs and three read runs, and
    /// every write is its own partner. The set must equal the facts of the
    /// unpruned pair loop, every sink's sources in table order.
    #[test]
    fn run_split_matches_the_pair_loop_on_a_hand_built_table() {
        use refidem_ir::expr::{Reference, Subscript};
        use refidem_ir::ids::StmtId;
        use AccessKind::{Read, Write};
        let mut b = ProcBuilder::new("runs");
        let a = b.array("a", &[16]);
        let t = b.scalar("t");
        let k = b.index("k");
        let Stmt::Loop(region) = b.do_loop_labeled("R", k, ac(1), ac(10), vec![]) else {
            unreachable!("a loop")
        };
        // (id, variable, access, order, subscript: `a(k + c)`, or `a(1)`
        // for `None`; `t` takes none).
        let a_k = Some(Some(0));
        let a_k1 = Some(Some(-1));
        let a_1 = Some(None);
        let rows = [
            (12, t, Write, 6, None),
            (3, a, Write, 2, a_k),
            (7, t, Read, 11, None),
            (20, a, Read, 0, a_k1),
            (5, t, Write, 1, None),
            (9, a, Write, 8, a_1),
            (1, a, Read, 10, a_k),
            (15, t, Read, 3, None),
            (30, a, Write, 4, a_k),
            (2, a, Read, 7, a_k1),
            (11, t, Write, 9, None),
            (40, a, Read, 5, a_1),
        ];
        let mut table = RefTable::default();
        for (id, var, access, order, sub) in rows {
            let subs = match sub {
                None => vec![],
                Some(Some(c)) => vec![Subscript::Affine(av(k) + ac(c))],
                Some(None) => vec![Subscript::Affine(ac(1))],
            };
            table.push(RefSite {
                id: RefId(id),
                var,
                access,
                stmt: StmtId(order as u32),
                order,
                conditional: false,
                loops: vec![],
                reference: Reference {
                    id: RefId(id),
                    var,
                    subs,
                },
            });
        }
        assert_matches_reference(b.vars(), &region, &table);
        let deps = DependenceSet::analyze(b.vars(), &region, &table);
        let ids = |ids: &[u32]| ids.iter().copied().map(RefId).collect::<Vec<_>>();
        // `t`'s writes by site order are 5, 12, 11; by table order 12, 5, 11.
        assert_eq!(deps.intra_sources(RefId(7)), ids(&[12, 5, 11]));
        // `a(k)` read: both `a(k)` writes and the `a(1)` write, merged.
        assert_eq!(deps.intra_sources(RefId(1)), ids(&[3, 9, 30]));
        let position = |r: &RefId| table.sites().iter().position(|s| s.id == *r);
        for s in table.sites() {
            let at: Vec<_> = deps.intra_sources(s.id).iter().map(position).collect();
            assert!(at.windows(2).all(|w| w[0] < w[1]), "{}: {at:?}", s.id);
        }
    }

    /// The analyzed set keeps its intra-segment sources without the slack
    /// of the vector that collected them.
    #[test]
    fn giant_block_sources_are_kept_without_slack() {
        let (b, body) = giant_block(128);
        let region = find_region(&body, "G").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let deps = DependenceSet::analyze(b.vars(), &region, &table);
        let sources = &deps.facts.sources;
        assert!(!sources.is_empty());
        assert_eq!(sources.capacity(), sources.len());
    }

    /// A region with more distinct signatures than the dense memo holds —
    /// 260 arrays, each written at `v_i(k+i)` and read twice at
    /// `v_i(k+i-1)` — takes the sparse memo, and still matches the
    /// reference: the second read's pair is a memo hit, and each read is
    /// the sink of one cross flow, nothing else.
    #[test]
    fn sparse_memo_matches_reference_above_the_dense_limit() {
        const ARRAYS: i64 = 260;
        let mut b = ProcBuilder::new("wide");
        let k = b.index("k");
        let mut body = Vec::new();
        for i in 0..ARRAYS {
            let v = b.array(&format!("v{i}"), &[ARRAYS as usize + 8]);
            let read = |b: &mut ProcBuilder| b.load_elem(v, vec![av(k) + ac(i - 1)]);
            let rhs = add(read(&mut b), read(&mut b));
            body.push(b.assign_elem(v, vec![av(k) + ac(i)], rhs));
        }
        let body = vec![b.do_loop_labeled("W", k, ac(2), ac(5), body)];
        let region = find_region(&body, "W").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let mut tokens = Vec::new();
        let signatures: std::collections::HashSet<Vec<i64>> = table
            .sites()
            .iter()
            .map(|s| {
                tokens.clear();
                signature_tokens(s, &mut tokens);
                tokens.clone()
            })
            .collect();
        assert!(signatures.len() > MemoTable::DENSE_SIG_LIMIT);
        let reference = assert_matches_reference(b.vars(), &region, &table);
        assert_eq!(reference.len(), 2 * ARRAYS as usize);
        assert!(reference
            .iter()
            .all(|d| d.kind == DepKind::Flow && d.distance == Some(1)));
    }

    /// `==` compares what two sets answer: lists that differ only in what
    /// no query reads give equal sets, and a different count, intra-segment
    /// source, source order, cross sink or scope gives unequal ones.
    #[test]
    fn equality_compares_answers() {
        use DepKind::{Anti, Flow, Output};
        use DepScope::{CrossSegment as Cross, IntraSegment as Intra};
        let set = |deps: &[(u32, u32, DepKind, DepScope)]| {
            let deps: Vec<Dependence> = deps
                .iter()
                .map(|&(source, sink, kind, scope)| Dependence {
                    source: RefId(source),
                    sink: RefId(sink),
                    kind,
                    scope,
                    distance: None,
                })
                .collect();
            DependenceSet::from_deps(&deps)
        };
        let list = [
            (1, 3, Flow, Intra),
            (2, 3, Output, Intra),
            (5, 6, Output, Cross),
        ];
        let base = set(&list);
        // A cross-segment dependence's kind and source are no answer.
        let alike = [
            (1, 3, Flow, Intra),
            (2, 3, Output, Intra),
            (9, 6, Anti, Cross),
        ];
        assert_eq!(set(&alike), base);
        // An intra-segment anti dependence only counts: its sink widens
        // the id span the facts cover, to either side, and nothing else.
        let below = [list[0], list[1], list[2], (7, 0, Anti, Intra)];
        let above = [alike[0], alike[1], alike[2], (8, 10, Anti, Intra)];
        assert_eq!(set(&below), set(&above));
        for differs in [
            &[(1, 3, Flow, Intra), (2, 3, Output, Intra)][..],
            &[
                (1, 3, Flow, Intra),
                (4, 3, Output, Intra),
                (5, 6, Output, Cross),
            ],
            &[
                (2, 3, Output, Intra),
                (1, 3, Flow, Intra),
                (5, 6, Output, Cross),
            ],
            &[
                (1, 3, Flow, Intra),
                (2, 3, Output, Intra),
                (5, 7, Output, Cross),
            ],
            &[
                (1, 3, Flow, Intra),
                (2, 3, Output, Intra),
                (5, 6, Output, Intra),
            ],
        ] {
            assert_ne!(set(differs), base, "{differs:?}");
        }
    }

    /// The dense-row tester and the reference `BTreeMap` tester agree on
    /// every pairable site pair of every corpus region — cross verdict
    /// with its exact distance, and intra verdict. (The reference runs
    /// once per distinct signature pair, which the memo soundness tests
    /// above justify; the dense tester runs on every pair.)
    #[test]
    fn dense_tester_matches_reference_tester_on_the_corpus() {
        let mut compared = 0usize;
        for (name, program, regions) in crate::test_corpus::programs() {
            for spec in regions {
                let proc = program.procedure(spec.proc);
                let (_, region, _) = proc.split_at_loop(&spec.loop_label).expect("top level");
                let view = crate::region::segment_view(region);
                let table = RefTable::collect(&view);
                let vars = &proc.vars;
                let tester = Tester::new(vars, region);
                let sites = table.sites();
                // One arena entry per site, uninterned.
                let mut dense = SigArena::default();
                for s in sites {
                    dense.push(vars, region, s);
                }
                let refs: Vec<reference::SitePre> = sites
                    .iter()
                    .map(|s| reference::SitePre::new(vars, region, s))
                    .collect();
                let mut tokens = Vec::new();
                let sigs: Vec<Vec<i64>> = sites
                    .iter()
                    .map(|s| {
                        tokens.clear();
                        signature_tokens(s, &mut tokens);
                        tokens.clone()
                    })
                    .collect();
                let mut expected: HashMap<(&[i64], &[i64], bool), Verdict> = HashMap::new();
                let mut scratch = Scratch::default();
                for (i, a) in sites.iter().enumerate() {
                    for (j, b) in sites.iter().enumerate() {
                        if a.var != b.var
                            || !vars.kind(a.var).is_data()
                            || (a.access == AccessKind::Read && b.access == AccessKind::Read)
                        {
                            continue;
                        }
                        let (pa, pb) = (dense.get(i as u32), dense.get(j as u32));
                        let got = tester.test_pair_verdict(a, b, pa, pb, &mut scratch);
                        let want = *expected
                            .entry((&sigs[i], &sigs[j], a.order < b.order))
                            .or_insert_with(|| {
                                reference::test_pair_verdict(&tester, a, b, &refs[i], &refs[j])
                            });
                        assert_eq!(
                            got, want,
                            "{name} region {}: pair {} -> {}",
                            spec.loop_label, a.id, b.id
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 100_000, "only {compared} pairs compared");
    }

    /// do k = 1, 10:  a(k) = a(k-1) + 1   — classic loop-carried flow dep.
    #[test]
    fn carried_flow_dependence_is_cross_segment() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        // The read a(k-1) is the sink of a cross-segment flow dependence
        // from the write a(k) at distance 1.
        let read = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Read)
            .unwrap();
        let write = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Write)
            .unwrap();
        assert!(deps.is_sink_of_cross_segment(read.id));
        let list = dependence_list(b.vars(), &region, &table);
        let flow: Vec<_> = into(&list, read.id)
            .filter(|d| d.kind == DepKind::Flow && d.scope == DepScope::CrossSegment)
            .collect();
        assert_eq!(flow.len(), 1);
        assert_eq!(flow[0].source, write.id);
        assert_eq!(flow[0].distance, Some(1));
        // The write is the sink of a cross-segment anti dependence (the read
        // of a(k-1) in a later iteration? no — a(k-1) is read one iteration
        // AFTER it is written, so the anti direction is infeasible).
        assert!(!deps.is_sink_of_cross_segment(write.id));
        assert!(deps.has_cross_segment_deps());
    }

    /// do k = 1, 10:  a(k) = b(k) * 2 — fully independent.
    #[test]
    fn independent_loop_has_no_cross_segment_deps() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let bb = b.array("b", &[16]);
        let k = b.index("k");
        let rhs = refidem_ir::build::mul(b.load_elem(bb, vec![av(k)]), num(2.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (_table, deps) = analyze_region_loop(b.vars(), &region);
        assert!(!deps.has_cross_segment_deps());
        assert!(deps.is_empty());
    }

    /// do k = 1, 10:  { t = b(k); a(k) = t } — t carries intra flow deps and
    /// cross anti/output deps.
    #[test]
    fn scalar_temporary_has_intra_flow_and_cross_anti_output() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let bb = b.array("b", &[16]);
        let t = b.scalar("t");
        let k = b.index("k");
        let rhs1 = b.load_elem(bb, vec![av(k)]);
        let s1 = b.assign_scalar(t, rhs1);
        let rhs2 = b.load(t);
        let s2 = b.assign_elem(a, vec![av(k)], rhs2);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s1, s2])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let t_write = table
            .sites()
            .iter()
            .find(|s| s.var == t && s.access == AccessKind::Write)
            .unwrap();
        let t_read = table
            .sites()
            .iter()
            .find(|s| s.var == t && s.access == AccessKind::Read)
            .unwrap();
        // Intra-segment flow dependence t_write -> t_read.
        let list = dependence_list(b.vars(), &region, &table);
        assert!(into(&list, t_read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::IntraSegment
            && d.source == t_write.id));
        assert_eq!(deps.intra_sources(t_read.id), [t_write.id]);
        // The write is the sink of cross-segment anti and output deps.
        let kinds: Vec<DepKind> = into(&list, t_write.id)
            .filter(|d| d.scope == DepScope::CrossSegment)
            .map(|d| d.kind)
            .collect();
        assert!(kinds.contains(&DepKind::Anti));
        assert!(kinds.contains(&DepKind::Output));
        // The read also is the sink of a cross-segment flow dependence
        // (conservatively: t written in an older segment reaches this read).
        assert!(deps.is_sink_of_cross_segment(t_read.id));
    }

    /// The BUTS_DO1 pattern of Figure 4 (ascending region loop): the S1
    /// reads are sources only; the S2 write is a cross-segment sink.
    #[test]
    fn buts_pattern_reads_are_sources_only() {
        let mut b = ProcBuilder::new("t");
        let v = b.array("v", &[5, 10, 10, 10]);
        let k = b.index("k");
        let j = b.index("j");
        let i = b.index("i");
        let l = b.index("l");
        let m = b.index("m");
        let tmp = b.scalar("tmp");
        // S1 (inside do l): tmp = v(l,i,j,k+1) + v(l,i,j+1,k) + v(l,i+1,j,k)
        let rhs1 = add(
            add(
                b.load_elem(v, vec![av(l), av(i), av(j), av(k) + ac(1)]),
                b.load_elem(v, vec![av(l), av(i), av(j) + ac(1), av(k)]),
            ),
            b.load_elem(v, vec![av(l), av(i) + ac(1), av(j), av(k)]),
        );
        let s1 = b.assign_scalar(tmp, rhs1);
        let l_loop = b.do_loop(l, ac(1), ac(5), vec![s1]);
        // S2 (inside do m): v(m,i,j,k) = v(m,i,j,k) - tmp
        let rhs2 = refidem_ir::build::sub(
            b.load_elem(v, vec![av(m), av(i), av(j), av(k)]),
            b.load(tmp),
        );
        let s2 = b.assign_elem(v, vec![av(m), av(i), av(j), av(k)], rhs2);
        let m_loop = b.do_loop(m, ac(1), ac(5), vec![s2]);
        let i_loop = b.do_loop(i, ac(2), ac(9), vec![l_loop, m_loop]);
        let j_loop = b.do_loop(j, ac(2), ac(9), vec![i_loop]);
        let body = vec![b.do_loop_labeled("BUTS_DO1", k, ac(2), ac(9), vec![j_loop])];
        let region = region_of(&b, &body, "BUTS_DO1");
        let (table, deps) = analyze_region_loop(b.vars(), &region);

        let v_reads_s1: Vec<&RefSite> = table
            .sites()
            .iter()
            .filter(|s| {
                s.var == v && s.access == AccessKind::Read && s.loops.iter().any(|lc| lc.index == l)
            })
            .collect();
        assert_eq!(v_reads_s1.len(), 3);
        let list = dependence_list(b.vars(), &region, &table);
        for site in &v_reads_s1 {
            assert!(
                into(&list, site.id).next().is_none(),
                "S1 read {} must be a dependence source only",
                site.id
            );
            assert!(list.iter().any(|d| d.source == site.id));
        }
        let v_write = table
            .sites()
            .iter()
            .find(|s| s.var == v && s.access == AccessKind::Write)
            .unwrap();
        assert!(
            deps.is_sink_of_cross_segment(v_write.id),
            "the S2 write is the sink of cross-segment dependences"
        );
        assert!(deps.has_cross_segment_deps());
    }

    /// Reverse (descending) stencil: a(k) = a(k+1) in a descending loop has
    /// no cross-iteration flow dependence into the read (the element read
    /// was written in an *earlier* (larger-k) iteration — so the read IS a
    /// flow sink); sanity-check direction handling for negative steps.
    #[test]
    fn descending_loop_direction_is_respected() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = b.load_elem(a, vec![av(k) + ac(1)]);
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_step(Some("R"), k, ac(10), ac(1), -1, vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Read)
            .unwrap();
        let write = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Write)
            .unwrap();
        // In the descending loop, iteration k reads a(k+1) which was written
        // by iteration k+1 — an OLDER segment. So the read is the sink of a
        // cross-segment flow dependence.
        let list = dependence_list(b.vars(), &region, &table);
        assert!(into(&list, read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::CrossSegment
            && d.source == write.id));
        assert!(deps.is_sink_of_cross_segment(read.id));
        // And the write is NOT the sink of a cross-segment anti dependence.
        assert!(!into(&list, write.id)
            .any(|d| d.kind == DepKind::Anti && d.scope == DepScope::CrossSegment));
    }

    /// Indirect subscripts force conservative may-dependences.
    #[test]
    fn indirect_subscripts_are_conservative() {
        let mut b = ProcBuilder::new("t");
        let x = b.array("x", &[16]);
        let idxv = b.array("idx", &[16]);
        let k = b.index("k");
        // x(idx(k)) = x(idx(k)) + 1
        let i1 = b.aref(idxv, vec![av(k)]);
        let ind1 = b.indirect(i1);
        let lhs = b.aref_subs(x, vec![ind1]);
        let i2 = b.aref(idxv, vec![av(k)]);
        let ind2 = b.indirect(i2);
        let rref = b.aref_subs(x, vec![ind2]);
        let rhs = add(b.load_ref(rref), num(1.0));
        let s = b.assign(lhs, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let x_write = table
            .sites()
            .iter()
            .find(|s| s.var == x && s.access == AccessKind::Write)
            .unwrap();
        let x_read = table
            .sites()
            .iter()
            .find(|s| s.var == x && s.access == AccessKind::Read)
            .unwrap();
        // Both cross-segment directions are conservatively reported.
        assert!(deps.is_sink_of_cross_segment(x_write.id));
        assert!(deps.is_sink_of_cross_segment(x_read.id));
    }

    /// Distinct constant subscripts never alias.
    #[test]
    fn distinct_constants_do_not_alias() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let q = b.scalar("q");
        let k = b.index("k");
        let w = b.assign_elem(a, vec![ac(1)], num(1.0));
        let rhs = b.load_elem(a, vec![ac(2)]);
        let r = b.assign_scalar(q, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Read)
            .unwrap();
        let list = dependence_list(b.vars(), &region, &table);
        assert!(into(&list, read.id).next().is_none());
        // a(1) = ... is still the sink of a cross-segment output dependence
        // with itself (same element every iteration).
        let write = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Write)
            .unwrap();
        assert!(into(&list, write.id)
            .any(|d| d.kind == DepKind::Output && d.scope == DepScope::CrossSegment));
        assert!(deps.is_sink_of_cross_segment(write.id));
    }

    /// Strided accesses: a(2k) vs a(2k+1) never alias (GCD test).
    #[test]
    fn gcd_test_separates_interleaved_accesses() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[64]);
        let q = b.scalar("q");
        let k = b.index("k");
        let w = b.assign_elem(a, vec![AffineExpr::scaled_var(k, 2)], num(1.0));
        let rhs = b.load_elem(a, vec![AffineExpr::scaled_var(k, 2) + ac(1)]);
        let r = b.assign_scalar(q, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Read)
            .unwrap();
        let list = dependence_list(b.vars(), &region, &table);
        assert!(
            into(&list, read.id).next().is_none(),
            "even/odd elements never alias"
        );
        assert!(deps.intra_sources(read.id).is_empty() && !deps.is_sink_of_cross_segment(read.id));
    }

    #[test]
    fn dependence_pretty_printer_mentions_variables() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let table = RefTable::collect(&region.body);
        let list = dependence_list(b.vars(), &region, &table);
        let text = dependence_to_string(&table, b.vars(), &list[0]);
        assert!(text.contains("a="));
    }
}
