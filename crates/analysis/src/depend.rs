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
//! * **Flat site arena** — per-site facts the tester would otherwise
//!   recompute per pair per level (the [`IndexBounds`] walk and every
//!   subscript, parameter-folded and split into one coefficient per
//!   enclosing loop) are computed once per site into dense,
//!   index-addressed vectors.
//! * **Dense difference rows** — per level, each subscript dimension's
//!   difference is a row of meta-variable coefficients in reused scratch
//!   buffers, so testing a pair allocates nothing.
//! * **Signature interning + verdict memoization** — each site's access
//!   signature (access kind, guard context, enclosing-loop vector,
//!   subscript coefficient vectors) is interned into a dedup table, and
//!   the test verdict is memoized per canonical signature *pair*: the
//!   hundreds of same-shape references of a giant block pay for each
//!   distinct test once.
//!
//! # Facts first, the list on demand
//!
//! Algorithm 2 and the region flags ask three things about a reference:
//! is it the sink of a cross-segment dependence, is it a sink at all, and
//! what are the sources of its intra-segment flow and output dependences.
//! [`DependenceSet::analyze`] answers exactly these in one sink-major pass:
//! for every sink in table order it walks the partners the partition pairs
//! it with, looks each pair's verdict up through the memo, and records
//! per-reference flags, the intra-segment sources, whether any dependence
//! crosses segments and the exact dependence count. No [`Dependence`]
//! record is built.
//!
//! The ordered dependence list and its per-reference sink and source
//! indexes (CSR arrays) are built only when something asks for them —
//! [`DependenceSet::deps`], [`DependenceSet::deps_into`],
//! [`DependenceSet::deps_from`], `==` or `Debug`, i.e. tests and tools. The
//! set keeps what re-emitting the list needs (each pairable site's id,
//! access, order, signature and partition, the partitions, and the
//! verdicts of the keys the pass met; the memo itself is dropped) and
//! replays the original source-major pair loop over them, so order and
//! contents are those of an eager emission. A set with no dependence keeps
//! nothing. The set is immutable and shared: cloning it copies one `Arc`,
//! and the list, once built, is shared by every clone.

use crate::bounds::IndexBounds;
use refidem_ir::affine::{gcd, AffineExpr};
use refidem_ir::ids::{RefId, StmtId, VarId};
use refidem_ir::sites::{AccessKind, RefSite, RefTable};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_ir::var::VarTable;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// The set of may-dependences of one region: per-reference sink facts,
/// answered in O(1), and the dependences themselves in emission order,
/// built on first use. Immutable once built and shared behind one `Arc` —
/// cloning a set (a cache hit, a labeling input) copies a pointer.
#[derive(Clone, Default)]
pub struct DependenceSet {
    shared: Arc<DepTable>,
}

/// The shared body of a [`DependenceSet`].
#[derive(Default)]
struct DepTable {
    facts: Facts,
    /// What re-emitting the analyzer's list needs; `None` for a set built
    /// from an explicit list, whose `list` is filled at construction.
    replay: Option<Replay>,
    list: OnceLock<DepList>,
}

/// The per-reference facts, over a dense `RefId` range starting at
/// `base`: the facts of reference `base + k` are `sinks[k]`, and the
/// sources of its intra-segment flow and output dependences are
/// `sources[sinks[k].start..sinks[k].end]`.
#[derive(Default)]
struct Facts {
    base: u32,
    sinks: Vec<SinkFacts>,
    sources: Vec<RefId>,
    /// The exact number of dependences.
    len: usize,
    /// Some dependence crosses segments.
    has_cross: bool,
}

#[derive(Clone, Copy, Default)]
struct SinkFacts {
    start: u32,
    end: u32,
    /// The sink of some dependence.
    any: bool,
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

    /// Derives the facts of an explicit list over references `lo ..= hi`,
    /// keeping each sink's intra-segment sources in list order.
    fn from_list(lo: u32, hi: u32, deps: &[Dependence]) -> Self {
        let mut facts = Facts::new(lo, hi);
        facts.len = deps.len();
        for d in deps {
            let sink = &mut facts.sinks[(d.sink.0 - lo) as usize];
            sink.any = true;
            if d.scope == DepScope::CrossSegment {
                sink.cross = true;
                facts.has_cross = true;
            }
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
        facts
    }

    fn sink(&self, r: RefId) -> Option<&SinkFacts> {
        let k = r.0.checked_sub(self.base)?;
        self.sinks.get(k as usize)
    }
}

/// The dependence list with its per-reference indexes. Both indexes are
/// CSR arrays over a dense `RefId` range starting at `base`: the
/// dependences into reference `base + k` are
/// `deps[by_sink.items[by_sink.offsets[k]..by_sink.offsets[k + 1]]]`, in
/// emission order, and likewise out of it through `by_source`.
#[derive(Default)]
struct DepList {
    deps: Vec<Dependence>,
    base: u32,
    by_sink: Csr,
    by_source: Csr,
}

impl DepList {
    fn key(&self, r: RefId) -> Option<usize> {
        r.0.checked_sub(self.base).map(|k| k as usize)
    }
}

#[derive(Default)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn slot(&self, k: Option<usize>) -> &[u32] {
        match k {
            Some(k) if k + 1 < self.offsets.len() => {
                &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
            }
            _ => &[],
        }
    }
}

/// Builds a [`DepList`]'s indexes: per-reference counts accumulate while
/// the dependences are emitted, then one pass places every dependence in
/// both indexes.
struct Indexer {
    base: u32,
    sinks: Vec<u32>,
    sources: Vec<u32>,
}

impl Indexer {
    /// An indexer for dependences between references `lo ..= hi`.
    fn new(lo: u32, hi: u32) -> Self {
        let slots = (hi - lo) as usize + 2;
        Indexer {
            base: lo,
            sinks: vec![0; slots],
            sources: vec![0; slots],
        }
    }

    fn count(&mut self, d: &Dependence) {
        self.sinks[(d.sink.0 - self.base) as usize + 1] += 1;
        self.sources[(d.source.0 - self.base) as usize + 1] += 1;
    }

    /// Indexes `deps`, every one of which was counted.
    fn finish(self, deps: Vec<Dependence>) -> DepList {
        let Indexer {
            base,
            mut sinks,
            mut sources,
        } = self;
        for offsets in [&mut sinks, &mut sources] {
            for k in 1..offsets.len() {
                offsets[k] += offsets[k - 1];
            }
        }
        // Fill through `offsets[k]` as the cursor of slot `k`; afterwards
        // every cursor sits at its slot's end, which is the next slot's
        // start, so shifting right by one restores the offsets.
        let mut sink_items = vec![0u32; deps.len()];
        let mut source_items = vec![0u32; deps.len()];
        for (i, d) in deps.iter().enumerate() {
            let cursor = &mut sinks[(d.sink.0 - base) as usize];
            sink_items[*cursor as usize] = i as u32;
            *cursor += 1;
            let cursor = &mut sources[(d.source.0 - base) as usize];
            source_items[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        for offsets in [&mut sinks, &mut sources] {
            let last = offsets.len() - 1;
            offsets.copy_within(..last, 1);
            offsets[0] = 0;
        }
        DepList {
            deps,
            base,
            by_sink: Csr {
                offsets: sinks,
                items: sink_items,
            },
            by_source: Csr {
                offsets: sources,
                items: source_items,
            },
        }
    }
}

impl PartialEq for DependenceSet {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared) || self.deps() == other.deps()
    }
}

impl Eq for DependenceSet {}

impl std::fmt::Debug for DependenceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependenceSet")
            .field("deps", &self.deps())
            .finish()
    }
}

impl DependenceSet {
    /// Builds a dependence set from an explicit list of dependences, kept in
    /// the given order. Used by front-ends (e.g. the abstract segment-graph
    /// regions of the paper's Figures 1–3) that compute dependences
    /// themselves, and by tests. The facts are derived from the list, so
    /// every query answers as it would for an analyzed set. Reference ids
    /// need not be contiguous; the facts and indexes take memory in
    /// proportion to the span of ids the dependences mention.
    pub fn from_deps(deps: Vec<Dependence>) -> Self {
        let mut ids = deps.iter().flat_map(|d| [d.source.0, d.sink.0]);
        let Some(first) = ids.next() else {
            return DependenceSet::default();
        };
        let (lo, hi) = ids.fold((first, first), |(lo, hi), id| (lo.min(id), hi.max(id)));
        let facts = Facts::from_list(lo, hi, &deps);
        let mut index = Indexer::new(lo, hi);
        for d in &deps {
            index.count(d);
        }
        DependenceSet {
            shared: Arc::new(DepTable {
                facts,
                replay: None,
                list: OnceLock::from(index.finish(deps)),
            }),
        }
    }

    /// The list with its indexes, built on first use.
    fn list(&self) -> &DepList {
        let t = &*self.shared;
        t.list.get_or_init(|| match &t.replay {
            Some(replay) => replay.emit(&t.facts),
            None => DepList::default(),
        })
    }

    /// True once the dependence list has been built. Analysis, labeling
    /// and simulation never build it; tests use this to pin that.
    pub fn is_list_built(&self) -> bool {
        self.shared.list.get().is_some()
    }

    /// All dependences, in emission order (built on first use).
    pub fn deps(&self) -> &[Dependence] {
        &self.list().deps
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.shared.facts.len
    }

    /// True when the region has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dependences whose sink is `r`, in emission order (builds the list
    /// on first use).
    pub fn deps_into(&self, r: RefId) -> impl Iterator<Item = &Dependence> {
        let t = self.list();
        t.by_sink
            .slot(t.key(r))
            .iter()
            .map(move |&i| &t.deps[i as usize])
    }

    /// Dependences whose source is `r`, in emission order (builds the list
    /// on first use).
    pub fn deps_from(&self, r: RefId) -> impl Iterator<Item = &Dependence> {
        let t = self.list();
        t.by_source
            .slot(t.key(r))
            .iter()
            .map(move |&i| &t.deps[i as usize])
    }

    /// True when `r` is the sink of a cross-segment dependence (Lemma 3's
    /// condition).
    pub fn is_sink_of_cross_segment(&self, r: RefId) -> bool {
        self.shared.facts.sink(r).is_some_and(|s| s.cross)
    }

    /// True when `r` is the sink of any dependence.
    pub fn is_sink_of_any(&self, r: RefId) -> bool {
        self.shared.facts.sink(r).is_some_and(|s| s.any)
    }

    /// The sources of the intra-segment flow and output dependences into
    /// `r` — every intra-segment dependence except anti — one entry per
    /// dependence. Theorem 2 and the write-ordering refinement of
    /// Algorithm 2 ask that all of them be idempotent.
    pub fn intra_sources(&self, r: RefId) -> &[RefId] {
        let facts = &self.shared.facts;
        match facts.sink(r) {
            Some(s) => &facts.sources[s.start as usize..s.end as usize],
            None => &[],
        }
    }

    /// True when the region carries at least one cross-segment dependence.
    pub fn has_cross_segment_deps(&self) -> bool {
        self.shared.facts.has_cross
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
        let facts = &self.shared.facts;
        facts.sinks.iter().enumerate().any(|(k, s)| {
            s.cross
                && table
                    .get(RefId(facts.base + k as u32))
                    .map(|site| !ignored(site.var))
                    .unwrap_or(true)
        })
    }

    /// Analyzes the dependences of a region loop given the reference table
    /// of its body, computing the per-reference facts (see the module
    /// docs); the list itself is emitted only on demand.
    pub fn analyze(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Self {
        let tester = Tester::new(vars, region);
        let sites = table.sites();

        // --- Partition sites by base variable (in table order). Only
        // partitions of a data variable with at least one write site can
        // produce a dependence; every other site — notably the giant
        // blocks' read-only coefficient arrays — skips pairing, signature
        // interning and the bounds walk entirely. The pairable sites are
        // gathered in table order; partitions list them by that index.
        // Everything the set keeps is allocated at its exact size.
        let mut group_of: HashMap<VarId, u32> = HashMap::new();
        // Per variable: (members, writes).
        let mut counts: Vec<(u32, u32)> = Vec::new();
        let site_var: Vec<Option<u32>> = sites
            .iter()
            .map(|s| {
                if !vars.kind(s.var).is_data() {
                    return None;
                }
                let next = counts.len() as u32;
                let v = *group_of.entry(s.var).or_insert(next);
                if v == next {
                    counts.push((0, 0));
                }
                let count = &mut counts[v as usize];
                count.0 += 1;
                count.1 += (s.access == AccessKind::Write) as u32;
                Some(v)
            })
            .collect();
        let with_writes = counts.iter().filter(|c| c.1 > 0);
        let mut groups: Vec<VarGroup> = Vec::with_capacity(with_writes.clone().count());
        let mut pairing: Vec<PairSite> =
            Vec::with_capacity(with_writes.map(|c| c.0 as usize).sum());
        // Per variable: its partition, when it has a write.
        let partition: Vec<Option<u32>> = counts
            .iter()
            .map(|&(members, writes)| {
                (writes > 0).then(|| {
                    groups.push(VarGroup {
                        members: Vec::with_capacity(members as usize),
                        writes: Vec::with_capacity(writes as usize),
                    });
                    groups.len() as u32 - 1
                })
            })
            .collect();
        let mut pairable: Vec<&RefSite> = Vec::with_capacity(pairing.capacity());
        for (s, v) in sites.iter().zip(site_var) {
            let Some(group) = v.and_then(|v| partition[v as usize]) else {
                continue;
            };
            let p = pairing.len() as u32;
            let write = s.access == AccessKind::Write;
            groups[group as usize].members.push(p);
            if write {
                groups[group as usize].writes.push(p);
            }
            pairing.push(PairSite {
                id: s.id,
                order: u32::try_from(s.order).expect("site orders fit in u32"),
                sig: 0,
                group,
                write,
            });
            pairable.push(s);
        }
        let ids = pairing.iter().map(|p| p.id.0);
        let (Some(lo), Some(hi)) = (ids.clone().min(), ids.max()) else {
            return DependenceSet::default();
        };

        // --- Flat site-arena pass: intern each pairable site's access
        // signature into a dedup table and precompute, once per *distinct
        // signature*, what the tester used to recompute per pair per level
        // — the `IndexBounds` walk and the parameter-folded affine view of
        // each subscript. (Sites with equal signatures have identical loop
        // nests and subscripts, so they share one arena entry: a giant
        // block's hundreds of same-shape references pay for one walk.)
        let mut interner: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut tokens: Vec<i64> = Vec::new();
        let mut pre: Vec<SitePre> = Vec::new();
        for (p, s) in pairing.iter_mut().zip(&pairable) {
            signature_tokens(s, &mut tokens);
            p.sig = match interner.get(tokens.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = interner.len() as u32;
                    interner.insert(tokens.clone(), id);
                    pre.push(SitePre::new(vars, region, s));
                    id
                }
            };
        }

        // --- One sink-major pass: for every sink in table order, the
        // partners the partition pairs it with (a write is the sink of
        // every member, a read of the writes only — exactly the pairs the
        // unpartitioned scan kept). Each distinct signature pair's verdict
        // is computed on first encounter. `a.order < b.order` is the only
        // pair-level fact the tester reads beyond the two signatures (site
        // orders are unique, so it also subsumes the `a.id != b.id` gate) —
        // together they form the memo key. A feasible verdict contributes
        // one dependence per scope; only the facts are kept.
        let mut memo = MemoTable::new(interner.len());
        let mut verdicts: Vec<(MemoKey, Verdict)> = Vec::new();
        let mut scratch = Scratch::default();
        let mut facts = Facts::new(lo, hi);
        for (b, &sb) in pairing.iter().zip(&pairable) {
            let group = &groups[b.group as usize];
            let partners = if b.write {
                &group.members
            } else {
                &group.writes
            };
            let mut sink = SinkFacts {
                start: facts.sources.len() as u32,
                ..SinkFacts::default()
            };
            for &a_idx in partners {
                let a = &pairing[a_idx as usize];
                let key = (a.sig, b.sig, a.order < b.order);
                let effect = memo.get(key).unwrap_or_else(|| {
                    let (pa, pb) = (&pre[a.sig as usize], &pre[b.sig as usize]);
                    let sa = pairable[a_idx as usize];
                    let verdict = tester.test_pair_verdict(sa, sb, pa, pb, &mut scratch);
                    verdicts.push((key, verdict));
                    memo.record(key, Effect::of(verdict))
                });
                facts.len += effect.count();
                sink.cross |= effect.cross();
                if effect.intra() {
                    sink.any = true;
                    // Flow or output: the anti dependences of a read
                    // source never gate a label.
                    if a.write {
                        facts.sources.push(a.id);
                    }
                }
            }
            sink.any |= sink.cross;
            sink.end = facts.sources.len() as u32;
            facts.has_cross |= sink.cross;
            facts.sinks[(b.id.0 - lo) as usize] = sink;
        }
        if facts.len == 0 {
            return DependenceSet::default();
        }
        verdicts.shrink_to_fit();
        DependenceSet {
            shared: Arc::new(DepTable {
                facts,
                replay: Some(Replay {
                    sites: pairing,
                    groups,
                    verdicts,
                }),
                list: OnceLock::new(),
            }),
        }
    }
}

/// What the pair loops read of one pairable site.
struct PairSite {
    id: RefId,
    order: u32,
    /// Interned access signature.
    sig: u32,
    /// Index of the site's variable partition.
    group: u32,
    write: bool,
}

/// What re-emitting an analyzed set's list needs: the pairable sites in
/// table order, the partitions and the verdict of every key the facts
/// pass met, in the order it met them.
struct Replay {
    sites: Vec<PairSite>,
    groups: Vec<VarGroup>,
    verdicts: Vec<(MemoKey, Verdict)>,
}

impl Replay {
    /// The original source-major pair loop over the retained verdicts: per
    /// pair, the cross-segment dependence (if feasible) precedes the
    /// intra-segment one, exactly as the unmemoized tester pushed them.
    fn emit(&self, facts: &Facts) -> DepList {
        let verdicts: HashMap<MemoKey, Verdict> = self.verdicts.iter().copied().collect();
        let mut deps: Vec<Dependence> = Vec::with_capacity(facts.len);
        let mut index = Indexer::new(facts.base, facts.base + facts.sinks.len() as u32 - 1);
        for a in &self.sites {
            let group = &self.groups[a.group as usize];
            let partners = if a.write {
                &group.members
            } else {
                &group.writes
            };
            for &b_idx in partners {
                let b = &self.sites[b_idx as usize];
                let key = (a.sig, b.sig, a.order < b.order);
                let verdict = *verdicts
                    .get(&key)
                    .expect("the facts pass met every pair's key");
                let kind = match (a.write, b.write) {
                    (true, false) => DepKind::Flow,
                    (false, true) => DepKind::Anti,
                    (true, true) => DepKind::Output,
                    (false, false) => unreachable!("reads pair only with writes"),
                };
                let mut emit = |scope, distance| {
                    let d = Dependence {
                        source: a.id,
                        sink: b.id,
                        kind,
                        scope,
                        distance,
                    };
                    index.count(&d);
                    deps.push(d);
                };
                if let Some(distance) = verdict.cross {
                    emit(DepScope::CrossSegment, distance);
                }
                if verdict.intra {
                    emit(DepScope::IntraSegment, None);
                }
            }
        }
        index.finish(deps)
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
/// computation dominates anyway. Lives only while the facts pass runs; the
/// verdicts themselves are kept apart, for re-emission.
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

/// Per-variable partition of the pairable sites: member indices in table
/// order, and the write members among them (a variable with no write
/// never produces a dependence and gets no partition).
#[derive(Default)]
struct VarGroup {
    members: Vec<u32>,
    writes: Vec<u32>,
}

/// Per-site precomputed facts (the flat site arena): the per-site bounds
/// walk and each subscript split by loop position (`None` for indirect
/// subscripts, which stay conservatively may-dependent).
struct SitePre {
    bounds: IndexBounds,
    subs: Vec<Option<DimPre>>,
}

/// One parameter-folded affine subscript,
/// `constant + Σ by_pos[p]·index(p) + Σ program`, where loop position 0 is
/// the region loop and position `p` is the site's `loops[p - 1]`. An index
/// variable re-bound by an inner loop of the same nest belongs to its
/// innermost position, the binding the tester's substitution sees.
struct DimPre {
    constant: i64,
    by_pos: Vec<i64>,
    /// Terms over variables that index no enclosing loop, sorted by
    /// variable.
    program: Vec<(VarId, i64)>,
}

impl SitePre {
    fn new(vars: &VarTable, region: &LoopStmt, s: &RefSite) -> Self {
        let positions: Vec<VarId> = std::iter::once(region.index)
            .chain(s.loops.iter().map(|l| l.index))
            .collect();
        let subs = s
            .reference
            .subs
            .iter()
            .map(|sub| {
                let folded = sub.as_affine()?.substitute_params(&|v| vars.param_value(v));
                let mut dim = DimPre {
                    constant: folded.constant,
                    by_pos: vec![0; positions.len()],
                    program: Vec::new(),
                };
                for (&v, &c) in &folded.terms {
                    match positions.iter().rposition(|&p| p == v) {
                        Some(p) => dim.by_pos[p] = c,
                        None => dim.program.push((v, c)),
                    }
                }
                Some(dim)
            })
            .collect();
        SitePre {
            bounds: IndexBounds::for_site(vars, region, &s.loops),
            subs,
        }
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

/// Serializes everything the hierarchical tester reads from one site into
/// an internable token stream: access kind, guard context, the
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
        for (&v, &c) in &e.terms {
            t.push(v.index() as i64);
            t.push(c);
        }
    }
    t.clear();
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
/// folding happens in the site arena ([`SitePre`]), so the tester only
/// needs the region loop and its bounds.
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
        pa: &SitePre,
        pb: &SitePre,
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
        pa: &SitePre,
        pb: &SitePre,
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
                let l = &a.loops[pos - 1];
                let bounds = pa.bounds.get(l.index).or_else(|| pb.bounds.get(l.index));
                (bounds.unwrap_or(UNBOUNDED), l.step)
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
        for l in &a.loops[common..] {
            let m = scratch.meta(pa.bounds.get(l.index).unwrap_or(UNBOUNDED));
            scratch.src.push(m);
        }
        for l in &b.loops[common..] {
            let m = scratch.meta(pb.bounds.get(l.index).unwrap_or(UNBOUNDED));
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
        for (sa, sb) in pa.subs.iter().zip(&pb.subs) {
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
            for (&m, &c) in src.iter().zip(&da.by_pos) {
                row[m] += c;
            }
            for (&(m, carried), &c) in sink.iter().zip(&db.by_pos) {
                row[m] -= c;
                if let Some((t, step)) = carried {
                    row[t] -= step * c;
                }
            }
            merge_difference(&da.program, &db.program, program);
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

/// Returns the id of the statement containing a site (convenience for
/// diagnostics).
pub fn site_stmt(table: &RefTable, r: RefId) -> Option<StmtId> {
    table.get(r).map(|s| s.stmt)
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
        for (&v, &c) in &folded.terms {
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
            let (&v, &c) = diff.terms.iter().next().expect("one term");
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
        let g = diff.terms.values().fold(0i64, |acc, &c| gcd(acc, c));
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

    /// The pre-pruning pair loop over the reference tester, kept as a
    /// reference implementation: every ordered same-variable pair is
    /// tested individually, with per-pair arena facts and no memoization.
    /// The pruned [`DependenceSet::analyze`] must be structurally identical
    /// to this — including the emission order of `deps()`.
    fn analyze_reference(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> DependenceSet {
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
        DependenceSet::from_deps(out)
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
            let reference = analyze_reference(b.vars(), &region, &table);
            let pruned = DependenceSet::analyze(b.vars(), &region, &table);
            assert_eq!(pruned, reference);
        }
    }

    /// A giant block — hundreds of same-shape sites, where the verdict memo
    /// does most of its work — must be byte-identical to the reference.
    #[test]
    fn giant_block_matches_reference() {
        let (b, body) = giant_block(96);
        let region = find_region(&body, "G").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let reference = analyze_reference(b.vars(), &region, &table);
        assert_eq!(DependenceSet::analyze(b.vars(), &region, &table), reference);
        assert!(!reference.is_empty());
    }

    /// Analysis and every fact query leave the list unbuilt; the first
    /// list query builds it once, for every clone of the set.
    #[test]
    fn fact_queries_leave_the_list_unbuilt() {
        let (b, body) = giant_block(32);
        let region = find_region(&body, "G").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let deps = DependenceSet::analyze(b.vars(), &region, &table);
        let clone = deps.clone();
        let mut facts = 0;
        for s in table.sites() {
            facts += deps.is_sink_of_cross_segment(s.id) as usize
                + deps.is_sink_of_any(s.id) as usize
                + deps.intra_sources(s.id).len();
        }
        assert!(facts > 0);
        assert!(!deps.is_empty() && deps.has_cross_segment_deps());
        assert!(deps.has_cross_segment_deps_excluding(&table, &|_| false));
        assert!(!deps.is_list_built(), "a fact query built the list");
        assert_eq!(deps.deps().len(), deps.len());
        assert!(clone.is_list_built(), "clones share the built list");
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
                let dense: Vec<SitePre> = sites
                    .iter()
                    .map(|s| SitePre::new(vars, region, s))
                    .collect();
                let refs: Vec<reference::SitePre> = sites
                    .iter()
                    .map(|s| reference::SitePre::new(vars, region, s))
                    .collect();
                let mut tokens = Vec::new();
                let sigs: Vec<Vec<i64>> = sites
                    .iter()
                    .map(|s| {
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
                        let got =
                            tester.test_pair_verdict(a, b, &dense[i], &dense[j], &mut scratch);
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
        let flow: Vec<_> = deps
            .deps_into(read.id)
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
        assert!(deps.deps_into(t_read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::IntraSegment
            && d.source == t_write.id));
        // The write is the sink of cross-segment anti and output deps.
        let kinds: Vec<DepKind> = deps
            .deps_into(t_write.id)
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
        for site in &v_reads_s1 {
            assert!(
                !deps.is_sink_of_any(site.id),
                "S1 read {} must be a dependence source only",
                site.id
            );
            assert!(deps.deps_from(site.id).count() > 0);
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
        assert!(deps.deps_into(read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::CrossSegment
            && d.source == write.id));
        // And the write is NOT the sink of a cross-segment anti dependence.
        assert!(!deps
            .deps_into(write.id)
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
        assert!(!deps.is_sink_of_any(read.id));
        // a(1) = ... is still the sink of a cross-segment output dependence
        // with itself (same element every iteration).
        let write = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Write)
            .unwrap();
        assert!(deps
            .deps_into(write.id)
            .any(|d| d.kind == DepKind::Output && d.scope == DepScope::CrossSegment));
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
        assert!(
            !deps.is_sink_of_any(read.id),
            "even/odd elements never alias"
        );
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
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let text = dependence_to_string(&table, b.vars(), &deps.deps()[0]);
        assert!(text.contains("a="));
    }
}
