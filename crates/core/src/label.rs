//! Idempotency labeling — Algorithm 2, Theorems 1 and 2.
//!
//! Given the prerequisite analyses (read-only and private variables,
//! reference-by-reference may-dependences, the RFW set), Algorithm 2 labels
//! every reference of a region either *speculative* (tracked in speculative
//! storage, the HOSE default) or *idempotent* (bypasses speculative storage
//! and accesses the conventional memory hierarchy directly):
//!
//! 1. If the region is fully independent (no cross-segment data or control
//!    dependences), every reference is idempotent (Lemma 7).
//! 2. Otherwise: references to read-only variables and to private variables
//!    are idempotent; a write is idempotent iff it is a re-occurring first
//!    write and not the sink of a cross-segment dependence (Theorem 1); a
//!    read is idempotent iff it is not the sink of any dependence, or it is
//!    the sink of intra-segment dependences only and every source is itself
//!    labeled idempotent (Theorem 2).
//!
//! The resulting [`Labeling`] is what the CASE simulator consumes, and what
//! the evaluation (Figures 5–9) counts.

use crate::model::AbstractRegion;
use crate::rfw::{rfw_for_abstract, rfw_for_loop_region};
use crate::stats::{DynLabelStats, LabelStats};
use refidem_analysis::classify::VarClass;
use refidem_analysis::depend::DependenceSet;
use refidem_analysis::region::{AnalysisError, RegionAnalysis};
use refidem_analysis::schedule::{discover_regions, RegionSchedule};
use refidem_ir::exec::DynCounts;
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::memory::Layout;
use refidem_ir::program::{Program, RegionSpec};
use refidem_ir::sites::AccessKind;
use refidem_ir::var::VarTable;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The idempotency categories of Section 4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IdemCategory {
    /// The whole region carries no cross-segment dependences (Lemma 7); the
    /// region could run as a conventional parallel loop.
    FullyIndependent,
    /// Reference to a variable that is never written in the region.
    ReadOnly,
    /// Reference to a segment-private variable (per-segment storage).
    Private,
    /// Reference to shared, dependence-carrying data that nevertheless needs
    /// no speculative-storage tracking — "the most remarkable" category of
    /// the paper.
    SharedDependent,
}

impl std::fmt::Display for IdemCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdemCategory::FullyIndependent => write!(f, "fully-independent"),
            IdemCategory::ReadOnly => write!(f, "read-only"),
            IdemCategory::Private => write!(f, "private"),
            IdemCategory::SharedDependent => write!(f, "shared-dependent"),
        }
    }
}

/// The label of one reference site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// The reference must be tracked in speculative storage (HOSE behavior).
    Speculative,
    /// The reference may bypass speculative storage (CASE behavior), with
    /// the category that justified it.
    Idempotent(IdemCategory),
}

impl Label {
    /// True for idempotent labels.
    pub fn is_idempotent(&self) -> bool {
        matches!(self, Label::Idempotent(_))
    }

    /// The category, when idempotent.
    pub fn category(&self) -> Option<IdemCategory> {
        match self {
            Label::Speculative => None,
            Label::Idempotent(c) => Some(*c),
        }
    }
}

/// Description of one labelable site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteDesc {
    /// The reference site.
    pub id: RefId,
    /// Referenced variable.
    pub var: VarId,
    /// Read or write.
    pub access: AccessKind,
}

/// The input of Algorithm 2 — the prerequisite facts of Section 4.2.1 in a
/// front-end-independent form.
#[derive(Clone, Debug)]
pub struct LabelInput {
    /// Region name (for reporting).
    pub region_name: String,
    /// Every reference site of the region.
    pub sites: Vec<SiteDesc>,
    /// May-dependences, classified intra-/cross-segment.
    pub deps: DependenceSet,
    /// Variables never written in the region.
    pub read_only: BTreeSet<VarId>,
    /// Variables private to segments.
    pub private: BTreeSet<VarId>,
    /// Re-occurring first writes (Definition 5 / Algorithm 1).
    pub rfw: BTreeSet<RefId>,
    /// The region carries no cross-segment data or control dependences.
    pub fully_independent: bool,
}

/// The result of Algorithm 2: a label for every reference site.
///
/// The labels live in one dense table over the sites' `RefId` span,
/// shared behind an `Arc`: cloning a labeling (every analysis-cache hit
/// does) copies a pointer, and [`Labeling::label`] — which both runtimes
/// call on every access — is an indexed load. The mutators are
/// copy-on-write: [`Labeling::override_label`] and
/// [`Labeling::retain_idempotent`] give the labeling they are called on a
/// private copy of its table first, so tampering a clone never reaches
/// the labeling it was cloned from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    /// Region name.
    pub region_name: String,
    /// Lemma 7 applied (every reference idempotent).
    pub fully_independent: bool,
    table: Arc<SiteTable>,
}

/// One labeled site: its label and its access direction (`None` for a
/// site that only [`Labeling::override_label`] named).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SiteLabel {
    label: Label,
    access: Option<AccessKind>,
}

/// Algorithm 2's per-site table: `sites[k]` describes `RefId(base + k)`,
/// `None` where no site is. The span runs from the lowest labeled id to
/// the highest, so two tables that label the same sites alike are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SiteTable {
    base: u32,
    sites: Vec<Option<SiteLabel>>,
}

impl SiteTable {
    /// Every one of `sites` labeled `label`.
    fn new(sites: &[SiteDesc], label: Label) -> Self {
        let ids = sites.iter().map(|s| s.id.0);
        let (base, span) = match (ids.clone().min(), ids.max()) {
            (Some(lo), Some(hi)) => (lo, (hi - lo) as usize + 1),
            _ => (0, 0),
        };
        let mut table = SiteTable {
            base,
            sites: vec![None; span],
        };
        for s in sites {
            table.sites[(s.id.0 - base) as usize] = Some(SiteLabel {
                label,
                access: Some(s.access),
            });
        }
        table
    }

    /// The entry of `r`, when `r` is labeled.
    #[inline]
    fn get(&self, r: RefId) -> Option<&SiteLabel> {
        let k = r.0.checked_sub(self.base)?;
        self.sites.get(k as usize)?.as_ref()
    }

    /// Labels `r`, widening the span when `r` lies outside it.
    fn set(&mut self, r: RefId, label: Label) {
        if self.sites.is_empty() {
            self.base = r.0;
        } else if r.0 < self.base {
            let holes = (self.base - r.0) as usize;
            self.sites.splice(0..0, std::iter::repeat(None).take(holes));
            self.base = r.0;
        }
        let k = (r.0 - self.base) as usize;
        if k >= self.sites.len() {
            self.sites.resize(k + 1, None);
        }
        let access = self.sites[k].and_then(|s| s.access);
        self.sites[k] = Some(SiteLabel { label, access });
    }

    /// True when `r` is a site already labeled idempotent.
    fn is_idempotent(&self, r: RefId) -> bool {
        self.get(r).is_some_and(|s| s.label.is_idempotent())
    }

    /// True when every reference in `sources` is a site already labeled
    /// idempotent.
    fn all_idempotent(&self, sources: &[RefId]) -> bool {
        sources.iter().all(|&r| self.is_idempotent(r))
    }
}

impl Labeling {
    /// The label of a site (`Speculative` for unknown sites — the
    /// conservative answer).
    #[inline]
    pub fn label(&self, r: RefId) -> Label {
        self.table.get(r).map_or(Label::Speculative, |s| s.label)
    }

    /// True when the site is labeled idempotent.
    pub fn is_idempotent(&self, r: RefId) -> bool {
        self.label(r).is_idempotent()
    }

    /// Iterates over `(site, label)` pairs in ascending site order.
    pub fn iter(&self) -> impl Iterator<Item = (RefId, Label)> + '_ {
        let base = self.table.base;
        self.table
            .sites
            .iter()
            .enumerate()
            .filter_map(move |(k, s)| Some((RefId(base + k as u32), s.as_ref()?.label)))
    }

    /// Number of labeled sites.
    pub fn len(&self) -> usize {
        self.table.sites.iter().flatten().count()
    }

    /// True when no site was labeled.
    pub fn is_empty(&self) -> bool {
        // The span ends at labeled sites, so a nonempty span labels some.
        self.table.sites.is_empty()
    }

    /// The access direction of a labeled site.
    pub fn access(&self, r: RefId) -> Option<AccessKind> {
        self.table.get(r)?.access
    }

    /// Demotes every idempotent label whose site is not in `keep` to
    /// speculative. Demoting a correctly-labeled idempotent reference is
    /// always safe (the reference merely loses the speculative-storage
    /// bypass); this is used by the label-category ablation study.
    /// Copy-on-write: labelings cloned from this one keep their labels.
    pub fn retain_idempotent(&mut self, keep: &std::collections::BTreeSet<RefId>) {
        self.fully_independent = false;
        let table = Arc::make_mut(&mut self.table);
        let base = table.base;
        for (k, site) in table.sites.iter_mut().enumerate() {
            if let Some(site) = site {
                if site.label.is_idempotent() && !keep.contains(&RefId(base + k as u32)) {
                    site.label = Label::Speculative;
                }
            }
        }
    }

    /// Forcibly overrides one site's label, clearing the fully-independent
    /// fast path. Unlike [`Labeling::retain_idempotent`], promoting a
    /// speculative reference to idempotent is **unsound** — this hook exists
    /// for fault-injection testing (`refidem-testkit` corrupts labelings to
    /// prove its differential runner and shrinker detect bad labels). A
    /// site the labeling did not cover becomes labeled, with no access
    /// direction; the table widens to reach it.
    ///
    /// Copy-on-write: when the table is shared (this labeling is a clone,
    /// say of an analysis-cache hit), this labeling first takes a private
    /// copy, so the override never reaches the labeling it was cloned from
    /// or the cached entry.
    pub fn override_label(&mut self, r: RefId, label: Label) {
        self.fully_independent = false;
        Arc::make_mut(&mut self.table).set(r, label);
    }

    /// True when `self` and `other` share one label table (an analysis
    /// cache hit shares the cached entry's).
    #[cfg(test)]
    pub(crate) fn shares_table_with(&self, other: &Labeling) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Static labeling statistics (per syntactic reference site).
    pub fn stats(&self) -> LabelStats {
        let mut stats = LabelStats::default();
        for (_, label) in self.iter() {
            stats.total_static += 1;
            match label {
                Label::Speculative => stats.speculative_static += 1,
                Label::Idempotent(cat) => {
                    stats.idempotent_static += 1;
                    *stats.by_category.entry(cat).or_insert(0) += 1;
                }
            }
        }
        stats
    }

    /// Dynamic labeling statistics, weighting every site by its dynamic
    /// access count (reads + writes) from an interpreted execution.
    pub fn dynamic_stats(&self, counts: &DynCounts) -> DynLabelStats {
        let mut stats = DynLabelStats::default();
        for (site, (reads, writes)) in counts {
            let Some(&SiteLabel { label, .. }) = self.table.get(site) else {
                continue;
            };
            let n = reads + writes;
            stats.total += n;
            match label {
                Label::Speculative => stats.speculative += n,
                Label::Idempotent(cat) => {
                    stats.idempotent += n;
                    *stats.by_category.entry(cat).or_insert(0) += n;
                }
            }
        }
        stats
    }
}

/// Algorithm 2: labels every reference of a region.
pub fn label_refs(input: &LabelInput) -> Labeling {
    if input.fully_independent {
        // Step 2: a fully independent region needs no speculative storage at
        // all (Lemma 7).
        let table = SiteTable::new(
            &input.sites,
            Label::Idempotent(IdemCategory::FullyIndependent),
        );
        return Labeling {
            region_name: input.region_name.clone(),
            fully_independent: true,
            table: Arc::new(table),
        };
    }

    // Step 3 (dependent region). Initially, all references are labeled
    // speculative.
    let mut labels = SiteTable::new(&input.sites, Label::Speculative);
    // Read-only and private references.
    for s in &input.sites {
        if input.read_only.contains(&s.var) {
            labels.set(s.id, Label::Idempotent(IdemCategory::ReadOnly));
        } else if input.private.contains(&s.var) {
            labels.set(s.id, Label::Idempotent(IdemCategory::Private));
        }
    }
    // Both rules below read the dependence facts, never the list:
    // `intra_sources` holds the sources of every intra-segment dependence
    // into a site except anti ones.
    let deps = &input.deps;
    // RFW writes that are not sinks of cross-segment dependences
    // (Theorem 1). One refinement the bounded-storage execution model
    // forces: a speculative write is buffered and only reaches
    // non-speculative storage at segment commit, while an idempotent write
    // goes through immediately — so if an *earlier* write in the same
    // segment may alias this one and stays speculative, labeling this one
    // idempotent would invert their program order at commit. Mirroring
    // Theorem 2's condition for reads, every intra-segment output source
    // (a write's intra sources) must itself be idempotent; its anti
    // sources never matter. (Sites are visited in program order and
    // intra-segment sources precede their sinks, so the source's final
    // label is already decided.)
    for s in &input.sites {
        if s.access != AccessKind::Write || labels.is_idempotent(s.id) {
            continue;
        }
        if input.rfw.contains(&s.id)
            && !deps.is_sink_of_cross_segment(s.id)
            && labels.all_idempotent(deps.intra_sources(s.id))
        {
            labels.set(s.id, Label::Idempotent(IdemCategory::SharedDependent));
        }
    }
    // Reads (Theorem 2): idempotent when the read is the sink of no
    // dependence, or of intra-segment dependences only whose sources are
    // all idempotent. Every dependence into a read is a flow dependence,
    // so its intra sources are all of them. Writes were labeled above, so
    // covered reads can look their sources up.
    for s in &input.sites {
        if s.access != AccessKind::Read || labels.is_idempotent(s.id) {
            continue;
        }
        if !deps.is_sink_of_cross_segment(s.id) && labels.all_idempotent(deps.intra_sources(s.id)) {
            labels.set(s.id, Label::Idempotent(IdemCategory::SharedDependent));
        }
    }

    Labeling {
        region_name: input.region_name.clone(),
        fully_independent: false,
        table: Arc::new(labels),
    }
}

/// Builds the labeling input from a loop-region analysis and runs
/// Algorithm 2.
pub fn label_region(analysis: &RegionAnalysis) -> Labeling {
    let sites: Vec<SiteDesc> = analysis
        .table
        .sites()
        .iter()
        .map(|s| SiteDesc {
            id: s.id,
            var: s.var,
            access: s.access,
        })
        .collect();
    let read_only: BTreeSet<VarId> = analysis
        .classes
        .iter()
        .filter(|(_, c)| *c == VarClass::ReadOnly)
        .map(|(v, _)| v)
        .collect();
    let private: BTreeSet<VarId> = analysis
        .classes
        .iter()
        .filter(|(_, c)| *c == VarClass::Private)
        .map(|(v, _)| v)
        .collect();
    let rfw = rfw_for_loop_region(analysis);
    let input = LabelInput {
        region_name: analysis.spec.loop_label.clone(),
        sites,
        deps: analysis.deps.clone(),
        read_only,
        private,
        rfw,
        fully_independent: analysis.fully_independent,
    };
    label_refs(&input)
}

/// Labels an abstract (segment-graph) region: computes its dependences,
/// classifications and RFW set, then runs Algorithm 2.
pub fn label_abstract_region(region: &AbstractRegion) -> Labeling {
    let sites: Vec<SiteDesc> = region
        .all_refs()
        .map(|(_, r)| SiteDesc {
            id: r.id,
            var: r.var,
            access: r.access,
        })
        .collect();
    let input = LabelInput {
        region_name: region.name.clone(),
        sites,
        deps: DependenceSet::from_deps(&region.compute_deps()),
        read_only: region.read_only_vars(),
        private: region.private_vars(),
        rfw: rfw_for_abstract(region),
        fully_independent: region.fully_independent(),
    };
    label_refs(&input)
}

/// A region together with its analysis and labeling — the unit the
/// simulator and the evaluation harness operate on.
#[derive(Clone, Debug)]
pub struct LabeledRegion {
    /// The prerequisite analysis.
    pub analysis: RegionAnalysis,
    /// The idempotency labels.
    pub labeling: Labeling,
}

impl LabeledRegion {
    /// Static labeling statistics.
    pub fn stats(&self) -> LabelStats {
        self.labeling.stats()
    }

    /// Address ranges `[lo, hi)` under `layout` of the variables the region
    /// classifies private. They live in per-segment storage under CASE and
    /// are dead at region exit, so final-memory comparisons against a
    /// sequential run exclude them (Lemma 2).
    pub fn private_ranges<'a>(
        &'a self,
        vars: &'a VarTable,
        layout: &'a Layout,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.analysis
            .classes
            .iter()
            .filter(|&(_, class)| class == VarClass::Private)
            .map(move |(v, _)| {
                let base = layout.base(v).0;
                (base, base + vars.kind(v).size() as u64)
            })
    }
}

/// Analyzes and labels the region designated by `spec`.
pub fn label_program_region(
    program: &Program,
    spec: &RegionSpec,
) -> Result<LabeledRegion, AnalysisError> {
    let analysis = RegionAnalysis::analyze(program, spec)?;
    let labeling = label_region(&analysis);
    Ok(LabeledRegion { analysis, labeling })
}

/// Analyzes and labels the region whose loop label is `label`.
pub fn label_program_region_by_name(
    program: &Program,
    label: &str,
) -> Result<LabeledRegion, AnalysisError> {
    let analysis = RegionAnalysis::analyze_labeled(program, label)?;
    let labeling = label_region(&analysis);
    Ok(LabeledRegion { analysis, labeling })
}

/// A whole procedure's region schedule with every region analyzed and
/// labeled — the unit `simulate_program` consumes. Produced by
/// [`label_program`] (the second stage of the program pipeline: discover →
/// **label** → schedule → simulate).
#[derive(Clone, Debug)]
pub struct LabeledProgram {
    /// The procedure the schedule partitions.
    pub proc: refidem_ir::ids::ProcId,
    /// The discovered schedule (regions + serial spans).
    pub schedule: RegionSchedule,
    /// One labeled bundle per scheduled region, in schedule order.
    pub regions: Vec<LabeledRegion>,
}

impl LabeledProgram {
    /// Number of scheduled regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the procedure is serial-only (no speculation candidates).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// Discovers every speculation-candidate region of `proc`, analyzes and
/// labels each with Algorithm 2, and bundles them with the schedule.
///
/// Every discovered region is a top-level labeled loop (see
/// [`discover_regions`]), so the per-region analysis cannot fail with
/// [`AnalysisError::RegionNotTopLevel`]; an error here means the program
/// was mutated between discovery and labeling.
pub fn label_program(
    program: &Program,
    proc: refidem_ir::ids::ProcId,
) -> Result<LabeledProgram, AnalysisError> {
    label_program_with(program, proc, |spec| label_program_region(program, spec))
}

/// The discover-and-check loop behind [`label_program`] and its cached
/// counterpart: discovers `proc`'s regions, rejects duplicate labels, and
/// labels each region, in schedule order, with `label_one`.
pub(crate) fn label_program_with(
    program: &Program,
    proc: refidem_ir::ids::ProcId,
    mut label_one: impl FnMut(&RegionSpec) -> Result<LabeledRegion, AnalysisError>,
) -> Result<LabeledProgram, AnalysisError> {
    let schedule = discover_regions(program, proc);
    // A `RegionSpec` identifies a region by label and resolves
    // first-match, so duplicate labels would silently run the second loop
    // under the first loop's analysis — reject them up front.
    let mut seen = std::collections::BTreeSet::new();
    for r in &schedule.regions {
        if !seen.insert(r.spec.loop_label.as_str()) {
            return Err(AnalysisError::DuplicateRegionLabel(
                r.spec.loop_label.clone(),
            ));
        }
    }
    let regions = schedule
        .regions
        .iter()
        .map(|r| label_one(&r.spec))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LabeledProgram {
        proc,
        schedule,
        regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SegmentId;
    use refidem_ir::build::{ac, add, av, mul, num, ProcBuilder};

    /// The two-segment introductory example of Figure 1.
    fn figure1_region() -> AbstractRegion {
        let mut r = AbstractRegion::new("figure1");
        let s1 = r.segment("Segment1");
        let s2 = r.segment("Segment2");
        r.edge(s1, s2);
        r.live_out(&["A"]);
        r.read(s1, "B");
        r.write(s1, "A");
        r.read(s1, "B");
        r.write(s2, "C");
        r.read(s2, "A");
        r.read(s2, "B");
        r.read(s2, "C");
        r
    }

    #[test]
    fn figure1_labels_match_the_paper() {
        let r = figure1_region();
        let labeling = label_abstract_region(&r);
        let s1 = SegmentId(0);
        let s2 = SegmentId(1);
        // All references to B are idempotent (read-only).
        for (_, ar) in r
            .all_refs()
            .filter(|(_, ar)| ar.var == r.var_id("B").unwrap())
        {
            assert_eq!(
                labeling.label(ar.id),
                Label::Idempotent(IdemCategory::ReadOnly)
            );
        }
        // The first write to A in segment 1 is idempotent (RFW, no previous
        // program-order references to A in the segment).
        let a_write = r.find_ref(s1, "A", AccessKind::Write).unwrap();
        assert_eq!(
            labeling.label(a_write),
            Label::Idempotent(IdemCategory::SharedDependent)
        );
        // The read of A in segment 2 is the sink of the cross-segment flow
        // dependence: it stays speculative.
        let a_read = r.find_ref(s2, "A", AccessKind::Read).unwrap();
        assert_eq!(labeling.label(a_read), Label::Speculative);
        // C is private to segment 2: all its references are idempotent.
        let c_write = r.find_ref(s2, "C", AccessKind::Write).unwrap();
        let c_read = r.find_ref(s2, "C", AccessKind::Read).unwrap();
        assert_eq!(
            labeling.label(c_write),
            Label::Idempotent(IdemCategory::Private)
        );
        assert_eq!(
            labeling.label(c_read),
            Label::Idempotent(IdemCategory::Private)
        );
        // Statistics: 7 references, 6 idempotent.
        let stats = labeling.stats();
        assert_eq!(stats.total_static, 7);
        assert_eq!(stats.idempotent_static, 6);
        assert_eq!(stats.speculative_static, 1);
    }

    #[test]
    fn fully_independent_regions_label_everything_idempotent() {
        let mut r = AbstractRegion::new("indep");
        let s0 = r.segment("S0");
        let s1 = r.segment("S1");
        r.edge(s0, s1);
        r.read(s0, "ro");
        r.write(s0, "a");
        r.read(s1, "ro");
        r.write(s1, "b");
        let labeling = label_abstract_region(&r);
        assert!(labeling.fully_independent);
        assert!(labeling
            .iter()
            .all(|(_, l)| l == Label::Idempotent(IdemCategory::FullyIndependent)));
        assert_eq!(labeling.stats().idempotent_fraction(), 1.0);
    }

    #[test]
    fn covered_reads_of_speculative_writes_stay_speculative() {
        // Segment 0 reads T (making T's later writers cross-segment sinks is
        // not the point here); segment 1 writes T then reads it. The write
        // in segment 1 is the sink of an anti dependence from segment 0, so
        // it is speculative — and therefore the covered read in segment 1
        // must stay speculative too (Theorem 2's converse, LC3).
        let mut r = AbstractRegion::new("covered-speculative");
        let s0 = r.segment("S0");
        let s1 = r.segment("S1");
        r.edge(s0, s1);
        r.live_out(&["T", "Q"]);
        r.read(s0, "T");
        let t_write = r.write(s1, "T");
        let t_read = r.read(s1, "T");
        let q_write = r.write(s1, "Q");
        let labeling = label_abstract_region(&r);
        assert_eq!(labeling.label(t_write), Label::Speculative);
        assert_eq!(labeling.label(t_read), Label::Speculative);
        // Q is written only: RFW and no cross-segment dependence -> idempotent.
        assert_eq!(
            labeling.label(q_write),
            Label::Idempotent(IdemCategory::SharedDependent)
        );
    }

    #[test]
    fn loop_region_labeling_example() {
        // do k = 2, 16:  a(k) = a(k-1) * c + b(k)
        // b, c are read-only (idempotent); a(k-1) is a cross-segment flow
        // sink (speculative); a(k) is a cross-segment source but also the
        // sink of the anti dependence a(k-1) -> a(k)? No: the read of
        // a(k-1) at iteration k refers to the element written in iteration
        // k-1, so the anti direction (read in an older segment, write in a
        // younger one at the same address) is infeasible. a(k)'s write IS
        // however the sink of a cross-segment output dependence? Also
        // infeasible (distinct elements). So the write is RFW — but it has
        // an exposed read of `a` (a(k-1)) in the body, which poisons RFW
        // (conservative variable-granularity rule) — it stays speculative.
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[32]);
        let bb = b.array("b", &[32]);
        let c = b.scalar("c");
        let k = b.index("k");
        b.live_out(&[a]);
        let rhs = add(
            mul(b.load_elem(a, vec![av(k) - ac(1)]), b.load(c)),
            b.load_elem(bb, vec![av(k)]),
        );
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let region = b.do_loop_labeled("R", k, ac(2), ac(16), vec![s]);
        let mut program = refidem_ir::program::Program::new("toy");
        program.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&program, "R").unwrap();
        let stats = labeled.stats();
        assert_eq!(stats.total_static, 4);
        // b(k) and c reads are read-only idempotent.
        assert_eq!(stats.by_category.get(&IdemCategory::ReadOnly), Some(&2));
        assert_eq!(stats.idempotent_static, 2);
        assert_eq!(stats.speculative_static, 2);
        assert!(!labeled.labeling.fully_independent);
    }

    #[test]
    fn rfw_write_after_speculative_aliasing_write_stays_speculative() {
        // Found by refidem-testkit's differential runner (seed 230) and
        // minimized by its shrinker:
        //   do k = 0, 1:  a(k+1) = 1.5 ; a(2k+1) = 0.5
        // Both writes hit a(1) at k = 0. The first write is speculative (a
        // cross-segment output sink), so the second — although RFW and not
        // a cross-segment sink — must not be idempotent: its write-through
        // would be overwritten by the first write's buffered value at
        // segment commit, inverting intra-segment program order.
        let mut b = ProcBuilder::new("repro");
        let a = b.array("a", &[3]);
        let k = b.index("k");
        b.live_out(&[a]);
        let st0 = b.assign_elem(a, vec![av(k) + ac(1)], num(1.5));
        let w0 = match &st0 {
            refidem_ir::stmt::Stmt::Assign(asg) => asg.lhs.id,
            _ => unreachable!(),
        };
        let st1 = b.assign_elem(
            a,
            vec![refidem_ir::affine::AffineExpr::scaled_var(k, 2) + ac(1)],
            num(0.5),
        );
        let w1 = match &st1 {
            refidem_ir::stmt::Stmt::Assign(asg) => asg.lhs.id,
            _ => unreachable!(),
        };
        let region = b.do_loop_labeled("R", k, ac(0), ac(1), vec![st0, st1]);
        let mut program = refidem_ir::program::Program::new("repro");
        program.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&program, "R").unwrap();
        assert_eq!(labeled.labeling.label(w0), Label::Speculative);
        assert_eq!(
            labeled.labeling.label(w1),
            Label::Speculative,
            "an RFW write after a speculative may-aliasing write must stay speculative"
        );
    }

    #[test]
    fn duplicate_region_labels_are_rejected_by_whole_program_labeling() {
        // A RegionSpec resolves by label, first match: two top-level
        // loops sharing a label would run the second loop under the
        // first loop's analysis. label_program refuses instead.
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        b.live_out(&[a]);
        let s1 = b.assign_elem(a, vec![av(k)], num(1.0));
        let l1 = b.do_loop_labeled("DUP", k, ac(1), ac(8), vec![s1]);
        let s2 = b.assign_elem(a, vec![av(k)], num(2.0));
        let l2 = b.do_loop_labeled("DUP", k, ac(1), ac(8), vec![s2]);
        let mut p = refidem_ir::program::Program::new("dup");
        p.add_procedure(b.build(vec![l1, l2]));
        let err = label_program(&p, refidem_ir::ids::ProcId::from_index(0)).unwrap_err();
        assert!(matches!(
            err,
            refidem_analysis::region::AnalysisError::DuplicateRegionLabel(l) if l == "DUP"
        ));
    }

    #[test]
    fn dynamic_stats_weight_sites_by_execution_counts() {
        let mut r = AbstractRegion::new("dyn");
        let s0 = r.segment("S0");
        let ro = r.read(s0, "RO");
        let sw = r.write(s0, "SH");
        let sr = r.read(s0, "SH");
        let _ = sr;
        let labeling = label_abstract_region(&r);
        let mut counts = DynCounts::new();
        counts.insert(ro, (100, 0));
        counts.insert(sw, (0, 10));
        counts.insert(RefId(999), (5, 5)); // unknown site: ignored
        let dyn_stats = labeling.dynamic_stats(&counts);
        assert_eq!(dyn_stats.total, 110);
        assert!(dyn_stats.idempotent >= 100);
        assert!(dyn_stats.fraction_idempotent() > 0.9);
    }

    /// An override outside the labeled span, below it, inside a hole or
    /// above it, labels the site as a map insert would: the site joins
    /// `iter` in id order and `len`, with no access direction, and the
    /// labeling it was cloned from keeps its table.
    #[test]
    fn overrides_outside_the_span_label_the_site() {
        let label = |ids: &[u32]| {
            label_refs(&LabelInput {
                region_name: "span".to_string(),
                sites: ids
                    .iter()
                    .map(|&id| SiteDesc {
                        id: RefId(id),
                        var: VarId::from_index(0),
                        access: AccessKind::Read,
                    })
                    .collect(),
                deps: DependenceSet::default(),
                read_only: BTreeSet::new(),
                private: BTreeSet::new(),
                rfw: BTreeSet::new(),
                fully_independent: false,
            })
        };
        let original = label(&[10, 12]);
        let shared = Label::Idempotent(IdemCategory::SharedDependent);
        let forced = Label::Idempotent(IdemCategory::Private);
        let mut labeling = original.clone();
        for id in [11, 3, 40] {
            labeling.override_label(RefId(id), forced);
        }
        let ids: Vec<u32> = labeling.iter().map(|(r, _)| r.0).collect();
        assert_eq!(ids, [3, 10, 11, 12, 40]);
        assert_eq!(labeling.len(), 5);
        assert_eq!(labeling.label(RefId(3)), forced);
        assert_eq!(labeling.label(RefId(10)), shared);
        assert_eq!(labeling.label(RefId(4)), Label::Speculative);
        assert_eq!(labeling.access(RefId(40)), None);
        assert_eq!(labeling.access(RefId(12)), Some(AccessKind::Read));
        assert_eq!(original.len(), 2);
        assert_eq!(original.label(RefId(11)), Label::Speculative);
        // Equal answers, equal labelings, whatever order built them.
        let mut again = original.clone();
        for id in [40, 11, 3] {
            again.override_label(RefId(id), forced);
        }
        assert_eq!(again, labeling);
        let mut empty = label(&[]);
        assert!(empty.is_empty());
        empty.override_label(RefId(7), forced);
        assert_eq!(empty.iter().collect::<Vec<_>>(), [(RefId(7), forced)]);
    }

    #[test]
    fn labels_default_to_speculative_for_unknown_sites() {
        let r = figure1_region();
        let labeling = label_abstract_region(&r);
        assert_eq!(labeling.label(RefId(12345)), Label::Speculative);
        assert!(!labeling.is_empty());
        assert_eq!(labeling.len(), 7);
        assert_eq!(labeling.access(RefId(0)), Some(AccessKind::Read));
        assert_eq!(
            labeling.label(RefId(0)).category(),
            Some(IdemCategory::ReadOnly)
        );
        let _ = num(0.0);
    }
}
