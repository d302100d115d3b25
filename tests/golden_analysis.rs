//! Golden digest of every region analysis: each corpus program, each
//! benchmark-suite program and a sample of giant blocks, discovered and
//! labeled whole, plus the paper's Figure 1–3 abstract regions. Every
//! region's reference sites, its dependences in emission order (source,
//! sink, kind, scope, distance), the dependence count, the labels, the
//! variable classes and both region flags are folded into one FNV-1a
//! line, so a change to the dependence analysis or to labeling that moves
//! any of them — even only the order of the dependence list — fails here.
//!
//! To regenerate after an intentional change to the analysis, run
//! `cargo test --release --test golden_analysis -- --include-ignored`
//! and paste each failure's `left` line over its constant below.

use refidem::analysis::region::RegionAnalysis;
use refidem::core::label::{label_abstract_region, label_program, Labeling};
use refidem::core::model::AbstractRegion;
use refidem::ir::ids::ProcId;
use refidem::ir::program::Program;
use refidem_benchmarks::examples;
use refidem_testkit::{generate, giant_block, Rng};

/// 64-bit FNV-1a, written out because `DefaultHasher`'s output may change
/// between Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Regions analyzed, and the digest of everything their analyses hold.
struct AnalysisDigest {
    regions: usize,
    fnv: Fnv1a,
}

impl AnalysisDigest {
    fn new() -> Self {
        AnalysisDigest {
            regions: 0,
            fnv: Fnv1a(0xcbf2_9ce4_8422_2325),
        }
    }

    fn text(&mut self, s: &str) {
        self.fnv.write(s.as_bytes());
        self.fnv.write(&[0]);
    }

    fn labels(&mut self, labeling: &Labeling) {
        self.text(&format!("fully_independent={}", labeling.fully_independent));
        for (r, label) in labeling.iter() {
            self.text(&format!("{r:?} {label:?}"));
        }
    }

    fn analysis(&mut self, analysis: &RegionAnalysis) {
        self.regions += 1;
        self.text(&analysis.spec.loop_label);
        for site in analysis.table.sites() {
            self.text(&format!("{site:?}"));
        }
        for d in analysis.deps.deps() {
            self.text(&format!(
                "{} {} {:?} {:?} {:?}",
                d.source.0, d.sink.0, d.kind, d.scope, d.distance
            ));
        }
        self.text(&format!("len={}", analysis.deps.len()));
        for (v, class) in analysis.classes.iter() {
            self.text(&format!("{v:?} {class:?}"));
        }
        self.text(&format!(
            "fully_independent={} compiler_parallelizable={}",
            analysis.fully_independent, analysis.compiler_parallelizable
        ));
    }

    /// Discovers and labels every procedure of `program`, folding each
    /// region's analysis and labeling (or the labeling error) in.
    fn add_program(&mut self, program: &Program) {
        for p in 0..program.procedures.len() {
            match label_program(program, ProcId::from_index(p)) {
                Ok(labeled) => {
                    for region in &labeled.regions {
                        self.analysis(&region.analysis);
                        self.labels(&region.labeling);
                    }
                }
                Err(e) => self.text(&format!("label error: {e:?}")),
            }
        }
    }

    /// Folds an abstract region in: its references in segment order, its
    /// dependences, its classes and its labeling.
    fn add_abstract(&mut self, region: &AbstractRegion) {
        self.regions += 1;
        self.text(&region.name);
        for (seg, r) in region.all_refs() {
            self.text(&format!("{} {r:?}", seg.index()));
        }
        let deps = region.compute_deps();
        for d in deps.deps() {
            self.text(&format!(
                "{} {} {:?} {:?} {:?}",
                d.source.0, d.sink.0, d.kind, d.scope, d.distance
            ));
        }
        self.text(&format!("len={}", deps.len()));
        self.text(&format!(
            "read_only={:?} private={:?} fully_independent={}",
            region.read_only_vars(),
            region.private_vars(),
            region.fully_independent()
        ));
        self.labels(&label_abstract_region(region));
    }

    fn line(&self) -> String {
        format!("regions={} fnv1a={:016x}", self.regions, self.fnv.0)
    }
}

/// Giant blocks in the digest, and the statements of each.
const GIANT_BLOCKS: usize = 32;
const GIANT_STMTS: usize = 128;

/// Corpus seeds `0..1024`, the benchmark suite, the first `giants` giant
/// blocks drawn from `Rng::new(1)` and the Figure 1–3 abstract regions.
fn render_digest(giants: usize) -> AnalysisDigest {
    let mut d = AnalysisDigest::new();
    for seed in 0..1024 {
        d.add_program(&generate(seed).program);
    }
    for bench in refidem_benchmarks::all_benchmarks() {
        d.add_program(&bench.program);
    }
    let mut rng = Rng::new(1);
    for _ in 0..giants {
        let (program, _) = giant_block(rng.next_u64(), GIANT_STMTS);
        d.add_program(&program);
    }
    for region in [
        examples::figure1(),
        examples::figure2(),
        examples::figure3(),
    ] {
        d.add_abstract(&region);
    }
    d
}

/// The widened set: [`render_digest`] with 64 more giant blocks, plus the
/// 3072-seed out-of-corpus sample the differential suite draws from
/// `Rng::new(42)`.
fn render_wide_digest() -> String {
    let mut line = render_digest(GIANT_BLOCKS + 64).line();
    let mut d = AnalysisDigest::new();
    let mut rng = Rng::new(42);
    for _ in 0..3072 {
        d.add_program(&generate(rng.next_u64()).program);
    }
    line.push_str(" sample ");
    line.push_str(&d.line());
    line
}

const GOLDEN_ANALYSIS_DIGEST: &str = "regions=1579 fnv1a=b88d37813be4bd4d";

const GOLDEN_WIDE_ANALYSIS_DIGEST: &str =
    "regions=1643 fnv1a=144c2b31ceb8520a sample regions=4729 fnv1a=ae66106298a62281";

#[test]
fn region_analyses_match_golden() {
    assert_eq!(render_digest(GIANT_BLOCKS).line(), GOLDEN_ANALYSIS_DIGEST);
}

#[test]
#[ignore = "release-mode widening; run with --ignored"]
fn widened_region_analyses_match_golden() {
    assert_eq!(render_wide_digest(), GOLDEN_WIDE_ANALYSIS_DIGEST);
}
