//! Cross-crate invariants of the labeling (Theorems 1 and 2, Lemma 3) checked
//! over every region of every benchmark program.

use refidem::analysis::{DepScope, VarClass};
use refidem::core::label::{label_program_region, IdemCategory, Label};
use refidem::core::rfw::rfw_for_loop_region;
use refidem::ir::expr::Subscript;
use refidem::ir::sites::{AccessKind, RefSite};
use refidem_benchmarks::all_benchmarks;

fn is_indirect(site: &RefSite) -> bool {
    site.reference
        .subs
        .iter()
        .any(|s| matches!(s, Subscript::Indirect(_)))
}

#[test]
fn idempotent_references_are_never_cross_segment_sinks() {
    // Lemma 3: the sink of a cross-segment dependence must be speculative.
    for bench in all_benchmarks() {
        for region in bench.regions() {
            let labeled = label_program_region(&bench.program, &region).expect("analyzes");
            if labeled.labeling.fully_independent {
                continue;
            }
            for site in labeled.analysis.table.sites() {
                if labeled.labeling.is_idempotent(site.id)
                    && labeled.labeling.label(site.id).category() != Some(IdemCategory::Private)
                {
                    assert!(
                        !labeled.analysis.deps.is_sink_of_cross_segment(site.id),
                        "{} {}: idempotent reference {} is a cross-segment sink",
                        bench.name,
                        region.loop_label,
                        site.id
                    );
                }
            }
        }
    }
}

#[test]
fn idempotent_writes_are_rfw_and_reads_have_idempotent_intra_sources() {
    // Theorems 1 and 2 (the "only if" directions, excluding the read-only /
    // private / fully-independent special cases).
    for bench in all_benchmarks() {
        for region in bench.regions() {
            let labeled = label_program_region(&bench.program, &region).expect("analyzes");
            if labeled.labeling.fully_independent {
                continue;
            }
            let rfw = rfw_for_loop_region(&labeled.analysis);
            let deps = labeled.analysis.dependence_list(&bench.program);
            for site in labeled.analysis.table.sites() {
                let label = labeled.labeling.label(site.id);
                let Label::Idempotent(IdemCategory::SharedDependent) = label else {
                    continue;
                };
                match site.access {
                    AccessKind::Write => {
                        assert!(
                            rfw.contains(&site.id),
                            "{} {}: shared-dependent write {} is not a RFW",
                            bench.name,
                            region.loop_label,
                            site.id
                        );
                    }
                    AccessKind::Read => {
                        for dep in deps.iter().filter(|d| d.sink == site.id) {
                            assert_eq!(dep.scope, DepScope::IntraSegment);
                            assert!(
                                labeled.labeling.is_idempotent(dep.source),
                                "{} {}: covered read {} has a speculative source {}",
                                bench.name,
                                region.loop_label,
                                site.id,
                                dep.source
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn category_labels_agree_with_the_variable_classification() {
    for bench in all_benchmarks() {
        for region in bench.regions() {
            let labeled = label_program_region(&bench.program, &region).expect("analyzes");
            if labeled.labeling.fully_independent {
                // Lemma 7: everything idempotent.
                assert!(labeled
                    .labeling
                    .iter()
                    .all(|(_, l)| l == Label::Idempotent(IdemCategory::FullyIndependent)));
                continue;
            }
            for site in labeled.analysis.table.sites() {
                match labeled.labeling.label(site.id).category() {
                    Some(IdemCategory::ReadOnly) => {
                        assert_eq!(
                            labeled.analysis.classes.class(site.var),
                            VarClass::ReadOnly,
                            "{} {}",
                            bench.name,
                            region.loop_label
                        );
                    }
                    Some(IdemCategory::Private) => {
                        assert_eq!(
                            labeled.analysis.classes.class(site.var),
                            VarClass::Private,
                            "{} {}",
                            bench.name,
                            region.loop_label
                        );
                    }
                    _ => {}
                }
            }
            // Every reference to a read-only variable is labeled idempotent.
            for site in labeled.analysis.table.sites() {
                if labeled.analysis.classes.class(site.var) == VarClass::ReadOnly {
                    assert!(labeled.labeling.is_idempotent(site.id));
                }
            }
        }
    }
}

#[test]
fn indirect_references_are_never_provably_independent() {
    // Irregular address resolution: a reference whose address goes through
    // an indirection array can never be *proved* independent, so its region
    // must never be fully independent or compiler-parallelizable, and the
    // reference itself may only be idempotent through the syntactic escape
    // hatches — read-only variables (any read of a never-written variable
    // is idempotent regardless of its address). Indirect writes must stay
    // speculative: they are address-imprecise, so they can be neither RFW
    // nor privatizable.
    let mut indirect_seen = 0usize;
    for bench in all_benchmarks() {
        for region in bench.regions() {
            let labeled = label_program_region(&bench.program, &region).expect("analyzes");
            let has_indirect = labeled.analysis.table.sites().iter().any(is_indirect);
            if !has_indirect {
                continue;
            }
            assert!(
                !labeled.analysis.fully_independent,
                "{} {}: indirect references but provably independent",
                bench.name, region.loop_label
            );
            assert!(
                !labeled.analysis.compiler_parallelizable,
                "{} {}: indirect references but compiler-parallelizable",
                bench.name, region.loop_label
            );
            for site in labeled.analysis.table.sites() {
                if !is_indirect(site) {
                    continue;
                }
                indirect_seen += 1;
                match site.access {
                    AccessKind::Write => {
                        assert_eq!(
                            labeled.labeling.label(site.id),
                            Label::Speculative,
                            "{} {}: indirect write {} must be speculative",
                            bench.name,
                            region.loop_label,
                            site.id
                        );
                    }
                    AccessKind::Read => {
                        if labeled.labeling.is_idempotent(site.id) {
                            assert_eq!(
                                labeled.analysis.classes.class(site.var),
                                VarClass::ReadOnly,
                                "{} {}: idempotent indirect read {} outside \
                                 the read-only escape",
                                bench.name,
                                region.loop_label,
                                site.id
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        indirect_seen > 0,
        "the suite must exercise indirect references"
    );
}

#[test]
fn generated_irregular_corpus_obeys_the_indirect_invariant() {
    // The same property over the testkit generator's corpus: seeds with
    // indirection arrays or WHILE regions must never label an indirect
    // write idempotent, and an idempotent indirect read needs the
    // read-only escape.
    let mut irregular_programs = 0usize;
    for seed in 0..256u64 {
        let g = refidem_testkit::generate(seed);
        if !g.spec.has_irregular() && !g.spec.has_while() {
            continue;
        }
        irregular_programs += 1;
        for region in &g.regions {
            let labeled = label_program_region(&g.program, region).expect("analyzes");
            for site in labeled.analysis.table.sites() {
                if !is_indirect(site) {
                    continue;
                }
                match site.access {
                    AccessKind::Write => {
                        assert_eq!(
                            labeled.labeling.label(site.id),
                            Label::Speculative,
                            "seed {}: indirect write {} in {} must be speculative",
                            seed,
                            site.id,
                            region.loop_label
                        );
                    }
                    AccessKind::Read => {
                        if labeled.labeling.is_idempotent(site.id) {
                            assert_eq!(
                                labeled.analysis.classes.class(site.var),
                                VarClass::ReadOnly,
                                "seed {}: idempotent indirect read {} in {} \
                                 outside the read-only escape",
                                seed,
                                site.id,
                                region.loop_label
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        irregular_programs >= 32,
        "only {irregular_programs} of 256 seeds were irregular"
    );
}

#[test]
fn parallelizable_regions_are_a_superset_of_fully_independent_ones() {
    let mut fully_independent = 0usize;
    let mut parallelizable = 0usize;
    for bench in all_benchmarks() {
        for region in bench.regions() {
            let labeled = label_program_region(&bench.program, &region).expect("analyzes");
            if labeled.analysis.fully_independent {
                fully_independent += 1;
                assert!(
                    labeled.analysis.compiler_parallelizable,
                    "{} {}: fully independent but not parallelizable",
                    bench.name, region.loop_label
                );
            }
            if labeled.analysis.compiler_parallelizable {
                parallelizable += 1;
            }
        }
    }
    assert!(fully_independent > 0);
    assert!(parallelizable >= fully_independent);
}
