//! Golden snapshots of the fused superinstruction stream: the head of the
//! FPPPP `TWLDRV_DO100` giant block — the tentpole workload of the fused
//! execution tier — as readable disassembly, and a digest of every compiled
//! unit of the differential corpus and the benchmark suite. Any change to
//! lowering or to the fuse pipeline (peeling, superinstruction merging,
//! advance-and-load) shows up as an instruction-stream diff rather than a
//! bare perf delta.
//!
//! To regenerate after an intentional fuse-pipeline change:
//! `cargo test --test golden_fused_stream -- --ignored --nocapture print_golden`
//! and paste the printed blocks over the constants below.

use refidem::ir::affine::AffineExpr;
use refidem::ir::expr::Expr;
use refidem::ir::ids::VarId;
use refidem::ir::lowered::{fused::fuse, lower, LowerKey, LowerUnit, LoweredCache};
use refidem::ir::memory::Layout;
use refidem::ir::program::{Procedure, Program};
use refidem::ir::stmt::{LoopStmt, Stmt};
use refidem_benchmarks::suite::fpppp;

/// Lines of disassembly kept in the snapshot. The peeled giant block is
/// hundreds of fused statements, each collapsed to one whole-statement
/// superinstruction; the head captures the repeating form plus the peel
/// machinery, the footer records the exact total so silent growth still
/// fails.
const HEAD_LINES: usize = 24;

fn render_fused_stream() -> String {
    let bench = fpppp::twldrv_do100();
    let proc = &bench.program.procedures[bench.region.proc.index()];
    let layout = Layout::new(&proc.vars);
    let base = lower(&proc.vars, &layout, &proc.body);
    let fused = fuse(&base);
    let mut out = String::new();
    out.push_str(&format!(
        "FPPPP TWLDRV_DO100: {} insts (from {} plain), {} superinsts, \
         {} peeled loops\n",
        fused.inst_count(),
        base.inst_count(),
        fused.superinst_count(),
        fused.peeled_loop_count()
    ));
    let disasm = fused.disasm();
    let lines: Vec<&str> = disasm.lines().collect();
    for line in lines.iter().take(HEAD_LINES) {
        out.push_str(line);
        out.push('\n');
    }
    if lines.len() > HEAD_LINES {
        out.push_str(&format!(
            "  ... {} more instructions\n",
            lines.len() - HEAD_LINES
        ));
    }
    out
}

const GOLDEN_TWLDRV_FUSED_STREAM: &str = "\
FPPPP TWLDRV_DO100: 537 insts (from 779 plain), 524 superinsts, 1 peeled loops
   0  peelenter #6 = 1
   1  rload2constbinstore r2:scalar@516 = r0:scalar@517 Add (r389:scalar@0 Mul -1)
   2  rload2constbinstore r5:scalar@517 = r3:scalar@518 Add (r390:scalar@1 Mul -0.9375)
   3  rload2constbinstore r8:scalar@518 = r6:scalar@519 Add (r391:scalar@2 Mul -0.875)
   4  rload2constbinstore r11:scalar@519 = r9:scalar@516 Add (r392:scalar@3 Mul -0.8125)
   5  rload2constbinstore r14:scalar@516 = r12:scalar@517 Add (r393:scalar@4 Mul -0.75)
   6  rload2constbinstore r17:scalar@517 = r15:scalar@518 Add (r394:scalar@5 Mul -0.6875)
   7  rload2constbinstore r20:scalar@518 = r18:scalar@519 Add (r395:scalar@6 Mul -0.625)
   8  rload2constbinstore r23:scalar@519 = r21:scalar@516 Add (r396:scalar@7 Mul -0.5625)
   9  rload2constbinstore r26:scalar@516 = r24:scalar@517 Add (r397:scalar@8 Mul -0.5)
  10  rload2constbinstore r29:scalar@517 = r27:scalar@518 Add (r398:scalar@9 Mul -0.4375)
  11  rload2constbinstore r32:scalar@518 = r30:scalar@519 Add (r399:scalar@10 Mul -0.375)
  12  rload2constbinstore r35:scalar@519 = r33:scalar@516 Add (r400:scalar@11 Mul -0.3125)
  13  rload2constbinstore r38:scalar@516 = r36:scalar@517 Add (r401:scalar@12 Mul -0.25)
  14  rload2constbinstore r41:scalar@517 = r39:scalar@518 Add (r402:scalar@13 Mul -0.1875)
  15  rload2constbinstore r44:scalar@518 = r42:scalar@519 Add (r403:scalar@14 Mul -0.125)
  16  rload2constbinstore r47:scalar@519 = r45:scalar@516 Add (r404:scalar@15 Mul -0.0625)
  17  rload2constbinstore r50:scalar@516 = r48:scalar@517 Add (r405:scalar@16 Mul 0)
  18  rload2constbinstore r53:scalar@517 = r51:scalar@518 Add (r406:scalar@17 Mul 0.0625)
  19  rload2constbinstore r56:scalar@518 = r54:scalar@519 Add (r407:scalar@18 Mul 0.125)
  20  rload2constbinstore r59:scalar@519 = r57:scalar@516 Add (r408:scalar@19 Mul 0.1875)
  21  rload2constbinstore r62:scalar@516 = r60:scalar@517 Add (r409:scalar@20 Mul 0.25)
  22  rload2constbinstore r65:scalar@517 = r63:scalar@518 Add (r410:scalar@21 Mul 0.3125)
  23  rload2constbinstore r68:scalar@518 = r66:scalar@519 Add (r411:scalar@22 Mul 0.375)
  ... 513 more instructions
";

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

/// Totals over a run of compiled units, plus the digest of their
/// disassembly in compile order.
struct StreamDigest {
    units: usize,
    insts: usize,
    superinsts: usize,
    fnv: Fnv1a,
}

impl StreamDigest {
    /// Compiles one unit through a fresh cache, as the runtimes do, and
    /// folds its disassembly into the digest.
    fn add(
        &mut self,
        proc: &Procedure,
        key: LowerKey,
        guard: Option<&Expr>,
        stmts: &[Stmt],
        ranges: &[(VarId, (i64, i64))],
    ) {
        let layout = Layout::new(&proc.vars);
        let compiled = LoweredCache::fresh()
            .compile(key, &proc.vars, &layout, guard, stmts, ranges)
            .value;
        self.units += 1;
        self.insts += compiled.inst_count();
        self.superinsts += compiled.superinst_count();
        self.fnv.write(compiled.disasm().as_bytes());
    }

    /// Every unit of `program` that fuses: each procedure whole, and each
    /// labeled top-level loop as a region body (behind its WHILE guard,
    /// under its index range) and as a region loop.
    fn add_program(&mut self, program: &Program) {
        for proc in &program.procedures {
            let whole = LowerKey::new(proc, "", LowerUnit::WholeProcedure);
            self.add(proc, whole, None, &proc.body, &[]);
            for stmt in &proc.body {
                let Stmt::Loop(
                    l @ LoopStmt {
                        label: Some(label), ..
                    },
                ) = stmt
                else {
                    continue;
                };
                let body = LowerKey::new(proc, label.as_str(), LowerUnit::RegionBody);
                let guard = l.while_cond.as_ref();
                self.add(proc, body, guard, &l.body, &region_range(proc, l));
                let region = LowerKey::new(proc, label.as_str(), LowerUnit::RegionLoop);
                self.add(proc, region, None, std::slice::from_ref(stmt), &[]);
            }
        }
    }
}

/// The interval of a region loop's index values, which the simulator lowers
/// the region body under; none for non-constant bounds or an empty loop.
fn region_range(proc: &Procedure, l: &LoopStmt) -> Vec<(VarId, (i64, i64))> {
    let bound = |e: &AffineExpr| {
        let e = e.substitute_params(&|v| proc.vars.param_value(v));
        e.is_constant().then_some(e.constant)
    };
    let (Some(lo), Some(hi)) = (bound(&l.lower), bound(&l.upper)) else {
        return Vec::new();
    };
    match LoopStmt::trip_count(lo, hi, l.step) {
        0 => Vec::new(),
        trips => {
            let last = lo + (trips as i64 - 1) * l.step;
            vec![(l.index, (lo.min(last), lo.max(last)))]
        }
    }
}

/// Digests the compiled units of corpus seeds `0..1024` and the benchmark
/// suite into one line.
fn render_corpus_digest() -> String {
    let mut d = StreamDigest {
        units: 0,
        insts: 0,
        superinsts: 0,
        fnv: Fnv1a(0xcbf2_9ce4_8422_2325),
    };
    for seed in 0..1024 {
        d.add_program(&refidem_testkit::generate(seed).program);
    }
    for bench in refidem_benchmarks::all_benchmarks() {
        d.add_program(&bench.program);
    }
    format!(
        "units={} insts={} superinsts={} fnv1a={:016x}",
        d.units, d.insts, d.superinsts, d.fnv.0
    )
}

const GOLDEN_CORPUS_DIGEST: &str = "units=4126 insts=95160 superinsts=29144 fnv1a=9d35a4c91b57cfaa";

#[test]
#[ignore = "prints the current golden for regeneration"]
fn print_golden() {
    println!("=== twldrv fused stream ===\n{}", render_fused_stream());
    println!("=== corpus digest ===\n{}", render_corpus_digest());
}

#[test]
fn twldrv_fused_stream_matches_golden() {
    assert_eq!(render_fused_stream(), GOLDEN_TWLDRV_FUSED_STREAM);
}

#[test]
fn corpus_fused_streams_match_golden() {
    assert_eq!(render_corpus_digest(), GOLDEN_CORPUS_DIGEST);
}
