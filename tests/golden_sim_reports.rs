//! Golden digest of every simulated report: each corpus program, each
//! benchmark-suite program and a sample of giant blocks, simulated whole
//! under HOSE and CASE at every capacity-ladder point, plus its sequential
//! baseline. Every `ProgramReport`, every final memory image and every
//! sequential outcome is folded into one FNV-1a line, so a change that
//! moves any simulated statistic or any memory bit — in the engine, its
//! storage buffers, the pooled scratch or the executors — fails here
//! instead of drifting silently.
//!
//! All calls share one `ScratchPool`, so pooled buffers are reused across
//! address-space sizes, executor shapes, capacities and programs; each
//! program gets its own fresh `LoweredCache`, which keeps the reports'
//! cache counters independent of test order.
//!
//! To regenerate after an intentional change to simulated behaviour, run
//! `cargo test --release --test golden_sim_reports -- --include-ignored`
//! and paste each failure's `left` line over its constant below.

use refidem::core::label::label_program;
use refidem::ir::ids::ProcId;
use refidem::ir::lowered::LoweredCache;
use refidem::ir::memory::{Addr, Memory};
use refidem::ir::program::Program;
use refidem::specsim::{
    run_program_sequential, simulate_program, ExecMode, ScratchPool, SimConfig,
};
use refidem_testkit::{generate, giant_block, Rng, CAPACITY_LADDER};

/// 64-bit FNV-1a, written out because `DefaultHasher`'s output may change
/// between Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_memory(&mut self, memory: &Memory) {
        for a in 0..memory.len() as u64 {
            self.write(&memory.load(Addr(a)).to_bits().to_le_bytes());
        }
    }
}

/// Simulator calls made, and the digest of everything they returned.
struct SimDigest {
    calls: usize,
    fnv: Fnv1a,
    pool: ScratchPool,
}

impl SimDigest {
    fn new() -> Self {
        SimDigest {
            calls: 0,
            fnv: Fnv1a(0xcbf2_9ce4_8422_2325),
            pool: ScratchPool::fresh(),
        }
    }

    /// Labels `program`, simulates it at every processor count in
    /// `processors` × capacity-ladder point × mode, then runs its
    /// sequential baseline once, folding each outcome (or error) into the
    /// digest.
    fn add_program(&mut self, program: &Program, processors: &[usize]) {
        let labeled = match label_program(program, ProcId::from_index(0)) {
            Ok(labeled) => labeled,
            Err(e) => {
                self.fnv.write(format!("label error: {e:?}").as_bytes());
                return;
            }
        };
        let base = SimConfig::default()
            .cache(LoweredCache::fresh())
            .scratch(self.pool.clone());
        for &p in processors {
            for capacity in CAPACITY_LADDER {
                for mode in [ExecMode::Hose, ExecMode::Case] {
                    let cfg = base.clone().processors(p).capacity(capacity);
                    self.calls += 1;
                    match simulate_program(program, &labeled, mode, &cfg) {
                        Ok(out) => {
                            self.fnv.write(format!("{:?}", out.report).as_bytes());
                            self.fnv.write_memory(&out.memory);
                        }
                        Err(e) => self.fnv.write(format!("sim error: {e:?}").as_bytes()),
                    }
                }
            }
        }
        self.calls += 1;
        match run_program_sequential(program, &labeled, &base) {
            Ok(seq) => {
                self.fnv.write(
                    format!(
                        "{} {:?} {:?} {}",
                        seq.serial_cycles, seq.region_cycles, seq.region_counts, seq.total_cycles
                    )
                    .as_bytes(),
                );
                self.fnv.write_memory(&seq.memory);
            }
            Err(e) => self.fnv.write(format!("seq error: {e:?}").as_bytes()),
        }
    }

    fn line(&self) -> String {
        format!("calls={} fnv1a={:016x}", self.calls, self.fnv.0)
    }
}

/// Giant blocks in the digest, and the statements of each.
const GIANT_BLOCKS: usize = 32;
const GIANT_STMTS: usize = 128;

/// Corpus seeds `0..1024`, the benchmark suite and 32 giant blocks, at
/// `processors`.
fn render_digest(processors: &[usize]) -> String {
    let mut d = SimDigest::new();
    for seed in 0..1024 {
        d.add_program(&generate(seed).program, processors);
    }
    for bench in refidem_benchmarks::all_benchmarks() {
        d.add_program(&bench.program, processors);
    }
    let mut rng = Rng::new(1);
    for _ in 0..GIANT_BLOCKS {
        let (program, _) = giant_block(rng.next_u64(), GIANT_STMTS);
        d.add_program(&program, processors);
    }
    d.line()
}

/// The widened set: [`render_digest`] at processors {1, 2, 4, 8}, plus the
/// 3072-seed out-of-corpus sample the differential suite draws from
/// `Rng::new(42)`.
fn render_wide_digest() -> String {
    let processors = [1, 2, 4, 8];
    let mut line = render_digest(&processors);
    let mut d = SimDigest::new();
    let mut rng = Rng::new(42);
    for _ in 0..3072 {
        d.add_program(&generate(rng.next_u64()).program, &processors);
    }
    line.push_str(" sample ");
    line.push_str(&d.line());
    line
}

const GOLDEN_SIM_DIGEST: &str = "calls=11770 fnv1a=abc799bbc75e3040";

const GOLDEN_WIDE_SIM_DIGEST: &str =
    "calls=43870 fnv1a=3af97c4898ec9ee0 sample calls=125952 fnv1a=30fe878abd791f34";

#[test]
fn simulated_reports_match_golden() {
    assert_eq!(render_digest(&[4]), GOLDEN_SIM_DIGEST);
}

#[test]
#[ignore = "release-mode widening; run with --ignored"]
fn widened_simulated_reports_match_golden() {
    assert_eq!(render_wide_digest(), GOLDEN_WIDE_SIM_DIGEST);
}
