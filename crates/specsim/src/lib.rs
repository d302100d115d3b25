//! # refidem-specsim — speculative multithreaded execution substrate
//!
//! The paper evaluates reference idempotency on Multiplex, a chip
//! multiprocessor with per-processor *speculative storage* backed by a
//! conventional memory hierarchy (*non-speculative storage*), simulated
//! cycle-accurately. This crate is the from-scratch substitute: a
//! value-accurate, event-ordered simulator of the two execution models the
//! paper defines:
//!
//! * **HOSE** (hardware-only speculative execution, Definition 2): every
//!   reference is tracked in a bounded per-processor speculative buffer;
//!   cross-segment flow violations roll younger segments back; segments
//!   commit in order; a segment whose buffer overflows stalls until it
//!   becomes the oldest (non-speculative head) — the serialization the
//!   paper identifies as the key bottleneck.
//! * **CASE** (compiler-assisted speculative execution, Definition 4):
//!   references labeled *idempotent* by `refidem-core` bypass the
//!   speculative storage — idempotent reads access non-speculative storage
//!   directly, idempotent writes first check younger segments for premature
//!   speculative loads and then write through. References labeled *private*
//!   go to per-segment private storage, modeling the per-segment private
//!   stacks the paper's runtime system allocates.
//!
//! The simulator is functionally checked: the final non-speculative memory
//! state of a HOSE or CASE run must match a purely sequential interpretation
//! of the program (Lemmas 1 and 2 as executable tests), modulo dead
//! segment-private locations.
//!
//! The timing model is parameterized ([`SimConfig`]) and deliberately
//! simple — the reproduction targets the *shape* of the paper's results
//! (who wins, where overflow hurts, how much labeling helps), not absolute
//! cycle counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod fault;
pub mod parallel;
pub mod report;
pub mod run;
pub mod storage;
pub mod sweep;

pub use config::{SimConfig, SpecRuntime};
pub use engine::{EngineScratch, ScratchPool};
pub use fault::{DegradeReason, FaultPlan, Governor, PerturbEdge};
pub use refidem_core::cache::{AnalysisCache, AnalysisKey, AnalysisLookup, AnalysisTally};
pub use refidem_ir::cache::{CacheCounters, Tally};
pub use refidem_ir::lowered::{ExecBackend, LowerKey, LowerUnit, LoweredCache};
pub use report::{ProgramReport, SimReport, SpeedupComparison};
pub use run::{
    compare_modes, compare_program_modes, initial_memory, run_program_sequential, run_sequential,
    simulate_program, simulate_region, verify_against_sequential, ExecMode, ProgramComparison,
    ProgramOutcome, SeqProgramOutcome, SimError, SimOutcome,
};
pub use storage::{PrivateStore, Probe, SpecBuffer, SpecEntry};
pub use sweep::{ladder_plan, SweepExec, SweepPlan, SweepPoint};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::config::{SimConfig, SpecRuntime};
    pub use crate::fault::{DegradeReason, FaultPlan, Governor, PerturbEdge};
    pub use crate::report::{ProgramReport, SimReport, SpeedupComparison};
    pub use crate::run::{
        compare_modes, compare_program_modes, run_program_sequential, run_sequential,
        simulate_program, simulate_region, verify_against_sequential, ExecMode, ProgramComparison,
        ProgramOutcome, SeqProgramOutcome, SimError, SimOutcome,
    };
    pub use crate::sweep::{SweepExec, SweepPlan};
}
