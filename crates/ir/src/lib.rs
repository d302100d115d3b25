//! # refidem-ir — loop-oriented intermediate representation
//!
//! This crate is the compiler substrate of the reference-idempotency
//! framework (Kim et al., PPoPP 2001). The paper's algorithms operate on
//! Fortran loop nests compiled by Polaris/Multiscalar; here we provide a
//! from-scratch IR with the same expressive power the paper's analysis
//! needs:
//!
//! * scalar, array, index and parameter variables ([`var`]),
//! * affine integer expressions over loop indices ([`affine`]),
//! * memory references with affine or *indirect* (subscripted-subscript)
//!   array subscripts ([`expr`]),
//! * structured statements: assignments, `IF`, and `DO` loops ([`stmt`]),
//! * procedures and programs with a fluent builder ([`program`], [`build`]),
//! * a flat-address memory model and layout ([`memory`]),
//! * a table of all syntactic reference *sites*, the unit the paper labels
//!   idempotent or speculative ([`sites`]),
//! * a resumable, statement-granular executor used both for sequential
//!   ground-truth interpretation and for the speculative-execution simulator
//!   ([`exec`]),
//! * a lowered register-machine bytecode backend that compiles each
//!   statement list once and replays it without re-walking the trees
//!   ([`lowered`]) — the fast path the simulator and benchmarks run on,
//!   with [`exec`]'s tree-walk kept as the cross-checking oracle; fused
//!   affine addresses are strength-reduced to induction address registers,
//!   and compiled bytecode is shared across repeated runs through the
//!   keyed [`lowered::LoweredCache`], one instance of the bounded LRU in
//!   [`cache`],
//! * a pretty printer for Fortran-flavoured listings ([`pretty`]).
//!
//! The IR is deliberately structured (no gotos): every analysis in
//! `refidem-analysis` is a structured traversal, which keeps the
//! implementation close to the paper's presentation (regions are loops,
//! segments are loop iterations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod build;
pub mod cache;
pub mod exec;
pub mod expr;
pub mod ids;
pub mod lowered;
pub mod memory;
pub mod pretty;
pub mod program;
pub mod sites;
pub mod stmt;
pub mod var;

pub use affine::AffineExpr;
pub use build::ProcBuilder;
pub use cache::{KeyedCache, Tally};
pub use exec::{
    AnyExec, DataStore, DynCounts, ExecError, PlainStore, SegmentExec, SeqInterp, TraceEvent,
};
pub use expr::{BinOp, CmpOp, Expr, Reference, Subscript};
pub use ids::{ProcId, RefId, StmtId, VarId};
pub use lowered::{
    lower, lower_with_ranges, ExecBackend, ExecBuffers, LoweredProc, LoweredSegmentExec,
};
pub use memory::{Addr, Layout, Memory};
pub use program::{Procedure, Program, RegionSpec};
pub use sites::{AccessKind, RefSite, RefTable};
pub use stmt::{Assign, IfStmt, LoopStmt, Stmt};
pub use var::{VarInfo, VarKind, VarTable};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::affine::AffineExpr;
    pub use crate::build::ProcBuilder;
    pub use crate::exec::{DataStore, DynCounts, PlainStore, SegmentExec, SeqInterp};
    pub use crate::expr::{BinOp, CmpOp, Expr, Reference, Subscript};
    pub use crate::ids::{ProcId, RefId, StmtId, VarId};
    pub use crate::lowered::{lower, ExecBackend, LoweredProc, LoweredSegmentExec};
    pub use crate::memory::{Addr, Layout, Memory};
    pub use crate::program::{Procedure, Program, RegionSpec};
    pub use crate::sites::{AccessKind, RefSite, RefTable};
    pub use crate::stmt::{Assign, IfStmt, LoopStmt, Stmt};
    pub use crate::var::{VarInfo, VarKind, VarTable};
}
