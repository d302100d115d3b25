//! # refidem-perfbench — the end-to-end and per-layer benchmark
//!
//! One command runs a workload of the refidem pipeline (discover → label →
//! lower → simulate) from a single process, checks every op's final memory
//! bit-exactly against the tree-walk oracle, and prints every metric by
//! name with its unit. A separate traced run times each layer's public
//! functions from outside and reports per-layer self time.
//!
//! * [`workload`] — the `cold-compile`, `warm-ladder` and `threads-suite`
//!   workloads, their set-up, timed closed loop and self-checks;
//! * [`pipeline`] — every call into the refidem crates;
//! * [`trace`] — spans, self time and Chrome trace-event export;
//! * [`metrics`] — the metric catalog `BENCHMARK.json` lists;
//! * [`report`] — the result line, result file and `compare`;
//! * [`calib`] — a fixed kernel timed beside every round, a host-speed
//!   diagnostic;
//! * [`host`], [`json`], [`stats`] — the host block and small helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod host;
pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
