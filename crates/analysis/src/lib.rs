//! # refidem-analysis — prerequisite compiler analyses
//!
//! Section 4.2.1 of the paper lists the prerequisites of the idempotency
//! labeling algorithms: "we assume that a state-of-the-art compiler (e.g.
//! Polaris) has analyzed read-only and private variables, and also the data
//! dependences of every reference in each region. Data dependences are
//! may-dependences." This crate provides those prerequisites over the
//! `refidem-ir` representation:
//!
//! * [`bounds`] — evaluation of loop bounds to integer intervals and trip
//!   counts.
//! * [`summary`] — structured per-body summaries: exposed reads, covered
//!   reads, must-writes (the facts Algorithm 1's node reference types are
//!   built from).
//! * [`depend`] — reference-by-reference may-dependence analysis of a region
//!   (loop), classifying every dependence as intra-segment or cross-segment
//!   and as flow / anti / output, using hierarchical ZIV / strong-SIV /
//!   interval (Banerjee-style) / GCD tests.
//! * [`classify`] — read-only / private / shared classification of the
//!   variables referenced by a region.
//! * [`liveness`] — live-out analysis at region exits.
//! * [`region`] — [`region::RegionAnalysis`], the bundle of all of the above
//!   for one region, which is what `refidem-core` consumes.
//! * [`schedule`] — whole-program region discovery:
//!   [`schedule::discover_regions`] partitions a procedure into serial
//!   spans and an ordered [`schedule::RegionSchedule`] of
//!   speculation-candidate loops, the first stage of the program-level
//!   pipeline (discover → label → schedule → simulate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod classify;
pub mod depend;
mod intern;
pub mod liveness;
pub mod region;
pub mod schedule;
pub mod summary;

#[cfg(test)]
mod test_corpus;

pub use classify::{VarClass, VarClassification};
pub use depend::{DepKind, DepScope, Dependence, DependenceSet};
pub use region::RegionAnalysis;
pub use schedule::{discover_regions, DiscoveredRegion, RegionSchedule};
pub use summary::BodySummary;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::classify::{VarClass, VarClassification};
    pub use crate::depend::{DepKind, DepScope, Dependence, DependenceSet};
    pub use crate::region::RegionAnalysis;
    pub use crate::schedule::{discover_regions, RegionSchedule};
    pub use crate::summary::BodySummary;
}
