//! Section 7 extensions, implemented: acyclic → TST repartitioning
//! (7.2.1) and decomposition methodology via data analysis (7.2.2).
//! Dynamic restructuring (7.1.1) is not implemented (DESIGN.md §14).

pub mod acyclic;
pub mod cluster;

pub use acyclic::{repartition_to_tst, MergePlan};
pub use cluster::{decompose, Decomposition, ItemAccess};
