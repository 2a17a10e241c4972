//! # mvstore — multi-version storage substrate
//!
//! The paper assumes "the maintenance of a multi-version database"
//! (Section 1.2.2) and, for intra-class synchronization, "the basic
//! timestamp ordering protocol \[Bernstein80\] or the multi-version
//! timestamp ordering protocol \[Reed78\]" (Protocol B). This crate is that
//! substrate, shared by the HDD scheduler and by every baseline:
//!
//! * [`chain::VersionChain`] — a granule's committed/pending versions
//!   ordered by write timestamp, with the MVTO read/write rules and the
//!   per-granule read-timestamp bookkeeping basic TSO needs;
//! * [`store::MvStore`] — the one store: a sharded concurrent in-memory
//!   map of granules to chains, with seeding and time-wall-driven
//!   garbage collection. It holds no durable state; the schedule log
//!   (the group-commit WAL) does;
//! * [`recovery`] — redo-only replay of a (possibly torn) schedule log
//!   into a store re-seeded with the initial image;
//! * [`backend::StorageBackend`] — three `MvStore` calls behind a trait
//!   object, kept only for the benchmark's storage probe;
//! * [`locktable::LockTable`] — shared/exclusive locks with FIFO waiters,
//!   upgrades, and waits-for deadlock detection (substrate for the 2PL
//!   family of baselines).

#![warn(missing_docs)]

pub mod backend;
pub mod chain;
pub mod locktable;
pub mod recovery;
pub mod store;

pub use backend::StorageBackend;
pub use chain::{MvtoReadResult, MvtoWriteResult, Version, VersionChain};
pub use locktable::{LockMode, LockRequestResult, LockTable};
pub use recovery::{recover, RecoveryAnomalies, RecoveryReport, SkipKind, SkippedFrame};
pub use store::{MvStore, VersionRecord};
