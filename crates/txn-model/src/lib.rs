//! # txn-model — shared transaction vocabulary
//!
//! This crate defines the concepts every other crate in the workspace speaks:
//!
//! * identifiers and logical [`Timestamp`]s ([`ids`], [`clock`]),
//! * values stored in granules ([`value`]),
//! * transaction *programs* — straight-line read/write step lists with
//!   computed writes ([`program`]),
//! * the [`scheduler::Scheduler`] trait implemented by the HDD
//!   scheduler and by every baseline concurrency control,
//! * the schedule log and the **multi-version transaction dependency graph**
//!   of Section 2 of the paper, together with the acyclicity-based
//!   serializability checker ([`schedule`], [`depgraph`]),
//! * metrics counters shared by all schedulers ([`metrics`]).
//!
//! The dependency-graph checker is the paper's own correctness criterion
//! (Bernstein 82, quoted in Section 2): *a schedule is serializable iff its
//! transaction dependency graph is acyclic*. Every experiment in this
//! repository validates runs with it.

#![warn(missing_docs)]

pub mod clock;
pub mod depgraph;
pub mod group_commit;
pub mod ids;
pub mod metrics;
pub mod program;
pub mod schedule;
pub mod scheduler;
pub mod value;
pub mod wal;

pub use clock::LogicalClock;
pub use depgraph::{ArcKinds, DependencyGraph};
pub use group_commit::{
    BatchAck, FaultAction, GroupCommitConfig, GroupCommitStats, GroupCommitWal, WalCrashed,
    WalFault,
};
pub use ids::{ClassId, GranuleId, IdHasher, IdMap, IdSet, SegmentId, Timestamp, TxnId};
pub use metrics::{Metrics, MetricsSnapshot};
pub use program::{Step, TxnProgram, WriteSource};
pub use schedule::{ScheduleEvent, ScheduleLog};
pub use scheduler::{CommitOutcome, ReadOutcome, Scheduler, TxnHandle, TxnProfile, WriteOutcome};
pub use value::Value;
pub use wal::{decode_events, decode_wal, encode_events, encode_wal, WalFileError, WalReport};
