//! # sim — execution drivers and the experiment harness
//!
//! * [`driver`] — a seeded, deterministic interleaved executor: one
//!   logical step of one transaction at a time, with retry-on-block and
//!   restart-on-abort semantics shared by every scheduler;
//! * [`concurrent`] — the multi-threaded closed-loop executor, the one
//!   worker loop of the repository: wall-clock runs, and — handed a
//!   `chaos::FaultPlan` — fault-injection runs;
//! * [`cli`] — the flag cursor, workload table and usage-and-exit-2
//!   error path shared by the `hdd-top`, `hdd-advisor` and `hdd-blame`
//!   binaries;
//! * [`dashboard`] — text-frame rendering for the `hdd-top` live
//!   dashboard binary;
//! * [`scripts`] — replay of the deterministic anomaly interleavings of
//!   Figures 3 and 4;
//! * [`factory`] — builds every scheduler (HDD and all baselines) over a
//!   freshly seeded store for a given workload;
//! * [`report`] — ASCII tables for the paper-style output;
//! * [`experiments`] — one module per figure of the paper (E1–E10),
//!   each regenerating the figure's claim as a measured table, plus the
//!   E11 cross-read scaling sweep and the E12 Section-7.5 database-
//!   computer message analysis.

#![warn(missing_docs)]

pub mod cli;
pub mod concurrent;
pub mod dashboard;
pub mod driver;
pub mod experiments;
pub mod factory;
pub mod report;
pub mod scripts;

pub use driver::{run_interleaved, DriverConfig, RunStats};
pub use factory::{build_scheduler, SchedulerKind, ALL_KINDS};
pub use report::Table;
