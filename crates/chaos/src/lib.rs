//! # chaos — seeded fault plans for the HDD runtime
//!
//! This crate decides *which* fault hits *what*, reproducibly from a
//! seed; it executes nothing. Two kinds of plan:
//!
//! **Worker faults** — a [`FaultPlan`] assigns each program of a run
//! one [`FaultKind`]:
//!
//! * **Crash** — the worker abandons its transaction mid-program
//!   *without* aborting it, leaving pending versions in the store and a
//!   running interval in the activity registry — exactly the wreckage a
//!   killed process leaves behind. Under HDD this wedges `C_late` (and
//!   with it the time wall and the GC watermark) until the straggler
//!   watchdog reaps the corpse.
//! * **Stall** — the worker sleeps mid-transaction while holding its
//!   registry entry, modelling a GC pause or a scheduling hiccup. If
//!   the stall outlives the transaction lease, the watchdog aborts the
//!   transaction out from under the sleeper, whose next operation then
//!   fails with `Abort` and retries as a fresh transaction.
//! * **DelayCommit** — the worker sleeps just before committing,
//!   stretching the transaction's activity interval.
//!
//! **Disk faults** — a [`DiskFaultPlan`] is the
//! [`WalFault`](txn_model::WalFault) a group-commit WAL consults before
//! each batch: torn final write, lying fsync, kill before or after the
//! write.
//!
//! Faults are drawn per program by [`FaultPlan::generate`] (and per WAL
//! by [`DiskFaultPlan::generate`]) from a seed, so a failing schedule
//! replays exactly. The driver that executes a worker plan is
//! `sim::concurrent` — the one closed worker loop of this repository,
//! which asks [`FaultKind::due`] before every operation and, beside its
//! workers, samples `timewalls_released` to report the longest gap
//! between wall releases, the observable measure of "the time wall
//! resumed within a bounded interval" that experiment E16 asserts on.
//!
//! Plans are scheduler-agnostic but only meaningful against schedulers
//! that survive abandonment: run HDD with `HddConfig::txn_lease` set,
//! or crashed programs pin the registry forever.

#![warn(missing_docs)]

pub mod disk;
pub mod plan;

pub use disk::{DiskFaultKind, DiskFaultPlan};
pub use plan::{ChaosConfig, FaultKind, FaultPlan};
