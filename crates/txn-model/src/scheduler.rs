//! The scheduler interface every concurrency control implements.
//!
//! The HDD scheduler and all baselines expose the same five-call surface
//! (`begin` / `read` / `write` / `commit` / `abort`), so drivers, tests,
//! the benchmark and examples are generic over the concurrency control.
//!
//! Blocking is modelled by *polling*: a `read`/`write` that must wait
//! returns [`ReadOutcome::Block`] / [`WriteOutcome::Block`] and the driver
//! retries the same step later. This keeps schedulers deterministic under
//! the single-threaded interleaved driver while still working under the
//! multi-threaded driver.

use crate::ids::{ClassId, GranuleId, SegmentId, Timestamp, TxnId};
use crate::metrics::Metrics;
use crate::schedule::ScheduleLog;
use crate::value::Value;
use std::sync::Arc;

/// Static description of a transaction handed to [`Scheduler::begin`]:
/// which class it belongs to (update transactions) or that it is read-only,
/// plus the declared segment sets the paper's transaction analysis assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnProfile {
    /// The transaction class (None for ad-hoc read-only transactions).
    pub class: Option<ClassId>,
    /// Segments the transaction may read.
    pub read_segments: Vec<SegmentId>,
    /// Segments the transaction may write (at most the class root under a
    /// TST-hierarchical partition).
    pub write_segments: Vec<SegmentId>,
}

impl TxnProfile {
    /// An update transaction in class `class` (writes the class root
    /// segment, reads `read_segments`).
    pub fn update(class: ClassId, read_segments: Vec<SegmentId>) -> Self {
        TxnProfile {
            class: Some(class),
            read_segments,
            write_segments: vec![class.root_segment()],
        }
    }

    /// An ad-hoc read-only transaction over the given segments.
    pub fn read_only(read_segments: Vec<SegmentId>) -> Self {
        TxnProfile {
            class: None,
            read_segments,
            write_segments: Vec::new(),
        }
    }

    /// True when the profile declares no writes.
    pub fn is_read_only(&self) -> bool {
        self.write_segments.is_empty()
    }
}

/// Live handle for an in-flight transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnHandle {
    /// Unique transaction id.
    pub id: TxnId,
    /// Initiation time `I(t)`.
    pub start_ts: Timestamp,
    /// Class, if an update transaction.
    pub class: Option<ClassId>,
}

/// Result of a read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read was served. The payload is the shared, immutable version
    /// value — serving a committed read is a reference-count bump, not a
    /// payload copy.
    Value(Arc<Value>),
    /// The transaction must wait and retry this read.
    Block,
    /// The protocol rejected the read; the transaction must abort
    /// (the driver calls [`Scheduler::abort`] and may restart it).
    Abort,
}

/// Result of a write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write was accepted.
    Done,
    /// The transaction must wait and retry this write.
    Block,
    /// The protocol rejected the write; the transaction must abort.
    Abort,
}

/// Result of a commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed at the given commit time `C(t)`.
    Committed(Timestamp),
    /// Commit-time validation failed; the transaction was aborted by the
    /// scheduler (no further `abort` call needed).
    Aborted,
    /// The transaction must wait before committing (e.g. waiting for an
    /// older pipelined transaction) and retry.
    Block,
}

/// A concurrency control: the five-call protocol surface plus access to its
/// schedule log and cost metrics.
pub trait Scheduler: Send + Sync {
    /// Scheduler name for reports ("hdd", "2pl", "tso", ...).
    fn name(&self) -> &'static str;

    /// Start a transaction; assigns id and initiation timestamp.
    fn begin(&self, profile: &TxnProfile) -> TxnHandle;

    /// Request a read of `g` on behalf of `h`.
    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome;

    /// Request a write of `g := v` on behalf of `h`.
    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome;

    /// Attempt to commit.
    fn commit(&self, h: &TxnHandle) -> CommitOutcome;

    /// Abort and release everything held by `h`. Idempotent.
    fn abort(&self, h: &TxnHandle);

    /// Periodic housekeeping hook, called by drivers between steps:
    /// time-wall release, garbage collection, etc. Default: no-op.
    fn maintenance(&self) {}

    /// The shared schedule log (for serializability checking).
    fn log(&self) -> &ScheduleLog;

    /// Cost counters.
    fn metrics(&self) -> &Metrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_constructors() {
        let u = TxnProfile::update(ClassId(2), vec![SegmentId(2), SegmentId(0)]);
        assert_eq!(u.class, Some(ClassId(2)));
        assert_eq!(u.write_segments, vec![SegmentId(2)]);
        assert!(!u.is_read_only());

        let r = TxnProfile::read_only(vec![SegmentId(1)]);
        assert_eq!(r.class, None);
        assert!(r.is_read_only());
    }
}
