//! Structured protocol decision tracing.
//!
//! Schedulers report [`TraceEvent`]s — *why* Protocol A chose a version,
//! why an operation was rejected, what a time-wall evaluation produced,
//! what GC reclaimed — into the one event log under
//! [`Obs`](crate::Obs) (a bounded [`TicketRing`](crate::ring::TicketRing),
//! shared with the flight recorder's span records).
//!
//! Events carry raw integers (transaction ids, class indices, logical
//! timestamps) rather than `txn-model` newtypes: this crate sits below
//! `txn-model` so the `Metrics` struct can embed an [`Obs`](crate::Obs)
//! sidecar without a dependency cycle.

use std::fmt;

/// Why a protocol rejected an operation (forcing an abort), or — for
/// [`RejectReason::WallViolation`] — why an unregistered read found a
/// state its bound proof forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A write arrived after a younger transaction already read or
    /// overwrote the granule (TO write rule).
    WriteTooLate,
    /// A read arrived after a younger transaction already overwrote the
    /// granule (basic-TO read rule).
    ReadTooLate,
    /// An unregistered (Protocol A / Protocol C) read found a pending
    /// version below its activity-link or time-wall bound — a state the
    /// bound proofs rule out. The read blocks rather than aborts, but
    /// any occurrence is counted loudly.
    WallViolation,
    /// Chosen as a deadlock victim (2PL family).
    DeadlockVictim,
    /// Aborted by the straggler watchdog: the transaction outlived its
    /// lease while holding an activity-registry entry, wedging
    /// `I_old`/`C_late` (and with them the time wall and GC watermark).
    WatchdogAbort,
}

impl RejectReason {
    /// Short stable label (tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::WriteTooLate => "write-too-late",
            RejectReason::ReadTooLate => "read-too-late",
            RejectReason::WallViolation => "wall-violation",
            RejectReason::DeadlockVictim => "deadlock-victim",
            RejectReason::WatchdogAbort => "watchdog-abort",
        }
    }
}

/// Which fault the chaos harness injected at a [`TraceEvent::CrashPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// Worker crashed mid-transaction (abandoned without abort).
    Crash,
    /// Worker stalled while holding an activity-registry entry.
    Stall,
    /// Worker delayed its commit.
    DelayCommit,
}

impl FaultCode {
    /// Short stable label (tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultCode::Crash => "crash",
            FaultCode::Stall => "stall",
            FaultCode::DelayCommit => "delay-commit",
        }
    }
}

impl fmt::Display for FaultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What an unregistered (Protocol A / Protocol C) read was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRead {
    /// Reading transaction id.
    pub txn: u64,
    /// The reader's initiation time `I(t)`.
    pub start: u64,
    /// The class owning the segment read.
    pub target_class: u32,
    /// Segment index of the granule.
    pub segment: u32,
    /// Granule key.
    pub key: u64,
    /// The read bound: versions at or above it are invisible.
    pub bound: u64,
    /// Write timestamp of the version served.
    pub version: u64,
}

impl ServedRead {
    /// How far behind the reader's logical present the version is,
    /// `start − version` (DESIGN.md §10): strictly positive on Protocol A
    /// reads; a wall reader that predates the wall it adopted saturates
    /// to 0.
    pub fn staleness(&self) -> u64 {
        self.start.saturating_sub(self.version)
    }
}

/// One structured protocol decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Protocol A served a cross-class read to a transaction of (or a
    /// read-only one anchored below) `reader_class`: `read.bound` is the
    /// activity-link bound computed from `m = read.start`.
    CrossRead {
        /// The reader's class index.
        reader_class: u32,
        /// What was read and served.
        read: ServedRead,
    },
    /// Protocol C served a read below a released time wall: `read.bound`
    /// is the wall component `E_s^i(m)`.
    WallRead {
        /// The wall's anchor time `m`.
        anchor: u64,
        /// What was read and served.
        read: ServedRead,
    },
    /// A protocol rule refused an operation.
    Reject {
        /// The refused transaction.
        txn: u64,
        /// Segment index of the granule involved.
        segment: u32,
        /// Granule key.
        key: u64,
        /// Reason code.
        reason: RejectReason,
    },
    /// The time-wall service released a wall (also a flight fact:
    /// [`assemble`](crate::span::assemble) keeps it for the trace's
    /// maintenance track).
    WallRelease {
        /// Anchor time `m` of the wall.
        anchor: u64,
        /// Release time `RT(TW)` (logical clock).
        released_at: u64,
        /// Release time on the span clock (ns since the recorder epoch).
        at_ns: u64,
    },
    /// Garbage collection reclaimed a batch of versions.
    GcReclaim {
        /// The safe watermark used.
        watermark: u64,
        /// Versions reclaimed.
        reclaimed: u64,
    },
    /// The straggler watchdog reaped a transaction past its lease — also
    /// the [`Terminal::Reaped`](crate::span::Terminal) of its flight, if
    /// sampled: a crashed worker never reaches a driver terminal, so the
    /// reap is what guarantees no span leaks.
    WatchdogAbort {
        /// The reaped transaction.
        txn: u64,
        /// Its initiation time `I(t)` (the registry entry retired).
        start: u64,
        /// How far past its deadline it was, in microseconds.
        overdue_micros: u64,
        /// Reap time on the span clock (ns since the recorder epoch).
        at_ns: u64,
    },
    /// The chaos harness injected a fault into a worker.
    CrashPoint {
        /// The transaction the fault hit.
        txn: u64,
        /// Program step index at which the fault fired.
        op_index: u64,
        /// Which fault was injected.
        fault: FaultCode,
    },
    /// Crash recovery replayed a log into a fresh store + registry.
    RecoveryReplay {
        /// Events in the surviving log prefix.
        events: u64,
        /// Committed transactions redone.
        redone: u64,
        /// Uncommitted transactions rolled back by omission.
        rolled_back: u64,
        /// In-flight transactions closed with synthetic aborts so the
        /// rebuilt activity registry has no running intervals.
        in_flight_aborted: u64,
        /// Restored timestamp high-water mark (post-recovery ticks are
        /// strictly greater).
        high_water_mark: u64,
    },
}

impl TraceEvent {
    /// Short stable kind label (JSON, tables).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CrossRead { .. } => "cross-read",
            TraceEvent::WallRead { .. } => "wall-read",
            TraceEvent::Reject { .. } => "reject",
            TraceEvent::WallRelease { .. } => "wall-release",
            TraceEvent::GcReclaim { .. } => "gc-reclaim",
            TraceEvent::WatchdogAbort { .. } => "watchdog-abort",
            TraceEvent::CrashPoint { .. } => "crash-point",
            TraceEvent::RecoveryReplay { .. } => "recovery-replay",
        }
    }

    /// The transaction the event belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            TraceEvent::CrossRead { read, .. } | TraceEvent::WallRead { read, .. } => {
                Some(read.txn)
            }
            TraceEvent::Reject { txn, .. }
            | TraceEvent::WatchdogAbort { txn, .. }
            | TraceEvent::CrashPoint { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::CrossRead { reader_class, read } => write!(
                f,
                "t{} (class {reader_class}) cross-read D{}[{}] of class {}: A(m={}) = {}, \
                 served version ts:{}",
                read.txn,
                read.segment,
                read.key,
                read.target_class,
                read.start,
                read.bound,
                read.version
            ),
            TraceEvent::WallRead { anchor, read } => write!(
                f,
                "t{} wall-read D{}[{}] of class {}: E(m={anchor}) = {}, served version ts:{}",
                read.txn, read.segment, read.key, read.target_class, read.bound, read.version
            ),
            TraceEvent::Reject {
                txn,
                segment,
                key,
                reason,
            } => write!(f, "t{txn} rejected at D{segment}[{key}]: {reason}"),
            TraceEvent::WallRelease {
                anchor,
                released_at,
                ..
            } => write!(f, "wall released: anchor ts:{anchor} at ts:{released_at}"),
            TraceEvent::GcReclaim {
                watermark,
                reclaimed,
            } => write!(f, "gc reclaimed {reclaimed} versions below ts:{watermark}"),
            TraceEvent::WatchdogAbort {
                txn,
                start,
                overdue_micros,
                ..
            } => write!(
                f,
                "watchdog reaped t{txn} (I={start}), {overdue_micros} µs past its lease"
            ),
            TraceEvent::CrashPoint {
                txn,
                op_index,
                fault,
            } => write!(f, "chaos injected {fault} into t{txn} at op {op_index}"),
            TraceEvent::RecoveryReplay {
                events,
                redone,
                rolled_back,
                in_flight_aborted,
                high_water_mark,
            } => write!(
                f,
                "recovery replayed {events} events: {redone} redone, {rolled_back} rolled \
                 back, {in_flight_aborted} in-flight aborted, clock resumed past \
                 ts:{high_water_mark}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ: ServedRead = ServedRead {
        txn: 1,
        start: 10,
        target_class: 0,
        segment: 0,
        key: 7,
        bound: 8,
        version: 5,
    };

    #[test]
    fn display_renders_every_kind() {
        let evs = [
            TraceEvent::CrossRead {
                reader_class: 2,
                read: READ,
            },
            TraceEvent::WallRead {
                anchor: 20,
                read: READ,
            },
            TraceEvent::Reject {
                txn: 3,
                segment: 0,
                key: 1,
                reason: RejectReason::WriteTooLate,
            },
            TraceEvent::WallRelease {
                anchor: 30,
                released_at: 31,
                at_ns: 0,
            },
            TraceEvent::GcReclaim {
                watermark: 25,
                reclaimed: 12,
            },
            TraceEvent::WatchdogAbort {
                txn: 5,
                start: 40,
                overdue_micros: 1500,
                at_ns: 0,
            },
            TraceEvent::CrashPoint {
                txn: 6,
                op_index: 3,
                fault: FaultCode::Stall,
            },
            TraceEvent::RecoveryReplay {
                events: 100,
                redone: 10,
                rolled_back: 2,
                in_flight_aborted: 1,
                high_water_mark: 99,
            },
        ];
        for ev in evs {
            let s = format!("{ev}");
            assert!(!s.is_empty());
            assert!(!ev.kind().is_empty());
        }
    }
}
