//! The schedule log: the sequence of steps a scheduler actually performed.
//!
//! Section 2 of the paper defines a schedule as a sequence of tuples
//! `<transaction id, action, version of a data granule>`. [`ScheduleLog`]
//! records exactly that (plus begin/commit/abort lifecycle events), so the
//! multi-version transaction dependency graph — the paper's correctness
//! criterion — can be rebuilt after any run by
//! [`DependencyGraph::from_log`](crate::depgraph::DependencyGraph::from_log).
//!
//! A version is identified by `(granule, write timestamp)`: every protocol
//! in this workspace assigns versions unique-per-granule timestamps
//! (initiation timestamps under timestamp ordering, commit sequence under
//! locking protocols).
//!
//! # Striping
//!
//! The log is the one structure every worker thread appends to on every
//! operation, so a single mutex over one `Vec` would serialize the whole
//! system. [`ScheduleLog`] is instead an unbounded
//! [`obs::TicketRing`]: appends contend only on one `fetch_add`, and
//! readers merge the stripes by ticket, recovering the exact global
//! append order. Merging is intended for quiescent moments (post-run
//! verification); a merge concurrent with appends may miss in-flight
//! tickets.

use crate::ids::{ClassId, GranuleId, Timestamp, TxnId};
use crate::value::Value;
use mc::sync::{AtomicBool, Ordering};
use obs::TicketRing;
use std::sync::Arc;

/// The writer id of versions present at database-population time.
pub const INITIAL_WRITER: TxnId = TxnId(0);

/// One event in a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// Transaction began with initiation time `start_ts`.
    Begin {
        /// Transaction id.
        txn: TxnId,
        /// Initiation time `I(t)`.
        start_ts: Timestamp,
        /// Class of an update transaction, None if read-only.
        class: Option<ClassId>,
    },
    /// `<txn, r, d^v>`: `txn` read the version of `granule` whose write
    /// timestamp is `version` and which was created by `writer`.
    Read {
        /// Reading transaction.
        txn: TxnId,
        /// Granule read.
        granule: GranuleId,
        /// Write timestamp of the version observed.
        version: Timestamp,
        /// Creator of that version ([`INITIAL_WRITER`] for pre-loaded data).
        writer: TxnId,
    },
    /// `<txn, w, d^v>`: `txn` created the version of `granule` with write
    /// timestamp `version` and content `value`.
    ///
    /// Carrying the value makes the schedule log double as a **redo
    /// log**: replaying the committed writes of a log prefix
    /// reconstructs the database state as of a crash at that point (see
    /// `mvstore::recovery`).
    Write {
        /// Writing transaction.
        txn: TxnId,
        /// Granule written.
        granule: GranuleId,
        /// Write timestamp of the created version.
        version: Timestamp,
        /// The written value (shared with the version chain — logging a
        /// write bumps a reference count instead of copying the payload).
        value: Arc<Value>,
    },
    /// Transaction committed at `commit_ts`.
    Commit {
        /// Transaction id.
        txn: TxnId,
        /// Commit time `C(t)`.
        commit_ts: Timestamp,
    },
    /// Transaction aborted at `abort_ts`.
    ///
    /// The abort timestamp is the activity interval's exact end: offline
    /// replay (certification, registry-aware recovery) ends the aborted
    /// transaction's active window here rather than over-approximating
    /// it from surrounding events.
    Abort {
        /// Transaction id.
        txn: TxnId,
        /// Abort time (the registry end drawn under the class lock, or a
        /// plain clock tick for classless schedulers).
        abort_ts: Timestamp,
    },
}

impl ScheduleEvent {
    /// The transaction this event belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            ScheduleEvent::Begin { txn, .. }
            | ScheduleEvent::Read { txn, .. }
            | ScheduleEvent::Write { txn, .. }
            | ScheduleEvent::Commit { txn, .. }
            | ScheduleEvent::Abort { txn, .. } => *txn,
        }
    }
}

/// Thread-safe, append-only schedule log (striped; see module docs).
#[derive(Debug)]
pub struct ScheduleLog {
    ring: TicketRing<ScheduleEvent>,
    enabled: AtomicBool,
}

impl Default for ScheduleLog {
    fn default() -> Self {
        Self::new()
    }
}

impl ScheduleLog {
    /// A new, enabled log.
    pub fn new() -> Self {
        ScheduleLog {
            ring: TicketRing::unbounded(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Disable recording (for long benchmark runs where post-hoc checking
    /// is not needed and log growth would dominate).
    pub fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — advisory on/off flag; a racing record() may
        // observe either state, both of which are correct outcomes.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        // ordering: Relaxed — advisory flag read, see set_enabled.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append an event (no-op when disabled).
    pub fn record(&self, ev: ScheduleEvent) {
        if self.is_enabled() {
            self.ring.push(ev);
        }
    }

    /// Copy out all events, merged across stripes into global append
    /// order (sorted by sequence ticket). Call at quiescence — a merge
    /// racing an append may miss that append's ticket.
    pub fn events(&self) -> Vec<ScheduleEvent> {
        self.events_stamped()
            .into_iter()
            .map(|(_, ev)| ev)
            .collect()
    }

    /// Like [`events`](Self::events) but keeping each event's sequence
    /// ticket (tests assert ticket density/monotonicity over the merge).
    pub fn events_stamped(&self) -> Vec<(u64, ScheduleEvent)> {
        self.ring.snapshot()
    }

    /// Number of recorded events: the ring is unbounded and never
    /// drained, so every ticket drawn since the last
    /// [`clear`](Self::clear) is retained.
    pub fn len(&self) -> usize {
        self.ring.recorded() as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all events (between experiment phases); tickets restart.
    pub fn clear(&self) {
        self.ring.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SegmentId;

    fn g(key: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), key)
    }

    #[test]
    fn records_in_order() {
        let log = ScheduleLog::new();
        log.record(ScheduleEvent::Begin {
            txn: TxnId(1),
            start_ts: Timestamp(1),
            class: Some(ClassId(0)),
        });
        log.record(ScheduleEvent::Write {
            txn: TxnId(1),
            granule: g(0),
            version: Timestamp(1),
            value: Arc::new(Value::Int(7)),
        });
        log.record(ScheduleEvent::Commit {
            txn: TxnId(1),
            commit_ts: Timestamp(2),
        });
        let evs = log.events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(evs[0], ScheduleEvent::Begin { .. }));
        assert_eq!(evs[2].txn(), TxnId(1));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = ScheduleLog::new();
        log.set_enabled(false);
        log.record(ScheduleEvent::Abort {
            txn: TxnId(3),
            abort_ts: Timestamp(99),
        });
        assert!(log.is_empty());
        log.set_enabled(true);
        log.record(ScheduleEvent::Abort {
            txn: TxnId(3),
            abort_ts: Timestamp(99),
        });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let log = ScheduleLog::new();
        log.record(ScheduleEvent::Abort {
            txn: TxnId(3),
            abort_ts: Timestamp(99),
        });
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_reports_off() {
        let log = ScheduleLog::new();
        log.set_enabled(false);
        assert!(!log.is_enabled());
        log.record(ScheduleEvent::Abort {
            txn: TxnId(1),
            abort_ts: Timestamp(99),
        });
        assert!(log.is_empty());
    }

    #[test]
    fn merge_recovers_global_append_order_under_threads() {
        let log = ScheduleLog::new();
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let txn = TxnId(t * per_thread + i + 1);
                        log.record(ScheduleEvent::Begin {
                            txn,
                            start_ts: Timestamp(1),
                            class: None,
                        });
                        log.record(ScheduleEvent::Commit {
                            txn,
                            commit_ts: Timestamp(2),
                        });
                    }
                });
            }
        });
        let stamped = log.events_stamped();
        assert_eq!(stamped.len(), (threads * per_thread * 2) as usize);
        // Tickets are a dense 0..n permutation (none lost, none
        // duplicated) and the merge is strictly ticket-ascending.
        for (i, &(ticket, _)) in stamped.iter().enumerate() {
            assert_eq!(ticket, i as u64);
        }
        // Per-transaction program order survives the merge: each Begin
        // precedes its Commit.
        let mut begun = std::collections::HashSet::new();
        for (_, ev) in &stamped {
            match ev {
                ScheduleEvent::Begin { txn, .. } => {
                    assert!(begun.insert(*txn));
                }
                ScheduleEvent::Commit { txn, .. } => {
                    assert!(begun.contains(txn), "commit of {txn:?} before its begin");
                }
                _ => unreachable!(),
            }
        }
    }
}
