//! The transaction flight recorder: causal span tracing.
//!
//! While [`trace`](crate::trace) answers *why a protocol decided what it
//! did* (one ring of independent decision events), this module answers
//! *where a transaction's wall-clock time went and who it waited on*:
//! every sampled transaction leaves a **span tree** — admission, per-op
//! service spans, block/wait spans, terminal commit/abort — and every
//! wait span carries a **cause edge**: the transaction id (and class),
//! or the pending time wall, whose completion unblocked it, recorded at
//! the exact block point inside hdd Protocols A/B/C.
//!
//! Recording is double-gated behind the existing [`Obs`](crate::Obs)
//! enable flag *and* a sampling stride: with `sample_every = N`, every
//! Nth transaction (by id) is fully traced and the rest are
//! counter-only ([`FlightRecorder::admitted`] still counts them). The
//! stride is also consulted by the per-op decision tracing in the
//! [`Obs`](crate::Obs) hooks via [`FlightRecorder::trace_txn`], so
//! "sampled mode" keeps the hot path at counter cost for the other N−1
//! transactions. With `sample_every = 0` the recorder is inert.
//!
//! Span records live in the one event log under [`Obs`](crate::Obs),
//! beside the decision events; the [`FlightRecorder`] is only what is
//! unique to flights — the stride, the `admitted`/`sampled` counters
//! and the span clock. Timestamps are nanoseconds since the recorder's
//! epoch (one `Instant` captured at construction), so events from
//! driver threads, scheduler block points and the maintenance thread
//! share one clock.
//!
//! [`assemble`] folds a drained event stream back into per-transaction
//! [`TxnFlight`] trees, resolving each wait span's cause to the latest
//! [`SpanEvent::BlockCause`] recorded before the wait ended, ready for
//! [`blame`](crate::blame) analysis or the Perfetto exporter.

use crate::trace::TraceEvent;
use crate::Event;
use mc::sync::{AtomicU64, Ordering};
use std::fmt;
use std::time::Instant;

/// Class index used for transactions without a class (read-only
/// transactions) or when a blocker's class can no longer be resolved.
pub const NO_CLASS: u32 = u32::MAX;

/// Which scheduler call an [`SpanEvent::Op`] span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A `read` call.
    Read,
    /// A `write` call.
    Write,
    /// A `commit` call.
    Commit,
}

impl SpanKind {
    /// Short stable label (tables, JSON, Perfetto span names).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Read => "read",
            SpanKind::Write => "write",
            SpanKind::Commit => "commit",
        }
    }
}

/// The cause edge of a wait span: what the blocked transaction was
/// waiting for, recorded at the block point by the protocol that
/// returned `Block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// Blocked on another transaction's pending version (Protocol B
    /// read/write rules, or the defensive wall-violation block): the
    /// wait ends when `txn` commits or aborts. `class` is the holder's
    /// class at block time ([`NO_CLASS`] when it could not be resolved).
    TxnPending {
        /// The holder transaction id.
        txn: u64,
        /// The holder's class index.
        class: u32,
    },
    /// No cause was recorded for the wait (non-hdd scheduler, or the
    /// cause event was evicted from the ring).
    Unattributed,
}

impl WaitCause {
    /// Coarse cause-category label (blame tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::TxnPending { .. } => "txn-pending",
            WaitCause::Unattributed => "unattributed",
        }
    }
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::TxnPending { txn, class } if *class == NO_CLASS => {
                write!(f, "txn-pending(t{txn})")
            }
            WaitCause::TxnPending { txn, class } => write!(f, "txn-pending(t{txn} c{class})"),
            WaitCause::Unattributed => f.write_str("unattributed"),
        }
    }
}

/// How a flight ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Committed.
    Committed,
    /// Aborted by a protocol rule (the driver restarts the program as a
    /// fresh transaction — a fresh flight).
    Aborted,
    /// The program exhausted its restart budget.
    GaveUp,
    /// The program hit its driver deadline.
    DeadlineExceeded,
    /// A chaos fault abandoned the transaction without an abort.
    Abandoned,
    /// The straggler watchdog reaped the transaction. For a crashed
    /// flight this arrives *after* [`Terminal::Abandoned`] and wins
    /// (last terminal takes precedence in [`assemble`]).
    Reaped,
}

impl Terminal {
    /// Short stable label (tables, JSON, Perfetto span names).
    pub fn label(self) -> &'static str {
        match self {
            Terminal::Committed => "committed",
            Terminal::Aborted => "aborted",
            Terminal::GaveUp => "gave-up",
            Terminal::DeadlineExceeded => "deadline-exceeded",
            Terminal::Abandoned => "abandoned",
            Terminal::Reaped => "reaped",
        }
    }
}

/// One flight-recorder event. Payloads are raw integers (this crate
/// sits below `txn-model`); timestamps are nanoseconds since the
/// owning recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// A sampled transaction entered the system (`begin` returned).
    Admit {
        /// Transaction id.
        txn: u64,
        /// Class index ([`NO_CLASS`] for read-only transactions).
        class: u32,
        /// Driver worker index that runs the transaction.
        worker: u32,
        /// Admission time.
        at_ns: u64,
    },
    /// One scheduler call completed (service span).
    Op {
        /// Transaction id.
        txn: u64,
        /// The call and its timing.
        op: OpSpan,
    },
    /// A contiguous block streak ended (the blocked step was finally
    /// granted or abandoned); recorded by the driver.
    Wait {
        /// Transaction id.
        txn: u64,
        /// Streak start.
        start_ns: u64,
        /// Streak duration.
        dur_ns: u64,
        /// Portion actually slept in driver backoff.
        slept_ns: u64,
    },
    /// A protocol block point recorded why the operation blocked;
    /// [`assemble`] attaches the latest cause before a wait's end to
    /// that wait span.
    BlockCause {
        /// The blocked transaction.
        txn: u64,
        /// When the block verdict was produced.
        at_ns: u64,
        /// The cause edge.
        cause: WaitCause,
    },
    /// The flight ended.
    End {
        /// Transaction id.
        txn: u64,
        /// End time.
        at_ns: u64,
        /// How it ended.
        terminal: Terminal,
    },
}

/// What is unique to flight recording: the sampling stride, the
/// counter-only totals and the span clock (see module docs; the span
/// records themselves go to the event log under [`Obs`](crate::Obs)).
#[derive(Debug)]
pub struct FlightRecorder {
    /// Shared epoch for `now_ns` across every recording thread.
    epoch: Instant,
    /// Sampling stride: 0 = recorder off, N = trace every Nth txn id.
    sample_every: AtomicU64,
    /// Transactions offered to `admit` while active (sampled or not).
    admitted: AtomicU64,
    /// Transactions fully traced (the sampled subset).
    sampled: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            sample_every: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
        }
    }
}

impl FlightRecorder {
    /// Nanoseconds since the recorder's epoch — the shared span clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the sampling stride: 0 switches the recorder off, `n` traces
    /// every `n`th transaction id fully and the rest counter-only.
    pub fn set_sample_every(&self, n: u64) {
        // ordering: Relaxed — advisory configuration; a racing admit sees
        // the old or new stride, both valid sampling decisions.
        self.sample_every.store(n, Ordering::Relaxed);
    }

    /// The current sampling stride (0 = off).
    #[inline]
    pub fn sample_every(&self) -> u64 {
        // ordering: Relaxed — advisory configuration read, see setter.
        self.sample_every.load(Ordering::Relaxed)
    }

    /// True when the recorder is active (a stride is set). Callers must
    /// still honor the owning [`Obs`](crate::Obs) enable flag.
    #[inline]
    pub fn active(&self) -> bool {
        self.sample_every() != 0
    }

    /// True when transaction `txn` falls on the sampling stride (false
    /// whenever the recorder is inactive): one relaxed load.
    #[inline]
    pub fn sampled(&self, txn: u64) -> bool {
        match self.sample_every() {
            0 => false,
            n => txn.is_multiple_of(n),
        }
    }

    /// Should per-op decision tracing fire for `txn`? `true` for every
    /// transaction while the recorder is inactive, and only for sampled
    /// transactions in sampled mode — the stride that keeps the other
    /// N−1 transactions counter-only.
    #[inline]
    pub fn trace_txn(&self, txn: u64) -> bool {
        match self.sample_every() {
            0 => true,
            n => txn.is_multiple_of(n),
        }
    }

    /// Count an admitted transaction; `true` when it falls on the stride
    /// (the caller then records the flight, starting with its
    /// [`SpanEvent::Admit`]). No-op returning `false` while inactive.
    pub fn admit(&self, txn: u64) -> bool {
        if !self.active() {
            return false;
        }
        // ordering: Relaxed — statistical counters; totals are read at
        // quiescence (drain/snapshot), no memory is published here.
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if !self.sampled(txn) {
            return false;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed); // ordering: statistical counter, see note above
        true
    }

    /// Transactions offered to [`FlightRecorder::admit`] while active.
    pub fn admitted(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.admitted.load(Ordering::Relaxed)
    }

    /// Transactions fully traced (the sampled subset of `admitted`).
    pub fn sampled_count(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.sampled.load(Ordering::Relaxed)
    }

    /// Zero the counters. The sampling stride is left as-is (it is
    /// configuration, like the enable flag).
    pub fn reset(&self) {
        // ordering: Relaxed — counter reset between phases; racing
        // recorders land on either side, both acceptable.
        self.admitted.store(0, Ordering::Relaxed);
        self.sampled.store(0, Ordering::Relaxed); // ordering: phase reset, see note above
    }
}

/// One op service span of a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Which scheduler call.
    pub kind: SpanKind,
    /// Segment touched (0 for commit).
    pub segment: u32,
    /// Granule key (0 for commit).
    pub key: u64,
    /// Call start (ns since epoch).
    pub start_ns: u64,
    /// Call duration.
    pub dur_ns: u64,
}

/// One wait span of an assembled flight, with its resolved cause edge.
#[derive(Debug, Clone, Copy)]
pub struct WaitSpan {
    /// Streak start (ns since epoch).
    pub start_ns: u64,
    /// Streak duration.
    pub dur_ns: u64,
    /// Portion slept in driver backoff.
    pub slept_ns: u64,
    /// The cause edge ([`WaitCause::Unattributed`] when none was
    /// recorded before the wait ended).
    pub cause: WaitCause,
}

/// One assembled per-transaction span tree.
#[derive(Debug, Clone)]
pub struct TxnFlight {
    /// Transaction id.
    pub txn: u64,
    /// Class index ([`NO_CLASS`] for read-only transactions).
    pub class: u32,
    /// Driver worker index.
    pub worker: u32,
    /// Admission time (ns since epoch).
    pub admit_ns: u64,
    /// End time; equals `admit_ns` for still-open flights.
    pub end_ns: u64,
    /// How the flight ended (`None` = open: an admit without a
    /// terminal — a span leak unless events were evicted).
    pub terminal: Option<Terminal>,
    /// Op service spans in ticket order.
    pub ops: Vec<OpSpan>,
    /// Wait spans in ticket order, causes resolved.
    pub waits: Vec<WaitSpan>,
}

impl TxnFlight {
    /// Total flight wall time (admission to terminal).
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.admit_ns)
    }

    /// Total blocked time across wait spans.
    pub fn wait_ns(&self) -> u64 {
        self.waits.iter().map(|w| w.dur_ns).sum()
    }
}

/// A drained, assembled flight log.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    /// Flights keyed by admission order.
    pub flights: Vec<TxnFlight>,
    /// Wall releases observed, as `(anchor, at_ns)`.
    pub wall_releases: Vec<(u64, u64)>,
    /// Flights admitted but never terminated (span leaks, unless the
    /// ring evicted events).
    pub open: usize,
}

impl FlightLog {
    /// Find a flight by transaction id.
    pub fn flight(&self, txn: u64) -> Option<&TxnFlight> {
        self.flights.iter().find(|f| f.txn == txn)
    }
}

/// Fold a drained event stream into per-transaction flights. Decision
/// events are skipped, except the two scheduler facts that are also
/// flight facts: a wall release (an instant on the maintenance track)
/// and a watchdog reap (the flight's [`Terminal::Reaped`]).
///
/// * Events without a preceding `Admit` (evicted, or reported by the
///   watchdog for an unsampled transaction) are dropped.
/// * Each wait span's cause is the **latest** `BlockCause` for the same
///   transaction recorded at or before the wait's end; earlier causes
///   belong to earlier streaks and are superseded.
/// * The **last** terminal wins: a crashed flight records `Abandoned`
///   at the fault point and `Reaped` when the watchdog retires it; the
///   assembled flight reports `Reaped` (and keeps the earlier end time
///   of the first terminal as its end).
pub fn assemble(events: &[(u64, Event)]) -> FlightLog {
    let mut log = FlightLog::default();
    // txn -> index into log.flights; rebuilt streams are small enough
    // that a linear probe on cause resolution would also do, but admits
    // arrive in ticket order so a map keeps this O(n log n) overall.
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    // Pending causes per txn: (at_ns, cause), in ticket order.
    let mut causes: std::collections::HashMap<u64, Vec<(u64, WaitCause)>> =
        std::collections::HashMap::new();
    for (_, ev) in events {
        let span = match *ev {
            Event::Span(span) => span,
            Event::Decision(TraceEvent::WallRelease { anchor, at_ns, .. }) => {
                log.wall_releases.push((anchor, at_ns));
                continue;
            }
            Event::Decision(TraceEvent::WatchdogAbort { txn, at_ns, .. }) => SpanEvent::End {
                txn,
                at_ns,
                terminal: Terminal::Reaped,
            },
            Event::Decision(_) => continue,
        };
        match span {
            SpanEvent::Admit {
                txn,
                class,
                worker,
                at_ns,
            } => {
                index.insert(txn, log.flights.len());
                log.flights.push(TxnFlight {
                    txn,
                    class,
                    worker,
                    admit_ns: at_ns,
                    end_ns: at_ns,
                    terminal: None,
                    ops: Vec::new(),
                    waits: Vec::new(),
                });
            }
            SpanEvent::Op { txn, op } => {
                if let Some(&i) = index.get(&txn) {
                    log.flights[i].ops.push(op);
                }
            }
            SpanEvent::Wait {
                txn,
                start_ns,
                dur_ns,
                slept_ns,
            } => {
                if let Some(&i) = index.get(&txn) {
                    let end = start_ns + dur_ns;
                    let cause = causes
                        .get(&txn)
                        .and_then(|cs| cs.iter().rev().find(|(at, _)| *at <= end).map(|&(_, c)| c))
                        .unwrap_or(WaitCause::Unattributed);
                    log.flights[i].waits.push(WaitSpan {
                        start_ns,
                        dur_ns,
                        slept_ns,
                        cause,
                    });
                }
            }
            SpanEvent::BlockCause { txn, at_ns, cause } => {
                causes.entry(txn).or_default().push((at_ns, cause));
            }
            SpanEvent::End {
                txn,
                at_ns,
                terminal,
            } => {
                if let Some(&i) = index.get(&txn) {
                    let f = &mut log.flights[i];
                    if f.terminal.is_none() {
                        f.end_ns = at_ns;
                    }
                    f.terminal = Some(terminal); // last terminal wins
                }
            }
        }
    }
    log.open = log.flights.iter().filter(|f| f.terminal.is_none()).count();
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    /// An enabled sidecar tracing every `stride`th transaction.
    fn recording(stride: u64) -> Obs {
        let o = Obs::new();
        o.set_enabled(true);
        o.flight.set_sample_every(stride);
        o
    }

    #[test]
    fn inactive_recorder_admits_nothing() {
        let o = Obs::new();
        assert!(!o.flight.active());
        assert!(!o.admit(0, 0, 0));
        assert_eq!(o.flight.admitted(), 0);
        assert_eq!(o.events.recorded(), 0);
        assert!(o.flight.trace_txn(7), "inactive stride traces every txn");
    }

    #[test]
    fn stride_samples_every_nth_txn_and_counts_the_rest() {
        let o = recording(4);
        let mut traced = 0;
        for txn in 0..16 {
            if o.admit(txn, 1, 0) {
                traced += 1;
                assert!(o.flight.trace_txn(txn));
            } else {
                assert!(!o.flight.trace_txn(txn), "unsampled txns are counter-only");
            }
        }
        assert_eq!(traced, 4);
        assert_eq!(o.flight.admitted(), 16);
        assert_eq!(o.flight.sampled_count(), 4);
        assert_eq!(o.events.recorded(), 4, "one Admit event per sampled txn");
    }

    #[test]
    fn assemble_builds_trees_and_resolves_causes() {
        let o = recording(1);
        assert!(o.admit(7, 2, 0));
        let op = OpSpan {
            kind: SpanKind::Read,
            segment: 1,
            key: 9,
            start_ns: 100,
            dur_ns: 50,
        };
        o.span(SpanEvent::Op { txn: 7, op });
        // Two block streaks: the first caused by t3, the second by t5.
        // Causes recorded at block points, waits by the
        // driver when each streak ends.
        o.span(SpanEvent::BlockCause {
            txn: 7,
            at_ns: 160,
            cause: WaitCause::TxnPending { txn: 3, class: 0 },
        });
        o.span(SpanEvent::Wait {
            txn: 7,
            start_ns: 155,
            dur_ns: 40,
            slept_ns: 10,
        });
        o.span(SpanEvent::BlockCause {
            txn: 7,
            at_ns: 210,
            cause: WaitCause::TxnPending { txn: 5, class: 1 },
        });
        o.span(SpanEvent::Wait {
            txn: 7,
            start_ns: 205,
            dur_ns: 30,
            slept_ns: 0,
        });
        // The scheduler's wall-release fact is kept, and foreign
        // decisions in the same slice are skipped.
        o.emit(TraceEvent::WallRelease {
            anchor: 42,
            released_at: 43,
            at_ns: 230,
        });
        o.emit(TraceEvent::GcReclaim {
            watermark: 1,
            reclaimed: 1,
        });
        o.span(SpanEvent::End {
            txn: 7,
            at_ns: 300,
            terminal: Terminal::Committed,
        });
        let log = assemble(&o.events.drain());
        assert_eq!(log.flights.len(), 1);
        assert_eq!(log.open, 0);
        assert_eq!(log.wall_releases, vec![(42, 230)]);
        let f = log.flight(7).unwrap();
        assert_eq!(f.class, 2);
        assert_eq!(f.terminal, Some(Terminal::Committed));
        assert_eq!(f.ops.len(), 1);
        assert_eq!(f.waits.len(), 2);
        assert_eq!(f.waits[0].cause, WaitCause::TxnPending { txn: 3, class: 0 });
        assert_eq!(f.waits[1].cause, WaitCause::TxnPending { txn: 5, class: 1 });
        assert_eq!(f.wait_ns(), 70);
        assert_eq!(f.end_ns, 300);
    }

    #[test]
    fn last_terminal_wins_and_open_flights_are_counted() {
        let o = recording(1);
        assert!(o.admit(1, 0, 0));
        o.span(SpanEvent::End {
            txn: 1,
            at_ns: 50,
            terminal: Terminal::Abandoned,
        });
        o.reaped(1, 0, 0);
        assert!(o.admit(2, 0, 1)); // never terminated: a leak
        let log = assemble(&o.events.drain());
        let f1 = log.flight(1).unwrap();
        assert_eq!(f1.terminal, Some(Terminal::Reaped), "reap supersedes");
        assert_eq!(f1.end_ns, 50, "first terminal fixes the end time");
        assert_eq!(log.open, 1);
        assert!(log.flight(2).unwrap().terminal.is_none());
    }

    #[test]
    fn unadmitted_events_are_dropped_and_reset_clears() {
        let o = recording(2);
        // The watchdog reaps an unsampled txn: assemble ignores it.
        o.reaped(5, 0, 0);
        let log = assemble(&o.events.drain());
        assert!(log.flights.is_empty());
        o.admit(2, 0, 0);
        o.reset();
        assert_eq!(o.events.recorded(), 0);
        assert_eq!(o.flight.admitted(), 0);
        assert_eq!(o.flight.sample_every(), 2, "stride is configuration");
    }

    #[test]
    fn labels_and_display_are_stable() {
        assert_eq!(SpanKind::Read.label(), "read");
        assert_eq!(Terminal::DeadlineExceeded.label(), "deadline-exceeded");
        assert_eq!(
            format!("{}", WaitCause::TxnPending { txn: 9, class: 1 }),
            "txn-pending(t9 c1)"
        );
        assert_eq!(
            format!(
                "{}",
                WaitCause::TxnPending {
                    txn: 9,
                    class: NO_CLASS
                }
            ),
            "txn-pending(t9)"
        );
    }
}
