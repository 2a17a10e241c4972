//! # obs — zero-dependency observability for the HDD workspace
//!
//! The paper's whole argument is a *cost* argument, yet flat counters
//! cannot say how the cost is *distributed* (latency histograms) or
//! *why* a protocol decided what it did (decision traces). This crate
//! supplies both, hand-rolled over `std` (the offline build forbids
//! crates.io, in the style of `compat-rand`), in three layers:
//!
//! 1. [`hist`] — log-bucketed HDR-style [`Histogram`] with ≤ ~6.25%
//!    quantile error, and [`recorder::LatencyRecorder`] striping whole
//!    histograms per worker thread;
//! 2. [`ring`] — the workspace's one striped ticket log,
//!    [`TicketRing`]; [`Obs`] keeps **one** bounded instance of it, the
//!    event log, holding both structured [`TraceEvent`]s (Protocol A
//!    cross-read decisions, rejection reason codes, time-wall
//!    evaluations, GC batches) and the flight recorder's [`SpanEvent`]s;
//! 3. [`Obs`] / [`ObsSnapshot`] — the per-scheduler sidecar bundling the
//!    recorders behind **one atomic enable flag** (default off: a single
//!    relaxed load per instrumentation site), plus hand-rolled JSON
//!    export. The scheduler reports *facts* through one hook per fact
//!    ([`Obs::began`] … [`Obs::committed`]); which sinks record a fact,
//!    under which stride and flag, is decided here and nowhere else.
//!
//! `obs` sits *below* `txn-model` so `Metrics` can embed an [`Obs`]
//! without a dependency cycle; that is why trace events carry raw
//! integers instead of the workspace newtypes.

#![warn(missing_docs)]

pub mod blame;
pub mod drift;
pub mod export;
pub mod gauges;
pub mod hist;
pub mod recorder;
pub mod ring;
pub mod span;
pub mod trace;

pub use blame::{critical_chain, BlameReport, CauseBucket, ChainHop, PhaseBreakdown};
pub use drift::{
    ClassDrift, DriftBoard, DriftCell, DriftEdge, DriftSnapshot, DriftTrip,
    DEFAULT_DRIFT_THRESHOLD_MILLI,
};
pub use export::{
    chrome_trace, flight_chrome_trace, prometheus_text, prometheus_text_full,
    validate_chrome_trace, validate_prometheus,
};
pub use gauges::{ClassGauges, GaugeBoard, GaugeSnapshot, StalenessCell, WALL_READER};
pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::LatencyRecorder;
pub use ring::TicketRing;
pub use span::{
    assemble, FlightLog, FlightRecorder, SpanEvent, SpanKind, Terminal, TxnFlight, WaitCause,
    NO_CLASS,
};
pub use trace::{FaultCode, RejectReason, ServedRead, TraceEvent};

use mc::sync::{AtomicBool, Ordering};

/// One record of the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A protocol decision (see [`trace`]).
    Decision(TraceEvent),
    /// A flight-recorder span record (see [`span`]).
    Span(SpanEvent),
}

impl Event {
    /// The protocol decision, for the consumers that skip span records.
    pub fn decision(&self) -> Option<&TraceEvent> {
        match self {
            Event::Decision(d) => Some(d),
            Event::Span(_) => None,
        }
    }
}

/// The observability sidecar carried by every scheduler's `Metrics`.
///
/// All recording dimensions share the [`Obs::enabled`] flag; every hook
/// checks it first (one relaxed load) and skips clock reads and
/// recording entirely when tracing is off, which is what keeps the
/// disabled-mode overhead under the 5% budget.
#[derive(Debug, Default)]
pub struct Obs {
    enabled: AtomicBool,
    /// Transaction commit latency in nanoseconds: work-claim to commit,
    /// including restarts and backoff (recorded by the driver).
    pub commit_latency: LatencyRecorder,
    /// Per-operation service time in nanoseconds: one scheduler
    /// `read`/`write`/`commit` call (recorded by the driver).
    pub op_service: LatencyRecorder,
    /// Blocked-operation wait in nanoseconds: first `Block` outcome to
    /// eventual grant of the same step (recorded by the driver).
    pub block_wait: LatencyRecorder,
    /// Actual driver backoff sleep lengths in nanoseconds.
    pub backoff_sleep: LatencyRecorder,
    /// Activity-registry intervals examined per Protocol A bound
    /// evaluation (a length, not a latency; the O(active) claim, as a
    /// distribution).
    pub registry_scan: LatencyRecorder,
    /// The one event log: protocol decisions and flight-recorder span
    /// records in one ticket order, bounded per stripe. [`assemble`],
    /// [`chrome_trace`] and `certify::attach_trace` all read the same
    /// drained slice and skip what is not theirs.
    pub events: TicketRing<Event>,
    /// Live gauge board: time-wall/staleness/registry/store levels,
    /// refreshed by the scheduler's maintenance tick (see
    /// [`gauges::GaugeBoard`]).
    pub gauges: GaugeBoard,
    /// Flight-recorder stride, counters and span clock (see [`span`]).
    /// Inert until both [`Obs::enabled`] and a sampling stride are set.
    pub flight: FlightRecorder,
    /// Workload-drift sketch: access-frequency/co-access counters with
    /// EWMA baselines, drift scores and wall-drag blame (see [`drift`]).
    /// Inert until both [`Obs::enabled`] and its own enable flag are
    /// set, so drift overhead is measurable against an obs-on baseline.
    pub drift: DriftBoard,
}

impl Obs {
    /// A fresh, disabled sidecar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dimension the gauge and drift boards to a hierarchy (first
    /// caller wins; later calls are no-ops).
    pub fn configure(&self, n_classes: u32, n_segments: u32) {
        self.gauges.configure(n_classes, n_segments);
        self.drift.configure(n_classes, n_segments);
    }

    /// True when recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ordering: Relaxed — advisory on/off flag; a racing emit may land
        // on either side of the flip, both outcomes are documented.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (callers that captured state before
    /// the flip may still record once; the log and histograms stay
    /// valid either way).
    pub fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — advisory flag flip, see enabled().
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Log a decision event if enabled — the hook for facts that reach
    /// no other sink (rejections, injected faults).
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if self.enabled() {
            self.events.push(Event::Decision(ev));
        }
    }

    /// Log one span record of a flight [`Obs::admit`] said to trace.
    #[inline]
    pub fn span(&self, ev: SpanEvent) {
        self.events.push(Event::Span(ev));
    }

    /// The driver admitted a transaction: counts it and, when it falls
    /// on the flight stride, logs its [`SpanEvent::Admit`] and returns
    /// `true` — the driver then records the rest of the flight.
    pub fn admit(&self, txn: u64, class: u32, worker: u32) -> bool {
        let traced = self.flight.admit(txn);
        if traced {
            let at_ns = self.flight.now_ns();
            self.span(SpanEvent::Admit {
                txn,
                class,
                worker,
                at_ns,
            });
        }
        traced
    }

    /// The scheduler began a transaction of `class` (`u32::MAX`: read-
    /// only) declaring `reads` and `writes`. Drift sketch only: the
    /// arrival, and the profile folded into the co-access matrix by the
    /// DHG arc rule (writer segment → every accessed segment, diagonal
    /// for the write itself) — O(|W|·|R∪W|), single digits here.
    #[inline]
    pub fn began(
        &self,
        class: u32,
        reads: impl Iterator<Item = u32> + Clone,
        writes: impl Iterator<Item = u32> + Clone,
    ) {
        if self.enabled() && self.drift.enabled() {
            self.drift.note_begin(class);
            for w in writes.clone() {
                self.drift.record_edge(w, w);
                for a in reads.clone().chain(writes.clone()).filter(|&a| a != w) {
                    self.drift.record_edge(w, a);
                }
            }
        }
    }

    /// The sinks both unregistered-read facts share; `true` when the
    /// read is also decision-traced. Drift counts every read (sampling
    /// would skew the share vector); staleness and the decision follow
    /// the flight stride, so unsampled transactions stay counter-only.
    #[inline]
    fn read_served(&self, reader_row: u32, r: &ServedRead) -> bool {
        if !self.enabled() {
            return false;
        }
        if self.drift.enabled() {
            self.drift.record_access(reader_row, r.segment);
        }
        if !self.flight.trace_txn(r.txn) {
            return false;
        }
        // How far behind the reader's logical present the version is:
        // strictly positive on Protocol A rows; wall rows saturate to 0
        // when a reader predates the wall it adopted (DESIGN.md §10).
        let staleness = r.start.saturating_sub(r.version);
        self.gauges
            .record_staleness(reader_row, r.segment, staleness);
        true
    }

    /// Protocol A served `read` to a transaction of (or a read-only one
    /// anchored below) `reader_class`; computing the activity-link bound
    /// scanned `scanned` registry intervals.
    #[inline]
    pub fn cross_read(&self, reader_class: u32, read: ServedRead, scanned: u64) {
        if self.read_served(reader_class, &read) {
            self.registry_scan.record(scanned);
            let ev = TraceEvent::CrossRead { reader_class, read };
            self.events.push(Event::Decision(ev));
        }
    }

    /// Protocol C served `read` below the wall anchored at `anchor`.
    #[inline]
    pub fn wall_read(&self, anchor: u64, read: ServedRead) {
        if self.read_served(WALL_READER, &read) {
            let ev = TraceEvent::WallRead { anchor, read };
            self.events.push(Event::Decision(ev));
        }
    }

    /// A cause edge, for sampled flights only — so is resolving `cause`.
    #[inline]
    fn blocked(&self, txn: u64, cause: impl FnOnce() -> WaitCause) {
        if self.enabled() && self.flight.sampled(txn) {
            let (at_ns, cause) = (self.flight.now_ns(), cause());
            self.span(SpanEvent::BlockCause { txn, at_ns, cause });
        }
    }

    /// `txn` blocked on `holder`'s pending version: the wait ends when
    /// `holder` (of class `holder_class()`) commits or aborts.
    #[inline]
    pub fn blocked_on_txn(&self, txn: u64, holder: u64, holder_class: impl FnOnce() -> u32) {
        self.blocked(txn, || {
            let class = holder_class();
            WaitCause::TxnPending { txn: holder, class }
        });
    }

    /// `txn` blocked on the time-wall service (Protocol C before any
    /// release): the wait ends at the next wall release.
    /// `pending_anchor()` is 0 when no wall is pending.
    #[inline]
    pub fn blocked_on_wall(&self, txn: u64, pending_anchor: impl FnOnce() -> u64) {
        self.blocked(txn, || {
            let anchor = pending_anchor();
            WaitCause::WallPending { anchor }
        });
    }

    /// The time-wall service released the wall anchored at `anchor` at
    /// logical time `released_at`.
    #[inline]
    pub fn wall_released(&self, anchor: u64, released_at: u64) {
        if self.enabled() {
            let at_ns = self.flight.now_ns();
            let ev = TraceEvent::WallRelease {
                anchor,
                released_at,
                at_ns,
            };
            self.events.push(Event::Decision(ev));
        }
    }

    /// Garbage collection ran at `watermark` and reclaimed `reclaimed`
    /// versions (a decision event only when it reclaimed something).
    #[inline]
    pub fn gc_ran(&self, watermark: u64, reclaimed: u64) {
        if self.enabled() {
            self.gauges.set_gc_watermark(watermark);
            if reclaimed > 0 {
                let ev = TraceEvent::GcReclaim {
                    watermark,
                    reclaimed,
                };
                self.events.push(Event::Decision(ev));
            }
        }
    }

    /// The straggler watchdog reaped `txn` (initiated at `start`)
    /// `overdue_micros` past its lease.
    #[inline]
    pub fn reaped(&self, txn: u64, start: u64, overdue_micros: u64) {
        if self.enabled() {
            let at_ns = self.flight.now_ns();
            let ev = TraceEvent::WatchdogAbort {
                txn,
                start,
                overdue_micros,
                at_ns,
            };
            self.events.push(Event::Decision(ev));
        }
    }

    /// The scheduler committed a transaction of `class` (`u32::MAX`:
    /// read-only).
    #[inline]
    pub fn committed(&self, class: u32) {
        if self.enabled() && self.drift.enabled() {
            self.drift.note_commit(class);
        }
    }

    /// A gauge refresh saw `dragger` — the class whose wall component
    /// sits at the released floor — at logical time `now`.
    pub fn wall_floor_held(&self, dragger: Option<u32>, now: u64) {
        if self.drift.enabled() {
            self.drift.note_wall_floor(dragger, now);
        }
    }

    /// Fold the drift sketch, if it is on: score the interval since the
    /// previous fold against the EWMA baselines and, on a fresh
    /// threshold crossing, log a `drift-trip` decision event.
    pub fn fold_drift(&self) {
        if !self.drift.enabled() {
            return;
        }
        if let Some(trip) = self.drift.fold() {
            self.emit(TraceEvent::DriftTrip {
                fold: trip.fold,
                score_milli: trip.score_milli,
                threshold_milli: trip.threshold_milli,
                dragger_class: trip.dragger.unwrap_or(u32::MAX),
            });
        }
    }

    /// Copy every dimension.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            commit_latency: self.commit_latency.snapshot(),
            op_service: self.op_service.snapshot(),
            block_wait: self.block_wait.snapshot(),
            backoff_sleep: self.backoff_sleep.snapshot(),
            registry_scan: self.registry_scan.snapshot(),
            trace_recorded: self.events.recorded(),
            trace_dropped: self.events.dropped(),
        }
    }

    /// Clear every histogram, the event log, the gauge board, the
    /// flight counters and the drift sketch (the enable flags, board
    /// configurations and the sampling stride are left as-is).
    pub fn reset(&self) {
        self.commit_latency.reset();
        self.op_service.reset();
        self.block_wait.reset();
        self.backoff_sleep.reset();
        self.registry_scan.reset();
        self.events.reset();
        self.gauges.reset();
        self.flight.reset();
        self.drift.reset();
    }
}

/// A point-in-time copy of every [`Obs`] dimension.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// See [`Obs::commit_latency`].
    pub commit_latency: HistogramSnapshot,
    /// See [`Obs::op_service`].
    pub op_service: HistogramSnapshot,
    /// See [`Obs::block_wait`].
    pub block_wait: HistogramSnapshot,
    /// See [`Obs::backoff_sleep`].
    pub backoff_sleep: HistogramSnapshot,
    /// See [`Obs::registry_scan`].
    pub registry_scan: HistogramSnapshot,
    /// Events recorded over the run — decisions *and* span records: the
    /// event log is one ring, so this is its one total.
    pub trace_recorded: u64,
    /// Events evicted by wrap-around of the event log. An evicted
    /// `BlockCause` turns a wait `Unattributed`; this is where it shows.
    pub trace_dropped: u64,
}

impl ObsSnapshot {
    /// Interval view against an `earlier` snapshot of the same sidecar:
    /// each histogram becomes its saturating
    /// [`HistogramSnapshot::delta`] and the trace counters subtract
    /// saturating, so a reset (or crash/recovery resume) between the
    /// snapshots clamps to zero instead of wrapping — the same contract
    /// as `MetricsSnapshot::delta`.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        ObsSnapshot {
            commit_latency: self.commit_latency.delta(&earlier.commit_latency),
            op_service: self.op_service.delta(&earlier.op_service),
            block_wait: self.block_wait.delta(&earlier.block_wait),
            backoff_sleep: self.backoff_sleep.delta(&earlier.backoff_sleep),
            registry_scan: self.registry_scan.delta(&earlier.registry_scan),
            trace_recorded: self.trace_recorded.saturating_sub(earlier.trace_recorded),
            trace_dropped: self.trace_dropped.saturating_sub(earlier.trace_dropped),
        }
    }

    /// Hand-rolled JSON object over every dimension (no serde in the
    /// offline build).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n      \"commit_latency_ns\": {},\n      \"op_service_ns\": {},\n      \
             \"block_wait_ns\": {},\n      \"backoff_sleep_ns\": {},\n      \
             \"registry_scan_len\": {},\n      \"trace_recorded\": {},\n      \
             \"trace_dropped\": {}\n    }}",
            self.commit_latency.to_json(),
            self.op_service.to_json(),
            self.block_wait.to_json(),
            self.backoff_sleep.to_json(),
            self.registry_scan.to_json(),
            self.trace_recorded,
            self.trace_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GC: TraceEvent = TraceEvent::GcReclaim {
        watermark: 5,
        reclaimed: 3,
    };

    #[test]
    fn disabled_by_default_and_emit_respects_flag() {
        let o = Obs::new();
        assert!(!o.enabled());
        o.emit(GC);
        assert_eq!(o.events.recorded(), 0);
        o.set_enabled(true);
        o.emit(GC);
        assert_eq!(o.events.recorded(), 1);
        o.set_enabled(false);
        o.emit(GC);
        assert_eq!(o.events.recorded(), 1);
    }

    #[test]
    fn obs_delta_saturates_across_reset() {
        let o = Obs::new();
        o.set_enabled(true);
        o.commit_latency.record(100);
        o.emit(GC);
        let before = o.snapshot();
        o.reset(); // recovery/resume mid-interval
        o.commit_latency.record(50);
        let d = o.snapshot().delta(&before);
        assert_eq!(d.commit_latency.count, 1);
        assert_eq!(d.trace_recorded, 0, "clamped, not wrapped");
        assert_eq!(d.trace_dropped, 0);
    }

    #[test]
    fn reset_clears_the_gauge_board_too() {
        let o = Obs::new();
        o.gauges.configure(1, 1);
        o.gauges.record_staleness(0, 0, 5);
        o.gauges.set_driver_progress(3, 4);
        o.reset();
        let g = o.gauges.snapshot();
        assert!(g.configured);
        assert!(g.staleness.is_empty());
        assert_eq!(g.driver_claimed, 0);
    }

    #[test]
    fn snapshot_round_trips_to_json() {
        let o = Obs::new();
        o.set_enabled(true);
        o.commit_latency.record(1500);
        o.block_wait.record(80);
        o.emit(GC);
        let s = o.snapshot();
        assert_eq!(s.commit_latency.count, 1);
        assert_eq!(s.trace_recorded, 1);
        let json = s.to_json();
        assert!(json.contains("\"commit_latency_ns\""));
        assert!(json.contains("\"trace_recorded\": 1"));
        o.reset();
        assert!(o.snapshot().commit_latency.is_empty());
        assert!(o.enabled(), "reset leaves the flag alone");
    }

    #[test]
    fn evicted_span_records_show_in_the_one_dropped_total() {
        // A flight whose BlockCause was evicted reads `Unattributed`;
        // the scrape must say the log dropped something.
        let o = Obs {
            events: TicketRing::bounded(1),
            ..Obs::default()
        };
        o.set_enabled(true);
        o.flight.set_sample_every(1);
        assert!(o.admit(7, 0, 0));
        o.blocked_on_txn(7, 3, || 0);
        o.span(SpanEvent::End {
            txn: 7,
            at_ns: 9,
            terminal: Terminal::Committed,
        });
        let s = o.snapshot();
        assert_eq!(s.trace_recorded, 3);
        assert_eq!(s.trace_dropped, 2, "span evictions are counted");
        let text = prometheus_text(&[], &s, &o.gauges.snapshot());
        assert!(text.contains("hdd_trace_recorded_total 3\n"), "{text}");
        assert!(text.contains("hdd_trace_dropped_total 2\n"), "{text}");
    }

    #[test]
    fn each_hook_is_inert_when_disabled_and_feeds_its_sinks_when_on() {
        let o = Obs::new();
        o.gauges.configure(2, 2);
        o.drift.configure(2, 2);
        o.drift.set_enabled(true);
        let read = ServedRead {
            txn: 4,
            start: 10,
            target_class: 0,
            segment: 0,
            key: 1,
            bound: 8,
            version: 5,
        };
        let fire = || {
            o.began(1, [0u32].into_iter(), [1u32].into_iter());
            o.cross_read(1, read, 3);
            o.wall_read(6, read);
            o.blocked_on_txn(4, 2, || unreachable!("flight not sampled"));
            o.blocked_on_wall(4, || unreachable!("flight not sampled"));
            o.wall_released(6, 7);
            o.gc_ran(5, 0);
            o.gc_ran(5, 2);
            o.reaped(4, 10, 1);
            o.committed(1);
        };
        fire();
        assert_eq!(o.events.recorded(), 0);
        assert_eq!(o.registry_scan.count(), 0);
        assert!(o.gauges.snapshot().staleness.is_empty());
        assert_eq!(o.drift.snapshot().cells.len(), 0);

        o.set_enabled(true);
        fire();
        let kinds: Vec<&str> = o
            .events
            .drain()
            .iter()
            .map(|(_, e)| e.decision().map_or("span", TraceEvent::kind))
            .collect();
        assert_eq!(
            kinds,
            [
                "cross-read",
                "wall-read",
                "wall-release",
                "gc-reclaim",
                "watchdog-abort"
            ]
        );
        assert_eq!(o.registry_scan.count(), 1, "Protocol A reads only");
        let staleness: u64 = o
            .gauges
            .snapshot()
            .staleness
            .iter()
            .map(|c| c.hist.count)
            .sum();
        assert_eq!(staleness, 2);
        let drift = o.drift.snapshot();
        assert_eq!(drift.cells.iter().map(|c| c.count).sum::<u64>(), 2);
        assert_eq!(o.gauges.snapshot().gc_watermark, 5);

        // Sampled mode: an off-stride transaction stays counter-only
        // (drift still counts it), an on-stride block gets its cause.
        o.flight.set_sample_every(3);
        o.cross_read(1, read, 3); // txn 4: off stride
        assert_eq!(o.events.recorded(), 5);
        assert_eq!(
            o.drift
                .snapshot()
                .cells
                .iter()
                .map(|c| c.count)
                .sum::<u64>(),
            3
        );
        o.blocked_on_txn(6, 2, || 1);
        o.blocked_on_wall(6, || 9);
        assert_eq!(o.events.recorded(), 7);
    }
}
