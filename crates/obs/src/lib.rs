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
//!    ([`Obs::began`] … [`Obs::reaped`]); which sinks record a fact,
//!    under which stride and flag, is decided here and nowhere else.
//!
//! `obs` sits *below* `txn-model` so `Metrics` can embed an [`Obs`]
//! without a dependency cycle; that is why trace events carry raw
//! integers instead of the workspace newtypes.

#![warn(missing_docs)]

pub mod blame;
pub mod export;
pub mod gauges;
pub mod hist;
pub mod recorder;
pub mod ring;
pub mod shapes;
pub mod span;
pub mod trace;

pub use blame::{critical_chain, BlameReport, CauseBucket, ChainHop, PhaseBreakdown};
pub use export::{
    chrome_trace, flight_chrome_trace, prometheus_text, validate_chrome_trace, validate_prometheus,
};
pub use gauges::{ClassGauges, GaugeBoard, GaugeSnapshot, StalenessCell, WALL_READER};
pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::LatencyRecorder;
pub use ring::TicketRing;
pub use shapes::{Shape, ShapeSnapshot, ShapeTable, MAX_SHAPES};
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

/// Declares each latency recorder once, with its export key. The one
/// list yields the [`Obs`] and [`ObsSnapshot`] fields, the copy, the
/// reset and the rows JSON and Prometheus iterate over.
macro_rules! recorders {
    ($($(#[doc = $doc:literal])+ $name:ident: $key:literal,)+) => {
        /// The observability sidecar carried by every scheduler's `Metrics`.
        ///
        /// All recording dimensions share the [`Obs::enabled`] flag; every hook
        /// checks it first (one relaxed load) and skips clock reads and
        /// recording entirely when tracing is off, which is what keeps the
        /// disabled-mode overhead under the 5% budget.
        #[derive(Debug, Default)]
        pub struct Obs {
            enabled: AtomicBool,
            $($(#[doc = $doc])+ pub $name: LatencyRecorder,)+
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
            /// Observed transaction shapes, the advisor's input (see
            /// [`shapes`]). Inert until both [`Obs::enabled`] and its own
            /// enable flag are set.
            pub shapes: ShapeTable,
        }

        /// A point-in-time copy of every [`Obs`] dimension.
        #[derive(Debug, Clone, Default)]
        pub struct ObsSnapshot {
            $(#[doc = concat!("See [`Obs::", stringify!($name), "`].")] pub $name: HistogramSnapshot,)+
            /// Events recorded over the run — decisions *and* span records: the
            /// event log is one ring, so this is its one total.
            pub trace_recorded: u64,
            /// Events evicted by wrap-around of the event log. An evicted
            /// `BlockCause` turns a wait `Unattributed`; this is where it shows.
            pub trace_dropped: u64,
            /// The gauge board.
            pub gauges: GaugeSnapshot,
            /// The shape table.
            pub shapes: ShapeSnapshot,
        }

        impl Obs {
            /// Copy every dimension: the one read every exporter takes.
            pub fn snapshot(&self) -> ObsSnapshot {
                ObsSnapshot {
                    $($name: self.$name.snapshot(),)+
                    trace_recorded: self.events.recorded(),
                    trace_dropped: self.events.dropped(),
                    gauges: self.gauges.snapshot(),
                    shapes: self.shapes.snapshot(),
                }
            }

            /// Clear every histogram, the event log, the gauge board, the
            /// flight counters and the shape counts (the enable flags, the
            /// board's dimensions and the sampling stride are left as-is).
            pub fn reset(&self) {
                $(self.$name.reset();)+
                self.events.reset();
                self.gauges.reset();
                self.flight.reset();
                self.shapes.reset();
            }
        }

        impl ObsSnapshot {
            /// `(export key, histogram)` per recorder, in declaration order.
            pub(crate) fn recorders(&self) -> Vec<(&'static str, &HistogramSnapshot)> {
                vec![$(($key, &self.$name),)+]
            }
        }
    };
}

recorders! {
    /// Transaction commit latency in nanoseconds: work-claim to commit,
    /// including restarts and backoff (recorded by the driver).
    commit_latency: "commit_latency_ns",
    /// Per-operation service time in nanoseconds: one scheduler
    /// `read`/`write`/`commit` call (recorded by the driver).
    op_service: "op_service_ns",
    /// Blocked-operation wait in nanoseconds: first `Block` outcome to
    /// eventual grant of the same step (recorded by the driver).
    block_wait: "block_wait_ns",
    /// Actual driver backoff sleep lengths in nanoseconds.
    backoff_sleep: "backoff_sleep_ns",
    /// Activity-registry intervals examined per Protocol A registry
    /// walk: index probes plus active-window entries (a length, not a
    /// latency; the O(log history + active window) claim, as a
    /// distribution). A bound served from the transaction's cache walks
    /// nothing and records nothing.
    registry_scan: "registry_scan_len",
}

impl Obs {
    /// A fresh, disabled sidecar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dimension the gauge board to a hierarchy (first caller wins;
    /// later calls are no-ops).
    pub fn configure(&self, n_classes: u32, n_segments: u32) {
        self.gauges.configure(n_classes, n_segments);
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
    /// only) declaring `reads` and `writes`. Shape table only: one count
    /// of the normalised shape.
    #[inline]
    pub fn began(
        &self,
        class: u32,
        reads: impl Iterator<Item = u32>,
        writes: impl Iterator<Item = u32>,
    ) {
        if self.enabled() && self.shapes.enabled() {
            self.shapes.record(Shape::new(class, reads, writes));
        }
    }

    /// The sinks both unregistered-read facts share (plus the registry
    /// scan, Protocol A registry walks only); `true` when the read is also
    /// decision-traced. Every aggregate counts every read, and the flight
    /// stride thins only the event log.
    #[inline]
    fn read_served(&self, reader_row: u32, r: &ServedRead, scanned: Option<u64>) -> bool {
        if !self.enabled() {
            return false;
        }
        self.gauges
            .record_staleness(reader_row, r.segment, r.staleness());
        if let Some(n) = scanned {
            self.registry_scan.record(n);
        }
        self.flight.trace_txn(r.txn)
    }

    /// Protocol A served `read` to a transaction of (or a read-only one
    /// anchored below) `reader_class`; walking the registry for the
    /// activity-link bound scanned `scanned` intervals (`None`: the
    /// transaction's cached bound, no walk).
    #[inline]
    pub fn cross_read(&self, reader_class: u32, read: ServedRead, scanned: Option<u64>) {
        if self.read_served(reader_class, &read, scanned) {
            let ev = TraceEvent::CrossRead { reader_class, read };
            self.events.push(Event::Decision(ev));
        }
    }

    /// Protocol C served `read` below the wall anchored at `anchor`.
    #[inline]
    pub fn wall_read(&self, anchor: u64, read: ServedRead) {
        if self.read_served(WALL_READER, &read, None) {
            let ev = TraceEvent::WallRead { anchor, read };
            self.events.push(Event::Decision(ev));
        }
    }

    /// `txn` blocked on `holder`'s pending version: the wait ends when
    /// `holder` (of class `holder_class()`) commits or aborts. A cause
    /// edge, for sampled flights only — so is resolving the class.
    #[inline]
    pub fn blocked_on_txn(&self, txn: u64, holder: u64, holder_class: impl FnOnce() -> u32) {
        if self.enabled() && self.flight.sampled(txn) {
            let at_ns = self.flight.now_ns();
            let class = holder_class();
            let cause = WaitCause::TxnPending { txn: holder, class };
            self.span(SpanEvent::BlockCause { txn, at_ns, cause });
        }
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
}

impl ObsSnapshot {
    /// Hand-rolled JSON object over every dimension (no serde in the
    /// offline build).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (key, h) in self.recorders() {
            s.push_str(&format!("\n      \"{key}\": {},", h.to_json()));
        }
        format!(
            "{s}\n      \"trace_recorded\": {},\n      \"trace_dropped\": {}\n    }}",
            self.trace_recorded, self.trace_dropped
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
        let text = prometheus_text(&[], &s);
        assert!(text.contains("hdd_trace_recorded_total 3\n"), "{text}");
        assert!(text.contains("hdd_trace_dropped_total 2\n"), "{text}");
    }

    /// A fully populated sidecar: every gauge level non-zero, class
    /// rows, segment walls, wall-drag blame, two staleness cells, every
    /// recorder, and one counted shape.
    fn populated() -> Obs {
        let o = Obs::new();
        o.configure(2, 3);
        o.set_enabled(true);
        o.shapes.set_enabled(true);
        let g = &o.gauges;
        g.set_clock(120);
        g.set_wall(100, 104, 96, 24);
        g.set_class(0, 3, 2, 1);
        g.set_class(1, 5, 1, 2);
        g.set_wall_component(0, 96);
        g.set_wall_component(1, 101);
        for (seg, ts) in [(0, 96), (1, 101), (2, 101)] {
            g.set_segment_wall(seg, ts);
        }
        g.set_activity(3, 17, 3);
        g.set_store(640, 320, 4, 12);
        g.set_driver_progress(250, 1000);
        g.record_wal_batch(6, 768, 2_000);
        g.set_recovery_progress(40, 1);
        o.gc_ran(90, 7);
        for txn in 0..16u64 {
            let read = ServedRead {
                txn,
                start: 50 + txn % 4,
                target_class: 0,
                segment: 0,
                key: 1,
                bound: 48,
                version: 40,
            };
            o.cross_read(1, read, Some(2));
            if txn % 2 == 0 {
                let read = ServedRead {
                    segment: 2,
                    target_class: 1,
                    version: 52,
                    bound: 58,
                    start: 60,
                    ..read
                };
                o.wall_read(100, read);
            }
            o.began(1, [0u32].into_iter(), [1u32].into_iter());
        }
        g.note_wall_floor(Some(0), 110);
        g.note_wall_floor(Some(1), 118);
        o.commit_latency.record(1_500);
        o.op_service.record(200);
        o.block_wait.record(80);
        o.backoff_sleep.record(1_000);
        o
    }

    const GAUGES_GOLDEN: &str = "{\"configured\": true, \"n_classes\": 2, \"n_segments\": 3, \
        \"clock_now\": 120, \"wall_anchor\": 100, \"wall_released_at\": 104, \
        \"wall_floor\": 96, \"wall_lag\": 24, \"active_txns\": 3, \"registry_intervals\": 17, \
        \"registry_settled_lag\": 3, \"store_versions\": 640, \"store_granules\": 320, \
        \"store_max_chain\": 4, \"gc_watermark\": 90, \"gc_backlog\": 12, \
        \"driver_claimed\": 250, \"driver_offered\": 1000, \"wal_batches\": 1, \
        \"wal_frames\": 6, \"wal_bytes\": 768, \"recovery_replayed\": 40, \
        \"recovery_anomalies\": 1, \"fsync_ns\": {\"count\": 1, \"sum\": 2000, \
        \"min\": 2000, \"max\": 2000, \"mean\": 2000.0, \"p50\": 2000, \"p95\": 2000, \
        \"p99\": 2000, \"buckets\": [[127, 1984, 1]]}, \"classes\": [{\"class\": 0, \
        \"i_old\": 3, \"active\": 2, \"settled_lag\": 1, \"wall_component\": 96, \
        \"drag_blame\": 1}, {\"class\": 1, \"i_old\": 5, \"active\": 1, \"settled_lag\": 2, \
        \"wall_component\": 101, \"drag_blame\": 1}], \"segment_walls\": [96, 101, 101], \
        \"drag_class\": 1, \"drag_held_ticks\": 0, \"drag_hist\": {\"count\": 1, \"sum\": 8, \
        \"min\": 8, \"max\": 8, \"mean\": 8.0, \"p50\": 8, \"p95\": 8, \"p99\": 8, \
        \"buckets\": [[8, 8, 1]]}, \"staleness\": \
        [{\"reader\": \"c1\", \"segment\": 0, \"hist\": {\"count\": 16, \"sum\": 184, \
        \"min\": 10, \"max\": 13, \"mean\": 11.5, \"p50\": 11, \"p95\": 13, \"p99\": 13, \
        \"buckets\": [[10, 10, 4], [11, 11, 4], [12, 12, 4], [13, 13, 4]]}}, \
        {\"reader\": \"wall\", \"segment\": 2, \"hist\": {\"count\": 8, \"sum\": 64, \
        \"min\": 8, \"max\": 8, \"mean\": 8.0, \"p50\": 8, \"p95\": 8, \"p99\": 8, \
        \"buckets\": [[8, 8, 8]]}}]}";

    const SHAPES_GOLDEN: &str = "{\"enabled\": true, \"overflow\": 0, \"shapes\": \
        [{\"class\": 1, \"reads\": [0], \"writes\": [1], \"count\": 16}]}";

    const OBS_GOLDEN: &str = "{\n      \"commit_latency_ns\": {\"count\": 1, \"sum\": 1500, \
        \"min\": 1500, \"max\": 1500, \"mean\": 1500.0, \"p50\": 1500, \"p95\": 1500, \
        \"p99\": 1500, \"buckets\": [[119, 1472, 1]]},\n      \"op_service_ns\": \
        {\"count\": 1, \"sum\": 200, \"min\": 200, \"max\": 200, \"mean\": 200.0, \
        \"p50\": 200, \"p95\": 200, \"p99\": 200, \"buckets\": [[73, 200, 1]]},\n      \
        \"block_wait_ns\": {\"count\": 1, \"sum\": 80, \"min\": 80, \"max\": 80, \
        \"mean\": 80.0, \"p50\": 80, \"p95\": 80, \"p99\": 80, \
        \"buckets\": [[52, 80, 1]]},\n      \"backoff_sleep_ns\": {\"count\": 1, \
        \"sum\": 1000, \"min\": 1000, \"max\": 1000, \"mean\": 1000.0, \"p50\": 1000, \
        \"p95\": 1000, \"p99\": 1000, \"buckets\": [[111, 992, 1]]},\n      \
        \"registry_scan_len\": {\"count\": 16, \"sum\": 32, \"min\": 2, \"max\": 2, \
        \"mean\": 2.0, \"p50\": 2, \"p95\": 2, \"p99\": 2, \"buckets\": [[2, 2, 16]]},\n      \
        \"trace_recorded\": 25,\n      \"trace_dropped\": 0\n    }";

    #[test]
    fn json_goldens_on_a_fully_populated_sidecar() {
        // Byte-exact: the three snapshot documents `hdd-top --once`
        // prints are part of the contract.
        let s = populated().snapshot();
        assert_eq!(s.gauges.to_json(), GAUGES_GOLDEN);
        assert_eq!(s.shapes.to_json(), SHAPES_GOLDEN);
        assert_eq!(s.to_json(), OBS_GOLDEN);
    }

    #[test]
    fn at_stride_3_every_aggregate_counts_every_read_and_the_log_one() {
        let o = Obs::new();
        o.configure(2, 2);
        o.set_enabled(true);
        o.flight.set_sample_every(3);
        for txn in [3u64, 4, 5] {
            let read = ServedRead {
                txn,
                start: 10,
                target_class: 0,
                segment: 0,
                key: 1,
                bound: 8,
                version: 5,
            };
            o.cross_read(1, read, Some(2));
        }
        let s = o.snapshot();
        let staleness: u64 = s.gauges.staleness.iter().map(|c| c.hist.count).sum();
        assert_eq!(staleness, 3, "staleness counts unsampled reads too");
        assert_eq!(s.registry_scan.count, 3);
        let events = o.events.drain();
        assert_eq!(events.len(), 1, "only the sampled txn's decision");
        assert_eq!(events[0].1.decision().and_then(TraceEvent::txn), Some(3));
    }

    #[test]
    fn each_hook_is_inert_when_disabled_and_feeds_its_sinks_when_on() {
        let o = Obs::new();
        o.gauges.configure(2, 2);
        o.shapes.set_enabled(true);
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
            o.cross_read(1, read, Some(3));
            o.wall_read(6, read);
            o.blocked_on_txn(4, 2, || unreachable!("flight not sampled"));
            o.wall_released(6, 7);
            o.gc_ran(5, 0);
            o.gc_ran(5, 2);
            o.reaped(4, 10, 1);
        };
        fire();
        assert_eq!(o.events.recorded(), 0);
        assert_eq!(o.registry_scan.count(), 0);
        assert!(o.snapshot().gauges.staleness.is_empty());
        assert_eq!(o.snapshot().shapes.begins(), 0);

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
        assert_eq!(o.snapshot().shapes.begins(), 1);
        assert_eq!(o.gauges.snapshot().gc_watermark, 5);

        // Sampled mode: an off-stride transaction reaches every
        // aggregate but not the event log; an on-stride block gets its
        // cause.
        o.flight.set_sample_every(3);
        o.cross_read(1, read, Some(3)); // txn 4: off stride
        assert_eq!(o.events.recorded(), 5);
        let s = o.snapshot();
        assert_eq!(
            s.gauges.staleness.iter().map(|c| c.hist.count).sum::<u64>(),
            3
        );
        assert_eq!(s.registry_scan.count, 2);
        o.blocked_on_txn(6, 2, || 1);
        assert_eq!(o.events.recorded(), 6);
    }
}
