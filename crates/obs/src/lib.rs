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
//! 2. [`trace`] — a bounded ticket-ordered [`TraceRing`] of structured
//!    [`TraceEvent`]s (Protocol A cross-read decisions, rejection reason
//!    codes, time-wall evaluations, GC batches, driver backoff);
//! 3. [`Obs`] / [`ObsSnapshot`] — the per-scheduler sidecar bundling the
//!    recorders behind **one atomic enable flag** (default off: a single
//!    relaxed load per instrumentation site), plus hand-rolled JSON
//!    export.
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
pub use span::{
    assemble, FlightLog, FlightRecorder, SpanEvent, SpanKind, Terminal, TxnFlight, WaitCause,
    NO_CLASS,
};
pub use trace::{FaultCode, RejectReason, TraceEvent, TraceRing};

use mc::sync::{AtomicBool, Ordering};

/// The observability sidecar carried by every scheduler's `Metrics`.
///
/// All recording dimensions share the [`Obs::enabled`] flag; call sites
/// check it once (one relaxed load) and skip clock reads and recording
/// entirely when tracing is off, which is what keeps the disabled-mode
/// overhead under the 5% budget (`figure12_obs_overhead`).
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
    /// Structured protocol decision events.
    pub trace: TraceRing,
    /// Live gauge board: time-wall/staleness/registry/store levels,
    /// refreshed by the scheduler's maintenance tick (see
    /// [`gauges::GaugeBoard`]).
    pub gauges: GaugeBoard,
    /// Transaction flight recorder: causal span trees with wait-cause
    /// edges, sampled every Nth transaction (see [`span`]). Inert until
    /// both [`Obs::enabled`] and a sampling stride are set.
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

    /// True when recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ordering: Relaxed — advisory on/off flag; a racing emit may land
        // on either side of the flip, both outcomes are documented.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off (callers that captured state before
    /// the flip may still record once; the rings and histograms stay
    /// valid either way).
    pub fn set_enabled(&self, on: bool) {
        // ordering: Relaxed — advisory flag flip, see enabled().
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Push a trace event if enabled.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if self.enabled() {
            self.trace.push(ev);
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
            trace_recorded: self.trace.recorded(),
            trace_dropped: self.trace.dropped(),
        }
    }

    /// Clear every histogram, the trace ring, the gauge board, the
    /// flight recorder and the drift sketch (the enable flags, board
    /// configurations and the sampling stride are left as-is).
    pub fn reset(&self) {
        self.commit_latency.reset();
        self.op_service.reset();
        self.block_wait.reset();
        self.backoff_sleep.reset();
        self.registry_scan.reset();
        self.trace.reset();
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
    /// Trace events recorded over the run.
    pub trace_recorded: u64,
    /// Trace events evicted by ring wrap-around.
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

    #[test]
    fn disabled_by_default_and_emit_respects_flag() {
        let o = Obs::new();
        assert!(!o.enabled());
        o.emit(TraceEvent::Backoff { nanos: 1 });
        assert_eq!(o.trace.recorded(), 0);
        o.set_enabled(true);
        o.emit(TraceEvent::Backoff { nanos: 1 });
        assert_eq!(o.trace.recorded(), 1);
        o.set_enabled(false);
        o.emit(TraceEvent::Backoff { nanos: 1 });
        assert_eq!(o.trace.recorded(), 1);
    }

    #[test]
    fn obs_delta_saturates_across_reset() {
        let o = Obs::new();
        o.set_enabled(true);
        o.commit_latency.record(100);
        o.emit(TraceEvent::Backoff { nanos: 1 });
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
        o.emit(TraceEvent::GcReclaim {
            watermark: 5,
            reclaimed: 3,
        });
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
}
