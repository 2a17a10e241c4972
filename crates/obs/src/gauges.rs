//! Live gauge board: the hierarchy's control state as relaxed atomics.
//!
//! Histograms ([`crate::hist`]) answer "how was the cost distributed
//! over the run?"; the [`GaugeBoard`] answers "what is the scheduler
//! doing *right now*?" — which class is dragging `I_old(m)` and pinning
//! the time wall, how far behind `now` the wall floor sits, how deep
//! the MV store's version chains have grown, how much GC backlog is
//! pending. Every cell is a plain `AtomicU64` written with `Relaxed`
//! stores from the scheduler's maintenance tick (and O(1) histogram
//! records from the read hot path), so a dashboard thread can sample
//! the whole board without ever contending with workers.
//!
//! The board has two tiers:
//!
//! * **global cells** — always present, writable before (or without)
//!   [`GaugeBoard::configure`], so drivers can publish progress even
//!   for schedulers that never dimension the board;
//! * **dimensioned cells** — per-class, per-segment and per
//!   (reader class, source segment) staleness histograms, allocated
//!   once by `configure` (first caller wins; the HDD scheduler calls it
//!   at construction with the hierarchy's shape).
//!
//! The headline signal is **cross-read staleness**: on every Protocol A
//! or Protocol C read served from another class, the scheduler records
//! `read_ts − version_ts` into the `(reader class, source segment)`
//! cell ([`GaugeBoard::record_staleness`]). Protocol C wall readers are
//! not a hierarchy class, so they get a synthetic reader row addressed
//! by [`WALL_READER`]. Staleness is strictly positive by Protocol A/C
//! correctness: the served version is below the reader's bound, and the
//! bound never exceeds the reader's start timestamp (DESIGN.md §10).
//!
//! The refresh that publishes the wall components also names the
//! **wall dragger**, the first class whose component sits at the wall
//! floor ([`GaugeBoard::note_wall_floor`]): per-class blame counts and
//! a histogram of how long each holder kept the floor.

use mc::sync::{AtomicU64, OnceLock, Ordering};

use crate::hist::{Histogram, HistogramSnapshot};

/// Synthetic reader row for Protocol C (time-wall) readers, which are
/// ad-hoc read-only transactions outside every hierarchy class.
pub const WALL_READER: u32 = u32::MAX;

/// Dimensioned (per-class / per-segment) cells, allocated once.
#[derive(Debug)]
struct Dims {
    n_classes: u32,
    n_segments: u32,
    /// `I_old(now)` per class — the oldest-running interval count that
    /// feeds Protocol A bounds.
    i_old: Vec<AtomicU64>,
    /// Running (unfinished) registered transactions per class.
    active: Vec<AtomicU64>,
    /// Registry settled-cursor lag per class: intervals not yet behind
    /// the settled prefix (a scan-cost leading indicator).
    settled_lag: Vec<AtomicU64>,
    /// Latest released time-wall component per class.
    wall_component: Vec<AtomicU64>,
    /// Latest released wall timestamp per *segment* (its class's
    /// component).
    segment_wall: Vec<AtomicU64>,
    /// Staleness histograms, `(n_classes + 1) × n_segments`; the last
    /// row is the [`WALL_READER`] row.
    staleness: Vec<Histogram>,
    /// Wall refreshes on which each class held the wall floor.
    drag_blame: Vec<AtomicU64>,
}

/// The wall-drag attributor's cells (see [`GaugeBoard::note_wall_floor`]).
#[derive(Debug, Default)]
struct WallDrag {
    /// Class holding the wall floor, plus one (0: none yet).
    holder: AtomicU64,
    /// Clock at which `holder` took the floor.
    since: AtomicU64,
    /// Clock at the latest refresh.
    now: AtomicU64,
    /// Completed floor holds, in clock ticks.
    held: Histogram,
}

impl Dims {
    #[inline]
    fn staleness_index(&self, reader: u32, segment: u32) -> Option<usize> {
        let row = if reader == WALL_READER {
            self.n_classes
        } else if reader < self.n_classes {
            reader
        } else {
            return None;
        };
        if segment >= self.n_segments {
            return None;
        }
        Some((row as usize) * (self.n_segments as usize) + segment as usize)
    }
}

/// One scalar cell as the exporters see it.
pub(crate) struct Level {
    /// JSON key: the field name.
    pub key: &'static str,
    /// Prometheus family.
    pub family: &'static str,
    /// Prometheus type, `counter` or `gauge`.
    pub kind: &'static str,
    /// The value.
    pub value: u64,
}

/// Declares each scalar cell of the board once, with its Prometheus
/// family and type, in JSON order. The one list yields the live
/// [`GaugeBoard`] fields, the [`GaugeSnapshot`] fields, the copy, the
/// reset, and one exporter-row method per group.
macro_rules! levels {
    ($($(#[doc = $gdoc:literal])* $group:ident {
        $($(#[doc = $doc:literal])+ $name:ident: $family:literal $kind:ident,)+
    })+) => {
        /// The live gauge board (see module docs).
        ///
        /// All writes are `Relaxed` stores/`fetch_add`s; readers get a
        /// tear-free value per cell but no cross-cell consistency — exactly
        /// what a ~4 Hz dashboard needs and nothing a proof should lean on.
        #[derive(Debug, Default)]
        pub struct GaugeBoard {
            $($($name: AtomicU64,)+)+
            fsync_ns: Histogram,
            drag: WallDrag,
            dims: OnceLock<Dims>,
        }

        /// A point-in-time copy of the whole [`GaugeBoard`].
        #[derive(Debug, Clone, Default)]
        pub struct GaugeSnapshot {
            /// Whether the dimensioned cells were allocated.
            pub configured: bool,
            /// Hierarchy class count (0 when unconfigured).
            pub n_classes: u32,
            /// Segment count (0 when unconfigured).
            pub n_segments: u32,
            $($($(#[doc = $doc])+ pub $name: u64,)+)+
            /// Distribution of per-batch write+fsync latency (nanoseconds).
            pub fsync_ns: HistogramSnapshot,
            /// Class holding the wall floor at the latest refresh.
            pub drag_class: Option<u32>,
            /// Ticks the current holder has held the floor so far.
            pub drag_held_ticks: u64,
            /// Completed floor holds, in clock ticks.
            pub drag_hist: HistogramSnapshot,
            /// Per-class rows (empty when unconfigured).
            pub classes: Vec<ClassGauges>,
            /// Latest wall timestamp per segment (empty when unconfigured).
            pub segment_walls: Vec<u64>,
            /// Non-empty staleness cells.
            pub staleness: Vec<StalenessCell>,
        }

        impl GaugeBoard {
            /// The scalar cells, copied; everything else at its default.
            fn levels(&self) -> GaugeSnapshot {
                GaugeSnapshot {
                    $($($name: self.$name.load(Ordering::Relaxed),)+)+ // ordering: per-cell tear-free copy (struct docs)
                    ..GaugeSnapshot::default()
                }
            }

            /// Zero the scalar cells.
            fn reset_levels(&self) {
                $($(self.$name.store(0, Ordering::Relaxed);)+)+ // ordering: phase reset; racing setters land on either side
            }
        }

        impl GaugeSnapshot {
            $(
                $(#[doc = $gdoc])*
                pub(crate) fn $group(&self) -> Vec<Level> {
                    vec![$(Level {
                        key: stringify!($name),
                        family: $family,
                        kind: stringify!($kind),
                        value: self.$name,
                    },)+]
                }
            )+
        }
    };
}

levels! {
    /// The control-state levels, always writable.
    control {
        /// Scheduler clock at the last maintenance refresh.
        clock_now: "hdd_clock_now" gauge,
        /// Latest released wall's anchor timestamp.
        wall_anchor: "hdd_wall_anchor" gauge,
        /// Tick at which the latest wall was released.
        wall_released_at: "hdd_wall_released_at" gauge,
        /// Minimum wall component (the conservative read floor).
        wall_floor: "hdd_wall_floor" gauge,
        /// `clock_now − wall_floor`: how stale the freshest conservative
        /// wall read would be.
        wall_lag: "hdd_wall_lag" gauge,
        /// Running registered transactions, all classes.
        active_txns: "hdd_active_txns" gauge,
        /// Live activity-registry intervals, all classes.
        registry_intervals: "hdd_registry_intervals" gauge,
        /// Total settled-cursor lag, all classes.
        registry_settled_lag: "hdd_registry_settled_lag" gauge,
        /// Live versions in the MV store.
        store_versions: "hdd_store_versions" gauge,
        /// Granules in the MV store.
        store_granules: "hdd_store_granules" gauge,
        /// Deepest version chain.
        store_max_chain: "hdd_store_max_chain" gauge,
        /// Last GC prune watermark.
        gc_watermark: "hdd_gc_watermark" gauge,
        /// Versions above one-per-granule (reclaimable upper bound).
        gc_backlog: "hdd_gc_backlog" gauge,
        /// Programs claimed by driver workers.
        driver_claimed: "hdd_driver_claimed" gauge,
        /// Programs offered to the driver.
        driver_offered: "hdd_driver_offered" gauge,
    }
    /// The durability cells, always writable like driver progress.
    durability {
        /// Durable group-commit batches written.
        wal_batches: "hdd_wal_fsync_batches_total" counter,
        /// Frames carried by those batches (occupancy = frames / batches).
        wal_frames: "hdd_wal_frames" gauge,
        /// Bytes carried by those batches.
        wal_bytes: "hdd_wal_bytes" gauge,
        /// Log frames replayed by the last recovery pass.
        recovery_replayed: "hdd_recovery_replayed" gauge,
        /// Malformed frames the last recovery pass skipped.
        recovery_anomalies: "hdd_recovery_anomalies_total" counter,
    }
}

impl GaugeBoard {
    /// A fresh, undimensioned board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the per-class / per-segment cells. Idempotent and
    /// first-wins: a second call is a no-op even with different
    /// dimensions, so histogram references can never dangle and a repeat
    /// call from the board's other callers (`certify::advisor`,
    /// dashboards, tests) is harmless.
    pub fn configure(&self, n_classes: u32, n_segments: u32) {
        let _ = self.dims.get_or_init(|| Dims {
            n_classes,
            n_segments,
            i_old: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            active: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            settled_lag: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            wall_component: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            segment_wall: (0..n_segments).map(|_| AtomicU64::new(0)).collect(),
            staleness: (0..(n_classes as usize + 1) * n_segments as usize)
                .map(|_| Histogram::new())
                .collect(),
            drag_blame: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
        });
    }

    /// True once [`GaugeBoard::configure`] has run.
    pub fn is_configured(&self) -> bool {
        self.dims.get().is_some()
    }

    /// Record one cross-read staleness sample (`read_ts − version_ts`
    /// in clock ticks) for `(reader, segment)`; `reader` is a class
    /// index or [`WALL_READER`]. O(1): one bucket `fetch_add` plus the
    /// histogram summary cells, all relaxed. Out-of-range coordinates
    /// and an unconfigured board drop the sample silently — gauges are
    /// diagnostics, never control flow.
    #[inline]
    pub fn record_staleness(&self, reader: u32, segment: u32, staleness: u64) {
        if let Some(d) = self.dims.get() {
            if let Some(i) = d.staleness_index(reader, segment) {
                d.staleness[i].record(staleness);
            }
        }
    }

    /// Publish the scheduler clock.
    #[inline]
    pub fn set_clock(&self, now: u64) {
        // ordering: Relaxed — independent gauge level; the board contract
        // (struct docs) promises per-cell tear-freedom only.
        self.clock_now.store(now, Ordering::Relaxed);
    }

    /// Publish the latest released time wall: anchor timestamp, release
    /// tick, floor (min component) and wall lag (`now − floor`).
    #[inline]
    pub fn set_wall(&self, anchor: u64, released_at: u64, floor: u64, lag: u64) {
        // ordering: Relaxed — gauge levels; no cross-cell consistency is
        // promised, a sampler may see the cells mid-update.
        self.wall_anchor.store(anchor, Ordering::Relaxed);
        self.wall_released_at.store(released_at, Ordering::Relaxed); // ordering: gauge level, see fn-top note
        self.wall_floor.store(floor, Ordering::Relaxed); // ordering: gauge level, see fn-top note
        self.wall_lag.store(lag, Ordering::Relaxed); // ordering: gauge level, see fn-top note
    }

    /// Publish one class's live signals.
    #[inline]
    pub fn set_class(&self, class: u32, i_old: u64, active: u64, settled_lag: u64) {
        if let Some(d) = self.dims.get() {
            if let Some(i) = usize::try_from(class).ok().filter(|&i| i < d.i_old.len()) {
                // ordering: Relaxed — per-class gauge levels, see set_wall.
                d.i_old[i].store(i_old, Ordering::Relaxed);
                d.active[i].store(active, Ordering::Relaxed); // ordering: gauge level, see fn-top note
                d.settled_lag[i].store(settled_lag, Ordering::Relaxed); // ordering: gauge level, see fn-top note
            }
        }
    }

    /// Publish one class's latest released wall component.
    #[inline]
    pub fn set_wall_component(&self, class: u32, ts: u64) {
        if let Some(d) = self.dims.get() {
            if let Some(c) = d.wall_component.get(class as usize) {
                // ordering: Relaxed — gauge level, see set_wall.
                c.store(ts, Ordering::Relaxed);
            }
        }
    }

    /// Publish one segment's latest released wall timestamp.
    #[inline]
    pub fn set_segment_wall(&self, segment: u32, ts: u64) {
        if let Some(d) = self.dims.get() {
            if let Some(c) = d.segment_wall.get(segment as usize) {
                // ordering: Relaxed — gauge level, see set_wall.
                c.store(ts, Ordering::Relaxed);
            }
        }
    }

    /// Publish registry totals: running transactions, live intervals,
    /// total settled-cursor lag.
    #[inline]
    pub fn set_activity(&self, active: u64, intervals: u64, settled_lag: u64) {
        // ordering: Relaxed — gauge levels, see set_wall.
        self.active_txns.store(active, Ordering::Relaxed);
        self.registry_intervals.store(intervals, Ordering::Relaxed); // ordering: gauge level, see fn-top note
        self.registry_settled_lag
            .store(settled_lag, Ordering::Relaxed); // ordering: gauge level, see fn-top note
    }

    /// Publish MV-store shape: live versions, granules, deepest version
    /// chain, and GC backlog (versions above one-per-granule).
    #[inline]
    pub fn set_store(&self, versions: u64, granules: u64, max_chain: u64, backlog: u64) {
        // ordering: Relaxed — gauge levels, see set_wall.
        self.store_versions.store(versions, Ordering::Relaxed);
        self.store_granules.store(granules, Ordering::Relaxed); // ordering: gauge level, see fn-top note
        self.store_max_chain.store(max_chain, Ordering::Relaxed); // ordering: gauge level, see fn-top note
        self.gc_backlog.store(backlog, Ordering::Relaxed); // ordering: gauge level, see fn-top note
    }

    /// Publish the last GC prune watermark.
    #[inline]
    pub fn set_gc_watermark(&self, watermark: u64) {
        // ordering: Relaxed — gauge level, see set_wall.
        self.gc_watermark.store(watermark, Ordering::Relaxed);
    }

    /// Publish driver progress: programs claimed out of programs
    /// offered (works on an unconfigured board, for baselines).
    #[inline]
    pub fn set_driver_progress(&self, claimed: u64, offered: u64) {
        // ordering: Relaxed — gauge levels, see set_wall.
        self.driver_claimed.store(claimed, Ordering::Relaxed);
        self.driver_offered.store(offered, Ordering::Relaxed); // ordering: gauge level, see fn-top note
    }

    /// Record one durable group-commit batch: its frame count and byte
    /// size accumulate (occupancy gauges), and the write+fsync latency
    /// lands in the fsync histogram. Called once per batch by the
    /// submitter that led it.
    #[inline]
    pub fn record_wal_batch(&self, frames: u64, bytes: u64, fsync_ns: u64) {
        // ordering: Relaxed — monotone counters sampled by a dashboard;
        // no cross-cell consistency is promised (see struct docs).
        self.wal_batches.fetch_add(1, Ordering::Relaxed);
        self.wal_frames.fetch_add(frames, Ordering::Relaxed); // ordering: gauge counter, see fn-top note
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed); // ordering: gauge counter, see fn-top note
        self.fsync_ns.record(fsync_ns);
    }

    /// Publish recovery replay progress: log frames replayed and
    /// malformed frames skipped (from `mvstore::RecoveryAnomalies`).
    #[inline]
    pub fn set_recovery_progress(&self, replayed: u64, anomalies: u64) {
        // ordering: Relaxed — gauge levels, see set_wall.
        self.recovery_replayed.store(replayed, Ordering::Relaxed);
        self.recovery_anomalies.store(anomalies, Ordering::Relaxed); // ordering: gauge level, see fn-top note
    }

    /// The wall-drag attributor, fed by each gauge refresh that sees a
    /// released wall: `dragger` is the first class whose component
    /// equals the wall floor (`None`: no class does), `now` the clock.
    /// Bumps the dragger's blame and, when the holder changes, records
    /// how long the previous one held the floor.
    // ordering: Relaxed — written by the gauge refresh; a racing
    // snapshot may see a hold one refresh stale (struct docs).
    pub fn note_wall_floor(&self, dragger: Option<u32>, now: u64) {
        let Some(d) = self.dims.get() else { return };
        let w = &self.drag;
        let holder = dragger
            .filter(|&c| c < d.n_classes)
            .map_or(0, |c| u64::from(c) + 1);
        w.now.store(now, Ordering::Relaxed); // ordering: see fn-top note
        let prev = w.holder.swap(holder, Ordering::Relaxed); // ordering: see fn-top note
        if prev != holder {
            if prev != 0 {
                let since = w.since.load(Ordering::Relaxed); // ordering: see fn-top note
                w.held.record(now.saturating_sub(since));
            }
            w.since.store(now, Ordering::Relaxed); // ordering: see fn-top note
        }
        if let Some(c) = holder.checked_sub(1) {
            d.drag_blame[c as usize].fetch_add(1, Ordering::Relaxed); // ordering: see fn-top note
        }
    }

    /// Copy the whole board. Staleness cells are included only when
    /// non-empty (most (reader, segment) pairs never cross-read).
    pub fn snapshot(&self) -> GaugeSnapshot {
        // ordering: Relaxed — dashboard sampling; each cell is tear-free
        // on its own, cross-cell skew is documented and acceptable.
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let w = &self.drag;
        let holder = g(&w.holder).checked_sub(1);
        let mut snap = GaugeSnapshot {
            fsync_ns: self.fsync_ns.snapshot(),
            drag_class: holder.map(|c| c as u32),
            drag_held_ticks: holder.map_or(0, |_| g(&w.now).saturating_sub(g(&w.since))),
            drag_hist: w.held.snapshot(),
            ..self.levels()
        };
        if let Some(d) = self.dims.get() {
            snap.configured = true;
            snap.n_classes = d.n_classes;
            snap.n_segments = d.n_segments;
            snap.classes = (0..d.n_classes as usize)
                .map(|i| ClassGauges {
                    class: i as u32,
                    i_old: g(&d.i_old[i]),
                    active: g(&d.active[i]),
                    settled_lag: g(&d.settled_lag[i]),
                    wall_component: g(&d.wall_component[i]),
                    drag_blame: g(&d.drag_blame[i]),
                })
                .collect();
            snap.segment_walls = d.segment_wall.iter().map(g).collect();
            for row in 0..=d.n_classes {
                for seg in 0..d.n_segments {
                    let h = &d.staleness[(row as usize) * (d.n_segments as usize) + seg as usize];
                    if h.count() > 0 {
                        snap.staleness.push(StalenessCell {
                            reader: if row == d.n_classes { WALL_READER } else { row },
                            segment: seg,
                            hist: h.snapshot(),
                        });
                    }
                }
            }
        }
        snap
    }

    /// Zero every cell (staleness histograms included); the board stays
    /// configured.
    pub fn reset(&self) {
        self.reset_levels();
        self.fsync_ns.reset();
        let w = &self.drag;
        for c in [&w.holder, &w.since, &w.now] {
            // ordering: Relaxed — gauge reset between phases.
            c.store(0, Ordering::Relaxed);
        }
        w.held.reset();
        if let Some(d) = self.dims.get() {
            for v in [
                &d.i_old,
                &d.active,
                &d.settled_lag,
                &d.wall_component,
                &d.drag_blame,
            ] {
                for c in v {
                    // ordering: Relaxed — gauge reset between phases.
                    c.store(0, Ordering::Relaxed);
                }
            }
            for c in &d.segment_wall {
                // ordering: Relaxed — gauge reset between phases.
                c.store(0, Ordering::Relaxed);
            }
            for h in &d.staleness {
                h.reset();
            }
        }
    }
}

/// One class's row in a [`GaugeSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassGauges {
    /// Class index.
    pub class: u32,
    /// `I_old(now)` — intervals at or before the oldest running start.
    pub i_old: u64,
    /// Running registered transactions.
    pub active: u64,
    /// Intervals behind the settled prefix (the active window).
    pub settled_lag: u64,
    /// Latest released wall component for this class.
    pub wall_component: u64,
    /// Wall refreshes on which this class held the wall floor.
    pub drag_blame: u64,
}

/// One non-empty (reader, source segment) staleness cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalenessCell {
    /// Reader class index, or [`WALL_READER`] for Protocol C readers.
    pub reader: u32,
    /// Source segment index.
    pub segment: u32,
    /// Distribution of `read_ts − version_ts` in clock ticks.
    pub hist: HistogramSnapshot,
}

impl StalenessCell {
    /// Human/exporter label for the reader row (`"c3"` or `"wall"`).
    pub fn reader_label(&self) -> String {
        if self.reader == WALL_READER {
            "wall".to_string()
        } else {
            format!("c{}", self.reader)
        }
    }
}

impl GaugeSnapshot {
    /// The staleness cell for `(reader, segment)` if it recorded
    /// anything.
    pub fn staleness_for(&self, reader: u32, segment: u32) -> Option<&StalenessCell> {
        self.staleness
            .iter()
            .find(|c| c.reader == reader && c.segment == segment)
    }

    /// Hand-rolled JSON object (no serde in the offline build).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"configured\": {}, \"n_classes\": {}, \"n_segments\": {}",
            self.configured, self.n_classes, self.n_segments
        );
        for l in self.control().into_iter().chain(self.durability()) {
            s.push_str(&format!(", \"{}\": {}", l.key, l.value));
        }
        s.push_str(&format!(", \"fsync_ns\": {}", self.fsync_ns.to_json()));
        s.push_str(", \"classes\": [");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"class\": {}, \"i_old\": {}, \"active\": {}, \"settled_lag\": {}, \
                 \"wall_component\": {}, \"drag_blame\": {}}}",
                c.class, c.i_old, c.active, c.settled_lag, c.wall_component, c.drag_blame
            ));
        }
        s.push_str("], \"segment_walls\": [");
        for (i, w) in self.segment_walls.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&w.to_string());
        }
        s.push_str(&format!(
            "], \"drag_class\": {}, \"drag_held_ticks\": {}, \"drag_hist\": {}",
            self.drag_class
                .map_or("null".to_string(), |c| c.to_string()),
            self.drag_held_ticks,
            self.drag_hist.to_json()
        ));
        s.push_str(", \"staleness\": [");
        for (i, cell) in self.staleness.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"reader\": \"{}\", \"segment\": {}, \"hist\": {}}}",
                cell.reader_label(),
                cell.segment,
                cell.hist.to_json()
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_board_accepts_globals_and_drops_staleness() {
        let g = GaugeBoard::new();
        g.set_driver_progress(3, 10);
        g.set_clock(42);
        g.record_staleness(0, 0, 7); // silently dropped
        let s = g.snapshot();
        assert!(!s.configured);
        assert_eq!(s.driver_claimed, 3);
        assert_eq!(s.driver_offered, 10);
        assert_eq!(s.clock_now, 42);
        assert!(s.staleness.is_empty());
        assert!(s.classes.is_empty());
    }

    #[test]
    fn configure_is_first_wins_and_idempotent() {
        let g = GaugeBoard::new();
        g.configure(2, 3);
        g.configure(9, 9); // no-op
        let s = g.snapshot();
        assert!(s.configured);
        assert_eq!(s.n_classes, 2);
        assert_eq!(s.n_segments, 3);
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.segment_walls.len(), 3);
    }

    #[test]
    fn staleness_rows_are_keyed_by_reader_and_segment() {
        let g = GaugeBoard::new();
        g.configure(2, 3);
        g.record_staleness(1, 2, 10);
        g.record_staleness(1, 2, 20);
        g.record_staleness(WALL_READER, 0, 5);
        g.record_staleness(7, 0, 99); // out-of-range class: dropped
        g.record_staleness(0, 9, 99); // out-of-range segment: dropped
        let s = g.snapshot();
        assert_eq!(s.staleness.len(), 2);
        let a = s.staleness_for(1, 2).expect("class cell");
        assert_eq!(a.hist.count, 2);
        assert_eq!(a.hist.min, 10);
        assert_eq!(a.reader_label(), "c1");
        let w = s.staleness_for(WALL_READER, 0).expect("wall cell");
        assert_eq!(w.hist.count, 1);
        assert_eq!(w.reader_label(), "wall");
        assert!(s.staleness_for(0, 0).is_none(), "empty cells are omitted");
    }

    #[test]
    fn class_and_wall_setters_round_trip() {
        let g = GaugeBoard::new();
        g.configure(2, 2);
        g.set_class(0, 4, 2, 1);
        g.set_class(1, 7, 3, 0);
        g.set_class(9, 1, 1, 1); // out of range: dropped
        g.set_wall(100, 110, 95, 15);
        g.set_wall_component(0, 95);
        g.set_wall_component(1, 102);
        g.set_segment_wall(0, 95);
        g.set_segment_wall(1, 102);
        g.set_activity(5, 12, 1);
        g.set_store(40, 32, 4, 8);
        g.set_gc_watermark(90);
        let s = g.snapshot();
        assert_eq!(s.classes[0].i_old, 4);
        assert_eq!(s.classes[1].active, 3);
        assert_eq!(s.wall_floor, 95);
        assert_eq!(s.wall_lag, 15);
        assert_eq!(s.classes[1].wall_component, 102);
        assert_eq!(s.segment_walls, vec![95, 102]);
        assert_eq!(s.active_txns, 5);
        assert_eq!(s.store_max_chain, 4);
        assert_eq!(s.gc_backlog, 8);
        assert_eq!(s.gc_watermark, 90);
        let json = s.to_json();
        assert!(json.contains("\"wall_floor\": 95"));
        assert!(json.contains("\"segment_walls\": [95, 102]"));
    }

    #[test]
    fn wall_drag_blames_the_floor_holder_and_histograms_handoffs() {
        let g = GaugeBoard::new();
        g.note_wall_floor(Some(0), 5); // unconfigured: dropped
        g.configure(2, 3);
        g.note_wall_floor(Some(0), 10);
        g.note_wall_floor(Some(0), 20);
        g.note_wall_floor(Some(1), 35);
        let s = g.snapshot();
        assert_eq!((s.drag_class, s.drag_held_ticks), (Some(1), 0));
        g.note_wall_floor(None, 40);
        let s = g.snapshot();
        let blame: Vec<u64> = s.classes.iter().map(|c| c.drag_blame).collect();
        assert_eq!(blame, vec![2, 1]);
        // Two completed holds: class 0 for 25 ticks, class 1 for 5.
        assert_eq!((s.drag_hist.count, s.drag_hist.sum), (2, 30));
        assert_eq!(s.drag_class, None);
        assert!(s.to_json().contains("\"drag_class\": null"));
        g.reset();
        let s = g.snapshot();
        assert_eq!(s.classes[0].drag_blame + s.drag_hist.count, 0);
    }

    #[test]
    fn wal_and_recovery_cells_accumulate_and_reset() {
        let g = GaugeBoard::new();
        g.record_wal_batch(4, 512, 1_000);
        g.record_wal_batch(8, 1024, 3_000);
        g.set_recovery_progress(120, 2);
        let s = g.snapshot();
        assert_eq!(s.wal_batches, 2);
        assert_eq!(s.wal_frames, 12);
        assert_eq!(s.wal_bytes, 1536);
        assert_eq!(s.recovery_replayed, 120);
        assert_eq!(s.recovery_anomalies, 2);
        assert_eq!(s.fsync_ns.count, 2);
        assert!(s.fsync_ns.max >= 3_000);
        let json = s.to_json();
        assert!(json.contains("\"wal_batches\": 2"));
        assert!(json.contains("\"fsync_ns\": {"));
        g.reset();
        let s = g.snapshot();
        assert_eq!(s.wal_batches, 0);
        assert_eq!(s.fsync_ns.count, 0);
    }

    #[test]
    fn reset_clears_cells_but_keeps_configuration() {
        let g = GaugeBoard::new();
        g.configure(1, 1);
        g.record_staleness(0, 0, 10);
        g.set_wall(5, 6, 4, 1);
        g.set_driver_progress(9, 9);
        g.reset();
        let s = g.snapshot();
        assert!(s.configured, "configuration survives reset");
        assert_eq!(s.wall_floor, 0);
        assert_eq!(s.driver_claimed, 0);
        assert!(s.staleness.is_empty());
    }
}
