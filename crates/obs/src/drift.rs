//! Streaming workload-drift sketch: live access frequencies vs EWMA
//! baselines, plus wall-drag blame.
//!
//! The [`GaugeBoard`](crate::gauges::GaugeBoard) answers "what is the
//! scheduler doing right now?"; the [`DriftBoard`] answers "is the
//! traffic still the traffic the hierarchy was *built* for?" — the
//! sensing half of online repartitioning (DESIGN.md §14). It keeps
//! three sketches, all O(1) relaxed-atomic bumps on paths the gauges
//! already instrument (the first *is* the gauges' bump):
//!
//! * **access cells** — per `(reader class, source segment)` counts of
//!   Protocol A / Protocol C cross-reads. The board keeps no counts of
//!   its own: they are the sample counts of the gauge board's staleness
//!   matrix (same coordinates, same synthetic
//!   [`crate::gauges::WALL_READER`] row), which [`crate::Obs`] passes to
//!   every fold and snapshot;
//! * **co-access edges** — per `(writer segment, accessed segment)`
//!   counts folded from each admitted transaction's declared profile at
//!   `begin`; this is exactly the arc-generation rule of the data
//!   hierarchy graph (DESIGN.md §2), so accumulating the matrix *is*
//!   observing a DHG;
//! * **arrival/commit counters** — per class (plus an ad-hoc read-only
//!   row), so rate shifts between classes are visible even when the
//!   per-segment mix is stable.
//!
//! A periodic **fold** (maintenance cadence, [`crate::Obs::fold_drift`])
//! turns the interval since the previous fold into share vectors,
//! scores them against EWMA baselines by total-variation distance
//! (`½·Σ|p_i − b_i|`, in milli-units so `0..=1000`), then absorbs the
//! interval into the baselines. The first adequately-sampled fold
//! seeds the baseline and scores zero — the board alarms on *change*,
//! not on any particular shape. Crossing the threshold trips the board
//! (edge-triggered, with 20% hysteresis on release) so a trip is a
//! discrete observable event, not a level.
//!
//! The **wall-drag attributor** is fed from the gauge refresh, where
//! the released wall components already exist: each refresh names the
//! class whose component equals the wall floor (the "dragger"), bumps
//! its blame counter, and on dragger change records how long (in
//! logical-clock ticks) the previous dragger held the floor into a
//! histogram.
//!
//! The board is deliberately dumber than the advisor built on top of
//! it (`certify::advisor`): it only counts and scores. Folding the
//! edge matrix into an observed DHG and comparing decompositions
//! happens above the `obs` crate, which knows nothing about
//! hierarchies.

use mc::sync::{AtomicBool, AtomicU64, OnceLock, Ordering};

use crate::gauges::WALL_READER;
use crate::hist::{Histogram, HistogramSnapshot};

/// Default trip threshold: total-variation distance ≥ 0.25 between the
/// interval's share vector and the EWMA baseline.
pub const DEFAULT_DRIFT_THRESHOLD_MILLI: u64 = 250;

/// EWMA smoothing factor α in milli-units: `b' = b + α·(p − b)`.
const EWMA_ALPHA_MILLI: i64 = 300;

/// Minimum interval samples before a sketch family is scored; folds
/// over thinner intervals neither score nor move the baseline.
const MIN_FOLD_SAMPLES: u64 = 16;

/// Sentinel for "no class currently holds the wall floor".
const NO_DRAGGER: u64 = u64::MAX;

/// Dimensioned sketch cells, allocated once by
/// [`DriftBoard::configure`] (first caller wins).
#[derive(Debug)]
struct Dims {
    n_classes: u32,
    n_segments: u32,
    /// The staleness matrix's counts as of the previous fold (interval
    /// deltas), `(n_classes + 1) × n_segments`; the last row is the
    /// wall-reader row.
    access_prev: Vec<AtomicU64>,
    /// EWMA baseline share per access cell, milli-units.
    access_base: Vec<AtomicU64>,
    /// Interval share per access cell at the latest fold, milli-units.
    access_share: Vec<AtomicU64>,
    /// Cumulative co-access edge counts, `n_segments × n_segments`
    /// (row = writer segment, column = accessed segment).
    edges: Vec<AtomicU64>,
    /// `edges` as of the previous fold.
    edges_prev: Vec<AtomicU64>,
    /// EWMA baseline share per edge, milli-units.
    edges_base: Vec<AtomicU64>,
    /// Interval share per edge at the latest fold, milli-units.
    edges_share: Vec<AtomicU64>,
    /// Transactions begun per class; index `n_classes` is the ad-hoc
    /// read-only row.
    begun: Vec<AtomicU64>,
    /// Transactions committed per class (same layout as `begun`).
    committed: Vec<AtomicU64>,
    /// Wall refreshes on which each class held the floor.
    drag_blame: Vec<AtomicU64>,
}

impl Dims {
    fn new(n_classes: u32, n_segments: u32) -> Dims {
        let cells = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let n_access = (n_classes as usize + 1) * n_segments as usize;
        let n_edges = n_segments as usize * n_segments as usize;
        Dims {
            n_classes,
            n_segments,
            access_prev: cells(n_access),
            access_base: cells(n_access),
            access_share: cells(n_access),
            edges: cells(n_edges),
            edges_prev: cells(n_edges),
            edges_base: cells(n_edges),
            edges_share: cells(n_edges),
            begun: cells(n_classes as usize + 1),
            committed: cells(n_classes as usize + 1),
            drag_blame: cells(n_classes as usize),
        }
    }

    /// Arrival-row index for a class id (`WALL_READER` and anything
    /// out of range land on the ad-hoc read-only row).
    fn class_row(&self, class: u32) -> usize {
        if class < self.n_classes {
            class as usize
        } else {
            self.n_classes as usize
        }
    }
}

/// A threshold crossing found by a fold ([`crate::Obs::fold_drift`]):
/// the score rose from below the trip threshold to at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftTrip {
    /// Fold ordinal (1-based) at which the trip fired.
    pub fold: u64,
    /// Combined drift score at the trip, milli-units.
    pub score_milli: u64,
    /// Threshold in force at the trip, milli-units.
    pub threshold_milli: u64,
    /// Class currently blamed for the wall floor, if any.
    pub dragger: Option<u32>,
}

/// The streaming drift sketch (see module docs). One per [`crate::Obs`].
#[derive(Debug)]
pub struct DriftBoard {
    /// Sketch master switch, independent of `Obs::enabled` so the
    /// drift overhead can be measured against an obs-enabled baseline.
    enabled: AtomicBool,
    threshold_milli: AtomicU64,
    access_seeded: AtomicBool,
    edges_seeded: AtomicBool,
    score_milli: AtomicU64,
    access_score_milli: AtomicU64,
    edge_score_milli: AtomicU64,
    access_interval_total: AtomicU64,
    edge_interval_total: AtomicU64,
    tripped: AtomicBool,
    folds: AtomicU64,
    trips: AtomicU64,
    drag_class: AtomicU64,
    drag_since: AtomicU64,
    drag_now: AtomicU64,
    drag_hist: Histogram,
    dims: OnceLock<Dims>,
}

impl Default for DriftBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl DriftBoard {
    /// A fresh, undimensioned, disabled board.
    #[must_use]
    pub fn new() -> DriftBoard {
        DriftBoard {
            enabled: AtomicBool::new(false),
            threshold_milli: AtomicU64::new(DEFAULT_DRIFT_THRESHOLD_MILLI),
            access_seeded: AtomicBool::new(false),
            edges_seeded: AtomicBool::new(false),
            score_milli: AtomicU64::new(0),
            access_score_milli: AtomicU64::new(0),
            edge_score_milli: AtomicU64::new(0),
            access_interval_total: AtomicU64::new(0),
            edge_interval_total: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            folds: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            drag_class: AtomicU64::new(NO_DRAGGER),
            drag_since: AtomicU64::new(0),
            drag_now: AtomicU64::new(0),
            drag_hist: Histogram::new(),
            dims: OnceLock::new(),
        }
    }

    /// Allocate the dimensioned cells. First caller wins and later calls
    /// are no-ops, so a repeat call from the board's other callers
    /// (`certify::advisor`, dashboards, tests) is harmless.
    pub fn configure(&self, n_classes: u32, n_segments: u32) {
        self.dims.get_or_init(|| Dims::new(n_classes, n_segments));
    }

    /// Is the sketch recording?
    // ordering: Relaxed — advisory flag; a racing record on the old
    // value only adds/drops one count.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // ordering: see fn-top note
    }

    /// Flip the sketch on or off (off by default; the dashboards and
    /// E20 turn it on explicitly).
    // ordering: Relaxed — same advisory flag as `enabled`.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed); // ordering: see fn-top note
    }

    /// Current trip threshold in milli-units.
    // ordering: Relaxed — configuration knob read by the folder only.
    #[must_use]
    pub fn threshold_milli(&self) -> u64 {
        self.threshold_milli.load(Ordering::Relaxed) // ordering: see fn-top note
    }

    /// Set the trip threshold (milli-units; clamped to `1..=1000`).
    // ordering: Relaxed — configuration knob; folds pick it up lazily.
    pub fn set_threshold_milli(&self, t: u64) {
        self.threshold_milli
            .store(t.clamp(1, 1000), Ordering::Relaxed); // ordering: see fn-top note
    }

    /// Record one admitted transaction of `class` (`u32::MAX` or any
    /// out-of-range id counts on the ad-hoc read-only row). Drops
    /// silently when unconfigured.
    // ordering: Relaxed — independent monotone counter; folds read a
    // consistent-enough snapshot because deltas saturate.
    #[inline]
    pub fn note_begin(&self, class: u32) {
        if let Some(d) = self.dims.get() {
            d.begun[d.class_row(class)].fetch_add(1, Ordering::Relaxed); // ordering: see fn-top note
        }
    }

    /// Record one committed transaction of `class` (same row rules as
    /// [`DriftBoard::note_begin`]).
    // ordering: Relaxed — independent monotone counter.
    #[inline]
    pub fn note_commit(&self, class: u32) {
        if let Some(d) = self.dims.get() {
            d.committed[d.class_row(class)].fetch_add(1, Ordering::Relaxed); // ordering: see fn-top note
        }
    }

    /// Record one declared co-access `writer segment → accessed
    /// segment` edge from an admitted profile (the DHG arc-generation
    /// rule; `from == to` records the diagonal so write-only traffic
    /// still has mass). Drops silently when unconfigured/out of range.
    // ordering: Relaxed — independent monotone counter at begin().
    #[inline]
    pub fn record_edge(&self, from: u32, to: u32) {
        if let Some(d) = self.dims.get() {
            if from < d.n_segments && to < d.n_segments {
                d.edges[from as usize * d.n_segments as usize + to as usize]
                    .fetch_add(1, Ordering::Relaxed); // ordering: see fn-top note
            }
        }
    }

    /// Feed one wall refresh: `dragger` is the class whose component
    /// equals the released floor (`None` when no wall has been
    /// released yet), `now` the logical clock. Bumps the dragger's
    /// blame; on a dragger change, records how long the previous one
    /// held the floor.
    // ordering: Relaxed — called from the single maintenance folder;
    // the atomics only guard against a racing snapshot, which may see
    // a duration one refresh stale.
    pub fn note_wall_floor(&self, dragger: Option<u32>, now: u64) {
        let Some(d) = self.dims.get() else { return };
        let new = match dragger {
            Some(c) if c < d.n_classes => u64::from(c),
            _ => NO_DRAGGER,
        };
        self.drag_now.store(now, Ordering::Relaxed); // ordering: see fn-top note
                                                     // ordering: Relaxed — single-writer swap; see fn-top note.
        let prev = self.drag_class.swap(new, Ordering::Relaxed);
        if prev != new {
            if prev != NO_DRAGGER {
                let since = self.drag_since.load(Ordering::Relaxed); // ordering: see fn-top note
                self.drag_hist.record(now.saturating_sub(since));
            }
            self.drag_since.store(now, Ordering::Relaxed); // ordering: see fn-top note
        }
        if new != NO_DRAGGER {
            // ordering: Relaxed — independent monotone blame counter.
            d.drag_blame[new as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Score one sketch family: interval deltas → shares → TV distance
    /// vs the EWMA baseline, then absorb the interval. Returns the
    /// family score in milli-units (0 when under-sampled or unseeded).
    // ordering: Relaxed — the fold is called from the maintenance
    // thread only; hot-path bumps racing the delta computation shift
    // at most a handful of samples into the next interval.
    fn fold_family(
        cur: &[u64],
        prev: &[AtomicU64],
        base: &[AtomicU64],
        share_out: &[AtomicU64],
        seeded: &AtomicBool,
        interval_total: &AtomicU64,
    ) -> u64 {
        let delta: Vec<u64> = prev
            .iter()
            .zip(cur)
            .map(|(before, now)| now.saturating_sub(before.load(Ordering::Relaxed))) // ordering: see fn-top note
            .collect();
        let total: u64 = delta.iter().sum();
        if total < MIN_FOLD_SAMPLES {
            // Thin interval: keep the baseline, report calm.
            interval_total.store(total, Ordering::Relaxed); // ordering: see fn-top note
            return 0;
        }
        for (p, &c) in prev.iter().zip(cur) {
            p.store(c, Ordering::Relaxed); // ordering: see fn-top note
        }
        interval_total.store(total, Ordering::Relaxed); // ordering: see fn-top note
        let first = !seeded.swap(true, Ordering::Relaxed); // ordering: see fn-top note
        let mut tv = 0i64;
        for (i, d) in delta.iter().enumerate() {
            let p = (d * 1000 / total) as i64;
            share_out[i].store(p as u64, Ordering::Relaxed); // ordering: see fn-top note
            let b = if first {
                p
            } else {
                base[i].load(Ordering::Relaxed) as i64 // ordering: see fn-top note
            };
            tv += (p - b).abs();
            let next = b + EWMA_ALPHA_MILLI * (p - b) / 1000;
            base[i].store(next.clamp(0, 1000) as u64, Ordering::Relaxed); // ordering: see fn-top note
        }
        (tv / 2) as u64
    }

    /// Fold the interval since the previous fold: score both sketch
    /// families (`access` is the staleness matrix's per-cell counts),
    /// update the EWMA baselines, and detect an edge-triggered threshold
    /// crossing. Returns `Some` exactly when this fold newly trips the
    /// board. Called at maintenance cadence through `Obs::fold_drift`.
    // ordering: Relaxed — single folder (maintenance thread); see
    // `fold_family` for the race budget with hot-path bumps.
    pub(crate) fn fold(&self, access: &[u64]) -> Option<DriftTrip> {
        let d = self.dims.get()?;
        let fold_n = self.folds.fetch_add(1, Ordering::Relaxed) + 1; // ordering: see fn-top note
        let edges: Vec<u64> = d.edges.iter().map(|e| e.load(Ordering::Relaxed)).collect(); // ordering: see fn-top note
        let access_score = Self::fold_family(
            access,
            &d.access_prev,
            &d.access_base,
            &d.access_share,
            &self.access_seeded,
            &self.access_interval_total,
        );
        let edge_score = Self::fold_family(
            &edges,
            &d.edges_prev,
            &d.edges_base,
            &d.edges_share,
            &self.edges_seeded,
            &self.edge_interval_total,
        );
        let score = access_score.max(edge_score);
        self.access_score_milli
            .store(access_score, Ordering::Relaxed); // ordering: see fn-top note
        self.edge_score_milli.store(edge_score, Ordering::Relaxed); // ordering: see fn-top note
        self.score_milli.store(score, Ordering::Relaxed); // ordering: see fn-top note
        let threshold = self.threshold_milli();
        let was = self.tripped.load(Ordering::Relaxed); // ordering: see fn-top note
        if score >= threshold {
            if !was {
                self.tripped.store(true, Ordering::Relaxed); // ordering: see fn-top note
                self.trips.fetch_add(1, Ordering::Relaxed); // ordering: see fn-top note
                let dragger = self.drag_class.load(Ordering::Relaxed); // ordering: see fn-top note
                return Some(DriftTrip {
                    fold: fold_n,
                    score_milli: score,
                    threshold_milli: threshold,
                    dragger: (dragger != NO_DRAGGER).then_some(dragger as u32),
                });
            }
        } else if was && score < threshold.saturating_mul(4) / 5 {
            // 20% hysteresis so a score hovering at the threshold
            // yields one trip, not a trip per fold.
            self.tripped.store(false, Ordering::Relaxed); // ordering: see fn-top note
        }
        None
    }

    /// Latest combined drift score in milli-units.
    // ordering: Relaxed — advisory read of the folder's last store.
    #[must_use]
    pub fn score_milli(&self) -> u64 {
        self.score_milli.load(Ordering::Relaxed) // ordering: see fn-top note
    }

    /// Is the board currently tripped (score at/above threshold)?
    // ordering: Relaxed — advisory read of the folder's last store.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) // ordering: see fn-top note
    }

    /// Point-in-time copy of the whole sketch, its access cells counted
    /// off `access` (the staleness matrix's counts, as for
    /// [`DriftBoard::fold`]); `Obs::snapshot` is the public read.
    // ordering: Relaxed — advisory snapshot; cells are independent
    // counters, so tearing across cells is acceptable by design.
    #[must_use]
    pub(crate) fn snapshot(&self, access: &[u64]) -> DriftSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed); // ordering: see fn-top note
        let mut snap = DriftSnapshot {
            configured: false,
            enabled: self.enabled(),
            n_classes: 0,
            n_segments: 0,
            threshold_milli: self.threshold_milli(),
            score_milli: ld(&self.score_milli),
            access_score_milli: ld(&self.access_score_milli),
            edge_score_milli: ld(&self.edge_score_milli),
            access_interval_total: ld(&self.access_interval_total),
            edge_interval_total: ld(&self.edge_interval_total),
            tripped: self.tripped(),
            folds: ld(&self.folds),
            trips: ld(&self.trips),
            classes: Vec::new(),
            cells: Vec::new(),
            edges: Vec::new(),
            drag_class: None,
            drag_held_ticks: 0,
            drag_hist: self.drag_hist.snapshot(),
        };
        let Some(d) = self.dims.get() else {
            return snap;
        };
        snap.configured = true;
        snap.n_classes = d.n_classes;
        snap.n_segments = d.n_segments;
        let dragger = ld(&self.drag_class);
        if dragger != NO_DRAGGER {
            snap.drag_class = Some(dragger as u32);
            snap.drag_held_ticks = ld(&self.drag_now).saturating_sub(ld(&self.drag_since));
        }
        for row in 0..=d.n_classes as usize {
            snap.classes.push(ClassDrift {
                class: if row == d.n_classes as usize {
                    WALL_READER
                } else {
                    row as u32
                },
                begun: ld(&d.begun[row]),
                committed: ld(&d.committed[row]),
                drag_blame: if row < d.n_classes as usize {
                    ld(&d.drag_blame[row])
                } else {
                    0
                },
            });
        }
        for row in 0..=d.n_classes as usize {
            for seg in 0..d.n_segments as usize {
                let i = row * d.n_segments as usize + seg;
                let count = access.get(i).copied().unwrap_or(0);
                if count == 0 {
                    continue;
                }
                snap.cells.push(DriftCell {
                    reader: if row == d.n_classes as usize {
                        WALL_READER
                    } else {
                        row as u32
                    },
                    segment: seg as u32,
                    count,
                    share_milli: ld(&d.access_share[i]),
                    baseline_milli: ld(&d.access_base[i]),
                });
            }
        }
        for from in 0..d.n_segments as usize {
            for to in 0..d.n_segments as usize {
                let i = from * d.n_segments as usize + to;
                let count = ld(&d.edges[i]);
                if count == 0 {
                    continue;
                }
                snap.edges.push(DriftEdge {
                    from: from as u32,
                    to: to as u32,
                    count,
                    share_milli: ld(&d.edges_share[i]),
                    baseline_milli: ld(&d.edges_base[i]),
                });
            }
        }
        snap
    }

    /// Clear every count, score, baseline and the trip latch, keeping
    /// the configuration, threshold and enable flag (mirrors
    /// `GaugeBoard::reset`).
    // ordering: Relaxed — reset runs between measured phases, not
    // concurrently with a fold.
    pub fn reset(&self) {
        let zero = |v: &[AtomicU64]| {
            for a in v {
                a.store(0, Ordering::Relaxed); // ordering: see fn-top note
            }
        };
        if let Some(d) = self.dims.get() {
            zero(&d.access_prev);
            zero(&d.access_base);
            zero(&d.access_share);
            zero(&d.edges);
            zero(&d.edges_prev);
            zero(&d.edges_base);
            zero(&d.edges_share);
            zero(&d.begun);
            zero(&d.committed);
            zero(&d.drag_blame);
        }
        self.access_seeded.store(false, Ordering::Relaxed); // ordering: see fn-top note
        self.edges_seeded.store(false, Ordering::Relaxed); // ordering: see fn-top note
        self.score_milli.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.access_score_milli.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.edge_score_milli.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.access_interval_total.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.edge_interval_total.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.tripped.store(false, Ordering::Relaxed); // ordering: see fn-top note
        self.folds.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.trips.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.drag_class.store(NO_DRAGGER, Ordering::Relaxed); // ordering: see fn-top note
        self.drag_since.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.drag_now.store(0, Ordering::Relaxed); // ordering: see fn-top note
        self.drag_hist.reset();
    }
}

/// Per-class arrival/commit/blame row in a [`DriftSnapshot`]; the
/// trailing row (`class == WALL_READER`) aggregates ad-hoc read-only
/// transactions outside every class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassDrift {
    /// Class id, or [`WALL_READER`] for the ad-hoc read-only row.
    pub class: u32,
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Wall refreshes on which this class held the floor.
    pub drag_blame: u64,
}

/// One non-zero `(reader, segment)` cross-read cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftCell {
    /// Reader class id, or [`WALL_READER`] for Protocol C readers.
    pub reader: u32,
    /// Source segment.
    pub segment: u32,
    /// Cumulative reads.
    pub count: u64,
    /// Interval share at the latest fold, milli-units.
    pub share_milli: u64,
    /// EWMA baseline share, milli-units.
    pub baseline_milli: u64,
}

/// One non-zero observed co-access edge (the observed-DHG arc
/// `writer segment → accessed segment`; the diagonal carries write-only
/// mass and is not an arc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftEdge {
    /// Writer segment.
    pub from: u32,
    /// Accessed (read or written) segment.
    pub to: u32,
    /// Cumulative occurrences.
    pub count: u64,
    /// Interval share at the latest fold, milli-units.
    pub share_milli: u64,
    /// EWMA baseline share, milli-units.
    pub baseline_milli: u64,
}

/// Point-in-time copy of a [`DriftBoard`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriftSnapshot {
    /// Has `configure` run (are the dimensioned sketches allocated)?
    pub configured: bool,
    /// Was the sketch recording at snapshot time?
    pub enabled: bool,
    /// Hierarchy classes.
    pub n_classes: u32,
    /// Database segments.
    pub n_segments: u32,
    /// Trip threshold, milli-units.
    pub threshold_milli: u64,
    /// Latest combined drift score (max of the family scores).
    pub score_milli: u64,
    /// Latest cross-read-family score.
    pub access_score_milli: u64,
    /// Latest co-access-edge-family score.
    pub edge_score_milli: u64,
    /// Cross-read samples in the latest scored interval.
    pub access_interval_total: u64,
    /// Edge samples in the latest scored interval.
    pub edge_interval_total: u64,
    /// Is the board currently tripped?
    pub tripped: bool,
    /// Folds performed.
    pub folds: u64,
    /// Lifetime trips (threshold crossings).
    pub trips: u64,
    /// Per-class arrival/commit/blame rows (trailing ad-hoc row).
    pub classes: Vec<ClassDrift>,
    /// Non-zero cross-read cells.
    pub cells: Vec<DriftCell>,
    /// Non-zero observed co-access edges.
    pub edges: Vec<DriftEdge>,
    /// Class currently blamed for the wall floor.
    pub drag_class: Option<u32>,
    /// Ticks the current dragger has held the floor so far.
    pub drag_held_ticks: u64,
    /// Completed floor-hold durations, in logical-clock ticks.
    pub drag_hist: HistogramSnapshot,
}

impl DriftSnapshot {
    /// Reader label for a row id: `c3`, or `wall` for the synthetic
    /// wall/ad-hoc row.
    #[must_use]
    pub fn reader_label(reader: u32) -> String {
        if reader == WALL_READER {
            "wall".to_string()
        } else {
            format!("c{reader}")
        }
    }

    /// Hand-rolled JSON rendering (no serde in the offline build).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"configured\": {}, \"enabled\": {}, \"n_classes\": {}, \"n_segments\": {}, \
             \"threshold_milli\": {}, \"score_milli\": {}, \"access_score_milli\": {}, \
             \"edge_score_milli\": {}, \"access_interval_total\": {}, \
             \"edge_interval_total\": {}, \"tripped\": {}, \"folds\": {}, \"trips\": {}",
            self.configured,
            self.enabled,
            self.n_classes,
            self.n_segments,
            self.threshold_milli,
            self.score_milli,
            self.access_score_milli,
            self.edge_score_milli,
            self.access_interval_total,
            self.edge_interval_total,
            self.tripped,
            self.folds,
            self.trips
        );
        s.push_str(", \"classes\": [");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"class\": \"{}\", \"begun\": {}, \"committed\": {}, \"drag_blame\": {}}}",
                Self::reader_label(c.class),
                c.begun,
                c.committed,
                c.drag_blame
            );
        }
        s.push_str("], \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"reader\": \"{}\", \"segment\": {}, \"count\": {}, \"share_milli\": {}, \
                 \"baseline_milli\": {}}}",
                Self::reader_label(c.reader),
                c.segment,
                c.count,
                c.share_milli,
                c.baseline_milli
            );
        }
        s.push_str("], \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"from\": {}, \"to\": {}, \"count\": {}, \"share_milli\": {}, \
                 \"baseline_milli\": {}}}",
                e.from, e.to, e.count, e.share_milli, e.baseline_milli
            );
        }
        let _ = write!(
            s,
            "], \"drag_class\": {}, \"drag_held_ticks\": {}, \"drag_hist\": {}}}",
            self.drag_class
                .map_or("null".to_string(), |c| c.to_string()),
            self.drag_held_ticks,
            self.drag_hist.to_json()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::Obs;

    /// A drift board inside the sidecar that feeds it its access counts.
    fn seeded_board() -> Obs {
        let o = Obs::new();
        o.configure(2, 3);
        o.drift.set_enabled(true);
        o
    }

    /// Bump cells to a given per-cell count vector (access family: one
    /// staleness sample per read).
    fn feed_access(b: &Obs, counts: &[(u32, u32, u64)]) {
        for &(reader, seg, n) in counts {
            for _ in 0..n {
                b.gauges.record_staleness(reader, seg, 1);
            }
        }
    }

    /// One fold over the sidecar's staleness counts.
    fn fold(b: &Obs) -> Option<DriftTrip> {
        b.drift.fold(&b.gauges.staleness_counts())
    }

    #[test]
    fn unconfigured_board_drops_everything_silently() {
        let b = Obs::new();
        b.gauges.configure(2, 3);
        b.gauges.record_staleness(0, 0, 1);
        b.drift.record_edge(0, 1);
        b.drift.note_begin(0);
        b.drift.note_commit(0);
        b.drift.note_wall_floor(Some(0), 5);
        assert_eq!(fold(&b), None);
        let s = b.snapshot().drift;
        assert!(!s.configured);
        assert!(s.cells.is_empty() && s.edges.is_empty() && s.classes.is_empty());
    }

    #[test]
    fn first_adequate_fold_seeds_baseline_and_scores_zero() {
        let b = seeded_board();
        feed_access(&b, &[(0, 0, 20), (1, 2, 20)]);
        assert_eq!(fold(&b), None);
        assert_eq!(b.drift.score_milli(), 0);
        let s = b.snapshot().drift;
        assert_eq!(s.folds, 1);
        // Baseline seeded at the observed shares (500‰ each).
        let cell = s.cells.iter().find(|c| c.reader == 0).unwrap();
        assert_eq!(cell.baseline_milli, 500);
        assert_eq!(cell.share_milli, 500);
    }

    #[test]
    fn shifted_mix_trips_once_and_rearms_after_hysteresis() {
        let b = seeded_board();
        feed_access(&b, &[(0, 0, 50), (1, 2, 50)]);
        fold(&b);
        // Same mix again: calm.
        feed_access(&b, &[(0, 0, 50), (1, 2, 50)]);
        assert_eq!(fold(&b), None);
        assert!(b.drift.score_milli() < 50, "steady mix must score low");
        // Shift everything onto one cell: TV = 500‰ > threshold.
        feed_access(&b, &[(0, 1, 100)]);
        let trip = fold(&b).expect("shift must trip");
        assert!(trip.score_milli >= DEFAULT_DRIFT_THRESHOLD_MILLI);
        assert!(b.drift.tripped());
        // Still shifted: tripped stays latched, no second trip event.
        feed_access(&b, &[(0, 1, 100)]);
        assert_eq!(fold(&b), None);
        assert_eq!(b.snapshot().drift.trips, 1);
        // Hold the new mix until the EWMA converges and the latch
        // releases (score < 80% of threshold), then shift back: a new
        // trip fires.
        for _ in 0..12 {
            feed_access(&b, &[(0, 1, 100)]);
            fold(&b);
        }
        assert!(
            !b.drift.tripped(),
            "EWMA must converge and release the latch"
        );
        feed_access(&b, &[(0, 0, 50), (1, 2, 50)]);
        assert!(fold(&b).is_some(), "shift back must re-trip");
        assert_eq!(b.snapshot().drift.trips, 2);
    }

    #[test]
    fn thin_intervals_neither_score_nor_move_the_baseline() {
        let b = seeded_board();
        feed_access(&b, &[(0, 0, 100)]);
        fold(&b);
        // 5 samples on a *different* cell: under MIN_FOLD_SAMPLES, so
        // no trip and the baseline stays put.
        feed_access(&b, &[(1, 2, 5)]);
        assert_eq!(fold(&b), None);
        assert_eq!(b.drift.score_milli(), 0);
        let s = b.snapshot().drift;
        let cell = s.cells.iter().find(|c| c.reader == 0).unwrap();
        assert_eq!(cell.baseline_milli, 1000);
        // The thin samples are not lost: they score with the next
        // adequate interval.
        feed_access(&b, &[(1, 2, 95)]);
        assert!(fold(&b).is_some(), "accumulated shift must trip");
    }

    #[test]
    fn edge_family_scores_independently_of_access_family() {
        let b = seeded_board();
        for _ in 0..30 {
            b.drift.record_edge(0, 1);
        }
        fold(&b);
        for _ in 0..30 {
            b.drift.record_edge(2, 0);
        }
        let trip = fold(&b).expect("edge-mix shift must trip");
        assert!(trip.score_milli >= DEFAULT_DRIFT_THRESHOLD_MILLI);
        let s = b.snapshot().drift;
        assert_eq!(s.access_score_milli, 0);
        assert!(s.edge_score_milli >= DEFAULT_DRIFT_THRESHOLD_MILLI);
        assert_eq!(s.edges.len(), 2);
    }

    #[test]
    fn wall_drag_blames_the_floor_holder_and_histograms_handoffs() {
        let b = seeded_board();
        b.drift.note_wall_floor(Some(0), 10);
        b.drift.note_wall_floor(Some(0), 20);
        b.drift.note_wall_floor(Some(1), 35);
        b.drift.note_wall_floor(None, 40);
        let s = b.snapshot().drift;
        let blame: Vec<u64> = s.classes.iter().map(|c| c.drag_blame).collect();
        assert_eq!(blame, vec![2, 1, 0]);
        // Two completed holds: class 0 for 25 ticks, class 1 for 5.
        assert_eq!(s.drag_hist.count, 2);
        assert_eq!(s.drag_hist.sum, 30);
        assert_eq!(s.drag_class, None);
    }

    #[test]
    fn begin_commit_rows_route_read_only_to_the_adhoc_row() {
        let b = seeded_board();
        b.drift.note_begin(0);
        b.drift.note_begin(1);
        b.drift.note_begin(u32::MAX);
        b.drift.note_commit(u32::MAX);
        let s = b.snapshot().drift;
        assert_eq!(s.classes.len(), 3);
        assert_eq!(s.classes[2].class, WALL_READER);
        assert_eq!(s.classes[2].begun, 1);
        assert_eq!(s.classes[2].committed, 1);
    }

    #[test]
    fn reset_clears_counts_but_keeps_configuration_and_threshold() {
        let b = seeded_board();
        b.drift.set_threshold_milli(400);
        feed_access(&b, &[(0, 0, 50)]);
        b.drift.record_edge(0, 1);
        fold(&b);
        b.reset();
        let s = b.snapshot().drift;
        assert!(s.configured && s.enabled);
        assert_eq!(s.threshold_milli, 400);
        assert_eq!(s.folds, 0);
        assert!(s.cells.is_empty() && s.edges.is_empty());
        assert_eq!(s.score_milli, 0);
        // Post-reset the baseline reseeds rather than comparing
        // against the pre-reset mix.
        feed_access(&b, &[(1, 2, 50)]);
        assert_eq!(fold(&b), None);
        assert_eq!(b.drift.score_milli(), 0);
    }

    #[test]
    fn snapshot_json_is_shaped_and_threshold_clamps() {
        let b = seeded_board();
        b.drift.set_threshold_milli(5000);
        assert_eq!(b.drift.threshold_milli(), 1000);
        b.drift.set_threshold_milli(0);
        assert_eq!(b.drift.threshold_milli(), 1);
        feed_access(&b, &[(0, 0, 20), (WALL_READER, 1, 4)]);
        b.drift.note_wall_floor(Some(1), 9);
        let j = b.snapshot().drift.to_json();
        for key in [
            "\"score_milli\"",
            "\"tripped\": false",
            "\"reader\": \"wall\"",
            "\"drag_class\": 1",
            "\"drag_hist\"",
            "\"classes\"",
            "\"edges\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
