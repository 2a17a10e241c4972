//! Text frames for the `hdd-top` live dashboard.
//!
//! [`render`] is a pure function from snapshots to a frame string, so
//! the layout is unit-testable without a terminal or a running driver;
//! [`Dashboard`] is the thin stateful wrapper the binary uses, keeping
//! the previous counter snapshot so every frame shows the interval
//! delta (reject/blocks/commit rates) next to the cumulative totals.
//! Deltas go through `MetricsSnapshot::delta`, which saturates instead
//! of wrapping, so a scheduler reset (crash/recovery resume) mid-
//! interval clamps the printed rates to zero rather than showing a
//! wrapped `u64`.

use crate::report::f2;
use certify::{advise, AdvisorReport};
use hdd::analysis::Hierarchy;
use obs::{GaugeSnapshot, ShapeSnapshot};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use txn_model::{Metrics, MetricsSnapshot};

/// ANSI escape: clear the screen and home the cursor (what `hdd-top`
/// prints before each frame unless `--no-clear`).
pub const ANSI_CLEAR: &str = "\x1b[2J\x1b[H";

/// Everything one frame needs, as plain snapshots.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Header title (workload / mode description).
    pub title: &'a str,
    /// Seconds since the dashboard attached.
    pub elapsed_secs: f64,
    /// Seconds covered by `delta`.
    pub interval_secs: f64,
    /// Cumulative counters.
    pub totals: &'a MetricsSnapshot,
    /// Counter deltas over the last interval (saturating).
    pub delta: &'a MetricsSnapshot,
    /// The live gauge board.
    pub gauges: &'a GaugeSnapshot,
    /// Precomputed one-line advisor summary, if a hierarchy was
    /// attached and the shape table has counted a begin.
    pub advice: Option<&'a str>,
    /// Segment display names; segments beyond the slice fall back to
    /// `s<idx>`.
    pub segment_names: &'a [String],
}

/// Segment display label.
fn seg_label(names: &[String], idx: u32) -> String {
    names
        .get(idx as usize)
        .cloned()
        .unwrap_or_else(|| format!("s{idx}"))
}

/// Render one frame (see module docs). The output is deterministic in
/// its inputs — no clocks, no terminal queries.
pub fn render(f: &Frame) -> String {
    let mut s = String::new();
    let rate = if f.interval_secs > 0.0 {
        f.delta.commits as f64 / f.interval_secs
    } else {
        0.0
    };
    let _ = writeln!(
        s,
        "== hdd-top — {} ==  t={}s  interval={}s",
        f.title,
        f2(f.elapsed_secs),
        f2(f.interval_secs)
    );
    let _ = writeln!(
        s,
        " commits   {:>10} total | {:>10} /s     aborts {:>8}",
        f.totals.commits,
        f2(rate),
        f.totals.aborts
    );
    let g = f.gauges;
    let _ = writeln!(
        s,
        " driver    {}/{} programs claimed",
        g.driver_claimed, g.driver_offered
    );
    let _ = writeln!(
        s,
        " wall      clock={}  floor={}  anchor={}  released@{}  lag={}",
        g.clock_now, g.wall_floor, g.wall_anchor, g.wall_released_at, g.wall_lag
    );
    let _ = writeln!(
        s,
        " registry  active={}  intervals={}  settled_lag={}",
        g.active_txns, g.registry_intervals, g.registry_settled_lag
    );
    let _ = writeln!(
        s,
        " store     versions={}  granules={}  max_chain={}  gc_backlog={}  watermark={}",
        g.store_versions, g.store_granules, g.store_max_chain, g.gc_backlog, g.gc_watermark
    );
    let _ = writeln!(
        s,
        " rejects Δ {} ({})  wall_viol Δ {}  blocks Δ {}  reads Δ {}  writes Δ {}",
        f.delta.rejections,
        f.delta.rejection_breakdown(),
        f.delta.wall_violations,
        f.delta.blocks,
        f.delta.reads,
        f.delta.writes
    );
    if g.configured {
        let _ = write!(s, " classes  ");
        for c in &g.classes {
            let _ = write!(
                s,
                " c{}: i_old={} active={} lag={} wall={} |",
                c.class, c.i_old, c.active, c.settled_lag, c.wall_component
            );
        }
        let _ = writeln!(s);
        let _ = write!(s, " seg walls");
        for (i, w) in g.segment_walls.iter().enumerate() {
            let _ = write!(s, " {}={}", seg_label(f.segment_names, i as u32), w);
        }
        let _ = writeln!(s);
        let dragger = g.drag_class.map_or("-".to_string(), |c| format!("c{c}"));
        let _ = write!(
            s,
            " wall drag {dragger} held={} ticks  blame:",
            g.drag_held_ticks
        );
        for c in g.classes.iter().filter(|c| c.drag_blame > 0) {
            let _ = write!(s, " c{}={}", c.class, c.drag_blame);
        }
        let _ = writeln!(s);
    }
    if let Some(advice) = f.advice {
        let _ = writeln!(s, " advice    {advice}");
    }
    let _ = writeln!(s, " staleness (reader → source segment, ticks, cumulative)");
    let _ = writeln!(
        s,
        "   {:<8} {:<8} {:>10} {:>8} {:>8} {:>8}",
        "reader", "segment", "reads", "p50", "p99", "max"
    );
    if g.staleness.is_empty() {
        let _ = writeln!(s, "   (no cross-class or wall reads yet)");
    }
    for cell in &g.staleness {
        let _ = writeln!(
            s,
            "   {:<8} {:<8} {:>10} {:>8} {:>8} {:>8}",
            cell.reader_label(),
            seg_label(f.segment_names, cell.segment),
            cell.hist.count,
            cell.hist.p50(),
            cell.hist.p99(),
            cell.hist.max
        );
    }
    s
}

/// Stateful frame producer for the `hdd-top` binary: samples a live
/// [`Metrics`] and renders with the interval delta against the previous
/// sample.
#[derive(Debug)]
pub struct Dashboard {
    title: String,
    segment_names: Vec<String>,
    hierarchy: Option<Arc<Hierarchy>>,
    /// The previous frame's advice, which the next one is compared to.
    advice: Option<AdvisorReport>,
    started: Instant,
    prev: Option<(Instant, MetricsSnapshot)>,
}

impl Dashboard {
    /// A dashboard with nothing sampled yet.
    pub fn new(title: impl Into<String>, segment_names: Vec<String>) -> Self {
        Dashboard {
            title: title.into(),
            segment_names,
            hierarchy: None,
            advice: None,
            started: Instant::now(),
            prev: None,
        }
    }

    /// Attach the running hierarchy so each frame can lint the observed
    /// shapes through the decomposition advisor (the `advice` line).
    pub fn with_hierarchy(mut self, hierarchy: Arc<Hierarchy>) -> Self {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// One-line advisor summary for the observed shapes, or `None` when
    /// no hierarchy is attached or no begin was counted yet. `[changed]`
    /// marks advice that differs from the previous frame's.
    fn advice_line(&mut self, shapes: &ShapeSnapshot) -> Option<String> {
        let h = self.hierarchy.as_ref()?;
        if shapes.begins() == 0 {
            return None;
        }
        let report = advise(h, shapes, self.advice.as_ref());
        let verdict = if report.lint.ok() { "ok" } else { "fails" };
        let text = match report.suggestions.first() {
            None => "hierarchy matches the observed workload's best TST".to_string(),
            Some(a) => report.advice_text(a),
        };
        let changed = if report.drifted { "  [changed]" } else { "" };
        let line = format!(
            "quality {}/1000, lint {verdict}: {text}{changed}",
            report.quality_milli
        );
        self.advice = Some(report);
        Some(line)
    }

    /// Sample `metrics` (counters + gauge board + shape table) and
    /// render one frame. The first frame's "interval" is everything
    /// since attach.
    pub fn frame(&mut self, metrics: &Metrics) -> String {
        let now = Instant::now();
        let totals = metrics.snapshot();
        let obs = metrics.obs.snapshot();
        let advice = self.advice_line(&obs.shapes);
        let (since, baseline) = match self.prev {
            Some((t, s)) => (now.duration_since(t), s),
            None => (now.duration_since(self.started), MetricsSnapshot::default()),
        };
        let delta = totals.delta(&baseline);
        self.prev = Some((now, totals));
        render(&Frame {
            title: &self.title,
            elapsed_secs: now.duration_since(self.started).as_secs_f64(),
            interval_secs: since.as_secs_f64(),
            totals: &totals,
            delta: &delta,
            gauges: &obs.gauges,
            advice: advice.as_deref(),
            segment_names: &self.segment_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::WALL_READER;

    fn fixed_frame_text() -> String {
        let board = obs::GaugeBoard::new();
        board.configure(2, 3);
        board.set_clock(1234);
        board.set_wall(1210, 1220, 1200, 34);
        board.set_class(0, 3, 2, 0);
        board.set_class(1, 7, 1, 1);
        board.set_wall_component(0, 1200);
        board.set_segment_wall(0, 1200);
        board.set_activity(3, 40, 1);
        board.set_store(640, 320, 4, 12);
        board.set_driver_progress(123, 1000);
        board.record_staleness(1, 0, 3);
        board.record_staleness(1, 0, 17);
        board.record_staleness(WALL_READER, 2, 5);
        let gauges = board.snapshot();
        let totals = MetricsSnapshot {
            commits: 5678,
            aborts: 12,
            rejections: 3,
            rej_write_too_late: 2,
            rej_read_too_late: 1,
            blocks: 40,
            ..Default::default()
        };
        let delta = MetricsSnapshot {
            commits: 100,
            rejections: 3,
            rej_write_too_late: 2,
            rej_read_too_late: 1,
            blocks: 17,
            ..Default::default()
        };
        let names = vec!["D0".to_string(), "D1".to_string(), "D2".to_string()];
        render(&Frame {
            title: "inventory",
            elapsed_secs: 12.3,
            interval_secs: 0.25,
            totals: &totals,
            delta: &delta,
            gauges: &gauges,
            advice: None,
            segment_names: &names,
        })
    }

    #[test]
    fn render_is_deterministic_and_shows_every_section() {
        let a = fixed_frame_text();
        let b = fixed_frame_text();
        assert_eq!(a, b, "pure function of its inputs");
        assert!(a.contains("== hdd-top — inventory ==  t=12.30s  interval=0.25s"));
        assert!(a.contains("400.00 /s"), "100 commits / 0.25 s:\n{a}");
        assert!(a.contains("driver    123/1000"));
        assert!(a.contains("clock=1234  floor=1200  anchor=1210  released@1220  lag=34"));
        assert!(a.contains("rejects Δ 3 (w2/r1/d0)"));
        assert!(a.contains("c0: i_old=3 active=2 lag=0 wall=1200"));
        assert!(a.contains("D0=1200"), "segment names label the walls:\n{a}");
        assert!(a.contains("c1"), "class staleness row present");
        assert!(a.contains("wall"), "wall-reader staleness row present");
    }

    #[test]
    fn unnamed_segments_fall_back_to_indices() {
        let board = obs::GaugeBoard::new();
        board.configure(1, 1);
        board.record_staleness(0, 0, 9);
        let gauges = board.snapshot();
        let zero = MetricsSnapshot::default();
        let text = render(&Frame {
            title: "t",
            elapsed_secs: 0.0,
            interval_secs: 0.0,
            totals: &zero,
            delta: &zero,
            gauges: &gauges,
            advice: None,
            segment_names: &[],
        });
        assert!(text.contains("s0"), "fallback label:\n{text}");
    }

    #[test]
    fn empty_staleness_prints_a_placeholder_not_garbage() {
        let gauges = GaugeSnapshot::default();
        let zero = MetricsSnapshot::default();
        let text = render(&Frame {
            title: "idle",
            elapsed_secs: 1.0,
            interval_secs: 1.0,
            totals: &zero,
            delta: &zero,
            gauges: &gauges,
            advice: None,
            segment_names: &[],
        });
        assert!(text.contains("no cross-class or wall reads yet"));
        assert!(
            !text.contains("classes"),
            "unconfigured board: no class rows"
        );
        assert!(
            !text.contains("wall drag"),
            "unconfigured board: no drag line"
        );
    }

    #[test]
    fn wall_drag_and_advice_lines_render() {
        let board = obs::GaugeBoard::new();
        board.configure(2, 3);
        board.note_wall_floor(Some(1), 10);
        board.note_wall_floor(Some(1), 14);
        let zero = MetricsSnapshot::default();
        let text = render(&Frame {
            title: "dragged",
            elapsed_secs: 1.0,
            interval_secs: 1.0,
            totals: &zero,
            delta: &zero,
            gauges: &board.snapshot(),
            advice: Some("quality 666/1000, lint fails: merge segments D0+D1"),
            segment_names: &[],
        });
        assert!(
            text.contains("wall drag c1 held=4 ticks  blame: c1=2\n"),
            "{text}"
        );
        assert!(text.contains("advice    quality 666/1000"), "{text}");
    }

    #[test]
    fn dashboard_advice_line_lints_the_observed_shapes() {
        use hdd::analysis::AccessSpec;
        use txn_model::SegmentId;
        let specs = vec![
            AccessSpec::new("t1", vec![SegmentId(0)], vec![]),
            AccessSpec::new("t2", vec![SegmentId(1)], vec![SegmentId(0)]),
        ];
        let h = Arc::new(Hierarchy::build(2, &specs).unwrap());
        let m = Metrics::default();
        m.obs.configure(2, 2);
        m.obs.set_enabled(true);
        m.obs.shapes.set_enabled(true);
        let mut d = Dashboard::new("live", vec![]).with_hierarchy(h);
        let begin = |class: u32, reads: &[u32], write: u32, n: usize| {
            for _ in 0..n {
                m.obs
                    .began(class, reads.iter().copied(), [write].into_iter());
            }
        };
        // Nothing begun yet: no advice line.
        assert!(!d.frame(&m).contains("advice    "));
        begin(0, &[], 0, 20);
        begin(1, &[0], 1, 20);
        let text = d.frame(&m);
        assert!(
            text.contains("advice    quality 1000/1000, lint ok: hierarchy matches"),
            "{text}"
        );
        // A cycle-closing shape: the advice turns to the merge.
        begin(0, &[1], 0, 20);
        let text = d.frame(&m);
        assert!(
            text.contains("quality 0/1000, lint fails: merge segments D0+D1"),
            "{text}"
        );
        assert!(text.contains("[changed]"), "{text}");
        assert!(!d.frame(&m).contains("[changed]"), "same advice twice");
    }

    #[test]
    fn dashboard_frames_show_interval_deltas_and_clamp_across_reset() {
        let m = Metrics::default();
        let mut d = Dashboard::new("live", vec![]);
        Metrics::add(&m.commits, 10);
        let first = d.frame(&m);
        assert!(first.contains("10 total"));
        Metrics::add(&m.commits, 5);
        let second = d.frame(&m);
        assert!(second.contains("15 total"));
        // Reset mid-interval (crash/recovery resume): the next frame
        // must clamp, not wrap.
        m.reset();
        Metrics::add(&m.commits, 2);
        let third = d.frame(&m);
        assert!(third.contains("2 total"));
        assert!(
            !third.contains("18446744073709"),
            "wrapped u64 leaked into the frame:\n{third}"
        );
    }
}
