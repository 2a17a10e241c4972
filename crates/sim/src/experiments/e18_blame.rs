//! **E18 — flight-recorder blame profile** (no paper figure; ours).
//!
//! For each worker count, two hdd runs over the same inventory batch:
//! one with the flight recorder **off** (the tracing-disabled
//! throughput) and one with it sampling every 4th transaction. The
//! traced run's span stream is assembled into flight trees and reduced
//! to the two headline artifacts of the recorder:
//!
//! * a [`BlameReport`] — measured block time bucketed by *cause edge*
//!   (which transaction class, or which pending time wall, the waiter
//!   was blocked on), with the attribution coverage fraction;
//! * a committed-flight [`PhaseBreakdown`] — read/write/commit service
//!   vs. blocked vs. driver-other time across every sampled commit.
//!
//! ```text
//! cargo run --release -p sim --bin experiments -- e18
//! ```

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::experiments::e02_inventory::batch;
use crate::factory::{build_scheduler, SchedulerKind};
use crate::report::{f2, Table};
use obs::{assemble, BlameReport, PhaseBreakdown};

/// Sampling stride for the traced leg: every 4th transaction gets a
/// full span tree, the rest stay counter-only.
pub const SAMPLE_EVERY: u64 = 4;

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct BlamePoint {
    /// Worker threads.
    pub workers: usize,
    /// Commits/sec with the flight recorder (and obs) disabled.
    pub disabled_cps: f64,
    /// Commits/sec with obs on and the recorder sampling 1-in-4.
    pub traced_cps: f64,
    /// Wait-cause blame over the sampled flights.
    pub blame: BlameReport,
    /// Phase profile over the sampled committed flights.
    pub phases: PhaseBreakdown,
    /// Sampled flights assembled (terminated + open).
    pub flights: usize,
    /// Flights still open after the run — must be zero.
    pub open: usize,
}

/// Run the sweep and return the raw points.
pub fn sweep(quick: bool) -> Vec<BlamePoint> {
    let n_txns = if quick { 300 } else { 8_000 };
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    let mut points = Vec::new();
    for &workers in worker_counts {
        // Leg 1: tracing disabled — the throughput the recorder must
        // not disturb.
        let (w, programs) = batch(n_txns, 0x00F1_8011);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            verify: false,
            capture_log: false,
            ..ConcurrentConfig::default()
        };
        let disabled = run_concurrent(sched.as_ref(), programs, &cfg);

        // Leg 2: same batch, recorder sampling every 4th transaction.
        let (w, programs) = batch(n_txns, 0x00F1_8011);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            obs: true,
            flight_sample: SAMPLE_EVERY,
            verify: false,
            capture_log: false,
            ..ConcurrentConfig::default()
        };
        let traced = run_concurrent(sched.as_ref(), programs, &cfg);
        let log = assemble(&sched.metrics().obs.events.drain());
        points.push(BlamePoint {
            workers,
            disabled_cps: disabled.throughput,
            traced_cps: traced.throughput,
            blame: BlameReport::build(&log),
            phases: PhaseBreakdown::of_commits(&log),
            flights: log.flights.len() + log.open,
            open: log.open,
        });
    }
    points
}

/// Run E18 and return the table.
pub fn run(quick: bool) -> Table {
    let points = sweep(quick);
    let mut table = Table::new(
        "E18 — flight-recorder blame profile (inventory, hdd, sample 1-in-4)",
        &[
            "workers",
            "disabled-cps",
            "traced-cps",
            "flights",
            "open",
            "coverage-pct",
            "wait-share-pct",
            "top-cause",
        ],
    );
    for p in &points {
        let wait_share = p
            .phases
            .shares()
            .iter()
            .find(|(l, _)| *l == "wait")
            .map_or(0.0, |(_, s)| *s);
        table.row(&[
            p.workers.to_string(),
            f2(p.disabled_cps),
            f2(p.traced_cps),
            p.flights.to_string(),
            p.open.to_string(),
            f2(p.blame.coverage() * 100.0),
            f2(wait_share * 100.0),
            p.blame
                .by_cause
                .first()
                .map_or("-".to_string(), |b| b.label.clone()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_attributes_waits_and_leaks_no_spans() {
        let points = sweep(true);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.disabled_cps > 0.0);
            assert!(p.traced_cps > 0.0);
            assert_eq!(p.open, 0, "no open flights at {} workers", p.workers);
            assert!(
                p.flights > 0,
                "the 1-in-4 stride must sample flights at {} workers",
                p.workers
            );
            assert!(
                p.phases.flights > 0,
                "sampled commits must exist at {} workers",
                p.workers
            );
            assert!(
                p.blame.coverage() >= 0.95,
                "attribution coverage {:.3} < 0.95 at {} workers",
                p.blame.coverage(),
                p.workers
            );
        }
    }
}
