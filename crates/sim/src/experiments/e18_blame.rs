//! **E18 — flight-recorder blame profile** (no paper figure; ours).
//!
//! For each worker count, one hdd run over a contended batch
//! (`contended_batch`) with the flight recorder sampling every 4th
//! transaction. In that batch every 8th transaction holds its pending
//! balance a while before committing, so transactions really block on
//! each other — the waits the recorder exists to attribute — on any
//! host, not only when a holder happens to be preempted mid-write. The
//! run's schedule log is checked for serializability, and its span
//! stream is assembled into flight trees and reduced to the two
//! headline artifacts of the recorder:
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

use crate::concurrent::{run_with_faults, ConcurrentConfig};
use crate::factory::{build_scheduler, SchedulerKind};
use crate::report::{f2, Table};
use chaos::{FaultKind, FaultPlan};
use obs::{assemble, BlameReport, PhaseBreakdown};
use rand::rngs::StdRng;
use rand::SeedableRng;
use txn_model::TxnProgram;
use workloads::banking::Banking;
use workloads::Workload;

/// Sampling stride for the traced leg: every 4th transaction gets a
/// full span tree, the rest stay counter-only.
pub const SAMPLE_EVERY: u64 = 4;

/// E18's batch: `n` deposits and withdrawals over four accounts, and the
/// plan that makes every 8th program a slow holder — it sleeps 100 µs
/// between its write and its commit, so a concurrent transaction on the
/// same account blocks on its pending version (Protocol B).
fn contended_batch(n: usize, seed: u64) -> (Banking, Vec<TxnProgram>, FaultPlan) {
    let mut w = Banking::new(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = (0..n).map(|_| w.generate(&mut rng)).collect();
    let mut plan = FaultPlan::clean(n);
    for fault in plan.faults.iter_mut().step_by(8) {
        *fault = FaultKind::DelayCommit { micros: 100 };
    }
    (w, programs, plan)
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct BlamePoint {
    /// Worker threads.
    pub workers: usize,
    /// The run's schedule log certified serializable.
    pub serializable: bool,
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
    let n_txns = if quick { 1_000 } else { 8_000 };
    let worker_counts: &[usize] = if quick { &[2, 4] } else { &[1, 2, 4, 8, 16] };
    let mut points = Vec::new();
    for &workers in worker_counts {
        let (w, programs, plan) = contended_batch(n_txns, 0x00F1_8011);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            obs: true,
            flight_sample: SAMPLE_EVERY,
            ..ConcurrentConfig::default()
        };
        let out = run_with_faults(sched.as_ref(), programs, &plan, &cfg);
        let log = assemble(&sched.metrics().obs.events.drain());
        points.push(BlamePoint {
            workers,
            serializable: out.stats.serializable == Some(true),
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
        "E18 — flight-recorder blame profile (banking, slow holders, hdd, sample 1-in-4)",
        &[
            "workers",
            "serializable",
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
            p.serializable.to_string(),
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
    use obs::{flight_chrome_trace, validate_chrome_trace};

    /// Sampled waits on another transaction's pending version.
    fn txn_waits(blame: &BlameReport) -> u64 {
        let txn = blame
            .by_cause
            .iter()
            .filter(|b| b.label.starts_with("txn-pending"));
        txn.map(|b| b.waits).sum()
    }

    #[test]
    fn quick_sweep_attributes_waits_and_leaks_no_spans() {
        let points = sweep(true);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.serializable, "E18 at {} workers", p.workers);
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
            // Coverage of nothing is vacuous: first, real waits. The
            // floor is half the fewest seen in 88 debug and release runs
            // on a 2-vCPU host, alone and beside three other copies (16,
            // at 2 workers).
            assert!(
                txn_waits(&p.blame) >= 8,
                "only {} sampled txn-pending waits at {} workers",
                txn_waits(&p.blame),
                p.workers
            );
            assert!(
                p.blame.coverage() >= 0.95,
                "attribution coverage {:.3} < 0.95 at {} workers",
                p.blame.coverage(),
                p.workers
            );
            assert!(
                !p.blame.by_cause.iter().any(|b| b.label == "txn-pending ro"),
                "a read-only holder cannot hold a pending version"
            );
        }
    }

    /// The flight recorder at 8 workers: measured waits on transactions,
    /// ≥ 95 % of their time carrying a cause edge, no open span, and a
    /// Perfetto export that passes the in-repo validator.
    #[test]
    fn eight_workers_attribute_their_waits_and_export_a_valid_trace() {
        let (w, programs, plan) = contended_batch(8_000, 0x00F1_B1A3);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers: 8,
            obs: true,
            flight_sample: SAMPLE_EVERY,
            ..ConcurrentConfig::default()
        };
        let out = run_with_faults(sched.as_ref(), programs, &plan, &cfg);
        assert_eq!(out.stats.committed, 8_000);
        assert_eq!(out.stats.serializable, Some(true), "{:?}", out.stats.cycle);
        let log = assemble(&sched.metrics().obs.events.drain());
        let blame = BlameReport::build(&log);
        assert_eq!(log.open, 0, "flights never terminated");
        assert!(
            !log.flights.is_empty(),
            "the 1-in-4 stride sampled no flights"
        );
        // A third of the fewest seen in the same 88 runs (732).
        assert!(
            txn_waits(&blame) >= 250,
            "only {} sampled txn-pending waits:\n{}",
            txn_waits(&blame),
            blame.render_top(5)
        );
        assert!(
            blame.coverage() >= 0.95,
            "only {:.1}% of measured block time carries a cause edge",
            blame.coverage() * 100.0
        );
        let events = validate_chrome_trace(&flight_chrome_trace(&log))
            .expect("the perfetto trace must validate");
        assert!(events > 0, "the perfetto trace is empty");
    }
}
