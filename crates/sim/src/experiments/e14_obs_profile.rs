//! **E14 — observability profile of the hot path** (no paper figure;
//! ours).
//!
//! Runs a worker sweep (HDD vs. MVTO vs. 2PL, inventory workload,
//! concurrent driver) with the `obs` sidecar **enabled** and
//! reports *distributions* instead of flat counters: commit-latency and
//! block-wait percentiles, Protocol A registry scan lengths, the
//! per-reason rejection breakdown, and the GC / time-wall maintenance
//! counters. Each cell runs a warmup batch first and reports the
//! measured interval via [`MetricsSnapshot::delta`], so steady-state
//! numbers are not polluted by cold chains.
//!
//! ```text
//! cargo run --release -p sim --bin experiments -- e14
//! ```
//!
//! The interesting read is the hdd/mvto crossover at 4+ workers (see
//! EXPERIMENTS.md §E14): HDD's classed `begin`/`commit` draw their
//! timestamps inside a per-class registry lock, so same-class begins
//! serialize; MVTO only ticks the global atomic clock. The op-service
//! and commit-latency tails below localize exactly that cost.

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::experiments::e02_inventory::batch;
use crate::factory::{build_scheduler, SchedulerKind};
use crate::report::{f2, Table};
use obs::ObsSnapshot;
use txn_model::MetricsSnapshot;

/// One measured cell of the obs-enabled sweep.
#[derive(Debug, Clone)]
pub struct ObsPoint {
    /// Scheduler measured.
    pub scheduler: &'static str,
    /// Worker threads.
    pub workers: usize,
    /// Transactions committed in the measured interval.
    pub committed: usize,
    /// Committed transactions per second (measured interval).
    pub commits_per_sec: f64,
    /// Full distribution snapshot (latencies in ns, scans in entries).
    pub obs: ObsSnapshot,
    /// Counter deltas over the measured interval (warmup excluded).
    pub interval: MetricsSnapshot,
}

const SCHEDULERS: &[SchedulerKind] = &[
    SchedulerKind::Hdd,
    SchedulerKind::Mvto,
    SchedulerKind::TwoPl,
];

/// Nanoseconds → microseconds for table cells.
fn us(ns: u64) -> String {
    f2(ns as f64 / 1_000.0)
}

/// Run the sweep and return the raw points.
pub fn sweep(quick: bool) -> Vec<ObsPoint> {
    let n_txns = if quick { 200 } else { 20_000 };
    let warmup_txns = n_txns / 10;
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut points = Vec::new();
    for &kind in SCHEDULERS {
        for &workers in worker_counts {
            let (w, warmup) = batch(warmup_txns, 0x0E14_0001);
            let (_, programs) = batch(n_txns, 0x0E14_0002);
            let (sched, _store) = build_scheduler(kind, &w);
            let cfg = ConcurrentConfig {
                workers,
                obs: true,
                // Pure-throughput mode, like a production profile run:
                // the schedule log is the dominant non-protocol cost.
                verify: false,
                ..ConcurrentConfig::default()
            };
            run_concurrent(sched.as_ref(), warmup, &cfg);
            let before = sched.metrics().snapshot();
            sched.metrics().obs.reset();
            let out = run_concurrent(sched.as_ref(), programs, &cfg);
            let interval = sched.metrics().snapshot().delta(&before);
            points.push(ObsPoint {
                scheduler: kind.name(),
                workers,
                committed: out.stats.committed,
                commits_per_sec: out.throughput,
                obs: sched.metrics().obs.snapshot(),
                interval,
            });
        }
    }
    points
}

/// The latency table (µs cells).
pub fn latency_table(points: &[ObsPoint]) -> Table {
    let mut t = Table::new(
        "E14 — latency distributions (inventory, obs enabled, µs)",
        &[
            "scheduler",
            "workers",
            "commits_per_sec",
            "commit_p50",
            "commit_p95",
            "commit_p99",
            "op_p50",
            "op_p99",
            "block_p95",
            "backoff_p95",
        ],
    );
    for p in points {
        t.row(&[
            p.scheduler.to_string(),
            p.workers.to_string(),
            f2(p.commits_per_sec),
            us(p.obs.commit_latency.p50()),
            us(p.obs.commit_latency.p95()),
            us(p.obs.commit_latency.p99()),
            us(p.obs.op_service.p50()),
            us(p.obs.op_service.p99()),
            us(p.obs.block_wait.p95()),
            us(p.obs.backoff_sleep.p95()),
        ]);
    }
    t
}

/// The protocol-decision table (counts over the measured interval).
pub fn decision_table(points: &[ObsPoint]) -> Table {
    let mut t = Table::new(
        "E14 — protocol decisions (measured interval, warmup excluded)",
        &[
            "scheduler",
            "workers",
            "committed",
            "rejections(w/r/d)",
            "wall_viol",
            "scan_p50",
            "scan_p99",
            "versions_gced",
            "walls_released",
            "trace_events",
        ],
    );
    for p in points {
        t.row(&[
            p.scheduler.to_string(),
            p.workers.to_string(),
            p.committed.to_string(),
            format!(
                "{} ({})",
                p.interval.rejections,
                p.interval.rejection_breakdown()
            ),
            p.interval.wall_violations.to_string(),
            p.obs.registry_scan.p50().to_string(),
            p.obs.registry_scan.p99().to_string(),
            p.interval.versions_gced.to_string(),
            p.interval.timewalls_released.to_string(),
            p.obs.trace_recorded.to_string(),
        ]);
    }
    t
}

/// Run E14 and return the decision table (the latency table is printed
/// to stdout alongside).
pub fn run(quick: bool) -> Table {
    let points = sweep(quick);
    println!("{}", latency_table(&points));
    decision_table(&points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_profiles_all_schedulers() {
        let points = sweep(true);
        assert_eq!(points.len(), SCHEDULERS.len() * 2);
        for p in &points {
            assert!(p.committed > 0, "{} at {}", p.scheduler, p.workers);
            assert_eq!(
                p.obs.commit_latency.count, p.committed as u64,
                "one commit-latency sample per commit ({})",
                p.scheduler
            );
            assert!(p.obs.op_service.count > 0);
            assert_eq!(
                p.interval.rejections,
                p.interval.rej_write_too_late
                    + p.interval.rej_read_too_late
                    + p.interval.rej_deadlock_victim,
                "per-reason counters partition the total ({})",
                p.scheduler
            );
        }
        // Only HDD evaluates activity-link bounds.
        assert!(points
            .iter()
            .filter(|p| p.scheduler == "hdd")
            .all(|p| p.obs.registry_scan.count > 0));
        assert!(points
            .iter()
            .filter(|p| p.scheduler != "hdd")
            .all(|p| p.obs.registry_scan.count == 0));
        let t = decision_table(&points);
        assert!(t.cell("hdd", "trace_events").is_some());
    }
}
