//! **E17 — hierarchy observatory: cross-read staleness by (reader,
//! segment)** (no paper figure; ours).
//!
//! Runs each bundled workload under HDD with the `obs` sidecar and the
//! gauge board enabled, and reports the signal Protocols A and C trade
//! away freshness for: on every unregistered read the scheduler records
//! `read_ts − version_ts` into the `(reader class, source segment)`
//! staleness cell ([`obs::GaugeBoard::record_staleness`]). Class
//! readers are Protocol A (activity-link bounds); the synthetic `wall`
//! reader row is Protocol C (time-wall reads by off-chain ad-hoc
//! read-only transactions). Banking decomposes into a single class, so
//! it rides along as the no-cross-read control (its staleness table is
//! legitimately empty). Staleness is strictly positive by protocol
//! correctness — served version < bound ≤ reader start (DESIGN.md §10)
//! — so every cell's minimum is at least 1 tick.
//!
//! Like E14, each cell runs a warmup batch and reports the measured
//! interval only.
//!
//! ```text
//! cargo run --release -p sim --bin experiments -- e17
//! ```

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::factory::build_hdd_with_config;
use crate::report::{f2, Table};
use hdd::protocol::HddConfig;
use obs::GaugeSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use txn_model::{MetricsSnapshot, Scheduler};
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

/// One workload's measured interval under the gauge board.
#[derive(Debug, Clone)]
pub struct GaugePoint {
    /// Workload name.
    pub workload: &'static str,
    /// Transactions committed in the measured interval.
    pub committed: usize,
    /// Committed transactions per second (measured interval).
    pub commits_per_sec: f64,
    /// Gauge board after a forced full refresh at end of run; its
    /// staleness cells cover the measured interval (the warmup's
    /// samples are cleared by the pre-interval reset).
    pub gauges: GaugeSnapshot,
    /// Segment display names, indexed by segment id.
    pub segment_names: Vec<String>,
    /// Counter deltas over the measured interval.
    pub interval: MetricsSnapshot,
}

/// Run one workload: warmup batch, reset, measured batch, full gauge
/// refresh, snapshot.
fn run_one<W: Workload>(mut w: W, quick: bool, seed: u64) -> GaugePoint {
    let n_txns = if quick { 250 } else { 12_000 };
    let workers = if quick { 2 } else { 4 };
    let mut rng = StdRng::seed_from_u64(seed);
    let warmup: Vec<_> = (0..n_txns / 10).map(|_| w.generate(&mut rng)).collect();
    let programs: Vec<_> = (0..n_txns).map(|_| w.generate(&mut rng)).collect();
    let (sched, _store, _hierarchy) = build_hdd_with_config(&w, HddConfig::default());
    let cfg = ConcurrentConfig {
        workers,
        obs: true,
        verify: false,
        ..ConcurrentConfig::default()
    };
    run_concurrent(sched.as_ref(), warmup, &cfg);
    let before = sched.metrics().snapshot();
    sched.metrics().obs.reset(); // clears warmup staleness; board stays configured
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    sched.refresh_gauges_now();
    GaugePoint {
        workload: w.name(),
        committed: out.stats.committed,
        commits_per_sec: out.throughput,
        gauges: sched.metrics().obs.gauges.snapshot(),
        segment_names: w.segment_names(),
        interval: sched.metrics().snapshot().delta(&before),
    }
}

/// Run the three bundled workloads and return the raw points.
pub fn sweep(quick: bool) -> Vec<GaugePoint> {
    vec![
        run_one(
            Inventory::new(InventoryConfig {
                items: 32,
                ..InventoryConfig::default()
            }),
            quick,
            0x0E17_0001,
        ),
        run_one(Banking::new(16), quick, 0x0E17_0002),
        run_one(
            Synthetic::new(SyntheticConfig::default()),
            quick,
            0x0E17_0003,
        ),
    ]
}

/// The headline staleness table: one row per non-empty
/// (reader, source segment) cell, staleness in clock ticks.
pub fn staleness_table(points: &[GaugePoint]) -> Table {
    let mut t = Table::new(
        "E17 — cross-read staleness by (reader, source segment), clock ticks",
        &[
            "cell", "workload", "reader", "segment", "reads", "p50", "p99", "max",
        ],
    );
    for p in points {
        for cell in &p.gauges.staleness {
            let seg = p
                .segment_names
                .get(cell.segment as usize)
                .cloned()
                .unwrap_or_else(|| format!("s{}", cell.segment));
            t.row(&[
                format!("{}:{}:{}", p.workload, cell.reader_label(), seg),
                p.workload.to_string(),
                cell.reader_label(),
                seg,
                cell.hist.count.to_string(),
                cell.hist.p50().to_string(),
                cell.hist.p99().to_string(),
                cell.hist.max.to_string(),
            ]);
        }
    }
    t
}

/// The gauge-board summary table (one row per workload).
pub fn gauges_table(points: &[GaugePoint]) -> Table {
    let mut t = Table::new(
        "E17 — gauge board at end of measured interval",
        &[
            "workload",
            "commits_per_sec",
            "wall_floor",
            "wall_lag",
            "registry_intervals",
            "settled_lag",
            "store_versions",
            "max_chain",
            "gc_backlog",
            "cross_reads",
            "wall_reads",
        ],
    );
    for p in points {
        let g = &p.gauges;
        t.row(&[
            p.workload.to_string(),
            f2(p.commits_per_sec),
            g.wall_floor.to_string(),
            g.wall_lag.to_string(),
            g.registry_intervals.to_string(),
            g.registry_settled_lag.to_string(),
            g.store_versions.to_string(),
            g.store_max_chain.to_string(),
            g.gc_backlog.to_string(),
            p.interval.cross_class_reads.to_string(),
            p.interval.wall_reads.to_string(),
        ]);
    }
    t
}

/// Run E17 and return the staleness table (the gauge summary is printed
/// to stdout alongside).
pub fn run(quick: bool) -> Table {
    let points = sweep(quick);
    println!("{}", gauges_table(&points));
    staleness_table(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::WALL_READER;

    #[test]
    fn quick_sweep_fills_staleness_cells_for_every_workload() {
        let points = sweep(true);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.committed > 0, "{}", p.workload);
            assert!(p.gauges.configured, "{}: board dimensioned", p.workload);
            if p.workload == "banking" {
                // Control: a single-class decomposition has no cross
                // reads, so its staleness table is legitimately empty.
                assert!(p.gauges.staleness.is_empty(), "banking cannot cross-read");
                assert_eq!(p.interval.cross_class_reads + p.interval.wall_reads, 0);
            } else {
                assert!(
                    !p.gauges.staleness.is_empty(),
                    "{}: no cross-read staleness recorded",
                    p.workload
                );
            }
            for cell in &p.gauges.staleness {
                // Strict positivity is a Protocol A guarantee: the
                // activity-link bound never exceeds the reader's start.
                // Wall rows are only non-negative — a reader that
                // begins before the first wall release adopts a wall
                // from its future (the `earliest()` fallback), and a
                // `B`/`C_late` step can push a component past the
                // reader's start, so `start − version` saturates to 0
                // on those startup-transient reads (DESIGN.md §10).
                if cell.reader != obs::gauges::WALL_READER {
                    assert!(
                        cell.hist.min >= 1 && cell.hist.p50() >= 1,
                        "{}: Protocol A staleness must be strictly positive ({} seg {}: min {})",
                        p.workload,
                        cell.reader_label(),
                        cell.segment,
                        cell.hist.min
                    );
                }
            }
            // One staleness sample per *served* Protocol A/C read: the
            // counters bump per attempt, and the only attempt that is
            // counted but not served is the defensive wall-violation
            // block (zero in a sound run).
            let recorded: u64 = p.gauges.staleness.iter().map(|c| c.hist.count).sum();
            assert_eq!(
                recorded + p.interval.wall_violations,
                p.interval.cross_class_reads + p.interval.wall_reads,
                "{}: one staleness sample per served Protocol A/C read",
                p.workload
            );
        }
        // The synthetic workload's off-chain read-only transactions ride
        // Protocol C, so it must populate the wall-reader row.
        let synth = points.iter().find(|p| p.workload == "synthetic").unwrap();
        assert!(
            synth
                .gauges
                .staleness
                .iter()
                .any(|c| c.reader == WALL_READER),
            "synthetic workload produced no wall-reader staleness"
        );
        // ...and the table carries Protocol A (class reader) rows too.
        let t = staleness_table(&points);
        let readers: Vec<&str> = t.rows.iter().map(|r| r[2].as_str()).collect();
        assert!(readers.iter().any(|r| r.starts_with('c')), "{readers:?}");
    }

    /// A live obs-on run over the synthetic workload (Protocol A class
    /// readers and Protocol C wall readers both) exports a Prometheus
    /// exposition and a Chrome trace that pass the in-repo validators,
    /// and the exposition carries the staleness summaries.
    #[test]
    fn a_live_obs_run_exports_valid_prometheus_and_chrome_trace() {
        use obs::{chrome_trace, prometheus_text, validate_chrome_trace, validate_prometheus};

        let mut w = Synthetic::new(SyntheticConfig::default());
        let mut rng = StdRng::seed_from_u64(0x00F1_7051);
        let programs: Vec<_> = (0..1_500).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store, _hierarchy) = build_hdd_with_config(&w, HddConfig::default());
        let cfg = ConcurrentConfig {
            workers: 4,
            obs: true,
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert!(out.stats.committed > 0, "the live run committed nothing");
        sched.refresh_gauges_now();

        let obs = &sched.metrics().obs;
        let counters = sched.metrics().snapshot().counter_pairs();
        let prom = prometheus_text(&counters, &obs.snapshot(), &obs.gauges.snapshot());
        let stats = validate_prometheus(&prom).expect("the exposition must validate");
        assert!(stats.samples > 0);
        assert!(
            prom.contains("hdd_read_staleness_ticks"),
            "no staleness summary in the exposition"
        );
        let trace = chrome_trace(&obs.events.drain());
        let events = validate_chrome_trace(&trace).expect("the chrome trace must validate");
        assert!(events > 0, "the chrome trace is empty");
    }
}
