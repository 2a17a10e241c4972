//! **E9 (Figure 9)** — the `E` function as a time wall.
//!
//! Figure 9 draws the wall: per-class bounds across which no dependency
//! can point old → new. This experiment runs the inventory application
//! with off-chain audits (which must use Protocol C) while sweeping the
//! wall-release interval, and reports: walls released, blocks (Protocol
//! B's only: an audit never waits, the seed state is the first wall),
//! the wall computation lag (release time − anchor time — how long
//! `C_late` computability took), and the serializability verdict that
//! Theorem 2 promises.

use crate::driver::{run_interleaved, DriverConfig};
use crate::factory::build_hdd_with_config;
use crate::report::{f2, Table};
use hdd::protocol::HddConfig;
use obs::TraceEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;
use txn_model::{Scheduler, TxnProgram};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// Audit-heavy inventory mix.
pub fn batch(n: usize, seed: u64) -> (Inventory, Vec<TxnProgram>) {
    let mut w = Inventory::new(InventoryConfig {
        items: 32,
        w_type1: 30,
        w_type2: 10,
        w_type3: 5,
        w_type4: 3,
        w_type5: 10,
        w_report: 0,
        w_audit: 40,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = (0..n).map(|_| w.generate(&mut rng)).collect();
    (w, programs)
}

/// Run E9.
pub fn run(quick: bool) -> Table {
    let n_txns = if quick { 120 } else { 600 };
    let intervals: &[u64] = if quick { &[2, 16] } else { &[2, 8, 32, 128] };
    let mut table = Table::new(
        "E9 / Figure 9 — time walls: release interval sweep",
        &[
            "wall_interval",
            "commits",
            "walls_released",
            "wall_reads",
            "read_regs",
            "blocks",
            "avg_release_lag",
            "serializable",
        ],
    );
    for &interval in intervals {
        let (w, programs) = batch(n_txns, 0x00F1_6009);
        let (sched, _store, _h) = build_hdd_with_config(
            &w,
            HddConfig {
                wall_interval: interval,
                ..HddConfig::default()
            },
        );
        // The lag comes from the release events the obs log records.
        let obs = &sched.metrics().obs;
        obs.set_enabled(true);
        let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
        let lags: Vec<f64> = obs
            .events
            .drain()
            .iter()
            .filter_map(|(_, e)| match e.decision()? {
                TraceEvent::WallRelease {
                    anchor,
                    released_at,
                    ..
                } => Some((released_at - anchor) as f64),
                _ => None,
            })
            .collect();
        let lag = lags.iter().sum::<f64>() / lags.len().max(1) as f64;
        let m = &stats.metrics;
        table.row(&[
            interval.to_string(),
            stats.committed.to_string(),
            m.timewalls_released.to_string(),
            m.wall_reads.to_string(),
            m.read_registrations.to_string(),
            m.blocks.to_string(),
            f2(lag),
            format!("{:?}", stats.serializable.unwrap_or(false)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walls_work_and_schedules_serialize() {
        let t = run(true);
        for row in &t.rows {
            let serial = &row[t.headers.iter().position(|h| h == "serializable").unwrap()];
            assert_eq!(serial, "true");
        }
        let walls = |k: &str| t.cell(k, "walls_released").unwrap().parse::<u64>().unwrap();
        // Shorter interval → more walls.
        assert!(walls("2") > walls("16"));
        // Audits actually used the walls.
        let wr: u64 = t.cell("2", "wall_reads").unwrap().parse().unwrap();
        assert!(wr > 0);
    }
}
