//! Stress: the reworked concurrent driver at full width. Eight workers
//! push ≥500 transactions through the hot path — atomic work-claiming
//! cursor, sharded transaction table, striped schedule log, settled-
//! cursor activity registry — under HDD and under a baseline, and the
//! run must still be provably serializable from the merged log.
//!
//! Also checks the striped log's merge contract directly on a real
//! run: tickets come out strictly increasing and dense (every append
//! got a unique sequence number, none were lost in the stripes).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::factory::{build_scheduler, SchedulerKind};
use std::time::Duration;
use txn_model::{DependencyGraph, ScheduleEvent, TxnProgram};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

const TXNS: usize = 600;
const WORKERS: usize = 8;

fn inventory_batch(seed: u64) -> (Inventory, Vec<TxnProgram>) {
    let mut w = Inventory::new(InventoryConfig {
        items: 32,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = (0..TXNS).map(|_| w.generate(&mut rng)).collect();
    (w, programs)
}

fn stress(kind: SchedulerKind) {
    let (w, programs) = inventory_batch(0x57E5_5000 + kind as u64);
    let (sched, _store) = build_scheduler(kind, &w);
    let cfg = ConcurrentConfig {
        workers: WORKERS,
        maintenance_interval: Duration::from_micros(50),
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(
        out.stats.gave_up,
        0,
        "{}: transactions gave up",
        kind.name()
    );
    assert_eq!(out.stats.committed, TXNS, "{}", kind.name());
    assert_eq!(
        out.stats.serializable,
        Some(true),
        "{} produced a dependency cycle: {:?}",
        kind.name(),
        out.stats.cycle
    );

    // Striped-log merge contract on a real multi-threaded run: the
    // sequence tickets are strictly increasing and dense, so the merge
    // reconstructed the exact global append order.
    let stamped = sched.log().events_stamped();
    assert!(!stamped.is_empty());
    for (i, &(ticket, _)) in stamped.iter().enumerate() {
        assert_eq!(ticket, i as u64, "{}: ticket gap at {i}", kind.name());
    }

    // Per-transaction program order survives the stripes: Begin before
    // any access, Commit/Abort last.
    let mut begun = std::collections::HashSet::new();
    let mut finished = std::collections::HashSet::new();
    for (_, ev) in &stamped {
        let t = ev.txn();
        match ev {
            ScheduleEvent::Begin { .. } => assert!(begun.insert(t), "double begin {t:?}"),
            ScheduleEvent::Commit { .. } | ScheduleEvent::Abort { .. } => {
                assert!(begun.contains(&t), "finish before begin {t:?}");
                finished.insert(t);
            }
            _ => {
                assert!(begun.contains(&t), "access before begin {t:?}");
                assert!(!finished.contains(&t), "access after finish {t:?}");
            }
        }
    }

    // The merged log is self-consistent as a serializability witness
    // when rebuilt from scratch too (not just via the driver's check).
    assert!(DependencyGraph::from_log(sched.log()).is_serializable());
}

#[test]
fn stress_hdd_eight_workers() {
    stress(SchedulerKind::Hdd);
}

#[test]
fn stress_mvto_eight_workers() {
    stress(SchedulerKind::Mvto);
}
