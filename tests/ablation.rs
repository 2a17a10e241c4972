//! Ablation correctness: every configuration the experiments sweep must
//! stay serializable and live; the qualitative trade-offs must point the
//! documented way.

use hdd::protocol::HddConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::driver::{run_interleaved, DriverConfig};
use sim::factory::build_hdd_with_config;
use txn_model::TxnProgram;
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

fn inventory_batch(n: usize, seed: u64) -> (Inventory, Vec<TxnProgram>) {
    let mut w = Inventory::new(InventoryConfig {
        items: 16,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = (0..n).map(|_| w.generate(&mut rng)).collect();
    (w, programs)
}

#[test]
fn gc_intervals_all_serialize_and_bound_versions() {
    let mut counts = Vec::new();
    for gc_interval in [0u64, 64, 8] {
        let mut w = Banking::new(4);
        let mut rng = StdRng::seed_from_u64(42);
        let programs: Vec<_> = (0..300).map(|_| w.generate(&mut rng)).collect();
        let (sched, store, _h) = build_hdd_with_config(
            &w,
            HddConfig {
                gc_interval,
                ..HddConfig::default()
            },
        );
        let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
        assert_eq!(stats.serializable, Some(true), "gc={gc_interval}");
        counts.push((gc_interval, store.version_count()));
    }
    let versions_of = |g: u64| counts.iter().find(|(i, _)| *i == g).unwrap().1;
    assert!(versions_of(8) <= versions_of(64));
    assert!(versions_of(64) < versions_of(0));
}

#[test]
fn every_admission_window_serializes() {
    for window in [1usize, 4, 16, 64, 0 /* unlimited */] {
        let (w, programs) = inventory_batch(150, 43);
        let (sched, _store, _h) = build_hdd_with_config(&w, HddConfig::default());
        let cfg = DriverConfig {
            concurrency: window,
            ..DriverConfig::default()
        };
        let stats = run_interleaved(sched.as_ref(), programs, &cfg);
        assert_eq!(stats.serializable, Some(true), "window={window}");
        assert_eq!(stats.stalled, 0, "window={window}");
        assert_eq!(stats.committed + stats.gave_up, 150, "window={window}");
    }
}
