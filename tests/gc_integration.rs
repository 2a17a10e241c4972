//! Garbage collection under load: versions and activity history stay
//! bounded while correctness is preserved (Section 7.3's implementation
//! concerns: "maintaining multiple versions ... and garbage collection").

use hdd::protocol::HddConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::driver::{run_interleaved, DriverConfig};
use sim::factory::build_hdd_with_config;
use txn_model::Scheduler;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

#[test]
fn gc_bounds_version_growth_without_breaking_serializability() {
    let mut w = Inventory::new(InventoryConfig {
        items: 8,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(31);
    let programs: Vec<_> = (0..300).map(|_| w.generate(&mut rng)).collect();

    // Aggressive GC: a release, and a collection, every 4th call.
    let (sched, store, _h) = build_hdd_with_config(
        &w,
        HddConfig {
            wall_interval: 4,
            ..HddConfig::default()
        },
    );
    let stats = run_interleaved(sched.as_ref(), programs.clone(), &DriverConfig::default());
    assert_eq!(stats.serializable, Some(true), "cycle: {:?}", stats.cycle);
    assert_eq!(stats.stalled, 0);
    let gced = stats.metrics.versions_gced;
    assert!(gced > 0, "aggressive GC must reclaim something");
    let with_gc_versions = store.version_count();

    // No walls past the genesis one, so no GC at all.
    let (sched2, store2, _h) = build_hdd_with_config(
        &w,
        HddConfig {
            wall_interval: 0,
            ..HddConfig::default()
        },
    );
    let stats2 = run_interleaved(sched2.as_ref(), programs, &DriverConfig::default());
    assert_eq!(stats2.serializable, Some(true));
    let without_gc_versions = store2.version_count();

    assert!(
        with_gc_versions < without_gc_versions,
        "GC must keep fewer versions ({with_gc_versions} vs {without_gc_versions})"
    );
    // Activity history pruned too.
    assert!(sched.registry().interval_count() <= sched2.registry().interval_count());
}

#[test]
fn gc_never_reclaims_what_a_pinned_reader_needs() {
    // A long-lived read-only transaction pins its wall floor; GC runs
    // underneath; the reader still gets consistent values.
    use txn_model::{GranuleId, ReadOutcome, SegmentId, TxnProfile, Value};
    use workloads::inventory::Inventory as Inv;

    let w = Inventory::new(InventoryConfig {
        items: 2,
        ..InventoryConfig::default()
    });
    let (sched, _store, _h) = build_hdd_with_config(
        &w,
        HddConfig {
            wall_interval: 1, // a release, and GC, at every maintenance tick
            ..HddConfig::default()
        },
    );
    // Release a wall, pin an audit to it.
    sched.maintenance();
    assert!(sched.metrics().snapshot().timewalls_released > 0);
    let audit = sched.begin(&TxnProfile::read_only(vec![SegmentId(1), SegmentId(4)]));
    let first = match sched.read(&audit, Inv::inventory_level(0)) {
        ReadOutcome::Value(v) => v,
        other => panic!("{other:?}"),
    };

    // Heavy update traffic + constant GC.
    for i in 0..50i64 {
        let t = sched.begin(&TxnProfile::update(
            txn_model::ClassId(1),
            vec![SegmentId(0), SegmentId(1)],
        ));
        sched.read(&t, Inv::inventory_level(0));
        sched.write(&t, Inv::inventory_level(0), Value::Int(1000 + i));
        sched.commit(&t);
        sched.maintenance();
    }

    // The pinned reader re-reads: same snapshot, despite 50 newer
    // versions and GC at every tick.
    match sched.read(&audit, Inv::inventory_level(0)) {
        ReadOutcome::Value(v) => assert_eq!(v, first, "snapshot must be stable under GC"),
        other => panic!("{other:?}"),
    }
    // It can also read a granule it never touched before.
    match sched.read(&audit, Inv::accounting(0)) {
        ReadOutcome::Value(_) => {}
        other => panic!("{other:?}"),
    }
    sched.commit(&audit);
    let _ = GranuleId::new(SegmentId(0), 0);
}

/// GC runs right after each wall release, and that release leaves
/// nothing for a second collection under the same wall: the watermark
/// the collection used cannot rise until the next release.
#[test]
fn a_release_leaves_nothing_to_collect() {
    use txn_model::{ClassId, SegmentId, TxnProfile, Value};
    use workloads::inventory::Inventory as Inv;

    let w = Inventory::new(InventoryConfig {
        items: 2,
        ..InventoryConfig::default()
    });
    let (sched, _store, _h) = build_hdd_with_config(&w, HddConfig::default());
    let mut released = 0;
    for i in 0..200i64 {
        let t = sched.begin(&TxnProfile::update(
            ClassId(1),
            vec![SegmentId(0), SegmentId(1)],
        ));
        sched.write(&t, Inv::inventory_level(0), Value::Int(i));
        sched.commit(&t);
        sched.maintenance();
        let walls = sched.metrics().snapshot().timewalls_released;
        if walls > released {
            released = walls;
            assert_eq!(sched.run_gc(), 0, "release {released} left garbage");
        }
    }
    assert!(released > 0, "the default cadence must release walls");
    assert!(
        sched.metrics().snapshot().versions_gced > 0,
        "the releases must have collected"
    );
}

/// A release attempt on every maintenance call and a prune after each
/// release, racing Protocol A/C unregistered readers (which take no
/// registration a watermark could see) and committing writers across 4
/// workers: every version a reader's bound selects must still be there,
/// on 20 seeds of two hierarchies.
///
/// `wall_violations` is asserted on the tree, whose read-only
/// transactions all stay on one critical path (Protocol A, whose
/// `I_old` bounds exclude every pending version). Protocol C does not
/// promise it at this cadence, with or without GC: a wall's component
/// for its anchor class is the anchor time itself, so a reader handed a
/// wall released while an anchor-class writer is still in flight meets
/// that writer's pending version, blocks and is counted. `inventory`
/// has such readers; there the certified log is the gate.
#[test]
fn gc_at_the_watermark_races_unregistered_readers_cleanly() {
    use certify::certifier::certify_log;
    use sim::concurrent::{run_concurrent, ConcurrentConfig};
    use std::time::Duration;
    use workloads::synthetic::{Synthetic, SyntheticConfig};

    let mut reclaimed = 0;
    for seed in 0..20u64 {
        let workloads: [(Box<dyn Workload>, bool); 2] = [
            (
                Box::new(Inventory::new(InventoryConfig {
                    items: 8,
                    ..InventoryConfig::default()
                })),
                true,
            ),
            (
                Box::new(Synthetic::new(SyntheticConfig {
                    depth: 3,
                    granules_per_segment: 16,
                    off_chain_share: 0.0,
                    ..SyntheticConfig::default()
                })),
                false,
            ),
        ];
        for (mut w, has_wall_readers) in workloads {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let programs: Vec<_> = (0..500).map(|_| w.generate(&mut rng)).collect();
            let (sched, _store, hierarchy) = build_hdd_with_config(
                w.as_ref(),
                HddConfig {
                    wall_interval: 1,
                    ..HddConfig::default()
                },
            );
            let out = run_concurrent(
                sched.as_ref(),
                programs,
                &ConcurrentConfig {
                    workers: 4,
                    maintenance_interval: Duration::from_micros(5),
                    ..ConcurrentConfig::default()
                },
            );
            let ctx = format!("{} seed {seed}", w.name());
            // Every book a program can end in, so a miss says where it went.
            assert_eq!(
                out.stats.committed,
                500,
                "{ctx}: restarts {}, gave_up {}, deadline_exceeded {}, wal_lost {}, crashed {}",
                out.stats.restarts,
                out.stats.gave_up,
                out.stats.deadline_exceeded,
                out.wal_lost,
                out.crashed
            );
            let cert = certify_log("hdd", sched.log(), Some(&hierarchy));
            assert!(cert.ok(), "{ctx}: {}", cert.render());
            if !has_wall_readers {
                assert_eq!(out.stats.metrics.wall_violations, 0, "{ctx}");
            }
            reclaimed += out.stats.metrics.versions_gced;
        }
    }
    assert!(reclaimed > 0, "GC must have run against the traffic");
}
