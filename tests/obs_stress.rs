//! Stress: the `obs` sidecar under full driver width. Eight workers
//! drive an obs-enabled run under HDD, MVTO and 2PL, and each resulting
//! snapshot must be *consistent*: histogram counts equal bucket sums,
//! one commit-latency sample per committed program, trace tickets dense
//! after the striped drain, the per-reason rejection counters
//! partitioning the `rejections` total, and registry scans recorded
//! under HDD alone (only HDD evaluates activity-link bounds).
//!
//! Plus a direct 8-thread hammer on a shared [`obs::Obs`]: concurrent
//! recording into every dimension loses nothing and `snapshot()` taken
//! mid-storm never observes count/bucket mismatches, and a 4-thread
//! storm of begins that counts each one exactly once in the shape table,
//! stored or overflowed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::factory::{build_scheduler, SchedulerKind};
use txn_model::TxnProgram;
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

#[test]
fn obs_enabled_run_snapshot_is_consistent_under_hdd_mvto_and_2pl() {
    for kind in [
        SchedulerKind::Hdd,
        SchedulerKind::Mvto,
        SchedulerKind::TwoPl,
    ] {
        obs_enabled_run_snapshot_is_consistent(kind);
    }
}

fn obs_enabled_run_snapshot_is_consistent(kind: SchedulerKind) {
    let name = kind.name();
    let (w, programs) = inventory_batch(0x0B55_0001);
    let (sched, _store) = build_scheduler(kind, &w);
    let cfg = ConcurrentConfig {
        workers: WORKERS,
        obs: true,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(out.stats.committed, TXNS, "{name}");
    assert_eq!(
        out.stats.serializable,
        Some(true),
        "{name}: {:?}",
        out.stats.cycle
    );

    let snap = sched.metrics().obs.snapshot();
    // One commit-latency sample per committed program, none lost in the
    // recorder stripes.
    assert_eq!(snap.commit_latency.count, TXNS as u64, "{name}");
    // Histogram-internal consistency: count == Σ buckets, sum ≥ count·min.
    for h in [
        &snap.commit_latency,
        &snap.op_service,
        &snap.block_wait,
        &snap.backoff_sleep,
        &snap.registry_scan,
    ] {
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        if h.count > 0 {
            assert!(h.min <= h.max);
            assert!(h.sum >= h.count.saturating_mul(h.min));
            assert!(h.p50() <= h.p99());
        }
    }
    // Every operation attempt was timed.
    assert!(snap.op_service.count >= out.stats.steps, "{name}");
    // Only HDD evaluates activity-link bounds: it served cross-class
    // reads, so scan lengths were recorded and traces captured; the
    // baselines walk no registry.
    if kind == SchedulerKind::Hdd {
        assert!(snap.registry_scan.count > 0);
        assert!(snap.trace_recorded > 0);
    } else {
        assert_eq!(snap.registry_scan.count, 0, "{name}");
    }

    // The drained trace comes out ticket-ordered.
    let drained = sched.metrics().obs.events.drain();
    let mut last = None;
    for (ticket, _) in &drained {
        if let Some(prev) = last {
            assert!(*ticket > prev, "trace drain out of order");
        }
        last = Some(*ticket);
    }

    // Per-reason rejection counters partition the total.
    let m = out.stats.metrics;
    assert_eq!(
        m.rejections,
        m.rej_write_too_late + m.rej_read_too_late + m.rej_deadlock_victim,
        "{name}"
    );
    assert_eq!(m.wall_violations, 0, "{name}: bound proofs must hold");
}

#[test]
fn shared_obs_eight_thread_hammer_loses_nothing() {
    let o = std::sync::Arc::new(obs::Obs::new());
    o.set_enabled(true);
    const PER_THREAD: u64 = 20_000;
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let o = std::sync::Arc::clone(&o);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                o.commit_latency.record(t * PER_THREAD + i + 1);
                o.registry_scan.record(i % 17);
                if i % 64 == 0 {
                    o.emit(obs::TraceEvent::GcReclaim {
                        watermark: i,
                        reclaimed: 1,
                    });
                }
                if i % 1024 == 0 {
                    // Mid-storm snapshot: internally consistent even
                    // while writers race.
                    let s = o.snapshot();
                    assert_eq!(
                        s.commit_latency.count,
                        s.commit_latency.buckets.iter().sum::<u64>()
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = o.snapshot();
    assert_eq!(s.commit_latency.count, 8 * PER_THREAD);
    assert_eq!(s.registry_scan.count, 8 * PER_THREAD);
    assert_eq!(s.commit_latency.min, 1);
    assert_eq!(s.commit_latency.max, 8 * PER_THREAD);
    assert_eq!(s.trace_recorded, 8 * PER_THREAD.div_ceil(64));
}

#[test]
fn concurrent_begins_are_each_counted_once_in_the_shape_table() {
    let o = std::sync::Arc::new(obs::Obs::new());
    o.set_enabled(true);
    o.shapes.set_enabled(true);
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 3_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let o = std::sync::Arc::clone(&o);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // 4 × 200 distinct shapes: more than the table holds.
                    let read = i % 200;
                    o.began(t, [read, t, read].into_iter(), [t].into_iter());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = o.snapshot().shapes;
    assert_eq!(s.begins(), u64::from(THREADS * PER_THREAD));
    assert_eq!(s.shapes.len(), obs::MAX_SHAPES);
    assert!(s.overflow > 0, "800 distinct shapes overflow the table");
}
