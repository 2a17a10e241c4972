//! Oversubscribed concurrent-driver stress legs: 16 and 32 workers over
//! the inventory workload, serializability verified after every leg.
//!
//! These legs deliberately oversubscribe typical hosts (the point is
//! that HDD degrades gracefully under contention, not that it scales),
//! so each is gated on [`sim::concurrent::capped_workers`]: on machines
//! with too little parallelism for the leg to mean anything, it is
//! skipped with a note instead of thrashing for minutes.

use sim::concurrent::{capped_workers, run_concurrent, ConcurrentConfig};
use sim::experiments::e02_inventory::batch;
use sim::{build_scheduler, SchedulerKind};

fn stress_leg(requested: usize) {
    let Some(workers) = capped_workers(requested) else {
        eprintln!("skipping {requested}-worker stress leg: not enough parallelism on this host");
        return;
    };
    let n_txns = 2_000;
    let (w, programs) = batch(n_txns, 0x57E5_5000 + requested as u64);
    let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
    let cfg = ConcurrentConfig {
        workers,
        verify: true,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(
        out.stats.serializable,
        Some(true),
        "{workers}-worker run must stay serializable"
    );
    // Every offered program terminates exactly one way.
    assert_eq!(
        out.stats.committed + out.stats.gave_up + out.stats.deadline_exceeded,
        n_txns,
        "program accounting must balance at {workers} workers"
    );
    assert!(
        out.stats.committed > 0,
        "an oversubscribed run must still commit work"
    );
}

/// Always-on leg: 4 workers pass the gate on any host, so the
/// accounting and serializability assertions run everywhere.
#[test]
fn hdd_serializable_at_4_workers() {
    stress_leg(4);
}

#[test]
fn hdd_serializable_at_16_workers() {
    stress_leg(16);
}

#[test]
fn hdd_serializable_at_32_workers() {
    stress_leg(32);
}
