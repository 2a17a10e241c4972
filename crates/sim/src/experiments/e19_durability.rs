//! **E19 — durable tier: group-commit amortization, recovery cost, and
//! the disk-fault soak** (no paper figure; ours).
//!
//! The group-commit WAL is the one durable state: the store holds none,
//! so recovery is re-seed plus replay. Three legs:
//!
//! 1. **Throughput vs fsync batch size.** The inventory workload on HDD
//!    with the group-commit WAL at `max_batch_frames` 1/4/16/64, plus a
//!    no-WAL baseline. Batch 1 fsyncs once per journaled commit; larger
//!    caps let the commits that queue during one fsync share the next
//!    (the *group-commit ack rule*: a commit counts only once its batch
//!    is durable).
//! 2. **Recovery time vs log length.** Synthesized redo logs of growing
//!    length, encoded as WAL bytes; the timed path is [`decode_wal`]
//!    plus [`mvstore::recover`] into a freshly seeded store.
//! 3. **Disk-fault soak.** Seeded chaos runs journal through a WAL whose
//!    "disk" betrays them mid-run ([`chaos::DiskFaultPlan`]: torn final
//!    write, lying fsync, kill before/after the write). The process
//!    state is dropped, recovery reads *only the torn WAL's bytes* into
//!    a store re-seeded from the workload, resumes via
//!    [`hdd::resume`], runs a second phase, and the stitched log must
//!    certify clean with no timestamp reuse. Except on lying-disk
//!    seeds, every acked commit must be on disk.

use crate::concurrent::{capped_workers, run_concurrent, run_with_faults, ConcurrentConfig};
use crate::experiments::e02_inventory::batch;
use crate::factory::{build_hdd_with_config, build_scheduler, SchedulerKind};
use crate::report::{f2, Table};
use certify::certifier::certify_log;
use chaos::{ChaosConfig, DiskFaultKind, DiskFaultPlan, FaultPlan};
use hdd::protocol::HddConfig;
use mvstore::{MvStore, RecoveryReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::{
    decode_wal, encode_wal, ClassId, GranuleId, GroupCommitConfig, GroupCommitWal, ScheduleEvent,
    Scheduler, SegmentId, Timestamp, TxnId, Value,
};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// Transaction lease for the soak (mirrors E16).
const LEASE: Duration = Duration::from_millis(5);

/// A fresh private scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — id ticket; uniqueness comes from fetch_add atomicity.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("e19-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One measured throughput cell.
#[derive(Debug, Clone)]
pub struct DurabilityPoint {
    /// Row label (`hdd`, `hdd-wal-b16`, ...).
    pub scheduler: String,
    /// Worker threads.
    pub workers: usize,
    /// Fsync batch-size bound (0 = no WAL).
    pub batch_frames: usize,
    /// Transactions committed (durably, when a WAL is configured).
    pub committed: usize,
    /// Durable commits per second.
    pub commits_per_sec: f64,
    /// Fsync batches the WAL wrote (0 = no WAL).
    pub fsync_batches: u64,
    /// Update commits journaled through the WAL (0 = no WAL).
    pub journaled: usize,
}

/// One recovery-cost cell.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Events in the replayed log.
    pub events: usize,
    /// Committed writes installed.
    pub redo_applied: u64,
    /// Decode-plus-replay wall time in milliseconds.
    pub recover_ms: f64,
}

fn workload() -> Inventory {
    Inventory::new(InventoryConfig {
        items: 16,
        ..InventoryConfig::default()
    })
}

/// Leg 1: throughput vs batch size, plus the no-WAL baseline.
pub fn throughput_sweep(quick: bool) -> Vec<DurabilityPoint> {
    let n_txns = if quick { 200 } else { 8_000 };
    let workers = if quick { 2 } else { 8 };
    let Some(workers) = capped_workers(workers) else {
        return Vec::new();
    };
    let mut points = Vec::new();

    // No-WAL baseline.
    {
        let (w, programs) = batch(n_txns, 0x00F1_9001);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        points.push(DurabilityPoint {
            scheduler: "hdd".to_string(),
            workers,
            batch_frames: 0,
            committed: out.stats.committed,
            commits_per_sec: out.throughput,
            fsync_batches: 0,
            journaled: 0,
        });
    }

    // Group-commit sweep: same workload, WAL ack-gated commits.
    for &batch_frames in &[1usize, 4, 16, 64] {
        let dir = scratch("wal");
        let wal = Arc::new(
            GroupCommitWal::create(
                &dir.join("run.wal"),
                GroupCommitConfig {
                    max_batch_frames: batch_frames,
                },
            )
            .expect("create WAL"),
        );
        let (w, programs) = batch(n_txns, 0x00F1_9001);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        points.push(DurabilityPoint {
            scheduler: format!("hdd-wal-b{batch_frames}"),
            workers,
            batch_frames,
            committed: out.stats.committed,
            commits_per_sec: out.throughput,
            fsync_batches: wal.stats().batches,
            journaled: out.journaled,
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    points
}

/// Synthesize a committed-writes redo log with `txns` transactions.
fn synthetic_log(txns: usize) -> Vec<ScheduleEvent> {
    let mut events = Vec::with_capacity(txns * 3);
    for i in 0..txns as u64 {
        let txn = TxnId(i + 1);
        let ts = Timestamp(i + 1);
        let g = GranuleId::new(SegmentId(0), i % 64);
        events.push(ScheduleEvent::Begin {
            txn,
            start_ts: ts,
            class: Some(ClassId(0)),
        });
        events.push(ScheduleEvent::Write {
            txn,
            granule: g,
            version: ts,
            value: Arc::new(Value::Int(i as i64)),
        });
        events.push(ScheduleEvent::Commit {
            txn,
            commit_ts: Timestamp(i + 1_000_000),
        });
    }
    events
}

/// Recovery from WAL bytes alone: decode them, seed the 64 granules
/// the synthetic log writes, replay. Returns the decoded events and the
/// replay report.
fn recover_from_wal(bytes: &[u8]) -> (Vec<ScheduleEvent>, RecoveryReport) {
    let (events, _) = decode_wal(bytes).expect("own WAL is never foreign");
    let store = MvStore::new();
    for k in 0..64 {
        store.seed(GranuleId::new(SegmentId(0), k), Value::Int(0));
    }
    let report = mvstore::recover(&store, &events);
    (events, report)
}

/// Leg 2: recovery wall time vs log length, over WAL bytes.
pub fn recovery_sweep(quick: bool) -> Vec<RecoveryPoint> {
    let sizes: &[usize] = if quick {
        &[100, 400]
    } else {
        &[1_000, 4_000, 16_000]
    };
    sizes
        .iter()
        .map(|&txns| {
            let bytes = encode_wal(&synthetic_log(txns));
            let t = Instant::now();
            let (events, report) = recover_from_wal(&bytes);
            RecoveryPoint {
                events: events.len(),
                redo_applied: report.versions_installed as u64,
                recover_ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Leg 3 tallies.
#[derive(Debug, Default)]
pub struct SoakTally {
    /// Seeds run.
    pub seeds: usize,
    /// Durably acked commits across phase-1 runs.
    pub committed: usize,
    /// Commits denied their ack because the WAL had crashed.
    pub wal_lost: usize,
    /// Seeds whose WAL actually crashed (the fault fired in time).
    pub disk_crashes: usize,
    /// Seeds whose on-disk WAL had a torn tail.
    pub torn_tails: usize,
    /// Worker crash faults injected (phase 1).
    pub worker_crashes: usize,
    /// Watchdog reaps across both phases.
    pub reaped: u64,
    /// Acked commits missing from disk on lying-fsync seeds (expected
    /// loss: the disk acked without persisting).
    pub lied_losses: usize,
    /// Acked commits missing from disk on any *other* seed — must be 0:
    /// the ack rule says a counted commit is on disk.
    pub ack_violations: usize,
    /// Stitched post-recovery logs that certified clean.
    pub recovered_certified: usize,
    /// Duplicate begin/commit/abort timestamps across the crash
    /// boundary — must be 0.
    pub ts_collisions: usize,
}

/// Begin/commit/abort timestamps of a log (uniqueness must survive the
/// crash boundary).
fn end_point_timestamps(events: &[ScheduleEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|ev| match ev {
            ScheduleEvent::Begin { start_ts, .. } => Some(start_ts.0),
            ScheduleEvent::Commit { commit_ts, .. } => Some(commit_ts.0),
            ScheduleEvent::Abort { abort_ts, .. } => Some(abort_ts.0),
            _ => None,
        })
        .collect()
}

/// One seed of the disk-fault soak: journaled chaos phase, process
/// death, recovery from the WAL's bytes alone, resumed phase, stitched
/// certification.
fn soak_one(seed: u64, n: usize, tally: &mut SoakTally) {
    let mut w = workload();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = HddConfig {
        txn_lease: Some(LEASE),
        ..HddConfig::default()
    };
    let dir = scratch("soak");
    let wal_path = dir.join("run.wal");
    let disk_fault = DiskFaultPlan::generate(seed, 6);
    let lying_disk = matches!(disk_fault.kind, DiskFaultKind::DropFsync { .. });
    let wal = Arc::new(
        GroupCommitWal::with_fault(
            &wal_path,
            GroupCommitConfig {
                max_batch_frames: 4,
            },
            Some(Box::new(disk_fault)),
        )
        .expect("create WAL"),
    );
    let (sched, _store, hierarchy) = build_hdd_with_config(&w, config.clone());

    // Phase 1: worker faults AND disk faults at once.
    let phase1: Vec<_> = (0..n).map(|_| w.generate(&mut rng)).collect();
    let plan = FaultPlan::generate(
        seed,
        phase1.len(),
        &ChaosConfig {
            crash_prob: 0.05,
            stall_prob: 0.05,
            delay_prob: 0.05,
            max_after_ops: 3,
            stall_micros: 2 * LEASE.as_micros() as u64,
            delay_micros: 300,
        },
    );
    let report = run_with_faults(
        sched.as_ref(),
        phase1,
        &plan,
        &ConcurrentConfig {
            drain: 10 * LEASE,
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::fault_run()
        },
    );
    tally.seeds += 1;
    tally.committed += report.stats.committed;
    tally.wal_lost += report.wal_lost;
    tally.worker_crashes += report.crashed;
    tally.reaped += sched.metrics().snapshot().rej_watchdog_abort;
    if wal.crashed() {
        tally.disk_crashes += 1;
    }

    // Process death: every in-memory structure is gone. Only the WAL
    // file survives.
    drop(sched);
    drop(wal);

    // Recovery from the WAL's bytes alone: decode the torn log, re-seed
    // a fresh store from the workload, resume.
    let bytes = std::fs::read(&wal_path).expect("read WAL bytes");
    let (survivors, wal_report) = decode_wal(&bytes).expect("own WAL is never foreign");
    if wal_report.torn() {
        tally.torn_tails += 1;
    }
    let durable_commits = survivors
        .iter()
        .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
        .count();
    // Only journaled (update) commits owe the disk a record; read-only
    // commits count in `committed` but have nothing to persist.
    let missing = report.journaled.saturating_sub(durable_commits);
    if lying_disk {
        tally.lied_losses += missing;
    } else {
        tally.ack_violations += missing;
    }

    let store = Arc::new(MvStore::new());
    w.seed(&store);
    let (resumed, resume_report) = hdd::resume(Arc::clone(&hierarchy), store, &survivors, config);
    debug_assert!(resume_report.resumes_after > resume_report.recovery.high_water_mark);

    // Phase 2 on the survivor, clean.
    let phase2: Vec<_> = (0..n / 2).map(|_| w.generate(&mut rng)).collect();
    run_concurrent(&resumed, phase2, &ConcurrentConfig::default());
    tally.reaped += resumed.metrics().snapshot().rej_watchdog_abort;

    let stitched = resumed.log().events();
    let stamps = end_point_timestamps(&stitched);
    let distinct: HashSet<u64> = stamps.iter().copied().collect();
    tally.ts_collisions += stamps.len() - distinct.len();
    if certify_log("hdd", resumed.log(), Some(&hierarchy)).ok() {
        tally.recovered_certified += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run the disk-fault soak over `seeds` seeds.
pub fn soak(seeds: u64, n: usize) -> SoakTally {
    let mut tally = SoakTally::default();
    for seed in 0..seeds {
        soak_one(seed, n, &mut tally);
    }
    tally
}

/// Run E19 and return the table.
pub fn run(quick: bool) -> Table {
    let points = throughput_sweep(quick);
    let recovery = recovery_sweep(quick);
    let (seeds, n) = if quick { (12, 30) } else { (200, 48) };
    let tally = soak(seeds, n);

    let mut table = Table::new(
        "E19 — durable tier: group commit, WAL recovery, disk faults (inventory)",
        &["row", "a", "b", "c", "d", "e"],
    );
    for p in &points {
        table.row(&[
            format!("tput/{}", p.scheduler),
            format!("workers={}", p.workers),
            format!("batch={}", p.batch_frames),
            format!("committed={}", p.committed),
            format!("cps={}", f2(p.commits_per_sec)),
            format!("fsyncs={} journaled={}", p.fsync_batches, p.journaled),
        ]);
    }
    for p in &recovery {
        table.row(&[
            format!("recover/{}", p.events),
            format!("events={}", p.events),
            format!("redo={}", p.redo_applied),
            format!("ms={}", f2(p.recover_ms)),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table.row(&[
        "soak".to_string(),
        format!("seeds={}", tally.seeds),
        format!("committed={}", tally.committed),
        format!("disk-crashes={}", tally.disk_crashes),
        format!("wal-lost={}", tally.wal_lost),
        format!("torn={}", tally.torn_tails),
    ]);
    table.row(&[
        "soak-verdict".to_string(),
        format!("certified={}", tally.recovered_certified),
        format!("ts-collisions={}", tally.ts_collisions),
        format!("ack-violations={}", tally.ack_violations),
        format!("lied-losses={}", tally.lied_losses),
        format!("reaped={}", tally.reaped),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_sweep_covers_the_grid() {
        let points = throughput_sweep(true);
        if points.is_empty() {
            return; // host below the worker cap
        }
        assert_eq!(points.len(), 5, "baseline + 4 batch sizes");
        for p in &points {
            assert!(p.committed > 0, "{p:?}");
            assert!(p.commits_per_sec > 0.0, "{p:?}");
        }
        let b1 = points.iter().find(|p| p.batch_frames == 1).unwrap();
        assert!(b1.journaled > 0, "{b1:?}");
        assert_eq!(
            b1.fsync_batches as usize, b1.journaled,
            "batch=1 fsyncs once per journaled commit: {b1:?}"
        );
    }

    #[test]
    fn recovery_cost_grows_with_log_length() {
        for txns in [100, 400] {
            let events = synthetic_log(txns);
            let (decoded, report) = recover_from_wal(&encode_wal(&events));
            assert_eq!(decoded, events, "the WAL round trip is exact");
            assert_eq!(report.versions_installed, events.len() / 3);
        }
        let points = recovery_sweep(true);
        assert_eq!(points.len(), 2, "one row per log length");
        for p in &points {
            assert_eq!(p.redo_applied as usize, p.events / 3, "{p:?}");
        }
    }

    #[test]
    fn disk_fault_soak_recovers_from_disk_alone() {
        let tally = soak(12, 30);
        assert_eq!(tally.seeds, 12);
        assert_eq!(
            tally.recovered_certified, 12,
            "every stitched post-recovery log must certify clean: {tally:?}"
        );
        assert_eq!(tally.ts_collisions, 0, "{tally:?}");
        assert_eq!(
            tally.ack_violations, 0,
            "a counted commit missing from disk breaks the ack rule: {tally:?}"
        );
        assert!(
            tally.disk_crashes > 0,
            "the fault schedules must actually crash some WALs: {tally:?}"
        );
        assert!(tally.committed > 0, "{tally:?}");
    }
}
