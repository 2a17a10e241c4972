//! Every call the benchmark makes into a layer function that is *not* on
//! the `Scheduler` trait lives in this file: the single-threaded,
//! fixed-iteration probes behind the per-layer `ns` metrics, and the
//! helpers of the correctness gates.
//!
//! A refactor that renames or reshapes one of the functions below needs
//! a `benchmark` issue of its own (the baseline is re-measured after
//! it), not a silent edit here. The exact list this file depends on:
//!
//! * `txn_model::LogicalClock::{new, tick, now}`
//! * `txn_model::ScheduleLog::{new, record, events}`
//! * `txn_model::wal::{encode_events, decode_events, encode_wal,
//!   decode_wal}` and `WalReport::torn`
//! * `txn_model::DependencyGraph::{from_events, find_cycle, dirty_reads}`
//! * `hdd::activity::ActivityRegistry::{new, begin_with, end_with, i_old,
//!   prune_ended_before}`
//! * `hdd::activity::ActivityFuncs::{new, a_fn, e_fn}`
//! * `hdd::timewall::TimeWallService::{new, try_release}`
//! * `hdd::Hierarchy::{class_count, paths}` and
//!   `PathTables::{a_hops, e_steps}`
//! * `workloads::Workload::{hierarchy, seed}`
//! * `mvstore::MvStore::{new, for_each_chain, granule_count,
//!   version_count, max_chain_len}`
//! * `mvstore::StorageBackend::{commit_writes, prune_before}` and
//!   `<dyn StorageBackend>::with_chain`
//! * `mvstore::VersionChain::{latest_committed_before, latest_committed,
//!   mvto_write}`
//! * `mvstore::recover`
//! * `certify::certify_events`
//!
//! (`setup.rs` additionally calls `sim::factory::build_scheduler`,
//! `Workload::generate` and `GroupCommitWal::create`; `load.rs` calls
//! `GroupCommitWal::{submit, stats}`. Those are the benchmark's seam,
//! not probes.)

use crate::spec::WorkloadId;
use crate::stats::{median, ratio};
use hdd::activity::{ActivityFuncs, ActivityRegistry};
use hdd::timewall::TimeWallService;
use hdd::Hierarchy;
use mvstore::{MvStore, StorageBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use txn_model::wal::{decode_events, decode_wal, encode_events, encode_wal};
use txn_model::{
    ClassId, DependencyGraph, GranuleId, LogicalClock, ScheduleEvent, ScheduleLog, Timestamp,
    TxnId, Value,
};

/// Mean ns per iteration of `f` over `iters` iterations.
fn mean_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The probe metrics, in `spec::PER_LAYER` names.
pub type Probed = Vec<(&'static str, f64)>;

/// The workload's validated hierarchy (also what the check leg
/// certifies the partition-synchronization rule against).
pub fn hierarchy(workload: WorkloadId) -> Hierarchy {
    workload.make().hierarchy()
}

/// `(i, j)` maximising the length of a per-pair path table entry.
fn longest_pair<T>(n: usize, len: impl Fn(usize, usize) -> Option<T>) -> (usize, usize)
where
    T: Ord,
{
    let mut best = (0, 0);
    let mut best_len = None;
    for i in 0..n {
        for j in 0..n {
            let l = len(i, j);
            if l.is_some() && l > best_len {
                best_len = l;
                best = (i, j);
            }
        }
    }
    best
}

/// A registry in the state maintenance keeps it in under steady load:
/// a short history of ended transactions per class, nothing running
/// (so `C_late`, hence `E` and the time wall, are computable).
fn quiescent_registry(h: &Hierarchy, clock: &LogicalClock) -> ActivityRegistry {
    let reg = ActivityRegistry::new(h.class_count());
    for _ in 0..64 {
        for c in 0..h.class_count() {
            let class = ClassId(c as u32);
            let start = reg.begin_with(class, || clock.tick());
            reg.end_with(class, start, true, || clock.tick());
        }
    }
    reg
}

/// `clock.tick_ns`, `schedlog.record_ns`.
fn probe_txn_model(out: &mut Probed) {
    let clock = LogicalClock::new();
    out.push((
        "clock.tick_ns",
        mean_ns(2_000_000, |_| {
            black_box(clock.tick());
        }),
    ));
    let log = ScheduleLog::new();
    let g = GranuleId::new(txn_model::SegmentId(0), 0);
    out.push((
        "schedlog.record_ns",
        mean_ns(200_000, |i| {
            log.record(ScheduleEvent::Read {
                txn: TxnId(i),
                granule: g,
                version: Timestamp(i),
                writer: TxnId(0),
            });
        }),
    ));
}

/// `activity.*` and `timewall.release_ns`, on the workload's hierarchy.
fn probe_hierarchy(h: &Hierarchy, out: &mut Probed) {
    let n = h.class_count();
    let clock = LogicalClock::new();

    // begin/end pairs against a registry pruned as GC prunes it.
    let reg = ActivityRegistry::new(n);
    let mut total = 0.0;
    const ROUNDS: u64 = 200;
    const PER_ROUND: u64 = 1024;
    for _ in 0..ROUNDS {
        total += mean_ns(PER_ROUND, |i| {
            let class = ClassId((i % n as u64) as u32);
            let start = reg.begin_with(class, || clock.tick());
            black_box(reg.end_with(class, start, true, || clock.tick()));
        });
        reg.prune_ended_before(clock.now());
    }
    out.push(("activity.begin_end_ns", total / ROUNDS as f64));

    let reg = quiescent_registry(h, &clock);
    let funcs = ActivityFuncs::new(h, &reg);
    let now = clock.now();
    out.push((
        "activity.i_old_ns",
        mean_ns(1_000_000, |i| {
            black_box(reg.i_old(ClassId((i % n as u64) as u32), now));
        }),
    ));
    let paths = h.paths();
    let (ai, aj) = longest_pair(n, |i, j| paths.a_hops(i, j).map(<[u32]>::len));
    out.push((
        "activity.a_fn_ns",
        mean_ns(500_000, |_| {
            black_box(funcs.a_fn(ClassId(ai as u32), ClassId(aj as u32), now));
        }),
    ));
    let (ei, ej) = longest_pair(n, |i, j| paths.e_steps(i, j).map(<[_]>::len));
    out.push((
        "activity.e_fn_ns",
        mean_ns(500_000, |_| {
            black_box(funcs.e_fn(ClassId(ei as u32), ClassId(ej as u32), now));
        }),
    ));

    // A fresh service per round keeps the released-wall list as short
    // as `retire_old` keeps it in the scheduler.
    let mut total = 0.0;
    const WALL_ROUNDS: u64 = 100;
    for _ in 0..WALL_ROUNDS {
        let walls = TimeWallService::new();
        total += mean_ns(64, |_| {
            black_box(walls.try_release(h, &funcs, clock.now(), || clock.tick()));
        });
    }
    out.push(("timewall.release_ns", total / WALL_ROUNDS as f64));
}

/// `store.read_ns`, `store.write_commit_ns`, `store.prune_ns_per_granule`
/// on the workload's seeded store with uniformly chosen keys, and
/// `setup.seed_ns_per_granule`.
fn probe_store(workload: WorkloadId, seed: u64, out: &mut Probed) {
    let w = workload.make();
    let mem = Arc::new(MvStore::new());
    let start = Instant::now();
    w.seed(mem.as_ref());
    let seed_ns = start.elapsed().as_nanos() as f64;
    let granules = mem.granule_count();
    out.push(("setup.seed_ns_per_granule", ratio(seed_ns, granules as f64)));

    let mut keys = Vec::with_capacity(granules);
    mem.for_each_chain(&mut |g, _| keys.push(g));
    keys.sort_unstable_by_key(|g| (g.segment.0, g.key)); // HashMap order is not repeatable
    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<GranuleId> = (0..200_000)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect();

    // Schedulers hold the store as `Arc<dyn StorageBackend>`; probe the
    // same dynamic path.
    let store: Arc<dyn StorageBackend> = mem.clone();
    out.push((
        "store.read_ns",
        mean_ns(picks.len() as u64, |i| {
            let g = picks[i as usize];
            black_box(store.with_chain(g, |c| {
                c.latest_committed_before(Timestamp::MAX).map(|v| v.ts)
            }));
        }),
    ));
    // Writes in rounds of about one per granule, a full prune pass after
    // each — chains stay as short as GC keeps them in a run, instead of
    // growing by a thousand versions on the 64-granule stores.
    let value = Arc::new(Value::Int(1));
    let round = granules.clamp(64, 8192);
    let (mut write_ns, mut prune_ns, mut passes) = (0.0, 0.0, 0u64);
    for (r, chunk) in picks.chunks(round).enumerate() {
        let base = (r * round) as u64;
        write_ns += chunk.len() as f64
            * mean_ns(chunk.len() as u64, |i| {
                let g = chunk[i as usize];
                let writer = TxnId(base + i + 1);
                store.with_chain(g, |c| {
                    black_box(c.mvto_write(Timestamp(base + i + 1), Arc::clone(&value), writer));
                });
                store.commit_writes(writer, &[g]);
            });
        let start = Instant::now();
        black_box(store.prune_before(Timestamp::MAX));
        prune_ns += start.elapsed().as_nanos() as f64;
        passes += 1;
    }
    out.push(("store.write_commit_ns", write_ns / picks.len() as f64));
    out.push((
        "store.prune_ns_per_granule",
        ratio(prune_ns, (passes * granules as u64) as f64),
    ));
}

/// All probes for `workload`. `setup.build_ns` is the hierarchy build
/// (transaction analysis + path tables), median of five.
pub fn run_probes(workload: WorkloadId, seed: u64) -> Probed {
    let mut out = Probed::new();
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(hierarchy(workload));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("setup.build_ns", median(&builds)));
    probe_txn_model(&mut out);
    probe_hierarchy(&hierarchy(workload), &mut out);
    probe_store(workload, seed, &mut out);
    out
}

/// End-of-leg store counts: `(granules, versions, longest chain)`.
pub fn store_counts(store: &MvStore) -> (usize, usize, usize) {
    (
        store.granule_count(),
        store.version_count(),
        store.max_chain_len(),
    )
}

/// Σ latest committed integer over every granule (conservation gate).
pub fn sum_latest_ints(store: &MvStore) -> i64 {
    let mut sum = 0i64;
    store.for_each_chain(&mut |_, chain| {
        sum += chain.latest_committed().map_or(0, |v| v.value.as_int());
    });
    sum
}

/// What certifying a drained schedule log found.
pub struct Certified {
    /// Events in the log.
    pub events: usize,
    /// Wall ns the certifier took.
    pub ns: f64,
    /// Empty when every rule held; otherwise one line per violation.
    pub violations: Vec<String>,
}

/// Certify a drained log: acyclic MVSG, no dirty reads and — when the
/// scheduler is HDD, whose `Begin` events carry classes of `hierarchy` —
/// the partition-synchronization rule.
///
/// The cycle and dirty-read checks run once up front so a broken
/// scheduler fails in milliseconds: `certify_events` answers a
/// violation by delta-debugging a minimal counterexample, which on a
/// log this size would outlast the run's time limit.
pub fn certify_log(
    name: &str,
    events: &[ScheduleEvent],
    hierarchy: Option<&Hierarchy>,
) -> Certified {
    let start = Instant::now();
    let graph = DependencyGraph::from_events(events);
    let mut violations = Vec::new();
    if let Some(cycle) = graph.find_cycle() {
        violations.push(format!("dependency cycle of length {}", cycle.len()));
    }
    if graph.dirty_reads() > 0 {
        violations.push(format!("{} dirty read(s)", graph.dirty_reads()));
    }
    if violations.is_empty() {
        let cert = certify::certify_events(name, events, hierarchy);
        violations.extend(
            cert.violations
                .iter()
                .map(|v| format!("{}: {}", v.rule.name(), v.message)),
        );
    }
    Certified {
        events: events.len(),
        ns: start.elapsed().as_nanos() as f64,
        violations,
    }
}

/// The redo events (`Begin` / `Write` / `Commit` / `Abort`) of a drained
/// log: what a WAL would have carried.
fn redo_events(events: &[ScheduleEvent]) -> Vec<ScheduleEvent> {
    events
        .iter()
        .filter(|e| !matches!(e, ScheduleEvent::Read { .. }))
        .cloned()
        .collect()
}

/// A complete WAL file image of a drained log's redo events — what the
/// in-memory workloads hand to [`recover_from_bytes`] in place of a file.
pub fn wal_image(events: &[ScheduleEvent]) -> Vec<u8> {
    encode_wal(&redo_events(events))
}

/// `wal.encode_ns_per_frame`, `wal.decode_ns_per_frame`: the frame codec
/// over the redo events of a drained log.
pub fn probe_wal_codec(events: &[ScheduleEvent], out: &mut Probed) {
    let redo = redo_events(events);
    let start = Instant::now();
    let bytes = encode_events(&redo);
    let encode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let (decoded, _) = decode_events(black_box(&bytes));
    let decode_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(decoded.len(), redo.len(), "WAL codec lost frames");
    out.push((
        "wal.encode_ns_per_frame",
        ratio(encode_ns, redo.len() as f64),
    ));
    out.push((
        "wal.decode_ns_per_frame",
        ratio(decode_ns, redo.len() as f64),
    ));
}

/// What replaying a WAL image found.
pub struct Recovered {
    /// Frames decoded.
    pub frames: usize,
    /// Wall ns for decode + replay.
    pub ns: f64,
    /// Ids of the transactions whose commit record survived.
    pub committed: HashSet<u64>,
    /// Share of the committed writers in the image that the replay
    /// redid (1.0 on a clean replay).
    pub redone_share: f64,
    /// Empty when the image was whole and the replay clean.
    pub problems: Vec<String>,
}

/// Recover from nothing but the WAL's bytes: `decode_wal`, then
/// `mvstore::recover` into a fresh store seeded as at first boot.
pub fn recover_from_bytes(workload: WorkloadId, bytes: &[u8]) -> Recovered {
    let fresh = MvStore::new();
    workload.make().seed(&fresh);
    let start = Instant::now();
    let mut problems = Vec::new();
    let (events, report) = match decode_wal(bytes) {
        Ok(decoded) => decoded,
        Err(e) => {
            return Recovered {
                frames: 0,
                ns: 0.0,
                committed: HashSet::new(),
                redone_share: 0.0,
                problems: vec![format!("WAL header: {e}")],
            }
        }
    };
    let replay = mvstore::recover(&fresh, &events);
    let ns = start.elapsed().as_nanos() as f64;
    if report.torn() {
        problems.push(format!(
            "torn tail at byte {:?} after {} frames",
            report.truncated_at_byte, report.decoded
        ));
    }
    if !replay.anomalies.is_clean() {
        problems.push(format!(
            "{} malformed frame(s) skipped",
            replay.anomalies.total()
        ));
    }
    let committed: HashSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            ScheduleEvent::Commit { txn, .. } => Some(txn.0),
            _ => None,
        })
        .collect();
    // `recover` redoes the committed transactions that wrote something.
    let writers: HashSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            ScheduleEvent::Write { txn, .. } if committed.contains(&txn.0) => Some(txn.0),
            _ => None,
        })
        .collect();
    if replay.redone != writers.len() {
        problems.push(format!(
            "{} committed writers in the image but {} redone",
            writers.len(),
            replay.redone
        ));
    }
    Recovered {
        frames: events.len(),
        ns,
        committed,
        redone_share: ratio(replay.redone as f64, writers.len() as f64),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_pair_finds_the_deepest_path() {
        let h = hierarchy(WorkloadId::Inventory);
        let paths = h.paths();
        let (i, j) = longest_pair(h.class_count(), |i, j| paths.a_hops(i, j).map(<[u32]>::len));
        // Inventory's chain is 3 → 2 → 1 → 0.
        assert_eq!((i, j), (3, 0));
        assert_eq!(paths.a_hops(i, j).unwrap().len(), 3);
    }

    #[test]
    fn recovery_of_a_foreign_file_is_a_problem_not_a_panic() {
        let r = recover_from_bytes(WorkloadId::Inventory, b"not a wal");
        assert!(!r.problems.is_empty());
        assert!(r.committed.is_empty());
    }
}
