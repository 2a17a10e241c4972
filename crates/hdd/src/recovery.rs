//! Registry-aware crash recovery: rebuild a *scheduler*, not just a
//! store.
//!
//! `mvstore::recover` restores committed versions, but HDD's protocols
//! also depend on scheduler-side state the versions alone cannot
//! reconstruct:
//!
//! * the **activity registry** — Protocol A bounds and `C_late` (hence
//!   time walls) are functions of per-class activity *history*, so a
//!   recovered scheduler with an empty registry would answer `I_old(m)`
//!   queries about pre-crash instants wrongly;
//! * the **timestamp high-water mark** — Protocol B's proofs assume
//!   timestamps never repeat, so the recovered logical clock must start
//!   strictly above every pre-crash timestamp;
//! * the **transaction-id allocator** — recovered runs must not reuse
//!   pre-crash ids, or the stitched schedule log would attribute new
//!   work to dead transactions.
//!
//! [`resume`] rebuilds all three from the surviving log prefix (already
//! torn-tail-truncated by `txn_model::wal::decode_events`), synthesizes
//! abort records for transactions that were in flight at the crash
//! (their writes were rolled back by omission, so the abort is the
//! truthful account), and stitches the pre-crash events plus synthetic
//! aborts into the new scheduler's log — the combined log is what
//! post-run certification checks.

use crate::analysis::Hierarchy;
use crate::protocol::{HddConfig, HddScheduler};
use mvstore::{MvStore, RecoveryReport};
use obs::{Event, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use txn_model::{ClassId, LogicalClock, ScheduleEvent, Scheduler, Timestamp, TxnId};

/// Summary of a [`resume`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// The store-level replay summary (redo/rollback counts, timestamp
    /// high-water mark, malformed-log anomaly counts).
    pub recovery: RecoveryReport,
    /// Transactions in flight at the crash, closed with synthetic abort
    /// records (their registry intervals would otherwise read as running
    /// forever, wedging `I_old` exactly like a crashed worker does live).
    pub in_flight_aborted: usize,
    /// The first timestamp the recovered clock can produce (strictly
    /// above the pre-crash high-water mark).
    pub resumes_after: Timestamp,
}

/// Recover a crashed HDD run into a scheduler ready to resume work.
///
/// `store` must hold the initial database image (seeded as at first
/// boot); `events` is the surviving schedule-log prefix. The returned
/// scheduler's clock starts strictly above the pre-crash high-water
/// mark, its registry holds every pre-crash activity interval (in-flight
/// transactions closed as aborts), and its schedule log already contains
/// the pre-crash events plus the synthetic aborts, so certification of
/// `scheduler.log()` after resumed work covers the whole stitched
/// history.
pub fn resume(
    hierarchy: Arc<Hierarchy>,
    store: Arc<MvStore>,
    events: &[ScheduleEvent],
    config: HddConfig,
) -> (HddScheduler, ResumeReport) {
    let recovery = mvstore::recover(&store, events);

    // Clock strictly above every pre-crash timestamp (Protocol B safety),
    // id allocator strictly above every pre-crash transaction id.
    let clock = Arc::new(LogicalClock::new());
    clock.advance_past(recovery.high_water_mark);
    let max_id = events.iter().map(|ev| ev.txn().0).max().unwrap_or(0);
    let sched = HddScheduler::new(hierarchy, store, Arc::clone(&clock), config);
    // ordering: Relaxed — the scheduler is not shared yet; handing it to
    // the caller publishes the store before any `begin` reads it.
    sched.txn_ids.store(max_id + 1, Ordering::Relaxed);

    // Reconstruct per-class activity intervals from the log: begin gives
    // the start, commit/abort the end. Whatever never ended was in
    // flight at the crash; close it with a synthetic post-recovery abort
    // (its writes were already rolled back by omission).
    #[derive(Clone, Copy)]
    struct Lifetime {
        class: ClassId,
        start: Timestamp,
        end: Option<(Timestamp, bool)>,
    }
    let mut lifetimes: HashMap<TxnId, Lifetime> = HashMap::new();
    for ev in events {
        match ev {
            ScheduleEvent::Begin {
                txn,
                start_ts,
                class: Some(class),
            } => {
                lifetimes.insert(
                    *txn,
                    Lifetime {
                        class: *class,
                        start: *start_ts,
                        end: None,
                    },
                );
            }
            ScheduleEvent::Commit { txn, commit_ts } => {
                if let Some(l) = lifetimes.get_mut(txn) {
                    l.end = Some((*commit_ts, true));
                }
            }
            ScheduleEvent::Abort { txn, abort_ts } => {
                if let Some(l) = lifetimes.get_mut(txn) {
                    l.end = Some((*abort_ts, false));
                }
            }
            _ => {}
        }
    }

    // Stitch: the surviving prefix first (ticket order is preserved by
    // recording sequentially), then synthetic aborts for in-flight txns.
    for ev in events {
        sched.log().record(ev.clone());
    }
    let mut in_flight: Vec<(TxnId, Lifetime)> = lifetimes
        .iter()
        .filter(|(_, l)| l.end.is_none())
        .map(|(id, l)| (*id, *l))
        .collect();
    in_flight.sort_by_key(|&(id, _)| id);
    let in_flight_aborted = in_flight.len();
    let mut intervals: HashMap<ClassId, Vec<(Timestamp, Option<Timestamp>, bool)>> = HashMap::new();
    for (id, l) in &mut in_flight {
        let abort_ts = clock.tick();
        l.end = Some((abort_ts, false));
        sched
            .log()
            .record(ScheduleEvent::Abort { txn: *id, abort_ts });
    }
    for l in lifetimes.values().filter(|l| l.end.is_some()) {
        let (end, committed) = l.end.expect("filtered");
        intervals
            .entry(l.class)
            .or_default()
            .push((l.start, Some(end), committed));
    }
    for (_, l) in &in_flight {
        let (end, committed) = l.end.expect("closed above");
        intervals
            .entry(l.class)
            .or_default()
            .push((l.start, Some(end), committed));
    }
    for (class, mut ivs) in intervals {
        ivs.sort_by_key(|&(start, _, _)| start);
        sched.registry().absorb_class(class, &ivs);
    }
    // Every recovered interval has ended, so a wall is computable now:
    // a resumed Protocol C reader reads the recovered state, not the
    // genesis wall's seed.
    let released = sched.try_release_wall();
    debug_assert!(released, "no recovered interval is running");

    let resumes_after = recovery.high_water_mark.succ();
    // Publish replay progress on the gauge board so a scraper watching
    // the recovering process sees how far redo got and whether the log
    // was pristine.
    sched
        .metrics()
        .obs
        .gauges
        .set_recovery_progress(events.len() as u64, recovery.anomalies.total() as u64);
    // Recovery is a rare, load-bearing event: record it in the event
    // log unconditionally (bypassing the enable gate, which no caller
    // has had a chance to set on the freshly built scheduler).
    let replay = TraceEvent::RecoveryReplay {
        events: events.len() as u64,
        redone: recovery.redone as u64,
        rolled_back: recovery.rolled_back as u64,
        in_flight_aborted: in_flight_aborted as u64,
        high_water_mark: recovery.high_water_mark.raw(),
    };
    let obs = &sched.metrics().obs;
    obs.events.push(Event::Decision(replay));
    let report = ResumeReport {
        recovery,
        in_flight_aborted,
        resumes_after,
    };
    (sched, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AccessSpec;
    use txn_model::{
        CommitOutcome, DependencyGraph, GranuleId, ReadOutcome, Scheduler, SegmentId, TxnProfile,
        Value, WriteOutcome,
    };

    fn s(i: u32) -> SegmentId {
        SegmentId(i)
    }

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(s(seg), key)
    }

    fn chain_hierarchy() -> Arc<Hierarchy> {
        Arc::new(
            Hierarchy::build(
                2,
                &[
                    AccessSpec::new("c0", vec![s(0)], vec![]),
                    AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                ],
            )
            .unwrap(),
        )
    }

    fn seeded_store() -> Arc<MvStore> {
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(0));
        store.seed(g(1, 1), Value::Int(0));
        store
    }

    /// A pre-crash run: t1 commits a write, t2 is cut down mid-flight
    /// (its write is logged, its commit is not).
    fn pre_crash_events() -> Vec<ScheduleEvent> {
        let sched = HddScheduler::new(
            chain_hierarchy(),
            seeded_store(),
            Arc::new(LogicalClock::new()),
            HddConfig::default(),
        );
        let t1 = sched.begin(&TxnProfile::update(ClassId(0), vec![]));
        assert_eq!(
            sched.write(&t1, g(0, 1), Value::Int(10)),
            WriteOutcome::Done
        );
        assert!(matches!(sched.commit(&t1), CommitOutcome::Committed(_)));
        let t2 = sched.begin(&TxnProfile::update(ClassId(0), vec![]));
        assert_eq!(
            sched.write(&t2, g(0, 1), Value::Int(99)),
            WriteOutcome::Done
        );
        // Crash here: t2 never commits.
        sched.log().events()
    }

    #[test]
    fn resume_restores_store_clock_registry_and_ids() {
        let events = pre_crash_events();
        let hwm = events
            .iter()
            .map(|ev| match ev {
                ScheduleEvent::Begin { start_ts, .. } => *start_ts,
                ScheduleEvent::Write { version, .. } => *version,
                ScheduleEvent::Commit { commit_ts, .. } => *commit_ts,
                ScheduleEvent::Abort { abort_ts, .. } => *abort_ts,
                ScheduleEvent::Read { version, .. } => *version,
            })
            .max()
            .unwrap();
        let (sched, report) = resume(
            chain_hierarchy(),
            seeded_store(),
            &events,
            HddConfig::default(),
        );
        // Store: committed write redone, in-flight write rolled back.
        assert_eq!(sched.store().latest_value(g(0, 1)), Value::Int(10));
        assert_eq!(report.recovery.redone, 1);
        assert_eq!(report.recovery.rolled_back, 1);
        assert!(report.recovery.anomalies.is_clean());
        assert_eq!(report.in_flight_aborted, 1);
        // Clock: strictly above the pre-crash high-water mark.
        assert!(report.resumes_after > hwm);
        // Registry: nothing still reads as running, so bounds advance.
        assert!(sched.registry().oldest_running().is_none());
        // New work draws fresh ids and fresh timestamps.
        let t = sched.begin(&TxnProfile::update(ClassId(0), vec![]));
        assert!(events.iter().all(|ev| ev.txn() != t.id), "id not reused");
        assert!(t.start_ts > hwm, "timestamp not reused");
        assert_eq!(sched.write(&t, g(0, 1), Value::Int(11)), WriteOutcome::Done);
        assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        // The stitched log (pre-crash + synthetic abort + resumed work)
        // is serializable as one history.
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn resumed_cross_class_reads_see_recovered_state() {
        let events = pre_crash_events();
        let (sched, _) = resume(
            chain_hierarchy(),
            seeded_store(),
            &events,
            HddConfig::default(),
        );
        // A class-1 transaction reads D0 via Protocol A: the bound is
        // computed over the absorbed registry history and must serve the
        // recovered committed value, not the rolled-back one.
        let t = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0)]));
        match sched.read(&t, g(0, 1)) {
            ReadOutcome::Value(v) => assert_eq!(*v, Value::Int(10)),
            other => panic!("expected recovered value, got {other:?}"),
        }
        assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn resume_stitches_the_log_and_traces_the_replay() {
        let events = pre_crash_events();
        let (sched, report) = resume(
            chain_hierarchy(),
            seeded_store(),
            &events,
            HddConfig::default(),
        );
        let stitched = sched.log().events();
        assert_eq!(stitched.len(), events.len() + report.in_flight_aborted);
        let aborts = stitched
            .iter()
            .filter(|ev| matches!(ev, ScheduleEvent::Abort { .. }))
            .count();
        assert_eq!(aborts, 1);
        // The replay is recorded in the event log even with obs off.
        let kinds: Vec<&str> = sched
            .metrics()
            .obs
            .events
            .drain()
            .iter()
            .filter_map(|(_, e)| e.decision().map(TraceEvent::kind))
            .collect();
        assert!(kinds.contains(&"recovery-replay"));
    }
}
