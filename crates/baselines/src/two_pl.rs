//! Strict two-phase locking, with the Figure 3 "no cross-segment read
//! locks" failure mode as a switch.
//!
//! * Reads take shared locks; writes take exclusive locks; all locks are
//!   held to end-of-transaction (strict 2PL).
//! * Writes are buffered and installed at commit, so the version order of
//!   a granule is the commit order — exactly what the lock discipline
//!   serializes.
//! * Deadlocks are detected on the waits-for graph; the requester is the
//!   victim and its operation reports `Abort`.
//! * With [`TwoPlConfig::cross_segment_read_locks`] `= false`,
//!   transactions skip the S-lock for granules outside their home
//!   segment — the paper's Figure 3 shows this breaks serializability,
//!   and experiment E3 reproduces that cycle.

use crate::common::Base;
use mvstore::{LockMode, LockRequestResult, LockTable, MvStore};
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    TxnHandle, TxnProfile, Value, WriteOutcome,
};

/// Configuration for [`TwoPhaseLocking`].
#[derive(Debug, Clone)]
pub struct TwoPlConfig {
    /// Take S-locks for reads outside the transaction's home segment.
    /// `false` reproduces Figure 3's broken protocol.
    pub cross_segment_read_locks: bool,
}

impl Default for TwoPlConfig {
    fn default() -> Self {
        TwoPlConfig {
            cross_segment_read_locks: true,
        }
    }
}

/// Strict two-phase locking.
pub struct TwoPhaseLocking {
    base: Base,
    locks: LockTable,
    config: TwoPlConfig,
}

impl TwoPhaseLocking {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>, config: TwoPlConfig) -> Self {
        TwoPhaseLocking {
            base: Base::new(store, clock),
            locks: LockTable::new(),
            config,
        }
    }

    fn acquire(&self, h: &TxnHandle, g: GranuleId, mode: LockMode) -> LockRequestResult {
        let r = self.locks.try_acquire(h.id, g, mode);
        match r {
            LockRequestResult::Granted => {
                let counter = match mode {
                    LockMode::Shared => &self.base.metrics.read_registrations,
                    LockMode::Exclusive => &self.base.metrics.write_registrations,
                };
                Metrics::bump(counter);
            }
            LockRequestResult::Waiting => Metrics::bump(&self.base.metrics.blocks),
            LockRequestResult::Deadlock => {
                Metrics::bump(&self.base.metrics.deadlocks);
                self.base.metrics.reject(
                    obs::RejectReason::DeadlockVictim,
                    h.id.0,
                    g.segment.0,
                    g.key,
                );
            }
        }
        r
    }

    fn read_current(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        // Own buffered write first.
        {
            let txns = self.base.txns.lock();
            if let Some(info) = txns.get(&h.id) {
                if let Some(v) = info.buffer.get(&g) {
                    // A re-read of one's own uninstalled write: log as a
                    // self-read of the not-yet-numbered version is
                    // meaningless for the dependency graph, so serve it
                    // without a log entry.
                    Metrics::bump(&self.base.metrics.reads);
                    return ReadOutcome::Value(Arc::new(v.clone()));
                }
            }
        }
        let (value, version, writer) =
            self.base
                .store
                .with_chain(g, |c| match c.latest_committed() {
                    Some(v) => (v.value.clone(), v.ts, v.writer),
                    None => (
                        Arc::new(Value::Absent),
                        txn_model::Timestamp::ZERO,
                        txn_model::TxnId(0),
                    ),
                });
        self.base.log_read(h.id, g, version, writer);
        ReadOutcome::Value(value)
    }
}

impl Scheduler for TwoPhaseLocking {
    fn name(&self) -> &'static str {
        if self.config.cross_segment_read_locks {
            "2pl"
        } else {
            "2pl-no-cross-read-locks"
        }
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let home = self.base.txns.lock().get(&h.id).and_then(|i| i.home);
        let needs_lock = self.config.cross_segment_read_locks || home == Some(g.segment);
        if needs_lock {
            match self.acquire(h, g, LockMode::Shared) {
                LockRequestResult::Granted => {}
                LockRequestResult::Waiting => return ReadOutcome::Block,
                LockRequestResult::Deadlock => return ReadOutcome::Abort,
            }
        }
        self.read_current(h, g)
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        match self.acquire(h, g, LockMode::Exclusive) {
            LockRequestResult::Granted => {}
            LockRequestResult::Waiting => return WriteOutcome::Block,
            LockRequestResult::Deadlock => return WriteOutcome::Abort,
        }
        let mut txns = self.base.txns.lock();
        if let Some(info) = txns.get_mut(&h.id) {
            if !info.buffer.contains_key(&g) {
                info.buffer_order.push(g);
            }
            info.buffer.insert(g, v);
        }
        WriteOutcome::Done
    }

    fn commit(&self, h: &TxnHandle) -> CommitOutcome {
        let Some(info) = self.base.take(h.id) else {
            return CommitOutcome::Aborted;
        };
        let cts = self.base.commit_buffered(h.id, &info);
        self.locks.release_all(h.id);
        CommitOutcome::Committed(cts)
    }

    fn abort(&self, h: &TxnHandle) {
        if self.base.take(h.id).is_some() {
            self.base.abort_buffered(h.id);
            self.locks.release_all(h.id);
        }
    }

    fn maintenance(&self) {
        self.base.maintenance();
    }

    fn log(&self) -> &ScheduleLog {
        &self.base.log
    }

    fn metrics(&self) -> &Metrics {
        &self.base.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::{ClassId, DependencyGraph, SegmentId};

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    fn setup(cross_locks: bool) -> TwoPhaseLocking {
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(100));
        store.seed(g(1, 1), Value::Int(0));
        TwoPhaseLocking::new(
            store,
            Arc::new(LogicalClock::new()),
            TwoPlConfig {
                cross_segment_read_locks: cross_locks,
            },
        )
    }

    fn update(seg: u32) -> TxnProfile {
        TxnProfile::update(ClassId(seg), vec![SegmentId(0), SegmentId(1)])
    }

    #[test]
    fn read_write_commit_cycle() {
        let s = setup(true);
        let t = s.begin(&update(0));
        assert!(matches!(s.read(&t, g(0, 1)), ReadOutcome::Value(ref v) if **v == Value::Int(100)));
        assert_eq!(s.write(&t, g(0, 1), Value::Int(150)), WriteOutcome::Done);
        // Own write visible before commit.
        assert!(matches!(s.read(&t, g(0, 1)), ReadOutcome::Value(ref v) if **v == Value::Int(150)));
        assert!(matches!(s.commit(&t), CommitOutcome::Committed(_)));
        assert_eq!(s.base.store.latest_value(g(0, 1)), Value::Int(150));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn readers_block_writer_until_commit() {
        let s = setup(true);
        let r = s.begin(&update(0));
        assert!(matches!(s.read(&r, g(0, 1)), ReadOutcome::Value(_)));
        let w = s.begin(&update(0));
        assert_eq!(s.write(&w, g(0, 1), Value::Int(1)), WriteOutcome::Block);
        assert!(matches!(s.commit(&r), CommitOutcome::Committed(_)));
        assert_eq!(s.write(&w, g(0, 1), Value::Int(1)), WriteOutcome::Done);
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        assert!(s.metrics().snapshot().blocks >= 1);
    }

    #[test]
    fn deadlock_aborts_requester() {
        let s = setup(true);
        let a = s.begin(&update(0));
        let b = s.begin(&update(0));
        assert_eq!(s.write(&a, g(0, 1), Value::Int(1)), WriteOutcome::Done);
        assert_eq!(s.write(&b, g(1, 1), Value::Int(2)), WriteOutcome::Done);
        assert_eq!(s.write(&a, g(1, 1), Value::Int(3)), WriteOutcome::Block);
        assert_eq!(s.write(&b, g(0, 1), Value::Int(4)), WriteOutcome::Abort);
        s.abort(&b);
        assert_eq!(s.write(&a, g(1, 1), Value::Int(3)), WriteOutcome::Done);
        assert!(matches!(s.commit(&a), CommitOutcome::Committed(_)));
        assert_eq!(s.metrics().snapshot().deadlocks, 1);
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn broken_variant_skips_cross_segment_read_locks() {
        let s = setup(false);
        // Home segment 1; read from segment 0 takes no lock.
        let t = s.begin(&TxnProfile::update(ClassId(1), vec![SegmentId(0)]));
        assert!(matches!(s.read(&t, g(0, 1)), ReadOutcome::Value(_)));
        assert_eq!(s.metrics().snapshot().read_registrations, 0);
        // Home-segment reads still lock.
        assert!(matches!(s.read(&t, g(1, 1)), ReadOutcome::Value(_)));
        assert_eq!(s.metrics().snapshot().read_registrations, 1);
        s.abort(&t);
    }

    #[test]
    fn strict_2pl_serializes_rmw_counters() {
        // Interleaved read-modify-writes must not lose updates.
        let s = setup(true);
        let t1 = s.begin(&update(0));
        let t2 = s.begin(&update(0));
        let v1 = match s.read(&t1, g(0, 1)) {
            ReadOutcome::Value(v) => v.as_int(),
            _ => panic!(),
        };
        // t2's read blocks? No: S locks coexist. t2 reads too.
        let _ = match s.read(&t2, g(0, 1)) {
            ReadOutcome::Value(v) => v.as_int(),
            ReadOutcome::Block => {
                // Fine too (depends on lock state) — but with two S locks
                // it should not block.
                panic!("shared read should not block")
            }
            _ => panic!(),
        };
        // t1 upgrades: must wait for t2 (or deadlock).
        let w1 = s.write(&t1, g(0, 1), Value::Int(v1 + 50));
        assert_eq!(w1, WriteOutcome::Block);
        // t2 upgrade now deadlocks; t2 aborts and retries later.
        assert_eq!(s.write(&t2, g(0, 1), Value::Int(0)), WriteOutcome::Abort);
        s.abort(&t2);
        assert_eq!(
            s.write(&t1, g(0, 1), Value::Int(v1 + 50)),
            WriteOutcome::Done
        );
        assert!(matches!(s.commit(&t1), CommitOutcome::Committed(_)));
        assert_eq!(s.base.store.latest_value(g(0, 1)), Value::Int(150));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }
}
