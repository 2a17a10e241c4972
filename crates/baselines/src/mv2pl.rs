//! Multi-version two-phase locking (Bayer 80 / Chan 82 style).
//!
//! Update transactions run strict 2PL (shared locks on reads, exclusive
//! locks on writes, buffered installs at commit). **Read-only
//! transactions take no locks at all**: they read the latest version
//! committed before their initiation time — versions are numbered by
//! commit ticks, so `latest_committed_before(start)` is exactly the
//! committed snapshot at start.
//!
//! This is the paper's Figure 10 "MV2PL" column: read-only transactions
//! are never blocked or rejected, but *update* transactions still pay a
//! read registration (S-lock) for every read, including cross-class
//! reads — which is precisely the overhead HDD Protocol A removes.

use crate::common::Base;
use mvstore::{LockMode, LockRequestResult, LockTable, MvStore};
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    Timestamp, TxnHandle, TxnId, TxnProfile, Value, WriteOutcome,
};

/// Multiversion 2PL.
pub struct Mv2pl {
    base: Base,
    locks: LockTable,
}

impl Mv2pl {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>) -> Self {
        Mv2pl {
            base: Base::new(store, clock),
            locks: LockTable::new(),
        }
    }

    fn snapshot_read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let (value, version, writer) =
            self.base
                .store
                .with_chain(g, |c| match c.latest_committed_before(h.start_ts) {
                    Some(v) => (v.value.clone(), v.ts, v.writer),
                    None => (Arc::new(Value::Absent), Timestamp::ZERO, TxnId(0)),
                });
        self.base.log_read(h.id, g, version, writer);
        ReadOutcome::Value(value)
    }

    fn current_read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        {
            let txns = self.base.txns.lock();
            if let Some(info) = txns.get(&h.id) {
                if let Some(v) = info.buffer.get(&g) {
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
                    None => (Arc::new(Value::Absent), Timestamp::ZERO, TxnId(0)),
                });
        self.base.log_read(h.id, g, version, writer);
        ReadOutcome::Value(value)
    }
}

impl Scheduler for Mv2pl {
    fn name(&self) -> &'static str {
        "mv2pl"
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let read_only = self
            .base
            .txns
            .lock()
            .get(&h.id)
            .is_some_and(|i| i.read_only);
        if read_only {
            // Lock-free committed snapshot.
            Metrics::bump(&self.base.metrics.wall_reads);
            return self.snapshot_read(h, g);
        }
        match self.locks.try_acquire(h.id, g, LockMode::Shared) {
            LockRequestResult::Granted => {
                Metrics::bump(&self.base.metrics.read_registrations);
                self.current_read(h, g)
            }
            LockRequestResult::Waiting => {
                Metrics::bump(&self.base.metrics.blocks);
                ReadOutcome::Block
            }
            LockRequestResult::Deadlock => {
                Metrics::bump(&self.base.metrics.deadlocks);
                self.base.metrics.reject(
                    obs::RejectReason::DeadlockVictim,
                    h.id.0,
                    g.segment.0,
                    g.key,
                );
                ReadOutcome::Abort
            }
        }
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        match self.locks.try_acquire(h.id, g, LockMode::Exclusive) {
            LockRequestResult::Granted => {
                Metrics::bump(&self.base.metrics.write_registrations);
                let mut txns = self.base.txns.lock();
                if let Some(info) = txns.get_mut(&h.id) {
                    if !info.buffer.contains_key(&g) {
                        info.buffer_order.push(g);
                    }
                    info.buffer.insert(g, v);
                }
                WriteOutcome::Done
            }
            LockRequestResult::Waiting => {
                Metrics::bump(&self.base.metrics.blocks);
                WriteOutcome::Block
            }
            LockRequestResult::Deadlock => {
                Metrics::bump(&self.base.metrics.deadlocks);
                self.base.metrics.reject(
                    obs::RejectReason::DeadlockVictim,
                    h.id.0,
                    g.segment.0,
                    g.key,
                );
                WriteOutcome::Abort
            }
        }
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

    fn g(key: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), key)
    }

    fn setup() -> Mv2pl {
        let store = Arc::new(MvStore::new());
        store.seed(g(1), Value::Int(10));
        store.seed(g(2), Value::Int(20));
        Mv2pl::new(store, Arc::new(LogicalClock::new()))
    }

    fn update() -> TxnProfile {
        TxnProfile::update(ClassId(0), vec![SegmentId(0)])
    }

    fn readonly() -> TxnProfile {
        TxnProfile::read_only(vec![SegmentId(0)])
    }

    #[test]
    fn read_only_never_blocks_despite_writer() {
        let s = setup();
        let w = s.begin(&update());
        assert_eq!(s.write(&w, g(1), Value::Int(99)), WriteOutcome::Done);
        // Reader starts while the write lock is held: no block, sees the
        // pre-write snapshot.
        let r = s.begin(&readonly());
        assert!(matches!(s.read(&r, g(1)), ReadOutcome::Value(ref v) if **v == Value::Int(10)));
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        // Still the snapshot from its start.
        assert!(matches!(s.read(&r, g(1)), ReadOutcome::Value(ref v) if **v == Value::Int(10)));
        assert!(matches!(s.commit(&r), CommitOutcome::Committed(_)));
        let m = s.metrics().snapshot();
        assert_eq!(m.blocks, 0);
        // Reader registered nothing.
        assert_eq!(m.read_registrations, 0);
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn snapshot_is_consistent_across_granules() {
        let s = setup();
        let r = s.begin(&readonly());
        // A writer commits to both granules after r started.
        let w = s.begin(&update());
        s.write(&w, g(1), Value::Int(11));
        s.write(&w, g(2), Value::Int(21));
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        // r sees neither write.
        assert!(matches!(s.read(&r, g(1)), ReadOutcome::Value(ref v) if **v == Value::Int(10)));
        assert!(matches!(s.read(&r, g(2)), ReadOutcome::Value(ref v) if **v == Value::Int(20)));
        assert!(matches!(s.commit(&r), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn update_transactions_still_lock() {
        let s = setup();
        let a = s.begin(&update());
        assert!(matches!(s.read(&a, g(1)), ReadOutcome::Value(_)));
        assert_eq!(s.metrics().snapshot().read_registrations, 1);
        let b = s.begin(&update());
        assert_eq!(s.write(&b, g(1), Value::Int(0)), WriteOutcome::Block);
        s.abort(&a);
        assert_eq!(s.write(&b, g(1), Value::Int(0)), WriteOutcome::Done);
        assert!(matches!(s.commit(&b), CommitOutcome::Committed(_)));
    }
}
