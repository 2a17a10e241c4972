//! No concurrency control at all — the Figure 1 demonstration baseline.
//!
//! Reads see the latest committed value; writes are buffered and
//! installed at commit; nothing is checked, registered or blocked.
//! Concurrent read-modify-write transactions therefore exhibit exactly
//! the lost-update anomaly of Figure 1: both read the same old balance
//! and the second commit silently overwrites the first (experiment E1
//! counts the lost money).

use crate::common::Base;
use mvstore::MvStore;
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    Timestamp, TxnHandle, TxnId, TxnProfile, Value, WriteOutcome,
};

/// The absence of a concurrency control.
pub struct NoControl {
    base: Base,
}

impl NoControl {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>) -> Self {
        NoControl {
            base: Base::new(store, clock),
        }
    }
}

impl Scheduler for NoControl {
    fn name(&self) -> &'static str {
        "nocontrol"
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
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

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
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
        CommitOutcome::Committed(self.base.commit_buffered(h.id, &info))
    }

    fn abort(&self, h: &TxnHandle) {
        if self.base.take(h.id).is_some() {
            self.base.abort_buffered(h.id);
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
    use txn_model::{ClassId, SegmentId};

    fn g(key: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), key)
    }

    fn setup() -> NoControl {
        let store = Arc::new(MvStore::new());
        store.seed(g(1), Value::Int(100));
        NoControl::new(store, Arc::new(LogicalClock::new()))
    }

    fn profile() -> TxnProfile {
        TxnProfile::update(ClassId(0), vec![SegmentId(0)])
    }

    #[test]
    fn lost_update_figure_1() {
        // The paper's Figure 1, step for step: t1 deposits 50, t2
        // withdraws 50; interleaved, the final balance reflects only one.
        let s = setup();
        let t1 = s.begin(&profile());
        let t2 = s.begin(&profile());
        let b1 = match s.read(&t1, g(1)) {
            ReadOutcome::Value(v) => v.as_int(),
            _ => panic!(),
        };
        let b2 = match s.read(&t2, g(1)) {
            ReadOutcome::Value(v) => v.as_int(),
            _ => panic!(),
        };
        assert_eq!((b1, b2), (100, 100)); // both read the old balance
        s.write(&t1, g(1), Value::Int(b1 + 50));
        s.write(&t2, g(1), Value::Int(b2 - 50));
        s.commit(&t1);
        s.commit(&t2);
        // Correct result would be 100; one update is lost.
        assert_eq!(s.base.store.latest_value(g(1)), Value::Int(50));
    }

    #[test]
    fn no_overhead_whatsoever() {
        let s = setup();
        let t = s.begin(&profile());
        s.read(&t, g(1));
        s.write(&t, g(1), Value::Int(1));
        s.commit(&t);
        let m = s.metrics().snapshot();
        assert_eq!(m.read_registrations, 0);
        assert_eq!(m.blocks, 0);
        assert_eq!(m.rejections, 0);
    }
}
