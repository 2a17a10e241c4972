//! Reed's multi-version timestamp ordering, applied uniformly.
//!
//! Every read selects the latest version older than the transaction's
//! timestamp and **registers a read timestamp on that version**; every
//! write is rejected if it would invalidate a younger read. This is
//! exactly what HDD's Protocol B does *inside* the root segment — running
//! it for every access quantifies the registration and rejection overhead
//! Protocol A removes for cross-class reads.

use crate::common::Base;
use mvstore::{MvStore, MvtoReadResult, MvtoWriteResult};
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    TxnHandle, TxnProfile, Value, WriteOutcome,
};

/// Multi-version timestamp ordering.
pub struct Mvto {
    base: Base,
}

impl Mvto {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>) -> Self {
        Mvto {
            base: Base::new(store, clock),
        }
    }
}

impl Scheduler for Mvto {
    fn name(&self) -> &'static str {
        "mvto"
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let r = self.base.store.with_chain(g, |c| c.mvto_read(h.start_ts));
        match r {
            MvtoReadResult::Value {
                value,
                version,
                writer,
            } => {
                Metrics::bump(&self.base.metrics.read_registrations);
                self.base.log_read(h.id, g, version, writer);
                ReadOutcome::Value(value)
            }
            MvtoReadResult::BlockOn(_) => {
                Metrics::bump(&self.base.metrics.blocks);
                ReadOutcome::Block
            }
        }
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        let v = Arc::new(v);
        let value = Arc::clone(&v);
        let r = self
            .base
            .store
            .with_chain(g, |c| c.mvto_write(h.start_ts, value, h.id));
        match r {
            MvtoWriteResult::Installed => {
                Metrics::bump(&self.base.metrics.write_registrations);
                self.base.log_write(h.id, g, h.start_ts, v);
                let mut txns = self.base.txns.lock();
                if let Some(info) = txns.get_mut(&h.id) {
                    if !info.write_set.contains(&g) {
                        info.write_set.push(g);
                    }
                }
                WriteOutcome::Done
            }
            MvtoWriteResult::Rejected => {
                self.base.metrics.reject(
                    obs::RejectReason::WriteTooLate,
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
        CommitOutcome::Committed(self.base.commit_installed(h.id, &info))
    }

    fn abort(&self, h: &TxnHandle) {
        if let Some(info) = self.base.take(h.id) {
            self.base.abort_installed(h.id, &info);
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

    fn setup() -> Mvto {
        let store = Arc::new(MvStore::new());
        store.seed(g(1), Value::Int(10));
        Mvto::new(store, Arc::new(LogicalClock::new()))
    }

    fn profile() -> TxnProfile {
        TxnProfile::update(ClassId(0), vec![SegmentId(0)])
    }

    #[test]
    fn old_reader_sees_old_version() {
        let s = setup();
        let old = s.begin(&profile());
        let new = s.begin(&profile());
        assert_eq!(s.write(&new, g(1), Value::Int(20)), WriteOutcome::Done);
        assert!(matches!(s.commit(&new), CommitOutcome::Committed(_)));
        // Unlike basic TSO, the old reader is served the old version.
        assert!(matches!(s.read(&old, g(1)), ReadOutcome::Value(ref v) if **v == Value::Int(10)));
        assert!(matches!(s.commit(&old), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn write_invalidating_young_read_rejected() {
        let s = setup();
        let old = s.begin(&profile());
        let new = s.begin(&profile());
        assert!(matches!(s.read(&new, g(1)), ReadOutcome::Value(_)));
        assert_eq!(s.write(&old, g(1), Value::Int(5)), WriteOutcome::Abort);
        s.abort(&old);
        assert!(matches!(s.commit(&new), CommitOutcome::Committed(_)));
        assert_eq!(s.metrics().snapshot().rejections, 1);
    }

    #[test]
    fn every_read_registers() {
        let s = setup();
        let t = s.begin(&profile());
        s.read(&t, g(1));
        s.read(&t, g(2));
        assert_eq!(s.metrics().snapshot().read_registrations, 2);
        s.abort(&t);
    }

    #[test]
    fn reader_blocks_on_pending_then_proceeds() {
        let s = setup();
        let w = s.begin(&profile());
        s.write(&w, g(1), Value::Int(99));
        let r = s.begin(&profile());
        assert_eq!(s.read(&r, g(1)), ReadOutcome::Block);
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        assert!(matches!(s.read(&r, g(1)), ReadOutcome::Value(ref v) if **v == Value::Int(99)));
        assert!(matches!(s.commit(&r), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }
}
