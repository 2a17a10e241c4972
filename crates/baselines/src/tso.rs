//! Basic timestamp ordering (Bernstein 80), with the Figure 4 "no
//! cross-segment read timestamps" failure mode as a switch.
//!
//! The granule is logically single-version (the chain is kept for
//! recovery/checking): a read of a granule already overwritten by a
//! younger transaction rejects; a write over a younger read or write
//! rejects; readers and writers wait for an uncommitted older write
//! (commit-bit blocking). Reads register the granule-level `max_rts` —
//! the write in the database the paper sets out to eliminate.
//!
//! With [`TsoConfig::register_cross_segment_reads`] `= false`, reads
//! outside the home segment skip both the timestamp check and the
//! registration and simply see the latest committed value — the paper's
//! Figure 4 shows this breaks serializability (experiment E4).

use crate::common::Base;
use mvstore::MvStore;
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    Timestamp, TxnHandle, TxnId, TxnProfile, Value, WriteOutcome,
};

/// Configuration for [`BasicTso`].
#[derive(Debug, Clone)]
pub struct TsoConfig {
    /// Register (and check) reads outside the home segment. `false`
    /// reproduces Figure 4's broken protocol.
    pub register_cross_segment_reads: bool,
}

impl Default for TsoConfig {
    fn default() -> Self {
        TsoConfig {
            register_cross_segment_reads: true,
        }
    }
}

/// Basic timestamp ordering.
pub struct BasicTso {
    base: Base,
    config: TsoConfig,
}

enum TsoRead {
    Value(Arc<Value>, Timestamp, TxnId),
    Block,
    Reject,
}

impl BasicTso {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>, config: TsoConfig) -> Self {
        BasicTso {
            base: Base::new(store, clock),
            config,
        }
    }
}

impl Scheduler for BasicTso {
    fn name(&self) -> &'static str {
        if self.config.register_cross_segment_reads {
            "tso"
        } else {
            "tso-no-cross-read-ts"
        }
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let home = self.base.txns.lock().get(&h.id).and_then(|i| i.home);
        let controlled = self.config.register_cross_segment_reads || home == Some(g.segment);

        let r = self.base.store.with_chain(g, |c| {
            if !controlled {
                // Figure 4 mode: uncontrolled read of the latest
                // committed value, no registration, no checks.
                return match c.latest_committed() {
                    Some(v) => TsoRead::Value(v.value.clone(), v.ts, v.writer),
                    None => TsoRead::Value(Arc::new(Value::Absent), Timestamp::ZERO, TxnId(0)),
                };
            }
            let (value, ts, writer, committed) = match c.latest() {
                Some(latest) => (
                    latest.value.clone(),
                    latest.ts,
                    latest.writer,
                    latest.committed,
                ),
                None => return TsoRead::Value(Arc::new(Value::Absent), Timestamp::ZERO, TxnId(0)),
            };
            if writer == h.id {
                return TsoRead::Value(value, ts, writer);
            }
            if ts > h.start_ts {
                return TsoRead::Reject;
            }
            if !committed {
                return TsoRead::Block;
            }
            if h.start_ts > c.max_rts {
                c.max_rts = h.start_ts;
            }
            TsoRead::Value(value, ts, writer)
        });

        match r {
            TsoRead::Value(v, ts, writer) => {
                if controlled {
                    Metrics::bump(&self.base.metrics.read_registrations);
                } else {
                    Metrics::bump(&self.base.metrics.cross_class_reads);
                }
                self.base.log_read(h.id, g, ts, writer);
                ReadOutcome::Value(v)
            }
            TsoRead::Block => {
                Metrics::bump(&self.base.metrics.blocks);
                ReadOutcome::Block
            }
            TsoRead::Reject => {
                self.base.metrics.reject(
                    obs::RejectReason::ReadTooLate,
                    h.id.0,
                    g.segment.0,
                    g.key,
                );
                ReadOutcome::Abort
            }
        }
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        let v = Arc::new(v);
        enum W {
            Done,
            Block,
            Reject,
        }
        let r = self.base.store.with_chain(g, |c| {
            // Re-write of own pending version.
            if c.version_by_writer(h.id).map(|ver| ver.ts) == Some(h.start_ts) {
                c.mvto_write(h.start_ts, Arc::clone(&v), h.id);
                return W::Done;
            }
            if c.max_rts > h.start_ts {
                return W::Reject;
            }
            match c.latest() {
                Some(latest) if latest.ts > h.start_ts => W::Reject,
                Some(latest) if !latest.committed && latest.writer != h.id => W::Block,
                _ => {
                    let ok = c.install(h.start_ts, Arc::clone(&v), h.id, false);
                    debug_assert!(ok);
                    W::Done
                }
            }
        });
        match r {
            W::Done => {
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
            W::Block => {
                Metrics::bump(&self.base.metrics.blocks);
                WriteOutcome::Block
            }
            W::Reject => {
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

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    fn setup(register: bool) -> BasicTso {
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(10));
        store.seed(g(1, 1), Value::Int(0));
        BasicTso::new(
            store,
            Arc::new(LogicalClock::new()),
            TsoConfig {
                register_cross_segment_reads: register,
            },
        )
    }

    fn profile(seg: u32) -> TxnProfile {
        TxnProfile::update(ClassId(seg), vec![SegmentId(0), SegmentId(1)])
    }

    #[test]
    fn timestamp_order_enforced_on_reads() {
        let s = setup(true);
        let old = s.begin(&profile(0));
        let new = s.begin(&profile(0));
        assert_eq!(s.write(&new, g(0, 1), Value::Int(5)), WriteOutcome::Done);
        assert!(matches!(s.commit(&new), CommitOutcome::Committed(_)));
        // Older transaction reading the younger's write: reject.
        assert_eq!(s.read(&old, g(0, 1)), ReadOutcome::Abort);
        s.abort(&old);
        assert_eq!(s.metrics().snapshot().rejections, 1);
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn write_over_younger_read_rejected() {
        let s = setup(true);
        let old = s.begin(&profile(0));
        let new = s.begin(&profile(0));
        assert!(matches!(s.read(&new, g(0, 1)), ReadOutcome::Value(_)));
        assert_eq!(s.write(&old, g(0, 1), Value::Int(5)), WriteOutcome::Abort);
        s.abort(&old);
        assert!(matches!(s.commit(&new), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn reads_block_on_uncommitted_write() {
        let s = setup(true);
        let w = s.begin(&profile(0));
        assert_eq!(s.write(&w, g(0, 1), Value::Int(5)), WriteOutcome::Done);
        let r = s.begin(&profile(0));
        assert_eq!(s.read(&r, g(0, 1)), ReadOutcome::Block);
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        assert!(matches!(s.read(&r, g(0, 1)), ReadOutcome::Value(ref v) if **v == Value::Int(5)));
        assert!(matches!(s.commit(&r), CommitOutcome::Committed(_)));
    }

    #[test]
    fn every_controlled_read_registers() {
        let s = setup(true);
        let t = s.begin(&profile(0));
        s.read(&t, g(0, 1));
        s.read(&t, g(1, 1));
        assert_eq!(s.metrics().snapshot().read_registrations, 2);
        s.abort(&t);
    }

    #[test]
    fn broken_variant_skips_cross_reads() {
        let s = setup(false);
        let t = s.begin(&TxnProfile::update(ClassId(1), vec![SegmentId(0)]));
        assert!(matches!(s.read(&t, g(0, 1)), ReadOutcome::Value(_)));
        let m = s.metrics().snapshot();
        assert_eq!(m.read_registrations, 0);
        assert_eq!(m.cross_class_reads, 1);
        // Home reads still register.
        assert!(matches!(s.read(&t, g(1, 1)), ReadOutcome::Value(_)));
        assert_eq!(s.metrics().snapshot().read_registrations, 1);
        s.abort(&t);
    }

    #[test]
    fn aborted_writes_vanish() {
        let s = setup(true);
        let t = s.begin(&profile(0));
        s.write(&t, g(0, 1), Value::Int(99));
        s.abort(&t);
        assert_eq!(s.base.store.latest_value(g(0, 1)), Value::Int(10));
    }
}
