//! A centralized, simplified SDD-1-style scheduler (Bernstein 80):
//! conflict-graph pre-analysis plus serialized pipelining.
//!
//! SDD-1 analyzes transaction *classes* a priori and, where classes
//! conflict, forces their transactions through a timestamp-ordered
//! pipeline. This reduction keeps exactly that discipline and drops the
//! distributed machinery (see DESIGN.md, substitutions):
//!
//! * classes are declared up front with their read/write segment sets;
//! * classes `i`, `j` **conflict** when `w_i ∩ a_j ≠ ∅` or
//!   `w_j ∩ a_i ≠ ∅` (a class always conflicts with itself when it both
//!   reads and writes);
//! * a transaction's operations **wait** until every older active
//!   transaction of a conflicting class has finished — the pipelining
//!   that, per Figure 10, "may cause read requests to be rejected or
//!   blocked";
//! * once cleared, operations touch the latest committed state directly;
//!   no per-granule registration is needed because conflicting
//!   transactions never overlap.
//!
//! Read-only transactions receive "no special handling" (Figure 10):
//! they are treated as a class conflicting with every writer of the
//! segments they read.

use crate::common::Base;
use mvstore::MvStore;
use std::sync::Arc;
use txn_model::{
    CommitOutcome, GranuleId, LogicalClock, Metrics, ReadOutcome, ScheduleLog, Scheduler,
    SegmentId, Timestamp, TxnHandle, TxnId, TxnProfile, Value, WriteOutcome,
};

/// A declared transaction class for the conflict analysis.
#[derive(Debug, Clone)]
pub struct Sdd1Class {
    /// Segments this class writes.
    pub writes: Vec<SegmentId>,
    /// Segments this class reads.
    pub reads: Vec<SegmentId>,
}

impl Sdd1Class {
    fn accesses(&self) -> Vec<SegmentId> {
        let mut a = self.reads.clone();
        for &w in &self.writes {
            if !a.contains(&w) {
                a.push(w);
            }
        }
        a
    }
}

/// Simplified SDD-1 pipelining scheduler.
pub struct Sdd1Pipeline {
    base: Base,
    classes: Vec<Sdd1Class>,
    /// `conflicts[i][j]` — classes i and j must be pipelined.
    conflicts: Vec<Vec<bool>>,
}

impl Sdd1Pipeline {
    /// Build from declared classes. Class index in `classes` is the
    /// `ClassId` callers put in their profiles; read-only profiles are
    /// assigned a synthetic class conflicting with writers of what they
    /// read.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>, classes: Vec<Sdd1Class>) -> Self {
        let n = classes.len();
        let mut conflicts = vec![vec![false; n + 1]; n + 1];
        let overlap = |a: &[SegmentId], b: &[SegmentId]| a.iter().any(|x| b.contains(x));
        for i in 0..n {
            for j in 0..n {
                let c = overlap(&classes[i].writes, &classes[j].accesses())
                    || overlap(&classes[j].writes, &classes[i].accesses());
                conflicts[i][j] = c;
            }
        }
        Sdd1Pipeline {
            base: Base::new(store, clock),
            classes,
            conflicts,
        }
    }

    /// The synthetic class index for read-only transactions.
    fn ro_class(&self) -> usize {
        self.classes.len()
    }

    /// Class index from recorded transaction info.
    fn class_index_of(&self, info: &crate::common::TxnInfo) -> usize {
        info.class
            .map(txn_model::ClassId::index)
            .filter(|&c| c < self.classes.len())
            .unwrap_or(self.ro_class())
    }

    /// Does a transaction of class `a` (reads `ra` when read-only)
    /// conflict with one of class `b` (reads `rb`)? The synthetic
    /// read-only class conflicts with any class writing a segment it
    /// reads; two read-only transactions never conflict.
    fn conflict(&self, a: usize, ra: &[SegmentId], b: usize, rb: &[SegmentId]) -> bool {
        let n = self.classes.len();
        match (a == n, b == n) {
            (false, false) => self.conflicts[a][b],
            (true, false) => ra.iter().any(|s| self.classes[b].writes.contains(s)),
            (false, true) => rb.iter().any(|s| self.classes[a].writes.contains(s)),
            (true, true) => false,
        }
    }

    /// Pipelining gate: may `h` proceed? Blocks while an older active
    /// transaction of a conflicting class exists. (The transaction table
    /// holds exactly the active transactions: entries are removed at
    /// commit/abort.)
    fn gate(&self, h: &TxnHandle) -> bool {
        let txns = self.base.txns.lock();
        let Some(me) = txns.get(&h.id) else {
            return false;
        };
        let my_class = self.class_index_of(me);
        !txns.iter().any(|(id, other)| {
            *id != h.id
                && other.start < h.start_ts
                && self.conflict(
                    my_class,
                    &me.read_segments,
                    self.class_index_of(other),
                    &other.read_segments,
                )
        })
    }
}

impl Scheduler for Sdd1Pipeline {
    fn name(&self) -> &'static str {
        "sdd1"
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.base.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        if !self.gate(h) {
            Metrics::bump(&self.base.metrics.blocks);
            return ReadOutcome::Block;
        }
        // Own buffered write first.
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
        if !self.gate(h) {
            Metrics::bump(&self.base.metrics.blocks);
            return WriteOutcome::Block;
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
        // Commit must also respect the pipeline: an older conflicting
        // transaction may still be running (it will then be ordered
        // after us otherwise).
        if !self.gate(h) {
            Metrics::bump(&self.base.metrics.blocks);
            return CommitOutcome::Block;
        }
        // Install, then leave the table: while the writes go in, the
        // gate still holds younger conflicting transactions back.
        let Some(info) = self.base.txns.lock().get(&h.id).cloned() else {
            return CommitOutcome::Aborted;
        };
        let cts = self.base.commit_buffered(h.id, &info);
        self.base.take(h.id);
        CommitOutcome::Committed(cts)
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
    use txn_model::{ClassId, DependencyGraph};

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    /// Two classes: class 0 writes seg 0; class 1 writes seg 1 and reads
    /// seg 0 (conflicting with class 0). A third segment-2 class is
    /// independent.
    fn setup() -> Sdd1Pipeline {
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(5));
        store.seed(g(1, 1), Value::Int(0));
        store.seed(g(2, 1), Value::Int(0));
        Sdd1Pipeline::new(
            store,
            Arc::new(LogicalClock::new()),
            vec![
                Sdd1Class {
                    writes: vec![SegmentId(0)],
                    reads: vec![],
                },
                Sdd1Class {
                    writes: vec![SegmentId(1)],
                    reads: vec![SegmentId(0)],
                },
                Sdd1Class {
                    writes: vec![SegmentId(2)],
                    reads: vec![SegmentId(2)],
                },
            ],
        )
    }

    #[test]
    fn conflicting_classes_pipeline() {
        let s = setup();
        let older = s.begin(&TxnProfile::update(ClassId(0), vec![]));
        let newer = s.begin(&TxnProfile::update(ClassId(1), vec![SegmentId(0)]));
        // newer must wait for older (classes 0 and 1 conflict).
        assert_eq!(s.read(&newer, g(0, 1)), ReadOutcome::Block);
        assert_eq!(s.write(&older, g(0, 1), Value::Int(7)), WriteOutcome::Done);
        assert!(matches!(s.commit(&older), CommitOutcome::Committed(_)));
        // Pipeline cleared.
        assert!(
            matches!(s.read(&newer, g(0, 1)), ReadOutcome::Value(ref v) if **v == Value::Int(7))
        );
        assert_eq!(s.write(&newer, g(1, 1), Value::Int(1)), WriteOutcome::Done);
        assert!(matches!(s.commit(&newer), CommitOutcome::Committed(_)));
        assert!(s.metrics().snapshot().blocks >= 1);
        assert!(DependencyGraph::from_log(s.log()).is_serializable());
    }

    #[test]
    fn non_conflicting_classes_run_freely() {
        let s = setup();
        let a = s.begin(&TxnProfile::update(ClassId(0), vec![]));
        let b = s.begin(&TxnProfile::update(ClassId(2), vec![SegmentId(2)]));
        // Class 2 does not conflict with class 0: no pipeline stall.
        assert!(matches!(s.read(&b, g(2, 1)), ReadOutcome::Value(_)));
        assert_eq!(s.write(&b, g(2, 1), Value::Int(9)), WriteOutcome::Done);
        assert!(matches!(s.commit(&b), CommitOutcome::Committed(_)));
        assert_eq!(s.write(&a, g(0, 1), Value::Int(1)), WriteOutcome::Done);
        assert!(matches!(s.commit(&a), CommitOutcome::Committed(_)));
        assert_eq!(s.metrics().snapshot().blocks, 0);
    }

    #[test]
    fn read_only_waits_for_writers_of_read_segments() {
        let s = setup();
        let w = s.begin(&TxnProfile::update(ClassId(0), vec![]));
        let ro = s.begin(&TxnProfile::read_only(vec![SegmentId(0)]));
        // SDD-1 gives read-only transactions no special handling: ro
        // pipelines behind the older conflicting writer.
        assert_eq!(s.read(&ro, g(0, 1)), ReadOutcome::Block);
        s.write(&w, g(0, 1), Value::Int(3));
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
        assert!(matches!(s.read(&ro, g(0, 1)), ReadOutcome::Value(ref v) if **v == Value::Int(3)));
        assert!(matches!(s.commit(&ro), CommitOutcome::Committed(_)));
    }

    #[test]
    fn read_only_transactions_never_conflict_with_each_other() {
        let s = setup();
        let ro1 = s.begin(&TxnProfile::read_only(vec![SegmentId(0)]));
        let ro2 = s.begin(&TxnProfile::read_only(vec![SegmentId(0)]));
        // Both proceed despite overlapping read sets: neither writes.
        assert!(matches!(s.read(&ro1, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(s.read(&ro2, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(s.commit(&ro2), CommitOutcome::Committed(_)));
        assert!(matches!(s.commit(&ro1), CommitOutcome::Committed(_)));
        assert_eq!(s.metrics().snapshot().blocks, 0);
    }

    #[test]
    fn younger_writer_waits_for_older_read_only() {
        let s = setup();
        // Older read-only over segment 0; younger class-0 writer must
        // pipeline behind it (no special handling cuts both ways).
        let ro = s.begin(&TxnProfile::read_only(vec![SegmentId(0)]));
        let w = s.begin(&TxnProfile::update(ClassId(0), vec![]));
        assert_eq!(s.write(&w, g(0, 1), Value::Int(1)), WriteOutcome::Block);
        assert!(matches!(s.read(&ro, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(s.commit(&ro), CommitOutcome::Committed(_)));
        assert_eq!(s.write(&w, g(0, 1), Value::Int(1)), WriteOutcome::Done);
        assert!(matches!(s.commit(&w), CommitOutcome::Committed(_)));
    }

    #[test]
    fn no_read_registration_ever() {
        let s = setup();
        let t = s.begin(&TxnProfile::update(ClassId(1), vec![SegmentId(0)]));
        s.read(&t, g(0, 1));
        s.read(&t, g(1, 1));
        assert_eq!(s.metrics().snapshot().read_registrations, 0);
        s.abort(&t);
    }
}
