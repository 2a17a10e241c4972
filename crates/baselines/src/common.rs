//! Shared plumbing for baseline schedulers: per-transaction bookkeeping
//! and begin/commit/abort boilerplate over the common substrate.

use mvstore::MvStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txn_model::{
    ClassId, GranuleId, IdMap, LogicalClock, Metrics, ScheduleEvent, ScheduleLog, SegmentId,
    Timestamp, TxnHandle, TxnId, TxnProfile, Value,
};

/// Live state of one baseline transaction.
#[derive(Debug, Default, Clone)]
pub struct TxnInfo {
    /// Granules with installed pending versions (install-at-write
    /// schedulers).
    pub write_set: Vec<GranuleId>,
    /// Buffered writes (install-at-commit schedulers).
    pub buffer: IdMap<GranuleId, Value>,
    /// Buffer insertion order (so installs replay in program order).
    pub buffer_order: Vec<GranuleId>,
    /// The transaction's class, if declared.
    pub class: Option<ClassId>,
    /// The segment the transaction writes ("home"), if any.
    pub home: Option<SegmentId>,
    /// Whether the transaction declared itself read-only.
    pub read_only: bool,
    /// Declared read segments (SDD-1 conflict gating).
    pub read_segments: Vec<SegmentId>,
    /// Initiation time.
    pub start: Timestamp,
}

/// Common fields of every baseline scheduler.
pub struct Base {
    /// Shared multi-version store.
    pub store: Arc<MvStore>,
    /// Shared logical clock.
    pub clock: Arc<LogicalClock>,
    /// Schedule log.
    pub log: ScheduleLog,
    /// Cost counters.
    pub metrics: Metrics,
    /// Transaction table.
    pub txns: Mutex<IdMap<TxnId, TxnInfo>>,
    next_txn: AtomicU64,
}

impl Base {
    /// Build over a store and clock.
    pub fn new(store: Arc<MvStore>, clock: Arc<LogicalClock>) -> Self {
        Base {
            store,
            clock,
            log: ScheduleLog::new(),
            metrics: Metrics::default(),
            txns: Mutex::default(),
            next_txn: AtomicU64::new(1),
        }
    }

    /// Allocate a handle, record the begin, register the txn table entry.
    pub fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        // ordering: Relaxed — txn-id ticket; uniqueness comes from
        // fetch_add atomicity, and the id is published to other threads
        // via the `txns` mutex below, not via this atomic.
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        let mut info = TxnInfo {
            class: profile.class,
            home: profile.write_segments.first().copied(),
            read_only: profile.is_read_only(),
            read_segments: profile.read_segments.clone(),
            ..TxnInfo::default()
        };
        // The start is drawn under the table lock so that `maintenance`
        // either sees this transaction or reads a clock below its start.
        let start = {
            let mut txns = self.txns.lock();
            let start = self.clock.tick();
            info.start = start;
            txns.insert(id, info);
            start
        };
        Metrics::bump(&self.metrics.begins);
        self.log.record(ScheduleEvent::Begin {
            txn: id,
            start_ts: start,
            class: profile.class,
        });
        TxnHandle {
            id,
            start_ts: start,
            class: profile.class,
        }
    }

    /// Record a read in the schedule log and count it.
    pub fn log_read(&self, txn: TxnId, g: GranuleId, version: Timestamp, writer: TxnId) {
        Metrics::bump(&self.metrics.reads);
        self.log.record(ScheduleEvent::Read {
            txn,
            granule: g,
            version,
            writer,
        });
    }

    /// Record a write in the schedule log and count it.
    pub fn log_write(&self, txn: TxnId, g: GranuleId, version: Timestamp, value: Arc<Value>) {
        Metrics::bump(&self.metrics.writes);
        self.log.record(ScheduleEvent::Write {
            txn,
            granule: g,
            version,
            value,
        });
    }

    /// Take the transaction's state out of the table.
    pub fn take(&self, id: TxnId) -> Option<TxnInfo> {
        self.txns.lock().remove(&id)
    }

    /// Mark a pending-version commit: flip commit bits, log, count.
    pub fn commit_installed(&self, id: TxnId, info: &TxnInfo) -> Timestamp {
        self.store.commit_writes(id, &info.write_set);
        let cts = self.clock.tick();
        self.log.record(ScheduleEvent::Commit {
            txn: id,
            commit_ts: cts,
        });
        Metrics::bump(&self.metrics.commits);
        cts
    }

    /// Abort cleanup for pending-version schedulers: remove versions,
    /// log, count.
    pub fn abort_installed(&self, id: TxnId, info: &TxnInfo) {
        self.store.abort_writes(id, &info.write_set);
        let abort_ts = self.clock.tick();
        self.log.record(ScheduleEvent::Abort { txn: id, abort_ts });
        Metrics::bump(&self.metrics.aborts);
    }

    /// Install the buffered writes at commit time (one fresh version
    /// timestamp per granule, already committed), log them, and finish
    /// the commit. Used by schedulers whose version order is the commit
    /// order (2PL family, no-control).
    pub fn commit_buffered(&self, id: TxnId, info: &TxnInfo) -> Timestamp {
        for &g in &info.buffer_order {
            let ts = self.clock.tick();
            let value = Arc::new(info.buffer[&g].clone());
            self.store.with_chain(g, |c| {
                let ok = c.install(ts, Arc::clone(&value), id, true);
                debug_assert!(ok, "commit ticks are unique");
            });
            self.log_write(id, g, ts, value);
        }
        let cts = self.clock.tick();
        self.log.record(ScheduleEvent::Commit {
            txn: id,
            commit_ts: cts,
        });
        Metrics::bump(&self.metrics.commits);
        cts
    }

    /// Garbage-collect below the oldest live transaction's start (the
    /// clock's present when none is live). Safe for every baseline: a
    /// timestamp-ordered reader selects the latest version below its own
    /// start, which is at or above this watermark, and every other read
    /// takes the latest committed version — a prune keeps both.
    pub fn maintenance(&self) {
        let wm = {
            let txns = self.txns.lock();
            let oldest = txns.values().map(|info| info.start).min();
            oldest.unwrap_or_else(|| self.clock.now())
        };
        let reclaimed = self.store.prune_before(wm);
        if reclaimed > 0 {
            Metrics::add(&self.metrics.versions_gced, reclaimed as u64);
        }
    }

    /// Abort for buffered-write schedulers: nothing was installed.
    pub fn abort_buffered(&self, id: TxnId) {
        let abort_ts = self.clock.tick();
        self.log.record(ScheduleEvent::Abort { txn: id, abort_ts });
        Metrics::bump(&self.metrics.aborts);
    }
}
