//! Crash recovery from the value-carrying schedule log.
//!
//! The schedule log doubles as a **redo log**: `Write` events carry the
//! written value, `Commit` events mark durability. [`recover`] replays a
//! log prefix (everything "flushed" before a crash) into a fresh store:
//!
//! * only transactions whose `Commit` appears in the prefix are redone —
//!   a transaction whose writes were logged but whose commit was lost is
//!   rolled back by *not* redoing it (atomicity);
//! * versions are installed committed, with their original write
//!   timestamps, so multi-version reads (Protocols A/C, time-slice
//!   retrieval) behave identically after recovery.
//!
//! The log is the one durable state: the store holds none, so recovery
//! is re-seed plus replay. The redo set is installed through
//! [`MvStore::put_versions`], whose later-record-wins rule makes a
//! replayed version harmless.
//!
//! The initial database image is re-seeded by the caller (as at normal
//! startup) before replaying, mirroring an ARIES-style "load checkpoint,
//! then redo" sequence without needing undo (writes of uncommitted
//! transactions never reach the recovered store).
//!
//! # Malformed logs
//!
//! A log that survived a crash (and a torn-tail truncation, see
//! `txn_model::wal`) may still be internally inconsistent — a buggy or
//! corrupted writer can emit duplicate commits, writes after a commit,
//! or events for transactions that never began. Replaying those silently
//! would fabricate database state, so [`recover`] classifies each shape,
//! **skips** it, counts it in [`RecoveryReport::anomalies`], and retains
//! the first few offending frames ([`RecoveryAnomalies::samples`]) so an
//! operator sees *which* transactions misbehaved, not just how many
//! frames were dropped; callers that demand a pristine log check
//! [`RecoveryAnomalies::is_clean`] and refuse the store otherwise.
//!
//! # High-water mark
//!
//! The report also carries the largest timestamp observed anywhere in
//! the log ([`RecoveryReport::high_water_mark`]). Protocol B's safety
//! argument assumes timestamps never repeat, so a recovered scheduler
//! must advance its logical clock strictly past this mark before serving
//! new transactions (`hdd::recovery::resume` does exactly that).

use crate::store::{MvStore, VersionRecord};
use txn_model::{ScheduleEvent, Timestamp, TxnId};

/// How many offending frames [`RecoveryAnomalies`] retains verbatim.
pub const MAX_ANOMALY_SAMPLES: usize = 8;

/// Which malformed-log shape a skipped frame exhibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipKind {
    /// Second or later `Commit` for an already-committed transaction.
    DuplicateCommit,
    /// `Write` appearing after its transaction's `Commit`.
    WriteAfterCommit,
    /// Event whose transaction has no `Begin` in the log prefix.
    UnknownTxnEvent,
}

impl std::fmt::Display for SkipKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipKind::DuplicateCommit => write!(f, "duplicate commit"),
            SkipKind::WriteAfterCommit => write!(f, "write after commit"),
            SkipKind::UnknownTxnEvent => write!(f, "event for unknown txn"),
        }
    }
}

/// One frame recovery refused to replay: who, when, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedFrame {
    /// Transaction the frame claimed to belong to.
    pub txn: TxnId,
    /// The frame's own timestamp (version, commit, or abort time).
    pub ts: Timestamp,
    /// Which malformed shape it exhibited.
    pub kind: SkipKind,
}

/// Malformed-log shapes found (and skipped) during recovery: per-shape
/// counts plus the first [`MAX_ANOMALY_SAMPLES`] offending frames.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryAnomalies {
    /// Second and later `Commit` events for an already-committed txn.
    pub duplicate_commits: usize,
    /// `Write` events appearing after their transaction's `Commit`.
    pub writes_after_commit: usize,
    /// Events whose transaction has no `Begin` in the log prefix.
    pub unknown_txn_events: usize,
    /// The first offending frames, capped at [`MAX_ANOMALY_SAMPLES`]
    /// (counts keep counting past the cap).
    pub samples: Vec<SkippedFrame>,
}

impl RecoveryAnomalies {
    /// True when the log contained none of the malformed shapes.
    pub fn is_clean(&self) -> bool {
        self.duplicate_commits == 0 && self.writes_after_commit == 0 && self.unknown_txn_events == 0
    }

    /// Total frames skipped (across all shapes; may exceed
    /// `samples.len()`).
    pub fn total(&self) -> usize {
        self.duplicate_commits + self.writes_after_commit + self.unknown_txn_events
    }

    fn note(&mut self, txn: TxnId, ts: Timestamp, kind: SkipKind) {
        match kind {
            SkipKind::DuplicateCommit => self.duplicate_commits += 1,
            SkipKind::WriteAfterCommit => self.writes_after_commit += 1,
            SkipKind::UnknownTxnEvent => self.unknown_txn_events += 1,
        }
        if self.samples.len() < MAX_ANOMALY_SAMPLES {
            self.samples.push(SkippedFrame { txn, ts, kind });
        }
    }
}

/// Summary of a recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit record survived and were redone.
    pub redone: usize,
    /// Transactions with logged writes but no surviving commit (rolled
    /// back by omission).
    pub rolled_back: usize,
    /// Versions installed.
    pub versions_installed: usize,
    /// Largest timestamp observed anywhere in the log (initiation,
    /// version, commit or abort). A recovered clock must start strictly
    /// above this so post-recovery timestamps never collide.
    pub high_water_mark: Timestamp,
    /// Malformed-log shapes found and skipped (all zero on clean logs).
    pub anomalies: RecoveryAnomalies,
}

/// Replay the committed writes of `events` into `store`.
///
/// `events` is the surviving log prefix; the store should already hold
/// the initial database image (seeded as at first boot). Malformed
/// events (see [`RecoveryAnomalies`]) are skipped and counted, never
/// replayed. The redo set is installed through one
/// [`MvStore::put_versions`] batch.
pub fn recover(store: &MvStore, events: &[ScheduleEvent]) -> RecoveryReport {
    use std::collections::HashSet;

    // Forward classification pass: which events are well-formed, which
    // transactions committed, and where the timestamp high-water mark is.
    let mut begun: HashSet<TxnId> = HashSet::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut anomalies = RecoveryAnomalies::default();
    let mut hwm = Timestamp::ZERO;
    // Indices of Write events eligible for redo, with their txn.
    let mut valid_writes: Vec<usize> = Vec::new();
    let mut valid_writers: HashSet<TxnId> = HashSet::new();

    for (i, ev) in events.iter().enumerate() {
        match ev {
            ScheduleEvent::Begin { txn, start_ts, .. } => {
                hwm = hwm.max(*start_ts);
                begun.insert(*txn);
            }
            ScheduleEvent::Read { txn, version, .. } => {
                if !begun.contains(txn) {
                    anomalies.note(*txn, *version, SkipKind::UnknownTxnEvent);
                }
            }
            ScheduleEvent::Write { txn, version, .. } => {
                hwm = hwm.max(*version);
                if !begun.contains(txn) {
                    anomalies.note(*txn, *version, SkipKind::UnknownTxnEvent);
                } else if committed.contains(txn) {
                    anomalies.note(*txn, *version, SkipKind::WriteAfterCommit);
                } else {
                    valid_writes.push(i);
                    valid_writers.insert(*txn);
                }
            }
            ScheduleEvent::Commit { txn, commit_ts } => {
                hwm = hwm.max(*commit_ts);
                if !begun.contains(txn) {
                    anomalies.note(*txn, *commit_ts, SkipKind::UnknownTxnEvent);
                } else if !committed.insert(*txn) {
                    anomalies.note(*txn, *commit_ts, SkipKind::DuplicateCommit);
                }
            }
            ScheduleEvent::Abort { txn, abort_ts } => {
                hwm = hwm.max(*abort_ts);
                if !begun.contains(txn) {
                    anomalies.note(*txn, *abort_ts, SkipKind::UnknownTxnEvent);
                }
            }
        }
    }

    // Redo pass over the well-formed writes of committed transactions,
    // batched into one put_versions call. Later log entries for the same
    // (granule, version) replace earlier ones inside the batch, matching
    // the old per-event remove-then-install behavior.
    let mut batch: Vec<VersionRecord> = Vec::with_capacity(valid_writes.len());
    for &i in &valid_writes {
        if let ScheduleEvent::Write {
            txn,
            granule,
            version,
            value,
        } = &events[i]
        {
            if committed.contains(txn) {
                batch.push(VersionRecord {
                    granule: *granule,
                    ts: *version,
                    value: value.clone(),
                    writer: *txn,
                });
            }
        }
    }
    let versions_installed = batch.len();
    store.put_versions(&batch);

    let redone = valid_writers
        .iter()
        .filter(|t| committed.contains(t))
        .count();
    let rolled_back = valid_writers.len() - redone;
    RecoveryReport {
        redone,
        rolled_back,
        versions_installed,
        high_water_mark: hwm,
        anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::{GranuleId, SegmentId, Timestamp, Value};

    fn g(key: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), key)
    }

    fn begin(t: u64, ts: u64) -> ScheduleEvent {
        ScheduleEvent::Begin {
            txn: TxnId(t),
            start_ts: Timestamp(ts),
            class: None,
        }
    }

    fn write(t: u64, key: u64, ts: u64, val: i64) -> ScheduleEvent {
        ScheduleEvent::Write {
            txn: TxnId(t),
            granule: g(key),
            version: Timestamp(ts),
            value: std::sync::Arc::new(Value::Int(val)),
        }
    }

    fn commit(t: u64, ts: u64) -> ScheduleEvent {
        ScheduleEvent::Commit {
            txn: TxnId(t),
            commit_ts: Timestamp(ts),
        }
    }

    #[test]
    fn committed_writes_redo_uncommitted_roll_back() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        store.seed(g(2), Value::Int(0));
        let events = vec![
            begin(1, 5),
            begin(2, 7),
            write(1, 1, 5, 10),
            commit(1, 6),
            write(2, 2, 7, 99), // crash before t2's commit
        ];
        let report = recover(&store, &events);
        assert_eq!(report.redone, 1);
        assert_eq!(report.rolled_back, 1);
        assert_eq!(report.versions_installed, 1);
        assert!(report.anomalies.is_clean());
        assert_eq!(report.high_water_mark, Timestamp(7));
        assert_eq!(store.latest_value(g(1)), Value::Int(10));
        assert_eq!(store.latest_value(g(2)), Value::Int(0));
    }

    #[test]
    fn self_overwrite_last_write_wins() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            begin(1, 5),
            write(1, 1, 5, 10),
            write(1, 1, 5, 20),
            commit(1, 6),
        ];
        let report = recover(&store, &events);
        assert_eq!(report.versions_installed, 2);
        assert!(report.anomalies.is_clean());
        assert_eq!(store.latest_value(g(1)), Value::Int(20));
    }

    #[test]
    fn version_history_survives_recovery() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            begin(1, 5),
            write(1, 1, 5, 10),
            commit(1, 6),
            begin(2, 8),
            write(2, 1, 8, 20),
            commit(2, 9),
        ];
        recover(&store, &events);
        // Multi-version reads still see the history.
        assert_eq!(store.value_as_of(g(1), Timestamp(8)), Value::Int(10));
        assert_eq!(store.value_as_of(g(1), Timestamp(9)), Value::Int(20));
        assert_eq!(store.value_as_of(g(1), Timestamp(5)), Value::Int(0));
    }

    #[test]
    fn empty_log_is_a_clean_boot() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(7));
        let report = recover(&store, &[]);
        assert_eq!(
            report,
            RecoveryReport {
                redone: 0,
                rolled_back: 0,
                versions_installed: 0,
                high_water_mark: Timestamp::ZERO,
                anomalies: RecoveryAnomalies::default(),
            }
        );
        assert_eq!(store.latest_value(g(1)), Value::Int(7));
    }

    #[test]
    fn duplicate_commit_is_counted_once_not_replayed_twice() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            begin(1, 5),
            write(1, 1, 5, 10),
            commit(1, 6),
            commit(1, 6), // duplicated by a corrupt writer
        ];
        let report = recover(&store, &events);
        assert_eq!(report.anomalies.duplicate_commits, 1);
        assert_eq!(report.redone, 1);
        assert_eq!(report.versions_installed, 1);
        assert_eq!(store.latest_value(g(1)), Value::Int(10));
        // The payload satellite: the dropped frame itself is retained.
        assert_eq!(
            report.anomalies.samples,
            vec![SkippedFrame {
                txn: TxnId(1),
                ts: Timestamp(6),
                kind: SkipKind::DuplicateCommit,
            }]
        );
    }

    #[test]
    fn write_after_commit_is_skipped() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            begin(1, 5),
            write(1, 1, 5, 10),
            commit(1, 6),
            write(1, 1, 7, 666), // past its own commit: must not be redone
        ];
        let report = recover(&store, &events);
        assert_eq!(report.anomalies.writes_after_commit, 1);
        assert_eq!(report.versions_installed, 1);
        assert_eq!(store.latest_value(g(1)), Value::Int(10));
        // The skipped write's timestamp still raises the high-water mark:
        // a new clock must clear even fabricated timestamps.
        assert_eq!(report.high_water_mark, Timestamp(7));
        assert_eq!(
            report.anomalies.samples,
            vec![SkippedFrame {
                txn: TxnId(1),
                ts: Timestamp(7),
                kind: SkipKind::WriteAfterCommit,
            }]
        );
    }

    #[test]
    fn unknown_txn_events_are_counted_and_skipped() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            write(9, 1, 5, 123), // no Begin for t9 anywhere
            commit(9, 6),
            ScheduleEvent::Abort {
                txn: TxnId(8),
                abort_ts: Timestamp(4),
            },
        ];
        let report = recover(&store, &events);
        assert_eq!(report.anomalies.unknown_txn_events, 3);
        assert_eq!(report.redone, 0);
        assert_eq!(report.versions_installed, 0);
        assert!(!report.anomalies.is_clean());
        assert_eq!(report.anomalies.total(), 3);
        assert_eq!(store.latest_value(g(1)), Value::Int(0));
        // All three offenders retained, in log order, with their ids.
        let txns: Vec<u64> = report.anomalies.samples.iter().map(|s| s.txn.0).collect();
        assert_eq!(txns, vec![9, 9, 8]);
        assert!(report
            .anomalies
            .samples
            .iter()
            .all(|s| s.kind == SkipKind::UnknownTxnEvent));
    }

    #[test]
    fn anomaly_samples_cap_but_counts_keep_counting() {
        let store = MvStore::new();
        let events: Vec<ScheduleEvent> = (0..MAX_ANOMALY_SAMPLES as u64 + 4)
            .map(|i| commit(100 + i, i)) // all unknown txns
            .collect();
        let report = recover(&store, &events);
        assert_eq!(report.anomalies.unknown_txn_events, MAX_ANOMALY_SAMPLES + 4);
        assert_eq!(report.anomalies.samples.len(), MAX_ANOMALY_SAMPLES);
        assert_eq!(report.anomalies.samples[0].txn, TxnId(100));
    }

    #[test]
    fn high_water_mark_covers_every_timestamp_field() {
        let store = MvStore::new();
        store.seed(g(1), Value::Int(0));
        let events = vec![
            begin(1, 3),
            write(1, 1, 3, 1),
            commit(1, 11),
            begin(2, 4),
            ScheduleEvent::Abort {
                txn: TxnId(2),
                abort_ts: Timestamp(15),
            },
        ];
        let report = recover(&store, &events);
        assert_eq!(report.high_water_mark, Timestamp(15));
    }
}
