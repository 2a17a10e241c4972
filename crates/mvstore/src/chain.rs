//! Per-granule version chains with MVTO and basic-TSO rules.
//!
//! A [`VersionChain`] holds a granule's versions ordered by write
//! timestamp. Versions may be *pending* (created by an uncommitted
//! transaction); a pending version becomes visible to other transactions
//! only after [`VersionChain::commit_writer`]. The chain implements:
//!
//! * **snapshot reads** — "the version `d^0` such that `TS(d^0)` =
//!   `Max(TS(d^v))` for all `v` such that `TS(d^v) < bound`" — the exact
//!   version-selection rule of the paper's Protocols A and C;
//! * **MVTO** (Reed 78) read/write rules with per-version read timestamps;
//! * **basic TSO** bookkeeping: a granule-level max read timestamp.
//!
//! Chains also expose pruning for time-wall-driven garbage collection.

use std::sync::Arc;
use txn_model::{Timestamp, TxnId, Value};

/// One version of a granule.
#[derive(Debug, Clone)]
pub struct Version {
    /// Write timestamp `TS(d^v)` — the initiation time of the creating
    /// transaction under timestamp ordering, or the commit sequence number
    /// under locking protocols. Unique within a chain.
    pub ts: Timestamp,
    /// The value (shared with readers and the schedule log: serving a
    /// committed read bumps a reference count, never copies the payload).
    pub value: Arc<Value>,
    /// Creating transaction.
    pub writer: TxnId,
    /// Whether the creating transaction has committed.
    pub committed: bool,
    /// Largest timestamp of any transaction that read this version
    /// (MVTO bookkeeping; stays `ZERO` for unregistered HDD reads).
    pub rts: Timestamp,
}

/// Outcome of an MVTO read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MvtoReadResult {
    /// Read served: value plus the version's identity (ts, writer).
    Value {
        /// The version's value (shared, not copied).
        value: Arc<Value>,
        /// The version's write timestamp.
        version: Timestamp,
        /// The version's creator.
        writer: TxnId,
    },
    /// The selected version is pending; the reader must wait for its
    /// writer to commit or abort.
    BlockOn(TxnId),
}

/// Outcome of an MVTO write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvtoWriteResult {
    /// Version installed (pending until `commit_writer`).
    Installed,
    /// Rejected: some transaction with a later timestamp already read the
    /// version this write would have to be ordered after — installing
    /// would invalidate that read (Reed's rejection rule).
    Rejected,
    /// The write must wait (basic-TO single-version mode only: an older
    /// uncommitted write occupies the granule).
    Blocked,
}

/// The shared `Absent` payload served for never-written granules.
fn absent() -> Arc<Value> {
    static ABSENT: std::sync::OnceLock<Arc<Value>> = std::sync::OnceLock::new();
    Arc::clone(ABSENT.get_or_init(|| Arc::new(Value::Absent)))
}

/// A granule's versions, ordered by write timestamp.
#[derive(Debug, Default, Clone)]
pub struct VersionChain {
    /// Sorted ascending by `ts`.
    versions: Vec<Version>,
    /// Granule-level max read timestamp (basic single-version TSO).
    pub max_rts: Timestamp,
    /// Whether the owning store shard's GC queue names this chain.
    /// Maintained by `MvStore` under the shard mutex; meaningless on a
    /// chain outside a store.
    pub(crate) gc_queued: bool,
}

impl VersionChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain seeded with one committed initial version at
    /// [`Timestamp::ZERO`] written by the virtual initial transaction.
    pub fn seeded(value: Value) -> Self {
        let mut c = Self::new();
        c.versions.push(Version {
            ts: Timestamp::ZERO,
            value: Arc::new(value),
            writer: TxnId(0),
            committed: true,
            rts: Timestamp::ZERO,
        });
        c
    }

    /// All versions (ascending by ts). Exposed for checkers and tests.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Number of versions currently held.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when the chain holds no versions.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    fn insertion_point(&self, ts: Timestamp) -> Result<usize, usize> {
        self.versions.binary_search_by_key(&ts, |v| v.ts)
    }

    /// Install a version with write timestamp `ts`. Returns `false` if a
    /// version with this timestamp already exists (caller bug under
    /// unique-timestamp protocols).
    pub fn install(
        &mut self,
        ts: Timestamp,
        value: Arc<Value>,
        writer: TxnId,
        committed: bool,
    ) -> bool {
        match self.insertion_point(ts) {
            Ok(_) => false,
            Err(i) => {
                self.versions.insert(
                    i,
                    Version {
                        ts,
                        value,
                        writer,
                        committed,
                        rts: Timestamp::ZERO,
                    },
                );
                true
            }
        }
    }

    /// The latest *committed* version with `ts < bound`. This is the
    /// paper's version-selection rule for Protocols A and C.
    pub fn latest_committed_before(&self, bound: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .filter(|v| v.ts < bound)
            .find(|v| v.committed)
    }

    /// The latest committed version, regardless of timestamp.
    pub fn latest_committed(&self) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.committed)
    }

    /// The latest version (committed or pending).
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// The version written by `writer`, if present (own-writes lookup).
    pub fn version_by_writer(&self, writer: TxnId) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.writer == writer)
    }

    /// MVTO read at transaction timestamp `ts`: select the latest version
    /// with write ts `< ts` (pending versions *block* rather than being
    /// skipped — skipping one would let the reader miss a write it must be
    /// ordered after); record `rts`.
    pub fn mvto_read(&mut self, ts: Timestamp) -> MvtoReadResult {
        let candidate = self.versions.iter_mut().rev().find(|v| v.ts < ts);
        match candidate {
            Some(v) if !v.committed => MvtoReadResult::BlockOn(v.writer),
            Some(v) => {
                if ts > v.rts {
                    v.rts = ts;
                }
                MvtoReadResult::Value {
                    value: v.value.clone(),
                    version: v.ts,
                    writer: v.writer,
                }
            }
            // No version before ts at all: serve the absent value as the
            // implicit initial version (chains are normally seeded, so
            // this arises only for never-seeded granules).
            None => MvtoReadResult::Value {
                value: absent(),
                version: Timestamp::ZERO,
                writer: TxnId(0),
            },
        }
    }

    /// MVTO read *without* registering a read timestamp. Used by HDD
    /// Protocol A/C, where the version bound already guarantees no future
    /// writer can invalidate the read. Does not block: the bound only
    /// admits committed versions by construction, but if a pending version
    /// is selected (mis-use), it blocks like `mvto_read`.
    pub fn read_before_unregistered(&self, bound: Timestamp) -> MvtoReadResult {
        match self.versions.iter().rev().find(|v| v.ts < bound) {
            Some(v) if !v.committed => MvtoReadResult::BlockOn(v.writer),
            Some(v) => MvtoReadResult::Value {
                value: v.value.clone(),
                version: v.ts,
                writer: v.writer,
            },
            None => MvtoReadResult::Value {
                value: absent(),
                version: Timestamp::ZERO,
                writer: TxnId(0),
            },
        }
    }

    /// MVTO write at transaction timestamp `ts`: let `v` be the latest
    /// version with write ts `< ts`; if `v.rts > ts`, a younger
    /// transaction already read `v` and would be invalidated — reject.
    /// Otherwise install a pending version at `ts`.
    pub fn mvto_write(
        &mut self,
        ts: Timestamp,
        value: Arc<Value>,
        writer: TxnId,
    ) -> MvtoWriteResult {
        // Re-writes by the same transaction overwrite its pending version.
        if let Ok(i) = self.insertion_point(ts) {
            debug_assert_eq!(self.versions[i].writer, writer);
            self.versions[i].value = value;
            return MvtoWriteResult::Installed;
        }
        let conflicting_rts = self
            .versions
            .iter()
            .rev()
            .find(|v| v.ts < ts)
            .map_or(Timestamp::ZERO, |v| v.rts);
        if conflicting_rts > ts {
            return MvtoWriteResult::Rejected;
        }
        let installed = self.install(ts, value, writer, false);
        debug_assert!(installed);
        MvtoWriteResult::Installed
    }

    /// Remove the version with write timestamp `ts`, if present (redo
    /// replay uses this so later log entries for the same version win).
    pub fn remove_version_at(&mut self, ts: Timestamp) {
        if let Ok(i) = self.insertion_point(ts) {
            self.versions.remove(i);
        }
    }

    /// Mark all versions written by `writer` as committed.
    pub fn commit_writer(&mut self, writer: TxnId) {
        for v in &mut self.versions {
            if v.writer == writer {
                v.committed = true;
            }
        }
    }

    /// Remove all pending versions written by `writer` (abort cleanup).
    pub fn remove_writer_pending(&mut self, writer: TxnId) {
        self.versions.retain(|v| v.writer != writer || v.committed);
    }

    /// Garbage-collect: drop committed versions with `ts < wm`, except the
    /// latest such version (still needed as the snapshot below `wm`).
    /// Pending versions are never dropped. Returns versions reclaimed.
    pub fn prune_before(&mut self, wm: Timestamp) -> usize {
        // Find the last committed version with ts < wm; keep it.
        let keep = self
            .versions
            .iter()
            .enumerate()
            .rev()
            .find(|(_, v)| v.committed && v.ts < wm)
            .map(|(i, _)| i);
        let Some(keep) = keep else { return 0 };
        let before = self.versions.len();
        let mut idx = 0;
        self.versions.retain(|v| {
            let i = idx;
            idx += 1;
            !(v.committed && v.ts < wm && i != keep)
        });
        before - self.versions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with(tss: &[(u64, i64, u64, bool)]) -> VersionChain {
        let mut c = VersionChain::new();
        for &(ts, val, writer, committed) in tss {
            assert!(c.install(
                Timestamp(ts),
                Arc::new(Value::Int(val)),
                TxnId(writer),
                committed
            ));
        }
        c
    }

    #[test]
    fn install_keeps_sorted_and_rejects_duplicates() {
        let mut c = chain_with(&[(5, 50, 1, true), (2, 20, 2, true), (9, 90, 3, true)]);
        let tss: Vec<u64> = c.versions().iter().map(|v| v.ts.raw()).collect();
        assert_eq!(tss, vec![2, 5, 9]);
        assert!(!c.install(Timestamp(5), Arc::new(Value::Int(0)), TxnId(9), true));
    }

    #[test]
    fn latest_committed_before_skips_pending_and_later() {
        let c = chain_with(&[(2, 20, 1, true), (5, 50, 2, false), (9, 90, 3, true)]);
        let v = c.latest_committed_before(Timestamp(10)).unwrap();
        assert_eq!(v.ts, Timestamp(9));
        let v = c.latest_committed_before(Timestamp(9)).unwrap();
        // ts=5 is pending, fall through to ts=2.
        assert_eq!(v.ts, Timestamp(2));
        assert!(c.latest_committed_before(Timestamp(2)).is_none());
    }

    #[test]
    fn seeded_chain_serves_initial_version() {
        let c = VersionChain::seeded(Value::Int(100));
        let v = c.latest_committed_before(Timestamp(1)).unwrap();
        assert_eq!(v.ts, Timestamp::ZERO);
        assert_eq!(*v.value, Value::Int(100));
        assert_eq!(v.writer, TxnId(0));
    }

    #[test]
    fn mvto_read_registers_rts_and_blocks_on_pending() {
        let mut c = VersionChain::seeded(Value::Int(1));
        assert_eq!(
            c.mvto_read(Timestamp(10)),
            MvtoReadResult::Value {
                value: Arc::new(Value::Int(1)),
                version: Timestamp::ZERO,
                writer: TxnId(0)
            }
        );
        assert_eq!(c.versions()[0].rts, Timestamp(10));
        // Older read does not lower rts.
        c.mvto_read(Timestamp(5));
        assert_eq!(c.versions()[0].rts, Timestamp(10));

        // Pending version in range blocks.
        c.install(Timestamp(7), Arc::new(Value::Int(7)), TxnId(3), false);
        assert_eq!(
            c.mvto_read(Timestamp(10)),
            MvtoReadResult::BlockOn(TxnId(3))
        );
    }

    #[test]
    fn mvto_write_rejected_by_younger_read() {
        let mut c = VersionChain::seeded(Value::Int(1));
        c.mvto_read(Timestamp(10)); // rts of v0 = 10
                                    // Writer with ts 5 would invalidate the ts-10 read of v0.
        assert_eq!(
            c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(2)),
            MvtoWriteResult::Rejected
        );
        // Writer with ts 11 is fine.
        assert_eq!(
            c.mvto_write(Timestamp(11), Arc::new(Value::Int(11)), TxnId(3)),
            MvtoWriteResult::Installed
        );
        assert!(!c.versions().last().unwrap().committed);
    }

    #[test]
    fn mvto_rewrite_by_same_txn_overwrites_pending() {
        let mut c = VersionChain::seeded(Value::Int(1));
        assert_eq!(
            c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(2)),
            MvtoWriteResult::Installed
        );
        assert_eq!(
            c.mvto_write(Timestamp(5), Arc::new(Value::Int(6)), TxnId(2)),
            MvtoWriteResult::Installed
        );
        assert_eq!(*c.version_by_writer(TxnId(2)).unwrap().value, Value::Int(6));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn commit_and_abort_cleanup() {
        let mut c = VersionChain::seeded(Value::Int(1));
        c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(2));
        c.commit_writer(TxnId(2));
        assert!(c.versions().last().unwrap().committed);

        c.mvto_write(Timestamp(8), Arc::new(Value::Int(8)), TxnId(3));
        c.remove_writer_pending(TxnId(3));
        assert_eq!(c.len(), 2);
        assert!(c.version_by_writer(TxnId(3)).is_none());
        // Committed versions are not removed by abort cleanup.
        c.remove_writer_pending(TxnId(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unregistered_read_leaves_no_rts() {
        let mut c = VersionChain::seeded(Value::Int(1));
        c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(2));
        c.commit_writer(TxnId(2));
        let r = c.read_before_unregistered(Timestamp(6));
        assert_eq!(
            r,
            MvtoReadResult::Value {
                value: Arc::new(Value::Int(5)),
                version: Timestamp(5),
                writer: TxnId(2)
            }
        );
        assert!(c.versions().iter().all(|v| v.rts == Timestamp::ZERO));
    }

    #[test]
    fn prune_keeps_snapshot_version_and_pending() {
        let mut c = chain_with(&[
            (1, 10, 1, true),
            (2, 20, 2, true),
            (3, 30, 3, true),
            (4, 40, 4, false), // pending
            (9, 90, 5, true),
        ]);
        // Watermark 4: committed versions <4 are {1,2,3}; keep ts=3.
        let reclaimed = c.prune_before(Timestamp(4));
        assert_eq!(reclaimed, 2);
        let tss: Vec<u64> = c.versions().iter().map(|v| v.ts.raw()).collect();
        assert_eq!(tss, vec![3, 4, 9]);
        // Snapshot below the watermark still served correctly.
        assert_eq!(
            c.latest_committed_before(Timestamp(4)).unwrap().ts,
            Timestamp(3)
        );
    }

    #[test]
    fn mvto_read_bound_is_strict() {
        let mut c = VersionChain::new();
        c.install(Timestamp(5), Arc::new(Value::Int(5)), TxnId(1), true);
        // A reader AT ts 5 must not see the ts-5 version (strict <).
        assert_eq!(
            c.mvto_read(Timestamp(5)),
            MvtoReadResult::Value {
                value: absent(),
                version: Timestamp::ZERO,
                writer: TxnId(0)
            }
        );
        assert!(matches!(
            c.mvto_read(Timestamp(6)),
            MvtoReadResult::Value { ref value, .. } if **value == Value::Int(5)
        ));
    }

    #[test]
    fn version_by_writer_returns_newest_of_that_writer() {
        let mut c = VersionChain::new();
        c.install(Timestamp(1), Arc::new(Value::Int(1)), TxnId(7), true);
        c.install(Timestamp(3), Arc::new(Value::Int(3)), TxnId(8), true);
        c.install(Timestamp(5), Arc::new(Value::Int(5)), TxnId(7), true);
        assert_eq!(c.version_by_writer(TxnId(7)).unwrap().ts, Timestamp(5));
        assert_eq!(c.version_by_writer(TxnId(8)).unwrap().ts, Timestamp(3));
        assert!(c.version_by_writer(TxnId(9)).is_none());
    }

    #[test]
    fn unregistered_read_blocks_on_misused_pending_bound() {
        let mut c = VersionChain::seeded(Value::Int(1));
        c.install(Timestamp(5), Arc::new(Value::Int(5)), TxnId(2), false);
        // A bound that admits the pending version blocks defensively.
        assert_eq!(
            c.read_before_unregistered(Timestamp(10)),
            MvtoReadResult::BlockOn(TxnId(2))
        );
        // A bound below it reads through.
        assert!(matches!(
            c.read_before_unregistered(Timestamp(5)),
            MvtoReadResult::Value { ref value, .. } if **value == Value::Int(1)
        ));
    }

    #[test]
    fn prune_with_only_pending_keeps_everything() {
        let mut c = VersionChain::new();
        c.install(Timestamp(1), Arc::new(Value::Int(1)), TxnId(1), false);
        c.install(Timestamp(2), Arc::new(Value::Int(2)), TxnId(2), false);
        assert_eq!(c.prune_before(Timestamp(10)), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prune_on_empty_or_all_newer_is_noop() {
        let mut c = VersionChain::new();
        assert_eq!(c.prune_before(Timestamp(5)), 0);
        c.install(Timestamp(9), Arc::new(Value::Int(9)), TxnId(1), true);
        assert_eq!(c.prune_before(Timestamp(5)), 0);
        assert_eq!(c.len(), 1);
    }
}
