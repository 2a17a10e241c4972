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
}

/// The shared `Absent` payload served for never-written granules.
fn absent() -> Arc<Value> {
    static ABSENT: std::sync::OnceLock<Arc<Value>> = std::sync::OnceLock::new();
    Arc::clone(ABSENT.get_or_init(|| Arc::new(Value::Absent)))
}

/// A granule's versions, ordered by write timestamp.
///
/// The newest version sits inline, so a one-version chain — nearly every
/// chain in a store — is read, written and committed without leaving the
/// map entry. Older versions go in `older`, whose buffer survives
/// [`prune_before`](Self::prune_before): a hot chain pruned back to one
/// version reuses it instead of freeing and regrowing it.
#[derive(Debug, Default, Clone)]
pub struct VersionChain {
    /// The version with the largest `ts`; `None` only on an empty chain.
    newest: Option<Version>,
    /// Every other version, sorted ascending by `ts`.
    older: Vec<Version>,
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
        VersionChain {
            newest: Some(Version {
                ts: Timestamp::ZERO,
                value: Arc::new(value),
                writer: TxnId(0),
                committed: true,
                rts: Timestamp::ZERO,
            }),
            ..Self::default()
        }
    }

    /// All versions, ascending by ts (`.rev()` walks newest first).
    /// Exposed for checkers and tests.
    pub fn versions(&self) -> impl DoubleEndedIterator<Item = &Version> {
        self.older.iter().chain(&self.newest)
    }

    fn versions_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut Version> {
        self.older.iter_mut().chain(&mut self.newest)
    }

    /// Number of versions currently held.
    pub fn len(&self) -> usize {
        self.older.len() + usize::from(self.newest.is_some())
    }

    /// True when the chain holds no versions.
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// The version with write timestamp `ts`, if present.
    fn at_mut(&mut self, ts: Timestamp) -> Option<&mut Version> {
        match &mut self.newest {
            Some(v) if v.ts == ts => Some(v),
            _ => {
                let i = self.older.binary_search_by_key(&ts, |v| v.ts).ok()?;
                Some(&mut self.older[i])
            }
        }
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
        let v = Version {
            ts,
            value,
            writer,
            committed,
            rts: Timestamp::ZERO,
        };
        match &mut self.newest {
            None => self.newest = Some(v),
            Some(newest) if newest.ts < ts => self.older.push(std::mem::replace(newest, v)),
            Some(newest) if newest.ts == ts => return false,
            Some(_) => match self.older.binary_search_by_key(&ts, |v| v.ts) {
                Ok(_) => return false,
                Err(i) => self.older.insert(i, v),
            },
        }
        true
    }

    /// The latest *committed* version with `ts < bound`. This is the
    /// paper's version-selection rule for Protocols A and C.
    pub fn latest_committed_before(&self, bound: Timestamp) -> Option<&Version> {
        self.versions()
            .rev()
            .filter(|v| v.ts < bound)
            .find(|v| v.committed)
    }

    /// The latest committed version, regardless of timestamp.
    pub fn latest_committed(&self) -> Option<&Version> {
        self.versions().rev().find(|v| v.committed)
    }

    /// The latest version (committed or pending).
    pub fn latest(&self) -> Option<&Version> {
        self.newest.as_ref()
    }

    /// The version written by `writer`, if present (own-writes lookup).
    pub fn version_by_writer(&self, writer: TxnId) -> Option<&Version> {
        self.versions().rev().find(|v| v.writer == writer)
    }

    /// MVTO read at transaction timestamp `ts`: select the latest version
    /// with write ts `< ts` (pending versions *block* rather than being
    /// skipped — skipping one would let the reader miss a write it must be
    /// ordered after); record `rts`.
    pub fn mvto_read(&mut self, ts: Timestamp) -> MvtoReadResult {
        let candidate = self.versions_mut().rev().find(|v| v.ts < ts);
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
        match self.versions().rev().find(|v| v.ts < bound) {
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
        if let Some(v) = self.at_mut(ts) {
            debug_assert_eq!(v.writer, writer);
            v.value = value;
            return MvtoWriteResult::Installed;
        }
        let conflicting_rts = self
            .versions()
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
        if self.newest.as_ref().is_some_and(|v| v.ts == ts) {
            self.newest = self.older.pop();
        } else if let Ok(i) = self.older.binary_search_by_key(&ts, |v| v.ts) {
            self.older.remove(i);
        }
    }

    /// Mark all versions written by `writer` as committed.
    pub fn commit_writer(&mut self, writer: TxnId) {
        for v in self.versions_mut() {
            if v.writer == writer {
                v.committed = true;
            }
        }
    }

    /// Remove all pending versions written by `writer` (abort cleanup).
    pub fn remove_writer_pending(&mut self, writer: TxnId) {
        self.older.retain(|v| v.writer != writer || v.committed);
        if self
            .newest
            .as_ref()
            .is_some_and(|v| v.writer == writer && !v.committed)
        {
            self.newest = self.older.pop();
        }
    }

    /// Garbage-collect: drop committed versions with `ts < wm`, except the
    /// latest such version (still needed as the snapshot below `wm`).
    /// Pending versions are never dropped. Returns versions reclaimed.
    pub fn prune_before(&mut self, wm: Timestamp) -> usize {
        let before = self.older.len();
        if self
            .newest
            .as_ref()
            .is_some_and(|v| v.committed && v.ts < wm)
        {
            // The newest is the snapshot kept; every older committed
            // version lies below it, so below `wm`.
            self.older.retain(|v| !v.committed);
        } else {
            // Keep the last committed version with ts < wm, if any.
            let Some(keep) = self.older.iter().rposition(|v| v.committed && v.ts < wm) else {
                return 0;
            };
            let mut i = 0;
            self.older.retain(|v| {
                i += 1;
                !(v.committed && v.ts < wm) || i - 1 == keep
            });
        }
        before - self.older.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Seeded generator for the differential scripts here and in `store`.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

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
        let tss: Vec<u64> = c.versions().map(|v| v.ts.raw()).collect();
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
        assert_eq!(c.versions().next().unwrap().rts, Timestamp(10));
        // Older read does not lower rts.
        c.mvto_read(Timestamp(5));
        assert_eq!(c.versions().next().unwrap().rts, Timestamp(10));

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
        assert!(!c.latest().unwrap().committed);
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
        assert!(c.latest().unwrap().committed);

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
        assert!(c.versions().all(|v| v.rts == Timestamp::ZERO));
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
        let tss: Vec<u64> = c.versions().map(|v| v.ts.raw()).collect();
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

    #[test]
    fn prune_keeps_the_older_buffer() {
        let mut c = VersionChain::seeded(Value::Int(0));
        for ts in 1..=3 {
            c.install(Timestamp(ts), Arc::new(Value::Int(1)), TxnId(ts), true);
        }
        let capacity = c.older.capacity();
        assert_eq!(c.prune_before(Timestamp::MAX), 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.older.capacity(), capacity, "the buffer outlives a prune");
    }

    /// The chain as one plain ascending `Vec`: every operation written
    /// the obvious way, with no inline newest version. The differential
    /// below holds `VersionChain` to it.
    #[derive(Default)]
    struct RefChain(Vec<Version>);

    impl RefChain {
        fn install(
            &mut self,
            ts: Timestamp,
            value: Arc<Value>,
            writer: TxnId,
            committed: bool,
        ) -> bool {
            match self.0.binary_search_by_key(&ts, |v| v.ts) {
                Ok(_) => false,
                Err(i) => {
                    let rts = Timestamp::ZERO;
                    self.0.insert(
                        i,
                        Version {
                            ts,
                            value,
                            writer,
                            committed,
                            rts,
                        },
                    );
                    true
                }
            }
        }

        fn below(&self, ts: Timestamp) -> Option<&Version> {
            self.0.iter().rev().find(|v| v.ts < ts)
        }

        fn served(v: Option<&Version>) -> MvtoReadResult {
            match v {
                Some(v) if !v.committed => MvtoReadResult::BlockOn(v.writer),
                Some(v) => MvtoReadResult::Value {
                    value: Arc::clone(&v.value),
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

        fn mvto_read(&mut self, ts: Timestamp) -> MvtoReadResult {
            let out = Self::served(self.below(ts));
            if let MvtoReadResult::Value { version, .. } = out {
                if let Some(v) = self.0.iter_mut().find(|v| v.ts == version) {
                    v.rts = v.rts.max(ts);
                }
            }
            out
        }

        fn mvto_write(
            &mut self,
            ts: Timestamp,
            value: Arc<Value>,
            writer: TxnId,
        ) -> MvtoWriteResult {
            if let Some(v) = self.0.iter_mut().find(|v| v.ts == ts) {
                v.value = value;
                return MvtoWriteResult::Installed;
            }
            if self.below(ts).is_some_and(|v| v.rts > ts) {
                return MvtoWriteResult::Rejected;
            }
            self.install(ts, value, writer, false);
            MvtoWriteResult::Installed
        }

        fn prune_before(&mut self, wm: Timestamp) -> usize {
            let Some(keep) = self.0.iter().rposition(|v| v.committed && v.ts < wm) else {
                return 0;
            };
            let keep = self.0[keep].ts;
            let before = self.0.len();
            self.0
                .retain(|v| !(v.committed && v.ts < wm) || v.ts == keep);
            before - self.0.len()
        }
    }

    type View = Vec<(u64, Value, u64, bool, u64)>;

    fn view<'a>(versions: impl Iterator<Item = &'a Version>) -> View {
        versions
            .map(|v| {
                (
                    v.ts.raw(),
                    (*v.value).clone(),
                    v.writer.0,
                    v.committed,
                    v.rts.raw(),
                )
            })
            .collect()
    }

    /// Every query answered alike, at every bound the script can reach.
    fn assert_same_answers(c: &VersionChain, r: &RefChain, ctx: &str) {
        let ts_of = |v: Option<&Version>| v.map(|v| v.ts);
        assert_eq!(view(c.versions()), view(r.0.iter()), "{ctx}: versions");
        assert_eq!(c.len(), r.0.len(), "{ctx}: len");
        assert_eq!(ts_of(c.latest()), ts_of(r.0.last()), "{ctx}: latest");
        let latest_committed = r.0.iter().rev().find(|v| v.committed);
        assert_eq!(
            ts_of(c.latest_committed()),
            ts_of(latest_committed),
            "{ctx}"
        );
        for bound in (0..=MAX_TS + 1).map(Timestamp) {
            let committed = r.0.iter().rev().find(|v| v.ts < bound && v.committed);
            assert_eq!(
                ts_of(c.latest_committed_before(bound)),
                ts_of(committed),
                "{ctx}: {bound:?}"
            );
            assert_eq!(
                c.read_before_unregistered(bound),
                RefChain::served(r.below(bound)),
                "{ctx}: unregistered read below {bound:?}"
            );
        }
        for w in 0..=WRITERS {
            let by = r.0.iter().rev().find(|v| v.writer == TxnId(w));
            assert_eq!(
                ts_of(c.version_by_writer(TxnId(w))),
                ts_of(by),
                "{ctx}: writer {w}"
            );
        }
    }

    const MAX_TS: u64 = 40;
    const WRITERS: u64 = 7;

    /// A version's writer is a function of its timestamp, as under MVTO
    /// (the seed's is `t0`), and several timestamps share one, so a
    /// writer spans versions.
    fn writer_of(ts: Timestamp) -> TxnId {
        TxnId(ts.raw() % (WRITERS + 1))
    }

    /// A timestamp that is the newest version's, an older version's, or
    /// any at all, each a third of the time.
    fn pick_ts(rng: &mut SplitMix64, r: &RefChain) -> Timestamp {
        match (rng.below(3), r.0.len()) {
            (0, n) if n > 0 => r.0[n - 1].ts,
            (1, n) if n > 1 => r.0[rng.below(n as u64 - 1) as usize].ts,
            _ => Timestamp(rng.below(MAX_TS + 1)),
        }
    }

    #[test]
    fn chain_matches_a_plain_vec_on_200_seeded_scripts() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64(seed);
            let (mut c, mut r) = (VersionChain::new(), RefChain::default());
            if rng.below(2) == 0 {
                c = VersionChain::seeded(Value::Int(-1));
                r.install(Timestamp::ZERO, Arc::new(Value::Int(-1)), TxnId(0), true);
            }
            for step in 0..120 {
                let ctx = format!("seed {seed} step {step}");
                let value = Arc::new(Value::Int(rng.below(1000) as i64));
                match rng.below(10) {
                    // Out-of-order install, duplicates included.
                    0 => {
                        let ts = Timestamp(rng.below(MAX_TS + 1));
                        let committed = rng.below(2) == 0;
                        let (w, v) = (writer_of(ts), Arc::clone(&value));
                        assert_eq!(
                            c.install(ts, v, w, committed),
                            r.install(ts, value, w, committed),
                            "{ctx}"
                        );
                    }
                    // Fresh writes, rewrites of the newest or an older
                    // version, and rejections by a younger read.
                    1 | 2 => {
                        let ts = pick_ts(&mut rng, &r);
                        let (w, v) = (writer_of(ts), Arc::clone(&value));
                        assert_eq!(c.mvto_write(ts, v, w), r.mvto_write(ts, value, w), "{ctx}");
                    }
                    3 => {
                        let ts = Timestamp(rng.below(MAX_TS + 2));
                        assert_eq!(c.mvto_read(ts), r.mvto_read(ts), "{ctx}: read at {ts:?}");
                    }
                    4 => {
                        let w = TxnId(rng.below(WRITERS + 1));
                        c.commit_writer(w);
                        r.0.iter_mut()
                            .filter(|v| v.writer == w)
                            .for_each(|v| v.committed = true);
                    }
                    // Abort cleanup, aimed at a pending newest version
                    // half the time.
                    5 => {
                        let w = match r.0.last() {
                            Some(v) if rng.below(2) == 0 => v.writer,
                            _ => TxnId(rng.below(WRITERS + 1)),
                        };
                        c.remove_writer_pending(w);
                        r.0.retain(|v| v.writer != w || v.committed);
                    }
                    6 => {
                        let ts = pick_ts(&mut rng, &r);
                        c.remove_version_at(ts);
                        r.0.retain(|v| v.ts != ts);
                    }
                    // Prune where the kept version is the newest, an
                    // older one, or absent.
                    _ => {
                        let wm = match rng.below(4) {
                            0 => Timestamp::MAX,
                            1 => Timestamp::ZERO,
                            _ => pick_ts(&mut rng, &r).succ(),
                        };
                        assert_eq!(
                            c.prune_before(wm),
                            r.prune_before(wm),
                            "{ctx}: prune at {wm:?}"
                        );
                    }
                }
                assert_same_answers(&c, &r, &ctx);
            }
        }
    }
}
