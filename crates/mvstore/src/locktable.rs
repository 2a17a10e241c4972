//! Shared/exclusive lock table with FIFO waiters, upgrades, and waits-for
//! deadlock detection.
//!
//! Substrate for the two-phase-locking family of baselines (2PL, MV2PL and
//! the deliberately broken "2PL without read locks" of Figure 3). The
//! acquisition model is *polling*: [`LockTable::try_acquire`] either
//! grants, enqueues the caller (returning [`LockRequestResult::Waiting`]),
//! or reports a deadlock in which the **caller** is chosen as victim; the
//! driver retries waiting operations, and retries promote queue heads.

use parking_lot::Mutex;
use std::collections::VecDeque;
use txn_model::{GranuleId, IdMap, IdSet, TxnId};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockRequestResult {
    /// The lock is held by the caller on return.
    Granted,
    /// The caller is enqueued; retry later.
    Waiting,
    /// Granting would (transitively) create a waits-for cycle; the caller
    /// must abort and release everything it holds.
    Deadlock,
}

#[derive(Debug, Default)]
struct GranuleLock {
    /// Invariant: all-Shared, or exactly one Exclusive holder.
    holders: Vec<(TxnId, LockMode)>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl GranuleLock {
    fn holds(&self, t: TxnId) -> Option<LockMode> {
        self.holders.iter().find(|(h, _)| *h == t).map(|(_, m)| *m)
    }

    fn compatible_with_holders(&self, t: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(h, m)| *h == t || m.compatible(mode))
    }

    /// Grant queued waiters from the head while compatible.
    fn promote(&mut self) {
        while let Some(&(t, mode)) = self.waiters.front() {
            if self.compatible_with_holders(t, mode) {
                self.waiters.pop_front();
                // Upgrade: replace existing shared hold.
                self.holders.retain(|(h, _)| *h != t);
                self.holders.push((t, mode));
            } else {
                break;
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    locks: IdMap<GranuleId, GranuleLock>,
    /// Granules each transaction holds or waits on (release index).
    touched: IdMap<TxnId, IdSet<GranuleId>>,
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    inner: Mutex<Inner>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `mode` on `g` for `txn`. See module docs for semantics.
    pub fn try_acquire(&self, txn: TxnId, g: GranuleId, mode: LockMode) -> LockRequestResult {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let lock = inner.locks.entry(g).or_default();
        inner.touched.entry(txn).or_default().insert(g);

        // Promotion pass: a retry may find itself grantable now.
        lock.promote();

        if let Some(held) = lock.holds(txn) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                // Already strong enough; drop any stale waiter entry.
                lock.waiters.retain(|(t, _)| *t != txn);
                return LockRequestResult::Granted;
            }
            // Upgrade S → X.
            if lock.holders.len() == 1 {
                lock.holders[0].1 = LockMode::Exclusive;
                lock.waiters.retain(|(t, _)| *t != txn);
                return LockRequestResult::Granted;
            }
            // Enqueue the upgrade at the front (standard upgrade priority).
            if !lock.waiters.iter().any(|(t, _)| *t == txn) {
                lock.waiters.push_front((txn, LockMode::Exclusive));
            }
        } else if lock.waiters.iter().any(|(t, _)| *t == txn) {
            // Already queued; promotion above didn't reach us.
        } else if lock.waiters.is_empty() && lock.compatible_with_holders(txn, mode) {
            lock.holders.push((txn, mode));
            return LockRequestResult::Granted;
        } else {
            lock.waiters.push_back((txn, mode));
        }

        // Waits-for cycle check with the caller as potential victim.
        if Self::in_cycle(inner, txn) {
            // Remove the caller's waiter entries; caller will abort.
            if let Some(l) = inner.locks.get_mut(&g) {
                l.waiters.retain(|(t, _)| *t != txn);
            }
            return LockRequestResult::Deadlock;
        }
        LockRequestResult::Waiting
    }

    /// True iff `start` can reach itself in the waits-for graph.
    ///
    /// A waiter waits on (a) every incompatible holder of the awaited
    /// granule and (b) every waiter **ahead of it** in the FIFO queue —
    /// grants only happen from the head, so an earlier waiter blocks a
    /// later one regardless of mode compatibility. Omitting (b) leaves
    /// queue-mediated deadlocks (e.g. an X waiter wedged between two
    /// S-holders that wait on each other through other granules)
    /// undetected forever.
    fn in_cycle(inner: &Inner, start: TxnId) -> bool {
        // Build edges lazily during DFS.
        let waits_for = |t: TxnId| -> Vec<TxnId> {
            let mut out = Vec::new();
            for lock in inner.locks.values() {
                if let Some(pos) = lock.waiters.iter().position(|(w, _)| *w == t) {
                    let mode = lock.waiters[pos].1;
                    for &(h, hm) in &lock.holders {
                        if h != t && !hm.compatible(mode) {
                            out.push(h);
                        }
                    }
                    for &(w, _) in lock.waiters.iter().take(pos) {
                        if w != t {
                            out.push(w);
                        }
                    }
                }
            }
            out
        };
        let mut visited = IdSet::default();
        let mut stack = waits_for(start);
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if visited.insert(t) {
                stack.extend(waits_for(t));
            }
        }
        false
    }

    /// Release every lock and waiter entry of `txn`, promoting waiters.
    pub fn release_all(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if let Some(gs) = inner.touched.remove(&txn) {
            for g in gs {
                if let Some(lock) = inner.locks.get_mut(&g) {
                    lock.holders.retain(|(h, _)| *h != txn);
                    lock.waiters.retain(|(w, _)| *w != txn);
                    lock.promote();
                    if lock.holders.is_empty() && lock.waiters.is_empty() {
                        inner.locks.remove(&g);
                    }
                }
            }
        }
    }

    /// Number of granules currently locked (tests/diagnostics).
    pub fn locked_granules(&self) -> usize {
        self.inner.lock().locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::SegmentId;
    use LockMode::*;
    use LockRequestResult::*;

    fn g(key: u64) -> GranuleId {
        GranuleId::new(SegmentId(0), key)
    }

    #[test]
    fn shared_locks_coexist() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Shared), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Granted);
    }

    #[test]
    fn exclusive_blocks_and_releases() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Waiting);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Waiting);
        lt.release_all(TxnId(1));
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Granted);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Shared), Granted);
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Shared), Granted);
        // Sole holder upgrades in place.
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Granted);
        // X holder asking for S is a no-op grant.
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Shared), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Waiting);
    }

    #[test]
    fn fifo_fairness() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Waiting);
        assert_eq!(lt.try_acquire(TxnId(3), g(0), Exclusive), Waiting);
        lt.release_all(TxnId(1));
        // t3 retries first but t2 is ahead in the queue.
        assert_eq!(lt.try_acquire(TxnId(3), g(0), Exclusive), Waiting);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Granted);
    }

    #[test]
    fn classic_two_txn_deadlock() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(1), Exclusive), Granted);
        assert_eq!(lt.try_acquire(TxnId(1), g(1), Exclusive), Waiting);
        // t2 closing the cycle is the victim.
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Deadlock);
        lt.release_all(TxnId(2));
        assert_eq!(lt.try_acquire(TxnId(1), g(1), Exclusive), Granted);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Shared), Granted);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Shared), Granted);
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Waiting);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Deadlock);
        lt.release_all(TxnId(2));
        assert_eq!(lt.try_acquire(TxnId(1), g(0), Exclusive), Granted);
    }

    #[test]
    fn queue_mediated_deadlock_detected() {
        // Regression for the E10 livelock: the cycle runs through a
        // FIFO-queue predecessor, not only through holders.
        //   g1: A holds S; B waits X (on A); C waits S (behind B).
        //   g2: C holds S; A requests X (waits on C).
        // Cycle: A →(holder) C →(queue-ahead) B →(holder) A.
        let lt = LockTable::new();
        let (a, b, c) = (TxnId(1), TxnId(2), TxnId(3));
        assert_eq!(lt.try_acquire(a, g(1), Shared), Granted);
        assert_eq!(lt.try_acquire(c, g(2), Shared), Granted);
        assert_eq!(lt.try_acquire(b, g(1), Exclusive), Waiting);
        assert_eq!(lt.try_acquire(c, g(1), Shared), Waiting); // queued behind B
                                                              // A closing the cycle must be told, not left waiting forever.
        assert_eq!(lt.try_acquire(a, g(2), Exclusive), Deadlock);
        lt.release_all(a);
        // The remaining waiters drain.
        assert_eq!(lt.try_acquire(b, g(1), Exclusive), Granted);
        lt.release_all(b);
        assert_eq!(lt.try_acquire(c, g(1), Shared), Granted);
    }

    #[test]
    fn release_cleans_table() {
        let lt = LockTable::new();
        lt.try_acquire(TxnId(1), g(0), Shared);
        lt.try_acquire(TxnId(1), g(1), Exclusive);
        assert_eq!(lt.locked_granules(), 2);
        lt.release_all(TxnId(1));
        assert_eq!(lt.locked_granules(), 0);
    }

    #[test]
    fn waiter_promoted_on_retry_after_release() {
        let lt = LockTable::new();
        lt.try_acquire(TxnId(1), g(0), Exclusive);
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Waiting);
        lt.release_all(TxnId(1));
        assert_eq!(lt.try_acquire(TxnId(2), g(0), Exclusive), Granted);
    }
}
