//! Time walls (Section 5.1–5.2): consistent per-segment version bounds
//! for ad-hoc read-only transactions.
//!
//! A time wall `TW(m, s)` is the vector of `E_s^i(m)` over all classes
//! `i`. Theorem 2: a read-only transaction that reads, from every segment
//! `D_i`, the latest version before `E_s^i(m)` observes a consistent
//! database state and induces no dependency-graph cycle.
//!
//! [`TimeWallService`] implements the paper's release protocol
//! (Section 5.2): walls are computed "at certain intervals" and released
//! to all read-only transactions that start before the next wall. The
//! anchor is a lowest-level class (per component, for forest-shaped
//! hierarchies) and the anchor time is the *current* time when the
//! computation first starts; if some `C_late` is not yet computable the
//! service retries the *same* pending wall until enough transactions
//! finish ("if it encounters any C_late function that it cannot compute,
//! it waits until it becomes computable").

use crate::activity::{ActivityFuncs, CLate};
use crate::analysis::Hierarchy;
use mc::sync::{Mutex, RwLock};
use std::sync::Arc;
use txn_model::{ClassId, Timestamp};

/// A released time wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeWall {
    /// Anchor time `m` (one per component; all share the same `m`).
    pub anchor_time: Timestamp,
    /// Anchor class per component (the component's lowest class).
    pub anchors: Vec<ClassId>,
    /// `E_s^i(m)` per class index.
    pub components: Vec<Timestamp>,
    /// Release time `RT(TW)`.
    pub released_at: Timestamp,
}

impl TimeWall {
    /// The wall component for `class`.
    pub fn component(&self, class: ClassId) -> Timestamp {
        self.components[class.index()]
    }

    /// The smallest component (garbage-collection floor for readers
    /// pinned to this wall).
    pub fn floor(&self) -> Timestamp {
        self.components
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

/// Computes and publishes time walls. Holds the newest released wall
/// only: Protocol C pins it at `begin`, and nothing reads an older one.
#[derive(Debug, Default)]
pub struct TimeWallService {
    latest: RwLock<Option<Arc<TimeWall>>>,
    /// Anchor time of the wall being computed, kept across retries. Held
    /// for the whole computation, so releases are serial: walls publish
    /// in release order and never step back.
    pending: Mutex<Option<Timestamp>>,
}

impl TimeWallService {
    /// An empty service (no wall released yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempt to compute and release a wall anchored at (pending `m`, or
    /// `now` when starting fresh). Returns the released wall on success;
    /// `None` when some `C_late` is not yet computable (the pending
    /// anchor time is kept for the retry). A fresh anchor is raised to
    /// the newest wall's, so a stale `now` cannot make walls step back.
    pub fn try_release(
        &self,
        hierarchy: &Hierarchy,
        funcs: &ActivityFuncs<'_>,
        now: Timestamp,
        release_ts: impl FnOnce() -> Timestamp,
    ) -> Option<Arc<TimeWall>> {
        self.try_release_with(hierarchy, funcs, || now, release_ts)
    }

    /// [`try_release`](Self::try_release), reading a fresh anchor from
    /// `now` under the release lock: a computation the GC watermark's
    /// pending read missed anchors at or above the clock it read first.
    pub fn try_release_with(
        &self,
        hierarchy: &Hierarchy,
        funcs: &ActivityFuncs<'_>,
        now: impl FnOnce() -> Timestamp,
        release_ts: impl FnOnce() -> Timestamp,
    ) -> Option<Arc<TimeWall>> {
        let mut pending = self.pending.lock();
        let m = match *pending {
            Some(m) => m,
            None => {
                let floor = self.latest().map_or(Timestamp::ZERO, |w| w.anchor_time);
                *pending.insert(now().max(floor))
            }
        };

        let n = hierarchy.class_count();
        let mut components = vec![Timestamp::MAX; n];
        let mut anchors = Vec::new();
        for comp in hierarchy.paths().components() {
            // Anchor: the component's first lowest-level class.
            let anchor = *comp
                .iter()
                .find(|&&v| hierarchy.paths().reduction().in_neighbors(v).is_empty())
                .expect("every finite DAG component has a minimal node");
            anchors.push(ClassId(anchor as u32));
            for &i in &comp {
                match funcs.e_fn(ClassId(anchor as u32), ClassId(i as u32), m) {
                    CLate::Time(t) => components[i] = t,
                    CLate::NotComputable => return None,
                }
            }
        }

        let wall = Arc::new(TimeWall {
            anchor_time: m,
            anchors,
            components,
            released_at: release_ts(),
        });
        let mut latest = self.latest.write();
        if let Some(prev) = latest.as_deref() {
            // The GC watermark reads only the newest wall: it rests on
            // walls never stepping back (`m` only grows, and `I_old` and
            // `C_late` are monotone).
            let (old, new) = (&prev.components, &wall.components);
            debug_assert!(
                old.iter().zip(new).all(|(p, c)| p <= c),
                "wall components stepped back: {old:?} → {new:?}"
            );
            debug_assert!(
                prev.released_at < wall.released_at,
                "release times must grow"
            );
        }
        *latest = Some(Arc::clone(&wall));
        *pending = None;
        Some(wall)
    }

    /// The newest released wall, if any — the wall Protocol C pins for a
    /// read-only transaction initiating now.
    pub fn latest(&self) -> Option<Arc<TimeWall>> {
        self.latest.read().clone()
    }

    /// The anchor time of an in-progress wall computation, if any. The
    /// garbage collector must not reclaim state this computation still
    /// reads. Never waits: while a computation holds the release lock,
    /// this answers a lower bound of its anchor — the newest wall's
    /// anchor, or [`Timestamp::ZERO`] before the first release.
    pub fn pending_anchor(&self) -> Option<Timestamp> {
        match self.pending.try_lock() {
            Some(pending) => *pending,
            None => Some(self.latest().map_or(Timestamp::ZERO, |w| w.anchor_time)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityRegistry;
    use crate::analysis::AccessSpec;
    use txn_model::{LogicalClock, SegmentId};

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    /// Tree: 3 → 1 → 0, 4 → 1, 2 → 0.
    fn tree() -> Hierarchy {
        let s = SegmentId;
        Hierarchy::build(
            5,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
                AccessSpec::new("c3", vec![s(3)], vec![s(1)]),
                AccessSpec::new("c4", vec![s(4)], vec![s(1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn wall_release_when_idle() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(50));
        let svc = TimeWallService::new();
        let wall = svc
            .try_release(&h, &f, ts(50), || clock.tick())
            .expect("idle system: all E computable");
        // Idle: every component equals the anchor time.
        assert!(wall.components.iter().all(|&c| c == ts(50)));
        assert_eq!(wall.floor(), ts(50));
        assert_eq!(svc.latest(), Some(wall));
    }

    #[test]
    fn pending_anchor_is_retried_not_refreshed() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        // A running txn in the apex class 0 blocks the downward E steps.
        r.begin(ClassId(0), ts(5));
        let svc = TimeWallService::new();
        assert!(svc.try_release(&h, &f, ts(10), || clock.tick()).is_none());
        // Commit it; retry must use the ORIGINAL anchor time 10.
        r.commit(ClassId(0), ts(5), ts(20));
        clock.advance_past(ts(30));
        let wall = svc
            .try_release(&h, &f, ts(30), || clock.tick())
            .expect("computable now");
        assert_eq!(wall.anchor_time, ts(10));
    }

    #[test]
    fn latest_is_the_newest_release() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        let svc = TimeWallService::new();
        assert!(svc.latest().is_none());
        for t in [10u64, 20, 30] {
            clock.advance_past(ts(t));
            let wall = svc.try_release(&h, &f, ts(t), || clock.tick()).unwrap();
            assert_eq!(svc.latest(), Some(wall));
        }
        assert_eq!(svc.latest().unwrap().anchor_time, ts(30));
    }

    #[test]
    fn a_stale_now_is_raised_to_the_newest_anchor() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(30));
        let svc = TimeWallService::new();
        let newer = svc.try_release(&h, &f, ts(30), || clock.tick()).unwrap();
        // A releaser that read the clock at 10, before the release above.
        let stale = svc.try_release(&h, &f, ts(10), || clock.tick()).unwrap();
        assert_eq!(stale.anchor_time, ts(30));
        assert_eq!(stale.components, newer.components);
        assert!(stale.released_at > newer.released_at);
        assert_eq!(svc.latest(), Some(stale));
    }

    #[test]
    fn pending_anchor_visible_until_release() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        r.begin(ClassId(0), ts(5)); // blocks C_late
        let svc = TimeWallService::new();
        assert_eq!(svc.pending_anchor(), None);
        assert!(svc.try_release(&h, &f, ts(10), || clock.tick()).is_none());
        assert_eq!(svc.pending_anchor(), Some(ts(10)));
        r.commit(ClassId(0), ts(5), ts(20));
        clock.advance_past(ts(30));
        assert!(svc.try_release(&h, &f, ts(30), || clock.tick()).is_some());
        assert_eq!(svc.pending_anchor(), None);
    }

    #[test]
    fn pending_anchor_never_waits_on_a_computation() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(30));
        let svc = TimeWallService::new();
        {
            let _computing = svc.pending.lock();
            assert_eq!(svc.pending_anchor(), Some(Timestamp::ZERO));
        }
        svc.try_release(&h, &f, ts(30), || clock.tick()).unwrap();
        let _computing = svc.pending.lock();
        assert_eq!(svc.pending_anchor(), Some(ts(30)));
    }

    #[test]
    fn forest_hierarchy_gets_per_component_anchors() {
        let s = SegmentId;
        // Two components: 1 → 0 and 3 → 2.
        let h = Hierarchy::build(
            4,
            &[
                AccessSpec::new("a", vec![s(0)], vec![]),
                AccessSpec::new("b", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c", vec![s(2)], vec![]),
                AccessSpec::new("d", vec![s(3)], vec![s(2)]),
            ],
        )
        .unwrap();
        let r = ActivityRegistry::new(4);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        let svc = TimeWallService::new();
        let wall = svc.try_release(&h, &f, ts(10), || clock.tick()).unwrap();
        assert_eq!(wall.anchors.len(), 2);
        assert!(wall.components.iter().all(|&c| c == ts(10)));
    }
}
