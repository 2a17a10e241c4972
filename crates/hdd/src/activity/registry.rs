//! Per-class transaction activity history: the inputs to `I_old` and
//! `C_late`.
//!
//! The activity-link machinery needs, for any past time `m`, the set of
//! transactions of a class *active at m* — `I(t) < m < C(t)`, where an
//! aborted transaction counts as active until its abort ("uncommitted and
//! un-aborted"). [`ClassActivity`] keeps the `(start, end)` intervals of a
//! class's transactions; [`ActivityRegistry`] is the per-class array.
//!
//! Evaluation at past times is well-defined because queries are only ever
//! issued with `m ≤ now`: a transaction still running at evaluation time
//! has `C(t) > now ≥ m`, so its activity at `m` is already determined.
//!
//! # Hot-path structure
//!
//! Initiation timestamps come from a monotonic clock, so under
//! [`ActivityRegistry::begin_with`] (which draws the timestamp *inside*
//! the class lock) inserts are pure appends — no binary search, no
//! memmove. Drawing the timestamp under the lock is also a correctness
//! requirement, not just a fast path: it makes `I_old(m)` immutable for
//! every `m ≤ now` (no transaction can later surface with a start below
//! an already-evaluated bound), which is what Protocol A's bound proof
//! assumes. A begin whose timestamp was drawn outside the lock could be
//! observed by a concurrent bound evaluation *after* the tick but
//! *before* the insert, yielding a bound above the newcomer's start —
//! and with it, reads that straddle another transaction's commit.
//!
//! Queries ride a **prefix-max index** over the settled prefix — the
//! longest prefix of (start-sorted) intervals in which every
//! transaction has ended. Invariant: `settled_max[i]` is the largest end
//! over `entries[..=i]`, for every `i` below `settled_max.len()`, which
//! is the settled prefix's length. The index is non-decreasing, so for
//! a query at `m` below its last value one `partition_point` finds the
//! first interval ending after `m` — the oldest settled interval that
//! can still be active at `m` — and `C_late` reads the largest settled
//! end among intervals starting before `m` in one more search and one
//! lookup. Only the *active window* behind the settled prefix is
//! scanned: O(log history + active window) per query, under the class
//! lock. The instrumented scan counter (probes plus window entries)
//! keeps this claim testable.
//!
//! The queries extend the index themselves, one value per interval
//! that ended since the last query, before they answer. `end` leaves
//! it alone, so a commit stays one in-place write and the index's cache
//! lines are written by the cores that read them.
//!
//! History is pruned by garbage collection: an interval that ended before
//! the GC watermark can never again satisfy `end > m` for future queries.

use mc::sync::Mutex;
use txn_model::{ClassId, Timestamp};

/// Outcome of a `C_late` evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CLate {
    /// The latest commit time of transactions active at `m` (or `m` when
    /// none were active).
    Time(Timestamp),
    /// Some transaction started at or before `m` is still running —
    /// `C_late(m)` is not yet computable (Section 5.1); retry later.
    NotComputable,
}

/// One transaction's activity interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: Timestamp,
    /// `None` while running; commit or abort time once ended.
    end: Option<Timestamp>,
    /// True when ended by commit (aborts contribute no commit time to
    /// `C_late` but bound activity exactly like commits).
    committed: bool,
}

/// Activity history of a single transaction class.
#[derive(Debug, Default)]
pub struct ClassActivity {
    /// Sorted ascending by `start` (starts are unique clock ticks).
    entries: Vec<Interval>,
    /// Prefix-max index over the longest all-ended prefix of
    /// `entries`: position `i` holds the largest end over
    /// `entries[..=i]`; its length is the settled prefix's.
    settled_max: Vec<Timestamp>,
    /// Number of entries still running (`end == None`).
    running: usize,
    /// Intervals examined by `i_old`/`c_late` since construction
    /// (instrumentation).
    scans: u64,
}

impl ClassActivity {
    fn position(&self, start: Timestamp) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&start, |e| e.start)
    }

    /// Extend the index over every entry that ended since the last
    /// query, making the settled prefix the longest all-ended one again.
    fn advance_settled(&mut self) {
        while let Some(end) = self.entries.get(self.settled_max.len()).and_then(|e| e.end) {
            let max = self.settled_max.last().map_or(end, |&m| m.max(end));
            self.settled_max.push(max);
        }
    }

    /// Record a transaction beginning at `start`.
    pub fn begin(&mut self, start: Timestamp) {
        self.running += 1;
        // Monotonic-clock fast path: strictly newer than everything seen.
        if self.entries.last().is_none_or(|l| start > l.start) {
            self.entries.push(Interval {
                start,
                end: None,
                committed: false,
            });
            return;
        }
        // Out-of-order insert (absorbed histories, tests).
        match self.position(start) {
            Ok(_) => panic!("duplicate initiation timestamp {start}"),
            Err(i) => {
                self.entries.insert(
                    i,
                    Interval {
                        start,
                        end: None,
                        committed: false,
                    },
                );
                // A running entry inside the settled prefix cuts it short;
                // the maxima over what remains are unchanged.
                self.settled_max.truncate(i);
            }
        }
    }

    /// Record the end (commit or abort) of the transaction that began at
    /// `start`.
    pub fn end(&mut self, start: Timestamp, end: Timestamp, committed: bool) {
        if let Ok(i) = self.position(start) {
            debug_assert!(self.entries[i].end.is_none(), "transaction ended twice");
            self.entries[i].end = Some(end);
            self.entries[i].committed = committed;
            self.running -= 1;
        } else {
            debug_assert!(false, "ending unknown transaction {start}");
        }
    }

    /// `I_old(m)`: the initiation time of the oldest transaction active at
    /// `m`, or `m` itself when none is active.
    pub fn i_old(&mut self, m: Timestamp) -> Timestamp {
        self.i_old_counted(m).0
    }

    /// [`i_old`](Self::i_old) plus the number of intervals the
    /// evaluation examined (index probes plus window entries) — the
    /// per-call scan length behind the O(log history + active window)
    /// claim, fed to the obs registry-scan histogram. Extending the index
    /// is not counted: each interval is pushed once, by whichever query
    /// first finds it ended.
    pub fn i_old_counted(&mut self, m: Timestamp) -> (Timestamp, u64) {
        self.advance_settled();
        let mut scanned = 0u64;
        let oldest = 'found: {
            if self.settled_max.last().is_some_and(|&max| max > m) {
                // The first settled interval ending after `m` is the
                // oldest that can be active at `m`: every earlier one
                // ended by then, and every later one starts after it.
                let i = self.settled_max.partition_point(|&max| {
                    scanned += 1;
                    max <= m
                });
                break 'found self.entries[i].start.min(m);
            }
            // No settled interval is active at `m`: scan the window.
            for e in &self.entries[self.settled_max.len()..] {
                scanned += 1;
                if e.start >= m {
                    break; // sorted: no further entry can have start < m
                }
                if e.end.is_none_or(|end| end > m) {
                    break 'found e.start;
                }
            }
            m
        };
        self.scans += scanned;
        (oldest, scanned)
    }

    /// `C_late(m)`: the latest *end* time (commit or abort) of
    /// transactions active at `m` (`m` when none), or
    /// [`CLate::NotComputable`] while any transaction started at or
    /// before `m` is still running.
    ///
    /// The paper defines `C_late` over commit times; aborts must bound it
    /// too, because the inverse-pairing `I_old(C_late(x)) ≥ x` (the heart
    /// of Properties 2.1/2.2) quantifies over everything `I_old` counts
    /// as active — and an aborted transaction is active until its abort.
    /// Using the abort time is safe: it only pushes the wall later, past
    /// the point where the (version-less) aborted transaction is gone.
    pub fn c_late(&mut self, m: Timestamp) -> CLate {
        self.advance_settled();
        let mut scanned = 0u64;
        let settled = self.settled_max.len();
        let mut max_end = m;
        if self.settled_max.last().is_some_and(|&max| max > m) {
            // The largest end among settled intervals starting before
            // `m` is, when above `m`, the latest among those active at `m`.
            let k = self.entries[..settled].partition_point(|e| {
                scanned += 1;
                e.start < m
            });
            if k > 0 {
                max_end = max_end.max(self.settled_max[k - 1]);
            }
        }
        let late = 'scan: {
            for e in &self.entries[settled..] {
                scanned += 1;
                if e.start > m {
                    break;
                }
                match e.end {
                    None => break 'scan CLate::NotComputable,
                    Some(end) if e.start < m && end > max_end => max_end = end,
                    Some(_) => {}
                }
            }
            CLate::Time(max_end)
        };
        self.scans += scanned;
        late
    }

    /// The initiation time of the oldest transaction still running, if
    /// any (GC watermark input).
    pub fn oldest_running(&mut self) -> Option<Timestamp> {
        // The longest all-ended prefix stops at the oldest running entry.
        self.advance_settled();
        self.entries.get(self.settled_max.len()).map(|e| e.start)
    }

    /// Drop intervals that ended before `wm`; they can never satisfy
    /// `end > m` for queries with `m ≥ wm`. Returns entries dropped.
    ///
    /// The index drops the same positions and is otherwise unchanged:
    /// a kept settled interval ends at or after `wm`, above every dropped
    /// end, so no prefix max it takes part in came from a dropped one.
    pub fn prune_ended_before(&mut self, wm: Timestamp) -> usize {
        let kept = |e: &Interval| e.end.is_none_or(|end| end >= wm);
        let mut i = 0;
        self.settled_max.retain(|_| {
            i += 1;
            kept(&self.entries[i - 1])
        });
        let before = self.entries.len();
        self.entries.retain(kept);
        before - self.entries.len()
    }

    /// Number of retained intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no intervals are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Intervals examined by `i_old`/`c_late` since construction.
    pub fn scan_count(&self) -> u64 {
        self.scans
    }

    /// Live shape of this class's history (gauge-board sampling).
    pub fn stats(&mut self) -> ClassStats {
        self.advance_settled();
        ClassStats {
            intervals: self.entries.len(),
            settled: self.settled_max.len(),
            running: self.running,
        }
    }

    /// Absorb `(start, end, committed)` intervals, keeping the
    /// start-sorted invariant. `hdd::resume` uses it to rebuild a class's
    /// history from the surviving schedule log.
    pub fn absorb(&mut self, intervals: &[(Timestamp, Option<Timestamp>, bool)]) {
        for &(start, end, committed) in intervals {
            // A start already present is skipped (idempotent hand-off).
            if let Err(i) = self.position(start) {
                self.entries.insert(
                    i,
                    Interval {
                        start,
                        end,
                        committed,
                    },
                );
                // As in `begin`: the index keeps only the prefix before `i`.
                self.settled_max.truncate(i);
                self.running += usize::from(end.is_none());
            }
        }
    }
}

/// A point-in-time view of one class's activity history shape, sampled
/// for the gauge board: interval and running counts plus the settled
/// prefix's length, whose lag ([`ClassStats::settled_lag`]) bounds the
/// window part of `I_old`/`C_late` scan cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Intervals currently retained.
    pub intervals: usize,
    /// Length of the settled (all-ended) prefix — and of its prefix-max
    /// index.
    pub settled: usize,
    /// Entries still running (`end == None`).
    pub running: usize,
}

impl ClassStats {
    /// Intervals behind the settled prefix — the active window a bound
    /// evaluation may still scan entry by entry. The settled prefix costs
    /// at most one binary search over its prefix-max index, so a query
    /// costs O(log history + active window).
    pub fn settled_lag(&self) -> usize {
        self.intervals.saturating_sub(self.settled)
    }
}

/// Activity histories for every transaction class.
#[derive(Debug)]
pub struct ActivityRegistry {
    classes: Vec<Mutex<ClassActivity>>,
}

impl ActivityRegistry {
    /// A registry for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        ActivityRegistry {
            classes: (0..n_classes)
                .map(|_| Mutex::new(ClassActivity::default()))
                .collect(),
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Record a begin in `class`.
    pub fn begin(&self, class: ClassId, start: Timestamp) {
        self.classes[class.index()].lock().begin(start);
    }

    /// Draw an initiation timestamp from `tick` **while holding the class
    /// lock**, record the begin, and return the timestamp.
    ///
    /// This is the only begin entry point safe under concurrency: any
    /// bound evaluation (`i_old`) that could observe a time at or above
    /// the new start is serialized after the insert by the class lock, so
    /// `I_old(m)` stays immutable for `m ≤ now`. It also guarantees
    /// per-class monotone starts, making the insert a pure append.
    pub fn begin_with(&self, class: ClassId, tick: impl FnOnce() -> Timestamp) -> Timestamp {
        let mut c = self.classes[class.index()].lock();
        let start = tick();
        c.begin(start);
        start
    }

    /// Record a commit in `class`.
    pub fn commit(&self, class: ClassId, start: Timestamp, commit_ts: Timestamp) {
        self.classes[class.index()]
            .lock()
            .end(start, commit_ts, true);
    }

    /// Record an abort in `class`.
    pub fn abort(&self, class: ClassId, start: Timestamp, abort_ts: Timestamp) {
        self.classes[class.index()]
            .lock()
            .end(start, abort_ts, false);
    }

    /// Draw a termination timestamp from `tick` **while holding the
    /// class lock**, record the end, and return the timestamp.
    ///
    /// The end-side twin of [`begin_with`](Self::begin_with), and just as
    /// load-bearing: if the end timestamp is drawn *outside* the lock,
    /// there is a window where a transaction has terminated (its end
    /// timestamp exists, possibly below some `m`) but the registry still
    /// reports it active — so `I_old(m)` evaluates low now and high
    /// later, and two readers bounding off the *same* `m` pick versions
    /// in incompatible orders (a real dependency cycle at 8 workers).
    /// Ticking under the lock guarantees every entry an evaluator counts
    /// as "running, hence active at `m`" really does end at some
    /// `e > m`, making `I_old`/`C_late` exact functions of `m`.
    pub fn end_with(
        &self,
        class: ClassId,
        start: Timestamp,
        committed: bool,
        tick: impl FnOnce() -> Timestamp,
    ) -> Timestamp {
        let mut c = self.classes[class.index()].lock();
        let end = tick();
        c.end(start, end, committed);
        end
    }

    /// `I_old` of `class` at `m`.
    pub fn i_old(&self, class: ClassId, m: Timestamp) -> Timestamp {
        self.classes[class.index()].lock().i_old(m)
    }

    /// `I_old` of `class` at `m`, plus the intervals examined.
    pub fn i_old_counted(&self, class: ClassId, m: Timestamp) -> (Timestamp, u64) {
        self.classes[class.index()].lock().i_old_counted(m)
    }

    /// `C_late` of `class` at `m`.
    pub fn c_late(&self, class: ClassId, m: Timestamp) -> CLate {
        self.classes[class.index()].lock().c_late(m)
    }

    /// The globally oldest running transaction's start, if any.
    pub fn oldest_running(&self) -> Option<Timestamp> {
        self.classes
            .iter()
            .filter_map(|c| c.lock().oldest_running())
            .min()
    }

    /// Prune all classes' histories; returns intervals dropped.
    pub fn prune_ended_before(&self, wm: Timestamp) -> usize {
        self.classes
            .iter()
            .map(|c| c.lock().prune_ended_before(wm))
            .sum()
    }

    /// Total retained intervals (diagnostics).
    pub fn interval_count(&self) -> usize {
        self.classes.iter().map(|c| c.lock().len()).sum()
    }

    /// Total intervals examined by `i_old`/`c_late` across all classes
    /// since construction (instrumentation for the O(log history + active
    /// window) claim).
    pub fn scan_count(&self) -> u64 {
        self.classes.iter().map(|c| c.lock().scan_count()).sum()
    }

    /// Live shape of `class`'s history (one brief lock acquisition; the
    /// gauge-board refresh samples every class each maintenance tick).
    pub fn class_stats(&self, class: ClassId) -> ClassStats {
        self.classes[class.index()].lock().stats()
    }

    /// Absorb intervals into `class`.
    pub fn absorb_class(&self, class: ClassId, intervals: &[(Timestamp, Option<Timestamp>, bool)]) {
        self.classes[class.index()].lock().absorb(intervals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_stats_track_running_and_settled_lag() {
        let r = ActivityRegistry::new(2);
        let c = ClassId(0);
        r.begin(c, Timestamp(1));
        r.begin(c, Timestamp(2));
        let s = r.class_stats(c);
        assert_eq!(s.intervals, 2);
        assert_eq!(s.running, 2);
        assert_eq!(s.settled, 0);
        assert_eq!(s.settled_lag(), 2);
        r.commit(c, Timestamp(1), Timestamp(3));
        r.commit(c, Timestamp(2), Timestamp(4));
        let s = r.class_stats(c);
        assert_eq!(s.running, 0);
        assert_eq!(s.settled, 2, "cursor advances over ended prefix");
        assert_eq!(s.settled_lag(), 0);
        assert_eq!(r.class_stats(ClassId(1)), ClassStats::default());
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    #[test]
    fn i_old_picks_oldest_active() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.begin(ts(10));
        a.end(ts(5), ts(8), true);
        // At m=9: t@5 ended at 8 (not active), t@10 not started.
        assert_eq!(a.i_old(ts(9)), ts(9));
        // At m=12: t@10 active.
        assert_eq!(a.i_old(ts(12)), ts(10));
        // At m=7: t@5 active (5 < 7 < 8).
        assert_eq!(a.i_old(ts(7)), ts(5));
        // Boundaries are strict: at m=5 t@5 not yet active; at m=8 ended.
        assert_eq!(a.i_old(ts(5)), ts(5));
        assert_eq!(a.i_old(ts(8)), ts(8));
    }

    #[test]
    fn i_old_with_running_txn() {
        let mut a = ClassActivity::default();
        a.begin(ts(3));
        assert_eq!(a.i_old(ts(100)), ts(3));
        assert_eq!(a.i_old(ts(3)), ts(3)); // strict start
        assert_eq!(a.i_old(ts(2)), ts(2));
    }

    #[test]
    fn i_old_never_exceeds_argument() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.end(ts(5), ts(20), true);
        for m in 0..25 {
            assert!(a.i_old(ts(m)) <= ts(m));
        }
    }

    #[test]
    fn aborted_txn_bounds_activity_and_c_late() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.end(ts(5), ts(9), false); // aborted at 9
                                    // Active for i_old purposes during (5, 9).
        assert_eq!(a.i_old(ts(7)), ts(5));
        assert_eq!(a.i_old(ts(10)), ts(10));
        // The abort end bounds C_late exactly like a commit would:
        // I_old(C_late(x)) ≥ x must hold for everything I_old counts.
        assert_eq!(a.c_late(ts(7)), CLate::Time(ts(9)));
        assert_eq!(a.i_old(ts(9)), ts(9)); // pairing inequality at work
    }

    #[test]
    fn c_late_takes_latest_commit_of_active() {
        let mut a = ClassActivity::default();
        a.begin(ts(2));
        a.begin(ts(4));
        a.end(ts(2), ts(10), true);
        a.end(ts(4), ts(8), true);
        // At m=5 both active; latest commit = 10.
        assert_eq!(a.c_late(ts(5)), CLate::Time(ts(10)));
        // At m=9 only t@2 active (4..8 ended).
        assert_eq!(a.c_late(ts(9)), CLate::Time(ts(10)));
        // At m=11 none active.
        assert_eq!(a.c_late(ts(11)), CLate::Time(ts(11)));
    }

    #[test]
    fn c_late_not_computable_while_running() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        assert_eq!(a.c_late(ts(7)), CLate::NotComputable);
        assert_eq!(a.c_late(ts(5)), CLate::NotComputable); // started AT m
        assert_eq!(a.c_late(ts(4)), CLate::Time(ts(4))); // started after m
        a.end(ts(5), ts(9), true);
        assert_eq!(a.c_late(ts(7)), CLate::Time(ts(9)));
    }

    #[test]
    fn prune_drops_only_history() {
        let mut a = ClassActivity::default();
        a.begin(ts(1));
        a.end(ts(1), ts(2), true);
        a.begin(ts(3)); // still running
        a.begin(ts(4));
        a.end(ts(4), ts(6), true);
        assert_eq!(a.prune_ended_before(ts(5)), 1); // only (1,2)
        assert_eq!(a.len(), 2);
        // Queries at m >= watermark unaffected.
        assert_eq!(a.i_old(ts(5)), ts(3));
    }

    #[test]
    fn absorb_is_idempotent_and_sorted() {
        let mut a = ClassActivity::default();
        a.begin(ts(10));
        let intervals = vec![(ts(5), Some(ts(8)), true), (ts(12), None, false)];
        a.absorb(&intervals);
        a.absorb(&intervals); // idempotent
        assert_eq!(a.len(), 3);
        assert_eq!(a.i_old(ts(6)), ts(5));
        assert_eq!(a.i_old(ts(15)), ts(10)); // running copy at 10
        assert!(
            a.entries.windows(2).all(|w| w[0].start < w[1].start),
            "sorted"
        );
    }

    #[test]
    fn registry_round_trip() {
        let r = ActivityRegistry::new(2);
        r.begin(ClassId(0), ts(1));
        r.begin(ClassId(1), ts(2));
        assert_eq!(r.oldest_running(), Some(ts(1)));
        r.commit(ClassId(0), ts(1), ts(5));
        assert_eq!(r.oldest_running(), Some(ts(2)));
        r.abort(ClassId(1), ts(2), ts(6));
        assert_eq!(r.oldest_running(), None);
        assert_eq!(r.i_old(ClassId(0), ts(3)), ts(1));
        assert_eq!(r.c_late(ClassId(0), ts(3)), CLate::Time(ts(5)));
        assert_eq!(r.interval_count(), 2);
        assert_eq!(r.prune_ended_before(ts(100)), 2);
    }

    #[test]
    fn begin_with_draws_monotone_starts_under_the_lock() {
        let r = ActivityRegistry::new(1);
        let clock = txn_model::LogicalClock::new();
        let mut starts = Vec::new();
        for _ in 0..100 {
            starts.push(r.begin_with(ClassId(0), || clock.tick()));
        }
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.interval_count(), 100);
    }

    /// At an `m` at or above every settled end, `i_old` cost is
    /// independent of how many transactions ever began: the index is not
    /// probed and the scan touches only the active window.
    #[test]
    fn i_old_scan_cost_independent_of_history_length() {
        let probe = |total: u64| -> u64 {
            let mut a = ClassActivity::default();
            // `total` fully-ended transactions...
            for i in 0..total {
                let s = ts(2 * i + 1);
                a.begin(s);
                a.end(s, ts(2 * i + 2), true);
            }
            // ...plus a small live window.
            let now = 2 * total + 10;
            for k in 0..3 {
                a.begin(ts(now + k));
            }
            let before = a.scan_count();
            a.i_old(ts(now + 5));
            a.scan_count() - before
        };
        let small = probe(100);
        let large = probe(10_000);
        assert_eq!(
            small, large,
            "i_old must not rescan the ended prefix (scan cost {small} vs {large})"
        );
        assert!(small <= 4, "scan bounded by the active window, got {small}");
    }

    /// At a past `m` inside a settled history — one interval of it still
    /// active at `m` — `i_old` and `c_late` cost O(log history + active
    /// window): one binary search over the prefix-max index, not a scan
    /// of the intervals that ended before `m`.
    #[test]
    fn past_m_queries_cost_log_history_plus_window() {
        let probe = |n: u64| {
            let mut a = ClassActivity::default();
            // `n` settled intervals (2i+1, 2i+2); the one at `k` instead
            // ends after every other, at `late`.
            let (k, late) = (n / 2, ts(2 * n + 5));
            for i in 0..n {
                let s = ts(2 * i + 1);
                a.begin(s);
                a.end(s, if i == k { late } else { ts(2 * i + 2) }, true);
            }
            let window = 3;
            for w in 0..window {
                a.begin(ts(2 * n + 10 + w));
            }
            // `m` falls after interval k began and every earlier one ended.
            let m = ts(2 * k + 3);
            let bound = u64::from(n.next_power_of_two().trailing_zeros()) + 1 + window;
            let before = a.scan_count();
            assert_eq!(a.i_old(m), ts(2 * k + 1), "n={n}");
            let i_old_cost = a.scan_count() - before;
            let before = a.scan_count();
            assert_eq!(a.c_late(m), CLate::Time(late), "n={n}");
            let c_late_cost = a.scan_count() - before;
            assert!(
                i_old_cost <= bound && c_late_cost <= bound,
                "n={n}: i_old scanned {i_old_cost}, c_late {c_late_cost}, bound {bound}"
            );
        };
        probe(100);
        probe(10_000);
    }

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The definitions of Sections 4.1/5.1 evaluated by a linear scan
    /// over unsorted `(start, end)` pairs — the reference the indexed
    /// `ClassActivity` is checked against.
    #[derive(Default)]
    struct LinearActivity {
        intervals: Vec<(Timestamp, Option<Timestamp>)>,
    }

    impl LinearActivity {
        fn active_at(&self, m: Timestamp) -> impl Iterator<Item = &(Timestamp, Option<Timestamp>)> {
            self.intervals
                .iter()
                .filter(move |(s, e)| *s < m && e.is_none_or(|e| e > m))
        }

        fn i_old(&self, m: Timestamp) -> Timestamp {
            self.active_at(m).map(|&(s, _)| s).min().unwrap_or(m)
        }

        fn c_late(&self, m: Timestamp) -> CLate {
            if self.intervals.iter().any(|(s, e)| *s <= m && e.is_none()) {
                return CLate::NotComputable;
            }
            CLate::Time(self.active_at(m).filter_map(|&(_, e)| e).max().unwrap_or(m))
        }

        fn oldest_running(&self) -> Option<Timestamp> {
            self.intervals
                .iter()
                .filter(|(_, e)| e.is_none())
                .map(|&(s, _)| s)
                .min()
        }

        fn stats(&self) -> ClassStats {
            let mut sorted = self.intervals.clone();
            sorted.sort();
            ClassStats {
                intervals: sorted.len(),
                settled: sorted.iter().take_while(|(_, e)| e.is_some()).count(),
                running: sorted.iter().filter(|(_, e)| e.is_none()).count(),
            }
        }
    }

    /// 200 seeded scripts of appending and out-of-order begins, commits,
    /// aborts, `absorb` and `prune_ended_before` (the `hdd::resume` and
    /// GC paths): after every step `i_old`, `c_late`, `oldest_running`
    /// and `stats` agree with the linear reference at every `m` in
    /// `[0, now + 1]`, and `i_old` and `c_late` scan at most one binary
    /// search plus the active window.
    #[test]
    fn indexed_queries_match_a_linear_reference_on_200_seeded_scripts() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64(seed);
            let mut a = ClassActivity::default();
            let mut reference = LinearActivity::default();
            let mut now = 0u64;
            let mut used = std::collections::HashSet::new();
            // An unused tick strictly below `now` (out-of-order starts).
            let past = |rng: &mut SplitMix64, now: u64, used: &std::collections::HashSet<u64>| {
                (0..8)
                    .map(|_| 1 + rng.below(now.max(2) - 1))
                    .find(|t| *t < now && !used.contains(t))
            };
            for step in 0..60 {
                match rng.below(10) {
                    0..=2 => {
                        // Ticks skip up to two values, left for
                        // out-of-order starts.
                        now += 1 + rng.below(3);
                        used.insert(now);
                        a.begin(ts(now));
                        reference.intervals.push((ts(now), None));
                    }
                    3..=5 => {
                        let running: Vec<usize> = (0..reference.intervals.len())
                            .filter(|&i| reference.intervals[i].1.is_none())
                            .collect();
                        if !running.is_empty() {
                            let i = running[rng.below(running.len() as u64) as usize];
                            now += 1 + rng.below(3);
                            used.insert(now);
                            let start = reference.intervals[i].0;
                            a.end(start, ts(now), rng.below(3) > 0);
                            reference.intervals[i].1 = Some(ts(now));
                        }
                    }
                    6 => {
                        if let Some(t) = past(&mut rng, now, &used) {
                            used.insert(t);
                            a.begin(ts(t));
                            reference.intervals.push((ts(t), None));
                        }
                    }
                    7 => {
                        let mut batch = Vec::new();
                        for _ in 0..=rng.below(3) {
                            if let Some(t) = past(&mut rng, now, &used) {
                                used.insert(t);
                                let end = match rng.below(3) {
                                    0 => None,
                                    _ => Some(ts(t + 1 + rng.below(6))),
                                };
                                batch.push((ts(t), end, true));
                                reference.intervals.push((ts(t), end));
                            }
                        }
                        now = batch
                            .iter()
                            .filter_map(|b| b.1)
                            .map(|e| e.0)
                            .fold(now, u64::max);
                        // A start already present is ignored (idempotent).
                        if let Some(&(s, _)) = reference.intervals.first() {
                            batch.push((s, Some(ts(now + 1)), false));
                        }
                        a.absorb(&batch);
                    }
                    _ => {
                        let wm = ts(rng.below(now + 2));
                        let before = reference.intervals.len();
                        reference
                            .intervals
                            .retain(|(_, e)| e.is_none_or(|e| e >= wm));
                        let dropped = before - reference.intervals.len();
                        assert_eq!(a.prune_ended_before(wm), dropped, "seed {seed} step {step}");
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                let expected = reference.stats();
                // One binary search plus the active window.
                let bound = u64::from(usize::BITS - expected.settled.leading_zeros())
                    + 1
                    + expected.settled_lag() as u64;
                // One call on the index as the step left it: every entry
                // point must extend it before answering.
                let m = ts(rng.below(now + 2));
                let before = a.scan_count();
                match rng.below(4) {
                    0 => assert_eq!(a.stats(), expected, "{ctx}: first"),
                    1 => assert_eq!(a.oldest_running(), reference.oldest_running(), "{ctx}"),
                    2 => assert_eq!(a.i_old(m), reference.i_old(m), "{ctx}: first i_old({m})"),
                    _ => assert_eq!(a.c_late(m), reference.c_late(m), "{ctx}: first c_late({m})"),
                }
                let first = a.scan_count() - before;
                assert!(first <= bound, "{ctx}: first call at {m} scanned {first}");
                assert_eq!(a.stats(), expected, "{ctx}: stats");
                assert_eq!(a.oldest_running(), reference.oldest_running(), "{ctx}");
                for m in (0..=now + 1).map(ts) {
                    let before = a.scan_count();
                    assert_eq!(a.i_old(m), reference.i_old(m), "{ctx}: i_old({m})");
                    assert_eq!(a.c_late(m), reference.c_late(m), "{ctx}: c_late({m})");
                    let both = a.scan_count() - before;
                    assert!(both <= 2 * bound, "{ctx}: at {m} scanned {both}");
                }
            }
        }
    }

    /// Same independence claim via the registry + prune path.
    #[test]
    fn prune_resets_scan_window() {
        let r = ActivityRegistry::new(1);
        let c = ClassId(0);
        for i in 0..1000u64 {
            let s = ts(2 * i + 1);
            r.begin(c, s);
            r.commit(c, s, ts(2 * i + 2));
        }
        r.prune_ended_before(ts(5000));
        assert_eq!(r.interval_count(), 0);
        let before = r.scan_count();
        assert_eq!(r.i_old(c, ts(5001)), ts(5001));
        assert_eq!(r.scan_count() - before, 0, "nothing left to scan");
    }
}
