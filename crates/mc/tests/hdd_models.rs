//! Small-model checks of the HDD workspace's lock-free/striped core.
//!
//! Each model routes *production* structures (routed through `mc::sync`)
//! through the checker and explores every interleaving at 2–3 threads.
//! Two families:
//!
//! * **Invariant models** — Protocol A's `I_old` immutability, time-wall
//!   monotonicity, ticket-ring density and accounting (the one striped
//!   log, in both its shapes), gauge tear-freedom — must hold in every
//!   interleaving
//!   (`assert_clean`, `complete`).
//! * **Race regression models** — the two PR-1 Protocol A races
//!   (initiation/termination timestamps drawn *outside* the class lock)
//!   re-expressed against the public registry API. The checker must find
//!   the failing interleaving (`assert_fails`), proving it would have
//!   caught the original bugs; the fixed `begin_with`/`end_with` paths
//!   must be clean.
//!
//! Run with `RUSTFLAGS="--cfg mc" cargo test -p mc`.
#![cfg(mc)]

use hdd::activity::{ActivityFuncs, ActivityRegistry};
use hdd::{AccessSpec, Hierarchy, TimeWall, TimeWallService};
use mc::{check, Config};
use obs::{GaugeBoard, TicketRing};
use std::sync::Arc;
use txn_model::{ClassId, LogicalClock, ScheduleEvent, ScheduleLog, SegmentId, Timestamp, TxnId};

const C0: ClassId = ClassId(0);
const C1: ClassId = ClassId(1);

/// Protocol A, begin side, **fixed logic** (`begin_with`: the initiation
/// timestamp is drawn inside the class lock), over the two-class chain
/// `C1 → C0`: for any fixed `m ≤ now`, two evaluations of a path bound
/// racing begins and ends in both classes must agree — `A(m)` and every
/// prefix of it are immutable functions of `m`, which is what lets a
/// transaction cache its Protocol A bounds. Explored exhaustively at 2
/// threads; the report must prove exhaustion and count the
/// interleavings.
#[test]
fn registry_i_old_immutable_at_fixed_m_with_begin_with() {
    let report = check(Config::exhaustive(), || {
        let h = Hierarchy::build(
            2,
            &[
                AccessSpec::new("c0", vec![SegmentId(0)], vec![]),
                AccessSpec::new("c1", vec![SegmentId(1)], vec![SegmentId(0)]),
            ],
        )
        .unwrap();
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(2));
        let (c2, r2) = (Arc::clone(&clock), Arc::clone(&reg));
        let t = mc::thread::spawn(move || {
            let s1 = r2.begin_with(C1, || c2.tick());
            let s0 = r2.begin_with(C0, || c2.tick());
            r2.end_with(C0, s0, true, || c2.tick());
            r2.end_with(C1, s1, false, || c2.tick());
        });
        // Fix an evaluation point at or below "now" and evaluate the
        // from-below fold `I_0(I_1(m))` twice, hop by hop.
        let funcs = ActivityFuncs::new(&h, &reg);
        let m = clock.tick();
        let eval = || {
            let mut hops = Vec::new();
            funcs.a_path(C1, C0, m, true, |k, at| hops.push((k, at)));
            hops
        };
        let first = eval();
        let second = eval();
        assert_eq!(first, second, "path bound shifted at fixed m={m}");
        t.join().unwrap();
        // After quiescence the history is exact: nothing can be active
        // at a time at or above every end.
        let late = Timestamp(clock.now().raw() + 1);
        assert_eq!(funcs.a_fn_from_below(C1, C0, late), late);
    });
    report.assert_clean("i_old_immutable");
    assert!(report.complete, "2-thread registry model must exhaust");
    assert!(
        report.executions >= 2,
        "expected multiple interleavings, got {}",
        report.executions
    );
    println!(
        "registry path-bound model: {} interleavings explored exhaustively (max depth {})",
        report.executions, report.max_depth
    );
}

/// PR-1 race regression, begin side: the **pre-fix logic** drew the
/// initiation timestamp *outside* the class lock (tick, then insert as
/// two separate steps). A bound evaluation between the tick and the
/// insert sees `I_old(m) = m`, then the insert surfaces a start below
/// `m` — the bound shifted. The checker must find that interleaving.
#[test]
fn registry_begin_racy_tick_outside_lock_is_caught() {
    let report = check(Config::exhaustive(), || {
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(1));
        let (c2, r2) = (Arc::clone(&clock), Arc::clone(&reg));
        let t = mc::thread::spawn(move || {
            // Inverted fix: the tick escapes the class lock.
            let start = c2.tick();
            r2.begin(C0, start);
        });
        let m = clock.tick();
        let first = reg.i_old(C0, m);
        let second = reg.i_old(C0, m);
        assert_eq!(first, second, "I_old shifted at fixed m={m}");
        t.join().unwrap();
    });
    let f = report.assert_fails("begin_racy");
    assert!(f.message.contains("I_old shifted"), "wrong failure:\n{f}");
}

/// PR-1 race regression, end side: the pre-fix logic drew the
/// termination timestamp outside the class lock. In the race window the
/// transaction has ended (its end timestamp is below `m`) but the
/// registry still reports it running, so `I_old(m)` evaluates low, then
/// high once the end lands. `end_with` (tick under the lock) is the fix;
/// this double must fail.
#[test]
fn registry_end_racy_tick_outside_lock_is_caught() {
    let report = check(Config::exhaustive(), || {
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(1));
        let start = reg.begin_with(C0, || clock.tick());
        let (c2, r2) = (Arc::clone(&clock), Arc::clone(&reg));
        let t = mc::thread::spawn(move || {
            // Inverted fix: the end tick escapes the class lock.
            let end = c2.tick();
            r2.commit(C0, start, end);
        });
        let m = clock.tick();
        let first = reg.i_old(C0, m);
        let second = reg.i_old(C0, m);
        assert_eq!(first, second, "I_old shifted at fixed m={m}");
        t.join().unwrap();
    });
    let f = report.assert_fails("end_racy");
    assert!(f.message.contains("I_old shifted"), "wrong failure:\n{f}");
}

/// The fixed end path (`end_with`) under the same schedule shape is
/// clean: drawing the end tick under the class lock closes the window.
/// The spawned thread then begins and ends a second transaction, so in
/// some interleavings the first `I_old(m)` scans the active window while
/// the second finds `m` below the settled prefix's largest end and
/// answers from the prefix-max index — both must agree.
#[test]
fn registry_end_with_is_clean() {
    let report = check(Config::exhaustive(), || {
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(1));
        let start = reg.begin_with(C0, || clock.tick());
        let (c2, r2) = (Arc::clone(&clock), Arc::clone(&reg));
        let t = mc::thread::spawn(move || {
            r2.end_with(C0, start, true, || c2.tick());
            let next = r2.begin_with(C0, || c2.tick());
            r2.end_with(C0, next, false, || c2.tick());
        });
        let m = clock.tick();
        let first = reg.i_old(C0, m);
        let second = reg.i_old(C0, m);
        assert_eq!(first, second, "I_old shifted at fixed m={m}");
        t.join().unwrap();
    });
    report.assert_clean("end_with_clean");
    assert!(report.complete, "end_with model must exhaust");
    println!(
        "registry end_with model: {} interleavings explored exhaustively (max depth {})",
        report.executions, report.max_depth
    );
}

/// Time-wall release racing an update transaction in the apex of the
/// branching hierarchy `C1 → C0 ← C2`: the wall's `E` step down to `C2`
/// takes `C_late` of `C0`, so a release fails while that transaction
/// runs and retries at its pending anchor. A first wall is released
/// before the race. No later release's components or release time step
/// back from the previous wall's — what lets the GC watermark read only
/// the newest wall. (A floor may sit below its anchor: the component of
/// `C0` is `I_old(m)`, which the running transaction holds below `m`.)
/// The reader contract holds after every attempt: `latest()` read after
/// a tick was released before it.
#[test]
fn timewall_floor_and_release_monotonicity() {
    let report = check(Config::exhaustive(), || {
        let s = SegmentId;
        let h = Hierarchy::build(
            3,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
            ],
        )
        .unwrap();
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(3));
        let svc = TimeWallService::new();
        let funcs = ActivityFuncs::new(&h, &reg);
        let now = clock.tick();
        let mut prev = svc
            .try_release(&h, &funcs, now, || clock.tick())
            .expect("idle: every C_late is computable");
        let (c2, r2) = (Arc::clone(&clock), Arc::clone(&reg));
        let t = mc::thread::spawn(move || {
            let s = r2.begin_with(C0, || c2.tick());
            r2.end_with(C0, s, true, || c2.tick());
        });
        for _ in 0..2 {
            let now = clock.tick();
            if let Some(w) = svc.try_release(&h, &funcs, now, || clock.tick()) {
                let mut pairs = prev.components.iter().zip(&w.components);
                assert!(
                    pairs.all(|(p, c)| p <= c),
                    "wall components stepped back: {:?} → {:?}",
                    prev.components,
                    w.components
                );
                assert!(prev.released_at < w.released_at, "release times must grow");
                prev = w;
            }
            let start = clock.tick();
            let newest = svc.latest().expect("a wall was released");
            assert!(newest.released_at < start, "reader contract broken");
        }
        t.join().unwrap();
    });
    report.assert_clean("timewall");
    assert!(report.complete, "timewall model must exhaust");
    println!(
        "timewall model: {} interleavings explored exhaustively (max depth {})",
        report.executions, report.max_depth
    );
}

/// Two releases racing, each anchored at a `now` read before it took
/// the release lock, over an idle chain `C1 → C0`: whichever releases
/// second may hold the older `now`, and is raised to the first wall's
/// anchor instead of publishing a wall below it. The walls, ordered by
/// release time, never step back, and `latest()` ends at the later one.
#[test]
fn racing_releases_with_stale_clocks_never_step_back() {
    let report = check(Config::exhaustive(), || {
        let s = SegmentId;
        let h = Arc::new(
            Hierarchy::build(
                2,
                &[
                    AccessSpec::new("c0", vec![s(0)], vec![]),
                    AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                ],
            )
            .unwrap(),
        );
        let clock = Arc::new(LogicalClock::new());
        let reg = Arc::new(ActivityRegistry::new(2));
        let svc = Arc::new(TimeWallService::new());
        fn release(
            h: &Hierarchy,
            reg: &ActivityRegistry,
            svc: &TimeWallService,
            clock: &LogicalClock,
        ) -> Arc<TimeWall> {
            let funcs = ActivityFuncs::new(h, reg);
            let now = clock.tick();
            svc.try_release(h, &funcs, now, || clock.tick())
                .expect("idle: every C_late is computable")
        }
        let (h2, r2, s2, c2) = (
            Arc::clone(&h),
            Arc::clone(&reg),
            Arc::clone(&svc),
            Arc::clone(&clock),
        );
        let t = mc::thread::spawn(move || release(&h2, &r2, &s2, &c2));
        let mine = release(&h, &reg, &svc, &clock);
        let theirs = t.join().unwrap();
        let (first, second) = if mine.released_at < theirs.released_at {
            (mine, theirs)
        } else {
            (theirs, mine)
        };
        assert!(
            first
                .components
                .iter()
                .zip(&second.components)
                .all(|(p, c)| p <= c),
            "wall components stepped back: {:?} → {:?}",
            first.components,
            second.components
        );
        assert_eq!(svc.latest(), Some(second), "latest() is the later release");
    });
    report.assert_clean("racing releases");
    assert!(report.complete, "racing releases model must exhaust");
    println!(
        "racing releases model: {} interleavings explored exhaustively (max depth {})",
        report.executions, report.max_depth
    );
}

/// Three concurrent appends — two from a spawned thread, one from the
/// main thread — through `push`, then the quiescent merge through
/// `merged`: the schedule every ring model explores.
fn three_racing_appends<L: Send + Sync + 'static, M>(
    log: L,
    push: fn(&L, u64),
    merged: impl FnOnce(&L) -> M,
) -> M {
    let log = Arc::new(log);
    let l2 = Arc::clone(&log);
    let t = mc::thread::spawn(move || {
        push(&l2, 1);
        push(&l2, 2);
    });
    push(&log, 3);
    t.join().unwrap();
    merged(&log)
}

/// Unbounded shape: concurrent appends never lose, duplicate or tear a
/// ticket — the quiescent merge is dense `0..n` in order.
fn assert_dense<T>(stamped: &[(u64, T)]) {
    assert_eq!(stamped.len(), 3, "lost append");
    for (i, (ticket, _)) in stamped.iter().enumerate() {
        assert_eq!(*ticket, i as u64, "tickets must merge dense and sorted");
    }
}

/// The one striped ticket log, both shapes. Unbounded (the schedule
/// log's): dense merge, nothing dropped. Capacity 1 (the event log's
/// eviction path at its tightest): `recorded − dropped` equals exactly
/// what a quiescent drain returns — every eviction counted, no record
/// lost untallied — ticket-ordered, no duplicate.
#[test]
fn ticket_ring_is_dense_unbounded_and_balances_at_capacity_one() {
    let report = check(Config::exhaustive(), || {
        let push = |ring: &TicketRing<u64>, v| ring.push(v);
        let all = three_racing_appends(TicketRing::unbounded(), push, |ring| {
            assert_eq!(ring.dropped(), 0);
            ring.snapshot()
        });
        assert_dense(&all);
    });
    report.assert_clean("ticket_ring_unbounded");
    assert!(report.complete);

    let report = check(Config::exhaustive(), || {
        let push = |ring: &TicketRing<u64>, v| ring.push(v);
        three_racing_appends(TicketRing::bounded(1), push, |ring| {
            let drained = ring.drain();
            assert_eq!(
                ring.recorded() - ring.dropped(),
                drained.len() as u64,
                "ring accounting out of balance"
            );
            let mut tickets: Vec<u64> = drained.iter().map(|&(t, _)| t).collect();
            let sorted = tickets.windows(2).all(|w| w[0] < w[1]);
            assert!(sorted, "drain must be ticket-ordered");
            tickets.dedup();
            assert_eq!(tickets.len(), drained.len(), "duplicated record");
        });
    });
    report.assert_clean("ticket_ring_capacity_1");
    assert!(report.complete);
}

/// The production wrapper over the unbounded shape stays under the
/// checker: `ScheduleLog::record` / `events_stamped`.
#[test]
fn schedule_log_tickets_dense_after_concurrent_appends() {
    let report = check(Config::exhaustive(), || {
        let record = |log: &ScheduleLog, ts| {
            log.record(ScheduleEvent::Commit {
                txn: TxnId(ts),
                commit_ts: Timestamp(ts),
            });
        };
        let stamped = three_racing_appends(ScheduleLog::new(), record, |log| log.events_stamped());
        assert_dense(&stamped);
    });
    report.assert_clean("schedule_log");
    assert!(report.complete);
}

/// Gauge board cells are tear-free: a sampler racing two publishers can
/// only ever observe values some `set_driver_progress` call actually
/// wrote — never a torn mix *within* one cell.
#[test]
fn gauge_board_cells_are_tear_free() {
    let report = check(Config::exhaustive(), || {
        let g = Arc::new(GaugeBoard::new());
        let g2 = Arc::clone(&g);
        let t = mc::thread::spawn(move || {
            g2.set_driver_progress(3, 30);
        });
        g.set_driver_progress(5, 50);
        let s = g.snapshot();
        assert!(
            matches!(s.driver_claimed, 0 | 3 | 5),
            "torn claimed cell: {}",
            s.driver_claimed
        );
        assert!(
            matches!(s.driver_offered, 0 | 30 | 50),
            "torn offered cell: {}",
            s.driver_offered
        );
        t.join().unwrap();
    });
    report.assert_clean("gauge_tear_free");
    assert!(report.complete);
}

/// The logical clock's uniqueness claim, model-checked: concurrent
/// ticks never repeat even under weak memory (fetch_add is atomic; no
/// ordering is needed for uniqueness — exactly what the `// ordering:`
/// annotation at the site claims).
#[test]
fn clock_ticks_unique_under_weak_memory() {
    let report = check(Config::exhaustive(), || {
        let clock = Arc::new(LogicalClock::new());
        let c2 = Arc::clone(&clock);
        let t = mc::thread::spawn(move || (c2.tick(), c2.tick()));
        let a = clock.tick();
        let (b, c) = t.join().unwrap();
        let mut all = [a.raw(), b.raw(), c.raw()];
        all.sort_unstable();
        assert!(
            all[0] < all[1] && all[1] < all[2],
            "duplicate tick: {all:?}"
        );
        assert!(b < c, "per-thread ticks must be ordered");
    });
    report.assert_clean("clock_unique");
    assert!(report.complete);
}
