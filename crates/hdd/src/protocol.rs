//! The HDD scheduler: Protocols A, B and C over a validated hierarchy
//! (Sections 4.2 and 5.2).
//!
//! * **Protocol A** — an update transaction `t ∈ T_i` reading a granule
//!   `d ∈ D_j`, `j ≠ i` (necessarily `T_j ↑ T_i`), is served the version
//!   with the largest write timestamp below `A_i^j(I(t))`. *No trace of
//!   the access is registered* and the read never waits.
//! * **Protocol B** — accesses inside the root segment use multi-version
//!   timestamp ordering (Reed 78): reads never reject; writes reject when
//!   they would invalidate a younger read.
//! * **Protocol C** — an ad-hoc read-only transaction whose read segments
//!   do *not* lie on one critical path reads below the newest time wall
//!   released before its initiation. Read-only transactions whose
//!   segments do lie on one critical path ride Protocol A anchored at a
//!   fictitious class below the chain (Section 5.0, Figure 8). Neither
//!   kind registers reads or waits.
//!
//! Every unregistered read takes one path: under the shard lock `read`
//! takes for the liveness check, `route` finds the bound — Protocol A's
//! from the transaction's own cache, filled by one registry walk per
//! path, or the component of the wall it pinned at `begin` — and
//! `read_unregistered` serves the latest committed version below it.
//!
//! A synchronization subtlety: version chains are updated **before** the
//! activity registry on commit/abort. Protocol A's bound proof guarantees
//! every version below the bound was written by a no-longer-active
//! transaction; updating chains first makes that state visible before the
//! registry stops reporting the writer as active, so a bound computed
//! from the registry never selects a still-pending version.

use crate::activity::{ActivityFuncs, ActivityRegistry};
use crate::analysis::Hierarchy;
use crate::timewall::{TimeWall, TimeWallService};
use mvstore::{MvStore, MvtoReadResult, MvtoWriteResult};
use obs::{RejectReason, ServedRead};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::{
    ClassId, CommitOutcome, GranuleId, IdMap, LogicalClock, Metrics, ReadOutcome, ScheduleEvent,
    ScheduleLog, Scheduler, Timestamp, TxnHandle, TxnId, TxnProfile, Value, WriteOutcome,
};

/// How a read-only transaction is synchronized.
#[derive(Debug)]
enum RoMode {
    /// Read segments lie on one critical path: Protocol A from a
    /// fictitious class below `base`.
    OnChain { base: ClassId },
    /// Protocol C: pinned at `begin` to the newest released wall.
    Wall { wall: Arc<TimeWall> },
}

#[derive(Debug)]
struct TxnState {
    class: Option<ClassId>,
    start: Timestamp,
    write_set: Vec<GranuleId>,
    ro_mode: Option<RoMode>,
    /// Lease expiry (when [`HddConfig::txn_lease`] is set): renewed on
    /// every read/write, reaped past-due by the straggler watchdog.
    deadline: Option<Instant>,
    /// Protocol A bounds evaluated so far (see [`Bounds`]).
    bounds: Bounds,
}

/// A transaction's Protocol A bounds by target class, inline: `A(I(t))`
/// is a constant per transaction and class (`I_old(m)` is immutable for
/// `m ≤ now`), so each is evaluated once. Four slots hold the longest
/// critical path of every benchmark workload; a full cache caches no
/// more, and its misses recompute.
#[derive(Debug)]
struct Bounds {
    /// Target class per slot; `u32::MAX` marks a free slot.
    classes: [u32; 4],
    at: [Timestamp; 4],
}

impl Bounds {
    const EMPTY: Bounds = Bounds {
        classes: [u32::MAX; 4],
        at: [Timestamp::ZERO; 4],
    };

    fn get(&self, class: ClassId) -> Option<Timestamp> {
        let slot = self.classes.iter().position(|&c| c == class.0)?;
        Some(self.at[slot])
    }

    /// Cache `bound` for `class` unless it is cached or no slot is free.
    fn put(&mut self, class: ClassId, bound: Timestamp) {
        // Slots fill in order: the first match is `class` or a free one.
        let free = |&c: &u32| c == class.0 || c == u32::MAX;
        if let Some(slot) = self.classes.iter().position(free) {
            (self.classes[slot], self.at[slot]) = (class.0, bound);
        }
    }
}

/// How a read is served, decided under the transaction's shard lock.
enum Route {
    /// Protocol B: the transaction's own class.
    Root,
    /// Unregistered: the latest committed version below the bound.
    Below(Timestamp, Via),
}

/// Which rule produced an unregistered read's bound — the fact `obs`
/// records when the read is served.
enum Via {
    /// Protocol A from `reader`'s class (or from below a read-only
    /// transaction's chain base); `scanned` is the registry intervals
    /// the walk examined, `None` when the transaction's cache served it.
    Link {
        reader: ClassId,
        scanned: Option<u64>,
    },
    /// Protocol C below the wall anchored at `anchor`.
    Wall { anchor: Timestamp },
}

/// Power-of-two shard count for the live-transaction table.
const TXN_SHARDS: usize = 16;

/// Live-transaction state, sharded by transaction id so concurrent
/// workers touching different transactions never contend (ids are
/// allocated sequentially, so `id & mask` spreads neighbors across
/// shards). Mirrors how `MvStore` shards its chain map.
#[derive(Debug)]
struct TxnTable {
    shards: Vec<Mutex<IdMap<TxnId, TxnState>>>,
}

impl TxnTable {
    fn new() -> Self {
        TxnTable {
            shards: (0..TXN_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, id: TxnId) -> &Mutex<IdMap<TxnId, TxnState>> {
        &self.shards[(id.0 as usize) & (TXN_SHARDS - 1)]
    }

    fn insert(&self, id: TxnId, st: TxnState) {
        self.shard(id).lock().insert(id, st);
    }

    /// Build the state under the shard lock, insert it and return its
    /// start: a scan of this shard sees either the state or no tick.
    fn insert_with(&self, id: TxnId, st: impl FnOnce() -> TxnState) -> Timestamp {
        let mut shard = self.shard(id).lock();
        let st = st();
        let start = st.start;
        shard.insert(id, st);
        start
    }

    fn remove(&self, id: TxnId) -> Option<TxnState> {
        self.shard(id).lock().remove(&id)
    }

    /// Run `f` on the transaction's state (if live) under its shard lock.
    fn with<R>(&self, id: TxnId, f: impl FnOnce(Option<&mut TxnState>) -> R) -> R {
        f(self.shard(id).lock().get_mut(&id))
    }

    /// Visit every live transaction (shard at a time; GC watermark scan).
    fn for_each(&self, mut f: impl FnMut(&TxnState)) {
        for shard in &self.shards {
            for st in shard.lock().values() {
                f(st);
            }
        }
    }

    /// Remove and return every transaction whose lease expired before
    /// `now` (shard at a time; the watchdog sweep).
    fn drain_expired(&self, now: Instant) -> Vec<(TxnId, TxnState)> {
        let mut expired = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let due: Vec<TxnId> = shard
                .iter()
                .filter(|(_, st)| st.deadline.is_some_and(|d| d <= now))
                .map(|(id, _)| *id)
                .collect();
            for id in due {
                if let Some(st) = shard.remove(&id) {
                    expired.push((id, st));
                }
            }
        }
        expired
    }
}

/// Configuration for [`HddScheduler`].
#[derive(Debug, Clone)]
pub struct HddConfig {
    /// Try to release a new time wall once per this many maintenance
    /// calls (Section 5.2 computes walls "at certain intervals"), and
    /// collect garbage right after each release that succeeds; 0
    /// disables both. This is the one cadence GC needs: the watermark
    /// (`gc_watermark`) never rises above the newest wall, and every
    /// version written after a collection starts at or above the
    /// watermark that collection used, so a second collection under the
    /// same wall finds nothing the wall held back. What the other terms
    /// free in between (the oldest running start, read-only pins) is
    /// collected at the next release, at most `wall_interval` calls
    /// later.
    pub wall_interval: u64,
    /// Straggler-watchdog lease. `Some(lease)` gives every transaction a
    /// deadline renewed on each read/write; [`HddScheduler::maintenance`]
    /// aborts transactions past it so a stalled or crashed worker cannot
    /// pin `I_old(m)` (and with it the time wall and GC) forever. `None`
    /// (the default) disables the watchdog.
    pub txn_lease: Option<Duration>,
}

impl Default for HddConfig {
    fn default() -> Self {
        HddConfig {
            wall_interval: 8,
            txn_lease: None,
        }
    }
}

/// The HDD concurrency control.
pub struct HddScheduler {
    hierarchy: Arc<Hierarchy>,
    /// The multi-version store.
    store: Arc<MvStore>,
    clock: Arc<LogicalClock>,
    // `log`, `metrics` and `txn_ids` stay in heap allocations of their
    // own: every operation bumps atomics in them, and moving them inline
    // would change which fields share a cache line with `hierarchy`,
    // `store` and `config` — a layout change nobody has measured.
    log: Arc<ScheduleLog>,
    metrics: Arc<Metrics>,
    /// Transaction-id allocator (`hdd::resume` starts it above every
    /// pre-crash id).
    pub(crate) txn_ids: Arc<AtomicU64>,
    registry: ActivityRegistry,
    walls: TimeWallService,
    txns: TxnTable,
    config: HddConfig,
    maintenance_calls: AtomicU64,
}

impl HddScheduler {
    /// Build a scheduler over a validated hierarchy and a (possibly
    /// pre-seeded) store.
    pub fn new(
        hierarchy: Arc<Hierarchy>,
        store: Arc<MvStore>,
        clock: Arc<LogicalClock>,
        config: HddConfig,
    ) -> Self {
        let n = hierarchy.class_count();
        let metrics = Arc::new(Metrics::default());
        // Dimension the gauge board to this hierarchy.
        metrics
            .obs
            .configure(n as u32, hierarchy.segment_count() as u32);
        let sched = HddScheduler {
            hierarchy,
            store,
            clock,
            log: Arc::new(ScheduleLog::new()),
            metrics,
            txn_ids: Arc::new(AtomicU64::new(1)),
            registry: ActivityRegistry::new(n),
            walls: TimeWallService::new(),
            txns: TxnTable::new(),
            config,
            maintenance_calls: AtomicU64::new(0),
        };
        // The genesis wall: the database before any transaction is a
        // consistent cut, so every component is `ts:1` (reads below it
        // see the seed) and Protocol C always has a wall to pin. It is
        // neither counted nor reported as a release.
        let genesis = sched.walls.try_release(
            &sched.hierarchy,
            &sched.funcs(),
            Timestamp::ZERO.succ(),
            || Timestamp::ZERO,
        );
        genesis.expect("an empty registry computes every wall");
        sched
    }

    /// The hierarchy in force.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The activity registry (exposed for recovery and tests).
    pub fn registry(&self) -> &ActivityRegistry {
        &self.registry
    }

    /// The time-wall service (exposed for examples, experiments and
    /// tests).
    pub fn walls(&self) -> &TimeWallService {
        &self.walls
    }

    /// The underlying multi-version store.
    pub fn store(&self) -> &MvStore {
        self.store.as_ref()
    }

    /// Read `g` under a (possibly historical) time wall — Reed's
    /// "arbitrary time slice" retrieval (cited in Section 1.3), made
    /// cut-consistent by Theorem 2: reading the latest version below
    /// `E_s^i(m)` in every segment observes a consistent database state.
    /// Requires no transaction, registers nothing, never waits.
    ///
    /// Only the newest wall and the walls live readers pin are protected
    /// from compaction: under any other wall, a granule may read as its
    /// newest version below the garbage-collection watermark.
    pub fn read_at_wall(&self, wall: &TimeWall, g: GranuleId) -> Value {
        let bound = wall.component(self.hierarchy.class_of(g.segment));
        self.store.value_as_of(g, bound)
    }

    /// Attempt to release a time wall now; returns true on success.
    pub fn try_release_wall(&self) -> bool {
        let funcs = ActivityFuncs::new(&self.hierarchy, &self.registry);
        let (now, tick) = (|| self.clock.now(), || self.clock.tick());
        let released = self
            .walls
            .try_release_with(&self.hierarchy, &funcs, now, tick);
        if let Some(w) = &released {
            Metrics::bump(&self.metrics.timewalls_released);
            self.metrics
                .obs
                .wall_released(w.anchor_time.raw(), w.released_at.raw());
        }
        released.is_some()
    }

    /// Garbage-collect versions and activity history below the safe
    /// watermark. Returns versions reclaimed.
    pub fn run_gc(&self) -> usize {
        let wm = self.gc_watermark();
        let reclaimed = self.store.prune_before(wm);
        self.registry.prune_ended_before(wm);
        if reclaimed > 0 {
            Metrics::add(&self.metrics.versions_gced, reclaimed as u64);
        }
        let obs = &self.metrics.obs;
        obs.gc_ran(wm.raw(), reclaimed as u64);
        if obs.enabled() {
            // GC just rewrote the chain shape; republish the store
            // gauges at the freshest point instead of waiting for the
            // next throttled refresh.
            self.publish_store_gauges();
        }
        reclaimed
    }

    /// Publish the store levels (O(shards + GC queue)) to the gauge board.
    fn publish_store_gauges(&self) {
        let versions = self.store.version_count() as u64;
        let granules = self.store.granule_count() as u64;
        self.metrics.obs.gauges.set_store(
            versions,
            granules,
            self.store.max_chain_len() as u64,
            versions.saturating_sub(granules),
        );
    }

    /// Refresh the gauge board from live scheduler state. Called from
    /// the maintenance tick when observability is enabled; per-class
    /// registry sampling runs every 4th call and the store gauges
    /// (O(shards + GC queue)) every 16th, so the 50 µs maintenance
    /// cadence never turns the board into a contention source. Hot
    /// paths only ever touch the board through the `obs` read hooks'
    /// staleness record (O(1) relaxed).
    fn refresh_gauges(&self, call: u64) {
        let gauges = &self.metrics.obs.gauges;
        let now = self.clock.now();
        gauges.set_clock(now.raw());
        if !call.is_multiple_of(4) {
            return;
        }
        let w = self.newest_wall();
        let floor = w.floor();
        gauges.set_wall(
            w.anchor_time.raw(),
            w.released_at.raw(),
            floor.raw(),
            now.raw().saturating_sub(floor.raw()),
        );
        let mut dragger: Option<u32> = None;
        for c in 0..self.hierarchy.class_count() {
            let class = ClassId(c as u32);
            gauges.set_wall_component(c as u32, w.component(class).raw());
            if dragger.is_none() && w.component(class) == floor {
                // The wall floor is min over components; the first
                // class sitting at it is the "dragger" whose
                // `I_old` holds every Protocol C reader back.
                dragger = Some(c as u32);
            }
            for seg in self.hierarchy.segments_of(class) {
                gauges.set_segment_wall(seg.0, w.component(class).raw());
            }
        }
        gauges.note_wall_floor(dragger, now.raw());
        let mut active_total = 0u64;
        let mut intervals_total = 0u64;
        let mut lag_total = 0u64;
        for c in 0..self.hierarchy.class_count() {
            let class = ClassId(c as u32);
            let st = self.registry.class_stats(class);
            let i_old = self.registry.i_old(class, now);
            gauges.set_class(
                c as u32,
                i_old.raw(),
                st.running as u64,
                st.settled_lag() as u64,
            );
            active_total += st.running as u64;
            intervals_total += st.intervals as u64;
            lag_total += st.settled_lag() as u64;
        }
        gauges.set_activity(active_total, intervals_total, lag_total);
        if call.is_multiple_of(16) {
            self.publish_store_gauges();
        }
    }

    /// Force a full gauge refresh immediately (dashboards and
    /// experiments call this before sampling so every cell — including
    /// the throttled store scan — is current).
    pub fn refresh_gauges_now(&self) {
        self.refresh_gauges(16); // 16 ≡ 0 mod 4 and mod 16: full refresh
    }

    /// The GC watermark: nothing at or above it may be reclaimed.
    ///
    /// Activity-link bounds are compositions of `I_old`, which can step
    /// *below* the oldest running transaction's start (to the start of a
    /// transaction that was active at the probed instant). But any `A`,
    /// `A`-from-below or `E` evaluation applies at most `n_classes` such
    /// steps (one per class along a critical path / UCP), and `I_old` is
    /// monotone, so a **bounded descent** is a safe floor: start from
    /// the minimum of `now`, the pending wall anchor, the newest wall's
    /// anchor and floor, the walls live readers pin and the starts of
    /// the other live read-only transactions, then apply `min over
    /// classes of I_old` exactly `n_classes` times. Every bound any
    /// present or future evaluation can produce stays at or above the
    /// result (new transactions only start later, and `I_old(m)` is
    /// immutable for `m ≤ now`), so pruning versions and activity
    /// history strictly below it is safe.
    ///
    /// One wall suffices because walls never step back. `now` is read
    /// first, then the pending anchor, then the newest wall, then the
    /// shards. A wall published later was being computed at the pending
    /// read (its anchor is at or above the answer) or started after it,
    /// and a fresh computation reads its anchor under the release lock,
    /// at or above both that `now` and the newest wall's anchor. A
    /// reader the scan misses pinned, under its shard lock, the wall
    /// read here or a newer one. The genesis wall counts too: until the
    /// first release the watermark stays at `ts:1`, so GC collects
    /// nothing while the seed is the cut Protocol C reads.
    pub fn gc_watermark(&self) -> Timestamp {
        let mut f = self.clock.now();
        if let Some(anchor) = self.walls.pending_anchor() {
            f = f.min(anchor);
        }
        let w = self.newest_wall();
        f = f.min(w.floor()).min(w.anchor_time);
        self.txns.for_each(|st| {
            if let Some(ro) = &st.ro_mode {
                let floor = match ro {
                    RoMode::Wall { wall } => wall.floor().min(wall.anchor_time),
                    RoMode::OnChain { .. } => st.start,
                };
                f = f.min(floor);
            }
        });
        // Bounded descent: one round per class (the longest critical
        // path / UCP visits each class at most once).
        for _ in 0..self.hierarchy.class_count() {
            let mut nf = f;
            for c in 0..self.hierarchy.class_count() {
                nf = nf.min(self.registry.i_old(ClassId(c as u32), f));
            }
            if nf == f {
                break;
            }
            f = nf;
        }
        f
    }

    /// Abort every transaction whose watchdog lease expired, retiring
    /// its registry interval so `I_old(m)` — and with it activity-link
    /// bounds, the time wall and the GC watermark — resumes advancing.
    /// Returns the number of stragglers reaped.
    ///
    /// Safe against the straggler waking back up: the state is removed
    /// from the live table first, so a late `read`/`write` observes a
    /// dead transaction and returns `Abort`, a late `commit` returns
    /// `Aborted`, and a version installed in the race window is
    /// retracted by the writer's own liveness check.
    pub fn reap_stragglers(&self) -> usize {
        let now = Instant::now();
        let expired = self.txns.drain_expired(now);
        let reaped = expired.len();
        for (id, st) in expired {
            // Chains first, then the registry (see module docs).
            self.store.abort_writes(id, &st.write_set);
            let abort_ts = match st.class {
                Some(class) => self
                    .registry
                    .end_with(class, st.start, false, || self.clock.tick()),
                None => self.clock.tick(),
            };
            self.log.record(ScheduleEvent::Abort { txn: id, abort_ts });
            Metrics::bump(&self.metrics.aborts);
            self.metrics.reject(
                RejectReason::WatchdogAbort,
                id.0,
                st.class.map_or(0, |c| c.0),
                0,
            );
            let overdue_micros = st
                .deadline
                .map_or(0, |d| now.saturating_duration_since(d).as_micros() as u64);
            // Also closes the sampled flight: a crashed worker never
            // reaches a driver terminal, so the reap is what guarantees
            // no span leaks (E16 invariant).
            self.metrics
                .obs
                .reaped(id.0, st.start.raw(), overdue_micros);
        }
        reaped
    }

    fn lease_deadline(&self) -> Option<Instant> {
        self.config.txn_lease.map(|l| Instant::now() + l)
    }

    fn funcs(&self) -> ActivityFuncs<'_> {
        ActivityFuncs::new(&self.hierarchy, &self.registry)
    }

    /// The newest released wall; `new` released the genesis wall, so
    /// there always is one.
    fn newest_wall(&self) -> Arc<TimeWall> {
        self.walls
            .latest()
            .expect("`new` releases the genesis wall")
    }

    /// `txn`'s operation on `g` blocked on `holder`'s pending version of
    /// it. Only the class owning `g`'s segment writes `g`, so that is the
    /// holder's class — known here even when the holder has finished by
    /// the time the cause is recorded.
    fn blocked_on_txn(&self, txn: TxnId, holder: TxnId, g: GranuleId) {
        Metrics::bump(&self.metrics.blocks);
        let class = || self.hierarchy.class_of(g.segment).0;
        self.metrics.obs.blocked_on_txn(txn.0, holder.0, class);
    }

    /// Unregistered (Protocol A / Protocol C) read of `g`, owned by
    /// class `target`: serve the latest committed version below `bound`
    /// without registering anything, and report it to `obs` as `via`.
    fn read_unregistered(
        &self,
        h: &TxnHandle,
        g: GranuleId,
        target: ClassId,
        bound: Timestamp,
        via: Via,
    ) -> ReadOutcome {
        Metrics::bump(match via {
            Via::Link { .. } => &self.metrics.cross_class_reads,
            Via::Wall { .. } => &self.metrics.wall_reads,
        });
        let r = self
            .store
            .with_chain(g, |c| c.read_before_unregistered(bound));
        match r {
            MvtoReadResult::Value {
                value,
                version,
                writer,
            } => {
                Metrics::bump(&self.metrics.reads);
                self.log.record(ScheduleEvent::Read {
                    txn: h.id,
                    granule: g,
                    version,
                    writer,
                });
                let read = ServedRead {
                    txn: h.id.0,
                    start: h.start_ts.raw(),
                    target_class: target.0,
                    segment: g.segment.0,
                    key: g.key,
                    bound: bound.raw(),
                    version: version.raw(),
                };
                let obs = &self.metrics.obs;
                match via {
                    Via::Link { reader, scanned } => obs.cross_read(reader.0, read, scanned),
                    Via::Wall { anchor } => obs.wall_read(anchor.raw(), read),
                }
                ReadOutcome::Value(value)
            }
            // Unreachable by the bound proof; block defensively — and
            // count the violation loudly (`wall_violations`).
            MvtoReadResult::BlockOn(waiting_for) => {
                self.metrics
                    .reject(RejectReason::WallViolation, h.id.0, g.segment.0, g.key);
                self.blocked_on_txn(h.id, waiting_for, g);
                ReadOutcome::Block
            }
        }
    }

    /// How `st` reads a granule of `target`, under `st`'s shard lock.
    /// A Protocol A bound is looked up in `st.bounds`; a miss walks the
    /// registry and caches the bound of every class on the path (each
    /// is a prefix of it). A Protocol C reader reads the component of
    /// the wall it pinned at `begin`. Lock order: txn shard → registry
    /// class. No one takes a shard lock while holding a class lock —
    /// `begin_with`/`end_with` closures only tick, and the GC watermark
    /// and the reaper release each shard before touching the registry —
    /// so the nesting cannot deadlock.
    fn route(&self, st: &mut TxnState, target: ClassId) -> Route {
        let (reader, from_below) = match &st.ro_mode {
            None if st.class == Some(target) => return Route::Root,
            None => (st.class.expect("update transactions carry a class"), false),
            Some(RoMode::OnChain { base }) => (*base, true),
            Some(RoMode::Wall { wall }) => {
                let anchor = wall.anchor_time;
                return Route::Below(wall.component(target), Via::Wall { anchor });
            }
        };
        let (funcs, start, bounds) = (self.funcs(), st.start, &mut st.bounds);
        let (bound, scanned) = match bounds.get(target) {
            Some(bound) => {
                let fresh = || funcs.a_path(reader, target, start, from_below, |_, _| {}).0;
                debug_assert_eq!(bound, fresh(), "cached bound diverged: {reader} → {target}");
                (bound, None)
            }
            None => {
                let walk = funcs.a_path(reader, target, start, from_below, |c, t| bounds.put(c, t));
                (walk.0, Some(walk.1))
            }
        };
        Route::Below(bound, Via::Link { reader, scanned })
    }

    /// Protocol B read inside the root segment.
    fn read_root(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let r = self.store.with_chain(g, |c| c.mvto_read(h.start_ts));
        match r {
            MvtoReadResult::Value {
                value,
                version,
                writer,
            } => {
                Metrics::bump(&self.metrics.reads);
                Metrics::bump(&self.metrics.read_registrations);
                self.log.record(ScheduleEvent::Read {
                    txn: h.id,
                    granule: g,
                    version,
                    writer,
                });
                ReadOutcome::Value(value)
            }
            MvtoReadResult::BlockOn(waiting_for) => {
                // Reading one's own pending version must not block.
                debug_assert_ne!(waiting_for, h.id);
                self.blocked_on_txn(h.id, waiting_for, g);
                ReadOutcome::Block
            }
        }
    }
}

impl Scheduler for HddScheduler {
    fn name(&self) -> &'static str {
        "hdd"
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        if let Err(v) = self.hierarchy.validate_profile(profile) {
            panic!(
                "transaction profile violates the hierarchy: {v}; \
                 add the shape to the access specs and re-run `hdd-lint` \
                 (its CERT003/CERT004 help gives the Section 7.2.1 merge), \
                 or re-root the transaction in the lowest class it writes"
            );
        }
        // ordering: Relaxed — id uniqueness comes from fetch_add atomicity;
        // ids publish no memory (txn state is built after, under locks).
        let id = TxnId(self.txn_ids.fetch_add(1, Ordering::Relaxed));
        Metrics::bump(&self.metrics.begins);

        self.metrics.obs.began(
            profile.class.map_or(u32::MAX, |c| c.0),
            profile.read_segments.iter().map(|s| s.0),
            profile.write_segments.iter().map(|s| s.0),
        );

        // `Some(base)` for a read-only transaction: the base of its
        // critical path, or `None` when it is off-chain (Protocol C).
        let chain = profile
            .is_read_only()
            .then(|| self.hierarchy.read_only_chain_base(&profile.read_segments));

        // Log the begin, then build the live state: a reap can only
        // follow the insert, so the log never holds an abort before its
        // begin.
        let begun = |start, ro_mode| {
            self.log.record(ScheduleEvent::Begin {
                txn: id,
                start_ts: start,
                class: profile.class,
            });
            TxnState {
                class: profile.class,
                start,
                write_set: Vec::new(),
                ro_mode,
                deadline: self.lease_deadline(),
                bounds: Bounds::EMPTY,
            }
        };
        // Classed transactions draw their initiation timestamp *inside*
        // the class registry lock (`begin_with`): any concurrent
        // activity-link evaluation either runs before the tick (and its
        // bound cannot reach the new start) or after the insert (and sees
        // the transaction as active). Ticking outside the lock opens a
        // window where a bound computed from the registry overshoots a
        // ticked-but-unregistered transaction, breaking the immutability
        // of `I_old(m)` for `m ≤ now` that Protocol A's proof rests on.
        let tick = || self.clock.tick();
        let start = match profile.class {
            Some(class) if chain.is_none() => {
                let start = self.registry.begin_with(class, tick);
                self.txns.insert(id, begun(start, None));
                start
            }
            // A read-only transaction is known to the GC watermark only
            // through this table, so it draws its timestamp under the
            // shard lock the watermark's scan takes: the scan either sees
            // it, or passed the shard before the tick — after reading a
            // clock below the new start. Ticking outside the lock let a
            // watermark computed in between prune the versions the
            // reader's bounds select. A Protocol C reader pins the newest
            // wall there too, read before the tick so it was released
            // before the start: the scan sees the pin, or passed the
            // shard before it, having read this wall or an older one.
            class => self.txns.insert_with(id, || {
                let ro_mode = chain.map(|base| match base {
                    Some(base) => RoMode::OnChain { base },
                    None => RoMode::Wall {
                        wall: self.newest_wall(),
                    },
                });
                // A classed profile that declares no writes nests the
                // class lock inside the shard lock, as `route` does.
                let start = class.map_or_else(tick, |c| self.registry.begin_with(c, tick));
                begun(start, ro_mode)
            }),
        };
        TxnHandle {
            id,
            start_ts: start,
            class: profile.class,
        }
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let target = self.hierarchy.class_of(g.segment);
        // Liveness check + lease heartbeat (each operation renews the
        // watchdog lease), folded into routing the read.
        let deadline = self.lease_deadline();
        let route = self.txns.with(h.id, |st| {
            let st = st?;
            if deadline.is_some() {
                st.deadline = deadline;
            }
            Some(self.route(st, target))
        });
        match route {
            // Reaped by the watchdog (or already finished): the abort has
            // been logged and accounted; tell the caller to stop.
            None => ReadOutcome::Abort,
            Some(Route::Root) => self.read_root(h, g),
            Some(Route::Below(bound, via)) => self.read_unregistered(h, g, target, bound, via),
        }
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        let class = h.class.expect("read-only transactions do not write");
        assert_eq!(
            self.hierarchy.class_of(g.segment),
            class,
            "update transactions write only inside their root class"
        );
        // Wrap the payload once; the chain and the schedule log share it.
        let v = Arc::new(v);
        let value = Arc::clone(&v);
        let result = self
            .store
            .with_chain(g, |c| c.mvto_write(h.start_ts, value, h.id));
        match result {
            MvtoWriteResult::Installed => {
                // Record the write in the live state (and renew the
                // lease) *before* logging: if the watchdog reaped this
                // transaction since its last operation, the state is
                // gone, the abort is already logged, and the version
                // just installed must be retracted here — logging it
                // would fabricate a write after the logged abort.
                let deadline = self.lease_deadline();
                let alive = self.txns.with(h.id, |st| match st {
                    Some(st) => {
                        if !st.write_set.contains(&g) {
                            st.write_set.push(g);
                        }
                        if deadline.is_some() {
                            st.deadline = deadline;
                        }
                        true
                    }
                    None => false,
                });
                if !alive {
                    self.store.abort_writes(h.id, &[g]);
                    return WriteOutcome::Abort;
                }
                Metrics::bump(&self.metrics.writes);
                Metrics::bump(&self.metrics.write_registrations);
                self.log.record(ScheduleEvent::Write {
                    txn: h.id,
                    granule: g,
                    version: h.start_ts,
                    value: v,
                });
                WriteOutcome::Done
            }
            MvtoWriteResult::Rejected => {
                self.metrics
                    .reject(RejectReason::WriteTooLate, h.id.0, g.segment.0, g.key);
                WriteOutcome::Abort
            }
        }
    }

    fn commit(&self, h: &TxnHandle) -> CommitOutcome {
        let st = self.txns.remove(h.id);
        let Some(st) = st else {
            return CommitOutcome::Aborted; // unknown / already finished
        };
        // Chains first, then the registry (see module docs). The commit
        // timestamp is drawn *inside* the class registry lock
        // (`end_with`), the end-side twin of `begin_with`: ticking
        // outside the lock leaves a window where a terminated
        // transaction still looks active, so `I_old(m)` evaluates low
        // for one reader and high for another at the same `m` —
        // incompatible version choices, a dependency cycle.
        self.store.commit_writes(h.id, &st.write_set);
        let commit_ts = match st.class {
            Some(class) => self
                .registry
                .end_with(class, st.start, true, || self.clock.tick()),
            None => self.clock.tick(),
        };
        self.log.record(ScheduleEvent::Commit {
            txn: h.id,
            commit_ts,
        });
        Metrics::bump(&self.metrics.commits);
        CommitOutcome::Committed(commit_ts)
    }

    fn abort(&self, h: &TxnHandle) {
        let st = self.txns.remove(h.id);
        let Some(st) = st else { return };
        self.store.abort_writes(h.id, &st.write_set);
        // Abort timestamps are drawn under the class lock for the same
        // reason as commit timestamps (see `commit` above).
        let abort_ts = match st.class {
            Some(class) => self
                .registry
                .end_with(class, st.start, false, || self.clock.tick()),
            None => self.clock.tick(),
        };
        self.log.record(ScheduleEvent::Abort {
            txn: h.id,
            abort_ts,
        });
        Metrics::bump(&self.metrics.aborts);
    }

    fn maintenance(&self) {
        // ordering: Relaxed — private cadence counter for interval gating;
        // no cross-thread data depends on it.
        let n = self.maintenance_calls.fetch_add(1, Ordering::Relaxed) + 1;
        let wall_interval = self.config.wall_interval;
        if self.config.txn_lease.is_some() {
            self.reap_stragglers();
        }
        if wall_interval > 0 && n.is_multiple_of(wall_interval) && self.try_release_wall() {
            self.run_gc();
        }
        if self.metrics.obs.enabled() {
            self.refresh_gauges(n);
        }
    }

    fn log(&self) -> &ScheduleLog {
        &self.log
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AccessSpec;
    use mvstore::MvStore;
    use obs::Obs;
    use txn_model::{DependencyGraph, SegmentId};

    fn s(i: u32) -> SegmentId {
        SegmentId(i)
    }

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(s(seg), key)
    }

    /// Inventory chain: 2 → 1 → 0.
    fn setup() -> HddScheduler {
        let h = Hierarchy::build(
            3,
            &[
                AccessSpec::new("t1", vec![s(0)], vec![]),
                AccessSpec::new("t2", vec![s(1)], vec![s(0)]),
                AccessSpec::new("t3", vec![s(2)], vec![s(0), s(1), s(2)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(0));
        store.seed(g(1, 1), Value::Int(0));
        store.seed(g(2, 1), Value::Int(0));
        HddScheduler::new(
            Arc::new(h),
            store,
            Arc::new(LogicalClock::new()),
            HddConfig::default(),
        )
    }

    fn profile_t1() -> TxnProfile {
        TxnProfile::update(ClassId(0), vec![])
    }
    fn profile_t2() -> TxnProfile {
        TxnProfile::update(ClassId(1), vec![s(0)])
    }
    fn profile_t3() -> TxnProfile {
        TxnProfile::update(ClassId(2), vec![s(0), s(1), s(2)])
    }

    #[test]
    fn gauge_board_records_staleness_and_refreshes_from_maintenance() {
        let sched = setup();
        let gauges = &sched.metrics().obs.gauges;
        assert!(gauges.is_configured(), "new dimensions the board");
        assert_eq!(gauges.snapshot().n_classes, 3);
        sched.metrics().obs.set_enabled(true);

        // A Protocol A cross-read populates the (reader=c1, segment=0)
        // staleness cell with a strictly positive sample.
        let t1 = sched.begin(&profile_t1());
        sched.write(&t1, g(0, 1), Value::Int(42));
        assert!(matches!(sched.commit(&t1), CommitOutcome::Committed(_)));
        let t2 = sched.begin(&profile_t2());
        assert!(matches!(sched.read(&t2, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.commit(&t2), CommitOutcome::Committed(_)));
        let snap = gauges.snapshot();
        let cell = snap.staleness_for(1, 0).expect("cross-read cell");
        assert_eq!(cell.hist.count, 1);
        assert!(cell.hist.min >= 1, "staleness is strictly positive");

        // Maintenance refreshed the levels: a wall is published, its
        // lag is consistent, and the store scan ran.
        for _ in 0..40 {
            sched.maintenance(); // releases walls, refreshes gauges
        }
        let snap = gauges.snapshot();
        assert!(snap.wall_released_at > 0, "wall gauges published");
        assert!(snap.wall_floor <= snap.clock_now);
        assert_eq!(
            snap.wall_lag,
            snap.clock_now - snap.wall_floor,
            "wall lag = now − floor at refresh time"
        );
        assert!(snap.store_versions >= snap.store_granules);
        assert!(snap.store_max_chain >= 1);
        assert_eq!(snap.classes.len(), 3);
        assert_eq!(snap.segment_walls.len(), 3);
        for c in &snap.classes {
            assert_eq!(c.active, 0, "everything committed");
        }

        // Disabled flag keeps hot paths silent (board left as-is).
        sched.metrics().obs.set_enabled(false);
        let before = gauges.snapshot();
        let t3 = sched.begin(&profile_t2());
        assert!(matches!(sched.read(&t3, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.commit(&t3), CommitOutcome::Committed(_)));
        let after = gauges.snapshot();
        assert_eq!(
            after.staleness_for(1, 0).unwrap().hist.count,
            before.staleness_for(1, 0).unwrap().hist.count,
            "no recording while disabled"
        );
    }

    #[test]
    fn wall_reads_record_staleness_in_the_wall_reader_row() {
        // Branching hierarchy (1 → 0 ← 2) so an RO txn over {1, 2} is
        // off-chain and rides Protocol C.
        let h = Hierarchy::build(
            3,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        store.seed(g(1, 1), Value::Int(11));
        store.seed(g(2, 1), Value::Int(22));
        let sched = HddScheduler::new(
            Arc::new(h),
            store,
            Arc::new(LogicalClock::new()),
            HddConfig::default(),
        );
        sched.metrics().obs.set_enabled(true);
        assert!(sched.try_release_wall());
        let ro = sched.begin(&TxnProfile::read_only(vec![s(1), s(2)]));
        assert!(matches!(sched.read(&ro, g(1, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.read(&ro, g(2, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.commit(&ro), CommitOutcome::Committed(_)));
        let snap = sched.metrics().obs.gauges.snapshot();
        for seg in [1u32, 2] {
            let cell = snap
                .staleness_for(obs::gauges::WALL_READER, seg)
                .expect("wall-reader cell");
            assert_eq!(cell.hist.count, 1);
            assert!(cell.hist.min >= 1, "wall staleness strictly positive");
            assert_eq!(cell.reader_label(), "wall");
        }
        assert!(
            snap.staleness_for(obs::gauges::WALL_READER, 0).is_none(),
            "no wall read touched the root segment"
        );
    }

    #[test]
    fn begins_feed_the_shape_table_and_refreshes_name_the_wall_dragger() {
        let sched = setup();
        let obs = &sched.metrics().obs;
        obs.set_enabled(true);

        // Shape table still off: begins stay silent.
        let t = sched.begin(&profile_t1());
        assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        assert_eq!(obs.snapshot().shapes.begins(), 0);

        obs.shapes.set_enabled(true);
        for _ in 0..3 {
            let t = sched.begin(&profile_t2());
            assert!(matches!(sched.read(&t, g(0, 1)), ReadOutcome::Value(_)));
            assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        }
        let ro = sched.begin(&TxnProfile::read_only(vec![s(1), s(0), s(1)]));
        sched.abort(&ro);
        let shapes = obs.snapshot().shapes.shapes;
        let t2 = obs::Shape::new(1, [0], [1]);
        let ro = obs::Shape::new(u32::MAX, [0, 1], []);
        assert_eq!(shapes, vec![(t2, 3), (ro, 1)]);

        // Maintenance attributes the released wall's floor to a class.
        for _ in 0..32 {
            sched.maintenance();
        }
        let g = obs.snapshot().gauges;
        assert!(g.drag_class.is_some(), "a released wall names a dragger");
        assert!(g.classes.iter().map(|c| c.drag_blame).sum::<u64>() >= 1);
    }

    #[test]
    fn simple_write_then_cross_class_read() {
        let sched = setup();
        // t1 writes an event record and commits.
        let t1 = sched.begin(&profile_t1());
        assert_eq!(
            sched.write(&t1, g(0, 1), Value::Int(42)),
            WriteOutcome::Done
        );
        assert!(matches!(sched.commit(&t1), CommitOutcome::Committed(_)));

        // t2 reads the event cross-class without registration.
        let t2 = sched.begin(&profile_t2());
        match sched.read(&t2, g(0, 1)) {
            ReadOutcome::Value(v) => assert_eq!(*v, Value::Int(42)),
            other => panic!("expected value, got {other:?}"),
        }
        assert!(matches!(sched.commit(&t2), CommitOutcome::Committed(_)));

        let m = sched.metrics().snapshot();
        assert_eq!(m.read_registrations, 0, "Protocol A never registers");
        assert_eq!(m.cross_class_reads, 1);
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn cross_class_read_hides_active_writers_versions() {
        let sched = setup();
        // Active t1 writes but has not committed.
        let t1 = sched.begin(&profile_t1());
        sched.write(&t1, g(0, 1), Value::Int(99));
        // A later t2 reads D0: the bound is t1's start, so it sees the
        // initial version, and never blocks.
        let t2 = sched.begin(&profile_t2());
        match sched.read(&t2, g(0, 1)) {
            ReadOutcome::Value(v) => assert_eq!(*v, Value::Int(0)),
            other => panic!("expected initial value, got {other:?}"),
        }
        assert!(matches!(sched.commit(&t2), CommitOutcome::Committed(_)));
        assert!(matches!(sched.commit(&t1), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn own_segment_reads_register_and_cross_class_reads_do_not() {
        let sched = setup();
        let t3 = sched.begin(&profile_t3());
        // Read own segment: registers.
        assert!(matches!(sched.read(&t3, g(2, 1)), ReadOutcome::Value(_)));
        assert_eq!(sched.metrics().snapshot().read_registrations, 1);
        // Cross-class reads: no registration.
        assert!(matches!(sched.read(&t3, g(1, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.read(&t3, g(0, 1)), ReadOutcome::Value(_)));
        assert_eq!(sched.metrics().snapshot().read_registrations, 1);
        assert_eq!(sched.metrics().snapshot().cross_class_reads, 2);
        assert!(matches!(sched.commit(&t3), CommitOutcome::Committed(_)));
    }

    #[test]
    fn mvto_write_rejection_forces_abort() {
        let sched = setup();
        // Older txn t_a begins; younger t_b reads the granule (rts = I_b);
        // then t_a's write must be rejected.
        let ta = sched.begin(&profile_t1());
        let tb = sched.begin(&profile_t1());
        assert!(matches!(sched.read(&tb, g(0, 1)), ReadOutcome::Value(_)));
        assert_eq!(
            sched.write(&ta, g(0, 1), Value::Int(1)),
            WriteOutcome::Abort
        );
        sched.abort(&ta);
        assert!(matches!(sched.commit(&tb), CommitOutcome::Committed(_)));
        let m = sched.metrics().snapshot();
        assert_eq!(m.rejections, 1);
        assert_eq!(m.aborts, 1);
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn read_only_on_chain_rides_protocol_a() {
        let sched = setup();
        let t1 = sched.begin(&profile_t1());
        sched.write(&t1, g(0, 1), Value::Int(5));
        sched.commit(&t1);

        let ro = sched.begin(&TxnProfile::read_only(vec![s(0), s(1)]));
        assert!(matches!(sched.read(&ro, g(0, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.read(&ro, g(1, 1)), ReadOutcome::Value(_)));
        assert!(matches!(sched.commit(&ro), CommitOutcome::Committed(_)));
        let m = sched.metrics().snapshot();
        assert_eq!(m.read_registrations, 0);
        assert_eq!(m.cross_class_reads, 2);
        assert_eq!(m.wall_reads, 0);
    }

    #[test]
    fn cached_bounds_stay_exact_across_commits_aborts_gc_and_walls() {
        let sched = setup();
        let obs = &sched.metrics().obs;
        obs.set_enabled(true);
        // Writers of classes 0 and 1 are live when t3 begins, so its
        // bounds sit below its start.
        let w0 = sched.begin(&profile_t1());
        assert_eq!(sched.write(&w0, g(0, 1), Value::Int(1)), WriteOutcome::Done);
        let w1 = sched.begin(&profile_t2());
        assert_eq!(
            sched.write(&w1, g(1, 1), Value::Int(10)),
            WriteOutcome::Done
        );
        let t3 = sched.begin(&profile_t3());
        let read = |g| match sched.read(&t3, g) {
            ReadOutcome::Value(v) => (*v).clone(),
            other => panic!("expected a value, got {other:?}"),
        };
        // One walk up 2 → 1 → 0 caches classes 1 and 0.
        assert_eq!(read(g(0, 1)), Value::Int(0));
        assert_eq!(obs.registry_scan.count(), 1);

        // Classes 0 and 1 move on — commits, begins, aborts — while GC
        // and wall releases run.
        assert!(matches!(sched.commit(&w0), CommitOutcome::Committed(_)));
        assert!(matches!(sched.commit(&w1), CommitOutcome::Committed(_)));
        for round in 0..4 {
            for profile in [profile_t1(), profile_t2()] {
                let t = sched.begin(&profile);
                let seg = t.class.expect("update").0;
                assert_eq!(
                    sched.write(&t, g(seg, 1), Value::Int(round)),
                    WriteOutcome::Done
                );
                if round % 2 == 0 {
                    assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
                } else {
                    sched.abort(&t);
                }
            }
            sched.run_gc();
            sched.try_release_wall();
        }

        // Both reads hit, each cached bound is what a fresh fold returns
        // now, and D0 is served the version it was served before.
        assert_eq!(read(g(1, 1)), Value::Int(0));
        assert_eq!(read(g(0, 1)), Value::Int(0));
        assert_eq!(obs.registry_scan.count(), 1, "no second walk");
        let funcs = sched.funcs();
        sched.txns.with(t3.id, |st| {
            let bounds = &st.expect("t3 is live").bounds;
            for class in [ClassId(1), ClassId(0)] {
                let fresh = funcs.a_fn(ClassId(2), class, t3.start_ts);
                assert_eq!(bounds.get(class), Some(fresh), "{class}");
            }
        });
        let d0_versions: Vec<Timestamp> = sched
            .log()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                ScheduleEvent::Read {
                    txn,
                    granule,
                    version,
                    ..
                } if txn == t3.id && granule == g(0, 1) => Some(version),
                _ => None,
            })
            .collect();
        assert_eq!(d0_versions.len(), 2);
        assert_eq!(d0_versions[0], d0_versions[1]);
        assert!(matches!(sched.commit(&t3), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    /// Branching hierarchy: 1 → 0 ← 2; segments 1 and 2 off-chain.
    fn setup_branching() -> HddScheduler {
        let h = Hierarchy::build(
            3,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(0));
        store.seed(g(1, 1), Value::Int(11));
        store.seed(g(2, 1), Value::Int(22));
        HddScheduler::new(
            Arc::new(h),
            store,
            Arc::new(LogicalClock::new()),
            HddConfig::default(),
        )
    }

    /// The decision kinds in `obs`'s drained event log, in ticket order.
    fn decision_kinds(obs: &Obs) -> Vec<&'static str> {
        let events = obs.events.drain();
        let kinds = events.iter().filter_map(|(_, e)| e.decision());
        kinds.map(obs::TraceEvent::kind).collect()
    }

    #[test]
    fn one_fact_reaches_every_sink_once() {
        // Sampled phase: one release is one event, which `assemble`
        // keeps for the trace's maintenance track. The genesis wall `new`
        // released is not a release.
        let sched = setup_branching();
        let obs = &sched.metrics().obs;
        obs.set_enabled(true);
        obs.shapes.set_enabled(true);
        assert!(sched.try_release_wall());
        let events = obs.events.drain();
        let releases = events
            .iter()
            .filter(|(_, e)| matches!(e.decision(), Some(obs::TraceEvent::WallRelease { .. })));
        assert_eq!(releases.count(), 1, "one release, one event");
        assert_eq!(obs::assemble(&events).wall_releases.len(), 1);
        assert_eq!(sched.metrics().snapshot().timewalls_released, 1);

        // Stride-0 phase: every Protocol A and Protocol C read is one
        // staleness sample and one decision event, and every begin one
        // shape count (the reset keeps the table's flag).
        obs.reset();
        obs.flight.set_sample_every(0);
        for round in 0..4 {
            let t0 = sched.begin(&TxnProfile::update(ClassId(0), vec![]));
            sched.write(&t0, g(0, 1), Value::Int(round));
            assert!(matches!(sched.commit(&t0), CommitOutcome::Committed(_)));
            for class in [1, 2] {
                let t = sched.begin(&TxnProfile::update(ClassId(class), vec![s(0)]));
                assert!(matches!(sched.read(&t, g(0, 1)), ReadOutcome::Value(_)));
                assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
            }
            let chain = sched.begin(&TxnProfile::read_only(vec![s(0), s(1)]));
            assert!(matches!(sched.read(&chain, g(0, 1)), ReadOutcome::Value(_)));
            assert!(matches!(sched.read(&chain, g(1, 1)), ReadOutcome::Value(_)));
            assert!(matches!(sched.commit(&chain), CommitOutcome::Committed(_)));
            let wall = sched.begin(&TxnProfile::read_only(vec![s(1), s(2)]));
            assert!(matches!(sched.read(&wall, g(1, 1)), ReadOutcome::Value(_)));
            assert!(matches!(sched.read(&wall, g(2, 1)), ReadOutcome::Value(_)));
            assert!(matches!(sched.commit(&wall), CommitOutcome::Committed(_)));
        }
        let m = sched.metrics().snapshot();
        let facts = m.cross_class_reads + m.wall_reads;
        assert_eq!((m.cross_class_reads, m.wall_reads), (16, 8));
        let staleness = obs.gauges.snapshot().staleness;
        assert_eq!(staleness.iter().map(|c| c.hist.count).sum::<u64>(), facts);
        assert_eq!(obs.snapshot().shapes.begins(), 4 * 5);
        let kinds = decision_kinds(obs);
        let of = |kind| kinds.iter().filter(|k| **k == kind).count() as u64;
        assert_eq!(of("cross-read"), m.cross_class_reads);
        assert_eq!(of("wall-read"), m.wall_reads);
        // One registry walk per transaction and path: the chain reader's
        // D0 walk (from below class 1) caches class 1, so its D1 read
        // walks nothing — 3 walks a round for 4 Protocol A reads.
        assert_eq!(obs.registry_scan.count(), 12);
    }

    #[test]
    fn protocol_c_reads_below_the_wall_newest_at_its_begin() {
        // Protocol C's rule: the newest wall released before initiation.
        // The reader begins after W1; a commit, five newer walls and a GC
        // all land before its first read, which must still see W1's cut.
        let sched = setup_branching();
        let write = |v| {
            let t = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0)]));
            assert_eq!(sched.write(&t, g(1, 1), Value::Int(v)), WriteOutcome::Done);
            assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        };
        write(12);
        assert!(sched.try_release_wall());
        let ro = sched.begin(&TxnProfile::read_only(vec![s(1), s(2)]));
        write(99);
        for _ in 0..5 {
            assert!(sched.try_release_wall());
        }
        sched.run_gc();
        match sched.read(&ro, g(1, 1)) {
            ReadOutcome::Value(v) => assert_eq!(*v, Value::Int(12), "read past W1"),
            other => panic!("expected a value, got {other:?}"),
        }
        assert!(matches!(sched.commit(&ro), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    #[should_panic(expected = "violates the hierarchy")]
    fn illegal_profile_panics() {
        let sched = setup();
        // Class 0 (the top) may not read segment 2 (below it).
        sched.begin(&TxnProfile::update(ClassId(0), vec![s(2)]));
    }

    #[test]
    fn gc_reclaims_old_versions() {
        let sched = setup();
        for i in 0..20 {
            let t = sched.begin(&profile_t1());
            sched.write(&t, g(0, 1), Value::Int(i));
            sched.commit(&t);
        }
        // The genesis wall pins the seed until a wall is released.
        assert_eq!(sched.run_gc(), 0);
        assert!(sched.try_release_wall());
        let before = sched.store().version_count();
        let reclaimed = sched.run_gc();
        assert!(reclaimed > 0, "old versions should be reclaimed");
        assert!(sched.store().version_count() < before);
        // The latest value survives.
        assert_eq!(sched.store().latest_value(g(0, 1)), Value::Int(19));

        // Until the next release the watermark stays put, so a second
        // collection finds nothing: a running update and newer versions
        // elsewhere all start above it. `maintenance` therefore collects
        // only after a release.
        let wm = sched.gc_watermark();
        let running = sched.begin(&profile_t2());
        for i in 0..5 {
            let t = sched.begin(&profile_t3());
            sched.write(&t, g(2, 1), Value::Int(i));
            sched.commit(&t);
        }
        assert_eq!(sched.gc_watermark(), wm);
        assert_eq!(sched.run_gc(), 0);
        sched.commit(&running);
    }

    #[test]
    fn time_slice_reads_are_cut_consistent() {
        let sched = setup();
        // Round 1: event + derived inventory.
        let t1 = sched.begin(&profile_t1());
        sched.write(&t1, g(0, 1), Value::Int(1));
        sched.commit(&t1);
        let t2 = sched.begin(&profile_t2());
        sched.read(&t2, g(0, 1));
        sched.write(&t2, g(1, 1), Value::Int(10));
        sched.commit(&t2);
        assert!(sched.try_release_wall());
        let wall1 = sched.walls().latest().unwrap();

        // Round 2 overwrites both.
        let t3 = sched.begin(&profile_t1());
        sched.write(&t3, g(0, 1), Value::Int(2));
        sched.commit(&t3);
        let t4 = sched.begin(&profile_t2());
        sched.read(&t4, g(0, 1));
        sched.write(&t4, g(1, 1), Value::Int(20));
        sched.commit(&t4);

        // The historical slice at wall1 still shows round 1 in BOTH
        // segments, with no transaction and no registration.
        assert_eq!(sched.read_at_wall(&wall1, g(0, 1)), Value::Int(1));
        assert_eq!(sched.read_at_wall(&wall1, g(1, 1)), Value::Int(10));
        // The present shows round 2.
        assert_eq!(sched.store().latest_value(g(1, 1)), Value::Int(20));
    }

    /// Branching hierarchy (1 → 0 ← 2) with a short watchdog lease. The
    /// branch matters: the wall component for the off-anchor branch
    /// takes a *downward* `C_late` step through the shared class 0, so a
    /// straggler there wedges wall release — the exact liveness hole the
    /// watchdog closes.
    fn setup_with_lease(lease: Duration) -> HddScheduler {
        let h = Hierarchy::build(
            3,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(0));
        store.seed(g(1, 1), Value::Int(0));
        store.seed(g(2, 1), Value::Int(0));
        HddScheduler::new(
            Arc::new(h),
            store,
            Arc::new(LogicalClock::new()),
            HddConfig {
                txn_lease: Some(lease),
                ..HddConfig::default()
            },
        )
    }

    #[test]
    fn watchdog_reaps_straggler_and_time_wall_resumes() {
        let sched = setup_with_lease(Duration::from_millis(1));
        sched.metrics().obs.set_enabled(true);
        // A straggler begins, writes, then stalls forever.
        let t = sched.begin(&profile_t1());
        assert_eq!(sched.write(&t, g(0, 1), Value::Int(9)), WriteOutcome::Done);
        // Later activity moves the clock past the straggler's start, so
        // a wall anchored "now" must wait on the straggler: `c_late` is
        // not computable and no wall can be released.
        let t2 = sched.begin(&profile_t2());
        assert!(matches!(sched.commit(&t2), CommitOutcome::Committed(_)));
        assert!(!sched.try_release_wall(), "wall pinned by the straggler");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sched.reap_stragglers(), 1);
        // The registry interval is retired: the wall resumes.
        assert!(sched.try_release_wall(), "wall released after the reap");
        // The straggler's pending version was retracted.
        assert_eq!(sched.store().latest_value(g(0, 1)), Value::Int(0));
        // Its stale handle observes the abort.
        assert_eq!(sched.read(&t, g(0, 1)), ReadOutcome::Abort);
        assert!(matches!(sched.commit(&t), CommitOutcome::Aborted));
        let m = sched.metrics().snapshot();
        assert_eq!(m.rej_watchdog_abort, 1);
        assert_eq!(m.rejections, 1);
        assert_eq!(m.aborts, 1);
        let kinds = decision_kinds(&sched.metrics().obs);
        assert!(kinds.contains(&"watchdog-abort"));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn write_after_reap_retracts_the_version() {
        let sched = setup_with_lease(Duration::from_millis(1));
        let t = sched.begin(&profile_t1());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sched.reap_stragglers(), 1);
        // The woken straggler tries to write: the install is retracted
        // (no orphaned pending version) and the caller told to stop.
        assert_eq!(sched.write(&t, g(0, 1), Value::Int(7)), WriteOutcome::Abort);
        assert_eq!(sched.store().latest_value(g(0, 1)), Value::Int(0));
        // A fresh transaction proceeds normally over the same granule.
        let t2 = sched.begin(&profile_t1());
        assert_eq!(sched.write(&t2, g(0, 1), Value::Int(8)), WriteOutcome::Done);
        assert!(matches!(sched.commit(&t2), CommitOutcome::Committed(_)));
        assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    }

    #[test]
    fn active_transactions_renew_their_lease() {
        let sched = setup_with_lease(Duration::from_secs(3600));
        let t = sched.begin(&profile_t1());
        assert!(matches!(sched.read(&t, g(0, 1)), ReadOutcome::Value(_)));
        // Nothing is overdue: the reap finds no one.
        assert_eq!(sched.reap_stragglers(), 0);
        assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
    }

    #[test]
    fn maintenance_releases_walls_periodically() {
        let sched = setup();
        for _ in 0..20 {
            sched.maintenance();
        }
        assert!(sched.walls().latest().is_some());
        assert!(sched.metrics().snapshot().timewalls_released > 0);
    }
}
