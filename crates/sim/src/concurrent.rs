//! Multi-threaded closed-loop driver for wall-clock runs: the one worker
//! loop of this repository.
//!
//! `workers` threads claim transaction programs off a shared slice via a
//! single atomic cursor — no queue mutex, no per-claim allocation — and
//! drive them to commit, retrying blocked operations under bounded
//! exponential backoff and restarting aborted ones. One ticker thread
//! calls the scheduler's maintenance hook until every worker has exited
//! (and for `drain` longer), watching the time wall. Semantics match the
//! deterministic driver; only the interleaving source differs. A
//! [`FaultPlan`] is an argument, not a second driver: each operation first
//! asks its program's [`FaultKind`], and the empty plan is the plain run.

use crate::driver::RunStats;
use chaos::{FaultKind, FaultPlan};
use obs::span::OpSpan;
use obs::{SpanEvent, SpanKind, Terminal, TraceEvent, NO_CLASS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, DependencyGraph, GroupCommitWal, ReadOutcome, ScheduleEvent, Scheduler, Step,
    TxnProgram, WriteOutcome,
};

/// Concurrent driver configuration.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Worker threads.
    pub workers: usize,
    /// Restart budget per program: a program gives up when its last try
    /// aborts after this many restarts during which no program committed.
    /// Restarts while others commit are not charged, so the budget ends
    /// livelocks, not contention.
    pub max_restarts: usize,
    /// Maintenance tick interval (wall release, GC, watchdog reaping).
    pub maintenance_interval: Duration,
    /// Record the schedule and check it for serializability afterwards.
    /// The driver sets the scheduler's log to this at the start of every
    /// run, so `false` (pure-throughput mode) records nothing and leaves
    /// the verdict `None`, and a later `true` run records again.
    pub verify: bool,
    /// Enable the scheduler's observability sidecar for this run: the
    /// driver then records commit latency (claim → commit, retries
    /// included), per-operation service time, block-wait spans and
    /// backoff sleeps into `scheduler.metrics().obs`, and an injected
    /// fault lands in the decision trace as a [`TraceEvent::CrashPoint`].
    /// Off by default — disabled recording costs one branch per claimed
    /// program.
    pub obs: bool,
    /// Per-transaction deadline, measured from program claim and
    /// spanning all retries. A program still blocked or restarting past
    /// its deadline is aborted and counted in
    /// [`RunStats::deadline_exceeded`] rather than spinning without
    /// bound (a wedged scheduler otherwise hangs the whole run). `None`
    /// disables the deadline.
    pub txn_deadline: Option<Duration>,
    /// Flight-recorder sampling stride, applied when `obs` is on: `N`
    /// traces every Nth transaction attempt fully (admission, op and
    /// wait spans, terminal) while the other N−1 run counter-only —
    /// including the scheduler's per-op decision traces, which follow
    /// the same stride. 0 (the default) leaves the recorder untouched:
    /// plain obs mode, exactly as before the flight recorder existed.
    pub flight_sample: u64,
    /// Group-commit WAL: when set, each worker journals its update
    /// transaction's redo events (`Begin`, accepted `Write`s, `Commit`)
    /// through the WAL after the in-memory commit and counts the commit
    /// only once its batch is durable — the *group-commit ack rule*.
    /// Read-only transactions skip the WAL. A submit that fails because
    /// the WAL crashed lands in [`ConcurrentStats::wal_lost`] instead of
    /// `committed`.
    pub wal: Option<Arc<GroupCommitWal>>,
    /// How long maintenance keeps ticking after the last worker exits,
    /// so the watchdog reaps stragglers crashed near the end. Make this
    /// comfortably larger than the scheduler's lease.
    pub drain: Duration,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            workers: 4,
            max_restarts: 100,
            maintenance_interval: Duration::from_micros(50),
            verify: true,
            obs: false,
            txn_deadline: None,
            flight_sample: 0,
            wal: None,
            drain: Duration::ZERO,
        }
    }
}

impl ConcurrentConfig {
    /// The preset for fault runs: faults reach the decision trace, nothing
    /// spins forever behind a corpse, the drain covers a 5–20 ms lease.
    pub fn fault_run() -> Self {
        ConcurrentConfig {
            obs: true,
            txn_deadline: Some(Duration::from_secs(5)),
            drain: Duration::from_millis(50),
            ..ConcurrentConfig::default()
        }
    }
}

/// Bounded exponential backoff for Block outcomes: a few spin hints,
/// then sleeps doubling from 1 µs up to a 256 µs ceiling. Keeps blocked
/// workers off the contended state without unbounded busy-waiting (on
/// oversubscribed machines, plain `yield_now` thrashes the scheduler).
/// Returns the requested sleep (ZERO while still spinning) so callers
/// can account backoff pressure.
fn backoff(spins: u32) -> Duration {
    if spins <= 3 {
        std::hint::spin_loop();
        Duration::ZERO
    } else {
        let exp = (spins - 4).min(8); // 1 µs << 8 = 256 µs ceiling
        let d = Duration::from_micros(1u64 << exp);
        std::thread::sleep(d);
        d
    }
}

/// Run `f`, recording its wall time into `hist` when there is one.
#[inline]
fn timed<T>(hist: Option<&obs::LatencyRecorder>, f: impl FnOnce() -> T) -> T {
    let Some(hist) = hist else { return f() };
    let t = Instant::now();
    let r = f();
    hist.record(t.elapsed().as_nanos() as u64);
    r
}

/// Gate for oversubscribed stress/sweep legs: `Some(requested)` when the
/// host can meaningfully run `requested` workers (mild oversubscription
/// is the point of the high legs, so anything up to 8× the available
/// parallelism passes), `None` when the leg should be skipped — on a
/// 1–2 core machine a 16/32-worker leg measures scheduler thrash and
/// can run for minutes without saying anything about the protocol.
pub fn capped_workers(requested: usize) -> Option<usize> {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (requested <= avail.saturating_mul(8)).then_some(requested)
}

/// Result of a concurrent run: the shared [`RunStats`] plus wall time, the
/// durability and fault books and the time wall as the ticker saw it. Each
/// program is in exactly one of `committed`, `wal_lost`, `gave_up`,
/// `deadline_exceeded`, `crashed`.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Common counters (steps counts operation attempts).
    pub stats: RunStats,
    /// Wall-clock duration of the run, drain included.
    pub elapsed: Duration,
    /// Committed transactions per second (durable commits only when a
    /// WAL is configured).
    pub throughput: f64,
    /// Commits whose durability ack failed because the WAL crashed
    /// (committed in memory, not on disk; excluded from `committed`).
    /// Always 0 without a WAL.
    pub wal_lost: usize,
    /// Counted commits that carried redo records through the WAL
    /// (update transactions; read-only commits have nothing to
    /// journal). Always 0 without a WAL.
    pub journaled: usize,
    /// Crash faults fired (transactions abandoned without abort).
    pub crashed: usize,
    /// Stall faults fired ([`RunStats::stalled`] is the deterministic
    /// driver's step-limit count and stays 0 here).
    pub stalled: usize,
    /// Commit-delay faults fired.
    pub delayed: usize,
    /// Time walls released during the run, drain included.
    pub wall_releases: u64,
    /// Longest observed gap between consecutive wall releases,
    /// including the tail from the last release to the end of the
    /// drain. When no wall was ever released this is the whole run —
    /// under HDD with a lease set, a bounded value is the proof that
    /// injected stragglers never wedged the time wall for good.
    pub max_release_gap: Duration,
}

fn add(counter: &AtomicUsize, n: usize) {
    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
    counter.fetch_add(n, Ordering::Relaxed);
}

/// How an attempt — and, unless it is `Aborted`, its program — ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ended {
    /// Committed, and acknowledged durable when a WAL is configured.
    Committed,
    /// Committed in memory, but the WAL crashed before the ack.
    WalLost,
    /// A crash fault fired: abandoned WITHOUT abort, for the watchdog.
    Crashed,
    /// The scheduler aborted the attempt; the program restarts.
    Aborted,
    /// Aborted on the last try the restart budget allows.
    GaveUp,
    /// Refused — blocked or aborted — past the program's deadline.
    Deadline,
}

/// What the scheduler said to one `read` / `write` / `commit` call.
enum Answer {
    /// Served; the op span's kind, segment and key (0, 0 for commit).
    Served(SpanKind, u32, u64),
    Block,
    Abort,
}

/// Drop guard: a worker leaving — normally or by panic — tells the
/// ticker, which stops once the last one has left.
struct Leaving<'a>(&'a AtomicUsize);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What the threads of one run share.
struct Run<'a> {
    scheduler: &'a dyn Scheduler,
    cfg: &'a ConcurrentConfig,
    programs: &'a [TxnProgram],
    plan: &'a FaultPlan,
    /// Loaded once: the flag is stable for the whole run, so the
    /// disabled path costs a branch per operation, not an atomic load.
    obs_on: bool,
    /// Sampled mode: every Nth attempt gets the full span treatment, the
    /// rest stay counter-only (op timing included: near-zero overhead).
    flight_on: bool,
    /// The next program to claim, and the workers that have not left.
    cursor: AtomicUsize,
    active: AtomicUsize,
    /// The books, taken by value after the join. Attempts by how they
    /// ended, one slot per `Ended` in declaration order: a program lands
    /// in exactly one other than `Aborted`'s, which counts restarts.
    ended: [AtomicUsize; 6],
    /// Faults fired, by `FaultCode as usize`: crash, stall, delayed commit.
    fired: [AtomicUsize; 3],
    journaled: AtomicUsize,
    calls: AtomicUsize,
}

impl Run<'_> {
    /// Programs committed so far, across workers.
    fn commits(&self) -> usize {
        // ordering: Relaxed — a progress probe; a stale read only charges one restart to the budget.
        self.ended[Ended::Committed as usize].load(Ordering::Relaxed)
    }

    /// One attempt of `program` as a fresh transaction (hence a fresh
    /// flight and redo journal). The commit is the step loop's last
    /// position, so blocking, backoff, the wait span and the fault check
    /// exist once. On its `last_try` an aborted program gives up.
    fn attempt(
        &self,
        worker: u32,
        program: &TxnProgram,
        fault: &mut FaultKind,
        deadline: Option<Instant>,
        last_try: bool,
    ) -> Ended {
        let (scheduler, obs_on) = (self.scheduler, self.obs_on);
        let mobs = &scheduler.metrics().obs;
        let handle = scheduler.begin(&program.profile);
        let txn = handle.id.0;
        // `admit` counts the attempt; true when it falls on the stride.
        let class = handle.class.map_or(NO_CLASS, |c| c.0);
        let traced = self.flight_on && mobs.admit(txn, class, worker);
        // In sampled mode, unsampled transactions skip op timing too.
        let op_timer = (obs_on && (!self.flight_on || traced)).then_some(&mobs.op_service);
        // Read-only transactions have nothing to journal.
        let wal = self.cfg.wal.as_deref().filter(|_| handle.class.is_some());
        let mut redo: Vec<ScheduleEvent> = Vec::new();
        if wal.is_some() {
            redo.push(ScheduleEvent::Begin {
                txn: handle.id,
                start_ts: handle.start_ts,
                class: handle.class,
            });
        }
        let mut ctx = ReadCtx::default();
        let (mut pc, mut calls) = (0usize, 0usize);
        let mut spins = 0u32;
        // The open `Block` streak on the current operation, if any: its
        // start on the flight clock and the ns of it slept in backoff. It
        // ends when the operation is served or the attempt given up — one
        // block-wait sample and, on a sampled attempt, one wait span.
        let mut streak: Option<(u64, u64)> = None;
        let close = |streak: &mut Option<(u64, u64)>| {
            if let Some((start_ns, slept_ns)) = streak.take() {
                let dur_ns = mobs.flight.now_ns().saturating_sub(start_ns);
                mobs.block_wait.record(dur_ns);
                if traced {
                    mobs.span(SpanEvent::Wait {
                        txn,
                        start_ns,
                        dur_ns,
                        slept_ns,
                    });
                }
            }
        };
        let ended = loop {
            // `None` is the position after the last step: the commit.
            let step = program.steps.get(pc);
            // Fault point, before every position. A fault fires at most
            // once per program, even across restarts: firing disarms it.
            if let Some((code, pause)) = fault.due(pc, step.is_none()) {
                *fault = FaultKind::None;
                mobs.emit(TraceEvent::CrashPoint {
                    txn,
                    op_index: pc as u64,
                    fault: code,
                });
                add(&self.fired[code as usize], 1);
                let Some(pause) = pause else {
                    break Ended::Crashed;
                };
                std::thread::sleep(pause);
            }
            calls += 1;
            let span_start = traced.then(|| mobs.flight.now_ns());
            let answer = match step {
                Some(Step::Read(g)) => match timed(op_timer, || scheduler.read(&handle, *g)) {
                    ReadOutcome::Value(v) => {
                        ctx.record(*g, v);
                        Answer::Served(SpanKind::Read, g.segment.0, g.key)
                    }
                    ReadOutcome::Block => Answer::Block,
                    ReadOutcome::Abort => Answer::Abort,
                },
                Some(Step::Write(g, src)) => {
                    let v = src.resolve(&ctx);
                    let journaled = wal.map(|_| Arc::new(v.clone()));
                    match timed(op_timer, || scheduler.write(&handle, *g, v)) {
                        WriteOutcome::Done => {
                            if let Some(value) = journaled {
                                redo.push(ScheduleEvent::Write {
                                    txn: handle.id,
                                    granule: *g,
                                    version: handle.start_ts,
                                    value,
                                });
                            }
                            Answer::Served(SpanKind::Write, g.segment.0, g.key)
                        }
                        WriteOutcome::Block => Answer::Block,
                        WriteOutcome::Abort => Answer::Abort,
                    }
                }
                None => match timed(op_timer, || scheduler.commit(&handle)) {
                    CommitOutcome::Committed(commit_ts) => {
                        // Group-commit ack rule: the commit counts only
                        // once its batch is on disk.
                        if let Some(wal) = wal {
                            redo.push(ScheduleEvent::Commit {
                                txn: handle.id,
                                commit_ts,
                            });
                            let Ok(ack) = wal.submit(&redo) else {
                                break Ended::WalLost;
                            };
                            if let Some(ack) = ack {
                                let (frames, bytes) = (ack.frames as u64, ack.bytes as u64);
                                mobs.gauges.record_wal_batch(frames, bytes, ack.fsync_ns);
                            }
                            add(&self.journaled, 1);
                        }
                        Answer::Served(SpanKind::Commit, 0, 0)
                    }
                    CommitOutcome::Block => Answer::Block,
                    CommitOutcome::Aborted => Answer::Abort,
                },
            };
            match answer {
                Answer::Served(kind, segment, key) => {
                    close(&mut streak);
                    if let Some(start_ns) = span_start {
                        let dur_ns = mobs.flight.now_ns().saturating_sub(start_ns);
                        let op = OpSpan {
                            kind,
                            segment,
                            key,
                            start_ns,
                            dur_ns,
                        };
                        mobs.span(SpanEvent::Op { txn, op });
                    }
                    if step.is_none() {
                        break Ended::Committed;
                    }
                    pc += 1;
                    spins = 0;
                }
                refused => {
                    // A program refused past its deadline — still blocked
                    // or just aborted — ends here.
                    let late = deadline.is_some_and(|d| Instant::now() >= d);
                    let aborted = matches!(refused, Answer::Abort);
                    if aborted || late {
                        // A commit answered `Aborted` is already rolled
                        // back; everything else the driver aborts.
                        if !(aborted && step.is_none()) {
                            scheduler.abort(&handle);
                        }
                        break match (late, last_try) {
                            (true, _) => Ended::Deadline,
                            (false, true) => Ended::GaveUp,
                            (false, false) => Ended::Aborted,
                        };
                    }
                    if obs_on && streak.is_none() {
                        streak = Some((span_start.unwrap_or_else(|| mobs.flight.now_ns()), 0));
                    }
                    spins += 1;
                    let slept = backoff(spins).as_nanos() as u64;
                    if let Some((_, slept_ns)) = streak.as_mut().filter(|_| slept > 0) {
                        mobs.backoff_sleep.record(slept);
                        *slept_ns += slept;
                    }
                }
            }
        };
        close(&mut streak);
        if traced {
            let terminal = match ended {
                Ended::Committed | Ended::WalLost => Terminal::Committed,
                // If the watchdog reaps the corpse, its `Reaped` wins.
                Ended::Crashed => Terminal::Abandoned,
                Ended::Aborted => Terminal::Aborted,
                Ended::GaveUp => Terminal::GaveUp,
                Ended::Deadline => Terminal::DeadlineExceeded,
            };
            mobs.span(SpanEvent::End {
                txn,
                at_ns: mobs.flight.now_ns(),
                terminal,
            });
        }
        add(&self.calls, calls);
        add(&self.ended[ended as usize], 1);
        ended
    }

    /// One worker: claim programs until none are left, driving each to
    /// its end — restart on abort within the budget, give up past it.
    fn work(&self, worker: u32) {
        let _leaving = Leaving(&self.active);
        let (cfg, mobs) = (self.cfg, &self.scheduler.metrics().obs);
        loop {
            // ordering: Relaxed — work-claim ticket; uniqueness comes from fetch_add atomicity and the claimed program is immutable.
            let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(program) = self.programs.get(idx) else {
                return;
            };
            if self.obs_on {
                // Driver-progress gauge for hdd-top: two relaxed stores,
                // works for any scheduler (the board's global cells need
                // no configuration).
                mobs.gauges
                    .set_driver_progress(idx as u64 + 1, self.programs.len() as u64);
            }
            // Both span the program's whole life, restarts included.
            let claimed_at = self.obs_on.then(Instant::now);
            let deadline = cfg.txn_deadline.map(|d| Instant::now() + d);
            let mut fault = self.plan.faults.get(idx).copied().unwrap_or_default();
            let mut tries = 0usize;
            let ended = loop {
                let last_try = tries == cfg.max_restarts;
                let commits = self.commits();
                let ended = self.attempt(worker, program, &mut fault, deadline, last_try);
                if ended != Ended::Aborted {
                    break ended;
                }
                // Charged by work, not by attempts (see `max_restarts`).
                if self.commits() == commits {
                    tries += 1;
                }
            };
            if let (Ended::Committed, Some(t)) = (ended, claimed_at) {
                mobs.commit_latency.record(t.elapsed().as_nanos() as u64);
            }
        }
    }

    /// The ticker: maintenance until the last worker has left and the
    /// drain has passed, so a worker blocked on maintenance-driven state
    /// (time-wall release, lock queues) makes progress and the watchdog
    /// reaps end-of-run corpses. Walls are released only in there: sampling
    /// after each call sees every one. Returns (releases, longest gap).
    fn tick(&self) -> (u64, Duration) {
        let walls = &self.scheduler.metrics().timewalls_released;
        // ordering: Relaxed — peek at a release counter; a stale read only widens the observed gap.
        let released = || walls.load(Ordering::Relaxed);
        let first = released();
        let (mut last, mut last_change) = (first, Instant::now());
        let mut max_gap = Duration::ZERO;
        let mut stop_at: Option<Instant> = None;
        loop {
            self.scheduler.maintenance();
            let now = Instant::now();
            let cur = released();
            if cur != last {
                max_gap = max_gap.max(now - last_change);
                (last, last_change) = (cur, now);
            }
            if self.active.load(Ordering::Acquire) == 0
                && now >= *stop_at.get_or_insert(now + self.cfg.drain)
            {
                return (last - first, max_gap.max(now - last_change));
            }
            std::thread::sleep(self.cfg.maintenance_interval);
        }
    }
}

/// Run `programs` across threads.
pub fn run_concurrent(
    scheduler: &dyn Scheduler,
    programs: Vec<TxnProgram>,
    cfg: &ConcurrentConfig,
) -> ConcurrentStats {
    run_with_faults(scheduler, programs, &FaultPlan::clean(0), cfg)
}

/// Run `programs` across threads, program `i` meeting `plan.faults[i]`
/// (none past the plan's end). A plan that crashes workers needs a
/// scheduler that heals — HDD with a lease — and a `drain` above that
/// lease: start from [`ConcurrentConfig::fault_run`].
pub fn run_with_faults(
    scheduler: &dyn Scheduler,
    programs: Vec<TxnProgram>,
    plan: &FaultPlan,
    cfg: &ConcurrentConfig,
) -> ConcurrentStats {
    let mobs = &scheduler.metrics().obs;
    scheduler.log().set_enabled(cfg.verify);
    if cfg.obs {
        mobs.set_enabled(true);
    }
    if cfg.flight_sample > 0 {
        mobs.flight.set_sample_every(cfg.flight_sample);
    }
    let obs_on = mobs.enabled();
    let run = Run {
        scheduler,
        cfg,
        programs: &programs,
        plan,
        obs_on,
        flight_on: obs_on && mobs.flight.active(),
        cursor: AtomicUsize::new(0),
        active: AtomicUsize::new(cfg.workers),
        ended: Default::default(),
        fired: Default::default(),
        journaled: AtomicUsize::new(0),
        calls: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let (wall_releases, max_release_gap) = std::thread::scope(|scope| {
        let ticker = scope.spawn(|| run.tick());
        for worker in 0..cfg.workers {
            let run = &run;
            scope.spawn(move || run.work(worker as u32));
        }
        // A worker's panic is the run's: the scope re-raises it once the
        // other workers and the ticker have wound down — never a hang.
        ticker.join().expect("the ticker panicked")
    });
    let elapsed = start.elapsed();
    let [committed, wal_lost, crashed, restarts, gave_up, deadline_exceeded] =
        run.ended.map(AtomicUsize::into_inner);
    let [_crash, stalled, delayed] = run.fired.map(AtomicUsize::into_inner);
    let programs_ended = committed + wal_lost + crashed + gave_up + deadline_exceeded;
    debug_assert_eq!(programs_ended, programs.len(), "each ends exactly one way");

    let cycle = cfg
        .verify
        .then(|| DependencyGraph::from_log(scheduler.log()).find_cycle());
    let stats = RunStats {
        committed,
        restarts,
        gave_up,
        deadline_exceeded,
        stalled: 0,
        steps: run.calls.into_inner() as u64,
        metrics: scheduler.metrics().snapshot(),
        serializable: cycle.as_ref().map(Option::is_none),
        cycle: cycle.flatten(),
    };
    ConcurrentStats {
        throughput: committed as f64 / elapsed.as_secs_f64().max(1e-9),
        stats,
        elapsed,
        wal_lost,
        journaled: run.journaled.into_inner(),
        crashed,
        stalled,
        delayed,
        wall_releases,
        max_release_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_scheduler, SchedulerKind};
    use chaos::{DiskFaultKind, DiskFaultPlan};
    use hdd::{AccessSpec, HddConfig, HddScheduler, Hierarchy};
    use mvstore::MvStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicU64;
    use txn_model::{
        decode_wal, ClassId, GranuleId, GroupCommitConfig, LogicalClock, SegmentId, TxnProfile,
        Value,
    };
    use workloads::banking::Banking;
    use workloads::inventory::{Inventory, InventoryConfig};
    use workloads::Workload;

    #[test]
    fn concurrent_hdd_banking_serializable() {
        let mut w = Banking::new(16);
        let mut rng = StdRng::seed_from_u64(9);
        let programs: Vec<_> = (0..200).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        assert_eq!(out.stats.gave_up, 0);
        assert_eq!(out.stats.committed, 200);
        assert_eq!(out.stats.serializable, Some(true), "{:?}", out.stats.cycle);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn concurrent_inventory_under_2pl_and_hdd() {
        for kind in [SchedulerKind::TwoPl, SchedulerKind::Hdd] {
            let mut w = Inventory::new(InventoryConfig {
                items: 16,
                ..InventoryConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(21);
            let programs: Vec<_> = (0..150).map(|_| w.generate(&mut rng)).collect();
            let (sched, _store) = build_scheduler(kind, &w);
            let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
            assert_eq!(
                out.stats.serializable,
                Some(true),
                "{} cycle: {:?}",
                kind.name(),
                out.stats.cycle
            );
            assert!(out.stats.committed > 0);
        }
    }

    #[test]
    fn wal_mode_journals_every_commit_durably() {
        use txn_model::{decode_wal, GroupCommitConfig};

        let dir = std::env::temp_dir().join(format!("sim-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let wal = Arc::new(
            GroupCommitWal::create(
                &path,
                GroupCommitConfig {
                    max_batch_frames: 8,
                    ..GroupCommitConfig::default()
                },
            )
            .unwrap(),
        );

        let mut w = Banking::new(16);
        let mut rng = StdRng::seed_from_u64(41);
        let programs: Vec<_> = (0..120).map(|_| w.generate(&mut rng)).collect();
        let (sched, store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 120);
        assert_eq!(out.wal_lost, 0);
        assert_eq!(out.stats.serializable, Some(true));

        // The on-disk WAL carries exactly one Commit per counted commit
        // and replays to the same balances the store holds.
        let bytes = std::fs::read(&path).unwrap();
        let (events, report) = decode_wal(&bytes).unwrap();
        assert!(!report.torn());
        let commits = events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
            .count();
        assert_eq!(commits, 120);
        let replayed = mvstore::MvStore::new();
        w.seed(&replayed);
        mvstore::recover(&replayed, &events);
        assert_eq!(
            w.total_balance(&replayed),
            w.total_balance(store.as_ref()),
            "WAL replay reconstructs the committed state"
        );

        // Group commit amortized fsyncs: fewer batches than frames.
        let stats = wal.stats();
        assert!(stats.frames > stats.batches, "{stats:?}");
        let gauges = sched.metrics().obs.gauges.snapshot();
        assert_eq!(gauges.wal_batches, stats.batches);
        assert!(gauges.fsync_ns.count > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_mode_records_latencies_per_commit() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(13);
        let programs: Vec<_> = (0..80).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        let snap = sched.metrics().obs.snapshot();
        assert_eq!(out.stats.committed, 80);
        assert_eq!(
            snap.commit_latency.count, 80,
            "one commit-latency sample per committed program"
        );
        assert!(
            snap.op_service.count >= out.stats.steps,
            "every attempted operation is timed"
        );
        assert!(snap.commit_latency.p50() > 0);
    }

    #[test]
    fn flight_sampling_records_span_trees_that_all_terminate() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(17);
        let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            flight_sample: 1,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 60);
        let fr = &sched.metrics().obs.flight;
        assert!(fr.admitted() >= 60, "every attempt is admitted");
        let events = &sched.metrics().obs.events;
        assert_eq!(events.dropped(), 0, "small run must fit the ring");
        let log = obs::assemble(&events.drain());
        assert_eq!(log.open, 0, "no span leaks: every flight terminates");
        let committed: Vec<_> = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(obs::Terminal::Committed))
            .collect();
        assert_eq!(committed.len(), 60);
        for f in &committed {
            assert!(
                f.ops.iter().any(|o| o.kind == obs::SpanKind::Commit),
                "committed flight without a commit span"
            );
            assert!(f.ops.len() >= 2, "reads/writes plus commit");
        }
        // The exporter renders the log and self-validates.
        let trace = obs::flight_chrome_trace(&log);
        assert!(obs::validate_chrome_trace(&trace).is_ok());
        // Phase breakdown accounts the committed flights.
        let phases = obs::PhaseBreakdown::of_commits(&log);
        assert_eq!(phases.flights, 60);
        assert!(phases.total_ns > 0);
    }

    #[test]
    fn flight_stride_keeps_unsampled_txns_counter_only() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(23);
        let programs: Vec<_> = (0..80).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            flight_sample: 8,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 80);
        let fr = &sched.metrics().obs.flight;
        assert!(fr.admitted() >= 80);
        assert!(
            fr.sampled_count() < fr.admitted(),
            "stride 8 must leave most txns counter-only"
        );
        let snap = sched.metrics().obs.snapshot();
        assert!(
            snap.op_service.count < out.stats.steps,
            "unsampled txns skip op timing in sampled mode \
             ({} timed of {} steps)",
            snap.op_service.count,
            out.stats.steps
        );
        let log = obs::assemble(&sched.metrics().obs.events.drain());
        assert_eq!(log.open, 0);
        assert_eq!(log.flights.len() as u64, fr.sampled_count());
    }

    #[test]
    fn obs_off_by_default_records_nothing() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(14);
        let programs: Vec<_> = (0..20).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        let snap = sched.metrics().obs.snapshot();
        assert_eq!(snap.commit_latency.count, 0);
        assert_eq!(snap.op_service.count, 0);
        assert_eq!(snap.trace_recorded, 0);
    }

    /// A scheduler that answers `read` and `commit` from a script —
    /// deterministic fixture for paths no real scheduler takes on demand
    /// (blocking forever, aborting after a block streak, panicking).
    struct Scripted {
        log: txn_model::ScheduleLog,
        metrics: txn_model::Metrics,
        ids: AtomicU64,
        reads: AtomicUsize,
        aborts: AtomicUsize,
        /// The answer to the `n`th `read` call of the run, given the
        /// scheduler's metrics and the reading transaction's id.
        read: fn(&txn_model::Metrics, u64, usize) -> ReadOutcome,
        commit: fn() -> CommitOutcome,
    }

    impl Scripted {
        fn new(
            read: fn(&txn_model::Metrics, u64, usize) -> ReadOutcome,
            commit: fn() -> CommitOutcome,
        ) -> Self {
            Scripted {
                log: txn_model::ScheduleLog::new(),
                metrics: txn_model::Metrics::default(),
                ids: AtomicU64::new(1),
                reads: AtomicUsize::new(0),
                aborts: AtomicUsize::new(0),
                read,
                commit,
            }
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn begin(&self, profile: &txn_model::TxnProfile) -> txn_model::TxnHandle {
            txn_model::TxnHandle {
                // ordering: Relaxed — id ticket; uniqueness comes from fetch_add atomicity, nothing is published with it.
                id: txn_model::TxnId(self.ids.fetch_add(1, Ordering::Relaxed)),
                start_ts: txn_model::Timestamp(0),
                class: profile.class,
            }
        }
        fn read(&self, h: &txn_model::TxnHandle, _g: txn_model::GranuleId) -> ReadOutcome {
            // ordering: Relaxed — call ticket; uniqueness comes from fetch_add atomicity, nothing is published with it.
            let n = self.reads.fetch_add(1, Ordering::Relaxed);
            (self.read)(&self.metrics, h.id.0, n)
        }
        fn write(
            &self,
            _h: &txn_model::TxnHandle,
            _g: txn_model::GranuleId,
            _v: txn_model::Value,
        ) -> WriteOutcome {
            WriteOutcome::Done
        }
        fn commit(&self, _h: &txn_model::TxnHandle) -> CommitOutcome {
            (self.commit)()
        }
        fn abort(&self, _h: &txn_model::TxnHandle) {
            // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
            self.aborts.fetch_add(1, Ordering::Relaxed);
        }
        fn log(&self) -> &txn_model::ScheduleLog {
            &self.log
        }
        fn metrics(&self) -> &txn_model::Metrics {
            &self.metrics
        }
    }

    fn commits() -> CommitOutcome {
        CommitOutcome::Committed(txn_model::Timestamp(1))
    }

    fn banking_programs(seed: u64, n: usize) -> Vec<TxnProgram> {
        let mut w = Banking::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| w.generate(&mut rng)).collect()
    }

    #[test]
    fn deadline_bounds_a_wedged_scheduler() {
        let programs = banking_programs(2, 8);
        let sched = Scripted::new(|_, _, _| ReadOutcome::Block, commits);
        let cfg = ConcurrentConfig {
            workers: 2,
            txn_deadline: Some(Duration::from_millis(5)),
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, programs, &cfg);
        assert_eq!(out.stats.committed, 0, "every program starts with a read");
        assert_eq!(out.stats.deadline_exceeded, 8);
        assert_eq!(
            // ordering: Relaxed — read after the worker scope joined; the join edge orders every counter write before it.
            sched.aborts.load(Ordering::Relaxed),
            8,
            "abandoned transactions are aborted, not leaked"
        );
        assert!(out.elapsed < Duration::from_secs(10), "no unbounded spin");
    }

    #[test]
    fn deadline_off_changes_nothing() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(31);
        let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            txn_deadline: Some(Duration::from_secs(60)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 60);
        assert_eq!(out.stats.deadline_exceeded, 0);
        assert_eq!(out.stats.serializable, Some(true));
    }

    #[test]
    fn verify_off_records_nothing_and_a_later_run_records_again() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let programs: Vec<_> = (0..50).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 50);
        assert_eq!(out.stats.serializable, None);
        assert!(sched.log().is_empty());

        // A default run on the same scheduler records its schedule and
        // certifies it, rather than certifying a log left switched off.
        let programs: Vec<_> = (0..50).map(|_| w.generate(&mut rng)).collect();
        let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        assert_eq!(out.stats.committed, 50);
        assert!(!sched.log().is_empty(), "the verified run was recorded");
        assert_eq!(out.stats.serializable, Some(true));
    }

    /// Commit as a panic: the fixture for a scheduler assertion firing
    /// inside a worker.
    fn panicking_run(plan: &FaultPlan, cfg: &ConcurrentConfig) {
        let sched = Scripted::new(
            |_, _, _| ReadOutcome::Value(Value::Int(0).into()),
            || panic!("commit exploded"),
        );
        run_with_faults(&sched, banking_programs(3, 6), plan, cfg);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_worker_fails_the_run_instead_of_hanging_it() {
        let cfg = ConcurrentConfig {
            workers: 2,
            ..ConcurrentConfig::default()
        };
        panicking_run(&FaultPlan::clean(0), &cfg);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_worker_fails_a_fault_run_instead_of_hanging_it() {
        let mut plan = FaultPlan::clean(6);
        plan.faults[1] = FaultKind::DelayCommit { micros: 100 };
        let cfg = ConcurrentConfig {
            workers: 2,
            ..ConcurrentConfig::fault_run()
        };
        panicking_run(&plan, &cfg);
    }

    #[test]
    fn a_block_streak_ending_in_abort_keeps_its_wait() {
        // One worker, one program: its first read blocks twice and is
        // then aborted; the restarted attempt is served.
        let sched = Scripted::new(
            |_, _, n| match n {
                0 | 1 => ReadOutcome::Block,
                2 => ReadOutcome::Abort,
                _ => ReadOutcome::Value(Value::Int(0).into()),
            },
            commits,
        );
        let cfg = ConcurrentConfig {
            workers: 1,
            obs: true,
            flight_sample: 1,
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, banking_programs(2, 1), &cfg);
        assert_eq!((out.stats.committed, out.stats.restarts), (1, 1));
        let obs = &sched.metrics().obs;
        assert_eq!(
            obs.snapshot().block_wait.count,
            1,
            "the streak the abort ended is a block-wait sample"
        );
        let log = obs::assemble(&obs.events.drain());
        assert_eq!(log.open, 0);
        let aborted: Vec<_> = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(Terminal::Aborted))
            .collect();
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].waits.len(), 1, "and a wait span of its flight");
    }

    #[test]
    fn the_restart_budget_ends_a_livelock() {
        // Every read aborts and nothing ever commits, so every restart
        // is charged: each program gives up once its budget is spent.
        let sched = Scripted::new(|_, _, _| ReadOutcome::Abort, commits);
        let cfg = ConcurrentConfig {
            workers: 2,
            max_restarts: 3,
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, banking_programs(2, 5), &cfg);
        let books = (out.stats.committed, out.stats.gave_up, out.stats.restarts);
        assert_eq!(books, (0, 5, 15));
    }

    #[test]
    fn a_cause_recorded_late_in_a_blocking_call_still_attributes_its_wait() {
        // The first read is held up (as by preemption) before it records
        // its cause and answers `Block`; the retry is served. The wait
        // runs from the blocking call's start to the served answer on
        // the flight clock, so the cause lies inside it. Measuring the
        // wait from after the blocking call returned put the cause past
        // the wait's end and the wait `Unattributed`.
        let sched = Scripted::new(
            |metrics, txn, n| {
                if n > 0 {
                    return ReadOutcome::Value(Value::Int(0).into());
                }
                std::thread::sleep(Duration::from_millis(2));
                metrics.obs.blocked_on_txn(txn, 99, || 0);
                ReadOutcome::Block
            },
            commits,
        );
        let cfg = ConcurrentConfig {
            workers: 1,
            obs: true,
            flight_sample: 1,
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, banking_programs(2, 1), &cfg);
        assert_eq!(out.stats.committed, 1);
        let log = obs::assemble(&sched.metrics().obs.events.drain());
        let waits = &log.flights[0].waits;
        assert_eq!(waits.len(), 1);
        let cause = obs::WaitCause::TxnPending { txn: 99, class: 0 };
        assert_eq!(waits[0].cause, cause);
    }

    /// Two-class chain: c0 writes s0; c1 writes s1 and reads s0.
    fn setup(lease: Option<Duration>) -> HddScheduler {
        let s = SegmentId;
        let hierarchy = Hierarchy::build(
            2,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        for k in 0..4 {
            store.seed(GranuleId::new(s(0), k), Value::Int(0));
            store.seed(GranuleId::new(s(1), k), Value::Int(0));
        }
        let config = HddConfig {
            txn_lease: lease,
            ..HddConfig::default()
        };
        HddScheduler::new(
            Arc::new(hierarchy),
            store,
            Arc::new(LogicalClock::new()),
            config,
        )
    }

    fn mixed_programs(n: usize) -> Vec<TxnProgram> {
        (0..n)
            .map(|i| {
                let k = (i % 4) as u64;
                if i % 2 == 0 {
                    TxnProgram::builder("c0-bump")
                        .read(GranuleId::new(SegmentId(0), k))
                        .write_computed(GranuleId::new(SegmentId(0), k), move |ctx| {
                            Value::Int(ctx.int(GranuleId::new(SegmentId(0), k)) + 1)
                        })
                        .build(TxnProfile::update(ClassId(0), vec![SegmentId(0)]))
                } else {
                    TxnProgram::builder("c1-mirror")
                        .read(GranuleId::new(SegmentId(0), k))
                        .write_computed(GranuleId::new(SegmentId(1), k), move |ctx| {
                            Value::Int(ctx.int(GranuleId::new(SegmentId(0), k)))
                        })
                        .build(TxnProfile::update(
                            ClassId(1),
                            vec![SegmentId(0), SegmentId(1)],
                        ))
                }
            })
            .collect()
    }

    /// A WAL under `dir` whose disk tears batch 3 mid-write.
    fn torn_wal(dir: &std::path::Path) -> Arc<GroupCommitWal> {
        std::fs::create_dir_all(dir).unwrap();
        let fault = DiskFaultPlan::fixed(3, DiskFaultKind::TornWrite { keep_pct: 40 });
        let cfg = GroupCommitConfig {
            max_batch_frames: 4,
            ..GroupCommitConfig::default()
        };
        Arc::new(
            GroupCommitWal::with_fault(&dir.join("chaos.wal"), cfg, Some(Box::new(fault))).unwrap(),
        )
    }

    #[test]
    fn clean_plan_commits_everything() {
        let sched = setup(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let report = run_with_faults(&sched, programs, &plan, &ConcurrentConfig::fault_run());
        assert_eq!(report.stats.committed, 40);
        assert_eq!(report.crashed + report.stalled + report.delayed, 0);
        assert_eq!(report.stats.gave_up + report.stats.deadline_exceeded, 0);
        let dg = DependencyGraph::from_log(sched.log());
        assert_eq!(dg.find_cycle(), None);
    }

    #[test]
    fn crash_faults_are_reaped_and_the_run_stays_serializable() {
        let sched = setup(Some(Duration::from_millis(5)));
        let programs = mixed_programs(30);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[3] = FaultKind::Crash { after_ops: 1 };
        plan.faults[11] = FaultKind::Crash { after_ops: 2 };
        let cfg = ConcurrentConfig {
            drain: Duration::from_millis(40),
            ..ConcurrentConfig::fault_run()
        };
        let report = run_with_faults(&sched, programs, &plan, &cfg);
        assert_eq!(report.crashed, 2);
        assert_eq!(report.stats.committed, 28);
        let snap = sched.metrics().snapshot();
        assert!(
            snap.rej_watchdog_abort >= 2,
            "the watchdog must reap both corpses: {snap:?}"
        );
        assert_eq!(
            DependencyGraph::from_log(sched.log()).find_cycle(),
            None,
            "stitched log (crashes reaped as aborts) stays serializable"
        );
        assert!(
            report.max_release_gap < Duration::from_secs(5),
            "time wall resumed: gap {:?}",
            report.max_release_gap
        );
        let kinds: Vec<&str> = sched
            .metrics()
            .obs
            .events
            .drain()
            .iter()
            .filter_map(|(_, e)| e.decision().map(obs::TraceEvent::kind))
            .collect();
        assert!(kinds.contains(&"crash-point"));
        assert!(kinds.contains(&"watchdog-abort"));
    }

    #[test]
    fn crash_flights_close_as_abandoned_or_reaped_with_no_open_spans() {
        let sched = setup(Some(Duration::from_millis(5)));
        let programs = mixed_programs(24);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[2] = FaultKind::Crash { after_ops: 1 };
        plan.faults[9] = FaultKind::Crash { after_ops: 2 };
        let cfg = ConcurrentConfig {
            drain: Duration::from_millis(50),
            flight_sample: 1,
            ..ConcurrentConfig::fault_run()
        };
        let report = run_with_faults(&sched, programs, &plan, &cfg);
        assert_eq!(report.crashed, 2);
        let log = obs::assemble(&sched.metrics().obs.events.drain());
        assert_eq!(log.open, 0, "every admitted flight must close");
        let crash_terminals = log
            .flights
            .iter()
            .filter(|f| {
                matches!(
                    f.terminal,
                    Some(Terminal::Abandoned) | Some(Terminal::Reaped)
                )
            })
            .count();
        assert!(
            crash_terminals >= report.crashed,
            "each crash closes its flight as Abandoned (or Reaped by the \
             watchdog): {crash_terminals} < {}",
            report.crashed
        );
        let committed_flights = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(Terminal::Committed))
            .count();
        assert_eq!(committed_flights, report.stats.committed);
    }

    #[test]
    fn wal_gate_journals_every_counted_commit() {
        let dir = std::env::temp_dir().join(format!("chaos-wal-{}", std::process::id()));
        // Fault: the disk tears batch 3 mid-write and the WAL crashes.
        let wal = torn_wal(&dir);

        let sched = setup(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let cfg = ConcurrentConfig {
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::fault_run()
        };
        let report = run_with_faults(&sched, programs, &plan, &cfg);

        assert!(wal.crashed(), "the torn write must crash the WAL");
        assert!(
            report.wal_lost > 0,
            "commits after the crash lose their ack"
        );
        assert_eq!(
            report.stats.committed + report.wal_lost,
            40,
            "every program either counts as durable or as wal-lost: {report:?}"
        );
        assert_eq!(
            report.journaled, report.stats.committed,
            "all programs here are updates, so every counted commit journals: {report:?}"
        );

        // Every *counted* commit is on disk: the acked prefix of the WAL
        // decodes and contains at least `committed` Commit events... not
        // exactly `committed` — the torn batch itself may carry acked
        // frames from earlier batches only, so the decodable prefix holds
        // every durable commit.
        let bytes = std::fs::read(dir.join("chaos.wal")).unwrap();
        let (events, wal_report) = decode_wal(&bytes).unwrap();
        assert!(wal_report.torn(), "the tail tears at the victim batch");
        let durable_commits = events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
            .count();
        assert!(
            durable_commits >= report.stats.committed,
            "durable commits {durable_commits} < counted {}",
            report.stats.committed
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_and_delay_faults_resolve_without_leaks() {
        let sched = setup(Some(Duration::from_millis(10)));
        let programs = mixed_programs(20);
        let mut plan = FaultPlan::clean(programs.len());
        // Stall well past the lease: the watchdog reaps mid-sleep and
        // the worker retries as a fresh transaction.
        plan.faults[2] = FaultKind::Stall {
            after_ops: 1,
            micros: 30_000,
        };
        plan.faults[7] = FaultKind::DelayCommit { micros: 500 };
        let report = run_with_faults(&sched, programs, &plan, &ConcurrentConfig::fault_run());
        assert_eq!(report.stalled, 1);
        assert_eq!(report.delayed, 1);
        assert_eq!(
            report.stats.committed, 20,
            "stalled program retries after the reap and still commits: {report:?}"
        );
        assert_eq!(DependencyGraph::from_log(sched.log()).find_cycle(), None);
    }

    #[test]
    fn every_program_ends_exactly_one_way_under_worker_and_disk_faults() {
        let dir = std::env::temp_dir().join(format!("sim-books-{}", std::process::id()));
        let wal = torn_wal(&dir);
        let sched = setup(Some(Duration::from_millis(5)));
        let programs = mixed_programs(60);
        let n = programs.len();
        let mut plan = FaultPlan::clean(n);
        plan.faults[4] = FaultKind::Crash { after_ops: 1 };
        plan.faults[9] = FaultKind::Stall {
            after_ops: 1,
            micros: 12_000,
        };
        plan.faults[13] = FaultKind::DelayCommit { micros: 300 };
        plan.faults[21] = FaultKind::Crash { after_ops: 9 }; // past the end: before commit
        let cfg = ConcurrentConfig {
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::fault_run()
        };
        let out = run_with_faults(&sched, programs, &plan, &cfg);
        assert!(wal.crashed() && out.wal_lost > 0, "{out:?}");
        assert_eq!((out.crashed, out.stalled, out.delayed), (2, 1, 1));
        assert_eq!(
            out.stats.committed
                + out.wal_lost
                + out.stats.gave_up
                + out.stats.deadline_exceeded
                + out.crashed,
            n,
            "{out:?}"
        );
        assert!(out.journaled <= out.stats.committed, "{out:?}");
        assert!(out.journaled > 0, "batches before the tear were acked");
        std::fs::remove_dir_all(&dir).ok();
    }
}
