//! The load model: closed-loop clients driving the `Scheduler` trait.
//!
//! `clients = min(nproc, 4)` threads in this process, and no others.
//! Each client is a caller that waits for its reply: it claims the next
//! program of its stripe of the pre-generated pool (client *i* takes
//! indices *i, i+clients, …*, cycling), runs `begin → read/write… →
//! commit`, restarts on `Abort` (budget [`RESTART_BUDGET`]), and on
//! `Block` backs off exactly like `sim::concurrent::backoff` (3 spins,
//! then sleeps doubling from 1 µs to 256 µs). `Scheduler::maintenance`
//! runs inline and work-based — by each client after one in
//! [`MAINTENANCE_EVERY`] of its transactions (see
//! [`Client::maintenance_due`]) and once per backoff sleep, behind a
//! `try_lock` so at most one runs at a time — rather than from a
//! sleeping ticker thread, whose cadence would depend on OS timer slack.
//! A transaction's latency runs from claim to acknowledged commit:
//! restarts, backoff and, on the durable workload, the fsync ack
//! included.
//!
//! This file and `setup.rs` are the only ones that drive the system
//! under test while it is timed, and they touch it only through
//! `txn_model::Scheduler` and `GroupCommitWal::submit`.

use crate::setup::Instance;
use crate::spans::{Kind, Spans};
use crate::spec::{MAINTENANCE_EVERY, RESTART_BUDGET, SLICES};
use crate::stats::{percentile_sorted, ratio, Summary};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, GranuleId, GroupCommitStats, GroupCommitWal, MetricsSnapshot, ReadOutcome,
    ScheduleEvent, Scheduler, Step, TxnProfile, TxnProgram, WriteOutcome,
};

/// Number of client threads on this host.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// What a client keeps across the phases of one leg.
#[derive(Debug)]
pub struct Client {
    index: usize,
    next: usize,
    /// State of the xorshift stream that paces maintenance.
    cadence: u64,
    /// Update programs committed so far (conservation gate).
    pub committed_updates: u64,
    /// Transaction ids whose durable ack this client saw (recovery gate).
    pub acked: Vec<u64>,
}

impl Client {
    /// Whether this client calls maintenance after the transaction it
    /// just finished: yes with probability 1 / [`MAINTENANCE_EVERY`],
    /// drawn from a per-client xorshift64* stream with a fixed seed (the
    /// cadence is the benchmark's, not an input of the program under
    /// test, so it does not vary with `--seed`).
    ///
    /// The mean cadence is the load model's "every 16th transaction";
    /// the period is random because a fixed one lets two clients fall
    /// into step: each then finds the other inside `maintenance` at its
    /// own 16th transaction, the `try_lock` drops the call, and the
    /// maintenance rate — and with it throughput, which follows the
    /// registry/chain backlog — shifts for seconds at a time. Measured
    /// on `inventory`, 10 s runs: slices 10 % apart within one run and a
    /// run-to-run IQR of 15.6 % of the median with the fixed period,
    /// 4.0 % with the random one, at the same median (README, "Findings").
    fn maintenance_due(&mut self) -> bool {
        let mut x = self.cadence;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.cadence = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32 < (1u64 << 32) / u64::from(MAINTENANCE_EVERY)
    }

    fn fresh(n: usize) -> Vec<Client> {
        (0..n)
            .map(|index| Client {
                index,
                next: index,
                cadence: 0x9E37_79B9_7F4A_7C15
                    ^ (index as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                committed_updates: 0,
                acked: Vec::new(),
            })
            .collect()
    }
}

/// Latencies of one transaction type, in completion order, cut into
/// measurement slices.
#[derive(Debug, Default)]
pub struct Latencies {
    ns: Vec<u32>,
    /// `starts[k]` = index of the first latency of slice `k`.
    starts: Vec<usize>,
}

impl Latencies {
    fn record(&mut self, slice: usize, ns: u32) {
        while self.starts.len() <= slice {
            self.starts.push(self.ns.len());
        }
        self.ns.push(ns);
    }

    /// The latencies that completed in slice `k`.
    pub fn slice(&self, k: usize) -> &[u32] {
        let at = |k: usize| self.starts.get(k).copied().unwrap_or(self.ns.len());
        &self.ns[at(k)..at(k + 1)]
    }

    /// Every latency of the phase.
    pub fn all(&self) -> &[u32] {
        &self.ns
    }
}

/// What one client measured in one phase.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    slice_ns: u128,
    /// Update-program latencies.
    pub updates: Latencies,
    /// Read-only-program latencies.
    pub read_only: Latencies,
    /// Programs claimed.
    pub claimed: u64,
    /// Programs that exhausted the restart budget (or lost their WAL).
    pub failed: u64,
    /// Restarts after an `Abort`.
    pub restarts: u64,
    /// Calls to `read` / `write` / `commit`, blocked attempts included.
    pub ops: u64,
    /// Of those, the ones answered `Block`.
    pub blocked_ops: u64,
    /// Σ requested backoff sleep, ns.
    pub backoff_ns: u64,
    /// Σ `BatchAck::fsync_ns` of the batches this client led.
    pub fsync_ns: u64,
    /// Batches this client led.
    pub led_batches: u64,
    /// Spans (traced legs only; empty otherwise).
    pub spans: Spans,
}

impl Recorder {
    fn new(origin: Instant, measure: Duration) -> Recorder {
        Recorder {
            origin,
            slice_ns: (measure.as_nanos() / SLICES as u128).max(1),
            updates: Latencies::default(),
            read_only: Latencies::default(),
            claimed: 0,
            failed: 0,
            restarts: 0,
            ops: 0,
            blocked_ops: 0,
            backoff_ns: 0,
            fsync_ns: 0,
            led_batches: 0,
            spans: Spans::new(origin),
        }
    }

    /// Claim number of the program in flight (`claimed` was bumped when
    /// it was claimed): what ties a program's spans together.
    fn prog(&self) -> u64 {
        self.claimed.saturating_sub(1)
    }

    /// Programs committed (and, on the durable workload, acknowledged).
    pub fn committed(&self) -> u64 {
        (self.updates.ns.len() + self.read_only.ns.len()) as u64
    }
}

/// Everything a client thread borrows.
struct Env<'a> {
    scheduler: &'a dyn Scheduler,
    wal: Option<&'a GroupCommitWal>,
    pool: &'a [TxnProgram],
    cycle: bool,
    clients: usize,
    maintenance_lock: &'a Mutex<()>,
}

/// Time `f` as a span of `kind` when the leg is traced.
#[inline(always)]
fn spanned<const TRACE: bool, R>(
    rec: &mut Recorder,
    kind: Kind,
    in_txn: bool,
    txn: u64,
    f: impl FnOnce() -> R,
) -> R {
    if TRACE {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        rec.spans.push(kind, in_txn, rec.prog(), txn, start, end);
        r
    } else {
        f()
    }
}

/// Which read span a read belongs to, from the program alone: the
/// benchmark does not ask the scheduler which protocol served it.
fn read_kind(profile: &TxnProfile, g: GranuleId) -> Kind {
    match profile.class {
        None => Kind::ReadRo,
        Some(c) if c.root_segment() == g.segment => Kind::ReadOwn,
        Some(_) => Kind::ReadCross,
    }
}

/// Call `Scheduler::maintenance` unless another client is in it.
fn maintain<const TRACE: bool>(env: &Env<'_>, rec: &mut Recorder, in_txn: bool, txn: u64) {
    if let Ok(_only_one) = env.maintenance_lock.try_lock() {
        spanned::<TRACE, _>(rec, Kind::Maintenance, in_txn, txn, || {
            env.scheduler.maintenance();
        });
    }
}

/// `sim::concurrent::backoff`, plus the load model's one maintenance
/// call per sleep.
fn backoff<const TRACE: bool>(env: &Env<'_>, rec: &mut Recorder, spins: u32, txn: u64) {
    if spins <= 3 {
        std::hint::spin_loop();
        return;
    }
    let d = Duration::from_micros(1u64 << (spins - 4).min(8));
    spanned::<TRACE, _>(rec, Kind::Backoff, true, txn, || std::thread::sleep(d));
    rec.backoff_ns += d.as_nanos() as u64;
    maintain::<TRACE>(env, rec, true, txn);
}

/// What a read or write step leads to.
enum Next {
    /// Served: go on to the next step.
    Step,
    /// `Block`: back off and ask again.
    Retry,
    /// `Abort`: give the attempt up.
    Abort,
}

/// One attempt of one program. `Ok(txn id)` when it committed (and its
/// redo frames were acknowledged durable), `Err(retry?)` otherwise.
fn attempt<const TRACE: bool>(
    env: &Env<'_>,
    c: &mut Client,
    rec: &mut Recorder,
    program: &TxnProgram,
) -> Result<u64, bool> {
    let sched = env.scheduler;
    // Not `spanned`: the span carries the id `begin` is about to return.
    let start = TRACE.then(Instant::now);
    let h = sched.begin(&program.profile);
    let txn = h.id.0;
    if let Some(start) = start {
        rec.spans
            .push(Kind::Begin, true, rec.prog(), txn, start, Instant::now());
    }
    let wal = env.wal.filter(|_| h.class.is_some());
    let mut redo: Vec<ScheduleEvent> = Vec::new();
    if wal.is_some() {
        redo.push(ScheduleEvent::Begin {
            txn: h.id,
            start_ts: h.start_ts,
            class: h.class,
        });
    }
    let mut ctx = ReadCtx::default();
    let mut pc = 0usize;
    let mut spins = 0u32;
    while let Some(step) = program.steps.get(pc) {
        rec.ops += 1;
        let next = match step {
            Step::Read(g) => {
                let kind = read_kind(&program.profile, *g);
                match spanned::<TRACE, _>(rec, kind, true, txn, || sched.read(&h, *g)) {
                    ReadOutcome::Value(v) => {
                        ctx.record(*g, v);
                        Next::Step
                    }
                    ReadOutcome::Block => Next::Retry,
                    ReadOutcome::Abort => Next::Abort,
                }
            }
            Step::Write(g, src) => {
                let v = src.resolve(&ctx);
                let journaled = wal.map(|_| Arc::new(v.clone()));
                match spanned::<TRACE, _>(rec, Kind::Write, true, txn, || sched.write(&h, *g, v)) {
                    WriteOutcome::Done => {
                        if let Some(value) = journaled {
                            redo.push(ScheduleEvent::Write {
                                txn: h.id,
                                granule: *g,
                                version: h.start_ts,
                                value,
                            });
                        }
                        Next::Step
                    }
                    WriteOutcome::Block => Next::Retry,
                    WriteOutcome::Abort => Next::Abort,
                }
            }
        };
        match next {
            Next::Step => {
                pc += 1;
                spins = 0;
            }
            Next::Retry => {
                rec.blocked_ops += 1;
                spins += 1;
                backoff::<TRACE>(env, rec, spins, txn);
            }
            Next::Abort => {
                spanned::<TRACE, _>(rec, Kind::Abort, true, txn, || sched.abort(&h));
                return Err(true);
            }
        }
    }
    let mut spins = 0u32;
    let commit_ts = loop {
        rec.ops += 1;
        match spanned::<TRACE, _>(rec, Kind::Commit, true, txn, || sched.commit(&h)) {
            CommitOutcome::Committed(ts) => break ts,
            CommitOutcome::Aborted => return Err(true),
            CommitOutcome::Block => {
                rec.blocked_ops += 1;
                spins += 1;
                backoff::<TRACE>(env, rec, spins, txn);
            }
        }
    };
    if let Some(wal) = wal {
        redo.push(ScheduleEvent::Commit {
            txn: h.id,
            commit_ts,
        });
        // The ack rule: the program counts only once its batch is durable.
        match spanned::<TRACE, _>(rec, Kind::WalSubmit, true, txn, || wal.submit(&redo)) {
            Ok(ack) => {
                if let Some(ack) = ack {
                    rec.fsync_ns += ack.fsync_ns;
                    rec.led_batches += 1;
                }
                c.acked.push(txn);
            }
            // An I/O error killed the WAL: the commit was never
            // acknowledged, so the program failed. No retry.
            Err(_) => return Err(false),
        }
    }
    Ok(txn)
}

fn client_loop<const TRACE: bool>(env: &Env<'_>, c: &mut Client, rec: &mut Recorder, end: Instant) {
    loop {
        let claim = Instant::now();
        if claim >= end {
            break;
        }
        let Some(program) = env.pool.get(c.next) else {
            break; // a finite (check) leg ran out of programs
        };
        c.next += env.clients;
        if env.cycle && c.next >= env.pool.len() {
            c.next = c.index;
        }
        rec.claimed += 1;

        let mut tries = 0usize;
        let outcome = loop {
            match attempt::<TRACE>(env, c, rec, program) {
                Ok(txn) => break Some(txn),
                Err(retry) => {
                    tries += 1;
                    if !retry || tries > RESTART_BUDGET {
                        break None;
                    }
                    rec.restarts += 1;
                }
            }
        };

        let done = Instant::now();
        match outcome {
            Some(_) => {
                let ns = u32::try_from((done - claim).as_nanos()).unwrap_or(u32::MAX);
                let slice =
                    (((done - rec.origin).as_nanos() / rec.slice_ns) as usize).min(SLICES - 1);
                if program.profile.is_read_only() {
                    rec.read_only.record(slice, ns);
                } else {
                    rec.updates.record(slice, ns);
                    c.committed_updates += 1;
                }
            }
            None => rec.failed += 1,
        }
        if TRACE {
            rec.spans.push(
                Kind::Txn,
                false,
                rec.prog(),
                outcome.unwrap_or(0),
                claim,
                done,
            );
        }
        if c.maintenance_due() {
            maintain::<TRACE>(env, rec, false, 0);
        }
    }
}

/// Run every client for `dur` (or, when `!cycle`, until the pool is
/// exhausted) and return what each measured.
fn run_phase(
    inst: &Instance,
    pool: &[TxnProgram],
    cycle: bool,
    clients: &mut [Client],
    dur: Duration,
    trace: bool,
) -> Vec<Recorder> {
    let maintenance_lock = Mutex::new(());
    let env = Env {
        scheduler: inst.scheduler.as_ref(),
        wal: inst.wal.as_ref(),
        pool,
        cycle,
        clients: clients.len(),
        maintenance_lock: &maintenance_lock,
    };
    let origin = Instant::now();
    let end = origin + dur;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let env = &env;
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, dur);
                    if trace {
                        client_loop::<true>(env, c, &mut rec, end);
                    } else {
                        client_loop::<false>(env, c, &mut rec, end);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// How one leg runs.
#[derive(Debug, Clone, Copy)]
pub struct LegSpec {
    /// Unmeasured lead-in on the same scheduler.
    pub warm: Duration,
    /// Measured time, cut into [`SLICES`] slices.
    pub measure: Duration,
    /// Record a span around every call into a layer.
    pub trace: bool,
}

/// What one leg measured.
#[derive(Debug)]
pub struct Leg {
    /// Nominal measured time.
    pub measure: Duration,
    /// One recorder per client (measured phase only).
    pub recorders: Vec<Recorder>,
    /// The clients' state after the leg (warm-up included).
    pub clients: Vec<Client>,
    /// Scheduler counters accumulated during the measured phase.
    pub counters: MetricsSnapshot,
    /// WAL counters accumulated during the measured phase.
    pub wal: GroupCommitStats,
}

fn wal_stats(inst: &Instance) -> GroupCommitStats {
    inst.wal
        .as_ref()
        .map_or_else(GroupCommitStats::default, GroupCommitWal::stats)
}

/// Warm up, then measure, with clients cycling through `pool`.
pub fn run_leg(inst: &Instance, pool: &[TxnProgram], spec: LegSpec) -> Leg {
    let mut clients = Client::fresh(client_count());
    run_phase(inst, pool, true, &mut clients, spec.warm, spec.trace);
    let counters_before = inst.scheduler.metrics().snapshot();
    let wal_before = wal_stats(inst);
    let recorders = run_phase(inst, pool, true, &mut clients, spec.measure, spec.trace);
    let wal_after = wal_stats(inst);
    Leg {
        measure: spec.measure,
        recorders,
        clients,
        counters: inst.scheduler.metrics().snapshot().delta(&counters_before),
        wal: GroupCommitStats {
            batches: wal_after.batches - wal_before.batches,
            frames: wal_after.frames - wal_before.frames,
            bytes: wal_after.bytes - wal_before.bytes,
            synced_bytes: wal_after.synced_bytes - wal_before.synced_bytes,
        },
    }
}

/// Run the first `n` programs of `pool` exactly once each (the check
/// leg: no warm-up, no cycling, no deadline).
pub fn run_once(inst: &Instance, pool: &[TxnProgram], n: usize) -> Leg {
    let mut clients = Client::fresh(client_count());
    let far = Duration::from_secs(3600);
    let started = Instant::now();
    let recorders = run_phase(
        inst,
        &pool[..n.min(pool.len())],
        false,
        &mut clients,
        far,
        false,
    );
    Leg {
        measure: started.elapsed(),
        recorders,
        clients,
        counters: inst.scheduler.metrics().snapshot(),
        wal: wal_stats(inst),
    }
}

/// The end-to-end numbers of a timed leg: each the median over the
/// slices, with the slice quartiles and count beside it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSummary {
    /// Acknowledged commits per second.
    pub commits_per_s: Summary,
    /// Median program latency, µs, all transaction types.
    pub txn_p50_us: Summary,
    /// 99th-percentile program latency, µs, all transaction types.
    pub txn_p99_us: Summary,
    /// Mean latency of read-only programs, µs.
    pub ro_mean_us: Summary,
}

impl Leg {
    fn sum(&self, f: impl Fn(&Recorder) -> u64) -> u64 {
        self.recorders.iter().map(f).sum()
    }

    /// Programs claimed in the measured phase.
    pub fn claimed(&self) -> u64 {
        self.sum(|r| r.claimed)
    }

    /// Programs committed in the measured phase.
    pub fn committed(&self) -> u64 {
        self.sum(Recorder::committed)
    }

    /// Programs that failed in the measured phase.
    pub fn failed(&self) -> u64 {
        self.sum(|r| r.failed)
    }

    /// Committed programs per second over the whole measured phase.
    pub fn commits_per_s(&self) -> f64 {
        self.committed() as f64 / self.measure.as_secs_f64()
    }

    /// Sorted latencies of slice `k` (or of the whole phase), merged
    /// over clients.
    fn merged(&self, k: Option<usize>, updates: bool, read_only: bool) -> Vec<u32> {
        let mut v = Vec::new();
        for r in &self.recorders {
            for (on, lat) in [(updates, &r.updates), (read_only, &r.read_only)] {
                if on {
                    v.extend_from_slice(k.map_or(lat.all(), |k| lat.slice(k)));
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// Percentile `p` of program latency over the whole measured phase,
    /// µs, for the chosen transaction types.
    pub fn latency_us(&self, updates: bool, read_only: bool, p: f64) -> f64 {
        f64::from(percentile_sorted(&self.merged(None, updates, read_only), p)) / 1e3
    }

    /// Per-slice medians of the end-to-end metrics.
    pub fn end_to_end(&self) -> EndToEndSummary {
        let slice_s = self.measure.as_secs_f64() / SLICES as f64;
        let mut rate = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut ro_mean = Vec::new();
        for k in 0..SLICES {
            let all = self.merged(Some(k), true, true);
            let ro = self.merged(Some(k), false, true);
            rate.push(all.len() as f64 / slice_s);
            p50.push(f64::from(percentile_sorted(&all, 0.50)) / 1e3);
            p99.push(f64::from(percentile_sorted(&all, 0.99)) / 1e3);
            let ro_ns: f64 = ro.iter().map(|&ns| f64::from(ns)).sum();
            ro_mean.push(ratio(ro_ns, ro.len() as f64) / 1e3);
        }
        EndToEndSummary {
            commits_per_s: Summary::of(&rate),
            txn_p50_us: Summary::of(&p50),
            txn_p99_us: Summary::of(&p99),
            ro_mean_us: Summary::of(&ro_mean),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::{ClassId, SegmentId};

    #[test]
    fn latencies_are_cut_at_slice_starts() {
        let mut l = Latencies::default();
        l.record(0, 10);
        l.record(0, 11);
        l.record(2, 30); // slice 1 saw nothing
        l.record(2, 31);
        assert_eq!(l.slice(0), &[10, 11]);
        assert_eq!(l.slice(1), &[] as &[u32]);
        assert_eq!(l.slice(2), &[30, 31]);
        assert_eq!(l.slice(3), &[] as &[u32]);
        assert_eq!(l.all().len(), 4);
    }

    #[test]
    fn reads_are_classified_from_the_program_alone() {
        let g = |seg| GranuleId::new(SegmentId(seg), 0);
        let update = TxnProfile::update(ClassId(2), vec![SegmentId(0), SegmentId(2)]);
        assert_eq!(read_kind(&update, g(2)), Kind::ReadOwn);
        assert_eq!(read_kind(&update, g(0)), Kind::ReadCross);
        let ro = TxnProfile::read_only(vec![SegmentId(2)]);
        assert_eq!(read_kind(&ro, g(2)), Kind::ReadRo);
    }
}
