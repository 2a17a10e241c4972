//! The deterministic interleaved driver.
//!
//! Executes a batch of transaction programs against any scheduler, one
//! logical step at a time, picking the next live transaction with a
//! seeded RNG. Uniform semantics across schedulers:
//!
//! * `Block` — the step is retried the next time the transaction is
//!   picked (lock released, pipeline cleared, wall published, ...);
//! * `Abort` (or a failed commit) — the transaction is aborted and
//!   *restarted as a fresh transaction* with a new timestamp, up to a
//!   retry budget;
//! * every [`MAINTENANCE_EVERY`] steps the scheduler's maintenance hook
//!   runs (time-wall release, GC).
//!
//! After the run, the schedule log is handed to the Section 2 dependency
//! graph and checked for acyclicity — the paper's correctness criterion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, DependencyGraph, MetricsSnapshot, ReadOutcome, Scheduler, Step, TxnHandle,
    TxnId, TxnProgram, WriteOutcome,
};

/// Restart budget per program: an abort beyond this many restarts
/// gives the program up.
pub const MAX_RESTARTS: usize = 50;

/// Run scheduler maintenance every this many driver steps.
pub const MAINTENANCE_EVERY: u64 = 8;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// RNG seed for the interleaving.
    pub seed: u64,
    /// Hard step limit (guards against scheduler livelock).
    pub max_steps: u64,
    /// Admission window: at most this many transactions are open at
    /// once (0 = unlimited). A bounded window models a closed-loop
    /// multiprogramming level; unlimited leaves the earliest transaction
    /// open for the whole run, which pins `I_old` and stops garbage
    /// collection from advancing.
    pub concurrency: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            seed: 0x0D15_EA5E,
            max_steps: 10_000_000,
            concurrency: 16,
        }
    }
}

/// Result of a driver run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Programs that committed.
    pub committed: usize,
    /// Abort-and-restart events.
    pub restarts: usize,
    /// Programs that exhausted their restart budget.
    pub gave_up: usize,
    /// Programs abandoned because they ran past the driver's
    /// per-transaction deadline (concurrent driver only; the
    /// deterministic driver has no wall clock and leaves this 0).
    pub deadline_exceeded: usize,
    /// Programs still live when the step limit was hit.
    pub stalled: usize,
    /// Driver steps executed.
    pub steps: u64,
    /// Scheduler metrics at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Serializability verdict (the deterministic driver always checks;
    /// the concurrent driver leaves `None` when verification is off).
    pub serializable: Option<bool>,
    /// A dependency cycle, if one was found.
    pub cycle: Option<Vec<TxnId>>,
}

struct Execution {
    program: TxnProgram,
    handle: Option<TxnHandle>,
    pc: usize,
    ctx: ReadCtx,
    restarts: usize,
    committing: bool,
}

impl Execution {
    fn new(program: TxnProgram) -> Self {
        Execution {
            program,
            handle: None,
            pc: 0,
            ctx: ReadCtx::default(),
            restarts: 0,
            committing: false,
        }
    }

    fn restart(&mut self) {
        self.handle = None;
        self.pc = 0;
        self.ctx = ReadCtx::default();
        self.restarts += 1;
        self.committing = false;
    }
}

/// Run `programs` to completion under `scheduler`.
pub fn run_interleaved(
    scheduler: &dyn Scheduler,
    programs: Vec<TxnProgram>,
    cfg: &DriverConfig,
) -> RunStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pending: std::collections::VecDeque<TxnProgram> = programs.into();
    let mut live: Vec<Execution> = Vec::new();
    let window = if cfg.concurrency == 0 {
        usize::MAX
    } else {
        cfg.concurrency
    };
    let mut stats = RunStats {
        committed: 0,
        restarts: 0,
        gave_up: 0,
        deadline_exceeded: 0,
        stalled: 0,
        steps: 0,
        metrics: MetricsSnapshot::default(),
        serializable: None,
        cycle: None,
    };

    while (!live.is_empty() || !pending.is_empty()) && stats.steps < cfg.max_steps {
        while live.len() < window {
            match pending.pop_front() {
                Some(p) => live.push(Execution::new(p)),
                None => break,
            }
        }
        stats.steps += 1;
        if stats.steps.is_multiple_of(MAINTENANCE_EVERY) {
            scheduler.maintenance();
        }
        let i = rng.gen_range(0..live.len());
        let exec = &mut live[i];

        // Lazily begin.
        if exec.handle.is_none() {
            exec.handle = Some(scheduler.begin(&exec.program.profile));
        }
        let handle = exec.handle.clone().expect("just set");

        enum Next {
            Continue,
            Finished,
            Restart,
            GiveUp,
        }

        let next = if exec.committing || exec.pc >= exec.program.steps.len() {
            exec.committing = true;
            match scheduler.commit(&handle) {
                CommitOutcome::Committed(_) => Next::Finished,
                CommitOutcome::Block => Next::Continue,
                CommitOutcome::Aborted => {
                    if exec.restarts >= MAX_RESTARTS {
                        Next::GiveUp
                    } else {
                        Next::Restart
                    }
                }
            }
        } else {
            match &exec.program.steps[exec.pc] {
                Step::Read(g) => match scheduler.read(&handle, *g) {
                    ReadOutcome::Value(v) => {
                        exec.ctx.record(*g, v);
                        exec.pc += 1;
                        Next::Continue
                    }
                    ReadOutcome::Block => Next::Continue,
                    ReadOutcome::Abort => {
                        scheduler.abort(&handle);
                        if exec.restarts >= MAX_RESTARTS {
                            Next::GiveUp
                        } else {
                            Next::Restart
                        }
                    }
                },
                Step::Write(g, src) => {
                    let v = src.resolve(&exec.ctx);
                    match scheduler.write(&handle, *g, v) {
                        WriteOutcome::Done => {
                            exec.pc += 1;
                            Next::Continue
                        }
                        WriteOutcome::Block => Next::Continue,
                        WriteOutcome::Abort => {
                            scheduler.abort(&handle);
                            if exec.restarts >= MAX_RESTARTS {
                                Next::GiveUp
                            } else {
                                Next::Restart
                            }
                        }
                    }
                }
            }
        };

        match next {
            Next::Continue => {}
            Next::Finished => {
                stats.committed += 1;
                live.swap_remove(i);
            }
            Next::Restart => {
                stats.restarts += 1;
                exec.restart();
            }
            Next::GiveUp => {
                stats.gave_up += 1;
                live.swap_remove(i);
            }
        }
    }

    stats.stalled = live.len();
    // Abort whatever is still live so the log is clean.
    for exec in &live {
        if let Some(h) = &exec.handle {
            scheduler.abort(h);
        }
    }

    stats.metrics = scheduler.metrics().snapshot();
    stats.cycle = DependencyGraph::from_log(scheduler.log()).find_cycle();
    stats.serializable = Some(stats.cycle.is_none());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_scheduler, SchedulerKind};
    use workloads::banking::{Banking, INITIAL_BALANCE};
    use workloads::Workload;

    fn banking_batch(n: usize, seed: u64) -> (Banking, Vec<TxnProgram>) {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(seed);
        let programs = (0..n).map(|_| w.generate(&mut rng)).collect();
        (w, programs)
    }

    #[test]
    fn hdd_banking_run_is_serializable_and_balanced() {
        let (w, programs) = banking_batch(60, 7);
        let (sched, store) = build_scheduler(SchedulerKind::Hdd, &w);
        let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
        assert_eq!(stats.gave_up, 0);
        assert_eq!(stats.stalled, 0);
        assert_eq!(stats.serializable, Some(true));
        // Balance invariant: sum of deltas of committed labels. The
        // driver restarts aborted programs until committed, so exactly
        // `committed` programs applied their delta — but we don't know
        // which labels committed; with equal ±50 the check is done in
        // experiment E1 instead. Here: committed == all.
        assert_eq!(stats.committed, 60);
        let total = w.total_balance(store.as_ref());
        assert_eq!(total % 50, 0);
    }

    #[test]
    fn all_sound_schedulers_serialize_banking() {
        for kind in crate::factory::ALL_KINDS {
            let (w, programs) = banking_batch(40, 11);
            let (sched, _store) = build_scheduler(*kind, &w);
            let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
            assert_eq!(
                stats.serializable,
                Some(true),
                "{} produced a non-serializable schedule: {:?}",
                kind.name(),
                stats.cycle
            );
            assert_eq!(stats.stalled, 0, "{} stalled", kind.name());
            assert!(stats.committed > 0, "{} committed nothing", kind.name());
        }
    }

    #[test]
    fn nocontrol_loses_updates() {
        let mut w = Banking::new(1); // one hot account
        w.deposit_prob = 1.0; // deposits only
        let mut rng = StdRng::seed_from_u64(3);
        let programs: Vec<TxnProgram> = (0..30).map(|_| w.generate(&mut rng)).collect();
        let (sched, store) = build_scheduler(SchedulerKind::NoControl, &w);
        let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
        assert_eq!(stats.committed, 30);
        let expected = INITIAL_BALANCE + 30 * 50;
        let actual = w.total_balance(store.as_ref());
        assert!(
            actual < expected,
            "interleaved no-control deposits must lose money ({actual} vs {expected})"
        );
    }

    #[test]
    fn step_limit_reports_stall() {
        // A scheduler that blocks forever would stall; emulate with a
        // tiny max_steps over a real run.
        let (w, programs) = banking_batch(50, 5);
        let (sched, _store) = build_scheduler(SchedulerKind::TwoPl, &w);
        let cfg = DriverConfig {
            max_steps: 10,
            ..DriverConfig::default()
        };
        let stats = run_interleaved(sched.as_ref(), programs, &cfg);
        assert!(stats.stalled > 0);
        // The stalled transactions were aborted, so the cut-short log
        // still certifies.
        assert_eq!(stats.serializable, Some(true));
    }

    #[test]
    fn window_of_one_is_serial_even_without_control() {
        // With an admission window of 1 the driver runs transactions
        // back to back; even the no-control scheduler is then correct —
        // a direct check that the window bounds concurrency.
        let mut w = Banking::new(1);
        w.deposit_prob = 1.0;
        let mut rng = StdRng::seed_from_u64(17);
        let programs: Vec<TxnProgram> = (0..25).map(|_| w.generate(&mut rng)).collect();
        let (sched, store) = build_scheduler(SchedulerKind::NoControl, &w);
        let cfg = DriverConfig {
            concurrency: 1,
            ..DriverConfig::default()
        };
        let stats = run_interleaved(sched.as_ref(), programs, &cfg);
        assert_eq!(stats.committed, 25);
        assert_eq!(
            w.total_balance(store.as_ref()),
            INITIAL_BALANCE + 25 * 50,
            "serial no-control must not lose updates"
        );
    }
}
