//! Build any scheduler over a freshly seeded store for a workload.

use baselines::sdd1::{Sdd1Class, Sdd1Pipeline};
use baselines::tso::TsoConfig;
use baselines::two_pl::TwoPlConfig;
use baselines::{BasicTso, Mv2pl, Mvto, NoControl, TwoPhaseLocking};
use hdd::protocol::{HddConfig, HddScheduler};
use hdd::Hierarchy;
use mvstore::MvStore;
use std::sync::Arc;
use txn_model::{LogicalClock, Scheduler};
use workloads::Workload;

/// Scheduler selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's contribution.
    Hdd,
    /// Strict two-phase locking.
    TwoPl,
    /// 2PL without cross-segment read locks (Figure 3's broken variant).
    TwoPlNoCrossReadLocks,
    /// Basic timestamp ordering.
    Tso,
    /// TSO without cross-segment read timestamps (Figure 4's broken
    /// variant).
    TsoNoCrossReadTs,
    /// Multi-version timestamp ordering (Reed), uniform.
    Mvto,
    /// Multiversion 2PL (Chan-style).
    Mv2pl,
    /// Simplified SDD-1 pipelining.
    Sdd1,
    /// No concurrency control (Figure 1).
    NoControl,
}

impl SchedulerKind {
    /// Display name (matches `Scheduler::name`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Hdd => "hdd",
            SchedulerKind::TwoPl => "2pl",
            SchedulerKind::TwoPlNoCrossReadLocks => "2pl-no-cross-read-locks",
            SchedulerKind::Tso => "tso",
            SchedulerKind::TsoNoCrossReadTs => "tso-no-cross-read-ts",
            SchedulerKind::Mvto => "mvto",
            SchedulerKind::Mv2pl => "mv2pl",
            SchedulerKind::Sdd1 => "sdd1",
            SchedulerKind::NoControl => "nocontrol",
        }
    }
}

/// The sound schedulers compared in experiment E10 (Figure 10 plus the
/// classical baselines).
pub const ALL_KINDS: &[SchedulerKind] = &[
    SchedulerKind::Hdd,
    SchedulerKind::TwoPl,
    SchedulerKind::Tso,
    SchedulerKind::Mvto,
    SchedulerKind::Mv2pl,
    SchedulerKind::Sdd1,
];

/// Build `kind` over a fresh store seeded by `workload`. Returns the
/// scheduler and the store (for post-run value inspection).
pub fn build_scheduler(
    kind: SchedulerKind,
    workload: &dyn Workload,
) -> (Box<dyn Scheduler>, Arc<MvStore>) {
    let store = Arc::new(MvStore::new());
    workload.seed(store.as_ref());
    let clock = Arc::new(LogicalClock::new());
    let sched: Box<dyn Scheduler> = match kind {
        SchedulerKind::Hdd => {
            let hierarchy = Arc::new(workload.hierarchy());
            Box::new(HddScheduler::new(
                hierarchy,
                Arc::clone(&store),
                clock,
                HddConfig::default(),
            ))
        }
        SchedulerKind::TwoPl => Box::new(TwoPhaseLocking::new(
            Arc::clone(&store),
            clock,
            TwoPlConfig::default(),
        )),
        SchedulerKind::TwoPlNoCrossReadLocks => Box::new(TwoPhaseLocking::new(
            Arc::clone(&store),
            clock,
            TwoPlConfig {
                cross_segment_read_locks: false,
            },
        )),
        SchedulerKind::Tso => Box::new(BasicTso::new(
            Arc::clone(&store),
            clock,
            TsoConfig::default(),
        )),
        SchedulerKind::TsoNoCrossReadTs => Box::new(BasicTso::new(
            Arc::clone(&store),
            clock,
            TsoConfig {
                register_cross_segment_reads: false,
            },
        )),
        SchedulerKind::Mvto => Box::new(Mvto::new(Arc::clone(&store), clock)),
        SchedulerKind::Mv2pl => Box::new(Mv2pl::new(Arc::clone(&store), clock)),
        SchedulerKind::Sdd1 => {
            let classes: Vec<Sdd1Class> = workload
                .specs()
                .iter()
                .map(|spec| Sdd1Class {
                    writes: spec.writes.clone(),
                    reads: spec.reads.clone(),
                })
                .collect();
            Box::new(Sdd1Pipeline::new(Arc::clone(&store), clock, classes))
        }
        SchedulerKind::NoControl => Box::new(NoControl::new(Arc::clone(&store), clock)),
    };
    (sched, store)
}

/// Build an HDD scheduler with a custom config (a lease, or swept
/// maintenance intervals).
pub fn build_hdd_with_config(
    workload: &dyn Workload,
    config: HddConfig,
) -> (Arc<HddScheduler>, Arc<MvStore>, Arc<Hierarchy>) {
    let store = Arc::new(MvStore::new());
    workload.seed(store.as_ref());
    let hierarchy = Arc::new(workload.hierarchy());
    let sched = Arc::new(HddScheduler::new(
        Arc::clone(&hierarchy),
        Arc::clone(&store),
        Arc::new(LogicalClock::new()),
        config,
    ));
    (sched, store, hierarchy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::banking::Banking;

    #[test]
    fn every_kind_builds_over_banking() {
        let w = Banking::new(4);
        for kind in [
            SchedulerKind::Hdd,
            SchedulerKind::TwoPl,
            SchedulerKind::TwoPlNoCrossReadLocks,
            SchedulerKind::Tso,
            SchedulerKind::TsoNoCrossReadTs,
            SchedulerKind::Mvto,
            SchedulerKind::Mv2pl,
            SchedulerKind::Sdd1,
            SchedulerKind::NoControl,
        ] {
            let (sched, store) = build_scheduler(kind, &w);
            assert_eq!(sched.name(), kind.name());
            assert_eq!(w.total_balance(store.as_ref()), 4 * 100);
        }
    }
}
