//! Set-up: everything that happens before the first transaction — the
//! program pool, the hierarchy, the seeded store, the scheduler and, on
//! the durable workload, the WAL file. `setup_s` times exactly this.

use crate::spec::WorkloadId;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::factory::{build_scheduler, SchedulerKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use txn_model::{GroupCommitConfig, GroupCommitWal, Scheduler, TxnProgram};

/// Every scheduler `--scheduler` accepts (`hdd` is the one under test;
/// the rest are report-only comparisons).
pub const SCHEDULER_KINDS: [SchedulerKind; 9] = [
    SchedulerKind::Hdd,
    SchedulerKind::TwoPl,
    SchedulerKind::TwoPlNoCrossReadLocks,
    SchedulerKind::Tso,
    SchedulerKind::TsoNoCrossReadTs,
    SchedulerKind::Mvto,
    SchedulerKind::Mv2pl,
    SchedulerKind::Sdd1,
    SchedulerKind::NoControl,
];

/// Look a scheduler up by its display name.
pub fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    SCHEDULER_KINDS.into_iter().find(|k| k.name() == name)
}

/// Generate `n` programs from `seed`. The program under test receives
/// only these; the seed goes nowhere else.
pub fn generate_pool(workload: WorkloadId, seed: u64, n: usize) -> Vec<TxnProgram> {
    let mut w = workload.make();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| w.generate(&mut rng)).collect()
}

/// A scheduler over a freshly seeded store, plus the WAL on the durable
/// workload. Each leg gets its own.
pub struct Instance {
    /// The concurrency control under test.
    pub scheduler: Box<dyn Scheduler>,
    /// Its store (for end-of-leg counts and the conservation gate).
    pub store: Arc<MvStore>,
    /// The group-commit WAL (durable workload only).
    pub wal: Option<GroupCommitWal>,
}

impl Instance {
    /// Build for `workload`. The WAL, when there is one, is created at
    /// `wal_path` (a real file under the benchmark's output directory)
    /// with `GroupCommitConfig::default()`: 16 frames, 2 ms linger,
    /// `sync_data` every batch.
    pub fn build(
        workload: WorkloadId,
        kind: SchedulerKind,
        wal_path: &Path,
    ) -> std::io::Result<Instance> {
        let w = workload.make();
        let (scheduler, store) = build_scheduler(kind, w.as_ref());
        let wal = if workload.durable() {
            Some(GroupCommitWal::create(
                wal_path,
                GroupCommitConfig::default(),
            )?)
        } else {
            None
        };
        Ok(Instance {
            scheduler,
            store,
            wal,
        })
    }

    /// Timed legs run with the schedule log off; the check leg turns it
    /// on to certify what the scheduler did.
    pub fn set_logging(&self, on: bool) {
        self.scheduler.log().set_enabled(on);
    }
}

/// Where the legs of one run put their files.
#[derive(Debug, Clone)]
pub struct OutDir(PathBuf);

impl OutDir {
    /// Use (and create) `dir`.
    pub fn create(dir: &Path) -> std::io::Result<OutDir> {
        std::fs::create_dir_all(dir)?;
        Ok(OutDir(dir.to_path_buf()))
    }

    /// Path of the WAL file of `leg`. The process id keeps two runs in
    /// one checkout from truncating each other's log.
    pub fn wal(&self, workload: WorkloadId, leg: &str) -> PathBuf {
        self.0.join(format!(
            "{}.{leg}.{}.wal",
            workload.name(),
            std::process::id()
        ))
    }

    /// Path of the Chrome trace of `workload`.
    pub fn trace(&self, workload: WorkloadId) -> PathBuf {
        self.0.join(format!("{}.trace.json", workload.name()))
    }
}

/// One full set-up and how long its parts took.
pub struct Setup {
    /// The program pool.
    pub pool: Vec<TxnProgram>,
    /// The first leg's instance.
    pub instance: Instance,
    /// Seconds for all of it.
    pub total_s: f64,
    /// Of which: generating the pool.
    pub generate_s: f64,
}

/// Generate the pool and build one instance, timed.
pub fn set_up(
    workload: WorkloadId,
    kind: SchedulerKind,
    seed: u64,
    pool_size: usize,
    wal_path: &Path,
) -> std::io::Result<Setup> {
    let start = Instant::now();
    let pool = generate_pool(workload, seed, pool_size);
    let generate_s = start.elapsed().as_secs_f64();
    let instance = Instance::build(workload, kind, wal_path)?;
    Ok(Setup {
        pool,
        instance,
        total_s: start.elapsed().as_secs_f64(),
        generate_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_programs() {
        let shape = |seed| -> Vec<(String, usize)> {
            generate_pool(WorkloadId::Inventory, seed, 200)
                .into_iter()
                .map(|p| (p.label, p.steps.len()))
                .collect()
        };
        assert_eq!(shape(7), shape(7));
        assert_ne!(shape(7), shape(8));
    }

    #[test]
    fn every_scheduler_name_parses_back() {
        for k in SCHEDULER_KINDS {
            assert_eq!(parse_scheduler(k.name()), Some(k));
        }
        assert_eq!(parse_scheduler("nope"), None);
    }
}
