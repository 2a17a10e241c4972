//! Seeded fault plans: which fault (if any) hits each program.

use obs::FaultCode;
use std::time::Duration;

/// The fault injected into one program's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// Run the program faithfully.
    #[default]
    None,
    /// Abandon the transaction without aborting it once `after_ops`
    /// operations have completed (clamped to the program length: a
    /// program shorter than `after_ops` crashes before its commit).
    Crash {
        /// Completed operations before the worker dies.
        after_ops: usize,
    },
    /// Sleep mid-transaction while holding the registry entry.
    Stall {
        /// Completed operations before the stall.
        after_ops: usize,
        /// Stall length in microseconds.
        micros: u64,
    },
    /// Sleep between the last operation and the commit request.
    DelayCommit {
        /// Delay length in microseconds.
        micros: u64,
    },
}

impl FaultKind {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Crash { .. } => "crash",
            FaultKind::Stall { .. } => "stall",
            FaultKind::DelayCommit { .. } => "delay-commit",
        }
    }

    /// The fault to inject now, if any: the code its
    /// [`obs::TraceEvent::CrashPoint`] record carries and how long the
    /// worker pauses — no pause means it dies, abandoning the
    /// transaction. `done_ops` operations have completed; `at_commit` is
    /// true once only the commit request is left, where a crash or stall
    /// whose `after_ops` lies past the program's end fires too.
    pub fn due(&self, done_ops: usize, at_commit: bool) -> Option<(FaultCode, Option<Duration>)> {
        let (code, after_ops, micros) = match *self {
            FaultKind::None => return None,
            FaultKind::Crash { after_ops } => (FaultCode::Crash, after_ops, None),
            FaultKind::Stall { after_ops, micros } => (FaultCode::Stall, after_ops, Some(micros)),
            FaultKind::DelayCommit { micros } => (FaultCode::DelayCommit, usize::MAX, Some(micros)),
        };
        (at_commit || done_ops >= after_ops).then(|| (code, micros.map(Duration::from_micros)))
    }
}

/// Fault-mix knobs for [`FaultPlan::generate`]. Probabilities are
/// evaluated in order (crash, stall, delay); their sum should stay
/// below 1.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability a program's worker crashes mid-transaction.
    pub crash_prob: f64,
    /// Probability a program's worker stalls mid-transaction.
    pub stall_prob: f64,
    /// Probability a program's worker delays its commit.
    pub delay_prob: f64,
    /// Faults fire after `0..max_after_ops` completed operations.
    pub max_after_ops: usize,
    /// Stall length in microseconds.
    pub stall_micros: u64,
    /// Commit-delay length in microseconds.
    pub delay_micros: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            crash_prob: 0.05,
            stall_prob: 0.05,
            delay_prob: 0.05,
            max_after_ops: 4,
            stall_micros: 3_000,
            delay_micros: 500,
        }
    }
}

/// A reproducible per-program fault assignment.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// `faults[i]` is injected into the worker running program `i`.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// No faults for `n` programs (control runs).
    pub fn clean(n: usize) -> Self {
        FaultPlan {
            seed: 0,
            faults: vec![FaultKind::None; n],
        }
    }

    /// Draw a fault for each of `n` programs from `seed`.
    pub fn generate(seed: u64, n: usize, cfg: &ChaosConfig) -> Self {
        let mut rng = SplitMix64::new(seed);
        let faults = (0..n)
            .map(|_| {
                let p = rng.next_f64();
                let after_ops = rng.below(cfg.max_after_ops.max(1) as u64) as usize;
                if p < cfg.crash_prob {
                    FaultKind::Crash { after_ops }
                } else if p < cfg.crash_prob + cfg.stall_prob {
                    FaultKind::Stall {
                        after_ops,
                        micros: cfg.stall_micros,
                    }
                } else if p < cfg.crash_prob + cfg.stall_prob + cfg.delay_prob {
                    FaultKind::DelayCommit {
                        micros: cfg.delay_micros,
                    }
                } else {
                    FaultKind::None
                }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Number of planned faults of each kind: `(crash, stall, delay)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in &self.faults {
            match f {
                FaultKind::Crash { .. } => c.0 += 1,
                FaultKind::Stall { .. } => c.1 += 1,
                FaultKind::DelayCommit { .. } => c.2 += 1,
                FaultKind::None => {}
            }
        }
        c
    }
}

/// SplitMix64: tiny, seedable, and good enough for fault assignment.
/// Local copy — the harness must stay deterministic independent of any
/// driver RNG.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = ChaosConfig::default();
        let a = FaultPlan::generate(42, 100, &cfg);
        let b = FaultPlan::generate(42, 100, &cfg);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::generate(43, 100, &cfg);
        assert_ne!(a.faults, c.faults, "different seeds diverge");
    }

    #[test]
    fn probabilities_shape_the_mix() {
        let all_crash = ChaosConfig {
            crash_prob: 1.0,
            stall_prob: 0.0,
            delay_prob: 0.0,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(7, 50, &all_crash);
        assert_eq!(plan.counts(), (50, 0, 0));
        assert!(plan
            .faults
            .iter()
            .all(|f| matches!(f, FaultKind::Crash { after_ops } if *after_ops < 4)));

        let none = ChaosConfig {
            crash_prob: 0.0,
            stall_prob: 0.0,
            delay_prob: 0.0,
            ..ChaosConfig::default()
        };
        assert_eq!(FaultPlan::generate(7, 50, &none).counts(), (0, 0, 0));
    }

    #[test]
    fn default_mix_hits_every_kind_eventually() {
        let plan = FaultPlan::generate(1, 500, &ChaosConfig::default());
        let (c, s, d) = plan.counts();
        assert!(c > 0 && s > 0 && d > 0, "({c}, {s}, {d})");
        assert!(c + s + d < 500, "most programs run clean");
    }

    #[test]
    fn faults_fall_due_at_their_position_or_at_the_commit() {
        let crash = FaultKind::Crash { after_ops: 2 };
        assert_eq!(crash.due(1, false), None);
        assert_eq!(crash.due(2, false), Some((FaultCode::Crash, None)));
        assert_eq!(
            crash.due(1, true),
            Some((FaultCode::Crash, None)),
            "clamped to the end"
        );
        let stall = FaultKind::Stall {
            after_ops: 1,
            micros: 7,
        };
        let pause = Some(Duration::from_micros(7));
        assert_eq!(stall.due(0, false), None);
        assert_eq!(stall.due(1, false), Some((FaultCode::Stall, pause)));
        let delay = FaultKind::DelayCommit { micros: 7 };
        assert_eq!(delay.due(9, false), None);
        assert_eq!(delay.due(0, true), Some((FaultCode::DelayCommit, pause)));
        assert_eq!(FaultKind::None.due(9, true), None);
    }
}
