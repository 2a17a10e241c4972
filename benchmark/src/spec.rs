//! What the benchmark measures: the four workloads and every metric by
//! name, unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root states the same lists; a unit test keeps the two in
//! step.

use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

/// Programs generated per set-up; clients cycle through them.
pub const POOL_SIZE: usize = 200_000;
/// Restart budget per program before it counts as failed.
pub const RESTART_BUDGET: usize = 100;
/// Each client calls `Scheduler::maintenance` after one in this many of
/// its own transactions on average (and once per backoff sleep). Fixed
/// by the load model: at one in 64 the registry/chain backlog halves
/// 2-client throughput on `inventory` (see README, "Findings").
pub const MAINTENANCE_EVERY: u32 = 16;
/// Measurement slices per timed leg; every end-to-end metric is the
/// median over them.
pub const SLICES: usize = 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// The paper's Figure 2 retail application.
    Inventory,
    /// One class, Zipf-hot read-modify-write.
    Hotclass,
    /// 15-class tree, working set larger than cache.
    Deeptree,
    /// `Inventory` with the group-commit ack rule.
    InventoryDurable,
}

/// Every workload, in report order.
pub const WORKLOADS: [WorkloadId; 4] = [
    WorkloadId::Inventory,
    WorkloadId::Hotclass,
    WorkloadId::Deeptree,
    WorkloadId::InventoryDurable,
];

impl WorkloadId {
    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Inventory => "inventory",
            WorkloadId::Hotclass => "hotclass",
            WorkloadId::Deeptree => "deeptree",
            WorkloadId::InventoryDurable => "inventory-durable",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layer it loads and which it
    /// bypasses (one line; the README has the paragraph).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Inventory => {
                "paper Fig. 2 app, 5 classes, fits in L2: Protocol A cross-class reads and wall reads dominate, almost no conflicts"
            }
            WorkloadId::Hotclass => {
                "one class, 64 Zipf-hot granules: all Protocol B, begin/commit fixed cost, chain installs and restarts; bypasses the hierarchy"
            }
            WorkloadId::Deeptree => {
                "15 classes, 245760 granules, beyond cache: long A/E walks, store misses and GC/wall scans dominate; no conflicts"
            }
            WorkloadId::InventoryDurable => {
                "inventory's program pool behind the group-commit WAL (16 frames, 2 ms linger, fsync): the log does >99% of the work"
            }
        }
    }

    /// A fresh generator for this workload.
    pub fn make(self) -> Box<dyn Workload> {
        match self {
            WorkloadId::Inventory | WorkloadId::InventoryDurable => {
                Box::new(Inventory::new(InventoryConfig::default()))
            }
            WorkloadId::Hotclass => Box::new(Synthetic::new(SyntheticConfig {
                depth: 1,
                fanout: 1,
                granules_per_segment: 64,
                theta: 0.99,
                read_only_share: 0.1,
                ..SyntheticConfig::default()
            })),
            WorkloadId::Deeptree => Box::new(Synthetic::new(SyntheticConfig {
                depth: 4,
                fanout: 2,
                granules_per_segment: 16384,
                reads_per_ancestor: 4,
                theta: 0.6,
                read_only_share: 0.3,
                off_chain_share: 0.5,
            })),
        }
    }

    /// Update transactions wait for a durable group-commit ack.
    pub fn durable(self) -> bool {
        self == WorkloadId::InventoryDurable
    }

    /// Every update program adds exactly 1 to one integer granule of a
    /// store seeded with zeros, so the sum of the latest values must
    /// equal the number of committed update programs.
    pub fn conserves(self) -> bool {
        matches!(self, WorkloadId::Hotclass | WorkloadId::Deeptree)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, all from the timed leg (`--trace 0`).
///
/// Every bound is the 25 % the driver caps bounds at, wider than the
/// issue's 10 / 15 / 25 / 25 %: on the reference host — a 2-vCPU VM
/// whose speed shifts by tens of percent for minutes at a time — ten
/// 20 s runs of one commit spread (IQR ÷ median) 2–7 % in a quiet hour
/// and up to 15 % on `commits_per_s`, 16 % on `txn_p50_us` and 21 % on
/// `txn_p99_us` in a noisy one; a tighter bound would reject runs of an
/// unchanged commit (README, "Observed spreads").
///
/// The issue's `ro_p99_us` is reported per layer (`client.ro_p99_us`)
/// and `ro_mean_us` stands in its place here: `inventory-durable`
/// completes only ≈ 140 read-only programs a second, so a run's p99
/// rests on a few dozen samples on the steepest part of the
/// distribution (p97 14 µs, p99 24–31 µs) and spread 17–37 % between
/// runs of one commit — above any bound the driver accepts. The mean
/// uses every sample, moves when reads start to wait, and spread 5–6 %
/// in the same sets of runs.
///
/// The issue's sixth metric, `failed_share`, is carried by the result
/// line's `attempted` / `failed` counts instead: the workloads are
/// chosen so no program exhausts its restart budget, and a metric that
/// is always 0 has no relative bound. It is also reported per layer as
/// `client.failed_share`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "commits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ro_mean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics, all from the traced run (`--trace 1`):
/// `(name, unit, better)`. Grouped by layer (= module).
pub const PER_LAYER: [(&str, &str, Better); 69] = {
    use Better::{Higher, Lower};
    [
        // client (the benchmark's own loop)
        ("client.restart_share", "share", Lower),
        ("client.block_share", "share", Lower),
        ("client.failed_share", "share", Lower),
        ("client.backoff_ns_per_txn", "ns", Lower),
        ("client.update_p50_us", "us", Lower),
        ("client.update_p99_us", "us", Lower),
        ("client.txn_p999_us", "us", Lower),
        ("client.ro_p50_us", "us", Lower),
        ("client.ro_p99_us", "us", Lower),
        ("client.unattributed_share", "share", Lower),
        ("client.trace_overhead_share", "share", Lower),
        ("process.peak_rss_mb", "MB", Lower),
        // hdd::protocol (spans on Scheduler calls)
        ("hdd.begin_ns", "ns", Lower),
        ("hdd.begin_p99_ns", "ns", Lower),
        ("hdd.read_own_ns", "ns", Lower),
        ("hdd.read_cross_ns", "ns", Lower),
        ("hdd.read_ro_ns", "ns", Lower),
        ("hdd.write_ns", "ns", Lower),
        ("hdd.commit_ns", "ns", Lower),
        ("hdd.commit_p99_ns", "ns", Lower),
        ("hdd.abort_ns", "ns", Lower),
        ("hdd.reads_per_txn", "count", Lower),
        ("hdd.writes_per_txn", "count", Lower),
        ("hdd.cross_read_share", "share", Higher),
        ("hdd.read_registrations_per_txn", "count", Lower),
        ("hdd.rejections_per_kcommit", "count", Lower),
        // hdd maintenance (background work)
        ("maintenance.ns_per_call", "ns", Lower),
        ("maintenance.p99_ns", "ns", Lower),
        ("maintenance.share", "share", Lower),
        ("maintenance.walls_per_kcommit", "count", Higher),
        ("maintenance.gced_per_commit", "count", Higher),
        // hdd::activity, hdd::timewall (probes)
        ("activity.begin_end_ns", "ns", Lower),
        ("activity.i_old_ns", "ns", Lower),
        ("activity.a_fn_ns", "ns", Lower),
        ("activity.e_fn_ns", "ns", Lower),
        ("timewall.release_ns", "ns", Lower),
        // txn-model
        ("clock.tick_ns", "ns", Lower),
        ("schedlog.record_ns", "ns", Lower),
        ("wal.submit_ns", "ns", Lower),
        ("wal.submit_p99_ns", "ns", Lower),
        ("wal.fsync_ns", "ns", Lower),
        ("wal.wait_ns", "ns", Lower),
        ("wal.frames_per_batch", "count", Higher),
        ("wal.bytes_per_commit", "bytes", Lower),
        ("wal.encode_ns_per_frame", "ns", Lower),
        ("wal.decode_ns_per_frame", "ns", Lower),
        // mvstore
        ("store.read_ns", "ns", Lower),
        ("store.write_commit_ns", "ns", Lower),
        ("store.prune_ns_per_granule", "ns", Lower),
        ("store.versions_per_granule", "count", Lower),
        ("store.max_chain_len", "count", Lower),
        ("store.granules", "count", Lower),
        // obs
        ("obs.on_overhead_share", "share", Lower),
        // certify / recovery (from the check leg)
        ("certify.ns_per_event", "ns", Lower),
        ("recovery.ns_per_frame", "ns", Lower),
        ("recovery.recovered_share", "share", Higher),
        // set-up split
        ("setup.generate_ns_per_program", "ns", Lower),
        ("setup.seed_ns_per_granule", "ns", Lower),
        ("setup.build_ns", "ns", Lower),
        // throughput of each leg of the traced run, so the three
        // overhead shares above can be read with their bases
        ("leg.reference_commits_per_s", "1/s", Higher),
        ("leg.traced_commits_per_s", "1/s", Higher),
        ("leg.obs_commits_per_s", "1/s", Higher),
        // span counts: the work each layer did in the traced leg
        ("hdd.begin_calls", "count", Lower),
        ("hdd.read_own_calls", "count", Lower),
        ("hdd.read_cross_calls", "count", Lower),
        ("hdd.read_ro_calls", "count", Lower),
        ("hdd.write_calls", "count", Lower),
        ("hdd.commit_calls", "count", Lower),
        ("maintenance.calls", "count", Lower),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_unique_and_within_the_caps() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(legal_name(n), "illegal name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program emits. They must agree on every name, unit, direction
    /// and bound.
    #[test]
    fn benchmark_json_states_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .to_vec()
        };
        let s = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let wl = list("workloads");
        assert_eq!(wl.len(), WORKLOADS.len());
        for (j, w) in wl.iter().zip(WORKLOADS) {
            assert_eq!(s(j, "name"), w.name());
            assert_eq!(s(j, "why"), w.why());
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let pl = list("per_layer");
        assert_eq!(pl.len(), PER_LAYER.len());
        for (j, m) in pl.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), m.0);
            assert_eq!(s(j, "unit"), m.1);
            assert_eq!(s(j, "better"), m.2.as_str());
        }
    }
}
