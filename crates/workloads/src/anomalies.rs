//! The scripted anomaly timings of Figures 1, 3 and 4.
//!
//! Segment layout (a cut of the inventory application):
//!
//! * `D0` — event records (the merchandise-arrival record `y`),
//! * `D1` — inventory levels,
//! * `D2` — merchandise-on-order records.
//!
//! Classes: type-1 writes `D0`; type-2 writes `D1`, reads `D0`; type-3
//! writes `D2`, reads `D0`, `D1`, `D2`. The DHG is the chain
//! `2 → 1 → 0`.
//!
//! **Figure 3 / 4 timing** (both use the same attempted order; the broken
//! scheduler variant determines whether it slips through):
//!
//! 1. `t3` (type-3) begins and reads the arrival record `y` — sees
//!    *absent* (not yet arrived);
//! 2. `t1` (type-1) begins, inserts `y`, commits;
//! 3. `t2` (type-2) begins, reads `y`, posts the new inventory level,
//!    commits;
//! 4. `t3` reads the inventory level and writes its reorder decision,
//!    commits.
//!
//! If step 4 sees `t2`'s inventory level, the dependency graph closes the
//! cycle `t2 → t1 → t3 → t2`: `t2` read `y` from `t1`; `t1` wrote the
//! successor of the `y`-version `t3` read; `t3` read inventory from
//! `t2`. Exactly the anomaly the paper draws in Figures 3 and 4.

use crate::script::{Script, ScriptAction, ScriptStep};
use crate::Workload;
use hdd::analysis::AccessSpec;
use mvstore::MvStore;
use rand::rngs::StdRng;
use txn_model::{ClassId, GranuleId, SegmentId, TxnProfile, TxnProgram, Value};

/// The three-segment inventory cut used by the anomaly scripts.
#[derive(Debug, Clone, Default)]
pub struct AnomalyWorkload;

/// The arrival record `y`.
pub fn granule_y() -> GranuleId {
    GranuleId::new(SegmentId(0), 1)
}

/// The inventory-level granule for the item.
pub fn granule_inventory() -> GranuleId {
    GranuleId::new(SegmentId(1), 1)
}

/// The merchandise-on-order granule for the item.
pub fn granule_order() -> GranuleId {
    GranuleId::new(SegmentId(2), 1)
}

impl Workload for AnomalyWorkload {
    fn name(&self) -> &'static str {
        "anomaly"
    }

    fn segments(&self) -> usize {
        3
    }

    fn segment_names(&self) -> Vec<String> {
        ["events", "inventory", "on-order"]
            .map(String::from)
            .to_vec()
    }

    fn specs(&self) -> Vec<AccessSpec> {
        let s = SegmentId;
        vec![
            AccessSpec::new("type1", vec![s(0)], vec![]),
            AccessSpec::new("type2", vec![s(1)], vec![s(0), s(1)]),
            AccessSpec::new("type3", vec![s(2)], vec![s(0), s(1), s(2)]),
        ]
    }

    fn seed(&self, store: &MvStore) {
        store.seed(granule_y(), Value::Absent);
        store.seed(granule_inventory(), Value::Int(10));
        store.seed(granule_order(), Value::Int(0));
    }

    fn generate(&mut self, _rng: &mut StdRng) -> TxnProgram {
        unreachable!("anomaly workload is scripted; use figure3_script/figure4_script")
    }
}

fn profiles() -> Vec<TxnProfile> {
    let s = SegmentId;
    vec![
        // t3: type-3 (reorder decision).
        TxnProfile::update(ClassId(2), vec![s(0), s(1), s(2)]),
        // t1: type-1 (arrival insert).
        TxnProfile::update(ClassId(0), vec![]),
        // t2: type-2 (inventory posting).
        TxnProfile::update(ClassId(1), vec![s(0), s(1)]),
    ]
}

fn steps() -> Vec<ScriptStep> {
    let y = granule_y();
    let inv = granule_inventory();
    let ord = granule_order();
    vec![
        // 1. t3 starts and reads the arrival record (absent).
        Script::step(0, ScriptAction::Begin),
        Script::step(0, ScriptAction::Read(y)),
        // 2. t1 inserts the arrival and commits.
        Script::step(1, ScriptAction::Begin),
        Script::step(1, ScriptAction::Write(y, Value::Int(25))),
        Script::step(1, ScriptAction::Commit),
        // 3. t2 reads the arrival, posts inventory, commits.
        Script::step(2, ScriptAction::Begin),
        Script::step(2, ScriptAction::Read(y)),
        Script::step(
            2,
            ScriptAction::WriteDerived {
                target: inv,
                base: y,
                delta: 10,
            },
        ),
        Script::step(2, ScriptAction::Commit),
        // 4. t3 reads inventory and writes the reorder decision.
        Script::step(0, ScriptAction::Read(inv)),
        Script::step(
            0,
            ScriptAction::WriteDerived {
                target: ord,
                base: inv,
                delta: 1,
            },
        ),
        Script::step(0, ScriptAction::Commit),
    ]
}

fn setup() -> Vec<(GranuleId, Value)> {
    vec![
        (granule_y(), Value::Absent),
        (granule_inventory(), Value::Int(10)),
        (granule_order(), Value::Int(0)),
    ]
}

/// The Figure 3 timing (run it against 2PL with and without cross-segment
/// read locks, and against HDD).
pub fn figure3_script() -> Script {
    Script {
        name: "figure3",
        transactions: profiles(),
        steps: steps(),
        setup: setup(),
    }
}

/// The Figure 4 timing (run it against TSO with and without cross-segment
/// read timestamps, and against HDD). The attempted order is the same;
/// the timestamps assigned at `Begin` are what TSO reasons about.
pub fn figure4_script() -> Script {
    Script {
        name: "figure4",
        transactions: profiles(),
        steps: steps(),
        setup: setup(),
    }
}

/// Lost update: two type-2 transactions read the same inventory level and
/// both write back a derived value. Without control both base their write
/// on the initial version — the first update is silently overwritten and
/// the dependency graph closes a two-cycle (each writer must follow the
/// other's read of `d^0`).
pub fn lost_update_script() -> Script {
    let inv = granule_inventory();
    let s = SegmentId;
    Script {
        name: "lost-update",
        transactions: vec![
            TxnProfile::update(ClassId(1), vec![s(1)]),
            TxnProfile::update(ClassId(1), vec![s(1)]),
        ],
        steps: vec![
            Script::step(0, ScriptAction::Begin),
            Script::step(1, ScriptAction::Begin),
            Script::step(0, ScriptAction::Read(inv)),
            Script::step(1, ScriptAction::Read(inv)),
            Script::step(
                0,
                ScriptAction::WriteDerived {
                    target: inv,
                    base: inv,
                    delta: 5,
                },
            ),
            Script::step(
                1,
                ScriptAction::WriteDerived {
                    target: inv,
                    base: inv,
                    delta: -3,
                },
            ),
            Script::step(0, ScriptAction::Commit),
            Script::step(1, ScriptAction::Commit),
        ],
        setup: vec![(granule_inventory(), Value::Int(10))],
    }
}

/// Dirty read: a type-2 transaction writes the inventory level, a
/// read-only transaction reads that uncommitted version and commits, then
/// the writer aborts. The committed read observed data that never
/// existed; [`txn_model::DependencyGraph::dirty_reads`] counts it.
pub fn dirty_read_script() -> Script {
    let inv = granule_inventory();
    let s = SegmentId;
    Script {
        name: "dirty-read",
        transactions: vec![
            TxnProfile::update(ClassId(1), vec![s(1)]),
            TxnProfile::read_only(vec![s(1)]),
        ],
        steps: vec![
            Script::step(0, ScriptAction::Begin),
            Script::step(0, ScriptAction::Write(inv, Value::Int(99))),
            Script::step(1, ScriptAction::Begin),
            Script::step(1, ScriptAction::Read(inv)),
            Script::step(1, ScriptAction::Commit),
            Script::step(0, ScriptAction::Abort),
        ],
        setup: vec![(granule_inventory(), Value::Int(10))],
    }
}

/// Write skew: one transaction reads merchandise-on-order and writes
/// inventory, the other reads inventory and writes merchandise-on-order.
/// Each write invalidates the premise of the other's read; without
/// control both commit and the dependency graph closes the two-cycle.
///
/// Note the first profile reads a *non-ancestor* segment (`D2` from class
/// 1), so this shape is **illegal under the anomaly hierarchy** — HDD's
/// analysis rejects it a priori (exactly what `hdd-lint` demonstrates)
/// and the script may only be replayed against the baselines.
pub fn write_skew_script() -> Script {
    let inv = granule_inventory();
    let ord = granule_order();
    let s = SegmentId;
    Script {
        name: "write-skew",
        transactions: vec![
            TxnProfile::update(ClassId(1), vec![s(2)]),
            TxnProfile::update(ClassId(2), vec![s(1)]),
        ],
        steps: vec![
            Script::step(0, ScriptAction::Begin),
            Script::step(1, ScriptAction::Begin),
            Script::step(0, ScriptAction::Read(ord)),
            Script::step(1, ScriptAction::Read(inv)),
            Script::step(
                0,
                ScriptAction::WriteDerived {
                    target: inv,
                    base: ord,
                    delta: 1,
                },
            ),
            Script::step(
                1,
                ScriptAction::WriteDerived {
                    target: ord,
                    base: inv,
                    delta: 1,
                },
            ),
            Script::step(0, ScriptAction::Commit),
            Script::step(1, ScriptAction::Commit),
        ],
        setup: vec![
            (granule_inventory(), Value::Int(10)),
            (granule_order(), Value::Int(0)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_share_the_attempted_order() {
        let f3 = figure3_script();
        let f4 = figure4_script();
        assert_eq!(f3.steps.len(), f4.steps.len());
        assert_eq!(f3.transactions.len(), 3);
        // t3 acts first and last.
        assert_eq!(f3.steps.first().unwrap().txn, 0);
        assert_eq!(f3.steps.last().unwrap().txn, 0);
    }

    #[test]
    fn anomaly_hierarchy_is_the_inventory_chain() {
        let w = AnomalyWorkload;
        let h = w.hierarchy();
        assert!(h.higher_than(ClassId(0), ClassId(2)));
        assert!(h.higher_than(ClassId(1), ClassId(2)));
        assert!(h.higher_than(ClassId(0), ClassId(1)));
    }
}
