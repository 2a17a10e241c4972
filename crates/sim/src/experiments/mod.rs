//! One experiment per figure of the paper (see DESIGN.md §4).
//!
//! Every experiment returns a [`Table`] whose rows
//! are what the corresponding figure claims; `quick = true` shrinks the
//! workload sizes for tests and CI.

pub mod e01_lost_update;
pub mod e02_inventory;
pub mod e03_2pl_anomaly;
pub mod e04_tso_anomaly;
pub mod e05_tst_recognition;
pub mod e06_activity_link;
pub mod e07_follows;
pub mod e08_readonly_cp;
pub mod e09_timewall;
pub mod e10_comparison;
pub mod e11_cross_read_sweep;
pub mod e12_dbc_messages;
pub mod e15_certify;
pub mod e16_chaos;
pub mod e17_gauges;
pub mod e18_blame;
pub mod e19_durability;
pub mod e20_drift;

use crate::report::Table;

/// Run every experiment (E1–E10 per figure, plus the E11 sweep, the
/// E12 message analysis, the E15 certification sweep, the E16 chaos
/// soak, the E17 staleness-gauge observatory, the E18 flight-recorder
/// blame profile, the E19 durability suite and the E20 observed-shape
/// advisor) and return the tables in order.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e01_lost_update::run(quick),
        e02_inventory::run(quick),
        e03_2pl_anomaly::run(),
        e04_tso_anomaly::run(),
        e05_tst_recognition::run(quick),
        e06_activity_link::run(quick),
        e07_follows::run(quick),
        e08_readonly_cp::run(quick),
        e09_timewall::run(quick),
        e10_comparison::run(quick),
        e11_cross_read_sweep::run(quick),
        e12_dbc_messages::run(quick),
        e15_certify::run(quick),
        e16_chaos::run(quick),
        e17_gauges::run(quick),
        e18_blame::run(quick),
        e19_durability::run(quick),
        e20_drift::run(quick),
    ]
}
