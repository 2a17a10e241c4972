//! # workloads — transaction generators for the HDD reproduction
//!
//! * [`banking`] — the Figure 1 bank-account workload (lost-update
//!   demonstration, experiment E1);
//! * [`inventory`] — the paper's Section 1.2 retail inventory application
//!   (Figure 2), extended with the supplier-profile level of
//!   Section 1.2.2 and an off-chain accounting branch so every protocol
//!   (A, B and C) is exercised — experiments E2, E8 and E10;
//! * [`synthetic`] — parameterized hierarchy workloads (depth, fan-out,
//!   skew, read-only share) for the sweeps;
//! * [`anomalies`] — the *scripted* interleavings of Figures 3 and 4;
//! * [`script`] — the deterministic step-script vocabulary those use;
//! * [`zipf`] — a Zipf sampler for skewed granule choice.

#![warn(missing_docs)]

pub mod anomalies;
pub mod banking;
pub mod inventory;
pub mod script;
pub mod synthetic;
pub mod zipf;

use hdd::analysis::{AccessSpec, Hierarchy};
use rand::rngs::StdRng;
use txn_model::TxnProgram;

/// A transaction workload: hierarchy description, store seeding, and a
/// transaction-program generator.
pub trait Workload {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Number of physical segments.
    fn segments(&self) -> usize;

    /// The class access specs (transaction analysis input).
    fn specs(&self) -> Vec<AccessSpec>;

    /// Human-readable segment names, used by `hdd-lint` diagnostics and
    /// profile-violation messages. Defaults to `D{i}`.
    fn segment_names(&self) -> Vec<String> {
        (0..self.segments()).map(|i| format!("D{i}")).collect()
    }

    /// The validated hierarchy (all bundled workloads are legal TSTs).
    fn hierarchy(&self) -> Hierarchy {
        Hierarchy::build(self.segments(), &self.specs())
            .expect("bundled workloads are TST-hierarchical")
            .with_segment_names(self.segment_names())
    }

    /// Seed the initial database image into `store`. Recovery calls it
    /// too: a recovered store is this image plus the replayed log.
    fn seed(&self, store: &mvstore::MvStore);

    /// Generate the next transaction program.
    fn generate(&mut self, rng: &mut StdRng) -> TxnProgram;
}
