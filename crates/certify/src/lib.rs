//! A-priori decomposition linting and offline serializability
//! certification for hierarchical database decomposition.
//!
//! Two complementary static/offline checks bracket the runtime
//! schedulers:
//!
//! - **Linter** ([`lint`]): before any transaction runs, analyze the
//!   workload's access specs. Build the dynamic hierarchy graph,
//!   transitively reduce it, and check the semi-tree property; emit
//!   rustc-style diagnostics with concrete witnesses (the two
//!   undirected paths that break the semi-tree, the segment written by
//!   two classes, the non-ancestor read) and repair suggestions
//!   (minimal segment merges via the contraction planner).
//! - **Certifier** ([`certifier`]): after a run, take the drained
//!   schedule log (and optionally the obs trace ring), rebuild the
//!   multiversion serialization graph, and check both *acyclicity* and
//!   the stronger HDD *partition-synchronization rule* — every
//!   dependency `t1 → t2` must be matched by `t1 ⇒ t2` (topologically
//!   follows) under the hierarchy's A-functions. On violation, a
//!   delta-debugging shrinker ([`shrink`]) reduces the schedule to a
//!   1-minimal counterexample and renders an annotated report.
//!
//! The [`conformance`] module generates seeded, hierarchy-legal random
//! scripts so the sim can sweep every scheduler and certify every log.
//!
//! The [`advisor`] module runs the linter at runtime: it lints the
//! transaction shapes the scheduler actually admitted and scores the
//! running hierarchy against the best-known TST for them.
//!
//! The crate is dependency-free beyond the workspace (hand-rolled JSON,
//! self-contained SplitMix64) and ships the `hdd-lint` binary.

pub mod advisor;
pub mod certifier;
pub mod conformance;
pub mod diag;
pub mod lint;
pub mod shrink;

pub use advisor::{advise, canonical_labels, Advice, AdvisorReport, SHAPE_FLOOR};
pub use certifier::{certify_events, certify_log, Certificate, Counterexample, Rule, Violation};
pub use conformance::{generate_scripts, ConformanceConfig, SplitMix64};
pub use diag::{Diagnostic, Severity};
pub use lint::{lint_script, lint_specs, lint_workload, LintReport};
pub use shrink::ddmin;
