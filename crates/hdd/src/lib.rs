//! # hdd — Hierarchical Database Decomposition concurrency control
//!
//! A faithful implementation of Meichun Hsu's *Hierarchical Database
//! Decomposition* technique (MIT INFOPLEX TR #12, 1982 / PODS 1983): a
//! multi-version, timestamp-based concurrency control that uses a priori
//! transaction analysis to eliminate read locks and read timestamps for
//! cross-class and read-only reads.
//!
//! ## Layers
//!
//! * [`graph`] — Section 3.1: digraphs, transitive closure/reduction,
//!   semi-trees, transitive semi-trees, critical paths, undirected
//!   critical paths and the `higher-than` partial order.
//! * [`analysis`] — Section 3.2: transaction access specs → data hierarchy
//!   graph → validated TST-hierarchical [`Hierarchy`] and transaction
//!   classification.
//! * [`activity`] — Sections 4.1/5.1: per-class activity histories and
//!   the `I_old`, `C_late`, `A`, `B`, `E` functions, plus the `⇒`
//!   (*topologically follows*) relation checker.
//! * [`timewall`] — Section 5.1/5.2: time walls for ad-hoc read-only
//!   transactions.
//! * [`protocol`] — Sections 4.2/5.2: the [`HddScheduler`] implementing
//!   Protocols A, B and C behind the common
//!   [`Scheduler`](txn_model::Scheduler) interface.
//! * [`decompose`] — Section 7.2 (future work, implemented here): acyclic
//!   → TST repartitioning and granule-clustering decomposition
//!   methodology.
//!
//! ## Quick example
//!
//! ```
//! use hdd::analysis::{AccessSpec, Hierarchy};
//! use hdd::protocol::{HddConfig, HddScheduler};
//! use mvstore::MvStore;
//! use std::sync::Arc;
//! use txn_model::{
//!     ClassId, GranuleId, LogicalClock, ReadOutcome, Scheduler, SegmentId, TxnProfile, Value,
//! };
//!
//! // Two segments: events (D0) written by class 0, inventory (D1)
//! // written by class 1 which also reads D0.
//! let s = SegmentId;
//! let hierarchy = Hierarchy::build(
//!     2,
//!     &[
//!         AccessSpec::new("log-event", vec![s(0)], vec![]),
//!         AccessSpec::new("post-inventory", vec![s(1)], vec![s(0)]),
//!     ],
//! )
//! .unwrap();
//!
//! let store = Arc::new(MvStore::new());
//! store.seed(GranuleId::new(s(0), 1), Value::Int(7));
//! let sched = HddScheduler::new(
//!     Arc::new(hierarchy),
//!     store,
//!     Arc::new(LogicalClock::new()),
//!     HddConfig::default(),
//! );
//!
//! let t = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0)]));
//! // Cross-class read: served without any read registration.
//! match sched.read(&t, GranuleId::new(s(0), 1)) {
//!     ReadOutcome::Value(v) => assert_eq!(*v, Value::Int(7)),
//!     other => panic!("{other:?}"),
//! }
//! sched.commit(&t);
//! assert_eq!(sched.metrics().snapshot().read_registrations, 0);
//! ```

#![warn(missing_docs)]

pub mod activity;
pub mod analysis;
pub mod decompose;
pub mod graph;
pub mod protocol;
pub mod recovery;
pub mod timewall;

pub use analysis::{AccessSpec, Hierarchy, HierarchyError};
pub use protocol::{HddConfig, HddScheduler};
pub use recovery::{resume, ResumeReport};
pub use timewall::{TimeWall, TimeWallService};
