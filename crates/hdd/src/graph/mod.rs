//! Graph-theoretic machinery of Section 3: digraphs, transitive
//! closure/reduction, semi-trees, transitive semi-trees, critical paths,
//! undirected critical paths and the `higher-than` partial order.

pub mod digraph;
pub mod paths;
pub mod semitree;

pub use digraph::Digraph;
pub use paths::PathTables;
pub(crate) use semitree::UnionFind;
pub use semitree::{
    check_semi_tree, check_transitive_semi_tree, is_semi_tree, is_transitive_semi_tree,
    SemiTreeViolation,
};
