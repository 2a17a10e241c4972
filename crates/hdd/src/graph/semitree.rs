//! Semi-trees and transitive semi-trees (Section 3.1).
//!
//! * A **semi-tree** is a digraph with *at most one undirected path between
//!   any pair of nodes* — equivalently, its underlying undirected
//!   multigraph is a forest with no parallel or antiparallel edge pairs.
//!   Every arc of a semi-tree is a **critical arc**.
//! * A **transitive semi-tree** (TST) is a digraph whose transitive
//!   reduction is a semi-tree: a semi-tree plus arbitrarily many
//!   transitively induced arcs.
//!
//! The paper's concurrency-control technique applies exactly to database
//! partitions whose data hierarchy graph is a TST.

use super::digraph::Digraph;

/// Why a digraph failed the semi-tree / TST test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemiTreeViolation {
    /// A directed cycle (node list).
    DirectedCycle(Vec<usize>),
    /// Two nodes connected by more than one undirected path; the pair of
    /// arcs that closed the second path.
    UndirectedCycle {
        /// One endpoint of the edge that closed the cycle.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

/// Union-find over dense indices `0..n` (path halving, no ranks): the
/// semi-tree test, the repartitioner's contraction and the item
/// clusterer all use it.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union; returns false if already in the same component.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// Check whether `g` is a semi-tree; `Ok(())` or the violation found.
///
/// Both arcs of an antiparallel pair count as distinct undirected paths
/// between their endpoints, so any antiparallel pair (and any undirected
/// cycle) disqualifies.
pub fn check_semi_tree(g: &Digraph) -> Result<(), SemiTreeViolation> {
    let mut uf = UnionFind::new(g.node_count());
    for (u, v) in g.arcs() {
        if !uf.union(u, v) {
            return Err(SemiTreeViolation::UndirectedCycle { u, v });
        }
    }
    Ok(())
}

/// True iff `g` is a semi-tree.
pub fn is_semi_tree(g: &Digraph) -> bool {
    check_semi_tree(g).is_ok()
}

/// Check whether `g` is a transitive semi-tree. On success returns the
/// transitive reduction (whose arcs are the **critical arcs**).
pub fn check_transitive_semi_tree(g: &Digraph) -> Result<Digraph, SemiTreeViolation> {
    if let Some(cycle) = g.find_cycle() {
        return Err(SemiTreeViolation::DirectedCycle(cycle));
    }
    let r = g.transitive_reduction();
    check_semi_tree(&r)?;
    Ok(r)
}

/// True iff `g` is a transitive semi-tree.
pub fn is_transitive_semi_tree(g: &Digraph) -> bool {
    check_transitive_semi_tree(g).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_semi_tree() {
        let g = Digraph::from_arcs(3, &[(0, 1), (1, 2)]);
        assert!(is_semi_tree(&g));
    }

    #[test]
    fn diamond_is_not_semi_tree() {
        // 0→1→3 and 0→2→3: two undirected paths between 0 and 3.
        let g = Digraph::from_arcs(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert!(!is_semi_tree(&g));
        // ... and it is not a TST either (the diamond IS its own
        // reduction).
        assert!(!is_transitive_semi_tree(&g));
    }

    #[test]
    fn antiparallel_pair_rejected() {
        let g = Digraph::from_arcs(2, &[(0, 1), (1, 0)]);
        assert!(!is_semi_tree(&g));
        match check_semi_tree(&g) {
            Err(SemiTreeViolation::UndirectedCycle { .. }) => {}
            other => panic!("expected undirected cycle, got {other:?}"),
        }
    }

    #[test]
    fn semi_tree_allows_mixed_directions() {
        // A "semi" tree: undirected shape is a tree, arc directions free.
        //   0 → 1 ← 2,  3 → 1
        let g = Digraph::from_arcs(4, &[(0, 1), (2, 1), (3, 1)]);
        assert!(is_semi_tree(&g));
        assert!(is_transitive_semi_tree(&g));
    }

    #[test]
    fn figure5_style_tst_accepted() {
        // Critical chain 0→1→2→3 with transitively induced extras.
        let g = Digraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]);
        let r = check_transitive_semi_tree(&g).expect("is a TST");
        assert_eq!(r.arcs(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn directed_cycle_reported() {
        let g = Digraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        match check_transitive_semi_tree(&g) {
            Err(SemiTreeViolation::DirectedCycle(c)) => assert_eq!(c.len(), 3),
            other => panic!("expected directed cycle, got {other:?}"),
        }
    }

    #[test]
    fn branching_tst() {
        // Tree: 1→0, 2→0, 3→1, 4→1 (arcs point lower → higher) plus
        // induced 3→0, 4→0.
        let g = Digraph::from_arcs(5, &[(1, 0), (2, 0), (3, 1), (4, 1), (3, 0), (4, 0)]);
        let r = check_transitive_semi_tree(&g).expect("is a TST");
        assert_eq!(r.arc_count(), 4);
        assert!(r.has_arc(3, 1) && !r.has_arc(3, 0));
    }

    #[test]
    fn forest_tst_with_multiple_components() {
        let g = Digraph::from_arcs(4, &[(0, 1), (2, 3)]);
        assert!(is_transitive_semi_tree(&g));
    }

    #[test]
    fn non_tree_reduction_rejected() {
        // Reduction contains 0→2, 1→2, 0→3, 1→3 (K2,2): undirected cycle.
        let g = Digraph::from_arcs(4, &[(0, 2), (1, 2), (0, 3), (1, 3)]);
        assert!(!is_transitive_semi_tree(&g));
    }
}
