//! Acyclic → TST repartitioning (Section 7.2.1).
//!
//! "Based on the theories developed for the current technique, we propose
//! to find an algorithm that will transform a database partition whose
//! data hierarchy graph is of the form of an acyclic graph to a legal
//! partition, while preserving the granularity of the original partition
//! as much as possible."
//!
//! [`repartition_to_tst`] implements a greedy contraction: while the
//! contracted graph is not a transitive semi-tree, merge the offending
//! pair of nodes —
//!
//! * nodes on a directed cycle are merged (a cycle of mutually linked
//!   segments can never be ordered, so they must share a class), and
//! * when the transitive reduction has a second undirected path between
//!   two nodes, the endpoints of the cycle-closing critical arc are
//!   merged.
//!
//! Each step strictly reduces the node count, so the loop terminates in
//! at most `n − 1` merges; a single node is trivially a TST, so the
//! result is always legal. Greedy pairwise merging keeps granularity
//! high in practice (the optimal minimum-merge partition is not required
//! by the paper and is combinatorial).

use crate::graph::{check_semi_tree, Digraph, SemiTreeViolation, UnionFind};
use txn_model::ClassId;

/// A segment-grouping produced by repartitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    /// For each original node (segment/class), its new class.
    pub group_of: Vec<ClassId>,
    /// Number of classes after merging.
    pub n_classes: usize,
    /// The merges performed, as pairs of original node indices
    /// (diagnostics / reporting).
    pub merges: Vec<(usize, usize)>,
    /// The contracted, now-TST class-level DHG.
    pub contracted: Digraph,
}

impl MergePlan {
    /// True if no merging was needed (already a TST).
    pub fn is_identity(&self) -> bool {
        self.merges.is_empty()
    }
}

/// Contract `g` by the grouping in `uf`; returns the contracted graph and
/// the dense new-index of each original node.
fn contract(g: &Digraph, uf: &mut UnionFind) -> (Digraph, Vec<usize>) {
    let n = g.node_count();
    let mut rep_to_dense: Vec<isize> = vec![-1; n];
    let mut dense = Vec::new();
    let mut index_of = vec![0usize; n];
    for (v, slot) in index_of.iter_mut().enumerate() {
        let r = uf.find(v);
        if rep_to_dense[r] < 0 {
            rep_to_dense[r] = dense.len() as isize;
            dense.push(r);
        }
        *slot = rep_to_dense[r] as usize;
    }
    let mut contracted = Digraph::new(dense.len());
    for (u, v) in g.arcs() {
        let (cu, cv) = (index_of[u], index_of[v]);
        if cu != cv {
            contracted.add_arc(cu, cv);
        }
    }
    (contracted, index_of)
}

/// Merge nodes of `dhg` until the contracted graph is a transitive
/// semi-tree. Accepts any digraph (directed cycles are merged away too,
/// so the function also legalizes cyclic DHGs arising from granule-level
/// clustering).
pub fn repartition_to_tst(dhg: &Digraph) -> MergePlan {
    let n = dhg.node_count();
    let mut uf = UnionFind::new(n);
    let mut merges = Vec::new();

    loop {
        let (contracted, index_of) = contract(dhg, &mut uf);
        // Directed cycles: merge the whole cycle (pairwise suffices; the
        // loop re-checks).
        if let Some(cycle) = contracted.find_cycle() {
            // Map dense indices back to original representatives.
            let originals: Vec<usize> = (0..n).filter(|&v| cycle.contains(&index_of[v])).collect();
            let first = originals[0];
            for &v in &originals[1..] {
                merges.push((first, v));
                uf.union(first, v);
            }
            continue;
        }
        let reduction = contracted.transitive_reduction();
        match check_semi_tree(&reduction) {
            Ok(()) => {
                let mut group_of = vec![ClassId(0); n];
                for v in 0..n {
                    group_of[v] = ClassId(index_of[v] as u32);
                }
                return MergePlan {
                    group_of,
                    n_classes: contracted.node_count(),
                    merges,
                    contracted,
                };
            }
            Err(SemiTreeViolation::UndirectedCycle { u, v }) => {
                // u, v are dense indices; merge any pair of originals.
                let ou = (0..n).find(|&x| index_of[x] == u).expect("nonempty group");
                let ov = (0..n).find(|&x| index_of[x] == v).expect("nonempty group");
                merges.push((ou, ov));
                uf.union(ou, ov);
            }
            Err(SemiTreeViolation::DirectedCycle(_)) => {
                unreachable!("cycle handled before reduction")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::is_transitive_semi_tree;

    #[test]
    fn tst_input_is_untouched() {
        let g = Digraph::from_arcs(3, &[(2, 1), (1, 0), (2, 0)]);
        let plan = repartition_to_tst(&g);
        assert!(plan.is_identity());
        assert_eq!(plan.n_classes, 3);
    }

    #[test]
    fn diamond_merges_one_pair() {
        // 3→1→0, 3→2→0: the diamond needs exactly one merge.
        let g = Digraph::from_arcs(4, &[(3, 1), (3, 2), (1, 0), (2, 0)]);
        let plan = repartition_to_tst(&g);
        assert!(!plan.is_identity());
        assert_eq!(plan.merges.len(), 1);
        assert_eq!(plan.n_classes, 3);
        assert!(is_transitive_semi_tree(&plan.contracted));
    }

    #[test]
    fn directed_cycle_collapses() {
        let g = Digraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        let plan = repartition_to_tst(&g);
        assert_eq!(plan.n_classes, 1);
        assert!(plan.group_of.iter().all(|&c| c == plan.group_of[0]));
    }

    #[test]
    fn contracted_graph_is_always_tst() {
        // K2,2-ish mess plus extra arcs.
        let g = Digraph::from_arcs(
            6,
            &[
                (0, 2),
                (1, 2),
                (0, 3),
                (1, 3),
                (4, 0),
                (4, 1),
                (5, 4),
                (5, 2),
            ],
        );
        let plan = repartition_to_tst(&g);
        assert!(is_transitive_semi_tree(&plan.contracted));
        // Grouping is a function onto 0..n_classes.
        assert!(plan.group_of.iter().all(|c| (c.index()) < plan.n_classes));
        for cls in 0..plan.n_classes {
            assert!(plan.group_of.iter().any(|c| c.index() == cls));
        }
    }

    #[test]
    fn single_node_and_empty() {
        let plan = repartition_to_tst(&Digraph::new(1));
        assert!(plan.is_identity());
        assert_eq!(plan.n_classes, 1);
        let plan = repartition_to_tst(&Digraph::new(0));
        assert_eq!(plan.n_classes, 0);
    }
}
