//! Critical paths, undirected critical paths, and the `higher-than`
//! partial order over a validated transitive semi-tree.
//!
//! Properties from Section 3.1 realized here:
//! * a path is critical iff composed of critical arcs alone;
//! * there is at most one critical path between any pair of nodes;
//! * `T_j ↑ T_i` (T_j *higher than* T_i) iff the critical path `CP_i^j`
//!   exists;
//! * between any pair of nodes of one component there is exactly one
//!   **undirected critical path** (`UCP`, Section 5.1).
//!
//! All tables are precomputed from the transitive reduction (whose arcs
//! are the critical arcs); node counts are small, so O(n²) storage is
//! irrelevant.

use super::digraph::Digraph;

/// One `E_i^j` step: `(is_up, higher_class)` for a UCP arc — upward
/// steps apply the class's `I_old`, downward steps its `C_late`.
pub type UcpStep = (bool, u32);

/// Precomputed path tables over a semi-tree reduction.
#[derive(Debug, Clone)]
pub struct PathTables {
    reduction: Digraph,
    /// `cp[i][j]` = the critical path i → ... → j (inclusive), if any.
    cp: Vec<Vec<Option<Vec<usize>>>>,
    /// `ucp[i][j]` = the undirected critical path i ... j (inclusive), if
    /// i and j are in the same component.
    ucp: Vec<Vec<Option<Vec<usize>>>>,
    /// Hot-path hop table: `cp_hops[i*n + j]` = the classes of `CP_i^j`
    /// **excluding `i`**, as dense `u32`s — exactly the fold order of
    /// `A_i^j` (and, reversed, of `B_j^i`). One pointer chase per
    /// activity-link evaluation instead of nested `Vec` indexing.
    cp_hops: Vec<Option<Box<[u32]>>>,
    /// Like `cp_hops` but **including `i`** — the fold order of
    /// `A`-from-below (read-only transactions on a chain).
    cp_hops_incl: Vec<Option<Box<[u32]>>>,
    /// Hot-path step table for `E_i^j`: for each UCP arc, `(is_up,
    /// class)` where `class` is the *higher* class of the arc — upward
    /// steps apply its `I_old`, downward steps its `C_late`.
    ucp_steps: Vec<Option<Box<[UcpStep]>>>,
}

impl PathTables {
    /// Build tables from a semi-tree `reduction` (the critical arcs).
    pub fn new(reduction: Digraph) -> Self {
        let n = reduction.node_count();
        let mut cp = vec![vec![None; n]; n];
        let mut ucp = vec![vec![None; n]; n];

        for s in 0..n {
            cp[s][s] = Some(vec![s]);
            ucp[s][s] = Some(vec![s]);
            // Directed reach: unique paths because the reduction is a
            // semi-tree (at most one undirected path ⇒ at most one
            // directed one).
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for v in reduction.out_neighbors(u) {
                    if cp[s][v].is_none() {
                        let mut path = cp[s][u].clone().expect("parent path exists");
                        path.push(v);
                        cp[s][v] = Some(path);
                        stack.push(v);
                    }
                }
            }
            // Undirected reach (BFS over arcs in both directions).
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                let mut nbrs = reduction.out_neighbors(u);
                nbrs.extend(reduction.in_neighbors(u));
                for v in nbrs {
                    if ucp[s][v].is_none() {
                        let mut path = ucp[s][u].clone().expect("parent path exists");
                        path.push(v);
                        ucp[s][v] = Some(path);
                        stack.push(v);
                    }
                }
            }
        }

        // Derive the dense hop/step tables the activity-link functions
        // fold over (see field docs).
        let mut cp_hops = vec![None; n * n];
        let mut cp_hops_incl = vec![None; n * n];
        let mut ucp_steps = vec![None; n * n];
        for i in 0..n {
            for j in 0..n {
                if let Some(path) = cp[i][j].as_deref() {
                    cp_hops[i * n + j] = Some(path[1..].iter().map(|&c| c as u32).collect());
                    cp_hops_incl[i * n + j] = Some(path.iter().map(|&c| c as u32).collect());
                }
                if let Some(path) = ucp[i][j].as_deref() {
                    ucp_steps[i * n + j] = Some(
                        path.windows(2)
                            .map(|w| {
                                if reduction.has_arc(w[0], w[1]) {
                                    (true, w[1] as u32) // up into w[1]
                                } else {
                                    debug_assert!(reduction.has_arc(w[1], w[0]));
                                    (false, w[0] as u32) // down out of w[0]
                                }
                            })
                            .collect(),
                    );
                }
            }
        }

        PathTables {
            reduction,
            cp,
            ucp,
            cp_hops,
            cp_hops_incl,
            ucp_steps,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.reduction.node_count()
    }

    /// The critical arcs (the reduction).
    pub fn reduction(&self) -> &Digraph {
        &self.reduction
    }

    /// True iff `u → v` is a critical arc.
    pub fn is_critical_arc(&self, u: usize, v: usize) -> bool {
        self.reduction.has_arc(u, v)
    }

    /// The critical path `CP_i^j` (nodes `i ... j` inclusive), if any.
    pub fn critical_path(&self, i: usize, j: usize) -> Option<&[usize]> {
        self.cp[i][j].as_deref()
    }

    /// The classes `A_i^j` folds `I_old` over, in order (the critical
    /// path excluding `i`). `None` when no critical path exists.
    pub fn a_hops(&self, i: usize, j: usize) -> Option<&[u32]> {
        self.cp_hops[i * self.node_count() + j].as_deref()
    }

    /// Like [`a_hops`](Self::a_hops) but including `i` itself (the
    /// `A`-from-below fold order).
    pub fn a_hops_inclusive(&self, i: usize, j: usize) -> Option<&[u32]> {
        self.cp_hops_incl[i * self.node_count() + j].as_deref()
    }

    /// The `(is_up, class)` steps `E_i^j` walks over `UCP_i^j`, where
    /// `class` is the higher class of each arc. `None` when `i` and `j`
    /// are in different components.
    pub fn e_steps(&self, i: usize, j: usize) -> Option<&[UcpStep]> {
        self.ucp_steps[i * self.node_count() + j].as_deref()
    }

    /// `T_j ↑ T_i`: node `j` is strictly higher than node `i`.
    pub fn higher_than(&self, j: usize, i: usize) -> bool {
        i != j && self.cp[i][j].is_some()
    }

    /// `j` is higher than or equal to `i`.
    pub fn higher_or_equal(&self, j: usize, i: usize) -> bool {
        self.cp[i][j].is_some()
    }

    /// True iff `i` and `j` lie on one critical path (comparable under ↑,
    /// or equal).
    pub fn on_one_critical_path(&self, i: usize, j: usize) -> bool {
        self.cp[i][j].is_some() || self.cp[j][i].is_some()
    }

    /// The lowest node of a set that lies on one critical path (the node
    /// every other is higher than or equal to). `None` when the set is
    /// empty or not a chain — in a semi-tree, when two nodes of it are
    /// incomparable under ↑.
    pub fn lowest_of_chain(&self, nodes: &[usize]) -> Option<usize> {
        self.chain_low(nodes.iter().copied())
    }

    /// [`lowest_of_chain`](Self::lowest_of_chain) in one pass over any
    /// node sequence. Each node must sit at or between the ends of the
    /// chain seen so far, or extend it; in a TST the one directed path
    /// between the ends then holds every node.
    pub(crate) fn chain_low(&self, nodes: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut nodes = nodes.into_iter();
        let first = nodes.next()?;
        let (mut low, mut high) = (first, first);
        for v in nodes {
            if self.higher_or_equal(v, high) {
                high = v;
            } else if self.higher_or_equal(low, v) {
                low = v;
            } else if !(self.higher_or_equal(v, low) && self.higher_or_equal(high, v)) {
                return None;
            }
        }
        Some(low)
    }

    /// The undirected critical path `UCP_i^j` (nodes inclusive), if `i`
    /// and `j` are connected.
    pub fn undirected_critical_path(&self, i: usize, j: usize) -> Option<&[usize]> {
        self.ucp[i][j].as_deref()
    }

    /// The **lowest-level** nodes: nodes with no node strictly below them
    /// (no incoming critical arc). These are the anchor candidates for
    /// time walls (Section 5.2 picks "a starting class of one of the
    /// lowest levels").
    pub fn lowest_nodes(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&v| self.reduction.in_neighbors(v).is_empty())
            .collect()
    }

    /// Connected components of the (undirected) reduction forest.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let comp: Vec<usize> = (0..n).filter(|&v| self.ucp[s][v].is_some()).collect();
            for &v in &comp {
                seen[v] = true;
            }
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example: a tree with arcs pointing lower → higher.
    ///   3 → 1 → 0,  4 → 1,  2 → 0
    /// (0 is the top; 3, 4, 2 are leaves/lowest.)
    fn tree() -> PathTables {
        PathTables::new(Digraph::from_arcs(5, &[(1, 0), (2, 0), (3, 1), (4, 1)]))
    }

    #[test]
    fn critical_paths_follow_arcs() {
        let t = tree();
        assert_eq!(t.critical_path(3, 0).unwrap(), &[3, 1, 0]);
        assert_eq!(t.critical_path(3, 1).unwrap(), &[3, 1]);
        assert!(t.critical_path(0, 3).is_none());
        assert!(t.critical_path(3, 4).is_none());
        assert_eq!(t.critical_path(2, 2).unwrap(), &[2]);
    }

    #[test]
    fn higher_than_is_strict_partial_order() {
        let t = tree();
        assert!(t.higher_than(0, 3));
        assert!(t.higher_than(1, 3));
        assert!(!t.higher_than(3, 0));
        assert!(!t.higher_than(3, 3));
        assert!(!t.higher_than(4, 3)); // siblings incomparable
        assert!(t.higher_or_equal(3, 3));
    }

    #[test]
    fn one_critical_path_checks() {
        let t = tree();
        assert!(t.on_one_critical_path(3, 0));
        assert!(!t.on_one_critical_path(3, 4));
        assert_eq!(t.lowest_of_chain(&[3, 1, 0]), Some(3));
        assert_eq!(t.lowest_of_chain(&[2]), Some(2));
        assert_eq!(t.lowest_of_chain(&[0, 1, 3]), Some(3));
        assert_eq!(t.lowest_of_chain(&[3, 4]), None);
        assert_eq!(t.lowest_of_chain(&[]), None);
    }

    #[test]
    fn a_chain_may_not_branch_upward() {
        // 0 → 1, 0 → 2: both higher than 0, incomparable to each other.
        let t = PathTables::new(Digraph::from_arcs(3, &[(0, 1), (0, 2)]));
        assert_eq!(t.lowest_of_chain(&[0, 1]), Some(0));
        assert_eq!(t.lowest_of_chain(&[0, 1, 2]), None);
        assert_eq!(t.lowest_of_chain(&[1, 0, 2]), None);
        assert_eq!(t.chain_low([2, 0]), Some(0));
    }

    #[test]
    fn ucp_between_siblings_goes_through_parent() {
        let t = tree();
        assert_eq!(t.undirected_critical_path(3, 4).unwrap(), &[3, 1, 4]);
        assert_eq!(t.undirected_critical_path(3, 2).unwrap(), &[3, 1, 0, 2]);
        assert_eq!(t.undirected_critical_path(3, 0).unwrap(), &[3, 1, 0]);
    }

    #[test]
    fn hop_tables_match_paths() {
        let t = tree();
        // a_hops = CP minus the base; inclusive keeps the base.
        assert_eq!(t.a_hops(3, 0).unwrap(), &[1, 0]);
        assert_eq!(t.a_hops_inclusive(3, 0).unwrap(), &[3, 1, 0]);
        assert_eq!(t.a_hops(2, 2).unwrap(), &[] as &[u32]);
        assert!(t.a_hops(0, 3).is_none());
        // e_steps: 3 → 1 → 4 is up into 1 then down out of 1.
        assert_eq!(t.e_steps(3, 4).unwrap(), &[(true, 1), (false, 1)]);
        // 3 → 1 → 0 → 2: up, up, down out of 0.
        assert_eq!(
            t.e_steps(3, 2).unwrap(),
            &[(true, 1), (true, 0), (false, 0)]
        );
        assert_eq!(t.e_steps(4, 4).unwrap(), &[] as &[(bool, u32)]);
    }

    #[test]
    fn lowest_nodes_are_leaves() {
        let t = tree();
        assert_eq!(t.lowest_nodes(), vec![2, 3, 4]);
    }

    #[test]
    fn components_of_forest() {
        let t = PathTables::new(Digraph::from_arcs(5, &[(0, 1), (2, 3)]));
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![0, 1]));
        assert!(comps.contains(&vec![2, 3]));
        assert!(comps.contains(&vec![4]));
        assert!(t.undirected_critical_path(0, 2).is_none());
    }
}
