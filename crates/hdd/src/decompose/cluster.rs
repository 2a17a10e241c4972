//! Database decomposition via data analysis (Section 7.2.2).
//!
//! "We propose to study in detail graph-theoretic methodologies that can
//! be used to cluster data elements of a database to arrive at a legal or
//! an acyclic decomposition of the database."
//!
//! [`decompose`] starts from *item-level* access observations (which raw
//! items each transaction shape reads and writes) and derives a legal
//! TST-hierarchical partition:
//!
//! 1. **Write clustering** — items co-written by one transaction shape
//!    must share a segment (a TST-hierarchical partition allows each
//!    update transaction exactly one written segment), so the write sets
//!    are unioned with a union-find.
//! 2. **Hierarchy graph** — the segment-level DHG is built from the
//!    clustered shapes.
//! 3. **Legalization** — directed cycles and semi-tree violations are
//!    merged away by [`super::acyclic::repartition_to_tst`].
//!
//! The result maps every item to a [`SegmentId`] and provides the
//! validated [`Hierarchy`] plus the segment-level [`AccessSpec`]s.

use super::acyclic::repartition_to_tst;
use crate::analysis::{AccessSpec, Hierarchy, HierarchyError};
use crate::graph::{Digraph, UnionFind};
use std::collections::HashMap;
use txn_model::{ClassId, GranuleId, SegmentId};

/// Item-level access pattern of one transaction shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemAccess {
    /// Shape name.
    pub name: String,
    /// Raw item ids written.
    pub writes: Vec<u64>,
    /// Raw item ids read.
    pub reads: Vec<u64>,
}

impl ItemAccess {
    /// Build an item-level access pattern.
    pub fn new(name: impl Into<String>, writes: Vec<u64>, reads: Vec<u64>) -> Self {
        ItemAccess {
            name: name.into(),
            writes,
            reads,
        }
    }
}

/// A derived partition: item → segment map plus the validated hierarchy.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Segment assigned to each observed item.
    pub segment_of_item: HashMap<u64, SegmentId>,
    /// The validated hierarchy over the derived segments.
    pub hierarchy: Hierarchy,
    /// Segment-level access specs corresponding to the input shapes.
    pub specs: Vec<AccessSpec>,
}

impl Decomposition {
    /// The granule id of `item` under this decomposition.
    pub fn granule(&self, item: u64) -> GranuleId {
        GranuleId::new(self.segment_of_item[&item], item)
    }

    /// The class that writes `item`.
    pub fn class_of_item(&self, item: u64) -> ClassId {
        self.hierarchy.class_of(self.segment_of_item[&item])
    }
}

/// Derive a legal TST-hierarchical partition from item-level access
/// observations.
///
/// Errors only if some shape writes nothing (pass read-only shapes to the
/// scheduler as read-only transactions instead).
pub fn decompose(accesses: &[ItemAccess]) -> Result<Decomposition, HierarchyError> {
    if let Some(a) = accesses.iter().find(|a| a.writes.is_empty()) {
        return Err(HierarchyError::SpecWritesNothing {
            spec: a.name.clone(),
        });
    }
    // 1. Union co-written items, by their index in the sorted item list
    //    (reads are listed too, so read-only items get segments).
    let mut items: Vec<u64> = accesses
        .iter()
        .flat_map(|a| a.writes.iter().chain(&a.reads))
        .copied()
        .collect();
    items.sort_unstable();
    items.dedup();
    let index = |item: &u64| items.binary_search(item).expect("listed above");
    let mut uf = UnionFind::new(items.len());
    for a in accesses {
        for w in &a.writes[1..] {
            uf.union(index(&a.writes[0]), index(w));
        }
    }

    // 2. Dense preliminary segment ids per union-find root, numbered in
    //    sorted item order.
    let mut seg_of_root: HashMap<usize, u32> = HashMap::new();
    let mut prelim: HashMap<u64, SegmentId> = HashMap::new();
    for (i, &item) in items.iter().enumerate() {
        let next = seg_of_root.len() as u32;
        let seg = *seg_of_root.entry(uf.find(i)).or_insert(next);
        prelim.insert(item, SegmentId(seg));
    }
    let n_prelim = seg_of_root.len();

    // 3. Preliminary segment-level specs and DHG.
    let mut specs: Vec<AccessSpec> = Vec::with_capacity(accesses.len());
    for a in accesses {
        let mut writes: Vec<SegmentId> = a.writes.iter().map(|i| prelim[i]).collect();
        writes.sort_unstable();
        writes.dedup();
        let mut reads: Vec<SegmentId> = a.reads.iter().map(|i| prelim[i]).collect();
        reads.sort_unstable();
        reads.dedup();
        specs.push(AccessSpec::new(a.name.clone(), writes, reads));
    }
    let mut dhg = Digraph::new(n_prelim);
    for spec in &specs {
        let accesses = spec.accesses();
        for &w in &spec.writes {
            for &acc in &accesses {
                if w != acc {
                    dhg.add_arc(w.index(), acc.index());
                }
            }
        }
    }

    // 4. Legalize by merging.
    let plan = repartition_to_tst(&dhg);
    let hierarchy =
        Hierarchy::build_grouped(n_prelim, &specs, plan.group_of.clone(), plan.n_classes)?;

    Ok(Decomposition {
        segment_of_item: prelim,
        hierarchy,
        specs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_like_items_decompose_to_a_chain() {
        // Items 1..=3: event log; 10: inventory level; 20: on-order.
        let acc = vec![
            ItemAccess::new("log-sale", vec![1], vec![]),
            ItemAccess::new("log-arrival", vec![2], vec![]),
            ItemAccess::new("log-mod", vec![3], vec![]),
            ItemAccess::new("post-inventory", vec![10], vec![1, 2, 3]),
            ItemAccess::new("reorder", vec![20], vec![2, 10, 20]),
        ];
        let d = decompose(&acc).unwrap();
        // Items 1, 2, 3 were never co-written: they stay separate
        // segments, but all sit in classes below the inventory class.
        let c10 = d.class_of_item(10);
        let c20 = d.class_of_item(20);
        for ev in [1u64, 2, 3] {
            let ce = d.class_of_item(ev);
            assert!(
                d.hierarchy.higher_than(ce, c10) || ce == c10,
                "event item {ev} must be readable from the inventory class"
            );
        }
        assert!(d.hierarchy.higher_than(c10, c20));
    }

    #[test]
    fn co_written_items_share_a_segment() {
        let acc = vec![ItemAccess::new("w", vec![5, 6, 7], vec![])];
        let d = decompose(&acc).unwrap();
        let s5 = d.segment_of_item[&5];
        assert_eq!(d.segment_of_item[&6], s5);
        assert_eq!(d.segment_of_item[&7], s5);
        assert_eq!(d.granule(5).segment, s5);
        assert_eq!(d.granule(5).key, 5);
    }

    #[test]
    fn mutual_readers_end_up_merged() {
        // a writes 1 reads 2; b writes 2 reads 1 → directed cycle →
        // merged into one class.
        let acc = vec![
            ItemAccess::new("a", vec![1], vec![2]),
            ItemAccess::new("b", vec![2], vec![1]),
        ];
        let d = decompose(&acc).unwrap();
        assert_eq!(d.class_of_item(1), d.class_of_item(2));
        assert_eq!(d.hierarchy.class_count(), 1);
    }

    #[test]
    fn writeless_shape_rejected() {
        let acc = vec![ItemAccess::new("ro", vec![], vec![1])];
        assert!(matches!(
            decompose(&acc),
            Err(HierarchyError::SpecWritesNothing { .. })
        ));
    }

    #[test]
    fn derived_hierarchy_validates_shapes() {
        use txn_model::TxnProfile;
        let acc = vec![
            ItemAccess::new("base", vec![1], vec![]),
            ItemAccess::new("derived", vec![2], vec![1]),
        ];
        let d = decompose(&acc).unwrap();
        let class = d.class_of_item(2);
        let p = TxnProfile {
            class: Some(class),
            read_segments: vec![d.segment_of_item[&1]],
            write_segments: vec![d.segment_of_item[&2]],
        };
        assert!(d.hierarchy.validate_profile(&p).is_ok());
    }
}
