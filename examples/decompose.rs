//! Section 7 in action: deriving a decomposition from item-level access
//! data (7.2.2) and legalizing an illegal DHG by merging (7.2.1).
//!
//! ```text
//! cargo run --example decompose
//! ```

use hdd::decompose::{decompose, repartition_to_tst, ItemAccess};
use hdd::graph::{is_transitive_semi_tree, Digraph};

fn main() {
    // ---- 7.2.2: decomposition via data analysis -------------------------
    // Item-level observations of the inventory application: the analyst
    // only lists which raw items each transaction shape touches.
    let observations = vec![
        ItemAccess::new("log-sale", vec![101], vec![]),
        ItemAccess::new("log-arrival", vec![102], vec![]),
        ItemAccess::new("post-inventory", vec![200], vec![101, 102]),
        ItemAccess::new("reorder", vec![300], vec![102, 200, 300]),
    ];
    let d = decompose(&observations).expect("derivable partition");
    println!(
        "derived {} segments in {} classes from {} observations",
        d.hierarchy.segment_count(),
        d.hierarchy.class_count(),
        observations.len()
    );
    let inv_class = d.class_of_item(200);
    let ord_class = d.class_of_item(300);
    assert!(d.hierarchy.higher_than(inv_class, ord_class));
    println!("reorder class sits below inventory class, as in Figure 2");

    // ---- 7.2.1: acyclic → TST by merging --------------------------------
    // A diamond DHG (two derivation paths into the same report segment)
    // is acyclic but NOT a transitive semi-tree.
    let diamond = Digraph::from_arcs(4, &[(3, 1), (3, 2), (1, 0), (2, 0)]);
    assert!(!is_transitive_semi_tree(&diamond));
    let plan = repartition_to_tst(&diamond);
    println!(
        "diamond legalized with {} merge(s) into {} classes",
        plan.merges.len(),
        plan.n_classes
    );
    assert!(is_transitive_semi_tree(&plan.contracted));
}
