//! Section 7 algorithms, end to end: data-analysis decomposition feeding
//! a live scheduler, and acyclic → TST repartitioning.

use hdd::decompose::{decompose, repartition_to_tst, ItemAccess};
use hdd::graph::{is_transitive_semi_tree, Digraph};
use hdd::protocol::{HddConfig, HddScheduler};
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use txn_model::{
    CommitOutcome, DependencyGraph, LogicalClock, ReadOutcome, Scheduler, SegmentId, TxnProfile,
    Value, WriteOutcome,
};

#[test]
fn decomposed_partition_drives_a_real_scheduler() {
    // Item-level observations; derive the partition; run transactions
    // shaped like the observations through an HddScheduler built from
    // the derived grouped hierarchy.
    let observations = vec![
        ItemAccess::new("log-a", vec![1], vec![]),
        ItemAccess::new("log-b", vec![2], vec![]),
        ItemAccess::new("derive", vec![10, 11], vec![1, 2]), // co-written pair
        ItemAccess::new("summarize", vec![20], vec![10, 11, 20]),
    ];
    let d = decompose(&observations).expect("decomposable");
    let hierarchy = Arc::new(d.hierarchy.clone());
    let store = Arc::new(MvStore::new());
    for item in [1u64, 2, 10, 11, 20] {
        store.seed(d.granule(item), Value::Int(0));
    }
    let sched = HddScheduler::new(
        hierarchy,
        store.clone(),
        Arc::new(LogicalClock::new()),
        HddConfig::default(),
    );

    // Run each observation shape a few times.
    for round in 0..5i64 {
        for obs in &observations {
            let class = d.class_of_item(obs.writes[0]);
            let read_segments: Vec<SegmentId> =
                obs.reads.iter().map(|i| d.segment_of_item[i]).collect();
            let write_segments: Vec<SegmentId> =
                obs.writes.iter().map(|i| d.segment_of_item[i]).collect();
            let t = sched.begin(&TxnProfile {
                class: Some(class),
                read_segments,
                write_segments,
            });
            for item in &obs.reads {
                assert!(
                    matches!(sched.read(&t, d.granule(*item)), ReadOutcome::Value(_)),
                    "read of item {item} failed"
                );
            }
            for item in &obs.writes {
                assert_eq!(
                    sched.write(&t, d.granule(*item), Value::Int(round)),
                    WriteOutcome::Done
                );
            }
            assert!(matches!(sched.commit(&t), CommitOutcome::Committed(_)));
        }
    }
    assert!(DependencyGraph::from_log(sched.log()).is_serializable());
    // Co-written items ended up in one segment and all cross reads were
    // free.
    assert_eq!(d.segment_of_item[&10], d.segment_of_item[&11]);
    assert!(sched.metrics().snapshot().cross_class_reads > 0);
}

#[test]
fn repartition_always_yields_runnable_hierarchies() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..50 {
        let n = rng.gen_range(2..10usize);
        let mut g = Digraph::new(n);
        for _ in 0..rng.gen_range(0..n * 2) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_arc(u, v);
            }
        }
        let plan = repartition_to_tst(&g);
        assert!(is_transitive_semi_tree(&plan.contracted));
        // The grouping is dense over 0..n_classes.
        for c in 0..plan.n_classes {
            assert!(plan.group_of.iter().any(|x| x.index() == c));
        }
    }
}
