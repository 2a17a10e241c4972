//! Forensics tour: historical time-slice reads (Reed's scheme through
//! Theorem-2 walls), Graphviz exports of the hierarchy and of a
//! dependency-graph cycle, and a replay of the `obs` decision trace
//! explaining *why* one transaction was rejected.
//!
//! ```text
//! cargo run --example forensics
//! ```

use sim::factory::{build_scheduler, SchedulerKind};
use sim::scripts::run_script;
use txn_model::{DependencyGraph, GranuleId, Scheduler, SegmentId, Value};
use workloads::anomalies::{figure3_script, AnomalyWorkload};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

fn main() {
    // ---- Hierarchy DOT --------------------------------------------------
    let inventory = Inventory::new(InventoryConfig::default());
    let h = inventory.hierarchy();
    println!("--- inventory hierarchy (render with `dot -Tsvg`) ---");
    println!("{}", h.to_dot());

    // ---- A dependency cycle, visualized ---------------------------------
    // Replay the Figure 3 anomaly under the broken scheduler and export
    // the offending dependency graph.
    let w = AnomalyWorkload;
    let (sched, _store) = build_scheduler(SchedulerKind::TwoPlNoCrossReadLocks, &w);
    let out = run_script(sched.as_ref(), &figure3_script());
    assert!(!out.serializable);
    let dg = DependencyGraph::from_log(sched.log());
    println!("--- Figure 3 cycle (red nodes/arcs) ---");
    println!("{}", dg.to_dot());

    // ---- Time-slice reads ------------------------------------------------
    // Build some history under HDD, release walls between rounds, then
    // read consistent historical slices without any transaction.
    use hdd::protocol::{HddConfig, HddScheduler};
    use mvstore::MvStore;
    use std::sync::Arc;
    use txn_model::{ClassId, LogicalClock, TxnProfile};

    let s = SegmentId;
    let store = Arc::new(MvStore::new());
    let w2 = AnomalyWorkload;
    w2.seed(store.as_ref());
    let hierarchy = Arc::new(w2.hierarchy());
    let sched = HddScheduler::new(
        hierarchy,
        store.clone(),
        Arc::new(LogicalClock::new()),
        HddConfig::default(),
    );
    let inv = GranuleId::new(s(1), 1);
    let mut walls = Vec::new();
    for round in 1..=3i64 {
        let t = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0), s(1)]));
        sched.read(&t, inv);
        sched.write(&t, inv, Value::Int(round * 100));
        sched.commit(&t);
        assert!(sched.try_release_wall());
        walls.push(sched.walls().latest().unwrap());
    }
    println!("--- time-slice reads of the inventory level ---");
    for (i, wall) in walls.iter().enumerate() {
        let v = sched.read_at_wall(wall, inv);
        println!(
            "slice at wall {} (anchor ts {}): inventory = {:?}",
            i + 1,
            wall.anchor_time,
            v
        );
        assert_eq!(v, Value::Int((i as i64 + 1) * 100));
    }
    println!("present: inventory = {:?}", store.latest_value(inv));

    // ---- Decision-trace replay: why was a transaction rejected? ---------
    // Switch the obs sidecar on, stage a write-too-late rejection (an
    // older transaction writing after a younger one already read), then
    // drain the event log and reconstruct the dependency chain behind
    // the rejection from the schedule log.
    use obs::TraceEvent;
    use std::collections::HashMap;
    use txn_model::{ScheduleEvent, TxnId};

    sched.metrics().obs.set_enabled(true);
    let ta = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0), s(1)])); // older
    let tb = sched.begin(&TxnProfile::update(ClassId(1), vec![s(0), s(1)])); // younger
    sched.read(&tb, GranuleId::new(s(0), 1)); // Protocol A cross-read, traced
    sched.read(&tb, inv); // Protocol B read: registers tb's read timestamp
    let w = sched.write(&ta, inv, Value::Int(999)); // too late: rejected
    assert_eq!(w, txn_model::WriteOutcome::Abort);
    sched.abort(&ta);
    sched.commit(&tb);

    let events = sched.metrics().obs.events.drain();
    let trace: Vec<(u64, TraceEvent)> = events
        .iter()
        .filter_map(|(ticket, ev)| Some((*ticket, *ev.decision()?)))
        .collect();
    println!("--- obs decision trace (ticket-ordered) ---");
    for (ticket, ev) in &trace {
        println!("#{ticket:<3} {ev}");
    }

    let (_, reject) = trace
        .iter()
        .find(|(_, ev)| matches!(ev, TraceEvent::Reject { .. }))
        .expect("the staged scenario produces a rejection");
    let TraceEvent::Reject {
        txn: victim,
        segment,
        key,
        reason,
    } = *reject
    else {
        unreachable!()
    };

    // Rebuild the chain from the schedule log: the victim's start, and
    // every younger read of the contested granule that the refused
    // write would have invalidated.
    let mut starts: HashMap<TxnId, txn_model::Timestamp> = HashMap::new();
    for (_, ev) in sched.log().events_stamped() {
        if let ScheduleEvent::Begin { txn, start_ts, .. } = ev {
            starts.insert(txn, start_ts);
        }
    }
    let victim_start = starts[&TxnId(victim)];
    println!("--- dependency chain behind t{victim}'s rejection ({reason}) ---");
    println!("t{victim} began at ts:{victim_start} and wrote D{segment}[{key}] last");
    for (_, ev) in sched.log().events_stamped() {
        if let ScheduleEvent::Read {
            txn,
            granule,
            version,
            writer,
        } = ev
        {
            if granule.segment.0 == segment && granule.key == key && starts[&txn] > victim_start {
                println!(
                    "  but t{} (start ts:{}, younger) had already read version \
                     ts:{} of D{segment}[{key}] (written by t{})",
                    txn.0, starts[&txn], version, writer.0
                );
            }
        }
    }
    println!(
        "  => TO write rule: installing a version at ts:{victim_start} would \
         invalidate that younger read, so the write was refused and t{victim} aborted"
    );
}
