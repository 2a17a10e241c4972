//! The classical anomaly scripts (lost update, dirty read, write skew)
//! against every baseline, checked through `depgraph::find_cycle` /
//! `serialization_order` and the offline certifier; and the certifier
//! over real concurrent logs.

use certify::certifier::{attach_trace, certify_log};
use certify::lint::lint_script;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::experiments::e02_inventory::batch;
use sim::factory::{build_scheduler, SchedulerKind, ALL_KINDS};
use sim::scripts::run_script;
use txn_model::DependencyGraph;
use workloads::anomalies::{
    dirty_read_script, lost_update_script, write_skew_script, AnomalyWorkload,
};
use workloads::script::Script;
use workloads::Workload;

/// Replay `script` on a fresh scheduler of `kind` (store seeded from the
/// script) and return the rebuilt dependency graph.
fn replay(kind: SchedulerKind, script: &Script) -> DependencyGraph {
    let (sched, store) = build_scheduler(kind, &AnomalyWorkload);
    for (g, v) in &script.setup {
        store.seed(*g, v.clone());
    }
    let _ = run_script(sched.as_ref(), script);
    DependencyGraph::from_log(sched.log())
}

#[test]
fn every_sound_baseline_serializes_lost_update_and_dirty_read() {
    for &kind in ALL_KINDS {
        for script in [lost_update_script(), dirty_read_script()] {
            let dg = replay(kind, &script);
            assert!(
                dg.find_cycle().is_none(),
                "{} admitted a cycle on {}",
                kind.name(),
                script.name
            );
            let order = dg
                .serialization_order()
                .expect("acyclic graph must topo-sort");
            // The order is a permutation of the graph's transactions and
            // respects every dependency arc (a depends on b ⇒ b first).
            for (a, b, _kinds) in dg.arcs() {
                let pa = order.iter().position(|t| *t == a);
                let pb = order.iter().position(|t| *t == b);
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    assert!(
                        pb < pa,
                        "{}: {:?} depends on {:?} but serializes first on {}",
                        kind.name(),
                        a,
                        b,
                        script.name
                    );
                }
            }
        }
    }
}

#[test]
fn write_skew_serializable_under_every_sound_baseline() {
    // Write skew is excluded for HDD (its profiles are illegal under
    // the anomaly hierarchy; the linter rejects them a priori).
    for &kind in ALL_KINDS {
        if kind == SchedulerKind::Hdd {
            continue;
        }
        let dg = replay(kind, &write_skew_script());
        assert!(
            dg.find_cycle().is_none(),
            "{} admitted write skew",
            kind.name()
        );
        assert!(dg.serialization_order().is_some());
    }
}

#[test]
fn nocontrol_admits_lost_update_and_write_skew_cycles() {
    for script in [lost_update_script(), write_skew_script()] {
        let dg = replay(SchedulerKind::NoControl, &script);
        let cycle = dg
            .find_cycle()
            .unwrap_or_else(|| panic!("nocontrol must admit {}", script.name));
        assert!(cycle.len() >= 2);
        assert!(dg.serialization_order().is_none());
    }
}

#[test]
fn certifier_catches_and_shrinks_every_nocontrol_anomaly() {
    // Dirty read is absent here: no-control buffers writes until commit,
    // so an aborted writer's version is never observable. The certifier's
    // dirty-read rule is exercised on synthetic logs in its unit tests.
    for script in [lost_update_script(), write_skew_script()] {
        let (sched, store) = build_scheduler(SchedulerKind::NoControl, &AnomalyWorkload);
        for (g, v) in &script.setup {
            store.seed(*g, v.clone());
        }
        let _ = run_script(sched.as_ref(), &script);
        let cert = certify_log("nocontrol", sched.log(), None);
        assert!(!cert.ok(), "certifier must flag nocontrol {}", script.name);
        let cx = cert
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("no counterexample for {}", script.name));
        assert!(
            cx.events.len() <= 10,
            "{}: counterexample must shrink to ≤10 events, got {}",
            script.name,
            cx.events.len()
        );
        assert!(
            cert.render().contains("violated rule"),
            "the certificate must name the violated rule"
        );
    }
}

#[test]
fn legal_scripts_lint_clean_and_write_skew_does_not() {
    let h = AnomalyWorkload.hierarchy();
    assert!(lint_script(&lost_update_script(), &h).ok());
    assert!(lint_script(&dirty_read_script(), &h).ok());
    assert!(!lint_script(&write_skew_script(), &h).ok());
}

/// Real concurrent logs certify clean: hdd under the full
/// partition-synchronization rule (obs on, its trace joined into the
/// certificate), mvto under plain acyclicity.
#[test]
fn concurrent_hdd_and_mvto_logs_certify_clean() {
    for kind in [SchedulerKind::Hdd, SchedulerKind::Mvto] {
        let (w, programs) = batch(2_000, 0x5A7E_0CE5);
        let (sched, _store) = build_scheduler(kind, &w);
        let hdd = kind == SchedulerKind::Hdd;
        let cfg = ConcurrentConfig {
            workers: 4,
            verify: false,
            obs: hdd,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 2_000, "{}", kind.name());
        let hierarchy = hdd.then(|| w.hierarchy());
        let mut cert = certify_log(kind.name(), sched.log(), hierarchy.as_ref());
        if hdd {
            attach_trace(&mut cert, &sched.metrics().obs.events.drain());
        }
        assert!(cert.ok(), "{}", cert.render());
    }
}
