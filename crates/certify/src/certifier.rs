//! The offline serializability certifier.
//!
//! Consumes a drained [`ScheduleLog`] and re-derives, independently of
//! any scheduler, the two correctness claims the paper makes:
//!
//! 1. **Acyclicity** — the multi-version dependency graph of Section 2
//!    has no cycle (serializability proper), and no committed read ever
//!    observed an uncommitted version;
//! 2. **Partition synchronization** (the stronger, structural rule) —
//!    every direct dependency `t1 → t2` between committed classed
//!    transactions satisfies `t1 ⇒ t2` ("topologically follows"),
//!    evaluated edge-by-edge over an [`ActivityRegistry`] *replayed*
//!    from the log's `Begin`/`Commit`/`Abort` events. This is the
//!    invariant from which the paper derives acyclicity; checking it
//!    directly localizes a bug to the exact dependency that broke it.
//!
//! On violation the certifier runs the delta-debugging shrinker
//! ([`crate::shrink::ddmin`]) to cut the schedule down to a 1-minimal
//! event subsequence, then renders it as an annotated text narrative
//! plus a Graphviz DOT graph with kind-labelled arcs.
//!
//! ## Replay fidelity
//!
//! `Abort` events carry the exact abort timestamp (the registry end the
//! scheduler drew under its class lock), so a replayed abort ends its
//! activity interval precisely where the live registry did — the
//! replayed `I_old`/`A`/`⇒` evaluations match the scheduler's own.
//!
//! Exactness is load-bearing, not cosmetic. An earlier revision ended
//! replayed aborts at "the latest timestamp seen so far", reasoning the
//! over-extension was conservative; it is not. `⇒`'s case-3 check is
//! `I(t2) < A_i^j(I(t1))` — a *lower* bound dooms it — and an
//! over-extended abort interval drags `I_old` (hence the bound) down,
//! so a sound schedule whose `Abort` record lands late in log order
//! could flunk partition synchronization (see the
//! `exact_abort_time_avoids_false_sync_alarm` regression test).

use crate::shrink::ddmin;
use hdd::activity::{topologically_follows, ActivityFuncs, ActivityRegistry, TxnCoord};
use hdd::analysis::Hierarchy;
use obs::{Event, TraceEvent};
use std::collections::HashMap;
use txn_model::schedule::INITIAL_WRITER;
use txn_model::{DependencyGraph, ScheduleEvent, ScheduleLog, Timestamp, TxnId};

/// Which certified rule a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The dependency graph has a cycle (Bernstein's criterion).
    Acyclicity,
    /// A committed read observed a version whose writer never committed.
    DirtyRead,
    /// A direct dependency `t1 → t2` without `t1 ⇒ t2`.
    PartitionSync,
}

impl Rule {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Acyclicity => "acyclicity",
            Rule::DirtyRead => "dirty-read",
            Rule::PartitionSync => "partition-synchronization",
        }
    }
}

/// One rule violation found in a schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken rule.
    pub rule: Rule,
    /// Human-readable account.
    pub message: String,
    /// The dependency cycle, when the rule is [`Rule::Acyclicity`].
    pub cycle: Vec<TxnId>,
    /// The offending dependency edge, when the rule is
    /// [`Rule::PartitionSync`].
    pub edge: Option<(TxnId, TxnId)>,
}

/// A violation's schedule, reduced to a 1-minimal subsequence.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The rule the shrunk schedule still violates.
    pub rule: Rule,
    /// Event count before shrinking.
    pub original_events: usize,
    /// The minimal failing event subsequence.
    pub events: Vec<ScheduleEvent>,
    /// Annotated text narrative + DOT rendering.
    pub report: String,
}

/// The certifier's verdict over one schedule.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Which scheduler produced the log (display only).
    pub scheduler: String,
    /// Events examined.
    pub events: usize,
    /// Committed transactions in the dependency graph.
    pub txns: usize,
    /// Dependency arcs.
    pub arcs: usize,
    /// Dependency edges checked against the partition-sync rule (0 when
    /// no hierarchy was supplied).
    pub sync_edges_checked: usize,
    /// Everything that failed.
    pub violations: Vec<Violation>,
    /// Shrunk witness for the first violation.
    pub counterexample: Option<Counterexample>,
    /// Decision-trace lines joined by transaction id (when obs tracing
    /// was enabled during the run).
    pub trace_lines: Vec<String>,
}

impl Certificate {
    /// True when every rule held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "certify [{}]: {} events, {} txns, {} arcs, {} sync edges checked — ",
            self.scheduler, self.events, self.txns, self.arcs, self.sync_edges_checked
        );
        if self.ok() {
            out.push_str("OK\n");
            return out;
        }
        out.push_str(&format!("{} violation(s)\n", self.violations.len()));
        for v in &self.violations {
            out.push_str(&format!(
                "  violated rule: {} — {}\n",
                v.rule.name(),
                v.message
            ));
        }
        if let Some(cx) = &self.counterexample {
            out.push_str(&format!(
                "  shrunk counterexample ({} of {} events):\n{}",
                cx.events.len(),
                cx.original_events,
                cx.report,
            ));
        }
        for line in &self.trace_lines {
            out.push_str(&format!("  trace: {line}\n"));
        }
        out
    }
}

/// Render one schedule event as a narrative line.
fn fmt_event(ev: &ScheduleEvent) -> String {
    match ev {
        ScheduleEvent::Begin {
            txn,
            start_ts,
            class,
        } => match class {
            Some(c) => format!("{txn} begins in class {c} at I={}", start_ts.0),
            None => format!("{txn} begins (read-only) at I={}", start_ts.0),
        },
        ScheduleEvent::Read {
            txn,
            granule,
            version,
            writer,
        } => format!(
            "{txn} reads {granule} version @{} written by {writer}",
            version.0
        ),
        ScheduleEvent::Write {
            txn,
            granule,
            version,
            ..
        } => format!("{txn} writes {granule} creating version @{}", version.0),
        ScheduleEvent::Commit { txn, commit_ts } => format!("{txn} commits at C={}", commit_ts.0),
        ScheduleEvent::Abort { txn, abort_ts } => format!("{txn} aborts at {}", abort_ts.0),
    }
}

/// Per-transaction coordinates replayed from the log.
struct Replay {
    coords: HashMap<TxnId, TxnCoord>,
    committed: HashMap<TxnId, Timestamp>,
    registry: ActivityRegistry,
}

/// Rebuild the activity registry and transaction coordinates from the
/// log's lifecycle events (see the module docs for abort fidelity).
fn replay_registry(events: &[ScheduleEvent], hierarchy: &Hierarchy) -> Replay {
    let registry = ActivityRegistry::new(hierarchy.class_count());
    let mut coords = HashMap::new();
    let mut committed = HashMap::new();
    for ev in events {
        match ev {
            ScheduleEvent::Begin {
                txn,
                start_ts,
                class: Some(class),
            } if class.index() < hierarchy.class_count() => {
                coords.insert(*txn, TxnCoord::new(*class, *start_ts));
                registry.begin(*class, *start_ts);
            }
            ScheduleEvent::Commit { txn, commit_ts } => {
                if let Some(c) = coords.get(txn) {
                    registry.commit(c.class, c.start, *commit_ts);
                }
                committed.insert(*txn, *commit_ts);
            }
            ScheduleEvent::Abort { txn, abort_ts } => {
                if let Some(c) = coords.get(txn) {
                    // End the interval exactly where the live registry
                    // did (see the module docs on replay fidelity).
                    registry.abort(c.class, c.start, *abort_ts);
                }
            }
            _ => {}
        }
    }
    Replay {
        coords,
        committed,
        registry,
    }
}

/// Check the partition-synchronization rule edge-by-edge. Returns the
/// violations plus the number of edges actually checked.
fn check_partition_sync(
    graph: &DependencyGraph,
    events: &[ScheduleEvent],
    hierarchy: &Hierarchy,
) -> (Vec<Violation>, usize) {
    let replay = replay_registry(events, hierarchy);
    let funcs = ActivityFuncs::new(hierarchy, &replay.registry);
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for (from, to, kinds) in graph.arcs() {
        if from == INITIAL_WRITER || to == INITIAL_WRITER {
            continue;
        }
        // Only committed, classed transactions carry coordinates; the
        // `⇒` relation is not defined for ad-hoc read-only transactions
        // (they synchronize through fictitious classes or the wall).
        let (Some(&c_from), Some(&c_to)) = (replay.coords.get(&from), replay.coords.get(&to))
        else {
            continue;
        };
        if !replay.committed.contains_key(&from) || !replay.committed.contains_key(&to) {
            continue;
        }
        checked += 1;
        match topologically_follows(&funcs, c_from, c_to) {
            Some(true) => {}
            Some(false) => violations.push(Violation {
                rule: Rule::PartitionSync,
                message: format!(
                    "direct dependency {from} → {to} ({kinds}) without {from} ⇒ {to}: \
                     class {} I={} does not topologically follow class {} I={}",
                    hierarchy.class_name(c_from.class),
                    c_from.start.0,
                    hierarchy.class_name(c_to.class),
                    c_to.start.0,
                ),
                cycle: Vec::new(),
                edge: Some((from, to)),
            }),
            None => violations.push(Violation {
                rule: Rule::PartitionSync,
                message: format!(
                    "direct dependency {from} → {to} ({kinds}) between classes {} and {} \
                     that share no critical path — the ⇒ relation is undefined for them, \
                     so the dependency itself is structurally illegal",
                    hierarchy.class_name(c_from.class),
                    hierarchy.class_name(c_to.class),
                ),
                cycle: Vec::new(),
                edge: Some((from, to)),
            }),
        }
    }
    (violations, checked)
}

fn describe_cycle(graph: &DependencyGraph, cycle: &[TxnId]) -> String {
    let mut hops = Vec::new();
    for k in 0..cycle.len() {
        let (a, b) = (cycle[k], cycle[(k + 1) % cycle.len()]);
        let kinds = graph.arc_kinds(a, b).unwrap_or_default();
        hops.push(format!("{a} →[{kinds}] {b}"));
    }
    hops.join(", ")
}

/// Build the annotated report for a shrunk counterexample.
fn render_counterexample(events: &[ScheduleEvent], rule: Rule) -> String {
    let graph = DependencyGraph::from_events(events);
    let mut out = String::new();
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&format!("    {:>2}. {}\n", i + 1, fmt_event(ev)));
    }
    match rule {
        Rule::Acyclicity => {
            if let Some(cycle) = graph.find_cycle() {
                out.push_str(&format!("    cycle: {}\n", describe_cycle(&graph, &cycle)));
            }
        }
        Rule::DirtyRead => {
            out.push_str(&format!(
                "    committed reads of uncommitted versions: {}\n",
                graph.dirty_reads()
            ));
        }
        Rule::PartitionSync => {}
    }
    out.push_str("    dot:\n");
    for line in graph.to_dot().lines() {
        out.push_str(&format!("      {line}\n"));
    }
    out
}

/// Certify an explicit event sequence. Supply the hierarchy to
/// additionally check the partition-synchronization rule (only
/// meaningful for logs produced by the HDD scheduler, whose `Begin`
/// events carry classes drawn from that hierarchy).
pub fn certify_events(
    scheduler: impl Into<String>,
    events: &[ScheduleEvent],
    hierarchy: Option<&Hierarchy>,
) -> Certificate {
    let graph = DependencyGraph::from_events(events);
    let mut violations = Vec::new();

    if let Some(cycle) = graph.find_cycle() {
        violations.push(Violation {
            rule: Rule::Acyclicity,
            message: format!(
                "dependency cycle of length {}: {}",
                cycle.len(),
                describe_cycle(&graph, &cycle)
            ),
            cycle,
            edge: None,
        });
    }
    if graph.dirty_reads() > 0 {
        violations.push(Violation {
            rule: Rule::DirtyRead,
            message: format!(
                "{} committed read(s) observed versions whose writer never committed",
                graph.dirty_reads()
            ),
            cycle: Vec::new(),
            edge: None,
        });
    }
    let mut sync_edges_checked = 0;
    if let Some(h) = hierarchy {
        let (mut sync_violations, checked) = check_partition_sync(&graph, events, h);
        sync_edges_checked = checked;
        violations.append(&mut sync_violations);
    }

    let counterexample = violations.first().map(|first| {
        let rule = first.rule;
        let pred = |evs: &[ScheduleEvent]| match rule {
            Rule::Acyclicity => DependencyGraph::from_events(evs).find_cycle().is_some(),
            Rule::DirtyRead => DependencyGraph::from_events(evs).dirty_reads() > 0,
            Rule::PartitionSync => match hierarchy {
                Some(h) => {
                    let g = DependencyGraph::from_events(evs);
                    !check_partition_sync(&g, evs, h).0.is_empty()
                }
                None => false,
            },
        };
        let shrunk = ddmin(events, pred);
        let report = render_counterexample(&shrunk, rule);
        Counterexample {
            rule,
            original_events: events.len(),
            events: shrunk,
            report,
        }
    });

    Certificate {
        scheduler: scheduler.into(),
        events: events.len(),
        txns: graph.transactions().len(),
        arcs: graph.arc_count(),
        sync_edges_checked,
        violations,
        counterexample,
        trace_lines: Vec::new(),
    }
}

/// Certify a drained schedule log (see [`certify_events`]).
pub fn certify_log(
    scheduler: impl Into<String>,
    log: &ScheduleLog,
    hierarchy: Option<&Hierarchy>,
) -> Certificate {
    certify_events(scheduler, &log.events(), hierarchy)
}

/// Join a drained obs event log into the certificate: decision-trace
/// lines for the transactions implicated in a violation (cycle members
/// and partition-sync edge endpoints), ordered by ticket; span records
/// in the slice are skipped. A certificate with no violations is left
/// untouched.
pub fn attach_trace(cert: &mut Certificate, trace: &[(u64, Event)]) {
    if cert.ok() {
        return;
    }
    let mut implicated: Vec<u64> = Vec::new();
    for v in &cert.violations {
        implicated.extend(v.cycle.iter().map(|t| t.0));
        if let Some((a, b)) = v.edge {
            implicated.push(a.0);
            implicated.push(b.0);
        }
    }
    implicated.sort_unstable();
    implicated.dedup();
    let mut sorted: Vec<(u64, &TraceEvent)> = trace
        .iter()
        .filter_map(|(ticket, ev)| Some((*ticket, ev.decision()?)))
        .collect();
    sorted.sort_by_key(|(ticket, _)| *ticket);
    for (ticket, ev) in sorted {
        if ev
            .txn()
            .is_some_and(|t| implicated.binary_search(&t).is_ok())
        {
            cert.trace_lines.push(format!("#{ticket} {ev}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use txn_model::{GranuleId, SegmentId, Value};

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    fn begin(t: u64, ts: u64) -> ScheduleEvent {
        ScheduleEvent::Begin {
            txn: TxnId(t),
            start_ts: Timestamp(ts),
            class: None,
        }
    }

    fn read(t: u64, gr: GranuleId, v: u64, w: u64) -> ScheduleEvent {
        ScheduleEvent::Read {
            txn: TxnId(t),
            granule: gr,
            version: Timestamp(v),
            writer: TxnId(w),
        }
    }

    fn write(t: u64, gr: GranuleId, v: u64) -> ScheduleEvent {
        ScheduleEvent::Write {
            txn: TxnId(t),
            granule: gr,
            version: Timestamp(v),
            value: Arc::new(Value::Int(v as i64)),
        }
    }

    fn commit(t: u64, ts: u64) -> ScheduleEvent {
        ScheduleEvent::Commit {
            txn: TxnId(t),
            commit_ts: Timestamp(ts),
        }
    }

    /// A write-skew two-cycle padded with irrelevant traffic.
    fn skewed_events() -> Vec<ScheduleEvent> {
        let x = g(0, 1);
        let z = g(0, 2);
        let mut evs = vec![
            begin(1, 1),
            begin(2, 2),
            read(1, x, 0, 0),
            read(2, z, 0, 0),
            write(2, x, 4),
            write(1, z, 5),
            commit(1, 10),
            commit(2, 11),
        ];
        // Pad with 30 independent committed transactions.
        for i in 0..30u64 {
            let t = 100 + i;
            let gr = g(1, 100 + i);
            evs.push(begin(t, 20 + i));
            evs.push(write(t, gr, 20 + i));
            evs.push(commit(t, 50 + i));
        }
        evs
    }

    #[test]
    fn clean_schedule_certifies_ok() {
        let evs = vec![
            begin(1, 1),
            write(1, g(0, 1), 1),
            commit(1, 2),
            begin(2, 3),
            read(2, g(0, 1), 1, 1),
            commit(2, 4),
        ];
        let cert = certify_events("demo", &evs, None);
        assert!(cert.ok(), "{}", cert.render());
        assert_eq!(cert.txns, 2);
    }

    #[test]
    fn cycle_shrinks_to_minimal_counterexample() {
        let cert = certify_events("nocontrol", &skewed_events(), None);
        assert!(!cert.ok());
        assert_eq!(cert.violations[0].rule, Rule::Acyclicity);
        let cx = cert.counterexample.as_ref().unwrap();
        assert!(
            cx.events.len() <= 10,
            "expected ≤10 events, got {}",
            cx.events.len()
        );
        assert!(cx.events.len() >= 4, "cycle needs 2 reads + 2 writes");
        assert!(cx.report.contains("cycle:"));
        assert!(cx.report.contains("digraph dependencies"));
        let rendered = cert.render();
        assert!(rendered.contains("violated rule: acyclicity"));
    }

    #[test]
    fn dirty_read_rule_detected_and_named() {
        let evs = vec![
            begin(1, 1),
            write(1, g(0, 1), 1),
            begin(2, 2),
            read(2, g(0, 1), 1, 1),
            commit(2, 3),
            ScheduleEvent::Abort {
                txn: TxnId(1),
                abort_ts: Timestamp(4),
            },
        ];
        let cert = certify_events("nocontrol", &evs, None);
        assert!(!cert.ok());
        assert!(cert.violations.iter().any(|v| v.rule == Rule::DirtyRead));
        let cx = cert.counterexample.as_ref().unwrap();
        assert!(cx.events.len() <= 4, "write, read, commit, abort");
    }

    /// Regression for the replay-fidelity fix (module docs): a sound
    /// schedule whose `Abort` record lands late in log order must not
    /// flunk partition synchronization.
    #[test]
    fn exact_abort_time_avoids_false_sync_alarm() {
        use hdd::analysis::AccessSpec;
        use txn_model::ClassId;
        let hier = Hierarchy::build(
            2,
            &[
                AccessSpec::new("c0", vec![SegmentId(0)], vec![]),
                AccessSpec::new("c1", vec![SegmentId(1)], vec![SegmentId(0)]),
            ],
        )
        .unwrap();
        let classed = |t: u64, ts: u64, c: u32| ScheduleEvent::Begin {
            txn: TxnId(t),
            start_ts: Timestamp(ts),
            class: Some(ClassId(c)),
        };
        // t1 begins in c0 at 1 and aborts at 2 — but its Abort record is
        // logged *late*, after t3's begin. t2 commits a version at 4;
        // t3 (class c1, I=6) reads it cross-class. Sound: at instant 6,
        // nothing in c0 is active, so A_{c1}^{c0}(6) = 6 > I(t2) = 4.
        let evs = vec![
            classed(1, 1, 0),
            classed(2, 4, 0),
            write(2, g(0, 1), 4),
            commit(2, 5),
            classed(3, 6, 1),
            ScheduleEvent::Abort {
                txn: TxnId(1),
                abort_ts: Timestamp(2),
            },
            read(3, g(0, 1), 4, 2),
            commit(3, 7),
        ];
        let cert = certify_events("hdd", &evs, Some(&hier));
        assert!(cert.sync_edges_checked >= 1);
        assert!(cert.ok(), "sound schedule must certify:\n{}", cert.render());

        // The old conservative bound ended t1's replayed interval at the
        // latest timestamp seen (here 6+1): t1 then reads as active at
        // instant 6, dragging I_old_{c0}(6) down to 1, and the case-3
        // check I(t2)=4 < A_{c1}^{c0}(6) becomes 4 < 1 — a false alarm.
        let exact = ActivityRegistry::new(2);
        let over = ActivityRegistry::new(2);
        for r in [&exact, &over] {
            r.begin(ClassId(0), Timestamp(1));
            r.begin(ClassId(0), Timestamp(4));
            r.commit(ClassId(0), Timestamp(4), Timestamp(5));
            r.begin(ClassId(1), Timestamp(6));
            r.commit(ClassId(1), Timestamp(6), Timestamp(7));
        }
        exact.abort(ClassId(0), Timestamp(1), Timestamp(2));
        over.abort(ClassId(0), Timestamp(1), Timestamp(7)); // old bound
        let dependent = TxnCoord::new(ClassId(1), Timestamp(6));
        let dependee = TxnCoord::new(ClassId(0), Timestamp(4));
        assert_eq!(
            topologically_follows(&ActivityFuncs::new(&hier, &exact), dependent, dependee),
            Some(true)
        );
        assert_eq!(
            topologically_follows(&ActivityFuncs::new(&hier, &over), dependent, dependee),
            Some(false),
            "the conservative abort bound over-approximates this check"
        );
    }

    #[test]
    fn trace_join_keeps_only_implicated_txns() {
        let mut cert = certify_events("nocontrol", &skewed_events(), None);
        let reject = |ticket: u64, ev| (ticket, Event::Decision(ev));
        let trace = vec![
            reject(
                7u64,
                TraceEvent::Reject {
                    txn: 1,
                    segment: 0,
                    key: 1,
                    reason: obs::RejectReason::WriteTooLate,
                },
            ),
            reject(
                3u64,
                TraceEvent::Reject {
                    txn: 999,
                    segment: 0,
                    key: 1,
                    reason: obs::RejectReason::WriteTooLate,
                },
            ),
        ];
        attach_trace(&mut cert, &trace);
        assert_eq!(cert.trace_lines.len(), 1, "{:?}", cert.trace_lines);
        assert!(cert.trace_lines[0].starts_with("#7"));
    }
}
