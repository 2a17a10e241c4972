//! The a-priori workload linter.
//!
//! HDD's guarantee is conditional: Protocols A/B/C only stay cycle-free
//! when the declared transaction shapes form a TST-hierarchical
//! partition (Section 3.2). The linter re-runs that analysis the way a
//! compiler would — collecting *every* violation it can see, attaching a
//! concrete witness to each, and proposing the minimal segment merges
//! (via [`hdd::decompose::repartition_to_tst`]) that would repair the
//! decomposition.
//!
//! Codes:
//!
//! * `CERT001` — a spec writes nothing (declare it read-only instead);
//! * `CERT002` — a spec writes in more than one segment/class;
//! * `CERT003` — the DHG has a directed cycle;
//! * `CERT004` — the DHG's transitive reduction is not a semi-tree
//!   (two distinct undirected paths connect the same pair of classes);
//! * `CERT005` — a script profile is illegal under the hierarchy;
//! * `CERT006` — a read-only profile spans several critical paths
//!   (legal, but served by Protocol C's time wall — a note);
//! * `CERT007` — a read-only profile reads only segments no transaction
//!   in the script ever writes (static data: it pays protocol overhead
//!   for isolation it cannot need, or a writer is missing).

use crate::diag::{json_escape, Diagnostic};
use hdd::analysis::{build_dhg, AccessSpec, Hierarchy};
use hdd::decompose::repartition_to_tst;
use hdd::graph::{check_semi_tree, Digraph, SemiTreeViolation};
use workloads::script::Script;
use workloads::Workload;

/// Everything the linter found about one target (workload or script).
#[derive(Debug, Clone)]
pub struct LintReport {
    /// What was linted ("workload banking", "script write-skew", ...).
    pub target: String,
    /// Findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no *error*-severity diagnostic was produced.
    pub fn ok(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == crate::diag::Severity::Error)
    }

    /// Rustc-style multi-diagnostic text rendering.
    pub fn render(&self) -> String {
        let mut out = format!("linting {} ... ", self.target);
        if self.diagnostics.is_empty() {
            out.push_str("ok\n");
            return out;
        }
        out.push_str(&format!("{} finding(s)\n", self.diagnostics.len()));
        for d in &self.diagnostics {
            out.push_str(&d.render());
        }
        out
    }

    /// Hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"target\": \"{}\", \"ok\": {}, \"diagnostics\": [{}]}}",
            json_escape(&self.target),
            self.ok(),
            diags.join(", "),
        )
    }
}

fn seg_name(names: Option<&[String]>, i: usize) -> String {
    match names {
        Some(ns) if i < ns.len() => ns[i].clone(),
        _ => format!("D{i}"),
    }
}

/// Name the spec that induces DHG arc `from → to` (a spec writing in
/// class `from` while accessing class `to`).
fn inducing_spec(specs: &[AccessSpec], from: usize, to: usize) -> Option<&AccessSpec> {
    specs.iter().find(|s| {
        s.writes.iter().any(|w| w.index() == from) && s.accesses().iter().any(|a| a.index() == to)
    })
}

/// BFS for an undirected path between `u` and `v` in `g` that does not
/// use the direct edge `u–v`. Returns the node sequence `u ... v`.
fn alternative_path(g: &Digraph, u: usize, v: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in g.arcs() {
        if (a, b) == (u, v) || (a, b) == (v, u) {
            continue;
        }
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut prev = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::from([u]);
    prev[u] = u;
    while let Some(x) = queue.pop_front() {
        if x == v {
            let mut path = vec![v];
            let mut cur = v;
            while cur != u {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &y in &adj[x] {
            if prev[y] == usize::MAX {
                prev[y] = x;
                queue.push_back(y);
            }
        }
    }
    None
}

/// Render a merge plan as a human-readable repair suggestion.
fn merge_help(dhg: &Digraph, names: Option<&[String]>) -> String {
    let plan = repartition_to_tst(dhg);
    if plan.is_identity() {
        return "already a TST (no merge needed)".to_string();
    }
    let merges: Vec<String> = plan
        .merges
        .iter()
        .map(|&(a, b)| format!("{}+{}", seg_name(names, a), seg_name(names, b)))
        .collect();
    format!(
        "merge segments {} (yielding {} classes) to restore the TST property",
        merges.join(", "),
        plan.n_classes,
    )
}

/// Lint a set of access specs over `n_segments` segments (identity
/// grouping: one class per segment, which is what [`Hierarchy::build`]
/// validates). Collects every finding instead of stopping at the first.
pub fn lint_specs(
    n_segments: usize,
    specs: &[AccessSpec],
    names: Option<&[String]>,
    target: impl Into<String>,
) -> LintReport {
    let mut diagnostics = Vec::new();

    for spec in specs {
        if spec.writes.is_empty() {
            diagnostics.push(
                Diagnostic::error("CERT001", format!("spec '{}' writes no segment", spec.name))
                    .with_witness(format!(
                        "read set: {}",
                        spec.reads
                            .iter()
                            .map(|s| seg_name(names, s.index()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                    .with_help(
                        "declare the shape as an ad-hoc read-only transaction \
                         (Protocol A or C applies); only update shapes enter the DHG",
                    ),
            );
        }
        let mut written: Vec<usize> = spec.writes.iter().map(|s| s.index()).collect();
        written.sort_unstable();
        written.dedup();
        if written.len() > 1 {
            let segs: Vec<String> = written.iter().map(|&s| seg_name(names, s)).collect();
            diagnostics.push(
                Diagnostic::error(
                    "CERT002",
                    format!(
                        "spec '{}' writes in {} segments; an update transaction \
                         writes in one and only one data segment",
                        spec.name,
                        written.len(),
                    ),
                )
                .with_witness(format!("written segments: {}", segs.join(", ")))
                .with_help(format!(
                    "merge segments {} into one class (group them under a \
                     single root) or split the transaction",
                    segs.join("+"),
                )),
            );
        }
    }

    let dhg = build_dhg(n_segments, specs);
    if let Some(cycle) = dhg.find_cycle() {
        let mut witness_path: Vec<String> = cycle.iter().map(|&c| seg_name(names, c)).collect();
        witness_path.push(seg_name(names, cycle[0]));
        let mut d = Diagnostic::error(
            "CERT003",
            "the data hierarchy graph has a directed cycle — no root ordering exists",
        )
        .with_witness(format!("cycle: {}", witness_path.join(" → ")));
        for k in 0..cycle.len() {
            let (from, to) = (cycle[k], cycle[(k + 1) % cycle.len()]);
            if let Some(spec) = inducing_spec(specs, from, to) {
                d = d.with_witness(format!(
                    "arc {} → {} induced by spec '{}' (writes {}, accesses {})",
                    seg_name(names, from),
                    seg_name(names, to),
                    spec.name,
                    seg_name(names, from),
                    seg_name(names, to),
                ));
            }
        }
        diagnostics.push(d.with_help(merge_help(&dhg, names)));
    } else {
        let reduction = dhg.transitive_reduction();
        if let Err(SemiTreeViolation::UndirectedCycle { u, v }) = check_semi_tree(&reduction) {
            let direct = format!("path 1: {} — {}", seg_name(names, u), seg_name(names, v));
            let mut d = Diagnostic::error(
                "CERT004",
                "the DHG's transitive reduction is not a semi-tree: two classes \
                 are connected by more than one undirected path",
            )
            .with_witness(direct);
            if let Some(path) = alternative_path(&reduction, u, v) {
                let p: Vec<String> = path.iter().map(|&c| seg_name(names, c)).collect();
                d = d.with_witness(format!("path 2: {}", p.join(" — ")));
            }
            if let Some(spec) = inducing_spec(specs, u, v).or_else(|| inducing_spec(specs, v, u)) {
                d = d.with_witness(format!("closing arc induced by spec '{}'", spec.name));
            }
            diagnostics.push(d.with_help(merge_help(&dhg, names)));
        }
    }

    LintReport {
        target: target.into(),
        diagnostics,
    }
}

/// Lint a bundled workload (its specs under its segment names).
pub fn lint_workload(w: &dyn Workload) -> LintReport {
    lint_specs(
        w.segments(),
        &w.specs(),
        Some(&w.segment_names()),
        format!("workload {}", w.name()),
    )
}

/// Lint a script's transaction profiles against a validated hierarchy.
pub fn lint_script(script: &Script, hierarchy: &Hierarchy) -> LintReport {
    let mut diagnostics = Vec::new();
    // Segments some transaction in this script declares it may write —
    // the universe a read-only profile could conflict with (CERT007).
    let written: std::collections::BTreeSet<_> = script
        .transactions
        .iter()
        .flat_map(|p| p.write_segments.iter().copied())
        .collect();
    for (i, profile) in script.transactions.iter().enumerate() {
        if let Err(v) = hierarchy.validate_profile(profile) {
            diagnostics.push(
                Diagnostic::error(
                    "CERT005",
                    format!("transaction #{i} has an illegal profile"),
                )
                .with_witness(v.to_string())
                .with_help(
                    "add the shape to the access specs and re-run `hdd-lint` \
                     (its CERT003/CERT004 help gives the Section 7.2.1 merge), \
                     or re-root the transaction in the lowest class it writes",
                ),
            );
        } else if profile.is_read_only() && !profile.read_segments.is_empty() {
            if profile.read_segments.iter().all(|s| !written.contains(s)) {
                diagnostics.push(
                    Diagnostic::warning(
                        "CERT007",
                        format!(
                            "read-only transaction #{i} reads only segments no \
                             transaction in this script writes"
                        ),
                    )
                    .with_witness(format!(
                        "read segments never written here: {}",
                        profile
                            .read_segments
                            .iter()
                            .map(|s| hierarchy.segment_name(*s).to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                    .with_help(
                        "its reads can never conflict: serve it outside the \
                         protocol (a plain snapshot read, no timestamp draw and \
                         no wall pin) — or, if these segments do change, \
                         add the missing update transaction to the script",
                    ),
                );
            } else if !hierarchy.read_only_on_one_critical_path(&profile.read_segments) {
                diagnostics.push(
                    Diagnostic::note(
                        "CERT006",
                        format!(
                            "read-only transaction #{i} spans several critical paths; \
                             it will be served through Protocol C's time wall"
                        ),
                    )
                    .with_witness(format!(
                        "read segments: {}",
                        profile
                            .read_segments
                            .iter()
                            .map(|s| hierarchy.segment_name(*s).to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                );
            }
        }
    }
    LintReport {
        target: format!("script {}", script.name),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::SegmentId;

    fn s(i: u32) -> SegmentId {
        SegmentId(i)
    }

    #[test]
    fn clean_chain_lints_ok() {
        let specs = vec![
            AccessSpec::new("t1", vec![s(0)], vec![]),
            AccessSpec::new("t2", vec![s(1)], vec![s(0)]),
            AccessSpec::new("t3", vec![s(2)], vec![s(0), s(1), s(2)]),
        ];
        let r = lint_specs(3, &specs, None, "chain");
        assert!(r.ok(), "{}", r.render());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn two_segment_writer_produces_witness_and_merge() {
        let specs = vec![AccessSpec::new("wide", vec![s(0), s(1)], vec![])];
        let r = lint_specs(2, &specs, None, "wide");
        assert!(!r.ok());
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "CERT002");
        assert!(d.witness[0].contains("D0, D1"), "{:?}", d.witness);
        assert!(d.help.as_ref().unwrap().contains("merge segments D0+D1"));
    }

    #[test]
    fn diamond_produces_two_paths_and_merge_help() {
        // D1→D0, D2→D0, D3→{D1,D2}: the reduction contains the diamond.
        let specs = vec![
            AccessSpec::new("a", vec![s(1)], vec![s(0)]),
            AccessSpec::new("b", vec![s(2)], vec![s(0)]),
            AccessSpec::new("c", vec![s(3)], vec![s(1), s(2)]),
        ];
        let r = lint_specs(4, &specs, None, "diamond");
        assert!(!r.ok());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "CERT004")
            .expect("diamond must fail the semi-tree check");
        assert!(
            d.witness.iter().any(|w| w.starts_with("path 1:")),
            "{:?}",
            d.witness
        );
        assert!(
            d.witness.iter().any(|w| w.starts_with("path 2:")),
            "{:?}",
            d.witness
        );
        assert!(d.help.as_ref().unwrap().contains("merge segments"));
        let json = r.to_json();
        assert!(json.contains("\"code\": \"CERT004\""));
        assert!(json.contains("\"ok\": false"));
    }

    #[test]
    fn directed_cycle_names_inducing_specs() {
        let specs = vec![
            AccessSpec::new("fwd", vec![s(0)], vec![s(1)]),
            AccessSpec::new("back", vec![s(1)], vec![s(0)]),
        ];
        let r = lint_specs(2, &specs, None, "cycle");
        let d = r.diagnostics.iter().find(|d| d.code == "CERT003").unwrap();
        assert!(d.witness.iter().any(|w| w.contains("'fwd'")));
        assert!(d.witness.iter().any(|w| w.contains("'back'")));
    }

    #[test]
    fn conflict_free_reader_gets_cert007_with_repair() {
        use workloads::anomalies::AnomalyWorkload;
        use workloads::script::Script;
        use workloads::Workload as _;
        let h = AnomalyWorkload.hierarchy();
        // One updater writing on-order (segment 2); one reader touching
        // only events (segment 0), which nothing in this script writes.
        let script = Script {
            name: "static-reader",
            transactions: vec![
                txn_model::TxnProfile::update(txn_model::ClassId(2), vec![s(2)]),
                txn_model::TxnProfile::read_only(vec![s(0)]),
            ],
            steps: vec![],
            setup: vec![],
        };
        let r = lint_script(&script, &h);
        assert!(r.ok(), "CERT007 is a warning, not an error: {}", r.render());
        let d = r.diagnostics.iter().find(|d| d.code == "CERT007").unwrap();
        assert!(d.witness[0].contains("events"), "{:?}", d.witness);
        assert!(d.help.as_ref().unwrap().contains("outside the"));

        // A reader overlapping the writer's segment is not flagged.
        let script = Script {
            name: "conflicting-reader",
            transactions: vec![
                txn_model::TxnProfile::update(txn_model::ClassId(2), vec![s(2)]),
                txn_model::TxnProfile::read_only(vec![s(2)]),
            ],
            steps: vec![],
            setup: vec![],
        };
        let r = lint_script(&script, &h);
        assert!(
            r.diagnostics.iter().all(|d| d.code != "CERT007"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn write_skew_profiles_rejected_against_anomaly_hierarchy() {
        use workloads::anomalies::{write_skew_script, AnomalyWorkload};
        use workloads::Workload as _;
        let h = AnomalyWorkload.hierarchy();
        let r = lint_script(&write_skew_script(), &h);
        assert!(!r.ok());
        assert_eq!(r.diagnostics[0].code, "CERT005");
        // Named diagnostics: the anomaly workload names its segments.
        assert!(
            r.diagnostics[0].witness[0].contains("on-order"),
            "{:?}",
            r.diagnostics[0].witness
        );
        // The help points at a repair that exists: re-lint with the
        // shape added (the CERT003/CERT004 merge), not Section 7.1.1.
        let help = r.diagnostics[0].help.as_deref().unwrap_or_default();
        assert!(help.contains("hdd-lint"), "{help}");
        assert!(!help.contains("7.1.1"), "{help}");
    }
}
