//! The online decomposition advisor.
//!
//! The linter ([`crate::lint`]) answers the *a-priori* question: is the
//! declared workload TST-hierarchical? This module answers the *live*
//! one: does the hierarchy the scheduler is actually running still fit
//! the workload it is actually seeing? It folds the drift sketch's
//! observed co-access edges ([`obs::DriftSnapshot::edges`]) into an
//! *observed* data hierarchy graph, runs it through the same
//! [`hdd::decompose::repartition_to_tst`] repair machinery the linter
//! uses, and compares the resulting partition against the hierarchy's
//! current segment grouping — producing named merge/split suggestions,
//! a pair-agreement quality score, and provenance naming the drifted
//! cells that motivated the advice.
//!
//! The advisor is **pure observation**: it never mutates the hierarchy
//! (nothing here implements Section 7.1.1's dynamic restructuring;
//! applying the advice means rebuilding the hierarchy and restarting
//! the scheduler); it only says what the repartition *would be*.

use crate::diag::json_escape;
use hdd::analysis::Hierarchy;
use hdd::decompose::repartition_to_tst;
use hdd::graph::Digraph;
use obs::DriftSnapshot;
use txn_model::SegmentId;

/// Default noise floor: an observed edge must carry at least this many
/// cumulative samples before the advisor believes it is a real workload
/// arc and not a one-off (e.g. a single exploratory ad-hoc query).
pub const DEFAULT_MIN_EDGE: u64 = 4;

/// One piece of restructuring advice over a segment pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// The observed workload co-groups these segments but the current
    /// hierarchy splits them: running them in separate classes forces
    /// the cross-writes through a DHG arc the TST repair would erase.
    Merge {
        /// Lower-numbered segment.
        a: u32,
        /// Higher-numbered segment.
        b: u32,
    },
    /// The current hierarchy co-groups these segments but the observed
    /// workload never couples them: the grouping serializes update
    /// classes that could run concurrently.
    Split {
        /// Lower-numbered segment.
        a: u32,
        /// Higher-numbered segment.
        b: u32,
    },
}

/// What the advisor concluded from one drift snapshot.
#[derive(Debug, Clone)]
pub struct AdvisorReport {
    /// What was advised on ("hierarchy banking", ...).
    pub target: String,
    /// Segments in both the hierarchy and the sketch.
    pub n_segments: usize,
    /// Observed-DHG arcs folded in (off-diagonal, count ≥ `min_edge`).
    pub observed_arcs: usize,
    /// Off-diagonal edges dropped below the `min_edge` noise floor.
    pub dropped_arcs: usize,
    /// Noise floor in force.
    pub min_edge: u64,
    /// Canonical class label per segment under the *current* hierarchy
    /// (labels renumbered by first occurrence, so two partitions are
    /// equal iff these vectors are equal).
    pub current_labels: Vec<usize>,
    /// Canonical class label per segment under the *advised* partition
    /// (the TST repair of the observed DHG).
    pub advised_labels: Vec<usize>,
    /// Classes the advised partition yields.
    pub advised_n_classes: usize,
    /// Pair-agreement (Rand index) between the two partitions, in
    /// milli-units: 1000 means the running hierarchy is exactly the
    /// best-known TST for the observed workload.
    pub quality_milli: u64,
    /// Merge/split advice, one entry per disagreeing segment pair.
    pub suggestions: Vec<Advice>,
    /// Human-readable evidence lines: the most-drifted sketch cells and
    /// edges (interval share vs EWMA baseline), plus trip state.
    pub provenance: Vec<String>,
    /// Segment display names, index-aligned (`D{i}` fallback).
    pub segment_names: Vec<String>,
    /// Combined drift score at the snapshot, milli-units.
    pub drift_score_milli: u64,
    /// Trip threshold in force, milli-units.
    pub threshold_milli: u64,
    /// Was the drift board tripped at the snapshot?
    pub tripped: bool,
    /// Folds the sketch had performed.
    pub folds: u64,
}

/// Renumber arbitrary partition labels by first occurrence so that two
/// partitions describe the same grouping iff their canonical vectors
/// are equal (label 0 is whatever class segment 0 is in, and so on).
pub fn canonical_labels(labels: &[usize]) -> Vec<usize> {
    let mut remap: Vec<Option<usize>> =
        vec![None; labels.len().max(labels.iter().max().map_or(0, |m| m + 1))];
    let mut next = 0usize;
    labels
        .iter()
        .map(|&l| {
            *remap[l].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect()
}

/// Build the observed DHG from a drift snapshot: one arc per
/// off-diagonal co-access edge with at least `min_edge` cumulative
/// samples (the diagonal carries write-only mass and is not an arc).
pub fn observed_dhg(drift: &DriftSnapshot, min_edge: u64) -> Digraph {
    let n = drift.n_segments as usize;
    let mut g = Digraph::new(n);
    for e in &drift.edges {
        if e.from != e.to && e.count >= min_edge {
            g.add_arc(e.from as usize, e.to as usize);
        }
    }
    g
}

fn seg_name(names: &[String], i: usize) -> String {
    names.get(i).cloned().unwrap_or_else(|| format!("D{i}"))
}

/// Top-`k` provenance lines: the sketch rows whose interval share moved
/// furthest from their EWMA baseline, largest deviation first.
fn drift_provenance(drift: &DriftSnapshot, names: &[String], k: usize) -> Vec<String> {
    let mut scored: Vec<(u64, String)> = Vec::new();
    for c in &drift.cells {
        let dev = c.share_milli.abs_diff(c.baseline_milli);
        if dev > 0 {
            scored.push((
                dev,
                format!(
                    "cross-reads {} ← {}: share {}‰ vs baseline {}‰ ({} reads)",
                    DriftSnapshot::reader_label(c.reader),
                    seg_name(names, c.segment as usize),
                    c.share_milli,
                    c.baseline_milli,
                    c.count,
                ),
            ));
        }
    }
    for e in &drift.edges {
        let dev = e.share_milli.abs_diff(e.baseline_milli);
        if dev > 0 {
            scored.push((
                dev,
                format!(
                    "co-access {} → {}: share {}‰ vs baseline {}‰ ({} txns)",
                    seg_name(names, e.from as usize),
                    seg_name(names, e.to as usize),
                    e.share_milli,
                    e.baseline_milli,
                    e.count,
                ),
            ));
        }
    }
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, s)| s).collect()
}

/// Fold one drift snapshot against the running hierarchy and say what
/// the best-known TST repartition of the *observed* workload would be.
///
/// `min_edge` is the noise floor ([`DEFAULT_MIN_EDGE`]): observed edges
/// with fewer cumulative samples are treated as noise and dropped (the
/// report counts them in [`AdvisorReport::dropped_arcs`]).
pub fn advise(hierarchy: &Hierarchy, drift: &DriftSnapshot, min_edge: u64) -> AdvisorReport {
    let n = hierarchy.segment_count();
    let segment_names: Vec<String> = (0..n)
        .map(|s| hierarchy.segment_name(SegmentId(s as u32)).to_string())
        .collect();

    let sketch_ok = drift.configured && drift.n_segments as usize == n && n > 0;
    let mut provenance = Vec::new();
    if !sketch_ok {
        provenance.push(format!(
            "sketch unusable: configured={}, sketch segments={}, hierarchy segments={}",
            drift.configured, drift.n_segments, n,
        ));
    }

    let (mut observed, mut dropped) = (0usize, 0usize);
    let dhg = if sketch_ok {
        let g = observed_dhg(drift, min_edge);
        observed = g.arc_count();
        dropped = drift
            .edges
            .iter()
            .filter(|e| e.from != e.to && e.count < min_edge)
            .count();
        g
    } else {
        Digraph::new(n)
    };

    let plan = repartition_to_tst(&dhg);
    let advised_labels =
        canonical_labels(&plan.group_of.iter().map(|c| c.index()).collect::<Vec<_>>());
    let current_labels = canonical_labels(
        &(0..n)
            .map(|s| hierarchy.class_of(SegmentId(s as u32)).index())
            .collect::<Vec<_>>(),
    );

    // Pair-agreement (Rand index): over every unordered segment pair,
    // do the two partitions agree on together-vs-apart?
    let mut agree = 0u64;
    let mut total = 0u64;
    let mut suggestions = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            total += 1;
            let together_now = current_labels[a] == current_labels[b];
            let together_advised = advised_labels[a] == advised_labels[b];
            if together_now == together_advised {
                agree += 1;
            } else if together_advised {
                suggestions.push(Advice::Merge {
                    a: a as u32,
                    b: b as u32,
                });
            } else {
                suggestions.push(Advice::Split {
                    a: a as u32,
                    b: b as u32,
                });
            }
        }
    }
    let quality_milli = (agree * 1000).checked_div(total).unwrap_or(1000);

    if sketch_ok {
        provenance.extend(drift_provenance(drift, &segment_names, 3));
        if drift.tripped {
            provenance.push(format!(
                "drift board tripped: score {}‰ ≥ threshold {}‰ after fold {}",
                drift.score_milli, drift.threshold_milli, drift.folds,
            ));
        }
    }

    AdvisorReport {
        target: String::new(),
        n_segments: n,
        observed_arcs: observed,
        dropped_arcs: dropped,
        min_edge,
        current_labels,
        advised_labels,
        advised_n_classes: plan.n_classes,
        quality_milli,
        suggestions,
        provenance,
        segment_names,
        drift_score_milli: drift.score_milli,
        threshold_milli: drift.threshold_milli,
        tripped: drift.tripped,
        folds: drift.folds,
    }
}

impl AdvisorReport {
    /// Does the running hierarchy equal the advised TST repartition?
    pub fn hierarchy_is_optimal(&self) -> bool {
        self.suggestions.is_empty()
    }

    /// Render one advice entry in the linter's merge-help vocabulary.
    pub fn advice_text(&self, advice: &Advice) -> String {
        match *advice {
            Advice::Merge { a, b } => format!(
                "merge segments {}+{} (observed workload co-writes them; \
                 separate classes leave a DHG arc the TST repair erases)",
                seg_name(&self.segment_names, a as usize),
                seg_name(&self.segment_names, b as usize),
            ),
            Advice::Split { a, b } => format!(
                "split segments {} / {} (grouped in one class, but the \
                 observed workload never couples them)",
                seg_name(&self.segment_names, a as usize),
                seg_name(&self.segment_names, b as usize),
            ),
        }
    }

    /// Human-readable multi-line rendering (the `hdd-advisor` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "advising {} ... quality {}/1000, {} observed arc(s) ({} below noise floor {}), advised {} class(es)\n",
            if self.target.is_empty() { "hierarchy" } else { &self.target },
            self.quality_milli,
            self.observed_arcs,
            self.dropped_arcs,
            self.min_edge,
            self.advised_n_classes,
        );
        out.push_str(&format!(
            "  drift: score {}‰ / threshold {}‰, tripped={}, folds={}\n",
            self.drift_score_milli, self.threshold_milli, self.tripped, self.folds,
        ));
        if self.hierarchy_is_optimal() {
            out.push_str("  hierarchy matches the best-known TST for the observed workload\n");
        } else {
            for s in &self.suggestions {
                out.push_str(&format!("  suggest: {}\n", self.advice_text(s)));
            }
        }
        for p in &self.provenance {
            out.push_str(&format!("  evidence: {p}\n"));
        }
        out
    }

    /// Hand-rolled JSON object (no serde in the offline build).
    pub fn to_json(&self) -> String {
        let labels = |v: &[usize]| {
            v.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let suggestions: Vec<String> = self
            .suggestions
            .iter()
            .map(|s| {
                let (kind, a, b) = match *s {
                    Advice::Merge { a, b } => ("merge", a, b),
                    Advice::Split { a, b } => ("split", a, b),
                };
                format!(
                    "{{\"kind\": \"{kind}\", \"a\": {a}, \"b\": {b}, \"text\": \"{}\"}}",
                    json_escape(&self.advice_text(s)),
                )
            })
            .collect();
        let provenance: Vec<String> = self
            .provenance
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect();
        format!(
            "{{\"target\": \"{}\", \"n_segments\": {}, \"observed_arcs\": {}, \
             \"dropped_arcs\": {}, \"min_edge\": {}, \"quality_milli\": {}, \
             \"advised_n_classes\": {}, \"optimal\": {}, \
             \"current_labels\": [{}], \"advised_labels\": [{}], \
             \"drift_score_milli\": {}, \"threshold_milli\": {}, \"tripped\": {}, \
             \"folds\": {}, \"suggestions\": [{}], \"provenance\": [{}]}}",
            json_escape(&self.target),
            self.n_segments,
            self.observed_arcs,
            self.dropped_arcs,
            self.min_edge,
            self.quality_milli,
            self.advised_n_classes,
            self.hierarchy_is_optimal(),
            labels(&self.current_labels),
            labels(&self.advised_labels),
            self.drift_score_milli,
            self.threshold_milli,
            self.tripped,
            self.folds,
            suggestions.join(", "),
            provenance.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd::analysis::AccessSpec;
    use obs::Obs;
    use txn_model::ClassId;

    fn s(i: u32) -> SegmentId {
        SegmentId(i)
    }

    /// Identity 3-chain hierarchy: t1 writes D0; t2 writes D1 reads D0;
    /// t3 writes D2 reads D0,D1.
    fn chain_hierarchy() -> Hierarchy {
        let specs = vec![
            AccessSpec::new("t1", vec![s(0)], vec![]),
            AccessSpec::new("t2", vec![s(1)], vec![s(0)]),
            AccessSpec::new("t3", vec![s(2)], vec![s(0), s(1)]),
        ];
        Hierarchy::build(3, &specs).unwrap()
    }

    /// Sidecar whose drift board is pre-fed with the given edges `count`
    /// times each.
    fn board(n_classes: u32, n_segments: u32, edges: &[(u32, u32)], count: u64) -> Obs {
        let b = Obs::new();
        b.configure(n_classes, n_segments);
        b.drift.set_enabled(true);
        for _ in 0..count {
            for &(f, t) in edges {
                b.drift.record_edge(f, t);
            }
        }
        b
    }

    #[test]
    fn canonical_labels_renumber_by_first_occurrence() {
        assert_eq!(canonical_labels(&[2, 2, 0, 1]), vec![0, 0, 1, 2]);
        assert_eq!(canonical_labels(&[0, 1, 2]), vec![0, 1, 2]);
        assert_eq!(canonical_labels(&[]), Vec::<usize>::new());
    }

    #[test]
    fn matching_workload_reports_optimal_with_no_suggestions() {
        let h = chain_hierarchy();
        // Observed workload matches the declared chain: acyclic DHG,
        // identity repartition.
        let b = board(3, 3, &[(0, 0), (1, 1), (1, 0), (2, 2), (2, 0), (2, 1)], 8);
        let r = advise(&h, &b.snapshot().drift, DEFAULT_MIN_EDGE);
        assert!(r.hierarchy_is_optimal(), "{}", r.render());
        assert_eq!(r.quality_milli, 1000);
        assert_eq!(r.current_labels, r.advised_labels);
        assert_eq!(r.advised_n_classes, 3);
        assert_eq!(r.observed_arcs, 3, "diagonal edges are not arcs");
        let json = r.to_json();
        assert!(json.contains("\"optimal\": true"), "{json}");
        assert!(json.contains("\"quality_milli\": 1000"), "{json}");
    }

    #[test]
    fn observed_cycle_yields_merge_advice_matching_offline_repartition() {
        let h = chain_hierarchy();
        // The live mix grew a back-arc D0 → D1 (writers of D0 now also
        // read D1), closing a 2-cycle with the declared D1 → D0.
        let b = board(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 0), (2, 2), (2, 0)], 8);
        let snap = b.snapshot().drift;
        let r = advise(&h, &snap, DEFAULT_MIN_EDGE);
        assert!(!r.hierarchy_is_optimal());
        assert_eq!(r.suggestions, vec![Advice::Merge { a: 0, b: 1 }]);
        assert!(r
            .advice_text(&r.suggestions[0])
            .contains("merge segments D0+D1"));
        assert_eq!(r.advised_n_classes, 2);
        // Pairs: (0,1) disagrees; (0,2) and (1,2) agree → 2/3.
        assert_eq!(r.quality_milli, 666);
        // The advice must equal the offline repair of the same DHG.
        let offline = repartition_to_tst(&observed_dhg(&snap, DEFAULT_MIN_EDGE));
        let offline_labels = canonical_labels(
            &offline
                .group_of
                .iter()
                .map(|c| c.index())
                .collect::<Vec<_>>(),
        );
        assert_eq!(r.advised_labels, offline_labels);
        assert!(r.to_json().contains("\"kind\": \"merge\""));
    }

    #[test]
    fn stale_grouping_yields_split_advice() {
        // Hierarchy groups D0+D1 into one class, but the observed
        // workload never couples them: advise a split.
        let specs = vec![
            AccessSpec::new("ab", vec![s(0)], vec![s(1)]),
            AccessSpec::new("c", vec![s(2)], vec![s(0)]),
        ];
        let h = Hierarchy::build_grouped(3, &specs, vec![ClassId(0), ClassId(0), ClassId(1)], 2)
            .unwrap();
        let b = board(2, 3, &[(0, 0), (1, 1), (2, 2), (2, 0)], 8);
        let r = advise(&h, &b.snapshot().drift, DEFAULT_MIN_EDGE);
        assert_eq!(r.suggestions, vec![Advice::Split { a: 0, b: 1 }]);
        assert!(r
            .advice_text(&r.suggestions[0])
            .contains("split segments D0 / D1"));
        assert!(r.quality_milli < 1000);
    }

    #[test]
    fn noise_floor_drops_thin_edges_and_mismatched_sketch_is_flagged() {
        let h = chain_hierarchy();
        // The cycle-closing arc only occurred twice — below the floor.
        let thin = board(3, 3, &[(0, 1)], 2);
        let strong = board(3, 3, &[(1, 0), (2, 0)], 8);
        // Merge both sketches' views by advising on each.
        let r = advise(&h, &thin.snapshot().drift, DEFAULT_MIN_EDGE);
        assert_eq!(r.observed_arcs, 0);
        assert_eq!(r.dropped_arcs, 1);
        assert!(r.hierarchy_is_optimal(), "noise must not drive advice");
        let r = advise(&h, &strong.snapshot().drift, DEFAULT_MIN_EDGE);
        assert_eq!(r.observed_arcs, 2);
        assert_eq!(r.dropped_arcs, 0);

        // Unconfigured or mis-dimensioned sketches are flagged, not
        // folded.
        let r = advise(&h, &DriftSnapshot::default(), DEFAULT_MIN_EDGE);
        assert!(
            r.provenance[0].contains("sketch unusable"),
            "{:?}",
            r.provenance
        );
        assert_eq!(r.observed_arcs, 0);
    }

    #[test]
    fn provenance_names_most_drifted_rows_after_a_shift() {
        let h = chain_hierarchy();
        let b = board(3, 3, &[(1, 1), (1, 0)], 16);
        b.fold_drift();
        assert!(!b.drift.tripped(), "seed fold must not trip");
        // Shifted interval: a brand-new edge family dominates.
        for _ in 0..32 {
            b.drift.record_edge(2, 2);
            b.drift.record_edge(2, 0);
        }
        b.fold_drift();
        let snap = b.snapshot().drift;
        let r = advise(&h, &snap, DEFAULT_MIN_EDGE);
        assert!(
            r.provenance.iter().any(|p| p.contains("co-access D2")),
            "{:?}",
            r.provenance
        );
        if snap.tripped {
            assert!(r
                .provenance
                .iter()
                .any(|p| p.contains("drift board tripped")));
        }
        let json = r.to_json();
        assert!(json.contains("\"provenance\": ["), "{json}");
    }
}
