//! The online decomposition advisor: `hdd-lint` over observed shapes.
//!
//! The linter ([`crate::lint`]) answers the *a-priori* question: is the
//! declared workload TST-hierarchical? This module asks the same
//! question of the *live* workload. It turns the update shapes the
//! scheduler actually admitted ([`obs::ShapeSnapshot`]) into access
//! specs, lints them with [`lint_specs`], repairs them with
//! [`hdd::decompose::repartition_to_tst`], and compares the repair
//! against the hierarchy's current segment grouping: named merge/split
//! suggestions and a pair-agreement quality score.
//!
//! A shape counted fewer than [`SHAPE_FLOOR`] times is noise (say, one
//! exploratory transaction): it is dropped, and the report counts it.
//! Read-only shapes never enter the DHG. "Drift" means only that the
//! advice changed: a report has drifted when its lint verdict or its
//! advised labels differ from the caller's previous report.
//!
//! The advisor is **report-only**: it never mutates the hierarchy
//! (nothing here implements Section 7.1.1's dynamic restructuring;
//! applying the advice means rebuilding the hierarchy and restarting
//! the scheduler).

use crate::diag::json_escape;
use crate::lint::{lint_specs, LintReport};
use hdd::analysis::{build_dhg, AccessSpec, Hierarchy};
use hdd::decompose::repartition_to_tst;
use obs::ShapeSnapshot;
use txn_model::SegmentId;

/// Noise floor: an update shape must have begun at least this many
/// times before the advisor lints it as part of the workload.
pub const SHAPE_FLOOR: u64 = 4;

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

/// What the advisor concluded from one shape snapshot.
#[derive(Debug, Clone)]
pub struct AdvisorReport {
    /// What was advised on ("workload banking (wave 3)", ...).
    pub target: String,
    /// Segments in the hierarchy.
    pub n_segments: usize,
    /// Update shapes at or above the floor: the specs linted.
    pub shapes: usize,
    /// Update shapes below [`SHAPE_FLOOR`], dropped.
    pub dropped_shapes: usize,
    /// Begins of new shapes the full table did not store.
    pub overflow: u64,
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
    /// `lint_specs` over the observed shapes.
    pub lint: LintReport,
    /// Do the lint verdict or the advised labels differ from the
    /// previous report the caller passed in?
    pub drifted: bool,
    /// Segment display names, index-aligned.
    pub segment_names: Vec<String>,
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

fn seg_name(names: &[String], i: usize) -> String {
    names.get(i).cloned().unwrap_or_else(|| format!("D{i}"))
}

/// Lint the observed update shapes against the running hierarchy and
/// say what the best-known TST repartition of them would be. `prev` is
/// the caller's previous report, if any: the new one has
/// [`AdvisorReport::drifted`] when its advice differs from it.
pub fn advise(
    hierarchy: &Hierarchy,
    shapes: &ShapeSnapshot,
    prev: Option<&AdvisorReport>,
) -> AdvisorReport {
    let n = hierarchy.segment_count();
    let segment_names: Vec<String> = (0..n)
        .map(|s| hierarchy.segment_name(SegmentId(s as u32)).to_string())
        .collect();
    let names = |v: &[u32]| {
        let v: Vec<String> = v
            .iter()
            .map(|&s| seg_name(&segment_names, s as usize))
            .collect();
        v.join(",")
    };

    let mut specs = Vec::new();
    let mut dropped_shapes = 0;
    for (shape, count) in &shapes.shapes {
        if !shape.is_update() {
            continue;
        }
        if *count < SHAPE_FLOOR {
            dropped_shapes += 1;
            continue;
        }
        let segs = |v: &[u32]| v.iter().map(|&s| SegmentId(s)).collect();
        specs.push(AccessSpec::new(
            format!(
                "c{} writes {} reads {} ({count}×)",
                shape.class,
                names(&shape.writes),
                names(&shape.reads)
            ),
            segs(&shape.writes),
            segs(&shape.reads),
        ));
    }
    let lint = lint_specs(n, &specs, Some(&segment_names), "observed shapes");

    let plan = repartition_to_tst(&build_dhg(n, &specs));
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
            let (a, b) = (a as u32, b as u32);
            if together_now == together_advised {
                agree += 1;
            } else if together_advised {
                suggestions.push(Advice::Merge { a, b });
            } else {
                suggestions.push(Advice::Split { a, b });
            }
        }
    }
    let quality_milli = (agree * 1000).checked_div(total).unwrap_or(1000);
    let drifted =
        prev.is_some_and(|p| p.lint.ok() != lint.ok() || p.advised_labels != advised_labels);

    AdvisorReport {
        target: String::new(),
        n_segments: n,
        shapes: specs.len(),
        dropped_shapes,
        overflow: shapes.overflow,
        current_labels,
        advised_labels,
        advised_n_classes: plan.n_classes,
        quality_milli,
        suggestions,
        lint,
        drifted,
        segment_names,
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
            "advising {} ... quality {}/1000, {} shape(s) linted ({} below floor {}, {} \
             begin(s) overflowed), advised {} class(es)\n",
            if self.target.is_empty() {
                "hierarchy"
            } else {
                &self.target
            },
            self.quality_milli,
            self.shapes,
            self.dropped_shapes,
            SHAPE_FLOOR,
            self.overflow,
            self.advised_n_classes,
        );
        if self.drifted {
            out.push_str("  drift: the advice changed since the previous report\n");
        }
        if self.hierarchy_is_optimal() {
            out.push_str("  hierarchy matches the best-known TST for the observed workload\n");
        } else {
            for s in &self.suggestions {
                out.push_str(&format!("  suggest: {}\n", self.advice_text(s)));
            }
        }
        out.push_str(&self.lint.render());
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
        format!(
            "{{\"target\": \"{}\", \"n_segments\": {}, \"shapes\": {}, \
             \"dropped_shapes\": {}, \"overflow\": {}, \"shape_floor\": {}, \
             \"quality_milli\": {}, \"advised_n_classes\": {}, \"optimal\": {}, \
             \"drifted\": {}, \"current_labels\": [{}], \"advised_labels\": [{}], \
             \"suggestions\": [{}], \"lint\": {}}}",
            json_escape(&self.target),
            self.n_segments,
            self.shapes,
            self.dropped_shapes,
            self.overflow,
            SHAPE_FLOOR,
            self.quality_milli,
            self.advised_n_classes,
            self.hierarchy_is_optimal(),
            self.drifted,
            labels(&self.current_labels),
            labels(&self.advised_labels),
            suggestions.join(", "),
            self.lint.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Shape;
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

    /// A snapshot holding `(class, reads, writes, count)` shapes.
    fn table(rows: &[(u32, &[u32], &[u32], u64)]) -> ShapeSnapshot {
        let shapes = rows
            .iter()
            .map(|&(class, r, w, n)| (Shape::new(class, r.iter().copied(), w.iter().copied()), n));
        ShapeSnapshot {
            enabled: true,
            shapes: shapes.collect(),
            overflow: 0,
        }
    }

    /// The chain's own update shapes, 8 begins each.
    const CHAIN: [(u32, &[u32], &[u32], u64); 3] =
        [(0, &[], &[0], 8), (1, &[0], &[1], 8), (2, &[0, 1], &[2], 8)];

    #[test]
    fn canonical_labels_renumber_by_first_occurrence() {
        assert_eq!(canonical_labels(&[2, 2, 0, 1]), vec![0, 0, 1, 2]);
        assert_eq!(canonical_labels(&[0, 1, 2]), vec![0, 1, 2]);
        assert_eq!(canonical_labels(&[]), Vec::<usize>::new());
    }

    #[test]
    fn matching_workload_reports_optimal_with_no_suggestions() {
        let mut rows = CHAIN.to_vec();
        rows.push((u32::MAX, &[0, 2], &[], 50)); // read-only: never linted
        let r = advise(&chain_hierarchy(), &table(&rows), None);
        assert!(r.hierarchy_is_optimal(), "{}", r.render());
        assert!(r.lint.ok() && !r.drifted);
        assert_eq!(r.quality_milli, 1000);
        assert_eq!(r.current_labels, r.advised_labels);
        assert_eq!((r.advised_n_classes, r.shapes), (3, 3));
        let json = r.to_json();
        assert!(json.contains("\"optimal\": true"), "{json}");
        assert!(json.contains("\"quality_milli\": 1000"), "{json}");
    }

    #[test]
    fn observed_cycle_yields_merge_advice_matching_offline_repartition() {
        // The live mix grew a writer of D0 that reads D1, closing a
        // 2-cycle with the declared D1 → D0.
        let shapes = table(&[(0, &[1], &[0], 8), (1, &[0], &[1], 8), (2, &[0], &[2], 8)]);
        let r = advise(&chain_hierarchy(), &shapes, None);
        assert_eq!(r.suggestions, vec![Advice::Merge { a: 0, b: 1 }]);
        assert!(r
            .advice_text(&r.suggestions[0])
            .contains("merge segments D0+D1"));
        assert_eq!(r.advised_n_classes, 2);
        // Pairs: (0,1) disagrees; (0,2) and (1,2) agree → 2/3.
        assert_eq!(r.quality_milli, 666);
        // The advice is the offline repair of the same spec set, and
        // the lint names it.
        let offline = [
            AccessSpec::new("a", vec![s(0)], vec![s(1)]),
            AccessSpec::new("b", vec![s(1)], vec![s(0)]),
            AccessSpec::new("c", vec![s(2)], vec![s(0)]),
        ];
        let plan = repartition_to_tst(&build_dhg(3, &offline));
        let labels: Vec<usize> = plan.group_of.iter().map(|c| c.index()).collect();
        assert_eq!(r.advised_labels, canonical_labels(&labels));
        assert!(!r.lint.ok());
        assert_eq!(r.lint.diagnostics[0].code, "CERT003");
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
        let shapes = table(&[(0, &[], &[0], 8), (0, &[], &[1], 8), (1, &[0], &[2], 8)]);
        let r = advise(&h, &shapes, None);
        assert_eq!(r.suggestions, vec![Advice::Split { a: 0, b: 1 }]);
        assert!(r
            .advice_text(&r.suggestions[0])
            .contains("split segments D0 / D1"));
        assert!(r.quality_milli < 1000 && r.lint.ok());
    }

    #[test]
    fn shapes_below_the_floor_are_dropped_and_counted() {
        let h = chain_hierarchy();
        // The cycle-closing shape began only twice: noise.
        let mut rows = CHAIN.to_vec();
        rows.push((0, &[1], &[0], SHAPE_FLOOR - 1));
        let mut shapes = table(&rows);
        shapes.overflow = 5;
        let r = advise(&h, &shapes, None);
        assert_eq!((r.shapes, r.dropped_shapes, r.overflow), (3, 1, 5));
        assert!(r.hierarchy_is_optimal(), "noise must not drive advice");
        let json = r.to_json();
        for key in [
            "\"dropped_shapes\": 1",
            "\"overflow\": 5",
            "\"shape_floor\": 4",
        ] {
            assert!(json.contains(key), "{key} in {json}");
        }
        // At the floor it counts, and the advice drifts from the last.
        rows.last_mut().unwrap().3 = SHAPE_FLOOR;
        let next = advise(&h, &table(&rows), Some(&r));
        assert_eq!((next.shapes, next.dropped_shapes), (4, 0));
        assert!(next.drifted && !next.lint.ok());
        assert!(next.render().contains("drift: the advice changed"));
        assert!(!advise(&h, &table(&rows), Some(&next)).drifted);
    }
}
