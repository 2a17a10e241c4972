//! Transaction analysis (Section 3.2): from declared transaction access
//! patterns to a validated TST-hierarchical partition.
//!
//! * [`AccessSpec`] — one *potential transaction shape* `t`: its write set
//!   `w(t)` and read set `r(t)` at segment granularity.
//! * [`build_dhg`] — the **data hierarchy graph**: `D_i → D_j` iff some
//!   spec has `w(t) ∩ D_i ≠ ∅` and `a(t) ∩ D_j ≠ ∅` (`a = r ∪ w`).
//! * [`Hierarchy`] — the validated partition: DHG is a transitive
//!   semi-tree; every update transaction writes inside exactly one class
//!   root; the transaction hierarchy graph THG is the image of the DHG.
//!
//! ## Grouped partitions
//!
//! The paper's partition `P` divides the database into data segments; the
//! decomposition algorithms of Section 7 *coarsen* a partition by merging
//! segments. [`Hierarchy`] therefore distinguishes **segments** (stable
//! physical ids carried by granules) from **classes** (nodes of the
//! DHG/THG): a class roots a *group* of segments. [`Hierarchy::build`]
//! produces the identity grouping (one class per segment);
//! [`Hierarchy::build_grouped`] accepts an explicit grouping, which is
//! what [`crate::decompose`] emits.

use crate::graph::{check_transitive_semi_tree, Digraph, PathTables, SemiTreeViolation};
use txn_model::{ClassId, SegmentId, TxnProfile};

/// One potential transaction shape, at segment granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSpec {
    /// Human-readable name ("type-2 inventory posting", ...).
    pub name: String,
    /// Segments written.
    pub writes: Vec<SegmentId>,
    /// Segments read.
    pub reads: Vec<SegmentId>,
}

impl AccessSpec {
    /// Build a spec.
    pub fn new(name: impl Into<String>, writes: Vec<SegmentId>, reads: Vec<SegmentId>) -> Self {
        AccessSpec {
            name: name.into(),
            writes,
            reads,
        }
    }

    /// The access set `a(t) = r(t) ∪ w(t)`.
    pub fn accesses(&self) -> Vec<SegmentId> {
        let mut a = self.reads.clone();
        for &w in &self.writes {
            if !a.contains(&w) {
                a.push(w);
            }
        }
        a
    }
}

/// Build the data hierarchy graph `DHG(P, T^u)` at **class** granularity:
/// arcs between the classes of the written/accessed segments under
/// `class_of` (identity grouping ⇒ the textbook segment-level DHG).
pub fn build_dhg_grouped(n_classes: usize, specs: &[AccessSpec], class_of: &[ClassId]) -> Digraph {
    let mut g = Digraph::new(n_classes);
    for spec in specs {
        let accesses = spec.accesses();
        for &w in &spec.writes {
            let wc = class_of[w.index()].index();
            for &a in &accesses {
                let ac = class_of[a.index()].index();
                if wc != ac {
                    g.add_arc(wc, ac);
                }
            }
        }
    }
    g
}

/// Build the segment-level data hierarchy graph (identity grouping).
pub fn build_dhg(n_segments: usize, specs: &[AccessSpec]) -> Digraph {
    let identity: Vec<ClassId> = (0..n_segments as u32).map(ClassId).collect();
    build_dhg_grouped(n_segments, specs, &identity)
}

/// Why a partition failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// A spec writes no segment (it is a read-only shape; pass read-only
    /// transactions to the scheduler as such instead).
    SpecWritesNothing {
        /// Name of the offending spec.
        spec: String,
    },
    /// A spec writes segments of more than one class; under a
    /// TST-hierarchical partition "t ∈ T^u writes in one and only one
    /// data segment".
    MultiClassWriter {
        /// Name of the offending spec.
        spec: String,
        /// The classes it writes into.
        classes: Vec<ClassId>,
    },
    /// The DHG has a directed cycle (class indices).
    DirectedCycle(Vec<ClassId>),
    /// The DHG's transitive reduction is not a semi-tree: two classes are
    /// connected by more than one undirected path.
    NotSemiTree {
        /// One endpoint of the cycle-closing critical arc.
        u: ClassId,
        /// The other endpoint.
        v: ClassId,
    },
    /// `class_of` assigns a segment to an out-of-range class.
    BadGrouping,
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::SpecWritesNothing { spec } => {
                write!(f, "spec '{spec}' writes no segment")
            }
            HierarchyError::MultiClassWriter { spec, classes } => {
                write!(f, "spec '{spec}' writes into multiple classes {classes:?}")
            }
            HierarchyError::DirectedCycle(c) => write!(f, "DHG has a directed cycle {c:?}"),
            HierarchyError::NotSemiTree { u, v } => write!(
                f,
                "DHG reduction is not a semi-tree: second undirected path closed by {u}–{v}"
            ),
            HierarchyError::BadGrouping => write!(f, "segment mapped to out-of-range class"),
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Why a transaction profile is illegal under a given hierarchy. The
/// repair is to add the shape to the access specs and rebuild the
/// hierarchy (`hdd-lint` gives the Section 7.2.1 merge).
///
/// Violations carry the human-readable segment and class *names* (as
/// configured via [`Hierarchy::with_segment_names`], defaulting to
/// `D{i}`/`T{i}`) so `hdd-lint` diagnostics read in workload vocabulary
/// rather than raw indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileViolation {
    /// An update profile without a class, or a class out of range.
    NoClass,
    /// The profile writes a segment outside its root class.
    WritesOutsideRoot {
        /// The offending segment.
        segment: SegmentId,
        /// Its human-readable name.
        segment_name: String,
        /// The profile's declared root class.
        class: ClassId,
        /// Its human-readable name.
        class_name: String,
    },
    /// The profile reads a segment whose class is neither its own class
    /// nor higher than it — Protocol A has no version bound for it.
    ReadsNonAncestor {
        /// The offending segment.
        segment: SegmentId,
        /// Its human-readable name.
        segment_name: String,
        /// The profile's declared root class.
        class: ClassId,
        /// Its human-readable name.
        class_name: String,
    },
    /// A segment id out of range.
    UnknownSegment {
        /// The offending segment.
        segment: SegmentId,
    },
}

impl std::fmt::Display for ProfileViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileViolation::NoClass => {
                write!(f, "update profile has no (or an out-of-range) class")
            }
            ProfileViolation::WritesOutsideRoot {
                segment,
                segment_name,
                class,
                class_name,
            } => write!(
                f,
                "profile rooted in class {class_name} ({class}) writes segment \
                 {segment_name} ({segment}) outside its root class"
            ),
            ProfileViolation::ReadsNonAncestor {
                segment,
                segment_name,
                class,
                class_name,
            } => write!(
                f,
                "profile rooted in class {class_name} ({class}) reads segment \
                 {segment_name} ({segment}), which is not an ancestor of its root"
            ),
            ProfileViolation::UnknownSegment { segment } => {
                write!(f, "segment {segment} is out of range for this hierarchy")
            }
        }
    }
}

/// Derive class names from segment names: single-segment classes borrow
/// the segment's name, grouped classes join theirs, empty classes fall
/// back to `T{i}`.
fn derive_class_names(
    class_of: &[ClassId],
    n_classes: usize,
    segment_names: &[String],
) -> Vec<String> {
    (0..n_classes)
        .map(|c| {
            let segs: Vec<&str> = class_of
                .iter()
                .enumerate()
                .filter(|(_, cls)| cls.index() == c)
                .map(|(s, _)| segment_names[s].as_str())
                .collect();
            match segs.len() {
                0 => format!("T{c}"),
                1 => segs[0].to_string(),
                _ => format!("{{{}}}", segs.join("+")),
            }
        })
        .collect()
}

/// A validated TST-hierarchical partition with its path tables.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    n_segments: usize,
    class_of_segment: Vec<ClassId>,
    n_classes: usize,
    dhg: Digraph,
    paths: PathTables,
    /// Human-readable segment names (defaults `D{i}`).
    segment_names: Vec<String>,
    /// Human-readable class names, derived from segment names: a
    /// single-segment class borrows its segment's name, a grouped class
    /// joins them (`"{a+b}"`).
    class_names: Vec<String>,
}

impl Hierarchy {
    /// Validate the identity partition (one class per segment) described
    /// by `specs` over `n_segments` segments.
    pub fn build(n_segments: usize, specs: &[AccessSpec]) -> Result<Hierarchy, HierarchyError> {
        let identity: Vec<ClassId> = (0..n_segments as u32).map(ClassId).collect();
        Self::build_grouped(n_segments, specs, identity, n_segments)
    }

    /// Validate a grouped partition: `class_of[s]` maps each segment to
    /// its class (`0..n_classes`).
    pub fn build_grouped(
        n_segments: usize,
        specs: &[AccessSpec],
        class_of: Vec<ClassId>,
        n_classes: usize,
    ) -> Result<Hierarchy, HierarchyError> {
        if class_of.len() != n_segments || class_of.iter().any(|c| c.index() >= n_classes) {
            return Err(HierarchyError::BadGrouping);
        }
        for spec in specs {
            if spec.writes.is_empty() {
                return Err(HierarchyError::SpecWritesNothing {
                    spec: spec.name.clone(),
                });
            }
            let mut classes: Vec<ClassId> =
                spec.writes.iter().map(|w| class_of[w.index()]).collect();
            classes.sort_unstable();
            classes.dedup();
            if classes.len() > 1 {
                return Err(HierarchyError::MultiClassWriter {
                    spec: spec.name.clone(),
                    classes,
                });
            }
        }
        let dhg = build_dhg_grouped(n_classes, specs, &class_of);
        Self::from_parts(n_segments, class_of, n_classes, dhg)
    }

    /// Validate a hand-built class-level DHG with an explicit grouping.
    pub fn from_parts(
        n_segments: usize,
        class_of: Vec<ClassId>,
        n_classes: usize,
        dhg: Digraph,
    ) -> Result<Hierarchy, HierarchyError> {
        if class_of.len() != n_segments
            || class_of.iter().any(|c| c.index() >= n_classes)
            || dhg.node_count() != n_classes
        {
            return Err(HierarchyError::BadGrouping);
        }
        let reduction = check_transitive_semi_tree(&dhg).map_err(|v| match v {
            SemiTreeViolation::DirectedCycle(c) => {
                HierarchyError::DirectedCycle(c.into_iter().map(|i| ClassId(i as u32)).collect())
            }
            SemiTreeViolation::UndirectedCycle { u, v } => HierarchyError::NotSemiTree {
                u: ClassId(u as u32),
                v: ClassId(v as u32),
            },
        })?;
        let segment_names: Vec<String> = (0..n_segments).map(|i| format!("D{i}")).collect();
        let class_names = derive_class_names(&class_of, n_classes, &segment_names);
        Ok(Hierarchy {
            n_segments,
            class_of_segment: class_of,
            n_classes,
            dhg,
            paths: PathTables::new(reduction),
            segment_names,
            class_names,
        })
    }

    /// Attach human-readable segment names (one per segment, in order).
    /// Class names are re-derived from them. Panics when the name count
    /// does not match the segment count.
    pub fn with_segment_names(mut self, names: Vec<String>) -> Hierarchy {
        assert_eq!(
            names.len(),
            self.n_segments,
            "one name per segment required"
        );
        self.class_names = derive_class_names(&self.class_of_segment, self.n_classes, &names);
        self.segment_names = names;
        self
    }

    /// The human-readable name of `segment` (default `D{i}`).
    pub fn segment_name(&self, segment: SegmentId) -> &str {
        &self.segment_names[segment.index()]
    }

    /// The human-readable name of `class` (default its segment's name).
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.class_names[class.index()]
    }

    /// Validate a hand-built segment-level DHG (identity grouping). Used
    /// by the decomposition algorithms and property tests.
    pub fn from_dhg(dhg: Digraph) -> Result<Hierarchy, HierarchyError> {
        let n = dhg.node_count();
        let identity: Vec<ClassId> = (0..n as u32).map(ClassId).collect();
        Self::from_parts(n, identity, n, dhg)
    }

    /// Number of physical segments.
    pub fn segment_count(&self) -> usize {
        self.n_segments
    }

    /// Number of transaction classes (DHG nodes).
    pub fn class_count(&self) -> usize {
        self.n_classes
    }

    /// The class-level data hierarchy graph.
    pub fn dhg(&self) -> &Digraph {
        &self.dhg
    }

    /// Path tables (critical paths, UCPs, higher-than) over the THG —
    /// isomorphic to the DHG under the class indexing.
    pub fn paths(&self) -> &PathTables {
        &self.paths
    }

    /// `T_j ↑ T_i`.
    pub fn higher_than(&self, j: ClassId, i: ClassId) -> bool {
        self.paths.higher_than(j.index(), i.index())
    }

    /// The class owning `segment`.
    pub fn class_of(&self, segment: SegmentId) -> ClassId {
        self.class_of_segment[segment.index()]
    }

    /// The segments grouped under `class`.
    pub fn segments_of(&self, class: ClassId) -> Vec<SegmentId> {
        (0..self.n_segments)
            .filter(|&s| self.class_of_segment[s] == class)
            .map(|s| SegmentId(s as u32))
            .collect()
    }

    /// Validate a transaction profile against the hierarchy.
    ///
    /// Update profiles must write only inside their root class and read
    /// only the root class or classes higher than it. Read-only profiles
    /// are always legal (Protocol A or C applies depending on whether
    /// their read classes lie on one critical path).
    pub fn validate_profile(&self, profile: &TxnProfile) -> Result<(), ProfileViolation> {
        for &s in profile.read_segments.iter().chain(&profile.write_segments) {
            if s.index() >= self.n_segments {
                return Err(ProfileViolation::UnknownSegment { segment: s });
            }
        }
        if profile.is_read_only() {
            return Ok(());
        }
        let class = profile.class.ok_or(ProfileViolation::NoClass)?;
        if class.index() >= self.n_classes {
            return Err(ProfileViolation::NoClass);
        }
        for &w in &profile.write_segments {
            if self.class_of(w) != class {
                return Err(ProfileViolation::WritesOutsideRoot {
                    segment: w,
                    segment_name: self.segment_name(w).to_string(),
                    class,
                    class_name: self.class_name(class).to_string(),
                });
            }
        }
        for &r in &profile.read_segments {
            let rc = self.class_of(r);
            if rc != class && !self.paths.higher_than(rc.index(), class.index()) {
                return Err(ProfileViolation::ReadsNonAncestor {
                    segment: r,
                    segment_name: self.segment_name(r).to_string(),
                    class,
                    class_name: self.class_name(class).to_string(),
                });
            }
        }
        Ok(())
    }

    /// Render the hierarchy in Graphviz DOT: classes as nodes (labelled
    /// with their segments when grouped), critical arcs solid,
    /// transitively induced DHG arcs dashed.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph hierarchy {\n  rankdir=BT;\n");
        for c in 0..self.n_classes {
            let class = ClassId(c as u32);
            let segs = self.segments_of(class);
            let label = if segs.len() == 1 && segs[0].index() == c {
                format!("{class}")
            } else {
                let seg_list: Vec<String> = segs.iter().map(ToString::to_string).collect();
                format!("{class} = {{{}}}", seg_list.join(", "))
            };
            let _ = writeln!(out, "  {c} [label=\"{label}\"];");
        }
        for (u, v) in self.dhg.arcs() {
            let style = if self.paths.is_critical_arc(u, v) {
                ""
            } else {
                " [style=dashed]"
            };
            let _ = writeln!(out, "  {u} -> {v}{style};");
        }
        out.push_str("}\n");
        out
    }

    /// Whether a read-only profile's segments lie on one critical path
    /// (Protocol A via a fictitious class below the chain) or not
    /// (Protocol C via a time wall).
    pub fn read_only_on_one_critical_path(&self, read_segments: &[SegmentId]) -> bool {
        self.read_only_chain_base(read_segments).is_some()
    }

    /// The lowest class of a read-only profile whose segments lie on one
    /// critical path — its fictitious class sits right below it — or
    /// `None` when they do not (or there are none). One pass through
    /// [`class_of`](Self::class_of), no allocation.
    pub(crate) fn read_only_chain_base(&self, read_segments: &[SegmentId]) -> Option<ClassId> {
        let classes = read_segments.iter().map(|s| self.class_of(*s).index());
        self.paths.chain_low(classes).map(|c| ClassId(c as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SegmentId {
        SegmentId(i)
    }

    /// The paper's inventory example (Section 1.2.1):
    ///   D0 = event records (sales / sales-mod / arrivals)
    ///   D1 = inventory
    ///   D2 = merchandise-on-order
    /// type 1 writes D0;
    /// type 2 writes D1, reads D0;
    /// type 3 writes D2, reads D0, D1, D2.
    fn inventory_specs() -> Vec<AccessSpec> {
        vec![
            AccessSpec::new("type1", vec![s(0)], vec![]),
            AccessSpec::new("type2", vec![s(1)], vec![s(0)]),
            AccessSpec::new("type3", vec![s(2)], vec![s(0), s(1), s(2)]),
        ]
    }

    #[test]
    fn inventory_dhg_shape() {
        let dhg = build_dhg(3, &inventory_specs());
        assert!(dhg.has_arc(1, 0));
        assert!(dhg.has_arc(2, 0));
        assert!(dhg.has_arc(2, 1));
        assert!(!dhg.has_arc(0, 1));
        assert_eq!(dhg.arc_count(), 3);
    }

    #[test]
    fn inventory_hierarchy_validates() {
        let h = Hierarchy::build(3, &inventory_specs()).expect("inventory DHG is a TST");
        // Reduction = chain 2 → 1 → 0.
        assert!(h.paths().is_critical_arc(2, 1));
        assert!(h.paths().is_critical_arc(1, 0));
        assert!(!h.paths().is_critical_arc(2, 0)); // induced
        assert!(h.higher_than(ClassId(0), ClassId(2)));
        assert!(!h.higher_than(ClassId(2), ClassId(0)));
        assert_eq!(h.class_count(), 3);
        assert_eq!(h.class_of(s(1)), ClassId(1));
        assert_eq!(h.segments_of(ClassId(1)), vec![s(1)]);
    }

    #[test]
    fn multi_class_writer_rejected() {
        let specs = vec![AccessSpec::new("bad", vec![s(0), s(1)], vec![])];
        match Hierarchy::build(2, &specs) {
            Err(HierarchyError::MultiClassWriter { spec, classes }) => {
                assert_eq!(spec, "bad");
                assert_eq!(classes.len(), 2);
            }
            other => panic!("expected MultiClassWriter, got {other:?}"),
        }
    }

    #[test]
    fn grouping_legalizes_multi_segment_writer() {
        // Writing segments 0 and 1 is fine once they share a class.
        let specs = vec![
            AccessSpec::new("w01", vec![s(0), s(1)], vec![s(2)]),
            AccessSpec::new("w2", vec![s(2)], vec![]),
        ];
        let h = Hierarchy::build_grouped(3, &specs, vec![ClassId(0), ClassId(0), ClassId(1)], 2)
            .expect("grouped partition is a TST");
        assert_eq!(h.class_count(), 2);
        assert_eq!(h.class_of(s(1)), ClassId(0));
        assert_eq!(h.segments_of(ClassId(0)), vec![s(0), s(1)]);
        assert!(h.higher_than(ClassId(1), ClassId(0)));
        // Profile writing both segments of class 0 validates.
        let p = TxnProfile {
            class: Some(ClassId(0)),
            read_segments: vec![s(2)],
            write_segments: vec![s(0), s(1)],
        };
        assert!(h.validate_profile(&p).is_ok());
    }

    #[test]
    fn writeless_spec_rejected() {
        let specs = vec![AccessSpec::new("ro", vec![], vec![s(0)])];
        assert!(matches!(
            Hierarchy::build(1, &specs),
            Err(HierarchyError::SpecWritesNothing { .. })
        ));
    }

    #[test]
    fn mutual_readers_create_cycle() {
        let specs = vec![
            AccessSpec::new("a", vec![s(0)], vec![s(1)]),
            AccessSpec::new("b", vec![s(1)], vec![s(0)]),
        ];
        assert!(matches!(
            Hierarchy::build(2, &specs),
            Err(HierarchyError::DirectedCycle(_))
        ));
    }

    #[test]
    fn diamond_rejected_as_non_semi_tree() {
        let specs = vec![
            AccessSpec::new("a", vec![s(1)], vec![s(0)]),
            AccessSpec::new("b", vec![s(2)], vec![s(0)]),
            AccessSpec::new("c", vec![s(3)], vec![s(1), s(2)]),
        ];
        assert!(matches!(
            Hierarchy::build(4, &specs),
            Err(HierarchyError::NotSemiTree { .. })
        ));
    }

    #[test]
    fn bad_grouping_rejected() {
        let specs = vec![AccessSpec::new("a", vec![s(0)], vec![])];
        assert_eq!(
            Hierarchy::build_grouped(1, &specs, vec![ClassId(5)], 2).unwrap_err(),
            HierarchyError::BadGrouping
        );
        assert_eq!(
            Hierarchy::build_grouped(1, &specs, vec![], 1).unwrap_err(),
            HierarchyError::BadGrouping
        );
    }

    #[test]
    fn profile_validation() {
        let h = Hierarchy::build(3, &inventory_specs()).unwrap();
        let ok = TxnProfile::update(ClassId(2), vec![s(0), s(1), s(2)]);
        assert!(h.validate_profile(&ok).is_ok());
        let bad = TxnProfile::update(ClassId(0), vec![s(1)]);
        match h.validate_profile(&bad) {
            Err(ProfileViolation::ReadsNonAncestor {
                segment,
                segment_name,
                class,
                class_name,
            }) => {
                assert_eq!(segment, s(1));
                assert_eq!(segment_name, "D1");
                assert_eq!(class, ClassId(0));
                assert_eq!(class_name, "D0");
            }
            other => panic!("expected ReadsNonAncestor, got {other:?}"),
        }
        let ro = TxnProfile::read_only(vec![s(0), s(1)]);
        assert!(h.validate_profile(&ro).is_ok());
        let oob = TxnProfile::read_only(vec![s(9)]);
        assert_eq!(
            h.validate_profile(&oob),
            Err(ProfileViolation::UnknownSegment { segment: s(9) })
        );
    }

    #[test]
    fn violations_render_custom_names() {
        let h = Hierarchy::build(3, &inventory_specs())
            .unwrap()
            .with_segment_names(vec![
                "events".to_string(),
                "inventory".to_string(),
                "on-order".to_string(),
            ]);
        assert_eq!(h.segment_name(s(1)), "inventory");
        assert_eq!(h.class_name(ClassId(2)), "on-order");
        let bad = TxnProfile {
            class: Some(ClassId(1)),
            read_segments: vec![],
            write_segments: vec![s(2)],
        };
        let err = h.validate_profile(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("on-order"), "{msg}");
        assert!(msg.contains("inventory"), "{msg}");
        // Grouped classes join their segment names.
        let specs = vec![
            AccessSpec::new("w01", vec![s(0), s(1)], vec![s(2)]),
            AccessSpec::new("w2", vec![s(2)], vec![]),
        ];
        let g = Hierarchy::build_grouped(3, &specs, vec![ClassId(0), ClassId(0), ClassId(1)], 2)
            .unwrap()
            .with_segment_names(vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        assert_eq!(g.class_name(ClassId(0)), "{a+b}");
        assert_eq!(g.class_name(ClassId(1)), "c");
    }

    #[test]
    fn dot_export_marks_critical_and_induced_arcs() {
        let h = Hierarchy::build(3, &inventory_specs()).unwrap();
        let dot = h.to_dot();
        assert!(dot.starts_with("digraph hierarchy"));
        assert!(dot.contains("2 -> 1;"), "critical arc solid: {dot}");
        assert!(
            dot.contains("2 -> 0 [style=dashed];"),
            "induced arc dashed: {dot}"
        );
        // Grouped hierarchies label merged classes with their segments.
        let specs = vec![
            AccessSpec::new("w01", vec![s(0), s(1)], vec![s(2)]),
            AccessSpec::new("w2", vec![s(2)], vec![]),
        ];
        let g = Hierarchy::build_grouped(3, &specs, vec![ClassId(0), ClassId(0), ClassId(1)], 2)
            .unwrap();
        assert!(g.to_dot().contains("T0 = {D0, D1}"));
    }

    #[test]
    fn read_only_chain_detection() {
        let h = Hierarchy::build(3, &inventory_specs()).unwrap();
        assert!(h.read_only_on_one_critical_path(&[s(0), s(2)]));
        assert!(h.read_only_on_one_critical_path(&[s(1)]));
        assert!(!h.read_only_on_one_critical_path(&[]));
        let specs = vec![
            AccessSpec::new("a", vec![s(1)], vec![s(0)]),
            AccessSpec::new("b", vec![s(2)], vec![s(0)]),
        ];
        let h2 = Hierarchy::build(3, &specs).unwrap();
        assert!(!h2.read_only_on_one_critical_path(&[s(1), s(2)]));
        assert!(h2.read_only_on_one_critical_path(&[s(1), s(0)]));
    }
}
