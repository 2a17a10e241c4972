//! **E20 — observed shapes: online advice is `hdd-lint`** (no paper
//! figure; ours).
//!
//! The paper's decomposition is chosen *a-priori* from declared
//! transaction shapes (Section 3); Section 7.1.1 only sketches dynamic
//! restructuring, which this repository does not implement (DESIGN.md
//! §14). This experiment checks the observation half: a four-segment
//! workload whose grouped hierarchy `T0={D0,D1}`, `T1={D2}`, `T2={D3}`
//! is driven through HDD with the shape table ([`obs::ShapeTable`])
//! enabled, and mid-run the mix shifts — the cycle-closing `b` shape
//! (writes `D1`, reads `D0`) goes from absent to dominant. After every
//! sub-batch, [`certify::advise`] lints the observed shapes, passing
//! its previous report. We check:
//!
//! 1. **Negative control**: the steady phase's calls after the first
//!    give the same lint verdict and advised labels (no drift); its
//!    advice is the *split* of `{D0,D1}`.
//! 2. **Detection**: after the shift the advice changes within a
//!    bounded number of calls (quick test asserts ≤ 3).
//! 3. **Online = offline**: the post-shift advised partition equals
//!    the offline `repartition_to_tst` of the post-shift spec set
//!    (merge `D0+D1` — exactly the grouping the hierarchy already runs,
//!    so the advisor reports *optimal*), and the online lint's help is
//!    the offline `lint_specs` help, word for word.
//!
//! ```text
//! cargo run --release -p sim --bin experiments -- e20
//! ```

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::factory::build_hdd_with_config;
use crate::report::Table;
use certify::{advise, canonical_labels, lint_specs, AdvisorReport, LintReport};
use hdd::analysis::{build_dhg, AccessSpec, Hierarchy};
use hdd::decompose::repartition_to_tst;
use hdd::protocol::HddConfig;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txn_model::{ClassId, GranuleId, Scheduler, SegmentId, TxnProfile, TxnProgram, Value};
use workloads::Workload;

fn s(i: u32) -> SegmentId {
    SegmentId(i)
}

/// The phased workload: four segments under the grouped hierarchy
/// `T0={D0,D1} ← T1={D2} ← T2={D3}`. Shapes:
///
/// * `a` — writes `D0`, reads `D1` (class 0);
/// * `b` — writes `D1`, reads `D0` (class 0; the cycle-closer at the
///   segment level — absent in the steady phase, dominant after the
///   shift);
/// * `c` — writes `D2`, reads `D0` (class 1);
/// * `d` — writes `D3`, reads `D2`,`D0` (class 2);
/// * `ro` — ad-hoc read-only over `D0`,`D3` (one critical path →
///   Protocol A cross-reads; a read-only shape the advisor skips).
#[derive(Debug, Clone)]
pub struct Phased {
    /// False = steady phase (no `b`); true = shifted phase (`b` is
    /// half the mix).
    pub shifted: bool,
    granules: u64,
}

impl Phased {
    /// A steady-phase instance with the given granules per segment.
    pub fn new(granules: u64) -> Self {
        Phased {
            shifted: false,
            granules,
        }
    }

    fn granule(&self, seg: u32, rng: &mut StdRng) -> GranuleId {
        GranuleId::new(s(seg), rng.gen_range(0..self.granules))
    }

    /// An update transaction writing `write_seg` in `class`, reading
    /// `reads` (cross or intra) plus its own write granule.
    fn update(
        &self,
        name: &str,
        class: u32,
        write_seg: u32,
        reads: &[u32],
        rng: &mut StdRng,
    ) -> TxnProgram {
        let mut b = TxnProgram::builder(name.to_string());
        for &r in reads {
            b = b.read(self.granule(r, rng));
        }
        let own = self.granule(write_seg, rng);
        b = b.read(own);
        b = b.write_computed(own, move |ctx| Value::Int(ctx.int(own) + 1));
        let mut segs: Vec<SegmentId> = reads.iter().map(|&r| s(r)).collect();
        segs.push(s(write_seg));
        // The grouped hierarchy breaks the identity class↔segment map,
        // so declare the written segment explicitly rather than relying
        // on `TxnProfile::update`'s root-segment convention.
        b.build(TxnProfile {
            class: Some(ClassId(class)),
            read_segments: segs,
            write_segments: vec![s(write_seg)],
        })
    }

    fn read_only(&self, rng: &mut StdRng) -> TxnProgram {
        let mut b = TxnProgram::builder("ro");
        b = b.read(self.granule(0, rng));
        b = b.read(self.granule(3, rng));
        b.build(TxnProfile::read_only(vec![s(0), s(3)]))
    }
}

impl Workload for Phased {
    fn name(&self) -> &'static str {
        "phased-drift"
    }

    fn segments(&self) -> usize {
        4
    }

    fn specs(&self) -> Vec<AccessSpec> {
        // The declared shapes include `b`: the hierarchy was designed
        // for the full mix, which is why {D0,D1} share a class.
        observed_specs(true)
    }

    fn hierarchy(&self) -> Hierarchy {
        Hierarchy::build_grouped(
            4,
            &self.specs(),
            vec![ClassId(0), ClassId(0), ClassId(1), ClassId(2)],
            3,
        )
        .expect("the phased grouping is a legal TST")
        .with_segment_names(self.segment_names())
    }

    fn seed(&self, store: &MvStore) {
        for seg in 0..4u32 {
            for key in 0..self.granules {
                store.seed(GranuleId::new(s(seg), key), Value::Int(0));
            }
        }
    }

    fn generate(&mut self, rng: &mut StdRng) -> TxnProgram {
        let u: f64 = rng.gen();
        if self.shifted {
            // b-heavy: the cycle-closer is half the mix.
            if u < 0.50 {
                self.update("b", 0, 1, &[0], rng)
            } else if u < 0.70 {
                self.update("a", 0, 0, &[1], rng)
            } else if u < 0.80 {
                self.update("c", 1, 2, &[0], rng)
            } else if u < 0.90 {
                self.update("d", 2, 3, &[2, 0], rng)
            } else {
                self.read_only(rng)
            }
        } else if u < 0.45 {
            self.update("a", 0, 0, &[1], rng)
        } else if u < 0.65 {
            self.update("c", 1, 2, &[0], rng)
        } else if u < 0.85 {
            self.update("d", 2, 3, &[2, 0], rng)
        } else {
            self.read_only(rng)
        }
    }
}

/// The identity-segment spec set a linter would see for one phase:
/// the steady mix omits `b`; the shifted mix includes it (closing the
/// `D0 ↔ D1` cycle).
pub fn observed_specs(shifted: bool) -> Vec<AccessSpec> {
    let mut v = vec![
        AccessSpec::new("a", vec![s(0)], vec![s(1)]),
        AccessSpec::new("c", vec![s(2)], vec![s(0)]),
        AccessSpec::new("d", vec![s(3)], vec![s(2), s(0)]),
    ];
    if shifted {
        v.push(AccessSpec::new("b", vec![s(1)], vec![s(0)]));
    }
    v
}

/// The first lint help of a report (the merge suggestion), or "".
fn help(lint: &LintReport) -> String {
    let help = lint.diagnostics.iter().find_map(|d| d.help.clone());
    help.unwrap_or_default()
}

/// Everything E20 measured.
#[derive(Debug, Clone)]
pub struct ShapesOutcome {
    /// Transactions committed across both phases.
    pub committed: usize,
    /// Did a steady-phase call after the first change the advice?
    /// (Must be false.)
    pub steady_drifted: bool,
    /// Advisor quality in the steady phase (the grouping is stale there:
    /// the observed DHG is a TST without merging `{D0,D1}`).
    pub phase_a_quality_milli: u64,
    /// First advisor suggestion in the steady phase (the split).
    pub phase_a_advice: String,
    /// Calls after the mix shift until the advice changed (None = never,
    /// within the sub-batch budget).
    pub detection_calls: Option<u64>,
    /// Advisor quality after the shift (1000: the running grouping IS
    /// the post-shift repair).
    pub post_quality_milli: u64,
    /// Advisor verdict after the shift.
    pub post_optimal: bool,
    /// Online advised partition == offline `repartition_to_tst` of the
    /// post-shift spec DHG.
    pub online_matches_offline: bool,
    /// The online lint's help after the shift.
    pub online_help: String,
    /// The offline linter's help for the post-shift specs.
    pub offline_help: String,
    /// Update shapes the post-shift report linted.
    pub shapes: usize,
    /// Begins the shape table could not store.
    pub overflow: u64,
}

/// Drive the phased run, advising after every sub-batch.
pub fn measure(quick: bool) -> ShapesOutcome {
    let sub_txns = if quick { 400 } else { 4_000 };
    let workers = if quick { 2 } else { 4 };
    let mut w = Phased::new(64);
    let (sched, _store, hierarchy) = build_hdd_with_config(&w, HddConfig::default());
    let obs = &sched.metrics().obs;
    obs.set_enabled(true);
    obs.shapes.set_enabled(true);
    let cfg = ConcurrentConfig {
        workers,
        obs: true,
        verify: false,
        ..ConcurrentConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x0E20_0001);
    let mut committed = 0usize;
    // One sub-batch, then one advisor call against the previous report.
    let mut drive = |w: &mut Phased, prev: Option<&AdvisorReport>| {
        let programs: Vec<_> = (0..sub_txns).map(|_| w.generate(&mut rng)).collect();
        committed += run_concurrent(sched.as_ref(), programs, &cfg)
            .stats
            .committed;
        advise(&hierarchy, &obs.snapshot().shapes, prev)
    };

    // Steady phase: 4 sub-batches. The first call has nothing to
    // compare with; the other three are the negative control.
    let mut phase_a = drive(&mut w, None);
    let mut steady_drifted = false;
    for _ in 1..4 {
        phase_a = drive(&mut w, Some(&phase_a));
        steady_drifted |= phase_a.drifted;
    }

    // Shift: the b-heavy mix. Advise after every sub-batch until the
    // advice changes (budget: 6 calls).
    w.shifted = true;
    let mut detection_calls = None;
    let mut post = phase_a.clone();
    for call in 1..=6u64 {
        post = drive(&mut w, Some(&post));
        if post.drifted {
            detection_calls = Some(call);
            break;
        }
    }

    // Offline ground truth for the post-shift workload.
    let offline_plan = repartition_to_tst(&build_dhg(4, &observed_specs(true)));
    let offline_labels = canonical_labels(
        &offline_plan
            .group_of
            .iter()
            .map(|c| c.index())
            .collect::<Vec<_>>(),
    );
    let offline = lint_specs(4, &observed_specs(true), None, "post-shift phase");

    ShapesOutcome {
        committed,
        steady_drifted,
        phase_a_quality_milli: phase_a.quality_milli,
        phase_a_advice: phase_a
            .suggestions
            .first()
            .map(|a| phase_a.advice_text(a))
            .unwrap_or_default(),
        detection_calls,
        post_quality_milli: post.quality_milli,
        post_optimal: post.hierarchy_is_optimal(),
        online_matches_offline: post.advised_labels == offline_labels,
        online_help: help(&post.lint),
        offline_help: help(&offline),
        shapes: post.shapes,
        overflow: post.overflow,
    }
}

/// The headline table.
pub fn table(o: &ShapesOutcome) -> Table {
    let mut t = Table::new(
        "E20 — observed shapes: online advice is hdd-lint over the admitted shapes",
        &["metric", "value", "expectation"],
    );
    t.row(&[
        "steady-drifted".to_string(),
        o.steady_drifted.to_string(),
        "false".to_string(),
    ]);
    t.row(&[
        "phase-a-advice".to_string(),
        format!("quality {}‰: {}", o.phase_a_quality_milli, o.phase_a_advice),
        "split of {D0,D1}".to_string(),
    ]);
    t.row(&[
        "detection-calls".to_string(),
        o.detection_calls
            .map_or("never".to_string(), |f| f.to_string()),
        "<= 3".to_string(),
    ]);
    t.row(&[
        "post-shift-advice".to_string(),
        format!(
            "quality {}‰, optimal={}",
            o.post_quality_milli, o.post_optimal
        ),
        "optimal (grouping = repair)".to_string(),
    ]);
    t.row(&[
        "online-vs-offline".to_string(),
        o.online_matches_offline.to_string(),
        "true".to_string(),
    ]);
    t.row(&[
        "online-lint-help".to_string(),
        o.online_help.clone(),
        "merge D0+D1".to_string(),
    ]);
    t.row(&[
        "help-matches-offline".to_string(),
        (o.online_help == o.offline_help).to_string(),
        "true".to_string(),
    ]);
    t.row(&[
        "shapes".to_string(),
        format!("{} linted, {} overflowed", o.shapes, o.overflow),
        "4 update shapes, 0".to_string(),
    ]);
    t
}

/// Run E20 and return the headline table.
pub fn run(quick: bool) -> Table {
    table(&measure(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phased_workload_is_legal_and_both_phases_generate_every_shape() {
        let mut w = Phased::new(16);
        let h = w.hierarchy();
        assert_eq!(h.class_count(), 3);
        assert_eq!(h.class_of(s(0)), h.class_of(s(1)), "D0,D1 share a class");
        let mut rng = StdRng::seed_from_u64(7);
        for shifted in [false, true] {
            w.shifted = shifted;
            let mut names = std::collections::BTreeSet::new();
            for _ in 0..300 {
                let p = w.generate(&mut rng);
                h.validate_profile(&p.profile)
                    .expect("every generated profile is hierarchy-legal");
                names.insert(p.label.clone());
            }
            assert_eq!(
                names.contains("b"),
                shifted,
                "the cycle-closer only appears after the shift"
            );
            for required in ["a", "c", "d", "ro"] {
                assert!(names.contains(required), "{required} missing");
            }
        }
    }

    #[test]
    fn offline_ground_truth_merges_d0_d1_only_after_the_shift() {
        let steady = repartition_to_tst(&build_dhg(4, &observed_specs(false)));
        assert!(steady.is_identity(), "steady observed DHG is already a TST");
        let shifted = repartition_to_tst(&build_dhg(4, &observed_specs(true)));
        assert_eq!(shifted.merges, vec![(0, 1)]);
        assert_eq!(shifted.n_classes, 3);
        let lint = lint_specs(4, &observed_specs(true), None, "shifted");
        assert!(!lint.ok(), "the shifted spec set has a directed cycle");
        assert!(help(&lint).contains("merge segments D0+D1"));
    }

    #[test]
    fn quick_run_holds_steady_then_detects_the_shift_as_offline_lint() {
        let o = measure(true);
        assert!(o.committed > 0);
        // Negative control: the steady phase's advice never changes.
        assert!(!o.steady_drifted, "steady phase changed its advice");
        // Steady-phase advice: the observed DHG needs no merge, so the
        // running {D0,D1} grouping is stale — a split suggestion.
        assert!(o.phase_a_quality_milli < 1000);
        assert!(
            o.phase_a_advice.contains("split segments D0 / D1"),
            "{}",
            o.phase_a_advice
        );
        // Detection: bounded latency after the mix shift.
        let calls = o.detection_calls.expect("the shift was never detected");
        assert!(calls <= 3, "detection took {calls} calls");
        // Online advice == offline lint for the post-shift workload.
        assert!(o.post_optimal, "post-shift grouping must be optimal");
        assert_eq!(o.post_quality_milli, 1000);
        assert!(o.online_matches_offline);
        assert!(
            o.online_help.contains("merge segments D0+D1"),
            "{}",
            o.online_help
        );
        assert_eq!(o.online_help, o.offline_help);
        assert_eq!((o.shapes, o.overflow), (4, 0));
        assert_eq!(table(&o).rows.len(), 8);
    }
}
