//! **E20 — workload drift observatory: detection latency and online
//! advice vs offline lint** (no paper figure; ours).
//!
//! The paper's decomposition is chosen *a-priori* from declared
//! transaction shapes (Section 3); Section 7.1.1 only sketches dynamic
//! restructuring. This experiment closes the loop empirically: a
//! four-segment workload whose grouped hierarchy `T0={D0,D1}`,
//! `T1={D2}`, `T2={D3}` is driven through HDD with the drift sketch
//! ([`obs::DriftBoard`]) enabled, and mid-run the class/segment mix
//! shifts — the cycle-closing `b` shape (writes `D1`, reads `D0`)
//! goes from absent to dominant. We measure:
//!
//! 1. **Detection latency**: folds from the shift until the drift
//!    score trips its threshold (bounded; quick CI asserts ≤ 3).
//! 2. **Online = offline**: after the shift, the advisor's suggested
//!    repartition over the *observed* co-access DHG must equal the
//!    offline `repartition_to_tst` / `hdd-lint` repair for the
//!    post-shift spec set (merge `D0+D1` — which is exactly the
//!    grouping the hierarchy already runs, so the advisor reports
//!    *optimal*); before the shift the same machinery suggests the
//!    *split* of `{D0,D1}`.
//! 3. **Negative control**: the steady phase never trips.
//! 4. **Overhead**: hot-path throughput with the sketch enabled next to
//!    the obs-only baseline — report-only: an in-process ratio of two
//!    short runs is not a measurement, and the benchmark's obs leg runs
//!    with the sketch off, so this row is the only drift-cost readout.
//!
//! ```text
//! cargo run --release -p sim --bin experiments -- e20
//! ```

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::factory::build_hdd_with_config;
use crate::report::{f2, Table};
use certify::{advise, canonical_labels, lint_specs, DEFAULT_MIN_EDGE};
use hdd::analysis::{build_dhg, AccessSpec, Hierarchy};
use hdd::decompose::repartition_to_tst;
use hdd::protocol::HddConfig;
use mvstore::StorageBackend;
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
///   Protocol A cross-reads feeding the access sketch).
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

    fn seed(&self, store: &dyn StorageBackend) {
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

/// Everything E20 measured.
#[derive(Debug, Clone)]
pub struct DriftOutcome {
    /// Transactions committed across both phases (main leg).
    pub committed: usize,
    /// Highest combined drift score over the steady post-seed folds.
    pub steady_max_score_milli: u64,
    /// Did the negative control trip? (Must be false.)
    pub steady_tripped: bool,
    /// Advisor quality for the steady phase (grouping is stale there:
    /// the observed DHG is a TST without merging `{D0,D1}`).
    pub phase_a_quality_milli: u64,
    /// First advisor suggestion in the steady phase (the split).
    pub phase_a_advice: String,
    /// Folds from the mix shift until the board tripped (None = never,
    /// within the sub-batch budget).
    pub detection_folds: Option<u64>,
    /// Combined score at (or after) the trip.
    pub trip_score_milli: u64,
    /// Threshold in force.
    pub threshold_milli: u64,
    /// Advisor quality after the shift (1000: the running grouping IS
    /// the post-shift repair).
    pub post_quality_milli: u64,
    /// Advisor verdict after the shift.
    pub post_optimal: bool,
    /// Online advised partition == offline `repartition_to_tst` of the
    /// post-shift spec DHG.
    pub online_matches_offline: bool,
    /// The offline linter's repair text for the post-shift specs.
    pub offline_merge_help: String,
    /// Did the trace ring carry a `drift-trip` instant (the Perfetto
    /// marker)?
    pub trace_has_trip_instant: bool,
    /// Steady-mix throughput, obs on + drift off.
    pub obs_only_cps: f64,
    /// Steady-mix throughput, obs on + drift on.
    pub obs_drift_cps: f64,
    /// `obs_drift_cps / obs_only_cps` (report-only).
    pub overhead_ratio: f64,
}

/// Drive the phased run and both overhead legs.
pub fn measure(quick: bool) -> DriftOutcome {
    let sub_txns = if quick { 400 } else { 4_000 };
    let workers = if quick { 2 } else { 4 };
    let mut w = Phased::new(64);
    // drift_interval 0: folds happen only at our phase boundaries, so
    // detection latency is deterministic in folds, not racy in ticks.
    let (sched, _store, hierarchy) = build_hdd_with_config(
        &w,
        HddConfig {
            drift_interval: 0,
            ..HddConfig::default()
        },
    );
    let obs = &sched.metrics().obs;
    obs.set_enabled(true);
    obs.drift.set_enabled(true);
    let cfg = ConcurrentConfig {
        workers,
        obs: true,
        verify: false,
        ..ConcurrentConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x0E20_0001);
    let mut committed = 0usize;

    // Steady phase: 4 sub-batches. The first fold seeds the EWMA
    // baselines; the remaining three are the negative control.
    let mut steady_max_score = 0u64;
    for sub in 0..4 {
        let programs: Vec<_> = (0..sub_txns).map(|_| w.generate(&mut rng)).collect();
        committed += run_concurrent(sched.as_ref(), programs, &cfg)
            .stats
            .committed;
        sched.refresh_gauges_now();
        sched.refresh_drift_now();
        if sub > 0 {
            steady_max_score = steady_max_score.max(obs.drift.score_milli());
        }
    }
    let steady_tripped = obs.drift.tripped();
    let phase_a = advise(&hierarchy, &obs.drift.snapshot(), DEFAULT_MIN_EDGE);

    // Shift: the b-heavy mix. Fold after every sub-batch until the
    // board trips (budget: 6 folds).
    w.shifted = true;
    let mut detection_folds = None;
    for sub in 0..6u64 {
        let programs: Vec<_> = (0..sub_txns).map(|_| w.generate(&mut rng)).collect();
        committed += run_concurrent(sched.as_ref(), programs, &cfg)
            .stats
            .committed;
        sched.refresh_gauges_now();
        sched.refresh_drift_now();
        if obs.drift.tripped() {
            detection_folds = Some(sub + 1);
            break;
        }
    }
    let post_snap = obs.drift.snapshot();
    let post = advise(&hierarchy, &post_snap, DEFAULT_MIN_EDGE);

    // Offline ground truth for the post-shift workload.
    let offline_plan = repartition_to_tst(&build_dhg(4, &observed_specs(true)));
    let offline_labels = canonical_labels(
        &offline_plan
            .group_of
            .iter()
            .map(|c| c.index())
            .collect::<Vec<_>>(),
    );
    let lint = lint_specs(4, &observed_specs(true), None, "post-shift phase");
    let offline_merge_help = lint
        .diagnostics
        .iter()
        .find_map(|d| d.help.clone())
        .unwrap_or_default();

    let trace_has_trip_instant = obs
        .events
        .drain()
        .iter()
        .any(|(_, e)| matches!(e.decision(), Some(obs::TraceEvent::DriftTrip { .. })));

    // Overhead legs: same steady mix, fresh schedulers, obs on in both;
    // the sketch's own switch is the only difference. Best-of-3 per leg
    // so scheduler jitter doesn't dominate the single-digit-percent cost
    // being shown.
    let over_txns = if quick { 1_500 } else { 12_000 };
    let leg = |drift_on: bool, seed: u64| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..3 {
            let mut w = Phased::new(64);
            let mut rng = StdRng::seed_from_u64(seed);
            let programs: Vec<_> = (0..over_txns).map(|_| w.generate(&mut rng)).collect();
            let (sched, _store, _h) = build_hdd_with_config(&w, HddConfig::default());
            sched.metrics().obs.set_enabled(true);
            sched.metrics().obs.drift.set_enabled(drift_on);
            best = best.max(run_concurrent(sched.as_ref(), programs, &cfg).throughput);
        }
        best
    };
    let obs_only_cps = leg(false, 0x0E20_00FF);
    let obs_drift_cps = leg(true, 0x0E20_00FF);

    DriftOutcome {
        committed,
        steady_max_score_milli: steady_max_score,
        steady_tripped,
        phase_a_quality_milli: phase_a.quality_milli,
        phase_a_advice: phase_a
            .suggestions
            .first()
            .map(|a| phase_a.advice_text(a))
            .unwrap_or_default(),
        detection_folds,
        trip_score_milli: post_snap.score_milli,
        threshold_milli: post_snap.threshold_milli,
        post_quality_milli: post.quality_milli,
        post_optimal: post.hierarchy_is_optimal(),
        online_matches_offline: post.advised_labels == offline_labels,
        offline_merge_help,
        trace_has_trip_instant,
        obs_only_cps,
        obs_drift_cps,
        overhead_ratio: if obs_only_cps > 0.0 {
            obs_drift_cps / obs_only_cps
        } else {
            0.0
        },
    }
}

/// The headline table.
pub fn table(o: &DriftOutcome) -> Table {
    let mut t = Table::new(
        "E20 — workload drift: detection latency, online vs offline advice, overhead",
        &["metric", "value", "expectation"],
    );
    t.row(&[
        "steady-max-score".to_string(),
        format!("{}‰", o.steady_max_score_milli),
        format!("< {}‰ (no trip)", o.threshold_milli),
    ]);
    t.row(&[
        "steady-tripped".to_string(),
        o.steady_tripped.to_string(),
        "false".to_string(),
    ]);
    t.row(&[
        "phase-a-advice".to_string(),
        format!("quality {}‰: {}", o.phase_a_quality_milli, o.phase_a_advice),
        "split of {D0,D1}".to_string(),
    ]);
    t.row(&[
        "detection-folds".to_string(),
        o.detection_folds
            .map_or("never".to_string(), |f| f.to_string()),
        "<= 3".to_string(),
    ]);
    t.row(&[
        "trip-score".to_string(),
        format!("{}‰ / {}‰", o.trip_score_milli, o.threshold_milli),
        "over threshold".to_string(),
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
        "offline-merge-help".to_string(),
        o.offline_merge_help.clone(),
        "merge D0+D1".to_string(),
    ]);
    t.row(&[
        "trip-instant".to_string(),
        o.trace_has_trip_instant.to_string(),
        "in Perfetto trace".to_string(),
    ]);
    t.row(&[
        "overhead".to_string(),
        format!(
            "{} vs {} c/s (ratio {})",
            f2(o.obs_drift_cps),
            f2(o.obs_only_cps),
            f2(o.overhead_ratio)
        ),
        "report-only".to_string(),
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
        let help = lint
            .diagnostics
            .iter()
            .find_map(|d| d.help.as_deref())
            .unwrap();
        assert!(help.contains("merge segments D0+D1"), "{help}");
    }

    #[test]
    fn quick_run_detects_the_shift_and_matches_offline_advice() {
        let o = measure(true);
        assert!(o.committed > 0);
        // Negative control: the steady phase must stay silent.
        assert!(!o.steady_tripped, "steady phase tripped the board");
        assert!(
            o.steady_max_score_milli < o.threshold_milli,
            "steady score {}‰ reached the {}‰ threshold",
            o.steady_max_score_milli,
            o.threshold_milli
        );
        // Steady-phase advice: the observed DHG needs no merge, so the
        // running {D0,D1} grouping is stale — a split suggestion.
        assert!(o.phase_a_quality_milli < 1000);
        assert!(
            o.phase_a_advice.contains("split segments D0 / D1"),
            "{}",
            o.phase_a_advice
        );
        // Detection: bounded latency after the mix shift.
        let folds = o.detection_folds.expect("the shift was never detected");
        assert!(folds <= 3, "detection took {folds} folds");
        assert!(o.trip_score_milli >= o.threshold_milli);
        assert!(o.trace_has_trip_instant, "no drift-trip trace instant");
        // Online advice == offline lint for the post-shift workload.
        assert!(o.post_optimal, "post-shift grouping must be optimal");
        assert_eq!(o.post_quality_milli, 1000);
        assert!(o.online_matches_offline);
        assert!(
            o.offline_merge_help.contains("merge segments D0+D1"),
            "{}",
            o.offline_merge_help
        );
        // Overhead legs ran; their ratio is report-only (no clock gates
        // a test).
        assert!(o.obs_only_cps > 0.0 && o.obs_drift_cps > 0.0);
        let t = table(&o);
        assert_eq!(t.rows.len(), 10);
    }
}
