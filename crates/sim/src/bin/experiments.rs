//! Regenerate every figure of the paper as a measured table.
//!
//! ```text
//! cargo run --release -p sim --bin experiments             # full sizes
//! cargo run --release -p sim --bin experiments -- quick    # CI sizes
//! cargo run --release -p sim --bin experiments -- e14      # E14 only
//!     # (likewise e17, e18, e19, e20; add `quick` for CI sizes)
//! cargo run --release -p sim --bin experiments -- certify-smoke
//!     # a-priori lint of the bundled workloads + offline certification
//!     # of concurrent hdd/mvto logs + a nocontrol anomaly self-check;
//!     # exits 1 on any lint error or certification violation
//! cargo run --release -p sim --bin experiments -- chaos-smoke
//!     # quick E16 chaos soak: injected crashes/stalls/torn logs must
//!     # all certify clean, every corpse reaped, no timestamp reuse
//!     # after recovery; exits 1 on any violation
//! cargo run --release -p sim --bin experiments -- export-smoke
//!     # short obs-enabled run + quick E17; the generated Prometheus
//!     # exposition and Chrome trace must pass the in-repo validators
//!     # and carry staleness summaries; exits 1 on any failure
//! cargo run --release -p sim --bin experiments -- blame-smoke
//!     # flight-recorder gate: an 8-worker traced run must attribute
//!     # ≥95% of measured block time to a cause edge, leak no open
//!     # spans and produce a valid Perfetto trace; exits 1 on any
//!     # violation
//! cargo run --release -p sim --bin experiments -- durability-smoke
//!     # durable-tier gate: a 12-seed disk-fault soak (torn writes,
//!     # lying fsyncs, kill-mid-batch) must recover from on-disk bytes
//!     # alone, certify every stitched log and never violate the
//!     # group-commit ack rule; exits 1 on any violation
//! cargo run --release -p sim --bin experiments -- drift-smoke
//!     # workload-drift gate: the E20 phased run must keep the steady
//!     # (negative-control) phase silent, trip the drift board within
//!     # 3 folds of the mix shift, match the offline hdd-lint repair
//!     # with its online advice, carry a drift-trip Perfetto instant,
//!     # and hold drift-enabled hot-path throughput at ≥90% of the
//!     # obs-only baseline; exits 1 on any violation
//! ```
//!
//! Any other argument prints the valid names and exits 2. Experiments
//! print tables and write no files; throughput numbers come from
//! `benchmark/run.sh` (see `benchmark/README.md`).

use certify::certifier::{attach_trace, certify_log};
use certify::lint::lint_workload;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::experiments::e02_inventory::batch;
use sim::experiments::{e14_obs_profile, e17_gauges, e18_blame, e19_durability, e20_drift};
use sim::factory::{build_scheduler, SchedulerKind};
use sim::report::Table;
use sim::scripts::run_script;
use txn_model::Scheduler;
use workloads::anomalies::{lost_update_script, AnomalyWorkload};
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

/// CI gate for the exporters: a short obs-enabled run over the
/// synthetic workload (it exercises both Protocol A class readers and
/// Protocol C wall readers), whose Prometheus exposition and Chrome
/// trace must pass the in-repo validators and carry the staleness
/// summaries; plus a quick E17 sweep so the per-(reader, segment)
/// tables stay populated. Returns the exit code.
fn export_smoke() -> i32 {
    use obs::{chrome_trace, prometheus_text, validate_chrome_trace, validate_prometheus};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut failed = false;

    // 1. Short live run with the gauge board on.
    let mut w = Synthetic::new(SyntheticConfig::default());
    let mut rng = StdRng::seed_from_u64(0x00F1_7051);
    let programs: Vec<_> = (0..1_500).map(|_| w.generate(&mut rng)).collect();
    let (sched, _store, _hierarchy) =
        sim::factory::build_hdd_with_config(&w, hdd::protocol::HddConfig::default());
    let cfg = ConcurrentConfig {
        workers: 4,
        obs: true,
        verify: false,
        capture_log: false,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    sched.refresh_gauges_now();

    // 2. Prometheus exposition must validate and carry staleness.
    let counters = sched.metrics().snapshot().counter_pairs();
    let prom = prometheus_text(
        &counters,
        &sched.metrics().obs.snapshot(),
        &sched.metrics().obs.gauges.snapshot(),
    );
    match validate_prometheus(&prom) {
        Ok(stats) => {
            println!(
                "export-smoke: prometheus OK — {} families, {} samples",
                stats.families, stats.samples
            );
            if !prom.contains("hdd_read_staleness_ticks") {
                eprintln!("export-smoke: FAIL — no staleness summary in the exposition");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("export-smoke: FAIL — invalid Prometheus exposition: {e}");
            failed = true;
        }
    }

    // 3. Chrome trace must validate and contain events.
    let events = sched.metrics().obs.events.drain();
    let trace = chrome_trace(&events);
    match validate_chrome_trace(&trace) {
        Ok(n) if n > 0 => println!("export-smoke: chrome trace OK — {n} events"),
        Ok(_) => {
            eprintln!("export-smoke: FAIL — chrome trace is empty");
            failed = true;
        }
        Err(e) => {
            eprintln!("export-smoke: FAIL — invalid chrome trace: {e}");
            failed = true;
        }
    }
    if out.stats.committed == 0 {
        eprintln!("export-smoke: FAIL — the live run committed nothing");
        failed = true;
    }

    // 4. Quick E17: the staleness tables must have class and wall rows.
    let table = sim::experiments::e17_gauges::run(true);
    print!("{table}");
    let readers: Vec<&str> = table
        .rows
        .iter()
        .map(|r| r[2].as_str()) // "reader" column
        .collect();
    if !readers.iter().any(|r| r.starts_with('c')) {
        eprintln!("export-smoke: FAIL — E17 recorded no Protocol A staleness rows");
        failed = true;
    }
    if !readers.contains(&"wall") {
        eprintln!("export-smoke: FAIL — E17 recorded no Protocol C (wall) staleness rows");
        failed = true;
    }

    if failed {
        eprintln!("export-smoke: FAIL");
        1
    } else {
        println!("export-smoke: OK");
        0
    }
}

/// CI gate for the certify crate: lint every bundled workload, certify
/// concurrent hdd (with the partition-synchronization rule and the obs
/// trace joined in) and mvto logs, and self-check that the certifier
/// still catches and shrinks a no-control anomaly. Returns the exit
/// code.
fn certify_smoke() -> i32 {
    let mut failed = false;

    // 1. A-priori lint of the bundled decompositions.
    for report in [
        lint_workload(&Inventory::new(InventoryConfig::default())),
        lint_workload(&Banking::new(16)),
        lint_workload(&Synthetic::new(SyntheticConfig::default())),
        lint_workload(&AnomalyWorkload),
    ] {
        print!("{}", report.render());
        if !report.ok() {
            failed = true;
        }
    }

    // 2. Certify real concurrent logs: hdd under the full
    //    partition-synchronization rule (obs tracing on, joined into any
    //    violation report), mvto under plain acyclicity.
    for kind in [SchedulerKind::Hdd, SchedulerKind::Mvto] {
        let (w, programs) = batch(2_000, 0x5A7E_0CE5);
        let (sched, _store) = build_scheduler(kind, &w);
        let cfg = ConcurrentConfig {
            workers: 4,
            verify: false,
            obs: kind == SchedulerKind::Hdd,
            ..ConcurrentConfig::default()
        };
        let stats = run_concurrent(sched.as_ref(), programs, &cfg);
        let hierarchy = (kind == SchedulerKind::Hdd).then(|| w.hierarchy());
        let mut cert = certify_log(kind.name(), sched.log(), hierarchy.as_ref());
        if kind == SchedulerKind::Hdd {
            attach_trace(&mut cert, &sched.metrics().obs.events.drain());
        }
        print!("{}", cert.render());
        if !cert.ok() {
            failed = true;
        }
        let _ = stats;
    }

    // 3. Self-check: the certifier must still catch the no-control lost
    //    update and shrink it to single digits.
    {
        let script = lost_update_script();
        let (sched, store) = build_scheduler(SchedulerKind::NoControl, &AnomalyWorkload);
        for (g, v) in &script.setup {
            store.seed(*g, v.clone());
        }
        let _ = run_script(sched.as_ref(), &script);
        let cert = certify_log("nocontrol", sched.log(), None);
        match &cert.counterexample {
            Some(cx) if cx.events.len() <= 10 => {
                println!(
                    "certify-smoke: self-check OK — nocontrol lost update caught, \
                     counterexample shrunk {} → {} events (rule: {})",
                    cx.original_events,
                    cx.events.len(),
                    cx.rule.name(),
                );
            }
            Some(cx) => {
                eprintln!(
                    "certify-smoke: FAIL — counterexample did not shrink \
                     (still {} events)",
                    cx.events.len()
                );
                failed = true;
            }
            None => {
                eprintln!("certify-smoke: FAIL — certifier missed the no-control lost update");
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("certify-smoke: FAIL");
        1
    } else {
        println!("certify-smoke: OK");
        0
    }
}

/// CI gate for fault runs: run the E16 soak at quick sizes and
/// enforce its claims — every surviving and recovered log certifies
/// clean, every crashed corpse is reaped by the watchdog, torn WAL
/// tails are truncated (not replayed), and recovery never reuses a
/// pre-crash timestamp. Returns the exit code.
fn chaos_smoke() -> i32 {
    let table = sim::experiments::e16_chaos::run(true);
    print!("{table}");
    let cell = |row: &str, col: &str| table.cell(row, col).map(String::from);
    let num = |row: &str, col: &str| -> u64 {
        cell(row, col)
            .and_then(|s| s.parse().ok())
            .unwrap_or(u64::MAX)
    };
    let seeds = num("soak", "seeds");
    let mut failed = false;
    if num("soak", "certified-ok") != seeds {
        eprintln!("chaos-smoke: FAIL — a surviving log did not certify");
        failed = true;
    }
    if num("recovery", "certified-ok") != seeds {
        eprintln!("chaos-smoke: FAIL — a recovered log did not certify");
        failed = true;
    }
    if num("recovery", "ts-collisions") != 0 {
        eprintln!("chaos-smoke: FAIL — recovery reused a pre-crash timestamp");
        failed = true;
    }
    if num("soak", "watchdog-reaps") < num("soak", "crashed") {
        eprintln!("chaos-smoke: FAIL — a crashed transaction was never reaped");
        failed = true;
    }
    if num("soak", "crashed") == 0 || num("recovery", "torn-tails") == 0 {
        eprintln!("chaos-smoke: FAIL — the fault mix injected nothing");
        failed = true;
    }
    if failed {
        1
    } else {
        println!("chaos-smoke: OK");
        0
    }
}

/// CI gate for the flight recorder: one 8-worker traced run over the
/// inventory batch whose blame report must attribute ≥95% of measured
/// block time to a cause edge with zero open spans and a Perfetto
/// export that passes the in-repo validator. Returns the exit code.
fn blame_smoke() -> i32 {
    use obs::{assemble, flight_chrome_trace, validate_chrome_trace, BlameReport, PhaseBreakdown};

    let mut failed = false;

    // Traced run: attribution coverage, span hygiene, exporter.
    let (w, programs) = batch(8_000, 0x00F1_B1A3);
    let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
    let cfg = ConcurrentConfig {
        workers: 8,
        obs: true,
        flight_sample: 4,
        verify: false,
        capture_log: false,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    let log = assemble(&sched.metrics().obs.events.drain());
    let blame = BlameReport::build(&log);
    print!("{}", blame.render_top(5));
    println!(
        "blame-smoke: phases — {}",
        PhaseBreakdown::of_commits(&log).render()
    );
    if out.stats.committed == 0 {
        eprintln!("blame-smoke: FAIL — the traced run committed nothing");
        failed = true;
    }
    if log.open > 0 {
        eprintln!("blame-smoke: FAIL — {} flights never terminated", log.open);
        failed = true;
    }
    if log.flights.is_empty() {
        eprintln!("blame-smoke: FAIL — the 1-in-4 stride sampled no flights");
        failed = true;
    }
    if blame.coverage() < 0.95 {
        eprintln!(
            "blame-smoke: FAIL — only {:.1}% of measured block time carries a cause edge \
             (floor 95%)",
            blame.coverage() * 100.0
        );
        failed = true;
    }
    let trace = flight_chrome_trace(&log);
    match validate_chrome_trace(&trace) {
        Ok(n) if n > 0 => println!("blame-smoke: perfetto trace OK — {n} events"),
        Ok(_) => {
            eprintln!("blame-smoke: FAIL — perfetto trace is empty");
            failed = true;
        }
        Err(e) => {
            eprintln!("blame-smoke: FAIL — invalid perfetto trace: {e}");
            failed = true;
        }
    }

    if failed {
        eprintln!("blame-smoke: FAIL");
        1
    } else {
        println!("blame-smoke: OK");
        0
    }
}

/// CI gate for the durable tier: the disk-fault soak at CI sizes. The
/// soak's claims — recovery from on-disk bytes alone, stitched
/// certification, no timestamp reuse, no acked-commit missing from disk
/// (outside lying-fsync seeds) — are enforced. Returns the exit code.
fn durability_smoke() -> i32 {
    let mut failed = false;

    // Disk-fault soak: 12 seeds of journaled chaos, process death,
    // recovery from the torn WAL + file-backend segments.
    let tally = sim::experiments::e19_durability::soak(12, 30);
    println!(
        "durability-smoke: soak — {} seeds, {} durable commits, {} disk crashes, \
         {} torn tails, {} lied losses, {} wal-lost",
        tally.seeds,
        tally.committed,
        tally.disk_crashes,
        tally.torn_tails,
        tally.lied_losses,
        tally.wal_lost
    );
    if tally.recovered_certified != tally.seeds {
        eprintln!(
            "durability-smoke: FAIL — {}/{} stitched post-recovery logs certified",
            tally.recovered_certified, tally.seeds
        );
        failed = true;
    }
    if tally.ts_collisions != 0 {
        eprintln!("durability-smoke: FAIL — recovery reused a pre-crash timestamp");
        failed = true;
    }
    if tally.ack_violations != 0 {
        eprintln!(
            "durability-smoke: FAIL — {} acked commits missing from disk (ack rule)",
            tally.ack_violations
        );
        failed = true;
    }
    if tally.disk_crashes == 0 || tally.committed == 0 {
        eprintln!("durability-smoke: FAIL — the fault schedules injected nothing");
        failed = true;
    }

    if failed {
        eprintln!("durability-smoke: FAIL");
        1
    } else {
        println!("durability-smoke: OK");
        0
    }
}

/// CI gate for the drift observatory: the E20 phased run at CI sizes.
/// The negative control (steady mix) must never trip the board, the
/// mid-run shift to the cycle-closing mix must trip it within 3 folds,
/// the online advisor's repartition must equal the offline
/// `hdd-lint`/`repartition_to_tst` repair for the post-shift spec set
/// (and report the running grouping optimal), the trip must surface as
/// a Perfetto instant, and drift-enabled steady-state throughput must
/// hold ≥90% of the obs-only baseline. Returns the exit code.
fn drift_smoke() -> i32 {
    let o = sim::experiments::e20_drift::measure(true);
    print!("{}", sim::experiments::e20_drift::table(&o));
    let mut failed = false;
    if o.steady_tripped || o.steady_max_score_milli >= o.threshold_milli {
        eprintln!(
            "drift-smoke: FAIL — the steady negative control tripped \
             (max score {}‰, threshold {}‰)",
            o.steady_max_score_milli, o.threshold_milli
        );
        failed = true;
    }
    match o.detection_folds {
        Some(folds) if folds <= 3 => {
            println!("drift-smoke: shift detected after {folds} fold(s)");
        }
        Some(folds) => {
            eprintln!("drift-smoke: FAIL — detection took {folds} folds (budget 3)");
            failed = true;
        }
        None => {
            eprintln!("drift-smoke: FAIL — the mix shift was never detected");
            failed = true;
        }
    }
    if !o.online_matches_offline || !o.post_optimal {
        eprintln!(
            "drift-smoke: FAIL — online advice diverged from the offline lint \
             (matches={}, optimal={})",
            o.online_matches_offline, o.post_optimal
        );
        failed = true;
    }
    if !o.offline_merge_help.contains("merge segments D0+D1") {
        eprintln!(
            "drift-smoke: FAIL — offline lint lost the D0+D1 repair: {:?}",
            o.offline_merge_help
        );
        failed = true;
    }
    if !o.trace_has_trip_instant {
        eprintln!("drift-smoke: FAIL — no drift-trip instant in the trace ring");
        failed = true;
    }
    if o.overhead_ratio < 0.9 {
        eprintln!(
            "drift-smoke: FAIL — drift-enabled throughput is {:.1}% of the \
             obs-only baseline (floor 90%)",
            o.overhead_ratio * 100.0
        );
        failed = true;
    } else {
        println!(
            "drift-smoke: overhead OK — {:.1} vs {:.1} commits/sec (ratio {:.3})",
            o.obs_drift_cps, o.obs_only_cps, o.overhead_ratio
        );
    }
    if failed {
        eprintln!("drift-smoke: FAIL");
        1
    } else {
        println!("drift-smoke: OK");
        0
    }
}

/// Print an experiment's table; experiments themselves never fail.
fn show(table: Table) -> i32 {
    println!("{table}");
    0
}

/// Every table of the suite, E1–E20.
fn suite(quick: bool) -> i32 {
    println!(
        "Hierarchical Database Decomposition (Hsu 1982/83) — experiment suite ({} mode)",
        if quick { "quick" } else { "full" }
    );
    for table in sim::experiments::run_all(quick) {
        println!("{table}");
    }
    0
}

/// What an argument runs; returns the process exit code.
type Command = fn(quick: bool) -> i32;

/// Every accepted argument and what it runs. `quick` alone runs the
/// suite at CI sizes; next to an experiment name it shrinks that
/// experiment. The smokes have one size.
const COMMANDS: &[(&str, Command)] = &[
    ("quick", suite),
    ("e14", |q| show(e14_obs_profile::run(q))),
    ("e17", |q| show(e17_gauges::run(q))),
    ("e18", |q| show(e18_blame::run(q))),
    ("e19", |q| show(e19_durability::run(q))),
    ("e20", |q| show(e20_drift::run(q))),
    ("export-smoke", |_| export_smoke()),
    ("certify-smoke", |_| certify_smoke()),
    ("chaos-smoke", |_| chaos_smoke()),
    ("blame-smoke", |_| blame_smoke()),
    ("durability-smoke", |_| durability_smoke()),
    ("drift-smoke", |_| drift_smoke()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = |name: &str| COMMANDS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
    if let Some(unknown) = args.iter().find(|a| command(a).is_none()) {
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "experiments: unknown argument `{unknown}`; valid arguments: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "quick");
    let run = args
        .iter()
        .find(|a| *a != "quick")
        .and_then(|a| command(a))
        .unwrap_or(suite);
    std::process::exit(run(quick));
}
