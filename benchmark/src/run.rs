//! One run of one workload: the legs, the correctness gates, and the
//! metrics they yield. `--trace 0` is [`timed_run`] (end-to-end metrics,
//! tracing off); `--trace 1` is [`traced_run`] (per-layer metrics).

use crate::load::{client_count, run_leg, run_once, Leg, LegSpec};
use crate::probes::{self, Probed};
use crate::setup::{set_up, Instance, OutDir};
use crate::spans::{chrome_trace, Kind, SpanReport, Spans};
use crate::spec::{WorkloadId, POOL_SIZE};
use crate::stats::{ratio, Summary};
use sim::factory::SchedulerKind;
use std::time::Duration;
use txn_model::TxnProgram;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadId,
    /// The scheduler (`hdd` unless `--scheduler` says otherwise).
    pub kind: SchedulerKind,
    /// Seed of the program pool.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// 1 s-class legs, small pool, small check: exercises every leg and
    /// gate quickly; its numbers mean nothing.
    pub smoke: bool,
    /// Where WAL files and traces go.
    pub out: OutDir,
}

/// Leg lengths of one run, recorded next to its numbers.
#[derive(Debug, Clone, Copy)]
pub struct LegLengths {
    /// Times the full set-up ran (`setup_s` is their median).
    pub setup_reps: usize,
    /// Programs in the pool.
    pub pool: usize,
    /// Warm-up seconds before the timed leg.
    pub warm_s: f64,
    /// Warm-up seconds before each leg of a traced run.
    pub trace_warm_s: f64,
    /// Measured seconds of the timed leg (`--trace 0`).
    pub timed_s: f64,
    /// Measured seconds of the untraced reference leg (`--trace 1`).
    pub reference_s: f64,
    /// Measured seconds of the traced leg.
    pub traced_s: f64,
    /// Measured seconds of the obs-on leg.
    pub obs_s: f64,
    /// Programs the check leg runs once each.
    pub check_programs: usize,
}

impl RunConfig {
    /// The leg lengths this configuration implies. A traced run splits
    /// its `seconds` 30 / 40 / 30 between the reference, traced and obs
    /// legs, so it measures for as long as a timed run does.
    pub fn lengths(&self) -> LegLengths {
        let check_programs = if self.smoke || self.workload.durable() {
            // The durable check leg is WAL-bound (~900 commits/s at a
            // 2 ms linger): 20 000 programs would take 20 s.
            2_000
        } else {
            20_000
        };
        LegLengths {
            // Seven, so that the quartiles printed beside `setup_s` leave
            // out the first set-up of the process, which pays the page
            // faults.
            setup_reps: if self.smoke { 1 } else { 7 },
            pool: if self.smoke { 20_000 } else { POOL_SIZE },
            warm_s: if self.smoke { 0.2 } else { 3.0 },
            trace_warm_s: if self.smoke { 0.2 } else { 2.0 },
            timed_s: self.seconds,
            reference_s: self.seconds * 0.3,
            traced_s: self.seconds * 0.4,
            obs_s: self.seconds * 0.3,
            check_programs,
        }
    }

    fn hdd(&self) -> bool {
        self.kind == SchedulerKind::Hdd
    }
}

/// What a run hands back: `Err` carries the correctness-gate failures.
pub type RunResult<T> = Result<T, Vec<String>>;

fn io_failure(what: &str, e: std::io::Error) -> Vec<String> {
    vec![format!("{what}: {e}")]
}

/// A WAL image replayed, and the share of the transactions it should
/// hold that came back.
struct Replay {
    recovered: probes::Recovered,
    share: f64,
}

/// The gates every leg's final state must pass: conservation where the
/// workload has it, and on the durable workload recovery from the WAL
/// file's bytes alone — every transaction id a client saw acknowledged
/// must come back, with no torn tail. Returns the replay (durable only).
fn gate_leg(
    cfg: &RunConfig,
    leg_name: &str,
    inst: &Instance,
    leg: &Leg,
    failures: &mut Vec<String>,
) -> Option<Replay> {
    if cfg.workload.conserves() {
        let committed: u64 = leg.clients.iter().map(|c| c.committed_updates).sum();
        let sum = probes::sum_latest_ints(&inst.store);
        if sum != committed as i64 {
            failures.push(format!(
                "{leg_name}: conservation broken: {committed} update programs committed, store sums to {sum}"
            ));
        }
    }
    let wal = inst.wal.as_ref()?;
    let bytes = std::fs::read(wal.path());
    // Leave nothing behind but the trace files.
    let _ = std::fs::remove_file(wal.path());
    let bytes = match bytes {
        Ok(b) => b,
        Err(e) => {
            failures.push(format!("{leg_name}: reading the WAL back: {e}"));
            return None;
        }
    };
    let recovered = probes::recover_from_bytes(cfg.workload, &bytes);
    failures.extend(
        recovered
            .problems
            .iter()
            .map(|p| format!("{leg_name}: recovery: {p}")),
    );
    let acked = leg.clients.iter().flat_map(|c| &c.acked);
    let (found, lost): (Vec<u64>, Vec<u64>) = acked.partition(|t| recovered.committed.contains(t));
    if !lost.is_empty() {
        failures.push(format!(
            "{leg_name}: {} acknowledged transaction(s) missing after recovery",
            lost.len()
        ));
    }
    let share = ratio(found.len() as f64, (found.len() + lost.len()) as f64);
    Some(Replay { recovered, share })
}

/// What the check leg measured besides passing.
struct Checked {
    certify_ns_per_event: f64,
    recovery_ns_per_frame: f64,
    recovered_share: f64,
    codec: Probed,
}

/// The check leg: a fresh scheduler with the schedule log on runs the
/// first programs of the pool once each; the drained log must certify
/// (acyclic MVSG, no dirty reads, partition-synchronization rule), and
/// the leg's final state must pass [`gate_leg`].
fn check_leg(
    cfg: &RunConfig,
    pool: &[TxnProgram],
    failures: &mut Vec<String>,
) -> std::io::Result<Checked> {
    let inst = Instance::build(cfg.workload, cfg.kind, &cfg.out.wal(cfg.workload, "check"))?;
    inst.set_logging(true);
    let leg = run_once(&inst, pool, cfg.lengths().check_programs);
    if leg.failed() > 0 {
        failures.push(format!("check: {} program(s) failed", leg.failed()));
    }
    let events = inst.scheduler.log().events();
    let hierarchy = cfg.hdd().then(|| probes::hierarchy(cfg.workload));
    let cert = probes::certify_log(cfg.kind.name(), &events, hierarchy.as_ref());
    failures.extend(
        cert.violations
            .iter()
            .map(|v| format!("check: certify: {v}")),
    );

    // The in-memory workloads have no WAL file; they replay an image of
    // the log's own redo events, and every committed writer must be redone.
    let replay = gate_leg(cfg, "check", &inst, &leg, failures).unwrap_or_else(|| {
        let recovered = probes::recover_from_bytes(cfg.workload, &probes::wal_image(&events));
        failures.extend(
            recovered
                .problems
                .iter()
                .map(|p| format!("check: recovery: {p}")),
        );
        let share = recovered.redone_share;
        Replay { recovered, share }
    });
    let mut codec = Probed::new();
    probes::probe_wal_codec(&events, &mut codec);
    Ok(Checked {
        certify_ns_per_event: ratio(cert.ns, cert.events as f64),
        recovery_ns_per_frame: ratio(replay.recovered.ns, replay.recovered.frames as f64),
        recovered_share: replay.share,
        codec,
    })
}

/// The result line's counts.
#[derive(Debug, Clone, Copy)]
pub struct Attempts {
    /// Programs claimed in the measured leg(s).
    pub attempted: u64,
    /// Programs that exhausted their restart budget.
    pub failed: u64,
}

/// A timed run's results.
#[derive(Debug)]
pub struct Timed {
    /// `(name, summary)` per end-to-end metric, in `spec::END_TO_END`
    /// order.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Counts for the result line.
    pub attempts: Attempts,
}

fn spec_of(warm_s: f64, measure_s: f64, trace: bool) -> LegSpec {
    LegSpec {
        warm: Duration::from_secs_f64(warm_s),
        measure: Duration::from_secs_f64(measure_s),
        trace,
    }
}

/// `--trace 0`: set up, warm up, measure with tracing, schedule log and
/// `obs` all off, run the gates — then set up several times more, so
/// `setup_s` is a median. The timed leg runs on the *first* set-up, in
/// the heap of a fresh process: a store built in memory recycled from an
/// earlier one has another layout, and on `deeptree` another speed.
pub fn timed_run(cfg: &RunConfig) -> RunResult<Timed> {
    let len = cfg.lengths();
    let wal_path = cfg.out.wal(cfg.workload, "timed");
    let timed_set_up = || {
        set_up(cfg.workload, cfg.kind, cfg.seed, len.pool, &wal_path)
            .map_err(|e| io_failure("set-up", e))
    };
    let setup = timed_set_up()?;
    let mut setup_s = vec![setup.total_s];
    setup.instance.set_logging(false);
    let leg = run_leg(
        &setup.instance,
        &setup.pool,
        spec_of(len.warm_s, len.timed_s, false),
    );

    let mut failures = Vec::new();
    gate_leg(cfg, "timed", &setup.instance, &leg, &mut failures);
    drop(setup.instance);
    check_leg(cfg, &setup.pool, &mut failures).map_err(|e| io_failure("check leg", e))?;
    if !failures.is_empty() {
        return Err(failures);
    }
    drop(setup.pool);
    for _ in 1..len.setup_reps {
        setup_s.push(timed_set_up()?.total_s);
    }

    let e2e = leg.end_to_end();
    Ok(Timed {
        metrics: vec![
            ("commits_per_s", e2e.commits_per_s),
            ("txn_p50_us", e2e.txn_p50_us),
            ("txn_p99_us", e2e.txn_p99_us),
            ("ro_mean_us", e2e.ro_mean_us),
            ("setup_s", Summary::of(&setup_s)),
        ],
        attempts: Attempts {
            attempted: leg.claimed(),
            failed: leg.failed(),
        },
    })
}

/// A traced run's results.
#[derive(Debug)]
pub struct Traced {
    /// `(name, value)` per per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Counts for the result line (all three measured legs).
    pub attempts: Attempts,
    /// Where the Chrome trace was written.
    pub trace_file: std::path::PathBuf,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 1`: an untraced reference leg, a traced leg with an
/// `Instant` pair around every call into a layer, an `obs`-on leg, the
/// check leg and the probes — each leg on a fresh scheduler and store.
pub fn traced_run(cfg: &RunConfig) -> RunResult<Traced> {
    let len = cfg.lengths();
    let fresh = |leg: &str| {
        Instance::build(cfg.workload, cfg.kind, &cfg.out.wal(cfg.workload, leg))
            .map_err(|e| io_failure("building a scheduler", e))
    };
    let mut failures = Vec::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    let setup = set_up(
        cfg.workload,
        cfg.kind,
        cfg.seed,
        len.pool,
        &cfg.out.wal(cfg.workload, "reference"),
    )
    .map_err(|e| io_failure("set-up", e))?;
    let pool = setup.pool;
    m.push((
        "setup.generate_ns_per_program",
        ratio(setup.generate_s * 1e9, pool.len() as f64),
    ));

    // Reference: what the timed leg measures, in this process.
    let inst = setup.instance;
    inst.set_logging(false);
    let reference = run_leg(
        &inst,
        &pool,
        spec_of(len.trace_warm_s, len.reference_s, false),
    );
    gate_leg(cfg, "reference", &inst, &reference, &mut failures);
    let (granules, versions, max_chain) = probes::store_counts(&inst.store);
    drop(inst);

    let inst = fresh("traced")?;
    inst.set_logging(false);
    let traced = run_leg(&inst, &pool, spec_of(len.trace_warm_s, len.traced_s, true));
    gate_leg(cfg, "traced", &inst, &traced, &mut failures);
    drop(inst);
    let client_spans: Vec<&Spans> = traced.recorders.iter().map(|r| &r.spans).collect();
    let trace_file = cfg.out.trace(cfg.workload);
    std::fs::write(&trace_file, chrome_trace(&client_spans))
        .map_err(|e| io_failure("writing the Chrome trace", e))?;
    let spans = SpanReport::merge(&client_spans);

    let inst = fresh("obs")?;
    inst.set_logging(false);
    inst.scheduler.metrics().obs.set_enabled(true);
    let obs = run_leg(&inst, &pool, spec_of(len.trace_warm_s, len.obs_s, false));
    gate_leg(cfg, "obs", &inst, &obs, &mut failures);
    drop(inst);

    let checked = check_leg(cfg, &pool, &mut failures).map_err(|e| io_failure("check leg", e))?;
    if !failures.is_empty() {
        return Err(failures);
    }

    // client
    let r = &reference;
    let claimed = r.claimed() as f64;
    let sum = |f: fn(&crate::load::Recorder) -> u64| -> f64 {
        r.recorders.iter().map(f).sum::<u64>() as f64
    };
    m.push(("client.restart_share", ratio(sum(|x| x.restarts), claimed)));
    m.push((
        "client.block_share",
        ratio(sum(|x| x.blocked_ops), sum(|x| x.ops)),
    ));
    m.push(("client.failed_share", ratio(r.failed() as f64, claimed)));
    m.push((
        "client.backoff_ns_per_txn",
        ratio(sum(|x| x.backoff_ns), claimed),
    ));
    m.push(("client.update_p50_us", r.latency_us(true, false, 0.50)));
    m.push(("client.update_p99_us", r.latency_us(true, false, 0.99)));
    m.push(("client.txn_p999_us", r.latency_us(true, true, 0.999)));
    m.push(("client.ro_p50_us", r.latency_us(false, true, 0.50)));
    m.push(("client.ro_p99_us", r.latency_us(false, true, 0.99)));
    m.push(("client.unattributed_share", spans.unattributed_share()));
    m.push((
        "client.trace_overhead_share",
        1.0 - ratio(traced.commits_per_s(), r.commits_per_s()),
    ));
    m.push(("leg.reference_commits_per_s", r.commits_per_s()));
    m.push(("leg.traced_commits_per_s", traced.commits_per_s()));
    m.push(("leg.obs_commits_per_s", obs.commits_per_s()));
    m.push((
        "obs.on_overhead_share",
        1.0 - ratio(obs.commits_per_s(), r.commits_per_s()),
    ));

    // hdd::protocol: spans from the traced leg, counters from the
    // reference leg (they need no tracing).
    for (name, kind) in [
        ("hdd.begin_ns", Kind::Begin),
        ("hdd.read_own_ns", Kind::ReadOwn),
        ("hdd.read_cross_ns", Kind::ReadCross),
        ("hdd.read_ro_ns", Kind::ReadRo),
        ("hdd.write_ns", Kind::Write),
        ("hdd.commit_ns", Kind::Commit),
        ("hdd.abort_ns", Kind::Abort),
        ("maintenance.ns_per_call", Kind::Maintenance),
        ("wal.submit_ns", Kind::WalSubmit),
    ] {
        m.push((name, spans.mean_ns(kind)));
    }
    for (name, kind) in [
        ("hdd.begin_p99_ns", Kind::Begin),
        ("hdd.commit_p99_ns", Kind::Commit),
        ("maintenance.p99_ns", Kind::Maintenance),
        ("wal.submit_p99_ns", Kind::WalSubmit),
    ] {
        m.push((name, spans.percentile_ns(kind, 0.99)));
    }
    for (name, kind) in [
        ("hdd.begin_calls", Kind::Begin),
        ("hdd.read_own_calls", Kind::ReadOwn),
        ("hdd.read_cross_calls", Kind::ReadCross),
        ("hdd.read_ro_calls", Kind::ReadRo),
        ("hdd.write_calls", Kind::Write),
        ("hdd.commit_calls", Kind::Commit),
        ("maintenance.calls", Kind::Maintenance),
    ] {
        m.push((name, spans.count(kind) as f64));
    }
    let c = &r.counters;
    let commits = c.commits as f64;
    m.push(("hdd.reads_per_txn", ratio(c.reads as f64, commits)));
    m.push(("hdd.writes_per_txn", ratio(c.writes as f64, commits)));
    m.push((
        "hdd.cross_read_share",
        ratio(c.cross_class_reads as f64, c.reads as f64),
    ));
    m.push((
        "hdd.read_registrations_per_txn",
        ratio(c.read_registrations as f64, commits),
    ));
    m.push((
        "hdd.rejections_per_kcommit",
        ratio(c.rejections as f64 * 1e3, commits),
    ));
    m.push((
        "maintenance.walls_per_kcommit",
        ratio(c.timewalls_released as f64 * 1e3, commits),
    ));
    m.push((
        "maintenance.gced_per_commit",
        ratio(c.versions_gced as f64, commits),
    ));
    m.push((
        "maintenance.share",
        ratio(
            spans.sum_ns(Kind::Maintenance) as f64,
            traced.measure.as_nanos() as f64 * client_count() as f64,
        ),
    ));

    // WAL (zero on the in-memory workloads, which never submit).
    let led: u64 = traced.recorders.iter().map(|x| x.led_batches).sum();
    let fsync: u64 = traced.recorders.iter().map(|x| x.fsync_ns).sum();
    let fsync_ns = ratio(fsync as f64, led as f64);
    m.push(("wal.fsync_ns", fsync_ns));
    m.push((
        "wal.wait_ns",
        (spans.mean_ns(Kind::WalSubmit) - fsync_ns).max(0.0),
    ));
    m.push((
        "wal.frames_per_batch",
        ratio(traced.wal.frames as f64, traced.wal.batches as f64),
    ));
    m.push((
        "wal.bytes_per_commit",
        ratio(traced.wal.bytes as f64, spans.count(Kind::WalSubmit) as f64),
    ));

    // mvstore: end-of-leg counts of the reference leg.
    m.push((
        "store.versions_per_granule",
        ratio(versions as f64, granules as f64),
    ));
    m.push(("store.max_chain_len", max_chain as f64));
    m.push(("store.granules", granules as f64));

    m.push(("certify.ns_per_event", checked.certify_ns_per_event));
    m.push(("recovery.ns_per_frame", checked.recovery_ns_per_frame));
    m.push(("recovery.recovered_share", checked.recovered_share));
    m.extend(checked.codec);
    m.extend(probes::run_probes(cfg.workload, cfg.seed));
    m.push(("process.peak_rss_mb", peak_rss_mb()));

    Ok(Traced {
        metrics: m,
        attempts: Attempts {
            attempted: reference.claimed() + traced.claimed() + obs.claimed(),
            failed: reference.failed() + traced.failed() + obs.failed(),
        },
        trace_file,
    })
}
