//! `hdd-top` — a live terminal dashboard over a running HDD scheduler.
//!
//! Spawns the closed-loop concurrent driver over a bundled workload
//! (with `--chaos`, handing it a generated fault plan and the scheduler
//! a transaction lease), enables the `obs` sidecar, and
//! redraws the gauge board — time-wall lag, per-class `I_old`,
//! registry/settled-cursor lag, MV-store chain depth and GC backlog,
//! reject-reason deltas, the wall-drag blame, the cross-read staleness
//! quantiles and the advice line (`certify::advise` over the observed
//! shapes) — at `--hz` frames per second (default 4). On exit it can
//! dump the final state as Prometheus text exposition (`--prom
//! out.prom`) and the decision trace as a Chrome/Perfetto trace
//! (`--chrome-trace out.json`), both validated before the process
//! exits.
//!
//! ```text
//! cargo run --release -p sim --bin hdd-top -- --workload synthetic --duration-s 10
//! cargo run --release -p sim --bin hdd-top -- --chaos --frames 8 --no-clear
//! cargo run --release -p sim --bin hdd-top -- --frames 4 --prom out.prom --chrome-trace out.json
//! ```

use chaos::{ChaosConfig, FaultPlan};
use hdd::protocol::HddConfig;
use obs::{chrome_trace, prometheus_text, validate_chrome_trace, validate_prometheus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::cli::{self, Args};
use sim::concurrent::{run_with_faults, ConcurrentConfig};
use sim::dashboard::{Dashboard, ANSI_CLEAR};
use sim::factory::build_hdd_with_config;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::{Scheduler, TxnProgram};

const USAGE: &str = "\
hdd-top — live gauge dashboard over a running HDD scheduler

USAGE:
  hdd-top [--workload inventory|banking|synthetic] [--workers N]
          [--txns N] [--duration-s F] [--hz F] [--frames N] [--once]
          [--chaos] [--no-clear] [--prom PATH] [--chrome-trace PATH]

OPTIONS:
  --workload NAME    bundled workload to drive (default: inventory)
  --workers N        driver worker threads (default: 4)
  --txns N           programs per driver wave (default: 2000)
  --duration-s F     stop after F seconds (default: 10)
  --hz F             frames per second (default: 4)
  --frames N         stop after N frames (default: duration-bound)
  --once             drive one bounded wave, render a single frame to
                     stderr and print a snapshot JSON object on stdout
  --chaos            inject seeded faults (crash/stall/delayed commit)
                     and give the scheduler a lease to heal from them
  --no-clear         append frames instead of clearing the screen
  --prom PATH        on exit, write Prometheus text exposition to PATH
  --chrome-trace PATH  on exit, write a Chrome/Perfetto trace to PATH
";

struct Opts {
    workload: String,
    workers: usize,
    txns: usize,
    duration: Duration,
    interval: Duration,
    frames: Option<u64>,
    once: bool,
    chaos: bool,
    no_clear: bool,
    prom: Option<String>,
    chrome: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "inventory".to_string(),
        workers: 4,
        txns: 2000,
        duration: Duration::from_secs(10),
        interval: Duration::from_millis(250),
        frames: None,
        once: false,
        chaos: false,
        no_clear: false,
        prom: None,
        chrome: None,
    };
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--workload" => o.workload = args.value(&flag)?,
            "--workers" => o.workers = args.parsed(&flag)?,
            "--txns" => o.txns = args.parsed(&flag)?,
            "--duration-s" => o.duration = args.seconds(&flag, true)?,
            "--hz" => o.interval = cli::duration(&flag, 1.0 / args.parsed::<f64>(&flag)?, false)?,
            "--frames" => o.frames = Some(args.parsed(&flag)?),
            "--once" => o.once = true,
            "--chaos" => o.chaos = true,
            "--no-clear" => o.no_clear = true,
            "--prom" => o.prom = Some(args.value(&flag)?),
            "--chrome-trace" => o.chrome = Some(args.value(&flag)?),
            "--help" | "-h" => cli::help(USAGE),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// Transaction lease under `--chaos`: a crash fault leaves a corpse in
/// the activity registry that only the straggler watchdog removes, and
/// the watchdog runs only when a lease is set. Above the default plan's
/// 3 ms stalls, well below the fault preset's 50 ms drain.
const CHAOS_LEASE: Duration = Duration::from_millis(10);

/// Drive wave number `wave`. Under `--chaos` the same driver gets a
/// plan generated for that wave, plus the deadline and drain that go
/// with one; otherwise the empty plan.
fn drive(sched: &dyn Scheduler, programs: Vec<TxnProgram>, opts: &Opts, wave: u64) {
    let (plan, base) = if opts.chaos {
        let seed = 0x70D0_1000 ^ wave;
        let plan = FaultPlan::generate(seed, programs.len(), &ChaosConfig::default());
        (plan, ConcurrentConfig::fault_run())
    } else {
        (FaultPlan::clean(0), ConcurrentConfig::default())
    };
    let cfg = ConcurrentConfig {
        workers: opts.workers,
        obs: true,
        verify: false,
        ..base
    };
    run_with_faults(sched, programs, &plan, &cfg);
}

fn main() {
    let opts = cli::or_usage("hdd-top", USAGE, parse_opts());
    let mut w = cli::or_usage("hdd-top", USAGE, cli::build_workload(&opts.workload));
    let segment_names = w.segment_names();
    let config = HddConfig {
        txn_lease: opts.chaos.then_some(CHAOS_LEASE),
        ..HddConfig::default()
    };
    let (sched, _store, hierarchy) = build_hdd_with_config(w.as_ref(), config);
    // The driver also sets this per wave, but turning it on up front
    // means the very first frame already sees live gauges. The shape
    // table has its own switch; the advice line needs it.
    sched.metrics().obs.set_enabled(true);
    sched.metrics().obs.shapes.set_enabled(true);

    let mode = if opts.chaos { " + fault plan" } else { "" };
    let title = format!(
        "{} (concurrent driver{}, {} workers)",
        opts.workload, mode, opts.workers
    );

    if opts.once {
        // One bounded wave, one frame (stderr), one JSON object
        // (stdout) — the machine-readable path for scripts and CI.
        let mut rng = StdRng::seed_from_u64(0x70D0_0001);
        let programs: Vec<_> = (0..opts.txns).map(|_| w.generate(&mut rng)).collect();
        // Built before the wave: the frame's rates are per second since
        // the board's construction.
        let mut dash =
            Dashboard::new(&title, segment_names.clone()).with_hierarchy(Arc::clone(&hierarchy));
        drive(sched.as_ref(), programs, &opts, 0);
        sched.refresh_gauges_now();
        eprint!("{}", dash.frame(sched.metrics()));
        let m = sched.metrics().snapshot();
        let obs = sched.metrics().obs.snapshot();
        println!(
            "{{\"workload\": \"{}\", \"commits\": {}, \"aborts\": {}, \"rejections\": {}, \
             \"gauges\": {}, \"shapes\": {}, \"obs\": {}}}",
            opts.workload,
            m.commits,
            m.aborts,
            m.rejections,
            obs.gauges.to_json(),
            obs.shapes.to_json(),
            obs.to_json(),
        );
        return;
    }

    let stop = AtomicBool::new(false);
    let mut frames_rendered = 0u64;

    std::thread::scope(|scope| {
        // Driver thread: seeded waves of programs until told to stop.
        // A wave is bounded (`--txns`), so stopping waits at most one
        // wave, never mid-transaction.
        let sched_ref = &sched;
        let stop_ref = &stop;
        let w = &mut w;
        let opts_ref = &opts;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x70D0_0001);
            let mut wave = 0u64;
            // ordering: Relaxed — advisory stop flag; the generator may
            // run one extra wave after the store, which is harmless.
            while !stop_ref.load(Ordering::Relaxed) {
                let programs: Vec<_> = (0..opts_ref.txns).map(|_| w.generate(&mut rng)).collect();
                drive(sched_ref.as_ref(), programs, opts_ref, wave);
                wave += 1;
            }
        });

        // Sampler: redraw the board at --hz until the duration or frame
        // budget runs out.
        let mut dash =
            Dashboard::new(&title, segment_names.clone()).with_hierarchy(Arc::clone(&hierarchy));
        // `None`: a duration past the clock's range never ends the run.
        let deadline = Instant::now().checked_add(opts.duration);
        loop {
            std::thread::sleep(opts.interval);
            // Force a full gauge refresh (walls, registry, store scan)
            // so the frame is not waiting on the maintenance cadence.
            sched.refresh_gauges_now();
            let text = dash.frame(sched.metrics());
            let mut out = std::io::stdout().lock();
            if !opts.no_clear {
                let _ = out.write_all(ANSI_CLEAR.as_bytes());
            }
            let _ = out.write_all(text.as_bytes());
            let _ = out.flush();
            frames_rendered += 1;
            let frame_budget_hit = opts.frames.is_some_and(|f| frames_rendered >= f);
            if frame_budget_hit || deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }
        // ordering: Relaxed — advisory stop flag (see the load above);
        // scope join provides the final synchronization.
        stop.store(true, Ordering::Relaxed);
    });

    // Final exports, validated before we claim success.
    let mut failed = false;
    sched.refresh_gauges_now();
    if let Some(path) = &opts.prom {
        let counters = sched.metrics().snapshot().counter_pairs();
        let text = prometheus_text(&counters, &sched.metrics().obs.snapshot());
        match cli::write_checked(path, &text, validate_prometheus) {
            Ok(stats) => println!(
                "hdd-top: wrote {path} ({} families, {} samples)",
                stats.families, stats.samples
            ),
            Err(e) => {
                eprintln!("hdd-top: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.chrome {
        let events = sched.metrics().obs.events.drain();
        let text = chrome_trace(&events);
        match cli::write_checked(path, &text, validate_chrome_trace) {
            Ok(n) => println!("hdd-top: wrote {path} ({n} trace events)"),
            Err(e) => {
                eprintln!("hdd-top: {e}");
                failed = true;
            }
        }
    }
    let m = sched.metrics().snapshot();
    println!(
        "hdd-top: {frames_rendered} frames, {} commits, {} aborts, {} rejections ({})",
        m.commits,
        m.aborts,
        m.rejections,
        m.rejection_breakdown()
    );
    if failed {
        std::process::exit(1);
    }
}
