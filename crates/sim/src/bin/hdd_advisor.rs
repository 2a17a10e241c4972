//! `hdd-advisor` — the online decomposition advisor, as a CLI.
//!
//! Drives a bundled workload through a live HDD scheduler with the
//! drift sketch enabled, folds the sketch, and runs the observed
//! co-access graph through [`certify::advise`]: is the hierarchy the
//! scheduler is running still the best-known TST for the workload it
//! is actually seeing? One-shot by default (drive `--waves` waves,
//! print one report); `--watch` re-advises after every wave until the
//! duration budget runs out; `--json` swaps the human rendering for
//! one JSON object per report (JSON-lines under `--watch`).
//!
//! ```text
//! cargo run --release -p sim --bin hdd-advisor -- --workload banking --waves 3
//! cargo run --release -p sim --bin hdd-advisor -- --watch --duration-s 10
//! cargo run --release -p sim --bin hdd-advisor -- --json
//! ```

use certify::{advise, DEFAULT_MIN_EDGE};
use hdd::protocol::HddConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::cli::{self, Args};
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::factory::build_hdd_with_config;
use std::time::{Duration, Instant};
use txn_model::Scheduler;

const USAGE: &str = "\
hdd-advisor — online decomposition advisor over a live HDD scheduler

USAGE:
  hdd-advisor [--workload inventory|banking|synthetic] [--workers N]
              [--txns N] [--waves N] [--watch] [--duration-s F]
              [--min-edge N] [--threshold-milli N] [--json]

OPTIONS:
  --workload NAME      bundled workload to drive (default: banking)
  --workers N          driver worker threads (default: 4)
  --txns N             programs per driver wave (default: 2000)
  --waves N            one-shot: waves to drive before advising (default: 3)
  --watch              re-advise after every wave until --duration-s
  --duration-s F       watch-mode budget in seconds (default: 10)
  --min-edge N         observed-arc noise floor (default: 4)
  --threshold-milli N  drift trip threshold, milli-units (default: 250)
  --json               machine-readable report(s) instead of text
";

struct Opts {
    workload: String,
    workers: usize,
    txns: usize,
    waves: u64,
    watch: bool,
    duration_s: f64,
    min_edge: u64,
    threshold_milli: Option<u64>,
    json: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "banking".to_string(),
        workers: 4,
        txns: 2000,
        waves: 3,
        watch: false,
        duration_s: 10.0,
        min_edge: DEFAULT_MIN_EDGE,
        threshold_milli: None,
        json: false,
    };
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--workload" => o.workload = args.value(&flag)?,
            "--workers" => o.workers = args.parsed(&flag)?,
            "--txns" => o.txns = args.parsed(&flag)?,
            "--waves" => o.waves = args.parsed(&flag)?,
            "--watch" => o.watch = true,
            "--duration-s" => o.duration_s = args.parsed(&flag)?,
            "--min-edge" => o.min_edge = args.parsed(&flag)?,
            "--threshold-milli" => o.threshold_milli = Some(args.parsed(&flag)?),
            "--json" => o.json = true,
            "--help" | "-h" => cli::help(USAGE),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.waves == 0 {
        return Err("--waves must be at least 1".to_string());
    }
    Ok(o)
}

fn main() {
    let opts = cli::or_usage("hdd-advisor", USAGE, parse_opts());
    let mut w = cli::or_usage("hdd-advisor", USAGE, cli::build_workload(&opts.workload));
    let (sched, _store, hierarchy) = build_hdd_with_config(w.as_ref(), HddConfig::default());
    let obs = &sched.metrics().obs;
    obs.set_enabled(true);
    obs.drift.set_enabled(true);
    if let Some(t) = opts.threshold_milli {
        obs.drift.set_threshold_milli(t);
    }

    let cfg = ConcurrentConfig {
        workers: opts.workers,
        obs: true,
        verify: false,
        ..ConcurrentConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0xAD71_50F1);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.duration_s);
    let mut wave = 0u64;
    loop {
        let programs: Vec<_> = (0..opts.txns).map(|_| w.generate(&mut rng)).collect();
        run_concurrent(sched.as_ref(), programs, &cfg);
        // Explicit refresh: the report must reflect this wave, not the
        // maintenance cadence's last multiple.
        sched.refresh_gauges_now();
        sched.refresh_drift_now();
        wave += 1;
        let one_shot_done = !opts.watch && wave >= opts.waves;
        if opts.watch || one_shot_done {
            let mut report = advise(&hierarchy, &obs.drift.snapshot(), opts.min_edge);
            report.target = format!("workload {} (wave {wave})", opts.workload);
            if opts.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
        }
        if one_shot_done || (opts.watch && Instant::now() >= deadline) {
            break;
        }
    }
}
