//! `hdd-blame` — transaction flight-recorder profiler.
//!
//! Runs the inventory batch against the hdd scheduler with the flight
//! recorder on, assembles the sampled span trees, and prints the
//! wait-cause blame table, the committed-flight phase profile and the
//! longest critical wait chain. Optionally dumps the span trees as a
//! Perfetto/`chrome://tracing` JSON file with flow arrows along the
//! cause edges.
//!
//! ```text
//! cargo run --release -p sim --bin hdd-blame
//! cargo run --release -p sim --bin hdd-blame -- --workers 8 --txns 20000 \
//!     --sample 4 --top 10 --chrome-trace flights.json
//! cargo run --release -p sim --bin hdd-blame -- --quick   # CI sizes
//! ```

use obs::{assemble, critical_chain, flight_chrome_trace, validate_chrome_trace};
use obs::{BlameReport, PhaseBreakdown, Terminal, NO_CLASS};
use sim::cli::{self, Args};
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::experiments::e02_inventory::batch;
use sim::factory::{build_scheduler, SchedulerKind};

const USAGE: &str = "\
hdd-blame — transaction flight-recorder profiler (inventory, hdd)

USAGE:
  hdd-blame [--quick] [--workers N] [--txns N] [--sample N] [--top N]
            [--chrome-trace PATH]

OPTIONS:
  --quick              CI sizes: 4 workers, 2000 transactions
  --workers N          driver worker threads (default: 8)
  --txns N             transactions to run (default: 20000)
  --sample N           trace every Nth transaction (default: 4)
  --top N              blame-table rows to print (default: 10)
  --chrome-trace PATH  write the span trees as a Chrome/Perfetto trace
";

struct Opts {
    workers: usize,
    txns: usize,
    sample: u64,
    top: usize,
    chrome_trace: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let (mut quick, mut workers, mut txns) = (false, None, None);
    let (mut sample, mut top, mut chrome_trace) = (4, 10, None);
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" | "quick" => quick = true,
            "--workers" => workers = Some(args.parsed(&flag)?),
            "--txns" => txns = Some(args.parsed(&flag)?),
            "--sample" => sample = args.parsed(&flag)?,
            "--top" => top = args.parsed(&flag)?,
            "--chrome-trace" => chrome_trace = Some(args.value(&flag)?),
            "--help" | "-h" => cli::help(USAGE),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workers: workers.unwrap_or(if quick { 4 } else { 8 }),
        txns: txns.unwrap_or(if quick { 2_000 } else { 20_000 }),
        sample,
        top,
        chrome_trace,
    })
}

fn main() {
    let args = cli::or_usage("hdd-blame", USAGE, parse_opts());
    let sample = args.sample.max(1);
    println!(
        "hdd-blame: inventory, {} workers, {} txns, sampling 1-in-{sample}",
        args.workers, args.txns
    );

    let (w, programs) = batch(args.txns, 0x00F1_B1A3);
    let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
    let cfg = ConcurrentConfig {
        workers: args.workers,
        obs: true,
        flight_sample: sample,
        verify: false,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    println!(
        "run: {} committed in {:.3} s ({:.1} commits/sec), {} sampled flights, {} events \
         ({} evicted)",
        out.stats.committed,
        out.elapsed.as_secs_f64(),
        out.throughput,
        sched.metrics().obs.flight.sampled_count(),
        sched.metrics().obs.events.recorded(),
        sched.metrics().obs.events.dropped(),
    );

    let log = assemble(&sched.metrics().obs.events.drain());
    if log.open > 0 {
        eprintln!("hdd-blame: WARNING — {} flights never terminated", log.open);
    }

    let blame = BlameReport::build(&log);
    println!();
    print!("{}", blame.render_top(args.top));

    let phases = PhaseBreakdown::of_commits(&log);
    println!();
    println!("phase profile (committed flights):");
    println!("  {}", phases.render());
    for (label, share) in phases.shares() {
        println!("  {label:>7}: {:5.1}%", share * 100.0);
    }

    // Critical chain: start from the committed flight that waited
    // longest and follow its cause edges backwards.
    let victim = log
        .flights
        .iter()
        .filter(|f| f.terminal == Some(Terminal::Committed))
        .max_by_key(|f| f.wait_ns());
    if let Some(f) = victim {
        let chain = critical_chain(&log, f);
        if chain.is_empty() {
            println!("\ncritical chain: the slowest commit never blocked");
        } else {
            println!("\ncritical chain (slowest committed flight, longest wait per hop):");
            for hop in &chain {
                let class = if hop.class == NO_CLASS {
                    "ro".to_string()
                } else {
                    format!("c{}", hop.class)
                };
                println!(
                    "  t{} ({class}) waited {:.3} ms on {}",
                    hop.txn,
                    hop.wait_ns as f64 / 1e6,
                    hop.cause
                );
            }
        }
    }

    if let Some(path) = &args.chrome_trace {
        let trace = flight_chrome_trace(&log);
        match cli::write_checked(path, &trace, validate_chrome_trace) {
            Ok(n) => println!("\nwrote {path}: {n} trace events (open in https://ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("hdd-blame: {e}");
                std::process::exit(1);
            }
        }
    }

    if blame.coverage() < 0.95 {
        eprintln!(
            "hdd-blame: WARNING — only {:.1}% of measured block time carries a cause edge",
            blame.coverage() * 100.0
        );
    }
}
