//! The repo's closed-loop benchmark. See `README.md` beside `Cargo.toml`;
//! `run.sh` builds and starts this binary.
//!
//! ```text
//! hdd-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! hdd-benchmark [--workload W] [--seed N] [--out FILE]          every leg of every workload
//! hdd-benchmark compare A.json[,A2.json…] B.json[,…]             two (sets of) summaries, judged
//! hdd-benchmark spec                                            print BENCHMARK.json
//! ```

mod compare;
mod json;
mod load;
mod probes;
mod report;
mod run;
mod setup;
mod spans;
mod spec;
mod stats;

use json::Json;
use run::RunConfig;
use setup::OutDir;
use sim::factory::SchedulerKind;
use spec::{WorkloadId, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Measured seconds of one run unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    kind: SchedulerKind,
    smoke: bool,
}

impl Args {
    /// Measured seconds of one run.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { RUN_SECONDS })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        out: None,
        out_dir: std::env::var_os("HDD_BENCH_OUT_DIR")
            .map_or_else(|| PathBuf::from("target/benchmark/out"), PathBuf::from),
        kind: SchedulerKind::Hdd,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(WorkloadId::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                });
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--scheduler" => {
                let v = value()?;
                a.kind = setup::parse_scheduler(&v).ok_or_else(|| {
                    let names: Vec<_> = setup::SCHEDULER_KINDS.iter().map(|k| k.name()).collect();
                    format!("unknown scheduler {v:?}; one of {}", names.join(", "))
                })?;
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("hdd-benchmark: {msg}");
    ExitCode::from(2)
}

/// `BENCHMARK.json`, generated from `spec.rs` so the two cannot drift
/// (a unit test compares them).
fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Read one side of a comparison: a comma-separated list of summaries.
fn read_side(paths: &str) -> Result<Vec<Json>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn compare_files(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        return fail("usage: compare A.json[,A2.json…] B.json[,B2.json…]");
    };
    match (read_side(a), read_side(b)) {
        (Ok(a), Ok(b)) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(&e),
        },
        (Err(e), _) | (_, Err(e)) => fail(&e),
    }
}

/// One run of one workload (`--trace` given): print the metrics, then
/// the result line. A failed correctness gate prints its reasons to
/// standard error, emits no metrics and exits non-zero.
fn single_run(cfg: &RunConfig, trace: bool) -> ExitCode {
    let load_start = report::loadavg_1m();
    report::noise_guard(load_start);
    let workload = cfg.workload.name();
    let host = || {
        println!(
            "host {}",
            report::fingerprint(cfg, load_start, report::loadavg_1m()).to_line()
        );
    };
    let outcome = if trace {
        run::traced_run(cfg).map(|t| {
            host();
            report::print_traced(workload, &t);
        })
    } else {
        run::timed_run(cfg).map(|t| {
            host();
            report::print_timed(workload, &t);
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            for f in failures {
                eprintln!("hdd-benchmark: {workload}: GATE FAILED: {f}");
            }
            ExitCode::FAILURE
        }
    }
}

/// What the suite keeps of one child run.
struct ChildRun {
    host: Json,
    detail: Option<Json>,
    result: Json,
}

/// Run this binary again for one (workload, trace mode) — each in a
/// process of its own, so no leg inherits another's heap or page cache
/// state — pass its report through, and keep the parsed lines.
fn child_run(
    exe: &Path,
    args: &Args,
    workload: WorkloadId,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scheduler", args.kind.name()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(Stdio::inherit()); // gate failures and warnings show as they happen
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} --trace {} failed",
            workload.name(),
            u8::from(trace)
        ));
    }
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines
        .pop()
        .ok_or("child printed nothing")
        .and_then(|l| json::parse(l).map_err(|_| "child's last line is not JSON"))?;
    let mut host = Json::Null;
    let mut detail = None;
    for line in lines {
        if let Some(j) = line.strip_prefix("detail ") {
            detail = Some(json::parse(j)?);
            continue;
        }
        if let Some(j) = line.strip_prefix("host ") {
            host = json::parse(j)?;
        }
        println!("{line}");
    }
    Ok(ChildRun {
        host,
        detail,
        result,
    })
}

/// Every leg of every workload (or of the one named): timed run, traced
/// run, all gates; prints every metric and writes the summary file,
/// which ends with `"claim": null` — this benchmark measures, it claims
/// no gain.
fn suite(args: &Args) -> ExitCode {
    let started = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot find my own executable: {e}")),
    };
    let seconds = args.seconds();
    let workloads: Vec<WorkloadId> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut per_workload = Vec::new();
    for w in workloads {
        let timed = match child_run(&exe, args, w, seconds, false) {
            Ok(run) => run,
            Err(e) => return fail(&e),
        };
        let traced = match child_run(&exe, args, w, seconds, true) {
            Ok(run) => run,
            Err(e) => return fail(&e),
        };
        let count = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
        per_workload.push((
            w.name().to_string(),
            Json::obj([
                ("why", Json::str(w.why())),
                // Leg lengths, seed, load average: each workload's own.
                ("run", timed.host),
                ("end_to_end", timed.detail.unwrap_or(Json::Null)),
                ("per_layer", count(&traced.result, "metrics")),
                ("attempted", count(&timed.result, "attempted")),
                ("failed", count(&timed.result, "failed")),
            ]),
        ));
    }
    let summary = Json::obj([
        ("workloads", Json::Obj(per_workload)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
        ("claim", Json::Null),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("summary.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(&format!("{}: {e}", dir.display()));
        }
    }
    if let Err(e) = std::fs::write(&out, summary.to_pretty()) {
        return fail(&format!("{}: {e}", out.display()));
    }
    println!(
        "all gates passed; summary written to {} in {:.0} s; \"claim\": null",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare_files(&argv[1..]),
        Some("spec") => {
            print!("{}", benchmark_json().to_pretty());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(trace) = args.trace else {
        return suite(&args);
    };
    let Some(workload) = args.workload else {
        return fail("--trace needs --workload");
    };
    let out = match OutDir::create(&args.out_dir) {
        Ok(o) => o,
        Err(e) => return fail(&format!("{}: {e}", args.out_dir.display())),
    };
    let cfg = RunConfig {
        workload,
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds(),
        smoke: args.smoke,
        out,
    };
    single_run(&cfg, trace)
}
