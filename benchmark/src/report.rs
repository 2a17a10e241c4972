//! What a run prints: the host fingerprint and noise guard, every metric
//! by name with its unit, and — last on standard output — the result
//! line the driver parses.

use crate::json::Json;
use crate::load::client_count;
use crate::run::{Attempts, LegLengths, RunConfig, Timed, Traced};
use crate::spec::{END_TO_END, PER_LAYER};

/// 1-minute load average, if the host tells.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint, run parameters and leg lengths: printed with every
/// output, embedded in every summary file. `run.sh` supplies the
/// compiler version and git revision through the environment (a driver
/// checkout is not a git repository; the revision is then `unknown`).
pub fn fingerprint(cfg: &RunConfig, load_start: Option<f64>, load_end: Option<f64>) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let LegLengths {
        setup_reps,
        pool,
        warm_s,
        trace_warm_s,
        timed_s,
        reference_s,
        traced_s,
        obs_s,
        check_programs,
    } = cfg.lengths();
    let load = |l: Option<f64>| l.map_or(Json::Null, Json::Num);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env("HDD_BENCH_RUSTC"))),
        ("git_rev", Json::str(env("HDD_BENCH_GIT_REV"))),
        ("clients", Json::Num(client_count() as f64)),
        ("scheduler", Json::str(cfg.kind.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "legs",
            Json::obj([
                ("setup_reps", Json::Num(setup_reps as f64)),
                ("pool_programs", Json::Num(pool as f64)),
                ("warm_s", Json::Num(warm_s)),
                ("trace_warm_s", Json::Num(trace_warm_s)),
                ("timed_s", Json::Num(timed_s)),
                ("reference_s", Json::Num(reference_s)),
                ("traced_s", Json::Num(traced_s)),
                ("obs_s", Json::Num(obs_s)),
                ("check_programs", Json::Num(check_programs as f64)),
            ]),
        ),
        ("host.loadavg_1m_start", load(load_start)),
        ("host.loadavg_1m_end", load(load_end)),
    ])
}

/// Warn (never fail) when the host is already busy: with load above
/// `nproc / 2` the clients share their cores and every number drifts.
pub fn noise_guard(load: Option<f64>) {
    if let Some(l) = load {
        let limit = nproc() as f64 / 2.0;
        if l > limit {
            eprintln!(
                "warning: 1-minute load average {l:.2} exceeds nproc/2 = {limit:.1}; expect noisy numbers"
            );
        }
    }
}

fn result_line(attempts: Attempts, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(attempts.attempted.max(1) as f64)),
        ("failed", Json::Num(attempts.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Print a timed run: one line per end-to-end metric (median over the
/// slices, slice IQR and count beside it), a `detail` line carrying the
/// same for `run.sh`'s summary, then the result line.
pub fn print_timed(workload: &str, t: &Timed) {
    let mut detail = Vec::new();
    let mut metrics = Vec::new();
    for spec in END_TO_END {
        let (_, s) = t
            .metrics
            .iter()
            .find(|(n, _)| *n == spec.name)
            .unwrap_or_else(|| panic!("timed run did not measure {}", spec.name));
        println!(
            "{workload:18} {:16} {:>14.4} {:5} (slice IQR {:.4}, n={}; {} is better, bound {:.0}%)",
            spec.name,
            s.median,
            spec.unit,
            s.iqr(),
            s.n,
            spec.better.as_str(),
            spec.bound * 100.0
        );
        detail.push((
            spec.name.to_string(),
            Json::obj([
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                ("unit", Json::str(spec.unit)),
            ]),
        ));
        metrics.push((spec.name.to_string(), metric(s.median, spec.unit)));
    }
    println!(
        "{workload:18} attempted {} failed {}",
        t.attempts.attempted, t.attempts.failed
    );
    println!("detail {}", Json::Obj(detail).to_line());
    println!("{}", result_line(t.attempts, metrics));
}

/// Print a traced run: one line per per-layer metric, the cross-class
/// vs own-segment read cost side by side (the paper's claim), then the
/// result line.
pub fn print_traced(workload: &str, t: &Traced) {
    let value = |name: &str| {
        t.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("traced run did not measure {name}"))
    };
    let mut metrics = Vec::new();
    for (name, unit, better) in PER_LAYER {
        let v = value(name);
        println!(
            "{workload:18} {name:32} {v:>16.4} {unit:6} ({} is better)",
            better.as_str()
        );
        metrics.push((name.to_string(), metric(v, unit)));
    }
    println!(
        "{workload:18} paper's claim, read cost: cross-class (Protocol A) {:.1} ns vs own-segment (Protocol B) {:.1} ns",
        value("hdd.read_cross_ns"),
        value("hdd.read_own_ns"),
    );
    println!(
        "{workload:18} attempted {} failed {}; Chrome trace: {}",
        t.attempts.attempted,
        t.attempts.failed,
        t.trace_file.display()
    );
    println!("{}", result_line(t.attempts, metrics));
}
