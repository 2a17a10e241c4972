//! End-to-end tests of the benchmark binary: `--smoke` runs every leg and
//! every correctness gate of all four workloads, the summary round-trips
//! through `compare.sh`, a broken scheduler fails the gate, and a
//! checkout without the crates under test yields no result.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hdd-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(out_dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .arg("--out-dir")
        .arg(out_dir)
        .args(args)
        .output()
        .expect("benchmark binary starts")
}

fn compare(a: &Path, b: &Path) -> Output {
    Command::new("bash")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/compare.sh"))
        .arg(a)
        .arg(b)
        .env("HDD_BENCH_BIN", BIN)
        .output()
        .expect("compare.sh starts")
}

#[test]
fn smoke_runs_every_workload_and_gate_and_round_trips_through_compare() {
    let dir = scratch("smoke");
    let summary = dir.join("summary.json");
    let out = bench(&dir, &["--smoke", "--out", summary.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&summary).unwrap();
    assert!(
        text.trim_end().ends_with("\"claim\": null\n}"),
        "summary must end with \"claim\": null"
    );
    for w in ["inventory", "hotclass", "deeptree", "inventory-durable"] {
        assert!(text.contains(&format!("\"{w}\": {{")), "summary lacks {w}");
        assert!(
            dir.join(format!("{w}.trace.json")).exists(),
            "no Chrome trace for {w}"
        );
    }
    for m in [
        "commits_per_s",
        "setup_s",
        "hdd.read_cross_ns",
        "wal.fsync_ns",
    ] {
        assert!(text.contains(&format!("\"{m}\"")), "summary lacks {m}");
    }
    assert!(stdout.contains("paper's claim, read cost"));
    // No WAL file outlives its leg.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
        .collect();
    assert!(leftovers.is_empty(), "WAL files left behind: {leftovers:?}");

    // A summary agrees with itself …
    let same = compare(&summary, &summary);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains(" ok"));
    // … a summary whose throughput halved is a regression …
    let reading = |median: f64| {
        format!(
            "{{\"workloads\": {{\"inventory\": {{\"end_to_end\": {{\"commits_per_s\": \
             {{\"median\": {median}, \"q1\": {}, \"q3\": {}}}}}}}}}}}",
            median * 0.99,
            median * 1.01
        )
    };
    let (before, after) = (dir.join("before.json"), dir.join("after.json"));
    std::fs::write(&before, reading(1000.0)).unwrap();
    std::fs::write(&after, reading(500.0)).unwrap();
    let regressed = compare(&before, &after);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("regressed"));
    let improved = compare(&after, &before);
    assert!(improved.status.success());
    assert!(String::from_utf8_lossy(&improved.stdout).contains("improved"));
    // … and garbage in is an error, not a verdict.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    assert_eq!(compare(&summary, &garbage).status.code(), Some(2));
}

#[test]
fn a_scheduler_without_concurrency_control_fails_the_gate_and_emits_no_metrics() {
    let dir = scratch("nocontrol");
    let out = bench(
        &dir,
        &[
            "--smoke",
            "--workload",
            "hotclass",
            "--seed",
            "3",
            "--trace",
            "0",
            "--scheduler",
            "nocontrol",
        ],
    );
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("\"metrics\""), "metrics leaked: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("GATE FAILED"));
}

#[test]
fn bad_arguments_are_refused() {
    let dir = scratch("args");
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--trace", "2", "--workload", "inventory"],
        &["--trace", "0"],
        &["--seconds", "0", "--workload", "inventory", "--trace", "0"],
        &["--frobnicate"],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

/// The driver also runs the command in a directory that holds only
/// `BENCHMARK.json` and `benchmark/`: with the crates under test gone
/// the build must fail, non-zero and without a result line.
#[test]
fn run_sh_yields_no_result_without_the_crates_under_test() {
    let dir = scratch("bare");
    let src = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dst = dir.join("benchmark");
    std::fs::create_dir_all(dst.join("src")).unwrap();
    for f in ["Cargo.toml", "Cargo.lock", "run.sh"] {
        std::fs::copy(src.join(f), dst.join(f)).unwrap();
    }
    for entry in std::fs::read_dir(src.join("src")).unwrap() {
        let p = entry.unwrap().path();
        std::fs::copy(&p, dst.join("src").join(p.file_name().unwrap())).unwrap();
    }
    std::fs::copy(src.join("../BENCHMARK.json"), dir.join("BENCHMARK.json")).unwrap();
    let out = Command::new("bash")
        .arg("benchmark/run.sh")
        .args(["--workload", "inventory", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", ".bench_build")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
