//! The `sim` binaries as processes. All three share `sim::cli`, so one
//! table checks that each rejects a mistyped command line instead of
//! running its defaults; a bad seconds value exits 2 at once instead of
//! panicking (and, in `hdd-top`, hanging); `hdd-advisor --json` keeps
//! its machine-readable shape; and `hdd-top --chaos` runs its wave through the one concurrent
//! driver with a generated fault plan against a scheduler that has a
//! lease, so crashed transactions are reaped before the snapshot and the
//! single frame's rates cover the wave, not the few hundred nanoseconds
//! after it.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn every_binary_rejects_typos_and_answers_help() {
    let bins = [
        ("hdd-top", env!("CARGO_BIN_EXE_hdd-top")),
        ("hdd-advisor", env!("CARGO_BIN_EXE_hdd-advisor")),
        ("hdd-blame", env!("CARGO_BIN_EXE_hdd-blame")),
    ];
    // (arguments, exit status, stream the usage text goes to)
    let cases: [(&[&str], i32, &str); 4] = [
        (&["--worker", "8"], 2, "stderr"),      // unknown flag
        (&["--workers", "eight"], 2, "stderr"), // bad number
        (&["--workers"], 2, "stderr"),          // missing value
        (&["--help"], 0, "stdout"),
    ];
    for (name, exe) in bins {
        for (args, status, stream) in cases {
            let out = Command::new(exe).args(args).output().expect("spawns");
            let text = match stream {
                "stdout" => String::from_utf8_lossy(&out.stdout),
                _ => String::from_utf8_lossy(&out.stderr),
            };
            assert_eq!(out.status.code(), Some(status), "{name} {args:?}: {text}");
            assert!(text.contains("USAGE:"), "{name} {args:?}: {text}");
            if status != 0 {
                assert!(text.contains(args[0]), "the error names the flag: {text}");
            }
        }
    }
}

#[test]
fn bad_seconds_values_exit_2_without_hanging() {
    let bins = [
        (env!("CARGO_BIN_EXE_hdd-top"), &["--frames", "1"][..]),
        (env!("CARGO_BIN_EXE_hdd-advisor"), &["--watch"][..]),
    ];
    for (exe, lead) in bins {
        for [flag, value] in [["--duration-s", "-1"], ["--hz", "nan"], ["--hz", "1e-300"]] {
            let args = [lead, &[flag, value]].concat();
            let mut child = Command::new(exe)
                .args(&args)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawns");
            let deadline = Instant::now() + Duration::from_secs(5);
            let status = loop {
                if let Some(status) = child.try_wait().expect("waits") {
                    break status;
                }
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("{exe} {args:?} still running after 5 s");
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            let out = child.wait_with_output().expect("collects stderr");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(status.code(), Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains("USAGE:"), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains(flag), "the error names the flag: {stderr}");
        }
    }
}

#[test]
fn advisor_json_keeps_its_machine_readable_shape() {
    let out = Command::new(env!("CARGO_BIN_EXE_hdd-advisor"))
        .args(["--json", "--txns", "500", "--waves", "1"])
        .output()
        .expect("the hdd-advisor binary must spawn");
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{json}");
    for key in [
        "quality_milli",
        "optimal",
        "advised_labels",
        "shapes",
        "overflow",
        "suggestions",
    ] {
        assert!(json.contains(&format!("\"{key}\"")), "lost {key}: {json}");
    }
}

#[test]
fn chaos_once_heals_and_reports_a_real_rate() {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_hdd-top"))
        .args(["--chaos", "--once", "--txns", "200"])
        .output()
        .expect("the hdd-top binary must spawn");
    let took = started.elapsed();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        took < Duration::from_secs(3),
        "no reader may spin to its deadline behind a corpse: took {took:?}"
    );
    assert!(
        stdout.contains("\"active_txns\": 0"),
        "every crashed transaction must be reaped: {stdout}"
    );
    // " commits  186 total |  2882.45 /s  aborts …"
    let rate: f64 = stderr
        .lines()
        .find(|l| l.trim_start().starts_with("commits"))
        .and_then(|l| l.split('|').nth(1))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("no commits rate in the frame: {stderr}"));
    assert!(
        rate > 0.0 && rate < 1e7,
        "the frame's interval must cover the wave: {rate} commits/s"
    );
}
