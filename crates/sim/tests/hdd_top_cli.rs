//! The `hdd-top` binary under `--chaos`: the wave runs through the one
//! concurrent driver with a generated fault plan against a scheduler
//! that has a lease, so crashed transactions are reaped before the
//! snapshot and the single frame's rates cover the wave, not the few
//! hundred nanoseconds after it.

use std::process::Command;
use std::time::{Duration, Instant};

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
