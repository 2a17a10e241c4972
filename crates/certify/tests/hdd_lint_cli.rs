//! The `hdd-lint` binary as a process: the bundled workloads lint clean,
//! the demo decompositions are rejected with witnesses, `--json` prints
//! an array, and a mistyped command line prints the usage and exits 2
//! instead of linting with the defaults.

use std::process::{Command, Output};

fn hdd_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdd-lint"))
        .args(args)
        .output()
        .expect("the hdd-lint binary must spawn")
}

#[test]
fn builtin_workloads_lint_clean() {
    let out = hdd_lint(&["builtin"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for workload in ["inventory", "banking", "synthetic"] {
        assert!(
            text.contains(workload),
            "{workload} was not linted:\n{text}"
        );
    }
}

#[test]
fn demo_decompositions_are_rejected_with_a_witness() {
    let out = hdd_lint(&["demo"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("witness"), "no witness printed:\n{text}");
}

#[test]
fn json_prints_one_array() {
    let out = hdd_lint(&["builtin", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let text = text.trim();
    assert!(
        text.starts_with('[') && text.ends_with(']'),
        "not a JSON array:\n{text}"
    );
}

#[test]
fn typos_print_the_usage_and_exit_2() {
    for args in [
        &["builtin", "--jsn"][..],
        &["builtin", "extra"],
        &["--json"],
        &["biltin"],
        &[],
    ] {
        let out = hdd_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} linted something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: hdd-lint"),
            "{args:?}"
        );
    }
}
