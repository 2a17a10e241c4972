//! The `experiments` binary's command-line contract: every accepted
//! argument is a row of its dispatch table, anything else exits 2 with
//! the valid names on stderr, and experiments write no files.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary must spawn")
}

#[test]
fn unknown_arguments_exit_2_and_name_the_valid_ones() {
    let out = experiments(&["nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nonsense"), "{stderr}");
    // Exactly the tables, ending in e20: no gate is a subcommand.
    assert!(
        stderr.ends_with("valid arguments: quick, e17, e18, e19, e20\n"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}

#[test]
fn retired_subcommands_and_flags_exit_2() {
    for args in [
        &["hotpath"][..],
        &["e14"],
        &["bench-gate"],
        &["obs-smoke"],
        &["e14", "quick", "--obs-json", "x"],
        &["export-smoke"],
        &["certify-smoke"],
        &["chaos-smoke"],
        &["blame-smoke"],
        &["durability-smoke"],
        &["drift-smoke"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn experiments_write_no_files() {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    std::fs::create_dir(&dir).expect("fresh working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e20", "quick"])
        .current_dir(&dir)
        .output()
        .expect("the experiments binary must spawn");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("working directory is readable")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("working directory is removable");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("E20"));
    assert!(left.is_empty(), "e20 quick left files behind: {left:?}");
}
