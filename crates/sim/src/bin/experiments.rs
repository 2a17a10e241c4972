//! Regenerate every figure of the paper as a measured table.
//!
//! ```text
//! cargo run --release -p sim --bin experiments             # full sizes
//! cargo run --release -p sim --bin experiments -- quick    # CI sizes
//! cargo run --release -p sim --bin experiments -- e17      # E17 only
//!     # (likewise e18, e19, e20; add `quick` for CI sizes)
//! ```
//!
//! Any other argument prints the valid names and exits 2. Experiments
//! print tables, write no files and gate nothing: each invariant a table
//! shows is asserted by the `cargo test` of the module that builds it.
//! Throughput numbers come from `benchmark/run.sh` (see
//! `benchmark/README.md`).

use sim::experiments::{e17_gauges, e18_blame, e19_durability, e20_drift};
use sim::report::Table;

/// Print an experiment's table; experiments themselves never fail.
fn show(table: Table) -> i32 {
    println!("{table}");
    0
}

/// Every table of the suite, E1–E20.
fn suite(quick: bool) -> i32 {
    println!(
        "Hierarchical Database Decomposition (Hsu 1982/83) — experiment suite ({} mode)",
        if quick { "quick" } else { "full" }
    );
    for table in sim::experiments::run_all(quick) {
        println!("{table}");
    }
    0
}

/// What an argument runs; returns the process exit code.
type Command = fn(quick: bool) -> i32;

/// Every accepted argument and what it runs. `quick` alone runs the
/// suite at CI sizes; next to an experiment name it shrinks that
/// experiment.
const COMMANDS: &[(&str, Command)] = &[
    ("quick", suite),
    ("e17", |q| show(e17_gauges::run(q))),
    ("e18", |q| show(e18_blame::run(q))),
    ("e19", |q| show(e19_durability::run(q))),
    ("e20", |q| show(e20_drift::run(q))),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = |name: &str| COMMANDS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
    if let Some(unknown) = args.iter().find(|a| command(a).is_none()) {
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "experiments: unknown argument `{unknown}`; valid arguments: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "quick");
    let run = args
        .iter()
        .find(|a| *a != "quick")
        .and_then(|a| command(a))
        .unwrap_or(suite);
    std::process::exit(run(quick));
}
