//! `hdd-lint` — the a-priori decomposition linter CLI.
//!
//! Usage:
//!
//! ```text
//! hdd-lint builtin [--json]   lint every bundled workload (exit 0 = clean)
//! hdd-lint demo [--json]      lint deliberately broken decompositions
//!                             (exit 1 expected: shows witnesses/repairs)
//! ```
//!
//! The exit code is 1 when any error-severity diagnostic was produced,
//! so a caller can assert both directions: `builtin` must pass, `demo`
//! must fail (`tests/hdd_lint_cli.rs` does). Any other command line
//! prints this usage and exits 2.

use certify::lint::{lint_script, lint_specs, lint_workload, LintReport};
use hdd::analysis::AccessSpec;
use txn_model::SegmentId;
use workloads::anomalies::{write_skew_script, AnomalyWorkload};
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

fn emit(reports: &[LintReport], json: bool) -> i32 {
    if json {
        let objs: Vec<String> = reports.iter().map(LintReport::to_json).collect();
        println!("[{}]", objs.join(", "));
    } else {
        for r in reports {
            print!("{}", r.render());
        }
    }
    let bad = reports.iter().filter(|r| !r.ok()).count();
    if bad > 0 {
        if !json {
            eprintln!("hdd-lint: {bad} target(s) failed");
        }
        1
    } else {
        0
    }
}

fn lint_builtin() -> Vec<LintReport> {
    vec![
        lint_workload(&Inventory::new(InventoryConfig::default())),
        lint_workload(&Banking::new(16)),
        lint_workload(&Synthetic::new(SyntheticConfig::default())),
        lint_workload(&AnomalyWorkload),
    ]
}

fn lint_demo() -> Vec<LintReport> {
    let s = SegmentId;
    vec![
        // 1. Diamond: the transitive reduction is not a semi-tree.
        lint_specs(
            4,
            &[
                AccessSpec::new("post-ledger", vec![s(1)], vec![s(0)]),
                AccessSpec::new("post-audit", vec![s(2)], vec![s(0)]),
                AccessSpec::new("reconcile", vec![s(3)], vec![s(1), s(2)]),
            ],
            None,
            "demo diamond (non-TST)",
        ),
        // 2. A transaction shape that writes two segments.
        lint_specs(
            2,
            &[AccessSpec::new("transfer-wide", vec![s(0), s(1)], vec![])],
            None,
            "demo two-segment writer",
        ),
        // 3. Mutually recursive shapes: the DHG itself is cyclic.
        lint_specs(
            2,
            &[
                AccessSpec::new("fwd", vec![s(0)], vec![s(1)]),
                AccessSpec::new("back", vec![s(1)], vec![s(0)]),
            ],
            None,
            "demo directed DHG cycle",
        ),
        // 4. Script whose profiles are illegal under the anomaly
        //    hierarchy: write-skew's class-1 transaction reads the
        //    non-ancestor D2.
        lint_script(&write_skew_script(), &AnomalyWorkload.hierarchy()),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.last().is_some_and(|a| a == "--json");
    // Exactly one command, then at most `--json`: anything else is a
    // typo, and a typo must not lint with the defaults.
    let code = match &args[..args.len() - usize::from(json)] {
        [cmd] if cmd == "builtin" => emit(&lint_builtin(), json),
        [cmd] if cmd == "demo" => emit(&lint_demo(), json),
        _ => {
            eprintln!(
                "usage: hdd-lint <builtin|demo> [--json]\n\
                 \n\
                 builtin  lint the bundled workloads (inventory, banking,\n\
                 \u{20}        synthetic, anomalies); exit 0 when all are clean\n\
                 demo     lint deliberately broken decompositions to show\n\
                 \u{20}        witnesses and repair suggestions; exits 1"
            );
            2
        }
    };
    std::process::exit(code);
}
