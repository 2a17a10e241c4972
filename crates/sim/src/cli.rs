//! Command-line plumbing shared by the `hdd-top`, `hdd-advisor` and
//! `hdd-blame` binaries: one flag cursor, one numeric parse that names
//! the flag in its error, one check for seconds-valued flags, one
//! bundled-workload table, one way to reject a bad command line (usage
//! on stderr, exit status 2), and one way to write an export file
//! (validated first).

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

/// The arguments after the binary name, consumed front to back.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter())
    }

    /// The next flag, if any is left.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value that must follow `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that must follow `flag`, parsed.
    pub fn parsed<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// The value that must follow the seconds-valued `flag`, checked by
    /// [`duration`].
    pub fn seconds(&mut self, flag: &str, zero_ok: bool) -> Result<Duration, String> {
        duration(flag, self.parsed(flag)?, zero_ok)
    }
}

/// `secs` as a `Duration` for `flag`: finite, within `Duration`'s
/// range, and positive unless `zero_ok`. Anything else is the flag's
/// error, never a panic in `Duration::from_secs_f64`.
pub fn duration(flag: &str, secs: f64, zero_ok: bool) -> Result<Duration, String> {
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if zero_ok || !d.is_zero() => Ok(d),
        _ => Err(format!(
            "{flag}: {secs:?} s is not a finite, {} duration in range",
            if zero_ok { "non-negative" } else { "positive" }
        )),
    }
}

/// Build one of the bundled workloads by name, at dashboard sizes.
pub fn build_workload(name: &str) -> Result<Box<dyn Workload + Send>, String> {
    match name {
        "inventory" => Ok(Box::new(Inventory::new(InventoryConfig {
            items: 32,
            ..InventoryConfig::default()
        }))),
        "banking" => Ok(Box::new(Banking::new(16))),
        "synthetic" => Ok(Box::new(Synthetic::new(SyntheticConfig::default()))),
        other => Err(format!(
            "unknown workload {other} (inventory|banking|synthetic)"
        )),
    }
}

/// Unwrap a parsed command line, or print the error and `usage` to
/// stderr and exit with status 2.
pub fn or_usage<T>(bin: &str, usage: &str, parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n\n{usage}");
        std::process::exit(2);
    })
}

/// Print `usage` to stdout and exit with status 0 (`--help`).
pub fn help(usage: &str) -> ! {
    print!("{usage}");
    std::process::exit(0);
}

/// Validate `text` with `check`, then write it to `path`: the
/// validator's statistics, or a message saying which step failed.
pub fn write_checked<S>(
    path: &str,
    text: &str,
    check: impl FnOnce(&str) -> Result<S, String>,
) -> Result<S, String> {
    let stats = check(text).map_err(|e| format!("generated {path} is invalid: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("could not write {path}: {e}"))?;
    Ok(stats)
}
