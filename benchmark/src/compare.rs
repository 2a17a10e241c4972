//! `compare A.json B.json`: two summary files — or two comma-separated
//! sets of them — side by side, judged by the bounds the benchmark fixes.
//! The tool for "two sets of runs of one commit agree" and for a later
//! issue's before/after table.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

/// How one metric on one workload moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// The spread on one side (between its runs; inside the run when
    /// there is only one) is wider than the bound, so the two medians
    /// cannot be told apart at this resolution. Not "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's median and inter-quartile range on one side.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Median (over slices, or over runs).
    pub median: f64,
    /// Inter-quartile range (of slices, or of runs).
    pub iqr: f64,
}

/// Signed change from `a` to `b` as a share of `a`, positive = worse.
pub fn worsening(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge one metric.
pub fn judge(spec: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    let spread = (a.iqr / a.median.abs()).max(b.iqr / b.median.abs());
    let worse = worsening(spec, a.median, b.median);
    if spread > spec.bound {
        Verdict::Unresolved
    } else if worse > spec.bound {
        Verdict::Regressed
    } else if worse < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn reading(summary: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = summary
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Reading {
        median: f("median")?,
        iqr: f("q3")? - f("q1")?,
    })
}

/// One side's reading of a metric. A single run is read as it stands:
/// its median over slices, with the slice spread. Several runs are read
/// as a set: the median of their medians, with the *run-to-run* spread —
/// on a host whose speed shifts for minutes at a time, the only spread
/// that says whether two commits can be told apart.
fn side(runs: &[Json], workload: &str, metric: &str) -> Option<Reading> {
    let readings: Vec<Reading> = runs
        .iter()
        .filter_map(|r| reading(r, workload, metric))
        .collect();
    match readings.as_slice() {
        [] => None,
        [only] => Some(*only),
        many => {
            let medians: Vec<f64> = many.iter().map(|r| r.median).collect();
            let (q1, q3) = quartiles(&medians);
            Some(Reading {
                median: median(&medians),
                iqr: q3 - q1,
            })
        }
    }
}

/// Print the table for side A against side B (one or more summaries
/// each); `Ok(true)` when nothing regressed.
pub fn compare(a: &[Json], b: &[Json]) -> Result<bool, String> {
    let workloads = a
        .first()
        .and_then(|s| s.get("workloads"))
        .and_then(Json::as_object)
        .ok_or("first file has no \"workloads\" object")?;
    println!(
        "{:18} {:14} {:>14} {:>14} {:>9} {:>7}  verdict  (A: {} run(s), B: {} run(s))",
        "workload",
        "metric",
        "A median",
        "B median",
        "worse by",
        "bound",
        a.len(),
        b.len()
    );
    let mut clean = true;
    let mut rows = 0;
    for (workload, _) in workloads {
        for spec in &END_TO_END {
            let (Some(ra), Some(rb)) = (side(a, workload, spec.name), side(b, workload, spec.name))
            else {
                continue; // a workload or metric only one side ran
            };
            let verdict = judge(spec, ra, rb);
            println!(
                "{workload:18} {:14} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                spec.name,
                ra.median,
                rb.median,
                worsening(spec, ra.median, rb.median) * 100.0,
                spec.bound * 100.0,
                verdict.as_str()
            );
            clean &= verdict != Verdict::Regressed;
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two sides share no workload and metric".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn r(median: f64, iqr: f64) -> Reading {
        Reading { median, iqr }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let rate = spec("commits_per_s"); // higher is better
        let (inside, outside) = (rate.bound * 50.0, rate.bound * 150.0); // % of 100
        assert_eq!(
            judge(rate, r(100.0, 1.0), r(100.0 - inside, 1.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, r(100.0, 1.0), r(100.0 - outside, 1.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, r(100.0, 1.0), r(100.0 + outside, 1.0)),
            Verdict::Improved
        );
        let p50 = spec("txn_p50_us"); // lower is better
        let (inside, outside) = (p50.bound * 5.0, p50.bound * 15.0); // of 10
        assert_eq!(
            judge(p50, r(10.0, 0.1), r(10.0 + outside, 0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, r(10.0, 0.1), r(10.0 - outside, 0.1)),
            Verdict::Improved
        );
        assert_eq!(judge(p50, r(10.0, 0.1), r(10.0 + inside, 0.1)), Verdict::Ok);
    }

    #[test]
    fn several_runs_are_read_as_a_set_with_their_run_to_run_spread() {
        let run = |median: f64| {
            crate::json::parse(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"commits_per_s":
                   {{"median": {median}, "q1": {median}, "q3": {median}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let set = [run(90.0), run(100.0), run(140.0)];
        let r = side(&set, "w", "commits_per_s").unwrap();
        assert_eq!(r.median, 100.0);
        assert_eq!(r.iqr, 50.0); // quartiles of the three run medians
        let one = side(&set[..1], "w", "commits_per_s").unwrap();
        assert_eq!((one.median, one.iqr), (90.0, 0.0));
        assert!(side(&set, "w", "no_such_metric").is_none());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let rate = spec("commits_per_s");
        let wide = rate.bound * 200.0; // IQR of twice the bound, on a median of 100
        assert_eq!(
            judge(rate, r(100.0, wide), r(100.0, 1.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(rate, r(100.0, 1.0), r(50.0, wide / 2.0)),
            Verdict::Unresolved
        );
    }
}
