//! Wait-cause blame attribution and critical-path profiling over an
//! assembled [`FlightLog`].
//!
//! The flight recorder answers *who each transaction waited on*; this
//! module turns that into the two documents a scaling investigation
//! needs:
//!
//! * [`BlameReport`] — total measured block time aggregated **by
//!   cause** (holder class for Protocol B pending-version waits, the
//!   time-wall service for Protocol C waits, unattributed remainder),
//!   plus the waiter-class × holder-class wait matrix and the share of
//!   block time actually slept in driver backoff. Its
//!   [`coverage`](BlameReport::coverage) is the fraction of block time
//!   carrying a cause edge — the ≥95% attribution target.
//! * [`PhaseBreakdown`] — each sampled commit's wall time split into
//!   phases (read/write/commit service, blocked, backoff-slept,
//!   scheduler-other), aggregated over committed flights: the
//!   critical-path phase profile per worker count that E18 tabulates.
//! * [`critical_chain`] — the longest causally-ordered wait chain
//!   ending at one flight: follow the flight's longest wait to its
//!   blocking transaction, then that flight's longest wait, and so on —
//!   the per-commit "critical path" through other transactions.

use crate::span::{FlightLog, Terminal, TxnFlight, WaitCause, NO_CLASS};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of the blame table: accumulated wait time for one cause
/// bucket.
#[derive(Debug, Clone)]
pub struct CauseBucket {
    /// Bucket label (e.g. `txn-pending c0`, `wall-pending`).
    pub label: String,
    /// Total wait time attributed to the bucket.
    pub wait_ns: u64,
    /// Wait spans in the bucket.
    pub waits: u64,
}

/// Aggregated wait-cause blame over a flight log.
#[derive(Debug, Clone, Default)]
pub struct BlameReport {
    /// Flights that contributed (sampled flights in the log).
    pub flights: usize,
    /// Total measured block time across all wait spans.
    pub total_wait_ns: u64,
    /// Portion of `total_wait_ns` carrying a cause edge.
    pub attributed_ns: u64,
    /// Portion of `total_wait_ns` attributed to pending time walls.
    pub wall_wait_ns: u64,
    /// Portion of `total_wait_ns` actually slept in driver backoff.
    pub backoff_slept_ns: u64,
    /// Cause buckets, sorted by descending wait time.
    pub by_cause: Vec<CauseBucket>,
    /// Waiter-class × holder-class wait matrix, sorted by descending
    /// wait time. Classes are [`NO_CLASS`] for read-only waiters.
    pub class_matrix: Vec<(u32, u32, u64)>,
}

fn class_label(c: u32) -> String {
    if c == NO_CLASS {
        "ro".to_string()
    } else {
        format!("c{c}")
    }
}

impl BlameReport {
    /// Aggregate every wait span of every flight in the log.
    pub fn build(log: &FlightLog) -> Self {
        let mut buckets: HashMap<String, CauseBucket> = HashMap::new();
        let mut matrix: HashMap<(u32, u32), u64> = HashMap::new();
        let mut report = BlameReport {
            flights: log.flights.len(),
            ..BlameReport::default()
        };
        for f in &log.flights {
            for w in &f.waits {
                report.total_wait_ns += w.dur_ns;
                report.backoff_slept_ns += w.slept_ns;
                let label = match w.cause {
                    WaitCause::TxnPending { class, .. } => {
                        report.attributed_ns += w.dur_ns;
                        *matrix.entry((f.class, class)).or_default() += w.dur_ns;
                        format!("txn-pending {}", class_label(class))
                    }
                    WaitCause::WallPending { .. } => {
                        report.attributed_ns += w.dur_ns;
                        report.wall_wait_ns += w.dur_ns;
                        "wall-pending".to_string()
                    }
                    WaitCause::Unattributed => "unattributed".to_string(),
                };
                let b = buckets.entry(label.clone()).or_insert(CauseBucket {
                    label,
                    wait_ns: 0,
                    waits: 0,
                });
                b.wait_ns += w.dur_ns;
                b.waits += 1;
            }
        }
        report.by_cause = buckets.into_values().collect();
        report
            .by_cause
            .sort_by_key(|b| std::cmp::Reverse(b.wait_ns));
        report.class_matrix = matrix.into_iter().map(|((w, h), ns)| (w, h, ns)).collect();
        report
            .class_matrix
            .sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        report
    }

    /// Fraction of measured block time carrying a cause edge (1.0 when
    /// nothing blocked at all — full attribution of zero wait).
    pub fn coverage(&self) -> f64 {
        if self.total_wait_ns == 0 {
            1.0
        } else {
            self.attributed_ns as f64 / self.total_wait_ns as f64
        }
    }

    /// Plain-text top-`k` blame table plus the class wait matrix.
    pub fn render_top(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "blame: {} flights, {:.3} ms blocked, {:.1}% attributed, {:.3} ms backoff-slept",
            self.flights,
            self.total_wait_ns as f64 / 1e6,
            self.coverage() * 100.0,
            self.backoff_slept_ns as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>8} {:>7}",
            "cause", "wait-ms", "waits", "share"
        );
        for b in self.by_cause.iter().take(k) {
            let share = if self.total_wait_ns == 0 {
                0.0
            } else {
                b.wait_ns as f64 / self.total_wait_ns as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>12.3} {:>8} {:>6.1}%",
                b.label,
                b.wait_ns as f64 / 1e6,
                b.waits,
                share
            );
        }
        if !self.class_matrix.is_empty() {
            let _ = writeln!(out, "  waiter -> holder wait matrix:");
            for &(waiter, holder, ns) in self.class_matrix.iter().take(k) {
                let _ = writeln!(
                    out,
                    "    {:>4} -> {:<4} {:>12.3} ms",
                    class_label(waiter),
                    class_label(holder),
                    ns as f64 / 1e6
                );
            }
        }
        out
    }
}

/// A flight's wall time split into phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Flights aggregated (1 for a single-flight breakdown).
    pub flights: u64,
    /// Read service time.
    pub read_ns: u64,
    /// Write service time.
    pub write_ns: u64,
    /// Commit service time.
    pub commit_ns: u64,
    /// Blocked time (wait spans; includes the backoff-slept portion).
    pub wait_ns: u64,
    /// Portion of `wait_ns` actually slept in driver backoff.
    pub backoff_ns: u64,
    /// Remainder: admission bookkeeping, driver loop, spin retries not
    /// covered by a streak, clock skew.
    pub other_ns: u64,
    /// Total flight wall time.
    pub total_ns: u64,
}

impl PhaseBreakdown {
    /// Break one flight down. Service spans and waits are subtracted
    /// from the admission→end wall time; what remains is `other`.
    pub fn of(f: &TxnFlight) -> Self {
        let mut p = PhaseBreakdown {
            flights: 1,
            total_ns: f.total_ns(),
            ..PhaseBreakdown::default()
        };
        for op in &f.ops {
            match op.kind {
                crate::span::SpanKind::Read => p.read_ns += op.dur_ns,
                crate::span::SpanKind::Write => p.write_ns += op.dur_ns,
                crate::span::SpanKind::Commit => p.commit_ns += op.dur_ns,
            }
        }
        for w in &f.waits {
            p.wait_ns += w.dur_ns;
            p.backoff_ns += w.slept_ns;
        }
        p.other_ns = p
            .total_ns
            .saturating_sub(p.read_ns + p.write_ns + p.commit_ns + p.wait_ns);
        p
    }

    /// Sum breakdowns over every **committed** flight in the log — the
    /// critical-path phase profile of the commits the run produced.
    pub fn of_commits(log: &FlightLog) -> Self {
        let mut agg = PhaseBreakdown::default();
        for f in &log.flights {
            if f.terminal == Some(Terminal::Committed) {
                let p = PhaseBreakdown::of(f);
                agg.flights += 1;
                agg.read_ns += p.read_ns;
                agg.write_ns += p.write_ns;
                agg.commit_ns += p.commit_ns;
                agg.wait_ns += p.wait_ns;
                agg.backoff_ns += p.backoff_ns;
                agg.other_ns += p.other_ns;
                agg.total_ns += p.total_ns;
            }
        }
        agg
    }

    /// Phase shares of total wall time, as `(label, fraction)` rows.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let t = self.total_ns.max(1) as f64;
        vec![
            ("read", self.read_ns as f64 / t),
            ("write", self.write_ns as f64 / t),
            ("commit", self.commit_ns as f64 / t),
            ("wait", self.wait_ns as f64 / t),
            ("other", self.other_ns as f64 / t),
        ]
    }

    /// Plain-text one-line phase profile in milliseconds.
    pub fn render(&self) -> String {
        format!(
            "{} commits: read {:.3} ms, write {:.3} ms, commit {:.3} ms, wait {:.3} ms \
             (backoff {:.3} ms), other {:.3} ms, total {:.3} ms",
            self.flights,
            self.read_ns as f64 / 1e6,
            self.write_ns as f64 / 1e6,
            self.commit_ns as f64 / 1e6,
            self.wait_ns as f64 / 1e6,
            self.backoff_ns as f64 / 1e6,
            self.other_ns as f64 / 1e6,
            self.total_ns as f64 / 1e6
        )
    }
}

/// One hop of a critical chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainHop {
    /// The waiting transaction.
    pub txn: u64,
    /// Its class.
    pub class: u32,
    /// Its longest wait (the hop's cost).
    pub wait_ns: u64,
    /// The cause edge followed out of this hop.
    pub cause: WaitCause,
}

/// The longest causally-ordered wait chain ending at `flight`: follow
/// the flight's longest wait to the transaction it blocked on, then
/// that flight's longest wait, and so on, until a flight that never
/// waited, a cause outside the sampled set, a wall edge, or the depth
/// bound (8 — chains are short in practice; the bound also guards
/// against cause cycles from ring eviction).
pub fn critical_chain(log: &FlightLog, flight: &TxnFlight) -> Vec<ChainHop> {
    let mut chain = Vec::new();
    let mut current = flight;
    for _ in 0..8 {
        let Some(longest) = current.waits.iter().max_by_key(|w| w.dur_ns) else {
            break;
        };
        chain.push(ChainHop {
            txn: current.txn,
            class: current.class,
            wait_ns: longest.dur_ns,
            cause: longest.cause,
        });
        match longest.cause {
            WaitCause::TxnPending { txn, .. } => {
                if chain.iter().any(|h| h.txn == txn) {
                    break; // cycle guard
                }
                match log.flight(txn) {
                    Some(next) => current = next,
                    None => break, // holder was not sampled
                }
            }
            _ => break, // wall or unattributed: chain roots here
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{OpSpan, SpanKind, WaitSpan};

    fn flight(txn: u64, class: u32, waits: Vec<WaitSpan>) -> TxnFlight {
        TxnFlight {
            txn,
            class,
            worker: 0,
            admit_ns: 0,
            end_ns: 1_000,
            terminal: Some(Terminal::Committed),
            ops: vec![OpSpan {
                kind: SpanKind::Read,
                segment: 0,
                key: 1,
                start_ns: 10,
                dur_ns: 100,
            }],
            waits,
        }
    }

    fn wait(dur: u64, slept: u64, cause: WaitCause) -> WaitSpan {
        WaitSpan {
            start_ns: 0,
            dur_ns: dur,
            slept_ns: slept,
            cause,
        }
    }

    #[test]
    fn blame_aggregates_attribution_and_matrix() {
        let log = FlightLog {
            flights: vec![
                flight(
                    1,
                    0,
                    vec![
                        wait(300, 50, WaitCause::TxnPending { txn: 2, class: 1 }),
                        wait(100, 0, WaitCause::WallPending { anchor: 5 }),
                    ],
                ),
                flight(2, 1, vec![wait(50, 0, WaitCause::Unattributed)]),
            ],
            wall_releases: vec![],
            open: 0,
        };
        let r = BlameReport::build(&log);
        assert_eq!(r.total_wait_ns, 450);
        assert_eq!(r.attributed_ns, 400);
        assert_eq!(r.wall_wait_ns, 100);
        assert_eq!(r.backoff_slept_ns, 50);
        assert!((r.coverage() - 400.0 / 450.0).abs() < 1e-9);
        assert_eq!(r.by_cause[0].label, "txn-pending c1");
        assert_eq!(r.by_cause[0].wait_ns, 300);
        assert_eq!(r.class_matrix, vec![(0, 1, 300)]);
        let table = r.render_top(5);
        assert!(table.contains("txn-pending c1"));
        assert!(table.contains("waiter -> holder"));
    }

    #[test]
    fn empty_log_has_full_coverage() {
        let r = BlameReport::build(&FlightLog::default());
        assert_eq!(r.total_wait_ns, 0);
        assert!((r.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_breakdown_accounts_for_every_nanosecond() {
        let f = flight(1, 0, vec![wait(200, 30, WaitCause::Unattributed)]);
        let p = PhaseBreakdown::of(&f);
        assert_eq!(p.read_ns, 100);
        assert_eq!(p.wait_ns, 200);
        assert_eq!(p.backoff_ns, 30);
        assert_eq!(p.total_ns, 1_000);
        assert_eq!(p.other_ns, 700);
        let total_share: f64 = p
            .shares()
            .iter()
            .filter(|(l, _)| *l != "other")
            .map(|(_, s)| s)
            .sum::<f64>()
            + p.shares().last().unwrap().1;
        assert!((total_share - 1.0).abs() < 1e-9);
        assert!(p.render().contains("1 commits"));
    }

    #[test]
    fn of_commits_skips_non_committed_flights() {
        let mut aborted = flight(3, 0, vec![]);
        aborted.terminal = Some(Terminal::Aborted);
        let log = FlightLog {
            flights: vec![flight(1, 0, vec![]), aborted],
            wall_releases: vec![],
            open: 0,
        };
        let agg = PhaseBreakdown::of_commits(&log);
        assert_eq!(agg.flights, 1);
    }

    #[test]
    fn critical_chain_follows_cause_edges_and_guards_cycles() {
        let log = FlightLog {
            flights: vec![
                flight(
                    1,
                    0,
                    vec![wait(500, 0, WaitCause::TxnPending { txn: 2, class: 1 })],
                ),
                flight(
                    2,
                    1,
                    vec![wait(300, 0, WaitCause::TxnPending { txn: 1, class: 0 })],
                ),
                flight(
                    3,
                    2,
                    vec![wait(100, 0, WaitCause::WallPending { anchor: 9 })],
                ),
            ],
            wall_releases: vec![],
            open: 0,
        };
        let chain = critical_chain(&log, log.flight(1).unwrap());
        assert_eq!(chain.len(), 2, "cycle 1->2->1 must stop");
        assert_eq!(chain[0].txn, 1);
        assert_eq!(chain[1].txn, 2);
        let wall = critical_chain(&log, log.flight(3).unwrap());
        assert_eq!(wall.len(), 1);
        assert!(matches!(wall[0].cause, WaitCause::WallPending { .. }));
        assert!(critical_chain(&log, &flight(9, 0, vec![])).is_empty());
    }
}
