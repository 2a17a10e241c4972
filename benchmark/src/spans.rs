//! Spans recorded by the benchmark's own loop around every call into a
//! layer (tracing inside the program is a later issue). Each client keeps
//! its spans in memory: every duration per span name for the mean / p99,
//! and the raw spans of its first programs for the Chrome trace written
//! when the leg ends.

use crate::json::Json;
use crate::stats::{percentile_sorted, ratio};
use std::time::Instant;

/// Span names: one per layer boundary the client loop crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// One program, claim to acknowledged commit — the parent of all
    /// other spans recorded while it ran.
    Txn,
    /// `Scheduler::begin`
    Begin,
    /// `Scheduler::read` by an update transaction on its own root
    /// segment (Protocol B under HDD).
    ReadOwn,
    /// `Scheduler::read` by an update transaction on another segment
    /// (Protocol A under HDD).
    ReadCross,
    /// `Scheduler::read` by a read-only transaction (Protocol A / C).
    ReadRo,
    /// `Scheduler::write`
    Write,
    /// `Scheduler::commit`
    Commit,
    /// `Scheduler::abort`
    Abort,
    /// `GroupCommitWal::submit`
    WalSubmit,
    /// A backoff sleep after a `Block` outcome.
    Backoff,
    /// `Scheduler::maintenance`
    Maintenance,
}

/// Number of span names.
pub const KINDS: usize = 11;

impl Kind {
    /// Name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Begin => "hdd.begin",
            Kind::ReadOwn => "hdd.read_own",
            Kind::ReadCross => "hdd.read_cross",
            Kind::ReadRo => "hdd.read_ro",
            Kind::Write => "hdd.write",
            Kind::Commit => "hdd.commit",
            Kind::Abort => "hdd.abort",
            Kind::WalSubmit => "wal.submit",
            Kind::Backoff => "client.backoff",
            Kind::Maintenance => "maintenance",
        }
    }
}

/// Raw spans are kept for this many programs per client.
pub const RAW_PROGRAMS: u64 = 10_000;

/// One raw span: enough to draw it and tie it to its program.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Span name.
    pub kind: Kind,
    /// The client's claim sequence number: shared by every span of one
    /// program, restarts included.
    pub prog: u64,
    /// The scheduler's transaction id of the attempt (0 before `begin`
    /// returned and for maintenance between programs).
    pub txn: u64,
    /// Start, ns since the leg's origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u32,
}

/// One client's spans for one leg.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    durs: [Vec<u32>; KINDS],
    /// Σ duration of spans recorded while a program was in flight
    /// (everything but `Txn` itself and maintenance between programs).
    child_ns: u64,
    raw: Vec<RawSpan>,
}

fn clamp_ns(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Spans {
    /// An empty recorder; raw span starts are relative to `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            durs: std::array::from_fn(|_| Vec::new()),
            child_ns: 0,
            raw: Vec::new(),
        }
    }

    /// Record one span. `in_txn` marks it a child of the program span
    /// in flight.
    pub fn push(
        &mut self,
        kind: Kind,
        in_txn: bool,
        prog: u64,
        txn: u64,
        start: Instant,
        end: Instant,
    ) {
        let dur = end.saturating_duration_since(start).as_nanos();
        self.durs[kind as usize].push(clamp_ns(dur));
        if in_txn {
            self.child_ns += dur as u64;
        }
        if prog < RAW_PROGRAMS {
            self.raw.push(RawSpan {
                kind,
                prog,
                txn,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: clamp_ns(dur),
            });
        }
    }
}

/// Spans of all clients of one leg, aggregated per name.
#[derive(Debug)]
pub struct SpanReport {
    sorted: [Vec<u32>; KINDS],
    sums: [u64; KINDS],
    child_ns: u64,
}

impl SpanReport {
    /// Merge the clients' recorders.
    pub fn merge(clients: &[&Spans]) -> SpanReport {
        let mut sorted: [Vec<u32>; KINDS] = std::array::from_fn(|_| Vec::new());
        for c in clients {
            for (all, one) in sorted.iter_mut().zip(&c.durs) {
                all.extend_from_slice(one);
            }
        }
        let mut sums = [0u64; KINDS];
        for (v, sum) in sorted.iter_mut().zip(&mut sums) {
            v.sort_unstable();
            *sum = v.iter().map(|&d| u64::from(d)).sum();
        }
        SpanReport {
            sorted,
            sums,
            child_ns: clients.iter().map(|c| c.child_ns).sum(),
        }
    }

    /// Calls recorded under `kind`.
    pub fn count(&self, kind: Kind) -> usize {
        self.sorted[kind as usize].len()
    }

    /// Σ duration under `kind`, ns.
    pub fn sum_ns(&self, kind: Kind) -> u64 {
        self.sums[kind as usize]
    }

    /// Mean ns per call (0 when never called).
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        ratio(self.sum_ns(kind) as f64, self.count(kind) as f64)
    }

    /// Nearest-rank percentile of the call durations, ns.
    pub fn percentile_ns(&self, kind: Kind, p: f64) -> f64 {
        f64::from(percentile_sorted(&self.sorted[kind as usize], p))
    }

    /// Share of program latency no child span accounts for: the loop's
    /// own work (program interpretation, read-set bookkeeping, the
    /// clock reads of tracing itself) — the reconciliation gap between
    /// Σ layer time and observed latency.
    pub fn unattributed_share(&self) -> f64 {
        unattributed_share(self.sum_ns(Kind::Txn), self.child_ns)
    }
}

/// `1 − child / parent`, floored at 0 (children are recorded inside
/// their parent, so the clamp only absorbs clock granularity).
pub fn unattributed_share(parent_ns: u64, child_ns: u64) -> f64 {
    (1.0 - ratio(child_ns as f64, parent_ns as f64)).max(0.0)
}

/// Render the raw spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete events, one track per client; a program's spans
/// share `args.prog` and nest under its `txn` span by containment.
pub fn chrome_trace(clients: &[&Spans]) -> String {
    let mut events = Vec::new();
    for (tid, c) in clients.iter().enumerate() {
        for s in &c.raw {
            events.push(Json::obj([
                ("name", Json::str(s.kind.name())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(f64::from(s.dur_ns) / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                (
                    "args",
                    Json::obj([
                        ("prog", Json::Num(s.prog as f64)),
                        ("txn", Json::Num(s.txn as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn aggregates_count_sum_mean_and_percentiles_per_name() {
        let o = Instant::now();
        let mut a = Spans::new(o);
        let mut b = Spans::new(o);
        a.push(Kind::Begin, true, 0, 1, at(o, 0), at(o, 100));
        a.push(Kind::Begin, true, 1, 2, at(o, 200), at(o, 500));
        b.push(Kind::Begin, true, 0, 3, at(o, 0), at(o, 200));
        let r = SpanReport::merge(&[&a, &b]);
        assert_eq!(r.count(Kind::Begin), 3);
        assert_eq!(r.sum_ns(Kind::Begin), 600);
        assert_eq!(r.mean_ns(Kind::Begin), 200.0);
        assert_eq!(r.percentile_ns(Kind::Begin, 0.5), 200.0);
        assert_eq!(r.percentile_ns(Kind::Begin, 0.99), 300.0);
        assert_eq!(r.count(Kind::Commit), 0);
        assert_eq!(r.mean_ns(Kind::Commit), 0.0);
    }

    #[test]
    fn unattributed_is_parent_time_no_child_covers() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        // One 1000 ns program: 200 begin + 300 read + 100 commit inside
        // it; maintenance afterwards is not its child.
        s.push(Kind::Begin, true, 0, 1, at(o, 0), at(o, 200));
        s.push(Kind::ReadCross, true, 0, 1, at(o, 300), at(o, 600));
        s.push(Kind::Commit, true, 0, 1, at(o, 800), at(o, 900));
        s.push(Kind::Txn, false, 0, 1, at(o, 0), at(o, 1000));
        s.push(Kind::Maintenance, false, 0, 0, at(o, 1000), at(o, 5000));
        let r = SpanReport::merge(&[&s]);
        assert!((r.unattributed_share() - 0.4).abs() < 1e-12);
        assert_eq!(unattributed_share(0, 0), 1.0);
        assert_eq!(unattributed_share(100, 120), 0.0);
    }

    #[test]
    fn raw_spans_stop_after_the_first_programs_and_render_as_trace_events() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        s.push(Kind::Txn, false, 0, 7, at(o, 1500), at(o, 4000));
        s.push(Kind::Begin, true, RAW_PROGRAMS, 8, at(o, 0), at(o, 10));
        assert_eq!(s.raw.len(), 1);
        let doc = parse(&chrome_trace(&[&s])).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("txn"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            e.get("args")
                .and_then(|a| a.get("txn"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
