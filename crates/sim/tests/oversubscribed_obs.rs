//! Oversubscribed stress legs for the observability structures: 16 and
//! 32 threads hammering the event log (span records and decisions),
//! the gauge board and a latency recorder at once, with the accounting
//! invariants the mc models verify exhaustively at small scale
//! re-checked here at volume.
//!
//! Gated on [`sim::concurrent::capped_workers`] exactly like the
//! concurrent-driver stress legs: hosts without the parallelism to make
//! an oversubscribed leg meaningful skip it with a note.

use obs::{
    Event, FaultCode, GaugeBoard, LatencyRecorder, SpanEvent, Terminal, TicketRing, TraceEvent,
};
use sim::concurrent::capped_workers;

const EVENTS_PER_THREAD: u64 = 5_000;

fn stress_leg(requested: usize) {
    let Some(threads) = capped_workers(requested) else {
        eprintln!("skipping {requested}-thread obs stress leg: not enough parallelism");
        return;
    };
    // Small per-stripe capacity so eviction paths run constantly.
    let (log, clock) = (TicketRing::bounded(64), std::time::Instant::now());
    let gauges = GaugeBoard::new();
    let lat = LatencyRecorder::new();

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let (log, gauges, lat) = (&log, &gauges, &lat);
            scope.spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    let txn = t * EVENTS_PER_THREAD + i;
                    log.push(Event::Span(SpanEvent::End {
                        txn,
                        at_ns: clock.elapsed().as_nanos() as u64,
                        terminal: Terminal::Committed,
                    }));
                    log.push(Event::Decision(TraceEvent::CrashPoint {
                        txn,
                        op_index: i,
                        fault: FaultCode::Stall,
                    }));
                    gauges.set_driver_progress(txn, EVENTS_PER_THREAD * threads as u64);
                    lat.record(i % 1024);
                }
            });
        }
    });

    let total = EVENTS_PER_THREAD * threads as u64;

    // Ring accounting balances: every pushed event — a span record and
    // a decision per iteration — was either retained or counted as
    // dropped, and retained tickets are unique.
    let events = log.drain();
    assert_eq!(log.recorded(), 2 * total);
    assert_eq!(
        log.recorded() - log.dropped(),
        events.len() as u64,
        "event-log accounting must balance at {threads} threads"
    );
    let mut tickets: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), events.len(), "tickets must be unique");

    // The latency recorder loses nothing (per-thread stripes).
    assert_eq!(lat.count(), total);
    assert_eq!(lat.snapshot().count, total);

    // Gauge cells never tear: claimed is some thread's last write, and
    // offered is the constant every thread wrote.
    let snap = gauges.snapshot();
    assert!(snap.driver_claimed < total);
    assert_eq!(snap.driver_offered, total);
}

/// Always-on leg: 4 threads pass the gate on any host, so the
/// accounting assertions run everywhere.
#[test]
fn obs_structures_balance_at_4_threads() {
    stress_leg(4);
}

#[test]
fn obs_structures_balance_at_16_threads() {
    stress_leg(16);
}

#[test]
fn obs_structures_balance_at_32_threads() {
    stress_leg(32);
}
