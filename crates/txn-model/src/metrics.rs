//! Concurrency-control cost counters.
//!
//! The paper's argument is a *cost* argument: read locks / read timestamps
//! "not only incur a write operation in the database ... but also
//! potentially cause delays for concurrent transactions" (Section 1.2).
//! [`Metrics`] counts exactly those costs so experiments can compare
//! schedulers on the paper's own terms:
//!
//! * `read_registrations` — read locks set or read timestamps written,
//! * `blocks` — operations that had to wait,
//! * `rejections` — operations refused by a protocol rule (causing abort),
//! * plus bookkeeping (begins/commits/aborts/reads/writes).

use mc::sync::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident),+ $(,)?) => {
        /// Live, thread-safe counters owned by a scheduler.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $name: AtomicU64,)+
            /// Observability sidecar: latency histograms and the protocol
            /// decision trace ring, all behind one atomic enable flag
            /// (default off). Not part of [`MetricsSnapshot`] — use
            /// [`obs::Obs::snapshot`] for the distributions.
            pub obs: obs::Obs,
        }

        /// A point-in-time copy of [`Metrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: u64,)+
        }

        impl Metrics {
            /// Copy all counters.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    // ordering: Relaxed — statistical counters; snapshots
                    // are advisory and tolerate skew between cells.
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Reset all counters to zero.
            pub fn reset(&self) {
                // ordering: Relaxed — counter reset between phases; racing
                // bumps land on either side, both acceptable.
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl MetricsSnapshot {
            /// Column headers, in field order (for table printing).
            pub fn headers() -> &'static [&'static str] {
                &[$(stringify!($name),)+]
            }

            /// Field values, in header order.
            pub fn values(&self) -> Vec<u64> {
                vec![$(self.$name,)+]
            }

            /// `(header, value)` pairs, in field order — the shape the
            /// Prometheus exporter (`obs::prometheus_text`) consumes.
            pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }

            /// Counter deltas since `earlier` (saturating, so interval
            /// reporting over a reset or a re-used scheduler never
            /// underflows). Interval reports should print
            /// `now.delta(&at_interval_start)` instead of re-reading
            /// absolute counters.
            pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }
        }
    };
}

counters! {
    /// Transactions begun.
    begins,
    /// Transactions committed.
    commits,
    /// Transactions aborted (all causes).
    aborts,
    /// Read operations performed (counting retries once granted).
    reads,
    /// Write operations performed.
    writes,
    /// Read registrations: read locks set or read timestamps written.
    /// This is the overhead HDD Protocol A/C eliminates.
    read_registrations,
    /// Write registrations: write locks set or write timestamps recorded.
    write_registrations,
    /// Operations that returned Block (each wait counted once per attempt).
    blocks,
    /// Operations rejected by a protocol rule, forcing an abort.
    /// Always equals `rej_write_too_late + rej_read_too_late +
    /// rej_deadlock_victim + rej_watchdog_abort` (kept as a total for
    /// backward-compatible tables).
    rejections,
    /// Rejected writes: a younger transaction already read or overwrote
    /// the granule (TO write rule; MVTO, basic TO, HDD Protocol B).
    rej_write_too_late,
    /// Rejected reads: a younger transaction already overwrote the
    /// granule (basic-TO read rule).
    rej_read_too_late,
    /// Rejections of transactions chosen as deadlock victims (2PL
    /// family).
    rej_deadlock_victim,
    /// Rejections of stragglers reaped by the lease watchdog: the
    /// transaction overstayed its activity-registry lease and was
    /// aborted so `I_old(m)` and the time wall could resume.
    rej_watchdog_abort,
    /// Unregistered (Protocol A / C) reads that found a pending version
    /// below their activity-link or time-wall bound — a state the bound
    /// proofs rule out. The read blocks (and recovers) rather than
    /// aborting, but every occurrence is counted loudly here.
    wall_violations,
    /// Deadlocks detected (2PL family only).
    deadlocks,
    /// Protocol A reads: cross-class reads served without registration.
    cross_class_reads,
    /// Protocol C reads: read-only-transaction reads served from a time wall.
    wall_reads,
    /// Time walls released by the time-wall service.
    timewalls_released,
    /// Versions reclaimed by garbage collection.
    versions_gced,
}

impl Metrics {
    #[inline]
    /// Add 1 to a counter (helper so call sites stay short).
    pub fn bump(counter: &AtomicU64) {
        // ordering: Relaxed — statistical counter; no memory is published
        // through it, totals are read at quiescence or advisorily.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — statistical counter, see bump.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a protocol rejection of `txn`'s access to `segment`/`key`
    /// under `reason`: bumps the matching per-reason counter, keeps the
    /// `rejections` total in sync, and (when tracing is enabled) emits a
    /// [`obs::TraceEvent::Reject`]. [`obs::RejectReason::WallViolation`]
    /// counts into `wall_violations` only — the access blocks and
    /// recovers instead of aborting, so it is not a rejection.
    pub fn reject(&self, reason: obs::RejectReason, txn: u64, segment: u32, key: u64) {
        use obs::RejectReason::*;
        match reason {
            WriteTooLate => {
                Self::bump(&self.rej_write_too_late);
                Self::bump(&self.rejections);
            }
            ReadTooLate => {
                Self::bump(&self.rej_read_too_late);
                Self::bump(&self.rejections);
            }
            DeadlockVictim => {
                Self::bump(&self.rej_deadlock_victim);
                Self::bump(&self.rejections);
            }
            WatchdogAbort => {
                Self::bump(&self.rej_watchdog_abort);
                Self::bump(&self.rejections);
            }
            WallViolation => Self::bump(&self.wall_violations),
        }
        self.obs.emit(obs::TraceEvent::Reject {
            txn,
            segment,
            key,
            reason,
        });
    }
}

impl MetricsSnapshot {
    /// Read registrations per committed transaction; the paper's headline
    /// overhead measure. Returns 0.0 when nothing committed.
    pub fn read_registrations_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.read_registrations as f64 / self.commits as f64
        }
    }

    /// Compact per-reason rejection breakdown for table cells:
    /// `w<write-too-late>/r<read-too-late>/d<deadlock-victim>`, with a
    /// `/g<watchdog-abort>` suffix only when the watchdog reaped anyone
    /// (so fault-free tables keep their historical shape).
    pub fn rejection_breakdown(&self) -> String {
        let mut s = format!(
            "w{}/r{}/d{}",
            self.rej_write_too_late, self.rej_read_too_late, self.rej_deadlock_victim
        );
        if self.rej_watchdog_abort > 0 {
            s.push_str(&format!("/g{}", self.rej_watchdog_abort));
        }
        s
    }

    /// Fraction of begun transactions that aborted.
    pub fn abort_rate(&self) -> f64 {
        if self.begins == 0 {
            0.0
        } else {
            self.aborts as f64 / self.begins as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let m = Metrics::default();
        Metrics::bump(&m.reads);
        Metrics::bump(&m.reads);
        Metrics::add(&m.read_registrations, 5);
        let s = m.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.read_registrations, 5);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::default();
        Metrics::bump(&m.commits);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn derived_rates() {
        let s = MetricsSnapshot {
            begins: 10,
            commits: 5,
            aborts: 5,
            read_registrations: 20,
            ..Default::default()
        };
        assert!((s.read_registrations_per_commit() - 4.0).abs() < 1e-9);
        assert!((s.abort_rate() - 0.5).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().abort_rate(), 0.0);
        assert_eq!(
            MetricsSnapshot::default().read_registrations_per_commit(),
            0.0
        );
    }

    #[test]
    fn reject_keeps_total_in_sync_and_traces() {
        let m = Metrics::default();
        m.obs.set_enabled(true);
        m.reject(obs::RejectReason::WriteTooLate, 1, 0, 7);
        m.reject(obs::RejectReason::ReadTooLate, 2, 1, 8);
        m.reject(obs::RejectReason::DeadlockVictim, 3, 2, 9);
        m.reject(obs::RejectReason::WatchdogAbort, 5, 3, 2);
        m.reject(obs::RejectReason::WallViolation, 4, 0, 1);
        let s = m.snapshot();
        assert_eq!(s.rejections, 4, "wall violations are not rejections");
        assert_eq!(s.rej_write_too_late, 1);
        assert_eq!(s.rej_read_too_late, 1);
        assert_eq!(s.rej_deadlock_victim, 1);
        assert_eq!(s.rej_watchdog_abort, 1);
        assert_eq!(s.wall_violations, 1);
        assert_eq!(
            s.rejections,
            s.rej_write_too_late
                + s.rej_read_too_late
                + s.rej_deadlock_victim
                + s.rej_watchdog_abort
        );
        assert_eq!(s.rejection_breakdown(), "w1/r1/d1/g1");
        assert_eq!(m.obs.events.recorded(), 5);
        let fault_free = MetricsSnapshot {
            rej_write_too_late: 2,
            ..Default::default()
        };
        assert_eq!(
            fault_free.rejection_breakdown(),
            "w2/r0/d0",
            "no watchdog suffix when nothing was reaped"
        );
    }

    #[test]
    fn delta_subtracts_fieldwise_and_saturates() {
        let m = Metrics::default();
        Metrics::add(&m.commits, 10);
        let early = m.snapshot();
        Metrics::add(&m.commits, 5);
        Metrics::bump(&m.aborts);
        let late = m.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.commits, 5);
        assert_eq!(d.aborts, 1);
        assert_eq!(d.begins, 0);
        // Saturates instead of underflowing (e.g. across a reset).
        let backwards = early.delta(&late);
        assert_eq!(backwards.commits, 0);
    }

    #[test]
    fn delta_never_wraps_when_resumed_mid_interval() {
        // The hdd-top scenario: an interval starts, the scheduler
        // crashes and is resumed (fresh Metrics → counters restart
        // below the interval-start snapshot), and the dashboard closes
        // the interval against the *old* baseline. Every field must
        // clamp to a sane small delta — never a wrapped u64.
        let m = Metrics::default();
        Metrics::add(&m.commits, 1000);
        Metrics::add(&m.reads, 5000);
        Metrics::add(&m.rejections, 40);
        let interval_start = m.snapshot();
        // Crash + resume: recovery rebuilds state and resets counters.
        m.reset();
        Metrics::add(&m.commits, 3);
        Metrics::bump(&m.reads);
        let d = m.snapshot().delta(&interval_start);
        for (name, v) in d.counter_pairs() {
            assert!(
                v <= 3,
                "{name} wrapped across resume: {v} (printable deltas only)"
            );
        }
        assert_eq!(d.commits, 0, "clamped: 3 < 1000");
        assert_eq!(d.rejections, 0);
    }

    #[test]
    fn counter_pairs_match_headers_and_values() {
        let m = Metrics::default();
        Metrics::add(&m.wall_reads, 9);
        let s = m.snapshot();
        let pairs = s.counter_pairs();
        assert_eq!(pairs.len(), MetricsSnapshot::headers().len());
        for (i, (name, v)) in pairs.iter().enumerate() {
            assert_eq!(*name, MetricsSnapshot::headers()[i]);
            assert_eq!(*v, s.values()[i]);
        }
        assert!(pairs.contains(&("wall_reads", 9)));
    }

    #[test]
    fn headers_and_values_align() {
        let s = MetricsSnapshot {
            begins: 1,
            ..Default::default()
        };
        assert_eq!(MetricsSnapshot::headers().len(), s.values().len());
        assert_eq!(MetricsSnapshot::headers()[0], "begins");
        assert_eq!(s.values()[0], 1);
    }
}
