//! The workspace's one striped ticket log.
//!
//! Every structure that many worker threads append to — the decision /
//! span event log under [`Obs`](crate::Obs), and `txn_model`'s schedule
//! log — has the same shape: an append draws a ticket from one global
//! `fetch_add` and pushes into a thread-affine stripe, so concurrent
//! appenders contend on one atomic (and, rarely, on a stripe a second
//! thread hashed into); a reader merges the stripes and sorts by ticket,
//! recovering the exact global append order a single mutex would have
//! produced. [`TicketRing`] is that shape, once.
//!
//! A ring is either **unbounded** (the schedule log: nothing may be
//! lost, the merge is dense `0..n`) or **bounded** per stripe (the event
//! log: when a stripe is full its oldest entry is evicted and counted in
//! [`TicketRing::dropped`], so a long run keeps the freshest forensic
//! window instead of growing without bound; ticket gaps mark evictions).
//!
//! Merging is intended for quiescent moments; a merge concurrent with
//! appends may miss in-flight tickets.

use mc::sync::{AtomicU64, Mutex, Ordering, ThreadStripe};

/// Power-of-two stripe count (worker counts in this workspace are ≤ 16,
/// so distinct threads land on distinct stripes in practice).
const STRIPES: usize = 16;

/// Allocator of stable per-thread stripe indices, shared by every ring:
/// a thread uses the same stripe slot in each (round-robin on first use;
/// deterministic model thread ids under `--cfg mc`).
static STRIPE_OF_THREAD: ThreadStripe = ThreadStripe::new();

/// Entries a [`Default`] ring retains per stripe: the event log's
/// freshest window (~9 MB over eight recording threads; a fully traced
/// transaction costs roughly `2 + ops + waits` span records plus one
/// decision per cross-class read).
pub const DEFAULT_STRIPE_CAPACITY: usize = 16_384;

/// One stripe: fills to the ring's capacity, then is overwritten in
/// place, oldest slot first — so slot order is ticket order only until
/// it wraps, which is why every merge sorts.
#[derive(Debug)]
struct Stripe<T> {
    entries: Vec<(u64, T)>,
    oldest: usize,
}

/// Ticket-stamped, thread-affine, optionally bounded log (see module
/// docs).
#[derive(Debug)]
pub struct TicketRing<T> {
    stripes: Vec<Mutex<Stripe<T>>>,
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Entries retained per stripe (`usize::MAX` = unbounded).
    capacity: usize,
}

impl<T> Default for TicketRing<T> {
    fn default() -> Self {
        Self::bounded(DEFAULT_STRIPE_CAPACITY)
    }
}

impl<T> TicketRing<T> {
    /// A ring that never evicts.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// A ring retaining at most `per_stripe` entries per stripe.
    pub fn bounded(per_stripe: usize) -> Self {
        let stripe = || Stripe {
            entries: Vec::new(),
            oldest: 0,
        };
        TicketRing {
            stripes: (0..STRIPES).map(|_| Mutex::new(stripe())).collect(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: per_stripe.max(1),
        }
    }

    /// Append: draw a global ticket, push into the calling thread's
    /// stripe (uncontended in the steady state — each worker owns its
    /// stripe), evicting that stripe's oldest entry when full.
    #[inline]
    pub fn push(&self, item: T) {
        // ordering: Relaxed — ticket uniqueness from fetch_add atomicity;
        // the payload is published by the stripe mutex below.
        let ticket = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripes[STRIPE_OF_THREAD.index_for_thread(STRIPES - 1)].lock();
        if stripe.entries.len() < self.capacity {
            stripe.entries.push((ticket, item));
        } else {
            let at = stripe.oldest;
            stripe.entries[at] = (ticket, item);
            stripe.oldest = (at + 1) % self.capacity;
            // ordering: Relaxed — statistical eviction counter.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries appended over the ring's lifetime (evicted ones included).
    pub fn recorded(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.seq.load(Ordering::Relaxed)
    }

    /// Entries evicted by wrap-around (always 0 for an unbounded ring).
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy every retained entry out, merged into one ticket-ordered
    /// stream (ascending; gaps mark evictions).
    pub fn snapshot(&self) -> Vec<(u64, T)>
    where
        T: Clone,
    {
        self.merged(|stripe, all| all.extend_from_slice(&stripe.entries))
    }

    /// Like [`snapshot`](Self::snapshot), but takes the entries out.
    pub fn drain(&self) -> Vec<(u64, T)> {
        self.merged(|stripe, all| {
            stripe.oldest = 0;
            all.append(&mut stripe.entries);
        })
    }

    fn merged(&self, take: impl Fn(&mut Stripe<T>, &mut Vec<(u64, T)>)) -> Vec<(u64, T)> {
        let mut all = Vec::new();
        for s in &self.stripes {
            take(&mut s.lock(), &mut all);
        }
        all.sort_unstable_by_key(|&(ticket, _)| ticket);
        all
    }

    /// Drop every retained entry and zero the lifetime counters.
    pub fn reset(&self) {
        for s in &self.stripes {
            let mut stripe = s.lock();
            stripe.entries.clear();
            stripe.oldest = 0;
        }
        // ordering: Relaxed — counter reset between phases; racing pushes
        // land on either side, both acceptable.
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed); // ordering: phase reset, see note above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_is_ticket_ordered_and_snapshot_leaves_entries() {
        let ring = TicketRing::bounded(64);
        for i in 0..50u64 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot().len(), 50);
        let drained = ring.drain();
        assert_eq!(drained.len(), 50);
        for w in drained.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(ring.recorded(), 50);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.drain().is_empty(), "drain removes entries");
        ring.reset();
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn bounded_ring_keeps_the_freshest_window() {
        let ring = TicketRing::bounded(4);
        for i in 0..100u64 {
            ring.push(i);
        }
        let drained = ring.drain();
        // Single-threaded: one stripe in use, so exactly `capacity`
        // entries survive and they are the newest ones.
        assert_eq!(drained.len(), 4);
        assert_eq!(ring.dropped(), 96);
        for (ticket, i) in drained {
            assert!(ticket >= 96 && i >= 96);
        }
    }

    #[test]
    fn unbounded_concurrent_pushes_merge_dense() {
        let ring = TicketRing::unbounded();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..1000 {
                        ring.push(t * 10_000 + i);
                    }
                });
            }
        });
        let all = ring.snapshot();
        assert_eq!(all.len(), 8000);
        for (i, &(ticket, _)) in all.iter().enumerate() {
            assert_eq!(ticket, i as u64, "tickets merge dense and sorted");
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wraparound_drain_is_monotone_and_untorn_under_8_threads() {
        // Overfill every stripe (8 threads × 3000 entries into 256-slot
        // stripes), then drain: tickets must be strictly ascending with
        // no duplicates (no torn/double-counted entries), every payload
        // must be internally consistent (thread tag and sequence agree
        // — a torn read would mix them), and the eviction arithmetic
        // must balance exactly.
        const PER_THREAD: u64 = 3000;
        const THREADS: u64 = 8;
        let ring = TicketRing::bounded(256);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Payload encodes (thread, seq) redundantly so a
                        // torn entry is detectable.
                        ring.push((t * PER_THREAD + i, t, i));
                    }
                });
            }
        });
        let recorded = ring.recorded();
        let dropped = ring.dropped();
        assert_eq!(recorded, THREADS * PER_THREAD);
        assert!(dropped > 0, "test must actually wrap");
        let drained = ring.drain();
        assert_eq!(
            drained.len() as u64 + dropped,
            recorded,
            "every entry is either retained or counted dropped"
        );
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<u64> = None;
        for (ticket, (id, thread, seq)) in &drained {
            assert!(*ticket < recorded, "ticket out of range");
            assert!(seen.insert(*ticket), "duplicate ticket {ticket}");
            if let Some(p) = prev {
                assert!(p < *ticket, "not strictly ascending at {ticket}");
            }
            prev = Some(*ticket);
            assert_eq!(*id, thread * PER_THREAD + seq, "torn entry payload");
            assert!(*thread < THREADS && *seq < PER_THREAD);
        }
        // The ring retains at most STRIPES × capacity entries, and keeps
        // a *fresh* window: the newest retained ticket must come from
        // the final stretch of the run (stripe eviction is pop-front).
        assert!(drained.len() <= STRIPES * 256);
        let newest = drained.last().expect("ring not empty").0;
        assert!(
            newest + (STRIPES as u64 * 256) >= recorded,
            "newest retained ticket {newest} is stale (recorded {recorded})"
        );
    }
}
