//! The sharded multi-version store.
//!
//! [`MvStore`] maps [`GranuleId`]s to [`VersionChain`]s across a fixed
//! number of mutex-protected shards. All protocol logic lives in the
//! chains (and in the schedulers above); the store provides location,
//! seeding, per-granule critical sections, and sweep operations
//! (commit/abort cleanup across a write set, garbage collection).
//!
//! Beside its map each shard keeps a **GC queue**: the granules whose
//! chain holds more than one version. [`MvStore::with_chain`] — the one
//! seam every chain mutation crosses — enqueues a chain the moment it
//! grows past one version, so garbage collection and the version gauges
//! visit what was written since the last prune, not what is stored.

use crate::chain::VersionChain;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use txn_model::{GranuleId, Timestamp, TxnId, Value};

/// Power-of-two shard count, indexed by mask instead of `%`.
const SHARDS: usize = 64;

/// Fibonacci multiply-shift mixer over the granule's raw bits. A
/// `GranuleId` is `(segment, key)` with low entropy in both words;
/// multiplying by the 64-bit golden-ratio constant diffuses that into
/// the high bits, which the shift then selects. No hasher state is
/// constructed per access (the previous `DefaultHasher`-per-call did a
/// full SipHash setup and finalization on every chain touch).
#[inline]
fn shard_index(g: GranuleId) -> usize {
    let raw = (g.segment.0 as u64) << 48 ^ g.key;
    let mixed = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - SHARDS.trailing_zeros())) as usize & (SHARDS - 1)
}

/// One shard: its chains and its GC queue, under one mutex.
///
/// Invariants, holding whenever the mutex is free: every chain holds at
/// least one version; a chain holding more than one is in `gc_queue`;
/// `gc_queue` names exactly the chains whose `gc_queued` flag is set,
/// each once. A queued chain may hold a single version (re-seeded, or
/// its pending versions aborted) — the next prune retires the entry.
#[derive(Debug, Default)]
struct Shard {
    chains: HashMap<GranuleId, VersionChain>,
    gc_queue: Vec<GranuleId>,
}

impl Shard {
    /// Lengths of the queued chains — the only ones that can exceed 1.
    fn queued_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.gc_queue.iter().map(|g| self.chains[g].len())
    }
}

/// One committed version, ready for [`MvStore::put_versions`] — the
/// unit of recovery's redo batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRecord {
    /// Granule the version belongs to.
    pub granule: GranuleId,
    /// Write timestamp of the version.
    pub ts: Timestamp,
    /// The version's value (shared, never copied).
    pub value: Arc<Value>,
    /// Creating transaction.
    pub writer: TxnId,
}

/// A concurrent granule → version-chain map.
#[derive(Debug)]
pub struct MvStore {
    shards: Vec<Mutex<Shard>>,
}

impl MvStore {
    /// An empty store.
    pub fn new() -> Self {
        MvStore {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, g: GranuleId) -> &Mutex<Shard> {
        &self.shards[shard_index(g)]
    }

    /// Seed `g` with a committed initial version (write timestamp ZERO).
    /// Replaces any existing chain; intended for database population.
    pub fn seed(&self, g: GranuleId, value: Value) {
        let mut shard = self.shard(g).lock();
        if let Some(old) = shard.chains.insert(g, VersionChain::seeded(value)) {
            if old.gc_queued {
                // The replaced chain's queue entry passes to its
                // replacement, so the entry stays unique and the next
                // prune retires it.
                shard.chains.get_mut(&g).expect("just inserted").gc_queued = true;
            }
        }
    }

    /// Run `f` with exclusive access to `g`'s chain, creating a seeded
    /// (`Value::Absent`) chain on first touch.
    pub fn with_chain<R>(&self, g: GranuleId, f: impl FnOnce(&mut VersionChain) -> R) -> R {
        let mut shard = self.shard(g).lock();
        let Shard { chains, gc_queue } = &mut *shard;
        let chain = chains
            .entry(g)
            .or_insert_with(|| VersionChain::seeded(Value::Absent));
        let out = f(chain);
        debug_assert!(!chain.is_empty(), "a stored chain keeps a version");
        if chain.len() > 1 && !chain.gc_queued {
            chain.gc_queued = true;
            gc_queue.push(g);
        }
        out
    }

    /// Mark all of `writer`'s pending versions in `write_set` committed.
    pub fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        for &g in write_set {
            self.with_chain(g, |c| c.commit_writer(writer));
        }
    }

    /// Remove all of `writer`'s pending versions in `write_set`.
    pub fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        for &g in write_set {
            self.with_chain(g, |c| c.remove_writer_pending(writer));
        }
    }

    /// Install already-committed versions (recovery replay). Each record
    /// replaces any existing version at its timestamp, so replaying a
    /// version twice is harmless and the later record wins, as redo
    /// replay requires.
    pub fn put_versions(&self, batch: &[VersionRecord]) {
        for r in batch {
            self.with_chain(r.granule, |c| {
                c.remove_version_at(r.ts);
                c.install(r.ts, Arc::clone(&r.value), r.writer, true);
            });
        }
    }

    /// Garbage-collect every chain: drop committed versions older than the
    /// watermark except the latest one below it. Returns total reclaimed.
    ///
    /// Visits the queued chains only — a chain with one version has
    /// nothing to reclaim, so every chain ends as a sweep of the whole
    /// store would leave it. Chains back at one version leave the queue.
    pub fn prune_before(&self, wm: Timestamp) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let Shard { chains, gc_queue } = &mut *shard;
            gc_queue.retain(|g| {
                let chain = chains.get_mut(g).expect("queued granules have a chain");
                reclaimed += chain.prune_before(wm);
                chain.gc_queued = chain.len() > 1;
                chain.gc_queued
            });
        }
        reclaimed
    }

    /// Total number of versions held across all granules: one per
    /// granule plus the queued chains' surplus. O(shards + queued).
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.chains.len() + s.queued_lens().map(|len| len - 1).sum::<usize>()
            })
            .sum()
    }

    /// Number of granules with a chain.
    pub fn granule_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().chains.len()).sum()
    }

    /// Length of the deepest version chain — the gauge-board signal for
    /// "GC is falling behind on some hot granule". O(shards + queued).
    pub fn max_chain_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                let floor = usize::from(!s.chains.is_empty());
                s.queued_lens().max().unwrap_or(floor)
            })
            .max()
            .unwrap_or(0)
    }

    /// The granules queued for garbage collection, in no particular
    /// order (diagnostics and tests; holds one shard lock at a time).
    pub fn gc_queue(&self) -> Vec<GranuleId> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().gc_queue.clone())
            .collect()
    }

    /// Visit every chain with its granule id. Holds one shard lock at a
    /// time; intended for quiescent moments (gauges refresh,
    /// checkpointing, tests).
    pub fn for_each_chain(&self, f: &mut dyn FnMut(GranuleId, &VersionChain)) {
        for shard in &self.shards {
            for (g, chain) in &shard.lock().chains {
                f(*g, chain);
            }
        }
    }

    /// The latest committed value of `g` (for result inspection in tests
    /// and examples), or `Value::Absent`.
    pub fn latest_value(&self, g: GranuleId) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed()
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }

    /// The committed value of `g` as of logical time `ts` (exclusive):
    /// the latest committed version with write timestamp `< ts`.
    ///
    /// This is Reed's "arbitrary time slice" retrieval (the paper cites
    /// it in Section 1.3); it is only meaningful for times at or above
    /// the garbage-collection watermark — older slices may have been
    /// pruned down to their newest surviving version.
    pub fn value_as_of(&self, g: GranuleId, ts: Timestamp) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed_before(ts)
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::SegmentId;

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    #[test]
    fn seed_and_read_back() {
        let s = MvStore::new();
        s.seed(g(0, 1), Value::Int(100));
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(100));
        assert_eq!(s.latest_value(g(0, 2)), Value::Absent);
        assert_eq!(s.granule_count(), 2); // touch created the second chain
    }

    #[test]
    fn commit_and_abort_sweeps() {
        let s = MvStore::new();
        let gs = [g(0, 1), g(0, 2)];
        for &gr in &gs {
            s.with_chain(gr, |c| {
                c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(7));
            });
        }
        s.commit_writes(TxnId(7), &gs);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(5));

        for &gr in &gs {
            s.with_chain(gr, |c| {
                c.mvto_write(Timestamp(8), Arc::new(Value::Int(8)), TxnId(9));
            });
        }
        s.abort_writes(TxnId(9), &gs);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(5));
    }

    #[test]
    fn gc_across_granules() {
        let s = MvStore::new();
        for key in 0..10 {
            s.seed(g(0, key), Value::Int(0));
            for ts in 1..5u64 {
                s.with_chain(g(0, key), |c| {
                    c.mvto_write(Timestamp(ts), Arc::new(Value::Int(ts as i64)), TxnId(ts));
                    c.commit_writer(TxnId(ts));
                });
            }
        }
        assert_eq!(s.version_count(), 50);
        assert_eq!(s.max_chain_len(), 5);
        let reclaimed = s.prune_before(Timestamp(4));
        // Per granule: versions {0,1,2,3,4}; keep ts=3 (latest <4) and 4.
        assert_eq!(reclaimed, 30);
        assert_eq!(s.version_count(), 20);
        assert_eq!(s.max_chain_len(), 2, "GC flattens the deepest chain");
        assert_eq!(MvStore::new().max_chain_len(), 0);
    }

    #[test]
    fn put_versions_batch_is_idempotent_and_later_wins() {
        let s = MvStore::new();
        let rec = |ts: u64, val: i64| VersionRecord {
            granule: g(0, 1),
            ts: Timestamp(ts),
            value: Arc::new(Value::Int(val)),
            writer: TxnId(9),
        };
        s.put_versions(&[rec(3, 30), rec(5, 50)]);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(50));
        // Replaying the same version with different content wins.
        s.put_versions(&[rec(5, 55)]);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(55));
        assert_eq!(s.with_chain(g(0, 1), |c| c.len()), 3); // + Absent seed
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = Arc::new(MvStore::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for k in 0..100 {
                    s.with_chain(g(0, k % 10), |c| {
                        c.install(
                            Timestamp(t * 1000 + k + 1),
                            Arc::new(Value::Int(1)),
                            TxnId(t + 1),
                            true,
                        );
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.version_count(), 8 * 100 + 10); // + seeds
    }

    /// The full sweep `prune_before` replaced, kept as the reference
    /// the GC queue is checked against: a plain map, every chain
    /// visited on every prune.
    #[derive(Default)]
    struct SweepStore {
        chains: HashMap<GranuleId, VersionChain>,
    }

    impl SweepStore {
        fn chain(&mut self, g: GranuleId) -> &mut VersionChain {
            self.chains
                .entry(g)
                .or_insert_with(|| VersionChain::seeded(Value::Absent))
        }

        fn prune_before(&mut self, wm: Timestamp) -> usize {
            self.chains.values_mut().map(|c| c.prune_before(wm)).sum()
        }
    }

    type ChainView = Vec<(u64, Value, u64, bool)>;

    fn view_of(chain: &VersionChain) -> ChainView {
        chain
            .versions()
            .iter()
            .map(|v| (v.ts.raw(), (*v.value).clone(), v.writer.0, v.committed))
            .collect()
    }

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Everything a prune must leave equal between the queued store and
    /// the sweeping reference, plus the queue's own invariants.
    fn assert_matches_reference(store: &MvStore, reference: &SweepStore, ctx: &str) {
        let mut views: HashMap<GranuleId, ChainView> = HashMap::new();
        store.for_each_chain(&mut |g, c| {
            views.insert(g, view_of(c));
        });
        let expected: HashMap<GranuleId, ChainView> = reference
            .chains
            .iter()
            .map(|(g, c)| (*g, view_of(c)))
            .collect();
        assert_eq!(views, expected, "{ctx}: chain views diverged");

        let lens = || views.values().map(Vec::len);
        assert_eq!(store.version_count(), lens().sum::<usize>(), "{ctx}");
        assert_eq!(store.max_chain_len(), lens().max().unwrap_or(0), "{ctx}");
        assert_eq!(store.granule_count(), views.len(), "{ctx}");

        let queue = store.gc_queue();
        let distinct: std::collections::HashSet<_> = queue.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            queue.len(),
            "{ctx}: a granule is queued twice"
        );
        for (g, view) in &views {
            assert!(
                view.len() <= 1 || distinct.contains(g),
                "{ctx}: {g} holds {} versions but is not queued",
                view.len()
            );
        }
    }

    #[test]
    fn queued_prune_matches_a_full_sweep_on_200_seeded_scripts() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64(seed);
            let store = MvStore::new();
            let mut reference = SweepStore::default();
            let mut next_ts = 1u64;
            let mut pending: Vec<(TxnId, Vec<GranuleId>)> = Vec::new();
            let granule = |rng: &mut SplitMix64| g(rng.below(2) as u32, rng.below(12));
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.below(10) {
                    // Seed, or re-seed a live (possibly queued) granule.
                    0 => {
                        let (gr, v) = (granule(&mut rng), Value::Int(rng.below(100) as i64));
                        store.seed(gr, v.clone());
                        reference.chains.insert(gr, VersionChain::seeded(v));
                        // Its writers' pending versions went with the chain.
                        for (_, set) in &mut pending {
                            set.retain(|&w| w != gr);
                        }
                    }
                    // A transaction writes one to three granules.
                    1..=4 => {
                        let (ts, writer) = (Timestamp(next_ts), TxnId(next_ts));
                        next_ts += 1;
                        let mut set = Vec::new();
                        for _ in 0..=rng.below(3) {
                            let gr = granule(&mut rng);
                            let v = Arc::new(Value::Int(rng.below(100) as i64));
                            store.with_chain(gr, |c| c.mvto_write(ts, Arc::clone(&v), writer));
                            reference.chain(gr).mvto_write(ts, v, writer);
                            set.push(gr);
                        }
                        pending.push((writer, set));
                    }
                    5 | 6 if !pending.is_empty() => {
                        let i = rng.below(pending.len() as u64) as usize;
                        let (writer, set) = pending.swap_remove(i);
                        if rng.below(4) == 0 {
                            store.abort_writes(writer, &set);
                            for &gr in &set {
                                reference.chain(gr).remove_writer_pending(writer);
                            }
                        } else {
                            store.commit_writes(writer, &set);
                            for &gr in &set {
                                reference.chain(gr).commit_writer(writer);
                            }
                        }
                    }
                    // Redo replay: committed versions at old, existing
                    // and seed timestamps.
                    7 => {
                        let batch: Vec<VersionRecord> = (0..=rng.below(3))
                            .map(|_| VersionRecord {
                                granule: granule(&mut rng),
                                ts: Timestamp(rng.below(next_ts)),
                                value: Arc::new(Value::Int(rng.below(100) as i64)),
                                writer: TxnId(1_000_000 + rng.below(1000)),
                            })
                            .collect();
                        store.put_versions(&batch);
                        for r in &batch {
                            let c = reference.chain(r.granule);
                            c.remove_version_at(r.ts);
                            c.install(r.ts, Arc::clone(&r.value), r.writer, true);
                        }
                    }
                    _ => {
                        let wm = match rng.below(6) {
                            0 => Timestamp::MAX,
                            1 => Timestamp::ZERO, // below every version
                            _ => Timestamp(rng.below(next_ts + 2)),
                        };
                        assert_eq!(
                            store.prune_before(wm),
                            reference.prune_before(wm),
                            "{ctx}: reclaimed count at watermark {wm:?}"
                        );
                        assert_matches_reference(&store, &reference, &ctx);
                    }
                }
            }
            assert_eq!(
                store.prune_before(Timestamp::MAX),
                reference.prune_before(Timestamp::MAX)
            );
            assert_matches_reference(&store, &reference, &format!("seed {seed} end"));
        }
    }
}
