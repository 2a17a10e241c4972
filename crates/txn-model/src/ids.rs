//! Identifier newtypes and logical timestamps.
//!
//! The paper works entirely in logical time: `I(t)` (initiation time),
//! `C(t)` (commit time), and `TS(d^v)` (write timestamp of a version) are
//! all drawn from one totally ordered domain. [`Timestamp`] is that domain:
//! a `u64` drawn from a global [`LogicalClock`](crate::clock::LogicalClock),
//! so every initiation, commit and version timestamp is unique and totally
//! ordered — exactly the setting the proofs in the paper assume.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A point in the global logical time domain.
///
/// `Timestamp(0)` is reserved as "the beginning of time"; the clock starts
/// ticking at 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp before any event: versions loaded at database
    /// population time carry this timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// A timestamp greater than every timestamp the clock will ever produce.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// The raw tick value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The immediately preceding instant. Saturates at zero.
    ///
    /// The paper's Property 2.2 quantifies over "`m − ε` for every positive
    /// ε"; in an integer clock domain the meaningful ε is one tick.
    #[inline]
    pub fn pred(self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }

    /// The immediately following instant. Saturates at `u64::MAX`.
    #[inline]
    pub fn succ(self) -> Timestamp {
        Timestamp(self.0.saturating_add(1))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts:{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Unique identifier of a transaction instance.
///
/// In all timestamp-based protocols in this workspace the transaction's
/// *initiation timestamp* doubles as its identity-in-time; `TxnId` is kept
/// separate so that a restarted transaction (after an abort) is a *new*
/// transaction with a new initiation time, as the paper requires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a data segment `D_i` of the database partition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// Index into dense per-segment arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Identifier of a transaction class `T_i`.
///
/// Under a TST-hierarchical partition there is exactly one class per
/// segment (the class *rooted* in that segment), so `ClassId(i)`
/// corresponds to `SegmentId(i)`. Read-only transactions are *hosted* by a
/// fictitious class (Section 5) and carry no `ClassId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Index into dense per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The segment this class is rooted in (classes and segments share
    /// indices under a TST-hierarchical partition).
    #[inline]
    pub fn root_segment(self) -> SegmentId {
        SegmentId(self.0)
    }
}

impl From<SegmentId> for ClassId {
    fn from(s: SegmentId) -> Self {
        ClassId(s.0)
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a data granule — "the smallest unit of access so far as
/// concurrency control is concerned" (Section 4, Notations).
///
/// A granule lives in exactly one segment; the partition of granules into
/// segments *is* the database partition `P`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GranuleId {
    /// The segment the granule belongs to.
    pub segment: SegmentId,
    /// Key within the segment.
    pub key: u64,
}

impl GranuleId {
    /// Construct a granule id.
    #[inline]
    pub fn new(segment: SegmentId, key: u64) -> Self {
        GranuleId { segment, key }
    }
}

impl fmt::Debug for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{}", self.segment, self.key)
    }
}

impl fmt::Display for GranuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.segment, self.key)
    }
}

/// A `HashMap` keyed by ids, hashed by [`IdHasher`]. Every map an
/// operation touches (store shards, transaction tables, lock tables, read
/// sets) uses it; offline maps (recovery, dependency graphs) keep std's.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd multiplier of [`IdHasher`]: π's fractional bits. Deliberately not
/// the golden-ratio constant `MvStore` picks shards with, so the bits a
/// map reads are not the bits that chose its shard.
const FOLD_K: u64 = 0x243F_6A88_85A3_08D3;

/// The hasher of [`IdMap`] and [`IdSet`]: one folded multiply for an id.
///
/// Words are gathered by rotate-and-XOR — a [`GranuleId`] becomes
/// `segment << 48 ^ key`, a [`TxnId`] its number — and [`Hasher::finish`]
/// multiplies that into 128 bits and XORs the halves. The fold matters:
/// the low half's low bits depend only on the key's low bits, and a
/// shard picked by low id bits (`TxnTable`) or a map that takes its
/// bucket from the low bits (every std map) would cluster on them; the
/// high half carries every input bit down. Not collision-resistant, so
/// only for ids the program assigns, never for keys an outsider picks.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(48) ^ n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(FOLD_K);
        (p as u64) ^ (p >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_and_bounds() {
        assert!(Timestamp::ZERO < Timestamp(1));
        assert!(Timestamp(1) < Timestamp::MAX);
        assert_eq!(Timestamp(5).pred(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.pred(), Timestamp::ZERO);
        assert_eq!(Timestamp(5).succ(), Timestamp(6));
        assert_eq!(Timestamp::MAX.succ(), Timestamp::MAX);
    }

    #[test]
    fn class_maps_to_root_segment() {
        let c = ClassId(3);
        assert_eq!(c.root_segment(), SegmentId(3));
        assert_eq!(ClassId::from(SegmentId(7)), ClassId(7));
    }

    #[test]
    fn granule_identity() {
        let a = GranuleId::new(SegmentId(1), 10);
        let b = GranuleId::new(SegmentId(1), 10);
        let c = GranuleId::new(SegmentId(2), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a}"), "D1/10");
    }

    /// `MvStore`'s shard pick (`mvstore::store::shard_index`): the top 6
    /// bits of the granule's golden-ratio multiply.
    fn store_shard(g: GranuleId) -> usize {
        let raw = (g.segment.0 as u64) << 48 ^ g.key;
        (raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
    }

    /// Fullest bin over the mean bin, binning `hashes` by `bin`.
    fn peak_over_mean(hashes: &[u64], bins: usize, bin: impl Fn(u64) -> u64) -> f64 {
        let mut count = vec![0usize; bins];
        for &h in hashes {
            count[bin(h) as usize] += 1;
        }
        let mean = hashes.len() as f64 / bins as f64;
        *count.iter().max().expect("bins > 0") as f64 / mean
    }

    /// Hash each part of a key set and check the two fields a std map
    /// reads: the bucket index (low bits) and the probe tag (top 7 bits).
    /// A part gets as many of those bits as leave ≥ 64 keys a bin, so a
    /// uniform hash stays far below 2× the mean and a clustered one
    /// (a field that takes 1 in 16 of its values) lands at 16×.
    fn assert_spread<K: std::hash::Hash>(set: &str, parts: &[Vec<K>]) {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for (i, part) in parts.iter().enumerate() {
            let hashes: Vec<u64> = part.iter().map(|k| build.hash_one(k)).collect();
            let bits = (hashes.len() as u64 / 64).ilog2();
            let (low, top) = (bits.min(12), bits.min(7));
            let bucket = peak_over_mean(&hashes, 1 << low, |h| h & ((1 << low) - 1));
            let tag = peak_over_mean(&hashes, 1 << top, |h| h >> (64 - top));
            assert!(
                bucket <= 2.0 && tag <= 2.0,
                "{set}, part {i} of {}: fullest bucket (low {low} bits) {bucket:.2}x \
                 the mean, fullest tag (top {top} bits) {tag:.2}x",
                parts.len()
            );
        }
    }

    /// Each key set is checked whole (one unsharded map: a read set, a
    /// lock table) and split the way the sharded maps split it, because
    /// a shard fixes some key bits: `TxnTable` fixes a transaction id's
    /// low 4 bits, which an unfolded `x * K` carries unchanged into the
    /// bucket index, and `MvStore` fixes the top bits of a golden-ratio
    /// multiply, which an unfolded `x * golden` carries into the tag.
    #[test]
    fn id_hasher_spreads_bucket_and_tag_bits_within_every_shard() {
        fn by<K: Copy>(keys: &[K], shards: usize, pick: impl Fn(K) -> usize) -> Vec<Vec<K>> {
            let mut parts = vec![Vec::new(); shards];
            for &k in keys {
                parts[pick(k)].push(k);
            }
            parts
        }
        // `inventory`'s event records: 64 items, each strided by 10^6.
        let events: Vec<GranuleId> = (0..64u64)
            .flat_map(|item| {
                (0..1024).map(move |seq| GranuleId::new(SegmentId(0), item * 1_000_000 + seq))
            })
            .collect();
        // `deeptree`-shaped dense keys over 16 segments.
        let dense: Vec<GranuleId> = (0..16)
            .flat_map(|seg| (0..16_384).map(move |key| GranuleId::new(SegmentId(seg), key)))
            .collect();
        let txns: Vec<TxnId> = (1..65_536).map(TxnId).collect();
        for (set, keys) in [("event records", &events), ("dense keys", &dense)] {
            assert_spread(set, std::slice::from_ref(keys));
            assert_spread(&format!("{set} by store shard"), &by(keys, 64, store_shard));
        }
        assert_spread("txn ids", std::slice::from_ref(&txns));
        assert_spread(
            "txn ids by TxnTable shard",
            &by(&txns, 16, |t| (t.0 & 15) as usize),
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", TxnId(4)), "t4");
        assert_eq!(format!("{}", ClassId(2)), "T2");
        assert_eq!(format!("{}", Timestamp(9)), "9");
    }
}
