//! Log-bucketed (HDR-style) latency histograms.
//!
//! Values are `u64` (nanoseconds for latencies, plain counts for scan
//! lengths). Buckets are log-linear: each power-of-two octave is split
//! into `SUBS` (16) linear sub-buckets, so any recorded value lands in a
//! bucket whose width is at most 1/16 of its magnitude — every quantile
//! estimate is within ~6.25% of the true value while the whole table
//! stays under 8 KiB. Values below `2 * SUBS` are bucketed exactly.
//!
//! [`Histogram`] records via relaxed atomics (one `fetch_add` on the
//! bucket plus the summary cells), so concurrent recorders never take a
//! lock; [`HistogramSnapshot`] is the plain-integer copy used for
//! merging, quantiles and export.

use mc::sync::{AtomicU64, Ordering};

/// Sub-bucket bits per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two octave (16).
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count: exact buckets for 0..2·SUBS, then 16 per octave
/// up to `u64::MAX` (index of the largest value is 975).
pub const N_BUCKETS: usize = (60 * SUBS + SUBS) as usize;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = msb - SUB_BITS; // >= 1
    let sub = (v >> shift) - SUBS; // 0..SUBS
    ((shift as u64 + 1) * SUBS + sub) as usize
}

/// The smallest value that maps to bucket `i`.
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    if i < (2 * SUBS) as usize {
        return i as u64;
    }
    let row = (i as u64) / SUBS; // >= 2
    let sub = (i as u64) % SUBS;
    (SUBS + sub) << (row - 1)
}

/// The largest value that maps to bucket `i`.
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// A thread-safe log-bucketed histogram (relaxed atomics throughout;
/// see module docs for the error bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    ///
    /// Contract: the full `u64` domain is accepted — [`u64::MAX`] lands
    /// in the last bucket (`N_BUCKETS - 1`) and is reported exactly by
    /// `max`. `sum` is a modular accumulator (wraps at `2^64`), so only
    /// `mean` degrades for pathological totals; counts, quantiles and
    /// extrema stay exact.
    #[inline]
    pub fn record(&self, v: u64) {
        // ordering: Relaxed — independent statistical cells; each RMW is
        // atomic on its own, and readers (snapshot) tolerate skew between
        // cells by contract. No other memory is published here.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: independent stat cell, see fn-top note
        self.sum.fetch_add(v, Ordering::Relaxed); // ordering: independent stat cell, see fn-top note
        self.min.fetch_min(v, Ordering::Relaxed); // ordering: independent stat cell, see fn-top note
        self.max.fetch_max(v, Ordering::Relaxed); // ordering: independent stat cell, see fn-top note
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state (quiescent snapshots are exact; a snapshot
    /// concurrent with recording may miss in-flight values but never
    /// reports a bucket total above what was recorded).
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed — per-cell copies; the snapshot contract
        // (module docs) already allows missing in-flight values.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            // ordering: Relaxed — same per-cell snapshot contract as the
            // bucket copies above.
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Reset every cell to empty.
    pub fn reset(&self) {
        // ordering: Relaxed — reset between phases; racing records land on
        // either side of it, both acceptable for statistics.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // ordering: phase reset, see fn-top note
        }
        self.count.store(0, Ordering::Relaxed); // ordering: phase reset, see fn-top note
        self.sum.store(0, Ordering::Relaxed); // ordering: phase reset, see fn-top note
        self.min.store(u64::MAX, Ordering::Relaxed); // ordering: phase reset, see fn-top note
        self.max.store(0, Ordering::Relaxed); // ordering: phase reset, see fn-top note
    }
}

/// A point-in-time copy of a [`Histogram`]: plain integers, mergeable,
/// queryable, exportable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (length [`N_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one. Merging is commutative and
    /// associative (bucket-wise addition, min/max of extrema).
    ///
    /// Contract: snapshots with **disjoint** populated buckets merge
    /// losslessly — every bucket count, `count`, `min` and `max` are
    /// exactly what one histogram fed both value streams would hold.
    /// `sum` is modular: it wraps at `2^64` for pathological totals
    /// (e.g. many [`u64::MAX`] values), so `mean` is only meaningful
    /// while the true total fits in a `u64`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value, clamped to the
    /// observed maximum — an estimate at or above the true quantile and
    /// within one bucket width (≤ ~6.25%) of it. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Hand-rolled JSON object (the offline build has no serde):
    /// summary fields plus the non-empty buckets as `[index, low, count]`
    /// triples, so external tooling can rebuild the distribution.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            self.count,
            self.sum,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
        ));
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                s.push_str(&format!("[{}, {}, {}]", i, bucket_low(i), c));
            }
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Every bucket's low is its predecessor's high + 1, and every
        // value maps into a bucket whose [low, high] contains it.
        for i in 1..N_BUCKETS {
            assert_eq!(bucket_low(i), bucket_high(i - 1).wrapping_add(1), "at {i}");
        }
        for v in [0u64, 1, 15, 16, 31, 32, 33, 63, 64, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v={v} i={i}");
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        // Seeded multiplicative walk over the whole u64 range.
        let mut prev_v = 0u64;
        let mut prev_i = bucket_index(0);
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= prev_i, "index dropped between {prev_v} and {v}");
            assert!(i < N_BUCKETS);
            prev_v = v;
            prev_i = i;
            v = v * 3 + 1;
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_low(i), v);
            assert_eq!(bucket_high(i), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / low <= 1/16 for all non-exact buckets.
        for i in (2 * SUBS as usize)..N_BUCKETS - 1 {
            let low = bucket_low(i);
            let width = bucket_high(i) - low + 1;
            assert!(
                (width as f64) / (low as f64) <= 1.0 / 16.0 + 1e-12,
                "bucket {i}: low={low} width={width}"
            );
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        // Quantile estimates sit at or above the true value, within a
        // bucket width.
        for (q, truth) in [(0.5, 500u64), (0.95, 950), (0.99, 990), (1.0, 1000)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "q={q}: est {est} too far above {truth}"
            );
        }
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1 -> min bucket
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        let json = s.to_json();
        assert!(json.contains("\"count\": 0"));
        assert!(json.contains("\"buckets\": []"));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Seeded-loop property test (no proptest offline): three random
        // histograms, merged in every association/order, agree exactly.
        let mut seed = 0x0B5E_D00Du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 17
        };
        for _ in 0..20 {
            let parts: Vec<HistogramSnapshot> = (0..3)
                .map(|_| {
                    let h = Histogram::new();
                    for _ in 0..50 {
                        h.record(next() % (1 << 34));
                    }
                    h.snapshot()
                })
                .collect();
            let merge2 = |x: &HistogramSnapshot, y: &HistogramSnapshot| {
                let mut m = x.clone();
                m.merge(y);
                m
            };
            let ab_c = merge2(&merge2(&parts[0], &parts[1]), &parts[2]);
            let a_bc = merge2(&parts[0], &merge2(&parts[1], &parts[2]));
            let c_ba = merge2(&parts[2], &merge2(&parts[1], &parts[0]));
            assert_eq!(ab_c, a_bc);
            assert_eq!(ab_c, c_ba);
            assert_eq!(ab_c.count, 150);
        }
    }

    #[test]
    fn quantile_on_empty_histogram_is_zero_for_all_q() {
        let s = Histogram::new().snapshot();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0, "q={q}");
        }
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p95(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.min, u64::MAX, "canonical empty min");
        assert_eq!(s.max, 0, "canonical empty max");
    }

    #[test]
    fn merge_of_disjoint_buckets_is_lossless() {
        // Low values and high values land in provably different
        // buckets; merging the two snapshots must equal one histogram
        // that saw both streams, bucket for bucket.
        let low = Histogram::new();
        for v in [1u64, 2, 3, 7] {
            low.record(v);
        }
        let high = Histogram::new();
        for v in [1 << 20, (1 << 20) + 5, 1 << 30] {
            high.record(v);
        }
        let both = Histogram::new();
        for v in [1u64, 2, 3, 7, 1 << 20, (1 << 20) + 5, 1 << 30] {
            both.record(v);
        }
        let (ls, hs) = (low.snapshot(), high.snapshot());
        for (i, &c) in ls.buckets.iter().enumerate() {
            assert!(c == 0 || hs.buckets[i] == 0, "buckets overlap at {i}");
        }
        let mut merged = ls.clone();
        merged.merge(&hs);
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.count, 7);
        assert_eq!(merged.min, 1);
        assert_eq!(merged.max, 1 << 30);
    }

    #[test]
    fn max_value_recording_lands_in_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[N_BUCKETS - 1], 2);
        assert_eq!(s.quantile(1.0), u64::MAX);
        // `sum` is modular by contract: MAX + (MAX-1) + 0 wraps.
        assert_eq!(s.sum, u64::MAX.wrapping_add(u64::MAX - 1));
    }

    #[test]
    fn quantile_bounds_hold_on_seeded_random_data() {
        // Property: for random data, quantile(q) brackets the exact
        // order statistic from above within one bucket.
        let mut seed = 0xFEED_5EEDu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 13
        };
        for round in 0..10 {
            let h = Histogram::new();
            let mut vals: Vec<u64> = (0..500).map(|_| next() % (1 << (10 + round))).collect();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            let s = h.snapshot();
            for q in [0.1, 0.5, 0.9, 0.99] {
                let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let truth = vals[rank - 1];
                let est = s.quantile(q);
                assert!(est >= truth, "round {round} q={q}: {est} < {truth}");
                let hi = bucket_high(bucket_index(truth));
                assert!(est <= hi.min(s.max), "round {round} q={q}: {est} > {hi}");
            }
        }
    }
}
