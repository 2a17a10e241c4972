//! Order statistics used by every metric: percentiles, quartiles, and the
//! median-over-slices summary the end-to-end metrics are reported as.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p` of the sample at or below it. `p` in
/// `(0, 1]`; an empty sample yields 0.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (mean of the two middle elements when the
/// count is even); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, which is what the
/// driver uses to judge run-to-run spread. Fewer than two values yield
/// `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// A metric reported as the median over measurement slices, with the
/// slice spread and count printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the slices.
    pub median: f64,
    /// First quartile over the slices.
    pub q1: f64,
    /// Third quartile over the slices.
    pub q3: f64,
    /// Number of slices (or repetitions) summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise one value per slice.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// `part / whole`, or 0 when the whole is 0 (a leg that did no such
/// work reports a zero ratio rather than NaN, which JSON cannot carry).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.51), 3);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn slice_summary_is_median_with_spread_and_count() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!(s.n, 5);
        assert!(s.iqr() > 0.0 && s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
