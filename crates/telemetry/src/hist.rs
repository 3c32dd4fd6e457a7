//! Streaming log2-bucketed histograms.
//!
//! A [`Log2Hist`] keeps 65 buckets: bucket 0 counts the value 0, and
//! bucket `k` (1..=64) counts values in `[2^(k-1), 2^k - 1]`, so the
//! top bucket absorbs everything from `2^63` up (saturation). Alongside
//! the buckets it streams exact `count`/`sum`/`min`/`max`, so merging
//! two histograms is bucket-wise addition and is exactly equivalent to
//! histogramming the concatenated sample streams — the property the
//! run-matrix executor relies on when aggregating across SimPoints
//! (and which `tests/hist_merge.rs` property-checks).

use atr_json::Json;

/// Number of buckets: one for zero plus one per power-of-two range.
pub const NUM_HIST_BUCKETS: usize = 65;

/// A mergeable streaming histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// `buckets[0]` counts zeros; `buckets[k]` counts `[2^(k-1), 2^k)`.
    pub buckets: [u64; NUM_HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples (saturating).
    pub sum: u128,
    /// Smallest sample seen (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index a value lands in.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` range of samples a bucket covers.
#[must_use]
pub fn bucket_range(index: usize) -> (u64, u64) {
    assert!(index < NUM_HIST_BUCKETS, "bucket index {index} out of range");
    if index == 0 {
        (0, 0)
    } else if index == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

impl Log2Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Log2Hist { buckets: [0; NUM_HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records the same sample `n` times, exactly as `n` calls of
    /// [`Log2Hist::record`] would.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(u128::from(value) * u128::from(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-th percentile (0.0..=1.0): the
    /// inclusive top of the first bucket whose cumulative count
    /// reaches `ceil(p × count)`. Exact to bucket resolution.
    #[must_use]
    pub fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_range(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Equivalent to having
    /// recorded both sample streams into a single histogram.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact JSON summary: count, sum, min/max, mean, p50/p90/p99
    /// bounds, and the non-empty buckets as `[index, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::Int(i as i64), int(n)]))
            .collect();
        Json::Obj(vec![
            ("count".to_owned(), int(self.count)),
            ("sum".to_owned(), Json::Num(self.sum as f64)),
            ("min".to_owned(), int(if self.count == 0 { 0 } else { self.min })),
            ("max".to_owned(), int(self.max)),
            ("mean".to_owned(), Json::Num(self.mean())),
            ("p50".to_owned(), int(self.percentile_bound(0.50))),
            ("p90".to_owned(), int(self.percentile_bound(0.90))),
            ("p99".to_owned(), int(self.percentile_bound(0.99))),
            ("buckets".to_owned(), Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        for i in 0..NUM_HIST_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn record_tracks_exact_stats() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1033);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[11], 1);
        assert!((h.mean() - 1033.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_bound_is_monotone_and_bucket_exact() {
        let mut h = Log2Hist::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile_bound(0.0), 0);
        // p50 over 0..99: the 50th sample is 49, bucket [32,63].
        assert_eq!(h.percentile_bound(0.5), 63);
        assert_eq!(h.percentile_bound(1.0), 99); // clamped to max
        assert!(h.percentile_bound(0.9) <= h.percentile_bound(0.99));
    }

    #[test]
    fn empty_hist_is_benign() {
        let h = Log2Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile_bound(0.99), 0);
        let j = h.to_json().pretty();
        assert!(j.contains("\"count\": 0"));
    }

    #[test]
    fn bulk_recording_matches_repeated_single_records() {
        let mut one = Log2Hist::new();
        let mut bulk = Log2Hist::new();
        for (value, n) in [(0u64, 3u64), (17, 0), (17, 5), (1 << 40, 2)] {
            for _ in 0..n {
                one.record(value);
            }
            bulk.record_n(value, n);
        }
        assert_eq!(one, bulk);
    }
}
