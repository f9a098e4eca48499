//! Plain single-owner histograms and quantile sketches.
//!
//! [`HistogramSnapshot`] is a fixed-bucket histogram over `u64` samples
//! (cycles, nanoseconds) that its owner records into through `&mut self`;
//! [`sketch::QuantileSketch`] is the HDR-style sketch behind per-tenant
//! latency quantiles.  Both are plain data: a loop that owns its samples
//! records them directly, and a report carries the result.

pub mod sketch;

pub use sketch::{QuantileSketch, SketchSnapshot};

/// A fixed-bucket histogram over `u64` samples (cycles, nanoseconds),
/// recorded into by its single owner.  Bucket `i` counts the samples
/// `<= bounds[i]` (and greater than the previous bound); the final bucket
/// is the overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1` (overflow last).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples (wrapping).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty histogram over `bounds`, sorted and deduplicated.
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = vec![0; bounds.len() + 1];
        HistogramSnapshot { bounds, buckets, count: 0, sum: 0, min: 0, max: 0 }
    }

    /// Records one sample into its bucket, with a wrapping sum and `min`
    /// and `max` kept exact (both 0 while empty).
    pub fn record(&mut self, value: u64) {
        self.buckets[self.bounds.partition_point(|&b| b < value)] += 1;
        self.min = if self.count == 0 { value } else { self.min.min(value) };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value of the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the bucket containing it.  The first bucket
    /// interpolates from `min`, the overflow bucket toward `max`, so the
    /// estimate is always inside `[min, max]`.
    ///
    /// Returns `None` for an empty histogram — there is no quantile of
    /// nothing, and the previous silent `0.0` was indistinguishable from
    /// a real all-zero distribution.  Callers that want the old sentinel
    /// spell it `percentile(q).unwrap_or(0.0)`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.buckets.iter().enumerate() {
            let next = cumulative + bucket_count;
            if (next as f64) >= rank && bucket_count > 0 {
                // Bucket i spans (lower, upper]; interpolate the rank's
                // position within it.
                let lower = if i == 0 {
                    self.min as f64
                } else {
                    self.bounds[i - 1] as f64
                };
                let upper = if i < self.bounds.len() {
                    (self.bounds[i] as f64).min(self.max as f64)
                } else {
                    self.max as f64
                };
                let lower = lower.max(self.min as f64).min(upper);
                let frac = (rank - cumulative as f64) / bucket_count as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        Some(self.max as f64)
    }

    /// The p50 (median) estimate, `None` when empty — see
    /// [`HistogramSnapshot::percentile`].
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// The p95 estimate, `None` when empty — see
    /// [`HistogramSnapshot::percentile`].
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// The p99 estimate, `None` when empty — see
    /// [`HistogramSnapshot::percentile`].
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }
}

/// Default nanosecond bucket bounds for wall-clock timings: 1 µs to
/// 10 s in decades.
pub const DEFAULT_TIME_BOUNDS_NS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(bounds: &[u64], samples: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::new(bounds);
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn histogram_buckets_partition_samples() {
        let hs = recorded(&[10, 100], &[1, 10, 11, 100, 101, 5000]);
        assert_eq!(hs.bounds, vec![10, 100]);
        assert_eq!(hs.buckets, vec![2, 2, 2]); // <=10, <=100, overflow
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1 + 10 + 11 + 100 + 101 + 5000);
        assert_eq!(hs.min, 1);
        assert_eq!(hs.max, 5000);
        assert!((hs.mean() - hs.sum as f64 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        // 100 samples spread 1..=100: p50 ≈ 50, p99 ≈ 99.
        let samples: Vec<u64> = (1..=100).collect();
        let hs = recorded(&[10, 100, 1000], &samples);
        let p50 = hs.p50().unwrap();
        let p99 = hs.p99().unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 = {p50}");
        assert!((90.0..=100.0).contains(&p99), "p99 = {p99}");
        assert!(hs.p95().unwrap() <= p99 + 1e-9);
        // Bounded by the observed extremes even in the overflow bucket.
        let hs = recorded(&[10], &[5000, 7000]);
        assert!(hs.p50().unwrap() >= 5000.0 && hs.p99().unwrap() <= 7000.0, "{hs:?}");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let hs = HistogramSnapshot::new(&[10]);
        // Explicit: there is no quantile of nothing.
        assert_eq!(hs.percentile(0.5), None);
        assert_eq!(hs.p50(), None);
        assert_eq!(hs.p95(), None);
        assert_eq!(hs.p99(), None);
        assert_eq!(hs.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_the_sample() {
        let hs = recorded(&[10, 100], &[37]);
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(hs.percentile(q), Some(37.0), "q = {q}");
        }
    }

    #[test]
    fn saturating_counts_keep_percentiles_in_range() {
        // The sum wraps, but quantile estimates must stay inside
        // [min, max] even when the sum has overflowed.
        let hs = recorded(&[1 << 32], &[u64::MAX, u64::MAX - 1, 5]);
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 2, "(2^64 - 1) + (2^64 - 2) + 5 wraps to 2");
        assert_eq!(hs.min, 5);
        assert_eq!(hs.max, u64::MAX);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = hs.percentile(q).unwrap();
            assert!(
                (hs.min as f64..=hs.max as f64).contains(&p),
                "q = {q} escaped [min, max]: {p}"
            );
        }
    }

    #[test]
    fn bounds_canonicalize_and_every_sample_lands_in_one_bucket() {
        // Unsorted, duplicated bounds canonicalize to [10, 100].  Cases:
        // empty (min and max 0), one sample, the overflow bucket, a sum
        // that wraps, and seeded samples across every bucket, each
        // against its buckets, count, sum and extremes counted by hand.
        let raw = [100, 10, 100, 10];
        let mut state = 0x5EED_CAFE_u64;
        let seeded: Vec<u64> = (0..500)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 150
            })
            .collect();
        let want = |buckets: Vec<u64>, count, sum, min, max| HistogramSnapshot {
            bounds: vec![10, 100],
            buckets,
            count,
            sum,
            min,
            max,
        };
        let seeded_buckets = vec![
            seeded.iter().filter(|&&v| v <= 10).count() as u64,
            seeded.iter().filter(|&&v| v > 10 && v <= 100).count() as u64,
            seeded.iter().filter(|&&v| v > 100).count() as u64,
        ];
        let (lo, hi) = (*seeded.iter().min().unwrap(), *seeded.iter().max().unwrap());
        let cases: [(&[u64], HistogramSnapshot); 5] = [
            (&[], want(vec![0, 0, 0], 0, 0, 0, 0)),
            (&[37], want(vec![0, 1, 0], 1, 37, 37, 37)),
            (&[5000, 101, 7], want(vec![1, 0, 2], 3, 5108, 7, 5000)),
            (&[u64::MAX, u64::MAX - 1, 5], want(vec![1, 0, 2], 3, 2, 5, u64::MAX)),
            (&seeded, want(seeded_buckets, 500, seeded.iter().sum(), lo, hi)),
        ];
        for (samples, want) in cases {
            let hs = recorded(&raw, samples);
            assert_eq!(hs, want, "{samples:?}");
        }
    }
}
