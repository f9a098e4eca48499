//! A fixed-bucket quantile sketch.
//!
//! [`QuantileSketch`] is an HDR-style log-linear histogram over `u64`
//! samples: each power-of-two octave is split into 16 linear
//! sub-buckets (≈6.25 % relative error), and bucket selection uses only
//! integer shifts — no floats — so two runs that record the same
//! multiset of samples produce bit-identical sketches.  Quantile
//! queries return the *upper bound* of the bucket containing the rank
//! (clamped to the observed min/max), an integer, so p50/p95/p99 land
//! in reports without any float formatting drift.  A sketch is plain
//! single-owner data: it records and merges through `&mut self`.

/// Sub-buckets per power-of-two octave: 16 (4 bits), ≈6.25 % relative
/// bucket width.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total fixed buckets: `SUB` exact small-value buckets plus
/// `(64 - SUB_BITS) × SUB` log-linear buckets — covers all of `u64`.
const SKETCH_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// The bucket index of `v`: identity below [`SUB`], log-linear above.
/// Integer shifts only — no floats — so the mapping is exact and
/// platform-independent.
fn sketch_bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS) as u64;
    let sub = (v >> (msb - SUB_BITS)) - SUB; // 0..SUB
    (SUB + octave * SUB + sub) as usize
}

/// The largest value mapping into bucket `idx` (its inclusive upper
/// bound) — the representative a quantile query reports.
///
/// Near the top of the `u64` range both the `(SUB + sub) << octave`
/// lower bound and the `(1 << octave) - 1` bucket width sit against the
/// edge of the integer: the final bucket's bound is *exactly*
/// `u64::MAX`.  Both shifts saturate instead of wrapping, so an
/// out-of-range index can only ever report `u64::MAX`, never a tiny
/// wrapped value that would corrupt a quantile.
fn sketch_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let octave = (idx - SUB) / SUB;
    let sub = (idx - SUB) % SUB;
    let base = SUB + sub; // 16..=31: five significant bits
    let lower = if octave as u32 <= base.leading_zeros() {
        base << octave
    } else {
        u64::MAX
    };
    let width = if octave >= 64 { u64::MAX } else { (1u64 << octave) - 1 };
    lower.saturating_add(width)
}

/// A fixed-bucket log-linear (HDR-style) quantile sketch over `u64`
/// samples.  See the module docs for the bucket scheme and determinism
/// guarantees.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    /// Sum of samples, wrapping on overflow.
    sum: u64,
    /// Smallest sample (`u64::MAX` until the first record).
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[sketch_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other`'s samples into this sketch: bucket counts, count
    /// and sum add; min/max fold.  Merging is commutative and
    /// associative (each field is a sum or a lattice join), so sketches
    /// recorded separately can merge in any order and snapshot
    /// identically.
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A point-in-time copy with the quantiles dashboards read.
    pub fn snapshot(&self) -> SketchSnapshot {
        let count = self.count;
        let min = if count == 0 { 0 } else { self.min };
        let max = self.max;
        let quantile = |q_num: u64, q_den: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // rank = ceil(count * q), integer arithmetic, in 1..=count.
            let rank = (count * q_num).div_ceil(q_den).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, b) in self.buckets.iter().enumerate() {
                cumulative += b;
                if cumulative >= rank {
                    return sketch_upper(i).clamp(min, max);
                }
            }
            max
        };
        SketchSnapshot {
            count,
            sum: self.sum,
            min,
            max,
            p50: quantile(1, 2),
            p95: quantile(19, 20),
            p99: quantile(99, 100),
        }
    }
}

/// Point-in-time copy of a [`QuantileSketch`].  All fields are integers
/// (quantiles report bucket upper bounds), so the snapshot serializes
/// without float formatting concerns and derives [`Eq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SketchSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_buckets_are_monotone_and_invertible() {
        // Exact below SUB; upper bounds bracket every probe value.
        for v in 0..SUB {
            assert_eq!(sketch_bucket(v), v as usize);
            assert_eq!(sketch_upper(v as usize), v);
        }
        let probes = [
            16, 17, 31, 32, 33, 63, 64, 100, 1000, 4096, 65535, 1 << 30,
            (1 << 40) + 12345, u64::MAX - 1, u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let b = sketch_bucket(v);
            assert!(b >= last, "bucket index must be monotone in value");
            last = b;
            assert!(sketch_upper(b) >= v, "upper({b}) must bound {v}");
            assert!(b < SKETCH_BUCKETS);
            // Relative width of the bucket is at most 1/SUB above the
            // linear range.
            if v >= SUB {
                let upper = sketch_upper(b);
                assert!(upper - v <= upper / SUB, "bucket too wide at {v}");
            }
        }
    }

    #[test]
    fn sketch_quantiles_bracket_exact_ranks() {
        let mut s = QuantileSketch::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        // ≈6.25 % relative bucket error, upper-bound biased.
        assert!((500..=532).contains(&snap.p50), "p50 = {}", snap.p50);
        assert!((950..=1000).contains(&snap.p95), "p95 = {}", snap.p95);
        assert!((990..=1000).contains(&snap.p99), "p99 = {}", snap.p99);
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
    }

    #[test]
    fn sketch_edge_cases_empty_single_and_extreme() {
        let mut s = QuantileSketch::new();
        assert_eq!(s.snapshot(), SketchSnapshot::default());
        s.record(42);
        let one = s.snapshot();
        assert_eq!((one.p50, one.p95, one.p99), (42, 42, 42));
        assert_eq!((one.min, one.max), (42, 42));
        // u64::MAX lands in the last bucket and clamps to max.
        let mut big = QuantileSketch::new();
        big.record(u64::MAX);
        big.record(0);
        let snap = big.snapshot();
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.p99, u64::MAX);
    }

    #[test]
    fn sketch_upper_saturates_at_the_top_of_the_u64_range() {
        // The final bucket's inclusive upper bound is exactly u64::MAX —
        // the shifts sit against the edge of the integer and must not
        // wrap to a tiny value.
        assert_eq!(sketch_upper(SKETCH_BUCKETS - 1), u64::MAX);
        // Out-of-range indexes (impossible from sketch_bucket, but the
        // saturation contract covers them) also pin to u64::MAX.
        assert_eq!(sketch_upper(SKETCH_BUCKETS), u64::MAX);
        assert_eq!(sketch_upper(SKETCH_BUCKETS + 64 * 16), u64::MAX);
        // Recording the two largest representable values keeps every
        // quantile at the top instead of wrapping.
        let mut s = QuantileSketch::new();
        s.record(u64::MAX);
        s.record(u64::MAX - 1);
        let snap = s.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, u64::MAX - 1);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.p50, u64::MAX);
        assert_eq!(snap.p99, u64::MAX);
    }

    #[test]
    fn sketch_upper_brackets_every_octave_boundary() {
        // For every power-of-two boundary in the log-linear range, the
        // bucket holding it bounds it from above and the previous bucket
        // ends exactly one below it.
        for k in SUB_BITS..64 {
            let v = 1u64 << k;
            let b = sketch_bucket(v);
            assert!(sketch_upper(b) >= v, "upper(bucket(2^{k})) must cover 2^{k}");
            assert_eq!(sketch_upper(b - 1), v - 1, "bucket below 2^{k} ends at 2^{k}-1");
            // A sketch holding only the boundary reports it exactly
            // (upper bound clamped to [min, max]).
            let mut s = QuantileSketch::new();
            s.record(v);
            assert_eq!(s.snapshot().p99, v, "2^{k} round-trips");
        }
    }

    #[test]
    fn sketches_are_order_independent() {
        let mut forward = QuantileSketch::new();
        let mut reverse = QuantileSketch::new();
        for v in 0..500u64 {
            forward.record(v * 17 % 499);
            reverse.record((499 - v) * 17 % 499);
        }
        assert_eq!(forward.snapshot(), reverse.snapshot());
    }

    #[test]
    fn sketch_merge_is_commutative_and_matches_single_recording() {
        // Per-worker sketches merged in either order snapshot identically
        // to one sketch that saw every sample.
        let mut whole = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for v in 0..400u64 {
            let sample = v * 131 % 4099;
            whole.record(sample);
            if v % 2 == 0 { left.record(sample) } else { right.record(sample) }
        }
        let mut ab = QuantileSketch::new();
        ab.merge_from(&left);
        ab.merge_from(&right);
        let mut ba = QuantileSketch::new();
        ba.merge_from(&right);
        ba.merge_from(&left);
        assert_eq!(ab.snapshot(), ba.snapshot(), "merge must be commutative");
        assert_eq!(ab.snapshot(), whole.snapshot(), "merge must equal direct recording");
    }

    #[test]
    fn sketch_merge_with_an_empty_side_is_the_identity() {
        let mut s = QuantileSketch::new();
        s.record(7);
        s.record(10_000);
        let before = s.snapshot();
        // Empty into populated: nothing changes (the empty side's
        // u64::MAX min sentinel must not leak in).
        s.merge_from(&QuantileSketch::new());
        assert_eq!(s.snapshot(), before);
        // Populated into empty: the copy snapshots identically.
        let mut fresh = QuantileSketch::new();
        fresh.merge_from(&s);
        assert_eq!(fresh.snapshot(), before);
        // Empty into empty stays the default snapshot.
        let mut none = QuantileSketch::new();
        none.merge_from(&QuantileSketch::new());
        assert_eq!(none.snapshot(), SketchSnapshot::default());
    }
}
