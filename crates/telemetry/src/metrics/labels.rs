//! Dimensional (labeled) metrics, a fixed-bucket quantile sketch and a
//! virtual-clock windowed aggregator.
//!
//! The unlabeled [`Counter`]/[`Histogram`] handles in the parent module
//! are process-global singletons; multi-tenant serving needs the same
//! signals *per tenant × precision × outcome*.  A [`LabeledCounter`] /
//! [`LabeledHistogram`] is a **family**: a named metric plus a bounded
//! set of [`LabelSet`] points, each backed by the same cheap
//! `Arc`-atomic handle as its unlabeled sibling.  Label sets are
//! canonicalized (keys sorted, duplicates rejected by last-wins) at
//! creation, and snapshots order points lexicographically, so JSON
//! exports are byte-deterministic regardless of registration order — in
//! particular under interleaved registration from the work-stealing
//! pool.
//!
//! [`QuantileSketch`] is an HDR-style log-linear histogram over `u64`
//! samples: each power-of-two octave is split into 16 linear
//! sub-buckets (≈6.25 % relative error), and bucket selection uses only
//! integer shifts — no floats — so two runs that record the same
//! multiset of samples produce bit-identical sketches.  Quantile
//! queries return the *upper bound* of the bucket containing the rank
//! (clamped to the observed min/max), an integer, so p50/p95/p99 land
//! in reports without any float formatting drift.
//!
//! [`WindowedAggregator`] buckets labeled samples into tumbling windows
//! of a fixed width on the engine's **virtual clock** (model cycles,
//! not wall time); one record may carry a count of equal samples.
//! Snapshots are sorted by `(window, labels)`, giving deterministic
//! per-window time series for dashboards and gates.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::{Counter, Histogram, HistogramSnapshot};

// ---------------------------------------------------------------------------
// Label sets
// ---------------------------------------------------------------------------

/// A small, canonical set of `key=value` labels identifying one point of
/// a metric family (e.g. `{outcome=shed, reason=deadline_missed}`).
///
/// Pairs are stored sorted by key with duplicate keys collapsed
/// (last value wins), so two label sets built from differently-ordered
/// slices compare equal, and the derived [`Ord`] is the lexicographic
/// order snapshots and JSON exports use.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelSet(Vec<(String, String)>);

impl LabelSet {
    /// Canonicalizes a slice of `(key, value)` pairs.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut map = BTreeMap::new();
        for (k, v) in pairs {
            map.insert(k.to_string(), v.to_string());
        }
        LabelSet(map.into_iter().collect())
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// The value of label `key`, when present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the set has no labels.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for LabelSet {
    /// Renders `{k=v,k2=v2}` (empty sets render `{}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        f.write_str("}")
    }
}

// ---------------------------------------------------------------------------
// Labeled families
// ---------------------------------------------------------------------------

/// A family of [`Counter`]s keyed by [`LabelSet`].  Cloning shares the
/// family; [`LabeledCounter::with`] hands out the same `Arc`-atomic
/// handle for the same labels, so hot paths pay one relaxed atomic op
/// per update after the first lookup.
#[derive(Debug, Clone, Default)]
pub struct LabeledCounter {
    points: Arc<Mutex<BTreeMap<LabelSet, Counter>>>,
}

impl LabeledCounter {
    /// An empty family.
    pub fn new() -> Self {
        LabeledCounter::default()
    }

    /// The counter at `labels`, created at zero on first use.
    pub fn with(&self, labels: &[(&str, &str)]) -> Counter {
        self.with_set(&LabelSet::new(labels))
    }

    /// The counter at an already-canonical `set`, created at zero on
    /// first use.  Lets a caller reuse a label set built once instead
    /// of re-canonicalizing.
    pub fn with_set(&self, set: &LabelSet) -> Counter {
        let mut g = self.points.lock().expect("labeled counter poisoned");
        g.entry(set.clone()).or_default().clone()
    }

    /// Point-in-time totals, sorted lexicographically by label set.
    pub fn snapshot(&self) -> Vec<(LabelSet, u64)> {
        let g = self.points.lock().expect("labeled counter poisoned");
        g.iter().map(|(s, c)| (s.clone(), c.get())).collect()
    }
}

/// A family of [`Histogram`]s keyed by [`LabelSet`].  All points share
/// the family's bucket bounds.
#[derive(Debug, Clone)]
pub struct LabeledHistogram {
    bounds: Arc<Vec<u64>>,
    points: Arc<Mutex<BTreeMap<LabelSet, Histogram>>>,
}

impl LabeledHistogram {
    /// An empty family whose points all use `bounds`.
    pub fn new(bounds: &[u64]) -> Self {
        LabeledHistogram {
            bounds: Arc::new(bounds.to_vec()),
            points: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The histogram at `labels`, created on first use.
    pub fn with(&self, labels: &[(&str, &str)]) -> Histogram {
        let set = LabelSet::new(labels);
        let mut g = self.points.lock().expect("labeled histogram poisoned");
        g.entry(set)
            .or_insert_with(|| Histogram::with_bounds(&self.bounds))
            .clone()
    }

    /// Point-in-time states, sorted lexicographically by label set.
    pub fn snapshot(&self) -> Vec<(LabelSet, HistogramSnapshot)> {
        let g = self.points.lock().expect("labeled histogram poisoned");
        g.iter().map(|(s, h)| (s.clone(), h.snapshot())).collect()
    }
}

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

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
/// guarantees.  Cloning shares the underlying buckets.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    inner: Arc<SketchInner>,
}

#[derive(Debug)]
struct SketchInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
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
            inner: Arc::new(SketchInner {
                buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let s = &*self.inner;
        s.buckets[sketch_bucket(value)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.min.fetch_min(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Folds `other`'s samples into this sketch: bucket counts, count
    /// and sum add; min/max fold.  Merging is commutative and
    /// associative (each field is a sum or a lattice join), so sketches
    /// recorded per worker can merge in any order and snapshot
    /// identically.  `other` is unchanged.
    pub fn merge_from(&self, other: &QuantileSketch) {
        let s = &*self.inner;
        let o = &*other.inner;
        for (mine, theirs) in s.buckets.iter().zip(&o.buckets) {
            // Most buckets of a small sketch are empty; adding zero is
            // skipped rather than paid as an atomic write.
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        s.count.fetch_add(o.count.load(Ordering::Relaxed), Ordering::Relaxed);
        s.sum.fetch_add(o.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        s.min.fetch_min(o.min.load(Ordering::Relaxed), Ordering::Relaxed);
        s.max.fetch_max(o.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy with the quantiles dashboards read.
    pub fn snapshot(&self) -> SketchSnapshot {
        let s = &*self.inner;
        let count = s.count.load(Ordering::Relaxed);
        let min = if count == 0 { 0 } else { s.min.load(Ordering::Relaxed) };
        let max = s.max.load(Ordering::Relaxed);
        let quantile = |q_num: u64, q_den: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            // rank = ceil(count * q), integer arithmetic, in 1..=count.
            let rank = (count * q_num).div_ceil(q_den).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, b) in s.buckets.iter().enumerate() {
                cumulative += b.load(Ordering::Relaxed);
                if cumulative >= rank {
                    return sketch_upper(i).clamp(min, max);
                }
            }
            max
        };
        SketchSnapshot {
            count,
            sum: s.sum.load(Ordering::Relaxed),
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
    /// Sum of samples (wrapping on overflow, like [`Histogram`]).
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

// ---------------------------------------------------------------------------
// Windowed aggregation
// ---------------------------------------------------------------------------

/// One tumbling window's accumulation for one label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCell {
    /// Samples recorded in the window.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
}

/// Tumbling-window aggregation of labeled samples on a virtual clock.
///
/// Samples are assigned to window `cycle / width`; there is no wall
/// time anywhere, so the series is a pure function of the recorded
/// `(cycle, labels, value)` stream.  Cloning shares the store.
#[derive(Debug, Clone)]
pub struct WindowedAggregator {
    width: u64,
    cells: Arc<Mutex<BTreeMap<(u64, LabelSet), WindowCell>>>,
}

impl WindowedAggregator {
    /// An aggregator with `width_cycles`-wide windows (clamped to ≥ 1).
    pub fn new(width_cycles: u64) -> Self {
        WindowedAggregator {
            width: width_cycles.max(1),
            cells: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The window width in cycles.
    pub fn width_cycles(&self) -> u64 {
        self.width
    }

    /// Records `count` samples, each of `value`, at virtual-clock
    /// `cycle` under `labels` — exactly `count` one-sample records, so
    /// a caller that has already counted equal samples per window
    /// records them in one call.
    pub fn record(&self, cycle: u64, labels: &[(&str, &str)], value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let window = cycle / self.width;
        let key = (window, LabelSet::new(labels));
        let mut g = self.cells.lock().expect("window aggregator poisoned");
        let cell = g.entry(key).or_default();
        cell.count += count;
        cell.sum = cell.sum.wrapping_add(value.wrapping_mul(count));
    }

    /// The per-window series, sorted by `(window, labels)`.  Window
    /// indices multiply back to start cycles via
    /// [`WindowedAggregator::width_cycles`]; empty windows are omitted.
    pub fn snapshot(&self) -> Vec<(u64, LabelSet, WindowCell)> {
        let g = self.cells.lock().expect("window aggregator poisoned");
        g.iter().map(|((w, s), c)| (*w, s.clone(), *c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_sets_canonicalize_order_and_duplicates() {
        let a = LabelSet::new(&[("tenant", "acme"), ("precision", "int8")]);
        let b = LabelSet::new(&[("precision", "int8"), ("tenant", "acme")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{precision=int8,tenant=acme}");
        // Last value wins for duplicate keys.
        let c = LabelSet::new(&[("k", "old"), ("k", "new")]);
        assert_eq!(c.get("k"), Some("new"));
        assert_eq!(LabelSet::new(&[]).to_string(), "{}");
    }

    #[test]
    fn labeled_counters_share_points_by_canonical_labels() {
        let fam = LabeledCounter::new();
        fam.with(&[("outcome", "shed"), ("reason", "deadline_missed")]).inc();
        fam.with(&[("reason", "deadline_missed"), ("outcome", "shed")]).add(2);
        fam.with(&[("outcome", "completed")]).inc();
        let snap = fam.snapshot();
        assert_eq!(snap.len(), 2);
        // Lexicographic by label set: completed < shed.
        assert_eq!(snap[0].0.get("outcome"), Some("completed"));
        assert_eq!(snap[0].1, 1);
        assert_eq!(snap[1].1, 3);
    }

    #[test]
    fn labeled_histograms_share_bounds_across_points() {
        let fam = LabeledHistogram::new(&[10, 100]);
        fam.with(&[("tenant", "a")]).record(5);
        fam.with(&[("tenant", "b")]).record(500);
        let snap = fam.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1.bounds, vec![10, 100]);
        assert_eq!(snap[0].1.buckets, vec![1, 0, 0]);
        assert_eq!(snap[1].1.buckets, vec![0, 0, 1]);
    }

    #[test]
    fn label_ordering_is_stable_under_interleaved_parallel_registration() {
        // Many threads race to register points in different orders; the
        // snapshot must come out in one canonical order regardless.
        let fam = LabeledCounter::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let fam = fam.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let tenant = format!("t{}", (i * 7 + t * 13) % 5);
                        fam.with(&[("tenant", &tenant), ("outcome", "completed")]).inc();
                    }
                });
            }
        });
        let snap = fam.snapshot();
        assert_eq!(snap.len(), 5);
        let names: Vec<_> =
            snap.iter().map(|(s, _)| s.get("tenant").unwrap().to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.iter().map(|(_, v)| v).sum::<u64>(), 400);
    }

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
        let s = QuantileSketch::new();
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
        let s = QuantileSketch::new();
        assert_eq!(s.snapshot(), SketchSnapshot::default());
        s.record(42);
        let one = s.snapshot();
        assert_eq!((one.p50, one.p95, one.p99), (42, 42, 42));
        assert_eq!((one.min, one.max), (42, 42));
        // u64::MAX lands in the last bucket and clamps to max.
        let big = QuantileSketch::new();
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
        let s = QuantileSketch::new();
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
            let s = QuantileSketch::new();
            s.record(v);
            assert_eq!(s.snapshot().p99, v, "2^{k} round-trips");
        }
    }

    #[test]
    fn sketches_are_order_independent() {
        let forward = QuantileSketch::new();
        let reverse = QuantileSketch::new();
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
        let whole = QuantileSketch::new();
        let left = QuantileSketch::new();
        let right = QuantileSketch::new();
        for v in 0..400u64 {
            let sample = v * 131 % 4099;
            whole.record(sample);
            if v % 2 == 0 { left.record(sample) } else { right.record(sample) }
        }
        let ab = QuantileSketch::new();
        ab.merge_from(&left);
        ab.merge_from(&right);
        let ba = QuantileSketch::new();
        ba.merge_from(&right);
        ba.merge_from(&left);
        assert_eq!(ab.snapshot(), ba.snapshot(), "merge must be commutative");
        assert_eq!(ab.snapshot(), whole.snapshot(), "merge must equal direct recording");
    }

    #[test]
    fn sketch_merge_with_an_empty_side_is_the_identity() {
        let s = QuantileSketch::new();
        s.record(7);
        s.record(10_000);
        let before = s.snapshot();
        // Empty into populated: nothing changes (the empty side's
        // u64::MAX min sentinel must not leak in).
        s.merge_from(&QuantileSketch::new());
        assert_eq!(s.snapshot(), before);
        // Populated into empty: the copy snapshots identically.
        let fresh = QuantileSketch::new();
        fresh.merge_from(&s);
        assert_eq!(fresh.snapshot(), before);
        // Empty into empty stays the default snapshot.
        let none = QuantileSketch::new();
        none.merge_from(&QuantileSketch::new());
        assert_eq!(none.snapshot(), SketchSnapshot::default());
    }

    #[test]
    fn window_boundary_samples_land_in_the_later_window() {
        // Windows are half-open [k*width, (k+1)*width): a sample exactly
        // on the boundary opens the next window, never pads the previous.
        let w = WindowedAggregator::new(100);
        w.record(100, &[], 5, 1);
        w.record(200, &[], 7, 1);
        assert_eq!(
            w.snapshot(),
            vec![
                (1, LabelSet::new(&[]), WindowCell { count: 1, sum: 5 }),
                (2, LabelSet::new(&[]), WindowCell { count: 1, sum: 7 }),
            ]
        );
        // The last cycle of a window stays inside it.
        let edge = WindowedAggregator::new(100);
        edge.record(99, &[], 1, 1);
        assert_eq!(edge.snapshot()[0].0, 0);
    }

    #[test]
    fn empty_windows_mid_horizon_are_omitted_not_zero_filled() {
        let w = WindowedAggregator::new(10);
        w.record(5, &[], 1, 1);
        w.record(95, &[], 1, 1);
        let snap = w.snapshot();
        assert_eq!(snap.len(), 2, "gap windows 1..=8 must not materialize");
        assert_eq!((snap[0].0, snap[1].0), (0, 9));
    }

    #[test]
    fn horizon_shorter_than_one_window_collapses_to_window_zero() {
        // Width longer than the whole recorded horizon: every sample
        // shares window 0 and the counts still add up.
        let w = WindowedAggregator::new(1_000_000);
        for cycle in [0, 17, 999, 314_159] {
            w.record(cycle, &[("tenant", "a")], cycle, 1);
        }
        let snap = w.snapshot();
        assert_eq!(snap.len(), 1);
        let (window, _, cell) = &snap[0];
        assert_eq!(*window, 0);
        assert_eq!(cell.count, 4);
        assert_eq!(cell.sum, 17 + 999 + 314_159);
    }

    #[test]
    fn windows_tumble_on_the_virtual_clock() {
        let w = WindowedAggregator::new(100);
        w.record(0, &[("tenant", "a")], 1, 1);
        w.record(99, &[("tenant", "a")], 2, 1);
        w.record(100, &[("tenant", "a")], 3, 1);
        w.record(250, &[("tenant", "b")], 4, 1);
        let snap = w.snapshot();
        assert_eq!(
            snap,
            vec![
                (0, LabelSet::new(&[("tenant", "a")]), WindowCell { count: 2, sum: 3 }),
                (1, LabelSet::new(&[("tenant", "a")]), WindowCell { count: 1, sum: 3 }),
                (2, LabelSet::new(&[("tenant", "b")]), WindowCell { count: 1, sum: 4 }),
            ]
        );
        // Zero width clamps to 1 instead of dividing by zero.
        assert_eq!(WindowedAggregator::new(0).width_cycles(), 1);
    }

    #[test]
    fn a_counted_record_equals_that_many_single_records() {
        let counted = WindowedAggregator::new(64);
        let single = WindowedAggregator::new(64);
        let labels = [("tenant", "a"), ("outcome", "completed")];
        for (cycle, value, count) in [(3, 40, 5), (70, 40, 1), (127, 9, 3), (64, 0, 2), (500, 7, 0)] {
            counted.record(cycle, &labels, value, count);
            for _ in 0..count {
                single.record(cycle, &labels, value, 1);
            }
        }
        assert_eq!(counted.snapshot(), single.snapshot());
        assert_eq!(counted.snapshot()[1].2, WindowCell { count: 6, sum: 40 + 27 });
        // The sum wraps like the one-sample sums it stands for.
        let wrap = WindowedAggregator::new(1);
        wrap.record(0, &[], u64::MAX, 2);
        assert_eq!(wrap.snapshot()[0].2, WindowCell { count: 2, sum: u64::MAX - 1 });
    }
}
