//! Metrics registry: named counters, gauges, fixed-bucket histograms and
//! scoped wall-clock timers.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones over atomics, so instrumented hot loops pay one relaxed atomic
//! op per update and never take the registry lock.  The [`Registry`] lock
//! is only held during registration and snapshotting.

pub mod labels;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use labels::{LabelSet, LabeledCounter, QuantileSketch, SketchSnapshot};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, in-flight tiles, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets (sorted ascending); an implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// One count per finite bucket plus the trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Running minimum/maximum (u64::MAX / 0 until the first record).
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram over `u64` samples (cycles, nanoseconds,
/// element counts).  Bucket `i` counts samples `<= bounds[i]` (and greater
/// than the previous bound); the final bucket is the overflow.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len() + 1;
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: sorted,
                buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let h = &*self.inner;
        let idx = h.bounds.partition_point(|&b| b < value);
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds a pre-bucketed batch of samples into this histogram —
    /// equivalent to calling [`Histogram::record`] once per sample.  A
    /// hot loop can bucket its samples in plain integers and merge them
    /// once, taking no atomic per sample.  `bounds` must equal the
    /// histogram's own canonical (sorted, deduped) bounds, and each
    /// sample goes to bucket `bounds.partition_point(|&b| b < sample)`,
    /// as in [`Histogram::record`].  `sum` wraps like the atomic sum,
    /// `min`/`max` are the batch extremes, and `count` must be non-zero
    /// so the empty-batch min sentinel never leaks in.
    pub fn merge_bucketed(
        &self,
        bounds: &[u64],
        buckets: &[u64],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) {
        let h = &*self.inner;
        assert_eq!(h.bounds, bounds, "bucketed merge requires identical bounds");
        assert_eq!(h.buckets.len(), buckets.len());
        assert!(count > 0, "empty batches must be skipped by the caller");
        for (mine, &theirs) in h.buckets.iter().zip(buckets) {
            if theirs != 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(count, Ordering::Relaxed);
        h.sum.fetch_add(sum, Ordering::Relaxed);
        h.min.fetch_min(min, Ordering::Relaxed);
        h.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.inner;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: h.bounds.clone(),
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { h.min.load(Ordering::Relaxed) },
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1` (overflow last).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
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

/// Point-in-time copy of every metric in a [`Registry`], with names sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram states by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Labeled counter families by name; points sorted lexicographically
    /// by label set, so serialization is byte-deterministic no matter
    /// which worker registered which point first.
    pub labeled_counters: Vec<(String, Vec<(LabelSet, u64)>)>,
}

impl MetricsSnapshot {
    /// The total of the named counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The level of the named gauge, or 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The points of the named labeled counter family (empty when the
    /// family is absent).
    pub fn labeled_counter(&self, name: &str) -> &[(LabelSet, u64)] {
        self.labeled_counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, pts)| pts.as_slice())
            .unwrap_or(&[])
    }

    /// The total of one point of a labeled counter family, or 0 when the
    /// family or point is absent.
    pub fn labeled_counter_at(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let set = LabelSet::new(labels);
        self.labeled_counter(name)
            .iter()
            .find(|(s, _)| *s == set)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// A copy without the wall-clock timer histograms (names ending in
    /// `_ns`) — the one intentionally non-deterministic signal.  Used by
    /// the `repro --no-timers` determinism path so repeated runs
    /// serialize to byte-identical JSON.
    #[must_use]
    pub fn without_timers(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| !n.ends_with("_ns"))
                .cloned()
                .collect(),
            labeled_counters: self.labeled_counters.clone(),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    labeled_counters: BTreeMap<String, LabeledCounter>,
}

/// A named collection of metrics.  Cloning shares the underlying store, so
/// one registry can be threaded through the compiler, array and simulator
/// layers and snapshotted once at the end of a run.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &g.counters.len())
            .field("gauges", &g.gauges.len())
            .field("histograms", &g.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, creating it with `bounds` on first use.
    /// (Later calls reuse the existing buckets; `bounds` is then ignored.)
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// The labeled counter family named `name`, created empty on first
    /// use.  Points are addressed with
    /// [`LabeledCounter::with`]: `reg.labeled_counter("engine.jobs")
    /// .with(&[("outcome", "shed"), ("reason", "deadline_missed")])`.
    pub fn labeled_counter(&self, name: &str) -> LabeledCounter {
        let mut g = self.inner.lock().expect("registry poisoned");
        g.labeled_counters.entry(name.to_string()).or_default().clone()
    }

    /// Starts a wall-clock timer whose elapsed nanoseconds are recorded
    /// into the histogram `name` when the returned guard drops.
    pub fn timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer {
            hist: self.histogram(name, DEFAULT_TIME_BOUNDS_NS),
            start: Instant::now(),
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: g.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: g.gauges.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            labeled_counters: g
                .labeled_counters
                .iter()
                .map(|(n, f)| (n.clone(), f.snapshot()))
                .collect(),
        }
    }
}

/// Default nanosecond bucket bounds for [`Registry::timer`]: 1 µs to 10 s
/// in decades.
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

/// Records wall-clock elapsed time into a histogram on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    hist: Histogram,
    start: Instant,
}

impl ScopedTimer {
    /// Nanoseconds elapsed so far (without stopping the timer).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("pe.fired");
        let b = reg.counter("pe.fired");
        a.inc();
        b.add(4);
        assert_eq!(reg.snapshot().counter("pe.fired"), 5);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let reg = Registry::new();
        let g = reg.gauge("tiles.in_flight");
        g.set(3);
        g.add(-1);
        assert_eq!(reg.snapshot().gauge("tiles.in_flight"), 2);
    }

    #[test]
    fn histogram_buckets_partition_samples() {
        let reg = Registry::new();
        let h = reg.histogram("cycles", &[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("cycles").unwrap();
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
        let reg = Registry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        // 100 samples spread 1..=100: p50 ≈ 50, p99 ≈ 99.
        for v in 1..=100 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        let p50 = hs.p50().unwrap();
        let p99 = hs.p99().unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 = {p50}");
        assert!((90.0..=100.0).contains(&p99), "p99 = {p99}");
        assert!(hs.p95().unwrap() <= p99 + 1e-9);
        // Bounded by the observed extremes even in the overflow bucket.
        let hb = reg.histogram("big", &[10]);
        hb.record(5000);
        hb.record(7000);
        let snap = reg.snapshot();
        let hs = snap.histogram("big").unwrap();
        assert!(hs.p50().unwrap() >= 5000.0 && hs.p99().unwrap() <= 7000.0, "{hs:?}");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let reg = Registry::new();
        let _ = reg.histogram("empty", &[10]);
        let snap = reg.snapshot();
        let hs = snap.histogram("empty").unwrap();
        // Explicit: there is no quantile of nothing.
        assert_eq!(hs.percentile(0.5), None);
        assert_eq!(hs.p50(), None);
        assert_eq!(hs.p95(), None);
        assert_eq!(hs.p99(), None);
        assert_eq!(hs.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_the_sample() {
        let reg = Registry::new();
        reg.histogram("one", &[10, 100]).record(37);
        let snap = reg.snapshot();
        let hs = snap.histogram("one").unwrap();
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(hs.percentile(q), Some(37.0), "q = {q}");
        }
    }

    #[test]
    fn saturating_counts_keep_percentiles_in_range() {
        // Sums wrap (relaxed atomics), but quantile estimates must stay
        // inside [min, max] even when the sum has overflowed.
        let reg = Registry::new();
        let h = reg.histogram("huge", &[1 << 32]);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(5);
        let snap = reg.snapshot();
        let hs = snap.histogram("huge").unwrap();
        assert_eq!(hs.count, 3);
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
    fn without_timers_drops_ns_histograms_only() {
        let reg = Registry::new();
        reg.counter("kept").inc();
        reg.histogram("phase.load_ns", &[10]).record(1);
        reg.histogram("cycles", &[10]).record(1);
        let snap = reg.snapshot().without_timers();
        assert_eq!(snap.counter("kept"), 1);
        assert!(snap.histogram("phase.load_ns").is_none());
        assert!(snap.histogram("cycles").is_some());
    }

    #[test]
    fn cloned_registries_share_storage() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        reg.counter("x").inc();
        reg2.counter("x").inc();
        assert_eq!(reg.snapshot().counter("x"), 2);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let reg = Registry::new();
        {
            let _t = reg.timer("phase.load");
        }
        let snap = reg.snapshot();
        let h = snap.histogram("phase.load").unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn bucketed_merge_equals_recording_each_sample() {
        // Both histograms already hold a sample, and their unsorted,
        // duplicated bounds canonicalize to [10, 100].
        let raw = [100, 10, 100, 10];
        let direct = Registry::new();
        let merged = Registry::new();
        direct.histogram("h", &raw).record(7);
        merged.histogram("h", &raw).record(7);
        let samples = [0u64, 10, 11, 100, 5000, 42, u64::MAX];
        let bounds = [10, 100];
        let mut buckets = [0u64; 3];
        for &v in &samples {
            direct.histogram("h", &raw).record(v);
            buckets[bounds.partition_point(|&b| b < v)] += 1;
        }
        let sum = samples.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        let (min, max) = (*samples.iter().min().unwrap(), *samples.iter().max().unwrap());
        merged.histogram("h", &raw).merge_bucketed(
            &bounds,
            &buckets,
            samples.len() as u64,
            sum,
            min,
            max,
        );
        assert_eq!(merged.snapshot(), direct.snapshot());
        assert_eq!(merged.snapshot().histogram("h").unwrap().count, 8);
    }

    #[test]
    fn snapshot_names_are_sorted() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
