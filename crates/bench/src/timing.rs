//! Minimal self-timed micro-benchmark harness (the offline replacement
//! for criterion).
//!
//! Every `benches/*.rs` target is a plain `harness = false` binary that
//! drives this module: a [`Group`] runs each measured body a warmup pass
//! plus `samples` timed passes, records every sample into a
//! [`HistogramSnapshot`], and prints one aligned summary line per
//! benchmark (mean / min / max wall-clock time).  No statistics beyond
//! that — the goal is a stable smoke-level timing signal that builds with
//! zero external dependencies, not criterion's rigor.

use std::hint::black_box;
use std::time::Instant;

use bsc_telemetry::HistogramSnapshot;

/// Default timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 10;

/// Nanosecond bucket bounds used for the per-benchmark histograms
/// (1 µs … 10 s in decades).
const SAMPLE_BOUNDS_NS: &[u64] = bsc_telemetry::metrics::DEFAULT_TIME_BOUNDS_NS;

/// A named collection of related benchmarks, printed under a common
/// prefix.
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// A group printing benchmarks as `name/<id>`.
    pub fn new(name: &str) -> Self {
        Group { name: name.to_string(), samples: DEFAULT_SAMPLES }
    }

    /// Overrides the number of timed samples.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Runs and reports one benchmark.  The closure's return value is
    /// passed through [`black_box`] so the optimizer cannot delete the
    /// measured work.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) -> Summary {
        let mut h = HistogramSnapshot::new(SAMPLE_BOUNDS_NS);
        black_box(f()); // warmup (and fail fast on panics)
        for _ in 0..self.samples {
            let t = Instant::now();
            black_box(f());
            h.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let summary = Summary {
            name: format!("{}/{id}", self.name),
            samples: h.count,
            mean_ns: h.mean(),
            min_ns: h.min,
            max_ns: h.max,
        };
        println!("{summary}");
        summary
    }
}

/// Aggregated timing of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// `group/benchmark` identifier.
    pub name: String,
    /// Timed samples taken.
    pub samples: u64,
    /// Mean wall-clock nanoseconds per sample.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
}

/// Renders nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} mean {:>12}   min {:>12}   max {:>12}   ({} samples)",
            self.name,
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns as f64),
            fmt_ns(self.max_ns as f64),
            self.samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_warmup_plus_samples() {
        let mut calls = 0u32;
        let mut g = Group::new("t");
        g.sample_size(3);
        let s = g.bench("count", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4); // 1 warmup + 3 samples
        assert_eq!(s.samples, 3);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.mean_ns >= s.min_ns as f64 && s.mean_ns <= s.max_ns as f64);
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(12_500.0), "12.500 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.500 ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.000 s");
    }
}
