//! Small helpers: order statistics, output digests and peak RSS.

use std::fmt;
use std::hash::Hasher;

use bsc_telemetry::{parse_json, JsonValue};

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it, as `(percentile, value)`: by nearest rank, except that p50
/// is the [`median`]; the maximum (`100.0`) when the sample is too small
/// for any of them.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (100.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Percentiles in per-mille, so the rank arithmetic is exact.
    for q in [999, 990, 900, 500] {
        let rank = (q * n).div_ceil(1000).max(1);
        if n - rank >= 10 {
            let value = if q == 500 { median(&v) } else { v[rank - 1] };
            return (q as f64 / 10.0, value);
        }
    }
    (100.0, v[v.len() - 1])
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, usable as a `Hasher` and as a `fmt::Write` sink so keys
/// can be hashed from their `Debug` form without allocating.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// Digest of a byte-deterministic document.
pub fn digest_str(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(text.as_bytes());
    h.finish()
}

/// Object keys left out of digests: wall-clock-era values (`*_ns`
/// durations, span correlation IDs) and the process-wide characterization
/// cache counters, which grow with every run in one process.
fn run_dependent_key(key: &str) -> bool {
    key.ends_with("_ns")
        || matches!(
            key,
            "span"
                | "parent_span"
                | "engine.cache.hits"
                | "engine.cache.misses"
                | "telemetry.characterize.runs"
        )
}

fn digest_value(v: &JsonValue, h: &mut Fnv) {
    match v {
        JsonValue::Null => h.write_u8(0),
        JsonValue::Bool(b) => h.write_u8(1 + u8::from(*b)),
        JsonValue::Number(n) => {
            h.write_u8(3);
            h.write_u64(n.to_bits());
        }
        JsonValue::String(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
            h.write_u8(0xff);
        }
        JsonValue::Array(items) => {
            h.write_u8(5);
            h.write_usize(items.len());
            for item in items {
                digest_value(item, h);
            }
        }
        JsonValue::Object(members) => {
            h.write_u8(6);
            for (k, item) in members.iter().filter(|(k, _)| !run_dependent_key(k)) {
                h.write(k.as_bytes());
                h.write_u8(0xff);
                digest_value(item, h);
            }
        }
    }
}

/// Digest of a JSON document (or of every line of a JSON-lines document)
/// with its run-dependent fields left out.
///
/// # Errors
///
/// Returns the parser's message when a document or line is not strict JSON.
pub fn digest_json(text: &str, lines: bool) -> Result<u64, String> {
    let mut h = Fnv::default();
    let docs: Vec<&str> = if lines {
        text.lines().collect()
    } else {
        vec![text]
    };
    for doc in docs {
        let v = parse_json(doc).map_err(|e| format!("export is not strict JSON: {e}"))?;
        digest_value(&v, &mut h);
    }
    Ok(h.finish())
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_the_sample_size_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Fewer than 20 samples: no percentile has ten beyond it.
        assert_eq!(tail(&[1.0, 5.0, 3.0]), (100.0, 5.0));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), (50.0, 20.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
    }

    #[test]
    fn json_digest_ignores_wall_clock_fields_only() {
        let a = digest_json(r#"{"x":1,"run_ns":5,"span":3}"#, false).unwrap();
        let b = digest_json(r#"{"x":1,"run_ns":9,"span":4}"#, false).unwrap();
        let c = digest_json(r#"{"x":2,"run_ns":5,"span":3}"#, false).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(digest_json("{\"x\":1}\n{\"y\":2}", true).is_ok());
        assert!(digest_json("{\"x\":1", false).is_err());
    }
}
