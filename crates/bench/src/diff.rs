//! The `repro diff` regression observatory: field-by-field comparison of
//! two benchmark/metrics JSON documents with configurable relative
//! tolerances.
//!
//! Both documents are parsed with the in-repo RFC 8259 parser and
//! flattened to dotted numeric paths
//! (`designs[BSC-L4].cycles`, `metrics.counters.repro.layer.fc2.cycles`,
//! ...; an array whose elements' labels repeat keeps `[i]` indices), so
//! the diff works on any JSON the harness emits — `BENCH_sim.json`,
//! `--metrics-out` payloads, or hand-edited baselines.  Wall-clock
//! fields are machine-dependent, so paths matching the default ignore
//! patterns (`*_ns`, `*_per_sec`, `speedup`) are reported but never
//! gated; deterministic fields (cycles, tape ops, event counts) fail
//! the diff when they drift beyond the tolerance in either direction,
//! or when they disappear from the current document.  A field that is
//! new in the current document only warns, so additive regenerations
//! still pass.

use std::collections::BTreeMap;

use bsc_telemetry::json::{parse_json, JsonParseError};

/// Comparison policy for [`diff_documents`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Maximum allowed relative drift, e.g. `0.05` for ±5 %.
    pub tolerance: f64,
    /// Glob-lite patterns (`*` prefix/suffix wildcards only) naming
    /// machine-dependent fields that are reported but never gated.
    pub ignore: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.05,
            ignore: vec![
                "*_ns".to_string(),
                "*_per_sec".to_string(),
                "*speedup*".to_string(),
                "*wall*".to_string(),
            ],
        }
    }
}

/// Verdict for one flattened field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldStatus {
    /// Within tolerance (or bit-identical).
    Ok,
    /// Drifted beyond tolerance but matches an ignore pattern.
    Ignored,
    /// Drifted beyond tolerance on a gated field.
    Regressed,
    /// Present only in the baseline, on a gated field: the current
    /// document lost something the baseline gates, which fails the diff.
    MissingInCurrent,
    /// Present only in the baseline, on an ignored (timing) field: a
    /// warning, never a failure.
    IgnoredMissingInCurrent,
    /// Present only in the current document: a warning, never a failure.
    MissingInBaseline,
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct FieldDelta {
    /// Dotted path of the field.
    pub path: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Current value, when present.
    pub current: Option<f64>,
    /// Verdict under the active [`DiffOptions`].
    pub status: FieldStatus,
}

impl FieldDelta {
    /// Signed relative drift `(current - baseline) / |baseline|`;
    /// `None` when either side is missing.  A zero baseline with a
    /// nonzero current reads as infinite drift.
    pub fn rel_delta(&self) -> Option<f64> {
        let (b, c) = (self.baseline?, self.current?);
        if b == c {
            return Some(0.0);
        }
        if b == 0.0 {
            return Some(f64::INFINITY * (c - b).signum());
        }
        Some((c - b) / b.abs())
    }
}

/// The full comparison of two documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One row per field seen in either document, path-sorted.
    pub rows: Vec<FieldDelta>,
    /// The tolerance the verdicts were computed under.
    pub tolerance: f64,
}

impl DiffReport {
    /// Gated fields that drifted beyond tolerance or disappeared from
    /// the current document.
    pub fn regressions(&self) -> Vec<&FieldDelta> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, FieldStatus::Regressed | FieldStatus::MissingInCurrent))
            .collect()
    }

    /// Whether the comparison should fail the build.  A gated field that
    /// disappeared fails it; a field new in the current document only
    /// warns, so baselines can grow additively.
    pub fn regressed(&self) -> bool {
        !self.regressions().is_empty()
    }

    /// Fields present on only one side.
    pub fn missing(&self) -> Vec<&FieldDelta> {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    FieldStatus::MissingInCurrent
                        | FieldStatus::IgnoredMissingInCurrent
                        | FieldStatus::MissingInBaseline
                )
            })
            .collect()
    }
}

/// Matches `pattern` against `path` with `*` allowed as a leading and/or
/// trailing wildcard (the only globbing the ignore list needs).
fn glob_lite(pattern: &str, path: &str) -> bool {
    match (pattern.strip_prefix('*'), pattern.strip_suffix('*')) {
        (Some(rest), _) if rest.ends_with('*') => {
            path.contains(rest.trim_end_matches('*'))
        }
        (Some(suffix), None) => path.ends_with(suffix),
        (None, Some(prefix)) => path.starts_with(prefix),
        (None, None) => path == pattern,
        // Unreachable arm shape-wise, but keep it total.
        (Some(infix), Some(_)) => path.contains(infix),
    }
}

fn is_ignored(opts: &DiffOptions, path: &str) -> bool {
    opts.ignore.iter().any(|p| glob_lite(p, path))
}

/// Compares two already-flattened numeric maps.
pub fn diff_flat(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    opts: &DiffOptions,
) -> DiffReport {
    let mut paths: Vec<&String> = baseline.keys().chain(current.keys()).collect();
    paths.sort();
    paths.dedup();

    let rows = paths
        .into_iter()
        .map(|path| {
            let b = baseline.get(path).copied();
            let c = current.get(path).copied();
            let status = match (b, c) {
                (Some(_), None) if is_ignored(opts, path) => FieldStatus::IgnoredMissingInCurrent,
                (Some(_), None) => FieldStatus::MissingInCurrent,
                (None, Some(_)) => FieldStatus::MissingInBaseline,
                (None, None) => unreachable!("path came from one of the maps"),
                (Some(bv), Some(cv)) => {
                    let drift = if bv == cv {
                        0.0
                    } else if bv == 0.0 {
                        f64::INFINITY
                    } else {
                        ((cv - bv) / bv.abs()).abs()
                    };
                    if drift <= opts.tolerance {
                        FieldStatus::Ok
                    } else if is_ignored(opts, path) {
                        FieldStatus::Ignored
                    } else {
                        FieldStatus::Regressed
                    }
                }
            };
            FieldDelta { path: path.clone(), baseline: b, current: c, status }
        })
        .collect();
    DiffReport { rows, tolerance: opts.tolerance }
}

/// Parses and compares two JSON documents.
///
/// # Errors
///
/// Returns the parse error of the first malformed document.
pub fn diff_documents(
    baseline: &str,
    current: &str,
    opts: &DiffOptions,
) -> Result<DiffReport, JsonParseError> {
    let b = parse_json(baseline)?.flatten_numbers();
    let c = parse_json(current)?.flatten_numbers();
    Ok(diff_flat(&b, &c, opts))
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.6}"),
    }
}

/// Renders the delta table.  With `verbose` false, rows whose drift is
/// zero are collapsed into a single count line.
pub fn render_diff(report: &DiffReport, verbose: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "regression diff (tolerance ±{:.1}%)\n",
        report.tolerance * 100.0
    ));
    out.push_str(&format!(
        "  {:<44} {:>14} {:>14} {:>9}  status\n",
        "field", "baseline", "current", "delta"
    ));
    let mut unchanged = 0usize;
    for row in &report.rows {
        let delta = row
            .rel_delta()
            .map(|d| {
                if d.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:+.2}%", d * 100.0)
                }
            })
            .unwrap_or_else(|| "-".to_string());
        let status = match row.status {
            FieldStatus::Ok => {
                if !verbose && row.rel_delta() == Some(0.0) {
                    unchanged += 1;
                    continue;
                }
                "ok"
            }
            FieldStatus::Ignored => "ignored (timing)",
            FieldStatus::Regressed => "REGRESSED",
            FieldStatus::MissingInCurrent => "MISSING in current",
            FieldStatus::IgnoredMissingInCurrent => "missing in current (timing)",
            FieldStatus::MissingInBaseline => "new (not in baseline)",
        };
        out.push_str(&format!(
            "  {:<44} {:>14} {:>14} {:>9}  {status}\n",
            row.path,
            fmt_value(row.baseline),
            fmt_value(row.current),
            delta,
        ));
    }
    if unchanged > 0 {
        out.push_str(&format!("  ({unchanged} fields bit-identical, not shown)\n"));
    }
    let regressions = report.regressions();
    if regressions.is_empty() {
        out.push_str("result: PASS — no gated field drifted beyond tolerance\n");
    } else {
        out.push_str(&format!(
            "result: FAIL — {} gated field(s) drifted beyond ±{:.1}% or went missing\n",
            regressions.len(),
            report.tolerance * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        r#"{"designs":[{"design":"BSC-L4","cycles":1000,"full_ns":5.0}],"tape_ops":42}"#;

    #[test]
    fn identical_documents_pass() {
        let report = diff_documents(BASE, BASE, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert!(report.rows.iter().all(|r| r.status == FieldStatus::Ok));
    }

    #[test]
    fn ten_percent_cycle_regression_fails() {
        let current =
            r#"{"designs":[{"design":"BSC-L4","cycles":1100,"full_ns":5.0}],"tape_ops":42}"#;
        let report = diff_documents(BASE, current, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        let bad = report.regressions();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "designs[BSC-L4].cycles");
        assert!((bad[0].rel_delta().unwrap() - 0.10).abs() < 1e-12);
        assert!(render_diff(&report, false).contains("FAIL"));
    }

    #[test]
    fn improvements_beyond_tolerance_also_flag() {
        // A 40% "improvement" in a deterministic count means the
        // experiment changed, not that the code got faster — gate it.
        let current =
            r#"{"designs":[{"design":"BSC-L4","cycles":600,"full_ns":5.0}],"tape_ops":42}"#;
        let report = diff_documents(BASE, current, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
    }

    #[test]
    fn timing_fields_are_ignored_not_gated() {
        let current =
            r#"{"designs":[{"design":"BSC-L4","cycles":1000,"full_ns":50.0}],"tape_ops":42}"#;
        let report = diff_documents(BASE, current, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        let ns = report.rows.iter().find(|r| r.path.ends_with("full_ns")).unwrap();
        assert_eq!(ns.status, FieldStatus::Ignored);
        assert!(render_diff(&report, false).contains("ignored (timing)"));
    }

    #[test]
    fn a_missing_gated_field_fails_while_new_and_timing_fields_only_warn() {
        let status = |report: &DiffReport, path: &str| {
            report.rows.iter().find(|r| r.path == path).map(|r| r.status)
        };
        // A new field in the current document only warns.
        let added =
            r#"{"designs":[{"design":"BSC-L4","cycles":1000,"full_ns":5.0}],"tape_ops":42,"extra":7}"#;
        let report = diff_documents(BASE, added, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert_eq!(status(&report, "extra"), Some(FieldStatus::MissingInBaseline));
        assert_eq!(report.missing().len(), 1);

        // A gated field that disappears fails the diff.
        let lost = r#"{"designs":[{"design":"BSC-L4","cycles":1000,"full_ns":5.0}]}"#;
        let report = diff_documents(BASE, lost, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        assert_eq!(status(&report, "tape_ops"), Some(FieldStatus::MissingInCurrent));
        assert_eq!(report.regressions().len(), 1);
        assert!(render_diff(&report, false).contains("FAIL"));

        // A missing timing field (`*_ns`) only warns.
        let no_timing = r#"{"designs":[{"design":"BSC-L4","cycles":1000}],"tape_ops":42}"#;
        let report = diff_documents(BASE, no_timing, &DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert_eq!(
            status(&report, "designs[BSC-L4].full_ns"),
            Some(FieldStatus::IgnoredMissingInCurrent)
        );
        assert_eq!(report.missing().len(), 1);
    }

    #[test]
    fn tolerance_is_configurable() {
        let current =
            r#"{"designs":[{"design":"BSC-L4","cycles":1040,"full_ns":5.0}],"tape_ops":42}"#;
        let strict = DiffOptions { tolerance: 0.01, ..DiffOptions::default() };
        assert!(diff_documents(BASE, current, &strict).unwrap().regressed());
        let loose = DiffOptions { tolerance: 0.10, ..DiffOptions::default() };
        assert!(!diff_documents(BASE, current, &loose).unwrap().regressed());
    }

    #[test]
    fn every_element_is_compared_when_array_labels_repeat() {
        // Two jobs share the name `x`: a drift in the first must not hide
        // behind the second.
        let base = r#"{"jobs":[{"name":"x","cycles":2},{"name":"x","cycles":5}]}"#;
        let current = r#"{"jobs":[{"name":"x","cycles":1},{"name":"x","cycles":5}]}"#;
        let exact = DiffOptions { tolerance: 0.0, ..DiffOptions::default() };
        let report = diff_documents(base, current, &exact).unwrap();
        assert!(report.regressed());
        let bad = report.regressions();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, "jobs[0].cycles");
        assert!(!diff_documents(base, base, &exact).unwrap().regressed());
    }

    #[test]
    fn malformed_documents_error_out() {
        assert!(diff_documents("{", BASE, &DiffOptions::default()).is_err());
        assert!(diff_documents(BASE, "not json", &DiffOptions::default()).is_err());
    }

    #[test]
    fn glob_lite_covers_the_pattern_shapes() {
        assert!(glob_lite("*_ns", "bench.full_ns"));
        assert!(!glob_lite("*_ns", "bench.full_ns2"));
        assert!(glob_lite("designs*", "designs[BSC].cycles"));
        assert!(glob_lite("*speedup*", "a.speedup.b"));
        assert!(glob_lite("exact", "exact"));
        assert!(!glob_lite("exact", "exactly"));
    }
}
