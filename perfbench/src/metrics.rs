//! The declared metrics (mirrored in `BENCHMARK.json`) and the per-layer
//! metrics derived from a traced run's spans.

use std::collections::BTreeMap;

use crate::trace::{AllocCounts, Layer, Part, Recorder, Span};
use crate::util::{median, ratio, tail};
use crate::TraceRep;

/// End-to-end metrics: name, unit, better, bound.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// Metrics every layer reports: suffix, unit, better.
const PER_LAYER_GENERIC: [(&str, &str, &str); 6] = [
    ("calls", "count", "lower"),
    ("self_frac", "ratio", "lower"),
    ("call_p50_us", "us/call", "lower"),
    ("call_tail_us", "us/call", "lower"),
    ("allocs", "count", "lower"),
    ("alloc_bytes", "bytes", "lower"),
];

/// Layer-specific per-layer metrics: name, unit, better.
const PER_LAYER_SPECIFIC: [(&str, &str, &str); 29] = [
    ("mac.ppa.characterize_s", "s", "lower"),
    ("mac.ppa.build_netlist_s", "s", "lower"),
    ("mac.ppa.gate_steps", "count", "lower"),
    ("synth.analyze.distinct_frac", "ratio", "higher"),
    ("synth.analyze.feasible_frac", "ratio", "higher"),
    ("systolic.mem.passes", "count", "lower"),
    ("systolic.mem.ns_per_pass", "ns/pass", "lower"),
    ("systolic.mem.distinct_frac", "ratio", "higher"),
    ("core.engine.submit_us_per_job", "us/job", "lower"),
    ("core.engine.plan_us_per_job", "us/job", "lower"),
    ("core.engine.execute_us_per_job", "us/job", "lower"),
    ("core.engine.admitted_frac", "ratio", "higher"),
    ("core.des.samples", "count", "lower"),
    ("core.des.ns_per_sample", "ns/sample", "lower"),
    (
        "core.cluster.arrival-sampling_ns_per_arrival",
        "ns/arrival",
        "lower",
    ),
    (
        "core.cluster.dispatch_ns_per_arrival",
        "ns/arrival",
        "lower",
    ),
    (
        "core.cluster.admission_ns_per_arrival",
        "ns/arrival",
        "lower",
    ),
    (
        "core.cluster.schedule-eval_ns_per_arrival",
        "ns/arrival",
        "lower",
    ),
    (
        "core.cluster.slo-fold_ns_per_arrival",
        "ns/arrival",
        "lower",
    ),
    ("core.cluster.unattributed_frac", "ratio", "lower"),
    ("core.cluster.dispatched_frac", "ratio", "higher"),
    ("core.cluster.profiled_arrivals_per_s", "1/s", "higher"),
    ("core.cluster.profiler_overhead_frac", "ratio", "lower"),
    ("core.slo.observations", "count", "lower"),
    ("bench.export_bytes", "bytes", "lower"),
    ("bench.export_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
];

/// Every per-layer metric: name, unit, better.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for layer in Layer::ALL {
        for (suffix, unit, better) in PER_LAYER_GENERIC {
            out.push((format!("{}.{suffix}", layer.name()), unit, better));
        }
    }
    out.extend(
        PER_LAYER_SPECIFIC
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b)),
    );
    out
}

/// The unit of every declared metric, by name.
pub fn units() -> BTreeMap<String, &'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, ..)| (n.to_string(), u))
        .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
        .collect()
}

fn distinct_frac(keys: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = keys.collect();
    let calls = v.len() as f64;
    v.sort_unstable();
    v.dedup();
    ratio(v.len() as f64, calls)
}

/// Derives every per-layer metric from the spans of a traced run.
///
/// * Call counts, allocation counts and work units come from the first
///   repetition (they repeat exactly); times aggregate every repetition.
/// * Self shares and per-call latencies use the main spans only; probe
///   spans feed the probe metrics (`mac.ppa.build_netlist_s`,
///   `core.des.*` and, on the online workloads, the work ratios of the
///   calls inside the event loop).
pub fn layer_metrics(
    rec: &Recorder,
    reps: &[TraceRep],
    allocs: &AllocCounts,
) -> BTreeMap<String, f64> {
    let n_reps = reps.len().max(1) as f64;
    let spans = rec.spans();
    let selfs = rec.self_times_ns();
    let main_ns: u64 = reps.iter().map(|r| r.main_ns).sum();
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|(n, ..)| (n, 0.0)).collect();
    let mut set = |name: String, v: f64| {
        assert!(m.contains_key(&name), "undeclared metric {name}");
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        m.insert(name, if v.is_finite() { v + 0.0 } else { 0.0 });
    };
    let sum_ns = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.dur_ns() as f64)
            .sum()
    };

    for layer in Layer::ALL {
        let main = |s: &&Span| s.layer == layer && s.part == Part::Main;
        let calls = spans
            .iter()
            .filter(main)
            .filter(|s| s.rep == 0 && !s.synthetic)
            .count();
        let self_ns: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| main(s))
            .map(|(_, &t)| t)
            .sum();
        let durations_us: Vec<f64> = spans
            .iter()
            .filter(main)
            .filter(|s| !s.synthetic)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let name = layer.name();
        set(format!("{name}.calls"), calls as f64);
        set(
            format!("{name}.self_frac"),
            ratio(self_ns as f64, main_ns as f64),
        );
        set(format!("{name}.call_p50_us"), median(&durations_us));
        set(format!("{name}.call_tail_us"), tail(&durations_us).1);
        set(format!("{name}.allocs"), allocs.allocs(layer) as f64);
        set(format!("{name}.alloc_bytes"), allocs.bytes(layer) as f64);
    }

    let notes = &rec.notes;
    set(
        "mac.ppa.characterize_s".into(),
        sum_ns(&|s| s.layer == Layer::MacPpa && s.name == "characterize") / n_reps / 1e9,
    );
    set(
        "mac.ppa.build_netlist_s".into(),
        sum_ns(&|s| s.layer == Layer::MacPpa && s.name == "build_netlist") / n_reps / 1e9,
    );
    set(
        "synth.analyze.distinct_frac".into(),
        distinct_frac(notes.analyze.iter().map(|a| a.0)),
    );
    set(
        "synth.analyze.feasible_frac".into(),
        ratio(
            notes.analyze.iter().filter(|a| a.1).count() as f64,
            notes.analyze.len() as f64,
        ),
    );
    let passes: u64 = notes.mem.iter().map(|m| m.1).sum();
    set("systolic.mem.passes".into(), passes as f64);
    set(
        "systolic.mem.ns_per_pass".into(),
        ratio(
            sum_ns(&|s| s.layer == Layer::SystolicMem),
            passes as f64 * n_reps,
        ),
    );
    set(
        "systolic.mem.distinct_frac".into(),
        distinct_frac(notes.mem.iter().map(|m| m.0)),
    );

    let engine = |name: &'static str| {
        let matching = |s: &&Span| s.layer == Layer::CoreEngine && s.name == name;
        (
            spans.iter().filter(matching).count() as f64,
            spans
                .iter()
                .filter(matching)
                .map(|s| s.dur_ns() as f64)
                .sum::<f64>(),
        )
    };
    let (submits, submit_ns) = engine("submit");
    let (plans, plan_ns) = engine("plan");
    let (_, execute_ns) = engine("execute");
    set(
        "core.engine.submit_us_per_job".into(),
        ratio(submit_ns / 1e3, submits),
    );
    set(
        "core.engine.plan_us_per_job".into(),
        ratio(plan_ns / 1e3, plans),
    );
    set(
        "core.engine.execute_us_per_job".into(),
        ratio(execute_ns / 1e3, notes.executed_jobs as f64 * n_reps),
    );
    set("core.engine.admitted_frac".into(), ratio(plans, submits));

    set("core.des.samples".into(), notes.des_samples as f64);
    set(
        "core.des.ns_per_sample".into(),
        ratio(
            sum_ns(&|s| s.layer == Layer::CoreDes && s.part == Part::Probe),
            notes.des_samples as f64 * n_reps,
        ),
    );
    set(
        "core.slo.observations".into(),
        notes.slo_observations as f64,
    );
    set("bench.export_bytes".into(), notes.export_bytes as f64);
    set(
        "bench.export_s".into(),
        sum_ns(&|s| s.layer == Layer::Bench && s.part == Part::Main) / n_reps / 1e9,
    );

    // Metrics the workload measured itself: the median over repetitions.
    let mut extras: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for &(name, v) in &rep.extras {
            extras.entry(name).or_default().push(v);
        }
    }
    for (name, values) in extras {
        set(name.to_string(), median(&values));
    }

    let top_level_ns = sum_ns(&|s| s.parent == 0 && s.part == Part::Main);
    let traced: u64 = reps.iter().map(|r| r.traced_work_ns).sum();
    let untraced: u64 = reps.iter().map(|r| r.untraced_work_ns).sum();
    set("trace.wall_s".into(), main_ns as f64 / n_reps / 1e9);
    set(
        "trace.overhead_frac".into(),
        ratio(traced as f64, untraced as f64) - 1.0,
    );
    set(
        "trace.unattributed_frac".into(),
        ratio(main_ns as f64 - top_level_ns, main_ns as f64),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "invalid metric name {n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = bsc_telemetry::parse_json(&text).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(|v| v.as_f64()).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.3).collect::<Vec<_>>());
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.into(), b.into()))
            .collect();
        assert_eq!(list("per_layer"), layers);
    }
}
