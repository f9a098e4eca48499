//! `repro serve`: drive the batch inference engine from a JSON job
//! manifest and report per-job / aggregate results.
//!
//! The manifest is the wire format a multi-tenant deployment would feed
//! the engine (see `docs/serving.md`):
//!
//! ```json
//! {
//!   "engine": {
//!     "kind": "bsc",
//!     "quick": true,
//!     "queue_capacity": 64,
//!     "workers": 2,
//!     "max_backlog_cycles": 500000
//!   },
//!   "tenants": {
//!     "vision": {"latency_p99_cycles": 400000, "min_goodput": 0.9}
//!   },
//!   "jobs": [
//!     {"name": "lenet-nas", "network": "lenet5", "precision": "nas",
//!      "tenant": "vision"},
//!     {"name": "vgg-8b", "network": "vgg16", "precision": "int8",
//!      "deadline_cycles": 900000, "count": 4}
//!   ]
//! }
//! ```
//!
//! `network` names a built-in benchmark (`lenet5`, `vgg16`, `resnet18`,
//! `nas`); `precision` is a [`bsc_accel::PrecisionPolicy`] spelling
//! (`nas` keeps the NAS-assigned layer precisions); `count` repeats the
//! spec N times with a `#i` suffix, sharing one `Arc`'d network (a
//! manifest may expand to at most 2^20 jobs).
//! `tenant` accounts the job to a named tenant (default `"default"`);
//! the optional top-level `tenants` object declares per-tenant
//! [`SloTarget`]s that the batch's SLO report measures attainment
//! against.  The job fields and the `tenants` object parse exactly like
//! an online source's.  The aggregate report and the SLO report are
//! deterministic (wall-clock fields carry the `_ns` suffix the
//! `repro diff` gate exempts), so checked-in baselines catch
//! queue-counter and numeric drift at `--tol 0`.

use std::collections::BTreeMap;

use bsc_accel::{BatchReport, Engine, EngineConfig, InferenceJob, JobOutcome, SloTarget};
use bsc_mac::MacKind;
use bsc_nn::SharedNetwork;
use bsc_telemetry::{JsonBuilder, SpanSnapshot};

use crate::manifest::{
    accel_config, array_field, err_at, job_template, object_field, parse_tenants, render_tenants,
    u64_field, write_queue_wait, write_slo_tenants, MAX_SERVE_JOBS,
};

/// A parsed manifest: engine parameters plus the job list.
#[derive(Debug)]
pub struct ServeManifest {
    /// Engine configuration built from the `engine` object.
    pub engine: EngineConfig,
    /// Declared per-tenant SLO targets, keyed by tenant name.
    pub tenants: BTreeMap<String, SloTarget>,
    /// Jobs in submission order (repeat specs already expanded).
    pub jobs: Vec<InferenceJob>,
}

/// The result of one serve run: the batch outcome, the process-wide
/// characterization tallies read when it ended, and its spans.
#[derive(Debug)]
pub struct ServeRun {
    /// MAC architecture served.
    pub kind: MacKind,
    /// Queue bound the engine ran with.
    pub queue_capacity: usize,
    /// Per-job outcomes and aggregates.
    pub batch: BatchReport,
    /// Lookups the process-wide characterization cache served.
    pub cache_hits: u64,
    /// Lookups that characterized a design through that cache.
    pub cache_misses: u64,
    /// Characterizations run in this process, cache or not
    /// ([`bsc_mac::ppa::characterize_runs`]).
    pub characterize_runs: u64,
    /// Wall-clock spans of the run; their IDs stamp the structured
    /// event log ([`events_jsonl`]) for correlation with traces.
    pub spans: SpanSnapshot,
}

/// Parses a serve manifest.
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON, unknown networks,
/// unknown precisions, out-of-range parameters, a field of the wrong
/// JSON type, or counts that expand past 2^20 jobs (checked before any
/// job is built).
pub fn parse_manifest(text: &str) -> Result<ServeManifest, String> {
    let doc = bsc_telemetry::parse_json(text).map_err(|e| err_at("manifest", e))?;
    let eng = object_field(&doc, "manifest", "engine")?
        .ok_or("manifest: missing `engine` object")?;
    let mut config = EngineConfig::new(accel_config(eng, "engine")?);
    if let Some(cap) = u64_field(eng, "engine", "queue_capacity")? {
        if cap == 0 {
            return Err("engine.queue_capacity: must be positive".into());
        }
        config.queue_capacity = usize::try_from(cap).unwrap_or(usize::MAX);
    }
    if let Some(w) = u64_field(eng, "engine", "workers")? {
        if w == 0 {
            return Err("engine.workers: must be positive".into());
        }
        config.workers = Some(usize::try_from(w).unwrap_or(usize::MAX));
    }
    config.max_backlog_cycles = u64_field(eng, "engine", "max_backlog_cycles")?;

    let tenants = parse_tenants(&doc)?;

    let specs = array_field(&doc, "manifest", "jobs")?.ok_or("manifest: missing `jobs` array")?;
    let mut networks = BTreeMap::new();
    let mut specs_counted = Vec::with_capacity(specs.len());
    let mut expanded = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let ctx = format!("jobs[{i}]");
        let t = job_template(spec, &ctx, format!("job{i}"), &tenants, &mut networks)?;
        let count = u64_field(spec, &ctx, "count")?.unwrap_or(1);
        if count == 0 {
            return Err(err_at(&ctx, "count: expected a positive integer"));
        }
        expanded = expanded.saturating_add(count);
        if expanded > MAX_SERVE_JOBS {
            return Err(err_at(
                &format!("{ctx}.count"),
                format!("the manifest would expand to more than {MAX_SERVE_JOBS} jobs"),
            ));
        }
        specs_counted.push((t, count));
    }
    let mut jobs = Vec::new();
    for (t, count) in specs_counted {
        for rep in 0..count {
            jobs.push(InferenceJob {
                name: if count == 1 { t.name.clone() } else { format!("{}#{rep}", t.name) },
                tenant: t.tenant.clone(),
                network: SharedNetwork::clone(&t.network),
                policy: t.precision,
                deadline_cycles: t.deadline_cycles,
                slo: t.slo,
            });
        }
    }
    Ok(ServeManifest { engine: config, tenants, jobs })
}

/// Runs a manifest through a fresh engine on the process-wide
/// characterization cache.
///
/// # Errors
///
/// Returns a message on manifest, characterization or scheduling
/// failures.
pub fn serve(manifest_text: &str) -> Result<ServeRun, String> {
    let manifest = parse_manifest(manifest_text)?;
    let kind = manifest.engine.accel.kind;
    let queue_capacity = manifest.engine.queue_capacity;
    let mut engine =
        Engine::new(manifest.engine).map_err(|e| err_at("characterization", e))?;
    let batch = engine.run_jobs(manifest.jobs).map_err(|e| err_at("batch", e))?;
    let cache = bsc_accel::CharacterizationCache::global();
    Ok(ServeRun {
        kind,
        queue_capacity,
        batch,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        characterize_runs: bsc_mac::ppa::characterize_runs(),
        spans: engine.spans().snapshot(),
    })
}

/// Aligned-text view of one serve run.
pub fn render(run: &ServeRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} engine, queue capacity {}, {} jobs",
        run.kind,
        run.queue_capacity,
        run.batch.submitted()
    );
    let _ = write!(out, "{}", run.batch);
    let _ = writeln!(
        out,
        "aggregate: {:.1} MACs/cycle over {} cycles, {:.1} pJ total, characterization runs {}",
        run.batch.macs_per_cycle(),
        run.batch.makespan_cycles(),
        run.batch.total_energy_fj() / 1e3,
        run.characterize_runs,
    );
    let h = &run.batch.queue_wait_cycles;
    if let (Some(p50), Some(p95), Some(p99)) = (h.p50(), h.p95(), h.p99()) {
        let _ = writeln!(
            out,
            "queue wait: p50 {p50:.0} / p95 {p95:.0} / p99 {p99:.0} cycles over {} dispatches (max {})",
            h.count, h.max,
        );
    }
    render_tenants(&mut out, &run.batch.slo);
    out
}

/// Machine-readable aggregate report for the CI baseline gate.  Every
/// deterministic field (outcome counts, cycles, MACs, energies, queue
/// counters) is gated by `repro diff`; wall-clock fields end in `_ns`
/// and are exempt.
pub fn report_json(run: &ServeRun) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("engine").begin_object();
    j.key("kind").string(&run.kind.to_string());
    j.key("queue_capacity").u64(run.queue_capacity as u64);
    j.end_object();

    j.key("jobs").begin_array();
    for outcome in run.batch.outcomes() {
        j.begin_object();
        j.key("name").string(outcome.name());
        j.key("outcome").string(outcome.label());
        match outcome {
            JobOutcome::Completed(r) => {
                j.key("network").string(r.report.network());
                j.key("cycles").u64(r.cycles());
                j.key("macs").u64(r.macs());
                j.key("macs_per_cycle").f64(r.macs_per_cycle());
                j.key("energy_fj").f64(r.energy_fj());
                j.key("queue_wait_cycles").u64(r.queue_wait_cycles);
                j.key("completion_cycle").u64(r.completion_cycle);
                if let Some(met) = r.deadline_met() {
                    j.key("deadline_met").bool(met);
                }
            }
            JobOutcome::Rejected { reason, .. } => {
                j.key("reason").string(&reason.to_string());
            }
            JobOutcome::Shed { reason, .. } => {
                j.key("reason").string(&reason.to_string());
            }
        }
        j.end_object();
    }
    j.end_array();

    j.key("aggregate").begin_object();
    j.key("submitted").u64(run.batch.submitted() as u64);
    j.key("completed").u64(run.batch.completed_count() as u64);
    j.key("rejected").u64(run.batch.rejected_count() as u64);
    j.key("shed").u64(run.batch.shed_count() as u64);
    j.key("makespan_cycles").u64(run.batch.makespan_cycles());
    j.key("total_macs").u64(run.batch.total_macs());
    j.key("macs_per_cycle").f64(run.batch.macs_per_cycle());
    j.key("total_energy_fj").f64(run.batch.total_energy_fj());
    j.key("peak_queue_depth").u64(run.batch.peak_queue_depth as u64);
    j.end_object();

    // The outcome counts restate `aggregate`; the cache tallies are
    // process-wide, read when the run ended.
    let b = &run.batch;
    let (submitted, rejected) = (b.submitted() as u64, b.rejected_count() as u64);
    j.key("counters").begin_object();
    for (name, value) in [
        ("engine.jobs.submitted", submitted),
        ("engine.jobs.admitted", submitted - rejected),
        ("engine.jobs.rejected", rejected),
        ("engine.jobs.shed", b.shed_count() as u64),
        ("engine.jobs.completed", b.completed_count() as u64),
        ("engine.cache.hits", run.cache_hits),
        ("engine.cache.misses", run.cache_misses),
        ("telemetry.characterize.runs", run.characterize_runs),
        ("engine.queue.peak_depth", b.peak_queue_depth as u64),
    ] {
        j.key(name).u64(value);
    }
    j.end_object();

    write_queue_wait(&mut j, &b.queue_wait_cycles);

    // Wall clock, reported but never gated (the `_ns` suffix).
    j.key("run_batch_ns")
        .u64(run.spans.by_name("engine.run_batch").map_or(0, |s| s.duration_ns()));
    j.end_object();
    let mut text = j.finish();
    text.push('\n');
    text
}

/// Machine-readable per-tenant SLO report for the CI baseline gate.
///
/// Every field is either an integer (counts, cycle quantiles from the
/// integer sketch, whole-fJ energy attributions) or a float derived
/// from integers (rates), all computed by a serial fold over the
/// outcome list — the document is byte-identical at any worker count
/// and is diffed at `--tol 0` against `BENCH_slo_baseline.json`.
/// Tenant entries carry a `name` member so diff paths are keyed by
/// tenant, not array position.
pub fn slo_json(run: &ServeRun) -> String {
    let slo = &run.batch.slo;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("engine").begin_object();
    j.key("kind").string(&run.kind.to_string());
    j.key("window_width_cycles").u64(slo.window_width_cycles);
    j.key("total_energy_fj").u64(slo.total_energy_fj());
    j.end_object();

    write_slo_tenants(&mut j, slo);
    j.end_object();
    let mut text = j.finish();
    text.push('\n');
    text
}

/// Structured event log: one strict-JSON object per line, each stamped
/// with the wall-clock span correlation IDs of [`ServeRun::spans`], so
/// log lines join against Perfetto exports and trace snapshots.  A job
/// line carries its own job span, found by the `slot` the engine
/// annotates it with (names may repeat); a rejected job never ran, so
/// its `span` is 0 and its parent the batch span.
///
/// Span IDs and `_ns` durations are wall-clock-era values and therefore
/// *not* gated by the baseline diff; the CI gate only requires every
/// line to parse as strict JSON (the unit tests parse every line under
/// the strict RFC 8259 parser).
pub fn events_jsonl(run: &ServeRun) -> String {
    let batch = run.spans.by_name("engine.run_batch");
    let batch_span = batch.map_or(0, |s| s.id);
    let mut job_spans = vec![None; run.batch.submitted()];
    for span in run.spans.spans.iter().filter(|s| s.parent == batch_span) {
        let slot = span.args.iter().find(|(k, _)| k == "slot");
        if let Some(entry) = slot.and_then(|(_, v)| job_spans.get_mut(v.parse::<usize>().ok()?)) {
            *entry = Some(span);
        }
    }
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("event").string("batch");
    j.key("span").u64(batch_span);
    j.key("kind").string(&run.kind.to_string());
    j.key("submitted").u64(run.batch.submitted() as u64);
    j.key("completed").u64(run.batch.completed_count() as u64);
    j.key("rejected").u64(run.batch.rejected_count() as u64);
    j.key("shed").u64(run.batch.shed_count() as u64);
    j.key("makespan_cycles").u64(run.batch.makespan_cycles());
    j.key("duration_ns").u64(batch.map_or(0, |s| s.duration_ns()));
    j.end_object().newline();

    for (outcome, span) in run.batch.outcomes().iter().zip(job_spans) {
        j.begin_object();
        j.key("event").string("job");
        j.key("name").string(outcome.name());
        j.key("tenant").string(outcome.tenant().as_str());
        j.key("outcome").string(outcome.label());
        j.key("span").u64(span.map_or(0, |s| s.id));
        j.key("parent_span").u64(span.map_or(batch_span, |s| s.parent));
        match outcome {
            JobOutcome::Completed(r) => {
                j.key("queue_wait_cycles").u64(r.queue_wait_cycles);
                j.key("completion_cycle").u64(r.completion_cycle);
                j.key("macs").u64(r.macs());
                if let Some(met) = r.deadline_met() {
                    j.key("deadline_met").bool(met);
                }
            }
            JobOutcome::Rejected { reason, .. } => {
                j.key("reason").string(reason.slug());
            }
            JobOutcome::Shed { reason, .. } => {
                j.key("reason").string(reason.slug());
                j.key("decision_cycle").u64(reason.decision_cycle());
            }
        }
        j.key("duration_ns").u64(span.map_or(0, |s| s.duration_ns()));
        j.end_object().newline();
    }
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{
      "engine": {"kind": "bsc", "quick": true, "queue_capacity": 4, "workers": 2},
      "jobs": [
        {"name": "lenet-nas", "network": "lenet5"},
        {"name": "lenet-8b", "network": "lenet5", "precision": "int8", "count": 2},
        {"name": "dead", "network": "lenet5", "precision": "int2", "deadline_cycles": 1}
      ]
    }"#;

    #[test]
    fn manifest_parses_and_expands_counts() {
        let m = parse_manifest(MANIFEST).unwrap();
        assert_eq!(m.engine.queue_capacity, 4);
        assert_eq!(m.engine.workers, Some(2));
        assert_eq!(m.jobs.len(), 4);
        assert_eq!(m.jobs[1].name, "lenet-8b#0");
        assert_eq!(m.jobs[2].name, "lenet-8b#1");
        // Repeats share the network allocation.
        assert!(SharedNetwork::ptr_eq(&m.jobs[1].network, &m.jobs[2].network));
        assert_eq!(m.jobs[3].deadline_cycles, Some(1));
    }

    #[test]
    fn malformed_manifests_are_rejected_with_context() {
        assert!(parse_manifest("{}").unwrap_err().contains("engine"));
        let bad_net = MANIFEST.replace("lenet5", "alexnet");
        assert!(parse_manifest(&bad_net).unwrap_err().contains("alexnet"));
        let bad_precision = MANIFEST.replace("int8", "int3");
        assert!(parse_manifest(&bad_precision).unwrap_err().contains("precision"));
    }

    #[test]
    fn a_runaway_count_is_rejected_before_any_job_is_built() {
        let huge = MANIFEST.replace(r#""count": 2"#, r#""count": 1000000000000000"#);
        let err = parse_manifest(&huge).unwrap_err();
        assert!(err.starts_with("jobs[1].count:"), "{err}");
        // The bound covers the whole expanded list: here jobs[1] reaches
        // it exactly and jobs[2] is the spec that crosses it.
        let at_limit = MANIFEST
            .replace(r#""count": 2"#, &format!(r#""count": {}"#, MAX_SERVE_JOBS - 1));
        let err = parse_manifest(&at_limit).unwrap_err();
        assert!(err.starts_with("jobs[2].count:"), "{err}");
        assert!(err.contains(&MAX_SERVE_JOBS.to_string()), "{err}");
    }

    const TENANT_MANIFEST: &str = r#"{
      "engine": {"kind": "bsc", "quick": true, "queue_capacity": 8, "workers": 2},
      "tenants": {
        "gold": {"latency_p99_cycles": 900000000, "min_goodput": 0.5},
        "strict": {"latency_p99_cycles": 1, "min_goodput": 1.0}
      },
      "jobs": [
        {"name": "g", "network": "lenet5", "tenant": "gold", "count": 2},
        {"name": "s", "network": "lenet5", "precision": "int8", "tenant": "strict"},
        {"name": "free", "network": "lenet5", "precision": "int4"}
      ]
    }"#;

    #[test]
    fn manifest_tenants_declare_targets_on_their_jobs() {
        let m = parse_manifest(TENANT_MANIFEST).unwrap();
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.jobs[0].tenant.as_str(), "gold");
        assert_eq!(m.jobs[0].slo.unwrap().latency_p99_cycles, 900_000_000);
        assert_eq!(m.jobs[2].tenant.as_str(), "strict");
        assert_eq!(m.jobs[2].slo.unwrap().min_goodput, 1.0);
        // No tenant key: the default tenant, no target.
        assert_eq!(m.jobs[3].tenant.as_str(), "default");
        assert!(m.jobs[3].slo.is_none());
        // Malformed targets are rejected with context.
        let bad = TENANT_MANIFEST.replace("900000000", "-1");
        assert!(parse_manifest(&bad).unwrap_err().contains("latency_p99_cycles"));
        let bad = TENANT_MANIFEST.replace("0.5", "1.5");
        assert!(parse_manifest(&bad).unwrap_err().contains("min_goodput"));
    }

    #[test]
    fn slo_json_is_byte_identical_at_any_worker_count() {
        let at = |workers: usize| {
            let manifest =
                TENANT_MANIFEST.replace("\"workers\": 2", &format!("\"workers\": {workers}"));
            slo_json(&serve(&manifest).unwrap())
        };
        let one = at(1);
        assert_eq!(one, at(2), "1 vs 2 workers");
        assert_eq!(one, at(8), "1 vs 8 workers");
        let doc = bsc_telemetry::parse_json(&one).expect("slo report is valid JSON");
        let tenants = doc.get("tenants").and_then(|v| v.as_array()).unwrap();
        // Sorted by tenant name, each entry keyed by `name` for diff.
        let names: Vec<_> =
            tenants.iter().map(|t| t.get("name").and_then(|v| v.as_str()).unwrap()).collect();
        assert_eq!(names, vec!["default", "gold", "strict"]);
        // gold met its loose target; strict missed its hopeless one.
        let by_name = |n: &str| tenants.iter().find(|t| t.get("name").unwrap().as_str() == Some(n)).unwrap();
        assert_eq!(
            by_name("gold").get("attainment").and_then(|a| a.get("attained")),
            Some(&bsc_telemetry::JsonValue::Bool(true))
        );
        assert_eq!(
            by_name("strict").get("attainment").and_then(|a| a.get("attained")),
            Some(&bsc_telemetry::JsonValue::Bool(false))
        );
        assert!(by_name("default").get("attainment").is_none());
        // Tenant energies sum exactly to the batch total.
        let total: f64 = tenants
            .iter()
            .map(|t| t.get("energy_fj").and_then(|v| v.as_f64()).unwrap())
            .sum();
        assert_eq!(
            Some(total),
            doc.get("engine").and_then(|e| e.get("total_energy_fj")).and_then(|v| v.as_f64())
        );
    }

    #[test]
    fn events_jsonl_lines_parse_and_carry_span_ids() {
        for workers in [2, 8] {
            let manifest =
                TENANT_MANIFEST.replace("\"workers\": 2", &format!("\"workers\": {workers}"));
            let run = serve(&manifest).unwrap();
            let log = events_jsonl(&run);
            let lines: Vec<&str> = log.lines().collect();
            assert_eq!(lines.len(), 1 + run.batch.submitted(), "batch line + one per job");
            let batch = bsc_telemetry::parse_json(lines[0]).expect("strict JSON");
            assert_eq!(batch.get("event").and_then(|v| v.as_str()), Some("batch"));
            let batch_span = batch.get("span").and_then(|v| v.as_f64()).unwrap();
            assert!(batch_span > 0.0, "batch span recorded");
            for line in &lines[1..] {
                let event = bsc_telemetry::parse_json(line).expect("strict JSON");
                assert_eq!(event.get("event").and_then(|v| v.as_str()), Some("job"));
                assert!(event.get("tenant").is_some());
                let outcome = event.get("outcome").and_then(|v| v.as_str()).unwrap();
                if outcome == "completed" {
                    // Completed jobs ran inside a recorded span.
                    assert!(event.get("span").and_then(|v| v.as_f64()).unwrap() > 0.0);
                }
                // Every job nests directly under the batch, whichever
                // worker began its span.
                assert_eq!(
                    event.get("parent_span").and_then(|v| v.as_f64()),
                    Some(batch_span),
                    "workers={workers}: {line}"
                );
            }
        }
    }

    #[test]
    fn each_job_line_carries_its_own_span_when_names_repeat() {
        let manifest = r#"{
          "engine": {"kind": "bsc", "quick": true, "queue_capacity": 4, "workers": 2},
          "jobs": [
            {"name": "x", "network": "lenet5", "precision": "int8"},
            {"name": "x", "network": "lenet5", "precision": "int4"},
            {"name": "x", "network": "lenet5", "precision": "int8", "deadline_cycles": 1}
          ]
        }"#;
        let run = serve(manifest).unwrap();
        let log = events_jsonl(&run);
        let lines: Vec<bsc_telemetry::JsonValue> =
            log.lines().map(|l| bsc_telemetry::parse_json(l).unwrap()).collect();
        let num = |v: &bsc_telemetry::JsonValue, key: &str| {
            v.get(key).and_then(|v| v.as_f64()).unwrap() as u64
        };
        let batch_span = num(&lines[0], "span");
        let jobs = &lines[1..];
        let outcomes: Vec<&str> =
            jobs.iter().map(|j| j.get("outcome").and_then(|v| v.as_str()).unwrap()).collect();
        assert_eq!(outcomes, ["completed", "completed", "rejected"]);
        // The two completed jobs ran in spans of their own, each
        // annotated with its job's slot.
        let spans: Vec<u64> = jobs[..2].iter().map(|j| num(j, "span")).collect();
        assert_ne!(spans[0], spans[1], "{log}");
        for (slot, &id) in spans.iter().enumerate() {
            let span = run.spans.get(id).expect("a recorded span");
            assert_eq!(span.name, "engine.job.x");
            assert_eq!(span.parent, batch_span);
            assert!(span.args.contains(&("slot".into(), slot.to_string())), "{span:?}");
            assert_eq!(num(&jobs[slot], "duration_ns"), span.duration_ns());
        }
        // The rejected job never ran: no span, no duration.
        assert_eq!(
            (num(&jobs[2], "span"), num(&jobs[2], "parent_span"), num(&jobs[2], "duration_ns")),
            (0, batch_span, 0)
        );
    }

    #[test]
    fn serve_runs_the_manifest_end_to_end() {
        let run = serve(MANIFEST).unwrap();
        assert_eq!(run.batch.submitted(), 4);
        assert_eq!(run.batch.completed_count(), 3);
        assert_eq!(run.batch.rejected_count(), 1, "1-cycle deadline must be rejected");
        let json = report_json(&run);
        let doc = bsc_telemetry::parse_json(&json).expect("report is valid JSON");
        assert_eq!(
            doc.get("aggregate").and_then(|a| a.get("submitted")).and_then(|v| v.as_f64()),
            Some(4.0)
        );
        let text = render(&run);
        assert!(text.contains("BSC engine"), "{text}");
        // Queue waits surface in both the JSON gate and the text view.
        assert_eq!(
            doc.get("queue_wait_cycles").and_then(|q| q.get("count")).and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert!(text.contains("queue wait: p50"), "{text}");
    }

    #[test]
    fn report_counters_restate_the_batch_report() {
        let run = serve(MANIFEST).unwrap();
        let doc = bsc_telemetry::parse_json(&report_json(&run)).unwrap();
        let at = |section: &str, key: &str| {
            doc.get(section).and_then(|s| s.get(key)).and_then(|v| v.as_f64()).unwrap() as u64
        };
        for outcome in ["submitted", "rejected", "shed", "completed"] {
            assert_eq!(at("counters", &format!("engine.jobs.{outcome}")), at("aggregate", outcome));
        }
        assert_eq!(
            at("counters", "engine.jobs.admitted"),
            at("aggregate", "submitted") - at("aggregate", "rejected")
        );
        assert_eq!(at("counters", "engine.queue.peak_depth"), at("aggregate", "peak_queue_depth"));
        assert_eq!(at("queue_wait_cycles", "count"), at("aggregate", "completed"));
        assert_eq!(at("aggregate", "completed"), 3, "the manifest completes jobs");
    }
}
