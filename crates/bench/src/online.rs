//! `repro online`: drive the multi-shard discrete-event serving
//! simulator from a JSON manifest and report cluster / shard / tenant
//! results.
//!
//! The manifest names the cluster (heterogeneous shards + dispatch
//! policy), the per-tenant SLO targets, and the open-loop traffic
//! sources (see `docs/serving.md`):
//!
//! ```json
//! {
//!   "cluster": {
//!     "policy": "least-outstanding",
//!     "seed": 7,
//!     "horizon_cycles": 40000000,
//!     "max_jobs": 200000,
//!     "max_outstanding": 8,
//!     "max_backlog_cycles": 500000,
//!     "workers": 2,
//!     "shards": [
//!       {"name": "bsc0", "kind": "bsc", "quick": true},
//!       {"name": "lpc0", "kind": "lpc", "quick": true, "mem": "edge"},
//!       {"name": "hps0", "kind": "hps", "quick": true, "mem": "edge",
//!        "bandwidth_bytes_per_cycle": 64}
//!     ]
//!   },
//!   "tenants": {"gold": {"latency_p99_cycles": 60000, "min_goodput": 0.9}},
//!   "sources": [
//!     {"name": "steady", "network": "micro", "tenant": "gold",
//!      "deadline_cycles": 60000,
//!      "arrivals": {"process": "poisson", "mean_interarrival_cycles": 400}}
//!   ]
//! }
//! ```
//!
//! `arrivals.process` is `poisson`, `bursty` (adds `on_cycles` /
//! `off_cycles`) or `diurnal` (adds `segments`, each with
//! `duration_cycles` + `mean_interarrival_cycles`).  Every export —
//! aggregate report, SLO report, event log, Perfetto timeline,
//! dashboard — is a pure function of the manifest, byte-identical at
//! any worker count, so `BENCH_online_baseline.json` is gated at
//! `--tol 0`.

use std::collections::BTreeMap;

use bsc_accel::cluster::{
    run_online_profiled, DispatchPolicy, OnlineConfig, OnlineReport, ShardSpec, TrafficSource,
    EVENT_LOG_CAP,
};
use bsc_accel::des::{ArrivalProcess, DiurnalSegment};
use bsc_telemetry::profile::Profiler;
use bsc_telemetry::{JsonBuilder, JsonValue};

use crate::manifest::{
    accel_config, array_field, err_at, job_template, mem_config, object_field, parse_tenants,
    render_tenants, str_field, u64_field, workers_field, write_queue_wait, write_slo_tenants,
};

/// The result of one online run: the deterministic report plus the
/// shard names.
#[derive(Debug)]
pub struct OnlineRun {
    /// The cluster report (per-shard tallies, SLO fold, event log).
    pub report: OnlineReport,
    /// Shard names in shard order (for rendering / Perfetto groups).
    pub shard_names: Vec<String>,
}

fn parse_shard(spec: &JsonValue, i: usize) -> Result<ShardSpec, String> {
    let ctx = format!("cluster.shards[{i}]");
    let name = str_field(spec, &ctx, "name")?.map_or_else(|| format!("shard{i}"), str::to_owned);
    let (_, mem) = mem_config(spec, &ctx, "mem", "infinite")?;
    Ok(ShardSpec { name, accel: accel_config(spec, &ctx)?.with_mem(mem) })
}

fn parse_arrivals(spec: &JsonValue, ctx: &str) -> Result<ArrivalProcess, String> {
    let arrivals =
        object_field(spec, ctx, "arrivals")?.ok_or_else(|| err_at(ctx, "missing `arrivals`"))?;
    let mean = |obj: &JsonValue, c: &str| -> Result<u64, String> {
        u64_field(obj, c, "mean_interarrival_cycles")?
            .filter(|m| *m >= 1)
            .ok_or_else(|| err_at(c, "mean_interarrival_cycles: expected a positive integer"))
    };
    match str_field(arrivals, ctx, "process")?.unwrap_or("poisson") {
        "poisson" => Ok(ArrivalProcess::Poisson {
            mean_interarrival_cycles: mean(arrivals, ctx)?,
        }),
        "bursty" => {
            let on = u64_field(arrivals, ctx, "on_cycles")?
                .filter(|v| *v >= 1)
                .ok_or_else(|| err_at(ctx, "on_cycles: expected a positive integer"))?;
            let off = u64_field(arrivals, ctx, "off_cycles")?
                .ok_or_else(|| err_at(ctx, "off_cycles: expected a non-negative integer"))?;
            Ok(ArrivalProcess::Bursty {
                on_cycles: on,
                off_cycles: off,
                mean_interarrival_cycles: mean(arrivals, ctx)?,
            })
        }
        "diurnal" => {
            let segs = array_field(arrivals, ctx, "segments")?
                .filter(|a| !a.is_empty())
                .ok_or_else(|| err_at(ctx, "segments: expected a non-empty array"))?;
            let mut segments = Vec::with_capacity(segs.len());
            for (k, seg) in segs.iter().enumerate() {
                let sctx = format!("{ctx}.segments[{k}]");
                segments.push(DiurnalSegment {
                    duration_cycles: u64_field(seg, &sctx, "duration_cycles")?
                        .filter(|v| *v >= 1)
                        .ok_or_else(|| {
                            err_at(&sctx, "duration_cycles: expected a positive integer")
                        })?,
                    mean_interarrival_cycles: mean(seg, &sctx)?,
                });
            }
            Ok(ArrivalProcess::Diurnal { segments })
        }
        other => Err(err_at(
            ctx,
            format!("arrivals.process: unknown process `{other}` (poisson|bursty|diurnal)"),
        )),
    }
}

/// Parses an online manifest into an [`OnlineConfig`].
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON, unknown
/// networks / precisions / policies, out-of-range parameters, or a
/// field of the wrong JSON type.
pub fn parse_online_manifest(text: &str) -> Result<OnlineConfig, String> {
    let doc = bsc_telemetry::parse_json(text).map_err(|e| err_at("manifest", e))?;
    let cluster = object_field(&doc, "manifest", "cluster")?
        .ok_or("manifest: missing `cluster` object")?;

    let shard_specs = array_field(cluster, "cluster", "shards")?
        .filter(|a| !a.is_empty())
        .ok_or("cluster.shards: expected a non-empty array")?;
    let mut shards = Vec::with_capacity(shard_specs.len());
    for (i, spec) in shard_specs.iter().enumerate() {
        shards.push(parse_shard(spec, i)?);
    }

    let policy = match str_field(cluster, "cluster", "policy")? {
        None => DispatchPolicy::LeastOutstanding,
        Some(s) => s.parse::<DispatchPolicy>().map_err(|e| err_at("cluster.policy", e))?,
    };
    let seed = u64_field(cluster, "cluster", "seed")?.unwrap_or(0);
    let horizon_cycles = u64_field(cluster, "cluster", "horizon_cycles")?
        .filter(|h| *h >= 1)
        .ok_or("cluster.horizon_cycles: expected a positive integer")?;
    let max_jobs = u64_field(cluster, "cluster", "max_jobs")?.unwrap_or(u64::MAX);
    let max_outstanding =
        u64_field(cluster, "cluster", "max_outstanding")?.unwrap_or(64);
    if max_outstanding == 0 {
        return Err("cluster.max_outstanding: must be positive".into());
    }
    let max_backlog_cycles = u64_field(cluster, "cluster", "max_backlog_cycles")?;
    let event_log_cap = u64_field(cluster, "cluster", "event_log_cap")?
        .map(|c| c as usize)
        .unwrap_or(EVENT_LOG_CAP);
    let workers = workers_field(cluster, "cluster")?;

    let tenants = parse_tenants(&doc)?;

    let source_specs = array_field(&doc, "manifest", "sources")?
        .filter(|a| !a.is_empty())
        .ok_or("manifest: missing non-empty `sources` array")?;
    let mut networks = BTreeMap::new();
    let mut sources = Vec::with_capacity(source_specs.len());
    for (i, spec) in source_specs.iter().enumerate() {
        let ctx = format!("sources[{i}]");
        sources.push(TrafficSource {
            template: job_template(spec, &ctx, format!("source{i}"), &tenants, &mut networks)?,
            process: parse_arrivals(spec, &ctx)?,
        });
    }

    Ok(OnlineConfig {
        shards,
        policy,
        seed,
        horizon_cycles,
        max_jobs,
        max_outstanding,
        max_backlog_cycles,
        event_log_cap,
        workers,
        sources,
    })
}

/// Runs an online manifest end to end.  `workers_override` (the CLI's
/// `--workers`) takes precedence over the manifest's worker count —
/// results are identical either way; only wall time changes.
///
/// # Errors
///
/// Returns a message on manifest, characterization or scheduling
/// failures.
pub fn online(manifest_text: &str, workers_override: Option<usize>) -> Result<OnlineRun, String> {
    online_profiled(manifest_text, workers_override, None)
}

/// [`online`] with an optional self-profiler attached (the engine of
/// `repro online --profile-out` and `repro profile`).  The profiler's
/// deterministic counter side is a pure function of the manifest; see
/// [`bsc_accel::cluster::run_online_profiled`].
///
/// # Errors
///
/// Same contract as [`online`].
pub fn online_profiled(
    manifest_text: &str,
    workers_override: Option<usize>,
    profiler: Option<&Profiler>,
) -> Result<OnlineRun, String> {
    let mut config = parse_online_manifest(manifest_text)?;
    if workers_override.is_some() {
        config.workers = workers_override;
    }
    let report = run_online_profiled(&config, profiler).map_err(|e| err_at("online", e))?;
    Ok(OnlineRun { shard_names: config.shards.iter().map(|s| s.name.clone()).collect(), report })
}

/// Aligned-text view of one online run.
pub fn render(run: &OnlineRun) -> String {
    use std::fmt::Write as _;
    let r = &run.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "online: {} policy, seed {}, horizon {} cycles: {} submitted / {} completed / {} rejected / {} shed, makespan {} cycles",
        r.policy,
        r.seed,
        r.horizon_cycles,
        r.submitted,
        r.completed,
        r.rejected,
        r.shed,
        r.makespan_cycles,
    );
    for s in &r.shards {
        let util = if r.makespan_cycles == 0 {
            0.0
        } else {
            s.busy_cycles as f64 / r.makespan_cycles as f64
        };
        let _ = writeln!(
            out,
            "shard {:<10} [{}] {:>8} completed / {:>6} rejected / {:>6} shed, busy {:>12} cyc (util {:.2}), peak outstanding {}, peak backlog {} cyc, {:.1} pJ",
            s.name,
            s.kind,
            s.completed,
            s.rejected,
            s.shed,
            s.busy_cycles,
            util,
            s.peak_outstanding,
            s.peak_backlog_cycles,
            s.energy_fj as f64 / 1e3,
        );
    }
    for f in &r.funnel {
        let _ = writeln!(
            out,
            "  funnel {:<10} offered {:>8} -> queue_full {:>6} | overloaded {:>6} | deadline_infeasible {:>6} | shed {:>6} | dispatched {:>8}",
            f.shard,
            f.offered,
            f.queue_full,
            f.overloaded,
            f.deadline_infeasible,
            f.shed_deadline,
            f.dispatched,
        );
    }
    render_tenants(&mut out, &r.slo);
    if r.events_truncated > 0 {
        let _ = writeln!(
            out,
            "event log: first {} decisions kept, {} truncated",
            r.events.len(),
            r.events_truncated,
        );
    }
    out
}

/// Machine-readable aggregate report for the `BENCH_online_baseline.json`
/// CI gate.  Every field is a pure function of the manifest — no wall
/// clock, no process-global cache tallies — so the document is diffed at
/// `--tol 0` and byte-compared across worker counts.
pub fn report_json(run: &OnlineRun) -> String {
    let r = &run.report;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("cluster").begin_object();
    j.key("policy").string(&r.policy.to_string());
    j.key("seed").u64(r.seed);
    j.key("horizon_cycles").u64(r.horizon_cycles);
    j.key("shards").u64(r.shards.len() as u64);
    j.end_object();

    j.key("aggregate").begin_object();
    j.key("submitted").u64(r.submitted);
    j.key("completed").u64(r.completed);
    j.key("rejected").u64(r.rejected);
    j.key("shed").u64(r.shed);
    j.key("makespan_cycles").u64(r.makespan_cycles);
    j.key("total_energy_fj").u64(r.total_energy_fj());
    j.key("events_logged").u64(r.events.len() as u64);
    j.key("events_truncated").u64(r.events_truncated);
    j.end_object();

    j.key("shards").begin_array();
    for s in &r.shards {
        j.begin_object();
        j.key("name").string(&s.name);
        j.key("kind").string(&s.kind.to_string());
        j.key("completed").u64(s.completed);
        j.key("rejected").u64(s.rejected);
        j.key("shed").u64(s.shed);
        j.key("busy_cycles").u64(s.busy_cycles);
        j.key("last_completion_cycle").u64(s.last_completion_cycle);
        j.key("peak_outstanding").u64(s.peak_outstanding);
        j.key("peak_backlog_cycles").u64(s.peak_backlog_cycles);
        j.key("macs").u64(s.macs);
        j.key("energy_fj").u64(s.energy_fj);
        j.end_object();
    }
    j.end_array();

    // Admission-ladder funnel: stage-by-stage pass/stop counts per
    // shard; stages partition `offered`, so the gate catches any drift
    // in the ladder's decision mix, not just the aggregate outcome.
    j.key("funnel").begin_array();
    for f in &r.funnel {
        j.begin_object();
        j.key("shard").string(&f.shard);
        j.key("offered").u64(f.offered);
        j.key("queue_full").u64(f.queue_full);
        j.key("overloaded").u64(f.overloaded);
        j.key("deadline_infeasible").u64(f.deadline_infeasible);
        j.key("shed_deadline").u64(f.shed_deadline);
        j.key("dispatched").u64(f.dispatched);
        j.end_object();
    }
    j.end_array();

    // Depth observatory: the windowed per-shard series, sampled on the
    // virtual clock (deterministic), compact enough to gate whole.
    j.key("depth").begin_object();
    j.key("stride_cycles").u64(r.depth_stride_cycles);
    j.key("shards").begin_array();
    for d in &r.depth {
        j.begin_object();
        j.key("shard").string(&d.shard);
        j.key("samples").u64(d.samples.len() as u64);
        j.key("series").begin_array();
        for s in &d.samples {
            j.begin_array();
            j.u64(s.cycle);
            j.u64(s.outstanding);
            j.u64(s.backlog_cycles);
            j.end_array();
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();
    j.end_object();

    // The run-scoped counters restate `aggregate`.  No process-wide cache
    // tally and no wall clock appear: the report is byte-compared across
    // worker counts, so every field is a pure function of the manifest.
    j.key("counters").begin_object();
    for (name, value) in [
        ("engine.jobs.submitted", r.submitted),
        ("engine.jobs.rejected", r.rejected),
        ("engine.jobs.shed", r.shed),
        ("engine.jobs.completed", r.completed),
        ("engine.decision_log.truncated", r.events_truncated),
    ] {
        j.key(name).u64(value);
    }
    j.end_object();

    write_queue_wait(&mut j, &r.queue_wait_cycles);
    j.end_object();
    let mut text = j.finish();
    text.push('\n');
    text
}

/// Machine-readable per-tenant SLO report, sharing the exact tenant
/// layout of `repro serve`'s `--slo-out` under a cluster header.
pub fn slo_json(run: &OnlineRun) -> String {
    let slo = &run.report.slo;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("cluster").begin_object();
    j.key("policy").string(&run.report.policy.to_string());
    j.key("window_width_cycles").u64(slo.window_width_cycles);
    j.key("total_energy_fj").u64(slo.total_energy_fj());
    j.end_object();
    write_slo_tenants(&mut j, slo);
    j.end_object();
    let mut text = j.finish();
    text.push('\n');
    text
}

/// Structured event log: one strict-JSON line summarizing the run, then
/// one line per retained decision (the log is capped at
/// [`bsc_accel::cluster::EVENT_LOG_CAP`]; the header carries the
/// truncation count so consumers know the tail is aggregate-only).
pub fn events_jsonl(run: &OnlineRun) -> String {
    let r = &run.report;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("event").string("online");
    j.key("policy").string(&r.policy.to_string());
    j.key("seed").u64(r.seed);
    j.key("submitted").u64(r.submitted);
    j.key("completed").u64(r.completed);
    j.key("rejected").u64(r.rejected);
    j.key("shed").u64(r.shed);
    j.key("makespan_cycles").u64(r.makespan_cycles);
    j.key("events_truncated").u64(r.events_truncated);
    j.end_object().newline();

    for e in &r.events {
        j.begin_object();
        j.key("event").string("job");
        j.key("job").string(&e.job);
        j.key("template").string(&e.template);
        j.key("tenant").string(e.tenant.as_str());
        j.key("shard").string(&e.shard);
        j.key("outcome").string(e.outcome);
        if let Some(reason) = e.reason {
            j.key("reason").string(reason);
        }
        j.key("arrival_cycle").u64(e.arrival_cycle);
        j.key("start_cycle").u64(e.start_cycle);
        j.key("completion_cycle").u64(e.completion_cycle);
        j.end_object().newline();
    }
    j.finish()
}

/// Chrome trace-event timeline of the online run: **one process (track
/// group) per shard**, named after the shard, with the retained
/// completed jobs as complete slices on the shard's dispatch track,
/// shed/rejected decisions as instant events on a decisions track, and
/// the depth observatory as a per-shard counter track (`ph:"C"`,
/// outstanding jobs + backlog).  Timestamps are model cycles (µs in the
/// viewer).
pub fn perfetto_json(run: &OnlineRun) -> String {
    const DISPATCH_TID: u64 = 1;
    const DECISIONS_TID: u64 = 2;
    let r = &run.report;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("displayTimeUnit").string("ms");
    j.key("otherData").begin_object();
    j.key("policy").string(&r.policy.to_string());
    j.key("makespan_cycles").u64(r.makespan_cycles);
    j.key("events_truncated").u64(r.events_truncated);
    j.key("truncated").bool(r.events_truncated > 0);
    j.end_object();
    j.key("traceEvents").begin_array();

    // One process per shard, in shard order.
    for (i, name) in run.shard_names.iter().enumerate() {
        let pid = i as u64 + 1;
        j.begin_object();
        j.key("ph").string("M");
        j.key("pid").u64(pid);
        j.key("name").string("process_name");
        j.key("args").begin_object();
        j.key("name").string(&format!("shard {name}"));
        j.end_object();
        j.end_object();
        for (tid, label) in [(DISPATCH_TID, "dispatch"), (DECISIONS_TID, "decisions")] {
            j.begin_object();
            j.key("ph").string("M");
            j.key("pid").u64(pid);
            j.key("tid").u64(tid);
            j.key("name").string("thread_name");
            j.key("args").begin_object();
            j.key("name").string(label);
            j.end_object();
            j.end_object();
        }
    }

    // Depth-observatory counter tracks: one per shard (the shard's own
    // process), rendered by Perfetto as stacked counter plots over the
    // virtual clock.
    for d in &r.depth {
        let pid = run
            .shard_names
            .iter()
            .position(|n| *n == d.shard)
            .map_or(0, |i| i as u64 + 1);
        for s in &d.samples {
            j.begin_object();
            j.key("ph").string("C");
            j.key("pid").u64(pid);
            j.key("name").string("queue depth");
            j.key("ts").u64(s.cycle);
            j.key("args").begin_object();
            j.key("outstanding").u64(s.outstanding);
            j.key("backlog_kcycles").u64(s.backlog_cycles / 1_000);
            j.end_object();
            j.end_object();
        }
    }

    for e in &r.events {
        let pid = run
            .shard_names
            .iter()
            .position(|n| *n == e.shard)
            .map_or(0, |i| i as u64 + 1);
        j.begin_object();
        if e.outcome == "completed" {
            j.key("ph").string("X");
            j.key("pid").u64(pid);
            j.key("tid").u64(DISPATCH_TID);
            j.key("name").string(&e.job);
            j.key("cat").string("job");
            j.key("ts").u64(e.start_cycle);
            j.key("dur").u64(e.completion_cycle - e.start_cycle);
        } else {
            j.key("ph").string("i");
            j.key("pid").u64(pid);
            j.key("tid").u64(DECISIONS_TID);
            j.key("name").string(&format!("{} {}", e.outcome, e.job));
            j.key("cat").string("decision");
            j.key("ts").u64(e.arrival_cycle);
            j.key("s").string("t");
        }
        j.key("args").begin_object();
        j.key("tenant").string(e.tenant.as_str());
        j.key("arrival_cycle").u64(e.arrival_cycle);
        if let Some(reason) = e.reason {
            j.key("reason").string(reason);
        }
        j.end_object();
        j.end_object();
    }

    j.end_array();
    j.end_object();
    let mut text = j.finish();
    text.push('\n');
    text
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MAX_WORKERS;
    use bsc_mac::MacKind;

    pub(crate) const MANIFEST: &str = r#"{
      "cluster": {
        "policy": "least-outstanding",
        "seed": 11,
        "horizon_cycles": 300000,
        "max_jobs": 5000,
        "max_outstanding": 8,
        "max_backlog_cycles": 200000,
        "workers": 2,
        "shards": [
          {"name": "bsc0", "kind": "bsc", "quick": true},
          {"name": "lpc0", "kind": "lpc", "quick": true, "mem": "edge"},
          {"name": "hps0", "kind": "hps", "quick": true, "mem": "edge",
           "bandwidth_bytes_per_cycle": 64}
        ]
      },
      "tenants": {
        "gold": {"latency_p99_cycles": 100000, "min_goodput": 0.5},
        "strict": {"latency_p99_cycles": 1, "min_goodput": 1.0}
      },
      "sources": [
        {"name": "steady", "network": "micro", "tenant": "gold",
         "deadline_cycles": 100000,
         "arrivals": {"process": "poisson", "mean_interarrival_cycles": 400}},
        {"name": "burst", "network": "micro", "tenant": "strict", "precision": "int8",
         "arrivals": {"process": "bursty", "on_cycles": 4000, "off_cycles": 16000,
                      "mean_interarrival_cycles": 150}},
        {"name": "tide", "network": "micro",
         "arrivals": {"process": "diurnal", "segments": [
            {"duration_cycles": 50000, "mean_interarrival_cycles": 300},
            {"duration_cycles": 50000, "mean_interarrival_cycles": 3000}]}}
      ]
    }"#;

    #[test]
    fn manifest_parses_heterogeneous_shards_and_processes() {
        let config = parse_online_manifest(MANIFEST).unwrap();
        assert_eq!(config.shards.len(), 3);
        assert_eq!(config.shards[0].accel.kind, MacKind::Bsc);
        assert!(config.shards[0].accel.mem.is_infinite_bandwidth());
        assert!(!config.shards[1].accel.mem.is_infinite_bandwidth());
        assert_ne!(config.shards[1].accel.mem, config.shards[2].accel.mem);
        assert_eq!(config.sources.len(), 3);
        assert!(matches!(config.sources[0].process, ArrivalProcess::Poisson { .. }));
        assert!(matches!(config.sources[1].process, ArrivalProcess::Bursty { .. }));
        assert!(matches!(config.sources[2].process, ArrivalProcess::Diurnal { .. }));
        assert_eq!(config.sources[0].template.tenant.as_str(), "gold");
        assert!(config.sources[0].template.slo.is_some());
        assert!(config.sources[2].template.slo.is_none());
    }

    #[test]
    fn malformed_online_manifests_are_rejected_with_context() {
        assert!(parse_online_manifest("{}").unwrap_err().contains("cluster"));
        let bad = MANIFEST.replace("least-outstanding", "random");
        assert!(parse_online_manifest(&bad).unwrap_err().contains("policy"));
        let bad = MANIFEST.replace("\"process\": \"poisson\"", "\"process\": \"weibull\"");
        assert!(parse_online_manifest(&bad).unwrap_err().contains("weibull"));
        let bad = MANIFEST.replace("micro", "alexnet");
        assert!(parse_online_manifest(&bad).unwrap_err().contains("alexnet"));
        // Each worker is an OS thread, so the count is bounded.
        let workers = |n: usize| MANIFEST.replace(r#""workers": 2"#, &format!(r#""workers": {n}"#));
        let err = parse_online_manifest(&workers(MAX_WORKERS + 1)).unwrap_err();
        assert!(err.contains("cluster.workers"), "{err}");
        let most = parse_online_manifest(&workers(MAX_WORKERS)).unwrap();
        assert_eq!(most.workers, Some(MAX_WORKERS));
    }

    #[test]
    fn online_exports_are_worker_count_independent_and_strict_json() {
        let runs: Vec<OnlineRun> =
            [Some(1), Some(2), Some(8)].into_iter().map(|w| online(MANIFEST, w).unwrap()).collect();
        assert!(runs[0].report.submitted > 100);
        assert!(runs[0].report.completed > 0);
        let reports: Vec<String> = runs.iter().map(report_json).collect();
        let slos: Vec<String> = runs.iter().map(slo_json).collect();
        let events: Vec<String> = runs.iter().map(events_jsonl).collect();
        let traces: Vec<String> = runs.iter().map(perfetto_json).collect();
        for i in 1..runs.len() {
            assert_eq!(reports[0], reports[i], "report differs at worker set {i}");
            assert_eq!(slos[0], slos[i], "slo differs at worker set {i}");
            assert_eq!(events[0], events[i], "events differ at worker set {i}");
            assert_eq!(traces[0], traces[i], "trace differs at worker set {i}");
        }
        bsc_telemetry::parse_json(&reports[0]).expect("report is strict JSON");
        bsc_telemetry::parse_json(&slos[0]).expect("slo is strict JSON");
        bsc_telemetry::parse_json(&traces[0]).expect("trace is strict JSON");
        for line in events[0].lines() {
            bsc_telemetry::parse_json(line).expect("event lines are strict JSON");
        }
    }

    #[test]
    fn perfetto_groups_one_process_per_shard() {
        let run = online(MANIFEST, Some(2)).unwrap();
        let doc = bsc_telemetry::parse_json(&perfetto_json(&run)).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let processes: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("M")
                    && e.get("name").and_then(|v| v.as_str()) == Some("process_name")
            })
            .map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(processes, vec!["shard bsc0", "shard lpc0", "shard hps0"]);
        // Every slice lands in a declared process.
        for e in events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")) {
            let pid = e.get("pid").and_then(|v| v.as_f64()).unwrap();
            assert!((1.0..=3.0).contains(&pid));
        }
    }

    #[test]
    fn manifest_event_log_cap_flows_into_the_run() {
        let capped = MANIFEST.replace("\"seed\": 11,", "\"seed\": 11, \"event_log_cap\": 7,");
        let config = parse_online_manifest(&capped).unwrap();
        assert_eq!(config.event_log_cap, 7);
        let run = online(&capped, Some(1)).unwrap();
        assert_eq!(run.report.events.len(), 7);
        assert_eq!(run.report.events_truncated, run.report.submitted - 7);
        // The drop count surfaces in the render output and the report.
        let text = render(&run);
        assert!(
            text.contains(&format!(
                "event log: first 7 decisions kept, {} truncated",
                run.report.events_truncated
            )),
            "{text}"
        );
        let doc = bsc_telemetry::parse_json(&report_json(&run)).unwrap();
        let truncated = doc
            .get("counters")
            .and_then(|c| c.get("engine.decision_log.truncated"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(truncated as u64, run.report.events_truncated);
        // The default cap keeps every decision of this small manifest.
        assert_eq!(parse_online_manifest(MANIFEST).unwrap().event_log_cap, EVENT_LOG_CAP);
    }

    #[test]
    fn report_json_carries_funnel_and_depth_sections() {
        let run = online(MANIFEST, Some(2)).unwrap();
        let doc = bsc_telemetry::parse_json(&report_json(&run)).unwrap();
        let funnel = doc.get("funnel").and_then(|v| v.as_array()).unwrap();
        assert_eq!(funnel.len(), 3);
        for f in funnel {
            let n = |k: &str| f.get(k).and_then(|v| v.as_f64()).unwrap() as u64;
            assert_eq!(
                n("offered"),
                n("queue_full") + n("overloaded") + n("deadline_infeasible")
                    + n("shed_deadline") + n("dispatched")
            );
        }
        let depth = doc.get("depth").unwrap();
        let stride = depth.get("stride_cycles").and_then(|v| v.as_f64()).unwrap() as u64;
        assert!(stride.is_power_of_two());
        let shards = depth.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(shards.len(), 3);
        for s in shards {
            let series = s.get("series").and_then(|v| v.as_array()).unwrap();
            assert_eq!(
                series.len() as f64,
                s.get("samples").and_then(|v| v.as_f64()).unwrap()
            );
            assert!(!series.is_empty());
        }
        // Per-shard high-water marks ride in the shard objects.
        for s in doc.get("shards").and_then(|v| v.as_array()).unwrap() {
            assert!(s.get("peak_outstanding").is_some());
            assert!(s.get("peak_backlog_cycles").is_some());
        }
    }

    #[test]
    fn perfetto_depth_counter_tracks_cover_every_shard() {
        let run = online(MANIFEST, Some(2)).unwrap();
        let doc = bsc_telemetry::parse_json(&perfetto_json(&run)).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let mut counter_pids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
            .map(|e| e.get("pid").and_then(|v| v.as_f64()).unwrap() as u64)
            .collect();
        counter_pids.sort_unstable();
        counter_pids.dedup();
        assert_eq!(counter_pids, vec![1, 2, 3], "one counter track per shard");
    }

    #[test]
    fn profiled_online_counters_match_the_report() {
        let prof = Profiler::new();
        let run = online_profiled(MANIFEST, Some(2), Some(&prof)).unwrap();
        let snap = prof.snapshot();
        assert_eq!(
            snap.phase("admission").unwrap().counter("offered"),
            run.report.submitted
        );
        assert_eq!(
            snap.phase("slo-fold").unwrap().counter("observations"),
            run.report.submitted
        );
        assert!(snap.phase("schedule-eval").unwrap().counter("pairs_evaluated") > 0);
    }

    #[test]
    fn render_names_every_shard_and_tenant() {
        let run = online(MANIFEST, Some(2)).unwrap();
        let text = render(&run);
        for shard in ["bsc0", "lpc0", "hps0"] {
            assert!(text.contains(shard), "{text}");
        }
        for tenant in ["gold", "strict", "default"] {
            assert!(text.contains(tenant), "{text}");
        }
    }

    /// One quick BSC shard with an unbounded horizon, fed Poisson traffic
    /// whose clock passes `u64::MAX` within the 40-job budget.
    fn unbounded_horizon_manifest(seed: u64, mean_interarrival_cycles: u64) -> String {
        format!(
            r#"{{
              "cluster": {{
                "seed": {seed},
                "horizon_cycles": 18446744073709551615,
                "max_jobs": 40,
                "max_outstanding": 8,
                "shards": [{{"name": "bsc0", "kind": "bsc", "quick": true}}]
              }},
              "sources": [
                {{"name": "sparse", "network": "micro",
                 "arrivals": {{"process": "poisson",
                              "mean_interarrival_cycles": {mean_interarrival_cycles}}}}}
              ]
            }}"#
        )
    }

    #[test]
    fn a_saturated_arrival_clock_ends_the_stream_on_an_idle_shard() {
        let manifest = unbounded_horizon_manifest(1, 1_000_000_000_000_000_000);
        let r = online(&manifest, Some(1)).unwrap().report;
        assert!(r.submitted < 40, "the stream ends at the saturated clock");
        assert!(r.events.windows(2).all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        let exact: Vec<u64> = r
            .events
            .iter()
            .filter(|e| e.outcome == "completed")
            .map(|e| e.completion_cycle - e.start_cycle)
            .collect();
        assert_eq!(exact.len() as u64, r.completed);
        assert!(exact.windows(2).all(|w| w[0] == w[1]), "one network, one schedule");
        // Arrivals ~1e18 cycles apart find the shard idle.  A wrapped
        // clock would queue jobs behind "earlier" ones 1.7e19 cycles out.
        assert_eq!((r.rejected, r.shed), (0, 0));
        let p99 = r.slo.tenants[0].latency.p99;
        assert!(p99 <= 8 * exact[0], "p99 {p99} cycles for a {}-cycle job", exact[0]);
    }

    #[test]
    fn depth_sampling_terminates_when_an_event_lands_near_u64_max() {
        // Seeds whose last arrival lands within one depth stride of
        // u64::MAX, where advancing the sample cursor overflows.
        for seed in [7, 9] {
            let manifest = unbounded_horizon_manifest(seed, 600_000_000_000_000_000);
            let r = online(&manifest, Some(1)).unwrap().report;
            assert!(r.submitted > 0);
            for d in &r.depth {
                assert!(d.samples.len() <= 256, "seed {seed}: {} samples", d.samples.len());
                assert!(d.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
            }
        }
    }
}
