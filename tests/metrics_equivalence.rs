//! A live reference for the online engine's published metrics.
//!
//! `run_online` publishes its per-job metrics once, after the event
//! loop, as a view of the admission funnel (plus the dispatched jobs'
//! queue waits).  This harness rebuilds the same metrics the slow way:
//! it runs each manifest with a decision log that keeps every arrival,
//! folds each logged decision into a fresh [`Registry`] with one
//! registry operation per metric per event, and compares the two
//! snapshots byte for byte.
//!
//! Per decision, the reference records:
//!
//! * `engine.jobs.submitted` and `engine.jobs.<outcome>`;
//! * the `engine.jobs{outcome,reason,shard}` point of its outcome;
//! * for a completion, `start_cycle − arrival_cycle` into
//!   `engine.queue.wait_cycles`.
//!
//! A metric the run never touched is never registered, on either side,
//! so a zero count that leaks into the publish step shows up as a byte
//! diff, as does any swapped label, bucket or total.
//!
//! The run's SLO report and shard totals get the same treatment.  The
//! engine folds completions once per (source × shard) pair, as the
//! pair's per-job constants times its completion count; the reference
//! folds the log into a fresh [`SloAccountant`] one observer call per
//! decision, with each completion's report from a serial
//! `Accelerator::run_network`, and sums each shard's busy cycles, MACs
//! and energy per completion.
//!
//! The matrix covers 3 dispatch policies × 1/2/8 workers, one cell in
//! which nothing completes or sheds, and one whose makespan runs many
//! times past its horizon, so the SLO windows are wider than the
//! horizon's.

use std::collections::BTreeMap;

use bsc_accel::slo::{quantize_energy_fj, window_width_for_horizon};
use bsc_accel::{Accelerator, CharacterizationCache, NetworkReport, SloAccountant, SloReport};
use bsc_bench::online::{online, parse_online_manifest, OnlineRun};
use bsc_telemetry::sink::metrics_to_json;
use bsc_telemetry::{MetricsSnapshot, Registry};

/// Seeded manifest exercising all three arrival processes (Poisson,
/// bursty, diurnal), heterogeneous shards, every rejection reason
/// (queue_full via `max_outstanding`, deadline_infeasible and shed via
/// the tight `strict` deadline, overloaded via `max_backlog_cycles`)
/// and both SLO-tracked and untracked tenants.  The dispatch policy is
/// substituted per test cell.  The decision log keeps every arrival
/// (`event_log_cap` is above `max_jobs`), so the log is the whole run.
const MANIFEST: &str = r#"{
  "cluster": {
    "policy": "least-outstanding",
    "seed": 20260808,
    "horizon_cycles": 400000,
    "max_jobs": 6000,
    "max_outstanding": 6,
    "max_backlog_cycles": 150000,
    "event_log_cap": 100000,
    "workers": 2,
    "shards": [
      {"name": "bsc0", "kind": "bsc", "quick": true},
      {"name": "lpc0", "kind": "lpc", "quick": true, "mem": "edge"},
      {"name": "hps0", "kind": "hps", "quick": true, "mem": "edge",
       "bandwidth_bytes_per_cycle": 64}
    ]
  },
  "tenants": {
    "gold": {"latency_p99_cycles": 120000, "min_goodput": 0.5},
    "strict": {"latency_p99_cycles": 40000, "min_goodput": 0.9}
  },
  "sources": [
    {"name": "steady", "network": "micro", "tenant": "gold",
     "deadline_cycles": 120000,
     "arrivals": {"process": "poisson", "mean_interarrival_cycles": 350}},
    {"name": "squall", "network": "micro", "tenant": "strict", "precision": "int8",
     "deadline_cycles": 40000,
     "arrivals": {"process": "bursty", "on_cycles": 5000, "off_cycles": 15000,
                  "mean_interarrival_cycles": 120}},
    {"name": "tide", "network": "micro",
     "arrivals": {"process": "diurnal", "segments": [
        {"duration_cycles": 60000, "mean_interarrival_cycles": 250},
        {"duration_cycles": 60000, "mean_interarrival_cycles": 2500}]}}
  ]
}"#;

const POLICIES: [&str; 3] = ["least-outstanding", "round-robin", "tenant-fair"];
const WORKERS: [usize; 3] = [1, 2, 8];

/// The run's metrics without timers (wall clock) and without the
/// `engine.cache.*` / `telemetry.characterize.*` counters: those publish
/// the *process-global* characterization cache, which warms
/// monotonically across the runs of this test binary and is not part
/// of the run's own metrics.
fn published(run: &OnlineRun) -> String {
    let mut snap: MetricsSnapshot = run.metrics.without_timers();
    snap.counters.retain(|(name, _)| {
        !name.starts_with("engine.cache.") && !name.starts_with("telemetry.characterize.")
    });
    metrics_to_json(&snap)
}

/// Folds every logged decision of `run` into a fresh registry, one
/// registry operation per metric per event.
fn reference(run: &OnlineRun) -> String {
    let r = &run.report;
    assert_eq!(r.events_truncated, 0, "the reference needs every decision logged");
    assert_eq!(r.events.len() as u64, r.submitted);
    // The bucket bounds are configuration, read from the run; the
    // samples, counts and extremes come from the log alone.
    let bounds = run.metrics.histogram("engine.queue.wait_cycles").map(|h| h.bounds.clone());
    let reg = Registry::new();
    for e in &r.events {
        reg.counter("engine.jobs.submitted").inc();
        reg.counter(&format!("engine.jobs.{}", e.outcome)).inc();
        let mut labels = vec![("outcome", e.outcome), ("shard", e.shard.as_str())];
        labels.extend(e.reason.map(|reason| ("reason", reason)));
        reg.labeled_counter("engine.jobs").with(&labels).inc();
        if e.outcome == "completed" {
            let bounds = bounds.as_deref().expect("a completion publishes its queue wait");
            reg.histogram("engine.queue.wait_cycles", bounds)
                .record(e.start_cycle - e.arrival_cycle);
        }
    }
    // The run-level metrics every online run publishes.
    reg.counter("engine.decision_log.truncated").add(r.events_truncated);
    let makespan = r
        .events
        .iter()
        .filter(|e| e.outcome == "completed")
        .map(|e| e.completion_cycle)
        .max()
        .unwrap_or(0);
    reg.gauge("engine.online.makespan_cycles").set(makespan as i64);
    metrics_to_json(&reg.snapshot())
}

/// Folds every logged decision of `run` into a fresh `SloAccountant`,
/// one observer call per event, and sums each shard's
/// `(busy_cycles, macs, energy_fj)` per completion.  Targets come from
/// the manifest; the window width from its horizon and the log's
/// makespan.
fn slo_reference(manifest: &str, run: &OnlineRun) -> (SloReport, Vec<(u64, u64, u64)>) {
    let config = parse_online_manifest(manifest).unwrap();
    let r = &run.report;
    assert_eq!(r.events_truncated, 0, "the reference needs every decision logged");
    let makespan = r
        .events
        .iter()
        .filter(|e| e.outcome == "completed")
        .map(|e| e.completion_cycle)
        .max()
        .unwrap_or(0);
    let mut acc = SloAccountant::new(window_width_for_horizon(config.horizon_cycles.max(makespan)));
    for s in &config.sources {
        if let Some(target) = s.template.slo {
            acc.declare_target(s.template.tenant.clone(), target);
        }
    }
    let mut reports: BTreeMap<(usize, usize), NetworkReport> = BTreeMap::new();
    let mut shards = vec![(0u64, 0u64, 0u64); config.shards.len()];
    for e in &r.events {
        let si = config.sources.iter().position(|s| s.template.name == e.template).unwrap();
        let hi = config.shards.iter().position(|s| s.name == e.shard).unwrap();
        let t = &config.sources[si].template;
        match e.outcome {
            "completed" => {
                let report = reports.entry((si, hi)).or_insert_with(|| {
                    let cache = CharacterizationCache::global();
                    Accelerator::new_cached(config.shards[hi].accel.clone(), cache)
                        .unwrap()
                        .run_network(&t.precision.apply(&t.network))
                        .unwrap()
                });
                let latency = e.completion_cycle - e.arrival_cycle;
                let met = t.deadline_cycles.map(|d| latency <= d);
                acc.observe_completion(&e.tenant, latency, e.completion_cycle, met, report);
                let (busy, macs, energy) = &mut shards[hi];
                *busy += report.total_cycles_with_stalls();
                *macs += report.total_macs();
                *energy += report.layers().iter().map(|l| quantize_energy_fj(l.energy_fj)).sum::<u64>();
            }
            "rejected" => acc.observe_rejection(&e.tenant, e.reason.unwrap()),
            "shed" => acc.observe_shed(&e.tenant, e.reason.unwrap(), e.completion_cycle),
            other => panic!("unknown outcome {other}"),
        }
    }
    (acc.report(), shards)
}

/// Both references for one run: the published metrics and the SLO
/// report with the shard totals.
fn assert_matches_references(manifest: &str, run: &OnlineRun, cell: &str) {
    assert_eq!(published(run), reference(run), "{cell}: metrics diverged");
    let (slo, shards) = slo_reference(manifest, run);
    assert_eq!(run.report.slo, slo, "{cell}: SLO report diverged");
    let totals: Vec<(u64, u64, u64)> =
        run.report.shards.iter().map(|s| (s.busy_cycles, s.macs, s.energy_fj)).collect();
    assert_eq!(totals, shards, "{cell}: shard totals diverged");
}

/// The headline check: the metrics published from the funnel, the SLO
/// report and the shard totals equal a per-event fold of the decision
/// log, across all three dispatch policies, all three arrival processes
/// (the manifest runs them concurrently) and 1/2/8 workers.
#[test]
fn published_metrics_equal_a_per_event_fold_of_the_decision_log() {
    for policy in POLICIES {
        let manifest = MANIFEST.replace("least-outstanding", policy);
        for workers in WORKERS {
            let cell = format!("policy={policy} workers={workers}");
            let run = online(&manifest, Some(workers)).unwrap();
            // The run must be non-trivial or the equivalence is vacuous.
            assert!(run.report.submitted > 1000, "{cell}: too few arrivals");
            assert!(run.report.completed > 0, "{cell}: nothing completed");
            assert!(run.report.rejected > 0, "{cell}: nothing rejected");
            assert_matches_references(&manifest, &run, &cell);
        }
    }
}

/// A short horizon, a deep outstanding cap, no backlog limit and a
/// deadline-free source at a high rate let the shards queue far past
/// the horizon, so the SLO window width (from the
/// makespan) is several times the horizon's width, at which the engine
/// counts completions during the event loop.  Its coarsened windows must
/// still equal the per-event fold.
#[test]
fn a_makespan_far_past_the_horizon_folds_like_the_decision_log() {
    let manifest = MANIFEST
        .replace("\"horizon_cycles\": 400000", "\"horizon_cycles\": 20000")
        .replace("\"max_outstanding\": 6", "\"max_outstanding\": 400")
        .replace("\"max_backlog_cycles\": 150000,", "")
        .replace("\"mean_interarrival_cycles\": 250}", "\"mean_interarrival_cycles\": 20}");
    let run = online(&manifest, Some(2)).unwrap();
    let r = &run.report;
    let (w0, w) = (
        window_width_for_horizon(r.horizon_cycles),
        window_width_for_horizon(r.horizon_cycles.max(r.makespan_cycles)),
    );
    assert_eq!(r.slo.window_width_cycles, w);
    assert!(w >= 8 * w0, "makespan {} gives W {w} against W0 {w0}", r.makespan_cycles);
    assert!(r.completed > 100 && r.slo.tenants.iter().all(|t| t.windows.len() > 4), "{:?}", r.slo);
    assert_matches_references(&manifest, &run, "horizon=20000");
}

/// The zero-count rule: a backlog limit below every estimate rejects
/// each arrival as `overloaded`, so nothing completes or sheds, and the
/// completed and shed counters, their labeled points and the wait
/// histogram must stay unregistered.
#[test]
fn outcomes_that_never_happen_register_nothing() {
    let manifest = MANIFEST.replace("\"max_backlog_cycles\": 150000", "\"max_backlog_cycles\": 1");
    let run = online(&manifest, Some(2)).unwrap();
    let r = &run.report;
    assert!(r.submitted > 1000);
    assert_eq!((r.completed, r.shed, r.rejected), (0, 0, r.submitted));
    let json = published(&run);
    assert_matches_references(&manifest, &run, "max_backlog_cycles=1");
    for absent in ["engine.jobs.completed", "engine.jobs.shed", "engine.queue.wait_cycles"] {
        assert!(!json.contains(absent), "`{absent}` registered at zero in:\n{json}");
    }
    assert!(json.contains("reason=overloaded"), "{json}");
}

/// The comparison is not vacuous: the manifest drives every outcome
/// class, so each metric family the reference records is populated.
#[test]
fn harness_covers_every_outcome_family() {
    let run = online(MANIFEST, Some(2)).unwrap();
    let json = metrics_to_json(&run.metrics.without_timers());
    for needle in [
        "engine.jobs.submitted",
        "engine.jobs.rejected",
        "engine.jobs.completed",
        "engine.jobs{outcome=completed,",
        "engine.jobs{outcome=rejected,",
        "engine.queue.wait_cycles",
    ] {
        assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
    }
    assert!(run.report.rejected > 0, "no rejections — queue_full family untested");
}
