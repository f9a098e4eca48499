//! A live reference for the online engine's exported tallies.
//!
//! The event loop counts each decision once, in its shard's admission
//! funnel, and records each dispatched job's queue wait into one plain
//! histogram; the report's outcome totals, the exports' `counters` and
//! `queue_wait_cycles` all read those.  This harness rebuilds both the
//! slow way: it runs each manifest with a decision log that keeps every
//! arrival, folds each logged decision into a fresh per-shard funnel and
//! into a fresh histogram (one `record` per completion), and compares
//! them with `report.funnel` and `report.queue_wait_cycles`, so a
//! swapped stage, shard, bucket or total shows up as a diff.
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
use bsc_accel::{
    Accelerator, CharacterizationCache, NetworkReport, ShardFunnel, SloAccountant, SloReport,
};
use bsc_bench::online::{online, parse_online_manifest, report_json, OnlineRun};
use bsc_telemetry::HistogramSnapshot;

/// Seeded manifest exercising all three arrival processes (Poisson,
/// bursty, diurnal), heterogeneous shards, both SLO-tracked and
/// untracked tenants, and every admission outcome under every dispatch
/// policy:
///
/// * `queue_full` — the BSC shard's jobs take 298–424 exact cycles, so
///   it reaches its `max_outstanding` cap of 6 inside the backlog limit;
/// * `overloaded` — the edge-memory LPC and HPS shards take 3,374–4,973
///   exact cycles per job, so one queued job there puts the backlog
///   near the 2,200-cycle `max_backlog_cycles`, far below 6 × LPC's
///   717–969-cycle estimate;
/// * `deadline_infeasible` and `shed_deadline` — the `squall` deadline
///   of 1,900 cycles lies between backlog + estimate and backlog +
///   exact for some arrivals, which are admitted and then shed; behind
///   a longer backlog the estimate alone misses it.
///
/// The dispatch policy is substituted per test cell.  The decision log
/// keeps every arrival (`event_log_cap` is above `max_jobs`), so the log
/// is the whole run.
const MANIFEST: &str = r#"{
  "cluster": {
    "policy": "least-outstanding",
    "seed": 20260808,
    "horizon_cycles": 400000,
    "max_jobs": 6000,
    "max_outstanding": 6,
    "max_backlog_cycles": 2200,
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
     "deadline_cycles": 1900,
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

/// Folds every logged decision of `run` into a fresh funnel per shard
/// and a fresh histogram of the completions' queue waits.
fn reference(run: &OnlineRun) -> (Vec<ShardFunnel>, HistogramSnapshot) {
    let r = &run.report;
    assert_eq!(r.events_truncated, 0, "the reference needs every decision logged");
    assert_eq!(r.events.len() as u64, r.submitted);
    let mut funnel: Vec<ShardFunnel> = run
        .shard_names
        .iter()
        .map(|name| ShardFunnel { shard: name.clone(), ..ShardFunnel::default() })
        .collect();
    // The bucket bounds are configuration, read from the run; the
    // samples, counts and extremes come from the log alone.
    let mut waits = HistogramSnapshot::new(&r.queue_wait_cycles.bounds);
    for e in &r.events {
        let f = funnel.iter_mut().find(|f| f.shard == e.shard).expect("a known shard");
        f.offered += 1;
        let stage = match (e.outcome, e.reason) {
            ("completed", None) => {
                waits.record(e.start_cycle - e.arrival_cycle);
                &mut f.dispatched
            }
            ("shed", Some("deadline_missed")) => &mut f.shed_deadline,
            ("rejected", Some("queue_full")) => &mut f.queue_full,
            ("rejected", Some("overloaded")) => &mut f.overloaded,
            ("rejected", Some("deadline_infeasible")) => &mut f.deadline_infeasible,
            other => panic!("unknown decision {other:?}"),
        };
        *stage += 1;
    }
    (funnel, waits)
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

/// Both references for one run: the funnel with the queue waits, and
/// the SLO report with the shard totals.
fn assert_matches_references(manifest: &str, run: &OnlineRun, cell: &str) {
    let (funnel, waits) = reference(run);
    assert_eq!(run.report.funnel, funnel, "{cell}: funnel diverged");
    assert_eq!(run.report.queue_wait_cycles, waits, "{cell}: queue waits diverged");
    let (slo, shards) = slo_reference(manifest, run);
    assert_eq!(run.report.slo, slo, "{cell}: SLO report diverged");
    let totals: Vec<(u64, u64, u64)> =
        run.report.shards.iter().map(|s| (s.busy_cycles, s.macs, s.energy_fj)).collect();
    assert_eq!(totals, shards, "{cell}: shard totals diverged");
}

/// The headline check: the funnel, the queue waits, the SLO report and
/// the shard totals equal a per-event fold of the decision log, across
/// all three dispatch policies, all three arrival processes (the
/// manifest runs them concurrently) and 1/2/8 workers.
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

/// A short horizon, a deep outstanding cap, no backlog limit, a loose
/// `squall` deadline and a deadline-free source at a high rate let the
/// shards queue far past the horizon, so the SLO window width (from the
/// makespan) is several times the horizon's width, at which the engine
/// counts completions during the event loop.  Its coarsened windows must
/// still equal the per-event fold.
#[test]
fn a_makespan_far_past_the_horizon_folds_like_the_decision_log() {
    let manifest = MANIFEST
        .replace("\"horizon_cycles\": 400000", "\"horizon_cycles\": 20000")
        .replace("\"max_outstanding\": 6", "\"max_outstanding\": 400")
        .replace("\"max_backlog_cycles\": 2200,", "")
        .replace("\"deadline_cycles\": 1900", "\"deadline_cycles\": 40000")
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
/// each arrival as `overloaded`, so nothing completes or sheds, the
/// completed and shed stages stay at zero and the wait histogram stays
/// empty, in the report and in its `queue_wait_cycles` export.
#[test]
fn outcomes_that_never_happen_register_nothing() {
    let manifest = MANIFEST.replace("\"max_backlog_cycles\": 2200", "\"max_backlog_cycles\": 1");
    let run = online(&manifest, Some(2)).unwrap();
    let r = &run.report;
    assert!(r.submitted > 1000);
    assert_eq!((r.completed, r.shed, r.rejected), (0, 0, r.submitted));
    assert_matches_references(&manifest, &run, "max_backlog_cycles=1");
    assert!(r.funnel.iter().all(|f| f.dispatched == 0 && f.shed_deadline == 0), "{:?}", r.funnel);
    assert_eq!(r.funnel.iter().map(|f| f.overloaded).sum::<u64>(), r.submitted);
    let waits = &r.queue_wait_cycles;
    assert_eq!((waits.count, waits.sum, waits.min, waits.max), (0, 0, 0, 0));
    assert!(waits.buckets.iter().all(|&b| b == 0), "{waits:?}");
    assert!(report_json(&run).contains(r#""queue_wait_cycles":{"count":0}"#));
}

/// The comparison is not vacuous: under every policy the manifest
/// decides all five funnel stages, and the wait histogram is populated.
#[test]
fn harness_covers_every_outcome_family() {
    for policy in POLICIES {
        let run = online(&MANIFEST.replace("least-outstanding", policy), Some(2)).unwrap();
        let r = &run.report;
        let stage = |count: fn(&ShardFunnel) -> u64| r.funnel.iter().map(count).sum::<u64>();
        let stages = [
            stage(|f| f.queue_full),
            stage(|f| f.overloaded),
            stage(|f| f.deadline_infeasible),
            stage(|f| f.shed_deadline),
            stage(|f| f.dispatched),
        ];
        assert!(stages.iter().all(|&n| n > 0), "{policy}: {:?}", r.funnel);
        let waits = &r.queue_wait_cycles;
        assert_eq!(waits.count, stages[4], "{policy}");
        assert!(waits.buckets.iter().filter(|&&b| b > 0).count() > 1, "{policy}: {waits:?}");
    }
}
