//! `online-steady` and `online-overload`: the multi-shard discrete-event
//! cluster under simulated open-loop Poisson, bursty and diurnal traffic.
//! The seed is the cluster seed.  Each simulation is driven as a single
//! batch call on the virtual clock, so there is no generator lag.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use bsc_accel::{Accelerator, ArrivalGen, CharacterizationCache, OnlineConfig};
use bsc_bench::online::{
    events_jsonl, online, online_profiled, parse_online_manifest, perfetto_json, report_json,
    slo_json, OnlineRun,
};
use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::MacKind;
use bsc_telemetry::profile::Profiler;

use crate::replay::{build_netlist_probe, characterize, run_network};
use crate::serve::sim_report;
use crate::trace::{Layer, Part, Recorder};
use crate::util::{digest_str, ratio, Fnv};
use crate::{Checks, TraceRep, Unit, Workload};

/// Arrival timestamps the event loop draws per `ArrivalGen::refill`.
const ARRIVAL_BATCH: usize = 64;

/// The self-profiler's event-loop phases: the layer each is charged to
/// and the metric holding its host cost per arrival.
const PHASES: [(&str, Layer, &str); 5] = [
    (
        "arrival-sampling",
        Layer::CoreDes,
        "core.cluster.arrival-sampling_ns_per_arrival",
    ),
    (
        "dispatch",
        Layer::CoreCluster,
        "core.cluster.dispatch_ns_per_arrival",
    ),
    (
        "admission",
        Layer::CoreCluster,
        "core.cluster.admission_ns_per_arrival",
    ),
    (
        "schedule-eval",
        Layer::CoreAccelerator,
        "core.cluster.schedule-eval_ns_per_arrival",
    ),
    (
        "slo-fold",
        Layer::CoreSlo,
        "core.cluster.slo-fold_ns_per_arrival",
    ),
];

/// Which traffic level the cluster runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// The load of `examples/online_manifest.json`: ~70% of arrivals
    /// dispatched, ~30% rejected at the outstanding-job cap.
    Steady,
    /// The shape of `examples/profile_10m_manifest.json`: driven far past
    /// capacity, so ~96% of arrivals are rejected at admission.
    Overload,
}

/// An online workload.
pub struct Online {
    load: Load,
    seed: u64,
    tiny: bool,
}

impl Online {
    /// The full workload, or (`tiny`) a short horizon for smoke tests.
    pub fn new(load: Load, seed: u64, tiny: bool) -> Self {
        Online { load, seed, tiny }
    }

    fn manifest(&self) -> String {
        let seed = self.seed;
        let shards = r#"[
      {"name": "bsc-hbm", "kind": "bsc", "quick": true},
      {"name": "lpc-edge", "kind": "lpc", "quick": true, "mem": "edge"},
      {"name": "hps-edge", "kind": "hps", "quick": true, "mem": "edge", "bandwidth_bytes_per_cycle": 64}
    ]"#;
        match self.load {
            Load::Steady => {
                let horizon = if self.tiny { 4_000_000 } else { 160_000_000 };
                format!(
                    r#"{{
  "cluster": {{"policy": "least-outstanding", "seed": {seed}, "horizon_cycles": {horizon},
    "max_jobs": 100000000, "max_outstanding": 8, "max_backlog_cycles": 60000, "workers": 2,
    "shards": {shards}}},
  "tenants": {{
    "gold": {{"latency_p99_cycles": 60000, "min_goodput": 0.6}},
    "silver": {{"latency_p99_cycles": 5000, "min_goodput": 0.95}}
  }},
  "sources": [
    {{"name": "steady", "network": "micro", "tenant": "gold",
     "arrivals": {{"process": "poisson", "mean_interarrival_cycles": 600}}}},
    {{"name": "burst", "network": "micro", "tenant": "silver", "precision": "int8", "deadline_cycles": 10000,
     "arrivals": {{"process": "bursty", "on_cycles": 50000, "off_cycles": 150000, "mean_interarrival_cycles": 200}}}},
    {{"name": "tide", "network": "micro", "tenant": "bronze",
     "arrivals": {{"process": "diurnal", "segments": [
        {{"duration_cycles": 500000, "mean_interarrival_cycles": 2000}},
        {{"duration_cycles": 500000, "mean_interarrival_cycles": 8000}}]}}}}
  ]
}}
"#
                )
            }
            Load::Overload => {
                let horizon = if self.tiny { 2_000_000 } else { 40_000_000 };
                format!(
                    r#"{{
  "cluster": {{"policy": "least-outstanding", "seed": {seed}, "horizon_cycles": {horizon},
    "max_jobs": 100000000, "max_outstanding": 8, "max_backlog_cycles": 120000, "workers": 2,
    "shards": {shards}}},
  "tenants": {{
    "gold": {{"latency_p99_cycles": 120000, "min_goodput": 0.05}},
    "silver": {{"latency_p99_cycles": 60000, "min_goodput": 0.01}}
  }},
  "sources": [
    {{"name": "firehose", "network": "micro", "tenant": "gold",
     "arrivals": {{"process": "poisson", "mean_interarrival_cycles": 20}}}},
    {{"name": "squall", "network": "micro", "tenant": "silver", "precision": "int8", "deadline_cycles": 90000,
     "arrivals": {{"process": "bursty", "on_cycles": 100000, "off_cycles": 100000, "mean_interarrival_cycles": 20}}}},
    {{"name": "tide", "network": "micro", "tenant": "bronze",
     "arrivals": {{"process": "diurnal", "segments": [
        {{"duration_cycles": 1000000, "mean_interarrival_cycles": 40}},
        {{"duration_cycles": 1000000, "mean_interarrival_cycles": 80}}]}}}}
  ]
}}
"#
                )
            }
        }
    }
}

/// A generated manifest and its parsed configuration.
pub struct State {
    manifest: String,
    config: OnlineConfig,
}

/// The characterization key of every shard: its kind and configuration.
fn shard_keys(config: &OnlineConfig) -> Vec<(MacKind, CharacterizeConfig)> {
    let mut keys: Vec<(MacKind, CharacterizeConfig)> = Vec::new();
    for shard in &config.shards {
        let mut cc = shard.accel.characterize.clone();
        cc.length = shard.accel.array.vector_length;
        if !keys.iter().any(|(k, c)| *k == shard.accel.kind && *c == cc) {
            keys.push((shard.accel.kind, cc));
        }
    }
    keys
}

/// The four documents `repro online` exports.
fn documents(run: &OnlineRun) -> [String; 4] {
    [
        report_json(run),
        slo_json(run),
        events_jsonl(run),
        perfetto_json(run),
    ]
}

fn digest(docs: &[String; 4]) -> u64 {
    let mut h = Fnv::default();
    for doc in docs {
        h.write_u64(digest_str(doc));
    }
    h.finish()
}

/// The repository's invariants on one online run.
fn check(run: &OnlineRun) -> Checks {
    let r = &run.report;
    let tenants = &r.slo.tenants;
    vec![
        (
            "submitted = completed + rejected + shed",
            r.submitted == r.completed + r.rejected + r.shed,
        ),
        (
            "the funnel partitions the offered arrivals",
            r.funnel.iter().map(|f| f.offered).sum::<u64>() == r.submitted
                && r.funnel.iter().all(|f| {
                    f.offered
                        == f.queue_full
                            + f.overloaded
                            + f.deadline_infeasible
                            + f.shed_deadline
                            + f.dispatched
                }),
        ),
        (
            "tenants partition the arrivals",
            tenants.iter().map(|t| t.submitted).sum::<u64>() == r.submitted
                && tenants
                    .iter()
                    .all(|t| t.submitted == t.completed + t.rejected + t.shed),
        ),
        (
            "per-tenant energy sums exactly to the total",
            r.slo.total_energy_fj() == r.total_energy_fj(),
        ),
    ]
}

/// `ArrivalGen::refill` for every source, in the event loop's 64-draw
/// batches, until each source's stream passes the horizon.  Returns the
/// samples drawn and the arrivals inside the horizon.
fn refill_replay(config: &OnlineConfig) -> (u64, u64) {
    let mut samples = 0u64;
    let mut arrivals = 0u64;
    let mut buf = VecDeque::with_capacity(ARRIVAL_BATCH);
    for (i, source) in config.sources.iter().enumerate() {
        // The per-source stream seed the cluster derives (golden-ratio hashing).
        let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut gen = ArrivalGen::new(source.process.clone(), seed);
        loop {
            buf.clear();
            gen.refill(ARRIVAL_BATCH, &mut buf);
            samples += ARRIVAL_BATCH as u64;
            arrivals += buf.iter().filter(|&&t| t <= config.horizon_cycles).count() as u64;
            if buf.back().is_none_or(|&t| t > config.horizon_cycles) {
                break;
            }
        }
    }
    (samples, arrivals)
}

impl Workload for Online {
    type State = State;

    fn setup(&self, warm: bool) -> Result<State, String> {
        let manifest = self.manifest();
        let config = parse_online_manifest(&manifest)?;
        for (kind, cc) in shard_keys(&config) {
            if warm {
                CharacterizationCache::global()
                    .get_or_characterize(kind, &cc)
                    .map_err(|e| e.to_string())?;
            } else {
                DesignCharacterization::new(kind, &cc).map_err(|e| e.to_string())?;
            }
        }
        Ok(State { manifest, config })
    }

    fn run(&self, state: &State) -> Result<Unit, String> {
        let started = Instant::now();
        let run = online(&state.manifest, None)?;
        let docs = documents(&run);
        let work_ns = started.elapsed().as_nanos() as u64;
        Ok(Unit {
            work_ns,
            calls: Vec::new(),
            items: run.report.submitted,
            digest: digest(&docs),
            checks: check(&run),
            report: sim_report(&run.report.slo),
        })
    }

    fn trace(&self, state: &State, rec: &mut Recorder) -> Result<TraceRep, String> {
        let config = &state.config;
        let keys = shard_keys(config);
        let setup_started = Instant::now();
        let (_, gate_steps) = characterize(rec, &keys)?;
        let setup_ns = setup_started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let reference = online(&state.manifest, None)?;
        let loop_ns = started.elapsed().as_nanos() as u64;
        let reference_docs = documents(&reference);
        let untraced_work_ns = started.elapsed().as_nanos() as u64;

        // The event loop is one public call; its phase split comes from the
        // program's own self-profiler, recorded as children of its span.
        let started = Instant::now();
        let profiler = Profiler::new();
        let (profiled, profiled_ns) = rec.span(Layer::CoreCluster, "run_online_profiled", |rec| {
            let t = Instant::now();
            let run = online_profiled(&state.manifest, None, Some(&profiler));
            let ns = t.elapsed().as_nanos() as u64;
            for phase in profiler.snapshot().phases {
                let (name, layer, _) = PHASES
                    .iter()
                    .find(|(n, ..)| *n == phase.name)
                    .copied()
                    .unwrap_or(("other", Layer::CoreCluster, ""));
                rec.synthetic(layer, name, phase.wall_ns);
            }
            (run, ns)
        });
        let profiled = profiled?;
        let docs = [
            rec.span(Layer::Bench, "report_json", |_| report_json(&profiled)),
            rec.span(Layer::Bench, "slo_json", |_| slo_json(&profiled)),
            rec.span(Layer::Bench, "events_jsonl", |_| events_jsonl(&profiled)),
            rec.span(Layer::Bench, "perfetto_json", |_| perfetto_json(&profiled)),
        ];
        let traced_work_ns = started.elapsed().as_nanos() as u64;

        // Probes: netlist construction, the arrival kernel for the run's
        // sample count, and `run_network` for each source × shard pair.
        build_netlist_probe(rec, &keys);
        rec.set_part(Part::Probe);
        let (samples, arrivals) = rec.span(Layer::CoreDes, "ArrivalGen::refill", |_| {
            refill_replay(config)
        });
        let mut pairs_match = true;
        for source in &config.sources {
            let network = source.template.precision.apply(&source.template.network);
            for shard in &config.shards {
                let mut cc = shard.accel.characterize.clone();
                cc.length = shard.accel.array.vector_length;
                let design = CharacterizationCache::global()
                    .get_or_characterize(shard.accel.kind, &cc)
                    .map_err(|e| e.to_string())?;
                let expected = Accelerator::with_shared_characterization(
                    shard.accel.clone(),
                    Arc::clone(&design),
                )
                .run_network(&network)
                .map_err(|e| e.to_string())?;
                let layers = run_network(rec, &shard.accel, &design, &network)?;
                pairs_match &= expected.layers() == layers.as_slice();
            }
        }
        rec.set_part(Part::Main);

        let snap = profiler.snapshot();
        let phase = |name: &str| snap.phase(name);
        let r = &profiled.report;
        let capped = r.submitted >= config.max_jobs;
        let sampled = phase("arrival-sampling").map_or(0, |p| p.counter("samples"));
        if rec.noting() {
            rec.notes.des_samples = samples;
            rec.notes.slo_observations = phase("slo-fold").map_or(0, |p| p.counter("observations"));
            rec.notes.export_bytes = docs.iter().map(|d| d.len() as u64).sum();
        }
        let phased_ns: u64 = snap.phases.iter().map(|p| p.wall_ns).sum();
        let arrivals_f = r.submitted as f64;
        let mut extras: Vec<(&'static str, f64)> = PHASES
            .iter()
            .map(|&(name, _, metric)| {
                (
                    metric,
                    ratio(phase(name).map_or(0, |p| p.wall_ns) as f64, arrivals_f),
                )
            })
            .collect();
        extras.extend([
            ("mac.ppa.gate_steps", gate_steps as f64),
            (
                "core.cluster.unattributed_frac",
                ratio(
                    profiled_ns.saturating_sub(phased_ns) as f64,
                    profiled_ns as f64,
                ),
            ),
            (
                "core.cluster.dispatched_frac",
                ratio(r.completed as f64, arrivals_f),
            ),
            (
                "core.cluster.profiled_arrivals_per_s",
                ratio(arrivals_f * 1e9, profiled_ns as f64),
            ),
            (
                "core.cluster.profiler_overhead_frac",
                ratio(profiled_ns as f64, loop_ns as f64) - 1.0,
            ),
        ]);
        Ok(TraceRep {
            main_ns: setup_ns + traced_work_ns,
            traced_work_ns,
            untraced_work_ns,
            checks: vec![
                (
                    "profiled exports equal the unprofiled run's",
                    digest(&docs) == digest(&reference_docs),
                ),
                (
                    "replayed arrival samples equal the profiler's count",
                    capped || sampled == samples,
                ),
                (
                    "replayed arrivals inside the horizon equal the submissions",
                    capped || arrivals == r.submitted,
                ),
                (
                    "replay: run_network layers equal every source x shard pair",
                    pairs_match,
                ),
            ],
            extras,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_on_a_short_horizon() {
        for load in [Load::Steady, Load::Overload] {
            let w = Online::new(load, 11, true);
            let state = w.setup(true).unwrap();
            let unit = w.run(&state).unwrap();
            assert!(unit.items > 0);
            assert!(
                unit.checks.iter().all(|c| c.1),
                "{load:?}: {:?}",
                unit.checks
            );
            assert_eq!(unit.digest, w.run(&state).unwrap().digest);
            let mut rec = Recorder::default();
            let rep = w.trace(&state, &mut rec).unwrap();
            assert!(rep.checks.iter().all(|c| c.1), "{load:?}: {:?}", rep.checks);
            assert!(rec.notes.des_samples > 0);
        }
    }
}
