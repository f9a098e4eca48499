//! `serve`: a batch `Engine` manifest on the quick BSC array, in the shape
//! of `examples/serve_manifest.json`.  The seed draws the LeNet-5 jobs'
//! precisions, tenants and deadlines; the dominant work — two VGG-16
//! int8 jobs, each scheduled at planning and again at execution — is the
//! same for every seed.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use bsc_accel::slo::{quantize_energy_fj, window_width_for_horizon};
use bsc_accel::{
    CharacterizationCache, Engine, EngineConfig, JobOutcome, PrecisionPolicy, ShedReason,
    SloAccountant,
};
use bsc_bench::serve::{events_jsonl, parse_manifest, report_json, serve, slo_json, ServeRun};
use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision, Rng64};
use bsc_nn::models;

use crate::replay::{build_netlist_probe, characterize, mem_schedule, run_network};
use crate::trace::{Layer, Recorder};
use crate::util::{digest_json, Fnv};
use crate::{Checks, TraceRep, Unit, Workload};

const TENANTS: [&str; 3] = ["vision", "edge", "batch"];
const POLICIES: [&str; 4] = ["nas", "int8", "int4", "int2"];
/// A deadline no batch in this workload reaches: the job always meets it.
const LOOSE_DEADLINE: u64 = 1 << 40;

/// The `serve` workload.
pub struct Serve {
    seed: u64,
    tiny: bool,
}

impl Serve {
    /// The full workload, or (`tiny`) the same manifest with LeNet-5 in
    /// place of VGG-16 for smoke tests.
    pub fn new(seed: u64, tiny: bool) -> Self {
        Serve { seed, tiny }
    }
}

/// The engine configuration every serve manifest uses, and the key its
/// characterization is cached under.
fn engine_key() -> (EngineConfig, CharacterizeConfig) {
    let config = EngineConfig::quick(MacKind::Bsc);
    let mut cc = config.accel.characterize.clone();
    cc.length = config.accel.array.vector_length;
    (config, cc)
}

/// Generates the job manifest for `seed`.  Deadlines and the backlog
/// limit come from the engine's own estimates, so every admission
/// outcome fires for every seed:
/// * `urgent` (first, deadline one cycle short of its exact schedule) is
///   admitted on its estimate and shed at planning;
/// * `hopeless` (deadline 1) is rejected as deadline-infeasible;
/// * the third `big` job is rejected as overloaded (the limit holds two);
/// * the second `burst` job finds the queue full.
fn manifest(seed: u64, tiny: bool, design: Arc<DesignCharacterization>) -> Result<String, String> {
    let (config, _) = engine_key();
    let engine = Engine::with_design(config, design);
    let lenet = models::lenet5().into_shared();
    let big = if tiny {
        models::lenet5()
    } else {
        models::vgg16()
    }
    .into_shared();
    let estimate = |net, policy: &str| -> Result<u64, String> {
        let policy: PrecisionPolicy = policy.parse().map_err(|e| format!("{e}"))?;
        Ok(engine.estimate_cycles(&policy.apply(net)))
    };
    let urgent_net = PrecisionPolicy::Uniform(Precision::Int8).apply(&lenet);
    let urgent_deadline = engine
        .schedule_cycles(&urgent_net)
        .map_err(|e| e.to_string())?
        - 1;
    if estimate(&lenet, "int8")? > urgent_deadline {
        return Err("serve manifest: the urgent job's estimate is its exact schedule".into());
    }

    let mut rng = Rng64::seed_from_u64(seed);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut jobs = vec![
        format!(
            r#"{{"name": "urgent", "network": "lenet5", "precision": "int8", "deadline_cycles": {urgent_deadline}, "tenant": "{}"}}"#,
            TENANTS[pick(3)]
        ),
        format!(
            r#"{{"name": "hopeless", "network": "lenet5", "precision": "{}", "deadline_cycles": 1, "tenant": "{}"}}"#,
            POLICIES[pick(4)],
            TENANTS[pick(3)]
        ),
    ];
    let mut backlog = estimate(&lenet, "int8")?;
    // Four LeNet-5 specs, one repeated: five admitted jobs.
    for (i, count) in [1u64, 1, 2, 1].into_iter().enumerate() {
        let policy = POLICIES[pick(4)];
        let deadline = if pick(2) == 0 {
            format!(r#", "deadline_cycles": {LOOSE_DEADLINE}"#)
        } else {
            String::new()
        };
        jobs.push(format!(
            r#"{{"name": "lenet-{i}", "network": "lenet5", "precision": "{policy}", "count": {count}{deadline}, "tenant": "{}"}}"#,
            TENANTS[pick(3)]
        ));
        backlog += count * estimate(&lenet, policy)?;
    }
    let big_name = if tiny { "lenet5" } else { "vgg16" };
    let big_estimate = estimate(&big, "int8")?;
    jobs.push(format!(
        r#"{{"name": "big", "network": "{big_name}", "precision": "int8", "count": 3, "tenant": "{}"}}"#,
        TENANTS[pick(3)]
    ));
    jobs.push(format!(
        r#"{{"name": "burst", "network": "lenet5", "precision": "int4", "count": 2, "tenant": "{}"}}"#,
        TENANTS[pick(3)]
    ));
    // Room for two big jobs and the burst, not for a third big job.
    let limit = backlog + 2 * big_estimate + big_estimate / 2;
    Ok(format!(
        r#"{{
  "engine": {{"kind": "bsc", "quick": true, "queue_capacity": 9, "workers": 2, "max_backlog_cycles": {limit}}},
  "tenants": {{
    "vision": {{"latency_p99_cycles": 1100000000, "min_goodput": 0.5}},
    "edge": {{"latency_p99_cycles": 200000, "min_goodput": 0.9}}
  }},
  "jobs": [
    {}
  ]
}}
"#,
        jobs.join(",\n    ")
    ))
}

/// A generated manifest.
pub struct State {
    manifest: String,
}

/// The documents `repro serve` writes.
fn documents(run: &ServeRun) -> [String; 3] {
    [report_json(run), slo_json(run), events_jsonl(run)]
}

fn digest(docs: &[String; 3]) -> Result<u64, String> {
    let mut h = Fnv::default();
    h.write_u64(digest_json(&docs[0], false)?);
    h.write_u64(digest_json(&docs[1], false)?);
    h.write_u64(digest_json(&docs[2], true)?);
    Ok(h.finish())
}

/// The repository's invariants on one serve run.
fn check(run: &ServeRun) -> Checks {
    let b = &run.batch;
    let slo = &b.slo;
    let reasons: Vec<&str> = b
        .outcomes()
        .iter()
        .filter_map(|o| match o {
            JobOutcome::Rejected { reason, .. } => Some(reason.slug()),
            _ => None,
        })
        .collect();
    let job_energy: u64 = b
        .completed()
        .flat_map(|r| r.report.layers())
        .map(|l| quantize_energy_fj(l.energy_fj))
        .sum();
    vec![
        (
            "submitted = completed + rejected + shed",
            b.submitted() == b.completed_count() + b.rejected_count() + b.shed_count(),
        ),
        (
            "tenants partition the submissions",
            slo.tenants.iter().map(|t| t.submitted).sum::<u64>() == b.submitted() as u64
                && slo
                    .tenants
                    .iter()
                    .all(|t| t.submitted == t.completed + t.rejected + t.shed),
        ),
        (
            "every admission outcome fires",
            b.completed_count() > 0
                && b.shed_count() > 0
                && ["queue_full", "overloaded", "deadline_infeasible"]
                    .iter()
                    .all(|r| reasons.contains(r)),
        ),
        (
            "per-tenant energy sums exactly to the total",
            slo.total_energy_fj() == job_energy,
        ),
    ]
}

/// Goodput weighted by submissions across tenants, and the worst
/// tenant's p99 latency.
pub fn sim_report(slo: &bsc_accel::SloReport) -> Vec<(&'static str, f64, &'static str)> {
    let submitted: u64 = slo.tenants.iter().map(|t| t.submitted).sum();
    let good: f64 = slo
        .tenants
        .iter()
        .map(|t| t.goodput * t.submitted as f64)
        .sum();
    let p99 = slo.tenants.iter().map(|t| t.latency.p99).max().unwrap_or(0);
    vec![
        (
            "sim_goodput",
            crate::util::ratio(good, submitted as f64),
            "ratio",
        ),
        ("sim_p99_cycles", p99 as f64, "cycles"),
    ]
}

impl Workload for Serve {
    type State = State;

    fn setup(&self, warm: bool) -> Result<State, String> {
        let (_, cc) = engine_key();
        let design = if warm {
            CharacterizationCache::global()
                .get_or_characterize(MacKind::Bsc, &cc)
                .map_err(|e| e.to_string())?
        } else {
            Arc::new(DesignCharacterization::new(MacKind::Bsc, &cc).map_err(|e| e.to_string())?)
        };
        Ok(State {
            manifest: manifest(self.seed, self.tiny, design)?,
        })
    }

    fn run(&self, state: &State) -> Result<Unit, String> {
        let started = Instant::now();
        let run = serve(&state.manifest)?;
        let docs = documents(&run);
        let work_ns = started.elapsed().as_nanos() as u64;
        Ok(Unit {
            work_ns,
            calls: Vec::new(),
            items: run.batch.submitted() as u64,
            digest: digest(&docs)?,
            checks: check(&run),
            report: sim_report(&run.batch.slo),
        })
    }

    fn trace(&self, state: &State, rec: &mut Recorder) -> Result<TraceRep, String> {
        let keys = [(MacKind::Bsc, engine_key().1)];
        let setup_started = Instant::now();
        let (_, gate_steps) = characterize(rec, &keys)?;
        let setup_ns = setup_started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let reference = serve(&state.manifest)?;
        let reference_docs = documents(&reference);
        let untraced_work_ns = started.elapsed().as_nanos() as u64;
        let outcomes = reference.batch.outcomes();

        let started = Instant::now();
        let manifest = rec.span(Layer::Bench, "parse_manifest", |_| {
            parse_manifest(&state.manifest)
        })?;
        let accel = manifest.engine.accel.clone();
        let mut targets = BTreeMap::new();
        let mut engine = rec
            .span(Layer::CoreEngine, "Engine::new", |_| {
                Engine::new(manifest.engine)
            })
            .map_err(|e| e.to_string())?;

        // Admission: one `Engine::submit` per job, in submission order.
        let mut admitted = Vec::new();
        let mut decisions_match = true;
        for (slot, job) in manifest.jobs.into_iter().enumerate() {
            if let Some(target) = job.slo {
                targets.insert(job.tenant.clone(), target);
            }
            let network = job.policy.apply(&job.network);
            let deadline = job.deadline_cycles;
            match rec.span(Layer::CoreEngine, "submit", |_| engine.submit(job)) {
                Ok(_) => admitted.push((slot, network, deadline)),
                Err(reason) => {
                    decisions_match &= matches!(&outcomes[slot], JobOutcome::Rejected { reason: r, .. } if *r == reason);
                }
            }
        }

        // Planning: the exact schedule of each admitted job on the serial
        // batch clock; a job whose completion misses its deadline is shed.
        let mut busy_until = 0u64;
        let mut completed = Vec::new();
        let mut plan_matches = true;
        for (slot, network, deadline) in admitted {
            let cycles = rec.span(Layer::CoreEngine, "plan", |rec| {
                network.layers.iter().try_fold(0u64, |sum, layer| {
                    let shape = bsc_accel::layer_to_conv_shape(&layer.kind);
                    Ok::<_, String>(
                        sum + mem_schedule(rec, &accel.array, &accel.mem, layer.precision, &shape)?
                            .total_cycles,
                    )
                })
            })?;
            let start = busy_until;
            let completion = start + cycles;
            match deadline {
                Some(d) if completion > d => {
                    let expected = ShedReason::DeadlineMissed {
                        completion_cycle: completion,
                        deadline_cycles: d,
                    };
                    plan_matches &= matches!(&outcomes[slot], JobOutcome::Shed { reason, .. } if *reason == expected);
                }
                _ => {
                    plan_matches &= matches!(&outcomes[slot], JobOutcome::Completed(r) if r.queue_wait_cycles == start && r.completion_cycle == completion);
                    completed.push((slot, network));
                    busy_until = completion;
                }
            }
        }

        // Execution: `run_network` for each completed job.
        let design = Arc::clone(engine.characterization());
        let reports_match = rec.span(Layer::CoreEngine, "execute", |rec| {
            completed.iter().try_fold(true, |ok, (slot, network)| {
                let layers = run_network(rec, &accel, &design, network)?;
                Ok::<_, String>(ok && matches!(&outcomes[*slot], JobOutcome::Completed(r) if r.report.layers() == layers.as_slice()))
            })
        })?;

        // The SLO fold over the outcomes, as `Engine::run_batch` ends.
        let slo = rec.span(Layer::CoreSlo, "SloAccountant::observe", |_| {
            let horizon = outcomes
                .iter()
                .map(|o| match o {
                    JobOutcome::Completed(r) => r.completion_cycle,
                    JobOutcome::Shed { reason, .. } => reason.decision_cycle(),
                    JobOutcome::Rejected { .. } => 0,
                })
                .max()
                .unwrap_or(0);
            let mut accountant = SloAccountant::new(window_width_for_horizon(horizon));
            for (tenant, target) in targets {
                accountant.declare_target(tenant, target);
            }
            for outcome in outcomes {
                accountant.observe(outcome);
            }
            (accountant.observations(), accountant.report())
        });

        let docs = [
            rec.span(Layer::Bench, "report_json", |_| report_json(&reference)),
            rec.span(Layer::Bench, "slo_json", |_| slo_json(&reference)),
            rec.span(Layer::Bench, "events_jsonl", |_| events_jsonl(&reference)),
        ];
        let traced_work_ns = started.elapsed().as_nanos() as u64;
        build_netlist_probe(rec, &keys);

        if rec.noting() {
            rec.notes.executed_jobs = completed.len() as u64;
            rec.notes.slo_observations = slo.0;
            rec.notes.export_bytes = docs.iter().map(|d| d.len() as u64).sum();
        }
        Ok(TraceRep {
            main_ns: setup_ns + traced_work_ns,
            traced_work_ns,
            untraced_work_ns,
            checks: vec![
                (
                    "replay: admission decisions equal the batch outcomes",
                    decisions_match,
                ),
                ("replay: planned cycles equal the job reports", plan_matches),
                (
                    "replay: run_network layers equal the job reports",
                    reports_match,
                ),
                (
                    "replay: SLO fold equals the batch SLO report",
                    slo.1 == reference.batch.slo,
                ),
                (
                    "replay: exports equal the reference",
                    digest(&docs)? == digest(&reference_docs)?,
                ),
            ],
            extras: vec![("mac.ppa.gate_steps", gate_steps as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_engine_job_reports() {
        let serve = Serve::new(3, true);
        let state = serve.setup(true).unwrap();
        let unit = serve.run(&state).unwrap();
        assert!(unit.checks.iter().all(|c| c.1), "{:?}", unit.checks);
        assert_eq!(unit.items, 12);
        let mut rec = Recorder::default();
        let rep = serve.trace(&state, &mut rec).unwrap();
        assert!(rep.checks.iter().all(|c| c.1), "{:?}", rep.checks);
        assert!(rec.notes.executed_jobs > 0 && !rec.notes.mem.is_empty());
    }

    #[test]
    fn every_seed_fires_every_outcome() {
        for seed in 0..4 {
            let serve = Serve::new(seed, true);
            let state = serve.setup(true).unwrap();
            let unit = serve.run(&state).unwrap();
            assert!(
                unit.checks.iter().all(|c| c.1),
                "seed {seed}: {:?}",
                unit.checks
            );
        }
    }
}
