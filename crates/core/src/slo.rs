//! Tenant-level SLO accounting: latency quantiles, shed/reject rates,
//! goodput, deadline attainment and energy attribution per tenant.
//!
//! The paper's headline numbers are *per workload*; the engine's batch
//! report was per job.  This module folds every [`JobOutcome`] of a
//! batch into one [`SloReport`] keyed by [`TenantId`]:
//!
//! * **latency** — an integer HDR-style [`QuantileSketch`] over
//!   completion latencies on the virtual batch clock (queue wait +
//!   execution), so p50/p95/p99 are deterministic integers;
//! * **outcome rates** — completed / rejected / shed counts, broken
//!   down by machine-readable reason slug;
//! * **goodput** — the fraction of submitted jobs that completed within
//!   their deadline (jobs without a deadline count as within);
//! * **SLO attainment** — observed p99 and goodput against a declared
//!   [`SloTarget`], plus the error-budget **burn rate**;
//! * **energy attribution** — per-layer energies of every completed job
//!   quantized to whole femtojoules and summed per tenant and per
//!   tenant × precision.  Because the attribution is an integer
//!   reduction over already-deterministic `LayerReport`s, per-tenant
//!   energies sum *exactly* to the batch total — "which tenant burned
//!   the joules" has one answer at any worker count;
//! * **windows** — tumbling [`WindowedAggregator`] series of completed
//!   / shed events on the virtual clock, the time axis of the serving
//!   dashboard.
//!
//! Everything here is a serial reduction over the outcome list in
//! submission order; nothing reads wall time, so the report is
//! bit-identical at any worker count and gated at `--tol 0` in CI.
//! Completions that share a tenant, a deadline verdict and a report may
//! fold as one group ([`SloAccountant::observe_completions`]): every
//! attributed quantity is then the report's per-job constant times the
//! group's count, and a single completion is a group of one.

use std::collections::BTreeMap;
use std::fmt;

use bsc_telemetry::{QuantileSketch, SketchSnapshot, WindowedAggregator};

use crate::engine::JobOutcome;
use crate::report::NetworkReport;

/// The tenant a job is accounted to.  Free-form, case-sensitive;
/// [`TenantId::default`] is the `"default"` tenant jobs land in when a
/// manifest names none.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// A tenant id from any string-ish value.
    pub fn new(id: impl Into<String>) -> Self {
        TenantId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId("default".into())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId::new(s)
    }
}

/// A tenant's declared service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// The p99 completion latency (queue wait + execution, virtual
    /// cycles) the tenant expects.
    pub latency_p99_cycles: u64,
    /// The minimum acceptable goodput: completed-within-deadline jobs
    /// over submitted jobs, in `0.0 ..= 1.0`.
    pub min_goodput: f64,
}

/// One tenant's observed performance against its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAttainment {
    /// Observed p99 ≤ target p99.
    pub latency_p99_ok: bool,
    /// Observed goodput ≥ target minimum.
    pub goodput_ok: bool,
    /// Both conditions hold.
    pub attained: bool,
    /// Observed p99 over target p99 (1.0 = exactly at target).
    pub p99_ratio: f64,
    /// Error-budget burn: `(1 - goodput) / (1 - min_goodput)`.  1.0
    /// means the budget is exactly spent; capped at 10⁶ when the target
    /// leaves no budget at all.
    pub burn_rate: f64,
}

/// One tumbling window of a tenant's activity on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantWindow {
    /// Window index (`start_cycle / width`).
    pub window: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Jobs completed in the window (by completion cycle).
    pub completed: u64,
    /// Jobs shed in the window (by projected completion cycle).
    pub shed: u64,
    /// Useful MACs completed in the window.
    pub macs: u64,
}

/// Everything the observatory knows about one tenant after a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// The tenant.
    pub tenant: TenantId,
    /// Declared target, when the tenant has one.
    pub target: Option<SloTarget>,
    /// Jobs submitted (every outcome counts exactly once).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs admitted then dropped at schedule time.
    pub shed: u64,
    /// Rejections by reason slug, sorted by slug.
    pub rejected_by_reason: Vec<(String, u64)>,
    /// Sheds by reason slug, sorted by slug.
    pub shed_by_reason: Vec<(String, u64)>,
    /// Completion-latency sketch (queue wait + execution, cycles).
    pub latency: SketchSnapshot,
    /// Completed jobs that had a deadline.
    pub deadline_jobs: u64,
    /// Completed jobs that met their deadline.
    pub deadline_met: u64,
    /// Completed-within-deadline jobs over submitted jobs.
    pub goodput: f64,
    /// Useful MACs of the tenant's completed jobs.
    pub macs: u64,
    /// Energy attribution in whole femtojoules (per-layer energies
    /// rounded then summed, so tenant totals add exactly).
    pub energy_fj: u64,
    /// Energy split by precision slug (`int2`/`int4`/`int8`), summing
    /// exactly to `energy_fj`.
    pub energy_by_precision: Vec<(String, u64)>,
    /// Tumbling-window activity series, sorted by window.
    pub windows: Vec<TenantWindow>,
    /// Observed-vs-target verdict (`None` without a declared target).
    pub attainment: Option<SloAttainment>,
}

impl TenantSlo {
    /// Shed jobs over submitted jobs.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 { 0.0 } else { self.shed as f64 / self.submitted as f64 }
    }

    /// Rejected jobs over submitted jobs.
    pub fn reject_rate(&self) -> f64 {
        if self.submitted == 0 { 0.0 } else { self.rejected as f64 / self.submitted as f64 }
    }

    /// Met deadlines over completed jobs that had one (`None` when no
    /// completed job carried a deadline).
    pub fn deadline_hit_rate(&self) -> Option<f64> {
        if self.deadline_jobs == 0 {
            None
        } else {
            Some(self.deadline_met as f64 / self.deadline_jobs as f64)
        }
    }
}

/// The per-tenant SLO view of one batch.  Tenants are sorted by id, so
/// serialization order is canonical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    /// Width of the tumbling windows in virtual cycles.
    pub window_width_cycles: u64,
    /// One row per tenant that submitted at least one job.
    pub tenants: Vec<TenantSlo>,
}

impl SloReport {
    /// The named tenant's row, when present.
    pub fn tenant(&self, id: &str) -> Option<&TenantSlo> {
        self.tenants.iter().find(|t| t.tenant.as_str() == id)
    }

    /// Sum of per-tenant energy attributions in femtojoules.  Exactly
    /// equals the quantized batch total — integer addition is
    /// associative, so regrouping by tenant cannot drift.
    pub fn total_energy_fj(&self) -> u64 {
        self.tenants.iter().map(|t| t.energy_fj).sum()
    }
}

/// Quantizes one energy value to whole femtojoules.  Attribution sums
/// these integers, never the raw floats, so grouping by tenant /
/// precision / batch always reaches identical totals.
pub fn quantize_energy_fj(energy_fj: f64) -> u64 {
    if energy_fj <= 0.0 { 0 } else { energy_fj.round() as u64 }
}

#[derive(Default)]
struct TenantAcc {
    target: Option<SloTarget>,
    submitted: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    rejected_by_reason: BTreeMap<&'static str, u64>,
    shed_by_reason: BTreeMap<&'static str, u64>,
    latency: Option<QuantileSketch>,
    deadline_jobs: u64,
    deadline_met: u64,
    macs: u64,
    energy_fj: u64,
    energy_by_precision: BTreeMap<String, u64>,
}

/// Folds [`JobOutcome`]s into a per-tenant [`SloReport`].
///
/// Construction fixes the tumbling-window width; callers derive it from
/// the batch makespan (see [`crate::Engine::run_batch`]) so the
/// dashboard's time axis scales with the batch instead of wall time.
pub struct SloAccountant {
    windows: WindowedAggregator,
    tenants: BTreeMap<TenantId, TenantAcc>,
    observations: u64,
}

impl SloAccountant {
    /// An empty accountant with `window_width_cycles`-wide windows.
    pub fn new(window_width_cycles: u64) -> Self {
        SloAccountant {
            windows: WindowedAggregator::new(window_width_cycles),
            tenants: BTreeMap::new(),
            observations: 0,
        }
    }

    /// Lifetime number of streamed observations (completions +
    /// rejections + sheds) — the fold's deterministic work metric for
    /// self-profiling.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Declares a tenant's target (idempotent; the last declaration
    /// wins).  Targets may be declared for tenants that never submit —
    /// they simply produce no row.
    pub fn declare_target(&mut self, tenant: TenantId, target: SloTarget) {
        self.tenants.entry(tenant).or_default().target = Some(target);
    }

    /// Folds one outcome.  Every submission must be observed exactly
    /// once for the rates to mean anything.
    ///
    /// Batch mode's arrival time is cycle 0, so latency equals the
    /// completion cycle; this delegates to the streaming observers that
    /// online serving calls directly with `completion − arrival`.
    pub fn observe(&mut self, outcome: &JobOutcome) {
        match outcome {
            JobOutcome::Completed(r) => self.observe_completion(
                outcome.tenant(),
                r.completion_cycle,
                r.completion_cycle,
                r.deadline_met(),
                &r.report,
            ),
            JobOutcome::Rejected { reason, .. } => {
                self.observe_rejection(outcome.tenant(), reason.slug());
            }
            JobOutcome::Shed { reason, .. } => {
                self.observe_shed(outcome.tenant(), reason.slug(), reason.decision_cycle());
            }
        }
    }

    /// Streams one completed job: `latency_cycles` is whatever clock
    /// difference the caller's arrival model defines (batch: completion
    /// cycle; online: completion − arrival), `completion_cycle` places
    /// the event on the window axis, and the energy/MAC attribution is
    /// read off the job's [`NetworkReport`].  This is the one-job case
    /// of [`SloAccountant::observe_completions`].
    pub fn observe_completion(
        &mut self,
        tenant: &TenantId,
        latency_cycles: u64,
        completion_cycle: u64,
        deadline_met: Option<bool>,
        report: &NetworkReport,
    ) {
        let latency = QuantileSketch::new();
        latency.record(latency_cycles);
        self.observe_completions(tenant, &latency, &[(completion_cycle, 1)], deadline_met, report);
    }

    /// Streams a group of completed jobs that share one tenant, one
    /// deadline verdict and one [`NetworkReport`] — exactly equivalent
    /// to one [`SloAccountant::observe_completion`] call per job.
    /// `latencies` holds one sample per job.  `completions` lists
    /// `(cycle, jobs)` runs: `jobs` completions in the window that
    /// holds `cycle`, so a caller may count them per window of any width
    /// that divides this accountant's and pass each window's start
    /// cycle.  Every attributed quantity is the report's per-job
    /// constant times the group's job count.
    pub fn observe_completions(
        &mut self,
        tenant: &TenantId,
        latencies: &QuantileSketch,
        completions: &[(u64, u64)],
        deadline_met: Option<bool>,
        report: &NetworkReport,
    ) {
        let n: u64 = completions.iter().map(|&(_, jobs)| jobs).sum();
        debug_assert_eq!(latencies.count(), n, "one latency sample per completed job");
        if n == 0 {
            return;
        }
        self.observations += n;
        let acc = self.tenants.entry(tenant.clone()).or_default();
        acc.submitted += n;
        acc.completed += n;
        acc.latency.get_or_insert_with(QuantileSketch::new).merge_from(latencies);
        if let Some(met) = deadline_met {
            acc.deadline_jobs += n;
            if met {
                acc.deadline_met += n;
            }
        }
        let macs = report.total_macs();
        acc.macs += n * macs;
        // fJ-exact attribution: quantize per layer, sum integers.
        for layer in report.layers() {
            let fj = n * quantize_energy_fj(layer.energy_fj);
            acc.energy_fj += fj;
            *acc
                .energy_by_precision
                .entry(format!("int{}", layer.precision.bits()))
                .or_default() += fj;
        }
        let width = self.windows.width_cycles();
        for run in completions.chunk_by(|a, b| a.0 / width == b.0 / width) {
            self.windows.record(
                run[0].0,
                &[("tenant", tenant.as_str()), ("outcome", "completed")],
                macs,
                run.iter().map(|&(_, jobs)| jobs).sum(),
            );
        }
    }

    /// Streams one admission rejection under a machine-readable reason
    /// slug (see [`crate::RejectReason::slug`]).
    pub fn observe_rejection(&mut self, tenant: &TenantId, slug: &'static str) {
        self.observe_rejections(tenant, slug, 1);
    }

    /// Streams `count` admission rejections at once — exactly equivalent
    /// to `count` [`SloAccountant::observe_rejection`] calls.  Rejections
    /// carry no per-event payload (no latency sample, no windowed
    /// series), so a caller that groups them by `(tenant, slug)` can
    /// fold millions of decisions in a handful of calls.
    pub fn observe_rejections(&mut self, tenant: &TenantId, slug: &'static str, count: u64) {
        self.observations += count;
        let acc = self.tenants.entry(tenant.clone()).or_default();
        acc.submitted += count;
        acc.rejected += count;
        *acc.rejected_by_reason.entry(slug).or_default() += count;
    }

    /// Streams one shed decision at `decision_cycle` under a
    /// machine-readable reason slug (see [`crate::ShedReason::slug`]).
    pub fn observe_shed(&mut self, tenant: &TenantId, slug: &'static str, decision_cycle: u64) {
        self.observations += 1;
        let acc = self.tenants.entry(tenant.clone()).or_default();
        acc.submitted += 1;
        acc.shed += 1;
        *acc.shed_by_reason.entry(slug).or_default() += 1;
        self.windows.record(
            decision_cycle,
            &[("tenant", tenant.as_str()), ("outcome", "shed")],
            0,
            1,
        );
    }

    /// The finished per-tenant report.
    pub fn report(&self) -> SloReport {
        let window_snapshot = self.windows.snapshot();
        let tenants = self
            .tenants
            .iter()
            .filter(|(_, acc)| acc.submitted > 0)
            .map(|(tenant, acc)| {
                let latency =
                    acc.latency.as_ref().map(|s| s.snapshot()).unwrap_or_default();
                // Goodput counts completed jobs that met their deadline
                // (deadline-less jobs trivially meet).
                let good = acc.completed - (acc.deadline_jobs - acc.deadline_met);
                let goodput =
                    if acc.submitted == 0 { 0.0 } else { good as f64 / acc.submitted as f64 };
                let attainment = acc.target.map(|t| {
                    let latency_p99_ok = latency.p99 <= t.latency_p99_cycles;
                    let goodput_ok = goodput >= t.min_goodput;
                    let p99_ratio = if t.latency_p99_cycles == 0 {
                        0.0
                    } else {
                        latency.p99 as f64 / t.latency_p99_cycles as f64
                    };
                    let bad = 1.0 - goodput;
                    let budget = 1.0 - t.min_goodput;
                    let burn_rate =
                        if budget > 0.0 { (bad / budget).min(1e6) } else if bad > 0.0 { 1e6 } else { 0.0 };
                    SloAttainment {
                        latency_p99_ok,
                        goodput_ok,
                        attained: latency_p99_ok && goodput_ok,
                        p99_ratio,
                        burn_rate,
                    }
                });
                let mut windows: BTreeMap<u64, TenantWindow> = BTreeMap::new();
                for (w, labels, cell) in &window_snapshot {
                    if labels.get("tenant") != Some(tenant.as_str()) {
                        continue;
                    }
                    let row = windows.entry(*w).or_insert(TenantWindow {
                        window: *w,
                        start_cycle: *w * self.windows.width_cycles(),
                        completed: 0,
                        shed: 0,
                        macs: 0,
                    });
                    match labels.get("outcome") {
                        Some("completed") => {
                            row.completed += cell.count;
                            row.macs += cell.sum;
                        }
                        Some("shed") => row.shed += cell.count,
                        _ => {}
                    }
                }
                TenantSlo {
                    tenant: tenant.clone(),
                    target: acc.target,
                    submitted: acc.submitted,
                    completed: acc.completed,
                    rejected: acc.rejected,
                    shed: acc.shed,
                    rejected_by_reason: acc
                        .rejected_by_reason
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    shed_by_reason: acc
                        .shed_by_reason
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    latency,
                    deadline_jobs: acc.deadline_jobs,
                    deadline_met: acc.deadline_met,
                    goodput,
                    macs: acc.macs,
                    energy_fj: acc.energy_fj,
                    energy_by_precision: acc
                        .energy_by_precision
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                    windows: windows.into_values().collect(),
                    attainment,
                }
            })
            .collect();
        SloReport { window_width_cycles: self.windows.width_cycles(), tenants }
    }
}

/// The tumbling-window width for a batch spanning `horizon_cycles`:
/// `horizon / 32` rounded up to a power of two (≥ 1), so a dashboard
/// gets ~32–64 windows regardless of batch scale and the width is a
/// pure function of the schedule.
pub fn window_width_for_horizon(horizon_cycles: u64) -> u64 {
    (horizon_cycles / 32).max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobReport, RejectReason, ShedReason};
    use crate::report::NetworkReport;

    fn completed(tenant: &str, completion: u64, deadline: Option<u64>) -> JobOutcome {
        JobOutcome::Completed(JobReport {
            name: format!("{tenant}-{completion}"),
            tenant: TenantId::new(tenant),
            queue_wait_cycles: 0,
            completion_cycle: completion,
            deadline_cycles: deadline,
            report: NetworkReport::new("toy".into(), bsc_mac::MacKind::Bsc, 2000.0, vec![]),
        })
    }

    #[test]
    fn rates_and_goodput_fold_every_outcome_once() {
        let mut acc = SloAccountant::new(100);
        acc.declare_target(TenantId::new("a"), SloTarget { latency_p99_cycles: 500, min_goodput: 0.5 });
        acc.observe(&completed("a", 50, None));
        acc.observe(&completed("a", 150, Some(200)));
        acc.observe(&JobOutcome::Rejected {
            name: "r".into(),
            tenant: TenantId::new("a"),
            reason: RejectReason::QueueFull { capacity: 2 },
        });
        acc.observe(&JobOutcome::Shed {
            name: "s".into(),
            tenant: TenantId::new("a"),
            reason: ShedReason::DeadlineMissed { completion_cycle: 320, deadline_cycles: 300 },
        });
        let report = acc.report();
        let a = report.tenant("a").unwrap();
        assert_eq!((a.submitted, a.completed, a.rejected, a.shed), (4, 2, 1, 1));
        assert_eq!(a.rejected_by_reason, vec![("queue_full".to_string(), 1)]);
        assert_eq!(a.shed_by_reason, vec![("deadline_missed".to_string(), 1)]);
        assert_eq!(a.latency.count, 2);
        assert_eq!(a.deadline_jobs, 1);
        assert_eq!(a.deadline_met, 1);
        assert!((a.goodput - 0.5).abs() < 1e-12);
        assert!((a.shed_rate() - 0.25).abs() < 1e-12);
        assert_eq!(a.deadline_hit_rate(), Some(1.0));
        // Windows: completions at 50 and 150, shed at 320.
        assert_eq!(a.windows.len(), 3);
        assert_eq!((a.windows[0].completed, a.windows[0].shed), (1, 0));
        assert_eq!((a.windows[2].completed, a.windows[2].shed), (0, 1));
        // Target met: p99 (150) <= 500 and goodput 0.5 >= 0.5.
        let att = a.attainment.unwrap();
        assert!(att.attained && att.latency_p99_ok && att.goodput_ok);
        assert!((att.burn_rate - 1.0).abs() < 1e-9, "budget exactly spent");
    }

    #[test]
    fn missed_targets_report_burn_and_ratio() {
        let mut acc = SloAccountant::new(64);
        acc.declare_target(TenantId::new("t"), SloTarget { latency_p99_cycles: 100, min_goodput: 0.9 });
        acc.observe(&completed("t", 400, None));
        acc.observe(&JobOutcome::Shed {
            name: "s".into(),
            tenant: TenantId::new("t"),
            reason: ShedReason::DeadlineMissed { completion_cycle: 500, deadline_cycles: 450 },
        });
        let report = acc.report();
        let t = report.tenant("t").unwrap();
        let att = t.attainment.unwrap();
        assert!(!att.attained && !att.latency_p99_ok && !att.goodput_ok);
        assert!(att.p99_ratio >= 4.0, "p99 {} vs target 100", t.latency.p99);
        // goodput 0.5 against min 0.9: burn = 0.5 / 0.1 = 5.
        assert!((att.burn_rate - 5.0).abs() < 1e-9, "burn {}", att.burn_rate);
    }

    #[test]
    fn tenants_without_target_have_no_attainment() {
        let mut acc = SloAccountant::new(1);
        acc.observe(&completed("free", 10, None));
        let report = acc.report();
        let t = report.tenant("free").unwrap();
        assert!(t.attainment.is_none());
        assert_eq!(t.latency.p50, 10);
    }

    fn toy_report(layers: &[(bsc_mac::Precision, u64, f64)]) -> NetworkReport {
        let layers = layers
            .iter()
            .map(|&(precision, macs, energy_fj)| crate::report::LayerReport {
                name: "layer".into(),
                precision,
                macs,
                cycles: 1,
                total_cycles: 1,
                stall_cycles: 0,
                roofline: bsc_systolic::Roofline::ComputeBound,
                peak_fraction: 1.0,
                utilization: 1.0,
                energy_fj,
                tops_per_w: 1.0,
            })
            .collect();
        NetworkReport::new("toy".into(), bsc_mac::MacKind::Bsc, 2000.0, layers)
    }

    #[test]
    fn grouped_completions_fold_like_one_observation_per_job() {
        use bsc_mac::Precision::{Int2, Int4, Int8};
        use bsc_netlist::rng::Rng64;
        let reports = [
            toy_report(&[(Int8, 4_096, 1_234.5), (Int4, 512, 88.49), (Int2, 7, 0.6)]),
            toy_report(&[(Int4, 1_000, 301.7)]),
            toy_report(&[(Int2, 33, 9.5), (Int8, 2_048, 777_777.2), (Int8, 1, 0.4)]),
        ];
        let tenants = [TenantId::new("a"), TenantId::new("b"), TenantId::new("c")];
        let verdicts = [None, Some(true), Some(false)];
        // The groups count completions at a width 8× finer than the
        // accountant's, as the online fold does.
        let (width, finer) = (256, 32);
        let mut rng = Rng64::seed_from_u64(19);
        let mut single = SloAccountant::new(width);
        let mut grouped = SloAccountant::new(width);
        for acc in [&mut single, &mut grouped] {
            acc.declare_target(tenants[0].clone(), SloTarget { latency_p99_cycles: 900, min_goodput: 0.5 });
        }
        for group in 0..60 {
            let tenant = &tenants[rng.gen_range(0..tenants.len())];
            let report = &reports[rng.gen_range(0..reports.len())];
            let met = verdicts[rng.gen_range(0..verdicts.len())];
            // Groups of 0 and 1 jobs are part of the mix.
            let jobs = match group % 10 {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..40usize),
            };
            let mut cycle = rng.gen_range(0..4_000u64);
            let latencies = QuantileSketch::new();
            let mut runs: Vec<(u64, u64)> = Vec::new();
            for _ in 0..jobs {
                cycle += rng.gen_range(0..300u64);
                let latency = rng.gen_range(0..2_000u64);
                single.observe_completion(tenant, latency, cycle, met, report);
                latencies.record(latency);
                let start = cycle - cycle % finer;
                match runs.last_mut() {
                    Some((s, n)) if *s == start => *n += 1,
                    _ => runs.push((start, 1)),
                }
            }
            grouped.observe_completions(tenant, &latencies, &runs, met, report);
            // Interleave the other outcomes identically on both sides.
            if group % 7 == 3 {
                for acc in [&mut single, &mut grouped] {
                    acc.observe_rejection(tenant, "queue_full");
                    acc.observe_shed(tenant, "deadline_missed", cycle);
                }
            }
        }
        assert_eq!(grouped.observations(), single.observations());
        let report = grouped.report();
        assert_eq!(report, single.report());
        assert_eq!(report.tenants.len(), 3, "every tenant completed jobs");
        assert!(report.tenants.iter().all(|t| t.windows.len() > 1 && t.energy_by_precision.len() == 3));
    }

    #[test]
    fn window_width_is_a_power_of_two_scaling_with_horizon() {
        assert_eq!(window_width_for_horizon(0), 1);
        assert_eq!(window_width_for_horizon(31), 1);
        assert_eq!(window_width_for_horizon(32 * 100), 128);
        let w = window_width_for_horizon(1_002_550_920);
        assert!(w.is_power_of_two());
        let windows = 1_002_550_920 / w;
        assert!((16..=64).contains(&windows), "{windows} windows of {w}");
    }

    #[test]
    fn quantization_is_stable_under_grouping() {
        // The exactness claim in one line: integer adds regroup freely.
        let parts = [1234.4, 567.8, 90.1, 2.49, 1e12 + 0.6];
        let total: u64 = parts.iter().map(|&p| quantize_energy_fj(p)).sum();
        let (a, b): (Vec<_>, Vec<_>) = parts.iter().partition(|&&p| p < 100.0);
        let grouped: u64 = a.iter().map(|&&p| quantize_energy_fj(p)).sum::<u64>()
            + b.iter().map(|&&p| quantize_energy_fj(p)).sum::<u64>();
        assert_eq!(total, grouped);
        assert_eq!(quantize_energy_fj(-5.0), 0);
    }
}
