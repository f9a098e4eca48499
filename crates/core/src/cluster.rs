//! Multi-shard online serving: open-loop arrivals dispatched across
//! heterogeneous accelerators on the discrete-event clock.
//!
//! A [`Cluster`](OnlineConfig) is a set of [`ShardSpec`]s — each its
//! own [`AcceleratorConfig`], so shards may mix MAC kinds (BSC / LPC /
//! HPS) *and* memory hierarchies — fed by seeded
//! [`ArrivalProcess`] traffic sources.
//! [`run_online`] interleaves job arrivals, held in one
//! [`crate::des::EventQueue`], with shard completions, which each shard
//! keeps in cycle order:
//!
//! 1. **Arrival** at cycle *t*: the [`DispatchPolicy`] picks a shard,
//!    then the admission ladder batch mode also walks runs against
//!    that shard, with the shard's `busy_until − t` as the backlog —
//!    outstanding-job cap (`queue_full`), backlog + estimate limit
//!    (`overloaded`), the DMA-aware deadline lower bound
//!    (`deadline_infeasible`), and the shard's *exact* stall-inclusive
//!    schedule: a job that misses the absolute deadline
//!    (`arrival + relative deadline`) is shed at *t* without occupying
//!    the shard.  A dispatched job advances the shard's busy-until clock
//!    and appends its completion cycle to the shard's pending
//!    completions, whose length is the shard's outstanding count.
//! 2. **Completion** at cycle *c*, the earliest pending completion over
//!    the shards: every completion due at *c* leaves its shard.  At equal
//!    cycles completions come before arrivals, so freed capacity is
//!    visible to same-cycle arrivals.
//!
//! Under overload most arrivals are refused, and a refusal changes no
//! shard.  So once the decision log is full, an arrival whose full step
//! left every shard as it was starts a **run**: until the next
//! completion, each following refusal is decided against the unchanged
//! shards and consumed in one heap step, with no event merge, profiler
//! guard or log branch, and the run ends before the first arrival that
//! would dispatch, which takes the full step.  The report is the same as
//! with a full step per arrival; a kept per-arrival oracle proves it in
//! the tests.
//!
//! Workers enter only before the event loop, to evaluate the expensive
//! per-layer [`NetworkReport`] **once per (traffic source × shard)
//! pair**; results merge by pair index, and each pair's exact cycles
//! are read from its report.  Every scheduling decision then happens
//! serially on the event clock, so the whole [`OnlineReport`],
//! including the folded [`SloReport`], is bit-identical at any worker
//! count.
//!
//! Latency is `completion − arrival` on the event clock.  Every
//! completion of one pair runs the pair's report, so its MACs, per-layer
//! fJ and exact cycles are per-pair constants: per job the loop keeps
//! only the latency (in the pair's [`QuantileSketch`]) and a count per
//! completion window.  After the loop each pair folds into the
//! [`SloAccountant`] and its shard's report once, as its constants times
//! its completion count, after a checked-arithmetic pass has refused any
//! run whose total MACs, fJ or busy cycles would overflow u64.

use std::collections::VecDeque;

use bsc_mac::MacKind;
use bsc_nn::SharedNetwork;
use bsc_telemetry::profile::{PhaseHandle, Profiler};
use bsc_telemetry::{HistogramSnapshot, QuantileSketch};

use crate::admission::{AdmissionLadder, Placement, RejectReason, ShedReason};
use crate::des::{ArrivalGen, ArrivalProcess, EventQueue, END_OF_STREAM};
use crate::engine::{
    estimate_cycles_for, CharacterizationCache, PrecisionPolicy, QUEUE_WAIT_BOUNDS_CYCLES,
};
use crate::report::NetworkReport;
use crate::slo::{quantize_energy_fj, window_width_for_horizon, SloAccountant, SloReport, SloTarget, TenantId};
use crate::{AccelError, Accelerator, AcceleratorConfig};

#[cfg(test)]
mod oracle;

/// One shard of the cluster: a named accelerator configuration.  Shards
/// may differ in MAC kind *and* memory hierarchy.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable shard name (report key, Perfetto track group).
    pub name: String,
    /// The accelerator this shard models.
    pub accel: AcceleratorConfig,
}

/// How arrivals choose a shard.  All policies are deterministic
/// functions of the event-clock state; ties always break toward the
/// lowest shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through shards in index order, one arrival each.
    RoundRobin,
    /// Pick the shard with the least outstanding work
    /// (`busy_until − now`).
    LeastOutstanding,
    /// Deficit-counter fairness: route each tenant to the shard where
    /// that tenant has consumed the fewest execution cycles so far, so
    /// heavy tenants spread out instead of monopolizing one shard.
    /// Sources of one tenant share its counters.
    TenantFair,
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::TenantFair => "tenant-fair",
        })
    }
}

impl std::str::FromStr for DispatchPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "round-robin" | "rr" => Ok(DispatchPolicy::RoundRobin),
            "least-outstanding" | "least-loaded" | "lo" => Ok(DispatchPolicy::LeastOutstanding),
            "tenant-fair" | "fair" => Ok(DispatchPolicy::TenantFair),
            other => Err(format!(
                "unknown dispatch policy {other:?} (expected round-robin, least-outstanding or tenant-fair)"
            )),
        }
    }
}

/// The job every arrival of one traffic source instantiates.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Template name; job instances are `name#<arrival-seq>`.
    pub name: String,
    /// Tenant the instances are accounted to.
    pub tenant: TenantId,
    /// The network to run.
    pub network: SharedNetwork,
    /// Precision policy applied once, up front.
    pub precision: PrecisionPolicy,
    /// Deadline **relative to arrival** (absolute deadline =
    /// `arrival + deadline_cycles`), or `None` for best-effort.
    pub deadline_cycles: Option<u64>,
    /// The tenant's SLO target, if any (declared to the accountant).
    pub slo: Option<SloTarget>,
}

/// One open-loop traffic source: a job template plus the arrival
/// process that emits its instances.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    /// What each arrival runs.
    pub template: JobTemplate,
    /// When arrivals happen.
    pub process: ArrivalProcess,
}

/// Configuration of one online-serving run.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The heterogeneous shards jobs dispatch onto (must be non-empty).
    pub shards: Vec<ShardSpec>,
    /// Shard-selection policy.
    pub policy: DispatchPolicy,
    /// Seed for all arrival processes (each source derives its own
    /// stream deterministically from this and its index).
    pub seed: u64,
    /// Arrivals are generated while their timestamp is ≤ this horizon.
    pub horizon_cycles: u64,
    /// Hard cap on total arrivals (guards runaway rate tables).
    pub max_jobs: u64,
    /// Per-shard cap on dispatched-but-incomplete jobs; the `queue_full`
    /// rejection.
    pub max_outstanding: u64,
    /// Per-shard overload limit in cycles: an arrival whose backlog
    /// (`busy_until − now`) plus DMA-aware estimate exceeds it is
    /// rejected as `overloaded`.  `None` disables the check.
    pub max_backlog_cycles: Option<u64>,
    /// Cap on retained per-job decision records.  Decisions beyond the
    /// cap are dropped from [`OnlineReport::events`], counted in
    /// [`OnlineReport::events_truncated`] and surfaced through the
    /// `engine.decision_log.truncated` counter.  Use [`EVENT_LOG_CAP`]
    /// unless a test needs a tiny log.
    pub event_log_cap: usize,
    /// Worker threads for the pair-evaluation phase before the event
    /// loop (`None` = auto).  **Never** affects results.
    pub workers: Option<usize>,
    /// The traffic sources (must be non-empty).
    pub sources: Vec<TrafficSource>,
}

/// Per-shard tallies of one online run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard name.
    pub name: String,
    /// Shard MAC architecture.
    pub kind: MacKind,
    /// Jobs this shard completed.
    pub completed: u64,
    /// Jobs rejected while this shard was the dispatch choice.
    pub rejected: u64,
    /// Jobs shed while this shard was the dispatch choice.
    pub shed: u64,
    /// Sum of exact execution cycles of completed jobs.
    pub busy_cycles: u64,
    /// Cycle of the shard's last completion (0 if none).
    pub last_completion_cycle: u64,
    /// High-water mark of dispatched-but-incomplete jobs.
    pub peak_outstanding: u64,
    /// High-water mark of the backlog (`busy_until − now`) observed at
    /// arrival decisions against this shard, in cycles.
    pub peak_backlog_cycles: u64,
    /// Useful MACs completed.
    pub macs: u64,
    /// fJ-exact energy of completed jobs (integer sum of per-layer
    /// quantized energies — see [`crate::slo::quantize_energy_fj`]).
    pub energy_fj: u64,
}

/// One (capped) event-log record for the JSONL / Perfetto exports.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEvent {
    /// Job instance name (`template#seq`).
    pub job: String,
    /// Template the instance came from.
    pub template: String,
    /// Tenant accounted.
    pub tenant: TenantId,
    /// The dispatch-chosen shard.
    pub shard: String,
    /// `"completed"`, `"rejected"` or `"shed"`.
    pub outcome: &'static str,
    /// Machine-readable reason slug for rejected/shed.
    pub reason: Option<&'static str>,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Execution start cycle (= arrival for immediate dispatch;
    /// equal to `arrival_cycle` on rejected/shed records).
    pub start_cycle: u64,
    /// Completion cycle (decision cycle on rejected/shed records).
    pub completion_cycle: u64,
}

/// Cap on retained [`OnlineEvent`] records: the aggregate numbers cover
/// every job, but per-job logs over 10⁶ arrivals would dwarf the run,
/// so the log keeps the first [`EVENT_LOG_CAP`] decisions and counts
/// the rest in [`OnlineReport::events_truncated`].
pub const EVENT_LOG_CAP: usize = 10_000;

/// Per-shard admission-ladder funnel: how many arrivals each stage
/// passed or stopped while this shard was the dispatch choice.  The
/// stages are checked in order, so
/// `offered = queue_full + overloaded + deadline_infeasible +
/// shed_deadline + dispatched` holds exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardFunnel {
    /// Shard name.
    pub shard: String,
    /// Arrivals routed to this shard by the dispatch policy.
    pub offered: u64,
    /// Stopped by the outstanding-job cap.
    pub queue_full: u64,
    /// Stopped by the backlog limit.
    pub overloaded: u64,
    /// Stopped by the DMA-aware deadline lower bound.
    pub deadline_infeasible: u64,
    /// Passed admission but shed because the exact schedule missed the
    /// absolute deadline.
    pub shed_deadline: u64,
    /// Dispatched onto the shard.
    pub dispatched: u64,
}

/// One virtual-clock depth sample of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Sample cycle (a multiple of [`OnlineReport::depth_stride_cycles`]).
    pub cycle: u64,
    /// Dispatched-but-incomplete jobs at that cycle.
    pub outstanding: u64,
    /// Backlog (`busy_until − cycle`) at that cycle.
    pub backlog_cycles: u64,
}

/// The depth series of one shard, sampled on the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDepth {
    /// Shard name.
    pub shard: String,
    /// Samples in cycle order.
    pub samples: Vec<DepthSample>,
}

/// Power-of-two sampling stride for the depth observatory: ~256 samples
/// per shard across the horizon, so the series stays dashboard-sized no
/// matter how many million events the run pops.
pub fn depth_stride_for_horizon(horizon_cycles: u64) -> u64 {
    (horizon_cycles / 256).max(1).next_power_of_two()
}

/// The deterministic result of one [`run_online`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Dispatch policy that ran.
    pub policy: DispatchPolicy,
    /// Seed of the arrival streams.
    pub seed: u64,
    /// Configured arrival horizon.
    pub horizon_cycles: u64,
    /// Total arrivals (= completed + rejected + shed).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs shed at dispatch (exact schedule missed the deadline).
    pub shed: u64,
    /// Last completion cycle across all shards.
    pub makespan_cycles: u64,
    /// Per-shard tallies, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant SLO accounting (latency = completion − arrival).
    pub slo: SloReport,
    /// First [`OnlineConfig::event_log_cap`] per-job decisions, in
    /// event order.
    pub events: Vec<OnlineEvent>,
    /// Decisions beyond the event-log cap.
    pub events_truncated: u64,
    /// Stride of the depth observatory samples (power of two, derived
    /// from the horizon by [`depth_stride_for_horizon`]).
    pub depth_stride_cycles: u64,
    /// Per-shard depth series sampled on the virtual clock, in shard
    /// order.
    pub depth: Vec<ShardDepth>,
    /// Per-shard admission-ladder funnels, in shard order.
    pub funnel: Vec<ShardFunnel>,
    /// The dispatched jobs' queue waits (start − arrival) in cycles, in
    /// buckets at 0 and at powers of four from 1Ki to 1Gi.
    pub queue_wait_cycles: HistogramSnapshot,
}

impl OnlineReport {
    /// Total fJ-exact energy across shards.
    pub fn total_energy_fj(&self) -> u64 {
        self.shards.iter().map(|s| s.energy_fj).sum()
    }
}

/// Mutable per-shard dispatch state.
#[derive(Default)]
struct ShardState {
    busy_until: u64,
    /// Completion cycles of the dispatched jobs still running, in cycle
    /// order; its length is the shard's outstanding count.
    pending: VecDeque<u64>,
    peak_outstanding: u64,
    peak_backlog_cycles: u64,
}

impl ShardState {
    /// The ladder's verdict on a job offered to this shard at `now`:
    /// rejected at admission, shed at placement, or placed.
    fn verdict(
        &self,
        ladder: &AdmissionLadder,
        now: u64,
        estimate_cycles: u64,
        exact_cycles: u64,
        deadline_cycles: Option<u64>,
    ) -> Result<Result<Placement, ShedReason>, RejectReason> {
        let backlog = self.busy_until.saturating_sub(now);
        ladder
            .admit(self.outstanding(), backlog, estimate_cycles, deadline_cycles)
            .map(|_| ladder.place(now, self.busy_until, exact_cycles, deadline_cycles))
    }

    /// Dispatched-but-incomplete jobs.
    fn outstanding(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Occupies the shard with a job placed at `now` until `completion`.
    fn dispatch(&mut self, now: u64, completion: u64) {
        // A job starts no earlier than `busy_until`, the previous job's
        // completion, so the pending cycles stay sorted.
        debug_assert!(
            self.pending.back().is_none_or(|&c| c <= completion),
            "completions must be monotone per shard"
        );
        self.busy_until = completion;
        self.pending.push_back(completion);
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding());
        // The backlog peaks here: any later arrival sees at most this
        // job's completion minus a later cycle.
        self.peak_backlog_cycles = self.peak_backlog_cycles.max(completion - now);
    }
}

/// The earliest pending completion over the shards.
fn next_completion(shards: &[ShardState]) -> Option<u64> {
    shards.iter().filter_map(|s| s.pending.front().copied()).min()
}

/// Retires every completion due at `now`, the earliest pending cycle,
/// and returns how many there were.
fn complete_due(shards: &mut [ShardState], now: u64) -> u64 {
    let mut retired = 0;
    for s in shards {
        while s.pending.front() == Some(&now) {
            s.pending.pop_front();
            retired += 1;
        }
    }
    retired
}

/// Each source's tenant, as an index among the run's tenants in order of
/// first appearance: the source's row of the tenant-fair counters.
fn tenant_indices(sources: &[TrafficSource]) -> Vec<usize> {
    let mut tenants: Vec<&TenantId> = Vec::new();
    sources
        .iter()
        .map(|s| {
            let tenant = &s.template.tenant;
            tenants.iter().position(|&t| t == tenant).unwrap_or_else(|| {
                tenants.push(tenant);
                tenants.len() - 1
            })
        })
        .collect()
}

/// The funnel stage of a job shed at placement, after the three
/// [`RejectReason::stage`]s.
const SHED: usize = 3;

/// The funnel stage of a dispatched job.
const DISPATCH: usize = 4;

impl ShardFunnel {
    /// Counts one arrival offered to this shard that stopped at `stage`.
    fn count(&mut self, stage: usize) {
        self.offered += 1;
        *match stage {
            0 => &mut self.queue_full,
            1 => &mut self.overloaded,
            2 => &mut self.deadline_infeasible,
            SHED => &mut self.shed_deadline,
            _ => &mut self.dispatched,
        } += 1;
    }
}

/// Chooses the shard for one arrival.  Deterministic; ties break toward
/// the lowest index.  `tenant_cycles` is the row of the arriving
/// source's tenant: the cycles that tenant has been served on each
/// shard.
fn choose_shard(
    policy: DispatchPolicy,
    now: u64,
    shards: &[ShardState],
    rr_cursor: &mut usize,
    tenant_cycles: &[u64],
) -> usize {
    match policy {
        DispatchPolicy::RoundRobin => {
            let pick = *rr_cursor % shards.len();
            *rr_cursor = (*rr_cursor + 1) % shards.len();
            pick
        }
        DispatchPolicy::LeastOutstanding => shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.busy_until.saturating_sub(now), *i))
            .map(|(i, _)| i)
            .unwrap_or(0),
        DispatchPolicy::TenantFair => (0..shards.len())
            .min_by_key(|&i| (tenant_cycles[i], i))
            .unwrap_or(0),
    }
}

/// The self-profiler phases of one online run, prefetched so the event
/// loop pays at most two clock reads per guarded scope.
struct OnlinePhases {
    arrival: PhaseHandle,
    dispatch: PhaseHandle,
    admission: PhaseHandle,
    schedule: PhaseHandle,
    slo: PhaseHandle,
}

/// Runs one online-serving simulation.  See the module docs for the
/// event semantics and determinism contract.
///
/// The returned report is a pure function of `config` — bit-identical
/// at any worker count and on every platform.
///
/// # Errors
///
/// Propagates characterization and mapping failures; rejects empty
/// shard or source lists, and a run whose completed MACs, energy in fJ
/// or busy cycles total more than `u64::MAX`, as
/// [`AccelError::Config`](crate::AccelError).
pub fn run_online(config: &OnlineConfig) -> Result<OnlineReport, AccelError> {
    run_online_profiled(config, None)
}

/// [`run_online`] with an optional self-profiler attached.
///
/// When `profiler` is `Some`, the run accumulates wall-clock time into
/// the phases `arrival-sampling`, `dispatch`, `admission`,
/// `schedule-eval` and `slo-fold`, plus deterministic work counters per
/// phase (events popped, heap ops, map touches, ...).
/// The counters are a pure function of `config` — byte-identical at any
/// worker count — while the wall-clock side is machine-dependent and
/// never gated.  Profiling never changes the report: the deterministic
/// work is tallied in loop-local integers and flushed once at the end.
///
/// # Errors
///
/// Same contract as [`run_online`].
pub fn run_online_profiled(
    config: &OnlineConfig,
    profiler: Option<&Profiler>,
) -> Result<OnlineReport, AccelError> {
    simulate(config, profiler, event_loop)
}

/// An event loop: [`event_loop`], or in the tests the per-arrival loop it
/// replaced.  It gets the configuration and each pair's estimate and exact
/// cycles.
type EventLoop = fn(&OnlineConfig, &[u64], &[u64], Option<&OnlinePhases>) -> Tallies;

/// [`run_online_profiled`] with the event loop as a parameter: the pair
/// evaluation before the loop, and the report and profile after.
fn simulate(
    config: &OnlineConfig,
    profiler: Option<&Profiler>,
    event_loop: EventLoop,
) -> Result<OnlineReport, AccelError> {
    if config.shards.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one shard".into()));
    }
    if config.sources.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one traffic source".into()));
    }
    let phases = profiler.map(|p| OnlinePhases {
        arrival: p.phase("arrival-sampling"),
        dispatch: p.phase("dispatch"),
        admission: p.phase("admission"),
        schedule: p.phase("schedule-eval"),
        slo: p.phase("slo-fold"),
    });

    // Precision policies apply once, and every (source × shard) pair is
    // evaluated once, up front: the only parallel section, merged by
    // pair index `source * n_shards + shard`.  The event loop then runs
    // on pure integers — the estimate and the exact cycles of each pair.
    let networks: Vec<SharedNetwork> =
        config.sources.iter().map(|s| s.template.precision.apply(&s.template.network)).collect();
    let n_shards = config.shards.len();
    let n_pairs = networks.len() * n_shards;
    let g_schedule = phases.as_ref().map(|ph| ph.schedule.enter());
    let accels = config
        .shards
        .iter()
        .map(|shard| Accelerator::new_cached(shard.accel.clone(), CharacterizationCache::global()))
        .collect::<Result<Vec<_>, _>>()?;
    let pair_reports = bsc_netlist::par::run_indexed(n_pairs, config.workers, |pair| {
        accels[pair % n_shards].run_network(&networks[pair / n_shards])
    })
    .into_iter()
    .collect::<Result<Vec<NetworkReport>, _>>()?;
    let estimate: Vec<u64> = (0..n_pairs)
        .map(|pair| {
            estimate_cycles_for(&config.shards[pair % n_shards].accel, &networks[pair / n_shards])
        })
        .collect();
    let exact: Vec<u64> = pair_reports.iter().map(NetworkReport::total_cycles_with_stalls).collect();
    drop(g_schedule);

    let Tallies {
        shards,
        funnel,
        depth,
        latencies,
        completion_runs,
        reject_counts,
        deferred_sheds,
        event_log,
        events_truncated,
        queue_wait_cycles,
        work,
    } = event_loop(config, &estimate, &exact, phases.as_ref());

    // Each shard's outcomes are its funnel stages, and the run's totals
    // sum them.  A shard's clock only ever moves to a dispatched job's
    // completion, so it ends at the shard's last completion.
    let mut shard_reports: Vec<ShardReport> = config
        .shards
        .iter()
        .zip(&funnel)
        .zip(&shards)
        .map(|((spec, f), st)| ShardReport {
            name: spec.name.clone(),
            kind: spec.accel.kind,
            completed: f.dispatched,
            rejected: f.queue_full + f.overloaded + f.deadline_infeasible,
            shed: f.shed_deadline,
            busy_cycles: 0,
            last_completion_cycle: st.busy_until,
            peak_outstanding: st.peak_outstanding,
            peak_backlog_cycles: st.peak_backlog_cycles,
            macs: 0,
            energy_fj: 0,
        })
        .collect();
    let submitted: u64 = funnel.iter().map(|f| f.offered).sum();
    let completed: u64 = shard_reports.iter().map(|s| s.completed).sum();
    let rejected: u64 = shard_reports.iter().map(|s| s.rejected).sum();
    let shed: u64 = shard_reports.iter().map(|s| s.shed).sum();
    let makespan = shard_reports.iter().map(|s| s.last_completion_cycle).max().unwrap_or(0);

    let g_slo = phases.as_ref().map(|ph| ph.slo.enter());
    // Refuse a run whose completed work overflows u64.  Every tenant,
    // precision, window and shard sum below is a part of one of these
    // three totals, so once they fit no later addition can wrap.
    let completed_per_pair: Vec<u64> = latencies.iter().map(QuantileSketch::count).collect();
    checked_total(
        "completed MACs",
        completed_per_pair.iter().zip(&pair_reports).map(|(&n, r)| (n, r.total_macs())),
    )?;
    checked_total(
        "completed energy_fj",
        completed_per_pair.iter().zip(&pair_reports).flat_map(|(&n, r)| {
            r.layers().iter().map(move |l| (n, quantize_energy_fj(l.energy_fj)))
        }),
    )?;
    checked_total("busy cycles", completed_per_pair.iter().copied().zip(exact.iter().copied()))?;

    // Serial SLO fold.  Order never matters for the accountant's BTree
    // state, but folding deferred decisions then completions keeps the
    // walk obvious.  The window width derives from the full horizon —
    // completions may legitimately land past the arrival horizon.
    let horizon = config.horizon_cycles.max(makespan);
    let mut acc = SloAccountant::new(window_width_for_horizon(horizon));
    for s in &config.sources {
        if let Some(target) = s.template.slo {
            acc.declare_target(s.template.tenant.clone(), target);
        }
    }
    // Rejections fold as grouped counts — observe_rejections(n) is
    // defined as n observe_rejection calls, and rejections feed no
    // windowed series, so grouping is exactly equivalent to the old
    // per-event walk.  Sheds need their decision cycle and fold
    // per event.
    for (si, counts) in reject_counts.chunks(RejectReason::SLUGS.len()).enumerate() {
        let tenant = &config.sources[si].template.tenant;
        for (&slug, &n) in RejectReason::SLUGS.iter().zip(counts) {
            if n > 0 {
                acc.observe_rejections(tenant, slug, n);
            }
        }
    }
    for &(si, slug, cycle) in &deferred_sheds {
        acc.observe_shed(&config.sources[si as usize].template.tenant, slug, cycle);
    }
    // Completions fold once per pair: the pair's per-job constants times
    // its completion count.
    for (pair, report) in pair_reports.iter().enumerate() {
        let tmpl = &config.sources[pair / n_shards].template;
        acc.observe_completions(
            &tmpl.tenant,
            &latencies[pair],
            &completion_runs[pair],
            tmpl.deadline_cycles.map(|_| true),
            report,
        );
        let n = completed_per_pair[pair];
        let sr = &mut shard_reports[pair % n_shards];
        sr.busy_cycles += n * exact[pair];
        sr.macs += n * report.total_macs();
        for layer in report.layers() {
            sr.energy_fj += n * quantize_energy_fj(layer.energy_fj);
        }
    }
    let slo_observations = acc.observations();
    let slo_report = acc.report();
    drop(g_slo);

    // Flush the deterministic work tallies into the profiler.  Every
    // value below is a pure function of `config` (the parallel pair
    // evaluation merges by pair index), so the counter side of the
    // profile is byte-identical at any worker count.
    if let Some(ph) = phases.as_ref() {
        ph.arrival.add("samples", work.arrival_samples);
        ph.arrival.add("refills", work.arrival_refills);
        ph.arrival.add("arrivals_enqueued", work.arrivals_pushed);

        // Logical event deliveries (arrivals + completions); actual
        // BinaryHeap traffic is arrivals-only — completions queue on
        // their shard, one per dispatch, and leave it in same-cycle
        // bursts.  A run's combined pop-and-push counts as one pop and
        // one push.
        ph.dispatch.add("events_popped", work.heap_pops + work.completions_popped);
        ph.dispatch.add("arrivals_popped", submitted);
        ph.dispatch.add("completions_popped", work.completions_popped);
        ph.dispatch.add("completion_bursts", work.completion_bursts);
        ph.dispatch.add("lane_pushes", completed);
        ph.dispatch.add("heap_pushes", work.heap_pushes);
        ph.dispatch.add("heap_ops", work.heap_pushes + work.heap_pops);
        ph.dispatch.add("decisions", submitted);
        // Shards examined per decision: round-robin reads one cursor,
        // the other policies scan every shard.
        let scan = match config.policy {
            DispatchPolicy::RoundRobin => 1,
            _ => n_shards as u64,
        };
        ph.dispatch.add("shard_scans", submitted * scan);

        ph.admission.add("offered", submitted);
        ph.admission.add("rejected_queue_full", funnel.iter().map(|f| f.queue_full).sum());
        ph.admission.add("rejected_overloaded", funnel.iter().map(|f| f.overloaded).sum());
        ph.admission.add(
            "rejected_deadline_infeasible",
            funnel.iter().map(|f| f.deadline_infeasible).sum(),
        );
        ph.admission.add("shed_deadline_missed", shed);
        ph.admission.add("dispatched", completed);
        // Tenant-cycle map writes (one per dispatch) plus the reads the
        // tenant-fair scan performs per decision.
        let tf_reads = match config.policy {
            DispatchPolicy::TenantFair => submitted * n_shards as u64,
            _ => 0,
        };
        ph.admission.add("tenant_map_touches", completed + tf_reads);
        ph.admission.add("log_appends", event_log.len() as u64);
        ph.admission.add("log_dropped", events_truncated);
        // Runs of refusals, and the arrivals they decided without a full
        // step.  A run enters neither guard, so each of `dispatch.calls`
        // and `admission.calls` plus `run_arrivals` is `offered`.
        ph.admission.add("runs", work.runs);
        ph.admission.add("run_arrivals", work.run_arrivals);

        ph.schedule.add("cycle_tables", n_pairs as u64);
        ph.schedule.add("pairs_evaluated", pair_reports.len() as u64);
        ph.schedule
            .add("layers_evaluated", pair_reports.iter().map(|r| r.layers().len() as u64).sum());

        ph.slo.add("observations", slo_observations);
        ph.slo.add("completions_folded", completed);
        ph.slo.add("depth_samples", depth.iter().map(|d| d.samples.len() as u64).sum());
    }

    Ok(OnlineReport {
        policy: config.policy,
        seed: config.seed,
        horizon_cycles: config.horizon_cycles,
        submitted,
        completed,
        rejected,
        shed,
        makespan_cycles: makespan,
        shards: shard_reports,
        slo: slo_report,
        events: event_log,
        events_truncated,
        depth_stride_cycles: depth_stride_for_horizon(config.horizon_cycles),
        depth,
        funnel,
        queue_wait_cycles,
    })
}

/// What an event loop leaves for the report and the profile.
struct Tallies {
    shards: Vec<ShardState>,
    funnel: Vec<ShardFunnel>,
    depth: Vec<ShardDepth>,
    /// Per pair: each completed job's latency.
    latencies: Vec<QuantileSketch>,
    /// Per pair: `(window start, completions)` runs at the horizon's
    /// window width.
    completion_runs: Vec<Vec<(u64, u64)>>,
    /// Per (source × reject reason): rejections.
    reject_counts: Vec<u64>,
    /// Per shed job: `(source, slug, decision cycle)`.
    deferred_sheds: Vec<(u32, &'static str, u64)>,
    event_log: Vec<OnlineEvent>,
    events_truncated: u64,
    /// Dispatched jobs' queue waits, bucketed at
    /// [`QUEUE_WAIT_BOUNDS_CYCLES`].
    queue_wait_cycles: HistogramSnapshot,
    work: LoopWork,
}

/// The event loop's deterministic work counts, for the profile.
struct LoopWork {
    arrival_samples: u64,
    arrival_refills: u64,
    arrivals_pushed: u64,
    heap_pushes: u64,
    heap_pops: u64,
    completions_popped: u64,
    completion_bursts: u64,
    runs: u64,
    run_arrivals: u64,
}

/// Samples every shard's depth at each stride boundary below `now`.
/// Boundaries are drained *before* the event that crosses them, and the
/// queue delivers events in time order, so the state recorded at
/// boundary `b` is exactly the state after every event with time ≤ `b`.
fn sample_depth(
    depth: &mut [ShardDepth],
    shards: &[ShardState],
    next_sample: &mut u64,
    stride: u64,
    now: u64,
) {
    while *next_sample < now {
        for (d, s) in depth.iter_mut().zip(shards) {
            d.samples.push(DepthSample {
                cycle: *next_sample,
                outstanding: s.outstanding(),
                backlog_cycles: s.busy_until.saturating_sub(*next_sample),
            });
        }
        // Saturates: `next_sample == u64::MAX` is never below `now`.
        *next_sample = next_sample.saturating_add(stride);
    }
}

/// Arrival timestamps drawn per [`ArrivalGen::refill`].
const ARRIVAL_BATCH: usize = 64;

/// The arrival side of the event loop.  The heap holds each source's
/// *next* arrival only (payload = source index); the rest of the stream
/// waits in a per-source buffer refilled in batches through the
/// sampler's fast path.  Push gating — horizon and `max_jobs` — happens
/// per arrival, when the source's previous arrival leaves the heap.  A
/// buffered timestamp past the horizon stays put as a sentinel, so a
/// dead source is never refilled again.
struct ArrivalStream {
    heap: EventQueue<usize>,
    gens: Vec<ArrivalGen>,
    bufs: Vec<VecDeque<u64>>,
    /// The last cycle an arrival may land on.
    last_cycle: u64,
    max_jobs: u64,
    pushed: u64,
    samples: u64,
    refills: u64,
}

impl ArrivalStream {
    /// Every source's stream, primed with its first arrival in one
    /// `arrival-sampling` scope.
    fn new(config: &OnlineConfig, phases: Option<&OnlinePhases>) -> Self {
        let _g = phases.map(|ph| ph.arrival.enter());
        let gens = config
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // Distinct, deterministic stream per source: golden-ratio
                // hashing keeps seeds apart even for adjacent indices.
                let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ArrivalGen::new(s.process.clone(), seed)
            })
            .collect();
        let mut stream = ArrivalStream {
            heap: EventQueue::new(),
            gens,
            bufs: config.sources.iter().map(|_| VecDeque::with_capacity(ARRIVAL_BATCH)).collect(),
            // A saturated clock ends a source's stream, so the last cycle
            // an arrival may land on is one short of `END_OF_STREAM` even
            // for an unbounded horizon.
            last_cycle: config.horizon_cycles.min(END_OF_STREAM - 1),
            max_jobs: config.max_jobs,
            pushed: 0,
            samples: 0,
            refills: 0,
        };
        for source in 0..config.sources.len() {
            stream.refill(source);
            if let Some(t) = stream.take(source) {
                stream.heap.push(t, source);
            }
        }
        stream
    }

    fn refill(&mut self, source: usize) {
        self.gens[source].refill(ARRIVAL_BATCH, &mut self.bufs[source]);
        self.refills += 1;
        self.samples += ARRIVAL_BATCH as u64;
    }

    /// `source`'s next buffered arrival, when the horizon and `max_jobs`
    /// let it in.
    fn take(&mut self, source: usize) -> Option<u64> {
        let next = self.bufs[source][0];
        if next > self.last_cycle || self.pushed >= self.max_jobs {
            return None;
        }
        self.bufs[source].pop_front();
        self.pushed += 1;
        Some(next)
    }

    /// [`ArrivalStream::take`] after refilling an empty buffer, in an
    /// `arrival-sampling` scope of its own.
    fn next_of(&mut self, source: usize, phases: Option<&OnlinePhases>) -> Option<u64> {
        if self.bufs[source].is_empty() {
            let _g = phases.map(|ph| ph.arrival.enter());
            self.refill(source);
        }
        self.take(source)
    }

    /// Pops the earliest arrival and pushes its source's next one.
    /// Returns the popped source.
    fn pop(&mut self, phases: Option<&OnlinePhases>) -> usize {
        let (_, source) = self.heap.pop().expect("peeked arrival");
        if let Some(next) = self.next_of(source, phases) {
            self.heap.push(next, source);
        }
        source
    }

    /// Consumes the earliest arrival, of `source`, in one heap step: it is
    /// replaced by the source's next arrival, or popped when the stream
    /// has ended.
    fn pop_top(&mut self, source: usize, phases: Option<&OnlinePhases>) {
        match self.next_of(source, phases) {
            Some(next) => self.heap.replace_top(next, source),
            None => {
                self.heap.pop();
            }
        }
    }
}

/// The online event loop: interleaves arrivals with completion bursts on
/// the event clock, decides each arrival, and advances through runs of
/// refusals.  See the module docs.
fn event_loop(
    config: &OnlineConfig,
    estimate: &[u64],
    exact: &[u64],
    phases: Option<&OnlinePhases>,
) -> Tallies {
    let n_shards = config.shards.len();
    let n_pairs = config.sources.len() * n_shards;
    let mut arrivals = ArrivalStream::new(config, phases);
    let mut shards: Vec<ShardState> = (0..n_shards).map(|_| ShardState::default()).collect();
    // Every completion of one pair shares the pair's report, so the loop
    // keeps only what varies per job: its latency, in the pair's sketch,
    // and its completion window, counted per window at the horizon's
    // width W0.  The SLO window width W derives from the makespan, known
    // only after the loop; both are powers of two with W ≥ W0, so the
    // fold coarsens the W0 counts exactly (⌊⌊c/W0⌋ / (W/W0)⌋ = ⌊c/W⌋).
    // A shard's clock never moves back, so a pair's completions arrive in
    // cycle order and its (window start, count) runs stay about as long
    // as the number of windows.
    let w0 = window_width_for_horizon(config.horizon_cycles);
    let mut latencies: Vec<QuantileSketch> = (0..n_pairs).map(|_| QuantileSketch::new()).collect();
    let mut completion_runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_pairs];
    let mut rr_cursor = 0usize;
    // Cycles each tenant has been served on each shard: one row of
    // `n_shards` per tenant (at most one per source).
    let tenant_of = tenant_indices(&config.sources);
    let mut tenant_cycles: Vec<u64> = vec![0; n_pairs];
    // Each source's logged decisions.  The log is a prefix of the run, so
    // this is also the logged arrival's index in its source's stream.
    let mut per_source_seq: Vec<u64> = vec![0; config.sources.len()];
    let mut event_log: Vec<OnlineEvent> = Vec::new();
    let mut events_truncated = 0u64;
    // Deferred SLO observations (completions fold per pair after the
    // loop; decision bookkeeping happens here).  Rejections
    // carry no per-event payload the accountant keeps — no latency
    // sample, no windowed series — so they defer as plain counts per
    // (source × reason), allocation-free; `observe_rejections` folds
    // each group in one call.  Sheds *do* record a windowed sample at
    // their decision cycle, so they keep per-event records (they are
    // rare: the deadline-missed path only).
    let mut reject_counts: Vec<u64> = vec![0; config.sources.len() * RejectReason::SLUGS.len()];
    let mut deferred_sheds: Vec<(u32, &'static str, u64)> = Vec::new();

    // Depth observatory: per-shard (outstanding, backlog) sampled on the
    // virtual clock at a power-of-two stride (see `sample_depth`) — a
    // pure function of the event stream, independent of worker count.
    let stride = depth_stride_for_horizon(config.horizon_cycles);
    let mut next_sample = stride;
    let mut depth: Vec<ShardDepth> = config
        .shards
        .iter()
        .map(|s| ShardDepth { shard: s.name.clone(), samples: Vec::new() })
        .collect();
    let mut funnel: Vec<ShardFunnel> = config
        .shards
        .iter()
        .map(|s| ShardFunnel { shard: s.name.clone(), ..ShardFunnel::default() })
        .collect();

    let event_log_cap = config.event_log_cap;
    let ladder = AdmissionLadder {
        max_outstanding: config.max_outstanding,
        max_backlog_cycles: config.max_backlog_cycles,
    };
    // The shard reports' outcome counts and the run's totals derive from
    // the funnel after the loop.  The one per-job figure the funnel
    // cannot hold, a dispatched job's queue wait, goes into a plain
    // histogram, so the loop takes no lock and no atomic.
    let mut queue_wait_cycles = HistogramSnapshot::new(QUEUE_WAIT_BOUNDS_CYCLES);
    let (mut completions_popped, mut completion_bursts) = (0u64, 0u64);
    let (mut runs, mut run_arrivals) = (0u64, 0u64);
    // Each source's shard in the current run, once chosen.
    let mut picks: Vec<Option<usize>> = vec![None; config.sources.len()];

    loop {
        // Completions before arrivals at equal times, so freed capacity
        // is visible to a same-cycle arrival: `c <= a` picks the
        // completions.
        let (now, is_completion) = match (next_completion(&shards), arrivals.heap.peek_time()) {
            (Some(c), Some(a)) if c <= a => (c, true),
            (Some(c), None) => (c, true),
            (_, Some(a)) => (a, false),
            (None, None) => break,
        };
        sample_depth(&mut depth, &shards, &mut next_sample, stride, now);
        if is_completion {
            completions_popped += complete_due(&mut shards, now);
            completion_bursts += 1;
            continue;
        }
        // Keep the source's stream flowing before anything else, so
        // admission decisions can't perturb arrival times.
        let source = arrivals.pop(phases);

        // The full step: pick a shard, walk the ladder, log.
        let tmpl = &config.sources[source].template;
        let row = tenant_of[source] * n_shards;
        let hi = {
            let _g = phases.map(|ph| ph.dispatch.enter());
            choose_shard(
                config.policy,
                now,
                &shards,
                &mut rr_cursor,
                &tenant_cycles[row..row + n_shards],
            )
        };
        let g_admission = phases.map(|ph| ph.admission.enter());
        let pair = source * n_shards + hi;
        let verdict =
            shards[hi].verdict(&ladder, now, estimate[pair], exact[pair], tmpl.deadline_cycles);
        let (stage, reason, start, completion) = match verdict {
            Err(reason) => {
                reject_counts[source * RejectReason::SLUGS.len() + reason.stage()] += 1;
                (reason.stage(), Some(reason.slug()), now, now)
            }
            Ok(Err(reason)) => {
                deferred_sheds.push((source as u32, reason.slug(), now));
                (SHED, Some(reason.slug()), now, now)
            }
            Ok(Ok(Placement { start, completion })) => {
                shards[hi].dispatch(now, completion);
                // Saturates: a run whose cycle total overflows is refused
                // after the loop.
                tenant_cycles[row + hi] = tenant_cycles[row + hi].saturating_add(exact[pair]);
                queue_wait_cycles.record(start - now);
                latencies[pair].record(completion - now);
                let window = completion - completion % w0;
                match completion_runs[pair].last_mut() {
                    Some((start, jobs)) if *start == window => *jobs += 1,
                    _ => completion_runs[pair].push((window, 1)),
                }
                (DISPATCH, None, start, completion)
            }
        };
        funnel[hi].count(stage);
        // The log caps out within the first 10⁴ decisions of a
        // multi-million-job run; skip the record (and its string
        // formatting) entirely once it is full.
        if event_log.len() < event_log_cap {
            let seq = per_source_seq[source];
            per_source_seq[source] += 1;
            event_log.push(OnlineEvent {
                job: format!("{}#{seq}", tmpl.name),
                template: tmpl.name.clone(),
                tenant: tmpl.tenant.clone(),
                shard: config.shards[hi].name.clone(),
                outcome: ["rejected", "rejected", "rejected", "shed", "completed"][stage],
                reason,
                arrival_cycle: now,
                start_cycle: start,
                completion_cycle: completion,
            });
        } else {
            events_truncated += 1;
        }
        drop(g_admission);
        if stage == DISPATCH || event_log.len() < event_log_cap {
            continue;
        }

        // A run.  That decision left every shard as it was, and the log is
        // full, so until the next completion no shard changes unless an
        // arrival dispatches.  The run decides each following arrival with
        // the full step's ladder against that unchanged state, without the
        // step's event merge, depth check, guards and log branch.  The pick
        // holds within the run too: round-robin steps its cursor per
        // arrival; tenant-fair reads its tenant's row of `tenant_cycles`,
        // which only a dispatch changes; and under least-outstanding a
        // shard holding jobs is busy past the next completion, so every
        // non-zero backlog falls at the same rate while idle shards stay
        // at 0.  So each source's pick is chosen once per run.  The run stops at the next completion, or
        // before the first arrival that would dispatch, which then takes
        // the full step.  Arrivals leave in heap order, one heap step each,
        // so equal-cycle ties keep the order the full steps would give them.
        let next_completion = next_completion(&shards).unwrap_or(u64::MAX);
        let (mut consumed, mut last) = (0u64, now);
        while let Some((t, &source)) = arrivals.heap.peek() {
            if t >= next_completion {
                break;
            }
            let row = tenant_of[source] * n_shards;
            let row = &tenant_cycles[row..row + n_shards];
            let mut cursor = rr_cursor;
            let hi = match config.policy {
                DispatchPolicy::RoundRobin => {
                    choose_shard(config.policy, t, &shards, &mut cursor, row)
                }
                policy => *picks[source]
                    .get_or_insert_with(|| choose_shard(policy, t, &shards, &mut cursor, row)),
            };
            let pair = source * n_shards + hi;
            let deadline = config.sources[source].template.deadline_cycles;
            let verdict = shards[hi].verdict(&ladder, t, estimate[pair], exact[pair], deadline);
            let stage = match verdict {
                Err(reason) => {
                    reject_counts[source * RejectReason::SLUGS.len() + reason.stage()] += 1;
                    reason.stage()
                }
                Ok(Err(reason)) => {
                    deferred_sheds.push((source as u32, reason.slug(), t));
                    SHED
                }
                Ok(Ok(_)) => break,
            };
            rr_cursor = cursor;
            funnel[hi].count(stage);
            arrivals.pop_top(source, phases);
            consumed += 1;
            last = t;
        }
        picks.fill(None);
        // The depth boundaries the run crossed see its unchanged state.  It
        // changes no peak: a shard's backlog peaked when its last job was
        // dispatched.
        if consumed > 0 {
            sample_depth(&mut depth, &shards, &mut next_sample, stride, last);
            events_truncated += consumed;
            runs += 1;
            run_arrivals += consumed;
        }
    }

    Tallies {
        shards,
        funnel,
        depth,
        latencies,
        completion_runs,
        reject_counts,
        deferred_sheds,
        event_log,
        events_truncated,
        queue_wait_cycles,
        work: LoopWork {
            arrival_samples: arrivals.samples,
            arrival_refills: arrivals.refills,
            arrivals_pushed: arrivals.pushed,
            heap_pushes: arrivals.heap.pushes(),
            heap_pops: arrivals.heap.pops(),
            completions_popped,
            completion_bursts,
            runs,
            run_arrivals,
        },
    }
}

/// `Σ count · per_job` over `terms`, or an error naming `quantity` when
/// the total overflows u64.
fn checked_total(
    quantity: &str,
    terms: impl IntoIterator<Item = (u64, u64)>,
) -> Result<u64, AccelError> {
    terms
        .into_iter()
        .try_fold(0u64, |total, (count, per_job)| count.checked_mul(per_job)?.checked_add(total))
        .ok_or_else(|| {
            AccelError::Config(format!("the online run's total {quantity} overflows u64"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::ArrivalProcess;
    use std::collections::BTreeMap;
    use bsc_mac::Precision;
    use bsc_nn::{Layer, LayerKind, Network};

    fn toy_net(name: &str, fan_in: usize, fan_out: usize, p: Precision) -> SharedNetwork {
        Network {
            name: name.into(),
            dataset: "unit".into(),
            layers: vec![Layer::new("fc", LayerKind::Fc { fan_in, fan_out }, p)],
        }
        .into_shared()
    }

    fn quick_shards() -> Vec<ShardSpec> {
        [MacKind::Bsc, MacKind::Lpc, MacKind::Hps]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| ShardSpec {
                name: format!("shard{i}"),
                accel: AcceleratorConfig::quick(kind),
            })
            .collect()
    }

    fn quick_config(policy: DispatchPolicy, workers: Option<usize>) -> OnlineConfig {
        OnlineConfig {
            shards: quick_shards(),
            policy,
            seed: 7,
            horizon_cycles: 200_000,
            max_jobs: 10_000,
            max_outstanding: 8,
            max_backlog_cycles: Some(50_000),
            event_log_cap: EVENT_LOG_CAP,
            workers,
            sources: vec![
                TrafficSource {
                    template: JobTemplate {
                        name: "steady".into(),
                        tenant: TenantId::new("gold"),
                        network: toy_net("a", 64, 8, Precision::Int8),
                        precision: PrecisionPolicy::AsTrained,
                        deadline_cycles: Some(20_000),
                        slo: Some(SloTarget {
                            latency_p99_cycles: 50_000,
                            min_goodput: 0.5,
                        }),
                    },
                    process: ArrivalProcess::Poisson { mean_interarrival_cycles: 500 },
                },
                TrafficSource {
                    template: JobTemplate {
                        name: "burst".into(),
                        tenant: TenantId::new("bronze"),
                        network: toy_net("b", 128, 16, Precision::Int4),
                        precision: PrecisionPolicy::AsTrained,
                        deadline_cycles: None,
                        slo: None,
                    },
                    process: ArrivalProcess::Bursty {
                        on_cycles: 5_000,
                        off_cycles: 20_000,
                        mean_interarrival_cycles: 200,
                    },
                },
            ],
        }
    }

    #[test]
    fn online_report_is_worker_count_independent() {
        let runs: Vec<OnlineReport> = [Some(1), Some(2), Some(8)]
            .into_iter()
            .map(|w| run_online(&quick_config(DispatchPolicy::LeastOutstanding, w)).unwrap())
            .collect();
        assert!(runs[0].submitted > 100, "traffic actually flowed");
        assert!(runs[0].completed > 0);
        for r in &runs[1..] {
            assert_eq!(r.submitted, runs[0].submitted);
            assert_eq!(r.shards, runs[0].shards);
            assert_eq!(r.slo, runs[0].slo);
            assert_eq!(r.events, runs[0].events);
            assert_eq!(r.depth, runs[0].depth);
            assert_eq!(r.funnel, runs[0].funnel);
        }
    }

    #[test]
    fn every_pair_places_and_accounts_with_its_own_report() {
        // Sources of different cost, and one shard behind finite memory.
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(2));
        config.sources[1].template.network = toy_net("b", 256, 24, Precision::Int8);
        config.shards[2].accel =
            config.shards[2].accel.clone().with_mem(bsc_systolic::MemConfig::edge());
        let report = run_online(&config).unwrap();
        assert_eq!(report.events_truncated, 0, "the whole run is logged");
        // The reference: one serial evaluation per (template, shard) pair.
        let mut reference: BTreeMap<(String, String), NetworkReport> = BTreeMap::new();
        let mut macs = vec![0u64; config.shards.len()];
        let mut energy_fj = vec![0u64; config.shards.len()];
        for e in report.events.iter().filter(|e| e.outcome == "completed") {
            let hi = config.shards.iter().position(|s| s.name == e.shard).unwrap();
            let r = reference.entry((e.template.clone(), e.shard.clone())).or_insert_with(|| {
                let src = config.sources.iter().find(|s| s.template.name == e.template).unwrap();
                let t = &src.template;
                let cache = CharacterizationCache::global();
                Accelerator::new_cached(config.shards[hi].accel.clone(), cache)
                    .unwrap()
                    .run_network(&t.precision.apply(&t.network))
                    .unwrap()
            });
            assert_eq!(e.completion_cycle - e.start_cycle, r.total_cycles_with_stalls(), "{}", e.job);
            macs[hi] += r.total_macs();
            energy_fj[hi] += r.layers().iter().map(|l| quantize_energy_fj(l.energy_fj)).sum::<u64>();
        }
        assert_eq!(reference.len(), config.sources.len() * config.shards.len(), "every pair ran");
        // The pairs differ, so a mixed-up pair index cannot pass.
        let distinct: std::collections::BTreeSet<u64> =
            reference.values().map(NetworkReport::total_cycles_with_stalls).collect();
        assert!(distinct.len() >= 4, "{distinct:?}");
        for (hi, s) in report.shards.iter().enumerate() {
            assert_eq!((s.macs, s.energy_fj), (macs[hi], energy_fj[hi]), "{}", s.name);
        }
    }

    #[test]
    fn profile_counters_are_worker_count_independent() {
        use bsc_telemetry::profile::profile_json;
        let snaps: Vec<String> = [Some(1), Some(2), Some(8)]
            .into_iter()
            .map(|w| {
                let prof = Profiler::new();
                run_online_profiled(&quick_config(DispatchPolicy::TenantFair, w), Some(&prof))
                    .unwrap();
                let mut snap = prof.snapshot();
                // Deterministic side only: wall-clock is machine noise.
                for p in &mut snap.phases {
                    p.wall_ns = 0;
                }
                profile_json(&snap)
            })
            .collect();
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[0], snaps[2]);
    }

    #[test]
    fn profiled_run_reproduces_the_unprofiled_report() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let plain = run_online(&config).unwrap();
        let prof = Profiler::new();
        let profiled = run_online_profiled(&config, Some(&prof)).unwrap();
        assert_eq!(plain.shards, profiled.shards);
        assert_eq!(plain.slo, profiled.slo);
        assert_eq!(plain.events, profiled.events);
        assert_eq!(plain.depth, profiled.depth);
        assert_eq!(plain.funnel, profiled.funnel);
        // The profiler actually saw the run.
        let snap = prof.snapshot();
        let dispatch = snap.phase("dispatch").unwrap();
        assert_eq!(dispatch.counter("arrivals_popped"), plain.submitted);
        assert_eq!(
            dispatch.counter("events_popped"),
            plain.submitted + plain.completed,
            "every dispatch pushes exactly one completion"
        );
        let admission = snap.phase("admission").unwrap();
        assert_eq!(admission.counter("offered"), plain.submitted);
        assert_eq!(admission.counter("dispatched"), plain.completed);
        assert_eq!(
            snap.phase("slo-fold").unwrap().counter("observations"),
            plain.submitted,
            "every arrival is observed exactly once"
        );
    }

    #[test]
    fn phase_walls_fit_inside_the_run_wall_on_a_run_heavy_load() {
        // A run enters only `arrival-sampling`, for its refills, and
        // never inside another guard, so the phases cover disjoint parts
        // of the run.
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
        config.event_log_cap = 0;
        for s in &mut config.sources {
            s.process = ArrivalProcess::Poisson { mean_interarrival_cycles: 2 };
        }
        let prof = Profiler::new();
        let started = std::time::Instant::now();
        run_online_profiled(&config, Some(&prof)).unwrap();
        let run_wall = started.elapsed().as_nanos() as u64;
        let snap = prof.snapshot();
        let admission = snap.phase("admission").unwrap();
        let offered = admission.counter("offered");
        assert!(admission.counter("run_arrivals") * 10 > offered * 9, "{admission:?}");
        assert!(
            snap.total_wall_ns() <= run_wall,
            "phases {} ns > run {run_wall} ns",
            snap.total_wall_ns()
        );
    }

    #[test]
    fn funnel_stages_partition_offered_arrivals() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.sources[0].template.deadline_cycles = Some(9_000);
        let report = run_online(&config).unwrap();
        assert_eq!(report.funnel.len(), report.shards.len());
        let mut offered_total = 0;
        for (f, s) in report.funnel.iter().zip(&report.shards) {
            assert_eq!(f.shard, s.name);
            assert_eq!(
                f.offered,
                f.queue_full + f.overloaded + f.deadline_infeasible + f.shed_deadline
                    + f.dispatched,
                "funnel stages must partition {}",
                f.shard
            );
            assert_eq!(f.dispatched, s.completed);
            assert_eq!(f.queue_full + f.overloaded + f.deadline_infeasible, s.rejected);
            assert_eq!(f.shed_deadline, s.shed);
            offered_total += f.offered;
        }
        assert_eq!(offered_total, report.submitted);
    }

    #[test]
    fn depth_series_samples_on_the_stride_grid() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let report = run_online(&config).unwrap();
        let stride = report.depth_stride_cycles;
        assert_eq!(stride, depth_stride_for_horizon(config.horizon_cycles));
        assert!(stride.is_power_of_two());
        assert_eq!(report.depth.len(), report.shards.len());
        for d in &report.depth {
            assert!(!d.samples.is_empty(), "busy shard {} must be sampled", d.shard);
            for pair in d.samples.windows(2) {
                assert!(pair[0].cycle < pair[1].cycle, "samples must advance");
            }
            for s in &d.samples {
                assert_eq!(s.cycle % stride, 0, "samples sit on the stride grid");
            }
        }
        // The peaks bound the sampled series.
        for (d, s) in report.depth.iter().zip(&report.shards) {
            let max_out = d.samples.iter().map(|x| x.outstanding).max().unwrap_or(0);
            assert!(max_out <= s.peak_outstanding);
        }
    }

    #[test]
    fn tiny_event_log_cap_truncates_and_counts() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.event_log_cap = 5;
        let report = run_online(&config).unwrap();
        assert_eq!(report.events.len(), 5);
        assert_eq!(report.events_truncated, report.submitted - 5);
        // An uncapped run drops nothing.
        config.event_log_cap = EVENT_LOG_CAP;
        let full = run_online(&config).unwrap();
        assert_eq!(full.events_truncated, 0);
    }

    #[test]
    fn round_robin_touches_every_shard() {
        let report = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2))).unwrap();
        for s in &report.shards {
            assert!(
                s.completed + s.rejected + s.shed > 0,
                "round-robin must route to {}",
                s.name
            );
        }
        assert_eq!(
            report.submitted,
            report.completed + report.rejected + report.shed,
            "every arrival gets exactly one outcome"
        );
    }

    #[test]
    fn policies_are_deterministic_but_distinct() {
        let rr = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2))).unwrap();
        let rr2 = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2))).unwrap();
        let lo = run_online(&quick_config(DispatchPolicy::LeastOutstanding, Some(2))).unwrap();
        assert_eq!(rr.events, rr2.events, "same config, same stream");
        // Same arrivals, different placement bookkeeping.
        assert_eq!(rr.submitted, lo.submitted);
    }

    #[test]
    fn tenant_fair_spreads_one_tenant_across_shards() {
        let mut config = quick_config(DispatchPolicy::TenantFair, Some(2));
        config.sources.truncate(1); // single hot tenant
        let report = run_online(&config).unwrap();
        let used = report.shards.iter().filter(|s| s.completed > 0).count();
        assert!(used >= 2, "tenant-fair must not pin one tenant to one shard");
    }

    #[test]
    fn tenant_fair_counts_cycles_per_tenant_not_per_source() {
        // The first job of each source, and the shard it went to.
        let first_shards = |tenant_of_burst: &str| {
            let mut config = quick_config(DispatchPolicy::TenantFair, Some(1));
            config.seed = 5;
            for s in &mut config.sources {
                s.template.deadline_cycles = None;
                s.process = ArrivalProcess::Poisson { mean_interarrival_cycles: 300 };
            }
            config.sources[1].template.tenant = TenantId::new(tenant_of_burst);
            let report = run_online(&config).unwrap();
            ["steady", "burst"].map(|t| {
                let e = report.events.iter().find(|e| e.template == t).unwrap();
                assert_eq!(e.outcome, "completed", "{e:?}");
                e.shard.clone()
            })
        };
        // One tenant: its second source goes where the tenant has been
        // served least, away from the first source's shard.
        let [steady, burst] = first_shards("gold");
        assert_ne!(steady, burst, "two sources of one tenant share its counters");
        // Two tenants: each starts on the lowest-index shard.
        let [steady, burst] = first_shards("bronze");
        assert_eq!((steady.as_str(), burst.as_str()), ("shard0", "shard0"));
    }

    #[test]
    fn an_arrival_on_the_cycle_its_shard_frees_is_admitted() {
        // One shard holding at most one job, and an arrival on almost
        // every cycle: many land exactly on a running job's completion.
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.shards.truncate(1);
        config.sources.truncate(1);
        config.sources[0].template.deadline_cycles = None;
        config.sources[0].process = ArrivalProcess::Poisson { mean_interarrival_cycles: 1 };
        config.horizon_cycles = 6_000;
        config.max_outstanding = 1;
        config.max_backlog_cycles = None;
        let report = run_online(&config).unwrap();
        assert_eq!(report.events_truncated, 0, "the whole run is logged");
        // Replay the log: the completion retires before the arrival on
        // its cycle is decided, so that arrival finds the shard free.
        let (mut busy_until, mut on_completion) = (0, 0);
        for e in &report.events {
            if e.arrival_cycle >= busy_until {
                on_completion += u64::from(e.arrival_cycle == busy_until);
                assert_eq!((e.outcome, e.start_cycle), ("completed", e.arrival_cycle), "{e:?}");
                busy_until = e.completion_cycle;
            } else {
                assert_eq!((e.outcome, e.reason), ("rejected", Some("queue_full")), "{e:?}");
            }
        }
        assert!(on_completion > 10, "only {on_completion} arrivals met a completion");
        // Runs decide the refusals without the log, and agree.
        config.event_log_cap = 0;
        assert_eq!(run_online(&config).unwrap().funnel, report.funnel);
    }

    #[test]
    fn deadlines_reject_or_shed_under_pressure() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        // Deadline below even the estimate: every arrival of source 0 is
        // rejected as infeasible.
        config.sources[0].template.deadline_cycles = Some(1);
        let report = run_online(&config).unwrap();
        assert!(report.rejected > 0);
        let gold = report.slo.tenant("gold").expect("gold tenant present");
        assert_eq!(gold.completed, 0);
        assert!(gold
            .rejected_by_reason
            .iter()
            .any(|(slug, n)| slug == "deadline_infeasible" && *n == gold.rejected));
    }

    #[test]
    fn an_estimate_above_the_backlog_limit_is_overloaded_on_an_idle_shard() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.shards.truncate(1);
        config.sources.truncate(1);
        let net = &config.sources[0].template.network;
        let estimate = estimate_cycles_for(&config.shards[0].accel, net);
        config.max_backlog_cycles = Some(estimate - 1);
        let report = run_online(&config).unwrap();
        assert!(report.submitted > 0);
        assert_eq!(report.funnel[0].overloaded, report.submitted, "{:?}", report.funnel[0]);
        assert_eq!(report.completed, 0);
        // At exactly the estimate the first arrival fits.
        config.max_backlog_cycles = Some(estimate);
        let report = run_online(&config).unwrap();
        assert!(report.completed > 0);
    }

    #[test]
    fn a_deadline_near_u64_max_sheds_nothing() {
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
        config.sources[0].template.deadline_cycles = Some(u64::MAX);
        let report = run_online(&config).unwrap();
        let gold = report.slo.tenant("gold").expect("gold tenant present");
        assert!(gold.completed > 0);
        assert_eq!(gold.shed, 0);
        assert_eq!(gold.deadline_met, gold.completed);
    }

    #[test]
    fn run_totals_are_checked_at_the_edge_of_u64() {
        let max = u64::MAX;
        assert_eq!(checked_total("MACs", [(1, max)]).unwrap(), max);
        assert_eq!(checked_total("MACs", [(1, max - 1), (1, 1)]).unwrap(), max);
        assert_eq!(checked_total("MACs", [(0, max), (1, max - 1), (0, 7)]).unwrap(), max - 1);
        assert_eq!(checked_total("MACs", [(max, 1)]).unwrap(), max);
        assert_eq!(checked_total("MACs", std::iter::empty()).unwrap(), 0);
        // One past the edge, by the sum and by the product, is an error
        // that names the quantity.
        for terms in [vec![(1, max), (1, 1)], vec![(1, max - 1), (2, 1)], vec![(2, max / 2 + 1)]] {
            match checked_total("busy cycles", terms.clone()) {
                Err(AccelError::Config(msg)) => assert!(msg.contains("busy cycles"), "{msg}"),
                other => panic!("{terms:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn online_latency_is_completion_minus_arrival() {
        let config = quick_config(DispatchPolicy::LeastOutstanding, Some(2));
        let report = run_online(&config).unwrap();
        // Every logged completed event's latency is bounded by the SLO
        // sketch's max.
        let max_latency: u64 = report
            .events
            .iter()
            .filter(|e| e.outcome == "completed")
            .map(|e| e.completion_cycle - e.arrival_cycle)
            .max()
            .unwrap();
        let sketch_max = report
            .slo
            .tenants
            .iter()
            .map(|t| t.latency.max)
            .max()
            .unwrap();
        assert!(max_latency <= sketch_max || report.events_truncated > 0);
        assert!(sketch_max > 0);
    }
}
