//! Multi-shard online serving: open-loop arrivals dispatched across
//! heterogeneous accelerators on the discrete-event clock.
//!
//! A [`Cluster`](OnlineConfig) is a set of [`ShardSpec`]s — each its
//! own [`AcceleratorConfig`], so shards may mix MAC kinds (BSC / LPC /
//! HPS) *and* memory hierarchies — fed by seeded
//! [`ArrivalProcess`] traffic sources.
//! [`run_online`] drives one [`crate::des::EventQueue`] interleaving
//! job-arrival and shard-completion events:
//!
//! 1. **Arrival** at cycle *t*: the [`DispatchPolicy`] picks a shard,
//!    then the admission ladder batch mode also walks runs against
//!    that shard, with the shard's `busy_until − t` as the backlog —
//!    outstanding-job cap (`queue_full`), backlog + estimate limit
//!    (`overloaded`), the DMA-aware deadline lower bound
//!    (`deadline_infeasible`), and the shard's *exact* stall-inclusive
//!    schedule: a job that misses the absolute deadline
//!    (`arrival + relative deadline`) is shed at *t* without occupying
//!    the shard.  Dispatched jobs advance the shard's busy-until clock
//!    and enqueue a completion event.
//! 2. **Completion** at cycle *c*: the shard's outstanding count drops;
//!    at equal times completions precede arrivals
//!    ([`crate::des::PRIORITY_COMPLETION`]) so freed capacity is
//!    visible to same-cycle arrivals.
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
use bsc_telemetry::{QuantileSketch, Telemetry};

use crate::admission::{AdmissionLadder, Placement, RejectReason};
use crate::des::{
    ArrivalGen, ArrivalProcess, CompletionLanes, EventQueue, END_OF_STREAM, PRIORITY_ARRIVAL,
};
use crate::engine::{
    estimate_cycles_for, CharacterizationCache, PrecisionPolicy, QUEUE_WAIT_BOUNDS_CYCLES,
};
use crate::report::NetworkReport;
use crate::slo::{quantize_energy_fj, window_width_for_horizon, SloAccountant, SloReport, SloTarget, TenantId};
use crate::{AccelError, Accelerator, AcceleratorConfig};

/// One shard of the cluster: a named accelerator configuration.  Shards
/// may differ in MAC kind *and* memory hierarchy.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable shard name (metric label, report key, Perfetto track
    /// group).
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
#[derive(Debug, Clone)]
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
}

impl OnlineReport {
    /// Total fJ-exact energy across shards.
    pub fn total_energy_fj(&self) -> u64 {
        self.shards.iter().map(|s| s.energy_fj).sum()
    }
}

/// Mutable per-shard dispatch state.
struct ShardState {
    busy_until: u64,
    outstanding: u64,
    peak_outstanding: u64,
    peak_backlog_cycles: u64,
}

/// Chooses the shard for one arrival.  Deterministic; ties break toward
/// the lowest index.  `tenant_cycles` is the arriving source's row: the
/// cycles it has been served on each shard.
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
/// The returned report and the metrics recorded into `telemetry` are a
/// pure function of `config` — bit-identical at any worker count and on
/// every platform.  The per-job metrics are a view of the report: they
/// are published from the admission funnel once, after the event loop.
///
/// # Errors
///
/// Propagates characterization and mapping failures; rejects empty
/// shard or source lists, and a run whose completed MACs, energy in fJ
/// or busy cycles total more than `u64::MAX`, as
/// [`AccelError::Config`](crate::AccelError).
pub fn run_online(
    config: &OnlineConfig,
    telemetry: &Telemetry,
) -> Result<OnlineReport, AccelError> {
    run_online_profiled(config, telemetry, None)
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
    telemetry: &Telemetry,
    profiler: Option<&Profiler>,
) -> Result<OnlineReport, AccelError> {
    if config.shards.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one shard".into()));
    }
    if config.sources.is_empty() {
        return Err(AccelError::Config("online cluster needs at least one traffic source".into()));
    }
    let _wall = telemetry.metrics.timer("engine.run_online_ns");
    let m = &telemetry.metrics;
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

    // The heap holds *arrivals only* (payload = source index); shard
    // completions live in per-lane monotone FIFOs and pop as coalesced
    // same-cycle bursts.  The merge below preserves the unified queue's
    // exact (time, priority, seq) order — see `CompletionLanes`.
    let mut events: EventQueue<usize> = EventQueue::new();
    let mut lanes = CompletionLanes::new(n_shards);
    let mut gens: Vec<ArrivalGen> = config
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
    // Per-source arrival buffers, refilled in batches through the
    // sampler's fast path.  The heap only ever holds each source's
    // *next* arrival (exactly as before), so push gating — horizon and
    // max_jobs — happens at the same moments and the report is
    // unchanged; a buffered timestamp past the horizon stays put as a
    // sentinel, so a dead source is never refilled again.  A saturated
    // clock ends a source's stream, so the last cycle an arrival may
    // land on is one short of `END_OF_STREAM` even for an unbounded
    // horizon.
    const ARRIVAL_BATCH: usize = 64;
    let last_arrival_cycle = config.horizon_cycles.min(END_OF_STREAM - 1);
    let mut arrival_bufs: Vec<VecDeque<u64>> =
        config.sources.iter().map(|_| VecDeque::with_capacity(ARRIVAL_BATCH)).collect();
    let mut arrivals_pushed = 0u64;
    let mut arrival_samples = 0u64;
    let mut arrival_refills = 0u64;
    {
        let _g = phases.as_ref().map(|ph| ph.arrival.enter());
        for (i, g) in gens.iter_mut().enumerate() {
            g.refill(ARRIVAL_BATCH, &mut arrival_bufs[i]);
            arrival_refills += 1;
            arrival_samples += ARRIVAL_BATCH as u64;
            let t = arrival_bufs[i][0];
            if t <= last_arrival_cycle && arrivals_pushed < config.max_jobs {
                arrival_bufs[i].pop_front();
                events.push(t, PRIORITY_ARRIVAL, i);
                arrivals_pushed += 1;
            }
        }
    }

    let mut shards: Vec<ShardState> = (0..n_shards)
        .map(|_| ShardState {
            busy_until: 0,
            outstanding: 0,
            peak_outstanding: 0,
            peak_backlog_cycles: 0,
        })
        .collect();
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
    // Cycles each source has been served on each shard, indexed by pair.
    let mut tenant_cycles: Vec<u64> = vec![0; n_pairs];
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
    // virtual clock at a power-of-two stride.  Boundaries are drained
    // *before* the event that crosses them, and the queue delivers
    // events in time order, so the state recorded at boundary `b` is
    // exactly the state after every event with time ≤ `b` — a pure
    // function of the event stream, independent of worker count.
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
    // The shard reports' outcome counts, the run's totals and the
    // `engine.jobs*` metrics all derive from the funnel after the loop.
    // The one per-job metric the funnel cannot hold, a dispatched job's
    // queue wait, is bucketed here in plain integers and merged into the
    // registry once, so the loop takes no lock and no atomic.
    let wait_bounds = QUEUE_WAIT_BOUNDS_CYCLES;
    let mut wait_buckets = vec![0u64; wait_bounds.len() + 1];
    let (mut wait_sum, mut wait_min, mut wait_max) = (0u64, u64::MAX, 0u64);
    let mut burst: Vec<usize> = Vec::with_capacity(n_shards.max(4));
    let mut completion_bursts = 0u64;

    loop {
        // Merge the arrival heap with the completion lanes: at equal
        // times completions come first (the PRIORITY_COMPLETION rule),
        // so `c <= a` picks the burst.
        let (now, is_completion) = match (lanes.peek_time(), events.peek_time()) {
            (Some(c), Some(a)) if c <= a => (c, true),
            (Some(c), None) => (c, true),
            (None, Some(a)) => (a, false),
            (Some(_), Some(a)) => (a, false),
            (None, None) => break,
        };
        while next_sample < now {
            for (d, s) in depth.iter_mut().zip(&shards) {
                d.samples.push(DepthSample {
                    cycle: next_sample,
                    outstanding: s.outstanding,
                    backlog_cycles: s.busy_until.saturating_sub(next_sample),
                });
            }
            // Saturates: `next_sample == u64::MAX` is never below `now`.
            next_sample = next_sample.saturating_add(stride);
        }
        if is_completion {
            // One lane scan pops every completion due this cycle — a
            // single batch operation per burst instead of one heap pop
            // (plus sift-down) per job.
            lanes.pop_burst(&mut burst);
            completion_bursts += 1;
            for &lane in &burst {
                shards[lane].outstanding -= 1;
            }
            continue;
        }
        let (_, source) = events.pop().expect("peeked arrival");

        // Keep the source's stream flowing before anything else, so
        // admission decisions can't perturb arrival times.  The buffer
        // refills through the batched sampler; the push gate below runs
        // per arrival, exactly as the per-draw path did.
        {
            if arrival_bufs[source].is_empty() {
                let _g = phases.as_ref().map(|ph| ph.arrival.enter());
                gens[source].refill(ARRIVAL_BATCH, &mut arrival_bufs[source]);
                arrival_refills += 1;
                arrival_samples += ARRIVAL_BATCH as u64;
            }
            let next = arrival_bufs[source][0];
            if next <= last_arrival_cycle && arrivals_pushed < config.max_jobs {
                arrival_bufs[source].pop_front();
                events.push(next, PRIORITY_ARRIVAL, source);
                arrivals_pushed += 1;
            }
        }

        let tmpl = &config.sources[source].template;
        let seq = per_source_seq[source];
        per_source_seq[source] += 1;

        let hi = {
            let _g = phases.as_ref().map(|ph| ph.dispatch.enter());
            choose_shard(
                config.policy,
                now,
                &shards,
                &mut rr_cursor,
                &tenant_cycles[source * n_shards..(source + 1) * n_shards],
            )
        };
        let _g_admission = phases.as_ref().map(|ph| ph.admission.enter());
        let backlog = shards[hi].busy_until.saturating_sub(now);
        shards[hi].peak_backlog_cycles = shards[hi].peak_backlog_cycles.max(backlog);
        funnel[hi].offered += 1;
        let pair = source * n_shards + hi;
        let deadline = tmpl.deadline_cycles;
        let verdict = ladder
            .admit(shards[hi].outstanding, backlog, estimate[pair], deadline)
            .map(|_| ladder.place(now, shards[hi].busy_until, exact[pair], deadline));
        let (outcome, reason, start, completion) = match verdict {
            Err(reason) => {
                match reason {
                    RejectReason::QueueFull { .. } => funnel[hi].queue_full += 1,
                    RejectReason::Overloaded { .. } => funnel[hi].overloaded += 1,
                    RejectReason::DeadlineInfeasible { .. } => {
                        funnel[hi].deadline_infeasible += 1
                    }
                }
                reject_counts[source * RejectReason::SLUGS.len() + reason.stage()] += 1;
                ("rejected", Some(reason.slug()), now, now)
            }
            Ok(Err(reason)) => {
                funnel[hi].shed_deadline += 1;
                deferred_sheds.push((source as u32, reason.slug(), now));
                ("shed", Some(reason.slug()), now, now)
            }
            Ok(Ok(Placement { start, completion })) => {
                let cycles = exact[pair];
                let shard = &mut shards[hi];
                shard.busy_until = completion;
                shard.outstanding += 1;
                shard.peak_outstanding = shard.peak_outstanding.max(shard.outstanding);
                shard.peak_backlog_cycles = shard.peak_backlog_cycles.max(completion - now);
                funnel[hi].dispatched += 1;
                // Saturates: a run whose cycle total overflows is refused
                // after the loop.
                tenant_cycles[pair] = tenant_cycles[pair].saturating_add(cycles);
                let wait = start - now;
                wait_buckets[wait_bounds.partition_point(|&b| b < wait)] += 1;
                wait_sum = wait_sum.wrapping_add(wait);
                wait_min = wait_min.min(wait);
                wait_max = wait_max.max(wait);
                lanes.push(hi, completion);
                latencies[pair].record(completion - now);
                let window = completion - completion % w0;
                match completion_runs[pair].last_mut() {
                    Some((start, jobs)) if *start == window => *jobs += 1,
                    _ => completion_runs[pair].push((window, 1)),
                }
                ("completed", None, start, completion)
            }
        };
        // The log caps out within the first 10⁴ decisions of a
        // multi-million-job run; skip the record (and its string
        // formatting) entirely once it is full.
        if event_log.len() < event_log_cap {
            event_log.push(OnlineEvent {
                job: format!("{}#{seq}", tmpl.name),
                template: tmpl.name.clone(),
                tenant: tmpl.tenant.clone(),
                shard: config.shards[hi].name.clone(),
                outcome,
                reason,
                arrival_cycle: now,
                start_cycle: start,
                completion_cycle: completion,
            });
        } else {
            events_truncated += 1;
        }
    }
    // The drop count is also a counter, so a truncated decision log is
    // visible in every metrics export, not just in the report.
    m.counter("engine.decision_log.truncated").add(events_truncated);

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
    m.gauge("engine.online.makespan_cycles").set(makespan.min(i64::MAX as u64) as i64);

    // Publish the per-job metrics once, as a view of the funnel: the
    // flat totals, one `engine.jobs` point per non-zero stage of each
    // shard, and the dispatched jobs' queue waits.  A zero count
    // registers nothing, so only outcomes that happened appear.
    for (name, n) in [
        ("engine.jobs.submitted", submitted),
        ("engine.jobs.rejected", rejected),
        ("engine.jobs.shed", shed),
        ("engine.jobs.completed", completed),
    ] {
        if n > 0 {
            m.counter(name).add(n);
        }
    }
    let [queue_full, overloaded, deadline_infeasible] = RejectReason::SLUGS;
    for f in &funnel {
        let points = [
            (f.dispatched, "completed", None),
            (f.shed_deadline, "shed", Some("deadline_missed")),
            (f.queue_full, "rejected", Some(queue_full)),
            (f.overloaded, "rejected", Some(overloaded)),
            (f.deadline_infeasible, "rejected", Some(deadline_infeasible)),
        ];
        for (n, outcome, reason) in points {
            if n > 0 {
                let mut labels = vec![("outcome", outcome), ("shard", f.shard.as_str())];
                labels.extend(reason.map(|r| ("reason", r)));
                m.labeled_counter("engine.jobs").with(&labels).add(n);
            }
        }
    }
    if completed > 0 {
        m.histogram("engine.queue.wait_cycles", wait_bounds)
            .merge_bucketed(wait_bounds, &wait_buckets, completed, wait_sum, wait_min, wait_max);
    }

    // Flush the deterministic work tallies into the profiler.  Every
    // value below is a pure function of `config` (the parallel pair
    // evaluation merges by pair index), so the counter side of the
    // profile is byte-identical at any worker count.
    if let Some(ph) = phases.as_ref() {
        ph.arrival.add("samples", arrival_samples);
        ph.arrival.add("refills", arrival_refills);
        ph.arrival.add("arrivals_enqueued", arrivals_pushed);

        // Logical event deliveries (arrivals + completions); actual
        // BinaryHeap traffic is arrivals-only — completions move through
        // the monotone lanes and surface as `lane_pushes` /
        // `completion_bursts`.
        ph.dispatch.add("events_popped", events.pops() + lanes.pops());
        ph.dispatch.add("arrivals_popped", submitted);
        ph.dispatch.add("completions_popped", lanes.pops());
        ph.dispatch.add("completion_bursts", completion_bursts);
        ph.dispatch.add("lane_pushes", lanes.pushes());
        ph.dispatch.add("heap_pushes", events.pushes());
        ph.dispatch.add("heap_ops", events.pushes() + events.pops());
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
        depth_stride_cycles: stride,
        depth,
        funnel,
    })
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
            .map(|w| {
                run_online(&quick_config(DispatchPolicy::LeastOutstanding, w), &Telemetry::metrics_only())
                    .unwrap()
            })
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
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
                run_online_profiled(
                    &quick_config(DispatchPolicy::TenantFair, w),
                    &Telemetry::metrics_only(),
                    Some(&prof),
                )
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
        let plain = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let prof = Profiler::new();
        let profiled =
            run_online_profiled(&config, &Telemetry::metrics_only(), Some(&prof)).unwrap();
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
    fn funnel_stages_partition_offered_arrivals() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        config.sources[0].template.deadline_cycles = Some(9_000);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
        let tel = Telemetry::metrics_only();
        let report = run_online(&config, &tel).unwrap();
        assert_eq!(report.events.len(), 5);
        assert_eq!(report.events_truncated, report.submitted - 5);
        assert_eq!(
            tel.metrics.snapshot().counter("engine.decision_log.truncated"),
            report.events_truncated,
            "silent truncation must surface as a counter"
        );
        // An uncapped run drops nothing and the counter reads zero.
        let tel2 = Telemetry::metrics_only();
        config.event_log_cap = EVENT_LOG_CAP;
        let full = run_online(&config, &tel2).unwrap();
        assert_eq!(full.events_truncated, 0);
        assert_eq!(tel2.metrics.snapshot().counter("engine.decision_log.truncated"), 0);
    }

    #[test]
    fn round_robin_touches_every_shard() {
        let report =
            run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &Telemetry::metrics_only())
                .unwrap();
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
        let tel = Telemetry::metrics_only;
        let rr = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &tel()).unwrap();
        let rr2 = run_online(&quick_config(DispatchPolicy::RoundRobin, Some(2)), &tel()).unwrap();
        let lo = run_online(&quick_config(DispatchPolicy::LeastOutstanding, Some(2)), &tel()).unwrap();
        assert_eq!(rr.events, rr2.events, "same config, same stream");
        // Same arrivals, different placement bookkeeping.
        assert_eq!(rr.submitted, lo.submitted);
    }

    #[test]
    fn tenant_fair_spreads_one_tenant_across_shards() {
        let mut config = quick_config(DispatchPolicy::TenantFair, Some(2));
        config.sources.truncate(1); // single hot tenant
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        let used = report.shards.iter().filter(|s| s.completed > 0).count();
        assert!(used >= 2, "tenant-fair must not pin one tenant to one shard");
    }

    #[test]
    fn deadlines_reject_or_shed_under_pressure() {
        let mut config = quick_config(DispatchPolicy::RoundRobin, Some(1));
        // Deadline below even the estimate: every arrival of source 0 is
        // rejected as infeasible.
        config.sources[0].template.deadline_cycles = Some(1);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert!(report.submitted > 0);
        assert_eq!(report.funnel[0].overloaded, report.submitted, "{:?}", report.funnel[0]);
        assert_eq!(report.completed, 0);
        // At exactly the estimate the first arrival fits.
        config.max_backlog_cycles = Some(estimate);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
        assert!(report.completed > 0);
    }

    #[test]
    fn a_deadline_near_u64_max_sheds_nothing() {
        let mut config = quick_config(DispatchPolicy::LeastOutstanding, Some(1));
        config.sources[0].template.deadline_cycles = Some(u64::MAX);
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
        let report = run_online(&config, &Telemetry::metrics_only()).unwrap();
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
