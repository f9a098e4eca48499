//! Multi-tenant batch inference engine.
//!
//! [`Accelerator::run_network`] is a one-shot, single-tenant call: every
//! construction re-characterizes the design and every caller runs one
//! network at a time.  The [`Engine`] turns the same analytic pipeline
//! into a serving loop:
//!
//! * a process-wide [`CharacterizationCache`] characterizes each
//!   `(MacKind, CharacterizeConfig)` design **once** and shares it across
//!   every engine, accelerator and test in the binary;
//! * [`InferenceJob`]s (an [`Arc`]-shared network + a
//!   [`PrecisionPolicy`] + an optional deadline in model cycles) walk
//!   the admission ladder shared with online serving: a full queue
//!   *rejects with a reason* instead of growing without bound, a job
//!   whose optimistic completion already misses its deadline is
//!   rejected up front, and a configured backlog limit sheds load
//!   before the array is hopelessly behind;
//! * [`Engine::run_batch`] evaluates each admitted job **once** —
//!   one [`Accelerator::run_network`] call over the `bsc_netlist::par`
//!   work-stealing pool — and then places the jobs from those reports
//!   **in submission order**, so results are independent of the worker
//!   count, exactly like the sharded characterization.
//!
//! Every scheduling decision (admit / reject / shed, queue waits, start
//! and completion cycles) is computed on a *serial virtual clock* in
//! submission order, from each report's stall-inclusive cycle count;
//! the worker pool only parallelizes the per-job energy/schedule
//! evaluation, which is pure.  A batch therefore has one deterministic
//! outcome per job — `{completed, rejected, shed}` — at any worker
//! count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision};
use bsc_nn::{Network, SharedNetwork};
use bsc_telemetry::Telemetry;

pub use crate::admission::{RejectReason, ShedReason};
use crate::admission::AdmissionLadder;
use crate::report::NetworkReport;
use crate::slo::{window_width_for_horizon, SloAccountant, SloReport, SloTarget, TenantId};
use crate::{layer_to_conv_shape, AccelError, Accelerator, AcceleratorConfig};

/// Bucket bounds (model cycles) for the `engine.queue.wait_cycles`
/// histogram: powers of four from 1Ki to 1Gi cycles, so queue waits from
/// a single small layer up to a saturated batch all land in finite
/// buckets.
pub(crate) const QUEUE_WAIT_BOUNDS_CYCLES: &[u64] = &[
    0,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

// ---------------------------------------------------------------------------
// Characterization cache
// ---------------------------------------------------------------------------

/// A shared cache of gate-level design characterizations keyed by
/// `(MacKind, CharacterizeConfig)`.
///
/// Characterization (netlist build + activity testbench in all precision
/// modes) is the most expensive construction in the stack; the cache
/// guarantees each distinct design is characterized at most once per
/// process.  The array geometry (`ArrayConfig`) enters the key only
/// through its `vector_length` (folded into the `CharacterizeConfig` by
/// the callers): PPA characterization is per-MAC, so arrays that differ
/// only in PE count share an entry.
///
/// The entry lock is held *across* a characterization run, so concurrent
/// requests for the same design block and then hit the cache instead of
/// duplicating the work.
#[derive(Debug, Default)]
pub struct CharacterizationCache {
    entries: Mutex<Vec<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct CacheEntry {
    kind: MacKind,
    config: CharacterizeConfig,
    charac: Arc<DesignCharacterization>,
}

impl CharacterizationCache {
    /// An empty cache.
    pub fn new() -> Self {
        CharacterizationCache::default()
    }

    /// The process-wide cache every `*_cached` constructor and every
    /// [`Engine::new`] uses.  Test binaries route through this to prove
    /// (via [`CharacterizationCache::publish`]) that each design was
    /// characterized at most once.
    pub fn global() -> &'static CharacterizationCache {
        static GLOBAL: OnceLock<CharacterizationCache> = OnceLock::new();
        GLOBAL.get_or_init(CharacterizationCache::new)
    }

    /// Returns the cached characterization for `(kind, config)`, running
    /// and inserting it on first use.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures from a cache miss.
    pub fn get_or_characterize(
        &self,
        kind: MacKind,
        config: &CharacterizeConfig,
    ) -> Result<Arc<DesignCharacterization>, AccelError> {
        let mut entries = self.entries.lock().expect("characterization cache poisoned");
        if let Some(e) = entries.iter().find(|e| e.kind == kind && e.config == *config) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&e.charac));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let charac = Arc::new(DesignCharacterization::new(kind, config)?);
        entries.push(CacheEntry { kind, config: config.clone(), charac: Arc::clone(&charac) });
        Ok(charac)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran a characterization (== distinct designs
    /// characterized through this cache).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached designs.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("characterization cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes the cache statistics into a metrics registry:
    /// `engine.cache.hits`, `engine.cache.misses` and
    /// `telemetry.characterize.runs` (the process-wide characterization
    /// count from [`bsc_mac::ppa::characterize_runs`], which also covers
    /// constructions that bypassed the cache).  Idempotent, like
    /// [`Telemetry::publish_trace_stats`].
    pub fn publish(&self, tel: &Telemetry) {
        let raise = |name: &str, value: u64| {
            let c = tel.metrics.counter(name);
            c.add(value.saturating_sub(c.get()));
        };
        raise("engine.cache.hits", self.hits());
        raise("engine.cache.misses", self.misses());
        raise("telemetry.characterize.runs", bsc_mac::ppa::characterize_runs());
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// How a job maps its network's layer precisions onto the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecisionPolicy {
    /// Run every layer at its NAS-assigned (trained) precision.
    AsTrained,
    /// Force every layer to one precision mode.
    Uniform(Precision),
}

impl PrecisionPolicy {
    /// The network this policy actually runs: the shared handle itself
    /// for [`PrecisionPolicy::AsTrained`] (no clone), or a re-precisioned
    /// copy for [`PrecisionPolicy::Uniform`].
    pub fn apply(self, network: &SharedNetwork) -> SharedNetwork {
        match self {
            PrecisionPolicy::AsTrained => Arc::clone(network),
            PrecisionPolicy::Uniform(p) => Arc::new(network.with_uniform_precision(p)),
        }
    }
}

impl std::fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecisionPolicy::AsTrained => f.write_str("as-trained"),
            PrecisionPolicy::Uniform(p) => write!(f, "{p}"),
        }
    }
}

impl std::str::FromStr for PrecisionPolicy {
    type Err = bsc_mac::MacError;

    /// Parses `"nas"` / `"as-trained"` / `"mixed"` (keep trained
    /// precisions) or any [`Precision`] spelling (`"int8"`, `"4-bit"`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "nas" | "as-trained" | "trained" | "mixed" => Ok(PrecisionPolicy::AsTrained),
            other => Ok(PrecisionPolicy::Uniform(other.parse()?)),
        }
    }
}

/// One tenant request: a network, a precision policy and an optional
/// completion deadline in *model cycles* (cycles of the engine's virtual
/// batch clock, which starts at 0 every batch).
#[derive(Debug, Clone)]
pub struct InferenceJob {
    /// Job name (unique names make reports readable; not enforced).
    pub name: String,
    /// The tenant the job is accounted to (latency sketches, shed rates
    /// and energy attribution in the batch's [`SloReport`]).
    pub tenant: TenantId,
    /// The network to run, shared without cloning.
    pub network: SharedNetwork,
    /// Precision policy applied at admission.
    pub policy: PrecisionPolicy,
    /// Absolute deadline on the batch clock, if any.
    pub deadline_cycles: Option<u64>,
    /// The tenant's declared SLO target, if any.  Submitting a job with
    /// a target declares it for the whole tenant in this batch (last
    /// declaration wins).
    pub slo: Option<SloTarget>,
}

impl InferenceJob {
    /// A job with the default policy ([`PrecisionPolicy::AsTrained`]),
    /// the `"default"` tenant and no deadline.
    pub fn new(name: impl Into<String>, network: SharedNetwork) -> Self {
        InferenceJob {
            name: name.into(),
            tenant: TenantId::default(),
            network,
            policy: PrecisionPolicy::AsTrained,
            deadline_cycles: None,
            slo: None,
        }
    }

    /// Sets the precision policy.
    pub fn with_policy(mut self, policy: PrecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the completion deadline in model cycles.
    pub fn with_deadline(mut self, cycles: u64) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Sets the owning tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = TenantId::new(tenant);
        self
    }

    /// Declares the tenant's SLO target.
    pub fn with_slo(mut self, target: SloTarget) -> Self {
        self.slo = Some(target);
        self
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// The completed execution of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Tenant the job is accounted to.
    pub tenant: TenantId,
    /// Cycles the job waited behind earlier jobs on the batch clock.
    pub queue_wait_cycles: u64,
    /// Batch-clock cycle at which the job finished.
    pub completion_cycle: u64,
    /// The job's deadline, if it had one.
    pub deadline_cycles: Option<u64>,
    /// Per-layer numerics — identical to what a serial
    /// [`Accelerator::run_network`] call produces for the same network.
    pub report: NetworkReport,
}

impl JobReport {
    /// Cycles the job held the array, excluding queue wait: the
    /// stall-inclusive [`NetworkReport::total_cycles_with_stalls`] that
    /// placement charged, so `queue_wait_cycles + cycles()` is
    /// `completion_cycle` under any memory hierarchy.
    pub fn cycles(&self) -> u64 {
        self.report.total_cycles_with_stalls()
    }

    /// Useful MACs.
    pub fn macs(&self) -> u64 {
        self.report.total_macs()
    }

    /// Energy in fJ.
    pub fn energy_fj(&self) -> f64 {
        self.report.total_energy_fj()
    }

    /// Achieved MACs per execution cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        let c = self.cycles();
        if c == 0 { 0.0 } else { self.macs() as f64 / c as f64 }
    }

    /// Whether the deadline was met (`None` when the job had none).
    /// Always `true` for completed jobs — misses are shed, not run.
    pub fn deadline_met(&self) -> Option<bool> {
        self.deadline_cycles.map(|d| self.completion_cycle <= d)
    }
}

/// The single, mandatory terminal state of every submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran; per-layer numerics attached.
    Completed(JobReport),
    /// The job was refused at admission.
    Rejected {
        /// Job name.
        name: String,
        /// Tenant the rejection is accounted to.
        tenant: TenantId,
        /// Why admission refused it.
        reason: RejectReason,
    },
    /// The job was admitted but dropped at schedule time.
    Shed {
        /// Job name.
        name: String,
        /// Tenant the shed is accounted to.
        tenant: TenantId,
        /// Why the scheduler dropped it.
        reason: ShedReason,
    },
}

impl JobOutcome {
    /// The job's name.
    pub fn name(&self) -> &str {
        match self {
            JobOutcome::Completed(r) => &r.name,
            JobOutcome::Rejected { name, .. } | JobOutcome::Shed { name, .. } => name,
        }
    }

    /// `"completed"`, `"rejected"` or `"shed"`.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Rejected { .. } => "rejected",
            JobOutcome::Shed { .. } => "shed",
        }
    }

    /// The tenant the outcome is accounted to.
    pub fn tenant(&self) -> &TenantId {
        match self {
            JobOutcome::Completed(r) => &r.tenant,
            JobOutcome::Rejected { tenant, .. } | JobOutcome::Shed { tenant, .. } => tenant,
        }
    }

    /// The completed report, if any.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Configuration of one [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The accelerator the jobs run on.
    pub accel: AcceleratorConfig,
    /// Bound of the admission queue (jobs); must be positive.
    pub queue_capacity: usize,
    /// Worker threads for batch execution (`None` → one per available
    /// core, `Some(1)` → fully serial).  Results never depend on this.
    pub workers: Option<usize>,
    /// Overload limit: reject submissions whose admission would push the
    /// estimated backlog past this many cycles (`None` → unlimited).
    pub max_backlog_cycles: Option<u64>,
}

impl EngineConfig {
    /// Default serving parameters around an accelerator configuration.
    pub fn new(accel: AcceleratorConfig) -> Self {
        EngineConfig { accel, queue_capacity: 64, workers: None, max_backlog_cycles: None }
    }

    /// Quick-test engine: the reduced 4-PE × L8 array.
    pub fn quick(kind: MacKind) -> Self {
        EngineConfig::new(AcceleratorConfig::quick(kind))
    }

    /// Paper-faithful engine: the 32-PE × L32 array at 500 MHz.
    pub fn paper(kind: MacKind) -> Self {
        EngineConfig::new(AcceleratorConfig::paper(kind))
    }

    /// Sets the queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the overload backlog limit in cycles.
    pub fn with_max_backlog_cycles(mut self, cycles: u64) -> Self {
        self.max_backlog_cycles = Some(cycles);
        self
    }
}

/// An admitted job waiting in the admission queue.
#[derive(Debug)]
struct Admitted {
    slot: usize,
    name: String,
    tenant: TenantId,
    network: SharedNetwork,
    deadline_cycles: Option<u64>,
}

/// One submission slot: either already decided (rejected) or waiting.
#[derive(Debug)]
enum Slot {
    Pending,
    Decided(JobOutcome),
}

/// The report of one [`Engine::run_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    outcomes: Vec<JobOutcome>,
    /// High-water mark of the admission queue during this batch.
    pub peak_queue_depth: usize,
    /// Per-tenant SLO accounting folded from the outcomes (latency
    /// sketches, shed/reject rates, goodput, attainment, fJ-exact
    /// energy attribution).
    pub slo: SloReport,
}

impl BatchReport {
    /// Terminal states, one per submitted job, in submission order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Completed job reports in submission order.
    pub fn completed(&self) -> impl Iterator<Item = &JobReport> {
        self.outcomes.iter().filter_map(JobOutcome::report)
    }

    /// Number of jobs submitted for this batch.
    pub fn submitted(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.completed().count()
    }

    /// Number of jobs rejected at admission.
    pub fn rejected_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, JobOutcome::Rejected { .. })).count()
    }

    /// Number of jobs shed at schedule time.
    pub fn shed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, JobOutcome::Shed { .. })).count()
    }

    /// Batch makespan on the model clock: the last completion cycle.
    pub fn makespan_cycles(&self) -> u64 {
        self.completed().map(|r| r.completion_cycle).max().unwrap_or(0)
    }

    /// Total useful MACs of the completed jobs.
    pub fn total_macs(&self) -> u64 {
        self.completed().map(JobReport::macs).sum()
    }

    /// Total energy of the completed jobs in fJ.
    pub fn total_energy_fj(&self) -> f64 {
        self.completed().map(JobReport::energy_fj).sum()
    }

    /// Batched throughput: completed MACs per makespan cycle.  The number
    /// the paper's 1024/4096/8192 MACs-per-cycle modes bound from above.
    pub fn macs_per_cycle(&self) -> f64 {
        let span = self.makespan_cycles();
        if span == 0 { 0.0 } else { self.total_macs() as f64 / span as f64 }
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} submitted / {} completed / {} rejected / {} shed, {} cycles, {:.1} MACs/cycle, peak queue {}",
            self.submitted(),
            self.completed_count(),
            self.rejected_count(),
            self.shed_count(),
            self.makespan_cycles(),
            self.macs_per_cycle(),
            self.peak_queue_depth,
        )?;
        for o in &self.outcomes {
            match o {
                JobOutcome::Completed(r) => writeln!(
                    f,
                    "  {:<24} completed  {:>10} cyc (wait {:>8})  {:>7.1} MACs/cyc  {:>10.0} fJ",
                    r.name,
                    r.cycles(),
                    r.queue_wait_cycles,
                    r.macs_per_cycle(),
                    r.energy_fj(),
                )?,
                JobOutcome::Rejected { name, reason, .. } => {
                    writeln!(f, "  {name:<24} rejected   {reason}")?
                }
                JobOutcome::Shed { name, reason, .. } => {
                    writeln!(f, "  {name:<24} shed       {reason}")?
                }
            }
        }
        Ok(())
    }
}

/// The admission-time cycle lower bound for `net` on `accel`: per layer
/// the larger of the compute floor (all MACs at peak MACs/cycle) and
/// the DMA floor ([`bsc_systolic::mem::dma_cycles_lower_bound`]) — the
/// shared implementation behind [`Engine::estimate_cycles`] and the
/// cluster dispatcher's per-shard admission checks.
pub(crate) fn estimate_cycles_for(accel: &AcceleratorConfig, net: &Network) -> u64 {
    net.layers
        .iter()
        .map(|l| {
            let peak = accel.array.peak_macs_per_cycle(l.precision) as u64;
            let compute = l.macs().div_ceil(peak.max(1));
            let shape = layer_to_conv_shape(&l.kind);
            let dma = bsc_systolic::mem::dma_cycles_lower_bound(
                &accel.array,
                &accel.mem,
                l.precision,
                &shape,
            );
            compute.max(dma)
        })
        .sum()
}

/// The multi-tenant batch inference engine.  See the module docs for the
/// admission / scheduling semantics.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    ladder: AdmissionLadder,
    charac: Arc<DesignCharacterization>,
    /// Admitted jobs in submission order; never longer than
    /// `config.queue_capacity` (the ladder's outstanding cap).
    queue: Vec<Admitted>,
    peak_queue_depth: usize,
    slots: Vec<Slot>,
    backlog_cycles: u64,
    slo_targets: std::collections::BTreeMap<TenantId, SloTarget>,
    telemetry: Telemetry,
}

impl Engine {
    /// Builds an engine on the process-wide
    /// [`CharacterizationCache::global`] cache.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures from a first-use
    /// characterization.
    pub fn new(config: EngineConfig) -> Result<Self, AccelError> {
        Self::with_cache(config, CharacterizationCache::global())
    }

    /// Builds an engine on an explicit cache (e.g. a scoped one in a
    /// test that asserts exact hit/miss counts).
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures from a cache miss.
    pub fn with_cache(
        config: EngineConfig,
        cache: &CharacterizationCache,
    ) -> Result<Self, AccelError> {
        let accel = Accelerator::new_cached(config.accel.clone(), cache)?;
        Ok(Self::with_design(config, accel.shared_characterization()))
    }

    /// Builds an engine around an already-characterized design (e.g. one
    /// owned by a `Workbench`), avoiding any characterization pass.
    ///
    /// # Panics
    ///
    /// Panics if the characterization's architecture differs from the
    /// configured MAC kind, or on a zero queue capacity — an engine that
    /// can never admit anything is a configuration error, not a useful
    /// degenerate case.
    pub fn with_design(config: EngineConfig, charac: Arc<DesignCharacterization>) -> Self {
        assert_eq!(
            charac.kind(),
            config.accel.kind,
            "characterization architecture mismatch"
        );
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let ladder = AdmissionLadder {
            max_outstanding: config.queue_capacity as u64,
            max_backlog_cycles: config.max_backlog_cycles,
        };
        Engine {
            config,
            ladder,
            charac,
            queue: Vec::new(),
            peak_queue_depth: 0,
            slots: Vec::new(),
            backlog_cycles: 0,
            slo_targets: std::collections::BTreeMap::new(),
            telemetry: Telemetry::metrics_only(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared characterization the engine runs on.
    pub fn characterization(&self) -> &Arc<DesignCharacterization> {
        &self.charac
    }

    /// The engine's telemetry bundle (queue gauges, admission counters,
    /// per-job spans).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current estimated backlog of admitted-but-unrun work in cycles.
    pub fn backlog_cycles(&self) -> u64 {
        self.backlog_cycles
    }

    /// Number of jobs waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The optimistic cycle estimate admission uses: per layer, the
    /// larger of the compute floor (all MACs at peak MACs/cycle) and the
    /// DMA floor (the layer's minimum DRAM traffic through the configured
    /// channel — [`bsc_systolic::mem::dma_cycles_lower_bound`]).  Both
    /// floors are proven lower bounds on the stall-inclusive
    /// [`Engine::schedule_cycles`], so admission never rejects a feasible
    /// job; but unlike the old compute-only bound it *does* reject jobs
    /// whose DRAM traffic alone already overruns the deadline under a
    /// finite [`bsc_systolic::MemConfig`], instead of admitting them and
    /// shedding at execution.  With the default infinite hierarchy the
    /// DMA floor is zero and the estimate is unchanged.
    pub fn estimate_cycles(&self, net: &Network) -> u64 {
        estimate_cycles_for(&self.config.accel, net)
    }

    /// The exact schedule cycles of a network on this array: the
    /// [`NetworkReport::total_cycles_with_stalls`] of one
    /// [`Accelerator::run_network`] evaluation, the same number
    /// [`Engine::run_batch`] places the job with.  Includes DMA stall and
    /// drain cycles under the configured memory hierarchy, so shedding
    /// decisions see the bandwidth-limited latency; with the default
    /// infinite [`bsc_systolic::MemConfig`] this is exactly the
    /// compute-only schedule.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures and an infeasible clock period.
    pub fn schedule_cycles(&self, net: &Network) -> Result<u64, AccelError> {
        let accel = Accelerator::with_shared_characterization(
            self.config.accel.clone(),
            Arc::clone(&self.charac),
        );
        accel.run_network(net).map(|report| report.total_cycles_with_stalls())
    }

    /// Walks a job through the admission ladder's first three stages:
    /// admits it into the queue, or rejects it with a reason.  Either
    /// way the decision is recorded and reappears in the next
    /// [`Engine::run_batch`]'s outcomes, so every submission has exactly
    /// one terminal state.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when the queue is full, the backlog
    /// limit would be exceeded, or the deadline is already infeasible.
    pub fn submit(&mut self, job: InferenceJob) -> Result<usize, RejectReason> {
        let slot = self.slots.len();
        let m = &self.telemetry.metrics;
        m.counter("engine.jobs.submitted").inc();
        if let Some(target) = job.slo {
            self.slo_targets.insert(job.tenant.clone(), target);
        }
        let network = job.policy.apply(&job.network);
        // Nothing is scheduled before `run_batch`, so the backlog is the
        // sum of the admitted jobs' estimates.
        let verdict = self.ladder.admit(
            self.queue.len() as u64,
            self.backlog_cycles,
            self.estimate_cycles(&network),
            job.deadline_cycles,
        );
        let projected = match verdict {
            Ok(projected) => projected,
            Err(reason) => {
                m.counter("engine.jobs.rejected").inc();
                m.labeled_counter("engine.jobs")
                    .with(&[("outcome", "rejected"), ("reason", reason.slug())])
                    .inc();
                self.slots.push(Slot::Decided(JobOutcome::Rejected {
                    name: job.name,
                    tenant: job.tenant,
                    reason,
                }));
                return Err(reason);
            }
        };
        self.queue.push(Admitted {
            slot,
            name: job.name,
            tenant: job.tenant,
            network,
            deadline_cycles: job.deadline_cycles,
        });
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
        self.slots.push(Slot::Pending);
        self.backlog_cycles = projected;
        m.counter("engine.jobs.admitted").inc();
        m.gauge("engine.queue.depth").set(self.queue.len() as i64);
        m.gauge("engine.queue.peak_depth").set(self.peak_queue_depth as i64);
        m.gauge("engine.backlog_cycles").set(self.backlog_cycles as i64);
        Ok(slot)
    }

    /// Evaluates and places every queued job, returning one terminal
    /// outcome per submission since the previous batch, in submission
    /// order.
    ///
    /// Each job is evaluated once, by [`Accelerator::run_network`] over
    /// the `bsc_netlist::par` pool with one [`Accelerator`] per worker,
    /// all sharing this engine's characterization.  Placement (shed
    /// decisions, queue waits, completion cycles) then runs serially on
    /// the virtual batch clock from each report's stall-inclusive cycle
    /// count.  Results are identical at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates mapping/characterization failures of any queued job
    /// (the batch is abandoned; admission state is still consumed).
    pub fn run_batch(&mut self) -> Result<BatchReport, AccelError> {
        let _wall = self.telemetry.metrics.timer("engine.run_batch_ns");
        let _span = {
            let g = self.telemetry.spans.begin("engine.run_batch");
            g.annotate("queued", self.queue.len());
            g
        };
        let mut slots = std::mem::take(&mut self.slots);
        let queued = std::mem::take(&mut self.queue);
        let peak_queue_depth = self.peak_queue_depth;
        self.backlog_cycles = 0;
        let m = &self.telemetry.metrics;
        m.gauge("engine.queue.depth").set(0);
        m.gauge("engine.backlog_cycles").set(0);

        // Evaluation: one report per queued job, from per-worker
        // accelerators over the shared characterization, merged back by
        // queue index.  Each worker's own span cursor starts at the batch
        // span, so its job spans nest there.
        let accel_cfg = self.config.accel.clone();
        let charac = Arc::clone(&self.charac);
        let telemetry = &self.telemetry;
        let reports: Vec<Result<NetworkReport, AccelError>> = bsc_netlist::par::run_indexed_with(
            queued.len(),
            self.config.workers,
            || {
                let accel =
                    Accelerator::with_shared_characterization(accel_cfg.clone(), Arc::clone(&charac));
                (accel, telemetry.fork())
            },
            |(accel, tel), i| {
                let job = &queued[i];
                let _job_span = {
                    let g = tel.spans.begin(&format!("engine.job.{}", job.name));
                    g.annotate("network", &job.network.name);
                    g
                };
                accel.run_network(&job.network)
            },
        );

        // Placement: batch mode is a single-shard online run with every
        // arrival at cycle 0, in submission order, so the ladder's
        // placement stage runs on one serial virtual clock and no worker
        // is involved — the source of worker-count independence.
        let mut busy_until = 0u64;
        for (job, report) in queued.into_iter().zip(reports) {
            let report = report?;
            let cycles = report.total_cycles_with_stalls();
            let outcome = match self.ladder.place(0, busy_until, cycles, job.deadline_cycles) {
                Ok(placed) => {
                    m.histogram("engine.queue.wait_cycles", QUEUE_WAIT_BOUNDS_CYCLES)
                        .record(placed.start);
                    busy_until = placed.completion;
                    m.counter("engine.jobs.completed").inc();
                    m.labeled_counter("engine.jobs").with(&[("outcome", "completed")]).inc();
                    m.counter("engine.batch.macs").add(report.total_macs());
                    m.counter("engine.batch.cycles").add(cycles);
                    JobOutcome::Completed(JobReport {
                        name: job.name,
                        tenant: job.tenant,
                        queue_wait_cycles: placed.start,
                        completion_cycle: placed.completion,
                        deadline_cycles: job.deadline_cycles,
                        report,
                    })
                }
                Err(reason) => {
                    m.counter("engine.jobs.shed").inc();
                    m.labeled_counter("engine.jobs")
                        .with(&[("outcome", "shed"), ("reason", reason.slug())])
                        .inc();
                    JobOutcome::Shed { name: job.name, tenant: job.tenant, reason }
                }
            };
            slots[job.slot] = Slot::Decided(outcome);
        }

        let outcomes: Vec<JobOutcome> = slots
            .into_iter()
            .map(|s| match s {
                Slot::Decided(o) => o,
                Slot::Pending => unreachable!("every admitted job was placed or shed"),
            })
            .collect();

        // Serial SLO fold over the outcomes, in submission order: a pure
        // reduction of already-deterministic data, so the report is
        // bit-identical at any worker count.  The window width derives
        // from the batch horizon (latest completion or shed decision).
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
        for (tenant, target) in std::mem::take(&mut self.slo_targets) {
            accountant.declare_target(tenant, target);
        }
        for outcome in &outcomes {
            accountant.observe(outcome);
        }
        // Fold-work accounting for the self-profiler: deterministic, so
        // it is safe in every metrics export.
        self.telemetry
            .metrics
            .counter("engine.slo.observations")
            .add(accountant.observations());
        Ok(BatchReport { outcomes, peak_queue_depth, slo: accountant.report() })
    }

    /// Convenience: submits every job (collecting rejections as
    /// outcomes) and runs the batch.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::run_batch`] failures.
    pub fn run_jobs(&mut self, jobs: Vec<InferenceJob>) -> Result<BatchReport, AccelError> {
        for job in jobs {
            // Rejections are recorded as outcomes; nothing to do here.
            let _ = self.submit(job);
        }
        self.run_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_nn::{Layer, LayerKind};

    fn toy_net(name: &str, fan_in: usize, fan_out: usize, p: Precision) -> SharedNetwork {
        Network {
            name: name.into(),
            dataset: "synthetic".into(),
            layers: vec![Layer::new("fc", LayerKind::Fc { fan_in, fan_out }, p)],
        }
        .into_shared()
    }

    /// The per-layer schedule loop that planned every job before
    /// placement read the evaluated report: the reference
    /// [`Engine::schedule_cycles`] is proven equal to.
    fn schedule_cycles_for(accel: &AcceleratorConfig, net: &Network) -> Result<u64, AccelError> {
        let mut cycles = 0u64;
        for layer in &net.layers {
            let shape = layer_to_conv_shape(&layer.kind);
            cycles += bsc_systolic::mem::schedule_conv_with_memory(
                &accel.array,
                &accel.mem,
                layer.precision,
                &shape,
            )?
            .total_cycles;
        }
        Ok(cycles)
    }

    #[test]
    fn schedule_cycles_equal_the_per_layer_schedule_loop() {
        use bsc_systolic::{DramBandwidth, MemConfig};

        let mems = [
            MemConfig::infinite(),
            MemConfig::edge(),
            MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1)),
        ];
        let nets = [bsc_nn::models::lenet5().into_shared(), bsc_nn::models::micro().into_shared()];
        let policies = [
            PrecisionPolicy::AsTrained,
            PrecisionPolicy::Uniform(Precision::Int2),
            PrecisionPolicy::Uniform(Precision::Int4),
            PrecisionPolicy::Uniform(Precision::Int8),
        ];
        for kind in MacKind::ALL {
            for mem in &mems {
                let engine = Engine::new(EngineConfig::new(
                    AcceleratorConfig::quick(kind).with_mem(*mem),
                ))
                .unwrap();
                for net in &nets {
                    for policy in policies {
                        let net = policy.apply(net);
                        assert_eq!(
                            engine.schedule_cycles(&net).unwrap(),
                            schedule_cycles_for(&engine.config().accel, &net).unwrap(),
                            "{kind} {} {policy} under {mem:?}",
                            net.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn job_cycles_count_dma_stalls_so_wait_plus_cycles_is_completion() {
        use bsc_systolic::MemConfig;

        let mut engine = Engine::new(
            EngineConfig::new(AcceleratorConfig::quick(MacKind::Bsc).with_mem(MemConfig::edge()))
                .with_workers(2),
        )
        .unwrap();
        let net = bsc_nn::models::lenet5().into_shared();
        for (i, policy) in ["nas", "int2", "int4", "int8"].into_iter().enumerate() {
            let job = InferenceJob::new(format!("j{i}"), Arc::clone(&net))
                .with_policy(policy.parse().unwrap());
            engine.submit(job).unwrap();
        }
        let batch = engine.run_batch().unwrap();
        assert_eq!(batch.completed_count(), 4);
        for r in batch.completed() {
            assert!(r.report.total_stall_cycles() > 0, "{}: edge memory must stall", r.name);
            assert_eq!(r.queue_wait_cycles + r.cycles(), r.completion_cycle, "{}", r.name);
        }
        // The jobs run back to back, so the busy-cycle counter (stalls
        // included) adds up to the makespan.
        assert_eq!(
            engine.telemetry().metrics.snapshot().counter("engine.batch.cycles"),
            batch.makespan_cycles()
        );
    }

    #[test]
    fn cache_characterizes_each_design_once() {
        let cache = CharacterizationCache::new();
        let cfg = CharacterizeConfig::quick(2);
        let a = cache.get_or_characterize(MacKind::Hps, &cfg).unwrap();
        let b = cache.get_or_characterize(MacKind::Hps, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different config is a different design.
        let cfg3 = CharacterizeConfig::quick(1);
        let c = cache.get_or_characterize(MacKind::Hps, &cfg3).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let mut engine = Engine::new(
            EngineConfig::quick(MacKind::Bsc).with_queue_capacity(2).with_workers(1),
        )
        .unwrap();
        let net = toy_net("t", 64, 4, Precision::Int8);
        assert!(engine.submit(InferenceJob::new("a", Arc::clone(&net))).is_ok());
        assert!(engine.submit(InferenceJob::new("b", Arc::clone(&net))).is_ok());
        let err = engine.submit(InferenceJob::new("c", Arc::clone(&net))).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { capacity: 2 });
        let batch = engine.run_batch().unwrap();
        assert_eq!(batch.submitted(), 3);
        assert_eq!(batch.completed_count(), 2);
        assert_eq!(batch.rejected_count(), 1);
        assert_eq!(batch.outcomes()[2].label(), "rejected");
        // The queue bound was never exceeded.
        assert!(batch.peak_queue_depth <= 2);
    }

    #[test]
    fn a_huge_queue_capacity_admits_and_runs_without_preallocating() {
        let mut engine = Engine::new(
            EngineConfig::quick(MacKind::Bsc).with_queue_capacity(usize::MAX).with_workers(1),
        )
        .unwrap();
        engine.submit(InferenceJob::new("a", toy_net("t", 64, 4, Precision::Int8))).unwrap();
        let batch = engine.run_batch().unwrap();
        assert_eq!(batch.completed_count(), 1);
        assert_eq!(batch.peak_queue_depth, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_queue_capacity_is_rejected() {
        let _ = Engine::new(EngineConfig::quick(MacKind::Bsc).with_queue_capacity(0));
    }

    #[test]
    fn infeasible_deadline_rejects_and_tight_deadline_sheds() {
        let mut engine =
            Engine::new(EngineConfig::quick(MacKind::Bsc).with_workers(1)).unwrap();
        let net = toy_net("t", 256, 32, Precision::Int8);
        let ideal = engine.estimate_cycles(&net);
        let exact = engine.schedule_cycles(&net).unwrap();
        assert!(exact > ideal, "quick array must not be perfectly utilized ({exact} vs {ideal})");

        // Deadline below even the ideal estimate: rejected at admission.
        let err = engine
            .submit(InferenceJob::new("hopeless", Arc::clone(&net)).with_deadline(ideal - 1))
            .unwrap_err();
        assert!(matches!(err, RejectReason::DeadlineInfeasible { .. }));

        // Deadline between ideal and exact: admitted optimistically, then
        // shed when the exact schedule lands.
        assert!(engine
            .submit(InferenceJob::new("optimistic", Arc::clone(&net)).with_deadline(ideal))
            .is_ok());
        // No deadline: always completes.
        assert!(engine.submit(InferenceJob::new("steady", Arc::clone(&net))).is_ok());

        let batch = engine.run_batch().unwrap();
        assert_eq!(batch.submitted(), 3);
        assert_eq!(batch.outcomes()[0].label(), "rejected");
        assert_eq!(batch.outcomes()[1].label(), "shed");
        assert_eq!(batch.outcomes()[2].label(), "completed");
        let done = batch.completed().next().unwrap();
        // The shed job never ran, so the survivor started at cycle 0.
        assert_eq!(done.queue_wait_cycles, 0);
        assert_eq!(done.completion_cycle, exact);
    }

    #[test]
    fn overload_limit_sheds_submissions() {
        let mut engine = Engine::new(
            EngineConfig::quick(MacKind::Bsc).with_workers(1).with_max_backlog_cycles(1),
        )
        .unwrap();
        let net = toy_net("t", 256, 16, Precision::Int4);
        let err = engine.submit(InferenceJob::new("big", net)).unwrap_err();
        assert!(matches!(err, RejectReason::Overloaded { .. }));
    }

    #[test]
    fn batch_results_are_worker_count_independent() {
        let nets: Vec<SharedNetwork> = (0..6)
            .map(|i| toy_net(&format!("n{i}"), 32 + 8 * i, 4 + i, Precision::ALL[i % 3]))
            .collect();
        let run = |workers: usize| {
            let mut engine = Engine::new(
                EngineConfig::quick(MacKind::Bsc).with_workers(workers),
            )
            .unwrap();
            let jobs = nets
                .iter()
                .enumerate()
                .map(|(i, n)| InferenceJob::new(format!("job{i}"), Arc::clone(n)))
                .collect();
            engine.run_jobs(jobs).unwrap()
        };
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial, pooled);
        assert_eq!(serial.completed_count(), 6);
        // Queue waits are cumulative completions of the predecessors.
        let completed: Vec<_> = serial.completed().collect();
        for w in completed.windows(2) {
            assert_eq!(w[1].queue_wait_cycles, w[0].completion_cycle);
        }
    }

    #[test]
    fn tight_bandwidth_sheds_a_job_that_ample_bandwidth_completes() {
        use bsc_systolic::{DramBandwidth, MemConfig};

        let net = toy_net("t", 256, 32, Precision::Int8);
        let ample = Engine::new(EngineConfig::quick(MacKind::Bsc).with_workers(1)).unwrap();
        let compute_only = ample.schedule_cycles(&net).unwrap();

        // Ample bandwidth: the exact schedule equals the compute-only
        // schedule, so the deadline is met exactly.
        let mut engine = Engine::new(
            EngineConfig::new(AcceleratorConfig::quick(MacKind::Bsc).with_mem(MemConfig::infinite()))
                .with_workers(1),
        )
        .unwrap();
        engine
            .submit(InferenceJob::new("edge", Arc::clone(&net)).with_deadline(compute_only))
            .expect("feasible under infinite memory");
        let ample_batch = engine.run_batch().unwrap();
        assert_eq!(ample_batch.outcomes()[0].label(), "completed");
        assert_eq!(ample_batch.completed().next().unwrap().completion_cycle, compute_only);

        // One byte per cycle: the DMA traffic floor alone overruns the
        // same deadline, so the DMA-aware bound rejects at admission
        // instead of admitting a job that could only shed.
        let mut starved = Engine::new(
            EngineConfig::new(
                AcceleratorConfig::quick(MacKind::Bsc)
                    .with_mem(MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1))),
            )
            .with_workers(1),
        )
        .unwrap();
        let err = starved
            .submit(InferenceJob::new("doomed", Arc::clone(&net)).with_deadline(compute_only))
            .unwrap_err();
        assert!(matches!(err, RejectReason::DeadlineInfeasible { .. }), "{err}");

        // A deadline between the admission estimate and the exact
        // stall-inclusive schedule is still admitted optimistically and
        // shed at execution — the estimate stays a true lower bound.
        let est = starved.estimate_cycles(&net);
        let exact = starved.schedule_cycles(&net).unwrap();
        assert!(est < exact, "estimate {est} vs exact {exact}");
        starved
            .submit(InferenceJob::new("edge", Arc::clone(&net)).with_deadline(exact - 1))
            .expect("above the admission bound");
        let batch = starved.run_batch().unwrap();
        assert_eq!(batch.outcomes()[0].label(), "rejected");
        assert_eq!(batch.outcomes()[1].label(), "shed");
    }

    #[test]
    fn admission_bound_is_dma_aware_where_the_stall_free_bound_was_blind() {
        use bsc_systolic::{DramBandwidth, MemConfig};

        let net = toy_net("t", 256, 32, Precision::Int8);
        let mut engine = Engine::new(
            EngineConfig::new(
                AcceleratorConfig::quick(MacKind::Bsc)
                    .with_mem(MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1))),
            )
            .with_workers(1),
        )
        .unwrap();

        // The pre-fix admission bound: every layer at peak MACs/cycle,
        // blind to the memory hierarchy.
        let stall_free: u64 = net
            .layers
            .iter()
            .map(|l| {
                let peak = engine.config().accel.array.peak_macs_per_cycle(l.precision) as u64;
                l.macs().div_ceil(peak.max(1))
            })
            .sum();
        let est = engine.estimate_cycles(&net);
        assert!(
            stall_free < est,
            "at 1 B/cycle the DMA floor must dominate ({stall_free} vs {est})"
        );

        // Pick a deadline the old bound accepts but the DMA floor
        // disproves.  The old bound would admit this job and the exact
        // stall-inclusive schedule would shed it; the DMA-aware bound
        // rejects it at submission instead.
        let deadline = est - 1;
        assert!(deadline >= stall_free, "deadline sits between the two bounds");
        assert!(
            engine.schedule_cycles(&net).unwrap() > deadline,
            "an admitted job could only shed"
        );
        let err = engine
            .submit(InferenceJob::new("late", Arc::clone(&net)).with_deadline(deadline))
            .unwrap_err();
        match err {
            RejectReason::DeadlineInfeasible { projected_cycles, deadline_cycles } => {
                assert_eq!(projected_cycles, est);
                assert_eq!(deadline_cycles, deadline);
            }
            other => panic!("expected DeadlineInfeasible, got {other}"),
        }
    }

    #[test]
    fn queue_wait_histogram_records_every_planned_job() {
        let mut engine =
            Engine::new(EngineConfig::quick(MacKind::Bsc).with_workers(1)).unwrap();
        let net = toy_net("t", 64, 8, Precision::Int8);
        for i in 0..3 {
            engine.submit(InferenceJob::new(format!("j{i}"), Arc::clone(&net))).unwrap();
        }
        let batch = engine.run_batch().unwrap();
        let waits: Vec<u64> = batch.completed().map(|r| r.queue_wait_cycles).collect();
        let snap = engine.telemetry().metrics.snapshot();
        let hist = snap.histogram("engine.queue.wait_cycles").expect("histogram recorded");
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, waits.iter().sum::<u64>());
        assert_eq!(hist.max, *waits.iter().max().unwrap());
        assert_eq!(hist.min, 0, "the first job starts immediately");
    }

    #[test]
    fn labeled_outcome_counters_break_down_by_reason() {
        let mut engine = Engine::new(
            EngineConfig::quick(MacKind::Bsc).with_queue_capacity(1).with_workers(1),
        )
        .unwrap();
        let net = toy_net("t", 256, 32, Precision::Int8);
        let ideal = engine.estimate_cycles(&net);
        // Admitted optimistically, shed by the exact schedule.
        let _ = engine.submit(InferenceJob::new("shed-me", Arc::clone(&net)).with_deadline(ideal));
        // Queue capacity 1: refused with backpressure.
        let _ = engine.submit(InferenceJob::new("bounced", Arc::clone(&net)));
        engine.run_batch().unwrap();
        let _ = engine.submit(InferenceJob::new("runs", Arc::clone(&net)));
        engine.run_batch().unwrap();

        let snap = engine.telemetry().metrics.snapshot();
        let at = |labels: &[(&str, &str)]| snap.labeled_counter_at("engine.jobs", labels);
        assert_eq!(at(&[("outcome", "shed"), ("reason", "deadline_missed")]), 1);
        assert_eq!(at(&[("outcome", "rejected"), ("reason", "queue_full")]), 1);
        assert_eq!(at(&[("outcome", "completed")]), 1);
        // Labeled totals agree with the flat counters.
        let total: u64 = snap.labeled_counter("engine.jobs").iter().map(|(_, v)| v).sum();
        assert_eq!(total, snap.counter("engine.jobs.submitted"));
    }

    #[test]
    fn slo_report_accounts_every_tenant_and_attaches_targets() {
        let mut engine =
            Engine::new(EngineConfig::quick(MacKind::Bsc).with_workers(1)).unwrap();
        let net = toy_net("t", 128, 16, Precision::Int8);
        let target = crate::SloTarget { latency_p99_cycles: 1, min_goodput: 1.0 };
        engine
            .submit(
                InferenceJob::new("a0", Arc::clone(&net)).with_tenant("acme").with_slo(target),
            )
            .unwrap();
        engine.submit(InferenceJob::new("a1", Arc::clone(&net)).with_tenant("acme")).unwrap();
        engine.submit(InferenceJob::new("z0", Arc::clone(&net)).with_tenant("zeta")).unwrap();
        let batch = engine.run_batch().unwrap();

        assert_eq!(
            batch.slo.tenants.iter().map(|t| t.tenant.as_str()).collect::<Vec<_>>(),
            vec!["acme", "zeta"],
            "tenants sorted by id"
        );
        let acme = batch.slo.tenant("acme").unwrap();
        assert_eq!((acme.submitted, acme.completed), (2, 2));
        assert_eq!(acme.latency.count, 2);
        // A 1-cycle p99 target is hopeless: declared, measured, missed.
        let att = acme.attainment.expect("target declared via with_slo");
        assert!(!att.latency_p99_ok && !att.attained);
        assert!(batch.slo.tenant("zeta").unwrap().attainment.is_none());
        // Both tenants saw identical jobs, so attribution is symmetric.
        assert_eq!(acme.energy_fj, 2 * batch.slo.tenant("zeta").unwrap().energy_fj);
    }

    #[test]
    fn tenant_energy_attributions_sum_exactly_to_the_batch_total() {
        let mut engine =
            Engine::new(EngineConfig::quick(MacKind::Bsc).with_workers(2)).unwrap();
        for i in 0..9 {
            let net = toy_net(&format!("n{i}"), 32 + 16 * i, 4 + i, Precision::ALL[i % 3]);
            engine
                .submit(
                    InferenceJob::new(format!("job{i}"), net)
                        .with_tenant(format!("tenant-{}", i % 3)),
                )
                .unwrap();
        }
        let batch = engine.run_batch().unwrap();
        assert_eq!(batch.completed_count(), 9);

        // The ground truth: quantize each layer's energy independently
        // and sum — the same integers the accountant folds.
        let expected: u64 = batch
            .completed()
            .flat_map(|r| r.report.layers())
            .map(|l| crate::slo::quantize_energy_fj(l.energy_fj))
            .sum();
        assert_eq!(batch.slo.total_energy_fj(), expected, "per-tenant sums == batch total");
        // And the per-precision split of each tenant sums to its total.
        for t in &batch.slo.tenants {
            let split: u64 = t.energy_by_precision.iter().map(|(_, fj)| fj).sum();
            assert_eq!(split, t.energy_fj, "precision split of {} is exact", t.tenant);
        }
        // The quantized batch total tracks the float total to <1 fJ per layer.
        let float_total = batch.total_energy_fj();
        assert!((float_total - expected as f64).abs() < 9.0 * 1.0);
    }

    #[test]
    fn engine_counters_track_outcomes() {
        let mut engine = Engine::new(
            EngineConfig::quick(MacKind::Bsc).with_queue_capacity(1).with_workers(1),
        )
        .unwrap();
        let net = toy_net("t", 64, 8, Precision::Int2);
        let _ = engine.submit(InferenceJob::new("a", Arc::clone(&net)));
        let _ = engine.submit(InferenceJob::new("b", Arc::clone(&net)));
        engine.run_batch().unwrap();
        let snap = engine.telemetry().metrics.snapshot();
        assert_eq!(snap.counter("engine.jobs.submitted"), 2);
        assert_eq!(snap.counter("engine.jobs.admitted"), 1);
        assert_eq!(snap.counter("engine.jobs.rejected"), 1);
        assert_eq!(snap.counter("engine.jobs.completed"), 1);
        assert!(snap.gauge("engine.queue.peak_depth") <= 1);
    }
}
