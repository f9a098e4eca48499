//! The per-arrival event loop that runs of refusals replaced, kept only
//! as a test oracle.
//!
//! [`event_loop`] is the loop as it was before runs: every arrival takes
//! the full step — shard scan, ladder, funnel and log — and the heap
//! pops and pushes once per arrival.  The tests run both loops through
//! the same [`simulate`] and require every report field (the queue-wait
//! histogram included) and every logical profile counter to agree, on a
//! seeded grid of
//! random manifests (all policies, outstanding caps, backlog limits,
//! deadlines, arrival processes, log caps and job budgets) and on
//! same-cycle ties and budgets that run out inside a run.

use std::collections::VecDeque;

use bsc_telemetry::{HistogramSnapshot, QuantileSketch};

use super::*;
use crate::des::{ArrivalGen, EventQueue, END_OF_STREAM};

/// The per-arrival event loop.
pub(super) fn event_loop(
    config: &OnlineConfig,
    estimate: &[u64],
    exact: &[u64],
    phases: Option<&OnlinePhases>,
) -> Tallies {
    let n_shards = config.shards.len();
    let n_pairs = config.sources.len() * n_shards;
    // The heap holds *arrivals only* (payload = source index); each
    // shard keeps its own pending completions in cycle order.
    let mut events: EventQueue<usize> = EventQueue::new();
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
                events.push(t, i);
                arrivals_pushed += 1;
            }
        }
    }

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
    // Cycles each tenant has been served on each shard, one row per
    // tenant.
    let tenant_of = tenant_indices(&config.sources);
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
    let mut queue_wait_cycles = HistogramSnapshot::new(QUEUE_WAIT_BOUNDS_CYCLES);
    let (mut completions_popped, mut completion_bursts) = (0u64, 0u64);

    loop {
        // Completions before arrivals at equal times, so `c <= a` picks
        // the completions.
        let (now, is_completion) = match (next_completion(&shards), events.peek_time()) {
            (Some(c), Some(a)) if c <= a => (c, true),
            (Some(c), None) => (c, true),
            (_, Some(a)) => (a, false),
            (None, None) => break,
        };
        while next_sample < now {
            for (d, s) in depth.iter_mut().zip(&shards) {
                d.samples.push(DepthSample {
                    cycle: next_sample,
                    outstanding: s.outstanding(),
                    backlog_cycles: s.busy_until.saturating_sub(next_sample),
                });
            }
            // Saturates: `next_sample == u64::MAX` is never below `now`.
            next_sample = next_sample.saturating_add(stride);
        }
        if is_completion {
            completions_popped += complete_due(&mut shards, now);
            completion_bursts += 1;
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
                events.push(next, source);
                arrivals_pushed += 1;
            }
        }

        let tmpl = &config.sources[source].template;
        let seq = per_source_seq[source];
        per_source_seq[source] += 1;

        let row = tenant_of[source] * n_shards;
        let hi = {
            let _g = phases.as_ref().map(|ph| ph.dispatch.enter());
            choose_shard(
                config.policy,
                now,
                &shards,
                &mut rr_cursor,
                &tenant_cycles[row..row + n_shards],
            )
        };
        let _g_admission = phases.as_ref().map(|ph| ph.admission.enter());
        let backlog = shards[hi].busy_until.saturating_sub(now);
        shards[hi].peak_backlog_cycles = shards[hi].peak_backlog_cycles.max(backlog);
        funnel[hi].offered += 1;
        let pair = source * n_shards + hi;
        let deadline = tmpl.deadline_cycles;
        let verdict = ladder
            .admit(shards[hi].outstanding(), backlog, estimate[pair], deadline)
            .map(|_| ladder.place(now, shards[hi].busy_until, exact[pair], deadline));
        let (outcome, reason, start, completion) = match verdict {
            Err(reason) => {
                match reason {
                    RejectReason::QueueFull { .. } => funnel[hi].queue_full += 1,
                    RejectReason::Overloaded { .. } => funnel[hi].overloaded += 1,
                    RejectReason::DeadlineInfeasible { .. } => funnel[hi].deadline_infeasible += 1,
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
                let shard = &mut shards[hi];
                shard.busy_until = completion;
                shard.pending.push_back(completion);
                shard.peak_outstanding = shard.peak_outstanding.max(shard.outstanding());
                shard.peak_backlog_cycles = shard.peak_backlog_cycles.max(completion - now);
                funnel[hi].dispatched += 1;
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
            arrival_samples,
            arrival_refills,
            arrivals_pushed,
            heap_pushes: events.pushes(),
            heap_pops: events.pops(),
            completions_popped,
            completion_bursts,
            runs: 0,
            run_arrivals: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{ArrivalProcess, DiurnalSegment};
    use bsc_mac::{MacKind, Precision};
    use bsc_netlist::rng::Rng64;
    use bsc_nn::{Layer, LayerKind, Network};

    /// What one run shows: the report and every profile counter as
    /// `phase.counter` (guard entries as `phase.calls`).
    struct Observed {
        report: OnlineReport,
        counters: Vec<(String, u64)>,
    }

    impl Observed {
        fn counter(&self, name: &str) -> u64 {
            self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
        }
    }

    fn observe(config: &OnlineConfig, event_loop: EventLoop) -> Observed {
        let profiler = Profiler::new();
        let report = simulate(config, Some(&profiler), event_loop).unwrap();
        let counters = profiler
            .snapshot()
            .phases
            .into_iter()
            .flat_map(|p| {
                let calls = (format!("{}.calls", p.name), p.calls);
                let named =
                    p.counters.into_iter().map(move |(c, v)| (format!("{}.{c}", p.name), v));
                std::iter::once(calls).chain(named).collect::<Vec<_>>()
            })
            .collect();
        Observed { report, counters }
    }

    /// The physical counters: guard entries, which runs skip, and the
    /// run counts themselves.
    const PHYSICAL: [&str; 4] =
        ["dispatch.calls", "admission.calls", "admission.runs", "admission.run_arrivals"];

    /// Runs `config` through the live loop and the oracle, requires the
    /// same report and logical counters, and returns the live
    /// loop's report and `(runs, run_arrivals)`.
    fn assert_loops_agree(config: &OnlineConfig, label: &str) -> (OnlineReport, (u64, u64)) {
        let live = observe(config, crate::cluster::event_loop);
        let oracle = observe(config, event_loop);
        let (a, b) = (&live.report, &oracle.report);
        assert_eq!(
            (a.submitted, a.completed, a.rejected, a.shed, a.makespan_cycles),
            (b.submitted, b.completed, b.rejected, b.shed, b.makespan_cycles),
            "{label}: totals"
        );
        assert_eq!(a.funnel, b.funnel, "{label}: funnel");
        assert_eq!(a.shards, b.shards, "{label}: shards");
        assert_eq!(
            (&a.events, a.events_truncated),
            (&b.events, b.events_truncated),
            "{label}: log"
        );
        assert_eq!(a.depth, b.depth, "{label}: depth");
        assert_eq!(a.slo, b.slo, "{label}: SLO");
        assert_eq!(a.queue_wait_cycles, b.queue_wait_cycles, "{label}: queue waits");
        assert_eq!(a, b, "{label}: report");
        let logical = |o: &Observed| {
            o.counters
                .iter()
                .filter(|(n, _)| !PHYSICAL.contains(&n.as_str()))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(logical(&live), logical(&oracle), "{label}: logical counters");
        let offered = oracle.counter("admission.offered");
        assert_eq!(oracle.counter("dispatch.calls"), offered, "{label}: one full step per arrival");
        let (runs, run_arrivals) =
            (live.counter("admission.runs"), live.counter("admission.run_arrivals"));
        assert_eq!(live.counter("dispatch.calls") + run_arrivals, offered, "{label}");
        assert_eq!(live.counter("admission.calls") + run_arrivals, offered, "{label}");
        assert!(runs <= run_arrivals, "{label}: a run decides at least one arrival");
        (live.report, (runs, run_arrivals))
    }

    fn net(name: &str, fan_in: usize, fan_out: usize, p: Precision) -> SharedNetwork {
        Network {
            name: name.into(),
            dataset: "unit".into(),
            layers: vec![Layer::new("fc", LayerKind::Fc { fan_in, fan_out }, p)],
        }
        .into_shared()
    }

    fn shard(i: usize, kind: MacKind, edge: bool) -> ShardSpec {
        let accel = AcceleratorConfig::quick(kind);
        let accel = if edge { accel.with_mem(bsc_systolic::MemConfig::edge()) } else { accel };
        ShardSpec { name: format!("shard{i}"), accel }
    }

    fn source(
        name: &str,
        network: SharedNetwork,
        deadline: Option<u64>,
        process: ArrivalProcess,
    ) -> TrafficSource {
        TrafficSource {
            template: JobTemplate {
                name: name.into(),
                tenant: TenantId::new(name),
                network,
                precision: PrecisionPolicy::AsTrained,
                deadline_cycles: deadline,
                slo: Some(SloTarget { latency_p99_cycles: 5_000, min_goodput: 0.5 }),
            },
            process,
        }
    }

    const POLICIES: [DispatchPolicy; 3] =
        [DispatchPolicy::RoundRobin, DispatchPolicy::LeastOutstanding, DispatchPolicy::TenantFair];

    /// A random manifest: one to three shards (one may sit behind the
    /// edge memory), one to three sources of every arrival process (the
    /// third of the first one's tenant), and
    /// caps, limits, deadlines, log caps and budgets that make every
    /// verdict happen.
    fn random_config(rng: &mut Rng64, policy: DispatchPolicy) -> OnlineConfig {
        let kinds = [MacKind::Bsc, MacKind::Lpc, MacKind::Hps];
        let n_shards = rng.gen_range(1..=3usize);
        let edge = rng.gen_range(0..n_shards + 1);
        let shards = (0..n_shards).map(|i| shard(i, kinds[i], i == edge)).collect();
        let nets = [
            net("a", 64, 8, Precision::Int8),
            net("b", 128, 16, Precision::Int4),
            net("c", 256, 24, Precision::Int2),
        ];
        let n_sources = rng.gen_range(1..=3usize);
        let mut sources: Vec<TrafficSource> = (0..n_sources)
            .map(|i| {
                let mean = 1 << rng.gen_range(0..8);
                let process = match rng.gen_range(0..3) {
                    0 => ArrivalProcess::Poisson { mean_interarrival_cycles: mean },
                    1 => ArrivalProcess::Bursty {
                        on_cycles: rng.gen_range(500..5_000),
                        off_cycles: rng.gen_range(0..5_000),
                        mean_interarrival_cycles: mean,
                    },
                    _ => ArrivalProcess::Diurnal {
                        segments: vec![
                            DiurnalSegment {
                                duration_cycles: 3_000,
                                mean_interarrival_cycles: mean,
                            },
                            DiurnalSegment {
                                duration_cycles: 2_000,
                                mean_interarrival_cycles: 4 * mean,
                            },
                        ],
                    },
                };
                // Deadlines from below the cheapest estimate to far above
                // the dearest schedule: infeasible, shed and met.
                let deadline = (rng.gen_range(0..3) > 0).then(|| 1 << rng.gen_range(6..16));
                source(&format!("s{i}"), nets[rng.gen_range(0..3)].clone(), deadline, process)
            })
            .collect();
        // A third source shares the first one's tenant, and so its
        // tenant-fair row.
        if let [first, _, third] = &mut sources[..] {
            third.template.tenant = first.template.tenant.clone();
        }
        OnlineConfig {
            shards,
            policy,
            seed: rng.next_u64(),
            horizon_cycles: rng.gen_range(5_000..40_000),
            max_jobs: if rng.gen_range(0..4) == 0 { rng.gen_range(50..2_000) } else { u64::MAX },
            max_outstanding: [0, 1, 8][rng.gen_range(0..3)],
            max_backlog_cycles: [None, Some(1 << rng.gen_range(6..12)), Some(1 << 20)]
                [rng.gen_range(0..3)],
            event_log_cap: [0, rng.gen_range(1..40)][rng.gen_range(0..2)],
            workers: Some(1),
            sources,
        }
    }

    #[test]
    fn runs_agree_with_the_per_arrival_loop_on_random_manifests() {
        let mut rng = Rng64::seed_from_u64(0x2121);
        let mut run_arrivals = [0u64; 3];
        let mut stages = [0u64; SHED + 1];
        for case in 0..150 {
            let policy = POLICIES[case % 3];
            let config = random_config(&mut rng, policy);
            let (report, (_, n)) = assert_loops_agree(&config, &format!("case {case} ({policy})"));
            run_arrivals[case % 3] += n;
            for f in &report.funnel {
                for (stage, n) in
                    [f.queue_full, f.overloaded, f.deadline_infeasible, f.shed_deadline]
                        .into_iter()
                        .enumerate()
                {
                    stages[stage] += n;
                }
            }
        }
        assert!(run_arrivals.iter().all(|&n| n > 1_000), "every policy ran runs: {run_arrivals:?}");
        assert!(stages.iter().all(|&n| n > 100), "every stop on the ladder occurred: {stages:?}");
    }

    /// Two sources a cycle apart on average: the `max(1)` clamp fires on
    /// most draws, so both arrive on almost every cycle, every run ends
    /// on same-cycle ties, and completions land on arrival cycles.
    fn dense_ties(policy: DispatchPolicy) -> OnlineConfig {
        let process = ArrivalProcess::Poisson { mean_interarrival_cycles: 1 };
        OnlineConfig {
            shards: vec![
                shard(0, MacKind::Bsc, false),
                shard(1, MacKind::Lpc, true),
                shard(2, MacKind::Hps, false),
            ],
            policy,
            seed: 99,
            horizon_cycles: 30_000,
            max_jobs: u64::MAX,
            max_outstanding: 8,
            max_backlog_cycles: Some(4_000),
            event_log_cap: 0,
            workers: Some(2),
            sources: vec![
                source("x", net("a", 64, 8, Precision::Int8), Some(3_000), process.clone()),
                source("y", net("b", 128, 16, Precision::Int4), None, process),
            ],
        }
    }

    #[test]
    fn same_cycle_ties_through_runs_keep_the_heap_order() {
        for policy in POLICIES {
            let config = dense_ties(policy);
            let (report, (runs, run_arrivals)) = assert_loops_agree(&config, &policy.to_string());
            assert!(report.submitted > 40_000, "{policy}: {}", report.submitted);
            assert!(run_arrivals * 2 > report.submitted, "{policy}: {run_arrivals} in {runs} runs");
        }
    }

    #[test]
    fn a_budget_that_runs_out_inside_a_run_matches() {
        for policy in POLICIES {
            for max_jobs in (1_000..1_100).step_by(7) {
                let config = OnlineConfig { max_jobs, ..dense_ties(policy) };
                let (report, (_, run_arrivals)) =
                    assert_loops_agree(&config, &format!("{policy} {max_jobs}"));
                assert!(run_arrivals > 0);
                assert_eq!(report.submitted, max_jobs);
            }
        }
    }
}
