//! Conformance suite for the discrete-event serving stack: the event
//! queue's total order, the seeded integer-arithmetic arrival sampling,
//! worker-count independence of the multi-shard online simulator, and
//! the batch engine's equivalence to a plain serial virtual clock.
//!
//! Everything here is exact (`==` on integers and report bytes): the DES
//! determinism contract says results are a pure function of the
//! manifest, so any drift is a bug, not noise.

use bsc_accel::des::{ArrivalGen, ArrivalProcess, EventQueue};
use bsc_accel::{Engine, EngineConfig, InferenceJob, JobOutcome, PrecisionPolicy};
use bsc_mac::{MacKind, Precision};
use bsc_nn::{models, SharedNetwork};

// ---------------------------------------------------------------------
// Event queue: the (time, seq) pair is its ENTIRE tie-break contract —
// FIFO by push order at the same cycle.  (Completions never enter the
// queue: the online loop retires them before same-cycle arrivals.)
// ---------------------------------------------------------------------

#[test]
fn event_queue_orders_by_time_then_push_order() {
    let mut q = EventQueue::new();
    q.push(20, "late arrival");
    q.push(10, "arrival a");
    q.push(10, "arrival b");
    q.push(0, "first");
    q.push(10, "arrival c");
    let mut order = Vec::new();
    while let Some((time, label)) = q.pop() {
        order.push((time, label));
    }
    assert_eq!(
        order,
        vec![
            (0, "first"),
            (10, "arrival a"), // FIFO by push order at equal times
            (10, "arrival b"),
            (10, "arrival c"),
            (20, "late arrival"),
        ]
    );
}

#[test]
fn event_queue_is_fifo_across_many_equal_keys() {
    let mut q = EventQueue::new();
    for i in 0..1000u32 {
        q.push(7, i);
    }
    let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
    assert_eq!(popped, (0..1000).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// Poisson sampling: golden interarrival tables for three seeds.  The
// sampler is pure integer arithmetic (Q32 fixed-point -ln via
// shift-and-square), so these values must reproduce on every platform
// forever; regenerating them is an intentional format break.
// ---------------------------------------------------------------------

const GOLDEN_MEAN: u64 = 1000;
const GOLDEN_POISSON: [(u64, [u64; 8]); 3] = [
    (1, [352, 1005, 1559, 2497, 2857, 4797, 7441, 8405]),
    (42, [2478, 3448, 3833, 3911, 3919, 4180, 4509, 4671]),
    (0xBAD_C0FFE, [455, 1566, 2509, 3842, 4615, 5959, 7250, 8190]),
];

#[test]
fn poisson_arrivals_match_the_golden_table() {
    for (seed, expected) in GOLDEN_POISSON {
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Poisson { mean_interarrival_cycles: GOLDEN_MEAN },
            seed,
        );
        let got: Vec<u64> = (0..8).map(|_| gen.next_arrival()).collect();
        assert_eq!(got, expected, "seed {seed}: golden Poisson arrivals drifted");
    }
}

/// The batched sampler ([`ArrivalGen::refill`], PR-9's hot-path reuse of
/// the Q32 `-ln` evaluation across consecutive draws) reproduces the
/// same golden tables at every batch split — including splits that
/// straddle the table, proving the generator state carries across
/// refills exactly as it does across single draws.
#[test]
fn refill_reproduces_the_golden_poisson_tables_at_every_batch_split() {
    for (seed, expected) in GOLDEN_POISSON {
        for split in 0..=8usize {
            let mut gen = ArrivalGen::new(
                ArrivalProcess::Poisson { mean_interarrival_cycles: GOLDEN_MEAN },
                seed,
            );
            let mut buf = std::collections::VecDeque::new();
            gen.refill(split, &mut buf);
            gen.refill(8 - split, &mut buf);
            let got: Vec<u64> = buf.into_iter().collect();
            assert_eq!(got, expected, "seed {seed} split {split}: refill drifted from golden");
        }
    }
}

#[test]
fn poisson_arrival_times_are_strictly_increasing_with_plausible_mean() {
    let mut gen = ArrivalGen::new(
        ArrivalProcess::Poisson { mean_interarrival_cycles: 500 },
        99,
    );
    let times: Vec<u64> = (0..20_000).map(|_| gen.next_arrival()).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]), "arrival times must strictly increase");
    let mean = *times.last().unwrap() as f64 / times.len() as f64;
    assert!(
        (400.0..600.0).contains(&mean),
        "empirical mean interarrival {mean:.1} strayed from 500"
    );
}

/// The fast path must stay bit-exact at the edges of the rate range:
/// near-saturating processes (mean 1 — the Q32 product truncates to 0
/// and the `max(1)` clamp fires on almost every draw) and near-zero
/// rates (2^40-cycle mean gaps, where the hoisted constants dominate).
/// For each process the batched refill is compared draw-for-draw
/// against a per-draw reference generator, and the clamp contract
/// (strictly increasing times, every gap >= 1) is asserted directly.
#[test]
fn refill_is_bit_exact_at_extreme_rates() {
    use bsc_accel::des::DiurnalSegment;
    let processes = [
        ("poisson-saturating", ArrivalProcess::Poisson { mean_interarrival_cycles: 1 }),
        ("poisson-sparse", ArrivalProcess::Poisson { mean_interarrival_cycles: 1 << 40 }),
        (
            "bursty-saturating",
            ArrivalProcess::Bursty {
                on_cycles: 1,
                off_cycles: 1 << 30,
                mean_interarrival_cycles: 1,
            },
        ),
        (
            "bursty-sparse",
            ArrivalProcess::Bursty {
                on_cycles: 1 << 40,
                off_cycles: 1,
                mean_interarrival_cycles: 1 << 36,
            },
        ),
        (
            "diurnal-extreme-swing",
            ArrivalProcess::Diurnal {
                segments: vec![
                    DiurnalSegment { duration_cycles: 3, mean_interarrival_cycles: 1 },
                    DiurnalSegment {
                        duration_cycles: 1 << 40,
                        mean_interarrival_cycles: 1 << 38,
                    },
                ],
            },
        ),
    ];
    for (name, process) in processes {
        for seed in [1u64, 0xDEAD_BEEF] {
            let mut reference = ArrivalGen::new(process.clone(), seed);
            let golden: Vec<u64> = (0..200).map(|_| reference.next_arrival()).collect();
            assert!(
                golden.windows(2).all(|w| w[0] < w[1]),
                "{name} seed {seed}: clamp contract broken (non-increasing times)"
            );
            let mut batched = ArrivalGen::new(process.clone(), seed);
            let mut buf = std::collections::VecDeque::new();
            // Batch sizes chosen to cross the engine's refill size (64)
            // and to exercise odd tails.
            for n in [1usize, 7, 64, 128] {
                batched.refill(n, &mut buf);
            }
            let got: Vec<u64> = buf.into_iter().collect();
            assert_eq!(got, golden, "{name} seed {seed}: refill diverged from per-draw");
        }
    }
}

// ---------------------------------------------------------------------
// Online simulator: the full export surface is byte-identical at 1, 2
// and 8 workers for the same manifest.
// ---------------------------------------------------------------------

const ONLINE_MANIFEST: &str = r#"{
  "cluster": {
    "policy": "tenant-fair",
    "seed": 1234,
    "horizon_cycles": 400000,
    "max_outstanding": 6,
    "max_backlog_cycles": 100000,
    "shards": [
      {"name": "big", "kind": "bsc", "quick": true},
      {"name": "mid", "kind": "hps", "quick": true, "mem": "edge",
       "bandwidth_bytes_per_cycle": 64},
      {"name": "small", "kind": "lpc", "quick": true, "mem": "edge"}
    ]
  },
  "tenants": {"gold": {"latency_p99_cycles": 150000, "min_goodput": 0.3}},
  "sources": [
    {"name": "g", "network": "micro", "tenant": "gold", "deadline_cycles": 150000,
     "arrivals": {"process": "poisson", "mean_interarrival_cycles": 500}},
    {"name": "b", "network": "micro", "tenant": "bronze",
     "arrivals": {"process": "bursty", "on_cycles": 20000, "off_cycles": 60000,
                  "mean_interarrival_cycles": 250}}
  ]
}"#;

#[test]
fn online_exports_are_byte_identical_at_1_2_and_8_workers() {
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|w| bsc_bench::online::online(ONLINE_MANIFEST, Some(w)).expect("online run"))
        .collect();
    assert!(runs[0].report.submitted > 500, "manifest must drive real load");
    assert!(runs[0].report.completed > 0);
    let baseline = (
        bsc_bench::online::report_json(&runs[0]),
        bsc_bench::online::slo_json(&runs[0]),
        bsc_bench::online::events_jsonl(&runs[0]),
        bsc_bench::online::perfetto_json(&runs[0]),
    );
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(baseline.0, bsc_bench::online::report_json(run), "report @ workers[{i}]");
        assert_eq!(baseline.1, bsc_bench::online::slo_json(run), "slo @ workers[{i}]");
        assert_eq!(baseline.2, bsc_bench::online::events_jsonl(run), "events @ workers[{i}]");
        assert_eq!(baseline.3, bsc_bench::online::perfetto_json(run), "trace @ workers[{i}]");
    }
}

// ---------------------------------------------------------------------
// Batch mode through the DES must equal the old serial virtual clock:
// jobs run back-to-back in submission order, queue waits are the
// previous completion, and deadline sheds leave the clock untouched.
// ---------------------------------------------------------------------

/// What the serial reference predicts for one job.
#[derive(Debug, PartialEq)]
enum Ref {
    Completed { completion: u64 },
    Rejected,
    Shed,
}

#[test]
fn batch_engine_equals_a_serial_virtual_clock_reference() {
    let nets: [SharedNetwork; 2] =
        [models::micro().into_shared(), models::lenet5().into_shared()];
    let policies = [
        PrecisionPolicy::AsTrained,
        PrecisionPolicy::Uniform(Precision::Int8),
        PrecisionPolicy::Uniform(Precision::Int2),
    ];
    let mut engine = Engine::new(EngineConfig::quick(MacKind::Bsc)).expect("engine");

    // Deterministic pseudo-random job mix (golden-ratio hash).  Every
    // third job carries a deadline cycling through "rejected at
    // admission" (below the estimate-based projection), "admitted on
    // the optimistic estimate, shed on the exact schedule" and
    // "comfortably met" — so the reference below exercises all three
    // terminal outcomes against the same serial-clock semantics.
    let mut jobs = Vec::new();
    let mut expected = Vec::new();
    let mut clock = 0u64; // serial virtual clock over completed jobs
    let mut backlog_est = 0u64; // admission-time estimate backlog
    for i in 0..24u64 {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let net = &nets[(h % 2) as usize];
        let policy = policies[(h % 3) as usize];
        let name = format!("job{i}");
        let applied = policy.apply(net);
        let est = engine.estimate_cycles(&applied);
        let exact = engine.schedule_cycles(&applied).expect("reference schedule");
        let deadline = match i % 9 {
            0 => Some((backlog_est + est).saturating_sub(1)), // infeasible at admission
            3 => Some(backlog_est + est),                     // passes estimate, exact decides
            6 => Some(clock + exact * 2),                     // generous
            _ => None,
        };
        // Serial reference, replicating the engine's two-stage ladder:
        // estimate-based admission, then the exact clock at plan time.
        if let Some(d) = deadline {
            if backlog_est + est > d {
                expected.push((name.clone(), Ref::Rejected));
                jobs.push(
                    InferenceJob::new(&name, net.clone()).with_policy(policy).with_deadline(d),
                );
                continue;
            }
        }
        backlog_est += est;
        let completion = clock + exact;
        if deadline.is_some_and(|d| completion > d) {
            expected.push((name.clone(), Ref::Shed));
        } else {
            expected.push((name.clone(), Ref::Completed { completion }));
            clock = completion;
        }
        let mut job = InferenceJob::new(&name, net.clone()).with_policy(policy);
        if let Some(d) = deadline {
            job = job.with_deadline(d);
        }
        jobs.push(job);
    }
    let outcomes: Vec<&str> = expected
        .iter()
        .map(|(_, r)| match r {
            Ref::Completed { .. } => "completed",
            Ref::Rejected => "rejected",
            Ref::Shed => "shed",
        })
        .collect();
    for want in ["completed", "rejected", "shed"] {
        assert!(outcomes.contains(&want), "job mix must produce a {want} outcome: {outcomes:?}");
    }

    let batch = engine.run_jobs(jobs).expect("batch run");
    assert_eq!(batch.outcomes().len(), expected.len());
    for (outcome, (name, want)) in batch.outcomes().iter().zip(&expected) {
        assert_eq!(outcome.name(), name);
        match (outcome, want) {
            (JobOutcome::Completed(r), Ref::Completed { completion }) => {
                assert_eq!(
                    r.completion_cycle, *completion,
                    "{name}: DES batch clock drifted from the serial reference"
                );
                assert_eq!(
                    r.queue_wait_cycles,
                    completion - r.cycles(),
                    "{name}: queue wait must be the serial start cycle"
                );
            }
            (JobOutcome::Rejected { .. }, Ref::Rejected) => {}
            (JobOutcome::Shed { .. }, Ref::Shed) => {}
            (got, want) => panic!("{name}: outcome mismatch (want {want:?}, got {got:?})"),
        }
    }
    assert_eq!(batch.makespan_cycles(), clock, "makespan is the serial clock's final value");
}

// ---------------------------------------------------------------------
// Runs of refusals: once the decision log is full, an arrival that
// would change no shard is decided against the unchanged shards and
// consumed in one heap step, without the full step.  A log that never
// fills keeps every decision a full step, so the same manifest with an
// unbounded log is the reference: every report field but the log (the
// queue-wait histogram included) and every logical profile counter must
// agree.
// ---------------------------------------------------------------------

/// Two mean-1 Poisson sources: the `max(1)` clamp fires on most draws,
/// so both arrive on almost every cycle and completions land on arrival
/// cycles.  The limits make every stop on the ladder happen: `queue_full`
/// and a shed on the quick shards, `overloaded` and
/// `deadline_infeasible` on the shard behind the edge memory.
fn dense_tie_manifest(policy: &str, max_jobs: u64, event_log_cap: u64) -> String {
    format!(
        r#"{{
  "cluster": {{"policy": "{policy}", "seed": 77, "horizon_cycles": 20000, "max_jobs": {max_jobs},
              "max_outstanding": 8, "max_backlog_cycles": 3000, "event_log_cap": {event_log_cap},
              "shards": [
                {{"name": "bsc", "kind": "bsc", "quick": true}},
                {{"name": "lpc", "kind": "lpc", "quick": true, "mem": "edge"}},
                {{"name": "hps", "kind": "hps", "quick": true}}]}},
  "sources": [
    {{"name": "x", "network": "micro", "tenant": "gold", "deadline_cycles": 2500,
     "arrivals": {{"process": "poisson", "mean_interarrival_cycles": 1}}}},
    {{"name": "y", "network": "micro", "tenant": "bronze",
     "arrivals": {{"process": "poisson", "mean_interarrival_cycles": 1}}}}]
}}"#
    )
}

/// One profiled run: the report and its profile counters as
/// `phase.counter`.
fn profiled_run(manifest: &str) -> (bsc_accel::OnlineReport, Vec<(String, u64)>) {
    let profiler = bsc_telemetry::Profiler::new();
    let run =
        bsc_bench::online::online_profiled(manifest, None, Some(&profiler)).expect("online run");
    let counters = profiler
        .snapshot()
        .phases
        .into_iter()
        .flat_map(|p| {
            let calls = (format!("{}.calls", p.name), p.calls);
            let named = p.counters.into_iter().map(move |(c, v)| (format!("{}.{c}", p.name), v));
            std::iter::once(calls).chain(named).collect::<Vec<_>>()
        })
        .collect();
    (run.report, counters)
}

/// Runs `policy` on the dense-tie manifest with the log full from the
/// start, and with a log that never fills, requires the two to agree,
/// and returns the runs' report and `(runs, run_arrivals)`.
fn runs_match_full_steps(policy: &str, max_jobs: u64) -> (bsc_accel::OnlineReport, u64, u64) {
    let label = format!("{policy}, max_jobs {max_jobs}");
    let (report, counters) = profiled_run(&dense_tie_manifest(policy, max_jobs, 0));
    let (full, full_counters) = profiled_run(&dense_tie_manifest(policy, max_jobs, 1 << 30));
    assert_eq!(full.events_truncated, 0, "{label}: the reference logs every decision");
    assert_eq!((report.events.len(), report.events_truncated), (0, report.submitted), "{label}");
    let unlogged = |r: &bsc_accel::OnlineReport| bsc_accel::OnlineReport {
        events: Vec::new(),
        events_truncated: 0,
        ..r.clone()
    };
    assert_eq!(unlogged(&report), unlogged(&full), "{label}: report");
    // Guard entries, the run counts and the log counts differ by design.
    let differ = [
        "dispatch.calls",
        "admission.calls",
        "admission.runs",
        "admission.run_arrivals",
        "admission.log_appends",
        "admission.log_dropped",
    ];
    let logical = |c: &[(String, u64)]| {
        c.iter().filter(|(n, _)| !differ.contains(&n.as_str())).cloned().collect::<Vec<_>>()
    };
    assert_eq!(logical(&counters), logical(&full_counters), "{label}: logical counters");
    let get =
        |c: &[(String, u64)], name: &str| c.iter().find(|(n, _)| n == name).map_or(0, |x| x.1);
    assert_eq!(
        get(&full_counters, "admission.run_arrivals"),
        0,
        "{label}: no run before the log fills"
    );
    let (runs, run_arrivals) =
        (get(&counters, "admission.runs"), get(&counters, "admission.run_arrivals"));
    assert_eq!(get(&counters, "dispatch.calls") + run_arrivals, report.submitted, "{label}");
    assert_eq!(get(&counters, "admission.calls") + run_arrivals, report.submitted, "{label}");
    (report, runs, run_arrivals)
}

#[test]
fn runs_through_same_cycle_ties_match_full_steps_under_every_policy() {
    for policy in ["round-robin", "least-outstanding", "tenant-fair"] {
        let (report, runs, run_arrivals) = runs_match_full_steps(policy, 1 << 40);
        assert!(report.submitted > 30_000, "{policy}: {} arrivals", report.submitted);
        assert!(
            run_arrivals * 10 > report.submitted * 9,
            "{policy}: {run_arrivals} in {runs} runs"
        );
        let stops = report.funnel.iter().fold([0u64; 4], |mut acc, f| {
            for (a, n) in acc.iter_mut().zip([
                f.queue_full,
                f.overloaded,
                f.deadline_infeasible,
                f.shed_deadline,
            ]) {
                *a += n;
            }
            acc
        });
        assert!(
            stops.iter().all(|&n| n > 0),
            "{policy}: every stop on the ladder occurs: {stops:?}"
        );
    }
}

#[test]
fn a_budget_that_runs_out_inside_a_run_matches_full_steps() {
    for policy in ["round-robin", "least-outstanding", "tenant-fair"] {
        for max_jobs in [1_001, 2_502, 7_777] {
            let (report, _, run_arrivals) = runs_match_full_steps(policy, max_jobs);
            assert_eq!(report.submitted, max_jobs, "{policy}: the budget ran out");
            assert!(run_arrivals > 0);
        }
    }
}

#[test]
fn a_small_log_keeps_the_full_steps_first_decisions() {
    let (capped, _) = profiled_run(&dense_tie_manifest("tenant-fair", 1 << 40, 37));
    let (full, _) = profiled_run(&dense_tie_manifest("tenant-fair", 1 << 40, 1 << 30));
    assert_eq!(capped.events[..], full.events[..37]);
    assert_eq!(capped.events_truncated, full.submitted - 37);
}
