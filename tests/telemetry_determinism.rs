//! Deterministic telemetry invariants across the whole stack: for a small
//! known matmul, every count the run returns — cycles, PE fires, stall
//! cycles, per-PE busy cycles, operand traffic — and every cycle-event
//! it traces has an exactly predictable value in every precision mode on
//! every MAC architecture, and the netlist's recorded switching activity
//! is bit-reproducible.

use bsc_mac::{MacKind, Precision};
use bsc_netlist::rng::Rng64;
use bsc_netlist::{Activity, GateKind, Simulator};
use bsc_systolic::{ArrayConfig, Matrix, SystolicArray};
use bsc_telemetry::Telemetry;

/// `m` feature rows against `n` weight rows on a 4-PE array: the
/// weight-stationary schedule fixes every dataflow statistic in closed
/// form, independent of precision, architecture and operand values.
#[test]
fn exact_counter_values_for_every_precision_and_architecture() {
    let (m, n) = (5u64, 3u64);
    for kind in MacKind::ALL {
        for p in Precision::ALL {
            let config = ArrayConfig { pes: 4, vector_length: 4, kind };
            let tel = Telemetry::new(4096);
            let array = SystolicArray::with_telemetry(config, tel.clone());
            let k = config.dot_length(p);
            let f = Matrix::from_fn(m as usize, k, |r, c| ((r + c) % 3) as i64 - 1);
            let w = Matrix::from_fn(n as usize, k, |r, c| ((r * 2 + c) % 3) as i64 - 1);
            let run = array.matmul(p, &f, &w).unwrap();

            let ctx = format!("{kind} {p}");
            // Skewed pipeline: m + n - 1 cycles, one fire per output.
            assert_eq!(run.stats.cycles, m + n - 1, "{ctx}");
            assert_eq!(run.stats.pe_busy_cycles, m * n, "{ctx}");
            // Drain tail: PE j holds only weights for n-1-j cycles.
            assert_eq!(run.stats.stall_cycles, n * (n - 1) / 2, "{ctx}");
            assert_eq!(run.stats.weight_loads, n, "{ctx}");
            assert_eq!(run.stats.feature_hops, m * n, "{ctx}");
            assert_eq!(run.stats.macs, m * n * k as u64, "{ctx}");
            // Each mapped PE computes one dot product per feature row;
            // the unmapped PE 3 never fires.
            assert_eq!(run.pe_busy, vec![m, m, m, 0], "{ctx}");

            // And the trace ring saw every event.
            let trace = tel.trace.snapshot();
            assert_eq!(trace.dropped, 0, "{ctx}");
            let count = |k: &str| trace.events.iter().filter(|e| e.kind() == k).count() as u64;
            assert_eq!(count("pe_fired"), m * n, "{ctx}");
            assert_eq!(count("vector_stall"), n * (n - 1) / 2, "{ctx}");
            assert_eq!(count("weight_load"), n, "{ctx}");
        }
    }
}

/// The same matmul run twice returns bit-identical runs: output, stats
/// and per-PE busy cycles.
#[test]
fn counters_are_reproducible_across_runs() {
    let run_once = || {
        let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int4);
        let mut rng = Rng64::seed_from_u64(0xDE7E);
        let f = Matrix::from_fn(6, k, |_, _| rng.gen_range(-8i64..8));
        let w = Matrix::from_fn(4, k, |_, _| rng.gen_range(-8i64..8));
        array.matmul(Precision::Int4, &f, &w).unwrap()
    };
    let (a, b) = (run_once(), run_once());
    assert_eq!(a.pe_busy, vec![6, 6, 6, 6]);
    assert_eq!(a, b);
}

/// The full telemetry-probe JSON report is byte-identical across runs
/// once wall-clock histograms are excluded (the `--no-timers` flag of
/// `repro --metrics-out`) — every other quantity the probe records is
/// deterministic.
#[test]
fn no_timers_report_is_byte_identical_across_runs() {
    let run_once = || {
        let report = bsc_bench::telemetry_probe::telemetry_report(MacKind::Bsc).unwrap();
        bsc_bench::telemetry_probe::telemetry_json(&report, true)
    };
    let a = run_once();
    let b = run_once();
    assert!(!a.contains("_ns\""), "timer histograms must be stripped");
    assert_eq!(a, b, "--no-timers report must be byte-identical");
}

/// Gate-level toggle counts for a fixed stimulus, recorded by an
/// `Activity` after every evaluation, are identical across repeated
/// simulations, for every MAC architecture.
#[test]
fn toggle_activity_is_deterministic_for_every_architecture() {
    for kind in MacKind::ALL {
        let record_run = || {
            let mac = bsc_mac::build_netlist(kind, 2);
            let mut sim = Simulator::new(mac.netlist()).unwrap();
            sim.eval();
            let mut act = Activity::new(&sim);
            let mut rng = Rng64::seed_from_u64(0x7066);
            for p in Precision::ALL {
                mac.set_mode(&mut sim, p);
                let bits = p.bits();
                let lanes = mac.macs_per_cycle(p);
                for _ in 0..8 {
                    let w = bsc_netlist::tb::random_signed_vec(&mut rng, bits, lanes);
                    let a = bsc_netlist::tb::random_signed_vec(&mut rng, bits, lanes);
                    mac.write_vector_lane(&mut sim, 0, p, &w, &a).unwrap();
                    sim.step();
                    act.record(&sim);
                    sim.eval();
                    act.record(&sim);
                }
            }
            (act.observed_cycles(), act.iter().collect::<Vec<_>>())
        };
        let a = record_run();
        let b = record_run();
        assert!(a.1.iter().any(|&(k, _)| k != GateKind::Input), "{kind}: no gate toggled");
        assert_eq!(a, b, "{kind}: toggle activity not deterministic");
    }
}
