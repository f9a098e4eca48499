//! Netlist-evaluator throughput benchmark: full-sweep vs event-driven
//! incremental evaluation on a weight-stationary workload.
//!
//! This is the perf baseline the compiled-tape rewrite is tracked by:
//! [`run`] drives the same weight-stationary stimulus through
//! [`bsc_netlist::Simulator::eval`] (full tape sweep every pass) and
//! [`bsc_netlist::Simulator::eval_incremental`] (dirty-cone worklist),
//! cross-checks that both paths settle to identical net values, and
//! reports gate evaluations per second for each.  `scripts/ci.sh` emits
//! the result as `BENCH_sim.json` so the trajectory is visible PR over PR.

use std::time::Instant;

use bsc_mac::{build_netlist, MacKind, MacNetlist, OperandSide, Precision};
use bsc_netlist::rng::Rng64;
use bsc_netlist::{Simulator, SIM_LANES};
use bsc_telemetry::JsonBuilder;

/// Throughput comparison of the two evaluation paths on one design.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Design identifier (`kind` and vector length).
    pub design: String,
    /// Live combinational ops on the compiled tape.
    pub tape_ops: usize,
    /// Weight-stationary stimulus cycles timed (two eval passes each).
    pub cycles: usize,
    /// Wall-clock nanoseconds of the full-sweep run.
    pub full_ns: u64,
    /// Wall-clock nanoseconds of the incremental run (same stimulus).
    pub incremental_ns: u64,
    /// Tape ops processed per second on the full-sweep path.
    pub full_gates_per_sec: f64,
    /// Equivalent tape-op throughput of the incremental path (same
    /// logical work completed in `incremental_ns`).
    pub incremental_gates_per_sec: f64,
    /// `full_ns / incremental_ns`.
    pub speedup: f64,
}

/// Pre-generates one packed 64-lane word set per (cycle, bus) so stimulus
/// generation stays outside the timed region.
fn pregen_stimulus(
    mac: &MacNetlist,
    p: Precision,
    cycles: usize,
    seed: u64,
) -> Vec<Vec<[i64; SIM_LANES]>> {
    let mut rng = Rng64::seed_from_u64(seed);
    let fields = mac.kind().fields_per_element(p);
    let mut f = vec![0i64; fields];
    (0..cycles)
        .map(|_| {
            mac.acts()
                .iter()
                .map(|_| {
                    let mut lanes = [0i64; SIM_LANES];
                    for lane in lanes.iter_mut() {
                        bsc_netlist::tb::random_signed_fill(&mut rng, p.bits(), &mut f);
                        *lane = bsc_mac::pack_element(
                            mac.kind(),
                            p,
                            OperandSide::Activation,
                            &f,
                        );
                    }
                    lanes
                })
                .collect()
        })
        .collect()
}

/// One weight-stationary stimulus pass over pre-generated activation
/// words; `incremental` picks the evaluation path.  Returns elapsed
/// nanoseconds of the eval work alone and the final packed net values
/// (for cross-path equality checking).
fn drive(
    mac: &MacNetlist,
    p: Precision,
    stimulus: &[Vec<[i64; SIM_LANES]>],
    seed: u64,
    incremental: bool,
) -> (u64, Vec<u64>) {
    let mut sim = Simulator::new(mac.netlist()).expect("acyclic by construction");
    let mut rng = Rng64::seed_from_u64(seed ^ 0x3E16_47D0);
    mac.set_mode(&mut sim, p);
    let fields = mac.kind().fields_per_element(p);
    let mut f = vec![0i64; fields];
    // Weights once, then settle — everything past here is the steady
    // weight-stationary state the incremental path exploits.
    for bus in mac.weights() {
        let mut lanes = [0i64; SIM_LANES];
        for lane in lanes.iter_mut() {
            bsc_netlist::tb::random_signed_fill(&mut rng, p.bits(), &mut f);
            *lane = bsc_mac::pack_element(mac.kind(), p, OperandSide::Weight, &f);
        }
        sim.write_bus_packed(bus, &lanes);
    }
    sim.step();
    sim.eval();

    let start = Instant::now();
    for cycle in stimulus {
        for (bus, lanes) in mac.acts().iter().zip(cycle) {
            sim.write_bus_packed(bus, lanes);
        }
        if incremental {
            sim.step_incremental();
            sim.eval_incremental();
        } else {
            sim.step();
            sim.eval();
        }
    }
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns, sim.values().to_vec())
}

/// Runs the evaluator benchmark on one design.
///
/// Both paths see byte-identical stimulus; the function asserts they
/// settle to identical net values before reporting throughput.
///
/// # Panics
///
/// Panics if the incremental path diverges from the full sweep — that is
/// a simulator bug, not a benchmark condition.
pub fn run(kind: MacKind, length: usize, cycles: usize) -> SimBenchReport {
    let mac = build_netlist(kind, length);
    let p = Precision::Int8;
    let seed = 0x51B3_ECB5;
    let stimulus = pregen_stimulus(&mac, p, cycles, seed);
    let (full_ns, full_vals) = drive(&mac, p, &stimulus, seed, false);
    let (incremental_ns, inc_vals) = drive(&mac, p, &stimulus, seed, true);
    assert_eq!(
        full_vals, inc_vals,
        "incremental evaluation diverged from the full sweep"
    );

    let sim = Simulator::new(mac.netlist()).expect("acyclic by construction");
    let tape_ops = sim.tape_len();
    // Two evaluation passes per cycle (pre-edge and post-edge).
    let logical_ops = (tape_ops * cycles * 2) as f64;
    let per_sec = |ns: u64| {
        if ns == 0 {
            f64::INFINITY
        } else {
            logical_ops / (ns as f64 / 1e9)
        }
    };
    SimBenchReport {
        design: format!("{kind}-L{length}"),
        tape_ops,
        cycles,
        full_ns,
        incremental_ns,
        full_gates_per_sec: per_sec(full_ns),
        incremental_gates_per_sec: per_sec(incremental_ns),
        speedup: if incremental_ns == 0 {
            f64::INFINITY
        } else {
            full_ns as f64 / incremental_ns as f64
        },
    }
}

/// Renders the human-readable summary `repro simbench` prints.
pub fn render(reports: &[SimBenchReport]) -> String {
    use crate::timing::fmt_ns;
    let mut out = String::new();
    out.push_str("Netlist evaluator throughput — full sweep vs incremental (weight-stationary)\n");
    out.push_str(&format!(
        "{:<12} {:>9} {:>8} {:>14} {:>14} {:>12} {:>12} {:>9}\n",
        "design", "tape ops", "cycles", "full", "incremental", "full Mg/s", "incr Mg/s", "speedup"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<12} {:>9} {:>8} {:>14} {:>14} {:>12.1} {:>12.1} {:>8.2}x\n",
            r.design,
            r.tape_ops,
            r.cycles,
            fmt_ns(r.full_ns as f64),
            fmt_ns(r.incremental_ns as f64),
            r.full_gates_per_sec / 1e6,
            r.incremental_gates_per_sec / 1e6,
            r.speedup,
        ));
    }
    out
}

/// Encodes the reports (plus an optional characterization wall-clock) as
/// the `BENCH_sim.json` baseline document.
pub fn to_json(reports: &[SimBenchReport], workbench_quick_ns: Option<u64>) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("benchmark").string("netlist_evaluator");
    j.key("unit").string("gates_per_sec");
    if let Some(ns) = workbench_quick_ns {
        j.key("workbench_quick_characterize_ns").u64(ns);
    }
    j.key("designs").begin_array();
    for r in reports {
        j.begin_object();
        j.key("design").string(&r.design);
        j.key("tape_ops").u64(r.tape_ops as u64);
        j.key("cycles").u64(r.cycles as u64);
        j.key("full_ns").u64(r.full_ns);
        j.key("incremental_ns").u64(r.incremental_ns);
        j.key("full_gates_per_sec").f64(r.full_gates_per_sec);
        j.key("incremental_gates_per_sec").f64(r.incremental_gates_per_sec);
        j.key("speedup").f64(r.speedup);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    let mut s = j.finish();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_and_report_is_sane() {
        let r = run(MacKind::Bsc, 2, 8);
        assert!(r.tape_ops > 0);
        assert_eq!(r.cycles, 8);
        assert!(r.full_gates_per_sec > 0.0);
        assert!(r.incremental_gates_per_sec > 0.0);
        assert!(r.speedup > 0.0);
    }

    #[test]
    fn json_document_is_well_formed() {
        let r = run(MacKind::Hps, 2, 4);
        let json = to_json(&[r], Some(123));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"workbench_quick_characterize_ns\":123"));
        assert!(json.contains("\"design\":\"HPS-L2\""));
        assert!(json.contains("\"speedup\":"));
    }
}
