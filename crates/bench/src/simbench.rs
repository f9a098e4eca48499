//! Netlist-evaluator throughput benchmark on a weight-stationary workload.
//!
//! [`run`] drives pre-generated weight-stationary stimulus through
//! [`bsc_netlist::Simulator::step`] and [`bsc_netlist::Simulator::eval`]
//! once per cycle, as the characterization testbench does, and times the
//! fastest of five identical passes.  The MACs' operand inputs are
//! registered, so the evaluation before each clock edge skips its sweep
//! and a pass sweeps the tape once per cycle; the report counts those
//! sweeps and the tape ops per second they ran at.  `scripts/ci.sh` emits
//! the result as `BENCH_sim.json` and diffs it against
//! `BENCH_baseline.json` at zero tolerance, so a lost skip (twice the
//! sweeps) fails CI.

use std::time::Instant;

use bsc_mac::{build_netlist, MacKind, MacNetlist, OperandSide, Precision};
use bsc_netlist::rng::Rng64;
use bsc_netlist::{Simulator, SIM_LANES};
use bsc_telemetry::JsonBuilder;

/// Timed passes per design; the report keeps the fastest.
const PASSES: usize = 5;

/// Evaluator throughput on one design.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Design identifier (`kind` and vector length).
    pub design: String,
    /// Live combinational ops on the compiled tape.
    pub tape_ops: usize,
    /// Weight-stationary stimulus cycles per pass (a step and an eval
    /// each).
    pub cycles: usize,
    /// Tape sweeps one pass ran (deterministic, equal in every pass).
    pub sweeps: u64,
    /// Wall-clock nanoseconds of the fastest pass.
    pub best_ns: u64,
    /// Tape ops swept per second in the fastest pass:
    /// `tape_ops × sweeps / best_ns`.
    pub gates_per_sec: f64,
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

/// One weight-stationary pass over pre-generated activation words: resets
/// `sim`, loads the same weights every pass and settles, then times the
/// stimulus loop.  Returns its elapsed nanoseconds and the sweeps it ran.
fn pass(
    mac: &MacNetlist,
    sim: &mut Simulator<'_>,
    p: Precision,
    stimulus: &[Vec<[i64; SIM_LANES]>],
    seed: u64,
) -> (u64, u64) {
    sim.reset();
    let mut rng = Rng64::seed_from_u64(seed ^ 0x3E16_47D0);
    mac.set_mode(sim, p);
    let fields = mac.kind().fields_per_element(p);
    let mut f = vec![0i64; fields];
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

    let sweeps = sim.sweeps();
    let start = Instant::now();
    for cycle in stimulus {
        for (bus, lanes) in mac.acts().iter().zip(cycle) {
            sim.write_bus_packed(bus, lanes);
        }
        sim.step();
        sim.eval();
    }
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns, sim.sweeps() - sweeps)
}

/// Runs the evaluator benchmark on one design: five passes over the same
/// stimulus, keeping the fastest.
///
/// # Panics
///
/// Panics if two passes over identical stimulus run different numbers of
/// sweeps — that is a simulator bug, not a benchmark condition.
pub fn run(kind: MacKind, length: usize, cycles: usize) -> SimBenchReport {
    let mac = build_netlist(kind, length);
    let p = Precision::Int8;
    let seed = 0x51B3_ECB5;
    let stimulus = pregen_stimulus(&mac, p, cycles, seed);
    let mut sim = Simulator::new(mac.netlist()).expect("acyclic by construction");
    let (mut best_ns, sweeps) = pass(&mac, &mut sim, p, &stimulus, seed);
    for _ in 1..PASSES {
        let (ns, again) = pass(&mac, &mut sim, p, &stimulus, seed);
        assert_eq!(again, sweeps, "identical passes ran different sweeps");
        best_ns = best_ns.min(ns);
    }
    let tape_ops = sim.tape_len();
    let swept = (tape_ops as u64 * sweeps) as f64;
    SimBenchReport {
        design: format!("{kind}-L{length}"),
        tape_ops,
        cycles,
        sweeps,
        best_ns,
        gates_per_sec: if best_ns == 0 {
            f64::INFINITY
        } else {
            swept / (best_ns as f64 / 1e9)
        },
    }
}

/// Renders the human-readable summary `repro simbench` prints.
pub fn render(reports: &[SimBenchReport]) -> String {
    use crate::timing::fmt_ns;
    let mut out = String::new();
    out.push_str(&format!(
        "Netlist evaluator throughput — weight-stationary step + eval, fastest of {PASSES} passes\n"
    ));
    out.push_str(&format!(
        "{:<12} {:>9} {:>8} {:>8} {:>14} {:>10}\n",
        "design", "tape ops", "cycles", "sweeps", "time", "Mg/s"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<12} {:>9} {:>8} {:>8} {:>14} {:>10.1}\n",
            r.design,
            r.tape_ops,
            r.cycles,
            r.sweeps,
            fmt_ns(r.best_ns as f64),
            r.gates_per_sec / 1e6,
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
        j.key("sweeps").u64(r.sweeps);
        j.key("best_ns").u64(r.best_ns);
        j.key("gates_per_sec").f64(r.gates_per_sec);
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
    fn report_is_sane_and_sweeps_once_per_cycle() {
        let r = run(MacKind::Bsc, 2, 8);
        assert!(r.tape_ops > 0);
        assert_eq!(r.cycles, 8);
        assert_eq!(r.sweeps, 8, "each pre-edge evaluation skips its sweep");
        assert!(r.gates_per_sec > 0.0);
    }

    #[test]
    fn json_document_is_well_formed() {
        let r = run(MacKind::Hps, 2, 4);
        let json = to_json(&[r], Some(123));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"workbench_quick_characterize_ns\":123"));
        assert!(json.contains("\"design\":\"HPS-L2\""));
        assert!(json.contains("\"sweeps\":4"));
    }
}
