//! The `repro telemetry` experiment: an instrumented end-to-end run of
//! the accelerator stack that exercises every probe layer at once —
//! dataflow counters against the closed-form model (all three precision
//! modes), per-layer / per-PE utilization through the tile compiler, and
//! gate-level switching activity through the simulator's toggle probe —
//! and serializes the lot through the `bsc-telemetry` sinks.
//!
//! Unlike the figure experiments this one needs no characterized
//! workbench: it measures cycles and toggles, not energy.

use std::collections::BTreeMap;
use std::time::Instant;

use bsc_accel::compiler::{compile_conv, execute};
use bsc_mac::{MacKind, Precision};
use bsc_netlist::rng::Rng64;
use bsc_netlist::tb::random_signed_fill;
use bsc_netlist::Simulator;
use bsc_nn::ops::ConvWeights;
use bsc_nn::Tensor;
use bsc_systolic::mapping::ConvShape;
use bsc_systolic::{ArrayConfig, Matrix, SystolicArray, WeightReuse};
use bsc_telemetry::metrics::DEFAULT_TIME_BOUNDS_NS;
use bsc_telemetry::{sink, HistogramSnapshot, JsonBuilder, Telemetry, TraceSnapshot};

/// One single-tile matmul per precision mode, cross-checking the
/// counter-derived utilization against the analytic dataflow model.
#[derive(Debug, Clone)]
pub struct PrecisionCheck {
    /// Precision mode of the run.
    pub precision: Precision,
    /// Total cycles counted.
    pub cycles: u64,
    /// PE fire events counted.
    pub pe_fired: u64,
    /// Drain-tail stall cycles counted.
    pub stall_cycles: u64,
    /// Utilization derived from the counters: `pe_fired / (cycles × PEs)`.
    pub counted_utilization: f64,
    /// Utilization the closed-form dataflow model predicts.
    pub analytic_utilization: f64,
}

impl PrecisionCheck {
    /// Absolute error between counted and analytic utilization.
    pub fn abs_error(&self) -> f64 {
        (self.counted_utilization - self.analytic_utilization).abs()
    }
}

/// Telemetry of one layer executed through the tile compiler.
#[derive(Debug, Clone)]
pub struct LayerTelemetry {
    /// Layer name.
    pub name: String,
    /// Precision mode.
    pub precision: Precision,
    /// Total cycles over all stationary passes.
    pub cycles: u64,
    /// Stationary passes executed.
    pub passes: u64,
    /// PE fire events counted.
    pub pe_fired: u64,
    /// Drain-tail stall cycles counted.
    pub stall_cycles: u64,
    /// Whole-array utilization from the counters.
    pub utilization: f64,
    /// Busy cycles of each PE.
    pub pe_busy: Vec<u64>,
    /// Per-PE utilization (busy cycles / total cycles).
    pub pe_utilization: Vec<f64>,
}

/// Switching activity of one gate kind in the probed MAC netlist.
#[derive(Debug, Clone)]
pub struct ToggleRow {
    /// Cell name (library naming, e.g. `XOR2`).
    pub gate: String,
    /// Total bit flips recorded by the simulator probe.
    pub toggles: u64,
}

/// The full telemetry experiment result.
#[derive(Debug)]
pub struct TelemetryReport {
    /// MAC architecture probed.
    pub kind: MacKind,
    /// PEs in the probe array.
    pub pes: usize,
    /// Vector length of the probe array.
    pub vector_length: usize,
    /// Counter-vs-analytic checks, one per precision mode.
    pub checks: Vec<PrecisionCheck>,
    /// Per-layer rows of the compiled three-layer probe network.
    pub layers: Vec<LayerTelemetry>,
    /// Gate-level toggle counts of the MAC netlist testbench.
    pub toggles: Vec<ToggleRow>,
    /// Simulator evaluations behind the toggle counts.
    pub toggle_evals: u64,
    /// Wall-clock nanoseconds of the whole probe run.
    pub elapsed_ns: u64,
    /// Trace snapshot of the compiled layers' cycle-events.
    pub trace: TraceSnapshot,
}

/// Tolerance for the counter-vs-analytic utilization comparison.
pub const UTILIZATION_TOLERANCE: f64 = 1e-9;

/// One layer of the three-layer probe network that `repro telemetry`
/// and `repro trace` both run: its shape and its seeded operands.
pub(crate) struct ProbeLayer {
    pub(crate) name: &'static str,
    pub(crate) precision: Precision,
    pub(crate) shape: ConvShape,
    pub(crate) input: Tensor,
    pub(crate) weights: ConvWeights,
}

/// The probe network: an Int8 conv, an Int4 conv and an Int2
/// fully-connected layer.  Layer `i`'s input is seeded with `7 + i` and
/// its weights with `0xBE7A ^ i`.
pub(crate) fn probe_network() -> Vec<ProbeLayer> {
    let shapes = [
        ("conv8", Precision::Int8, ConvShape::conv(5, 6, 6, 6, 3, 1, 1)),
        ("conv4", Precision::Int4, ConvShape::conv(8, 4, 5, 5, 3, 1, 1)),
        ("fc2", Precision::Int2, ConvShape::fully_connected(30, 7)),
    ];
    let mut layers = Vec::new();
    for (i, (name, precision, shape)) in shapes.into_iter().enumerate() {
        let r = precision.value_range();
        let input =
            Tensor::random(shape.in_channels, shape.in_h, shape.in_w, r.clone(), 7 + i as u64);
        let mut rng = Rng64::seed_from_u64(0xBE7A ^ i as u64);
        let weights = ConvWeights {
            out_c: shape.out_channels,
            in_c: shape.in_channels,
            kh: shape.kernel_h,
            kw: shape.kernel_w,
            data: (0..shape.weight_count() as usize).map(|_| rng.gen_range(r.clone())).collect(),
        };
        layers.push(ProbeLayer { name, precision, shape, input, weights });
    }
    layers
}

/// Runs the instrumented probe for one MAC architecture.
///
/// # Errors
///
/// Returns array/simulation errors, or a telemetry-divergence error when
/// counted and analytic utilization disagree beyond
/// [`UTILIZATION_TOLERANCE`] (which the array's own in-run
/// cross-validation should already have caught).
pub fn telemetry_report(kind: MacKind) -> Result<TelemetryReport, Box<dyn std::error::Error>> {
    let start = Instant::now();
    let config = ArrayConfig { pes: 4, vector_length: 8, kind };

    // --- counter-vs-analytic utilization, one run per precision mode ---
    let mut checks = Vec::new();
    let array = SystolicArray::new(config);
    for p in Precision::ALL {
        let k = config.dot_length(p);
        let f = Matrix::from_fn(6, k, |r, c| ((r + 2 * c) % 3) as i64 - 1);
        let w = Matrix::from_fn(4, k, |r, c| ((2 * r + c) % 3) as i64 - 1);
        let run = array.matmul(p, &f, &w)?;
        let analytic = array.analytic_stats(p, 6, 4, WeightReuse::WeightStationary);
        let (cycles, pe_fired) = (run.stats.cycles, run.stats.pe_busy_cycles);
        let check = PrecisionCheck {
            precision: p,
            cycles,
            pe_fired,
            stall_cycles: run.stats.stall_cycles,
            counted_utilization: pe_fired as f64 / (cycles * config.pes as u64) as f64,
            analytic_utilization: analytic.utilization,
        };
        if check.abs_error() > UTILIZATION_TOLERANCE {
            return Err(format!(
                "{p}: counted utilization {} diverges from analytic {}",
                check.counted_utilization, check.analytic_utilization
            )
            .into());
        }
        checks.push(check);
    }

    // --- per-layer / per-PE utilization through the tile compiler ---
    let hub = Telemetry::new(1 << 16);
    let mut array = SystolicArray::new(config);
    array.set_telemetry(hub.clone());
    let mut layers = Vec::new();
    for (i, layer) in probe_network().into_iter().enumerate() {
        let program = compile_conv(&config, layer.precision, &layer.shape)?.with_layer(i as u32);
        let (_, stats) = execute(&program, &array, &layer.input, &layer.weights)?;
        let pe_fired: u64 = stats.pe_busy.iter().sum();
        layers.push(LayerTelemetry {
            name: layer.name.to_string(),
            precision: layer.precision,
            cycles: stats.cycles,
            passes: stats.passes,
            pe_fired,
            stall_cycles: stats.stall_cycles,
            utilization: pe_fired as f64 / (stats.cycles * config.pes as u64) as f64,
            pe_utilization: stats.pe_busy.iter().map(|&b| b as f64 / stats.cycles as f64).collect(),
            pe_busy: stats.pe_busy,
        });
    }

    // --- gate-level switching activity through the simulator probe ---
    let mac = bsc_mac::build_netlist(kind, 4);
    let mut sim = Simulator::new(mac.netlist())?;
    // The probe settles the design internally before counting, so the
    // post-reset transitions to steady state are not reported as toggles;
    // flop Q transitions land in the probe's `DFF` bucket.
    sim.enable_toggle_probe();
    let mut rng = Rng64::seed_from_u64(0x70661E);
    for p in Precision::ALL {
        mac.set_mode(&mut sim, p);
        for _ in 0..24 {
            // Each lane draws its weights, then its activations: this
            // order fixes the stream, and with it every toggle count.
            mac.write_vector_lanes(&mut sim, p, |w, a| {
                random_signed_fill(&mut rng, p.bits(), w);
                random_signed_fill(&mut rng, p.bits(), a);
            })?;
            sim.step_incremental();
            sim.eval_incremental();
        }
    }
    let probe = sim.take_toggle_stats().expect("probe enabled");
    let toggles: Vec<ToggleRow> = probe
        .iter()
        .map(|(kind, flips)| ToggleRow { gate: kind.to_string(), toggles: flips })
        .collect();

    Ok(TelemetryReport {
        kind,
        pes: config.pes,
        vector_length: config.vector_length,
        checks,
        layers,
        toggles,
        toggle_evals: probe.evals(),
        elapsed_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        trace: hub.trace.snapshot(),
    })
}

/// Renders the utilization / stall summary table the harness prints.
pub fn render_telemetry(report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Telemetry probe — {} array, {} PEs x L={}\n",
        report.kind, report.pes, report.vector_length
    ));
    out.push_str("\ncounter vs analytic utilization (single tile, 6x4):\n");
    out.push_str("  mode   cycles  fired  stalls  counted    analytic   |err|\n");
    for c in &report.checks {
        out.push_str(&format!(
            "  {:<5} {:>7} {:>6} {:>7} {:>9.6} {:>10.6} {:>9.2e}\n",
            c.precision.to_string(),
            c.cycles,
            c.pe_fired,
            c.stall_cycles,
            c.counted_utilization,
            c.analytic_utilization,
            c.abs_error(),
        ));
    }
    out.push_str("\nper-layer utilization (tile compiler, cycle-accurate):\n");
    out.push_str("  layer  mode   passes   cycles   fired  stalls   util  per-PE util\n");
    for l in &report.layers {
        let per_pe = l
            .pe_utilization
            .iter()
            .map(|u| format!("{u:.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "  {:<6} {:<5} {:>7} {:>8} {:>7} {:>7} {:>5.1}%  [{per_pe}]\n",
            l.name,
            l.precision.to_string(),
            l.passes,
            l.cycles,
            l.pe_fired,
            l.stall_cycles,
            l.utilization * 100.0,
        ));
    }
    out.push_str(&format!(
        "\nnetlist switching activity ({} evals, vector MAC L=4):\n",
        report.toggle_evals
    ));
    for row in &report.toggles {
        out.push_str(&format!("  {:<6} {:>9} toggles\n", row.gate, row.toggles));
    }
    let dropped = report.trace.dropped;
    out.push_str(&format!(
        "\ntrace: {} events captured, {} dropped\n",
        report.trace.events.len(),
        dropped
    ));
    if dropped > 0 {
        out.push_str(&format!(
            "WARNING: {dropped} trace events were dropped (ring full) — derived \
             per-event views are incomplete\n"
        ));
    }
    out
}

/// The `metrics.counters` of the `--metrics-out` document, sorted by
/// name: each precision check's fires, each layer's cycles, fires and
/// stalls, the toggle counts and the trace ring's totals, all restated
/// from the report.
fn counters(report: &TelemetryReport) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    for c in &report.checks {
        counters.insert(format!("repro.check.{}.pe_fired", c.precision.bits()), c.pe_fired);
    }
    for l in &report.layers {
        let prefix = format!("repro.layer.{}", l.name);
        counters.insert(format!("{prefix}.cycles"), l.cycles);
        counters.insert(format!("{prefix}.pe_fired"), l.pe_fired);
        counters.insert(format!("{prefix}.stall_cycles"), l.stall_cycles);
    }
    for row in &report.toggles {
        counters.insert(format!("repro.netlist.toggles.{}", row.gate), row.toggles);
    }
    counters.insert("repro.netlist.toggle_evals".to_string(), report.toggle_evals);
    counters.insert("telemetry.trace.total".to_string(), report.trace.total);
    counters.insert("telemetry.trace.dropped".to_string(), report.trace.dropped);
    counters
}

/// Serializes the full report as a JSON document (the `--metrics-out`
/// payload): per-layer per-PE utilization, stall cycles, netlist toggle
/// counts, and a `metrics` object restating those counts by name beside
/// the probe's wall-clock `repro.telemetry_ns` histogram.
///
/// With `no_timers` set, the wall-clock histogram is left out, making
/// the document byte-identical across repeat runs (everything else the
/// probe records is deterministic).
pub fn telemetry_json(report: &TelemetryReport, no_timers: bool) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("design").string(&report.kind.to_string());
    j.key("pes").u64(report.pes as u64);
    j.key("vector_length").u64(report.vector_length as u64);

    j.key("precision_checks").begin_array();
    for c in &report.checks {
        j.begin_object();
        j.key("precision").string(&c.precision.to_string());
        j.key("cycles").u64(c.cycles);
        j.key("pe_fired").u64(c.pe_fired);
        j.key("stall_cycles").u64(c.stall_cycles);
        j.key("counted_utilization").f64(c.counted_utilization);
        j.key("analytic_utilization").f64(c.analytic_utilization);
        j.key("abs_error").f64(c.abs_error());
        j.end_object();
    }
    j.end_array();

    j.key("layers").begin_array();
    for l in &report.layers {
        j.begin_object();
        j.key("name").string(&l.name);
        j.key("precision").string(&l.precision.to_string());
        j.key("cycles").u64(l.cycles);
        j.key("passes").u64(l.passes);
        j.key("pe_fired").u64(l.pe_fired);
        j.key("stall_cycles").u64(l.stall_cycles);
        j.key("utilization").f64(l.utilization);
        j.key("pe_busy").begin_array();
        for &b in &l.pe_busy {
            j.u64(b);
        }
        j.end_array();
        j.key("pe_utilization").begin_array();
        for &u in &l.pe_utilization {
            j.f64(u);
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();

    j.key("netlist_toggles").begin_object();
    j.key("evals").u64(report.toggle_evals);
    j.key("per_gate").begin_object();
    for row in &report.toggles {
        j.key(&row.gate).u64(row.toggles);
    }
    j.end_object();
    j.end_object();

    j.key("metrics").begin_object();
    j.key("counters").begin_object();
    for (name, v) in counters(report) {
        j.key(&name).u64(v);
    }
    j.end_object();
    j.key("gauges").begin_object().end_object();
    j.key("histograms").begin_object();
    if !no_timers {
        let mut elapsed = HistogramSnapshot::new(DEFAULT_TIME_BOUNDS_NS);
        elapsed.record(report.elapsed_ns);
        j.key("repro.telemetry_ns");
        sink::write_histogram(&mut j, &elapsed);
    }
    j.end_object();
    j.end_object();
    j.end_object();
    j.finish()
}

/// Serializes the captured trace as JSON (the `--trace-out` payload).
pub fn telemetry_trace_json(report: &TelemetryReport) -> String {
    sink::trace_to_json(&report.trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_consistent_and_serializable() {
        let report = telemetry_report(MacKind::Bsc).unwrap();
        assert_eq!(report.checks.len(), 3);
        for c in &report.checks {
            assert!(c.abs_error() <= UTILIZATION_TOLERANCE, "{c:?}");
        }
        assert_eq!(report.layers.len(), 3);
        for l in &report.layers {
            assert_eq!(l.pe_busy.iter().sum::<u64>(), l.pe_fired);
            assert!(l.utilization > 0.0 && l.utilization <= 1.0);
        }
        assert!(report.toggles.iter().map(|t| t.toggles).sum::<u64>() > 0);

        let json = telemetry_json(&report, false);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pe_utilization\""));
        assert!(json.contains("\"netlist_toggles\""));
        // The dropped-event accounting is published as counters.
        assert!(json.contains("\"telemetry.trace.total\""), "{json}");
        assert!(json.contains("\"telemetry.trace.dropped\""), "{json}");
        let text = render_telemetry(&report);
        assert!(text.contains("per-layer utilization"));
    }

    #[test]
    fn no_timers_strips_wall_clock_histograms() {
        let report = telemetry_report(MacKind::Bsc).unwrap();
        let with = telemetry_json(&report, false);
        let without = telemetry_json(&report, true);
        assert!(with.contains("repro.telemetry_ns"));
        assert!(!without.contains("repro.telemetry_ns"));
    }

    #[test]
    fn toggle_counts_are_deterministic_across_runs() {
        let a = telemetry_report(MacKind::Lpc).unwrap();
        let b = telemetry_report(MacKind::Lpc).unwrap();
        let flat = |r: &TelemetryReport| {
            r.toggles.iter().map(|t| (t.gate.clone(), t.toggles)).collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
        assert_eq!(a.toggle_evals, b.toggle_evals);
    }
}
