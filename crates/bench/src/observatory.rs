//! The `repro trace` run observatory: an instrumented multi-layer run of
//! the tile compiler on the cycle-accurate array, reconstructed into a
//! [`Timeline`] and exported as Perfetto/Chrome trace JSON and a
//! self-contained SVG utilization heatmap.
//!
//! The same three-layer probe network as `repro telemetry` is used
//! (Int8 conv, Int4 conv, Int2 fully-connected on a 4-PE L=8 array), but
//! here the whole run shares ONE telemetry hub with a large trace ring,
//! so the timeline covers every pass of every layer and the hierarchical
//! spans (`observatory.run` → `layer.<name>` → `compiler.execute` →
//! `array.matmul`) land in the export's wall-clock track.

use bsc_accel::compiler::{compile_conv, execute};
use bsc_mac::MacKind;
use bsc_netlist::rng::Rng64;
use bsc_nn::ops::ConvWeights;
use bsc_nn::Tensor;
use bsc_systolic::{ArrayConfig, SystolicArray};
use bsc_telemetry::timeline::IMPLICIT_LAYER;
use bsc_telemetry::{
    build_timeline, perfetto_json, utilization_svg, SpanSnapshot, Telemetry, Timeline,
    TraceSnapshot,
};

use crate::telemetry_probe::layer_shapes;

/// Everything one observatory run produced.
#[derive(Debug)]
pub struct ObservatoryRun {
    /// MAC architecture traced.
    pub kind: MacKind,
    /// PEs in the array.
    pub pes: usize,
    /// Reconstructed cycle-domain timeline.
    pub timeline: Timeline,
    /// Wall-clock span tree of the run.
    pub spans: SpanSnapshot,
    /// Raw trace snapshot the timeline was built from.
    pub trace: TraceSnapshot,
    /// Layer names in execution order (indexed by `TileStart::layer`).
    pub layer_names: Vec<String>,
    /// Events lost to the ring bound (0 with the default capacity).
    pub dropped: u64,
}

/// Default ring capacity for [`observe`] — large enough to hold the full
/// three-layer probe run with no drops.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// Runs the instrumented probe network and reconstructs its timeline.
///
/// # Errors
///
/// Propagates compile/execute errors from the accelerator stack.
pub fn observe(
    kind: MacKind,
    trace_capacity: usize,
) -> Result<ObservatoryRun, Box<dyn std::error::Error>> {
    let config = ArrayConfig { pes: 4, vector_length: 8, kind };
    let hub = Telemetry::new(trace_capacity);
    let mut array = SystolicArray::new(config);
    array.set_telemetry(hub.clone());

    let mut layer_names = Vec::new();
    {
        let run_span = hub.spans.begin("observatory.run");
        run_span.annotate("kind", kind);
        run_span.annotate("pes", config.pes);
        for (i, (name, p, shape)) in layer_shapes().into_iter().enumerate() {
            let layer_span = hub.spans.begin(&format!("layer.{name}"));
            layer_span.annotate("index", i);
            layer_span.annotate("precision", p);
            let mut rng = Rng64::seed_from_u64(0xBE7A ^ i as u64);
            let r = p.value_range();
            let input = Tensor::random(
                shape.in_channels,
                shape.in_h,
                shape.in_w,
                r.clone(),
                7 + i as u64,
            );
            let weights = ConvWeights {
                out_c: shape.out_channels,
                in_c: shape.in_channels,
                kh: shape.kernel_h,
                kw: shape.kernel_w,
                data: (0..shape.weight_count() as usize)
                    .map(|_| rng.gen_range(r.clone()))
                    .collect(),
            };
            let program = compile_conv(&config, p, &shape)?.with_layer(i as u32);
            let (_, stats) = execute(&program, &array, &input, &weights)?;
            layer_span.annotate("passes", stats.passes);
            layer_span.annotate("cycles", stats.cycles);
            layer_names.push(name.to_string());
        }
    }

    let dropped = hub.publish_trace_stats();
    let trace = hub.trace.snapshot();
    let timeline = build_timeline(&trace);
    Ok(ObservatoryRun {
        kind,
        pes: config.pes,
        timeline,
        spans: hub.spans.snapshot(),
        trace,
        layer_names,
        dropped,
    })
}

/// The Chrome trace-event JSON of a run (the `--perfetto-out` payload).
pub fn run_perfetto_json(run: &ObservatoryRun) -> String {
    perfetto_json(&run.timeline, Some(&run.spans))
}

/// The SVG utilization heatmap of a run (the `--svg-out` payload).
pub fn run_svg(run: &ObservatoryRun) -> String {
    utilization_svg(&run.timeline)
}

/// Renders the terminal summary of a run.
pub fn render_observatory(run: &ObservatoryRun) -> String {
    let tl = &run.timeline;
    let mut out = String::new();
    out.push_str(&format!(
        "Run observatory — {} array, {} PEs ({} events, {} global cycles)\n",
        run.kind,
        run.pes,
        tl.events,
        tl.total_cycles
    ));
    if run.dropped > 0 {
        out.push_str(&format!(
            "WARNING: {} trace events dropped (ring full) — timeline is truncated;\n         \
             rerun with a larger --trace-cap for full coverage\n",
            run.dropped
        ));
    }

    out.push_str("\nlayers (cycle domain, rebased to a global clock):\n");
    out.push_str("  layer          start      end   passes\n");
    for layer in &tl.layers {
        let name = if layer.layer == IMPLICIT_LAYER {
            "untracked".to_string()
        } else {
            run.layer_names
                .get(layer.layer as usize)
                .cloned()
                .unwrap_or_else(|| format!("layer{}", layer.layer))
        };
        out.push_str(&format!(
            "  {:<12} {:>7} {:>8} {:>8}\n",
            name, layer.start, layer.end, layer.passes
        ));
    }

    out.push_str("\nper-PE occupancy:\n");
    out.push_str("  pe    busy   stall   loads   busy%\n");
    for pe in &tl.pes {
        let busy = pe.busy_cycles();
        let denom = tl.total_cycles.max(1);
        out.push_str(&format!(
            "  {:<4} {:>6} {:>7} {:>7} {:>6.1}%\n",
            format!("{:02}", pe.pe),
            busy,
            pe.stall_cycles(),
            pe.weight_loads.len(),
            busy as f64 / denom as f64 * 100.0,
        ));
    }

    out.push_str(&format!(
        "\nwall-clock spans: {} recorded (max depth {})\n",
        run.spans.spans.len(),
        run.spans
            .spans
            .iter()
            .map(|s| run.spans.depth(s.id))
            .max()
            .unwrap_or(0)
    ));
    for s in run.spans.spans.iter().take(12) {
        out.push_str(&format!(
            "  {:indent$}{} ({:.3} ms)\n",
            "",
            s.name,
            s.duration_ns() as f64 / 1e6,
            indent = 2 * run.spans.depth(s.id),
        ));
    }
    if run.spans.spans.len() > 12 {
        out.push_str(&format!("  ... {} more\n", run.spans.spans.len() - 12));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_telemetry::json::{parse_json, JsonValue};

    #[test]
    fn observatory_covers_all_layers_without_drops() {
        let run = observe(MacKind::Bsc, DEFAULT_TRACE_CAPACITY).unwrap();
        assert_eq!(run.dropped, 0);
        assert_eq!(run.layer_names, vec!["conv8", "conv4", "fc2"]);
        // All three explicit layers appear; no implicit segments since
        // nothing was dropped and every pass has its TileStart.
        let layers: Vec<u32> = run.timeline.layers.iter().map(|l| l.layer).collect();
        assert_eq!(layers, vec![0, 1, 2]);
        assert_eq!(run.timeline.pes.len(), 4);
        // Spans nest: run → layer.* → compiler.execute → array.matmul.
        assert!(run.spans.by_name("observatory.run").is_some());
        assert!(run.spans.by_name("layer.conv8").is_some());
        assert!(run.spans.by_name("compiler.execute").is_some());
        assert!(run.spans.by_name("array.matmul").is_some());
        let mm = run.spans.by_name("array.matmul").unwrap();
        assert_eq!(run.spans.depth(mm.id), 3);
        // Cycle events carry span correlation IDs.
        assert!(run.trace.event_spans.iter().any(|&s| s != bsc_telemetry::NO_SPAN));
    }

    #[test]
    fn perfetto_export_has_a_track_per_pe_and_layer_slices() {
        let run = observe(MacKind::Bsc, DEFAULT_TRACE_CAPACITY).unwrap();
        let doc = parse_json(&run_perfetto_json(&run)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for pe in 0..run.pes {
            assert!(names.contains(&format!("PE {pe:02}").as_str()), "{names:?}");
        }
        let slices: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        for layer in 0..3 {
            assert!(slices.contains(&format!("layer {layer}").as_str()), "{slices:?}");
        }
        assert!(slices.iter().any(|n| n.starts_with("L0 pass ")));
    }

    #[test]
    fn svg_export_is_produced() {
        let run = observe(MacKind::Bsc, DEFAULT_TRACE_CAPACITY).unwrap();
        let svg = run_svg(&run);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("PE00"));
        let text = render_observatory(&run);
        assert!(text.contains("per-PE occupancy"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn tiny_ring_reports_truncation() {
        let run = observe(MacKind::Bsc, 32).unwrap();
        assert!(run.dropped > 0);
        assert!(render_observatory(&run).contains("WARNING"));
    }
}
