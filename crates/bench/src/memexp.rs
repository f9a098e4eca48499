//! `repro mem`: memory-hierarchy sweep over buffer size, DRAM bandwidth
//! and precision for all three MAC architectures.
//!
//! Every point runs [`schedule_conv_with_memory`] — the tiled,
//! double-buffered DMA schedule — on a Table-I-style layer set and
//! records total/stall cycles, DMA traffic and the roofline
//! classification.  The sweep is purely analytic (no gate-level
//! characterization), so it is deterministic and cheap enough to gate in
//! CI: `scripts/ci.sh` regenerates `BENCH_mem_baseline.json` and diffs it
//! at zero tolerance, then asserts the sweep still contains both
//! bandwidth-bound and compute-bound layers.

use bsc_mac::{MacKind, Precision};
use bsc_systolic::mapping::ConvShape;
use bsc_systolic::{schedule_conv_with_memory, ArrayConfig, DramBandwidth, MemConfig, SystolicError};
use bsc_telemetry::JsonBuilder;

/// Buffer-size scales swept: multiples of the edge-class
/// [`MemConfig::edge`] buffers (64/128/64 KiB).
const BUFFER_SCALES: &[(u64, &str)] = &[(1, "edge-1x"), (4, "edge-4x")];

/// DRAM bandwidths swept, bytes per cycle (`0` = infinite).
const BANDWIDTHS: &[u64] = &[4, 16, 64, 0];

/// One memory-sweep sample: a layer on one `(kind, precision, buffers,
/// bandwidth)` configuration.
#[derive(Debug, Clone)]
pub struct MemSweepPoint {
    /// MAC architecture of the array.
    pub kind: MacKind,
    /// Operand precision.
    pub precision: Precision,
    /// Layer tag (see [`sweep_layers`]).
    pub layer: &'static str,
    /// Buffer-scale tag (`edge-1x` or `edge-4x`).
    pub buffers: &'static str,
    /// DRAM bandwidth in bytes/cycle (`0` = infinite).
    pub bytes_per_cycle: u64,
    /// Compute-only schedule cycles (stall-free floor).
    pub compute_cycles: u64,
    /// Stall-inclusive cycles (compute + DMA stalls + drain).
    pub total_cycles: u64,
    /// Cycles the array waited on DMA (fill + inter-tile stalls + drain).
    pub stall_cycles: u64,
    /// DRAM traffic in bytes (loads + stores).
    pub dma_bytes: u64,
    /// `"compute-bound"` or `"bandwidth-bound"`.
    pub roofline: &'static str,
    /// Achieved fraction of the array's peak MAC throughput.
    pub peak_fraction: f64,
    /// Feature-buffer residency class the tiler picked.
    pub feature_reuse: &'static str,
}

/// The Table-I-style layer set the sweep runs: an early wide-spatial
/// layer, a mid-network layer, and a late channel-heavy layer.
pub fn sweep_layers() -> Vec<(&'static str, ConvShape)> {
    vec![
        ("early-64c-56x56", ConvShape::conv(64, 64, 56, 56, 3, 1, 1)),
        ("mid-128c-28x28", ConvShape::conv(128, 256, 28, 28, 3, 1, 1)),
        ("late-512c-7x7", ConvShape::conv(512, 512, 7, 7, 3, 1, 1)),
    ]
}

fn mem_config(scale: u64, bytes_per_cycle: u64) -> MemConfig {
    let edge = MemConfig::edge();
    let bw = if bytes_per_cycle == 0 {
        DramBandwidth::Infinite
    } else {
        DramBandwidth::BytesPerCycle(bytes_per_cycle)
    };
    MemConfig {
        weight_buffer_bytes: edge.weight_buffer_bytes * scale,
        feature_buffer_bytes: edge.feature_buffer_bytes * scale,
        output_buffer_bytes: edge.output_buffer_bytes * scale,
        bandwidth: bw,
        ..edge
    }
}

/// Runs the full sweep on the paper-faithful 32-PE × L32 array.
///
/// # Errors
///
/// Propagates mapping failures (none occur for the built-in layer set).
pub fn sweep() -> Result<Vec<MemSweepPoint>, SystolicError> {
    let layers = sweep_layers();
    let mut points = Vec::new();
    for kind in MacKind::ALL {
        let array = ArrayConfig::paper(kind);
        for p in Precision::ALL {
            for &(scale, buffers) in BUFFER_SCALES {
                for &bw in BANDWIDTHS {
                    let mem = mem_config(scale, bw);
                    for (layer, shape) in &layers {
                        let aware = schedule_conv_with_memory(&array, &mem, p, shape)?;
                        points.push(MemSweepPoint {
                            kind,
                            precision: p,
                            layer,
                            buffers,
                            bytes_per_cycle: bw,
                            compute_cycles: aware.compute.cycles,
                            total_cycles: aware.total_cycles,
                            stall_cycles: aware.stall_cycles + aware.drain_cycles,
                            dma_bytes: aware.dma_bytes(),
                            roofline: aware.roofline.tag(),
                            peak_fraction: aware.peak_fraction,
                            feature_reuse: aware.feature_reuse.tag(),
                        });
                    }
                }
            }
        }
    }
    Ok(points)
}

/// Aligned-text view: one block per `(kind, precision)`, one row per
/// `(buffers, bandwidth, layer)` with the stall share and roofline side.
pub fn render(points: &[MemSweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "memory-hierarchy sweep: {} points ({} layers x {} buffer scales x {} bandwidths x kinds x precisions)",
        points.len(),
        sweep_layers().len(),
        BUFFER_SCALES.len(),
        BANDWIDTHS.len(),
    );
    let mut header: Option<(MacKind, Precision)> = None;
    for pt in points {
        if header != Some((pt.kind, pt.precision)) {
            header = Some((pt.kind, pt.precision));
            let _ = writeln!(out, "\n{} @ int{}:", pt.kind, pt.precision.bits());
            let _ = writeln!(
                out,
                "  {:<18} {:<8} {:>6}  {:>12} {:>12} {:>7}  {:>10}  {:<15} reuse",
                "layer", "buffers", "B/cyc", "cycles", "stalls", "stall%", "DMA MiB", "roofline"
            );
        }
        let bw = if pt.bytes_per_cycle == 0 {
            "inf".to_string()
        } else {
            pt.bytes_per_cycle.to_string()
        };
        let _ = writeln!(
            out,
            "  {:<18} {:<8} {:>6}  {:>12} {:>12} {:>6.1}%  {:>10.2}  {:<15} {}",
            pt.layer,
            pt.buffers,
            bw,
            pt.total_cycles,
            pt.stall_cycles,
            100.0 * pt.stall_cycles as f64 / pt.total_cycles.max(1) as f64,
            pt.dma_bytes as f64 / (1024.0 * 1024.0),
            pt.roofline,
            pt.feature_reuse,
        );
    }
    out
}

/// CSV view of the sweep (one row per point), for plotting.
pub fn to_csv(points: &[MemSweepPoint]) -> String {
    let mut out = String::from(
        "kind,precision_bits,layer,buffers,bytes_per_cycle,compute_cycles,total_cycles,stall_cycles,dma_bytes,roofline,feature_reuse,peak_fraction\n",
    );
    for pt in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.6}\n",
            pt.kind,
            pt.precision.bits(),
            pt.layer,
            pt.buffers,
            pt.bytes_per_cycle,
            pt.compute_cycles,
            pt.total_cycles,
            pt.stall_cycles,
            pt.dma_bytes,
            pt.roofline,
            pt.feature_reuse,
            pt.peak_fraction,
        ));
    }
    out
}

/// Machine-readable sweep report for the CI baseline gate.  Every field
/// is cycle- or byte-domain and therefore deterministic; the checked-in
/// `BENCH_mem_baseline.json` is diffed at `--tol 0`.
pub fn to_json(points: &[MemSweepPoint]) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("benchmark").string("memory_hierarchy");
    j.key("unit").string("cycles");
    j.key("bandwidth_bound_points")
        .u64(points.iter().filter(|p| p.roofline == "bandwidth-bound").count() as u64);
    j.key("compute_bound_points")
        .u64(points.iter().filter(|p| p.roofline == "compute-bound").count() as u64);
    j.key("points").begin_array();
    for pt in points {
        j.begin_object();
        j.key("kind").string(&pt.kind.to_string());
        j.key("precision_bits").u64(u64::from(pt.precision.bits()));
        j.key("layer").string(pt.layer);
        j.key("buffers").string(pt.buffers);
        j.key("bytes_per_cycle").u64(pt.bytes_per_cycle);
        j.key("compute_cycles").u64(pt.compute_cycles);
        j.key("total_cycles").u64(pt.total_cycles);
        j.key("stall_cycles").u64(pt.stall_cycles);
        j.key("dma_bytes").u64(pt.dma_bytes);
        j.key("roofline").string(pt.roofline);
        j.key("feature_reuse").string(pt.feature_reuse);
        j.key("peak_fraction").f64(pt.peak_fraction);
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
    fn sweep_covers_both_roofline_sides() {
        let points = sweep().unwrap();
        let expected =
            MacKind::ALL.len() * Precision::ALL.len() * BUFFER_SCALES.len() * BANDWIDTHS.len() * 3;
        assert_eq!(points.len(), expected);
        assert!(points.iter().any(|p| p.roofline == "bandwidth-bound"));
        assert!(points.iter().any(|p| p.roofline == "compute-bound"));
        // Infinite bandwidth is always stall-free and compute-bound;
        // finite buffers may still add chunk pipeline-refill cycles on
        // top of the untiled compute floor.
        for pt in points.iter().filter(|p| p.bytes_per_cycle == 0) {
            assert_eq!(pt.stall_cycles, 0, "{pt:?}");
            assert!(pt.total_cycles >= pt.compute_cycles, "{pt:?}");
            assert_eq!(pt.roofline, "compute-bound");
        }
    }

    #[test]
    fn reports_are_deterministic_and_well_formed() {
        let a = sweep().unwrap();
        let b = sweep().unwrap();
        assert_eq!(to_json(&a), to_json(&b));
        let doc = bsc_telemetry::parse_json(&to_json(&a)).expect("valid JSON");
        assert!(
            doc.get("bandwidth_bound_points").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0
        );
        let text = render(&a);
        assert!(text.contains("bandwidth-bound"), "{text}");
        let csv = to_csv(&a);
        assert_eq!(csv.lines().count(), a.len() + 1);
    }
}
