//! The per-tile compute-schedule loops that the closed forms in
//! [`super`] replaced, kept only as test oracles.
//!
//! Each loop visits every (stationary tile, channel tile) pair of one
//! dataflow and adds up its passes.  The live schedulers sum the same
//! terms in a few products.  Two tests compare them field for field,
//! `utilization` bit for bit: a debug-speed grid, and a release-only
//! sweep of 10⁵ random shapes and geometries plus every VGG-16 and
//! ResNet-18 layer on the paper and quick arrays.

use bsc_mac::{MacKind, Precision};
use bsc_netlist::rng::Rng64;

use super::{schedule_conv_dataflow, ConvShape, DataflowKind, LayerSchedule};
use crate::{ArrayConfig, ArrayGeometry, SystolicError};

/// The weight-stationary schedule (the Fig. 6 mapping), one (PE tile,
/// channel tile) pair at a time.
fn schedule_conv(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<LayerSchedule, SystolicError> {
    shape.validate()?;
    let split = config.dot_length(p);
    let pes = config.pes;
    let spatial = (shape.out_w() * shape.out_h()) as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;

    let channel_tiles = shape.in_channels.div_ceil(split);
    let pe_tiles = shape.out_channels.div_ceil(pes);

    let mut cycles = 0u64;
    let mut busy = 0u64;
    let mut useful = 0u64;
    let mut gated = 0u64;
    let mut weight_vectors = 0u64;
    let mut feature_vectors = 0u64;
    for nt in 0..pe_tiles {
        let used_pes = if nt + 1 == pe_tiles {
            shape.out_channels - nt * pes
        } else {
            pes
        };
        for ct in 0..channel_tiles {
            let tile_channels = if ct + 1 == channel_tiles {
                shape.in_channels - ct * split
            } else {
                split
            };
            // One pass per kernel offset: weights stay stationary while
            // every output pixel's feature vector streams through.
            cycles += kernel * (spatial + used_pes as u64 - 1);
            busy += kernel * spatial * used_pes as u64;
            useful += kernel * spatial * used_pes as u64 * tile_channels as u64;
            gated += kernel * spatial * used_pes as u64 * (split - tile_channels) as u64;
            weight_vectors += kernel * used_pes as u64;
            feature_vectors += kernel * spatial;
        }
    }
    debug_assert_eq!(useful, shape.macs());

    let passes = kernel * channel_tiles as u64 * pe_tiles as u64;
    let pe_cycles = cycles * pes as u64;
    let peak = pe_cycles * split as u64;
    Ok(LayerSchedule {
        passes,
        cycles,
        useful_macs: useful,
        gated_lane_macs: gated,
        busy_pe_cycles: busy,
        idle_pe_cycles: pe_cycles - busy,
        utilization: if peak > 0 { useful as f64 / peak as f64 } else { 0.0 },
        weight_load_vectors: weight_vectors,
        feature_read_vectors: feature_vectors,
        // Accumulation round-trips the output buffer on every fire.
        psum_read_words: busy,
        psum_write_words: busy,
    })
}

/// The output-stationary schedule: pixels stream through the chain in
/// pixel-major order, each occupying a PE for `kernel × channel_tiles`
/// consecutive accumulation steps, so one PE tile pays a single pipeline
/// fill instead of one per (kernel offset, channel tile).
fn schedule_output_stationary(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<LayerSchedule, SystolicError> {
    shape.validate()?;
    let split = config.dot_length(p) as u64;
    let pes = config.pes;
    let spatial = (shape.out_w() * shape.out_h()) as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let in_channels = shape.in_channels as u64;
    let channel_tiles = shape.in_channels.div_ceil(config.dot_length(p)) as u64;
    let pe_tiles = shape.out_channels.div_ceil(pes) as u64;
    // Accumulation steps per output pixel: its whole reduction runs to
    // completion before the pixel leaves the PE.
    let steps = kernel * channel_tiles;

    let mut cycles = 0u64;
    let mut busy = 0u64;
    let mut useful = 0u64;
    let mut gated = 0u64;
    let mut weight_vectors = 0u64;
    let mut feature_vectors = 0u64;
    for nt in 0..pe_tiles {
        let used_pes = if nt + 1 == pe_tiles {
            shape.out_channels as u64 - nt * pes as u64
        } else {
            pes as u64
        };
        // One fill per PE tile; every pixel then streams its full
        // reduction.  Σ tile_channels over channel tiles = in_channels.
        cycles += spatial * steps + used_pes - 1;
        busy += spatial * steps * used_pes;
        useful += kernel * spatial * used_pes * in_channels;
        gated += kernel * spatial * used_pes * (channel_tiles * split - in_channels);
        // Weights cannot stay: one vector per PE per accumulation step.
        weight_vectors += spatial * steps * used_pes;
        // Features hop through the chain once per (pixel, step) per tile.
        feature_vectors += spatial * steps;
    }
    debug_assert_eq!(useful, shape.macs());

    // One stationary psum residency per (pixel, PE tile).
    let passes = spatial * pe_tiles;
    let pe_cycles = cycles * pes as u64;
    let peak = pe_cycles * split;
    Ok(LayerSchedule {
        passes,
        cycles,
        useful_macs: useful,
        gated_lane_macs: gated,
        busy_pe_cycles: busy,
        idle_pe_cycles: pe_cycles - busy,
        utilization: if peak > 0 { useful as f64 / peak as f64 } else { 0.0 },
        weight_load_vectors: weight_vectors,
        feature_read_vectors: feature_vectors,
        // Psums live in the PE accumulators: no read-modify-write, one
        // buffer write per finished output value.
        psum_read_words: 0,
        psum_write_words: spatial * shape.out_channels as u64,
    })
}

/// The input-stationary schedule: groups of `pes` output pixels pin their
/// feature vectors (one pixel per PE) while the `out_channels` weight
/// vectors of one (kernel offset, channel tile) stream through the chain.
fn schedule_input_stationary(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<LayerSchedule, SystolicError> {
    shape.validate()?;
    let split = config.dot_length(p);
    let pes = config.pes as u64;
    let spatial = (shape.out_w() * shape.out_h()) as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let out_channels = shape.out_channels as u64;
    let channel_tiles = shape.in_channels.div_ceil(split);
    let spatial_tiles = spatial.div_ceil(pes);

    let mut cycles = 0u64;
    let mut busy = 0u64;
    let mut useful = 0u64;
    let mut gated = 0u64;
    let mut weight_vectors = 0u64;
    let mut feature_vectors = 0u64;
    for st in 0..spatial_tiles {
        let used_pes = if st + 1 == spatial_tiles {
            spatial - st * pes
        } else {
            pes
        };
        for ct in 0..channel_tiles {
            let tile_channels = if ct + 1 == channel_tiles {
                shape.in_channels - ct * split
            } else {
                split
            };
            // One pass per kernel offset: the pinned pixels watch all
            // out-channel weight vectors stream past.
            cycles += kernel * (out_channels + used_pes - 1);
            busy += kernel * out_channels * used_pes;
            useful += kernel * out_channels * used_pes * tile_channels as u64;
            gated += kernel * out_channels * used_pes * (split - tile_channels) as u64;
            weight_vectors += kernel * out_channels;
            feature_vectors += kernel * used_pes;
        }
    }
    debug_assert_eq!(useful, shape.macs());

    let passes = kernel * channel_tiles as u64 * spatial_tiles;
    let pe_cycles = cycles * config.pes as u64;
    let peak = pe_cycles * split as u64;
    Ok(LayerSchedule {
        passes,
        cycles,
        useful_macs: useful,
        gated_lane_macs: gated,
        busy_pe_cycles: busy,
        idle_pe_cycles: pe_cycles - busy,
        utilization: if peak > 0 { useful as f64 / peak as f64 } else { 0.0 },
        weight_load_vectors: weight_vectors,
        feature_read_vectors: feature_vectors,
        // Accumulation across kernel offsets and channel tiles round-trips
        // the output buffer exactly as the weight-stationary flow does.
        psum_read_words: busy,
        psum_write_words: busy,
    })
}

/// The oracle loop of `dataflow`.
fn schedule_loop(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
    dataflow: DataflowKind,
) -> Result<LayerSchedule, SystolicError> {
    match dataflow {
        DataflowKind::WeightStationary => schedule_conv(config, p, shape),
        DataflowKind::OutputStationary => schedule_output_stationary(config, p, shape),
        DataflowKind::InputStationary => schedule_input_stationary(config, p, shape),
    }
}

/// Compares the live schedule of one layer with its oracle loop under
/// every MAC kind, precision and dataflow: every field, and
/// `utilization` bit for bit.
fn assert_closed_forms_equal_the_loops(geometry: ArrayGeometry, shape: &ConvShape) {
    for kind in MacKind::ALL {
        let config = ArrayConfig::with_geometry(kind, geometry);
        for p in Precision::ALL {
            for dataflow in DataflowKind::ALL {
                let closed = schedule_conv_dataflow(&config, p, shape, dataflow);
                let looped = schedule_loop(&config, p, shape, dataflow);
                let ctx = format!("{shape:?} {kind} {geometry} {p} {dataflow}");
                assert_eq!(closed, looped, "{ctx}");
                let bits = |s: Result<LayerSchedule, _>| s.map(|s| s.utilization.to_bits());
                assert_eq!(bits(closed), bits(looped), "{ctx}");
            }
        }
    }
}

/// Checks `count` seeded random shapes, each on a random geometry of 1 to
/// 40 PEs × vector length 1 to 40, with ragged channel and PE tiles.
fn check_random_shapes(seed: u64, count: usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut checked = 0;
    while checked < count {
        let shape = ConvShape {
            in_channels: 1 + (rng.next_u64() % 300) as usize,
            out_channels: 1 + (rng.next_u64() % 300) as usize,
            in_w: 1 + (rng.next_u64() % 40) as usize,
            in_h: 1 + (rng.next_u64() % 40) as usize,
            kernel_w: 1 + (rng.next_u64() % 5) as usize,
            kernel_h: 1 + (rng.next_u64() % 5) as usize,
            stride: 1 + (rng.next_u64() % 4) as usize,
            padding: (rng.next_u64() % 3) as usize,
        };
        let geometry = ArrayGeometry::new(
            1 + (rng.next_u64() % 40) as usize,
            1 + (rng.next_u64() % 40) as usize,
        );
        if shape.out_w() == 0 || shape.out_h() == 0 {
            continue; // the kernel does not fit the padded input
        }
        assert_closed_forms_equal_the_loops(geometry, &shape);
        checked += 1;
    }
}

#[test]
fn closed_forms_equal_the_loops_on_a_random_grid() {
    check_random_shapes(0xc105_ed00, 2_000);
}

/// The release-only sweep: 10⁵ random shapes and geometries, and every
/// VGG-16 and ResNet-18 layer on the paper's 32×32 and the quick 4×8
/// array, where VGG-16's FC6 alone is 3.2M loop iterations at int8.
/// `scripts/ci.sh` runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "10^5 shapes and full networks: run with --release")]
fn closed_forms_equal_the_loops_on_1e5_shapes_and_every_network_layer() {
    check_random_shapes(0x5eed_c105, 100_000);
    for net in [bsc_nn::models::vgg16(), bsc_nn::models::resnet18()] {
        for layer in &net.layers {
            let shape = match layer.kind {
                bsc_nn::LayerKind::Conv { in_c, out_c, kernel, stride, padding, in_w, in_h } => {
                    ConvShape::conv(in_c, out_c, in_w, in_h, kernel, stride, padding)
                }
                bsc_nn::LayerKind::Fc { fan_in, fan_out } => {
                    ConvShape::fully_connected(fan_in, fan_out)
                }
            };
            for geometry in [ArrayGeometry::paper(), ArrayGeometry::new(4, 8)] {
                assert_closed_forms_equal_the_loops(geometry, &shape);
            }
        }
    }
}
