//! Splits a [`ConvShape`] into buffer-sized tile passes, one tiler per
//! dataflow (paper Fig. 6 order for the weight-stationary default).
//!
//! Each tiler walks the loop nest whose totals its dataflow's compute
//! schedule in [`crate::mapping`] gives in closed form — channel split to
//! the mode's dot length, the stationary dimension pinned, the streaming
//! loops inside — with one extra level the compute-only schedule does not
//! need: the output rows are chunked so that (a) the psums of one chunk
//! fit the output buffer and (b) the input-row region feeding one chunk
//! fits (twice, for double buffering) in the feature buffer.  Every pass
//! records the DMA bytes that must land before it can run and the
//! writeback it retires, which is all the double-buffered DMA model in
//! [`super`] needs.
//!
//! No tiler materializes its pass list.  Each hands a [`TileSink`] its
//! residency plan and then its passes in execution order, as runs of
//! identical passes.  A channel-tile × kernel-offset block whose passes
//! are all equal except for the final writeback is one run plus that
//! writeback pass.  So a fully connected layer's thousands of channel
//! tiles cost two runs per PE tile, and so does every PE tile of a 3×3
//! convolution after the first under whole-map feature residency, where
//! offset 0 loads no more than the later offsets.

use bsc_mac::Precision;

use crate::mapping::ConvShape;
use crate::ArrayConfig;

use super::{FeatureReuse, MemConfig};

/// One stationary pass plus the DMA traffic tied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePass {
    /// Cycles the array computes: chunk pixels + PE-chain fill.
    pub compute_cycles: u64,
    /// Bytes that must be resident in SRAM before this pass starts.
    pub load_bytes: u64,
    /// DMA transfer operations behind `load_bytes`.
    pub loads: u64,
    /// Output-buffer writeback retired after this pass (last pass of a
    /// spatial chunk only).
    pub store_bytes: u64,
}

impl TilePass {
    /// A pass of `compute_cycles` that waits for each present transfer.
    fn loading(compute_cycles: u64, transfers: [Option<u64>; 2]) -> TilePass {
        let present = transfers.into_iter().flatten();
        TilePass {
            compute_cycles,
            load_bytes: present.clone().sum(),
            loads: present.count() as u64,
            store_bytes: 0,
        }
    }
}

/// A layer's residency plan: the buffer-occupancy bookkeeping the schedule
/// reports, decided before the first pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Output-row chunks per PE tile (1 when the buffers hold the layer).
    pub spatial_chunks: u64,
    /// How often feature vectors travel the DRAM channel.
    pub feature_reuse: FeatureReuse,
    /// Whether next-pass loads may overlap the current pass's compute.
    pub double_buffered: bool,
    /// Peak bytes resident in the weight buffer.
    pub weight_high_water: u64,
    /// Peak bytes resident in the feature buffer.
    pub feature_high_water: u64,
    /// Peak bytes resident in the output buffer.
    pub output_high_water: u64,
}

/// Receives one layer's tiling as a tiler walks its loop nest.
pub trait TileSink {
    /// The residency plan, once, before the first run.
    fn plan(&mut self, tiling: &Tiling);

    /// `count ≥ 1` consecutive copies of `pass`, in execution order
    /// (outer stationary loop → chunk → inner streaming loops; the exact
    /// nest depends on the dataflow).
    fn run(&mut self, pass: TilePass, count: u64);
}

/// Bytes of one SRAM vector word in the array's element format.
pub(crate) fn vector_bytes(config: &ArrayConfig) -> u64 {
    (config.vector_length as u64 * config.kind.element_bits() as u64).div_ceil(8)
}

/// Input rows needed to produce `rows` output rows (clamped to the map).
fn region_rows(shape: &ConvShape, rows: u64) -> u64 {
    ((rows - 1) * shape.stride as u64 + shape.kernel_h as u64).min(shape.in_h as u64)
}

/// Input rows needed by one output-row chunk, in bytes, for one channel
/// tile of the map.
fn chunk_region_bytes_of(shape: &ConvShape, vb: u64, rows: u64) -> u64 {
    region_rows(shape, rows) * shape.in_w as u64 * vb
}

/// Emits one channel-tile × kernel-offset block in loop order: each
/// channel tile runs offset 0 as `first`, then offsets 1..kernel as one
/// run of `rest`.  Only the block's last pass retires `store_bytes`.
/// When every pass of the block is `first` (no offset loop, or offset 0
/// loads nothing the later offsets do not), the block is one run plus
/// that last pass.
fn emit_block(
    sink: &mut dyn TileSink,
    channel_tiles: u64,
    kernel: u64,
    first: TilePass,
    rest: TilePass,
    store_bytes: u64,
) {
    let last = if kernel == 1 || first == rest {
        let run = channel_tiles * kernel - 1;
        if run > 0 {
            sink.run(first, run);
        }
        first
    } else {
        for ct in 0..channel_tiles {
            sink.run(first, 1);
            let run = if ct + 1 == channel_tiles { kernel - 2 } else { kernel - 1 };
            if run > 0 {
                sink.run(rest, run);
            }
        }
        rest
    };
    sink.run(TilePass { store_bytes, ..last }, 1);
}

/// Tiles `shape` in mode `p` onto the buffers of `mem` under the paper's
/// weight-stationary dataflow (Fig. 6 loop order).
///
/// The shape must already have passed [`ConvShape`] validation (the caller
/// runs `schedule_conv` first, which rejects zero fields and empty outputs).
pub(crate) fn tile_weight_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
    sink: &mut dyn TileSink,
) {
    let split = config.dot_length(p);
    let pes = config.pes as u64;
    let vb = vector_bytes(config);
    let out_w = shape.out_w() as u64;
    let out_h = shape.out_h() as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let channel_tiles = shape.in_channels.div_ceil(split) as u64;
    let pe_tiles = shape.out_channels.div_ceil(config.pes) as u64;
    let in_pixels = (shape.in_w * shape.in_h) as u64;

    // Whole-map residency: every channel tile of the input feature map fits
    // the feature buffer at once, so each feature byte crosses DRAM once.
    let full_map_bytes = channel_tiles.saturating_mul(in_pixels).saturating_mul(vb);
    let full_map_fits = full_map_bytes <= mem.feature_buffer_bytes;

    // Whole-tile weight residency: all passes of one PE tile fit at once,
    // so spatial re-chunking does not re-fetch weights.
    let weight_tile_bytes = kernel
        .saturating_mul(channel_tiles)
        .saturating_mul(pes)
        .saturating_mul(vb);
    let weights_resident = weight_tile_bytes <= mem.weight_buffer_bytes;

    // Largest output-row chunk whose psums fit the output buffer and whose
    // input region fits the feature buffer (twice, unless the whole map is
    // resident anyway).  Feasibility is monotone in `rows`, and one row is
    // always granted as the minimum tile.
    let feature_ok = |rows: u64| {
        full_map_fits
            || 2 * region_rows(shape, rows) * shape.in_w as u64 * vb <= mem.feature_buffer_bytes
    };
    let output_ok =
        |rows: u64| rows * out_w * pes * mem.psum_bytes <= mem.output_buffer_bytes;
    let mut chunk_rows = 1;
    for rows in (1..=out_h).rev() {
        if feature_ok(rows) && output_ok(rows) {
            chunk_rows = rows;
            break;
        }
    }
    let spatial_chunks = out_h.div_ceil(chunk_rows);

    let feature_reuse = if full_map_fits {
        FeatureReuse::FullMap
    } else if feature_ok(chunk_rows) {
        FeatureReuse::ChunkResident
    } else {
        FeatureReuse::Streamed
    };
    // DMA may prefetch the next pass while this one computes only when both
    // operand buffers have room for two tiles.
    let double_buffered =
        (weights_resident || 2 * pes * vb <= mem.weight_buffer_bytes) && feature_reuse != FeatureReuse::Streamed;

    let chunk_region_bytes =
        |rows: u64| region_rows(shape, rows) * shape.in_w as u64 * vb;

    sink.plan(&Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water: if weights_resident {
            weight_tile_bytes
        } else if double_buffered {
            2 * pes * vb
        } else {
            pes * vb
        },
        feature_high_water: match feature_reuse {
            FeatureReuse::FullMap => full_map_bytes,
            FeatureReuse::ChunkResident => 2 * chunk_region_bytes(chunk_rows),
            FeatureReuse::Streamed => chunk_region_bytes(chunk_rows),
        },
        // The first chunk of the first PE tile holds the most psums.
        output_high_water: chunk_rows * out_w * pes.min(shape.out_channels as u64) * mem.psum_bytes,
    });

    for nt in 0..pe_tiles {
        let used_pes = if nt + 1 == pe_tiles {
            shape.out_channels as u64 - nt * pes
        } else {
            pes
        };
        let mut row = 0;
        for chunk in 0..spatial_chunks {
            let rows = chunk_rows.min(out_h - row);
            row += rows;
            let chunk_spatial = rows * out_w;
            // Weights: one vector per PE per pass, skipped on later chunks
            // when the whole PE tile stays resident.
            let weights = (!weights_resident || chunk == 0).then_some(used_pes * vb);
            // Features, by reuse level: offset 0 of a channel tile, then
            // the later offsets.
            let (first, rest) = match feature_reuse {
                FeatureReuse::FullMap => ((nt == 0 && chunk == 0).then_some(in_pixels * vb), None),
                FeatureReuse::ChunkResident => (Some(chunk_region_bytes(rows)), None),
                FeatureReuse::Streamed => {
                    (Some(chunk_region_bytes(rows)), Some(chunk_region_bytes(rows)))
                }
            };
            let compute_cycles = chunk_spatial + used_pes - 1;
            emit_block(
                sink,
                channel_tiles,
                kernel,
                TilePass::loading(compute_cycles, [weights, first]),
                TilePass::loading(compute_cycles, [weights, rest]),
                chunk_spatial * used_pes * mem.psum_bytes,
            );
        }
    }
}

/// Tiles `shape` under the output-stationary dataflow.
///
/// One pass covers a whole (PE tile, output-row chunk) pair: the pinned
/// psums run their complete reduction (every kernel offset and channel
/// tile) before retiring, so the pass needs the PE tile's full weight set
/// and the chunk's input region across **all** channel tiles at once.
/// Weights that do not fit the weight buffer are re-streamed every pass.
pub(crate) fn tile_output_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
    sink: &mut dyn TileSink,
) {
    let split = config.dot_length(p);
    let pes = config.pes as u64;
    let vb = vector_bytes(config);
    let out_w = shape.out_w() as u64;
    let out_h = shape.out_h() as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let channel_tiles = shape.in_channels.div_ceil(split) as u64;
    let pe_tiles = shape.out_channels.div_ceil(config.pes) as u64;
    let in_pixels = (shape.in_w * shape.in_h) as u64;
    let steps = kernel * channel_tiles;

    let full_map_bytes = channel_tiles.saturating_mul(in_pixels).saturating_mul(vb);
    let full_map_fits = full_map_bytes <= mem.feature_buffer_bytes;

    let weight_tile_bytes = kernel
        .saturating_mul(channel_tiles)
        .saturating_mul(pes)
        .saturating_mul(vb);
    let weights_resident = weight_tile_bytes <= mem.weight_buffer_bytes;

    // A chunk's working set spans every channel tile (the reduction runs
    // to completion per pixel), so the region is `channel_tiles` deep.
    let feature_ok = |rows: u64| {
        full_map_fits
            || 2 * chunk_region_bytes_of(shape, vb, rows) * channel_tiles
                <= mem.feature_buffer_bytes
    };
    // Finished outputs stage through the output buffer before writeback.
    let output_ok =
        |rows: u64| rows * out_w * pes * mem.psum_bytes <= mem.output_buffer_bytes;
    let mut chunk_rows = 1;
    for rows in (1..=out_h).rev() {
        if feature_ok(rows) && output_ok(rows) {
            chunk_rows = rows;
            break;
        }
    }
    let spatial_chunks = out_h.div_ceil(chunk_rows);

    let feature_reuse = if full_map_fits {
        FeatureReuse::FullMap
    } else if feature_ok(chunk_rows) {
        FeatureReuse::ChunkResident
    } else {
        FeatureReuse::Streamed
    };
    // Non-resident weights keep the channel busy all pass: no slack to
    // prefetch the next chunk into.
    let double_buffered = weights_resident && feature_reuse != FeatureReuse::Streamed;

    sink.plan(&Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water: if weights_resident { weight_tile_bytes } else { pes * vb },
        feature_high_water: match feature_reuse {
            FeatureReuse::FullMap => full_map_bytes,
            FeatureReuse::ChunkResident => {
                2 * chunk_region_bytes_of(shape, vb, chunk_rows) * channel_tiles
            }
            FeatureReuse::Streamed => chunk_region_bytes_of(shape, vb, chunk_rows) * channel_tiles,
        },
        // The first chunk of the first PE tile holds the most outputs.
        output_high_water: chunk_rows * out_w * pes.min(shape.out_channels as u64) * mem.psum_bytes,
    });

    for nt in 0..pe_tiles {
        let used_pes = if nt + 1 == pe_tiles {
            shape.out_channels as u64 - nt * pes
        } else {
            pes
        };
        let mut row = 0;
        for chunk in 0..spatial_chunks {
            let rows = chunk_rows.min(out_h - row);
            row += rows;
            let chunk_spatial = rows * out_w;
            // Weights: the PE tile's whole set streams during the pass.
            let weights = (!weights_resident || chunk == 0).then_some(steps * used_pes * vb);
            // Features: the chunk region across every channel tile.
            let features = match feature_reuse {
                FeatureReuse::FullMap => (nt == 0 && chunk == 0).then_some(full_map_bytes),
                FeatureReuse::ChunkResident | FeatureReuse::Streamed => {
                    Some(chunk_region_bytes_of(shape, vb, rows) * channel_tiles)
                }
            };
            sink.run(
                TilePass {
                    // Every pass retires its chunk: psums never span passes.
                    store_bytes: chunk_spatial * used_pes * mem.psum_bytes,
                    ..TilePass::loading(chunk_spatial * steps + used_pes - 1, [weights, features])
                },
                1,
            );
        }
    }
}

/// Tiles `shape` under the input-stationary dataflow.
///
/// The loop nest is chunk → spatial tile (groups of `pes` pinned pixels)
/// → channel tile → kernel offset; every pass streams the layer's
/// `out_channels` weight vectors through the chain.  Psums for **all**
/// output channels of a chunk accumulate in the output buffer, which is
/// what limits the chunk size.
pub(crate) fn tile_input_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
    sink: &mut dyn TileSink,
) {
    let split = config.dot_length(p);
    let pes = config.pes as u64;
    let vb = vector_bytes(config);
    let out_w = shape.out_w() as u64;
    let out_h = shape.out_h() as u64;
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let channel_tiles = shape.in_channels.div_ceil(split) as u64;
    let out_channels = shape.out_channels as u64;
    let in_pixels = (shape.in_w * shape.in_h) as u64;

    let full_map_bytes = channel_tiles.saturating_mul(in_pixels).saturating_mul(vb);
    let full_map_fits = full_map_bytes <= mem.feature_buffer_bytes;

    // Whole-layer weight residency: every (channel tile, kernel offset)
    // slab of out_channels vectors at once.
    let weight_total_bytes = kernel
        .saturating_mul(channel_tiles)
        .saturating_mul(out_channels)
        .saturating_mul(vb);
    let weights_resident = weight_total_bytes <= mem.weight_buffer_bytes;

    let feature_ok = |rows: u64| {
        full_map_fits
            || 2 * chunk_region_bytes_of(shape, vb, rows) <= mem.feature_buffer_bytes
    };
    // The chunk's psums cover every output channel simultaneously.
    let output_ok =
        |rows: u64| rows * out_w * out_channels * mem.psum_bytes <= mem.output_buffer_bytes;
    let mut chunk_rows = 1;
    for rows in (1..=out_h).rev() {
        if feature_ok(rows) && output_ok(rows) {
            chunk_rows = rows;
            break;
        }
    }
    let spatial_chunks = out_h.div_ceil(chunk_rows);

    let feature_reuse = if full_map_fits {
        FeatureReuse::FullMap
    } else if feature_ok(chunk_rows) {
        FeatureReuse::ChunkResident
    } else {
        FeatureReuse::Streamed
    };
    let double_buffered = (weights_resident || 2 * out_channels * vb <= mem.weight_buffer_bytes)
        && feature_reuse != FeatureReuse::Streamed;

    sink.plan(&Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water: if weights_resident {
            weight_total_bytes
        } else if double_buffered {
            2 * out_channels * vb
        } else {
            out_channels * vb
        },
        feature_high_water: match feature_reuse {
            FeatureReuse::FullMap => full_map_bytes,
            FeatureReuse::ChunkResident => 2 * chunk_region_bytes_of(shape, vb, chunk_rows),
            FeatureReuse::Streamed => pes * vb,
        },
        // The first chunk is the tallest.
        output_high_water: chunk_rows * out_w * out_channels * mem.psum_bytes,
    });

    let mut row = 0;
    for chunk in 0..spatial_chunks {
        let rows = chunk_rows.min(out_h - row);
        row += rows;
        let chunk_spatial = rows * out_w;
        let spatial_tiles = chunk_spatial.div_ceil(pes);
        for st in 0..spatial_tiles {
            let used_pes = if st + 1 == spatial_tiles {
                chunk_spatial - st * pes
            } else {
                pes
            };
            // Weights: the (ct, k) slab of out_channels vectors, fetched
            // once when the whole layer stays resident.
            let weights =
                (!weights_resident || (chunk == 0 && st == 0)).then_some(out_channels * vb);
            // Features, by reuse level: offset 0 of a channel tile, then
            // the later offsets.
            let (first, rest) = match feature_reuse {
                FeatureReuse::FullMap => ((chunk == 0 && st == 0).then_some(in_pixels * vb), None),
                FeatureReuse::ChunkResident => {
                    ((st == 0).then_some(chunk_region_bytes_of(shape, vb, rows)), None)
                }
                // Exactly the vectors pinned for this pass.
                FeatureReuse::Streamed => (Some(used_pes * vb), Some(used_pes * vb)),
            };
            let compute_cycles = out_channels + used_pes - 1;
            // The chunk retires once its last spatial tile is done.
            let store_bytes = if st + 1 == spatial_tiles {
                chunk_spatial * out_channels * mem.psum_bytes
            } else {
                0
            };
            emit_block(
                sink,
                channel_tiles,
                kernel,
                TilePass::loading(compute_cycles, [weights, first]),
                TilePass::loading(compute_cycles, [weights, rest]),
                store_bytes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::DataflowKind;
    use crate::mem::oracle::Recorder;
    use bsc_mac::MacKind;

    fn paper() -> ArrayConfig {
        ArrayConfig::paper(MacKind::Bsc)
    }

    fn tile(dataflow: DataflowKind, mem: &MemConfig, shape: &ConvShape) -> Recorder {
        Recorder::tile(dataflow, &paper(), mem, Precision::Int8, shape)
    }

    #[test]
    fn infinite_buffers_produce_one_chunk_per_pe_tile() {
        let shape = ConvShape::conv(64, 64, 28, 28, 3, 1, 1);
        let t = tile(DataflowKind::WeightStationary, &MemConfig::infinite(), &shape);
        assert_eq!(t.plan().spatial_chunks, 1);
        assert_eq!(t.plan().feature_reuse, FeatureReuse::FullMap);
        // 2 PE tiles × 2 channel tiles × 9 kernel offsets.
        assert_eq!(t.passes().len(), 2 * 2 * 9);
    }

    #[test]
    fn tiny_output_buffer_forces_row_chunks() {
        let shape = ConvShape::conv(32, 32, 16, 16, 3, 1, 1);
        let mem = MemConfig {
            // One output row of psums is 16 px × 32 PEs × 4 B = 2 KiB.
            output_buffer_bytes: 2 * 1024,
            ..MemConfig::infinite()
        };
        let t = tile(DataflowKind::WeightStationary, &mem, &shape);
        assert_eq!(t.plan().spatial_chunks, 16);
        assert!(t.plan().output_high_water <= mem.output_buffer_bytes);
        // Writebacks: one per (PE tile, chunk).
        let stores = t.passes().iter().filter(|p| p.store_bytes > 0).count();
        assert_eq!(stores, 16);
    }

    #[test]
    fn streamed_features_load_every_pass() {
        let shape = ConvShape::conv(32, 32, 16, 16, 3, 1, 1);
        let mem = MemConfig {
            feature_buffer_bytes: 1024, // under one row region (3×16×64 B)
            ..MemConfig::infinite()
        };
        let t = tile(DataflowKind::WeightStationary, &mem, &shape);
        assert_eq!(t.plan().feature_reuse, FeatureReuse::Streamed);
        assert!(!t.plan().double_buffered);
        assert!(t.passes().iter().all(|p| p.load_bytes > 0));
    }

    #[test]
    fn output_stationary_has_one_pass_per_pe_tile_when_unconstrained() {
        let shape = ConvShape::conv(64, 64, 28, 28, 3, 1, 1);
        let t = tile(DataflowKind::OutputStationary, &MemConfig::infinite(), &shape);
        assert_eq!(t.plan().spatial_chunks, 1);
        // The whole reduction happens inside each PE tile's single pass.
        assert_eq!(t.passes().len(), 2);
        assert!(t.passes().iter().all(|p| p.store_bytes > 0));
    }

    #[test]
    fn input_stationary_passes_follow_the_spatial_tiling() {
        let shape = ConvShape::conv(64, 64, 7, 7, 1, 1, 0);
        let t = tile(DataflowKind::InputStationary, &MemConfig::infinite(), &shape);
        // 49 pixels / 32 PEs = 2 spatial tiles × 2 channel tiles.
        assert_eq!(t.passes().len(), 2 * 2);
        assert_eq!(t.plan().spatial_chunks, 1);
    }

    #[test]
    fn input_stationary_output_buffer_holds_all_out_channels() {
        let shape = ConvShape::conv(32, 64, 16, 16, 3, 1, 1);
        let mem = MemConfig {
            // One output row × 64 channels × 4 B = 4 KiB: force row chunks.
            output_buffer_bytes: 4 * 1024,
            ..MemConfig::infinite()
        };
        let t = tile(DataflowKind::InputStationary, &mem, &shape);
        assert_eq!(t.plan().spatial_chunks, 16);
        assert!(t.plan().output_high_water <= mem.output_buffer_bytes);
    }

    #[test]
    fn vector_bytes_track_element_widths() {
        for (kind, bytes) in [(MacKind::Bsc, 64), (MacKind::Lpc, 128), (MacKind::Hps, 32)] {
            assert_eq!(vector_bytes(&ArrayConfig::paper(kind)), bytes, "{kind}");
        }
    }
}
