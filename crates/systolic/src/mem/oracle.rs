//! The pass-list tilers and the per-pass DMA replay that the run fold
//! replaced, kept only as test oracles.
//!
//! Two equivalence tests run them against the live code on one seeded
//! grid: expanding each tiler's runs must give exactly the oracle's pass
//! list (and the same residency plan), and the run fold must equal the
//! per-pass replay field for field.  A third folds random run streams
//! that no tiler emits.

use bsc_mac::{MacKind, Precision};
use bsc_netlist::rng::Rng64;

use super::tiler::vector_bytes;
use super::*;
use crate::ArrayGeometry;

/// A tiler's stream as it arrived: the plan and the runs, unmerged.
#[derive(Debug, Default)]
pub(super) struct Recorder {
    pub(super) tiling: Option<Tiling>,
    pub(super) runs: Vec<(TilePass, u64)>,
}

impl Recorder {
    /// Records `dataflow`'s tiling of one layer.
    pub(super) fn tile(
        dataflow: DataflowKind,
        config: &ArrayConfig,
        mem: &MemConfig,
        p: Precision,
        shape: &ConvShape,
    ) -> Recorder {
        let mut rec = Recorder::default();
        dataflow.instance().tile(config, mem, p, shape, &mut rec);
        rec
    }

    /// The plan the tiler announced.
    pub(super) fn plan(&self) -> Tiling {
        self.tiling.expect("tiler announced no plan")
    }

    /// The runs expanded into one pass per entry.
    pub(super) fn passes(&self) -> Vec<TilePass> {
        expand(&self.runs)
    }
}

/// `runs` expanded into one pass per entry.
fn expand(runs: &[(TilePass, u64)]) -> Vec<TilePass> {
    runs.iter()
        .flat_map(|&(pass, count)| std::iter::repeat_n(pass, count as usize))
        .collect()
}

impl TileSink for Recorder {
    fn plan(&mut self, tiling: &Tiling) {
        assert!(
            self.tiling.is_none() && self.runs.is_empty(),
            "plan must come first, once"
        );
        self.tiling = Some(*tiling);
    }

    fn run(&mut self, pass: TilePass, count: u64) {
        assert!(self.tiling.is_some(), "run before plan");
        assert!(count >= 1, "empty run");
        self.runs.push((pass, count));
    }
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

/// Tiles `shape` in mode `p` onto the buffers of `mem` under the paper's
/// weight-stationary dataflow (Fig. 6 loop order).
///
/// The weight-stationary pass list.
fn passes_weight_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> (Tiling, Vec<TilePass>) {
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
    let output_ok = |rows: u64| rows * out_w * pes * mem.psum_bytes <= mem.output_buffer_bytes;
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
    let double_buffered = (weights_resident || 2 * pes * vb <= mem.weight_buffer_bytes)
        && feature_reuse != FeatureReuse::Streamed;

    let chunk_region_bytes = |rows: u64| region_rows(shape, rows) * shape.in_w as u64 * vb;

    let mut passes =
        Vec::with_capacity((pe_tiles * spatial_chunks * channel_tiles * kernel) as usize);
    let mut output_high_water = 0u64;
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
            let psum_bytes = chunk_spatial * used_pes * mem.psum_bytes;
            output_high_water = output_high_water.max(psum_bytes);
            for ct in 0..channel_tiles {
                for k in 0..kernel {
                    let mut load_bytes = 0u64;
                    let mut loads = 0u64;
                    // Weights: one vector per PE per pass, skipped on later
                    // chunks when the whole PE tile stays resident.
                    if !weights_resident || chunk == 0 {
                        load_bytes += used_pes * vb;
                        loads += 1;
                    }
                    // Features, by reuse level.
                    match feature_reuse {
                        FeatureReuse::FullMap => {
                            if nt == 0 && chunk == 0 && k == 0 {
                                load_bytes += in_pixels * vb;
                                loads += 1;
                            }
                        }
                        FeatureReuse::ChunkResident => {
                            if k == 0 {
                                load_bytes += chunk_region_bytes(rows);
                                loads += 1;
                            }
                        }
                        FeatureReuse::Streamed => {
                            load_bytes += chunk_region_bytes(rows);
                            loads += 1;
                        }
                    }
                    let last_of_chunk = ct + 1 == channel_tiles && k + 1 == kernel;
                    passes.push(TilePass {
                        compute_cycles: chunk_spatial + used_pes - 1,
                        load_bytes,
                        loads,
                        store_bytes: if last_of_chunk { psum_bytes } else { 0 },
                    });
                }
            }
        }
    }

    let weight_high_water = if weights_resident {
        weight_tile_bytes
    } else if double_buffered {
        2 * pes * vb
    } else {
        pes * vb
    };
    let feature_high_water = match feature_reuse {
        FeatureReuse::FullMap => full_map_bytes,
        FeatureReuse::ChunkResident => 2 * chunk_region_bytes(chunk_rows),
        FeatureReuse::Streamed => chunk_region_bytes(chunk_rows),
    };

    let tiling = Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water,
        feature_high_water,
        output_high_water,
    };
    (tiling, passes)
}

/// Tiles `shape` under the output-stationary dataflow.
///
/// The output-stationary pass list.
fn passes_output_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> (Tiling, Vec<TilePass>) {
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
    let output_ok = |rows: u64| rows * out_w * pes * mem.psum_bytes <= mem.output_buffer_bytes;
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

    let mut passes = Vec::with_capacity((pe_tiles * spatial_chunks) as usize);
    let mut output_high_water = 0u64;
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
            let psum_bytes = chunk_spatial * used_pes * mem.psum_bytes;
            output_high_water = output_high_water.max(psum_bytes);
            let mut load_bytes = 0u64;
            let mut loads = 0u64;
            // Weights: the PE tile's whole set streams during the pass.
            if !weights_resident || chunk == 0 {
                load_bytes += steps * used_pes * vb;
                loads += 1;
            }
            // Features: the chunk region across every channel tile.
            match feature_reuse {
                FeatureReuse::FullMap => {
                    if nt == 0 && chunk == 0 {
                        load_bytes += full_map_bytes;
                        loads += 1;
                    }
                }
                FeatureReuse::ChunkResident | FeatureReuse::Streamed => {
                    load_bytes += chunk_region_bytes_of(shape, vb, rows) * channel_tiles;
                    loads += 1;
                }
            }
            passes.push(TilePass {
                compute_cycles: chunk_spatial * steps + used_pes - 1,
                load_bytes,
                loads,
                // Every pass retires its chunk: psums never span passes.
                store_bytes: psum_bytes,
            });
        }
    }

    let weight_high_water = if weights_resident {
        weight_tile_bytes
    } else {
        pes * vb
    };
    let feature_high_water = match feature_reuse {
        FeatureReuse::FullMap => full_map_bytes,
        FeatureReuse::ChunkResident => {
            2 * chunk_region_bytes_of(shape, vb, chunk_rows) * channel_tiles
        }
        FeatureReuse::Streamed => chunk_region_bytes_of(shape, vb, chunk_rows) * channel_tiles,
    };

    let tiling = Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water,
        feature_high_water,
        output_high_water,
    };
    (tiling, passes)
}

/// Tiles `shape` under the input-stationary dataflow.
///
/// The input-stationary pass list.
fn passes_input_stationary(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> (Tiling, Vec<TilePass>) {
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
        full_map_fits || 2 * chunk_region_bytes_of(shape, vb, rows) <= mem.feature_buffer_bytes
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

    let mut passes = Vec::new();
    let mut output_high_water = 0u64;
    let mut row = 0;
    for chunk in 0..spatial_chunks {
        let rows = chunk_rows.min(out_h - row);
        row += rows;
        let chunk_spatial = rows * out_w;
        let psum_bytes = chunk_spatial * out_channels * mem.psum_bytes;
        output_high_water = output_high_water.max(psum_bytes);
        let spatial_tiles = chunk_spatial.div_ceil(pes);
        for st in 0..spatial_tiles {
            let used_pes = if st + 1 == spatial_tiles {
                chunk_spatial - st * pes
            } else {
                pes
            };
            for ct in 0..channel_tiles {
                for k in 0..kernel {
                    let mut load_bytes = 0u64;
                    let mut loads = 0u64;
                    // Weights: the (ct, k) slab of out_channels vectors,
                    // fetched once when the whole layer stays resident.
                    if !weights_resident || (chunk == 0 && st == 0) {
                        load_bytes += out_channels * vb;
                        loads += 1;
                    }
                    // Features, by reuse level.
                    match feature_reuse {
                        FeatureReuse::FullMap => {
                            if chunk == 0 && st == 0 && k == 0 {
                                load_bytes += in_pixels * vb;
                                loads += 1;
                            }
                        }
                        FeatureReuse::ChunkResident => {
                            if st == 0 && k == 0 {
                                load_bytes += chunk_region_bytes_of(shape, vb, rows);
                                loads += 1;
                            }
                        }
                        FeatureReuse::Streamed => {
                            // Exactly the vectors pinned for this pass.
                            load_bytes += used_pes * vb;
                            loads += 1;
                        }
                    }
                    let last_of_chunk =
                        st + 1 == spatial_tiles && ct + 1 == channel_tiles && k + 1 == kernel;
                    passes.push(TilePass {
                        compute_cycles: out_channels + used_pes - 1,
                        load_bytes,
                        loads,
                        store_bytes: if last_of_chunk { psum_bytes } else { 0 },
                    });
                }
            }
        }
    }

    let weight_high_water = if weights_resident {
        weight_total_bytes
    } else if double_buffered {
        2 * out_channels * vb
    } else {
        out_channels * vb
    };
    let feature_high_water = match feature_reuse {
        FeatureReuse::FullMap => full_map_bytes,
        FeatureReuse::ChunkResident => 2 * chunk_region_bytes_of(shape, vb, chunk_rows),
        FeatureReuse::Streamed => pes * vb,
    };

    let tiling = Tiling {
        spatial_chunks,
        feature_reuse,
        double_buffered,
        weight_high_water,
        feature_high_water,
        output_high_water,
    };
    (tiling, passes)
}

/// The oracle pass list of `dataflow`.
fn oracle_passes(
    dataflow: DataflowKind,
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> (Tiling, Vec<TilePass>) {
    match dataflow {
        DataflowKind::WeightStationary => passes_weight_stationary(config, mem, p, shape),
        DataflowKind::OutputStationary => passes_output_stationary(config, mem, p, shape),
        DataflowKind::InputStationary => passes_input_stationary(config, mem, p, shape),
    }
}

/// The per-pass DMA replay of a pass list, as the fold's totals.
fn per_pass(mem: &MemConfig, double_buffered: bool, passes: &[TilePass]) -> DmaTotals {
    let mut clock = 0u64; // when the array finishes its current pass
    let mut dma_free = 0u64; // when the DMA channel is next free
    let mut stall_cycles = 0u64;
    let mut compute_cycles = 0u64;
    let mut dma_load_cycles = 0u64;
    let mut dma_store_cycles = 0u64;
    let mut dma_loads = 0u64;
    let mut dma_stores = 0u64;
    let mut dma_load_bytes = 0u64;
    let mut dma_store_bytes = 0u64;

    let n = passes.len();
    // The first tile has nothing to overlap with: its load is the fill.
    let first = &passes[0];
    let mut ready = mem.transfer_cycles(first.load_bytes);
    let fill_cycles = ready;
    dma_free = dma_free.max(ready);
    dma_load_cycles += ready;
    dma_loads += first.loads;
    dma_load_bytes += first.load_bytes;

    for i in 0..n {
        let pass = &passes[i];
        let start = clock.max(ready);
        stall_cycles += start - clock;
        let end = start + pass.compute_cycles;
        compute_cycles += pass.compute_cycles;
        if i + 1 < n {
            let next = &passes[i + 1];
            let t = mem.transfer_cycles(next.load_bytes);
            // Double buffering prefetches during compute; without the spare
            // buffer the load must wait for the pass to release its tile.
            let earliest = if double_buffered { start } else { end };
            dma_free = earliest.max(dma_free) + t;
            ready = dma_free;
            dma_load_cycles += t;
            dma_loads += next.loads;
            dma_load_bytes += next.load_bytes;
        }
        if pass.store_bytes > 0 {
            // Writeback queues on the same channel once the chunk retires.
            let t = mem.transfer_cycles(pass.store_bytes);
            dma_free = dma_free.max(end) + t;
            dma_store_cycles += t;
            dma_stores += 1;
            dma_store_bytes += pass.store_bytes;
        }
        clock = end;
    }
    DmaTotals {
        at: Channel {
            clock,
            dma_free,
            ..Channel::default()
        },
        passes: n as u64,
        fill_cycles,
        stall_cycles,
        compute_cycles,
        dma_load_cycles,
        dma_store_cycles,
        dma_loads,
        dma_stores,
        dma_load_bytes,
        dma_store_bytes,
    }
}

/// The schedule the per-pass replay of the oracle pass list gives.
fn replay(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
    dataflow: DataflowKind,
) -> MemoryAwareSchedule {
    let compute = dataflow.instance().schedule(config, p, shape).unwrap();
    let (tiling, passes) = oracle_passes(dataflow, config, mem, p, shape);
    let d = per_pass(mem, tiling.double_buffered, &passes);

    let total_cycles = d.at.clock.max(d.at.dma_free);
    let drain_cycles = total_cycles - d.at.clock;
    let dma_busy_cycles = d.dma_load_cycles + d.dma_store_cycles;
    let roofline = if dma_busy_cycles > d.compute_cycles {
        Roofline::BandwidthBound
    } else {
        Roofline::ComputeBound
    };
    let peak = total_cycles.saturating_mul(config.peak_macs_per_cycle(p) as u64);
    MemoryAwareSchedule {
        compute,
        tile_passes: d.passes,
        spatial_chunks: tiling.spatial_chunks,
        compute_cycles: d.compute_cycles,
        stall_cycles: d.stall_cycles,
        fill_cycles: d.fill_cycles,
        drain_cycles,
        total_cycles,
        dma_loads: d.dma_loads,
        dma_stores: d.dma_stores,
        dma_load_bytes: d.dma_load_bytes,
        dma_store_bytes: d.dma_store_bytes,
        dma_busy_cycles,
        dma_load_cycles: d.dma_load_cycles,
        dma_store_cycles: d.dma_store_cycles,
        weight_high_water_bytes: tiling.weight_high_water,
        feature_high_water_bytes: tiling.feature_high_water,
        output_high_water_bytes: tiling.output_high_water,
        feature_reuse: tiling.feature_reuse,
        roofline,
        peak_fraction: if peak > 0 {
            compute.useful_macs as f64 / peak as f64
        } else {
            0.0
        },
    }
}

/// Calls `check` on every case of the shared grid: seeded random shapes
/// (plus fixed 1×1, non-square and stride-3 ones) × every MAC kind × the
/// paper's 32×32 and the quick 4×8 geometry × every precision × four
/// hierarchies × every dataflow.
fn for_each_case(
    mut check: impl FnMut(&ArrayConfig, &MemConfig, Precision, &ConvShape, DataflowKind),
) {
    let starved = MemConfig {
        weight_buffer_bytes: 256,
        feature_buffer_bytes: 1024,
        output_buffer_bytes: 2048,
        bandwidth: DramBandwidth::BytesPerCycle(8),
        burst_latency_cycles: 16,
        psum_bytes: 4,
    };
    let mems = [
        MemConfig::infinite(),
        MemConfig::edge(),
        MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1)),
        starved,
    ];
    let mut shapes = vec![
        ConvShape::conv(40, 9, 7, 5, 1, 1, 0),
        ConvShape::fully_connected(100, 10),
        ConvShape {
            kernel_w: 3,
            kernel_h: 1,
            ..ConvShape::conv(20, 6, 11, 7, 3, 3, 1)
        },
    ];
    let mut rng = Rng64::seed_from_u64(0x7275_6e73);
    while shapes.len() < SHAPES {
        let shape = ConvShape {
            in_channels: 1 + (rng.next_u64() % 150) as usize,
            out_channels: 1 + (rng.next_u64() % 70) as usize,
            in_w: 1 + (rng.next_u64() % 20) as usize,
            in_h: 1 + (rng.next_u64() % 20) as usize,
            kernel_w: 1 + (rng.next_u64() % 3) as usize,
            kernel_h: 1 + (rng.next_u64() % 3) as usize,
            stride: 1 + (rng.next_u64() % 3) as usize,
            padding: (rng.next_u64() % 2) as usize,
        };
        if shape.out_w() > 0 && shape.out_h() > 0 {
            shapes.push(shape);
        }
    }
    for shape in &shapes {
        for kind in MacKind::ALL {
            for geometry in [ArrayGeometry::paper(), ArrayGeometry::new(4, 8)] {
                let config = ArrayConfig::with_geometry(kind, geometry);
                for p in Precision::ALL {
                    for mem in &mems {
                        for dataflow in DataflowKind::ALL {
                            check(&config, mem, p, shape, dataflow);
                        }
                    }
                }
            }
        }
    }
}

/// Shapes in the grid, fixed ones included.
const SHAPES: usize = 40;

#[test]
fn expanded_runs_equal_the_pass_list_tilers() {
    let mut cases = 0;
    for_each_case(|config, mem, p, shape, dataflow| {
        let rec = Recorder::tile(dataflow, config, mem, p, shape);
        let (tiling, passes) = oracle_passes(dataflow, config, mem, p, shape);
        let ctx = format!(
            "{shape:?} {} {} {p} {mem:?} {dataflow}",
            config.kind,
            config.geometry()
        );
        assert_eq!(rec.plan(), tiling, "{ctx}");
        assert_eq!(rec.passes(), passes, "{ctx}");
        cases += 1;
    });
    assert_eq!(cases, SHAPES * 3 * 2 * 3 * 4 * 3);
}

#[test]
fn run_fold_equals_the_per_pass_replay() {
    for_each_case(|config, mem, p, shape, dataflow| {
        let folded = schedule_conv_with_memory_dataflow(config, mem, p, shape, dataflow).unwrap();
        let replayed = replay(config, mem, p, shape, dataflow);
        assert_eq!(
            folded,
            replayed,
            "{shape:?} {} {} {p} {mem:?} {dataflow}",
            config.kind,
            config.geometry()
        );
    });
}

#[test]
fn fc1_costs_two_runs_per_pe_tile() {
    // VGG-16's FC1 on the quick BSC array: 3136 channel tiles × 1024 PE
    // tiles of 1×1 passes, which the tiler emits as two runs per PE tile.
    let config = ArrayConfig::with_geometry(MacKind::Bsc, ArrayGeometry::new(4, 8));
    let mem = MemConfig::infinite();
    let shape = ConvShape::fully_connected(25088, 4096);
    let rec = Recorder::tile(
        DataflowKind::WeightStationary,
        &config,
        &mem,
        Precision::Int8,
        &shape,
    );
    let pe_tiles = 4096 / 4;
    assert!(rec.runs.len() <= 2 * pe_tiles, "{} runs", rec.runs.len());
    let passes: u64 = rec.runs.iter().map(|&(_, count)| count).sum();
    assert_eq!(passes, 3_211_264);
    let aware = schedule_conv_with_memory(&config, &mem, Precision::Int8, &shape).unwrap();
    assert_eq!(aware.tile_passes, 3_211_264);
    assert_eq!(aware.total_cycles, aware.compute.cycles);
}

#[test]
fn conv5_1_costs_two_runs_per_pe_tile_after_the_first() {
    // VGG-16's conv5_1 (3×3, 512 → 512 at 14×14) on the quick BSC array:
    // the first PE tile loads each channel tile of the map at its offset
    // 0, so it costs two runs per channel tile; every later PE tile's
    // passes are all equal and merge into one run plus the writeback.
    let config = ArrayConfig::with_geometry(MacKind::Bsc, ArrayGeometry::new(4, 8));
    let mem = MemConfig::infinite();
    let shape = ConvShape::conv(512, 512, 14, 14, 3, 1, 1);
    let rec = Recorder::tile(
        DataflowKind::WeightStationary,
        &config,
        &mem,
        Precision::Int8,
        &shape,
    );
    let (kernel, channel_tiles, pe_tiles) = (9, 512 / 8, 512 / 4);
    assert!(
        rec.runs.len() <= 2 * channel_tiles + 2 * pe_tiles,
        "{} runs",
        rec.runs.len()
    );
    let passes: u64 = rec.runs.iter().map(|&(_, count)| count).sum();
    assert_eq!(passes, (kernel * channel_tiles * pe_tiles) as u64);
    let aware = schedule_conv_with_memory(&config, &mem, Precision::Int8, &shape).unwrap();
    assert_eq!(aware.tile_passes, passes);
    assert_eq!(aware.total_cycles, aware.compute.cycles);
}

#[test]
fn random_run_streams_fold_like_the_per_pass_replay() {
    // Streams no tiler emits: a few distinct passes in random order and
    // run lengths, so that runs start from every kind of channel state,
    // including a writeback still in flight from the previous run.
    let mut rng = Rng64::seed_from_u64(0x0f01_d5ed);
    for _ in 0..2000 {
        let mem = MemConfig {
            bandwidth: DramBandwidth::BytesPerCycle(1 + rng.next_u64() % 4),
            burst_latency_cycles: rng.next_u64() % 4,
            ..MemConfig::infinite()
        };
        let double_buffered = rng.next_u64().is_multiple_of(2);
        let kinds: Vec<TilePass> = (0..3)
            .map(|_| TilePass {
                compute_cycles: 1 + rng.next_u64() % 30,
                load_bytes: rng.next_u64() % 40,
                loads: rng.next_u64() % 3,
                store_bytes: if rng.next_u64().is_multiple_of(2) {
                    0
                } else {
                    1 + rng.next_u64() % 30
                },
            })
            .collect();
        let runs: Vec<(TilePass, u64)> = (0..1 + rng.next_u64() % 8)
            .map(|_| (kinds[(rng.next_u64() % 3) as usize], 1 + rng.next_u64() % 6))
            .collect();

        let mut fold = RunFold::new(&mem);
        fold.plan(&Tiling {
            spatial_chunks: 1,
            feature_reuse: FeatureReuse::FullMap,
            double_buffered,
            weight_high_water: 0,
            feature_high_water: 0,
            output_high_water: 0,
        });
        for &(pass, count) in &runs {
            fold.run(pass, count);
        }
        let (_, mut folded) = fold.finish();
        folded.at.issue = 0;
        assert_eq!(
            folded,
            per_pass(&mem, double_buffered, &expand(&runs)),
            "{runs:?} {mem:?}"
        );
    }
}
