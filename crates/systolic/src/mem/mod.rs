//! Two-level memory hierarchy: SRAM tile buffers fed by a DMA channel.
//!
//! [`crate::mapping::schedule_conv`] prices a layer as if every feature and
//! weight vector arrives the cycle the array wants it.  This module models
//! what actually feeds the array: finite weight/feature/output SRAM buffers
//! (capacities in bytes, element widths per MAC architecture — 16 b BSC,
//! 32 b LPC, 8 b HPS), a DRAM channel with a fixed burst latency and a
//! configurable bytes-per-cycle bandwidth, and a double-buffered DMA engine
//! that prefetches the next tile while the current one computes.
//!
//! [`schedule_conv_with_memory`] streams the layer's tile passes from the
//! dataflow's tiler as runs of identical passes, folds them against the DMA
//! channel on a deterministic integer clock, and returns a
//! [`MemoryAwareSchedule`]: the compute-only [`LayerSchedule`] plus
//! stall/fill/drain cycles, DMA traffic, buffer high-water marks and a
//! roofline classification.  Once a run settles into a steady rhythm the
//! fold advances its remaining passes in closed form, so no pass list is
//! ever built.  Two invariants hold by construction and are pinned by
//! tests:
//!
//! * with [`MemConfig::infinite`] the schedule reproduces the compute-only
//!   cycle count **bit-exactly** for every precision × MAC kind;
//! * total cycles are monotonically non-increasing in DRAM bandwidth.

use bsc_mac::Precision;

use crate::mapping::{ConvShape, DataflowKind, LayerSchedule};
use crate::{ArrayConfig, SystolicError};

#[cfg(test)]
mod oracle;
mod tiler;

pub use tiler::{TilePass, TileSink, Tiling};

pub(crate) use tiler::{tile_input_stationary, tile_output_stationary, tile_weight_stationary};

/// DRAM channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramBandwidth {
    /// Transfers complete in zero cycles (the compute-only idealization).
    Infinite,
    /// A fixed-rate channel moving this many bytes per cycle (≥ 1).
    BytesPerCycle(u64),
}

impl DramBandwidth {
    /// Cycles to move `bytes` over the channel, including the burst setup
    /// latency.  Zero-byte transfers are free (no burst is issued).
    pub fn transfer_cycles(self, burst_latency_cycles: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        match self {
            DramBandwidth::Infinite => 0,
            DramBandwidth::BytesPerCycle(bw) => {
                burst_latency_cycles + bytes.div_ceil(bw.max(1))
            }
        }
    }
}

/// Parameters of the two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Weight SRAM capacity in bytes.
    pub weight_buffer_bytes: u64,
    /// Feature SRAM capacity in bytes.
    pub feature_buffer_bytes: u64,
    /// Output (psum) SRAM capacity in bytes.
    pub output_buffer_bytes: u64,
    /// DRAM channel bandwidth.
    pub bandwidth: DramBandwidth,
    /// Fixed setup latency charged once per DMA burst.
    pub burst_latency_cycles: u64,
    /// Bytes of one partial sum held in the output buffer.
    pub psum_bytes: u64,
}

impl MemConfig {
    /// Unbounded buffers and an instant DRAM channel: schedules degenerate
    /// to the compute-only model bit-exactly.
    pub fn infinite() -> Self {
        MemConfig {
            weight_buffer_bytes: u64::MAX,
            feature_buffer_bytes: u64::MAX,
            output_buffer_bytes: u64::MAX,
            bandwidth: DramBandwidth::Infinite,
            burst_latency_cycles: 0,
            psum_bytes: 4,
        }
    }

    /// An edge-SoC-style configuration: 64 KiB weight / 128 KiB feature /
    /// 64 KiB output buffers behind a 16 B-per-cycle DRAM channel with a
    /// 32-cycle burst latency (≈ 8 GB/s at the paper's 500 MHz clock).
    pub fn edge() -> Self {
        MemConfig {
            weight_buffer_bytes: 64 * 1024,
            feature_buffer_bytes: 128 * 1024,
            output_buffer_bytes: 64 * 1024,
            bandwidth: DramBandwidth::BytesPerCycle(16),
            burst_latency_cycles: 32,
            psum_bytes: 4,
        }
    }

    /// Same buffers, different channel rate.
    pub fn with_bandwidth(mut self, bandwidth: DramBandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Cycles to move `bytes` over the DRAM channel.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.bandwidth.transfer_cycles(self.burst_latency_cycles, bytes)
    }

    /// True when the channel is the compute-only idealization.
    pub fn is_infinite_bandwidth(&self) -> bool {
        self.bandwidth == DramBandwidth::Infinite
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::infinite()
    }
}

/// How often feature vectors cross the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureReuse {
    /// The whole input map is SRAM-resident: each byte loaded once.
    FullMap,
    /// One chunk's input region is resident: loaded once per chunk and
    /// channel tile, reused across kernel offsets.
    ChunkResident,
    /// The region is re-streamed on every pass.
    Streamed,
}

impl FeatureReuse {
    /// Stable lowercase tag for sinks and reports.
    pub fn tag(self) -> &'static str {
        match self {
            FeatureReuse::FullMap => "full-map",
            FeatureReuse::ChunkResident => "chunk-resident",
            FeatureReuse::Streamed => "streamed",
        }
    }
}

/// Which wall of the roofline a layer sits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roofline {
    /// Serial DMA time fits under compute time: the array is the limit.
    ComputeBound,
    /// The DRAM channel is busy longer than the array: memory is the limit.
    BandwidthBound,
}

impl Roofline {
    /// Stable lowercase tag for sinks and reports.
    pub fn tag(self) -> &'static str {
        match self {
            Roofline::ComputeBound => "compute-bound",
            Roofline::BandwidthBound => "bandwidth-bound",
        }
    }
}

impl std::fmt::Display for Roofline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// A [`LayerSchedule`] extended with the memory hierarchy's contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryAwareSchedule {
    /// The compute-only schedule the tiling was derived from.
    pub compute: LayerSchedule,
    /// Stationary-weight tile passes (includes spatial re-chunking).
    pub tile_passes: u64,
    /// Output-row chunks per PE tile (1 when the buffers hold the layer).
    pub spatial_chunks: u64,
    /// Array-busy cycles including per-chunk refill bubbles.  Equals
    /// `compute.cycles` when the buffers hold the whole layer.
    pub compute_cycles: u64,
    /// Cycles the array sat waiting on DMA (includes the initial fill).
    pub stall_cycles: u64,
    /// The initial tile load before the first compute cycle.
    pub fill_cycles: u64,
    /// Trailing DMA after the last compute cycle (final writeback).
    pub drain_cycles: u64,
    /// End-to-end layer cycles: `compute_cycles + stall_cycles +
    /// drain_cycles`.
    pub total_cycles: u64,
    /// DMA load transfer operations issued.
    pub dma_loads: u64,
    /// DMA store (writeback) transfer operations issued.
    pub dma_stores: u64,
    /// Bytes moved DRAM → SRAM.
    pub dma_load_bytes: u64,
    /// Bytes moved SRAM → DRAM.
    pub dma_store_bytes: u64,
    /// Cycles the DMA channel was busy transferring.
    pub dma_busy_cycles: u64,
    /// Cycles of `dma_busy_cycles` spent on loads (DRAM → SRAM).
    pub dma_load_cycles: u64,
    /// Cycles of `dma_busy_cycles` spent on writebacks (SRAM → DRAM).
    pub dma_store_cycles: u64,
    /// Peak bytes resident in the weight buffer.
    pub weight_high_water_bytes: u64,
    /// Peak bytes resident in the feature buffer.
    pub feature_high_water_bytes: u64,
    /// Peak bytes resident in the output buffer.
    pub output_high_water_bytes: u64,
    /// How often feature vectors crossed the DRAM channel.
    pub feature_reuse: FeatureReuse,
    /// Roofline classification of the layer under this hierarchy.
    pub roofline: Roofline,
    /// Useful MACs over `total_cycles ×` peak MACs/cycle.
    pub peak_fraction: f64,
}

impl MemoryAwareSchedule {
    /// Total bytes across the DRAM channel in either direction.
    pub fn dma_bytes(&self) -> u64 {
        self.dma_load_bytes + self.dma_store_bytes
    }

    /// True when the DRAM channel, not the array, limits the layer.
    pub fn is_bandwidth_bound(&self) -> bool {
        self.roofline == Roofline::BandwidthBound
    }
}

/// A static floor on the DRAM traffic of `shape` in mode `p`, valid for
/// **every** tiling [`schedule_conv_with_memory`] can choose:
///
/// * **weights** — the layer's weight volume in vector words crosses the
///   channel at least once: `out_channels × channel_tiles × kernel`
///   vectors (the tiler's chunk-0 loads alone already sum to exactly
///   this; non-resident configurations only re-fetch on top);
/// * **features** — every tiling loads input regions whose row counts
///   sum to at least `min(out_h, in_h)` rows (each chunk's region spans
///   at least as many input rows as it produces output rows, and the
///   full-map case loads the whole `in_h`-row map once);
/// * **outputs** — each partial sum is written back exactly once:
///   `out_pixels × out_channels × psum_bytes` (chunks partition the
///   output rows, so this is an equality in every configuration).
///
/// The floor is therefore `≤` [`MemoryAwareSchedule::dma_bytes`] for
/// every `MemConfig` (pinned by a randomized test below), which makes
/// [`dma_cycles_lower_bound`] a sound admission-time bound.
pub fn min_dma_bytes(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> u64 {
    let vb = tiler::vector_bytes(config);
    let split = config.dot_length(p) as u64;
    let channel_tiles = (shape.in_channels as u64).div_ceil(split.max(1));
    let kernel = (shape.kernel_w * shape.kernel_h) as u64;
    let weight_bytes = (shape.out_channels as u64)
        .saturating_mul(channel_tiles)
        .saturating_mul(kernel)
        .saturating_mul(vb);
    let feature_rows = (shape.out_h() as u64).min(shape.in_h as u64);
    let feature_bytes = feature_rows.saturating_mul(shape.in_w as u64).saturating_mul(vb);
    let store_bytes = ((shape.out_w() * shape.out_h()) as u64)
        .saturating_mul(shape.out_channels as u64)
        .saturating_mul(mem.psum_bytes);
    weight_bytes.saturating_add(feature_bytes).saturating_add(store_bytes)
}

/// A guaranteed lower bound on
/// [`schedule_conv_with_memory`]`(..).total_cycles` that needs no tiling
/// pass: the cycles to move the layer's [`min_dma_bytes`] as one ideal
/// burst.
///
/// Soundness: the replayed schedule ends no earlier than its DMA channel
/// is busy, the channel is busy at least
/// `burst_latency + ceil(Σ bytes / bw)` cycles (every nonzero transfer
/// pays the burst latency at least once, and a sum of per-transfer
/// `ceil`s is at least the `ceil` of the summed bytes), and the actual
/// byte sum never falls below the [`min_dma_bytes`] floor.  Under
/// [`DramBandwidth::Infinite`] the bound is 0, so deadline admission that
/// takes `max(compute_estimate, dma_cycles_lower_bound)` per layer stays
/// a true lower bound on the stall-inclusive schedule — it can never
/// reject a feasible job.
pub fn dma_cycles_lower_bound(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> u64 {
    mem.transfer_cycles(min_dma_bytes(config, mem, p, shape))
}

/// Schedules one layer through the memory hierarchy.
///
/// Tiles the shape per the Fig. 6 loop order and replays the passes
/// against the DMA channel: the load for pass *i + 1* is issued while pass
/// *i* computes (at its end when a buffer cannot hold two tiles),
/// writebacks queue behind loads on the single channel, and a pass stalls
/// until its operands have landed.  The tiler streams its passes as runs
/// of identical passes, and the replay advances each run in closed form
/// once it settles into a steady rhythm.
///
/// # Errors
///
/// Returns [`SystolicError::EmptyShape`] when any shape field is zero or
/// the kernel does not fit the padded input.
pub fn schedule_conv_with_memory(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<MemoryAwareSchedule, SystolicError> {
    schedule_conv_with_memory_dataflow(config, mem, p, shape, DataflowKind::WeightStationary)
}

/// Like [`schedule_conv_with_memory`] with an explicit dataflow: the
/// dataflow's own tiler streams the passes, and the same DMA replay
/// prices them.  With [`DataflowKind::WeightStationary`] this is bit-exact
/// with [`schedule_conv_with_memory`].
///
/// # Errors
///
/// Returns [`SystolicError::EmptyShape`] when any shape field is zero or
/// the kernel does not fit the padded input.
pub fn schedule_conv_with_memory_dataflow(
    config: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
    dataflow: DataflowKind,
) -> Result<MemoryAwareSchedule, SystolicError> {
    let flow = dataflow.instance();
    let compute = flow.schedule(config, p, shape)?;
    let mut fold = RunFold::new(mem);
    flow.tile(config, mem, p, shape, &mut fold);
    let (tiling, dma) = fold.finish();

    let total_cycles = dma.at.clock.max(dma.at.dma_free);
    let drain_cycles = total_cycles - dma.at.clock;
    let dma_busy_cycles = dma.dma_load_cycles + dma.dma_store_cycles;
    debug_assert!(dma.compute_cycles >= compute.cycles);
    debug_assert_eq!(dma.compute_cycles + dma.stall_cycles, dma.at.clock);

    let roofline = if dma_busy_cycles > dma.compute_cycles {
        Roofline::BandwidthBound
    } else {
        Roofline::ComputeBound
    };
    let peak = total_cycles.saturating_mul(config.peak_macs_per_cycle(p) as u64);
    Ok(MemoryAwareSchedule {
        compute,
        tile_passes: dma.passes,
        spatial_chunks: tiling.spatial_chunks,
        compute_cycles: dma.compute_cycles,
        stall_cycles: dma.stall_cycles,
        fill_cycles: dma.fill_cycles,
        drain_cycles,
        total_cycles,
        dma_loads: dma.dma_loads,
        dma_stores: dma.dma_stores,
        dma_load_bytes: dma.dma_load_bytes,
        dma_store_bytes: dma.dma_store_bytes,
        dma_busy_cycles,
        dma_load_cycles: dma.dma_load_cycles,
        dma_store_cycles: dma.dma_store_cycles,
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
    })
}

/// The replay's timestamps between two passes, plus the writeback still
/// waiting for the channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Channel {
    /// When the array finishes its last pass.
    clock: u64,
    /// Earliest cycle the next pass's load may issue: the last pass's
    /// start under double buffering, its end otherwise.
    issue: u64,
    /// When the DMA channel is next free, before `in_flight`.
    dma_free: u64,
    /// Transfer cycles of the last pass's writeback, which queues behind
    /// the next pass's load and may start once the pass ends (`clock`).
    in_flight: Option<u64>,
}

impl Channel {
    /// The Δ by which one step moved every timestamp from `before`, when
    /// it moved them all alike and left the in-flight store unchanged.
    fn shift_since(&self, before: &Channel) -> Option<u64> {
        let delta = self.clock - before.clock;
        (self.in_flight == before.in_flight
            && self.issue - before.issue == delta
            && self.dma_free - before.dma_free == delta)
            .then_some(delta)
    }
}

/// What the fold accrues over a layer's passes.
#[derive(Debug, Default, PartialEq, Eq)]
struct DmaTotals {
    at: Channel,
    passes: u64,
    fill_cycles: u64,
    stall_cycles: u64,
    compute_cycles: u64,
    dma_load_cycles: u64,
    dma_store_cycles: u64,
    dma_loads: u64,
    dma_stores: u64,
    dma_load_bytes: u64,
    dma_store_bytes: u64,
}

/// The DMA replay as a fold over a tiler's runs.
///
/// Adjacent equal passes merge into one run.  A run advances one pass at
/// a time until a step shifts `clock`, `issue` and `dma_free` all by the
/// same Δ with the same store in flight.  The step only adds constants
/// and takes maxima, so shifting its input by Δ shifts its output by Δ:
/// every later step of the run then repeats that shift and that stall, and
/// the remaining `k` steps add `k·Δ` to each timestamp and `k` times the
/// step's increments to each counter.
struct RunFold<'m> {
    mem: &'m MemConfig,
    tiling: Option<Tiling>,
    /// The run being merged, not yet replayed.
    run: Option<(TilePass, u64)>,
    totals: DmaTotals,
}

impl<'m> RunFold<'m> {
    fn new(mem: &'m MemConfig) -> Self {
        RunFold { mem, tiling: None, run: None, totals: DmaTotals::default() }
    }

    /// Replays `count` copies of `pass`.
    fn advance(&mut self, pass: TilePass, count: u64) {
        let load = self.mem.transfer_cycles(pass.load_bytes);
        let store = (pass.store_bytes > 0).then(|| self.mem.transfer_cycles(pass.store_bytes));
        let double_buffered = self.tiling.is_some_and(|t| t.double_buffered);
        let d = &mut self.totals;
        if d.passes == 0 {
            // The first tile has nothing to overlap with: its load is the fill.
            d.fill_cycles = load;
        }
        d.passes += count;
        d.compute_cycles += count * pass.compute_cycles;
        d.dma_load_cycles += count * load;
        d.dma_loads += count * pass.loads;
        d.dma_load_bytes += count * pass.load_bytes;
        if let Some(t) = store {
            d.dma_store_cycles += count * t;
            d.dma_stores += count;
            d.dma_store_bytes += count * pass.store_bytes;
        }

        for left in (0..count).rev() {
            let before = d.at;
            let at = &mut d.at;
            at.dma_free = at.issue.max(at.dma_free) + load;
            let ready = at.dma_free;
            if let Some(t) = at.in_flight {
                // The last pass's writeback queues behind this load.
                at.dma_free = at.dma_free.max(at.clock) + t;
            }
            let start = at.clock.max(ready);
            let stall = start - at.clock;
            let end = start + pass.compute_cycles;
            // Double buffering prefetches during compute; without the spare
            // buffer the next load must wait for this pass to release its tile.
            at.issue = if double_buffered { start } else { end };
            at.clock = end;
            at.in_flight = store;
            d.stall_cycles += stall;
            if let Some(delta) = at.shift_since(&before) {
                at.clock += left * delta;
                at.issue += left * delta;
                at.dma_free += left * delta;
                d.stall_cycles += left * stall;
                break;
            }
        }
    }

    /// Replays the last run and its writeback.
    fn finish(mut self) -> (Tiling, DmaTotals) {
        if let Some((pass, count)) = self.run.take() {
            self.advance(pass, count);
        }
        let at = &mut self.totals.at;
        if let Some(t) = at.in_flight.take() {
            at.dma_free = at.dma_free.max(at.clock) + t;
        }
        (self.tiling.expect("every tiler plans before its first pass"), self.totals)
    }
}

impl TileSink for RunFold<'_> {
    fn plan(&mut self, tiling: &Tiling) {
        self.tiling = Some(*tiling);
    }

    fn run(&mut self, pass: TilePass, count: u64) {
        if let Some((run, n)) = &mut self.run {
            if *run == pass {
                *n += count;
                return;
            }
        }
        if let Some((run, n)) = self.run.replace((pass, count)) {
            self.advance(run, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::schedule_conv;
    use bsc_mac::MacKind;
    use bsc_netlist::rng::Rng64;

    /// A Table-I-style workload: VGG-ish 3×3 conv over a 56×56 map.
    fn table1_layer() -> ConvShape {
        ConvShape::conv(128, 256, 56, 56, 3, 1, 1)
    }

    #[test]
    fn infinite_memory_reproduces_compute_only_cycles_bit_exactly() {
        let mem = MemConfig::infinite();
        let shapes = [
            table1_layer(),
            ConvShape::conv(3, 32, 32, 32, 3, 1, 1),
            ConvShape::conv(64, 64, 7, 7, 1, 1, 0),
            ConvShape::fully_connected(512, 10),
        ];
        for kind in MacKind::ALL {
            let config = ArrayConfig::paper(kind);
            for p in Precision::ALL {
                for shape in &shapes {
                    let base = schedule_conv(&config, p, shape).unwrap();
                    let aware =
                        schedule_conv_with_memory(&config, &mem, p, shape).unwrap();
                    assert_eq!(aware.compute, base, "{kind} {p}");
                    assert_eq!(aware.total_cycles, base.cycles, "{kind} {p}");
                    assert_eq!(aware.compute_cycles, base.cycles, "{kind} {p}");
                    assert_eq!(aware.stall_cycles, 0, "{kind} {p}");
                    assert_eq!(aware.drain_cycles, 0, "{kind} {p}");
                    assert_eq!(aware.roofline, Roofline::ComputeBound);
                    // Traffic is still accounted even though it is free.
                    assert!(aware.dma_load_bytes > 0);
                }
            }
        }
    }

    #[test]
    fn infinite_memory_is_bit_exact_for_every_dataflow() {
        // Each dataflow's tiler must replay to its own compute-only cycle
        // count bit-exactly when the buffers and channel are unbounded.
        use crate::mapping::schedule_conv_dataflow;
        let mem = MemConfig::infinite();
        let shapes = [
            table1_layer(),
            ConvShape::conv(3, 32, 32, 32, 3, 1, 1),
            ConvShape::conv(64, 64, 7, 7, 1, 1, 0),
            ConvShape::fully_connected(512, 10),
        ];
        for kind in MacKind::ALL {
            let config = ArrayConfig::paper(kind);
            for p in Precision::ALL {
                for shape in &shapes {
                    for dataflow in DataflowKind::ALL {
                        let base =
                            schedule_conv_dataflow(&config, p, shape, dataflow).unwrap();
                        let aware = schedule_conv_with_memory_dataflow(
                            &config, &mem, p, shape, dataflow,
                        )
                        .unwrap();
                        assert_eq!(aware.compute, base, "{kind} {p} {dataflow}");
                        assert_eq!(aware.total_cycles, base.cycles, "{kind} {p} {dataflow}");
                        assert_eq!(aware.stall_cycles, 0, "{kind} {p} {dataflow}");
                        assert_eq!(aware.roofline, Roofline::ComputeBound);
                    }
                }
            }
        }
    }

    #[test]
    fn weight_stationary_dataflow_entry_point_is_bit_exact() {
        // The explicit-dataflow scheduler with WeightStationary must equal
        // the legacy entry point field for field, finite memory included.
        let mut rng = Rng64::seed_from_u64(0xd5e_0002);
        for _ in 0..48 {
            let shape = ConvShape {
                in_channels: 1 + (rng.next_u64() % 300) as usize,
                out_channels: 1 + (rng.next_u64() % 96) as usize,
                in_w: 3 + (rng.next_u64() % 30) as usize,
                in_h: 3 + (rng.next_u64() % 30) as usize,
                kernel_w: 1 + (rng.next_u64() % 3) as usize,
                kernel_h: 1 + (rng.next_u64() % 3) as usize,
                stride: 1 + (rng.next_u64() % 2) as usize,
                padding: (rng.next_u64() % 2) as usize,
            };
            let kind = MacKind::ALL[(rng.next_u64() % 3) as usize];
            let config = ArrayConfig::paper(kind);
            for p in Precision::ALL {
                for mem in [
                    MemConfig::infinite(),
                    MemConfig::edge(),
                    MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(2)),
                ] {
                    let legacy =
                        schedule_conv_with_memory(&config, &mem, p, &shape).unwrap();
                    let explicit = schedule_conv_with_memory_dataflow(
                        &config,
                        &mem,
                        p,
                        &shape,
                        DataflowKind::WeightStationary,
                    )
                    .unwrap();
                    assert_eq!(legacy, explicit, "{shape:?} {kind} {p} {mem:?}");
                }
            }
        }
    }

    #[test]
    fn total_cycles_are_monotone_in_bandwidth_for_every_dataflow() {
        let mut rng = Rng64::seed_from_u64(0xd5e_0003);
        for _ in 0..24 {
            let shape = ConvShape {
                in_channels: 1 + (rng.next_u64() % 200) as usize,
                out_channels: 1 + (rng.next_u64() % 80) as usize,
                in_w: 3 + (rng.next_u64() % 24) as usize,
                in_h: 3 + (rng.next_u64() % 24) as usize,
                kernel_w: 1 + (rng.next_u64() % 3) as usize,
                kernel_h: 1 + (rng.next_u64() % 3) as usize,
                stride: 1 + (rng.next_u64() % 2) as usize,
                padding: (rng.next_u64() % 2) as usize,
            };
            let kind = MacKind::ALL[(rng.next_u64() % 3) as usize];
            let p = Precision::ALL[(rng.next_u64() % 3) as usize];
            let config = ArrayConfig::paper(kind);
            for dataflow in DataflowKind::ALL {
                let mut prev = u64::MAX;
                for bw in [1, 4, 16, 64, 1024] {
                    let mem = MemConfig::edge()
                        .with_bandwidth(DramBandwidth::BytesPerCycle(bw));
                    let aware = schedule_conv_with_memory_dataflow(
                        &config, &mem, p, &shape, dataflow,
                    )
                    .unwrap();
                    assert!(
                        aware.total_cycles <= prev,
                        "bw {bw} slowed {shape:?} {kind} {p} {dataflow}"
                    );
                    prev = aware.total_cycles;
                }
            }
        }
    }

    #[test]
    fn finite_bandwidth_stalls_a_table1_layer() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let mem = MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1));
        let aware =
            schedule_conv_with_memory(&config, &mem, Precision::Int8, &table1_layer())
                .unwrap();
        assert!(aware.stall_cycles > 0, "expected stalls at 1 B/cycle");
        assert!(aware.total_cycles > aware.compute_cycles);
        assert_eq!(aware.roofline, Roofline::BandwidthBound);
        assert!(aware.peak_fraction < aware.compute.utilization);
    }

    #[test]
    fn total_cycles_are_monotone_in_bandwidth() {
        // Property: for random shapes, widening the DRAM channel never
        // makes a layer slower, and infinite bandwidth is the floor.
        let mut rng = Rng64::seed_from_u64(0x5eed_0e30);
        for _ in 0..64 {
            let shape = ConvShape {
                in_channels: 1 + (rng.next_u64() % 300) as usize,
                out_channels: 1 + (rng.next_u64() % 96) as usize,
                in_w: 3 + (rng.next_u64() % 30) as usize,
                in_h: 3 + (rng.next_u64() % 30) as usize,
                kernel_w: 1 + (rng.next_u64() % 3) as usize,
                kernel_h: 1 + (rng.next_u64() % 3) as usize,
                stride: 1 + (rng.next_u64() % 2) as usize,
                padding: (rng.next_u64() % 2) as usize,
            };
            let kind = MacKind::ALL[(rng.next_u64() % 3) as usize];
            let p = Precision::ALL[(rng.next_u64() % 3) as usize];
            let config = ArrayConfig::paper(kind);
            let mut prev = u64::MAX;
            for bw in [1, 2, 4, 8, 16, 32, 64, 128, 1024] {
                let mem =
                    MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(bw));
                let aware =
                    schedule_conv_with_memory(&config, &mem, p, &shape).unwrap();
                assert!(
                    aware.total_cycles <= prev,
                    "bw {bw} slowed {shape:?} {kind} {p}: {} > {prev}",
                    aware.total_cycles
                );
                prev = aware.total_cycles;
            }
            let ideal = MemConfig::edge().with_bandwidth(DramBandwidth::Infinite);
            let floor = schedule_conv_with_memory(&config, &ideal, p, &shape).unwrap();
            assert!(floor.total_cycles <= prev);
        }
    }

    #[test]
    fn double_buffering_hides_traffic_a_serial_channel_cannot() {
        // With double buffering the end-to-end time is at most what a
        // fully serial load→compute→store schedule would take.
        let config = ArrayConfig::paper(MacKind::Bsc);
        let mem = MemConfig::edge();
        let aware =
            schedule_conv_with_memory(&config, &mem, Precision::Int8, &table1_layer())
                .unwrap();
        let serial = aware.compute_cycles + aware.dma_busy_cycles;
        assert!(aware.total_cycles <= serial);
        // And it genuinely overlapped: strictly better than serial.
        assert!(aware.total_cycles < serial);
    }

    #[test]
    fn bytes_are_bandwidth_independent() {
        let config = ArrayConfig::paper(MacKind::Hps);
        let shape = table1_layer();
        let narrow = MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1));
        let wide = MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(256));
        let a = schedule_conv_with_memory(&config, &narrow, Precision::Int8, &shape).unwrap();
        let b = schedule_conv_with_memory(&config, &wide, Precision::Int8, &shape).unwrap();
        assert_eq!(a.dma_load_bytes, b.dma_load_bytes);
        assert_eq!(a.dma_store_bytes, b.dma_store_bytes);
        assert_eq!(a.dma_loads, b.dma_loads);
    }

    #[test]
    fn dma_floor_never_exceeds_scheduled_traffic_or_cycles() {
        // The admission-time floor must hold for every tiling the
        // scheduler can pick: random shapes × kinds × precisions ×
        // hierarchies, including buffer-starved configurations that force
        // chunked and streamed residency.
        let mut rng = Rng64::seed_from_u64(0x0D11_AB07);
        let tiny = MemConfig {
            weight_buffer_bytes: 256,
            feature_buffer_bytes: 1024,
            output_buffer_bytes: 2048,
            bandwidth: DramBandwidth::BytesPerCycle(8),
            burst_latency_cycles: 16,
            psum_bytes: 4,
        };
        for _ in 0..96 {
            let shape = ConvShape {
                in_channels: 1 + (rng.next_u64() % 200) as usize,
                out_channels: 1 + (rng.next_u64() % 80) as usize,
                in_w: 3 + (rng.next_u64() % 24) as usize,
                in_h: 3 + (rng.next_u64() % 24) as usize,
                kernel_w: 1 + (rng.next_u64() % 3) as usize,
                kernel_h: 1 + (rng.next_u64() % 3) as usize,
                stride: 1 + (rng.next_u64() % 3) as usize,
                padding: (rng.next_u64() % 2) as usize,
            };
            let kind = MacKind::ALL[(rng.next_u64() % 3) as usize];
            let p = Precision::ALL[(rng.next_u64() % 3) as usize];
            let config = ArrayConfig::paper(kind);
            for mem in [
                MemConfig::infinite(),
                MemConfig::edge(),
                MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1)),
                tiny,
            ] {
                let aware = schedule_conv_with_memory(&config, &mem, p, &shape).unwrap();
                let floor = min_dma_bytes(&config, &mem, p, &shape);
                assert!(floor > 0, "{shape:?} {kind} {p}");
                assert!(
                    floor <= aware.dma_bytes(),
                    "byte floor {floor} > scheduled {} for {shape:?} {kind} {p} {mem:?}",
                    aware.dma_bytes()
                );
                let lb = dma_cycles_lower_bound(&config, &mem, p, &shape);
                assert!(
                    lb <= aware.total_cycles,
                    "cycle bound {lb} > scheduled {} for {shape:?} {kind} {p} {mem:?}",
                    aware.total_cycles
                );
            }
        }
    }

    #[test]
    fn dma_lower_bound_rises_above_compute_when_starved() {
        // At 1 B/cycle the admission-visible DMA bound must exceed the
        // compute-only cycle count — the property the engine's DMA-aware
        // deadline admission depends on to reject doomed jobs up front.
        let config = ArrayConfig::paper(MacKind::Bsc);
        let mem = MemConfig::edge().with_bandwidth(DramBandwidth::BytesPerCycle(1));
        let shape = table1_layer();
        let compute = schedule_conv(&config, Precision::Int8, &shape).unwrap().cycles;
        let lb = dma_cycles_lower_bound(&config, &mem, Precision::Int8, &shape);
        assert!(lb > compute, "lb {lb} vs compute {compute}");
        // And under an infinite channel the bound vanishes.
        assert_eq!(
            dma_cycles_lower_bound(&config, &MemConfig::infinite(), Precision::Int8, &shape),
            0
        );
    }

    #[test]
    fn transfer_cycles_charge_burst_latency_once() {
        let mem = MemConfig::edge(); // 16 B/cycle, 32-cycle burst
        assert_eq!(mem.transfer_cycles(0), 0);
        assert_eq!(mem.transfer_cycles(1), 32 + 1);
        assert_eq!(mem.transfer_cycles(16), 32 + 1);
        assert_eq!(mem.transfer_cycles(17), 32 + 2);
        assert_eq!(MemConfig::infinite().transfer_cycles(1 << 40), 0);
    }
}
