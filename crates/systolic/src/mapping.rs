//! Convolution-to-matrix mapping and tile scheduling (paper Fig. 6).
//!
//! The channel dimensions `K_C`/`I_C` are split to the mode's dot length
//! (32/128/256 for the BSC array), the output-channel dimension `K_N` to
//! the 32 PEs, and the spatial loops run `W` before `H`.  One *pass* holds
//! one (kernel-offset, channel-tile, PE-tile) triple of weights stationary
//! while all output pixels stream through; partial sums accumulate in the
//! output buffer across passes.
//!
//! Every tile but the last of a split dimension is full, and the tile
//! widths sum to the dimension, so each dataflow's schedule is a closed
//! form in the layer's loop bounds (see [`LayerSchedule`]).  That makes
//! a layer O(1) to schedule; a sum over its (PE tile, channel tile)
//! pairs would take 3.2M steps for VGG-16's FC6 at int8 on a 4-PE array.
//! The per-tile loops are kept as test oracles (`mapping/oracle.rs`).

use bsc_mac::Precision;

use crate::mem::{MemConfig, TileSink};
use crate::{ArrayConfig, SystolicError};

#[cfg(test)]
mod oracle;

/// Shape of one convolution (or fully connected) layer.
///
/// A fully connected layer is the special case `kernel = 1×1`,
/// `spatial = 1×1`, `in_channels = fan-in`.
///
/// # Example
///
/// ```
/// use bsc_systolic::mapping::ConvShape;
///
/// let conv3x3 = ConvShape::conv(64, 128, 32, 32, 3, 1, 1);
/// assert_eq!(conv3x3.out_w(), 32);
/// assert_eq!(conv3x3.macs(), 128 * 32 * 32 * 9 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels `I_C`.
    pub in_channels: usize,
    /// Output channels `K_N`.
    pub out_channels: usize,
    /// Input feature-map width `I_W`.
    pub in_w: usize,
    /// Input feature-map height `I_H`.
    pub in_h: usize,
    /// Kernel width `K_W`.
    pub kernel_w: usize,
    /// Kernel height `K_H`.
    pub kernel_h: usize,
    /// Spatial stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvShape {
    /// A square-kernel convolution layer.
    pub fn conv(
        in_channels: usize,
        out_channels: usize,
        in_w: usize,
        in_h: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        ConvShape {
            in_channels,
            out_channels,
            in_w,
            in_h,
            kernel_w: kernel,
            kernel_h: kernel,
            stride,
            padding,
        }
    }

    /// A fully connected layer as a degenerate 1×1 convolution.
    pub fn fully_connected(fan_in: usize, fan_out: usize) -> Self {
        ConvShape {
            in_channels: fan_in,
            out_channels: fan_out,
            in_w: 1,
            in_h: 1,
            kernel_w: 1,
            kernel_h: 1,
            stride: 1,
            padding: 0,
        }
    }

    /// Output width; 0 when the kernel is wider than the padded input.
    pub fn out_w(&self) -> usize {
        out_len(self.in_w, self.padding, self.kernel_w, self.stride)
    }

    /// Output height; 0 when the kernel is taller than the padded input.
    pub fn out_h(&self) -> usize {
        out_len(self.in_h, self.padding, self.kernel_h, self.stride)
    }

    /// Exact multiply-accumulate count of the layer (per input image).
    pub fn macs(&self) -> u64 {
        self.out_channels as u64
            * self.out_w() as u64
            * self.out_h() as u64
            * self.kernel_w as u64
            * self.kernel_h as u64
            * self.in_channels as u64
    }

    /// Number of weight values in the layer.
    pub fn weight_count(&self) -> u64 {
        self.out_channels as u64
            * self.in_channels as u64
            * self.kernel_w as u64
            * self.kernel_h as u64
    }

    fn validate(&self) -> Result<(), SystolicError> {
        for (name, v) in [
            ("in_channels", self.in_channels),
            ("out_channels", self.out_channels),
            ("in_w", self.in_w),
            ("in_h", self.in_h),
            ("kernel_w", self.kernel_w),
            ("kernel_h", self.kernel_h),
            ("stride", self.stride),
        ] {
            if v == 0 {
                return Err(SystolicError::EmptyShape(name));
            }
        }
        // A kernel that does not fit the padded input leaves no output.
        for (axis, v) in [("out_w", self.out_w()), ("out_h", self.out_h())] {
            if v == 0 {
                return Err(SystolicError::EmptyShape(axis));
            }
        }
        Ok(())
    }
}

/// Output positions along one axis of a strided, padded convolution.
fn out_len(input: usize, padding: usize, kernel: usize, stride: usize) -> usize {
    (input + 2 * padding)
        .checked_sub(kernel)
        .map_or(0, |span| span / stride + 1)
}

/// The cycle/energy-relevant schedule of one layer on the array.
///
/// Every field is a closed form in the layer's loop bounds: `K` kernel
/// offsets, `S` output pixels, `N` output channels, `C` input channels
/// split into `CT = ⌈C / D⌉` channel tiles of the mode's dot length `D`,
/// and the `R` PEs, which tile `N` into `PT = ⌈N / R⌉` PE tiles
/// (weight- and output-stationary) or `S` into `ST = ⌈S / R⌉` spatial
/// tiles (input-stationary).  The formulas below are written WS / OS /
/// IS where the dataflows differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSchedule {
    /// Stationary residencies: `K·CT·PT` weight tiles / `S·PT` psum
    /// tiles / `K·CT·ST` pixel tiles.
    pub passes: u64,
    /// Total clock cycles, with one pipeline fill per pass (WS, IS) or
    /// per PE tile (OS): `K·CT·(PT·(S−1) + N)` / `PT·(S·K·CT − 1) + N` /
    /// `K·CT·(ST·(N−1) + S)`.
    pub cycles: u64,
    /// Useful MACs, `K·S·N·C`: the layer's exact MAC count.
    pub useful_macs: u64,
    /// Lane-slots that fire in partially filled vectors without carrying a
    /// useful channel (gated lanes): `K·S·N·(CT·D − C)`.
    pub gated_lane_macs: u64,
    /// PE-cycles spent computing, one per (pixel, output channel, kernel
    /// offset, channel tile) under every dataflow: `K·S·N·CT`.
    pub busy_pe_cycles: u64,
    /// PE-cycles spent idle (fill/drain bubbles and unused PEs):
    /// `cycles·R − busy_pe_cycles`.
    pub idle_pe_cycles: u64,
    /// Useful MACs over peak MACs, `useful_macs / (cycles·R·D)` (array
    /// utilization).
    pub utilization: f64,
    /// Weight vectors fetched from the weight buffer: one per PE per
    /// pass, `K·CT·N` / one per PE per accumulation step, `S·K·CT·N` /
    /// all `N` per pass, `K·CT·N·ST`.
    pub weight_load_vectors: u64,
    /// Feature vectors fetched from the feature buffer: one per output
    /// pixel per pass, re-read across PE tiles, `K·S·CT·PT` / one per
    /// (pixel, step) per PE tile, `S·K·CT·PT` / one per pinned pixel per
    /// pass, `K·CT·S`.
    pub feature_read_vectors: u64,
    /// Partial-sum words read back from the output buffer for accumulation.
    /// One per PE fire under weight- and input-stationary dataflows; zero
    /// under output-stationary, where psums stay in the PE accumulators.
    pub psum_read_words: u64,
    /// Partial-sum words written to the output buffer.  One per PE fire
    /// when accumulation round-trips the buffer; one per finished output
    /// under output-stationary.
    pub psum_write_words: u64,
}

/// Identifies one of the three supported dataflows.
///
/// Every variant maps to a `'static` [`Dataflow`] implementation via
/// [`DataflowKind::instance`]; manifests and reports use the stable
/// [`DataflowKind::tag`] spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataflowKind {
    /// The paper's Fig. 6 dataflow: weights pinned in the PEs.
    #[default]
    WeightStationary,
    /// Partial sums pinned in the PE accumulators.
    OutputStationary,
    /// Feature vectors pinned in the PEs.
    InputStationary,
}

impl DataflowKind {
    /// All dataflows in sweep order.
    pub const ALL: [DataflowKind; 3] = [
        DataflowKind::WeightStationary,
        DataflowKind::OutputStationary,
        DataflowKind::InputStationary,
    ];

    /// Stable lowercase tag for manifests, sinks and reports.
    pub fn tag(self) -> &'static str {
        match self {
            DataflowKind::WeightStationary => "weight-stationary",
            DataflowKind::OutputStationary => "output-stationary",
            DataflowKind::InputStationary => "input-stationary",
        }
    }

    /// Parses a [`DataflowKind::tag`] spelling.
    pub fn parse(tag: &str) -> Option<DataflowKind> {
        DataflowKind::ALL.into_iter().find(|d| d.tag() == tag)
    }

    /// The `'static` implementation behind this kind.
    pub fn instance(self) -> &'static dyn Dataflow {
        match self {
            DataflowKind::WeightStationary => &WeightStationary,
            DataflowKind::OutputStationary => &OutputStationary,
            DataflowKind::InputStationary => &InputStationary,
        }
    }
}

impl std::fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// A mapping dataflow: how one layer's loop nest is pinned onto the array.
///
/// Implementations produce both books the rest of the stack consumes —
/// the compute-only [`LayerSchedule`] (cycles, lane accounting, SRAM
/// vector traffic, psum round trips) and the buffer-sized tiling, which
/// they stream as a residency plan plus runs of identical passes into a
/// [`TileSink`]; the DMA replay in [`crate::mem`] folds that stream into a
/// stall-accurate schedule.  Two invariants hold for every
/// implementation and are pinned by tests:
///
/// * `useful_macs + gated_lane_macs == busy_pe_cycles × dot_length` and
///   `useful_macs` equals the layer's exact MAC count;
/// * under [`MemConfig::infinite`] the tiling replays to the
///   compute-only cycle count bit-exactly.
pub trait Dataflow: Sync {
    /// Which dataflow this is.
    fn kind(&self) -> DataflowKind;

    /// The compute-only schedule of one layer in mode `p`.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::EmptyShape`] when any shape field is zero or
    /// the kernel does not fit the padded input.
    fn schedule(
        &self,
        config: &ArrayConfig,
        p: Precision,
        shape: &ConvShape,
    ) -> Result<LayerSchedule, SystolicError>;

    /// Splits the layer into buffer-sized tile passes for the DMA replay:
    /// hands `sink` the residency plan, then every pass in execution order
    /// as runs of identical passes.
    ///
    /// The shape must already have passed validation (callers run
    /// [`Dataflow::schedule`] first, which rejects zero fields and empty
    /// outputs).
    fn tile(
        &self,
        config: &ArrayConfig,
        mem: &MemConfig,
        p: Precision,
        shape: &ConvShape,
        sink: &mut dyn TileSink,
    );
}

/// The paper's Fig. 6 dataflow: one (kernel-offset, channel-tile, PE-tile)
/// triple of weights stays stationary while every output pixel streams
/// through; partial sums round-trip the output buffer across passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightStationary;

/// Output-stationary dataflow: each PE accumulates one output pixel's
/// partial sum in place across all kernel offsets and channel tiles
/// (`kernel × channel_tiles` consecutive steps per pixel), so psums never
/// round-trip the output buffer — but the weight vectors must be
/// re-streamed on every step.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputStationary;

/// Input-stationary dataflow: feature vectors are pinned in the PEs (one
/// output pixel per PE) while the out-channel weight vectors stream
/// through the chain, so each feature vector is fetched once per kernel
/// offset instead of once per PE tile.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputStationary;

impl Dataflow for WeightStationary {
    fn kind(&self) -> DataflowKind {
        DataflowKind::WeightStationary
    }

    fn schedule(
        &self,
        config: &ArrayConfig,
        p: Precision,
        shape: &ConvShape,
    ) -> Result<LayerSchedule, SystolicError> {
        schedule_conv(config, p, shape)
    }

    fn tile(
        &self,
        config: &ArrayConfig,
        mem: &MemConfig,
        p: Precision,
        shape: &ConvShape,
        sink: &mut dyn TileSink,
    ) {
        crate::mem::tile_weight_stationary(config, mem, p, shape, sink)
    }
}

impl Dataflow for OutputStationary {
    fn kind(&self) -> DataflowKind {
        DataflowKind::OutputStationary
    }

    fn schedule(
        &self,
        config: &ArrayConfig,
        p: Precision,
        shape: &ConvShape,
    ) -> Result<LayerSchedule, SystolicError> {
        schedule_output_stationary(config, p, shape)
    }

    fn tile(
        &self,
        config: &ArrayConfig,
        mem: &MemConfig,
        p: Precision,
        shape: &ConvShape,
        sink: &mut dyn TileSink,
    ) {
        crate::mem::tile_output_stationary(config, mem, p, shape, sink)
    }
}

impl Dataflow for InputStationary {
    fn kind(&self) -> DataflowKind {
        DataflowKind::InputStationary
    }

    fn schedule(
        &self,
        config: &ArrayConfig,
        p: Precision,
        shape: &ConvShape,
    ) -> Result<LayerSchedule, SystolicError> {
        schedule_input_stationary(config, p, shape)
    }

    fn tile(
        &self,
        config: &ArrayConfig,
        mem: &MemConfig,
        p: Precision,
        shape: &ConvShape,
        sink: &mut dyn TileSink,
    ) {
        crate::mem::tile_input_stationary(config, mem, p, shape, sink)
    }
}

/// Schedules one layer under an explicit dataflow.
///
/// # Errors
///
/// Returns [`SystolicError::EmptyShape`] when any shape field is zero or
/// the kernel does not fit the padded input.
pub fn schedule_conv_dataflow(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
    dataflow: DataflowKind,
) -> Result<LayerSchedule, SystolicError> {
    dataflow.instance().schedule(config, p, shape)
}

/// Schedules one layer on the array in mode `p` per the Fig. 6 mapping
/// (the weight-stationary dataflow).
///
/// # Errors
///
/// Returns [`SystolicError::EmptyShape`] when any shape field is zero or
/// the kernel does not fit the padded input.
pub fn schedule_conv(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<LayerSchedule, SystolicError> {
    shape.validate()?;
    let nest = LoopNest::new(config, p, shape);
    let LoopNest { kernel, spatial, out_channels, channel_tiles, .. } = nest;
    let pe_tiles = shape.out_channels.div_ceil(config.pes) as u64;
    // One pass per (kernel offset, channel tile, PE tile): the PE tile's
    // weights stay stationary while every output pixel streams through,
    // after a fill one cycle shorter than the tile is wide.  The tile
    // widths sum to `out_channels`.
    let cycles = kernel * channel_tiles * (pe_tiles * (spatial - 1) + out_channels);
    Ok(LayerSchedule {
        passes: kernel * channel_tiles * pe_tiles,
        // One weight vector per PE per pass.
        weight_load_vectors: kernel * channel_tiles * out_channels,
        // One feature vector per output pixel per pass.
        feature_read_vectors: kernel * spatial * channel_tiles * pe_tiles,
        ..nest.schedule(config, cycles)
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
    let nest = LoopNest::new(config, p, shape);
    let LoopNest { kernel, spatial, out_channels, channel_tiles, .. } = nest;
    let pe_tiles = shape.out_channels.div_ceil(config.pes) as u64;
    // Accumulation steps per output pixel: its whole reduction runs to
    // completion before the pixel leaves the PE.
    let steps = kernel * channel_tiles;
    // One fill per PE tile; every pixel then streams its full reduction.
    let cycles = pe_tiles * (spatial * steps - 1) + out_channels;
    Ok(LayerSchedule {
        // One stationary psum residency per (pixel, PE tile).
        passes: spatial * pe_tiles,
        // Weights cannot stay: one vector per PE per accumulation step.
        weight_load_vectors: spatial * steps * out_channels,
        // Features hop through the chain once per (pixel, step) per tile.
        feature_read_vectors: spatial * steps * pe_tiles,
        // Psums live in the PE accumulators: no read-modify-write, one
        // buffer write per finished output value.
        psum_read_words: 0,
        psum_write_words: spatial * out_channels,
        ..nest.schedule(config, cycles)
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
    let nest = LoopNest::new(config, p, shape);
    let LoopNest { kernel, spatial, out_channels, channel_tiles, .. } = nest;
    let spatial_tiles = spatial.div_ceil(config.pes as u64);
    // One pass per (kernel offset, channel tile, spatial tile): the pinned
    // pixels watch all out-channel weight vectors stream past, after a
    // fill one cycle shorter than the tile is wide.  The tile widths sum
    // to `spatial`.
    let cycles = kernel * channel_tiles * (spatial_tiles * (out_channels - 1) + spatial);
    Ok(LayerSchedule {
        passes: kernel * channel_tiles * spatial_tiles,
        // Every pass streams all out-channel weight vectors.
        weight_load_vectors: kernel * channel_tiles * out_channels * spatial_tiles,
        // One feature vector per pinned pixel per pass.
        feature_read_vectors: kernel * channel_tiles * spatial,
        ..nest.schedule(config, cycles)
    })
}

/// The loop bounds of one layer that every dataflow shares.
struct LoopNest {
    /// Kernel offsets, `kernel_w × kernel_h`.
    kernel: u64,
    /// Output pixels, `out_w × out_h`.
    spatial: u64,
    /// Output channels `K_N`.
    out_channels: u64,
    /// Input channels `I_C`.
    in_channels: u64,
    /// The mode's dot length: lanes per PE fire.
    split: u64,
    /// `ceil(in_channels / split)`.
    channel_tiles: u64,
}

impl LoopNest {
    fn new(config: &ArrayConfig, p: Precision, shape: &ConvShape) -> LoopNest {
        let split = config.dot_length(p);
        LoopNest {
            kernel: (shape.kernel_w * shape.kernel_h) as u64,
            spatial: (shape.out_w() * shape.out_h()) as u64,
            out_channels: shape.out_channels as u64,
            in_channels: shape.in_channels as u64,
            split: split as u64,
            channel_tiles: shape.in_channels.div_ceil(split) as u64,
        }
    }

    /// The fields every dataflow computes alike for a layer that takes
    /// `cycles`: each fires a PE once per (output pixel, output channel,
    /// kernel offset, channel tile), the last channel tile gates the
    /// lanes the layer's channels leave empty, and psums round-trip the
    /// output buffer on every fire.  The caller sets the passes and the
    /// vector traffic, which start at zero.
    fn schedule(&self, config: &ArrayConfig, cycles: u64) -> LayerSchedule {
        let fires = self.kernel * self.spatial * self.out_channels;
        let busy = fires * self.channel_tiles;
        let useful = fires * self.in_channels;
        let pe_cycles = cycles * config.pes as u64;
        let peak = pe_cycles * self.split;
        LayerSchedule {
            passes: 0,
            cycles,
            useful_macs: useful,
            gated_lane_macs: fires * (self.channel_tiles * self.split - self.in_channels),
            busy_pe_cycles: busy,
            idle_pe_cycles: pe_cycles - busy,
            utilization: if peak > 0 { useful as f64 / peak as f64 } else { 0.0 },
            weight_load_vectors: 0,
            feature_read_vectors: 0,
            psum_read_words: busy,
            psum_write_words: busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_mac::MacKind;

    fn paper_bsc() -> ArrayConfig {
        ArrayConfig::paper(MacKind::Bsc)
    }

    #[test]
    fn perfectly_tiled_layer_has_high_utilization() {
        // 128 in-channels in 4-bit mode exactly fill the BSC vector.
        let shape = ConvShape::conv(128, 32, 32, 32, 3, 1, 1);
        let s = schedule_conv(&paper_bsc(), Precision::Int4, &shape).unwrap();
        assert_eq!(s.gated_lane_macs, 0);
        assert!(s.utilization > 0.95, "{}", s.utilization);
        assert_eq!(s.useful_macs, shape.macs());
    }

    #[test]
    fn small_channel_counts_waste_lanes() {
        // A 3-channel first layer fills 3 of 128 lanes in 4-bit mode.
        let shape = ConvShape::conv(3, 32, 32, 32, 3, 1, 1);
        let s = schedule_conv(&paper_bsc(), Precision::Int4, &shape).unwrap();
        assert!(s.utilization < 0.05);
        assert!(s.gated_lane_macs > s.useful_macs);
    }

    #[test]
    fn channel_split_matches_paper_fig6() {
        // Vector length 32/128/256 in 8/4/2-bit operation for the BSC array.
        let c = paper_bsc();
        assert_eq!(c.dot_length(Precision::Int8), 32);
        assert_eq!(c.dot_length(Precision::Int4), 128);
        assert_eq!(c.dot_length(Precision::Int2), 256);
    }

    #[test]
    fn fc_layer_is_a_1x1_conv() {
        let fc = ConvShape::fully_connected(512, 10);
        assert_eq!(fc.out_w(), 1);
        assert_eq!(fc.out_h(), 1);
        assert_eq!(fc.macs(), 5120);
        let s = schedule_conv(&paper_bsc(), Precision::Int8, &fc).unwrap();
        assert_eq!(s.useful_macs, 5120);
    }

    #[test]
    fn cycles_count_fill_overhead_per_pass() {
        let shape = ConvShape::conv(32, 32, 4, 4, 1, 1, 0);
        let s = schedule_conv(&paper_bsc(), Precision::Int8, &shape).unwrap();
        // One channel tile, one PE tile, 1 kernel offset:
        // 16 spatial rows + 31 fill cycles.
        assert_eq!(s.passes, 1);
        assert_eq!(s.cycles, 16 + 32 - 1);
    }

    #[test]
    fn one_by_one_kernels_have_one_pass_per_tile_pair() {
        // A 1×1 conv has no kernel loop: passes = channel tiles × PE tiles,
        // and every output pixel needs exactly one feature vector per tile.
        let shape = ConvShape::conv(96, 48, 14, 14, 1, 1, 0);
        let s = schedule_conv(&paper_bsc(), Precision::Int8, &shape).unwrap();
        assert_eq!(s.passes, 3 * 2); // ceil(96/32) × ceil(48/32)
        assert_eq!(s.useful_macs, shape.macs());
        assert_eq!(s.feature_read_vectors, 3 * 2 * 14 * 14);
    }

    #[test]
    fn stride_larger_than_kernel_skips_input_pixels() {
        // stride 4 > kernel 2: output is 8×8 on a 32×32 input and the MAC
        // count only covers the visited windows.
        let shape = ConvShape::conv(32, 32, 32, 32, 2, 4, 0);
        assert_eq!(shape.out_w(), 8);
        assert_eq!(shape.out_h(), 8);
        let s = schedule_conv(&paper_bsc(), Precision::Int8, &shape).unwrap();
        assert_eq!(s.useful_macs, shape.macs());
        assert_eq!(s.useful_macs, 32 * 8 * 8 * 4 * 32);
        // One pass per kernel offset: 4 passes of 64 pixels + 31 fill each.
        assert_eq!(s.cycles, 4 * (64 + 31));
    }

    #[test]
    fn ragged_channel_counts_fill_a_partial_last_tile() {
        // 33 input channels in 8-bit mode: tile 0 is full, tile 1 carries a
        // single useful lane and gates the other 31.
        let shape = ConvShape::conv(33, 32, 8, 8, 1, 1, 0);
        let s = schedule_conv(&paper_bsc(), Precision::Int8, &shape).unwrap();
        assert_eq!(s.passes, 2);
        assert_eq!(s.useful_macs, shape.macs());
        assert_eq!(s.gated_lane_macs, 64 * 31 * 32);
        // 45 output channels: PE tile 0 uses all 32 PEs, tile 1 only 13,
        // so the second tile's fill is shorter.
        let ragged_out = ConvShape::conv(32, 45, 8, 8, 1, 1, 0);
        let s2 = schedule_conv(&paper_bsc(), Precision::Int8, &ragged_out).unwrap();
        assert_eq!(s2.cycles, (64 + 31) + (64 + 12));
        assert_eq!(s2.useful_macs, ragged_out.macs());
    }

    #[test]
    fn lane_accounting_balances_for_random_shapes() {
        // Property: every busy PE-cycle spends exactly `split` lane slots,
        // split between useful channels and gated filler lanes — so
        // `useful + gated == busy × dot_length`, and `useful` is the exact
        // MAC count of the layer.  Exercised across random shapes for every
        // MAC kind × precision.
        let mut rng = bsc_netlist::rng::Rng64::seed_from_u64(0xf160_6a9e);
        for _ in 0..256 {
            let shape = ConvShape {
                in_channels: 1 + (rng.next_u64() % 520) as usize,
                out_channels: 1 + (rng.next_u64() % 130) as usize,
                in_w: 1 + (rng.next_u64() % 40) as usize,
                in_h: 1 + (rng.next_u64() % 40) as usize,
                kernel_w: 1 + (rng.next_u64() % 5) as usize,
                kernel_h: 1 + (rng.next_u64() % 5) as usize,
                stride: 1 + (rng.next_u64() % 4) as usize,
                padding: (rng.next_u64() % 3) as usize,
            };
            if shape.in_w + 2 * shape.padding < shape.kernel_w
                || shape.in_h + 2 * shape.padding < shape.kernel_h
            {
                continue; // kernel does not fit the padded input
            }
            let kind = bsc_mac::MacKind::ALL[(rng.next_u64() % 3) as usize];
            let p = Precision::ALL[(rng.next_u64() % 3) as usize];
            let config = ArrayConfig::paper(kind);
            let split = config.dot_length(p) as u64;
            for dataflow in DataflowKind::ALL {
                let s = schedule_conv_dataflow(&config, p, &shape, dataflow).unwrap();
                assert_eq!(
                    s.useful_macs + s.gated_lane_macs,
                    s.busy_pe_cycles * split,
                    "{shape:?} {kind} {p} {dataflow}"
                );
                assert_eq!(s.useful_macs, shape.macs(), "{shape:?} {kind} {p} {dataflow}");
                assert_eq!(
                    s.busy_pe_cycles + s.idle_pe_cycles,
                    s.cycles * config.pes as u64,
                    "{shape:?} {kind} {p} {dataflow}"
                );
            }
        }
    }

    #[test]
    fn zero_shape_fields_are_rejected() {
        let mut shape = ConvShape::conv(1, 1, 1, 1, 1, 1, 0);
        shape.in_channels = 0;
        for dataflow in DataflowKind::ALL {
            assert!(matches!(
                schedule_conv_dataflow(&paper_bsc(), Precision::Int8, &shape, dataflow),
                Err(SystolicError::EmptyShape("in_channels"))
            ));
        }
    }

    #[test]
    fn a_kernel_larger_than_the_padded_input_is_rejected() {
        // A 3×3 kernel over an unpadded 2×2 map has no output pixel.
        let shape = ConvShape::conv(8, 8, 2, 2, 3, 1, 0);
        assert_eq!((shape.out_w(), shape.out_h()), (0, 0));
        assert_eq!(shape.macs(), 0);
        // Only the height misses: 6×2 input, 3×5 kernel, padding 1.
        let short = ConvShape { kernel_h: 5, ..ConvShape::conv(8, 8, 6, 2, 3, 1, 1) };
        assert_eq!((short.out_w(), short.out_h()), (6, 0));
        for (shape, axis) in [(shape, "out_w"), (short, "out_h")] {
            for dataflow in DataflowKind::ALL {
                assert_eq!(
                    schedule_conv_dataflow(&paper_bsc(), Precision::Int8, &shape, dataflow),
                    Err(SystolicError::EmptyShape(axis)),
                    "{dataflow}"
                );
                assert_eq!(
                    crate::mem::schedule_conv_with_memory_dataflow(
                        &paper_bsc(),
                        &MemConfig::edge(),
                        Precision::Int8,
                        &shape,
                        dataflow,
                    ),
                    Err(SystolicError::EmptyShape(axis)),
                    "{dataflow}"
                );
            }
        }
    }

    #[test]
    fn dataflow_kind_tags_round_trip() {
        for d in DataflowKind::ALL {
            assert_eq!(DataflowKind::parse(d.tag()), Some(d));
            assert_eq!(d.instance().kind(), d);
            assert_eq!(d.to_string(), d.tag());
        }
        assert_eq!(DataflowKind::parse("systolic-stationary"), None);
    }

    #[test]
    fn weight_stationary_trait_is_bit_exact_with_schedule_conv() {
        // Property: dispatching through the `Dataflow` trait at the paper's
        // 32×32 geometry reproduces `schedule_conv` field for field, for
        // random shapes across every MAC kind × precision.
        let mut rng = bsc_netlist::rng::Rng64::seed_from_u64(0xd5e_0001);
        for _ in 0..128 {
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
            for kind in bsc_mac::MacKind::ALL {
                let config = ArrayConfig::paper(kind);
                for p in Precision::ALL {
                    let direct = schedule_conv(&config, p, &shape).unwrap();
                    let via_trait = WeightStationary.schedule(&config, p, &shape).unwrap();
                    let via_kind = schedule_conv_dataflow(
                        &config,
                        p,
                        &shape,
                        DataflowKind::WeightStationary,
                    )
                    .unwrap();
                    assert_eq!(direct, via_trait, "{shape:?} {kind} {p}");
                    assert_eq!(direct, via_kind, "{shape:?} {kind} {p}");
                }
            }
        }
    }

    #[test]
    fn output_stationary_pays_fewer_fills_and_no_psum_readback() {
        // OS pays one pipeline fill per PE tile instead of one per
        // (kernel offset × channel tile × PE tile), so its compute-only
        // cycle count is never above WS; psums never leave the PEs.
        let shapes = [
            ConvShape::conv(128, 64, 14, 14, 3, 1, 1),
            ConvShape::conv(64, 130, 7, 7, 1, 1, 0),
            ConvShape::fully_connected(512, 100),
        ];
        for shape in &shapes {
            for p in Precision::ALL {
                let config = paper_bsc();
                let ws = schedule_conv(&config, p, shape).unwrap();
                let os = schedule_conv_dataflow(
                    &config,
                    p,
                    shape,
                    DataflowKind::OutputStationary,
                )
                .unwrap();
                assert!(os.cycles <= ws.cycles, "{shape:?} {p}");
                assert_eq!(os.psum_read_words, 0);
                assert_eq!(
                    os.psum_write_words,
                    (shape.out_w() * shape.out_h() * shape.out_channels) as u64
                );
                // The price: weights re-stream on every accumulation step
                // (equal only in the degenerate spatial=1 FC case, where
                // each weight is needed exactly once either way).
                assert!(os.weight_load_vectors >= ws.weight_load_vectors, "{shape:?} {p}");
                if shape.out_w() * shape.out_h() > 1 {
                    assert!(os.weight_load_vectors > ws.weight_load_vectors, "{shape:?} {p}");
                }
            }
        }
    }

    #[test]
    fn input_stationary_trades_feature_reads_for_weight_streams() {
        // A many-output-channel layer re-reads features once per PE tile
        // under WS; IS pins them and reads each vector once per kernel
        // offset, at the cost of streaming out_channels weight vectors
        // per spatial tile.
        let shape = ConvShape::conv(64, 128, 14, 14, 3, 1, 1);
        let config = paper_bsc();
        let ws = schedule_conv(&config, Precision::Int8, &shape).unwrap();
        let is = schedule_conv_dataflow(
            &config,
            Precision::Int8,
            &shape,
            DataflowKind::InputStationary,
        )
        .unwrap();
        assert!(is.feature_read_vectors < ws.feature_read_vectors);
        assert!(is.weight_load_vectors > ws.weight_load_vectors);
        assert_eq!(is.psum_read_words, is.busy_pe_cycles);
    }
}
