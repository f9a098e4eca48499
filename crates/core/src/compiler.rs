//! The convolution tile compiler: lowers one layer into an executable
//! sequence of stationary-weight passes (the Fig. 6 mapping made
//! operational) and executes it on the cycle-accurate array.
//!
//! Each [`TileOp::Pass`] pins one (kernel-offset, channel-tile, PE-tile)
//! triple of weights into the array, streams every output pixel's feature
//! vector through it, and accumulates the partial sums into the output
//! buffer.  Executing the program reproduces [`bsc_nn::ops::conv2d`]
//! exactly, and its measured cycle count matches
//! [`bsc_systolic::mapping::schedule_conv`]'s analytic formula cycle for
//! cycle — the compiler is the proof that the Fig. 9 energy schedules
//! describe a real execution.

use bsc_mac::Precision;
use bsc_nn::ops::ConvWeights;
use bsc_nn::Tensor;
use bsc_systolic::mapping::{schedule_conv, ConvShape};
use bsc_systolic::{ArrayConfig, Matrix, SystolicArray};

use crate::AccelError;

/// One operation of a compiled tile program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileOp {
    /// Configures the array's precision mode (first instruction).
    SetMode(Precision),
    /// One stationary-weight pass.
    Pass {
        /// Kernel offset `(ky, kx)` this pass covers.
        kernel: (usize, usize),
        /// Channel-tile index (`I_C` split to the mode's dot length).
        channel_tile: usize,
        /// PE-tile index (`K_N` split across the PEs).
        pe_tile: usize,
    },
}

/// A compiled layer: the op sequence plus the shapes it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct TileProgram {
    /// Instruction sequence.
    pub ops: Vec<TileOp>,
    /// The layer shape this program computes.
    pub shape: ConvShape,
    /// Precision mode.
    pub precision: Precision,
    /// Network layer index stamped into emitted trace events.
    pub layer: u32,
    /// Spatial stride (duplicated from the shape for the executor).
    stride: usize,
    padding: usize,
}

impl TileProgram {
    /// Tags the program with a network layer index; [`execute`] stamps it
    /// into every `TileStart` trace event so multi-layer traces stay
    /// attributable.
    #[must_use]
    pub fn with_layer(mut self, layer: u32) -> Self {
        self.layer = layer;
        self
    }
}

/// Execution statistics of a tile program, summed over its passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total clock cycles (sum over passes, including pipeline fill).
    pub cycles: u64,
    /// Stationary passes executed.
    pub passes: u64,
    /// Useful MACs performed (gated lanes excluded).
    pub useful_macs: u64,
    /// Drain-tail stall cycles counted by the array.
    pub stall_cycles: u64,
    /// Busy cycles of each physical PE, from the PEs' own counters
    /// ([`bsc_systolic::MatmulRun::pe_busy`]); their sum is the number of
    /// PE fires.
    pub pe_busy: Vec<u64>,
}

/// Compiles one convolution layer into a tile program for the given array.
///
/// # Errors
///
/// Returns a mapping error for degenerate shapes.
pub fn compile_conv(
    config: &ArrayConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<TileProgram, AccelError> {
    // Validate through the scheduler (same error surface).
    let _ = schedule_conv(config, p, shape)?;
    let split = config.dot_length(p);
    let channel_tiles = shape.in_channels.div_ceil(split);
    let pe_tiles = shape.out_channels.div_ceil(config.pes);
    let mut ops = vec![TileOp::SetMode(p)];
    // Loop order per Fig. 6: W before H inside a pass (the streaming order),
    // kernel offsets innermost across passes, then channel tiles, then PE
    // tiles.
    for pe_tile in 0..pe_tiles {
        for channel_tile in 0..channel_tiles {
            for ky in 0..shape.kernel_h {
                for kx in 0..shape.kernel_w {
                    ops.push(TileOp::Pass { kernel: (ky, kx), channel_tile, pe_tile });
                }
            }
        }
    }
    Ok(TileProgram {
        ops,
        shape: *shape,
        precision: p,
        layer: 0,
        stride: shape.stride,
        padding: shape.padding,
    })
}

/// Executes a compiled program on the cycle-accurate array.
///
/// `input` is the `(in_c, in_h, in_w)` feature map, `weights` the layer's
/// kernels; the result is the exact `(out_c, out_h, out_w)` output map.
///
/// # Errors
///
/// Propagates shape and operand-range errors from the array.
pub fn execute(
    program: &TileProgram,
    array: &SystolicArray,
    input: &Tensor,
    weights: &ConvWeights,
) -> Result<(Tensor, ExecStats), AccelError> {
    let shape = &program.shape;
    let p = program.precision;
    let config = array.config();
    let split = config.dot_length(p);
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let mut psum = Tensor::zeros(shape.out_channels, out_h, out_w);
    let mut stats = ExecStats { pe_busy: vec![0; config.pes], ..ExecStats::default() };
    let _exec_span = array.telemetry().map(|tel| {
        let g = tel.spans.begin("compiler.execute");
        g.annotate("layer", program.layer);
        g.annotate("precision", p);
        g.annotate("ops", program.ops.len());
        g
    });

    for op in &program.ops {
        let &TileOp::Pass { kernel: (ky, kx), channel_tile, pe_tile } = op else {
            if let (&TileOp::SetMode(mode), Some(tel)) = (op, array.telemetry()) {
                tel.trace.push(bsc_telemetry::TraceEvent::ModeSet { bits: mode.bits() });
            }
            continue;
        };
        let c_lo = channel_tile * split;
        let c_hi = (c_lo + split).min(shape.in_channels);
        let n_lo = pe_tile * config.pes;
        let n_hi = (n_lo + config.pes).min(shape.out_channels);

        // Feature matrix: one row per output pixel (W before H), one
        // column per channel lane (zero-padded to the full vector).
        let features = Matrix::from_fn(out_h * out_w, split, |m, lane| {
            let (oy, ox) = (m / out_w, m % out_w);
            let c = c_lo + lane;
            if c >= c_hi {
                return 0;
            }
            let y = (oy * program.stride + ky) as isize - program.padding as isize;
            let x = (ox * program.stride + kx) as isize - program.padding as isize;
            input.get_padded(c, y, x)
        });
        // Weight matrix: one row per PE / output channel in the tile.
        let wmat = Matrix::from_fn(n_hi - n_lo, split, |r, lane| {
            let c = c_lo + lane;
            if c >= c_hi {
                0
            } else {
                weights.get(n_lo + r, c, ky, kx)
            }
        });
        if let Some(tel) = array.telemetry() {
            tel.trace.push(bsc_telemetry::TraceEvent::TileStart {
                layer: program.layer,
                pass: stats.passes as u32,
                rows: (out_h * out_w) as u32,
                cols: (n_hi - n_lo) as u32,
                inner: (c_hi - c_lo) as u32,
            });
        }
        let run = array.matmul(p, &features, &wmat)?;
        for m in 0..out_h * out_w {
            let (oy, ox) = (m / out_w, m % out_w);
            for r in 0..(n_hi - n_lo) {
                let o = n_lo + r;
                psum.set(o, oy, ox, psum.get(o, oy, ox) + run.output.get(m, r));
            }
        }
        stats.cycles += run.stats.cycles;
        stats.passes += 1;
        stats.useful_macs +=
            (out_h * out_w) as u64 * (n_hi - n_lo) as u64 * (c_hi - c_lo) as u64;
        stats.stall_cycles += run.stats.stall_cycles;
        for (total, busy) in stats.pe_busy.iter_mut().zip(&run.pe_busy) {
            *total += busy;
        }
    }
    Ok((psum, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_mac::MacKind;
    use bsc_netlist::rng::Rng64;

    fn setup(
        kind: MacKind,
        p: Precision,
        shape: ConvShape,
        seed: u64,
    ) -> (SystolicArray, Tensor, ConvWeights) {
        let mut rng = Rng64::seed_from_u64(seed);
        let array = SystolicArray::new(ArrayConfig { pes: 4, vector_length: 4, kind });
        let input = Tensor::random(
            shape.in_channels,
            shape.in_h,
            shape.in_w,
            p.value_range(),
            seed ^ 1,
        );
        let r = p.value_range();
        let weights = ConvWeights {
            out_c: shape.out_channels,
            in_c: shape.in_channels,
            kh: shape.kernel_h,
            kw: shape.kernel_w,
            data: (0..shape.weight_count() as usize)
                .map(|_| rng.gen_range(r.clone()))
                .collect(),
        };
        (array, input, weights)
    }

    #[test]
    fn compiled_program_reproduces_golden_conv() {
        for kind in MacKind::ALL {
            for p in Precision::ALL {
                let shape = ConvShape::conv(5, 6, 6, 6, 3, 1, 1);
                let (array, input, weights) = setup(kind, p, shape, 42);
                let program = compile_conv(&array.config(), p, &shape).unwrap();
                let (out, _) = execute(&program, &array, &input, &weights).unwrap();
                let golden = bsc_nn::ops::conv2d(&input, &weights, 1, 1).unwrap();
                assert_eq!(out, golden, "{kind} {p}");
            }
        }
    }

    #[test]
    fn measured_cycles_match_the_analytic_schedule_exactly() {
        for kind in MacKind::ALL {
            for p in Precision::ALL {
                // Shapes exercising partial channel tiles and PE tiles.
                for shape in [
                    ConvShape::conv(5, 6, 6, 6, 3, 1, 1),
                    ConvShape::conv(3, 9, 5, 5, 1, 1, 0),
                    ConvShape::conv(8, 4, 8, 8, 3, 2, 1),
                    ConvShape::fully_connected(30, 7),
                ] {
                    let (array, input, weights) = setup(kind, p, shape, 77);
                    let program = compile_conv(&array.config(), p, &shape).unwrap();
                    let (_, stats) = execute(&program, &array, &input, &weights).unwrap();
                    let schedule = schedule_conv(&array.config(), p, &shape).unwrap();
                    assert_eq!(stats.cycles, schedule.cycles, "{kind} {p} {shape:?}");
                    assert_eq!(stats.passes, schedule.passes, "{kind} {p} {shape:?}");
                    assert_eq!(
                        stats.useful_macs, schedule.useful_macs,
                        "{kind} {p} {shape:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn execute_emits_one_tile_start_per_pass() {
        use bsc_telemetry::{Telemetry, TraceEvent};
        let shape = ConvShape::conv(5, 6, 4, 4, 3, 1, 1);
        let p = Precision::Int8;
        let (array, input, weights) = setup(MacKind::Bsc, p, shape, 9);
        let tel = Telemetry::new(4096);
        let mut array = array;
        array.set_telemetry(tel.clone());
        let program = compile_conv(&array.config(), p, &shape).unwrap().with_layer(3);
        let (_, stats) = execute(&program, &array, &input, &weights).unwrap();

        let trace = tel.trace.snapshot();
        let starts: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TileStart { .. }))
            .collect();
        assert_eq!(starts.len() as u64, stats.passes);
        // Every event carries the stamped layer index and the streaming
        // row count of this shape (4x4 output pixels).
        for e in &starts {
            let TraceEvent::TileStart { layer, rows, .. } = e else { unreachable!() };
            assert_eq!(*layer, 3);
            assert_eq!(*rows, 16);
        }
        // One pass per kernel offset × channel tile × PE tile, and every
        // pass's MACs are useful: the layer's MACs in total.
        assert_eq!(stats.passes as usize, program.ops.len() - 1);
        assert_eq!(stats.useful_macs, shape.macs());
    }

    #[test]
    fn per_pe_busy_cycles_sum_to_the_fires_and_match_the_trace_per_pe() {
        use bsc_telemetry::{Telemetry, TraceEvent};
        for (p, shape) in [
            (Precision::Int8, ConvShape::conv(5, 6, 6, 6, 3, 1, 1)),
            (Precision::Int4, ConvShape::conv(8, 4, 5, 5, 3, 1, 1)),
            (Precision::Int2, ConvShape::fully_connected(30, 7)),
        ] {
            let (mut array, input, weights) = setup(MacKind::Bsc, p, shape, 5);
            let tel = Telemetry::new(1 << 16);
            array.set_telemetry(tel.clone());
            let program = compile_conv(&array.config(), p, &shape).unwrap();
            let (_, stats) = execute(&program, &array, &input, &weights).unwrap();

            let trace = tel.trace.snapshot();
            assert_eq!(trace.dropped, 0);
            let fires_of = |i: usize| {
                trace
                    .events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::PeFired { pe, .. } if *pe as usize == i))
                    .count() as u64
            };
            let fires =
                trace.events.iter().filter(|e| matches!(e, TraceEvent::PeFired { .. })).count();
            let stalls =
                trace.events.iter().filter(|e| matches!(e, TraceEvent::VectorStall { .. })).count();
            assert_eq!(stats.pe_busy.len(), array.config().pes, "{p} {shape:?}");
            assert_eq!(stats.pe_busy.iter().sum::<u64>(), fires as u64, "{p} {shape:?}");
            for (i, &busy) in stats.pe_busy.iter().enumerate() {
                assert_eq!(busy, fires_of(i), "{p} {shape:?} PE {i}");
            }
            assert_eq!(stats.stall_cycles, stalls as u64, "{p} {shape:?}");
            // The closed-form schedule agrees on the total.
            let schedule = schedule_conv(&array.config(), p, &shape).unwrap();
            assert_eq!(stats.pe_busy.iter().sum::<u64>(), schedule.busy_pe_cycles);
        }
    }

    #[test]
    fn program_structure_is_mode_then_passes() {
        let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
        let shape = ConvShape::conv(5, 6, 4, 4, 3, 1, 1);
        let program = compile_conv(&config, Precision::Int8, &shape).unwrap();
        assert_eq!(program.ops[0], TileOp::SetMode(Precision::Int8));
        // 9 kernel offsets × ceil(5/4)=2 channel tiles × ceil(6/4)=2 PE
        // tiles (8-bit dot length of this 4-slot vector is 4).
        assert_eq!(program.ops.len() - 1, 9 * 2 * 2);
        assert!(program.ops[1..].iter().all(|op| matches!(op, TileOp::Pass { .. })));
    }
}
