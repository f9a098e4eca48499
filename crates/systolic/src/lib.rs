//! Precision-scalable vector systolic PE array (paper §IV, Figs. 5 and 6).
//!
//! An array of processing elements (32 rows × vector length 32 in the
//! paper's [`ArrayGeometry`]), each wrapping one precision-scalable vector
//! MAC (BSC, LPC or HPS), schedulable under weight-, output- or
//! input-stationary dataflows via the [`Dataflow`] trait.  The crate
//! provides:
//!
//! * [`ProcessingElement`] and [`SystolicArray`] — a cycle-accurate
//!   simulation of the Fig. 5 dataflow: features stream through the PE
//!   chain, weights are broadcast with a 0..31-cycle skew and then held,
//!   and one output-row diagonal retires per cycle;
//! * [`mapping`] — the Fig. 6 convolution-to-matrix mapping: channel
//!   splitting to the mode's dot length, output-channel splitting across
//!   the PE rows, `W`-before-`H` loop order, and the resulting
//!   cycle/utilization schedule — generalized over the [`Dataflow`] trait
//!   ([`WeightStationary`], [`OutputStationary`], [`InputStationary`]);
//! * [`energy`] — the array-level energy model combining the gate-level
//!   per-MAC characterization of `bsc-mac` (with weight-stationary
//!   activity) with the dataflow statistics of the simulation;
//! * [`mem`] — the two-level memory hierarchy: finite SRAM tile buffers
//!   fed by a double-buffered DMA engine over a fixed-bandwidth DRAM
//!   channel, producing stall-accurate [`MemoryAwareSchedule`]s with
//!   per-layer roofline classification.
//!
//! # Example
//!
//! ```
//! use bsc_mac::{MacKind, Precision};
//! use bsc_systolic::{ArrayConfig, Matrix, SystolicArray};
//!
//! # fn main() -> Result<(), bsc_systolic::SystolicError> {
//! let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
//! let array = SystolicArray::new(config);
//! let features = Matrix::from_rows(&[vec![1, 2, 3, 4], vec![-1, 0, 1, 0]]);
//! let weights = Matrix::from_rows(&[vec![1, 0, 0, 0], vec![0, 1, 0, 0]]);
//! let run = array.matmul(Precision::Int8, &features, &weights)?;
//! assert_eq!(run.output.get(0, 0), 1);
//! assert_eq!(run.output.get(1, 1), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod energy;
mod error;
pub mod mapping;
mod matrix;
pub mod mem;
pub mod netlist;
mod pe;

pub use array::{ArrayConfig, ArrayGeometry, DataflowStats, MatmulRun, SystolicArray, WeightReuse};
pub use mapping::{
    Dataflow, DataflowKind, InputStationary, OutputStationary, WeightStationary,
};
pub use mem::{
    schedule_conv_with_memory, schedule_conv_with_memory_dataflow, DramBandwidth,
    FeatureReuse, MemConfig, MemoryAwareSchedule, Roofline, TilePass, TileSink, Tiling,
};
pub use error::SystolicError;
pub use matrix::Matrix;
pub use pe::ProcessingElement;
