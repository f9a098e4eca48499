//! # BSC precision-scalable vector systolic accelerator
//!
//! End-to-end facade for the reproduction of *"A Precision-Scalable
//! Energy-Efficient Bit-Split-and-Combination Vector Systolic Accelerator
//! for NAS-Optimized DNNs on Edge"* (DATE 2022).
//!
//! The crate ties the layered reproduction together:
//!
//! * [`bsc_netlist`] (re-exported as [`netlist`]) — gate-level IR +
//!   simulator (the RTL/VCS substitute);
//! * [`bsc_synth`] ([`synth`]) — 28nm library model, STA, effort model,
//!   activity power (the DC/PTPX substitute);
//! * [`bsc_mac`] ([`mac`]) — the BSC vector MAC and the LPC/HPS baselines,
//!   functional + structural;
//! * [`bsc_systolic`] ([`systolic`]) — the 32-PE weight-stationary vector
//!   systolic array, conv mapping and array energy model;
//! * [`bsc_nn`] ([`nn`]) — multi-precision CNN benchmarks and the NAS
//!   precision search.
//!
//! [`Accelerator`] is the one-stop API: build it for an architecture, run
//! matrices or whole networks, and read energy-efficiency reports.
//! [`Engine`] layers multi-tenant serving on top: a shared
//! [`CharacterizationCache`], the admission ladder (outstanding cap,
//! backlog limit, deadline-aware rejection and load shedding) that
//! batch and online serving share, and deterministic batched execution
//! over a worker pool (see `docs/serving.md`).
//!
//! # Example
//!
//! ```no_run
//! use bsc_accel::{Accelerator, AcceleratorConfig};
//! use bsc_mac::MacKind;
//!
//! # fn main() -> Result<(), bsc_accel::AccelError> {
//! let accel = Accelerator::new(AcceleratorConfig::paper(MacKind::Bsc))?;
//! let report = accel.run_network(&bsc_nn::models::lenet5())?;
//! println!("LeNet-5 on BSC: {:.2} TOPS/W", report.avg_tops_per_w());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod admission;
pub mod cluster;
pub mod compiler;
pub mod des;
pub mod engine;
mod error;
mod report;
pub mod slo;

pub use accelerator::{Accelerator, AcceleratorConfig};
pub use cluster::{
    depth_stride_for_horizon, run_online, run_online_profiled, DepthSample, DispatchPolicy,
    JobTemplate, OnlineConfig, OnlineReport, ShardDepth, ShardFunnel, ShardReport, ShardSpec,
    TrafficSource, EVENT_LOG_CAP,
};
pub use des::{ArrivalGen, ArrivalProcess, DiurnalSegment, EventQueue};
pub use engine::{
    BatchReport, CharacterizationCache, Engine, EngineConfig, InferenceJob, JobOutcome,
    JobReport, PrecisionPolicy, RejectReason, ShedReason,
};
pub use error::AccelError;
pub use report::{render_comparison, LayerReport, NetworkReport};
pub use slo::{
    SloAccountant, SloAttainment, SloReport, SloTarget, TenantId, TenantSlo, TenantWindow,
};

pub use bsc_mac as mac;
pub use bsc_netlist as netlist;
pub use bsc_nn as nn;
pub use bsc_synth as synth;
pub use bsc_systolic as systolic;

/// Converts an [`bsc_nn::LayerKind`] into the systolic mapping shape.
pub fn layer_to_conv_shape(kind: &bsc_nn::LayerKind) -> bsc_systolic::mapping::ConvShape {
    match *kind {
        bsc_nn::LayerKind::Conv { in_c, out_c, kernel, stride, padding, in_w, in_h } => {
            bsc_systolic::mapping::ConvShape {
                in_channels: in_c,
                out_channels: out_c,
                in_w,
                in_h,
                kernel_w: kernel,
                kernel_h: kernel,
                stride,
                padding,
            }
        }
        bsc_nn::LayerKind::Fc { fan_in, fan_out } => {
            bsc_systolic::mapping::ConvShape::fully_connected(fan_in, fan_out)
        }
    }
}
