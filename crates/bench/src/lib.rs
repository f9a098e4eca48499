//! Shared experiment drivers for the `repro` harness binary and the
//! self-timed benches (see [`timing`]).
//!
//! Each `figN`/`table1` function regenerates the data behind one table or
//! figure of the paper and returns it as plain structs; `render_*`
//! companions produce the aligned-text views the harness prints, with the
//! paper's published values alongside for comparison (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod diff;
pub mod dse;
pub mod experiments;
mod manifest;
pub mod memexp;
pub mod observatory;
pub mod online;
pub mod profile;
pub mod serve;
pub mod simbench;
pub mod telemetry_probe;
pub mod timing;
pub mod workbench;

pub use manifest::MAX_WORKERS;
pub use workbench::Workbench;
