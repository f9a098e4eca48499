//! Synthesis and power-analysis models: the reproduction's substitute for
//! Synopsys Design Compiler and PrimeTime PX at SMIC 28nm.
//!
//! Given a gate-level [`bsc_netlist::Netlist`] and the switching
//! [`bsc_netlist::Activity`] recorded by its testbench, this crate produces
//! the same quantities the paper reports:
//!
//! * **Area** — per-cell areas from a 28nm-class [`CellLibrary`] summed over
//!   the live netlist ([`area`]);
//! * **Timing** — static timing analysis with per-cell delays
//!   ([`timing::critical_path_ps`]), giving the minimum clock period;
//! * **Synthesis effort** — an [`EffortModel`] mapping the target clock
//!   period to cell-upsizing area/energy multipliers, emulating how DC
//!   trades energy for speed across the paper's 0.8–2.4 ns sweep;
//! * **Power & efficiency** — switching-activity dynamic power, leakage,
//!   energy per operation and TOPS/W / TOPS/mm² ([`analyze`]).  A
//!   [`PpaModel`] holds the period-independent part of that analysis, so
//!   one design is priced at many clock periods without re-running STA.
//!
//! The library constants are set once from public 28nm data
//! ([`CellLibrary::smic28_like`]) and shared by all three MAC designs, so
//! every cross-design ratio is driven by netlist structure and activity,
//! never by per-design tuning.
//!
//! # Example
//!
//! ```
//! use bsc_netlist::{Netlist, tb};
//! use bsc_synth::{analyze, CellLibrary, EffortModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut n = Netlist::new();
//! let a = n.input_bus("a", 8);
//! let b = n.input_bus("b", 8);
//! let (sum, _) = bsc_netlist::components::adder::ripple_carry(&mut n, &a, &b, None);
//! n.mark_output_bus("sum", &sum);
//!
//! let act = tb::run_random_activity(&n, &[], &[&a, &b], 64, 1)?;
//! let lib = CellLibrary::smic28_like();
//! let report = analyze(&n, &act, &lib, &EffortModel::default(), 2000.0, 1.0)?;
//! assert!(report.area_um2 > 0.0);
//! assert!(report.dynamic_power_mw > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod effort;
mod error;
mod library;
mod power;
mod report;
pub mod timing;
pub mod voltage;

pub use effort::EffortModel;
pub use error::SynthError;
pub use library::{CellLibrary, CellParams};
pub use power::{dynamic_energy_per_cycle_fj, leakage_power_mw, render_power_report};
pub use report::{analyze, area, render_area_report, PpaModel, PpaReport};
