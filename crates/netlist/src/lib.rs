//! Gate-level netlist infrastructure for the BSC accelerator reproduction.
//!
//! This crate is the substrate that replaces the paper's Verilog RTL plus the
//! Synopsys VCS functional simulation flow.  It provides:
//!
//! * a compact gate-level IR ([`Gate`], [`Netlist`]) with constant folding and
//!   structural hashing (common-subexpression elimination), emulating the
//!   trivial optimizations every synthesis tool performs;
//! * multi-bit [`Bus`] abstractions and arithmetic component generators
//!   ([`components`]): ripple-carry adders, carry-save compressor trees,
//!   dynamically signed array-multiplier rows, configurable shifters, operand
//!   isolation gating and bus multiplexers — the building blocks from which
//!   the BSC, LPC and HPS vector MACs are constructed structurally;
//! * a levelized 64-lane bit-parallel [`Simulator`] that evaluates the
//!   netlist on 64 independent stimulus streams at once and records per-gate
//!   toggle counts ([`Activity`]) for switching-activity power estimation.
//!
//! # Example
//!
//! Build a 4-bit adder, simulate it, and read the toggle statistics:
//!
//! ```
//! use bsc_netlist::{Netlist, components::adder};
//!
//! # fn main() -> Result<(), bsc_netlist::NetlistError> {
//! let mut n = Netlist::new();
//! let a = n.input_bus("a", 4);
//! let b = n.input_bus("b", 4);
//! let (sum, cout) = adder::ripple_carry(&mut n, &a, &b, None);
//! n.mark_output_bus("sum", &sum);
//! n.mark_output(cout, "cout");
//!
//! let mut sim = bsc_netlist::Simulator::new(&n)?;
//! sim.write_bus_lane(&a, 0, 7);
//! sim.write_bus_lane(&b, 0, 9);
//! sim.eval();
//! assert_eq!(sim.read_bus_unsigned_lane(&sum, 0), (7 + 9) & 0xf);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod bus;
pub mod components;
mod error;
mod gate;
pub mod lec;
mod netlist;
pub mod par;
pub mod rng;
pub mod saif;
mod sim;
mod stats;
pub mod tb;
pub mod vcd;
pub mod verilog;

pub use activity::Activity;
pub use bus::Bus;
pub use error::NetlistError;
pub use gate::{Gate, GateKind};
pub use netlist::{Netlist, NodeId};
pub use rng::Rng64;
pub use sim::Simulator;
pub use stats::GateStats;

/// Number of independent stimulus lanes evaluated in one packed simulation
/// pass (one bit of a `u64` word per lane).
pub const SIM_LANES: usize = 64;
