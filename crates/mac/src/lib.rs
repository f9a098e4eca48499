//! Precision-scalable vector MAC designs from the paper *"A
//! Precision-Scalable Energy-Efficient Bit-Split-and-Combination Vector
//! Systolic Accelerator for NAS-Optimized DNNs on Edge"* (DATE 2022):
//!
//! * [`bsc`] — the proposed **bit-split-and-combination** vector MAC;
//! * [`lpc`] — the **low-precision-combination** baseline
//!   (BitFusion / BitBlade style);
//! * [`hps`] — the **high-precision-split** baseline (sub-word parallel).
//!
//! Every design exists in two coupled forms: a cycle-level *functional
//! model* implementing [`VectorMac`] (verified against the golden integer
//! model in [`golden`]), and a *structural netlist* ([`MacNetlist`])
//! generated gate by gate on the `bsc-netlist` substrate (verified against
//! the functional model in every precision mode).  The [`ppa`] module
//! couples the netlists to the `bsc-synth` synthesis/power models to
//! produce the per-mode energy-efficiency numbers the paper reports.
//!
//! # Example
//!
//! ```
//! use bsc_mac::{bsc::BscVector, Precision, VectorMac};
//!
//! # fn main() -> Result<(), bsc_mac::MacError> {
//! let vector = BscVector::new(2);
//! // 2-bit mode: 8 MACs per element slot → dot product of length 16.
//! let weights = vec![1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1];
//! let acts = vec![1; 16];
//! assert_eq!(vector.dot(Precision::Int2, &weights, &acts)?, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asym;
pub mod bsc;
mod design;
mod error;
pub mod golden;
pub mod hps;
pub mod lpc;
mod netlist_if;
pub mod ppa;
mod precision;
pub mod tb_gen;

pub use design::{MacKind, VectorMac};
pub use error::MacError;
pub use bsc_netlist::Rng64;
pub use netlist_if::{pack_element, MacNetlist, OperandSide};
pub use precision::Precision;

/// Builds the functional model for an architecture as a trait object.
///
/// # Example
///
/// ```
/// use bsc_mac::{vector_mac, MacKind, Precision};
///
/// let v = vector_mac(MacKind::Hps, 32);
/// assert_eq!(v.macs_per_cycle(Precision::Int4), 64);
/// ```
pub fn vector_mac(kind: MacKind, length: usize) -> Box<dyn VectorMac> {
    match kind {
        MacKind::Bsc => Box::new(bsc::BscVector::new(length)),
        MacKind::Lpc => Box::new(lpc::LpcVector::new(length)),
        MacKind::Hps => Box::new(hps::HpsVector::new(length)),
    }
}

/// Builds the structural netlist for an architecture.
pub fn build_netlist(kind: MacKind, length: usize) -> MacNetlist {
    match kind {
        MacKind::Bsc => bsc::BscVector::new(length).build_netlist(),
        MacKind::Lpc => lpc::LpcVector::new(length).build_netlist(),
        MacKind::Hps => hps::HpsVector::new(length).build_netlist(),
    }
}

/// Instantiates one architecture's *combinational datapath* (everything
/// after the PE's interface registers) into a caller-owned netlist and
/// returns the dot-product bus.
///
/// `w_reg`/`a_reg` are the registered operand buses, one per element slot,
/// each [`MacKind::element_bits`] wide.  This is the composition hook the
/// gate-level systolic-array netlist builds on: the array owns the feature
/// pipeline and weight-buffer registers and instantiates one datapath per
/// PE.
///
/// # Panics
///
/// Panics when the streams are empty, differ in length, or have the wrong
/// element width for the architecture.
pub fn build_datapath(
    kind: MacKind,
    n: &mut bsc_netlist::Netlist,
    mode2: bsc_netlist::NodeId,
    mode8: bsc_netlist::NodeId,
    w_reg: &[bsc_netlist::Bus],
    a_reg: &[bsc_netlist::Bus],
) -> bsc_netlist::Bus {
    for bus in w_reg.iter().chain(a_reg) {
        assert_eq!(
            bus.width(),
            kind.element_bits(),
            "{kind} elements are {} bits wide",
            kind.element_bits()
        );
    }
    match kind {
        MacKind::Bsc => bsc::netlist_datapath(n, mode2, mode8, w_reg, a_reg),
        MacKind::Lpc => lpc::netlist_datapath(n, mode2, mode8, w_reg, a_reg),
        MacKind::Hps => hps::netlist_datapath(n, mode2, mode8, w_reg, a_reg),
    }
}
