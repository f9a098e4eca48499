//! Array-level energy model.
//!
//! Combines the gate-level per-unit characterization from `bsc-mac` (one
//! PE's vector MAC under weight-stationary activity, including its
//! interface registers) with the dataflow statistics of the array
//! simulation or the layer schedule.  The only quantities added on top of
//! the unit report are:
//!
//! * inter-PE wire energy for the streaming feature vectors (the input
//!   registers themselves are already inside the unit netlist);
//! * idle-cycle energy (leakage plus flop clock power) for fill/drain
//!   bubbles and unused PEs;
//! * a gated-lane fraction: lanes firing without a useful channel in
//!   partially filled vectors still pay clock and a residue of the dynamic
//!   energy.

use bsc_synth::PpaReport;

use crate::mapping::LayerSchedule;
use crate::{ArrayConfig, DataflowStats};

/// Default inter-PE wire energy per bit per hop in fJ (≈150 µm of M4 route
/// at 28nm with repeaters).
pub const DEFAULT_WIRE_ENERGY_PER_BIT_FJ: f64 = 0.15;

/// Default fraction of active dynamic energy a gated (operand-isolated)
/// lane still consumes.
pub const DEFAULT_GATED_DYNAMIC_FRACTION: f64 = 0.10;

/// Energy model of the whole PE array at one operating point.
///
/// # Example
///
/// ```no_run
/// use bsc_mac::{ppa, MacKind, Precision};
/// use bsc_systolic::{energy::ArrayEnergyModel, ArrayConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ppa::CharacterizeConfig::default();
/// let design = ppa::DesignCharacterization::new(MacKind::Bsc, &cfg)?;
/// let unit = design.at_period_weight_stationary(Precision::Int4, 2000.0)?;
/// let model = ArrayEnergyModel::new(unit, ArrayConfig::paper(MacKind::Bsc));
/// println!("array steady-state: {:.2} TOPS/W", model.steady_state_tops_per_w());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayEnergyModel {
    /// Per-unit (one PE's vector MAC) PPA report at the operating point.
    pub unit: PpaReport,
    /// Array configuration.
    pub config: ArrayConfig,
    /// Inter-PE wire energy per bit per hop, fJ.
    pub wire_energy_per_bit_fj: f64,
    /// Residual dynamic fraction of gated lanes.
    pub gated_dynamic_fraction: f64,
}

impl ArrayEnergyModel {
    /// A model with the default wire and gating parameters.
    pub fn new(unit: PpaReport, config: ArrayConfig) -> Self {
        ArrayEnergyModel {
            unit,
            config,
            wire_energy_per_bit_fj: DEFAULT_WIRE_ENERGY_PER_BIT_FJ,
            gated_dynamic_fraction: DEFAULT_GATED_DYNAMIC_FRACTION,
        }
    }

    /// Energy one PE consumes in one fully busy cycle, in fJ.
    pub fn active_cycle_energy_fj(&self) -> f64 {
        self.unit.total_power_mw() * self.unit.period_ps
    }

    /// Energy one PE consumes in one idle cycle (clock + leakage), in fJ.
    pub fn idle_cycle_energy_fj(&self) -> f64 {
        (self.unit.clock_power_mw + self.unit.leakage_power_mw) * self.unit.period_ps
    }

    /// Energy of moving one feature vector one hop down the PE chain, fJ
    /// (wires only; the receiving registers are inside the unit report).
    pub fn hop_energy_fj(&self) -> f64 {
        let bits =
            (self.config.kind.element_bits() * self.config.geometry().vector_length) as f64;
        // Random data toggles half the bits per transfer on average.
        0.5 * bits * self.wire_energy_per_bit_fj
    }

    /// Total energy of a cycle-accurate [`DataflowStats`] run, in fJ.
    ///
    /// Weight deliveries ride the same vector-wide wires as feature hops
    /// (the Fig. 5 broadcast bus), so each weight load is charged one hop;
    /// under the weight-stationary dataflow this term is negligible, under
    /// the no-reuse ablation it grows with every fire.
    pub fn run_energy_fj(&self, stats: &DataflowStats) -> f64 {
        let idle_pe_cycles =
            (stats.cycles * self.config.pes as u64).saturating_sub(stats.pe_busy_cycles);
        stats.pe_busy_cycles as f64 * self.active_cycle_energy_fj()
            + idle_pe_cycles as f64 * self.idle_cycle_energy_fj()
            + (stats.feature_hops + stats.weight_loads) as f64 * self.hop_energy_fj()
    }

    /// Total energy of a scheduled layer, in fJ.
    ///
    /// Partially filled vectors split a busy cycle's dynamic energy between
    /// useful lanes (full cost) and gated lanes (the configured residual
    /// fraction).
    pub fn schedule_energy_fj(&self, s: &LayerSchedule) -> f64 {
        let macs_per_cycle = self.unit.macs_per_cycle;
        let e_active = self.active_cycle_energy_fj();
        let busy_energy = if macs_per_cycle > 0.0 {
            (s.useful_macs as f64 / macs_per_cycle) * e_active
                + (s.gated_lane_macs as f64 / macs_per_cycle)
                    * e_active
                    * self.gated_dynamic_fraction
        } else {
            0.0
        };
        // Feature vectors hop once per busy PE-cycle in the chain.
        busy_energy
            + s.idle_pe_cycles as f64 * self.idle_cycle_energy_fj()
            + s.busy_pe_cycles as f64 * self.hop_energy_fj()
    }

    /// Energy efficiency of a scheduled layer in TOPS/W (2 ops per MAC).
    pub fn schedule_tops_per_w(&self, s: &LayerSchedule) -> f64 {
        let e = self.schedule_energy_fj(s);
        if e > 0.0 {
            2.0e3 * s.useful_macs as f64 / e
        } else {
            0.0
        }
    }

    /// Steady-state energy efficiency of the fully utilized array in
    /// TOPS/W — the quantity Fig. 8(b) reports.
    pub fn steady_state_tops_per_w(&self) -> f64 {
        let e_cycle = self.active_cycle_energy_fj() + self.hop_energy_fj();
        if e_cycle > 0.0 {
            2.0e3 * self.unit.macs_per_cycle / e_cycle
        } else {
            0.0
        }
    }

    /// Steady-state throughput of the array in TOPS.
    pub fn steady_state_tops(&self) -> f64 {
        2.0 * (self.config.geometry().rows as f64) * self.unit.macs_per_cycle
            / self.unit.period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{schedule_conv, ConvShape};
    use bsc_mac::{MacKind, Precision};

    fn toy_report(macs_per_cycle: f64) -> PpaReport {
        PpaReport {
            cells: 1000,
            flops: 100,
            clock_power_mw: 0.01,
            area_um2: 1000.0,
            nominal_period_ps: 1000.0,
            period_ps: 2000.0,
            dynamic_power_mw: 1.0,
            leakage_power_mw: 0.05,
            macs_per_cycle,
            energy_per_mac_fj: 2100.0 / macs_per_cycle,
            tops: 2.0 * macs_per_cycle / 2000.0,
            tops_per_w: 0.0,
            tops_per_mm2: 0.0,
        }
    }

    #[test]
    fn idle_cycles_cost_less_than_active() {
        let m = ArrayEnergyModel::new(toy_report(128.0), ArrayConfig::paper(MacKind::Bsc));
        assert!(m.idle_cycle_energy_fj() < m.active_cycle_energy_fj() / 5.0);
    }

    #[test]
    fn schedule_energy_scales_with_macs() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_report(128.0), config);
        let small = ConvShape::conv(128, 32, 8, 8, 3, 1, 1);
        let large = ConvShape::conv(128, 32, 16, 16, 3, 1, 1);
        let es = m.schedule_energy_fj(&schedule_conv(&config, Precision::Int4, &small).unwrap());
        let el = m.schedule_energy_fj(&schedule_conv(&config, Precision::Int4, &large).unwrap());
        assert!(el > 3.0 * es, "quadrupled pixels should roughly quadruple energy");
    }

    #[test]
    fn gated_lanes_cost_only_a_fraction() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_report(128.0), config);
        // Same busy cycles; one layer wastes 125/128 lanes.
        let full = ConvShape::conv(128, 32, 8, 8, 3, 1, 1);
        let sparse = ConvShape::conv(3, 32, 8, 8, 3, 1, 1);
        let ef = m.schedule_energy_fj(&schedule_conv(&config, Precision::Int4, &full).unwrap());
        let es = m.schedule_energy_fj(&schedule_conv(&config, Precision::Int4, &sparse).unwrap());
        assert!(es < 0.35 * ef, "gated vector should be far cheaper: {es} vs {ef}");
        // But per useful MAC the sparse layer is far less efficient.
        let sf = schedule_conv(&config, Precision::Int4, &full).unwrap();
        let ss = schedule_conv(&config, Precision::Int4, &sparse).unwrap();
        assert!(m.schedule_tops_per_w(&sf) > 3.0 * m.schedule_tops_per_w(&ss));
    }

    #[test]
    fn no_reuse_dataflow_costs_more_wire_energy() {
        use crate::{Matrix, SystolicArray, WeightReuse};
        use bsc_mac::Precision;
        let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let m = ArrayEnergyModel::new(toy_report(4.0), config);
        let k = config.dot_length(Precision::Int8);
        let f = Matrix::zeros(20, k);
        let w = Matrix::zeros(4, k);
        let ws = array
            .matmul_with_dataflow(Precision::Int8, &f, &w, WeightReuse::WeightStationary)
            .unwrap();
        let nr = array
            .matmul_with_dataflow(Precision::Int8, &f, &w, WeightReuse::NoReuse)
            .unwrap();
        assert!(m.run_energy_fj(&nr.stats) > m.run_energy_fj(&ws.stats));
    }

    #[test]
    fn steady_state_matches_unit_efficiency_up_to_wire_overhead() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_report(128.0), config);
        let unit_eff = 2.0e3 * 128.0 / m.active_cycle_energy_fj();
        let array_eff = m.steady_state_tops_per_w();
        assert!(array_eff < unit_eff);
        assert!(array_eff > 0.8 * unit_eff);
    }
}

/// An on-chip SRAM scratchpad model for the memory-hierarchy *extension*
/// (the paper's PPA numbers exclude SRAM; this quantifies what they leave
/// out).  Per-bit access energies are 28nm-class small-bank values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramModel {
    /// Read energy per bit, fJ.
    pub read_fj_per_bit: f64,
    /// Write energy per bit, fJ.
    pub write_fj_per_bit: f64,
    /// Partial-sum word width, bits.
    pub psum_bits: usize,
    /// Off-chip DRAM transfer energy per bit, fJ (LPDDR4-class).
    pub dram_fj_per_bit: f64,
}

impl SramModel {
    /// Typical 28nm small scratchpad bank (a few KB per bank).
    pub fn smic28_like() -> Self {
        SramModel {
            read_fj_per_bit: 25.0,
            write_fj_per_bit: 30.0,
            psum_bits: 32,
            dram_fj_per_bit: 5000.0,
        }
    }
}

impl Default for SramModel {
    fn default() -> Self {
        SramModel::smic28_like()
    }
}

/// Energy breakdown of a scheduled layer including the SRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEnergyBreakdown {
    /// Datapath energy (the paper's scope), fJ.
    pub compute_fj: f64,
    /// Weight-buffer read energy, fJ.
    pub weight_read_fj: f64,
    /// Feature-buffer read energy, fJ.
    pub feature_read_fj: f64,
    /// Partial-sum read-modify-write energy, fJ.
    pub psum_rw_fj: f64,
    /// SRAM fill energy for DMA traffic (writes on load, reads on
    /// writeback).  Zero on the analytic path, which has no DMA counters.
    pub buffer_fill_fj: f64,
    /// Off-chip DRAM transfer energy.  Zero on the analytic path.
    pub dram_fj: f64,
}

impl MemoryEnergyBreakdown {
    /// Total energy, fJ.
    pub fn total_fj(&self) -> f64 {
        self.compute_fj
            + self.weight_read_fj
            + self.feature_read_fj
            + self.psum_rw_fj
            + self.buffer_fill_fj
            + self.dram_fj
    }

    /// Fraction of total energy spent in memory.
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total_fj();
        if t > 0.0 {
            (t - self.compute_fj) / t
        } else {
            0.0
        }
    }
}

impl ArrayEnergyModel {
    /// Extends [`ArrayEnergyModel::schedule_energy_fj`] with SRAM access
    /// energy derived from the schedule's buffer traffic: one vector read
    /// per weight load and per feature fetch, and the schedule's own
    /// partial-sum read/write counts (a read-modify-write per PE fire
    /// under weight- and input-stationary dataflows; a single write per
    /// finished output under output-stationary, where accumulation stays
    /// in the PE registers).
    pub fn schedule_energy_with_memory(
        &self,
        s: &LayerSchedule,
        mem: &SramModel,
    ) -> MemoryEnergyBreakdown {
        let vector_bits =
            (self.config.kind.element_bits() * self.config.geometry().vector_length) as f64;
        let weight_read_fj =
            s.weight_load_vectors as f64 * vector_bits * mem.read_fj_per_bit;
        let feature_read_fj =
            s.feature_read_vectors as f64 * vector_bits * mem.read_fj_per_bit;
        let psum_rw_fj = mem.psum_bits as f64
            * (s.psum_read_words as f64 * mem.read_fj_per_bit
                + s.psum_write_words as f64 * mem.write_fj_per_bit);
        MemoryEnergyBreakdown {
            compute_fj: self.schedule_energy_fj(s),
            weight_read_fj,
            feature_read_fj,
            psum_rw_fj,
            buffer_fill_fj: 0.0,
            dram_fj: 0.0,
        }
    }

    /// Like [`ArrayEnergyModel::schedule_energy_with_memory`], but derives
    /// the hierarchy's traffic from the **measured** DMA counters of a
    /// [`MemoryAwareSchedule`](crate::MemoryAwareSchedule) instead of
    /// analytic estimates: every byte the DMA lands is an SRAM write (and
    /// a DRAM transfer), every writeback byte an SRAM read, and re-fetches
    /// forced by undersized buffers are charged at their real
    /// multiplicity.  Array-side vector reads are identical to the
    /// analytic path — the array reads its buffers the same way
    /// regardless of how they were filled.
    pub fn schedule_energy_with_dma(
        &self,
        aware: &crate::mem::MemoryAwareSchedule,
        mem: &SramModel,
    ) -> MemoryEnergyBreakdown {
        let base = self.schedule_energy_with_memory(&aware.compute, mem);
        let load_bits = aware.dma_load_bytes as f64 * 8.0;
        let store_bits = aware.dma_store_bytes as f64 * 8.0;
        MemoryEnergyBreakdown {
            buffer_fill_fj: load_bits * mem.write_fj_per_bit
                + store_bits * mem.read_fj_per_bit,
            dram_fj: (load_bits + store_bits) * mem.dram_fj_per_bit,
            ..base
        }
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use crate::mapping::{schedule_conv, ConvShape};
    use bsc_mac::{MacKind, Precision};

    fn toy_unit() -> PpaReport {
        PpaReport {
            cells: 1000,
            flops: 100,
            clock_power_mw: 0.01,
            area_um2: 1000.0,
            nominal_period_ps: 1000.0,
            period_ps: 2000.0,
            dynamic_power_mw: 1.0,
            leakage_power_mw: 0.05,
            macs_per_cycle: 128.0,
            energy_per_mac_fj: 16.4,
            tops: 0.128,
            tops_per_w: 0.0,
            tops_per_mm2: 0.0,
        }
    }

    #[test]
    fn weight_stationary_reads_weights_far_less_than_features() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let shape = ConvShape::conv(128, 32, 16, 16, 3, 1, 1);
        let s = schedule_conv(&config, Precision::Int4, &shape).unwrap();
        // 256 output pixels stream per pass vs one weight vector per PE.
        assert!(s.feature_read_vectors > 7 * s.weight_load_vectors);
    }

    #[test]
    fn memory_breakdown_totals_and_fraction() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_unit(), config);
        let shape = ConvShape::conv(128, 32, 8, 8, 3, 1, 1);
        let s = schedule_conv(&config, Precision::Int4, &shape).unwrap();
        let b = m.schedule_energy_with_memory(&s, &SramModel::default());
        assert!(b.weight_read_fj > 0.0);
        assert!(b.feature_read_fj > 0.0);
        assert!(b.psum_rw_fj > 0.0);
        let sum = b.compute_fj + b.weight_read_fj + b.feature_read_fj + b.psum_rw_fj;
        assert!((b.total_fj() - sum).abs() < 1e-9);
        assert!(b.memory_fraction() > 0.0 && b.memory_fraction() < 1.0);
    }

    #[test]
    fn analytic_fallback_is_pinned_without_dma_counters() {
        // The pre-hierarchy analytic formula stays the fallback: vector
        // reads priced from the schedule's load counts, no fill, no DRAM.
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_unit(), config);
        let shape = ConvShape::conv(128, 32, 8, 8, 3, 1, 1);
        let s = schedule_conv(&config, Precision::Int4, &shape).unwrap();
        let sram = SramModel::default();
        let b = m.schedule_energy_with_memory(&s, &sram);
        let vector_bits = (16 * 32) as f64;
        assert_eq!(b.weight_read_fj, s.weight_load_vectors as f64 * vector_bits * 25.0);
        assert_eq!(b.feature_read_fj, s.feature_read_vectors as f64 * vector_bits * 25.0);
        assert_eq!(b.psum_rw_fj, s.busy_pe_cycles as f64 * 32.0 * (25.0 + 30.0));
        assert_eq!(b.buffer_fill_fj, 0.0);
        assert_eq!(b.dram_fj, 0.0);
    }

    #[test]
    fn dma_counters_add_fill_and_dram_energy_on_top_of_the_analytic_reads() {
        let config = ArrayConfig::paper(MacKind::Bsc);
        let m = ArrayEnergyModel::new(toy_unit(), config);
        let shape = ConvShape::conv(128, 32, 8, 8, 3, 1, 1);
        let sram = SramModel::default();
        let aware = crate::mem::schedule_conv_with_memory(
            &config,
            &crate::mem::MemConfig::edge(),
            Precision::Int4,
            &shape,
        )
        .unwrap();
        let analytic = m.schedule_energy_with_memory(&aware.compute, &sram);
        let measured = m.schedule_energy_with_dma(&aware, &sram);
        // Array-side reads agree; the DMA path adds real fill + DRAM cost.
        assert_eq!(measured.weight_read_fj, analytic.weight_read_fj);
        assert_eq!(measured.feature_read_fj, analytic.feature_read_fj);
        assert_eq!(measured.psum_rw_fj, analytic.psum_rw_fj);
        assert!(measured.buffer_fill_fj > 0.0);
        assert!(measured.dram_fj > 0.0);
        assert!(measured.total_fj() > analytic.total_fj());
        let expect_fill = aware.dma_load_bytes as f64 * 8.0 * sram.write_fj_per_bit
            + aware.dma_store_bytes as f64 * 8.0 * sram.read_fj_per_bit;
        assert_eq!(measured.buffer_fill_fj, expect_fill);
    }
}
