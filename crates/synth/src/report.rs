//! Combined PPA (power / performance / area) reporting.

use bsc_netlist::{Activity, GateKind, GateStats, Netlist};

use crate::power::leakage_nw;
use crate::{dynamic_energy_per_cycle_fj, timing, CellLibrary, EffortModel, SynthError};

/// Total placed area of the live cells in µm² (before effort scaling).
pub fn area(netlist: &Netlist, lib: &CellLibrary) -> f64 {
    cell_area_um2(&netlist.stats(), lib)
}

/// Area of the counted cells in µm², summed in [`GateKind::CELLS`] order.
fn cell_area_um2(stats: &GateStats, lib: &CellLibrary) -> f64 {
    GateKind::CELLS
        .iter()
        .map(|&k| stats.count(k) as f64 * lib.cell(k).area_um2)
        .sum()
}

/// Renders a `report_area`-style per-cell breakdown of the live netlist.
pub fn render_area_report(netlist: &Netlist, lib: &CellLibrary) -> String {
    use std::fmt::Write as _;
    let stats = netlist.stats();
    let total = area(netlist, lib);
    let mut out = String::new();
    let _ = writeln!(out, "{:<8} {:>8} {:>12} {:>8}", "cell", "count", "area um2", "share");
    for &k in &GateKind::CELLS {
        let count = stats.count(k);
        if count == 0 {
            continue;
        }
        let a = count as f64 * lib.cell(k).area_um2;
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>12.2} {:>7.1}%",
            k.to_string(),
            count,
            a,
            100.0 * a / total
        );
    }
    let _ = writeln!(out, "{:<8} {:>8} {:>12.2} {:>8}", "total", stats.total_cells(), total, "");
    out
}

/// The full PPA characterization of one design at one operating point, in
/// the units the paper reports.
///
/// One *operation* is one multiply **or** one accumulate, so a MAC counts as
/// two operations (the TOPS/W convention of the paper and of BitFusion /
/// BitBlade).
#[derive(Debug, Clone, PartialEq)]
pub struct PpaReport {
    /// Live standard cells.
    pub cells: usize,
    /// Live flip-flops.
    pub flops: usize,
    /// Clock-pin power of the flops at the operating point, in mW (a
    /// subset of `dynamic_power_mw`, paid even in idle cycles).
    pub clock_power_mw: f64,
    /// Area in µm² after effort scaling.
    pub area_um2: f64,
    /// Nominal minimum clock period from STA, in ps.
    pub nominal_period_ps: f64,
    /// Operating clock period in ps.
    pub period_ps: f64,
    /// Dynamic power at the operating point, in mW.
    pub dynamic_power_mw: f64,
    /// Leakage power, in mW.
    pub leakage_power_mw: f64,
    /// MAC operations completed per clock cycle.
    pub macs_per_cycle: f64,
    /// Energy per MAC in fJ (total power × period / MACs-per-cycle).
    pub energy_per_mac_fj: f64,
    /// Throughput in tera-operations per second (2 ops per MAC).
    pub tops: f64,
    /// Energy efficiency in TOPS/W.
    pub tops_per_w: f64,
    /// Area efficiency in TOPS/mm².
    pub tops_per_mm2: f64,
}

impl PpaReport {
    /// Total power (dynamic + leakage) in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.dynamic_power_mw + self.leakage_power_mw
    }

    /// Operating clock frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        1.0e6 / self.period_ps
    }
}

/// The period-independent part of a PPA analysis: everything [`analyze`]
/// derives from the netlist, the library and one activity trace before
/// it looks at the clock period.
///
/// Building a model runs the expensive passes once: the live-set sweep,
/// the levelized STA, the per-kind cell counts and the per-kind toggle
/// totals.  [`PpaModel::at`] then prices any operating point with
/// arithmetic alone — only the [`EffortModel`] multipliers depend on the
/// period — with no STA and no allocation.
///
/// [`PpaModel::of_netlist`] builds the netlist part and
/// [`PpaModel::with_activity`] adds one activity trace, so a netlist's
/// several traces (one per precision mode and stimulus profile, say)
/// share one STA.  [`analyze`] is exactly these two steps followed by
/// [`PpaModel::at`], so a stored model and a fresh analysis give
/// bit-identical reports.
///
/// # Example
///
/// ```
/// use bsc_netlist::{Netlist, tb};
/// use bsc_synth::{analyze, CellLibrary, EffortModel, PpaModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new();
/// let a = n.input_bus("a", 8);
/// let b = n.input_bus("b", 8);
/// let (sum, _) = bsc_netlist::components::adder::ripple_carry(&mut n, &a, &b, None);
/// n.mark_output_bus("sum", &sum);
/// let act = tb::run_random_activity(&n, &[], &[&a, &b], 64, 1)?;
/// let (lib, effort) = (CellLibrary::smic28_like(), EffortModel::default());
///
/// let model = PpaModel::of_netlist(&n, &lib)?.with_activity(&act, &lib);
/// for period_ps in [1000.0, 2000.0, 3000.0] {
///     let report = model.at(&effort, period_ps, 1.0)?;
///     assert_eq!(report, analyze(&n, &act, &lib, &effort, period_ps, 1.0)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PpaModel {
    /// Live cell counts per kind (cells and flops).
    stats: GateStats,
    /// Nominal minimum clock period from STA, in ps.
    nominal_period_ps: f64,
    /// Nominal area of the live cells, in µm².
    area_um2: f64,
    /// Nominal leakage of the live cells, in nW.
    leakage_nw: f64,
    /// Clock-pin energy of the live flops per cycle, in fJ.
    clock_energy_fj: f64,
    /// Nominal dynamic energy per cycle (toggles plus flop clock), in fJ.
    dynamic_energy_fj: f64,
    /// Cycle transitions the activity trace observed.
    observed_cycles: u64,
}

impl PpaModel {
    /// The netlist part alone: cell counts, STA, nominal area and
    /// leakage.  It has observed no activity, so [`PpaModel::at`] reports
    /// [`SynthError::NoActivity`] until [`PpaModel::with_activity`] adds
    /// a trace.
    ///
    /// # Errors
    ///
    /// [`SynthError::Netlist`] for combinational cycles.
    pub fn of_netlist(netlist: &Netlist, lib: &CellLibrary) -> Result<Self, SynthError> {
        let stats = netlist.stats();
        let nominal_period_ps = timing::min_period_ps(netlist, lib)?;
        Ok(PpaModel {
            nominal_period_ps,
            area_um2: cell_area_um2(&stats, lib),
            leakage_nw: leakage_nw(&stats, lib),
            clock_energy_fj: stats.flops() as f64 * lib.dff_clock_energy_fj,
            dynamic_energy_fj: 0.0,
            observed_cycles: 0,
            stats,
        })
    }

    /// This model's netlist part with `activity`'s switching instead of
    /// its own.  `activity` must be recorded on the same netlist, and
    /// `lib` must be the library the netlist part was built with.
    pub fn with_activity(&self, activity: &Activity, lib: &CellLibrary) -> Self {
        PpaModel {
            dynamic_energy_fj: dynamic_energy_per_cycle_fj(activity, &self.stats, lib),
            observed_cycles: activity.observed_cycles(),
            ..self.clone()
        }
    }

    /// Nominal (unconstrained-synthesis) minimum clock period from STA,
    /// in ps.
    pub fn nominal_period_ps(&self) -> f64 {
        self.nominal_period_ps
    }

    /// Prices one operating point: the effort multipliers for `period_ps`
    /// applied to the stored nominal costs.  `macs_per_cycle` is the
    /// number of MACs the design completes per cycle in the simulated
    /// mode.
    ///
    /// # Errors
    ///
    /// In this order:
    /// * [`SynthError::InvalidPeriod`] for non-positive or non-finite
    ///   periods;
    /// * [`SynthError::NoActivity`] when the activity trace is empty;
    /// * [`SynthError::TimingInfeasible`] when `period_ps` is below what
    ///   maximal upsizing can reach.
    pub fn at(
        &self,
        effort: &EffortModel,
        period_ps: f64,
        macs_per_cycle: f64,
    ) -> Result<PpaReport, SynthError> {
        if !(period_ps.is_finite()) || period_ps <= 0.0 {
            return Err(SynthError::InvalidPeriod(period_ps));
        }
        if self.observed_cycles == 0 {
            return Err(SynthError::NoActivity);
        }
        let mult = effort.multipliers(period_ps / self.nominal_period_ps)?;

        let area_um2 = self.area_um2 * mult.area;
        let e_cycle_fj = self.dynamic_energy_fj * mult.energy;
        // fJ per ps is exactly mW.
        let dynamic_power_mw = e_cycle_fj / period_ps;
        let leakage_mw = self.leakage_nw * mult.area * 1e-6;
        let total_mw = dynamic_power_mw + leakage_mw;

        let energy_per_mac_fj = if macs_per_cycle > 0.0 {
            total_mw * period_ps / macs_per_cycle
        } else {
            f64::INFINITY
        };
        let tops = 2.0 * macs_per_cycle / period_ps;
        let tops_per_w = if total_mw > 0.0 { tops / (total_mw * 1e-3) } else { 0.0 };
        let tops_per_mm2 = if area_um2 > 0.0 { tops / (area_um2 * 1e-6) } else { 0.0 };
        let clock_power_mw = self.clock_energy_fj * mult.energy / period_ps;

        Ok(PpaReport {
            cells: self.stats.total_cells(),
            flops: self.stats.flops(),
            clock_power_mw,
            area_um2,
            nominal_period_ps: self.nominal_period_ps,
            period_ps,
            dynamic_power_mw,
            leakage_power_mw: leakage_mw,
            macs_per_cycle,
            energy_per_mac_fj,
            tops,
            tops_per_w,
            tops_per_mm2,
        })
    }
}

/// Characterizes a design at a target clock period: builds its
/// [`PpaModel`] and evaluates it once.
///
/// `activity` must come from a representative stimulus run (see
/// [`bsc_netlist::tb::run_random_activity`]); `macs_per_cycle` is the number
/// of MACs the design completes per cycle in the simulated mode.  To price
/// one design at many periods, build the [`PpaModel`] once and call
/// [`PpaModel::at`] instead: the reports are bit-identical.
///
/// # Errors
///
/// * [`SynthError::Netlist`] for combinational cycles (found while
///   building the model, so before any other error);
/// * then, from [`PpaModel::at`], [`SynthError::InvalidPeriod`] for
///   non-positive periods, [`SynthError::NoActivity`] when the activity
///   trace is empty and [`SynthError::TimingInfeasible`] when `period_ps`
///   is below what maximal upsizing can reach.
pub fn analyze(
    netlist: &Netlist,
    activity: &Activity,
    lib: &CellLibrary,
    effort: &EffortModel,
    period_ps: f64,
    macs_per_cycle: f64,
) -> Result<PpaReport, SynthError> {
    PpaModel::of_netlist(netlist, lib)?
        .with_activity(activity, lib)
        .at(effort, period_ps, macs_per_cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_netlist::{components::adder, tb};

    fn adder_design() -> (Netlist, bsc_netlist::Bus, bsc_netlist::Bus) {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (sum, _) = adder::ripple_carry(&mut n, &a, &b, None);
        n.mark_output_bus("sum", &sum);
        (n, a, b)
    }

    #[test]
    fn analyze_produces_consistent_units() {
        let (n, a, b) = adder_design();
        let act = tb::run_random_activity(&n, &[], &[&a, &b], 64, 5).unwrap();
        let lib = CellLibrary::smic28_like();
        let r = analyze(&n, &act, &lib, &EffortModel::default(), 2000.0, 1.0).unwrap();
        assert!(r.area_um2 > 0.0);
        assert!(r.dynamic_power_mw > 0.0);
        assert!(r.leakage_power_mw > 0.0);
        // energy/MAC == total power * period when 1 MAC per cycle.
        assert!((r.energy_per_mac_fj - r.total_power_mw() * 2000.0).abs() < 1e-9);
        // frequency check: 2000 ps -> 500 MHz.
        assert!((r.frequency_mhz() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn relaxed_period_lowers_power_but_raises_energy_per_op_modestly() {
        let (n, a, b) = adder_design();
        let act = tb::run_random_activity(&n, &[], &[&a, &b], 64, 5).unwrap();
        let lib = CellLibrary::smic28_like();
        let fast = analyze(&n, &act, &lib, &EffortModel::default(), 1000.0, 1.0).unwrap();
        let slow = analyze(&n, &act, &lib, &EffortModel::default(), 2400.0, 1.0).unwrap();
        assert!(slow.dynamic_power_mw < fast.dynamic_power_mw);
        assert!(slow.tops < fast.tops);
    }

    #[test]
    fn infeasible_period_is_reported() {
        let (n, a, b) = adder_design();
        let act = tb::run_random_activity(&n, &[], &[&a, &b], 16, 5).unwrap();
        let lib = CellLibrary::smic28_like();
        let nominal = timing::min_period_ps(&n, &lib).unwrap();
        let err = analyze(&n, &act, &lib, &EffortModel::default(), nominal * 0.5, 1.0);
        assert!(matches!(err, Err(SynthError::TimingInfeasible { .. })));
    }

    #[test]
    fn empty_activity_is_rejected() {
        let (n, _, _) = adder_design();
        let mut sim = bsc_netlist::Simulator::new(&n).unwrap();
        sim.eval();
        let act = bsc_netlist::Activity::new(&sim);
        let lib = CellLibrary::smic28_like();
        let err = analyze(&n, &act, &lib, &EffortModel::default(), 2000.0, 1.0);
        assert!(matches!(err, Err(SynthError::NoActivity)));
    }
}

#[cfg(test)]
mod area_report_tests {
    use super::*;
    use bsc_netlist::components::adder;

    #[test]
    fn area_report_lists_cells_and_sums_to_total() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (sum, _) = adder::ripple_carry(&mut n, &a, &b, None);
        n.mark_output_bus("sum", &sum);
        let lib = CellLibrary::smic28_like();
        let report = render_area_report(&n, &lib);
        assert!(report.contains("XOR2"));
        assert!(report.contains("total"));
        // Total line carries the same area as `area()`.
        let total = area(&n, &lib);
        assert!(report.contains(&format!("{total:.2}")));
    }
}
