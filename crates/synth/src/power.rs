//! Switching-activity power estimation (the PrimeTime PX substitute).

use bsc_netlist::{Activity, GateKind, GateStats};

use crate::CellLibrary;

/// Average dynamic energy consumed per clock cycle in fJ, from recorded
/// toggle counts: `Σ_kind toggles_per_cycle(kind) × cell_energy(kind)` in
/// [`GateKind`] order, plus the clock-pin energy of every live flop (paid
/// each cycle).  One pass over the nets yields every kind's total.
pub fn dynamic_energy_per_cycle_fj(
    activity: &Activity,
    stats: &GateStats,
    lib: &CellLibrary,
) -> f64 {
    let observed = activity.observed_cycles() as f64;
    let mut energy = 0.0;
    for (kind, toggles) in activity.iter() {
        energy += (toggles as f64 / observed) * lib.cell(kind).energy_fj;
    }
    energy += stats.flops() as f64 * lib.dff_clock_energy_fj;
    energy
}

/// Leakage power in mW for the live cells of a design at the given area
/// multiplier (leakage scales with cell size).
pub fn leakage_power_mw(stats: &GateStats, lib: &CellLibrary, area_mult: f64) -> f64 {
    leakage_nw(stats, lib) * area_mult * 1e-6
}

/// Nominal leakage of the live cells in nW, summed in [`GateKind::CELLS`]
/// order.
pub(crate) fn leakage_nw(stats: &GateStats, lib: &CellLibrary) -> f64 {
    GateKind::CELLS
        .iter()
        .map(|&k| stats.count(k) as f64 * lib.cell(k).leakage_nw)
        .sum()
}

/// Renders a `report_power`-style breakdown: dynamic power per cell kind,
/// flop clock power and leakage, at the given clock period.
pub fn render_power_report(
    activity: &Activity,
    stats: &GateStats,
    lib: &CellLibrary,
    period_ps: f64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>12}",
        "cell", "count", "toggles/cyc", "dyn mW"
    );
    let mut total_dyn = 0.0;
    for (kind, _) in activity.iter() {
        let tpc = activity.toggles_per_cycle(kind);
        let mw = tpc * lib.cell(kind).energy_fj / period_ps;
        total_dyn += mw;
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14.2} {:>12.4}",
            kind.to_string(),
            stats.count(kind),
            tpc,
            mw
        );
    }
    let clock_mw = stats.flops() as f64 * lib.dff_clock_energy_fj / period_ps;
    let leak_mw = leakage_power_mw(stats, lib, 1.0);
    let _ = writeln!(out, "{:<8} {:>10} {:>14} {:>12.4}", "clock", stats.flops(), "-", clock_mw);
    let _ = writeln!(out, "{:<8} {:>10} {:>14} {:>12.4}", "leakage", "-", "-", leak_mw);
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>12.4}",
        "total",
        stats.total_cells(),
        "-",
        total_dyn + clock_mw + leak_mw
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_netlist::{tb, Netlist};

    fn xor_strip() -> (Netlist, bsc_netlist::Bus, bsc_netlist::Bus) {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 16);
        let b = n.input_bus("b", 16);
        let x: bsc_netlist::Bus = a
            .bits()
            .iter()
            .zip(b.bits())
            .map(|(&p, &q)| n.xor(p, q))
            .collect();
        n.mark_output_bus("x", &x);
        (n, a, b)
    }

    #[test]
    fn random_data_burns_roughly_half_toggle_rate() {
        let (n, a, b) = xor_strip();
        let act = tb::run_random_activity(&n, &[], &[&a, &b], 256, 3).unwrap();
        let lib = CellLibrary::smic28_like();
        let e = dynamic_energy_per_cycle_fj(&act, &n.stats(), &lib);
        // Each XOR output toggles ~50% of cycles: 16 cells * 0.5 * 1.1 fJ.
        let expected = 16.0 * 0.5 * 1.1;
        assert!((e - expected).abs() / expected < 0.15, "e = {e}");
    }

    #[test]
    fn leakage_scales_with_area_multiplier() {
        let (n, _, _) = xor_strip();
        let lib = CellLibrary::smic28_like();
        let base = leakage_power_mw(&n.stats(), &lib, 1.0);
        let up = leakage_power_mw(&n.stats(), &lib, 1.3);
        assert!((up / base - 1.3).abs() < 1e-9);
        assert!(base > 0.0);
    }

    #[test]
    fn idle_design_burns_only_clock_energy() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q = n.dff(d, false);
        n.mark_output(q, "q");
        let act = tb::run_random_activity(&n, &[(d, false)], &[], 8, 1).unwrap();
        let lib = CellLibrary::smic28_like();
        let e = dynamic_energy_per_cycle_fj(&act, &n.stats(), &lib);
        assert!((e - lib.dff_clock_energy_fj).abs() < 1e-9);
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use bsc_netlist::{tb, Netlist};

    #[test]
    fn power_report_breaks_down_by_cell_and_totals() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (sum, _) = bsc_netlist::components::adder::ripple_carry(&mut n, &a, &b, None);
        let q = sum.register(&mut n, false);
        n.mark_output_bus("q", &q);
        let act = tb::run_random_activity(&n, &[], &[&a, &b], 64, 2).unwrap();
        let lib = CellLibrary::smic28_like();
        let report = render_power_report(&act, &n.stats(), &lib, 2000.0);
        assert!(report.contains("XOR2"));
        assert!(report.contains("clock"));
        assert!(report.contains("leakage"));
        assert!(report.contains("total"));
    }
}
