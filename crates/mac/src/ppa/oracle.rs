//! The per-query analysis that the stored [`bsc_synth::PpaModel`]s
//! replaced, kept only as a test oracle.
//!
//! Before the models, every `at_period*` query ran a whole
//! `bsc_synth::analyze`: a live-set sweep, a levelized STA, the cell
//! counts, and one rescan of every net per cell kind for the switching
//! energy.  This is that code, verbatim.  The equivalence test below
//! prices every design, mode, stimulus profile and period of a grid both
//! ways and demands identical bits (or the identical error).

use bsc_netlist::{Activity, GateKind, GateStats, Netlist};
use bsc_synth::voltage::{scaled_library, VoltageModel};
use bsc_synth::{timing, CellLibrary, EffortModel, PpaReport, SynthError};

use super::*;

fn area(netlist: &Netlist, lib: &CellLibrary) -> f64 {
    let stats = netlist.stats();
    GateKind::CELLS
        .iter()
        .map(|&k| stats.count(k) as f64 * lib.cell(k).area_um2)
        .sum()
}

fn dynamic_energy_per_cycle_fj(activity: &Activity, stats: &GateStats, lib: &CellLibrary) -> f64 {
    let mut energy = 0.0;
    for (kind, _) in activity.iter() {
        energy += activity.toggles_per_cycle(kind) * lib.cell(kind).energy_fj;
    }
    energy += stats.flops() as f64 * lib.dff_clock_energy_fj;
    energy
}

fn leakage_power_mw(stats: &GateStats, lib: &CellLibrary, area_mult: f64) -> f64 {
    let leak_nw: f64 = GateKind::CELLS
        .iter()
        .map(|&k| stats.count(k) as f64 * lib.cell(k).leakage_nw)
        .sum();
    leak_nw * area_mult * 1e-6
}

fn analyze(
    netlist: &Netlist,
    activity: &Activity,
    lib: &CellLibrary,
    effort: &EffortModel,
    period_ps: f64,
    macs_per_cycle: f64,
) -> Result<PpaReport, SynthError> {
    if !(period_ps.is_finite()) || period_ps <= 0.0 {
        return Err(SynthError::InvalidPeriod(period_ps));
    }
    if activity.observed_cycles() == 0 {
        return Err(SynthError::NoActivity);
    }
    let stats = netlist.stats();
    let flops = stats.flops();
    let nominal_period_ps = timing::min_period_ps(netlist, lib)?;
    let mult = effort.multipliers(period_ps / nominal_period_ps)?;

    let area_um2 = area(netlist, lib) * mult.area;
    let e_cycle_fj = dynamic_energy_per_cycle_fj(activity, &stats, lib) * mult.energy;
    let dynamic_power_mw = e_cycle_fj / period_ps;
    let leakage_mw = leakage_power_mw(&stats, lib, mult.area);
    let total_mw = dynamic_power_mw + leakage_mw;

    let energy_per_mac_fj = if macs_per_cycle > 0.0 {
        total_mw * period_ps / macs_per_cycle
    } else {
        f64::INFINITY
    };
    let tops = 2.0 * macs_per_cycle / period_ps;
    let tops_per_w = if total_mw > 0.0 { tops / (total_mw * 1e-3) } else { 0.0 };
    let tops_per_mm2 = if area_um2 > 0.0 { tops / (area_um2 * 1e-6) } else { 0.0 };
    let clock_power_mw = flops as f64 * lib.dff_clock_energy_fj * mult.energy / period_ps;

    Ok(PpaReport {
        cells: stats.total_cells(),
        flops,
        clock_power_mw,
        area_um2,
        nominal_period_ps,
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

/// Every field of a report, floats as their bit patterns.
fn bits(r: &PpaReport) -> [u64; 13] {
    [
        r.cells as u64,
        r.flops as u64,
        r.clock_power_mw.to_bits(),
        r.area_um2.to_bits(),
        r.nominal_period_ps.to_bits(),
        r.period_ps.to_bits(),
        r.dynamic_power_mw.to_bits(),
        r.leakage_power_mw.to_bits(),
        r.macs_per_cycle.to_bits(),
        r.energy_per_mac_fj.to_bits(),
        r.tops.to_bits(),
        r.tops_per_w.to_bits(),
        r.tops_per_mm2.to_bits(),
    ]
}

/// Same variant and the same payload bits (NaN payloads included).
fn same_error(live: &PpaError, oracle: &SynthError) -> bool {
    let PpaError::Synth(live) = live else {
        return false;
    };
    match (live, oracle) {
        (SynthError::InvalidPeriod(a), SynthError::InvalidPeriod(b)) => a.to_bits() == b.to_bits(),
        (SynthError::NoActivity, SynthError::NoActivity) => true,
        (
            SynthError::TimingInfeasible { demanded_speedup: a, max_speedup: m },
            SynthError::TimingInfeasible { demanded_speedup: b, max_speedup: n },
        ) => a.to_bits() == b.to_bits() && m.to_bits() == n.to_bits(),
        _ => false,
    }
}

/// The paper sweep, the effort model's edges around `nominal` and the
/// invalid periods.
fn periods(nominal: f64) -> Vec<f64> {
    let edge = nominal * (1.0 / 1.4);
    let mut periods = paper_period_sweep_ps();
    periods.extend([
        edge.next_down(),
        edge,
        edge.next_up(),
        nominal,
        nominal * 1.5,
        nominal * 100.0,
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
    ]);
    periods
}

type Query = fn(&DesignCharacterization, Precision, f64) -> Result<PpaReport, PpaError>;
type Best = fn(&DesignCharacterization, Precision, &[f64]) -> Result<PpaReport, PpaError>;

/// Checks every query of `design` against the oracle; returns the number
/// of feasible points.
fn check_design(design: &DesignCharacterization, config: &CharacterizeConfig) -> usize {
    let netlist = design.netlist().netlist();
    let nominal = timing::min_period_ps(netlist, &config.library).unwrap();
    assert_eq!(design.nominal_period_ps().to_bits(), nominal.to_bits());
    let periods = periods(nominal);
    let mut feasible = 0;
    for p in Precision::ALL {
        let macs = design.netlist().macs_per_cycle(p) as f64;
        let profiles: [(&str, &Activity, Query, Best); 2] = [
            (
                "random",
                design.activity(p),
                DesignCharacterization::at_period,
                DesignCharacterization::best_efficiency,
            ),
            (
                "weight-stationary",
                design.activity_weight_stationary(p),
                DesignCharacterization::at_period_weight_stationary,
                DesignCharacterization::best_efficiency_weight_stationary,
            ),
        ];
        for (profile, activity, at_period, best_efficiency) in profiles {
            let mut best: Option<PpaReport> = None;
            for &t in &periods {
                let live = at_period(design, p, t);
                let oracle = analyze(netlist, activity, &config.library, &config.effort, t, macs);
                let ctx = format!("{} L={} {p} {profile} @ {t} ps", design.kind(), config.length);
                match (&live, &oracle) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(bits(a), bits(b), "{ctx}: {a:?} vs {b:?}");
                        feasible += 1;
                        if best.as_ref().is_none_or(|r| b.tops_per_w > r.tops_per_w) {
                            best = Some(b.clone());
                        }
                    }
                    (Err(a), Err(b)) => assert!(same_error(a, b), "{ctx}: {a:?} vs {b:?}"),
                    _ => panic!("{ctx}: {live:?} vs {oracle:?}"),
                }
            }
            match (best_efficiency(design, p, &periods), best) {
                (Ok(a), Some(b)) => assert_eq!(bits(&a), bits(&b), "best {profile} {p}"),
                (Err(e), None) => assert!(matches!(e, PpaError::Synth(_)), "best {profile} {p}"),
                (a, b) => panic!("best {profile} {p}: {a:?} vs {b:?}"),
            }
        }
    }
    feasible
}

/// Checks the grid's 3 kinds × L ∈ {2, 4, 8} designs under `library`.
fn check_grid(library: CellLibrary) {
    let mut feasible = 0;
    for kind in MacKind::ALL {
        for length in [2, 4, 8] {
            let config = CharacterizeConfig {
                steps: 24,
                seed: 0x0AC1E ^ length as u64,
                library: library.clone(),
                ..CharacterizeConfig::quick(length)
            };
            let design = DesignCharacterization::new(kind, &config).unwrap();
            feasible += check_design(&design, &config);
        }
    }
    // Most of the grid is feasible; the edges and invalid periods are not.
    assert!(feasible > 500, "only {feasible} feasible points");
}

#[test]
fn stored_models_equal_the_per_query_analysis_bit_for_bit() {
    check_grid(CellLibrary::smic28_like());
}

#[test]
fn stored_models_equal_the_per_query_analysis_at_0_7_v() {
    let nominal = CellLibrary::smic28_like();
    check_grid(scaled_library(&nominal, &VoltageModel::smic28_like(), 0.7).unwrap());
}

#[test]
fn a_design_without_stimulus_reports_no_activity_like_the_oracle() {
    for kind in MacKind::ALL {
        let config = CharacterizeConfig { steps: 0, ..CharacterizeConfig::quick(2) };
        let design = DesignCharacterization::new(kind, &config).unwrap();
        assert_eq!(design.activity(Precision::Int4).observed_cycles(), 0);
        assert_eq!(check_design(&design, &config), 0);
        assert!(matches!(
            design.at_period(Precision::Int4, 2000.0),
            Err(PpaError::Synth(SynthError::NoActivity))
        ));
    }
}
