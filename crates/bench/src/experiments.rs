//! Drivers regenerating every table and figure of the paper's evaluation.

use std::fmt::Write as _;

use bsc_mac::ppa::{paper_period_sweep_ps, PpaError};
use bsc_mac::{MacKind, Precision};
use bsc_nn::models;
use bsc_systolic::energy::ArrayEnergyModel;
use bsc_systolic::mapping::schedule_conv;
use bsc_systolic::ArrayConfig;
use bsc_telemetry::JsonBuilder;

use crate::Workbench;

/// Clock period used for the array-level experiments (the sweep's
/// best-efficiency point).
pub const ARRAY_PERIOD_PS: f64 = 2400.0;

/// One operating point of the Fig. 7 clock-period sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Design under test.
    pub kind: MacKind,
    /// Precision mode.
    pub precision: Precision,
    /// Clock period in ps.
    pub period_ps: f64,
    /// Total power in mW.
    pub total_power_mw: f64,
    /// Energy per MAC in fJ.
    pub energy_per_mac_fj: f64,
    /// Energy efficiency in TOPS/W.
    pub tops_per_w: f64,
    /// Area efficiency in TOPS/mm².
    pub tops_per_mm2: f64,
}

/// Runs the paper's 0.8–2.4 ns sweep over every design × mode
/// (Fig. 7a and 7b share this data).  Infeasible points (tighter than the
/// effort model can close) are skipped, mirroring a failed timing run.
pub fn fig7_sweep(wb: &Workbench) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for kind in MacKind::ALL {
        let design = wb.design(kind);
        for p in Precision::ALL {
            for &t in &paper_period_sweep_ps() {
                if let Ok(r) = design.at_period(p, t) {
                    points.push(SweepPoint {
                        kind,
                        precision: p,
                        period_ps: t,
                        total_power_mw: r.total_power_mw(),
                        energy_per_mac_fj: r.energy_per_mac_fj,
                        tops_per_w: r.tops_per_w,
                        tops_per_mm2: r.tops_per_mm2,
                    });
                }
            }
        }
    }
    points
}

/// Renders Fig. 7(a): energy (per MAC) and power versus clock period.
pub fn render_fig7a(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 7(a) — energy vs delay (clock period sweep 0.8..2.4 ns)");
    let _ = writeln!(
        out,
        "{:<6} {:<7} {:>10} {:>12} {:>14}",
        "design", "mode", "period ps", "power mW", "energy fJ/MAC"
    );
    for pt in points {
        let _ = writeln!(
            out,
            "{:<6} {:<7} {:>10.0} {:>12.3} {:>14.2}",
            pt.kind.to_string(),
            pt.precision.to_string(),
            pt.period_ps,
            pt.total_power_mw,
            pt.energy_per_mac_fj
        );
    }
    // The paper's headline observation on this figure.
    let power_at = |kind: MacKind, p: Precision| {
        points
            .iter()
            .find(|x| x.kind == kind && x.precision == p && x.period_ps == 2000.0)
            .map(|x| x.total_power_mw)
    };
    if let (Some(b), Some(l)) = (power_at(MacKind::Bsc, Precision::Int2), power_at(MacKind::Lpc, Precision::Int2)) {
        let _ = writeln!(
            out,
            "\n2-bit power at 500 MHz: BSC {b:.3} mW vs LPC {l:.3} mW ({:.0}% lower; paper: 50% lower)",
            100.0 * (1.0 - b / l)
        );
    }
    out
}

/// Renders Fig. 7(b): energy efficiency versus area efficiency.
pub fn render_fig7b(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 7(b) — energy efficiency vs area efficiency");
    let _ = writeln!(
        out,
        "{:<6} {:<7} {:>10} {:>12} {:>14}",
        "design", "mode", "period ps", "TOPS/W", "TOPS/mm2"
    );
    for pt in points {
        let _ = writeln!(
            out,
            "{:<6} {:<7} {:>10.0} {:>12.2} {:>14.2}",
            pt.kind.to_string(),
            pt.precision.to_string(),
            pt.period_ps,
            pt.tops_per_w,
            pt.tops_per_mm2
        );
    }
    out
}

/// One cell of Fig. 8(a): a design's maximum vector-level energy
/// efficiency in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxEfficiency {
    /// Design under test.
    pub kind: MacKind,
    /// Precision mode.
    pub precision: Precision,
    /// Best energy efficiency over the sweep, TOPS/W.
    pub tops_per_w: f64,
    /// Period at which the best point occurs, ps.
    pub period_ps: f64,
}

/// Maximum vector-level energy efficiency per design × mode (Fig. 8a).
///
/// # Errors
///
/// Propagates analysis failures when no sweep point is feasible.
pub fn fig8a(wb: &Workbench) -> Result<Vec<MaxEfficiency>, PpaError> {
    let sweep = paper_period_sweep_ps();
    let mut rows = Vec::new();
    for kind in MacKind::ALL {
        for p in Precision::ALL {
            let best = wb.design(kind).best_efficiency(p, &sweep)?;
            rows.push(MaxEfficiency {
                kind,
                precision: p,
                tops_per_w: best.tops_per_w,
                period_ps: best.period_ps,
            });
        }
    }
    Ok(rows)
}

fn eff_of(rows: &[MaxEfficiency], kind: MacKind, p: Precision) -> f64 {
    rows.iter()
        .find(|r| r.kind == kind && r.precision == p)
        .map_or(f64::NAN, |r| r.tops_per_w)
}

/// Renders Fig. 8(a) with the BSC-versus-baseline ratios the paper quotes.
pub fn render_fig8a(rows: &[MaxEfficiency]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 8(a) — max vector energy efficiency (TOPS/W)");
    let _ = writeln!(out, "{:<7} {:>10} {:>10} {:>10}", "mode", "BSC", "LPC", "HPS");
    for p in Precision::ALL {
        let _ = writeln!(
            out,
            "{:<7} {:>10.2} {:>10.2} {:>10.2}",
            p.to_string(),
            eff_of(rows, MacKind::Bsc, p),
            eff_of(rows, MacKind::Lpc, p),
            eff_of(rows, MacKind::Hps, p)
        );
    }
    let _ = writeln!(out, "\nratios (paper: vs LPC 1.24x @2b, ~2x @4b/8b; vs HPS ~1.6x @2b/4b)");
    for p in Precision::ALL {
        let b = eff_of(rows, MacKind::Bsc, p);
        let _ = writeln!(
            out,
            "{:<7} BSC/LPC {:>5.2}x   BSC/HPS {:>5.2}x",
            p.to_string(),
            b / eff_of(rows, MacKind::Lpc, p),
            b / eff_of(rows, MacKind::Hps, p)
        );
    }
    out
}

/// One cell of Fig. 8(b): the array's steady-state efficiency in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayEfficiency {
    /// Design under test.
    pub kind: MacKind,
    /// Precision mode.
    pub precision: Precision,
    /// Steady-state array energy efficiency, TOPS/W.
    pub tops_per_w: f64,
    /// Array throughput, TOPS.
    pub tops: f64,
}

/// Vector systolic PE-array energy efficiency per design × mode at the
/// best weight-stationary operating point (Fig. 8b).
///
/// # Errors
///
/// Propagates analysis failures when no sweep point is feasible.
pub fn fig8b(wb: &Workbench) -> Result<Vec<ArrayEfficiency>, PpaError> {
    let sweep = paper_period_sweep_ps();
    let mut rows = Vec::new();
    for kind in MacKind::ALL {
        let config = ArrayConfig { pes: 32, vector_length: wb.vector_length(), kind };
        for p in Precision::ALL {
            let unit = wb.design(kind).best_efficiency_weight_stationary(p, &sweep)?;
            let model = ArrayEnergyModel::new(unit, config);
            rows.push(ArrayEfficiency {
                kind,
                precision: p,
                tops_per_w: model.steady_state_tops_per_w(),
                tops: model.steady_state_tops(),
            });
        }
    }
    Ok(rows)
}

/// Renders Fig. 8(b) next to the paper's BSC array numbers.
pub fn render_fig8b(rows: &[ArrayEfficiency]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 8(b) — vector systolic PE array energy efficiency (TOPS/W)\n(paper BSC array: 33.25 @2b, 13.77 @4b)"
    );
    let _ = writeln!(out, "{:<7} {:>10} {:>10} {:>10}", "mode", "BSC", "LPC", "HPS");
    for p in Precision::ALL {
        let get = |k: MacKind| {
            rows.iter()
                .find(|r| r.kind == k && r.precision == p)
                .map_or(f64::NAN, |r| r.tops_per_w)
        };
        let _ = writeln!(
            out,
            "{:<7} {:>10.2} {:>10.2} {:>10.2}",
            p.to_string(),
            get(MacKind::Bsc),
            get(MacKind::Lpc),
            get(MacKind::Hps)
        );
    }
    out
}

/// One bar of Fig. 9: a benchmark network's average efficiency on one
/// design's array.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkEfficiency {
    /// Benchmark network name.
    pub network: String,
    /// Design under test.
    pub kind: MacKind,
    /// Network-average energy efficiency by the paper's methodology
    /// (weight-fraction-weighted mean of the per-mode array efficiencies),
    /// TOPS/W.
    pub tops_per_w: f64,
    /// Network-average efficiency from the full layer-by-layer Fig. 6
    /// mapping (tiling, fill bubbles and gated lanes included) — this
    /// reproduction's more detailed extension of the paper's number.
    pub mapped_tops_per_w: f64,
    /// Inference latency at the operating clock (mapped schedule), ms.
    pub latency_ms: f64,
    /// Cycle-weighted array utilization (mapped schedule).
    pub utilization: f64,
}

/// Average energy efficiency of the multi-precision CNN benchmarks on all
/// three arrays (Fig. 9).
///
/// The headline number follows the paper's methodology: Fig. 9's values
/// are the Table-I weight fractions applied to the Fig. 8(b) per-mode
/// array efficiencies (the paper's LeNet-5 value 22.54 is exactly
/// `0.55 × 13.77 + 0.45 × 33.25`).  The mapped column re-derives the
/// average from a full per-layer schedule instead.
///
/// # Errors
///
/// Propagates mapping and analysis failures.
pub fn fig9(wb: &Workbench) -> Result<Vec<BenchmarkEfficiency>, PpaError> {
    let fig8b_rows = fig8b(wb)?;
    let mut rows = Vec::new();
    for net in models::table1_benchmarks() {
        for kind in MacKind::ALL {
            let dist = net.precision_distribution();
            let paper_method: f64 = Precision::ALL
                .into_iter()
                .map(|p| {
                    let eff = fig8b_rows
                        .iter()
                        .find(|r| r.kind == kind && r.precision == p)
                        .map_or(0.0, |r| r.tops_per_w);
                    dist.fraction(p) * eff
                })
                .sum();
            let config = ArrayConfig { pes: 32, vector_length: wb.vector_length(), kind };
            let mut energy_fj = 0.0;
            let mut macs = 0u64;
            let mut cycles = 0u64;
            let mut util_weighted = 0.0;
            for layer in &net.layers {
                let unit = wb
                    .design(kind)
                    .at_period_weight_stationary(layer.precision, ARRAY_PERIOD_PS)?;
                let model = ArrayEnergyModel::new(unit, config);
                let shape = bsc_accel::layer_to_conv_shape(&layer.kind);
                let s = schedule_conv(&config, layer.precision, &shape)
                    .expect("benchmark layer shapes are non-empty");
                energy_fj += model.schedule_energy_fj(&s);
                macs += s.useful_macs;
                cycles += s.cycles;
                util_weighted += s.utilization * s.cycles as f64;
            }
            rows.push(BenchmarkEfficiency {
                network: net.name.clone(),
                kind,
                tops_per_w: paper_method,
                mapped_tops_per_w: 2.0e3 * macs as f64 / energy_fj,
                latency_ms: cycles as f64 * ARRAY_PERIOD_PS * 1e-9,
                utilization: if cycles > 0 { util_weighted / cycles as f64 } else { 0.0 },
            });
        }
    }
    Ok(rows)
}

/// The paper's Fig. 9 published values: (network, BSC, ratio vs LPC,
/// ratio vs HPS).
pub const FIG9_PAPER: [(&str, f64, f64, f64); 4] = [
    ("VGG-16", 12.75, 2.17, 1.43),
    ("LeNet-5", 22.54, 1.61, 1.47),
    ("ResNet-18", 13.22, 2.18, 1.45),
    ("NAS-Based", 16.04, 1.75, 1.43),
];

/// Renders Fig. 9 next to the paper's values and ratios.
pub fn render_fig9(rows: &[BenchmarkEfficiency]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 9 — average energy efficiency on NAS multi-precision CNNs (TOPS/W)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}  {:>9} {:>9}   {:>22}",
        "network", "BSC", "LPC", "HPS", "BSC/LPC", "BSC/HPS", "paper BSC (vsLPC,vsHPS)"
    );
    for &(name, p_bsc, p_lpc_ratio, p_hps_ratio) in &FIG9_PAPER {
        let get = |k: MacKind| {
            rows.iter()
                .find(|r| r.network == name && r.kind == k)
                .map_or(f64::NAN, |r| r.tops_per_w)
        };
        let (b, l, h) = (get(MacKind::Bsc), get(MacKind::Lpc), get(MacKind::Hps));
        let _ = writeln!(
            out,
            "{:<10} {:>8.2} {:>8.2} {:>8.2}  {:>8.2}x {:>8.2}x   {:>6.2} ({:>4.2}x, {:>4.2}x)",
            name,
            b,
            l,
            h,
            b / l,
            b / h,
            p_bsc,
            p_lpc_ratio,
            p_hps_ratio
        );
    }
    let _ = writeln!(
        out,
        "
extension: full Fig. 6 layer mapping (tiling, fill bubbles, gated lanes)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}  {:>12} {:>10}",
        "network", "BSC", "LPC", "HPS", "BSC util", "BSC ms"
    );
    for &(name, ..) in &FIG9_PAPER {
        let get = |k: MacKind| rows.iter().find(|r| r.network == name && r.kind == k);
        let (b, l, h) = (get(MacKind::Bsc), get(MacKind::Lpc), get(MacKind::Hps));
        if let (Some(b), Some(l), Some(h)) = (b, l, h) {
            let _ = writeln!(
                out,
                "{:<10} {:>8.2} {:>8.2} {:>8.2}  {:>11.1}% {:>10.2}",
                name,
                b.mapped_tops_per_w,
                l.mapped_tops_per_w,
                h.mapped_tops_per_w,
                100.0 * b.utilization,
                b.latency_ms
            );
        }
    }
    out
}

/// Renders Table I (delegates to `bsc-nn`).
pub fn render_table1() -> String {
    format!("Table I — NAS-based multi-precision CNN benchmarks\n{}", bsc_nn::report::render_table1())
}

/// Serializes the Fig. 7 sweep as CSV (`design,mode,period_ps,...`).
pub fn fig7_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "design,mode_bits,period_ps,total_power_mw,energy_per_mac_fj,tops_per_w,tops_per_mm2\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            p.kind, p.precision.bits(), p.period_ps, p.total_power_mw,
            p.energy_per_mac_fj, p.tops_per_w, p.tops_per_mm2
        );
    }
    out
}

/// Serializes Fig. 8(a) as CSV.
pub fn fig8a_csv(rows: &[MaxEfficiency]) -> String {
    let mut out = String::from("design,mode_bits,tops_per_w,period_ps\n");
    for r in rows {
        let _ = writeln!(out, "{},{},{},{}", r.kind, r.precision.bits(), r.tops_per_w, r.period_ps);
    }
    out
}

/// Serializes Fig. 8(b) as CSV.
pub fn fig8b_csv(rows: &[ArrayEfficiency]) -> String {
    let mut out = String::from("design,mode_bits,tops_per_w,tops\n");
    for r in rows {
        let _ = writeln!(out, "{},{},{},{}", r.kind, r.precision.bits(), r.tops_per_w, r.tops);
    }
    out
}

/// Serializes Fig. 9 as CSV.
pub fn fig9_csv(rows: &[BenchmarkEfficiency]) -> String {
    let mut out =
        String::from("network,design,tops_per_w,mapped_tops_per_w,latency_ms,utilization\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.network, r.kind, r.tops_per_w, r.mapped_tops_per_w, r.latency_ms, r.utilization
        );
    }
    out
}

/// Serializes every number `repro all` derives from the paper's figures
/// (Table I, each Fig. 7 sweep point, the Fig. 8a/8b/9 rows) as the
/// `BENCH_paper.json` document CI diffs at `--tol 0`.
///
/// Floats are written in Rust's shortest round-trip form, so the diff
/// compares exact bits.  Rows are indexed by position (no `design` or
/// `name` member), and each section carries its row count, so a lost,
/// added or reordered row is a gated drift rather than a warning.
pub fn paper_json(
    fig7: &[SweepPoint],
    fig8a: &[MaxEfficiency],
    fig8b: &[ArrayEfficiency],
    fig9: &[BenchmarkEfficiency],
) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("benchmark").string("paper_figures");
    let table1 = bsc_nn::report::table1();
    j.key("table1_rows").u64(table1.len() as u64);
    j.key("table1").begin_array();
    for r in &table1 {
        j.begin_object();
        j.key("cnn").string(&r.cnn);
        j.key("dataset").string(&r.dataset);
        j.key("model_mbytes").f64(r.model_mbytes);
        j.key("frac8").f64(r.frac8);
        j.key("frac4").f64(r.frac4);
        j.key("frac2").f64(r.frac2);
        j.end_object();
    }
    j.end_array();
    j.key("fig7_points").u64(fig7.len() as u64);
    j.key("fig7").begin_array();
    for p in fig7 {
        j.begin_object();
        j.key("kind").string(&p.kind.to_string());
        j.key("bits").u64(u64::from(p.precision.bits()));
        j.key("period_ps").f64(p.period_ps);
        j.key("total_power_mw").f64(p.total_power_mw);
        j.key("energy_per_mac_fj").f64(p.energy_per_mac_fj);
        j.key("tops_per_w").f64(p.tops_per_w);
        j.key("tops_per_mm2").f64(p.tops_per_mm2);
        j.end_object();
    }
    j.end_array();
    j.key("fig8a_rows").u64(fig8a.len() as u64);
    j.key("fig8a").begin_array();
    for r in fig8a {
        j.begin_object();
        j.key("kind").string(&r.kind.to_string());
        j.key("bits").u64(u64::from(r.precision.bits()));
        j.key("tops_per_w").f64(r.tops_per_w);
        j.key("period_ps").f64(r.period_ps);
        j.end_object();
    }
    j.end_array();
    j.key("fig8b_rows").u64(fig8b.len() as u64);
    j.key("fig8b").begin_array();
    for r in fig8b {
        j.begin_object();
        j.key("kind").string(&r.kind.to_string());
        j.key("bits").u64(u64::from(r.precision.bits()));
        j.key("tops_per_w").f64(r.tops_per_w);
        j.key("tops").f64(r.tops);
        j.end_object();
    }
    j.end_array();
    j.key("fig9_rows").u64(fig9.len() as u64);
    j.key("fig9").begin_array();
    for r in fig9 {
        j.begin_object();
        j.key("network").string(&r.network);
        j.key("kind").string(&r.kind.to_string());
        j.key("tops_per_w").f64(r.tops_per_w);
        j.key("mapped_tops_per_w").f64(r.mapped_tops_per_w);
        j.key("latency_ms").f64(r.latency_ms);
        j.key("utilization").f64(r.utilization);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    let mut s = j.finish();
    s.push('\n');
    s
}

/// Serializes Table I as CSV.
pub fn table1_csv() -> String {
    let mut out = String::from("cnn,dataset,model_mbytes,frac8,frac4,frac2\n");
    for r in bsc_nn::report::table1() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.cnn, r.dataset, r.model_mbytes, r.frac8, r.frac4, r.frac2
        );
    }
    out
}

/// Gate-level variant of Fig. 8(b): instead of scaling a per-unit report
/// analytically, builds the *full array netlist* (feature pipeline, weight
/// buffers with load enables, one datapath per PE), characterizes it with
/// weight-stationary stimulus, and measures TOPS/W directly.
///
/// Steady-state per-MAC efficiency is independent of the PE count (each PE
/// adds the same logic and the same work), so `pes` may be smaller than 32
/// for tractability; the unit test
/// `analytic_array_model_tracks_gate_level_array` pins the two models
/// against each other.
///
/// # Errors
///
/// Propagates gate-level simulation and analysis failures.
pub fn fig8b_gate_level(
    pes: usize,
    vector_length: usize,
    steps: usize,
) -> Result<Vec<ArrayEfficiency>, PpaError> {
    let lib = bsc_synth::CellLibrary::smic28_like();
    let effort = bsc_synth::EffortModel::default();
    let mut rows = Vec::new();
    for kind in MacKind::ALL {
        let array = bsc_systolic::netlist::build_array(kind, pes, vector_length);
        let runs = Precision::ALL.map(|p| (p, 0xF18B ^ p.bits() as u64));
        let acts = array
            .characterize_weight_stationary(steps, &runs)
            .map_err(bsc_mac::ppa::PpaError::from)?;
        for ((p, _), act) in runs.into_iter().zip(acts) {
            let macs = (pes * array.dot_length(p)) as f64;
            let report = bsc_synth::analyze(
                array.netlist(),
                &act,
                &lib,
                &effort,
                ARRAY_PERIOD_PS,
                macs,
            )
            .map_err(bsc_mac::ppa::PpaError::from)?;
            rows.push(ArrayEfficiency {
                kind,
                precision: p,
                tops_per_w: report.tops_per_w,
                tops: report.tops,
            });
        }
    }
    Ok(rows)
}

/// Renders the gate-level Fig. 8(b) table.
pub fn render_fig8b_gate_level(rows: &[ArrayEfficiency], pes: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 8(b), gate-level array netlist ({pes} PEs, measured directly)"
    );
    let _ = writeln!(out, "{:<7} {:>10} {:>10} {:>10}", "mode", "BSC", "LPC", "HPS");
    for p in Precision::ALL {
        let get = |k: MacKind| {
            rows.iter()
                .find(|r| r.kind == k && r.precision == p)
                .map_or(f64::NAN, |r| r.tops_per_w)
        };
        let _ = writeln!(
            out,
            "{:<7} {:>10.2} {:>10.2} {:>10.2}",
            p.to_string(),
            get(MacKind::Bsc),
            get(MacKind::Lpc),
            get(MacKind::Hps)
        );
    }
    out
}

/// Renders the extensions report: everything this reproduction provides
/// *beyond* the paper's scope (asymmetric modes, DVFS, SRAM hierarchy,
/// accuracy-versus-precision), each measured rather than asserted.
///
/// # Errors
///
/// Propagates characterization/analysis failures.
pub fn render_extensions() -> Result<String, Box<dyn std::error::Error>> {
    use bsc_mac::asym::AsymMode;
    use bsc_mac::lpc::LpcVector;
    use bsc_synth::voltage::{scaled_library, VoltageModel};
    use bsc_synth::{analyze, CellLibrary, EffortModel};

    let mut out = String::new();
    let lib = CellLibrary::smic28_like();
    let effort = EffortModel::default();

    // --- 1. asymmetric LPC modes (measured on the extended netlist) -----
    let _ = writeln!(out, "== asymmetric precision modes (LPC netlist extension) ==");
    let mac = LpcVector::new(4).build_netlist_asym();
    let e_at = |act: bsc_netlist::Activity, macs: f64| -> Result<f64, Box<dyn std::error::Error>> {
        Ok(analyze(mac.netlist(), &act, &lib, &effort, ARRAY_PERIOD_PS, macs)?.energy_per_mac_fj)
    };
    let mut sym = Vec::new();
    for p in Precision::ALL {
        let e = e_at(mac.characterize(p, 48, 11)?, mac.macs_per_cycle(p) as f64)?;
        let _ = writeln!(out, "{:<6} {:>3} MACs/unit/cyc {:>8.1} fJ/MAC (symmetric anchor)", p.to_string(), mac.kind().fields_per_element(p), e);
        sym.push(e);
    }
    for mode in AsymMode::ALL {
        let e = e_at(
            mac.characterize_asym(mode, 48, 13)?,
            mac.macs_per_cycle_asym(mode) as f64,
        )?;
        let est = bsc_mac::asym::estimate_energy_per_mac_fj(sym[0], sym[1], sym[2], mode)
            .expect("finite anchors");
        let _ = writeln!(
            out,
            "{:<6} {:>3} MACs/unit/cyc {:>8.1} fJ/MAC measured, {:>7.1} estimated",
            mode.to_string(),
            mode.products_per_lpc_unit(),
            e,
            est
        );
    }

    // --- 2. DVFS on the BSC vector --------------------------------------
    let _ = writeln!(out, "\n== DVFS: BSC vector across supply voltages (4-bit mode) ==");
    let bsc = bsc_mac::build_netlist(MacKind::Bsc, 8);
    let act = bsc.characterize(Precision::Int4, 48, 17)?;
    let vm = VoltageModel::smic28_like();
    let _ = writeln!(out, "{:>6} {:>12} {:>10} {:>10}", "V", "min ps", "fJ/MAC", "TOPS/W");
    for v in [0.9, 0.8, 0.7, 0.6] {
        let vlib = scaled_library(&lib, &vm, v)?;
        let min_ps = bsc_synth::timing::min_period_ps(bsc.netlist(), &vlib)?;
        let r = analyze(
            bsc.netlist(),
            &act,
            &vlib,
            &effort,
            min_ps * 1.2,
            bsc.macs_per_cycle(Precision::Int4) as f64,
        )?;
        let _ = writeln!(
            out,
            "{v:>6.2} {:>12.0} {:>10.1} {:>10.2}",
            min_ps, r.energy_per_mac_fj, r.tops_per_w
        );
    }

    // --- 3. SRAM share per benchmark (BSC array, Table-I networks) ------
    let _ = writeln!(out, "\n== SRAM hierarchy share of total energy (BSC array) ==");
    let cfg = bsc_mac::ppa::CharacterizeConfig::quick(8);
    let design = bsc_mac::ppa::DesignCharacterization::new(MacKind::Bsc, &cfg)?;
    let config = ArrayConfig { pes: 32, vector_length: 8, kind: MacKind::Bsc };
    let sram = bsc_systolic::energy::SramModel::smic28_like();
    for net in models::table1_benchmarks() {
        let mut compute = 0.0;
        let mut memory = 0.0;
        for layer in &net.layers {
            let unit = design.at_period_weight_stationary(layer.precision, ARRAY_PERIOD_PS)?;
            let model = ArrayEnergyModel::new(unit, config);
            let shape = bsc_accel::layer_to_conv_shape(&layer.kind);
            let s = schedule_conv(&config, layer.precision, &shape)
                .expect("benchmark shapes are valid");
            let b = model.schedule_energy_with_memory(&s, &sram);
            compute += b.compute_fj;
            memory += b.total_fj() - b.compute_fj;
        }
        let _ = writeln!(
            out,
            "{:<10} memory {:>5.1}% of total energy",
            net.name,
            100.0 * memory / (compute + memory)
        );
    }

    // --- 4. accuracy vs precision on the synthetic task -----------------
    let _ = writeln!(out, "\n== classification accuracy vs precision (synthetic task) ==");
    let task = bsc_nn::dataset::SyntheticTask::new(10, 1, 5, 5, 170, 2026);
    for p in [Precision::Int8, Precision::Int4, Precision::Int2] {
        let acc = task.accuracy(p, 400, 5)?;
        let _ = writeln!(out, "{:<6} weights: {:>5.1}% top-1", p.to_string(), 100.0 * acc);
    }
    Ok(out)
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_serializers_emit_headers_and_rows() {
        let pts = vec![SweepPoint {
            kind: MacKind::Bsc,
            precision: Precision::Int4,
            period_ps: 2000.0,
            total_power_mw: 1.5,
            energy_per_mac_fj: 60.0,
            tops_per_w: 30.0,
            tops_per_mm2: 4.0,
        }];
        let csv = fig7_csv(&pts);
        assert!(csv.starts_with("design,mode_bits,period_ps"));
        assert!(csv.contains("BSC,4,2000"));

        let rows = vec![MaxEfficiency {
            kind: MacKind::Hps,
            precision: Precision::Int2,
            tops_per_w: 31.2,
            period_ps: 2400.0,
        }];
        assert!(fig8a_csv(&rows).contains("HPS,2,31.2,2400"));

        let arr = vec![ArrayEfficiency {
            kind: MacKind::Lpc,
            precision: Precision::Int8,
            tops_per_w: 5.3,
            tops: 0.8,
        }];
        assert!(fig8b_csv(&arr).contains("LPC,8,5.3,0.8"));

        let bench = vec![BenchmarkEfficiency {
            network: "LeNet-5".into(),
            kind: MacKind::Bsc,
            tops_per_w: 60.9,
            mapped_tops_per_w: 9.7,
            latency_ms: 0.05,
            utilization: 0.024,
        }];
        let c = fig9_csv(&bench);
        assert!(c.contains("LeNet-5,BSC,60.9,9.7"));

        assert!(table1_csv().lines().count() == 5, "header + 4 networks");
    }

    #[test]
    fn paper_reference_values_are_consistent() {
        // The embedded Fig. 9 reference must contain the paper's headline
        // 2.18x (ResNet-18 vs LPC) and the LeNet 22.54 TOPS/W value.
        assert!(FIG9_PAPER.iter().any(|&(n, v, _, _)| n == "LeNet-5" && (v - 22.54).abs() < 1e-9));
        assert!(FIG9_PAPER.iter().any(|&(_, _, l, _)| (l - 2.18).abs() < 1e-9));
        // Fig. 9's published values equal the weight-fraction arithmetic
        // mean of the paper's Fig. 8(b) numbers for LeNet-5.
        let lenet: f64 = 0.55 * 13.77 + 0.45 * 33.25;
        assert!((lenet - 22.54).abs() < 0.01, "{lenet}");
    }

    #[test]
    fn period_sweep_constant_matches_best_point() {
        assert_eq!(ARRAY_PERIOD_PS, 2400.0);
        assert_eq!(*bsc_mac::ppa::paper_period_sweep_ps().last().unwrap(), ARRAY_PERIOD_PS);
    }
}
