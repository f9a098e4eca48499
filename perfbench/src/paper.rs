//! `paper`: Table I, Figs 7a/7b/8a/8b/9 and the telemetry probe at paper
//! scale (32 PEs × L=32) — what `repro all` prints.  The seed is the
//! characterization stimulus seed.
//!
//! The timed work is the figure functions rebuilt from the public calls
//! they make (about 400, most a few milliseconds long), so that each call
//! is timed on its own; every iteration's rows must equal the figure
//! functions' own.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bsc_bench::experiments::{
    self, ArrayEfficiency, BenchmarkEfficiency, MaxEfficiency, SweepPoint, ARRAY_PERIOD_PS,
    FIG9_PAPER,
};
use bsc_bench::telemetry_probe::{
    render_telemetry, telemetry_json, telemetry_report, TelemetryReport,
};
use bsc_bench::Workbench;
use bsc_mac::ppa::{paper_period_sweep_ps, CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision};
use bsc_nn::models;
use bsc_systolic::energy::ArrayEnergyModel;
use bsc_systolic::ArrayConfig;

use crate::replay::{analyze, build_netlist_probe, characterize, Profile};
use crate::trace::{Layer, Recorder};
use crate::util::digest_str;
use crate::{Checks, TraceRep, Unit, Workload};

/// The `paper` workload.
pub struct Paper {
    config: CharacterizeConfig,
}

impl Paper {
    /// Paper scale (L=32), or the quick L=4 configuration for smoke tests.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let mut config = if tiny {
            CharacterizeConfig::quick(4)
        } else {
            CharacterizeConfig::default()
        };
        config.seed = seed;
        Paper { config }
    }
}

/// The data behind Figs 7–9.
#[derive(Debug, PartialEq)]
pub struct Figures {
    /// Fig 7a/7b sweep points.
    pub fig7: Vec<SweepPoint>,
    /// Fig 8a rows.
    pub fig8a: Vec<MaxEfficiency>,
    /// Fig 8b rows.
    pub fig8b: Vec<ArrayEfficiency>,
    /// Fig 9 rows.
    pub fig9: Vec<BenchmarkEfficiency>,
}

impl Figures {
    fn rows(&self) -> u64 {
        (self.fig7.len() + self.fig8a.len() + self.fig8b.len() + self.fig9.len()) as u64
    }
}

/// The figure functions of `experiments`, as `repro all` calls them.
fn figures(wb: &Workbench) -> Result<Figures, String> {
    Ok(Figures {
        fig7: experiments::fig7_sweep(wb),
        fig8a: experiments::fig8a(wb).map_err(|e| e.to_string())?,
        fig8b: experiments::fig8b(wb).map_err(|e| e.to_string())?,
        fig9: experiments::fig9(wb).map_err(|e| e.to_string())?,
    })
}

/// Everything `repro all` prints, plus the probe's timer-free JSON.
fn documents(f: &Figures, tel: &TelemetryReport) -> Vec<String> {
    vec![
        experiments::render_table1(),
        experiments::render_fig7a(&f.fig7),
        experiments::render_fig7b(&f.fig7),
        experiments::render_fig8a(&f.fig8a),
        experiments::render_fig8b(&f.fig8b),
        experiments::render_fig9(&f.fig9),
        render_telemetry(tel),
        telemetry_json(tel, true),
    ]
}

fn digest_docs(docs: &[String]) -> u64 {
    digest_str(&docs.concat())
}

/// The efficiency of one design in one mode, from rows keyed by `key`.
fn eff<T>(
    rows: &[T],
    kind: MacKind,
    p: Precision,
    key: impl Fn(&T) -> (MacKind, Precision, f64),
) -> f64 {
    rows.iter()
        .map(key)
        .find(|(k, q, _)| *k == kind && *q == p)
        .map_or(f64::NAN, |r| r.2)
}

/// The repository's invariants on the figure data.
fn check(f: &Figures) -> Checks {
    let bsc_wins = |get: &dyn Fn(MacKind, Precision) -> f64| {
        Precision::ALL.into_iter().all(|p| {
            let b = get(MacKind::Bsc, p);
            b > get(MacKind::Lpc, p) && b > get(MacKind::Hps, p)
        })
    };
    let fig8a = |k, p| eff(&f.fig8a, k, p, |r| (r.kind, r.precision, r.tops_per_w));
    let fig8b = |k, p| eff(&f.fig8b, k, p, |r| (r.kind, r.precision, r.tops_per_w));
    let paper_method = models::table1_benchmarks().iter().all(|net| {
        let dist = net.precision_distribution();
        MacKind::ALL.into_iter().all(|kind| {
            let expected: f64 = Precision::ALL
                .into_iter()
                .map(|p| dist.fraction(p) * fig8b(kind, p))
                .sum();
            f.fig9
                .iter()
                .any(|r| r.network == net.name && r.kind == kind && r.tops_per_w == expected)
        })
    });
    vec![
        (
            "fig8a: BSC above LPC and HPS in every mode",
            bsc_wins(&fig8a),
        ),
        (
            "fig8b: BSC above LPC and HPS in every mode",
            bsc_wins(&fig8b),
        ),
        (
            "fig9: paper method = Table I fractions x Fig 8b rows",
            paper_method,
        ),
    ]
}

/// Mean absolute relative error (%) of the eight Fig 9 BSC/LPC and
/// BSC/HPS ratios against the paper's published values.
pub fn ratio_err_pct(fig9: &[BenchmarkEfficiency]) -> f64 {
    let get = |name: &str, kind: MacKind| {
        fig9.iter()
            .find(|r| r.network == name && r.kind == kind)
            .map_or(f64::NAN, |r| r.tops_per_w)
    };
    let mut errs = Vec::new();
    for &(name, _, vs_lpc, vs_hps) in &FIG9_PAPER {
        let bsc = get(name, MacKind::Bsc);
        errs.push((bsc / get(name, MacKind::Lpc) - vs_lpc).abs() / vs_lpc);
        errs.push((bsc / get(name, MacKind::Hps) - vs_hps).abs() / vs_hps);
    }
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// `DesignCharacterization::best_efficiency*`, replayed one analysis
/// call at a time.
fn best(
    rec: &mut Recorder,
    design: &DesignCharacterization,
    profile: Profile,
    p: Precision,
) -> Result<bsc_accel::synth::PpaReport, String> {
    let mut best: Option<bsc_accel::synth::PpaReport> = None;
    for t in paper_period_sweep_ps() {
        if let Ok(r) = analyze(rec, design, profile, p, t) {
            if best.as_ref().is_none_or(|b| r.tops_per_w > b.tops_per_w) {
                best = Some(r);
            }
        }
    }
    best.ok_or_else(|| format!("{} {p}: no feasible period", design.kind()))
}

type Designs = BTreeMap<MacKind, Arc<DesignCharacterization>>;

fn fig8b_replay(
    rec: &mut Recorder,
    designs: &Designs,
    length: usize,
) -> Result<Vec<ArrayEfficiency>, String> {
    let mut rows = Vec::new();
    for kind in MacKind::ALL {
        let config = ArrayConfig {
            pes: 32,
            vector_length: length,
            kind,
        };
        for p in Precision::ALL {
            let unit = best(rec, &designs[&kind], Profile::WeightStationary, p)?;
            let (tops_per_w, tops) = rec.span(Layer::SystolicEnergy, "steady_state", |_| {
                let model = ArrayEnergyModel::new(unit, config);
                (model.steady_state_tops_per_w(), model.steady_state_tops())
            });
            rows.push(ArrayEfficiency {
                kind,
                precision: p,
                tops_per_w,
                tops,
            });
        }
    }
    Ok(rows)
}

/// The figure functions of `experiments`, replayed through
/// `DesignCharacterization::at_period*`, `schedule_conv` and
/// `ArrayEnergyModel` with one span per call.
pub fn figures_replay(
    rec: &mut Recorder,
    designs: &Designs,
    length: usize,
) -> Result<Figures, String> {
    let mut fig7 = Vec::new();
    for kind in MacKind::ALL {
        for p in Precision::ALL {
            for t in paper_period_sweep_ps() {
                if let Ok(r) = analyze(rec, &designs[&kind], Profile::Random, p, t) {
                    fig7.push(SweepPoint {
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

    let mut fig8a = Vec::new();
    for kind in MacKind::ALL {
        for p in Precision::ALL {
            let b = best(rec, &designs[&kind], Profile::Random, p)?;
            fig8a.push(MaxEfficiency {
                kind,
                precision: p,
                tops_per_w: b.tops_per_w,
                period_ps: b.period_ps,
            });
        }
    }

    let fig8b = fig8b_replay(rec, designs, length)?;

    // `experiments::fig9` recomputes Fig 8b before mapping the networks.
    let fig8b_rows = fig8b_replay(rec, designs, length)?;
    let mut fig9 = Vec::new();
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
            let config = ArrayConfig {
                pes: 32,
                vector_length: length,
                kind,
            };
            let mut models_by_p: BTreeMap<Precision, ArrayEnergyModel> = BTreeMap::new();
            let (mut energy_fj, mut macs, mut cycles, mut util_weighted) = (0.0, 0u64, 0u64, 0.0);
            for layer in &net.layers {
                let model = match models_by_p.get(&layer.precision) {
                    Some(m) => m.clone(),
                    None => {
                        let unit = analyze(
                            rec,
                            &designs[&kind],
                            Profile::WeightStationary,
                            layer.precision,
                            ARRAY_PERIOD_PS,
                        )?;
                        let m = rec.span(Layer::SystolicEnergy, "ArrayEnergyModel::new", |_| {
                            ArrayEnergyModel::new(unit, config)
                        });
                        models_by_p.insert(layer.precision, m.clone());
                        m
                    }
                };
                let shape = bsc_accel::layer_to_conv_shape(&layer.kind);
                let s = rec
                    .span(Layer::SystolicMapping, "schedule_conv", |_| {
                        bsc_systolic::mapping::schedule_conv(&config, layer.precision, &shape)
                    })
                    .map_err(|e| e.to_string())?;
                energy_fj += rec.span(Layer::SystolicEnergy, "schedule_energy_fj", |_| {
                    model.schedule_energy_fj(&s)
                });
                macs += s.useful_macs;
                cycles += s.cycles;
                util_weighted += s.utilization * s.cycles as f64;
            }
            fig9.push(BenchmarkEfficiency {
                network: net.name.clone(),
                kind,
                tops_per_w: paper_method,
                mapped_tops_per_w: 2.0e3 * macs as f64 / energy_fj,
                latency_ms: cycles as f64 * ARRAY_PERIOD_PS * 1e-9,
                utilization: if cycles > 0 {
                    util_weighted / cycles as f64
                } else {
                    0.0
                },
            });
        }
    }
    Ok(Figures {
        fig7,
        fig8a,
        fig8b,
        fig9,
    })
}

/// Each timed call's input key and host time, in call order.  A
/// `synth.analyze` call is keyed by its input (design, profile, mode,
/// period), so repeated analyses pool their samples; any other call by its
/// position.
fn timed_calls(rec: &Recorder) -> Vec<(u64, u64)> {
    let mut analyze_keys = rec.notes.analyze.iter().map(|n| n.0);
    rec.spans()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let key = match s.layer {
                Layer::SynthAnalyze => analyze_keys.next().expect("one note per analysis"),
                _ => i as u64,
            };
            (key, s.dur_ns())
        })
        .collect()
}

/// The characterized designs and the figure functions' own rows.
pub struct State {
    wb: Workbench,
    designs: Designs,
    /// `figures(wb)`, computed once outside the timed work.
    reference: OnceCell<Figures>,
}

impl Workload for Paper {
    type State = State;

    fn setup(&self, _warm: bool) -> Result<State, String> {
        let wb = Workbench::with_config(self.config.clone()).map_err(|e| e.to_string())?;
        let designs = MacKind::ALL
            .into_iter()
            .map(|k| (k, wb.design_shared(k)))
            .collect();
        Ok(State {
            wb,
            designs,
            reference: OnceCell::new(),
        })
    }

    fn run(&self, state: &State) -> Result<Unit, String> {
        if state.reference.get().is_none() {
            let _ = state.reference.set(figures(&state.wb)?);
        }
        // Spans serve here only as per-call timers; nothing is kept.
        let mut rec = Recorder::default();
        let started = Instant::now();
        let figs = figures_replay(&mut rec, &state.designs, state.wb.vector_length())?;
        let tel = rec
            .span(Layer::Bench, "telemetry_report", |_| {
                telemetry_report(MacKind::Bsc)
            })
            .map_err(|e| e.to_string())?;
        let docs = rec.span(Layer::Bench, "render", |_| documents(&figs, &tel));
        let work_ns = started.elapsed().as_nanos() as u64;
        let mut checks = check(&figs);
        checks.push((
            "rows equal the figure functions' own",
            state.reference.get() == Some(&figs),
        ));
        Ok(Unit {
            work_ns,
            calls: timed_calls(&rec),
            items: figs.rows(),
            digest: digest_docs(&docs),
            checks,
            report: vec![("paper_ratio_err_pct", ratio_err_pct(&figs.fig9), "%")],
        })
    }

    fn trace(&self, state: &State, rec: &mut Recorder) -> Result<TraceRep, String> {
        let wb = &state.wb;
        let keys: Vec<_> = MacKind::ALL
            .into_iter()
            .map(|k| (k, self.config.clone()))
            .collect();
        let setup_started = Instant::now();
        let (characterized, gate_steps) = characterize(rec, &keys)?;
        let designs: Designs = characterized
            .into_iter()
            .map(|d| (d.kind(), Arc::new(d)))
            .collect();
        let setup_ns = setup_started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let reference = figures(wb)?;
        let reference_tel = telemetry_report(MacKind::Bsc).map_err(|e| e.to_string())?;
        let reference_docs = documents(&reference, &reference_tel);
        let untraced_work_ns = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let replay = figures_replay(rec, &designs, self.config.length)?;
        let tel = rec
            .span(Layer::Bench, "telemetry_report", |_| {
                telemetry_report(MacKind::Bsc)
            })
            .map_err(|e| e.to_string())?;
        let docs = rec.span(Layer::Bench, "render", |_| documents(&replay, &tel));
        let traced_work_ns = started.elapsed().as_nanos() as u64;

        build_netlist_probe(rec, &keys);

        if rec.noting() {
            rec.notes.export_bytes = docs.iter().map(|d| d.len() as u64).sum();
        }
        Ok(TraceRep {
            main_ns: setup_ns + traced_work_ns,
            traced_work_ns,
            untraced_work_ns,
            checks: vec![
                (
                    "replay: fig7 sweep equals experiments::fig7_sweep",
                    replay.fig7 == reference.fig7,
                ),
                (
                    "replay: fig8a equals experiments::fig8a",
                    replay.fig8a == reference.fig8a,
                ),
                (
                    "replay: fig8b equals experiments::fig8b",
                    replay.fig8b == reference.fig8b,
                ),
                (
                    "replay: fig9 equals experiments::fig9",
                    replay.fig9 == reference.fig9,
                ),
                (
                    "replay: documents equal the reference",
                    digest_docs(&docs) == digest_docs(&reference_docs),
                ),
            ],
            extras: vec![("mac.ppa.gate_steps", gate_steps as f64)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_figure_functions_exactly() {
        let paper = Paper::new(0xB5C, true);
        let state = paper.setup(false).unwrap();
        let wb = &state.wb;
        let mut rec = Recorder::default();
        let replay = figures_replay(&mut rec, &state.designs, wb.vector_length()).unwrap();
        assert_eq!(replay.fig9, experiments::fig9(wb).unwrap());
        assert_eq!(replay, figures(wb).unwrap());
        assert!(!rec.notes.analyze.is_empty());
    }

    #[test]
    fn smoke_run_on_the_quick_configuration() {
        let paper = Paper::new(7, true);
        let state = paper.setup(false).unwrap();
        let unit = paper.run(&state).unwrap();
        assert!(unit.items > 0 && unit.work_ns > 0);
        // The quick configuration's ratios are too noisy for the paper's
        // orderings; only the replay must hold there.
        assert!(unit
            .checks
            .contains(&("rows equal the figure functions' own", true)));
        assert!(unit.calls.iter().map(|c| c.1).sum::<u64>() <= unit.work_ns);
        let again = paper.run(&state).unwrap();
        assert_eq!(unit.digest, again.digest);
        let keys = |u: &Unit| u.calls.iter().map(|c| c.0).collect::<Vec<_>>();
        assert_eq!(keys(&unit), keys(&again));
        let mut rec = Recorder::default();
        let rep = paper.trace(&state, &mut rec).unwrap();
        assert!(rep.checks.iter().all(|c| c.1), "{:?}", rep.checks);
    }
}
