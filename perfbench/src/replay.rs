//! Traced replays of the program's composite calls, rebuilt from the
//! public functions they are made of so that each inner call gets its own
//! span.  Every replay's output is compared with the composite call's.

use std::fmt::Write as _;
use std::hash::Hasher;

use bsc_accel::synth::PpaReport;
use bsc_accel::{layer_to_conv_shape, AcceleratorConfig, LayerReport};
use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision};
use bsc_nn::Network;
use bsc_systolic::energy::ArrayEnergyModel;
use bsc_systolic::mapping::ConvShape;
use bsc_systolic::{ArrayConfig, MemConfig, MemoryAwareSchedule};

use crate::trace::{Layer, Part, Recorder};
use crate::util::Fnv;

/// Activity runs per characterized design: three precision modes × two
/// stimulus profiles.
const RUNS_PER_DESIGN: u64 = 6;

/// The traced set-up: one `DesignCharacterization::new` per design under a
/// `mac.ppa` span.  Returns the designs and their gate steps (netlist
/// nodes × stimulus steps × activity runs).
pub fn characterize(
    rec: &mut Recorder,
    keys: &[(MacKind, CharacterizeConfig)],
) -> Result<(Vec<DesignCharacterization>, u64), String> {
    let mut designs = Vec::with_capacity(keys.len());
    let mut gate_steps = 0u64;
    for (kind, config) in keys {
        let design = rec
            .span(Layer::MacPpa, "characterize", |_| {
                DesignCharacterization::new(*kind, config)
            })
            .map_err(|e| e.to_string())?;
        gate_steps +=
            design.netlist().netlist().len() as u64 * config.steps as u64 * RUNS_PER_DESIGN;
        designs.push(design);
    }
    Ok((designs, gate_steps))
}

/// Probe: `build_netlist` alone for each design — the netlist-construction
/// part of characterization.
pub fn build_netlist_probe(rec: &mut Recorder, keys: &[(MacKind, CharacterizeConfig)]) {
    rec.set_part(Part::Probe);
    for (kind, config) in keys {
        rec.span(Layer::MacPpa, "build_netlist", |_| {
            bsc_mac::build_netlist(*kind, config.length)
        });
    }
    rec.set_part(Part::Main);
}

/// The stimulus profile an analysis call reads.
#[derive(Clone, Copy, Debug)]
pub enum Profile {
    /// Both operand streams random (`at_period`).
    Random,
    /// Weights held, features streaming (`at_period_weight_stationary`).
    WeightStationary,
}

/// `DesignCharacterization::at_period*` under a `synth.analyze` span,
/// noting the input key (design, profile, mode, period) and whether the
/// period was feasible.
pub fn analyze(
    rec: &mut Recorder,
    design: &DesignCharacterization,
    profile: Profile,
    p: Precision,
    period_ps: f64,
) -> Result<PpaReport, String> {
    let out = rec.span(Layer::SynthAnalyze, "at_period", |_| match profile {
        Profile::Random => design.at_period(p, period_ps),
        Profile::WeightStationary => design.at_period_weight_stationary(p, period_ps),
    });
    if rec.noting() {
        let mut h = Fnv::default();
        h.write_usize(design as *const DesignCharacterization as usize);
        let _ = write!(h, "{profile:?}{p:?}");
        h.write_u64(period_ps.to_bits());
        rec.notes.analyze.push((h.finish(), out.is_ok()));
    }
    out.map_err(|e| e.to_string())
}

/// `schedule_conv_with_memory` under a `systolic.mem` span, noting the
/// input key and the tile passes replayed.
pub fn mem_schedule(
    rec: &mut Recorder,
    array: &ArrayConfig,
    mem: &MemConfig,
    p: Precision,
    shape: &ConvShape,
) -> Result<MemoryAwareSchedule, String> {
    let out = rec.span(Layer::SystolicMem, "schedule_conv_with_memory", |_| {
        bsc_systolic::schedule_conv_with_memory(array, mem, p, shape)
    });
    let out = out.map_err(|e| e.to_string())?;
    if rec.noting() {
        let mut h = Fnv::default();
        let _ = write!(h, "{array:?}{mem:?}{p:?}{shape:?}");
        rec.notes.mem.push((h.finish(), out.tile_passes));
    }
    Ok(out)
}

/// `Accelerator::run_network`, replayed layer by layer: the DMA-aware
/// schedule (`systolic.mem`), the operating point (`synth.analyze`) and
/// the energy model (`systolic.energy`) under one `core.accelerator` span.
pub fn run_network(
    rec: &mut Recorder,
    accel: &AcceleratorConfig,
    design: &DesignCharacterization,
    net: &Network,
) -> Result<Vec<LayerReport>, String> {
    rec.span(Layer::CoreAccelerator, "run_network", |rec| {
        let mut layers = Vec::with_capacity(net.layers.len());
        for layer in &net.layers {
            let shape = layer_to_conv_shape(&layer.kind);
            let aware = mem_schedule(rec, &accel.array, &accel.mem, layer.precision, &shape)?;
            let schedule = aware.compute;
            let unit = analyze(
                rec,
                design,
                Profile::WeightStationary,
                layer.precision,
                accel.period_ps,
            )?;
            let (energy_fj, tops_per_w) =
                rec.span(Layer::SystolicEnergy, "schedule_energy_fj", |_| {
                    let model = ArrayEnergyModel::new(unit, accel.array);
                    (
                        model.schedule_energy_fj(&schedule),
                        model.schedule_tops_per_w(&schedule),
                    )
                });
            layers.push(LayerReport {
                name: layer.name.clone(),
                precision: layer.precision,
                macs: schedule.useful_macs,
                cycles: schedule.cycles,
                total_cycles: aware.total_cycles,
                stall_cycles: aware.stall_cycles + aware.drain_cycles,
                roofline: aware.roofline,
                peak_fraction: aware.peak_fraction,
                utilization: schedule.utilization,
                energy_fj,
                tops_per_w,
            });
        }
        Ok(layers)
    })
}
