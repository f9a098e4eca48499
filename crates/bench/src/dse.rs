//! `repro dse`: dataflow × geometry × memory × precision × MAC-kind
//! design-space exploration with 3-D Pareto-front extraction.
//!
//! A JSON manifest names the axes (see `docs/dse.md`); the driver
//! enumerates the full cross product, characterizes each distinct
//! `(MAC kind, vector length)` design once at the gate level, then
//! evaluates every point over the [`bsc_netlist::par`] pool — results
//! are merged in enumeration-index order, so every report is
//! byte-identical at any worker count.  Per point it runs the workload's
//! layers through [`schedule_conv_with_memory_dataflow`] (the
//! stall-accurate tiled DMA schedule of the chosen dataflow), prices the
//! schedule with the calibrated PPA + SRAM energy models, and records
//! the three objectives: total energy (fJ), total latency (cycles, also
//! reported in µs at the manifest clock), and array area (µm², rows ×
//! characterized unit area).  [`pareto_flags`] marks the minimizing
//! front; `scripts/ci.sh` regenerates `BENCH_dse_baseline.json` from
//! `examples/dse_manifest.json` and diffs it at `--tol 0`.

use std::sync::Arc;

use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision};
use bsc_netlist::par;
use bsc_systolic::energy::{ArrayEnergyModel, SramModel};
use bsc_systolic::mapping::ConvShape;
use bsc_systolic::{
    schedule_conv_with_memory_dataflow, ArrayConfig, ArrayGeometry, DataflowKind, MemConfig,
};
use bsc_telemetry::{JsonBuilder, JsonValue, ProfileSnapshot, Profiler};

use crate::manifest::{
    array_field, err_at, mac_kind, mem_config, str_field, u64_field, MAX_ROWS, MAX_STEPS,
    MAX_VECTOR_LENGTH,
};

/// One memory hierarchy under sweep: a preset plus optional bandwidth
/// override, kept by name for reports.
#[derive(Debug, Clone)]
pub struct MemSpec {
    /// Report label (defaults to the preset name).
    pub name: String,
    /// The hierarchy handed to the tiler.
    pub mem: MemConfig,
}

/// A parsed DSE manifest: the five sweep axes plus the shared workload
/// and operating point.
#[derive(Debug, Clone)]
pub struct DseManifest {
    /// Sweep label (reports and render).
    pub name: String,
    /// Workload tag (see [`workload_layers`]).
    pub workload: String,
    /// Operating clock period in ps (latency and PPA evaluation).
    pub period_ps: f64,
    /// Gate-level characterization stimulus cycles per mode.
    pub steps: usize,
    /// Dataflows swept.
    pub dataflows: Vec<DataflowKind>,
    /// Array geometries swept.
    pub geometries: Vec<ArrayGeometry>,
    /// Memory hierarchies swept.
    pub mems: Vec<MemSpec>,
    /// MAC architectures swept.
    pub kinds: Vec<MacKind>,
    /// Operand precisions swept.
    pub precisions: Vec<Precision>,
    /// Worker-count override (`repro dse --workers` wins over this).
    pub workers: Option<usize>,
}

/// One evaluated design point: the five coordinates plus the summed
/// schedule statistics and the three Pareto objectives.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// Dataflow coordinate.
    pub dataflow: DataflowKind,
    /// Geometry coordinate.
    pub geometry: ArrayGeometry,
    /// Memory-hierarchy coordinate (the [`MemSpec`] name).
    pub mem: String,
    /// MAC-architecture coordinate.
    pub kind: MacKind,
    /// Precision coordinate.
    pub precision: Precision,
    /// Stall-free compute cycles summed over the workload.
    pub compute_cycles: u64,
    /// Stall-inclusive cycles summed over the workload (objective 2).
    pub total_cycles: u64,
    /// DMA stall + drain cycles summed over the workload.
    pub stall_cycles: u64,
    /// DRAM traffic in bytes summed over the workload.
    pub dma_bytes: u64,
    /// Total energy in fJ (datapath + SRAM + DMA; objective 1).
    pub energy_fj: f64,
    /// Array area in µm²: rows × characterized unit area (objective 3).
    pub area_um2: f64,
    /// `total_cycles` at the manifest clock, in µs.
    pub latency_us: f64,
    /// `"bandwidth-bound"` when the summed DMA busy time exceeds the
    /// summed compute time, else `"compute-bound"`.
    pub roofline: &'static str,
    /// Whether the point survives 3-D Pareto filtering.
    pub pareto: bool,
}

/// A finished sweep: every point (enumeration order) and the profile of
/// the run's own phases.
#[derive(Debug, Clone)]
pub struct DseRun {
    /// The manifest that produced the run.
    pub manifest: DseManifest,
    /// Workload layers (tag, shape) in evaluation order.
    pub layers: Vec<(&'static str, ConvShape)>,
    /// Every evaluated point, in enumeration order.
    pub points: Vec<DsePoint>,
    /// Phase table (enumerate / evaluate / pareto / export).
    pub profile: ProfileSnapshot,
    /// CSV rendered during the export phase (so its byte count is a
    /// deterministic export counter).
    csv: String,
}

impl DseRun {
    /// The Pareto-front points, in enumeration order.
    pub fn front(&self) -> impl Iterator<Item = &DsePoint> {
        self.points.iter().filter(|p| p.pareto)
    }

    /// Number of Pareto-front points.
    pub fn pareto_count(&self) -> usize {
        self.points.iter().filter(|p| p.pareto).count()
    }
}

/// The named workload: a small fixed layer set every point shares.
///
/// * `"edge3"` — the `repro mem` Table-I-style set (early wide-spatial,
///   mid-network, late channel-heavy);
/// * `"tiny"` — a two-layer set for fast tests.
///
/// # Errors
///
/// Returns a message naming the known tags on an unknown workload.
pub fn workload_layers(name: &str) -> Result<Vec<(&'static str, ConvShape)>, String> {
    match name {
        "edge3" => Ok(crate::memexp::sweep_layers()),
        "tiny" => Ok(vec![
            ("tiny-16c-12x12", ConvShape::conv(16, 32, 12, 12, 3, 1, 1)),
            ("tiny-fc", ConvShape::fully_connected(128, 10)),
        ]),
        other => Err(format!("workload: unknown tag `{other}` (edge3|tiny)")),
    }
}

fn parse_mem(spec: &JsonValue, i: usize) -> Result<MemSpec, String> {
    let ctx = format!("mem[{i}]");
    let (preset, mem) = mem_config(spec, &ctx, "preset", "edge")?;
    let name = str_field(spec, &ctx, "name")?.map_or_else(|| format!("{preset}{i}"), str::to_owned);
    Ok(MemSpec { name, mem })
}

/// Parses a DSE manifest (see `docs/dse.md` for the schema).
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON, unknown tags,
/// out-of-range parameters, or a field of the wrong JSON type.
pub fn parse_dse_manifest(text: &str) -> Result<DseManifest, String> {
    let doc = bsc_telemetry::parse_json(text).map_err(|e| err_at("manifest", e))?;
    let name = str_field(&doc, "manifest", "name")?.unwrap_or("dse").to_owned();
    let workload = str_field(&doc, "manifest", "workload")?.unwrap_or("edge3").to_owned();
    workload_layers(&workload)?;
    let period_ps = match u64_field(&doc, "manifest", "period_ps")? {
        None => 2000.0,
        Some(0) => return Err("manifest: period_ps: expected at least 1".into()),
        Some(p) => p as f64,
    };
    let steps = match u64_field(&doc, "manifest", "steps")? {
        None => 48,
        Some(s) if (1..=MAX_STEPS).contains(&s) => s as usize,
        Some(_) => return Err(format!("manifest: steps: expected 1..={MAX_STEPS}")),
    };

    let dataflows = match array_field(&doc, "manifest", "dataflows")? {
        None => DataflowKind::ALL.to_vec(),
        Some([]) => return Err("dataflows: expected a non-empty array".into()),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let ctx = format!("dataflows[{i}]");
                let tag = v.as_str().ok_or_else(|| err_at(&ctx, "expected a string"))?;
                DataflowKind::parse(tag).ok_or_else(|| {
                    err_at(
                        &ctx,
                        format!(
                            "unknown dataflow `{tag}` (weight-stationary|output-stationary|input-stationary)"
                        ),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };

    let geometries = match array_field(&doc, "manifest", "geometries")? {
        None => vec![ArrayGeometry::paper()],
        Some([]) => return Err("geometries: expected a non-empty array".into()),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let ctx = format!("geometries[{i}]");
                let rows = u64_field(g, &ctx, "rows")?
                    .filter(|r| (1..=MAX_ROWS).contains(r))
                    .ok_or_else(|| err_at(&ctx, format!("rows: expected 1..={MAX_ROWS}")))?;
                let vl = u64_field(g, &ctx, "vector_length")?
                    .filter(|v| (2..=MAX_VECTOR_LENGTH).contains(v))
                    .ok_or_else(|| {
                        err_at(&ctx, format!("vector_length: expected 2..={MAX_VECTOR_LENGTH}"))
                    })?;
                Ok(ArrayGeometry::new(rows as usize, vl as usize))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };

    let mems = match array_field(&doc, "manifest", "mem")? {
        None => vec![MemSpec { name: "edge".into(), mem: MemConfig::edge() }],
        Some([]) => return Err("mem: expected a non-empty array".into()),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, spec)| parse_mem(spec, i))
            .collect::<Result<Vec<_>, _>>()?,
    };

    let kinds = match array_field(&doc, "manifest", "kinds")? {
        None => MacKind::ALL.to_vec(),
        Some([]) => return Err("kinds: expected a non-empty array".into()),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let ctx = format!("kinds[{i}]");
                let tag = v.as_str().ok_or_else(|| err_at(&ctx, "expected a string"))?;
                mac_kind(tag).ok_or_else(|| {
                    err_at(&ctx, format!("unknown architecture `{tag}` (bsc|lpc|hps)"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };

    let precisions = match array_field(&doc, "manifest", "precisions")? {
        None => Precision::ALL.to_vec(),
        Some([]) => return Err("precisions: expected a non-empty array".into()),
        Some(a) => a
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let ctx = format!("precisions[{i}]");
                let s = v.as_str().ok_or_else(|| err_at(&ctx, "expected a string"))?;
                s.parse::<Precision>().map_err(|e| err_at(&ctx, e))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };

    let workers = u64_field(&doc, "manifest", "workers")?
        .map(|w| {
            if w == 0 {
                Err("manifest: workers: must be positive".to_string())
            } else {
                Ok(w as usize)
            }
        })
        .transpose()?;

    Ok(DseManifest {
        name,
        workload,
        period_ps,
        steps,
        dataflows,
        geometries,
        mems,
        kinds,
        precisions,
        workers,
    })
}

/// Pareto flags for a minimize-all objective matrix: `flags[i]` is true
/// iff no other row dominates row `i` (≤ in every objective, < in at
/// least one).  Duplicate rows are all on the front.
pub fn pareto_flags(objectives: &[[f64; 3]]) -> Vec<bool> {
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    objectives
        .iter()
        .map(|p| !objectives.iter().any(|q| dominates(q, p)))
        .collect()
}

/// One coordinate tuple in enumeration order.
#[derive(Debug, Clone, Copy)]
struct PointSpec {
    dataflow: DataflowKind,
    geometry: ArrayGeometry,
    mem: usize,
    kind: MacKind,
    precision: Precision,
}

fn evaluate_point(
    m: &DseManifest,
    layers: &[(&'static str, ConvShape)],
    charac: &DesignCharacterization,
    spec: PointSpec,
) -> Result<DsePoint, String> {
    let array = ArrayConfig::with_geometry(spec.kind, spec.geometry);
    let mem = &m.mems[spec.mem];
    let unit = charac
        .at_period_weight_stationary(spec.precision, m.period_ps)
        .map_err(|e| format!("{} L{}: {e}", spec.kind, spec.geometry.vector_length))?;
    let area_um2 = spec.geometry.rows as f64 * unit.area_um2;
    let model = ArrayEnergyModel::new(unit, array);
    let sram = SramModel::smic28_like();
    let (mut compute, mut total, mut stall, mut dma, mut dma_busy) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut energy_fj = 0.0;
    for (tag, shape) in layers {
        let aware =
            schedule_conv_with_memory_dataflow(&array, &mem.mem, spec.precision, shape, spec.dataflow)
                .map_err(|e| format!("layer {tag}: {e}"))?;
        compute += aware.compute.cycles;
        total += aware.total_cycles;
        stall += aware.stall_cycles + aware.drain_cycles;
        dma += aware.dma_bytes();
        dma_busy += aware.dma_busy_cycles;
        energy_fj += model.schedule_energy_with_dma(&aware, &sram).total_fj();
    }
    Ok(DsePoint {
        dataflow: spec.dataflow,
        geometry: spec.geometry,
        mem: mem.name.clone(),
        kind: spec.kind,
        precision: spec.precision,
        compute_cycles: compute,
        total_cycles: total,
        stall_cycles: stall,
        dma_bytes: dma,
        energy_fj,
        area_um2,
        latency_us: total as f64 * m.period_ps / 1e6,
        roofline: if dma_busy > compute { "bandwidth-bound" } else { "compute-bound" },
        pareto: false,
    })
}

/// Runs the full sweep described by `text`.  `workers` overrides the
/// manifest's worker count; every report is byte-identical at any
/// worker count (results merge in enumeration-index order).
///
/// # Errors
///
/// Returns a human-readable message on manifest, characterization or
/// scheduling failures.
pub fn dse(text: &str, workers: Option<usize>) -> Result<DseRun, String> {
    let m = parse_dse_manifest(text)?;
    let layers = workload_layers(&m.workload)?;
    let prof = Profiler::new();

    // --- enumerate: the cross product plus one gate-level
    // characterization per distinct (kind, vector length) design.
    let enumerate = prof.phase("enumerate");
    let (specs, characs) = {
        let _g = enumerate.enter();
        let mut specs = Vec::new();
        for &dataflow in &m.dataflows {
            for &geometry in &m.geometries {
                for mem in 0..m.mems.len() {
                    for &kind in &m.kinds {
                        for &precision in &m.precisions {
                            specs.push(PointSpec { dataflow, geometry, mem, kind, precision });
                        }
                    }
                }
            }
        }
        let mut characs: Vec<((MacKind, usize), Arc<DesignCharacterization>)> = Vec::new();
        for &kind in &m.kinds {
            for &g in &m.geometries {
                if characs.iter().any(|(k, _)| *k == (kind, g.vector_length)) {
                    continue;
                }
                let cfg = CharacterizeConfig {
                    length: g.vector_length,
                    steps: m.steps,
                    ..CharacterizeConfig::default()
                };
                let c = DesignCharacterization::new(kind, &cfg)
                    .map_err(|e| format!("characterizing {kind} L{}: {e}", g.vector_length))?;
                characs.push(((kind, g.vector_length), Arc::new(c)));
            }
        }
        (specs, characs)
    };
    enumerate.add("points", specs.len() as u64);
    enumerate.add("designs_characterized", characs.len() as u64);

    // --- evaluate: every point over the work-stealing pool, merged in
    // enumeration-index order.
    let evaluate = prof.phase("evaluate");
    let results = {
        let _g = evaluate.enter();
        par::run_indexed(specs.len(), workers.or(m.workers), |i| {
            let spec = specs[i];
            let charac = &characs
                .iter()
                .find(|(k, _)| *k == (spec.kind, spec.geometry.vector_length))
                .expect("every swept design characterized")
                .1;
            evaluate_point(&m, &layers, charac, spec)
        })
    };
    let mut points = results.into_iter().collect::<Result<Vec<_>, String>>()?;
    evaluate.add("points_evaluated", points.len() as u64);
    evaluate.add("layer_schedules", (points.len() * layers.len()) as u64);

    // --- pareto: minimize (energy, latency, area).
    let pareto = prof.phase("pareto");
    let front_points = {
        let _g = pareto.enter();
        let objectives: Vec<[f64; 3]> = points
            .iter()
            .map(|p| [p.energy_fj, p.total_cycles as f64, p.area_um2])
            .collect();
        let flags = pareto_flags(&objectives);
        for (p, f) in points.iter_mut().zip(&flags) {
            p.pareto = *f;
        }
        flags.iter().filter(|f| **f).count() as u64
    };
    pareto.add("front_points", front_points);
    pareto.add("dominated_points", points.len() as u64 - front_points);

    // --- export: render the CSV now so its byte count is a
    // deterministic phase counter; JSON/SVG reuse the stored snapshot.
    let export = prof.phase("export");
    let csv = {
        let _g = export.enter();
        render_csv(&points)
    };
    export.add("csv_bytes", csv.len() as u64);
    export.add("rows", points.len() as u64);

    Ok(DseRun {
        manifest: m,
        layers,
        points,
        profile: prof.snapshot(),
        csv,
    })
}

fn render_csv(points: &[DsePoint]) -> String {
    let mut out = String::from(
        "dataflow,rows,vector_length,mem,kind,precision_bits,compute_cycles,total_cycles,stall_cycles,dma_bytes,energy_fj,area_um2,latency_us,roofline,pareto\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.6},{},{}\n",
            p.dataflow.tag(),
            p.geometry.rows,
            p.geometry.vector_length,
            p.mem,
            p.kind,
            p.precision.bits(),
            p.compute_cycles,
            p.total_cycles,
            p.stall_cycles,
            p.dma_bytes,
            p.energy_fj,
            p.area_um2,
            p.latency_us,
            p.roofline,
            p.pareto,
        ));
    }
    out
}

/// CSV view of the sweep (one row per point, enumeration order).
pub fn to_csv(run: &DseRun) -> String {
    run.csv.clone()
}

/// Aligned-text view: the sweep summary, the Pareto front sorted by
/// energy, the phase table, and the telemetry counters.
pub fn render(run: &DseRun) -> String {
    use std::fmt::Write as _;
    let m = &run.manifest;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design-space exploration `{}`: {} points ({} dataflows x {} geometries x {} mem x {} kinds x {} precisions), workload `{}` ({} layers) @ {:.0} ps",
        m.name,
        run.points.len(),
        m.dataflows.len(),
        m.geometries.len(),
        m.mems.len(),
        m.kinds.len(),
        m.precisions.len(),
        m.workload,
        run.layers.len(),
        m.period_ps,
    );
    let bw = run.points.iter().filter(|p| p.roofline == "bandwidth-bound").count();
    let _ = writeln!(
        out,
        "roofline: {} bandwidth-bound / {} compute-bound",
        bw,
        run.points.len() - bw
    );

    let mut front: Vec<&DsePoint> = run.front().collect();
    front.sort_by(|a, b| a.energy_fj.total_cmp(&b.energy_fj));
    let _ = writeln!(out, "\nPareto front (energy, latency, area minimized): {} points", front.len());
    let _ = writeln!(
        out,
        "  {:<18} {:<8} {:<10} {:<5} {:>4}  {:>12} {:>12} {:>11} {:>10}  roofline",
        "dataflow", "geom", "mem", "kind", "prec", "cycles", "energy uJ", "latency us", "area mm2"
    );
    for p in front {
        let _ = writeln!(
            out,
            "  {:<18} {:<8} {:<10} {:<5} int{:<2}  {:>12} {:>12.3} {:>11.3} {:>10.4}  {}",
            p.dataflow.tag(),
            p.geometry.tag(),
            p.mem,
            p.kind.to_string(),
            p.precision.bits(),
            p.total_cycles,
            p.energy_fj / 1e9,
            p.latency_us,
            p.area_um2 / 1e6,
            p.roofline,
        );
    }

    let _ = writeln!(out, "\nsweep phases:");
    let _ = writeln!(out, "  {:<12} {:>6} {:>14}  wall", "phase", "calls", "work units");
    for p in &run.profile.phases {
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>14}  {}",
            p.name,
            p.calls,
            p.work_units(),
            crate::timing::fmt_ns(p.wall_ns as f64),
        );
    }
    let _ = writeln!(
        out,
        "metrics: dse.points.evaluated={} dse.points.pareto={}",
        run.points.len(),
        run.pareto_count(),
    );
    out
}

/// Machine-readable sweep report for the CI baseline gate.  Every field
/// is a pure function of the manifest (cycle counts, exact fJ/µm²
/// doubles, profile work counters — no wall-clock anywhere), so the
/// document is byte-identical at any worker count: CI `cmp`s 1/2/8
/// workers and diffs the checked-in `BENCH_dse_baseline.json` at
/// `--tol 0`.
pub fn to_json(run: &DseRun) -> String {
    let m = &run.manifest;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("benchmark").string("dse");
    j.key("name").string(&m.name);
    j.key("workload").string(&m.workload);
    j.key("period_ps").f64(m.period_ps);
    j.key("dataflows").u64(m.dataflows.len() as u64);
    j.key("geometries").u64(m.geometries.len() as u64);
    j.key("mem_configs").u64(m.mems.len() as u64);
    j.key("kinds").u64(m.kinds.len() as u64);
    j.key("precisions").u64(m.precisions.len() as u64);
    j.key("points_evaluated").u64(run.points.len() as u64);
    j.key("pareto_points").u64(run.pareto_count() as u64);
    j.key("bandwidth_bound_points")
        .u64(run.points.iter().filter(|p| p.roofline == "bandwidth-bound").count() as u64);
    j.key("compute_bound_points")
        .u64(run.points.iter().filter(|p| p.roofline == "compute-bound").count() as u64);
    // The `metrics` object restates the two counts above, under the
    // names the baseline gates.
    j.key("metrics").begin_object();
    j.key("dse.points.evaluated").u64(run.points.len() as u64);
    j.key("dse.points.pareto").u64(run.pareto_count() as u64);
    j.end_object();
    j.key("points").begin_array();
    for p in &run.points {
        j.begin_object();
        j.key("dataflow").string(p.dataflow.tag());
        j.key("rows").u64(p.geometry.rows as u64);
        j.key("vector_length").u64(p.geometry.vector_length as u64);
        j.key("mem").string(&p.mem);
        j.key("kind").string(&p.kind.to_string());
        j.key("precision_bits").u64(u64::from(p.precision.bits()));
        j.key("compute_cycles").u64(p.compute_cycles);
        j.key("total_cycles").u64(p.total_cycles);
        j.key("stall_cycles").u64(p.stall_cycles);
        j.key("dma_bytes").u64(p.dma_bytes);
        j.key("energy_fj").f64(p.energy_fj);
        j.key("area_um2").f64(p.area_um2);
        j.key("latency_us").f64(p.latency_us);
        j.key("roofline").string(p.roofline);
        j.key("pareto").bool(p.pareto);
        j.end_object();
    }
    j.end_array();
    // Only the deterministic half of the profile goes into the report:
    // unlike `repro profile` (gated by the differ, which skips `_ns`
    // names), this document is byte-compared across worker counts in
    // CI, so wall-clock may not appear at all.
    j.key("counters").begin_object();
    for p in &run.profile.phases {
        j.key(&p.name).begin_object();
        j.key("calls").u64(p.calls);
        for (name, v) in &p.counters {
            j.key(name).u64(*v);
        }
        j.end_object();
    }
    j.end_object();
    j.end_object();
    let mut s = j.finish();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep small enough to characterize in a unit test: one kind,
    /// one vector length, all three dataflows, a bandwidth-starved and
    /// a default edge hierarchy.
    const TINY_MANIFEST: &str = r#"{
      "name": "tiny-dse",
      "workload": "tiny",
      "steps": 16,
      "dataflows": ["weight-stationary", "output-stationary", "input-stationary"],
      "geometries": [
        {"rows": 8, "vector_length": 4},
        {"rows": 4, "vector_length": 4}
      ],
      "mem": [
        {"name": "edge", "preset": "edge"},
        {"name": "edge-bw1", "preset": "edge", "bandwidth_bytes_per_cycle": 1}
      ],
      "kinds": ["bsc"],
      "precisions": ["int4", "int8"]
    }"#;

    #[test]
    fn manifest_defaults_cover_every_axis() {
        let m = parse_dse_manifest(r#"{"name": "d"}"#).unwrap();
        assert_eq!(m.dataflows, DataflowKind::ALL.to_vec());
        assert_eq!(m.geometries, vec![ArrayGeometry::paper()]);
        assert_eq!(m.mems.len(), 1);
        assert_eq!(m.kinds, MacKind::ALL.to_vec());
        assert_eq!(m.precisions, Precision::ALL.to_vec());
        assert_eq!(m.period_ps, 2000.0);
        assert_eq!(m.workload, "edge3");
    }

    #[test]
    fn manifest_rejects_bad_axes() {
        for bad in [
            r#"{"dataflows": ["north-stationary"]}"#,
            r#"{"dataflows": []}"#,
            r#"{"geometries": [{"rows": 0, "vector_length": 4}]}"#,
            r#"{"geometries": [{"rows": 4, "vector_length": 1}]}"#,
            r#"{"geometries": [{"rows": 4, "vector_length": 1024}]}"#,
            r#"{"mem": [{"preset": "hbm"}]}"#,
            r#"{"mem": [{"preset": "edge", "bandwidth_bytes_per_cycle": 0}]}"#,
            r#"{"kinds": ["tpu"]}"#,
            r#"{"precisions": ["int13"]}"#,
            r#"{"workload": "mnist"}"#,
            r#"{"workers": 0}"#,
            r#"not json"#,
        ] {
            assert!(parse_dse_manifest(bad).is_err(), "{bad}");
        }
        // Out-of-range values are errors naming the field, never a
        // silent default or a runaway characterization.
        for (field, bad) in [
            ("steps", r#"{"steps": 0}"#),
            ("steps", r#"{"steps": 4097}"#),
            ("steps", r#"{"steps": 1000000000000000}"#),
            ("period_ps", r#"{"period_ps": 0}"#),
        ] {
            let err = parse_dse_manifest(bad).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
        let edge = parse_dse_manifest(r#"{"steps": 4096, "period_ps": 1}"#).unwrap();
        assert_eq!((edge.steps, edge.period_ps), (4096, 1.0));
    }

    #[test]
    fn pareto_flags_satisfy_the_front_invariants() {
        // In-repo xorshift PRNG: deterministic random objective clouds.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let dominates = |a: &[f64; 3], b: &[f64; 3]| {
            a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
        };
        for n in [1usize, 2, 17, 100] {
            let objs: Vec<[f64; 3]> =
                (0..n).map(|_| [rng(), rng(), rng()]).collect();
            let flags = pareto_flags(&objs);
            assert_eq!(flags.len(), n);
            assert!(flags.iter().any(|f| *f), "front is never empty");
            for (i, flag) in flags.iter().enumerate() {
                if *flag {
                    // No front member is dominated by anything.
                    assert!(!objs.iter().any(|q| dominates(q, &objs[i])), "front point {i}");
                } else {
                    // Every excluded point is dominated by some front member.
                    assert!(
                        objs.iter()
                            .zip(&flags)
                            .any(|(q, qf)| *qf && dominates(q, &objs[i])),
                        "excluded point {i} must be dominated by a front member"
                    );
                }
            }
        }
    }

    #[test]
    fn pareto_keeps_duplicates_and_single_points() {
        let objs = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]];
        assert_eq!(pareto_flags(&objs), vec![true, true, false]);
        assert_eq!(pareto_flags(&[[5.0, 5.0, 5.0]]), vec![true]);
        assert!(pareto_flags(&[]).is_empty());
    }

    #[test]
    fn tiny_sweep_is_worker_count_independent_and_well_formed() {
        let runs: Vec<DseRun> =
            [1usize, 2, 8].iter().map(|w| dse(TINY_MANIFEST, Some(*w)).unwrap()).collect();
        let json = to_json(&runs[0]);
        for r in &runs[1..] {
            assert_eq!(json, to_json(r), "report must be byte-identical at any worker count");
        }
        let run = &runs[0];
        // 3 dataflows x 2 geometries x 2 mems x 1 kind x 2 precisions.
        assert_eq!(run.points.len(), 3 * 2 * 2 * 2);
        // Non-trivial front; both roofline classes visible.
        assert!(run.pareto_count() > 1, "front: {}", run.pareto_count());
        assert!(run.pareto_count() < run.points.len());
        assert!(run.points.iter().any(|p| p.roofline == "bandwidth-bound"));
        assert!(run.points.iter().any(|p| p.roofline == "compute-bound"));
        // The profile carries all four deterministic phases.
        for phase in ["enumerate", "evaluate", "pareto", "export"] {
            let p = run.profile.phase(phase).unwrap_or_else(|| panic!("missing {phase}"));
            assert_eq!(p.calls, 1);
        }
        assert_eq!(
            run.profile.phase("evaluate").unwrap().counter("points_evaluated"),
            run.points.len() as u64
        );
        // The CSV was rendered during the export phase and counted.
        assert_eq!(
            run.profile.phase("export").unwrap().counter("csv_bytes"),
            to_csv(run).len() as u64
        );
        assert_eq!(to_csv(run).lines().count(), run.points.len() + 1);
    }

    #[test]
    fn tiny_sweep_report_is_strict_json_with_both_sections() {
        let run = dse(TINY_MANIFEST, Some(2)).unwrap();
        let doc = bsc_telemetry::parse_json(&to_json(&run)).expect("strict JSON");
        assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("dse"));
        let n = doc.get("points_evaluated").and_then(|v| v.as_f64()).unwrap();
        let k = doc.get("pareto_points").and_then(|v| v.as_f64()).unwrap();
        assert!(k > 1.0 && k < n);
        assert!(doc.get("counters").and_then(|c| c.get("evaluate")).is_some());
        // Wall-clock must NOT appear: the report is byte-compared
        // across worker counts in CI.
        assert!(doc.get("wall").is_none());
        assert!(!to_json(&run).contains("_ns"));
        let text = render(&run);
        assert!(text.contains("Pareto front"), "{text}");
        assert!(text.contains("dse.points.evaluated="), "{text}");
        assert!(text.contains("bandwidth-bound"), "{text}");
    }

    #[test]
    fn weight_stationary_at_paper_geometry_matches_the_mem_sweep() {
        // The DSE path prices WS@32×32 through the same scheduler as
        // `repro mem`: cross-check one point against a direct call.
        let manifest = r#"{
          "name": "ws-check", "workload": "edge3", "steps": 16,
          "dataflows": ["weight-stationary"],
          "geometries": [{"rows": 32, "vector_length": 4}],
          "mem": [{"name": "edge", "preset": "edge"}],
          "kinds": ["bsc"], "precisions": ["int8"]
        }"#;
        let run = dse(manifest, Some(2)).unwrap();
        assert_eq!(run.points.len(), 1);
        let p = &run.points[0];
        let array = ArrayConfig::with_geometry(MacKind::Bsc, ArrayGeometry::new(32, 4));
        let (mut compute, mut total) = (0u64, 0u64);
        for (_, shape) in &run.layers {
            let aware = schedule_conv_with_memory_dataflow(
                &array,
                &MemConfig::edge(),
                Precision::Int8,
                shape,
                DataflowKind::WeightStationary,
            )
            .unwrap();
            compute += aware.compute.cycles;
            total += aware.total_cycles;
        }
        assert_eq!(p.compute_cycles, compute);
        assert_eq!(p.total_cycles, total);
        assert!(p.energy_fj > 0.0 && p.area_um2 > 0.0);
    }
}
