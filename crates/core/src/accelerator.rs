//! The end-to-end accelerator API.

use std::sync::Arc;

use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization};
use bsc_mac::{MacKind, Precision};
use bsc_nn::Network;
use bsc_systolic::energy::ArrayEnergyModel;
use bsc_systolic::mapping::schedule_conv;
use bsc_systolic::mem::{schedule_conv_with_memory, MemConfig};
use bsc_systolic::{ArrayConfig, ArrayGeometry, Matrix, MatmulRun, SystolicArray};
use bsc_telemetry::Telemetry;

use crate::report::{LayerReport, NetworkReport};
use crate::{layer_to_conv_shape, AccelError};

/// Configuration of one accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Vector MAC architecture (BSC, LPC or HPS).
    pub kind: MacKind,
    /// PE-array geometry.
    pub array: ArrayConfig,
    /// Operating clock period in ps.
    pub period_ps: f64,
    /// Gate-level characterization settings.
    pub characterize: CharacterizeConfig,
    /// Memory hierarchy feeding the array.  Defaults to
    /// [`MemConfig::infinite`], which reproduces the compute-only
    /// schedules bit-exactly; set a finite hierarchy (e.g.
    /// [`MemConfig::edge`]) to price DMA stalls into every report.
    pub mem: MemConfig,
}

impl AcceleratorConfig {
    /// The paper's configuration: 32 PEs × vector length 32 at 500 MHz
    /// (2 ns clock).
    pub fn paper(kind: MacKind) -> Self {
        AcceleratorConfig {
            kind,
            array: ArrayConfig::paper(kind),
            period_ps: 2000.0,
            characterize: CharacterizeConfig::default(),
            mem: MemConfig::infinite(),
        }
    }

    /// A reduced configuration for fast tests: 4 PEs × vector length 8,
    /// short characterization runs.  (Vector length 8 is the shortest at
    /// which the BSC design's shared-shifter amortization is visible; at
    /// 4 the Int8 efficiency ordering against HPS is a coin flip.)
    pub fn quick(kind: MacKind) -> Self {
        AcceleratorConfig {
            kind,
            array: ArrayConfig { pes: 4, vector_length: 8, kind },
            period_ps: 2000.0,
            characterize: CharacterizeConfig::quick(4),
            mem: MemConfig::infinite(),
        }
    }

    /// Same accelerator behind a different memory hierarchy.
    pub fn with_mem(mut self, mem: MemConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Same accelerator at a different PE-array geometry.  The
    /// characterization length follows the vector length automatically
    /// (as in [`Accelerator::new`]), so the gate-level netlist matches
    /// the datapath being modeled.
    pub fn with_geometry(mut self, geometry: ArrayGeometry) -> Self {
        self.array = ArrayConfig::with_geometry(self.kind, geometry);
        self.characterize.length = geometry.vector_length;
        self
    }
}

/// A configured accelerator: a characterized vector-MAC design inside a
/// weight-stationary systolic array at a fixed operating point.
///
/// Construction is expensive (it builds the gate-level netlist and runs
/// the activity testbench in all three precision modes); reuse one
/// instance across experiments.
#[derive(Debug)]
pub struct Accelerator {
    config: AcceleratorConfig,
    charac: Arc<DesignCharacterization>,
    array: SystolicArray,
}

impl Accelerator {
    /// Characterizes the configured design and prepares the array.
    ///
    /// Prefer [`Accelerator::new_cached`] when several accelerators (or
    /// several tests in one binary) share a design — this constructor
    /// characterizes through a fresh, empty cache, so it always runs a
    /// new characterization.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures.
    pub fn new(config: AcceleratorConfig) -> Result<Self, AccelError> {
        Self::new_cached(config, &crate::engine::CharacterizationCache::new())
    }

    /// Like [`Accelerator::new`], but characterizations are looked up in
    /// (and inserted into) the given cache, so each distinct design is
    /// characterized at most once per cache.  The design is
    /// characterized at the array's vector length: the one place that
    /// key is spelled out, for every constructor and engine.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures from a cache miss.
    pub fn new_cached(
        config: AcceleratorConfig,
        cache: &crate::engine::CharacterizationCache,
    ) -> Result<Self, AccelError> {
        let mut charac_cfg = config.characterize.clone();
        charac_cfg.length = config.array.vector_length;
        let charac = cache.get_or_characterize(config.kind, &charac_cfg)?;
        Ok(Self::with_shared_characterization(config, charac))
    }

    /// A quick-configuration accelerator backed by the process-wide
    /// [`CharacterizationCache::global`](crate::engine::CharacterizationCache::global)
    /// cache — the constructor every in-repo test uses, so one test
    /// binary characterizes each design at most once.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures from a cache miss.
    pub fn quick_cached(kind: MacKind) -> Result<Self, AccelError> {
        Self::new_cached(
            AcceleratorConfig::quick(kind),
            crate::engine::CharacterizationCache::global(),
        )
    }

    /// Builds an accelerator around an already-characterized design,
    /// avoiding a second gate-level simulation pass (the characterization's
    /// vector length must match `config.array.vector_length`).
    ///
    /// # Panics
    ///
    /// Panics if the characterization's architecture differs from
    /// `config.kind`.
    pub fn with_characterization(
        config: AcceleratorConfig,
        charac: DesignCharacterization,
    ) -> Self {
        Self::with_shared_characterization(config, Arc::new(charac))
    }

    /// [`Accelerator::with_characterization`] for a shared (cached)
    /// characterization: many accelerators — e.g. one per engine worker —
    /// reference one characterization without re-simulating or cloning.
    ///
    /// # Panics
    ///
    /// Panics if the characterization's architecture differs from
    /// `config.kind`.
    pub fn with_shared_characterization(
        config: AcceleratorConfig,
        charac: Arc<DesignCharacterization>,
    ) -> Self {
        assert_eq!(charac.kind(), config.kind, "characterization architecture mismatch");
        let array = SystolicArray::new(config.array);
        Accelerator { config, charac, array }
    }

    /// The configuration this accelerator was built with.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The underlying characterization (for custom PPA queries).
    pub fn characterization(&self) -> &DesignCharacterization {
        &self.charac
    }

    /// A shared handle to the characterization, for building further
    /// accelerators or engines on the same design without re-simulating.
    pub fn shared_characterization(&self) -> Arc<DesignCharacterization> {
        Arc::clone(&self.charac)
    }

    /// Attaches a fresh telemetry hub (metrics registry + trace ring of
    /// the given capacity) to the underlying array and returns a handle
    /// to it.  Every subsequent [`matmul`](Self::matmul),
    /// [`conv2d`](Self::conv2d) and [`run_network`](Self::run_network)
    /// call publishes counters and trace events into it.
    pub fn enable_telemetry(&mut self, trace_capacity: usize) -> Telemetry {
        let tel = Telemetry::new(trace_capacity);
        self.array.set_telemetry(tel.clone());
        tel
    }

    /// Attaches an existing telemetry hub (e.g. one shared across several
    /// accelerator instances) to the underlying array.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.array.set_telemetry(telemetry);
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.array.telemetry()
    }

    /// The array-level energy model for one precision mode at the
    /// configured operating point.
    ///
    /// # Errors
    ///
    /// Returns an error when the operating period is infeasible.
    pub fn energy_model(&self, p: Precision) -> Result<ArrayEnergyModel, AccelError> {
        let unit = self.charac.at_period_weight_stationary(p, self.config.period_ps)?;
        Ok(ArrayEnergyModel::new(unit, self.config.array))
    }

    /// Runs one exact matrix multiplication through the cycle-accurate
    /// array simulation (functional path).
    ///
    /// # Errors
    ///
    /// Propagates shape and operand-range errors.
    pub fn matmul(
        &self,
        p: Precision,
        features: &Matrix,
        weights: &Matrix,
    ) -> Result<MatmulRun, AccelError> {
        Ok(self.array.matmul(p, features, weights)?)
    }

    /// Runs one exact quantized convolution on the array: lowers it with
    /// im2col (the Fig. 6 mapping), executes the tiled systolic matmul,
    /// and folds the result back into a `(out_c, out_h, out_w)` tensor.
    ///
    /// The returned tensor is bit-exact against
    /// [`bsc_nn::ops::conv2d`]; operands must fit the mode `p`.
    ///
    /// # Errors
    ///
    /// Propagates shape and operand-range errors from the lowering and the
    /// array.
    pub fn conv2d(
        &self,
        p: Precision,
        input: &bsc_nn::Tensor,
        weights: &bsc_nn::ops::ConvWeights,
        stride: usize,
        padding: usize,
    ) -> Result<(bsc_nn::Tensor, bsc_systolic::DataflowStats), AccelError> {
        let (feat, wmat) = bsc_nn::ops::im2col(input, weights, stride, padding);
        let run = self.array.matmul_tiled(
            p,
            &Matrix::from_rows(&feat),
            &Matrix::from_rows(&wmat),
        )?;
        let out_h = (input.height() + 2 * padding - weights.kh) / stride + 1;
        let out_w = (input.width() + 2 * padding - weights.kw) / stride + 1;
        let out = bsc_nn::Tensor::from_fn(weights.out_c, out_h, out_w, |o, y, x| {
            run.output.get(y * out_w + x, o)
        });
        Ok((out, run.stats))
    }

    /// Extension beyond the paper: the per-layer energy breakdown
    /// *including* the SRAM hierarchy (weight buffer, feature buffer and
    /// partial-sum read-modify-write traffic), which the paper's PPA scope
    /// excludes.  Returns `(layer name, breakdown)` pairs.
    ///
    /// With a finite memory hierarchy configured, buffer fills and DRAM
    /// transfers are priced from the tiler's **measured** DMA counters;
    /// under the default infinite hierarchy the pre-hierarchy analytic
    /// estimate is the (pinned) fallback.
    ///
    /// # Errors
    ///
    /// Propagates mapping and characterization errors.
    pub fn memory_report(
        &self,
        net: &Network,
        sram: &bsc_systolic::energy::SramModel,
    ) -> Result<Vec<(String, bsc_systolic::energy::MemoryEnergyBreakdown)>, AccelError> {
        let mut rows = Vec::with_capacity(net.layers.len());
        for layer in &net.layers {
            let shape = layer_to_conv_shape(&layer.kind);
            let model = self.energy_model(layer.precision)?;
            let breakdown = if self.config.mem.is_infinite_bandwidth() {
                let schedule = schedule_conv(&self.config.array, layer.precision, &shape)?;
                model.schedule_energy_with_memory(&schedule, sram)
            } else {
                let aware = schedule_conv_with_memory(
                    &self.config.array,
                    &self.config.mem,
                    layer.precision,
                    &shape,
                )?;
                model.schedule_energy_with_dma(&aware, sram)
            };
            rows.push((layer.name.clone(), breakdown));
        }
        Ok(rows)
    }

    /// Schedules and energy-models every layer of a network (analytic
    /// path), producing the per-layer and whole-network numbers behind
    /// Fig. 9.
    ///
    /// # Errors
    ///
    /// Propagates mapping and characterization errors.
    pub fn run_network(&self, net: &Network) -> Result<NetworkReport, AccelError> {
        let _timer = self
            .telemetry()
            .map(|tel| tel.metrics.timer("accel.run_network_ns"));
        let _net_span = self.telemetry().map(|tel| {
            let g = tel.spans.begin("accel.run_network");
            g.annotate("network", &net.name);
            g.annotate("layers", net.layers.len());
            g
        });
        let mut layers = Vec::with_capacity(net.layers.len());
        for (i, layer) in net.layers.iter().enumerate() {
            let _layer_span = self.telemetry().map(|tel| {
                let g = tel.spans.begin(&format!("layer.{}", layer.name));
                g.annotate("index", i);
                g.annotate("precision", layer.precision);
                g
            });
            let shape = layer_to_conv_shape(&layer.kind);
            let aware = schedule_conv_with_memory(
                &self.config.array,
                &self.config.mem,
                layer.precision,
                &shape,
            )?;
            let schedule = aware.compute;
            let model = self.energy_model(layer.precision)?;
            let energy_fj = model.schedule_energy_fj(&schedule);
            if let Some(tel) = self.telemetry() {
                tel.trace.push(bsc_telemetry::TraceEvent::TileStart {
                    layer: i as u32,
                    pass: 0,
                    rows: (shape.out_h() * shape.out_w()) as u32,
                    cols: shape.out_channels as u32,
                    inner: shape.in_channels as u32,
                });
                // Under a finite hierarchy, the layer's DMA activity shows
                // up as load/store slices on the timeline's DMA track: the
                // channel's load time anchored at the layer start, its
                // writeback time ending at the layer's last cycle.
                if !self.config.mem.is_infinite_bandwidth() {
                    tel.trace.push(bsc_telemetry::TraceEvent::Dma {
                        cycle: 0,
                        cycles: aware.dma_load_cycles.min(u32::MAX as u64) as u32,
                        bytes: aware.dma_load_bytes.min(u32::MAX as u64) as u32,
                        store: false,
                    });
                    if aware.dma_store_bytes > 0 {
                        tel.trace.push(bsc_telemetry::TraceEvent::Dma {
                            cycle: aware.total_cycles.saturating_sub(aware.dma_store_cycles),
                            cycles: aware.dma_store_cycles.min(u32::MAX as u64) as u32,
                            bytes: aware.dma_store_bytes.min(u32::MAX as u64) as u32,
                            store: true,
                        });
                    }
                }
                let prefix = format!("accel.layer.{}", layer.name);
                tel.metrics.counter(&format!("{prefix}.cycles")).add(schedule.cycles);
                tel.metrics.counter(&format!("{prefix}.macs")).add(schedule.useful_macs);
                tel.metrics.counter(&format!("{prefix}.passes")).add(schedule.passes);
                tel.metrics.counter("mem.dma.loads").add(aware.dma_loads);
                tel.metrics.counter("mem.dma.bytes").add(aware.dma_bytes());
                tel.metrics.counter("mem.dma.stall_cycles").add(aware.stall_cycles);
            }
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
                tops_per_w: model.schedule_tops_per_w(&schedule),
            });
        }
        Ok(NetworkReport::new(
            net.name.clone(),
            self.config.kind,
            self.config.period_ps,
            layers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_geometry_threads_rows_and_vector_length() {
        let cfg = AcceleratorConfig::paper(MacKind::Bsc)
            .with_geometry(ArrayGeometry::new(16, 8));
        assert_eq!(cfg.array.pes, 16);
        assert_eq!(cfg.array.vector_length, 8);
        assert_eq!(cfg.characterize.length, 8);
        // The default geometry is still the paper's.
        let paper = AcceleratorConfig::paper(MacKind::Bsc);
        assert_eq!(paper.array.geometry(), ArrayGeometry::paper());
    }

    #[test]
    fn quick_accelerator_runs_a_small_network() {
        let accel = Accelerator::quick_cached(MacKind::Bsc).unwrap();
        let net = bsc_nn::models::lenet5();
        let report = accel.run_network(&net).unwrap();
        assert_eq!(report.layers().len(), net.layers.len());
        assert!(report.total_energy_fj() > 0.0);
        assert!(report.avg_tops_per_w() > 0.0);
        assert_eq!(report.total_macs(), net.total_macs());
    }

    #[test]
    fn telemetry_records_network_layers_and_matmuls() {
        let mut accel = Accelerator::quick_cached(MacKind::Bsc).unwrap();
        let tel = accel.enable_telemetry(1024);
        let net = bsc_nn::models::lenet5();
        accel.run_network(&net).unwrap();

        let snap = tel.metrics.snapshot();
        for layer in &net.layers {
            assert!(
                snap.counter(&format!("accel.layer.{}.cycles", layer.name)) > 0,
                "missing per-layer cycle counter for {}",
                layer.name
            );
        }
        // One TileStart per layer from the analytic path.
        let starts = tel
            .trace
            .snapshot()
            .events
            .iter()
            .filter(|e| e.kind() == "tile_start")
            .count();
        assert_eq!(starts, net.layers.len());
        // run_network was timed.
        assert_eq!(snap.histogram("accel.run_network_ns").map(|h| h.count), Some(1));

        // A functional matmul feeds the systolic counters through the
        // same hub.
        let k = accel.config().array.dot_length(Precision::Int8);
        let f = Matrix::from_fn(3, k, |r, c| ((r + c) % 5) as i64 - 2);
        let w = Matrix::from_fn(2, k, |r, c| ((r * c) % 3) as i64 - 1);
        accel.matmul(Precision::Int8, &f, &w).unwrap();
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("systolic.runs"), 1);
        assert_eq!(snap.counter("systolic.pe_fired"), 6);
    }

    #[test]
    fn matmul_through_facade_is_exact() {
        let accel = Accelerator::quick_cached(MacKind::Hps).unwrap();
        let k = accel.config().array.dot_length(Precision::Int8);
        let f = Matrix::from_fn(3, k, |r, c| ((r + c) % 5) as i64 - 2);
        let w = Matrix::from_fn(2, k, |r, c| ((r * c) % 3) as i64 - 1);
        let run = accel.matmul(Precision::Int8, &f, &w).unwrap();
        assert_eq!(run.output, f.matmul_nt(&w));
    }
}

#[cfg(test)]
mod conv_tests {
    use super::*;

    #[test]
    fn accelerator_conv2d_matches_golden() {
        let accel = Accelerator::quick_cached(MacKind::Bsc).unwrap();
        let p = Precision::Int4;
        let input = bsc_nn::Tensor::random(3, 6, 6, p.value_range(), 11);
        let weights = bsc_nn::ops::ConvWeights::from_fn(4, 3, 3, 3, |o, i, y, x| {
            (((o * 7 + i * 3 + y + x) % 15) as i64) - 7
        });
        let (out, stats) = accel.conv2d(p, &input, &weights, 1, 1).unwrap();
        let golden = bsc_nn::ops::conv2d(&input, &weights, 1, 1).unwrap();
        assert_eq!(out, golden);
        assert!(stats.cycles > 0);
        assert_eq!(out.shape(), (4, 6, 6));
    }
}
