//! Gate-level netlist of the *whole* vector systolic PE array — the design
//! the paper synthesizes for its Fig. 8(b) array numbers.
//!
//! Structure per Fig. 5:
//!
//! * a shared **feature port** (one vector per cycle) feeding PE 0's input
//!   registers; each PE's registered features feed the next PE — the
//!   feature pipeline *is* the chain of PE input buffers;
//! * a shared **weight port** with one load-enable per PE: weight buffers
//!   are enable registers (`q <= en ? d : q`) that hold their vector for
//!   the whole tile once loaded with the 0..N-1 cycle skew;
//! * one vector-MAC **datapath** per PE (BSC, LPC or HPS, instantiated via
//!   [`bsc_mac::build_datapath`]) and a registered accumulator per PE.
//!
//! [`ArrayNetlist::run_matmul`] drives the netlist cycle by cycle exactly
//! like [`crate::SystolicArray::matmul`] drives the behavioural model, so
//! the two can be cross-checked output for output.

use bsc_mac::{build_datapath, pack_element, MacError, MacKind, OperandSide, Precision};
use bsc_netlist::tb::random_signed_fill;
use bsc_netlist::{Activity, Bus, Netlist, NodeId, Rng64, Simulator, SIM_LANES};

use crate::{Matrix, SystolicError};

/// The gate-level systolic array with its port descriptors.
#[derive(Debug)]
pub struct ArrayNetlist {
    netlist: Netlist,
    kind: MacKind,
    pes: usize,
    vector_length: usize,
    mode2: NodeId,
    mode8: NodeId,
    feature_port: Vec<Bus>,
    weight_port: Vec<Bus>,
    weight_load: Vec<NodeId>,
    pe_outputs: Vec<Bus>,
}

/// Builds the gate-level array: `pes` processing elements, each with a
/// vector MAC of `vector_length` element slots.
///
/// # Panics
///
/// Panics if `pes` or `vector_length` is zero.
pub fn build_array(kind: MacKind, pes: usize, vector_length: usize) -> ArrayNetlist {
    assert!(pes > 0, "array needs at least one PE");
    assert!(vector_length > 0, "vector length must be positive");
    let bits = kind.element_bits();
    let mut n = Netlist::new();
    let mode2 = n.input("mode2");
    let mode8 = n.input("mode8");
    let feature_port: Vec<Bus> =
        (0..vector_length).map(|e| n.input_bus(&format!("f{e}"), bits)).collect();
    let weight_port: Vec<Bus> =
        (0..vector_length).map(|e| n.input_bus(&format!("w{e}"), bits)).collect();
    let weight_load: Vec<NodeId> = (0..pes).map(|p| n.input(format!("wload{p}"))).collect();

    let mut upstream: Vec<Bus> = feature_port.clone();
    let mut pe_outputs = Vec::with_capacity(pes);
    #[allow(clippy::needless_range_loop)]
    for pe in 0..pes {
        // Feature input buffer: plain pipeline registers.
        let f_reg: Vec<Bus> = upstream.iter().map(|b| b.register(&mut n, false)).collect();
        // Weight buffer: enable registers loaded from the shared port.
        let w_reg: Vec<Bus> = weight_port
            .iter()
            .map(|b| {
                b.bits()
                    .iter()
                    .map(|&d| n.dff_en(d, weight_load[pe], false))
                    .collect::<Bus>()
            })
            .collect();
        let out_comb = build_datapath(kind, &mut n, mode2, mode8, &w_reg, &f_reg);
        let out_reg = out_comb.register(&mut n, false);
        n.mark_output_bus(&format!("pe{pe}_acc"), &out_reg);
        pe_outputs.push(out_reg);
        upstream = f_reg;
    }

    ArrayNetlist {
        netlist: n,
        kind,
        pes,
        vector_length,
        mode2,
        mode8,
        feature_port,
        weight_port,
        weight_load,
        pe_outputs,
    }
}

impl ArrayNetlist {
    /// The underlying gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Architecture of the PEs.
    pub fn kind(&self) -> MacKind {
        self.kind
    }

    /// Number of PEs.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Vector length of each PE.
    pub fn vector_length(&self) -> usize {
        self.vector_length
    }

    /// Dot length in mode `p`.
    pub fn dot_length(&self, p: Precision) -> usize {
        self.vector_length * self.kind.fields_per_element(p)
    }

    fn write_vector(
        &self,
        sim: &mut Simulator<'_>,
        port: &[Bus],
        side: OperandSide,
        p: Precision,
        values: &[i64],
    ) {
        let fields = self.kind.fields_per_element(p);
        for (e, bus) in port.iter().enumerate() {
            let word = pack_element(self.kind, p, side, &values[e * fields..(e + 1) * fields]);
            sim.write_bus_lane(bus, 0, word);
        }
    }

    /// Holds the mode pins of `p` in every lane.
    fn set_mode(&self, sim: &mut Simulator<'_>, p: Precision) {
        sim.write(self.mode2, if p == Precision::Int2 { u64::MAX } else { 0 });
        sim.write(self.mode8, if p == Precision::Int8 { u64::MAX } else { 0 });
    }

    /// Runs one tile `O[m][n] = Σ_k features[m][k] · weights[n][k]` through
    /// the gate-level array, cycle by cycle with the Fig. 5 weight skew,
    /// and returns the output matrix (lane 0 of the simulator).
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::SystolicArray::matmul`]'s shape and operand-range
    /// errors and propagates netlist failures.
    pub fn run_matmul(
        &self,
        p: Precision,
        features: &Matrix,
        weights: &Matrix,
    ) -> Result<Matrix, SystolicError> {
        let k = self.dot_length(p);
        if features.cols() != k {
            return Err(SystolicError::FeatureWidthMismatch {
                precision: p,
                expected: k,
                got: features.cols(),
            });
        }
        if weights.cols() != k {
            return Err(SystolicError::WeightWidthMismatch {
                features: features.cols(),
                weights: weights.cols(),
            });
        }
        let n_rows = weights.rows();
        if n_rows > self.pes {
            return Err(SystolicError::TooManyWeightRows { pes: self.pes, got: n_rows });
        }
        // `pack_element` masks each field to the mode's width, so an
        // operand outside the range would silently wrap.
        for m in [features, weights] {
            for r in 0..m.rows() {
                if let Some(&v) = m.row(r).iter().find(|&&v| !p.contains(v)) {
                    return Err(MacError::ValueOutOfRange { precision: p, value: v }.into());
                }
            }
        }

        let mut sim = Simulator::new(&self.netlist).map_err(MacError::from)?;
        self.set_mode(&mut sim, p);

        let m_rows = features.rows();
        let mut out = Matrix::zeros(m_rows, n_rows);
        // PE n computes feature row m at cycle m + n (operands latch at the
        // end of that cycle); its registered accumulator shows the value at
        // cycle m + n + 2 (input regs + output reg).  Total drain:
        // (m-1) + (n-1) + 2 cycles after the first.
        let total = m_rows + n_rows;
        for t in 0..total + 1 {
            // Weight skew: assert wload[t] while presenting weight row t.
            for (i, &en) in self.weight_load.iter().enumerate() {
                sim.write(en, if i == t && t < n_rows { u64::MAX } else { 0 });
            }
            if t < n_rows {
                self.write_vector(&mut sim, &self.weight_port, OperandSide::Weight, p, weights.row(t));
            }
            if t < m_rows {
                self.write_vector(
                    &mut sim,
                    &self.feature_port,
                    OperandSide::Activation,
                    p,
                    features.row(t),
                );
            } else {
                // Park the feature port at zero during drain.
                for bus in &self.feature_port {
                    sim.write_bus_lane(bus, 0, 0);
                }
            }
            sim.step();
            sim.eval();
            // Harvest accumulators: PE n shows row m = t - n - 1 after its
            // output register (operands latched at cycle m + n, output
            // registered one cycle later).
            for (n_idx, acc) in self.pe_outputs.iter().enumerate() {
                if t > n_idx {
                    let m_idx = t - n_idx - 1;
                    if m_idx < m_rows && n_idx < n_rows {
                        out.set(m_idx, n_idx, sim.read_bus_signed_lane(acc, 0));
                    }
                }
            }
        }
        Ok(out)
    }
}

impl ArrayNetlist {
    /// Weight-stationary switching-activity characterization of the whole
    /// array netlist, one recorder per `(mode, seed)` run: weights loaded
    /// with the Fig. 5 skew and held, then fresh random feature vectors
    /// every cycle — the ground truth the analytic
    /// [`crate::energy::ArrayEnergyModel`] approximates.
    ///
    /// All runs go through one call of the shared batched testbench
    /// ([`bsc_netlist::tb::run_batched_activity`]), the same one that
    /// characterizes a single vector MAC, so each pool worker compiles the
    /// array's simulator once for every mode.  Every
    /// [`bsc_netlist::tb::BATCH_STEPS`]-cycle batch has its own weight load
    /// phase, and each run's recorders merge in batch order, so a run's
    /// totals depend only on its own mode and seed: they are deterministic,
    /// worker-count independent, and the same whichever runs share the call.
    ///
    /// # Errors
    ///
    /// Propagates netlist simulation failures.
    pub fn characterize_weight_stationary(
        &self,
        steps: usize,
        runs: &[(Precision, u64)],
    ) -> Result<Vec<Activity>, MacError> {
        let seeds: Vec<u64> = runs.iter().map(|&(_, seed)| seed).collect();
        Ok(bsc_netlist::tb::run_batched_activity(
            &self.netlist,
            steps,
            &seeds,
            None,
            |sim, run, rng| self.load_random_weights(sim, runs[run].0, rng),
            |sim, run, rng| {
                self.drive_random_side(sim, runs[run].0, rng, OperandSide::Activation);
            },
        )?)
    }

    /// Characterization warm-up: holds the mode pins, loads one random
    /// weight vector per PE with the skewed enables (all 64 simulation
    /// lanes get independent weights), releases the enables and settles
    /// the design.
    fn load_random_weights(&self, sim: &mut Simulator<'_>, p: Precision, rng: &mut Rng64) {
        self.set_mode(sim, p);
        for pe in 0..self.pes {
            for (j, &en) in self.weight_load.iter().enumerate() {
                sim.write(en, if j == pe { u64::MAX } else { 0 });
            }
            self.drive_random_side(sim, p, rng, OperandSide::Weight);
            sim.step();
        }
        for &en in &self.weight_load {
            sim.write(en, 0);
        }
        sim.eval();
    }

    /// Writes fresh uniform operands into all 64 lanes of one port: per
    /// element bus and lane, the fields are drawn in order and packed with
    /// the design's field layout for `side`.
    fn drive_random_side(
        &self,
        sim: &mut Simulator<'_>,
        p: Precision,
        rng: &mut Rng64,
        side: OperandSide,
    ) {
        let port = match side {
            OperandSide::Weight => &self.weight_port,
            OperandSide::Activation => &self.feature_port,
        };
        let mut fields = vec![0i64; self.kind.fields_per_element(p)];
        let mut lanes = [0i64; SIM_LANES];
        for bus in port {
            for lane in &mut lanes {
                random_signed_fill(rng, p.bits(), &mut fields);
                *lane = pack_element(self.kind, p, side, &fields);
            }
            sim.write_bus_packed(bus, &lanes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayConfig, SystolicArray};

    fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize, bits: u32) -> Matrix {
        let half = 1i64 << (bits - 1);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-half..half))
    }

    #[test]
    fn gate_level_array_matches_behavioural_model() {
        let mut rng = Rng64::seed_from_u64(0xA44A7);
        for kind in MacKind::ALL {
            let (pes, length) = (3, 2);
            let array = build_array(kind, pes, length);
            let behavioural =
                SystolicArray::new(ArrayConfig { pes, vector_length: length, kind });
            for p in Precision::ALL {
                let k = array.dot_length(p);
                let features = random_matrix(&mut rng, 5, k, p.bits());
                let weights = random_matrix(&mut rng, pes, k, p.bits());
                let gate = array.run_matmul(p, &features, &weights).unwrap();
                let beh = behavioural.matmul(p, &features, &weights).unwrap();
                assert_eq!(gate, beh.output, "{kind} {p}");
                assert_eq!(gate, features.matmul_nt(&weights), "{kind} {p} vs golden");
            }
        }
    }

    #[test]
    fn weight_buffers_hold_across_the_whole_tile() {
        // A tall feature stream (many cycles after the load phase) still
        // produces correct results: weights must persist in the enable
        // registers.
        let array = build_array(MacKind::Bsc, 2, 2);
        let p = Precision::Int4;
        let k = array.dot_length(p);
        let mut rng = Rng64::seed_from_u64(3);
        let features = random_matrix(&mut rng, 12, k, p.bits());
        let weights = random_matrix(&mut rng, 2, k, p.bits());
        let gate = array.run_matmul(p, &features, &weights).unwrap();
        assert_eq!(gate, features.matmul_nt(&weights));
    }

    #[test]
    fn array_netlist_scales_with_pe_count() {
        let one = build_array(MacKind::Hps, 1, 2).netlist().stats().total_cells();
        let four = build_array(MacKind::Hps, 4, 2).netlist().stats().total_cells();
        assert!(four > 3 * one && four < 5 * one, "one {one}, four {four}");
    }

    #[test]
    fn shape_errors_mirror_the_behavioural_api() {
        let array = build_array(MacKind::Bsc, 2, 2);
        let bad = array.run_matmul(Precision::Int8, &Matrix::zeros(1, 3), &Matrix::zeros(1, 3));
        assert!(matches!(bad, Err(SystolicError::FeatureWidthMismatch { .. })));
        let bad = array.run_matmul(Precision::Int8, &Matrix::zeros(1, 2), &Matrix::zeros(5, 2));
        assert!(matches!(bad, Err(SystolicError::TooManyWeightRows { .. })));
    }

    /// An operand outside the mode's range, in the features or in the
    /// weights, is the behavioural model's `ValueOutOfRange`, never a
    /// silently wrapped product.
    #[test]
    fn out_of_range_operands_mirror_the_behavioural_api() {
        let (pes, length, p) = (2, 2, Precision::Int4);
        let array = build_array(MacKind::Bsc, pes, length);
        let behavioural =
            SystolicArray::new(ArrayConfig { pes, vector_length: length, kind: MacKind::Bsc });
        let k = array.dot_length(p);
        for bad in [8, -9] {
            for in_weights in [false, true] {
                let mut features = Matrix::zeros(3, k);
                let mut weights = Matrix::zeros(pes, k);
                if in_weights {
                    weights.set(0, 0, bad);
                } else {
                    features.set(0, 0, bad);
                }
                let want =
                    SystolicError::from(MacError::ValueOutOfRange { precision: p, value: bad });
                let beh = behavioural.matmul(p, &features, &weights).map(|run| run.output);
                assert_eq!(beh, Err(want.clone()), "behavioural, weights: {in_weights}");
                let gate = array.run_matmul(p, &features, &weights);
                assert_eq!(gate, Err(want), "gate level, bad {bad}, weights: {in_weights}");
            }
        }
    }
}

#[cfg(test)]
mod energy_validation {
    use super::*;
    use crate::energy::ArrayEnergyModel;
    use crate::ArrayConfig;
    use bsc_mac::ppa::CharacterizeConfig;
    use bsc_synth::{analyze, CellLibrary, EffortModel};

    /// The analytic array model (per-unit report × PEs + wire overhead)
    /// must track a direct gate-level characterization of the full array
    /// netlist: per-MAC energies within ~25%.
    #[test]
    fn analytic_array_model_tracks_gate_level_array() {
        let (pes, length) = (3, 2);
        let kind = MacKind::Bsc;
        let p = Precision::Int4;
        let lib = CellLibrary::smic28_like();
        let effort = EffortModel::default();
        let period = 2400.0;

        // Gate-level: whole-array activity and PPA.
        let array = build_array(kind, pes, length);
        let act = array.characterize_weight_stationary(48, &[(p, 9)]).unwrap().remove(0);
        let macs_per_cycle = (pes * array.dot_length(p)) as f64;
        let gate = analyze(array.netlist(), &act, &lib, &effort, period, macs_per_cycle)
            .unwrap();

        // Analytic: per-unit weight-stationary report scaled by the model.
        let cfg = CharacterizeConfig { length, steps: 48, ..Default::default() };
        let unit = bsc_mac::ppa::DesignCharacterization::new(kind, &cfg).unwrap();
        let report = unit.at_period_weight_stationary(p, period).unwrap();
        let model = ArrayEnergyModel::new(report, ArrayConfig { pes, vector_length: length, kind });
        let analytic_e_mac = 2.0e3 / model.steady_state_tops_per_w();
        let gate_e_mac = gate.energy_per_mac_fj;
        let ratio = analytic_e_mac / gate_e_mac;
        assert!(
            (0.75..1.35).contains(&ratio),
            "analytic {analytic_e_mac:.1} fJ vs gate-level {gate_e_mac:.1} fJ (ratio {ratio:.2})"
        );
    }

    /// The in-eval toggle probe and the `Activity` recorder feeding the
    /// energy model count the same physical flips through independent code
    /// paths: per gate kind, the settled-cycle count (recorder) can never
    /// exceed the per-evaluation count (probe), and any kind the energy
    /// flow sees switching must also switch under the probe.  Flop Q-net
    /// transitions — counted at the clock edge into the probe's `Dff`
    /// bucket — must match the recorder exactly, since Q nets change only
    /// once per recorded cycle.
    ///
    /// The test drives one characterization batch itself (the array's
    /// warm-up and drive steps, on the batch's seed), enabling the probe
    /// once the warm-up has settled the design, and checks that its
    /// recorder is the one `characterize_weight_stationary` returns for
    /// that run, in a call it shares with runs in the other two modes.
    #[test]
    fn toggle_probe_bounds_the_energy_models_activity() {
        use bsc_netlist::tb::{batch_seed, BATCH_STEPS};
        use bsc_netlist::GateKind;
        let (p, seed) = (Precision::Int4, 5);
        for kind in MacKind::ALL {
            let array = build_array(kind, 2, 2);
            let mut sim = Simulator::new(array.netlist()).unwrap();
            let mut rng = Rng64::seed_from_u64(batch_seed(seed, 0));
            array.load_random_weights(&mut sim, p, &mut rng);
            sim.enable_toggle_probe();
            let mut act = Activity::new(&sim);
            for _ in 0..BATCH_STEPS {
                array.drive_random_side(&mut sim, p, &mut rng, OperandSide::Activation);
                sim.step();
                sim.eval();
                act.record(&sim);
            }
            let probe = sim.toggle_stats().expect("probe enabled");
            let runs = [(Precision::Int8, 7), (p, seed), (Precision::Int2, 3)];
            let characterized =
                array.characterize_weight_stationary(BATCH_STEPS, &runs).unwrap().remove(1);
            assert!(
                act.iter_nodes().eq(characterized.iter_nodes())
                    && act.observed_cycles() == characterized.observed_cycles(),
                "{kind}: the probed batch is not the characterized one"
            );
            assert!(probe.total_toggles() > 0, "{kind}: probe saw nothing");
            assert!(
                probe.toggles(GateKind::Dff) > 0,
                "{kind}: sequential activity missing from the probe"
            );
            for gk in GateKind::CELLS {
                let recorded = act.toggles(gk);
                let probed = probe.toggles(gk);
                assert!(
                    recorded <= probed,
                    "{kind} {gk}: activity recorder counted {recorded} but probe only {probed}"
                );
                assert!(
                    recorded == 0 || probed > 0,
                    "{kind} {gk}: energy flow sees switching the probe missed"
                );
            }
            assert_eq!(
                act.toggles(GateKind::Dff),
                probe.toggles(GateKind::Dff),
                "{kind}: flop Q transitions must agree exactly between probe and recorder"
            );
        }
    }
}
