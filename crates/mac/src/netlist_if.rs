//! Shared harness around a structural vector-MAC netlist: operand packing,
//! mode configuration, simulation driving and activity characterization.

use bsc_netlist::{Activity, Bus, Netlist, NodeId, Simulator, SIM_LANES};
use bsc_netlist::rng::Rng64;
use bsc_netlist::tb::random_signed_fill;

use crate::golden::validate;
use crate::{MacError, MacKind, Precision};

/// Stimulus profile of one characterization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StimulusProfile {
    /// Both operand streams randomized every cycle (the paper's
    /// vector-unit testbench).
    Random,
    /// Weights randomized once at warmup and then held, features
    /// randomized every cycle (the systolic-array operating profile).
    WeightStationary,
}

/// Which operand stream a field layout describes (the two sides differ only
/// for HPS in 2-bit mode, where sub-word routing constraints pin each
/// product's operands to different bit positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSide {
    /// The weight stream (the multiplier `b` inside the units).
    Weight,
    /// The activation / feature stream (the multiplicand `a`).
    Activation,
}

/// LSB position of field `k` within one interface element.
pub(crate) fn field_lsb(kind: MacKind, p: Precision, k: usize, side: OperandSide) -> usize {
    match (kind, p) {
        (_, Precision::Int8) => 0,
        (MacKind::Bsc, Precision::Int4) | (MacKind::Lpc, Precision::Int4) => 4 * k,
        (MacKind::Bsc, Precision::Int2) | (MacKind::Lpc, Precision::Int2) => 2 * k,
        (MacKind::Hps, Precision::Int4) => 4 * k,
        (MacKind::Hps, Precision::Int2) => match side {
            // Quadrant routing: pairs live at (a, b) bit positions
            // (0,0), (4,2), (2,4), (6,6) — see `hps::netlist`.
            OperandSide::Activation => [0, 4, 2, 6][k],
            OperandSide::Weight => [0, 2, 4, 6][k],
        },
    }
}

/// Packs asymmetric-mode fields: operand `k` of width `bits` sits at LSB
/// `k × bits` of the element word.
pub(crate) fn pack_asym(p: Precision, fields: &[i64]) -> i64 {
    let mask = (1i64 << p.bits()) - 1;
    let mut word = 0i64;
    for (k, &v) in fields.iter().enumerate() {
        word |= (v & mask) << (k as u32 * p.bits());
    }
    word
}

/// Packs `fields` (one dot-product operand per field) into the integer
/// value of one interface element — public so array-level netlists can
/// encode their port values with the exact field layout of each design.
pub fn pack_element(
    kind: MacKind,
    p: Precision,
    side: OperandSide,
    fields: &[i64],
) -> i64 {
    let mask = (1i64 << p.bits()) - 1;
    let mut word = 0i64;
    for (k, &v) in fields.iter().enumerate() {
        word |= (v & mask) << field_lsb(kind, p, k, side);
    }
    word
}

/// A built structural netlist of one vector MAC design, together with its
/// I/O descriptors.
///
/// The netlist has registered operand inputs and a registered accumulator
/// output (the interface flops are part of the design and part of its
/// power), two level-held mode pins, and one combinational dot-product
/// result per cycle.
#[derive(Debug)]
pub struct MacNetlist {
    pub(crate) netlist: Netlist,
    pub(crate) kind: MacKind,
    pub(crate) length: usize,
    pub(crate) mode2: NodeId,
    pub(crate) mode8: NodeId,
    /// Asymmetric-mode pins `(asym24, asym48)` when the design was built
    /// with the asymmetric extension (LPC only).
    pub(crate) asym_pins: Option<(NodeId, NodeId)>,
    pub(crate) weights: Vec<Bus>,
    pub(crate) acts: Vec<Bus>,
    /// Combinational dot-product value (before the output register).
    pub(crate) out_comb: Bus,
}

impl MacNetlist {
    /// The underlying gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Architecture of the design.
    pub fn kind(&self) -> MacKind {
        self.kind
    }

    /// Number of element slots.
    pub fn vector_length(&self) -> usize {
        self.length
    }

    /// MACs per cycle in a mode.
    pub fn macs_per_cycle(&self, p: Precision) -> usize {
        self.length * self.kind.fields_per_element(p)
    }

    /// The weight-element input buses (one per element slot).
    pub fn weights(&self) -> &[Bus] {
        &self.weights
    }

    /// The activation-element input buses (one per element slot).
    pub fn acts(&self) -> &[Bus] {
        &self.acts
    }

    /// The `(pin, level)` assignments that configure a precision mode.
    pub fn mode_pins(&self, p: Precision) -> [(NodeId, bool); 2] {
        [
            (self.mode2, p == Precision::Int2),
            (self.mode8, p == Precision::Int8),
        ]
    }

    /// Writes one lane's operand vectors into the interface elements.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::LengthMismatch`] / [`MacError::ValueOutOfRange`]
    /// when the vectors do not match the mode.
    pub fn write_vector_lane(
        &self,
        sim: &mut Simulator<'_>,
        lane: usize,
        p: Precision,
        weights: &[i64],
        acts: &[i64],
    ) -> Result<(), MacError> {
        let n = self.macs_per_cycle(p);
        validate(p, n, weights)?;
        validate(p, n, acts)?;
        let fields = self.kind.fields_per_element(p);
        for e in 0..self.length {
            let wv = pack_element(self.kind, p, OperandSide::Weight, &weights[e * fields..(e + 1) * fields]);
            let av = pack_element(self.kind, p, OperandSide::Activation, &acts[e * fields..(e + 1) * fields]);
            sim.write_bus_lane(&self.weights[e], lane, wv);
            sim.write_bus_lane(&self.acts[e], lane, av);
        }
        Ok(())
    }

    /// Writes all 64 lanes' operand vectors into the interface elements,
    /// one packed word per input bit-plane.
    ///
    /// `lane_vectors(weights, acts)` fills one lane's vectors into two
    /// reused buffers of [`Self::macs_per_cycle`] elements; it is called
    /// once per lane, for lanes `0..64` in order.  Each lane is validated
    /// exactly as [`Self::write_vector_lane`] validates it, and the
    /// simulator ends up holding the same words as 64 calls of that
    /// method; on an error nothing is written.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::ValueOutOfRange`] for the first lane holding an
    /// operand outside the mode's range.
    pub fn write_vector_lanes(
        &self,
        sim: &mut Simulator<'_>,
        p: Precision,
        mut lane_vectors: impl FnMut(&mut [i64], &mut [i64]),
    ) -> Result<(), MacError> {
        let n = self.macs_per_cycle(p);
        let fields = self.kind.fields_per_element(p);
        // One lane's weights, then its activations.
        let mut vectors = vec![0i64; 2 * n];
        let (weights, acts) = vectors.split_at_mut(n);
        // One 64-lane column per element bus: weights, then activations.
        let mut columns = vec![[0i64; SIM_LANES]; 2 * self.length];
        let (w_cols, a_cols) = columns.split_at_mut(self.length);
        for lane in 0..SIM_LANES {
            lane_vectors(weights, acts);
            validate(p, n, weights)?;
            validate(p, n, acts)?;
            for e in 0..self.length {
                let span = e * fields..(e + 1) * fields;
                w_cols[e][lane] =
                    pack_element(self.kind, p, OperandSide::Weight, &weights[span.clone()]);
                a_cols[e][lane] = pack_element(self.kind, p, OperandSide::Activation, &acts[span]);
            }
        }
        for e in 0..self.length {
            sim.write_bus_packed(&self.weights[e], &w_cols[e]);
            sim.write_bus_packed(&self.acts[e], &a_cols[e]);
        }
        Ok(())
    }

    /// Reads the combinational dot-product result of one lane (after the
    /// input registers have been clocked and the logic evaluated).
    pub fn read_dot_lane(&self, sim: &Simulator<'_>, lane: usize) -> i64 {
        sim.read_bus_signed_lane(&self.out_comb, lane)
    }

    /// Holds the mode pins of `p` on the simulator (and clears the
    /// asymmetric pins when present).
    pub fn set_mode(&self, sim: &mut Simulator<'_>, p: Precision) {
        for (pin, v) in self.mode_pins(p) {
            sim.write(pin, if v { u64::MAX } else { 0 });
        }
        if let Some((a24, a48)) = self.asym_pins {
            sim.write(a24, 0);
            sim.write(a48, 0);
        }
    }

    /// Whether this netlist was built with asymmetric-mode support.
    pub fn supports_asym(&self) -> bool {
        self.asym_pins.is_some()
    }

    /// Holds the pins for an asymmetric mode.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::AsymUnsupported`] when the design was built
    /// without the extension.
    pub fn set_asym_mode(
        &self,
        sim: &mut Simulator<'_>,
        mode: crate::asym::AsymMode,
    ) -> Result<(), MacError> {
        let (a24, a48) = self.asym_pins.ok_or(MacError::AsymUnsupported)?;
        sim.write(self.mode2, 0);
        sim.write(self.mode8, 0);
        sim.write(a24, if mode == crate::asym::AsymMode::W2A4 { u64::MAX } else { 0 });
        sim.write(a48, if mode == crate::asym::AsymMode::W4A8 { u64::MAX } else { 0 });
        Ok(())
    }

    /// MACs per cycle in an asymmetric mode.
    pub fn macs_per_cycle_asym(&self, mode: crate::asym::AsymMode) -> usize {
        self.length * mode.products_per_lpc_unit()
    }

    /// Computes one asymmetric dot product through the netlist (lane 0).
    ///
    /// # Errors
    ///
    /// Returns [`MacError::AsymUnsupported`] without the extension, plus
    /// the usual length/range validation errors.
    pub fn eval_dot_asym(
        &self,
        mode: crate::asym::AsymMode,
        weights: &[i64],
        acts: &[i64],
    ) -> Result<i64, MacError> {
        let n = self.macs_per_cycle_asym(mode);
        validate(mode.weight, n, weights)?;
        validate(mode.act, n, acts)?;
        let mut sim = Simulator::new(&self.netlist)?;
        self.set_asym_mode(&mut sim, mode)?;
        let fields = mode.products_per_lpc_unit();
        for e in 0..self.length {
            let wv = pack_asym(mode.weight, &weights[e * fields..(e + 1) * fields]);
            let av = pack_asym(mode.act, &acts[e * fields..(e + 1) * fields]);
            sim.write_bus_lane(&self.weights[e], 0, wv);
            sim.write_bus_lane(&self.acts[e], 0, av);
        }
        sim.step();
        sim.eval();
        Ok(self.read_dot_lane(&sim, 0))
    }

    /// Switching-activity characterization in an asymmetric mode.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::AsymUnsupported`] without the extension.
    pub fn characterize_asym(
        &self,
        mode: crate::asym::AsymMode,
        steps: usize,
        seed: u64,
    ) -> Result<Activity, MacError> {
        let mut sim = Simulator::new(&self.netlist)?;
        let mut rng = Rng64::seed_from_u64(seed);
        self.set_asym_mode(&mut sim, mode)?;
        // Buffers are allocated once per call.  The draw order (per element,
        // per lane: the weight fields, then the activation fields) is what
        // `BENCH_extensions_baseline.txt` pins.
        let fields = mode.products_per_lpc_unit();
        let (mut wf, mut af) = (vec![0i64; fields], vec![0i64; fields]);
        let (mut w_lane, mut a_lane) = ([0i64; SIM_LANES], [0i64; SIM_LANES]);
        let mut drive = |sim: &mut Simulator<'_>, rng: &mut Rng64| {
            for e in 0..self.length {
                for lane in 0..SIM_LANES {
                    random_signed_fill(rng, mode.weight.bits(), &mut wf);
                    random_signed_fill(rng, mode.act.bits(), &mut af);
                    w_lane[lane] = pack_asym(mode.weight, &wf);
                    a_lane[lane] = pack_asym(mode.act, &af);
                }
                sim.write_bus_packed(&self.weights[e], &w_lane);
                sim.write_bus_packed(&self.acts[e], &a_lane);
            }
        };
        drive(&mut sim, &mut rng);
        sim.step();
        sim.eval();
        let mut act = Activity::new(&sim);
        for _ in 0..steps {
            drive(&mut sim, &mut rng);
            sim.step();
            sim.eval();
            act.record(&sim);
        }
        Ok(act)
    }

    /// Computes one dot product through the netlist (lane 0), for
    /// equivalence testing against the functional model.
    ///
    /// # Errors
    ///
    /// Propagates operand validation and netlist errors.
    pub fn eval_dot(
        &self,
        p: Precision,
        weights: &[i64],
        acts: &[i64],
    ) -> Result<i64, MacError> {
        let mut sim = Simulator::new(&self.netlist)?;
        self.set_mode(&mut sim, p);
        self.write_vector_lane(&mut sim, 0, p, weights, acts)?;
        sim.step(); // latch operands
        sim.eval(); // compute
        Ok(self.read_dot_lane(&sim, 0))
    }

    /// Runs a randomized switching-activity characterization in mode `p`:
    /// `steps` cycles of fresh uniform operands across all 64 lanes, with
    /// the mode pins held.
    ///
    /// The stimulus runs through the shared batched testbench
    /// ([`bsc_netlist::tb::run_batched_activity`]): fixed-size batches
    /// sharded over a scoped thread pool, each worker owning its own
    /// [`Simulator`], and the per-batch recorders merged in batch order,
    /// so results are deterministic and independent of the worker count.
    /// The operand inputs are registered, so each cycle sweeps the tape
    /// once, after the clock edge.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::Netlist`] for combinational cycles.
    pub fn characterize(
        &self,
        p: Precision,
        steps: usize,
        seed: u64,
    ) -> Result<Activity, MacError> {
        let mut acts =
            self.characterize_suite(steps, &[(p, StimulusProfile::Random, seed)], None)?;
        Ok(acts.pop().expect("one run"))
    }

    /// Runs a *weight-stationary* switching-activity characterization in
    /// mode `p`: within each stimulus batch the weight stream is randomized
    /// once and then held (as in the systolic array, where each PE keeps
    /// its weight vector for a whole tile) while the feature stream gets
    /// fresh uniform operands every cycle.
    ///
    /// Each cycle still sweeps the whole tape once, after the clock edge;
    /// holding the weights lowers how many nets toggle, not the work.
    ///
    /// # Errors
    ///
    /// Returns [`MacError::Netlist`] for combinational cycles.
    pub fn characterize_weight_stationary(
        &self,
        p: Precision,
        steps: usize,
        seed: u64,
    ) -> Result<Activity, MacError> {
        let mut acts =
            self.characterize_suite(steps, &[(p, StimulusProfile::WeightStationary, seed)], None)?;
        Ok(acts.pop().expect("one run"))
    }

    /// Characterizes one or more runs (each a `(mode, stimulus profile,
    /// seed)` triple over this netlist) in one call of the shared batched
    /// testbench, so a whole design's characterization (all modes, both
    /// profiles) shares each worker's simulator (a full levelize + tape
    /// compile) instead of rebuilding it per run.  Each batch warms up by
    /// holding the mode pins, randomizing both operand streams once and
    /// settling, so the recorded baseline is a live state, not the reset
    /// state.
    pub(crate) fn characterize_suite(
        &self,
        steps: usize,
        runs: &[(Precision, StimulusProfile, u64)],
        workers: Option<usize>,
    ) -> Result<Vec<Activity>, MacError> {
        let seeds: Vec<u64> = runs.iter().map(|&(_, _, seed)| seed).collect();
        bsc_netlist::tb::run_batched_activity(
            &self.netlist,
            steps,
            &seeds,
            workers,
            |sim, run, rng| {
                let p = runs[run].0;
                self.set_mode(sim, p);
                self.drive_random(sim, p, rng);
                sim.step();
                sim.eval();
            },
            |sim, run, rng| match runs[run] {
                (p, StimulusProfile::Random, _) => self.drive_random(sim, p, rng),
                (p, StimulusProfile::WeightStationary, _) => {
                    self.drive_random_side(sim, p, rng, OperandSide::Activation);
                }
            },
        )
        .map_err(MacError::from)
    }

    /// Drives one operand side with fresh uniform stimulus, one packed
    /// 64-lane word per bit-plane.
    ///
    /// Every mode's field layout tiles exactly the low `fields × bits`
    /// bits of the element (see [`field_lsb`]; the HPS 2-bit quadrant
    /// permutation still covers the full byte), and each field is uniform
    /// over its full two's-complement range — so the used bit-planes are
    /// independent uniform bits, and one `next_u64` per plane yields the
    /// same stimulus distribution as packing 64 per-lane field vectors at
    /// 1/64th the RNG and transpose work.  Planes above the mode's used
    /// width are held at zero, exactly as [`pack_element`] leaves them.
    fn drive_random_side(
        &self,
        sim: &mut Simulator<'_>,
        p: Precision,
        rng: &mut Rng64,
        side: OperandSide,
    ) {
        let used = self.kind.fields_per_element(p) * p.bits() as usize;
        let buses = match side {
            OperandSide::Weight => &self.weights,
            OperandSide::Activation => &self.acts,
        };
        for bus in buses.iter().take(self.length) {
            for (k, &bit) in bus.bits().iter().enumerate() {
                let word = if k < used { rng.next_u64() } else { 0 };
                sim.write(bit, word);
            }
        }
    }

    fn drive_random(&self, sim: &mut Simulator<'_>, p: Precision, rng: &mut Rng64) {
        self.drive_random_side(sim, p, rng, OperandSide::Weight);
        self.drive_random_side(sim, p, rng, OperandSide::Activation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsc_field_layout_is_contiguous() {
        assert_eq!(field_lsb(MacKind::Bsc, Precision::Int4, 3, OperandSide::Weight), 12);
        assert_eq!(field_lsb(MacKind::Bsc, Precision::Int2, 7, OperandSide::Weight), 14);
    }

    #[test]
    fn hps_2bit_sides_differ() {
        let a = field_lsb(MacKind::Hps, Precision::Int2, 1, OperandSide::Activation);
        let w = field_lsb(MacKind::Hps, Precision::Int2, 1, OperandSide::Weight);
        assert_eq!((a, w), (4, 2));
    }

    /// `levelize` lists every live node exactly once and no dead one,
    /// each combinational node after its operands.
    fn assert_levelized(n: &bsc_netlist::Netlist) {
        let order = n.levelize().expect("acyclic");
        let live = n.live_set();
        let mut pos = vec![usize::MAX; n.len()];
        for (i, id) in order.iter().enumerate() {
            assert!(live[id.index()], "dead node {id} levelized");
            assert_eq!(pos[id.index()], usize::MAX, "{id} levelized twice");
            pos[id.index()] = i;
        }
        assert_eq!(order.len(), live.iter().filter(|&&l| l).count(), "a live node is missing");
        for &id in &order {
            let gate = n.gate(id);
            if !gate.is_source() {
                for op in gate.operands() {
                    assert!(pos[op.index()] < pos[id.index()], "{op} comes after its user {id}");
                }
            }
        }
    }

    #[test]
    fn levelize_orders_every_live_node_once_operands_first() {
        for kind in MacKind::ALL {
            assert_levelized(crate::build_netlist(kind, 4).netlist());
        }
        // Dead logic, plus a deferred flop whose data pin reads its own
        // output, next to an enable register (also built deferred).
        let mut n = bsc_netlist::Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let en = n.input("en");
        let dead = n.xor(a, b);
        let _also_dead = n.and(dead, en);
        let q = n.dff_deferred(false);
        let d = n.xor(q, a);
        n.bind_dff(q, d);
        let r = n.dff_en(b, en, true);
        let y = n.or(q, r);
        let z = n.nand(y, d);
        n.mark_output(z, "z");
        assert_levelized(&n);
    }

    /// Seeded random operand vectors for all 64 lanes: `(weights, acts)`.
    fn random_lanes(rng: &mut Rng64, p: Precision, n: usize) -> Vec<(Vec<i64>, Vec<i64>)> {
        use bsc_netlist::tb::random_signed_vec;
        (0..SIM_LANES)
            .map(|_| (random_signed_vec(rng, p.bits(), n), random_signed_vec(rng, p.bits(), n)))
            .collect()
    }

    /// The bit-plane writer against the per-lane oracle, in every design
    /// and mode: the same net words after each write, and the same words
    /// and toggle counts after each probed cycle.
    #[test]
    fn lane_writer_matches_per_lane_writes() {
        let mut rng = Rng64::seed_from_u64(0x1A9E5);
        for kind in MacKind::ALL {
            let mac = crate::build_netlist(kind, 4);
            for p in Precision::ALL {
                let n = mac.macs_per_cycle(p);
                let mut oracle = Simulator::new(mac.netlist()).unwrap();
                let mut planes = Simulator::new(mac.netlist()).unwrap();
                for sim in [&mut oracle, &mut planes] {
                    mac.set_mode(sim, p);
                    sim.enable_toggle_probe();
                }
                // Three cycles, so later writes overwrite live words.
                for cycle in 0..3 {
                    let lanes = random_lanes(&mut rng, p, n);
                    for (lane, (w, a)) in lanes.iter().enumerate() {
                        mac.write_vector_lane(&mut oracle, lane, p, w, a).unwrap();
                    }
                    let mut next = lanes.iter();
                    mac.write_vector_lanes(&mut planes, p, |w, a| {
                        let (lw, la) = next.next().expect("one call per lane");
                        w.copy_from_slice(lw);
                        a.copy_from_slice(la);
                    })
                    .unwrap();
                    let at = format!("{kind} {p} cycle {cycle}");
                    assert_eq!(planes.values(), oracle.values(), "{at}: written words");
                    for sim in [&mut oracle, &mut planes] {
                        sim.step();
                        sim.eval();
                    }
                    assert_eq!(planes.values(), oracle.values(), "{at}: settled words");
                    assert_eq!(planes.toggle_stats(), oracle.toggle_stats(), "{at}: toggles");
                }
                assert_eq!(planes.toggle_stats().unwrap().evals(), 6);
            }
        }
    }

    /// An out-of-range operand in any lane, on either side, is the error
    /// the per-lane path returns for it.
    #[test]
    fn lane_writer_rejects_what_per_lane_writes_reject() {
        let mut rng = Rng64::seed_from_u64(0xBAD0);
        for kind in MacKind::ALL {
            let mac = crate::build_netlist(kind, 4);
            for p in Precision::ALL {
                let n = mac.macs_per_cycle(p);
                let half = 1i64 << (p.bits() - 1);
                for bad in [half, -half - 1] {
                    let mut lanes = random_lanes(&mut rng, p, n);
                    let (lane, i) = (rng.gen_range(0..SIM_LANES), rng.gen_range(0..n));
                    if rng.gen_range(0..2u32) == 0 {
                        lanes[lane].0[i] = bad;
                    } else {
                        lanes[lane].1[i] = bad;
                    }
                    let mut sim = Simulator::new(mac.netlist()).unwrap();
                    let oracle = lanes
                        .iter()
                        .enumerate()
                        .find_map(|(l, (w, a))| mac.write_vector_lane(&mut sim, l, p, w, a).err())
                        .expect("the per-lane path rejects the bad operand");
                    let mut next = lanes.iter();
                    let got = mac
                        .write_vector_lanes(&mut sim, p, |w, a| {
                            let (lw, la) = next.next().expect("one call per lane");
                            w.copy_from_slice(lw);
                            a.copy_from_slice(la);
                        })
                        .unwrap_err();
                    assert_eq!(got, oracle, "{kind} {p} lane {lane}");
                    assert_eq!(got, MacError::ValueOutOfRange { precision: p, value: bad });
                }
            }
        }
    }

    #[test]
    fn pack_element_masks_twos_complement() {
        // -1 in 2 bits is 0b11; four fields of -1 fill a byte.
        let v = pack_element(MacKind::Hps, Precision::Int2, OperandSide::Weight, &[-1, -1, -1, -1]);
        assert_eq!(v, 0xFF);
        let v = pack_element(MacKind::Bsc, Precision::Int4, OperandSide::Weight, &[-8, 7, 0, -1]);
        assert_eq!(v, 0x8 | (0x7 << 4) | (0xF << 12));
    }
}
