use crate::stats::ToggleStats;
use crate::{Bus, Gate, GateKind, Netlist, NetlistError, NodeId, SIM_LANES};

/// Tape opcodes — one byte per combinational gate in evaluation order.
const OP_NOT: u8 = 0;
const OP_AND: u8 = 1;
const OP_OR: u8 = 2;
const OP_NAND: u8 = 3;
const OP_NOR: u8 = 4;
const OP_XOR: u8 = 5;
const OP_XNOR: u8 = 6;
const OP_MUX: u8 = 7;

#[inline]
fn opcode_kind(op: u8) -> GateKind {
    match op {
        OP_NOT => GateKind::Not,
        OP_AND => GateKind::And,
        OP_OR => GateKind::Or,
        OP_NAND => GateKind::Nand,
        OP_NOR => GateKind::Nor,
        OP_XOR => GateKind::Xor,
        OP_XNOR => GateKind::Xnor,
        _ => GateKind::Mux,
    }
}

/// The compiled evaluation tape: the levelized live combinational gates
/// lowered into a flat struct-of-arrays op stream.
///
/// Sources (inputs, constants, flop outputs) are excluded — constants are
/// folded into the value array once, flops are clocked by
/// [`Simulator::step`] — so evaluation is a branch-light linear sweep over
/// pre-resolved `u32` operand indices instead of a per-gate enum walk
/// through the [`Netlist`].
#[derive(Debug, Default)]
struct Tape {
    opcode: Vec<u8>,
    /// Destination net of each op.
    dst: Vec<u32>,
    /// First operand (the select input for `MUX`).
    src_a: Vec<u32>,
    /// Second operand (the `sel == 0` data input for `MUX`; duplicates
    /// `src_a` for `NOT` so loads never go out of bounds).
    src_b: Vec<u32>,
    /// Third operand (`sel == 1` data input, `MUX` only; duplicated
    /// elsewhere).
    src_c: Vec<u32>,
}

impl Tape {
    fn len(&self) -> usize {
        self.opcode.len()
    }
}

/// A levelized, 64-lane bit-parallel netlist simulator.
///
/// Each net holds a `u64` word whose bit *k* is the net's value in stimulus
/// lane *k*, so one [`Simulator::eval`] pass evaluates the design on up to 64
/// independent input vectors.  This is the reproduction's stand-in for the
/// paper's VCS functional simulation.
///
/// At construction the live combinational logic is lowered into a compiled
/// tape (see `Tape`): [`Simulator::eval`] is a linear sweep over that
/// tape, and [`Simulator::eval_incremental`] is an event-driven sweep that
/// only re-evaluates the fanout cone of nets whose values actually changed
/// since the last evaluation — the fast path for weight-stationary
/// workloads where most of the design is quiescent each cycle.
///
/// Sequential designs advance with [`Simulator::step`], which evaluates the
/// combinational logic and then clocks every flip-flop once.
///
/// # Example
///
/// ```
/// use bsc_netlist::Netlist;
///
/// # fn main() -> Result<(), bsc_netlist::NetlistError> {
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.xor(a, b);
/// n.mark_output(y, "y");
///
/// let mut sim = bsc_netlist::Simulator::new(&n)?;
/// sim.write(a, 0b10);
/// sim.write(b, 0b11);
/// sim.eval();
/// assert_eq!(sim.read(y), 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    order: Vec<NodeId>,
    flops: Vec<(NodeId, NodeId, bool)>,
    values: Vec<u64>,
    probe: Option<ToggleStats>,

    // --- compiled tape ---
    tape: Tape,
    /// Live constant nets and their folded values, re-applied on reset.
    const_nets: Vec<(u32, bool)>,
    /// CSR fanout index over the tape: `fanout_edges[fanout_start[net] ..
    /// fanout_start[net + 1]]` are the tape slots reading `net`.
    fanout_start: Vec<u32>,
    fanout_edges: Vec<u32>,
    /// Per-net upper-bound estimate of the transitive fanout-cone size in
    /// tape ops (saturating; reconvergent paths counted multiply).  The
    /// event-driven sweep pays fanout-marking per changed op, so when the
    /// dirty cone rivals the tape length a plain linear sweep is cheaper —
    /// this estimate decides which to run.
    cone_est: Vec<u32>,

    // --- event-driven state ---
    /// Nets whose value changed since the last evaluation.
    net_dirty: Vec<bool>,
    dirty_nets: Vec<u32>,
    /// Packed per-tape-slot dirty bits (bit `slot % 64` of word
    /// `slot / 64`): the incremental sweep's worklist.  The tape is
    /// topologically ordered, so a linear scan of this bitmap visits ops
    /// in dependency order and marking a consumer always sets a bit the
    /// scan has not passed yet.  All-zero outside an incremental sweep.
    op_dirty: Vec<u64>,
    /// Set after construction / reset: the next incremental evaluation
    /// must sweep the whole tape because every net is potentially stale.
    needs_full: bool,

    /// Reusable next-state buffer for [`Simulator::step`] (one word per
    /// flop) so clocking allocates nothing per cycle.
    flop_scratch: Vec<u64>,

    /// Monotonic clock-edge count since construction or the last
    /// [`Simulator::reset`] — the timestamp domain for characterization
    /// traces (no wall-clock reads on the hot path).
    cycle: u64,

    /// Evaluation-path counters (see [`Simulator::eval_profile`]).
    profile: EvalProfile,
}

/// Counters describing which evaluation paths a [`Simulator`] has taken —
/// how often [`Simulator::eval_incremental`] stayed on the event-driven
/// sweep versus falling back to a full sweep, and how much of the tape the
/// event-driven sweeps actually touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalProfile {
    /// Full linear tape sweeps (direct [`Simulator::eval`] calls plus
    /// dense/stale fallbacks from [`Simulator::eval_incremental`]).
    pub full_sweeps: u64,
    /// [`Simulator::eval_incremental`] calls that ran the event-driven
    /// worklist sweep.
    pub incremental_sweeps: u64,
    /// Tape ops evaluated across all event-driven sweeps.
    pub incremental_ops: u64,
    /// [`Simulator::eval_incremental`] calls that fell back to a full
    /// sweep because every net was stale (fresh or just-reset simulator).
    pub full_fallbacks: u64,
}

impl<'n> Simulator<'n> {
    /// Prepares a simulator for `netlist`: levelizes it once, lowers the
    /// live combinational gates into the compiled tape and builds the
    /// fanout index for event-driven evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the netlist contains
    /// a combinational loop.
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        let order = netlist.levelize()?;
        let flops = netlist.flops();
        let n = netlist.len();

        // Lower to the tape: one op per live combinational gate in
        // topological order (constants folded out, dead nodes already
        // pruned by levelization).  The tape order is the levelization
        // order, so every op's operands are produced before it runs and
        // every consumer of its output comes after it.
        let mut tape = Tape::default();
        let mut const_nets = Vec::new();
        for &id in &order {
            let idx = id.index();
            let gate = netlist.gate(id);
            match gate {
                Gate::Const(c) => const_nets.push((idx as u32, c)),
                Gate::Input { .. } | Gate::Dff { .. } => {}
                _ => {
                    let (opcode, a, b, c) = match gate {
                        Gate::Not(a) => (OP_NOT, a, a, a),
                        Gate::And(a, b) => (OP_AND, a, b, b),
                        Gate::Or(a, b) => (OP_OR, a, b, b),
                        Gate::Nand(a, b) => (OP_NAND, a, b, b),
                        Gate::Nor(a, b) => (OP_NOR, a, b, b),
                        Gate::Xor(a, b) => (OP_XOR, a, b, b),
                        Gate::Xnor(a, b) => (OP_XNOR, a, b, b),
                        Gate::Mux { sel, a, b } => (OP_MUX, sel, a, b),
                        Gate::Const(_) | Gate::Input { .. } | Gate::Dff { .. } => {
                            unreachable!("sources handled above")
                        }
                    };
                    tape.opcode.push(opcode);
                    tape.dst.push(idx as u32);
                    tape.src_a.push(a.index() as u32);
                    tape.src_b.push(b.index() as u32);
                    tape.src_c.push(c.index() as u32);
                }
            }
        }

        // CSR fanout index: net -> tape slots that read it.
        let mut fanout_start = vec![0u32; n + 1];
        let each_src = |slot: usize, tape: &Tape| {
            let a = tape.src_a[slot];
            let b = tape.src_b[slot];
            let c = tape.src_c[slot];
            // Deduplicate repeated operands so one value change enqueues
            // the consumer exactly once per edge list entry.
            let b = if b == a { None } else { Some(b) };
            let c = if Some(c) == b || c == a { None } else { Some(c) };
            (a, b, c)
        };
        for slot in 0..tape.len() {
            let (a, b, c) = each_src(slot, &tape);
            fanout_start[a as usize + 1] += 1;
            if let Some(b) = b {
                fanout_start[b as usize + 1] += 1;
            }
            if let Some(c) = c {
                fanout_start[c as usize + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fanout_edges = vec![0u32; fanout_start[n] as usize];
        let mut cursor = fanout_start.clone();
        for slot in 0..tape.len() {
            let (a, b, c) = each_src(slot, &tape);
            for src in [Some(a), b, c].into_iter().flatten() {
                fanout_edges[cursor[src as usize] as usize] = slot as u32;
                cursor[src as usize] += 1;
            }
        }

        // Transitive cone-size upper bounds, in reverse topological order:
        // an op's cone is itself plus the cone of its output net; a net's
        // cone is the sum over its consuming slots.  Sums saturate at the
        // tape length — beyond that the answer is already "dense".
        let cap = u32::try_from(tape.len()).unwrap_or(u32::MAX);
        let mut cone_est = vec![0u32; n];
        for slot in (0..tape.len()).rev() {
            let op_cone = cone_est[tape.dst[slot] as usize].saturating_add(1).min(cap);
            let (a, b, c) = each_src(slot, &tape);
            for src in [Some(a), b, c].into_iter().flatten() {
                let e = &mut cone_est[src as usize];
                *e = e.saturating_add(op_cone).min(cap);
            }
        }

        let tape_len = tape.len();
        let flop_count = flops.len();
        let mut sim = Simulator {
            netlist,
            order,
            flops,
            values: vec![0; n],
            probe: None,
            tape,
            const_nets,
            fanout_start,
            fanout_edges,
            cone_est,
            net_dirty: vec![false; n],
            dirty_nets: Vec::new(),
            op_dirty: vec![0u64; tape_len.div_ceil(64)],
            needs_full: true,
            flop_scratch: vec![0; flop_count],
            cycle: 0,
            profile: EvalProfile::default(),
        };
        sim.reset();
        Ok(sim)
    }

    /// Resets all flip-flops to their init values and clears input words.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = 0;
        }
        for &(idx, c) in &self.const_nets {
            self.values[idx as usize] = if c { u64::MAX } else { 0 };
        }
        self.reset_keep_inputs();
        self.cycle = 0;
        // Everything combinational is stale until the next evaluation.
        self.needs_full = true;
    }

    /// Resets only the flip-flops to their init values, leaving input
    /// assignments (and stale combinational values, which the next
    /// [`Simulator::eval`] recomputes) untouched.
    pub fn reset_keep_inputs(&mut self) {
        for i in 0..self.flops.len() {
            let (q, _, init) = self.flops[i];
            let v = if init { u64::MAX } else { 0 };
            if self.values[q.index()] != v {
                self.values[q.index()] = v;
                self.mark_net_dirty(q.index());
            }
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    #[inline]
    fn mark_net_dirty(&mut self, idx: usize) {
        if !self.net_dirty[idx] {
            self.net_dirty[idx] = true;
            self.dirty_nets.push(idx as u32);
        }
    }

    fn clear_dirty(&mut self) {
        for &net in &self.dirty_nets {
            self.net_dirty[net as usize] = false;
        }
        self.dirty_nets.clear();
        self.needs_full = false;
    }

    /// Writes a packed 64-lane word to an input (or any source) net.
    pub fn write(&mut self, id: NodeId, word: u64) {
        let idx = id.index();
        if self.values[idx] != word {
            self.values[idx] = word;
            self.mark_net_dirty(idx);
        }
    }

    /// Reads the packed 64-lane word on any net.
    pub fn read(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Writes the same scalar value of a bus into one lane, leaving other
    /// lanes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn write_bus_lane(&mut self, bus: &Bus, lane: usize, value: i64) {
        assert!(lane < SIM_LANES, "lane {lane} outside 0..{SIM_LANES}");
        let mask = 1u64 << lane;
        for (k, &bit) in bus.bits().iter().enumerate() {
            let idx = bit.index();
            let word = if (value >> k) & 1 == 1 {
                self.values[idx] | mask
            } else {
                self.values[idx] & !mask
            };
            if self.values[idx] != word {
                self.values[idx] = word;
                self.mark_net_dirty(idx);
            }
        }
    }

    /// Writes per-lane values of a bus from a slice (lane `i` gets
    /// `values[i]`; missing lanes are set to zero).
    pub fn write_bus_packed(&mut self, bus: &Bus, values: &[i64]) {
        for (k, &bit) in bus.bits().iter().enumerate() {
            let mut word = 0u64;
            for (lane, &v) in values.iter().take(SIM_LANES).enumerate() {
                word |= (((v >> k) & 1) as u64) << lane;
            }
            let idx = bit.index();
            if self.values[idx] != word {
                self.values[idx] = word;
                self.mark_net_dirty(idx);
            }
        }
    }

    /// Reads the unsigned value of a bus in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the bus is wider than 64 bits.
    pub fn read_bus_unsigned_lane(&self, bus: &Bus, lane: usize) -> u64 {
        assert!(lane < SIM_LANES, "lane {lane} outside 0..{SIM_LANES}");
        assert!(bus.width() <= 64, "bus wider than 64 bits");
        let mut out = 0u64;
        for (k, &bit) in bus.bits().iter().enumerate() {
            out |= ((self.values[bit.index()] >> lane) & 1) << k;
        }
        out
    }

    /// Reads the two's-complement value of a bus in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the bus is wider than 64 bits.
    pub fn read_bus_signed_lane(&self, bus: &Bus, lane: usize) -> i64 {
        let raw = self.read_bus_unsigned_lane(bus, lane);
        let w = bus.width();
        if w == 64 {
            return raw as i64;
        }
        let sign = 1u64 << (w - 1);
        if raw & sign != 0 {
            (raw as i64) - (1i64 << w)
        } else {
            raw as i64
        }
    }

    /// Enables the switching-activity probe: subsequent
    /// [`Simulator::eval`] passes count bit flips on every combinational
    /// net, and [`Simulator::step`] counts flip-flop output transitions
    /// (the [`GateKind::Dff`] bucket), grouped by [`crate::GateKind`].
    ///
    /// The design is settled first (one unprobed evaluation pass), so the
    /// probe never counts the spurious transitions away from stale
    /// post-reset net values — callers no longer need a manual settling
    /// `eval` before enabling.
    pub fn enable_toggle_probe(&mut self) {
        if self.probe.is_none() {
            // Settle: bring every combinational net to its steady state
            // without counting, so probed evaluation starts from a
            // representative baseline.
            self.run_tape_full::<false>();
            self.clear_dirty();
            self.probe = Some(ToggleStats::new());
        }
    }

    /// The accumulated toggle statistics, when the probe is enabled.
    pub fn toggle_stats(&self) -> Option<&ToggleStats> {
        self.probe.as_ref()
    }

    /// Takes the accumulated toggle statistics, leaving the probe enabled
    /// and empty.  Returns `None` when the probe was never enabled.
    pub fn take_toggle_stats(&mut self) -> Option<ToggleStats> {
        self.probe.replace(ToggleStats::new())
    }

    /// Disables the probe and returns its accumulated statistics.  A later
    /// [`Simulator::enable_toggle_probe`] re-settles and starts fresh —
    /// this is how a reused simulator ends one probed characterization
    /// batch before being reset for the next.
    pub fn disable_toggle_probe(&mut self) -> Option<ToggleStats> {
        self.probe.take()
    }

    /// Computes tape op `slot` from the current net values.
    #[inline]
    fn compute_op(values: &[u64], tape: &Tape, slot: usize) -> u64 {
        let a = values[tape.src_a[slot] as usize];
        match tape.opcode[slot] {
            OP_NOT => !a,
            OP_AND => a & values[tape.src_b[slot] as usize],
            OP_OR => a | values[tape.src_b[slot] as usize],
            OP_NAND => !(a & values[tape.src_b[slot] as usize]),
            OP_NOR => !(a | values[tape.src_b[slot] as usize]),
            OP_XOR => a ^ values[tape.src_b[slot] as usize],
            OP_XNOR => !(a ^ values[tape.src_b[slot] as usize]),
            _ => {
                (!a & values[tape.src_b[slot] as usize])
                    | (a & values[tape.src_c[slot] as usize])
            }
        }
    }

    /// Full linear sweep over the compiled tape, monomorphized over the
    /// probe so the unprobed path carries no per-gate branch for it.
    fn run_tape_full<const PROBED: bool>(&mut self) {
        let mut probe = if PROBED { self.probe.take() } else { None };
        if let Some(p) = &mut probe {
            p.record_eval();
        }
        // Zipping the SoA columns lets the compiler hoist the per-slot
        // tape bounds checks out of the sweep (this loop is the hottest
        // code in characterization).
        let values = &mut self.values;
        let tape = &self.tape;
        for ((((&op, &dst), &sa), &sb), &sc) in tape
            .opcode
            .iter()
            .zip(&tape.dst)
            .zip(&tape.src_a)
            .zip(&tape.src_b)
            .zip(&tape.src_c)
        {
            let a = values[sa as usize];
            let new = match op {
                OP_NOT => !a,
                OP_AND => a & values[sb as usize],
                OP_OR => a | values[sb as usize],
                OP_NAND => !(a & values[sb as usize]),
                OP_NOR => !(a | values[sb as usize]),
                OP_XOR => a ^ values[sb as usize],
                OP_XNOR => !(a ^ values[sb as usize]),
                _ => (!a & values[sb as usize]) | (a & values[sc as usize]),
            };
            let dst = dst as usize;
            if PROBED {
                let flips = u64::from((values[dst] ^ new).count_ones());
                if flips != 0 {
                    if let Some(p) = &mut probe {
                        p.record(opcode_kind(op), flips);
                    }
                }
            }
            values[dst] = new;
        }
        if PROBED {
            self.probe = probe;
        }
    }

    /// Event-driven sweep: seeds the dirty-op bitmap from the dirty nets'
    /// fanout, then scans the bitmap in tape order evaluating only ops
    /// whose (transitive) inputs changed.  Because the tape is
    /// topologically ordered, marking a consumer always sets a bit ahead
    /// of the scan position, and a whole word of clean ops costs one load.
    fn run_tape_incremental<const PROBED: bool>(&mut self) {
        let mut probe = if PROBED { self.probe.take() } else { None };
        if let Some(p) = &mut probe {
            p.record_eval();
        }
        // Seed: every consumer of a dirty net is marked.
        for di in 0..self.dirty_nets.len() {
            let net = self.dirty_nets[di] as usize;
            let (s, e) = (self.fanout_start[net] as usize, self.fanout_start[net + 1] as usize);
            for ei in s..e {
                let slot = self.fanout_edges[ei] as usize;
                self.op_dirty[slot >> 6] |= 1u64 << (slot & 63);
            }
        }
        let mut evaluated = 0u64;
        for w in 0..self.op_dirty.len() {
            let mut m = self.op_dirty[w];
            if m == 0 {
                continue;
            }
            self.op_dirty[w] = 0;
            while m != 0 {
                let slot = (w << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                evaluated += 1;
                let new = Self::compute_op(&self.values, &self.tape, slot);
                let dst = self.tape.dst[slot] as usize;
                let diff = self.values[dst] ^ new;
                if diff == 0 {
                    continue;
                }
                if PROBED {
                    if let Some(p) = &mut probe {
                        p.record(opcode_kind(self.tape.opcode[slot]), u64::from(diff.count_ones()));
                    }
                }
                self.values[dst] = new;
                let (s, e) = (self.fanout_start[dst] as usize, self.fanout_start[dst + 1] as usize);
                for ei in s..e {
                    let succ = self.fanout_edges[ei] as usize;
                    let bit = 1u64 << (succ & 63);
                    if succ >> 6 == w {
                        // Consumer in the current word: fold it straight
                        // into the in-flight mask (its bit is above the
                        // scan position — the tape is topo-ordered).
                        m |= bit;
                    } else {
                        self.op_dirty[succ >> 6] |= bit;
                    }
                }
            }
        }
        self.profile.incremental_ops += evaluated;
        if PROBED {
            self.probe = probe;
        }
    }

    /// Evaluates all combinational logic for the current input words with
    /// a full sweep over the compiled tape.
    pub fn eval(&mut self) {
        self.profile.full_sweeps += 1;
        if self.probe.is_some() {
            self.run_tape_full::<true>();
        } else {
            self.run_tape_full::<false>();
        }
        self.clear_dirty();
    }

    /// The accumulated evaluation-path counters for this simulator.
    pub fn eval_profile(&self) -> EvalProfile {
        self.profile
    }

    /// Event-driven incremental evaluation: recomputes only the fanout
    /// cone of nets written (or clocked) since the last evaluation,
    /// producing bit-identical net values — and identical
    /// [`ToggleStats`] when the probe is enabled — to a full
    /// [`Simulator::eval`].
    ///
    /// This is the hot path for weight-stationary characterization, where
    /// the weight cone is quiescent and only the feature cone switches
    /// each cycle.  In debug builds the result is cross-validated against
    /// a full recomputation of every tape op.
    pub fn eval_incremental(&mut self) {
        if self.needs_full || self.dirty_cone_is_dense() {
            // Post-construction / post-reset every net is stale; and when
            // the dirty cone covers most of the tape the event-driven
            // sweep's fanout marking costs more than it skips.  Both paths
            // compute identical values and toggle counts, so falling back
            // is free.
            self.profile.full_fallbacks += 1;
            self.eval();
        } else {
            self.profile.incremental_sweeps += 1;
            if self.probe.is_some() {
                self.run_tape_incremental::<true>();
            } else {
                self.run_tape_incremental::<false>();
            }
            self.clear_dirty();
        }
        #[cfg(debug_assertions)]
        self.debug_assert_settled();
    }

    /// Cheap pre-pass density check: the summed transitive cone estimates
    /// of all dirty nets, against half the tape length.  The estimate
    /// counts reconvergent paths multiply, so it errs toward the
    /// always-correct full sweep; input nets that feed only flop D pins
    /// have empty cones, which is what makes pre-clock-edge evaluations of
    /// registered designs nearly free.
    fn dirty_cone_is_dense(&self) -> bool {
        let mut est = 0usize;
        let budget = self.tape.len() / 2;
        for &net in &self.dirty_nets {
            est += self.cone_est[net as usize] as usize;
            if est > budget {
                return true;
            }
        }
        false
    }

    /// Debug-build cross-check: after an evaluation, recomputing any tape
    /// op from the current net values must reproduce its stored output.
    #[cfg(debug_assertions)]
    fn debug_assert_settled(&self) {
        for slot in 0..self.tape.len() {
            let expect = Self::compute_op(&self.values, &self.tape, slot);
            let dst = self.tape.dst[slot] as usize;
            debug_assert_eq!(
                self.values[dst],
                expect,
                "incremental eval left net n{dst} unsettled (tape slot {slot})"
            );
        }
    }

    /// Clocks every flip-flop once from the already-evaluated data pins,
    /// counting Q-output transitions into the probe's [`GateKind::Dff`]
    /// bucket and marking changed Q nets dirty for incremental evaluation.
    fn clock_flops(&mut self) {
        // Two phases so flops reading other flops' outputs all sample the
        // pre-edge values; the scratch buffer is reused across cycles.
        for (i, &(_, d, _)) in self.flops.iter().enumerate() {
            self.flop_scratch[i] = self.values[d.index()];
        }
        let mut dff_flips = 0u64;
        for i in 0..self.flops.len() {
            let q = self.flops[i].0.index();
            let new = self.flop_scratch[i];
            let diff = self.values[q] ^ new;
            if diff != 0 {
                dff_flips += u64::from(diff.count_ones());
                self.values[q] = new;
                self.mark_net_dirty(q);
            }
        }
        if dff_flips != 0 {
            if let Some(p) = &mut self.probe {
                p.record(GateKind::Dff, dff_flips);
            }
        }
        self.cycle += 1;
    }

    /// Clock edges applied since construction or the last
    /// [`Simulator::reset`].
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Evaluates combinational logic and then clocks every flip-flop once.
    pub fn step(&mut self) {
        self.eval();
        self.clock_flops();
    }

    /// [`Simulator::step`] on the incremental path: evaluates the dirty
    /// cone with [`Simulator::eval_incremental`], then clocks the flops.
    pub fn step_incremental(&mut self) {
        self.eval_incremental();
        self.clock_flops();
    }

    /// Snapshot of all net values (used by activity recording).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The levelized evaluation order (live combinational nodes).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of ops on the compiled evaluation tape (live combinational
    /// gates after constant folding and dead-node pruning) — the per-pass
    /// work of a full [`Simulator::eval`].
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn packed_lanes_are_independent() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let x = a
            .bits()
            .iter()
            .zip(b.bits())
            .map(|(&p, &q)| n.xor(p, q))
            .collect::<Bus>();
        n.mark_output_bus("x", &x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_packed(&a, &[0b0011, 0b0101, 0b1111]);
        sim.write_bus_packed(&b, &[0b0001, 0b0100, 0b1111]);
        sim.eval();
        assert_eq!(sim.read_bus_unsigned_lane(&x, 0), 0b0010);
        assert_eq!(sim.read_bus_unsigned_lane(&x, 1), 0b0001);
        assert_eq!(sim.read_bus_unsigned_lane(&x, 2), 0b0000);
    }

    #[test]
    fn signed_read_is_twos_complement() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        n.mark_output_bus("a", &a);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_lane(&a, 0, -3);
        sim.eval();
        assert_eq!(sim.read_bus_signed_lane(&a, 0), -3);
        assert_eq!(sim.read_bus_unsigned_lane(&a, 0), 0b1101);
    }

    #[test]
    fn dff_pipeline_delays_by_one_cycle() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q1 = n.dff(d, false);
        let q2 = n.dff(q1, false);
        n.mark_output(q2, "q2");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(d, 1);
        sim.step();
        assert_eq!(sim.read(q1) & 1, 1);
        assert_eq!(sim.read(q2) & 1, 0);
        sim.step();
        assert_eq!(sim.read(q2) & 1, 1);
    }

    #[test]
    fn cycle_counter_tracks_clock_edges_and_reset() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q = n.dff(d, false);
        n.mark_output(q, "q");
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.cycle(), 0);
        sim.step();
        sim.step_incremental();
        assert_eq!(sim.cycle(), 2);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn constants_survive_reset_and_fold_into_the_tape() {
        let mut n = Netlist::new();
        let one = n.constant(true);
        let q = n.dff(one, false);
        n.mark_output(q, "q");
        n.mark_output(one, "one");
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.read(one), u64::MAX);
        sim.step();
        assert_eq!(sim.read(q), u64::MAX);
        sim.reset();
        assert_eq!(sim.read(one), u64::MAX, "constant restored after reset");
        assert_eq!(sim.read(q), 0, "flop back at init");
        // Constants are folded: they occupy no tape slot.
        assert_eq!(sim.tape_len(), 0);
    }

    #[test]
    fn toggle_probe_counts_exact_bit_flips() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.xor(a, b);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval(); // settle at all-zero
        sim.enable_toggle_probe();
        sim.write(a, 0b101);
        sim.eval(); // y: 0 -> 0b101, lanes 0 and 2 flip
        sim.write(b, 0b001);
        sim.eval(); // y: 0b101 -> 0b100, one lane flips
        let stats = sim.toggle_stats().unwrap();
        assert_eq!(stats.toggles(crate::GateKind::Xor), 3);
        assert_eq!(stats.total_toggles(), 3);
        assert_eq!(stats.evals(), 2);
        assert!((stats.toggles_per_eval() - 1.5).abs() < 1e-12);
        let taken = sim.take_toggle_stats().unwrap();
        assert_eq!(taken.total_toggles(), 3);
        assert_eq!(sim.toggle_stats().unwrap().total_toggles(), 0);
    }

    #[test]
    fn enable_toggle_probe_settles_first() {
        // Without a manual settling eval, the probe must not count the
        // transitions from the stale all-zero post-reset state.
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.not(a); // all-ones at the a=0 steady state
        let z = n.nand(y, b); // all-ones at the b=0 steady state
        n.mark_output(z, "z");
        let mut sim = Simulator::new(&n).unwrap();
        // No manual eval here: enable_toggle_probe settles internally, so
        // the 0 -> all-ones transitions of y and z are not counted.
        sim.enable_toggle_probe();
        sim.eval();
        let stats = sim.toggle_stats().unwrap();
        assert_eq!(
            stats.total_toggles(),
            0,
            "inputs unchanged since settle: no transitions to count"
        );
    }

    #[test]
    fn toggle_probe_agrees_with_external_activity_recorder() {
        use crate::Activity;
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let x = a
            .bits()
            .iter()
            .zip(b.bits())
            .map(|(&p, &q)| n.xor(p, q))
            .collect::<Bus>();
        n.mark_output_bus("x", &x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        sim.enable_toggle_probe();
        let mut act = Activity::new(&sim);
        let mut state = 0xD1CEu64;
        for _ in 0..32 {
            let va = crate::rng::splitmix64(&mut state);
            let vb = crate::rng::splitmix64(&mut state);
            for (k, &bit) in a.bits().iter().enumerate() {
                sim.write(bit, va.rotate_left(k as u32));
            }
            for (k, &bit) in b.bits().iter().enumerate() {
                sim.write(bit, vb.rotate_left(k as u32));
            }
            sim.eval();
            act.record(&sim);
        }
        let probe = sim.toggle_stats().unwrap();
        assert!(probe.toggles(crate::GateKind::Xor) > 0);
        assert_eq!(
            probe.toggles(crate::GateKind::Xor),
            act.toggles(crate::GateKind::Xor),
            "probe and Activity must count the same switching activity"
        );
    }

    #[test]
    fn mux_semantics() {
        let mut n = Netlist::new();
        let s = n.input("s");
        let a = n.input("a");
        let b = n.input("b");
        let m = n.mux(s, a, b);
        n.mark_output(m, "m");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(s, 0b01);
        sim.write(a, 0b10);
        sim.write(b, 0b01);
        sim.eval();
        // lane0: s=1 -> b=1; lane1: s=0 -> a=1
        assert_eq!(sim.read(m) & 0b11, 0b11);
    }

    #[test]
    fn incremental_eval_matches_full_eval_on_random_logic() {
        // A mixed-depth random-ish design: incremental evaluation after
        // partial input writes must agree with a full sweep, net for net.
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (sum, cout) = crate::components::adder::ripple_carry(&mut n, &a, &b, None);
        n.mark_output_bus("sum", &sum);
        n.mark_output(cout, "cout");
        let x = sum
            .bits()
            .iter()
            .zip(a.bits())
            .map(|(&s, &p)| n.xor(s, p))
            .collect::<Bus>();
        n.mark_output_bus("x", &x);

        let mut full = Simulator::new(&n).unwrap();
        let mut inc = Simulator::new(&n).unwrap();
        let mut rng = Rng64::seed_from_u64(0x1C0DE);
        for round in 0..50 {
            // Sometimes touch only one operand (small dirty cone).
            let va = rng.next_u64();
            for (k, &bit) in a.bits().iter().enumerate() {
                full.write(bit, va.rotate_left(k as u32));
                inc.write(bit, va.rotate_left(k as u32));
            }
            if round % 3 == 0 {
                let vb = rng.next_u64();
                for (k, &bit) in b.bits().iter().enumerate() {
                    full.write(bit, vb.rotate_left(k as u32));
                    inc.write(bit, vb.rotate_left(k as u32));
                }
            }
            full.eval();
            inc.eval_incremental();
            assert_eq!(full.values(), inc.values(), "round {round}");
        }
    }

    #[test]
    fn incremental_toggle_stats_match_full_eval_under_random_stimulus() {
        // A registered design driven with randomized stimulus: the
        // incremental path must produce the same net values AND the same
        // ToggleStats (per kind, including the DFF bucket) as full
        // sweeps, cycle for cycle.
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (sum, cout) = crate::components::adder::ripple_carry(&mut n, &a, &b, None);
        let regs: Bus = sum.bits().iter().map(|&s| n.dff(s, false)).collect();
        let fb = regs
            .bits()
            .iter()
            .zip(sum.bits())
            .map(|(&q, &s)| n.xor(q, s))
            .collect::<Bus>();
        n.mark_output_bus("fb", &fb);
        n.mark_output(cout, "cout");

        let mut full = Simulator::new(&n).unwrap();
        let mut inc = Simulator::new(&n).unwrap();
        full.enable_toggle_probe();
        inc.enable_toggle_probe();
        let mut rng = Rng64::seed_from_u64(0xB17_5EED);
        for round in 0..40 {
            let (va, vb) = (rng.next_u64(), rng.next_u64());
            for (k, &bit) in a.bits().iter().enumerate() {
                full.write(bit, va.rotate_left(k as u32));
                inc.write(bit, va.rotate_left(k as u32));
            }
            if round % 4 != 3 {
                for (k, &bit) in b.bits().iter().enumerate() {
                    full.write(bit, vb.rotate_left(k as u32));
                    inc.write(bit, vb.rotate_left(k as u32));
                }
            }
            full.step();
            full.eval();
            inc.step_incremental();
            inc.eval_incremental();
            assert_eq!(full.values(), inc.values(), "round {round}");
        }
        let fs = full.toggle_stats().unwrap();
        let is = inc.toggle_stats().unwrap();
        assert!(fs.toggles(GateKind::Dff) > 0, "registers must have switched");
        assert_eq!(fs.evals(), is.evals());
        assert_eq!(fs.total_toggles(), is.total_toggles());
        for kind in [GateKind::Xor, GateKind::And, GateKind::Or, GateKind::Dff] {
            assert_eq!(fs.toggles(kind), is.toggles(kind), "{kind:?}");
        }
        // The incremental simulator must actually have taken the
        // event-driven path, not just fallen back to full sweeps.
        assert!(inc.eval_profile().incremental_sweeps > 0);
    }

    #[test]
    fn dff_toggles_are_counted_by_the_probe() {
        // One flop driven by its own inverse: Q flips every cycle in
        // every lane, and the probe's DFF bucket must see it.
        let mut n = Netlist::new();
        let q = n.dff_deferred(false);
        let nq = n.not(q);
        n.bind_dff(q, nq);
        n.mark_output(q, "q");
        let mut sim = Simulator::new(&n).unwrap();
        sim.enable_toggle_probe();
        for _ in 0..4 {
            sim.step();
            sim.eval();
        }
        let stats = sim.toggle_stats().unwrap();
        assert_eq!(
            stats.toggles(GateKind::Dff),
            4 * 64,
            "Q flips once per cycle in all 64 lanes"
        );
        // The inverter flips right along with it.
        assert_eq!(stats.toggles(GateKind::Not), 4 * 64);
    }
}
